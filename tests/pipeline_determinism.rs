//! The parallel pipeline is bit-deterministic: any worker count produces
//! byte-identical printed IL and identical report counters.
//!
//! This is the load-bearing guarantee behind the per-function fan-out —
//! per-function passes share only the read-only tag table, and regalloc's
//! spill tags are committed in function-index order — so it is checked
//! across the whole benchmark suite at every figure variant.

use driver::{PipelineConfig, PipelineReport, WorkerPool};

fn counters(r: &PipelineReport) -> (usize, String, usize, usize, usize, usize, usize, usize) {
    (
        r.strengthened,
        format!("{:?}{:?}", r.promotion, r.alloc),
        r.lvn_rewrites,
        r.loads_eliminated,
        r.constants_folded,
        r.licm_moved,
        r.dce_removed,
        r.cleaned,
    )
}

#[test]
fn parallel_pipeline_matches_sequential_everywhere() {
    let sequential = WorkerPool::new(1);
    let parallel = [2usize, 4, 8].map(|workers| (workers, WorkerPool::new(workers)));
    for b in benchsuite::SUITE {
        let base = minic::compile(b.source).unwrap_or_else(|e| panic!("{}: {e}", b.name));
        for (label, config) in PipelineConfig::figure_variants() {
            let mut m_seq = base.clone();
            let r_seq = driver::run_pipeline_in(&mut m_seq, &config, &sequential);
            for (workers, pool) in &parallel {
                let mut m_par = base.clone();
                let r_par = driver::run_pipeline_in(&mut m_par, &config, pool);
                assert_eq!(
                    m_seq.to_string(),
                    m_par.to_string(),
                    "{}/{label}: printed IL diverged between 1 and {workers} threads",
                    b.name
                );
                assert_eq!(
                    counters(&r_seq),
                    counters(&r_par),
                    "{}/{label}: report counters diverged at {workers} threads",
                    b.name
                );
            }
        }
    }
}

/// The remark stream is part of the determinism contract: with tracing
/// on, every worker count must produce a byte-identical JSONL trace (and
/// the same IL as the untraced pipeline). Events are buffered
/// per-function in the workers and assembled in function-index order, so
/// scheduling must not be observable.
#[test]
fn remark_streams_are_identical_across_worker_counts() {
    let mut suite_records = 0usize;
    for b in benchsuite::SUITE {
        let base = minic::compile(b.source).unwrap_or_else(|e| panic!("{}: {e}", b.name));
        let mut reference: Option<String> = None;
        for workers in [1usize, 2, 8] {
            let pool = WorkerPool::new(workers);
            let config = PipelineConfig {
                threads: Some(workers),
                trace: true,
                ..Default::default()
            };
            let mut m = base.clone();
            let (_, log) = driver::run_pipeline_traced(&mut m, &config, &pool);
            suite_records += log.len();
            let jsonl = log.to_jsonl();
            match &reference {
                None => reference = Some(jsonl),
                Some(r) => assert_eq!(
                    r, &jsonl,
                    "{}: remark stream diverged between 1 and {workers} workers",
                    b.name
                ),
            }
        }
    }
    assert!(suite_records > 0, "the suite must emit remarks");
}

#[test]
fn env_override_is_equivalent_to_explicit() {
    // PROMO_THREADS only fills in when the config leaves threads unset.
    assert_eq!(driver::resolve_threads(Some(1)), 1);
    assert_eq!(driver::resolve_threads(Some(6)), 6);
    let b = &benchsuite::SUITE[0];
    let base = minic::compile(b.source).expect("compile");
    let config = PipelineConfig::default();
    let mut with_auto = base.clone();
    driver::run_pipeline_in(
        &mut with_auto,
        &config,
        &WorkerPool::new(driver::resolve_threads(None)),
    );
    let mut with_one = base.clone();
    driver::run_pipeline_in(&mut with_one, &config, &WorkerPool::new(1));
    assert_eq!(with_auto.to_string(), with_one.to_string());
}
