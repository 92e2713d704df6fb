//! Wall-clock overhead gates for the parallel pipeline and the tracing
//! layer, over the whole benchmark suite.
//!
//! Both gates bound a *ratio* of two timings taken in the same process,
//! so they hold on any machine that is not pathologically noisy; neither
//! demands a speedup the hardware may not deliver (on a single-core
//! runner two workers cannot beat one, so the parallel gate bounds
//! overhead). Absolute times are the business of `perfbench`.
//!
//! The tests are `#[ignore]`d because timing ratios only mean something
//! in an optimized build: run them with
//! `cargo test --release -p promo-bench --test overhead_gates -- --ignored`.

use bench_harness::timing::{measure, measure_alternating};
use driver::{run_pipeline_in, PipelineConfig, WorkerPool};
use std::sync::Mutex;
use std::time::Duration;

/// The test harness runs tests on parallel threads; each gate holds this
/// lock while it times, so the other gate's work never lands in its
/// samples.
static TIMING: Mutex<()> = Mutex::new(());

/// Most the 2-worker suite total may exceed the 1-worker total by.
const MAX_2T_SLOWDOWN: f64 = 1.25;
/// Most the traced suite total may exceed the untraced total by: the
/// "near-free when on" half of the telemetry contract (DESIGN.md §10).
const MAX_TRACE_OVERHEAD: f64 = 1.15;
/// Timed samples per program and arm. A suite program compiles in
/// 0.1–0.4 ms, so one sample is mostly scheduler noise; the minimum of
/// 15 is stable to a few percent from run to run.
const ITERS: usize = 15;

fn config(threads: usize, trace: bool) -> PipelineConfig {
    PipelineConfig {
        threads: Some(threads),
        validate_each_pass: false,
        trace,
        ..Default::default()
    }
}

fn suite_modules() -> Vec<ir::Module> {
    benchsuite::SUITE
        .iter()
        .map(|b| minic::compile(b.source).unwrap_or_else(|e| panic!("{}: {e}", b.name)))
        .collect()
}

fn ratio(num: Duration, den: Duration) -> f64 {
    num.as_secs_f64() / den.as_secs_f64().max(1e-9)
}

/// The 2-worker pipeline is at most 1.25× the sequential time, summed
/// over the suite's per-program minimums. Each program times its two
/// arms as back-to-back blocks on pools created once, outside the timing
/// loop: interleaving single samples lets the 2-worker pool's threads go
/// idle between samples and measures wake-up latency, not the pipeline.
#[test]
#[ignore = "wall-clock gate; run in release with --ignored"]
fn two_workers_stay_within_slowdown_bound() {
    let _timing = TIMING.lock().unwrap_or_else(|e| e.into_inner());
    let (seq_pool, par_pool) = (WorkerPool::new(1), WorkerPool::new(2));
    let (seq_cfg, par_cfg) = (config(1, false), config(2, false));
    let (mut seq, mut par) = (Duration::ZERO, Duration::ZERO);
    for module in &suite_modules() {
        seq += measure(ITERS, || {
            run_pipeline_in(&mut module.clone(), &seq_cfg, &seq_pool);
        })
        .min;
        par += measure(ITERS, || {
            run_pipeline_in(&mut module.clone(), &par_cfg, &par_pool);
        })
        .min;
    }
    let slowdown = ratio(par, seq);
    println!("2-worker slowdown {slowdown:.3}x ({par:?} vs {seq:?} sequential)");
    assert!(
        slowdown <= MAX_2T_SLOWDOWN,
        "the 2-worker suite took {slowdown:.3}x the sequential time (limit \
         {MAX_2T_SLOWDOWN}x) — parallel overhead regression"
    );
}

/// Tracing on costs at most 15% over tracing off, summed over the
/// suite's per-program minimums. Traced and untraced samples alternate
/// on one sequential pool, so a burst of machine noise hits both sides
/// instead of inflating whichever block it happened to land on.
#[test]
#[ignore = "wall-clock gate; run in release with --ignored"]
fn tracing_stays_within_overhead_bound() {
    let _timing = TIMING.lock().unwrap_or_else(|e| e.into_inner());
    let pool = WorkerPool::new(1);
    let (off_cfg, on_cfg) = (config(1, false), config(1, true));
    let (mut off, mut on) = (Duration::ZERO, Duration::ZERO);
    for module in &suite_modules() {
        let (o, t) = measure_alternating(
            ITERS,
            || {
                run_pipeline_in(&mut module.clone(), &off_cfg, &pool);
            },
            || {
                run_pipeline_in(&mut module.clone(), &on_cfg, &pool);
            },
        );
        off += o.min;
        on += t.min;
    }
    let overhead = ratio(on, off);
    println!("trace overhead {overhead:.3}x ({on:?} on vs {off:?} off)");
    assert!(
        overhead <= MAX_TRACE_OVERHEAD,
        "the traced suite took {overhead:.3}x the untraced time (limit \
         {MAX_TRACE_OVERHEAD}x) — the telemetry layer is no longer near-free"
    );
}
