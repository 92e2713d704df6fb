//! Wall-clock overhead gates for the parallel pipeline and the tracing
//! layer, over the whole benchmark suite, and for the incremental cache
//! on a wide synthetic module.
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
use driver::{run_pipeline, PipelineConfig, Session, WorkerPool};
use std::fmt::Write;
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
/// Most an all-hit warm compile of the wide module may take, as a
/// fraction of a cold compile of the same source. Both pay the front end
/// and the analysis barrier; the warm side then only fingerprints and
/// splices, so the ratio measures what the cache costs per compile
/// against the fused chain it replaces.
const MAX_WARM_TO_COLD: f64 = 0.75;
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
            run_pipeline(&mut module.clone(), &seq_cfg, &seq_pool, None);
        })
        .min;
        par += measure(ITERS, || {
            run_pipeline(&mut module.clone(), &par_cfg, &par_pool, None);
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
                run_pipeline(&mut module.clone(), &off_cfg, &pool, None);
            },
            || {
                run_pipeline(&mut module.clone(), &on_cfg, &pool, None);
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

/// Functions and address-taken globals in [`wide_module`].
const WIDE_FUNCS: usize = 150;
const WIDE_GLOBALS: usize = 2 * WIDE_FUNCS;

/// A module shaped like the scaled benchmark's worst case for the cache:
/// every function loads and stores through pointer parameters, and
/// `main` takes the address of every global, so MOD/REF gives each
/// ambiguous load, store and call the whole address-taken universe as its
/// tag set.
fn wide_module() -> String {
    let mut src = String::new();
    for g in 0..WIDE_GLOBALS {
        writeln!(src, "int g{g};").unwrap();
    }
    for f in 0..WIDE_FUNCS {
        writeln!(
            src,
            "int f{f}(int *p, int *q) {{ int i; int s; s = 0; \
             for (i = 0; i < {}; i++) {{ *p = *p + i; s = s + *q; }} return s; }}",
            2 + f % 7
        )
        .unwrap();
    }
    src.push_str("int main() { int s; s = 0;\n");
    for f in 0..WIDE_FUNCS {
        writeln!(src, "s = s + f{f}(&g{}, &g{});", 2 * f, 2 * f + 1).unwrap();
    }
    src.push_str("print_int(s); return 0; }\n");
    src
}

/// An all-hit warm compile of the wide module costs at most
/// [`MAX_WARM_TO_COLD`] of a cold compile. The cache's per-compile work
/// (fingerprint every function, splice every body) must stay well below
/// the fused chain it skips, even when tag sets hold hundreds of members.
#[test]
#[ignore = "wall-clock gate; run in release with --ignored"]
fn all_hit_warm_compile_stays_below_cold_compile() {
    let _timing = TIMING.lock().unwrap_or_else(|e| e.into_inner());
    let src = wide_module();
    let warm = Session::builder()
        .threads(Some(1))
        .incremental(true)
        .build();
    let cold = Session::builder().threads(Some(1)).build();
    let first = warm.compile(&src).expect("wide module compiles");
    let incr = first.report.incremental.as_ref().expect("cache activity");
    assert_eq!(incr.funcs_total, WIDE_FUNCS + 1);
    let (w, c) = measure_alternating(
        ITERS,
        || {
            let c = warm.compile(&src).expect("warm compile");
            let incr = c.report.incremental.as_ref().expect("cache activity");
            assert_eq!(incr.cache_hits, incr.funcs_total, "{incr:?}");
        },
        || {
            cold.compile(&src).expect("cold compile");
        },
    );
    let fraction = ratio(w.min, c.min);
    println!(
        "all-hit warm compile {fraction:.3}x cold ({:?} vs {:?})",
        w.min, c.min
    );
    assert!(
        fraction <= MAX_WARM_TO_COLD,
        "an all-hit warm compile took {fraction:.3}x a cold compile (limit \
         {MAX_WARM_TO_COLD}x) — the cache's per-compile cost regressed"
    );
}
