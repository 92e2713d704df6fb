//! Counter budgets for the steady-state pipeline: allocator calls,
//! analysis builds, and dataflow transfer evaluations.
//!
//! The steady-state claim — a warm session compiles a program it has seen
//! before almost entirely out of recycled shells and per-worker scratch
//! arenas — is enforced here as a hard budget. The test installs
//! [`trace::CountingAlloc`] as the process allocator, warms a
//! single-threaded session on every suite program once, then counts
//! allocator calls across a second compile of each and pins the total.
//! Losing scratch reuse anywhere in the chain puts the total back in the
//! fresh-allocation regime (~10k calls) and trips the budget immediately.
//! The same loop sums the analysis-build ledger and the dataflow solvers'
//! transfer evaluations from each compile's `PipelineReport`, so a pass
//! that starts rebuilding its CFG or a solver that falls back to dense
//! resweeps fails here too.
//!
//! These are deterministic counts, so each budget is the measured value
//! plus headroom for suite drift, not for noise: 1,752 / 2,600 steady-state
//! allocator calls, 1,555 / 2,500 front-end allocator calls, 389 / 500
//! analysis builds, and 15,330 / 20,000 transfer evaluations across the
//! suite. Counts, not bytes, are pinned: a count regression means a
//! per-function allocation crept back into a pass loop.

#[global_allocator]
static ALLOC: trace::CountingAlloc = trace::CountingAlloc;

use driver::Session;
use std::sync::Mutex;
use trace::AllocStats;

/// The allocator counters are process-wide, and the test harness runs
/// tests on parallel threads: each test holds this lock while it counts,
/// so it never measures another test's allocations.
static COUNTING: Mutex<()> = Mutex::new(());

/// Upper bound on allocator calls for one steady-state compile of the
/// whole suite. Measured at ~1.75k with every program warmed before any
/// is counted (vs ~10k with `reuse_scratch` off).
const STEADY_STATE_ALLOC_BUDGET: u64 = 2_600;

/// Upper bound on allocator calls for one steady-state *front-end*
/// compile of the whole suite (lex + parse + lower on a warm
/// [`minic::Frontend`]). Measured at ~1.6k after the interned front end
/// landed (vs ~8.7k through `minic::classic`).
const FRONTEND_ALLOC_BUDGET: u64 = 2_500;

/// Upper bound on CFG + dominator + loop-forest + loop-geometry +
/// liveness constructions across one compile of the suite. The shared
/// per-function analysis cache measures 389; rebuild-per-pass measured
/// 1,462 (DESIGN.md §9.4).
const ANALYSIS_BUILD_BUDGET: u64 = 500;

/// Upper bound on dataflow transfer evaluations (liveness, constprop,
/// loadelim, DCE marking, points-to) across one compile of the suite.
/// The sparse worklist solvers measure 15,330; the dense resweeps they
/// replaced measured 31,356 (DESIGN.md §11).
const TRANSFER_EVAL_BUDGET: u64 = 20_000;

#[test]
fn steady_state_suite_compile_stays_within_alloc_budget() {
    let _counting = COUNTING.lock().unwrap_or_else(|e| e.into_inner());
    let session = Session::builder()
        .threads(Some(1))
        .reuse_scratch(true)
        .build();
    // Parse everything up front so frontend traffic stays out of the
    // measurement, then warm the pool on a first compile of each program.
    let modules: Vec<ir::Module> = benchsuite::SUITE
        .iter()
        .map(|b| minic::compile(b.source).expect("suite program compiles"))
        .collect();
    for module in &modules {
        let mut warm = module.clone();
        session.optimize(&mut warm).expect("warmup run validates");
    }
    // Steady state: a second compile of every program on the warm pool.
    let mut total = AllocStats::default();
    let mut builds = cfg::BuildCounts::default();
    let mut dataflow = cfg::DataflowStats::default();
    for (b, module) in benchsuite::SUITE.iter().zip(&modules) {
        let mut m = module.clone();
        let before = AllocStats::now();
        let (report, _) = session
            .optimize(&mut m)
            .expect("steady-state run validates");
        let used = AllocStats::now().since(&before);
        total.merge(&used);
        builds.add(&report.analysis_builds);
        dataflow.add(&report.dataflow_stats);
        // Per-program sanity in the failure message: which program blew up.
        assert!(
            used.count <= STEADY_STATE_ALLOC_BUDGET,
            "steady-state compile of {} alone used {} allocs (budget for the \
             whole suite is {STEADY_STATE_ALLOC_BUDGET})",
            b.name,
            used.count,
        );
    }
    println!(
        "steady state: {} allocs, {} analysis builds, {} transfer evaluations",
        total.count,
        builds.total(),
        dataflow.transfer_evals,
    );
    assert!(
        total.count <= STEADY_STATE_ALLOC_BUDGET,
        "steady-state suite compile used {} allocs ({} KiB), budget is \
         {STEADY_STATE_ALLOC_BUDGET} — a per-function allocation has crept \
         back into the hot loop",
        total.count,
        total.bytes / 1024,
    );
    assert!(
        builds.total() <= ANALYSIS_BUILD_BUDGET,
        "the suite built {} analysis artifacts ({builds:?}), budget is \
         {ANALYSIS_BUILD_BUDGET} — the pass chain regressed toward \
         rebuild-per-pass",
        builds.total(),
    );
    assert!(
        dataflow.transfer_evals <= TRANSFER_EVAL_BUDGET,
        "the suite's dataflow solvers evaluated {} transfer functions, \
         budget is {TRANSFER_EVAL_BUDGET} — a solver regressed toward dense \
         resweeps",
        dataflow.transfer_evals,
    );
}

#[test]
fn steady_state_frontend_compile_stays_within_alloc_budget() {
    let _counting = COUNTING.lock().unwrap_or_else(|e| e.into_inner());
    let mut fe = minic::Frontend::new();
    // Warm the interner, token buffer, and AST pools on a first compile
    // of every program.
    for b in benchsuite::SUITE {
        fe.compile(b.source).expect("suite program compiles");
    }
    // Steady state: a second front-end compile of every program on the
    // warm buffers.
    let mut total = AllocStats::default();
    for b in benchsuite::SUITE {
        let before = AllocStats::now();
        let module = fe.compile(b.source).expect("suite program compiles");
        let used = AllocStats::now().since(&before);
        drop(module);
        total.merge(&used);
        assert!(
            used.count <= FRONTEND_ALLOC_BUDGET,
            "steady-state front-end compile of {} alone used {} allocs \
             (budget for the whole suite is {FRONTEND_ALLOC_BUDGET})",
            b.name,
            used.count,
        );
    }
    println!("steady-state front end: {} allocs", total.count);
    assert!(
        total.count <= FRONTEND_ALLOC_BUDGET,
        "steady-state front-end suite compile used {} allocs ({} KiB), \
         budget is {FRONTEND_ALLOC_BUDGET} — a per-compile allocation has \
         crept back into the lexer, parser, or lowerer",
        total.count,
        total.bytes / 1024,
    );
}
