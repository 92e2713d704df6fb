//! The compilation pipeline.
//!
//! Reproduces the paper's §5 setup: "Each version was optimized with value
//! numbering, partial redundancy elimination, constant propagation, loop
//! invariant code motion, dead code elimination, register allocation, and
//! a basic block cleaning pass", with register promotion running in the
//! early phases and pointer-based promotion after LICM (which hoists the
//! base addresses it needs).
//!
//! The per-function work fans out over a caller-provided [`WorkerPool`]
//! (a [`crate::Session`] owns one and reuses it across every compile) in
//! exactly **two** rounds: one for loop normalization (the whole-module
//! interprocedural analysis needs every function normalized), then one
//! *fused* round that carries each function through its entire
//! intra-procedural chain — strengthen →
//! promote → lvn → loadelim → constprop → licm → (pointer-promote) →
//! lvn(2) → dce → clean → regalloc → clean(final) — with no barrier
//! between passes. Barriers exist only where whole-module state is
//! genuinely required: before the interprocedural analysis and at the
//! sequential spill-tag commit.
//!
//! The output is bit-identical at any thread count: per-function passes
//! share only the read-only tag table, and the allocator's spill tags are
//! committed in function-index order (see [`regalloc::commit_spills`]).
//! Per-pass wall clock is recorded *inside* the fused worker and
//! aggregated by pass name into [`PassTimings`]; for fused passes the
//! reported time is the summed per-function time (CPU time across
//! workers), not the barrier-to-barrier wall time. Each [`PassTiming`]
//! row carries a `cpu_summed` flag so consumers cannot silently compare
//! the two kinds of number.

use crate::incremental::FuncCache;
use crate::parallel::WorkerPool;
use crate::scratch::PassScratch;
use analysis::{tarjan_sccs, AnalysisLevel, CallGraph};
use ir::{FuncId, Module};
use promote::{PointerReport, PromotionReport, ScalarReport};
use regalloc::{AllocOptions, AllocReport, PendingSpill};
use std::time::{Duration, Instant};
use trace::{AllocStats, FuncTrace, TraceLog};

/// A pipeline configuration — one experimental arm.
///
/// The fields are an implementation detail of the driver: assemble a
/// configuration with [`crate::Session::builder`], which has one setter
/// per field, and treat the struct as opaque. The fields remain `pub` for
/// struct-update syntax in in-tree experiment code but are hidden from the
/// documented API surface.
#[derive(Debug, Clone)]
pub struct PipelineConfig {
    /// Interprocedural analysis precision.
    #[doc(hidden)]
    pub analysis: AnalysisLevel,
    /// Run scalar register promotion (§3.1).
    #[doc(hidden)]
    pub promote: bool,
    /// Run pointer-based promotion (§3.3) after LICM.
    #[doc(hidden)]
    pub pointer_promote: bool,
    /// Pressure throttle for scalar promotion (§7 of the paper; see
    /// [`promote::PromotionOptions::max_promoted_per_loop`]).
    #[doc(hidden)]
    pub promotion_cap: Option<usize>,
    /// Run the scalar optimizer (always on in the paper; off is useful
    /// for debugging).
    #[doc(hidden)]
    pub optimize: bool,
    /// Register allocation parameters; `None` leaves virtual registers.
    #[doc(hidden)]
    pub regalloc: Option<AllocOptions>,
    /// Validate the module at every fan-out barrier (on in debug builds):
    /// after normalization, after the interprocedural analysis, and after
    /// the fused per-function chain has run and spill tags are committed.
    /// (Passes inside the fused chain see functions at different stages
    /// concurrently, so whole-module validation between them is no longer
    /// meaningful.)
    #[doc(hidden)]
    pub validate_each_pass: bool,
    /// Worker threads for the per-function stages. `None` defers to the
    /// `PROMO_THREADS` environment variable, then to
    /// `std::thread::available_parallelism()`; `Some(1)` forces the
    /// sequential path. The compiled output is identical either way.
    #[doc(hidden)]
    pub threads: Option<usize>,
    /// Reuse the pool's per-worker [`PassScratch`] arenas across functions
    /// (the normal mode): every pass's dense side tables, worklists, and
    /// rewrite buffers stay warm, so the steady-state fused chain allocates
    /// almost nothing. `false` builds a fresh arena for every function and
    /// is the fresh-arena oracle of the scratch differential test: it
    /// proves no pass leaks state between functions through a reused
    /// arena. Output is byte-identical either way.
    #[doc(hidden)]
    pub reuse_scratch: bool,
    /// Collect structured optimization remarks and per-pass deltas into a
    /// [`TraceLog`] (see [`run_pipeline`]). Off by default; when
    /// off, every trace hook is a single enum-discriminant test and no
    /// event is ever constructed.
    #[doc(hidden)]
    pub trace: bool,
}

impl Default for PipelineConfig {
    fn default() -> Self {
        PipelineConfig {
            analysis: AnalysisLevel::ModRef,
            promote: true,
            pointer_promote: false,
            promotion_cap: None,
            optimize: true,
            regalloc: Some(AllocOptions::default()),
            validate_each_pass: cfg!(debug_assertions),
            threads: None,
            reuse_scratch: true,
            trace: false,
        }
    }
}

impl PipelineConfig {
    /// One of the paper's four measured variants: `{modref, pointer}` ×
    /// `{without, with}` promotion.
    pub fn paper_variant(analysis: AnalysisLevel, promote: bool) -> Self {
        PipelineConfig {
            analysis,
            promote,
            // §3.3 pointer-based promotion was measured separately; the
            // headline figures use scalar promotion only.
            pointer_promote: false,
            ..Default::default()
        }
    }

    /// The four figure-generating variants in the paper's row order.
    pub fn figure_variants() -> [(String, PipelineConfig); 4] {
        [
            (
                "modref/without".into(),
                PipelineConfig::paper_variant(AnalysisLevel::ModRef, false),
            ),
            (
                "modref/with".into(),
                PipelineConfig::paper_variant(AnalysisLevel::ModRef, true),
            ),
            (
                "pointer/without".into(),
                PipelineConfig::paper_variant(AnalysisLevel::PointsTo, false),
            ),
            (
                "pointer/with".into(),
                PipelineConfig::paper_variant(AnalysisLevel::PointsTo, true),
            ),
        ]
    }
}

/// One pass's recorded time. Barrier passes (`normalize`, `analysis`)
/// report barrier-to-barrier wall time; passes inside the fused
/// per-function chain report per-function time summed across workers
/// (CPU time), which exceeds wall time whenever more than one worker is
/// busy. The `cpu_summed` flag distinguishes the two so the numbers are
/// never compared as if they were the same quantity.
#[derive(Debug, Clone)]
pub struct PassTiming {
    /// Pass label; repeated passes get distinct labels (`lvn`, `lvn(2)`).
    /// Always a static literal so recording a row never allocates.
    pub name: &'static str,
    /// Recorded duration — see `cpu_summed` for what it measures.
    pub elapsed: Duration,
    /// `true` if `elapsed` is per-function time summed across workers
    /// rather than wall time.
    pub cpu_summed: bool,
    /// Allocator traffic charged to this pass (calls and bytes). Real
    /// numbers only in binaries that install [`trace::CountingAlloc`] as
    /// the global allocator (`perfbench`, the allocation-budget test);
    /// all zeros everywhere else. Counters are process-wide, so on
    /// multi-threaded runs a fused pass's figure includes whatever the
    /// other workers allocated during its window — exact on
    /// single-threaded runs, an attribution approximation otherwise.
    pub allocs: AllocStats,
}

/// Time of each pipeline pass, in execution order. Repeated passes get
/// distinct labels (`lvn`, `lvn(2)`, ...).
#[derive(Debug, Clone, Default)]
pub struct PassTimings {
    /// One row per pass in execution order.
    pub passes: Vec<PassTiming>,
}

impl PassTimings {
    fn record(
        &mut self,
        name: &'static str,
        elapsed: Duration,
        cpu_summed: bool,
        allocs: AllocStats,
    ) {
        self.passes.push(PassTiming {
            name,
            elapsed,
            cpu_summed,
            allocs,
        });
    }

    /// Total across all recorded passes (wall and CPU-summed rows mixed;
    /// an upper bound on pipeline wall time).
    pub fn total(&self) -> Duration {
        self.passes.iter().map(|p| p.elapsed).sum()
    }

    /// Elapsed time of the first pass recorded under `name`.
    pub fn get(&self, name: &str) -> Option<Duration> {
        self.passes
            .iter()
            .find(|p| p.name == name)
            .map(|p| p.elapsed)
    }
}

/// What each pass did, for reports and ablations.
#[derive(Debug, Clone, Default)]
pub struct PipelineReport {
    /// Tag-set precision achieved by the analysis.
    pub analysis_stats: Option<analysis::TagSetStats>,
    /// Opcode strengthenings applied.
    pub strengthened: usize,
    /// Promotion activity.
    pub promotion: PromotionReport,
    /// Instructions rewritten by value numbering (both runs).
    pub lvn_rewrites: usize,
    /// Loads eliminated by the PRE-style pass.
    pub loads_eliminated: usize,
    /// Constants propagated.
    pub constants_folded: usize,
    /// Instructions hoisted by LICM.
    pub licm_moved: usize,
    /// Instructions removed by DCE.
    pub dce_removed: usize,
    /// Cleaning changes.
    pub cleaned: usize,
    /// Register allocation activity.
    pub alloc: Option<AllocReport>,
    /// Per-pass wall-clock timings (scheduling-dependent; excluded from
    /// determinism comparisons).
    pub timings: PassTimings,
    /// How many times each analysis artifact (CFG, dominators, loop
    /// forest, loop geometry, liveness) was built across the whole run —
    /// the cache's effectiveness ledger. A rebuild-per-pass regression
    /// shows up here as a counter jump.
    pub analysis_builds: cfg::BuildCounts,
    /// Solver work performed by every fixpoint dataflow problem in the
    /// run (liveness, constprop, loadelim, DCE marking, points-to):
    /// blocks visited, transfer evaluations, worklist pushes.
    pub dataflow_stats: cfg::DataflowStats,
    /// What the incremental cache did this compile — `Some` only when the
    /// run went through a [`crate::Session`] built with
    /// [`crate::SessionBuilder::incremental`].
    pub incremental: Option<crate::incremental::IncrementalReport>,
}

fn validate_if(module: &Module, enabled: bool, pass: &str) {
    if enabled {
        if let Err(e) = ir::validate(module) {
            panic!("pipeline produced invalid IL after {pass}: {e}");
        }
    }
}

fn timed<R>(timings: &mut PassTimings, name: &'static str, f: impl FnOnce() -> R) -> R {
    let start = Instant::now();
    let before = AllocStats::now();
    let r = f();
    timings.record(
        name,
        start.elapsed(),
        false,
        AllocStats::now().since(&before),
    );
    r
}

/// Which functions sit on call-graph cycles (recursion blocks promotion of
/// their locals). Derived from the call graph the analysis barrier already
/// built — the pipeline never reconstructs it.
fn recursive_set(graph: &CallGraph, nfuncs: usize) -> Vec<bool> {
    let sccs = tarjan_sccs(graph);
    (0..nfuncs)
        .map(|i| graph.is_recursive(FuncId(i as u32), &sccs))
        .collect()
}

/// Everything one function's trip through the fused intra-procedural
/// chain produced: pass counters, the allocation outcome with its
/// uncommitted spill tags, and per-pass timings. `Clone` so the
/// incremental cache can memoize it and replay it on later compiles.
#[derive(Default, Clone)]
pub(crate) struct FuncOutcome {
    pub(crate) strengthened: usize,
    pub(crate) scalar: ScalarReport,
    pub(crate) pointer: PointerReport,
    pub(crate) lvn_rewrites: usize,
    pub(crate) loads_eliminated: usize,
    pub(crate) constants_folded: usize,
    pub(crate) licm_moved: usize,
    pub(crate) dce_removed: usize,
    pub(crate) cleaned: usize,
    pub(crate) alloc: Option<(AllocReport, Vec<PendingSpill>)>,
    pub(crate) timings: Vec<(&'static str, Duration, AllocStats)>,
}

/// Per-function pass clock used inside the fused worker. Each stage also
/// snapshots the process-wide allocation counters, so binaries that
/// install [`trace::CountingAlloc`] get per-pass allocator traffic for
/// free (everyone else records zeros — the snapshot is two relaxed atomic
/// loads).
#[derive(Default)]
struct StageClock {
    rows: Vec<(&'static str, Duration, AllocStats)>,
}

impl StageClock {
    /// Room for every stage label the fused chain can emit, so the row
    /// vector is one exact allocation instead of a doubling chain.
    fn new() -> StageClock {
        StageClock {
            rows: Vec::with_capacity(16),
        }
    }

    fn timed<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> R {
        let start = Instant::now();
        let before = AllocStats::now();
        let r = f();
        self.rows
            .push((name, start.elapsed(), AllocStats::now().since(&before)));
        r
    }
}

/// Loop normalization under the trace's delta recorder: when it changes
/// the body (landing-pad / preheader insertion, unreachable-block
/// removal), the change is recorded as a `normalize` delta. The change
/// check is a cheap structural signature — block count plus total
/// instruction count — because normalization only inserts and deletes
/// whole blocks and jumps, never rewrites an instruction in place; in the
/// usual case (already normal, nothing to do) the signature is unchanged
/// and no after-scan happens.
fn normalize(func: &mut ir::Function, analyses: &mut cfg::FunctionAnalyses, tr: &mut FuncTrace) {
    let signature = |f: &ir::Function| {
        (
            f.blocks.len(),
            f.blocks.iter().map(|b| b.instrs.len()).sum::<usize>(),
        )
    };
    tr.record_delta(
        "normalize",
        func,
        |f| f.body_stats().into(),
        |f, tr| {
            let before = tr.enabled().then(|| signature(f));
            cfg::normalize_loops_in(f, analyses);
            before == Some(signature(f))
        },
        |&unchanged| unchanged,
    );
}

/// Carries one function through the entire fused chain: the one place
/// each per-function pass is called. Reads only the shared tag-table
/// snapshot and per-function read-only facts, so any number of these run
/// concurrently; all tag-table writes are deferred as [`PendingSpill`]s.
/// `analyses` is the function's shared cache: a pass that changes nothing
/// leaves it warm, and every downstream pass then reuses the artifacts
/// instead of rebuilding them. `scratch` is the worker's pass arena: every
/// pass's dense side tables and buffers live there, already sized by
/// earlier functions, so the steady-state chain runs allocation-free.
// The module-wide read-only inputs plus one function's own state, as
// the fan-out closure holds them; a struct would only regroup this call.
#[allow(clippy::too_many_arguments)]
fn run_fused_chain(
    tags: &ir::TagTable,
    func: &mut ir::Function,
    fid: FuncId,
    recursive: bool,
    config: &PipelineConfig,
    analyses: &mut cfg::FunctionAnalyses,
    scratch: &mut PassScratch,
    tr: &mut FuncTrace,
) -> FuncOutcome {
    let mut clock = StageClock::new();
    let mut o = FuncOutcome {
        strengthened: clock.timed("strengthen", || {
            opt::strengthen_function(tags, func, fid, recursive, analyses, tr)
        }),
        ..Default::default()
    };
    if config.promote {
        let cap = config.promotion_cap;
        o.scalar = clock.timed("promote", || {
            normalize(func, analyses, tr);
            promote::promote_scalars_in_func(tags, func, fid, recursive, cap, analyses, tr)
        });
    }
    if config.optimize {
        o.lvn_rewrites += clock.timed("lvn", || {
            opt::lvn_function(func, analyses, &mut scratch.opt.lvn, tr)
        });
        o.loads_eliminated = clock.timed("loadelim", || {
            opt::loadelim_function(func, analyses, &mut scratch.opt.loadelim, tr)
        });
        o.constants_folded = clock.timed("constprop", || {
            opt::constprop_function(func, analyses, &mut scratch.opt.constprop, tr)
        });
        o.licm_moved = clock.timed("licm", || {
            normalize(func, analyses, tr);
            opt::licm_function(func, analyses, &mut scratch.opt.licm, tr)
        });
    }
    if config.pointer_promote {
        // LICM has hoisted invariant base addresses; normalize again in
        // case earlier folding perturbed loop shapes (a no-op — and zero
        // rebuilds — when they did not).
        o.pointer = clock.timed("pointer-promote", || {
            normalize(func, analyses, tr);
            promote::promote_pointers_in_func(func, analyses, tr)
        });
    }
    if config.optimize {
        o.lvn_rewrites += clock.timed("lvn(2)", || {
            opt::lvn_function(func, analyses, &mut scratch.opt.lvn, tr)
        });
        o.dce_removed = clock.timed("dce", || {
            opt::dce_function(func, analyses, &mut scratch.opt.dce, tr)
        });
        o.cleaned += clock.timed("clean", || {
            opt::clean_function(func, analyses, &mut scratch.opt.clean, tr)
        });
    }
    if let Some(opts) = &config.regalloc {
        // Allocate against the read-only tag-table snapshot, recording
        // needed spill tags as provisional ids. The sequential
        // function-index-order commit after the barrier reproduces the
        // exact tag table (ids and names) of a sequential run.
        let r = clock.timed("regalloc", || {
            let mut pending = Vec::new();
            let r = regalloc::allocate_function(
                tags,
                func,
                fid,
                opts,
                &mut pending,
                analyses,
                &mut scratch.alloc,
                tr,
            );
            (r, pending)
        });
        o.alloc = Some(r);
        if config.optimize {
            // Block cleaning is tag-agnostic, so it can run before the
            // provisional spill tags are interned.
            o.cleaned += clock.timed("clean(final)", || {
                opt::clean_function(func, analyses, &mut scratch.opt.clean, tr)
            });
        }
    }
    o.timings = clock.rows;
    o
}

/// Runs the configured pipeline over `module` in place, fanning the
/// per-function work out over a caller-provided [`WorkerPool`], and
/// returns the report with the structured [`TraceLog`]. Batch drivers
/// (benchmarks, servers compiling many modules) should create one pool
/// and reuse it across runs; the pool's worker count is what determines
/// the parallelism (`config.threads` is only consulted by
/// [`crate::Session`], which sizes its pool from it). The compiled output
/// is byte-identical for every pool size.
///
/// The log is empty unless `config.trace` is set; when it is, events are
/// buffered per function inside the worker that owns the function and
/// assembled here in function-index order, so the log is byte-identical
/// at any pool size.
///
/// With a `cache`, functions whose fingerprints match it are spliced
/// instead of recompiled and the fused fan-out covers only the residual
/// set; the sequential epilogue (spill commit, counter and trace assembly
/// in function-index order) is identical either way, which is what keeps
/// warm output byte-identical to cold.
pub fn run_pipeline(
    module: &mut Module,
    config: &PipelineConfig,
    pool: &WorkerPool,
    mut cache: Option<&mut FuncCache>,
) -> (PipelineReport, TraceLog) {
    let v = config.validate_each_pass;
    let mut report = PipelineReport::default();
    let mut timings = PassTimings::default();
    // One analysis cache per function, alive from normalization to the
    // final clean: every pass both consumes it and reports what it
    // invalidated, so converged passes cost zero rebuilds downstream.
    // With scratch reuse on, the shells come recycled from the pool (warm
    // buffers, stale artifacts) and go back to it at the end of the run;
    // the fresh-arena baseline allocates cold ones.
    let mut analyses: Vec<cfg::FunctionAnalyses> = if config.reuse_scratch {
        pool.take_analyses(module.funcs.len())
    } else {
        module
            .funcs
            .iter()
            .map(|_| cfg::FunctionAnalyses::new())
            .collect()
    };
    // One trace buffer per function, alive across every round that touches
    // the function, so each function's events arrive in chain order.
    let mut traces: Vec<FuncTrace> = module
        .funcs
        .iter()
        .map(|_| {
            if config.trace {
                FuncTrace::on()
            } else {
                FuncTrace::off()
            }
        })
        .collect();
    timed(&mut timings, "normalize", || {
        let items: Vec<_> = module
            .funcs
            .iter_mut()
            .zip(analyses.iter_mut())
            .zip(traces.iter_mut())
            .collect();
        pool.run(items, |_, ((f, fa), tr)| normalize(f, fa, tr));
    });
    validate_if(module, v, "normalize");
    let outcome = timed(&mut timings, "analysis", || {
        analysis::analyze_traced(
            module,
            config.analysis,
            config.trace.then_some(traces.as_mut_slice()),
        )
    });
    report.analysis_stats = Some(outcome.stats);
    report.dataflow_stats.add(&outcome.dataflow);
    validate_if(module, v, "analysis");
    // The interprocedural barrier mutates instruction tag sets (no
    // registers, no edges) — except the SSA-roundtrip level, which
    // restructures bodies wholesale.
    for fa in &mut analyses {
        if matches!(config.analysis, AnalysisLevel::PointsToSsa) {
            fa.note_shape_changed();
        } else {
            fa.note_body_changed();
        }
    }
    // Whole-module facts the fused chain reads: which functions sit on
    // call-graph cycles, straight off the analysis barrier's call graph.
    let recursive = recursive_set(&outcome.call_graph, module.funcs.len());
    // Incremental layer: fingerprint every function against the cache,
    // splice the hits (cached body remapped into this module, chain
    // counters and trace suffix replayed), and leave only the misses for
    // the fused fan-out.
    let mut spliced: Vec<Option<FuncOutcome>> = module.funcs.iter().map(|_| None).collect();
    let mut fingerprints = Vec::new();
    let mut incr_report = None;
    if let Some(cache) = cache.as_deref_mut() {
        cache.begin_compile();
        let summaries = analysis::modref_summary_hashes(module, &outcome.modref);
        let h_config = crate::incremental::config_hash(config);
        let fps =
            crate::incremental::compute_fingerprints(module, &summaries, &recursive, h_config);
        let mut rep = crate::incremental::IncrementalReport {
            funcs_total: module.funcs.len(),
            ..Default::default()
        };
        let mut bodies = Vec::new();
        let mut index = crate::incremental::SpliceIndex::new(module);
        for i in 0..module.funcs.len() {
            let (fp, h_body) = fps[i];
            match cache.splice(&mut index, i, fp) {
                Some((body, o, events)) => {
                    bodies.push((i, body));
                    traces[i].append_events(events);
                    spliced[i] = Some(o);
                    rep.cache_hits += 1;
                }
                None => {
                    rep.funcs_recompiled += 1;
                    if cache.peek_body_hash(&module.funcs[i].name) == Some(h_body) {
                        rep.summary_invalidated += 1;
                    }
                }
            }
        }
        for (i, body) in bodies {
            module.funcs[i] = body;
        }
        fingerprints = fps;
        incr_report = Some(rep);
    }
    // Event counts before the chain runs: the suffix past each mark is
    // exactly what the chain appends, which is what the cache memoizes.
    let chain_marks: Vec<usize> = if cache.is_some() {
        traces.iter().map(|t| t.event_count()).collect()
    } else {
        Vec::new()
    };
    let chain_outcomes: Vec<(usize, FuncOutcome)> = {
        // `funcs` and `tags` are disjoint fields, so the mutable fan-out
        // and the shared tag-table snapshot coexist.
        let tags = &module.tags;
        let items: Vec<_> = module
            .funcs
            .iter_mut()
            .zip(analyses.iter_mut())
            .zip(traces.iter_mut())
            .enumerate()
            .filter(|(i, _)| spliced[*i].is_none())
            .map(|(i, ((func, fa), tr))| (i, func, fa, tr))
            .collect();
        pool.run(items, |_, (i, func, fa, tr)| {
            let fid = FuncId(i as u32);
            let o = if config.reuse_scratch {
                pool.with_scratch(|scratch| {
                    run_fused_chain(tags, func, fid, recursive[i], config, fa, scratch, tr)
                })
            } else {
                // The fresh-arena baseline: every function pays the full
                // allocation cost the arenas exist to avoid.
                let mut scratch = PassScratch::default();
                run_fused_chain(tags, func, fid, recursive[i], config, fa, &mut scratch, tr)
            };
            (i, o)
        })
    };
    let mut outcomes = spliced;
    let mut hit = vec![true; outcomes.len()];
    for (i, o) in chain_outcomes {
        outcomes[i] = Some(o);
        hit[i] = false;
    }
    // Sequential epilogue: commit spill tags in function-index order and
    // aggregate counters plus per-pass timings (summed by pass name, in
    // chain order).
    let commit_start = Instant::now();
    let mut alloc_total: Option<AllocReport> = None;
    let mut pass_totals: Vec<(&'static str, Duration, AllocStats)> = Vec::new();
    for (fi, o) in outcomes.into_iter().enumerate() {
        let o = o.expect("every function has a chain or cache outcome");
        // Memoize fresh chain output before the spill commit rewrites the
        // provisional tags out of the body.
        if let Some(cache) = cache.as_deref_mut() {
            if !hit[fi] {
                let (fp, h_body) = fingerprints[fi];
                let events = traces[fi].events_from(chain_marks[fi]);
                cache.store(module, fi, fp, h_body, &o, events);
            }
        }
        report.strengthened += o.strengthened;
        report.promotion.scalar.loops += o.scalar.loops;
        report.promotion.scalar.promoted_tags += o.scalar.promoted_tags;
        report.promotion.scalar.lifts += o.scalar.lifts;
        report.promotion.scalar.rewritten_refs += o.scalar.rewritten_refs;
        report.promotion.pointer.promoted_bases += o.pointer.promoted_bases;
        report.promotion.pointer.rewritten_refs += o.pointer.rewritten_refs;
        report.promotion.pointer.lifts += o.pointer.lifts;
        report.lvn_rewrites += o.lvn_rewrites;
        report.loads_eliminated += o.loads_eliminated;
        report.constants_folded += o.constants_folded;
        report.licm_moved += o.licm_moved;
        report.dce_removed += o.dce_removed;
        report.cleaned += o.cleaned;
        if let Some((r, pending)) = o.alloc {
            regalloc::commit_spills(module, FuncId(fi as u32), pending);
            let total = alloc_total.get_or_insert_with(AllocReport::default);
            total.coalesced += r.coalesced;
            total.spilled += r.spilled;
            total.rematerialized += r.rematerialized;
            total.spill_loads += r.spill_loads;
            total.spill_stores += r.spill_stores;
            total.rounds += r.rounds;
        }
        for (name, d, a) in o.timings {
            match pass_totals.iter_mut().find(|(n, _, _)| *n == name) {
                Some(entry) => {
                    entry.1 += d;
                    entry.2.merge(&a);
                }
                None => pass_totals.push((name, d, a)),
            }
        }
    }
    report.alloc = alloc_total;
    for fa in &analyses {
        report.analysis_builds.add(&fa.builds);
        report.dataflow_stats.add(&fa.dataflow);
    }
    if config.reuse_scratch {
        pool.return_analyses(analyses);
    }
    let commit_elapsed = commit_start.elapsed();
    for (name, d, a) in pass_totals {
        // The spill-tag commit is the sequential tail of allocation;
        // account it there rather than inventing a pass label.
        let d = if name == "regalloc" {
            d + commit_elapsed
        } else {
            d
        };
        timings.record(name, d, true, a);
    }
    validate_if(module, v, "fused per-function chain");
    report.timings = timings;
    if let Some(cache) = cache {
        let rep = incr_report.as_mut().expect("incremental report started");
        rep.evictions = cache.evict_to_budget();
        rep.cache_bytes = cache.bytes();
    }
    report.incremental = incr_report;
    // Assemble the log in function-index order — the determinism
    // guarantee. Empty (and allocation-free) when tracing is off.
    let mut log = TraceLog::new();
    for (fi, tr) in traces.iter_mut().enumerate() {
        log.extend_func(&module.funcs[fi].name, tr.take_events());
        if hit[fi] {
            // Out-of-band marker: the rendered/serialized stream is
            // unchanged, but tests and tools can see the replay happened.
            log.mark_cached(&module.funcs[fi].name);
        }
    }
    (report, log)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::session::Session;
    use vm::Outcome;

    const PROGRAM: &str = r#"
int g;
int h;
void bump_h() { h = h + 1; }
int main() {
    int i;
    for (i = 0; i < 500; i++) {
        g = g + i;
        bump_h();
    }
    print_int(g);
    print_int(h);
    return 0;
}
"#;

    fn run(config: PipelineConfig) -> (Outcome, PipelineReport) {
        let c = Session::from_config(config)
            .compile_and_run(PROGRAM)
            .expect("compile and run");
        (c.outcome.expect("outcome populated"), c.report)
    }

    #[test]
    fn all_four_variants_agree_on_output() {
        let mut outputs = Vec::new();
        for (name, config) in PipelineConfig::figure_variants() {
            let (out, _) = run(config);
            outputs.push((name, out.output));
        }
        for w in outputs.windows(2) {
            assert_eq!(w[0].1, w[1].1, "{} vs {}", w[0].0, w[1].0);
        }
    }

    #[test]
    fn promotion_reduces_memory_traffic() {
        let without = run(PipelineConfig::paper_variant(AnalysisLevel::ModRef, false)).0;
        let with = run(PipelineConfig::paper_variant(AnalysisLevel::ModRef, true)).0;
        // g is promotable; h is pinned by the call.
        assert!(
            with.counts.stores + 400 <= without.counts.stores,
            "stores {} -> {}",
            without.counts.stores,
            with.counts.stores
        );
    }

    #[test]
    fn pipeline_report_is_populated() {
        let report = Session::default()
            .compile(PROGRAM)
            .expect("compiles")
            .report;
        assert!(report.analysis_stats.is_some());
        assert!(report.alloc.is_some());
        assert!(report.promotion.scalar.promoted_tags >= 1);
        // Every executed pass left a timing row.
        assert!(report.timings.get("analysis").is_some());
        assert!(report.timings.get("regalloc").is_some());
        assert!(report.timings.total() > Duration::ZERO);
    }

    #[test]
    fn unoptimized_pipeline_still_runs() {
        let c = Session::builder()
            .optimize(false)
            .promote(false)
            .regalloc(None)
            .build()
            .compile_and_run(PROGRAM)
            .expect("compile and run");
        assert_eq!(
            c.outcome.expect("outcome populated").output,
            vec!["124750", "500"]
        );
    }

    #[test]
    fn thread_count_does_not_change_output() {
        let compile = |threads| {
            let c = Session::builder()
                .threads(Some(threads))
                .build()
                .compile(PROGRAM)
                .expect("compiles");
            (c.module, c.report)
        };
        let (m1, r1) = compile(1);
        let (m4, r4) = compile(4);
        assert_eq!(
            m1.to_string(),
            m4.to_string(),
            "printed IL must be identical"
        );
        assert_eq!(r1.strengthened, r4.strengthened);
        assert_eq!(r1.promotion, r4.promotion);
        assert_eq!(r1.alloc, r4.alloc);
    }
}
