//! Interprocedural analysis for the register-promotion compiler.
//!
//! This crate implements the analysis half of the paper (§4): the MOD/REF
//! analysis with address-taken and visibility filtering and call-graph SCC
//! propagation, the whole-program points-to analysis (after Ruf), and — as
//! an ablation — a Steensgaard-style unification analysis. Each analysis
//! runs over and then *rewrites* the tag sets in an [`ir::Module`]; the
//! promoter and the optimizer read only the tag sets, so swapping analysis
//! levels is exactly the experiment of Figures 5–7.
//!
//! ```
//! use analysis::{analyze, AnalysisLevel};
//!
//! let mut module = minic::compile(r#"
//!     int g;
//!     void bump() { g = g + 1; }
//!     int main() { bump(); return g; }
//! "#)?;
//! let outcome = analyze(&mut module, AnalysisLevel::PointsTo);
//! assert_eq!(outcome.level, AnalysisLevel::PointsTo);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![warn(missing_docs)]

mod callgraph;
mod modref;
mod points_to;
mod steensgaard;
mod strength;
mod summary;

pub use callgraph::{tarjan_sccs, CallGraph, Sccs};
pub use modref::{
    compute_and_apply, compute_and_apply_with_sites, limit_pointer_ops, ModRef, SiteTargets,
    Visibility,
};
pub use points_to::{
    analyze as points_to_analyze, analyze_with as points_to_analyze_with, apply as points_to_apply,
    PointsTo, Target,
};
pub use steensgaard::{analyze as steensgaard_analyze, apply as steensgaard_apply, Steensgaard};
pub use strength::singleton_is_unique_cell;
pub use summary::modref_summary_hashes;

use ir::{Instr, Module, TagSet};
use std::fmt;

/// The precision level of interprocedural analysis, the independent
/// variable of the paper's experiments.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AnalysisLevel {
    /// Address-taken + visibility filtering only; call sites assume the
    /// whole visible set. (A baseline below anything the paper measures.)
    AddressTaken,
    /// The paper's MOD/REF analysis.
    ModRef,
    /// MOD/REF sharpened by the inclusion-based points-to analysis, with
    /// MOD/REF re-run afterwards — the paper's "pointer" configuration.
    PointsTo,
    /// Like [`AnalysisLevel::PointsTo`] but run at **SSA-name
    /// granularity**, exactly as the paper describes ("each function is
    /// converted into SSA form ... for each SSA name, the analyzer
    /// determines the set of tags"): functions are converted to pruned
    /// SSA, analyzed, and converted back. The register-granularity level
    /// is the default because it avoids perturbing the measured code with
    /// φ-elimination copies; the test suite checks the two levels promote
    /// identically on the benchmark suite.
    PointsToSsa,
    /// MOD/REF sharpened by Steensgaard-style unification (ablation).
    Steensgaard,
}

impl AnalysisLevel {
    /// All levels, weakest first.
    pub const ALL: [AnalysisLevel; 5] = [
        AnalysisLevel::AddressTaken,
        AnalysisLevel::ModRef,
        AnalysisLevel::Steensgaard,
        AnalysisLevel::PointsTo,
        AnalysisLevel::PointsToSsa,
    ];

    /// The name used in reports (the paper prints `modref` / `pointer`).
    pub fn label(self) -> &'static str {
        match self {
            AnalysisLevel::AddressTaken => "addrtaken",
            AnalysisLevel::ModRef => "modref",
            AnalysisLevel::PointsTo => "pointer",
            AnalysisLevel::PointsToSsa => "pointer-ssa",
            AnalysisLevel::Steensgaard => "steens",
        }
    }
}

impl fmt::Display for AnalysisLevel {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// Aggregate statistics about the precision achieved, for reports.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct TagSetStats {
    /// Number of pointer-based memory operations.
    pub pointer_ops: usize,
    /// Pointer ops whose tag set is a singleton.
    pub singleton_ops: usize,
    /// Pointer ops still carrying the universal set.
    pub all_ops: usize,
    /// Sum of explicit tag-set sizes over pointer ops.
    pub total_tags: usize,
    /// Number of call sites with explicit MOD sets.
    pub summarized_calls: usize,
}

impl TagSetStats {
    /// Mean explicit tag-set size over pointer ops with explicit sets.
    pub fn mean_tags(&self) -> f64 {
        let explicit = self.pointer_ops - self.all_ops;
        if explicit == 0 {
            0.0
        } else {
            self.total_tags as f64 / explicit as f64
        }
    }
}

/// The result of running [`analyze`].
#[derive(Debug, Clone)]
pub struct AnalysisOutcome {
    /// The level that ran.
    pub level: AnalysisLevel,
    /// Final call graph (sharpened by pointer analysis when available).
    pub call_graph: CallGraph,
    /// Function MOD/REF summaries (empty sets at `AddressTaken` level).
    pub modref: ModRef,
    /// Tag-set precision statistics.
    pub stats: TagSetStats,
    /// Solver work done by the points-to fixpoint (zero for levels that
    /// run no points-to analysis).
    pub dataflow: cfg::DataflowStats,
}

/// Runs interprocedural analysis at `level`, rewriting the module's tag
/// sets and call-site MOD/REF lists in place.
pub fn analyze(module: &mut Module, level: AnalysisLevel) -> AnalysisOutcome {
    analyze_traced(module, level, None)
}

/// [`analyze`] with optional per-function trace buffers (one per function,
/// module index order). Only the `PointsToSsa` level currently emits
/// events — the SSA construction/destruction deltas of its per-name
/// analysis round trip.
pub fn analyze_traced(
    module: &mut Module,
    level: AnalysisLevel,
    mut traces: Option<&mut [trace::FuncTrace]>,
) -> AnalysisOutcome {
    let mut dataflow = cfg::DataflowStats::default();
    let graph = CallGraph::build(module, None);
    limit_pointer_ops(module, &graph);
    let (graph, modref) = match level {
        AnalysisLevel::AddressTaken => {
            // Weakest sound call summaries: everything visible.
            let vis = Visibility::compute(module, &graph);
            let n = module.funcs.len();
            for fi in 0..n {
                let visible = vis.visible[fi].clone();
                for block in &mut module.funcs[fi].blocks {
                    for instr in &mut block.instrs {
                        if let Instr::Call {
                            callee, mods, refs, ..
                        } = instr
                        {
                            if matches!(callee, ir::Callee::Intrinsic(_)) {
                                *mods = TagSet::empty();
                                *refs = TagSet::empty();
                            } else {
                                *mods = TagSet::Set(visible.clone());
                                *refs = TagSet::Set(visible.clone());
                            }
                        }
                    }
                }
            }
            let modref = ModRef {
                func_mods: vec![Default::default(); module.funcs.len()],
                func_refs: vec![Default::default(); module.funcs.len()],
            };
            (graph, modref)
        }
        AnalysisLevel::ModRef => {
            let modref = compute_and_apply(module, &graph);
            (graph, modref)
        }
        AnalysisLevel::PointsTo => {
            let pt = points_to_analyze_with(module, false, &mut dataflow);
            points_to_apply(module, &pt);
            // Sharper call graph from resolved function pointers, then the
            // paper's "MOD/REF analysis is then repeated" — with per-site
            // indirect-call precision.
            let targets = pt.indirect_targets(module);
            let sites = pt.site_targets(module);
            let graph = CallGraph::build(module, Some(&targets));
            let modref = compute_and_apply_with_sites(module, &graph, Some(&sites));
            (graph, modref)
        }
        AnalysisLevel::PointsToSsa => {
            // The paper's formulation: per-SSA-name points-to. Convert,
            // analyze at what is now SSA-name granularity, install the
            // results, convert back (φs become coalescable copies).
            // One analysis cache per function, shared between the two
            // conversions: destruction's critical-edge scan reuses the CFG
            // construction built (tag-set application in between is
            // instruction-metadata only).
            let mut caches: Vec<cfg::FunctionAnalyses> = module
                .funcs
                .iter()
                .map(|_| cfg::FunctionAnalyses::new())
                .collect();
            for (fi, (f, fa)) in module.funcs.iter_mut().zip(&mut caches).enumerate() {
                let mut off = trace::FuncTrace::off();
                let tr = traces.as_deref_mut().map_or(&mut off, |ts| &mut ts[fi]);
                ssa::construct(f, fa, tr);
            }
            let pt = points_to_analyze_with(module, false, &mut dataflow);
            points_to_apply(module, &pt);
            let targets = pt.indirect_targets(module);
            let sites = pt.site_targets(module);
            let graph = CallGraph::build(module, Some(&targets));
            let modref = compute_and_apply_with_sites(module, &graph, Some(&sites));
            for (fi, (f, fa)) in module.funcs.iter_mut().zip(&mut caches).enumerate() {
                let mut off = trace::FuncTrace::off();
                let tr = traces.as_deref_mut().map_or(&mut off, |ts| &mut ts[fi]);
                ssa::destruct(f, fa, tr);
            }
            (graph, modref)
        }
        AnalysisLevel::Steensgaard => {
            let st = steensgaard_analyze(module);
            steensgaard_apply(module, &st);
            let targets = st.indirect_targets(module);
            let sites = st.site_targets(module);
            let graph = CallGraph::build(module, Some(&targets));
            let modref = compute_and_apply_with_sites(module, &graph, Some(&sites));
            (graph, modref)
        }
    };
    let stats = collect_stats(module);
    AnalysisOutcome {
        level,
        call_graph: graph,
        modref,
        stats,
        dataflow,
    }
}

fn collect_stats(module: &Module) -> TagSetStats {
    let mut stats = TagSetStats::default();
    for func in &module.funcs {
        for block in &func.blocks {
            for instr in &block.instrs {
                match instr {
                    Instr::Load { tags, .. } | Instr::Store { tags, .. } => {
                        stats.pointer_ops += 1;
                        match tags.len() {
                            None => stats.all_ops += 1,
                            Some(n) => {
                                stats.total_tags += n;
                                if n == 1 {
                                    stats.singleton_ops += 1;
                                }
                            }
                        }
                    }
                    Instr::Call { mods, .. } if !mods.is_all() => {
                        stats.summarized_calls += 1;
                    }
                    _ => {}
                }
            }
        }
    }
    stats
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn precision_is_monotone_across_levels() {
        let src = r#"
int g;
int h;
int data[16];
void writer(int *p) { *p = g; }
int main() {
    int i;
    int x = 0;
    for (i = 0; i < 16; i++) {
        writer(&x);
        data[i] = x + h;
    }
    return x;
}
"#;
        let mut means = Vec::new();
        for level in [
            AnalysisLevel::AddressTaken,
            AnalysisLevel::Steensgaard,
            AnalysisLevel::PointsTo,
        ] {
            let mut m = minic::compile(src).unwrap();
            let out = analyze(&mut m, level);
            ir::validate(&m).expect("still valid");
            means.push(out.stats.mean_tags());
        }
        // Monotonically non-increasing mean tag-set size.
        assert!(means[0] >= means[1], "{means:?}");
        assert!(means[1] >= means[2], "{means:?}");
    }

    #[test]
    fn pointsto_gives_singleton_for_unique_target() {
        let src = r#"
int g;
int main() {
    int x = 0;
    int *p = &x;
    *p = g;
    return x;
}
"#;
        let mut m = minic::compile(src).unwrap();
        let out = analyze(&mut m, AnalysisLevel::PointsTo);
        assert_eq!(out.stats.singleton_ops, out.stats.pointer_ops);
    }

    #[test]
    fn analysis_preserves_behaviour() {
        let src = r#"
int g;
int acc[8];
void step(int *p, int k) { *p = *p + k; g = g + 1; }
int main() {
    int i;
    int x = 0;
    for (i = 0; i < 8; i++) {
        step(&x, i);
        acc[i] = x;
    }
    print_int(x);
    print_int(g);
    return 0;
}
"#;
        let baseline = {
            let m = minic::compile(src).unwrap();
            vm::Vm::run_main(&m, vm::VmOptions::default()).unwrap()
        };
        for level in AnalysisLevel::ALL {
            let mut m = minic::compile(src).unwrap();
            analyze(&mut m, level);
            ir::validate(&m).expect("valid after analysis");
            let out = vm::Vm::run_main(&m, vm::VmOptions::default()).unwrap();
            assert_eq!(out.output, baseline.output, "level {level}");
            // Analysis alone never changes memory traffic; the SSA-based
            // level may add (coalescable) φ-elimination copies, every
            // other level changes no executed instruction at all.
            assert_eq!(out.counts.loads, baseline.counts.loads, "level {level}");
            assert_eq!(out.counts.stores, baseline.counts.stores, "level {level}");
            if level != AnalysisLevel::PointsToSsa {
                assert_eq!(out.counts, baseline.counts, "level {level}");
            }
        }
    }
}
