//! Register promotion — the primary contribution of *Register Promotion in
//! C Programs* (Cooper & Lu, PLDI 1997).
//!
//! Promotion allows a value that normally resides in memory to reside in a
//! register for portions of the code. This crate implements both halves of
//! the paper's transformation:
//!
//! * **Scalar promotion** (§3.1): the data-flow equations of Figure 1 over
//!   the loop nesting forest, followed by the rewrite that loads each
//!   promotable tag in the landing pad of the outermost loop where it is
//!   safe, converts interior references to register copies, and stores the
//!   value back at the loop exits.
//! * **Pointer-based promotion** (§3.3): promotion of loop-invariant
//!   pointer references (e.g. `B[i]` inside a `j` loop) when all accesses
//!   to the referenced tags go through one invariant base register.
//!
//! [`promote_module`] runs both over a whole module (tests, examples).
//! The driver's fused chain calls the per-function pipeline entry points,
//! [`promote_scalars_in_func`] and [`promote_pointers_in_func`], which take
//! the function's shared analysis cache and its [`trace::FuncTrace`].
//!
//! ```
//! use promote::{promote_module, PromotionOptions};
//!
//! let mut module = minic::compile(r#"
//!     int g;
//!     int main() {
//!         int i;
//!         for (i = 0; i < 100; i++) { g = g + 1; }
//!         return g;
//!     }
//! "#)?;
//! analysis::analyze(&mut module, analysis::AnalysisLevel::ModRef);
//! let report = promote_module(&mut module, &PromotionOptions::default());
//! assert_eq!(report.scalar.promoted_tags, 1); // g promoted in the loop
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![warn(missing_docs)]

mod equations;
mod pointer;
mod scalar;

pub use equations::{block_sets, classify_singleton, BlockSets, LoopSets, RefClass};
pub use pointer::{promote_pointers_in_func, PointerReport};
pub use scalar::{promotable_tags, promote_scalars_in_func, ScalarReport};

use analysis::{tarjan_sccs, CallGraph};
use cfg::FunctionAnalyses;
use ir::Module;
use trace::FuncTrace;

/// Configuration for [`promote_module`].
#[derive(Debug, Clone)]
pub struct PromotionOptions {
    /// Run scalar promotion (§3.1).
    pub scalar: bool,
    /// Run pointer-based promotion (§3.3). The driver enables this only
    /// after LICM has hoisted base addresses.
    pub pointer_based: bool,
    /// Pressure throttle (the paper's §7 proposal, after Carr): keep only
    /// this many promotable tags per loop, ranked by reference frequency.
    /// `None` promotes everything, as the paper's measured implementation
    /// does.
    pub max_promoted_per_loop: Option<usize>,
}

impl Default for PromotionOptions {
    fn default() -> Self {
        PromotionOptions {
            scalar: true,
            pointer_based: false,
            max_promoted_per_loop: None,
        }
    }
}

/// Aggregate report over a module.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct PromotionReport {
    /// Scalar promotion totals.
    pub scalar: ScalarReport,
    /// Pointer-based promotion totals.
    pub pointer: PointerReport,
}

/// Runs register promotion over every function of `module`.
///
/// Loop normalization (landing pads + dedicated exits) is performed first;
/// the interprocedural analyses are expected to have already shrunk the
/// module's tag sets (see [`analysis::analyze`]), though promotion is sound
/// — merely unproductive — over unanalyzed `{*}` sets.
pub fn promote_module(module: &mut Module, opts: &PromotionOptions) -> PromotionReport {
    let graph = CallGraph::build(module, None);
    let sccs = tarjan_sccs(&graph);
    let mut report = PromotionReport::default();
    for (fi, func) in module.funcs.iter_mut().enumerate() {
        let f = ir::FuncId(fi as u32);
        let recursive = graph.is_recursive(f, &sccs);
        let mut analyses = FunctionAnalyses::new();
        let tr = &mut FuncTrace::off();
        cfg::normalize_loops_in(func, &mut analyses);
        if opts.scalar {
            let cap = opts.max_promoted_per_loop;
            let r =
                promote_scalars_in_func(&module.tags, func, f, recursive, cap, &mut analyses, tr);
            report.scalar.loops += r.loops;
            report.scalar.promoted_tags += r.promoted_tags;
            report.scalar.lifts += r.lifts;
            report.scalar.rewritten_refs += r.rewritten_refs;
        }
        if opts.pointer_based {
            let r = promote_pointers_in_func(func, &mut analyses, tr);
            report.pointer.promoted_bases += r.promoted_bases;
            report.pointer.rewritten_refs += r.rewritten_refs;
            report.pointer.lifts += r.lifts;
        }
    }
    debug_assert!(
        ir::validate(module).is_ok(),
        "promotion produced invalid IL"
    );
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use vm::{Vm, VmOptions};

    #[test]
    fn end_to_end_scalar_and_pointer() {
        let src = r#"
int g;
int B[8];
int A[8][8];
int main() {
    int i; int j;
    for (i = 0; i < 8; i++)
        for (j = 0; j < 8; j++)
            A[i][j] = i * j;
    for (i = 0; i < 8; i++) {
        int *p = &B[i];
        for (j = 0; j < 8; j++) {
            *p += A[i][j];
            g = g + 1;
        }
    }
    print_int(g);
    print_int(B[7]);
    return 0;
}
"#;
        let mut m = minic::compile(src).unwrap();
        analysis::analyze(&mut m, analysis::AnalysisLevel::PointsTo);
        let before = Vm::run_main(&m, VmOptions::default()).unwrap();
        let report = promote_module(
            &mut m,
            &PromotionOptions {
                scalar: true,
                pointer_based: true,
                ..Default::default()
            },
        );
        ir::validate(&m).unwrap();
        let after = Vm::run_main(&m, VmOptions::default()).unwrap();
        assert_eq!(after.output, before.output);
        assert!(report.scalar.promoted_tags >= 1);
        assert!(report.pointer.promoted_bases >= 1);
        assert!(after.counts.memory_ops() < before.counts.memory_ops());
    }

    #[test]
    fn promotion_is_idempotent_on_counts() {
        let src = r#"
int g;
int main() {
    int i;
    for (i = 0; i < 64; i++) { g = g + i; }
    print_int(g);
    return 0;
}
"#;
        let mut m = minic::compile(src).unwrap();
        analysis::analyze(&mut m, analysis::AnalysisLevel::ModRef);
        promote_module(&mut m, &PromotionOptions::default());
        let once = Vm::run_main(&m, VmOptions::default()).unwrap();
        promote_module(&mut m, &PromotionOptions::default());
        let twice = Vm::run_main(&m, VmOptions::default()).unwrap();
        assert_eq!(once.output, twice.output);
        assert_eq!(once.counts.loads, twice.counts.loads);
        assert_eq!(once.counts.stores, twice.counts.stores);
    }
}
