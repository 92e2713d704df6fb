//! Differential test of the sparse worklist dataflow solvers against the
//! dense full-resweep fixpoints they replaced, on randomized functions.
//!
//! Two bug classes hide in a worklist solver. *Under-propagation*: a
//! changed fact fails to re-enqueue a dependent block (a missed
//! subscription, a bad direction, a dropped unreachable-predecessor
//! edge), so the solver stops short of the fixpoint and silently reports
//! smaller sets. *Over-pruning*: SCCP's executable-edge tracking marks a
//! runtime-reachable path dead and constprop folds a value that is not
//! actually constant. Both produce answers that look plausible in
//! isolation — the only reliable oracle is the dense solver, which visits
//! everything until nothing changes. These tests drive both solvers over
//! the same randomized inputs (loops, irreducible tangles, unreachable
//! blocks, redefinitions) and demand exact agreement where the problems
//! are precision-equal (liveness, DCE, load elimination, points-to) and
//! lattice-ordered agreement where sparse is deliberately stronger
//! (conditional constant propagation).
//!
//! Random inputs come from an in-tree xorshift64* generator: every case
//! is reproducible from the fixed seed and no external crates are needed
//! (the build must work offline).

use cfg::{liveness_dense, Cfg, FunctionAnalyses};
use ir::{BinOp, BlockId, Function, FunctionBuilder, Instr, Reg, TagId, TagKind, TagTable};
use opt::{Lat, OptScratch};
use trace::FuncTrace;

/// Deterministic xorshift64* PRNG.
struct Rng(u64);

impl Rng {
    fn new(seed: u64) -> Self {
        Rng(seed ^ 0x9e37_79b9_7f4a_7c15)
    }
    fn next(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.0 = x;
        x.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }
    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }
}

/// Builds a function with random register dataflow, random multi-block
/// control flow (loops, irreducible tangles, and unreachable blocks
/// included), constant-guarded branches for SCCP to prune, and scalar
/// loads/stores through a small set of global tags for the memory
/// problems to chew on.
fn random_function(rng: &mut Rng, tags: &[TagId]) -> Function {
    let arity = rng.below(3);
    let mut b = FunctionBuilder::new("f", arity);
    let nblocks = 1 + rng.below(7);
    for _ in 1..nblocks {
        b.new_block();
    }
    let mut regs: Vec<Reg> = (0..arity as u32).map(Reg).collect();
    if regs.is_empty() {
        b.switch_to(BlockId(0));
        regs.push(b.iconst(1));
    }
    for bi in 0..nblocks {
        b.switch_to(BlockId(bi as u32));
        if b.is_terminated() {
            continue;
        }
        for _ in 0..rng.below(8) {
            let pick = |rng: &mut Rng, regs: &[Reg]| regs[rng.below(regs.len())];
            match rng.below(7) {
                0 => regs.push(b.iconst(rng.below(100) as i64)),
                1 => {
                    let (l, r) = (pick(rng, &regs), pick(rng, &regs));
                    regs.push(b.binary(BinOp::Add, l, r));
                }
                2 => {
                    // Redefine an existing register.
                    let (d, l, r) = (pick(rng, &regs), pick(rng, &regs), pick(rng, &regs));
                    b.emit(Instr::Binary {
                        op: BinOp::Mul,
                        dst: d,
                        lhs: l,
                        rhs: r,
                    });
                }
                3 => {
                    let s = pick(rng, &regs);
                    regs.push(b.copy(s));
                }
                4 => regs.push(b.sload(tags[rng.below(tags.len())])),
                5 => {
                    let s = pick(rng, &regs);
                    b.sstore(s, tags[rng.below(tags.len())]);
                }
                _ => {
                    let (d, s) = (pick(rng, &regs), pick(rng, &regs));
                    b.emit(Instr::Copy { dst: d, src: s });
                }
            }
        }
        // A quarter of branch conditions are fresh constants, so SCCP's
        // executable-edge pruning actually fires on these inputs.
        let v = if rng.below(4) == 0 {
            b.iconst(rng.below(2) as i64)
        } else {
            regs[rng.below(regs.len())]
        };
        match rng.below(3) {
            0 => b.ret(None),
            1 => b.jump(BlockId(rng.below(nblocks) as u32)),
            _ => b.branch(
                v,
                BlockId(rng.below(nblocks) as u32),
                BlockId(rng.below(nblocks) as u32),
            ),
        }
    }
    b.finish()
}

fn test_tags() -> (TagTable, Vec<TagId>) {
    let mut tags = TagTable::new();
    let ids = (0..3)
        .map(|i| tags.intern(format!("g{i}"), TagKind::Global, 1))
        .collect();
    (tags, ids)
}

fn sparse_cache() -> FunctionAnalyses {
    FunctionAnalyses::new()
}

fn dense_cache() -> FunctionAnalyses {
    let mut fa = FunctionAnalyses::new();
    fa.set_dense_dataflow(true);
    fa
}

/// The sparse backward-worklist liveness must compute exactly the dense
/// solver's least fixpoint — liveness has no sparse-only precision, so
/// any discrepancy is an under-propagation bug.
#[test]
fn sparse_liveness_matches_dense_on_random_functions() {
    let (_, tag_ids) = test_tags();
    let mut rng = Rng::new(0xD1FF_0000_0000_0001);
    for case in 0..300 {
        let func = random_function(&mut rng, &tag_ids);
        let mut fa = sparse_cache();
        let dense = liveness_dense(&func, &Cfg::build(&func));
        assert_eq!(
            fa.liveness(&func),
            &dense,
            "case {case}: sparse liveness diverged from dense\n{func:?}"
        );
    }
}

/// Block-scoped invalidation: after editing one block and reporting only
/// that block dirty, the partially-rescanned summaries must still produce
/// the exact fresh fixpoint. A stale-summary bug (the rescan missing a
/// block it needed) shows up as a liveness mismatch here.
#[test]
fn incremental_liveness_after_scoped_edit_matches_fresh() {
    let (_, tag_ids) = test_tags();
    let mut rng = Rng::new(0xD1FF_0000_0000_0002);
    for case in 0..300 {
        let mut func = random_function(&mut rng, &tag_ids);
        let mut fa = sparse_cache();
        fa.liveness(&func); // warm the summaries
                            // Edit one random block: define a fresh register and feed it to
                            // the terminator's block via a use in the same block (an
                            // insertion that changes both use and def summaries there).
        let bi = rng.below(func.blocks.len());
        let new = Reg(func.next_reg);
        func.next_reg += 1;
        func.blocks[bi]
            .instrs
            .insert(0, Instr::IConst { dst: new, value: 7 });
        func.blocks[bi].instrs.insert(
            1,
            Instr::Binary {
                op: BinOp::Add,
                dst: new,
                lhs: new,
                rhs: new,
            },
        );
        fa.note_body_changed_blocks([BlockId(bi as u32)]);
        let fresh = liveness_dense(&func, &Cfg::build(&func));
        assert_eq!(
            fa.liveness(&func),
            &fresh,
            "case {case}: incremental liveness diverged after editing block {bi}\n{func:?}"
        );
    }
}

/// DCE's CSR-worklist marking and loadelim's forward worklist are
/// precision-equal to their dense versions, so the rewritten functions
/// must come out byte-identical.
#[test]
fn sparse_dce_and_loadelim_rewrite_identically_to_dense() {
    let (_, tag_ids) = test_tags();
    let mut rng = Rng::new(0xD1FF_0000_0000_0003);
    let (scratch, tr) = (&mut OptScratch::default(), &mut FuncTrace::off());
    for case in 0..300 {
        let func = random_function(&mut rng, &tag_ids);

        let mut f_sparse = func.clone();
        let mut f_dense = func.clone();
        let ns = opt::dce_function(&mut f_sparse, &mut sparse_cache(), &mut scratch.dce, tr);
        let nd = opt::dce_function(&mut f_dense, &mut dense_cache(), &mut scratch.dce, tr);
        assert_eq!(ns, nd, "case {case}: dce removal counts diverged");
        assert_eq!(
            f_sparse, f_dense,
            "case {case}: dce output diverged\n{func:?}"
        );

        let mut f_sparse = func.clone();
        let mut f_dense = func.clone();
        let ns = opt::loadelim_function(
            &mut f_sparse,
            &mut sparse_cache(),
            &mut scratch.loadelim,
            tr,
        );
        let nd =
            opt::loadelim_function(&mut f_dense, &mut dense_cache(), &mut scratch.loadelim, tr);
        assert_eq!(ns, nd, "case {case}: loadelim rewrite counts diverged");
        assert_eq!(
            f_sparse, f_dense,
            "case {case}: loadelim output diverged\n{func:?}"
        );
    }
}

/// Conditional constant propagation is *deliberately* stronger than the
/// dense solver, but only in one direction. The lattice invariant: every
/// block the sparse solver marks executable is executable under dense
/// reachability, and on those blocks each register's sparse value is at
/// or above the dense value in the lattice order (meet(sparse, dense) ==
/// dense). A sparse value *below* dense means SCCP wrongly pruned a path
/// that feeds the join.
#[test]
fn sccp_lattice_dominates_dense_on_executable_blocks() {
    let (_, tag_ids) = test_tags();
    let mut rng = Rng::new(0xD1FF_0000_0000_0004);
    for case in 0..300 {
        let func = random_function(&mut rng, &tag_ids);
        let mut stats = cfg::DataflowStats::default();
        let cfg = Cfg::build(&func);
        let sparse = opt::analyze_constants(&func, &cfg, false, &mut stats);
        let dense = opt::analyze_constants(&func, &cfg, true, &mut stats);
        for bi in 0..func.blocks.len() {
            if !sparse.executable[bi] {
                continue;
            }
            assert!(
                dense.executable[bi],
                "case {case}: sparse marked block {bi} executable but dense did not"
            );
            for (r, (s, d)) in sparse.input[bi].iter().zip(&dense.input[bi]).enumerate() {
                assert_eq!(
                    Lat::meet(*s, *d),
                    *d,
                    "case {case}: r{r} at block {bi}: sparse {s:?} is not \
                     at-or-above dense {d:?}\n{func:?}"
                );
            }
        }
    }
}

/// The SCCP payoff the dense solver cannot deliver: a branch on a known
/// constant makes one arm non-executable, so the join only meets the
/// taken arm's value and the fold goes through. The dense solver joins
/// both arms and must leave the add alone.
#[test]
fn sccp_folds_through_a_dead_branch_arm_where_dense_cannot() {
    let build = || {
        let mut b = FunctionBuilder::new("f", 0);
        for _ in 0..3 {
            b.new_block();
        }
        // B0: c = 1; branch c, B1, B2
        let c = b.iconst(1);
        b.branch(c, BlockId(1), BlockId(2));
        // B1: x = 5; jump B3
        b.switch_to(BlockId(1));
        let x = b.iconst(5);
        b.emit(Instr::Copy {
            dst: Reg(9),
            src: x,
        });
        b.jump(BlockId(3));
        // B2 (dead): x' = 7; jump B3
        b.switch_to(BlockId(2));
        let y = b.iconst(7);
        b.emit(Instr::Copy {
            dst: Reg(9),
            src: y,
        });
        b.jump(BlockId(3));
        // B3: sum = r9 + r9; ret
        b.switch_to(BlockId(3));
        b.emit(Instr::Binary {
            op: BinOp::Add,
            dst: Reg(10),
            lhs: Reg(9),
            rhs: Reg(9),
        });
        b.ret(Some(Reg(10)));
        let mut f = b.finish();
        f.has_result = true;
        f.next_reg = f.next_reg.max(11);
        f
    };

    let (scratch, tr) = (&mut OptScratch::default(), &mut FuncTrace::off());
    let mut f_sparse = build();
    opt::constprop_function(
        &mut f_sparse,
        &mut sparse_cache(),
        &mut scratch.constprop,
        tr,
    );
    let folded = f_sparse.blocks[3].instrs.iter().any(|i| {
        matches!(
            i,
            Instr::IConst {
                dst: Reg(10),
                value: 10
            }
        )
    });
    assert!(
        folded,
        "sparse constprop must fold r10 = r9 + r9 to 10 through the dead arm\n{f_sparse:?}"
    );

    let mut f_dense = build();
    opt::constprop_function(&mut f_dense, &mut dense_cache(), &mut scratch.constprop, tr);
    let folded = f_dense.blocks[3]
        .instrs
        .iter()
        .any(|i| matches!(i, Instr::IConst { dst: Reg(10), .. }));
    assert!(
        !folded,
        "dense constprop sees both arms (5 meet 7 = ⊥) and must not fold\n{f_dense:?}"
    );
}

/// The demand-driven points-to solver must reach exactly the dense
/// round-robin fixpoint on whole programs, including function pointers
/// flowing through globals and return values crossing function
/// boundaries.
#[test]
fn demand_driven_points_to_matches_dense_on_minic_programs() {
    let programs = [
        r#"
int g;
int *p;
int pick;
int deref() { return *p; }
void setup() { p = &g; }
int main() {
    setup();
    g = 41;
    if (pick) { g = g + 1; }
    print_int(deref());
    return 0;
}
"#,
        r#"
int a;
int b;
int apply(int x) { return x + a; }
int twice(int x) { return apply(apply(x)); }
int main() {
    a = 3;
    b = twice(4);
    print_int(b);
    return 0;
}
"#,
    ];
    for (i, src) in programs.iter().enumerate() {
        let module = minic::compile(src).expect("compiles");
        let mut stats = cfg::DataflowStats::default();
        let sparse = analysis::points_to_analyze_with(&module, false, &mut stats);
        let dense = analysis::points_to_analyze_with(&module, true, &mut stats);
        assert_eq!(
            sparse.reg_pts, dense.reg_pts,
            "program {i}: register points-to sets diverged"
        );
        assert_eq!(
            sparse.tag_pts, dense.tag_pts,
            "program {i}: tag points-to sets diverged"
        );
    }
}
