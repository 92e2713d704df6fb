//! Global conditional constant propagation.
//!
//! A forward data-flow analysis over virtual registers with the classic
//! three-level lattice (⊤ / constant / ⊥). Definitions whose operands are
//! all constants are folded to `iconst`/`fconst`, and branches on constant
//! conditions become jumps (which `clean` then exploits to delete dead
//! arms).
//!
//! The default solver is sparse *conditional* constant propagation in the
//! style of Wegman/Zadeck: it tracks which blocks are executable, marks
//! only the taken edge of a branch whose condition has resolved to a
//! constant, and never lets values flowing along a dead edge pollute a
//! join. That is strictly stronger than the dense sweep (which treats
//! every CFG edge as live) — a join reached constantly from only one arm
//! of a constant branch keeps its constant. The dense sweep survives as
//! the measured baseline ([`analyze_constants`] with `dense = true`).

use cfg::{BlockWorklist, Cfg, DataflowStats, Direction, FunctionAnalyses};
use ir::{BinOp, CmpOp, Function, Instr, Module, Reg, UnaryOp};
use trace::FuncTrace;

/// One register's abstract value: unknown-as-yet (⊤), a proven constant,
/// or proven varying (⊥).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Lat {
    /// No executable definition seen yet.
    Top,
    /// Every executable path assigns this integer.
    Int(i64),
    /// Every executable path assigns this float.
    Float(f64),
    /// Conflicting or unfoldable definitions.
    Bottom,
}

impl Lat {
    /// Lattice meet (greatest lower bound).
    pub fn meet(self, other: Lat) -> Lat {
        match (self, other) {
            (Lat::Top, x) | (x, Lat::Top) => x,
            (a, b) if a == b => a,
            _ => Lat::Bottom,
        }
    }
}

/// Computes the lattice value `instr` assigns to its destination under
/// `state`, without touching `state`. Instructions with no destination
/// evaluate to ⊥.
fn eval(instr: &Instr, state: &[Lat]) -> Lat {
    let get = |state: &[Lat], r: Reg| state[r.index()];
    match instr {
        Instr::IConst { value, .. } => Lat::Int(*value),
        Instr::FConst { value, .. } => Lat::Float(*value),
        Instr::Copy { src, .. } => get(state, *src),
        Instr::Unary { op, src, .. } => match (op, get(state, *src)) {
            (UnaryOp::Neg, Lat::Int(a)) => Lat::Int(a.wrapping_neg()),
            (UnaryOp::Neg, Lat::Float(a)) => Lat::Float(-a),
            (UnaryOp::Not, Lat::Int(a)) => Lat::Int((a == 0) as i64),
            (UnaryOp::IntToFloat, Lat::Int(a)) => Lat::Float(a as f64),
            (UnaryOp::FloatToInt, Lat::Float(a)) => Lat::Int(a as i64),
            (_, Lat::Top) => Lat::Top,
            _ => Lat::Bottom,
        },
        Instr::Binary { op, lhs, rhs, .. } => match (get(state, *lhs), get(state, *rhs)) {
            (Lat::Int(a), Lat::Int(b)) => {
                match fold_int(*op, a, b) {
                    Some(v) => Lat::Int(v),
                    None => Lat::Bottom, // division by zero traps at run time
                }
            }
            (Lat::Float(a), Lat::Float(b)) => match op {
                BinOp::Add => Lat::Float(a + b),
                BinOp::Sub => Lat::Float(a - b),
                BinOp::Mul => Lat::Float(a * b),
                BinOp::Div => Lat::Float(a / b),
                _ => Lat::Bottom,
            },
            (Lat::Top, _) | (_, Lat::Top) => Lat::Top,
            _ => Lat::Bottom,
        },
        Instr::Cmp { op, lhs, rhs, .. } => match (get(state, *lhs), get(state, *rhs)) {
            (Lat::Int(a), Lat::Int(b)) => Lat::Int(fold_cmp(*op, a, b)),
            (Lat::Top, _) | (_, Lat::Top) => Lat::Top,
            _ => Lat::Bottom,
        },
        Instr::Phi { args, .. } => {
            let mut v = Lat::Top;
            for (_, r) in args {
                v = v.meet(get(state, *r));
            }
            v
        }
        _ => Lat::Bottom,
    }
}

/// Applies `instr` to `state`.
fn transfer(instr: &Instr, state: &mut [Lat]) {
    let val = eval(instr, state);
    if let Some(d) = instr.def() {
        state[d.index()] = val;
    }
}

fn fold_int(op: BinOp, a: i64, b: i64) -> Option<i64> {
    Some(match op {
        BinOp::Add => a.wrapping_add(b),
        BinOp::Sub => a.wrapping_sub(b),
        BinOp::Mul => a.wrapping_mul(b),
        BinOp::Div => {
            if b == 0 {
                return None;
            }
            a.wrapping_div(b)
        }
        BinOp::Rem => {
            if b == 0 {
                return None;
            }
            a.wrapping_rem(b)
        }
        BinOp::And => a & b,
        BinOp::Or => a | b,
        BinOp::Xor => a ^ b,
        BinOp::Shl => a.wrapping_shl((b & 63) as u32),
        BinOp::Shr => a.wrapping_shr((b & 63) as u32),
    })
}

fn fold_cmp(op: CmpOp, a: i64, b: i64) -> i64 {
    (match op {
        CmpOp::Eq => a == b,
        CmpOp::Ne => a != b,
        CmpOp::Lt => a < b,
        CmpOp::Le => a <= b,
        CmpOp::Gt => a > b,
        CmpOp::Ge => a >= b,
    }) as i64
}

/// The solved constant lattice: which blocks can execute given the
/// constants found so far, and each register's value at every block entry.
/// Exposed so differential tests can compare solver precision directly.
#[derive(Debug, Clone)]
pub struct ConstLattice {
    /// True for blocks reachable along executable edges only. The dense
    /// solver marks every CFG-reachable block; the sparse solver can prove
    /// fewer blocks executable.
    pub executable: Vec<bool>,
    /// Lattice value per register at each block's entry.
    pub input: Vec<Vec<Lat>>,
}

/// Reusable solver state for [`constprop_function`]: the per-block
/// lattice inputs flattened into one `blocks × nregs` vector, the
/// executable-block bitmap, the walking state, and the worklist. Length-
/// reset per call; capacity survives across functions.
#[derive(Default)]
pub struct ConstScratch {
    input: Vec<Lat>,
    executable: Vec<bool>,
    state: Vec<Lat>,
    wl: BlockWorklist,
}

/// [`analyze_constants`] into caller-owned scratch buffers. On return
/// `scratch.executable` and `scratch.input` (flat, `nregs` per block) hold
/// the solution.
fn analyze_constants_in(
    func: &Function,
    cfg: &Cfg,
    dense: bool,
    stats: &mut DataflowStats,
    scratch: &mut ConstScratch,
) {
    let nregs = func.next_reg as usize;
    let n = func.blocks.len();
    scratch.input.clear();
    scratch.input.resize(n * nregs, Lat::Top);
    scratch.executable.clear();
    scratch.executable.resize(n, false);
    // Parameters are unknown.
    for p in 0..func.arity {
        scratch.input[func.entry.index() * nregs + p] = Lat::Bottom;
    }
    let executable = &mut scratch.executable;
    let input = &mut scratch.input;
    let state = &mut scratch.state;
    if dense {
        for &b in &cfg.rpo {
            executable[b.index()] = true;
        }
        let mut changed = true;
        while changed {
            changed = false;
            for &b in &cfg.rpo {
                stats.blocks_visited += 1;
                let bi = b.index();
                state.clear();
                state.extend_from_slice(&input[bi * nregs..(bi + 1) * nregs]);
                for instr in &func.block(b).instrs {
                    stats.transfer_evals += 1;
                    transfer(instr, state);
                }
                for s in cfg.succs[bi].iter() {
                    let si = s.index();
                    let succ_in = &mut input[si * nregs..(si + 1) * nregs];
                    for (i, v) in state.iter().enumerate() {
                        let m = succ_in[i].meet(*v);
                        if m != succ_in[i] {
                            succ_in[i] = m;
                            changed = true;
                        }
                    }
                }
            }
        }
        return;
    }
    // Sparse conditional constant propagation. The executable set and the
    // per-block inputs both grow monotonically, so the worklist terminates
    // at the least fixpoint over executable edges.
    executable[func.entry.index()] = true;
    let wl = &mut scratch.wl;
    wl.reset(cfg, Direction::Forward);
    wl.push(func.entry, stats);
    while let Some(b) = wl.pop(stats) {
        let bi = b.index();
        state.clear();
        state.extend_from_slice(&input[bi * nregs..(bi + 1) * nregs]);
        for instr in &func.block(b).instrs {
            stats.transfer_evals += 1;
            transfer(instr, state);
        }
        // A branch whose condition has resolved to a constant executes
        // only its taken edge; everything else keeps all successors.
        let taken: Option<ir::BlockId> = match func.block(b).instrs.last() {
            Some(Instr::Branch {
                cond,
                then_bb,
                else_bb,
            }) => match state[cond.index()] {
                Lat::Int(c) => Some(if c != 0 { *then_bb } else { *else_bb }),
                _ => None,
            },
            _ => None,
        };
        for &s in cfg.succs[bi].iter() {
            if let Some(t) = taken {
                if s != t {
                    continue;
                }
            }
            let si = s.index();
            let mut changed = !executable[si];
            executable[si] = true;
            let succ_in = &mut input[si * nregs..(si + 1) * nregs];
            for (i, v) in state.iter().enumerate() {
                let m = succ_in[i].meet(*v);
                if m != succ_in[i] {
                    succ_in[i] = m;
                    changed = true;
                }
            }
            if changed {
                wl.push(s, stats);
            }
        }
    }
}

/// Solves the constant lattice for `func`. With `dense = false` this is
/// sparse conditional constant propagation: only the entry is seeded, a
/// branch whose condition is a known constant marks only its taken edge,
/// and blocks are re-enqueued only when their input actually changes. With
/// `dense = true` it is the classic iterate-to-fixpoint sweep over every
/// reachable block and edge. Work is counted into `stats` either way.
pub fn analyze_constants(
    func: &Function,
    cfg: &Cfg,
    dense: bool,
    stats: &mut DataflowStats,
) -> ConstLattice {
    let mut scratch = ConstScratch::default();
    analyze_constants_in(func, cfg, dense, stats, &mut scratch);
    let nregs = func.next_reg as usize;
    let n = func.blocks.len();
    ConstLattice {
        executable: scratch.executable,
        input: (0..n)
            .map(|b| scratch.input[b * nregs..(b + 1) * nregs].to_vec())
            .collect(),
    }
}

/// Runs constant propagation over one function. Returns rewrites made.
///
/// This is the pipeline entry point: `analyses` is the function's shared
/// cache, `scratch` the worker's arena for this pass, and a `constprop` delta
/// is recorded in `tr` when tracing is on.
pub fn constprop_function(
    func: &mut Function,
    analyses: &mut FunctionAnalyses,
    scratch: &mut ConstScratch,
    tr: &mut FuncTrace,
) -> usize {
    crate::recorded("constprop", func, tr, |f| {
        constprop_function_in(f, analyses, scratch)
    })
}

/// The body of [`constprop_function`].
fn constprop_function_in(
    func: &mut Function,
    analyses: &mut FunctionAnalyses,
    scratch: &mut ConstScratch,
) -> usize {
    let nregs = func.next_reg as usize;
    let dense = analyses.dense_dataflow();
    let mut stats = DataflowStats::default();
    let cfg = analyses.cfg(func);
    analyze_constants_in(func, cfg, dense, &mut stats, scratch);
    // Rewrite pass: fold definitions and branches. Blocks the solver
    // proved non-executable are left untouched — once their incoming
    // branches fold to jumps, `clean` removes them outright.
    let mut rewrites = 0;
    let mut branch_folds = 0;
    let state = &mut scratch.state;
    for &b in &cfg.rpo {
        if !scratch.executable[b.index()] {
            continue;
        }
        let bi = b.index();
        state.clear();
        state.extend_from_slice(&scratch.input[bi * nregs..(bi + 1) * nregs]);
        for instr in &mut func.block_mut(b).instrs {
            let folded: Option<Instr> = match instr {
                Instr::Binary { dst, .. } | Instr::Cmp { dst, .. } | Instr::Unary { dst, .. } => {
                    let dst = *dst;
                    match eval(instr, state) {
                        Lat::Int(v) => Some(Instr::IConst { dst, value: v }),
                        Lat::Float(v) => Some(Instr::FConst { dst, value: v }),
                        _ => None,
                    }
                }
                Instr::Branch {
                    cond,
                    then_bb,
                    else_bb,
                } => match state[cond.index()] {
                    Lat::Int(c) => Some(Instr::Jump {
                        target: if c != 0 { *then_bb } else { *else_bb },
                    }),
                    _ => None,
                },
                _ => None,
            };
            transfer(instr, state);
            if let Some(new) = folded {
                if *instr != new {
                    if matches!(new, Instr::Jump { .. }) {
                        branch_folds += 1;
                    }
                    *instr = new;
                    rewrites += 1;
                }
            }
        }
    }
    analyses.dataflow.add(&stats);
    // Folding a branch to a jump deletes an edge; constant folds only
    // rewrite operands.
    if branch_folds > 0 {
        analyses.note_shape_changed();
    } else if rewrites > 0 {
        analyses.note_body_changed();
    }
    rewrites
}

/// Runs constant propagation over every function, sharing one scratch.
pub fn constprop(module: &mut Module) -> usize {
    let mut n = 0;
    let mut scratch = ConstScratch::default();
    for func in &mut module.funcs {
        n += constprop_function_in(func, &mut FunctionAnalyses::new(), &mut scratch);
    }
    n
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn propagates_across_blocks() {
        let src = r#"
func @main(0) result {
B0:
  r0 = iconst 21
  jump B1
B1:
  r1 = add r0, r0
  ret r1
}
"#;
        let mut m = ir::parse_module(src).unwrap();
        let n = constprop(&mut m);
        assert_eq!(n, 1);
        assert!(matches!(
            m.funcs[0].blocks[1].instrs[0],
            Instr::IConst { value: 42, .. }
        ));
    }

    #[test]
    fn merges_conflicting_paths_to_bottom() {
        let src = r#"
func @main(1) result {
B0:
  branch r0, B1, B2
B1:
  r1 = iconst 1
  jump B3
B2:
  r1 = iconst 2
  jump B3
B3:
  r2 = add r1, r1
  ret r2
}
"#;
        let mut m = ir::parse_module(src).unwrap();
        let n = constprop(&mut m);
        assert_eq!(n, 0, "r1 is not constant at the join");
    }

    #[test]
    fn agreeing_paths_stay_constant() {
        let src = r#"
func @main(1) result {
B0:
  branch r0, B1, B2
B1:
  r1 = iconst 5
  jump B3
B2:
  r1 = iconst 5
  jump B3
B3:
  r2 = add r1, r1
  ret r2
}
"#;
        let mut m = ir::parse_module(src).unwrap();
        let n = constprop(&mut m);
        assert_eq!(n, 1);
        assert!(matches!(
            m.funcs[0].blocks[3].instrs[0],
            Instr::IConst { value: 10, .. }
        ));
    }

    #[test]
    fn folds_constant_branches() {
        let src = r#"
func @main(0) result {
B0:
  r0 = iconst 0
  branch r0, B1, B2
B1:
  r1 = iconst 111
  ret r1
B2:
  r2 = iconst 222
  ret r2
}
"#;
        let mut m = ir::parse_module(src).unwrap();
        constprop(&mut m);
        assert!(matches!(
            m.funcs[0].blocks[0].instrs[1],
            Instr::Jump { target } if target == ir::BlockId(2)
        ));
    }

    #[test]
    fn loop_carried_values_are_bottom() {
        let src = r#"
func @main(0) result {
B0:
  r0 = iconst 10
  jump B1
B1:
  r1 = iconst 1
  r0 = sub r0, r1
  branch r0, B1, B2
B2:
  ret r0
}
"#;
        let mut m = ir::parse_module(src).unwrap();
        let before = vm::Vm::run_main(&m, vm::VmOptions::default()).unwrap();
        constprop(&mut m);
        ir::validate(&m).unwrap();
        let after = vm::Vm::run_main(&m, vm::VmOptions::default()).unwrap();
        assert_eq!(before.exit_code, after.exit_code);
        // The loop body subtraction must not be folded.
        assert!(matches!(
            m.funcs[0].blocks[1].instrs[1],
            Instr::Binary { .. }
        ));
    }

    #[test]
    fn dead_branch_arm_does_not_pollute_the_join() {
        // r0 is the constant 1, so B2 never executes. The dense solver
        // still meets B2's r1 = 7 into the join and loses the fold; SCCP
        // keeps r1 = 5 and folds the add.
        let src = r#"
func @main(0) result {
B0:
  r0 = iconst 1
  branch r0, B1, B2
B1:
  r1 = iconst 5
  jump B3
B2:
  r1 = iconst 7
  jump B3
B3:
  r2 = add r1, r1
  ret r2
}
"#;
        let mut m = ir::parse_module(src).unwrap();
        let n = constprop(&mut m);
        assert!(
            matches!(
                m.funcs[0].blocks[3].instrs[0],
                Instr::IConst { value: 10, .. }
            ),
            "join fold lost: {:?}",
            m.funcs[0].blocks[3].instrs[0]
        );
        assert!(matches!(
            m.funcs[0].blocks[0].instrs[1],
            Instr::Jump { target } if target == ir::BlockId(1)
        ));
        assert!(n >= 2);
        ir::validate(&m).unwrap();
    }

    #[test]
    fn sparse_solver_skips_dead_work_the_dense_one_does() {
        let src = r#"
func @main(0) result {
B0:
  r0 = iconst 1
  branch r0, B1, B2
B1:
  r1 = iconst 5
  jump B3
B2:
  r1 = iconst 7
  jump B3
B3:
  r2 = add r1, r1
  ret r2
}
"#;
        let m = ir::parse_module(src).unwrap();
        let f = &m.funcs[0];
        let cfg = Cfg::build(f);
        let mut sparse = DataflowStats::default();
        let lat = analyze_constants(f, &cfg, false, &mut sparse);
        let mut dense = DataflowStats::default();
        let dense_lat = analyze_constants(f, &cfg, true, &mut dense);
        assert!(!lat.executable[2], "B2 is dead under SCCP");
        assert!(dense_lat.executable[2], "dense treats every edge as live");
        assert!(sparse.transfer_evals < dense.transfer_evals);
    }

    #[test]
    fn division_by_zero_not_folded() {
        let src = r#"
func @main(0) result {
B0:
  r0 = iconst 1
  r1 = iconst 0
  r2 = div r0, r1
  ret r2
}
"#;
        let mut m = ir::parse_module(src).unwrap();
        constprop(&mut m);
        assert!(matches!(
            m.funcs[0].blocks[0].instrs[2],
            Instr::Binary { .. }
        ));
    }
}
