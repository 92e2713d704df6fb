//! SSA well-formedness checking.

use cfg::{Cfg, DomTree};
use ir::{BlockId, Function, Instr, Reg};
use std::error::Error;
use std::fmt;

/// A violation of SSA form.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SsaError(String);

impl fmt::Display for SsaError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "SSA violation: {}", self.0)
    }
}

impl Error for SsaError {}

/// Checks that `func` is in SSA form:
///
/// * every register has at most one definition (parameters count as
///   defined at entry);
/// * every use is dominated by its definition (φ-uses are checked at the
///   corresponding predecessor's exit); never-defined registers are
///   permitted only as whole-function "undefined value" names (no
///   definition anywhere);
/// * every φ has exactly one argument per reachable predecessor.
///
/// # Errors
///
/// Returns the first violation found.
pub fn verify_ssa(func: &Function) -> Result<(), SsaError> {
    let cfg = Cfg::build(func);
    let dom = DomTree::lengauer_tarjan(&cfg);
    let nregs = func.next_reg as usize;
    // Definition positions. Instruction indices are shifted by one so
    // that parameters can sit at position 0, strictly before the entry
    // block's first instruction.
    let mut def_at: Vec<Option<(BlockId, usize)>> = vec![None; nregs];
    for def in &mut def_at[..func.arity] {
        *def = Some((func.entry, 0));
    }
    for b in func.block_ids() {
        if !cfg.is_reachable(b) {
            continue;
        }
        for (i, instr) in func.block(b).instrs.iter().enumerate() {
            if let Some(d) = instr.def() {
                if let Some((ob, oi)) = def_at[d.index()] {
                    if (ob, oi) != (b, i + 1) {
                        return Err(SsaError(format!(
                            "{d} defined at {ob}[{oi}] and again at {b}[{i}]"
                        )));
                    }
                }
                def_at[d.index()] = Some((b, i + 1));
            }
        }
    }
    // Dominance of uses.
    let dominates_use = |def: Option<(BlockId, usize)>, ub: BlockId, ui: usize| -> bool {
        match def {
            None => true, // undefined-value name
            Some((db, di)) => {
                if db == ub {
                    di < ui
                } else {
                    dom.strictly_dominates(db, ub) || dom.dominates(db, ub)
                }
            }
        }
    };
    for b in func.block_ids() {
        if !cfg.is_reachable(b) {
            continue;
        }
        let preds = &cfg.preds[b.index()];
        for (i, instr) in func.block(b).instrs.iter().enumerate() {
            if let Instr::Phi { dst, args } = instr {
                let reachable_preds: Vec<BlockId> = preds
                    .iter()
                    .copied()
                    .filter(|p| cfg.is_reachable(*p))
                    .collect();
                if args.len() != reachable_preds.len() {
                    return Err(SsaError(format!(
                        "phi {dst} in {b} has {} args for {} predecessors",
                        args.len(),
                        reachable_preds.len()
                    )));
                }
                for (p, r) in args {
                    if !reachable_preds.contains(p) {
                        return Err(SsaError(format!(
                            "phi {dst} in {b} names non-predecessor {p}"
                        )));
                    }
                    // The argument must be available at the end of p.
                    let avail = match def_at[r.index()] {
                        None => true,
                        Some((db, _)) => dom.dominates(db, *p),
                    };
                    if !avail {
                        return Err(SsaError(format!(
                            "phi {dst} argument {r} not available at end of {p}"
                        )));
                    }
                }
            } else {
                let mut bad: Option<Reg> = None;
                instr.visit_uses(|r| {
                    if bad.is_none() && !dominates_use(def_at[r.index()], b, i + 1) {
                        bad = Some(r);
                    }
                });
                if let Some(r) = bad {
                    return Err(SsaError(format!(
                        "use of {r} at {b}[{i}] not dominated by its definition"
                    )));
                }
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use ir::FunctionBuilder;

    #[test]
    fn rejects_double_definition() {
        let mut b = FunctionBuilder::new("f", 0);
        let r = b.iconst(1);
        b.emit(Instr::IConst { dst: r, value: 2 });
        b.ret(None);
        let f = b.finish();
        assert!(verify_ssa(&f).is_err());
    }

    #[test]
    fn accepts_straight_line_ssa() {
        let mut b = FunctionBuilder::new("f", 0);
        let x = b.iconst(1);
        let y = b.copy(x);
        b.ret(Some(y));
        let mut f = b.finish();
        f.has_result = true;
        assert!(verify_ssa(&f).is_ok());
    }

    #[test]
    fn rejects_use_not_dominated() {
        // use in entry of a value defined in a later block.
        let mut b = FunctionBuilder::new("f", 0);
        let later = b.new_block();
        let v = b.new_reg();
        let u = b.copy(v); // use before any def
        let _ = u;
        b.jump(later);
        b.switch_to(later);
        b.emit(Instr::IConst { dst: v, value: 3 });
        b.ret(None);
        let f = b.finish();
        let e = verify_ssa(&f).unwrap_err();
        assert!(e.to_string().contains("not dominated"));
    }
}
