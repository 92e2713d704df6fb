//! SSA destruction: replacing φ-functions with copies.
//!
//! Critical edges are split, each edge's φ moves form a *parallel copy*
//! that is sequentialized correctly (temporaries break cycles, so the
//! classic lost-copy and swap problems cannot occur), and the copies are
//! placed at predecessor edge blocks.

use cfg::FunctionAnalyses;
use ir::{BlockId, Function, Instr, Reg};
use trace::FuncTrace;

/// Splits every critical edge (multi-successor source to multi-predecessor
/// target). Returns the number of edges split. Splitting an edge is a
/// shape-tier change; splitting nothing leaves the cache warm.
fn split_critical_edges(func: &mut Function, analyses: &mut FunctionAnalyses) -> usize {
    let cfg = analyses.cfg(func);
    let mut splits: Vec<(BlockId, BlockId)> = Vec::new();
    for b in func.block_ids() {
        if !cfg.is_reachable(b) {
            continue;
        }
        if cfg.succs[b.index()].len() > 1 {
            for &s in &cfg.succs[b.index()] {
                if cfg.preds[s.index()].len() > 1 {
                    splits.push((b, s));
                }
            }
        }
    }
    let n = splits.len();
    if n > 0 {
        analyses.note_shape_changed();
    }
    for (from, to) in splits {
        let mid = func.new_block();
        func.block_mut(mid).instrs.push(Instr::Jump { target: to });
        // Retarget only the from->to edge(s) in the terminator.
        if let Some(t) = func.block_mut(from).terminator_mut() {
            t.retarget_blocks(|b| if b == to { mid } else { b });
        }
        // φ predecessor labels in `to` must follow the edge.
        for instr in &mut func.block_mut(to).instrs {
            if let Instr::Phi { args, .. } = instr {
                for (p, _) in args {
                    if *p == from {
                        *p = mid;
                    }
                }
            }
        }
    }
    n
}

/// Sequentializes a parallel copy `dst_i <- src_i` into a series of
/// [`Instr::Copy`]s, using `fresh` to allocate a cycle-breaking
/// temporary when needed.
pub fn sequentialize_parallel_copy(
    moves: &[(Reg, Reg)],
    mut fresh: impl FnMut() -> Reg,
) -> Vec<Instr> {
    let mut pending: Vec<(Reg, Reg)> = moves.iter().copied().filter(|(d, s)| d != s).collect();
    let mut out = Vec::new();
    while !pending.is_empty() {
        // A move whose destination is not the source of any other pending
        // move can be emitted safely.
        let ready = pending
            .iter()
            .position(|&(d, _)| !pending.iter().any(|&(_, s)| s == d));
        match ready {
            Some(i) => {
                let (d, s) = pending.remove(i);
                out.push(Instr::Copy { dst: d, src: s });
            }
            None => {
                // Pure cycle: break it with a temporary.
                let (d, s) = pending[0];
                let t = fresh();
                out.push(Instr::Copy { dst: t, src: s });
                pending[0] = (d, t);
                // The original source register is now free to be written:
                // rewrite other pending moves reading `s`? Not needed —
                // only one move may read each cycle register in a valid
                // parallel copy produced by φ-nodes of one block, but stay
                // general: redirect all readers of `s` except the one we
                // just serviced to the temporary.
                for m in pending.iter_mut().skip(1) {
                    if m.1 == s {
                        m.1 = t;
                    }
                }
            }
        }
    }
    out
}

/// Replaces every φ-node with copies on the incoming edges, splitting
/// critical edges first. Edge splits report a shape-tier change to
/// `analyses`, φ removal and copy insertion a body-tier one. When `tr` is
/// enabled an `ssa-destruct` delta is recorded. Returns the number of
/// φ-nodes removed.
pub fn destruct(func: &mut Function, analyses: &mut FunctionAnalyses, tr: &mut FuncTrace) -> usize {
    tr.record_delta(
        "ssa-destruct",
        func,
        |f| f.body_stats().into(),
        |f, _| destruct_in(f, analyses),
        |_| false,
    )
}

/// The body of [`destruct`].
fn destruct_in(func: &mut Function, analyses: &mut FunctionAnalyses) -> usize {
    split_critical_edges(func, analyses);
    // Collect per-predecessor parallel copies.
    let mut edge_moves: Vec<Vec<(Reg, Reg)>> = vec![Vec::new(); func.blocks.len()];
    let mut removed = 0;
    for b in func.block_ids() {
        // φ-nodes form the block's leading prefix; drain them in one shift
        // instead of one `remove(0)` per node, moving each `args` vector
        // out rather than cloning it.
        let block = func.block_mut(b);
        let nphi = block.first_non_phi();
        for instr in block.instrs.drain(0..nphi) {
            let Instr::Phi { dst, args } = instr else {
                unreachable!("first_non_phi bounds the φ prefix");
            };
            for (p, src) in args {
                edge_moves[p.index()].push((dst, src));
            }
            removed += 1;
        }
    }
    for p in func.block_ids() {
        let moves = std::mem::take(&mut edge_moves[p.index()]);
        if moves.is_empty() {
            continue;
        }
        let seq = sequentialize_parallel_copy(&moves, || {
            let r = Reg(func.next_reg);
            func.next_reg += 1;
            r
        });
        func.block_mut(p).splice_before_terminator(seq);
    }
    if removed > 0 {
        analyses.note_body_changed();
    }
    removed
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parallel_copy_simple_chain() {
        // a <- b, b <- c : emit a<-b first, then b<-c.
        let a = Reg(0);
        let b = Reg(1);
        let c = Reg(2);
        let seq = sequentialize_parallel_copy(&[(a, b), (b, c)], || unreachable!());
        assert_eq!(
            seq,
            vec![
                Instr::Copy { dst: a, src: b },
                Instr::Copy { dst: b, src: c }
            ]
        );
    }

    #[test]
    fn parallel_copy_swap_uses_temp() {
        let a = Reg(0);
        let b = Reg(1);
        let t = Reg(9);
        let seq = sequentialize_parallel_copy(&[(a, b), (b, a)], || t);
        // t <- b; a <- ... the cycle is broken through t.
        assert_eq!(seq.len(), 3);
        assert_eq!(seq[0], Instr::Copy { dst: t, src: b });
        // After the temp, both targets get written from non-clobbered
        // sources.
        assert!(seq
            .iter()
            .skip(1)
            .any(|i| matches!(i, Instr::Copy { dst, .. } if *dst == a)));
        assert!(seq
            .iter()
            .skip(1)
            .any(|i| matches!(i, Instr::Copy { dst, .. } if *dst == b)));
    }

    #[test]
    fn identity_moves_vanish() {
        let a = Reg(0);
        let seq = sequentialize_parallel_copy(&[(a, a)], || unreachable!());
        assert!(seq.is_empty());
    }
}
