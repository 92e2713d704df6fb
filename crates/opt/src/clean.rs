//! The basic-block cleaning pass.
//!
//! The paper's pipeline ends with "a basic block cleaning pass", and its
//! CFG construction notes that "empty blocks are automatically removed
//! after optimization". This pass removes `nop`s, threads jumps through
//! empty forwarding blocks, folds constant branches left by constant
//! propagation, and deletes unreachable blocks.

use cfg::{remove_unreachable_blocks_in, FunctionAnalyses};
use ir::{BlockId, Function, Instr, Module};
use trace::FuncTrace;

/// Reusable buffers for [`clean_function`]: the jump-forwarding table,
/// length-reset per call so its capacity survives across functions.
#[derive(Default)]
pub struct CleanScratch {
    forward: Vec<Option<BlockId>>,
}

/// Runs the cleaner on one function. Returns the number of changes.
///
/// This is the pipeline entry point: `analyses` is the function's shared
/// cache, `scratch` the worker's arena for this pass, and a `clean` delta
/// is recorded in `tr` when tracing is on.
pub fn clean_function(
    func: &mut Function,
    analyses: &mut FunctionAnalyses,
    scratch: &mut CleanScratch,
    tr: &mut FuncTrace,
) -> usize {
    crate::recorded("clean", func, tr, |f| {
        clean_function_in(f, analyses, scratch)
    })
}

/// The body of [`clean_function`].
fn clean_function_in(
    func: &mut Function,
    analyses: &mut FunctionAnalyses,
    scratch: &mut CleanScratch,
) -> usize {
    let mut changes = 0;
    // 1. Drop nops. Removing a nop changes no live range and no edge, so
    //    it does not dirty the cache at all.
    for block in &mut func.blocks {
        let before = block.instrs.len();
        block.instrs.retain(|i| !matches!(i, Instr::Nop));
        changes += before - block.instrs.len();
    }
    // 2. Fold branches with equal targets into jumps (shape tier: the
    //    duplicate edge collapses).
    let mut shape_changes = 0;
    for block in &mut func.blocks {
        if let Some(Instr::Branch {
            then_bb, else_bb, ..
        }) = block.instrs.last()
        {
            if then_bb == else_bb {
                let t = *then_bb;
                *block.instrs.last_mut().expect("terminator") = Instr::Jump { target: t };
                changes += 1;
                shape_changes += 1;
            }
        }
    }
    // 3. Thread jumps through empty forwarding blocks (a block whose only
    //    instruction is `jump`). Do not thread the entry block away and
    //    respect φ-nodes in targets (their predecessor labels would have to
    //    change; the pipeline is φ-free, but stay safe).
    let n = func.blocks.len();
    let forward = &mut scratch.forward;
    forward.clear();
    forward.resize(n, None);
    for id in func.block_ids() {
        let block = func.block(id);
        if block.instrs.len() == 1 {
            if let Some(Instr::Jump { target }) = block.instrs.first() {
                if *target != id {
                    forward[id.index()] = Some(*target);
                }
            }
        }
    }
    let has_phis = func
        .blocks
        .iter()
        .any(|b| b.instrs.iter().any(|i| matches!(i, Instr::Phi { .. })));
    if !has_phis {
        // Resolve forwarding chains (with cycle guard).
        let resolve = |mut b: BlockId| {
            let mut hops = 0;
            while let Some(next) = forward[b.index()] {
                b = next;
                hops += 1;
                if hops > n {
                    break;
                }
            }
            b
        };
        for id in func.block_ids() {
            let mut local = 0;
            if let Some(t) = func.block_mut(id).terminator_mut() {
                t.retarget_blocks(|b| {
                    let r = resolve(b);
                    if r != b {
                        local += 1;
                    }
                    r
                });
            }
            changes += local;
            shape_changes += local;
        }
        let new_entry = resolve(func.entry);
        if new_entry != func.entry {
            func.entry = new_entry;
            shape_changes += 1;
        }
    }
    if shape_changes > 0 {
        analyses.note_shape_changed();
    }
    // 4. Delete newly unreachable blocks (reports its own invalidation).
    changes += remove_unreachable_blocks_in(func, analyses);
    changes
}

/// Runs the cleaner over every function, sharing one scratch.
pub fn clean(module: &mut Module) -> usize {
    let mut changes = 0;
    let mut scratch = CleanScratch::default();
    for func in &mut module.funcs {
        changes += clean_function_in(func, &mut FunctionAnalyses::new(), &mut scratch);
    }
    changes
}

#[cfg(test)]
mod tests {
    use super::*;
    use ir::FunctionBuilder;

    #[test]
    fn removes_nops_and_threads_jumps() {
        let mut b = FunctionBuilder::new("f", 0);
        let fwd = b.new_block();
        let end = b.new_block();
        b.emit(Instr::Nop);
        b.jump(fwd);
        b.switch_to(fwd);
        b.jump(end);
        b.switch_to(end);
        b.ret(None);
        let mut f = b.finish();
        let changes = clean_function_in(
            &mut f,
            &mut FunctionAnalyses::new(),
            &mut CleanScratch::default(),
        );
        assert!(changes >= 2);
        // After nop removal B0 itself becomes a forwarder, so everything
        // collapses to the single return block.
        assert_eq!(f.blocks.len(), 1);
        assert!(matches!(
            f.block(f.entry).terminator(),
            Some(Instr::Ret { .. })
        ));
    }

    #[test]
    fn folds_same_target_branches() {
        let mut b = FunctionBuilder::new("f", 0);
        let c = b.iconst(1);
        let t = b.new_block();
        b.branch(c, t, t);
        b.switch_to(t);
        b.ret(None);
        let mut f = b.finish();
        clean_function_in(
            &mut f,
            &mut FunctionAnalyses::new(),
            &mut CleanScratch::default(),
        );
        assert!(matches!(
            f.block(f.entry).terminator(),
            Some(Instr::Jump { .. })
        ));
    }

    #[test]
    fn entry_forwarder_is_resolved() {
        let mut b = FunctionBuilder::new("f", 0);
        let real = b.new_block();
        b.jump(real);
        b.switch_to(real);
        b.ret(None);
        let mut f = b.finish();
        clean_function_in(
            &mut f,
            &mut FunctionAnalyses::new(),
            &mut CleanScratch::default(),
        );
        assert_eq!(f.blocks.len(), 1);
        assert!(matches!(
            f.block(f.entry).terminator(),
            Some(Instr::Ret { .. })
        ));
    }

    #[test]
    fn self_loop_jump_is_kept() {
        // A single-block infinite loop must not be threaded into nothing.
        let mut b = FunctionBuilder::new("f", 0);
        let l = b.new_block();
        b.jump(l);
        b.switch_to(l);
        b.jump(l);
        let mut f = b.finish();
        clean_function_in(
            &mut f,
            &mut FunctionAnalyses::new(),
            &mut CleanScratch::default(),
        );
        let m = {
            let mut m = Module::new();
            m.add_func(f);
            m
        };
        ir::validate(&m).expect("still valid");
    }
}
