//! Pruned SSA construction (Cytron et al.).
//!
//! φ-functions are placed at the iterated dominance frontiers of each
//! register's definition sites, *pruned* by liveness (no φ for a value
//! dead at the join), then definitions are renamed along a dominator-tree
//! walk. Parameters are treated as definitions at the entry; a use
//! reachable by no definition renames to a fresh never-defined register
//! (matching the original program's read-of-uninitialized behaviour).

use cfg::{Cfg, DomTree, FunctionAnalyses};
use ir::{BlockId, Function, Instr, Reg};
use std::collections::{BTreeMap, BTreeSet};
use trace::FuncTrace;

/// Records how construction renamed things, for consumers that need to
/// map SSA names back to the original registers.
#[derive(Debug, Clone)]
pub struct SsaMap {
    /// For every register of the SSA form: the original register it
    /// versions (identity for registers untouched by renaming).
    pub origin: Vec<Reg>,
}

impl SsaMap {
    /// The original register behind an SSA name.
    pub fn origin_of(&self, r: Reg) -> Reg {
        self.origin.get(r.index()).copied().unwrap_or(r)
    }
}

/// Converts `func` to pruned SSA form in place. The CFG, dominator tree,
/// and liveness are taken from (and on a warm cache, reused out of)
/// `analyses`; the φ-insertion and renaming are reported as a body-tier
/// change. When `tr` is enabled an `ssa-construct` delta is recorded (φ
/// insertion shows up as negative `instrs_removed`).
///
/// # Panics
///
/// Panics if the function already contains φ-nodes.
pub fn construct(
    func: &mut Function,
    analyses: &mut FunctionAnalyses,
    tr: &mut FuncTrace,
) -> SsaMap {
    tr.record_delta(
        "ssa-construct",
        func,
        |f| f.body_stats().into(),
        |f, _| construct_in(f, analyses),
        |_| false,
    )
}

/// The body of [`construct`].
fn construct_in(func: &mut Function, analyses: &mut FunctionAnalyses) -> SsaMap {
    assert!(
        !func
            .blocks
            .iter()
            .any(|b| b.instrs.iter().any(|i| matches!(i, Instr::Phi { .. }))),
        "function is already in SSA form"
    );
    let (cfg, dom, live) = analyses.cfg_dom_liveness(func);
    let df = dom.dominance_frontiers(cfg);
    let nregs = func.next_reg as usize;

    // Definition sites per register (entry counts for parameters).
    let mut def_blocks: Vec<BTreeSet<BlockId>> = vec![BTreeSet::new(); nregs];
    for defs in &mut def_blocks[..func.arity] {
        defs.insert(func.entry);
    }
    for bid in func.block_ids() {
        for instr in &func.block(bid).instrs {
            if let Some(d) = instr.def() {
                def_blocks[d.index()].insert(bid);
            }
        }
    }

    // φ placement at iterated dominance frontiers, pruned by liveness.
    // phis[b] = set of original registers needing a φ at b.
    let mut phis: Vec<BTreeSet<Reg>> = vec![BTreeSet::new(); func.blocks.len()];
    for (r, defs) in def_blocks.iter().enumerate() {
        if defs.is_empty() {
            continue;
        }
        let reg = Reg(r as u32);
        let mut work: Vec<BlockId> = defs.iter().copied().collect();
        let mut placed: BTreeSet<BlockId> = BTreeSet::new();
        while let Some(b) = work.pop() {
            for &f in &df[b.index()] {
                if !cfg.is_reachable(f) || placed.contains(&f) {
                    continue;
                }
                // Pruned: only where the value is live-in.
                if !live.live_in[f.index()].contains(reg) {
                    continue;
                }
                placed.insert(f);
                phis[f.index()].insert(reg);
                if !defs.contains(&f) {
                    work.push(f);
                }
            }
        }
    }
    // Materialize φ instructions (dst filled during renaming; start with
    // the original register as a placeholder).
    for bid in func.block_ids() {
        let list: Vec<Reg> = phis[bid.index()].iter().copied().collect();
        for (k, r) in list.into_iter().enumerate() {
            func.block_mut(bid).instrs.insert(
                k,
                Instr::Phi {
                    dst: r,
                    args: Vec::new(),
                },
            );
        }
    }

    // Renaming along the dominator tree.
    let origin: Vec<Reg> = (0..func.next_reg).map(Reg).collect();
    let mut stacks: Vec<Vec<Reg>> = vec![Vec::new(); nregs];
    // Parameters enter with their own names.
    for (p, stack) in stacks[..func.arity].iter_mut().enumerate() {
        stack.push(Reg(p as u32));
    }
    // A shared "undefined" name per original register, created on demand.
    let undef: BTreeMap<Reg, Reg> = BTreeMap::new();

    struct Renamer<'a> {
        func: &'a mut Function,
        cfg: &'a Cfg,
        dom: &'a DomTree,
        stacks: Vec<Vec<Reg>>,
        origin: Vec<Reg>,
        undef: BTreeMap<Reg, Reg>,
        phi_orig: Vec<Vec<Reg>>, // original register of each φ in a block
    }

    impl Renamer<'_> {
        fn fresh(&mut self, orig: Reg) -> Reg {
            let r = Reg(self.func.next_reg);
            self.func.next_reg += 1;
            self.origin.push(orig);
            r
        }

        fn top(&mut self, orig: Reg) -> Reg {
            if let Some(&t) = self.stacks[orig.index()].last() {
                return t;
            }
            if let Some(&u) = self.undef.get(&orig) {
                return u;
            }
            let u = self.fresh(orig);
            self.undef.insert(orig, u);
            u
        }

        fn rename_block(&mut self, b: BlockId) {
            let mut pushed: Vec<Reg> = Vec::new();
            // φ defs first.
            let phi_count = self.phi_orig[b.index()].len();
            for k in 0..phi_count {
                let orig = self.phi_orig[b.index()][k];
                let new = self.fresh(orig);
                if let Instr::Phi { dst, .. } = &mut self.func.blocks[b.index()].instrs[k] {
                    *dst = new;
                }
                self.stacks[orig.index()].push(new);
                pushed.push(orig);
            }
            // Ordinary instructions.
            let len = self.func.blocks[b.index()].instrs.len();
            for i in phi_count..len {
                // Uses first (reading the pre-instruction state)...
                let mut instr =
                    std::mem::replace(&mut self.func.blocks[b.index()].instrs[i], Instr::Nop);
                let mut use_map: Vec<(Reg, Reg)> = Vec::new();
                instr.visit_uses(|r| use_map.push((r, Reg(0))));
                for (orig, new) in &mut use_map {
                    *new = self.top(*orig);
                }
                let mut idx = 0;
                instr.visit_uses_mut(|r| {
                    *r = use_map[idx].1;
                    idx += 1;
                });
                // ...then the definition.
                if let Some(d) = instr.def() {
                    let new = self.fresh(d);
                    *instr.def_mut().expect("def exists") = new;
                    self.stacks[d.index()].push(new);
                    pushed.push(d);
                }
                self.func.blocks[b.index()].instrs[i] = instr;
            }
            // Fill φ arguments of successors.
            for &s in &self.cfg.succs[b.index()] {
                for k in 0..self.phi_orig[s.index()].len() {
                    let orig = self.phi_orig[s.index()][k];
                    let incoming = self.top(orig);
                    if let Instr::Phi { args, .. } = &mut self.func.blocks[s.index()].instrs[k] {
                        args.push((b, incoming));
                    }
                }
            }
            // Recurse over dominator-tree children.
            let children = self.dom.children[b.index()].clone();
            for c in children {
                if self.cfg.is_reachable(c) {
                    self.rename_block(c);
                }
            }
            // Pop this block's definitions.
            for orig in pushed.into_iter().rev() {
                self.stacks[orig.index()].pop();
            }
        }
    }

    let phi_orig: Vec<Vec<Reg>> = phis.iter().map(|s| s.iter().copied().collect()).collect();
    let mut renamer = Renamer {
        func,
        cfg,
        dom,
        stacks,
        origin,
        undef,
        phi_orig,
    };
    renamer.rename_block(cfg.entry);
    let origin = renamer.origin;
    // φ insertion and renaming rewrite instructions and mint registers but
    // leave every edge alone.
    analyses.note_body_changed();
    SsaMap { origin }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::verify::verify_ssa;
    use ir::{BinOp, CmpOp, FunctionBuilder};

    fn loop_function() -> Function {
        // i = 0; while (i < 10) i = i + 1; return i;
        let mut b = FunctionBuilder::new("f", 0);
        let i = b.iconst(0);
        let header = b.new_block();
        let body = b.new_block();
        let exit = b.new_block();
        b.jump(header);
        b.switch_to(header);
        let ten = b.iconst(10);
        let c = b.cmp(CmpOp::Lt, i, ten);
        b.branch(c, body, exit);
        b.switch_to(body);
        let one = b.iconst(1);
        b.emit(Instr::Binary {
            op: BinOp::Add,
            dst: i,
            lhs: i,
            rhs: one,
        });
        b.jump(header);
        b.switch_to(exit);
        b.ret(Some(i));
        let mut f = b.finish();
        f.has_result = true;
        f
    }

    #[test]
    fn loop_variable_gets_a_phi() {
        let mut f = loop_function();
        construct(&mut f, &mut FunctionAnalyses::new(), &mut FuncTrace::off());
        verify_ssa(&f).expect("valid SSA");
        let phis: usize = f
            .blocks
            .iter()
            .map(|b| {
                b.instrs
                    .iter()
                    .filter(|i| matches!(i, Instr::Phi { .. }))
                    .count()
            })
            .sum();
        assert_eq!(phis, 1, "exactly one phi, for the loop counter");
    }

    #[test]
    fn behaviour_preserved_by_construction() {
        let mut f = loop_function();
        let mut m0 = ir::Module::new();
        m0.add_func(f.clone());
        let before = vm::Vm::run_main(
            &{
                let mut m = ir::Module::new();
                let mut main = f.clone();
                main.name = "main".into();
                m.add_func(main);
                m
            },
            vm::VmOptions::default(),
        );
        construct(&mut f, &mut FunctionAnalyses::new(), &mut FuncTrace::off());
        let mut m = ir::Module::new();
        f.name = "main".into();
        m.add_func(f);
        ir::validate(&m).expect("valid IL");
        let after = vm::Vm::run_main(&m, vm::VmOptions::default());
        assert_eq!(before.expect("runs").result, after.expect("runs").result);
    }

    #[test]
    fn origins_track_versions() {
        let mut f = loop_function();
        let map = construct(&mut f, &mut FunctionAnalyses::new(), &mut FuncTrace::off());
        // Every register's origin is within the original register space.
        for r in 0..f.next_reg {
            let o = map.origin_of(Reg(r));
            assert!(o.0 <= r);
        }
    }

    #[test]
    fn diamond_join_gets_phi_only_if_live() {
        // x defined in both arms, read after the join -> one phi.
        // y defined in both arms, never read -> pruned, no phi.
        let mut b = FunctionBuilder::new("main", 0);
        let c = b.iconst(0);
        let t = b.new_block();
        let e = b.new_block();
        let j = b.new_block();
        let x = b.new_reg();
        let y = b.new_reg();
        b.branch(c, t, e);
        b.switch_to(t);
        b.emit(Instr::IConst { dst: x, value: 1 });
        b.emit(Instr::IConst { dst: y, value: 10 });
        b.jump(j);
        b.switch_to(e);
        b.emit(Instr::IConst { dst: x, value: 2 });
        b.emit(Instr::IConst { dst: y, value: 20 });
        b.jump(j);
        b.switch_to(j);
        b.ret(Some(x));
        let mut f = b.finish();
        f.has_result = true;
        construct(&mut f, &mut FunctionAnalyses::new(), &mut FuncTrace::off());
        verify_ssa(&f).expect("valid SSA");
        let phis: usize = f
            .blocks
            .iter()
            .map(|bl| {
                bl.instrs
                    .iter()
                    .filter(|i| matches!(i, Instr::Phi { .. }))
                    .count()
            })
            .sum();
        assert_eq!(phis, 1, "y's phi is pruned");
    }
}
