//! Steensgaard-style unification-based points-to analysis.
//!
//! The paper's related-work section cites Steensgaard's almost-linear-time
//! flow-insensitive analysis; we implement it as an **ablation level**
//! between plain MOD/REF and the inclusion-based points-to analysis, to
//! measure how much promotion benefit each notch of precision buys.

use ir::{Callee, DenseTagSet, FuncId, Instr, Module, Reg, TagId};
use std::collections::BTreeSet;

/// Union-find node index.
type Node = usize;

struct Uf {
    parent: Vec<Node>,
    /// The single points-to successor of each equivalence class.
    pts: Vec<Option<Node>>,
    /// Functions contained in each class (for indirect-call targets).
    funcs: Vec<BTreeSet<FuncId>>,
}

impl Uf {
    fn new() -> Self {
        Uf {
            parent: Vec::new(),
            pts: Vec::new(),
            funcs: Vec::new(),
        }
    }

    fn fresh(&mut self) -> Node {
        let n = self.parent.len();
        self.parent.push(n);
        self.pts.push(None);
        self.funcs.push(BTreeSet::new());
        n
    }

    fn find(&mut self, mut x: Node) -> Node {
        while self.parent[x] != x {
            self.parent[x] = self.parent[self.parent[x]];
            x = self.parent[x];
        }
        x
    }

    /// Recursively unifies two classes and their points-to successors.
    fn unify(&mut self, a: Node, b: Node) {
        let (a, b) = (self.find(a), self.find(b));
        if a == b {
            return;
        }
        self.parent[b] = a;
        let fb = std::mem::take(&mut self.funcs[b]);
        self.funcs[a].extend(fb);
        match (self.pts[a], self.pts[b]) {
            (Some(pa), Some(pb)) => self.unify(pa, pb),
            (None, Some(pb)) => self.pts[a] = Some(pb),
            _ => {}
        }
    }

    /// The points-to successor of `x`'s class, created on demand.
    fn pt(&mut self, x: Node) -> Node {
        let r = self.find(x);
        match self.pts[r] {
            Some(p) => self.find(p),
            None => {
                let p = self.fresh();
                self.pts[r] = Some(p);
                p
            }
        }
    }
}

/// The result of the unification analysis.
#[derive(Debug, Clone)]
pub struct Steensgaard {
    /// For each function and register: tags the register may address.
    reg_tags: Vec<Vec<DenseTagSet>>,
    /// For each function and register: functions the register may target.
    reg_funcs: Vec<Vec<BTreeSet<FuncId>>>,
}

impl Steensgaard {
    /// The tags register `r` of `f` may address.
    pub fn reg_tags(&self, f: FuncId, r: Reg) -> &DenseTagSet {
        &self.reg_tags[f.index()][r.index()]
    }

    /// The functions register `r` of `f` may target.
    pub fn reg_funcs(&self, f: FuncId, r: Reg) -> &BTreeSet<FuncId> {
        &self.reg_funcs[f.index()][r.index()]
    }

    /// Per-call-site indirect targets (see
    /// [`crate::SiteTargets`]).
    pub fn site_targets(&self, module: &Module) -> crate::SiteTargets {
        let mut out = crate::SiteTargets::new();
        for (fi, func) in module.funcs.iter().enumerate() {
            for block in &func.blocks {
                for instr in &block.instrs {
                    if let Instr::Call {
                        callee: Callee::Indirect(r),
                        ..
                    } = instr
                    {
                        out.insert(
                            (fi as u32, *r),
                            self.reg_funcs(FuncId(fi as u32), *r).clone(),
                        );
                    }
                }
            }
        }
        out
    }

    /// Indirect-call target sets per function.
    pub fn indirect_targets(&self, module: &Module) -> Vec<BTreeSet<FuncId>> {
        let mut out = vec![BTreeSet::new(); module.funcs.len()];
        for (fi, func) in module.funcs.iter().enumerate() {
            for block in &func.blocks {
                for instr in &block.instrs {
                    if let Instr::Call {
                        callee: Callee::Indirect(r),
                        ..
                    } = instr
                    {
                        out[fi].extend(self.reg_funcs(FuncId(fi as u32), *r).iter().copied());
                    }
                }
            }
        }
        out
    }
}

/// Runs the unification analysis.
pub fn analyze(module: &Module) -> Steensgaard {
    let mut uf = Uf::new();
    // One node per tag...
    let tag_node: Vec<Node> = (0..module.tags.len()).map(|_| uf.fresh()).collect();
    // ...and one per register of each function.
    let reg_node: Vec<Vec<Node>> = module
        .funcs
        .iter()
        .map(|f| (0..f.next_reg as usize).map(|_| uf.fresh()).collect())
        .collect();
    // Function objects get nodes so function pointers unify meaningfully.
    let func_node: Vec<Node> = (0..module.funcs.len())
        .map(|i| {
            let n = uf.fresh();
            uf.funcs[n].insert(FuncId(i as u32));
            n
        })
        .collect();

    // A single pass establishes all constraints (unification is symmetric
    // and order-independent), except indirect calls, which are iterated.
    for round in 0..3 {
        for (fi, func) in module.funcs.iter().enumerate() {
            for block in &func.blocks {
                for instr in &block.instrs {
                    match instr {
                        Instr::Lea { dst, tag } => {
                            let p = uf.pt(reg_node[fi][dst.index()]);
                            uf.unify(p, tag_node[tag.index()]);
                        }
                        Instr::Alloc { dst, site, .. } => {
                            let p = uf.pt(reg_node[fi][dst.index()]);
                            uf.unify(p, tag_node[site.index()]);
                        }
                        Instr::FuncAddr { dst, func: g } => {
                            let p = uf.pt(reg_node[fi][dst.index()]);
                            uf.unify(p, func_node[g.index()]);
                        }
                        Instr::Copy { dst, src } | Instr::Unary { dst, src, .. } => {
                            let pd = uf.pt(reg_node[fi][dst.index()]);
                            let ps = uf.pt(reg_node[fi][src.index()]);
                            uf.unify(pd, ps);
                        }
                        Instr::PtrAdd { dst, base, .. } => {
                            let pd = uf.pt(reg_node[fi][dst.index()]);
                            let ps = uf.pt(reg_node[fi][base.index()]);
                            uf.unify(pd, ps);
                        }
                        Instr::Binary { dst, lhs, rhs, .. } => {
                            let pd = uf.pt(reg_node[fi][dst.index()]);
                            let pl = uf.pt(reg_node[fi][lhs.index()]);
                            let pr = uf.pt(reg_node[fi][rhs.index()]);
                            uf.unify(pd, pl);
                            uf.unify(pd, pr);
                        }
                        Instr::Phi { dst, args } => {
                            let pd = uf.pt(reg_node[fi][dst.index()]);
                            for (_, r) in args {
                                let pr = uf.pt(reg_node[fi][r.index()]);
                                uf.unify(pd, pr);
                            }
                        }
                        Instr::SLoad { dst, tag } | Instr::CLoad { dst, tag } => {
                            // dst = *tag-cell: unify pt(dst) with pt(tag).
                            let pd = uf.pt(reg_node[fi][dst.index()]);
                            let pc = uf.pt(tag_node[tag.index()]);
                            uf.unify(pd, pc);
                        }
                        Instr::SStore { src, tag } => {
                            let ps = uf.pt(reg_node[fi][src.index()]);
                            let pc = uf.pt(tag_node[tag.index()]);
                            uf.unify(ps, pc);
                        }
                        Instr::Load { dst, addr, .. } => {
                            let pd = uf.pt(reg_node[fi][dst.index()]);
                            let pa = uf.pt(reg_node[fi][addr.index()]);
                            let ppa = uf.pt(pa);
                            uf.unify(pd, ppa);
                        }
                        Instr::Store { src, addr, .. } => {
                            let ps = uf.pt(reg_node[fi][src.index()]);
                            let pa = uf.pt(reg_node[fi][addr.index()]);
                            let ppa = uf.pt(pa);
                            uf.unify(ps, ppa);
                        }
                        Instr::Call {
                            dst, callee, args, ..
                        } => {
                            let targets: Vec<FuncId> = match callee {
                                Callee::Direct(g) => vec![*g],
                                Callee::Indirect(r) => {
                                    let p = uf.pt(reg_node[fi][r.index()]);
                                    uf.funcs[p].iter().copied().collect()
                                }
                                Callee::Intrinsic(_) => continue,
                            };
                            for g in targets {
                                let callee_fn = module.func(g);
                                for (i, a) in args.iter().enumerate().take(callee_fn.arity) {
                                    let pa = uf.pt(reg_node[fi][a.index()]);
                                    let pp = uf.pt(reg_node[g.index()][i]);
                                    uf.unify(pa, pp);
                                }
                                if let Some(d) = dst {
                                    for block in &callee_fn.blocks {
                                        if let Some(Instr::Ret { value: Some(r) }) =
                                            block.instrs.last()
                                        {
                                            let pr = uf.pt(reg_node[g.index()][r.index()]);
                                            let pd = uf.pt(reg_node[fi][d.index()]);
                                            uf.unify(pr, pd);
                                        }
                                    }
                                }
                            }
                        }
                        _ => {}
                    }
                }
            }
        }
        let _ = round;
    }

    // Read out: tags per class.
    let mut class_tags: std::collections::HashMap<Node, DenseTagSet> = Default::default();
    for (ti, &n) in tag_node.iter().enumerate() {
        let r = uf.find(n);
        class_tags.entry(r).or_default().insert(TagId(ti as u32));
    }
    let mut reg_tags = Vec::with_capacity(module.funcs.len());
    let mut reg_funcs = Vec::with_capacity(module.funcs.len());
    for (fi, func) in module.funcs.iter().enumerate() {
        let mut tags_row = Vec::with_capacity(func.next_reg as usize);
        let mut funcs_row = Vec::with_capacity(func.next_reg as usize);
        for &node in &reg_node[fi][..func.next_reg as usize] {
            let root = uf.find(node);
            match uf.pts[root] {
                Some(p) => {
                    let pr = uf.find(p);
                    tags_row.push(class_tags.get(&pr).cloned().unwrap_or_default());
                    funcs_row.push(uf.funcs[pr].clone());
                }
                None => {
                    tags_row.push(DenseTagSet::new());
                    funcs_row.push(BTreeSet::new());
                }
            }
        }
        reg_tags.push(tags_row);
        reg_funcs.push(funcs_row);
    }
    Steensgaard {
        reg_tags,
        reg_funcs,
    }
}

/// Shrinks pointer-op tag sets with the unification results (same contract
/// as [`crate::points_to::apply`]).
pub fn apply(module: &mut Module, st: &Steensgaard) {
    for fi in 0..module.funcs.len() {
        let f = FuncId(fi as u32);
        for bi in 0..module.funcs[fi].blocks.len() {
            for ii in 0..module.funcs[fi].blocks[bi].instrs.len() {
                let instr = &module.funcs[fi].blocks[bi].instrs[ii];
                let (addr, old) = match instr {
                    Instr::Load { addr, tags, .. } | Instr::Store { addr, tags, .. } => {
                        (*addr, tags.clone())
                    }
                    _ => continue,
                };
                let pts = st.reg_tags(f, addr);
                if pts.is_empty() {
                    continue;
                }
                let new = old.intersect_universe(pts);
                match &mut module.funcs[fi].blocks[bi].instrs[ii] {
                    Instr::Load { tags, .. } | Instr::Store { tags, .. } => *tags = new,
                    _ => unreachable!(),
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn compile(src: &str) -> Module {
        minic::compile(src).expect("compile")
    }

    #[test]
    fn unification_merges_where_inclusion_would_not() {
        // p points to x then q = p; q also reassigned to &y. Unification
        // collapses {x, y} into one class for *both* p and q; the
        // inclusion-based analysis keeps p = {x}.
        let m = compile(
            r#"
int main() {
    int x = 0;
    int y = 0;
    int *p = &x;
    int *q = p;
    q = &y;
    *p = 1;
    return x + y;
}
"#,
        );
        let st = analyze(&m);
        let main = m.main().unwrap();
        // Find the register used by the store through p.
        let f = m.func(main);
        let addr = f
            .blocks
            .iter()
            .flat_map(|b| &b.instrs)
            .find_map(|i| match i {
                Instr::Store { addr, .. } => Some(*addr),
                _ => None,
            })
            .expect("store");
        let tags = st.reg_tags(main, addr);
        let x = m.tags.lookup("main.x").unwrap();
        let y = m.tags.lookup("main.y").unwrap();
        assert!(
            tags.contains(x) && tags.contains(y),
            "unification merges x and y"
        );

        // The inclusion-based analysis is strictly more precise here.
        let pt = crate::points_to::analyze(&m);
        let precise = pt.reg_tags(main, addr);
        assert!(precise.contains(x));
        assert!(!precise.contains(y));
    }

    #[test]
    fn still_separates_unrelated_pointers() {
        let m = compile(
            r#"
int main() {
    int x = 0;
    int y = 0;
    int *p = &x;
    int *q = &y;
    *p = 1;
    *q = 2;
    return x + y;
}
"#,
        );
        let st = analyze(&m);
        let main = m.main().unwrap();
        let f = m.func(main);
        let addrs: Vec<Reg> = f
            .blocks
            .iter()
            .flat_map(|b| &b.instrs)
            .filter_map(|i| match i {
                Instr::Store { addr, .. } => Some(*addr),
                _ => None,
            })
            .collect();
        let x = m.tags.lookup("main.x").unwrap();
        let y = m.tags.lookup("main.y").unwrap();
        assert!(st.reg_tags(main, addrs[0]).contains(x));
        assert!(!st.reg_tags(main, addrs[0]).contains(y));
        assert!(st.reg_tags(main, addrs[1]).contains(y));
    }

    #[test]
    fn function_pointer_targets() {
        let m = compile(
            r#"
int a(int x) { return x; }
int b(int x) { return x; }
int main() {
    func f = a;
    return f(1);
}
"#,
        );
        let st = analyze(&m);
        let targets = st.indirect_targets(&m);
        let main = m.main().unwrap();
        assert!(targets[main.index()].contains(&m.lookup_func("a").unwrap()));
        assert!(!targets[main.index()].contains(&m.lookup_func("b").unwrap()));
    }
}
