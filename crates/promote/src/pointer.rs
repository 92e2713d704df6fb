//! Pointer-based register promotion (§3.3 of the paper).
//!
//! Finds memory references whose base register is **loop-invariant** and
//! where *all* accesses in the loop to the referenced tags go through that
//! one base register. Such a location is a single run-time cell for the
//! duration of the loop even though its tag may name many cells (an array
//! element like `B[i]` in the paper's Figure 3), so it is promoted with the
//! same load-before / copy-inside / store-after rewriting as a scalar.
//!
//! The transformation relies on loop-invariant code motion having hoisted
//! the base-address computation out of the loop; the driver therefore runs
//! it after LICM.

use cfg::{FunctionAnalyses, LoopId};
use ir::{Function, Instr, Reg, TagSet};
use std::collections::{BTreeMap, BTreeSet};
use trace::{FuncTrace, LoopRef, Remark};

/// What pointer-based promotion did to one function.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct PointerReport {
    /// Base registers promoted.
    pub promoted_bases: usize,
    /// References rewritten to copies.
    pub rewritten_refs: usize,
    /// Lift loads/stores inserted.
    pub lifts: usize,
}

/// The pipeline entry point: runs pointer-based promotion on one
/// normalized function. Entirely function-local, so the parallel pipeline
/// can fan it out across functions. When `tr` is enabled, records one
/// [`Remark::PointerPromoted`] per promoted base register plus a
/// `pointer-promote` delta covering the rewrite.
pub fn promote_pointers_in_func(
    func: &mut Function,
    analyses: &mut FunctionAnalyses,
    tr: &mut FuncTrace,
) -> PointerReport {
    tr.record_delta(
        "pointer-promote",
        func,
        |f| f.body_stats().into(),
        |func, tr| promote_pointers_in_func_inner(func, analyses, tr),
        |_| false,
    )
}

fn promote_pointers_in_func_inner(
    func: &mut Function,
    analyses: &mut FunctionAnalyses,
    tr: &mut FuncTrace,
) -> PointerReport {
    let mut report = PointerReport::default();
    let (_, forest, geom) = analyses.loop_view(func);
    if forest.is_empty() {
        return report;
    }
    // Registers defined in each loop (for invariance checks).
    let mut defs_in_loop: Vec<BTreeSet<Reg>> = vec![BTreeSet::new(); forest.len()];
    for (li, l) in forest.loops.iter().enumerate() {
        for &b in &l.blocks {
            for instr in &func.blocks[b.index()].instrs {
                if let Some(d) = instr.def() {
                    defs_in_loop[li].insert(d);
                }
            }
        }
    }
    // Innermost-first, find candidate base registers per loop.
    #[derive(Default)]
    struct Candidate {
        tags: TagSet,
        loads: Vec<(usize, usize)>,
        stores: Vec<(usize, usize)>,
        viable: bool,
    }
    let mut planned: Vec<(LoopId, Reg, TagSet, bool, Reg)> = Vec::new();
    let mut rewrites: Vec<(usize, usize, Reg, bool)> = Vec::new(); // (block, instr, v, is_store)
                                                                   // Tags already promoted in an enclosing pass of this loop walk — avoid
                                                                   // double promotion of overlapping candidates.
    let mut claimed_tags: BTreeSet<ir::TagId> = BTreeSet::new();
    let mut claimed_blocks: BTreeSet<(usize, usize)> = BTreeSet::new();
    for li in forest.inner_to_outer() {
        let l = &forest.loops[li.index()];
        let mut cands: BTreeMap<Reg, Candidate> = BTreeMap::new();
        // Gather pointer ops by base register; track every tag touched in
        // the loop by other means.
        let mut other_touched = TagSet::empty();
        for &b in &l.blocks {
            for (ii, instr) in func.blocks[b.index()].instrs.iter().enumerate() {
                match instr {
                    Instr::Load { addr, tags, .. } | Instr::Store { addr, tags, .. } => {
                        let invariant = !defs_in_loop[li.index()].contains(addr);
                        let entry = cands.entry(*addr).or_insert_with(|| Candidate {
                            tags: TagSet::empty(),
                            loads: Vec::new(),
                            stores: Vec::new(),
                            viable: true,
                        });
                        entry.viable &= invariant && !tags.is_all();
                        entry.tags.union_with(tags);
                        if matches!(instr, Instr::Load { .. }) {
                            entry.loads.push((b.index(), ii));
                        } else {
                            entry.stores.push((b.index(), ii));
                        }
                    }
                    Instr::SLoad { tag, .. }
                    | Instr::SStore { tag, .. }
                    | Instr::CLoad { tag, .. } => {
                        other_touched.insert(*tag);
                    }
                    Instr::Call { mods, refs, .. } => {
                        other_touched.union_with(mods);
                        other_touched.union_with(refs);
                    }
                    _ => {}
                }
            }
        }
        for (base, cand) in cands {
            if !cand.viable || cand.tags.is_empty() {
                continue;
            }
            // Every access to the candidate's tags must go through `base`:
            // (a) no explicit op or call touches them, and (b) no *other*
            // pointer op's tag set intersects them.
            if other_touched.is_all() {
                continue;
            }
            let tags: BTreeSet<_> = cand.tags.iter().collect();
            if tags
                .iter()
                .any(|&t| other_touched.contains(t) || claimed_tags.contains(&t))
            {
                continue;
            }
            let mut conflicting = false;
            for &b in &l.blocks {
                for instr in &func.blocks[b.index()].instrs {
                    if let Instr::Load { addr, tags: ts, .. }
                    | Instr::Store { addr, tags: ts, .. } = instr
                    {
                        if *addr != base && (ts.is_all() || tags.iter().any(|&t| ts.contains(t))) {
                            conflicting = true;
                        }
                    }
                }
            }
            if conflicting {
                continue;
            }
            // Skip references already rewritten for an inner loop.
            if cand
                .loads
                .iter()
                .chain(&cand.stores)
                .any(|k| claimed_blocks.contains(k))
            {
                continue;
            }
            // Viable: allocate the register and plan the rewrite.
            let v = func.new_reg();
            let has_store = !cand.stores.is_empty();
            for &(b, i) in &cand.loads {
                rewrites.push((b, i, v, false));
                claimed_blocks.insert((b, i));
            }
            for &(b, i) in &cand.stores {
                rewrites.push((b, i, v, true));
                claimed_blocks.insert((b, i));
            }
            report.rewritten_refs += cand.loads.len() + cand.stores.len();
            claimed_tags.extend(tags.iter().copied());
            planned.push((li, base, cand.tags.clone(), has_store, v));
            report.promoted_bases += 1;
        }
    }
    // Apply reference rewrites.
    for (b, i, v, _is_store) in rewrites {
        let old = func.blocks[b].instrs[i].clone();
        func.blocks[b].instrs[i] = match old {
            Instr::Load { dst, .. } => Instr::Copy { dst, src: v },
            Instr::Store { src, .. } => Instr::Copy { dst: v, src },
            _ => unreachable!("planned rewrite targets a memory op"),
        };
    }
    if tr.enabled() {
        for &(li, base, _, _, _) in &planned {
            let l = &forest.loops[li.index()];
            tr.remark(
                "pointer-promote",
                Remark::PointerPromoted {
                    base_reg: base.0,
                    in_loop: LoopRef {
                        header: l.header.0,
                        depth: l.depth as u32,
                    },
                },
            );
        }
    }
    // Insert lifts.
    for (li, base, tags, has_store, v) in planned {
        let pad = geom.landing_pad(li);
        func.block_mut(pad).insert_before_terminator(Instr::Load {
            dst: v,
            addr: base,
            tags: tags.clone(),
        });
        report.lifts += 1;
        if has_store {
            for &e in geom.exits(li) {
                func.blocks[e.index()].instrs.insert(
                    0,
                    Instr::Store {
                        src: v,
                        addr: base,
                        tags: tags.clone(),
                    },
                );
                report.lifts += 1;
            }
        }
    }
    // Same tier as scalar promotion: instruction-level rewrites only.
    if report.rewritten_refs > 0 || report.lifts > 0 {
        analyses.note_body_changed();
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use ir::Module;
    use vm::{Vm, VmOptions};

    fn prepare(src: &str) -> Module {
        let mut m = minic::compile(src).expect("compile");
        for fi in 0..m.funcs.len() {
            cfg::normalize_loops(&mut m.funcs[fi]);
        }
        analysis::analyze(&mut m, analysis::AnalysisLevel::PointsTo);
        m
    }

    fn promote_pointers(m: &mut Module) -> PointerReport {
        let opts = crate::PromotionOptions {
            scalar: false,
            pointer_based: true,
            ..Default::default()
        };
        crate::promote_module(m, &opts).pointer
    }

    #[test]
    fn figure3_kernel_promotes_row_element() {
        // B[i] += A[i][j]: after LICM-like shaping, &B[i] is invariant in
        // the inner loop. Here we hand-shape the base hoisting with a
        // pointer variable to make the base register loop-invariant.
        let src = r#"
int A[8][8];
int B[8];
int main() {
    int i; int j;
    for (i = 0; i < 8; i++)
        for (j = 0; j < 8; j++)
            A[i][j] = i + j;
    for (i = 0; i < 8; i++) {
        int *p = &B[i];
        *p = 0;
        for (j = 0; j < 8; j++) {
            *p += A[i][j];
        }
    }
    print_int(B[3]);
    print_int(B[7]);
    return 0;
}
"#;
        let mut m = prepare(src);
        let before = Vm::run_main(&m, VmOptions::default()).unwrap();
        let report = promote_pointers(&mut m);
        ir::validate(&m).expect("valid");
        let after = Vm::run_main(&m, VmOptions::default()).unwrap();
        assert_eq!(after.output, before.output);
        assert_eq!(after.output, vec!["52", "84"]);
        assert!(report.promoted_bases >= 1, "report: {report:?}");
        // The inner-loop load+store of *p (8 iterations × 8 rows × 2 ops)
        // collapse to copies.
        // 64 inner-loop stores through p collapse to 8 demotion stores.
        assert!(
            after.counts.stores + 50 <= before.counts.stores,
            "stores {} -> {}",
            before.counts.stores,
            after.counts.stores
        );
    }

    #[test]
    fn varying_base_is_not_promoted() {
        let src = r#"
int B[8];
int main() {
    int i;
    int *p = B;
    for (i = 0; i < 8; i++) {
        *p = i;
        p = p + 1;
    }
    print_int(B[5]);
    return 0;
}
"#;
        let mut m = prepare(src);
        let before = Vm::run_main(&m, VmOptions::default()).unwrap();
        let report = promote_pointers(&mut m);
        ir::validate(&m).unwrap();
        let after = Vm::run_main(&m, VmOptions::default()).unwrap();
        assert_eq!(after.output, before.output);
        assert_eq!(report.promoted_bases, 0);
        assert_eq!(after.counts.stores, before.counts.stores);
    }

    #[test]
    fn interfering_access_blocks_promotion() {
        // B[0] is written through p but also read directly as B[j] in the
        // loop: the tags collide, so no promotion.
        let src = r#"
int B[8];
int main() {
    int j;
    int *p = &B[0];
    int s = 0;
    for (j = 0; j < 8; j++) {
        *p = *p + 1;
        s += B[j];
    }
    print_int(s);
    return 0;
}
"#;
        let mut m = prepare(src);
        let before = Vm::run_main(&m, VmOptions::default()).unwrap();
        let report = promote_pointers(&mut m);
        ir::validate(&m).unwrap();
        let after = Vm::run_main(&m, VmOptions::default()).unwrap();
        assert_eq!(after.output, before.output);
        assert_eq!(report.promoted_bases, 0);
    }

    #[test]
    fn load_only_reference_skips_demotion_stores() {
        let src = r#"
int B[4] = {5, 6, 7, 8};
int main() {
    int j;
    int *p = &B[2];
    int s = 0;
    for (j = 0; j < 100; j++) {
        s += *p;
    }
    print_int(s);
    return 0;
}
"#;
        let mut m = prepare(src);
        let before = Vm::run_main(&m, VmOptions::default()).unwrap();
        let report = promote_pointers(&mut m);
        ir::validate(&m).unwrap();
        let after = Vm::run_main(&m, VmOptions::default()).unwrap();
        assert_eq!(after.output, before.output);
        assert_eq!(after.output, vec!["700"]);
        assert!(report.promoted_bases >= 1);
        // 100 loads collapse to 1; no stores are introduced.
        assert!(after.counts.loads + 90 <= before.counts.loads);
        assert_eq!(after.counts.stores, before.counts.stores);
    }

    #[test]
    fn call_touching_tags_blocks_promotion() {
        let src = r#"
int B[4];
void poke() { B[0] = B[0] + 1; }
int main() {
    int j;
    int *p = &B[0];
    for (j = 0; j < 10; j++) {
        *p = *p + 1;
        poke();
    }
    print_int(B[0]);
    return 0;
}
"#;
        let mut m = prepare(src);
        let before = Vm::run_main(&m, VmOptions::default()).unwrap();
        let report = promote_pointers(&mut m);
        ir::validate(&m).unwrap();
        let after = Vm::run_main(&m, VmOptions::default()).unwrap();
        assert_eq!(after.output, before.output);
        assert_eq!(after.output, vec!["20"]);
        assert_eq!(report.promoted_bases, 0);
    }
}
