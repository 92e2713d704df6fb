//! A version-keyed cache of per-function analysis artifacts.
//!
//! Every pass in the fused pipeline chain needs some subset of {CFG,
//! dominator tree, loop forest, loop geometry, liveness}, and most passes
//! change nothing that would invalidate them. [`FunctionAnalyses`] owns one
//! lazily-built copy of each artifact and two monotonic version counters:
//!
//! * `shape_version` advances when the *edge structure* changes (blocks
//!   added/removed/retargeted). The CFG, dominator tree, loop forest, and
//!   loop geometry are all keyed on it.
//! * `body_version` advances on **any** change, including instruction-only
//!   rewrites that leave the edges alone. Liveness is keyed on it (register
//!   uses/defs move without the CFG moving).
//!
//! Passes report what they changed through [`note_body_changed`] /
//! [`note_shape_changed`]; a pass that changed nothing reports nothing and
//! every downstream consumer gets cache hits. The [`BuildCounts`] ledger
//! records how many times each artifact was actually constructed — the
//! pipeline surfaces it so rebuild-per-pass regressions show up as a
//! counter jump rather than a vague slowdown.
//!
//! [`note_body_changed`]: FunctionAnalyses::note_body_changed
//! [`note_shape_changed`]: FunctionAnalyses::note_shape_changed

use crate::dataflow::DataflowStats;
use crate::dom::{DomScratch, DomTree};
use crate::graph::Cfg;
use crate::liveness::{
    liveness_dense_stats, liveness_sparse_into, LiveScratch, LiveSummaries, Liveness,
};
use crate::loops::{LoopForest, LoopId};
use ir::{BlockId, Function};
use std::collections::BTreeSet;

/// How many times each artifact was built through one [`FunctionAnalyses`]
/// (or, summed, through a whole pipeline run).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct BuildCounts {
    /// CFG constructions.
    pub cfg: u64,
    /// Dominator-tree constructions.
    pub dom: u64,
    /// Loop-forest constructions.
    pub forest: u64,
    /// Loop-geometry (landing pad / exit set) extractions.
    pub geometry: u64,
    /// Liveness solves.
    pub liveness: u64,
}

impl BuildCounts {
    /// Sum over all artifact kinds.
    pub fn total(&self) -> u64 {
        self.cfg + self.dom + self.forest + self.geometry + self.liveness
    }

    /// Accumulates `other` into `self`.
    pub fn add(&mut self, other: &BuildCounts) {
        self.cfg += other.cfg;
        self.dom += other.dom;
        self.forest += other.forest;
        self.geometry += other.geometry;
        self.liveness += other.liveness;
    }
}

/// Landing pads and dedicated exit blocks per loop — the part of the
/// normalized shape that promotion and LICM consume.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LoopGeometry {
    /// Landing pad per loop, indexed by [`LoopId`].
    pub landing_pads: Vec<BlockId>,
    /// Dedicated exit blocks per loop, indexed by [`LoopId`].
    pub exit_blocks: Vec<BTreeSet<BlockId>>,
}

impl LoopGeometry {
    /// Extracts the landing pads and exit sets of a function already
    /// processed by [`crate::normalize_loops`].
    ///
    /// # Panics
    ///
    /// Panics if some loop lacks a unique landing pad or a dedicated exit
    /// block, i.e. if the function was not normalized.
    pub fn compute(cfg: &Cfg, forest: &LoopForest) -> LoopGeometry {
        let mut out = LoopGeometry {
            landing_pads: Vec::new(),
            exit_blocks: Vec::new(),
        };
        LoopGeometry::compute_into(cfg, forest, &mut out);
        out
    }

    /// [`compute`](Self::compute) writing into an existing geometry,
    /// reusing its per-loop vectors — the reduced-allocation rebuild path
    /// for a warm analysis shell.
    ///
    /// # Panics
    ///
    /// As [`compute`](Self::compute).
    pub fn compute_into(cfg: &Cfg, forest: &LoopForest, out: &mut LoopGeometry) {
        out.landing_pads.clear();
        out.landing_pads.reserve(forest.len());
        out.exit_blocks.clear();
        out.exit_blocks.reserve(forest.len());
        for l in &forest.loops {
            let mut outside = None;
            let mut n_outside = 0;
            for &p in &cfg.preds[l.header.index()] {
                if cfg.is_reachable(p) && !l.contains(p) {
                    n_outside += 1;
                    outside = Some(p);
                }
            }
            assert_eq!(
                n_outside, 1,
                "loop at {} lacks a unique landing pad; run normalize_loops first",
                l.header
            );
            out.landing_pads.push(outside.expect("counted above"));
            let mut exits = BTreeSet::new();
            for &(_, t) in &l.exit_edges {
                assert!(
                    cfg.preds[t.index()]
                        .iter()
                        .all(|p| !cfg.is_reachable(*p) || l.contains(*p)),
                    "exit block {t} shared with non-loop predecessors"
                );
                exits.insert(t);
            }
            out.exit_blocks.push(exits);
        }
    }

    /// The landing pad of `l`.
    pub fn landing_pad(&self, l: LoopId) -> BlockId {
        self.landing_pads[l.index()]
    }

    /// The dedicated exit blocks of `l`.
    pub fn exits(&self, l: LoopId) -> &BTreeSet<BlockId> {
        &self.exit_blocks[l.index()]
    }
}

/// The version-keyed analysis cache for one function body. See the module
/// docs for the invalidation tiers.
///
/// Accessors take the function and return references borrowed from the
/// cache (never from the function), so a pass can hold an artifact while
/// mutating the body — exactly the snapshot discipline the passes already
/// used — and report the mutation afterwards.
#[derive(Debug, Default)]
pub struct FunctionAnalyses {
    shape_version: u64,
    body_version: u64,
    cfg: Option<(u64, Cfg)>,
    dom: Option<(u64, DomTree)>,
    forest: Option<(u64, LoopForest)>,
    geometry: Option<(u64, LoopGeometry)>,
    live: Option<(u64, Liveness)>,
    /// Per-block use/def summaries kept across liveness rebuilds; only
    /// blocks named dirty since the last solve are rescanned.
    live_summaries: LiveSummaries,
    /// Which blocks changed since `live_summaries` was last scanned.
    dirty: DirtyBlocks,
    /// Reusable Lengauer–Tarjan working memory for dominator rebuilds.
    dom_scratch: DomScratch,
    /// Reusable worklist + candidate-set memory for liveness solves.
    live_scratch: LiveScratch,
    /// When true, liveness uses the dense sweep solver (the differential
    /// tests' reference) instead of the sparse worklist.
    dense_dataflow: bool,
    /// Ledger of artifact constructions performed through this cache.
    pub builds: BuildCounts,
    /// Ledger of solver work performed through this cache. Passes that run
    /// their own worklist solvers (constprop, loadelim, dce) accumulate
    /// into it alongside the liveness solves done here.
    pub dataflow: DataflowStats,
}

/// Dirty-block tracking for the liveness summary cache.
#[derive(Debug, Default)]
enum DirtyBlocks {
    /// Everything must be rescanned (the conservative default).
    #[default]
    All,
    /// Only these block indices changed since the last scan.
    Blocks(BTreeSet<usize>),
}

impl FunctionAnalyses {
    /// An empty cache (every first access builds).
    pub fn new() -> FunctionAnalyses {
        FunctionAnalyses::default()
    }

    /// The current body version. Advances on every reported change; callers
    /// keeping derived structures (e.g. the allocator's interference graph)
    /// key them on this.
    pub fn body_version(&self) -> u64 {
        self.body_version
    }

    /// Report an instruction-level change that left the edge structure
    /// intact (operand rewrites, instruction insertion/removal/motion).
    /// Invalidates liveness; the CFG-shaped artifacts survive.
    pub fn note_body_changed(&mut self) {
        self.body_version += 1;
        self.dirty = DirtyBlocks::All;
    }

    /// Like [`note_body_changed`](Self::note_body_changed), but names the
    /// blocks that were actually edited. The next liveness solve rescans
    /// use/def summaries only for those blocks — the payoff of keeping the
    /// summary cache across regalloc's coalesce and spill rounds, which
    /// typically touch a handful of blocks each.
    pub fn note_body_changed_blocks(&mut self, blocks: impl IntoIterator<Item = BlockId>) {
        self.body_version += 1;
        if let DirtyBlocks::Blocks(set) = &mut self.dirty {
            set.extend(blocks.into_iter().map(|b| b.index()));
        }
    }

    /// Report a change to the edge structure (blocks added, removed, or
    /// retargeted). Invalidates everything.
    pub fn note_shape_changed(&mut self) {
        self.shape_version += 1;
        self.body_version += 1;
        self.dirty = DirtyBlocks::All;
    }

    /// Resets the cache for reuse against a different (or regenerated)
    /// function body while keeping every allocated buffer warm.
    /// Semantically equivalent to starting from [`FunctionAnalyses::new`]
    /// — all artifacts are stale and the build/solver ledgers are zeroed —
    /// except the next build round rebuilds into this shell's memory
    /// instead of allocating. The driver's worker pool recycles shells
    /// through this between pipeline runs.
    pub fn recycle(&mut self) {
        self.note_shape_changed();
        self.builds = BuildCounts::default();
        self.dataflow = DataflowStats::default();
    }

    /// Selects the dense sweep solvers instead of the sparse worklists.
    /// The pipeline never sets this; the sparse-vs-dense differential
    /// tests do, to check each worklist solver against its dense
    /// reference.
    pub fn set_dense_dataflow(&mut self, dense: bool) {
        self.dense_dataflow = dense;
    }

    /// True when the dense baseline solvers are selected.
    pub fn dense_dataflow(&self) -> bool {
        self.dense_dataflow
    }

    // The ensure_* methods rebuild stale artifacts *in place* (through the
    // artifacts' `*_into` constructors) so a recycled shell's warm buffers
    // are reused instead of reallocated; only a shell that never held the
    // artifact allocates it.

    fn ensure_cfg(&mut self, func: &Function) {
        if matches!(&self.cfg, Some((v, _)) if *v == self.shape_version) {
            return;
        }
        self.builds.cfg += 1;
        let entry = func.entry;
        let (v, cfg) = self.cfg.get_or_insert_with(|| (0, Cfg::empty(entry)));
        cfg.build_into(func);
        *v = self.shape_version;
    }

    fn ensure_dom(&mut self, func: &Function) {
        self.ensure_cfg(func);
        if matches!(&self.dom, Some((v, _)) if *v == self.shape_version) {
            return;
        }
        self.builds.dom += 1;
        let cfg = &self.cfg.as_ref().expect("ensured").1;
        let (v, dom) = self
            .dom
            .get_or_insert_with(|| (0, DomTree::empty(cfg.entry)));
        DomTree::lengauer_tarjan_into(cfg, &mut self.dom_scratch, dom);
        *v = self.shape_version;
    }

    fn ensure_forest(&mut self, func: &Function) {
        self.ensure_dom(func);
        if matches!(&self.forest, Some((v, _)) if *v == self.shape_version) {
            return;
        }
        self.builds.forest += 1;
        let cfg = &self.cfg.as_ref().expect("ensured").1;
        let dom = &self.dom.as_ref().expect("ensured").1;
        let (v, forest) = self
            .forest
            .get_or_insert_with(|| (0, LoopForest::default()));
        LoopForest::build_into(cfg, dom, forest);
        *v = self.shape_version;
    }

    fn ensure_geometry(&mut self, func: &Function) {
        self.ensure_forest(func);
        if matches!(&self.geometry, Some((v, _)) if *v == self.shape_version) {
            return;
        }
        self.builds.geometry += 1;
        let cfg = &self.cfg.as_ref().expect("ensured").1;
        let forest = &self.forest.as_ref().expect("ensured").1;
        let (v, geom) = self.geometry.get_or_insert_with(|| {
            (
                0,
                LoopGeometry {
                    landing_pads: Vec::new(),
                    exit_blocks: Vec::new(),
                },
            )
        });
        LoopGeometry::compute_into(cfg, forest, geom);
        *v = self.shape_version;
    }

    fn ensure_live(&mut self, func: &Function) {
        self.ensure_cfg(func);
        if matches!(&self.live, Some((v, _)) if *v == self.body_version) {
            return;
        }
        self.builds.liveness += 1;
        let cfg = &self.cfg.as_ref().expect("ensured").1;
        if self.dense_dataflow {
            let live = liveness_dense_stats(func, cfg, &mut self.dataflow);
            self.live = Some((self.body_version, live));
            return;
        }
        match &self.dirty {
            DirtyBlocks::Blocks(blocks) if self.live_summaries.len() == func.blocks.len() => {
                self.live_summaries.rescan_blocks(func, blocks);
            }
            _ => self.live_summaries.rescan_all(func),
        }
        self.dirty = DirtyBlocks::Blocks(BTreeSet::new());
        let (v, live) = self.live.get_or_insert_with(|| {
            (
                0,
                Liveness {
                    live_in: Vec::new(),
                    live_out: Vec::new(),
                },
            )
        });
        liveness_sparse_into(
            func,
            cfg,
            &self.live_summaries,
            &mut self.dataflow,
            &mut self.live_scratch,
            live,
        );
        *v = self.body_version;
    }

    /// The CFG of `func` at its current version.
    pub fn cfg<'a>(&'a mut self, func: &Function) -> &'a Cfg {
        self.ensure_cfg(func);
        &self.cfg.as_ref().expect("ensured").1
    }

    /// The dominator tree.
    pub fn dom<'a>(&'a mut self, func: &Function) -> &'a DomTree {
        self.ensure_dom(func);
        &self.dom.as_ref().expect("ensured").1
    }

    /// CFG + dominator tree together.
    pub fn cfg_dom<'a>(&'a mut self, func: &Function) -> (&'a Cfg, &'a DomTree) {
        self.ensure_dom(func);
        (
            &self.cfg.as_ref().expect("ensured").1,
            &self.dom.as_ref().expect("ensured").1,
        )
    }

    /// CFG + loop forest together (what loop discovery passes need).
    pub fn cfg_forest<'a>(&'a mut self, func: &Function) -> (&'a Cfg, &'a LoopForest) {
        self.ensure_forest(func);
        (
            &self.cfg.as_ref().expect("ensured").1,
            &self.forest.as_ref().expect("ensured").1,
        )
    }

    /// CFG + dominator tree + loop forest.
    pub fn cfg_dom_forest<'a>(
        &'a mut self,
        func: &Function,
    ) -> (&'a Cfg, &'a DomTree, &'a LoopForest) {
        self.ensure_forest(func);
        (
            &self.cfg.as_ref().expect("ensured").1,
            &self.dom.as_ref().expect("ensured").1,
            &self.forest.as_ref().expect("ensured").1,
        )
    }

    /// CFG + loop forest + loop geometry: the normalized-loop view that
    /// promotion and LICM consume (previously `LoopNest`).
    ///
    /// # Panics
    ///
    /// Panics (in [`LoopGeometry::compute`]) if the function is not
    /// normalized.
    pub fn loop_view<'a>(
        &'a mut self,
        func: &Function,
    ) -> (&'a Cfg, &'a LoopForest, &'a LoopGeometry) {
        self.ensure_geometry(func);
        (
            &self.cfg.as_ref().expect("ensured").1,
            &self.forest.as_ref().expect("ensured").1,
            &self.geometry.as_ref().expect("ensured").1,
        )
    }

    /// Liveness at the current body version.
    pub fn liveness<'a>(&'a mut self, func: &Function) -> &'a Liveness {
        self.ensure_live(func);
        &self.live.as_ref().expect("ensured").1
    }

    /// CFG + liveness together (the allocator's working set).
    pub fn cfg_liveness<'a>(&'a mut self, func: &Function) -> (&'a Cfg, &'a Liveness) {
        self.ensure_live(func);
        (
            &self.cfg.as_ref().expect("ensured").1,
            &self.live.as_ref().expect("ensured").1,
        )
    }

    /// CFG + dominator tree + liveness (SSA construction's working set).
    pub fn cfg_dom_liveness<'a>(
        &'a mut self,
        func: &Function,
    ) -> (&'a Cfg, &'a DomTree, &'a Liveness) {
        self.ensure_dom(func);
        self.ensure_live(func);
        (
            &self.cfg.as_ref().expect("ensured").1,
            &self.dom.as_ref().expect("ensured").1,
            &self.live.as_ref().expect("ensured").1,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ir::FunctionBuilder;

    fn diamond() -> Function {
        let mut b = FunctionBuilder::new("f", 0);
        let c = b.iconst(1);
        let t = b.new_block();
        let e = b.new_block();
        let j = b.new_block();
        b.branch(c, t, e);
        b.switch_to(t);
        b.jump(j);
        b.switch_to(e);
        b.jump(j);
        b.switch_to(j);
        b.ret(None);
        b.finish()
    }

    #[test]
    fn artifacts_are_cached_until_invalidated() {
        let f = diamond();
        let mut fa = FunctionAnalyses::new();
        fa.cfg(&f);
        fa.dom(&f);
        fa.liveness(&f);
        fa.cfg(&f);
        fa.dom(&f);
        fa.liveness(&f);
        assert_eq!(fa.builds.cfg, 1);
        assert_eq!(fa.builds.dom, 1);
        assert_eq!(fa.builds.liveness, 1);
    }

    #[test]
    fn body_change_invalidates_liveness_but_not_shape() {
        let f = diamond();
        let mut fa = FunctionAnalyses::new();
        fa.cfg(&f);
        fa.liveness(&f);
        fa.note_body_changed();
        fa.cfg(&f);
        fa.liveness(&f);
        assert_eq!(fa.builds.cfg, 1, "CFG survives a body-only change");
        assert_eq!(fa.builds.liveness, 2, "liveness rebuilt");
    }

    #[test]
    fn shape_change_invalidates_everything() {
        let f = diamond();
        let mut fa = FunctionAnalyses::new();
        fa.cfg_dom_forest(&f);
        fa.liveness(&f);
        fa.note_shape_changed();
        fa.cfg_dom_forest(&f);
        fa.liveness(&f);
        assert_eq!(fa.builds.cfg, 2);
        assert_eq!(fa.builds.dom, 2);
        assert_eq!(fa.builds.forest, 2);
        assert_eq!(fa.builds.liveness, 2);
    }

    #[test]
    fn block_scoped_invalidation_matches_full_rebuild() {
        use crate::liveness::liveness_dense;
        use ir::Instr;
        let mut f = diamond();
        let mut fa = FunctionAnalyses::new();
        fa.liveness(&f);
        // Edit block 1 only: define a fresh register and keep it live into
        // the join by storing it in the return slot... there is no return
        // slot here, so use a self-visible copy chain instead.
        let new = ir::Reg(f.next_reg);
        f.next_reg += 1;
        f.blocks[1]
            .instrs
            .insert(0, Instr::IConst { dst: new, value: 9 });
        fa.note_body_changed_blocks([ir::BlockId(1)]);
        let got = fa.liveness(&f).clone();
        let fresh = liveness_dense(&f, &Cfg::build(&f));
        assert_eq!(got, fresh);
        assert_eq!(fa.builds.liveness, 2);
    }

    #[test]
    fn body_version_advances_on_both_tiers() {
        let mut fa = FunctionAnalyses::new();
        let v0 = fa.body_version();
        fa.note_body_changed();
        let v1 = fa.body_version();
        fa.note_shape_changed();
        let v2 = fa.body_version();
        assert!(v0 < v1 && v1 < v2);
    }
}
