//! The sparse worklist engine shared by the pipeline's dataflow solvers.
//!
//! Every solver in this tree used to be a dense iterate-to-fixpoint sweep:
//! `while changed { for every block { transfer } }`, re-evaluating every
//! block once per sweep even when only one block's input moved. The
//! [`BlockWorklist`] here replaces that pattern: blocks are (re)enqueued
//! only when their input state actually changed, and are popped in
//! analysis order — reverse postorder for forward problems, postorder for
//! backward ones — so a pop almost always sees its predecessors (resp.
//! successors) already up to date. On reducible graphs this visits each
//! block O(loop-nesting-depth) times instead of O(sweeps · blocks).
//!
//! The engine is deliberately minimal: it orders and deduplicates *block
//! ids*; lattices, transfer functions, and scratch buffers stay in the
//! client solver, which keeps each solver's inner loop free of dynamic
//! dispatch. What the engine does own is the [`DataflowStats`] ledger —
//! blocks visited, transfer evaluations, worklist pushes — which the
//! pipeline reports in `PipelineReport::dataflow_stats` and a test bounds
//! across the benchmark suite, so a solver regressing to dense-sweep
//! behavior shows up as a counter jump, not a vague slowdown.

use crate::graph::Cfg;
use ir::BlockId;
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// Which way a dataflow problem propagates facts along CFG edges.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Direction {
    /// Facts flow from predecessors to successors (constprop, loadelim).
    Forward,
    /// Facts flow from successors to predecessors (liveness).
    Backward,
}

/// Counters for how much work a solver actually did. Mirrors the
/// [`crate::BuildCounts`] ledger one level down: where `BuildCounts` says
/// how often an analysis was built, `DataflowStats` says how much it cost.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DataflowStats {
    /// Block (or, for the demand-driven interprocedural solver, function)
    /// evaluations: worklist pops, or sweep visits for a dense solver.
    pub blocks_visited: u64,
    /// Transfer-function applications at the solver's natural granularity:
    /// per instruction for constprop/loadelim/dce/points-to, per set
    /// equation for liveness.
    pub transfer_evals: u64,
    /// Worklist enqueue operations (always 0 for a dense solver).
    pub worklist_pushes: u64,
}

impl DataflowStats {
    /// Sum over all counters.
    pub fn total(&self) -> u64 {
        self.blocks_visited + self.transfer_evals + self.worklist_pushes
    }

    /// Accumulates `other` into `self`.
    pub fn add(&mut self, other: &DataflowStats) {
        self.blocks_visited += other.blocks_visited;
        self.transfer_evals += other.transfer_evals;
        self.worklist_pushes += other.worklist_pushes;
    }
}

/// A priority worklist of basic blocks keyed on the cached CFG's reverse
/// postorder.
///
/// Pops are ordered (earliest reverse-postorder position first for
/// [`Direction::Forward`], latest first for [`Direction::Backward`]) and
/// deduplicated: pushing a block already queued is a no-op. Unreachable
/// blocks (absent from `cfg.rpo`) are silently rejected, matching the
/// dense solvers' habit of iterating `cfg.rpo` only. The ordering makes
/// the solve deterministic — a requirement the pipeline's byte-identical
/// output test enforces at every worker count — and near-optimal: on an
/// acyclic graph every block is popped exactly once.
#[derive(Debug, Default)]
pub struct BlockWorklist {
    /// Pending (priority, block) pairs; smallest priority pops first.
    heap: BinaryHeap<Reverse<(usize, u32)>>,
    /// Whether each block index is currently enqueued.
    queued: Vec<bool>,
    /// Pop priority per block index; `usize::MAX` marks unreachable.
    prio: Vec<usize>,
}

impl BlockWorklist {
    /// An unordered, capacity-less worklist; call [`BlockWorklist::reset`]
    /// before use. This is what a long-lived scratch arena stores.
    pub fn empty() -> BlockWorklist {
        BlockWorklist::default()
    }

    /// An empty worklist ordered for `dir` over `cfg`.
    pub fn new(cfg: &Cfg, dir: Direction) -> BlockWorklist {
        let n = cfg.len();
        let mut prio = vec![usize::MAX; n];
        let last = cfg.rpo.len().saturating_sub(1);
        for (i, b) in cfg.rpo.iter().enumerate() {
            prio[b.index()] = match dir {
                Direction::Forward => i,
                Direction::Backward => last - i,
            };
        }
        BlockWorklist {
            heap: BinaryHeap::with_capacity(cfg.rpo.len()),
            queued: vec![false; n],
            prio,
        }
    }

    /// Re-targets an existing (drained) worklist at `cfg` for `dir`,
    /// reusing the heap, queued bitmap, and priority table allocations.
    /// Equivalent to `*self = BlockWorklist::new(cfg, dir)` without the
    /// three frees/allocs — the scratch-arena path for solvers that run
    /// once per function per pass.
    pub fn reset(&mut self, cfg: &Cfg, dir: Direction) {
        let n = cfg.len();
        self.heap.clear();
        self.queued.clear();
        self.queued.resize(n, false);
        self.prio.clear();
        self.prio.resize(n, usize::MAX);
        let last = cfg.rpo.len().saturating_sub(1);
        for (i, b) in cfg.rpo.iter().enumerate() {
            self.prio[b.index()] = match dir {
                Direction::Forward => i,
                Direction::Backward => last - i,
            };
        }
    }

    /// Enqueues `b` unless it is already queued or unreachable. Counts the
    /// push in `stats`.
    pub fn push(&mut self, b: BlockId, stats: &mut DataflowStats) {
        let i = b.index();
        if self.prio[i] == usize::MAX || self.queued[i] {
            return;
        }
        self.queued[i] = true;
        stats.worklist_pushes += 1;
        self.heap.push(Reverse((self.prio[i], b.0)));
    }

    /// Enqueues every reachable block (the seed for problems whose facts
    /// can originate anywhere, like liveness).
    pub fn seed_all(&mut self, cfg: &Cfg, stats: &mut DataflowStats) {
        for &b in &cfg.rpo {
            self.push(b, stats);
        }
    }

    /// Pops the highest-priority block, counting the visit in `stats`.
    pub fn pop(&mut self, stats: &mut DataflowStats) -> Option<BlockId> {
        let Reverse((_, b)) = self.heap.pop()?;
        self.queued[b as usize] = false;
        stats.blocks_visited += 1;
        Some(BlockId(b))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ir::FunctionBuilder;

    fn diamond_cfg() -> Cfg {
        let mut b = FunctionBuilder::new("f", 0);
        let c = b.iconst(1);
        let b1 = b.new_block();
        let b2 = b.new_block();
        let b3 = b.new_block();
        b.branch(c, b1, b2);
        b.switch_to(b1);
        b.jump(b3);
        b.switch_to(b2);
        b.jump(b3);
        b.switch_to(b3);
        b.ret(None);
        Cfg::build(&b.finish())
    }

    #[test]
    fn forward_pops_in_rpo() {
        let cfg = diamond_cfg();
        let mut stats = DataflowStats::default();
        let mut wl = BlockWorklist::new(&cfg, Direction::Forward);
        wl.seed_all(&cfg, &mut stats);
        let mut order = Vec::new();
        while let Some(b) = wl.pop(&mut stats) {
            order.push(b);
        }
        assert_eq!(order, cfg.rpo);
        assert_eq!(stats.worklist_pushes, 4);
        assert_eq!(stats.blocks_visited, 4);
    }

    #[test]
    fn backward_pops_in_postorder() {
        let cfg = diamond_cfg();
        let mut stats = DataflowStats::default();
        let mut wl = BlockWorklist::new(&cfg, Direction::Backward);
        wl.seed_all(&cfg, &mut stats);
        let mut order = Vec::new();
        while let Some(b) = wl.pop(&mut stats) {
            order.push(b);
        }
        let rev: Vec<_> = cfg.rpo.iter().rev().copied().collect();
        assert_eq!(order, rev);
    }

    #[test]
    fn pushes_are_deduplicated_and_unreachable_rejected() {
        let mut b = FunctionBuilder::new("f", 0);
        let dead = b.new_block();
        b.ret(None);
        b.switch_to(dead);
        b.ret(None);
        let cfg = Cfg::build(&b.finish());
        let mut stats = DataflowStats::default();
        let mut wl = BlockWorklist::new(&cfg, Direction::Forward);
        wl.push(cfg.entry, &mut stats);
        wl.push(cfg.entry, &mut stats);
        wl.push(dead, &mut stats);
        assert_eq!(stats.worklist_pushes, 1, "dup and unreachable rejected");
        assert_eq!(wl.pop(&mut stats), Some(cfg.entry));
        assert_eq!(wl.pop(&mut stats), None);
    }

    #[test]
    fn reset_reuses_like_new() {
        let cfg = diamond_cfg();
        let mut stats = DataflowStats::default();
        let mut wl = BlockWorklist::empty();
        for dir in [Direction::Forward, Direction::Backward] {
            wl.reset(&cfg, dir);
            wl.seed_all(&cfg, &mut stats);
            let mut order = Vec::new();
            while let Some(b) = wl.pop(&mut stats) {
                order.push(b);
            }
            let mut fresh = BlockWorklist::new(&cfg, dir);
            let mut s2 = DataflowStats::default();
            fresh.seed_all(&cfg, &mut s2);
            let mut expect = Vec::new();
            while let Some(b) = fresh.pop(&mut s2) {
                expect.push(b);
            }
            assert_eq!(order, expect);
        }
    }

    #[test]
    fn repush_after_pop_is_allowed() {
        let cfg = diamond_cfg();
        let mut stats = DataflowStats::default();
        let mut wl = BlockWorklist::new(&cfg, Direction::Forward);
        wl.push(cfg.entry, &mut stats);
        assert_eq!(wl.pop(&mut stats), Some(cfg.entry));
        wl.push(cfg.entry, &mut stats);
        assert_eq!(wl.pop(&mut stats), Some(cfg.entry));
        assert_eq!(stats.worklist_pushes, 2);
    }
}
