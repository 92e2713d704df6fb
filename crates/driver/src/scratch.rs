//! The per-worker pass scratch arena.
//!
//! Every pass in the fused chain that keeps side tables (dense
//! epoch-stamped maps, reusable worklists, rewrite buffers) takes them as
//! caller-owned scratch state in its pipeline entry point. [`PassScratch`] bundles
//! all of them: each [`crate::WorkerPool`] worker owns one, reuses it for
//! every function it carries through the chain, and keeps it across
//! pipeline runs — so a warm pool's steady-state hot loop allocates
//! nothing. See `DESIGN.md` §12 for the lifecycle and clearing rules.

/// Scratch state for one worker: everything the fused per-function pass
/// chain needs, reused across functions and across pipeline runs.
#[derive(Default)]
pub struct PassScratch {
    /// Scalar-optimizer scratch (lvn, constprop, loadelim, licm, dce,
    /// clean).
    pub opt: opt::OptScratch,
    /// Register-allocator scratch (interference matrices, round buffers,
    /// spill rewrite buffer).
    pub alloc: regalloc::AllocScratch,
}
