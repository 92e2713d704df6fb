//! Graph-coloring register allocation for the register-promotion compiler.
//!
//! Implements the Chaitin–Briggs allocator the paper relies on: copy
//! coalescing (which removes the copies promotion introduces) and spilling
//! (which can undo a promotion when register pressure is too high — the
//! paper's `water` anomaly). Spill slots are ordinary [`ir::TagKind::Spill`]
//! tags, so spill traffic is measured by the VM like any other memory
//! traffic.
//!
//! [`allocate`] allocates a whole module. The driver's fused chain calls
//! [`allocate_function`] per function against a read-only tag-table
//! snapshot and interns the spill tags it requests with
//! [`commit_spills`], in function-index order.
//!
//! ```
//! use regalloc::{allocate, AllocOptions};
//!
//! let mut module = minic::compile(r#"
//!     int main() {
//!         int a = 1; int b = 2; int c = 3;
//!         return a + b * c;
//!     }
//! "#)?;
//! let report = allocate(&mut module, &AllocOptions::default());
//! assert_eq!(report.spilled, 0);
//! // Every function now uses at most 32 registers.
//! assert!(module.funcs.iter().all(|f| f.next_reg <= 32));
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![warn(missing_docs)]

mod alloc;
mod matrix;

pub use alloc::{
    allocate, allocate_function, commit_spills, interference_graph, interference_graph_in,
    AllocOptions, AllocReport, AllocScratch, PendingSpill, PROVISIONAL_SPILL_BASE,
};
pub use cfg::{for_each_instr_backwards, liveness, Cfg, Liveness, RegSet};
pub use matrix::BitMatrix;
