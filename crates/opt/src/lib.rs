//! The supporting optimizer of the register-promotion compiler.
//!
//! The paper optimizes every program version with "value numbering,
//! partial redundancy elimination, constant propagation, loop invariant
//! code motion, dead code elimination, register allocation, and a basic
//! block cleaning pass". This crate provides those scalar passes (register
//! allocation lives in its own crate):
//!
//! * [`lvn`] — local value numbering with constant folding and tag-aware
//!   scalar-memory forwarding;
//! * [`loadelim`] — the tag-aware redundant-load core of PRE;
//! * [`constprop`] — global constant propagation with branch folding;
//! * [`licm`] — loop-invariant code motion (including loads of tags the
//!   loop cannot modify);
//! * [`dce`] — dead-code elimination;
//! * [`clean`] — nop removal, jump threading, empty-block removal;
//! * [`strengthen`] — Table-1 opcode strengthening after analysis.
//!
//! Each pass has two entry points. The module-level one (`lvn(module)`)
//! is a convenience for tests and examples. The `*_function` one is what
//! the driver's fused chain calls per function: it takes the function's
//! shared analysis cache, the worker's [`OptScratch`] field for the pass,
//! and the function's [`trace::FuncTrace`], in which it records the
//! pass's delta when tracing is on.
//!
//! ```
//! let mut module = minic::compile(r#"
//!     int main() {
//!         int x = 6 * 7;
//!         return x;
//!     }
//! "#)?;
//! opt::lvn(&mut module);
//! opt::dce(&mut module);
//! opt::clean(&mut module);
//! ir::validate(&module)?;
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![warn(missing_docs)]

mod clean;
mod constprop;
mod dce;
mod licm;
mod loadelim;
mod lvn;
mod strengthen;

pub use clean::{clean, clean_function, CleanScratch};
pub use constprop::{
    analyze_constants, constprop, constprop_function, ConstLattice, ConstScratch, Lat,
};
pub use dce::{dce, dce_function, DceScratch};
pub use licm::{licm, licm_function, LicmScratch};
pub use loadelim::{loadelim, loadelim_function, LoadelimScratch};
pub use lvn::{lvn, lvn_function, LvnScratch};
pub use strengthen::{strengthen, strengthen_function};

/// One scratch arena covering every pass in this crate: what a pipeline
/// worker owns (one per thread) and threads through the fused pass chain,
/// so the steady-state hot loop runs without allocating. Each field is the
/// corresponding pass's reusable state; all of them reset cheaply (epoch
/// bumps and length-resets) at the start of each pass invocation.
#[derive(Default)]
pub struct OptScratch {
    /// [`lvn_function`] tables.
    pub lvn: LvnScratch,
    /// [`constprop_function`] lattice and worklist.
    pub constprop: ConstScratch,
    /// [`loadelim_function`] fact maps and worklist.
    pub loadelim: LoadelimScratch,
    /// [`licm_function`] hoisting tables.
    pub licm: LicmScratch,
    /// [`dce_function`] mark buffers.
    pub dce: DceScratch,
    /// [`clean_function`] forwarding table.
    pub clean: CleanScratch,
}

use ir::Function;
use trace::FuncTrace;

/// Runs one pass body under [`FuncTrace::record_delta`]. Every pass in
/// this crate returns its rewrite count and returns 0 only when it left
/// the body untouched, so a zero return skips the after-scan.
fn recorded(
    pass: &'static str,
    func: &mut Function,
    tr: &mut FuncTrace,
    body: impl FnOnce(&mut Function) -> usize,
) -> usize {
    tr.record_delta(
        pass,
        func,
        |f| f.body_stats().into(),
        |f, _| body(f),
        |&n| n == 0,
    )
}
