//! The compiler driver: pass sequencing, experiment configurations,
//! structured optimization telemetry, and figure-style reporting.
//!
//! The highest-level entry point is [`Session`]: a configured compiler
//! instance that owns its worker pool and hands back a [`Compilation`]
//! per program — module, pass report, structured trace, and (optionally)
//! the execution outcome in one artifact.
//!
//! ```
//! use driver::Session;
//!
//! let session = Session::builder().trace(true).build();
//! let c = session.compile_and_run(
//!     r#"
//!     int counter;
//!     int main() {
//!         int i;
//!         for (i = 0; i < 1000; i++) counter += 1;
//!         print_int(counter);
//!         return 0;
//!     }
//!     "#,
//! )?;
//! let outcome = c.outcome.as_ref().unwrap();
//! assert_eq!(outcome.output, vec!["1000"]);
//! // Promotion moved the counter into a register for the whole loop...
//! assert!(outcome.counts.stores < 10);
//! assert!(c.report.promotion.scalar.promoted_tags >= 1);
//! // ...and the trace records it as a structured remark.
//! assert!(c
//!     .trace
//!     .remarks()
//!     .any(|(_, _, r)| matches!(r, trace::Remark::Promoted { .. })));
//! # Ok::<(), driver::Error>(())
//! ```
//!
//! [`Session`] (plus [`Compilation::run`] for execution) is the *only*
//! compile entry point since API v1 — the tuple-returning free functions
//! that predated it are gone. External consumers should import from
//! [`prelude`], the curated stable surface.

#![warn(missing_docs)]

mod error;
mod incremental;
mod parallel;
mod pipeline;
mod report;
mod scratch;
mod session;

pub use error::Error;
pub use incremental::{FuncCache, IncrementalReport, DEFAULT_CACHE_BUDGET};
pub use parallel::{parallel_map, resolve_threads, WorkerPool};
pub use pipeline::{run_pipeline, PassTiming, PassTimings, PipelineConfig, PipelineReport};
pub use report::{measure_program, render_figure, MeasurementRow, Metric};
pub use scratch::PassScratch;
pub use session::{Compilation, Session, SessionBuilder};

/// The curated stable API surface, re-exported in one place.
///
/// Everything a driver consumer (the fuzzer, the benchmarks, an external
/// embedder) needs to compile and execute MiniC programs: the session
/// API, its error type, the configuration vocabulary, and the VM types
/// that flow back out of [`Compilation::run`]. Import it wholesale:
///
/// ```
/// use driver::prelude::*;
///
/// let session = Session::builder().threads(Some(1)).build();
/// let out = session
///     .compile("int main() { print_int(7); return 0; }")?
///     .run(VmOptions::default())?;
/// assert_eq!(out.output, vec!["7"]);
/// # Ok::<(), Error>(())
/// ```
pub mod prelude {
    pub use crate::error::Error;
    pub use crate::incremental::IncrementalReport;
    pub use crate::pipeline::{PipelineConfig, PipelineReport};
    pub use crate::session::{Compilation, Session, SessionBuilder};
    pub use analysis::AnalysisLevel;
    pub use regalloc::AllocOptions;
    pub use trace::{Remark, TraceLog};
    pub use vm::{ExecCounts, Outcome, VmError, VmOptions};
}
