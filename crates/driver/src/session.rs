//! The `Session` driver API: one owned object holding the pipeline
//! configuration, the VM options, and the persistent worker pool, handing
//! back a [`Compilation`] artifact per program.
//!
//! [`SessionBuilder`] is the one configuration surface: it has a setter
//! for every pipeline option, the VM budgets, and incremental caching.
//! A session is built once, amortizes its worker pool across every
//! program it compiles, and returns module, report, trace, and run
//! outcome as one value. Execution is part of the same surface —
//! [`Compilation::run`] executes the compiled module in the instrumented
//! VM and folds any fault into the unified [`Error`].
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
//!         for (i = 0; i < 100; i++) counter += 1;
//!         print_int(counter);
//!         return 0;
//!     }
//!     "#,
//! )?;
//! assert_eq!(c.outcome.as_ref().unwrap().output, vec!["100"]);
//! // The trace says *what* promotion did, structurally:
//! assert!(c
//!     .trace
//!     .remarks()
//!     .any(|(_, _, r)| matches!(r, trace::Remark::Promoted { .. })));
//! # Ok::<(), driver::Error>(())
//! ```

use crate::error::Error;
use crate::incremental::{FuncCache, DEFAULT_CACHE_BUDGET};
use crate::parallel::{resolve_threads, WorkerPool};
use crate::pipeline::{run_pipeline, PipelineConfig, PipelineReport};
use analysis::AnalysisLevel;
use ir::Module;
use regalloc::AllocOptions;
use std::sync::Mutex;
use trace::TraceLog;
use vm::{Outcome, Vm, VmOptions};

/// A configured compiler instance: pipeline configuration + VM options +
/// a persistent [`WorkerPool`] reused across every compilation, plus a
/// warm [`minic::Frontend`] whose interner, token buffer, and AST pools
/// are recycled across every program the session compiles.
///
/// Construct with [`Session::builder()`] (or [`Session::default()`] for
/// the paper's default arm).
pub struct Session {
    config: PipelineConfig,
    vm: VmOptions,
    pool: WorkerPool,
    /// Warm front-end buffers; behind a mutex because compilation entry
    /// points take `&self`.
    frontend: Mutex<minic::Frontend>,
    /// The per-function incremental cache, present when the session was
    /// built with [`SessionBuilder::incremental`]. Compiles on such a
    /// session splice fingerprint-matching functions from here instead of
    /// re-running the fused pass chain.
    cache: Option<Mutex<FuncCache>>,
}

impl std::fmt::Debug for Session {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Session")
            .field("config", &self.config)
            .field("vm", &self.vm)
            .finish_non_exhaustive()
    }
}

impl Default for Session {
    fn default() -> Self {
        Session::builder().build()
    }
}

impl Session {
    /// Starts a session builder from the default configuration.
    pub fn builder() -> SessionBuilder {
        SessionBuilder::default()
    }

    /// A session over an existing configuration with default VM options
    /// (the pool is sized from `config.threads`). Used with
    /// [`PipelineConfig::figure_variants`] to get one session per
    /// experimental arm.
    pub fn from_config(config: PipelineConfig) -> Session {
        SessionBuilder {
            config,
            ..SessionBuilder::default()
        }
        .build()
    }

    /// The pipeline configuration this session runs.
    pub fn config(&self) -> &PipelineConfig {
        &self.config
    }

    /// The VM options [`compile_and_run`](Self::compile_and_run) uses.
    pub fn vm_options(&self) -> &VmOptions {
        &self.vm
    }

    /// Runs the pipeline over an already-built module in place, returning
    /// the report and trace log. The module is validated afterwards; a
    /// validation failure is returned as [`Error::Validate`] rather than
    /// a panic. On an incremental session the module's functions are
    /// fingerprinted against the session cache; [`compile`](Self::compile)
    /// goes through here too.
    ///
    /// # Errors
    ///
    /// Returns [`Error::Validate`] if the pipeline produced invalid IL.
    pub fn optimize(&self, module: &mut Module) -> Result<(PipelineReport, TraceLog), Error> {
        // A poisoned lock only means an earlier compile panicked; the
        // cache is mutated sequentially in the epilogue, one whole entry
        // at a time, so whatever it holds is valid.
        let mut cache = self
            .cache
            .as_ref()
            .map(|c| c.lock().unwrap_or_else(|p| p.into_inner()));
        let (report, log) = run_pipeline(module, &self.config, &self.pool, cache.as_deref_mut());
        drop(cache);
        ir::validate(module)?;
        Ok((report, log))
    }

    /// Compiles MiniC source through the full pipeline.
    ///
    /// # Errors
    ///
    /// Returns [`Error::Front`] if the source does not compile, or
    /// [`Error::Validate`] if the pipeline produced invalid IL.
    pub fn compile(&self, src: &str) -> Result<Compilation, Error> {
        let mut module = {
            let mut frontend = self.frontend.lock().unwrap_or_else(|poisoned| {
                // A compile that panicked may have left the warm buffers
                // mid-rebuild; swap in a fresh front end instead of
                // wedging every later compile on this session.
                let mut guard = poisoned.into_inner();
                *guard = minic::Frontend::new();
                guard
            });
            frontend.compile(src)?
        };
        let (report, trace) = self.optimize(&mut module)?;
        Ok(Compilation {
            module,
            report,
            trace,
            outcome: None,
        })
    }

    /// Compiles and executes; the compilation comes back with
    /// [`Compilation::outcome`] populated.
    ///
    /// # Errors
    ///
    /// Everything [`compile`](Self::compile) returns, plus [`Error::Vm`]
    /// if execution faults.
    pub fn compile_and_run(&self, src: &str) -> Result<Compilation, Error> {
        let mut compilation = self.compile(src)?;
        let outcome = compilation.run(self.vm.clone())?;
        compilation.outcome = Some(outcome);
        Ok(compilation)
    }
}

/// Fluent builder for [`Session`], starting from the defaults: one
/// setter per [`PipelineConfig`] field, `max_steps`/`max_depth` for the
/// VM, and `incremental`/`cache_budget` for the per-function cache.
///
/// ```
/// use driver::Session;
/// use analysis::AnalysisLevel;
///
/// let session = Session::builder()
///     .analysis(AnalysisLevel::PointsTo)
///     .pointer_promote(true)
///     .trace(true)
///     .build();
/// assert!(session.config().promote); // untouched fields keep their defaults
/// ```
#[derive(Debug, Clone)]
pub struct SessionBuilder {
    config: PipelineConfig,
    vm: VmOptions,
    incremental: bool,
    cache_budget: usize,
}

impl Default for SessionBuilder {
    fn default() -> Self {
        SessionBuilder {
            config: PipelineConfig::default(),
            vm: VmOptions::default(),
            incremental: false,
            cache_budget: DEFAULT_CACHE_BUDGET,
        }
    }
}

impl SessionBuilder {
    /// Sets the interprocedural analysis precision.
    pub fn analysis(mut self, level: AnalysisLevel) -> Self {
        self.config.analysis = level;
        self
    }

    /// Enables or disables scalar register promotion.
    pub fn promote(mut self, on: bool) -> Self {
        self.config.promote = on;
        self
    }

    /// Enables or disables pointer-based promotion.
    pub fn pointer_promote(mut self, on: bool) -> Self {
        self.config.pointer_promote = on;
        self
    }

    /// Sets the per-loop promotion pressure cap (`None` = unthrottled).
    pub fn promotion_cap(mut self, cap: Option<usize>) -> Self {
        self.config.promotion_cap = cap;
        self
    }

    /// Enables or disables the scalar optimizer.
    pub fn optimize(mut self, on: bool) -> Self {
        self.config.optimize = on;
        self
    }

    /// Sets register-allocation parameters (`None` leaves virtual
    /// registers).
    pub fn regalloc(mut self, opts: Option<AllocOptions>) -> Self {
        self.config.regalloc = opts;
        self
    }

    /// Enables or disables module validation at the fan-out barriers.
    pub fn validate_each_pass(mut self, on: bool) -> Self {
        self.config.validate_each_pass = on;
        self
    }

    /// Sets the worker-thread count (`None` = `PROMO_THREADS`, then the
    /// machine's available parallelism).
    pub fn threads(mut self, threads: Option<usize>) -> Self {
        self.config.threads = threads;
        self
    }

    /// Enables or disables cross-function reuse of the per-worker pass
    /// scratch arenas.
    pub fn reuse_scratch(mut self, on: bool) -> Self {
        self.config.reuse_scratch = on;
        self
    }

    /// Enables or disables structured trace collection.
    pub fn trace(mut self, on: bool) -> Self {
        self.config.trace = on;
        self
    }

    /// Enables or disables content-addressed incremental recompilation.
    /// When on, the session keeps a per-function [`FuncCache`]: a later
    /// compile splices every function whose fingerprint (canonical body,
    /// interprocedural facts, callee summaries, output-affecting config)
    /// is unchanged, and runs the fused pass chain only over the rest.
    /// Output, report counters, and remark streams are byte-identical to
    /// a cold compile. Off by default.
    pub fn incremental(mut self, on: bool) -> Self {
        self.incremental = on;
        self
    }

    /// Sets the incremental cache's eviction budget in approximate bytes
    /// (default [`DEFAULT_CACHE_BUDGET`]). Least-recently-used entries
    /// are dropped after each compile until the cache fits. Implies
    /// nothing unless [`incremental`](Self::incremental) is on.
    pub fn cache_budget(mut self, bytes: usize) -> Self {
        self.cache_budget = bytes;
        self
    }

    /// Sets the VM's execution step budget.
    pub fn max_steps(mut self, steps: u64) -> Self {
        self.vm.max_steps = steps;
        self
    }

    /// Sets the VM's call-depth budget.
    pub fn max_depth(mut self, depth: usize) -> Self {
        self.vm.max_depth = depth;
        self
    }

    /// Builds the session (spawning its worker pool).
    pub fn build(self) -> Session {
        Session {
            pool: WorkerPool::new(resolve_threads(self.config.threads)),
            config: self.config,
            vm: self.vm,
            frontend: Mutex::new(minic::Frontend::new()),
            cache: self
                .incremental
                .then(|| Mutex::new(FuncCache::new(self.cache_budget))),
        }
    }
}

/// Everything one program's trip through a [`Session`] produced.
#[derive(Debug)]
pub struct Compilation {
    /// The optimized (and validated) module.
    pub module: Module,
    /// Pass counters and timings.
    pub report: PipelineReport,
    /// The structured trace — empty unless the session was built with
    /// `.trace(true)`.
    pub trace: TraceLog,
    /// The execution outcome; `Some` only from
    /// [`Session::compile_and_run`].
    pub outcome: Option<Outcome>,
}

impl Compilation {
    /// Executes the compiled module's `main` in the instrumented VM and
    /// returns the execution outcome (program output, exit code, dynamic
    /// operation counts). Compile-and-execute in one expression:
    ///
    /// ```
    /// use driver::Session;
    /// use vm::VmOptions;
    ///
    /// let out = Session::default()
    ///     .compile("int main() { print_int(6 * 7); return 0; }")?
    ///     .run(VmOptions::default())?;
    /// assert_eq!(out.output, vec!["42"]);
    /// # Ok::<(), driver::Error>(())
    /// ```
    ///
    /// Unlike [`Session::compile_and_run`] this does not cache the outcome
    /// in [`Compilation::outcome`]; it can be called repeatedly (e.g. with
    /// different step budgets).
    ///
    /// # Errors
    ///
    /// Returns [`Error::Vm`] if execution faults.
    pub fn run(&self, options: VmOptions) -> Result<Outcome, Error> {
        Ok(Vm::run_main(&self.module, options)?)
    }

    /// The trace rendered as human-readable LLVM-style remark lines.
    pub fn remarks_text(&self) -> String {
        self.trace.render_remarks()
    }

    /// The trace serialized as JSONL (see `trace::jsonl` docs for the
    /// schema).
    pub fn trace_jsonl(&self) -> String {
        self.trace.to_jsonl()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn session_survives_a_poisoned_frontend_mutex() {
        let session = Arc::new(Session::builder().threads(Some(1)).build());
        let src = "int main() { print_int(7); return 0; }";
        let before = session.compile(src).expect("compile before poisoning");

        // Poison the warm front-end mutex the way a panicking compile
        // would: panic while holding the guard.
        let poisoner = Arc::clone(&session);
        std::thread::spawn(move || {
            let _guard = poisoner.frontend.lock().unwrap();
            panic!("deliberate poison");
        })
        .join()
        .unwrap_err();
        assert!(session.frontend.is_poisoned());

        // The session must recover with a fresh front end, not wedge.
        let after = session.compile(src).expect("compile after poisoning");
        assert_eq!(before.module.to_string(), after.module.to_string());
        // And subsequent compiles keep working on the replaced buffers.
        session
            .compile(src)
            .expect("second compile after poisoning");
    }
}
