//! Per-layer accounting for the traced run.
//!
//! The benchmark adds no tracing to the program. It times each call into
//! a crate's public entry point (`minic::Frontend::{lex, parse_lexed,
//! lower_parsed}`, `driver::Session::optimize`, `ir::module_to_string`,
//! `vm::Vm::run_main`) and reads the counters those calls return
//! (`PipelineReport`, its `IncrementalReport`, `ExecCounts`). Allocator
//! calls are counted only while a traced compile runs.

use crate::report::{Outcome, Samples};
use crate::{counting, Compiled};
use driver::{PipelineReport, Session};
use std::time::{Duration, Instant};
use trace::AllocStats;

/// Which layer metric each `PipelineReport::timings` row feeds. Rows the
/// table does not name are left to `driver.unattributed_ms`.
const PASS_LAYERS: &[(&str, &str)] = &[
    ("normalize", "cfg.normalize_ms"),
    ("analysis", "analysis.barrier_ms"),
    ("promote", "promote.cpu_ms"),
    ("pointer-promote", "promote.cpu_ms"),
    ("strengthen", "opt.strengthen_cpu_ms"),
    ("lvn", "opt.lvn_cpu_ms"),
    ("lvn(2)", "opt.lvn_cpu_ms"),
    ("loadelim", "opt.loadelim_cpu_ms"),
    ("constprop", "opt.constprop_cpu_ms"),
    ("licm", "opt.licm_cpu_ms"),
    ("dce", "opt.dce_cpu_ms"),
    ("clean", "opt.clean_cpu_ms"),
    ("clean(final)", "opt.clean_cpu_ms"),
    ("regalloc", "regalloc.cpu_ms"),
];

/// Sums over every traced compile (and VM run) of one workload run.
#[derive(Default)]
pub struct Layers {
    compiles: u64,
    lex: Duration,
    parse: Duration,
    lower: Duration,
    minic_allocs: u64,
    optimize: Duration,
    print: Duration,
    unattributed: Duration,
    /// Every timings row by pass name, with its `cpu_summed` flag.
    rows: Vec<(&'static str, Duration, bool)>,
    analysis_builds: u64,
    transfer_evals: u64,
    promoted_tags: u64,
    loads_eliminated: u64,
    constants_folded: u64,
    spilled: u64,
    rounds: u64,
    instrs: u64,
    incremental_compiles: u64,
    funcs_total: u64,
    cache_hits: u64,
    funcs_recompiled: u64,
    summary_invalidated: u64,
    cache_bytes: u64,
    evictions: u64,
    vm_runs: u64,
    vm_time: Duration,
    vm_ops: u64,
    /// Wall time of whole rounds with tracing on and off, for the
    /// tracing overhead.
    pub traced_rounds: Samples,
    pub untraced_rounds: Samples,
}

impl Layers {
    /// One traced compile: the front end phase by phase on the caller's
    /// warm `Frontend`, then `Session::optimize`, then printing.
    pub fn compile(
        &mut self,
        frontend: &mut minic::Frontend,
        session: &Session,
        src: &str,
    ) -> Result<Compiled, driver::Error> {
        counting(true);
        let result = self.compile_counted(frontend, session, src);
        counting(false);
        result
    }

    fn compile_counted(
        &mut self,
        frontend: &mut minic::Frontend,
        session: &Session,
        src: &str,
    ) -> Result<Compiled, driver::Error> {
        let allocs = AllocStats::now();
        let t = Instant::now();
        frontend.lex(src)?;
        let lexed = Instant::now();
        frontend.parse_lexed()?;
        let parsed = Instant::now();
        let mut module = frontend.lower_parsed()?;
        let lowered = Instant::now();
        self.minic_allocs += AllocStats::now().since(&allocs).count;
        let (report, _) = session.optimize(&mut module)?;
        let optimized = Instant::now();
        let il = ir::module_to_string(&module);
        let printed = Instant::now();

        self.compiles += 1;
        self.lex += lexed - t;
        self.parse += parsed - lexed;
        self.lower += lowered - parsed;
        let optimize = optimized - lowered;
        self.optimize += optimize;
        self.print += printed - optimized;
        let unattributed = self.add_report(&report, optimize, workers(session));
        self.unattributed += unattributed;
        self.instrs += module.instr_count() as u64;
        Ok(Compiled { module, il, report })
    }

    /// Folds one report in; returns the part of `optimize` no timings row
    /// accounts for. Wall rows count in full, CPU-summed rows divided by
    /// the worker count, so idle workers and pool dispatch land here.
    fn add_report(&mut self, r: &PipelineReport, optimize: Duration, workers: u32) -> Duration {
        let mut attributed = Duration::ZERO;
        for row in &r.timings.passes {
            match self.rows.iter_mut().find(|(n, _, _)| *n == row.name) {
                Some(entry) => entry.1 += row.elapsed,
                None => self.rows.push((row.name, row.elapsed, row.cpu_summed)),
            }
            if PASS_LAYERS.iter().any(|(pass, _)| *pass == row.name) {
                attributed += if row.cpu_summed {
                    row.elapsed / workers
                } else {
                    row.elapsed
                };
            }
        }
        self.analysis_builds += r.analysis_builds.total();
        self.transfer_evals += r.dataflow_stats.transfer_evals;
        self.promoted_tags += r.promotion.scalar.promoted_tags as u64;
        self.loads_eliminated += r.loads_eliminated as u64;
        self.constants_folded += r.constants_folded as u64;
        if let Some(a) = &r.alloc {
            self.spilled += a.spilled as u64;
            self.rounds += a.rounds as u64;
        }
        if let Some(inc) = &r.incremental {
            self.incremental_compiles += 1;
            self.funcs_total += inc.funcs_total as u64;
            self.cache_hits += inc.cache_hits as u64;
            self.funcs_recompiled += inc.funcs_recompiled as u64;
            self.summary_invalidated += inc.summary_invalidated as u64;
            self.cache_bytes += inc.cache_bytes as u64;
            self.evictions += inc.evictions as u64;
        }
        optimize.saturating_sub(attributed)
    }

    /// One traced VM run.
    pub fn run(
        &mut self,
        module: &ir::Module,
        options: vm::VmOptions,
    ) -> Result<vm::Outcome, vm::VmError> {
        let t = Instant::now();
        let out = vm::Vm::run_main(module, options);
        self.vm_time += t.elapsed();
        let out = out?;
        self.vm_runs += 1;
        self.vm_ops += out.counts.total;
        Ok(out)
    }

    /// The per-layer metrics: times and counts per traced compile (VM
    /// times per traced run), plus the accounting notes.
    pub fn report(&self, session: &Session, out: &mut Outcome) {
        let n = self.compiles.max(1) as f64;
        let per = |d: Duration| d.as_secs_f64() * 1e3 / n;
        let count = |c: u64| c as f64 / n;
        let basis = format!("per compile, mean of {}", self.compiles);
        let row_ms = |layer: &str| {
            let sum: Duration = self
                .rows
                .iter()
                .filter(|(name, _, _)| PASS_LAYERS.contains(&(*name, layer)))
                .map(|(_, d, _)| *d)
                .sum();
            per(sum)
        };
        let compile = self.lex + self.parse + self.lower + self.optimize + self.print;
        out.metric("driver.compile_ms", per(compile), "ms", basis.clone());
        out.metric("minic.lex_ms", per(self.lex), "ms", basis.clone());
        out.metric("minic.parse_ms", per(self.parse), "ms", basis.clone());
        out.metric("minic.lower_ms", per(self.lower), "ms", basis.clone());
        out.metric(
            "minic.allocs",
            count(self.minic_allocs),
            "count",
            "allocator calls in lex+parse+lower".into(),
        );
        out.metric(
            "cfg.normalize_ms",
            row_ms("cfg.normalize_ms"),
            "ms",
            "wall".into(),
        );
        out.metric(
            "cfg.analysis_builds",
            count(self.analysis_builds),
            "count",
            basis.clone(),
        );
        out.metric(
            "cfg.transfer_evals",
            count(self.transfer_evals),
            "count",
            basis.clone(),
        );
        out.metric(
            "analysis.barrier_ms",
            row_ms("analysis.barrier_ms"),
            "ms",
            "wall".into(),
        );
        out.metric(
            "promote.cpu_ms",
            row_ms("promote.cpu_ms"),
            "ms",
            "cpu".into(),
        );
        out.metric(
            "promote.promoted_tags",
            count(self.promoted_tags),
            "count",
            basis.clone(),
        );
        for pass in [
            "strengthen",
            "lvn",
            "loadelim",
            "constprop",
            "licm",
            "dce",
            "clean",
        ] {
            let name = format!("opt.{pass}_cpu_ms");
            out.metric(&name, row_ms(&name), "ms", "cpu".into());
        }
        out.metric(
            "opt.loads_eliminated",
            count(self.loads_eliminated),
            "count",
            basis.clone(),
        );
        out.metric(
            "opt.constants_folded",
            count(self.constants_folded),
            "count",
            basis.clone(),
        );
        out.metric(
            "regalloc.cpu_ms",
            row_ms("regalloc.cpu_ms"),
            "ms",
            "cpu".into(),
        );
        out.metric(
            "regalloc.spilled",
            count(self.spilled),
            "count",
            basis.clone(),
        );
        out.metric(
            "regalloc.rounds",
            count(self.rounds),
            "count",
            basis.clone(),
        );
        out.metric(
            "driver.optimize_ms",
            per(self.optimize),
            "ms",
            basis.clone(),
        );
        out.metric(
            "driver.unattributed_ms",
            per(self.unattributed),
            "ms",
            "optimize minus wall rows minus cpu rows / workers".into(),
        );
        out.extra(
            "driver.workers",
            f64::from(workers(session)),
            "count",
            "pool threads, caller included".into(),
        );
        let inc_n = self.incremental_compiles.max(1) as f64;
        let hit_rate = if self.funcs_total == 0 {
            0.0
        } else {
            self.cache_hits as f64 / self.funcs_total as f64
        };
        let inc_basis = format!("per incremental compile, n={}", self.incremental_compiles);
        out.metric("incremental.hit_rate", hit_rate, "ratio", inc_basis.clone());
        for (name, v) in [
            ("incremental.funcs_recompiled", self.funcs_recompiled),
            ("incremental.summary_invalidated", self.summary_invalidated),
            ("incremental.evictions", self.evictions),
        ] {
            out.metric(name, v as f64 / inc_n, "count", inc_basis.clone());
        }
        out.metric(
            "incremental.cache_bytes",
            self.cache_bytes as f64 / inc_n,
            "bytes",
            inc_basis,
        );
        out.metric("ir.print_ms", per(self.print), "ms", basis.clone());
        out.metric("ir.instrs", count(self.instrs), "count", basis);
        let vm_ms = if self.vm_runs == 0 {
            0.0
        } else {
            self.vm_time.as_secs_f64() * 1e3 / self.vm_runs as f64
        };
        let ops_per_s = if self.vm_time.is_zero() {
            0.0
        } else {
            self.vm_ops as f64 / self.vm_time.as_secs_f64()
        };
        let vm_basis = format!("per VM run, n={}", self.vm_runs);
        out.metric("vm.execute_ms", vm_ms, "ms", vm_basis.clone());
        out.metric("vm.ops_per_s", ops_per_s, "1/s", vm_basis);
        let (traced, untraced) = (self.traced_rounds.median(), self.untraced_rounds.median());
        out.metric(
            "trace.overhead_pct",
            100.0 * (traced - untraced) / untraced,
            "%",
            format!(
                "median round traced {traced:.4} vs untraced {untraced:.4} (n={}/{})",
                self.traced_rounds.len(),
                self.untraced_rounds.len()
            ),
        );
        out.notes.push(format!(
            "timings rows, ms per compile (cpu = summed across {} workers):",
            workers(session)
        ));
        for (name, d, cpu) in &self.rows {
            let kind = if *cpu { "cpu" } else { "wall" };
            out.notes
                .push(format!("  {name:<16} {:>10.4} {kind}", per(*d)));
        }
    }
}

fn workers(session: &Session) -> u32 {
    // The pool is sized from the session's configuration the same way.
    driver::resolve_threads(session.config().threads) as u32
}
