//! The three workloads. Each sets up several times (the median is
//! `setup_s`), checks its outputs outside the timed region, then measures
//! for the run's time budget. With tracing on, rounds alternate between
//! untraced and traced, and the traced ones feed the per-layer metrics.

use crate::layers::Layers;
use crate::report::{mix, peak_rss_mib, shuffle, Outcome, Samples, Tally};
use crate::scaled::{EditPlan, ScaledModule, TARGET_INSTRS};
use crate::Compiled;
use driver::{MeasurementRow, Metric, PipelineConfig, Session};
use std::time::{Duration, Instant};
use vm::{ExecCounts, Vm, VmOptions};

/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 21;

/// Jobs of a `figures` pass between two rounds of compiles (see
/// [`Rounds`]): 14 rounds per pass, spread through it.
const ROUND_EVERY: usize = 4;

/// The committed Figures 5–7 that the `figures` workload compares with.
const COMMITTED_FIGURES: &str = include_str!("../../results/figures.txt");

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    Figures,
    CompileScaled,
    EditLoop,
}

impl Workload {
    pub const ALL: [Workload; 3] = [
        Workload::Figures,
        Workload::CompileScaled,
        Workload::EditLoop,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::Figures => "figures",
            Workload::CompileScaled => "compile-scaled",
            Workload::EditLoop => "edit-loop",
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// One run's settings.
pub struct Run {
    pub seed: u64,
    pub budget: Duration,
    pub trace: bool,
}

pub fn run(workload: Workload, run: &Run) -> Outcome {
    let mut out = match workload {
        Workload::Figures => figures(run),
        Workload::CompileScaled => compile_scaled(run),
        Workload::EditLoop => edit_loop(run),
    };
    if !run.trace {
        let rss = peak_rss_mib().unwrap_or(f64::NAN);
        out.metric("peak_rss_mib", rss, "MiB", "VmHWM of the process".into());
    }
    let (attempted, failed) = (out.tally.attempted, out.tally.failed);
    out.extra(
        "error_rate",
        out.tally.error_rate(),
        "ratio",
        format!("{failed} failed of {attempted} compiles, runs and checks"),
    );
    out
}

/// One untraced compile, source to printed IL.
fn compile(session: &Session, src: &str) -> Result<Compiled, driver::Error> {
    let c = session.compile(src)?;
    let il = ir::module_to_string(&c.module);
    Ok(Compiled {
        module: c.module,
        il,
        report: c.report,
    })
}

/// Runs `setup` [`SETUPS`] times, returning the last result and the
/// median set-up time in seconds.
fn timed_setups<T>(mut setup: impl FnMut() -> T) -> (T, Samples) {
    let mut times = Samples::default();
    let mut last = None;
    for _ in 0..SETUPS {
        drop(last.take());
        let t = Instant::now();
        last = Some(setup());
        times.push(t.elapsed().as_secs_f64());
    }
    (last.expect("at least one set-up"), times)
}

/// `setup_s`; a traced run reports per-layer metrics only, so there it
/// is printed but left out of the JSON line.
fn setup_metric(out: &mut Outcome, run: &Run, times: &Samples, what: &str) {
    let add = if run.trace {
        Outcome::extra
    } else {
        Outcome::metric
    };
    add(
        out,
        "setup_s",
        times.median(),
        "s",
        format!("median of {} set-ups: {what}", times.len()),
    );
}

/// The session the reference output comes from: no optimizer, no
/// promotion.
fn reference_session() -> Session {
    Session::builder().optimize(false).promote(false).build()
}

/// The front end the traced compiles of one run share, warm like a
/// session's own.
struct Tracer {
    layers: Layers,
    frontend: minic::Frontend,
}

impl Tracer {
    fn new(on: bool) -> Option<Tracer> {
        on.then(|| Tracer {
            layers: Layers::default(),
            frontend: minic::Frontend::new(),
        })
    }

    fn compile(&mut self, session: &Session, src: &str) -> Result<Compiled, driver::Error> {
        self.layers.compile(&mut self.frontend, session, src)
    }
}

/// Compiles untraced, or traced when `tracer` is given.
fn compile_with(
    tracer: Option<&mut Tracer>,
    session: &Session,
    src: &str,
) -> Result<Compiled, driver::Error> {
    match tracer {
        Some(t) => t.compile(session, src),
        None => compile(session, src),
    }
}

// ---------------------------------------------------------------------
// figures
// ---------------------------------------------------------------------

struct FigureSetup {
    /// The four `PipelineConfig::figure_variants`, in their order.
    sessions: Vec<Session>,
}

fn figure_setup() -> FigureSetup {
    let sessions: Vec<Session> = PipelineConfig::figure_variants()
        .into_iter()
        .map(|(_, config)| Session::from_config(config))
        .collect();
    // Warm every session's pool, scratch arenas and front end.
    for session in &sessions {
        for b in benchsuite::SUITE {
            let _ = compile(session, b.source);
        }
    }
    FigureSetup { sessions }
}

/// The paper's 2×2 experiment: every suite program under every figure
/// variant, compiled and executed one job after another.
fn figures(run: &Run) -> Outcome {
    let mut out = Outcome::default();
    let (setup, setup_times) = timed_setups(figure_setup);
    setup_metric(
        &mut out,
        run,
        &setup_times,
        "4 variant sessions, 56 warm-up compiles",
    );
    let tally = &mut out.tally;
    let suite = benchsuite::SUITE;
    let sessions = &setup.sessions;

    // The reference output of every program, outside the timed region.
    let reference_session = reference_session();
    let reference: Vec<Option<Vec<String>>> = suite
        .iter()
        .map(|b| {
            let c = tally.ok(compile(&reference_session, b.source), b.name)?;
            let o = tally.ok(Vm::run_main(&c.module, VmOptions::default()), b.name)?;
            Some(o.output)
        })
        .collect();
    drop(reference_session);

    let jobs: Vec<(usize, usize)> = (0..suite.len())
        .flat_map(|p| (0..sessions.len()).map(move |v| (p, v)))
        .collect();
    // Every job's printed IL, also outside the timed region: each later
    // compile of the job must reproduce it.
    let expected: Vec<Option<String>> = jobs
        .iter()
        .map(|&(p, v)| {
            let c = compile(&sessions[v], suite[p].source);
            tally.ok(c, suite[p].name).map(|c| c.il)
        })
        .collect();
    let mut tracer = Tracer::new(run.trace);
    let promotes: Vec<bool> = PipelineConfig::figure_variants()
        .iter()
        .map(|(_, config)| config.promote)
        .collect();
    // Per job, from the first pass: dynamic counts and code size.
    let mut first: Vec<Option<(ExecCounts, usize)>> = vec![None; jobs.len()];
    let mut rounds = Rounds::new(jobs.len());
    let mut wall = Samples::default();
    let mut execute = Samples::default();
    let start = Instant::now();
    let mut pass = 0u64;
    // A pass takes seconds, so one starts only when it should end within
    // the budget, going by the one before it.
    let mut last_pass = Duration::ZERO;
    while pass == 0 || start.elapsed() + last_pass <= run.budget || (run.trace && pass < 2) {
        let pass_start = Instant::now();
        let traced = run.trace && pass % 2 == 1;
        let mut order: Vec<usize> = (0..jobs.len()).collect();
        shuffle(&mut order, mix(run.seed ^ mix(pass)));
        // The pass's own time, without the rounds between its jobs.
        let (mut pass_wall, mut exec) = (Duration::ZERO, Duration::ZERO);
        for (i, &j) in order.iter().enumerate() {
            if !run.trace && i % ROUND_EVERY == 0 {
                rounds.run(&jobs, sessions, &expected, run.seed, tally);
            }
            let (p, v) = jobs[j];
            let (b, session) = (&suite[p], &sessions[v]);
            let t = Instant::now();
            let c = compile_with(tracer.as_mut().filter(|_| traced), session, b.source);
            let compiled = t.elapsed();
            let Some(c) = tally.ok(c, b.name) else {
                continue;
            };
            let t = Instant::now();
            let o = match tracer.as_mut().filter(|_| traced) {
                Some(t) => t.layers.run(&c.module, VmOptions::default()),
                None => Vm::run_main(&c.module, VmOptions::default()),
            };
            let ran = t.elapsed();
            pass_wall += compiled + ran;
            exec += ran;
            let Some(o) = tally.ok(o, b.name) else {
                continue;
            };
            tally.check(reference[p].as_ref() == Some(&o.output), || {
                format!("{} variant {v}: output differs from the reference", b.name)
            });
            tally.check(expected[j].as_ref() == Some(&c.il), || {
                format!("{} variant {v}: IL differs across compiles", b.name)
            });
            match &first[j] {
                None => first[j] = Some((o.counts, c.module.instr_count())),
                Some((counts, _)) => {
                    tally.check(*counts == o.counts, || {
                        format!("{} variant {v}: counts differ across passes", b.name)
                    });
                }
            }
        }
        let pass_wall = pass_wall.as_secs_f64();
        match (tracer.as_mut(), traced) {
            (Some(t), true) => t.layers.traced_rounds.push(pass_wall),
            (Some(t), false) => t.layers.untraced_rounds.push(pass_wall),
            (None, _) => {
                wall.push(pass_wall);
                execute.push(exec.as_secs_f64());
            }
        }
        last_pass = pass_start.elapsed();
        pass += 1;
    }

    if let Some(t) = tracer {
        t.layers.report(&setup.sessions[0], &mut out);
    } else {
        out.metric(
            "wall_s",
            wall.median(),
            "s",
            format!("one pass of 56 compile+run jobs, n={}", wall.len()),
        );
        out.job_latency(
            "compile_ms",
            &rounds.compile_ms,
            "one job, source to printed IL",
        );
        out.metric(
            "execute_s",
            execute.median(),
            "s",
            format!("VM time of one pass, n={}", execute.len()),
        );
        out.job_latency(
            "edit_ms",
            &rounds.edit_ms,
            "one added function, cold recompile",
        );
    }

    // Counts from the first pass: the promoted variants give the paper's
    // dynamic numbers; every variant's module gives the code size.
    let counts: Vec<Option<ExecCounts>> = first.iter().map(|f| f.map(|f| f.0)).collect();
    let promoted: ExecCounts = jobs
        .iter()
        .zip(&counts)
        .filter(|((_, v), _)| promotes[*v])
        .filter_map(|(_, c)| *c)
        .fold(ExecCounts::default(), |a, c| a + c);
    if !run.trace {
        let code: usize = first.iter().flatten().map(|f| f.1).sum();
        dyn_metrics(&mut out, &promoted, "summed over the 28 promoted jobs");
        out.metric(
            "code_instrs",
            code as f64,
            "count",
            "optimized IL instructions over the 56 modules".into(),
        );
    }
    compare_figures(&mut out, &jobs, &counts);
    out.extra("passes", pass as f64, "count", String::new());
    out
}

/// The compile-only and edit rounds run between the jobs of each
/// untraced `figures` pass. A round compiles all 56 jobs in a seeded
/// order, so every job gets the same number of samples, spread through
/// the whole run as the VM time is. The latencies are per job: the jobs'
/// compile times differ by program and variant, so pooled samples form a
/// mixture of 56 modes whose percentiles jump from one mode to the next
/// between runs, while each job's own samples have one mode.
struct Rounds {
    /// Per job: source to printed IL.
    compile_ms: Vec<Samples>,
    /// Per job: the program with one function added, recompiled.
    edit_ms: Vec<Samples>,
    done: u64,
    edits: u64,
}

impl Rounds {
    fn new(jobs: usize) -> Rounds {
        Rounds {
            compile_ms: vec![Samples::default(); jobs],
            edit_ms: vec![Samples::default(); jobs],
            done: 0,
            edits: 0,
        }
    }

    /// One compile round, each compile checked against `expected`, then
    /// one edit round.
    fn run(
        &mut self,
        jobs: &[(usize, usize)],
        sessions: &[Session],
        expected: &[Option<String>],
        seed: u64,
        tally: &mut Tally,
    ) {
        let suite = benchsuite::SUITE;
        self.done += 1;
        let mut order: Vec<usize> = (0..jobs.len()).collect();
        shuffle(&mut order, mix(seed ^ mix(!self.done)));
        for &j in &order {
            let (p, v) = jobs[j];
            let t = Instant::now();
            let c = compile(&sessions[v], suite[p].source);
            let elapsed = t.elapsed();
            if let Some(c) = tally.ok(c, suite[p].name) {
                self.compile_ms[j].push_ms(elapsed);
                tally.check(expected[j].as_ref() == Some(&c.il), || {
                    format!("{} variant {v}: IL differs across compiles", suite[p].name)
                });
            }
        }
        // Each job's program with one function added, recompiled on its
        // (cache-less) session.
        for &j in &order {
            let (p, v) = jobs[j];
            self.edits += 1;
            let src = format!(
                "{}\nint perfbench_edit{n}() {{ return {n}; }}\n",
                suite[p].source,
                n = self.edits
            );
            let t = Instant::now();
            let c = compile(&sessions[v], &src);
            let elapsed = t.elapsed();
            if tally.ok(c, suite[p].name).is_some() {
                self.edit_ms[j].push_ms(elapsed);
            }
        }
    }
}

fn dyn_metrics(out: &mut Outcome, c: &ExecCounts, what: &str) {
    out.metric("dyn_ops", c.total as f64, "count", what.into());
    out.metric("dyn_loads", c.loads as f64, "count", what.into());
    out.metric("dyn_stores", c.stores as f64, "count", what.into());
}

/// Renders Figures 5–7 from the measured counts and compares every row
/// with `results/figures.txt`. Differing rows are counted and listed by
/// name; none is masked.
fn compare_figures(out: &mut Outcome, jobs: &[(usize, usize)], counts: &[Option<ExecCounts>]) {
    // `figure_variants` lists each analysis without, then with,
    // promotion: variants 2a and 2a+1 make analysis a's row.
    let configs = PipelineConfig::figure_variants();
    let count = |p: usize, v: usize| {
        let j = jobs.iter().position(|&job| job == (p, v))?;
        counts[j]
    };
    let mut rows = Vec::new();
    for (p, b) in benchsuite::SUITE.iter().enumerate() {
        for a in 0..configs.len() / 2 {
            if let (Some(without), Some(with)) = (count(p, 2 * a), count(p, 2 * a + 1)) {
                rows.push(MeasurementRow {
                    program: b.name.to_string(),
                    analysis: configs[2 * a].1.analysis,
                    without,
                    with,
                });
            }
        }
    }
    let mut mismatched = Vec::new();
    let mut compared = 0;
    for metric in [Metric::TotalOps, Metric::Stores, Metric::Loads] {
        let committed = committed_rows(metric.figure());
        for row in &rows {
            compared += 1;
            let measured = normalize(&row.format(metric));
            let key = (row.program.as_str(), row.analysis.label());
            let found = committed
                .iter()
                .find(|(k, _)| *k == key)
                .map(|(_, line)| normalize(line));
            if found.as_ref() != Some(&measured) {
                mismatched.push(format!(
                    "Figure {} {} {}: measured `{measured}`, committed `{}`",
                    metric.figure(),
                    key.0,
                    key.1,
                    found.as_deref().unwrap_or("(missing)")
                ));
            }
        }
    }
    out.extra(
        "figures_rows_mismatched",
        mismatched.len() as f64,
        "count",
        format!("of {compared} rows compared with results/figures.txt"),
    );
    out.notes.extend(mismatched);
}

/// `((program, analysis), line)` for every data row of figure `figure`
/// in the committed file.
fn committed_rows(figure: u32) -> Vec<((&'static str, &'static str), &'static str)> {
    let header = format!("Figure {figure}:");
    COMMITTED_FIGURES
        .lines()
        .skip_while(|l| !l.starts_with(&header))
        .skip(2)
        .take_while(|l| !l.trim().is_empty() && !l.starts_with("Figure"))
        .filter_map(|l| {
            let mut words = l.split_whitespace();
            Some(((words.next()?, words.next()?), l))
        })
        .collect()
}

fn normalize(line: &str) -> String {
    line.split_whitespace().collect::<Vec<_>>().join(" ")
}

// ---------------------------------------------------------------------
// compile-scaled and edit-loop
// ---------------------------------------------------------------------

struct ScaledSetup {
    /// A default session: no cache.
    cold: Session,
    /// An incremental session with the module already in its cache
    /// (`edit-loop` only).
    warm: Option<Session>,
}

fn scaled_setup(src: &str, incremental: bool) -> ScaledSetup {
    let cold = Session::default();
    let _ = compile(&cold, src);
    let warm = incremental.then(|| {
        let warm = Session::builder().incremental(true).build();
        let _ = compile(&warm, src);
        warm
    });
    ScaledSetup { cold, warm }
}

/// Checks the scaled module against the unoptimized reference, outside
/// the timed region, and reports the size of its optimized code.
fn check_scaled(out: &mut Outcome, session: &Session, src: &str, run: &Run) -> Option<Compiled> {
    let tally = &mut out.tally;
    let reference = reference_session();
    let r = tally.ok(compile(&reference, src), "reference compile")?;
    let r = tally.ok(
        Vm::run_main(&r.module, VmOptions::default()),
        "reference run",
    )?;
    let c = tally.ok(compile(session, src), "compile")?;
    let o = tally.ok(Vm::run_main(&c.module, VmOptions::default()), "run")?;
    tally.check(o.output == r.output, || {
        "scaled module: output differs from the unoptimized reference".into()
    });
    if !run.trace {
        out.metric(
            "code_instrs",
            c.module.instr_count() as f64,
            "count",
            "optimized IL instructions".into(),
        );
    }
    Some(c)
}

/// The 28 promoted figure jobs on a workload that does not run the suite
/// itself: the source of its `dyn_*` and `execute_s`. Each job is
/// compiled, executed and checked against the unoptimized reference. The
/// jobs are spread evenly over the measured window, so `execute_s`
/// samples the whole run rather than one moment of it.
struct PromotedSuite {
    sessions: Vec<(String, Session)>,
    reference: Vec<Option<Vec<String>>>,
    done: usize,
    counts: ExecCounts,
    exec: Duration,
}

impl PromotedSuite {
    fn new(tally: &mut Tally) -> PromotedSuite {
        let reference_session = reference_session();
        let reference = benchsuite::SUITE
            .iter()
            .map(|b| {
                let c = tally.ok(compile(&reference_session, b.source), b.name)?;
                let o = tally.ok(Vm::run_main(&c.module, VmOptions::default()), b.name)?;
                Some(o.output)
            })
            .collect();
        let sessions = PipelineConfig::figure_variants()
            .into_iter()
            .filter(|(_, config)| config.promote)
            .map(|(label, config)| (label, Session::from_config(config)))
            .collect();
        PromotedSuite {
            sessions,
            reference,
            done: 0,
            counts: ExecCounts::default(),
            exec: Duration::ZERO,
        }
    }

    fn jobs(&self) -> usize {
        benchsuite::SUITE.len() * self.sessions.len()
    }

    /// Runs every job whose turn has come `elapsed` into `budget`.
    fn run_due(&mut self, elapsed: Duration, budget: Duration, tally: &mut Tally) {
        let share = elapsed.as_secs_f64() / budget.as_secs_f64();
        let due = ((share * self.jobs() as f64) as usize + 1).min(self.jobs());
        while self.done < due {
            self.run_next(tally);
        }
    }

    fn run_next(&mut self, tally: &mut Tally) {
        let (p, v) = (
            self.done / self.sessions.len(),
            self.done % self.sessions.len(),
        );
        self.done += 1;
        let (b, (label, session)) = (&benchsuite::SUITE[p], &self.sessions[v]);
        let Some(c) = tally.ok(compile(session, b.source), b.name) else {
            return;
        };
        let t = Instant::now();
        let o = Vm::run_main(&c.module, VmOptions::default());
        self.exec += t.elapsed();
        let Some(o) = tally.ok(o, b.name) else {
            return;
        };
        tally.check(self.reference[p].as_ref() == Some(&o.output), || {
            format!("{} {label}: output differs from the reference", b.name)
        });
        self.counts += o.counts;
    }

    /// Runs the jobs the measured window left, then reports.
    fn finish(mut self, out: &mut Outcome, run: &Run) {
        while self.done < self.jobs() {
            self.run_next(&mut out.tally);
        }
        if !run.trace {
            out.metric(
                "execute_s",
                self.exec.as_secs_f64(),
                "s",
                "VM time of the 28 promoted suite jobs".into(),
            );
            dyn_metrics(out, &self.counts, "summed over the 28 promoted suite jobs");
        }
    }
}

fn module_note(out: &mut Outcome, module: &ScaledModule, src: &str, functions: usize) {
    out.notes.push(format!(
        "module: {} parts, {} functions, {} bytes of source",
        module.parts(),
        functions,
        src.len()
    ));
}

/// Repeated cold compiles of one scaled module.
fn compile_scaled(run: &Run) -> Outcome {
    let mut out = Outcome::default();
    let module = ScaledModule::generate(TARGET_INSTRS, run.seed);
    let src = module.source();
    let (s, setup_times) = timed_setups(|| scaled_setup(&src, false));
    setup_metric(&mut out, run, &setup_times, "session, warm-up compile");
    let Some(base) = check_scaled(&mut out, &s.cold, &src, run) else {
        return out;
    };
    let mut suite = PromotedSuite::new(&mut out.tally);
    module_note(&mut out, &module, &src, base.module.funcs.len());
    let mut tracer = Tracer::new(run.trace);
    let (mut compile_ms, mut edit_ms) = (Samples::default(), Samples::default());
    let mut plan = EditPlan::new(run.seed, module.parts());
    let mut edited = module;
    let start = Instant::now();
    let mut round = 0u64;
    while round < 2 || start.elapsed() < run.budget {
        let traced = run.trace && round % 2 == 1;
        let tally = &mut out.tally;
        suite.run_due(start.elapsed(), run.budget, tally);
        let t = Instant::now();
        let c = compile_with(tracer.as_mut().filter(|_| traced), &s.cold, &src);
        let elapsed = t.elapsed();
        if let Some(c) = tally.ok(c, "compile") {
            tally.check(c.il == base.il, || {
                "printed IL differs across repetitions".into()
            });
        }
        match (tracer.as_mut(), traced) {
            (Some(t), true) => t.layers.traced_rounds.push_ms(elapsed),
            (Some(t), false) => t.layers.untraced_rounds.push_ms(elapsed),
            (None, _) => compile_ms.push_ms(elapsed),
        }
        if !run.trace {
            // A one-function edit recompiled on the same cache-less
            // session.
            let src = edit_step(&mut edited, &mut plan, tally);
            let t = Instant::now();
            let c = compile(&s.cold, &src);
            let elapsed = t.elapsed();
            if tally.ok(c, "edited compile").is_some() {
                edit_ms.push_ms(elapsed);
            }
        }
        round += 1;
    }
    suite.finish(&mut out, run);
    match tracer {
        Some(t) => t.layers.report(&s.cold, &mut out),
        None => {
            out.metric(
                "wall_s",
                compile_ms.median() / 1e3,
                "s",
                format!("one cold compile, n={}", compile_ms.len()),
            );
            out.latency("compile_ms", &compile_ms, "cold, source to printed IL");
            out.latency("edit_ms", &edit_ms, "one-function edit, cold recompile");
        }
    }
    out
}

/// Applies the plan's next single-function edit and returns the new
/// source; counts an edit that left the text unchanged as a failure.
fn edit_step(module: &mut ScaledModule, plan: &mut EditPlan, tally: &mut Tally) -> String {
    let (part, changed) = plan.apply(module);
    tally.check(changed, || {
        format!("16 edits of part {part} left its text unchanged")
    });
    module.source()
}

/// A seeded sequence of single-function edits, each recompiled warm on an
/// incremental session and checked against a cold compile.
fn edit_loop(run: &Run) -> Outcome {
    let mut out = Outcome::default();
    let mut module = ScaledModule::generate(TARGET_INSTRS, run.seed);
    let src = module.source();
    let (mut s, setup_times) = timed_setups(|| scaled_setup(&src, true));
    setup_metric(
        &mut out,
        run,
        &setup_times,
        "two sessions, warm-up compiles",
    );
    let Some(base) = check_scaled(&mut out, &s.cold, &src, run) else {
        return out;
    };
    let mut suite = PromotedSuite::new(&mut out.tally);
    module_note(&mut out, &module, &src, base.module.funcs.len());
    let warm = s
        .warm
        .take()
        .expect("edit-loop sets up an incremental session");
    let mut plan = EditPlan::new(run.seed, module.parts());
    let mut tracer = Tracer::new(run.trace);
    let (mut compile_ms, mut edit_ms) = (Samples::default(), Samples::default());
    let (mut recompiled, mut summary_invalidated, mut hits, mut total) = (0, 0, 0, 0);
    let start = Instant::now();
    let mut step = 0u64;
    while step < 2 || start.elapsed() < run.budget {
        let traced = run.trace && step % 2 == 1;
        let tally = &mut out.tally;
        suite.run_due(start.elapsed(), run.budget, tally);
        let src = edit_step(&mut module, &mut plan, tally);
        let t = Instant::now();
        let c = compile_with(tracer.as_mut().filter(|_| traced), &warm, &src);
        let elapsed = t.elapsed();
        match (tracer.as_mut(), traced) {
            (Some(t), true) => t.layers.traced_rounds.push_ms(elapsed),
            (Some(t), false) => t.layers.untraced_rounds.push_ms(elapsed),
            (None, _) => edit_ms.push_ms(elapsed),
        }
        // The check: a cold compile of the same source, timed as a
        // compile but outside the edit's time.
        let t = Instant::now();
        let cold = compile(&s.cold, &src);
        let cold_elapsed = t.elapsed();
        if let (Some(c), Some(cold)) = (tally.ok(c, "warm compile"), tally.ok(cold, "cold compile"))
        {
            compile_ms.push_ms(cold_elapsed);
            tally.check(c.il == cold.il, || {
                format!("edit {step}: warm IL differs from a cold compile")
            });
            if let Some(inc) = &c.report.incremental {
                recompiled += inc.funcs_recompiled;
                summary_invalidated += inc.summary_invalidated;
                hits += inc.cache_hits;
                total += inc.funcs_total;
            }
        }
        step += 1;
    }
    suite.finish(&mut out, run);
    match tracer {
        Some(t) => t.layers.report(&warm, &mut out),
        None => {
            out.metric(
                "wall_s",
                edit_ms.median() / 1e3,
                "s",
                format!("one edit recompiled warm, n={}", edit_ms.len()),
            );
            out.latency(
                "compile_ms",
                &compile_ms,
                "cold compile of each edited source",
            );
            out.latency("edit_ms", &edit_ms, "one-function edit, warm recompile");
        }
    }
    out.extra(
        "funcs_recompiled",
        recompiled as f64,
        "count",
        format!(
            "over {step} edits; {summary_invalidated} with unchanged bodies; hit rate {:.3}",
            hits as f64 / total.max(1) as f64
        ),
    );
    out
}
