//! `promoc` — the register-promotion compiler, as a command-line tool.
//!
//! ```text
//! promoc run     FILE [flags]      compile, optimize, execute, report counts
//! promoc compile FILE [flags]      print the optimized IL
//! promoc measure FILE              the paper's 2x2 experiment on one file
//! promoc bench   NAME              the 2x2 experiment on a suite program
//! promoc suite                     list the benchmark suite
//!
//! flags:
//!   --analysis addrtaken|steens|modref|pointer|pointer-ssa   (default modref)
//!   --no-promote          disable register promotion
//!   --ptr-promote         enable §3.3 pointer-based promotion
//!   --no-opt              disable the scalar optimizer
//!   --no-regalloc         keep virtual registers
//!   --regs K              machine registers (default 32)
//!   --max-steps N         VM step budget
//!   --remarks             print optimization remarks to stderr
//!   --trace-json PATH     write the structured trace as JSONL ("-" = stdout)
//! ```

use analysis::AnalysisLevel;
use driver::{measure_program, Compilation, Metric, Session};
use regalloc::AllocOptions;
use std::io::{self, Write};
use std::process::ExitCode;

fn usage() -> ! {
    eprintln!("{}", HELP.trim());
    std::process::exit(2);
}

const HELP: &str = r#"
promoc — the register-promotion compiler (Cooper & Lu, PLDI 1997)

usage:
  promoc run     FILE [flags]   compile, optimize, execute, report counts
  promoc compile FILE [flags]   print the optimized IL
  promoc measure FILE           the paper's 2x2 experiment on one file
  promoc bench   NAME           the 2x2 experiment on a suite program
  promoc suite                  list the benchmark suite

flags:
  --analysis addrtaken|steens|modref|pointer|pointer-ssa   (default modref)
  --no-promote      disable register promotion
  --ptr-promote     enable §3.3 pointer-based promotion
  --no-opt          disable the scalar optimizer
  --no-regalloc     keep virtual registers
  --regs K          machine registers (default 32)
  --max-steps N     VM step budget
  --remarks         print optimization remarks (what was promoted where,
                    what was blocked and why, what spilled) to stderr
  --trace-json PATH write the structured trace as JSONL; "-" for stdout
"#;

struct Options {
    builder: driver::SessionBuilder,
    remarks: bool,
    trace_json: Option<String>,
}

fn parse_flags(args: &[String]) -> Result<Options, String> {
    let mut builder = Session::builder();
    let mut remarks = false;
    let mut trace_json: Option<String> = None;
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--analysis" => {
                i += 1;
                let level = args.get(i).ok_or("--analysis needs a value")?;
                builder = builder.analysis(match level.as_str() {
                    "addrtaken" => AnalysisLevel::AddressTaken,
                    "steens" => AnalysisLevel::Steensgaard,
                    "modref" => AnalysisLevel::ModRef,
                    "pointer" => AnalysisLevel::PointsTo,
                    "pointer-ssa" => AnalysisLevel::PointsToSsa,
                    other => return Err(format!("unknown analysis level `{other}`")),
                });
            }
            "--no-promote" => builder = builder.promote(false),
            "--ptr-promote" => builder = builder.pointer_promote(true),
            "--no-opt" => builder = builder.optimize(false),
            "--no-regalloc" => builder = builder.regalloc(None),
            "--regs" => {
                i += 1;
                let k: usize = args
                    .get(i)
                    .ok_or("--regs needs a value")?
                    .parse()
                    .map_err(|_| "--regs needs an integer")?;
                builder = builder.regalloc(Some(AllocOptions {
                    num_regs: k,
                    ..Default::default()
                }));
            }
            "--max-steps" => {
                i += 1;
                builder = builder.max_steps(
                    args.get(i)
                        .ok_or("--max-steps needs a value")?
                        .parse()
                        .map_err(|_| "--max-steps needs an integer")?,
                );
            }
            "--remarks" => remarks = true,
            "--trace-json" => {
                i += 1;
                trace_json = Some(args.get(i).ok_or("--trace-json needs a path")?.clone());
            }
            other => return Err(format!("unknown flag `{other}`")),
        }
        i += 1;
    }
    if remarks || trace_json.is_some() {
        builder = builder.trace(true);
    }
    Ok(Options {
        builder,
        remarks,
        trace_json,
    })
}

/// Why a command stopped: a message for the user, or a failed write to
/// stdout (a closed pipe among them, which ends the program quietly).
enum Failure {
    Message(String),
    Stdout(io::Error),
}

impl From<String> for Failure {
    fn from(message: String) -> Self {
        Failure::Message(message)
    }
}

impl From<io::Error> for Failure {
    fn from(e: io::Error) -> Self {
        Failure::Stdout(e)
    }
}

/// Emits the requested trace outputs: remarks to stderr, JSONL to the
/// requested path (or `out` for `-`).
fn emit_trace(opts: &Options, c: &Compilation, out: &mut impl Write) -> Result<(), Failure> {
    if opts.remarks {
        eprint!("{}", c.remarks_text());
    }
    if let Some(path) = &opts.trace_json {
        let jsonl = c.trace_jsonl();
        if path == "-" {
            out.write_all(jsonl.as_bytes())?;
        } else {
            std::fs::write(path, jsonl).map_err(|e| format!("{path}: {e}"))?;
        }
    }
    Ok(())
}

fn cmd_run(path: &str, opts: Options, out: &mut impl Write) -> Result<(), Failure> {
    let src = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let session = opts.builder.clone().build();
    let c = session.compile_and_run(&src).map_err(|e| e.to_string())?;
    emit_trace(&opts, &c, out)?;
    let outcome = c.outcome.as_ref().expect("run populates the outcome");
    for line in &outcome.output {
        writeln!(out, "{line}")?;
    }
    eprintln!("; exit code  {}", outcome.exit_code);
    eprintln!(
        "; executed   total={} loads={} stores={} copies={} calls={}",
        outcome.counts.total,
        outcome.counts.loads,
        outcome.counts.stores,
        outcome.counts.copies,
        outcome.counts.calls
    );
    eprintln!(
        "; promotion  {} tags, {} refs rewritten, {} lift ops",
        c.report.promotion.scalar.promoted_tags,
        c.report.promotion.scalar.rewritten_refs,
        c.report.promotion.scalar.lifts
    );
    if let Some(a) = &c.report.alloc {
        eprintln!(
            "; regalloc   {} coalesced, {} spilled, {} rematerialized",
            a.coalesced, a.spilled, a.rematerialized
        );
    }
    Ok(())
}

fn cmd_compile(path: &str, opts: Options, out: &mut impl Write) -> Result<(), Failure> {
    let src = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let session = opts.builder.clone().build();
    let c = session.compile(&src).map_err(|e| e.to_string())?;
    emit_trace(&opts, &c, out)?;
    write!(out, "{}", c.module)?;
    Ok(())
}

fn cmd_measure(name: &str, source: &str, out: &mut impl Write) -> Result<(), Failure> {
    let rows = measure_program(name, source);
    for metric in [Metric::TotalOps, Metric::Stores, Metric::Loads] {
        writeln!(out, "{}", driver::render_figure(metric, &rows))?;
    }
    Ok(())
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some(cmd) = args.first() else { usage() };
    // Every stdout write goes through one locked handle and reports its
    // error, so a reader that hangs up early (`promoc ... | head`) ends
    // the program instead of panicking inside `println!`.
    let out = &mut io::stdout().lock();
    let result = match cmd.as_str() {
        "run" | "compile" => {
            let Some(path) = args.get(1) else { usage() };
            match parse_flags(&args[2..]) {
                Ok(opts) if cmd == "run" => cmd_run(path, opts, out),
                Ok(opts) => cmd_compile(path, opts, out),
                Err(e) => Err(e.into()),
            }
        }
        "measure" => {
            let Some(path) = args.get(1) else { usage() };
            match std::fs::read_to_string(path) {
                Ok(src) => cmd_measure(path, &src, out),
                Err(e) => Err(format!("{path}: {e}").into()),
            }
        }
        "bench" => {
            let Some(name) = args.get(1) else { usage() };
            match benchsuite::find(name) {
                Some(b) => cmd_measure(b.name, b.source, out),
                None => Err(format!("unknown benchmark `{name}`; try `promoc suite`").into()),
            }
        }
        "suite" => benchsuite::SUITE
            .iter()
            .try_for_each(|b| writeln!(out, "{:<10} {}", b.name, b.description))
            .map_err(Failure::from),
        "--help" | "-h" | "help" => writeln!(out, "{}", HELP.trim()).map_err(Failure::from),
        _ => usage(),
    };
    match result.and_then(|()| out.flush().map_err(Failure::from)) {
        Ok(()) => ExitCode::SUCCESS,
        Err(Failure::Stdout(e)) if e.kind() == io::ErrorKind::BrokenPipe => ExitCode::SUCCESS,
        Err(Failure::Stdout(e)) => {
            eprintln!("promoc: stdout: {e}");
            ExitCode::FAILURE
        }
        Err(Failure::Message(e)) => {
            eprintln!("promoc: {e}");
            ExitCode::FAILURE
        }
    }
}
