//! The compiler's benchmark: three workloads, end-to-end metrics with
//! tracing off, and per-layer metrics from a separate traced run.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload figures|compile-scaled|edit-loop|all \
//!     --seed N --seconds S --trace 0|1
//! ```
//!
//! Run from the repository root. Each workload prints a table of its
//! metrics with units; the last line of standard output is one JSON
//! object with `correct`, `attempted`, `failed` and `metrics`. See
//! `README.md` beside this package for the workloads and metrics.

mod layers;
mod report;
mod scaled;
mod workloads;

use report::{json_line, Metric};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::Duration;
use workloads::{Run, Workload};

/// Routes allocations through `trace::CountingAlloc` only while a traced
/// compile runs, so untraced measurements pay one relaxed load per call.
struct SwitchedAlloc;

static COUNTING: AtomicBool = AtomicBool::new(false);

#[global_allocator]
static ALLOC: SwitchedAlloc = SwitchedAlloc;

/// Turns allocation counting on or off. The flag publishes no other data,
/// so `Relaxed` suffices.
pub fn counting(on: bool) {
    COUNTING.store(on, Ordering::Relaxed);
}

// SAFETY: every method forwards to `System` or to `CountingAlloc`, which
// itself forwards to `System` after counting, so memory from either path
// is `System` memory and may be freed or resized by the other.
unsafe impl GlobalAlloc for SwitchedAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract,
        // which both allocators share.
        unsafe {
            if COUNTING.load(Ordering::Relaxed) {
                trace::CountingAlloc.alloc(layout)
            } else {
                System.alloc(layout)
            }
        }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` (directly or through
        // `CountingAlloc`) with this `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // SAFETY: as for `dealloc`; the caller upholds `realloc`'s
        // contract on `new_size`.
        unsafe {
            if COUNTING.load(Ordering::Relaxed) {
                trace::CountingAlloc.realloc(ptr, layout, new_size)
            } else {
                System.realloc(ptr, layout, new_size)
            }
        }
    }
}

/// One compile's products: the optimized module, its printed IL, and the
/// pipeline report.
pub struct Compiled {
    pub module: ir::Module,
    pub il: String,
    pub report: driver::PipelineReport,
}

struct Args {
    workloads: Vec<Workload>,
    run: Run,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(s.is_finite() && s > 0.0 && s <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace must be 0 or 1".into()),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    let workloads = if workload == "all" {
        Workload::ALL.to_vec()
    } else {
        vec![Workload::parse(&workload).ok_or_else(|| format!("unknown workload {workload}"))?]
    };
    Ok(Args {
        workloads,
        run: Run {
            seed: seed.unwrap_or(1),
            budget: Duration::from_secs_f64(seconds.unwrap_or(10.0)),
            trace: trace.unwrap_or(false),
        },
    })
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    let single = args.workloads.len() == 1;
    let mut metrics: Vec<Metric> = Vec::new();
    let (mut attempted, mut failed) = (0, 0);
    for &w in &args.workloads {
        let out = workloads::run(w, &args.run);
        print!("{}", out.render(w.name()));
        for f in &out.tally.failures {
            eprintln!("perfbench: {}: FAILED {f}", w.name());
        }
        attempted += out.tally.attempted;
        failed += out.tally.failed;
        metrics.extend(out.metrics.into_iter().map(|mut m| {
            if !single {
                m.name = format!("{}/{}", w.name(), m.name);
            }
            m
        }));
    }
    println!(
        "workers: {} (available parallelism {})",
        driver::resolve_threads(None),
        std::thread::available_parallelism().map_or(0, |n| n.get())
    );
    println!("{}", json_line(&metrics, attempted, failed));
}
