//! Shared harness for regenerating the paper's tables and figures.
//!
//! Binaries in `src/bin/` drive this library:
//!
//! | binary | regenerates |
//! |--------|-------------|
//! | `figures` | Figures 5, 6 and 7 — total operations, stores, loads |
//! | `pointer_promotion_report` | §3.3's scalar-vs-pointer-based comparison |
//! | `anomalies` | the dhrystone / bison / water degradation stories |
//! | `ablation` | analysis-precision ablation (extension) |
//! | `pressure_ablation` | pressure-aware promotion cap sweep (extension) |
//!
//! Each writes its table to stdout; the committed copies live in
//! `results/`, and CI fails if a regenerated table differs.

#![warn(missing_docs)]

pub mod json;
pub mod timing;

use analysis::AnalysisLevel;
use driver::prelude::*;
use driver::{measure_program, MeasurementRow, Metric};

/// Compiles and executes one configuration through the Session API.
///
/// # Panics
///
/// Panics with `context` if the program fails to compile or run.
fn run_config(src: &str, config: PipelineConfig, context: &str) -> Outcome {
    Session::from_config(config)
        .compile_and_run(src)
        .unwrap_or_else(|e| panic!("{context}: {e}"))
        .outcome
        .expect("outcome populated")
}

/// Runs the paper's 2×2 experiment over the whole suite (or a named
/// subset), returning rows in suite order. Programs are measured
/// concurrently (one worker per core, via [`driver::parallel_map`]);
/// results come back in suite order, so every table is reproducible.
pub fn measure_suite(only: Option<&str>) -> Vec<MeasurementRow> {
    let programs: Vec<_> = benchsuite::SUITE
        .iter()
        .filter(|b| only.is_none_or(|name| b.name == name))
        .collect();
    let threads = driver::resolve_threads(None);
    driver::parallel_map(programs, threads, |_, b| {
        eprintln!("measuring {} ...", b.name);
        measure_program(b.name, b.source)
    })
    .into_iter()
    .flatten()
    .collect()
}

/// Renders one figure for previously measured rows.
pub fn figure_text(metric: Metric, rows: &[MeasurementRow]) -> String {
    driver::render_figure(metric, rows)
}

/// A row of the §3.3 comparison: scalar promotion vs scalar+pointer-based.
#[derive(Debug, Clone)]
pub struct PointerPromotionRow {
    /// Program name.
    pub program: String,
    /// Counts with scalar promotion only.
    pub scalar: vm::ExecCounts,
    /// Counts with scalar + pointer-based promotion.
    pub both: vm::ExecCounts,
}

/// Measures §3.3: how much pointer-based promotion adds over scalar
/// promotion, per program (the paper reports this only paid off for fft).
pub fn measure_pointer_promotion(only: Option<&str>) -> Vec<PointerPromotionRow> {
    let mut rows = Vec::new();
    for b in benchsuite::SUITE {
        if let Some(name) = only {
            if b.name != name {
                continue;
            }
        }
        eprintln!("measuring {} ...", b.name);
        let scalar_cfg = PipelineConfig::paper_variant(AnalysisLevel::PointsTo, true);
        let both_cfg = PipelineConfig {
            pointer_promote: true,
            ..PipelineConfig::paper_variant(AnalysisLevel::PointsTo, true)
        };
        let scalar = run_config(b.source, scalar_cfg, b.name);
        let both = run_config(b.source, both_cfg, b.name);
        assert_eq!(scalar.output, both.output, "{}: outputs diverged", b.name);
        rows.push(PointerPromotionRow {
            program: b.name.to_string(),
            scalar: scalar.counts,
            both: both.counts,
        });
    }
    rows
}

/// Renders the §3.3 comparison.
pub fn pointer_promotion_text(rows: &[PointerPromotionRow]) -> String {
    let mut out = String::new();
    out.push_str("Section 3.3: pointer-based promotion on top of scalar promotion\n");
    out.push_str(&format!(
        "{:<10} {:>12} {:>12} {:>8}   {:>10} {:>10} {:>8}\n",
        "program", "ops(scalar)", "ops(+ptr)", "Δops%", "st(scalar)", "st(+ptr)", "Δst%"
    ));
    for r in rows {
        let dops = pct(r.scalar.total, r.both.total);
        let dst = pct(r.scalar.stores, r.both.stores);
        out.push_str(&format!(
            "{:<10} {:>12} {:>12} {:>8.2}   {:>10} {:>10} {:>8.2}\n",
            r.program, r.scalar.total, r.both.total, dops, r.scalar.stores, r.both.stores, dst
        ));
    }
    out
}

fn pct(before: u64, after: u64) -> f64 {
    if before == 0 {
        0.0
    } else {
        100.0 * (before as f64 - after as f64) / before as f64
    }
}

/// One point of the register-pressure sweep (the `water` anomaly).
#[derive(Debug, Clone)]
pub struct PressurePoint {
    /// Machine register count.
    pub k: usize,
    /// Counts without promotion.
    pub without: vm::ExecCounts,
    /// Counts with promotion.
    pub with: vm::ExecCounts,
}

/// Sweeps the register count for one program, with and without promotion —
/// showing where spills give promotion's savings back (the paper's `water`
/// discussion; their 1997 allocator over-spilled, so the crossover on this
/// Briggs-conservative allocator sits at a smaller K).
pub fn pressure_sweep(source: &str, ks: &[usize]) -> Vec<PressurePoint> {
    let mut points = Vec::new();
    for &k in ks {
        let mut counts = Vec::new();
        for promote in [false, true] {
            let config = PipelineConfig {
                regalloc: Some(AllocOptions {
                    num_regs: k,
                    ..Default::default()
                }),
                ..PipelineConfig::paper_variant(AnalysisLevel::ModRef, promote)
            };
            let out = run_config(source, config, &format!("K={k} promote={promote}"));
            counts.push(out.counts);
        }
        points.push(PressurePoint {
            k,
            without: counts[0],
            with: counts[1],
        });
    }
    points
}

/// Renders a pressure sweep.
pub fn pressure_text(program: &str, points: &[PressurePoint]) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "Register-pressure sweep for {program} (memory ops = loads + stores)\n"
    ));
    out.push_str(&format!(
        "{:>4} {:>14} {:>14} {:>10}\n",
        "K", "mem(without)", "mem(with)", "Δ%"
    ));
    for p in points {
        let b = p.without.memory_ops();
        let a = p.with.memory_ops();
        out.push_str(&format!(
            "{:>4} {:>14} {:>14} {:>10.2}\n",
            p.k,
            b,
            a,
            pct(b, a)
        ));
    }
    out
}

/// Measures the ablation over analysis levels: % of stores removed by
/// promotion at each precision.
pub fn analysis_ablation(only: Option<&str>) -> String {
    let mut out = String::new();
    out.push_str("Analysis-precision ablation: % of stores removed by promotion\n");
    out.push_str(&format!(
        "{:<10} {:>10} {:>10} {:>10} {:>10}\n",
        "program", "addrtaken", "steens", "modref", "pointer"
    ));
    for b in benchsuite::SUITE {
        if let Some(name) = only {
            if b.name != name {
                continue;
            }
        }
        eprintln!("measuring {} ...", b.name);
        let mut cells = Vec::new();
        for level in [
            AnalysisLevel::AddressTaken,
            AnalysisLevel::Steensgaard,
            AnalysisLevel::ModRef,
            AnalysisLevel::PointsTo,
        ] {
            let mut counts = Vec::new();
            for promote in [false, true] {
                let config = PipelineConfig::paper_variant(level, promote);
                let out = run_config(b.source, config, &format!("{} {level}", b.name));
                counts.push(out.counts.stores);
            }
            cells.push(pct(counts[0], counts[1]));
        }
        out.push_str(&format!(
            "{:<10} {:>10.2} {:>10.2} {:>10.2} {:>10.2}\n",
            b.name, cells[0], cells[1], cells[2], cells[3]
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percent_helper() {
        assert_eq!(pct(100, 50), 50.0);
        assert_eq!(pct(0, 10), 0.0);
        assert!(pct(100, 110) < 0.0);
    }

    #[test]
    fn sweep_runs_on_a_small_program() {
        let src = r#"
int a; int b; int c; int d; int e; int f;
int main() {
    int i;
    for (i = 0; i < 50; i++) {
        a += i; b += i; c += i; d += i; e += i; f += i;
    }
    print_int(a + b + c + d + e + f);
    return 0;
}
"#;
        let points = pressure_sweep(src, &[4, 32]);
        assert_eq!(points.len(), 2);
        // At K=32 promotion wins decisively.
        let p32 = &points[1];
        assert!(p32.with.memory_ops() < p32.without.memory_ops());
    }
}
