//! Samples, correctness tallies, and the metric table a run prints.

use std::fmt::Write as _;
use std::time::Duration;

/// The tail percentile, used whenever at least ten samples lie beyond
/// it (40 samples or more). Runs with fewer samples fall back to the
/// highest percentile that still leaves ten beyond it, but never below the
/// median. Higher percentiles are not used: on a shared 2-vCPU host,
/// stalls of a few seconds that double every latency decide p90 in some
/// runs and not in others, and p75 is the highest percentile that kept the
/// run-to-run spread within the benchmark's bounds.
const TAIL_PERCENTILE: u32 = 75;

/// Timing samples of one kind, in the unit they were pushed in.
#[derive(Debug, Default, Clone)]
pub struct Samples(Vec<f64>);

impl Samples {
    pub fn push(&mut self, v: f64) {
        self.0.push(v);
    }

    pub fn push_ms(&mut self, d: Duration) {
        self.0.push(d.as_secs_f64() * 1e3);
    }

    pub fn len(&self) -> usize {
        self.0.len()
    }

    fn sorted(&self) -> Vec<f64> {
        let mut v = self.0.clone();
        v.sort_by(f64::total_cmp);
        v
    }

    pub fn median(&self) -> f64 {
        percentile(&self.sorted(), 50.0)
    }

    /// The tail percentile and its value: [`TAIL_PERCENTILE`] when at
    /// least ten samples lie beyond it, else the highest whole percentile
    /// from p50 up that does (p50 itself below 20 samples).
    pub fn tail(&self) -> (u32, f64) {
        let sorted = self.sorted();
        let n = sorted.len();
        let pct = if beyond(n, TAIL_PERCENTILE) >= 10 {
            TAIL_PERCENTILE
        } else {
            (50..TAIL_PERCENTILE)
                .rev()
                .find(|&p| beyond(n, p) >= 10)
                .unwrap_or(50)
        };
        (pct, percentile(&sorted, f64::from(pct)))
    }
}

/// Samples strictly above the nearest-rank `pct` percentile of `n`.
fn beyond(n: usize, pct: u32) -> usize {
    n - rank(n, f64::from(pct))
}

/// Nearest-rank position (1-based) of the `pct` percentile among `n`.
fn rank(n: usize, pct: f64) -> usize {
    ((pct / 100.0 * n as f64).ceil() as usize).clamp(1, n.max(1))
}

fn percentile(sorted: &[f64], pct: f64) -> f64 {
    if sorted.is_empty() {
        return f64::NAN;
    }
    sorted[rank(sorted.len(), pct) - 1]
}

/// Attempted and failed operations (compiles, runs, checks), with the
/// first failures kept for the log.
#[derive(Debug, Default)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
    pub failures: Vec<String>,
}

impl Tally {
    /// Counts one check; records `what` when it fails.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) -> bool {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            if self.failures.len() < 20 {
                self.failures.push(what());
            }
        }
        ok
    }

    /// Counts one fallible operation, keeping its value when it succeeded.
    pub fn ok<T, E: std::fmt::Display>(&mut self, r: Result<T, E>, ctx: &str) -> Option<T> {
        match r {
            Ok(v) => {
                self.attempted += 1;
                Some(v)
            }
            Err(e) => {
                self.check(false, || format!("{ctx}: {e}"));
                None
            }
        }
    }

    pub fn error_rate(&self) -> f64 {
        self.failed as f64 / self.attempted.max(1) as f64
    }
}

/// One printed metric.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
    /// Sample count, percentile or other context for the human table.
    pub note: String,
}

/// Everything one workload run reports.
#[derive(Debug, Default)]
pub struct Outcome {
    /// The metrics the final JSON line carries.
    pub metrics: Vec<Metric>,
    /// Metrics printed for people but not carried in the JSON line.
    pub extra: Vec<Metric>,
    /// Free-form lines printed under the table (mismatched rows, ...).
    pub notes: Vec<String>,
    pub tally: Tally,
}

impl Outcome {
    pub fn metric(&mut self, name: &str, value: f64, unit: &'static str, note: String) {
        self.metrics.push(Metric {
            name: name.to_string(),
            value,
            unit,
            note,
        });
    }

    pub fn extra(&mut self, name: &str, value: f64, unit: &'static str, note: String) {
        self.extra.push(Metric {
            name: name.to_string(),
            value,
            unit,
            note,
        });
    }

    /// Median and tail of one latency, as `<base>.p50` and `<base>.tail`.
    pub fn latency(&mut self, base: &str, samples: &Samples, what: &str) {
        let (pct, tail) = samples.tail();
        let n = samples.len();
        self.metric(
            &format!("{base}.p50"),
            samples.median(),
            "ms",
            format!("{what}, n={n}"),
        );
        self.metric(
            &format!("{base}.tail"),
            tail,
            "ms",
            format!("p{pct} of n={n}"),
        );
    }

    /// Median and tail of a latency measured per job, as `<base>.p50`
    /// and `<base>.tail`: the mean over the jobs of each job's median and
    /// of each job's tail.
    pub fn job_latency(&mut self, base: &str, per_job: &[Samples], what: &str) {
        let jobs = per_job.len();
        let mean = |f: &dyn Fn(&Samples) -> f64| per_job.iter().map(f).sum::<f64>() / jobs as f64;
        let n = per_job.iter().map(Samples::len).min().unwrap_or(0);
        let pct = per_job.iter().map(|s| s.tail().0).min().unwrap_or(50);
        self.metric(
            &format!("{base}.p50"),
            mean(&Samples::median),
            "ms",
            format!("{what}; mean of {jobs} jobs' medians, n>={n} each"),
        );
        self.metric(
            &format!("{base}.tail"),
            mean(&|s| s.tail().1),
            "ms",
            format!("mean of {jobs} jobs' p{pct}, n>={n} each"),
        );
    }

    /// The human-readable table for one workload.
    pub fn render(&self, workload: &str) -> String {
        let mut out = format!("== {workload} ==\n");
        for m in self.metrics.iter().chain(&self.extra) {
            let _ = writeln!(
                out,
                "  {:<34} {:>16} {:<6} {}",
                m.name,
                format_value(m.value),
                m.unit,
                m.note
            );
        }
        for line in &self.notes {
            let _ = writeln!(out, "  {line}");
        }
        out
    }
}

fn format_value(v: f64) -> String {
    if v.fract() == 0.0 && v.abs() < 1e15 {
        format!("{v:.0}")
    } else if v.abs() >= 100.0 {
        format!("{v:.1}")
    } else {
        format!("{v:.4}")
    }
}

/// The final JSON line: `correct`, `attempted`, `failed`, and every
/// metric with its unit, each value with all its digits. A run is
/// correct when nothing failed and every metric was measured.
pub fn json_line(metrics: &[Metric], attempted: u64, failed: u64) -> String {
    let correct = failed == 0 && metrics.iter().all(|m| m.value.is_finite());
    let mut out = format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
        attempted.max(1),
        failed
    );
    for (i, m) in metrics.iter().enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        // JSON has no NaN or infinity; a metric that could not be
        // measured reads as null.
        let value = if m.value.is_finite() {
            format!("{}", m.value)
        } else {
            "null".to_string()
        };
        let _ = write!(
            out,
            "{sep}\"{}\": {{\"value\": {value}, \"unit\": \"{}\"}}",
            m.name, m.unit
        );
    }
    out.push_str("}}");
    out
}

/// Peak resident set size of this process, in MiB, from
/// `/proc/self/status`.
pub fn peak_rss_mib() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}

/// A splitmix64 step: derives independent seeds from one run seed.
pub fn mix(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// A seeded Fisher–Yates shuffle.
pub fn shuffle<T>(items: &mut [T], seed: u64) {
    let mut state = seed;
    for i in (1..items.len()).rev() {
        state = mix(state);
        items.swap(i, (state % (i as u64 + 1)) as usize);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_keeps_ten_samples_beyond() {
        let mut s = Samples::default();
        for i in 1..=100 {
            s.push(f64::from(i));
        }
        assert_eq!(s.tail(), (75, 75.0));
        assert_eq!(s.median(), 50.0);
        let mut small = Samples::default();
        for i in 1..=30 {
            small.push(f64::from(i));
        }
        // 30 samples: p66 is the highest that leaves ten beyond.
        assert_eq!(small.tail(), (66, 20.0));
    }

    #[test]
    fn job_latency_averages_each_jobs_percentiles() {
        let job = |base: u32| {
            let mut s = Samples::default();
            for i in 1..=100 {
                s.push(f64::from(base + i));
            }
            s
        };
        let mut out = Outcome::default();
        out.job_latency("compile_ms", &[job(0), job(100)], "one job");
        let values: Vec<f64> = out.metrics.iter().map(|m| m.value).collect();
        assert_eq!(values, [100.0, 125.0]);
        assert_eq!(out.metrics[1].note, "mean of 2 jobs' p75, n>=100 each");
    }

    #[test]
    fn json_line_has_the_result_keys() {
        let m = Metric {
            name: "setup_s".into(),
            value: 0.5,
            unit: "s",
            note: String::new(),
        };
        assert_eq!(
            json_line(&[m], 3, 0),
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \
             \"metrics\": {\"setup_s\": {\"value\": 0.5, \"unit\": \"s\"}}}"
        );
    }
}
