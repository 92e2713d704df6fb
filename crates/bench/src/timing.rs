//! Minimal `std::time::Instant` measurement helpers.
//!
//! The benches under `benches/` are plain `harness = false` binaries built
//! on these helpers instead of an external framework, so `cargo bench`
//! works with no network access. The protocol is deliberately simple:
//! a warmup call, then a fixed number of timed iterations, reporting the
//! minimum (least-noise estimate) and the mean.

use std::time::{Duration, Instant};

/// How many timed iterations [`time_case`] runs after warmup.
pub const DEFAULT_ITERS: usize = 10;

/// Summary of one measured case.
#[derive(Debug, Clone, Copy)]
pub struct Measurement {
    /// Fastest observed iteration.
    pub min: Duration,
    /// Mean over all timed iterations.
    pub mean: Duration,
    /// Number of timed iterations.
    pub iters: usize,
}

/// Times `f` for `iters` iterations (after one untimed warmup call).
pub fn measure(iters: usize, mut f: impl FnMut()) -> Measurement {
    f();
    let mut min = Duration::MAX;
    let mut total = Duration::ZERO;
    for _ in 0..iters {
        let start = Instant::now();
        f();
        let dt = start.elapsed();
        total += dt;
        if dt < min {
            min = dt;
        }
    }
    Measurement {
        min,
        mean: total / iters as u32,
        iters,
    }
}

/// Times `a` and `b` in alternation for `iters` rounds (after one untimed
/// warmup call of each), so slow drift in machine state — frequency
/// scaling, a neighbour's load — lands on both sides equally instead of
/// on whichever block happened to run during it.
pub fn measure_alternating(
    iters: usize,
    mut a: impl FnMut(),
    mut b: impl FnMut(),
) -> (Measurement, Measurement) {
    a();
    b();
    let (mut min_a, mut min_b) = (Duration::MAX, Duration::MAX);
    let (mut total_a, mut total_b) = (Duration::ZERO, Duration::ZERO);
    for _ in 0..iters {
        let start = Instant::now();
        a();
        let dt = start.elapsed();
        total_a += dt;
        min_a = min_a.min(dt);
        let start = Instant::now();
        b();
        let dt = start.elapsed();
        total_b += dt;
        min_b = min_b.min(dt);
    }
    let summary = |min, total: Duration| Measurement {
        min,
        mean: total / iters as u32,
        iters,
    };
    (summary(min_a, total_a), summary(min_b, total_b))
}

/// Measures `f` with [`DEFAULT_ITERS`] iterations and prints one
/// criterion-style result line.
pub fn time_case(label: &str, f: impl FnMut()) -> Measurement {
    let m = measure(DEFAULT_ITERS, f);
    println!(
        "{label:<40} min {:>12.3?}  mean {:>12.3?}  ({} iters)",
        m.min, m.mean, m.iters
    );
    m
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn measure_counts_iterations() {
        let mut calls = 0;
        let m = measure(5, || calls += 1);
        assert_eq!(calls, 6, "warmup + 5 timed iterations");
        assert_eq!(m.iters, 5);
        assert!(m.min <= m.mean);
    }

    #[test]
    fn measure_alternating_interleaves_the_two_sides() {
        let order = std::cell::RefCell::new(String::new());
        let (a, b) = measure_alternating(
            3,
            || order.borrow_mut().push('a'),
            || order.borrow_mut().push('b'),
        );
        assert_eq!(order.into_inner(), "abababab", "warmup pair + 3 rounds");
        assert_eq!((a.iters, b.iters), (3, 3));
        assert!(a.min <= a.mean && b.min <= b.mean);
    }
}
