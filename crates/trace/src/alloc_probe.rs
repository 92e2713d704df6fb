//! A counting global allocator for allocation-budget measurement.
//!
//! The zero-allocation hot loop is a *measured* property, not an aspired
//! one: the allocation-budget test and `perfbench` install
//! [`CountingAlloc`] as `#[global_allocator]` and read the counters
//! around the pipeline's steady-state compile. The counters are plain
//! statics, so code that reports them (e.g. the per-pass `allocs` of
//! `PassTiming`) links and runs unchanged even in binaries that did *not*
//! install the probe — everything just reads zero there.
//!
//! The probe counts every `alloc`/`realloc` call and its requested bytes;
//! frees are not tracked (the budget is about allocator traffic, not
//! peak footprint). Counters are process-wide and atomic, so
//! multi-threaded phases attribute their allocations to whichever phase
//! is being measured — which is exactly what a "the steady state
//! allocates nothing" gate wants, and why per-phase numbers are only
//! exact on single-threaded runs.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

static ALLOC_COUNT: AtomicU64 = AtomicU64::new(0);
static ALLOC_BYTES: AtomicU64 = AtomicU64::new(0);

/// A `#[global_allocator]` wrapper over [`System`] that counts
/// allocations and allocated bytes.
///
/// ```ignore
/// #[global_allocator]
/// static ALLOC: trace::CountingAlloc = trace::CountingAlloc;
/// ```
pub struct CountingAlloc;

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOC_COUNT.fetch_add(1, Ordering::Relaxed);
        ALLOC_BYTES.fetch_add(layout.size() as u64, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOC_COUNT.fetch_add(1, Ordering::Relaxed);
        ALLOC_BYTES.fetch_add(new_size as u64, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }
}

/// A snapshot of the process-wide allocation counters.
///
/// Subtract two snapshots ([`AllocStats::since`]) to charge a region of
/// code. All zeros when [`CountingAlloc`] is not installed.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct AllocStats {
    /// Allocator calls (`alloc` + `realloc`).
    pub count: u64,
    /// Bytes requested across those calls.
    pub bytes: u64,
}

impl AllocStats {
    /// Reads the current counter values.
    pub fn now() -> AllocStats {
        AllocStats {
            count: ALLOC_COUNT.load(Ordering::Relaxed),
            bytes: ALLOC_BYTES.load(Ordering::Relaxed),
        }
    }

    /// Accumulates `other`'s counters into `self` — for summing per-pass
    /// deltas across functions.
    pub fn merge(&mut self, other: &AllocStats) {
        self.count += other.count;
        self.bytes += other.bytes;
    }

    /// The traffic between `earlier` and this snapshot.
    pub fn since(&self, earlier: &AllocStats) -> AllocStats {
        AllocStats {
            count: self.count.saturating_sub(earlier.count),
            bytes: self.bytes.saturating_sub(earlier.bytes),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn since_subtracts() {
        let a = AllocStats {
            count: 10,
            bytes: 100,
        };
        let b = AllocStats {
            count: 25,
            bytes: 160,
        };
        assert_eq!(
            b.since(&a),
            AllocStats {
                count: 15,
                bytes: 60
            }
        );
    }

    #[test]
    fn now_is_monotonic() {
        let a = AllocStats::now();
        let b = AllocStats::now();
        assert!(b.count >= a.count && b.bytes >= a.bytes);
    }
}
