//! Persistent worker pool for per-function pipeline stages.
//!
//! Every per-function pass in the pipeline reads at most the shared tag
//! table and writes only its own [`ir::Function`], so the fan-out is
//! embarrassingly parallel. Earlier revisions spawned a fresh
//! `std::thread::scope` per pass — thirteen spawn rounds and thirteen full
//! barriers per compiled module, each wrapping sub-millisecond work — and
//! parked every item in its own `Mutex<Option<T>>` slot. That overhead
//! made the "parallel" pipeline *slower* than sequential on the whole
//! benchmark suite.
//!
//! [`WorkerPool`] fixes the architecture: worker threads are spawned once
//! (per [`crate::Session`], or once per process for batch drivers that
//! reuse a pool) and fed through a shared queue guarded by a mutex + condvar.
//! A batch submitted via [`WorkerPool::run`] moves items through the
//! queue's claim cursor and returns results over an `mpsc` channel — no
//! per-item locks, no per-item heap slots. The submitting thread drains
//! the batch alongside the workers, so a pool of `n` threads spawns only
//! `n - 1` OS threads and `threads <= 1` degenerates to a plain inline
//! loop with zero synchronization.
//!
//! Only `std` is used — no thread-pool crates — because the build must
//! work offline.

use crate::scratch::PassScratch;
use ir::{FuncId, Function};
use std::any::Any;
use std::collections::VecDeque;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::mpsc::{channel, Sender};
use std::sync::{Arc, Condvar, Mutex};

/// Picks the worker count: an explicit `threads` wins; otherwise the
/// `PROMO_THREADS` environment variable; otherwise
/// `std::thread::available_parallelism()`.
///
/// This is the *only* place `PROMO_THREADS` is read; see the README's
/// "Pipeline wall-clock benchmark" section for the user-facing semantics.
pub fn resolve_threads(threads: Option<usize>) -> usize {
    if let Some(n) = threads {
        return n.max(1);
    }
    if let Ok(v) = std::env::var("PROMO_THREADS") {
        if let Ok(n) = v.trim().parse::<usize>() {
            return n.max(1);
        }
    }
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// A borrowed batch, erased so the long-lived workers (whose closures must
/// be `'static`) can run it. Soundness argument at [`WorkerPool::run`]:
/// the submitting thread does not return until every queued handle has
/// been consumed and its `run` call has finished, so the pointee — a
/// stack-allocated `Batch` — strictly outlives all worker access.
struct BatchHandle(*const (dyn BatchRun + Sync));

// SAFETY: the pointee is `Sync` (shared access only) and, per the
// invariant above, outlives every use of the pointer.
unsafe impl Send for BatchHandle {}

trait BatchRun {
    fn run(&self);
}

/// Shared pool state: the job queue and its wakeup signal.
struct Shared {
    queue: Mutex<Queue>,
    available: Condvar,
}

struct Queue {
    jobs: VecDeque<BatchHandle>,
    shutdown: bool,
}

/// A persistent worker pool. Threads are spawned once, in [`new`], and
/// shut down (joined) when the pool is dropped; batches submitted through
/// [`run`] reuse them with no further spawns.
///
/// [`new`]: WorkerPool::new
/// [`run`]: WorkerPool::run
pub struct WorkerPool {
    shared: Arc<Shared>,
    handles: Vec<std::thread::JoinHandle<()>>,
    /// One pass-scratch arena per worker (including the submitting
    /// thread), claimed by [`WorkerPool::with_scratch`]. The slots live as
    /// long as the pool, so arenas stay warm across batches *and* across
    /// pipeline runs.
    scratches: Vec<Mutex<PassScratch>>,
    /// Recycled per-function analysis shells handed back by previous
    /// pipeline runs ([`WorkerPool::return_analyses`]) and drawn at the
    /// start of each run ([`WorkerPool::take_analyses`]), so artifact
    /// rebuilds land in warm buffers instead of fresh allocations.
    analyses: Mutex<Vec<cfg::FunctionAnalyses>>,
}

/// Upper bound on pooled analysis shells: enough for any realistic module,
/// small enough that one huge compilation does not pin its peak memory.
const MAX_POOLED_ANALYSES: usize = 256;

impl WorkerPool {
    /// Creates a pool with `threads` total workers. The calling thread
    /// counts as one: `threads - 1` OS threads are spawned, and
    /// `threads <= 1` spawns none at all (every [`run`] call then executes
    /// inline).
    ///
    /// [`run`]: WorkerPool::run
    pub fn new(threads: usize) -> WorkerPool {
        let shared = Arc::new(Shared {
            queue: Mutex::new(Queue {
                jobs: VecDeque::new(),
                shutdown: false,
            }),
            available: Condvar::new(),
        });
        let handles = (1..threads.max(1))
            .map(|_| {
                let shared = Arc::clone(&shared);
                std::thread::spawn(move || loop {
                    let job = {
                        let mut q = shared.queue.lock().expect("pool queue poisoned");
                        loop {
                            if let Some(job) = q.jobs.pop_front() {
                                break job;
                            }
                            if q.shutdown {
                                return;
                            }
                            q = shared.available.wait(q).expect("pool queue poisoned");
                        }
                    };
                    // SAFETY: `run` blocks the submitter until this call
                    // returns, so the pointee is alive.
                    unsafe { (*job.0).run() };
                })
            })
            .collect();
        let scratches = (0..threads.max(1))
            .map(|_| Mutex::new(PassScratch::default()))
            .collect();
        WorkerPool {
            shared,
            handles,
            scratches,
            analyses: Mutex::new(Vec::new()),
        }
    }

    /// Takes `n` per-function analysis shells, drawing recycled ones from
    /// the pool first and topping up with fresh ones. Recycled shells come
    /// back fully invalidated (every artifact stale, ledgers zeroed) but
    /// with their buffers warm, so the next build round allocates almost
    /// nothing. Hand them back with
    /// [`return_analyses`](Self::return_analyses) when the run is done.
    pub fn take_analyses(&self, n: usize) -> Vec<cfg::FunctionAnalyses> {
        let mut out = Vec::with_capacity(n);
        {
            // A poisoned pool mutex only means a panicking thread held it;
            // the shells are recycled below regardless, so keep them.
            let mut pool = self.analyses.lock().unwrap_or_else(|p| p.into_inner());
            let k = pool.len().min(n);
            let at = pool.len() - k;
            out.extend(pool.drain(at..));
        }
        for fa in &mut out {
            fa.recycle();
        }
        out.resize_with(n, cfg::FunctionAnalyses::new);
        out
    }

    /// Returns analysis shells taken with
    /// [`take_analyses`](Self::take_analyses) to the pool for the next
    /// run. Shells beyond the pool's cap are dropped.
    pub fn return_analyses(&self, mut shells: Vec<cfg::FunctionAnalyses>) {
        let mut pool = self.analyses.lock().unwrap_or_else(|p| p.into_inner());
        pool.append(&mut shells);
        pool.truncate(MAX_POOLED_ANALYSES);
    }

    /// Total worker count, including the submitting thread.
    pub fn threads(&self) -> usize {
        self.handles.len() + 1
    }

    /// Runs `f` with an exclusive claim on one of the pool's per-worker
    /// scratch arenas.
    ///
    /// There are exactly as many slots as threads that can concurrently
    /// drain a batch (the submitter plus every spawned worker) and a
    /// thread holds at most one claim at a time, so by pigeonhole the
    /// `try_lock` scan always finds a free slot; the yield loop only
    /// spins in the transient window where another thread is mid-release.
    pub fn with_scratch<R>(&self, f: impl FnOnce(&mut PassScratch) -> R) -> R {
        loop {
            for slot in &self.scratches {
                match slot.try_lock() {
                    Ok(mut scratch) => return f(&mut scratch),
                    Err(std::sync::TryLockError::Poisoned(poisoned)) => {
                        // A pass panicked mid-claim (the pool survives item
                        // panics), leaving this arena's contents suspect.
                        // Replace it with a cold one rather than wedging
                        // every later claimant on a poisoned slot.
                        let mut scratch = poisoned.into_inner();
                        *scratch = PassScratch::default();
                        return f(&mut scratch);
                    }
                    Err(std::sync::TryLockError::WouldBlock) => {}
                }
            }
            std::thread::yield_now();
        }
    }

    /// Applies `f` to every item, across the pool's workers plus the
    /// calling thread, and returns the results in item order. With no
    /// spawned workers (or fewer than two items) the whole batch runs
    /// inline.
    ///
    /// # Panics
    ///
    /// Propagates the first panic raised by `f` on any thread.
    pub fn run<T, R, F>(&self, items: Vec<T>, f: F) -> Vec<R>
    where
        T: Send,
        R: Send,
        F: Fn(usize, T) -> R + Sync,
    {
        let n = items.len();
        if self.handles.is_empty() || n <= 1 {
            return items
                .into_iter()
                .enumerate()
                .map(|(i, item)| f(i, item))
                .collect();
        }
        let (tx, rx) = channel::<(usize, R)>();
        let batch = Batch {
            work: Mutex::new(items.into_iter().enumerate()),
            results: tx,
            f,
            panic: Mutex::new(None),
            exits: Mutex::new(0usize),
            exited: Condvar::new(),
        };
        // Enqueue one handle per worker that could usefully help; the
        // submitting thread takes the batch too, so at most `n - 1`
        // helpers are woken.
        let helpers = self.handles.len().min(n - 1);
        {
            let erased: &(dyn BatchRun + Sync) = &batch;
            // SAFETY (lifetime erasure): see the wait below — this frame
            // does not return until `exits == helpers`.
            let erased: *const (dyn BatchRun + Sync) = unsafe { std::mem::transmute(erased) };
            let mut q = self.shared.queue.lock().expect("pool queue poisoned");
            for _ in 0..helpers {
                q.jobs.push_back(BatchHandle(erased));
            }
            if helpers == 1 {
                self.shared.available.notify_one();
            } else {
                self.shared.available.notify_all();
            }
        }
        // Work the batch on this thread as well. This also bumps the exit
        // count by one, so the queued handles are fully consumed exactly
        // when `exits == helpers + 1`.
        batch.run();
        // Wait until every helper that may have claimed a handle has left
        // the batch; afterwards no other thread can touch `batch`, `f`,
        // or the result channel.
        {
            let target = helpers + 1;
            let mut exited = batch.exits.lock().expect("batch exit lock poisoned");
            while *exited < target {
                exited = batch.exited.wait(exited).expect("batch exit lock poisoned");
            }
        }
        if let Some(payload) = batch.panic.lock().expect("panic slot poisoned").take() {
            std::panic::resume_unwind(payload);
        }
        drop(batch); // closes the last Sender, so the drain below ends
        let mut slots: Vec<Option<R>> = (0..n).map(|_| None).collect();
        for (i, r) in rx {
            slots[i] = Some(r);
        }
        slots
            .into_iter()
            .map(|s| s.expect("every item produced a result"))
            .collect()
    }

    /// Fans a per-function transformation out over `funcs`, returning one
    /// result per function in index order. The closure typically also
    /// captures a shared `&ir::TagTable` (functions and the tag table are
    /// disjoint fields of `ir::Module`, so both borrows coexist).
    pub fn run_funcs<R, F>(&self, funcs: &mut [Function], f: F) -> Vec<R>
    where
        R: Send,
        F: Fn(FuncId, &mut Function) -> R + Sync,
    {
        let items: Vec<&mut Function> = funcs.iter_mut().collect();
        self.run(items, |i, func| f(FuncId(i as u32), func))
    }
}

impl Drop for WorkerPool {
    fn drop(&mut self) {
        {
            let mut q = self.shared.queue.lock().expect("pool queue poisoned");
            q.shutdown = true;
        }
        self.shared.available.notify_all();
        for h in self.handles.drain(..) {
            // Workers never unwind (`Batch::run` catches item panics), so
            // a join error here would be a pool bug; surface it loudly.
            h.join().expect("pool worker panicked outside a batch");
        }
    }
}

/// One submitted batch: a claim cursor over the items, the result channel,
/// and panic/exit bookkeeping. Shared by reference with every thread that
/// drains it.
struct Batch<T, R, F> {
    work: Mutex<std::iter::Enumerate<std::vec::IntoIter<T>>>,
    results: Sender<(usize, R)>,
    f: F,
    panic: Mutex<Option<Box<dyn Any + Send>>>,
    exits: Mutex<usize>,
    exited: Condvar,
}

impl<T, R, F> BatchRun for Batch<T, R, F>
where
    T: Send,
    R: Send,
    F: Fn(usize, T) -> R + Sync,
{
    fn run(&self) {
        // Count the exit even if this frame unwinds, so the submitter's
        // wait can never hang. (It cannot actually unwind — item panics
        // are caught below — but the guard makes that non-load-bearing.)
        struct ExitGuard<'a>(&'a Mutex<usize>, &'a Condvar);
        impl Drop for ExitGuard<'_> {
            fn drop(&mut self) {
                let mut exits = self.0.lock().expect("batch exit lock poisoned");
                *exits += 1;
                // Notify while still holding the mutex. If the count were
                // published first, the submitter could wake (spuriously, or
                // from an earlier helper's notify), observe the final
                // count, return from `run`, and destroy the stack-allocated
                // batch while this thread still holds references into it —
                // a use-after-free on the condvar. Holding the lock across
                // the notify means the submitter cannot observe the final
                // count until this guard's unlock, after the last touch of
                // the batch.
                self.1.notify_all();
            }
        }
        let _guard = ExitGuard(&self.exits, &self.exited);
        loop {
            let next = self.work.lock().expect("batch work lock poisoned").next();
            let Some((i, item)) = next else { break };
            match catch_unwind(AssertUnwindSafe(|| (self.f)(i, item))) {
                Ok(r) => {
                    // The submitter keeps the receiver alive until after
                    // all exits; a send failure is unreachable, but there
                    // is nothing useful to do with one mid-batch anyway.
                    let _ = self.results.send((i, r));
                }
                Err(payload) => {
                    let mut slot = self.panic.lock().expect("panic slot poisoned");
                    slot.get_or_insert(payload);
                    break;
                }
            }
        }
    }
}

/// Applies `f` to every item on a throwaway pool of up to `threads`
/// workers, returning results in item order. Convenience wrapper for
/// one-shot callers; anything that fans out repeatedly should create a
/// [`WorkerPool`] once and call [`WorkerPool::run`].
///
/// # Panics
///
/// Propagates the first worker panic.
pub fn parallel_map<T, R, F>(items: Vec<T>, threads: usize, f: F) -> Vec<R>
where
    T: Send,
    R: Send,
    F: Fn(usize, T) -> R + Sync,
{
    if threads <= 1 || items.len() <= 1 {
        return items
            .into_iter()
            .enumerate()
            .map(|(i, item)| f(i, item))
            .collect();
    }
    WorkerPool::new(threads.min(items.len())).run(items, f)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn results_stay_in_order() {
        let items: Vec<usize> = (0..100).collect();
        for threads in [1, 2, 8] {
            let out = parallel_map(items.clone(), threads, |i, x| {
                assert_eq!(i, x);
                x * 3
            });
            assert_eq!(out, (0..100).map(|x| x * 3).collect::<Vec<_>>());
        }
    }

    #[test]
    fn more_threads_than_items() {
        let out = parallel_map(vec![7usize, 8], 16, |_, x| x + 1);
        assert_eq!(out, vec![8, 9]);
    }

    #[test]
    fn empty_input() {
        let out: Vec<usize> = parallel_map(Vec::<usize>::new(), 4, |_, x| x);
        assert!(out.is_empty());
    }

    #[test]
    fn explicit_thread_count_wins() {
        assert_eq!(resolve_threads(Some(3)), 3);
        assert_eq!(resolve_threads(Some(0)), 1);
    }

    #[test]
    fn pool_reuse_across_many_rounds() {
        let pool = WorkerPool::new(4);
        for round in 0..200 {
            let items: Vec<usize> = (0..17).collect();
            let out = pool.run(items, |i, x| {
                assert_eq!(i, x);
                x + round
            });
            assert_eq!(out, (0..17).map(|x| x + round).collect::<Vec<_>>());
        }
    }

    #[test]
    fn pool_zero_and_single_item_run_inline() {
        let pool = WorkerPool::new(8);
        let none: Vec<usize> = pool.run(Vec::<usize>::new(), |_, x| x);
        assert!(none.is_empty());
        let one = pool.run(vec![41usize], |i, x| {
            assert_eq!(i, 0);
            x + 1
        });
        assert_eq!(one, vec![42]);
    }

    #[test]
    fn pool_more_threads_than_items() {
        let pool = WorkerPool::new(16);
        let out = pool.run(vec![1usize, 2, 3], |_, x| x * 10);
        assert_eq!(out, vec![10, 20, 30]);
    }

    #[test]
    fn pool_propagates_worker_panics_and_survives_them() {
        let pool = WorkerPool::new(4);
        let hit = AtomicUsize::new(0);
        let result = std::panic::catch_unwind(AssertUnwindSafe(|| {
            pool.run((0..64usize).collect(), |_, x| {
                hit.fetch_add(1, Ordering::Relaxed);
                assert!(x != 13, "boom on 13");
                x
            })
        }));
        let err = result.expect_err("panic must propagate to the submitter");
        let msg = err
            .downcast_ref::<&str>()
            .map(|s| s.to_string())
            .or_else(|| err.downcast_ref::<String>().cloned())
            .unwrap_or_default();
        assert!(msg.contains("boom on 13"), "unexpected payload: {msg}");
        // The pool is still usable after a batch panicked.
        let out = pool.run(vec![5usize, 6], |_, x| x * 2);
        assert_eq!(out, vec![10, 12]);
    }

    #[test]
    fn pool_runs_every_item_exactly_once() {
        let pool = WorkerPool::new(3);
        let count = AtomicUsize::new(0);
        let out = pool.run((0..1000usize).collect(), |_, x| {
            count.fetch_add(1, Ordering::Relaxed);
            x
        });
        assert_eq!(count.load(Ordering::Relaxed), 1000);
        assert_eq!(out, (0..1000).collect::<Vec<_>>());
    }

    #[test]
    fn thread_count_reporting() {
        assert_eq!(WorkerPool::new(1).threads(), 1);
        assert_eq!(WorkerPool::new(0).threads(), 1);
        assert_eq!(WorkerPool::new(4).threads(), 4);
    }
}
