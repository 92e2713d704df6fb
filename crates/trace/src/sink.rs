//! Event buffers and consumers.

use crate::event::{PassEvent, Remark, TraceRecord};
use crate::jsonl::{self, JsonlError};

/// The per-function event buffer a worker fills while it carries one
/// function through the fused pass chain.
///
/// The `Off` variant is the whole zero-cost story: every hook is
/// `if !tr.enabled() { return }` — one enum-discriminant test, no
/// allocation, no string formatting, no tag-name resolution. A disabled
/// pipeline run never constructs a single event.
#[derive(Debug, Default)]
pub enum FuncTrace {
    /// Tracing disabled; every emit is a no-op.
    #[default]
    Off,
    /// Tracing enabled; events accumulate in chain order.
    On {
        /// The buffered events.
        events: Vec<PassEvent>,
        /// Cached `(instrs, loads, stores)` snapshot of the function as
        /// of the last [`FuncTrace::record_delta`] exit. Consecutive
        /// stages chain through it — stage N's after-scan is stage N+1's
        /// before-count — halving the body scans tracing costs. Every
        /// stage that mutates the function while tracing is on must run
        /// under `record_delta`, or the next delta would be computed
        /// against a stale baseline.
        stats: Option<(usize, usize, usize)>,
    },
}

impl FuncTrace {
    /// A disabled trace.
    pub fn off() -> FuncTrace {
        FuncTrace::Off
    }

    /// An enabled, empty trace. The vector is lazily grown; an enabled
    /// trace over a function no pass touches stays allocation-free.
    pub fn on() -> FuncTrace {
        FuncTrace::On {
            events: Vec::new(),
            stats: None,
        }
    }

    /// True when events are being collected. Passes must guard any work
    /// done *only* to build events (set scans, reason classification)
    /// behind this, which is what keeps disabled tracing free.
    #[inline]
    pub fn enabled(&self) -> bool {
        matches!(self, FuncTrace::On { .. })
    }

    /// Records a structured remark.
    #[inline]
    pub fn remark(&mut self, pass: &'static str, remark: Remark) {
        if let FuncTrace::On { events, .. } = self {
            events.push(PassEvent::Remark { pass, remark });
        }
    }

    /// Records a per-pass delta (before-minus-after static counts). An
    /// all-zero delta is dropped: a pass that changed nothing says
    /// nothing.
    #[inline]
    fn delta(
        &mut self,
        pass: &'static str,
        instrs_removed: i64,
        loads_removed: i64,
        stores_removed: i64,
    ) {
        if let FuncTrace::On { events, .. } = self {
            if instrs_removed != 0 || loads_removed != 0 || stores_removed != 0 {
                events.push(PassEvent::Delta {
                    pass,
                    instrs_removed,
                    loads_removed,
                    stores_removed,
                });
            }
        }
    }

    /// Runs one body-mutating `stage` and, when tracing is enabled,
    /// records its before-minus-after [`PassEvent::Delta`] under `pass`.
    /// This is the one place the pipeline's delta bookkeeping lives; every
    /// delta-recording stage (normalization, the SSA round trip,
    /// promotion, each optimizer pass, allocation) goes through it.
    ///
    /// `stats` reads the body's static `(instrs, loads, stores)` counts;
    /// it is a closure so this crate stays independent of the IL. When
    /// tracing is off, `stage` is called directly and `stats` never runs,
    /// which is what keeps the disabled path free. When it is on,
    /// consecutive stages share scans through a cached snapshot: one
    /// stage's after-scan is the next stage's before-count, and a stage
    /// whose result `unchanged` accepts costs no after-scan at all.
    ///
    /// Contract: `unchanged` may return `true` **only** for a result that
    /// proves the stage left the counts untouched (an optimizer pass that
    /// reports zero rewrites), or the cached snapshot goes stale.
    pub fn record_delta<B: ?Sized, R>(
        &mut self,
        pass: &'static str,
        body: &mut B,
        stats: impl Fn(&B) -> (usize, usize, usize),
        stage: impl FnOnce(&mut B, &mut FuncTrace) -> R,
        unchanged: impl FnOnce(&R) -> bool,
    ) -> R {
        if !self.enabled() {
            return stage(body, self);
        }
        let before = self.cached_stats().unwrap_or_else(|| stats(body));
        let result = stage(body, self);
        let after = if unchanged(&result) {
            before
        } else {
            stats(body)
        };
        let removed = |b: usize, a: usize| b as i64 - a as i64;
        self.delta(
            pass,
            removed(before.0, after.0),
            removed(before.1, after.1),
            removed(before.2, after.2),
        );
        self.set_stats(after);
        result
    }

    /// The cached `(instrs, loads, stores)` snapshot, if one is current.
    #[inline]
    fn cached_stats(&self) -> Option<(usize, usize, usize)> {
        match self {
            FuncTrace::Off => None,
            FuncTrace::On { stats, .. } => *stats,
        }
    }

    /// Replaces the cached snapshot with the body's state as just scanned
    /// by [`record_delta`](Self::record_delta).
    #[inline]
    fn set_stats(&mut self, snapshot: (usize, usize, usize)) {
        if let FuncTrace::On { stats, .. } = self {
            *stats = Some(snapshot);
        }
    }

    /// Drains the buffered events, leaving the trace enabled-and-empty
    /// (or `Off`, if it was off).
    pub fn take_events(&mut self) -> Vec<PassEvent> {
        match self {
            FuncTrace::Off => Vec::new(),
            FuncTrace::On { events, stats } => {
                *stats = None;
                std::mem::take(events)
            }
        }
    }

    /// Number of events buffered so far. The incremental driver snapshots
    /// this before the fused chain runs so it can carve out exactly the
    /// chain's event suffix for caching.
    pub fn event_count(&self) -> usize {
        match self {
            FuncTrace::Off => 0,
            FuncTrace::On { events, .. } => events.len(),
        }
    }

    /// Clones the events from index `from` to the end — the suffix a
    /// cached function's chain trip appended past an
    /// [`event_count`](Self::event_count) snapshot.
    pub fn events_from(&self, from: usize) -> Vec<PassEvent> {
        match self {
            FuncTrace::Off => Vec::new(),
            FuncTrace::On { events, .. } => events.get(from..).unwrap_or_default().to_vec(),
        }
    }

    /// Appends pre-recorded events (a cached chain suffix being replayed
    /// into a live trace). No-op when the trace is off.
    pub fn append_events(&mut self, replayed: Vec<PassEvent>) {
        if let FuncTrace::On { events, .. } = self {
            events.extend(replayed);
        }
    }
}

/// A consumer of aggregated trace records: feed it a [`TraceLog`] through
/// [`TraceLog::replay`], or individual records directly. Implementations
/// decide what "consume" means — collect, write, export.
pub trait TraceSink {
    /// Consumes one record.
    fn record(&mut self, record: &TraceRecord);
}

/// A sink that drops everything.
#[derive(Debug, Default, Clone, Copy)]
pub struct NullSink;

impl TraceSink for NullSink {
    fn record(&mut self, _record: &TraceRecord) {}
}

/// A sink that collects records in arrival order (tests, in-process
/// consumers).
#[derive(Debug, Default, Clone)]
pub struct CollectSink {
    /// The collected records.
    pub records: Vec<TraceRecord>,
}

impl TraceSink for CollectSink {
    fn record(&mut self, record: &TraceRecord) {
        self.records.push(record.clone());
    }
}

/// The whole-module trace: every function's events, in function-index
/// order. This is what a [`crate::TraceLog`]-returning pipeline run hands
/// back, what `--trace-json` serializes, and what the determinism tests
/// compare across worker counts.
#[derive(Debug, Default, Clone, PartialEq)]
pub struct TraceLog {
    /// Records in deterministic (function-index, then chain) order.
    pub records: Vec<TraceRecord>,
    /// Functions whose chain events were *replayed* from the incremental
    /// cache rather than produced by a live pass run, in function-index
    /// order. Kept out of band — serialization
    /// ([`to_jsonl`](Self::to_jsonl)) and rendering are unaffected, so a
    /// cached compile's remark stream stays byte-identical to a cold one.
    cached: Vec<String>,
}

impl TraceLog {
    /// An empty log.
    pub fn new() -> TraceLog {
        TraceLog::default()
    }

    /// Number of records.
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// True when nothing was recorded (always the case when tracing was
    /// disabled).
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// Appends every event of one function, in order.
    pub fn extend_func(&mut self, func: &str, events: Vec<PassEvent>) {
        for event in events {
            self.records.push(TraceRecord {
                func: func.to_string(),
                event,
            });
        }
    }

    /// Marks one function's chain events as `Cached` (replayed from the
    /// incremental cache). Out-of-band metadata: it never changes the
    /// serialized or rendered remark stream.
    pub fn mark_cached(&mut self, func: &str) {
        self.cached.push(func.to_string());
    }

    /// Functions marked [`mark_cached`](Self::mark_cached), in marking
    /// order.
    pub fn cached_funcs(&self) -> &[String] {
        &self.cached
    }

    /// True if `func`'s chain events came from the incremental cache.
    pub fn is_cached(&self, func: &str) -> bool {
        self.cached.iter().any(|f| f == func)
    }

    /// Streams every record into `sink`, in order.
    pub fn replay(&self, sink: &mut dyn TraceSink) {
        for r in &self.records {
            sink.record(r);
        }
    }

    /// Iterates the structured remarks (deltas skipped), with their pass
    /// labels and owning functions: `(func, pass, remark)`.
    pub fn remarks(&self) -> impl Iterator<Item = (&str, &'static str, &Remark)> {
        self.records.iter().filter_map(|r| match &r.event {
            PassEvent::Remark { pass, remark } => Some((r.func.as_str(), *pass, remark)),
            PassEvent::Delta { .. } => None,
        })
    }

    /// Prefixes every record's function name with `prefix::` — used when
    /// logs from several modules are concatenated into one artifact (the
    /// benchmark suite's remark dump).
    pub fn prefix_funcs(&mut self, prefix: &str) {
        for r in &mut self.records {
            r.func = format!("{prefix}::{}", r.func);
        }
    }

    /// Serializes the log as JSONL: one self-contained JSON object per
    /// line, schema documented in [`crate::jsonl`].
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for r in &self.records {
            out.push_str(&jsonl::record_to_json(r));
            out.push('\n');
        }
        out
    }

    /// Parses a JSONL string produced by [`to_jsonl`](Self::to_jsonl)
    /// (round-trip guaranteed; unknown keys are ignored for forward
    /// compatibility).
    ///
    /// # Errors
    ///
    /// Returns the first malformed line with its line number.
    pub fn from_jsonl(s: &str) -> Result<TraceLog, JsonlError> {
        let mut log = TraceLog::new();
        for (i, line) in s.lines().enumerate() {
            if line.trim().is_empty() {
                continue;
            }
            let rec = jsonl::record_from_json(line)
                .map_err(|e| JsonlError::new(format!("line {}: {}", i + 1, e.message())))?;
            log.records.push(rec);
        }
        Ok(log)
    }

    /// Renders the whole log as human-readable LLVM-style remark lines.
    pub fn render_remarks(&self) -> String {
        let mut out = String::new();
        for r in &self.records {
            out.push_str(&r.render());
            out.push('\n');
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::{BlockReason, LoopRef};

    #[test]
    fn off_trace_records_nothing() {
        let mut tr = FuncTrace::off();
        assert!(!tr.enabled());
        tr.remark("promote", Remark::Spilled { reg: 1, round: 1 });
        tr.delta("dce", 3, 1, 0);
        assert!(tr.take_events().is_empty());
    }

    #[test]
    fn zero_deltas_are_dropped() {
        let mut tr = FuncTrace::on();
        tr.delta("lvn", 0, 0, 0);
        tr.delta("dce", 2, 0, 1);
        let events = tr.take_events();
        assert_eq!(events.len(), 1);
        assert_eq!(events[0].pass(), "dce");
    }

    #[test]
    fn record_delta_chains_scans_and_skips_them_when_off_or_unchanged() {
        use std::cell::Cell;
        // The "body" is its own (instrs, loads, stores) counts; `scans`
        // counts how often the recorder reads them.
        let scans = Cell::new(0);
        let stats = |b: &(usize, usize, usize)| {
            scans.set(scans.get() + 1);
            *b
        };
        let mut body = (10, 3, 2);

        let mut off = FuncTrace::off();
        off.record_delta("dce", &mut body, stats, |b, _| b.0 -= 1, |_| false);
        assert_eq!((body, scans.get()), ((9, 3, 2), 0), "off never scans");

        let mut tr = FuncTrace::on();
        // First stage: before- and after-scan.
        tr.record_delta("promote", &mut body, stats, |b, _| b.1 += 1, |_| false);
        assert_eq!(scans.get(), 2);
        // Next stage reuses the cached after-scan as its before-count, and
        // an unchanged result skips the after-scan entirely.
        tr.record_delta("lvn", &mut body, stats, |_, _| 0, |&n| n == 0);
        assert_eq!(scans.get(), 2);
        tr.record_delta("dce", &mut body, stats, |b, _| b.2 -= 1, |_| false);
        assert_eq!(scans.get(), 3);
        let deltas: Vec<_> = tr
            .take_events()
            .into_iter()
            .map(|e| match e {
                PassEvent::Delta {
                    pass,
                    instrs_removed,
                    loads_removed,
                    stores_removed,
                } => (pass, instrs_removed, loads_removed, stores_removed),
                PassEvent::Remark { .. } => unreachable!("no remarks recorded"),
            })
            .collect();
        assert_eq!(deltas, [("promote", 0, -1, 0), ("dce", 0, 0, 1)]);
    }

    #[test]
    fn replay_feeds_sinks_in_order() {
        let mut log = TraceLog::new();
        log.extend_func(
            "main",
            vec![
                PassEvent::Delta {
                    pass: "dce",
                    instrs_removed: 1,
                    loads_removed: 0,
                    stores_removed: 0,
                },
                PassEvent::Remark {
                    pass: "promote",
                    remark: Remark::Blocked {
                        tag: "g".into(),
                        in_loop: LoopRef {
                            header: 2,
                            depth: 1,
                        },
                        reason: BlockReason::AmbiguousRef,
                    },
                },
            ],
        );
        let mut sink = CollectSink::default();
        log.replay(&mut sink);
        assert_eq!(sink.records, log.records);
        assert_eq!(log.remarks().count(), 1);
    }
}
