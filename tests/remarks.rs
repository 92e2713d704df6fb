//! End-to-end tests for the structured optimization-remark telemetry:
//! the [`driver::Session`] API with tracing enabled must explain, per
//! loop and per tag, what promotion did and why it declined — and the
//! trace must be observation-only (identical IL with tracing on or off)
//! and round-trip exactly through its JSONL serialization. The whole
//! suite's remark stream is pinned byte for byte by the committed
//! `BENCH_remarks.jsonl`.

use driver::Session;
use trace::{BlockReason, Remark, TraceLog};

/// A MiniC program with one promotable global (`hot`: referenced only
/// explicitly inside the loop) and one call-pinned global (`pinned`:
/// stored explicitly in the loop body *and* modified by `bump()`, so the
/// call's MOD set makes it ambiguous — the paper's equation 2 keeps it
/// out of L_PROMOTABLE).
const COUNTER: &str = r#"
int hot;
int pinned;

void bump(void) { pinned = pinned + 1; }

int main(void) {
    int i;
    for (i = 0; i < 100; i++) {
        hot = hot + 1;
        pinned = pinned + 2;
        bump();
    }
    print_int(hot);
    print_int(pinned);
    return 0;
}
"#;

/// The paper's Figure 2 worked example as IL (same source as
/// `tests/figure2_example.rs`): loops B1 ⊃ B3 ⊃ B5 over tags A, B, C,
/// with a call that mods A in the outer loop and one that refs B in the
/// middle loop.
const FIGURE2: &str = r#"
tag "A" global size=1 addressed
tag "B" global size=1 addressed
tag "C" global size=1 addressed
global "A" ints 3
global "B" ints 5
global "C" ints 0
func @ext_a(0) {
B0:
  r0 = sload "A"
  r1 = iconst 1
  r2 = add r0, r1
  sstore r2, "A"
  ret
}
func @ext_b(0) {
B0:
  r0 = sload "B"
  ret
}
func @main(0) result {
B0:
  r0 = sload "C"
  r10 = iconst 0
  jump B1
B1:
  sstore r0, "C"
  call @ext_a() mods{"A"} refs{"A"}
  jump B2
B2:
  r1 = sload "A"
  r11 = iconst 0
  jump B3
B3:
  sstore r1, "B"
  call @ext_b() mods{} refs{"B"}
  r12 = iconst 0
  jump B4
B4:
  jump B5
B5:
  r2 = sload "A"
  r0 = add r0, r2
  jump B6
B6:
  r13 = iconst 1
  r12 = add r12, r13
  r14 = iconst 3
  r15 = cmplt r12, r14
  branch r15, B5, B7
B7:
  r16 = iconst 1
  r11 = add r11, r16
  r17 = iconst 3
  r18 = cmplt r11, r17
  branch r18, B3, B8
B8:
  r19 = iconst 1
  r10 = add r10, r19
  r20 = iconst 3
  r21 = cmplt r10, r20
  branch r21, B1, B9
B9:
  sstore r2, "C"
  r22 = sload "C"
  ret r22
}
"#;

#[test]
fn counter_loop_yields_promoted_and_call_blocked_remarks() {
    let session = Session::builder().trace(true).build();
    let c = session.compile_and_run(COUNTER).expect("compile and run");
    let outcome = c.outcome.as_ref().expect("run populates the outcome");
    assert_eq!(outcome.output, vec!["100", "300"]);

    // `hot` is promoted for the whole loop... (the front end names
    // global tags `g:<name>`)
    assert!(
        c.trace.remarks().any(|(func, _, r)| {
            func == "main"
                && matches!(r, Remark::Promoted { tag, in_loop, .. }
                    if tag == "g:hot" && in_loop.depth == 1)
        }),
        "no Promoted remark for `hot`:\n{}",
        c.remarks_text()
    );
    // ...and `pinned` is reported blocked, with the call named as the
    // culprit.
    assert!(
        c.trace.remarks().any(|(func, _, r)| {
            func == "main"
                && matches!(r, Remark::Blocked { tag, reason, .. }
                    if tag == "g:pinned" && *reason == BlockReason::CallModRef)
        }),
        "no CallModRef Blocked remark for `pinned`:\n{}",
        c.remarks_text()
    );
}

#[test]
fn figure2_remarks_match_the_papers_table() {
    let mut m = ir::parse_module(FIGURE2).expect("parse");
    let session = Session::builder().trace(true).build();
    let (_, log) = session.optimize(&mut m).expect("optimize");

    // PROMOTABLE(B1) = {C}: C is promoted across the whole outer loop.
    assert!(
        log.remarks().any(|(func, pass, r)| {
            func == "main"
                && pass == "promote"
                && matches!(r, Remark::Promoted { tag, in_loop, .. }
                    if tag == "C" && in_loop.depth == 1)
        }),
        "no Promoted remark for C at depth 1:\n{}",
        log.render_remarks()
    );
    // A is kept out of the outer loop's PROMOTABLE set by the call that
    // mods it — and the remark says exactly that.
    assert!(
        log.remarks().any(|(func, _, r)| {
            func == "main"
                && matches!(r, Remark::Blocked { tag, in_loop, reason }
                    if tag == "A" && in_loop.depth == 1
                        && *reason == BlockReason::CallModRef)
        }),
        "no CallModRef Blocked remark for A in the outer loop:\n{}",
        log.render_remarks()
    );
    // PROMOTABLE(B3) = {A}: inside the call-free middle loop A does get
    // promoted.
    assert!(
        log.remarks().any(|(func, _, r)| {
            func == "main"
                && matches!(r, Remark::Promoted { tag, in_loop, .. }
                    if tag == "A" && in_loop.depth >= 2)
        }),
        "no Promoted remark for A in an inner loop:\n{}",
        log.render_remarks()
    );
}

#[test]
fn trace_round_trips_through_jsonl() {
    let mut m = ir::parse_module(FIGURE2).expect("parse");
    let session = Session::builder().trace(true).build();
    let (_, log) = session.optimize(&mut m).expect("optimize");
    assert!(!log.is_empty(), "figure 2 must produce remarks");
    let jsonl = log.to_jsonl();
    let parsed = TraceLog::from_jsonl(&jsonl).expect("parse our own JSONL");
    assert_eq!(parsed, log, "JSONL round-trip must be exact");
}

#[test]
fn disabled_tracing_is_silent_and_changes_nothing() {
    let traced = Session::builder()
        .trace(true)
        .build()
        .compile(COUNTER)
        .expect("traced compile");
    let untraced = Session::builder()
        .build()
        .compile(COUNTER)
        .expect("untraced compile");
    assert!(!traced.trace.is_empty());
    assert!(untraced.trace.is_empty(), "tracing off must record nothing");
    assert_eq!(
        traced.module.to_string(),
        untraced.module.to_string(),
        "tracing must be observation-only"
    );
}

/// The suite's concatenated remark stream (function names prefixed
/// `program::`) is byte-identical to the committed `BENCH_remarks.jsonl`,
/// and tracing leaves every suite program's IL untouched. On a mismatch
/// the actual stream is written under the test's scratch directory so it
/// can be diffed against, or copied over, the committed file.
#[test]
fn suite_remark_stream_matches_the_committed_record() {
    let traced = Session::builder().threads(Some(1)).trace(true).build();
    let untraced = Session::builder().threads(Some(1)).build();
    let mut jsonl = String::new();
    for b in benchsuite::SUITE {
        let t = traced
            .compile(b.source)
            .unwrap_or_else(|e| panic!("{}: {e}", b.name));
        let u = untraced
            .compile(b.source)
            .unwrap_or_else(|e| panic!("{}: {e}", b.name));
        assert_eq!(
            t.module.to_string(),
            u.module.to_string(),
            "{}: tracing must be observation-only",
            b.name
        );
        let mut log = t.trace;
        log.prefix_funcs(b.name);
        jsonl.push_str(&log.to_jsonl());
    }
    let committed = include_str!("../BENCH_remarks.jsonl");
    if jsonl != committed {
        let actual = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join("BENCH_remarks.jsonl");
        std::fs::write(&actual, &jsonl).expect("write the actual remark stream");
        let line = jsonl
            .lines()
            .zip(committed.lines())
            .position(|(a, c)| a != c)
            .map_or("past the shorter stream's end".to_string(), |i| {
                format!("at line {}", i + 1)
            });
        panic!(
            "the suite's remark stream differs from BENCH_remarks.jsonl {line}; \
             the actual stream is at {}",
            actual.display()
        );
    }
}

/// Every function's `Delta` events add up to its net change: summed over
/// the whole trace, `instrs_removed`/`loads_removed`/`stores_removed`
/// equal the unoptimized body's static counts minus the final body's.
/// A stage that mutates a body without recording its delta — or a stale
/// before-count carried between stages — breaks the sum. Checked on every
/// suite program under arms that between them run every delta-recording
/// stage (SSA round trip, pointer promotion, spill-heavy allocation), and
/// on a warm all-hit incremental compile whose chain events are replayed
/// from the cache.
#[test]
fn deltas_sum_to_each_functions_net_change() {
    use analysis::AnalysisLevel;
    use driver::{PipelineConfig, Session};
    use std::collections::{BTreeSet, HashMap};
    use trace::PassEvent;

    let traced = |config: PipelineConfig| {
        Session::from_config(PipelineConfig {
            threads: Some(1),
            trace: true,
            ..config
        })
    };
    let mut arms: Vec<(String, Session)> = PipelineConfig::figure_variants()
        .into_iter()
        .map(|(name, config)| (name, traced(config)))
        .collect();
    for (name, analysis, pointer_promote) in [
        ("points-to+pointer", AnalysisLevel::PointsTo, true),
        ("points-to-ssa+pointer", AnalysisLevel::PointsToSsa, true),
        ("address-taken", AnalysisLevel::AddressTaken, false),
        ("steensgaard", AnalysisLevel::Steensgaard, false),
    ] {
        let config = PipelineConfig {
            analysis,
            pointer_promote,
            ..PipelineConfig::default()
        };
        arms.push((name.to_string(), traced(config)));
    }
    let eight = PipelineConfig {
        regalloc: Some(regalloc::AllocOptions {
            num_regs: 8,
            ..Default::default()
        }),
        ..PipelineConfig::default()
    };
    arms.push(("8-registers".to_string(), traced(eight)));
    let warm = Session::builder()
        .threads(Some(1))
        .trace(true)
        .incremental(true)
        .build();

    let mut passes = BTreeSet::new();
    let mut checked = 0;
    let mut check = |arm: &str, program: &str, source: &str, c: &driver::Compilation| {
        let before = minic::compile(source).unwrap_or_else(|e| panic!("{program}: {e}"));
        let mut sums: HashMap<&str, [i64; 3]> = HashMap::new();
        for r in &c.trace.records {
            if let PassEvent::Delta {
                pass,
                instrs_removed,
                loads_removed,
                stores_removed,
            } = r.event
            {
                passes.insert(pass);
                let s = sums.entry(r.func.as_str()).or_default();
                s[0] += instrs_removed;
                s[1] += loads_removed;
                s[2] += stores_removed;
            }
        }
        for (f0, f1) in before.funcs.iter().zip(&c.module.funcs) {
            assert_eq!(f0.name, f1.name, "{arm} {program}: function order");
            let (b, a) = (f0.body_stats(), f1.body_stats());
            let net = [
                b.instrs as i64 - a.instrs as i64,
                b.loads as i64 - a.loads as i64,
                b.stores as i64 - a.stores as i64,
            ];
            let summed = sums.get(f0.name.as_str()).copied().unwrap_or_default();
            assert_eq!(
                summed, net,
                "{arm} {program}::{}: summed deltas (instrs, loads, stores) \
                 differ from the net change",
                f0.name
            );
            checked += 1;
        }
    };
    for b in benchsuite::SUITE {
        for (arm, session) in &arms {
            let c = session
                .compile(b.source)
                .unwrap_or_else(|e| panic!("{arm} {}: {e}", b.name));
            check(arm, b.name, b.source, &c);
        }
        warm.compile(b.source)
            .unwrap_or_else(|e| panic!("warm {}: {e}", b.name));
        let c = warm
            .compile(b.source)
            .unwrap_or_else(|e| panic!("warm {}: {e}", b.name));
        let incr = c.report.incremental.as_ref().expect("incremental report");
        assert_eq!(
            incr.cache_hits, incr.funcs_total,
            "{}: the second compile must be all hits",
            b.name
        );
        check("warm", b.name, b.source, &c);
    }
    assert!(checked > 0);
    for pass in [
        "ssa-construct",
        "ssa-destruct",
        "pointer-promote",
        "regalloc",
    ] {
        assert!(
            passes.contains(pass),
            "no arm recorded a `{pass}` delta; seen: {passes:?}"
        );
    }
}
