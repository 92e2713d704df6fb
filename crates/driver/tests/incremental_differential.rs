//! Differential tests for content-addressed incremental recompilation:
//! a warm `Session` (with its per-function cache) must produce output,
//! report counters, and remark streams byte-identical to a cold compile
//! of the same source — across randomized edit sequences and at several
//! worker counts — while recompiling only the functions an edit actually
//! reaches.

use driver::Session;

/// A four-knob program: each knob perturbs exactly one function's body.
fn program(v: &[u64; 4]) -> String {
    format!(
        r#"
int g;
int h;
int acc;

int leaf(int x) {{
    return x * {} + 1;
}}

int bump() {{
    g = g + {};
    return g;
}}

int mix(int a, int b) {{
    int i;
    int s;
    s = 0;
    for (i = 0; i < {}; i++) {{
        s = s + leaf(i) + a * b;
        acc = acc + s;
    }}
    return s;
}}

int main() {{
    int i;
    for (i = 0; i < {}; i++) {{
        h = h + bump();
    }}
    print_int(mix(g, h));
    print_int(g);
    print_int(h);
    print_int(acc);
    return 0;
}}
"#,
        v[0], v[1], v[2], v[3]
    )
}

fn incremental_session(threads: usize) -> Session {
    Session::builder()
        .threads(Some(threads))
        .trace(true)
        .incremental(true)
        .build()
}

fn cold_session(threads: usize) -> Session {
    Session::builder()
        .threads(Some(threads))
        .trace(true)
        .build()
}

/// Deterministic xorshift for edit-sequence generation.
fn next(seed: &mut u64) -> u64 {
    let mut x = *seed;
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    *seed = x;
    x
}

#[test]
fn warm_compiles_are_byte_identical_to_cold_across_edits() {
    for threads in [1usize, 2, 8] {
        let warm = incremental_session(threads);
        let cold = cold_session(threads);
        let mut knobs = [3u64, 1, 10, 5];
        let mut seed = 0x1CEB00DAu64 ^ threads as u64;
        for step in 0..6 {
            if step > 0 {
                // Randomized single-function edit: bump one knob.
                let k = (next(&mut seed) % 4) as usize;
                knobs[k] = 1 + next(&mut seed) % 7;
            }
            let src = program(&knobs);
            let w = warm.compile_and_run(&src).expect("warm compile");
            let c = cold.compile_and_run(&src).expect("cold compile");
            let label = format!("threads={threads} step={step} knobs={knobs:?}");
            assert_eq!(
                w.module.to_string(),
                c.module.to_string(),
                "IL differs: {label}"
            );
            assert_eq!(
                w.remarks_text(),
                c.remarks_text(),
                "remarks differ: {label}"
            );
            assert_eq!(
                w.trace_jsonl(),
                c.trace_jsonl(),
                "trace JSONL differs: {label}"
            );
            assert_eq!(
                w.outcome.as_ref().unwrap().output,
                c.outcome.as_ref().unwrap().output,
                "run output differs: {label}"
            );
            // The replayed counters must match too — the warm report is
            // indistinguishable from cold except for its incremental
            // section.
            assert_eq!(w.report.strengthened, c.report.strengthened, "{label}");
            assert_eq!(w.report.promotion, c.report.promotion, "{label}");
            assert_eq!(w.report.alloc, c.report.alloc, "{label}");
            assert_eq!(w.report.lvn_rewrites, c.report.lvn_rewrites, "{label}");
            assert_eq!(w.report.dce_removed, c.report.dce_removed, "{label}");
            let incr = w.report.incremental.as_ref().expect("incremental report");
            assert!(c.report.incremental.is_none());
            if step > 0 {
                // A single-function edit must leave most of the module
                // cached.
                assert!(
                    incr.cache_hits >= 1,
                    "no cache hits after an edit: {label} {incr:?}"
                );
                assert!(
                    !w.trace.cached_funcs().is_empty(),
                    "no cached-replay markers: {label}"
                );
            }
        }
    }
}

#[test]
fn identical_recompile_hits_every_function() {
    let warm = incremental_session(2);
    let src = program(&[3, 1, 10, 5]);
    let first = warm.compile(&src).expect("first compile");
    let i1 = first.report.incremental.as_ref().unwrap();
    assert_eq!(i1.cache_hits, 0);
    assert_eq!(i1.funcs_recompiled, i1.funcs_total);
    let second = warm.compile(&src).expect("second compile");
    let i2 = second.report.incremental.as_ref().unwrap();
    assert_eq!(i2.funcs_recompiled, 0, "{i2:?}");
    assert_eq!(i2.cache_hits, i2.funcs_total);
    assert!((i2.hit_rate() - 1.0).abs() < f64::EPSILON);
    assert_eq!(first.module.to_string(), second.module.to_string());
}

#[test]
fn pure_body_edit_recompiles_only_the_edited_function() {
    let warm = incremental_session(2);
    // `leaf` touches no memory, so editing its arithmetic changes no
    // MOD/REF summary: callers keep their fingerprints.
    let v0 = program(&[3, 1, 10, 5]);
    let v1 = program(&[4, 1, 10, 5]);
    warm.compile(&v0).expect("seed compile");
    let c = warm.compile(&v1).expect("warm edit");
    let incr = c.report.incremental.as_ref().unwrap();
    assert_eq!(
        incr.funcs_recompiled, 1,
        "only `leaf` should recompile: {incr:?}"
    );
    assert_eq!(incr.summary_invalidated, 0, "{incr:?}");
    assert_eq!(incr.cache_hits, incr.funcs_total - 1);
}

#[test]
fn callee_modref_change_invalidates_exactly_the_callers() {
    let warm = incremental_session(2);
    let v0 = "
int g;
int unrelated() { return 5; }
int leaf() { return 1; }
int main() {
    print_int(leaf() + unrelated());
    print_int(g);
    return 0;
}
";
    // The edit makes `leaf` write a global: its MOD summary changes, so
    // `main` (its only caller) must be recompiled even though `main`'s
    // own body is untouched. `unrelated` must stay cached.
    let v1 = v0.replace(
        "int leaf() { return 1; }",
        "int leaf() { g = 7; return 1; }",
    );
    warm.compile(v0).expect("seed compile");
    let c = warm.compile(&v1).expect("warm edit");
    let incr = c.report.incremental.as_ref().unwrap();
    assert_eq!(incr.funcs_total, 3);
    assert_eq!(
        incr.funcs_recompiled, 2,
        "`leaf` (edited) + `main` (summary-invalidated): {incr:?}"
    );
    assert_eq!(
        incr.summary_invalidated, 1,
        "`main`'s body hash is unchanged: {incr:?}"
    );
    assert_eq!(incr.cache_hits, 1, "`unrelated` stays cached: {incr:?}");
    assert!(c.trace.is_cached("unrelated"));
    assert!(!c.trace.is_cached("main"));
    // And the result still matches a cold compile.
    let cold = cold_session(2).compile(&v1).expect("cold compile");
    assert_eq!(c.module.to_string(), cold.module.to_string());
    assert_eq!(c.remarks_text(), cold.remarks_text());
}

#[test]
fn inserting_a_function_keeps_unchanged_functions_cached() {
    // Inserting a definition shifts every later function's module index
    // and tag ids; the canonical (name-resolved) hashes must see through
    // the shift and the splice must remap ids into the new module.
    let warm = incremental_session(2);
    let v0 = "
int g;
int work() { g = g + 3; return g; }
int main() { print_int(work()); return 0; }
";
    let v1 = "
int g;
int fresh(int x) { return x + 1; }
int work() { g = g + 3; return g; }
int main() { print_int(work()); return 0; }
";
    warm.compile(v0).expect("seed compile");
    let c = warm.compile(v1).expect("warm edit");
    let incr = c.report.incremental.as_ref().unwrap();
    assert_eq!(incr.funcs_total, 3);
    // `work` and `main` are textually unchanged and call nothing new.
    assert_eq!(incr.cache_hits, 2, "{incr:?}");
    assert_eq!(incr.funcs_recompiled, 1, "{incr:?}");
    let cold = cold_session(2).compile(v1).expect("cold compile");
    assert_eq!(c.module.to_string(), cold.module.to_string());
}

#[test]
fn shifted_tag_ids_are_remapped_inside_spliced_tag_sets() {
    // `work` loads and stores through pointers, so MOD/REF gives those
    // operations the tag set {a, b, c}. Inserting the unreferenced
    // global `pad` ahead of them shifts all three ids without changing
    // any fact, so `work` must still hit, and its spliced sets must be
    // rewritten to the new ids, not cloned as cached.
    let v0 = "
int a;
int b;
int c;
int work(int *p, int *q) { *p = *p + 1; return *q + *p; }
int main() {
    print_int(work(&a, &b) + work(&b, &c));
    print_int(a + b + c);
    return 0;
}
";
    let v1 = v0.replacen("int a;", "int pad;\nint a;", 1);
    for threads in [1usize, 2] {
        let warm = incremental_session(threads);
        let first = warm.compile(v0).expect("seed compile");
        let c = warm.compile(&v1).expect("warm edit");
        let id = |m: &ir::Module| m.tags.lookup("g:a").expect("tag for `a`");
        assert_ne!(id(&first.module), id(&c.module), "the edit must shift ids");
        let incr = c.report.incremental.as_ref().unwrap();
        assert!(c.trace.is_cached("work"), "threads={threads} {incr:?}");
        assert_eq!(incr.funcs_recompiled, 0, "threads={threads} {incr:?}");
        let cold = cold_session(threads).compile(&v1).expect("cold compile");
        let label = format!("threads={threads}");
        assert_eq!(c.module.to_string(), cold.module.to_string(), "{label}");
        assert_eq!(c.remarks_text(), cold.remarks_text(), "{label}");
        assert_eq!(c.trace_jsonl(), cold.trace_jsonl(), "{label}");
    }
}

#[test]
fn tiny_cache_budget_still_compiles_correctly() {
    let warm = Session::builder()
        .threads(Some(2))
        .trace(true)
        .incremental(true)
        .cache_budget(1)
        .build();
    let src = program(&[3, 1, 10, 5]);
    let first = warm.compile_and_run(&src).expect("first compile");
    let i1 = first.report.incremental.as_ref().unwrap();
    assert!(i1.evictions > 0, "budget of 1 byte must evict: {i1:?}");
    assert!(i1.cache_bytes <= 1);
    // Everything was evicted, so the second compile misses across the
    // board — and still produces the right program.
    let second = warm.compile_and_run(&src).expect("second compile");
    let i2 = second.report.incremental.as_ref().unwrap();
    assert_eq!(i2.cache_hits, 0, "{i2:?}");
    assert_eq!(
        first.module.to_string(),
        second.module.to_string(),
        "eviction must not change output"
    );
    assert_eq!(
        first.outcome.as_ref().unwrap().output,
        second.outcome.as_ref().unwrap().output
    );
}

#[test]
fn optimize_entry_point_hits_the_cache() {
    // `Session::optimize` takes an already-lowered module: fingerprints
    // come from the canonical IR alone, and an unchanged module hits.
    let warm = incremental_session(1);
    let src = "int g; int main() { g = 41; print_int(g + 1); return 0; }";
    let mut m1 = minic::compile(src).expect("lowering");
    let (r1, _) = warm.optimize(&mut m1).expect("first optimize");
    assert_eq!(r1.incremental.as_ref().unwrap().cache_hits, 0);
    let mut m2 = minic::compile(src).expect("lowering");
    let (r2, _) = warm.optimize(&mut m2).expect("second optimize");
    let incr = r2.incremental.as_ref().unwrap();
    assert_eq!(incr.funcs_recompiled, 0, "{incr:?}");
    assert_eq!(m1.to_string(), m2.to_string());
}

/// Most functions the suite's warm edit may recompile: the edit changes
/// one function body and no MOD/REF summary, so exactly that function
/// misses.
const MAX_RECOMPILED_FUNCS: usize = 1;
/// Least cache hit rate of the warm edit: the two untouched functions of
/// `compress` must splice from the cache (2 of 3 is 0.667; the floor
/// allows rounding, nothing else).
const MIN_CACHE_HIT_RATE: f64 = 0.6;

#[test]
fn suite_warm_edit_recompiles_only_the_edited_function() {
    let pair = benchsuite::warm_edit_pair();
    let warm = Session::builder()
        .threads(Some(1))
        .incremental(true)
        .build();
    warm.compile(pair.base).expect("base compiles warm");
    let c = warm.compile(&pair.edited).expect("edit compiles warm");
    let incr = c.report.incremental.as_ref().expect("cache activity");
    println!(
        "warm edit of {}: {} of {} functions recompiled, hit rate {:.3}",
        pair.name,
        incr.funcs_recompiled,
        incr.funcs_total,
        incr.hit_rate()
    );
    assert!(
        incr.funcs_recompiled <= MAX_RECOMPILED_FUNCS,
        "invalidation went coarse — a one-function body edit must not \
         ripple into its callers: {incr:?}"
    );
    assert!(
        incr.hit_rate() >= MIN_CACHE_HIT_RATE,
        "fingerprints missed on unchanged functions: {incr:?}"
    );
    let cold = Session::builder()
        .threads(Some(1))
        .build()
        .compile(&pair.edited)
        .expect("edit compiles cold");
    assert_eq!(
        c.module.to_string(),
        cold.module.to_string(),
        "the warm splice diverged from a cold compile"
    );
}
