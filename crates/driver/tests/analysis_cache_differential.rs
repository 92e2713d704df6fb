//! Differential test of the version-keyed analysis cache
//! ([`cfg::FunctionAnalyses`]) against from-scratch analysis on randomized
//! functions driven through the pipeline's exact fused pass chain.
//!
//! Two bug classes hide in a cache like this. A *stale* cache: a pass
//! mutates the body but under-reports (says "body" when it moved an edge,
//! or says nothing at all), so a downstream pass consumes an artifact of a
//! function that no longer exists. An *over-conservative* cache: a pass
//! reports changes it did not make, so the cache degenerates back to
//! rebuild-per-pass and the whole exercise is a no-op that benchmarks
//! happen to catch. The first test catches staleness by rebuilding every
//! artifact from scratch after **every** pass in the chain and demanding
//! equality with whatever the cache hands out at its current version; the
//! second catches regression to rebuild-per-pass by asserting, via the
//! cache's build ledger, that converged re-runs cost zero constructions.
//!
//! Random inputs come from an in-tree xorshift64* generator: every case is
//! reproducible from the fixed seed and no external crates are needed (the
//! build must work offline).

use cfg::{liveness, Cfg, DomTree, FunctionAnalyses, LoopForest, LoopGeometry};
use ir::{BinOp, BlockId, FuncId, Function, FunctionBuilder, Instr, Reg, TagId, TagKind, TagTable};
use opt::OptScratch;
use regalloc::AllocScratch;
use trace::FuncTrace;

/// Deterministic xorshift64* PRNG.
struct Rng(u64);

impl Rng {
    fn new(seed: u64) -> Self {
        Rng(seed ^ 0x9e37_79b9_7f4a_7c15)
    }
    fn next(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.0 = x;
        x.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }
    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }
}

/// Builds a function with random register dataflow, random multi-block
/// control flow (loops and irreducible tangles included), and scalar
/// loads/stores through a small set of global tags — enough surface for
/// every pass in the chain (strengthening, promotion, LVN, load
/// elimination, constant folding, LICM, DCE, cleaning, allocation) to
/// fire on some fraction of the cases.
fn random_function(rng: &mut Rng, tags: &[TagId]) -> Function {
    let arity = rng.below(3);
    let mut b = FunctionBuilder::new("f", arity);
    let nblocks = 1 + rng.below(7);
    for _ in 1..nblocks {
        b.new_block();
    }
    let mut regs: Vec<Reg> = (0..arity as u32).map(Reg).collect();
    if regs.is_empty() {
        b.switch_to(BlockId(0));
        regs.push(b.iconst(1));
    }
    for bi in 0..nblocks {
        b.switch_to(BlockId(bi as u32));
        if b.is_terminated() {
            continue;
        }
        for _ in 0..rng.below(8) {
            let pick = |rng: &mut Rng, regs: &[Reg]| regs[rng.below(regs.len())];
            match rng.below(7) {
                0 => regs.push(b.iconst(rng.below(100) as i64)),
                1 => {
                    let (l, r) = (pick(rng, &regs), pick(rng, &regs));
                    regs.push(b.binary(BinOp::Add, l, r));
                }
                2 => {
                    // Redefine an existing register.
                    let (d, l, r) = (pick(rng, &regs), pick(rng, &regs), pick(rng, &regs));
                    b.emit(Instr::Binary {
                        op: BinOp::Mul,
                        dst: d,
                        lhs: l,
                        rhs: r,
                    });
                }
                3 => {
                    let s = pick(rng, &regs);
                    regs.push(b.copy(s));
                }
                4 => regs.push(b.sload(tags[rng.below(tags.len())])),
                5 => {
                    let s = pick(rng, &regs);
                    b.sstore(s, tags[rng.below(tags.len())]);
                }
                _ => {
                    let (d, s) = (pick(rng, &regs), pick(rng, &regs));
                    b.emit(Instr::Copy { dst: d, src: s });
                }
            }
        }
        let v = regs[rng.below(regs.len())];
        match rng.below(3) {
            0 => b.ret(None),
            1 => b.jump(BlockId(rng.below(nblocks) as u32)),
            _ => b.branch(
                v,
                BlockId(rng.below(nblocks) as u32),
                BlockId(rng.below(nblocks) as u32),
            ),
        }
    }
    b.finish()
}

fn test_tags() -> (TagTable, Vec<TagId>) {
    let mut tags = TagTable::new();
    let ids = (0..3)
        .map(|i| tags.intern(format!("g{i}"), TagKind::Global, 1))
        .collect();
    (tags, ids)
}

/// Every artifact the cache serves at the function's current version must
/// equal one built from scratch. If a pass mutated the body without
/// reporting, the cache's version keys still match and it serves the stale
/// copy — which this comparison catches.
fn assert_cache_fresh(func: &Function, fa: &mut FunctionAnalyses, case: usize, pass: &str) {
    let fresh_cfg = Cfg::build(func);
    assert_eq!(
        fa.cfg(func),
        &fresh_cfg,
        "case {case}: stale CFG after {pass}\n{func:?}"
    );
    let fresh_dom = DomTree::lengauer_tarjan(&fresh_cfg);
    assert_eq!(
        fa.dom(func),
        &fresh_dom,
        "case {case}: stale dominator tree after {pass}"
    );
    let fresh_forest = LoopForest::build(&fresh_cfg, &fresh_dom);
    assert_eq!(
        fa.cfg_forest(func).1,
        &fresh_forest,
        "case {case}: stale loop forest after {pass}"
    );
    let fresh_live = liveness(func, &fresh_cfg);
    assert_eq!(
        fa.liveness(func),
        &fresh_live,
        "case {case}: stale liveness after {pass}"
    );
}

/// Like [`assert_cache_fresh`] plus the loop geometry, which is only
/// well-defined right after loop normalization.
fn assert_cache_fresh_normalized(
    func: &Function,
    fa: &mut FunctionAnalyses,
    case: usize,
    pass: &str,
) {
    assert_cache_fresh(func, fa, case, pass);
    let fresh_cfg = Cfg::build(func);
    let fresh_dom = DomTree::lengauer_tarjan(&fresh_cfg);
    let fresh_forest = LoopForest::build(&fresh_cfg, &fresh_dom);
    let fresh_geom = LoopGeometry::compute(&fresh_cfg, &fresh_forest);
    assert_eq!(
        fa.loop_view(func).2,
        &fresh_geom,
        "case {case}: stale loop geometry after {pass}"
    );
}

/// Runs the pipeline's fused chain pass by pass on random functions with
/// one shared cache, validating every cached artifact against a
/// from-scratch build after each pass.
#[test]
fn cached_artifacts_match_fresh_builds_after_every_pass() {
    let (tags, tag_ids) = test_tags();
    let opts = regalloc::AllocOptions {
        // Few enough colors that random functions actually spill.
        num_regs: 4,
        ..Default::default()
    };
    let mut rng = Rng::new(0xCAC4_E5A1_7D1F_F00D);
    // One arena per pass family, reused across cases as a pipeline worker
    // reuses its own across functions.
    let (mut scratch, mut alloc) = (OptScratch::default(), AllocScratch::default());
    let tr = &mut FuncTrace::off();
    for case in 0..200 {
        let mut func = random_function(&mut rng, &tag_ids);
        let fid = FuncId(0);
        let mut fa = FunctionAnalyses::new();
        let f = &mut func;

        cfg::normalize_loops_in(f, &mut fa);
        assert_cache_fresh_normalized(f, &mut fa, case, "normalize");
        opt::strengthen_function(&tags, f, fid, false, &mut fa, tr);
        assert_cache_fresh(f, &mut fa, case, "strengthen");
        cfg::normalize_loops_in(f, &mut fa);
        promote::promote_scalars_in_func(&tags, f, fid, false, None, &mut fa, tr);
        assert_cache_fresh_normalized(f, &mut fa, case, "promote");
        opt::lvn_function(f, &mut fa, &mut scratch.lvn, tr);
        assert_cache_fresh(f, &mut fa, case, "lvn");
        opt::loadelim_function(f, &mut fa, &mut scratch.loadelim, tr);
        assert_cache_fresh(f, &mut fa, case, "loadelim");
        opt::constprop_function(f, &mut fa, &mut scratch.constprop, tr);
        assert_cache_fresh(f, &mut fa, case, "constprop");
        cfg::normalize_loops_in(f, &mut fa);
        opt::licm_function(f, &mut fa, &mut scratch.licm, tr);
        assert_cache_fresh_normalized(f, &mut fa, case, "licm");
        cfg::normalize_loops_in(f, &mut fa);
        promote::promote_pointers_in_func(f, &mut fa, tr);
        assert_cache_fresh_normalized(f, &mut fa, case, "pointer-promote");
        opt::lvn_function(f, &mut fa, &mut scratch.lvn, tr);
        assert_cache_fresh(f, &mut fa, case, "lvn(2)");
        opt::dce_function(f, &mut fa, &mut scratch.dce, tr);
        assert_cache_fresh(f, &mut fa, case, "dce");
        opt::clean_function(f, &mut fa, &mut scratch.clean, tr);
        assert_cache_fresh(f, &mut fa, case, "clean");
        let mut pending = Vec::new();
        regalloc::allocate_function(&tags, f, fid, &opts, &mut pending, &mut fa, &mut alloc, tr);
        assert_cache_fresh(f, &mut fa, case, "regalloc");
        opt::clean_function(f, &mut fa, &mut scratch.clean, tr);
        assert_cache_fresh(f, &mut fa, case, "clean(final)");
    }
}

/// The no-change fast path must actually be fast: once the chain has
/// converged, re-running passes may not construct a single new artifact.
/// This is the guard against over-conservative invalidation — a pass that
/// reports changes it did not make shows up here as a nonzero build delta.
#[test]
fn converged_passes_skip_all_rebuilds() {
    let (tags, tag_ids) = test_tags();
    let mut rng = Rng::new(0x5EED_CAFE_0000_0001);
    let scratch = &mut OptScratch::default();
    let tr = &mut FuncTrace::off();
    for case in 0..200 {
        let mut func = random_function(&mut rng, &tag_ids);
        let fid = FuncId(0);
        let mut fa = FunctionAnalyses::new();
        let f = &mut func;

        // Drive to a fixpoint: run the optimization passes until one full
        // round reports no changes. (LICM and normalization are excluded —
        // `clean` folds the jump-only landing pads normalization inserts,
        // so a normalize/clean round never quiesces by design; their
        // no-change fast path is asserted separately below.)
        for _ in 0..8 {
            let mut changed = 0;
            changed += opt::strengthen_function(&tags, f, fid, false, &mut fa, tr);
            changed += opt::lvn_function(f, &mut fa, &mut scratch.lvn, tr);
            changed += opt::loadelim_function(f, &mut fa, &mut scratch.loadelim, tr);
            changed += opt::constprop_function(f, &mut fa, &mut scratch.constprop, tr);
            changed += opt::dce_function(f, &mut fa, &mut scratch.dce, tr);
            changed += opt::clean_function(f, &mut fa, &mut scratch.clean, tr);
            if changed == 0 {
                break;
            }
        }

        // Warm every artifact, then snapshot the ledger.
        fa.cfg_dom_forest(f);
        fa.cfg_dom_liveness(f);
        let before = fa.builds;

        // A converged round touches nothing, so the cache must serve every
        // analysis request without a single construction.
        opt::strengthen_function(&tags, f, fid, false, &mut fa, tr);
        opt::lvn_function(f, &mut fa, &mut scratch.lvn, tr);
        opt::loadelim_function(f, &mut fa, &mut scratch.loadelim, tr);
        opt::constprop_function(f, &mut fa, &mut scratch.constprop, tr);
        opt::dce_function(f, &mut fa, &mut scratch.dce, tr);
        opt::clean_function(f, &mut fa, &mut scratch.clean, tr);

        assert_eq!(
            fa.builds, before,
            "case {case}: converged re-run rebuilt analyses\n{func:?}"
        );
    }
}

/// Loop normalization's no-change fast path: normalizing an
/// already-normalized function must not construct a single artifact (the
/// pre-cache implementation rebuilt the CFG three times and the dominator
/// tree and loop forest twice, unconditionally).
#[test]
fn renormalizing_a_normalized_function_builds_nothing() {
    let (_, tag_ids) = test_tags();
    let mut rng = Rng::new(0x0BAD_5EED_0000_0002);
    for case in 0..200 {
        let mut func = random_function(&mut rng, &tag_ids);
        let mut fa = FunctionAnalyses::new();
        cfg::normalize_loops_in(&mut func, &mut fa);
        let before = fa.builds;
        cfg::normalize_loops_in(&mut func, &mut fa);
        assert_eq!(
            fa.builds, before,
            "case {case}: re-normalization rebuilt analyses\n{func:?}"
        );
    }
}
