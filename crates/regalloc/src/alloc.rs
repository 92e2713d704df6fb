//! Chaitin–Briggs graph-coloring register allocation.
//!
//! The paper's compiler uses "a graph-coloring allocator [Briggs, Cooper &
//! Torczon]" whose copy coalescing "is quite effective at eliminating" the
//! copies promotion introduces, and whose spilling can *undo* a promotion
//! when demand exceeds supply (the `water` anomaly). This allocator
//! reproduces both behaviours:
//!
//! * interference graph from backward liveness (copies interfere with all
//!   of `live-after` except their source);
//! * Briggs-conservative coalescing of register copies;
//! * simplify/select with optimistic coloring and loop-depth-weighted
//!   spill costs;
//! * spill code through compiler-introduced **spill tags**, so spill
//!   traffic shows up in the measured load/store counts exactly as it does
//!   in the paper's figures.
//!
//! Allocation is split into a per-function core ([`allocate_function`])
//! that touches only the function body plus a read-only tag-table snapshot,
//! and a sequential commit ([`commit_spills`]) that interns the spill tags
//! the core requested. The core hands out *provisional* tag ids (at or
//! above [`PROVISIONAL_SPILL_BASE`]); committing in function-index order
//! reproduces exactly the tag table a sequential allocation would build,
//! which is what lets the driver fan functions out across threads without
//! perturbing printed IL.

use crate::matrix::BitMatrix;
use cfg::{for_each_instr_backwards_in, Cfg, FunctionAnalyses, Liveness, RegSet};
use ir::{BlockId, FuncId, Function, Instr, Module, Reg, RewriteBuf, TagId, TagKind, TagTable};
use std::collections::{BTreeMap, BTreeSet, HashMap};

/// Reusable allocator state for [`allocate_function`]: the
/// interference graph and coalescer's class adjacency (the two big
/// [`BitMatrix`] builds), every per-round simplify/select vector, and the
/// [`RewriteBuf`] the spill inserter rebuilds blocks through. One of these
/// lives per pipeline worker; in the steady state a round allocates
/// nothing but the (rare, deliberately `BTreeSet`-based) spill bookkeeping.
pub struct AllocScratch {
    graph: BitMatrix,
    graph_version: Option<u64>,
    class_adj: BitMatrix,
    parent: Vec<u32>,
    copies: Vec<(Reg, Reg)>,
    other_adj: Vec<u32>,
    dirty: Vec<BlockId>,
    costs: Vec<f64>,
    degree: Vec<usize>,
    removed: Vec<bool>,
    stack: Vec<u32>,
    work: Vec<u32>,
    color: Vec<Option<u32>>,
    used_colors: Vec<bool>,
    shadows: Vec<Reg>,
    used_regs: Vec<u32>,
    remap_tmp: Vec<Reg>,
    occurs: RegSet,
    rw: RewriteBuf,
}

impl Default for AllocScratch {
    fn default() -> Self {
        AllocScratch {
            graph: BitMatrix::new(0),
            graph_version: None,
            class_adj: BitMatrix::new(0),
            parent: Vec::new(),
            copies: Vec::new(),
            other_adj: Vec::new(),
            dirty: Vec::new(),
            costs: Vec::new(),
            degree: Vec::new(),
            removed: Vec::new(),
            stack: Vec::new(),
            work: Vec::new(),
            color: Vec::new(),
            used_colors: Vec::new(),
            shadows: Vec::new(),
            used_regs: Vec::new(),
            remap_tmp: Vec::new(),
            occurs: RegSet::new(0),
            rw: RewriteBuf::new(),
        }
    }
}

/// Allocation parameters.
#[derive(Debug, Clone)]
pub struct AllocOptions {
    /// Number of machine registers (colors).
    pub num_regs: usize,
    /// Safety bound on spill-and-retry rounds.
    pub max_rounds: usize,
}

impl Default for AllocOptions {
    fn default() -> Self {
        AllocOptions {
            num_regs: 32,
            max_rounds: 24,
        }
    }
}

/// What allocation did to one function (or, summed, to a module).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct AllocReport {
    /// Copies removed by coalescing.
    pub coalesced: usize,
    /// Virtual registers spilled to memory.
    pub spilled: usize,
    /// Virtual registers rematerialized instead of spilled (their single
    /// definition is a constant-like instruction that is cheaper to
    /// recompute than to reload).
    pub rematerialized: usize,
    /// Spill loads inserted (static count).
    pub spill_loads: usize,
    /// Spill stores inserted (static count).
    pub spill_stores: usize,
    /// Simplify/select rounds run.
    pub rounds: usize,
}

/// First provisional spill-tag id. Real tag ids are interned densely from
/// zero; anything at or above this base is a placeholder that
/// [`commit_spills`] must replace.
pub const PROVISIONAL_SPILL_BASE: u32 = 0x8000_0000;

/// A spill tag requested by [`allocate_function`] but not yet
/// interned in the module's tag table.
#[derive(Debug, Clone)]
pub struct PendingSpill {
    /// The placeholder id the core wrote into the function's spill code.
    pub provisional: TagId,
    /// The name the real tag must be interned under.
    pub name: String,
}

/// Builds the interference graph as a dense [`BitMatrix`]: parameters
/// interfere pairwise, and every definition interferes with everything
/// live after it — except a copy's own source (so coalescing can merge the
/// pair) and the defined register itself.
///
/// Each def site ORs the whole `live_after` bitset into the def's row in
/// one word-wise pass, then repairs the two exceptions. The repair must be
/// careful about the copy-source bit: a *different* def site of the same
/// register may already have added a legitimate edge to this copy's
/// source, so the bit is only cleared if it was absent before the OR.
pub fn interference_graph(func: &Function, cfg: &Cfg, live: &Liveness) -> BitMatrix {
    let mut g = BitMatrix::new(0);
    interference_graph_in(func, cfg, live, &mut RegSet::new(0), &mut g);
    g
}

/// [`interference_graph`] into a caller-owned matrix, reusing its backing
/// storage (the scratch-arena path). `cursor` is the walk's live-after
/// working set; reusing it across builds keeps the per-block walk
/// allocation-free.
pub fn interference_graph_in(
    func: &Function,
    cfg: &Cfg,
    live: &Liveness,
    cursor: &mut RegSet,
    g: &mut BitMatrix,
) {
    let n = func.next_reg as usize;
    g.reset(n);
    // Parameters all interfere pairwise (they hold distinct incoming
    // values at entry). Directed bits; finalize mirrors them.
    for a in 0..func.arity as u32 {
        for b in (a + 1)..func.arity as u32 {
            g.set_raw(a, b);
        }
    }
    for &b in &cfg.rpo {
        for_each_instr_backwards_in(func, live, b, cursor, |_, instr, live_after| {
            if let Some(d) = instr.def() {
                let skip = match instr {
                    Instr::Copy { src, .. } => Some(*src),
                    _ => None,
                };
                let skip_was_set = skip.map(|s| g.contains(d.0, s.0)).unwrap_or(false);
                g.or_row_words(d.0, live_after.words());
                if let Some(s) = skip {
                    if !skip_was_set && s != d {
                        g.clear_raw(d.0, s.0);
                    }
                }
                // A register never interferes with itself; no def site can
                // have set this bit legitimately.
                g.clear_raw(d.0, d.0);
            }
        });
    }
    g.finalize_symmetric();
}

/// Ensures `graph` holds the interference graph of the current body,
/// keyed on the shared cache's body version. The CFG and liveness come out
/// of `analyses` (warm after the pass chain); only the graph itself is
/// allocator-private. The payoff is the coalescing fixpoint: its final
/// sweep (the one that merges nothing) leaves a fresh graph behind, which
/// the simplify/select phase then reuses instead of rebuilding.
fn ensure_graph(
    version: &mut Option<u64>,
    graph: &mut BitMatrix,
    cursor: &mut RegSet,
    func: &Function,
    analyses: &mut FunctionAnalyses,
) {
    let v = analyses.body_version();
    if *version != Some(v) {
        let (cfg, live) = analyses.cfg_liveness(func);
        interference_graph_in(func, cfg, live, cursor, graph);
        *version = Some(v);
    }
}

/// Per-register occurrence costs, weighted 10^loop-depth. The dominator
/// tree and loop forest come from the shared cache: allocation never
/// changes the block structure, so every spill round reuses one build.
fn spill_costs(func: &Function, analyses: &mut FunctionAnalyses, cost: &mut Vec<f64>) {
    let (cfg, _, forest) = analyses.cfg_dom_forest(func);
    cost.clear();
    cost.resize(func.next_reg as usize, 0.0);
    for bid in func.block_ids() {
        if !cfg.is_reachable(bid) {
            continue;
        }
        let depth = forest.block_loop[bid.index()]
            .map(|l| forest.get(l).depth)
            .unwrap_or(0);
        let w = 10f64.powi(depth as i32);
        for instr in &func.block(bid).instrs {
            if let Some(d) = instr.def() {
                cost[d.index()] += w;
            }
            instr.visit_uses(|r| cost[r.index()] += w);
        }
    }
}

/// One conservative-coalescing sweep over a prebuilt interference graph
/// (the caller provides it out of its graph cache, so the sweep that
/// reaches the fixpoint shares its build with the simplify/select phase
/// that follows). Returns copies eliminated; the blocks whose instructions
/// actually changed are appended to `dirty` so the caller can scope the
/// liveness invalidation.
#[allow(clippy::too_many_arguments)] // disjoint scratch buffers borrowed out of one `AllocScratch`
fn coalesce_once(
    func: &mut Function,
    k: usize,
    g: &BitMatrix,
    class_adj: &mut BitMatrix,
    parent: &mut Vec<u32>,
    copies: &mut Vec<(Reg, Reg)>,
    other_adj: &mut Vec<u32>,
    dirty: &mut Vec<BlockId>,
) -> usize {
    let nregs = func.next_reg as usize;
    let precolored = func.arity as u32;
    // Union-find over registers.
    parent.clear();
    parent.extend(0..nregs as u32);
    fn find(parent: &mut [u32], mut x: u32) -> u32 {
        while parent[x as usize] != x {
            parent[x as usize] = parent[parent[x as usize] as usize];
            x = parent[x as usize];
        }
        x
    }
    let mut merged = 0;
    // Collect copies.
    copies.clear();
    copies.extend(
        func.blocks
            .iter()
            .flat_map(|b| &b.instrs)
            .filter_map(|i| match i {
                Instr::Copy { dst, src } => Some((*dst, *src)),
                _ => None,
            }),
    );
    // Track adjacency unions as we merge (approximation: recompute the
    // union of original neighbor sets of the merged classes).
    class_adj.copy_from(g);
    for &(dst, src) in copies.iter() {
        let a = find(parent, dst.0);
        let b = find(parent, src.0);
        if a == b {
            merged += 1; // already identical: the copy is removable
            continue;
        }
        if a < precolored && b < precolored {
            continue;
        }
        if class_adj.contains(a, b) || g.contains(a, b) {
            continue;
        }
        // Conservative-coalescing tests: Briggs (the merged node must have
        // < k neighbors of significant degree) or George (every neighbor
        // of one side either already interferes with the other side or is
        // trivially colorable).
        let briggs = class_adj.briggs_union_ok(a, b, k);
        let george = |x: u32, y: u32| {
            class_adj
                .row_iter(x)
                .all(|t| class_adj.degree(t) < k || class_adj.contains(y, t))
        };
        if !briggs && !george(a, b) && !george(b, a) {
            continue;
        }
        // Merge b into a, preferring a precolored representative.
        let (rep, other) = if b < precolored { (b, a) } else { (a, b) };
        parent[other as usize] = rep;
        other_adj.clear();
        other_adj.extend(class_adj.row_iter(other));
        for &n in other_adj.iter() {
            class_adj.remove_edge(n, other);
            class_adj.insert_edge(n, rep);
        }
        merged += 1;
    }
    if merged == 0 {
        return 0;
    }
    // Rewrite registers to representatives and drop identity copies.
    for (bi, block) in func.blocks.iter_mut().enumerate() {
        let mut touched = false;
        for instr in &mut block.instrs {
            if let Some(d) = instr.def_mut() {
                let rep = Reg(find(parent, d.0));
                if *d != rep {
                    *d = rep;
                    touched = true;
                }
            }
            instr.visit_uses_mut(|r| {
                let rep = Reg(find(parent, r.0));
                if *r != rep {
                    *r = rep;
                    touched = true;
                }
            });
        }
        let before = block.instrs.len();
        block
            .instrs
            .retain(|i| !matches!(i, Instr::Copy { dst, src } if dst == src));
        if touched || block.instrs.len() != before {
            dirty.push(BlockId(bi as u32));
        }
    }
    merged
}

/// A victim whose sole definition is constant-like is *rematerialized*:
/// each use gets a fresh recomputation instead of a memory reload. This is
/// the Chaitin/Briggs treatment of never-killed values and is essential
/// for honest spill counts — most high-degree values in optimized code are
/// loop-hoisted constants and addresses.
fn try_rematerialize(
    func: &mut Function,
    victims: &mut BTreeSet<u32>,
    temps: &mut BTreeSet<u32>,
    dirty: &mut BTreeSet<u32>,
) -> usize {
    // Map victim -> its defining instruction if it has exactly one def and
    // that def is constant-like.
    let mut def_count: BTreeMap<u32, usize> = BTreeMap::new();
    let mut def_instr: BTreeMap<u32, Instr> = BTreeMap::new();
    for block in &func.blocks {
        for instr in &block.instrs {
            if let Some(d) = instr.def() {
                if victims.contains(&d.0) {
                    *def_count.entry(d.0).or_default() += 1;
                    def_instr.insert(d.0, instr.clone());
                }
            }
        }
    }
    let rematable: BTreeMap<u32, Instr> = def_instr
        .into_iter()
        .filter(|(v, i)| {
            def_count.get(v) == Some(&1)
                && matches!(
                    i,
                    Instr::IConst { .. }
                        | Instr::FConst { .. }
                        | Instr::FuncAddr { .. }
                        | Instr::Lea { .. }
                )
        })
        .collect();
    if rematable.is_empty() {
        return 0;
    }
    for bi in 0..func.blocks.len() {
        let mut i = 0;
        while i < func.blocks[bi].instrs.len() {
            let instr = &func.blocks[bi].instrs[i];
            // Leave the original definitions alone (they become dead and
            // are cheap).
            if let Some(d) = instr.def() {
                if rematable.contains_key(&d.0) && instr == &rematable[&d.0] {
                    i += 1;
                    continue;
                }
            }
            let mut used: Vec<u32> = Vec::new();
            instr.visit_uses(|r| {
                if rematable.contains_key(&r.0) && !used.contains(&r.0) {
                    used.push(r.0);
                }
            });
            if used.is_empty() {
                i += 1;
                continue;
            }
            let mut remap: BTreeMap<u32, Reg> = BTreeMap::new();
            dirty.insert(bi as u32);
            for &v in &used {
                let tmp = Reg(func.next_reg);
                func.next_reg += 1;
                temps.insert(tmp.0);
                let mut clone = rematable[&v].clone();
                if let Some(d) = clone.def_mut() {
                    *d = tmp;
                }
                func.blocks[bi].instrs.insert(i, clone);
                i += 1;
                remap.insert(v, tmp);
            }
            let instr = &mut func.blocks[bi].instrs[i];
            instr.visit_uses_mut(|r| {
                if let Some(t) = remap.get(&r.0) {
                    *r = *t;
                }
            });
            i += 1;
        }
    }
    // Drop the original definitions: every use now has a fresh
    // recomputation, so they are dead — and a dead def is not merely
    // wasteful. It keeps its node (and full degree) in the interference
    // graph, so select can pick it as the victim again next round, and
    // rematerialization would "handle" it without touching the body:
    // allocation livelocks re-spilling the same register forever.
    for (bi, block) in func.blocks.iter_mut().enumerate() {
        let before = block.instrs.len();
        block
            .instrs
            .retain(|instr| !matches!(instr.def(), Some(d) if rematable.get(&d.0) == Some(instr)));
        if block.instrs.len() != before {
            dirty.insert(bi as u32);
        }
    }
    let n = rematable.len();
    for v in rematable.keys() {
        victims.remove(v);
    }
    n
}

/// Inserts spill code for `victims`; returns (loads, stores) inserted and
/// the short-range temporaries created (which must never be spill
/// candidates themselves, or allocation would not terminate).
///
/// Spill tags are *not* interned here: each victim gets a provisional id
/// recorded in `pending`, so the caller (or the driver's parallel commit)
/// can intern the real tags in deterministic function order.
#[allow(clippy::too_many_arguments)] // disjoint scratch buffers borrowed out of one `AllocScratch`
fn insert_spill_code(
    func: &mut Function,
    victims: &BTreeSet<u32>,
    spill_base: usize,
    pending: &mut Vec<PendingSpill>,
    dirty: &mut BTreeSet<u32>,
    rw: &mut RewriteBuf,
    used_regs: &mut Vec<u32>,
    remap_tmp: &mut Vec<Reg>,
) -> (usize, usize, BTreeSet<u32>) {
    // One spill tag per victim, named sequentially over all spill tags this
    // function has ever received (pre-existing `spill_base` plus the ones
    // requested so far), so names stay unique across spill rounds.
    let mut tags = BTreeMap::new();
    for &v in victims {
        let name = format!("{}.spill{}", func.name, spill_base + pending.len());
        let provisional = TagId(PROVISIONAL_SPILL_BASE + pending.len() as u32);
        pending.push(PendingSpill { provisional, name });
        tags.insert(v, provisional);
    }
    let arity = func.arity as u32;
    let mut loads = 0;
    let mut stores = 0;
    let mut temps: BTreeSet<u32> = BTreeSet::new();
    // Spilled parameters are stored once on entry; one splice preserves the
    // order the old per-element `insert(0, ..)` loop produced (descending
    // victim number at the block head).
    let entry = func.entry;
    let spilled_params = victims.iter().rev().filter(|&&v| v < arity).count();
    if spilled_params > 0 {
        func.block_mut(entry).instrs.splice(
            0..0,
            victims
                .iter()
                .rev()
                .filter(|&&v| v < arity)
                .map(|&v| Instr::SStore {
                    src: Reg(v),
                    tag: tags[&v],
                }),
        );
        stores += spilled_params;
        dirty.insert(entry.0);
    }
    // Rebuild each block in one retain-style sweep: reloads go out before
    // the rewritten instruction, the post-def store right after it.
    let mut next_reg = func.next_reg;
    for bi in 0..func.blocks.len() {
        rw.rebuild(&mut func.blocks[bi], |mut instr, out| {
            // Pass the entry stores just inserted through untouched.
            if let Instr::SStore { src, tag } = &instr {
                if tags.get(&src.0) == Some(tag) {
                    out.push(instr);
                    return;
                }
            }
            used_regs.clear();
            instr.visit_uses(|r| {
                if victims.contains(&r.0) && !used_regs.contains(&r.0) {
                    used_regs.push(r.0);
                }
            });
            let def = instr.def().filter(|d| victims.contains(&d.0));
            if used_regs.is_empty() && def.is_none() {
                out.push(instr);
                return;
            }
            dirty.insert(bi as u32);
            // Loads before: one fresh temp per distinct spilled use.
            remap_tmp.clear();
            for &v in used_regs.iter() {
                let tmp = Reg(next_reg);
                next_reg += 1;
                temps.insert(tmp.0);
                remap_tmp.push(tmp);
                out.push(Instr::SLoad {
                    dst: tmp,
                    tag: tags[&v],
                });
                loads += 1;
            }
            instr.visit_uses_mut(|r| {
                if let Some(pos) = used_regs.iter().position(|&v| v == r.0) {
                    *r = remap_tmp[pos];
                }
            });
            match def {
                Some(d) => {
                    let tmp = Reg(next_reg);
                    next_reg += 1;
                    temps.insert(tmp.0);
                    *instr.def_mut().expect("def checked") = tmp;
                    out.push(instr);
                    // A terminator cannot define a register, so storing
                    // after is always legal.
                    out.push(Instr::SStore {
                        src: tmp,
                        tag: tags[&d.0],
                    });
                    stores += 1;
                }
                None => out.push(instr),
            }
        });
    }
    func.next_reg = next_reg;
    (loads, stores, temps)
}

/// The pipeline entry point: allocates one function onto `opts.num_regs`
/// registers, using only a read-only snapshot of the tag table. Spill
/// tags the function needs are returned through `pending` as provisional
/// ids; the caller must intern them with [`commit_spills`] before the
/// module is printed, validated, or run. When `tr` is enabled, each spill
/// victim is reported as a [`trace::Remark::Spilled`] with the
/// simplify/select round that demanded it, and the net spill-code
/// insertion lands as a `regalloc` delta.
///
/// # Panics
///
/// Panics if the function's arity exceeds the register count or if
/// allocation fails to converge within `opts.max_rounds`.
// One parameter per independent input of a per-function pass run under
// the fused chain (tag snapshot, body, id, options, spill out-list,
// analysis cache, worker scratch, trace); bundling them would only move
// the same list into a struct built at each of its two call sites.
#[allow(clippy::too_many_arguments)]
pub fn allocate_function(
    tags: &TagTable,
    func: &mut Function,
    func_id: FuncId,
    opts: &AllocOptions,
    pending: &mut Vec<PendingSpill>,
    analyses: &mut FunctionAnalyses,
    scratch: &mut AllocScratch,
    tr: &mut trace::FuncTrace,
) -> AllocReport {
    tr.record_delta(
        "regalloc",
        func,
        |f| f.body_stats().into(),
        |func, tr| allocate_in(tags, func, func_id, opts, pending, analyses, scratch, tr),
        |_| false,
    )
}

/// The body of [`allocate_function`].
#[allow(clippy::too_many_arguments)] // the entry point's parameters, passed through
fn allocate_in(
    tags: &TagTable,
    func: &mut Function,
    func_id: FuncId,
    opts: &AllocOptions,
    pending: &mut Vec<PendingSpill>,
    analyses: &mut FunctionAnalyses,
    scratch: &mut AllocScratch,
    tr: &mut trace::FuncTrace,
) -> AllocReport {
    let AllocScratch {
        graph,
        graph_version,
        class_adj,
        parent,
        copies,
        other_adj,
        dirty,
        costs,
        degree,
        removed,
        stack,
        work,
        color,
        used_colors,
        shadows,
        used_regs,
        remap_tmp,
        occurs,
        rw,
    } = scratch;
    // Versions are per-`FunctionAnalyses`; a cached graph from a previous
    // function must never be mistaken for this one's.
    *graph_version = None;
    let mut report = AllocReport::default();
    let k = opts.num_regs;
    assert!(
        func.arity <= k,
        "@{}: arity {} exceeds {k} registers",
        func.name,
        func.arity
    );
    // Spill tags this function already owns (normally zero; nonzero only if
    // allocation is re-run on an already-allocated module).
    let spill_base = tags
        .iter()
        .filter(|(_, t)| matches!(t.kind, TagKind::Spill { owner } if owner == func_id.0))
        .count();
    let mut no_spill: BTreeSet<u32> = BTreeSet::new();
    loop {
        report.rounds += 1;
        // Decouple parameter values from their fixed incoming registers:
        // each param is copied into a fresh allocatable vreg at entry and
        // the body uses only the vreg. Under low pressure coalescing
        // merges the pair back (zero cost); under high pressure the vreg
        // can spill — leaving a precolored register live across the whole
        // function would make tight functions uncolorable. This runs at
        // the start of *every* round because pre-spill coalescing may
        // legitimately undo it; once spilling starts, coalescing freezes
        // and the decoupling sticks.
        {
            let arity = func.arity as u32;
            if arity > 0 {
                shadows.clear();
                shadows.extend((0..arity).map(|_| func.new_reg()));
                debug_assert!(dirty.is_empty());
                for (bi, block) in func.blocks.iter_mut().enumerate() {
                    let mut touched = false;
                    for instr in &mut block.instrs {
                        if let Some(d) = instr.def_mut() {
                            if d.0 < arity {
                                *d = shadows[d.0 as usize];
                                touched = true;
                            }
                        }
                        instr.visit_uses_mut(|r| {
                            if r.0 < arity {
                                *r = shadows[r.0 as usize];
                                touched = true;
                            }
                        });
                    }
                    if touched {
                        dirty.push(BlockId(bi as u32));
                    }
                }
                let entry = func.entry;
                // One splice in forward order matches the old reversed
                // `insert(0, ..)` loop exactly.
                func.block_mut(entry).instrs.splice(
                    0..0,
                    shadows.iter().enumerate().map(|(i, &v)| Instr::Copy {
                        dst: v,
                        src: Reg(i as u32),
                    }),
                );
                dirty.push(entry);
                analyses.note_body_changed_blocks(dirty.drain(..));
            }
        }
        if std::env::var("REGALLOC_DEBUG").is_ok() {
            eprintln!(
                "round {}: instrs={} next_reg={}",
                report.rounds,
                func.instr_count(),
                func.next_reg
            );
        }
        assert!(
            report.rounds <= opts.max_rounds,
            "@{}: register allocation did not converge",
            func.name
        );
        // Coalesce until stable — but only before any spill round.
        // Iterating coalescing against spilling can oscillate (a merge
        // makes the graph uncolorable, spill code re-enables the merge,
        // ...), so once spill code exists, coalescing is frozen: the
        // classic iterated-coalescing discipline.
        if report.spilled == 0 {
            debug_assert!(dirty.is_empty());
            loop {
                ensure_graph(graph_version, graph, occurs, func, analyses);
                let c = coalesce_once(func, k, graph, class_adj, parent, copies, other_adj, dirty);
                report.coalesced += c;
                if c == 0 {
                    break;
                }
                analyses.note_body_changed_blocks(dirty.drain(..));
            }
        }
        // The final coalescing sweep merged nothing, so its graph describes
        // the current body: ensure_graph() is a no-op there and the build
        // is shared with simplify/select below.
        ensure_graph(graph_version, graph, occurs, func, analyses);
        spill_costs(func, analyses, costs);
        let g = &*graph;
        let precolored = func.arity as u32;
        let nregs = func.next_reg as usize;
        // Registers that actually occur.
        occurs.reset(nregs);
        for block in &func.blocks {
            for instr in &block.instrs {
                if let Some(d) = instr.def() {
                    occurs.insert(d);
                }
                instr.visit_uses(|r| {
                    occurs.insert(r);
                });
            }
        }
        for p in 0..precolored {
            occurs.insert(Reg(p));
        }
        // Simplify.
        degree.clear();
        degree.extend((0..nregs as u32).map(|r| g.degree(r)));
        removed.clear();
        removed.resize(nregs, false);
        stack.clear();
        work.clear();
        work.extend(occurs.iter().map(|r| r.0).filter(|&r| r >= precolored));
        let mut remaining = work.len();
        while remaining > 0 {
            // Prefer a trivially colorable node.
            let pick = work
                .iter()
                .copied()
                .filter(|&r| !removed[r as usize])
                .find(|&r| degree[r as usize] < k)
                .or_else(|| {
                    // Potential spill: cheapest cost/degree among regs that
                    // are not themselves spill temporaries, pushed
                    // optimistically; fall back to any node if only temps
                    // remain.
                    let candidate = |rs: &mut dyn Iterator<Item = u32>| {
                        rs.min_by(|&a, &b| {
                            let ca = costs[a as usize] / (degree[a as usize].max(1) as f64);
                            let cb = costs[b as usize] / (degree[b as usize].max(1) as f64);
                            ca.partial_cmp(&cb).expect("costs are finite")
                        })
                    };
                    candidate(
                        &mut work
                            .iter()
                            .copied()
                            .filter(|&r| !removed[r as usize] && !no_spill.contains(&r)),
                    )
                    .or_else(|| {
                        candidate(&mut work.iter().copied().filter(|&r| !removed[r as usize]))
                    })
                });
            let r = pick.expect("remaining > 0 implies a node exists");
            removed[r as usize] = true;
            stack.push(r);
            remaining -= 1;
            for n in g.row_iter(r) {
                degree[n as usize] = degree[n as usize].saturating_sub(1);
            }
        }
        // Select.
        color.clear();
        color.resize(nregs, None);
        for p in 0..precolored {
            color[p as usize] = Some(p);
        }
        let mut spilled: BTreeSet<u32> = BTreeSet::new();
        while let Some(r) = stack.pop() {
            used_colors.clear();
            used_colors.resize(k, false);
            for n in g.row_iter(r) {
                if let Some(c) = color[n as usize] {
                    used_colors[c as usize] = true;
                }
            }
            match (0..k as u32).find(|&c| !used_colors[c as usize]) {
                Some(c) => color[r as usize] = Some(c),
                None => {
                    spilled.insert(r);
                }
            }
        }
        if std::env::var("REGALLOC_DEBUG").is_ok() {
            eprintln!("  spilled this round: {spilled:?}");
        }
        if spilled.is_empty() {
            // Rewrite to physical registers.
            for block in &mut func.blocks {
                for instr in &mut block.instrs {
                    if let Some(d) = instr.def_mut() {
                        *d = Reg(color[d.index()].expect("colored def"));
                    }
                    instr.visit_uses_mut(|r| {
                        *r = Reg(color[r.index()].expect("colored use"));
                    });
                }
                // Coloring can introduce identity copies; drop them.
                block
                    .instrs
                    .retain(|i| !matches!(i, Instr::Copy { dst, src } if dst == src));
            }
            func.next_reg = k as u32;
            // The physical-register rewrite is the last body change.
            analyses.note_body_changed();
            return report;
        }
        let mut temps = BTreeSet::new();
        let mut dirty: BTreeSet<u32> = BTreeSet::new();
        report.rematerialized += try_rematerialize(func, &mut spilled, &mut temps, &mut dirty);
        let (rw, used_regs, remap_tmp) = (&mut *rw, &mut *used_regs, &mut *remap_tmp);
        report.spilled += spilled.len();
        if tr.enabled() {
            for &r in &spilled {
                tr.remark(
                    "regalloc",
                    trace::Remark::Spilled {
                        reg: r,
                        round: report.rounds,
                    },
                );
            }
        }
        let (l, s, spill_temps) = insert_spill_code(
            func, &spilled, spill_base, pending, &mut dirty, rw, used_regs, remap_tmp,
        );
        temps.extend(spill_temps);
        no_spill.extend(temps);
        report.spill_loads += l;
        report.spill_stores += s;
        analyses.note_body_changed_blocks(dirty.into_iter().map(BlockId));
    }
}

/// Interns the spill tags one function's allocation requested and rewrites
/// its provisional ids to the real ones. Call once per function, in
/// function-index order, so the resulting tag table matches a sequential
/// allocation exactly.
pub fn commit_spills(module: &mut Module, func_id: FuncId, pending: Vec<PendingSpill>) {
    if pending.is_empty() {
        return;
    }
    let mut remap: HashMap<u32, TagId> = HashMap::with_capacity(pending.len());
    for p in pending {
        let real = module
            .tags
            .intern(p.name, TagKind::Spill { owner: func_id.0 }, 1);
        remap.insert(p.provisional.0, real);
    }
    let func = module.func_mut(func_id);
    for block in &mut func.blocks {
        for instr in &mut block.instrs {
            match instr {
                Instr::SLoad { tag, .. } | Instr::SStore { tag, .. } => {
                    if let Some(real) = remap.get(&tag.0) {
                        *tag = *real;
                    }
                }
                _ => {}
            }
        }
    }
}

/// Allocates every function in the module.
pub fn allocate(module: &mut Module, opts: &AllocOptions) -> AllocReport {
    let mut total = AllocReport::default();
    let mut scratch = AllocScratch::default();
    for fi in 0..module.funcs.len() {
        let mut pending = Vec::new();
        let r = allocate_function(
            &module.tags,
            &mut module.funcs[fi],
            FuncId(fi as u32),
            opts,
            &mut pending,
            &mut FunctionAnalyses::new(),
            &mut scratch,
            &mut trace::FuncTrace::off(),
        );
        commit_spills(module, FuncId(fi as u32), pending);
        total.coalesced += r.coalesced;
        total.spilled += r.spilled;
        total.rematerialized += r.rematerialized;
        total.spill_loads += r.spill_loads;
        total.spill_stores += r.spill_stores;
        total.rounds += r.rounds;
    }
    debug_assert!(
        ir::validate(module).is_ok(),
        "allocation produced invalid IL"
    );
    total
}
