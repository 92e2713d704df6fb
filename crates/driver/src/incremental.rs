//! Content-addressed incremental recompilation.
//!
//! A [`FuncCache`] memoizes each function's trip through the fused
//! intra-procedural pass chain across compiles of the *same*
//! [`crate::Session`]. The key is a 64-bit **fingerprint** of everything
//! the chain's output can depend on:
//!
//! * the function's canonical post-lowering body ([`ir::hash::body_hash`]
//!   — structural, resolved through tag and function *names*, so arena
//!   index shifts between compiles do not perturb it),
//! * the interprocedural facts the analysis barrier wrote into the body
//!   — call-site MOD/REF lists, refined pointer tag sets, and the
//!   referenced tags' interned attributes ([`ir::hash::facts_hash`]),
//! * the function's transitive MOD/REF summary digest
//!   ([`analysis::modref_summary_hashes`] — this is what propagates a
//!   *callee's* behaviour change up the call graph, per
//!   [`analysis::CallGraph::callers`], even when the caller's own body
//!   is untouched),
//! * the output-affecting [`crate::PipelineConfig`] fields, and
//! * whether the function sits on a call-graph cycle.
//!
//! On a hit the cached function body is *spliced* back into the module.
//! When every cached tag and function id still names the same definition
//! the body is cloned as is; when the edit added or removed definitions
//! ahead of it, ids are re-resolved by name through a [`SpliceIndex`]
//! built once per compile. The cached chain counters and remark events
//! are replayed, and the cached pending spill tags rejoin the sequential
//! function-index-order commit — so a warm compile's module, report
//! counters, and remark stream are byte-identical to a cold compile's.
//! Only fingerprint misses go through the chain, and the worker pool fans
//! out over exactly that residual set.
//!
//! The per-compile cost is meant to be about the number of tags plus the
//! number of tag-set members, each a plain word operation: the facts hash
//! folds one precomputed [`TagDigests`] word per member, an identity
//! splice compares each cached name once, and a store dedups the
//! referenced tags in a bitmap, joining spilled sets word-wise. After
//! MOD/REF analysis, set members can outnumber instructions ten to one,
//! so no per-member step may hash a string, sort, or search.
//!
//! Entries are evicted least-recently-used when the cache exceeds its
//! byte budget ([`crate::SessionBuilder::cache_budget`]).

use crate::pipeline::{FuncOutcome, PipelineConfig};
use analysis::AnalysisLevel;
use ir::hash::{body_hash, facts_hash, fx_mix, FxHasher, TagDigests};
use ir::{BlockId, DenseTagSet, FuncId, Function, Instr, Module, Reg, TagId, TagSet};
use regalloc::PROVISIONAL_SPILL_BASE;
use std::collections::HashMap;
use std::hash::Hasher;
use trace::PassEvent;

/// Default cache byte budget: plenty for every in-tree workload while
/// still bounding a long-lived compile service.
pub const DEFAULT_CACHE_BUDGET: usize = 64 << 20;

/// What the incremental layer did during one compile — the per-run view
/// surfaced as [`crate::PipelineReport::incremental`].
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct IncrementalReport {
    /// Functions in the module.
    pub funcs_total: usize,
    /// Functions that went through the fused pass chain (fingerprint
    /// misses).
    pub funcs_recompiled: usize,
    /// Functions spliced from the cache.
    pub cache_hits: usize,
    /// Misses whose own body hash was unchanged — the function was
    /// recompiled only because an interprocedural fact changed under it
    /// (a callee's MOD/REF summary, a referenced tag's attributes) or
    /// the configuration changed.
    pub summary_invalidated: usize,
    /// Entries evicted by the byte budget after this compile.
    pub evictions: usize,
    /// Cache size in (approximate) bytes after this compile.
    pub cache_bytes: usize,
}

impl IncrementalReport {
    /// Hits over total functions, in `[0, 1]` (1.0 for an empty module).
    pub fn hit_rate(&self) -> f64 {
        if self.funcs_total == 0 {
            1.0
        } else {
            self.cache_hits as f64 / self.funcs_total as f64
        }
    }
}

/// One memoized function: the chain's output plus everything needed to
/// replay it into a later compile of a (possibly edited) module.
struct CacheEntry {
    /// Full fingerprint (body + facts + summary + config + recursion).
    fp: u64,
    /// The body component alone, kept separate so a miss can be
    /// classified: same body but different `fp` means an interprocedural
    /// fact or config change invalidated the function.
    h_body: u64,
    /// Post-chain body with provisional spill ids still in place (the
    /// spill commit is replayed per compile so tag ids come out in
    /// function-index order, exactly as a cold compile interns them).
    body: Function,
    /// Names of every non-provisional tag id the body references, for
    /// re-resolution against the next compile's tag table.
    tag_names: Vec<(u32, String)>,
    /// Names of every function id the body references.
    func_names: Vec<(u32, String)>,
    /// Chain counters, allocation report, and pending spills to replay.
    /// The stored per-pass timing rows are *not* replayed into warm
    /// reports — a hit spends none of that time — but ride along for
    /// inspection.
    outcome: FuncOutcome,
    /// The chain's trace-event suffix (empty when the config traces
    /// nothing), replayed verbatim so warm remark streams match cold.
    events: Vec<PassEvent>,
    /// Approximate heap footprint, for the eviction budget.
    approx_bytes: usize,
    /// Last compile tick that stored or spliced this entry (LRU clock).
    last_used: u64,
}

/// The per-session function cache. See the module docs for the
/// fingerprint definition and splice semantics.
pub struct FuncCache {
    entries: HashMap<String, CacheEntry>,
    byte_budget: usize,
    bytes: usize,
    tick: u64,
}

impl std::fmt::Debug for FuncCache {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FuncCache")
            .field("entries", &self.entries.len())
            .field("bytes", &self.bytes)
            .field("byte_budget", &self.byte_budget)
            .finish()
    }
}

impl FuncCache {
    /// An empty cache with the given eviction budget in bytes.
    pub fn new(byte_budget: usize) -> FuncCache {
        FuncCache {
            entries: HashMap::new(),
            byte_budget,
            bytes: 0,
            tick: 0,
        }
    }

    /// Number of cached functions.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when nothing is cached.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Approximate bytes held.
    pub fn bytes(&self) -> usize {
        self.bytes
    }

    /// Advances the LRU clock; called once per compile.
    pub(crate) fn begin_compile(&mut self) {
        self.tick += 1;
    }

    /// The cached body-hash component for `name`, if any (for miss
    /// classification).
    pub(crate) fn peek_body_hash(&self, name: &str) -> Option<u64> {
        self.entries.get(name).map(|e| e.h_body)
    }

    /// Attempts a cache hit for function `fi` of the index's module: the
    /// entry must exist under the function's name, carry fingerprint
    /// `fp`, and every tag and function name it references must resolve
    /// in the module. On success returns the cached body (ids remapped)
    /// for the caller to install as `module.funcs[fi]`, plus the chain
    /// outcome and trace-event suffix; any failure is reported as `None`
    /// (a plain miss).
    pub(crate) fn splice(
        &mut self,
        index: &mut SpliceIndex<'_>,
        fi: usize,
        fp: u64,
    ) -> Option<(Function, FuncOutcome, Vec<PassEvent>)> {
        let tick = self.tick;
        let entry = self.entries.get_mut(&index.module.funcs[fi].name)?;
        if entry.fp != fp {
            return None;
        }
        let body = remap_body(entry, index)?;
        entry.last_used = tick;
        let mut outcome = entry.outcome.clone();
        // A spliced function spends no chain time *this* compile; replaying
        // the stored rows would overstate the warm run's per-pass cost.
        outcome.timings.clear();
        Some((body, outcome, entry.events.clone()))
    }

    /// Memoizes function `fi`'s chain output. Must be called *before* the
    /// spill commit mutates the body: the stored copy keeps its
    /// provisional spill ids so the commit can be replayed per compile.
    pub(crate) fn store(
        &mut self,
        module: &Module,
        fi: usize,
        fp: u64,
        h_body: u64,
        outcome: &FuncOutcome,
        events: Vec<PassEvent>,
    ) {
        let func = &module.funcs[fi];
        // A bitmap over the tag table dedups the references: a spilled
        // tag set joins it with one word-wise union.
        let mut tag_ids = DenseTagSet::new();
        let mut func_ids: Vec<u32> = Vec::new();
        for b in &func.blocks {
            for instr in &b.instrs {
                collect_refs(instr, &mut tag_ids, &mut func_ids);
            }
        }
        func_ids.sort_unstable();
        func_ids.dedup();
        let tag_names: Vec<(u32, String)> = tag_ids
            .iter()
            .map(|t| (t.0, module.tags.info(t).name.clone()))
            .collect();
        let func_names: Vec<(u32, String)> = func_ids
            .into_iter()
            .map(|id| (id, module.funcs[id as usize].name.clone()))
            .collect();
        let body = func.clone();
        let entry = CacheEntry {
            fp,
            h_body,
            approx_bytes: approx_entry_bytes(&body, &tag_names, &func_names, &events),
            body,
            tag_names,
            func_names,
            outcome: outcome.clone(),
            events,
            last_used: self.tick,
        };
        if let Some(old) = self.entries.insert(func.name.clone(), entry) {
            self.bytes -= old.approx_bytes;
        }
        self.bytes += self.entries[&func.name].approx_bytes;
    }

    /// Evicts least-recently-used entries until the cache fits its byte
    /// budget; returns how many were dropped.
    pub(crate) fn evict_to_budget(&mut self) -> usize {
        let mut evicted = 0;
        while self.bytes > self.byte_budget && !self.entries.is_empty() {
            let victim = self
                .entries
                .iter()
                .min_by_key(|(name, e)| (e.last_used, name.as_str()))
                .map(|(name, _)| name.clone())
                .expect("non-empty cache has a minimum");
            let old = self.entries.remove(&victim).expect("victim exists");
            self.bytes -= old.approx_bytes;
            evicted += 1;
        }
        evicted
    }
}

/// Rough per-entry heap footprint: instruction payloads plus the heap
/// they own (spilled tag-set words, call and phi argument vectors), name
/// tables, and trace events, plus a fixed overhead for the maps and
/// vectors.
fn approx_entry_bytes(
    func: &Function,
    tag_names: &[(u32, String)],
    func_names: &[(u32, String)],
    events: &[PassEvent],
) -> usize {
    let instrs: usize = func
        .blocks
        .iter()
        .flat_map(|b| &b.instrs)
        .map(|i| std::mem::size_of::<Instr>() + instr_heap_bytes(i))
        .sum();
    let names: usize = tag_names
        .iter()
        .chain(func_names)
        .map(|(_, n)| n.len() + 16)
        .sum();
    instrs
        + func.blocks.len() * std::mem::size_of::<ir::Block>()
        + std::mem::size_of_val(events)
        + names
        + func.name.len()
        + 256
}

/// Heap bytes an instruction owns beyond its inline payload.
fn instr_heap_bytes(instr: &Instr) -> usize {
    let set = |s: &TagSet| s.as_set().map_or(0, DenseTagSet::heap_bytes);
    match instr {
        Instr::Load { tags, .. } | Instr::Store { tags, .. } => set(tags),
        Instr::Call {
            args, mods, refs, ..
        } => args.capacity() * std::mem::size_of::<Reg>() + set(mods) + set(refs),
        Instr::Phi { args, .. } => args.capacity() * std::mem::size_of::<(BlockId, Reg)>(),
        _ => 0,
    }
}

/// Every tag and function id an instruction references — the identifiers
/// a splice must re-resolve by name in the destination module. Provisional
/// spill ids (only ever named directly, by `sload`/`sstore`) are skipped:
/// the per-compile spill commit rewrites them.
fn collect_refs(instr: &Instr, tags: &mut DenseTagSet, funcs: &mut Vec<u32>) {
    let mut tag = |t: TagId| {
        if t.0 < PROVISIONAL_SPILL_BASE {
            tags.insert(t);
        }
    };
    match instr {
        Instr::CLoad { tag: t, .. }
        | Instr::SLoad { tag: t, .. }
        | Instr::SStore { tag: t, .. }
        | Instr::Lea { tag: t, .. }
        | Instr::Alloc { site: t, .. } => tag(*t),
        Instr::Load { tags: s, .. } | Instr::Store { tags: s, .. } => {
            if let TagSet::Set(d) = s {
                tags.union_with(d);
            }
        }
        Instr::FuncAddr { func, .. } => funcs.push(func.0),
        Instr::Call {
            callee, mods, refs, ..
        } => {
            if let ir::Callee::Direct(f) = callee {
                funcs.push(f.0);
            }
            for s in [mods, refs] {
                if let TagSet::Set(d) = s {
                    tags.union_with(d);
                }
            }
        }
        _ => {}
    }
}

/// Name → id lookups into one compile's module, for the splices whose
/// cached ids no longer line up (an edit added or removed a definition
/// ahead of them). Built on the first such splice and shared by the rest
/// of the compile.
pub(crate) struct SpliceIndex<'m> {
    module: &'m Module,
    names: Option<NameIndex<'m>>,
}

struct NameIndex<'m> {
    tags: HashMap<&'m str, TagId>,
    funcs: HashMap<&'m str, FuncId>,
}

impl<'m> SpliceIndex<'m> {
    /// An index over `module`; the name maps are built on first use.
    pub(crate) fn new(module: &'m Module) -> SpliceIndex<'m> {
        SpliceIndex {
            module,
            names: None,
        }
    }

    fn names(&mut self) -> &NameIndex<'m> {
        let module = self.module;
        self.names.get_or_insert_with(|| {
            let tags = module.tags.iter().map(|(id, t)| (t.name.as_str(), id));
            // First definition wins, as in `Module::lookup_func`.
            let mut funcs = HashMap::with_capacity(module.funcs.len());
            for (i, f) in module.funcs.iter().enumerate() {
                funcs.entry(f.name.as_str()).or_insert(FuncId(i as u32));
            }
            NameIndex {
                tags: tags.collect(),
                funcs,
            }
        })
    }
}

/// Clones the cached body into the index's module. When every cached id
/// still names the same tag or function there (the common case: the edit
/// shifted nothing ahead of this function), the body is cloned untouched.
/// Otherwise ids are re-resolved by name through dense old-id → new-id
/// tables. Provisional spill ids (>= [`PROVISIONAL_SPILL_BASE`]) pass
/// through untouched — the per-compile spill commit rewrites them.
/// `None` if any name fails to resolve.
fn remap_body(entry: &CacheEntry, index: &mut SpliceIndex<'_>) -> Option<Function> {
    let module = index.module;
    let tags_moved = !entry.tag_names.iter().all(|(id, name)| {
        (*id as usize) < module.tags.len() && module.tags.info(TagId(*id)).name == *name
    });
    let funcs_moved = !entry.func_names.iter().all(|(id, name)| {
        module
            .funcs
            .get(*id as usize)
            .is_some_and(|f| f.name == *name)
    });
    if !tags_moved && !funcs_moved {
        return Some(entry.body.clone());
    }
    let names = index.names();
    let tag_map = if tags_moved {
        Some(dense_map(&entry.tag_names, |n| {
            names.tags.get(n).map(|t| t.0)
        })?)
    } else {
        None
    };
    let func_map = if funcs_moved {
        Some(dense_map(&entry.func_names, |n| {
            names.funcs.get(n).map(|f| f.0)
        })?)
    } else {
        None
    };
    let mut body = entry.body.clone();
    for b in &mut body.blocks {
        for instr in &mut b.instrs {
            remap_instr(instr, tag_map.as_deref(), func_map.as_deref())?;
        }
    }
    Some(body)
}

/// Marks an old id the entry does not reference.
const UNMAPPED: u32 = u32::MAX;

/// A dense old-id → new-id table over an entry's `(id, name)` list;
/// `None` if some name does not resolve.
fn dense_map(names: &[(u32, String)], resolve: impl Fn(&str) -> Option<u32>) -> Option<Vec<u32>> {
    let len = names
        .iter()
        .map(|(id, _)| *id as usize + 1)
        .max()
        .unwrap_or(0);
    let mut map = vec![UNMAPPED; len];
    for (old, name) in names {
        map[*old as usize] = resolve(name)?;
    }
    Some(map)
}

/// Looks `old` up in a dense table (`None` map: ids are unchanged).
fn mapped(map: Option<&[u32]>, old: u32) -> Option<u32> {
    match map {
        None => Some(old),
        Some(m) => m.get(old as usize).copied().filter(|&id| id != UNMAPPED),
    }
}

fn remap_tag(tag: &mut TagId, map: Option<&[u32]>) -> Option<()> {
    if tag.0 < PROVISIONAL_SPILL_BASE {
        tag.0 = mapped(map, tag.0)?;
    }
    Some(())
}

fn remap_set(set: &mut TagSet, map: Option<&[u32]>) -> Option<()> {
    if let (TagSet::Set(d), Some(_)) = (&mut *set, map) {
        let mut out = DenseTagSet::new();
        for t in d.iter() {
            // Tag sets never hold provisional spill ids: the allocator
            // names spill slots only in `sload`/`sstore`.
            out.insert(TagId(mapped(map, t.0)?));
        }
        *d = out;
    }
    Some(())
}

fn remap_instr(instr: &mut Instr, tag_map: Option<&[u32]>, func_map: Option<&[u32]>) -> Option<()> {
    match instr {
        Instr::CLoad { tag, .. }
        | Instr::SLoad { tag, .. }
        | Instr::SStore { tag, .. }
        | Instr::Lea { tag, .. }
        | Instr::Alloc { site: tag, .. } => remap_tag(tag, tag_map),
        Instr::Load { tags, .. } | Instr::Store { tags, .. } => remap_set(tags, tag_map),
        Instr::FuncAddr { func, .. } => {
            func.0 = mapped(func_map, func.0)?;
            Some(())
        }
        Instr::Call {
            callee, mods, refs, ..
        } => {
            if let ir::Callee::Direct(f) = callee {
                f.0 = mapped(func_map, f.0)?;
            }
            remap_set(mods, tag_map)?;
            remap_set(refs, tag_map)
        }
        _ => Some(()),
    }
}

/// Digest of the [`PipelineConfig`] fields that can change compiled
/// output or the replayed report/trace. Scheduling and instrumentation
/// knobs that are documented output-identical (`threads`,
/// `validate_each_pass`, `reuse_scratch`) are deliberately excluded so
/// flipping them keeps the cache warm.
pub(crate) fn config_hash(config: &PipelineConfig) -> u64 {
    let mut h = FxHasher::new();
    h.write_u8(match config.analysis {
        AnalysisLevel::AddressTaken => 0,
        AnalysisLevel::ModRef => 1,
        AnalysisLevel::Steensgaard => 2,
        AnalysisLevel::PointsTo => 3,
        AnalysisLevel::PointsToSsa => 4,
    });
    h.write_u8(config.promote as u8);
    h.write_u8(config.pointer_promote as u8);
    match config.promotion_cap {
        Some(cap) => {
            h.write_u8(1);
            h.write_usize(cap);
        }
        None => h.write_u8(0),
    }
    h.write_u8(config.optimize as u8);
    match &config.regalloc {
        Some(opts) => {
            h.write_u8(1);
            h.write_usize(opts.num_regs);
            h.write_usize(opts.max_rounds);
        }
        None => h.write_u8(0),
    }
    // Entries store the trace-event suffix of the compile that created
    // them; a trace-off entry replayed into a trace-on compile would
    // silently drop remarks.
    h.write_u8(config.trace as u8);
    h.finish()
}

/// The full per-function fingerprint. `summary` is the function's own
/// transitive MOD/REF digest, which folds in every callee's memory
/// behaviour — the dependency-aware half of invalidation.
pub(crate) fn fingerprint(
    h_body: u64,
    h_facts: u64,
    summary: u64,
    h_config: u64,
    recursive: bool,
) -> u64 {
    fx_mix(
        fx_mix(h_body, h_facts),
        fx_mix(summary, fx_mix(h_config, 1 + recursive as u64)),
    )
}

/// Computes every function's `(fp, h_body)` fingerprint pair, in module
/// index order. Runs at the analysis barrier: facts and summaries are
/// only meaningful after it.
pub(crate) fn compute_fingerprints(
    module: &Module,
    summaries: &[u64],
    recursive: &[bool],
    h_config: u64,
) -> Vec<(u64, u64)> {
    let digests = TagDigests::new(module);
    module
        .funcs
        .iter()
        .enumerate()
        .map(|(i, func)| {
            let h_body = body_hash(module, func);
            let h_facts = facts_hash(&digests, func);
            let fp = fingerprint(h_body, h_facts, summaries[i], h_config, recursive[i]);
            (fp, h_body)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn config_hash_sees_output_knobs_only() {
        let base = PipelineConfig::default();
        let h = config_hash(&base);
        // Scheduling/instrumentation knobs keep the cache warm.
        let mut c = base.clone();
        c.threads = Some(7);
        c.validate_each_pass = !c.validate_each_pass;
        c.reuse_scratch = !c.reuse_scratch;
        assert_eq!(config_hash(&c), h);
        // Output-affecting knobs miss.
        let mut c = base.clone();
        c.pointer_promote = true;
        assert_ne!(config_hash(&c), h);
        let mut c = base.clone();
        c.regalloc = Some(regalloc::AllocOptions {
            num_regs: 8,
            ..Default::default()
        });
        assert_ne!(config_hash(&c), h);
    }

    #[test]
    fn entry_bytes_charge_spilled_sets_and_argument_vectors() {
        let bytes = |f: &Function| approx_entry_bytes(f, &[], &[], &[]);
        let with = |instr: Instr| {
            let mut f = Function::new("f", 0);
            f.blocks[0].instrs.push(instr);
            f
        };
        let load = |members: u32| Instr::Load {
            dst: Reg(0),
            addr: Reg(0),
            tags: TagSet::Set((0..members).map(TagId).collect()),
        };
        let spilled: DenseTagSet = (0..200).map(TagId).collect();
        assert!(spilled.is_spilled() && spilled.heap_bytes() >= 4 * 8);
        let inline = bytes(&with(load(ir::INLINE_CAP as u32)));
        assert_eq!(bytes(&with(load(200))), inline + spilled.heap_bytes());
        let call = |args: Vec<Reg>| Instr::Call {
            dst: None,
            callee: ir::Callee::Direct(FuncId(0)),
            args,
            mods: TagSet::Set(spilled.clone()),
            refs: TagSet::empty(),
        };
        let no_args = bytes(&with(call(Vec::new())));
        assert_eq!(no_args, inline + spilled.heap_bytes());
        let args = vec![Reg(1), Reg(2), Reg(3)];
        let charged = args.capacity() * std::mem::size_of::<Reg>();
        assert_eq!(bytes(&with(call(args))), no_args + charged);
    }

    #[test]
    fn eviction_is_lru_under_budget() {
        let mut cache = FuncCache::new(1);
        let module = {
            let mut m = Module::new();
            m.add_func(Function::new("a", 0));
            m.add_func(Function::new("b", 0));
            m
        };
        cache.begin_compile();
        let o = FuncOutcome::default();
        cache.store(&module, 0, 1, 1, &o, Vec::new());
        cache.begin_compile();
        cache.store(&module, 1, 2, 2, &o, Vec::new());
        assert_eq!(cache.len(), 2);
        let evicted = cache.evict_to_budget();
        // Budget of one byte cannot hold either entry.
        assert_eq!(evicted, 2);
        assert!(cache.is_empty());
        assert_eq!(cache.bytes(), 0);
    }
}
