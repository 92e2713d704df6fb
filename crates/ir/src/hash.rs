//! Canonical, arena-address-independent hashing of IL.
//!
//! The incremental-recompilation layer keys its per-function cache on
//! *content*, so two structurally identical functions must hash equal no
//! matter which module they live in, which index the module assigned
//! them, or what order the front end's interner saw their names in. The
//! two hashes here achieve that by resolving every cross-function
//! reference to its *name* during the walk:
//!
//! * [`body_hash`] covers the structural body — opcodes, registers,
//!   block edges, constants, and the tags named *directly* by scalar
//!   operations (`cload`/`sload`/`sstore`/`lea`/`alloc`) — but skips the
//!   analysis-written fields (`load`/`store` tag sets, call MOD/REF
//!   sets). It answers "did the function itself change?".
//! * [`facts_hash`] covers exactly those skipped fields plus the
//!   [`crate::TagInfo`] of every tag the function references (name, kind,
//!   owner, size, address-taken flag). It answers "did the
//!   interprocedural facts feeding this function change?".
//!
//! A function's cache fingerprint mixes both (plus the configuration and
//! callee-summary hashes); keeping them separate lets the driver report
//! *why* a cache miss happened — edited body versus invalidated summary.
//!
//! After MOD/REF analysis every ambiguous load, store and call carries
//! the module's whole address-taken universe, so tag-set members
//! outnumber instructions ten to one (~206,000 members over 400–450 tags
//! on a 156–169-function module). The facts walk therefore never
//! touches a name: [`TagDigests`] hashes each tag's attributes once per
//! compile, and [`facts_hash`] folds one precomputed word per set member
//! or direct tag reference.
//!
//! Tag and function ids are resolved through the owning [`Module`], and
//! ids outside the module's tables (the allocator's provisional spill
//! ids never appear in pre-allocation bodies, but defensiveness is
//! cheap) hash as their raw value.

use crate::function::{Function, Module};
use crate::instr::{Callee, FuncId, Instr};
use crate::tag::{TagId, TagKind, TagSet};
use std::hash::Hasher;

/// The multiplier from the Fx (Firefox) hash: a cheap, deterministic,
/// non-cryptographic mix that the rustc ecosystem uses for exactly this
/// kind of content addressing.
const FX_SEED: u64 = 0x51_7c_c1_b7_27_22_0a_95;

/// A `std`-only implementation of the FxHash word mixer. Deterministic
/// across processes and platforms (unlike [`std::hash::RandomState`]),
/// which is what lets fingerprints persist across compiles in one
/// session and stay comparable between sessions.
#[derive(Debug, Clone, Default)]
pub struct FxHasher {
    hash: u64,
}

impl FxHasher {
    /// A fresh hasher with the zero state.
    pub fn new() -> FxHasher {
        FxHasher { hash: 0 }
    }

    #[inline]
    fn add(&mut self, word: u64) {
        self.hash = (self.hash.rotate_left(5) ^ word).wrapping_mul(FX_SEED);
    }
}

impl Hasher for FxHasher {
    #[inline]
    fn finish(&self) -> u64 {
        self.hash
    }

    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        let mut chunks = bytes.chunks_exact(8);
        for c in chunks.by_ref() {
            self.add(u64::from_le_bytes(c.try_into().unwrap()));
        }
        let rest = chunks.remainder();
        if !rest.is_empty() {
            let mut tail = [0u8; 8];
            tail[..rest.len()].copy_from_slice(rest);
            // Length in the top byte so "ab" and "ab\0" differ.
            tail[7] = rest.len() as u8;
            self.add(u64::from_le_bytes(tail));
        }
    }

    #[inline]
    fn write_u8(&mut self, v: u8) {
        self.add(v as u64);
    }

    #[inline]
    fn write_u32(&mut self, v: u32) {
        self.add(v as u64);
    }

    #[inline]
    fn write_u64(&mut self, v: u64) {
        self.add(v);
    }

    #[inline]
    fn write_usize(&mut self, v: usize) {
        self.add(v as u64);
    }
}

/// Hashes a byte string with the deterministic Fx mixer.
pub fn fx_hash_bytes(bytes: &[u8]) -> u64 {
    let mut h = FxHasher::new();
    h.write(bytes);
    h.finish()
}

/// Combines two hashes order-dependently.
pub fn fx_mix(a: u64, b: u64) -> u64 {
    let mut h = FxHasher::new();
    h.write_u64(a);
    h.write_u64(b);
    h.finish()
}

/// Hashes a tag by name (canonical) or by raw id if it is not in the
/// module's table (provisional spill ids).
fn hash_tag(h: &mut FxHasher, module: &Module, tag: TagId) {
    if (tag.index()) < module.tags.len() {
        h.write(module.tags.info(tag).name.as_bytes());
    } else {
        h.write_u8(0xFF);
        h.write_u32(tag.0);
    }
}

/// Hashes a function reference by name (canonical) or raw id when out of
/// range.
fn hash_func_ref(h: &mut FxHasher, module: &Module, fid: FuncId) {
    match module.funcs.get(fid.index()) {
        Some(f) => h.write(f.name.as_bytes()),
        None => {
            h.write_u8(0xFE);
            h.write_u32(fid.0);
        }
    }
}

/// Opcode discriminants for the canonical walk. Kept explicit (rather
/// than `mem::discriminant`) so the digest is stable across compiler
/// versions and enum reorderings.
fn opcode(instr: &Instr) -> u8 {
    match instr {
        Instr::IConst { .. } => 1,
        Instr::FConst { .. } => 2,
        Instr::FuncAddr { .. } => 3,
        Instr::Copy { .. } => 4,
        Instr::Unary { .. } => 5,
        Instr::Binary { .. } => 6,
        Instr::Cmp { .. } => 7,
        Instr::CLoad { .. } => 8,
        Instr::SLoad { .. } => 9,
        Instr::SStore { .. } => 10,
        Instr::Load { .. } => 11,
        Instr::Store { .. } => 12,
        Instr::Lea { .. } => 13,
        Instr::PtrAdd { .. } => 14,
        Instr::Alloc { .. } => 15,
        Instr::Call { .. } => 16,
        Instr::Phi { .. } => 17,
        Instr::Jump { .. } => 18,
        Instr::Branch { .. } => 19,
        Instr::Ret { .. } => 20,
        Instr::Nop => 21,
    }
}

/// Hashes one instruction's structural content — everything except the
/// analysis-written tag sets (`Load`/`Store` `tags`, `Call` `mods` and
/// `refs`), which [`facts_hash`] covers.
fn hash_instr(h: &mut FxHasher, module: &Module, instr: &Instr) {
    h.write_u8(opcode(instr));
    match instr {
        Instr::IConst { dst, value } => {
            h.write_u32(dst.0);
            h.write_u64(*value as u64);
        }
        Instr::FConst { dst, value } => {
            h.write_u32(dst.0);
            h.write_u64(value.to_bits());
        }
        Instr::FuncAddr { dst, func } => {
            h.write_u32(dst.0);
            hash_func_ref(h, module, *func);
        }
        Instr::Copy { dst, src } => {
            h.write_u32(dst.0);
            h.write_u32(src.0);
        }
        Instr::Unary { op, dst, src } => {
            h.write_u8(*op as u8);
            h.write_u32(dst.0);
            h.write_u32(src.0);
        }
        Instr::Binary { op, dst, lhs, rhs } => {
            h.write_u8(*op as u8);
            h.write_u32(dst.0);
            h.write_u32(lhs.0);
            h.write_u32(rhs.0);
        }
        Instr::Cmp { op, dst, lhs, rhs } => {
            h.write_u8(*op as u8);
            h.write_u32(dst.0);
            h.write_u32(lhs.0);
            h.write_u32(rhs.0);
        }
        Instr::CLoad { dst, tag } | Instr::SLoad { dst, tag } | Instr::Lea { dst, tag } => {
            h.write_u32(dst.0);
            hash_tag(h, module, *tag);
        }
        Instr::SStore { src, tag } => {
            h.write_u32(src.0);
            hash_tag(h, module, *tag);
        }
        Instr::Load { dst, addr, .. } => {
            h.write_u32(dst.0);
            h.write_u32(addr.0);
        }
        Instr::Store { src, addr, .. } => {
            h.write_u32(src.0);
            h.write_u32(addr.0);
        }
        Instr::PtrAdd { dst, base, offset } => {
            h.write_u32(dst.0);
            h.write_u32(base.0);
            h.write_u32(offset.0);
        }
        Instr::Alloc { dst, size, site } => {
            h.write_u32(dst.0);
            h.write_u32(size.0);
            hash_tag(h, module, *site);
        }
        Instr::Call {
            dst, callee, args, ..
        } => {
            match dst {
                Some(d) => {
                    h.write_u8(1);
                    h.write_u32(d.0);
                }
                None => h.write_u8(0),
            }
            match callee {
                Callee::Direct(f) => {
                    h.write_u8(1);
                    hash_func_ref(h, module, *f);
                }
                Callee::Indirect(r) => {
                    h.write_u8(2);
                    h.write_u32(r.0);
                }
                Callee::Intrinsic(i) => {
                    h.write_u8(3);
                    h.write(i.name().as_bytes());
                }
            }
            h.write_usize(args.len());
            for a in args {
                h.write_u32(a.0);
            }
        }
        Instr::Phi { dst, args } => {
            h.write_u32(dst.0);
            h.write_usize(args.len());
            for (b, r) in args {
                h.write_u32(b.0);
                h.write_u32(r.0);
            }
        }
        Instr::Jump { target } => h.write_u32(target.0),
        Instr::Branch {
            cond,
            then_bb,
            else_bb,
        } => {
            h.write_u32(cond.0);
            h.write_u32(then_bb.0);
            h.write_u32(else_bb.0);
        }
        Instr::Ret { value } => match value {
            Some(v) => {
                h.write_u8(1);
                h.write_u32(v.0);
            }
            None => h.write_u8(0),
        },
        Instr::Nop => {}
    }
}

/// Canonical hash of a function's structural body: signature, block
/// structure, and every instruction *except* the analysis-written tag
/// sets, with tag and function references resolved to names. Equal for
/// structurally identical functions regardless of module, function
/// index, tag-id assignment, or interner state.
pub fn body_hash(module: &Module, func: &Function) -> u64 {
    let mut h = FxHasher::new();
    h.write(func.name.as_bytes());
    h.write_usize(func.arity);
    h.write_u8(func.has_result as u8);
    h.write_u32(func.entry.0);
    h.write_u32(func.next_reg);
    h.write_usize(func.blocks.len());
    for block in &func.blocks {
        h.write_usize(block.instrs.len());
        for instr in &block.instrs {
            hash_instr(&mut h, module, instr);
        }
    }
    h.finish()
}

/// One digest per tag of a module: its name, kind (owner function by
/// *name*), size and address-taken flag. Built once per compile, so the
/// facts walk folds one word per tag reference instead of re-hashing
/// names and attributes for every member of every tag set.
#[derive(Debug)]
pub struct TagDigests {
    digests: Vec<u64>,
}

impl TagDigests {
    /// Digests every tag in `module`'s table.
    pub fn new(module: &Module) -> TagDigests {
        let digests = module
            .tags
            .iter()
            .map(|(_, info)| {
                let mut h = FxHasher::new();
                h.write(info.name.as_bytes());
                match info.kind {
                    TagKind::Global => h.write_u8(1),
                    TagKind::Local { owner } => {
                        h.write_u8(2);
                        hash_func_ref(&mut h, module, FuncId(owner));
                    }
                    TagKind::Param { owner } => {
                        h.write_u8(3);
                        hash_func_ref(&mut h, module, FuncId(owner));
                    }
                    TagKind::Heap { site } => {
                        h.write_u8(4);
                        h.write_u32(site);
                    }
                    TagKind::Spill { owner } => {
                        h.write_u8(5);
                        hash_func_ref(&mut h, module, FuncId(owner));
                    }
                }
                h.write_usize(info.size);
                h.write_u8(info.address_taken as u8);
                h.finish()
            })
            .collect();
        TagDigests { digests }
    }

    /// Folds `tag`'s digest into `h`, or its raw id if it is not in the
    /// table (provisional spill ids).
    #[inline]
    fn write(&self, h: &mut FxHasher, tag: TagId) {
        match self.digests.get(tag.index()) {
            Some(&d) => h.write_u64(d),
            None => {
                h.write_u8(0xFF);
                h.write_u32(tag.0);
            }
        }
    }

    /// Folds a [`TagSet`]: the `All` marker, or the member digests in
    /// ascending-id order.
    fn write_set(&self, h: &mut FxHasher, set: &TagSet) {
        match set {
            TagSet::All => h.write_u8(1),
            TagSet::Set(s) => {
                h.write_u8(2);
                h.write_usize(s.len());
                for t in s.iter() {
                    self.write(h, t);
                }
            }
        }
    }
}

/// Canonical hash of the analysis-written facts a function's fused-chain
/// trip consumes: the `load`/`store` tag sets and call MOD/REF sets, plus
/// the attributes of every tag the function names directly, in body
/// order. Each tag contributes its [`TagDigests`] word (name, kind, owner
/// function by *name*, size, address-taken flag), so the cost is one
/// word mix per set member or direct tag reference. A change here with
/// an unchanged [`body_hash`] is exactly a "summary invalidation".
pub fn facts_hash(digests: &TagDigests, func: &Function) -> u64 {
    let mut h = FxHasher::new();
    for block in &func.blocks {
        for instr in &block.instrs {
            match instr {
                Instr::CLoad { tag, .. }
                | Instr::SLoad { tag, .. }
                | Instr::SStore { tag, .. }
                | Instr::Lea { tag, .. }
                | Instr::Alloc { site: tag, .. } => digests.write(&mut h, *tag),
                Instr::Load { tags, .. } | Instr::Store { tags, .. } => {
                    h.write_u8(opcode(instr));
                    digests.write_set(&mut h, tags);
                }
                Instr::Call { mods, refs, .. } => {
                    h.write_u8(opcode(instr));
                    digests.write_set(&mut h, mods);
                    digests.write_set(&mut h, refs);
                }
                _ => {}
            }
        }
    }
    h.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parse::parse_module;

    const A: &str = "\
tag \"g\" global size=1
tag \"h\" global size=2 addressed
global \"g\" zero
global \"h\" zero
func @main(0) {
B0:
  r0 = cload \"g\"
  r1 = iconst 1
  r2 = add r0, r1
  r3 = lea \"h\"
  r4 = load [r3] {\"g\", \"h\"}
  ret
}
";

    // Same function, but the module carries an extra tag and an extra
    // function *before* it, shifting its index, the ids of the tags it
    // names directly, and the ids of its load's tag-set members.
    const B: &str = "\
tag \"pad.x\" local owner=0 size=1
tag \"g\" global size=1
tag \"h\" global size=2 addressed
global \"g\" zero
global \"h\" zero
func @pad(0) {
B0:
  r0 = iconst 0
  sstore r0, \"pad.x\"
  ret
}
func @main(0) {
B0:
  r0 = cload \"g\"
  r1 = iconst 1
  r2 = add r0, r1
  r3 = lea \"h\"
  r4 = load [r3] {\"g\", \"h\"}
  ret
}
";

    // Each of `l`, `s` and `m` appears only inside one analysis-written
    // set: a load's tags, a store's tags, a call's MOD set.
    const SETS_ONLY: &str = "\
tag \"g\" global size=1
tag \"l\" global size=1
tag \"s\" global size=1
tag \"m\" global size=1
func @main(0) {
B0:
  r0 = lea \"g\"
  r1 = load [r0] {\"g\", \"l\"}
  store r1, [r0] {\"g\", \"s\"}
  call @main() mods{\"m\"} refs{}
  ret
}
";

    fn find<'m>(m: &'m Module, name: &str) -> &'m Function {
        m.funcs.iter().find(|f| f.name == name).unwrap()
    }

    fn facts(m: &Module, name: &str) -> u64 {
        facts_hash(&TagDigests::new(m), find(m, name))
    }

    #[test]
    fn body_hash_independent_of_function_index_and_tag_ids() {
        let a = parse_module(A).unwrap();
        let b = parse_module(B).unwrap();
        // The load's members really do sit at different ids in `b`.
        assert_ne!(a.tags.lookup("h"), b.tags.lookup("h"));
        assert_eq!(
            body_hash(&a, find(&a, "main")),
            body_hash(&b, find(&b, "main"))
        );
        assert_eq!(facts(&a, "main"), facts(&b, "main"));
        assert_ne!(
            body_hash(&b, find(&b, "pad")),
            body_hash(&b, find(&b, "main"))
        );
    }

    #[test]
    fn body_hash_sees_structural_edits() {
        let a = parse_module(A).unwrap();
        let edited = parse_module(&A.replace("iconst 1", "iconst 2")).unwrap();
        assert_ne!(
            body_hash(&a, find(&a, "main")),
            body_hash(&edited, find(&edited, "main"))
        );
    }

    #[test]
    fn facts_hash_sees_address_taken_flips_body_hash_does_not() {
        let a = parse_module(A).unwrap();
        let mut b = parse_module(A).unwrap();
        let g = b.tags.lookup("g").unwrap();
        b.tags.mark_address_taken(g);
        assert_eq!(
            body_hash(&a, find(&a, "main")),
            body_hash(&b, find(&b, "main"))
        );
        assert_ne!(facts(&a, "main"), facts(&b, "main"));
    }

    #[test]
    fn facts_hash_sees_attributes_of_tags_named_only_in_sets() {
        let base = parse_module(SETS_ONLY).unwrap();
        let (h_body, h_facts) = (body_hash(&base, find(&base, "main")), facts(&base, "main"));
        for tag in ["l", "s", "m"] {
            let decl = format!("tag \"{tag}\" global size=1");
            let flipped = SETS_ONLY.replace(&decl, &format!("{decl} addressed"));
            let resized = SETS_ONLY.replace(&decl, &format!("tag \"{tag}\" global size=3"));
            for variant in [flipped, resized] {
                assert_ne!(variant, SETS_ONLY);
                let m = parse_module(&variant).unwrap();
                assert_eq!(body_hash(&m, find(&m, "main")), h_body, "{tag}");
                assert_ne!(facts(&m, "main"), h_facts, "{tag}: {variant}");
            }
        }
    }

    #[test]
    fn fx_hash_is_deterministic_and_length_aware() {
        assert_eq!(fx_hash_bytes(b"main"), fx_hash_bytes(b"main"));
        assert_ne!(fx_hash_bytes(b"ab"), fx_hash_bytes(b"ab\0"));
        assert_ne!(fx_mix(1, 2), fx_mix(2, 1));
    }
}
