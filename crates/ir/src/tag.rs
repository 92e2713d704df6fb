//! Memory tags and tag sets.
//!
//! A *tag* is a textual name for a memory location, exactly as in the paper:
//! every memory operation in the IL carries a list of tags naming the
//! locations it may use, and procedure calls carry MOD/REF tag lists
//! summarizing their side effects. Tags are interned into a per-module
//! [`TagTable`] and referenced by the lightweight [`TagId`] handle.
//!
//! Tag sets are the hottest data structure in the reproduction: every
//! MOD/REF fixpoint, points-to round, and §3.1 promotion equation is a loop
//! of unions, intersections and differences over them. [`DenseTagSet`]
//! therefore uses a hybrid representation — a sorted inline array for small
//! sets (the common case: most memory operations touch a handful of tags)
//! that spills to a dense `Vec<u64>` word bitset once a set grows past
//! [`INLINE_CAP`] tags, where union/intersect/difference/subset become
//! word-wise kernels.

use std::fmt;
use std::hash::{Hash, Hasher};

/// A handle to an interned memory tag.
///
/// `TagId`s are only meaningful relative to the [`TagTable`] of the module
/// that created them.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct TagId(pub u32);

impl TagId {
    /// Returns the raw index of this tag.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for TagId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "t{}", self.0)
    }
}

/// What kind of storage a tag names.
///
/// The distinction matters to the analyses: only [`TagKind::Global`] tags are
/// visible everywhere, a local is visible only in its owning function and the
/// call-graph descendants of that function, and heap tags name all objects
/// created at one allocation site (the paper models "heap memory ... with a
/// single name for each call-site that can generate a new heap address").
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[allow(missing_docs)] // variant payload fields are self-describing
pub enum TagKind {
    /// A global variable (or global array).
    Global,
    /// A local variable owned by the function with the given index.
    ///
    /// Only locals whose address is taken (or arrays) receive tags; other
    /// locals live purely in virtual registers.
    Local { owner: u32 },
    /// A formal parameter whose address is taken, owned by a function.
    Param { owner: u32 },
    /// All heap objects allocated at one static allocation site.
    Heap { site: u32 },
    /// A compiler-introduced spill slot (from the register allocator).
    Spill { owner: u32 },
}

impl TagKind {
    /// True if this tag names storage local to a single activation.
    pub fn is_local(&self) -> bool {
        matches!(
            self,
            TagKind::Local { .. } | TagKind::Param { .. } | TagKind::Spill { .. }
        )
    }

    /// The owning function index for local-ish tags.
    pub fn owner(&self) -> Option<u32> {
        match *self {
            TagKind::Local { owner } | TagKind::Param { owner } | TagKind::Spill { owner } => {
                Some(owner)
            }
            _ => None,
        }
    }
}

/// Interned information about a single tag.
#[derive(Debug, Clone, PartialEq)]
pub struct TagInfo {
    /// Human-readable name, unique within the table (e.g. `"g:count"`,
    /// `"main.buf"`, `"heap@3"`).
    pub name: String,
    /// The kind of storage named by the tag.
    pub kind: TagKind,
    /// Number of value cells in the object (1 for scalars).
    pub size: usize,
    /// Whether the program ever takes this location's address.
    ///
    /// Address-taken tags may be reached through pointers; tags that are not
    /// address-taken can only be referenced explicitly by name, which is what
    /// makes them trivially promotable.
    pub address_taken: bool,
}

/// The per-module tag interner.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct TagTable {
    tags: Vec<TagInfo>,
}

impl TagTable {
    /// Creates an empty table.
    pub fn new() -> Self {
        Self::default()
    }

    /// Interns a new tag and returns its id.
    ///
    /// # Panics
    ///
    /// Panics if a tag with the same name already exists; tag names are
    /// required to be unique so the textual IL round-trips.
    pub fn intern(&mut self, name: impl Into<String>, kind: TagKind, size: usize) -> TagId {
        let name = name.into();
        assert!(self.lookup(&name).is_none(), "duplicate tag name: {name}");
        let id = TagId(self.tags.len() as u32);
        self.tags.push(TagInfo {
            name,
            kind,
            size,
            address_taken: false,
        });
        id
    }

    /// Looks a tag up by name.
    pub fn lookup(&self, name: &str) -> Option<TagId> {
        self.tags
            .iter()
            .position(|t| t.name == name)
            .map(|i| TagId(i as u32))
    }

    /// Returns the info for `id`.
    ///
    /// # Panics
    ///
    /// Panics if `id` did not come from this table.
    pub fn info(&self, id: TagId) -> &TagInfo {
        &self.tags[id.index()]
    }

    /// Marks `id` as address-taken.
    pub fn mark_address_taken(&mut self, id: TagId) {
        self.tags[id.index()].address_taken = true;
    }

    /// Number of interned tags.
    pub fn len(&self) -> usize {
        self.tags.len()
    }

    /// True if no tags have been interned.
    pub fn is_empty(&self) -> bool {
        self.tags.is_empty()
    }

    /// Iterates over `(TagId, &TagInfo)` pairs in id order.
    pub fn iter(&self) -> impl Iterator<Item = (TagId, &TagInfo)> {
        self.tags
            .iter()
            .enumerate()
            .map(|(i, t)| (TagId(i as u32), t))
    }

    /// All tags whose address is taken — the universe that a wild pointer may
    /// reference. Heap tags are included unconditionally.
    pub fn address_taken_set(&self) -> DenseTagSet {
        self.iter()
            .filter_map(|(id, t)| {
                if t.address_taken || matches!(t.kind, TagKind::Heap { .. }) {
                    Some(id)
                } else {
                    None
                }
            })
            .collect()
    }

    /// All global tags.
    pub fn globals(&self) -> DenseTagSet {
        self.iter()
            .filter(|(_, t)| matches!(t.kind, TagKind::Global))
            .map(|(id, _)| id)
            .collect()
    }
}

/// Small sets stay inline up to this many members; larger sets spill to the
/// word bitset representation.
pub const INLINE_CAP: usize = 8;

const WORD_BITS: usize = 64;

/// A finite set of [`TagId`]s with a hybrid small/dense representation.
///
/// * **Inline:** at most [`INLINE_CAP`] members kept as a sorted array — no
///   heap allocation, membership by short binary search.
/// * **Bits:** more than [`INLINE_CAP`] members kept as a dense `Vec<u64>`
///   bitset indexed by raw tag id, so union / intersection / difference /
///   subset run word-wise.
///
/// The representation is *canonical*: a set holds `Inline` iff it has at
/// most [`INLINE_CAP`] members, and a `Bits` set never has trailing zero
/// words. Shrinking operations (intersection, difference) re-pack into the
/// inline form when the result is small again, so equality and hashing can
/// compare representations directly and two equal sets are always
/// structurally identical.
#[derive(Debug, Clone)]
pub struct DenseTagSet {
    repr: Repr,
}

#[derive(Debug, Clone)]
enum Repr {
    /// `ids[..len]` is sorted and duplicate-free; `len <= INLINE_CAP`.
    Inline { len: u8, ids: [u32; INLINE_CAP] },
    /// Dense bitset over raw tag ids; `len > INLINE_CAP`, `len` is the
    /// population count, and the last word is non-zero.
    Bits { words: Vec<u64>, len: u32 },
}

impl Default for DenseTagSet {
    fn default() -> Self {
        DenseTagSet::new()
    }
}

impl DenseTagSet {
    /// The empty set.
    pub fn new() -> Self {
        DenseTagSet {
            repr: Repr::Inline {
                len: 0,
                ids: [0; INLINE_CAP],
            },
        }
    }

    /// A one-element set.
    pub fn singleton(tag: TagId) -> Self {
        let mut s = DenseTagSet::new();
        s.insert(tag);
        s
    }

    /// Number of members.
    pub fn len(&self) -> usize {
        match &self.repr {
            Repr::Inline { len, .. } => *len as usize,
            Repr::Bits { len, .. } => *len as usize,
        }
    }

    /// True if the set has no members.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// True if the set currently uses the spilled bitset representation.
    /// Exposed for tests asserting the canonical-form invariant.
    pub fn is_spilled(&self) -> bool {
        matches!(self.repr, Repr::Bits { .. })
    }

    /// Heap bytes owned by the set: the word vector of a spilled set, zero
    /// for an inline one.
    pub fn heap_bytes(&self) -> usize {
        match &self.repr {
            Repr::Inline { .. } => 0,
            Repr::Bits { words, .. } => words.capacity() * std::mem::size_of::<u64>(),
        }
    }

    /// Membership test.
    pub fn contains(&self, tag: TagId) -> bool {
        match &self.repr {
            Repr::Inline { len, ids } => ids[..*len as usize].binary_search(&tag.0).is_ok(),
            Repr::Bits { words, .. } => {
                let (w, b) = (tag.0 as usize / WORD_BITS, tag.0 as usize % WORD_BITS);
                w < words.len() && words[w] & (1u64 << b) != 0
            }
        }
    }

    /// If the set has exactly one member, returns it.
    pub fn as_singleton(&self) -> Option<TagId> {
        match &self.repr {
            Repr::Inline { len: 1, ids } => Some(TagId(ids[0])),
            _ => None,
        }
    }

    /// Inserts `tag`; returns true if it was not already present.
    pub fn insert(&mut self, tag: TagId) -> bool {
        match &mut self.repr {
            Repr::Inline { len, ids } => {
                let n = *len as usize;
                match ids[..n].binary_search(&tag.0) {
                    Ok(_) => false,
                    Err(pos) => {
                        if n < INLINE_CAP {
                            ids.copy_within(pos..n, pos + 1);
                            ids[pos] = tag.0;
                            *len += 1;
                        } else {
                            // 9th member: spill to the bitset.
                            let mut words = Vec::new();
                            for id in ids.iter().copied() {
                                set_bit(&mut words, id);
                            }
                            set_bit(&mut words, tag.0);
                            self.repr = Repr::Bits {
                                words,
                                len: (INLINE_CAP + 1) as u32,
                            };
                        }
                        true
                    }
                }
            }
            Repr::Bits { words, len } => {
                let (w, b) = (tag.0 as usize / WORD_BITS, tag.0 as usize % WORD_BITS);
                if w >= words.len() {
                    words.resize(w + 1, 0);
                }
                let mask = 1u64 << b;
                if words[w] & mask != 0 {
                    false
                } else {
                    words[w] |= mask;
                    *len += 1;
                    true
                }
            }
        }
    }

    /// In-place union; returns true if any member was added.
    pub fn union_with(&mut self, other: &DenseTagSet) -> bool {
        if other.is_empty() {
            return false;
        }
        match (&mut self.repr, &other.repr) {
            (Repr::Inline { .. }, Repr::Inline { len: bl, ids: bids }) => {
                let mut changed = false;
                for id in bids[..*bl as usize].iter().copied() {
                    changed |= self.insert(TagId(id));
                }
                changed
            }
            (Repr::Inline { len: al, ids: aids }, Repr::Bits { words: bw, len: _ }) => {
                // Result has at least other.len() > INLINE_CAP members: go
                // straight to the bitset and OR word-wise.
                let mut words = bw.clone();
                let mut added = other.len();
                for id in aids[..*al as usize].iter().copied() {
                    let (w, b) = (id as usize / WORD_BITS, id as usize % WORD_BITS);
                    if w >= words.len() {
                        words.resize(w + 1, 0);
                    }
                    if words[w] & (1u64 << b) == 0 {
                        words[w] |= 1u64 << b;
                        added += 1;
                    }
                }
                let changed = added > *al as usize;
                self.repr = Repr::Bits {
                    words,
                    len: added as u32,
                };
                changed
            }
            (Repr::Bits { words: aw, len: al }, Repr::Inline { len: bl, ids: bids }) => {
                let mut changed = false;
                for id in bids[..*bl as usize].iter().copied() {
                    let (w, b) = (id as usize / WORD_BITS, id as usize % WORD_BITS);
                    if w >= aw.len() {
                        aw.resize(w + 1, 0);
                    }
                    if aw[w] & (1u64 << b) == 0 {
                        aw[w] |= 1u64 << b;
                        *al += 1;
                        changed = true;
                    }
                }
                changed
            }
            (Repr::Bits { words: aw, len: al }, Repr::Bits { words: bw, len: _ }) => {
                if bw.len() > aw.len() {
                    aw.resize(bw.len(), 0);
                }
                let mut changed = false;
                let mut pop = 0u32;
                for (a, b) in aw.iter_mut().zip(bw.iter()) {
                    let merged = *a | *b;
                    changed |= merged != *a;
                    *a = merged;
                    pop += merged.count_ones();
                }
                for a in aw.iter().skip(bw.len()) {
                    pop += a.count_ones();
                }
                *al = pop;
                changed
            }
        }
    }

    /// Set intersection, re-packed to canonical form.
    pub fn intersect(&self, other: &DenseTagSet) -> DenseTagSet {
        match (&self.repr, &other.repr) {
            (Repr::Bits { words: aw, len: _ }, Repr::Bits { words: bw, len: _ }) => {
                let n = aw.len().min(bw.len());
                let words: Vec<u64> = aw[..n].iter().zip(&bw[..n]).map(|(a, b)| a & b).collect();
                DenseTagSet::from_words(words)
            }
            // At least one side is inline: iterate the smaller side.
            _ => {
                let (small, big) = if self.len() <= other.len() {
                    (self, other)
                } else {
                    (other, self)
                };
                small.iter().filter(|t| big.contains(*t)).collect()
            }
        }
    }

    /// Set difference `self \ other`, re-packed to canonical form.
    pub fn difference(&self, other: &DenseTagSet) -> DenseTagSet {
        match (&self.repr, &other.repr) {
            (Repr::Bits { words: aw, len: _ }, Repr::Bits { words: bw, len: _ }) => {
                let words: Vec<u64> = aw
                    .iter()
                    .enumerate()
                    .map(|(i, a)| a & !bw.get(i).copied().unwrap_or(0))
                    .collect();
                DenseTagSet::from_words(words)
            }
            _ => self.iter().filter(|t| !other.contains(*t)).collect(),
        }
    }

    /// True if every member of `self` is in `other`.
    pub fn is_subset(&self, other: &DenseTagSet) -> bool {
        if self.len() > other.len() {
            return false;
        }
        match (&self.repr, &other.repr) {
            (Repr::Bits { words: aw, len: _ }, Repr::Bits { words: bw, len: _ }) => aw
                .iter()
                .enumerate()
                .all(|(i, a)| a & !bw.get(i).copied().unwrap_or(0) == 0),
            _ => self.iter().all(|t| other.contains(t)),
        }
    }

    /// Iterates members in increasing [`TagId`] order.
    pub fn iter(&self) -> DenseIter<'_> {
        match &self.repr {
            Repr::Inline { len, ids } => DenseIter::Inline(ids[..*len as usize].iter()),
            Repr::Bits { words, .. } => DenseIter::Bits {
                words,
                word_idx: 0,
                current: words.first().copied().unwrap_or(0),
            },
        }
    }

    /// Builds a canonical set from raw bitset words (used by the word-wise
    /// shrinking kernels).
    fn from_words(mut words: Vec<u64>) -> DenseTagSet {
        let pop: u32 = words.iter().map(|w| w.count_ones()).sum();
        if pop as usize <= INLINE_CAP {
            let mut ids = [0u32; INLINE_CAP];
            let mut len = 0usize;
            for (wi, w) in words.iter().enumerate() {
                let mut w = *w;
                while w != 0 {
                    ids[len] = (wi * WORD_BITS + w.trailing_zeros() as usize) as u32;
                    len += 1;
                    w &= w - 1;
                }
            }
            DenseTagSet {
                repr: Repr::Inline {
                    len: len as u8,
                    ids,
                },
            }
        } else {
            while let Some(&0) = words.last() {
                words.pop();
            }
            DenseTagSet {
                repr: Repr::Bits { words, len: pop },
            }
        }
    }
}

fn set_bit(words: &mut Vec<u64>, id: u32) {
    let (w, b) = (id as usize / WORD_BITS, id as usize % WORD_BITS);
    if w >= words.len() {
        words.resize(w + 1, 0);
    }
    words[w] |= 1u64 << b;
}

/// Iterator over [`DenseTagSet`] members in increasing id order.
pub enum DenseIter<'a> {
    #[doc(hidden)]
    Inline(std::slice::Iter<'a, u32>),
    #[doc(hidden)]
    Bits {
        words: &'a [u64],
        word_idx: usize,
        current: u64,
    },
}

impl Iterator for DenseIter<'_> {
    type Item = TagId;

    fn next(&mut self) -> Option<TagId> {
        match self {
            DenseIter::Inline(it) => it.next().map(|id| TagId(*id)),
            DenseIter::Bits {
                words,
                word_idx,
                current,
            } => {
                while *current == 0 {
                    *word_idx += 1;
                    if *word_idx >= words.len() {
                        return None;
                    }
                    *current = words[*word_idx];
                }
                let bit = current.trailing_zeros() as usize;
                *current &= *current - 1;
                Some(TagId((*word_idx * WORD_BITS + bit) as u32))
            }
        }
    }
}

// Canonical form makes cross-representation equality impossible, so each
// variant compares (and hashes) its own payload directly.
impl PartialEq for DenseTagSet {
    fn eq(&self, other: &DenseTagSet) -> bool {
        match (&self.repr, &other.repr) {
            (Repr::Inline { len: al, ids: aids }, Repr::Inline { len: bl, ids: bids }) => {
                aids[..*al as usize] == bids[..*bl as usize]
            }
            (Repr::Bits { words: aw, len: al }, Repr::Bits { words: bw, len: bl }) => {
                al == bl && aw == bw
            }
            _ => false,
        }
    }
}

impl Eq for DenseTagSet {}

impl Hash for DenseTagSet {
    fn hash<H: Hasher>(&self, state: &mut H) {
        // Hash len + members in id order: identical for equal sets no matter
        // which arm computed them (equal sets share a representation anyway).
        state.write_usize(self.len());
        for t in self.iter() {
            state.write_u32(t.0);
        }
    }
}

impl FromIterator<TagId> for DenseTagSet {
    fn from_iter<I: IntoIterator<Item = TagId>>(iter: I) -> Self {
        let mut s = DenseTagSet::new();
        for t in iter {
            s.insert(t);
        }
        s
    }
}

impl Extend<TagId> for DenseTagSet {
    fn extend<I: IntoIterator<Item = TagId>>(&mut self, iter: I) {
        for t in iter {
            self.insert(t);
        }
    }
}

impl<'a> IntoIterator for &'a DenseTagSet {
    type Item = TagId;
    type IntoIter = DenseIter<'a>;
    fn into_iter(self) -> DenseIter<'a> {
        self.iter()
    }
}

/// A set of tags attached to a memory operation or call site.
///
/// `TagSet::All` is the conservative "may touch anything" value the front end
/// uses before analysis has run; the analyses replace it with explicit sets.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum TagSet {
    /// May reference every memory location (unknown).
    All,
    /// May reference exactly the listed locations.
    Set(DenseTagSet),
}

impl Default for TagSet {
    fn default() -> Self {
        TagSet::empty()
    }
}

impl TagSet {
    /// The empty set.
    pub fn empty() -> Self {
        TagSet::Set(DenseTagSet::new())
    }

    /// A singleton set.
    pub fn single(tag: TagId) -> Self {
        TagSet::Set(DenseTagSet::singleton(tag))
    }

    /// True if this is the conservative universe.
    pub fn is_all(&self) -> bool {
        matches!(self, TagSet::All)
    }

    /// True if the set is known to be empty.
    pub fn is_empty(&self) -> bool {
        match self {
            TagSet::All => false,
            TagSet::Set(s) => s.is_empty(),
        }
    }

    /// Number of explicit tags, or `None` for [`TagSet::All`].
    pub fn len(&self) -> Option<usize> {
        match self {
            TagSet::All => None,
            TagSet::Set(s) => Some(s.len()),
        }
    }

    /// If the set contains exactly one tag, returns it.
    pub fn as_singleton(&self) -> Option<TagId> {
        match self {
            TagSet::Set(s) => s.as_singleton(),
            TagSet::All => None,
        }
    }

    /// The explicit members, or `None` for [`TagSet::All`].
    pub fn as_set(&self) -> Option<&DenseTagSet> {
        match self {
            TagSet::All => None,
            TagSet::Set(s) => Some(s),
        }
    }

    /// True if `tag` may be in the set.
    pub fn contains(&self, tag: TagId) -> bool {
        match self {
            TagSet::All => true,
            TagSet::Set(s) => s.contains(tag),
        }
    }

    /// Inserts a tag (no-op on [`TagSet::All`]).
    pub fn insert(&mut self, tag: TagId) {
        if let TagSet::Set(s) = self {
            s.insert(tag);
        }
    }

    /// In-place union; returns true if the set changed.
    pub fn union_with(&mut self, other: &TagSet) -> bool {
        match (&mut *self, other) {
            (TagSet::All, _) => false,
            (_, TagSet::All) => {
                *self = TagSet::All;
                true
            }
            (TagSet::Set(a), TagSet::Set(b)) => a.union_with(b),
        }
    }

    /// Intersection with an explicit universe, used to concretize
    /// [`TagSet::All`] once the analysis knows the address-taken universe.
    pub fn intersect_universe(&self, universe: &DenseTagSet) -> TagSet {
        match self {
            TagSet::All => TagSet::Set(universe.clone()),
            TagSet::Set(s) => TagSet::Set(s.intersect(universe)),
        }
    }

    /// Iterates explicit members (empty iterator for [`TagSet::All`]; callers
    /// must check [`TagSet::is_all`] first when that distinction matters).
    pub fn iter(&self) -> impl Iterator<Item = TagId> + '_ {
        match self {
            TagSet::All => None.into_iter().flatten(),
            TagSet::Set(s) => Some(s.iter()).into_iter().flatten(),
        }
    }
}

impl FromIterator<TagId> for TagSet {
    fn from_iter<I: IntoIterator<Item = TagId>>(iter: I) -> Self {
        TagSet::Set(iter.into_iter().collect())
    }
}

impl Extend<TagId> for TagSet {
    fn extend<I: IntoIterator<Item = TagId>>(&mut self, iter: I) {
        if let TagSet::Set(s) = self {
            s.extend(iter);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn intern_and_lookup() {
        let mut t = TagTable::new();
        let a = t.intern("g:a", TagKind::Global, 1);
        let b = t.intern("g:b", TagKind::Global, 4);
        assert_ne!(a, b);
        assert_eq!(t.lookup("g:a"), Some(a));
        assert_eq!(t.lookup("g:c"), None);
        assert_eq!(t.info(b).size, 4);
        assert_eq!(t.len(), 2);
    }

    #[test]
    #[should_panic(expected = "duplicate tag name")]
    fn duplicate_names_panic() {
        let mut t = TagTable::new();
        t.intern("x", TagKind::Global, 1);
        t.intern("x", TagKind::Global, 1);
    }

    #[test]
    fn address_taken_universe_includes_heap() {
        let mut t = TagTable::new();
        let a = t.intern("a", TagKind::Global, 1);
        let h = t.intern("heap@0", TagKind::Heap { site: 0 }, 1);
        let b = t.intern("b", TagKind::Global, 1);
        t.mark_address_taken(a);
        let u = t.address_taken_set();
        assert!(u.contains(a));
        assert!(u.contains(h));
        assert!(!u.contains(b));
    }

    #[test]
    fn tagset_union_and_all() {
        let a = TagId(0);
        let b = TagId(1);
        let mut s = TagSet::single(a);
        s.union_with(&TagSet::single(b));
        assert!(s.contains(a) && s.contains(b));
        assert_eq!(s.len(), Some(2));
        s.union_with(&TagSet::All);
        assert!(s.is_all());
        assert!(s.contains(TagId(99)));
    }

    #[test]
    fn tagset_singleton() {
        assert_eq!(TagSet::single(TagId(3)).as_singleton(), Some(TagId(3)));
        assert_eq!(TagSet::empty().as_singleton(), None);
        assert_eq!(TagSet::All.as_singleton(), None);
    }

    #[test]
    fn intersect_universe_concretizes_all() {
        let u: DenseTagSet = [TagId(1), TagId(2)].into_iter().collect();
        let s = TagSet::All.intersect_universe(&u);
        assert_eq!(s.len(), Some(2));
        let t = TagSet::single(TagId(1)).intersect_universe(&u);
        assert_eq!(t.as_singleton(), Some(TagId(1)));
    }

    #[test]
    fn dense_spills_at_nine_and_reshrinks() {
        let mut s = DenseTagSet::new();
        for i in 0..INLINE_CAP as u32 {
            assert!(s.insert(TagId(i * 7)));
        }
        assert!(!s.is_spilled());
        assert!(s.insert(TagId(100)));
        assert!(s.is_spilled());
        assert_eq!(s.len(), 9);
        // Intersecting back down re-packs to the inline form.
        let small: DenseTagSet = [TagId(0), TagId(100)].into_iter().collect();
        let i = s.intersect(&small);
        assert!(!i.is_spilled());
        assert_eq!(i.len(), 2);
        assert_eq!(i, small);
    }

    #[test]
    fn dense_iter_is_sorted_both_reprs() {
        let big: DenseTagSet = (0..20).rev().map(|i| TagId(i * 13)).collect();
        assert!(big.is_spilled());
        let got: Vec<u32> = big.iter().map(|t| t.0).collect();
        let mut want: Vec<u32> = (0..20).map(|i| i * 13).collect();
        want.sort_unstable();
        assert_eq!(got, want);
        let small: DenseTagSet = [TagId(5), TagId(1), TagId(3)].into_iter().collect();
        assert_eq!(small.iter().map(|t| t.0).collect::<Vec<_>>(), vec![1, 3, 5]);
    }

    #[test]
    fn dense_union_difference_subset() {
        let a: DenseTagSet = (0..12).map(TagId).collect();
        let b: DenseTagSet = (6..18).map(TagId).collect();
        let mut u = a.clone();
        assert!(u.union_with(&b));
        assert!(!u.union_with(&b));
        assert_eq!(u.len(), 18);
        let d = a.difference(&b);
        assert_eq!(
            d.iter().map(|t| t.0).collect::<Vec<_>>(),
            (0..6).collect::<Vec<_>>()
        );
        assert!(!d.is_spilled());
        assert!(d.is_subset(&a));
        assert!(!a.is_subset(&b));
        assert!(a.is_subset(&u));
        assert!(b.is_subset(&u));
    }
}
