//! Functions, basic blocks, and modules.

use crate::instr::{BlockId, FuncId, Instr, Reg, Successors};
use crate::tag::{TagId, TagKind, TagTable};

/// A basic block: a straight-line instruction sequence ending in a
/// terminator.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Block {
    /// The instructions; when well-formed, exactly the last one is a
    /// terminator.
    pub instrs: Vec<Instr>,
}

impl Block {
    /// Creates an empty block.
    pub fn new() -> Self {
        Self::default()
    }

    /// The terminator, if the block is non-empty and well-formed.
    pub fn terminator(&self) -> Option<&Instr> {
        self.instrs.last().filter(|i| i.is_terminator())
    }

    /// Mutable access to the terminator.
    pub fn terminator_mut(&mut self) -> Option<&mut Instr> {
        self.instrs.last_mut().filter(|i| i.is_terminator())
    }

    /// Successor block ids, as an inline (non-allocating) iterator.
    pub fn successors(&self) -> Successors {
        self.terminator()
            .map(|t| t.successors())
            .unwrap_or_else(Successors::empty)
    }

    /// Inserts `instr` just before the terminator (or at the end if the
    /// block has no terminator yet).
    pub fn insert_before_terminator(&mut self, instr: Instr) {
        let at = if self.terminator().is_some() {
            self.instrs.len() - 1
        } else {
            self.instrs.len()
        };
        self.instrs.insert(at, instr);
    }

    /// Inserts a whole sequence just before the terminator with a single
    /// element shift, preserving the sequence order. Batch replacement for
    /// calling [`Block::insert_before_terminator`] in a loop (which shifts
    /// the terminator once per element — quadratic on long sequences).
    pub fn splice_before_terminator(&mut self, instrs: impl IntoIterator<Item = Instr>) {
        let at = if self.terminator().is_some() {
            self.instrs.len() - 1
        } else {
            self.instrs.len()
        };
        self.instrs.splice(at..at, instrs);
    }

    /// Index of the first non-φ instruction.
    pub fn first_non_phi(&self) -> usize {
        self.instrs
            .iter()
            .position(|i| !matches!(i, Instr::Phi { .. }))
            .unwrap_or(self.instrs.len())
    }
}

/// A function: parameters arrive in registers `r0..r(arity-1)`.
#[derive(Debug, Clone, PartialEq)]
pub struct Function {
    /// Symbol name, unique within the module.
    pub name: String,
    /// Number of parameters.
    pub arity: usize,
    /// Basic blocks, indexed by [`BlockId`].
    pub blocks: Vec<Block>,
    /// Entry block (conventionally `B0`).
    pub entry: BlockId,
    /// Next unused virtual register number.
    pub next_reg: u32,
    /// True if the function returns a value.
    pub has_result: bool,
}

impl Function {
    /// Creates a function with a single empty entry block.
    pub fn new(name: impl Into<String>, arity: usize) -> Self {
        Function {
            name: name.into(),
            arity,
            blocks: vec![Block::new()],
            entry: BlockId(0),
            next_reg: arity as u32,
            has_result: false,
        }
    }

    /// Allocates a fresh virtual register.
    pub fn new_reg(&mut self) -> Reg {
        let r = Reg(self.next_reg);
        self.next_reg += 1;
        r
    }

    /// Appends a new empty block and returns its id.
    pub fn new_block(&mut self) -> BlockId {
        let id = BlockId(self.blocks.len() as u32);
        self.blocks.push(Block::new());
        id
    }

    /// Shared access to a block.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range.
    pub fn block(&self, id: BlockId) -> &Block {
        &self.blocks[id.index()]
    }

    /// Mutable access to a block.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range.
    pub fn block_mut(&mut self, id: BlockId) -> &mut Block {
        &mut self.blocks[id.index()]
    }

    /// Iterates block ids in index order.
    pub fn block_ids(&self) -> impl Iterator<Item = BlockId> {
        (0..self.blocks.len() as u32).map(BlockId)
    }

    /// Predecessor lists for every block (by index).
    pub fn predecessors(&self) -> Vec<Vec<BlockId>> {
        let mut preds = vec![Vec::new(); self.blocks.len()];
        for id in self.block_ids() {
            for s in self.block(id).successors() {
                preds[s.index()].push(id);
            }
        }
        preds
    }

    /// Total instruction count (a cheap size metric).
    pub fn instr_count(&self) -> usize {
        self.blocks.iter().map(|b| b.instrs.len()).sum()
    }

    /// The parameter registers `r0..r(arity-1)`.
    pub fn param_regs(&self) -> impl Iterator<Item = Reg> {
        (0..self.arity as u32).map(Reg)
    }

    /// Static body statistics — the counts trace deltas are computed from.
    pub fn body_stats(&self) -> BodyStats {
        let mut stats = BodyStats::default();
        for b in &self.blocks {
            stats.instrs += b.instrs.len();
            for i in &b.instrs {
                match i {
                    Instr::SLoad { .. } | Instr::CLoad { .. } | Instr::Load { .. } => {
                        stats.loads += 1
                    }
                    Instr::SStore { .. } | Instr::Store { .. } => stats.stores += 1,
                    _ => {}
                }
            }
        }
        stats
    }
}

/// Static shape counts for one function body: total instructions plus
/// the memory operations promotion exists to eliminate.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct BodyStats {
    /// Total instruction count.
    pub instrs: usize,
    /// Static load operations (`sload`/`cload`/`load`).
    pub loads: usize,
    /// Static store operations (`sstore`/`store`).
    pub stores: usize,
}

impl From<BodyStats> for (usize, usize, usize) {
    /// `(instrs, loads, stores)`: the shape `trace::FuncTrace::record_delta`
    /// snapshots.
    fn from(s: BodyStats) -> Self {
        (s.instrs, s.loads, s.stores)
    }
}

/// Initial contents of a global variable.
#[derive(Debug, Clone, PartialEq)]
pub enum GlobalInit {
    /// All cells zero.
    Zero,
    /// Explicit integer cell values (padded with zeros to the tag's size).
    Ints(Vec<i64>),
    /// Explicit float cell values.
    Floats(Vec<f64>),
}

/// A global variable definition.
#[derive(Debug, Clone, PartialEq)]
pub struct Global {
    /// The tag naming this global's storage.
    pub tag: TagId,
    /// Initial value.
    pub init: GlobalInit,
}

/// A whole program: functions, globals, and the tag table.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Module {
    /// All functions; [`FuncId`] indexes this vector.
    pub funcs: Vec<Function>,
    /// Global variables.
    pub globals: Vec<Global>,
    /// The tag interner.
    pub tags: TagTable,
}

impl Module {
    /// Creates an empty module.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds a function and returns its id.
    ///
    /// # Panics
    ///
    /// Panics if a function with the same name exists.
    pub fn add_func(&mut self, func: Function) -> FuncId {
        assert!(
            self.lookup_func(&func.name).is_none(),
            "duplicate function name: {}",
            func.name
        );
        let id = FuncId(self.funcs.len() as u32);
        self.funcs.push(func);
        id
    }

    /// Looks a function up by name.
    pub fn lookup_func(&self, name: &str) -> Option<FuncId> {
        self.funcs
            .iter()
            .position(|f| f.name == name)
            .map(|i| FuncId(i as u32))
    }

    /// Shared access to a function.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range.
    pub fn func(&self, id: FuncId) -> &Function {
        &self.funcs[id.index()]
    }

    /// Mutable access to a function.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range.
    pub fn func_mut(&mut self, id: FuncId) -> &mut Function {
        &mut self.funcs[id.index()]
    }

    /// Iterates function ids.
    pub fn func_ids(&self) -> impl Iterator<Item = FuncId> {
        (0..self.funcs.len() as u32).map(FuncId)
    }

    /// Declares a global scalar or array and returns its tag.
    pub fn add_global(&mut self, name: &str, size: usize, init: GlobalInit) -> TagId {
        let tag = self.tags.intern(format!("g:{name}"), TagKind::Global, size);
        self.globals.push(Global { tag, init });
        tag
    }

    /// The designated entry point, if a function named `main` exists.
    pub fn main(&self) -> Option<FuncId> {
        self.lookup_func("main")
    }

    /// Total instruction count across all functions.
    pub fn instr_count(&self) -> usize {
        self.funcs.iter().map(|f| f.instr_count()).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::instr::Instr;

    #[test]
    fn function_basics() {
        let mut f = Function::new("f", 2);
        assert_eq!(f.new_reg(), Reg(2));
        assert_eq!(f.new_reg(), Reg(3));
        let b = f.new_block();
        assert_eq!(b, BlockId(1));
        assert_eq!(f.param_regs().collect::<Vec<_>>(), vec![Reg(0), Reg(1)]);
    }

    #[test]
    fn predecessors() {
        let mut f = Function::new("f", 0);
        let b1 = f.new_block();
        let b2 = f.new_block();
        let c = f.new_reg();
        f.block_mut(BlockId(0)).instrs.push(Instr::Branch {
            cond: c,
            then_bb: b1,
            else_bb: b2,
        });
        f.block_mut(b1).instrs.push(Instr::Jump { target: b2 });
        f.block_mut(b2).instrs.push(Instr::Ret { value: None });
        let preds = f.predecessors();
        assert_eq!(preds[b2.index()], vec![BlockId(0), b1]);
        assert_eq!(preds[0].len(), 0);
    }

    #[test]
    fn insert_before_terminator() {
        let mut b = Block::new();
        b.instrs.push(Instr::Ret { value: None });
        b.insert_before_terminator(Instr::Nop);
        assert!(matches!(b.instrs[0], Instr::Nop));
        assert!(b.terminator().is_some());
    }

    #[test]
    fn splice_before_terminator_keeps_order() {
        let mut b = Block::new();
        b.instrs.push(Instr::IConst {
            dst: Reg(0),
            value: 7,
        });
        b.instrs.push(Instr::Ret { value: None });
        b.splice_before_terminator([
            Instr::Copy {
                dst: Reg(1),
                src: Reg(0),
            },
            Instr::Copy {
                dst: Reg(2),
                src: Reg(1),
            },
        ]);
        assert!(matches!(b.instrs[1], Instr::Copy { dst: Reg(1), .. }));
        assert!(matches!(b.instrs[2], Instr::Copy { dst: Reg(2), .. }));
        assert!(b.terminator().is_some());

        // No terminator: appends at the end.
        let mut open = Block::new();
        open.splice_before_terminator([Instr::Nop]);
        assert_eq!(open.instrs.len(), 1);
    }

    #[test]
    #[should_panic(expected = "duplicate function name")]
    fn duplicate_function_names_panic() {
        let mut m = Module::new();
        m.add_func(Function::new("f", 0));
        m.add_func(Function::new("f", 0));
    }

    #[test]
    fn module_lookup() {
        let mut m = Module::new();
        let f = m.add_func(Function::new("main", 0));
        assert_eq!(m.main(), Some(f));
        assert_eq!(m.lookup_func("nope"), None);
        let g = m.add_global("x", 1, GlobalInit::Zero);
        assert_eq!(m.tags.info(g).name, "g:x");
    }
}
