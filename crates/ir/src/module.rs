//! Core IR data structures: modules, functions, basic blocks, instructions.
//!
//! The IR is a conventional typed CFG IR in the style of LLVM (which the
//! paper's implementation targeted): instructions live in an arena per
//! function, basic blocks hold instruction lists plus one terminator, and
//! after the SSA pass ([`crate::ssa`]) promoted locals become phi-joined
//! values.

use crate::types::{StructId, Type, TypeTable};
use safeflow_syntax::annot::Annotation;
use safeflow_syntax::span::Span;
use safeflow_util::hash::StableMap;
use safeflow_util::Symbol;
use std::borrow::Cow;
use std::fmt;

/// Identifier of a function within a [`Module`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct FuncId(pub u32);

/// Identifier of a global variable within a [`Module`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct GlobalId(pub u32);

/// Identifier of a basic block within a [`Function`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct BlockId(pub u32);

/// Identifier of an instruction within a [`Function`]; doubles as the SSA
/// value it defines.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct InstId(pub u32);

/// An SSA operand: 16 bytes, copied by value.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Value {
    /// Result of an instruction.
    Inst(InstId),
    /// The `i`-th formal parameter of the enclosing function.
    Param(u32),
    /// Address of a global variable.
    Global(GlobalId),
    /// Integer constant.
    ConstInt(i64, Type),
    /// Float constant.
    ConstFloat(f64, Type),
    /// Null pointer of the given type.
    ConstNull(Type),
}

impl Value {
    /// Integer constant of type `i32`.
    pub fn i32(v: i64) -> Value {
        Value::ConstInt(v, Type::int32())
    }

    /// Whether this operand is a compile-time constant.
    pub fn is_const(&self) -> bool {
        matches!(self, Value::ConstInt(..) | Value::ConstFloat(..) | Value::ConstNull(_))
    }

    /// The constant integer value, if this is one.
    pub fn as_const_int(&self) -> Option<i64> {
        match self {
            Value::ConstInt(v, _) => Some(*v),
            _ => None,
        }
    }
}

/// Integer/float binary operations.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[allow(missing_docs)] // names mirror the C operators
pub enum BinOp {
    Add,
    Sub,
    Mul,
    Div,
    Rem,
    Shl,
    Shr,
    And,
    Or,
    Xor,
}

/// Comparison predicates (result is `i32` 0/1, as in C).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[allow(missing_docs)]
pub enum CmpOp {
    Eq,
    Ne,
    Lt,
    Le,
    Gt,
    Ge,
}

/// Cast categories; the SafeFlow restriction checker (P3) inspects these.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CastKind {
    /// Int ↔ int width/signedness change.
    IntToInt,
    /// Int → float.
    IntToFloat,
    /// Float → int.
    FloatToInt,
    /// Float ↔ float width change.
    FloatToFloat,
    /// Pointer → pointer (bitcast). P3 restricts these on shared memory.
    PtrToPtr,
    /// Pointer → integer. P3 forbids these on shared memory.
    PtrToInt,
    /// Integer → pointer.
    IntToPtr,
}

/// Who a call targets.
#[derive(Debug, Clone, PartialEq)]
pub enum Callee {
    /// A function defined (or prototyped) in this module.
    Local(FuncId),
    /// An external function known only by name (libc, shm runtime, ...).
    External(Symbol),
}

/// An instruction.
#[derive(Debug, Clone, PartialEq)]
pub struct Inst {
    /// What the instruction does.
    pub kind: InstKind,
    /// Type of the value this instruction defines (`Void` if none).
    pub ty: Type,
    /// Source location.
    pub span: Span,
}

/// Instruction kinds.
#[derive(Debug, Clone, PartialEq)]
pub enum InstKind {
    /// Stack slot for a local variable; value is its address.
    Alloca {
        /// Type of the slot.
        ty: Type,
        /// Source-level variable name (for diagnostics and annotations).
        name: Symbol,
    },
    /// Read through a pointer.
    Load {
        /// Address to read.
        ptr: Value,
    },
    /// Write through a pointer.
    Store {
        /// Address to write.
        ptr: Value,
        /// Value stored.
        value: Value,
    },
    /// Address of a struct field: `&base->field`.
    FieldAddr {
        /// Pointer to the struct.
        base: Value,
        /// The struct whose layout is used.
        struct_id: StructId,
        /// Field index within the layout.
        field: u32,
    },
    /// Address of an array element / pointer arithmetic:
    /// `base + index * sizeof(elem)`.
    ElemAddr {
        /// Base pointer.
        base: Value,
        /// Element index (scaled by element size).
        index: Value,
    },
    /// Binary arithmetic.
    Bin {
        /// Operation.
        op: BinOp,
        /// Left operand.
        lhs: Value,
        /// Right operand.
        rhs: Value,
    },
    /// Comparison.
    Cmp {
        /// Predicate.
        op: CmpOp,
        /// Left operand.
        lhs: Value,
        /// Right operand.
        rhs: Value,
    },
    /// Conversion.
    Cast {
        /// Conversion category.
        kind: CastKind,
        /// Operand.
        value: Value,
    },
    /// Function call.
    Call {
        /// Target.
        callee: Callee,
        /// Arguments in order.
        args: Vec<Value>,
    },
    /// SSA φ-node (only after the SSA pass).
    Phi {
        /// `(predecessor, value)` pairs.
        incoming: Vec<(BlockId, Value)>,
    },
    /// Anchor for `assert(safe(x))`: the critical-data annotation lowered
    /// into the instruction stream at its program point (paper §3.1).
    AssertSafe {
        /// Source-level name of the asserted variable.
        var: Symbol,
        /// The value of `x` at this point.
        value: Value,
    },
}

impl InstKind {
    /// Calls `f` on each operand read by this instruction, in order.
    pub fn for_each_operand<'a>(&'a self, mut f: impl FnMut(&'a Value)) {
        match self {
            InstKind::Alloca { .. } => {}
            InstKind::Load { ptr } => f(ptr),
            InstKind::Store { ptr, value } => {
                f(ptr);
                f(value);
            }
            InstKind::FieldAddr { base, .. } => f(base),
            InstKind::ElemAddr { base, index } => {
                f(base);
                f(index);
            }
            InstKind::Bin { lhs, rhs, .. } | InstKind::Cmp { lhs, rhs, .. } => {
                f(lhs);
                f(rhs);
            }
            InstKind::Cast { value, .. } | InstKind::AssertSafe { value, .. } => f(value),
            InstKind::Call { args, .. } => args.iter().for_each(f),
            InstKind::Phi { incoming } => incoming.iter().for_each(|(_, v)| f(v)),
        }
    }

    /// Calls `f` on each operand read by this instruction, in the order of
    /// [`InstKind::for_each_operand`], with mutable access (used by SSA
    /// rewriting).
    pub fn for_each_operand_mut(&mut self, mut f: impl FnMut(&mut Value)) {
        match self {
            InstKind::Alloca { .. } => {}
            InstKind::Load { ptr } => f(ptr),
            InstKind::Store { ptr, value } => {
                f(ptr);
                f(value);
            }
            InstKind::FieldAddr { base, .. } => f(base),
            InstKind::ElemAddr { base, index } => {
                f(base);
                f(index);
            }
            InstKind::Bin { lhs, rhs, .. } | InstKind::Cmp { lhs, rhs, .. } => {
                f(lhs);
                f(rhs);
            }
            InstKind::Cast { value, .. } | InstKind::AssertSafe { value, .. } => f(value),
            InstKind::Call { args, .. } => args.iter_mut().for_each(f),
            InstKind::Phi { incoming } => incoming.iter_mut().for_each(|(_, v)| f(v)),
        }
    }

    /// Whether this instruction has side effects (must not be removed).
    pub fn has_side_effects(&self) -> bool {
        matches!(self, InstKind::Store { .. } | InstKind::Call { .. } | InstKind::AssertSafe { .. })
    }
}

/// Block terminators.
#[derive(Debug, Clone, PartialEq)]
pub enum Terminator {
    /// Unconditional branch.
    Br(BlockId),
    /// Two-way conditional branch on a nonzero test.
    CondBr {
        /// Condition value.
        cond: Value,
        /// Target when nonzero.
        then_bb: BlockId,
        /// Target when zero.
        else_bb: BlockId,
    },
    /// Multi-way switch.
    Switch {
        /// Scrutinee.
        value: Value,
        /// `(constant, target)` arms.
        cases: Vec<(i64, BlockId)>,
        /// Target when no arm matches.
        default: BlockId,
    },
    /// Function return.
    Ret(Option<Value>),
    /// Unreachable (used for not-yet-terminated blocks during lowering).
    Unreachable,
}

impl Terminator {
    /// Successor blocks in order: a switch's cases, then its default.
    /// Two arms branching to one block yield it twice.
    pub fn successors(&self) -> impl Iterator<Item = BlockId> + '_ {
        let (cases, fixed): (&[(i64, BlockId)], [Option<BlockId>; 2]) = match self {
            Terminator::Br(b) => (&[], [Some(*b), None]),
            Terminator::CondBr { then_bb, else_bb, .. } => (&[], [Some(*then_bb), Some(*else_bb)]),
            Terminator::Switch { cases, default, .. } => (cases, [Some(*default), None]),
            Terminator::Ret(_) | Terminator::Unreachable => (&[], [None, None]),
        };
        cases.iter().map(|&(_, b)| b).chain(fixed.into_iter().flatten())
    }

    /// Calls `f` on the value the terminator reads, if any.
    pub fn for_each_operand<'a>(&'a self, f: impl FnOnce(&'a Value)) {
        match self {
            Terminator::CondBr { cond: v, .. }
            | Terminator::Switch { value: v, .. }
            | Terminator::Ret(Some(v)) => f(v),
            Terminator::Br(_) | Terminator::Ret(None) | Terminator::Unreachable => {}
        }
    }

    /// Calls `f` on the value the terminator reads, if any, with mutable
    /// access.
    pub fn for_each_operand_mut(&mut self, f: impl FnOnce(&mut Value)) {
        match self {
            Terminator::CondBr { cond: v, .. }
            | Terminator::Switch { value: v, .. }
            | Terminator::Ret(Some(v)) => f(v),
            Terminator::Br(_) | Terminator::Ret(None) | Terminator::Unreachable => {}
        }
    }
}

/// A basic block: straight-line instructions plus one terminator.
#[derive(Debug, Clone, PartialEq)]
pub struct BasicBlock {
    /// Instructions in execution order (ids into the function's arena).
    pub insts: Vec<InstId>,
    /// The block terminator.
    pub terminator: Terminator,
    /// Debug name (e.g. `while.cond`). Only a switch's `switch.case{i}`
    /// arms are built at run time; every other name is a literal.
    pub name: Cow<'static, str>,
}

/// A function parameter.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct IrParam {
    /// Source name.
    pub name: Symbol,
    /// Resolved type.
    pub ty: Type,
}

/// A function: signature, body (if defined), and its SafeFlow annotations.
#[derive(Debug, Clone, PartialEq)]
pub struct Function {
    /// Function name.
    pub name: Symbol,
    /// Return type.
    pub ret: Type,
    /// Parameters.
    pub params: Vec<IrParam>,
    /// Whether declared varargs.
    pub varargs: bool,
    /// Instruction arena.
    pub insts: Vec<Inst>,
    /// Basic blocks; `BlockId(0)` is the entry when a body exists.
    pub blocks: Vec<BasicBlock>,
    /// Function-level SafeFlow annotations (assume core / shminit / shmvar /
    /// noncore).
    pub annotations: Vec<Annotation>,
    /// Whether a body was provided.
    pub is_definition: bool,
    /// Source location of the declarator.
    pub span: Span,
}

impl Function {
    /// The instruction stored under `id`.
    pub fn inst(&self, id: InstId) -> &Inst {
        &self.insts[id.0 as usize]
    }

    /// Mutable access to the instruction under `id`.
    pub fn inst_mut(&mut self, id: InstId) -> &mut Inst {
        &mut self.insts[id.0 as usize]
    }

    /// The block stored under `id`.
    pub fn block(&self, id: BlockId) -> &BasicBlock {
        &self.blocks[id.0 as usize]
    }

    /// The entry block id.
    pub fn entry(&self) -> BlockId {
        BlockId(0)
    }

    /// Iterates `(BlockId, &BasicBlock)`.
    pub fn iter_blocks(&self) -> impl Iterator<Item = (BlockId, &BasicBlock)> {
        self.blocks.iter().enumerate().map(|(i, b)| (BlockId(i as u32), b))
    }

    /// Iterates all `(InstId, &Inst)` in block order.
    pub fn iter_insts(&self) -> impl Iterator<Item = (InstId, &Inst)> + '_ {
        self.blocks.iter().flat_map(|b| b.insts.iter()).map(move |&id| (id, self.inst(id)))
    }

    /// Which block contains instruction `id`.
    pub fn block_of(&self, id: InstId) -> Option<BlockId> {
        for (bid, b) in self.iter_blocks() {
            if b.insts.contains(&id) {
                return Some(bid);
            }
        }
        None
    }

    /// Whether this function carries a `shminit` annotation (paper §3.2.1).
    pub fn is_shminit(&self) -> bool {
        self.annotations.iter().any(|a| matches!(a, Annotation::ShmInit { .. }))
    }
}

/// A global variable.
#[derive(Debug, Clone, PartialEq)]
pub struct Global {
    /// Name.
    pub name: Symbol,
    /// Value type (the global's address has type `ty*`).
    pub ty: Type,
    /// Whether an initializer was present (contents are irrelevant to the
    /// analysis; presence matters for diagnostics only).
    pub has_init: bool,
    /// Source location.
    pub span: Span,
}

/// A whole program in IR form.
#[derive(Debug, Default, Clone)]
pub struct Module {
    /// Struct layouts.
    pub types: TypeTable,
    /// Global variables.
    pub globals: Vec<Global>,
    /// Functions (definitions and prototypes).
    pub functions: Vec<Function>,
    /// Typedef names resolved during lowering (`SHMData` → its struct
    /// type); annotation expressions like `sizeof(SHMData)` resolve here.
    pub typedefs: StableMap<Symbol, Type>,
    /// Enum constants resolved during lowering; annotation expressions may
    /// name them.
    pub enum_consts: StableMap<Symbol, i64>,
    func_by_name: StableMap<Symbol, FuncId>,
    global_by_name: StableMap<Symbol, GlobalId>,
}

impl Module {
    /// Creates an empty module.
    pub fn new() -> Self {
        Module::default()
    }

    /// Adds a function, returning its id. A definition replaces an earlier
    /// prototype of the same name.
    pub fn add_function(&mut self, f: Function) -> FuncId {
        if let Some(&id) = self.func_by_name.get(&f.name) {
            let existing = &self.functions[id.0 as usize];
            if !existing.is_definition {
                self.functions[id.0 as usize] = f;
            }
            return id;
        }
        let id = FuncId(self.functions.len() as u32);
        self.func_by_name.insert(f.name, id);
        self.functions.push(f);
        id
    }

    /// Adds a global, returning its id. Duplicate names return the first id.
    /// Interns the global's address type, which [`Module::value_type`]
    /// reads.
    pub fn add_global(&mut self, g: Global) -> GlobalId {
        if let Some(&id) = self.global_by_name.get(&g.name) {
            return id;
        }
        self.types.ptr_to(g.ty);
        let id = GlobalId(self.globals.len() as u32);
        self.global_by_name.insert(g.name, id);
        self.globals.push(g);
        id
    }

    /// The function stored under `id`.
    pub fn function(&self, id: FuncId) -> &Function {
        &self.functions[id.0 as usize]
    }

    /// Mutable access to the function under `id`.
    pub fn function_mut(&mut self, id: FuncId) -> &mut Function {
        &mut self.functions[id.0 as usize]
    }

    /// Looks up a function id by name.
    pub fn function_by_name(&self, name: Symbol) -> Option<FuncId> {
        self.func_by_name.get(&name).copied()
    }

    /// The global stored under `id`.
    pub fn global(&self, id: GlobalId) -> &Global {
        &self.globals[id.0 as usize]
    }

    /// Looks up a global id by name.
    pub fn global_by_name(&self, name: Symbol) -> Option<GlobalId> {
        self.global_by_name.get(&name).copied()
    }

    /// Ids of all function definitions (with bodies).
    pub fn definitions(&self) -> impl Iterator<Item = FuncId> + '_ {
        self.functions
            .iter()
            .enumerate()
            .filter(|(_, f)| f.is_definition)
            .map(|(i, _)| FuncId(i as u32))
    }

    /// The effective *external* name of a call target: `Some` both for
    /// `Callee::External` and for calls bound to prototypes without bodies
    /// (the common case for libc/shm runtime functions declared in
    /// headers).
    pub fn external_callee_name(&self, callee: &Callee) -> Option<Symbol> {
        match *callee {
            Callee::External(n) => Some(n),
            Callee::Local(f) if !self.function(f).is_definition => Some(self.function(f).name),
            _ => None,
        }
    }

    /// Resolves a type name as written in an annotation `sizeof(...)`:
    /// typedef names, struct tags, and primitive names all work.
    pub fn sizeof_name(&self, name: Symbol) -> Option<u64> {
        if let Some(t) = self.typedefs.get(&name) {
            return Some(self.types.size_of(*t));
        }
        if let Some(id) = self.types.struct_by_name(name) {
            return Some(self.types.layout(id).size);
        }
        match name.as_str() {
            "char" => Some(1),
            "short" => Some(2),
            "int" | "float" => Some(4),
            "long" | "double" => Some(8),
            _ => None,
        }
    }

    /// The type of `value` as seen inside `func`.
    ///
    /// # Panics
    ///
    /// Panics on the address of a global that was pushed onto
    /// [`Module::globals`] directly instead of through
    /// [`Module::add_global`], since its pointer type was never interned.
    pub fn value_type(&self, func: &Function, value: &Value) -> Type {
        match *value {
            Value::Inst(id) => func.inst(id).ty,
            Value::Param(i) => func.params[i as usize].ty,
            Value::Global(g) => self
                .types
                .interned_ptr_to(self.global(g).ty)
                .expect("add_global interns each global's address type"),
            Value::ConstInt(_, t) | Value::ConstFloat(_, t) | Value::ConstNull(t) => t,
        }
    }
}

impl fmt::Display for FuncId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "fn{}", self.0)
    }
}

impl fmt::Display for BlockId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "bb{}", self.0)
    }
}

impl fmt::Display for InstId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "%{}", self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn dummy_fn(name: &str, def: bool) -> Function {
        Function {
            name: name.into(),
            ret: Type::VOID,
            params: vec![],
            varargs: false,
            insts: vec![],
            blocks: vec![],
            annotations: vec![],
            is_definition: def,
            span: Span::dummy(),
        }
    }

    #[test]
    fn definition_replaces_prototype() {
        let mut m = Module::new();
        let id1 = m.add_function(dummy_fn("f", false));
        let id2 = m.add_function(dummy_fn("f", true));
        assert_eq!(id1, id2);
        assert!(m.function(id1).is_definition);
        // A later prototype does not clobber the definition.
        let id3 = m.add_function(dummy_fn("f", false));
        assert_eq!(id1, id3);
        assert!(m.function(id1).is_definition);
    }

    #[test]
    fn terminator_successors() {
        let t = Terminator::Switch {
            value: Value::i32(0),
            cases: vec![(1, BlockId(1)), (2, BlockId(2))],
            default: BlockId(3),
        };
        assert_eq!(t.successors().collect::<Vec<_>>(), [BlockId(1), BlockId(2), BlockId(3)]);
        assert_eq!(Terminator::Ret(None).successors().count(), 0);
    }

    #[test]
    fn inst_operand_enumeration() {
        let count = |k: &InstKind| {
            let mut n = 0;
            k.for_each_operand(|_| n += 1);
            n
        };
        let k = InstKind::Bin { op: BinOp::Add, lhs: Value::i32(1), rhs: Value::i32(2) };
        assert_eq!(count(&k), 2);
        let call = InstKind::Call {
            callee: Callee::External("kill".into()),
            args: vec![Value::i32(1), Value::i32(9)],
        };
        assert_eq!(count(&call), 2);
        assert!(call.has_side_effects());
        assert!(!k.has_side_effects());
    }

    #[test]
    fn global_dedup() {
        let mut m = Module::new();
        let g1 = m.add_global(Global {
            name: "x".into(),
            ty: Type::int32(),
            has_init: false,
            span: Span::dummy(),
        });
        let g2 = m.add_global(Global {
            name: "x".into(),
            ty: Type::int32(),
            has_init: true,
            span: Span::dummy(),
        });
        assert_eq!(g1, g2);
        assert_eq!(m.globals.len(), 1);
    }

    #[test]
    fn value_constructors() {
        assert!(Value::i32(5).is_const());
        assert_eq!(Value::i32(5).as_const_int(), Some(5));
        assert!(!Value::Param(0).is_const());
    }
}
