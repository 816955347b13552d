//! The IR type system: resolved, layout-aware types.
//!
//! Mirrors what the paper's LLVM 1.x substrate provided: a small typed
//! universe (integers, floats, pointers, arrays, structs) with concrete
//! sizes and field offsets, which the shared-memory extent reasoning
//! (`shmvar`/`assume(core(p, off, size))`) needs.
//!
//! A [`Type`] is a 4-byte handle: the module's [`TypeTable`] interns each
//! distinct type once and holds its structure, a [`TypeKind`]. So an IR
//! value or instruction carries its type inline, without a heap block, and
//! copying one is copying a word.

use safeflow_util::hash::StableMap;
use safeflow_util::Symbol;

/// Identifier of a struct layout inside a [`TypeTable`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct StructId(pub u32);

/// A resolved IR type: a handle into the [`TypeTable`] that interned it.
///
/// Two handles of one table are equal exactly when their types are
/// structurally equal. The index depends on the order types were first
/// used, so nothing that must be stable (a content key, a printout) ever
/// reads it: those walk [`TypeTable::kind`] instead. The primitive types
/// sit at fixed indices in every table, so [`Type::int32`] and the like
/// are constants that need no table.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Type(u32);

/// The structure of a [`Type`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TypeKind {
    /// `void` (only valid as a return type or pointee of `void*`).
    Void,
    /// Integer with bit width and signedness. Widths used: 8, 16, 32, 64.
    Int {
        /// Bit width (8/16/32/64).
        bits: u8,
        /// Whether values are sign-extended.
        signed: bool,
    },
    /// IEEE float; 32 or 64 bits.
    Float {
        /// Bit width (32/64).
        bits: u8,
    },
    /// Pointer to another type (`void*` is `Ptr(void)`).
    Ptr(Type),
    /// Fixed-size array.
    Array(Type, u64),
    /// Struct or union; layout lives in the [`TypeTable`].
    Struct(StructId),
}

/// The types every table holds at fixed indices: the primitives, then
/// `void*` (the type of `shmat` and `malloc`).
const SEEDED: [TypeKind; 12] = [
    TypeKind::Void,
    TypeKind::Int { bits: 8, signed: true },
    TypeKind::Int { bits: 8, signed: false },
    TypeKind::Int { bits: 16, signed: true },
    TypeKind::Int { bits: 16, signed: false },
    TypeKind::Int { bits: 32, signed: true },
    TypeKind::Int { bits: 32, signed: false },
    TypeKind::Int { bits: 64, signed: true },
    TypeKind::Int { bits: 64, signed: false },
    TypeKind::Float { bits: 32 },
    TypeKind::Float { bits: 64 },
    TypeKind::Ptr(Type::VOID),
];

/// The fixed handle of a primitive kind; `None` for every other kind.
const fn primitive(kind: TypeKind) -> Option<Type> {
    let index = match kind {
        TypeKind::Void => 0,
        TypeKind::Int { bits, signed } => {
            let width = match bits {
                8 => 0,
                16 => 1,
                32 => 2,
                64 => 3,
                _ => return None,
            };
            1 + 2 * width + !signed as u32
        }
        TypeKind::Float { bits: 32 } => 9,
        TypeKind::Float { bits: 64 } => 10,
        _ => return None,
    };
    Some(Type(index))
}

impl Type {
    /// `void`.
    pub const VOID: Type = Type(0);

    /// The integer type of `bits` (8, 16, 32 or 64) and signedness.
    ///
    /// # Panics
    ///
    /// Panics for any other width.
    pub const fn int(bits: u8, signed: bool) -> Type {
        primitive(TypeKind::Int { bits, signed }).expect("integer widths are 8, 16, 32 or 64")
    }

    /// The canonical `int` (32-bit signed).
    pub const fn int32() -> Type {
        Type::int(32, true)
    }

    /// The canonical `char` (8-bit signed).
    pub const fn int8() -> Type {
        Type::int(8, true)
    }

    /// The canonical `long` (64-bit signed).
    pub const fn int64() -> Type {
        Type::int(64, true)
    }

    /// `float`.
    pub const fn f32() -> Type {
        Type(9)
    }

    /// `double`.
    pub const fn f64() -> Type {
        Type(10)
    }

    /// `void*`.
    pub const fn void_ptr() -> Type {
        Type(11)
    }
}

/// One field of a struct layout.
#[derive(Debug, Clone, PartialEq)]
pub struct FieldLayout {
    /// Field name.
    pub name: Symbol,
    /// Field type.
    pub ty: Type,
    /// Byte offset from the start of the struct (0 for all union members).
    pub offset: u64,
}

/// Layout of a struct or union.
#[derive(Debug, Clone, PartialEq)]
pub struct StructLayout {
    /// Tag name.
    pub name: Symbol,
    /// Fields in declaration order.
    pub fields: Vec<FieldLayout>,
    /// Total size in bytes (including padding).
    pub size: u64,
    /// Alignment in bytes.
    pub align: u64,
    /// `true` for unions (all fields at offset 0).
    pub is_union: bool,
}

impl StructLayout {
    /// Index of the field called `name`.
    pub fn field_index(&self, name: Symbol) -> Option<usize> {
        self.fields.iter().position(|f| f.name == name)
    }
}

/// The interned types of a module, its struct layouts, and the sizing
/// rules for the target.
///
/// The layout model is a conventional LP64 target: `char`=1, `short`=2,
/// `int`=4, `long`=8, pointers=8, `float`=4, `double`=8, natural alignment.
///
/// # Examples
///
/// ```
/// use safeflow_ir::types::{Type, TypeKind, TypeTable};
///
/// let mut table = TypeTable::new();
/// let id = table.define_struct(
///     "Pair".into(),
///     vec![("a".into(), Type::int8()), ("b".into(), Type::int32())],
///     false,
/// );
/// let layout = table.layout(id);
/// assert_eq!(layout.size, 8); // 1 byte + 3 padding + 4
/// assert_eq!(layout.fields[1].offset, 4);
///
/// let pair = table.intern(TypeKind::Struct(id));
/// let ptr = table.ptr_to(pair);
/// assert_eq!(table.ptr_to(pair), ptr); // interned once
/// assert_eq!(table.pointee(ptr), Some(pair));
/// assert_eq!(table.display(ptr), "struct Pair*");
/// ```
#[derive(Debug, Clone)]
pub struct TypeTable {
    /// The structure of each interned type, by handle index.
    kinds: Vec<TypeKind>,
    /// Per handle index, the pointer to that type once it is interned.
    pointer_to: Vec<Option<Type>>,
    /// The interned array and struct types. A primitive's handle is fixed
    /// and a pointer's sits in `pointer_to`, so neither is hashed.
    composites: StableMap<TypeKind, Type>,
    structs: Vec<StructLayout>,
    by_name: StableMap<Symbol, StructId>,
}

impl Default for TypeTable {
    fn default() -> Self {
        let mut pointer_to = vec![None; SEEDED.len()];
        pointer_to[Type::VOID.0 as usize] = Some(Type::void_ptr());
        TypeTable {
            kinds: SEEDED.to_vec(),
            pointer_to,
            composites: StableMap::default(),
            structs: Vec::new(),
            by_name: StableMap::default(),
        }
    }
}

impl TypeTable {
    /// Creates a table that holds only the seeded primitive types.
    pub fn new() -> Self {
        TypeTable::default()
    }

    /// The structure of `ty`.
    ///
    /// # Panics
    ///
    /// Panics if `ty` came from a larger table than this one.
    pub fn kind(&self, ty: Type) -> TypeKind {
        self.kinds[ty.0 as usize]
    }

    /// The handle of `kind`, interning it on first use.
    pub fn intern(&mut self, kind: TypeKind) -> Type {
        if let Some(ty) = primitive(kind) {
            return ty;
        }
        let known = match kind {
            TypeKind::Ptr(pointee) => self.pointer_to[pointee.0 as usize],
            _ => self.composites.get(&kind).copied(),
        };
        if let Some(ty) = known {
            return ty;
        }
        let ty = Type(self.kinds.len() as u32);
        self.kinds.push(kind);
        self.pointer_to.push(None);
        match kind {
            TypeKind::Ptr(pointee) => self.pointer_to[pointee.0 as usize] = Some(ty),
            _ => {
                self.composites.insert(kind, ty);
            }
        }
        ty
    }

    /// Pointer to `ty`.
    pub fn ptr_to(&mut self, ty: Type) -> Type {
        self.intern(TypeKind::Ptr(ty))
    }

    /// Array of `len` elements of type `elem`.
    pub fn array_of(&mut self, elem: Type, len: u64) -> Type {
        self.intern(TypeKind::Array(elem, len))
    }

    /// Pointer to `ty` if that type was interned, without interning it.
    pub fn interned_ptr_to(&self, ty: Type) -> Option<Type> {
        self.pointer_to[ty.0 as usize]
    }

    /// Whether `ty` is any pointer type.
    pub fn is_ptr(&self, ty: Type) -> bool {
        matches!(self.kind(ty), TypeKind::Ptr(_))
    }

    /// Whether `ty` is a float type.
    pub fn is_float(&self, ty: Type) -> bool {
        matches!(self.kind(ty), TypeKind::Float { .. })
    }

    /// Whether `ty` can be held in a scalar SSA value (int, float,
    /// pointer).
    pub fn is_scalar(&self, ty: Type) -> bool {
        matches!(self.kind(ty), TypeKind::Int { .. } | TypeKind::Float { .. } | TypeKind::Ptr(_))
    }

    /// The pointee of a pointer type.
    pub fn pointee(&self, ty: Type) -> Option<Type> {
        match self.kind(ty) {
            TypeKind::Ptr(t) => Some(t),
            _ => None,
        }
    }

    /// The element type of an array.
    pub fn elem(&self, ty: Type) -> Option<Type> {
        match self.kind(ty) {
            TypeKind::Array(t, _) => Some(t),
            _ => None,
        }
    }

    /// Defines (or redefines, for forward-declared tags) a struct and
    /// computes its layout. Returns its id.
    pub fn define_struct(
        &mut self,
        name: Symbol,
        fields: Vec<(Symbol, Type)>,
        is_union: bool,
    ) -> StructId {
        let id = self.declare_struct(name, is_union);
        let mut laid = Vec::with_capacity(fields.len());
        let mut offset = 0u64;
        let mut align = 1u64;
        let mut size = 0u64;
        for (fname, fty) in fields {
            let falign = self.align_of(fty);
            let fsize = self.size_of(fty);
            align = align.max(falign);
            if is_union {
                laid.push(FieldLayout { name: fname, ty: fty, offset: 0 });
                size = size.max(fsize);
            } else {
                offset = round_up(offset, falign);
                laid.push(FieldLayout { name: fname, ty: fty, offset });
                offset += fsize;
            }
        }
        if !is_union {
            size = offset;
        }
        let total = round_up(size.max(1), align);
        let s = &mut self.structs[id.0 as usize];
        s.fields = laid;
        s.size = total;
        s.align = align;
        s.is_union = is_union;
        id
    }

    /// Declares a struct tag without a body (forward declaration).
    pub fn declare_struct(&mut self, name: Symbol, is_union: bool) -> StructId {
        if let Some(&id) = self.by_name.get(&name) {
            return id;
        }
        let id = StructId(self.structs.len() as u32);
        self.structs.push(StructLayout { name, fields: Vec::new(), size: 0, align: 1, is_union });
        self.by_name.insert(name, id);
        id
    }

    /// Looks up a struct id by tag name.
    pub fn struct_by_name(&self, name: Symbol) -> Option<StructId> {
        self.by_name.get(&name).copied()
    }

    /// The layout of `id`.
    ///
    /// # Panics
    ///
    /// Panics if `id` was not produced by this table.
    pub fn layout(&self, id: StructId) -> &StructLayout {
        &self.structs[id.0 as usize]
    }

    /// Number of registered structs.
    pub fn len(&self) -> usize {
        self.structs.len()
    }

    /// Whether no struct has been registered.
    pub fn is_empty(&self) -> bool {
        self.structs.is_empty()
    }

    /// Byte size of `ty`.
    pub fn size_of(&self, ty: Type) -> u64 {
        match self.kind(ty) {
            TypeKind::Void => 0,
            TypeKind::Int { bits, .. } | TypeKind::Float { bits } => u64::from(bits) / 8,
            TypeKind::Ptr(_) => 8,
            TypeKind::Array(t, n) => self.size_of(t) * n,
            TypeKind::Struct(id) => self.layout(id).size,
        }
    }

    /// Alignment of `ty` in bytes.
    pub fn align_of(&self, ty: Type) -> u64 {
        match self.kind(ty) {
            TypeKind::Void => 1,
            TypeKind::Int { bits, .. } | TypeKind::Float { bits } => u64::from(bits) / 8,
            TypeKind::Ptr(_) => 8,
            TypeKind::Array(t, _) => self.align_of(t),
            TypeKind::Struct(id) => self.layout(id).align,
        }
    }

    /// Renders `ty` with struct names instead of numeric ids.
    pub fn display(&self, ty: Type) -> String {
        match self.kind(ty) {
            TypeKind::Void => "void".to_string(),
            TypeKind::Int { bits, signed } => format!("{}{bits}", if signed { "i" } else { "u" }),
            TypeKind::Float { bits } => format!("f{bits}"),
            TypeKind::Ptr(t) => format!("{}*", self.display(t)),
            TypeKind::Array(t, n) => format!("[{} x {}]", n, self.display(t)),
            TypeKind::Struct(id) => format!("struct {}", self.layout(id).name),
        }
    }

    /// Whether two types may alias through a `core`/`noncore` extent, i.e.
    /// compatible for the purposes of restriction **P3** (no casts between
    /// pointers to incompatible shared-memory types).
    ///
    /// Compatibility is structural identity, except `void*` pairs with
    /// anything (the untyped result of `shmat` must be castable inside
    /// `shminit` functions, and byte-wise views are allowed for `char`).
    pub fn compatible_pointees(&self, a: Type, b: Type) -> bool {
        a == b || a == Type::VOID || b == Type::VOID
    }
}

fn round_up(v: u64, align: u64) -> u64 {
    debug_assert!(align > 0);
    v.div_ceil(align) * align
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn primitive_sizes() {
        let mut t = TypeTable::new();
        assert_eq!(t.size_of(Type::int8()), 1);
        assert_eq!(t.size_of(Type::int(16, false)), 2);
        assert_eq!(t.size_of(Type::int32()), 4);
        assert_eq!(t.size_of(Type::int64()), 8);
        assert_eq!(t.size_of(Type::f32()), 4);
        assert_eq!(t.size_of(Type::f64()), 8);
        assert_eq!(t.size_of(Type::void_ptr()), 8);
        let arr = t.array_of(Type::int32(), 10);
        assert_eq!(t.size_of(arr), 40);
    }

    #[test]
    fn seeded_types_sit_at_their_fixed_handles() {
        let mut t = TypeTable::new();
        for (i, kind) in SEEDED.into_iter().enumerate() {
            assert_eq!(t.intern(kind), Type(i as u32), "{kind:?}");
            assert_eq!(t.kind(Type(i as u32)), kind);
        }
        assert_eq!(t.ptr_to(Type::VOID), Type::void_ptr());
        assert_eq!(t.kind(Type::int(64, false)), TypeKind::Int { bits: 64, signed: false });
        assert_eq!(t.kind(Type::f32()), TypeKind::Float { bits: 32 });
        assert_eq!(t.kinds.len(), SEEDED.len(), "seeded kinds are not interned twice");
    }

    #[test]
    fn interning_is_structural() {
        let mut t = TypeTable::new();
        let p = t.ptr_to(Type::int32());
        let pp = t.ptr_to(p);
        let a = t.array_of(pp, 4);
        assert_eq!(t.ptr_to(Type::int32()), p);
        assert_eq!(t.intern(TypeKind::Ptr(p)), pp);
        assert_eq!(t.array_of(pp, 4), a);
        assert_ne!(t.array_of(pp, 5), a);
        assert_ne!(t.ptr_to(Type::int(32, false)), p);
        assert_eq!(t.elem(a), Some(pp));
        assert_eq!(t.pointee(pp), Some(p));
        assert_eq!(t.pointee(a), None);
        assert_eq!(t.interned_ptr_to(a), None);
        let pa = t.ptr_to(a);
        assert_eq!(t.interned_ptr_to(a), Some(pa));
        // An odd integer width is interned like any composite.
        let i7 = t.intern(TypeKind::Int { bits: 7, signed: true });
        assert_eq!(t.intern(TypeKind::Int { bits: 7, signed: true }), i7);
        assert_eq!(t.display(i7), "i7");
    }

    #[test]
    fn struct_layout_with_padding() {
        let mut t = TypeTable::new();
        let id = t.define_struct(
            "Mixed".into(),
            vec![
                ("c".into(), Type::int8()),
                ("d".into(), Type::f64()),
                ("i".into(), Type::int32()),
            ],
            false,
        );
        let l = t.layout(id);
        assert_eq!(l.fields[0].offset, 0);
        assert_eq!(l.fields[1].offset, 8);
        assert_eq!(l.fields[2].offset, 16);
        assert_eq!(l.size, 24); // rounded to align 8
        assert_eq!(l.align, 8);
    }

    #[test]
    fn union_layout() {
        let mut t = TypeTable::new();
        let id = t.define_struct(
            "U".into(),
            vec![("i".into(), Type::int32()), ("d".into(), Type::f64())],
            true,
        );
        let l = t.layout(id);
        assert!(l.is_union);
        assert_eq!(l.fields[0].offset, 0);
        assert_eq!(l.fields[1].offset, 0);
        assert_eq!(l.size, 8);
    }

    #[test]
    fn forward_declaration_then_definition() {
        let mut t = TypeTable::new();
        let fwd = t.declare_struct("Node".into(), false);
        let node = t.intern(TypeKind::Struct(fwd));
        let next = t.ptr_to(node);
        let def = t.define_struct(
            "Node".into(),
            vec![("v".into(), Type::int32()), ("next".into(), next)],
            false,
        );
        assert_eq!(fwd, def);
        assert_eq!(t.layout(def).size, 16);
        assert_eq!(t.size_of(node), 16);
    }

    #[test]
    fn field_index_lookup() {
        let mut t = TypeTable::new();
        let id = t.define_struct(
            "P".into(),
            vec![("x".into(), Type::f32()), ("y".into(), Type::f32())],
            false,
        );
        assert_eq!(t.layout(id).field_index("y".into()), Some(1));
        assert_eq!(t.layout(id).field_index("z".into()), None);
    }

    #[test]
    fn empty_struct_has_nonzero_size() {
        let mut t = TypeTable::new();
        let id = t.define_struct("E".into(), vec![], false);
        assert!(t.layout(id).size >= 1);
    }

    #[test]
    fn pointee_compatibility_for_p3() {
        let mut t = TypeTable::new();
        let a = t.define_struct("A".into(), vec![("x".into(), Type::int32())], false);
        let b = t.define_struct("B".into(), vec![("x".into(), Type::int32())], false);
        let (a, b) = (t.intern(TypeKind::Struct(a)), t.intern(TypeKind::Struct(b)));
        assert!(t.compatible_pointees(a, a));
        assert!(!t.compatible_pointees(a, b));
        assert!(t.compatible_pointees(Type::VOID, a));
        assert!(t.compatible_pointees(b, Type::VOID));
    }

    #[test]
    fn display_uses_struct_names() {
        let mut t = TypeTable::new();
        let id = t.define_struct("SHMData".into(), vec![("c".into(), Type::f32())], false);
        let shm = t.intern(TypeKind::Struct(id));
        let p = t.ptr_to(shm);
        assert_eq!(t.display(p), "struct SHMData*");
        assert_eq!(t.display(Type::int32()), "i32");
        assert_eq!(t.display(Type::int(8, false)), "u8");
        let arr = t.array_of(Type::f64(), 3);
        assert_eq!(t.display(arr), "[3 x f64]");
        assert_eq!(t.display(Type::void_ptr()), "void*");
    }
}
