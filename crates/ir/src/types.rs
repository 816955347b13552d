//! The IR type system: resolved, layout-aware types.
//!
//! Mirrors what the paper's LLVM 1.x substrate provided: a small typed
//! universe (integers, floats, pointers, arrays, structs) with concrete
//! sizes and field offsets, which the shared-memory extent reasoning
//! (`shmvar`/`assume(core(p, off, size))`) needs.

use safeflow_util::hash::StableMap;
use safeflow_util::Symbol;
use std::fmt;

/// Identifier of a struct layout inside a [`TypeTable`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct StructId(pub u32);

/// A resolved IR type.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum Type {
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
    /// Pointer to another type (`void*` is `Ptr(Void)`).
    Ptr(Box<Type>),
    /// Fixed-size array.
    Array(Box<Type>, u64),
    /// Struct or union; layout lives in the [`TypeTable`].
    Struct(StructId),
}

impl Type {
    /// The canonical `int` (32-bit signed).
    pub fn int32() -> Type {
        Type::Int { bits: 32, signed: true }
    }

    /// The canonical `char` (8-bit signed).
    pub fn int8() -> Type {
        Type::Int { bits: 8, signed: true }
    }

    /// The canonical `long` (64-bit signed).
    pub fn int64() -> Type {
        Type::Int { bits: 64, signed: true }
    }

    /// `float`.
    pub fn f32() -> Type {
        Type::Float { bits: 32 }
    }

    /// `double`.
    pub fn f64() -> Type {
        Type::Float { bits: 64 }
    }

    /// `void*`.
    pub fn void_ptr() -> Type {
        Type::Ptr(Box::new(Type::Void))
    }

    /// Pointer to `self`.
    pub fn ptr_to(&self) -> Type {
        Type::Ptr(Box::new(self.clone()))
    }

    /// Whether this is any pointer type.
    pub fn is_ptr(&self) -> bool {
        matches!(self, Type::Ptr(_))
    }

    /// Whether this is an integer type.
    pub fn is_int(&self) -> bool {
        matches!(self, Type::Int { .. })
    }

    /// Whether this is a float type.
    pub fn is_float(&self) -> bool {
        matches!(self, Type::Float { .. })
    }

    /// Whether this type can be held in a scalar SSA value (int, float,
    /// pointer).
    pub fn is_scalar(&self) -> bool {
        matches!(self, Type::Int { .. } | Type::Float { .. } | Type::Ptr(_))
    }

    /// The pointee of a pointer type.
    pub fn pointee(&self) -> Option<&Type> {
        match self {
            Type::Ptr(t) => Some(t),
            _ => None,
        }
    }

    /// The element type of an array.
    pub fn elem(&self) -> Option<&Type> {
        match self {
            Type::Array(t, _) => Some(t),
            _ => None,
        }
    }
}

impl fmt::Display for Type {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Type::Void => write!(f, "void"),
            Type::Int { bits, signed } => {
                write!(f, "{}{}", if *signed { "i" } else { "u" }, bits)
            }
            Type::Float { bits } => write!(f, "f{bits}"),
            Type::Ptr(t) => write!(f, "{t}*"),
            Type::Array(t, n) => write!(f, "[{n} x {t}]"),
            Type::Struct(id) => write!(f, "%struct.{}", id.0),
        }
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

/// Registry of struct layouts plus sizing rules for the target.
///
/// The layout model is a conventional LP64 target: `char`=1, `short`=2,
/// `int`=4, `long`=8, pointers=8, `float`=4, `double`=8, natural alignment.
///
/// # Examples
///
/// ```
/// use safeflow_ir::types::{Type, TypeTable};
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
/// ```
#[derive(Debug, Default, Clone)]
pub struct TypeTable {
    structs: Vec<StructLayout>,
    by_name: StableMap<Symbol, StructId>,
}

impl TypeTable {
    /// Creates an empty table.
    pub fn new() -> Self {
        TypeTable::default()
    }

    /// Defines (or redefines, for forward-declared tags) a struct and
    /// computes its layout. Returns its id.
    pub fn define_struct(
        &mut self,
        name: Symbol,
        fields: Vec<(Symbol, Type)>,
        is_union: bool,
    ) -> StructId {
        let id = match self.by_name.get(&name) {
            Some(&id) => id,
            None => {
                let id = StructId(self.structs.len() as u32);
                self.structs.push(StructLayout {
                    name,
                    fields: Vec::new(),
                    size: 0,
                    align: 1,
                    is_union,
                });
                self.by_name.insert(name, id);
                id
            }
        };
        let mut laid = Vec::with_capacity(fields.len());
        let mut offset = 0u64;
        let mut align = 1u64;
        let mut size = 0u64;
        for (fname, fty) in fields {
            let falign = self.align_of(&fty);
            let fsize = self.size_of(&fty);
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
    pub fn size_of(&self, ty: &Type) -> u64 {
        match ty {
            Type::Void => 0,
            Type::Int { bits, .. } => u64::from(*bits) / 8,
            Type::Float { bits } => u64::from(*bits) / 8,
            Type::Ptr(_) => 8,
            Type::Array(t, n) => self.size_of(t) * n,
            Type::Struct(id) => self.layout(*id).size,
        }
    }

    /// Alignment of `ty` in bytes.
    pub fn align_of(&self, ty: &Type) -> u64 {
        match ty {
            Type::Void => 1,
            Type::Int { bits, .. } => u64::from(*bits) / 8,
            Type::Float { bits } => u64::from(*bits) / 8,
            Type::Ptr(_) => 8,
            Type::Array(t, _) => self.align_of(t),
            Type::Struct(id) => self.layout(*id).align,
        }
    }

    /// Renders `ty` with struct names instead of numeric ids.
    pub fn display(&self, ty: &Type) -> String {
        match ty {
            Type::Ptr(t) => format!("{}*", self.display(t)),
            Type::Array(t, n) => format!("[{} x {}]", n, self.display(t)),
            Type::Struct(id) => format!("struct {}", self.layout(*id).name),
            other => other.to_string(),
        }
    }

    /// Whether two types may alias through a `core`/`noncore` extent, i.e.
    /// compatible for the purposes of restriction **P3** (no casts between
    /// pointers to incompatible shared-memory types).
    ///
    /// Compatibility is structural identity, except `void*` pairs with
    /// anything (the untyped result of `shmat` must be castable inside
    /// `shminit` functions, and byte-wise views are allowed for `char`).
    pub fn compatible_pointees(&self, a: &Type, b: &Type) -> bool {
        a == b || matches!(a, Type::Void) || matches!(b, Type::Void)
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
        let t = TypeTable::new();
        assert_eq!(t.size_of(&Type::int8()), 1);
        assert_eq!(t.size_of(&Type::Int { bits: 16, signed: false }), 2);
        assert_eq!(t.size_of(&Type::int32()), 4);
        assert_eq!(t.size_of(&Type::int64()), 8);
        assert_eq!(t.size_of(&Type::f32()), 4);
        assert_eq!(t.size_of(&Type::f64()), 8);
        assert_eq!(t.size_of(&Type::void_ptr()), 8);
        assert_eq!(t.size_of(&Type::Array(Box::new(Type::int32()), 10)), 40);
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
        let def = t.define_struct(
            "Node".into(),
            vec![("v".into(), Type::int32()), ("next".into(), Type::Struct(fwd).ptr_to())],
            false,
        );
        assert_eq!(fwd, def);
        assert_eq!(t.layout(def).size, 16);
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
        assert!(t.compatible_pointees(&Type::Struct(a), &Type::Struct(a)));
        assert!(!t.compatible_pointees(&Type::Struct(a), &Type::Struct(b)));
        assert!(t.compatible_pointees(&Type::Void, &Type::Struct(a)));
        assert!(t.compatible_pointees(&Type::Struct(b), &Type::Void));
    }

    #[test]
    fn display_uses_struct_names() {
        let mut t = TypeTable::new();
        let id = t.define_struct("SHMData".into(), vec![("c".into(), Type::f32())], false);
        assert_eq!(t.display(&Type::Struct(id).ptr_to()), "struct SHMData*");
        assert_eq!(t.display(&Type::int32()), "i32");
    }
}
