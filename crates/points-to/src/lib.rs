//! # safeflow-points-to
//!
//! Module-wide points-to analysis standing in for the paper's use of Data
//! Structure Analysis (DSA, paper reference 15): context-insensitive here, but
//! field-sensitive and flow-insensitive, with a typed memory-object model.
//! SafeFlow's phase 3 uses it to resolve which abstract memory objects an
//! indirect load/store may touch, so taint stored through one pointer is
//! observed through an alias.
//!
//! Array elements collapse into their base object, matching the paper's
//! "array is treated as a single unit" rule.
//!
//! # Examples
//!
//! ```
//! use safeflow_syntax::{parse_source, diag::Diagnostics};
//! use safeflow_ir::build_module;
//! use safeflow_points_to::PointsTo;
//!
//! let pr = parse_source("p.c", "int g; int *take(void) { return &g; }");
//! let mut diags = Diagnostics::new();
//! let module = build_module(&pr.unit, &mut diags);
//! let pt = PointsTo::analyze(&module);
//! let f = module.function_by_name("take".into()).unwrap();
//! assert_eq!(pt.return_points_to(f).len(), 1);
//! ```

#![warn(missing_docs)]

use safeflow_ir::{Callee, FuncId, FuncTable, GlobalId, InstId, InstKind, Module, Value};
use std::collections::{BTreeSet, HashMap};

/// Interned id of an abstract memory object.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ObjId(pub u32);

/// An abstract memory object.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum Obj {
    /// A global variable.
    Global(GlobalId),
    /// A stack slot (`Alloca`) in a function.
    Stack(FuncId, InstId),
    /// The object returned by an external call (e.g. the `shmat` segment);
    /// one per call site.
    ExternRet(FuncId, InstId),
    /// A named field of another object (keyed by the struct layout it was
    /// accessed through — sound because restriction P3 forbids viewing the
    /// same shared memory through incompatible struct types).
    Field(ObjId, u32, u32),
    /// The catch-all unknown object (escaped / external memory).
    Unknown,
}

/// A constraint variable: an SSA value in a specific function, a function's
/// merged return, or the pointer contents of a memory object.
///
/// Ordered so the solver visits copy edges in a stable order: field objects
/// are interned lazily *during* solving, so `ObjId` numbering (and with it
/// the summary-cache content hashes) must not depend on map iteration order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
enum VarKey {
    Inst(FuncId, InstId),
    Param(FuncId, u32),
    Ret(FuncId),
    Contents(ObjId),
}

static NO_OBJECTS: BTreeSet<ObjId> = BTreeSet::new();

/// A points-to set borrowed from a [`PointsTo`]; see
/// [`PointsTo::points_to_ref`].
#[derive(Debug, Clone, Copy)]
pub enum PointsToRef<'a> {
    /// A solved set (instruction results and parameters; empty otherwise).
    Set(&'a BTreeSet<ObjId>),
    /// The single object a global's address denotes.
    One(ObjId),
}

impl<'a> PointsToRef<'a> {
    /// Number of objects.
    #[inline]
    pub fn len(&self) -> usize {
        match self {
            PointsToRef::Set(s) => s.len(),
            PointsToRef::One(_) => 1,
        }
    }

    /// Whether the set is empty.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The objects in ascending order.
    #[inline]
    pub fn iter(&self) -> impl Iterator<Item = ObjId> + 'a {
        let (set, one) = match *self {
            PointsToRef::Set(s) => (Some(s), None),
            PointsToRef::One(o) => (None, Some(o)),
        };
        set.into_iter().flatten().copied().chain(one)
    }
}

/// Results of the points-to analysis.
///
/// Parameter and instruction-result sets sit in a dense [`FuncTable`],
/// merged returns per [`FuncId`], object contents per [`ObjId`] and each
/// global's object per [`GlobalId`] in plain vectors, so no lookup hashes.
/// Only interning a memory object probes a map. The per-value accessors are
/// `#[inline]`: the content hash and both engines call them per operand.
#[derive(Debug)]
pub struct PointsTo {
    objects: Vec<Obj>,
    obj_ids: HashMap<Obj, ObjId>,
    /// The object of each global, indexed by [`GlobalId`].
    global_objs: Vec<ObjId>,
    values: FuncTable<BTreeSet<ObjId>>,
    rets: Vec<BTreeSet<ObjId>>,
    /// Pointer contents, indexed by [`ObjId`]: one entry per interned
    /// object.
    contents: Vec<BTreeSet<ObjId>>,
    escaped: BTreeSet<ObjId>,
}

impl PointsTo {
    /// Runs the analysis over every defined function in `module`.
    pub fn analyze(module: &Module) -> PointsTo {
        let mut a = Analyzer {
            pt: PointsTo {
                objects: Vec::new(),
                obj_ids: HashMap::new(),
                global_objs: Vec::new(),
                values: FuncTable::new(module),
                rets: vec![BTreeSet::new(); module.functions.len()],
                contents: Vec::new(),
                escaped: BTreeSet::new(),
            },
            edges: Vec::new(),
            field_edges: Vec::new(),
            complex_loads: Vec::new(),
            complex_stores: Vec::new(),
            extern_args: Vec::new(),
        };
        a.pt.intern(Obj::Unknown);
        a.build_constraints(module);
        a.solve();
        a.pt
    }

    fn intern(&mut self, o: Obj) -> ObjId {
        if let Some(&id) = self.obj_ids.get(&o) {
            return id;
        }
        let id = ObjId(self.objects.len() as u32);
        self.objects.push(o.clone());
        self.contents.push(BTreeSet::new());
        self.obj_ids.insert(o, id);
        id
    }

    /// The object stored under `id`.
    #[inline]
    pub fn object(&self, id: ObjId) -> &Obj {
        &self.objects[id.0 as usize]
    }

    /// All interned objects.
    pub fn objects(&self) -> impl Iterator<Item = (ObjId, &Obj)> {
        self.objects.iter().enumerate().map(|(i, o)| (ObjId(i as u32), o))
    }

    /// The base object of `id` with field derivations stripped.
    #[inline]
    pub fn base_of(&self, mut id: ObjId) -> ObjId {
        loop {
            match self.object(id) {
                Obj::Field(parent, _, _) => id = *parent,
                _ => return id,
            }
        }
    }

    /// Points-to set of `value` as seen in `func` (empty for non-pointers),
    /// in ascending order.
    #[inline]
    pub fn points_to_ref(&self, func: FuncId, value: &Value) -> PointsToRef<'_> {
        match value {
            Value::Global(g) => match self.global_objs.get(g.0 as usize) {
                Some(&id) => PointsToRef::One(id),
                None => PointsToRef::Set(&NO_OBJECTS),
            },
            _ => PointsToRef::Set(self.values.get(func, value)),
        }
    }

    /// Points-to set of `func`'s merged return value.
    pub fn return_points_to(&self, func: FuncId) -> &BTreeSet<ObjId> {
        self.rets.get(func.0 as usize).unwrap_or(&NO_OBJECTS)
    }

    /// The pointer contents of object `o` (what loads from `o` may yield).
    pub fn contents(&self, o: ObjId) -> &BTreeSet<ObjId> {
        &self.contents[o.0 as usize]
    }

    /// Whether `o`'s address escaped into an external function.
    pub fn is_escaped(&self, o: ObjId) -> bool {
        self.escaped.contains(&o) || matches!(self.object(o), Obj::Unknown)
    }

    /// The solved set of constraint variable `key`.
    fn set(&self, key: VarKey) -> &BTreeSet<ObjId> {
        match key {
            VarKey::Inst(f, i) => self.values.inst(f, i),
            VarKey::Param(f, i) => self.values.param(f, i),
            VarKey::Ret(f) => self.return_points_to(f),
            VarKey::Contents(o) => self.contents(o),
        }
    }

    /// The set of `key`, for inserting.
    fn set_mut(&mut self, key: VarKey) -> &mut BTreeSet<ObjId> {
        match key {
            VarKey::Inst(f, i) => self.values.inst_mut(f, i),
            VarKey::Param(f, i) => self.values.param_mut(f, i),
            VarKey::Ret(f) => &mut self.rets[f.0 as usize],
            VarKey::Contents(o) => &mut self.contents[o.0 as usize],
        }
    }

    /// Human-readable description of an object.
    pub fn describe(&self, module: &Module, id: ObjId) -> String {
        match self.object(id) {
            Obj::Global(g) => format!("global `{}`", module.global(*g).name),
            Obj::Stack(f, i) => {
                let func = module.function(*f);
                let name = match &func.inst(*i).kind {
                    InstKind::Alloca { name, .. } => name.to_string(),
                    _ => format!("{i:?}"),
                };
                format!("local `{name}` in `{}`", func.name)
            }
            Obj::ExternRet(f, i) => {
                let func = module.function(*f);
                let callee = match &func.inst(*i).kind {
                    InstKind::Call { callee: Callee::External(n), .. } => n.as_str(),
                    InstKind::Call { callee: Callee::Local(lf), .. } => {
                        module.function(*lf).name.as_str()
                    }
                    _ => "<extern>",
                };
                format!("memory returned by `{callee}` in `{}`", func.name)
            }
            Obj::Field(parent, s, f) => {
                format!("{}.struct{}.field{}", self.describe(module, *parent), s, f)
            }
            Obj::Unknown => "unknown memory".to_string(),
        }
    }
}

/// Pending constraint: `dst ⊇ contents(o)` for every `o ∈ pts(src)`.
struct ComplexLoad {
    dst: VarKey,
    src: VarKey,
}
/// Pending constraint: `contents(o) ⊇ pts(src)` for every `o ∈ pts(dst_ptr)`.
struct ComplexStore {
    dst_ptr: VarKey,
    src: VarKey,
}

struct Analyzer {
    pt: PointsTo,
    /// Copy edges `(from, to)`: pts(to) ⊇ pts(from), in the order they
    /// were added.
    edges: Vec<(VarKey, VarKey)>,
    /// FieldAddr derivations: (func, result inst, base value, struct id,
    /// field index).
    field_edges: Vec<(FuncId, InstId, Value, u32, u32)>,
    complex_loads: Vec<ComplexLoad>,
    complex_stores: Vec<ComplexStore>,
    /// Pointer values passed to external calls: their pointees escape.
    extern_args: Vec<VarKey>,
}

impl Analyzer {
    fn add_edge(&mut self, from: VarKey, to: VarKey) {
        self.edges.push((from, to));
    }

    fn add_obj(&mut self, var: VarKey, obj: Obj) {
        let id = self.pt.intern(obj);
        self.pt.set_mut(var).insert(id);
    }

    fn global_obj(&self, g: GlobalId) -> ObjId {
        self.pt.global_objs[g.0 as usize]
    }

    /// Copies pts(value) into `dst`.
    fn value_into(&mut self, func: FuncId, value: &Value, dst: VarKey) {
        match value {
            Value::Inst(id) => self.add_edge(VarKey::Inst(func, *id), dst),
            Value::Param(i) => self.add_edge(VarKey::Param(func, *i), dst),
            Value::Global(g) => {
                let o = self.global_obj(*g);
                self.pt.set_mut(dst).insert(o);
            }
            _ => {}
        }
    }

    fn value_key(&self, func: FuncId, v: &Value) -> Option<VarKey> {
        match v {
            Value::Inst(id) => Some(VarKey::Inst(func, *id)),
            Value::Param(i) => Some(VarKey::Param(func, *i)),
            _ => None,
        }
    }

    fn build_constraints(&mut self, module: &Module) {
        // Every global gets an object up front, so `points_to` on a
        // global's address is never empty (scalar globals are store/load
        // targets for the taint analysis even when no pointer constraints
        // mention them).
        for (i, _) in module.globals.iter().enumerate() {
            let o = self.pt.intern(Obj::Global(GlobalId(i as u32)));
            self.pt.global_objs.push(o);
        }
        for fid in module.definitions() {
            let func = module.function(fid);
            for (iid, inst) in func.iter_insts() {
                let this = VarKey::Inst(fid, iid);
                match &inst.kind {
                    InstKind::Alloca { .. } => {
                        self.add_obj(this, Obj::Stack(fid, iid));
                    }
                    InstKind::FieldAddr { base, struct_id, field } => {
                        self.field_edges.push((fid, iid, *base, struct_id.0, *field));
                    }
                    InstKind::ElemAddr { base, .. } => {
                        // Array elements collapse into the base object.
                        self.value_into(fid, base, this);
                    }
                    InstKind::Cast { value, .. } => {
                        if module.types.is_ptr(inst.ty) {
                            self.value_into(fid, value, this);
                        }
                    }
                    InstKind::Load { ptr } => {
                        if module.types.is_ptr(inst.ty) {
                            match self.value_key(fid, ptr) {
                                Some(src) => {
                                    self.complex_loads.push(ComplexLoad { dst: this, src })
                                }
                                None => {
                                    if let Value::Global(g) = ptr {
                                        let o = self.global_obj(*g);
                                        self.add_edge(VarKey::Contents(o), this);
                                    }
                                }
                            }
                        }
                    }
                    InstKind::Store { ptr, value } => {
                        let vt = module.value_type(func, value);
                        if module.types.is_ptr(vt) {
                            match self.value_key(fid, ptr) {
                                Some(dst_ptr) => {
                                    // The stored value may itself be a
                                    // global address: route via a copy into
                                    // a per-store scratch var.
                                    let src = match self.value_key(fid, value) {
                                        Some(k) => k,
                                        None => {
                                            let scratch = VarKey::Inst(fid, iid);
                                            self.value_into(fid, value, scratch);
                                            scratch
                                        }
                                    };
                                    self.complex_stores.push(ComplexStore { dst_ptr, src });
                                }
                                None => {
                                    if let Value::Global(g) = ptr {
                                        let o = self.global_obj(*g);
                                        self.value_into(fid, value, VarKey::Contents(o));
                                    }
                                }
                            }
                        }
                    }
                    InstKind::Phi { incoming } => {
                        for (_, v) in incoming {
                            self.value_into(fid, v, this);
                        }
                    }
                    InstKind::Call { callee, args } => match callee {
                        Callee::Local(target) if module.function(*target).is_definition => {
                            for (i, arg) in args.iter().enumerate() {
                                let at = module.value_type(func, arg);
                                if module.types.is_ptr(at) {
                                    self.value_into(fid, arg, VarKey::Param(*target, i as u32));
                                }
                            }
                            if module.types.is_ptr(inst.ty) {
                                self.add_edge(VarKey::Ret(*target), this);
                            }
                        }
                        _ => {
                            if module.types.is_ptr(inst.ty) {
                                self.add_obj(this, Obj::ExternRet(fid, iid));
                            }
                            for arg in args {
                                let at = module.value_type(func, arg);
                                if module.types.is_ptr(at) {
                                    match self.value_key(fid, arg) {
                                        Some(k) => self.extern_args.push(k),
                                        None => {
                                            if let Value::Global(g) = arg {
                                                let o = self.global_obj(*g);
                                                self.pt.escaped.insert(o);
                                            }
                                        }
                                    }
                                }
                            }
                        }
                    },
                    InstKind::Bin { .. } | InstKind::Cmp { .. } | InstKind::AssertSafe { .. } => {}
                }
            }
            for (_, block) in func.iter_blocks() {
                if let safeflow_ir::Terminator::Ret(Some(v)) = &block.terminator {
                    let vt = module.value_type(func, v);
                    if module.types.is_ptr(vt) {
                        self.value_into(fid, v, VarKey::Ret(fid));
                    }
                }
            }
        }
    }

    fn solve(&mut self) {
        // The constraint edges are fixed before solving; visited in the
        // deterministic `VarKey` order of their sources, and in the order
        // they were added from one source (the sort is stable).
        let mut edges = std::mem::take(&mut self.edges);
        edges.sort_by_key(|&(from, _)| from);
        // Sets copied out of the tables so another set can be written.
        let (mut src, mut add): (Vec<ObjId>, Vec<ObjId>) = (Vec::new(), Vec::new());
        let mut changed = true;
        let mut guard = 0usize;
        while changed {
            changed = false;
            guard += 1;
            if guard > 10_000 {
                break; // defensive: should converge long before this
            }
            // Copy edges.
            for &(from, to) in &edges {
                src.clear();
                src.extend(self.pt.set(from));
                changed |= self.union_into(to, &src);
            }
            // Field derivations.
            for i in 0..self.field_edges.len() {
                let (fid, iid, ref base, sid, field) = self.field_edges[i];
                src.clear();
                match base {
                    Value::Global(g) => src.push(self.global_obj(*g)),
                    _ => src.extend(self.pt.values.get(fid, base)),
                }
                for &b in &src {
                    let fo = if matches!(self.pt.object(b), Obj::Unknown) {
                        b
                    } else {
                        self.pt.intern(Obj::Field(b, sid, field))
                    };
                    changed |= self.pt.values.inst_mut(fid, iid).insert(fo);
                }
            }
            // Complex loads.
            for i in 0..self.complex_loads.len() {
                let (dst, ptr) = (self.complex_loads[i].dst, self.complex_loads[i].src);
                src.clear();
                src.extend(self.pt.set(ptr));
                for &o in &src {
                    add.clear();
                    add.extend(self.pt.contents(o));
                    if self.pt.is_escaped(o) {
                        add.push(self.pt.intern(Obj::Unknown));
                    }
                    changed |= self.union_into(dst, &add);
                }
            }
            // Complex stores.
            for i in 0..self.complex_stores.len() {
                let (dst_ptr, val) = (self.complex_stores[i].dst_ptr, self.complex_stores[i].src);
                src.clear();
                src.extend(self.pt.set(dst_ptr));
                add.clear();
                add.extend(self.pt.set(val));
                for &o in &src {
                    changed |= self.union_into(VarKey::Contents(o), &add);
                }
            }
            // Escape propagation.
            src.clear();
            for &k in &self.extern_args {
                src.extend(self.pt.set(k));
            }
            for &o in &src {
                changed |= self.pt.escaped.insert(o);
            }
            src.clear();
            src.extend(&self.pt.escaped);
            for &o in &src {
                for &c in &self.pt.contents[o.0 as usize] {
                    changed |= self.pt.escaped.insert(c);
                }
            }
        }
    }

    /// Adds `objs` to `key`'s set; whether it grew. Leaves an unwritten
    /// slot unwritten when `objs` is empty.
    fn union_into(&mut self, key: VarKey, objs: &[ObjId]) -> bool {
        if objs.is_empty() {
            return false;
        }
        let set = self.pt.set_mut(key);
        let before = set.len();
        set.extend(objs.iter().copied());
        set.len() != before
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use safeflow_ir::build_module;
    use safeflow_syntax::diag::Diagnostics;
    use safeflow_syntax::parse_source;

    fn analyze(src: &str) -> (Module, PointsTo) {
        let pr = parse_source("t.c", src);
        assert!(!pr.diags.has_errors(), "{:?}", pr.diags);
        let mut diags = Diagnostics::new();
        let m = build_module(&pr.unit, &mut diags);
        assert!(!diags.has_errors(), "{diags:?}");
        let pt = PointsTo::analyze(&m);
        (m, pt)
    }

    #[test]
    fn address_of_global_points_to_global() {
        let (m, pt) = analyze("int g; int *take(void) { return &g; }");
        let fid = m.function_by_name("take".into()).unwrap();
        let ret = pt.return_points_to(fid);
        assert_eq!(ret.len(), 1);
        let d = pt.describe(&m, *ret.iter().next().unwrap());
        assert!(d.contains("global `g`"), "{d}");
    }

    #[test]
    fn pointer_flows_through_call() {
        let (m, pt) =
            analyze("int g;\nint *id(int *p) { return p; }\nint *f(void) { return id(&g); }");
        let fid = m.function_by_name("f".into()).unwrap();
        let ret = pt.return_points_to(fid);
        assert!(ret.iter().any(|&o| pt.describe(&m, o).contains("global `g`")));
    }

    #[test]
    fn extern_call_returns_fresh_object() {
        let (m, pt) = analyze(
            "void *shmat(int id, void *a, int f);\nvoid *f(void) { return shmat(0, 0, 0); }",
        );
        let fid = m.function_by_name("f".into()).unwrap();
        let ret = pt.return_points_to(fid);
        assert_eq!(ret.len(), 1);
        let d = pt.describe(&m, *ret.iter().next().unwrap());
        assert!(d.contains("shmat"), "{d}");
    }

    #[test]
    fn global_pointer_contents_tracked() {
        // Fig. 2 pattern: a global pointer initialized from shmat.
        let (m, pt) = analyze(
            r#"
            typedef struct { float c; } D;
            D *feedback;
            void *shmat(int id, void *a, int f);
            void init(void) { feedback = (D *) shmat(0, 0, 0); }
            float use(void) { return feedback->c; }
            "#,
        );
        let use_fid = m.function_by_name("use".into()).unwrap();
        let f = m.function(use_fid);
        let mut found = false;
        for (_, inst) in f.iter_insts() {
            if let InstKind::FieldAddr { base, .. } = &inst.kind {
                for o in pt.points_to_ref(use_fid, base).iter() {
                    if pt.describe(&m, o).contains("shmat") {
                        found = true;
                    }
                }
            }
        }
        assert!(found, "feedback must point to the shmat segment");
    }

    #[test]
    fn field_sensitivity_distinguishes_fields() {
        let (m, pt) = analyze(
            r#"
            typedef struct { int *a; int *b; } P;
            int x; int y;
            P p;
            void setup(void) { p.a = &x; p.b = &y; }
            int *geta(void) { return p.a; }
            "#,
        );
        let fid = m.function_by_name("geta".into()).unwrap();
        let ret = pt.return_points_to(fid);
        let descs: Vec<String> = ret.iter().map(|&o| pt.describe(&m, o)).collect();
        assert!(descs.iter().any(|d| d.contains("global `x`")), "{descs:?}");
        assert!(
            !descs.iter().any(|d| d.contains("global `y`")),
            "field-sensitive: p.a must not alias p.b: {descs:?}"
        );
    }

    #[test]
    fn array_elements_collapse() {
        let (m, pt) = analyze(
            "int g;\nint *arr[4];\nvoid set(int i) { arr[i] = &g; }\nint *get(int j) { return arr[j]; }",
        );
        let fid = m.function_by_name("get".into()).unwrap();
        let ret = pt.return_points_to(fid);
        assert!(ret.iter().any(|&o| pt.describe(&m, o).contains("global `g`")));
    }

    #[test]
    fn escaped_pointer_contents_unknown() {
        let (m, pt) =
            analyze("void mystery(int **p);\nint *f(void) { int *q; mystery(&q); return q; }");
        let fid = m.function_by_name("f".into()).unwrap();
        let ret = pt.return_points_to(fid);
        assert!(
            ret.iter().any(|&o| matches!(pt.object(o), Obj::Unknown)),
            "contents written by an external callee must be Unknown: {:?}",
            ret.iter().map(|&o| pt.describe(&m, o)).collect::<Vec<_>>()
        );
    }

    #[test]
    fn locals_are_distinct_objects() {
        let (m, pt) = analyze("void g(int *p, int *q);\nvoid f(void) { int a; int b; g(&a, &b); }");
        let fid = m.function_by_name("f".into()).unwrap();
        let stacks: Vec<ObjId> = pt
            .objects()
            .filter(|(_, o)| matches!(o, Obj::Stack(ff, _) if *ff == fid))
            .map(|(id, _)| id)
            .collect();
        assert_eq!(stacks.len(), 2);
    }

    #[test]
    fn base_of_strips_fields() {
        let (m, pt) = analyze(
            r#"
            typedef struct { int *a; } P;
            P p; int x;
            void s(void) { p.a = &x; }
            "#,
        );
        let field_obj = pt
            .objects()
            .find(|(_, o)| matches!(o, Obj::Field(..)))
            .map(|(id, _)| id)
            .expect("field object exists");
        let base = pt.base_of(field_obj);
        assert!(pt.describe(&m, base).contains("global `p`"));
    }
}
