//! Phase 3's shared reading of annotations, configuration and value-flow
//! sites: the rules both value-flow engines ([`crate::taint`] and
//! [`crate::summary`]) apply to their inputs before their own algorithms
//! take over.
//!
//! * A function's **own scope** — what its `assume(core(...))` and
//!   `assume(declassify(...))` annotations monitor — and the init-check
//!   notes for annotations that cannot take effect.
//! * **Pointer-name resolution** for those annotations, in one order: the
//!   region global named `p`; else the regions a global named `p` holds, if
//!   any; else the regions of a parameter named `p`.
//! * The **region reads** of a load under a scope
//!   ([`LabelTable::region_reads`]), and how a caller's scope narrows a
//!   read inlined from a callee ([`narrow`]).
//! * The §3.4.3 **message-passing helpers**: non-core socket globals and
//!   loads through locally assumed (received-buffer) parameters.
//!
//! What a critical call and a receive call mean at a call site, with each
//! critical argument's clearance under the compiled policy, is read once
//! too, on [`crate::config::CallNames`].
//!
//! The two engines still propagate value flow independently (context
//! descent vs. summary inlining); only how they read annotations,
//! configuration and sites lives here, so findings and report text derived
//! from them (notes, labels) cannot drift between them.

use crate::policy::LabelTable;
use crate::regions::{RegionId, RegionMap};
use crate::shmptr::ShmPointers;
use safeflow_ir::{FuncId, Function, GlobalId, InstKind, Module, Value};
use safeflow_syntax::annot::Annotation;
use safeflow_util::Symbol;
use std::collections::{BTreeMap, BTreeSet, HashMap};

/// A declassification scope: region → the label mask reads of it carry
/// inside the scope (`0` = fully monitored). Regions absent from the map
/// keep their declared label.
pub(crate) type Scope = BTreeMap<RegionId, u64>;

/// One region a load reads.
pub(crate) struct RegionRead {
    pub(crate) region: RegionId,
    /// The label mask the read carries; never ⊥.
    pub(crate) mask: u64,
    /// The scope's mask for the region, when the scope names it (`mask` is
    /// then that mask); `None` when the read keeps its declared label.
    pub(crate) relabel: Option<u64>,
}

impl LabelTable {
    /// The regions a load through `ptr` in `fid` reads under `scope`, each
    /// with the mask it reads at: a scope entry `m` reads at `m`, a region
    /// the scope does not name at its declared label. Core regions and
    /// reads at ⊥ are skipped. `None` when `ptr` derives from a parameter
    /// the function's own annotations assume: such a load is monitored
    /// (§3.4.3's received-buffer form) and reads nothing, neither a region
    /// nor, in the engines, a memory object.
    pub(crate) fn region_reads<'s>(
        &'s self,
        regions: &'s RegionMap,
        shm: &'s ShmPointers,
        func: &Function,
        fid: FuncId,
        ptr: &Value,
        scope: &'s Scope,
    ) -> Option<impl Iterator<Item = RegionRead> + 's> {
        if derives_from_assumed_param(func, ptr) {
            return None;
        }
        Some(shm.regions_of_ref(fid, ptr).iter().filter_map(move |fact| {
            let region = fact.region;
            let declared = self.region_source_mask(region.0, regions.region(region).noncore);
            let relabel = scope.get(&region).copied();
            let mask = relabel.unwrap_or(declared);
            (declared != 0 && mask != 0).then_some(RegionRead { region, mask, relabel })
        }))
    }
}

/// A read inlined from a callee at `relabel` (`None`: its declared label),
/// seen through the caller's `scope`: a scope entry `m` narrows it to
/// `relabel & m`, or to `m` when it kept its declared label. `None` when
/// the read is monitored away (narrowed to ⊥).
pub(crate) fn narrow(scope: &Scope, region: RegionId, relabel: Option<u64>) -> Option<Option<u64>> {
    let Some(&m) = scope.get(&region) else { return Some(relabel) };
    let mask = relabel.map_or(m, |x| x & m);
    (mask != 0).then_some(Some(mask))
}

/// The own scope of every function the engines analyze (definitions with
/// a body, `shminit` functions excepted), plus the init-check notes for
/// annotations that name nothing, name an unknown label, are not licensed
/// by the policy, or do not span their whole region.
///
/// Multiple annotations on one region meet (`&`): monitoring only ever
/// narrows.
pub(crate) fn own_scopes(
    module: &Module,
    regions: &RegionMap,
    shm: &ShmPointers,
    table: &LabelTable,
) -> (HashMap<FuncId, Scope>, Vec<String>) {
    let mut scopes = HashMap::new();
    let mut notes = Vec::new();
    for fid in module.definitions() {
        let func = module.function(fid);
        if func.is_shminit() || func.blocks.is_empty() {
            continue;
        }
        scopes.insert(fid, own_scope(module, regions, shm, table, fid, &mut notes));
    }
    (scopes, notes)
}

fn own_scope(
    module: &Module,
    regions: &RegionMap,
    shm: &ShmPointers,
    table: &LabelTable,
    fid: FuncId,
    notes: &mut Vec<String>,
) -> Scope {
    let mut scope = Scope::new();
    let func = module.function(fid);
    for ann in &func.annotations {
        let (fact, ptr, offset, size, to) = match ann {
            Annotation::AssumeCore { ptr, offset, size, .. } => ("core", ptr, offset, size, None),
            Annotation::AssumeDeclassify { ptr, offset, size, to, .. } => {
                ("declassify", ptr, offset, size, Some(to.as_str()))
            }
            _ => continue,
        };
        let rids = resolve_pointer_name(module, regions, shm, fid, *ptr);
        if rids.is_empty() {
            notes.push(format!(
                "assume({fact}({ptr}, ...)) in `{}` names no known shared-memory pointer; ignored",
                func.name
            ));
            continue;
        }
        let to_mask = match to {
            None => 0,
            Some(name) => match table.mask_of(name) {
                Some(m) => m,
                None => {
                    notes.push(format!(
                        "assume(declassify({ptr}, ..., {name})) in `{}` names unknown label `{name}`; ignored",
                        func.name
                    ));
                    continue;
                }
            },
        };
        // The extent must span the whole region, else the annotation is
        // ineffective (§3.1: "Offset and size values should span an entire
        // array ... otherwise, the annotation becomes ineffective").
        let off = crate::regions::eval_ann_expr(module, offset);
        let sz = crate::regions::eval_ann_expr(module, size);
        for rid in rids {
            let region = regions.region(rid);
            match (off, sz) {
                (Some(0), Some(s)) if s as u64 == region.size => {
                    // Declassifying a *labeled* region needs a declared
                    // declassifier pair; the paper's `assume(core(...))` on
                    // an unlabeled region is always allowed.
                    let from = table.region_source_mask(rid.0, region.noncore);
                    let licensed = region.label.is_none() && to_mask == 0
                        || table.may_declassify(from, to_mask);
                    if !licensed {
                        notes.push(format!(
                            "assume({fact}({ptr}, ...)) in `{}`: policy has no declassifier({}, {}); annotation is ineffective",
                            func.name,
                            table.name_of(from),
                            table.name_of(to_mask)
                        ));
                        continue;
                    }
                    *scope.entry(rid).or_insert(to_mask) &= to_mask;
                }
                _ => notes.push(format!(
                    "assume({fact}({ptr}, ...)) in `{}` does not span the whole region `{}` ({} bytes); annotation is ineffective",
                    func.name, region.name, region.size
                )),
            }
        }
    }
    scope
}

/// `inherited` narrowed by `own`: a region in both carries the meet (`&`)
/// of the two masks. This is how a caller's scope applies recursively to
/// its callees (§3.1).
pub(crate) fn meet(inherited: &Scope, own: Option<&Scope>) -> Scope {
    let mut out = inherited.clone();
    for (&rid, &mask) in own.into_iter().flatten() {
        *out.entry(rid).or_insert(mask) &= mask;
    }
    out
}

/// The regions an annotation's pointer name `name` refers to inside `fid`:
/// the region global `name`; else the regions a global `name` holds, if it
/// holds any; else the regions of the parameter `name`. Empty when the name
/// resolves to no region.
fn resolve_pointer_name(
    module: &Module,
    regions: &RegionMap,
    shm: &ShmPointers,
    fid: FuncId,
    name: Symbol,
) -> BTreeSet<RegionId> {
    if let Some(g) = module.global_by_name(name) {
        if let Some(r) = regions.by_global(g) {
            return std::iter::once(r).collect();
        }
        let held: BTreeSet<RegionId> = shm.global_regions(g).iter().map(|p| p.region).collect();
        if !held.is_empty() {
            return held;
        }
    }
    let func = module.function(fid);
    match func.params.iter().position(|p| p.name == name) {
        Some(i) => {
            shm.regions_of_ref(fid, &Value::Param(i as u32)).iter().map(|p| p.region).collect()
        }
        None => BTreeSet::new(),
    }
}

/// Whether a pointer value derives (through field/element/cast chains)
/// from a parameter the function's own `assume(core(p, ...))` or
/// `assume(declassify(p, ...))` names — §3.4.3's received-buffer
/// monitoring form: loads through it are monitored in this function only.
fn derives_from_assumed_param(func: &Function, ptr: &Value) -> bool {
    let mut v = *ptr;
    for _ in 0..=16 {
        match v {
            Value::Param(i) => {
                let name = func.params[i as usize].name;
                return func.annotations.iter().any(|a| match a {
                    Annotation::AssumeCore { ptr, .. }
                    | Annotation::AssumeDeclassify { ptr, .. } => *ptr == name,
                    _ => false,
                });
            }
            Value::Inst(id) => match func.inst(id).kind {
                InstKind::FieldAddr { base, .. }
                | InstKind::ElemAddr { base, .. }
                | InstKind::Cast { value: base, .. } => v = base,
                _ => return false,
            },
            _ => return false,
        }
    }
    false
}

/// Globals annotated `noncore(...)` that are not shm regions: socket /
/// descriptor variables for the §3.4.3 message-passing extension.
pub(crate) fn find_noncore_sockets(module: &Module, regions: &RegionMap) -> BTreeSet<GlobalId> {
    let mut out = BTreeSet::new();
    for fid in module.definitions() {
        for ann in &module.function(fid).annotations {
            if let Annotation::Noncore { target, .. } = ann {
                if let Some(g) = module.global_by_name(*target) {
                    if regions.by_global(g).is_none() {
                        out.insert(g);
                    }
                }
            }
        }
    }
    out
}

/// Whether a receive call's socket argument (`None` when the call does not
/// pass it) reads from a `noncore(...)`-annotated descriptor global.
pub(crate) fn socket_is_noncore(
    func: &Function,
    sock: Option<&Value>,
    noncore_sockets: &BTreeSet<GlobalId>,
) -> bool {
    match sock {
        Some(Value::Inst(id)) => match &func.inst(*id).kind {
            InstKind::Load { ptr: Value::Global(g) } => noncore_sockets.contains(g),
            InstKind::Cast { value, .. } => socket_is_noncore(func, Some(value), noncore_sockets),
            _ => false,
        },
        _ => false,
    }
}
