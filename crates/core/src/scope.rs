//! Phase 3's shared reading of annotations and configuration: the rules
//! both value-flow engines ([`crate::taint`] and [`crate::summary`]) apply
//! to their inputs before their own algorithms take over.
//!
//! * A function's **own scope** — what its `assume(core(...))` and
//!   `assume(declassify(...))` annotations monitor — and the init-check
//!   notes for annotations that cannot take effect.
//! * **Pointer-name resolution** for those annotations, in one order: the
//!   region global named `p`; else the regions a global named `p` holds, if
//!   any; else the regions of a parameter named `p`.
//! * The §3.4.3 **message-passing helpers**: non-core socket globals and
//!   loads through locally assumed (received-buffer) parameters.
//! * The **finding label** and **critical-call clearance** of the compiled
//!   policy.
//!
//! The two engines still compute value flow independently; only how they
//! read annotations and configuration lives here, so report text derived
//! from it (notes, labels) cannot drift between them.

use crate::config::CriticalCall;
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

/// Parameters named by the function's own `assume(core(p, ...))` or
/// `assume(declassify(p, ...))` — §3.4.3's received-buffer monitoring form:
/// loads through them are monitored in this function only.
pub(crate) fn assumed_params(func: &Function) -> BTreeSet<u32> {
    func.annotations
        .iter()
        .filter_map(|a| match a {
            Annotation::AssumeCore { ptr, .. } | Annotation::AssumeDeclassify { ptr, .. } => {
                func.params.iter().position(|p| p.name == *ptr).map(|i| i as u32)
            }
            _ => None,
        })
        .collect()
}

/// Whether a pointer value derives (through field/element/cast chains)
/// from one of the [`assumed_params`].
pub(crate) fn derives_from_assumed_param(
    func: &Function,
    v: &Value,
    assumed: &BTreeSet<u32>,
    depth: usize,
) -> bool {
    if depth > 16 {
        return false;
    }
    match v {
        Value::Param(i) => assumed.contains(i),
        Value::Inst(id) => match &func.inst(*id).kind {
            InstKind::FieldAddr { base, .. }
            | InstKind::ElemAddr { base, .. }
            | InstKind::Cast { value: base, .. } => {
                derives_from_assumed_param(func, base, assumed, depth + 1)
            }
            _ => false,
        },
        _ => false,
    }
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

/// Whether a socket argument reads from a `noncore(...)`-annotated
/// descriptor global.
pub(crate) fn socket_is_noncore(
    func: &Function,
    sock: &Value,
    noncore_sockets: &BTreeSet<GlobalId>,
) -> bool {
    match sock {
        Value::Inst(id) => match &func.inst(*id).kind {
            InstKind::Load { ptr: Value::Global(g) } => noncore_sockets.contains(g),
            InstKind::Cast { value, .. } => socket_is_noncore(func, value, noncore_sockets),
            _ => false,
        },
        _ => false,
    }
}

impl LabelTable {
    /// The clearance mask of a critical call's argument: flows at or below
    /// it may reach the call. `trusted` (0) unless the config names a
    /// declared label; unknown names resolve to `trusted`, the most
    /// conservative clearance, and are reported when the policy compiles.
    pub(crate) fn clearance(&self, call: &CriticalCall) -> u64 {
        call.clearance.as_deref().and_then(|n| self.mask_of(n)).unwrap_or(0)
    }
}
