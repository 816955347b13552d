//! Phase 1: interprocedural identification of pointers to shared memory
//! (paper §3.3, first phase).
//!
//! Starting from the region globals declared by `shminit` post-conditions,
//! region-pointer facts propagate through SSA edges, loads/stores of
//! globals, call arguments and return values — the paper's bottom-up +
//! top-down passes over call-graph SCCs, realized here as a module-wide
//! fixpoint (equivalent result; the SCC orders are an evaluation-order
//! optimization).
//!
//! Each fact is a `(region, constant element offset)` pair; the offset
//! survives constant pointer arithmetic so the array-bounds phase can
//! reason about derived pointers, and degrades to `None` otherwise.

use crate::regions::{RegionId, RegionMap};
use safeflow_ir::{
    Callee, FuncId, FuncTable, GlobalId, InstId, InstKind, Module, Terminator, Value,
};
use std::collections::BTreeSet;

/// A region-pointer fact: which region, and at which constant *element*
/// offset from the region base (when known).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct RegionPtr {
    /// The pointed-to region.
    pub region: RegionId,
    /// Constant element offset from the region base, if statically known.
    pub offset: Option<i64>,
}

impl RegionPtr {
    fn base(region: RegionId) -> RegionPtr {
        RegionPtr { region, offset: Some(0) }
    }

    fn shifted(self, delta: Option<i64>) -> RegionPtr {
        RegionPtr {
            region: self.region,
            offset: match (self.offset, delta) {
                (Some(a), Some(b)) => Some(a + b),
                _ => None,
            },
        }
    }

    fn unknown_offset(self) -> RegionPtr {
        RegionPtr { region: self.region, offset: None }
    }
}

/// Where a region-pointer fact can attach.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Key {
    Inst(FuncId, InstId),
    Param(FuncId, u32),
    Ret(FuncId),
    Global(GlobalId),
}

static NONE: BTreeSet<RegionPtr> = BTreeSet::new();

/// Results of phase 1.
///
/// Parameter and instruction-result facts sit in a dense
/// [`FuncTable`]; return facts per [`FuncId`] and global-contents facts
/// per [`GlobalId`] in plain vectors. Every lookup is an index, and a value
/// without facts reads as the shared empty set.
#[derive(Debug, Default)]
pub struct ShmPointers {
    values: FuncTable<BTreeSet<RegionPtr>>,
    rets: Vec<BTreeSet<RegionPtr>>,
    globals: Vec<BTreeSet<RegionPtr>>,
    /// Stores of region pointers into memory that is not a named global
    /// variable — collected here for the P2 check in phase 2:
    /// `(function, store inst, offending pointers)`.
    pub escaping_stores: Vec<(FuncId, InstId)>,
}

impl ShmPointers {
    fn new(module: &Module) -> ShmPointers {
        ShmPointers {
            values: FuncTable::new(module),
            rets: vec![BTreeSet::new(); module.functions.len()],
            globals: vec![BTreeSet::new(); module.globals.len()],
            escaping_stores: Vec::new(),
        }
    }

    /// Region pointers held by `value` inside `func`.
    pub fn regions_of_ref(&self, func: FuncId, value: &Value) -> &BTreeSet<RegionPtr> {
        // The *address* of a region global is not itself a region pointer;
        // its contents are.
        self.values.get(func, value)
    }

    /// Region pointers stored in global `g`.
    pub fn global_regions(&self, g: GlobalId) -> &BTreeSet<RegionPtr> {
        self.globals.get(g.0 as usize).unwrap_or(&NONE)
    }

    /// Region pointers returned by `f`.
    pub fn return_regions(&self, f: FuncId) -> &BTreeSet<RegionPtr> {
        self.rets.get(f.0 as usize).unwrap_or(&NONE)
    }

    /// Whether `value` may point into shared memory.
    pub fn is_shm_ptr(&self, func: FuncId, value: &Value) -> bool {
        !self.regions_of_ref(func, value).is_empty()
    }

    /// Adds `ptrs` to `k`'s facts; whether the set changed.
    fn extend(&mut self, k: Key, ptrs: &[RegionPtr]) -> bool {
        if ptrs.is_empty() {
            return false;
        }
        let set = match k {
            Key::Inst(f, i) => self.values.inst_mut(f, i),
            Key::Param(f, i) => self.values.param_mut(f, i),
            Key::Ret(f) => &mut self.rets[f.0 as usize],
            Key::Global(g) => &mut self.globals[g.0 as usize],
        };
        let before = set.len();
        set.extend(ptrs.iter().copied());
        if set.len() == before {
            // Nothing new, and the set was widened when it last grew.
            return false;
        }
        // Collapse: keep at most one unknown-offset fact per region, and if
        // a region accumulates many distinct offsets, widen to unknown to
        // guarantee termination.
        while let Some(r) = crowded_region(set) {
            set.retain(|p| p.region != r);
            set.insert(RegionPtr { region: r, offset: None });
        }
        set.len() != before
    }
}

/// The first region with more than 8 facts in `set`. The set orders its
/// facts by region first, so each region's facts are adjacent.
fn crowded_region(set: &BTreeSet<RegionPtr>) -> Option<RegionId> {
    let (mut region, mut run) = (None, 0);
    for p in set {
        run = if region == Some(p.region) { run + 1 } else { 1 };
        region = Some(p.region);
        if run > 8 {
            return region;
        }
    }
    None
}

/// Runs phase 1 over the whole module.
pub fn identify_shm_pointers(module: &Module, regions: &RegionMap) -> ShmPointers {
    let mut sp = ShmPointers::new(module);
    // Seed: each region global holds a base pointer to its region.
    for r in regions.iter() {
        sp.extend(Key::Global(r.global), &[RegionPtr::base(r.id)]);
    }

    // The facts being propagated, copied out of the table they are read
    // from so the one they flow into can be written.
    let mut facts: Vec<RegionPtr> = Vec::new();
    let defs: Vec<FuncId> = module.definitions().collect();
    let mut changed = true;
    let mut rounds = 0;
    while changed {
        changed = false;
        rounds += 1;
        if rounds > 1000 {
            break; // defensive; widening above should prevent this
        }
        for &fid in &defs {
            let func = module.function(fid);
            // `shminit` bodies define the region layout (handled by the
            // region extractor); their intra-segment pointer arithmetic
            // must not leak cross-region aliases into the analysis.
            if func.is_shminit() {
                continue;
            }
            for (iid, inst) in func.iter_insts() {
                let this = Key::Inst(fid, iid);
                facts.clear();
                match &inst.kind {
                    InstKind::Load { ptr } => match ptr {
                        Value::Global(g) => {
                            facts.extend(sp.global_regions(*g));
                            changed |= sp.extend(this, &facts);
                        }
                        Value::Inst(pid)
                            if matches!(func.inst(*pid).kind, InstKind::Alloca { .. }) =>
                        {
                            // Address-taken local variable slot: facts were
                            // attached to the alloca by the Store case.
                            facts.extend(sp.values.inst(fid, *pid));
                            changed |= sp.extend(this, &facts);
                        }
                        _ => {
                            // A load through a region pointer yields shm
                            // *data*; if that data is itself a pointer it is
                            // NOT a region pointer (storing pointers in
                            // shared memory is a P2 concern, not a region
                            // fact).
                        }
                    },
                    InstKind::Store { ptr, value } => {
                        facts.extend(sp.regions_of_ref(fid, value));
                        if facts.is_empty() {
                            continue;
                        }
                        match ptr {
                            Value::Global(g) => changed |= sp.extend(Key::Global(*g), &facts),
                            Value::Inst(pid)
                                if matches!(func.inst(*pid).kind, InstKind::Alloca { .. }) =>
                            {
                                // Address-taken local holding a shm pointer:
                                // still a named variable; propagate through
                                // the slot by attaching facts to the alloca's
                                // loads via the alloca key itself.
                                changed |= sp.extend(Key::Inst(fid, *pid), &facts);
                            }
                            _ => {
                                // Region pointer stored into arbitrary
                                // memory: P2 violation candidate.
                                if !sp.escaping_stores.contains(&(fid, iid)) {
                                    sp.escaping_stores.push((fid, iid));
                                    changed = true;
                                }
                            }
                        }
                    }
                    InstKind::ElemAddr { base, index } => {
                        let delta = index.as_const_int();
                        facts.extend(sp.regions_of_ref(fid, base).iter().map(|p| p.shifted(delta)));
                        changed |= sp.extend(this, &facts);
                    }
                    InstKind::FieldAddr { base, .. } => {
                        // A field pointer stays inside the region; the
                        // element offset no longer tracks whole elements.
                        facts.extend(sp.regions_of_ref(fid, base).iter().map(|&p| {
                            if p.offset == Some(0) {
                                p
                            } else {
                                p.unknown_offset()
                            }
                        }));
                        changed |= sp.extend(this, &facts);
                    }
                    InstKind::Cast { value, .. } if module.types.is_ptr(inst.ty) => {
                        facts.extend(sp.regions_of_ref(fid, value));
                        changed |= sp.extend(this, &facts);
                    }
                    InstKind::Phi { incoming } => {
                        for (_, v) in incoming {
                            facts.extend(sp.regions_of_ref(fid, v));
                        }
                        changed |= sp.extend(this, &facts);
                    }
                    InstKind::Call { callee: Callee::Local(target), args }
                        if module.function(*target).is_definition =>
                    {
                        for (i, arg) in args.iter().enumerate() {
                            facts.clear();
                            facts.extend(sp.regions_of_ref(fid, arg));
                            changed |= sp.extend(Key::Param(*target, i as u32), &facts);
                        }
                        facts.clear();
                        facts.extend(sp.return_regions(*target));
                        changed |= sp.extend(this, &facts);
                    }
                    _ => {}
                }
            }
            for (_, block) in func.iter_blocks() {
                if let Terminator::Ret(Some(v)) = &block.terminator {
                    facts.clear();
                    facts.extend(sp.regions_of_ref(fid, v));
                    changed |= sp.extend(Key::Ret(fid), &facts);
                }
            }
        }
    }
    sp
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::regions::extract_regions;
    use safeflow_ir::build_module;
    use safeflow_syntax::diag::Diagnostics;
    use safeflow_syntax::parse_source;

    fn setup(src: &str) -> (Module, RegionMap, ShmPointers) {
        let pr = parse_source("t.c", src);
        assert!(!pr.diags.has_errors(), "{:?}", pr.diags);
        let mut diags = Diagnostics::new();
        let m = build_module(&pr.unit, &mut diags);
        assert!(!diags.has_errors(), "{diags:?}");
        let regions = extract_regions(&m, &mut diags);
        let sp = identify_shm_pointers(&m, &regions);
        (m, regions, sp)
    }

    const PRELUDE: &str = r#"
        typedef struct { float control; float arr[4]; } SHMData;
        SHMData *feedback;
        SHMData *noncoreCtrl;
        void *shmat(int shmid, void *addr, int flags);
        void initComm(void)
        /** SafeFlow Annotation shminit */
        {
            feedback = (SHMData *) shmat(0, 0, 0);
            noncoreCtrl = feedback + 1;
            /** SafeFlow Annotation
                assume(shmvar(feedback, sizeof(SHMData)))
                assume(shmvar(noncoreCtrl, sizeof(SHMData)))
                assume(noncore(noncoreCtrl))
            */
        }
    "#;

    #[test]
    fn load_of_region_global_is_region_ptr() {
        let (m, regions, sp) =
            setup(&format!("{PRELUDE}\nfloat use(void) {{ return noncoreCtrl->control; }}"));
        let fid = m.function_by_name("use".into()).unwrap();
        let f = m.function(fid);
        let nc = regions.iter().find(|r| r.name == "noncoreCtrl").unwrap();
        // The load of the global yields a pointer to region noncoreCtrl.
        let mut found = false;
        for (iid, inst) in f.iter_insts() {
            if matches!(inst.kind, InstKind::Load { ptr: Value::Global(_) }) {
                let facts = sp.regions_of_ref(fid, &Value::Inst(iid));
                if facts.iter().any(|p| p.region == nc.id && p.offset == Some(0)) {
                    found = true;
                }
            }
        }
        assert!(found);
    }

    #[test]
    fn propagation_through_args_and_returns() {
        let (m, regions, sp) = setup(&format!(
            r#"{PRELUDE}
            SHMData *pick(SHMData *p) {{ return p; }}
            float use(void) {{
                SHMData *q = pick(noncoreCtrl);
                return q->control;
            }}
            "#
        ));
        let pick = m.function_by_name("pick".into()).unwrap();
        let nc = regions.iter().find(|r| r.name == "noncoreCtrl").unwrap();
        // pick's param and return both carry the region.
        assert!(sp.regions_of_ref(pick, &Value::Param(0)).iter().any(|p| p.region == nc.id));
        assert!(sp.return_regions(pick).iter().any(|p| p.region == nc.id));
    }

    #[test]
    fn pointer_arithmetic_tracks_offsets() {
        let (m, regions, sp) = setup(&format!(
            "{PRELUDE}\nfloat use(void) {{ SHMData *p = feedback + 1; return p->control; }}"
        ));
        let fid = m.function_by_name("use".into()).unwrap();
        let f = m.function(fid);
        let fb = regions.iter().find(|r| r.name == "feedback").unwrap();
        let mut found = false;
        for (iid, inst) in f.iter_insts() {
            if matches!(inst.kind, InstKind::ElemAddr { .. }) {
                for p in sp.regions_of_ref(fid, &Value::Inst(iid)) {
                    if p.region == fb.id && p.offset == Some(1) {
                        found = true;
                    }
                }
            }
        }
        assert!(found, "feedback+1 should be region feedback at element offset 1");
    }

    #[test]
    fn escaping_store_recorded_for_p2() {
        let (m, _, sp) = setup(&format!(
            r#"{PRELUDE}
            typedef struct {{ SHMData *stash; }} Holder;
            Holder h;
            void bad(void) {{ h.stash = noncoreCtrl; }}
            "#
        ));
        assert_eq!(sp.escaping_stores.len(), 1);
        let (fid, _) = sp.escaping_stores[0];
        assert_eq!(m.function(fid).name, "bad");
    }

    #[test]
    fn store_to_plain_global_is_allowed() {
        let (m, regions, sp) = setup(&format!(
            r#"{PRELUDE}
            SHMData *alias;
            void ok(void) {{ alias = noncoreCtrl; }}
            float use(void) {{ return alias->control; }}
            "#
        ));
        assert!(sp.escaping_stores.is_empty());
        let alias_g = m.global_by_name("alias".into()).unwrap();
        let nc = regions.iter().find(|r| r.name == "noncoreCtrl").unwrap();
        assert!(sp.global_regions(alias_g).iter().any(|p| p.region == nc.id));
    }

    #[test]
    fn more_than_eight_offsets_widen_to_an_unknown_offset() {
        let mut sp = ShmPointers::default();
        let (f, i) = (FuncId(0), InstId(0));
        let at = |offset| RegionPtr { region: RegionId(0), offset };
        assert!(!sp.extend(Key::Inst(f, i), &[]), "no facts, no change");
        let eight: Vec<RegionPtr> = (0..8).map(|o| at(Some(o))).collect();
        assert!(sp.extend(Key::Inst(f, i), &eight));
        assert!(!sp.extend(Key::Inst(f, i), &eight[..3]), "nothing new, no change");
        assert_eq!(sp.values.inst(f, i).len(), 8);
        assert!(sp.extend(Key::Inst(f, i), &[at(Some(8))]));
        assert_eq!(sp.values.inst(f, i), &BTreeSet::from([at(None)]));
    }

    #[test]
    fn non_shm_pointers_have_no_facts() {
        let (m, _, sp) = setup(&format!("{PRELUDE}\nint local_only(int *p) {{ return *p; }}"));
        let fid = m.function_by_name("local_only".into()).unwrap();
        assert!(!sp.is_shm_ptr(fid, &Value::Param(0)));
    }
}
