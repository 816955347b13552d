//! Shared-memory region model (paper §3.2.1).
//!
//! `shminit`-annotated functions declare the program's shared-memory
//! layout: each `assume(shmvar(p, size))` post-condition mints a **region**
//! — `size` bytes reachable through the pointer variable `p` — and
//! `assume(noncore(p))` marks a region writable by non-core components.
//!
//! A small abstract interpreter runs over each `shminit` body to recover
//! the constant byte offset of each region pointer within its segment
//! (e.g. `noncoreCtrl = feedback + 1` in Figure 2/3). Those offsets feed
//! the static equivalent of the paper's `InitCheck`: regions bound to the
//! same segment must not overlap, and must fit in the segment when its
//! size is a known constant.

use safeflow_ir::{BinOp, FuncId, GlobalId, InstId, InstKind, Module, Terminator, Value};
use safeflow_syntax::annot::{AnnExpr, Annotation};
use safeflow_syntax::diag::Diagnostics;
use safeflow_syntax::span::Span;
use safeflow_util::Symbol;
use std::collections::HashMap;

/// Identifier of a shared-memory region.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct RegionId(pub u32);

/// One shared-memory region.
#[derive(Debug, Clone)]
pub struct Region {
    /// Region id.
    pub id: RegionId,
    /// The pointer variable the `shmvar` annotation names.
    pub name: Symbol,
    /// The global pointer variable holding the region's base.
    pub global: GlobalId,
    /// Total size in bytes.
    pub size: u64,
    /// Size of one element (pointee type of the pointer variable).
    pub elem_size: u64,
    /// Number of elements (`size / elem_size`, at least 1).
    pub len: u64,
    /// Whether a non-core component may write this region.
    pub noncore: bool,
    /// Declared channel label, when the region was minted by a
    /// `channel(ptr, size, label)` fact (label-lattice policies).
    /// Unlabeled non-core regions carry the implicit `untrusted` label.
    pub label: Option<String>,
    /// The `shminit` function that declared it.
    pub init_fn: FuncId,
    /// Shared-memory segment identity: the attach call-site whose result
    /// this region's pointer was derived from, when the initializer was
    /// interpretable.
    pub segment: Option<(FuncId, InstId)>,
    /// Constant byte offset within the segment, when interpretable.
    pub offset: Option<i64>,
    /// Annotation location.
    pub span: Span,
}

/// All regions of a module plus lookup tables.
#[derive(Debug, Clone, Default)]
pub struct RegionMap {
    /// Regions in declaration order.
    pub regions: Vec<Region>,
    by_global: HashMap<GlobalId, RegionId>,
    /// Static `InitCheck` findings (human-readable).
    pub init_check: Vec<String>,
    /// Number of annotation facts bound.
    pub annotation_count: usize,
}

impl RegionMap {
    /// The region owned by global pointer `g`, if any.
    pub fn by_global(&self, g: GlobalId) -> Option<RegionId> {
        self.by_global.get(&g).copied()
    }

    /// The region stored under `id`.
    pub fn region(&self, id: RegionId) -> &Region {
        &self.regions[id.0 as usize]
    }

    /// Iterates all regions.
    pub fn iter(&self) -> impl Iterator<Item = &Region> {
        self.regions.iter()
    }

    /// Number of regions.
    pub fn len(&self) -> usize {
        self.regions.len()
    }

    /// Whether no regions were declared.
    pub fn is_empty(&self) -> bool {
        self.regions.is_empty()
    }
}

/// Evaluates an annotation size expression against the module's type and
/// constant tables.
pub fn eval_ann_expr(module: &Module, e: &AnnExpr) -> Option<i64> {
    e.eval(&|leaf| match leaf {
        AnnExpr::Sizeof(name) => module.sizeof_name(*name).map(|s| s as i64),
        AnnExpr::Ident(name) => module.enum_consts.get(name).copied(),
        _ => None,
    })
}

/// Extracts regions from every `shminit` function of `module`.
pub fn extract_regions(module: &Module, diags: &mut Diagnostics) -> RegionMap {
    let mut map = RegionMap::default();
    let attach = Symbol::intern(ATTACH_FUNCTION);
    for fid in module.definitions() {
        let func = module.function(fid);
        if !func.is_shminit() {
            continue;
        }
        map.annotation_count += func.annotations.len();
        // First pass: shmvar facts mint regions; channel facts mint
        // labeled non-core regions (the labeled generalization of
        // `shmvar` + `noncore`).
        for ann in &func.annotations {
            let (fact, ptr, size, label, span) = match ann {
                Annotation::ShmVar { ptr, size, span } => ("shmvar", *ptr, size, None, span),
                Annotation::Channel { ptr, size, label, span } => {
                    ("channel", *ptr, size, Some(label.clone()), span)
                }
                _ => continue,
            };
            {
                let Some(gid) = module.global_by_name(ptr) else {
                    diags.error(
                        *span,
                        format!("{fact}({ptr}, ...): `{ptr}` is not a global pointer variable"),
                    );
                    continue;
                };
                let Some(pointee) = module.types.pointee(module.global(gid).ty) else {
                    diags.error(*span, format!("{fact}({ptr}, ...): `{ptr}` is not a pointer"));
                    continue;
                };
                let Some(size) = eval_ann_expr(module, size) else {
                    diags.error(
                        *span,
                        format!("{fact}({ptr}, ...): size is not a compile-time constant"),
                    );
                    continue;
                };
                if size <= 0 {
                    diags.error(*span, format!("{fact}({ptr}, ...): size must be positive"));
                    continue;
                }
                if map.by_global.contains_key(&gid) {
                    diags.error(*span, format!("{fact}({ptr}, ...): region already declared"));
                    continue;
                }
                let elem_size = module.types.size_of(pointee).max(1);
                let id = RegionId(map.regions.len() as u32);
                map.regions.push(Region {
                    id,
                    name: ptr,
                    global: gid,
                    size: size as u64,
                    elem_size,
                    len: (size as u64 / elem_size).max(1),
                    noncore: label.is_some(),
                    label,
                    init_fn: fid,
                    segment: None,
                    offset: None,
                    span: *span,
                });
                map.by_global.insert(gid, id);
            }
        }
        // Second pass: noncore facts flip the flag.
        for ann in &func.annotations {
            if let Annotation::Noncore { target, span } = ann {
                match module.global_by_name(*target).and_then(|g| map.by_global(g)) {
                    Some(rid) => map.regions[rid.0 as usize].noncore = true,
                    None => {
                        // Socket descriptors (§3.4.3) are also declared with
                        // noncore(); only complain when the name is entirely
                        // unknown.
                        if module.global_by_name(*target).is_none() {
                            diags.warning(
                                *span,
                                format!("noncore({target}): no such shared-memory region or descriptor; annotation ignored"),
                            );
                        }
                    }
                }
            }
        }
        // Interpret the initializer to recover segment offsets.
        interpret_init(module, fid, attach, &mut map);
    }
    run_init_check(module, &mut map);
    map
}

/// Abstract value for the init interpreter.
#[derive(Debug, Clone, PartialEq)]
enum AbsVal {
    /// Pointer into the segment attached at the given call, at a constant
    /// byte offset.
    Seg(InstId, i64),
    /// Known integer.
    Int(i64),
    /// Anything else.
    Other,
}

/// The external function that attaches a shared-memory segment (the
/// System V API the paper's systems use).
const ATTACH_FUNCTION: &str = "shmat";

/// Interprets the (expected straight-line) body of a `shminit` function,
/// recording for each region global the `(segment, offset)` it ends up
/// pointing at. Branches/loops make affected values `Other` — offsets stay
/// unknown, which the init check reports. `attach` is [`ATTACH_FUNCTION`]
/// interned.
fn interpret_init(module: &Module, fid: FuncId, attach: Symbol, map: &mut RegionMap) {
    let func = module.function(fid);
    let mut env: HashMap<InstId, AbsVal> = HashMap::new();
    let mut genv: HashMap<GlobalId, AbsVal> = HashMap::new();

    let resolve =
        |v: &Value, env: &HashMap<InstId, AbsVal>, _genv: &HashMap<GlobalId, AbsVal>| -> AbsVal {
            match v {
                Value::ConstInt(c, _) => AbsVal::Int(*c),
                Value::Inst(id) => env.get(id).cloned().unwrap_or(AbsVal::Other),
                _ => AbsVal::Other,
            }
        };

    // Walk blocks in straight-line order following unconditional branches
    // from the entry; stop at the first conditional (init functions are
    // expected to be straight-line).
    let mut bid = func.entry();
    let mut visited = 0;
    loop {
        visited += 1;
        if visited > func.blocks.len() + 1 {
            break;
        }
        let block = func.block(bid);
        for &iid in &block.insts {
            let inst = func.inst(iid);
            match &inst.kind {
                // Prototypes lower to `Callee::Local` without a body; both
                // spellings resolve to the external name.
                InstKind::Call { callee, .. }
                    if module.external_callee_name(callee) == Some(attach) =>
                {
                    env.insert(iid, AbsVal::Seg(iid, 0));
                }
                InstKind::Cast { value, .. } => {
                    let v = resolve(value, &env, &genv);
                    env.insert(iid, v);
                }
                InstKind::ElemAddr { base, index } => {
                    let b = resolve(base, &env, &genv);
                    let i = resolve(index, &env, &genv);
                    let elem = module
                        .types
                        .pointee(inst.ty)
                        .map(|t| module.types.size_of(t).max(1))
                        .unwrap_or(1);
                    match (b, i) {
                        (AbsVal::Seg(s, off), AbsVal::Int(k)) => {
                            env.insert(iid, AbsVal::Seg(s, off + k * elem as i64));
                        }
                        _ => {
                            env.insert(iid, AbsVal::Other);
                        }
                    }
                }
                InstKind::FieldAddr { base, struct_id, field } => {
                    let b = resolve(base, &env, &genv);
                    match b {
                        AbsVal::Seg(s, off) => {
                            let foff =
                                module.types.layout(*struct_id).fields[*field as usize].offset;
                            env.insert(iid, AbsVal::Seg(s, off + foff as i64));
                        }
                        _ => {
                            env.insert(iid, AbsVal::Other);
                        }
                    }
                }
                InstKind::Bin { op, lhs, rhs } => {
                    let a = resolve(lhs, &env, &genv);
                    let b = resolve(rhs, &env, &genv);
                    let v = match (op, a, b) {
                        (BinOp::Add, AbsVal::Int(x), AbsVal::Int(y)) => AbsVal::Int(x + y),
                        (BinOp::Sub, AbsVal::Int(x), AbsVal::Int(y)) => AbsVal::Int(x - y),
                        (BinOp::Mul, AbsVal::Int(x), AbsVal::Int(y)) => AbsVal::Int(x * y),
                        _ => AbsVal::Other,
                    };
                    env.insert(iid, v);
                }
                InstKind::Store { ptr: Value::Global(g), value } => {
                    let v = resolve(value, &env, &genv);
                    genv.insert(*g, v);
                }
                InstKind::Load { ptr: Value::Global(g) } => {
                    let v = genv.get(g).cloned().unwrap_or(AbsVal::Other);
                    env.insert(iid, v);
                }
                _ => {}
            }
        }
        match &block.terminator {
            Terminator::Br(next) => bid = *next,
            _ => break,
        }
    }

    for region in &mut map.regions {
        if region.init_fn != fid {
            continue;
        }
        if let Some(AbsVal::Seg(seg, off)) = genv.get(&region.global) {
            region.segment = Some((fid, *seg));
            region.offset = Some(*off);
        }
    }
}

/// Static `InitCheck`: regions sharing a segment must not overlap
/// (paper §3.2.1: "verifies that the variables in shared memory do not
/// overlap with each other").
fn run_init_check(_module: &Module, map: &mut RegionMap) {
    let regions = map.regions.clone();
    for (i, a) in regions.iter().enumerate() {
        if a.offset.is_none() {
            map.init_check.push(format!(
                "region `{}`: segment offset not statically evaluable; InitCheck deferred to run time",
                a.name
            ));
            continue;
        }
        for b in regions.iter().skip(i + 1) {
            let (Some(ao), Some(bo)) = (a.offset, b.offset) else { continue };
            if a.segment != b.segment || a.segment.is_none() {
                continue;
            }
            let a_end = ao + a.size as i64;
            let b_end = bo + b.size as i64;
            if ao < b_end && bo < a_end {
                map.init_check.push(format!(
                    "OVERLAP: region `{}` [{}..{}) overlaps region `{}` [{}..{})",
                    a.name, ao, a_end, b.name, bo, b_end
                ));
            }
        }
    }
    if !map.regions.is_empty()
        && map.init_check.iter().all(|c| !c.starts_with("OVERLAP"))
        && map.regions.iter().all(|r| r.offset.is_some())
    {
        map.init_check.push("all regions disjoint".to_string());
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use safeflow_ir::build_module;
    use safeflow_syntax::parse_source;

    fn regions_of(src: &str) -> (Module, RegionMap, Diagnostics) {
        let pr = parse_source("t.c", src);
        assert!(!pr.diags.has_errors(), "{:?}", pr.diags);
        let mut diags = Diagnostics::new();
        let m = build_module(&pr.unit, &mut diags);
        assert!(!diags.has_errors(), "{diags:?}");
        let map = extract_regions(&m, &mut diags);
        (m, map, diags)
    }

    const FIG3: &str = r#"
        typedef struct { float control; float track; float angle; } SHMData;
        SHMData *feedback;
        SHMData *noncoreCtrl;
        int shmget(int key, int size, int flags);
        void *shmat(int shmid, void *addr, int flags);

        void initComm(void)
        /** SafeFlow Annotation shminit */
        {
            void *shmStart;
            int shmid;
            shmid = shmget(42, 2 * sizeof(SHMData), 0);
            shmStart = shmat(shmid, 0, 0);
            feedback = (SHMData *) shmStart;
            noncoreCtrl = feedback + 1;
            /** SafeFlow Annotation
                assume(shmvar(feedback, sizeof(SHMData)))
                assume(shmvar(noncoreCtrl, sizeof(SHMData)))
                assume(noncore(noncoreCtrl))
            */
        }
    "#;

    #[test]
    fn figure3_regions_extracted() {
        let (_, map, d) = regions_of(FIG3);
        assert!(!d.has_errors(), "{d:?}");
        assert_eq!(map.len(), 2);
        let fb = map.iter().find(|r| r.name == "feedback").unwrap();
        let nc = map.iter().find(|r| r.name == "noncoreCtrl").unwrap();
        assert_eq!(fb.size, 12);
        assert_eq!(nc.size, 12);
        assert!(!fb.noncore);
        assert!(nc.noncore);
        assert_eq!(fb.elem_size, 12);
        assert_eq!(fb.len, 1);
    }

    #[test]
    fn figure3_offsets_interpreted() {
        let (_, map, _) = regions_of(FIG3);
        let fb = map.iter().find(|r| r.name == "feedback").unwrap();
        let nc = map.iter().find(|r| r.name == "noncoreCtrl").unwrap();
        assert_eq!(fb.offset, Some(0));
        assert_eq!(nc.offset, Some(12));
        assert_eq!(fb.segment, nc.segment);
        assert!(fb.segment.is_some());
        assert!(map.init_check.iter().any(|c| c.contains("disjoint")), "{:?}", map.init_check);
    }

    #[test]
    fn overlap_detected() {
        // noncoreCtrl = feedback (same offset) → overlap.
        let src = FIG3.replace("noncoreCtrl = feedback + 1;", "noncoreCtrl = feedback + 0;");
        let (_, map, _) = regions_of(&src);
        assert!(map.init_check.iter().any(|c| c.starts_with("OVERLAP")), "{:?}", map.init_check);
    }

    #[test]
    fn array_region_element_count() {
        let src = r#"
            float *samples;
            void *shmat(int shmid, void *addr, int flags);
            void init(void)
            /** SafeFlow Annotation shminit */
            {
                samples = (float *) shmat(0, 0, 0);
                /** SafeFlow Annotation
                    assume(shmvar(samples, 64))
                    assume(noncore(samples))
                */
            }
        "#;
        let (_, map, d) = regions_of(src);
        assert!(!d.has_errors());
        let r = map.iter().next().unwrap();
        assert_eq!(r.size, 64);
        assert_eq!(r.elem_size, 4);
        assert_eq!(r.len, 16);
        assert!(r.noncore);
    }

    #[test]
    fn unknown_pointer_name_reports_error() {
        let src = r#"
            void *shmat(int shmid, void *addr, int flags);
            void init(void)
            /** SafeFlow Annotation shminit */
            {
                /** SafeFlow Annotation assume(shmvar(ghost, 8)) */
            }
        "#;
        let (_, _, d) = regions_of(src);
        assert!(d.has_errors());
    }

    #[test]
    fn annotation_count_tracked() {
        let (_, map, _) = regions_of(FIG3);
        // shminit + 2×shmvar + 1×noncore = 4 facts on the function.
        assert_eq!(map.annotation_count, 4);
    }

    #[test]
    fn channel_fact_mints_labeled_noncore_region() {
        let src = r#"
            typedef struct { float control; float track; float angle; } SHMData;
            SHMData *gyro;
            SHMData *cmd;
            void *shmat(int shmid, void *addr, int flags);
            void init(void)
            /** SafeFlow Annotation shminit */
            {
                gyro = (SHMData *) shmat(0, 0, 0);
                cmd = gyro + 1;
                /** SafeFlow Annotation
                    assume(channel(gyro, sizeof(SHMData), sensor_a))
                    assume(shmvar(cmd, sizeof(SHMData)))
                */
            }
        "#;
        let (_, map, d) = regions_of(src);
        assert!(!d.has_errors(), "{d:?}");
        assert_eq!(map.len(), 2);
        let g = map.iter().find(|r| r.name == "gyro").unwrap();
        let c = map.iter().find(|r| r.name == "cmd").unwrap();
        assert!(g.noncore, "channel endpoints are non-core");
        assert_eq!(g.label.as_deref(), Some("sensor_a"));
        assert_eq!(g.size, 12);
        assert!(!c.noncore);
        assert_eq!(c.label, None);
    }

    #[test]
    fn enum_constant_in_size() {
        let src = r#"
            enum Sizes { BUF_BYTES = 32 };
            char *buf;
            void *shmat(int shmid, void *addr, int flags);
            void init(void)
            /** SafeFlow Annotation shminit */
            {
                buf = (char *) shmat(0, 0, 0);
                /** SafeFlow Annotation assume(shmvar(buf, BUF_BYTES)) */
            }
        "#;
        let (_, map, d) = regions_of(src);
        assert!(!d.has_errors(), "{d:?}");
        assert_eq!(map.iter().next().unwrap().size, 32);
    }
}
