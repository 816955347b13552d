//! Label-lattice policies: the generalization of the paper's binary
//! monitored/unmonitored scheme into a configurable information-flow
//! policy engine (ROADMAP item 2).
//!
//! A policy declares a small set of **labels** (criticality classes,
//! sensor trust domains, ARINC-style partitions), an optional partial
//! order between them, and **declassifier** pairs naming which
//! relabelings a monitor function may perform. The declared poset is
//! embedded into the free join-semilattice over one atom per label
//! (a `u64` bitmask): join is bitwise OR, `a ⊑ b` iff `a & !b == 0`,
//! `trusted` (⊥) is the empty mask and `untrusted` (⊤) is the mask of
//! every atom. Two distinguished names are always available and never
//! need declaring:
//!
//! * `trusted` — ⊥, the label of monitored/core data;
//! * `untrusted` — ⊤, the label of data from outside every declared
//!   domain (an unlabeled non-core region, a non-core socket).
//!
//! The **default policy** declares no labels and no declassifiers: the
//! lattice collapses to `{trusted, untrusted}` and the analysis is
//! byte-identical to the paper's two-point scheme (Table 1), which the
//! differential oracle and golden suites lock down.
//!
//! Implicit (control-dependence) flows are tracked separately from
//! explicit (data) flows, and the policy chooses what to do with them
//! ([`ImplicitFlowMode`]): report them separately as the paper's
//! false-positive candidates (the default), promote them to hard errors
//! (`strict`), or track-but-drop them (`taint-only`, the §3.4.1
//! ablation applied at report time).

use safeflow_util::wire::{put_str, put_u32, put_u8};
use std::collections::BTreeMap;

/// What the analysis does with implicit (control-dependence) flows at
/// report time. Explicit flows are always errors; the paper observes
/// that control-only dependencies "may be false positives" (§3.4.1) and
/// this knob makes that triage decision a first-class policy choice.
#[non_exhaustive]
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Default)]
pub enum ImplicitFlowMode {
    /// Control-only dependencies are promoted to hard (data-grade)
    /// errors: implicit flows are as bad as explicit ones.
    Strict,
    /// Control-only dependencies are tracked (they still taint values
    /// internally) but dropped from the report.
    TaintOnly,
    /// Control-only dependencies are reported as a separate class of
    /// false-positive candidates — the paper's behavior, and the
    /// default.
    #[default]
    ReportSeparately,
}

impl ImplicitFlowMode {
    /// Parses the CLI/annotation spelling (`strict`, `taint-only`,
    /// `report-separately`).
    pub fn parse(s: &str) -> Option<ImplicitFlowMode> {
        match s {
            "strict" => Some(ImplicitFlowMode::Strict),
            "taint-only" => Some(ImplicitFlowMode::TaintOnly),
            "report-separately" => Some(ImplicitFlowMode::ReportSeparately),
            _ => None,
        }
    }

    /// The canonical spelling.
    pub fn as_str(&self) -> &'static str {
        match self {
            ImplicitFlowMode::Strict => "strict",
            ImplicitFlowMode::TaintOnly => "taint-only",
            ImplicitFlowMode::ReportSeparately => "report-separately",
        }
    }

    fn discriminant(&self) -> u8 {
        match self {
            ImplicitFlowMode::Strict => 0,
            ImplicitFlowMode::TaintOnly => 1,
            ImplicitFlowMode::ReportSeparately => 2,
        }
    }
}

/// One declared label: a name plus the names of the labels it sits
/// directly above in the declared partial order (data at a `below`
/// label may flow into data at this label without declassification).
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub struct LabelDecl {
    /// Label name (must not be the reserved `trusted`/`untrusted`).
    pub name: String,
    /// Labels this one dominates in the declared order.
    pub below: Vec<String>,
}

impl LabelDecl {
    /// A label above only ⊥.
    pub fn new(name: impl Into<String>) -> LabelDecl {
        LabelDecl { name: name.into(), below: Vec::new() }
    }

    /// A label directly above the given labels.
    pub fn above(name: impl Into<String>, below: Vec<String>) -> LabelDecl {
        LabelDecl { name: name.into(), below }
    }
}

/// A user-declared label-lattice policy. Construct with
/// [`Policy::builder`]; the empty [`Policy::default`] is the paper's
/// two-point monitored/unmonitored scheme.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Policy {
    /// Declared labels (normalized: sorted by name, deduplicated, with
    /// duplicate declarations' `below` lists merged).
    pub labels: Vec<LabelDecl>,
    /// Allowed declassifications as `(from, to)` label-name pairs.
    pub declassifiers: Vec<(String, String)>,
    /// Report-time handling of implicit flows.
    pub implicit_flow: ImplicitFlowMode,
}

impl Policy {
    /// A builder over the empty (two-point) policy.
    pub fn builder() -> PolicyBuilder {
        PolicyBuilder::default()
    }

    /// The paper's two-point monitored/unmonitored policy (the default).
    pub fn two_point() -> Policy {
        Policy::default()
    }

    /// `true` for the two-point default policy with default implicit-flow
    /// handling — the configuration whose reports must stay byte-identical
    /// to the pre-lattice analyzer (and keep the `safeflow-report-v1`
    /// schema).
    pub fn is_default(&self) -> bool {
        self.labels.is_empty()
            && self.declassifiers.is_empty()
            && self.implicit_flow == ImplicitFlowMode::ReportSeparately
    }

    /// This policy with labels sorted by name (duplicate declarations
    /// merged, `below` lists sorted and deduplicated) and declassifier
    /// pairs sorted and deduplicated. Two policies differing only in
    /// declaration order normalize to the same value, so store manifest
    /// keys cannot diverge on declaration order.
    pub fn normalized(mut self) -> Policy {
        let mut merged: BTreeMap<String, Vec<String>> = BTreeMap::new();
        for decl in self.labels {
            let entry = merged.entry(decl.name).or_default();
            entry.extend(decl.below);
        }
        self.labels = merged
            .into_iter()
            .map(|(name, mut below)| {
                below.sort();
                below.dedup();
                LabelDecl { name, below }
            })
            .collect();
        self.declassifiers.sort();
        self.declassifiers.dedup();
        self
    }

    /// Canonical byte encoding of the normalized policy, for inclusion
    /// in store config hashes and engine environment hashes. Callers
    /// must pass a normalized policy for order-independence.
    pub fn encode_into(&self, out: &mut Vec<u8>) {
        put_u32(out, self.labels.len() as u32);
        for decl in &self.labels {
            put_str(out, &decl.name);
            put_u32(out, decl.below.len() as u32);
            for b in &decl.below {
                put_str(out, b);
            }
        }
        put_u32(out, self.declassifiers.len() as u32);
        for (from, to) in &self.declassifiers {
            put_str(out, from);
            put_str(out, to);
        }
        put_u8(out, self.implicit_flow.discriminant());
    }

    /// Compiles this policy, extended by module-level annotation
    /// declarations, into the bitmask lattice the engines consume.
    /// Declaration problems (reserved names, unknown references, too
    /// many labels) become deterministic notes, never hard errors: the
    /// offending declaration is ignored and analysis proceeds.
    pub fn compile(
        &self,
        extra_labels: &[LabelDecl],
        extra_declassifiers: &[(String, String)],
    ) -> (LabelTable, Vec<String>) {
        let merged = Policy {
            labels: self.labels.iter().cloned().chain(extra_labels.iter().cloned()).collect(),
            declassifiers: self
                .declassifiers
                .iter()
                .cloned()
                .chain(extra_declassifiers.iter().cloned())
                .collect(),
            implicit_flow: self.implicit_flow,
        }
        .normalized();
        let mut notes = Vec::new();
        let mut decls: Vec<&LabelDecl> = Vec::new();
        for decl in &merged.labels {
            if decl.name == "trusted" || decl.name == "untrusted" {
                notes.push(format!(
                    "label `{}` is reserved and cannot be redeclared; declaration ignored",
                    decl.name
                ));
                continue;
            }
            if decls.len() >= MAX_LABELS {
                notes.push(format!(
                    "label `{}` exceeds the {MAX_LABELS}-label limit; declaration ignored",
                    decl.name
                ));
                continue;
            }
            decls.push(decl);
        }
        // Atom bit 0 is the implicit `untrusted` atom; declared labels
        // take bits 1..=n in sorted-name order.
        let mut masks: BTreeMap<String, u64> = BTreeMap::new();
        for (i, decl) in decls.iter().enumerate() {
            masks.insert(decl.name.clone(), 1u64 << (i + 1));
        }
        // Close the declared order: mask(l) ⊇ mask(b) for every b below
        // l. Fixpoint handles forward references and cycles (mutual
        // inclusion) deterministically.
        loop {
            let mut changed = false;
            for decl in &decls {
                let mut m = masks[&decl.name];
                for b in &decl.below {
                    match masks.get(b.as_str()) {
                        Some(bm) => m |= bm,
                        None if b != "trusted" => {
                            // Reported once below, after the fixpoint.
                        }
                        None => {}
                    }
                }
                if m != masks[&decl.name] {
                    masks.insert(decl.name.clone(), m);
                    changed = true;
                }
            }
            if !changed {
                break;
            }
        }
        for decl in &decls {
            for b in &decl.below {
                if b != "trusted" && !masks.contains_key(b.as_str()) {
                    notes.push(format!(
                        "label `{}` is declared above unknown label `{b}`; that edge is ignored",
                        decl.name
                    ));
                }
            }
        }
        let top = (1u64 << (decls.len() + 1)) - 1;
        let resolve = |name: &str, masks: &BTreeMap<String, u64>| -> Option<u64> {
            match name {
                "trusted" => Some(0),
                "untrusted" => Some(top),
                other => masks.get(other).copied(),
            }
        };
        let mut declass = Vec::new();
        for (from, to) in &merged.declassifiers {
            match (resolve(from, &masks), resolve(to, &masks)) {
                (Some(f), Some(t)) => declass.push((f, t)),
                _ => notes.push(format!(
                    "declassifier({from}, {to}) names an undeclared label; pair ignored"
                )),
            }
        }
        declass.sort();
        declass.dedup();
        let atoms: Vec<String> = decls.iter().map(|d| d.name.clone()).collect();
        let table = LabelTable {
            atoms,
            masks,
            top,
            declass,
            mode: merged.implicit_flow,
            region_labels: BTreeMap::new(),
            default_policy: merged.is_default(),
        };
        (table, notes)
    }
}

/// Hard cap on declared labels: atoms live in a `u64` bitmask with bit 0
/// reserved for the implicit `untrusted` atom.
pub const MAX_LABELS: usize = 63;

/// Typed, chainable construction of a [`Policy`], mirroring
/// [`crate::AnalysisConfig::builder`]: setters accumulate declarations
/// and [`PolicyBuilder::build`] returns the normalized policy.
#[derive(Debug, Clone, Default)]
pub struct PolicyBuilder {
    policy: Policy,
}

impl PolicyBuilder {
    /// Declares a label above only ⊥.
    pub fn label(mut self, name: impl Into<String>) -> Self {
        self.policy.labels.push(LabelDecl::new(name));
        self
    }

    /// Declares a label directly above `below` in the lattice order.
    pub fn label_above(mut self, name: impl Into<String>, below: impl Into<String>) -> Self {
        self.policy.labels.push(LabelDecl::above(name, vec![below.into()]));
        self
    }

    /// Allows monitors to declassify `from`-labeled data to `to`.
    pub fn declassifier(mut self, from: impl Into<String>, to: impl Into<String>) -> Self {
        self.policy.declassifiers.push((from.into(), to.into()));
        self
    }

    /// Sets the implicit-flow handling mode.
    pub fn implicit_flow(mut self, mode: ImplicitFlowMode) -> Self {
        self.policy.implicit_flow = mode;
        self
    }

    /// The finished policy, normalized (labels and declassifier pairs
    /// sorted and deduplicated) so declaration order cannot leak into
    /// store keys or hashes.
    pub fn build(self) -> Policy {
        self.policy.normalized()
    }
}

/// A compiled policy: the label lattice as `u64` bitmasks, ready for
/// the engines. Join is bitwise OR; `a` flows to `b` without
/// declassification iff `a & !b == 0`.
#[derive(Debug, Clone)]
pub struct LabelTable {
    /// Declared label names in atom-bit order (atom `i` ↔ bit `i + 1`).
    atoms: Vec<String>,
    /// Name → mask for declared labels.
    masks: BTreeMap<String, u64>,
    /// ⊤: every atom including the implicit `untrusted` atom (bit 0).
    top: u64,
    /// Allowed declassifications as `(from_mask, to_mask)`.
    declass: Vec<(u64, u64)>,
    /// Report-time implicit-flow handling.
    mode: ImplicitFlowMode,
    /// Declared label mask per shared-memory region id, for labeled
    /// channel endpoints; absent regions default to ⊤ when non-core.
    region_labels: BTreeMap<u32, u64>,
    /// `true` for the two-point default policy (schema v1, byte-
    /// identical legacy reports).
    default_policy: bool,
}

impl Default for LabelTable {
    fn default() -> Self {
        Policy::default().compile(&[], &[]).0
    }
}

impl LabelTable {
    /// ⊤ — the label of unlabeled non-core data.
    pub fn top(&self) -> u64 {
        self.top
    }

    /// Report-time implicit-flow handling.
    pub fn mode(&self) -> ImplicitFlowMode {
        self.mode
    }

    /// `true` iff this is the compiled two-point default policy.
    pub fn is_default(&self) -> bool {
        self.default_policy
    }

    /// Resolves a label name to its mask. `trusted` and `untrusted` are
    /// always known.
    pub fn mask_of(&self, name: &str) -> Option<u64> {
        match name {
            "trusted" => Some(0),
            "untrusted" => Some(self.top),
            other => self.masks.get(other).copied(),
        }
    }

    /// Records the declared label mask of a shared-memory region
    /// (a labeled channel endpoint).
    pub fn set_region_label(&mut self, region: u32, mask: u64) {
        self.region_labels.insert(region, mask);
    }

    /// The source label mask of a region: its declared channel label,
    /// or ⊤ for an unlabeled non-core region, or ⊥ for core regions.
    pub fn region_source_mask(&self, region: u32, noncore: bool) -> u64 {
        if !noncore {
            return 0;
        }
        self.region_labels.get(&region).copied().unwrap_or(self.top)
    }

    /// Whether the policy allows declassifying `from`-labeled data to
    /// `to`: an exact declared pair, or a pair it subsumes (`from ⊑
    /// declared-from` and `declared-to ⊑ to` would be unsound; we require
    /// the exact declared relabeling, keeping the audit surface small).
    pub fn may_declassify(&self, from: u64, to: u64) -> bool {
        self.declass.binary_search(&(from, to)).is_ok()
    }

    /// A human-readable name for a mask: an exact declared label, the
    /// reserved names for ⊥/⊤, or the `+`-join of the atoms it covers.
    pub fn name_of(&self, mask: u64) -> String {
        if mask == 0 {
            return "trusted".to_string();
        }
        if mask == self.top || mask & 1 != 0 {
            return "untrusted".to_string();
        }
        if let Some(name) = self.atoms.iter().find(|n| self.masks[n.as_str()] == mask) {
            return name.clone();
        }
        let parts: Vec<&str> = self
            .atoms
            .iter()
            .enumerate()
            .filter(|(i, _)| mask & (1u64 << (i + 1)) != 0)
            .map(|(_, n)| n.as_str())
            .collect();
        parts.join("+")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_policy_is_two_point() {
        let p = Policy::default();
        assert!(p.is_default());
        let (t, notes) = p.compile(&[], &[]);
        assert!(notes.is_empty());
        assert!(t.is_default());
        assert_eq!(t.top(), 1);
        assert_eq!(t.mask_of("trusted"), Some(0));
        assert_eq!(t.mask_of("untrusted"), Some(1));
        assert_eq!(t.region_source_mask(0, true), 1);
        assert_eq!(t.region_source_mask(0, false), 0);
    }

    #[test]
    fn builder_normalizes_declaration_order() {
        let a = Policy::builder()
            .label("sensor_b")
            .label("sensor_a")
            .declassifier("fused", "trusted")
            .declassifier("sensor_a", "trusted")
            .label_above("fused", "sensor_a")
            .build();
        let b = Policy::builder()
            .label_above("fused", "sensor_a")
            .declassifier("sensor_a", "trusted")
            .label("sensor_a")
            .declassifier("fused", "trusted")
            .label("sensor_b")
            .build();
        assert_eq!(a, b);
        assert!(!a.is_default());
    }

    #[test]
    fn declared_order_embeds_into_masks() {
        let p = Policy::builder()
            .label("sensor_a")
            .label("sensor_b")
            .label_above("fused", "sensor_a")
            .build();
        let fused = LabelDecl::above("fused", vec!["sensor_b".into()]);
        let (t, notes) = p.compile(std::slice::from_ref(&fused), &[]);
        assert!(notes.is_empty(), "{notes:?}");
        let a = t.mask_of("sensor_a").unwrap();
        let b = t.mask_of("sensor_b").unwrap();
        let f = t.mask_of("fused").unwrap();
        // fused dominates both sensors (merged declarations)...
        assert_eq!(f & a, a);
        assert_eq!(f & b, b);
        // ...the sensors are incomparable...
        assert_ne!(a & !b, 0);
        assert_ne!(b & !a, 0);
        // ...and everything is strictly below untrusted.
        assert_ne!(t.top() & !f, 0);
        assert_eq!(t.name_of(f), "fused");
        assert_eq!(t.name_of(a | b), "sensor_a+sensor_b");
        assert_eq!(t.name_of(t.top()), "untrusted");
        assert_eq!(t.name_of(0), "trusted");
    }

    #[test]
    fn declassifier_pairs_are_exact() {
        let p = Policy::builder()
            .label("sensor_a")
            .label("sensor_b")
            .declassifier("sensor_a", "trusted")
            .declassifier("untrusted", "sensor_b")
            .build();
        let (t, notes) = p.compile(&[], &[]);
        assert!(notes.is_empty(), "{notes:?}");
        let a = t.mask_of("sensor_a").unwrap();
        let b = t.mask_of("sensor_b").unwrap();
        assert!(t.may_declassify(a, 0));
        assert!(t.may_declassify(t.top(), b));
        assert!(!t.may_declassify(b, 0));
        assert!(!t.may_declassify(a, b));
    }

    #[test]
    fn bad_declarations_become_notes_not_errors() {
        let p = Policy::builder()
            .label("trusted")
            .label_above("x", "nosuch")
            .declassifier("ghost", "trusted")
            .build();
        let (t, notes) = p.compile(&[], &[]);
        assert_eq!(notes.len(), 3, "{notes:?}");
        assert!(t.mask_of("x").is_some());
        assert!(t.mask_of("ghost").is_none());
    }

    #[test]
    fn implicit_flow_mode_parses_cli_spellings() {
        assert_eq!(ImplicitFlowMode::parse("strict"), Some(ImplicitFlowMode::Strict));
        assert_eq!(ImplicitFlowMode::parse("taint-only"), Some(ImplicitFlowMode::TaintOnly));
        assert_eq!(
            ImplicitFlowMode::parse("report-separately"),
            Some(ImplicitFlowMode::ReportSeparately)
        );
        assert_eq!(ImplicitFlowMode::parse("bogus"), None);
        assert_eq!(ImplicitFlowMode::Strict.as_str(), "strict");
        assert!(!Policy::builder().implicit_flow(ImplicitFlowMode::Strict).build().is_default());
    }

    #[test]
    fn encoding_is_order_independent_after_normalization() {
        let a = Policy::builder().label("x").label("y").declassifier("y", "x").build();
        let b = Policy::builder().declassifier("y", "x").label("y").label("x").build();
        let (mut ea, mut eb) = (Vec::new(), Vec::new());
        a.encode_into(&mut ea);
        b.encode_into(&mut eb);
        assert_eq!(ea, eb);
        let mut ed = Vec::new();
        Policy::default().encode_into(&mut ed);
        assert_ne!(ea, ed);
    }
}
