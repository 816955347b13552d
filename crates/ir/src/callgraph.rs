//! Call graph construction and Tarjan SCC condensation.
//!
//! The paper's interprocedural phases run "bottom-up and top-down ... on the
//! strongly connected components (SCCs) of the call graph" (§3.3); this
//! module provides those orders.

use crate::module::{Callee, FuncId, InstKind, Module};
use std::collections::{HashMap, HashSet};

/// The module's call graph over locally-defined functions. Calls to
/// prototypes without bodies and to external names are not edges.
#[derive(Debug, Clone)]
pub struct CallGraph {
    /// `callees[f]` = locally-bound call targets of `f` (deduplicated, in
    /// first-call order).
    pub callees: HashMap<FuncId, Vec<FuncId>>,
    /// `callers[f]` = functions calling `f`.
    pub callers: HashMap<FuncId, Vec<FuncId>>,
    /// SCCs in reverse topological order (callees before callers), i.e.
    /// bottom-up order.
    pub sccs: Vec<Vec<FuncId>>,
    /// `scc_of[f]` = index into `sccs`.
    pub scc_of: HashMap<FuncId, usize>,
}

impl CallGraph {
    /// Builds the call graph of all defined functions in `module`.
    pub fn build(module: &Module) -> CallGraph {
        let defs: Vec<FuncId> = module.definitions().collect();
        fn empty<T>(defs: &[FuncId]) -> HashMap<FuncId, Vec<T>> {
            defs.iter().map(|&fid| (fid, Vec::new())).collect()
        }
        let mut callees: HashMap<FuncId, Vec<FuncId>> = empty(&defs);
        let mut callers: HashMap<FuncId, Vec<FuncId>> = empty(&defs);
        // The callees seen so far in one function, cleared for the next.
        let mut seen: HashSet<FuncId> = HashSet::new();
        for &fid in &defs {
            seen.clear();
            for (_, inst) in module.function(fid).iter_insts() {
                // Calls to prototypes without bodies are treated like
                // external calls: they are not edges.
                if let InstKind::Call { callee: Callee::Local(target), .. } = inst.kind {
                    if module.function(target).is_definition && seen.insert(target) {
                        callees.get_mut(&fid).unwrap().push(target);
                        callers.entry(target).or_default().push(fid);
                    }
                }
            }
        }
        let (sccs, scc_of) = tarjan(&defs, &callees);
        CallGraph { callees, callers, sccs, scc_of }
    }

    /// The condensation DAG as a dependency list over SCC indices:
    /// `deps[i]` are the SCC indices that SCC `i` calls into (excluding
    /// itself), sorted ascending and deduplicated. Because [`CallGraph::sccs`]
    /// is in bottom-up order, every dependency index is `< i` — the list
    /// feeds a DAG scheduler directly: an SCC may be summarized as soon as
    /// all of its dependencies are done, independent of its topological
    /// siblings.
    pub fn scc_dependencies(&self) -> Vec<Vec<usize>> {
        let deps_of = |(i, scc): (usize, &Vec<FuncId>)| {
            let mut deps: Vec<usize> = scc
                .iter()
                .flat_map(|f| &self.callees[f])
                .map(|callee| self.scc_of[callee])
                .filter(|&j| j != i)
                .collect();
            deps.sort_unstable();
            deps.dedup();
            deps
        };
        self.sccs.iter().enumerate().map(deps_of).collect()
    }

    /// Whether `f` participates in recursion (self-loop or larger SCC).
    pub fn is_recursive(&self, f: FuncId) -> bool {
        match self.scc_of.get(&f) {
            Some(&i) => {
                self.sccs[i].len() > 1 || self.callees.get(&f).is_some_and(|c| c.contains(&f))
            }
            None => false,
        }
    }

    /// All functions transitively reachable from `root` (including it).
    pub fn reachable_from(&self, root: FuncId) -> HashSet<FuncId> {
        let mut seen = HashSet::new();
        let mut work = vec![root];
        while let Some(f) = work.pop() {
            if !seen.insert(f) {
                continue;
            }
            if let Some(cs) = self.callees.get(&f) {
                work.extend(cs.iter().copied());
            }
        }
        seen
    }
}

/// Iterative Tarjan SCC. Returns SCCs in reverse topological order
/// (bottom-up) and the component index of each node.
fn tarjan(
    nodes: &[FuncId],
    edges: &HashMap<FuncId, Vec<FuncId>>,
) -> (Vec<Vec<FuncId>>, HashMap<FuncId, usize>) {
    #[derive(Default, Clone)]
    struct NodeState {
        index: Option<u32>,
        lowlink: u32,
        on_stack: bool,
    }
    let mut state: HashMap<FuncId, NodeState> =
        nodes.iter().map(|&n| (n, NodeState::default())).collect();
    let mut index = 0u32;
    let mut stack: Vec<FuncId> = Vec::new();
    let mut sccs: Vec<Vec<FuncId>> = Vec::new();
    let mut scc_of: HashMap<FuncId, usize> = HashMap::with_capacity(nodes.len());

    // Iterative DFS with explicit frames.
    enum Action {
        Visit(FuncId),
        PostChild(FuncId, FuncId), // (parent, child)
        Finish(FuncId),
    }
    let mut work: Vec<Action> = Vec::new();
    for &root in nodes {
        if state[&root].index.is_some() {
            continue;
        }
        work.push(Action::Visit(root));
        while let Some(action) = work.pop() {
            match action {
                Action::Visit(v) => {
                    if state[&v].index.is_some() {
                        continue;
                    }
                    let st = state.get_mut(&v).unwrap();
                    st.index = Some(index);
                    st.lowlink = index;
                    st.on_stack = true;
                    index += 1;
                    stack.push(v);
                    work.push(Action::Finish(v));
                    if let Some(succs) = edges.get(&v) {
                        for &w in succs.iter().rev() {
                            work.push(Action::PostChild(v, w));
                            work.push(Action::Visit(w));
                        }
                    }
                }
                Action::PostChild(v, w) => {
                    let wll = {
                        let ws = &state[&w];
                        // On-stack: tree or back edge within the current
                        // SCC search; otherwise (already assigned to an
                        // SCC) it is a cross edge contributing nothing.
                        ws.on_stack.then(|| ws.lowlink.min(ws.index.unwrap_or(u32::MAX)))
                    };
                    if let Some(wll) = wll {
                        let vs = state.get_mut(&v).unwrap();
                        vs.lowlink = vs.lowlink.min(wll);
                    }
                }
                Action::Finish(v) => {
                    let (vi, vll) = {
                        let vs = &state[&v];
                        (vs.index.unwrap(), vs.lowlink)
                    };
                    if vi == vll {
                        let mut comp = Vec::new();
                        loop {
                            let w = stack.pop().expect("scc stack nonempty");
                            state.get_mut(&w).unwrap().on_stack = false;
                            scc_of.insert(w, sccs.len());
                            comp.push(w);
                            if w == v {
                                break;
                            }
                        }
                        comp.sort();
                        sccs.push(comp);
                    }
                }
            }
        }
    }
    (sccs, scc_of)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lower::lower;
    use crate::types::Type;
    use safeflow_syntax::diag::Diagnostics;
    use safeflow_syntax::parse_source;

    fn build(src: &str) -> (Module, CallGraph) {
        let pr = parse_source("t.c", src);
        assert!(!pr.diags.has_errors());
        let mut diags = Diagnostics::new();
        let m = lower(&pr.unit, &mut diags);
        assert!(!diags.has_errors(), "{diags:?}");
        let cg = CallGraph::build(&m);
        (m, cg)
    }

    #[test]
    fn linear_chain_bottom_up_order() {
        let (m, cg) = build(
            "int c(void) { return 1; }\nint b(void) { return c(); }\nint a(void) { return b(); }",
        );
        let a = m.function_by_name("a".into()).unwrap();
        let b = m.function_by_name("b".into()).unwrap();
        let c = m.function_by_name("c".into()).unwrap();
        let pos = |f| cg.sccs.iter().position(|s| s.contains(&f)).unwrap();
        assert!(pos(c) < pos(b));
        assert!(pos(b) < pos(a));
        assert!(!cg.is_recursive(a));
        assert_eq!(cg.callees[&a], vec![b]);
        assert_eq!(cg.callers[&b], vec![a]);
    }

    #[test]
    fn mutual_recursion_one_scc() {
        let (m, cg) = build(
            "int odd(int n);\nint even(int n) { if (n == 0) return 1; return odd(n - 1); }\nint odd(int n) { if (n == 0) return 0; return even(n - 1); }",
        );
        let even = m.function_by_name("even".into()).unwrap();
        let odd = m.function_by_name("odd".into()).unwrap();
        assert_eq!(cg.scc_of[&even], cg.scc_of[&odd]);
        assert!(cg.is_recursive(even));
        assert!(cg.is_recursive(odd));
    }

    #[test]
    fn self_recursion_detected() {
        let (m, cg) = build("int fact(int n) { if (n <= 1) return 1; return n * fact(n - 1); }");
        let f = m.function_by_name("fact".into()).unwrap();
        assert!(cg.is_recursive(f));
        assert_eq!(cg.sccs.iter().filter(|s| s.contains(&f)).count(), 1);
    }

    #[test]
    fn calls_to_prototypes_are_not_callees() {
        let (m, cg) = build(
            "void sendControl(float v);\nint g(void) { return 1; }\nvoid f(void) { sendControl(1.0); tickle(); g(); }",
        );
        let f = m.function_by_name("f".into()).unwrap();
        let g = m.function_by_name("g".into()).unwrap();
        let send = m.function_by_name("sendControl".into()).unwrap();
        assert_eq!(cg.callees[&f], vec![g]);
        assert!(!cg.callers.contains_key(&send));
        assert!(!cg.scc_of.contains_key(&send));
        assert!(cg.sccs.iter().all(|scc| !scc.contains(&send)));
    }

    #[test]
    fn reachable_from_root() {
        let (m, cg) = build(
            "int d(void) { return 0; }\nint c(void) { return d(); }\nint b(void) { return 0; }\nint main() { return c(); }",
        );
        let main = m.function_by_name("main".into()).unwrap();
        let reach = cg.reachable_from(main);
        assert!(reach.contains(&m.function_by_name("c".into()).unwrap()));
        assert!(reach.contains(&m.function_by_name("d".into()).unwrap()));
        assert!(!reach.contains(&m.function_by_name("b".into()).unwrap()));
    }

    #[test]
    fn scc_dependencies_form_bottom_up_dag() {
        let (m, cg) = build(
            "int leaf1(void) { return 1; }\nint leaf2(void) { return 2; }\nint mid(void) { return leaf1() + leaf2(); }\nint odd(int n);\nint even(int n) { if (n == 0) return 1; return odd(n - 1); }\nint odd(int n) { if (n == 0) return 0; return even(n - 1) + leaf2(); }\nint main() { return mid() + even(3); }",
        );
        let deps = cg.scc_dependencies();
        assert_eq!(deps.len(), cg.sccs.len());
        for (i, ds) in deps.iter().enumerate() {
            // Bottom-up: dependencies strictly precede their dependents.
            assert!(ds.iter().all(|&j| j < i), "scc {i} depends on {ds:?}");
            // Sorted and deduplicated.
            assert!(ds.windows(2).all(|w| w[0] < w[1]));
        }
        // main's SCC depends on mid's and the even/odd SCC, not the leaves.
        let main = m.function_by_name("main".into()).unwrap();
        let mid = m.function_by_name("mid".into()).unwrap();
        let even = m.function_by_name("even".into()).unwrap();
        let leaf1 = m.function_by_name("leaf1".into()).unwrap();
        let main_deps = &deps[cg.scc_of[&main]];
        assert!(main_deps.contains(&cg.scc_of[&mid]));
        assert!(main_deps.contains(&cg.scc_of[&even]));
        assert!(!main_deps.contains(&cg.scc_of[&leaf1]));
        // The mutual-recursion SCC records no self-dependency.
        let even_deps = &deps[cg.scc_of[&even]];
        assert!(!even_deps.contains(&cg.scc_of[&even]));
    }

    #[test]
    fn duplicate_calls_deduplicated() {
        let (m, cg) = build("int g(void) { return 1; }\nint f(void) { return g() + g(); }");
        let f = m.function_by_name("f".into()).unwrap();
        assert_eq!(cg.callees[&f].len(), 1);
        let _ = Type::int32();
    }
}
