//! Analysis configuration.

use crate::policy::{ImplicitFlowMode, LabelTable, Policy};
use safeflow_ir::Value;
use safeflow_util::fault::FaultPlan;
use safeflow_util::Symbol;

/// Resource budgets for one analysis run.
///
/// Every field defaults to `None` ("the engine's built-in bound"), so the
/// default budget reproduces historical behavior exactly. When a bound is
/// set and exhausted, the affected scope degrades *conservatively* — facts
/// become unknown-unsafe, solver obligations become unproven — and the
/// report carries a `BudgetExhausted` degradation note instead of the run
/// hanging or aborting.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Budget {
    /// Total Omega-solver step pool per function (shared by all of that
    /// function's array-bounds obligations).
    pub solver_steps: Option<u64>,
    /// Cap on dataflow fixpoint iterations (per function and per SCC).
    /// When the cap is hit before convergence the scope degrades.
    pub fixpoint_rounds: Option<u32>,
    /// Functions with more instructions than this are not analyzed in
    /// depth; their effects degrade to conservative top.
    pub max_function_insts: Option<usize>,
    /// Wall-clock deadline for the whole run, in milliseconds. Scopes that
    /// start after the deadline degrade. This is the one budget whose
    /// effect is machine-dependent; determinism tests never set it.
    pub deadline_ms: Option<u64>,
}

impl Budget {
    /// A budget with no explicit bounds (the default).
    pub fn unlimited() -> Budget {
        Budget::default()
    }

    /// `true` if no explicit bound is set.
    pub fn is_unlimited(&self) -> bool {
        *self == Budget::default()
    }
}

/// An external call whose argument is implicitly critical (the paper
/// treats the pid argument of `kill` this way, §3.1/§4): every value
/// flowing into `args[arg]` at a call to `name` must be monitored, exactly
/// as if it carried an `assert(safe(...))`.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub struct CriticalCall {
    /// External function name.
    pub name: String,
    /// Zero-based index of the critical argument.
    pub arg: usize,
    /// Clearance label: the highest label the argument may carry without
    /// an error. `None` (the default, and the paper's behavior) means
    /// `trusted` — any labeled value is an error.
    pub clearance: Option<String>,
}

impl CriticalCall {
    /// A critical-call spec for argument `arg` of `name`, cleared only
    /// for `trusted` values (the paper's behavior).
    pub fn new(name: impl Into<String>, arg: usize) -> CriticalCall {
        CriticalCall { name: name.into(), arg, clearance: None }
    }

    /// A critical-call spec whose argument is cleared up to the given
    /// policy label.
    pub fn with_clearance(
        name: impl Into<String>,
        arg: usize,
        clearance: impl Into<String>,
    ) -> CriticalCall {
        CriticalCall { name: name.into(), arg, clearance: Some(clearance.into()) }
    }
}

/// A message-receive library call for the §3.4.3 extension: `recv(sock,
/// buf, ...)`-shaped functions whose buffer is tainted when the descriptor
/// argument reads from a non-core socket.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub struct RecvSpec {
    /// External function name (`recv`, `read`, ...).
    pub name: String,
    /// Zero-based index of the socket/descriptor argument.
    pub sock_arg: usize,
    /// Zero-based index of the buffer argument filled with received data.
    pub buf_arg: usize,
}

impl RecvSpec {
    /// A receive spec: `name(sock_arg .. buf_arg ..)`.
    pub fn new(name: impl Into<String>, sock_arg: usize, buf_arg: usize) -> RecvSpec {
        RecvSpec { name: name.into(), sock_arg, buf_arg }
    }
}

/// Which phase-3 engine to run (paper §3.3, last two paragraphs).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Engine {
    /// Re-analyze each function per calling context (assumption set ×
    /// parameter taint). Matches the paper's implemented algorithm:
    /// "each function ... is analyzed multiple times for different call
    /// sequences leading to it, making the implementation exponential".
    #[default]
    ContextSensitive,
    /// ESP-style value-flow summaries: one bottom-up pass computing
    /// symbolic summaries, then instantiation — the optimization the paper
    /// proposes ("analyzing each function only once and summarizing the
    /// data dependencies ... using value flow graphs developed in ESP").
    Summary,
}

/// The entry point: the root of reachability for both phase-3 engines,
/// and the function whose end restriction P1 lets shared memory live to.
pub(crate) const ENTRY: &str = "main";

/// A configured critical call, resolved for one run: the argument it
/// checks, the name of the sink it makes (`name:argN`) and the argument's
/// clearance mask under the compiled policy.
pub(crate) struct CriticalSink {
    pub(crate) arg: usize,
    pub(crate) sink: Symbol,
    pub(crate) clearance: u64,
}

/// The configured calls, interned once per run so that phase 3 matches
/// calls by comparing symbols, and the one reading of what a critical or
/// receive call means at a call site, for both engines.
pub(crate) struct CallNames {
    critical: Vec<(Symbol, CriticalSink)>,
    /// Each receive call's name, socket argument and buffer argument.
    recv: Vec<(Symbol, usize, usize)>,
}

impl CallNames {
    /// Clearances are resolved in `table`: `trusted` (0) unless a call
    /// names a declared label; unknown names resolve to `trusted`, the most
    /// conservative clearance, and are reported when the policy compiles.
    pub(crate) fn new(config: &AnalysisConfig, table: &LabelTable) -> CallNames {
        let critical = config.implicit_critical_calls.iter().map(|c| {
            let sink = Symbol::intern(&format!("{}:arg{}", c.name, c.arg));
            let clearance = c.clearance.as_deref().and_then(|n| table.mask_of(n)).unwrap_or(0);
            (Symbol::intern(&c.name), CriticalSink { arg: c.arg, sink, clearance })
        });
        let recv =
            config.recv_functions.iter().map(|r| (Symbol::intern(&r.name), r.sock_arg, r.buf_arg));
        CallNames { critical: critical.collect(), recv: recv.collect() }
    }

    /// Each critical argument of a call to the external `callee`, with its
    /// sink; a spec whose argument the call does not pass is skipped.
    pub(crate) fn critical_args<'s>(
        &'s self,
        callee: Symbol,
        args: &'s [Value],
    ) -> impl Iterator<Item = (&'s Value, &'s CriticalSink)> + 's {
        let specs = self.critical.iter().filter(move |(name, _)| *name == callee);
        specs.filter_map(move |(_, c)| Some((args.get(c.arg)?, c)))
    }

    /// Each buffer a call to the external `callee` receives into, with its
    /// socket argument (`None` when the call does not pass it).
    pub(crate) fn recv_bufs<'s>(
        &'s self,
        callee: Symbol,
        args: &'s [Value],
    ) -> impl Iterator<Item = (&'s Value, Option<&'s Value>)> + 's {
        let specs = self.recv.iter().filter(move |&&(name, ..)| name == callee);
        specs.filter_map(move |&(_, sock, buf)| Some((args.get(buf)?, args.get(sock))))
    }

    /// The clearance of the sink named `sink`: the last critical call's
    /// that makes it, `trusted` for an assert anchor.
    pub(crate) fn clearance(&self, sink: Symbol) -> u64 {
        self.critical.iter().rev().find(|(_, c)| c.sink == sink).map_or(0, |(_, c)| c.clearance)
    }
}

/// Configuration of a SafeFlow run.
#[derive(Debug, Clone)]
pub struct AnalysisConfig {
    /// Phase-3 engine.
    pub engine: Engine,
    /// External calls whose arguments are implicitly critical. The paper
    /// treats the pid argument of `kill` this way (§3.1/§4).
    pub implicit_critical_calls: Vec<CriticalCall>,
    /// Message-receive library calls for the §3.4.3 extension.
    pub recv_functions: Vec<RecvSpec>,
    /// Cap on distinct contexts analyzed *per function* before the
    /// context-sensitive engine merges into a single worst-case context
    /// (no inherited assumptions, tainted parameters — sound, imprecise).
    pub max_contexts: usize,
    /// Worker threads for the parallel phases (summary-engine SCC
    /// scheduling, per-function graph construction, restriction checks).
    /// `1` (the default) runs everything sequentially on the calling
    /// thread; reports are identical for every value.
    pub jobs: usize,
    /// Resource budgets; the default is unlimited (built-in bounds only).
    pub budget: Budget,
    /// Deterministic fault injection for testing the degradation paths;
    /// `None` (the default) injects nothing.
    pub fault_plan: Option<FaultPlan>,
    /// The label-lattice policy. The default empty policy is the paper's
    /// two-point monitored/unmonitored scheme; see [`Policy`].
    pub policy: Policy,
}

impl Default for AnalysisConfig {
    fn default() -> Self {
        AnalysisConfig {
            engine: Engine::ContextSensitive,
            implicit_critical_calls: vec![CriticalCall::new("kill", 0)],
            recv_functions: vec![RecvSpec::new("recv", 0, 1), RecvSpec::new("read", 0, 1)],
            max_contexts: 512,
            jobs: 1,
            budget: Budget::default(),
            fault_plan: None,
            policy: Policy::default(),
        }
    }
}

impl AnalysisConfig {
    /// A builder over the default configuration — the documented way to
    /// construct a non-default [`AnalysisConfig`]. The struct fields stay
    /// public for compatibility, but new code should prefer the builder's
    /// typed setters over bare struct mutation.
    pub fn builder() -> AnalyzerBuilder {
        AnalyzerBuilder::new()
    }

    /// Default configuration with the given engine.
    pub fn with_engine(engine: Engine) -> Self {
        AnalysisConfig { engine, ..AnalysisConfig::default() }
    }

    /// The differential-oracle **reference** configuration: the summary
    /// engine run in its most naive shape — single-threaded (`jobs = 1`),
    /// unlimited budget, no fault plan. "Cache-free" and "store-free" are
    /// usage conventions on top of this: oracle reference runs use a fresh
    /// `Analyzer` per program (so the in-memory summary cache is always
    /// cold) and never attach a persistent store. Every optimized
    /// configuration (`--jobs N`, warm cache, store replay, dirty-region
    /// incremental) must reproduce this configuration's report byte for
    /// byte under the observability contract.
    pub fn reference() -> Self {
        AnalysisConfig::with_engine(Engine::Summary).normalized()
    }

    /// This configuration with its external-function lists sorted and
    /// deduplicated. Two configurations that differ only in list *order*
    /// are semantically identical; normalizing makes them structurally
    /// identical too, so store manifest keys and summary content hashes
    /// cannot diverge on flag order.
    pub fn normalized(mut self) -> Self {
        self.implicit_critical_calls.sort();
        self.implicit_critical_calls.dedup();
        self.recv_functions.sort();
        self.recv_functions.dedup();
        self.policy = self.policy.normalized();
        self
    }

    /// This configuration with `jobs` worker threads (builder-style;
    /// `0` is clamped to `1`).
    pub fn with_jobs(mut self, jobs: usize) -> Self {
        self.jobs = jobs.max(1);
        self
    }

    /// This configuration with the given resource budget (builder-style).
    pub fn with_budget(mut self, budget: Budget) -> Self {
        self.budget = budget;
        self
    }

    /// This configuration with the given fault plan (builder-style;
    /// testing hook — injected faults exercise the degradation paths).
    pub fn with_fault_plan(mut self, plan: FaultPlan) -> Self {
        self.fault_plan = Some(plan);
        self
    }
}

/// Typed, chainable construction of an [`AnalysisConfig`] (and, via
/// [`AnalyzerBuilder::build`], an `Analyzer`). Obtained from
/// [`AnalysisConfig::builder`]; every setter has the same semantics as the
/// corresponding config field, with the clamping and defaulting rules
/// applied at the point of the call.
#[derive(Debug, Clone, Default)]
pub struct AnalyzerBuilder {
    config: AnalysisConfig,
}

impl AnalyzerBuilder {
    /// A builder holding the default configuration.
    pub fn new() -> AnalyzerBuilder {
        AnalyzerBuilder { config: AnalysisConfig::default() }
    }

    /// Sets the phase-3 engine.
    pub fn engine(mut self, engine: Engine) -> Self {
        self.config.engine = engine;
        self
    }

    /// Sets the worker-thread count (`0` is clamped to `1`).
    pub fn jobs(mut self, jobs: usize) -> Self {
        self.config.jobs = jobs.max(1);
        self
    }

    /// Sets the resource budget.
    pub fn budget(mut self, budget: Budget) -> Self {
        self.config.budget = budget;
        self
    }

    /// Sets the per-function context cap for the context-sensitive engine.
    pub fn max_contexts(mut self, max: usize) -> Self {
        self.config.max_contexts = max.max(1);
        self
    }

    /// Sets a deterministic fault-injection plan (testing hook).
    pub fn fault_plan(mut self, plan: FaultPlan) -> Self {
        self.config.fault_plan = Some(plan);
        self
    }

    /// Adds an implicitly-critical external call.
    pub fn critical_call(mut self, call: CriticalCall) -> Self {
        self.config.implicit_critical_calls.push(call);
        self
    }

    /// Adds a message-receive library call (§3.4.3 extension).
    pub fn recv_function(mut self, spec: RecvSpec) -> Self {
        self.config.recv_functions.push(spec);
        self
    }

    /// Sets the label-lattice policy (see [`Policy::builder`]).
    pub fn policy(mut self, policy: Policy) -> Self {
        self.config.policy = policy;
        self
    }

    /// Sets the policy's implicit-flow handling mode without replacing
    /// the rest of the policy.
    pub fn implicit_flow(mut self, mode: ImplicitFlowMode) -> Self {
        self.config.policy.implicit_flow = mode;
        self
    }

    /// The finished configuration, with external-function lists
    /// sort-normalized (see [`AnalysisConfig::normalized`]) so the order
    /// the setters were called in cannot leak into store manifest keys or
    /// summary content hashes.
    pub fn build_config(self) -> AnalysisConfig {
        self.config.normalized()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_matches_paper_conventions() {
        let c = AnalysisConfig::default();
        assert_eq!(c.engine, Engine::ContextSensitive);
        assert!(c.implicit_critical_calls.contains(&CriticalCall::new("kill", 0)));
        assert!(c.recv_functions.contains(&RecvSpec::new("recv", 0, 1)));
        assert_eq!(ENTRY, "main");
    }

    #[test]
    fn builder_sets_typed_fields() {
        let c = AnalysisConfig::builder()
            .engine(Engine::Summary)
            .jobs(0)
            .budget(Budget { fixpoint_rounds: Some(7), ..Budget::default() })
            .critical_call(CriticalCall::new("reboot", 1))
            .recv_function(RecvSpec::new("recvfrom", 0, 1))
            .build_config();
        assert_eq!(c.engine, Engine::Summary);
        assert_eq!(c.jobs, 1, "jobs must clamp to 1");
        assert_eq!(c.budget.fixpoint_rounds, Some(7));
        assert!(c.implicit_critical_calls.contains(&CriticalCall::new("kill", 0)));
        assert!(c.implicit_critical_calls.contains(&CriticalCall::new("reboot", 1)));
        assert!(c.recv_functions.contains(&RecvSpec::new("recvfrom", 0, 1)));
    }

    #[test]
    fn with_engine_overrides_only_engine() {
        let c = AnalysisConfig::with_engine(Engine::Summary);
        assert_eq!(c.engine, Engine::Summary);
        assert_eq!(c.max_contexts, AnalysisConfig::default().max_contexts);
    }

    #[test]
    fn builder_normalizes_list_order() {
        let forward = AnalysisConfig::builder()
            .critical_call(CriticalCall::new("reboot", 1))
            .critical_call(CriticalCall::new("abort", 0))
            .recv_function(RecvSpec::new("recvfrom", 0, 1))
            .recv_function(RecvSpec::new("mq_receive", 0, 1))
            .build_config();
        let backward = AnalysisConfig::builder()
            .recv_function(RecvSpec::new("mq_receive", 0, 1))
            .recv_function(RecvSpec::new("recvfrom", 0, 1))
            .critical_call(CriticalCall::new("abort", 0))
            .critical_call(CriticalCall::new("reboot", 1))
            .build_config();
        assert_eq!(forward.implicit_critical_calls, backward.implicit_critical_calls);
        assert_eq!(forward.recv_functions, backward.recv_functions);
        let mut sorted = forward.implicit_critical_calls.clone();
        sorted.sort();
        assert_eq!(forward.implicit_critical_calls, sorted);
    }

    #[test]
    fn normalized_sorts_and_dedups_every_list() {
        let c = AnalysisConfig {
            recv_functions: vec![
                RecvSpec::new("recv", 0, 1),
                RecvSpec::new("read", 0, 1),
                RecvSpec::new("recv", 0, 1),
            ],
            implicit_critical_calls: vec![
                CriticalCall::new("kill", 1),
                CriticalCall::new("kill", 0),
            ],
            ..Default::default()
        }
        .normalized();
        assert_eq!(
            c.recv_functions,
            vec![RecvSpec::new("read", 0, 1), RecvSpec::new("recv", 0, 1)]
        );
        assert_eq!(
            c.implicit_critical_calls,
            vec![CriticalCall::new("kill", 0), CriticalCall::new("kill", 1)]
        );
    }

    #[test]
    fn reference_is_single_threaded_summary() {
        let c = AnalysisConfig::reference();
        assert_eq!(c.engine, Engine::Summary);
        assert_eq!(c.jobs, 1);
        assert!(c.budget.is_unlimited());
        assert!(c.fault_plan.is_none());
    }

    #[test]
    fn builder_sets_policy_and_implicit_flow() {
        let c = AnalysisConfig::builder()
            .policy(Policy::builder().label("sensor_b").label("sensor_a").build())
            .implicit_flow(ImplicitFlowMode::Strict)
            .build_config();
        assert!(!c.policy.is_default());
        assert_eq!(c.policy.implicit_flow, ImplicitFlowMode::Strict);
        assert_eq!(c.policy.labels[0].name, "sensor_a");
        assert!(AnalysisConfig::default().policy.is_default());
        assert!(AnalysisConfig::reference().policy.is_default());
    }

    #[test]
    fn normalized_sorts_the_policy() {
        let c = AnalysisConfig {
            policy: Policy {
                labels: vec![
                    crate::policy::LabelDecl::new("z"),
                    crate::policy::LabelDecl::new("a"),
                ],
                declassifiers: vec![("z".into(), "a".into()), ("a".into(), "trusted".into())],
                implicit_flow: ImplicitFlowMode::default(),
            },
            ..Default::default()
        }
        .normalized();
        assert_eq!(c.policy.labels[0].name, "a");
        assert_eq!(c.policy.declassifiers[0], ("a".to_string(), "trusted".to_string()));
    }

    #[test]
    fn with_jobs_sets_and_clamps() {
        assert_eq!(AnalysisConfig::default().jobs, 1);
        assert_eq!(AnalysisConfig::default().with_jobs(8).jobs, 8);
        assert_eq!(AnalysisConfig::default().with_jobs(0).jobs, 1);
    }
}
