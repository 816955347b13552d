//! The Omega test: exact satisfiability of conjunctions of affine integer
//! constraints (Pugh, 1991). Normalization → equality elimination (unit
//! substitution or the symmetric-modulo trick) → Fourier–Motzkin with
//! real/dark shadows and splintering for the inexact cases.

use crate::expr::{LinExpr, Var};
use std::collections::BTreeMap;

/// Outcome of a feasibility check.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Feasibility {
    /// A satisfying integer assignment exists.
    Sat,
    /// No satisfying integer assignment exists.
    Unsat,
    /// The solver gave up (resource bound or arithmetic overflow); callers
    /// must treat this conservatively.
    Unknown,
}

/// Internal constraint: `expr >= 0` or `expr == 0`.
#[derive(Debug, Clone, PartialEq)]
enum C {
    Ge(LinExpr),
    Eq(LinExpr),
}

/// A conjunction of affine constraints over named integer variables.
///
/// # Examples
///
/// ```
/// use safeflow_solver::{System, LinExpr};
///
/// let mut sys = System::new();
/// let i = sys.new_var("i");
/// let n = sys.new_var("n");
/// sys.add_ge(LinExpr::var(i), LinExpr::constant(0));
/// sys.add_lt(LinExpr::var(i), LinExpr::var(n));
/// // The system implies i >= 0 and (trivially) is satisfiable.
/// assert!(sys.is_satisfiable());
/// assert!(sys.implies_ge(LinExpr::var(n), LinExpr::constant(1)));
/// ```
#[derive(Debug, Clone, Default)]
pub struct System {
    constraints: Vec<C>,
    names: Vec<String>,
}

/// Resource bounds keeping splintering/FM blowup in check.
const MAX_RECURSION: usize = 64;
const MAX_CONSTRAINTS: usize = 4096;

/// Resource limits for a (sequence of) solver invocations.
///
/// `max_steps` counts recursive `solve` activations and is shared across
/// calls through the caller-owned [`SolveStats::steps`] counter, so one
/// pathological obligation cannot starve the rest of a run: when the pool
/// is spent the solver answers [`Feasibility::Unknown`] instead of
/// grinding on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SolverLimits {
    /// Total `solve` activations allowed across the shared step counter.
    pub max_steps: u64,
}

impl Default for SolverLimits {
    fn default() -> SolverLimits {
        SolverLimits { max_steps: u64::MAX }
    }
}

impl SolverLimits {
    /// Limits with a step budget of `max_steps`.
    pub fn steps(max_steps: u64) -> SolverLimits {
        SolverLimits { max_steps }
    }
}

/// Outcome of a budgeted entailment query (see [`System::implies_ge_stats`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Entailment {
    /// The implication is proved (negation is infeasible).
    Proved,
    /// The implication could not be proved within the solver's intrinsic
    /// bounds (the negation is satisfiable or the solver gave up for a
    /// non-budget reason). Conservative callers treat this as "violation".
    Unproved,
    /// The step budget ran out mid-query. Also "unproved", but worth a
    /// distinct diagnostic: a bigger `--budget` might still prove it.
    BudgetExhausted,
}

/// Aggregate work counters for a (sequence of) solver invocations.
///
/// A `SolveStats` value is caller-owned and accumulates across calls, so
/// one value can tally a whole run's solver work, and its `steps` spend
/// one [`SolverLimits::max_steps`] pool. All fields are deterministic
/// functions of the queries issued (no wall-clock or scheduling influence).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SolveStats {
    /// Recursive `solve` activations — the currency of the step budget.
    pub steps: u64,
    /// Equalities eliminated (unit substitution or the modulo trick).
    pub eq_eliminations: u64,
    /// Variables eliminated by Fourier–Motzkin projection.
    pub fm_eliminations: u64,
    /// `Unknown` verdicts originated: budget/depth/size caps, arithmetic
    /// overflow, or a malformed system with no eliminable variable.
    pub early_exits: u64,
}

impl System {
    /// Creates an empty (trivially satisfiable) system.
    pub fn new() -> System {
        System::default()
    }

    /// Introduces a fresh variable with a debug name.
    pub fn new_var(&mut self, name: impl Into<String>) -> Var {
        let v = Var(self.names.len() as u32);
        self.names.push(name.into());
        v
    }

    /// Number of variables introduced.
    pub fn num_vars(&self) -> usize {
        self.names.len()
    }

    /// Adds `lhs >= rhs`.
    pub fn add_ge(&mut self, lhs: LinExpr, rhs: LinExpr) {
        self.constraints.push(C::Ge(lhs - rhs));
    }

    /// Adds `lhs <= rhs`.
    pub fn add_le(&mut self, lhs: LinExpr, rhs: LinExpr) {
        self.constraints.push(C::Ge(rhs - lhs));
    }

    /// Adds `lhs < rhs` (i.e. `lhs <= rhs - 1`).
    pub fn add_lt(&mut self, lhs: LinExpr, rhs: LinExpr) {
        self.constraints.push(C::Ge(rhs - lhs - LinExpr::constant(1)));
    }

    /// Adds `lhs > rhs`.
    pub fn add_gt(&mut self, lhs: LinExpr, rhs: LinExpr) {
        self.constraints.push(C::Ge(lhs - rhs - LinExpr::constant(1)));
    }

    /// Adds `lhs == rhs`.
    pub fn add_eq(&mut self, lhs: LinExpr, rhs: LinExpr) {
        self.constraints.push(C::Eq(lhs - rhs));
    }

    /// Exact feasibility check.
    pub fn check(&self) -> Feasibility {
        self.check_stats(&SolverLimits::default(), &mut SolveStats::default())
    }

    /// Feasibility check under explicit resource limits, accumulating the
    /// work counters into the caller-owned `stats`. When `stats.steps`
    /// exceeds `limits.max_steps` the check (and any later check sharing
    /// `stats`) returns [`Feasibility::Unknown`].
    pub fn check_stats(&self, limits: &SolverLimits, stats: &mut SolveStats) -> Feasibility {
        let mut next_var = self.names.len() as u32;
        solve(self.constraints.clone(), &mut next_var, 0, limits, stats)
    }

    /// `true` unless the system is *provably* infeasible ([`Feasibility::Unknown`]
    /// counts as satisfiable — the conservative direction for a checker
    /// looking for possible violations).
    pub fn is_satisfiable(&self) -> bool {
        self.check() != Feasibility::Unsat
    }

    /// Whether the system entails `lhs >= rhs`: `self ∧ (lhs < rhs)` must be
    /// provably infeasible.
    pub fn implies_ge(&self, lhs: LinExpr, rhs: LinExpr) -> bool {
        let mut neg = self.clone();
        neg.add_lt(lhs, rhs);
        neg.check() == Feasibility::Unsat
    }

    /// Whether the system entails `lhs < rhs`.
    pub fn implies_lt(&self, lhs: LinExpr, rhs: LinExpr) -> bool {
        let mut neg = self.clone();
        neg.add_ge(lhs, rhs);
        neg.check() == Feasibility::Unsat
    }

    /// Budgeted form of [`System::implies_ge`], spending from and counting
    /// into `stats` like [`System::check_stats`]: distinguishes "unproved"
    /// from "step budget ran out". Both are conservative (not proved).
    pub fn implies_ge_stats(
        &self,
        lhs: LinExpr,
        rhs: LinExpr,
        limits: &SolverLimits,
        stats: &mut SolveStats,
    ) -> Entailment {
        let mut neg = self.clone();
        neg.add_lt(lhs, rhs);
        entailment_of(neg.check_stats(limits, stats), limits, stats.steps)
    }

    /// Budgeted form of [`System::implies_lt`] (see
    /// [`System::implies_ge_stats`]).
    pub fn implies_lt_stats(
        &self,
        lhs: LinExpr,
        rhs: LinExpr,
        limits: &SolverLimits,
        stats: &mut SolveStats,
    ) -> Entailment {
        let mut neg = self.clone();
        neg.add_ge(lhs, rhs);
        entailment_of(neg.check_stats(limits, stats), limits, stats.steps)
    }

    /// Verifies a satisfying assignment (testing hook).
    pub fn satisfied_by(&self, assignment: &BTreeMap<Var, i64>) -> bool {
        self.constraints.iter().all(|c| match c {
            C::Ge(e) => e.eval(assignment) >= 0,
            C::Eq(e) => e.eval(assignment) == 0,
        })
    }
}

/// Symmetric modulo: `a mod̂ m ∈ (-m/2, m/2]`.
fn smod(a: i64, m: i64) -> i64 {
    let r = a.rem_euclid(m);
    if 2 * r > m {
        r - m
    } else {
        r
    }
}

fn entailment_of(result: Feasibility, limits: &SolverLimits, steps: u64) -> Entailment {
    match result {
        Feasibility::Unsat => Entailment::Proved,
        Feasibility::Unknown if steps > limits.max_steps => Entailment::BudgetExhausted,
        Feasibility::Sat | Feasibility::Unknown => Entailment::Unproved,
    }
}

fn solve(
    mut cs: Vec<C>,
    next_var: &mut u32,
    depth: usize,
    limits: &SolverLimits,
    stats: &mut SolveStats,
) -> Feasibility {
    stats.steps += 1;
    if stats.steps > limits.max_steps {
        stats.early_exits += 1;
        return Feasibility::Unknown;
    }
    if depth > MAX_RECURSION || cs.len() > MAX_CONSTRAINTS {
        stats.early_exits += 1;
        return Feasibility::Unknown;
    }

    // ---- normalize -------------------------------------------------------
    let mut i = 0;
    while i < cs.len() {
        let keep = match &mut cs[i] {
            C::Ge(e) => {
                let g = e.coeff_gcd();
                if g == 0 {
                    if e.constant_term() < 0 {
                        return Feasibility::Unsat;
                    }
                    false // trivially true
                } else {
                    if g > 1 {
                        // Divide: coefficients exactly, constant by floor.
                        let mut ne = LinExpr::constant(e.constant_term().div_euclid(g));
                        for (v, c) in e.terms() {
                            ne.add_term(v, c / g);
                        }
                        *e = ne;
                    }
                    true
                }
            }
            C::Eq(e) => {
                let g = e.coeff_gcd();
                if g == 0 {
                    if e.constant_term() != 0 {
                        return Feasibility::Unsat;
                    }
                    false
                } else {
                    if e.constant_term() % g != 0 {
                        return Feasibility::Unsat; // no integer solution
                    }
                    if g > 1 {
                        let mut ne = LinExpr::constant(e.constant_term() / g);
                        for (v, c) in e.terms() {
                            ne.add_term(v, c / g);
                        }
                        *e = ne;
                    }
                    true
                }
            }
        };
        if keep {
            i += 1;
        } else {
            cs.swap_remove(i);
        }
    }

    // ---- equality elimination ---------------------------------------------
    if let Some(pos) = cs.iter().position(|c| matches!(c, C::Eq(_))) {
        let C::Eq(eq) = cs.swap_remove(pos) else { unreachable!() };
        // Find a variable with |coeff| == 1 for direct substitution.
        if let Some((v, c)) = eq.terms().find(|(_, c)| c.abs() == 1) {
            // c*v + rest = 0  →  v = -rest/c = -c*rest (since c = ±1).
            let mut rest = eq.clone();
            rest.add_term(v, -c);
            let replacement = rest.scaled(-c);
            let new_cs: Vec<C> = cs
                .into_iter()
                .map(|cons| match cons {
                    C::Ge(e) => C::Ge(e.substitute(v, &replacement)),
                    C::Eq(e) => C::Eq(e.substitute(v, &replacement)),
                })
                .collect();
            stats.eq_eliminations += 1;
            return solve(new_cs, next_var, depth + 1, limits, stats);
        }
        // Pugh's modulo trick: shrink coefficients with a fresh variable.
        let Some((k, ak)) = choose_modulo_pivot(&eq) else {
            // A variable-free equality here means normalize was bypassed
            // (e.g. substitution degenerated the system); degrade instead
            // of panicking — Unknown is always a sound answer.
            stats.early_exits += 1;
            return Feasibility::Unknown;
        };
        // Ensure positive pivot coefficient by negating if needed.
        let eq = if ak < 0 { eq.scaled(-1) } else { eq };
        let ak = eq.coeff(k);
        let m = ak + 1;
        let sigma = Var(*next_var);
        *next_var += 1;
        // x_k = -m·σ + Σ_{i≠k} smod(a_i, m)·x_i ... derived from
        // σ = (Σ smod(a_i,m)·x_i + smod(c,m)) / m with smod(a_k,m) = -1.
        let mut replacement = LinExpr::term(sigma, -m);
        for (v, c) in eq.terms() {
            if v != k {
                replacement.add_term(v, smod(c, m));
            }
        }
        replacement.add_constant(smod(eq.constant_term(), m));
        // Substitute into the original equality too (it becomes smaller).
        let mut new_cs: Vec<C> = cs
            .into_iter()
            .map(|cons| match cons {
                C::Ge(e) => C::Ge(e.substitute(k, &replacement)),
                C::Eq(e) => C::Eq(e.substitute(k, &replacement)),
            })
            .collect();
        new_cs.push(C::Eq(eq.substitute(k, &replacement)));
        stats.eq_eliminations += 1;
        return solve(new_cs, next_var, depth + 1, limits, stats);
    }

    // ---- only inequalities left: Fourier–Motzkin ---------------------------
    // Collect variables.
    let mut vars: Vec<Var> = Vec::new();
    for c in &cs {
        let C::Ge(e) = c else { unreachable!() };
        for (v, _) in e.terms() {
            if !vars.contains(&v) {
                vars.push(v);
            }
        }
    }
    if vars.is_empty() {
        // All constraints are constant and were validated in normalize.
        return Feasibility::Sat;
    }

    // Choose the variable minimizing lowers×uppers. A system with no
    // eliminable candidate is malformed; degrade to Unknown (conservative
    // top) rather than panicking into the containment layer.
    let Some((x, lowers, uppers)) = choose_elimination_var(&vars, &cs) else {
        stats.early_exits += 1;
        return Feasibility::Unknown;
    };
    stats.fm_eliminations += 1;

    // Unbounded on one side: drop all constraints involving x.
    if lowers.is_empty() || uppers.is_empty() {
        let rest: Vec<C> = cs
            .iter()
            .filter(|c| {
                let C::Ge(e) = c else { return true };
                e.coeff(x) == 0
            })
            .cloned()
            .collect();
        return solve(rest, next_var, depth + 1, limits, stats);
    }

    // Shadows.
    let mut real: Vec<C> = Vec::new();
    let mut dark: Vec<C> = Vec::new();
    let mut exact = true;
    let mut max_upper_coeff: i64 = 0;
    for c in &cs {
        let C::Ge(e) = c else { unreachable!() };
        if e.coeff(x) == 0 {
            real.push(C::Ge(e.clone()));
            dark.push(C::Ge(e.clone()));
        } else if e.coeff(x) < 0 {
            max_upper_coeff = max_upper_coeff.max(-e.coeff(x));
        }
    }
    for &li in &lowers {
        let C::Ge(low) = &cs[li] else { unreachable!() };
        let a = low.coeff(x); // a > 0:  a·x + e1 >= 0
        let mut e1 = low.clone();
        e1.add_term(x, -a);
        for &ui in &uppers {
            let C::Ge(up) = &cs[ui] else { unreachable!() };
            let b = -up.coeff(x); // b > 0: -b·x + e2 >= 0
            let mut e2 = up.clone();
            e2.add_term(x, b);
            // Overflow guard on the products.
            if a.checked_mul(b).is_none() {
                stats.early_exits += 1;
                return Feasibility::Unknown;
            }
            // Real shadow: b·e1 + a·e2 >= 0.
            let rs = e1.scaled(b) + e2.scaled(a);
            // Dark shadow: b·e1 + a·e2 >= (a-1)(b-1).
            let ds = rs.clone() - LinExpr::constant((a - 1) * (b - 1));
            if a > 1 && b > 1 {
                exact = false;
            }
            real.push(C::Ge(rs));
            dark.push(C::Ge(ds));
        }
    }

    if exact {
        return solve(real, next_var, depth + 1, limits, stats);
    }

    // Inexact: dark-shadow SAT ⇒ SAT; real-shadow UNSAT ⇒ UNSAT.
    match solve(dark, next_var, depth + 1, limits, stats) {
        Feasibility::Sat => return Feasibility::Sat,
        Feasibility::Unknown => return Feasibility::Unknown,
        Feasibility::Unsat => {}
    }
    match solve(real.clone(), next_var, depth + 1, limits, stats) {
        Feasibility::Unsat => return Feasibility::Unsat,
        Feasibility::Unknown => return Feasibility::Unknown,
        Feasibility::Sat => {}
    }

    // Splinter: any solution must sit close above some lower bound.
    // For each lower bound a·x >= -e1, try a·x = -e1 + i for
    // i in 0 ..= (a·bmax - a - bmax)/bmax.
    for &li in &lowers {
        let C::Ge(low) = &cs[li] else { unreachable!() };
        let a = low.coeff(x);
        let mut e1 = low.clone();
        e1.add_term(x, -a);
        let bmax = max_upper_coeff;
        let hi = (a * bmax - a - bmax).div_euclid(bmax);
        for i in 0..=hi.max(0) {
            let mut splinter = cs.clone();
            // a·x + e1 - i == 0
            let mut eqe = LinExpr::term(x, a) + e1.clone();
            eqe.add_constant(-i);
            splinter.push(C::Eq(eqe));
            match solve(splinter, next_var, depth + 1, limits, stats) {
                Feasibility::Sat => return Feasibility::Sat,
                Feasibility::Unknown => return Feasibility::Unknown,
                Feasibility::Unsat => {}
            }
        }
    }
    Feasibility::Unsat
}

/// Picks the pivot for Pugh's modulo trick: the variable of `eq` with the
/// smallest |coefficient|. `None` when the equality has no variables left —
/// callers must degrade to [`Feasibility::Unknown`] rather than assume
/// `normalize` already removed the constraint (a degenerate equality can be
/// produced by substitution after normalization ran).
fn choose_modulo_pivot(eq: &LinExpr) -> Option<(Var, i64)> {
    eq.terms().min_by_key(|(_, c)| c.abs())
}

/// Picks the Fourier–Motzkin elimination variable minimizing the
/// lowers×uppers product, returning it with the indices of its lower- and
/// upper-bound constraints. `None` when there is no candidate to
/// eliminate — callers must degrade to [`Feasibility::Unknown`].
fn choose_elimination_var(vars: &[Var], cs: &[C]) -> Option<(Var, Vec<usize>, Vec<usize>)> {
    let mut best: Option<(Var, Vec<usize>, Vec<usize>)> = None;
    for &v in vars {
        let mut lo = Vec::new();
        let mut hi = Vec::new();
        for (i, c) in cs.iter().enumerate() {
            let C::Ge(e) = c else { continue };
            let cf = e.coeff(v);
            if cf > 0 {
                lo.push(i);
            } else if cf < 0 {
                hi.push(i);
            }
        }
        let cost = lo.len() * hi.len();
        let better = match &best {
            None => true,
            Some((_, bl, bh)) => cost < bl.len() * bh.len(),
        };
        if better {
            best = Some((v, lo, hi));
        }
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;

    fn var_sys(n: usize) -> (System, Vec<Var>) {
        let mut s = System::new();
        let vars = (0..n).map(|i| s.new_var(format!("v{i}"))).collect();
        (s, vars)
    }

    #[test]
    fn empty_system_sat() {
        assert_eq!(System::new().check(), Feasibility::Sat);
    }

    #[test]
    fn contradictory_constants() {
        let mut s = System::new();
        s.add_ge(LinExpr::constant(-1), LinExpr::constant(0));
        assert_eq!(s.check(), Feasibility::Unsat);
    }

    #[test]
    fn simple_box_sat() {
        let (mut s, v) = var_sys(1);
        s.add_ge(LinExpr::var(v[0]), LinExpr::constant(0));
        s.add_lt(LinExpr::var(v[0]), LinExpr::constant(10));
        assert_eq!(s.check(), Feasibility::Sat);
    }

    #[test]
    fn empty_interval_unsat() {
        let (mut s, v) = var_sys(1);
        s.add_gt(LinExpr::var(v[0]), LinExpr::constant(5));
        s.add_lt(LinExpr::var(v[0]), LinExpr::constant(6));
        // 5 < x < 6 has no integer solution.
        assert_eq!(s.check(), Feasibility::Unsat);
    }

    #[test]
    fn equality_gcd_infeasible() {
        // 2x + 4y == 3 has no integer solution.
        let (mut s, v) = var_sys(2);
        s.add_eq(LinExpr::term(v[0], 2) + LinExpr::term(v[1], 4), LinExpr::constant(3));
        assert_eq!(s.check(), Feasibility::Unsat);
    }

    #[test]
    fn equality_substitution() {
        // x == 2y, x == 7 → y == 3.5: unsat.
        let (mut s, v) = var_sys(2);
        s.add_eq(LinExpr::var(v[0]), LinExpr::term(v[1], 2));
        s.add_eq(LinExpr::var(v[0]), LinExpr::constant(7));
        assert_eq!(s.check(), Feasibility::Unsat);
        // x == 2y, x == 8 is fine.
        let (mut s, v) = var_sys(2);
        s.add_eq(LinExpr::var(v[0]), LinExpr::term(v[1], 2));
        s.add_eq(LinExpr::var(v[0]), LinExpr::constant(8));
        assert_eq!(s.check(), Feasibility::Sat);
    }

    #[test]
    fn mod_trick_needed() {
        // 7x + 12y == 17 (all |coeff| > 1): solvable over Z (x = -1, y = 2).
        let (mut s, v) = var_sys(2);
        s.add_eq(LinExpr::term(v[0], 7) + LinExpr::term(v[1], 12), LinExpr::constant(17));
        assert_eq!(s.check(), Feasibility::Sat);
    }

    #[test]
    fn dark_shadow_classic() {
        // The classic Omega example: 0 <= x; 2x <= 7; 3x >= 8 → x in
        // [8/3, 7/2] → x = 3 exists.
        let (mut s, v) = var_sys(1);
        s.add_ge(LinExpr::var(v[0]), LinExpr::constant(0));
        s.add_le(LinExpr::term(v[0], 2), LinExpr::constant(7));
        s.add_ge(LinExpr::term(v[0], 3), LinExpr::constant(8));
        assert_eq!(s.check(), Feasibility::Sat);
    }

    #[test]
    fn integer_hole_between_rationals() {
        // 3x >= 7 and 2x <= 5: rational solutions in [7/3, 5/2] but no
        // integer.
        let (mut s, v) = var_sys(1);
        s.add_ge(LinExpr::term(v[0], 3), LinExpr::constant(7));
        s.add_le(LinExpr::term(v[0], 2), LinExpr::constant(5));
        assert_eq!(s.check(), Feasibility::Unsat);
    }

    #[test]
    fn two_var_projection() {
        // x + y >= 10, x <= 3, y <= 4 → max x+y = 7 < 10: unsat.
        let (mut s, v) = var_sys(2);
        s.add_ge(LinExpr::var(v[0]) + LinExpr::var(v[1]), LinExpr::constant(10));
        s.add_le(LinExpr::var(v[0]), LinExpr::constant(3));
        s.add_le(LinExpr::var(v[1]), LinExpr::constant(4));
        assert_eq!(s.check(), Feasibility::Unsat);
    }

    #[test]
    fn array_bounds_obligation_in_bounds() {
        // The A1/A2 shape: 0 <= i < n, n == 16, index expr = i → prove
        // 0 <= i and i < 16.
        let (mut s, v) = var_sys(2);
        let (i, n) = (v[0], v[1]);
        s.add_ge(LinExpr::var(i), LinExpr::constant(0));
        s.add_lt(LinExpr::var(i), LinExpr::var(n));
        s.add_eq(LinExpr::var(n), LinExpr::constant(16));
        assert!(s.implies_ge(LinExpr::var(i), LinExpr::constant(0)));
        assert!(s.implies_lt(LinExpr::var(i), LinExpr::constant(16)));
        assert!(!s.implies_lt(LinExpr::var(i), LinExpr::constant(15)));
    }

    #[test]
    fn array_bounds_obligation_violation() {
        // 0 <= i < n, n == 16, access a[i + 1]: i + 1 < 16 is NOT implied
        // (i = 15 → 16).
        let (mut s, v) = var_sys(2);
        let (i, n) = (v[0], v[1]);
        s.add_ge(LinExpr::var(i), LinExpr::constant(0));
        s.add_lt(LinExpr::var(i), LinExpr::var(n));
        s.add_eq(LinExpr::var(n), LinExpr::constant(16));
        assert!(!s.implies_lt(LinExpr::var(i) + LinExpr::constant(1), LinExpr::constant(16)));
    }

    #[test]
    fn affine_transformed_index() {
        // 0 <= i < 8, index = 2i + 1 → index < 16 holds, index < 15 fails.
        let (mut s, v) = var_sys(1);
        let i = v[0];
        s.add_ge(LinExpr::var(i), LinExpr::constant(0));
        s.add_lt(LinExpr::var(i), LinExpr::constant(8));
        let idx = LinExpr::term(i, 2) + LinExpr::constant(1);
        assert!(s.implies_lt(idx.clone(), LinExpr::constant(16)));
        assert!(!s.implies_lt(idx, LinExpr::constant(15)));
    }

    #[test]
    fn satisfied_by_checks_assignments() {
        let (mut s, v) = var_sys(2);
        s.add_ge(LinExpr::var(v[0]), LinExpr::var(v[1]));
        let mut ok = BTreeMap::new();
        ok.insert(v[0], 5);
        ok.insert(v[1], 3);
        assert!(s.satisfied_by(&ok));
        let mut bad = BTreeMap::new();
        bad.insert(v[0], 2);
        bad.insert(v[1], 3);
        assert!(!s.satisfied_by(&bad));
    }

    #[test]
    fn smod_symmetric_range() {
        assert_eq!(smod(5, 8), 5 - 8);
        assert_eq!(smod(4, 8), 4);
        assert_eq!(smod(-3, 8), -3);
        assert_eq!(smod(7, 3), 1);
        assert_eq!(smod(8, 3), -1);
    }

    #[test]
    fn unbounded_variable_dropped() {
        // y unconstrained below: x >= y alone is satisfiable.
        let (mut s, v) = var_sys(2);
        s.add_ge(LinExpr::var(v[0]), LinExpr::var(v[1]));
        assert_eq!(s.check(), Feasibility::Sat);
    }

    #[test]
    fn zero_step_budget_is_unknown() {
        let (mut s, v) = var_sys(1);
        s.add_ge(LinExpr::var(v[0]), LinExpr::constant(0));
        let mut stats = SolveStats::default();
        assert_eq!(s.check_stats(&SolverLimits::steps(0), &mut stats), Feasibility::Unknown);
        assert_eq!(
            s.implies_ge_stats(
                LinExpr::var(v[0]),
                LinExpr::constant(0),
                &SolverLimits::steps(0),
                &mut stats
            ),
            Entailment::BudgetExhausted
        );
    }

    #[test]
    fn generous_budget_matches_unbudgeted() {
        let (mut s, v) = var_sys(2);
        let (i, n) = (v[0], v[1]);
        s.add_ge(LinExpr::var(i), LinExpr::constant(0));
        s.add_lt(LinExpr::var(i), LinExpr::var(n));
        s.add_eq(LinExpr::var(n), LinExpr::constant(16));
        let limits = SolverLimits::steps(1_000_000);
        let mut stats = SolveStats::default();
        assert_eq!(
            s.implies_lt_stats(LinExpr::var(i), LinExpr::constant(16), &limits, &mut stats),
            Entailment::Proved
        );
        assert_eq!(
            s.implies_lt_stats(LinExpr::var(i), LinExpr::constant(15), &limits, &mut stats),
            Entailment::Unproved
        );
        assert!(stats.steps > 0 && stats.steps < 1_000_000);
    }

    #[test]
    fn shared_step_counter_spends_across_calls() {
        // A counter already past the limit makes the next query exhausted
        // immediately: the pool is shared, not per-call.
        let (mut s, v) = var_sys(1);
        s.add_ge(LinExpr::var(v[0]), LinExpr::constant(0));
        let limits = SolverLimits::steps(5);
        let mut stats = SolveStats { steps: 100, ..SolveStats::default() };
        assert_eq!(
            s.implies_ge_stats(LinExpr::var(v[0]), LinExpr::constant(0), &limits, &mut stats),
            Entailment::BudgetExhausted
        );
    }

    #[test]
    fn chained_inequalities_transitive() {
        // a < b, b < c, c < a is a cycle: unsat.
        let (mut s, v) = var_sys(3);
        s.add_lt(LinExpr::var(v[0]), LinExpr::var(v[1]));
        s.add_lt(LinExpr::var(v[1]), LinExpr::var(v[2]));
        s.add_lt(LinExpr::var(v[2]), LinExpr::var(v[0]));
        assert_eq!(s.check(), Feasibility::Unsat);
    }

    #[test]
    fn chooser_with_no_candidates_is_none() {
        // Regression: the inlined chooser ended in `best.unwrap()`, which
        // panics with no candidate variables; the extracted helper must
        // report the case so `solve` can degrade to Unknown instead.
        assert!(choose_elimination_var(&[], &[]).is_none());
        let cs = [C::Ge(LinExpr::constant(1))];
        assert!(choose_elimination_var(&[], &cs).is_none());
    }

    #[test]
    fn modulo_pivot_with_no_vars_is_none() {
        // Regression: the equality-elimination pivot used to be
        // `.expect("equality with no vars was handled in normalize")`,
        // which panics on a variable-free equality; the extracted helper
        // must report the case so `solve` degrades to Unknown instead.
        assert!(choose_modulo_pivot(&LinExpr::constant(0)).is_none());
        assert!(choose_modulo_pivot(&LinExpr::constant(7)).is_none());
        let (k, ak) = choose_modulo_pivot(&LinExpr::term(Var(0), -3)).expect("has a var");
        assert_eq!((k, ak), (Var(0), -3));
    }

    #[test]
    fn degenerate_equalities_never_panic_solve() {
        // Variable-free equalities anywhere in the system must be absorbed
        // (0 = 0 is vacuous, 0 = c contradictory) — never routed into the
        // modulo-pivot, which used to panic on them.
        let mut next_var = 0u32;
        let mut stats = SolveStats::default();
        let cs = vec![C::Eq(LinExpr::constant(0)), C::Eq(LinExpr::term(Var(0), 2))];
        let f = solve(cs, &mut next_var, 0, &SolverLimits::default(), &mut stats);
        assert_eq!(f, Feasibility::Sat);

        let cs = vec![C::Eq(LinExpr::constant(7))];
        let f = solve(cs, &mut next_var, 0, &SolverLimits::default(), &mut stats);
        assert_eq!(f, Feasibility::Unsat);
        assert_eq!(stats.early_exits, 0, "{stats:?}");
    }

    #[test]
    fn stats_count_solver_work() {
        let (mut s, v) = var_sys(2);
        let (i, n) = (v[0], v[1]);
        s.add_ge(LinExpr::var(i), LinExpr::constant(0));
        s.add_lt(LinExpr::var(i), LinExpr::var(n));
        s.add_eq(LinExpr::var(n), LinExpr::constant(16));
        let mut stats = SolveStats::default();
        assert_eq!(s.check_stats(&SolverLimits::default(), &mut stats), Feasibility::Sat);
        assert!(stats.steps > 0);
        assert!(stats.eq_eliminations > 0, "{stats:?}");
        assert!(stats.fm_eliminations > 0, "{stats:?}");
        assert_eq!(stats.early_exits, 0, "{stats:?}");
        // The entailment query spends from the same pool.
        let before = stats.steps;
        assert_eq!(
            s.implies_lt_stats(
                LinExpr::var(i),
                LinExpr::constant(16),
                &SolverLimits::default(),
                &mut stats
            ),
            Entailment::Proved
        );
        assert!(stats.steps > before);
    }

    #[test]
    fn exhausted_budget_counts_as_early_exit() {
        let (mut s, v) = var_sys(1);
        s.add_ge(LinExpr::var(v[0]), LinExpr::constant(0));
        let mut stats = SolveStats::default();
        assert_eq!(s.check_stats(&SolverLimits::steps(0), &mut stats), Feasibility::Unknown);
        assert_eq!(stats.early_exits, 1);
    }
}
