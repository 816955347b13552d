//! Linear (affine) integer expressions.

use std::collections::BTreeMap;
use std::fmt;
use std::ops::{Add, Mul, Neg, Sub};

/// An integer variable in a [`System`](crate::System).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Var(pub u32);

impl fmt::Display for Var {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "x{}", self.0)
    }
}

/// An affine expression `Σ cᵢ·xᵢ + c` with integer coefficients.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct LinExpr {
    terms: BTreeMap<Var, i64>,
    constant: i64,
}

impl LinExpr {
    /// The zero expression.
    pub fn zero() -> LinExpr {
        LinExpr::default()
    }

    /// A constant expression.
    pub fn constant(c: i64) -> LinExpr {
        LinExpr { terms: BTreeMap::new(), constant: c }
    }

    /// The expression `1·v`.
    pub fn var(v: Var) -> LinExpr {
        LinExpr::term(v, 1)
    }

    /// The expression `c·v`.
    pub fn term(v: Var, c: i64) -> LinExpr {
        let mut terms = BTreeMap::new();
        if c != 0 {
            terms.insert(v, c);
        }
        LinExpr { terms, constant: 0 }
    }

    /// The coefficient of `v` (0 if absent).
    pub fn coeff(&self, v: Var) -> i64 {
        self.terms.get(&v).copied().unwrap_or(0)
    }

    /// The constant term.
    pub fn constant_term(&self) -> i64 {
        self.constant
    }

    /// Iterates `(variable, nonzero coefficient)` pairs in variable order.
    pub fn terms(&self) -> impl Iterator<Item = (Var, i64)> + '_ {
        self.terms.iter().map(|(&v, &c)| (v, c))
    }

    /// Number of variables with nonzero coefficient.
    pub fn num_vars(&self) -> usize {
        self.terms.len()
    }

    /// Adds `c·v` in place.
    pub fn add_term(&mut self, v: Var, c: i64) {
        let entry = self.terms.entry(v).or_insert(0);
        *entry += c;
        if *entry == 0 {
            self.terms.remove(&v);
        }
    }

    /// Adds a constant in place.
    pub fn add_constant(&mut self, c: i64) {
        self.constant += c;
    }

    /// Multiplies the whole expression by `k`.
    pub fn scaled(&self, k: i64) -> LinExpr {
        if k == 0 {
            return LinExpr::zero();
        }
        LinExpr {
            terms: self.terms.iter().map(|(&v, &c)| (v, c * k)).collect(),
            constant: self.constant * k,
        }
    }

    /// Substitutes `v := replacement` (replacement is an affine expression).
    pub fn substitute(&self, v: Var, replacement: &LinExpr) -> LinExpr {
        let c = self.coeff(v);
        if c == 0 {
            return self.clone();
        }
        let mut out = self.clone();
        out.terms.remove(&v);
        out = out + replacement.scaled(c);
        out
    }

    /// Evaluates under an assignment (missing variables default to 0).
    pub fn eval(&self, assignment: &BTreeMap<Var, i64>) -> i64 {
        self.constant
            + self
                .terms
                .iter()
                .map(|(v, c)| c * assignment.get(v).copied().unwrap_or(0))
                .sum::<i64>()
    }

    /// Greatest common divisor of the variable coefficients (0 when
    /// constant).
    pub fn coeff_gcd(&self) -> i64 {
        self.terms.values().fold(0i64, |acc, &c| gcd(acc, c.abs()))
    }
}

/// Euclid's gcd on nonnegative integers (gcd(0, x) = x).
pub fn gcd(mut a: i64, mut b: i64) -> i64 {
    a = a.abs();
    b = b.abs();
    while b != 0 {
        let t = a % b;
        a = b;
        b = t;
    }
    a
}

impl Add for LinExpr {
    type Output = LinExpr;
    fn add(self, rhs: LinExpr) -> LinExpr {
        let mut out = self;
        for (v, c) in rhs.terms {
            out.add_term(v, c);
        }
        out.constant += rhs.constant;
        out
    }
}

impl Sub for LinExpr {
    type Output = LinExpr;
    #[allow(clippy::suspicious_arithmetic_impl)] // a - b == a + (-b)
    fn sub(self, rhs: LinExpr) -> LinExpr {
        self + rhs.neg()
    }
}

impl Neg for LinExpr {
    type Output = LinExpr;
    fn neg(self) -> LinExpr {
        self.scaled(-1)
    }
}

impl Mul<i64> for LinExpr {
    type Output = LinExpr;
    fn mul(self, k: i64) -> LinExpr {
        self.scaled(k)
    }
}

impl fmt::Display for LinExpr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut first = true;
        for (v, c) in &self.terms {
            if first {
                if *c == 1 {
                    write!(f, "{v}")?;
                } else if *c == -1 {
                    write!(f, "-{v}")?;
                } else {
                    write!(f, "{c}{v}")?;
                }
                first = false;
            } else if *c >= 0 {
                if *c == 1 {
                    write!(f, " + {v}")?;
                } else {
                    write!(f, " + {c}{v}")?;
                }
            } else if *c == -1 {
                write!(f, " - {v}")?;
            } else {
                write!(f, " - {}{v}", -c)?;
            }
        }
        if first {
            write!(f, "{}", self.constant)?;
        } else if self.constant > 0 {
            write!(f, " + {}", self.constant)?;
        } else if self.constant < 0 {
            write!(f, " - {}", -self.constant)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn arithmetic_and_cancellation() {
        let x = Var(0);
        let y = Var(1);
        let e = LinExpr::term(x, 2) + LinExpr::term(y, 3) + LinExpr::constant(5);
        let f = e.clone() - LinExpr::term(x, 2);
        assert_eq!(f.coeff(x), 0);
        assert_eq!(f.coeff(y), 3);
        assert_eq!(f.constant_term(), 5);
        assert_eq!(f.num_vars(), 1);
    }

    #[test]
    fn substitution() {
        let x = Var(0);
        let y = Var(1);
        // e = 2x + 1; substitute x := y + 3 → 2y + 7.
        let e = LinExpr::term(x, 2) + LinExpr::constant(1);
        let r = LinExpr::var(y) + LinExpr::constant(3);
        let s = e.substitute(x, &r);
        assert_eq!(s.coeff(y), 2);
        assert_eq!(s.constant_term(), 7);
        assert_eq!(s.coeff(x), 0);
    }

    #[test]
    fn eval_and_gcd() {
        let x = Var(0);
        let y = Var(1);
        let e = LinExpr::term(x, 4) + LinExpr::term(y, 6) + LinExpr::constant(2);
        assert_eq!(e.coeff_gcd(), 2);
        let mut asn = BTreeMap::new();
        asn.insert(x, 1);
        asn.insert(y, 2);
        assert_eq!(e.eval(&asn), 4 + 12 + 2);
    }

    #[test]
    fn display_formats() {
        let x = Var(0);
        let y = Var(1);
        let e = LinExpr::term(x, 1) + LinExpr::term(y, -2) + LinExpr::constant(-3);
        assert_eq!(e.to_string(), "x0 - 2x1 - 3");
        assert_eq!(LinExpr::constant(7).to_string(), "7");
        assert_eq!(LinExpr::zero().to_string(), "0");
    }

    #[test]
    fn gcd_edge_cases() {
        assert_eq!(gcd(0, 5), 5);
        assert_eq!(gcd(12, 18), 6);
        assert_eq!(gcd(-12, 18), 6);
        assert_eq!(gcd(7, 13), 1);
    }
}
