//! QUBO construction and exact conversion to the Ising model.
//!
//! Many of Lucas's NP-problem formulations (the paper’s reference \[11\])
//! are naturally written as quadratic unconstrained binary optimization
//! over `x ∈ {0,1}`. SACHI consumes Ising problems over `σ ∈ {−1,+1}`.
//! [`QuboBuilder`] accumulates integer QUBO terms and converts them
//! exactly — the substitution `x = (1+σ)/2` is applied with the whole
//! objective scaled by 4 so every Ising coefficient stays an integer:
//!
//! ```text
//! 4·c·x_i x_j = c·σ_i σ_j + c·σ_i + c·σ_j + c
//! 4·l·x_i     = 2l·σ_i + 2l
//! ```
//!
//! Minimizing `Σ Q σσ + Σ L σ + const` equals minimizing our
//! `H = −Σ J σσ − Σ h σ` with `J = −Q`, `h = −L`.

use crate::encode::{checked_coefficient, EncodeError};
use sachi_ising::graph::{GraphBuilder, IsingGraph};
use sachi_ising::spin::{Spin, SpinVector};
use std::collections::BTreeMap;

/// Incremental builder for integer QUBO objectives.
///
/// ```
/// use sachi_workloads::qubo::QuboBuilder;
/// use sachi_ising::spin::{Spin, SpinVector};
///
/// // minimize (x0 - x1)^2 = x0 - 2 x0 x1 + x1
/// let mut q = QuboBuilder::new(2);
/// q.linear(0, 1).linear(1, 1).quadratic(0, 1, -2);
/// let problem = q.build()?;
/// let equal = SpinVector::from_spins(&[Spin::Up, Spin::Up]);
/// let differ = SpinVector::from_spins(&[Spin::Up, Spin::Down]);
/// assert!(problem.objective(&equal) < problem.objective(&differ));
/// # Ok::<(), sachi_workloads::encode::EncodeError>(())
/// ```
#[derive(Debug, Clone)]
pub struct QuboBuilder {
    n: usize,
    linear: Vec<i64>,
    quadratic: BTreeMap<(u32, u32), i64>,
    constant: i64,
}

impl QuboBuilder {
    /// Starts a QUBO over `n` binary variables.
    pub fn new(n: usize) -> Self {
        QuboBuilder {
            n,
            linear: vec![0; n],
            quadratic: BTreeMap::new(),
            constant: 0,
        }
    }

    /// Adds `c · x_i` to the objective.
    ///
    /// # Panics
    ///
    /// Panics if `i >= n`.
    pub fn linear(&mut self, i: usize, c: i64) -> &mut Self {
        // Saturating accumulation: a wrapped i64 could sneak back into
        // the i32 range and encode silently-wrong coefficients; a
        // saturated one is guaranteed to trip `checked_coefficient`'s
        // narrowing in `build`.
        self.linear[i] = self.linear[i].saturating_add(c);
        self
    }

    /// Adds `c · x_i x_j` to the objective (`i != j`; `x^2 = x` belongs in
    /// [`QuboBuilder::linear`]).
    ///
    /// # Panics
    ///
    /// Panics if `i == j` or either index is out of range.
    pub fn quadratic(&mut self, i: usize, j: usize, c: i64) -> &mut Self {
        assert!(i != j, "use linear() for diagonal terms (x^2 = x)");
        assert!(i < self.n && j < self.n, "variable out of range");
        let key = ((i.min(j)) as u32, (i.max(j)) as u32);
        let slot = self.quadratic.entry(key).or_insert(0);
        *slot = slot.saturating_add(c);
        self
    }

    /// Adds a constant offset (tracked so objectives stay comparable).
    pub fn constant(&mut self, c: i64) -> &mut Self {
        self.constant = self.constant.saturating_add(c);
        self
    }

    /// Adds the penalty `w · (k - Σ_{i∈vars} x_i)^2` — the "exactly k of
    /// these" constraint used by one-hot encodings.
    ///
    /// # Panics
    ///
    /// Panics if any variable is out of range.
    pub fn exactly_k_penalty(&mut self, vars: &[usize], k: i64, w: i64) -> &mut Self {
        // (k - Σx)^2 = k^2 - 2kΣx + Σx + 2Σ_{i<j} x_i x_j
        // Saturating products: an overflowed penalty weight saturates,
        // exceeds the i32 coefficient range, and fails `build` loudly.
        self.constant(w.saturating_mul(k).saturating_mul(k));
        let per_var = w.saturating_mul(1i64.saturating_sub(k.saturating_mul(2)));
        for (a, &i) in vars.iter().enumerate() {
            self.linear(i, per_var);
            for &j in &vars[a + 1..] {
                self.quadratic(i, j, w.saturating_mul(2));
            }
        }
        self
    }

    /// Converts to an Ising problem (exact, integer-preserving, objective
    /// scaled by 4).
    ///
    /// # Errors
    ///
    /// Returns [`EncodeError::CoefficientOverflow`] when an accumulated
    /// coupling or field leaves the `i32` range the graph stores (the
    /// conversion is exact or it fails — it never clamps), and wraps any
    /// graph-construction error (cannot occur for indices validated by
    /// the builder).
    pub fn build(&self) -> Result<QuboProblem, EncodeError> {
        let mut h = vec![0i64; self.n];
        let mut builder = GraphBuilder::new(self.n);
        for (i, &l) in self.linear.iter().enumerate() {
            h[i] = l.saturating_mul(2);
        }
        for (&(i, j), &c) in &self.quadratic {
            if c != 0 {
                builder.push_edge(i, j, checked_coefficient("coupling", -c)?);
            }
            h[i as usize] = h[i as usize].saturating_add(c);
            h[j as usize] = h[j as usize].saturating_add(c);
        }
        for (i, &hi) in h.iter().enumerate() {
            builder = builder.field(i as u32, checked_coefficient("field", -hi)?);
        }
        let graph = builder.build()?;
        Ok(QuboProblem {
            graph,
            linear: self.linear.clone(),
            quadratic: self.quadratic.clone(),
            constant: self.constant,
        })
    }
}

/// A built QUBO with its exact Ising image.
#[derive(Debug, Clone)]
pub struct QuboProblem {
    graph: IsingGraph,
    linear: Vec<i64>,
    quadratic: BTreeMap<(u32, u32), i64>,
    constant: i64,
}

impl QuboProblem {
    /// The Ising graph SACHI machines iterate on.
    pub fn graph(&self) -> &IsingGraph {
        &self.graph
    }

    /// Evaluates the original QUBO objective at a spin assignment
    /// (`σ = +1` means `x = 1`).
    pub fn objective(&self, spins: &SpinVector) -> i64 {
        let x = |i: usize| i64::from(spins.get(i) == Spin::Up);
        let mut total = self.constant;
        for (i, &l) in self.linear.iter().enumerate() {
            total += l * x(i);
        }
        for (&(i, j), &c) in &self.quadratic {
            total += c * x(i as usize) * x(j as usize);
        }
        total
    }

    /// Decodes spins to binary variables.
    pub fn decode(&self, spins: &SpinVector) -> Vec<bool> {
        spins.iter().map(|s| s == Spin::Up).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sachi_ising::hamiltonian::energy;

    fn all_assignments(n: usize) -> impl Iterator<Item = SpinVector> {
        (0..(1u32 << n)).map(move |mask| {
            (0..n)
                .map(|b| Spin::from_bit((mask >> b) & 1 == 1))
                .collect()
        })
    }

    #[test]
    fn ising_image_preserves_ordering_exactly() {
        // 4H_ising + const == 4*QUBO for every assignment: check the
        // affine relationship by comparing pairwise differences.
        let mut q = QuboBuilder::new(4);
        q.linear(0, 3)
            .linear(2, -5)
            .quadratic(0, 1, 7)
            .quadratic(1, 3, -2)
            .quadratic(2, 3, 4)
            .constant(11);
        let p = q.build().unwrap();
        let pairs: Vec<(i64, i64)> = all_assignments(4)
            .map(|s| (p.objective(&s), energy(p.graph(), &s)))
            .collect();
        let (q0, h0) = pairs[0];
        for &(qv, hv) in &pairs {
            assert_eq!(4 * (qv - q0), hv - h0, "Ising image not affine-equivalent");
        }
    }

    #[test]
    fn minimizer_agrees() {
        let mut q = QuboBuilder::new(5);
        q.linear(0, -3)
            .linear(4, 2)
            .quadratic(0, 1, 4)
            .quadratic(2, 3, -6)
            .quadratic(1, 4, 1);
        let p = q.build().unwrap();
        let best_qubo = all_assignments(5).min_by_key(|s| p.objective(s)).unwrap();
        let best_ising = all_assignments(5)
            .min_by_key(|s| energy(p.graph(), s))
            .unwrap();
        assert_eq!(p.objective(&best_qubo), p.objective(&best_ising));
    }

    #[test]
    fn exactly_k_penalty_is_zero_iff_satisfied() {
        let mut q = QuboBuilder::new(4);
        q.exactly_k_penalty(&[0, 1, 2, 3], 2, 1);
        let p = q.build().unwrap();
        for s in all_assignments(4) {
            let ones = s.count_up() as i64;
            let expected = (2 - ones) * (2 - ones);
            assert_eq!(p.objective(&s), expected, "penalty wrong at {ones} ones");
        }
    }

    #[test]
    fn quadratic_accumulates_and_normalizes_order() {
        let mut q = QuboBuilder::new(3);
        q.quadratic(2, 0, 5).quadratic(0, 2, 3);
        let p = q.build().unwrap();
        let s11 = SpinVector::from_spins(&[Spin::Up, Spin::Down, Spin::Up]);
        assert_eq!(p.objective(&s11), 8);
    }

    #[test]
    fn decode_roundtrip() {
        let q = QuboBuilder::new(3);
        let p = q.build().unwrap();
        let s = SpinVector::from_spins(&[Spin::Up, Spin::Down, Spin::Up]);
        assert_eq!(p.decode(&s), vec![true, false, true]);
        assert_eq!(p.objective(&s), 0);
    }

    #[test]
    #[should_panic(expected = "diagonal")]
    fn diagonal_quadratic_rejected() {
        let mut q = QuboBuilder::new(2);
        q.quadratic(1, 1, 3);
    }

    // Regression: these inputs used to be silently clamped to i32
    // range, corrupting the encoded Hamiltonian. They must now fail
    // loudly with a typed overflow error.
    #[test]
    fn coupling_overflow_is_rejected_not_clamped() {
        let mut q = QuboBuilder::new(2);
        // -c = 2^31 exceeds i32::MAX, so the Ising coupling overflows.
        q.quadratic(0, 1, i64::from(i32::MIN));
        let err = q.build().expect_err("overflowing coupling must not clamp");
        assert_eq!(
            err,
            EncodeError::CoefficientOverflow {
                what: "coupling",
                value: 1 << 31,
            }
        );
    }

    #[test]
    fn field_overflow_is_rejected_not_clamped() {
        let mut q = QuboBuilder::new(1);
        // h[0] = 2·l overflows i32 even though l itself fits.
        q.linear(0, i64::from(i32::MAX));
        let err = q.build().expect_err("overflowing field must not clamp");
        assert!(matches!(
            err,
            EncodeError::CoefficientOverflow { what: "field", .. }
        ));
    }

    #[test]
    fn accumulated_field_overflow_from_quadratics_is_rejected() {
        // Each individual coupling fits, but the field h[i] accumulates
        // contributions from every incident quadratic term and spills.
        let big = i64::from(i32::MAX) / 2 + 1;
        let mut q = QuboBuilder::new(3);
        q.quadratic(0, 1, -big).quadratic(0, 2, -big);
        let err = q.build().expect_err("accumulated field must not clamp");
        assert!(matches!(
            err,
            EncodeError::CoefficientOverflow { what: "field", .. }
        ));
    }

    #[test]
    fn build_failure_increments_saturation_counter() {
        let before = crate::encode::saturation_count();
        let mut q = QuboBuilder::new(2);
        q.quadratic(0, 1, i64::from(i32::MIN));
        assert!(q.build().is_err());
        assert!(crate::encode::saturation_count() > before);
    }
}
