//! Traveling salesman, Sec. V.2c — in two formulations.
//!
//! The paper evaluates the *decision* version: "this problem checks if
//! `H = Σ J_ij σ_i σ_j < W`", with `J_ij` the distance between cities and
//! the Ising machine iterating on the complete distance graph. That is what
//! the performance/energy experiments run, and [`TspDecision`] reproduces
//! it.
//!
//! For the solution-quality comparisons (Fig. 1, Fig. 16), a decision check
//! alone cannot yield a tour, so we also implement the standard Lucas
//! quadratic formulation ([`TspTour`]): `n^2` one-hot spins `x_{v,p}`
//! ("city v occupies tour position p") with penalty terms enforcing the
//! permutation structure and distance terms scoring the tour. Decoded
//! tours are scored against a nearest-neighbor + 2-opt reference
//! ([`two_opt_tour`]), the same algorithm that stands in for Concorde in
//! `sachi-baselines::optsolv`.

use crate::maxcut::{best_cut_reference, cut_weight};
use crate::quantize::quantize_to_bits;
use crate::qubo::QuboBuilder;
use crate::spec::{CopKind, Workload, WorkloadShape};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use sachi_ising::graph::{GraphBuilder, IsingGraph};
use sachi_ising::spin::{Spin, SpinVector};

/// Generates `n` random city coordinates in the unit square.
pub fn random_cities(n: usize, seed: u64) -> Vec<(f64, f64)> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..n)
        .map(|_| (rng.gen::<f64>(), rng.gen::<f64>()))
        .collect()
}

/// Integer Euclidean distance matrix (scaled by 100).
pub fn distance_matrix(coords: &[(f64, f64)]) -> Vec<Vec<i64>> {
    let n = coords.len();
    let mut d = vec![vec![0i64; n]; n];
    for i in 0..n {
        for j in 0..n {
            let dx = coords[i].0 - coords[j].0;
            let dy = coords[i].1 - coords[j].1;
            d[i][j] = ((dx * dx + dy * dy).sqrt() * 100.0).round() as i64;
        }
    }
    d
}

/// Length of a cyclic tour under a distance matrix.
///
/// # Panics
///
/// Panics if the tour is empty.
pub fn tour_length(tour: &[usize], dist: &[Vec<i64>]) -> i64 {
    assert!(!tour.is_empty(), "tour must not be empty");
    let n = tour.len();
    (0..n).map(|i| dist[tour[i]][tour[(i + 1) % n]]).sum()
}

/// Nearest-neighbor construction followed by 2-opt improvement — the
/// Concorde stand-in reference (see DESIGN.md substitution table).
pub fn two_opt_tour(dist: &[Vec<i64>]) -> Vec<usize> {
    let n = dist.len();
    if n == 0 {
        return Vec::new();
    }
    // Nearest neighbor from city 0.
    let mut tour = Vec::with_capacity(n);
    let mut visited = vec![false; n];
    let mut current = 0usize;
    visited[0] = true;
    tour.push(0);
    for _ in 1..n {
        let next = (0..n)
            .filter(|&j| !visited[j])
            .min_by_key(|&j| dist[current][j])
            .expect("unvisited city exists");
        visited[next] = true;
        tour.push(next);
        current = next;
    }
    // 2-opt until no improving swap.
    let mut improved = true;
    while improved {
        improved = false;
        for a in 0..n.saturating_sub(1) {
            for b in (a + 2)..n {
                if a == 0 && b == n - 1 {
                    continue; // same edge
                }
                let (i, j) = (tour[a], tour[a + 1]);
                let (k, l) = (tour[b], tour[(b + 1) % n]);
                // Saturating: the matrix is caller-supplied, so extreme
                // entries must not wrap the improvement test's sign.
                let delta = dist[i][k]
                    .saturating_add(dist[j][l])
                    .saturating_sub(dist[i][j])
                    .saturating_sub(dist[k][l]);
                if delta < 0 {
                    tour[a + 1..=b].reverse();
                    improved = true;
                }
            }
        }
    }
    tour
}

/// The paper's decision-version TSP: the complete distance graph with
/// `J_ij = -d_ij` (max-cut form) and the `H < W` feasibility check.
#[derive(Debug, Clone)]
pub struct TspDecision {
    coords: Vec<(f64, f64)>,
    graph: IsingGraph,
    resolution_bits: u32,
    reference_cut: i64,
    seed: u64,
}

impl TspDecision {
    /// Builds an `n`-city decision instance at the Fig. 4 default
    /// resolution (5-bit).
    ///
    /// # Panics
    ///
    /// Panics if `n < 3`.
    pub fn new(n: usize, seed: u64) -> Self {
        Self::with_resolution(
            n,
            seed,
            CopKind::TravelingSalesman.typical_resolution_bits(),
        )
    }

    /// Builds an instance with explicit IC resolution.
    ///
    /// # Panics
    ///
    /// Panics if `n < 3` or `bits` is outside `2..=32`.
    pub fn with_resolution(n: usize, seed: u64, bits: u32) -> Self {
        assert!(n >= 3, "TSP needs at least 3 cities");
        let coords = random_cities(n, seed);
        let dist = distance_matrix(&coords);
        let mut raw = Vec::with_capacity(n * (n - 1) / 2);
        for i in 0..n {
            for j in (i + 1)..n {
                raw.push(dist[i][j]);
            }
        }
        let quantized = quantize_to_bits(&raw, bits);
        let mut builder = GraphBuilder::new(n);
        let mut idx = 0;
        for i in 0..n as u32 {
            for j in (i + 1)..n as u32 {
                builder.push_edge(i, j, -quantized[idx]);
                idx += 1;
            }
        }
        let graph = builder
            .build()
            .expect("decision TSP graph construction cannot fail");
        let reference_cut = best_cut_reference(&graph, seed);
        TspDecision {
            coords,
            graph,
            resolution_bits: bits,
            reference_cut,
            seed,
        }
    }

    /// The city coordinates.
    pub fn coords(&self) -> &[(f64, f64)] {
        &self.coords
    }

    /// The paper's feasibility check: is the Hamiltonian of `spins` below
    /// the threshold `w`?
    pub fn hamiltonian_below(&self, spins: &SpinVector, w: i64) -> bool {
        sachi_ising::hamiltonian::energy(&self.graph, spins) < w
    }

    /// Separation weight (cut) achieved by `spins`.
    pub fn cut(&self, spins: &SpinVector) -> i64 {
        cut_weight(&self.graph, spins)
    }
}

impl Workload for TspDecision {
    fn kind(&self) -> CopKind {
        CopKind::TravelingSalesman
    }

    fn name(&self) -> String {
        format!(
            "tsp-decision(n={}, R={}, seed={})",
            self.coords.len(),
            self.resolution_bits,
            self.seed
        )
    }

    fn graph(&self) -> &IsingGraph {
        &self.graph
    }

    fn shape(&self) -> WorkloadShape {
        let n = self.coords.len() as u64;
        WorkloadShape::new(n, n - 1, self.resolution_bits)
    }

    fn accuracy(&self, spins: &SpinVector) -> f64 {
        if self.reference_cut == 0 {
            return 1.0;
        }
        (self.cut(spins) as f64 / self.reference_cut as f64).clamp(0.0, 1.0)
    }
}

/// Lucas quadratic TSP: `n^2` spins, one-hot per city and per position.
#[derive(Debug, Clone)]
pub struct TspTour {
    coords: Vec<(f64, f64)>,
    dist: Vec<Vec<i64>>,
    graph: IsingGraph,
    resolution_bits: u32,
    reference_length: i64,
    seed: u64,
}

impl TspTour {
    /// Builds an `n`-city tour instance (`n^2` spins) at the default 5-bit
    /// distance resolution.
    ///
    /// # Panics
    ///
    /// Panics if `n` is outside `3..=64` (the quadratic blow-up makes
    /// larger functional instances pointless; use [`TspDecision`] for
    /// architecture-scale runs).
    pub fn new(n: usize, seed: u64) -> Self {
        Self::with_resolution(
            n,
            seed,
            CopKind::TravelingSalesman.typical_resolution_bits(),
        )
    }

    /// Builds an instance with explicit distance resolution.
    ///
    /// # Panics
    ///
    /// Panics if `n` is outside `3..=64` or `bits` is outside `2..=32`.
    pub fn with_resolution(n: usize, seed: u64, bits: u32) -> Self {
        assert!(
            (3..=64).contains(&n),
            "TspTour supports 3..=64 cities, got {n}"
        );
        let coords = random_cities(n, seed);
        let dist = distance_matrix(&coords);
        // Quantize distances to R bits.
        let flat: Vec<i64> = dist.iter().flatten().copied().collect();
        let qflat = quantize_to_bits(&flat, bits);
        let quantized_dist: Vec<Vec<i64>> = (0..n)
            .map(|i| (0..n).map(|j| qflat[i * n + j] as i64).collect())
            .collect();
        let max_d = quantized_dist
            .iter()
            .flatten()
            .copied()
            .max()
            .unwrap_or(1)
            .max(1);

        // Lucas TSP as a QUBO: one-hot constraints per city and per
        // position, plus distance terms. Penalty weight A > B * max_d
        // guarantees constraint dominance (B = 1 here).
        let a = 2 * max_d;
        let idx = |v: usize, p: usize| v * n + p;
        let mut q = QuboBuilder::new(n * n);
        // "Each city exactly once" and "each position exactly once".
        for v in 0..n {
            let row: Vec<usize> = (0..n).map(|p| idx(v, p)).collect();
            q.exactly_k_penalty(&row, 1, a);
        }
        for p in 0..n {
            let col: Vec<usize> = (0..n).map(|v| idx(v, p)).collect();
            q.exactly_k_penalty(&col, 1, a);
        }
        // Tour length: Σ_{u != v} d_uv Σ_p x_up x_v,(p+1 mod n).
        for u in 0..n {
            for v in 0..n {
                if u == v {
                    continue;
                }
                for p in 0..n {
                    q.quadratic(idx(u, p), idx(v, (p + 1) % n), quantized_dist[u][v]);
                }
            }
        }
        let graph = q
            .build()
            .expect("TSP tour graph construction cannot fail")
            .graph()
            .clone();
        let reference_length = tour_length(&two_opt_tour(&dist), &dist);
        TspTour {
            coords,
            dist,
            graph,
            resolution_bits: bits,
            reference_length,
            seed,
        }
    }

    /// Number of cities.
    pub fn num_cities(&self) -> usize {
        self.coords.len()
    }

    /// The city coordinates.
    pub fn coords(&self) -> &[(f64, f64)] {
        &self.coords
    }

    /// The integer distance matrix (unquantized).
    pub fn distances(&self) -> &[Vec<i64>] {
        &self.dist
    }

    /// The 2-opt reference tour length.
    pub fn reference_length(&self) -> i64 {
        self.reference_length
    }

    /// Decodes a spin assignment into a tour, repairing violations: each
    /// position takes its set city if unique, and remaining cities are
    /// appended greedily by nearest distance.
    pub fn decode_tour(&self, spins: &SpinVector) -> Vec<usize> {
        let n = self.num_cities();
        let mut tour: Vec<Option<usize>> = vec![None; n];
        let mut used = vec![false; n];
        for p in 0..n {
            let mut candidate = None;
            for v in 0..n {
                if spins.get(v * n + p) == Spin::Up && !used[v] {
                    if candidate.is_none() {
                        candidate = Some(v);
                    } else {
                        candidate = None; // ambiguous: leave for repair
                        break;
                    }
                }
            }
            if let Some(v) = candidate {
                tour[p] = Some(v);
                used[v] = true;
            }
        }
        // Repair: fill empty positions with nearest unused city to the
        // previous fixed city.
        let mut result = Vec::with_capacity(n);
        for p in 0..n {
            match tour[p] {
                Some(v) => result.push(v),
                None => {
                    let prev = result.last().copied();
                    let next = (0..n)
                        .filter(|&v| !used[v])
                        .min_by_key(|&v| prev.map_or(0, |u| self.dist[u][v]))
                        .expect("an unused city must exist");
                    used[next] = true;
                    result.push(next);
                }
            }
        }
        result
    }

    /// Tour length of a decoded assignment.
    pub fn decoded_length(&self, spins: &SpinVector) -> i64 {
        tour_length(&self.decode_tour(spins), &self.dist)
    }
}

impl Workload for TspTour {
    fn kind(&self) -> CopKind {
        CopKind::TravelingSalesman
    }

    fn name(&self) -> String {
        format!(
            "tsp-tour(n={}, R={}, seed={})",
            self.num_cities(),
            self.resolution_bits,
            self.seed
        )
    }

    fn graph(&self) -> &IsingGraph {
        &self.graph
    }

    fn shape(&self) -> WorkloadShape {
        let spins = (self.num_cities() * self.num_cities()) as u64;
        WorkloadShape::new(
            spins,
            self.graph.max_degree() as u64,
            self.graph.bits_required(),
        )
    }

    /// Reference length over achieved length, clamped to `[0, 1]`.
    fn accuracy(&self, spins: &SpinVector) -> f64 {
        let achieved = self.decoded_length(spins).max(1);
        (self.reference_length as f64 / achieved as f64).clamp(0.0, 1.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sachi_ising::prelude::*;

    #[test]
    fn distance_matrix_is_symmetric_zero_diagonal() {
        let coords = random_cities(6, 1);
        let d = distance_matrix(&coords);
        for i in 0..6 {
            assert_eq!(d[i][i], 0);
            for j in 0..6 {
                assert_eq!(d[i][j], d[j][i]);
            }
        }
    }

    #[test]
    fn two_opt_improves_or_matches_nearest_neighbor() {
        let coords = random_cities(15, 3);
        let d = distance_matrix(&coords);
        let tour = two_opt_tour(&d);
        assert_eq!(tour.len(), 15);
        let mut sorted = tour.clone();
        sorted.sort_unstable();
        assert_eq!(
            sorted,
            (0..15).collect::<Vec<_>>(),
            "tour must visit every city once"
        );
        // 2-opt tours of random points are well below the worst case.
        let worst: i64 = (0..15).map(|i| d[i][(i + 1) % 15]).sum();
        assert!(tour_length(&tour, &d) <= worst * 2);
    }

    #[test]
    fn two_opt_finds_square_optimum() {
        // Four corners of a square: optimal tour is the perimeter.
        let coords = vec![(0.0, 0.0), (1.0, 0.0), (1.0, 1.0), (0.0, 1.0)];
        let d = distance_matrix(&coords);
        let tour = two_opt_tour(&d);
        assert_eq!(tour_length(&tour, &d), 400);
    }

    #[test]
    fn decision_graph_shape_is_complete() {
        let w = TspDecision::new(10, 4);
        assert_eq!(w.graph().num_edges(), 45);
        assert_eq!(w.graph().max_degree(), 9);
        let s = w.shape();
        assert_eq!(s.spins, 10);
        assert_eq!(s.neighbors_per_spin, 9);
        assert_eq!(s.resolution_bits, 5);
        assert!(w.name().contains("n=10"));
        assert_eq!(w.coords().len(), 10);
    }

    #[test]
    fn decision_hamiltonian_threshold() {
        let w = TspDecision::new(8, 5);
        let spins = SpinVector::filled(8, Spin::Up);
        let h = sachi_ising::hamiltonian::energy(w.graph(), &spins);
        assert!(w.hamiltonian_below(&spins, h + 1));
        assert!(!w.hamiltonian_below(&spins, h));
    }

    #[test]
    fn decision_solver_accuracy_high() {
        let w = TspDecision::new(16, 6);
        let mut rng = StdRng::seed_from_u64(7);
        let init = SpinVector::random(16, &mut rng);
        let mut solver = CpuReferenceSolver::new();
        let r = solver.solve(w.graph(), &init, &SolveOptions::for_graph(w.graph(), 8));
        assert!(
            w.accuracy(&r.spins) > 0.9,
            "accuracy {}",
            w.accuracy(&r.spins)
        );
    }

    #[test]
    fn tour_instance_builds_n_squared_spins() {
        let w = TspTour::new(5, 1);
        assert_eq!(w.graph().num_spins(), 25);
        assert_eq!(w.num_cities(), 5);
        assert!(w.reference_length() > 0);
    }

    #[test]
    fn decode_repairs_invalid_assignments() {
        let w = TspTour::new(4, 2);
        // All spins down: nothing selected; repair must produce a permutation.
        let empty = SpinVector::filled(16, Spin::Down);
        let tour = w.decode_tour(&empty);
        let mut sorted = tour.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, vec![0, 1, 2, 3]);
        // A valid one-hot assignment decodes exactly.
        let mut valid = SpinVector::filled(16, Spin::Down);
        for (p, v) in [(0usize, 2usize), (1, 0), (2, 3), (3, 1)] {
            valid.set(v * 4 + p, Spin::Up);
        }
        assert_eq!(w.decode_tour(&valid), vec![2, 0, 3, 1]);
    }

    #[test]
    fn annealed_tour_approaches_reference() {
        let w = TspTour::new(6, 3);
        let mut rng = StdRng::seed_from_u64(9);
        let init = SpinVector::random(36, &mut rng);
        let mut solver = CpuReferenceSolver::new();
        let mut best = 0.0f64;
        for seed in 0..5 {
            let r = solver.solve(w.graph(), &init, &SolveOptions::for_graph(w.graph(), seed));
            best = best.max(w.accuracy(&r.spins));
        }
        assert!(best > 0.85, "best tour accuracy {best}");
    }

    #[test]
    #[should_panic(expected = "3..=64")]
    fn tour_rejects_oversized_instances() {
        let _ = TspTour::new(65, 0);
    }

    #[test]
    #[should_panic(expected = "at least 3")]
    fn decision_rejects_tiny_instances() {
        let _ = TspDecision::new(2, 0);
    }
}
