//! The iterative solve protocol and the golden-model CPU solver.
//!
//! Every Ising machine in this workspace — the four SACHI stationarity
//! designs, the resident n3 machine, BRIM, and Ising-CIM — executes the
//! *same* algorithm: sweep the spins, update each by the sign rule
//! (eqn. 3), and let the shared annealer block propose Metropolis uphill
//! flips. The paper leans on this ("the number of iterations across SACHI
//! designs is the same, as they all arrive at the same H at the end of
//! each iteration"). Two things enforce it. Every hardware model drives
//! one [`SweepLoop`], which owns the spins, the annealer, the counters,
//! the sweep cap and cancellation, the freeze/cool/converge rule, and the
//! [`SolveResult`]; its per-spin call wraps [`decide_update`]. And the
//! golden differential tests assert that every machine's H trajectory
//! equals [`CpuReferenceSolver`]'s, whose loop is written out separately
//! so the oracle does not share code with what it checks.
//!
//! Update visibility is *sequential within a sweep* (an updated spin is
//! seen by later spins of the same sweep). In SACHI hardware this is the
//! storage-array-based update of Fig. 8b: each computed spin is written to
//! the storage array and propagated to the relevant tuples via the
//! adjacency matrix, so tuples computed later in the sweep observe it.

use crate::anneal::{Annealer, Schedule};
use crate::graph::IsingGraph;
use crate::hamiltonian::{energy, local_field, update_rule};
use crate::spin::{Spin, SpinVector};
use crate::tempering::TemperingOptions;
use rand::Rng;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

/// A shared job-level cancellation flag, checked by every solver at
/// sweep boundaries.
///
/// Cancellation is a *control-plane* mechanism for long-lived hosts
/// (the `sachi serve` daemon): when the flag is raised mid-solve the
/// solver stops after the sweep it is on and returns the partial state
/// with `converged = false`. A cancelled result therefore depends on
/// *when* the flag was raised — it is advisory, and hosts that promise
/// deterministic output must discard it (the daemon responds with a
/// typed error instead). A token that is never cancelled is provably
/// inert: the solvers read it once per sweep and never write it, so
/// installing a token changes nothing about an uncancelled run.
#[derive(Debug, Clone, Default)]
pub struct CancelToken(Arc<AtomicBool>);

impl CancelToken {
    /// Creates a fresh, uncancelled token.
    pub fn new() -> Self {
        CancelToken::default()
    }

    /// Raises the flag. Every solver sharing this token stops at its
    /// next sweep boundary. Idempotent.
    pub fn cancel(&self) {
        self.0.store(true, Ordering::Release);
    }

    /// True once [`CancelToken::cancel`] has been called.
    pub fn is_cancelled(&self) -> bool {
        self.0.load(Ordering::Acquire)
    }
}

/// Options controlling an iterative solve.
#[derive(Debug, Clone)]
pub struct SolveOptions {
    /// Hard cap on sweeps (Hamiltonian iterations).
    pub max_sweeps: u64,
    /// Annealing schedule.
    pub schedule: Schedule,
    /// RNG seed for the annealer block.
    pub seed: u64,
    /// Record the post-sweep energy trace (Fig. 19a).
    pub record_trace: bool,
    /// Optional hard budget on per-spin update *steps* (a timeout guard
    /// expressed in work, not wall-clock, so it stays deterministic).
    /// `None` leaves `max_sweeps` as the only cap.
    pub step_budget: Option<u64>,
    /// Optional job-level cancellation hook, shared across the replicas
    /// of one job. `None` (the default) is equivalent to a token that
    /// is never cancelled.
    pub cancel: Option<CancelToken>,
    /// Optional replica-exchange (parallel tempering) configuration.
    /// Read by [`crate::ensemble::EnsembleRunner`] only — individual
    /// solvers ignore it, and `None` (the default) is the plain
    /// independent-replica ensemble.
    pub tempering: Option<TemperingOptions>,
}

impl SolveOptions {
    /// Options matched to a graph's coefficient range.
    pub fn for_graph(graph: &IsingGraph, seed: u64) -> Self {
        SolveOptions {
            max_sweeps: 10_000,
            schedule: Schedule::for_coefficient_range(graph.max_abs_coefficient()),
            seed,
            record_trace: false,
            step_budget: None,
            cancel: None,
            tempering: None,
        }
    }

    /// Enables trace recording.
    #[must_use]
    pub fn with_trace(mut self) -> Self {
        self.record_trace = true;
        self
    }

    /// Sets the sweep cap.
    #[must_use]
    pub fn with_max_sweeps(mut self, max_sweeps: u64) -> Self {
        self.max_sweeps = max_sweeps;
        self
    }

    /// Sets the step budget (per-spin updates across all sweeps).
    #[must_use]
    pub fn with_step_budget(mut self, steps: u64) -> Self {
        self.step_budget = Some(steps);
        self
    }

    /// Installs a job-level cancellation token (see [`CancelToken`]).
    #[must_use]
    pub fn with_cancel(mut self, token: CancelToken) -> Self {
        self.cancel = Some(token);
        self
    }

    /// Enables replica-exchange parallel tempering for ensemble runs
    /// (see [`TemperingOptions`]).
    #[must_use]
    pub fn with_tempering(mut self, tempering: TemperingOptions) -> Self {
        self.tempering = Some(tempering);
        self
    }

    /// True when a token is installed and has been cancelled. Solvers
    /// check this once per sweep and stop early with `converged =
    /// false`; with no token installed it is always false.
    pub fn is_cancelled(&self) -> bool {
        self.cancel.as_ref().is_some_and(CancelToken::is_cancelled)
    }

    /// The sweep cap after applying the step budget for a problem of
    /// `num_spins` spins: `min(max_sweeps, max(1, budget / num_spins))`.
    /// Every solver derives its loop bound from this, so a budgeted run
    /// is the same function on every machine and the conformance suites
    /// keep holding with a budget set.
    pub fn effective_max_sweeps(&self, num_spins: usize) -> u64 {
        match self.step_budget {
            None => self.max_sweeps,
            Some(budget) => {
                let spins = u64::try_from(num_spins.max(1)).unwrap_or(u64::MAX);
                self.max_sweeps.min((budget / spins).max(1))
            }
        }
    }
}

impl Default for SolveOptions {
    fn default() -> Self {
        SolveOptions {
            max_sweeps: 10_000,
            schedule: Schedule::default(),
            seed: 0,
            record_trace: false,
            step_budget: None,
            cancel: None,
            tempering: None,
        }
    }
}

/// Outcome of an iterative solve.
///
/// Equality is byte-for-byte over every field — the determinism and
/// conformance suites compare whole results across thread counts and
/// machines.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SolveResult {
    /// Final spin configuration.
    pub spins: SpinVector,
    /// Final Hamiltonian energy.
    pub energy: i64,
    /// Sweeps executed (the paper's "iterations").
    pub sweeps: u64,
    /// Total spin flips applied.
    pub flips: u64,
    /// True if the solve reached the converged state (no flips in a full
    /// sweep with the annealer frozen) before `max_sweeps`.
    pub converged: bool,
    /// Post-sweep energies, if requested.
    pub trace: Vec<i64>,
    /// Metropolis uphill moves the annealer block accepted.
    pub uphill_accepted: u64,
    /// Metropolis uphill moves the annealer block rejected.
    pub uphill_rejected: u64,
    /// True if the machine hit its fault-recovery budget (or a fail-fast
    /// abort) and the result may be corrupted. Degraded replicas lose
    /// `BestOf` ties to healthy ones.
    pub degraded: bool,
}

impl SolveResult {
    /// Exports the algorithmic outcome into `reg` under the `solver_`
    /// prefix. Counters only — the final energy is a signed quantity
    /// and goes out as a gauge.
    pub fn export_metrics(&self, reg: &mut sachi_obs::MetricsRegistry) {
        reg.counter_add("solver_sweeps", self.sweeps);
        reg.counter_add("solver_flips", self.flips);
        reg.counter_add("solver_uphill_accepted", self.uphill_accepted);
        reg.counter_add("solver_uphill_rejected", self.uphill_rejected);
        reg.counter_add("solver_converged_replicas", u64::from(self.converged));
        reg.counter_add("solver_degraded_replicas", u64::from(self.degraded));
        reg.observe("solver_replica_flips", self.flips);
    }
}

/// The per-spin decision shared by every machine: deterministic sign update
/// (eqn. 3) plus a Metropolis proposal when the deterministic rule keeps
/// the spin.
///
/// Zero-cost flips (`H_σ = 0` ties) are accepted with probability 1/2
/// while the annealer is live — the standard Metropolis treatment.
/// Without it, domain walls (whose motion is a ΔH = 0 move) cannot
/// diffuse and cyclic instances freeze two walls apart from the optimum.
/// Once the annealer freezes, ties keep the current value so sweeps can
/// reach quiescence and the convergence detector can fire.
///
/// Returns the new spin value. Machines presenting the same `h_sigma`
/// sequence to the same-seeded annealer make identical decisions.
#[inline]
pub fn decide_update(current: Spin, h_sigma: i64, annealer: &mut Annealer) -> Spin {
    let desired = update_rule(h_sigma, current);
    if desired != current {
        return desired;
    }
    // Flipping a spin that the sign rule keeps costs ΔH = -2 σ H_σ >= 0.
    let delta = -2 * current.value() * h_sigma;
    if !annealer.is_frozen() {
        if delta == 0 {
            // Tie: heat-bath coin flip.
            if annealer.rng().gen::<bool>() {
                return current.flipped();
            }
        } else if annealer.accept(delta) {
            return current.flipped();
        }
    }
    current
}

/// One solve's run of the shared protocol: the state and rules every
/// hardware model drives, with the model's own accounting kept outside.
///
/// It owns the spins, the [`Annealer`], the sweep/flip/decision/trace
/// counters, the sweep cap ([`SolveOptions::effective_max_sweeps`]) and
/// the cancellation check, the freeze/cool/converge rule, and the
/// [`SolveResult`] assembly. A machine's loop reads:
///
/// ```text
/// let mut sweep = SweepLoop::new(graph, initial, options);
/// while sweep.begin_sweep() {
///     for i in ... { let h = /* the machine's H_σ */; sweep.update(i, h); }
///     sweep.end_sweep(graph);
/// }
/// sweep.finish(graph, degraded)
/// ```
///
/// A machine that aborts mid-sweep (a fail-fast fault) leaves the loop
/// without [`SweepLoop::end_sweep`]: the aborted sweep's spin writes
/// stay, but it is not counted, its flips are not added to
/// [`SolveResult::flips`], no trace entry is pushed, and the annealer
/// does not cool.
#[derive(Debug)]
pub struct SweepLoop {
    spins: SpinVector,
    annealer: Annealer,
    max_sweeps: u64,
    cancel: Option<CancelToken>,
    record_trace: bool,
    trace: Vec<i64>,
    sweeps: u64,
    flips: u64,
    sweep_flips: u64,
    decisions: u64,
    converged: bool,
}

impl SweepLoop {
    /// Starts a solve of `graph` from `initial` under `options`.
    ///
    /// # Panics
    ///
    /// Panics if the initial spin vector does not match the graph.
    pub fn new(graph: &IsingGraph, initial: &SpinVector, options: &SolveOptions) -> Self {
        assert_eq!(
            initial.len(),
            graph.num_spins(),
            "initial spins must match graph size"
        );
        SweepLoop {
            spins: initial.clone(),
            annealer: Annealer::new(options.schedule, options.seed),
            max_sweeps: options.effective_max_sweeps(graph.num_spins()),
            cancel: options.cancel.clone(),
            record_trace: options.record_trace,
            trace: Vec::new(),
            sweeps: 0,
            flips: 0,
            sweep_flips: 0,
            decisions: 0,
            converged: false,
        }
    }

    /// Opens the next sweep. False once the solve has converged, reached
    /// its sweep cap, or had its [`CancelToken`] raised — the caller's
    /// loop ends there.
    #[inline]
    pub fn begin_sweep(&mut self) -> bool {
        if self.converged
            || self.sweeps >= self.max_sweeps
            || self.cancel.as_ref().is_some_and(CancelToken::is_cancelled)
        {
            return false;
        }
        self.sweep_flips = 0;
        true
    }

    /// Decides spin `i` from its local field `h_sigma` with
    /// [`decide_update`] and applies the result. Returns the new value
    /// when the spin flipped, so the caller can run its update path.
    #[inline]
    pub fn update(&mut self, i: usize, h_sigma: i64) -> Option<Spin> {
        let current = self.spins.get(i);
        let new = decide_update(current, h_sigma, &mut self.annealer);
        self.decisions += 1;
        if new == current {
            return None;
        }
        self.spins.set(i, new);
        self.sweep_flips += 1;
        Some(new)
    }

    /// Applies a flip of spin `i` to `new` decided outside
    /// [`SweepLoop::update`] — for a machine whose update rule is not the
    /// sequential protocol's (the group-parallel CMOS annealer).
    #[inline]
    pub fn flip(&mut self, i: usize, new: Spin) {
        self.spins.set(i, new);
        self.sweep_flips += 1;
    }

    /// Closes a completed sweep: counts it and its flips, records the
    /// trace entry, cools the annealer, and detects convergence (no flip
    /// in a full sweep with the annealer frozen).
    pub fn end_sweep(&mut self, graph: &IsingGraph) {
        self.sweeps += 1;
        self.flips += self.sweep_flips;
        if self.record_trace {
            self.trace.push(energy(graph, &self.spins));
        }
        let frozen = self.annealer.is_frozen();
        self.annealer.cool();
        self.converged = self.sweep_flips == 0 && frozen;
    }

    /// The current spins.
    #[inline]
    pub fn spins(&self) -> &SpinVector {
        &self.spins
    }

    /// The annealer block, for a machine with its own acceptance rule.
    #[inline]
    pub fn annealer(&self) -> &Annealer {
        &self.annealer
    }

    /// Completed sweeps — also the index of the sweep in progress.
    #[inline]
    pub fn sweeps(&self) -> u64 {
        self.sweeps
    }

    /// Flips applied so far in the sweep in progress.
    #[inline]
    pub fn sweep_flips(&self) -> u64 {
        self.sweep_flips
    }

    /// Annealer decisions made so far: every [`SweepLoop::update`] call,
    /// an aborted sweep's included.
    #[inline]
    pub fn decisions(&self) -> u64 {
        self.decisions
    }

    /// Assembles the outcome. `degraded` is the machine's fault verdict.
    pub fn finish(self, graph: &IsingGraph, degraded: bool) -> SolveResult {
        SolveResult {
            energy: energy(graph, &self.spins),
            spins: self.spins,
            sweeps: self.sweeps,
            flips: self.flips,
            converged: self.converged,
            trace: self.trace,
            uphill_accepted: self.annealer.uphill_accepted(),
            uphill_rejected: self.annealer.uphill_rejected(),
            degraded,
        }
    }
}

/// An iterative Ising machine: anything that can run the solve protocol.
pub trait IterativeSolver {
    /// Runs the solve from `initial` and returns the outcome.
    fn solve(
        &mut self,
        graph: &IsingGraph,
        initial: &SpinVector,
        options: &SolveOptions,
    ) -> SolveResult;
}

/// Golden-model software solver: the exact protocol with none of the
/// hardware modeling. Architecture simulators must match its output
/// bit-for-bit. Its loop deliberately does not use [`SweepLoop`]: it is
/// the independent oracle the machines' shared loop is checked against.
#[derive(Debug, Clone, Copy, Default)]
pub struct CpuReferenceSolver;

impl CpuReferenceSolver {
    /// Creates the solver.
    pub fn new() -> Self {
        CpuReferenceSolver
    }
}

impl IterativeSolver for CpuReferenceSolver {
    fn solve(
        &mut self,
        graph: &IsingGraph,
        initial: &SpinVector,
        options: &SolveOptions,
    ) -> SolveResult {
        assert_eq!(
            initial.len(),
            graph.num_spins(),
            "initial spins must match graph size"
        );
        let mut spins = initial.clone();
        let mut annealer = Annealer::new(options.schedule, options.seed);
        let mut trace = Vec::new();
        let mut total_flips = 0u64;
        let mut sweeps = 0u64;
        let mut converged = false;

        let max_sweeps = options.effective_max_sweeps(graph.num_spins());
        while sweeps < max_sweeps {
            if options.is_cancelled() {
                break;
            }
            let mut flips_this_sweep = 0u64;
            for i in 0..graph.num_spins() {
                let h_sigma = local_field(graph, &spins, i);
                let current = spins.get(i);
                let new = decide_update(current, h_sigma, &mut annealer);
                if new != current {
                    spins.set(i, new);
                    flips_this_sweep += 1;
                }
            }
            sweeps += 1;
            total_flips += flips_this_sweep;
            if options.record_trace {
                trace.push(energy(graph, &spins));
            }
            let frozen = annealer.is_frozen();
            annealer.cool();
            if flips_this_sweep == 0 && frozen {
                converged = true;
                break;
            }
        }

        SolveResult {
            energy: energy(graph, &spins),
            spins,
            sweeps,
            flips: total_flips,
            converged,
            trace,
            uphill_accepted: annealer.uphill_accepted(),
            uphill_rejected: annealer.uphill_rejected(),
            degraded: false,
        }
    }
}

/// Runs `restarts` independent solves and returns the best-energy
/// result. Standard practice for simulated annealing, used by the
/// examples and the Fig. 16/19 harnesses.
///
/// Restart `k` runs with the seed
/// [`crate::ensemble::derive_replica_seed`]`(options.seed, k)` — the
/// same derivation the parallel [`crate::ensemble::EnsembleRunner`]
/// uses, so a sequential multi-start through one borrowed solver is
/// bit-identical to a threaded ensemble of the same solver (the
/// conformance suite asserts this).
///
/// # Panics
///
/// Panics if `restarts == 0` or `restarts` overflows `usize`.
pub fn solve_multi_start<S: IterativeSolver>(
    solver: &mut S,
    graph: &IsingGraph,
    initial: &SpinVector,
    options: &SolveOptions,
    restarts: u64,
) -> SolveResult {
    assert!(restarts > 0, "need at least one restart");
    let replicas = usize::try_from(restarts).expect("restart count fits in usize");
    crate::ensemble::EnsembleRunner::new(replicas)
        .run_sequential(solver, graph, initial, options)
        .into_best()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::{topology, GraphBuilder};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn ferromagnet_reaches_ground_state() {
        // King's graph, all J = +1: ground state is all spins aligned.
        let g = topology::king(6, 6, |_, _| 1).unwrap();
        let mut rng = StdRng::seed_from_u64(1);
        let init = SpinVector::random(36, &mut rng);
        let mut solver = CpuReferenceSolver::new();
        let opts = SolveOptions::for_graph(&g, 7);
        let result = solver.solve(&g, &init, &opts);
        assert!(
            result.converged,
            "did not converge in {} sweeps",
            result.sweeps
        );
        let ups = result.spins.count_up();
        assert!(ups == 0 || ups == 36, "not aligned: {ups} up");
        assert_eq!(result.energy, -(g.num_edges() as i64));
    }

    #[test]
    fn antiferromagnetic_pair_settles() {
        let g = GraphBuilder::new(2).edge(0, 1, -7).build().unwrap();
        let init = SpinVector::from_spins(&[Spin::Up, Spin::Up]);
        let mut solver = CpuReferenceSolver::new();
        let result = solver.solve(&g, &init, &SolveOptions::for_graph(&g, 3));
        assert_eq!(result.energy, -7);
        assert_ne!(result.spins.get(0), result.spins.get(1));
        assert!(result.converged);
    }

    #[test]
    fn deterministic_for_fixed_seed() {
        let g = topology::complete(12, |i, j| ((i * 3 + j * 5) % 11) as i32 - 5).unwrap();
        let mut rng = StdRng::seed_from_u64(2);
        let init = SpinVector::random(12, &mut rng);
        let mut solver = CpuReferenceSolver::new();
        let opts = SolveOptions::for_graph(&g, 99).with_trace();
        let a = solver.solve(&g, &init, &opts);
        let b = solver.solve(&g, &init, &opts);
        assert_eq!(a.energy, b.energy);
        assert_eq!(a.trace, b.trace);
        assert_eq!(a.spins, b.spins);
        assert_eq!(a.sweeps, b.sweeps);
    }

    #[test]
    fn trace_records_every_sweep_and_ends_low() {
        let g = topology::grid4(5, 5, |_, _| 2).unwrap();
        let mut rng = StdRng::seed_from_u64(5);
        let init = SpinVector::random(25, &mut rng);
        let mut solver = CpuReferenceSolver::new();
        let result = solver.solve(&g, &init, &SolveOptions::for_graph(&g, 5).with_trace());
        assert_eq!(result.trace.len() as u64, result.sweeps);
        assert_eq!(*result.trace.last().unwrap(), result.energy);
        // The trace's final value is its minimum (greedy tail).
        assert_eq!(result.trace.iter().min(), result.trace.last());
    }

    #[test]
    fn max_sweeps_caps_work() {
        let g = topology::complete(20, |i, j| if (i + j) % 2 == 0 { 3 } else { -3 }).unwrap();
        let mut rng = StdRng::seed_from_u64(8);
        let init = SpinVector::random(20, &mut rng);
        let mut solver = CpuReferenceSolver::new();
        let opts = SolveOptions {
            max_sweeps: 2,
            ..SolveOptions::for_graph(&g, 1)
        };
        let result = solver.solve(&g, &init, &opts);
        assert_eq!(result.sweeps, 2);
        assert!(!result.converged);
    }

    #[test]
    fn step_budget_caps_sweeps() {
        let g = topology::complete(20, |i, j| if (i + j) % 2 == 0 { 3 } else { -3 }).unwrap();
        let mut rng = StdRng::seed_from_u64(8);
        let init = SpinVector::random(20, &mut rng);
        let mut solver = CpuReferenceSolver::new();
        // 100 steps over 20 spins => 5 sweeps.
        let opts = SolveOptions::for_graph(&g, 1).with_step_budget(100);
        assert_eq!(opts.effective_max_sweeps(20), 5);
        let result = solver.solve(&g, &init, &opts);
        assert!(result.sweeps <= 5);
        // A budget smaller than one sweep still allows a single sweep.
        assert_eq!(opts.clone().with_step_budget(3).effective_max_sweeps(20), 1);
        // max_sweeps stays the binding cap when it is tighter.
        let tight = opts.with_max_sweeps(2);
        assert_eq!(tight.effective_max_sweeps(20), 2);
        // No budget: unchanged.
        assert_eq!(
            SolveOptions::for_graph(&g, 1).effective_max_sweeps(20),
            10_000
        );
        // Degenerate zero-spin problems never divide by zero.
        assert_eq!(tight.effective_max_sweeps(0), 2);
    }

    #[test]
    fn pre_cancelled_token_stops_before_the_first_sweep() {
        let g = topology::complete(20, |i, j| if (i + j) % 2 == 0 { 3 } else { -3 }).unwrap();
        let mut rng = StdRng::seed_from_u64(8);
        let init = SpinVector::random(20, &mut rng);
        let mut solver = CpuReferenceSolver::new();
        let token = CancelToken::new();
        assert!(!token.is_cancelled());
        token.cancel();
        let opts = SolveOptions::for_graph(&g, 1).with_cancel(token);
        assert!(opts.is_cancelled());
        let result = solver.solve(&g, &init, &opts);
        assert_eq!(result.sweeps, 0);
        assert!(!result.converged);
        // The partial state is still a coherent result: the energy
        // matches the untouched initial spins.
        assert_eq!(result.spins, init);
        assert_eq!(result.energy, energy(&g, &init));
    }

    #[test]
    fn uncancelled_token_is_unobservable() {
        let g = topology::complete(16, |i, j| if (i * j) % 3 == 0 { 2 } else { -1 }).unwrap();
        let mut rng = StdRng::seed_from_u64(4);
        let init = SpinVector::random(16, &mut rng);
        let mut solver = CpuReferenceSolver::new();
        let bare = solver.solve(&g, &init, &SolveOptions::for_graph(&g, 7));
        let tokened = solver.solve(
            &g,
            &init,
            &SolveOptions::for_graph(&g, 7).with_cancel(CancelToken::new()),
        );
        assert_eq!(bare, tokened);
    }

    #[test]
    fn decide_update_follows_sign_rule() {
        let mut a = Annealer::new(Schedule::default(), 0);
        a.freeze();
        assert_eq!(decide_update(Spin::Up, 5, &mut a), Spin::Down);
        assert_eq!(decide_update(Spin::Down, -5, &mut a), Spin::Up);
        // Frozen annealer cannot flip an already-optimal spin.
        assert_eq!(decide_update(Spin::Up, -5, &mut a), Spin::Up);
        assert_eq!(decide_update(Spin::Down, 0, &mut a), Spin::Down);
    }

    #[test]
    fn annealing_escapes_local_minimum_more_often_than_greedy() {
        // A frustrated instance where greedy from a bad start gets stuck:
        // two triangles sharing an edge with mixed signs.
        let g = GraphBuilder::new(4)
            .edge(0, 1, 3)
            .edge(1, 2, 3)
            .edge(0, 2, -3)
            .edge(2, 3, 3)
            .edge(1, 3, -3)
            .build()
            .unwrap();
        let init = SpinVector::from_spins(&[Spin::Up, Spin::Down, Spin::Up, Spin::Down]);
        let mut solver = CpuReferenceSolver::new();
        // Exhaustive ground-state search over 16 configurations.
        let mut best = i64::MAX;
        for mask in 0..16u32 {
            let s: SpinVector = (0..4)
                .map(|b| Spin::from_bit((mask >> b) & 1 == 1))
                .collect();
            best = best.min(energy(&g, &s));
        }
        let hits = (0..20)
            .filter(|&seed| {
                let r = solver.solve(&g, &init, &SolveOptions::for_graph(&g, seed));
                r.energy == best
            })
            .count();
        assert!(
            hits >= 12,
            "annealing found ground state only {hits}/20 times"
        );
    }

    #[test]
    fn multi_start_never_worse_than_single() {
        let g = topology::complete(14, |i, j| ((i * 7 + j * 3) % 13) as i32 - 6).unwrap();
        let mut rng = StdRng::seed_from_u64(21);
        let init = SpinVector::random(14, &mut rng);
        let mut solver = CpuReferenceSolver::new();
        let opts = SolveOptions::for_graph(&g, 5);
        let single = solver.solve(&g, &init, &opts);
        let multi = solve_multi_start(&mut solver, &g, &init, &opts, 8);
        assert!(multi.energy <= single.energy);
    }

    #[test]
    #[should_panic(expected = "at least one restart")]
    fn zero_restarts_rejected() {
        let g = GraphBuilder::new(2).edge(0, 1, 1).build().unwrap();
        let init = SpinVector::filled(2, Spin::Up);
        let mut solver = CpuReferenceSolver::new();
        let _ = solve_multi_start(&mut solver, &g, &init, &SolveOptions::default(), 0);
    }

    #[test]
    fn empty_graph_converges_immediately() {
        let g = GraphBuilder::new(4).build().unwrap();
        let init = SpinVector::filled(4, Spin::Up);
        let mut solver = CpuReferenceSolver::new();
        let mut opts = SolveOptions::for_graph(&g, 0);
        opts.schedule = Schedule::fast();
        let result = solver.solve(&g, &init, &opts);
        assert!(result.converged);
        assert_eq!(result.energy, 0);
        // Isolated spins sit on H_σ = 0 ties: the live annealer coin-flips
        // them, so flips may be non-zero, but quiescence follows freezing.
    }
}
