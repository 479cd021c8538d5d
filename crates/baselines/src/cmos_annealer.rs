//! CMOS annealing baseline: a Hitachi-style dedicated digital Ising chip
//! (Yamaoka et al., JSSC 2016 — the paper’s reference \[36\]).
//!
//! The third machine generation the paper positions SACHI against:
//! spins live in on-chip SRAM next to dedicated update logic; groups of
//! non-adjacent cells update *in parallel* each phase. Its envelope is
//! narrow — King's-graph connectivity, ternary coefficients
//! `{-1, 0, +1}`, 20k spins per chip — and, unlike every iterative
//! machine in this workspace, its **group-parallel update follows a
//! different trajectory** than the sequential golden protocol: cells in
//! one group see only the *previous* values of cells updated later. The
//! tests demonstrate both facts: trajectories differ, final solution
//! quality is comparable.
//!
//! A proper King's-graph update grouping needs 4 colors (the 2x2 block
//! classes): two same-class cells are never adjacent, so a phase's
//! parallel updates never race.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use sachi_ising::graph::IsingGraph;
use sachi_ising::hamiltonian::{local_field, update_rule};
use sachi_ising::solver::{SolveOptions, SolveResult, SweepLoop};
use sachi_ising::spin::SpinVector;
use sachi_mem::energy::{EnergyComponent, EnergyLedger};
use sachi_mem::params::TechnologyParams;
use sachi_mem::units::{Cycles, Nanoseconds};
use std::fmt;

/// Chip capacity (the JSSC chip: 20k spins).
pub const CMOS_ANNEALER_MAX_SPINS: usize = 20_000;

/// Error for problems outside the chip's envelope.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CmosAnnealerError {
    /// More spins than the chip holds.
    TooManySpins {
        /// Requested spin count.
        spins: usize,
    },
    /// Degree above King's-graph connectivity.
    NotKingsGraph {
        /// Maximum degree found.
        max_degree: usize,
    },
    /// A coefficient outside `{-1, 0, +1}`.
    CoefficientNotTernary {
        /// The offending coefficient.
        value: i32,
    },
}

impl fmt::Display for CmosAnnealerError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CmosAnnealerError::TooManySpins { spins } => {
                write!(
                    f,
                    "CMOS annealer holds {CMOS_ANNEALER_MAX_SPINS} spins, got {spins}"
                )
            }
            CmosAnnealerError::NotKingsGraph { max_degree } => {
                write!(
                    f,
                    "CMOS annealer supports King's graphs (degree <= 8), got {max_degree}"
                )
            }
            CmosAnnealerError::CoefficientNotTernary { value } => {
                write!(
                    f,
                    "CMOS annealer supports ternary coefficients, got {value}"
                )
            }
        }
    }
}

impl std::error::Error for CmosAnnealerError {}

/// Report of a CMOS-annealer solve.
#[derive(Debug, Clone)]
pub struct CmosAnnealerReport {
    /// Sweeps executed (each = 4 parallel group phases).
    pub sweeps: u64,
    /// Total cycles including loading.
    pub total_cycles: Cycles,
    /// Wall-clock time.
    pub wall_time: Nanoseconds,
    /// Energy ledger.
    pub energy: EnergyLedger,
    /// Update groups per sweep (4 for King's graphs).
    pub groups: u64,
}

/// The group-parallel dedicated annealer.
#[derive(Debug, Clone)]
pub struct CmosAnnealer {
    tech: TechnologyParams,
    /// Cycles one parallel group phase takes (local read + MAC + write).
    pub cycles_per_phase: u64,
    /// Lattice width used to derive the 4-coloring; spins index as
    /// `row * width + col`.
    width: usize,
}

impl CmosAnnealer {
    /// Creates a chip model for a lattice of the given width.
    ///
    /// # Panics
    ///
    /// Panics if `width == 0`.
    pub fn new(width: usize) -> Self {
        assert!(width > 0, "lattice width must be positive");
        CmosAnnealer {
            tech: TechnologyParams::freepdk45(),
            cycles_per_phase: 2,
            width,
        }
    }

    /// Checks the chip's envelope.
    ///
    /// # Errors
    ///
    /// Returns [`CmosAnnealerError`] outside the envelope.
    pub fn check_limits(&self, graph: &IsingGraph) -> Result<(), CmosAnnealerError> {
        if graph.num_spins() > CMOS_ANNEALER_MAX_SPINS {
            return Err(CmosAnnealerError::TooManySpins {
                spins: graph.num_spins(),
            });
        }
        if graph.max_degree() > 8 {
            return Err(CmosAnnealerError::NotKingsGraph {
                max_degree: graph.max_degree(),
            });
        }
        for (_, _, w) in graph.edges() {
            if !(-1..=1).contains(&w) {
                return Err(CmosAnnealerError::CoefficientNotTernary { value: w });
            }
        }
        Ok(())
    }

    /// The 2x2-block update group of spin `i` (0..4).
    fn group_of(&self, i: usize) -> usize {
        let (r, c) = (i / self.width, i % self.width);
        (r % 2) * 2 + (c % 2)
    }

    /// Cycles per sweep: 4 group phases, each a fixed-latency parallel
    /// read-MAC-write — the dedicated-logic speed the paper concedes to
    /// this generation, bought with its narrow envelope.
    pub fn cycles_per_sweep(&self) -> u64 {
        4 * self.cycles_per_phase
    }

    /// Runs a group-parallel annealed solve. NOTE: this machine does
    /// *not* follow the shared sequential protocol — within a phase every
    /// cell sees the pre-phase state of its own group (they are never
    /// adjacent, so this equals the sequential result *within* the
    /// group), but groups see each other's latest values only between
    /// phases. It still drives the shared [`SweepLoop`] for the sweep
    /// cap, cancellation, trace, cooling and convergence; only the
    /// per-cell decision is its own.
    ///
    /// # Errors
    ///
    /// Returns [`CmosAnnealerError`] if the graph violates the envelope.
    ///
    /// # Panics
    ///
    /// Panics if `initial.len()` does not match the graph.
    pub fn solve_detailed(
        &mut self,
        graph: &IsingGraph,
        initial: &SpinVector,
        options: &SolveOptions,
    ) -> Result<(SolveResult, CmosAnnealerReport), CmosAnnealerError> {
        self.check_limits(graph)?;
        let mut sweep = SweepLoop::new(graph, initial, options);
        let n = graph.num_spins();
        let mut rng = StdRng::seed_from_u64(options.seed ^ 0xc3_05);
        let mut ledger = EnergyLedger::new();

        // Loading: spins + ternary ICs (2 bits each) into the on-chip SRAM.
        let payload_bits = n as u64 + 2 * graph.num_edges() as u64 * 2;
        let mut total_cycles = self.tech.dram_stream_cycles(payload_bits.div_ceil(8));
        ledger.record(
            EnergyComponent::DramAccess,
            self.tech.movement_energy_per_bit() * payload_bits,
        );
        ledger.record(
            EnergyComponent::SramWrite,
            self.tech.sram_write_energy_per_bit() * payload_bits,
        );

        while sweep.begin_sweep() {
            for group in 0..4usize {
                // All cells of one group update in parallel from the
                // current state (no intra-group adjacency).
                let mut updates = Vec::new();
                for i in (0..n).filter(|&i| self.group_of(i) == group) {
                    let h = local_field(graph, sweep.spins(), i);
                    let current = sweep.spins().get(i);
                    let mut new = update_rule(h, current);
                    // Hitachi-style annealing: random bit injection with
                    // probability tied to the shared schedule temperature.
                    if new == current {
                        let p = sweep.annealer().acceptance_probability(2 * h.abs().max(1));
                        if p > 0.0 && rng.gen::<f64>() < p {
                            new = current.flipped();
                        }
                    }
                    if new != current {
                        updates.push((i, new));
                    }
                }
                for &(i, new) in &updates {
                    sweep.flip(i, new);
                    // Local update write.
                    ledger.record(
                        EnergyComponent::SramWrite,
                        self.tech.sram_write_energy_per_bit() * 1u64,
                    );
                }
                // Phase energy: every cell reads its 8 neighbor spins and
                // ternary ICs into its MAC.
                let cells = n as u64 / 4;
                ledger.record(
                    EnergyComponent::SramRead,
                    self.tech.rbl_energy_per_bit() * (cells * 8 * 3),
                );
                ledger.record(
                    EnergyComponent::NearMemoryAdd,
                    self.tech.adder_energy_per_bit() * (cells * 8 * 2),
                );
            }
            ledger.record(
                EnergyComponent::Annealer,
                self.tech.annealer_energy_per_decision() * n as u64,
            );
            total_cycles += Cycles::new(self.cycles_per_sweep());
            sweep.end_sweep(graph);
        }

        let report = CmosAnnealerReport {
            sweeps: sweep.sweeps(),
            total_cycles,
            wall_time: total_cycles.to_time(self.tech.cycle_time),
            energy: ledger,
            groups: 4,
        };
        Ok((sweep.finish(graph, false), report))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sachi_ising::graph::topology;
    use sachi_ising::solver::{CpuReferenceSolver, IterativeSolver};

    fn lattice(side: usize, seed: u64) -> (IsingGraph, SpinVector, SolveOptions) {
        let g = topology::king(side, side, |_, _| 1).unwrap();
        let mut rng = StdRng::seed_from_u64(seed);
        let init = SpinVector::random(side * side, &mut rng);
        let opts = SolveOptions::for_graph(&g, seed + 1).with_trace();
        (g, init, opts)
    }

    #[test]
    fn group_coloring_is_proper_for_kings_graph() {
        let side = 8;
        let g = topology::king(side, side, |_, _| 1).unwrap();
        let chip = CmosAnnealer::new(side);
        for (u, v, _) in g.edges() {
            assert_ne!(
                chip.group_of(u as usize),
                chip.group_of(v as usize),
                "adjacent cells {u},{v} share an update group"
            );
        }
    }

    #[test]
    fn envelope_enforced() {
        let chip = CmosAnnealer::new(10);
        let dense = topology::complete(10, |_, _| 1).unwrap();
        assert!(matches!(
            chip.check_limits(&dense),
            Err(CmosAnnealerError::NotKingsGraph { .. })
        ));
        let heavy = topology::king(3, 3, |_, _| 2).unwrap();
        assert!(matches!(
            chip.check_limits(&heavy),
            Err(CmosAnnealerError::CoefficientNotTernary { value: 2 })
        ));
        let fine = topology::king(3, 3, |_, _| 1).unwrap();
        assert!(chip.check_limits(&fine).is_ok());
        let msg = format!("{}", CmosAnnealerError::TooManySpins { spins: 30_000 });
        assert!(msg.contains("30000"));
    }

    #[test]
    fn ferromagnet_reaches_comparable_quality_despite_different_trajectory() {
        let (g, init, opts) = lattice(8, 3);
        let mut chip = CmosAnnealer::new(8);
        let (chip_result, report) = chip.solve_detailed(&g, &init, &opts).unwrap();
        let golden = CpuReferenceSolver::new().solve(&g, &init, &opts);
        // Different update semantics -> different trajectory...
        assert_ne!(
            chip_result.trace, golden.trace,
            "group-parallel should diverge"
        );
        // ...but comparable final quality on the ferromagnet.
        let bound = golden.energy + (golden.energy.abs() / 5);
        assert!(
            chip_result.energy <= bound,
            "chip energy {} much worse than golden {}",
            chip_result.energy,
            golden.energy
        );
        assert_eq!(report.groups, 4);
        assert!(report.energy.total().get() > 0.0);
    }

    #[test]
    fn sweep_cost_is_constant_in_problem_size() {
        let small = CmosAnnealer::new(8);
        let large = CmosAnnealer::new(100);
        assert_eq!(small.cycles_per_sweep(), large.cycles_per_sweep());
        assert_eq!(small.cycles_per_sweep(), 8);
    }

    #[test]
    fn dedicated_chip_is_faster_in_envelope_than_sachi_per_sweep() {
        // The trade the paper describes: generation-3 dedicated logic is
        // fast inside its narrow envelope; SACHI is general.
        let chip = CmosAnnealer::new(100);
        // SACHI n3 on a 10K-spin King's lattice: ~10000/16 cycles/sweep.
        let sachi_per_sweep = 10_000u64 / 16;
        assert!(chip.cycles_per_sweep() < sachi_per_sweep);
        // ...but it cannot touch a 4-bit problem at all.
        let heavy = topology::king(4, 4, |_, _| 5).unwrap();
        assert!(chip.check_limits(&heavy).is_err());
    }
}
