//! Ising-CIM: the eDRAM compute-in-memory baseline (Xie et al., JSSC
//! 2022), modeled per Sec. V.5 of the SACHI paper.
//!
//! Ising-CIM computes spin updates inside a modified embedded-DRAM array.
//! Its architectural envelope, as the SACHI paper characterizes it:
//!
//! * King's graph only (8-neighbor lattices) — the edge-cell
//!   duplication/broadcast partitioning scheme relies on that locality;
//! * unsigned 2-bit ICs;
//! * every compute is a 2-step operation: 3 cycles to compute the updated
//!   spin value and 3 cycles to perform the local read-modify-write
//!   update (vs SACHI's 1-cycle compute+update) — "XNOR compute requires
//!   3 cycles each for computing the updated spin values and performing
//!   the update";
//! * eDRAM XNOR needs 1.2x the power of 8T SRAM due to the higher
//!   operating voltage;
//! * reuse is 1: every IC bit participates in exactly one `H_σ` compute,
//!   and the whole array row discharges per access (the Fig. 5c
//!   redundant-compute energy);
//! * partitioned graphs duplicate edge cells into adjacent arrays and
//!   broadcast updated edge spins (Fig. 8a).

use sachi_ising::graph::IsingGraph;
use sachi_ising::hamiltonian::local_field;
use sachi_ising::solver::{IterativeSolver, SolveOptions, SolveResult, SweepLoop};
use sachi_ising::spin::SpinVector;
use sachi_mem::energy::{EnergyComponent, EnergyLedger};
use sachi_mem::params::TechnologyParams;
use sachi_mem::units::{Cycles, Nanoseconds};
use std::fmt;

/// Ising-CIM's maximum IC resolution (unsigned 2-bit).
pub const CIM_MAX_RESOLUTION: u32 = 2;
/// Maximum degree of a King's graph.
pub const KINGS_GRAPH_MAX_DEGREE: usize = 8;

/// Error constructing an Ising-CIM run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CimError {
    /// The graph is not a King's graph (degree above 8).
    NotKingsGraph {
        /// Maximum degree found.
        max_degree: usize,
    },
    /// Coefficients outside the unsigned 2-bit range `0..=3`.
    CoefficientOutOfRange {
        /// The offending coefficient.
        value: i32,
    },
}

impl fmt::Display for CimError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CimError::NotKingsGraph { max_degree } => {
                write!(
                    f,
                    "Ising-CIM supports King's graphs (degree <= 8), got degree {max_degree}"
                )
            }
            CimError::CoefficientOutOfRange { value } => {
                write!(
                    f,
                    "Ising-CIM supports unsigned 2-bit ICs (0..=3), got {value}"
                )
            }
        }
    }
}

impl std::error::Error for CimError {}

/// Configuration of the Ising-CIM model.
#[derive(Debug, Clone)]
pub struct CimConfig {
    /// Technology constants shared with SACHI.
    pub tech: TechnologyParams,
    /// Cycles to compute one updated spin value (paper: 3).
    pub compute_cycles: u64,
    /// Cycles to perform the read-modify-write update (paper: 3).
    pub update_cycles: u64,
    /// Columns of one eDRAM compute array (all discharge per access).
    pub array_columns: u64,
    /// Rows of one eDRAM compute array (capacity for partitioning).
    pub array_rows: u64,
}

impl CimConfig {
    /// The paper's Ising-CIM parameters.
    pub fn paper() -> Self {
        CimConfig {
            tech: TechnologyParams::freepdk45(),
            compute_cycles: 3,
            update_cycles: 3,
            array_columns: 256,
            array_rows: 256,
        }
    }
}

impl Default for CimConfig {
    fn default() -> Self {
        CimConfig::paper()
    }
}

/// Architecture report of an Ising-CIM solve.
#[derive(Debug, Clone)]
pub struct CimReport {
    /// Sweeps executed.
    pub sweeps: u64,
    /// Total cycles including loading.
    pub total_cycles: Cycles,
    /// Wall-clock time.
    pub wall_time: Nanoseconds,
    /// Energy ledger.
    pub energy: EnergyLedger,
    /// Reuse (1 by construction).
    pub reuse: f64,
    /// Number of compute arrays the problem was partitioned across.
    pub arrays_used: u64,
    /// Edge cells duplicated into adjacent arrays (Fig. 8a).
    pub duplicated_edge_cells: u64,
}

/// The Ising-CIM machine model.
#[derive(Debug, Clone)]
pub struct CimMachine {
    config: CimConfig,
}

impl CimMachine {
    /// Creates the paper-parameterized model.
    pub fn new() -> Self {
        CimMachine {
            config: CimConfig::paper(),
        }
    }

    /// Creates a model with an explicit configuration.
    pub fn with_config(config: CimConfig) -> Self {
        CimMachine { config }
    }

    /// The configuration in use.
    pub fn config(&self) -> &CimConfig {
        &self.config
    }

    /// Checks a graph against Ising-CIM's envelope.
    ///
    /// # Errors
    ///
    /// Returns [`CimError`] for non-King's graphs or out-of-range ICs.
    pub fn check_limits(&self, graph: &IsingGraph) -> Result<(), CimError> {
        if graph.max_degree() > KINGS_GRAPH_MAX_DEGREE {
            return Err(CimError::NotKingsGraph {
                max_degree: graph.max_degree(),
            });
        }
        for (_, _, w) in graph.edges() {
            if !(0..=3).contains(&w) {
                return Err(CimError::CoefficientOutOfRange { value: w });
            }
        }
        for i in 0..graph.num_spins() {
            let h = graph.field(i);
            if !(0..=3).contains(&h) {
                return Err(CimError::CoefficientOutOfRange { value: h });
            }
        }
        Ok(())
    }

    /// Cycles per sweep: each spin pays the 3+3 compute/update sequence
    /// (the 2x CPI the paper attributes to the read-modify-write).
    pub fn cycles_per_sweep(&self, spins: u64) -> u64 {
        spins * (self.config.compute_cycles + self.config.update_cycles)
    }

    /// Analytic energy of one sweep: per-spin row discharges over the full
    /// eDRAM array width at 1.2x power (reuse 1 plus redundant columns),
    /// word-line pulses per IC bit, the RMW update write, and the annealer.
    pub fn sweep_energy(&self, spins: u64, degree: u64) -> sachi_mem::units::Picojoules {
        let tech = &self.config.tech;
        let edram = tech.edram_xnor_power_factor;
        let r = CIM_MAX_RESOLUTION as u64;
        tech.rwl_energy_per_bit() * ((spins * degree * r * 2) as f64 * edram)
            + tech.rbl_energy_per_bit()
                * ((spins * degree * self.config.array_columns) as f64 * 0.5 * edram)
            + tech.sram_write_energy_per_bit() * (spins as f64 * edram)
            + tech.annealer_energy_per_decision() * spins
    }

    /// How many compute arrays a lattice of `spins` cells needs, and how
    /// many edge cells get duplicated across array boundaries.
    pub fn partitioning(&self, spins: u64) -> (u64, u64) {
        let per_array = self.config.array_rows * self.config.array_columns
            / (2 * CIM_MAX_RESOLUTION as u64 * KINGS_GRAPH_MAX_DEGREE as u64);
        let arrays = spins.div_ceil(per_array).max(1);
        if arrays == 1 {
            return (1, 0);
        }
        // A square-ish tiling duplicates one boundary row/column per seam.
        let side = (spins as f64).sqrt().ceil() as u64;
        let seams = arrays - 1;
        (arrays, seams * side)
    }

    /// Runs a solve with full accounting.
    ///
    /// # Errors
    ///
    /// Returns [`CimError`] if the graph violates the envelope.
    ///
    /// # Panics
    ///
    /// Panics if `initial.len()` does not match the graph.
    pub fn solve_detailed(
        &mut self,
        graph: &IsingGraph,
        initial: &SpinVector,
        options: &SolveOptions,
    ) -> Result<(SolveResult, CimReport), CimError> {
        self.check_limits(graph)?;
        let mut sweep = SweepLoop::new(graph, initial, options);
        let tech = &self.config.tech;
        let n = graph.num_spins();
        let r = CIM_MAX_RESOLUTION as u64;
        let edram = tech.edram_xnor_power_factor;

        let mut ledger = EnergyLedger::new();

        let (arrays_used, duplicated) = self.partitioning(n as u64);
        // Loading: spins + ICs streamed from DRAM, duplicated edge cells
        // written twice.
        let payload_bits = n as u64 * (KINGS_GRAPH_MAX_DEGREE as u64 * r + 1) + duplicated * r;
        let mut total_cycles = tech.dram_stream_cycles(payload_bits.div_ceil(8));
        ledger.record(
            EnergyComponent::DramAccess,
            tech.movement_energy_per_bit() * payload_bits,
        );
        ledger.record(
            EnergyComponent::SramWrite,
            tech.sram_write_energy_per_bit() * payload_bits * edram,
        );

        let cycles_per_sweep = self.cycles_per_sweep(n as u64);
        while sweep.begin_sweep() {
            for i in 0..n {
                let h_sigma = local_field(graph, sweep.spins(), i);
                let degree = graph.degree(i) as u64;
                // Per compute: the full array row discharges (reuse 1 and
                // redundant columns, at eDRAM's 1.2x power), word-lines
                // pulse per IC bit.
                ledger.record(
                    EnergyComponent::RwlDrive,
                    tech.rwl_energy_per_bit() * ((degree * r * 2) as f64 * edram),
                );
                ledger.record(
                    EnergyComponent::RblDischarge,
                    tech.rbl_energy_per_bit()
                        * ((degree * self.config.array_columns) as f64 * 0.5 * edram),
                );
                // Read-modify-write update traffic.
                ledger.record(
                    EnergyComponent::SramWrite,
                    tech.sram_write_energy_per_bit() * (1.0 * edram),
                );
                // Edge-cell broadcast to adjacent arrays when a flipped
                // spin is duplicated.
                if sweep.update(i, h_sigma).is_some() && arrays_used > 1 {
                    ledger.record(
                        EnergyComponent::DataMovement,
                        tech.movement_energy_per_bit() * 1u64,
                    );
                }
            }
            ledger.record(
                EnergyComponent::Annealer,
                tech.annealer_energy_per_decision() * n as u64,
            );
            total_cycles += Cycles::new(cycles_per_sweep);
            sweep.end_sweep(graph);
        }

        let report = CimReport {
            sweeps: sweep.sweeps(),
            total_cycles,
            wall_time: total_cycles.to_time(tech.cycle_time),
            energy: ledger,
            reuse: 1.0,
            arrays_used,
            duplicated_edge_cells: duplicated,
        };
        Ok((sweep.finish(graph, false), report))
    }
}

impl Default for CimMachine {
    fn default() -> Self {
        CimMachine::new()
    }
}

impl IterativeSolver for CimMachine {
    /// Runs the solve, panicking on envelope violations (use
    /// [`CimMachine::solve_detailed`] for recoverable handling).
    fn solve(
        &mut self,
        graph: &IsingGraph,
        initial: &SpinVector,
        options: &SolveOptions,
    ) -> SolveResult {
        self.solve_detailed(graph, initial, options)
            .expect("graph outside Ising-CIM envelope")
            .0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use sachi_ising::graph::topology;
    use sachi_ising::solver::CpuReferenceSolver;

    fn kings_problem() -> (IsingGraph, SpinVector, SolveOptions) {
        let g = topology::king(6, 6, |i, j| ((i + j) % 3 + 1) as i32).unwrap();
        let mut rng = StdRng::seed_from_u64(3);
        let init = SpinVector::random(36, &mut rng);
        let opts = SolveOptions::for_graph(&g, 4).with_trace();
        (g, init, opts)
    }

    #[test]
    fn cim_matches_golden_trajectory() {
        let (g, init, opts) = kings_problem();
        let mut reference = CpuReferenceSolver::new();
        let golden = reference.solve(&g, &init, &opts);
        let mut cim = CimMachine::new();
        let (result, report) = cim.solve_detailed(&g, &init, &opts).unwrap();
        assert_eq!(result.energy, golden.energy);
        assert_eq!(result.trace, golden.trace);
        assert_eq!(report.sweeps, golden.sweeps);
        assert!((report.reuse - 1.0).abs() < 1e-12);
    }

    #[test]
    fn envelope_enforced() {
        let cim = CimMachine::new();
        let complete = topology::complete(10, |_, _| 1).unwrap();
        assert_eq!(
            cim.check_limits(&complete).unwrap_err(),
            CimError::NotKingsGraph { max_degree: 9 }
        );
        let signed = topology::king(3, 3, |_, _| -1).unwrap();
        assert_eq!(
            cim.check_limits(&signed).unwrap_err(),
            CimError::CoefficientOutOfRange { value: -1 }
        );
        let wide = topology::king(3, 3, |_, _| 4).unwrap();
        assert!(cim.check_limits(&wide).is_err());
        let ok = topology::king(3, 3, |_, _| 3).unwrap();
        assert!(cim.check_limits(&ok).is_ok());
    }

    #[test]
    fn two_cycle_compute_update_sequence() {
        let cim = CimMachine::new();
        // 3 + 3 cycles per spin per sweep.
        assert_eq!(cim.cycles_per_sweep(500), 3_000);
        assert_eq!(cim.cycles_per_sweep(1_000_000), 6_000_000);
    }

    #[test]
    fn partitioning_duplicates_edge_cells() {
        let cim = CimMachine::new();
        let (arrays_small, dup_small) = cim.partitioning(500);
        assert_eq!(arrays_small, 1);
        assert_eq!(dup_small, 0);
        let (arrays_big, dup_big) = cim.partitioning(1_000_000);
        assert!(arrays_big > 1);
        assert!(dup_big > 0);
    }

    #[test]
    fn edram_factor_inflates_energy() {
        let (g, init, opts) = kings_problem();
        let mut cim = CimMachine::new();
        let (_, base) = cim.solve_detailed(&g, &init, &opts).unwrap();
        let mut cheaper_config = CimConfig::paper();
        cheaper_config.tech.edram_xnor_power_factor = 1.0;
        let mut cheaper = CimMachine::with_config(cheaper_config);
        let (_, flat) = cheaper.solve_detailed(&g, &init, &opts).unwrap();
        assert!(base.energy.total() > flat.energy.total());
    }

    #[test]
    fn error_messages() {
        assert!(format!("{}", CimError::NotKingsGraph { max_degree: 12 }).contains("12"));
        assert!(format!("{}", CimError::CoefficientOutOfRange { value: 9 }).contains('9'));
    }
}
