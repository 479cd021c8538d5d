//! BRIM: the bistable resistively-coupled Ising machine baseline
//! (Afoakwa et al., HPCA 2021), modeled per Sec. V.5 of the SACHI paper.
//!
//! BRIM stores spins on capacitors and programs ICs as resistances through
//! ZIV diodes, with per-bank DACs converting digital ICs into analog
//! levels. The SACHI paper compares against an analytic model of BRIM, not
//! against silicon, with these parameters (all from Sec. V.5):
//!
//! * H compute takes 4–13 cycles; the *best case* (used for comparison)
//!   is 1 cycle each for memory read, DAC, oscillator compute, and
//!   annealing control;
//! * spins update serially in practice: the storage capacitor delays fast
//!   0→1 transitions and leakage through unconnected paths corrupts nodes
//!   near the ZIV trip point, defeating the nominal analog parallelism;
//! * 16 banks, one 8-bit DAC per bank (0.004 mW each) with 16:1 muxes and
//!   16x8 flops per bank;
//! * coupled-oscillator power is 250 mW for 2000 spins at 100 neighbors
//!   each, proportional to `spins x neighbors`;
//! * reuse is 1 — every IC fetched from memory feeds exactly one compute;
//! * maximum resolution: signed 4-bit; maximum problem size: 1000 nodes
//!   (Fig. 3).
//!
//! Functionally BRIM runs the same iterative protocol as every machine in
//! this workspace, so its H trajectory matches the golden model; only the
//! cycle/energy accounting differs.

use sachi_ising::graph::IsingGraph;
use sachi_ising::hamiltonian::local_field;
use sachi_ising::solver::{IterativeSolver, SolveOptions, SolveResult, SweepLoop};
use sachi_ising::spin::SpinVector;
use sachi_mem::energy::{EnergyComponent, EnergyLedger};
use sachi_mem::params::TechnologyParams;
use sachi_mem::units::{Cycles, Nanoseconds, Picojoules};
use std::fmt;

/// BRIM's architectural limits (Fig. 3).
pub const BRIM_MAX_NODES: usize = 1_000;
/// BRIM's maximum IC resolution in bits (signed 4-bit).
pub const BRIM_MAX_RESOLUTION: u32 = 4;

/// Error constructing a BRIM run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum BrimError {
    /// More nodes than the coupled-oscillator fabric supports.
    TooManyNodes {
        /// Requested node count.
        nodes: usize,
    },
    /// Coefficients need more than signed 4-bit resolution.
    ResolutionTooHigh {
        /// Bits required by the graph.
        required: u32,
    },
}

impl fmt::Display for BrimError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BrimError::TooManyNodes { nodes } => {
                write!(
                    f,
                    "BRIM supports at most {BRIM_MAX_NODES} nodes, got {nodes}"
                )
            }
            BrimError::ResolutionTooHigh { required } => {
                write!(f, "BRIM supports signed {BRIM_MAX_RESOLUTION}-bit ICs, graph needs {required}-bit")
            }
        }
    }
}

impl std::error::Error for BrimError {}

/// Configuration of the BRIM model.
#[derive(Debug, Clone)]
pub struct BrimConfig {
    /// Technology constants shared with SACHI for a fair comparison.
    pub tech: TechnologyParams,
    /// Base cycles per H compute (read + DAC + oscillator + anneal);
    /// best case 4, worst case 13.
    pub cycles_per_h: u64,
    /// Number of DAC banks (ICs converted per cycle).
    pub dac_banks: u64,
    /// Oscillator fabric power at the 2000-spin / 100-neighbor reference
    /// point, in milliwatts.
    pub oscillator_ref_mw: f64,
    /// Power of one DAC, in milliwatts.
    pub dac_mw: f64,
    /// Mux/flop digital logic power per bank, in milliwatts.
    pub bank_logic_mw: f64,
}

impl BrimConfig {
    /// The paper's best-case BRIM (the variant it compares SACHI against).
    pub fn best_case() -> Self {
        BrimConfig {
            tech: TechnologyParams::freepdk45(),
            cycles_per_h: 4,
            dac_banks: 16,
            oscillator_ref_mw: 250.0,
            dac_mw: 0.004,
            bank_logic_mw: 0.01,
        }
    }

    /// The paper's worst-case BRIM (13 cycles per H compute).
    pub fn worst_case() -> Self {
        BrimConfig {
            cycles_per_h: 13,
            ..BrimConfig::best_case()
        }
    }
}

impl Default for BrimConfig {
    fn default() -> Self {
        BrimConfig::best_case()
    }
}

/// Architecture report of a BRIM solve.
#[derive(Debug, Clone)]
pub struct BrimReport {
    /// Sweeps executed.
    pub sweeps: u64,
    /// Total cycles including IC programming.
    pub total_cycles: Cycles,
    /// Wall-clock time.
    pub wall_time: Nanoseconds,
    /// Energy ledger.
    pub energy: EnergyLedger,
    /// Reuse (1 by construction).
    pub reuse: f64,
    /// IC bits fetched from memory.
    pub ic_bits_fetched: u64,
}

/// The BRIM machine model.
#[derive(Debug, Clone)]
pub struct BrimMachine {
    config: BrimConfig,
}

impl BrimMachine {
    /// Creates a best-case BRIM.
    pub fn new() -> Self {
        BrimMachine {
            config: BrimConfig::best_case(),
        }
    }

    /// Creates a BRIM with an explicit configuration.
    pub fn with_config(config: BrimConfig) -> Self {
        BrimMachine { config }
    }

    /// The configuration in use.
    pub fn config(&self) -> &BrimConfig {
        &self.config
    }

    /// Checks a graph against BRIM's architectural limits.
    ///
    /// # Errors
    ///
    /// Returns [`BrimError`] if the graph exceeds 1000 nodes or needs more
    /// than signed 4-bit coefficients.
    pub fn check_limits(&self, graph: &IsingGraph) -> Result<(), BrimError> {
        if graph.num_spins() > BRIM_MAX_NODES {
            return Err(BrimError::TooManyNodes {
                nodes: graph.num_spins(),
            });
        }
        let required = graph.bits_required();
        if required > BRIM_MAX_RESOLUTION {
            return Err(BrimError::ResolutionTooHigh { required });
        }
        Ok(())
    }

    /// Cycles one sweep takes: spins update serially (capacitor settling +
    /// leakage defeat the nominal analog parallelism), each paying the
    /// base pipeline plus a *sequential* DAC conversion of its
    /// neighborhood — one IC per cycle through the spin's bank DAC (the
    /// 16 banks serve different array regions, not one spin's fan-in).
    pub fn cycles_per_sweep(&self, spins: u64, max_degree: u64) -> u64 {
        spins * (self.config.cycles_per_h + max_degree.max(1))
    }

    /// Oscillator fabric power for a problem, scaled from the 2000x100
    /// reference point.
    pub fn oscillator_power_mw(&self, spins: u64, max_degree: u64) -> f64 {
        self.config.oscillator_ref_mw * (spins as f64 * max_degree as f64) / (2_000.0 * 100.0)
    }

    /// Analytic energy of one sweep (the same arithmetic the functional
    /// solve books): IC re-fetch movement at reuse 1, plus the oscillator,
    /// DAC, and bank-logic power integrated over the sweep, plus the
    /// annealer block.
    pub fn sweep_energy(&self, spins: u64, max_degree: u64, resolution_bits: u32) -> Picojoules {
        let tech = &self.config.tech;
        let movement =
            tech.movement_energy_per_bit() * (spins * max_degree * resolution_bits as u64);
        let sweep_time_ns = Cycles::new(self.cycles_per_sweep(spins, max_degree))
            .to_time(tech.cycle_time)
            .get();
        let power_mw = self.oscillator_power_mw(spins, max_degree)
            + self.config.dac_mw * self.config.dac_banks as f64
            + self.config.bank_logic_mw * self.config.dac_banks as f64;
        movement
            + Picojoules::new(power_mw * sweep_time_ns)
            + tech.annealer_energy_per_decision() * spins
    }

    /// Runs a solve with full accounting.
    ///
    /// # Errors
    ///
    /// Returns [`BrimError`] if the graph exceeds BRIM's limits.
    ///
    /// # Panics
    ///
    /// Panics if `initial.len()` does not match the graph.
    pub fn solve_detailed(
        &mut self,
        graph: &IsingGraph,
        initial: &SpinVector,
        options: &SolveOptions,
    ) -> Result<(SolveResult, BrimReport), BrimError> {
        self.check_limits(graph)?;
        let mut sweep = SweepLoop::new(graph, initial, options);
        let tech = &self.config.tech;
        let r = BRIM_MAX_RESOLUTION as u64;
        let n = graph.num_spins();
        let max_degree = graph.max_degree() as u64;

        let mut ledger = EnergyLedger::new();

        // IC programming: every resistance is written once from DRAM
        // (n^2-ish switch fabric, but only existing edges carry data).
        let ic_bits_program = 2 * graph.num_edges() as u64 * r;
        let mut total_cycles = tech.dram_stream_cycles(ic_bits_program.div_ceil(8));
        ledger.record(
            EnergyComponent::DramAccess,
            tech.movement_energy_per_bit() * ic_bits_program,
        );

        let cycles_per_sweep = self.cycles_per_sweep(n as u64, max_degree);
        let sweep_time_ns = Cycles::new(cycles_per_sweep).to_time(tech.cycle_time).get();
        let osc_mw = self.oscillator_power_mw(n as u64, max_degree);
        let dac_mw = self.config.dac_mw * self.config.dac_banks as f64;
        let logic_mw = self.config.bank_logic_mw * self.config.dac_banks as f64;

        let mut ic_bits_fetched = 0u64;
        while sweep.begin_sweep() {
            for i in 0..n {
                let h_sigma = local_field(graph, sweep.spins(), i);
                // Reuse = 1: every IC is re-fetched from memory and
                // DAC-converted for this single compute.
                let fetched = graph.degree(i) as u64 * r;
                ic_bits_fetched += fetched;
                ledger.record(
                    EnergyComponent::DataMovement,
                    tech.movement_energy_per_bit() * fetched,
                );
                sweep.update(i, h_sigma);
            }
            // Power-derived per-sweep energy: oscillator + DAC + logic run
            // for the sweep duration. mW x ns = pJ.
            ledger.record(
                EnergyComponent::Oscillator,
                Picojoules::new(osc_mw * sweep_time_ns),
            );
            ledger.record(
                EnergyComponent::Dac,
                Picojoules::new(dac_mw * sweep_time_ns),
            );
            ledger.record(
                EnergyComponent::DigitalLogic,
                Picojoules::new(logic_mw * sweep_time_ns),
            );
            ledger.record(
                EnergyComponent::Annealer,
                tech.annealer_energy_per_decision() * n as u64,
            );
            total_cycles += Cycles::new(cycles_per_sweep);
            sweep.end_sweep(graph);
        }

        let report = BrimReport {
            sweeps: sweep.sweeps(),
            total_cycles,
            wall_time: total_cycles.to_time(tech.cycle_time),
            energy: ledger,
            reuse: 1.0,
            ic_bits_fetched,
        };
        Ok((sweep.finish(graph, false), report))
    }
}

impl Default for BrimMachine {
    fn default() -> Self {
        BrimMachine::new()
    }
}

impl IterativeSolver for BrimMachine {
    /// Runs the solve, panicking on architectural limit violations (use
    /// [`BrimMachine::solve_detailed`] for recoverable handling).
    fn solve(
        &mut self,
        graph: &IsingGraph,
        initial: &SpinVector,
        options: &SolveOptions,
    ) -> SolveResult {
        self.solve_detailed(graph, initial, options)
            .expect("graph exceeds BRIM limits")
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

    fn small_problem() -> (IsingGraph, SpinVector, SolveOptions) {
        let g = topology::king(5, 5, |i, j| ((i + j) % 7) as i32 - 3).unwrap();
        let mut rng = StdRng::seed_from_u64(1);
        let init = SpinVector::random(25, &mut rng);
        let opts = SolveOptions::for_graph(&g, 2).with_trace();
        (g, init, opts)
    }

    #[test]
    fn brim_matches_golden_trajectory() {
        let (g, init, opts) = small_problem();
        let mut reference = CpuReferenceSolver::new();
        let golden = reference.solve(&g, &init, &opts);
        let mut brim = BrimMachine::new();
        let (result, report) = brim.solve_detailed(&g, &init, &opts).unwrap();
        assert_eq!(result.energy, golden.energy);
        assert_eq!(result.trace, golden.trace);
        assert_eq!(result.sweeps, golden.sweeps);
        assert_eq!(report.sweeps, golden.sweeps);
        assert!((report.reuse - 1.0).abs() < 1e-12);
    }

    #[test]
    fn limits_enforced() {
        let brim = BrimMachine::new();
        let big = topology::star(1_001, |_| 1).unwrap();
        assert_eq!(
            brim.check_limits(&big).unwrap_err(),
            BrimError::TooManyNodes { nodes: 1_001 }
        );
        let precise = topology::star(4, |_| 100).unwrap();
        assert_eq!(
            brim.check_limits(&precise).unwrap_err(),
            BrimError::ResolutionTooHigh { required: 8 }
        );
        let fine = topology::star(100, |_| 7).unwrap();
        assert!(brim.check_limits(&fine).is_ok());
        assert!(format!("{}", BrimError::TooManyNodes { nodes: 5000 }).contains("5000"));
    }

    #[test]
    fn cycles_scale_serially_with_spins_and_neighbors() {
        let brim = BrimMachine::new();
        // 4 base cycles + one sequential DAC cycle per IC.
        assert_eq!(brim.cycles_per_sweep(1_000, 1), 5_000);
        assert_eq!(brim.cycles_per_sweep(1_000, 8), 12_000);
        // Complete 1K graph: 999 sequential conversions per spin.
        assert_eq!(brim.cycles_per_sweep(1_000, 999), 1_003_000);
    }

    #[test]
    fn oscillator_power_matches_reference_point() {
        let brim = BrimMachine::new();
        assert!((brim.oscillator_power_mw(2_000, 100) - 250.0).abs() < 1e-9);
        assert!((brim.oscillator_power_mw(1_000, 100) - 125.0).abs() < 1e-9);
        assert!(brim.oscillator_power_mw(1_000, 999) > brim.oscillator_power_mw(1_000, 8));
    }

    #[test]
    fn worst_case_is_slower_than_best_case() {
        let (g, init, opts) = small_problem();
        let mut best = BrimMachine::new();
        let mut worst = BrimMachine::with_config(BrimConfig::worst_case());
        let (_, rb) = best.solve_detailed(&g, &init, &opts).unwrap();
        let (_, rw) = worst.solve_detailed(&g, &init, &opts).unwrap();
        assert!(rw.total_cycles > rb.total_cycles);
        assert_eq!(rb.sweeps, rw.sweeps); // functionally identical
    }

    #[test]
    fn energy_ledger_contains_brim_specific_components() {
        let (g, init, opts) = small_problem();
        let mut brim = BrimMachine::new();
        let (_, report) = brim.solve_detailed(&g, &init, &opts).unwrap();
        assert!(report.energy.component(EnergyComponent::Oscillator).get() > 0.0);
        assert!(report.energy.component(EnergyComponent::Dac).get() > 0.0);
        assert!(report.energy.component(EnergyComponent::DataMovement).get() > 0.0);
        assert!(report.ic_bits_fetched > 0);
        assert!(report.wall_time.get() > 0.0);
    }
}
