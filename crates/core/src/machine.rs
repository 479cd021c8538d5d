//! The SACHI machine: functional, fully-accounted solves.
//!
//! [`SachiMachine`] executes the shared iterative protocol of
//! [`sachi_ising::solver`] with every `H_σ` computed *through the
//! hardware*: tuples laid into an 8T SRAM tile, word-lines pulsed, products
//! assembled from the sensed discharge pattern (bit-exact, enforced by a
//! debug assertion against the golden local field). Alongside the solve it
//! keeps the books the paper's evaluation needs: cycles (compute, loading,
//! DRAM, with prefetch overlap), a per-component energy ledger, reuse,
//! redundant discharges, queue occupancy, and update-path traffic.
//!
//! ### Accounting conventions
//!
//! * The scratch tile's *layout writes* are not billed per compute —
//!   resident data is written once per round, which the machine bills
//!   explicitly as reload traffic. Only the tile's word-line activations
//!   and bit-line discharges are harvested.
//! * Spin updates follow the Fig. 8b path: an adjacency read plus one
//!   copy-write per relevant tuple, billed to the storage array.
//! * When the problem exceeds the storage array, each round streams its
//!   chunk from DRAM (64 B/cycle) with the Sec. IV.A prefetcher
//!   overlapping the stream with compute.

use crate::config::{DesignKind, SachiConfig};
use crate::designs::{stationarity, ComputeContext, ComputeScratch};
use crate::encoding::MixedEncoding;
use crate::tuple::{TuplePlanes, TupleStore};
use sachi_ising::graph::IsingGraph;
use sachi_ising::recovery::RecoveryPolicy;
use sachi_ising::solver::{IterativeSolver, SolveOptions, SolveResult, SweepLoop};
use sachi_ising::spin::SpinVector;
use sachi_mem::cache::CacheGeometry;
use sachi_mem::dram::{DramController, DramStats};
use sachi_mem::energy::{EnergyComponent, EnergyLedger};
use sachi_mem::fault::FaultInjector;
use sachi_mem::params::TechnologyParams;
use sachi_mem::sram::{SramTile, TileParams, TileStats};
use sachi_mem::units::convert::{count_u64, ratio_u64, to_index};
use sachi_mem::units::{Bits, Cycles, Nanoseconds};
use sachi_obs::{MetricsRegistry, PhaseSpan, SolvePhase};

/// Fault-injection and recovery accounting of one solve.
///
/// All zeros (the `Default`) when the machine runs without a fault
/// profile — so existing report consumers are unaffected.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct FaultReport {
    /// Transient bit flips injected into tuple fetches (including
    /// re-fetches).
    pub injected_flips: u64,
    /// Tuple fetches that carried at least one injected flip.
    pub corrupted_fetches: u64,
    /// Corruptions caught by tuple-row parity (odd flip count).
    pub detected: u64,
    /// Corruptions that aliased past parity (even, non-zero flip count)
    /// and perturbed the computed local field.
    pub undetected: u64,
    /// Re-fetches performed by the `RefetchRetry` recovery policy.
    pub retries: u64,
    /// Cycles spent on recovery re-fetches (serialized onto the
    /// critical path — a re-fetch stalls the pipeline).
    pub refetch_cycles: Cycles,
    /// Bits corrupted in DRAM streams (count only; quality effects flow
    /// through the read-path BER).
    pub dram_corrupted_bits: u64,
    /// True if recovery gave up: a fail-fast abort, or a read that
    /// exhausted its re-fetch budget.
    pub degraded: bool,
}

impl FaultReport {
    /// Whether any fault activity happened at all.
    pub fn any_activity(&self) -> bool {
        self.injected_flips > 0
            || self.dram_corrupted_bits > 0
            || self.detected > 0
            || self.degraded
    }

    /// Exports the counters into `reg` under the `recovery_` prefix.
    pub fn export(&self, reg: &mut MetricsRegistry) {
        reg.counter_add("recovery_injected_flips", self.injected_flips);
        reg.counter_add("recovery_corrupted_fetches", self.corrupted_fetches);
        reg.counter_add("recovery_detected", self.detected);
        reg.counter_add("recovery_undetected", self.undetected);
        reg.counter_add("recovery_retries", self.retries);
        reg.counter_add("recovery_refetch_cycles", self.refetch_cycles.get());
        reg.counter_add("recovery_dram_corrupted_bits", self.dram_corrupted_bits);
        reg.counter_add("recovery_degraded_replicas", u64::from(self.degraded));
    }
}

/// Architecture-level statistics of one solve.
#[derive(Debug, Clone, PartialEq)]
pub struct RunReport {
    /// Design that ran.
    pub design: DesignKind,
    /// IC resolution used.
    pub resolution_bits: u32,
    /// Sweeps (Hamiltonian iterations) executed.
    pub sweeps: u64,
    /// Compute-array rounds per sweep (1 when everything fits).
    pub rounds_per_sweep: u64,
    /// Pure compute-array cycles.
    pub compute_cycles: Cycles,
    /// Loading cycles (storage→compute movement, DRAM streaming) before
    /// prefetch overlap.
    pub load_cycles: Cycles,
    /// Critical-path cycles including overlap and the initial DRAM store.
    pub total_cycles: Cycles,
    /// Wall-clock time at the configured cycle time.
    pub wall_time: Nanoseconds,
    /// Per-component energy.
    pub energy: EnergyLedger,
    /// Achieved reuse: XNOR computes per RWL bit fetched.
    pub reuse: f64,
    /// Useful in-memory XNOR bit operations.
    pub xnor_ops: u64,
    /// Bits fetched from storage onto RWLs.
    pub rwl_bits_fetched: u64,
    /// Redundant bit-line discharges (Fig. 5c energy waste).
    pub redundant_discharges: u64,
    /// Peak XNOR-queue occupancy in bits.
    pub queue_peak_bits: u64,
    /// Tuple-copy writes made by the update path.
    pub spin_copy_updates: u64,
    /// Adjacency-matrix reads made by the update path.
    pub adjacency_reads: u64,
    /// Cross-tuple re-reads the no-tuple-rep ablation incurred (0 with
    /// tuple-rep on).
    pub cross_tuple_rereads: u64,
    /// Prefetches issued by the DRAM controller.
    pub prefetches: u64,
    /// Fault-injection and recovery accounting (all zeros without a
    /// fault profile).
    pub faults: FaultReport,
    /// Annealer decisions served by the bit-plane kernel (every decision
    /// [`SachiMachine`] makes).
    pub fast_path_computes: u64,
    /// Annealer decisions served by the scalar reference kernel. Always
    /// zero for [`SachiMachine`]; kept so report consumers and metric
    /// exports keep their shape.
    pub scalar_path_computes: u64,
    /// Redundant spin-row rewrites elided by the scratch residency tag.
    pub skipped_spin_writes: u64,
    /// Raw SRAM tile counters (discharges, reads, writes).
    pub tile: TileStats,
    /// DRAM controller counters including prefetch lead/late accounting.
    pub dram: DramStats,
    /// Solve-phase spans, recorded only when
    /// [`crate::config::SachiConfig::trace_phases`] is set (empty — and
    /// unallocated — otherwise).
    pub phase_spans: Vec<PhaseSpan>,
}

impl RunReport {
    /// Cycles per Hamiltonian iteration — the paper's "CPI" metric
    /// (Figs. 17/18).
    pub fn cycles_per_iteration(&self) -> f64 {
        if self.sweeps == 0 {
            return 0.0;
        }
        ratio_u64(self.total_cycles.get(), self.sweeps)
    }

    /// Exports the whole report into `reg`: `machine_` counters for the
    /// design-level accounting, plus the embedded SRAM (`sram_`), DRAM
    /// (`dram_`), recovery (`recovery_`) counters and energy gauges.
    /// Counters and histograms fold additively across replicas; gauges
    /// are per-run summaries the ensemble fold recomputes from counter
    /// sums afterwards.
    pub fn export_metrics(&self, reg: &mut MetricsRegistry) {
        reg.counter_add("machine_sweeps", self.sweeps);
        reg.counter_add("machine_compute_cycles", self.compute_cycles.get());
        reg.counter_add("machine_load_cycles", self.load_cycles.get());
        reg.counter_add("machine_total_cycles", self.total_cycles.get());
        reg.counter_add("machine_xnor_ops", self.xnor_ops);
        reg.counter_add("machine_rwl_bits_fetched", self.rwl_bits_fetched);
        reg.counter_add("machine_redundant_discharges", self.redundant_discharges);
        reg.counter_add("machine_spin_copy_updates", self.spin_copy_updates);
        reg.counter_add("machine_adjacency_reads", self.adjacency_reads);
        reg.counter_add("machine_cross_tuple_rereads", self.cross_tuple_rereads);
        reg.counter_add("machine_prefetches", self.prefetches);
        reg.counter_add("machine_fast_path_computes", self.fast_path_computes);
        reg.counter_add("machine_scalar_path_computes", self.scalar_path_computes);
        reg.counter_add("machine_skipped_spin_writes", self.skipped_spin_writes);
        reg.observe("machine_queue_peak_bits", self.queue_peak_bits);
        reg.observe("replica_total_cycles", self.total_cycles.get());
        reg.observe("replica_rounds_per_sweep", self.rounds_per_sweep);
        reg.gauge_set("machine_reuse", self.reuse);
        self.tile.export(reg);
        self.dram.export(reg);
        self.faults.export(reg);
        self.energy.export(reg);
    }

    /// Accumulates `other` — the report of a later solve segment of the
    /// *same* logical replica — into `self`.
    ///
    /// Parallel-tempering rungs run as a sequence of constant-temperature
    /// solve segments, each producing its own report; a rung's ledger
    /// entry is the segment-wise sum. Counters, cycles, wall-time, and
    /// energy add; `queue_peak_bits` takes the max (it is a peak, not a
    /// flow); `reuse` is recomputed from the summed XNOR/RWL totals;
    /// fault degradation is sticky (OR); `design`/`resolution_bits`
    /// describe the machine and must match.
    pub fn absorb(&mut self, other: &RunReport) {
        debug_assert_eq!(self.design, other.design, "segments share one machine");
        debug_assert_eq!(self.resolution_bits, other.resolution_bits);
        self.sweeps += other.sweeps;
        self.rounds_per_sweep = self.rounds_per_sweep.max(other.rounds_per_sweep);
        self.compute_cycles += other.compute_cycles;
        self.load_cycles += other.load_cycles;
        self.total_cycles += other.total_cycles;
        self.wall_time = self.wall_time + other.wall_time;
        self.energy.merge(&other.energy);
        self.xnor_ops += other.xnor_ops;
        self.rwl_bits_fetched += other.rwl_bits_fetched;
        self.reuse = if self.rwl_bits_fetched > 0 {
            ratio_u64(self.xnor_ops, self.rwl_bits_fetched)
        } else {
            0.0
        };
        self.redundant_discharges += other.redundant_discharges;
        self.queue_peak_bits = self.queue_peak_bits.max(other.queue_peak_bits);
        self.spin_copy_updates += other.spin_copy_updates;
        self.adjacency_reads += other.adjacency_reads;
        self.cross_tuple_rereads += other.cross_tuple_rereads;
        self.prefetches += other.prefetches;
        self.fast_path_computes += other.fast_path_computes;
        self.scalar_path_computes += other.scalar_path_computes;
        self.skipped_spin_writes += other.skipped_spin_writes;
        self.tile.rwl_activations += other.tile.rwl_activations;
        self.tile.rbl_discharges += other.tile.rbl_discharges;
        self.tile.redundant_discharges += other.tile.redundant_discharges;
        self.tile.bits_written += other.tile.bits_written;
        self.tile.bits_read += other.tile.bits_read;
        self.tile.compute_accesses += other.tile.compute_accesses;
        self.dram.loads += other.dram.loads;
        self.dram.bits_loaded += other.dram.bits_loaded;
        self.dram.prefetches_issued += other.dram.prefetches_issued;
        self.dram.prefetch_hidden_cycles += other.dram.prefetch_hidden_cycles;
        self.dram.prefetch_exposed_cycles += other.dram.prefetch_exposed_cycles;
        self.dram.prefetch_late_arrivals += other.dram.prefetch_late_arrivals;
        self.faults.injected_flips += other.faults.injected_flips;
        self.faults.corrupted_fetches += other.faults.corrupted_fetches;
        self.faults.detected += other.faults.detected;
        self.faults.undetected += other.faults.undetected;
        self.faults.retries += other.faults.retries;
        self.faults.refetch_cycles += other.faults.refetch_cycles;
        self.faults.dram_corrupted_bits += other.faults.dram_corrupted_bits;
        self.faults.degraded |= other.faults.degraded;
        self.phase_spans.extend(other.phase_spans.iter().cloned());
    }
}

impl std::fmt::Display for RunReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(
            f,
            "{} @ {}-bit: {} iterations x {} round(s)",
            self.design.label(),
            self.resolution_bits,
            self.sweeps,
            self.rounds_per_sweep
        )?;
        writeln!(
            f,
            "  cycles : {} total ({} compute, {} loading) = {}",
            self.total_cycles.get(),
            self.compute_cycles.get(),
            self.load_cycles.get(),
            self.wall_time
        )?;
        writeln!(
            f,
            "  energy : {} | reuse {:.1} ({} XNORs / {} RWL bits)",
            self.energy.total(),
            self.reuse,
            self.xnor_ops,
            self.rwl_bits_fetched
        )?;
        write!(
            f,
            "  update : {} copies, {} adjacency reads; queue peak {} bits; {} redundant discharges",
            self.spin_copy_updates,
            self.adjacency_reads,
            self.queue_peak_bits,
            self.redundant_discharges
        )?;
        if self.faults.any_activity() {
            write!(
                f,
                "\n  faults : {} flips / {} fetches ({} detected, {} undetected), {} retries, {} dram bits{}",
                self.faults.injected_flips,
                self.faults.corrupted_fetches,
                self.faults.detected,
                self.faults.undetected,
                self.faults.retries,
                self.faults.dram_corrupted_bits,
                if self.faults.degraded { "; DEGRADED" } else { "" }
            )?;
        }
        Ok(())
    }
}

/// A SACHI machine instance.
///
/// ```
/// use sachi_core::prelude::*;
/// use sachi_ising::prelude::*;
/// use rand::{rngs::StdRng, SeedableRng};
///
/// let graph = topology::king(4, 4, |_, _| 1)?;
/// let mut rng = StdRng::seed_from_u64(0);
/// let init = SpinVector::random(16, &mut rng);
/// let mut machine = SachiMachine::new(SachiConfig::new(DesignKind::N3));
/// let (result, report) = machine.solve_detailed(&graph, &init, &SolveOptions::for_graph(&graph, 1));
/// assert!(result.converged);
/// assert!(report.total_cycles.get() > 0);
/// # Ok::<(), sachi_ising::graph::GraphError>(())
/// ```
#[derive(Debug, Clone)]
pub struct SachiMachine {
    config: SachiConfig,
}

impl SachiMachine {
    /// Creates a machine from a configuration.
    pub fn new(config: SachiConfig) -> Self {
        SachiMachine { config }
    }

    /// The configuration in use.
    pub fn config(&self) -> &SachiConfig {
        &self.config
    }

    /// Runs a solve and returns both the algorithmic result and the
    /// architecture report.
    ///
    /// # Panics
    ///
    /// Panics if the initial spin vector does not match the graph, or if a
    /// configured resolution override cannot represent the graph's
    /// coefficients (quantize the workload first).
    pub fn solve_detailed(
        &mut self,
        graph: &IsingGraph,
        initial: &SpinVector,
        options: &SolveOptions,
    ) -> (SolveResult, RunReport) {
        let mut sweep = SweepLoop::new(graph, initial, options);
        let enc = encoding_for(&self.config, graph);
        let design = stationarity(self.config.design);
        let tech = &self.config.tech;
        let geometry = self.config.hierarchy.compute;

        let mut tuples = TupleStore::with_tuple_rep(graph, initial, self.config.tuple_rep);
        let mut ledger = EnergyLedger::new();
        let mut ctx = ComputeContext::new();
        let mut dram = if self.config.prefetch {
            DramController::new(tech.clone())
        } else {
            DramController::new(tech.clone()).without_prefetch()
        };

        let n = graph.num_spins();
        let max_degree = graph.max_degree().max(1);
        let (tile_rows, tile_cols) =
            design.tile_requirements(max_degree, enc.bits(), geometry.row_bits());
        let tile_params = TileParams::new(tile_rows, tile_cols).with_banks(self.config.bank_count);
        let mut tile = SramTile::with_params(tile_params);
        // Per-machine scratch for the bit-plane kernel, hoisted out of the
        // sweep loop so the hot path never allocates.
        let mut scratch = ComputeScratch::new();
        // SoA mirror of the tuple store: every encoded operand the kernel
        // needs, computed once here instead of per compute.
        let mut planes =
            TuplePlanes::new(&tuples, &enc).expect("encoding sized from graph coefficients");

        // Partition spins into compute-array rounds by resident footprint.
        let capacity_bits = geometry.total_bits().get();
        let mut chunks: Vec<std::ops::Range<usize>> = Vec::new();
        {
            let mut start = 0usize;
            let mut used = 0u64;
            for i in 0..n {
                let bits = design
                    .resident_bits_per_tuple(count_u64(graph.degree(i)), enc.bits())
                    .max(1);
                if used + bits > capacity_bits && i > start {
                    chunks.push(start..i);
                    start = i;
                    used = 0;
                }
                used += bits;
            }
            if start < n || n == 0 {
                chunks.push(start..n);
            }
        }
        let rounds_per_sweep = count_u64(chunks.len());
        let (uses_dram, mut total_cycles) = upload_problem(
            &tuples,
            enc.bits(),
            tech,
            self.config.hierarchy.storage,
            &mut ledger,
        );

        // Phase spans: cycle-domain timestamps from the accounting this
        // loop already maintains. `Vec::new` does not allocate, so a
        // disabled trace costs one branch per round and nothing else.
        let trace_phases = self.config.trace_phases;
        let mut spans: Vec<PhaseSpan> = Vec::new();
        if trace_phases {
            spans.push(PhaseSpan {
                phase: SolvePhase::Upload,
                sweep: 0,
                round: 0,
                start: 0,
                end: total_cycles.get(),
                events: 1,
            });
        }

        let mut compute_cycles = Cycles::ZERO;
        let mut load_cycles = Cycles::ZERO;
        let schedule_fill = design.idle_cycles(count_u64(max_degree), enc.bits()) + 3;
        // Per-tile cycle sums, hoisted out of the sweep loop (zeroed per
        // round) so the hot path never allocates.
        let num_tiles = geometry.tiles();
        let mut tile_sums = vec![0u64; num_tiles];

        // Fault layer: the injector's stream is salted with the solve
        // seed (the per-replica derived seed in an ensemble), so fault
        // sequences are a pure function of (master seed, fault seed,
        // replica index) — byte-identical at any thread count.
        let mut fault: Option<(FaultInjector, RecoveryPolicy)> = self
            .config
            .fault
            .as_ref()
            .map(|profile| (profile.model.injector(options.seed), profile.policy));
        let mut fault_report = FaultReport::default();
        let mut fail_fast = false;

        while sweep.begin_sweep() {
            let sweeps = sweep.sweeps();
            for (round, chunk) in chunks.iter().enumerate() {
                let round_start = total_cycles;
                let flips_before_round = sweep.sweep_flips();
                let copies_before_round = tuples.spin_copy_updates();
                // --- loading for this round ---
                let chunk_resident: u64 = chunk
                    .clone()
                    .map(|i| design.resident_bits_per_tuple(count_u64(graph.degree(i)), enc.bits()))
                    .sum();
                let reload = sweeps == 0 || rounds_per_sweep > 1;
                let mut round_load = Cycles::ZERO;
                if reload && chunk_resident > 0 {
                    // Storage -> compute: fixed movement latency plus one
                    // row per cycle per bank — a B-bank array accepts B
                    // row uploads per cycle, so the upload of round k+1
                    // overlaps the H-compute of round k that much sooner.
                    let rows = chunk_resident.div_ceil(count_u64(geometry.row_bits()));
                    round_load = tech.storage_to_compute_cycles()
                        + Cycles::new(tile_params.upload_cycles(rows));
                    ledger.record(
                        EnergyComponent::DataMovement,
                        tech.movement_energy_per_bit() * chunk_resident,
                    );
                    ledger.record(
                        EnergyComponent::SramWrite,
                        tech.sram_write_energy_per_bit() * chunk_resident,
                    );
                    if uses_dram {
                        let chunk_storage: u64 = chunk
                            .clone()
                            .map(|i| tuples.tuple(i).storage_bits(enc.bits()))
                            .sum();
                        let dram_cycles = match fault.as_mut() {
                            Some((inj, _)) => {
                                let (cycles, corrupted) = dram.load_with_faults(
                                    Bits::new(chunk_storage),
                                    &mut ledger,
                                    inj,
                                );
                                fault_report.dram_corrupted_bits += corrupted;
                                cycles
                            }
                            None => dram.load(Bits::new(chunk_storage), &mut ledger),
                        };
                        // The Sec. IV.A prefetcher hides the DRAM stream
                        // entirely; without it, the stream serializes.
                        if !self.config.prefetch {
                            round_load += dram_cycles;
                        }
                    }
                }

                // --- compute for this round ---
                // Tiles process disjoint tuples concurrently; the round
                // takes as long as its busiest tile. SACHI(n1a) fills
                // tiles blockwise ("successive spins in the same tile"),
                // which is the load imbalance Fig. 17(iii) calls out;
                // n1b/n2/n3 interleave.
                let chunk_len = chunk.len().max(1);
                tile_sums.fill(0);
                for (pos, i) in chunk.clone().enumerate() {
                    let cycles_before_tuple = ctx.cycles;
                    let h_sigma = {
                        let tuple = tuples.tuple(i);
                        debug_assert!(
                            tuple
                                .neighbors
                                .iter()
                                .zip(tuple.neighbor_spins.iter())
                                .all(|(&j, &s)| s == sweep.spins().get(to_index(j))),
                            "tuple-rep copies stale at spin {i}: the Fig. 8b update path missed a refresh"
                        );
                        design.compute_tuple_soa(
                            &mut tile,
                            &enc,
                            tuple,
                            planes.view(i),
                            sweep.spins().get(i),
                            &mut ctx,
                            &mut scratch,
                        )
                    };
                    let tuple_cycles = ctx.cycles - cycles_before_tuple;
                    let assigned = match self.config.design {
                        DesignKind::N1a => pos * num_tiles / chunk_len,
                        _ => pos % num_tiles,
                    };
                    tile_sums[assigned.min(num_tiles - 1)] += tuple_cycles;
                    debug_assert_eq!(
                        h_sigma,
                        sachi_ising::hamiltonian::local_field(graph, sweep.spins(), i),
                        "hardware H_σ diverged from golden model at spin {i}"
                    );
                    if !self.config.tuple_rep {
                        // Count the cross-tuple re-reads the ablation incurs.
                        tuples.local_field(i);
                    }
                    // --- fault injection + parity + recovery ---
                    // The hardware compute above is exact; faults strike
                    // the tuple-row *fetch*. One parity bit per tuple row
                    // (derived from the tuple-rep layout) catches every
                    // odd flip count; even non-zero counts alias past it
                    // and corrupt the computed local field.
                    let mut h_sigma = h_sigma;
                    if let Some((inj, policy)) = fault.as_mut() {
                        let tuple_bits = tuples.tuple(i).storage_bits(enc.bits());
                        let mut flips = inj.flips_in_read(tuple_bits);
                        let mut attempts = 0u32;
                        while flips % 2 == 1 {
                            fault_report.detected += 1;
                            match *policy {
                                RecoveryPolicy::FailFast => {
                                    fault_report.degraded = true;
                                    fail_fast = true;
                                    flips = 0;
                                }
                                RecoveryPolicy::RefetchRetry { max_retries } => {
                                    if attempts < max_retries {
                                        // Re-fetch the row: storage→compute
                                        // movement plus one row cycle,
                                        // serialized onto the critical path.
                                        attempts += 1;
                                        fault_report.retries += 1;
                                        fault_report.refetch_cycles +=
                                            tech.storage_to_compute_cycles() + Cycles::new(1);
                                        ledger.record(
                                            EnergyComponent::DataMovement,
                                            tech.movement_energy_per_bit() * tuple_bits,
                                        );
                                        ledger.record(
                                            EnergyComponent::SramWrite,
                                            tech.sram_write_energy_per_bit() * tuple_bits,
                                        );
                                        flips = inj.flips_in_read(tuple_bits);
                                        continue;
                                    }
                                    // Budget spent: scrub with a clean
                                    // (slow-path) refetch and carry on,
                                    // but the replica is flagged.
                                    fault_report.degraded = true;
                                    flips = 0;
                                }
                            }
                            break;
                        }
                        if fail_fast {
                            break;
                        }
                        if flips > 0 {
                            // Even flip count: parity aliases. The
                            // corruption lands on one neighbor slot of
                            // the tuple, inverting that product term.
                            fault_report.undetected += 1;
                            let t = tuples.tuple(i);
                            if !t.neighbors.is_empty() {
                                let slot = inj.pick_index(t.neighbors.len());
                                h_sigma -= 2
                                    * i64::from(t.couplings[slot])
                                    * t.neighbor_spins[slot].value();
                            }
                        }
                    }
                    if let Some(new) = sweep.update(i, h_sigma) {
                        // Fig. 8b update path: adjacency read + relevant
                        // tuple copy writes in the storage array.
                        let copies = tuples.update_spin(i, new);
                        planes.writeback_spin(&tuples, i, new);
                        ledger.record(
                            EnergyComponent::SramRead,
                            tech.rbl_energy_per_bit() * copies,
                        );
                        ledger.record(
                            EnergyComponent::SramWrite,
                            tech.sram_write_energy_per_bit() * copies,
                        );
                        ledger.record(
                            EnergyComponent::DataMovement,
                            tech.movement_energy_per_bit() * 1u64,
                        );
                    }
                }
                let round_compute =
                    Cycles::new(tile_sums.iter().copied().max().unwrap_or(0) + schedule_fill);
                compute_cycles += round_compute;
                load_cycles += round_load;
                // The first round of the solve cannot overlap with anything;
                // later rounds overlap their (pre)load with compute.
                let serialized = sweeps == 0 && round == 0;
                if serialized {
                    total_cycles += round_load + round_compute;
                } else {
                    total_cycles += dram.effective_round_cycles(round_compute, round_load);
                }
                if trace_phases {
                    let round_no = count_u64(round);
                    let tuples_in_round = count_u64(chunk.len());
                    spans.push(PhaseSpan {
                        phase: SolvePhase::Round,
                        sweep: sweeps,
                        round: round_no,
                        start: round_start.get(),
                        end: total_cycles.get(),
                        events: tuples_in_round,
                    });
                    // In the serialized first round the load precedes
                    // compute; overlapped rounds start both together.
                    let compute_start = if serialized {
                        round_start + round_load
                    } else {
                        round_start
                    };
                    spans.push(PhaseSpan {
                        phase: SolvePhase::HCompute,
                        sweep: sweeps,
                        round: round_no,
                        start: compute_start.get(),
                        end: (compute_start + round_compute).get(),
                        events: tuples_in_round,
                    });
                    if round_load > Cycles::ZERO && self.config.prefetch && !serialized {
                        spans.push(PhaseSpan {
                            phase: SolvePhase::Prefetch,
                            sweep: sweeps,
                            round: round_no,
                            start: round_start.get(),
                            end: (round_start + round_load).get(),
                            events: 1,
                        });
                    }
                    spans.push(PhaseSpan {
                        phase: SolvePhase::Update,
                        sweep: sweeps,
                        round: round_no,
                        start: total_cycles.get(),
                        end: total_cycles.get(),
                        events: sweep.sweep_flips() - flips_before_round,
                    });
                    let copies = tuples.spin_copy_updates() - copies_before_round;
                    if copies > 0 {
                        spans.push(PhaseSpan {
                            phase: SolvePhase::Writeback,
                            sweep: sweeps,
                            round: round_no,
                            start: total_cycles.get(),
                            end: total_cycles.get(),
                            events: copies,
                        });
                    }
                }
                if fail_fast {
                    break;
                }
            }
            if fail_fast {
                // Fail-fast abort: the partial sweep's cycles are booked,
                // but it does not count as a completed iteration.
                break;
            }
            sweep.end_sweep(graph);
        }

        // Harvest the tile's compute events (layout writes intentionally
        // excluded — billed as reload traffic above).
        let stats = tile.stats();
        harvest_compute_energy(&mut ledger, tech, stats, &ctx, uses_dram, sweep.decisions());

        // Recovery re-fetches stall the pipeline: they serialize onto
        // both the load tally and the critical path.
        if let Some((inj, _)) = fault.as_ref() {
            let counters = inj.counters();
            fault_report.injected_flips = counters.transient_flips;
            fault_report.corrupted_fetches = counters.reads_corrupted;
            load_cycles += fault_report.refetch_cycles;
            total_cycles += fault_report.refetch_cycles;
        }

        let report = RunReport {
            design: self.config.design,
            resolution_bits: enc.bits(),
            sweeps: sweep.sweeps(),
            rounds_per_sweep,
            compute_cycles,
            load_cycles,
            total_cycles,
            wall_time: total_cycles.to_time(tech.cycle_time),
            energy: ledger,
            reuse: ctx.reuse(),
            xnor_ops: ctx.xnor_ops,
            rwl_bits_fetched: ctx.rwl_bits_fetched,
            redundant_discharges: stats.redundant_discharges,
            queue_peak_bits: ctx.queue_peak_bits,
            spin_copy_updates: tuples.spin_copy_updates(),
            adjacency_reads: tuples.adjacency_reads(),
            cross_tuple_rereads: tuples.cross_tuple_rereads(),
            prefetches: dram.prefetches_issued(),
            faults: fault_report,
            fast_path_computes: sweep.decisions(),
            scalar_path_computes: 0,
            skipped_spin_writes: scratch.skipped_spin_writes,
            tile: *stats,
            dram: dram.stats(),
            phase_spans: spans,
        };
        (sweep.finish(graph, fault_report.degraded), report)
    }
}

/// The IC encoding a SACHI machine runs `graph` at: the configured
/// resolution override, or the minimum the coefficients need.
///
/// # Panics
///
/// Panics if an override cannot represent the graph's coefficients.
pub(crate) fn encoding_for(config: &SachiConfig, graph: &IsingGraph) -> MixedEncoding {
    let required = graph.bits_required();
    let resolution = match config.resolution {
        Some(r) => {
            assert!(
                r >= required,
                "resolution override {r} cannot represent coefficients needing {required} bits; \
                 quantize the workload first"
            );
            r
        }
        None => required,
    };
    MixedEncoding::new(resolution).expect("resolution validated by config")
}

/// Places the whole problem in DRAM — phase (a) of the Sec. V.5 cost
/// model, charged to every machine. Returns whether the problem
/// overflows the storage array (so rounds stream from DRAM) and the
/// upload's cycles.
pub(crate) fn upload_problem(
    tuples: &TupleStore,
    resolution_bits: u32,
    tech: &TechnologyParams,
    storage: CacheGeometry,
    ledger: &mut EnergyLedger,
) -> (bool, Cycles) {
    let bits = tuples.total_storage_bits(resolution_bits) + tuples.adjacency_bits();
    ledger.record(
        EnergyComponent::DramAccess,
        tech.movement_energy_per_bit() * bits,
    );
    (
        bits > storage.total_bits().get(),
        tech.dram_stream_cycles(Bits::new(bits).to_bytes_ceil()),
    )
}

/// Books the end-of-solve compute events both SACHI machines harvest:
/// word-line drives and bit-line discharges from the tile counters, RWL
/// movement (re-streamed from DRAM when the storage array overflows),
/// the near-memory adds, the decision logic, and one annealer decision
/// per spin update.
pub(crate) fn harvest_compute_energy(
    ledger: &mut EnergyLedger,
    tech: &TechnologyParams,
    stats: &TileStats,
    ctx: &ComputeContext,
    uses_dram: bool,
    decisions: u64,
) {
    ledger.record(
        EnergyComponent::RwlDrive,
        tech.rwl_energy_per_bit() * stats.rwl_activations,
    );
    ledger.record(
        EnergyComponent::RblDischarge,
        tech.rbl_energy_per_bit() * stats.rbl_discharges,
    );
    ledger.record(
        EnergyComponent::DataMovement,
        tech.movement_energy_per_bit() * ctx.rwl_bits_fetched,
    );
    if uses_dram {
        // Driven data the storage array cannot cache re-streams from
        // DRAM every sweep.
        ledger.record(
            EnergyComponent::DramAccess,
            tech.movement_energy_per_bit() * ctx.rwl_bits_fetched,
        );
    }
    ledger.record(
        EnergyComponent::NearMemoryAdd,
        tech.adder_energy_per_bit() * ctx.adder_bit_ops,
    );
    ledger.record(
        EnergyComponent::DecisionLogic,
        tech.adder_energy_per_bit() * ctx.decisions,
    );
    ledger.record(
        EnergyComponent::Annealer,
        tech.annealer_energy_per_decision() * decisions,
    );
}

impl IterativeSolver for SachiMachine {
    fn solve(
        &mut self,
        graph: &IsingGraph,
        initial: &SpinVector,
        options: &SolveOptions,
    ) -> SolveResult {
        self.solve_detailed(graph, initial, options).0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use sachi_ising::graph::topology;
    use sachi_ising::solver::CpuReferenceSolver;
    use sachi_mem::cache::{CacheGeometry, CacheHierarchy};

    fn king_setup(seed: u64) -> (IsingGraph, SpinVector, SolveOptions) {
        let g = topology::king(5, 5, |i, j| ((i * 3 + j) % 7) as i32 + 1).unwrap();
        let mut rng = StdRng::seed_from_u64(seed);
        let init = SpinVector::random(25, &mut rng);
        let opts = SolveOptions::for_graph(&g, seed ^ 0xabc);
        (g, init, opts)
    }

    #[test]
    fn every_design_matches_the_golden_trajectory() {
        let (g, init, opts) = king_setup(3);
        let opts = opts.with_trace();
        let mut reference = CpuReferenceSolver::new();
        let golden = reference.solve(&g, &init, &opts);
        for design in DesignKind::ALL {
            let mut machine = SachiMachine::new(SachiConfig::new(design));
            let (result, report) = machine.solve_detailed(&g, &init, &opts);
            assert_eq!(result.energy, golden.energy, "{design} final energy");
            assert_eq!(result.trace, golden.trace, "{design} H trajectory");
            assert_eq!(result.sweeps, golden.sweeps, "{design} iteration count");
            assert_eq!(result.spins, golden.spins, "{design} spins");
            assert_eq!(report.sweeps, result.sweeps);
        }
    }

    #[test]
    fn designs_rank_by_cycles_and_reuse() {
        let (g, init, opts) = king_setup(7);
        let mut by_design = std::collections::BTreeMap::new();
        for design in DesignKind::ALL {
            let mut machine = SachiMachine::new(SachiConfig::new(design));
            let (_, report) = machine.solve_detailed(&g, &init, &opts);
            by_design.insert(design, report);
        }
        // Cycles: n3 < n2 < n1b <= n1a.
        assert!(
            by_design[&DesignKind::N3].compute_cycles < by_design[&DesignKind::N2].compute_cycles
        );
        assert!(
            by_design[&DesignKind::N2].compute_cycles < by_design[&DesignKind::N1b].compute_cycles
        );
        assert!(
            by_design[&DesignKind::N1b].compute_cycles
                <= by_design[&DesignKind::N1a].compute_cycles
        );
        // Reuse: n1 ~ 1, n2 ~ R, n3 ~ N*R.
        assert!(by_design[&DesignKind::N1a].reuse < 1.5);
        assert!(by_design[&DesignKind::N2].reuse > by_design[&DesignKind::N1a].reuse);
        assert!(by_design[&DesignKind::N3].reuse > by_design[&DesignKind::N2].reuse);
        // Queue only exists for n1.
        assert!(
            by_design[&DesignKind::N1a].queue_peak_bits
                > by_design[&DesignKind::N1b].queue_peak_bits
        );
        assert_eq!(by_design[&DesignKind::N3].queue_peak_bits, 0);
        // Redundant discharges are an n1 phenomenon.
        assert!(by_design[&DesignKind::N1a].redundant_discharges > 0);
        assert_eq!(by_design[&DesignKind::N3].redundant_discharges, 0);
        // Energy: the reuse-aware design wins.
        assert!(
            by_design[&DesignKind::N3].energy.total() < by_design[&DesignKind::N1a].energy.total(),
            "n3 {} vs n1a {}",
            by_design[&DesignKind::N3].energy.total(),
            by_design[&DesignKind::N1a].energy.total()
        );
    }

    #[test]
    fn tiny_compute_array_forces_rounds_and_reloads() {
        let (g, init, opts) = king_setup(11);
        // A compute array that holds only a few tuples.
        let small = CacheHierarchy {
            compute: CacheGeometry::new(1, 4, 64, 1),
            storage: CacheGeometry::sachi_storage_default(),
        };
        let mut machine = SachiMachine::new(SachiConfig::new(DesignKind::N3).with_hierarchy(small));
        let (result, report) = machine.solve_detailed(&g, &init, &opts);
        assert!(report.rounds_per_sweep > 1, "expected multiple rounds");
        assert!(report.load_cycles > Cycles::ZERO);
        // Functional result is unaffected by geometry.
        let mut reference = CpuReferenceSolver::new();
        let golden = reference.solve(&g, &init, &opts);
        assert_eq!(result.energy, golden.energy);
    }

    #[test]
    fn small_storage_array_streams_from_dram() {
        let (g, init, opts) = king_setup(13);
        let tiny_storage = CacheHierarchy {
            compute: CacheGeometry::new(1, 4, 64, 1),
            storage: CacheGeometry::new(1, 2, 64, 2),
        };
        let mut machine =
            SachiMachine::new(SachiConfig::new(DesignKind::N3).with_hierarchy(tiny_storage));
        let (_, report) = machine.solve_detailed(&g, &init, &opts);
        assert!(report.energy.component(EnergyComponent::DramAccess).get() > 0.0);
        assert!(
            report.prefetches > 0,
            "prefetcher should fire on DRAM-streamed rounds"
        );
    }

    #[test]
    fn prefetch_shortens_critical_path() {
        let (g, init, opts) = king_setup(17);
        let small = CacheHierarchy {
            compute: CacheGeometry::new(1, 4, 64, 1),
            storage: CacheGeometry::new(1, 2, 64, 2),
        };
        let run = |prefetch: bool| {
            let config = if prefetch {
                SachiConfig::new(DesignKind::N2).with_hierarchy(small)
            } else {
                SachiConfig::new(DesignKind::N2)
                    .with_hierarchy(small)
                    .without_prefetch()
            };
            let mut machine = SachiMachine::new(config);
            machine.solve_detailed(&g, &init, &opts).1
        };
        let with = run(true);
        let without = run(false);
        assert!(
            with.total_cycles < without.total_cycles,
            "prefetch {} !< no-prefetch {}",
            with.total_cycles,
            without.total_cycles
        );
        // Functional behavior identical either way.
        assert_eq!(with.sweeps, without.sweeps);
    }

    #[test]
    fn tuple_rep_ablation_counts_rereads() {
        let (g, init, opts) = king_setup(19);
        let mut machine = SachiMachine::new(SachiConfig::new(DesignKind::N3).without_tuple_rep());
        let (_, report) = machine.solve_detailed(&g, &init, &opts);
        assert!(report.cross_tuple_rereads > 0);
        let mut with_rep = SachiMachine::new(SachiConfig::new(DesignKind::N3));
        let (_, rep_report) = with_rep.solve_detailed(&g, &init, &opts);
        assert_eq!(rep_report.cross_tuple_rereads, 0);
    }

    #[test]
    fn run_report_display_is_informative() {
        let (g, init, opts) = king_setup(31);
        let mut machine = SachiMachine::new(SachiConfig::default());
        let (_, report) = machine.solve_detailed(&g, &init, &opts);
        let text = format!("{report}");
        assert!(text.contains("SACHI(n3)"), "{text}");
        assert!(text.contains("iterations"), "{text}");
        assert!(text.contains("reuse"), "{text}");
        assert!(text.contains("cycles"), "{text}");
    }

    #[test]
    fn update_path_traffic_is_reported() {
        let (g, init, opts) = king_setup(23);
        let mut machine = SachiMachine::new(SachiConfig::default());
        let (result, report) = machine.solve_detailed(&g, &init, &opts);
        if result.flips > 0 {
            assert!(report.spin_copy_updates > 0);
            assert!(report.adjacency_reads > 0);
        }
        assert!(report.wall_time.get() > 0.0);
        assert!(report.cycles_per_iteration() > 0.0);
    }

    mod faults {
        use super::*;
        use crate::config::FaultProfile;
        use sachi_mem::fault::{FaultModel, FaultRate};

        fn profile(ber_ppb: u64, policy: RecoveryPolicy) -> FaultProfile {
            FaultProfile::new(FaultModel::new(0xFA17).with_read_ber(FaultRate::from_ppb(ber_ppb)))
                .with_policy(policy)
        }

        #[test]
        fn inert_profile_is_identity() {
            let (g, init, opts) = king_setup(41);
            let mut plain = SachiMachine::new(SachiConfig::new(DesignKind::N3));
            let mut faulted = SachiMachine::new(
                SachiConfig::new(DesignKind::N3)
                    .with_fault(FaultProfile::new(FaultModel::new(123))),
            );
            let (want, want_report) = plain.solve_detailed(&g, &init, &opts);
            let (got, got_report) = faulted.solve_detailed(&g, &init, &opts);
            assert_eq!(got, want, "inert fault profile changed the solve");
            assert_eq!(got_report.faults, FaultReport::default());
            assert_eq!(got_report.total_cycles, want_report.total_cycles);
            assert_eq!(got_report.load_cycles, want_report.load_cycles);
            assert!(
                (got_report.energy.total().get() - want_report.energy.total().get()).abs() < 1e-9
            );
        }

        #[test]
        fn nonzero_ber_is_deterministic() {
            let (g, init, opts) = king_setup(43);
            // ~1e-3 BER: enough activity to exercise every counter.
            let run = || {
                let mut m = SachiMachine::new(
                    SachiConfig::new(DesignKind::N2)
                        .with_fault(profile(1_000_000, RecoveryPolicy::default())),
                );
                m.solve_detailed(&g, &init, &opts)
            };
            let (a, ra) = run();
            let (b, rb) = run();
            assert_eq!(a, b);
            assert_eq!(ra.faults, rb.faults);
            assert!(ra.faults.injected_flips > 0, "BER 1e-3 never fired");
            assert_eq!(ra.total_cycles, rb.total_cycles);
        }

        #[test]
        fn failfast_aborts_on_first_detection() {
            let (g, init, opts) = king_setup(47);
            // Massive BER: a detection happens almost immediately.
            let mut m = SachiMachine::new(
                SachiConfig::new(DesignKind::N3)
                    .with_fault(profile(100_000_000, RecoveryPolicy::FailFast)),
            );
            let (result, report) = m.solve_detailed(&g, &init, &opts);
            assert!(result.degraded);
            assert!(!result.converged);
            assert!(report.faults.degraded);
            assert_eq!(report.faults.detected, 1, "fail-fast stops at the first");
            assert_eq!(report.faults.retries, 0);
            assert_eq!(result.sweeps, 0, "aborted inside the first sweep");
        }

        #[test]
        fn retry_policy_books_refetches_on_the_critical_path() {
            let (g, init, opts) = king_setup(53);
            let mut m = SachiMachine::new(SachiConfig::new(DesignKind::N3).with_fault(profile(
                10_000_000, // ~1e-2: detections every few tuples
                RecoveryPolicy::RefetchRetry { max_retries: 5 },
            )));
            let (result, report) = m.solve_detailed(&g, &init, &opts);
            assert!(report.faults.detected > 0);
            assert!(report.faults.retries > 0);
            assert!(report.faults.refetch_cycles > Cycles::ZERO);
            // Refetches serialize: the run is strictly slower than clean.
            let mut clean = SachiMachine::new(SachiConfig::new(DesignKind::N3));
            let (_, clean_report) = clean.solve_detailed(&g, &init, &opts);
            if result.sweeps == clean_report.sweeps {
                assert!(report.load_cycles > clean_report.load_cycles);
            }
            // The run completes either way; degradation only ever comes
            // from an exhausted budget, never a crash.
            assert!(result.sweeps > 0);
        }

        #[test]
        fn zero_retry_budget_degrades_but_completes() {
            let (g, init, opts) = king_setup(59);
            let mut m = SachiMachine::new(SachiConfig::new(DesignKind::N1b).with_fault(profile(
                50_000_000,
                RecoveryPolicy::RefetchRetry { max_retries: 0 },
            )));
            let (result, report) = m.solve_detailed(&g, &init, &opts);
            assert!(report.faults.detected > 0);
            assert_eq!(report.faults.retries, 0);
            assert!(report.faults.degraded);
            assert!(result.degraded);
            assert!(result.sweeps > 0, "degraded replicas still finish");
        }
    }

    #[test]
    #[should_panic(expected = "resolution override")]
    fn too_small_resolution_override_rejected() {
        let g = topology::king(3, 3, |_, _| 100).unwrap();
        let init = SpinVector::filled(9, sachi_ising::spin::Spin::Up);
        let mut machine = SachiMachine::new(SachiConfig::default().with_resolution(4));
        let _ = machine.solve_detailed(&g, &init, &SolveOptions::for_graph(&g, 0));
    }

    #[test]
    fn resolution_override_widens_encoding() {
        let (g, init, opts) = king_setup(29);
        let mut machine = SachiMachine::new(SachiConfig::new(DesignKind::N2).with_resolution(16));
        let (_, report) = machine.solve_detailed(&g, &init, &opts);
        assert_eq!(report.resolution_bits, 16);
        // Same trajectory as the reference regardless of width.
        let mut reference = CpuReferenceSolver::new();
        let golden = reference.solve(&g, &init, &opts);
        let (result, _) = machine.solve_detailed(&g, &init, &opts);
        assert_eq!(result.energy, golden.energy);
    }
}
