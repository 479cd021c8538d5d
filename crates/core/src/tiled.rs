//! Physically-resident tiled compute array for the mixed-stationary
//! design.
//!
//! [`crate::machine::SachiMachine`] computes through a *scratch* tile: it
//! re-lays each tuple before computing it and bills residency traffic
//! analytically. This module is the fully physical alternative for
//! SACHI(n3): a [`TiledComputeArray`] with one [`SramTile`] per paper
//! tile, tuples laid out **once per round** at real bit addresses, spin
//! updates written **into the resident bitcells** through the Fig. 8b
//! path, and every write observable in the tiles' own counters.
//!
//! [`ResidentN3Machine`] runs the shared iterative protocol on top of it
//! and must match the golden trajectory exactly — which it can only do
//! because the update path keeps resident `σ_j` copies fresh, the very
//! mechanism the paper's storage-array-based update exists to provide.

use crate::config::SachiConfig;
use crate::designs::ComputeContext;
use crate::encoding::MixedEncoding;
use crate::machine::{encoding_for, harvest_compute_energy, upload_problem, RunReport};
use crate::tuple::{SpinTuple, TupleStore};
use sachi_ising::graph::IsingGraph;
use sachi_ising::solver::{IterativeSolver, SolveOptions, SolveResult, SweepLoop};
use sachi_ising::spin::{Spin, SpinVector};
use sachi_mem::cache::CacheGeometry;
use sachi_mem::energy::{EnergyComponent, EnergyLedger};
use sachi_mem::sram::{gather_bits, SramTile};
use sachi_mem::units::convert::{count_u64, to_index};
use sachi_mem::units::Cycles;
use std::fmt;

/// Where a resident tuple lives.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Placement {
    /// Tile index.
    pub tile: u16,
    /// First row of the tuple's rows.
    pub base_row: u32,
    /// Rows occupied.
    pub rows: u32,
}

/// Error when a tuple cannot be placed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PlacementError {
    /// No tile has enough free rows (round is full) — start a new round.
    RoundFull,
    /// The tuple needs more rows than a whole tile has.
    TupleTooLarge {
        /// Rows the tuple needs.
        needed: u32,
        /// Rows one tile has.
        available: u32,
    },
}

impl fmt::Display for PlacementError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PlacementError::RoundFull => write!(f, "compute array full for this round"),
            PlacementError::TupleTooLarge { needed, available } => {
                write!(
                    f,
                    "tuple needs {needed} rows but a tile has only {available}"
                )
            }
        }
    }
}

impl std::error::Error for PlacementError {}

/// The physical compute array: n3 layout, one `(R+1)`-bit group per
/// neighbor (J bits then the `σ_j` copy).
#[derive(Debug)]
pub struct TiledComputeArray {
    tiles: Vec<SramTile>,
    next_row: Vec<usize>,
    rows_per_tile: usize,
    groups_per_row: usize,
    group_bits: usize,
    resolution: u32,
    // Reusable sense buffer for the packed compute kernel — sized once
    // for a full row so the hot loop never allocates.
    out_buf: Vec<u64>,
}

impl TiledComputeArray {
    /// Creates an empty array for the given geometry and IC resolution.
    ///
    /// # Panics
    ///
    /// Panics if a row cannot hold even one `(R+1)`-bit group.
    pub fn new(geometry: CacheGeometry, resolution: u32) -> Self {
        let group_bits = to_index(resolution) + 1;
        let groups_per_row = geometry.row_bits() / group_bits;
        assert!(
            groups_per_row > 0,
            "row of {} bits cannot hold an (R+1)-bit group",
            geometry.row_bits()
        );
        TiledComputeArray {
            tiles: (0..geometry.tiles())
                .map(|_| SramTile::new(geometry.rows_per_tile(), geometry.row_bits()))
                .collect(),
            next_row: vec![0; geometry.tiles()],
            rows_per_tile: geometry.rows_per_tile(),
            groups_per_row,
            group_bits,
            resolution,
            out_buf: vec![0u64; geometry.row_bits().div_ceil(64).max(1)],
        }
    }

    /// Rows a tuple of `degree` neighbors occupies.
    pub fn rows_for_degree(&self, degree: usize) -> u32 {
        u32::try_from(degree.max(1).div_ceil(self.groups_per_row))
            .expect("row need fits u32: degree is bounded by the spin count")
    }

    /// Clears residency for the next round (data is overwritten lazily;
    /// only the cursors reset — matching hardware, which does not erase).
    pub fn clear(&mut self) {
        self.next_row.iter_mut().for_each(|r| *r = 0);
    }

    /// Free rows remaining across tiles.
    pub fn free_rows(&self) -> usize {
        self.next_row.iter().map(|&r| self.rows_per_tile - r).sum()
    }

    /// Reserves rows for a tuple without writing anything — used for
    /// round planning (the chunk discovery must mirror the real placement
    /// policy exactly, minus the bitcell traffic).
    ///
    /// # Errors
    ///
    /// Returns [`PlacementError`] if no tile can take the tuple.
    pub fn plan_tuple(&mut self, degree: usize) -> Result<Placement, PlacementError> {
        let rows = to_index(self.rows_for_degree(degree));
        if rows > self.rows_per_tile {
            return Err(PlacementError::TupleTooLarge {
                needed: u32::try_from(rows).expect("row count fits u32 by construction"),
                available: u32::try_from(self.rows_per_tile).expect("geometry rows fit u32"),
            });
        }
        // Least-loaded tile balances rows across tiles (the n1b-style
        // interleaving the paper recommends).
        let tile_idx = (0..self.tiles.len())
            .filter(|&t| self.next_row[t] + rows <= self.rows_per_tile)
            .min_by_key(|&t| self.next_row[t])
            .ok_or(PlacementError::RoundFull)?;
        let base_row = self.next_row[tile_idx];
        self.next_row[tile_idx] += rows;
        Ok(Placement {
            tile: u16::try_from(tile_idx)
                .expect("tile count fits u16 (geometry has at most thousands of tiles)"),
            base_row: u32::try_from(base_row).expect("row index fits u32"),
            rows: u32::try_from(rows).expect("row count fits u32 by construction"),
        })
    }

    /// Places and writes a tuple's layout (J bits + `σ_j` copies), booking
    /// real writes in the owning tile.
    ///
    /// # Errors
    ///
    /// Returns [`PlacementError`] if no tile can take the tuple.
    ///
    /// # Panics
    ///
    /// Panics if a coefficient does not fit the configured resolution.
    pub fn load_tuple(
        &mut self,
        tuple: &SpinTuple,
        enc: &MixedEncoding,
    ) -> Result<Placement, PlacementError> {
        let placement = self.plan_tuple(tuple.degree())?;
        let (tile_idx, base_row) = (usize::from(placement.tile), to_index(placement.base_row));
        let tile = &mut self.tiles[tile_idx];
        let rbits = to_index(self.resolution);
        for (k, (&j, &s)) in tuple
            .couplings
            .iter()
            .zip(tuple.neighbor_spins.iter())
            .enumerate()
        {
            let row = base_row + k / self.groups_per_row;
            let col = (k % self.groups_per_row) * self.group_bits;
            let word = enc
                .encode_word(i64::from(j))
                .expect("coefficient fits the configured resolution")
                | (u64::from(s.bit()) << rbits);
            tile.write_bits_from_word(row, col, self.group_bits, word)
                .expect("placement validated");
        }
        Ok(placement)
    }

    /// Refreshes the resident `σ_j` copy at `slot` of a placed tuple —
    /// the compute-array end of the Fig. 8b update path. Returns the bits
    /// written (1).
    ///
    /// # Panics
    ///
    /// Panics if the slot lies outside the placement.
    pub fn update_spin_copy(&mut self, placement: Placement, slot: usize, new: Spin) -> u64 {
        let row = to_index(placement.base_row) + slot / self.groups_per_row;
        let col = (slot % self.groups_per_row) * self.group_bits + to_index(self.resolution);
        assert!(
            row < to_index(placement.base_row) + to_index(placement.rows),
            "slot outside placement"
        );
        self.tiles[usize::from(placement.tile)]
            .write_bit(row, col, new.bit())
            .expect("placement validated at load");
        1
    }

    /// Computes `H_σ` for a resident tuple by pulsing its rows with the
    /// target spin (eqn. 5 reuse-aware compute on live bitcells).
    ///
    /// # Panics
    ///
    /// Panics if the placement does not match the tuple's degree.
    pub fn compute_h(
        &mut self,
        placement: Placement,
        tuple: &SpinTuple,
        target: Spin,
        enc: &MixedEncoding,
        ctx: &mut ComputeContext,
    ) -> i64 {
        let n = tuple.degree();
        if n == 0 {
            return -i64::from(tuple.field);
        }
        assert_eq!(
            self.rows_for_degree(n),
            placement.rows,
            "placement/degree mismatch"
        );
        // Split borrow: the owning tile and the reusable sense buffer are
        // disjoint fields.
        let TiledComputeArray { tiles, out_buf, .. } = self;
        let tile = &mut tiles[usize::from(placement.tile)];
        let r = to_index(enc.bits());
        let mut acc = i64::from(tuple.field);
        let mut k = 0usize;
        for row_off in 0..to_index(placement.rows) {
            let in_row = self.groups_per_row.min(n - row_off * self.groups_per_row);
            let row = to_index(placement.base_row) + row_off;
            let width = in_row * self.group_bits;
            tile.compute_xnor_packed(row, target.bit(), 0..width, 0..width, out_buf)
                .expect("placement validated");
            ctx.cycles += 1;
            ctx.rwl_bits_fetched += 1;
            ctx.xnor_ops += count_u64(width);
            for g in 0..in_row {
                let x = gather_bits(out_buf, g * self.group_bits, r);
                let equal = gather_bits(out_buf, g * self.group_bits + r, 1) == 1;
                let sigma_j = if equal { target } else { target.flipped() };
                let selected = if equal { x } else { !x };
                let mut v = enc.decode_word(selected);
                if sigma_j == Spin::Down {
                    v += 1;
                }
                acc += v;
                ctx.adder_bit_ops += count_u64(r) + 2;
                ctx.decisions += 1;
                k += 1;
            }
        }
        debug_assert_eq!(k, n);
        -acc
    }

    /// Aggregated tile statistics.
    pub fn merged_stats(&self) -> sachi_mem::sram::TileStats {
        let mut stats = sachi_mem::sram::TileStats::default();
        for tile in &self.tiles {
            stats.merge(tile.stats());
        }
        stats
    }
}

/// The fully physical SACHI(n3) machine.
#[derive(Debug, Clone)]
pub struct ResidentN3Machine {
    config: SachiConfig,
}

impl ResidentN3Machine {
    /// Creates the machine. The design is fixed to mixed-stationary;
    /// `config.design` is ignored.
    pub fn new(config: SachiConfig) -> Self {
        ResidentN3Machine { config }
    }

    /// Runs a solve with real residency. See
    /// [`crate::machine::SachiMachine::solve_detailed`] for the report's
    /// semantics; here `SramWrite` energy comes from *actual* bitcell
    /// writes (layout + update path), not an analytic reload estimate.
    ///
    /// # Panics
    ///
    /// Panics if the initial spins mismatch the graph, a resolution
    /// override is too small, or a single tuple exceeds a whole tile.
    pub fn solve_detailed(
        &mut self,
        graph: &IsingGraph,
        initial: &SpinVector,
        options: &SolveOptions,
    ) -> (SolveResult, RunReport) {
        let mut sweep = SweepLoop::new(graph, initial, options);
        let enc = encoding_for(&self.config, graph);
        let tech = &self.config.tech;
        let geometry = self.config.hierarchy.compute;
        let n = graph.num_spins();

        let mut tuples = TupleStore::with_tuple_rep(graph, initial, self.config.tuple_rep);
        let mut ledger = EnergyLedger::new();
        let mut ctx = ComputeContext::new();
        let mut array = TiledComputeArray::new(geometry, enc.bits());

        // Partition into rounds by actually placing tuples.
        let mut chunks: Vec<std::ops::Range<usize>> = Vec::new();
        {
            let mut start = 0usize;
            for i in 0..n {
                match array.plan_tuple(tuples.tuple(i).degree()) {
                    Err(PlacementError::RoundFull) => {
                        chunks.push(start..i);
                        start = i;
                        array.clear();
                        array
                            .plan_tuple(tuples.tuple(i).degree())
                            .expect("fits an empty round");
                    }
                    // TupleTooLarge is the contract violation this method
                    // documents under `# Panics`.
                    other => {
                        other.expect("a single tuple must fit a whole tile (documented panic)");
                    }
                }
            }
            if start < n || n == 0 {
                chunks.push(start..n);
            }
            array.clear();
        }
        let rounds_per_sweep = count_u64(chunks.len());
        let (uses_dram, mut total_cycles) = upload_problem(
            &tuples,
            enc.bits(),
            tech,
            self.config.hierarchy.storage,
            &mut ledger,
        );

        let mut compute_cycles = Cycles::ZERO;
        let mut load_cycles = Cycles::ZERO;
        // Placements of the currently resident chunk, indexed by spin.
        let mut placements: Vec<Option<Placement>> = vec![None; n];
        let mut resident_chunk: Option<usize> = None;
        let schedule_fill = 2 + 3; // n3 pipeline fill + tail
                                   // Per-tile cycle sums, hoisted out of the sweep loop (zeroed per
                                   // round) so the hot path never allocates.
        let num_tiles = geometry.tiles();
        let mut tile_sums = vec![0u64; num_tiles];

        while sweep.begin_sweep() {
            for (round, chunk) in chunks.iter().enumerate() {
                // --- (re)load the round if it is not resident ---
                let mut round_load = Cycles::ZERO;
                if resident_chunk != Some(round) {
                    array.clear();
                    for p in placements.iter_mut() {
                        *p = None;
                    }
                    let mut layout_bits = 0u64;
                    for i in chunk.clone() {
                        let placement = array
                            .load_tuple(tuples.tuple(i), &enc)
                            .expect("chunking fits");
                        placements[i] = Some(placement);
                        layout_bits +=
                            count_u64(tuples.tuple(i).degree()) * (u64::from(enc.bits()) + 1);
                    }
                    resident_chunk = Some(round);
                    // One row per cycle per bank (bank_count == 1 is the
                    // unbanked schedule, cycle-identical by div_ceil(1)).
                    let rows = layout_bits.div_ceil(count_u64(geometry.row_bits()));
                    round_load = tech.storage_to_compute_cycles()
                        + Cycles::new(rows.div_ceil(count_u64(self.config.bank_count)));
                    ledger.record(
                        EnergyComponent::DataMovement,
                        tech.movement_energy_per_bit() * layout_bits,
                    );
                    if uses_dram {
                        let chunk_storage: u64 = chunk
                            .clone()
                            .map(|i| tuples.tuple(i).storage_bits(enc.bits()))
                            .sum();
                        ledger.record(
                            EnergyComponent::DramAccess,
                            tech.movement_energy_per_bit() * chunk_storage,
                        );
                    }
                }

                // --- compute the round ---
                tile_sums.fill(0);
                for i in chunk.clone() {
                    let placement = placements[i].expect("resident");
                    let before = ctx.cycles;
                    let h_sigma = {
                        let tuple = tuples.tuple(i);
                        array.compute_h(placement, tuple, sweep.spins().get(i), &enc, &mut ctx)
                    };
                    tile_sums[usize::from(placement.tile)] += ctx.cycles - before;
                    debug_assert_eq!(
                        h_sigma,
                        sachi_ising::hamiltonian::local_field(graph, sweep.spins(), i),
                        "resident H_σ diverged from golden at spin {i}"
                    );
                    if let Some(new) = sweep.update(i, h_sigma) {
                        // Storage-array side of the update path.
                        let copies = tuples.update_spin(i, new);
                        ledger.record(
                            EnergyComponent::SramRead,
                            tech.rbl_energy_per_bit() * copies,
                        );
                        ledger.record(
                            EnergyComponent::DataMovement,
                            tech.movement_energy_per_bit() * 1u64,
                        );
                        // Compute-array side: refresh the *resident*
                        // copies so later tuples in this round see the
                        // new value (real bit writes). The store's
                        // adjacency index gives the (owner, slot) pairs
                        // without re-deriving them from the graph.
                        for &(t_idx, slot) in tuples.adjacency_of(i) {
                            if let Some(p) = placements[to_index(t_idx)] {
                                array.update_spin_copy(p, to_index(slot), new);
                            }
                        }
                    }
                }
                let round_compute =
                    Cycles::new(tile_sums.iter().copied().max().unwrap_or(0) + schedule_fill);
                compute_cycles += round_compute;
                load_cycles += round_load;
                if sweep.sweeps() == 0 && round == 0 {
                    total_cycles += round_load + round_compute;
                } else if self.config.prefetch {
                    total_cycles += round_compute.max(round_load);
                } else {
                    total_cycles += round_compute + round_load;
                }
            }
            sweep.end_sweep(graph);
        }

        // Tile stats are fully physical here: layout + update writes are
        // actual bits_written events.
        let stats = array.merged_stats();
        harvest_compute_energy(
            &mut ledger,
            tech,
            &stats,
            &ctx,
            uses_dram,
            sweep.decisions(),
        );
        ledger.record(
            EnergyComponent::SramWrite,
            tech.sram_write_energy_per_bit() * stats.bits_written,
        );

        let report = RunReport {
            design: crate::config::DesignKind::N3,
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
            queue_peak_bits: 0,
            spin_copy_updates: tuples.spin_copy_updates(),
            adjacency_reads: tuples.adjacency_reads(),
            cross_tuple_rereads: tuples.cross_tuple_rereads(),
            prefetches: 0,
            faults: crate::machine::FaultReport::default(),
            // The resident machine's compute_h is its only path.
            fast_path_computes: sweep.decisions(),
            scalar_path_computes: 0,
            skipped_spin_writes: 0,
            tile: stats,
            dram: sachi_mem::dram::DramStats::default(),
            phase_spans: Vec::new(),
        };
        (sweep.finish(graph, false), report)
    }
}

impl IterativeSolver for ResidentN3Machine {
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
    use crate::config::{DesignKind, SachiConfig};
    use crate::machine::SachiMachine;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use sachi_ising::graph::topology;
    use sachi_ising::solver::CpuReferenceSolver;
    use sachi_mem::cache::CacheHierarchy;

    fn setup(seed: u64) -> (IsingGraph, SpinVector, SolveOptions) {
        let g = topology::king(6, 6, |i, j| ((i * 5 + j) % 9) as i32 - 4).unwrap();
        let mut rng = StdRng::seed_from_u64(seed);
        let init = SpinVector::random(36, &mut rng);
        let opts = SolveOptions::for_graph(&g, seed + 1).with_trace();
        (g, init, opts)
    }

    #[test]
    fn resident_machine_matches_golden_trajectory() {
        let (g, init, opts) = setup(3);
        let golden = CpuReferenceSolver::new().solve(&g, &init, &opts);
        let mut machine = ResidentN3Machine::new(SachiConfig::new(DesignKind::N3));
        let (result, report) = machine.solve_detailed(&g, &init, &opts);
        assert_eq!(result.energy, golden.energy);
        assert_eq!(
            result.trace, golden.trace,
            "resident updates must keep copies fresh"
        );
        assert_eq!(result.sweeps, golden.sweeps);
        assert!(report.reuse > 1.0);
    }

    #[test]
    fn resident_machine_agrees_with_scratch_machine() {
        let (g, init, opts) = setup(7);
        let mut scratch = SachiMachine::new(SachiConfig::new(DesignKind::N3));
        let (s_result, s_report) = scratch.solve_detailed(&g, &init, &opts);
        let mut resident = ResidentN3Machine::new(SachiConfig::new(DesignKind::N3));
        let (r_result, r_report) = resident.solve_detailed(&g, &init, &opts);
        assert_eq!(s_result.energy, r_result.energy);
        assert_eq!(s_result.trace, r_result.trace);
        // Compute-phase cycle counts match (same schedule arithmetic).
        assert_eq!(s_report.compute_cycles, r_report.compute_cycles);
        // The resident machine writes far fewer bits: layout once per
        // round + 1-bit updates, vs per-compute relayout in the scratch
        // model's tile (whose writes the scratch machine *discards* in
        // favor of analytic billing — here they are the real thing).
        assert!(r_report.energy.component(EnergyComponent::SramWrite).get() > 0.0);
    }

    #[test]
    fn layout_written_once_per_round_plus_updates() {
        let (g, init, opts) = setup(11);
        let enc_bits = g.bits_required() as u64;
        let mut machine = ResidentN3Machine::new(SachiConfig::new(DesignKind::N3));
        let (result, report) = machine.solve_detailed(&g, &init, &opts);
        assert_eq!(report.rounds_per_sweep, 1, "36 tuples fit one round");
        // Everything fits: layout happens exactly once (sweep 0), then
        // only update bits are written.
        let layout_bits: u64 = (0..36).map(|i| g.degree(i) as u64 * (enc_bits + 1)).sum();
        let update_bits: u64 = report.spin_copy_updates; // 1 bit per resident copy refresh
        let written = machine_written_bits(&g, &init, &opts);
        assert_eq!(written, layout_bits + update_bits);
        assert!(result.converged);
    }

    fn machine_written_bits(g: &IsingGraph, init: &SpinVector, opts: &SolveOptions) -> u64 {
        // Re-run capturing the physical counter.
        let mut machine = ResidentN3Machine::new(SachiConfig::new(DesignKind::N3));
        let (_, report) = machine.solve_detailed(g, init, opts);
        let write_pj = report.energy.component(EnergyComponent::SramWrite).get();
        (write_pj / 0.05).round() as u64
    }

    #[test]
    fn small_array_forces_rounds_and_still_matches() {
        let (g, init, opts) = setup(13);
        let tiny = CacheHierarchy {
            compute: CacheGeometry::new(2, 6, 64, 1),
            storage: CacheGeometry::sachi_storage_default(),
        };
        let golden = CpuReferenceSolver::new().solve(&g, &init, &opts);
        let mut machine =
            ResidentN3Machine::new(SachiConfig::new(DesignKind::N3).with_hierarchy(tiny));
        let (result, report) = machine.solve_detailed(&g, &init, &opts);
        assert!(report.rounds_per_sweep > 1);
        assert_eq!(result.energy, golden.energy);
        assert_eq!(result.trace, golden.trace);
        assert!(report.load_cycles > Cycles::ZERO);
    }

    #[test]
    fn array_placement_mechanics() {
        let geometry = CacheGeometry::new(2, 4, 20, 1);
        let enc = MixedEncoding::new(4).unwrap();
        let mut array = TiledComputeArray::new(geometry, 4);
        // Group = 5 bits, 4 groups per row... row_bits 20 -> 4 groups.
        assert_eq!(array.rows_for_degree(4), 1);
        assert_eq!(array.rows_for_degree(5), 2);
        assert_eq!(array.free_rows(), 8);
        let g = topology::complete(5, |_, _| 3).unwrap();
        let spins = SpinVector::filled(5, Spin::Up);
        let store = TupleStore::new(&g, &spins);
        let p0 = array.load_tuple(store.tuple(0), &enc).unwrap();
        assert_eq!(p0.rows, 1);
        assert_eq!(array.free_rows(), 7);
        // Fill up and overflow.
        let mut placed = 1;
        loop {
            match array.load_tuple(store.tuple(placed % 5), &enc) {
                Ok(_) => placed += 1,
                Err(PlacementError::RoundFull) => break,
                Err(e) => panic!("{e}"),
            }
        }
        assert_eq!(placed, 8, "8 one-row tuples fill 2 tiles x 4 rows");
        array.clear();
        assert_eq!(array.free_rows(), 8);
    }

    #[test]
    fn update_spin_copy_changes_subsequent_compute() {
        let geometry = CacheGeometry::new(1, 4, 40, 1);
        let enc = MixedEncoding::new(4).unwrap();
        let mut array = TiledComputeArray::new(geometry, 4);
        let g = topology::complete(3, |_, _| 2).unwrap();
        let spins = SpinVector::filled(3, Spin::Up);
        let store = TupleStore::new(&g, &spins);
        let p = array.load_tuple(store.tuple(0), &enc).unwrap();
        let mut ctx = ComputeContext::new();
        let before = array.compute_h(p, store.tuple(0), Spin::Up, &enc, &mut ctx);
        // Flip neighbor copy at slot 0 (spin 1 in tuple 0).
        array.update_spin_copy(p, 0, Spin::Down);
        let mut tuple = store.tuple(0).clone();
        tuple.neighbor_spins[0] = Spin::Down;
        let after = array.compute_h(p, &tuple, Spin::Up, &enc, &mut ctx);
        assert_ne!(before, after);
        // -(2*1 + 2*1) = -4 before; -(2*(-1) + 2*1) = 0 after.
        assert_eq!(before, -4);
        assert_eq!(after, 0);
    }

    #[test]
    fn oversized_tuple_is_rejected() {
        let geometry = CacheGeometry::new(1, 2, 10, 1); // 2 groups/row, 2 rows
        let enc = MixedEncoding::new(4).unwrap();
        let mut array = TiledComputeArray::new(geometry, 4);
        let g = topology::star(6, |_| 1).unwrap(); // hub has 5 neighbors -> 3 rows
        let spins = SpinVector::filled(6, Spin::Up);
        let store = TupleStore::new(&g, &spins);
        let err = array.load_tuple(store.tuple(0), &enc).unwrap_err();
        assert_eq!(
            err,
            PlacementError::TupleTooLarge {
                needed: 3,
                available: 2
            }
        );
        assert!(format!("{err}").contains("3 rows"));
    }
}
