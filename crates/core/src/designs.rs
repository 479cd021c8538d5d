//! The four stationarity designs of Sec. IV.D (Figs. 11–13).
//!
//! Each design answers the same question — "how does a tuple's `H_σ` flow
//! through the compute array?" — with a different choice of what stays
//! resident in the SRAM (*stationary*) and what is driven on the read
//! word-lines:
//!
//! | design | resident in array | driven on RWL | phase-1 cycles | reuse |
//! |---|---|---|---|---|
//! | n1a | neighbor spins | J bits, bit-major | N·R | 1 |
//! | n1b | neighbor spins | J bits, IC-major  | N·R | 1 |
//! | n2  | ICs (one per row) | neighbor spins | N | R |
//! | n3  | ICs + neighbor spins | target spin σ_i | ⌈N/(row capacity)⌉ | N·R |
//!
//! The `compute_tuple` implementations are *functional*: they lay the
//! stationary data into a real [`SramTile`], pulse the word-lines, and
//! assemble `H_σ` from the sensed discharge pattern — so every design is
//! checked bit-for-bit against the golden local field. The closed-form
//! schedule methods (`phase1_cycles`, `idle_cycles`, `xnor_queue_bits`,
//! `max_reuse`, footprints) feed the analytic performance model of
//! [`crate::perf`].

use crate::config::DesignKind;
use crate::encoding::MixedEncoding;
use crate::tuple::{SpinTuple, TuplePlaneView};
use sachi_ising::spin::Spin;
use sachi_mem::lanes;
use sachi_mem::sram::{gather_bits, SramTile};
use sachi_mem::units::convert::{count_u64, ratio_u64, to_index};

/// Per-solve counters a design accumulates while computing tuples.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ComputeContext {
    /// Compute-array cycles spent in phase 1.
    pub cycles: u64,
    /// Bits fetched from the storage array onto the RWLs (the data-movement
    /// traffic whose reuse the paper optimizes).
    pub rwl_bits_fetched: u64,
    /// Useful in-memory XNOR bit computations performed.
    pub xnor_ops: u64,
    /// Near-memory full-adder bit operations.
    pub adder_bit_ops: u64,
    /// XNOR-vs-XNOR+1 (and XOR) decisions taken.
    pub decisions: u64,
    /// High-water mark of the XNOR queue, in bits.
    pub queue_peak_bits: u64,
}

impl ComputeContext {
    /// Creates zeroed counters.
    pub fn new() -> Self {
        ComputeContext::default()
    }

    /// Reuse achieved so far: useful XNOR computes per RWL bit fetched.
    /// BRIM and Ising-CIM sit at 1.0 by construction; SACHI(n3) approaches
    /// `N·R`.
    pub fn reuse(&self) -> f64 {
        if self.rwl_bits_fetched == 0 {
            return 0.0;
        }
        ratio_u64(self.xnor_ops, self.rwl_bits_fetched)
    }

    fn note_queue(&mut self, bits: u64) {
        self.queue_peak_bits = self.queue_peak_bits.max(bits);
    }
}

/// Reusable buffers for the designs' bit-plane kernels
/// ([`Stationarity::compute_tuple_soa`]): XNOR result planes, a packed
/// output row, and the spin-row residency tag that lets the
/// spin-stationary designs skip redundant spin-row rewrites.
///
/// Create one per machine and hoist it out of the sweep loop: buffers grow
/// on demand and are reused across calls, so the steady-state kernel
/// performs no heap allocation.
///
/// The residency tag assumes the scratch stays paired with **one** tile:
/// it remembers what was last written to that tile's row 0 and elides the
/// write when the identical packed spin row reappears. Call
/// [`ComputeScratch::invalidate`] if the paired tile's row 0 is written
/// through any other path (the n2/n3 kernels do this themselves).
#[derive(Debug, Clone, Default)]
pub struct ComputeScratch {
    /// XNOR result planes: R planes of `plane_words(n)` words.
    xnor: Vec<u64>,
    /// Sensed-ones count of each XNOR plane (R entries).
    sensed: Vec<u64>,
    /// Packed sensed-output row for the single-access kernels (n2/n3).
    row_out: Vec<u64>,
    /// Packed spin row as last written to the paired tile's row 0.
    resident_row: Vec<u64>,
    /// Freshly packed spin row, compared against `resident_row`.
    packed_row: Vec<u64>,
    /// `(target, degree)` of the tuple whose spin row is resident.
    resident: Option<(u32, usize)>,
    /// Redundant spin-row *words* elided by the residency check (word-
    /// granular: a partially changed row rewrites only its dirty words and
    /// counts each clean word here).
    pub skipped_spin_writes: u64,
}

impl ComputeScratch {
    /// Creates an empty scratch; buffers are sized on first use.
    pub fn new() -> Self {
        ComputeScratch::default()
    }

    /// Forgets the spin-row residency tag. Call when the paired tile's
    /// row 0 may have been written outside [`ComputeScratch`]'s control.
    pub fn invalidate(&mut self) {
        self.resident = None;
    }

    fn ensure_xnor(&mut self, r: u32, words: usize) {
        let need = to_index(r) * words;
        if self.xnor.len() < need {
            self.xnor.resize(need, 0);
        }
        if self.sensed.len() < to_index(r) {
            self.sensed.resize(to_index(r), 0);
        }
    }

    fn ensure_row_out(&mut self, words: usize) {
        if self.row_out.len() < words {
            self.row_out.resize(words, 0);
        }
    }

    fn ensure_spin_row(&mut self, words: usize) {
        if self.packed_row.len() < words {
            self.packed_row.resize(words, 0);
        }
        if self.resident_row.len() < words {
            self.resident_row.resize(words, 0);
        }
    }

    /// Uploads a pre-packed spin row (the SoA `spin_words` arena) to the
    /// tile's row 0 through [`ComputeScratch::writeback_spin_row`] — no
    /// per-compute spin re-pack.
    fn upload_spin_row_words(
        &mut self,
        tile: &mut SramTile,
        target: u32,
        n: usize,
        spin_words: &[u64],
    ) {
        let words = MixedEncoding::plane_words(n);
        self.ensure_spin_row(words);
        self.packed_row[..words].copy_from_slice(&spin_words[..words]);
        self.writeback_spin_row(tile, target, n);
    }

    /// Writes the packed spin row to the tile's row 0 with word-granular
    /// rewrite elision: a word whose resident copy already equals the new
    /// value is skipped (the write and its `bits_written` accounting are
    /// elided — re-driving write word-lines with unchanged data is work
    /// the silicon never does), and a partially changed row rewrites only
    /// its dirty words. A tuple change re-arms the full-row write.
    fn writeback_spin_row(&mut self, tile: &mut SramTile, target: u32, n: usize) {
        let words = MixedEncoding::plane_words(n);
        if self.resident == Some((target, n)) {
            for wi in 0..words {
                if self.resident_row[wi] == self.packed_row[wi] {
                    self.skipped_spin_writes += 1;
                    continue;
                }
                let width = (n - wi * 64).min(64);
                tile.write_bits_from_word(0, wi * 64, width, self.packed_row[wi])
                    .expect("tile sized by tile_requirements");
                self.resident_row[wi] = self.packed_row[wi];
            }
            return;
        }
        tile.write_row_words(0, &self.packed_row[..words], n)
            .expect("tile sized by tile_requirements");
        self.resident_row[..words].copy_from_slice(&self.packed_row[..words]);
        self.resident = Some((target, n));
    }
}

/// A stationarity design: functional tuple compute plus its closed-form
/// schedule. This trait is sealed by construction — the four designs are
/// fixed by the paper; obtain them via [`stationarity`].
pub trait Stationarity {
    /// Which design this is.
    fn kind(&self) -> DesignKind;

    /// Scratch-tile dimensions needed to compute a tuple of `max_degree`
    /// neighbors at resolution `r` with physical rows of `row_bits`
    /// columns.
    fn tile_requirements(&self, max_degree: usize, r: u32, row_bits: usize) -> (usize, usize);

    /// Lays the tuple into `tile`, pulses the word-lines, and returns
    /// `H_σ` assembled from the sensed XNOR outputs. Counters accumulate
    /// into `ctx`.
    ///
    /// # Panics
    ///
    /// Panics if the tile is smaller than
    /// [`Stationarity::tile_requirements`] demands or a coefficient does
    /// not fit in the encoding.
    fn compute_tuple(
        &self,
        tile: &mut SramTile,
        enc: &MixedEncoding,
        tuple: &SpinTuple,
        target: Spin,
        ctx: &mut ComputeContext,
    ) -> i64;

    /// Bit-plane kernel: identical `H_σ`, identical
    /// [`sachi_mem::sram::TileStats`] deltas, and identical
    /// [`ComputeContext`] updates to the scalar golden
    /// [`Stationarity::compute_tuple`] (proven by differential proptests),
    /// with zero steady-state heap allocation — all buffers live in
    /// `scratch` and are reused across calls. Every encoded operand comes
    /// pre-computed from `view` — no per-compute `MixedEncoding` encode,
    /// no spin re-pack. `view` must be the [`crate::tuple::TuplePlanes`]
    /// view of `tuple` at `enc`'s resolution, kept current under spin
    /// updates via [`crate::tuple::TuplePlanes::writeback_spin`]. This is
    /// the only kernel [`crate::machine::SachiMachine`] runs.
    ///
    /// The one sanctioned divergence: the spin-stationary designs elide
    /// rewriting a spin row that is already resident in the paired tile
    /// (the residency tag lives in `scratch`), so `bits_written` can
    /// advance less than the scalar path when the same tuple is recomputed
    /// against unchanged spins. Stored tile bits, H, and every compute
    /// counter still match exactly.
    ///
    /// # Panics
    ///
    /// Panics under the same conditions as
    /// [`Stationarity::compute_tuple`], or if `view` does not match
    /// `tuple`.
    #[allow(clippy::too_many_arguments)]
    fn compute_tuple_soa(
        &self,
        tile: &mut SramTile,
        enc: &MixedEncoding,
        tuple: &SpinTuple,
        view: TuplePlaneView<'_>,
        target: Spin,
        ctx: &mut ComputeContext,
        scratch: &mut ComputeScratch,
    ) -> i64;

    /// Phase-1 (in-memory compute) cycles for a tuple of `n` neighbors.
    fn phase1_cycles(&self, n: u64, r: u32, row_bits: u64) -> u64;

    /// Pipeline-fill idle cycles before phases 3–5 first activate
    /// (Fig. 11f): `(R-1)·N + 1` for n1a, `R` for n1b, a 1–2 cycle skew
    /// for n2/n3.
    fn idle_cycles(&self, n: u64, r: u32) -> u64;

    /// Minimum XNOR-queue capacity in bits (phase 2): `N·(R+1)` for n1a,
    /// `R+1` for n1b, zero for n2/n3.
    fn xnor_queue_bits(&self, n: u64, r: u32) -> u64;

    /// Maximum reuse: 1, 1, `R`, `N·R`.
    fn max_reuse(&self, n: u64, r: u32) -> u64;

    /// Compute-array bits a tuple keeps resident.
    fn resident_bits_per_tuple(&self, n: u64, r: u32) -> u64;

    /// Storage-array bits driven onto RWLs per `H_σ` compute.
    fn driven_bits_per_tuple(&self, n: u64, r: u32, row_bits: u64) -> u64;
}

/// Returns the implementation of a design.
pub fn stationarity(kind: DesignKind) -> &'static dyn Stationarity {
    match kind {
        DesignKind::N1a => &SpinStationaryBitMajor,
        DesignKind::N1b => &SpinStationaryIcMajor,
        DesignKind::N2 => &IcStationary,
        DesignKind::N3 => &MixedStationary,
    }
}

/// How many (R+1)-bit neighbor groups fit in one n3 row.
fn n3_groups_per_row(r: u32, row_bits: u64) -> u64 {
    (row_bits / (u64::from(r) + 1)).max(1)
}

/// Shared finale for the n1 designs: assemble products from queued XNOR
/// bits, then fold in the field and negate (phases 3–5).
fn finish_from_products(
    products: impl Iterator<Item = i64>,
    field: i32,
    r: u32,
    ctx: &mut ComputeContext,
) -> i64 {
    let mut acc = i64::from(field); // full adder initialized to h (phase 4)
    for p in products {
        acc += p;
        ctx.adder_bit_ops += u64::from(r) + 2;
        ctx.decisions += 1;
    }
    -acc // phase 5 negation: H_σ = -(Σ J σ + h)
}

fn layout_spins(tile: &mut SramTile, tuple: &SpinTuple) {
    let bits: Vec<bool> = tuple.neighbor_spins.iter().map(|s| s.bit()).collect();
    tile.write_row(0, &bits)
        .expect("tile sized by tile_requirements");
}

/// Shared phase-1 of the n1 SoA paths: upload the pre-packed spin row and
/// drive all R pre-encoded coupling planes straight out of the SoA arena
/// in one tile batch. The scalar n1a/n1b paths issue the same *multiset*
/// of single-column accesses in different orders; tile counters are
/// additive and order-independent, so one plane schedule serves both
/// designs bit-exactly — only their queue notes differ. Returns the
/// stored row's popcount (its Up spins) and each plane's sensed-ones
/// count.
fn n1_plane_phase1_soa<'s>(
    tile: &mut SramTile,
    enc: &MixedEncoding,
    tuple: &SpinTuple,
    view: TuplePlaneView<'_>,
    ctx: &mut ComputeContext,
    scratch: &'s mut ComputeScratch,
) -> (u64, &'s [u64]) {
    let n = tuple.degree();
    let r = enc.bits();
    let rbits = to_index(r);
    scratch.upload_spin_row_words(tile, tuple.target, n, view.spin_words);
    let words = MixedEncoding::plane_words(n);
    scratch.ensure_xnor(r, words);
    let sensed = &mut scratch.sensed[..rbits];
    let ups = tile
        .compute_xnor_plane(
            0,
            view.coupling_planes,
            words,
            0..n,
            &mut scratch.xnor[..rbits * words],
            sensed,
        )
        .expect("in-bounds by layout");
    let accesses = count_u64(n) * u64::from(r);
    ctx.cycles += accesses;
    ctx.rwl_bits_fetched += accesses;
    ctx.xnor_ops += accesses;
    (ups, sensed)
}

/// Shared finale for the n1 SoA paths: decode H from the counts phase 1
/// already took. Per lane `k`, the product is
/// `decode(xnor lane k) + [σ_k == Down]`; summed over lanes that is
/// `Σ_b ±2^b·sensed_b` ([`MixedEncoding::decode_count_sum`]) plus the
/// Down-spin count `n − ups` — the same integer sum the per-lane loop
/// computes, with no second pass over the planes or the spin row.
/// Counter totals are the per-lane ones, batched.
fn n1_finish_soa(
    enc: &MixedEncoding,
    tuple: &SpinTuple,
    (ups, sensed): (u64, &[u64]),
    ctx: &mut ComputeContext,
) -> i64 {
    let r = enc.bits();
    let nn = count_u64(tuple.degree());
    let downs = i64::try_from(nn - ups).expect("spin-down count bounded by degree");
    let sum = enc.decode_count_sum(sensed);
    ctx.adder_bit_ops += nn * (u64::from(r) + 2);
    ctx.decisions += nn;
    -(i64::from(tuple.field) + sum + downs)
}

/// SACHI(n1a): spin stationary, bit-major XNOR order (Fig. 11a.1).
#[derive(Debug, Clone, Copy, Default)]
pub struct SpinStationaryBitMajor;

impl Stationarity for SpinStationaryBitMajor {
    fn kind(&self) -> DesignKind {
        DesignKind::N1a
    }

    fn tile_requirements(&self, max_degree: usize, _r: u32, _row_bits: usize) -> (usize, usize) {
        (1, max_degree.max(1))
    }

    fn compute_tuple(
        &self,
        tile: &mut SramTile,
        enc: &MixedEncoding,
        tuple: &SpinTuple,
        _target: Spin,
        ctx: &mut ComputeContext,
    ) -> i64 {
        let n = tuple.degree();
        let r = enc.bits();
        if n == 0 {
            return -(i64::from(tuple.field));
        }
        layout_spins(tile, tuple);
        // Phase 1: bit-major — XNOR the r-th bit of every IC before moving
        // to bit r+1. Each cycle drives one J bit and senses one column.
        let encoded: Vec<Vec<bool>> = tuple
            .couplings
            .iter()
            .map(|&j| {
                enc.encode(i64::from(j))
                    .expect("coefficient fits the configured resolution")
            })
            .collect();
        let mut queue = vec![vec![false; to_index(r)]; n];
        for b in 0..to_index(r) {
            for (k, bits) in encoded.iter().enumerate() {
                let out = tile
                    .compute_xnor_bit(0, bits[b], 0..n, k)
                    .expect("in-bounds by layout");
                queue[k][b] = out;
                ctx.cycles += 1;
                ctx.rwl_bits_fetched += 1;
                ctx.xnor_ops += 1;
            }
        }
        // The queue must hold every neighbor's partial bits at once
        // (minimum size N*(R+1), Sec. IV.D.1).
        ctx.note_queue(count_u64(n) * (u64::from(r) + 1));
        // Phases 3-5.
        let products = queue
            .iter()
            .zip(tuple.neighbor_spins.iter())
            .map(|(bits, &s)| {
                let mut v = enc.decode(bits);
                if s == Spin::Down {
                    v += 1;
                }
                v
            });
        finish_from_products(products, tuple.field, r, ctx)
    }

    fn compute_tuple_soa(
        &self,
        tile: &mut SramTile,
        enc: &MixedEncoding,
        tuple: &SpinTuple,
        view: TuplePlaneView<'_>,
        _target: Spin,
        ctx: &mut ComputeContext,
        scratch: &mut ComputeScratch,
    ) -> i64 {
        let n = tuple.degree();
        let r = enc.bits();
        if n == 0 {
            return -(i64::from(tuple.field));
        }
        let counts = n1_plane_phase1_soa(tile, enc, tuple, view, ctx, scratch);
        ctx.note_queue(count_u64(n) * (u64::from(r) + 1));
        n1_finish_soa(enc, tuple, counts, ctx)
    }

    fn phase1_cycles(&self, n: u64, r: u32, _row_bits: u64) -> u64 {
        n * u64::from(r)
    }

    fn idle_cycles(&self, n: u64, r: u32) -> u64 {
        if n == 0 {
            return 0;
        }
        (u64::from(r) - 1) * n + 1
    }

    fn xnor_queue_bits(&self, n: u64, r: u32) -> u64 {
        n * (u64::from(r) + 1)
    }

    fn max_reuse(&self, _n: u64, _r: u32) -> u64 {
        1
    }

    fn resident_bits_per_tuple(&self, n: u64, _r: u32) -> u64 {
        n
    }

    fn driven_bits_per_tuple(&self, n: u64, r: u32, _row_bits: u64) -> u64 {
        n * u64::from(r)
    }
}

/// SACHI(n1b): spin stationary, IC-major XNOR order (Fig. 11a.2).
#[derive(Debug, Clone, Copy, Default)]
pub struct SpinStationaryIcMajor;

impl Stationarity for SpinStationaryIcMajor {
    fn kind(&self) -> DesignKind {
        DesignKind::N1b
    }

    fn tile_requirements(&self, max_degree: usize, _r: u32, _row_bits: usize) -> (usize, usize) {
        (1, max_degree.max(1))
    }

    fn compute_tuple(
        &self,
        tile: &mut SramTile,
        enc: &MixedEncoding,
        tuple: &SpinTuple,
        _target: Spin,
        ctx: &mut ComputeContext,
    ) -> i64 {
        let n = tuple.degree();
        let r = enc.bits();
        if n == 0 {
            return -(i64::from(tuple.field));
        }
        layout_spins(tile, tuple);
        // Phase 1: IC-major — all bits of one J before the next J, so the
        // queue holds a single (R+1)-bit entry and phase 3 starts after R
        // cycles.
        let mut acc = i64::from(tuple.field);
        let mut queue_entry = vec![false; to_index(r)];
        for (k, &j) in tuple.couplings.iter().enumerate() {
            let bits = enc
                .encode(i64::from(j))
                .expect("coefficient fits the configured resolution");
            for (b, &jbit) in bits.iter().enumerate() {
                queue_entry[b] = tile
                    .compute_xnor_bit(0, jbit, 0..n, k)
                    .expect("in-bounds by layout");
                ctx.cycles += 1;
                ctx.rwl_bits_fetched += 1;
                ctx.xnor_ops += 1;
                ctx.note_queue(count_u64(b) + 1);
            }
            ctx.note_queue(u64::from(r) + 1);
            let mut v = enc.decode(&queue_entry);
            if tuple.neighbor_spins[k] == Spin::Down {
                v += 1;
            }
            acc += v;
            ctx.adder_bit_ops += u64::from(r) + 2;
            ctx.decisions += 1;
        }
        -acc
    }

    fn compute_tuple_soa(
        &self,
        tile: &mut SramTile,
        enc: &MixedEncoding,
        tuple: &SpinTuple,
        view: TuplePlaneView<'_>,
        _target: Spin,
        ctx: &mut ComputeContext,
        scratch: &mut ComputeScratch,
    ) -> i64 {
        let n = tuple.degree();
        let r = enc.bits();
        if n == 0 {
            return -(i64::from(tuple.field));
        }
        let counts = n1_plane_phase1_soa(tile, enc, tuple, view, ctx, scratch);
        ctx.note_queue(u64::from(r) + 1);
        n1_finish_soa(enc, tuple, counts, ctx)
    }

    fn phase1_cycles(&self, n: u64, r: u32, _row_bits: u64) -> u64 {
        n * u64::from(r)
    }

    fn idle_cycles(&self, _n: u64, r: u32) -> u64 {
        u64::from(r)
    }

    fn xnor_queue_bits(&self, _n: u64, r: u32) -> u64 {
        u64::from(r) + 1
    }

    fn max_reuse(&self, _n: u64, _r: u32) -> u64 {
        1
    }

    fn resident_bits_per_tuple(&self, n: u64, _r: u32) -> u64 {
        n
    }

    fn driven_bits_per_tuple(&self, n: u64, r: u32, _row_bits: u64) -> u64 {
        n * u64::from(r)
    }
}

/// SACHI(n2): IC stationary (Fig. 12). One row per IC; the neighbor spin
/// drives the row's RWL pair and all R columns are sensed in one cycle.
#[derive(Debug, Clone, Copy, Default)]
pub struct IcStationary;

impl Stationarity for IcStationary {
    fn kind(&self) -> DesignKind {
        DesignKind::N2
    }

    fn tile_requirements(&self, max_degree: usize, r: u32, _row_bits: usize) -> (usize, usize) {
        (max_degree.max(1), to_index(r))
    }

    fn compute_tuple(
        &self,
        tile: &mut SramTile,
        enc: &MixedEncoding,
        tuple: &SpinTuple,
        _target: Spin,
        ctx: &mut ComputeContext,
    ) -> i64 {
        let n = tuple.degree();
        let r = enc.bits();
        if n == 0 {
            return -(i64::from(tuple.field));
        }
        // Layout: row k holds encode(J_ik).
        for (k, &j) in tuple.couplings.iter().enumerate() {
            let bits = enc
                .encode(i64::from(j))
                .expect("coefficient fits the configured resolution");
            tile.write_row(k, &bits)
                .expect("tile sized by tile_requirements");
        }
        // Phase 1: one neighbor per cycle, R columns sensed at once.
        let mut acc = i64::from(tuple.field);
        for (k, &s) in tuple.neighbor_spins.iter().enumerate() {
            let out = tile
                .compute_xnor(k, s.bit(), 0..to_index(r))
                .expect("in-bounds by layout");
            ctx.cycles += 1;
            ctx.rwl_bits_fetched += 1;
            ctx.xnor_ops += u64::from(r);
            let mut v = enc.decode(&out);
            if s == Spin::Down {
                v += 1;
            }
            acc += v;
            ctx.adder_bit_ops += u64::from(r) + 2;
            ctx.decisions += 1;
        }
        -acc
    }

    fn compute_tuple_soa(
        &self,
        tile: &mut SramTile,
        enc: &MixedEncoding,
        tuple: &SpinTuple,
        view: TuplePlaneView<'_>,
        _target: Spin,
        ctx: &mut ComputeContext,
        scratch: &mut ComputeScratch,
    ) -> i64 {
        let n = tuple.degree();
        let r = enc.bits();
        if n == 0 {
            return -(i64::from(tuple.field));
        }
        // The coupling rows overwrite whatever the tile held; any spin-row
        // residency another design recorded is void.
        scratch.invalidate();
        let cols = tile.cols();
        let rbits = to_index(r);
        let drive_words = MixedEncoding::plane_words(n);
        scratch.ensure_row_out(n);
        // Layout and drive both come straight out of the SoA arenas: the
        // encoded coupling rows upload as one batched write, the packed
        // spin row drives the batch — no per-compute encode or re-pack.
        tile.write_rows_from_words(0, 0, rbits, &view.coupling_words[..n])
            .expect("tile sized by tile_requirements");
        tile.compute_xnor_row_batch(
            0,
            n,
            &view.spin_words[..drive_words],
            0..cols,
            0..rbits,
            &mut scratch.row_out[..n],
        )
        .expect("in-bounds by layout");
        let nn = count_u64(n);
        ctx.cycles += nn;
        ctx.rwl_bits_fetched += nn;
        ctx.xnor_ops += nn * u64::from(r);
        ctx.adder_bit_ops += nn * (u64::from(r) + 2);
        ctx.decisions += nn;
        // Σ_k (decode(out_k) + [σ_k == Down]) in one bulk pass.
        let downs = nn - lanes::popcount(&view.spin_words[..drive_words]);
        let downs = i64::try_from(downs).expect("spin-down count bounded by degree");
        -(i64::from(tuple.field) + enc.decode_word_sum(&scratch.row_out[..n]) + downs)
    }

    fn phase1_cycles(&self, n: u64, _r: u32, _row_bits: u64) -> u64 {
        n.max(1)
    }

    fn idle_cycles(&self, _n: u64, _r: u32) -> u64 {
        2 // decision + adder shifted by a cycle each (Fig. 12)
    }

    fn xnor_queue_bits(&self, _n: u64, _r: u32) -> u64 {
        0
    }

    fn max_reuse(&self, _n: u64, r: u32) -> u64 {
        u64::from(r)
    }

    fn resident_bits_per_tuple(&self, n: u64, r: u32) -> u64 {
        n * u64::from(r)
    }

    fn driven_bits_per_tuple(&self, n: u64, _r: u32, _row_bits: u64) -> u64 {
        n
    }
}

/// SACHI(n3): mixed stationary with reuse-aware compute (Fig. 13). ICs and
/// neighbor-spin copies are resident; the *target* spin drives the whole
/// row, and eqn. 5 recovers every product in parallel.
#[derive(Debug, Clone, Copy, Default)]
pub struct MixedStationary;

impl Stationarity for MixedStationary {
    fn kind(&self) -> DesignKind {
        DesignKind::N3
    }

    fn tile_requirements(&self, max_degree: usize, r: u32, row_bits: usize) -> (usize, usize) {
        let group = to_index(r) + 1;
        let per_row = (row_bits / group).max(1);
        let rows = max_degree.max(1).div_ceil(per_row);
        (rows, per_row * group)
    }

    fn compute_tuple(
        &self,
        tile: &mut SramTile,
        enc: &MixedEncoding,
        tuple: &SpinTuple,
        target: Spin,
        ctx: &mut ComputeContext,
    ) -> i64 {
        let n = tuple.degree();
        let r = enc.bits();
        if n == 0 {
            return -(i64::from(tuple.field));
        }
        let group = to_index(r) + 1;
        let per_row = (tile.cols() / group).max(1);
        // Layout: per neighbor, an (R+1)-bit group [J bits..., σ_j bit].
        for (k, (&j, &s)) in tuple
            .couplings
            .iter()
            .zip(tuple.neighbor_spins.iter())
            .enumerate()
        {
            let row = k / per_row;
            let col = (k % per_row) * group;
            let mut bits = enc
                .encode(i64::from(j))
                .expect("coefficient fits the configured resolution");
            bits.push(s.bit());
            tile.write_slice(row, col, &bits)
                .expect("tile sized by tile_requirements");
        }
        // Phase 1: one cycle per occupied row; σ_i on the RWL, the whole
        // used width sensed.
        let rows = n.div_ceil(per_row);
        let mut acc = i64::from(tuple.field);
        let mut k = 0usize;
        for row in 0..rows {
            let in_row = per_row.min(n - row * per_row);
            let out = tile
                .compute_xnor_windowed(row, target.bit(), 0..in_row * group, 0..in_row * group)
                .expect("in-bounds by layout");
            ctx.cycles += 1;
            ctx.rwl_bits_fetched += 1;
            ctx.xnor_ops += count_u64(in_row * group);
            for g in 0..in_row {
                let bits = &out[g * group..g * group + to_index(r)];
                // Equality bit σ_j XNOR σ_i came out of the array with the
                // same pulse.
                let equal = out[g * group + to_index(r)];
                let sigma_j = if equal { target } else { target.flipped() };
                // eqn. 5 select: XNOR output if spins equal, XOR otherwise.
                let selected: Vec<bool> = if equal {
                    bits.to_vec()
                } else {
                    bits.iter().map(|b| !b).collect()
                };
                let mut v = enc.decode(&selected);
                if sigma_j == Spin::Down {
                    v += 1;
                }
                acc += v;
                ctx.adder_bit_ops += u64::from(r) + 2;
                ctx.decisions += 1;
                k += 1;
            }
        }
        debug_assert_eq!(k, n);
        -acc
    }

    fn compute_tuple_soa(
        &self,
        tile: &mut SramTile,
        enc: &MixedEncoding,
        tuple: &SpinTuple,
        view: TuplePlaneView<'_>,
        target: Spin,
        ctx: &mut ComputeContext,
        scratch: &mut ComputeScratch,
    ) -> i64 {
        let n = tuple.degree();
        let r = enc.bits();
        if n == 0 {
            return -(i64::from(tuple.field));
        }
        scratch.invalidate();
        let rbits = to_index(r);
        let group = rbits + 1;
        let per_row = (tile.cols() / group).max(1);
        let row_words = tile.cols().div_ceil(64);
        scratch.ensure_row_out(row_words);
        scratch.ensure_spin_row(row_words);
        // Layout: the pre-maintained (R+1)-bit group words pack into whole
        // row images — one row-wide write per occupied row instead of one
        // sub-word write per neighbor. Same cells, same bits_written total
        // (groups fill contiguously from column 0).
        let rows = n.div_ceil(per_row);
        let sigma_i = u64::from(target.bit());
        // Shifting the R product bits to the top and back sign-extends.
        let sign_shift = 64 - rbits;
        let mut acc = i64::from(tuple.field);
        for row in 0..rows {
            let in_row = per_row.min(n - row * per_row);
            let width = in_row * group;
            let wwords = width.div_ceil(64);
            for w in &mut scratch.packed_row[..wwords] {
                *w = 0;
            }
            for (g, &gw) in view.group_words[row * per_row..row * per_row + in_row]
                .iter()
                .enumerate()
            {
                let pos = g * group;
                let (wi, off) = (pos / 64, pos % 64);
                scratch.packed_row[wi] |= gw << off;
                if off + group > 64 {
                    // off > 0 here, so the shift below stays < 64.
                    scratch.packed_row[wi + 1] |= gw >> (64 - off);
                }
            }
            tile.write_row_words(row, &scratch.packed_row[..wwords], width)
                .expect("tile sized by tile_requirements");
            // Phase 1: σ_i on the RWL, the whole used width sensed.
            tile.compute_xnor_packed(row, target.bit(), 0..width, 0..width, &mut scratch.row_out)
                .expect("in-bounds by layout");
            // Branchless eqn. 5 decode per group: the equality bit
            // eq = [σ_j == σ_i] sits above the R product bits; eq = 0
            // selects the XOR output, i.e. the complement of the XNOR
            // bits, and σ_j is Down exactly when eq ^ σ_i is 1.
            let mut downs = 0u64;
            for g in 0..in_row {
                let word = gather_bits(&scratch.row_out, g * group, group);
                let eq = word >> rbits;
                let selected = word ^ eq.wrapping_sub(1);
                acc += (selected << sign_shift).cast_signed() >> sign_shift;
                downs += eq ^ sigma_i;
            }
            acc += i64::try_from(downs).expect("spin-down count bounded by degree");
            let in_row = count_u64(in_row);
            ctx.cycles += 1;
            ctx.rwl_bits_fetched += 1;
            ctx.xnor_ops += count_u64(width);
            ctx.adder_bit_ops += in_row * (u64::from(r) + 2);
            ctx.decisions += in_row;
        }
        -acc
    }

    fn phase1_cycles(&self, n: u64, r: u32, row_bits: u64) -> u64 {
        n.max(1).div_ceil(n3_groups_per_row(r, row_bits))
    }

    fn idle_cycles(&self, _n: u64, _r: u32) -> u64 {
        2 // shift-add + decision pipeline skew (Fig. 13)
    }

    fn xnor_queue_bits(&self, _n: u64, _r: u32) -> u64 {
        0
    }

    fn max_reuse(&self, n: u64, r: u32) -> u64 {
        n * u64::from(r)
    }

    fn resident_bits_per_tuple(&self, n: u64, r: u32) -> u64 {
        n * (u64::from(r) + 1)
    }

    fn driven_bits_per_tuple(&self, n: u64, r: u32, row_bits: u64) -> u64 {
        n.max(1).div_ceil(n3_groups_per_row(r, row_bits))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tuple::{TuplePlanes, TupleStore};
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use sachi_ising::graph::{topology, GraphBuilder};
    use sachi_ising::hamiltonian::local_field;
    use sachi_ising::spin::SpinVector;

    fn check_design_matches_golden(kind: DesignKind, seed: u64) {
        let g = topology::king(4, 4, |i, j| ((i * 3 + j * 7) % 13) as i32 - 6).unwrap();
        let mut rng = StdRng::seed_from_u64(seed);
        let spins = SpinVector::random(16, &mut rng);
        let store = TupleStore::new(&g, &spins);
        let enc = MixedEncoding::new(g.bits_required()).unwrap();
        let design = stationarity(kind);
        let (rows, cols) = design.tile_requirements(g.max_degree(), enc.bits(), 800);
        let mut tile = SramTile::new(rows, cols);
        let mut ctx = ComputeContext::new();
        for i in 0..16 {
            let h = design.compute_tuple(&mut tile, &enc, store.tuple(i), spins.get(i), &mut ctx);
            assert_eq!(h, local_field(&g, &spins, i), "{kind} mismatch at spin {i}");
        }
        assert!(ctx.cycles > 0);
        assert!(ctx.xnor_ops > 0);
    }

    #[test]
    fn all_designs_match_golden_local_field() {
        for kind in DesignKind::ALL {
            for seed in 0..3 {
                check_design_matches_golden(kind, seed);
            }
        }
    }

    #[test]
    fn soa_kernel_is_bit_identical_to_scalar_path() {
        for kind in DesignKind::ALL {
            for seed in 0..3u64 {
                let g = topology::king(4, 4, |i, j| ((i * 3 + j * 7) % 13) as i32 - 6).unwrap();
                let mut rng = StdRng::seed_from_u64(seed);
                let spins = SpinVector::random(16, &mut rng);
                let store = TupleStore::new(&g, &spins);
                let enc = MixedEncoding::new(g.bits_required()).unwrap();
                let design = stationarity(kind);
                let (rows, cols) = design.tile_requirements(g.max_degree(), enc.bits(), 800);
                let planes = TuplePlanes::new(&store, &enc).unwrap();
                let mut tile_s = SramTile::new(rows, cols);
                let mut tile_o = SramTile::new(rows, cols);
                let mut ctx_s = ComputeContext::new();
                let mut ctx_o = ComputeContext::new();
                let mut scratch = ComputeScratch::new();
                for i in 0..16 {
                    let hs = design.compute_tuple(
                        &mut tile_s,
                        &enc,
                        store.tuple(i),
                        spins.get(i),
                        &mut ctx_s,
                    );
                    let ho = design.compute_tuple_soa(
                        &mut tile_o,
                        &enc,
                        store.tuple(i),
                        planes.view(i),
                        spins.get(i),
                        &mut ctx_o,
                        &mut scratch,
                    );
                    assert_eq!(hs, ho, "{kind} H mismatch at spin {i}");
                    assert_eq!(ctx_s, ctx_o, "{kind} ComputeContext mismatch at spin {i}");
                    assert_eq!(
                        tile_s.stats(),
                        tile_o.stats(),
                        "{kind} TileStats mismatch at spin {i}"
                    );
                }
            }
        }
    }

    #[test]
    fn spin_stationary_soa_kernel_skips_redundant_spin_rewrites() {
        // Recomputing the same tuple against unchanged spins: the scalar
        // path rewrites the resident spin row every call; the SoA kernel
        // writes it once and elides the rest (the spins are *stationary*).
        let g = topology::king(3, 3, |_, _| 2).unwrap();
        let spins = SpinVector::filled(9, Spin::Up);
        let store = TupleStore::new(&g, &spins);
        let enc = MixedEncoding::new(4).unwrap();
        let planes = TuplePlanes::new(&store, &enc).unwrap();
        for kind in [DesignKind::N1a, DesignKind::N1b] {
            let design = stationarity(kind);
            let (rows, cols) = design.tile_requirements(8, 4, 800);
            let mut tile = SramTile::new(rows, cols);
            let mut ctx = ComputeContext::new();
            let mut scratch = ComputeScratch::new();
            let h0 = design.compute_tuple_soa(
                &mut tile,
                &enc,
                store.tuple(4),
                planes.view(4),
                spins.get(4),
                &mut ctx,
                &mut scratch,
            );
            let written_once = tile.stats().bits_written;
            let h1 = design.compute_tuple_soa(
                &mut tile,
                &enc,
                store.tuple(4),
                planes.view(4),
                spins.get(4),
                &mut ctx,
                &mut scratch,
            );
            assert_eq!(h0, h1, "{kind}: H must not change on recompute");
            assert_eq!(
                tile.stats().bits_written,
                written_once,
                "{kind}: redundant spin-row rewrite was not elided"
            );
            assert_eq!(scratch.skipped_spin_writes, 1, "{kind}");
            // A different tuple re-arms the write.
            design.compute_tuple_soa(
                &mut tile,
                &enc,
                store.tuple(5),
                planes.view(5),
                spins.get(5),
                &mut ctx,
                &mut scratch,
            );
            assert!(tile.stats().bits_written > written_once, "{kind}");
            assert_eq!(scratch.skipped_spin_writes, 1, "{kind}");
        }
    }

    #[test]
    fn designs_handle_fields_and_isolated_spins() {
        let g = GraphBuilder::new(3)
            .edge(0, 1, 5)
            .field(0, -3)
            .field(2, 7)
            .build()
            .unwrap();
        let spins = SpinVector::from_spins(&[Spin::Up, Spin::Down, Spin::Up]);
        let store = TupleStore::new(&g, &spins);
        let enc = MixedEncoding::new(4).unwrap();
        for kind in DesignKind::ALL {
            let design = stationarity(kind);
            let (rows, cols) = design.tile_requirements(1, 4, 800);
            let mut tile = SramTile::new(rows, cols);
            let mut ctx = ComputeContext::new();
            for i in 0..3 {
                let h =
                    design.compute_tuple(&mut tile, &enc, store.tuple(i), spins.get(i), &mut ctx);
                assert_eq!(h, local_field(&g, &spins, i), "{kind} spin {i}");
            }
        }
    }

    #[test]
    fn reuse_ordering_matches_paper() {
        // n1a = n1b = 1 < n2 = R < n3 = N*R.
        let (n, r) = (8u64, 4u32);
        assert_eq!(stationarity(DesignKind::N1a).max_reuse(n, r), 1);
        assert_eq!(stationarity(DesignKind::N1b).max_reuse(n, r), 1);
        assert_eq!(stationarity(DesignKind::N2).max_reuse(n, r), 4);
        assert_eq!(stationarity(DesignKind::N3).max_reuse(n, r), 32);
    }

    #[test]
    fn measured_reuse_approaches_max_reuse() {
        let g = topology::king(4, 4, |_, _| 2).unwrap();
        let spins = SpinVector::filled(16, Spin::Up);
        let store = TupleStore::new(&g, &spins);
        let enc = MixedEncoding::new(4).unwrap();
        for kind in DesignKind::ALL {
            let design = stationarity(kind);
            let (rows, cols) = design.tile_requirements(8, 4, 800);
            let mut tile = SramTile::new(rows, cols);
            let mut ctx = ComputeContext::new();
            // Center spin: full 8-neighbor tuple.
            design.compute_tuple(&mut tile, &enc, store.tuple(5), spins.get(5), &mut ctx);
            let expected = design.max_reuse(store.tuple(5).degree() as u64, 4) as f64;
            let measured = ctx.reuse();
            assert!(
                (measured - expected).abs() / expected < 0.35,
                "{kind}: measured reuse {measured}, expected ~{expected}"
            );
        }
    }

    #[test]
    fn schedule_formulas_match_figs_11_to_13() {
        let (n, r, row) = (8u64, 4u32, 800u64);
        // Phase-1 cycles: N*R, N*R, N, ceil(N / groups-per-row).
        assert_eq!(stationarity(DesignKind::N1a).phase1_cycles(n, r, row), 32);
        assert_eq!(stationarity(DesignKind::N1b).phase1_cycles(n, r, row), 32);
        assert_eq!(stationarity(DesignKind::N2).phase1_cycles(n, r, row), 8);
        assert_eq!(stationarity(DesignKind::N3).phase1_cycles(n, r, row), 1);
        // Idle: (R-1)*N + 1 vs R vs pipeline skew.
        assert_eq!(stationarity(DesignKind::N1a).idle_cycles(n, r), 25);
        assert_eq!(stationarity(DesignKind::N1b).idle_cycles(n, r), 4);
        assert!(stationarity(DesignKind::N2).idle_cycles(n, r) <= 2);
        // Queue: N*(R+1) vs R+1 vs none.
        assert_eq!(stationarity(DesignKind::N1a).xnor_queue_bits(n, r), 40);
        assert_eq!(stationarity(DesignKind::N1b).xnor_queue_bits(n, r), 5);
        assert_eq!(stationarity(DesignKind::N2).xnor_queue_bits(n, r), 0);
        assert_eq!(stationarity(DesignKind::N3).xnor_queue_bits(n, r), 0);
    }

    #[test]
    fn n3_splits_wide_tuples_across_rows() {
        // TSP-like: N = 999, R = 4, 800-bit rows -> 160 groups per row ->
        // 7 rows.
        let d = stationarity(DesignKind::N3);
        assert_eq!(d.phase1_cycles(999, 4, 800), 7);
        let (rows, cols) = d.tile_requirements(999, 4, 800);
        assert_eq!(rows, 7);
        assert!(cols <= 800);
    }

    #[test]
    fn n1_designs_pay_redundant_discharges() {
        // Sensing one column while the whole row discharges is the Fig. 5c
        // energy waste; n3 senses everything it discharges.
        let g = topology::king(3, 3, |_, _| 3).unwrap();
        let spins = SpinVector::filled(9, Spin::Up);
        let store = TupleStore::new(&g, &spins);
        let enc = MixedEncoding::new(4).unwrap();
        let mut redundant = std::collections::BTreeMap::new();
        for kind in DesignKind::ALL {
            let design = stationarity(kind);
            let (rows, cols) = design.tile_requirements(8, 4, 800);
            let mut tile = SramTile::new(rows, cols);
            let mut ctx = ComputeContext::new();
            design.compute_tuple(&mut tile, &enc, store.tuple(4), spins.get(4), &mut ctx);
            redundant.insert(kind, tile.stats().redundant_discharges);
        }
        assert!(redundant[&DesignKind::N1a] > 0);
        assert!(redundant[&DesignKind::N1b] > 0);
        assert_eq!(redundant[&DesignKind::N3], 0);
        assert!(redundant[&DesignKind::N1a] > redundant[&DesignKind::N2]);
    }

    #[test]
    fn footprints_order_n1_below_n2_below_n3() {
        for kind in DesignKind::ALL {
            let d = stationarity(kind);
            assert_eq!(d.kind(), kind);
        }
        let (n, r) = (8u64, 4u32);
        let f = |k| stationarity(k).resident_bits_per_tuple(n, r);
        assert!(f(DesignKind::N1a) < f(DesignKind::N2));
        assert!(f(DesignKind::N2) < f(DesignKind::N3));
        let d = |k| stationarity(k).driven_bits_per_tuple(n, r, 800);
        assert!(d(DesignKind::N3) < d(DesignKind::N2));
        assert!(d(DesignKind::N2) < d(DesignKind::N1a));
    }

    proptest! {
        #[test]
        fn designs_agree_with_each_other(seed in 0u64..50) {
            let g = topology::complete(6, |i, j| ((i * 5 + j * 11 + 3) % 15) as i32 - 7).unwrap();
            let mut rng = StdRng::seed_from_u64(seed);
            let spins = SpinVector::random(6, &mut rng);
            let store = TupleStore::new(&g, &spins);
            let enc = MixedEncoding::new(g.bits_required()).unwrap();
            for i in 0..6 {
                let golden = local_field(&g, &spins, i);
                for kind in DesignKind::ALL {
                    let design = stationarity(kind);
                    let (rows, cols) = design.tile_requirements(5, enc.bits(), 800);
                    let mut tile = SramTile::new(rows, cols);
                    let mut ctx = ComputeContext::new();
                    let h = design.compute_tuple(&mut tile, &enc, store.tuple(i), spins.get(i), &mut ctx);
                    prop_assert_eq!(h, golden);
                }
            }
        }
    }
}
