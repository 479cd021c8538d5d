//! Differential proptests for the bit-plane SoA kernel.
//!
//! The two-path kernel contract (DESIGN.md): for every design,
//! `compute_tuple_soa` must be **bit-identical** to `compute_tuple` in
//! its H value, its `ComputeContext` counters (cycles, RWL fetches, XNOR
//! ops, adder ops, decisions, queue peaks), and the tile's `TileStats`
//! (activations, discharges, redundancy, reads, writes) — across all four
//! designs, random tuples, and every resolution R ∈ {2..32}, including
//! empty and degree-1 tuples. The one sanctioned divergence is the
//! spin-row residency elision, pinned by its own test below.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;
use sachi::arch::config::{DesignKind, SachiConfig};
use sachi::arch::designs::{stationarity, ComputeContext, ComputeScratch};
use sachi::arch::encoding::MixedEncoding;
use sachi::arch::machine::SachiMachine;
use sachi::arch::tuple::{SpinTuple, TuplePlanes};
use sachi::ising::graph::topology;
use sachi::ising::solver::SolveOptions;
use sachi::ising::spin::{Spin, SpinVector};
use sachi::mem::cache::{CacheGeometry, CacheHierarchy};
use sachi::mem::sram::SramTile;

/// Maps a raw draw into the R-bit two's-complement coefficient range.
fn coeff_in_range(raw: u64, r: u32) -> i32 {
    let span = 1u64 << r;
    let min = -(1i64 << (r - 1));
    let offset = i64::try_from(raw % span).expect("span <= 2^32 fits i64");
    i32::try_from(offset + min).expect("R <= 32 keeps coefficients in i32")
}

/// Builds a standalone tuple for spin 0 from raw generator output.
fn build_tuple(r: u32, pairs: &[(u64, bool)], field_raw: u64) -> SpinTuple {
    SpinTuple {
        target: 0,
        neighbors: (1..=pairs.len()).map(|j| j as u32).collect(),
        couplings: pairs
            .iter()
            .map(|&(raw, _)| coeff_in_range(raw, r))
            .collect(),
        neighbor_spins: pairs
            .iter()
            .map(|&(_, up)| if up { Spin::Up } else { Spin::Down })
            .collect(),
        field: coeff_in_range(field_raw, r),
    }
}

/// Physical row width the differential tests size tiles for.
const ROW_BITS: usize = 800;

/// Runs both paths (scalar golden, SoA kernel) on freshly-sized twin
/// tiles with `row_bits`-column rows and asserts bit-exact equality of
/// (H, `ComputeContext`, `TileStats`).
fn assert_paths_agree(
    kind: DesignKind,
    enc: &MixedEncoding,
    tuple: &SpinTuple,
    target: Spin,
    row_bits: usize,
) {
    let design = stationarity(kind);
    let (rows, cols) = design.tile_requirements(tuple.degree(), enc.bits(), row_bits);
    let mut tile_scalar = SramTile::new(rows, cols);
    let mut tile_soa = SramTile::new(rows, cols);
    let mut ctx_scalar = ComputeContext::new();
    let mut ctx_soa = ComputeContext::new();
    let mut scratch = ComputeScratch::new();
    let planes = TuplePlanes::from_tuples([tuple], enc).expect("coefficients fit R bits");
    let h_scalar = design.compute_tuple(&mut tile_scalar, enc, tuple, target, &mut ctx_scalar);
    let h_soa = design.compute_tuple_soa(
        &mut tile_soa,
        enc,
        tuple,
        planes.view(0),
        target,
        &mut ctx_soa,
        &mut scratch,
    );
    assert_eq!(
        h_scalar,
        h_soa,
        "{kind} H diverged (R={}, degree={})",
        enc.bits(),
        tuple.degree()
    );
    assert_eq!(
        h_scalar,
        tuple.local_field(),
        "{kind} H diverged from the tuple-local golden field"
    );
    assert_eq!(
        ctx_scalar,
        ctx_soa,
        "{kind} ComputeContext diverged (R={}, degree={})",
        enc.bits(),
        tuple.degree()
    );
    assert_eq!(
        tile_scalar.stats(),
        tile_soa.stats(),
        "{kind} TileStats diverged (R={}, degree={})",
        enc.bits(),
        tuple.degree()
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Random tuples, every design, R ∈ {2..32}: the SoA kernel is
    /// bit-identical to the scalar path in H, counters, and tile stats.
    /// Degrees up to 160 reach multi-word n1 spin rows and n2 drives
    /// longer than one word; rows down to 64 bits reach multi-row n3
    /// tuples at small R.
    #[test]
    fn soa_kernel_matches_scalar_path(
        r in 2u32..=32,
        pairs in prop::collection::vec((any::<u64>(), any::<bool>()), 0..160),
        target_up in any::<bool>(),
        field_raw in any::<u64>(),
        row_bits in 64usize..=ROW_BITS,
    ) {
        let enc = MixedEncoding::new(r).expect("2 <= R <= 32 is valid");
        let tuple = build_tuple(r, &pairs, field_raw);
        let target = if target_up { Spin::Up } else { Spin::Down };
        for kind in DesignKind::ALL {
            assert_paths_agree(kind, &enc, &tuple, target, row_bits);
        }
    }

    /// Streaming many tuples through ONE shared scratch (the machine's
    /// usage pattern) stays bit-identical to per-tuple scalar computes —
    /// the scratch carries no state that can leak between tuples.
    #[test]
    fn shared_scratch_stream_matches_scalar(
        r in 2u32..=8,
        seeds in prop::collection::vec((any::<u64>(), any::<bool>()), 1..6),
    ) {
        let enc = MixedEncoding::new(r).expect("valid resolution");
        for kind in DesignKind::ALL {
            let design = stationarity(kind);
            // Distinct degrees per tuple so buffers must re-size mid-stream.
            let tuples: Vec<SpinTuple> = seeds
                .iter()
                .enumerate()
                .map(|(i, &(raw, up))| {
                    let pairs: Vec<(u64, bool)> = (0..=i * 7)
                        .map(|k| (raw.wrapping_mul(k as u64 + 1), up ^ (k % 3 == 0)))
                        .collect();
                    build_tuple(r, &pairs, raw)
                })
                .collect();
            let max_degree = tuples.iter().map(SpinTuple::degree).max().unwrap_or(1);
            let (rows, cols) = design.tile_requirements(max_degree, r, ROW_BITS);
            let planes = TuplePlanes::from_tuples(tuples.iter(), &enc).expect("coefficients fit");
            let mut tile_scalar = SramTile::new(rows, cols);
            let mut tile_soa = SramTile::new(rows, cols);
            let mut ctx_scalar = ComputeContext::new();
            let mut ctx_soa = ComputeContext::new();
            let mut scratch = ComputeScratch::new();
            for (i, tuple) in tuples.iter().enumerate() {
                let hs = design.compute_tuple(&mut tile_scalar, &enc, tuple, Spin::Up, &mut ctx_scalar);
                let ho = design.compute_tuple_soa(
                    &mut tile_soa, &enc, tuple, planes.view(i), Spin::Up, &mut ctx_soa, &mut scratch,
                );
                prop_assert_eq!(hs, ho, "{} H diverged mid-stream", kind);
            }
            prop_assert_eq!(ctx_scalar, ctx_soa, "{} ComputeContext diverged", kind);
            prop_assert_eq!(tile_scalar.stats(), tile_soa.stats(), "{} TileStats diverged", kind);
        }
    }
}

#[test]
fn empty_and_degree_one_tuples_agree_at_every_resolution() {
    for r in [2u32, 3, 7, 8, 31, 32] {
        let enc = MixedEncoding::new(r).expect("valid resolution");
        let empty = build_tuple(r, &[], 12345);
        let single_pos = build_tuple(r, &[(u64::MAX, true)], 7);
        let single_neg = build_tuple(r, &[(0, false)], u64::MAX);
        for kind in DesignKind::ALL {
            for tuple in [&empty, &single_pos, &single_neg] {
                for target in [Spin::Up, Spin::Down] {
                    assert_paths_agree(kind, &enc, tuple, target, ROW_BITS);
                }
            }
        }
    }
}

#[test]
fn extreme_coefficients_agree() {
    // Most-negative / most-positive coefficients stress the sign bit and
    // the complement (XOR) decode of eqn. 5.
    for r in [2u32, 4, 16, 32] {
        let enc = MixedEncoding::new(r).expect("valid resolution");
        let span = 1u64 << r;
        // raw = 0 -> min coefficient; raw = span - 1 -> max coefficient.
        let pairs: Vec<(u64, bool)> = (0..9)
            .map(|k| (if k % 2 == 0 { 0 } else { span - 1 }, k % 3 != 0))
            .collect();
        let tuple = build_tuple(r, &pairs, span - 1);
        for kind in DesignKind::ALL {
            assert_paths_agree(kind, &enc, &tuple, Spin::Down, ROW_BITS);
        }
    }
}

#[test]
fn spin_row_elision_is_the_only_sanctioned_divergence() {
    // Recomputing the SAME tuple on the spin-stationary designs: the SoA
    // kernel skips the redundant spin-row rewrite. Everything except
    // bits_written stays bit-identical; bits_written drops by exactly the
    // elided row width per skip — and the machine never bills layout
    // writes, so the elision is unobservable in reports.
    let enc = MixedEncoding::new(5).expect("valid resolution");
    let pairs: Vec<(u64, bool)> = (0..17).map(|k| (k * 31 + 5, k % 2 == 0)).collect();
    let tuple = build_tuple(5, &pairs, 3);
    let planes = TuplePlanes::from_tuples([&tuple], &enc).expect("coefficients fit R bits");
    for kind in [DesignKind::N1a, DesignKind::N1b] {
        let design = stationarity(kind);
        let (rows, cols) = design.tile_requirements(tuple.degree(), enc.bits(), ROW_BITS);
        let mut tile_scalar = SramTile::new(rows, cols);
        let mut tile_soa = SramTile::new(rows, cols);
        let mut ctx_scalar = ComputeContext::new();
        let mut ctx_soa = ComputeContext::new();
        let mut scratch = ComputeScratch::new();
        for pass in 0..3u64 {
            let hs =
                design.compute_tuple(&mut tile_scalar, &enc, &tuple, Spin::Up, &mut ctx_scalar);
            let ho = design.compute_tuple_soa(
                &mut tile_soa,
                &enc,
                &tuple,
                planes.view(0),
                Spin::Up,
                &mut ctx_soa,
                &mut scratch,
            );
            assert_eq!(hs, ho, "{kind} H diverged on pass {pass}");
            assert_eq!(
                ctx_scalar, ctx_soa,
                "{kind} counters diverged on pass {pass}"
            );
            assert_eq!(scratch.skipped_spin_writes, pass, "{kind} skip count");
        }
        let s = tile_scalar.stats();
        let o = tile_soa.stats();
        assert_eq!(s.rwl_activations, o.rwl_activations);
        assert_eq!(s.rbl_discharges, o.rbl_discharges);
        assert_eq!(s.redundant_discharges, o.redundant_discharges);
        assert_eq!(s.compute_accesses, o.compute_accesses);
        assert_eq!(s.bits_read, o.bits_read);
        // Two skipped rewrites of the 17-bit spin row.
        assert_eq!(s.bits_written, o.bits_written + 2 * 17);
    }
}

#[test]
fn spin_row_elision_is_word_granular_across_word_boundaries() {
    // A degree-100 tuple packs its spin row into two u64 words. The
    // residency tag works per word: recomputing an unchanged tuple skips
    // BOTH words; flipping a neighbor that lives in the second word
    // rewrites only that word while the clean first word still skips.
    // As with the single-word elision above, bits_written is the only
    // divergence — H and all ComputeContext counters stay bit-identical.
    let enc = MixedEncoding::new(4).expect("valid resolution");
    let pairs: Vec<(u64, bool)> = (0..100).map(|k| (k * 13 + 1, k % 2 == 0)).collect();
    let mut tuple = build_tuple(4, &pairs, 3);
    for kind in [DesignKind::N1a, DesignKind::N1b] {
        let design = stationarity(kind);
        let (rows, cols) = design.tile_requirements(tuple.degree(), enc.bits(), ROW_BITS);
        let mut tile_scalar = SramTile::new(rows, cols);
        let mut tile_soa = SramTile::new(rows, cols);
        let mut ctx_scalar = ComputeContext::new();
        let mut ctx_soa = ComputeContext::new();
        let mut scratch = ComputeScratch::new();
        let planes = TuplePlanes::from_tuples([&tuple], &enc).expect("coefficients fit R bits");
        // Pass 0 is cold (full upload); pass 1 recomputes the identical
        // tuple, so both spin-row words are elided.
        for _ in 0..2 {
            let hs =
                design.compute_tuple(&mut tile_scalar, &enc, &tuple, Spin::Up, &mut ctx_scalar);
            let ho = design.compute_tuple_soa(
                &mut tile_soa,
                &enc,
                &tuple,
                planes.view(0),
                Spin::Up,
                &mut ctx_soa,
                &mut scratch,
            );
            assert_eq!(hs, ho, "{kind} H diverged");
        }
        assert_eq!(
            scratch.skipped_spin_writes, 2,
            "{kind}: both words of an unchanged row must skip"
        );
        // Slot 70 lives in spin-row word 1 (bits 64..100); word 0 stays
        // clean and must keep skipping. The planes are rebuilt from the
        // flipped tuple; the scratch (and its residency tag) carries over.
        tuple.neighbor_spins[70] = tuple.neighbor_spins[70].flipped();
        let planes = TuplePlanes::from_tuples([&tuple], &enc).expect("coefficients fit R bits");
        let hs = design.compute_tuple(&mut tile_scalar, &enc, &tuple, Spin::Up, &mut ctx_scalar);
        let ho = design.compute_tuple_soa(
            &mut tile_soa,
            &enc,
            &tuple,
            planes.view(0),
            Spin::Up,
            &mut ctx_soa,
            &mut scratch,
        );
        assert_eq!(hs, ho, "{kind} H diverged after the word-1 flip");
        assert_eq!(ctx_scalar, ctx_soa, "{kind} counters diverged");
        assert_eq!(
            scratch.skipped_spin_writes, 3,
            "{kind}: the clean word 0 must still skip after a word-1 flip"
        );
        let s = tile_scalar.stats();
        let o = tile_soa.stats();
        assert_eq!(s.bits_read, o.bits_read, "{kind} reads diverged");
        // Pass 1 elided the whole 100-bit row; pass 2 elided word 0
        // (64 bits) and rewrote only the 36-bit tail word.
        assert_eq!(
            s.bits_written,
            o.bits_written + 100 + 64,
            "{kind}: elision must be exactly word-granular"
        );
    }
}

/// Hierarchy small enough that a dense 36-spin complete graph cannot be
/// compute-resident for any design — the multi-round regime where
/// banking and upload/compute overlap are observable at all.
fn tiny_hierarchy() -> CacheHierarchy {
    CacheHierarchy {
        compute: CacheGeometry::new(2, 4, 64, 1),
        storage: CacheGeometry::sachi_storage_default(),
    }
}

fn solve_workload(
    config: SachiConfig,
) -> (
    sachi::ising::solver::SolveResult,
    sachi::arch::machine::RunReport,
) {
    let graph = topology::complete(36, |i, j| ((i + 2 * j) % 9) as i32 - 4).unwrap();
    let mut rng = StdRng::seed_from_u64(23);
    let init = SpinVector::random(graph.num_spins(), &mut rng);
    let opts = SolveOptions::for_graph(&graph, 17).with_trace();
    SachiMachine::new(config).solve_detailed(&graph, &init, &opts)
}

#[test]
fn bank_count_one_is_cycle_identical_to_unbanked() {
    // `with_banks(1)` must be a no-op against the default (unbanked)
    // machine: same result, same cycle accounting, bit for bit — the
    // banked upload schedule degenerates to the serial one at B = 1.
    for design in DesignKind::ALL {
        let base = SachiConfig::new(design).with_hierarchy(tiny_hierarchy());
        let (res_u, rep_u) = solve_workload(base.clone());
        let (res_b, rep_b) = solve_workload(base.with_banks(1));
        assert_eq!(res_u.energy, res_b.energy, "{design} energy");
        assert_eq!(res_u.spins, res_b.spins, "{design} spins");
        assert_eq!(res_u.trace, res_b.trace, "{design} trajectory");
        assert_eq!(
            rep_u.compute_cycles, rep_b.compute_cycles,
            "{design} compute"
        );
        assert_eq!(rep_u.load_cycles, rep_b.load_cycles, "{design} load");
        assert_eq!(rep_u.total_cycles, rep_b.total_cycles, "{design} total");
        assert_eq!(rep_u.tile, rep_b.tile, "{design} tile stats");
    }
}

#[test]
fn banking_shrinks_load_without_touching_results_or_compute() {
    // More banks -> fewer upload cycles per round, identical physics:
    // the H trajectory, compute cycles, and tile stats are bit-identical
    // while the load-side cycle count strictly drops on a multi-round
    // sweep.
    for design in DesignKind::ALL {
        let base = SachiConfig::new(design).with_hierarchy(tiny_hierarchy());
        let (res_1, rep_1) = solve_workload(base.clone());
        let (res_8, rep_8) = solve_workload(base.with_banks(8));
        assert!(
            rep_1.rounds_per_sweep > 1,
            "{design}: need multi-round sweeps"
        );
        assert_eq!(res_1.energy, res_8.energy, "{design} energy");
        assert_eq!(res_1.trace, res_8.trace, "{design} trajectory");
        assert_eq!(
            rep_1.compute_cycles, rep_8.compute_cycles,
            "{design} compute"
        );
        assert_eq!(rep_1.tile, rep_8.tile, "{design} tile stats");
        assert!(
            rep_8.load_cycles < rep_1.load_cycles,
            "{design}: 8-bank load {} !< unbanked load {}",
            rep_8.load_cycles,
            rep_1.load_cycles
        );
        assert!(
            rep_8.total_cycles <= rep_1.total_cycles,
            "{design}: banked total exceeded unbanked"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// The software-pipelined sweep (prefetch overlaps round k+1's upload
    /// with round k's compute) must be an accounting-only optimization:
    /// identical H trajectory, spins, and compute cycles as the serial
    /// sweep, with a total critical path no longer than serial.
    #[test]
    fn pipelined_sweep_matches_serial_sweep(
        seed in 0u64..512,
        side in 4usize..=6,
    ) {
        let span = side * 2 + 1;
        let graph = topology::complete(6 * side, move |i, j| {
            ((i as usize * 3 + 2 * (j as usize) + seed as usize) % span) as i32 - side as i32
        })
        .unwrap();
        let mut rng = StdRng::seed_from_u64(seed);
        let init = SpinVector::random(graph.num_spins(), &mut rng);
        let opts = SolveOptions::for_graph(&graph, seed).with_trace();
        for design in DesignKind::ALL {
            let base = SachiConfig::new(design).with_hierarchy(tiny_hierarchy());
            let (res_p, rep_p) =
                SachiMachine::new(base.clone()).solve_detailed(&graph, &init, &opts);
            let (res_s, rep_s) =
                SachiMachine::new(base.without_prefetch()).solve_detailed(&graph, &init, &opts);
            prop_assert_eq!(&res_p.trace, &res_s.trace, "{} trajectory", design);
            prop_assert_eq!(&res_p.spins, &res_s.spins, "{} spins", design);
            prop_assert_eq!(res_p.energy, res_s.energy, "{} energy", design);
            prop_assert_eq!(rep_p.compute_cycles, rep_s.compute_cycles, "{} compute", design);
            prop_assert_eq!(rep_p.tile, rep_s.tile, "{} tile stats", design);
            prop_assert!(
                rep_p.total_cycles <= rep_s.total_cycles,
                "{} pipelined total {} exceeded serial {}",
                design, rep_p.total_cycles, rep_s.total_cycles
            );
        }
    }
}
