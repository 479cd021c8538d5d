//! Cross-family machine properties: golden-trajectory agreement and
//! accounting invariants must hold for every graph *family* the paper
//! touches (King's, grid, complete, star, sparse random), every design,
//! and random coefficients — not just the lattices the unit tests pick.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;
use sachi::prelude::*;

/// Deterministic pseudo-random weight from a salt (proptest shrinks the
/// salt, keeping failures reproducible).
fn weight(salt: u64, i: u32, j: u32, max_abs: i32) -> i32 {
    let mut x = salt ^ ((i as u64) << 32) ^ j as u64;
    x = x
        .wrapping_mul(0x9e3779b97f4a7c15)
        .rotate_left(31)
        .wrapping_mul(0xbf58476d1ce4e5b9);
    let span = (2 * max_abs + 1) as u64;
    ((x >> 33) % span) as i32 - max_abs
}

fn family_graph(family: usize, salt: u64) -> IsingGraph {
    match family % 5 {
        0 => topology::king(4, 5, |i, j| weight(salt, i, j, 6)).expect("king"),
        1 => topology::grid4(4, 5, |i, j| weight(salt, i, j, 10)).expect("grid"),
        2 => topology::complete(9, |i, j| weight(salt, i, j, 4)).expect("complete"),
        3 => topology::star(12, |j| weight(salt, 0, j, 12).max(1)).expect("star"),
        _ => {
            // Sparse random: ring plus salted chords.
            let n = 14u32;
            let mut b = GraphBuilder::new(n as usize);
            for i in 0..n {
                b.push_edge(i, (i + 1) % n, weight(salt, i, i + 1, 7));
            }
            for k in 0..6u32 {
                let u = (weight(salt, k, 99, 1000).unsigned_abs()) % n;
                let v = (weight(salt, k, 177, 1000).unsigned_abs()) % n;
                if u != v && ((u + 1) % n != v) && ((v + 1) % n != u) {
                    // Chords may collide; build() below falls back to the
                    // plain ring when they do.
                    b.push_edge(u, v, weight(salt, u, v, 7));
                }
            }
            match b.build() {
                Ok(g) => g,
                // Duplicate chord: degrade to the plain ring.
                Err(_) => {
                    let mut b = GraphBuilder::new(n as usize);
                    for i in 0..n {
                        b.push_edge(i, (i + 1) % n, weight(salt, i, i + 1, 7));
                    }
                    b.build().expect("ring")
                }
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    /// Every design matches the golden trajectory on every family.
    #[test]
    fn all_designs_match_golden_on_all_families(
        family in 0usize..5,
        salt in 0u64..10_000,
        seed in 0u64..1_000,
        design_idx in 0usize..4,
    ) {
        let graph = family_graph(family, salt);
        let mut rng = StdRng::seed_from_u64(seed);
        let init = SpinVector::random(graph.num_spins(), &mut rng);
        let opts = SolveOptions::for_graph(&graph, seed).with_max_sweeps(150).with_trace();
        let golden = CpuReferenceSolver::new().solve(&graph, &init, &opts);
        let design = DesignKind::ALL[design_idx];
        let got = SachiMachine::new(SachiConfig::new(design)).solve(&graph, &init, &opts);
        prop_assert_eq!(&got.trace, &golden.trace, "{} diverged on family {}", design, family);
        prop_assert_eq!(got.energy, golden.energy);
        prop_assert_eq!(got.flips, golden.flips);
    }

    /// The resident machine agrees with the scratch machine everywhere
    /// (and hence with the golden model).
    #[test]
    fn resident_machine_matches_scratch_on_all_families(
        family in 0usize..5,
        salt in 0u64..10_000,
        seed in 0u64..1_000,
    ) {
        let graph = family_graph(family, salt);
        let mut rng = StdRng::seed_from_u64(seed);
        let init = SpinVector::random(graph.num_spins(), &mut rng);
        let opts = SolveOptions::for_graph(&graph, seed).with_max_sweeps(120).with_trace();
        let (scratch, s_report) =
            SachiMachine::new(SachiConfig::new(DesignKind::N3)).solve_detailed(&graph, &init, &opts);
        let (resident, r_report) =
            ResidentN3Machine::new(SachiConfig::new(DesignKind::N3)).solve_detailed(&graph, &init, &opts);
        prop_assert_eq!(scratch.trace, resident.trace);
        prop_assert_eq!(s_report.compute_cycles, r_report.compute_cycles);
        prop_assert_eq!(s_report.xnor_ops, r_report.xnor_ops);
    }

    /// Accounting invariants hold across families and designs: the ledger
    /// total equals the sum of its components, XNOR work is bounded by
    /// discharge-capable bits, and BRIM/CIM keep reuse exactly 1 inside
    /// their envelopes; inside its envelope BRIM also returns the golden
    /// result.
    #[test]
    fn ledgers_and_reuse_invariants(family in 0usize..5, salt in 0u64..10_000) {
        let graph = family_graph(family, salt);
        let mut rng = StdRng::seed_from_u64(salt);
        let init = SpinVector::random(graph.num_spins(), &mut rng);
        let opts = SolveOptions::for_graph(&graph, salt).with_max_sweeps(60);
        for design in DesignKind::ALL {
            let (_, report) =
                SachiMachine::new(SachiConfig::new(design)).solve_detailed(&graph, &init, &opts);
            let component_sum: f64 = report.energy.iter().map(|(_, e)| e.get()).sum();
            prop_assert!((report.energy.total().get() - component_sum).abs() < 1e-6);
            prop_assert!(report.xnor_ops >= report.rwl_bits_fetched,
                "{}: XNOR ops below RWL fetches", design);
        }
        if let Ok((result, brim)) = BrimMachine::new().solve_detailed(&graph, &init, &opts) {
            let golden = CpuReferenceSolver::new().solve(&graph, &init, &opts);
            prop_assert_eq!(result, golden, "BRIM diverged on family {}", family);
            prop_assert!((brim.reuse - 1.0).abs() < f64::EPSILON);
        }
        if let Ok((_, cim)) = CimMachine::new().solve_detailed(&graph, &init, &opts) {
            prop_assert!((cim.reuse - 1.0).abs() < f64::EPSILON);
        }
    }
}
