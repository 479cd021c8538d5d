//! Cross-crate integration: every machine in the workspace — the four
//! SACHI stationarity designs, BRIM, and Ising-CIM — must reproduce the
//! golden CPU solver's Hamiltonian trajectory exactly, on every workload
//! family. This is the paper's premise that architecture changes the
//! cost of an iteration, never its result ("they all arrive at the same H
//! at the end of each iteration").

use rand::rngs::StdRng;
use rand::SeedableRng;
use sachi::prelude::*;

fn golden(graph: &IsingGraph, init: &SpinVector, opts: &SolveOptions) -> SolveResult {
    CpuReferenceSolver::new().solve(graph, init, opts)
}

fn assert_matches(label: &str, golden: &SolveResult, got: &SolveResult) {
    assert_eq!(got.energy, golden.energy, "{label}: final energy");
    assert_eq!(got.sweeps, golden.sweeps, "{label}: iteration count");
    assert_eq!(got.trace, golden.trace, "{label}: H trajectory");
    assert_eq!(got.spins, golden.spins, "{label}: final spins");
    assert_eq!(got.flips, golden.flips, "{label}: flip count");
}

fn check_all_sachi_designs(graph: &IsingGraph, seed: u64) {
    let mut rng = StdRng::seed_from_u64(seed);
    let init = SpinVector::random(graph.num_spins(), &mut rng);
    let opts = SolveOptions::for_graph(graph, seed ^ 0x9e37).with_trace();
    let reference = golden(graph, &init, &opts);
    for design in DesignKind::ALL {
        let mut machine = SachiMachine::new(SachiConfig::new(design));
        let got = machine.solve(graph, &init, &opts);
        assert_matches(design.label(), &reference, &got);
    }
}

#[test]
fn sachi_designs_match_golden_on_molecular_dynamics() {
    let w = MolecularDynamics::new(6, 6, 3);
    check_all_sachi_designs(w.graph(), 1);
}

#[test]
fn sachi_designs_match_golden_on_asset_allocation() {
    let w = AssetAllocation::new(24, 5);
    check_all_sachi_designs(w.graph(), 2);
}

#[test]
fn sachi_designs_match_golden_on_image_segmentation() {
    let w = ImageSegmentation::with_options(8, 8, 7, Connectivity::Grid4, 6);
    check_all_sachi_designs(w.graph(), 3);
}

#[test]
fn sachi_designs_match_golden_on_dense_segmentation() {
    let w = ImageSegmentation::new(8, 8, 9);
    check_all_sachi_designs(w.graph(), 4);
}

#[test]
fn sachi_designs_match_golden_on_decision_tsp() {
    let w = TspDecision::new(20, 11);
    check_all_sachi_designs(w.graph(), 5);
}

#[test]
fn sachi_designs_match_golden_on_tour_tsp() {
    let w = TspTour::new(5, 13);
    check_all_sachi_designs(w.graph(), 6);
}

#[test]
fn brim_matches_golden_within_its_envelope() {
    // BRIM: <= 1000 nodes, signed 4-bit.
    let w = MolecularDynamics::new(8, 8, 17);
    let graph = w.graph();
    let mut rng = StdRng::seed_from_u64(7);
    let init = SpinVector::random(graph.num_spins(), &mut rng);
    let opts = SolveOptions::for_graph(graph, 19).with_trace();
    let reference = golden(graph, &init, &opts);
    let mut brim = BrimMachine::new();
    let (got, report) = brim
        .solve_detailed(graph, &init, &opts)
        .expect("within BRIM envelope");
    assert_matches("BRIM", &reference, &got);
    assert!((report.reuse - 1.0).abs() < f64::EPSILON);
}

#[test]
fn ising_cim_matches_golden_within_its_envelope() {
    // Ising-CIM: King's graph, unsigned 2-bit.
    let w = MolecularDynamics::with_resolution(8, 8, 23, 2);
    let graph = w.graph();
    let mut rng = StdRng::seed_from_u64(8);
    let init = SpinVector::random(graph.num_spins(), &mut rng);
    let opts = SolveOptions::for_graph(graph, 29).with_trace();
    let reference = golden(graph, &init, &opts);
    let mut cim = CimMachine::new();
    let (got, report) = cim
        .solve_detailed(graph, &init, &opts)
        .expect("within Ising-CIM envelope");
    assert_matches("Ising-CIM", &reference, &got);
    assert!((report.reuse - 1.0).abs() < f64::EPSILON);
}

#[test]
fn all_machines_agree_with_each_other_on_shared_envelope() {
    // The intersection of every machine's envelope: small 2-bit King's
    // graph. One problem, seven machines, one trajectory.
    let w = MolecularDynamics::with_resolution(6, 6, 31, 2);
    let graph = w.graph();
    let mut rng = StdRng::seed_from_u64(9);
    let init = SpinVector::random(graph.num_spins(), &mut rng);
    let opts = SolveOptions::for_graph(graph, 37).with_trace();
    let reference = golden(graph, &init, &opts);

    for design in DesignKind::ALL {
        let got = SachiMachine::new(SachiConfig::new(design)).solve(graph, &init, &opts);
        assert_matches(design.label(), &reference, &got);
    }
    let (brim, _) = BrimMachine::new()
        .solve_detailed(graph, &init, &opts)
        .expect("BRIM envelope");
    assert_matches("BRIM", &reference, &brim);
    let (cim, _) = CimMachine::new()
        .solve_detailed(graph, &init, &opts)
        .expect("CIM envelope");
    assert_matches("Ising-CIM", &reference, &cim);
}

#[test]
fn pre_cancelled_token_stops_every_hardware_model_before_the_first_sweep() {
    // Cancellation is part of the shared protocol loop, so every machine
    // that drives it honours a raised token at the first sweep boundary.
    let side = 6;
    let w = MolecularDynamics::with_resolution(side, side, 31, 2);
    let graph = w.graph();
    let mut rng = StdRng::seed_from_u64(10);
    let init = SpinVector::random(graph.num_spins(), &mut rng);
    let token = CancelToken::new();
    token.cancel();
    let opts = SolveOptions::for_graph(graph, 41).with_cancel(token);
    let check = |label: &str, got: &SolveResult| {
        assert_eq!(got.sweeps, 0, "{label}: sweeps");
        assert_eq!(got.spins, init, "{label}: spins");
        assert!(!got.converged, "{label}: converged");
    };

    for design in DesignKind::ALL {
        let got = SachiMachine::new(SachiConfig::new(design)).solve(graph, &init, &opts);
        check(design.label(), &got);
    }
    let got = ResidentN3Machine::new(SachiConfig::new(DesignKind::N3)).solve(graph, &init, &opts);
    check("resident n3", &got);
    let (got, _) = BrimMachine::new()
        .solve_detailed(graph, &init, &opts)
        .expect("BRIM envelope");
    check("BRIM", &got);
    let (got, _) = CimMachine::new()
        .solve_detailed(graph, &init, &opts)
        .expect("CIM envelope");
    check("Ising-CIM", &got);
    let (got, _) = CmosAnnealer::new(side)
        .solve_detailed(graph, &init, &opts)
        .expect("CMOS envelope");
    check("CMOS annealer", &got);
}

#[test]
fn threaded_ensembles_match_sequential_golden_runs_on_every_design() {
    // Differential conformance for the parallel replica path: each SACHI
    // design, run as a 4-replica / 4-thread ensemble, must equal a
    // sequential golden-model run replica for replica — same derived
    // seed, same spins, same trajectory, same accept/reject counts.
    let w = MolecularDynamics::new(7, 7, 47);
    let graph = w.graph();
    let mut rng = StdRng::seed_from_u64(11);
    let init = SpinVector::random(graph.num_spins(), &mut rng);
    let opts = SolveOptions::for_graph(graph, 53).with_trace();
    let replicas = 4usize;

    // Sequential golden runs, one per derived replica seed.
    let goldens: Vec<SolveResult> = (0..replicas)
        .map(|k| {
            let o = SolveOptions {
                seed: derive_replica_seed(opts.seed, k as u64),
                ..opts.clone()
            };
            golden(graph, &init, &o)
        })
        .collect();

    for design in DesignKind::ALL {
        let config = SachiConfig::new(design);
        let best_of =
            EnsembleRunner::new(replicas)
                .with_threads(4)
                .run(graph, &init, &opts, |_| SachiMachine::new(config.clone()));
        assert_eq!(best_of.replicas.len(), replicas);
        for (k, (got, reference)) in best_of.replicas.iter().zip(&goldens).enumerate() {
            let label = format!("{} replica {k}", design.label());
            assert_matches(&label, reference, got);
            assert_eq!(
                got.uphill_accepted, reference.uphill_accepted,
                "{label}: uphill accepts"
            );
            assert_eq!(
                got.uphill_rejected, reference.uphill_rejected,
                "{label}: uphill rejects"
            );
        }
        // The reduction picks the true minimum (lowest index on ties).
        let best = best_of.best();
        assert!(goldens.iter().all(|g| g.energy >= best.energy));
        assert_eq!(best, &goldens[best_of.best_index]);
    }
}

#[test]
fn geometry_never_changes_results() {
    // Shrinking the compute/storage arrays forces rounds and DRAM
    // streaming but must not perturb the functional outcome.
    let w = MolecularDynamics::new(7, 7, 41);
    let graph = w.graph();
    let mut rng = StdRng::seed_from_u64(10);
    let init = SpinVector::random(graph.num_spins(), &mut rng);
    let opts = SolveOptions::for_graph(graph, 43).with_trace();
    let reference = golden(graph, &init, &opts);
    for hierarchy in [
        CacheHierarchy::hpca_default(),
        CacheHierarchy::desktop(),
        CacheHierarchy::server(),
    ] {
        let got = SachiMachine::new(SachiConfig::new(DesignKind::N3).with_hierarchy(hierarchy))
            .solve(graph, &init, &opts);
        assert_matches("hierarchy preset", &reference, &got);
    }
    let tiny = CacheHierarchy {
        compute: CacheGeometry::new(1, 4, 64, 1),
        storage: CacheGeometry::new(1, 2, 64, 2),
    };
    let got = SachiMachine::new(SachiConfig::new(DesignKind::N3).with_hierarchy(tiny))
        .solve(graph, &init, &opts);
    assert_matches("tiny hierarchy", &reference, &got);
}
