//! The ensemble determinism contract, property-tested: thread count and
//! replica scheduling are unobservable in ensemble results, and the
//! per-replica seed derivation never collides across replica indices.
//!
//! `ci.sh` runs this suite twice — with `--test-threads=1` and
//! `--test-threads=8` — so the contract is exercised both with the
//! worker pool to itself and under heavy host contention.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{RngCore, SeedableRng};
use sachi::prelude::*;

/// A small frustrated instance whose anneal actually exercises uphill
/// moves (so accept/reject bookkeeping is live, not trivially zero).
fn frustrated_graph(rows: usize, cols: usize, salt: u64) -> IsingGraph {
    let mut k = salt;
    topology::king(rows, cols, |i, j| {
        k = k
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        ((k >> 33) % 11) as i32 - 5 + (i as i32 - j as i32) % 2
    })
    .expect("king graph construction")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Same master seed => byte-identical `BestOf` (spins, energies,
    /// accept/reject counts, best index) at every thread count.
    #[test]
    fn thread_count_is_unobservable(salt in 0u64..1000, master in 0u64..1000, replicas in 2usize..7) {
        let graph = frustrated_graph(4, 5, salt);
        let mut rng = StdRng::seed_from_u64(salt ^ 0xA5A5);
        let init = SpinVector::random(graph.num_spins(), &mut rng);
        let opts = SolveOptions::for_graph(&graph, master).with_max_sweeps(120).with_trace();
        let reference = EnsembleRunner::new(replicas)
            .with_threads(1)
            .run_reference(&graph, &init, &opts);
        for threads in [2usize, 8] {
            let got = EnsembleRunner::new(replicas)
                .with_threads(threads)
                .run_reference(&graph, &init, &opts);
            prop_assert_eq!(&got, &reference, "threads = {}", threads);
        }
    }

    /// Replica results depend only on `(master_seed, replica_index)`:
    /// solving the replicas by hand in *reverse* order with the derived
    /// seeds reproduces the runner's replica vector slot for slot.
    #[test]
    fn replica_order_is_unobservable(salt in 0u64..1000, master in 0u64..1000) {
        let graph = frustrated_graph(4, 4, salt);
        let mut rng = StdRng::seed_from_u64(salt ^ 0x5A5A);
        let init = SpinVector::random(graph.num_spins(), &mut rng);
        let opts = SolveOptions::for_graph(&graph, master).with_max_sweeps(100);
        let replicas = 5usize;
        let ensemble = EnsembleRunner::new(replicas)
            .with_threads(4)
            .run_reference(&graph, &init, &opts);

        let mut solver = CpuReferenceSolver::new();
        for k in (0..replicas).rev() {
            let o = SolveOptions {
                seed: derive_replica_seed(master_seed_of(&opts), k as u64),
                ..opts.clone()
            };
            let manual = solver.solve(&graph, &init, &o);
            prop_assert_eq!(&manual, &ensemble.replicas[k], "replica {}", k);
        }
    }

    /// The SplitMix64 seed fold is injective in the replica index for a
    /// fixed master seed — no two replicas ever share an annealer
    /// stream. Checked exhaustively over `replica_index < 2^16` per
    /// sampled master seed.
    #[test]
    fn seed_derivation_is_injective_below_2_pow_16(master in any::<u64>()) {
        let mut seeds: Vec<u64> = (0u64..1 << 16)
            .map(|k| derive_replica_seed(master, k))
            .collect();
        seeds.sort_unstable();
        let before = seeds.len();
        seeds.dedup();
        prop_assert_eq!(seeds.len(), before);
    }

    /// Different master seeds derive different streams (first replica).
    #[test]
    fn masters_decouple(a in any::<u64>(), delta in 1u64..100_000) {
        let b = a.wrapping_add(delta);
        prop_assert_ne!(derive_replica_seed(a, 0), derive_replica_seed(b, 0));
    }
}

/// The master seed an ensemble derives from is exactly `options.seed`.
fn master_seed_of(opts: &SolveOptions) -> u64 {
    opts.seed
}

/// Runs a machine ensemble with an optional fault profile, returning the
/// results plus the folded per-replica accounting.
fn machine_ensemble(
    graph: &IsingGraph,
    init: &SpinVector,
    opts: &SolveOptions,
    replicas: usize,
    threads: usize,
    fault: Option<FaultProfile>,
) -> (sachi::ising::ensemble::BestOf, EnsembleReport) {
    let mut config = SachiConfig::new(DesignKind::N3);
    if let Some(profile) = fault {
        config = config.with_fault(profile);
    }
    let ledger = ReplicaLedger::new(replicas);
    let best_of = EnsembleRunner::new(replicas)
        .with_threads(threads)
        .run(graph, init, opts, |k| {
            ReportingMachine::new(SachiMachine::new(config.clone()), k, &ledger)
        });
    (best_of, ledger.finish())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// A zero-rate fault model is *provably inert*: the ensemble output
    /// is byte-equal to a run with no fault profile at all, and no fault
    /// accounting ever becomes nonzero. The fault layer extends the PR 2
    /// determinism contract rather than weakening it.
    #[test]
    fn zero_rate_fault_model_is_identity(salt in 0u64..500, master in 0u64..500, fault_seed in any::<u64>()) {
        let graph = frustrated_graph(4, 4, salt);
        let mut rng = StdRng::seed_from_u64(salt ^ 0x0FA1);
        let init = SpinVector::random(graph.num_spins(), &mut rng);
        let opts = SolveOptions::for_graph(&graph, master).with_max_sweeps(60);
        let replicas = 3usize;

        let (golden, golden_report) =
            machine_ensemble(&graph, &init, &opts, replicas, 2, None);
        let inert = FaultProfile::new(FaultModel::new(fault_seed));
        let (faulted, faulted_report) =
            machine_ensemble(&graph, &init, &opts, replicas, 2, Some(inert));

        prop_assert_eq!(&faulted, &golden);
        for (got, want) in faulted_report.reports.iter().zip(&golden_report.reports) {
            prop_assert_eq!(got, want);
            prop_assert_eq!(got.faults, FaultReport::default());
        }
    }

    /// The fault trajectory is a pure function of `(master seed, fault
    /// seed, replica index)`: at a nonzero BER, 1-thread and 8-thread
    /// ensembles agree byte-for-byte — results *and* per-replica fault
    /// accounting (injections, detections, retries, degraded flags).
    #[test]
    fn fault_streams_are_thread_count_independent(salt in 0u64..500, master in 0u64..500, fault_seed in any::<u64>()) {
        let graph = frustrated_graph(4, 4, salt);
        let mut rng = StdRng::seed_from_u64(salt ^ 0x1FA2);
        let init = SpinVector::random(graph.num_spins(), &mut rng);
        let opts = SolveOptions::for_graph(&graph, master).with_max_sweeps(60);
        let replicas = 4usize;
        let profile = FaultProfile::new(
            FaultModel::new(fault_seed).with_read_ber(FaultRate::from_probability(1e-3)),
        );

        let (reference, reference_report) =
            machine_ensemble(&graph, &init, &opts, replicas, 1, Some(profile.clone()));
        let (threaded, threaded_report) =
            machine_ensemble(&graph, &init, &opts, replicas, 8, Some(profile));

        prop_assert_eq!(&threaded, &reference);
        prop_assert_eq!(
            threaded_report.reports.len(),
            reference_report.reports.len()
        );
        for (got, want) in threaded_report.reports.iter().zip(&reference_report.reports) {
            prop_assert_eq!(&got.faults, &want.faults);
        }
        prop_assert_eq!(threaded_report.faults_injected, reference_report.faults_injected);
        prop_assert_eq!(threaded_report.faults_detected, reference_report.faults_detected);
        prop_assert_eq!(threaded_report.fault_retries, reference_report.fault_retries);
        prop_assert_eq!(threaded_report.degraded_replicas, reference_report.degraded_replicas);
    }
}

/// Strategy for one daemon job in a mixed-workload batch: family, size,
/// restarts, and seed all vary, so co-tenant jobs on the shared pool are
/// genuinely heterogeneous (different graphs, replica counts, budgets).
fn job_spec_strategy() -> impl Strategy<Value = JobSpec> {
    (0usize..3, 8usize..17, 0u64..1000, 2u64..4).prop_map(|(family, size, seed, restarts)| {
        let cop = match family {
            0 => CopKind::MolecularDynamics,
            1 => CopKind::SatThree,
            _ => CopKind::GraphColoring,
        };
        JobSpec {
            cop,
            size,
            seed,
            restarts,
            step_budget: Some(3000),
            ..JobSpec::default()
        }
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// The `sachi serve` multi-tenancy contract: a batch of jobs from
    /// *different* workload families, interleaved on one shared
    /// [`SolverPool`], each produce outcomes byte-identical to their
    /// own [`JobPlan::run_solo`] reference — at every thread count, so
    /// neither co-tenants nor worker scheduling are observable.
    #[test]
    fn mixed_workload_batches_are_tenant_isolated(
        specs in proptest::collection::vec(job_spec_strategy(), 3..6),
        threads in 1usize..5,
    ) {
        let solo: Vec<JobOutcome> = specs
            .iter()
            .map(|s| JobPlan::from_spec(s).expect("spec strategy yields valid jobs").run_solo())
            .collect();
        let pool = SolverPool::with_workers(threads);
        let handles: Vec<JobHandle> = specs
            .iter()
            .map(|s| pool.submit(JobPlan::from_spec(s).expect("validated above")))
            .collect();
        for ((handle, want), spec) in handles.iter().zip(&solo).zip(&specs) {
            let got = handle.wait().expect("pooled job completes");
            prop_assert_eq!(&got.best, &want.best, "spec = {:?}, threads = {}", spec, threads);
            prop_assert_eq!(got.report.serial_cycles, want.report.serial_cycles);
            prop_assert_eq!(got.report.max_replica_cycles, want.report.max_replica_cycles);
            prop_assert!((got.accuracy - want.accuracy).abs() < 1e-12);
        }
        pool.join();
    }
}

/// Asserts two outcomes of one plan are the same bytes: verdict, folded
/// cycles, accuracy bits and the full exported metrics registry.
fn assert_same_outcome(got: &JobOutcome, want: &JobOutcome, what: &str) {
    assert_eq!(got.best, want.best, "{what}");
    assert_eq!(
        got.report.serial_cycles, want.report.serial_cycles,
        "{what}"
    );
    assert_eq!(
        got.report.max_replica_cycles, want.report.max_replica_cycles,
        "{what}"
    );
    assert_eq!(got.accuracy.to_bits(), want.accuracy.to_bits(), "{what}");
    assert_eq!(got.metrics(), want.metrics(), "{what}");
}

/// The one job engine: `JobPlan::run_threaded` at any thread count, the
/// `run_solo` reference and the pooled job are the same function of the
/// spec — for plain, tempered and faulted jobs alike. `sachi solve` runs
/// `run_threaded`, the daemon the pool, so this pins CLI/daemon
/// identity in-process.
#[test]
fn threaded_solo_and_pooled_runs_agree() {
    let base = JobSpec {
        cop: CopKind::SatThree,
        size: 12,
        seed: 41,
        restarts: 3,
        step_budget: Some(20_000),
        ..JobSpec::default()
    };
    let specs = [
        base.clone(),
        JobSpec {
            tempering: true,
            ladder: LadderKind::Adaptive,
            ..base.clone()
        },
        JobSpec {
            cop: CopKind::MolecularDynamics,
            fault_ber: Some(1e-3),
            fault_seed: 5,
            fault_policy: RecoveryPolicy::RefetchRetry { max_retries: 3 },
            ..base.clone()
        },
        JobSpec {
            cop: CopKind::MolecularDynamics,
            fault_ber: Some(1e-2),
            fault_policy: RecoveryPolicy::FailFast,
            ..base
        },
    ];
    for spec in &specs {
        let plan = JobPlan::from_spec(spec).expect("valid spec");
        let solo = plan.run_solo();
        for threads in 1..=5 {
            let what = format!("{spec:?} at {threads} threads");
            assert_same_outcome(&plan.run_threaded(threads), &solo, &what);
            let pool = SolverPool::with_workers(threads);
            let pooled = pool
                .submit(JobPlan::from_spec(spec).expect("valid spec"))
                .wait()
                .expect("pooled job completes");
            pool.join();
            assert_same_outcome(&pooled, &solo, &format!("pooled {what}"));
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Golden agreement for the tempering upgrade: installing a
    /// tempering config with `exchange = false` must be *byte-identical*
    /// to the plain independent-replica ensemble — the swap machinery
    /// is provably inert until switched on, so every pre-tempering
    /// golden result stays valid.
    #[test]
    fn swaps_disabled_tempering_is_byte_identical_to_plain_ensemble(
        salt in 0u64..500,
        master in 0u64..500,
        replicas in 2usize..6,
        kind_adaptive in any::<bool>(),
    ) {
        let graph = frustrated_graph(4, 4, salt);
        let mut rng = StdRng::seed_from_u64(salt ^ 0x7E41);
        let init = SpinVector::random(graph.num_spins(), &mut rng);
        let kind = if kind_adaptive { LadderKind::Adaptive } else { LadderKind::Geometric };
        let plain = SolveOptions::for_graph(&graph, master).with_max_sweeps(100);
        let disabled = plain.clone().with_tempering(
            TemperingOptions::for_graph(kind, &graph, replicas).without_exchange(),
        );
        let runner = EnsembleRunner::new(replicas).with_threads(2);
        let want = runner.run_reference(&graph, &init, &plain);
        let got = runner.run_reference(&graph, &init, &disabled);
        prop_assert_eq!(&got, &want);
    }

    /// The tempering determinism contract: with exchange *enabled*, the
    /// swap decisions and segment streams are pure functions of the
    /// master seed, so thread count stays unobservable — and the
    /// borrowed-solver sequential path is the same function as the
    /// thread-pool path.
    #[test]
    fn tempered_ensembles_are_thread_count_independent(
        salt in 0u64..500,
        master in 0u64..500,
        rungs in 2usize..6,
        kind_adaptive in any::<bool>(),
    ) {
        let graph = frustrated_graph(4, 5, salt);
        let mut rng = StdRng::seed_from_u64(salt ^ 0x7E42);
        let init = SpinVector::random(graph.num_spins(), &mut rng);
        let kind = if kind_adaptive { LadderKind::Adaptive } else { LadderKind::Geometric };
        let mut topts = TemperingOptions::for_graph(kind, &graph, rungs);
        topts.swap_interval = 8;
        let opts = SolveOptions::for_graph(&graph, master)
            .with_max_sweeps(96)
            .with_tempering(topts);
        let reference = EnsembleRunner::new(rungs)
            .with_threads(1)
            .run_reference(&graph, &init, &opts);
        for threads in [2usize, 8] {
            let got = EnsembleRunner::new(rungs)
                .with_threads(threads)
                .run_reference(&graph, &init, &opts);
            prop_assert_eq!(&got, &reference, "threads = {}", threads);
        }
        let mut solver = CpuReferenceSolver::new();
        let sequential = EnsembleRunner::new(rungs)
            .with_threads(4)
            .run_sequential(&mut solver, &graph, &init, &opts);
        prop_assert_eq!(&sequential, &reference);
    }

    /// `BestOf::reduce` is permutation-stable in the *winning key*:
    /// shuffling the replica vector never changes the `(degraded,
    /// energy)` key of the winner — and within any presentation order
    /// the winner is always the **first** replica achieving the minimal
    /// key, so the lowest-index tie-break is observable directly.
    /// (Distinct replicas can tie exactly on the key, so the winning
    /// `SolveResult` itself may legitimately differ across orders; the
    /// key and the first-minimal rule are the contract.)
    #[test]
    fn best_of_reduce_winner_is_permutation_stable(
        salt in 0u64..500,
        master in 0u64..500,
        perm_seed in any::<u64>(),
    ) {
        // Fisher–Yates permutation of the replica slots, driven by a
        // sampled seed so every case reshuffles differently.
        let mut perm_rng = StdRng::seed_from_u64(perm_seed);
        let mut perm: Vec<usize> = (0..6).collect();
        for i in (1..perm.len()).rev() {
            let j = (perm_rng.next_u64() % (i as u64 + 1)) as usize;
            perm.swap(i, j);
        }
        let graph = frustrated_graph(4, 4, salt);
        let mut rng = StdRng::seed_from_u64(salt ^ 0x7E43);
        let init = SpinVector::random(graph.num_spins(), &mut rng);
        let opts = SolveOptions::for_graph(&graph, master).with_max_sweeps(80);
        let original = EnsembleRunner::new(6)
            .with_threads(2)
            .run_reference(&graph, &init, &opts);
        let shuffled: Vec<_> = perm.iter().map(|&k| original.replicas[k].clone()).collect();
        let key = |r: &SolveResult| (r.degraded, r.energy);
        let expected_index = shuffled
            .iter()
            .enumerate()
            .min_by_key(|(_, r)| key(r))
            .map(|(k, _)| k)
            .expect("six replicas");
        let reduced = sachi::ising::ensemble::BestOf::reduce(shuffled);
        prop_assert_eq!(reduced.best_index, expected_index);
        prop_assert_eq!(key(reduced.best()), key(original.best()));
        // Aggregate statistics are order-invariant too.
        prop_assert_eq!(reduced.stats, original.stats);
    }
}

/// On *exact* key ties, `BestOf::reduce` picks the lowest replica
/// index — pinned with duplicated results so the rule is observable.
#[test]
fn best_of_reduce_breaks_ties_to_the_lowest_index() {
    let graph = frustrated_graph(4, 4, 7);
    let mut rng = StdRng::seed_from_u64(8);
    let init = SpinVector::random(graph.num_spins(), &mut rng);
    let opts = SolveOptions::for_graph(&graph, 9).with_max_sweeps(60);
    let base = EnsembleRunner::new(2)
        .with_threads(1)
        .run_reference(&graph, &init, &opts);
    let winner = base.best().clone();
    let mut loser = winner.clone();
    loser.energy = winner.energy + 1; // strictly worse key, same health
                                      // Duplicate the winner at indices 1 and 3: index 1 must win.
    let stacked = vec![loser.clone(), winner.clone(), loser, winner.clone()];
    let reduced = sachi::ising::ensemble::BestOf::reduce(stacked);
    assert_eq!(reduced.best_index, 1);
    assert_eq!(reduced.best(), &winner);
}

/// Sequential (borrowed-solver) ensembles and threaded ensembles are the
/// same function — the bridge that lets `solve_multi_start` share the
/// determinism contract.
#[test]
fn sequential_and_threaded_ensembles_agree() {
    let graph = frustrated_graph(5, 5, 31);
    let mut rng = StdRng::seed_from_u64(32);
    let init = SpinVector::random(graph.num_spins(), &mut rng);
    let opts = SolveOptions::for_graph(&graph, 33);
    let runner = EnsembleRunner::new(6).with_threads(4);
    let threaded = runner.run_reference(&graph, &init, &opts);
    let mut solver = CpuReferenceSolver::new();
    let sequential = runner.run_sequential(&mut solver, &graph, &init, &opts);
    assert_eq!(threaded, sequential);

    // And solve_multi_start is exactly "best of that ensemble".
    let mut solver = CpuReferenceSolver::new();
    let multi = solve_multi_start(&mut solver, &graph, &init, &opts, 6);
    assert_eq!(&multi, sequential.best());
}
