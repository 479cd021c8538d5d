//! Faulted solves pinned against fixed values.
//!
//! The other fault suites compare one configuration with another (thread
//! counts, zero rate vs no model). This one pins absolute outcomes: one
//! faulted molecular-dynamics solve per design, at read BER 1e-3, under
//! `retry:3` and `failfast`. Best energy, sweep count, flip count, the
//! annealer's uphill accept/reject counts, the whole `FaultReport`,
//! total cycles, and the bit pattern of the energy total must reproduce
//! exactly — so any change to which kernel runs, or to the order the
//! fault stream is drawn in, shows up here. The `failfast` rows also pin
//! the aborted-sweep rule: the sweep a fail-fast abort cuts short is not
//! counted and its flips are not added, though its annealer decisions
//! were made.

use rand::rngs::StdRng;
use rand::SeedableRng;
use sachi::prelude::*;

/// `(design, policy, energy, sweeps, [spin flips, uphill accepted,
/// uphill rejected], [injected flips, fetches, detected, undetected,
/// retries, refetch cycles, dram bits], degraded, total cycles,
/// energy-total bits)`.
type Pin = (
    DesignKind,
    RecoveryPolicy,
    i64,
    u64,
    [u64; 3],
    [u64; 7],
    bool,
    u64,
    u64,
);

const RETRY3: RecoveryPolicy = RecoveryPolicy::RefetchRetry { max_retries: 3 };
const FAILFAST: RecoveryPolicy = RecoveryPolicy::FailFast;

/// Recorded from the scalar kernel, and the flip/uphill column from the
/// per-machine sweep loops the shared `SweepLoop` replaced; faults strike
/// the tuple fetch after the kernel returns, so the SoA kernel and the
/// shared loop must reproduce every value.
#[rustfmt::skip]
const EXPECTED: [Pin; 8] = [
    (DesignKind::N1a, RETRY3, -704, 55, [139, 52, 3313], [130, 128, 126, 2, 126, 2646, 0], false, 10593, 4683325481593570591),
    (DesignKind::N1a, FAILFAST, -32, 0, [0, 1, 8], [1, 1, 1, 0, 0, 0, 0], true, 171, 4660092949676330844),
    (DesignKind::N1b, RETRY3, -704, 55, [139, 52, 3313], [130, 128, 126, 2, 126, 2646, 0], false, 9438, 4683325481593570591),
    (DesignKind::N1b, FAILFAST, -32, 0, [0, 1, 8], [1, 1, 1, 0, 0, 0, 0], true, 66, 4660092949676330844),
    (DesignKind::N2, RETRY3, -704, 55, [139, 52, 3313], [130, 128, 126, 2, 126, 2646, 0], false, 4545, 4675420855075696803),
    (DesignKind::N2, FAILFAST, -32, 0, [0, 1, 8], [1, 1, 1, 0, 0, 0, 0], true, 42, 4661815544922840760),
    (DesignKind::N3, RETRY3, -704, 55, [139, 52, 3313], [130, 128, 126, 2, 126, 2646, 0], false, 3170, 4670520797668751442),
    (DesignKind::N3, FAILFAST, -32, 0, [0, 1, 8], [1, 1, 1, 0, 0, 0, 0], true, 35, 4662229670479884452),
];

fn faulted_solve(design: DesignKind, policy: RecoveryPolicy) -> Pin {
    let w = MolecularDynamics::new(8, 8, 3);
    let graph = w.graph();
    let mut rng = StdRng::seed_from_u64(11);
    let init = SpinVector::random(graph.num_spins(), &mut rng);
    let opts = SolveOptions::for_graph(graph, 5);
    let model = FaultModel::new(42).with_read_ber(FaultRate::from_probability(1e-3));
    let config = SachiConfig::new(design).with_fault(FaultProfile::new(model).with_policy(policy));
    let (result, report) = SachiMachine::new(config).solve_detailed(graph, &init, &opts);
    let f = report.faults;
    (
        design,
        policy,
        result.energy,
        result.sweeps,
        [result.flips, result.uphill_accepted, result.uphill_rejected],
        [
            f.injected_flips,
            f.corrupted_fetches,
            f.detected,
            f.undetected,
            f.retries,
            f.refetch_cycles.get(),
            f.dram_corrupted_bits,
        ],
        f.degraded,
        report.total_cycles.get(),
        report.energy.total().get().to_bits(),
    )
}

#[test]
fn faulted_md_solves_reproduce_pinned_values() {
    let mut got = Vec::new();
    for design in DesignKind::ALL {
        for policy in [RETRY3, FAILFAST] {
            got.push(faulted_solve(design, policy));
        }
    }
    assert_eq!(got.as_slice(), EXPECTED.as_slice());
}
