//! The benchmark's workloads: which jobs each one runs, all derived
//! from the `--seed` argument, and the plain inputs a job lowers to.

use rand::rngs::StdRng;
use rand::SeedableRng;
use sachi_core::prelude::{
    build_cop_problem, CopProblem, DesignKind, FaultProfile, JobSpec, SachiConfig, SachiError,
    INIT_SEED_SALT,
};
use sachi_ising::prelude::{
    derive_replica_seed, LadderKind, RecoveryPolicy, SolveOptions, SpinVector, TemperingOptions,
};
use sachi_mem::fault::{FaultModel, FaultRate};
use sachi_workloads::prelude::{CopKind, SplitMix64};

/// The four stationarity designs, in the order jobs cycle through them.
pub const DESIGNS: [DesignKind; 4] = [
    DesignKind::N1a,
    DesignKind::N1b,
    DesignKind::N2,
    DesignKind::N3,
];

/// Solve requests each serve connection sends at least; their jobs fix
/// the simulated metrics of a `serve_mixed` run.
pub const SERVE_PREFIX: u64 = 60;

/// One `metrics` request per this many solves on each connection.
pub const METRICS_EVERY: u64 = 20;

/// Step budget of tempered serve jobs (per-spin updates per rung).
pub const TEMPERING_BUDGET: u64 = 60_000;

/// A benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Paper-shaped sparse lattices, one replica on one thread.
    LatticeSparse,
    /// Dense, wide-coefficient graphs, two replicas on two threads.
    DenseMultiround,
    /// The `sachi serve` daemon under a mixed closed-loop job stream.
    ServeMixed,
}

impl Workload {
    /// Parses a workload name.
    pub fn parse(name: &str) -> Option<Workload> {
        match name {
            "lattice_sparse" => Some(Workload::LatticeSparse),
            "dense_multiround" => Some(Workload::DenseMultiround),
            "serve_mixed" => Some(Workload::ServeMixed),
            _ => None,
        }
    }

    /// The workload's name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::LatticeSparse => "lattice_sparse",
            Workload::DenseMultiround => "dense_multiround",
            Workload::ServeMixed => "serve_mixed",
        }
    }

    /// Replica threads of one job of a batch workload.
    pub fn threads(self) -> usize {
        match self {
            Workload::LatticeSparse => 1,
            Workload::DenseMultiround | Workload::ServeMixed => 2,
        }
    }

    /// Jobs the untraced batch run keeps in flight together, so that
    /// its pool (`threads() · jobs_at_once()` workers) keeps both cores
    /// the benchmark is sized for busy, as the two-replica jobs of
    /// `dense_multiround` do.
    pub fn jobs_at_once(self) -> usize {
        match self {
            Workload::LatticeSparse => 2,
            Workload::DenseMultiround | Workload::ServeMixed => 1,
        }
    }
}

/// A batch workload's job list: every graph solved by all four designs.
/// `smoke` shrinks the graphs so a run takes seconds.
pub fn batch_specs(workload: Workload, seed: u64, smoke: bool) -> Vec<JobSpec> {
    let (graphs, restarts): (&[(CopKind, usize)], u64) = match (workload, smoke) {
        (Workload::LatticeSparse, false) => (
            &[
                (CopKind::MolecularDynamics, 128 * 128),
                (CopKind::ImageSegmentation, 128 * 128),
            ],
            1,
        ),
        (Workload::LatticeSparse, true) => (
            &[
                (CopKind::MolecularDynamics, 16 * 16),
                (CopKind::ImageSegmentation, 16 * 16),
            ],
            1,
        ),
        (Workload::DenseMultiround, false) => (
            &[
                (CopKind::AssetAllocation, 512),
                (CopKind::AssetAllocation, 256),
                (CopKind::GraphColoring, 300),
                (CopKind::SatThree, 400),
            ],
            2,
        ),
        (Workload::DenseMultiround, true) => (
            &[
                (CopKind::AssetAllocation, 48),
                (CopKind::GraphColoring, 20),
                (CopKind::SatThree, 30),
            ],
            2,
        ),
        (Workload::ServeMixed, _) => return Vec::new(),
    };
    let mut specs = Vec::new();
    for (g, &(cop, size)) in graphs.iter().enumerate() {
        let graph_seed = wire_seed(derive_replica_seed(seed, g as u64));
        for design in DESIGNS {
            specs.push(JobSpec {
                cop,
                size,
                seed: graph_seed,
                design,
                restarts,
                ..JobSpec::default()
            });
        }
    }
    specs
}

/// Seeds travel as JSON numbers, which hold integers exactly only up
/// to 2^53.
fn wire_seed(seed: u64) -> u64 {
    seed >> 11
}

/// Request `i` of serve connection `conn`. Job kinds follow a fixed
/// ten-slot cycle (two tempered four-rung slots, one fault-injected
/// slot) and sizes and restart counts step through their ranges with
/// the cycle number, so every seed sends the same mix of shapes; the
/// seed picks every instance, annealer and fault seed. Designs cycle
/// with `i`.
pub fn serve_spec(seed: u64, conn: u64, i: u64, smoke: bool) -> JobSpec {
    let mut rng = SplitMix64::new(derive_replica_seed(derive_replica_seed(seed, conn), i));
    let slot = (i + 5 * conn) % 10;
    let round = i / 10 + 3 * conn;
    let mut spec = JobSpec {
        seed: wire_seed(rng.next_u64()),
        design: DESIGNS[((i + conn) % 4) as usize],
        restarts: 1 + round % 4,
        ..JobSpec::default()
    };
    let (cop, size) = match slot {
        0 => (CopKind::TravelingSalesman, 12 + round * 3 % 9),
        1 => (CopKind::JobScheduling, 20),
        2 => (CopKind::SatThree, 40 + round * 13 % 61),
        3 => (CopKind::GraphColoring, 30 + round * 7 % 31),
        4 => (CopKind::ImageSegmentation, 16 * 16),
        6 => (CopKind::MolecularDynamics, 32 * 32),
        7 => (CopKind::TravelingSalesman, 12 + round % 5),
        _ => (CopKind::MolecularDynamics, 24 * 24),
    };
    spec.cop = cop;
    spec.size = if smoke { size.min(64) } else { size } as usize;
    if slot == 5 || slot == 9 {
        spec.tempering = true;
        spec.ladder = LadderKind::Adaptive;
        spec.restarts = 4;
        spec.step_budget = Some(if smoke {
            TEMPERING_BUDGET / 20
        } else {
            TEMPERING_BUDGET
        });
    }
    if slot == 7 {
        // Read faults pin the scalar kernel. Two or more replicas keep
        // an all-replicas-degraded verdict out of reach.
        spec.fault_ber = Some(1e-4);
        spec.fault_seed = wire_seed(rng.next_u64());
        spec.fault_policy = RecoveryPolicy::RefetchRetry { max_retries: 3 };
        spec.restarts = 2 + round % 3;
    }
    spec
}

/// The `sachi.serve.v1` solve request for `spec`. The CLI's own encoder
/// lives in the `sachi` binary crate, which a library cannot depend on;
/// a request this one gets wrong comes back as an error response and
/// fails the run.
pub fn solve_request(spec: &JobSpec) -> String {
    let mut body = format!(
        "{{\"op\":\"solve\",\"job\":{{\"cop\":\"{}\",\"size\":{},\"seed\":{},\"design\":\"{}\",\"restarts\":{}",
        cop_label(spec.cop),
        spec.size,
        spec.seed,
        design_label(spec.design),
        spec.restarts,
    );
    if let Some(b) = spec.step_budget {
        body.push_str(&format!(",\"step_budget\":{b}"));
    }
    if let Some(ber) = spec.fault_ber {
        body.push_str(&format!(
            ",\"fault_ber\":{ber},\"fault_seed\":{},\"fault_policy\":\"{}\"",
            spec.fault_seed, spec.fault_policy
        ));
    }
    if spec.tempering {
        body.push_str(&format!(
            ",\"tempering\":true,\"ladder\":\"{}\"",
            spec.ladder.label()
        ));
    }
    body.push_str("}}");
    body
}

fn design_label(kind: DesignKind) -> &'static str {
    match kind {
        DesignKind::N1a => "n1a",
        DesignKind::N1b => "n1b",
        DesignKind::N2 => "n2",
        DesignKind::N3 => "n3",
    }
}

fn cop_label(kind: CopKind) -> &'static str {
    match kind {
        CopKind::AssetAllocation => "asset",
        CopKind::ImageSegmentation => "imgseg",
        CopKind::TravelingSalesman => "tsp",
        CopKind::MolecularDynamics => "md",
        CopKind::SatThree => "sat",
        CopKind::GraphColoring => "coloring",
        CopKind::JobScheduling => "sched",
    }
}

/// What a job lowers to, rebuilt from its spec the way
/// `JobPlan::from_spec` lowers it: the replay and the golden oracle
/// need the initial spins, options and machine config, which a plan
/// keeps private. The oracles compare every result built from these
/// against the plan's own, so a drift shows as a failed operation.
pub struct JobInputs {
    /// The generated instance and its accuracy scorer.
    pub problem: CopProblem,
    /// Initial spins.
    pub init: SpinVector,
    /// Base solve options (replica `k` derives its seed from these).
    pub options: SolveOptions,
    /// Machine configuration.
    pub config: SachiConfig,
}

impl JobInputs {
    /// Lowers `spec`.
    pub fn new(spec: &JobSpec) -> Result<JobInputs, SachiError> {
        let problem = build_cop_problem(spec.cop, spec.size, spec.seed)?;
        Ok(Self::from_problem(spec, problem))
    }

    /// Lowers `spec` around an already built instance.
    pub fn from_problem(spec: &JobSpec, problem: CopProblem) -> JobInputs {
        let graph = &problem.graph;
        let mut rng = StdRng::seed_from_u64(spec.seed ^ INIT_SEED_SALT);
        let init = SpinVector::random(graph.num_spins(), &mut rng);
        let mut options = SolveOptions::for_graph(graph, spec.seed.wrapping_add(1));
        if let Some(budget) = spec.step_budget {
            options = options.with_step_budget(budget);
        }
        if spec.tempering {
            options = options.with_tempering(TemperingOptions::for_graph(
                spec.ladder,
                graph,
                spec.restarts as usize,
            ));
        }
        let mut config = SachiConfig::new(spec.design);
        if let Some(r) = spec.resolution {
            config = config.with_resolution(r);
        }
        if let Some(ber) = spec.fault_ber {
            let model =
                FaultModel::new(spec.fault_seed).with_read_ber(FaultRate::from_probability(ber));
            config = config.with_fault(FaultProfile::new(model).with_policy(spec.fault_policy));
        }
        JobInputs {
            problem,
            init,
            options,
            config,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn serve_stream_is_a_function_of_the_seed() {
        for i in 0..40 {
            assert_eq!(serve_spec(7, 1, i, false), serve_spec(7, 1, i, false));
        }
        let differs = (0..40).any(|i| serve_spec(7, 0, i, false) != serve_spec(8, 0, i, false));
        assert!(differs);
    }

    #[test]
    fn serve_mix_has_fixed_shares() {
        let specs: Vec<JobSpec> = (0..SERVE_PREFIX)
            .flat_map(|i| [serve_spec(3, 0, i, false), serve_spec(3, 1, i, false)])
            .collect();
        let n = specs.len();
        assert_eq!(specs.iter().filter(|s| s.tempering).count() * 5, n);
        assert_eq!(
            specs.iter().filter(|s| s.fault_ber.is_some()).count() * 10,
            n
        );
        for s in &specs {
            s.validate().expect("generated specs are valid");
            assert!(s.seed < 1 << 53 && s.fault_seed < 1 << 53);
        }
    }

    #[test]
    fn batch_jobs_solve_each_graph_with_all_designs() {
        let specs = batch_specs(Workload::DenseMultiround, 1, false);
        assert_eq!(specs.len(), 16);
        for chunk in specs.chunks(4) {
            assert!(chunk
                .iter()
                .all(|s| s.seed == chunk[0].seed && s.cop == chunk[0].cop));
            let designs: Vec<DesignKind> = chunk.iter().map(|s| s.design).collect();
            assert_eq!(designs, DESIGNS);
        }
    }
}
