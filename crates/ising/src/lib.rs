//! # sachi-ising — Ising-model substrate for the SACHI architecture
//!
//! The iterative Ising machine of the SACHI paper (HPCA 2024) minimizes the
//! Hamiltonian `H = -Σ J_ij σ_i σ_j - Σ h_i σ_i` by repeated local spin
//! updates plus Metropolis annealing. This crate provides that mathematical
//! substrate, independent of any hardware model:
//!
//! * [`spin`] — binary spins with the paper's 1/0 bit encoding and packed
//!   spin vectors;
//! * [`graph`] — CSR problem graphs with the topologies of the evaluation
//!   (complete, King's, grid, star) and builders;
//! * [`hamiltonian`] — eqns. 1–3: global energy, local field `H_σ`, the
//!   sign update rule, and incremental flip deltas;
//! * [`anneal`] — geometric schedules and the Metropolis annealer block;
//! * [`solver`] — the shared solve protocol ([`solver::SweepLoop`],
//!   which every hardware model drives, around the per-spin
//!   [`solver::decide_update`]) and the golden-model
//!   [`solver::CpuReferenceSolver`] with its own loop as the oracle;
//! * [`ensemble`] — the deterministic parallel replica-ensemble engine
//!   (`R` independent replicas over `T` scoped threads, bit-identical
//!   at every `T`);
//! * [`tempering`] — replica-exchange parallel tempering over the
//!   ensemble: temperature ladders, deterministic Metropolis swaps from
//!   a salted SplitMix64 stream, and restart policies for stalled
//!   rungs;
//! * [`recovery`] — the fault-recovery policy (`FailFast` /
//!   `RefetchRetry`) the machines apply when parity detects a
//!   corrupted tuple fetch.
//!
//! ## Example
//!
//! ```
//! use sachi_ising::prelude::*;
//! use rand::{rngs::StdRng, SeedableRng};
//!
//! // A 4x4 ferromagnetic King's-graph lattice (molecular dynamics COP).
//! let graph = topology::king(4, 4, |_, _| 1)?;
//! let mut rng = StdRng::seed_from_u64(1);
//! let init = SpinVector::random(16, &mut rng);
//!
//! let mut solver = CpuReferenceSolver::new();
//! let result = solver.solve(&graph, &init, &SolveOptions::for_graph(&graph, 7));
//! assert!(result.converged);
//! assert_eq!(result.energy, -(graph.num_edges() as i64)); // all aligned
//! # Ok::<(), sachi_ising::graph::GraphError>(())
//! ```

#![forbid(unsafe_code)]
#![deny(missing_docs)]

pub mod anneal;
pub mod ensemble;
pub mod graph;
pub mod hamiltonian;
pub mod io;
pub mod recovery;
pub mod solver;
pub mod spin;
pub mod tempering;

/// Convenient glob-import of the crate's main types.
pub mod prelude {
    pub use crate::anneal::{Annealer, Cooling, Schedule};
    pub use crate::ensemble::{derive_replica_seed, BestOf, EnsembleRunner, EnsembleStats};
    pub use crate::graph::{topology, GraphBuilder, GraphError, IsingGraph};
    pub use crate::hamiltonian::{energy, flip_delta, local_field, update_rule};
    pub use crate::io::{parse_dimacs, parse_gset, to_dimacs, ParseError};
    pub use crate::recovery::RecoveryPolicy;
    pub use crate::solver::{
        decide_update, solve_multi_start, CancelToken, CpuReferenceSolver, IterativeSolver,
        SolveOptions, SolveResult,
    };
    pub use crate::spin::{Spin, SpinVector};
    pub use crate::tempering::{
        swap_stream_seed, swap_unit, LadderKind, RestartPolicy, TemperatureLadder, TemperingOptions,
    };
}
