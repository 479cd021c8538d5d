//! The traced run: the same jobs as the untraced run, with each public
//! layer entry point timed from outside.
//!
//! Spans (name, start, end, parent, job) are recorded around the calls
//! into each layer, kept in memory, and written as JSON lines when the
//! run ends (`--trace-out`). A layer's self time is its span minus its
//! child spans.
//!
//! The sweep itself is too fine-grained to bracket every call: a timer
//! read costs about as much as a golden spin update. It is split by a
//! *replay* that drives the machine's public calls in the order
//! `SachiMachine::solve_detailed` makes them — `TupleStore` build,
//! `TuplePlanes` build, then per spin `Stationarity::compute_tuple_soa`,
//! `decide_update`, and on a flip `TupleStore::update_spin` plus
//! `TuplePlanes::writeback_spin` — timing one call in
//! [`SAMPLE_EVERY`] (and one flip in [`SAMPLE_FLIPS`]). The split
//! counts only if the replay ends with the same energy and sweep count
//! as the machine's own solve of that replica; a mismatch fails the run.

use crate::jobs::{batch_specs, serve_spec, JobInputs, Workload};
use crate::oracle::{check_golden, check_response, JobSummary};
use crate::report::{layer, RunResult};
use crate::serve::{closed_loop, CONNECTIONS};
use crate::stats::{mean, median};
use crate::wire::{Conn, Daemon, METRICS, PING};
use sachi_core::prelude::{
    build_cop_problem, stationarity, ComputeContext, ComputeScratch, EnsembleReport, JobOutcome,
    JobPlan, JobSpec, MixedEncoding, RunReport, SachiConfig, SachiMachine, SolverPool, TuplePlanes,
    TupleStore,
};
use sachi_ising::prelude::{
    decide_update, energy, local_field, Annealer, BestOf, EnsembleRunner, IsingGraph,
    IterativeSolver, SolveOptions, SolveResult, SpinVector,
};
use sachi_mem::sram::{SramTile, TileParams};
use sachi_obs::json::{parse, write_snapshot};
use sachi_obs::prom::write_exposition;
use std::hint::black_box;
use std::io::Write;
use std::path::Path;
use std::sync::Mutex;
use std::time::Instant;

/// One spin update in this many is timed call by call in a replay.
pub const SAMPLE_EVERY: u64 = 16;
/// One flip in this many has its writeback timed in a replay.
pub const SAMPLE_FLIPS: u64 = 4;
/// Requests per connection in the traced `serve_mixed` run.
const SERVE_TRACED_PER_CONN: u64 = 20;
/// Sweeps of the tempering probe on batch workloads.
const PROBE_SWEEPS: u64 = 16;

/// A timed interval.
struct Span {
    name: &'static str,
    start_ns: u64,
    end_ns: u64,
    parent: Option<usize>,
    job: u64,
}

/// In-memory span recorder.
struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    fn new() -> Tracer {
        Tracer {
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Runs `f` inside a span named `name`; spans opened by `f` are its
    /// children.
    fn span<T>(&mut self, name: &'static str, job: u64, f: impl FnOnce(&mut Tracer) -> T) -> T {
        let idx = self.spans.len();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: self.open.last().copied(),
            job,
        });
        self.open.push(idx);
        let out = f(self);
        self.open.pop();
        self.spans[idx].end_ns = self.now_ns();
        out
    }

    fn secs(&self, idx: usize) -> f64 {
        let s = &self.spans[idx];
        (s.end_ns - s.start_ns) as f64 * 1e-9
    }

    /// Seconds of the most recently closed span named `name`.
    fn last(&self, name: &str) -> f64 {
        self.spans
            .iter()
            .rposition(|s| s.name == name)
            .map_or(0.0, |i| self.secs(i))
    }

    /// Self time of every span: its duration minus its children's.
    fn self_secs(&self) -> Vec<f64> {
        let mut own: Vec<f64> = (0..self.spans.len()).map(|i| self.secs(i)).collect();
        for (i, s) in self.spans.iter().enumerate() {
            if let Some(p) = s.parent {
                own[p] -= self.secs(i);
            }
        }
        own
    }

    fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\":{i},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"job\":{}}}",
                s.name, s.start_ns, s.end_ns, s.job
            )?;
        }
        out.flush()
    }
}

/// Cost of one `Instant::now()` read, subtracted from sampled intervals.
fn timer_cost_ns() -> f64 {
    const READS: u32 = 20_000;
    let mut best = f64::INFINITY;
    for _ in 0..5 {
        let t0 = Instant::now();
        for _ in 0..READS {
            black_box(Instant::now());
        }
        best = best.min(t0.elapsed().as_nanos() as f64 / f64::from(READS));
    }
    best
}

/// Sampled sums of a replay.
#[derive(Default)]
struct Split {
    kernel_ns: f64,
    decide_ns: f64,
    sampled: u64,
    writeback_ns: f64,
    sampled_flips: u64,
}

/// What a replay of one replica produced.
struct Replay {
    energy: i64,
    sweeps: u64,
    updates: u64,
    flips: u64,
    copies: u64,
    planes_bytes: u64,
    sweep_s: f64,
    split: Split,
}

/// Drives one replica's solve through the machine's public calls, in
/// `solve_detailed` order. With `sample` off no timer is read inside
/// the sweep loop (the untraced twin used for `trace.overhead_ratio`).
#[allow(clippy::too_many_arguments)]
fn replay(
    tracer: &mut Tracer,
    job: u64,
    graph: &IsingGraph,
    init: &SpinVector,
    options: &SolveOptions,
    config: &SachiConfig,
    sample: bool,
    timer_ns: f64,
) -> Replay {
    let resolution = config.resolution.unwrap_or_else(|| graph.bits_required());
    let enc = MixedEncoding::new(resolution).expect("resolution checked by the plan");
    let design = stationarity(config.design);
    let mut spins = init.clone();
    let mut tuples = tracer.span("tuple.store_build", job, |_| {
        TupleStore::with_tuple_rep(graph, &spins, config.tuple_rep)
    });
    let mut planes = tracer.span("tuple.planes_build", job, |_| {
        TuplePlanes::new(&tuples, &enc).expect("encoding sized from the graph")
    });
    let planes_bytes: u64 = (0..planes.len())
        .map(|i| {
            let v = planes.view(i);
            8 * (v.coupling_planes.len()
                + v.coupling_words.len()
                + v.group_words.len()
                + v.spin_words.len()) as u64
        })
        .sum();
    let geometry = config.hierarchy.compute;
    let (rows, cols) =
        design.tile_requirements(graph.max_degree().max(1), enc.bits(), geometry.row_bits());
    let mut tile = SramTile::with_params(TileParams::new(rows, cols).with_banks(config.bank_count));
    let mut ctx = ComputeContext::new();
    let mut scratch = ComputeScratch::new();
    let mut annealer = Annealer::new(options.schedule, options.seed);
    let n = graph.num_spins();
    let max_sweeps = options.effective_max_sweeps(n);

    let mut split = Split::default();
    let (mut sweeps, mut flips, mut copies, mut updates) = (0u64, 0u64, 0u64, 0u64);
    let mut countdown = SAMPLE_EVERY;
    let sweep_start = Instant::now();
    tracer.span("machine.replay_sweeps", job, |_| {
        while sweeps < max_sweeps {
            let mut flips_this_sweep = 0u64;
            for i in 0..n {
                countdown -= 1;
                let timed = sample && countdown == 0;
                let current = spins.get(i);
                let new = if timed {
                    countdown = SAMPLE_EVERY;
                    let t0 = Instant::now();
                    let h = design.compute_tuple_soa(
                        &mut tile,
                        &enc,
                        tuples.tuple(i),
                        planes.view(i),
                        current,
                        &mut ctx,
                        &mut scratch,
                    );
                    let t1 = Instant::now();
                    let new = decide_update(current, h, &mut annealer);
                    let t2 = Instant::now();
                    split.kernel_ns += (t1 - t0).as_nanos() as f64 - timer_ns;
                    split.decide_ns += (t2 - t1).as_nanos() as f64 - timer_ns;
                    split.sampled += 1;
                    new
                } else {
                    if !sample {
                        countdown = SAMPLE_EVERY;
                    }
                    let h = design.compute_tuple_soa(
                        &mut tile,
                        &enc,
                        tuples.tuple(i),
                        planes.view(i),
                        current,
                        &mut ctx,
                        &mut scratch,
                    );
                    decide_update(current, h, &mut annealer)
                };
                updates += 1;
                if new != current {
                    spins.set(i, new);
                    flips_this_sweep += 1;
                    flips += 1;
                    if sample && flips % SAMPLE_FLIPS == 0 {
                        let t0 = Instant::now();
                        copies += tuples.update_spin(i, new);
                        planes.writeback_spin(&tuples, i, new);
                        split.writeback_ns += t0.elapsed().as_nanos() as f64 - timer_ns;
                        split.sampled_flips += 1;
                    } else {
                        copies += tuples.update_spin(i, new);
                        planes.writeback_spin(&tuples, i, new);
                    }
                }
            }
            sweeps += 1;
            let frozen = annealer.is_frozen();
            annealer.cool();
            if flips_this_sweep == 0 && frozen {
                break;
            }
        }
    });
    let sweep_s = sweep_start.elapsed().as_secs_f64();
    Replay {
        energy: energy(graph, &spins),
        sweeps,
        updates,
        flips,
        copies,
        planes_bytes,
        sweep_s,
        split,
    }
}

/// One `solve` call made by the ensemble layer, timed.
struct SolveRecord {
    replica: usize,
    secs: f64,
    result: SolveResult,
    report: RunReport,
}

/// `SachiMachine` behind the `IterativeSolver` interface the ensemble
/// runner drives, logging each call's wall time and report.
struct TimedMachine<'a> {
    machine: SachiMachine,
    replica: usize,
    log: &'a Mutex<Vec<SolveRecord>>,
}

impl IterativeSolver for TimedMachine<'_> {
    fn solve(
        &mut self,
        graph: &IsingGraph,
        initial: &SpinVector,
        options: &SolveOptions,
    ) -> SolveResult {
        let t0 = Instant::now();
        let (result, report) = self.machine.solve_detailed(graph, initial, options);
        let secs = t0.elapsed().as_secs_f64();
        self.log.lock().expect("solve log lock").push(SolveRecord {
            replica: self.replica,
            secs,
            result: result.clone(),
            report,
        });
        result
    }
}

/// Per-layer accumulators over a traced run.
#[derive(Default)]
struct Totals {
    build_s: Vec<f64>,
    plan_s: Vec<f64>,
    pool_s: Vec<f64>,
    reduce_s: Vec<f64>,
    export_s: Vec<f64>,
    store_s: Vec<f64>,
    planes_s: Vec<f64>,
    planes_bytes: Vec<f64>,
    split: Split,
    replay_updates: u64,
    replay_flips: u64,
    replay_copies: u64,
    bookkeeping_s: f64,
    traced_replay_s: f64,
    untraced_replay_s: f64,
    untraced_replay_updates: u64,
    machine_s: f64,
    machine_updates: u64,
    golden_s: f64,
    golden_updates: u64,
    fast: u64,
    scalar: u64,
    skipped_writes: u64,
    ensemble_busy_s: f64,
    ensemble_capacity_s: f64,
    tempering_s: f64,
    tempering_updates: u64,
    scalar_probe_s: f64,
    scalar_probe_updates: u64,
}

/// Times `Stationarity::compute_tuple` (the scalar kernel) over one
/// sweep of tuples at the initial spins, checking each `H_σ` against
/// the golden `local_field`.
fn scalar_probe(inputs: &JobInputs) -> Result<(f64, u64), String> {
    let graph = &inputs.problem.graph;
    let config = &inputs.config;
    let resolution = config.resolution.unwrap_or_else(|| graph.bits_required());
    let enc = MixedEncoding::new(resolution).map_err(|e| e.to_string())?;
    let design = stationarity(config.design);
    let tuples = TupleStore::with_tuple_rep(graph, &inputs.init, config.tuple_rep);
    let (rows, cols) = design.tile_requirements(
        graph.max_degree().max(1),
        enc.bits(),
        config.hierarchy.compute.row_bits(),
    );
    let mut tile = SramTile::with_params(TileParams::new(rows, cols));
    let mut ctx = ComputeContext::new();
    let n = graph.num_spins();
    let mut fields = Vec::with_capacity(n);
    let t0 = Instant::now();
    for i in 0..n {
        fields.push(design.compute_tuple(
            &mut tile,
            &enc,
            tuples.tuple(i),
            inputs.init.get(i),
            &mut ctx,
        ));
    }
    let secs = t0.elapsed().as_secs_f64();
    for (i, &h) in fields.iter().enumerate() {
        let gold = local_field(graph, &inputs.init, i);
        if h != gold {
            return Err(format!("scalar kernel H={h} != golden {gold} at spin {i}"));
        }
    }
    Ok((secs, n as u64))
}

/// One job of the traced run's in-process phase.
struct TracedJob {
    outcome: Option<JobOutcome>,
    plan_s: f64,
    pool_s: f64,
}

/// Runs the in-process job path for `spec` with every layer timed.
#[allow(clippy::too_many_arguments)]
fn trace_job(
    tracer: &mut Tracer,
    job: u64,
    spec: &JobSpec,
    threads: usize,
    pool: &SolverPool,
    replay_all_replicas: bool,
    timer_ns: f64,
    totals: &mut Totals,
    result: &mut RunResult,
) -> TracedJob {
    let mut traced = TracedJob {
        outcome: None,
        plan_s: 0.0,
        pool_s: 0.0,
    };
    let label = format!("job {job} ({:?} {} {:?})", spec.cop, spec.size, spec.design);
    let outcome = tracer.span("job", job, |t| -> Result<JobOutcome, String> {
        result.attempted += 1;
        // The instance is built once before the plan (warming the
        // allocator and caches the way the plan's own build finds them)
        // and once after it; the second build is the one reported, and
        // the plan's own cost is its time beyond that build.
        let problem = t
            .span("workloads.build", job, |_| build_cop_problem(spec.cop, spec.size, spec.seed))
            .map_err(|e| e.to_string())?;
        let plan = t
            .span("serve.plan", job, |_| JobPlan::from_spec(spec))
            .map_err(|e| e.to_string())?;
        traced.plan_s = t.last("serve.plan");
        t.span("workloads.build", job, |_| {
            black_box(build_cop_problem(spec.cop, spec.size, spec.seed).is_ok())
        });
        let build_s = t.last("workloads.build");
        totals.build_s.push(build_s);
        totals.plan_s.push(traced.plan_s - build_s);
        let inputs = t.span("bench.inputs", job, |_| JobInputs::from_problem(spec, problem));
        let graph = &inputs.problem.graph;
        let replicas = spec.restarts as usize;
        let coupled = spec.tempering;
        let faulty = spec.fault_ber.is_some();

        // Ensemble layer: the replicas on `threads` threads (coupled
        // tempering rungs on one thread, as the pool runs them).
        let log = Mutex::new(Vec::new());
        let runner_threads = if coupled { 1 } else { threads };
        let best = t.span("ensemble.run", job, |_| {
            EnsembleRunner::new(replicas).with_threads(runner_threads).run(
                graph,
                &inputs.init,
                &inputs.options,
                |k| TimedMachine {
                    machine: SachiMachine::new(inputs.config.clone()),
                    replica: k,
                    log: &log,
                },
            )
        });
        let wall = t.last("ensemble.run");
        let mut records = log.into_inner().expect("solve log lock");
        records.sort_by_key(|r| r.replica);
        let busy: f64 = records.iter().map(|r| r.secs).sum();
        let updates: u64 = records
            .iter()
            .map(|r| r.report.fast_path_computes + r.report.scalar_path_computes)
            .sum();
        for r in &records {
            totals.fast += r.report.fast_path_computes;
            totals.scalar += r.report.scalar_path_computes;
            totals.skipped_writes += r.report.skipped_spin_writes;
        }
        totals.ensemble_busy_s += busy;
        totals.ensemble_capacity_s += threads as f64 * wall;
        let report = if coupled {
            totals.tempering_s += wall;
            totals.tempering_updates += updates;
            EnsembleReport::fold(records.iter().map(|r| r.report.clone()).collect())
        } else {
            if !faulty {
                totals.machine_s += busy;
                totals.machine_updates += updates;
            }
            let results: Vec<SolveResult> = records.iter().map(|r| r.result.clone()).collect();
            let reports: Vec<RunReport> = records.iter().map(|r| r.report.clone()).collect();
            let (reduced, report) = t.span("ensemble.reduce", job, |_| {
                (BestOf::reduce(results), EnsembleReport::fold(reports))
            });
            totals.reduce_s.push(t.last("ensemble.reduce"));
            if reduced != best {
                return Err("BestOf::reduce of the logged replicas differs from the runner's".into());
            }
            report
        };
        let accuracy = (inputs.problem.accuracy)(&best.best().spins);
        let outcome = JobOutcome {
            best,
            report,
            accuracy,
        };

        t.span("obs.export", job, |_| {
            let reg = outcome.metrics();
            black_box(write_snapshot(&reg, &[]).len() + write_exposition(&reg).len());
        });
        totals.export_s.push(t.last("obs.export"));

        let pooled = t.span("serve.pool", job, |_| pool.submit(plan).wait());
        traced.pool_s = t.last("serve.pool");
        totals.pool_s.push(traced.pool_s);
        let pooled = pooled.map_err(|e| format!("pool: {e}"))?;
        let same = if coupled {
            pooled.best == outcome.best
        } else {
            JobSummary::of(&pooled) == JobSummary::of(&outcome)
        };
        if !same {
            return Err("the pooled outcome differs from the traced ensemble's".into());
        }

        if faulty || replay_all_replicas {
            let (secs, n) = t
                .span("designs.scalar_probe", job, |_| scalar_probe(&inputs))
                .map_err(|e| format!("scalar probe: {e}"))?;
            totals.scalar_probe_s += secs;
            totals.scalar_probe_updates += n;
        }
        if coupled {
            // Golden tempering: the same exchange engine on the golden
            // solver must pick the same best energy.
            let golden = t.span("golden.solve", job, |_| {
                EnsembleRunner::new(replicas).with_threads(1).run_reference(
                    graph,
                    &inputs.init,
                    &inputs.options,
                )
            });
            if golden.best().energy != pooled.best.best().energy {
                return Err(format!(
                    "tempering: machine best H={} != golden {}",
                    pooled.best.best().energy,
                    golden.best().energy
                ));
            }
            return Ok(pooled);
        }
        if faulty {
            return Ok(pooled);
        }

        // The replay split, checked against the machine's own solves.
        let to_replay = if replay_all_replicas { replicas } else { 1 };
        for (k, rec) in records.iter().enumerate().take(to_replay) {
            let opts = EnsembleRunner::replica_options(&inputs.options, k);
            let r = t.span("tuple.replay", job, |t| {
                replay(t, job, graph, &inputs.init, &opts, &inputs.config, true, timer_ns)
            });
            if (r.energy, r.sweeps) != (rec.result.energy, rec.result.sweeps) {
                return Err(format!(
                    "replay identity: replica {k} replay (H={}, sweeps={}) != solve_detailed (H={}, sweeps={})",
                    r.energy, r.sweeps, rec.result.energy, rec.result.sweeps
                ));
            }
            totals.store_s.push(t.last("tuple.store_build"));
            totals.planes_s.push(t.last("tuple.planes_build"));
            totals.planes_bytes.push(r.planes_bytes as f64);
            totals.split.kernel_ns += r.split.kernel_ns;
            totals.split.decide_ns += r.split.decide_ns;
            totals.split.sampled += r.split.sampled;
            totals.split.writeback_ns += r.split.writeback_ns;
            totals.split.sampled_flips += r.split.sampled_flips;
            totals.replay_updates += r.updates;
            totals.replay_flips += r.flips;
            totals.replay_copies += r.copies;
            if k == 0 {
                let plain = t.span("trace.untraced_replay", job, |t| {
                    replay(t, job, graph, &inputs.init, &opts, &inputs.config, false, timer_ns)
                });
                if (plain.energy, plain.sweeps) != (r.energy, r.sweeps) {
                    return Err("untraced replay diverged from the traced replay".into());
                }
                totals.traced_replay_s += r.sweep_s;
                totals.untraced_replay_s += plain.sweep_s;
                totals.untraced_replay_updates += plain.updates;
                // The machine's solve beyond the replay: its own tuple
                // and plane builds are reported above, the rest is cycle
                // and energy accounting and round chunking.
                totals.bookkeeping_s += rec.secs
                    - t.last("tuple.store_build")
                    - t.last("tuple.planes_build")
                    - plain.sweep_s;
            }
        }

        // Golden floor and oracle.
        t.span("golden.solve", job, |_| check_golden(&inputs, &pooled, 1))
            .map_err(|e| format!("golden: {e}"))?;
        totals.golden_s += t.last("golden.solve");
        totals.golden_updates += pooled
            .best
            .replicas
            .iter()
            .map(|r| r.sweeps * graph.num_spins() as u64)
            .sum::<u64>();
        Ok(pooled)
    });
    match outcome {
        Ok(o) => traced.outcome = Some(o),
        Err(e) => result.fail(format!("{label}: {e}")),
    }
    traced
}

/// The tempering probe of a batch workload: its first graph as a short
/// two-rung tempered job.
fn tempering_probe(spec: &JobSpec) -> JobSpec {
    let spins = build_cop_problem(spec.cop, spec.size, spec.seed)
        .map(|p| p.graph.num_spins() as u64)
        .unwrap_or(1);
    JobSpec {
        tempering: true,
        ladder: sachi_ising::prelude::LadderKind::Adaptive,
        restarts: 2,
        step_budget: Some(spins * PROBE_SWEEPS),
        ..spec.clone()
    }
}

/// Runs the traced benchmark of `workload`.
pub fn run(
    workload: Workload,
    bin: &Path,
    seed: u64,
    seconds: f64,
    smoke: bool,
    trace_out: Option<&Path>,
) -> RunResult {
    let mut result = RunResult::default();
    let mut tracer = Tracer::new();
    let mut totals = Totals::default();
    let timer_ns = timer_cost_ns();
    let threads = workload.threads();
    let batch = workload != Workload::ServeMixed;

    // The traced job set: a batch workload's job list, or the first
    // requests of each serve connection.
    let specs: Vec<JobSpec> = if batch {
        batch_specs(workload, seed, smoke)
    } else {
        (0..SERVE_TRACED_PER_CONN)
            .flat_map(|i| (0..CONNECTIONS).map(move |c| serve_spec(seed, c, i, smoke)))
            .collect()
    };

    // Phase A: the in-process job path, layer by layer, in passes over
    // the job set until `seconds` have passed. Batch jobs replay every
    // replica; serve jobs replay replica 0.
    let pool = SolverPool::with_workers(threads);
    let phase_a = Instant::now();
    let mut jobs = Vec::new();
    let mut passes = 0u64;
    while passes == 0 || phase_a.elapsed().as_secs_f64() < seconds {
        let first_id = passes * specs.len() as u64;
        jobs = specs
            .iter()
            .enumerate()
            .map(|(j, spec)| {
                trace_job(
                    &mut tracer,
                    first_id + j as u64,
                    spec,
                    threads,
                    &pool,
                    batch,
                    timer_ns,
                    &mut totals,
                    &mut result,
                )
            })
            .collect();
        passes += 1;
    }
    if batch {
        // Batch workloads run no tempered jobs; a short probe measures
        // the tempering layer on their first graph. It stays out of the
        // per-job means above.
        let probe = tempering_probe(&specs[0]);
        let mut probe_totals = Totals::default();
        trace_job(
            &mut tracer,
            passes * specs.len() as u64,
            &probe,
            threads,
            &pool,
            false,
            timer_ns,
            &mut probe_totals,
            &mut result,
        );
        totals.tempering_s += probe_totals.tempering_s;
        totals.tempering_updates += probe_totals.tempering_updates;
    }
    drop(pool);
    let phase_a_s = phase_a.elapsed().as_secs_f64();
    result.note(format!(
        "phase A (in-process, traced): {passes} passes of {} jobs in {phase_a_s:.2} s; \
         timer read {timer_ns:.1} ns; 1 update in {SAMPLE_EVERY} and 1 flip in {SAMPLE_FLIPS} timed",
        jobs.len()
    ));

    // Phase B: the same jobs through the daemon, plus pings and scrapes.
    let connections = if batch { 1 } else { CONNECTIONS };
    let daemon_phase = trace_daemon(bin, connections, &specs, &jobs, &mut tracer, &mut result);

    if let Some(dir) = trace_out {
        let path = dir.join(format!("{}-seed{seed}.spans.jsonl", workload.name()));
        let written = std::fs::create_dir_all(dir).and_then(|()| tracer.write_jsonl(&path));
        match written {
            Ok(()) => result.note(format!("spans written to {}", path.display())),
            Err(e) => result.fail(format!("writing spans: {e}")),
        }
    }

    // Coverage: named layer self time over the traced job spans.
    let own = tracer.self_secs();
    let mut job_s = 0.0;
    let mut covered = 0.0;
    for (i, s) in tracer.spans.iter().enumerate() {
        match s.name {
            "job" => job_s += tracer.secs(i),
            _ if is_under_job(&tracer, i) => covered += own[i],
            _ => {}
        }
    }

    // The sampled calls give the kernel : decide : writeback
    // proportions; the untimed replay's time per update gives their
    // scale, so timer reads inflate neither.
    let per_update = |ns: f64, n: u64| if n == 0 { f64::NAN } else { ns / n as f64 };
    let flips_per_update = totals.replay_flips as f64 / totals.replay_updates.max(1) as f64;
    let sampled_kernel = per_update(totals.split.kernel_ns, totals.split.sampled);
    let sampled_decide = per_update(totals.split.decide_ns, totals.split.sampled);
    let sampled_writeback = per_update(totals.split.writeback_ns, totals.split.sampled_flips);
    let replay_ns = per_update(
        totals.untraced_replay_s * 1e9,
        totals.untraced_replay_updates,
    );
    let scale =
        replay_ns / (sampled_kernel + sampled_decide + sampled_writeback * flips_per_update);
    let kernel = sampled_kernel * scale;
    let decide = sampled_decide * scale;
    let writeback = sampled_writeback * scale;
    let machine = per_update(totals.machine_s * 1e9, totals.machine_updates);

    let golden = per_update(totals.golden_s * 1e9, totals.golden_updates);
    let m = &mut result;
    m.set(layer::BUILD_S, mean(&totals.build_s));
    m.set(layer::PLAN_S, mean(&totals.plan_s));
    m.set(layer::STORE_BUILD_S, mean(&totals.store_s));
    m.set(layer::PLANES_BUILD_S, mean(&totals.planes_s));
    m.set(layer::PLANES_BYTES, mean(&totals.planes_bytes));
    m.set(layer::KERNEL_NS, kernel);
    m.set(
        layer::KERNEL_SCALAR_NS,
        per_update(totals.scalar_probe_s * 1e9, totals.scalar_probe_updates),
    );
    m.set(layer::DECIDE_NS, decide);
    m.set(layer::WRITEBACK_NS, writeback);
    m.set(
        layer::COPIES_PER_FLIP,
        totals.replay_copies as f64 / totals.replay_flips.max(1) as f64,
    );
    m.set(layer::MACHINE_NS, machine);
    m.set(
        layer::BOOKKEEPING_NS,
        per_update(totals.bookkeeping_s * 1e9, totals.untraced_replay_updates),
    );
    m.set(layer::GOLDEN_NS, golden);
    m.set(layer::GOLDEN_RATIO, machine / golden);
    m.set(
        layer::FAST_PATH_SHARE,
        totals.fast as f64 / (totals.fast + totals.scalar).max(1) as f64,
    );
    m.set(
        layer::SKIPPED_WRITE_SHARE,
        totals.skipped_writes as f64 / totals.fast.max(1) as f64,
    );
    m.set(
        layer::PARALLEL_EFFICIENCY,
        totals.ensemble_busy_s / totals.ensemble_capacity_s,
    );
    m.set(layer::REDUCE_S, mean(&totals.reduce_s));
    m.set(
        layer::TEMPERING_NS,
        per_update(totals.tempering_s * 1e9, totals.tempering_updates),
    );
    m.set(layer::POOL_JOB_S, mean(&totals.pool_s));
    m.set(layer::EXPORT_S, mean(&totals.export_s));
    m.set(
        layer::OVERHEAD_RATIO,
        totals.traced_replay_s / totals.untraced_replay_s,
    );
    m.set(layer::COVERAGE, covered / job_s);
    if let Some(d) = daemon_phase {
        m.set(layer::DAEMON_OVERHEAD_S, d.overhead_s);
        m.set(layer::PING_S, d.ping_s);
        m.set(layer::METRICS_SCRAPE_S, d.scrape_s);
        m.set(layer::RESPONSE_BYTES, d.response_bytes);
        m.set(layer::JSON_PARSE_S, d.parse_s);
    }
    result
}

fn is_under_job(tracer: &Tracer, mut i: usize) -> bool {
    while let Some(p) = tracer.spans[i].parent {
        if tracer.spans[p].name == "job" {
            return true;
        }
        i = p;
    }
    false
}

/// What the traced daemon phase measured.
struct DaemonPhase {
    overhead_s: f64,
    ping_s: f64,
    scrape_s: f64,
    response_bytes: f64,
    parse_s: f64,
}

/// Sends the traced job set through a real daemon on the same closed
/// loop as the untraced run, and times pings and metrics scrapes.
fn trace_daemon(
    bin: &Path,
    connections: u64,
    specs: &[JobSpec],
    jobs: &[TracedJob],
    tracer: &mut Tracer,
    result: &mut RunResult,
) -> Option<DaemonPhase> {
    const PROBES: usize = 7;
    result.attempted += 1;
    let daemon = match Daemon::start(bin, CONNECTIONS as usize) {
        Ok((d, _)) => d,
        Err(e) => {
            result.fail(format!("daemon: {e}"));
            return None;
        }
    };
    let pings = timed_calls(daemon.port(), PING, PROBES);
    result.attempted += PROBES as u64;
    if let Err(e) = &pings {
        result.fail(format!("ping: {e}"));
    }

    // Request i of connection c is job i·connections + c of the traced
    // set: for serve that is exactly serve_spec(seed, c, i). Batch jobs
    // go one at a time, as the in-process phase ran them.
    let per_conn = (specs.len() as u64).div_ceil(connections);
    let load = closed_loop(daemon.port(), connections, 0.0, per_conn, None, |c, i| {
        specs.get((i * connections + c) as usize).cloned()
    });
    let scrapes = timed_calls(daemon.port(), METRICS, PROBES);
    result.attempted += PROBES as u64 + load.samples.len() as u64;
    if let Err(e) = &scrapes {
        result.fail(format!("metrics: {e}"));
    }
    for e in &load.errors {
        result.fail(e.clone());
    }
    if let Err(e) = daemon.shutdown() {
        result.fail(format!("daemon shutdown: {e}"));
    }

    let mut overhead = Vec::new();
    let mut bytes = Vec::new();
    let mut parse_s = Vec::new();
    for sample in &load.samples {
        let j = (sample.index * connections + sample.conn) as usize;
        bytes.push(sample.response.len() as f64);
        let parsed = tracer.span("obs.json_parse", j as u64, |_| parse(&sample.response));
        parse_s.push(tracer.last("obs.json_parse"));
        if parsed.is_err() {
            result.fail(format!("job {j}: response is not JSON"));
            continue;
        }
        let Some(job) = jobs.get(j) else { continue };
        let Some(outcome) = job.outcome.as_ref() else {
            continue;
        };
        if let Err(e) = check_response(&sample.response, outcome) {
            result.fail(format!("job {j} daemon vs in-process: {e}"));
        }
        overhead.push(sample.latency_s - (job.plan_s + job.pool_s));
    }
    if load.samples.len() != specs.len() {
        result.fail(format!(
            "daemon answered {} of {} traced jobs",
            load.samples.len(),
            specs.len()
        ));
    }
    let med = |v: &[f64]| if v.is_empty() { f64::NAN } else { median(v) };
    Some(DaemonPhase {
        overhead_s: med(&overhead),
        ping_s: pings.map_or(f64::NAN, |v| med(&v)),
        scrape_s: scrapes.map_or(f64::NAN, |v| med(&v)),
        response_bytes: mean(&bytes),
        parse_s: mean(&parse_s),
    })
}

/// Round trips of `n` requests `body` on one fresh connection; each
/// response must be `ok`.
fn timed_calls(port: u16, body: &str, n: usize) -> Result<Vec<f64>, String> {
    let mut conn = Conn::open(port).map_err(|e| e.to_string())?;
    let mut secs = Vec::with_capacity(n);
    for _ in 0..n {
        let t0 = Instant::now();
        let response = conn.call(body)?;
        secs.push(t0.elapsed().as_secs_f64());
        if !response.contains("\"status\":\"ok\"") {
            return Err(format!("error response: {response}"));
        }
    }
    Ok(secs)
}
