//! The untraced batch run (`lattice_sparse`, `dense_multiround`): the
//! library job path — `JobPlan::from_spec`, then the job's replicas on a
//! `SolverPool` — repeated in passes over the workload's job list.

use crate::cpu;
use crate::gauge::Gauge;
use crate::jobs::{batch_specs, JobInputs, Workload};
use crate::oracle::{check_golden, JobSummary};
use crate::report::{e2e, RunResult};
use crate::stats::median;
use crate::wire::peak_rss_mib_of;
use sachi_core::prelude::{JobOutcome, JobPlan, JobSpec, SolverPool};
use std::time::Instant;

/// Passes a run measures at least, after the discarded warm-up pass.
const MIN_PASSES: usize = 5;
/// Measuring stops here even if fewer than [`MIN_PASSES`] passes ran.
const MAX_MEASURE_S: f64 = 120.0;

/// Host timings of one pass over the job list.
struct Pass {
    /// Σ `JobPlan::from_spec` CPU seconds (the calling thread).
    setup_s: f64,
    /// Σ process CPU seconds from submit to the jobs' outcomes.
    solve_cpu_s: f64,
    /// Process CPU seconds of the whole pass, gauge samples excluded.
    cpu_s: f64,
    /// Σ wall seconds from submit to the jobs' outcomes.
    solve_s: f64,
    /// Per job: the outcome's fingerprint, or what went wrong.
    summaries: Vec<Result<JobSummary, String>>,
}

/// Runs every job of `specs` once, `at_once` jobs at a time: plans
/// them, submits them together, and waits for all of them. Samples the
/// gauge before each group, while the pool is idle.
fn run_pass(
    pool: &SolverPool,
    specs: &[JobSpec],
    at_once: usize,
    keep: &mut Vec<Option<JobOutcome>>,
    gauge: &mut Gauge,
) -> Pass {
    let mut pass = Pass {
        setup_s: 0.0,
        solve_cpu_s: 0.0,
        cpu_s: 0.0,
        solve_s: 0.0,
        summaries: Vec::with_capacity(specs.len()),
    };
    for group in specs.chunks(at_once) {
        gauge.sample();
        let p0 = cpu::process_s();
        let c0 = cpu::thread_s();
        let plans: Vec<_> = group.iter().map(JobPlan::from_spec).collect();
        pass.setup_s += cpu::thread_s() - c0;
        let p1 = cpu::process_s();
        let t1 = Instant::now();
        let handles: Vec<_> = plans
            .into_iter()
            .map(|plan| plan.map(|plan| pool.submit(plan)))
            .collect();
        let results: Vec<_> = handles
            .into_iter()
            .map(|handle| match handle {
                Ok(handle) => handle.wait().map_err(|e| format!("solve: {e}")),
                Err(e) => Err(format!("from_spec: {e}")),
            })
            .collect();
        pass.solve_s += t1.elapsed().as_secs_f64();
        let p2 = cpu::process_s();
        pass.solve_cpu_s += p2 - p1;
        pass.cpu_s += p2 - p0;
        for result in results {
            pass.summaries
                .push(result.as_ref().map(JobSummary::of).map_err(Clone::clone));
            keep.push(result.ok());
        }
    }
    pass
}

/// Runs the untraced batch benchmark for `seconds` of measured passes.
pub fn run(workload: Workload, seed: u64, seconds: f64, smoke: bool) -> RunResult {
    let specs = batch_specs(workload, seed, smoke);
    let threads = workload.threads();
    let at_once = workload.jobs_at_once();
    let pool = SolverPool::with_workers(threads * at_once);
    let mut gauge = Gauge::new();
    let mut result = RunResult::default();

    // The first pass warms caches and lazy set-up; its timings are
    // discarded, its outcomes are the reference every later pass must
    // repeat and the golden oracle checks.
    let mut outcomes = Vec::new();
    let warm = run_pass(&pool, &specs, at_once, &mut outcomes, &mut gauge);
    result.attempted += specs.len() as u64;
    let reference: Vec<Option<JobSummary>> = warm
        .summaries
        .iter()
        .enumerate()
        .map(|(j, s)| match s {
            Ok(s) => Some(s.clone()),
            Err(e) => {
                result.fail(format!("job {j} ({:?}): {e}", specs[j]));
                None
            }
        })
        .collect();

    let mut passes: Vec<Pass> = Vec::new();
    let start = Instant::now();
    loop {
        let elapsed = start.elapsed().as_secs_f64();
        if (passes.len() >= MIN_PASSES && elapsed >= seconds) || elapsed >= MAX_MEASURE_S {
            break;
        }
        let pass = run_pass(&pool, &specs, at_once, &mut Vec::new(), &mut gauge);
        result.attempted += specs.len() as u64;
        for (j, (got, want)) in pass.summaries.iter().zip(&reference).enumerate() {
            match (got, want) {
                (Ok(got), Some(want)) if got == want => {}
                (Ok(_), Some(_)) => {
                    result.fail(format!("job {j}: simulated figures did not repeat"));
                }
                (Err(e), _) => result.fail(format!("job {j}: {e}")),
                (Ok(_), None) => result.fail(format!("job {j}: failed on the first pass only")),
            }
        }
        passes.push(pass);
    }
    drop(pool);

    // Golden oracle, outside the timed region.
    for (j, (spec, outcome)) in specs.iter().zip(&outcomes).enumerate() {
        let Some(outcome) = outcome else { continue };
        result.attempted += 1;
        let checked = JobInputs::new(spec)
            .map_err(|e| e.to_string())
            .and_then(|inputs| check_golden(&inputs, outcome, threads));
        if let Err(e) = checked {
            result.fail(format!(
                "job {j} ({:?}, {:?}) vs golden: {e}",
                spec.cop, spec.design
            ));
        }
    }

    let per_pass = |f: &dyn Fn(&Pass) -> f64| -> f64 {
        let v: Vec<f64> = passes.iter().map(f).collect();
        if v.is_empty() {
            f64::NAN
        } else {
            median(&v)
        }
    };
    let ok: Vec<&JobSummary> = reference.iter().flatten().collect();
    let pass_updates: u64 = ok.iter().map(|s| s.updates).sum();
    let jobs = specs.len() as f64;
    result.note(format!(
        "{} measured passes of {} jobs, {at_once} at a time on {} pool workers; \
         wall clock: {:.4e} updates/s",
        passes.len(),
        specs.len(),
        threads * at_once,
        per_pass(&|p| pass_updates as f64 / p.solve_s),
    ));
    let mut rates: Vec<f64> = passes
        .iter()
        .map(|p| pass_updates as f64 / p.solve_cpu_s)
        .collect();
    rates.sort_by(f64::total_cmp);
    if let (Some(lo), Some(hi)) = (rates.first(), rates.last()) {
        result.note(format!(
            "per-pass updates per CPU second: {lo:.4e} to {hi:.4e}"
        ));
    }
    let (setup_s, rate, cpu_ms) = (
        per_pass(&|p| p.setup_s),
        per_pass(&|p| pass_updates as f64 / p.solve_cpu_s),
        per_pass(&|p| p.cpu_s * 1e3 / jobs),
    );
    result.note(format!(
        "unscaled CPU figures: setup {setup_s:.6} s, {rate:.4e} updates/s, {cpu_ms:.3} ms per job"
    ));
    result.note(gauge.note());
    let scale = gauge.scale();
    result.set(e2e::SETUP_S, setup_s * scale);
    result.set(e2e::UPDATES_PER_CPU_S, rate / scale);
    result.set(e2e::CPU_MS_PER_JOB, cpu_ms * scale);
    result.set(
        e2e::PEAK_RSS_MB,
        peak_rss_mib_of("/proc/self/status").unwrap_or(f64::NAN),
    );
    result.set(e2e::SIM_CYCLES, ok.iter().map(|s| s.cycles as f64).sum());
    result.set(e2e::SIM_ENERGY_UJ, ok.iter().map(|s| s.energy_uj()).sum());
    result.set(
        e2e::ACCURACY,
        ok.iter().map(|s| s.accuracy()).sum::<f64>() / ok.len().max(1) as f64,
    );
    result
}
