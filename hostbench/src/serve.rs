//! The untraced `serve_mixed` run: the real `sachi serve` daemon on
//! loopback under a closed loop of two client connections.

use crate::cpu;
use crate::gauge::Gauge;
use crate::jobs::{serve_spec, solve_request, METRICS_EVERY, SERVE_PREFIX};
use crate::oracle::{check_response, JobSummary};
use crate::report::{e2e, RunResult};
use crate::stats::{median, tail_percentile};
use crate::wire::{Conn, Daemon, METRICS};
use sachi_core::prelude::{JobPlan, JobSpec};
use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// Client connections of the closed loop (and daemon pool workers).
pub const CONNECTIONS: u64 = 2;
/// Daemon starts per run; `setup_s` is the median of their CPU times.
const STARTS: usize = 15;
/// Pause between gauge samples during the load.
const GAUGE_EVERY: Duration = Duration::from_millis(250);
/// The load stops here even if a connection has not sent its prefix.
const MAX_LOAD_S: f64 = 120.0;

/// One solve request as the client saw it.
pub struct Sample {
    /// Connection index.
    pub conn: u64,
    /// Request index on the connection.
    pub index: u64,
    /// The job sent.
    pub spec: JobSpec,
    /// Seconds from writing the request frame to reading the response.
    pub latency_s: f64,
    /// The response body.
    pub response: String,
}

/// What a closed-loop load produced.
#[derive(Default)]
pub struct Load {
    /// Completed solve round trips.
    pub samples: Vec<Sample>,
    /// Round trips of `metrics` requests.
    pub metrics_s: Vec<f64>,
    /// Transport failures.
    pub errors: Vec<String>,
    /// Wall seconds of the whole load.
    pub wall_s: f64,
}

/// Runs `connections` closed-loop clients against the daemon on `port`.
/// Connection `c` sends `next(c, i)` as its `i`-th request until
/// `next` returns `None`, or until it has sent `min_per_conn` requests
/// and `seconds` have passed. Every `metrics_every` solves it also
/// sends one `metrics` request.
pub fn closed_loop<F>(
    port: u16,
    connections: u64,
    seconds: f64,
    min_per_conn: u64,
    metrics_every: Option<u64>,
    next: F,
) -> Load
where
    F: Fn(u64, u64) -> Option<JobSpec> + Sync,
{
    let load = Mutex::new(Load::default());
    let start = Instant::now();
    std::thread::scope(|scope| {
        for conn in 0..connections {
            let (load, next) = (&load, &next);
            scope.spawn(move || {
                let mut client = match Conn::open(port) {
                    Ok(c) => c,
                    Err(e) => {
                        load.lock()
                            .expect("load lock")
                            .errors
                            .push(format!("connect: {e}"));
                        return;
                    }
                };
                let mut samples = Vec::new();
                let mut metrics_s = Vec::new();
                let mut error = None;
                for index in 0.. {
                    let elapsed = start.elapsed().as_secs_f64();
                    if (index >= min_per_conn && elapsed >= seconds) || elapsed >= MAX_LOAD_S {
                        break;
                    }
                    let Some(spec) = next(conn, index) else { break };
                    let body = solve_request(&spec);
                    let t0 = Instant::now();
                    let response = client.call(&body);
                    let latency_s = t0.elapsed().as_secs_f64();
                    match response {
                        Ok(response) => samples.push(Sample {
                            conn,
                            index,
                            spec,
                            latency_s,
                            response,
                        }),
                        Err(e) => {
                            error = Some(format!("conn {conn} request {index}: {e}"));
                            break;
                        }
                    }
                    if metrics_every.is_some_and(|k| (index + 1) % k == 0) {
                        let t0 = Instant::now();
                        match client.call(METRICS) {
                            Ok(r) if r.contains("\"status\":\"ok\"") => {
                                metrics_s.push(t0.elapsed().as_secs_f64());
                            }
                            Ok(r) => error = Some(format!("metrics error response: {r}")),
                            Err(e) => error = Some(format!("metrics: {e}")),
                        }
                        if error.is_some() {
                            break;
                        }
                    }
                }
                let mut load = load.lock().expect("load lock");
                load.samples.extend(samples);
                load.metrics_s.extend(metrics_s);
                load.errors.extend(error);
            });
        }
    });
    let mut load = load.into_inner().expect("load lock");
    load.wall_s = start.elapsed().as_secs_f64();
    load.samples.sort_by_key(|s| (s.index, s.conn));
    load
}

/// Checks every sample against `JobPlan::run_solo` of its spec, on
/// `threads` threads. Returns per-sample fingerprints (`None` where the
/// check failed) and the failures.
pub fn check_samples(samples: &[Sample], threads: usize) -> (Vec<Option<JobSummary>>, Vec<String>) {
    let next = AtomicUsize::new(0);
    let out: Mutex<Vec<(usize, Result<JobSummary, String>)>> = Mutex::new(Vec::new());
    std::thread::scope(|scope| {
        for _ in 0..threads {
            scope.spawn(|| loop {
                let k = next.fetch_add(1, Ordering::Relaxed);
                let Some(sample) = samples.get(k) else { break };
                let checked = JobPlan::from_spec(&sample.spec)
                    .map_err(|e| format!("from_spec: {e}"))
                    .and_then(|plan| {
                        let outcome = plan.run_solo();
                        check_response(&sample.response, &outcome)
                            .map(|()| JobSummary::of(&outcome))
                    })
                    .map_err(|e| {
                        format!(
                            "conn {} request {} ({:?}): {e}",
                            sample.conn, sample.index, sample.spec
                        )
                    });
                out.lock().expect("oracle lock").push((k, checked));
            });
        }
    });
    let mut results = out.into_inner().expect("oracle lock");
    results.sort_by_key(|(k, _)| *k);
    let mut summaries = Vec::with_capacity(samples.len());
    let mut failures = Vec::new();
    for (_, r) in results {
        match r {
            Ok(s) => summaries.push(Some(s)),
            Err(e) => {
                summaries.push(None);
                failures.push(e);
            }
        }
    }
    (summaries, failures)
}

/// Runs the untraced serve benchmark.
pub fn run(bin: &Path, seed: u64, seconds: f64, smoke: bool) -> RunResult {
    let mut result = RunResult::default();
    let threads = CONNECTIONS as usize;

    // Set-up: the daemon's CPU time from spawn until its first ping is
    // answered, several times; the last daemon serves the load.
    let mut gauge = Gauge::new();
    let mut starts = Vec::new();
    let mut daemon = None;
    for k in 0..STARTS {
        gauge.sample();
        result.attempted += 1;
        match Daemon::start(bin, threads) {
            Ok((d, cpu)) => {
                starts.push(cpu);
                if k + 1 < STARTS {
                    if let Err(e) = d.shutdown() {
                        result.fail(format!("daemon start {k}: {e}"));
                    }
                } else {
                    daemon = Some(d);
                }
            }
            Err(e) => result.fail(format!("daemon start {k}: {e}")),
        }
    }
    let Some(daemon) = daemon else {
        return result;
    };

    // The gauge samples from a thread of its own while the load runs.
    let cpu_before = cpu::of_pid_s(daemon.pid());
    let loaded = AtomicBool::new(false);
    let load = std::thread::scope(|scope| {
        let sampler = scope.spawn(|| {
            while !loaded.load(Ordering::Relaxed) {
                gauge.sample();
                std::thread::sleep(GAUGE_EVERY);
            }
        });
        let load = closed_loop(
            daemon.port(),
            CONNECTIONS,
            seconds,
            SERVE_PREFIX,
            Some(METRICS_EVERY),
            |c, i| Some(serve_spec(seed, c, i, smoke)),
        );
        loaded.store(true, Ordering::Relaxed);
        sampler.join().expect("gauge thread");
        load
    });
    let cpu_after = cpu::of_pid_s(daemon.pid());
    let rss = daemon.peak_rss_mib();
    result.attempted += load.samples.len() as u64 + load.metrics_s.len() as u64 + 1;
    if let Err(e) = daemon.shutdown() {
        result.fail(format!("daemon shutdown: {e}"));
    }
    for e in &load.errors {
        result.attempted += 1;
        result.fail(e.clone());
    }

    // Oracle, outside the timed region.
    let oracle = Instant::now();
    let (summaries, failures) = check_samples(&load.samples, threads);
    result.note(format!(
        "oracle: {} responses checked against run_solo in {:.2} s",
        load.samples.len(),
        oracle.elapsed().as_secs_f64()
    ));
    for f in failures {
        result.fail(f);
    }
    let prefix: Vec<&JobSummary> = load
        .samples
        .iter()
        .zip(&summaries)
        .filter(|(s, _)| s.index < SERVE_PREFIX)
        .filter_map(|(_, j)| j.as_ref())
        .collect();
    if prefix.len() as u64 != SERVE_PREFIX * CONNECTIONS {
        result.fail(format!(
            "only {} of the {} fixed-prefix jobs completed",
            prefix.len(),
            SERVE_PREFIX * CONNECTIONS
        ));
    }

    let latencies: Vec<f64> = load.samples.iter().map(|s| s.latency_s).collect();
    let load_cpu_s = match (cpu_before, cpu_after) {
        (Some(a), Some(b)) => b - a,
        _ => {
            result.fail("no /proc/<pid>/stat for the daemon".to_string());
            f64::NAN
        }
    };
    let solves = load.samples.len() as f64;
    let updates: u64 = summaries.iter().flatten().map(|j| j.updates).sum();
    let shown =
        |p: f64| tail_percentile(&latencies, p).map_or("n/a".to_string(), |v| format!("{v:.4} s"));
    result.note(format!(
        "{} solve and {} metrics round trips on {CONNECTIONS} connections in {:.2} s; \
         wall clock: {:.2} jobs/s, {:.4e} updates/s, round trip p50 {}, p90 {}; \
         daemon CPU {load_cpu_s:.2} s; \
         simulated figures over the first {SERVE_PREFIX} jobs of each connection",
        load.samples.len(),
        load.metrics_s.len(),
        load.wall_s,
        solves / load.wall_s,
        updates as f64 / load.wall_s,
        shown(50.0),
        shown(90.0),
    ));
    let setup_s = if starts.is_empty() {
        f64::NAN
    } else {
        median(&starts)
    };
    let (rate, cpu_ms) = (updates as f64 / load_cpu_s, load_cpu_s * 1e3 / solves);
    result.note(format!(
        "unscaled CPU figures: setup {setup_s:.6} s, {rate:.4e} updates/s, {cpu_ms:.3} ms per job"
    ));
    result.note(gauge.note());
    let scale = gauge.scale();
    result.set(e2e::SETUP_S, setup_s * scale);
    result.set(e2e::UPDATES_PER_CPU_S, rate / scale);
    result.set(e2e::CPU_MS_PER_JOB, cpu_ms * scale);
    result.set(e2e::PEAK_RSS_MB, rss.unwrap_or(f64::NAN));
    result.set(
        e2e::SIM_CYCLES,
        prefix.iter().map(|s| s.cycles as f64).sum(),
    );
    result.set(
        e2e::SIM_ENERGY_UJ,
        prefix.iter().map(|s| s.energy_uj()).sum(),
    );
    result.set(
        e2e::ACCURACY,
        prefix.iter().map(|s| s.accuracy()).sum::<f64>() / prefix.len().max(1) as f64,
    );
    result
}
