//! Host-time benchmark of the SACHI simulator.
//!
//! ```text
//! sachi-hostbench --workload <lattice_sparse|dense_multiround|serve_mixed>
//!                 --seed <n> --seconds <s> --trace <0|1>
//!                 --sachi-bin <path to the sachi binary>
//!                 [--trace-out <dir>] [--smoke]
//! ```
//!
//! `--trace 0` measures the end-to-end metrics, `--trace 1` the
//! per-layer metrics. The last line of standard output is one JSON
//! object; the metrics it carries are checked against the lists in
//! `BENCHMARK.json` of the working directory. `--smoke` shrinks every workload so a run takes
//! seconds; it checks the same schema and oracles and writes nothing.
//! See `README.md` in this directory.

mod batch;
mod cpu;
mod gauge;
mod jobs;
mod oracle;
mod report;
mod serve;
mod stats;
mod trace;
mod wire;

use jobs::Workload;
use std::path::PathBuf;

/// The benchmark definition, relative to the repository root.
const BENCHMARK_JSON: &str = "BENCHMARK.json";

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    smoke: bool,
    sachi_bin: PathBuf,
    trace_out: Option<PathBuf>,
}

const USAGE: &str =
    "usage: sachi-hostbench --workload <lattice_sparse|dense_multiround|serve_mixed> \
                     --seed <n> --seconds <s> --trace <0|1> --sachi-bin <path> \
                     [--trace-out <dir>] [--smoke]";

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut smoke = false;
    let mut sachi_bin = None;
    let mut trace_out = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        if flag == "--smoke" {
            smoke = true;
            continue;
        }
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag}: expected {what}, got '{value}'");
        match flag.as_str() {
            "--workload" => {
                workload = Some(Workload::parse(&value).ok_or_else(|| bad("a workload name"))?);
            }
            "--seed" => seed = Some(value.parse::<u64>().map_err(|_| bad("an integer"))?),
            "--seconds" => {
                let s = value.parse::<f64>().map_err(|_| bad("a number"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err(bad("a number of seconds in (0, 600]"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("0 or 1")),
                });
            }
            "--sachi-bin" => sachi_bin = Some(PathBuf::from(value)),
            "--trace-out" => trace_out = Some(PathBuf::from(value)),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
        smoke,
        sachi_bin: sachi_bin.ok_or("--sachi-bin is required")?,
        trace_out,
    })
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("sachi-hostbench: {e}\n{USAGE}");
            std::process::exit(2);
        }
    };
    let section = if args.trace {
        "per_layer"
    } else {
        "end_to_end"
    };
    let expected = std::fs::read_to_string(BENCHMARK_JSON)
        .map_err(|e| format!("{BENCHMARK_JSON}: {e}"))
        .and_then(|text| report::listed_metrics(&text, section));
    let expected = match expected {
        Ok(list) => list,
        Err(e) => {
            eprintln!("sachi-hostbench: {e}");
            std::process::exit(2);
        }
    };
    if !args.sachi_bin.is_file() {
        eprintln!(
            "sachi-hostbench: no sachi binary at {}",
            args.sachi_bin.display()
        );
        std::process::exit(2);
    }

    let mut result = if args.trace {
        trace::run(
            args.workload,
            &args.sachi_bin,
            args.seed,
            args.seconds,
            args.smoke,
            args.trace_out.as_deref(),
        )
    } else if args.workload == Workload::ServeMixed {
        serve::run(&args.sachi_bin, args.seed, args.seconds, args.smoke)
    } else {
        batch::run(args.workload, args.seed, args.seconds, args.smoke)
    };
    result.check_schema(&expected);
    let title = format!(
        "{} seed={} trace={} smoke={} host_threads={}",
        args.workload.name(),
        args.seed,
        u8::from(args.trace),
        args.smoke,
        std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get),
    );
    std::process::exit(result.print(&title));
}
