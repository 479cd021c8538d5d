//! Hand-rolled argument parsing for the `sachi` CLI (no external parser
//! dependency; the grammar is small and fully tested).

use sachi_core::config::DesignKind;
use sachi_core::encoding::RESOLUTION_BITS;
use sachi_core::serve::JobSpec;
use sachi_ising::tempering::LadderKind;
use sachi_mem::cache::CacheHierarchy;
use sachi_workloads::spec::CopKind;
use std::fmt;

/// Machine-readable metrics output format for `solve`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MetricsFormat {
    /// Single JSON snapshot (`sachi.metrics.v1` schema) on stdout.
    Json,
    /// Prometheus text exposition format version 0.0.4.
    Prom,
}

/// A parsed command line.
#[derive(Debug, Clone, PartialEq)]
pub enum Command {
    /// `sachi solve ...` — functional solve with a full report.
    Solve(SolveArgs),
    /// `sachi compare ...` — run every machine on one problem.
    Compare(SolveArgs),
    /// `sachi estimate ...` — analytic model at arbitrary scale.
    Estimate(EstimateArgs),
    /// `sachi serve ...` — run the multi-tenant solver daemon.
    Serve(ServeArgs),
    /// `sachi submit ...` — submit one request to a running daemon.
    Submit(SubmitArgs),
    /// `sachi info` — print the configured geometry and constants.
    Info,
    /// `sachi help` (or `-h`/`--help`).
    Help,
}

/// Arguments of `serve`. Every knob that bounds a resource rejects
/// zero at parse time: a zero-depth queue, zero-port bind, or
/// zero-millisecond timeout is always a misconfiguration that would
/// otherwise surface as a daemon that admits nothing (or binds an
/// ephemeral port nobody can find).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ServeArgs {
    /// TCP port to bind on 127.0.0.1.
    pub port: u16,
    /// Worker threads for the shared solver pool (0 = all cores).
    pub threads: usize,
    /// Bound on jobs admitted but not yet finished (backpressure).
    pub queue_depth: usize,
    /// Wall-clock admission deadline: a job still unstarted after this
    /// many milliseconds is revoked with the deadline-expired code.
    pub admission_timeout_ms: u64,
    /// Per-connection socket read timeout in milliseconds.
    pub io_timeout_ms: u64,
    /// Bound on concurrently served connections.
    pub max_conns: usize,
    /// Admission limit on a job's `step_budget`.
    pub max_step_budget: u64,
    /// Admission limit on a job's `size`.
    pub max_size: usize,
    /// Admission limit on a job's `restarts`.
    pub max_restarts: u64,
}

impl Default for ServeArgs {
    fn default() -> Self {
        ServeArgs {
            port: 7861,
            threads: 0,
            queue_depth: 8,
            admission_timeout_ms: 10_000,
            io_timeout_ms: 10_000,
            max_conns: 64,
            max_step_budget: 100_000_000,
            max_size: 65_536,
            max_restarts: 256,
        }
    }
}

/// What a `submit` invocation asks the daemon to do. The op flags are
/// mutually exclusive with each other and with job flags.
#[derive(Debug, Clone, PartialEq)]
pub enum SubmitOp {
    /// Submit a solve job (the default; built from the job flags).
    Solve(JobSpec),
    /// Liveness probe (`--ping`).
    Ping,
    /// Graceful drain (`--shutdown`).
    Shutdown,
    /// Fetch the Prometheus exposition over HTTP (`--fetch-metrics`).
    FetchMetrics,
    /// Send an arbitrary string as the frame body (`--raw`), for
    /// protocol testing: the daemon must answer with a typed error.
    Raw(String),
}

/// Arguments of `submit`.
#[derive(Debug, Clone, PartialEq)]
pub struct SubmitArgs {
    /// Daemon address.
    pub addr: String,
    /// The request to send.
    pub op: SubmitOp,
}

impl Default for SubmitArgs {
    fn default() -> Self {
        SubmitArgs {
            addr: "127.0.0.1:7861".to_string(),
            op: SubmitOp::Solve(JobSpec::default()),
        }
    }
}

/// Arguments of `solve`/`compare`: the job itself, plus the host-only
/// settings no daemon job carries.
#[derive(Debug, Clone, PartialEq)]
pub struct SolveArgs {
    /// Everything the result depends on — the same spec `submit` sends.
    /// With `file` set, its `cop` and `size` are unused.
    pub job: JobSpec,
    /// DIMACS/Gset file to load instead of a generated COP.
    pub file: Option<String>,
    /// Treat `file` as Gset max-cut format.
    pub gset: bool,
    /// Treat `file` as DIMACS CNF (3-SAT clause-penalty encoding).
    pub cnf: bool,
    /// Worker threads for the replica ensemble (0 = all available
    /// cores). Thread count never changes results, only wall-clock.
    pub threads: usize,
    /// Cache hierarchy preset.
    pub hierarchy: CacheHierarchy,
    /// Machine-readable metrics output (replaces the human report).
    pub metrics: Option<MetricsFormat>,
    /// Record solve-phase spans and include them in the metrics output.
    pub trace_phases: bool,
}

impl SolveArgs {
    /// The generated COP this run builds; `None` when `--file` supplies
    /// the graph instead.
    pub fn cop(&self) -> Option<CopKind> {
        self.file.is_none().then_some(self.job.cop)
    }
}

impl Default for SolveArgs {
    fn default() -> Self {
        SolveArgs {
            job: JobSpec::default(),
            file: None,
            gset: false,
            cnf: false,
            threads: 0,
            hierarchy: CacheHierarchy::hpca_default(),
            metrics: None,
            trace_phases: false,
        }
    }
}

/// Arguments of `estimate`.
#[derive(Debug, Clone, PartialEq)]
pub struct EstimateArgs {
    /// COP whose Fig. 4 shape to use.
    pub cop: CopKind,
    /// Spin count.
    pub spins: u64,
    /// Stationarity design.
    pub design: DesignKind,
    /// IC resolution override.
    pub resolution: Option<u32>,
    /// Assumed iterations for whole-solve totals.
    pub iterations: u64,
    /// Cache hierarchy preset.
    pub hierarchy: CacheHierarchy,
}

impl Default for EstimateArgs {
    fn default() -> Self {
        EstimateArgs {
            cop: CopKind::MolecularDynamics,
            spins: 1_000_000,
            design: DesignKind::N3,
            resolution: None,
            iterations: 100,
            hierarchy: CacheHierarchy::hpca_default(),
        }
    }
}

/// A parse failure with a user-facing message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ArgError(pub String);

impl fmt::Display for ArgError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

impl std::error::Error for ArgError {}

fn err(msg: impl Into<String>) -> ArgError {
    ArgError(msg.into())
}

/// The canonical short label for a COP — the first alias
/// [`parse_cop`] accepts, so `cop_label` and `parse_cop` round-trip.
/// The wire protocol uses these labels in both directions.
pub(crate) fn cop_label(kind: CopKind) -> &'static str {
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

pub(crate) fn parse_cop(s: &str) -> Result<CopKind, ArgError> {
    match s {
        "asset" | "asset-allocation" => Ok(CopKind::AssetAllocation),
        "imgseg" | "segmentation" | "image-segmentation" => Ok(CopKind::ImageSegmentation),
        "tsp" | "traveling-salesman" => Ok(CopKind::TravelingSalesman),
        "md" | "molecular-dynamics" => Ok(CopKind::MolecularDynamics),
        "sat" | "3sat" | "3-sat" => Ok(CopKind::SatThree),
        "coloring" | "color" | "graph-coloring" => Ok(CopKind::GraphColoring),
        "sched" | "scheduling" | "job-scheduling" => Ok(CopKind::JobScheduling),
        other => Err(err(format!(
            "unknown COP '{other}' (asset|imgseg|tsp|md|sat|coloring|sched)"
        ))),
    }
}

/// The canonical short label for a design — exactly what
/// [`parse_design`] accepts, so the pair round-trips on the wire
/// (`DesignKind::label()` is the long display form, `"SACHI(n3)"`).
pub(crate) fn design_label(kind: DesignKind) -> &'static str {
    match kind {
        DesignKind::N1a => "n1a",
        DesignKind::N1b => "n1b",
        DesignKind::N2 => "n2",
        DesignKind::N3 => "n3",
    }
}

pub(crate) fn parse_design(s: &str) -> Result<DesignKind, ArgError> {
    match s {
        "n1a" => Ok(DesignKind::N1a),
        "n1b" => Ok(DesignKind::N1b),
        "n2" => Ok(DesignKind::N2),
        "n3" => Ok(DesignKind::N3),
        other => Err(err(format!("unknown design '{other}' (n1a|n1b|n2|n3)"))),
    }
}

fn parse_hierarchy(s: &str) -> Result<CacheHierarchy, ArgError> {
    match s {
        "default" | "hpca" => Ok(CacheHierarchy::hpca_default()),
        "desktop" => Ok(CacheHierarchy::desktop()),
        "server" => Ok(CacheHierarchy::server()),
        other => Err(err(format!(
            "unknown hierarchy '{other}' (default|desktop|server)"
        ))),
    }
}

fn take_value<'a>(flag: &str, it: &mut impl Iterator<Item = &'a str>) -> Result<&'a str, ArgError> {
    it.next()
        .ok_or_else(|| err(format!("{flag} needs a value")))
}

/// Parses a number-valued flag's value, naming `what` it needs on error.
fn take_parsed<'a, T: std::str::FromStr>(
    flag: &str,
    what: &str,
    it: &mut impl Iterator<Item = &'a str>,
) -> Result<T, ArgError> {
    take_value(flag, it)?
        .parse()
        .map_err(|_| err(format!("{flag} needs {what}")))
}

/// `--resolution`, range-checked against the representable IC widths
/// so an unsupported width is a usage error, never a machine panic.
fn take_resolution<'a>(
    flag: &str,
    it: &mut impl Iterator<Item = &'a str>,
) -> Result<u32, ArgError> {
    let what = format!("an integer in {RESOLUTION_BITS:?}");
    let r = take_parsed(flag, &what, it)?;
    if !RESOLUTION_BITS.contains(&r) {
        return Err(err(format!("{flag} needs {what}")));
    }
    Ok(r)
}

/// Parses one job flag — a [`JobSpec`] field, shared by `solve`,
/// `compare` and `submit` — into `spec`. Returns `Ok(false)` when
/// `flag` is not a job flag.
fn parse_job_flag<'a>(
    spec: &mut JobSpec,
    flag: &str,
    it: &mut impl Iterator<Item = &'a str>,
) -> Result<bool, ArgError> {
    match flag {
        "--cop" => spec.cop = parse_cop(take_value(flag, it)?)?,
        "--size" => spec.size = take_parsed(flag, "an integer", it)?,
        "--seed" => spec.seed = take_parsed(flag, "an integer", it)?,
        "--design" => spec.design = parse_design(take_value(flag, it)?)?,
        "--restarts" => spec.restarts = take_parsed(flag, "an integer", it)?,
        "--resolution" => spec.resolution = Some(take_resolution(flag, it)?),
        "--step-budget" => spec.step_budget = Some(take_parsed(flag, "an integer", it)?),
        "--fault-ber" => {
            let ber: f64 = take_parsed(flag, "a number in [0, 1]", it)?;
            if !(0.0..=1.0).contains(&ber) {
                return Err(err("--fault-ber needs a number in [0, 1]"));
            }
            spec.fault_ber = Some(ber);
        }
        "--fault-seed" => spec.fault_seed = take_parsed(flag, "an integer", it)?,
        "--fault-policy" => {
            spec.fault_policy = take_value(flag, it)?
                .parse()
                .map_err(|e: String| err(format!("--fault-policy: {e}")))?
        }
        "--tempering" => spec.tempering = true,
        "--ladder" => {
            spec.ladder = take_value(flag, it)?
                .parse()
                .map_err(|e: String| err(format!("--ladder: {e}")))?
        }
        _ => return Ok(false),
    }
    Ok(true)
}

/// The cross-flag job rules, checked once all flags are read. Zero
/// sizes are left to [`JobSpec::validate`] (a typed code-2 refusal on
/// the CLI and on the wire alike).
fn check_job_flags(spec: &JobSpec) -> Result<(), ArgError> {
    if spec.restarts == 0 {
        return Err(err("--restarts must be at least 1"));
    }
    if spec.step_budget == Some(0) {
        return Err(err(
            "--step-budget 0 would run zero sweeps; omit the flag for unbounded",
        ));
    }
    if !spec.tempering && spec.ladder != LadderKind::Geometric {
        return Err(err("--ladder needs --tempering"));
    }
    Ok(())
}

fn parse_solve_args<'a>(mut it: impl Iterator<Item = &'a str>) -> Result<SolveArgs, ArgError> {
    let mut args = SolveArgs::default();
    while let Some(flag) = it.next() {
        match flag {
            "--cop" if args.file.is_some() => {
                return Err(err("--cop and --file are mutually exclusive"))
            }
            // The generated-COP default gives way to the file.
            "--file" => args.file = Some(take_value(flag, &mut it)?.to_string()),
            "--gset" => args.gset = true,
            "--cnf" => args.cnf = true,
            "--threads" => args.threads = take_parsed(flag, "an integer (0 = all cores)", &mut it)?,
            "--hierarchy" => args.hierarchy = parse_hierarchy(take_value(flag, &mut it)?)?,
            "--metrics" => {
                args.metrics = Some(match take_value(flag, &mut it)? {
                    "json" => MetricsFormat::Json,
                    "prom" | "prometheus" => MetricsFormat::Prom,
                    other => {
                        return Err(err(format!("unknown metrics format '{other}' (json|prom)")))
                    }
                })
            }
            "--trace-phases" => args.trace_phases = true,
            other => {
                if !parse_job_flag(&mut args.job, other, &mut it)? {
                    return Err(err(format!("unknown flag '{other}' for solve/compare")));
                }
            }
        }
    }
    check_job_flags(&args.job)?;
    if args.gset && args.cnf {
        return Err(err("--gset and --cnf are mutually exclusive"));
    }
    if args.cnf && args.file.is_none() {
        return Err(err("--cnf needs --file"));
    }
    Ok(args)
}

fn parse_estimate_args<'a>(
    mut it: impl Iterator<Item = &'a str>,
) -> Result<EstimateArgs, ArgError> {
    let mut args = EstimateArgs::default();
    while let Some(flag) = it.next() {
        match flag {
            "--cop" => args.cop = parse_cop(take_value(flag, &mut it)?)?,
            "--spins" => {
                args.spins = take_value(flag, &mut it)?
                    .parse()
                    .map_err(|_| err("--spins needs an integer"))?
            }
            "--design" => args.design = parse_design(take_value(flag, &mut it)?)?,
            "--resolution" => args.resolution = Some(take_resolution(flag, &mut it)?),
            "--iterations" => {
                args.iterations = take_value(flag, &mut it)?
                    .parse()
                    .map_err(|_| err("--iterations needs an integer"))?
            }
            "--hierarchy" => args.hierarchy = parse_hierarchy(take_value(flag, &mut it)?)?,
            other => return Err(err(format!("unknown flag '{other}' for estimate"))),
        }
    }
    Ok(args)
}

fn nonzero<T: PartialEq + From<u8>>(value: T, flag: &str) -> Result<T, ArgError> {
    if value == T::from(0u8) {
        return Err(err(format!("{flag} must be at least 1")));
    }
    Ok(value)
}

fn parse_serve_args<'a>(mut it: impl Iterator<Item = &'a str>) -> Result<ServeArgs, ArgError> {
    let mut args = ServeArgs::default();
    while let Some(flag) = it.next() {
        let value = take_value(flag, &mut it)?;
        let bad = |what: &str| err(format!("{flag} needs {what}"));
        match flag {
            "--port" => {
                args.port = nonzero(value.parse().map_err(|_| bad("a port in 1..=65535"))?, flag)?
            }
            "--threads" => {
                args.threads = value
                    .parse()
                    .map_err(|_| bad("an integer (0 = all cores)"))?
            }
            "--queue-depth" => {
                args.queue_depth = nonzero(value.parse().map_err(|_| bad("an integer"))?, flag)?
            }
            "--admission-timeout-ms" => {
                args.admission_timeout_ms =
                    nonzero(value.parse().map_err(|_| bad("milliseconds"))?, flag)?
            }
            "--io-timeout-ms" => {
                args.io_timeout_ms = nonzero(value.parse().map_err(|_| bad("milliseconds"))?, flag)?
            }
            "--max-conns" => {
                args.max_conns = nonzero(value.parse().map_err(|_| bad("an integer"))?, flag)?
            }
            "--max-step-budget" => {
                args.max_step_budget = nonzero(value.parse().map_err(|_| bad("an integer"))?, flag)?
            }
            "--max-size" => {
                args.max_size = nonzero(value.parse().map_err(|_| bad("an integer"))?, flag)?
            }
            "--max-restarts" => {
                args.max_restarts = nonzero(value.parse().map_err(|_| bad("an integer"))?, flag)?
            }
            other => return Err(err(format!("unknown flag '{other}' for serve"))),
        }
    }
    Ok(args)
}

fn parse_submit_args<'a>(mut it: impl Iterator<Item = &'a str>) -> Result<SubmitArgs, ArgError> {
    let mut args = SubmitArgs::default();
    let mut spec = JobSpec::default();
    let mut op_flag: Option<&str> = None;
    let mut job_flag: Option<&str> = None;
    fn set_op<'f>(current: &mut Option<&'f str>, flag: &'f str) -> Result<(), ArgError> {
        if let Some(prev) = current {
            return Err(err(format!("{prev} and {flag} are mutually exclusive")));
        }
        *current = Some(flag);
        Ok(())
    }
    while let Some(flag) = it.next() {
        match flag {
            "--addr" => args.addr = take_value(flag, &mut it)?.to_string(),
            "--ping" | "--shutdown" | "--fetch-metrics" => set_op(&mut op_flag, flag)?,
            "--raw" => {
                set_op(&mut op_flag, flag)?;
                args.op = SubmitOp::Raw(take_value(flag, &mut it)?.to_string());
            }
            other => {
                if !parse_job_flag(&mut spec, other, &mut it)? {
                    return Err(err(format!("unknown flag '{other}' for submit")));
                }
                job_flag = Some(other);
            }
        }
    }
    match (op_flag, job_flag) {
        (Some(op), Some(job)) => Err(err(format!(
            "{op} and job flag {job} are mutually exclusive"
        ))),
        (Some("--ping"), None) => {
            args.op = SubmitOp::Ping;
            Ok(args)
        }
        (Some("--shutdown"), None) => {
            args.op = SubmitOp::Shutdown;
            Ok(args)
        }
        (Some("--fetch-metrics"), None) => {
            args.op = SubmitOp::FetchMetrics;
            Ok(args)
        }
        (Some(_), None) => Ok(args), // --raw already stored its payload
        (None, _) => {
            // The same job-flag rules as `solve`; the rest of the job's
            // validation happens on the daemon's admission path.
            check_job_flags(&spec)?;
            args.op = SubmitOp::Solve(spec);
            Ok(args)
        }
    }
}

/// Parses a full command line (without the program name).
///
/// # Errors
///
/// Returns [`ArgError`] with a user-facing message on any malformed
/// input.
pub fn parse<'a>(argv: impl IntoIterator<Item = &'a str>) -> Result<Command, ArgError> {
    let mut it = argv.into_iter();
    match it.next() {
        None | Some("help") | Some("-h") | Some("--help") => Ok(Command::Help),
        Some("info") => Ok(Command::Info),
        Some("solve") => Ok(Command::Solve(parse_solve_args(it)?)),
        Some("compare") => Ok(Command::Compare(parse_solve_args(it)?)),
        Some("estimate") => Ok(Command::Estimate(parse_estimate_args(it)?)),
        Some("serve") => Ok(Command::Serve(parse_serve_args(it)?)),
        Some("submit") => Ok(Command::Submit(parse_submit_args(it)?)),
        Some(other) => Err(err(format!(
            "unknown command '{other}' (solve|compare|estimate|serve|submit|info|help)"
        ))),
    }
}

/// The help text.
pub const USAGE: &str = "\
sachi — stationarity-aware, all-digital, near-memory Ising architecture simulator

USAGE:
  sachi solve    [--cop asset|imgseg|tsp|md|sat|coloring|sched] [--size N]
                 [--file PATH [--gset|--cnf]]
                 [--design n1a|n1b|n2|n3] [--resolution R] [--seed S]
                 [--restarts K] [--threads T] [--hierarchy default|desktop|server]
                 [--fault-ber P] [--fault-seed S] [--fault-policy failfast|retry|retry:N]
                 [--metrics json|prom] [--trace-phases]
                 [--tempering [--ladder geometric|adaptive]]
                 (--threads 0, the default, uses every core; restarts run
                  as a deterministic parallel replica ensemble — results
                  are identical at any thread count. --tempering couples
                  the restarts as replica-exchange parallel-tempering
                  rungs on a temperature ladder (--ladder picks the
                  construction: geometric spacing, or adaptive endpoints
                  tuned from the problem's coefficient statistics);
                  swap decisions come from a salted deterministic
                  stream, so tempered runs stay thread-count
                  independent. --fault-ber injects
                  deterministic transient bit flips at probability P per
                  read bit; parity-detected faults follow --fault-policy,
                  retry:N by default. --metrics replaces the human report
                  with one machine-readable snapshot on stdout — json is
                  the sachi.metrics.v1 schema, prom is Prometheus text
                  exposition; --trace-phases adds hierarchical
                  upload/round/h_compute/update/writeback/prefetch spans,
                  metered in solver cycles, to the snapshot.
                  sat/coloring/sched are the seeded Lucas-library
                  extension families: sat generates a critical-ratio
                  3-SAT instance over --size variables, coloring a
                  planted 3-colorable graph on --size vertices, sched a
                  --size-job schedule on 3 machines; --cnf loads a 3-SAT
                  instance from a DIMACS CNF file instead)
  sachi compare  <same flags>         run every machine on one problem
  sachi estimate [--cop ...] [--spins N] [--design ...] [--resolution R]
                 [--iterations I] [--hierarchy ...]
  sachi serve    [--port P] [--threads T] [--queue-depth Q]
                 [--admission-timeout-ms MS] [--io-timeout-ms MS]
                 [--max-conns C] [--max-step-budget B] [--max-size N]
                 [--max-restarts K]
                 (multi-tenant solver daemon on 127.0.0.1:P speaking
                  length-prefixed JSON frames; replica ensembles from
                  different jobs share one deterministic worker pool, so
                  a job's result is byte-identical to the one-shot CLI
                  at any thread count and under any co-tenants. Jobs
                  over the admission limits, past the queue depth, or
                  past the admission deadline are rejected with typed
                  code-5 responses; GET /metrics on the same port serves
                  Prometheus text exposition. All bounds reject 0.)
  sachi submit   [--addr HOST:PORT] [job flags: --cop --size --seed
                 --design --restarts --resolution --step-budget
                 --fault-ber --fault-seed --fault-policy
                 --tempering --ladder]
                 | --ping | --shutdown | --fetch-metrics | --raw BODY
                 (one request to a running daemon; exits with the
                  daemon's response code — 0 ok, 2 usage/parse, 3 solve,
                  4 fault, 5 server rejection. Op flags are mutually
                  exclusive with each other and with job flags.
                  --step-budget also works on solve: it caps total spin
                  updates deterministically, in the work domain.)
  sachi info                          print geometry and technology constants
  sachi help

EXAMPLES:
  sachi solve --cop md --size 1024 --design n3 --restarts 4
  sachi solve --cop md --size 1024 --restarts 16 --threads 8
  sachi solve --file g05.gset --gset --design n3
  sachi solve --cop sat --size 40 --restarts 8
  sachi solve --cop sat --size 40 --restarts 8 --tempering --ladder adaptive
  sachi solve --file data/example12.cnf --cnf --design n2
  sachi solve --cop md --size 1024 --fault-ber 1e-4 --fault-policy retry:5
  sachi solve --cop md --size 256 --metrics json --trace-phases
  sachi compare --cop imgseg --size 144
  sachi estimate --cop tsp --spins 1000000 --hierarchy server
  sachi serve --port 7861 --queue-depth 8 --max-step-budget 1000000
  sachi submit --cop sat --size 40 --restarts 8 --step-budget 60000
  sachi submit --ping
  sachi submit --fetch-metrics
  sachi submit --shutdown
";

#[cfg(test)]
mod tests {
    use super::*;
    use sachi_ising::recovery::RecoveryPolicy;

    #[test]
    fn parses_solve_with_all_flags() {
        let cmd = parse(
            "solve --cop tsp --size 64 --design n2 --resolution 8 --seed 9 --restarts 3 --threads 2 --hierarchy server"
                .split_whitespace(),
        )
        .unwrap();
        match cmd {
            Command::Solve(a) => {
                assert_eq!(a.cop(), Some(CopKind::TravelingSalesman));
                assert_eq!(a.job.size, 64);
                assert_eq!(a.job.design, DesignKind::N2);
                assert_eq!(a.job.resolution, Some(8));
                assert_eq!(a.job.seed, 9);
                assert_eq!(a.job.restarts, 3);
                assert_eq!(a.threads, 2);
                assert_eq!(a.hierarchy, CacheHierarchy::server());
            }
            other => panic!("wrong command {other:?}"),
        }
    }

    #[test]
    fn threads_defaults_to_auto_and_rejects_garbage() {
        let cmd = parse(["solve"]).unwrap();
        match cmd {
            Command::Solve(a) => assert_eq!(a.threads, 0),
            other => panic!("wrong command {other:?}"),
        }
        assert!(parse(["solve", "--threads", "lots"])
            .unwrap_err()
            .0
            .contains("--threads needs an integer"));
    }

    #[test]
    fn file_mode_clears_cop() {
        let cmd = parse("solve --file graph.txt --gset".split_whitespace()).unwrap();
        match cmd {
            Command::Solve(a) => {
                assert_eq!(a.file.as_deref(), Some("graph.txt"));
                assert!(a.gset);
                assert_eq!(a.cop(), None);
            }
            other => panic!("wrong command {other:?}"),
        }
    }

    #[test]
    fn defaults_are_sane() {
        let cmd = parse(["solve"]).unwrap();
        match cmd {
            Command::Solve(a) => {
                assert_eq!(a, SolveArgs::default());
            }
            other => panic!("wrong command {other:?}"),
        }
        assert_eq!(parse([] as [&str; 0]).unwrap(), Command::Help);
        assert_eq!(parse(["--help"]).unwrap(), Command::Help);
        assert_eq!(parse(["info"]).unwrap(), Command::Info);
    }

    #[test]
    fn estimate_flags() {
        let cmd = parse("estimate --cop imgseg --spins 200000 --iterations 50".split_whitespace())
            .unwrap();
        match cmd {
            Command::Estimate(a) => {
                assert_eq!(a.cop, CopKind::ImageSegmentation);
                assert_eq!(a.spins, 200_000);
                assert_eq!(a.iterations, 50);
            }
            other => panic!("wrong command {other:?}"),
        }
    }

    #[test]
    fn error_messages_are_actionable() {
        assert!(parse(["solve", "--cop", "sudoku"])
            .unwrap_err()
            .0
            .contains("unknown COP"));
        assert!(parse(["solve", "--design", "n9"])
            .unwrap_err()
            .0
            .contains("unknown design"));
        assert!(parse(["solve", "--size"])
            .unwrap_err()
            .0
            .contains("needs a value"));
        assert!(parse(["solve", "--size", "many"])
            .unwrap_err()
            .0
            .contains("integer"));
        assert!(parse(["solve", "--restarts", "0"])
            .unwrap_err()
            .0
            .contains("at least 1"));
        assert!(parse(["launch"]).unwrap_err().0.contains("unknown command"));
        assert!(parse(["solve", "--hierarchy", "mainframe"])
            .unwrap_err()
            .0
            .contains("unknown hierarchy"));
        assert!(parse(["estimate", "--wat"])
            .unwrap_err()
            .0
            .contains("unknown flag"));
        assert!(parse(["solve", "--file", "g.txt", "--cop", "md"])
            .unwrap_err()
            .0
            .contains("mutually exclusive"));
    }

    #[test]
    fn resolution_outside_the_representable_range_is_a_usage_error() {
        for cmd in ["solve", "compare", "submit", "estimate"] {
            for r in ["0", "1", "33", "65"] {
                let e = parse([cmd, "--resolution", r]).unwrap_err();
                assert!(
                    e.0.contains("--resolution needs an integer in 2..=32"),
                    "{cmd} {r}: {e}"
                );
            }
            assert!(parse([cmd, "--resolution", "32"]).is_ok(), "{cmd}");
        }
    }

    #[test]
    fn job_flags_build_the_same_spec_under_solve_and_submit() {
        for flags in [
            "",
            "--cop sat --size 40 --seed 9 --restarts 8 --step-budget 60000",
            "--cop tsp --design n2 --resolution 8 --size 64",
            "--cop md --fault-ber 1e-3 --fault-seed 7 --fault-policy retry:3",
            "--cop coloring --fault-ber 0.01 --fault-policy failfast",
            "--cop sched --restarts 4 --tempering --ladder adaptive",
            "--size 0 --seed 18446744073709551615 --design n1a --tempering",
        ] {
            let solve = match parse(["solve"].into_iter().chain(flags.split_whitespace())) {
                Ok(Command::Solve(a)) => a.job,
                other => panic!("solve {flags}: {other:?}"),
            };
            let submit = match parse(["submit"].into_iter().chain(flags.split_whitespace())) {
                Ok(Command::Submit(SubmitArgs {
                    op: SubmitOp::Solve(spec),
                    ..
                })) => spec,
                other => panic!("submit {flags}: {other:?}"),
            };
            assert_eq!(solve, submit, "{flags}");
        }
        // And the shared rules refuse the same job flags on both.
        for flags in ["--restarts 0", "--step-budget 0", "--ladder adaptive"] {
            let solve = parse(["solve"].into_iter().chain(flags.split_whitespace()));
            let submit = parse(["submit"].into_iter().chain(flags.split_whitespace()));
            assert_eq!(solve.unwrap_err(), submit.unwrap_err(), "{flags}");
        }
    }

    #[test]
    fn fault_flags_parse_and_validate() {
        let cmd = parse(
            "solve --fault-ber 1e-4 --fault-seed 42 --fault-policy retry:5".split_whitespace(),
        )
        .unwrap();
        match cmd {
            Command::Solve(a) => {
                assert_eq!(a.job.fault_ber, Some(1e-4));
                assert_eq!(a.job.fault_seed, 42);
                assert_eq!(
                    a.job.fault_policy,
                    RecoveryPolicy::RefetchRetry { max_retries: 5 }
                );
            }
            other => panic!("wrong command {other:?}"),
        }
        match parse(["solve", "--fault-policy", "failfast"]).unwrap() {
            Command::Solve(a) => {
                assert_eq!(a.job.fault_ber, None);
                assert_eq!(a.job.fault_policy, RecoveryPolicy::FailFast);
            }
            other => panic!("wrong command {other:?}"),
        }
        assert!(parse(["solve", "--fault-ber", "2.0"])
            .unwrap_err()
            .0
            .contains("[0, 1]"));
        assert!(parse(["solve", "--fault-ber", "often"])
            .unwrap_err()
            .0
            .contains("[0, 1]"));
        assert!(parse(["solve", "--fault-policy", "hope"])
            .unwrap_err()
            .0
            .contains("--fault-policy"));
    }

    #[test]
    fn metrics_flags_parse_and_validate() {
        match parse("solve --metrics json --trace-phases".split_whitespace()).unwrap() {
            Command::Solve(a) => {
                assert_eq!(a.metrics, Some(MetricsFormat::Json));
                assert!(a.trace_phases);
            }
            other => panic!("wrong command {other:?}"),
        }
        match parse(["solve", "--metrics", "prometheus"]).unwrap() {
            Command::Solve(a) => assert_eq!(a.metrics, Some(MetricsFormat::Prom)),
            other => panic!("wrong command {other:?}"),
        }
        match parse(["solve"]).unwrap() {
            Command::Solve(a) => {
                assert_eq!(a.metrics, None);
                assert!(!a.trace_phases);
            }
            other => panic!("wrong command {other:?}"),
        }
        assert!(parse(["solve", "--metrics", "xml"])
            .unwrap_err()
            .0
            .contains("json|prom"));
        assert!(parse(["solve", "--metrics"])
            .unwrap_err()
            .0
            .contains("needs a value"));
    }

    #[test]
    fn tempering_flags_parse_and_validate() {
        match parse("solve --tempering --ladder adaptive --restarts 4".split_whitespace()).unwrap()
        {
            Command::Solve(a) => {
                assert!(a.job.tempering);
                assert_eq!(a.job.ladder, LadderKind::Adaptive);
            }
            other => panic!("wrong command {other:?}"),
        }
        match parse(["solve", "--tempering"]).unwrap() {
            Command::Solve(a) => {
                assert!(a.job.tempering);
                assert_eq!(a.job.ladder, LadderKind::Geometric);
            }
            other => panic!("wrong command {other:?}"),
        }
        assert!(parse(["solve", "--ladder", "adaptive"])
            .unwrap_err()
            .0
            .contains("--ladder needs --tempering"));
        assert!(parse(["solve", "--tempering", "--ladder", "steep"])
            .unwrap_err()
            .0
            .contains("unknown ladder"));
        match parse("submit --tempering --ladder adaptive --restarts 4".split_whitespace()).unwrap()
        {
            Command::Submit(a) => match a.op {
                SubmitOp::Solve(spec) => {
                    assert!(spec.tempering);
                    assert_eq!(spec.ladder, LadderKind::Adaptive);
                }
                other => panic!("wrong op {other:?}"),
            },
            other => panic!("wrong command {other:?}"),
        }
        assert!(parse(["submit", "--ladder", "adaptive"])
            .unwrap_err()
            .0
            .contains("--ladder needs --tempering"));
        assert!(parse(["submit", "--tempering", "--ping"])
            .unwrap_err()
            .0
            .contains("mutually exclusive"));
    }

    #[test]
    fn cop_aliases() {
        for (alias, kind) in [
            ("asset", CopKind::AssetAllocation),
            ("asset-allocation", CopKind::AssetAllocation),
            ("segmentation", CopKind::ImageSegmentation),
            ("traveling-salesman", CopKind::TravelingSalesman),
            ("molecular-dynamics", CopKind::MolecularDynamics),
            ("sat", CopKind::SatThree),
            ("3sat", CopKind::SatThree),
            ("coloring", CopKind::GraphColoring),
            ("graph-coloring", CopKind::GraphColoring),
            ("sched", CopKind::JobScheduling),
            ("job-scheduling", CopKind::JobScheduling),
        ] {
            assert_eq!(parse_cop(alias).unwrap(), kind);
        }
    }

    #[test]
    fn cnf_flag_rules() {
        assert!(parse("solve --cnf".split_whitespace()).is_err());
        assert!(parse("solve --file x.cnf --cnf --gset".split_whitespace()).is_err());
        match parse("solve --file x.cnf --cnf".split_whitespace()).unwrap() {
            Command::Solve(a) => {
                assert!(a.cnf);
                assert_eq!(a.file.as_deref(), Some("x.cnf"));
            }
            other => panic!("wrong command {other:?}"),
        }
    }

    #[test]
    fn cop_labels_round_trip_through_parse_cop() {
        for kind in CopKind::EXTENDED {
            assert_eq!(parse_cop(cop_label(kind)).unwrap(), kind);
        }
    }

    #[test]
    fn step_budget_parses_and_rejects_zero() {
        match parse("solve --step-budget 60000".split_whitespace()).unwrap() {
            Command::Solve(a) => assert_eq!(a.job.step_budget, Some(60_000)),
            other => panic!("wrong command {other:?}"),
        }
        assert!(parse(["solve", "--step-budget", "0"])
            .unwrap_err()
            .0
            .contains("zero sweeps"));
        assert!(parse(["submit", "--step-budget", "0"])
            .unwrap_err()
            .0
            .contains("zero sweeps"));
    }

    #[test]
    fn serve_defaults_and_flags() {
        assert_eq!(
            parse(["serve"]).unwrap(),
            Command::Serve(ServeArgs::default())
        );
        match parse(
            "serve --port 9000 --threads 2 --queue-depth 3 --admission-timeout-ms 500 \
             --io-timeout-ms 700 --max-conns 5 --max-step-budget 1000 --max-size 64 \
             --max-restarts 4"
                .split_whitespace(),
        )
        .unwrap()
        {
            Command::Serve(a) => {
                assert_eq!(a.port, 9000);
                assert_eq!(a.threads, 2);
                assert_eq!(a.queue_depth, 3);
                assert_eq!(a.admission_timeout_ms, 500);
                assert_eq!(a.io_timeout_ms, 700);
                assert_eq!(a.max_conns, 5);
                assert_eq!(a.max_step_budget, 1_000);
                assert_eq!(a.max_size, 64);
                assert_eq!(a.max_restarts, 4);
            }
            other => panic!("wrong command {other:?}"),
        }
        assert!(parse(["serve", "--wat", "1"]).is_err());
    }

    #[test]
    fn serve_rejects_every_zero_bound() {
        // Satellite: a zero queue depth, port, timeout, or limit is a
        // usage error at parse time, never a daemon that silently
        // admits nothing.
        for flag in [
            "--port",
            "--queue-depth",
            "--admission-timeout-ms",
            "--io-timeout-ms",
            "--max-conns",
            "--max-step-budget",
            "--max-size",
            "--max-restarts",
        ] {
            let e = parse(["serve", flag, "0"]).unwrap_err();
            assert!(e.0.contains("at least 1"), "{flag}: {e}");
        }
        // --threads 0 stays legal: it means "all cores".
        assert!(parse(["serve", "--threads", "0"]).is_ok());
    }

    #[test]
    fn submit_builds_job_specs_and_ops() {
        match parse(
            "submit --addr 127.0.0.1:9000 --cop sat --size 40 --seed 9 --restarts 8 \
             --step-budget 60000 --fault-ber 1e-4 --fault-policy failfast"
                .split_whitespace(),
        )
        .unwrap()
        {
            Command::Submit(a) => {
                assert_eq!(a.addr, "127.0.0.1:9000");
                match a.op {
                    SubmitOp::Solve(spec) => {
                        assert_eq!(spec.cop, CopKind::SatThree);
                        assert_eq!(spec.size, 40);
                        assert_eq!(spec.seed, 9);
                        assert_eq!(spec.restarts, 8);
                        assert_eq!(spec.step_budget, Some(60_000));
                        assert_eq!(spec.fault_ber, Some(1e-4));
                        assert_eq!(spec.fault_policy, RecoveryPolicy::FailFast);
                    }
                    other => panic!("wrong op {other:?}"),
                }
            }
            other => panic!("wrong command {other:?}"),
        }
        assert_eq!(
            parse(["submit", "--ping"]).unwrap(),
            Command::Submit(SubmitArgs {
                op: SubmitOp::Ping,
                ..SubmitArgs::default()
            })
        );
        match parse(["submit", "--raw", "not json"]).unwrap() {
            Command::Submit(a) => assert_eq!(a.op, SubmitOp::Raw("not json".to_string())),
            other => panic!("wrong command {other:?}"),
        }
        match parse(["submit"]).unwrap() {
            Command::Submit(a) => assert_eq!(a.op, SubmitOp::Solve(JobSpec::default())),
            other => panic!("wrong command {other:?}"),
        }
    }

    #[test]
    fn submit_op_flags_are_mutually_exclusive() {
        assert!(parse(["submit", "--ping", "--shutdown"])
            .unwrap_err()
            .0
            .contains("mutually exclusive"));
        assert!(parse(["submit", "--fetch-metrics", "--raw", "x"])
            .unwrap_err()
            .0
            .contains("mutually exclusive"));
        assert!(parse(["submit", "--ping", "--cop", "md"])
            .unwrap_err()
            .0
            .contains("mutually exclusive"));
        assert!(parse(["submit", "--size", "8", "--shutdown"])
            .unwrap_err()
            .0
            .contains("mutually exclusive"));
        assert!(parse(["submit", "--restarts", "0"])
            .unwrap_err()
            .0
            .contains("at least 1"));
    }
}
