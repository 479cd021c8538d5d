//! Metric definitions, the run result, and its output: a human table
//! (lines starting with `#`) followed by one JSON object on the last
//! line of standard output.

use sachi_obs::json::{escape, parse, JsonValue};

/// A metric: name, unit, and the time domain it is measured in.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MetricDef {
    /// Name as listed in `BENCHMARK.json`.
    pub name: &'static str,
    /// Unit as listed in `BENCHMARK.json`.
    pub unit: &'static str,
    /// `host` (wall clock of the simulator), `host-cpu` (CPU time of
    /// the simulator, scaled by the gauge), `simulated` (the modelled
    /// hardware; repeats exactly), or `count`.
    pub domain: &'static str,
}

const fn def(name: &'static str, unit: &'static str, domain: &'static str) -> MetricDef {
    MetricDef { name, unit, domain }
}

/// End-to-end metrics of the untraced run.
pub mod e2e {
    use super::{def, MetricDef};
    pub const SETUP_S: MetricDef = def("setup_s", "s", "host-cpu");
    pub const UPDATES_PER_CPU_S: MetricDef = def("updates_per_cpu_s", "1/s", "host-cpu");
    pub const CPU_MS_PER_JOB: MetricDef = def("cpu_ms_per_job", "ms", "host-cpu");
    pub const PEAK_RSS_MB: MetricDef = def("peak_rss_mb", "MiB", "host");
    pub const SIM_CYCLES: MetricDef = def("sim_cycles", "cycles", "simulated");
    pub const SIM_ENERGY_UJ: MetricDef = def("sim_energy_uj", "uJ", "simulated");
    pub const ACCURACY: MetricDef = def("accuracy", "ratio", "simulated");
}

/// Per-layer metrics of the traced run.
pub mod layer {
    use super::{def, MetricDef};
    pub const BUILD_S: MetricDef = def("workloads.build_s", "s", "host");
    pub const PLAN_S: MetricDef = def("serve.plan_s", "s", "host");
    pub const STORE_BUILD_S: MetricDef = def("tuple.store_build_s", "s", "host");
    pub const PLANES_BUILD_S: MetricDef = def("tuple.planes_build_s", "s", "host");
    pub const PLANES_BYTES: MetricDef = def("tuple.planes_bytes", "bytes", "host");
    pub const KERNEL_NS: MetricDef = def("designs.kernel_ns_per_update", "ns", "host");
    pub const KERNEL_SCALAR_NS: MetricDef =
        def("designs.kernel_scalar_ns_per_update", "ns", "host");
    pub const DECIDE_NS: MetricDef = def("anneal.decide_ns_per_update", "ns", "host");
    pub const WRITEBACK_NS: MetricDef = def("tuple.writeback_ns_per_flip", "ns", "host");
    pub const COPIES_PER_FLIP: MetricDef = def("tuple.copies_per_flip", "count", "count");
    pub const MACHINE_NS: MetricDef = def("machine.ns_per_update", "ns", "host");
    pub const BOOKKEEPING_NS: MetricDef = def("machine.bookkeeping_ns_per_update", "ns", "host");
    pub const GOLDEN_NS: MetricDef = def("golden.ns_per_update", "ns", "host");
    pub const GOLDEN_RATIO: MetricDef = def("machine.golden_ratio", "ratio", "host");
    pub const FAST_PATH_SHARE: MetricDef = def("machine.fast_path_share", "ratio", "count");
    pub const SKIPPED_WRITE_SHARE: MetricDef = def("designs.skipped_write_share", "ratio", "count");
    pub const PARALLEL_EFFICIENCY: MetricDef = def("ensemble.parallel_efficiency", "ratio", "host");
    pub const REDUCE_S: MetricDef = def("ensemble.reduce_s", "s", "host");
    pub const TEMPERING_NS: MetricDef = def("tempering.ns_per_update", "ns", "host");
    pub const POOL_JOB_S: MetricDef = def("serve.pool_job_s", "s", "host");
    pub const DAEMON_OVERHEAD_S: MetricDef = def("serve.daemon_overhead_s", "s", "host");
    pub const PING_S: MetricDef = def("serve.ping_s", "s", "host");
    pub const METRICS_SCRAPE_S: MetricDef = def("serve.metrics_scrape_s", "s", "host");
    pub const RESPONSE_BYTES: MetricDef = def("serve.response_bytes", "bytes", "count");
    pub const EXPORT_S: MetricDef = def("obs.export_s", "s", "host");
    pub const JSON_PARSE_S: MetricDef = def("obs.json_parse_s", "s", "host");
    pub const OVERHEAD_RATIO: MetricDef = def("trace.overhead_ratio", "ratio", "host");
    pub const COVERAGE: MetricDef = def("trace.coverage", "ratio", "host");
}

/// What a run measured and how many of its operations failed.
#[derive(Debug, Default)]
pub struct RunResult {
    /// Operations attempted: jobs, requests, and oracle checks.
    pub attempted: u64,
    failures: Vec<String>,
    values: Vec<(MetricDef, f64)>,
    notes: Vec<String>,
}

impl RunResult {
    /// Records a failed operation.
    pub fn fail(&mut self, why: String) {
        self.failures.push(why);
    }

    /// Adds a line to the human report.
    pub fn note(&mut self, line: String) {
        self.notes.push(line);
    }

    /// Sets a metric (a later value replaces an earlier one).
    pub fn set(&mut self, def: MetricDef, value: f64) {
        self.values.retain(|(d, _)| d.name != def.name);
        self.values.push((def, value));
    }

    /// Failed operations.
    pub fn failed(&self) -> u64 {
        self.failures.len() as u64
    }

    /// Checks the emitted metrics against `expected` (names and units,
    /// in any order) and that every value is a finite number.
    pub fn check_schema(&mut self, expected: &[(String, String)]) {
        for (name, unit) in expected {
            match self.values.iter().find(|(d, _)| d.name == name) {
                None => self.fail(format!("schema: metric {name} was not measured")),
                Some((d, _)) if d.unit != unit => {
                    self.fail(format!(
                        "schema: {name} has unit {}, expected {unit}",
                        d.unit
                    ));
                }
                Some((_, v)) if !v.is_finite() => {
                    self.fail(format!("schema: {name} is not a finite number"));
                }
                Some(_) => {}
            }
        }
        let extra: Vec<&str> = self
            .values
            .iter()
            .map(|(d, _)| d.name)
            .filter(|n| !expected.iter().any(|(e, _)| e == n))
            .collect();
        for name in extra {
            self.fail(format!("schema: metric {name} is not listed"));
        }
    }

    /// Prints the human report and the JSON result line. Returns the
    /// process exit code: 0 only when nothing failed.
    pub fn print(&self, title: &str) -> i32 {
        println!("# {title}");
        for note in &self.notes {
            println!("#   {note}");
        }
        println!("#   {:<38} {:>16} {:<7} domain", "metric", "value", "unit");
        for (d, v) in &self.values {
            println!("#   {:<38} {:>16.6} {:<7} {}", d.name, v, d.unit, d.domain);
        }
        let rate = self.failed() as f64 / self.attempted.max(1) as f64;
        println!(
            "#   {:<38} {:>16.6} {:<7} {}/{} operations failed",
            "error_rate",
            rate,
            "ratio",
            self.failed(),
            self.attempted
        );
        for f in self.failures.iter().take(20) {
            println!("#   FAILED: {f}");
        }
        let metrics: Vec<String> = self
            .values
            .iter()
            .map(|(d, v)| {
                let value = if v.is_finite() {
                    format!("{v}")
                } else {
                    "null".to_string()
                };
                format!(
                    "\"{}\":{{\"value\":{value},\"unit\":\"{}\"}}",
                    escape(d.name),
                    escape(d.unit)
                )
            })
            .collect();
        println!(
            "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
            self.failures.is_empty(),
            self.attempted.max(1),
            self.failed(),
            metrics.join(",")
        );
        i32::from(!self.failures.is_empty())
    }
}

/// The `(name, unit)` pairs `BENCHMARK.json` lists under `section`
/// (`end_to_end` or `per_layer`).
pub fn listed_metrics(
    benchmark_json: &str,
    section: &str,
) -> Result<Vec<(String, String)>, String> {
    let doc = parse(benchmark_json).map_err(|e| format!("BENCHMARK.json: {e}"))?;
    let list = doc
        .get(section)
        .and_then(JsonValue::as_arr)
        .ok_or_else(|| format!("BENCHMARK.json has no {section} list"))?;
    list.iter()
        .map(|m| {
            let name = m.get("name").and_then(JsonValue::as_str);
            let unit = m.get("unit").and_then(JsonValue::as_str);
            match (name, unit) {
                (Some(n), Some(u)) => Ok((n.to_string(), u.to_string())),
                _ => Err(format!(
                    "BENCHMARK.json: a {section} entry lacks name or unit"
                )),
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn schema_check_catches_missing_extra_and_mislabelled_metrics() {
        let expected = listed_metrics(
            r#"{"end_to_end":[{"name":"setup_s","unit":"s"},{"name":"accuracy","unit":"ratio"}]}"#,
            "end_to_end",
        )
        .unwrap();
        let mut ok = RunResult::default();
        ok.set(e2e::SETUP_S, 0.5);
        ok.set(e2e::ACCURACY, 0.9);
        ok.check_schema(&expected);
        assert_eq!(ok.failed(), 0);

        let mut missing = RunResult::default();
        missing.set(e2e::SETUP_S, 0.5);
        missing.set(e2e::SIM_CYCLES, 10.0);
        missing.check_schema(&expected);
        assert_eq!(missing.failed(), 2, "{:?}", missing.failures);

        let mut nan = RunResult::default();
        nan.set(e2e::SETUP_S, f64::NAN);
        nan.set(e2e::ACCURACY, 0.9);
        nan.check_schema(&expected);
        assert_eq!(nan.failed(), 1);
    }
}
