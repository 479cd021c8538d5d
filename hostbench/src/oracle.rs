//! Result oracles. Every check runs outside the timed region; a
//! mismatch counts as a failed operation.
//!
//! * Batch jobs: each replica's energy, sweep count, flip count and
//!   final spins equal the golden `CpuReferenceSolver` run with the
//!   same replica seed.
//! * Serve jobs: each daemon response equals `JobPlan::run_solo` of the
//!   same spec in-process.
//! * Every job: the simulated figures of a repeated pass repeat exactly.

use crate::jobs::JobInputs;
use sachi_core::prelude::JobOutcome;
use sachi_ising::prelude::{EnsembleRunner, Spin};
use sachi_obs::json::{parse, JsonValue};

/// The deterministic fingerprint of a job outcome: what must repeat
/// exactly from pass to pass and run to run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JobSummary {
    /// Per-replica `(energy, sweeps, flips)`.
    pub replicas: Vec<(i64, u64, u64)>,
    /// Winning replica.
    pub best_index: usize,
    /// Simulated cycles summed over replicas.
    pub cycles: u64,
    /// Simulated energy in picojoules (bit pattern, for exact equality).
    pub energy_pj_bits: u64,
    /// Domain accuracy of the best replica (bit pattern).
    pub accuracy_bits: u64,
    /// Spin updates: fast-path plus scalar-path computes over replicas.
    pub updates: u64,
}

impl JobSummary {
    /// Fingerprints `outcome`.
    pub fn of(outcome: &JobOutcome) -> JobSummary {
        JobSummary {
            replicas: outcome
                .best
                .replicas
                .iter()
                .map(|r| (r.energy, r.sweeps, r.flips))
                .collect(),
            best_index: outcome.best.best_index,
            cycles: outcome.report.serial_cycles.get(),
            energy_pj_bits: outcome.report.energy.total().get().to_bits(),
            accuracy_bits: outcome.accuracy.to_bits(),
            updates: updates_of(outcome),
        }
    }

    /// Simulated energy in microjoules.
    pub fn energy_uj(&self) -> f64 {
        f64::from_bits(self.energy_pj_bits) / 1e6
    }

    /// Domain accuracy.
    pub fn accuracy(&self) -> f64 {
        f64::from_bits(self.accuracy_bits)
    }
}

/// Spin updates a job's replicas performed.
pub fn updates_of(outcome: &JobOutcome) -> u64 {
    outcome
        .report
        .reports
        .iter()
        .map(|r| r.fast_path_computes + r.scalar_path_computes)
        .sum()
}

/// Checks every replica of `outcome` against the golden solver run on
/// the same graph, initial spins and replica seeds.
pub fn check_golden(
    inputs: &JobInputs,
    outcome: &JobOutcome,
    threads: usize,
) -> Result<(), String> {
    let replicas = outcome.best.replicas.len();
    let golden = EnsembleRunner::new(replicas)
        .with_threads(threads)
        .run_reference(&inputs.problem.graph, &inputs.init, &inputs.options);
    for (k, (hw, gold)) in outcome
        .best
        .replicas
        .iter()
        .zip(&golden.replicas)
        .enumerate()
    {
        if (hw.energy, hw.sweeps, hw.flips) != (gold.energy, gold.sweeps, gold.flips)
            || hw.spins != gold.spins
        {
            return Err(format!(
                "replica {k}: machine (H={}, sweeps={}, flips={}) != golden (H={}, sweeps={}, flips={})",
                hw.energy, hw.sweeps, hw.flips, gold.energy, gold.sweeps, gold.flips
            ));
        }
    }
    if golden.replicas.len() != replicas {
        return Err("golden ran a different replica count".to_string());
    }
    Ok(())
}

/// Checks a daemon solve response against the in-process outcome of the
/// same spec, field by field.
pub fn check_response(body: &str, expected: &JobOutcome) -> Result<(), String> {
    let doc = parse(body).map_err(|e| format!("response is not JSON: {e}"))?;
    if str_at(&doc, &["status"]) != Some("ok") {
        return Err(format!("error response: {body}"));
    }
    let best = expected.best.best();
    let spins: String = best
        .spins
        .iter()
        .map(|s| if s == Spin::Up { '+' } else { '-' })
        .collect();
    let best_report = expected.report.reports.get(expected.best.best_index);
    let numbers: [(&[&str], f64); 9] = [
        (&["result", "energy"], best.energy as f64),
        (&["result", "sweeps"], best.sweeps as f64),
        (&["result", "flips"], best.flips as f64),
        (&["result", "best_replica"], expected.best.best_index as f64),
        (
            &["ensemble", "total_sweeps"],
            expected.best.stats.total_sweeps as f64,
        ),
        (
            &["report", "total_cycles"],
            best_report.map_or(0, |r| r.total_cycles.get()) as f64,
        ),
        (
            &["report", "serial_cycles"],
            expected.report.serial_cycles.get() as f64,
        ),
        (
            &["report", "faults_detected"],
            expected.report.faults_detected as f64,
        ),
        (&["accuracy"], expected.accuracy),
    ];
    for (path, want) in numbers {
        let got = num_at(&doc, path);
        if got != Some(want) {
            return Err(format!(
                "{}: daemon {got:?} != in-process {want}",
                path.join(".")
            ));
        }
    }
    if str_at(&doc, &["result", "spins"]) != Some(spins.as_str()) {
        return Err("result.spins differ from the in-process run".to_string());
    }
    Ok(())
}

fn at<'a>(doc: &'a JsonValue, path: &[&str]) -> Option<&'a JsonValue> {
    path.iter().try_fold(doc, |v, key| v.get(key))
}

fn num_at(doc: &JsonValue, path: &[&str]) -> Option<f64> {
    at(doc, path).and_then(JsonValue::as_num)
}

fn str_at<'a>(doc: &'a JsonValue, path: &[&str]) -> Option<&'a str> {
    at(doc, path).and_then(JsonValue::as_str)
}

#[cfg(test)]
mod tests {
    use super::*;
    use sachi_core::prelude::{DesignKind, JobPlan, JobSpec};
    use sachi_workloads::prelude::CopKind;

    fn spec() -> JobSpec {
        JobSpec {
            cop: CopKind::MolecularDynamics,
            size: 36,
            seed: 11,
            design: DesignKind::N2,
            restarts: 2,
            ..JobSpec::default()
        }
    }

    /// A response body with the fields the daemon writes for `outcome`.
    fn response_for(outcome: &JobOutcome) -> String {
        let best = outcome.best.best();
        let spins: String = best
            .spins
            .iter()
            .map(|s| if s == Spin::Up { '+' } else { '-' })
            .collect();
        let best_report = &outcome.report.reports[outcome.best.best_index];
        format!(
            "{{\"status\":\"ok\",\"result\":{{\"energy\":{},\"sweeps\":{},\"flips\":{},\
             \"best_replica\":{},\"spins\":\"{spins}\"}},\"ensemble\":{{\"total_sweeps\":{}}},\
             \"report\":{{\"total_cycles\":{},\"serial_cycles\":{},\"faults_detected\":{}}},\
             \"accuracy\":{}}}",
            best.energy,
            best.sweeps,
            best.flips,
            outcome.best.best_index,
            outcome.best.stats.total_sweeps,
            best_report.total_cycles.get(),
            outcome.report.serial_cycles.get(),
            outcome.report.faults_detected,
            outcome.accuracy,
        )
    }

    #[test]
    fn matching_response_passes_and_a_perturbed_expectation_is_caught() {
        let plan = JobPlan::from_spec(&spec()).unwrap();
        let outcome = plan.run_solo();
        let body = response_for(&outcome);
        check_response(&body, &outcome).unwrap();

        let mut perturbed = plan.run_solo();
        perturbed.best.replicas[perturbed.best.best_index].energy += 2;
        let err = check_response(&body, &perturbed).unwrap_err();
        assert!(err.contains("result.energy"), "{err}");

        let mut perturbed = plan.run_solo();
        perturbed.accuracy = f64::from_bits(perturbed.accuracy.to_bits() ^ 1);
        assert!(check_response(&body, &perturbed).is_err());

        let error = "{\"status\":\"error\",\"code\":5}";
        assert!(check_response(error, &outcome).is_err());
    }

    #[test]
    fn golden_oracle_accepts_the_machine_and_catches_a_perturbed_replica() {
        let spec = spec();
        let inputs = JobInputs::new(&spec).unwrap();
        let mut outcome = JobPlan::from_spec(&spec).unwrap().run_solo();
        check_golden(&inputs, &outcome, 2).unwrap();
        outcome.best.replicas[1].sweeps += 1;
        let err = check_golden(&inputs, &outcome, 2).unwrap_err();
        assert!(err.starts_with("replica 1"), "{err}");
    }

    #[test]
    fn summaries_repeat_exactly_and_see_a_changed_count() {
        let plan = JobPlan::from_spec(&spec()).unwrap();
        let a = JobSummary::of(&plan.run_solo());
        let mut b = JobSummary::of(&plan.run_solo());
        assert_eq!(a, b);
        assert!(a.updates > 0 && a.cycles > 0);
        b.cycles += 1;
        assert_ne!(a, b);
    }
}
