//! Command implementations for the `sachi` CLI.

use crate::args::{EstimateArgs, MetricsFormat, SolveArgs};
use sachi_baselines::prelude::*;
use sachi_bench::{percent, ratio, Table};
use sachi_core::prelude::*;
use sachi_ising::prelude::*;
use sachi_mem::l1cache::{CacheMode, L1Cache};
use sachi_mem::prelude::*;
use sachi_obs::prelude::*;
use sachi_workloads::prelude::*;

/// Builds the problem a run solves and reports whether it carries a
/// domain scorer (an arbitrary signed graph from a file has none; its
/// placeholder scorer is never printed).
fn build_problem(args: &SolveArgs) -> Result<(CopProblem, bool), SachiError> {
    if let Some(kind) = args.cop() {
        // Generated COPs come from the shared session layer, so `sachi
        // solve` and a `sachi serve` job with the same spec build the
        // exact same instance.
        let job = &args.job;
        return Ok((build_cop_problem(kind, job.size, job.seed)?, true));
    }
    let path = args
        .file
        .as_ref()
        .ok_or_else(|| SachiError::Usage("need --cop or --file".to_string()))?;
    let text = std::fs::read_to_string(path)
        .map_err(|e| SachiError::Io(format!("cannot read {path}: {e}")))?;
    fn scored<W: Workload + Send + Sync + 'static>(w: W) -> (CopProblem, bool) {
        let problem = CopProblem {
            name: w.name(),
            graph: w.graph().clone(),
            accuracy: Box::new(move |s| w.accuracy(s)),
        };
        (problem, true)
    }
    if args.cnf {
        let instance =
            parse_dimacs_cnf(&text).map_err(|e| SachiError::Parse(format!("{path}: {e}")))?;
        let w = SatWorkload::new(path.clone(), instance)
            .map_err(|e| SachiError::Config(format!("{path}: {e}")))?;
        return Ok(scored(w));
    }
    let graph = if args.gset {
        parse_gset(&text).map_err(|e| SachiError::Parse(format!("{path}: {e}")))?
    } else {
        parse_dimacs(&text).map_err(|e| SachiError::Parse(format!("{path}: {e}")))?
    };
    // A pure antiferromagnetic instance reads as weighted max-cut,
    // which gives loaded files an accuracy metric.
    if graph.num_edges() > 0 && graph.edges().all(|(_, _, w)| w <= 0) {
        return Ok(scored(GenericMaxCut::new(path.clone(), graph)));
    }
    let problem = CopProblem {
        name: path.clone(),
        graph,
        accuracy: Box::new(|_| 0.0),
    };
    Ok((problem, false))
}

/// Lowers `job` over the run's problem through the one job path the
/// daemon also uses ([`JobPlan::from_problem`]); the cache hierarchy
/// and phase tracing are host-only settings on the base config.
fn plan_for(args: &SolveArgs, job: &JobSpec) -> Result<(JobPlan, bool), SachiError> {
    let (problem, scored) = build_problem(args)?;
    let mut base = SachiConfig::default().with_hierarchy(args.hierarchy);
    if args.trace_phases {
        base = base.with_phase_trace();
    }
    Ok((JobPlan::from_problem(job, problem, base)?, scored))
}

/// `sachi solve`.
pub fn solve(args: &SolveArgs) -> Result<(), SachiError> {
    let job = &args.job;
    let (plan, scored) = plan_for(args, job)?;
    let graph = plan.graph();
    // --metrics replaces the whole human report with one machine-readable
    // snapshot, so scripts can pipe stdout straight into a parser.
    let human = args.metrics.is_none();
    if human {
        println!(
            "problem : {} ({} spins, {} edges, max degree {}, needs {}-bit ICs)",
            plan.name(),
            graph.num_spins(),
            graph.num_edges(),
            graph.max_degree(),
            graph.bits_required()
        );
    }
    let threads = if args.threads == 0 {
        EnsembleRunner::available_threads()
    } else {
        args.threads
    };
    // SACHI repurposes the host's L1 data array as the compute substrate
    // (Sec. VII.1): claim it around the ensemble so the exported l1_*
    // metrics carry the real mode-switch and flush accounting of that
    // handover.
    let mut l1 = L1Cache::typical_l1();
    l1.set_mode(CacheMode::IsingCompute);
    let outcome = plan.run_threaded(threads);
    l1.set_mode(CacheMode::Normal);
    let stats = &outcome.best.stats;
    let best_index = outcome.best.best_index;
    let report = &outcome.report.reports[best_index];

    if let Some(format) = args.metrics {
        // Fold order is replica order, never completion order, so the
        // snapshot is identical at any --threads value.
        let mut reg = outcome.metrics();
        l1.stats().export(&mut reg);
        reg.counter_add(
            "workload_coeff_saturations",
            sachi_workloads::encode::saturation_count(),
        );
        match format {
            MetricsFormat::Json => print!("{}", write_snapshot(&reg, &report.phase_spans)),
            MetricsFormat::Prom => print!("{}", write_exposition(&reg)),
        }
    }

    if human {
        let result = outcome.best.best();
        let ensemble = &outcome.report;
        println!("design  : {}", report.design.label());
        println!(
            "ensemble: {} replicas over {} threads (best: replica {}, {} converged, {} sweeps total)",
            plan.replica_count(),
            threads,
            best_index,
            stats.converged,
            stats.total_sweeps
        );
        if job.tempering {
            println!(
                "temper  : {} ladder, {} swaps accepted / {} attempted, {} rung restarts",
                job.ladder.label(),
                stats.swap_accepted,
                stats.swap_attempts,
                stats.tempering_restarts
            );
        }
        println!(
            "result  : H = {}  ({} iterations, converged: {})",
            result.energy, result.sweeps, result.converged
        );
        if scored {
            println!("accuracy: {}", percent(outcome.accuracy));
        }
        if job.fault_ber.is_some() {
            println!(
                "faults  : {} injected, {} detected, {} retries, {}/{} replicas degraded ({})",
                ensemble.faults_injected,
                ensemble.faults_detected,
                ensemble.fault_retries,
                ensemble.degraded_replicas,
                plan.replica_count(),
                job.fault_policy
            );
        }
        println!(
            "cycles  : {} total ({} compute, {} loading, {} rounds/iter)",
            report.total_cycles.get(),
            report.compute_cycles.get(),
            report.load_cycles.get(),
            report.rounds_per_sweep
        );
        println!(
            "time    : {}  energy: {}  reuse: {:.1}",
            report.wall_time,
            report.energy.total(),
            report.reuse
        );
        let mut breakdown = Table::new(["component", "energy"]);
        for (c, e) in report.energy.iter() {
            breakdown.row([c.label().to_string(), format!("{e}")]);
        }
        breakdown.print();
        if args.trace_phases && !report.phase_spans.is_empty() {
            println!("phases  : (best replica, cycle domain)");
            print!("{}", render_span_tree(&report.phase_spans));
        }
    }
    // Fault outcomes surface as typed errors (exit code 4) so sweep
    // scripts can tell "solved despite faults" from "gave up".
    outcome.fault_error(job.fault_policy).map_or(Ok(()), Err)
}

/// `sachi compare`.
pub fn compare(args: &SolveArgs) -> Result<(), SachiError> {
    if args.job.fault_ber.is_some() {
        return Err(SachiError::Config(
            "compare cross-checks machines against the golden model and needs a perfect \
             memory hierarchy; drop --fault-ber (use solve for fault sweeps)"
                .to_string(),
        ));
    }
    // Every machine runs one plain anneal from the plan's start state.
    let job = JobSpec {
        tempering: false,
        ..args.job.clone()
    };
    let (plan, _) = plan_for(args, &job)?;
    let (graph, init, opts) = (plan.graph(), plan.init(), plan.options());
    println!("problem: {} ({} spins)", plan.name(), graph.num_spins());

    let golden = CpuReferenceSolver::new().solve(graph, init, opts);
    let mut table = Table::new(["machine", "H", "iters", "cycles", "energy", "reuse"]);
    for design in DesignKind::ALL {
        let config = SachiConfig {
            design,
            ..plan.config().clone()
        };
        let (result, report) = SachiMachine::new(config).solve_detailed(graph, init, opts);
        assert_eq!(
            result.energy, golden.energy,
            "machines must match the golden model"
        );
        table.row([
            design.label().to_string(),
            result.energy.to_string(),
            result.sweeps.to_string(),
            report.total_cycles.get().to_string(),
            format!("{}", report.energy.total()),
            format!("{:.1}", report.reuse),
        ]);
    }
    match BrimMachine::new().solve_detailed(graph, init, opts) {
        Ok((result, report)) => {
            table.row([
                "BRIM".to_string(),
                result.energy.to_string(),
                result.sweeps.to_string(),
                report.total_cycles.get().to_string(),
                format!("{}", report.energy.total()),
                format!("{:.1}", report.reuse),
            ]);
        }
        Err(e) => println!("BRIM skipped: {e}"),
    }
    match CimMachine::new().solve_detailed(graph, init, opts) {
        Ok((result, report)) => {
            table.row([
                "Ising-CIM".to_string(),
                result.energy.to_string(),
                result.sweeps.to_string(),
                report.total_cycles.get().to_string(),
                format!("{}", report.energy.total()),
                format!("{:.1}", report.reuse),
            ]);
        }
        Err(e) => println!("Ising-CIM skipped: {e}"),
    }
    table.row([
        "CPU golden".to_string(),
        golden.energy.to_string(),
        golden.sweeps.to_string(),
        "-".to_string(),
        "-".to_string(),
        "-".to_string(),
    ]);
    table.print();
    Ok(())
}

/// `sachi estimate`.
pub fn estimate(args: &EstimateArgs) -> Result<(), SachiError> {
    let mut config = SachiConfig::new(args.design).with_hierarchy(args.hierarchy);
    if let Some(r) = args.resolution {
        config = config.with_resolution(r);
    }
    let mut shape = args.cop.standard_shape(args.spins);
    if let Some(r) = args.resolution {
        shape = shape.with_resolution(r);
    }
    let model = PerfModel::new(config);
    let iter = model.iteration(&shape);
    let solve = model.solve(&shape, args.iterations);
    println!(
        "shape    : {} at {} spins (N = {}, R = {})",
        args.cop, shape.spins, shape.neighbors_per_spin, shape.resolution_bits
    );
    println!("design   : {}", args.design.label());
    println!(
        "per iter : {} cycles effective ({} compute, {} load, {} rounds, reuse {})",
        iter.effective_cycles.get(),
        iter.compute_cycles.get(),
        iter.load_cycles.get(),
        iter.rounds,
        iter.reuse
    );
    println!(
        "residency: {} in compute array, DRAM streaming: {}",
        if iter.fits_in_compute {
            "fits"
        } else {
            "overflows"
        },
        if iter.uses_dram { "yes" } else { "no" }
    );
    println!(
        "solve    : {} iterations -> {} cycles, {}, {}",
        args.iterations,
        solve.total_cycles.get(),
        solve.wall_time,
        solve.energy.total()
    );
    let base = PerfModel::new(SachiConfig::new(DesignKind::N1a).with_hierarchy(args.hierarchy));
    println!(
        "vs n1a   : {} speedup per iteration",
        ratio(
            base.iteration(&shape).effective_cycles.get() as f64,
            iter.effective_cycles.get() as f64
        )
    );
    Ok(())
}

/// `sachi info`.
pub fn info() {
    let tech = TechnologyParams::freepdk45();
    println!("SACHI simulator — paper configuration (HPCA 2024, Sec. V)");
    println!();
    for (name, h) in [
        ("default (10KB/160KB)", CacheHierarchy::hpca_default()),
        ("desktop (64KB/1MB)", CacheHierarchy::desktop()),
        ("server (256KB/8MB)", CacheHierarchy::server()),
    ] {
        println!(
            "hierarchy {name}: compute {} tiles x {} rows x {} bits ({}), storage {} ({} ports)",
            h.compute.tiles(),
            h.compute.rows_per_tile(),
            h.compute.row_bits(),
            h.compute.total_bits(),
            h.storage.total_bits(),
            h.storage.read_ports()
        );
    }
    println!();
    println!(
        "technology: {} V, {} cycle, {} array latency",
        tech.vdd_volts, tech.cycle_time, tech.sram_array_latency
    );
    println!(
        "energy    : RWL {}/bit, RBL {}/bit, movement {}/bit, adder {}/bit",
        tech.rwl_energy_per_bit(),
        tech.rbl_energy_per_bit(),
        tech.movement_energy_per_bit(),
        tech.adder_energy_per_bit()
    );
    println!("designs   : n1a/n1b (spin stationary), n2 (IC stationary), n3 (mixed, reuse N*R)");
}
