//! Fig. 16 — chaos run: availability, MTTR and reconciler convergence
//! under the standard fault plan.
//!
//! The paper's control plane claims (§4) are about surviving partial
//! failure: slave-first applies that reject on a slave crash, a reconciler
//! that rejects half-applied recommendations back to the persisted config,
//! and services that keep serving through VM loss. This harness turns
//! those claims into numbers. A fleet (half the services HA with two
//! slaves, half single-node) runs under
//! [`InteractionPlan::standard_faults`] — VM crashes, mid-apply crashes,
//! tuner outages, telemetry blackouts, disk stalls, replica-lag spikes,
//! lost responses — and must come out the
//! other side with every service serving, zero drift, and zero wedged
//! control loops. The run is executed twice with the same seed and the
//! telemetry event-log fingerprints must match bit-for-bit: chaos here is
//! deterministic, so every failure it finds is replayable.
//!
//! Flags: `--dbs 6 --minutes 45 --seed 42 --backend pageheap` (defaults
//! shown; `--backend lsm` runs the same fault plan against the LSM
//! adapter — self-healing is a property of the control plane, not of the
//! engine profile underneath it). With `--resume <snapshot>` the first
//! run crosses a save/reload boundary at the halfway mark and must still
//! match the uninterrupted replay bit-for-bit.

use autodbaas_bench::{arg_value, backend_arg, checkpoint_roundtrip, header, resume_arg, NodeSpec};
use autodbaas_cloudsim::{FleetConfig, FleetSim, InteractionPlan, RollbackPolicy};
use autodbaas_core::{TdeConfig, TuningPolicy};
use autodbaas_ctrlplane::TunerKind;
use autodbaas_simdb::{DbFlavor, InstanceType};
use autodbaas_telemetry::outln;
use autodbaas_telemetry::MILLIS_PER_MIN;
use autodbaas_tuner::WorkloadId;
use autodbaas_workload::{tpcc, ycsb, ArrivalProcess, QuerySource};

/// What one chaos run produced.
struct ChaosSummary {
    fingerprint: u64,
    availability: f64,
    faults: usize,
    recoveries: usize,
    reconciliations: u64,
    failovers: usize,
    failover_mttr_ms: Option<f64>,
    restart_mttr_ms: Option<f64>,
    reconcile_mttr_ms: Option<f64>,
    timeouts: usize,
    retries: usize,
    stale_dropped: usize,
    rollbacks: usize,
    wedged: Vec<usize>,
    drifted: Vec<usize>,
}

fn run_once(
    n_dbs: usize,
    minutes: u64,
    seed: u64,
    flavor: DbFlavor,
    plan: InteractionPlan,
    checkpoint: Option<&std::path::Path>,
) -> ChaosSummary {
    let mut sim = FleetSim::new(
        FleetConfig {
            tick_ms: 1_000,
            tde_period_ms: 5 * MILLIS_PER_MIN,
            gate_samples_with_tde: false,
            tuner: TunerKind::Bo,
            seed,
            rollback: Some(RollbackPolicy::default()),
            // Tight enough that the standard plan's 2-minute tuner outage
            // actually exercises the timeout/retry/stale-drop machinery.
            request_timeout_ms: 90_000,
            retry_base_ms: 15_000,
            ..FleetConfig::default()
        },
        4,
    );
    sim.seed_offline_training(&tpcc(1.0), flavor, 12);
    for i in 0..n_dbs {
        let (workload, arrival): (Box<dyn QuerySource + Send>, _) = if i % 2 == 0 {
            (Box::new(ycsb(1.0)), ArrivalProcess::Constant(250.0))
        } else {
            (Box::new(tpcc(1.0)), ArrivalProcess::Constant(200.0))
        };
        let catalog = if i % 2 == 0 {
            ycsb(1.0).catalog().clone()
        } else {
            tpcc(1.0).catalog().clone()
        };
        let mut node = NodeSpec::new(flavor, InstanceType::M4Large).managed(
            catalog,
            workload,
            arrival,
            TuningPolicy::Periodic(5 * MILLIS_PER_MIN),
            WorkloadId(0),
            TdeConfig::default(),
            seed ^ (i as u64).wrapping_mul(0x45d9),
        );
        if i % 2 == 1 {
            // HA half of the fleet, on odd indices: against the standard
            // rotation this lands mid-apply master crashes and lag spikes
            // on replicated services (where they bite) and VM crashes on
            // both kinds (failover vs. single-node restart).
            node = node.with_slaves(2);
        }
        sim.add_node(node, &format!("db-{i}"));
    }
    sim.enable_plan(plan);
    // With --resume, cross a serialize/deserialize boundary mid-chaos;
    // the caller's fingerprint comparison against an uninterrupted run
    // then proves the snapshot carried the complete fleet state.
    sim.run_for(minutes / 2 * MILLIS_PER_MIN);
    if let Some(path) = checkpoint {
        sim = checkpoint_roundtrip(sim, path);
    }
    sim.run_for((minutes - minutes / 2) * MILLIS_PER_MIN);
    // Quiet-down: long enough for every in-flight recovery, backoff retry
    // and watcher timeout to resolve — the no-wedge check below is strict.
    sim.run_for(10 * MILLIS_PER_MIN);

    let ev = &sim.events;
    ChaosSummary {
        fingerprint: ev.fingerprint(),
        availability: sim.availability(),
        faults: ev.count_prefix("fault."),
        recoveries: ev.count_prefix("recover."),
        reconciliations: sim.reconciliations(),
        failovers: ev.count("recover.failover"),
        failover_mttr_ms: ev.mean_gap_ms("fault.vm_crash", "recover.failover"),
        restart_mttr_ms: ev.mean_gap_ms("fault.vm_crash", "recover.restarted"),
        reconcile_mttr_ms: ev.mean_gap_ms("apply.master_crashed", "recover.reconciled"),
        timeouts: ev.count("request.timeout"),
        retries: ev.count("request.retry"),
        stale_dropped: ev.count("request.stale_dropped"),
        rollbacks: ev.count("tune.rollback"),
        wedged: sim.wedged_nodes(),
        drifted: sim.drifted_nodes(),
    }
}

fn fmt_mttr(v: Option<f64>) -> String {
    v.map_or_else(|| "-".into(), |ms| format!("{:.1}", ms / 1000.0))
}

fn main() {
    let n_dbs: usize = arg_value("--dbs").map(|v| v.parse().unwrap()).unwrap_or(5);
    let minutes: u64 = arg_value("--minutes")
        .map(|v| v.parse().unwrap())
        .unwrap_or(45);
    let seed: u64 = arg_value("--seed")
        .map(|v| v.parse().unwrap())
        .unwrap_or(42);
    let flavor = backend_arg();
    header(
        "Fig. 16",
        &format!(
            "chaos run, {n_dbs} {flavor} services ({} HA) over {minutes} min + 10 min quiet-down",
            n_dbs / 2
        ),
        "every service serving at the end, zero config drift, zero wedged \
         control loops, and a bit-for-bit reproducible event log",
    );

    let resume = resume_arg();
    if let Some(path) = &resume {
        outln!("checkpointing run A through {}", path.display());
    }
    let standard = InteractionPlan::standard_faults(n_dbs, minutes * MILLIS_PER_MIN);
    let a = run_once(
        n_dbs,
        minutes,
        seed,
        flavor,
        standard.clone(),
        resume.as_deref(),
    );
    let b = run_once(n_dbs, minutes, seed, flavor, standard, None);

    outln!("\n{:<34} {:>14}", "metric", "value");
    outln!("{:<34} {:>14.5}", "availability (fleet)", a.availability);
    outln!("{:<34} {:>14}", "faults injected", a.faults);
    outln!("{:<34} {:>14}", "recovery events", a.recoveries);
    outln!("{:<34} {:>14}", "  of which failovers", a.failovers);
    outln!("{:<34} {:>14}", "reconciliations", a.reconciliations);
    outln!(
        "{:<34} {:>14}",
        "failover MTTR (s)",
        fmt_mttr(a.failover_mttr_ms)
    );
    outln!(
        "{:<34} {:>14}",
        "single-node restart MTTR (s)",
        fmt_mttr(a.restart_mttr_ms)
    );
    outln!(
        "{:<34} {:>14}",
        "mid-apply crash -> reconciled (s)",
        fmt_mttr(a.reconcile_mttr_ms)
    );
    outln!("{:<34} {:>14}", "request timeouts", a.timeouts);
    outln!("{:<34} {:>14}", "request retries", a.retries);
    outln!("{:<34} {:>14}", "stale responses dropped", a.stale_dropped);
    outln!("{:<34} {:>14}", "safety rollbacks", a.rollbacks);
    outln!("{:<34} {:>14}", "wedged services at end", a.wedged.len());
    outln!("{:<34} {:>14}", "drifted services at end", a.drifted.len());
    outln!("{:<34} {:>14x}", "event-log fingerprint", a.fingerprint);

    assert!(a.faults > 0, "the plan must actually inject faults");
    assert!(
        a.recoveries > 0,
        "faults without recovery events mean the control plane slept through them"
    );
    assert!(
        a.wedged.is_empty(),
        "wedged services {:?} — the retry/recovery machinery stalled",
        a.wedged
    );
    assert!(
        a.drifted.is_empty(),
        "drifted services {:?} — the reconciler failed to converge",
        a.drifted
    );
    assert!(
        a.availability > 0.95,
        "availability {} too low for this fault plan",
        a.availability
    );
    assert_eq!(
        a.fingerprint, b.fingerprint,
        "same seed + same plan must replay bit-for-bit"
    );
    assert_eq!(a.availability, b.availability);
    let c = run_once(
        n_dbs,
        minutes,
        seed,
        flavor,
        InteractionPlan::random_faults(seed ^ 1, n_dbs, minutes * MILLIS_PER_MIN, 16),
        None,
    );
    assert_ne!(
        a.fingerprint, c.fingerprint,
        "a different fault plan must perturb the event log"
    );
    assert!(
        c.wedged.is_empty() && c.drifted.is_empty(),
        "the seeded random plan must also heal: wedged {:?} drifted {:?}",
        c.wedged,
        c.drifted
    );
    outln!(
        "\nresult: survived the standard fault plan with a replayable event \
         log — self-healing shape reproduced."
    );
}
