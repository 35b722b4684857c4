//! Fig. 14 + Table 1 — "Throttles captured when tuner is Ottertune":
//! throttles detected upon change of the executing workload.
//!
//! Table 1's six experiments switch between standard workloads loaded on
//! one m4.xlarge PostgreSQL instance (22 GB TPCC, 18.34 GB YCSB, 16 GB
//! Twitter, 20.2 GB Wikipedia) and record which knob classes throttle in
//! the minutes after the switch. Expectations per Table 1:
//! #1 YCSB→TPCC: background-writer (+async); #2 TPCC→YCSB: memory+async;
//! #3 YCSB→Wiki: async; #4 Wiki→YCSB: (none); #5 TPCC→Twitter:
//! memory+async; #6 Twitter→TPCC: background-writer.

use autodbaas_bench::{header, seed_offline, Rig};
use autodbaas_core::{Tde, TdeConfig};
use autodbaas_simdb::{Backend, Catalog, DbFlavor, InstanceType, KnobClass};
use autodbaas_telemetry::outln;
use autodbaas_tuner::WorkloadRepository;
use autodbaas_workload::{by_name, MixWorkload};

/// Rate each workload runs at in this experiment (scaled down uniformly so
/// an m4.xlarge isn't saturated by twitter's 10k rps).
fn rate_for(name: &str) -> u64 {
    match name {
        "tpcc" => 1_600,
        "ycsb" => 2_500,
        "twitter" => 4_000,
        "wikipedia" => 500,
        _ => 500,
    }
}

/// Paper sizes for Table 1 (GB).
fn size_for(name: &str) -> f64 {
    match name {
        "tpcc" => 22.0,
        "ycsb" => 18.34,
        "twitter" => 16.0,
        "wikipedia" => 20.2,
        _ => 20.0,
    }
}

struct Outcome {
    throttles_after: u64,
    classes: Vec<&'static str>,
    detected_in_windows: Option<usize>,
}

fn run_switch(from: &str, to: &str, repo: &WorkloadRepository, seed: u64) -> Outcome {
    // Both datasets loaded on one instance; the "to" workload is rebased
    // onto the second half of the catalog.
    let mut wl_from = by_name(from).expect("known workload");
    let mut wl_to = by_name(to).expect("known workload");
    rebuild_at_size(&mut wl_from, size_for(from));
    rebuild_at_size(&mut wl_to, size_for(to));
    let mut catalog = Catalog::new();
    for t in wl_from.catalog().clone().iter() {
        catalog.add_table(format!("{from}_{}", t.name), t.rows, t.row_bytes, t.indexes);
    }
    let offset = catalog.len() as u32;
    for t in wl_to.catalog().clone().iter() {
        catalog.add_table(format!("{to}_{}", t.name), t.rows, t.row_bytes, t.indexes);
    }
    wl_to.rebase_tables(offset);

    let mut rig = Rig::new(DbFlavor::Postgres, InstanceType::M4XLarge, catalog, seed);
    let roles = rig.db.planner().roles().clone();
    rig.db
        .set_knob_direct(roles.buffer_pool, InstanceType::M4XLarge.mem_bytes() * 0.25);
    let mut tde = Tde::new(&rig.db.profile().clone(), TdeConfig::default(), seed ^ 1);

    // Phase A: settle on the "from" workload.
    for _ in 0..12 {
        rig.drive(&wl_from, rate_for(from), 60, 24);
        let _ = tde.run(&mut rig.db, Some(repo));
    }
    // Phase B: the switch (unannounced to the TDE, as in production).
    let before = tde.throttle_counts();
    let mut detected_in = None;
    let mut classes = std::collections::BTreeSet::new();
    // Table 1's windows are 5–7 min; we observe nine 60 s windows so the
    // MDP (2–4 min cadence) gets several probes at the new pattern.
    for w in 0..9 {
        rig.drive(&wl_to, rate_for(to), 60, 24);
        let report = tde.run(&mut rig.db, Some(repo));
        if !report.throttles.is_empty() && detected_in.is_none() {
            detected_in = Some(w + 1);
        }
        for t in &report.throttles {
            classes.insert(match t.class {
                KnobClass::Memory => "memory",
                KnobClass::BackgroundWriter => "bgwriter",
                KnobClass::AsyncPlanner => "async/planner",
            });
        }
    }
    let after = tde.throttle_counts();
    Outcome {
        throttles_after: (0..3).map(|k| after[k] - before[k]).sum(),
        classes: classes.into_iter().collect(),
        detected_in_windows: detected_in,
    }
}

fn rebuild_at_size(wl: &mut MixWorkload, gb: f64) {
    // The by_name sizes differ from Table 1's; rebuild at the table's GB.
    let name = wl.name();
    *wl = match name {
        "tpcc" => autodbaas_workload::tpcc(gb),
        "ycsb" => autodbaas_workload::ycsb(gb),
        "twitter" => autodbaas_workload::twitter(gb),
        "wikipedia" => autodbaas_workload::wikipedia(gb),
        _ => return,
    };
}

fn main() {
    header(
        "Fig. 14 / Table 1",
        "throttles captured on workload switches (PostgreSQL, m4.xlarge)",
        "#1 ycsb->tpcc: bgwriter; #2 tpcc->ycsb: memory+async; #3 ycsb->wiki: \
         async; #4 wiki->ycsb: none/low; #5 tpcc->twitter: memory+async; \
         #6 twitter->tpcc: bgwriter",
    );
    let mut repo = WorkloadRepository::new();
    seed_offline(
        &mut repo,
        &autodbaas_workload::tpcc(2.0),
        DbFlavor::Postgres,
        10,
        7,
    );

    let experiments = [
        ("#1", "ycsb", "tpcc"),
        ("#2", "tpcc", "ycsb"),
        ("#3", "ycsb", "wikipedia"),
        ("#4", "wikipedia", "ycsb"),
        ("#5", "tpcc", "twitter"),
        ("#6", "twitter", "tpcc"),
    ];
    outln!(
        "\n{:<4} {:<22} {:>10} {:>12}  classes",
        "exp",
        "switch",
        "throttles",
        "detected in"
    );
    let mut any_detected = 0;
    for (id, from, to) in experiments {
        let o = run_switch(from, to, &repo, 0x14);
        if o.detected_in_windows.is_some() {
            any_detected += 1;
        }
        let switch = format!("{from} -> {to}");
        let detected = o
            .detected_in_windows
            .map_or_else(|| "-".to_string(), |w| format!("window {w}"));
        let classes = if o.classes.is_empty() {
            "-".to_string()
        } else {
            o.classes.join(", ")
        };
        outln!(
            "{:<4} {:<22} {:>10} {:>12}  {}",
            id,
            switch,
            o.throttles_after,
            detected,
            classes
        );
    }
    assert!(
        any_detected >= 4,
        "most switches must be detected ({any_detected}/6)"
    );
    outln!(
        "\nresult: workload switches surface as throttles within a few \
         observation windows — shape reproduced."
    );
}
