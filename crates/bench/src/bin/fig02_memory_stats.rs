//! Fig. 2 — "Queries and Memory statistics observed on PostgreSQL running
//! on AWS VM, type-t3.x_large".
//!
//! The paper's table reports, per benchmark, the working memory allocated
//! vs. the memory/disk actually used by the queries. Headline facts it
//! supports: TPCC's sorts use ~0.5 MB; YCSB and Wikipedia use none;
//! adding the complex aggregations needs ~350 MB which overflows to disk
//! at the 4 MB default `work_mem`.

use autodbaas_bench::{header, Rig};
use autodbaas_simdb::{Backend, DbFlavor, InstanceType, MetricId};
use autodbaas_telemetry::outln;
use autodbaas_workload::{by_name, AdulteratedWorkload, QuerySource};

const MIB: f64 = 1024.0 * 1024.0;

fn main() {
    header(
        "Fig. 2",
        "working-memory statistics per benchmark (PostgreSQL, t3.xlarge)",
        "TPCC ~0.5 MB of work_mem; YCSB/Wikipedia none; CH-bench and \
         adulterated TPCC demand 100s of MB and overflow to disk",
    );
    outln!(
        "{:<18} {:>14} {:>16} {:>16} {:>14}",
        "workload",
        "work_mem(MiB)",
        "mem used (MiB)",
        "disk used (MiB)",
        "sorts spilled"
    );

    let names = ["tpcc", "chbench", "ycsb", "wikipedia"];
    for name in names {
        let wl = by_name(name).expect("known workload");
        report_row(name, &wl, wl.catalog().clone());
    }
    // The paper's adulterated TPCC row (complex aggregations ≈ 350 MB).
    let adulterated = AdulteratedWorkload::new(by_name("tpcc").unwrap(), 0.5);
    let catalog = adulterated.base().catalog().clone();
    report_row("tpcc+complex-agg", &adulterated, catalog);
}

fn report_row(name: &str, wl: &dyn QuerySource, catalog: autodbaas_simdb::Catalog) {
    let mut rig = Rig::new(DbFlavor::Postgres, InstanceType::T3XLarge, catalog, 2);
    let allocated = rig
        .db
        .knobs()
        .get_named(&rig.db.profile().clone(), "work_mem");

    // Sample the workload's memory demands directly (the EXPLAIN view).
    let mut max_mem_used = 0u64;
    for _ in 0..4_000 {
        let q = wl.next_query(&mut rig.rng);
        // Memory *used* is capped by the grant; the overflow goes to disk.
        let demand = q.total_memory_demand();
        max_mem_used = max_mem_used.max(demand.min(allocated as u64));
        let _ = rig.db.submit(&q, 1);
        rig.db.tick(50);
    }
    let spilled = rig.db.metrics().get(MetricId::SortSpills)
        + rig.db.metrics().get(MetricId::MaintenanceSpills)
        + rig.db.metrics().get(MetricId::TempTableSpills);
    let disk_used = rig.db.metrics().get(MetricId::TempBytes) / MIB;
    outln!(
        "{:<18} {:>14.1} {:>16.2} {:>16.1} {:>14}",
        name,
        allocated / MIB,
        max_mem_used as f64 / MIB,
        disk_used,
        spilled as u64
    );
}
