//! Fig. 7 — "IOPS graph for TPCC execution": applying configs via reload
//! signals vs. not applying any, on tuned MySQL.
//!
//! The paper runs TPCC twice on a tuned MySQL: once without any config
//! reloads, once firing a reload signal every 20 seconds. Expectation:
//! "even with this high frequency of reloads, the performance is not
//! compromised" — the IOPS curves are indistinguishable. As an ablation we
//! also show the alternative §4 mechanism, socket activation, which *does*
//! dent the curve.

use autodbaas_bench::{header, sparkline, Rig};
use autodbaas_simdb::{ApplyMode, Backend, DbFlavor, InstanceType, MetricId};
use autodbaas_telemetry::{outln, TimeSeries};
use autodbaas_workload::tpcc;

fn run(mode: Option<ApplyMode>) -> (Vec<f64>, f64, f64) {
    let wl = tpcc(10.0);
    let mut rig = Rig::new(
        DbFlavor::MySql,
        InstanceType::M4XLarge,
        wl.catalog().clone(),
        8,
    );
    let p = rig.db.profile().clone();
    // "Tuned MySQL": sane buffers and calm flushing.
    rig.db
        .set_knob_direct(p.lookup("sort_buffer_size").unwrap(), 8.0 * 1024.0 * 1024.0);
    rig.db
        .set_knob_direct(p.lookup("innodb_io_capacity").unwrap(), 2_000.0);
    rig.db
        .set_knob_direct(p.lookup("innodb_max_dirty_pages_pct").unwrap(), 90.0);
    let reload_knob = p.lookup("join_buffer_size").unwrap();

    // Warm up.
    rig.drive(&wl, 3_300, 60, 24);
    let start = rig.db.now();
    let start_snap = rig.db.metrics_snapshot();
    let secs = 15 * 60;
    // The IOPS each tick left, sampled from the tick that ended at `start`.
    let mut iops = TimeSeries::with_capacity(secs as usize + 1);
    iops.push(start, rig.db.disks().data().current_iops());
    for s in 0..secs {
        if let Some(m) = mode {
            // A config signal every 20 seconds ("even with this high
            // frequency of reloads").
            if s % 20 == 0 {
                let v = rig.db.knobs().get(reload_knob);
                let _ = rig.db.apply_config(
                    &[autodbaas_simdb::ConfigChange {
                        knob: reload_knob,
                        value: v,
                    }],
                    m,
                );
            }
        }
        let per = 3_300 / 24;
        for _ in 0..24 {
            let q = wl.next_query(&mut rig.rng);
            let _ = rig.db.submit(&q, per);
        }
        rig.db.tick(1_000);
        iops.push(rig.db.now(), rig.db.disks().data().current_iops());
    }
    let iops = iops.resample(start, rig.db.now(), 45);
    let qps = rig.qps_since(&start_snap, secs);
    let delta = rig.db.metrics_snapshot().delta(&start_snap);
    let mean_latency =
        delta[MetricId::QueryTimeMs.index()] / delta[MetricId::QueriesExecuted.index()].max(1.0);
    (iops, qps, mean_latency)
}

fn main() {
    header(
        "Fig. 7",
        "IOPS during TPCC on tuned MySQL: no reloads vs reload signal every 20 s",
        "reload signals every 20 s leave the IOPS/throughput curve \
         indistinguishable; (ablation) socket-activation restarts visibly \
         dent it",
    );
    let (iops_none, qps_none, lat_none) = run(None);
    let (iops_reload, qps_reload, lat_reload) = run(Some(ApplyMode::Reload));
    let (iops_socket, qps_socket, lat_socket) = run(Some(ApplyMode::SocketActivation));

    outln!("\nIOPS over 15 minutes (45 bins):");
    sparkline("no reloads", &iops_none);
    sparkline("reload every 20 s", &iops_reload);
    sparkline("socket-activation (ablation)", &iops_socket);

    outln!("\nmean completed qps / mean query latency:");
    outln!("  no reloads         {qps_none:>9.0} qps   {lat_none:>8.3} ms");
    outln!("  reload every 20 s  {qps_reload:>9.0} qps   {lat_reload:>8.3} ms");
    outln!("  socket activation  {qps_socket:>9.0} qps   {lat_socket:>8.3} ms");

    // Degradation shows up as lost throughput (shed load during stalls)
    // and/or inflated latency, depending on how close to capacity the
    // instance runs.
    let reload_cost = (1.0 - qps_reload / qps_none).max(lat_reload / lat_none - 1.0);
    let socket_cost = (1.0 - qps_socket / qps_none).max(lat_socket / lat_none - 1.0);
    outln!(
        "\nperformance cost vs no-reload baseline: reload = {:+.1}%, socket activation = {:+.1}%",
        reload_cost * 100.0,
        socket_cost * 100.0
    );
    assert!(reload_cost.abs() < 0.05, "reload signals must be near-free");
    assert!(
        socket_cost > reload_cost + 0.05,
        "socket activation must cost far more than reload ({socket_cost:.3} vs {reload_cost:.3})"
    );
    outln!("\nresult: reload signals are jitter-free at 20 s frequency — shape reproduced.");
}
