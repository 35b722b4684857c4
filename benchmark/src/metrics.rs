//! The benchmark's metric and workload tables — the one place their names,
//! units, directions and bounds are written down. `BENCHMARK.json` at the
//! repo root is `observatory --describe` verbatim; `tools.py validate` fails when
//! the two drift apart.

use std::collections::BTreeMap;

/// Which way is better.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Higher,
    Lower,
}

use Better::{Higher, Lower};

/// A workload and the one-line reason it exists.
pub struct WorkloadDef {
    pub name: &'static str,
    pub why: &'static str,
}

/// An end-to-end metric: what a user of the system sees. `bound` is the
/// share of the parent's median by which it may worsen.
pub struct EndToEndDef {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    pub bound: f64,
}

/// A single layer's metric. No bound: it explains, it does not gate.
pub struct LayerDef {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
}

/// Seconds one run measures (`run_seconds` in `BENCHMARK.json`).
pub const RUN_SECONDS: u64 = 18;

pub const WORKLOADS: &[WorkloadDef] = &[
    WorkloadDef {
        name: "fleet_write",
        why: "32 loaded TPC-C services, page-heap and LSM: WAL, checkpoints, compaction and the TDE round do the work",
    },
    WorkloadDef {
        name: "fleet_read",
        why: "32 services scanning data far larger than the buffer pool: planner, executor, misses and spills, almost no WAL",
    },
    WorkloadDef {
        name: "fleet_idle",
        why: "4096 services, one in 128 active: the engine's per-node scan and the snapshot codec dominate, simdb is idle",
    },
    WorkloadDef {
        name: "tuner_loop",
        why: "closed BO recommend/evaluate/add loop crossing max_train_samples, then RL steps: only the tuner layer works",
    },
    WorkloadDef {
        name: "gateway_mix",
        why: "1024 tenants over 2 TCP connections, loadgen mix: closed-loop ceiling, lone round trip, open-loop ladder, over-quota shed",
    },
];

/// Every workload reports all of these (the driver's contract), so the
/// throughput and latency names are generic; README.md says what each means
/// per workload and the traced run repeats them under their specific names.
pub const END_TO_END: &[EndToEndDef] = &[
    EndToEndDef {
        name: "work_per_s",
        unit: "1/s",
        better: Higher,
        bound: 0.25,
    },
    EndToEndDef {
        name: "latency_ms",
        unit: "ms",
        better: Lower,
        bound: 0.25,
    },
    EndToEndDef {
        name: "peak_rss_mb",
        unit: "MB",
        better: Lower,
        bound: 0.15,
    },
    EndToEndDef {
        name: "setup_s",
        unit: "s",
        better: Lower,
        bound: 0.25,
    },
];

const fn layer(name: &'static str, unit: &'static str, better: Better) -> LayerDef {
    LayerDef { name, unit, better }
}

/// Per-layer metrics, layer = crate name. A metric a workload does not
/// exercise reads 0 on that workload.
pub const PER_LAYER: &[LayerDef] = &[
    // The end-to-end values under their specific names, from the untraced
    // repetitions of the traced process.
    layer("node_ticks_per_s", "1/s", Higher),
    layer("snap_roundtrip_s", "s", Lower),
    layer("recs_per_s", "1/s", Higher),
    layer("rl_steps_per_s", "1/s", Higher),
    layer("gw_rps_sat", "1/s", Higher),
    layer("gw_p50_us", "us", Lower),
    layer("gw_max_rate_ok", "1/s", Higher),
    layer("fail_frac", "frac", Lower),
    layer("trace_overhead_frac", "frac", Lower),
    // workload
    layer("workload.next_query_ns", "ns", Lower),
    layer("workload.arrival_ns", "ns", Lower),
    // simdb
    layer("simdb.plan_ns", "ns", Lower),
    layer("simdb.pageheap.submit_ns", "ns", Lower),
    layer("simdb.lsm.submit_ns", "ns", Lower),
    layer("simdb.pageheap.tick_ns", "ns", Lower),
    layer("simdb.lsm.tick_ns", "ns", Lower),
    layer("simdb.apply_config_us", "us", Lower),
    layer("simdb.metrics_snapshot_ns", "ns", Lower),
    layer("simdb.buffer_hit_ratio", "frac", Higher),
    layer("simdb.spill_frac", "frac", Lower),
    layer("simdb.checkpoints", "count", Lower),
    layer("simdb.wal_mb", "MB", Lower),
    layer("simdb.lsm.compactions", "count", Lower),
    layer("simdb.dropped_frac", "frac", Lower),
    // core
    layer("core.tde_run_us", "us", Lower),
    layer("core.tde_run_us_p99", "us", Lower),
    layer("core.throttles", "count", Lower),
    layer("core.tuning_requests", "count", Lower),
    layer("core.suppressed", "count", Higher),
    layer("core.requests_per_window", "count", Lower),
    // tuner
    layer("tuner.bo_rec_ms_p50", "ms", Lower),
    layer("tuner.bo_rec_ms_p99", "ms", Lower),
    layer("tuner.bo_rec_ms_below_cap", "ms", Lower),
    layer("tuner.bo_rec_ms_at_cap", "ms", Lower),
    layer("tuner.bo_full_fits", "count", Lower),
    layer("tuner.bo_extends", "count", Higher),
    layer("tuner.gp_fit_ms_n300", "ms", Lower),
    layer("tuner.gp_extend_ms_n300", "ms", Lower),
    layer("tuner.rl_recommend_us", "us", Lower),
    layer("tuner.rl_observe_us", "us", Lower),
    layer("tuner.add_sample_ns", "ns", Lower),
    // ctrlplane
    layer("ctrlplane.submit_request_ns", "ns", Lower),
    layer("ctrlplane.apply_reload_us", "us", Lower),
    layer("ctrlplane.replica_tick_ns", "ns", Lower),
    layer("ctrlplane.ingest_windows_ns", "ns", Lower),
    layer("ctrlplane.meter_record_ns", "ns", Lower),
    // cloudsim
    layer("cloudsim.step_drive_us", "us", Lower),
    layer("cloudsim.step_round_us", "us", Lower),
    layer("cloudsim.step_deliver_us", "us", Lower),
    layer("cloudsim.drive_share", "frac", Lower),
    layer("cloudsim.round_share", "frac", Lower),
    layer("cloudsim.deliver_share", "frac", Lower),
    layer("cloudsim.engine_self_frac", "frac", Lower),
    layer("cloudsim.idle_node_tick_ns", "ns", Lower),
    layer("cloudsim.active_node_tick_ns", "ns", Lower),
    layer("cloudsim.ns_per_query", "ns", Lower),
    layer("cloudsim.cpu_ns_per_node_tick", "ns", Lower),
    layer("cloudsim.requests", "count", Lower),
    layer("cloudsim.applies", "count", Higher),
    layer("cloudsim.rollbacks", "count", Lower),
    layer("cloudsim.request_to_apply_sim_s", "s", Lower),
    // telemetry
    layer("telemetry.emit_ns", "ns", Lower),
    layer("telemetry.fingerprint_us", "us", Lower),
    layer("telemetry.series_push_ns", "ns", Lower),
    layer("telemetry.events", "count", Lower),
    // snapshot
    layer("snapshot.encode_mb_s", "MB/s", Higher),
    layer("snapshot.decode_mb_s", "MB/s", Higher),
    layer("snapshot.bytes_per_node", "B", Lower),
    // gateway
    layer("gateway.codec_ns", "ns", Lower),
    layer("gateway.admit_ns", "ns", Lower),
    layer("gateway.route_ns", "ns", Lower),
    layer("gateway.route_ns.metrics", "ns", Lower),
    layer("gateway.route_ns.throttle", "ns", Lower),
    layer("gateway.route_ns.fetch", "ns", Lower),
    layer("gateway.route_ns.ack", "ns", Lower),
    layer("gateway.transport_us", "us", Lower),
    layer("gateway.rtt_p99_us", "us", Lower),
    layer("gateway.rtt_p999_us", "us", Lower),
    layer("gateway.busy_frac", "frac", Higher),
    layer("gateway.gen_lag_us_p99", "us", Lower),
    layer("gateway.backlog_max", "count", Lower),
    layer("gateway.bytes_per_req", "B", Lower),
];

/// Metric values a run produced, keyed by a name from the tables above.
#[derive(Default)]
pub struct Values(BTreeMap<&'static str, f64>);

impl Values {
    /// Record `value` under `name`; panics on a name neither table lists or
    /// a value JSON cannot carry, so a typo cannot ship a silent gap.
    pub fn set(&mut self, name: &'static str, value: f64) {
        assert!(
            END_TO_END.iter().any(|d| d.name == name) || PER_LAYER.iter().any(|d| d.name == name),
            "metric {name} is in neither table"
        );
        assert!(value.is_finite(), "metric {name} is not finite: {value}");
        self.0.insert(name, value);
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.get(name).copied()
    }
}

/// Output checks; any failure makes the run incorrect.
#[derive(Default)]
pub struct Checks {
    failed: usize,
}

impl Checks {
    /// Record (and print) a failure unless `ok`.
    pub fn require(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            // A twin that left its node fails every step after; ten lines
            // say as much as ten thousand.
            if self.failed < 10 {
                println!("# CHECK FAILED: {}", what());
            }
            self.failed += 1;
        }
    }

    pub fn fail(&mut self, what: String) {
        self.require(false, || what);
    }

    pub fn all_passed(&self) -> bool {
        self.failed == 0
    }
}

/// What one run of one workload found.
pub struct Outcome {
    /// Every output check passed.
    pub correct: bool,
    /// Operations offered to the program.
    pub attempted: u64,
    /// Operations it dropped, refused, answered wrongly or never answered.
    pub failed: u64,
    pub values: Values,
}

fn better_str(b: Better) -> &'static str {
    match b {
        Higher => "higher",
        Lower => "lower",
    }
}

/// The contents of `BENCHMARK.json`.
pub fn describe() -> String {
    let mut s = String::from("{\n");
    s.push_str("  \"command\": [\"bash\", \"benchmark/run.sh\"],\n");
    s.push_str("  \"paths\": [\"benchmark\"],\n");
    s.push_str(&format!("  \"run_seconds\": {RUN_SECONDS},\n"));
    s.push_str("  \"workloads\": [\n");
    for (i, w) in WORKLOADS.iter().enumerate() {
        let sep = if i + 1 == WORKLOADS.len() { "" } else { "," };
        s.push_str(&format!(
            "    {{\"name\": \"{}\", \"why\": \"{}\"}}{sep}\n",
            w.name, w.why
        ));
    }
    s.push_str("  ],\n  \"end_to_end\": [\n");
    for (i, d) in END_TO_END.iter().enumerate() {
        let sep = if i + 1 == END_TO_END.len() { "" } else { "," };
        s.push_str(&format!(
            "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\", \"bound\": {}}}{sep}\n",
            d.name,
            d.unit,
            better_str(d.better),
            d.bound
        ));
    }
    s.push_str("  ],\n  \"per_layer\": [\n");
    for (i, d) in PER_LAYER.iter().enumerate() {
        let sep = if i + 1 == PER_LAYER.len() { "" } else { "," };
        s.push_str(&format!(
            "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\"}}{sep}\n",
            d.name,
            d.unit,
            better_str(d.better)
        ));
    }
    s.push_str("  ]\n}\n");
    s
}

/// The result line the driver reads: end-to-end metrics of an untraced run,
/// per-layer metrics of a traced one.
pub fn result_line(outcome: &Outcome, traced: bool) -> String {
    let names: Vec<(&str, &str)> = if traced {
        PER_LAYER.iter().map(|d| (d.name, d.unit)).collect()
    } else {
        END_TO_END.iter().map(|d| (d.name, d.unit)).collect()
    };
    let metrics: Vec<String> = names
        .iter()
        .map(|&(name, unit)| {
            let value = match outcome.values.get(name) {
                Some(v) => v,
                None if traced => 0.0,
                None => panic!("end-to-end metric {name} was not measured"),
            };
            format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        outcome.correct,
        outcome.attempted.max(1),
        outcome.failed,
        metrics.join(", ")
    )
}

/// Unit of a metric in either table.
pub fn unit_of(name: &str) -> &'static str {
    END_TO_END
        .iter()
        .map(|d| (d.name, d.unit))
        .chain(PER_LAYER.iter().map(|d| (d.name, d.unit)))
        .find(|&(n, _)| n == name)
        .map_or("", |(_, u)| u)
}

/// Every measured value as `name value unit`, one per line, in table order.
pub fn print_values(values: &Values) {
    let names = END_TO_END
        .iter()
        .map(|d| d.name)
        .chain(PER_LAYER.iter().map(|d| d.name));
    for name in names {
        if let Some(v) = values.get(name) {
            println!("{name} {v} {}", unit_of(name));
        }
    }
}
