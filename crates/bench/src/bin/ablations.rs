//! Ablations over the design choices DESIGN.md calls out:
//!
//! 1. entropy filtration on/off (unnecessary throttles on cap-limited
//!    instances),
//! 2. TDE observation-period sweep (detection latency vs. overhead),
//! 3. reservoir-size sweep (spill-detection recall),
//! 4. BO knob-subset (`tune_top_k`) sweep (recommendation quality with
//!    few samples),
//! 5. the learned (future-work) detector's agreement with the rule
//!    engine.
//!
//! Each section prints its own table; assertions pin the qualitative
//! outcome each design choice was made for.

use autodbaas_bench::{header, seed_offline, Rig};
use autodbaas_core::{LearnedDetector, Tde, TdeConfig};
use autodbaas_simdb::{Backend, DbFlavor, InstanceType, MetricId, SimDatabase};
use autodbaas_telemetry::outln;
use autodbaas_tuner::{
    normalize_config, BoConfig, BoTuner, Sample, SampleQuality, WorkloadRepository,
};
use autodbaas_workload::{tpcc, AdulteratedWorkload, QuerySource};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn main() {
    header(
        "Ablations",
        "design-choice sweeps (entropy filter, TDE period, reservoir, knob subset, learned TDE)",
        "each choice earns its place: disable it and the metric it protects regresses",
    );
    ablate_entropy_filter();
    ablate_tde_period();
    ablate_reservoir();
    ablate_knob_subset();
    ablate_learned_tde();
    outln!("\nall ablations hold.");
}

/// Ablation 1 — entropy filter: on a cap-limited t2.small, the filter
/// must divert unfixable throttles away from the tuner.
fn ablate_entropy_filter() {
    outln!("\n--- 1. entropy filtration on a cap-limited instance ---");
    outln!(
        "{:<10} {:>16} {:>22}",
        "filter",
        "tuning requests",
        "upgrades+suppressed"
    );
    let mut results = Vec::new();
    for enable in [true, false] {
        let wl = AdulteratedWorkload::new(tpcc(1.0), 0.8);
        let mut rig = Rig::new(
            DbFlavor::Postgres,
            InstanceType::T2Small,
            wl.base().catalog().clone(),
            3,
        );
        let p = rig.db.profile().clone();
        for name in ["work_mem", "maintenance_work_mem", "temp_buffers"] {
            let id = p.lookup(name).unwrap();
            rig.db.set_knob_direct(id, p.spec(id).max);
        }
        let cfg = TdeConfig {
            enable_entropy_filter: enable,
            ..TdeConfig::default()
        };
        let mut tde = Tde::new(&p, cfg, 5);
        for _ in 0..30 {
            rig.drive(&wl, 80, 60, 24);
            let _ = tde.run(&mut rig.db, None);
        }
        let diverted = tde.plan_upgrades() + tde.suppressed();
        outln!(
            "{:<10} {:>16} {:>22}",
            enable,
            tde.tuning_requests(),
            diverted
        );
        results.push((tde.tuning_requests(), diverted));
    }
    assert!(
        results[0].0 < results[1].0,
        "the filter must cut tuning requests"
    );
    assert!(results[0].1 > 0 && results[1].1 == 0);
}

/// Ablation 2 — TDE period: longer windows mean later detection of a
/// real problem.
fn ablate_tde_period() {
    outln!("\n--- 2. TDE observation-period sweep (detection latency) ---");
    outln!("{:<14} {:>22}", "period (s)", "detected after (s)");
    let mut latencies = Vec::new();
    for period_s in [30u64, 60, 300] {
        let wl = AdulteratedWorkload::new(tpcc(1.0), 0.5);
        let mut rig = Rig::new(
            DbFlavor::Postgres,
            InstanceType::M4XLarge,
            wl.base().catalog().clone(),
            7,
        );
        let mut tde = Tde::new(&rig.db.profile().clone(), TdeConfig::default(), 9);
        // The problem starts at t=0; run until the first tuning request.
        let mut detected_at = None;
        for w in 1..=20 {
            rig.drive(&wl, 100, period_s, 24);
            let r = tde.run(&mut rig.db, None);
            if r.tuning_request {
                detected_at = Some(w * period_s);
                break;
            }
        }
        let at = detected_at.expect("spilling workload must be detected");
        outln!("{:<14} {:>22}", period_s, at);
        latencies.push(at);
    }
    assert!(
        latencies[0] <= latencies[2],
        "longer periods cannot detect sooner"
    );
}

/// Ablation 3 — reservoir size: too small a sample misses rare spilling
/// templates.
fn ablate_reservoir() {
    outln!("\n--- 3. reservoir-size sweep (rare-spill recall over 20 windows) ---");
    outln!("{:<14} {:>18}", "capacity", "windows w/ throttle");
    let mut hits = Vec::new();
    for cap in [2usize, 8, 64] {
        // 2% of queries spill — rare enough to stress a tiny reservoir.
        let wl = AdulteratedWorkload::new(tpcc(1.0), 0.02);
        let mut rig = Rig::new(
            DbFlavor::Postgres,
            InstanceType::M4XLarge,
            wl.base().catalog().clone(),
            11,
        );
        let cfg = TdeConfig {
            reservoir_capacity: cap,
            ..TdeConfig::default()
        };
        let mut tde = Tde::new(&rig.db.profile().clone(), cfg, 13);
        let mut windows_with = 0;
        for _ in 0..20 {
            rig.drive(&wl, 100, 60, 24);
            let r = tde.run(&mut rig.db, None);
            if r.throttles
                .iter()
                .any(|t| matches!(t.reason, autodbaas_core::ThrottleReason::MemorySpill(_)))
            {
                windows_with += 1;
            }
        }
        outln!("{:<14} {:>18}", cap, windows_with);
        hits.push(windows_with);
    }
    assert!(
        hits[2] >= hits[0],
        "bigger reservoirs must not reduce recall"
    );
    assert!(hits[2] > 0, "the rare spill must be caught at k=64");
}

/// Ablation 4 — BO knob subset: with few samples, tuning everything at
/// once is worse than tuning the ranked subset.
fn ablate_knob_subset() {
    outln!("\n--- 4. BO tune_top_k sweep (recommendation quality, 30 samples) ---");
    outln!("{:<14} {:>18}", "tune_top_k", "achieved qps");
    let wl = AdulteratedWorkload::new(tpcc(1.0), 0.3);
    let profile = autodbaas_simdb::KnobProfile::postgres();
    let mut repo = WorkloadRepository::new();
    let wid = repo.register("live", false);
    let mut rng = StdRng::seed_from_u64(17);
    for i in 0..30 {
        let mut db = SimDatabase::new(
            DbFlavor::Postgres,
            InstanceType::M4XLarge,
            autodbaas_simdb::DiskKind::Ssd,
            wl.base().catalog().clone(),
            40 + i,
        );
        let unit: Vec<f64> = (0..profile.len()).map(|_| rng.gen()).collect();
        let raw = autodbaas_tuner::denormalize_config(&profile, &unit);
        for (k, (kid, spec)) in profile.iter().enumerate() {
            if !spec.restart_required {
                db.set_knob_direct(kid, raw[k]);
            }
        }
        let before = db.metrics_snapshot();
        drive_db(&mut db, &wl, 30, 200, &mut rng);
        let delta = db.metrics_snapshot().delta(&before);
        repo.add_sample(
            wid,
            Sample {
                config: normalize_config(&profile, db.knobs().as_vec()),
                metrics: delta.clone(),
                objective: delta[MetricId::QueriesExecuted.index()] / 30.0,
                quality: SampleQuality::High,
            },
        );
    }
    let mut achieved = Vec::new();
    for k in [3usize, 6, 15] {
        let cfg = BoConfig {
            tune_top_k: k,
            kappa: 0.1,
            ..BoConfig::default()
        };
        let mut tuner = BoTuner::new(cfg, 23);
        let rec = tuner.recommend(&repo, wid).expect("trained");
        // Evaluate the recommendation.
        let mut db = SimDatabase::new(
            DbFlavor::Postgres,
            InstanceType::M4XLarge,
            autodbaas_simdb::DiskKind::Ssd,
            wl.base().catalog().clone(),
            999,
        );
        let raw = autodbaas_tuner::denormalize_config(&profile, &rec.config);
        for (i, (kid, spec)) in profile.iter().enumerate() {
            if !spec.restart_required {
                db.set_knob_direct(kid, raw[i]);
            }
        }
        let mut eval_rng = StdRng::seed_from_u64(29);
        let before = db.metrics_snapshot();
        drive_db(&mut db, &wl, 60, 200, &mut eval_rng);
        let qps = db.metrics_snapshot().delta(&before)[MetricId::QueriesExecuted.index()] / 60.0;
        outln!("{:<14} {:>18.0}", k, qps);
        achieved.push(qps);
    }
    // Focused tuning must not lose badly to the full-dimensional sweep.
    assert!(
        achieved[1] >= achieved[2] * 0.9,
        "top-6 focus should match or beat all-15 ({:.0} vs {:.0})",
        achieved[1],
        achieved[2]
    );
}

fn drive_db(db: &mut SimDatabase, wl: &dyn QuerySource, secs: u64, rate: u64, rng: &mut StdRng) {
    for _ in 0..secs {
        for _ in 0..8 {
            let q = wl.next_query(rng);
            let _ = db.submit(&q, (rate / 8).max(1));
        }
        db.tick(1_000);
    }
}

/// Ablation 5 — learned TDE (future work): distilled online, its
/// agreement with the rule engine must climb well above chance.
fn ablate_learned_tde() {
    outln!("\n--- 5. learned TDE distillation (agreement with the rule engine) ---");
    let wl = AdulteratedWorkload::new(tpcc(1.0), 0.4);
    let mut rig = Rig::new(
        DbFlavor::Postgres,
        InstanceType::M4XLarge,
        wl.base().catalog().clone(),
        31,
    );
    let profile = rig.db.profile().clone();
    let mut repo = WorkloadRepository::new();
    seed_offline(&mut repo, &tpcc(1.0), DbFlavor::Postgres, 6, 33);
    let mut tde = Tde::new(&profile, TdeConfig::default(), 37);
    let mut learned = LearnedDetector::new(&profile, 41);
    let mut snap = rig.db.metrics_snapshot();
    let mut checkpoints = Vec::new();
    for w in 1..=120 {
        // Alternate busy and quiet windows so both labels occur.
        let rate = if w % 3 == 0 { 5 } else { 150 };
        rig.drive(&wl, rate, 60, 24);
        let now = rig.db.metrics_snapshot();
        let delta = now.delta(&snap);
        snap = now;
        let report = tde.run(&mut rig.db, Some(&repo));
        learned.observe(rig.db.knobs(), &delta, &report);
        if w % 40 == 0 {
            checkpoints.push(learned.recent_agreement());
            outln!(
                "after {w:>3} windows: recent agreement = {:.2} (lifetime {:.2})",
                learned.recent_agreement(),
                learned.agreement()
            );
        }
    }
    assert!(
        *checkpoints.last().unwrap() > 0.6,
        "the distilled detector must agree with the rules most of the time"
    );
}
