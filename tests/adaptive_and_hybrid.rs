//! Integration test for the hybrid tuner extension, run against a real
//! simulated database.

use autodbaas::prelude::*;
use autodbaas::simdb::MetricId;
use autodbaas::tde::{Tde, TdeConfig};
use autodbaas::tuner::{
    normalize_config, HybridBackend, HybridConfig, HybridTuner, Sample, SampleQuality,
    WorkloadRepository,
};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn drive(db: &mut SimDatabase, wl: &dyn QuerySource, rng: &mut StdRng, secs: u64, rate: u64) {
    for _ in 0..secs {
        for _ in 0..8 {
            let q = wl.next_query(rng);
            let _ = db.submit(&q, (rate / 8).max(1));
        }
        db.tick(1_000);
    }
}

/// The hybrid tuner hands a freshly hooked database to the RL agent and
/// promotes it to the BO pipeline once TDE-certified samples accumulate.
#[test]
fn hybrid_tuner_promotes_from_rl_to_bo_as_samples_accumulate() {
    let wl = AdulteratedWorkload::new(tpcc(0.5), 0.4);
    let profile = KnobProfile::postgres();
    let mut db = SimDatabase::new(
        DbFlavor::Postgres,
        InstanceType::M4Large,
        DiskKind::Ssd,
        wl.base().catalog().clone(),
        4,
    );
    let mut tde = Tde::new(&profile, TdeConfig::default(), 5);
    let mut repo = WorkloadRepository::new();
    let wid = repo.register("live", false);
    let cfg = HybridConfig {
        bo_takeover_samples: 4,
        ..HybridConfig::default()
    };
    let mut tuner = HybridTuner::new(MetricId::ALL.len(), profile.len(), cfg, 6);
    let mut rng = StdRng::seed_from_u64(7);

    let mut backends = Vec::new();
    let mut snap = db.metrics_snapshot();
    for _ in 0..14 {
        drive(&mut db, &wl, &mut rng, 60, 150);
        let now_snap = db.metrics_snapshot();
        let delta = now_snap.delta(&snap);
        snap = now_snap;
        let report = tde.run(&mut db, None);
        if report.tuning_request {
            // Capture the certified sample, then ask the hybrid.
            let qps = delta[MetricId::QueriesExecuted.index()] / 60.0;
            repo.add_sample(
                wid,
                Sample {
                    config: normalize_config(&profile, db.knobs().as_vec()),
                    metrics: delta.clone(),
                    objective: qps,
                    quality: SampleQuality::High,
                },
            );
            let state: Vec<f64> = delta.iter().map(|&x| (1.0 + x.abs()).ln() / 20.0).collect();
            let focus: Vec<usize> = report.throttles.iter().map(|t| t.knob.0 as usize).collect();
            let (config, backend) = tuner.recommend(&repo, wid, &state, &focus);
            backends.push(backend);
            // Apply it so subsequent samples vary.
            let raw = autodbaas::tuner::denormalize_config(&profile, &config);
            for (i, (kid, spec)) in profile.iter().enumerate() {
                if !spec.restart_required {
                    db.set_knob_direct(kid, raw[i]);
                }
            }
        }
    }
    assert!(
        backends.len() >= 4,
        "the demanding workload must keep asking ({backends:?})"
    );
    assert_eq!(backends[0], HybridBackend::Rl, "cold start is served by RL");
    assert!(
        backends.contains(&HybridBackend::Bo),
        "accumulated samples must promote to BO ({backends:?})"
    );
}
