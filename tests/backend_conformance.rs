//! Backend conformance suite — the contract every flavor behind the
//! [`Backend`] trait must honour, on both storage engines.
//!
//! The TDE, the config director and the fleet engine are generic over the
//! trait; they rely on exactly these behaviours, so each is pinned here
//! for every flavor rather than trusted to hold by analogy with the
//! page-heap engine:
//!
//! * knob writes clamp to the spec bounds (a recommendation outside
//!   `[min, max]` must land at the bound, not explode the engine);
//! * `apply_config` semantics: reloadable knobs land on `Reload`,
//!   restart-bound knobs stage on `Reload` and land on `Restart`;
//! * metrics deltas are monotone for every counter (gauges exempt) — the
//!   tuner's sample windows assume counters never run backwards;
//! * tick replay from a fixed seed is bit-identical — fleet fingerprints
//!   and the bug base depend on it;
//! * the §4 service shell (socket-activation backlog, reload jitter,
//!   staging, crash recovery, degradation) behaves the same on both
//!   engines.

use autodbaas::prelude::*;
use autodbaas::simdb::{KnobId, MetricId};

/// Every flavor the substrate ships: two page-heap flavors and the LSM
/// engine.
const FLAVORS: [DbFlavor; 3] = [DbFlavor::Postgres, DbFlavor::MySql, DbFlavor::Lsm];

fn mk(flavor: DbFlavor, seed: u64) -> SimDatabase {
    let catalog = Catalog::synthetic(4, 1_000_000_000, 150, 2);
    SimDatabase::new(flavor, InstanceType::M4Large, DiskKind::Ssd, catalog, seed)
}

/// A write-heavy, sort-heavy driving loop exercising both the foreground
/// and background paths of any engine.
fn drive(db: &mut SimDatabase, secs: u64) {
    let mut write = QueryProfile::new(QueryKind::Insert, 0);
    write.rows_written = 40;
    let mut scan = QueryProfile::new(QueryKind::RangeSelect, 1);
    scan.rows_examined = 30_000;
    for _ in 0..secs {
        let _ = db.submit(&write, 120);
        let _ = db.submit(&scan, 10);
        db.tick(1_000);
    }
}

/// A reloadable knob and a restart-bound knob from the flavor's own
/// profile (every profile must expose both classes).
fn sample_knobs(db: &SimDatabase) -> (KnobId, KnobId) {
    let profile = db.profile();
    let mut reload = None;
    let mut restart = None;
    for (id, spec) in profile.iter() {
        if spec.restart_required {
            restart.get_or_insert(id);
        } else {
            reload.get_or_insert(id);
        }
    }
    (
        reload.expect("profile must have a reloadable knob"),
        restart.expect("profile must have a restart-bound knob"),
    )
}

#[test]
fn knob_writes_clamp_to_spec_bounds() {
    for flavor in FLAVORS {
        let mut db = mk(flavor, 7);
        let (reload, _) = sample_knobs(&db);
        let spec = db.profile().spec(reload).clone();
        db.apply_config(
            &[ConfigChange {
                knob: reload,
                value: spec.max * 16.0,
            }],
            ApplyMode::Reload,
        );
        let v = db.knobs().get(reload);
        assert!(
            v <= spec.max,
            "{flavor}: over-max write must clamp ({v} > {})",
            spec.max
        );
        db.apply_config(
            &[ConfigChange {
                knob: reload,
                value: spec.min - spec.max,
            }],
            ApplyMode::Reload,
        );
        let v = db.knobs().get(reload);
        assert!(
            v >= spec.min,
            "{flavor}: under-min write must clamp ({v} < {})",
            spec.min
        );
    }
}

#[test]
fn reload_stages_restart_bound_knobs_and_restart_lands_them() {
    for flavor in FLAVORS {
        let mut db = mk(flavor, 11);
        let (_, restart) = sample_knobs(&db);
        let spec = db.profile().spec(restart).clone();
        let before = db.knobs().get(restart);
        let target = (before * 2.0).clamp(spec.min, spec.max);
        assert_ne!(before, target, "{flavor}: pick a knob with headroom");

        let report = db.apply_config(
            &[ConfigChange {
                knob: restart,
                value: target,
            }],
            ApplyMode::Reload,
        );
        assert_eq!(
            db.knobs().get(restart),
            before,
            "{flavor}: restart-bound knob must not move on reload"
        );
        assert!(
            db.staged_changes().iter().any(|c| c.knob == restart),
            "{flavor}: reload must stage the restart-bound change"
        );
        assert!(
            report.deferred.contains(&restart),
            "{flavor}: the report must list the deferral"
        );
        assert_eq!(
            report.downtime_ms, 0,
            "{flavor}: reload must not incur hard downtime"
        );

        let report = db.apply_config(&[], ApplyMode::Restart);
        assert!(
            report.downtime_ms > 0,
            "{flavor}: restart mode incurs downtime"
        );
        assert_eq!(
            db.knobs().get(restart),
            target,
            "{flavor}: restart must land the staged change"
        );
        assert!(
            db.staged_changes().is_empty(),
            "{flavor}: staging drains on restart"
        );
    }
}

#[test]
fn counter_metrics_never_run_backwards() {
    for flavor in FLAVORS {
        let mut db = mk(flavor, 23);
        let mut prev = db.metrics_snapshot();
        for chunk in 0..20 {
            drive(&mut db, 5);
            let now = db.metrics_snapshot();
            let delta = now.delta(&prev);
            for id in MetricId::ALL {
                if !id.is_gauge() {
                    assert!(
                        delta[id.index()] >= 0.0,
                        "{flavor}: counter {} went backwards in chunk {chunk} ({})",
                        id.name(),
                        delta[id.index()]
                    );
                }
            }
            prev = now;
        }
    }
}

#[test]
fn tick_replay_from_fixed_seed_is_bit_identical() {
    for flavor in FLAVORS {
        let mut a = mk(flavor, 97);
        let mut b = mk(flavor, 97);
        let mut scan = QueryProfile::new(QueryKind::RangeSelect, 2);
        scan.rows_examined = 50_000;
        let mut write = QueryProfile::new(QueryKind::Update, 3);
        write.rows_written = 25;
        write.rows_examined = 500;
        for i in 0..120 {
            let (ra, rb) = (a.submit(&scan, 20), b.submit(&scan, 20));
            match (ra, rb) {
                (SubmitResult::Done(oa), SubmitResult::Done(ob)) => {
                    assert_eq!(
                        oa.latency_ms.to_bits(),
                        ob.latency_ms.to_bits(),
                        "{flavor}: latency diverged at tick {i}"
                    );
                }
                (SubmitResult::Done(_), _) | (_, SubmitResult::Done(_)) => {
                    panic!("{flavor}: admission diverged at tick {i}")
                }
                _ => {}
            }
            let _ = a.submit(&write, 40);
            let _ = b.submit(&write, 40);
            a.tick(1_000);
            b.tick(1_000);
        }
        assert_eq!(
            a.metrics_snapshot().as_vec(),
            b.metrics_snapshot().as_vec(),
            "{flavor}: metric stores diverged"
        );
        assert_eq!(
            a.wal().insert_lsn(),
            b.wal().insert_lsn(),
            "{flavor}: WAL diverged"
        );
    }
}

#[test]
fn descriptor_scopes_names_per_backend_with_shared_layout() {
    let (pg, lsm) = (mk(DbFlavor::Postgres, 1), mk(DbFlavor::Lsm, 1));
    let (pg_names, lsm_names) = (pg.kind().metric_catalog(), lsm.kind().metric_catalog());
    assert_eq!(pg_names.len(), lsm_names.len());
    assert_eq!(pg_names.len(), MetricId::ALL.len());
    assert_eq!(pg.kind(), BackendKind::PageHeap);
    assert_eq!(lsm.kind(), BackendKind::Lsm);
    // Same slot, backend-scoped vocabulary: checkpoints vs compactions.
    let slot = MetricId::CheckpointsTimed.index();
    assert_ne!(pg_names[slot], lsm_names[slot]);
    // The knob profiles genuinely differ.
    assert_ne!(
        pg.profile().iter().map(|(_, s)| s.name).collect::<Vec<_>>(),
        lsm.profile()
            .iter()
            .map(|(_, s)| s.name)
            .collect::<Vec<_>>()
    );
}

/// A point read: on every engine it executes immediately and touches one
/// table's index.
fn point_query() -> QueryProfile {
    let mut q = QueryProfile::new(QueryKind::PointSelect, 0);
    q.rows_examined = 10;
    q
}

/// Latency of one executed batch; panics if the batch did not run.
fn latency(r: SubmitResult) -> f64 {
    match r {
        SubmitResult::Done(o) => o.latency_ms,
        other => panic!("expected the batch to run, got {other:?}"),
    }
}

const MIB: f64 = 1024.0 * 1024.0;

#[test]
fn socket_activation_queues_then_drains() {
    for flavor in FLAVORS {
        let mut db = mk(flavor, 99);
        db.apply_config(&[], ApplyMode::SocketActivation);
        assert!(
            matches!(db.submit(&point_query(), 50), SubmitResult::Queued),
            "{flavor}: the socket holds requests during the stall"
        );
        let before = db.metrics().get(MetricId::QueriesExecuted);
        for _ in 0..10 {
            db.tick(1_000);
        }
        let after = db.metrics().get(MetricId::QueriesExecuted);
        assert!(
            after >= before + 50.0,
            "{flavor}: backlog must drain after the stall"
        );
    }
}

#[test]
fn reload_jitter_is_small_and_temporary() {
    for flavor in FLAVORS {
        let mut db = mk(flavor, 99);
        let q = point_query();
        // Warm up.
        for _ in 0..50 {
            db.submit(&q, 10);
            db.tick(200);
        }
        let base = latency(db.submit(&q, 10));
        db.apply_config(&[], ApplyMode::Reload);
        let jittered = latency(db.submit(&q, 10));
        assert!(
            jittered <= base * 1.2,
            "{flavor}: reload jitter should be minimal ({jittered:.3} vs {base:.3})"
        );
    }
}

#[test]
fn restart_clears_socket_stall_semantics() {
    // A socket-activation stall followed by a hard restart: the backlog
    // must not execute while the instance is down, and service resumes
    // cleanly afterwards.
    for flavor in FLAVORS {
        let mut db = mk(flavor, 99);
        db.apply_config(&[], ApplyMode::SocketActivation);
        assert!(matches!(db.submit(&point_query(), 5), SubmitResult::Queued));
        db.apply_config(&[], ApplyMode::Restart);
        assert!(
            matches!(db.submit(&point_query(), 1), SubmitResult::Refused),
            "{flavor}: a restarting instance refuses"
        );
        for _ in 0..30 {
            db.tick(1_000);
        }
        assert!(
            matches!(db.submit(&point_query(), 1), SubmitResult::Done(_)),
            "{flavor}: service resumes after the restart"
        );
    }
}

#[test]
fn staged_restart_knob_keeps_latest_value_only() {
    for flavor in FLAVORS {
        let mut db = mk(flavor, 99);
        let pool = db.planner().roles().buffer_pool;
        for value in [256.0 * MIB, 512.0 * MIB] {
            db.apply_config(&[ConfigChange { knob: pool, value }], ApplyMode::Reload);
        }
        assert_eq!(
            db.staged_changes().len(),
            1,
            "{flavor}: re-staging must replace, not append"
        );
        let report = db.apply_config(&[], ApplyMode::Restart);
        assert!(report.applied.contains(&pool));
        assert_eq!(
            db.knobs().get(pool),
            512.0 * MIB,
            "{flavor}: latest staged value wins"
        );
    }
}

#[test]
fn crash_lands_staged_knobs_and_clears_volatile_state() {
    for flavor in FLAVORS {
        let mut db = mk(flavor, 99);
        let pool = db.planner().roles().buffer_pool;
        // Queue a socket backlog, then stage a restart-bound knob mid-stall
        // (socket activation itself is restart-class and would land it).
        db.apply_config(&[], ApplyMode::SocketActivation);
        assert!(matches!(
            db.submit(&point_query(), 50),
            SubmitResult::Queued
        ));
        db.apply_config(
            &[ConfigChange {
                knob: pool,
                value: 512.0 * MIB,
            }],
            ApplyMode::Reload,
        );
        let before = db.metrics().get(MetricId::QueriesExecuted);
        let report = db.crash();
        assert_eq!(report.staged_applied, 1, "{flavor}");
        assert_eq!(db.knobs().get(pool), 512.0 * MIB, "{flavor}");
        assert!(db.staged_changes().is_empty(), "{flavor}");
        for _ in 0..15 {
            db.tick(1_000);
        }
        assert_eq!(
            db.metrics().get(MetricId::QueriesExecuted),
            before,
            "{flavor}: socket backlog must not survive a crash"
        );
    }
}

#[test]
fn degrade_inflates_latency_then_expires() {
    for flavor in FLAVORS {
        let q = point_query();
        let (mut db, mut twin) = (mk(flavor, 99), mk(flavor, 99));
        let base = latency(db.submit(&q, 1));
        latency(twin.submit(&q, 1));
        db.degrade(5_000, 4.0);
        twin.degrade(5_000, 4.0);
        let stalled = latency(db.submit(&q, 1));
        assert!(stalled > base * 2.0, "{flavor}: {stalled:.2} vs {base:.2}");
        // Overlapping degradations max-merge, never stack: a shorter,
        // milder one changes neither the factor nor the window, so the
        // instance runs bit for bit like its twin that never saw it.
        db.degrade(1_000, 2.0);
        latency(twin.submit(&q, 1));
        for _ in 0..4 {
            assert_eq!(
                latency(db.submit(&q, 1)).to_bits(),
                latency(twin.submit(&q, 1)).to_bits(),
                "{flavor}: the milder overlap changed the degradation"
            );
            db.tick(1_000);
            twin.tick(1_000);
        }
        db.tick(2_000);
        let recovered = latency(db.submit(&q, 1));
        assert!(recovered < stalled / 2.0, "{flavor}");
    }
}

#[test]
fn a_full_socket_backlog_sheds_and_counts_the_batch() {
    for flavor in FLAVORS {
        let mut db = mk(flavor, 99);
        db.apply_config(&[], ApplyMode::SocketActivation);
        // The listening socket buffers 4,096 batches.
        for _ in 0..4_096 {
            assert!(matches!(db.submit(&point_query(), 1), SubmitResult::Queued));
        }
        let before = db.metrics().get(MetricId::QueriesDropped);
        assert!(
            matches!(
                db.submit(&point_query(), 7),
                SubmitResult::Saturated { dropped: 7 }
            ),
            "{flavor}: a full backlog must report the batch as shed"
        );
        assert_eq!(
            db.metrics().get(MetricId::QueriesDropped),
            before + 7.0,
            "{flavor}: the shed batch counts as dropped"
        );
    }
}

#[test]
fn a_crash_during_a_stall_counts_the_lost_backlog_as_dropped() {
    for flavor in FLAVORS {
        let mut db = mk(flavor, 99);
        db.apply_config(&[], ApplyMode::SocketActivation);
        let executed = db.metrics().get(MetricId::QueriesExecuted);
        let dropped = db.metrics().get(MetricId::QueriesDropped);
        assert!(matches!(
            db.submit(&point_query(), 50),
            SubmitResult::Queued
        ));
        db.crash();
        for _ in 0..15 {
            db.tick(1_000);
        }
        let executed = db.metrics().get(MetricId::QueriesExecuted) - executed;
        let dropped = db.metrics().get(MetricId::QueriesDropped) - dropped;
        assert_eq!(
            executed + dropped,
            50.0,
            "{flavor}: every queued query runs or counts as dropped \
             ({executed} executed, {dropped} dropped)"
        );
    }
}
