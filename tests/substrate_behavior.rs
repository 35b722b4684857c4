//! Regression pins for the simulator's calibrated physics — the causal
//! links every figure depends on. If one of these breaks, some figure's
//! shape will silently degrade, so they are asserted here as integration
//! tests.

use autodbaas::prelude::*;
use autodbaas::simdb::{MetricId, QueryKind};
use rand::rngs::StdRng;
use rand::SeedableRng;

const GIB: u64 = 1024 * 1024 * 1024;

fn drive_mix(db: &mut SimDatabase, wl: &dyn QuerySource, rng: &mut StdRng, secs: u64, rate: u64) {
    for _ in 0..secs {
        for _ in 0..16 {
            let q = wl.next_query(rng);
            let _ = db.submit(&q, (rate / 16).max(1));
        }
        db.tick(1_000);
    }
}

fn hit_ratio(db: &SimDatabase) -> f64 {
    let h = db.metrics().get(MetricId::BlksHit);
    let r = db.metrics().get(MetricId::BlksRead);
    if h + r == 0.0 {
        1.0
    } else {
        h / (h + r)
    }
}

/// Locality drives buffer hit ratios: TPCC (hot recent orders) must cache
/// far better than Wikipedia (long-tail reads) at the same buffer size.
#[test]
fn locality_separates_workload_hit_ratios() {
    let mk = |wl: &MixWorkload, rate: u64, seed: u64| {
        let mut db = SimDatabase::new(
            DbFlavor::Postgres,
            InstanceType::M4Large,
            DiskKind::Ssd,
            wl.catalog().clone(),
            seed,
        );
        let buffer = db.planner().roles().buffer_pool;
        db.set_knob_direct(buffer, 2.0 * GIB as f64);
        let mut rng = StdRng::seed_from_u64(seed ^ 5);
        drive_mix(&mut db, wl, &mut rng, 15 * 60, rate);
        hit_ratio(&db)
    };
    let tpcc_ratio = mk(&tpcc(26.0), 1_600, 1);
    let wiki_ratio = mk(&wikipedia(12.0), 800, 2);
    assert!(
        tpcc_ratio > wiki_ratio + 0.15,
        "tpcc {tpcc_ratio:.2} must cache far better than wikipedia {wiki_ratio:.2}"
    );
}

/// The capacity model: offered load beyond the instance's service capacity
/// is shed, and a spilling configuration sheds more than a tuned one.
#[test]
fn saturation_sheds_load_and_tuning_restores_it() {
    let wl = AdulteratedWorkload::new(tpcc(1.0), 0.4);
    let run = |tuned: bool| {
        let mut db = SimDatabase::new(
            DbFlavor::Postgres,
            InstanceType::M4Large,
            DiskKind::Ssd,
            wl.base().catalog().clone(),
            3,
        );
        if tuned {
            let p = db.profile().clone();
            for name in ["work_mem", "maintenance_work_mem", "temp_buffers"] {
                let id = p.lookup(name).unwrap();
                db.set_knob_direct(id, p.spec(id).max.min(1.5 * GIB as f64));
            }
        }
        let mut rng = StdRng::seed_from_u64(4);
        drive_mix(&mut db, &wl, &mut rng, 120, 200);
        (
            db.metrics().get(MetricId::QueriesExecuted),
            db.metrics().get(MetricId::QueriesDropped),
        )
    };
    let (exec_default, dropped_default) = run(false);
    let (exec_tuned, dropped_tuned) = run(true);
    assert!(dropped_default > 0.0, "defaults must shed under spill load");
    assert!(
        exec_tuned > exec_default,
        "tuning must raise completed volume"
    );
    assert!(dropped_tuned < dropped_default);
}

/// WAL-volume checkpoint trigger: shrinking `max_wal_size` forces more
/// frequent checkpoints under the same write load.
#[test]
fn wal_trigger_controls_checkpoint_cadence() {
    let wl = tpcc(1.0);
    let run = |max_wal_gb: f64| {
        let mut db = SimDatabase::new(
            DbFlavor::Postgres,
            InstanceType::M4XLarge,
            DiskKind::Ssd,
            wl.catalog().clone(),
            5,
        );
        let p = db.profile().clone();
        db.set_knob_direct(p.lookup("checkpoint_timeout").unwrap(), 3_600_000.0);
        db.set_knob_direct(p.lookup("max_wal_size").unwrap(), max_wal_gb * GIB as f64);
        let mut rng = StdRng::seed_from_u64(6);
        drive_mix(&mut db, &wl, &mut rng, 10 * 60, 2_000);
        db.checkpoints_done()
    };
    let small_wal = run(0.05);
    let big_wal = run(16.0);
    assert!(
        small_wal > big_wal,
        "a tiny WAL trigger must checkpoint more often ({small_wal} vs {big_wal})"
    );
    assert!(
        small_wal >= 2,
        "write load must trip the small trigger repeatedly"
    );
}

/// The split-disk layout isolates WAL/stats from the data disk under real
/// production traffic (the §3.2 attribution workaround end to end).
#[test]
fn split_disks_attribute_checkpoint_writes_cleanly() {
    let wl = production();
    let mut db = SimDatabase::new(
        DbFlavor::Postgres,
        InstanceType::M4XLarge,
        DiskKind::Ssd,
        wl.catalog().clone(),
        7,
    );
    db.use_split_disks();
    let mut rng = StdRng::seed_from_u64(8);
    drive_mix(&mut db, &wl, &mut rng, 6 * 60, 800);
    use autodbaas::simdb::disk::WriteSource;
    let data = db.disks().data();
    let aux = db.disks().aux().expect("split layout");
    assert_eq!(data.written_by(WriteSource::Wal), 0.0);
    assert!(aux.written_by(WriteSource::Wal) > 0.0);
    assert!(aux.written_by(WriteSource::Stats) > 0.0);
    assert_eq!(aux.written_by(WriteSource::Checkpoint), 0.0);
    // The data disk only carries the §3.2 trio plus backend evictions.
    assert!(
        data.written_by(WriteSource::Checkpoint) + data.written_by(WriteSource::BgWriter) > 0.0
    );
}

/// The planner-knob landscape: prefetch helps multi-page scans and hurts
/// point reads, so the per-workload optimum genuinely differs — the premise
/// of the Fig. 14 async throttles.
#[test]
fn prefetch_optimum_is_workload_dependent() {
    let profile = KnobProfile::postgres();
    let planner = autodbaas::simdb::Planner::new(profile.clone());
    let mut catalog = autodbaas::simdb::Catalog::new();
    catalog.add_table("t", 10_000_000, 600, 2);

    let cost_at = |q: &QueryProfile, eic: f64| {
        let mut knobs = profile.defaults();
        knobs.set_named(&profile, "effective_io_concurrency", eic);
        let plan = planner.plan(q, &knobs, &catalog);
        planner.true_cost(q, &plan, 0.5, &catalog)
    };

    // A multi-page range read: higher eic must be cheaper.
    let mut range = QueryProfile::new(QueryKind::RangeSelect, 0);
    range.rows_examined = 200; // ~15 pages at 600 B rows
    assert!(cost_at(&range, 64.0) < cost_at(&range, 0.0));

    // A point read: higher eic must be more expensive (cache pollution).
    let point = QueryProfile::new(QueryKind::PointSelect, 0);
    assert!(cost_at(&point, 64.0) > cost_at(&point, 0.0));
}

/// MySQL's tiny default sort buffer spills on sorts PostgreSQL absorbs —
/// the real engine difference behind Fig. 11's TPCC memory bars.
#[test]
fn mysql_defaults_spill_where_postgres_does_not() {
    let catalog = autodbaas::simdb::Catalog::synthetic(4, 1_000_000_000, 150, 2);
    let mut q = QueryProfile::new(QueryKind::OrderBy, 0);
    q.rows_examined = 1_000;
    q.sort_bytes = 600 * 1024; // the paper's ~0.5 MB TPCC sorts

    let pg = SimDatabase::new(
        DbFlavor::Postgres,
        InstanceType::M4Large,
        DiskKind::Ssd,
        catalog.clone(),
        9,
    );
    let my = SimDatabase::new(
        DbFlavor::MySql,
        InstanceType::M4Large,
        DiskKind::Ssd,
        catalog,
        9,
    );
    assert!(
        pg.plan(&q).spill.is_none(),
        "4 MiB work_mem absorbs a 600 KiB sort"
    );
    assert!(
        my.plan(&q).spill.is_some(),
        "256 KiB sort_buffer_size spills it"
    );
}

/// Restart applies cold-start the cache; reloads keep it warm.
#[test]
fn restart_cold_starts_the_cache_reload_does_not() {
    let wl = tpcc(1.0);
    let mut db = SimDatabase::new(
        DbFlavor::Postgres,
        InstanceType::M4XLarge,
        DiskKind::Ssd,
        wl.catalog().clone(),
        11,
    );
    let mut rng = StdRng::seed_from_u64(12);
    drive_mix(&mut db, &wl, &mut rng, 5 * 60, 1_000);
    let warm = hit_ratio(&db);
    assert!(warm > 0.3, "cache should be warm ({warm:.2})");

    // Reload: hit ratio keeps improving (monotone counters, so compare the
    // marginal ratio over the next window).
    let snap = db.metrics_snapshot();
    let _ = db.apply_config(&[], ApplyMode::Reload);
    drive_mix(&mut db, &wl, &mut rng, 60, 1_000);
    let d = db.metrics_snapshot().delta(&snap);
    let reload_ratio = d[MetricId::BlksHit.index()]
        / (d[MetricId::BlksHit.index()] + d[MetricId::BlksRead.index()]).max(1.0);

    // Restart: the marginal ratio right after must be markedly colder.
    let _ = db.apply_config(&[], ApplyMode::Restart);
    for _ in 0..10 {
        db.tick(1_000);
    }
    let snap = db.metrics_snapshot();
    drive_mix(&mut db, &wl, &mut rng, 60, 1_000);
    let d = db.metrics_snapshot().delta(&snap);
    let restart_ratio = d[MetricId::BlksHit.index()]
        / (d[MetricId::BlksHit.index()] + d[MetricId::BlksRead.index()]).max(1.0);
    assert!(
        restart_ratio < reload_ratio,
        "restart ({restart_ratio:.2}) must be colder than reload ({reload_ratio:.2})"
    );
}
