//! A full day on the production trace: the whole stack in one run.
//!
//! One PostgreSQL service runs the synthetic 33-day customer workload
//! (Fig. 8's diurnal curve). The TDE runs every 5 minutes; a learned
//! (future-work) detector shadows the rule engine; at the end the day's
//! operational report prints — the view a PaaS operator would get — and
//! its two headline claims are checked.
//!
//! ```sh
//! cargo run --release --example production_day
//! ```

use autodbaas::prelude::*;
use autodbaas::tde::{LearnedDetector, TdeConfig};
use autodbaas::telemetry::MILLIS_PER_MIN;
use rand::rngs::StdRng;

fn main() {
    let wl = production();
    let mut db = SimDatabase::new(
        DbFlavor::Postgres,
        InstanceType::M4XLarge,
        DiskKind::Ssd,
        wl.catalog().clone(),
        42,
    );
    let profile = db.profile().clone();
    // PaaS provisioning: buffer at 25% of RAM.
    let buffer = db.planner().roles().buffer_pool;
    db.set_knob_direct(buffer, InstanceType::M4XLarge.mem_bytes() * 0.25);

    let mut tde = Tde::new(&profile, TdeConfig::default(), 7);
    let mut learned = LearnedDetector::new(&profile, 9);
    let mut rng: StdRng = SeedableRng::seed_from_u64(1);

    println!("== One production day (m4.xlarge, PostgreSQL profile) ==");
    println!(
        "{:<6} {:>8} {:>10} {:>7} {:>14}",
        "hour", "qps", "throttles", "agree", "disk lat (ms)"
    );

    let window_ms = 5 * MILLIS_PER_MIN;
    let mut hourly_qps = Vec::new();
    let mut total_requests = 0u64;
    for hour in 0..24u64 {
        let hour_start_snap = db.metrics_snapshot();
        let mut throttles = 0;
        for _ in 0..12 {
            // 12 five-minute windows per hour.
            let win_snap = db.metrics_snapshot();
            let win_start = db.now();
            while db.now() < win_start + window_ms {
                let rate = wl.default_arrival().rate_at(db.now());
                for _ in 0..12 {
                    let q = wl.next_query(&mut rng);
                    let _ = db.submit(&q, ((rate / 12.0) as u64).max(1));
                }
                db.tick(1_000);
            }
            let report = tde.run(&mut db, None);
            throttles += report.throttles.len();
            if report.tuning_request {
                total_requests += 1;
            }
            let delta = db.metrics_snapshot().delta(&win_snap);
            learned.observe(db.knobs(), &delta, &report);
        }
        let delta = db.metrics_snapshot().delta(&hour_start_snap);
        let qps = delta[autodbaas::simdb::MetricId::QueriesExecuted.index()] / 3_600.0;
        hourly_qps.push(qps);
        println!(
            "{:<6} {:>8.0} {:>10} {:>7.2} {:>14.2}",
            format!("{hour:02}:00"),
            qps,
            throttles,
            learned.recent_agreement(),
            db.disks().data().current_latency_ms(),
        );
    }

    let peak_hour = hourly_qps
        .iter()
        .enumerate()
        .max_by(|a, b| a.1.partial_cmp(b.1).expect("finite"))
        .map(|(h, _)| h)
        .unwrap_or(0);
    println!("\n--- end-of-day report ---");
    println!("peak hour: {peak_hour}:00 (expected inside the 8-11 AM surge)");
    println!("tuning requests sent: {total_requests} (vs 288 under 5-min polling)");
    println!(
        "throttles by class: memory={} bgwriter={} async={}",
        tde.throttle_counts()[0],
        tde.throttle_counts()[1],
        tde.throttle_counts()[2]
    );
    println!(
        "learned-TDE shadow agreement: {:.0}% over {} windows",
        learned.agreement() * 100.0,
        learned.observations()
    );
    println!(
        "WAL segments recycled: {}, checkpoints: {}",
        db.wal().recycled_segments(),
        db.checkpoints_done()
    );
    assert!(
        (8..=11).contains(&peak_hour),
        "peak hour {peak_hour}:00 is outside the 8-11 AM surge"
    );
    assert!(
        total_requests < 288,
        "{total_requests} tuning requests is no better than 5-min polling"
    );
}
