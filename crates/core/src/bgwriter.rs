//! Background-writer throttle detection (§3.2).
//!
//! The detector compares the live database's *checkpointing-per-unit-time
//! to disk-latency ratio* against a baseline taken from the tuner's past
//! experience: the target workload is mapped onto the most similar stored
//! workload, and the baseline is read off that workload's best-throughput
//! sample ("the timestamp value for the most optimal points observed …
//! are captured and … the disk latency readings are collected").
//!
//! The paper's literal rule — throttle when `cpm_A / latency_A >
//! cpm_B / latency_B` — catches over-frequent checkpointing; we add the
//! obvious complementary guard (latency grossly above the baseline at any
//! cadence) because a too-*rare*-but-huge checkpoint also degrades service
//! and the paper's Fig. 5 plots exactly that contrast.

use autodbaas_simdb::{Backend, MetricId, SimDatabase};
use autodbaas_telemetry::{SimTime, MILLIS_PER_MIN};
use autodbaas_tuner::{map_workload, WorkloadRepository};

/// The per-workload optimum the live ratio is compared against.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BgBaseline {
    /// Checkpoints per minute at the best-known configuration.
    pub checkpoints_per_min: f64,
    /// Disk write latency (ms) at that configuration.
    pub disk_latency_ms: f64,
}

impl BgBaseline {
    /// The comparison ratio (cpm / latency).
    pub fn ratio(&self) -> f64 {
        self.checkpoints_per_min / self.disk_latency_ms.max(1e-6)
    }
}

/// Derive a baseline for a live database from the tuner repository: map the
/// database's metric signature onto the most similar stored workload and
/// read the checkpoint cadence and disk latency from its best sample.
/// `window_s` is the observation-window length samples were captured over.
pub fn baseline_from_repo(
    repo: &WorkloadRepository,
    target_signature: &[f64],
    window_s: f64,
) -> Option<BgBaseline> {
    let mapping = map_workload(repo, target_signature, None)?;
    let w = repo.workload(mapping.workload);
    if w.samples.is_empty() {
        return None;
    }
    // Average over the top-quartile samples by objective: a single best
    // sample's checkpoint count over one window is too noisy to be a
    // baseline.
    let mut by_objective: Vec<_> = w.samples.iter().collect();
    by_objective.sort_by(|a, b| {
        b.objective
            .partial_cmp(&a.objective)
            .expect("NaN objective")
    });
    let top = &by_objective[..by_objective.len().div_ceil(4)];
    let idx = |m: &[f64], id: MetricId| m.get(id.index()).copied().unwrap_or(0.0);
    let mut cpm = 0.0;
    let mut latency = 0.0;
    for s in top {
        cpm += (idx(&s.metrics, MetricId::CheckpointsTimed)
            + idx(&s.metrics, MetricId::CheckpointsReq))
            * 60.0
            / window_s.max(1.0);
        latency += idx(&s.metrics, MetricId::DiskWriteLatencyMs);
    }
    cpm /= top.len() as f64;
    latency /= top.len() as f64;
    if latency <= 0.0 {
        return None;
    }
    Some(BgBaseline {
        checkpoints_per_min: cpm,
        disk_latency_ms: latency,
    })
}

/// [`baseline_from_repo`] remembered across one TDE round: the last
/// answer, keyed on the signature's bits, the window and the repository's
/// sample count. Within a round the only repository change is
/// `add_sample`, and each raises the count by one, so an equal key is an
/// equal answer. A memo must not outlive the round it was made for: a
/// repository restored or replaced in between could repeat a count.
#[derive(Debug, Default)]
pub struct BaselineMemo {
    key: Option<(Vec<u64>, u64, usize)>,
    value: Option<BgBaseline>,
}

impl BaselineMemo {
    /// `baseline_from_repo(repo, target_signature, window_s)`, computed
    /// only when the key differs from the last call's.
    pub fn get(
        &mut self,
        repo: &WorkloadRepository,
        target_signature: &[f64],
        window_s: f64,
    ) -> Option<BgBaseline> {
        let hit = self.key.as_ref().is_some_and(|(bits, window, samples)| {
            *samples == repo.total_samples()
                && *window == window_s.to_bits()
                && bits.len() == target_signature.len()
                && bits
                    .iter()
                    .zip(target_signature)
                    .all(|(b, v)| *b == v.to_bits())
        });
        if !hit {
            self.value = baseline_from_repo(repo, target_signature, window_s);
            let mut bits = self.key.take().map(|(bits, ..)| bits).unwrap_or_default();
            bits.clear();
            bits.extend(target_signature.iter().map(|v| v.to_bits()));
            self.key = Some((bits, window_s.to_bits(), repo.total_samples()));
        }
        self.value
    }
}

/// A background-writer throttle finding.
#[derive(Debug, Clone, Copy)]
pub struct BgFinding {
    /// Live checkpoints per minute.
    pub checkpoints_per_min: f64,
    /// Live mean disk latency over the window, ms.
    pub disk_latency_ms: f64,
    /// The baseline compared against.
    pub baseline: BgBaseline,
}

/// Stateful detector (tracks the checkpoint counter between runs).
#[derive(Debug, Clone, Default)]
pub struct BgwriterDetector {
    last_checkpoints: u64,
    last_run_at: SimTime,
    /// Latency-excess multiple that triggers the guard rule.
    latency_guard: f64,
}

impl BgwriterDetector {
    /// New detector; `latency_guard` defaults to 2× baseline.
    pub fn new() -> Self {
        Self {
            last_checkpoints: 0,
            last_run_at: 0,
            latency_guard: 2.0,
        }
    }

    /// Run the detector over the window since the last run. Returns a
    /// finding when the live ratio exceeds the baseline's or the latency
    /// guard fires.
    ///
    /// The data disk's latency samples from before `now` are dropped once
    /// read: the next run reads from `now` on, so the sample taken at `now`
    /// stays. A run over an empty window returns before reading and drops
    /// nothing, and neither does a skipped run, so a longer window stays
    /// whole.
    pub fn detect(&mut self, db: &mut SimDatabase, baseline: BgBaseline) -> Option<BgFinding> {
        let now = db.now();
        if now <= self.last_run_at {
            return None;
        }
        let latency = db
            .disks()
            .data()
            .latency_series()
            .mean_since(self.last_run_at);
        db.disks_mut().forget_data_latency_before(now);
        self.judge(now, db.checkpoints_done(), latency, baseline)
    }

    /// The rules over the window `(last run, now]`, given the checkpoint
    /// counter at `now` and the mean disk latency read over the window;
    /// the window then closes at `now`.
    fn judge(
        &mut self,
        now: SimTime,
        checkpoints_now: u64,
        latency: f64,
        baseline: BgBaseline,
    ) -> Option<BgFinding> {
        let window_ms = now - self.last_run_at;
        let delta = checkpoints_now.saturating_sub(self.last_checkpoints);
        let cpm = delta as f64 * MILLIS_PER_MIN as f64 / window_ms as f64;
        self.last_checkpoints = checkpoints_now;
        self.last_run_at = now;
        if latency <= 0.0 {
            return None;
        }

        let live_ratio = cpm / latency.max(1e-6);
        // The ratio rule only indicts genuinely *more frequent* checkpointing
        // than the mapped optimum — a quiet database with low latency has a
        // high ratio too, and must not fire.
        let ratio_rule =
            live_ratio > baseline.ratio() && cpm > baseline.checkpoints_per_min * 1.2 && delta > 0;
        let guard_rule = latency > baseline.disk_latency_ms * self.latency_guard;
        if ratio_rule || guard_rule {
            Some(BgFinding {
                checkpoints_per_min: cpm,
                disk_latency_ms: latency,
                baseline,
            })
        } else {
            None
        }
    }
}

use autodbaas_snapshot::snap_struct;

snap_struct!(BgwriterDetector {
    last_checkpoints,
    last_run_at,
    latency_guard
});

#[cfg(test)]
mod tests {
    use super::*;
    use autodbaas_simdb::{
        Catalog, DbFlavor, DiskKind, InstanceType, QueryKind, QueryProfile, SimDatabase,
    };
    use autodbaas_tuner::{Sample, SampleQuality};
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn db() -> SimDatabase {
        let catalog = Catalog::synthetic(4, 1_000_000_000, 150, 2);
        SimDatabase::new(
            DbFlavor::Postgres,
            InstanceType::M4Large,
            DiskKind::Ssd,
            catalog,
            3,
        )
    }

    /// Drive a write-heavy load for `secs` seconds.
    fn run_writes(d: &mut SimDatabase, secs: u64, rows: u64) {
        let mut q = QueryProfile::new(QueryKind::Insert, 0);
        q.rows_written = rows;
        for _ in 0..secs {
            d.submit(&q, 200);
            d.tick(1_000);
        }
    }

    fn tuned_baseline() -> BgBaseline {
        BgBaseline {
            checkpoints_per_min: 0.2,
            disk_latency_ms: 6.5,
        }
    }

    #[test]
    fn badly_tuned_checkpointing_throttles() {
        let mut d = db();
        let p = d.profile().clone();
        // Pathological: checkpoint every 30 s, burst it all at once.
        d.set_knob_direct(p.lookup("checkpoint_timeout").unwrap(), 30_000.0);
        d.set_knob_direct(p.lookup("checkpoint_completion_target").unwrap(), 0.1);
        d.set_knob_direct(p.lookup("bgwriter_lru_maxpages").unwrap(), 0.0);
        let mut det = BgwriterDetector::new();
        run_writes(&mut d, 300, 20);
        let finding = det.detect(&mut d, tuned_baseline());
        assert!(
            finding.is_some(),
            "30 s checkpoints must out-ratio a tuned baseline"
        );
        let f = finding.unwrap();
        assert!(f.checkpoints_per_min > tuned_baseline().checkpoints_per_min);
    }

    #[test]
    fn well_tuned_database_stays_quiet() {
        let mut d = db();
        let p = d.profile().clone();
        // Gentle: long timeout, wide spread, active bgwriter.
        d.set_knob_direct(p.lookup("checkpoint_timeout").unwrap(), 900_000.0);
        d.set_knob_direct(p.lookup("checkpoint_completion_target").unwrap(), 0.9);
        d.set_knob_direct(p.lookup("bgwriter_lru_maxpages").unwrap(), 800.0);
        d.set_knob_direct(
            p.lookup("max_wal_size").unwrap(),
            8.0 * 1024.0 * 1024.0 * 1024.0,
        );
        let mut det = BgwriterDetector::new();
        run_writes(&mut d, 300, 5);
        // Baseline measured generously above this machine's idle latency.
        let base = BgBaseline {
            checkpoints_per_min: 1.0,
            disk_latency_ms: 6.5,
        };
        assert!(det.detect(&mut d, base).is_none());
    }

    /// The detector before it dropped what it read: the same rules, over
    /// the mean of a ring that nothing trims.
    fn detect_untrimmed(
        det: &mut BgwriterDetector,
        db: &SimDatabase,
        baseline: BgBaseline,
    ) -> Option<BgFinding> {
        let now = db.now();
        if now <= det.last_run_at {
            return None;
        }
        let series = db.disks().data().latency_series();
        let latency = series.mean_since(det.last_run_at);
        det.judge(now, db.checkpoints_done(), latency, baseline)
    }

    /// A finding's four numbers as bits, so equal means bit-identical.
    fn finding_bits(f: Option<BgFinding>) -> Option<[u64; 4]> {
        f.map(|f| {
            [
                f.checkpoints_per_min.to_bits(),
                f.disk_latency_ms.to_bits(),
                f.baseline.checkpoints_per_min.to_bits(),
                f.baseline.disk_latency_ms.to_bits(),
            ]
        })
    }

    proptest! {
        /// Dropping the latency samples a run has read changes no answer.
        /// Two instances take the same random loads, tick lengths and quiet
        /// stretches; runs come at random times, so some windows span many
        /// skipped runs, some outgrow the ring's capacity (1 ms ticks), and
        /// some are empty (a run right after a run, or before any tick).
        /// Every `detect` on the trimmed instance returns, bit for bit,
        /// what a twin detector returns from the mean of the untrimmed
        /// instance's ring.
        #[test]
        fn trimming_read_latency_changes_no_finding(seed in 0u64..u64::MAX) {
            let mut rng = StdRng::seed_from_u64(seed);
            let catalog = Catalog::synthetic(4, 8_000_000, 150, 3);
            let make = || {
                let mut d = SimDatabase::new(
                    DbFlavor::Postgres,
                    InstanceType::M4Large,
                    DiskKind::Ssd,
                    catalog.clone(),
                    seed,
                );
                // The timeout's floor, so windows see checkpoints come and go.
                let timeout = d.profile().lookup("checkpoint_timeout").unwrap();
                d.set_knob_direct(timeout, 30_000.0);
                d
            };
            let (mut db, mut untrimmed) = (make(), make());
            let (mut det, mut reference) = (BgwriterDetector::new(), BgwriterDetector::new());
            for _ in 0..12 {
                match rng.gen_range(0..6) {
                    0 | 1 => {
                        let mut q = QueryProfile::new(QueryKind::Insert, rng.gen_range(0..4));
                        q.rows_written = rng.gen_range(1..50);
                        let count = rng.gen_range(1..300);
                        let dt = [1, 250, 1_000][rng.gen_range(0..3)];
                        for d in [&mut db, &mut untrimmed] {
                            d.submit(&q, count);
                            d.tick(dt);
                        }
                    }
                    2 | 3 => {
                        let (n, dt) = (rng.gen_range(0..200), [250, 1_000][rng.gen_range(0..2)]);
                        for d in [&mut db, &mut untrimmed] {
                            d.tick_many(n, dt);
                        }
                    }
                    4 => {
                        let n = rng.gen_range(16_000..20_000);
                        for d in [&mut db, &mut untrimmed] {
                            d.tick_many(n, 1);
                        }
                    }
                    _ => {}
                }
                if rng.gen_bool(0.5) {
                    for _ in 0..[1, 1, 1, 2][rng.gen_range(0..4)] {
                        let baseline = BgBaseline {
                            checkpoints_per_min: rng.gen_range(0.0..3.0),
                            disk_latency_ms: rng.gen_range(0.05..8.0),
                        };
                        let want = detect_untrimmed(&mut reference, &untrimmed, baseline);
                        let got = det.detect(&mut db, baseline);
                        prop_assert_eq!(finding_bits(got), finding_bits(want), "seed {}", seed);
                    }
                }
            }
        }
    }

    #[test]
    fn baseline_from_repo_reads_best_sample() {
        let mut repo = WorkloadRepository::new();
        let id = repo.register("tpcc-offline", true);
        let mut metrics = vec![0.0; MetricId::ALL.len()];
        metrics[MetricId::CheckpointsTimed.index()] = 2.0;
        metrics[MetricId::CheckpointsReq.index()] = 1.0;
        metrics[MetricId::DiskWriteLatencyMs.index()] = 6.5;
        metrics[MetricId::WalBytes.index()] = 1e7;
        repo.add_sample(
            id,
            Sample {
                config: vec![0.5],
                metrics: metrics.clone(),
                objective: 900.0,
                quality: SampleQuality::High,
            },
        );
        // 3 checkpoints over a 180 s window = 1/min.
        let base = baseline_from_repo(&repo, &metrics, 180.0).unwrap();
        assert!((base.checkpoints_per_min - 1.0).abs() < 1e-9);
        assert!((base.disk_latency_ms - 6.5).abs() < 1e-9);
    }

    #[test]
    fn baseline_requires_latency_reading() {
        let mut repo = WorkloadRepository::new();
        let id = repo.register("w", true);
        repo.add_sample(
            id,
            Sample {
                config: vec![0.5],
                metrics: vec![0.0; MetricId::ALL.len()],
                objective: 1.0,
                quality: SampleQuality::High,
            },
        );
        assert!(baseline_from_repo(&repo, &vec![0.0; MetricId::ALL.len()], 60.0).is_none());
    }

    #[test]
    fn ratio_helper() {
        let b = BgBaseline {
            checkpoints_per_min: 2.0,
            disk_latency_ms: 4.0,
        };
        assert!((b.ratio() - 0.5).abs() < 1e-12);
    }

    proptest! {
        /// Over a round-like run — signatures drawn from a small pool, so
        /// keys repeat, interleaved with samples that move the answer —
        /// `BaselineMemo::get` answers what `baseline_from_repo` does, and
        /// every call leaves its own key behind: a call whose key differs
        /// from the last one's (`0.0` against `-0.0` included, which no
        /// float comparison tells apart) recomputes instead of hitting.
        #[test]
        fn memo_answers_what_the_uncached_baseline_does(seed in 0u64..u64::MAX) {
            let mut rng = StdRng::seed_from_u64(seed);
            let n = MetricId::ALL.len();
            let mut repo = WorkloadRepository::new();
            let ids = [repo.register("offline", true), repo.register("online", false)];
            let signature = |fill: f64, first: f64| {
                let mut v = vec![fill; n];
                v[0] = first;
                v
            };
            let pool = [
                signature(1.0, 0.0),
                signature(1.0, -0.0),
                signature(0.0, 0.0),
                signature(-0.0, 0.0),
                signature(40.0, 7.0),
            ];
            let mut memo = BaselineMemo::default();
            let mut hits = 0;
            for _ in 0..40 {
                if rng.gen_bool(0.3) {
                    let mut metrics: Vec<f64> = (0..n).map(|_| rng.gen_range(0.0..50.0)).collect();
                    metrics[MetricId::CheckpointsTimed.index()] = rng.gen_range(0..4) as f64;
                    metrics[MetricId::DiskWriteLatencyMs.index()] = rng.gen_range(0.0..12.0);
                    repo.add_sample(
                        ids[rng.gen_range(0..2)],
                        Sample {
                            config: vec![0.5],
                            metrics,
                            objective: rng.gen_range(0.0..1_000.0),
                            quality: SampleQuality::High,
                        },
                    );
                }
                let sig = &pool[rng.gen_range(0..pool.len())];
                let window_s: f64 = [60.0, 180.0][rng.gen_range(0..2)];
                let key = (
                    sig.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                    window_s.to_bits(),
                    repo.total_samples(),
                );
                // Nodes sharing a signature ask back to back.
                for _ in 0..rng.gen_range(1..4) {
                    let before = memo.key.clone();
                    let got = memo.get(&repo, sig, window_s);
                    prop_assert_eq!(got, baseline_from_repo(&repo, sig, window_s));
                    prop_assert_eq!(memo.key.as_ref(), Some(&key));
                    hits += usize::from(before.as_ref() == Some(&key));
                }
            }
            prop_assert!(hits > 0);
        }
    }
}
