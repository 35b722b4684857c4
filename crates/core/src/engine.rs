//! The Throttling Detection Engine (TDE) — the paper's central
//! contribution.
//!
//! The TDE "gets periodically executed on the database master VM (like a
//! plugin)". Each run it:
//!
//! 1. takes the window the engine summarised as its queries ran — per-class
//!    counts for the class histogram and a uniform sample of the window's
//!    query instances;
//! 2. re-plans the sampled queries to find work-area **spills** (memory
//!    detector), passing repeated throttles through the **entropy filter**
//!    to separate mis-tuned knobs from undersized instances;
//! 3. gauges the **working set** against the restart-bound buffer knob
//!    (finding reserved for the maintenance window);
//! 4. compares checkpoint cadence / disk latency against the tuner-mapped
//!    **baseline** (background-writer detector);
//! 5. on its own 2–4-minute cadence, advances the **MDP** over the
//!    async/planner knobs and throttles on demonstrated profit.
//!
//! A *tuning request* is emitted only when throttles fire — that event-
//! driven break from periodic polling is exactly what Fig. 9 measures.

use crate::bgwriter::{BaselineMemo, BgwriterDetector};
use crate::classify::ClassHistogram;
use crate::filter::{EntropyFilter, FilterDecision};
use crate::mdp::MdpEngine;
use crate::memory::{check_working_set, detect_spills, knob_at_cap, WorkingSetFinding};
use autodbaas_simdb::{Backend, KnobClass, KnobId, MetricId, QueryWindow, SimDatabase, SpillKind};
use autodbaas_telemetry::{SimTime, MILLIS_PER_MIN};
use autodbaas_tuner::WorkloadRepository;
use rand::rngs::StdRng;
use rand::{RngCore, SeedableRng};

/// Why a throttle fired.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ThrottleReason {
    /// A sampled query spills the given work area.
    MemorySpill(SpillKind),
    /// The gauged working set exceeds the buffer-pool knob.
    WorkingSetExceedsBuffer,
    /// The §4 memory budget `A+B+C+D` exceeds the instance cap: the OS is
    /// swapping. §3.1's end state of "increasing the knob values to the
    /// maximum" — only rebalancing (or a bigger plan) can help.
    MemoryOversubscribed,
    /// The buffer hit ratio over the window fell below the floor — the
    /// read set does not fit (a memory throttle on the buffer knob).
    BufferHitRatio,
    /// Checkpoint-cadence/latency ratio above the mapped baseline.
    CheckpointLatencyRatio,
    /// The MDP demonstrated a planner-knob profit.
    PlannerProfit,
}

/// One throttle signal — the unit Fig. 10/11/14 count.
#[derive(Debug, Clone, Copy)]
pub struct ThrottleSignal {
    /// The knob indicted.
    pub knob: KnobId,
    /// Its class.
    pub class: KnobClass,
    /// Why.
    pub reason: ThrottleReason,
    /// When (sim time).
    pub at: SimTime,
}

/// What one TDE run concluded.
#[derive(Debug, Clone, Default)]
pub struct TdeReport {
    /// Throttles raised this run (after filtration).
    pub throttles: Vec<ThrottleSignal>,
    /// Whether a tuning request should go to the config director.
    pub tuning_request: bool,
    /// Whether a hardware plan upgrade was requested instead.
    pub plan_upgrade: bool,
    /// Buffer-pool findings reserved for the maintenance window.
    pub buffer_findings: Vec<WorkingSetFinding>,
}

/// Observation-window seconds assumed for repository baselines.
const BASELINE_WINDOW_S: f64 = 60.0;

/// TDE runs per working-set gauging epoch (the Curino-style gauge \[5\]
/// accumulates across several observation windows before resetting).
const WS_EPOCH_RUNS: u32 = 10;

/// Buffer hit ratio below which a memory throttle fires on the buffer knob.
const HIT_RATIO_FLOOR: f64 = 0.45;

/// TDE configuration.
#[derive(Debug, Clone)]
pub struct TdeConfig {
    /// Sampled queries per observation window.
    pub reservoir_capacity: usize,
    /// Toggle for the filter (ablation).
    pub enable_entropy_filter: bool,
    /// MDP cadence ("the TDE triggers the MDP at interval of 2 to 4
    /// minutes").
    pub mdp_interval_ms: u64,
}

impl Default for TdeConfig {
    fn default() -> Self {
        Self {
            reservoir_capacity: 64,
            enable_entropy_filter: true,
            mdp_interval_ms: 3 * MILLIS_PER_MIN,
        }
    }
}

/// The engine itself; one per database instance.
///
/// # Examples
///
/// ```
/// use autodbaas_core::{Tde, TdeConfig};
/// use autodbaas_simdb::{Backend, Catalog, DbFlavor, DiskKind, InstanceType, SimDatabase};
///
/// let catalog = Catalog::synthetic(4, 100_000_000, 150, 1);
/// let mut db = SimDatabase::new(
///     DbFlavor::Postgres, InstanceType::M4Large, DiskKind::Ssd, catalog, 42,
/// );
/// let mut tde = Tde::new(&db.profile().clone(), TdeConfig::default(), 7);
/// // An idle database raises no tuning request.
/// db.tick(60_000);
/// let report = tde.run(&mut db, None);
/// assert!(!report.tuning_request);
/// ```
#[derive(Debug)]
pub struct Tde {
    cfg: TdeConfig,
    window: QueryWindow,
    hist: ClassHistogram,
    filter: EntropyFilter,
    bg_detector: BgwriterDetector,
    mdp: MdpEngine,
    mdp_last_run: SimTime,
    rng: StdRng,
    class_counts: [u64; 3],
    ws_run_counter: u32,
    window_snapshot: Option<autodbaas_simdb::MetricsSnapshot>,
    total_tuning_requests: u64,
    total_plan_upgrades: u64,
    total_suppressed: u64,
}

impl Tde {
    /// Build a TDE for a database's knob profile.
    pub fn new(profile: &autodbaas_simdb::KnobProfile, cfg: TdeConfig, seed: u64) -> Self {
        Self {
            window: QueryWindow::new(cfg.reservoir_capacity, seed),
            hist: ClassHistogram::new(),
            filter: EntropyFilter::default(),
            bg_detector: BgwriterDetector::new(),
            mdp: MdpEngine::new(profile),
            cfg,
            mdp_last_run: 0,
            rng: StdRng::seed_from_u64(seed),
            class_counts: [0; 3],
            ws_run_counter: 0,
            window_snapshot: None,
            total_tuning_requests: 0,
            total_plan_upgrades: 0,
            total_suppressed: 0,
        }
    }

    /// Cumulative throttles per knob class, `[memory, bgwriter, async]` —
    /// the paper's proposed evaluation metric.
    pub fn throttle_counts(&self) -> [u64; 3] {
        self.class_counts
    }

    /// Tuning requests emitted so far.
    pub fn tuning_requests(&self) -> u64 {
        self.total_tuning_requests
    }

    /// Plan-upgrade requests emitted so far.
    pub fn plan_upgrades(&self) -> u64 {
        self.total_plan_upgrades
    }

    /// Throttle windows suppressed by the rule-based cap filter (§3.1's
    /// first case).
    pub fn suppressed(&self) -> u64 {
        self.total_suppressed
    }

    /// The MDP (learning curves for Fig. 6).
    pub fn mdp(&self) -> &MdpEngine {
        &self.mdp
    }

    /// Class histogram over the recent window.
    pub fn histogram(&self) -> &ClassHistogram {
        &self.hist
    }

    /// One periodic TDE run against `db` (any flavor),
    /// optionally consulting the tuner repository for the background-writer
    /// baseline.
    pub fn run(&mut self, db: &mut SimDatabase, repo: Option<&WorkloadRepository>) -> TdeReport {
        self.run_in_round(db, repo, &mut BaselineMemo::default())
    }

    /// [`Tde::run`] as one of a fleet round's runs, all against the same
    /// repository: `memo` carries the background-writer baseline from one
    /// node's run to the next, so nodes with one signature map it once.
    /// Pass the same memo to every run of one round and to no other.
    pub fn run_in_round(
        &mut self,
        db: &mut SimDatabase,
        repo: Option<&WorkloadRepository>,
        memo: &mut BaselineMemo,
    ) -> TdeReport {
        self.ingest(db);
        self.detect(db, repo, memo)
    }

    /// Step 1 of a run: take the window the engine summarised since the
    /// last run, seeding the next one, and add its class counts to the
    /// histogram. The sample covers the *current* observation window only —
    /// a stale sample would keep indicting queries that stopped arriving.
    fn ingest(&mut self, db: &mut SimDatabase) {
        // Decay the histogram so the window tracks the *current* pattern
        // (Fig. 14's point is quick reaction to workload change).
        self.hist.decay_half();
        let seed = self.rng.next_u64();
        self.window = db.take_query_window(self.cfg.reservoir_capacity, seed);
        self.hist.add_counts(self.window.counts());
    }

    /// Steps 2–5 of a run, over the window [`ingest`](Self::ingest) took
    /// and the histogram it fed.
    fn detect(
        &mut self,
        db: &mut SimDatabase,
        repo: Option<&WorkloadRepository>,
        memo: &mut BaselineMemo,
    ) -> TdeReport {
        let now = db.now();
        let mut report = TdeReport::default();
        let sampled = self.window.sample();

        // --- 2. Memory detector + entropy filtration --------------------
        let spills = detect_spills(db, sampled);
        // Oversubscription: work areas were pushed past the instance's
        // memory; there may be no spills left, but the machine is swapping.
        let swapping = db.swap_factor() > 1.05 && self.window.seen() > 0;
        let throttled = !spills.is_empty() || swapping;
        let any_at_cap = swapping || spills.iter().any(|f| knob_at_cap(db, f.knob));
        let decision = if self.cfg.enable_entropy_filter {
            self.filter.observe(throttled, any_at_cap, &self.hist)
        } else {
            FilterDecision::Forward
        };
        match decision {
            FilterDecision::PlanUpgrade => {
                report.plan_upgrade = true;
                self.total_plan_upgrades += 1;
            }
            FilterDecision::Suppress => {
                self.total_suppressed += 1;
            }
            FilterDecision::Forward | FilterDecision::Hold => {
                // Dedup: one throttle per knob per run.
                let mut seen: Vec<KnobId> = Vec::new();
                for f in &spills {
                    if seen.contains(&f.knob) {
                        continue;
                    }
                    seen.push(f.knob);
                    report.throttles.push(ThrottleSignal {
                        knob: f.knob,
                        class: KnobClass::Memory,
                        reason: ThrottleReason::MemorySpill(f.kind),
                        at: now,
                    });
                }
                if swapping {
                    report.throttles.push(ThrottleSignal {
                        knob: db.planner().roles().work_area,
                        class: KnobClass::Memory,
                        reason: ThrottleReason::MemoryOversubscribed,
                        at: now,
                    });
                }
            }
        }

        // --- 3. Working-set gauge (maintenance-window finding) ----------
        // Evaluated once per gauging epoch so a single oversized working
        // set yields one throttle per epoch, not one per window.
        self.ws_run_counter += 1;
        let reset_epoch = self.ws_run_counter >= WS_EPOCH_RUNS;
        if reset_epoch {
            self.ws_run_counter = 0;
        }
        if let Some(ws) = (reset_epoch).then(|| check_working_set(db, true)).flatten() {
            // The buffer knob is restart-bound, so this throttle is
            // *collected* by the config director for the maintenance window
            // rather than triggering a tuner recommendation — but it still
            // counts in the per-class throttle census (Figs. 10/11).
            report.throttles.push(ThrottleSignal {
                knob: ws.knob,
                class: KnobClass::Memory,
                reason: ThrottleReason::WorkingSetExceedsBuffer,
                at: now,
            });
            report.buffer_findings.push(ws);
        }

        // --- 3b. Buffer hit-ratio floor ----------------------------------
        // Read-heavy workloads whose hot set outgrows the buffer show up as
        // a depressed hit ratio rather than a spill; that is a memory-class
        // throttle on the (restart-bound) buffer knob.
        let signature = {
            let snap = db.metrics_snapshot();
            let earlier = self.window_snapshot.as_ref().unwrap_or(&snap);
            let hits = snap.delta_of(earlier, MetricId::BlksHit);
            let reads = snap.delta_of(earlier, MetricId::BlksRead);
            let total = hits + reads;
            if total > 1_000.0 {
                let ratio = hits / total;
                if ratio < HIT_RATIO_FLOOR {
                    report.throttles.push(ThrottleSignal {
                        knob: db.planner().roles().buffer_pool,
                        class: KnobClass::Memory,
                        reason: ThrottleReason::BufferHitRatio,
                        at: now,
                    });
                }
            }
            self.window_snapshot.insert(snap).as_vec()
        };

        // --- 4. Background-writer detector -------------------------------
        // An empty repository cannot map a baseline, so skip outright —
        // healthy gated fleets run for hours with zero captured samples.
        // The signature is the §3b snapshot, borrowed where it is stored:
        // nothing touches `db` between the two sections.
        if let Some(repo) = repo.filter(|r| r.total_samples() > 0) {
            if let Some(baseline) = memo.get(repo, signature, BASELINE_WINDOW_S) {
                if self.bg_detector.detect(db, baseline).is_some() {
                    let knob = db.planner().roles().checkpoint_interval;
                    report.throttles.push(ThrottleSignal {
                        knob,
                        class: KnobClass::BackgroundWriter,
                        reason: ThrottleReason::CheckpointLatencyRatio,
                        at: now,
                    });
                }
            }
        }

        // --- 5. MDP over async/planner knobs ------------------------------
        if now.saturating_sub(self.mdp_last_run) >= self.cfg.mdp_interval_ms && !sampled.is_empty()
        {
            self.mdp_last_run = now;
            let mut knobs = db.knobs().clone();
            let outcomes = self.mdp.step(db, &mut knobs, sampled, &mut self.rng);
            for o in &outcomes {
                // Accepted moves persist on the live instance (the probe is
                // a real knob change, reload-class by construction).
                if knobs.get(o.knob) != db.knobs().get(o.knob) {
                    db.set_knob_direct(o.knob, knobs.get(o.knob));
                }
                if o.throttle {
                    report.throttles.push(ThrottleSignal {
                        knob: o.knob,
                        class: KnobClass::AsyncPlanner,
                        reason: ThrottleReason::PlannerProfit,
                        at: now,
                    });
                }
            }
        }

        // --- Bookkeeping ---------------------------------------------------
        for t in &report.throttles {
            self.class_counts[t.class.index()] += 1;
        }
        // Working-set throttles wait for the maintenance window; everything
        // else asks the tuner now.
        let tunable_now = report.throttles.iter().any(|t| {
            !matches!(
                t.reason,
                ThrottleReason::WorkingSetExceedsBuffer | ThrottleReason::BufferHitRatio
            )
        });
        report.tuning_request = tunable_now && !report.plan_upgrade;
        if report.tuning_request {
            self.total_tuning_requests += 1;
        }
        report
    }
}

/// When the config director asks for recommendations: on throttle events
/// (the paper's approach) or on a fixed period (the baseline it beats).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum TuningPolicy {
    /// Event-driven by TDE throttles.
    TdeDriven,
    /// Fixed-period requests regardless of need (5- or 10-minute periods in
    /// Fig. 9).
    Periodic(u64),
}

impl TuningPolicy {
    /// Should a tuning request fire now?
    pub fn should_request(&self, report: &TdeReport, now: SimTime, last_request: SimTime) -> bool {
        match self {
            TuningPolicy::TdeDriven => report.tuning_request,
            TuningPolicy::Periodic(period) => now.saturating_sub(last_request) >= *period,
        }
    }
}

use autodbaas_snapshot::snap_struct;

snap_struct!(TdeConfig {
    reservoir_capacity,
    enable_entropy_filter,
    mdp_interval_ms
});

snap_struct!(Tde {
    cfg,
    window,
    hist,
    filter,
    bg_detector,
    mdp,
    mdp_last_run,
    rng,
    class_counts,
    ws_run_counter,
    window_snapshot,
    total_tuning_requests,
    total_plan_upgrades,
    total_suppressed
});

use autodbaas_snapshot::{Snap, SnapError, SnapReader, SnapWriter};

impl Snap for ThrottleReason {
    fn encode(&self, w: &mut SnapWriter) {
        match self {
            ThrottleReason::MemorySpill(kind) => {
                0u16.encode(w);
                kind.encode(w);
            }
            ThrottleReason::WorkingSetExceedsBuffer => 1u16.encode(w),
            ThrottleReason::MemoryOversubscribed => 2u16.encode(w),
            ThrottleReason::BufferHitRatio => 3u16.encode(w),
            ThrottleReason::CheckpointLatencyRatio => 4u16.encode(w),
            ThrottleReason::PlannerProfit => 5u16.encode(w),
        }
    }
    fn decode(r: &mut SnapReader) -> Result<Self, SnapError> {
        Ok(match u16::decode(r)? {
            0 => ThrottleReason::MemorySpill(Snap::decode(r)?),
            1 => ThrottleReason::WorkingSetExceedsBuffer,
            2 => ThrottleReason::MemoryOversubscribed,
            3 => ThrottleReason::BufferHitRatio,
            4 => ThrottleReason::CheckpointLatencyRatio,
            5 => ThrottleReason::PlannerProfit,
            t => {
                return Err(SnapError::UnknownTag {
                    what: "ThrottleReason",
                    tag: t.into(),
                })
            }
        })
    }
}

impl Snap for TuningPolicy {
    fn encode(&self, w: &mut SnapWriter) {
        match self {
            TuningPolicy::TdeDriven => 0u16.encode(w),
            TuningPolicy::Periodic(period) => {
                1u16.encode(w);
                period.encode(w);
            }
        }
    }
    fn decode(r: &mut SnapReader) -> Result<Self, SnapError> {
        Ok(match u16::decode(r)? {
            0 => TuningPolicy::TdeDriven,
            1 => TuningPolicy::Periodic(u64::decode(r)?),
            t => {
                return Err(SnapError::UnknownTag {
                    what: "TuningPolicy",
                    tag: t.into(),
                })
            }
        })
    }
}

snap_struct!(ThrottleSignal {
    knob,
    class,
    reason,
    at
});

snap_struct!(TdeReport {
    throttles,
    tuning_request,
    plan_upgrade,
    buffer_findings
});

#[cfg(test)]
mod tests {
    use super::*;
    use autodbaas_simdb::{
        Catalog, DbFlavor, DiskKind, InstanceType, QueryKind, QueryProfile, SimDatabase,
        SubmitResult,
    };
    use autodbaas_snapshot::encode_to_vec;
    use rand::Rng;

    const MIB: u64 = 1024 * 1024;

    fn db() -> SimDatabase {
        let catalog = Catalog::synthetic(6, 2_000_000_000, 150, 2);
        SimDatabase::new(
            DbFlavor::Postgres,
            InstanceType::M4XLarge,
            DiskKind::Ssd,
            catalog,
            77,
        )
    }

    fn run_queries(d: &mut SimDatabase, q: &QueryProfile, n: usize) {
        for _ in 0..n {
            d.submit(q, 1);
            d.tick(100);
        }
    }

    #[test]
    fn clean_workload_raises_no_throttles_and_no_requests() {
        let mut d = db();
        let mut tde = Tde::new(&d.profile().clone(), TdeConfig::default(), 1);
        let q = QueryProfile::new(QueryKind::PointSelect, 0);
        run_queries(&mut d, &q, 50);
        let report = tde.run(&mut d, None);
        assert!(report
            .throttles
            .iter()
            .all(|t| t.class != KnobClass::Memory));
        assert!(!report.plan_upgrade);
    }

    #[test]
    fn spilling_workload_raises_memory_throttle_and_tuning_request() {
        let mut d = db();
        let mut tde = Tde::new(&d.profile().clone(), TdeConfig::default(), 2);
        let mut q = QueryProfile::new(QueryKind::ComplexAggregate, 0);
        q.rows_examined = 100_000;
        q.sort_bytes = 350 * MIB;
        run_queries(&mut d, &q, 30);
        let report = tde.run(&mut d, None);
        assert!(report.throttles.iter().any(|t| t.class == KnobClass::Memory
            && t.reason == ThrottleReason::MemorySpill(SpillKind::WorkMem)));
        assert!(report.tuning_request);
        assert!(tde.throttle_counts()[KnobClass::Memory.index()] >= 1);
        assert_eq!(tde.tuning_requests(), 1);
    }

    #[test]
    fn throttles_stop_after_tuner_fixes_the_knob() {
        let mut d = db();
        let mut tde = Tde::new(&d.profile().clone(), TdeConfig::default(), 3);
        let mut q = QueryProfile::new(QueryKind::OrderBy, 0);
        q.rows_examined = 50_000;
        q.sort_bytes = 64 * MIB;
        run_queries(&mut d, &q, 30);
        let before = tde.run(&mut d, None);
        assert!(before.tuning_request);
        // "Tuner" fixes work_mem.
        let wm = d.profile().lookup("work_mem").unwrap();
        d.set_knob_direct(wm, (256 * MIB) as f64);
        run_queries(&mut d, &q, 30);
        let after = tde.run(&mut d, None);
        assert!(
            !after
                .throttles
                .iter()
                .any(|t| t.reason == ThrottleReason::MemorySpill(SpillKind::WorkMem)),
            "fixed knob must stop memory throttles"
        );
    }

    #[test]
    fn capped_even_workload_escalates_to_plan_upgrade() {
        // Tiny instance + queries from every class at once + knobs at cap.
        let catalog = Catalog::synthetic(6, 2_000_000_000, 150, 2);
        let mut d = SimDatabase::new(
            DbFlavor::Postgres,
            InstanceType::T2Small,
            DiskKind::Ssd,
            catalog,
            9,
        );
        let p = d.profile().clone();
        for name in ["work_mem", "maintenance_work_mem", "temp_buffers"] {
            let id = p.lookup(name).unwrap();
            d.set_knob_direct(id, p.spec(id).max);
        }
        let mut tde = Tde::new(&p, TdeConfig::default(), 4);
        // Evenly mixed demanding queries (high entropy in Shannon terms,
        // low in the paper's orientation).
        let mut queries = Vec::new();
        let mut agg = QueryProfile::new(QueryKind::ComplexAggregate, 0);
        agg.sort_bytes = 5 * 1024 * MIB;
        queries.push(agg);
        let mut ci = QueryProfile::new(QueryKind::CreateIndex, 1);
        ci.maintenance_bytes = 9 * 1024 * MIB;
        queries.push(ci);
        let mut tt = QueryProfile::new(QueryKind::TempTable, 2);
        tt.temp_bytes = 5 * 1024 * MIB;
        queries.push(tt);
        let mut ins = QueryProfile::new(QueryKind::Insert, 3);
        ins.rows_written = 5;
        queries.push(ins);
        queries.push(QueryProfile::new(QueryKind::PointSelect, 4));
        let mut par = QueryProfile::new(QueryKind::RangeSelect, 5);
        par.parallelizable = true;
        par.rows_examined = 500_000;
        queries.push(par);

        let mut upgraded = false;
        for _ in 0..15 {
            for q in &queries {
                for _ in 0..5 {
                    d.submit(q, 1);
                    d.tick(50);
                }
            }
            let r = tde.run(&mut d, None);
            upgraded |= r.plan_upgrade;
        }
        assert!(
            upgraded,
            "cap-limited even workload must request a plan upgrade"
        );
        assert!(tde.plan_upgrades() >= 1);
    }

    #[test]
    fn ablation_disabling_filter_never_upgrades() {
        let catalog = Catalog::synthetic(4, 1_000_000_000, 150, 2);
        let mut d = SimDatabase::new(
            DbFlavor::Postgres,
            InstanceType::T2Small,
            DiskKind::Ssd,
            catalog,
            10,
        );
        let p = d.profile().clone();
        for name in ["work_mem", "maintenance_work_mem", "temp_buffers"] {
            let id = p.lookup(name).unwrap();
            d.set_knob_direct(id, p.spec(id).max);
        }
        let cfg = TdeConfig {
            enable_entropy_filter: false,
            ..TdeConfig::default()
        };
        let mut tde = Tde::new(&p, cfg, 5);
        let mut agg = QueryProfile::new(QueryKind::ComplexAggregate, 0);
        agg.sort_bytes = 5 * 1024 * MIB;
        for _ in 0..20 {
            run_queries(&mut d, &agg, 5);
            let r = tde.run(&mut d, None);
            assert!(!r.plan_upgrade);
        }
    }

    #[test]
    fn mdp_runs_on_its_own_cadence() {
        let mut d = db();
        let cfg = TdeConfig {
            mdp_interval_ms: 2 * MILLIS_PER_MIN,
            ..TdeConfig::default()
        };
        let mut tde = Tde::new(&d.profile().clone(), cfg, 6);
        let mut q = QueryProfile::new(QueryKind::RangeSelect, 0);
        q.rows_examined = 200_000;
        run_queries(&mut d, &q, 50);
        let _ = tde.run(&mut d, None);
        // The cadence counts from 0, so a run at t≈5s does not step it.
        assert_eq!(tde.mdp_last_run, 0);
        while d.now() < 2 * MILLIS_PER_MIN {
            run_queries(&mut d, &q, 10);
        }
        let _ = tde.run(&mut d, None);
        let first_mdp_time = d.now();
        assert_eq!(
            tde.mdp_last_run, first_mdp_time,
            "the MDP missed its cadence"
        );
        // Second run immediately after: cadence not yet elapsed.
        run_queries(&mut d, &q, 5);
        let _ = tde.run(&mut d, None);
        assert!(d.now() - first_mdp_time < 2 * MILLIS_PER_MIN);
        assert_eq!(tde.mdp_last_run, first_mdp_time, "the MDP ran early");
        // Advance past the cadence and confirm a second fires.
        while d.now() < first_mdp_time + 2 * MILLIS_PER_MIN {
            run_queries(&mut d, &q, 10);
        }
        let _ = tde.run(&mut d, None);
        assert_eq!(tde.mdp_last_run, d.now(), "the MDP missed its cadence");
        assert!(tde.mdp().knob_count() > 0);
    }

    #[test]
    fn tuning_policies_differ() {
        let report_empty = TdeReport::default();
        let report_hot = TdeReport {
            tuning_request: true,
            ..TdeReport::default()
        };

        let tde_pol = TuningPolicy::TdeDriven;
        assert!(!tde_pol.should_request(&report_empty, 1_000, 0));
        assert!(tde_pol.should_request(&report_hot, 1_000, 0));

        let periodic = TuningPolicy::Periodic(5 * MILLIS_PER_MIN);
        assert!(!periodic.should_request(&report_empty, 2 * MILLIS_PER_MIN, 0));
        assert!(periodic.should_request(&report_empty, 5 * MILLIS_PER_MIN, 0));
    }

    /// Submit `n` queries with seeded kinds and demands, eight per 100 ms
    /// tick; the last few stay at the clock the next TDE run reads, so they
    /// sit exactly on the next window's boundary. Returns how many executed
    /// (the capacity model sheds the rest).
    fn drive_window(d: &mut SimDatabase, gen: &mut StdRng, n: usize) -> u64 {
        let mut executed = 0;
        for i in 0..n {
            let kind = QueryKind::ALL[gen.gen_range(0..QueryKind::ALL.len())];
            let mut q = QueryProfile::new(kind, gen.gen_range(0..6));
            q.rows_examined = gen.gen_range(1..5_000);
            q.sort_bytes = gen.gen_range(0..96) * MIB;
            executed += u64::from(matches!(d.submit(&q, 1), SubmitResult::Done(_)));
            if i % 8 == 7 {
                d.tick(100);
            }
        }
        if n == 0 {
            d.tick(100);
        }
        executed
    }

    #[test]
    fn a_query_at_the_run_clock_is_counted_in_exactly_one_window() {
        let mut d = db();
        let mut tde = Tde::new(&d.profile().clone(), TdeConfig::default(), 3);
        let mut gen = StdRng::seed_from_u64(3);
        let mut on_boundary = false;
        for &n in &[5usize, 0, 700, 63, 64, 65] {
            // 8 per tick: the last n % 8 land at the clock the run reads.
            let executed = drive_window(&mut d, &mut gen, n);
            on_boundary |= n % 8 != 0 && executed > 0;
            let _ = tde.run(&mut d, None);
            assert_eq!(tde.window.seen(), executed, "window of {n}");
            assert_eq!(tde.window.counts().iter().sum::<u64>(), executed);
            assert_eq!(tde.window.sample().len() as u64, executed.min(64));
            // A run at the same clock finds nothing left to count again.
            let _ = tde.run(&mut d, None);
            assert_eq!(tde.window.seen(), 0, "window of {n} counted twice");
        }
        assert!(on_boundary, "a window must end on queries at the run clock");
    }

    #[test]
    fn tde_state_is_flat_on_a_loaded_node() {
        // A loaded node's windows each hold a few hundred queries; the
        // engine's persistent state must not grow with them.
        let mut d = db();
        let mut tde = Tde::new(&d.profile().clone(), TdeConfig::default(), 8);
        let mut gen = StdRng::seed_from_u64(8);
        // Not counted: the MDP's Fig. 6 learning curves, one point per
        // MDP step by design.
        let size = |tde: &Tde| encode_to_vec(tde).len() - encode_to_vec(&tde.mdp).len();
        let mut size_at_10 = 0;
        for window in 1..=100 {
            drive_window(&mut d, &mut gen, 600);
            let _ = tde.run(&mut d, None);
            if window == 10 {
                size_at_10 = size(&tde);
            }
        }
        assert_eq!(size(&tde), size_at_10);
    }
}
