//! The fleet simulator: N managed databases, a config director, a tuner
//! backend and the shared workload repository, advanced in lockstep ticks
//! with an event queue for recommendation completions.
//!
//! This is the machinery behind the paper's §5 experiments: the 80-database
//! scalability run (Fig. 9), the throttle censuses (Figs. 10/11/14), and
//! the throughput-with/without-TDE comparisons (Figs. 12/13).

use crate::faults::FaultKind;
use crate::node::{DeferredApply, InFlightRequest, ManagedDatabase, RollbackGuard};
use crate::plan::{InteractionPlan, PlanAction, PlanEngine, PlanEvent};
use crate::safety::{SafetyConfig, SafetyGovernor};
use crate::shard::{DriveStats, HotState, ShardPool};

use autodbaas_core::BaselineMemo;
use autodbaas_ctrlplane::{
    apply_recommendation, ApplyError, ConfigDirector, RecommendationMeter, ReconcileOutcome,
    Reconciler, ServiceId, ServiceOrchestrator, TunerKind, WindowStat,
};
use autodbaas_simdb::{
    ApplyMode, Backend, ConfigChange, KnobSet, MetricId, MetricsSnapshot, SimDatabase,
};
use autodbaas_telemetry::{EventLog, SimTime};
use autodbaas_tuner::{
    assess_quality, denormalize_config, normalize_config, BoConfig, BoTuner, RlConfig, RlTuner,
    Sample, SampleQuality, Transition, WorkloadRepository,
};
use autodbaas_workload::{ArrivalProcess, MixWorkload};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// Fleet-level configuration.
#[derive(Debug, Clone)]
pub struct FleetConfig {
    /// Simulation tick.
    pub tick_ms: u64,
    /// TDE cadence = observation-window length.
    pub tde_period_ms: u64,
    /// When true, samples enter the repository only from windows in which
    /// the TDE raised a throttle — "Ottertune only captures high quality
    /// samples from TDE" (Fig. 12's gated mode).
    pub gate_samples_with_tde: bool,
    /// Tuner style behind the director.
    pub tuner: TunerKind,
    /// BO tuner settings.
    pub bo: BoConfig,
    /// RL tuner settings.
    pub rl: RlConfig,
    /// When false, recommendations are computed but never applied (the
    /// Fig. 10/11 throttle census runs without tuning sessions).
    pub apply_recommendations: bool,
    /// Master seed.
    pub seed: u64,
    /// Shard count of the tick engine: `0` resolves to the machine's
    /// available parallelism, capped so no shard owns fewer than
    /// `MIN_NODES_PER_SHARD` nodes; an explicit count is taken as-is
    /// (clamped to `[1, nodes]`), cap skipped. Resolved when the shard pool
    /// is (re)built, not per tick. Shard 0 runs on the stepping thread
    /// itself, so one shard is the plain loop with no synchronisation.
    /// Node order and RNG streams are per-node, so the fleet is
    /// bit-identical for any shard count (pinned by
    /// `naive_and_gated_engines_are_bit_identical` and the
    /// `serial_and_sharded_fleets_are_bit_identical` property test).
    pub shards: usize,
    /// How long past its promised `ready_at` a tuning request may wait for
    /// its recommendation before the node gives up and retries. Counted
    /// from `ready_at` (not submission) so director backlog under
    /// saturation never triggers spurious retries.
    pub request_timeout_ms: u64,
    /// Base of the exponential retry backoff for timed-out requests.
    pub retry_base_ms: u64,
    /// Retries (of a timed-out request, or of a lag-refused apply) before
    /// the recommendation is abandoned cleanly.
    pub retry_max_attempts: u32,
    /// Replica-lag guard for applies: a recommendation is deferred (with
    /// backoff) while any slave lags more than this many bytes.
    pub max_apply_lag_bytes: u64,
    /// Post-apply safety rollback; `None` disables the guard.
    pub rollback: Option<RollbackPolicy>,
}

/// Safe-tuning rollback guard settings (OnlineTune-style safety).
#[derive(Debug, Clone, Copy)]
pub struct RollbackPolicy {
    /// Roll back when a post-apply window's objective drops below
    /// `baseline × (1 − regression_frac)`.
    pub regression_frac: f64,
    /// Clean observation windows before the applied config is accepted and
    /// the guard disarms.
    pub observe_windows: u32,
}

impl Default for RollbackPolicy {
    fn default() -> Self {
        Self {
            regression_frac: 0.25,
            observe_windows: 3,
        }
    }
}

impl Default for FleetConfig {
    fn default() -> Self {
        Self {
            tick_ms: 1_000,
            tde_period_ms: 60_000,
            gate_samples_with_tde: true,
            tuner: TunerKind::Bo,
            bo: BoConfig::default(),
            rl: RlConfig::default(),
            apply_recommendations: true,
            seed: 0,
            shards: 0,
            request_timeout_ms: 5 * 60 * 1_000,
            retry_base_ms: 30_000,
            retry_max_attempts: 6,
            max_apply_lag_bytes: 64 * 1024 * 1024,
            rollback: None,
        }
    }
}

/// Reconciler watcher timeout (§4): drift older than this is forced back to
/// the persisted config.
const WATCHER_TIMEOUT_MS: u64 = 2 * 60 * 1_000;

/// Fewest nodes automatic shard resolution gives a shard: below this the
/// barrier costs more than the shard contributes.
const MIN_NODES_PER_SHARD: usize = 8;

/// Shard count for a pool over `n_nodes` nodes under [`FleetConfig::shards`]
/// (`0` = automatic). [`ShardPool::new`] clamps the result to `[1, n_nodes]`.
fn resolve_shards(configured: usize, n_nodes: usize) -> usize {
    if configured > 0 {
        // Explicit: trusted as-is, no nodes-per-shard cap — the determinism
        // tests sweep shard counts far beyond what auto resolution picks.
        return configured;
    }
    std::thread::available_parallelism()
        .map_or(1, |p| p.get())
        .min(n_nodes.div_ceil(MIN_NODES_PER_SHARD))
}

/// The tuner backend actually computing recommendations.
enum TunerBackend {
    Bo(Box<BoTuner>),
    Rl(Box<RlTuner>),
}

/// The fleet simulator.
///
/// # Examples
///
/// ```
/// use autodbaas_cloudsim::{FleetConfig, FleetSim, ManagedDatabase};
/// use autodbaas_core::{TdeConfig, TuningPolicy};
/// use autodbaas_simdb::{DbFlavor, DiskKind, InstanceType};
/// use autodbaas_tuner::WorkloadId;
/// use autodbaas_workload::{tpcc, ArrivalProcess};
///
/// let mut sim = FleetSim::new(FleetConfig::default(), 2);
/// let wl = tpcc(0.2);
/// let catalog = wl.catalog().clone();
/// let node = ManagedDatabase::new(
///     DbFlavor::Postgres, InstanceType::M4Large, DiskKind::Ssd, catalog,
///     Box::new(wl), ArrivalProcess::Constant(100.0),
///     TuningPolicy::TdeDriven, WorkloadId(0), TdeConfig::default(), 1,
/// );
/// sim.add_node(node, "db-0");
/// sim.run_for(120_000); // two minutes
/// assert!(sim.nodes[0].queries_submitted > 0);
/// ```
pub struct FleetSim {
    cfg: FleetConfig,
    /// Managed databases (public for experiment harnesses).
    pub nodes: Vec<ManagedDatabase>,
    /// The config director.
    pub director: ConfigDirector,
    /// Per-tenant recommendation-cost metering (§1's "recommendation-cost
    /// to service-provider").
    pub meter: RecommendationMeter,
    /// The central data repository.
    pub repo: WorkloadRepository,
    /// The service orchestrator's persistence storage: the config of record
    /// each service reconciles back to after a partial failure (§4).
    pub orch: ServiceOrchestrator,
    /// Every fault injected and every recovery action taken, in order. The
    /// log's fingerprint pins bit-for-bit reproducibility of chaos runs.
    pub events: EventLog,
    backend: TunerBackend,
    /// One §4 reconciler per node, watching live config against [`Self::orch`].
    reconcilers: Vec<Reconciler>,
    /// The adversarial schedule, when armed via [`FleetSim::enable_plan`].
    plan: Option<PlanEngine>,
    /// Arrival processes to restore when running bursts end:
    /// `(revert_at, node, saved_arrival)`.
    burst_revert: Vec<(SimTime, usize, ArrivalProcess)>,
    /// Recommendation deliveries stall until this time (tuner outage fault).
    tuner_outage_until: SimTime,
    /// Crash recoveries in progress: (done_at, node, event to emit).
    recovery_due: Vec<(SimTime, usize, &'static str)>,
    /// Due tuning responses: (ready_at, node, request seq). The seq lets a
    /// late response for an already-retried request be dropped as stale.
    pending: BinaryHeap<Reverse<(SimTime, usize, u64)>>,
    /// Persistent sharded tick engine; built lazily on the first step and
    /// dropped (to be rebuilt) when a node is added.
    pool: Option<ShardPool>,
    /// SoA per-node due times gating the control scan and recovery flush.
    hot: HotState,
    /// Fleet drive totals merged from the shard outputs.
    drive_stats: DriveStats,
    /// Reusable scratch for the per-tick plan drain.
    plan_scratch: Vec<PlanEvent>,
    /// Reusable scratch for the per-round batched window ingestion.
    window_scratch: Vec<WindowStat>,
    /// Reusable scratch for a window's close snapshot: swapped with the
    /// node's window-start snapshot, so the round allocates none.
    close_scratch: MetricsSnapshot,
    /// Reusable scratch for a node's knobs before its TDE run.
    knob_scratch: KnobSet,
    now: SimTime,
    last_tde_run: SimTime,
    rng: StdRng,
    /// Safe-tuning governor ([`FleetSim::enable_safety`]); `None` leaves
    /// every existing run's fingerprint untouched.
    safety: Option<SafetyGovernor>,
}

impl FleetSim {
    /// Build a fleet with `n_tuner_instances` tuner slots behind the
    /// director (the paper deploys 12).
    pub fn new(cfg: FleetConfig, n_tuner_instances: usize) -> Self {
        let kinds = vec![cfg.tuner; n_tuner_instances.max(1)];
        let backend = match cfg.tuner {
            TunerKind::Bo => {
                TunerBackend::Bo(Box::new(BoTuner::new(cfg.bo.clone(), cfg.seed ^ 0xb0)))
            }
            TunerKind::Rl => TunerBackend::Rl(Box::new(RlTuner::new(
                MetricId::ALL.len(),
                autodbaas_simdb::KnobProfile::postgres().len(),
                cfg.rl.clone(),
                cfg.seed ^ 0x71,
            ))),
        };
        Self {
            rng: StdRng::seed_from_u64(cfg.seed ^ 0xf1ee7),
            cfg,
            nodes: Vec::new(),
            director: ConfigDirector::new(&kinds),
            meter: RecommendationMeter::default(),
            repo: WorkloadRepository::new(),
            orch: ServiceOrchestrator::new(),
            events: EventLog::default(),
            backend,
            reconcilers: Vec::new(),
            plan: None,
            burst_revert: Vec::new(),
            tuner_outage_until: 0,
            recovery_due: Vec::new(),
            pending: BinaryHeap::new(),
            pool: None,
            hot: HotState::new(),
            drive_stats: DriveStats::default(),
            plan_scratch: Vec::new(),
            window_scratch: Vec::new(),
            close_scratch: MetricsSnapshot::default(),
            knob_scratch: KnobSet::default(),
            now: 0,
            last_tde_run: 0,
            safety: None,
        }
    }

    /// Arm an interaction plan: faults, bursts, knob pushes, maintenance
    /// windows and replica churn inject themselves as simulated time passes
    /// them, and the reconcilers switch to continuous watching. Plan events
    /// touch nodes from outside the catch-up sites, so every node is caught
    /// up and driven per tick from here on.
    pub fn enable_plan(&mut self, plan: InteractionPlan) {
        self.undefer_all();
        self.plan = Some(PlanEngine::new(plan));
    }

    /// Scheduled interactions not yet delivered (0 when no plan is armed).
    pub fn plan_remaining(&self) -> usize {
        self.plan.as_ref().map_or(0, |e| e.remaining())
    }

    /// Stop (or resume) landing new recommendations while the simulation
    /// keeps running. The scenario harness flips this off for its settle
    /// phase — "quiesce, then audit": in-flight guards, retries and parked
    /// applies drain to completion, but no *new* applies arm fresh guards,
    /// so the terminal oracles judge a fleet that had a fair chance to
    /// finish its work.
    pub fn set_apply_recommendations(&mut self, on: bool) {
        self.cfg.apply_recommendations = on;
    }

    /// Nodes whose post-apply rollback guard is still armed — i.e. an
    /// applied config not yet accepted or reverted. After a run's quiet
    /// tail every guard must have resolved one way or the other; the
    /// scenario simulator's rollback-correctness oracle asserts exactly
    /// that.
    pub fn guard_armed_nodes(&self) -> Vec<usize> {
        (0..self.nodes.len())
            .filter(|&idx| self.nodes[idx].guard.is_some())
            .collect()
    }

    /// Fleet-wide availability: fraction of driven node-ticks with the
    /// master serving. A deferred node's owed ticks count as served, which
    /// is what replaying them will record.
    pub fn availability(&self) -> f64 {
        let (down, total) = self
            .nodes
            .iter()
            .enumerate()
            .fold((0u64, 0u64), |(d, t), (idx, n)| {
                (d + n.down_ticks, t + n.total_ticks + self.hot.owed(idx))
            });
        if total == 0 {
            1.0
        } else {
            1.0 - down as f64 / total as f64
        }
    }

    /// Total reconciliations performed across the fleet.
    pub fn reconciliations(&self) -> u64 {
        self.reconcilers.iter().map(|r| r.reconciliations()).sum()
    }

    /// Nodes whose live reloadable config (master or any slave) currently
    /// differs from the persisted config of record.
    pub fn drifted_nodes(&self) -> Vec<usize> {
        (0..self.nodes.len())
            .filter(|&idx| {
                let Some(persisted) = self.orch.persisted_config(ServiceId(idx as u64)) else {
                    return false;
                };
                let rs = &self.nodes[idx].service;
                let profile = rs.master().profile();
                std::iter::once(rs.master())
                    .chain(rs.slaves().iter())
                    .any(|db| {
                        let live = db.knobs();
                        profile.iter().any(|(id, spec)| {
                            !spec.restart_required
                                && (live.get(id) - persisted.get(id)).abs() > 1e-9
                        })
                    })
            })
            .collect()
    }

    /// Nodes with stalled control-plane work: a master still in crash
    /// recovery, a request past its deadline, or a parked retry past its
    /// due time. Each of these clears on a subsequent [`FleetSim::step`],
    /// so after a run's quiet tail this must be empty — the no-wedge
    /// invariant the chaos tests pin. A deferred node reads the same as a
    /// caught-up one: its master was up when it was deferred and nothing
    /// that could bring it down has touched it since, and its control
    /// fields are not driven.
    pub fn wedged_nodes(&self) -> Vec<usize> {
        (0..self.nodes.len())
            .filter(|&idx| {
                let n = &self.nodes[idx];
                n.db().is_down()
                    || n.in_flight.is_some_and(|r| self.now > r.deadline)
                    || n.retry_at.is_some_and(|at| self.now > at)
                    || n.deferred_apply
                        .as_ref()
                        .is_some_and(|d| self.now > d.next_try_at)
            })
            .collect()
    }

    /// Arm the OnlineTune-style safety layer: every tenant gets a safe
    /// region seeded at its current config, and every tuner candidate is
    /// clamped into it before the vetted apply. Late-joining nodes are
    /// seeded as they are added.
    pub fn enable_safety(&mut self, cfg: SafetyConfig) {
        let mut gov = SafetyGovernor::new(cfg);
        for node in &self.nodes {
            let profile = node.service.master().profile();
            gov.push_node(normalize_config(
                profile,
                node.service.master().knobs().as_vec(),
            ));
        }
        self.safety = Some(gov);
    }

    /// The safe-tuning governor, when armed.
    pub fn safety(&self) -> Option<&SafetyGovernor> {
        self.safety.as_ref()
    }

    /// Fleet drive totals (node-ticks, accepted queries, down node-ticks)
    /// merged from the shard outputs every tick.
    pub fn drive_stats(&self) -> DriveStats {
        self.drive_stats
    }

    /// Shard count of the live pool (1 before the first step builds it).
    /// Benchmarks report this next to wall-clock numbers so a figure
    /// regenerated on a different machine records how wide the drive
    /// actually ran.
    pub fn shard_count(&self) -> usize {
        self.pool.as_ref().map_or(1, |p| p.shards())
    }

    /// Current sim time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Fleet configuration.
    pub fn config(&self) -> &FleetConfig {
        &self.cfg
    }

    /// Register a managed database built by the caller. Its workload gets a
    /// repository entry, its boot config becomes the first persisted config
    /// of record, and a reconciler starts watching it.
    pub fn add_node(&mut self, mut node: ManagedDatabase, name: &str) -> usize {
        node.workload_id = self.repo.register(name, false);
        let idx = self.nodes.len();
        self.orch
            .persist_config(ServiceId(idx as u64), node.db().knobs().clone());
        self.reconcilers
            .push(Reconciler::new(ServiceId(idx as u64), WATCHER_TIMEOUT_MS));
        self.meter
            .set_backend(ServiceId(idx as u64), node.db().kind());
        if let Some(gov) = &mut self.safety {
            let profile = node.service.master().profile();
            gov.push_node(normalize_config(
                profile,
                node.service.master().knobs().as_vec(),
            ));
        }
        self.nodes.push(node);
        self.hot.push_node();
        self.pool = None; // partitioned for the old fleet size; joins the workers
        idx
    }

    /// Offline bootstrap (§5: "Before evaluating … we perform training of
    /// the tuners as per their standard ways"): execute `n_samples` random
    /// configurations of `workload` on a scratch instance and store the
    /// resulting high-quality samples as an offline workload.
    pub fn seed_offline_training(
        &mut self,
        workload: &MixWorkload,
        flavor: autodbaas_simdb::DbFlavor,
        n_samples: usize,
    ) -> autodbaas_tuner::WorkloadId {
        let id = self
            .repo
            .register(format!("{}-offline", workload.name()), true);
        let profile = autodbaas_simdb::KnobProfile::for_flavor(flavor);
        for s in 0..n_samples {
            let mut db = SimDatabase::new(
                flavor,
                autodbaas_simdb::InstanceType::M4XLarge,
                autodbaas_simdb::DiskKind::Ssd,
                workload.catalog().clone(),
                self.cfg.seed ^ (s as u64).wrapping_mul(0x9e3779b9),
            );
            // Random reloadable configuration.
            let unit: Vec<f64> = (0..profile.len()).map(|_| self.rng.gen::<f64>()).collect();
            let raw = denormalize_config(&profile, &unit);
            for (i, (kid, spec)) in profile.iter().enumerate() {
                if !spec.restart_required {
                    db.set_knob_direct(kid, raw[i]);
                }
            }
            // A 60 s benchmark run — the sample window matches the TDE's
            // default observation window so baselines convert correctly.
            let before = db.metrics_snapshot();
            let rate = match workload.default_arrival() {
                autodbaas_workload::ArrivalProcess::Constant(r) => *r,
                _ => 1_000.0,
            };
            for _ in 0..60 {
                let q = workload.next_query(&mut self.rng);
                db.submit(&q, (rate / 60.0).max(1.0) as u64);
                db.tick(1_000);
            }
            let after = db.metrics_snapshot();
            let delta = after.delta(&before);
            let objective = delta[MetricId::QueriesExecuted.index()] / 60.0;
            self.repo.add_sample(
                id,
                Sample {
                    config: normalize_config(&profile, db.knobs().as_vec()),
                    metrics: delta,
                    objective,
                    quality: SampleQuality::High,
                },
            );
        }
        id
    }

    /// Advance one tick.
    ///
    /// Between `step` calls a deferred node's simdb clock and tick counters
    /// may trail [`FleetSim::now`]; what the fleet reports about it
    /// (`availability`, `drive_stats`, `wedged_nodes`, the snapshot bytes)
    /// does not. [`FleetSim::run_for`] returns with every node caught up
    /// and driven per tick; mutate `nodes` directly only between runs.
    pub fn step(&mut self) {
        self.now += self.cfg.tick_ms;

        // 0. Interaction plan: revert ended bursts, then deliver every
        // scheduled interaction that came due this tick. Both run before
        // the traffic phase, so every shard count sees identical node
        // state at every tick.
        if !self.burst_revert.is_empty() || self.plan.is_some() {
            self.plan_tick();
        }

        // 1. Traffic. Databases are independent within a tick: the pool
        // partitions them once over persistent worker shards (shard 0 is
        // this thread, so one shard is the plain loop). With no plan armed
        // and no burst pending, a quiet node is deferred: it only owes its
        // ticks until a catch-up site replays them.
        let defer = self.plan.is_none() && self.burst_revert.is_empty();
        let pool = self.pool.get_or_insert_with(|| {
            let n = self.nodes.len();
            ShardPool::new(resolve_shards(self.cfg.shards, n), n, self.cfg.seed)
        });
        let tick = pool.drive_tick(
            &mut self.nodes,
            self.hot.deferral_mut(),
            defer,
            self.cfg.tick_ms,
        );
        self.drive_stats.accumulate(&tick);

        // 2. Crash recoveries that completed this tick.
        self.flush_recoveries();

        // 3. Request timeouts, retries and parked applies.
        self.control_scan();

        // 4. Deliver due recommendations — unless the tuner service is in
        // an outage, in which case responses sit until it returns (and may
        // go stale if the node times out and retries meanwhile).
        if self.now >= self.tuner_outage_until {
            while let Some(&Reverse((ready, idx, seq))) = self.pending.peek() {
                if ready > self.now {
                    break;
                }
                self.pending.pop();
                self.deliver_recommendation(idx, seq);
            }
        }

        // 5. Reconcilers watch continuously while a plan is armed (faults
        // create drift at arbitrary times); in quiet runs a per-window
        // check after the TDE round is equivalent and cheaper.
        let adversarial = self.plan.is_some();
        if adversarial {
            self.reconcile_all();
        }

        // 6. TDE cadence.
        if self.now - self.last_tde_run >= self.cfg.tde_period_ms {
            let window_ms = self.now - self.last_tde_run;
            self.last_tde_run = self.now;
            self.run_tde_round(window_ms);
            if !adversarial {
                self.reconcile_all();
            }
        }
    }

    /// Recompute node `idx`'s SoA control-due entry: the earliest of its
    /// in-flight deadline, retry time, and parked-apply time. Called after
    /// every mutation of those fields so the entry is always a valid lower
    /// bound for the gated control scan.
    fn refresh_hot(&mut self, idx: usize) {
        let node = &self.nodes[idx];
        let mut due = u64::MAX;
        if let Some(req) = node.in_flight {
            due = due.min(req.deadline);
        }
        if let Some(at) = node.retry_at {
            due = due.min(at);
        }
        if let Some(d) = &node.deferred_apply {
            due = due.min(d.next_try_at);
        }
        self.hot.set_control_due(idx, due);
    }

    /// Replay the ticks node `idx` owes, leaving it exactly where driving
    /// it every tick would have: the same `drive` calls in the same order,
    /// with nothing touching the node in between. Every site that reads or
    /// writes a node's state calls this first; the node stays deferred.
    fn catch_up(&mut self, idx: usize) {
        let owed = self.hot.take_owed(idx);
        self.nodes[idx].replay(owed, self.cfg.tick_ms);
    }

    /// Catch every node up and drive every node per tick again, so callers
    /// may mutate nodes directly and the next tick re-decides deferral.
    fn undefer_all(&mut self) {
        for idx in 0..self.nodes.len() {
            self.catch_up(idx);
            self.hot.lower_deferral(idx);
        }
    }

    /// Inject one fault into node `idx` (bounds-checked by the caller).
    fn inject(&mut self, idx: usize, kind: FaultKind) {
        let target = idx as u64;
        match kind {
            FaultKind::VmCrash => {
                self.events.emit(self.now, "fault.vm_crash", target);
                self.handle_master_crash(idx);
            }
            FaultKind::MasterCrashMidApply => {
                self.events
                    .emit(self.now, "fault.master_crash_mid_apply", target);
                self.nodes[idx].service.inject_master_crash();
            }
            FaultKind::SlaveCrashMidApply => {
                if self.nodes[idx].service.n_slaves() > 0 {
                    self.events
                        .emit(self.now, "fault.slave_crash_mid_apply", target);
                    self.nodes[idx].service.inject_slave_crash(0);
                }
            }
            FaultKind::TunerOutage { duration_ms } => {
                self.events.emit(self.now, "fault.tuner_outage", u64::MAX);
                self.tuner_outage_until = self.tuner_outage_until.max(self.now + duration_ms);
            }
            FaultKind::TelemetryDrop { duration_ms } => {
                self.events.emit(self.now, "fault.telemetry_drop", target);
                let node = &mut self.nodes[idx];
                node.telemetry_blackout_until =
                    node.telemetry_blackout_until.max(self.now + duration_ms);
            }
            FaultKind::DiskStall {
                duration_ms,
                factor,
            } => {
                self.events.emit(self.now, "fault.disk_stall", target);
                let node = &mut self.nodes[idx];
                node.db_mut().degrade(duration_ms, factor);
                node.window_tainted = true;
            }
            FaultKind::ReplicaLagSpike { pause_ms } => {
                let node = &mut self.nodes[idx];
                if node.service.n_slaves() > 0 {
                    self.events
                        .emit(self.now, "fault.replica_lag_spike", target);
                    for i in 0..node.service.n_slaves() {
                        node.service.pause_slave_replay(i, pause_ms);
                    }
                }
            }
            FaultKind::RequestLoss => {
                let node = &mut self.nodes[idx];
                if let Some(req) = node.in_flight.as_mut() {
                    if !req.lost {
                        req.lost = true;
                        self.events.emit(self.now, "fault.request_loss", target);
                    }
                }
            }
        }
    }

    /// One tick of interaction-plan machinery: restore the arrival process
    /// of every burst that ended, then deliver the plan events that came
    /// due. Reverts run first so a burst ending exactly as another begins
    /// hands the new burst the *pre-burst* arrival to save.
    fn plan_tick(&mut self) {
        let now = self.now;
        let mut i = 0;
        while i < self.burst_revert.len() {
            if self.burst_revert[i].0 <= now {
                let (_, idx, arrival) = self.burst_revert.remove(i);
                self.nodes[idx].arrival = arrival;
                self.events.emit(now, "plan.burst_end", idx as u64);
            } else {
                i += 1;
            }
        }
        if self.plan.is_some() {
            let mut due = std::mem::take(&mut self.plan_scratch);
            self.plan
                .as_mut()
                .expect("checked above")
                .take_due_into(self.now, &mut due);
            for &ev in &due {
                self.apply_plan_event(ev);
            }
            self.plan_scratch = due;
        }
    }

    /// Deliver one scheduled interaction.
    fn apply_plan_event(&mut self, ev: PlanEvent) {
        if ev.node >= self.nodes.len() {
            return; // plan generated for a bigger fleet: ignore
        }
        let idx = ev.node;
        let target = idx as u64;
        match ev.action {
            PlanAction::Fault(kind) => self.inject(idx, kind),
            PlanAction::Burst {
                rate_qps,
                duration_ms,
            } => {
                let revert_at = self.now + duration_ms;
                if let Some(entry) = self.burst_revert.iter_mut().find(|e| e.1 == idx) {
                    // Overlapping burst: the first one already saved the
                    // pre-burst arrival; the new rate and later end win.
                    entry.0 = entry.0.max(revert_at);
                } else {
                    self.burst_revert
                        .push((revert_at, idx, self.nodes[idx].arrival.clone()));
                }
                self.nodes[idx].arrival = ArrivalProcess::Constant(rate_qps);
                self.events.emit(self.now, "plan.burst", target);
            }
            PlanAction::KnobPush { value } => {
                self.events.emit(self.now, "plan.knob_push", target);
                let dims = self.nodes[idx].service.master().profile().len();
                self.apply_unit(idx, vec![value; dims], 0);
            }
            PlanAction::Maintenance => {
                self.events.emit(self.now, "plan.maintenance", target);
                self.handle_master_crash(idx);
            }
            PlanAction::AddReplica => {
                self.events.emit(self.now, "plan.replica_add", target);
                let seed = self.cfg.seed ^ target.wrapping_mul(0x9e3779b97f4a7c15) ^ self.now;
                self.nodes[idx].service.add_slave(seed);
            }
            PlanAction::RemoveReplica => {
                let node = &mut self.nodes[idx];
                let n = node.service.n_slaves();
                if n > 0 {
                    node.service.remove_slave(n - 1);
                    self.events.emit(self.now, "plan.replica_remove", target);
                }
            }
        }
    }

    /// The master VM of node `idx` just died. With HA slaves the most
    /// caught-up one is promoted immediately (the service stays up, modulo
    /// the unreplayed WAL the report counts as lost) and the demoted master
    /// runs WAL crash recovery before rejoining as a replica. Without
    /// slaves the single node is down for its full recovery time.
    fn handle_master_crash(&mut self, idx: usize) {
        let node = &mut self.nodes[idx];
        node.window_tainted = true;
        if node.service.n_slaves() > 0 {
            if let Some(fo) = node.service.failover() {
                let report = node.service.slave_mut(fo.promoted).crash();
                self.events.emit(self.now, "recover.failover", idx as u64);
                self.recovery_due
                    .push((self.now + report.recovery_ms, idx, "recover.rejoined"));
                self.hot.note_recovery(self.now + report.recovery_ms);
                return;
            }
        }
        let report = node.service.master_mut().crash();
        self.recovery_due
            .push((self.now + report.recovery_ms, idx, "recover.restarted"));
        self.hot.note_recovery(self.now + report.recovery_ms);
    }

    /// Emit the recovery events whose crash-recovery intervals ended.
    /// Gated on the cached earliest completion time: with nothing due this
    /// is one scalar compare per tick (and `u64::MAX` — the empty list —
    /// reproduces the old is-empty early return exactly).
    fn flush_recoveries(&mut self) {
        if self.now < self.hot.next_recovery_at() {
            return;
        }
        let now = self.now;
        let mut done: Vec<(SimTime, usize, &'static str)> = Vec::new();
        self.recovery_due.retain(|&(at, idx, kind)| {
            if at <= now {
                done.push((at, idx, kind));
                false
            } else {
                true
            }
        });
        done.sort_by_key(|&(at, idx, _)| (at, idx));
        self.events.emit_batch(
            self.now,
            done.iter().map(|&(_, idx, kind)| (kind, idx as u64)),
        );
        self.hot.set_next_recovery(
            self.recovery_due
                .iter()
                .map(|&(at, _, _)| at)
                .min()
                .unwrap_or(u64::MAX),
        );
    }

    /// Per-node control-plane scan: expire timed-out requests into
    /// exponential-backoff retries, fire due retries, and re-attempt
    /// lag-deferred applies.
    ///
    /// Each node is gated behind its SoA due time — a node whose earliest
    /// possible action lies in the future is provably a no-op, so the scan
    /// walks one dense `u64` per node instead of the node structs.
    /// Actionable nodes are visited in ascending order, exactly as a full
    /// scan would (the test-only naive engine lowers every entry to `0` to
    /// get that full scan and must match bit for bit).
    fn control_scan(&mut self) {
        for idx in 0..self.nodes.len() {
            if self.hot.control_due(idx) <= self.now {
                self.control_node(idx);
            }
        }
    }

    /// One node's control-plane scan (see [`FleetSim::control_scan`]).
    fn control_node(&mut self, idx: usize) {
        self.catch_up(idx);
        let retry_base = self.cfg.retry_base_ms.max(1);
        let max_attempts = self.cfg.retry_max_attempts;
        let node = &mut self.nodes[idx];
        if let Some(req) = node.in_flight {
            if self.now >= req.deadline {
                node.in_flight = None;
                node.retry_attempt += 1;
                if node.retry_attempt > max_attempts {
                    node.retry_attempt = 0;
                    self.events.emit(self.now, "request.abandoned", idx as u64);
                } else {
                    // Backoff doubles per consecutive timeout; jitter
                    // desynchronises a fleet retrying into the same
                    // recovering tuner. This path draws node RNG only
                    // under faults, so fault-free streams are unchanged.
                    let backoff = retry_base << (node.retry_attempt - 1).min(6);
                    let jitter = node.rng.gen_range(0..retry_base);
                    node.retry_at = Some(self.now + backoff + jitter);
                    self.events.emit(self.now, "request.timeout", idx as u64);
                }
            }
        }
        if self.nodes[idx].retry_at.is_some_and(|at| self.now >= at) {
            self.nodes[idx].retry_at = None;
            self.events.emit(self.now, "request.retry", idx as u64);
            self.submit_tuning_request(idx);
        }
        let node = &mut self.nodes[idx];
        if node
            .deferred_apply
            .as_ref()
            .is_some_and(|d| self.now >= d.next_try_at)
        {
            let d = node.deferred_apply.take().expect("checked above");
            self.apply_unit(idx, d.unit, d.attempts);
        }
        self.refresh_hot(idx);
    }

    /// Reconcile every service whose master is reachable. Runs only right
    /// after a TDE round (which caught every node up) or with a plan armed
    /// (nothing deferred), so it needs no catch-up of its own.
    fn reconcile_all(&mut self) {
        for idx in 0..self.nodes.len() {
            let node = &mut self.nodes[idx];
            if node.service.master().is_down() {
                continue; // nothing to watch until recovery completes
            }
            let outcome = self.reconcilers[idx].check(&self.orch, &mut node.service, self.now);
            if outcome == ReconcileOutcome::Reconciled {
                self.events.emit(self.now, "recover.reconciled", idx as u64);
            }
        }
    }

    /// Submit a tuning request for node `idx` to the config director and
    /// start its in-flight deadline clock.
    fn submit_tuning_request(&mut self, idx: usize) {
        let service_ms = match self.cfg.tuner {
            TunerKind::Bo => BoTuner::train_cost_ms(self.repo.total_samples()),
            TunerKind::Rl => 50.0,
        };
        let assignment = self
            .director
            .submit_request(ServiceId(idx as u64), self.now, service_ms);
        self.meter.record(ServiceId(idx as u64), service_ms);
        let node = &mut self.nodes[idx];
        node.last_request_at = self.now;
        let seq = node.request_seq;
        node.request_seq += 1;
        // The deadline counts from the *promised* completion, not the
        // submission: director backlog under fleet saturation (Fig. 9) is
        // expected latency, not a fault.
        node.in_flight = Some(InFlightRequest {
            deadline: assignment.ready_at + self.cfg.request_timeout_ms,
            seq,
            lost: false,
        });
        self.pending.push(Reverse((assignment.ready_at, idx, seq)));
        self.refresh_hot(idx);
    }

    /// Run for `duration_ms` of simulated time. Returns with every node
    /// caught up and driven per tick, so the caller may read or mutate
    /// `nodes` directly before the next run.
    pub fn run_for(&mut self, duration_ms: u64) {
        let end = self.now + duration_ms;
        while self.now < end {
            self.step();
        }
        self.undefer_all();
    }

    fn rl_state(delta: &[f64]) -> Vec<f64> {
        delta.iter().map(|&x| (1.0 + x.abs()).ln() / 20.0).collect()
    }

    fn run_tde_round(&mut self, window_ms: u64) {
        let rollback = self.cfg.rollback;
        let mut windows = std::mem::take(&mut self.window_scratch);
        windows.clear();
        // One memo per round: idle nodes share a signature, so consecutive
        // baselines repeat, and a sample added below changes the key.
        let mut memo = BaselineMemo::default();
        for idx in 0..self.nodes.len() {
            // Replaying a deferred node's window here, not in a pass of its
            // own, leaves the node in cache for its close.
            self.catch_up(idx);
            let node = &mut self.nodes[idx];
            // A monitoring-agent blackout or a master still in crash
            // recovery means no usable window: reset and move on — no
            // sample, no RL transition, no tuning request.
            if self.now < node.telemetry_blackout_until || node.service.master().is_down() {
                let metrics = node.service.master().metrics();
                metrics.snapshot_into(&mut node.window_start_snapshot);
                node.window_tainted = false;
                continue;
            }
            // Close the observation window into the kept buffer. The
            // objective and the safety SLO read single metrics from it; the
            // full delta vector is built only for a captured window.
            let snap = &mut self.close_scratch;
            node.service.master().metrics().snapshot_into(snap);
            let objective = node.window_objective_from(snap, window_ms);
            windows.push(WindowStat {
                service: ServiceId(idx as u64),
                objective,
            });
            if let Some(gov) = &mut self.safety {
                // The safety SLO is demand-normalized: the fraction of
                // offered queries the service actually executed this
                // window. Raw throughput would charge the tuner for every
                // diurnal/weekend demand swing; the completion ratio only
                // moves when the service fails offered load — which is
                // what a config can cause and an SLO is about.
                let start = &node.window_start_snapshot;
                let executed = snap.delta_of(start, MetricId::QueriesExecuted);
                let dropped = snap.delta_of(start, MetricId::QueriesDropped);
                let offered = executed + dropped;
                let slo_objective = if offered > 0.0 {
                    executed / offered
                } else {
                    1.0
                };
                let verdict = gov.observe_window(idx, slo_objective, window_ms as f64 / 1_000.0);
                if verdict.breach {
                    self.events.emit(self.now, "safe.slo_breach", idx as u64);
                    self.meter.record_slo_breach(ServiceId(idx as u64));
                }
            }

            // TDE run. The TDE's MDP detector applies accepted planner-knob
            // probes directly to the live master; those local moves are
            // authoritative (the plugin owns them), so fold them into the
            // persisted config of record — otherwise the reconciler would
            // fight the TDE, rejecting each accepted probe as drift.
            let pre_tde = &mut self.knob_scratch;
            pre_tde.clone_from(node.service.master().knobs());
            let report =
                node.tde
                    .run_in_round(node.service.master_mut(), Some(&self.repo), &mut memo);
            if report.plan_upgrade {
                node.plan_upgrades += 1;
            }
            if node.service.master().knobs() != pre_tde {
                let live = node.service.master().knobs().clone();
                let profile = node.service.master().profile().clone();
                let mut persisted = self
                    .orch
                    .persisted_config(ServiceId(idx as u64))
                    .cloned()
                    .unwrap_or_else(|| live.clone());
                for (id, _) in profile.iter() {
                    if live.get(id) != pre_tde.get(id) {
                        persisted.set(&profile, id, live.get(id));
                        // Replicas take the accepted move too, so an HA set
                        // never drifts (and never fails over) away from it.
                        for s in 0..node.service.n_slaves() {
                            node.service.slave_mut(s).set_knob_direct(id, live.get(id));
                        }
                    }
                }
                self.orch.persist_config(ServiceId(idx as u64), persisted);
            }

            // Cooldown bookkeeping (a window must pass after an apply
            // before the TDE can indict the new config).
            let in_cooldown = node.cooldown_windows > 0;
            if in_cooldown {
                node.cooldown_windows -= 1;
            }

            // Safe-tuning guard: judge the window that just closed against
            // the pre-apply baseline. Fault-tainted windows are skipped —
            // a disk stall is not the config's fault.
            let mut quarantined = node.window_tainted;
            if let Some(policy) = rollback {
                if let Some(guard) = node.guard.take() {
                    if in_cooldown || node.window_tainted {
                        node.guard = Some(guard); // not judgeable; keep waiting
                    } else if objective < guard.baseline * (1.0 - policy.regression_frac) {
                        // Regression: restore the pre-apply config on every
                        // node and re-persist it as the config of record.
                        let profile = node.service.master().profile().clone();
                        let changes: Vec<ConfigChange> = profile
                            .iter()
                            .filter(|(_, spec)| !spec.restart_required)
                            .map(|(kid, _)| ConfigChange {
                                knob: kid,
                                value: guard.revert_to.get(kid),
                            })
                            .collect();
                        let _ = node.service.apply(&changes, ApplyMode::Reload);
                        self.orch.persist_config(
                            ServiceId(idx as u64),
                            node.service.master().knobs().clone(),
                        );
                        node.cooldown_windows = 1;
                        // The regressed window would poison the repository
                        // (and the RL reward) with the bad config's blame.
                        quarantined = true;
                        self.events.emit(self.now, "tune.rollback", idx as u64);
                    } else if guard.windows_left > 1 {
                        node.guard = Some(RollbackGuard {
                            windows_left: guard.windows_left - 1,
                            ..guard
                        });
                    } // else: enough clean windows — the config is accepted
                }
            }

            // Sample capture (gated or not); fault-tainted and rolled-back
            // windows never become samples.
            let throttled_window = report.tuning_request;
            let capture = (!self.cfg.gate_samples_with_tde || throttled_window) && !quarantined;

            // RL experience: reward is the relative throughput change since
            // the action was applied. Gated mode only feeds the agent
            // TDE-certified windows — the corruption shield Fig. 13 tests.
            // The captured sample then takes the delta vector by value.
            if capture {
                let delta = snap.delta(&node.window_start_snapshot);
                if let (TunerBackend::Rl(rl), Some(action), Some(prev_state)) = (
                    &mut self.backend,
                    node.prev_action.clone(),
                    node.prev_rl_state.clone(),
                ) {
                    let reward = (objective - node.prev_objective) / node.prev_objective.max(1.0);
                    rl.observe(Transition {
                        state: prev_state,
                        action,
                        reward: reward.clamp(-2.0, 2.0),
                        next_state: Self::rl_state(&delta),
                    });
                }
                let quality = if self.cfg.gate_samples_with_tde {
                    // TDE-certified windows are high quality by construction.
                    SampleQuality::High
                } else {
                    assess_quality(&delta, objective)
                };
                self.repo.add_sample(
                    node.workload_id,
                    Sample {
                        config: normalize_config(
                            node.service.master().profile(),
                            node.service.master().knobs().as_vec(),
                        ),
                        metrics: delta,
                        objective,
                        quality,
                    },
                );
            }

            // Policy decision. A node with an open request, a pending
            // retry, or a parked apply never stacks a second request.
            let should = node.in_flight.is_none()
                && node.retry_at.is_none()
                && node.deferred_apply.is_none()
                && !in_cooldown
                && node
                    .policy
                    .should_request(&report, self.now, node.last_request_at);
            node.last_report = report;
            node.prev_objective = objective;
            std::mem::swap(&mut node.window_start_snapshot, snap);
            node.window_tainted = false;
            if should {
                self.submit_tuning_request(idx);
            }
        }
        // One batched metric-data report per round ("the config director
        // receives the metric data … from service instances") instead of a
        // per-node telemetry call; the buffer is kept and reused.
        self.director.ingest_windows(self.now, &windows);
        self.window_scratch = windows;
    }

    fn deliver_recommendation(&mut self, idx: usize, seq: u64) {
        self.catch_up(idx);
        let node = &mut self.nodes[idx];
        match node.in_flight {
            Some(req) if req.seq == seq => {
                if req.lost {
                    // The response vanished in transit; only the deadline
                    // machinery clears this request.
                    return;
                }
                node.in_flight = None;
                node.retry_attempt = 0;
            }
            _ => {
                // A late response to a request that already timed out and
                // was retried or abandoned: applying it now would race the
                // retry's own response, so drop it.
                self.events
                    .emit(self.now, "request.stale_dropped", idx as u64);
                return;
            }
        }
        self.refresh_hot(idx);
        let node = &mut self.nodes[idx];
        let profile = node.service.master().profile();
        let unit = match &mut self.backend {
            TunerBackend::Bo(bo) => {
                // The tuning request carries the indicted knobs (the TDE
                // sends metric data and query context with the request);
                // focus the acquisition on them.
                let focus: Vec<usize> = node
                    .last_report
                    .throttles
                    .iter()
                    .map(|t| t.knob.0 as usize)
                    .collect();
                match bo.recommend_focused(&self.repo, node.workload_id, &focus) {
                    Some(rec) => rec.config,
                    None => return, // nothing learned yet
                }
            }
            TunerBackend::Rl(rl) => {
                let snap = node.service.master().metrics_snapshot();
                let delta = snap.delta(&node.window_start_snapshot);
                let state = Self::rl_state(&delta);
                node.prev_rl_state = Some(state.clone());
                let mut action = rl.recommend(&state);
                action.truncate(profile.len());
                while action.len() < profile.len() {
                    action.push(0.5);
                }
                action
            }
        };
        let mut unit = unit;
        if let Some(gov) = &mut self.safety {
            if gov.constrain(idx, &mut unit) {
                self.events.emit(self.now, "safe.clamped", idx as u64);
                self.meter.record_safety_clamp(ServiceId(idx as u64));
            }
        }
        self.director
            .record_recommendation(ServiceId(idx as u64), self.now, unit.clone());
        if !self.cfg.apply_recommendations {
            return;
        }
        self.apply_unit(idx, unit, 0);
    }

    /// Land a unit-cube recommendation on service `idx` through the one
    /// vetted, lag-guarded apply path; `attempts` counts lag-guard refusals
    /// this recommendation already suffered. Its callers have caught the
    /// node up (a plan's knob push runs with nothing deferred).
    fn apply_unit(&mut self, idx: usize, unit: Vec<f64>, attempts: u32) {
        let node = &mut self.nodes[idx];
        let pre_apply = node.service.master().knobs().clone();
        match apply_recommendation(&mut node.service, &unit, self.cfg.max_apply_lag_bytes) {
            Ok(_) => {
                // Persisting right after the master apply (§4) is what
                // keeps the reconciler quiet about *successful* tuning.
                self.orch
                    .persist_config(ServiceId(idx as u64), node.service.master().knobs().clone());
                if let Some(policy) = self.cfg.rollback {
                    node.guard = Some(RollbackGuard {
                        baseline: node.prev_objective,
                        revert_to: pre_apply,
                        windows_left: policy.observe_windows.max(1),
                    });
                }
                node.prev_action = Some(unit);
                node.cooldown_windows = 1;
                self.events.emit(self.now, "apply.ok", idx as u64);
            }
            Err(ApplyError::ReplicaLagging { .. }) => {
                if attempts + 1 >= self.cfg.retry_max_attempts {
                    self.events.emit(self.now, "apply.abandoned", idx as u64);
                } else {
                    let base = self.cfg.retry_base_ms.max(1);
                    let backoff = base << attempts.min(6);
                    let jitter = node.rng.gen_range(0..base);
                    node.deferred_apply = Some(DeferredApply {
                        unit,
                        next_try_at: self.now + backoff + jitter,
                        attempts: attempts + 1,
                    });
                    self.events.emit(self.now, "apply.lag_deferred", idx as u64);
                }
            }
            Err(ApplyError::SlaveCrashed { slave }) => {
                // §4: rejected slave-first — the master is untouched and
                // the recommendation is simply dropped. The crashed slave
                // runs WAL recovery and rejoins.
                self.events
                    .emit(self.now, "apply.rejected_slave_crash", idx as u64);
                let report = node.service.slave_mut(slave).crash();
                self.recovery_due.push((
                    self.now + report.recovery_ms,
                    idx,
                    "recover.slave_restarted",
                ));
                self.hot.note_recovery(self.now + report.recovery_ms);
            }
            Err(ApplyError::MasterCrashed) => {
                // Slaves applied, master didn't: drift the reconciler will
                // reject back to the persisted config, on top of the crash
                // recovery itself.
                self.events
                    .emit(self.now, "apply.master_crashed", idx as u64);
                self.handle_master_crash(idx);
            }
        }
        self.refresh_hot(idx);
    }
}

use autodbaas_snapshot::{
    snap_struct, FrameReader, FrameWriter, Snap, SnapError, SnapReader, SnapWriter,
};

snap_struct!(RollbackPolicy {
    regression_frac,
    observe_windows
});

snap_struct!(FleetConfig {
    tick_ms,
    tde_period_ms,
    gate_samples_with_tde,
    tuner,
    bo,
    rl,
    apply_recommendations,
    seed,
    shards,
    request_timeout_ms,
    retry_base_ms,
    retry_max_attempts,
    max_apply_lag_bytes,
    rollback
});

impl Snap for TunerBackend {
    fn encode(&self, w: &mut SnapWriter) {
        match self {
            TunerBackend::Bo(t) => {
                0u16.encode(w);
                t.encode(w);
            }
            TunerBackend::Rl(t) => {
                1u16.encode(w);
                t.encode(w);
            }
        }
    }
    fn decode(r: &mut SnapReader) -> Result<Self, SnapError> {
        Ok(match u16::decode(r)? {
            0 => TunerBackend::Bo(Snap::decode(r)?),
            1 => TunerBackend::Rl(Snap::decode(r)?),
            t => {
                return Err(SnapError::UnknownTag {
                    what: "TunerBackend",
                    tag: t.into(),
                })
            }
        })
    }
}

// The fleet's complete deterministic state. Scratch that the next tick
// rebuilds (shard pool threads, drain buffers) is deliberately absent: a
// restored fleet rebuilds them lazily, exactly as a freshly built one
// does, so shard-count invariance carries over.
// `recovery_due` holds `&'static str` labels and round-trips through the
// bounded telemetry interner. A deferred node is encoded as a caught-up
// copy (the `Vec` layout, node by node), so the bytes never depend on
// which ticks were deferred.
impl Snap for FleetSim {
    fn encode(&self, w: &mut SnapWriter) {
        self.cfg.encode(w);
        w.put_u64(self.nodes.len() as u64);
        for (idx, node) in self.nodes.iter().enumerate() {
            match self.hot.owed(idx) {
                0 => node.encode(w),
                owed => {
                    let mut copy: ManagedDatabase = autodbaas_snapshot::decode_from_slice(
                        &autodbaas_snapshot::encode_to_vec(node),
                    )
                    .expect("a node this process just encoded decodes");
                    copy.replay(owed, self.cfg.tick_ms);
                    copy.encode(w);
                }
            }
        }
        self.director.encode(w);
        self.meter.encode(w);
        self.repo.encode(w);
        self.orch.encode(w);
        self.events.encode(w);
        self.backend.encode(w);
        self.reconcilers.encode(w);
        self.plan.encode(w);
        self.burst_revert.encode(w);
        self.tuner_outage_until.encode(w);
        w.put_u64(self.recovery_due.len() as u64);
        for (at, node, label) in &self.recovery_due {
            at.encode(w);
            node.encode(w);
            w.put_str(label);
        }
        self.pending.encode(w);
        self.drive_stats.encode(w);
        self.hot.encode(w);
        self.now.encode(w);
        self.last_tde_run.encode(w);
        self.rng.encode(w);
        self.safety.encode(w);
    }
    fn decode(r: &mut SnapReader) -> Result<Self, SnapError> {
        let cfg = FleetConfig::decode(r)?;
        let nodes = Vec::<ManagedDatabase>::decode(r)?;
        let director = ConfigDirector::decode(r)?;
        let meter = RecommendationMeter::decode(r)?;
        let repo = WorkloadRepository::decode(r)?;
        let orch = ServiceOrchestrator::decode(r)?;
        let events = EventLog::decode(r)?;
        let backend = TunerBackend::decode(r)?;
        let reconcilers = Vec::<Reconciler>::decode(r)?;
        let plan = Option::<PlanEngine>::decode(r)?;
        let burst_revert = Vec::<(SimTime, usize, ArrivalProcess)>::decode(r)?;
        let tuner_outage_until = SimTime::decode(r)?;
        let n_recovery = r.get_len()?;
        // Reserve only what the remaining input could back byte for byte.
        let mut recovery_due = Vec::with_capacity(
            n_recovery.min(r.remaining() / std::mem::size_of::<(SimTime, usize, &str)>()),
        );
        for _ in 0..n_recovery {
            let at = SimTime::decode(r)?;
            let node = usize::decode(r)?;
            let label = autodbaas_telemetry::intern_kind(r.get_str()?);
            recovery_due.push((at, node, label));
        }
        let pending = BinaryHeap::<Reverse<(SimTime, usize, u64)>>::decode(r)?;
        let drive_stats = DriveStats::decode(r)?;
        let hot = HotState::decode(r)?;
        let now = SimTime::decode(r)?;
        let last_tde_run = SimTime::decode(r)?;
        let rng = Snap::decode(r)?;
        let safety = Option::<SafetyGovernor>::decode(r)?;
        Ok(FleetSim {
            cfg,
            nodes,
            director,
            meter,
            repo,
            orch,
            events,
            backend,
            reconcilers,
            plan,
            burst_revert,
            tuner_outage_until,
            recovery_due,
            pending,
            pool: None,
            hot,
            drive_stats,
            plan_scratch: Vec::new(),
            window_scratch: Vec::new(),
            close_scratch: MetricsSnapshot::default(),
            knob_scratch: KnobSet::default(),
            now,
            last_tde_run,
            rng,
            safety,
        })
    }
}

/// Frame tag for one serialized [`FleetSim`] inside a snapshot file.
pub const FRAME_FLEET: u16 = 0x0001;

impl FleetSim {
    /// Serialize the fleet into a sealed snapshot file image (magic,
    /// version, one [`FRAME_FLEET`] frame, trailer).
    pub fn snapshot_bytes(&self) -> Vec<u8> {
        let mut fw = FrameWriter::new();
        fw.frame_snap(FRAME_FLEET, self);
        fw.finish()
    }

    /// Restore a fleet from a snapshot file image produced by
    /// [`FleetSim::snapshot_bytes`]. Every frame seal and the whole-file
    /// trailer are verified; any flipped bit surfaces as a [`SnapError`].
    pub fn from_snapshot_bytes(data: &[u8]) -> Result<Self, SnapError> {
        let mut fr = FrameReader::new(data)?;
        let mut fleet = None;
        while let Some((tag, payload)) = fr.next_frame()? {
            if tag == FRAME_FLEET && fleet.is_none() {
                fleet = Some(autodbaas_snapshot::decode_from_slice::<FleetSim>(payload)?);
            }
        }
        fleet.ok_or(SnapError::Malformed("no fleet frame"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::node::ManagedDatabase;
    use autodbaas_core::{TdeConfig, TuningPolicy};
    use autodbaas_simdb::{DbFlavor, DiskKind, InstanceType};
    use autodbaas_telemetry::MILLIS_PER_MIN;
    use autodbaas_tuner::WorkloadId;
    use autodbaas_workload::{tpcc, ArrivalProcess};

    fn make_node(policy: TuningPolicy, seed: u64) -> ManagedDatabase {
        let wl = tpcc(0.5);
        let catalog = wl.catalog().clone();
        ManagedDatabase::new(
            DbFlavor::Postgres,
            InstanceType::M4Large,
            DiskKind::Ssd,
            catalog,
            Box::new(wl),
            ArrivalProcess::Constant(300.0),
            policy,
            WorkloadId(0),
            TdeConfig::default(),
            seed,
        )
    }

    #[test]
    fn fleet_runs_and_time_advances() {
        let mut sim = FleetSim::new(FleetConfig::default(), 2);
        sim.add_node(make_node(TuningPolicy::TdeDriven, 1), "db-0");
        sim.run_for(3 * MILLIS_PER_MIN);
        assert_eq!(sim.now(), 3 * MILLIS_PER_MIN);
        assert!(sim.nodes[0].queries_submitted > 10_000);
    }

    #[test]
    fn periodic_policy_fires_on_schedule() {
        let mut sim = FleetSim::new(
            FleetConfig {
                gate_samples_with_tde: false,
                ..FleetConfig::default()
            },
            2,
        );
        sim.add_node(
            make_node(TuningPolicy::Periodic(5 * MILLIS_PER_MIN), 2),
            "db-0",
        );
        sim.run_for(31 * MILLIS_PER_MIN);
        // ~6 requests over 31 min at a 5-min period.
        let total = sim.director.total_requests();
        assert!((4..=8).contains(&total), "requests {total}");
    }

    #[test]
    fn tde_policy_on_healthy_workload_requests_less_than_periodic() {
        // TPCC at defaults only throttles work_mem occasionally; a 5-min
        // periodic policy fires unconditionally.
        let mk = |policy| {
            let mut sim = FleetSim::new(FleetConfig::default(), 2);
            sim.add_node(make_node(policy, 3), "db");
            sim.run_for(40 * MILLIS_PER_MIN);
            sim.director.total_requests()
        };
        let tde = mk(TuningPolicy::TdeDriven);
        let periodic = mk(TuningPolicy::Periodic(5 * MILLIS_PER_MIN));
        assert!(
            tde <= periodic,
            "TDE-driven ({tde}) must not exceed periodic ({periodic})"
        );
    }

    #[test]
    fn offline_seeding_populates_repository() {
        let mut sim = FleetSim::new(FleetConfig::default(), 1);
        let wl = tpcc(0.5);
        let id = sim.seed_offline_training(&wl, DbFlavor::Postgres, 5);
        assert_eq!(sim.repo.workload(id).samples.len(), 5);
        assert!(sim.repo.workload(id).offline);
        assert!(sim
            .repo
            .workload(id)
            .samples
            .iter()
            .all(|s| s.objective > 0.0));
    }

    #[test]
    fn recommendations_eventually_get_applied() {
        let mut sim = FleetSim::new(
            FleetConfig {
                tde_period_ms: MILLIS_PER_MIN,
                gate_samples_with_tde: false,
                ..FleetConfig::default()
            },
            2,
        );
        let wl = tpcc(0.5);
        sim.seed_offline_training(&wl, DbFlavor::Postgres, 8);
        sim.add_node(
            make_node(TuningPolicy::Periodic(2 * MILLIS_PER_MIN), 4),
            "db",
        );
        let default_knobs = sim.nodes[0].db().knobs().clone();
        sim.run_for(20 * MILLIS_PER_MIN);
        assert!(
            sim.nodes[0].prev_action.is_some(),
            "a recommendation should have been applied"
        );
        assert_ne!(
            sim.nodes[0].db().knobs(),
            &default_knobs,
            "knobs should have moved off defaults"
        );
    }

    #[test]
    fn drive_totals_equal_per_node_sums_at_every_shard_count() {
        // `shards: 4` forces real worker threads even on a single-core
        // machine, where auto resolution falls back to one shard.
        let build = |shards: usize| {
            let mut sim = FleetSim::new(
                FleetConfig {
                    gate_samples_with_tde: false,
                    shards,
                    ..FleetConfig::default()
                },
                2,
            );
            for i in 0..10 {
                sim.add_node(
                    make_node(TuningPolicy::TdeDriven, 100 + i),
                    &format!("db-{i}"),
                );
            }
            sim.run_for(5 * MILLIS_PER_MIN);
            sim
        };
        let queries = |sim: &FleetSim| -> Vec<u64> {
            sim.nodes.iter().map(|n| n.queries_submitted).collect()
        };
        let (one, four) = (build(1), build(4));
        assert_eq!(queries(&one), queries(&four));
        assert_eq!(one.events.fingerprint(), four.events.fingerprint());
        for (sim, shards) in [(&one, 1), (&four, 4)] {
            assert_eq!(sim.shard_count(), shards);
            let stats = sim.drive_stats();
            assert_eq!(stats.node_ticks, 10 * 5 * 60);
            assert_eq!(stats.submitted, queries(sim).iter().sum::<u64>());
            assert_eq!(
                stats.down_ticks,
                sim.nodes.iter().map(|n| n.down_ticks).sum::<u64>()
            );
        }
    }

    /// The tightest bound `control_due[idx]` may hold: the earliest time
    /// any of the node's control fields can act.
    fn true_control_due(node: &ManagedDatabase) -> u64 {
        let in_flight = node.in_flight.map_or(u64::MAX, |r| r.deadline);
        let retry = node.retry_at.unwrap_or(u64::MAX);
        let deferred = node
            .deferred_apply
            .as_ref()
            .map_or(u64::MAX, |d| d.next_try_at);
        in_flight.min(retry).min(deferred)
    }

    /// The reference engine lives here: `HotState` entries are only lower
    /// bounds, so a one-shard fleet whose entries are lowered to `0` before
    /// every step is the plain drive loop plus a full per-node control scan
    /// — the legacy serial engine, with no second code path. Gated fleets
    /// at any shard count must match it bit for bit.
    #[test]
    fn naive_and_gated_engines_are_bit_identical() {
        use crate::plan::{InteractionPlan, PlanAction, PlanEvent};
        let fault = PlanEvent::fault;
        let act = |at, node, action| PlanEvent { at, node, action };
        let build = |shards: usize| {
            let mut sim = FleetSim::new(
                FleetConfig {
                    tde_period_ms: MILLIS_PER_MIN,
                    tuner: TunerKind::Rl, // fixed 50 ms service time: exact timing
                    seed: 7,
                    shards,
                    request_timeout_ms: 30_000,
                    retry_base_ms: 5_000,
                    max_apply_lag_bytes: 1, // any visible lag parks the apply
                    rollback: Some(RollbackPolicy::default()),
                    ..FleetConfig::default()
                },
                2,
            );
            // Page-heap on even indices, LSM on odd; nodes 0, 1 and 4 are HA.
            for i in 0..10u64 {
                let wl = tpcc(0.5);
                let node = ManagedDatabase::new(
                    if i % 2 == 0 {
                        DbFlavor::Postgres
                    } else {
                        DbFlavor::Lsm
                    },
                    InstanceType::M4Large,
                    DiskKind::Ssd,
                    wl.catalog().clone(),
                    Box::new(wl),
                    ArrivalProcess::Constant(200.0),
                    TuningPolicy::Periodic(2 * MILLIS_PER_MIN),
                    WorkloadId(0),
                    TdeConfig::default(),
                    300 + i,
                )
                .with_slaves(if matches!(i, 0 | 1 | 4) { 1 } else { 0 });
                sim.add_node(node, &format!("db-{i}"));
            }
            // Every node requests at t = 120 s and is answered at 121 s.
            sim.enable_plan(InteractionPlan::new(vec![
                fault(30_000, 1, FaultKind::VmCrash), // HA: failover + rejoin
                fault(30_000, 3, FaultKind::VmCrash), // solo: restart
                fault(110_000, 0, FaultKind::ReplicaLagSpike { pause_ms: 60_000 }),
                fault(121_000, 2, FaultKind::RequestLoss),
                fault(199_000, 8, FaultKind::MasterCrashMidApply), // hits the knob push
                fault(235_000, 4, FaultKind::SlaveCrashMidApply),
                fault(
                    241_000,
                    5,
                    FaultKind::TunerOutage {
                        duration_ms: 60_000,
                    },
                ),
                act(
                    40_000,
                    6,
                    PlanAction::Burst {
                        rate_qps: 900.0,
                        duration_ms: 60_000,
                    },
                ),
                act(50_000, 7, PlanAction::AddReplica),
                act(200_000, 8, PlanAction::KnobPush { value: 1.0 }),
                act(260_000, 9, PlanAction::Maintenance),
                act(300_000, 7, PlanAction::RemoveReplica),
            ]));
            sim
        };
        let ticks = 8 * 60;
        let outcome = |mut sim: FleetSim| {
            sim.cfg.shards = 0; // the one config byte the three runs differ in
            (
                sim.events.fingerprint(),
                sim.nodes
                    .iter()
                    .map(|n| (n.queries_submitted, n.down_ticks, n.total_ticks))
                    .collect::<Vec<_>>(),
                sim.drive_stats(),
                sim.snapshot_bytes(),
            )
        };

        let mut naive = build(1);
        for _ in 0..ticks {
            for idx in 0..naive.nodes.len() {
                naive.hot.set_control_due(idx, 0);
                naive.hot.lower_deferral(idx);
            }
            naive.step();
        }
        // The plan exercised every control path the gate could get wrong.
        for label in [
            "request.timeout",
            "request.retry",
            "request.stale_dropped",
            "apply.lag_deferred",
            "apply.rejected_slave_crash",
            "apply.master_crashed",
            "apply.ok",
            "recover.failover",
            "recover.rejoined",
            "recover.restarted",
            "recover.slave_restarted",
            "plan.burst_end",
        ] {
            assert!(naive.events.count(label) > 0, "{label} never fired");
        }
        let reference = outcome(naive);

        for shards in [1, 4] {
            let mut gated = build(shards);
            for tick in 0..ticks {
                gated.step();
                // A stale (too late) entry fails here, at the tick it was
                // written, not as a distant fingerprint diff.
                for (idx, node) in gated.nodes.iter().enumerate() {
                    assert!(
                        gated.hot.control_due(idx) <= true_control_due(node),
                        "shards={shards} tick={tick} node={idx}: control_due {} > true {}",
                        gated.hot.control_due(idx),
                        true_control_due(node)
                    );
                }
            }
            assert_eq!(gated.shard_count(), shards);
            let got = outcome(gated);
            assert_eq!(got.0, reference.0, "shards={shards}: event logs");
            assert_eq!(got.1, reference.1, "shards={shards}: node counters");
            assert_eq!(got.2, reference.2, "shards={shards}: drive stats");
            assert!(got.3 == reference.3, "shards={shards}: snapshot bytes");
        }
    }

    /// The deferral oracle. The reference is the same fleet with every
    /// deferral entry lowered before each step — the per-tick engine, with
    /// no second code path. A quiet fleet (no plan) mixes zero-rate
    /// page-heap (PostgreSQL- and MySQL-flavour, shared and split disks:
    /// the slave-less ones replay through `SimDatabase::tick_many`'s
    /// closed form), LSM and HA nodes, zero-rate `Periodic` nodes whose
    /// requests time out (control actions) or land (deliveries) on
    /// deferred nodes mid-window, a zero-rate HA node whose lagging slave
    /// parks its apply for the control scan to retry, a zero-rate node
    /// crashed at boot, and trickle nodes. Deferred and reference fleets
    /// must agree at every tick on what the fleet reports, on the snapshot
    /// bytes mid-window (and a fleet restored from them must continue
    /// identically), after a `run_for` that ends mid-window, and after a
    /// plan is armed on a fleet that owes ticks.
    #[test]
    fn deferred_and_stepped_engines_are_bit_identical() {
        use crate::plan::{InteractionPlan, PlanAction, PlanEvent};
        const ZERO: f64 = 0.0;
        const TRICKLE: f64 = 2.0;
        let build = |shards: usize| {
            let mut sim = FleetSim::new(
                FleetConfig {
                    tde_period_ms: MILLIS_PER_MIN,
                    tuner: TunerKind::Rl, // fixed 50 ms service time: exact timing
                    seed: 11,
                    shards,
                    // One tuner slot: the k-th request of a round is ready
                    // 50·(k+1) ms after it, and the first four time out.
                    request_timeout_ms: 800,
                    retry_base_ms: 5_000,
                    retry_max_attempts: 4,
                    max_apply_lag_bytes: 1,
                    rollback: Some(RollbackPolicy::default()),
                    ..FleetConfig::default()
                },
                1,
            );
            let two_min = TuningPolicy::Periodic(2 * MILLIS_PER_MIN);
            let nodes: [(DbFlavor, f64, TuningPolicy, usize); 12] = [
                (DbFlavor::Postgres, ZERO, two_min, 0),
                (DbFlavor::Lsm, ZERO, two_min, 0),
                (DbFlavor::Postgres, ZERO, two_min, 1),
                (DbFlavor::Lsm, ZERO, two_min, 1),
                (DbFlavor::Postgres, ZERO, two_min, 1), // slave replay paused below
                (DbFlavor::Lsm, ZERO, two_min, 0),
                (DbFlavor::Postgres, TRICKLE, TuningPolicy::TdeDriven, 0),
                (DbFlavor::Lsm, TRICKLE, TuningPolicy::TdeDriven, 1),
                (DbFlavor::Lsm, ZERO, TuningPolicy::TdeDriven, 0),
                (DbFlavor::Postgres, ZERO, TuningPolicy::TdeDriven, 0), // crashed at boot
                (DbFlavor::MySql, ZERO, two_min, 0),
                (DbFlavor::Postgres, ZERO, two_min, 0), // split disks
            ];
            for (i, (flavor, qps, policy, slaves)) in nodes.into_iter().enumerate() {
                let wl = tpcc(0.5);
                let mut node = ManagedDatabase::new(
                    flavor,
                    InstanceType::M4Large,
                    DiskKind::Ssd,
                    wl.catalog().clone(),
                    Box::new(wl),
                    ArrivalProcess::Constant(qps),
                    policy,
                    WorkloadId(0),
                    TdeConfig::default(),
                    500 + i as u64,
                )
                .with_slaves(slaves);
                match i {
                    4 => {
                        // WAL the slave has not replayed: every apply is
                        // lag-refused until the replay pause ends.
                        node.service.pause_slave_replay(0, 140_000);
                        node.arrival = ArrivalProcess::Constant(300.0);
                        for _ in 0..5 {
                            node.drive(1_000);
                        }
                        node.arrival = ArrivalProcess::Constant(ZERO);
                    }
                    9 => {
                        node.db_mut().crash();
                    }
                    11 => {
                        node.db_mut().use_split_disks();
                    }
                    _ => {}
                }
                sim.add_node(node, &format!("db-{i}"));
            }
            sim
        };
        // What the fleet reports, at any tick.
        let observe = |sim: &FleetSim| {
            (
                sim.events.fingerprint(),
                sim.availability().to_bits(),
                sim.drive_stats(),
                sim.wedged_nodes(),
            )
        };
        let counters = |sim: &FleetSim| -> Vec<(u64, u64, u64)> {
            sim.nodes
                .iter()
                .map(|n| (n.queries_submitted, n.down_ticks, n.total_ticks))
                .collect()
        };
        let step_lowered = |sim: &mut FleetSim| {
            for idx in 0..sim.nodes.len() {
                sim.hot.lower_deferral(idx);
            }
            sim.step();
        };
        let plan = || {
            InteractionPlan::new(vec![PlanEvent {
                at: 360_000,
                node: 8,
                action: PlanAction::Burst {
                    rate_qps: 50.0,
                    duration_ms: 30_000,
                },
            }])
        };

        for shards in [1, 4] {
            let mut stepped = build(shards);
            let mut deferred = build(shards);
            let mut resumed: Option<FleetSim> = None;
            let mut max_owed = 0;
            let mut tick = 0u64;
            let mut both = |stepped: &mut FleetSim,
                            deferred: &mut FleetSim,
                            resumed: &mut Option<FleetSim>,
                            tick: &mut u64,
                            to: u64| {
                while *tick < to {
                    *tick += 1;
                    step_lowered(stepped);
                    deferred.step();
                    let want = observe(stepped);
                    assert_eq!(observe(deferred), want, "shards={shards} tick={tick}");
                    if let Some(r) = resumed.as_mut() {
                        r.step();
                        assert_eq!(observe(r), want, "restored, shards={shards} tick={tick}");
                    }
                    max_owed = (0..deferred.nodes.len())
                        .map(|idx| deferred.hot.owed(idx))
                        .fold(max_owed, u64::max);
                }
            };

            // Mid-window: the bytes are the caught-up fleet's, and a fleet
            // restored from them continues identically.
            both(&mut stepped, &mut deferred, &mut resumed, &mut tick, 150);
            let bytes = deferred.snapshot_bytes();
            assert!(
                bytes == stepped.snapshot_bytes(),
                "shards={shards}: mid-window bytes"
            );
            resumed = Some(FleetSim::from_snapshot_bytes(&bytes).unwrap());
            both(&mut stepped, &mut deferred, &mut resumed, &mut tick, 300);

            // `run_for` ending mid-window returns with every node caught up.
            for _ in 0..30 {
                step_lowered(&mut stepped);
            }
            deferred.run_for(30_000);
            resumed.as_mut().unwrap().run_for(30_000);
            tick += 30;
            assert_eq!(
                counters(&deferred),
                counters(&stepped),
                "shards={shards}: run_for"
            );
            assert_eq!(counters(resumed.as_ref().unwrap()), counters(&stepped));

            // Arming a plan on a fleet that owes ticks catches it up.
            both(&mut stepped, &mut deferred, &mut resumed, &mut tick, 335);
            stepped.enable_plan(plan());
            deferred.enable_plan(plan());
            resumed.as_mut().unwrap().enable_plan(plan());
            both(&mut stepped, &mut deferred, &mut resumed, &mut tick, 420);

            // Deferral engaged, and every catch-up site met a node that
            // owed ticks: requests timed out and were retried (control
            // scan), a recommendation landed mid-window (delivery), and the
            // lag-parked apply landed from the control scan.
            assert!(
                max_owed >= 50,
                "shards={shards}: deferral never engaged ({max_owed})"
            );
            let fired = |kind: &str, target: u64| {
                stepped
                    .events
                    .events()
                    .iter()
                    .any(|e| e.kind == kind && e.target == target && e.at % MILLIS_PER_MIN != 0)
            };
            for (kind, target) in [
                ("request.timeout", 0),
                ("request.retry", 1),
                ("apply.ok", 5),
                ("apply.lag_deferred", 4),
                ("apply.ok", 4),
            ] {
                assert!(fired(kind, target), "{kind} on node {target} never fired");
            }
            let want = (counters(&stepped), stepped.snapshot_bytes());
            for (name, sim) in [
                ("deferred", &deferred),
                ("restored", resumed.as_ref().unwrap()),
            ] {
                let got = (counters(sim), sim.snapshot_bytes());
                assert_eq!(got.0, want.0, "shards={shards} {name}: node counters");
                assert!(got.1 == want.1, "shards={shards} {name}: snapshot bytes");
            }
        }
    }

    #[test]
    fn interaction_plan_drives_fleet_and_is_shard_invariant() {
        use crate::plan::{InteractionPlan, PlanAction, PlanEvent};
        let plan_events = || {
            vec![
                PlanEvent {
                    at: 30_000,
                    node: 0,
                    action: PlanAction::Burst {
                        rate_qps: 900.0,
                        duration_ms: 60_000,
                    },
                },
                PlanEvent {
                    at: 45_000,
                    node: 1,
                    action: PlanAction::AddReplica,
                },
                PlanEvent {
                    at: 60_000,
                    node: 1,
                    action: PlanAction::Fault(FaultKind::VmCrash),
                },
                PlanEvent {
                    at: 90_000,
                    node: 2,
                    action: PlanAction::KnobPush { value: 1.0 },
                },
                PlanEvent {
                    at: 120_000,
                    node: 3,
                    action: PlanAction::Maintenance,
                },
                PlanEvent {
                    at: 150_000,
                    node: 1,
                    action: PlanAction::RemoveReplica,
                },
            ]
        };
        let build = |shards: usize| {
            let mut sim = FleetSim::new(
                FleetConfig {
                    gate_samples_with_tde: false,
                    shards,
                    rollback: Some(RollbackPolicy::default()),
                    ..FleetConfig::default()
                },
                2,
            );
            for i in 0..6 {
                sim.add_node(
                    make_node(TuningPolicy::TdeDriven, 200 + i),
                    &format!("db-{i}"),
                );
            }
            sim.enable_plan(InteractionPlan::new(plan_events()));
            sim.run_for(6 * MILLIS_PER_MIN);
            sim
        };
        let serial = build(1);
        assert_eq!(serial.plan_remaining(), 0);
        for label in [
            "plan.burst",
            "plan.burst_end",
            "plan.replica_add",
            "fault.vm_crash",
            "plan.knob_push",
            "plan.maintenance",
            "plan.replica_remove",
        ] {
            assert_eq!(serial.events.count(label), 1, "{label}");
        }
        // The VmCrash at 60s hits a service that grew a replica at 45s, so
        // it fails over instead of going fully down; the replica-less
        // maintenance restart on node 3 must cost real downtime.
        assert_eq!(serial.events.count("recover.failover"), 1);
        assert!(serial.nodes[3].down_ticks > 0);
        assert_eq!(serial.nodes[1].service.n_slaves(), 0, "removed at 150s");
        // The burst tripled node 0's arrivals for a minute.
        assert!(serial.nodes[0].queries_submitted > serial.nodes[4].queries_submitted);
        // Bit-identical on three shards.
        let sharded = build(3);
        assert_eq!(
            serial
                .nodes
                .iter()
                .map(|n| n.queries_submitted)
                .collect::<Vec<_>>(),
            sharded
                .nodes
                .iter()
                .map(|n| n.queries_submitted)
                .collect::<Vec<_>>()
        );
        assert_eq!(serial.events.fingerprint(), sharded.events.fingerprint());
    }

    /// Within a tick, burst reverts run before plan delivery: a fault due
    /// on the tick a burst ends on the same node lands after the revert.
    #[test]
    fn burst_end_precedes_a_fault_due_on_the_same_tick() {
        let labels = |shards: usize| -> Vec<(SimTime, &'static str, u64)> {
            let mut sim = FleetSim::new(
                FleetConfig {
                    shards,
                    ..FleetConfig::default()
                },
                1,
            );
            for i in 0..3 {
                sim.add_node(
                    make_node(TuningPolicy::TdeDriven, 40 + i),
                    &format!("db-{i}"),
                );
            }
            sim.enable_plan(InteractionPlan::new(vec![
                PlanEvent {
                    at: 10_000,
                    node: 1,
                    action: PlanAction::Burst {
                        rate_qps: 900.0,
                        duration_ms: 20_000,
                    },
                },
                PlanEvent::fault(
                    30_000,
                    1,
                    FaultKind::DiskStall {
                        duration_ms: 5_000,
                        factor: 4.0,
                    },
                ),
            ]));
            sim.run_for(40_000);
            assert_eq!(sim.shard_count(), shards);
            sim.events
                .events()
                .iter()
                .map(|e| (e.at, e.kind, e.target))
                .collect()
        };
        let one = labels(1);
        assert_eq!(
            one,
            [
                (10_000, "plan.burst", 1),
                (30_000, "plan.burst_end", 1),
                (30_000, "fault.disk_stall", 1),
            ]
        );
        assert_eq!(one, labels(3));
    }

    #[test]
    fn rl_backend_runs_end_to_end() {
        let mut sim = FleetSim::new(
            FleetConfig {
                tuner: TunerKind::Rl,
                gate_samples_with_tde: false,
                ..FleetConfig::default()
            },
            1,
        );
        sim.add_node(
            make_node(TuningPolicy::Periodic(2 * MILLIS_PER_MIN), 5),
            "db",
        );
        sim.run_for(10 * MILLIS_PER_MIN);
        assert!(sim.director.total_requests() >= 3);
        assert!(sim.nodes[0].prev_action.is_some());
    }
}
