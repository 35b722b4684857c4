//! One managed database inside the fleet simulation: the replicated
//! service, its TDE plugin, its workload, and its tuning-request policy.

use autodbaas_core::{Tde, TdeConfig, TdeReport, TuningPolicy};
use autodbaas_ctrlplane::ReplicaSet;
use autodbaas_simdb::{
    Backend, Catalog, DbFlavor, DiskKind, InstanceType, KnobSet, MetricsSnapshot, SimDatabase,
    SubmitResult,
};
use autodbaas_telemetry::SimTime;
use autodbaas_tuner::WorkloadId;
use autodbaas_workload::{ArrivalProcess, QuerySource};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// A tuning request awaiting its recommendation. Responses are matched by
/// sequence number so a late delivery for a request that already timed out
/// (and was retried) is dropped instead of double-applying.
#[derive(Debug, Clone, Copy)]
pub struct InFlightRequest {
    /// Give up and retry when `now` passes this.
    pub deadline: SimTime,
    /// Request sequence number (monotonic per node).
    pub seq: u64,
    /// Fault injection: the response was lost in transit; delivery drops it
    /// and only the deadline can clear the request.
    pub lost: bool,
}

/// A recommendation refused by the replica-lag guard, parked for a
/// backoff-retry instead of being thrown away.
#[derive(Debug, Clone)]
pub struct DeferredApply {
    /// The unit-cube config still waiting to land.
    pub unit: Vec<f64>,
    /// Next attempt time.
    pub next_try_at: SimTime,
    /// Attempts already made.
    pub attempts: u32,
}

/// Post-apply safety guard: if the observation windows after an applied
/// recommendation regress the objective beyond the configured threshold,
/// the service is rolled back to `revert_to` and the window's sample is
/// quarantined.
#[derive(Debug, Clone)]
pub struct RollbackGuard {
    /// Objective over the window preceding the apply.
    pub baseline: f64,
    /// Config to restore (and re-persist) on regression.
    pub revert_to: KnobSet,
    /// Observation windows left before the new config is accepted.
    pub windows_left: u32,
}

/// Per-database bookkeeping the fleet simulator needs.
pub struct ManagedDatabase {
    /// The replicated service: master plus optional HA slaves (built with
    /// [`ManagedDatabase::with_slaves`]); query traffic runs on the master.
    pub service: ReplicaSet,
    /// The TDE plugin running on the VM.
    pub tde: Tde,
    /// Query generator.
    pub workload: Box<dyn QuerySource + Send>,
    /// Arrival-rate model.
    pub arrival: ArrivalProcess,
    /// Tuning-request policy (TDE-driven vs. periodic).
    pub policy: TuningPolicy,
    /// This database's workload id in the tuner repository.
    pub workload_id: WorkloadId,
    /// Last tuning request time (for periodic policies).
    pub last_request_at: SimTime,
    /// Metric snapshot at the start of the current observation window.
    pub window_start_snapshot: MetricsSnapshot,
    /// Last TDE report (drives sample gating).
    pub last_report: TdeReport,
    /// Objective (qps) over the previous window — RL reward baseline.
    pub prev_objective: f64,
    /// Normalised config applied in the previous window (RL action echo).
    pub prev_action: Option<Vec<f64>>,
    /// RL state observed when the previous action was applied.
    pub prev_rl_state: Option<Vec<f64>>,
    /// RNG for workload sampling (and retry-backoff jitter under chaos).
    pub rng: StdRng,
    /// Queries submitted this simulation (for reports).
    pub queries_submitted: u64,
    /// Plan-upgrade requests raised.
    pub plan_upgrades: u64,
    /// The tuning request in flight, if any. Replaces the old
    /// `pending_request` flag, whose lost-response failure mode wedged the
    /// node forever; the deadline here guarantees progress.
    pub in_flight: Option<InFlightRequest>,
    /// Next request sequence number.
    pub request_seq: u64,
    /// When a timed-out request retries (exponential backoff + jitter).
    pub retry_at: Option<SimTime>,
    /// Consecutive timeouts for the current request.
    pub retry_attempt: u32,
    /// Lag-refused recommendation awaiting a backoff-retry.
    pub deferred_apply: Option<DeferredApply>,
    /// Post-apply regression guard, when the fleet's rollback policy is on.
    pub guard: Option<RollbackGuard>,
    /// A fault hit this observation window; its sample is not trustworthy
    /// and is quarantined.
    pub window_tainted: bool,
    /// Monitoring-agent blackout: TDE windows before this are skipped.
    pub telemetry_blackout_until: SimTime,
    /// Ticks the master spent hard-down (availability numerator).
    pub down_ticks: u64,
    /// Ticks driven in total (availability denominator).
    pub total_ticks: u64,
    /// Observation windows to skip after a recommendation was applied, so
    /// the new configuration gets a chance to show its effect before the
    /// TDE can indict it.
    pub cooldown_windows: u32,
    /// Construction seed (HA slaves added later derive theirs from it).
    seed: u64,
}

/// How many distinct query instances are materialised per tick; the rest of
/// the arrival count is replayed as batches of these.
const QUERY_SHAPES_PER_TICK: u64 = 24;

/// What one [`ManagedDatabase::drive`] tick did — the per-node output the
/// sharded tick engine folds into its per-shard accumulators instead of
/// reading fleet counters back out of every node.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DriveTick {
    /// Queries accepted by the master this tick.
    pub submitted: u64,
    /// The master spent this tick hard-down (crash recovery).
    pub down: bool,
}

impl ManagedDatabase {
    /// Assemble a managed database (no HA slaves; chain
    /// [`ManagedDatabase::with_slaves`] to add them).
    #[allow(clippy::too_many_arguments)]
    pub fn new(
        flavor: DbFlavor,
        instance: InstanceType,
        disk: DiskKind,
        catalog: Catalog,
        workload: Box<dyn QuerySource + Send>,
        arrival: ArrivalProcess,
        policy: TuningPolicy,
        workload_id: WorkloadId,
        tde_config: TdeConfig,
        seed: u64,
    ) -> Self {
        let service = ReplicaSet::new(flavor, instance, disk, catalog, 0, seed);
        let tde = Tde::new(
            &service.master().profile().clone(),
            tde_config,
            seed ^ 0x7de,
        );
        let window_start_snapshot = service.master().metrics_snapshot();
        Self {
            service,
            tde,
            workload,
            arrival,
            policy,
            workload_id,
            last_request_at: 0,
            window_start_snapshot,
            last_report: TdeReport::default(),
            prev_objective: 0.0,
            prev_action: None,
            prev_rl_state: None,
            rng: StdRng::seed_from_u64(seed ^ 0xfeed),
            queries_submitted: 0,
            plan_upgrades: 0,
            in_flight: None,
            request_seq: 0,
            retry_at: None,
            retry_attempt: 0,
            deferred_apply: None,
            guard: None,
            window_tainted: false,
            telemetry_blackout_until: 0,
            down_ticks: 0,
            total_ticks: 0,
            cooldown_windows: 0,
            seed,
        }
    }

    /// Rebuild the service with `n` HA slaves of the master's shape. Only
    /// meaningful before the simulation starts (the replicas boot fresh).
    pub fn with_slaves(mut self, n: usize) -> Self {
        let m = self.service.master();
        self.service = ReplicaSet::new(
            m.flavor(),
            m.instance(),
            m.disks().data().kind(),
            m.catalog().clone(),
            n,
            self.seed,
        );
        self.window_start_snapshot = self.service.master().metrics_snapshot();
        self
    }

    /// The master node (where traffic and tuning act). Page-heap and LSM
    /// masters coexist in one fleet.
    pub fn db(&self) -> &SimDatabase {
        self.service.master()
    }

    /// Mutable master.
    pub fn db_mut(&mut self) -> &mut SimDatabase {
        self.service.master_mut()
    }

    /// Fraction of driven ticks the master was serving (1.0 before any
    /// tick).
    pub fn availability(&self) -> f64 {
        if self.total_ticks == 0 {
            return 1.0;
        }
        1.0 - self.down_ticks as f64 / self.total_ticks as f64
    }

    /// Drive one tick of traffic: Poisson arrivals from the workload,
    /// batched into a bounded number of distinct shapes, then the service
    /// tick (master, slaves, replication streams).
    pub fn drive(&mut self, tick_ms: u64) -> DriveTick {
        self.total_ticks += 1;
        let down = self.service.master().is_down();
        if down {
            self.down_ticks += 1;
        }
        let now = self.service.master().now();
        let n = self.arrival.sample_count(&mut self.rng, now, tick_ms);
        let mut submitted = 0u64;
        if n > 0 {
            let shapes = n.min(QUERY_SHAPES_PER_TICK);
            let per_shape = n / shapes;
            let remainder = n - per_shape * shapes;
            for i in 0..shapes {
                let q = self.workload.next_query(&mut self.rng);
                let count = per_shape + u64::from(i < remainder);
                if count > 0 {
                    match self.service.master_mut().submit(&q, count) {
                        SubmitResult::Done(_) | SubmitResult::Queued => {
                            submitted += count;
                        }
                        SubmitResult::Refused | SubmitResult::Saturated { .. } => {}
                    }
                }
            }
        }
        self.queries_submitted += submitted;
        self.service.tick(tick_ms);
        DriveTick { submitted, down }
    }

    /// Whether the fleet may stop driving this node per tick: a zero
    /// constant arrival rate draws no arrivals (and no randomness), and a
    /// master that is up stays up while nothing else touches the node, so
    /// every deferred tick submits nothing and is not down.
    pub(crate) fn may_defer(&self) -> bool {
        matches!(self.arrival, ArrivalProcess::Constant(rate) if rate <= 0.0)
            && !self.service.master().is_down()
    }

    /// Replay `ticks` deferred ticks, leaving the node where the same
    /// [`ManagedDatabase::drive`] calls back to back would: a deferrable
    /// node draws no arrivals and stays up, so each of them only counts
    /// the tick and ticks the service. A slave-less service hands the
    /// whole run to [`Backend::tick_many`]; replication ticks per tick.
    pub(crate) fn replay(&mut self, ticks: u64, tick_ms: u64) {
        debug_assert!(
            ticks == 0 || self.may_defer(),
            "replaying a node that may not defer"
        );
        self.total_ticks += ticks;
        if self.service.n_slaves() == 0 {
            self.service.master_mut().tick_many(ticks, tick_ms);
        } else {
            for _ in 0..ticks {
                self.service.tick(tick_ms);
            }
        }
    }

    /// Objective over the window that just closed — completed queries per
    /// second — from an already-taken snapshot (the fleet TDE round
    /// snapshots once and derives everything from it).
    pub fn window_objective_from(&self, snap: &MetricsSnapshot, window_ms: u64) -> f64 {
        let executed = snap.delta_of(
            &self.window_start_snapshot,
            autodbaas_simdb::MetricId::QueriesExecuted,
        );
        executed * 1000.0 / window_ms.max(1) as f64
    }
}

use autodbaas_snapshot::{snap_struct, Snap, SnapError, SnapReader, SnapWriter};
use autodbaas_workload::WorkloadSnap;

snap_struct!(InFlightRequest {
    deadline,
    seq,
    lost
});
snap_struct!(DeferredApply {
    unit,
    next_try_at,
    attempts
});
snap_struct!(RollbackGuard {
    baseline,
    revert_to,
    windows_left
});

// The boxed `dyn QuerySource` is the one field that cannot go through
// `snap_struct!`: it round-trips through [`WorkloadSnap`], the closed
// enumeration of every concrete workload the fleet can host.
impl Snap for ManagedDatabase {
    fn encode(&self, w: &mut SnapWriter) {
        self.service.encode(w);
        self.tde.encode(w);
        self.workload.to_snap().encode(w);
        self.arrival.encode(w);
        self.policy.encode(w);
        self.workload_id.encode(w);
        self.last_request_at.encode(w);
        self.window_start_snapshot.encode(w);
        self.last_report.encode(w);
        self.prev_objective.encode(w);
        self.prev_action.encode(w);
        self.prev_rl_state.encode(w);
        self.rng.encode(w);
        self.queries_submitted.encode(w);
        self.plan_upgrades.encode(w);
        self.in_flight.encode(w);
        self.request_seq.encode(w);
        self.retry_at.encode(w);
        self.retry_attempt.encode(w);
        self.deferred_apply.encode(w);
        self.guard.encode(w);
        self.window_tainted.encode(w);
        self.telemetry_blackout_until.encode(w);
        self.down_ticks.encode(w);
        self.total_ticks.encode(w);
        self.cooldown_windows.encode(w);
        self.seed.encode(w);
    }
    fn decode(r: &mut SnapReader) -> Result<Self, SnapError> {
        Ok(ManagedDatabase {
            service: Snap::decode(r)?,
            tde: Snap::decode(r)?,
            workload: WorkloadSnap::decode(r)?.into_source(),
            arrival: Snap::decode(r)?,
            policy: Snap::decode(r)?,
            workload_id: Snap::decode(r)?,
            last_request_at: Snap::decode(r)?,
            window_start_snapshot: Snap::decode(r)?,
            last_report: Snap::decode(r)?,
            prev_objective: Snap::decode(r)?,
            prev_action: Snap::decode(r)?,
            prev_rl_state: Snap::decode(r)?,
            rng: Snap::decode(r)?,
            queries_submitted: Snap::decode(r)?,
            plan_upgrades: Snap::decode(r)?,
            in_flight: Snap::decode(r)?,
            request_seq: Snap::decode(r)?,
            retry_at: Snap::decode(r)?,
            retry_attempt: Snap::decode(r)?,
            deferred_apply: Snap::decode(r)?,
            guard: Snap::decode(r)?,
            window_tainted: Snap::decode(r)?,
            telemetry_blackout_until: Snap::decode(r)?,
            down_ticks: Snap::decode(r)?,
            total_ticks: Snap::decode(r)?,
            cooldown_windows: Snap::decode(r)?,
            seed: Snap::decode(r)?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use autodbaas_workload::{tpcc, ArrivalProcess};

    fn node(policy: TuningPolicy) -> ManagedDatabase {
        let wl = tpcc(1.0);
        let catalog = wl.catalog().clone();
        ManagedDatabase::new(
            DbFlavor::Postgres,
            InstanceType::M4Large,
            DiskKind::Ssd,
            catalog,
            Box::new(wl),
            ArrivalProcess::Constant(500.0),
            policy,
            WorkloadId(0),
            TdeConfig::default(),
            42,
        )
    }

    #[test]
    fn drive_produces_traffic() {
        let mut n = node(TuningPolicy::TdeDriven);
        for _ in 0..10 {
            n.drive(1_000);
        }
        // ~500 qps for 10 s.
        assert!(
            n.queries_submitted > 3_000,
            "submitted {}",
            n.queries_submitted
        );
        assert!(
            n.db()
                .metrics()
                .get(autodbaas_simdb::MetricId::QueriesExecuted)
                > 3_000.0
        );
        assert!((n.availability() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn window_objective_tracks_arrival_rate() {
        let mut n = node(TuningPolicy::TdeDriven);
        n.window_start_snapshot = n.db().metrics_snapshot();
        for _ in 0..20 {
            n.drive(1_000);
        }
        let qps = n.window_objective_from(&n.db().metrics_snapshot(), 20_000);
        assert!((300.0..700.0).contains(&qps), "qps {qps}");
    }

    #[test]
    fn with_slaves_builds_replicas_and_keeps_determinism() {
        let mk = || node(TuningPolicy::TdeDriven).with_slaves(2);
        let mut a = mk();
        let mut b = mk();
        assert_eq!(a.service.n_slaves(), 2);
        for _ in 0..10 {
            a.drive(1_000);
            b.drive(1_000);
        }
        assert_eq!(a.queries_submitted, b.queries_submitted);
        assert_eq!(
            a.service.max_replication_lag(),
            b.service.max_replication_lag()
        );
    }

    #[test]
    fn down_master_ticks_count_against_availability() {
        let mut n = node(TuningPolicy::TdeDriven);
        n.drive(1_000);
        let report = n.db_mut().crash();
        let down_ticks_expected = report.recovery_ms.div_ceil(1_000);
        for _ in 0..30 {
            n.drive(1_000);
        }
        assert!(n.down_ticks >= down_ticks_expected.min(2));
        assert!(n.availability() < 1.0);
        assert!(!n.db().is_down());
    }
}
