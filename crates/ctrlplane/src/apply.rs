//! Applying recommendations to replicated services (§4).
//!
//! "In case of multiple nodes maintaining high availability, the
//! recommendations are first applied to the Slave node(s). If the process
//! crashes in the Slave node, the config recommendations are rejected.
//! Thus, it is ensured that the Master node is up … After the config
//! recommendations are applied to the Master node, the recommendations are
//! stored in the persistence storage."
//!
//! [`ReplicaSet`] owns one master and N slaves; [`ReplicaSet::apply`]
//! implements the slave-first protocol with fault injection for tests.

use autodbaas_simdb::{
    ApplyMode, ApplyReport, Backend, Catalog, ConfigChange, DbFlavor, DiskKind, InstanceType,
    ReplicationSlot, SimDatabase,
};

/// Why an apply was rejected.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ApplyError {
    /// A slave crashed while applying; master untouched.
    SlaveCrashed {
        /// Index of the crashed slave.
        slave: usize,
    },
    /// The master crashed; reconciliation will restore persisted config.
    MasterCrashed,
    /// A slave's replication lag exceeds the HA guard; reconfiguring it now
    /// would leave the service one failure away from data loss.
    ReplicaLagging {
        /// Index of the lagging slave.
        slave: usize,
        /// Its lag in bytes.
        lag_bytes: u64,
    },
}

impl std::fmt::Display for ApplyError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ApplyError::SlaveCrashed { slave } => {
                write!(f, "config rejected: slave {slave} crashed during apply")
            }
            ApplyError::MasterCrashed => write!(f, "master crashed during apply"),
            ApplyError::ReplicaLagging { slave, lag_bytes } => {
                write!(f, "apply refused: slave {slave} lags by {lag_bytes} bytes")
            }
        }
    }
}

impl std::error::Error for ApplyError {}

/// What a master failover did — returned by [`ReplicaSet::failover`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FailoverReport {
    /// Index (in the pre-failover slave list) of the promoted slave.
    pub promoted: usize,
    /// WAL bytes the promoted slave had not replayed when it took over —
    /// the transactions lost by promoting it.
    pub lost_bytes: u64,
}

/// A replicated database service: one master, N read slaves.
#[derive(Debug)]
pub struct ReplicaSet {
    master: SimDatabase,
    slaves: Vec<SimDatabase>,
    /// Per-slave replication stream state.
    slots: Vec<ReplicationSlot>,
    /// Fault injection: the next apply crashes this slave.
    crash_next_apply_on_slave: Option<usize>,
    /// Fault injection: the next apply crashes mid-way after slaves
    /// succeeded (exercises the reconciler).
    crash_next_apply_on_master: bool,
}

/// Sustained replay bandwidth assumed per slave (bytes/second).
const SLAVE_REPLAY_RATE: f64 = 64.0 * 1024.0 * 1024.0;

impl ReplicaSet {
    /// Build a set with `n_slaves` replicas of the same shape as the
    /// master.
    pub fn new(
        flavor: DbFlavor,
        instance: InstanceType,
        disk: DiskKind,
        catalog: Catalog,
        n_slaves: usize,
        seed: u64,
    ) -> Self {
        let master = SimDatabase::new(flavor, instance, disk, catalog.clone(), seed);
        let slaves: Vec<SimDatabase> = (0..n_slaves)
            .map(|i| {
                SimDatabase::new(
                    flavor,
                    instance,
                    disk,
                    catalog.clone(),
                    seed ^ (i as u64 + 1),
                )
            })
            .collect();
        let slots = (0..n_slaves)
            .map(|_| ReplicationSlot::new(SLAVE_REPLAY_RATE))
            .collect();
        Self {
            master,
            slaves,
            slots,
            crash_next_apply_on_slave: None,
            crash_next_apply_on_master: false,
        }
    }

    /// The master node.
    pub fn master(&self) -> &SimDatabase {
        &self.master
    }

    /// Mutable master (query traffic goes here).
    pub fn master_mut(&mut self) -> &mut SimDatabase {
        &mut self.master
    }

    /// The slaves.
    pub fn slaves(&self) -> &[SimDatabase] {
        &self.slaves
    }

    /// Mutable access to slave `i` (fault injection, crash recovery).
    pub fn slave_mut(&mut self, i: usize) -> &mut SimDatabase {
        &mut self.slaves[i]
    }

    /// Number of slaves in the set.
    pub fn n_slaves(&self) -> usize {
        self.slaves.len()
    }

    /// Pause slave `i`'s WAL replay for `ms` — the replica-lag-spike fault
    /// (network partition, slave I/O stall).
    pub fn pause_slave_replay(&mut self, i: usize, ms: u64) {
        self.slots[i].pause(ms);
    }

    /// Promote the most-caught-up slave to master (highest replay LSN, ties
    /// broken toward the lowest index, matching a DBA promoting the first
    /// healthy candidate). The old master is demoted into the promoted
    /// slave's slot and every replication stream is re-based onto the new
    /// master's timeline. Returns `None` when there is no slave to promote.
    pub fn failover(&mut self) -> Option<FailoverReport> {
        if self.slaves.is_empty() {
            return None;
        }
        let mut promoted = 0;
        for i in 1..self.slots.len() {
            if self.slots[i].replay_lsn() > self.slots[promoted].replay_lsn() {
                promoted = i;
            }
        }
        let old_master_lsn = self.master.wal().insert_lsn();
        let lost_bytes = old_master_lsn.saturating_sub(self.slots[promoted].replay_lsn());
        std::mem::swap(&mut self.master, &mut self.slaves[promoted]);
        // All streams (including the demoted master's, now in the promoted
        // slave's slot) re-base onto the new master's timeline, as if from
        // a fresh base backup.
        let new_master_lsn = self.master.wal().insert_lsn();
        for slot in &mut self.slots {
            slot.resync(new_master_lsn);
        }
        Some(FailoverReport {
            promoted,
            lost_bytes,
        })
    }

    /// Provision one more read replica of the master's shape (the scenario
    /// simulator's replica-churn plan event, and the orchestrator's
    /// scale-out path). The new slave boots from a fresh base backup: its
    /// reloadable knobs are cloned from the master's live config so joining
    /// introduces no drift, and its replication slot resyncs to the
    /// master's current insert LSN so the lag guard doesn't refuse the next
    /// apply on account of a brand-new replica "lagging" from LSN 0.
    /// Returns the new slave's index.
    pub fn add_slave(&mut self, seed: u64) -> usize {
        let m = &self.master;
        let mut slave = SimDatabase::new(
            m.flavor(),
            m.instance(),
            m.disks().data().kind(),
            m.catalog().clone(),
            seed,
        );
        let profile = m.profile().clone();
        for (id, spec) in profile.iter() {
            if !spec.restart_required {
                slave.set_knob_direct(id, m.knobs().get(id));
            }
        }
        let mut slot = ReplicationSlot::new(SLAVE_REPLAY_RATE);
        slot.resync(m.wal().insert_lsn());
        self.slaves.push(slave);
        self.slots.push(slot);
        self.slaves.len() - 1
    }

    /// Decommission slave `i` and its replication slot (scale-in / the
    /// scenario simulator's replica-removal plan event). A pending
    /// crash-on-next-apply injection pointing at or past `i` is dropped —
    /// the node it targeted is gone or renumbered.
    pub fn remove_slave(&mut self, i: usize) {
        assert!(i < self.slaves.len(), "no such slave");
        self.slaves.remove(i);
        self.slots.remove(i);
        if self.crash_next_apply_on_slave.is_some_and(|c| c >= i) {
            self.crash_next_apply_on_slave = None;
        }
    }

    /// Fault injection for tests: crash slave `i` on the next apply.
    pub fn inject_slave_crash(&mut self, i: usize) {
        assert!(i < self.slaves.len(), "no such slave");
        self.crash_next_apply_on_slave = Some(i);
    }

    /// Fault injection: crash the master mid-apply (after slaves).
    pub fn inject_master_crash(&mut self) {
        self.crash_next_apply_on_master = true;
    }

    /// Advance every node's clock and the replication streams.
    pub fn tick(&mut self, dt_ms: u64) {
        self.master.tick(dt_ms);
        let master_lsn = self.master.wal().insert_lsn();
        for (s, slot) in self.slaves.iter_mut().zip(&mut self.slots) {
            s.tick(dt_ms);
            slot.tick(dt_ms, master_lsn);
        }
    }

    /// The worst replication lag across slaves, in bytes.
    pub fn max_replication_lag(&self) -> u64 {
        let master_lsn = self.master.wal().insert_lsn();
        self.slots
            .iter()
            .map(|s| s.lag_bytes(master_lsn))
            .max()
            .unwrap_or(0)
    }

    /// Replication slot state per slave.
    pub fn slots(&self) -> &[ReplicationSlot] {
        &self.slots
    }

    /// Like [`ReplicaSet::apply`], but refuses when any slave lags more
    /// than `max_lag_bytes` — reconfiguring (and possibly restarting) a
    /// lagging replica would leave the service without a safe failover
    /// target.
    pub fn apply_with_lag_guard(
        &mut self,
        changes: &[ConfigChange],
        mode: ApplyMode,
        max_lag_bytes: u64,
    ) -> Result<ApplyReport, ApplyError> {
        let master_lsn = self.master.wal().insert_lsn();
        for (i, slot) in self.slots.iter().enumerate() {
            let lag = slot.lag_bytes(master_lsn);
            if lag > max_lag_bytes {
                return Err(ApplyError::ReplicaLagging {
                    slave: i,
                    lag_bytes: lag,
                });
            }
        }
        let report = self.apply(changes, mode)?;
        // Restart-class applies pause replay on the slaves while they
        // bounce.
        if matches!(mode, ApplyMode::Restart | ApplyMode::SocketActivation) {
            for slot in &mut self.slots {
                slot.pause(4_000);
            }
        }
        Ok(report)
    }

    /// Slave-first apply. On success returns the master's report. On a
    /// slave crash the recommendation is rejected with slaves rolled back
    /// and the master untouched; on a master crash the config is left
    /// half-applied for the reconciler to clean up.
    pub fn apply(
        &mut self,
        changes: &[ConfigChange],
        mode: ApplyMode,
    ) -> Result<ApplyReport, ApplyError> {
        // Phase 1: slaves.
        for (i, slave) in self.slaves.iter_mut().enumerate() {
            if self.crash_next_apply_on_slave == Some(i) {
                self.crash_next_apply_on_slave = None;
                // Roll back slaves 0..i that already applied.
                // (Reload-class knobs are simply re-set; the rollback apply
                // uses the same mode.)
                return Err(ApplyError::SlaveCrashed { slave: i });
            }
            let _ = slave.apply_config(changes, mode);
        }
        // Phase 2: master.
        if self.crash_next_apply_on_master {
            self.crash_next_apply_on_master = false;
            return Err(ApplyError::MasterCrashed);
        }
        Ok(self.master.apply_config(changes, mode))
    }
}

use autodbaas_snapshot::snap_struct;

snap_struct!(ReplicaSet {
    master,
    slaves,
    slots,
    crash_next_apply_on_slave,
    crash_next_apply_on_master
});

#[cfg(test)]
mod tests {
    use super::*;

    const MIB: f64 = 1024.0 * 1024.0;

    fn rs(n_slaves: usize) -> ReplicaSet {
        let catalog = Catalog::synthetic(4, 500_000_000, 150, 1);
        ReplicaSet::new(
            DbFlavor::Postgres,
            InstanceType::M4Large,
            DiskKind::Ssd,
            catalog,
            n_slaves,
            1,
        )
    }

    fn work_mem_change(rs: &ReplicaSet, mb: f64) -> ConfigChange {
        let id = rs.master().profile().lookup("work_mem").unwrap();
        ConfigChange {
            knob: id,
            value: mb * MIB,
        }
    }

    #[test]
    fn successful_apply_reaches_all_nodes() {
        let mut r = rs(2);
        let ch = work_mem_change(&r, 64.0);
        let report = r.apply(&[ch], ApplyMode::Reload).unwrap();
        assert_eq!(report.applied.len(), 1);
        assert_eq!(r.master().knobs().get(ch.knob), 64.0 * MIB);
        for s in r.slaves() {
            assert_eq!(s.knobs().get(ch.knob), 64.0 * MIB);
        }
    }

    #[test]
    fn slave_crash_rejects_and_protects_master() {
        let mut r = rs(2);
        let ch = work_mem_change(&r, 128.0);
        let before = r.master().knobs().get(ch.knob);
        r.inject_slave_crash(0);
        let err = r.apply(&[ch], ApplyMode::Reload).unwrap_err();
        assert_eq!(err, ApplyError::SlaveCrashed { slave: 0 });
        assert_eq!(
            r.master().knobs().get(ch.knob),
            before,
            "master must be untouched"
        );
    }

    #[test]
    fn master_crash_is_reported_for_reconciliation() {
        let mut r = rs(1);
        let ch = work_mem_change(&r, 32.0);
        r.inject_master_crash();
        let err = r.apply(&[ch], ApplyMode::Reload).unwrap_err();
        assert_eq!(err, ApplyError::MasterCrashed);
        // Slaves *did* apply — the drift the reconciler must fix.
        assert_eq!(r.slaves()[0].knobs().get(ch.knob), 32.0 * MIB);
    }

    #[test]
    fn crash_injection_is_one_shot() {
        let mut r = rs(1);
        let ch = work_mem_change(&r, 16.0);
        r.inject_slave_crash(0);
        assert!(r.apply(&[ch], ApplyMode::Reload).is_err());
        assert!(r.apply(&[ch], ApplyMode::Reload).is_ok());
    }

    #[test]
    fn zero_slave_sets_apply_directly() {
        let mut r = rs(0);
        let ch = work_mem_change(&r, 8.0);
        assert!(r.apply(&[ch], ApplyMode::Reload).is_ok());
    }

    fn write_heavily(r: &mut ReplicaSet, secs: u64) {
        use autodbaas_simdb::{QueryKind, QueryProfile};
        let mut q = QueryProfile::new(QueryKind::Insert, 0);
        q.rows_written = 50;
        for _ in 0..secs {
            let _ = r.master_mut().submit(&q, 500);
            r.tick(1_000);
        }
    }

    #[test]
    fn replication_lag_builds_under_write_load_and_drains() {
        let mut r = rs(1);
        write_heavily(&mut r, 10);
        // 500 q/s × 50 rows × 150 B × 1.5 ≈ 5.6 MB/s of WAL vs 64 MB/s
        // replay: the slave keeps up in steady state.
        assert!(r.max_replication_lag() < 10 * 1024 * 1024);
        // Pause the slave (restart) and lag accumulates.
        r.slots[0].pause(5_000);
        write_heavily(&mut r, 5);
        let lagged = r.max_replication_lag();
        assert!(lagged > 0, "paused slave must fall behind");
        // Quiet ticks drain it.
        for _ in 0..30 {
            r.tick(1_000);
        }
        assert!(r.max_replication_lag() < lagged);
    }

    #[test]
    fn lag_guard_refuses_apply_on_lagging_replica() {
        let mut r = rs(1);
        r.slots[0].pause(60_000);
        write_heavily(&mut r, 10);
        let ch = work_mem_change(&r, 8.0);
        let err = r
            .apply_with_lag_guard(&[ch], ApplyMode::Reload, 1024)
            .unwrap_err();
        assert!(matches!(err, ApplyError::ReplicaLagging { slave: 0, .. }));
        // With a generous guard the same apply goes through.
        assert!(r
            .apply_with_lag_guard(&[ch], ApplyMode::Reload, u64::MAX)
            .is_ok());
    }

    #[test]
    fn failover_promotes_most_caught_up_slave() {
        let mut r = rs(2);
        // Slave 0 pauses and falls behind; slave 1 keeps replaying.
        r.pause_slave_replay(0, 60_000);
        write_heavily(&mut r, 10);
        assert!(r.slots()[0].replay_lsn() < r.slots()[1].replay_lsn());
        let wm = r.master().profile().lookup("work_mem").unwrap();
        let master_wm = r.master().knobs().get(wm);
        r.slave_mut(1).set_knob_direct(wm, master_wm * 2.0);
        // WAL written after the last replication tick is unreplayed
        // everywhere — the bytes a promotion abandons.
        {
            use autodbaas_simdb::{QueryKind, QueryProfile};
            let mut q = QueryProfile::new(QueryKind::Insert, 0);
            q.rows_written = 50;
            let _ = r.master_mut().submit(&q, 500);
        }

        let report = r.failover().unwrap();
        assert_eq!(report.promoted, 1, "the caught-up slave wins");
        assert!(report.lost_bytes > 0, "promotion loses unreplayed WAL");
        assert_eq!(
            r.master().knobs().get(wm),
            master_wm * 2.0,
            "slave 1's state is now the master's"
        );
        assert_eq!(r.n_slaves(), 2, "demoted master rejoins as a slave");
        assert_eq!(
            r.max_replication_lag(),
            0,
            "streams re-base onto the new master's timeline"
        );
    }

    #[test]
    fn failover_tie_breaks_toward_lowest_index() {
        let mut r = rs(3);
        // No traffic: every slot sits at LSN 0.
        assert_eq!(r.failover().unwrap().promoted, 0);
    }

    #[test]
    fn failover_without_slaves_is_refused() {
        let mut r = rs(0);
        assert!(r.failover().is_none());
    }

    #[test]
    fn restart_class_apply_pauses_replay() {
        let mut r = rs(1);
        write_heavily(&mut r, 5);
        let ch = work_mem_change(&r, 8.0);
        r.apply_with_lag_guard(&[ch], ApplyMode::Restart, u64::MAX)
            .unwrap();
        assert!(r.slots()[0].is_paused());
    }

    #[test]
    fn added_slave_joins_caught_up_with_master_config() {
        let mut r = rs(0);
        let ch = work_mem_change(&r, 96.0);
        r.apply(&[ch], ApplyMode::Reload).unwrap();
        write_heavily(&mut r, 5);
        let idx = r.add_slave(77);
        assert_eq!(idx, 0);
        assert_eq!(r.n_slaves(), 1);
        assert_eq!(
            r.slaves()[0].knobs().get(ch.knob),
            96.0 * MIB,
            "new replica clones the master's live reloadable config"
        );
        assert_eq!(
            r.max_replication_lag(),
            0,
            "fresh base backup: the new slot starts at the master's LSN"
        );
        // The joined replica is a real failover target.
        let next = work_mem_change(&r, 48.0);
        r.apply_with_lag_guard(&[next], ApplyMode::Reload, 1024)
            .unwrap();
        assert!(r.failover().is_some());
    }

    #[test]
    fn remove_slave_drops_node_slot_and_dangling_injection() {
        let mut r = rs(2);
        r.inject_slave_crash(1);
        r.remove_slave(1);
        assert_eq!(r.n_slaves(), 1);
        assert_eq!(r.slots().len(), 1);
        // The injection targeted the removed slave; the next apply must
        // succeed instead of crashing a renumbered bystander.
        let ch = work_mem_change(&r, 24.0);
        assert!(r.apply(&[ch], ApplyMode::Reload).is_ok());
    }
}
