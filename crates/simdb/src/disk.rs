//! Disk model: latency and IOPS under load, with per-process write
//! attribution.
//!
//! §3.2's detector consumes disk-*latency* series: checkpoint bursts push
//! latency peaks, and the detector measures peak spacing. The same section
//! describes the authors' workaround for attributing writes without
//! USDT/eBPF probes — move WAL/statistics/log writers to a *separate disk*
//! so only bgwriter + checkpointer + vacuum hit the data disk. [`DiskSet`]
//! reproduces both layouts.

use crate::catalog::PAGE_BYTES;
use crate::instance::DiskKind;
use autodbaas_telemetry::{SimTime, TimeSeries};

/// Who issued a write — the processes §3.2 lists.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum WriteSource {
    /// A backend evicting a dirty buffer inline.
    Backend,
    /// The background writer's LRU cleaning.
    BgWriter,
    /// Checkpoint flushing.
    Checkpoint,
    /// Write-ahead log.
    Wal,
    /// Statistics / server log writers.
    Stats,
    /// Vacuum / garbage collection.
    Vacuum,
    /// Sort/hash spill to temp files.
    TempSpill,
}

impl WriteSource {
    /// Sequential writers (log-structured streams): these cost far fewer
    /// IOs per byte than random page writeback.
    pub fn is_sequential(self) -> bool {
        matches!(
            self,
            WriteSource::Wal | WriteSource::Stats | WriteSource::TempSpill
        )
    }

    /// All sources, for attribution reports.
    pub const ALL: [WriteSource; 7] = [
        WriteSource::Backend,
        WriteSource::BgWriter,
        WriteSource::Checkpoint,
        WriteSource::Wal,
        WriteSource::Stats,
        WriteSource::Vacuum,
        WriteSource::TempSpill,
    ];

    /// Slot in per-source arrays: the declaration order, which `ALL`
    /// lists (a unit test holds the two together).
    fn index(self) -> usize {
        self as usize
    }
}

/// One physical disk with an M/M/1-flavoured latency model.
#[derive(Debug, Clone)]
pub struct Disk {
    kind: DiskKind,
    // IOs submitted since the last tick (sequential writes pre-discounted).
    pending_ios: f64,
    // Cumulative write bytes per source.
    written_by_source: [f64; WriteSource::ALL.len()],
    // Last tick's outputs, visible to the executor mid-tick.
    current_latency_ms: f64,
    current_iops: f64,
    latency_series: TimeSeries,
}

impl Disk {
    /// A disk of the given kind with idle-state latency.
    pub fn new(kind: DiskKind) -> Self {
        Self {
            kind,
            pending_ios: 0.0,
            written_by_source: [0.0; WriteSource::ALL.len()],
            current_latency_ms: kind.base_latency_ms(),
            current_iops: 0.0,
            latency_series: TimeSeries::with_capacity(16 * 1024),
        }
    }

    /// Bytes per sequential IO (large coalesced writes).
    const SEQ_IO_BYTES: f64 = 64.0 * 1024.0;

    /// Queue a read of `bytes` (random page reads).
    pub fn submit_read(&mut self, bytes: f64) {
        self.pending_ios += bytes.max(0.0) / PAGE_BYTES as f64;
    }

    /// Queue a write of `bytes`, attributed to `source`. Sequential
    /// sources (WAL, stats, temp streams) coalesce into large IOs.
    pub fn submit_write(&mut self, bytes: f64, source: WriteSource) {
        let b = bytes.max(0.0);
        let io_size = if source.is_sequential() {
            Self::SEQ_IO_BYTES
        } else {
            PAGE_BYTES as f64
        };
        self.pending_ios += b / io_size;
        self.written_by_source[source.index()] += b;
    }

    /// Advance the disk by `dt_ms`, converting the pending byte load into an
    /// IOPS level and a latency sample.
    ///
    /// Latency follows the standard open-queue inflation
    /// `base / (1 - ρ)` with ρ capped below 1; beyond saturation the excess
    /// queue adds linearly. This produces the paper's characteristic
    /// latency *peaks* when a checkpoint dumps a large dirty set at once.
    pub fn tick(&mut self, now: SimTime, dt_ms: u64) {
        let dt_s = (dt_ms.max(1)) as f64 / 1000.0;
        let iops = self.pending_ios / dt_s;
        let cap = self.kind.iops_cap();
        let rho = (iops / cap).min(0.95);
        let mut latency = self.kind.base_latency_ms() / (1.0 - rho);
        if iops > cap {
            // Saturated: the queue that didn't drain adds service time.
            latency += self.kind.base_latency_ms() * (iops / cap - 1.0) * 4.0;
        }
        self.current_latency_ms = latency;
        self.current_iops = iops.min(cap * 1.5); // device can't report more than it does
        self.latency_series.push(now, self.current_latency_ms);
        self.pending_ios = 0.0;
    }

    /// Latency (ms per IO) as of the last tick — what concurrent queries
    /// experience and what the monitoring agent scrapes.
    pub fn current_latency_ms(&self) -> f64 {
        self.current_latency_ms
    }

    /// IOPS as of the last tick.
    pub fn current_iops(&self) -> f64 {
        self.current_iops
    }

    /// Latency samples, one per tick, capacity-bounded. A data disk's
    /// start at the bgwriter detector's last read (see
    /// [`DiskSet::forget_data_latency_before`]); a disk it never read
    /// holds them from the first tick.
    pub fn latency_series(&self) -> &TimeSeries {
        &self.latency_series
    }

    /// Cumulative bytes written by `source`.
    pub fn written_by(&self, source: WriteSource) -> f64 {
        self.written_by_source[source.index()]
    }

    /// Disk kind.
    pub fn kind(&self) -> DiskKind {
        self.kind
    }
}

/// The instance's disk layout: one data disk, optionally a second disk for
/// WAL/statistics/log traffic (§3.2's attribution workaround).
#[derive(Debug, Clone)]
pub struct DiskSet {
    data: Disk,
    aux: Option<Disk>,
}

impl DiskSet {
    /// Single shared disk (the default production layout).
    pub fn shared(kind: DiskKind) -> Self {
        Self {
            data: Disk::new(kind),
            aux: None,
        }
    }

    /// Separate WAL/stats disk of the same kind.
    pub fn split(kind: DiskKind) -> Self {
        Self {
            data: Disk::new(kind),
            aux: Some(Disk::new(kind)),
        }
    }

    /// Route a write to the correct device.
    pub fn submit_write(&mut self, bytes: f64, source: WriteSource) {
        let to_aux = matches!(source, WriteSource::Wal | WriteSource::Stats);
        match (&mut self.aux, to_aux) {
            (Some(aux), true) => aux.submit_write(bytes, source),
            _ => self.data.submit_write(bytes, source),
        }
    }

    /// Reads always target the data disk.
    pub fn submit_read(&mut self, bytes: f64) {
        self.data.submit_read(bytes);
    }

    /// Tick both devices.
    pub fn tick(&mut self, now: SimTime, dt_ms: u64) {
        self.data.tick(now, dt_ms);
        if let Some(aux) = &mut self.aux {
            aux.tick(now, dt_ms);
        }
    }

    /// True when no IO is queued on either device.
    pub(crate) fn is_idle(&self) -> bool {
        self.data.pending_ios == 0.0 && self.aux.as_ref().is_none_or(|a| a.pending_ios == 0.0)
    }

    /// Repeat `count` times, at `first, first + dt_ms, …`, a tick that
    /// started with no IO queued and then took only `stats_bytes` of
    /// statistics drip: the drip is counted, tick by tick, where
    /// [`DiskSet::submit_write`] routes it, and each device appends the
    /// latency that tick left, which the same load gives again, as one run.
    pub(crate) fn repeat_quiet_ticks(
        &mut self,
        first: SimTime,
        dt_ms: u64,
        count: usize,
        stats_bytes: f64,
    ) {
        let stats = self.aux.as_mut().unwrap_or(&mut self.data);
        let written = &mut stats.written_by_source[WriteSource::Stats.index()];
        let drip = stats_bytes.max(0.0);
        // Added once per tick, not multiplied: a sum of `count` drips is
        // not bit-identical to `count * drip` in general.
        for _ in 0..count {
            *written += drip;
        }
        for disk in std::iter::once(&mut self.data).chain(&mut self.aux) {
            disk.latency_series
                .push_run(first, dt_ms, count, disk.current_latency_ms);
        }
    }

    /// Drop the data disk's latency samples taken before `at`: the
    /// bgwriter detector calls this right after reading its window, and
    /// its next read asks only for samples at or after the time it read.
    pub fn forget_data_latency_before(&mut self, at: SimTime) {
        self.data.latency_series.forget_before(at);
    }

    /// The data disk (what the TDE monitors).
    pub fn data(&self) -> &Disk {
        &self.data
    }

    /// The auxiliary disk, when split.
    pub fn aux(&self) -> Option<&Disk> {
        self.aux.as_ref()
    }
}

// ------------------------------------------------------- snapshot support

autodbaas_snapshot::snap_struct!(Disk {
    kind,
    pending_ios,
    written_by_source,
    current_latency_ms,
    current_iops,
    latency_series,
});
autodbaas_snapshot::snap_struct!(DiskSet { data, aux });

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_lists_the_sources_in_declaration_order() {
        for (i, source) in WriteSource::ALL.into_iter().enumerate() {
            assert_eq!(source.index(), i, "{source:?}");
        }
    }

    #[test]
    fn idle_disk_sits_at_base_latency() {
        let mut d = Disk::new(DiskKind::Ssd);
        d.tick(1000, 1000);
        assert!((d.current_latency_ms() - DiskKind::Ssd.base_latency_ms()).abs() < 1e-9);
        assert_eq!(d.current_iops(), 0.0);
    }

    #[test]
    fn load_inflates_latency() {
        let mut d = Disk::new(DiskKind::Ssd);
        // Half the IOPS cap.
        let bytes = DiskKind::Ssd.iops_cap() / 2.0 * PAGE_BYTES as f64;
        d.submit_write(bytes, WriteSource::Checkpoint);
        d.tick(1000, 1000);
        let half_load = d.current_latency_ms();
        assert!(half_load > DiskKind::Ssd.base_latency_ms() * 1.5);

        // Saturation: 3x the cap.
        let bytes = DiskKind::Ssd.iops_cap() * 3.0 * PAGE_BYTES as f64;
        d.submit_write(bytes, WriteSource::Checkpoint);
        d.tick(2000, 1000);
        assert!(d.current_latency_ms() > half_load * 2.0);
    }

    #[test]
    fn pending_load_clears_each_tick() {
        let mut d = Disk::new(DiskKind::Ssd);
        d.submit_write(1e9, WriteSource::Checkpoint);
        d.tick(1000, 1000);
        let burst = d.current_latency_ms();
        d.tick(2000, 1000);
        assert!(
            d.current_latency_ms() < burst,
            "latency must recover after burst"
        );
    }

    #[test]
    fn attribution_accumulates_per_source() {
        let mut d = Disk::new(DiskKind::Ssd);
        d.submit_write(100.0, WriteSource::Wal);
        d.submit_write(50.0, WriteSource::Wal);
        d.submit_write(10.0, WriteSource::Vacuum);
        assert_eq!(d.written_by(WriteSource::Wal), 150.0);
        assert_eq!(d.written_by(WriteSource::Vacuum), 10.0);
        assert_eq!(d.written_by(WriteSource::Checkpoint), 0.0);
    }

    #[test]
    fn split_layout_isolates_wal_and_stats() {
        let mut set = DiskSet::split(DiskKind::Ssd);
        set.submit_write(100.0, WriteSource::Wal);
        set.submit_write(100.0, WriteSource::Stats);
        set.submit_write(100.0, WriteSource::Checkpoint);
        assert_eq!(set.data().written_by(WriteSource::Wal), 0.0);
        assert_eq!(set.aux().unwrap().written_by(WriteSource::Wal), 100.0);
        assert_eq!(set.aux().unwrap().written_by(WriteSource::Stats), 100.0);
        assert_eq!(set.data().written_by(WriteSource::Checkpoint), 100.0);
    }

    #[test]
    fn shared_layout_mixes_everything() {
        let mut set = DiskSet::shared(DiskKind::Ssd);
        set.submit_write(100.0, WriteSource::Wal);
        set.submit_write(100.0, WriteSource::Checkpoint);
        assert!(set.aux().is_none());
        assert_eq!(set.data().written_by(WriteSource::Wal), 100.0);
    }

    #[test]
    fn series_record_history() {
        let mut d = Disk::new(DiskKind::Hdd);
        for t in 1..=5u64 {
            d.tick(t * 1000, 1000);
        }
        assert_eq!(d.latency_series().len(), 5);
    }
}
