//! Fleet-setup helpers shared by the figure binaries.
//!
//! Every bench bin used to re-import and re-assemble the same
//! `(DbFlavor, InstanceType, DiskKind)` tuple at each construction site.
//! [`NodeSpec`] names that tuple once and stamps out databases — bare
//! [`SimDatabase`] engines or fully [`ManagedDatabase`] fleet nodes — so a
//! binary switches its whole fleet between backends by changing one value
//! (usually from [`backend_arg`]).

use autodbaas_cloudsim::ManagedDatabase;
use autodbaas_core::TdeConfig;
use autodbaas_core::TuningPolicy;
use autodbaas_simdb::{BackendKind, Catalog, DbFlavor, DiskKind, InstanceType, SimDatabase};
use autodbaas_tuner::WorkloadId;
use autodbaas_workload::{ArrivalProcess, QuerySource};

/// The per-node hardware/engine tuple the bench bins kept re-assembling.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct NodeSpec {
    /// Engine flavor — selects the storage engine and knob profile.
    pub flavor: DbFlavor,
    /// VM size.
    pub instance: InstanceType,
    /// Disk technology.
    pub disk: DiskKind,
}

impl NodeSpec {
    /// A spec on SSD (the fleet default every bin was hand-writing).
    pub fn new(flavor: DbFlavor, instance: InstanceType) -> Self {
        Self {
            flavor,
            instance,
            disk: DiskKind::Ssd,
        }
    }

    /// Override the disk technology.
    pub fn with_disk(mut self, disk: DiskKind) -> Self {
        self.disk = disk;
        self
    }

    /// Which storage engine this spec resolves to.
    pub fn backend_kind(&self) -> BackendKind {
        BackendKind::for_flavor(self.flavor)
    }

    /// A bare engine on this spec.
    pub fn db(&self, catalog: Catalog, seed: u64) -> SimDatabase {
        SimDatabase::new(self.flavor, self.instance, self.disk, catalog, seed)
    }

    /// A managed fleet node on this spec.
    #[allow(clippy::too_many_arguments)]
    pub fn managed(
        &self,
        catalog: Catalog,
        workload: Box<dyn QuerySource + Send>,
        arrival: ArrivalProcess,
        policy: TuningPolicy,
        workload_id: WorkloadId,
        tde: TdeConfig,
        seed: u64,
    ) -> ManagedDatabase {
        ManagedDatabase::new(
            self.flavor,
            self.instance,
            self.disk,
            catalog,
            workload,
            arrival,
            policy,
            workload_id,
            tde,
            seed,
        )
    }
}

/// Parse a backend selector string (`--backend` values): `pageheap` (or
/// `pg`/`postgres`), `mysql` (page-heap engine, MySQL knob surface), or
/// `lsm`. `None` means the page-heap default.
pub fn backend_from_arg(arg: Option<&str>) -> DbFlavor {
    match arg {
        None | Some("pageheap") | Some("pg") | Some("postgres") => DbFlavor::Postgres,
        Some("mysql") => DbFlavor::MySql,
        Some("lsm") => DbFlavor::Lsm,
        Some(other) => panic!("unknown --backend {other:?} (expected pageheap|mysql|lsm)"),
    }
}

/// Read the `--backend` CLI flag into a flavor (page-heap default).
pub fn backend_arg() -> DbFlavor {
    backend_from_arg(crate::arg_value("--backend").as_deref())
}

use autodbaas_cloudsim::FleetSim;
use autodbaas_snapshot::{read_snapshot_file, write_snapshot_file, SnapError};
use std::path::{Path, PathBuf};

/// The shared `--resume <snapshot>` flag (fig16/fig17/fig18): a path the
/// harness checkpoints its fleet through.
pub fn resume_arg() -> Option<PathBuf> {
    crate::arg_value("--resume").map(PathBuf::from)
}

/// Save `sim` to `path`, drop it, and reload the fleet from the written
/// file — the checkpoint crossing every `--resume` harness puts in the
/// middle of its run. State the snapshot subsystem failed to carry
/// surfaces as a fingerprint mismatch in the harness's own determinism
/// assertions, so each figure binary doubles as a snapshot-identity
/// check when `--resume` is passed.
pub fn checkpoint_roundtrip(sim: FleetSim, path: &Path) -> FleetSim {
    write_snapshot_file(path, &sim.snapshot_bytes()).expect("write snapshot");
    drop(sim);
    load_fleet(path).expect("reload snapshot")
}

/// Read a one-fleet snapshot file written by [`checkpoint_roundtrip`].
fn load_fleet(path: &Path) -> Result<FleetSim, SnapError> {
    FleetSim::from_snapshot_bytes(&read_snapshot_file(path)?)
}

/// Frame tags for two-arm snapshot files: fig18 checkpoints its guarded
/// and unguarded fleets side by side into one `--resume` file, so a
/// segment boundary never splits the experiment.
pub const FRAME_ARM_A: u16 = 0x0010;
/// See [`FRAME_ARM_A`].
pub const FRAME_ARM_B: u16 = 0x0011;

/// Save two fleets into one snapshot file.
pub fn save_fleet_pair(path: &Path, a: &FleetSim, b: &FleetSim) {
    let mut fw = autodbaas_snapshot::FrameWriter::new();
    fw.frame_snap(FRAME_ARM_A, a);
    fw.frame_snap(FRAME_ARM_B, b);
    write_snapshot_file(path, &fw.finish()).expect("write snapshot pair");
}

/// Load a two-arm snapshot written by [`save_fleet_pair`]; `None` when
/// the file does not exist yet (first segment of a checkpointed run).
pub fn load_fleet_pair(path: &Path) -> Option<(FleetSim, FleetSim)> {
    if !path.exists() {
        return None;
    }
    let data = read_snapshot_file(path).expect("read snapshot pair");
    let mut reader = autodbaas_snapshot::FrameReader::new(&data).expect("snapshot header");
    let (mut a, mut b) = (None, None);
    while let Some((tag, payload)) = reader.next_frame().expect("snapshot frame") {
        match tag {
            FRAME_ARM_A => a = Some(autodbaas_snapshot::decode_from_slice(payload).expect("arm A")),
            FRAME_ARM_B => b = Some(autodbaas_snapshot::decode_from_slice(payload).expect("arm B")),
            _ => {}
        }
    }
    Some((
        a.expect("missing arm A frame"),
        b.expect("missing arm B frame"),
    ))
}

/// Resume from `path` when a snapshot is already there (a previous
/// process segment wrote it), otherwise build a fresh fleet. Returns the
/// fleet and whether it was resumed — fig18's cross-process segments.
pub fn fleet_or_resume(path: Option<&Path>, build: impl FnOnce() -> FleetSim) -> (FleetSim, bool) {
    match path {
        Some(p) if p.exists() => (load_fleet(p).expect("resume snapshot"), true),
        _ => (build(), false),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn selector_maps_all_backends() {
        assert_eq!(backend_from_arg(None), DbFlavor::Postgres);
        assert_eq!(backend_from_arg(Some("pageheap")), DbFlavor::Postgres);
        assert_eq!(backend_from_arg(Some("mysql")), DbFlavor::MySql);
        assert_eq!(backend_from_arg(Some("lsm")), DbFlavor::Lsm);
    }

    #[test]
    #[should_panic(expected = "unknown --backend")]
    fn selector_rejects_typos() {
        backend_from_arg(Some("rocksdb"));
    }

    #[test]
    fn spec_builds_the_selected_adapter() {
        let catalog = Catalog::synthetic(2, 100_000_000, 150, 1);
        let spec = NodeSpec::new(DbFlavor::Lsm, InstanceType::M4Large);
        assert_eq!(spec.backend_kind(), BackendKind::Lsm);
        let db = spec.db(catalog.clone(), 7);
        assert_eq!(db.kind(), BackendKind::Lsm);
        let pg = NodeSpec::new(DbFlavor::Postgres, InstanceType::M4Large).db(catalog, 7);
        assert_eq!(pg.kind(), BackendKind::PageHeap);
    }
}
