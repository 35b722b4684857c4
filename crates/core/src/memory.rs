//! Memory-knob throttle detection (§3.1).
//!
//! Two signals:
//!
//! * **Work-area spills** — the window's sampled query instances are
//!   re-planned (`EXPLAIN`-style, no execution) under the current knobs
//!   (the paper re-plans templates; see DESIGN.md); "if any of
//!   the selected templates … uses disk while execution, signifies that the
//!   memory is in-sufficient" and the specific work-area knob the spill
//!   exhausted is throttled.
//! * **Working set vs. buffer pool** — the gauged working page set (\[5\]) is
//!   compared against the buffer-pool knob. That knob is restart-bound, so
//!   the finding is *not* a tuning request; the config director accumulates
//!   it for the scheduled maintenance window (§4).

use autodbaas_simdb::{Backend, KnobId, QueryProfile, SimDatabase, SpillKind};

/// One spill finding from re-planning a sampled query.
#[derive(Debug, Clone)]
pub struct SpillFinding {
    /// The work-area knob the spill indicts.
    pub knob: KnobId,
    /// Which work-area category overflowed.
    pub kind: SpillKind,
    /// Bytes by which the demand exceeded the knob.
    pub overflow_bytes: u64,
    /// The sampled query that spilled (for the tuning request's context).
    pub query: QueryProfile,
}

/// Re-plan the `sampled` queries under the database's current configuration
/// and report every spill.
pub fn detect_spills(db: &SimDatabase, sampled: &[QueryProfile]) -> Vec<SpillFinding> {
    let roles = db.planner().roles();
    let mut findings = Vec::new();
    for q in sampled {
        let plan = db.plan(q);
        if let Some(kind) = plan.spill {
            findings.push(SpillFinding {
                knob: roles.knob_for_spill(kind),
                kind,
                overflow_bytes: plan.spill_bytes,
                query: q.clone(),
            });
        }
    }
    findings
}

/// Working-set finding: the gauged working set exceeds the buffer-pool
/// knob, so the (restart-bound) buffer should grow at the next maintenance
/// window.
#[derive(Debug, Clone, Copy)]
pub struct WorkingSetFinding {
    /// The buffer-pool knob.
    pub knob: KnobId,
    /// Gauged working-set bytes.
    pub working_set_bytes: u64,
    /// Current buffer-pool bytes.
    pub buffer_bytes: u64,
}

/// Compare the working-set gauge against the buffer-pool knob. `reset`
/// starts a new gauging epoch (pass `true` on the TDE's periodic cadence).
pub fn check_working_set(db: &mut SimDatabase, reset: bool) -> Option<WorkingSetFinding> {
    let knob = db.planner().roles().buffer_pool;
    let buffer_bytes = db.knobs().get(knob) as u64;
    let ws = db.working_set_bytes(reset);
    if ws > buffer_bytes {
        Some(WorkingSetFinding {
            knob,
            working_set_bytes: ws,
            buffer_bytes,
        })
    } else {
        None
    }
}

/// A knob within this fraction of its spec max counts as "at cap".
const CAP_FRACTION: f64 = 0.95;

/// Is a memory knob effectively pinned at its maximum? True when the value
/// sits within 5 % of its spec max, or when the instance's whole memory
/// budget is saturated — both are the "underlying instance configuration
/// limit is in-sufficient" situations of §3.1.
pub fn knob_at_cap(db: &SimDatabase, knob: KnobId) -> bool {
    let spec = db.profile().spec(knob);
    let v = db.knobs().get(knob);
    if v >= spec.max * CAP_FRACTION {
        return true;
    }
    let budget = db.knobs().memory_budget_used(db.profile());
    budget >= db.instance().db_mem_cap() * 0.9
}

autodbaas_snapshot::snap_struct!(WorkingSetFinding {
    knob,
    working_set_bytes,
    buffer_bytes
});

#[cfg(test)]
mod tests {
    use super::*;
    use autodbaas_simdb::{
        Catalog, DbFlavor, DiskKind, InstanceType, QueryKind, SimDatabase, SubmitResult,
    };

    const MIB: u64 = 1024 * 1024;

    fn db() -> SimDatabase {
        let catalog = Catalog::synthetic(6, 2_000_000_000, 150, 2);
        SimDatabase::new(
            DbFlavor::Postgres,
            InstanceType::M4XLarge,
            DiskKind::Ssd,
            catalog,
            17,
        )
    }

    fn heavy_sort() -> QueryProfile {
        let mut q = QueryProfile::new(QueryKind::ComplexAggregate, 0);
        q.rows_examined = 100_000;
        q.sort_bytes = 350 * MIB;
        q
    }

    #[test]
    fn spilling_template_is_detected_and_attributed() {
        let d = db();
        let findings = detect_spills(&d, &[heavy_sort()]);
        assert_eq!(findings.len(), 1);
        let f = &findings[0];
        assert_eq!(f.kind, SpillKind::WorkMem);
        assert_eq!(d.profile().spec(f.knob).name, "work_mem");
        assert!(f.overflow_bytes > 300 * MIB);
    }

    #[test]
    fn no_spill_after_knob_raised() {
        let mut d = db();
        let work_mem = d.profile().lookup("work_mem").unwrap();
        d.set_knob_direct(work_mem, (512 * MIB) as f64);
        assert!(detect_spills(&d, &[heavy_sort()]).is_empty());
    }

    #[test]
    fn maintenance_and_temp_spills_attribute_to_their_knobs() {
        let d = db();
        let mut ci = QueryProfile::new(QueryKind::CreateIndex, 0);
        ci.maintenance_bytes = 1024 * MIB;
        let mut tt = QueryProfile::new(QueryKind::TempTable, 0);
        tt.temp_bytes = 512 * MIB;
        let findings = detect_spills(&d, &[ci, tt]);
        let names: Vec<&str> = findings
            .iter()
            .map(|f| d.profile().spec(f.knob).name)
            .collect();
        assert!(names.contains(&"maintenance_work_mem"));
        assert!(names.contains(&"temp_buffers"));
    }

    #[test]
    fn working_set_finding_fires_when_hot_set_outgrows_buffer() {
        let mut d = db();
        // Shrink the buffer pool to its minimum so any traffic exceeds it.
        let shared = d.profile().lookup("shared_buffers").unwrap();
        d.set_knob_direct(shared, 16.0 * 1024.0 * 1024.0);
        // Touch a wide range of data (ticking between submits so the
        // capacity model admits every scan).
        let mut q = QueryProfile::new(QueryKind::RangeSelect, 0);
        q.rows_examined = 500_000;
        for _ in 0..30 {
            assert!(matches!(d.submit(&q, 1), SubmitResult::Done(_)));
            d.tick(1_000);
        }
        let f = check_working_set(&mut d, true).expect("working set should exceed 16 MiB");
        assert!(f.working_set_bytes > f.buffer_bytes);
        // Epoch reset: immediately after, the gauge is empty again.
        assert!(check_working_set(&mut d, false).is_none());
    }

    #[test]
    fn cap_detection_via_spec_max() {
        let mut d = db();
        let work_mem = d.profile().lookup("work_mem").unwrap();
        assert!(!knob_at_cap(&d, work_mem));
        d.set_knob_direct(work_mem, d.profile().spec(work_mem).max);
        assert!(knob_at_cap(&d, work_mem));
    }
}
