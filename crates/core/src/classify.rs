//! Query classification (§3.1).
//!
//! "The queries are grouped into specific categories … and a hash table is
//! built for each category. The classification of queries is done based on
//! the trigger of throttle from knobs — for example, complex aggregation
//! queries are grouped to one class which triggers throttles to working
//! memory knob. Similarly, we create individual class for each given knob."
//!
//! [`QueryClass`] is that per-knob grouping; [`ClassHistogram`] is the hash
//! table of class frequencies the entropy filter evaluates.

use autodbaas_simdb::{KnobClass, QueryKind, QueryProfile};

/// Per-knob query classes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum QueryClass {
    /// Sort/hash/join working-memory users (`work_mem` class).
    WorkMem,
    /// Index builds, bulk deletes, alters (`maintenance_work_mem` class).
    Maintenance,
    /// Temp-table users (`temp_buffers` class).
    TempBuf,
    /// Write traffic that pressures the background writer.
    WriteHeavy,
    /// Large parallelizable scans (async/planner class).
    Parallel,
    /// Everything else (point reads and small scans).
    Other,
}

impl QueryClass {
    /// All classes in stable order — the histogram layout.
    pub const ALL: [QueryClass; 6] = [
        QueryClass::WorkMem,
        QueryClass::Maintenance,
        QueryClass::TempBuf,
        QueryClass::WriteHeavy,
        QueryClass::Parallel,
        QueryClass::Other,
    ];

    /// Stable index.
    pub fn index(self) -> usize {
        Self::ALL
            .iter()
            .position(|&c| c == self)
            .expect("class in ALL")
    }

    /// The knob class this query class throttles.
    pub fn knob_class(self) -> Option<KnobClass> {
        match self {
            QueryClass::WorkMem | QueryClass::Maintenance | QueryClass::TempBuf => {
                Some(KnobClass::Memory)
            }
            QueryClass::WriteHeavy => Some(KnobClass::BackgroundWriter),
            QueryClass::Parallel => Some(KnobClass::AsyncPlanner),
            QueryClass::Other => None,
        }
    }
}

/// Classify one query instance.
pub fn classify(q: &QueryProfile) -> QueryClass {
    // Temp-table demand wins (it implies aggregation over the temp table
    // too, but the throttle lands on the temp knob).
    if q.temp_bytes > 0 || q.kind == QueryKind::TempTable {
        return QueryClass::TempBuf;
    }
    if q.maintenance_bytes > 0
        || matches!(
            q.kind,
            QueryKind::CreateIndex | QueryKind::AlterTable | QueryKind::Delete
        )
    {
        return QueryClass::Maintenance;
    }
    if q.sort_bytes > 0
        || matches!(
            q.kind,
            QueryKind::Join
                | QueryKind::Aggregate
                | QueryKind::OrderBy
                | QueryKind::ComplexAggregate
        )
    {
        return QueryClass::WorkMem;
    }
    if q.kind.is_write() {
        return QueryClass::WriteHeavy;
    }
    if q.parallelizable || q.rows_examined > 100_000 {
        return QueryClass::Parallel;
    }
    QueryClass::Other
}

/// The class-frequency hash table the entropy filter evaluates.
#[derive(Debug, Clone, Default)]
pub struct ClassHistogram {
    counts: [u64; QueryClass::ALL.len()],
}

impl ClassHistogram {
    /// Empty histogram.
    pub fn new() -> Self {
        Self::default()
    }

    /// Record one query.
    pub fn record(&mut self, q: &QueryProfile) {
        self.counts[classify(q).index()] += 1;
    }

    /// Rebuild a histogram from raw per-class counts in [`QueryClass::ALL`]
    /// order — the gateway wire format ships counts, not query profiles.
    /// Extra entries are ignored; missing entries count as zero.
    pub fn from_counts(counts: &[u64]) -> Self {
        let mut h = Self::default();
        for (dst, &src) in h.counts.iter_mut().zip(counts) {
            *dst = src;
        }
        h
    }

    /// Count for one class.
    pub fn count(&self, class: QueryClass) -> u64 {
        self.counts[class.index()]
    }

    /// Raw counts in [`QueryClass::ALL`] order — feed to the entropy fns.
    pub fn counts(&self) -> &[u64] {
        &self.counts
    }

    /// Total queries recorded.
    pub fn total(&self) -> u64 {
        self.counts.iter().sum()
    }

    /// Fraction of traffic in `class` (0.0 when empty).
    pub fn fraction(&self, class: QueryClass) -> f64 {
        let t = self.total();
        if t == 0 {
            0.0
        } else {
            self.count(class) as f64 / t as f64
        }
    }

    /// Halve all counts — an exponential forgetting window so the histogram
    /// tracks the *current* query pattern after a workload switch.
    pub fn decay_half(&mut self) {
        for c in &mut self.counts {
            *c /= 2;
        }
    }
}

use autodbaas_snapshot::snap_struct;

snap_struct!(ClassHistogram { counts });

#[cfg(test)]
mod tests {
    use super::*;

    fn q(kind: QueryKind) -> QueryProfile {
        QueryProfile::new(kind, 0)
    }

    #[test]
    fn kind_based_classification() {
        assert_eq!(
            classify(&q(QueryKind::ComplexAggregate)),
            QueryClass::WorkMem
        );
        assert_eq!(classify(&q(QueryKind::OrderBy)), QueryClass::WorkMem);
        assert_eq!(
            classify(&q(QueryKind::CreateIndex)),
            QueryClass::Maintenance
        );
        assert_eq!(classify(&q(QueryKind::Delete)), QueryClass::Maintenance);
        assert_eq!(classify(&q(QueryKind::TempTable)), QueryClass::TempBuf);
        assert_eq!(classify(&q(QueryKind::Insert)), QueryClass::WriteHeavy);
        assert_eq!(classify(&q(QueryKind::PointSelect)), QueryClass::Other);
    }

    #[test]
    fn demand_overrides_kind() {
        // A range select carrying sort demand classifies as WorkMem.
        let mut rs = q(QueryKind::RangeSelect);
        rs.sort_bytes = 1024;
        assert_eq!(classify(&rs), QueryClass::WorkMem);
        // Temp demand wins over sort demand.
        let mut tt = q(QueryKind::Aggregate);
        tt.temp_bytes = 1024;
        assert_eq!(classify(&tt), QueryClass::TempBuf);
    }

    #[test]
    fn big_parallel_scans_classify_async() {
        let mut big = q(QueryKind::RangeSelect);
        big.rows_examined = 1_000_000;
        assert_eq!(classify(&big), QueryClass::Parallel);
        let mut par = q(QueryKind::RangeSelect);
        par.parallelizable = true;
        assert_eq!(classify(&par), QueryClass::Parallel);
    }

    #[test]
    fn histogram_counts_and_fractions() {
        let mut h = ClassHistogram::new();
        h.record(&q(QueryKind::Insert));
        h.record(&q(QueryKind::Insert));
        h.record(&q(QueryKind::OrderBy));
        h.record(&q(QueryKind::PointSelect));
        assert_eq!(h.total(), 4);
        assert_eq!(h.count(QueryClass::WriteHeavy), 2);
        assert!((h.fraction(QueryClass::WriteHeavy) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn classes_map_to_knob_classes() {
        assert_eq!(QueryClass::WorkMem.knob_class(), Some(KnobClass::Memory));
        assert_eq!(
            QueryClass::WriteHeavy.knob_class(),
            Some(KnobClass::BackgroundWriter)
        );
        assert_eq!(
            QueryClass::Parallel.knob_class(),
            Some(KnobClass::AsyncPlanner)
        );
        assert_eq!(QueryClass::Other.knob_class(), None);
    }
}
