//! Query classification (§3.1).
//!
//! "The queries are grouped into specific categories … and a hash table is
//! built for each category. The classification of queries is done based on
//! the trigger of throttle from knobs — for example, complex aggregation
//! queries are grouped to one class which triggers throttles to working
//! memory knob. Similarly, we create individual class for each given knob."
//!
//! [`QueryClass`] is that per-knob grouping. It lives in `simdb`, next to
//! the query model, because each engine counts classes as queries run
//! ([`autodbaas_simdb::QueryWindow`]); this module re-exports it.
//! [`ClassHistogram`] is the hash table of class frequencies the entropy
//! filter evaluates.

use autodbaas_simdb::QueryProfile;
pub use autodbaas_simdb::{classify, QueryClass};

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

    /// Add one window's per-class counts, in [`QueryClass::ALL`] order.
    pub fn add_counts(&mut self, counts: &[u64; QueryClass::ALL.len()]) {
        for (dst, &src) in self.counts.iter_mut().zip(counts) {
            *dst += src;
        }
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
    use autodbaas_simdb::QueryKind;

    fn q(kind: QueryKind) -> QueryProfile {
        QueryProfile::new(kind, 0)
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
    fn added_counts_equal_recorded_queries() {
        let mut recorded = ClassHistogram::new();
        let mut added = ClassHistogram::new();
        let mut counts = [0u64; QueryClass::ALL.len()];
        for (i, kind) in QueryKind::ALL.into_iter().enumerate() {
            for _ in 0..=i {
                recorded.record(&q(kind));
                counts[classify(&q(kind)).index()] += 1;
            }
        }
        added.add_counts(&counts);
        added.add_counts(&[0; QueryClass::ALL.len()]);
        assert_eq!(added.counts(), recorded.counts());
    }
}
