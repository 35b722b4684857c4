//! The streaming query log both engine families keep for the TDE: a
//! fixed-capacity, time-ordered ring of recently executed queries.

use crate::query::QueryProfile;
use autodbaas_telemetry::SimTime;
use std::collections::{vec_deque, VecDeque};

/// A recently executed query with its observed spill flag: the TDE's
/// streaming-log window.
#[derive(Debug, Clone)]
pub struct LoggedQuery {
    /// The query as executed.
    pub query: QueryProfile,
    /// When it ran.
    pub at: SimTime,
    /// Whether execution spilled to disk.
    pub spilled: bool,
}

/// Ring of the last [`QueryLog::CAPACITY`] executed queries, oldest first.
///
/// Entries are pushed at the backend's clock, which only moves forward, so
/// the ring is sorted by `at` — [`QueryLog::since`] relies on that to find
/// a window's start by binary search instead of scanning the ring.
#[derive(Debug, Clone, Default)]
pub struct QueryLog {
    entries: VecDeque<LoggedQuery>,
}

impl QueryLog {
    /// Entries retained; a busier window keeps only its newest queries.
    pub const CAPACITY: usize = 2_048;

    /// Record one executed query, evicting the oldest entry when full.
    pub fn push(&mut self, query: &QueryProfile, at: SimTime, spilled: bool) {
        if self.entries.len() == Self::CAPACITY {
            self.entries.pop_front();
        }
        self.entries.push_back(LoggedQuery {
            query: query.clone(),
            at,
            spilled,
        });
    }

    /// The retained entries with `at >= t`, oldest first, borrowed in place.
    pub fn since(&self, t: SimTime) -> vec_deque::Iter<'_, LoggedQuery> {
        let start = self.entries.partition_point(|l| l.at < t);
        self.entries.range(start..)
    }
}

autodbaas_snapshot::snap_struct!(LoggedQuery { query, at, spilled });
autodbaas_snapshot::snap_struct!(QueryLog { entries });

#[cfg(test)]
mod tests {
    use super::*;
    use crate::query::QueryKind;

    fn ats(it: vec_deque::Iter<'_, LoggedQuery>) -> Vec<SimTime> {
        it.map(|l| l.at).collect()
    }

    #[test]
    fn since_returns_the_suffix_at_or_after_t() {
        let q = QueryProfile::new(QueryKind::PointSelect, 0);
        let mut log = QueryLog::default();
        assert!(log.since(0).next().is_none());
        for at in [10, 10, 20, 30, 30, 30, 40] {
            log.push(&q, at, false);
        }
        assert_eq!(ats(log.since(0)), [10, 10, 20, 30, 30, 30, 40]);
        assert_eq!(ats(log.since(10)), [10, 10, 20, 30, 30, 30, 40]);
        assert_eq!(ats(log.since(11)), [20, 30, 30, 30, 40]);
        assert_eq!(ats(log.since(30)), [30, 30, 30, 40]);
        assert_eq!(ats(log.since(40)), [40]);
        assert!(log.since(41).next().is_none());
    }

    #[test]
    fn since_is_exact_across_wrap_around() {
        // Push well past capacity so the deque's head has wrapped inside its
        // buffer, and probe every boundary against the naive filter.
        let q = QueryProfile::new(QueryKind::Insert, 1);
        let mut log = QueryLog::default();
        let total = QueryLog::CAPACITY as u64 * 2 + 517;
        for i in 0..total {
            // Three entries per timestamp: duplicates straddle the probes.
            log.push(&q, i / 3, i % 7 == 0);
        }
        let oldest = (total - QueryLog::CAPACITY as u64) / 3;
        assert_eq!(log.since(0).len(), QueryLog::CAPACITY);
        assert_eq!(log.since(0).next().map(|l| l.at), Some(oldest));
        for t in [
            0,
            oldest,
            oldest + 1,
            total / 3 - 1,
            total / 3,
            total / 3 + 1,
        ] {
            let naive: Vec<SimTime> = log
                .entries
                .iter()
                .filter(|l| l.at >= t)
                .map(|l| l.at)
                .collect();
            assert_eq!(ats(log.since(t)), naive, "since({t})");
        }
        let (front, back) = log.entries.as_slices();
        assert!(
            !front.is_empty() && !back.is_empty(),
            "the ring must actually be wrapped for this test to mean anything"
        );
    }
}
