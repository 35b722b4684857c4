//! Trace capture, export, and replay.
//!
//! The paper's evaluation runs a *captured* customer trace. A downstream
//! user of this library will want the same workflow: record a timestamped
//! query trace from any generator, export it (a simple CSV carried in a
//! [`bytes::Bytes`] buffer so it can be shipped or persisted zero-copy),
//! re-import it, and replay it deterministically against a simulator —
//! identical traffic every run, independent of generator internals.

use crate::arrival::ArrivalProcess;
use crate::QuerySource;
use autodbaas_simdb::{QueryKind, QueryProfile};
use autodbaas_telemetry::SimTime;
use bytes::{BufMut, Bytes, BytesMut};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// One recorded event: a query batch arriving at a timestamp.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceEvent {
    /// Arrival time, ms.
    pub at: SimTime,
    /// The query.
    pub query: QueryProfile,
    /// How many identical instances arrived together.
    pub count: u64,
}

/// A recorded trace.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Trace {
    events: Vec<TraceEvent>,
}

/// Errors from parsing an exported trace.
#[derive(Debug, PartialEq, Eq)]
pub enum TraceParseError {
    /// A line had the wrong number of fields.
    BadFieldCount {
        /// 1-based line number.
        line: usize,
    },
    /// A field failed to parse.
    BadField {
        /// 1-based line number.
        line: usize,
        /// Field name.
        field: &'static str,
    },
    /// The buffer was not UTF-8.
    NotUtf8,
}

impl std::fmt::Display for TraceParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TraceParseError::BadFieldCount { line } => {
                write!(f, "line {line}: wrong field count")
            }
            TraceParseError::BadField { line, field } => {
                write!(f, "line {line}: bad {field}")
            }
            TraceParseError::NotUtf8 => write!(f, "trace buffer is not UTF-8"),
        }
    }
}

impl std::error::Error for TraceParseError {}

impl Trace {
    /// Record `duration_ms` of `workload` under `arrival`, batching each
    /// tick into up to `shapes` distinct statements (the same batching the
    /// simulators use).
    pub fn record(
        workload: &dyn QuerySource,
        arrival: &ArrivalProcess,
        duration_ms: u64,
        tick_ms: u64,
        shapes: u64,
        seed: u64,
    ) -> Self {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut events = Vec::new();
        let mut t = 0;
        while t < duration_ms {
            let n = arrival.sample_count(&mut rng, t, tick_ms);
            if n > 0 {
                let k = n.min(shapes.max(1));
                let per = n / k;
                let rem = n - per * k;
                for i in 0..k {
                    let count = per + u64::from(i < rem);
                    if count > 0 {
                        events.push(TraceEvent {
                            at: t,
                            query: workload.next_query(&mut rng),
                            count,
                        });
                    }
                }
            }
            t += tick_ms;
        }
        Self { events }
    }

    /// Events in time order.
    pub fn events(&self) -> &[TraceEvent] {
        &self.events
    }

    /// Number of events.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// True when no events were recorded.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Total query instances across all events.
    pub fn total_queries(&self) -> u64 {
        self.events.iter().map(|e| e.count).sum()
    }

    /// Export as CSV in a [`Bytes`] buffer. Columns:
    /// `at,kind,table,count,rows,writes,sort,maint,temp,par,loc`.
    pub fn to_bytes(&self) -> Bytes {
        let mut buf = BytesMut::with_capacity(self.events.len() * 48 + 64);
        buf.put_slice(b"at,kind,table,count,rows,writes,sort,maint,temp,par,loc\n");
        for e in &self.events {
            let q = &e.query;
            let line = format!(
                "{},{},{},{},{},{},{},{},{},{},{}\n",
                e.at,
                q.kind.index(),
                q.table,
                e.count,
                q.rows_examined,
                q.rows_written,
                q.sort_bytes,
                q.maintenance_bytes,
                q.temp_bytes,
                u8::from(q.parallelizable),
                q.locality,
            );
            buf.put_slice(line.as_bytes());
        }
        buf.freeze()
    }

    /// Parse a buffer produced by [`Trace::to_bytes`].
    pub fn from_bytes(bytes: &Bytes) -> Result<Self, TraceParseError> {
        let text = std::str::from_utf8(bytes).map_err(|_| TraceParseError::NotUtf8)?;
        let mut events = Vec::new();
        for (i, line) in text.lines().enumerate().skip(1) {
            let line_no = i + 1;
            let fields: Vec<&str> = line.split(',').collect();
            if fields.len() != 11 {
                return Err(TraceParseError::BadFieldCount { line: line_no });
            }
            let num = |idx: usize, field: &'static str| -> Result<u64, TraceParseError> {
                fields[idx]
                    .parse::<u64>()
                    .map_err(|_| TraceParseError::BadField {
                        line: line_no,
                        field,
                    })
            };
            let kind_idx = num(1, "kind")? as usize;
            let kind = *QueryKind::ALL
                .get(kind_idx)
                .ok_or(TraceParseError::BadField {
                    line: line_no,
                    field: "kind",
                })?;
            let mut q = QueryProfile::new(kind, num(2, "table")? as u32);
            q.rows_examined = num(4, "rows")?;
            q.rows_written = num(5, "writes")?;
            q.sort_bytes = num(6, "sort")?;
            q.maintenance_bytes = num(7, "maint")?;
            q.temp_bytes = num(8, "temp")?;
            q.parallelizable = num(9, "par")? != 0;
            q.locality = fields[10]
                .parse::<f64>()
                .map_err(|_| TraceParseError::BadField {
                    line: line_no,
                    field: "loc",
                })?;
            events.push(TraceEvent {
                at: num(0, "at")?,
                query: q,
                count: num(3, "count")?,
            });
        }
        Ok(Self { events })
    }

    /// A replay cursor over the trace.
    pub fn replay(&self) -> TraceReplay<'_> {
        TraceReplay {
            trace: self,
            next: 0,
        }
    }
}

/// Time-indexed replay cursor: ask for everything due up to a timestamp.
#[derive(Debug, Clone)]
pub struct TraceReplay<'a> {
    trace: &'a Trace,
    next: usize,
}

impl<'a> TraceReplay<'a> {
    /// Events with `at <= now` not yet delivered, in order.
    pub fn due(&mut self, now: SimTime) -> &'a [TraceEvent] {
        let start = self.next;
        while self.next < self.trace.events.len() && self.trace.events[self.next].at <= now {
            self.next += 1;
        }
        &self.trace.events[start..self.next]
    }

    /// True when the whole trace has been delivered.
    pub fn finished(&self) -> bool {
        self.next == self.trace.events.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::benchmarks::tpcc;

    fn record_small() -> Trace {
        Trace::record(
            &tpcc(0.5),
            &ArrivalProcess::Constant(100.0),
            10_000,
            1_000,
            8,
            7,
        )
    }

    #[test]
    fn record_produces_time_ordered_events() {
        let t = record_small();
        assert!(!t.is_empty());
        assert!(t.events().windows(2).all(|w| w[0].at <= w[1].at));
        // ~100 qps for 10 s.
        let total = t.total_queries();
        assert!((700..1_300).contains(&total), "total {total}");
    }

    #[test]
    fn bytes_roundtrip_is_lossless() {
        let t = record_small();
        let bytes = t.to_bytes();
        let back = Trace::from_bytes(&bytes).expect("parse");
        assert_eq!(t, back);
    }

    #[test]
    fn parse_rejects_garbage() {
        assert_eq!(
            Trace::from_bytes(&Bytes::from_static(b"header\n1,2\n")),
            Err(TraceParseError::BadFieldCount { line: 2 })
        );
        assert_eq!(
            Trace::from_bytes(&Bytes::from_static(b"h\n1,99,0,1,1,0,0,0,0,0,2.0\n")),
            Err(TraceParseError::BadField {
                line: 2,
                field: "kind"
            })
        );
        let not_utf8 = Bytes::from(vec![0xff, 0xfe, 0x00]);
        assert_eq!(Trace::from_bytes(&not_utf8), Err(TraceParseError::NotUtf8));
    }

    #[test]
    fn replay_delivers_each_event_exactly_once() {
        let t = record_small();
        let mut replay = t.replay();
        let mut delivered = 0;
        for now in (0..=10_000).step_by(500) {
            delivered += replay.due(now).len();
        }
        assert_eq!(delivered, t.len());
        assert!(replay.finished());
        assert!(replay.due(999_999).is_empty(), "no double delivery");
    }

    #[test]
    fn replay_respects_timestamps() {
        let t = record_small();
        let mut replay = t.replay();
        for e in replay.due(2_000) {
            assert!(e.at <= 2_000);
        }
    }

    #[test]
    fn recording_is_deterministic_per_seed() {
        let a = Trace::record(
            &tpcc(0.5),
            &ArrivalProcess::Constant(50.0),
            5_000,
            1_000,
            4,
            9,
        );
        let b = Trace::record(
            &tpcc(0.5),
            &ArrivalProcess::Constant(50.0),
            5_000,
            1_000,
            4,
            9,
        );
        assert_eq!(a, b);
    }
}
