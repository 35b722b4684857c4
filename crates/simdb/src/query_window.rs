//! The TDE's view of one observation window, fed by the engine while each
//! query is hot: per-class counts over every executed query and a uniform
//! sample of at most `capacity` of them (§3.1: "final template selection
//! takes place from the pool of queries by reservoir sampling").
//!
//! The sample is Li's Algorithm L (ACM TOMS 20(4), 1994). Algorithm R draws
//! one number per query; Algorithm L draws a geometric skip to the next
//! admitted query instead, O(k·(1 + log(n/k))) numbers for n queries, so a
//! push that is not admitted costs a classification and two additions.

use crate::query::{classify, QueryClass, QueryProfile};
use autodbaas_snapshot::{Snap, SnapError, SnapReader, SnapWriter};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Per-class counts and a uniform sample of one window's queries.
///
/// # Examples
///
/// ```
/// use autodbaas_simdb::{QueryKind, QueryProfile, QueryWindow};
///
/// let mut w = QueryWindow::new(4, 1);
/// for _ in 0..100 {
///     w.push(&QueryProfile::new(QueryKind::Insert, 0));
/// }
/// assert_eq!(w.seen(), 100);
/// assert_eq!(w.sample().len(), 4);
/// ```
#[derive(Debug, Clone)]
pub struct QueryWindow {
    counts: [u64; QueryClass::ALL.len()],
    seen: u64,
    capacity: usize,
    sample: Vec<QueryProfile>,
    /// Algorithm L's running weight, the largest key in the sample; set
    /// when the sample fills (0 until then).
    w: f64,
    /// The `seen` count at which the next query is admitted, once full.
    next: u64,
    rng: StdRng,
}

impl QueryWindow {
    /// An empty window sampling at most `capacity` queries (a zero capacity
    /// is taken as one), drawing its skips from `seed`.
    pub fn new(capacity: usize, seed: u64) -> Self {
        Self {
            counts: [0; QueryClass::ALL.len()],
            seen: 0,
            capacity: capacity.max(1),
            sample: Vec::new(),
            w: 0.0,
            next: 0,
            rng: StdRng::seed_from_u64(seed),
        }
    }

    /// A backend's first window, before the TDE's first take: seeded from
    /// the backend's construction `seed`, so the backend's own RNG is never
    /// drawn.
    pub(crate) fn first(seed: u64) -> Self {
        Self::new(64, seed ^ 0x51a7_0f7e_2d1b_9c4b)
    }

    /// Record one executed query.
    pub fn push(&mut self, q: &QueryProfile) {
        self.counts[classify(q).index()] += 1;
        self.seen += 1;
        if self.sample.len() < self.capacity {
            self.sample.push(q.clone());
            if self.sample.len() == self.capacity {
                self.w = 1.0;
                self.next = self.seen;
                self.advance();
            }
        } else if self.seen == self.next {
            let slot = self.rng.gen_range(0..self.capacity);
            self.sample[slot] = q.clone();
            self.advance();
        }
    }

    /// Draw the next weight and the skip to the next admitted query.
    fn advance(&mut self) {
        let u1 = 1.0 - self.rng.gen::<f64>();
        let u2 = 1.0 - self.rng.gen::<f64>();
        self.w *= (u1.ln() / self.capacity as f64).exp();
        let skip = (u2.ln() / (1.0 - self.w).ln()).floor() as u64;
        self.next = self.next.saturating_add(skip).saturating_add(1);
    }

    /// Queries per class in [`QueryClass::ALL`] order.
    pub fn counts(&self) -> &[u64; QueryClass::ALL.len()] {
        &self.counts
    }

    /// Queries recorded in this window.
    pub fn seen(&self) -> u64 {
        self.seen
    }

    /// The uniform sample: every recorded query while fewer than
    /// `capacity` were seen, then `capacity` of them.
    pub fn sample(&self) -> &[QueryProfile] {
        &self.sample
    }
}

impl Snap for QueryWindow {
    fn encode(&self, w: &mut SnapWriter) {
        self.counts.encode(w);
        self.seen.encode(w);
        self.capacity.encode(w);
        self.sample.encode(w);
        self.w.encode(w);
        self.next.encode(w);
        self.rng.encode(w);
    }
    fn decode(r: &mut SnapReader) -> Result<Self, SnapError> {
        let counts = Snap::decode(r)?;
        let seen = u64::decode(r)?;
        let capacity = usize::decode(r)?;
        if capacity == 0 {
            return Err(SnapError::Malformed("query window capacity"));
        }
        let sample: Vec<QueryProfile> = Snap::decode(r)?;
        if sample.len() > capacity {
            return Err(SnapError::Malformed("query window sample over capacity"));
        }
        if sample.len() as u64 > seen {
            return Err(SnapError::Malformed("query window sample over seen"));
        }
        Ok(Self {
            counts,
            seen,
            capacity,
            sample,
            w: Snap::decode(r)?,
            next: Snap::decode(r)?,
            rng: Snap::decode(r)?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::query::QueryKind;
    use autodbaas_snapshot::{decode_from_slice, encode_to_vec};

    /// Query `i` of a test stream: its position rides in `table`.
    fn nth(i: u64) -> QueryProfile {
        let kind = QueryKind::ALL[(i % QueryKind::ALL.len() as u64) as usize];
        QueryProfile::new(kind, i as u32)
    }

    /// Algorithm L as a plain loop over the whole stream held in a `Vec`:
    /// the reference [`QueryWindow`] must equal bit for bit.
    fn algorithm_l(stream: &[QueryProfile], k: usize, seed: u64) -> (Vec<u64>, Vec<QueryProfile>) {
        let mut counts = vec![0u64; QueryClass::ALL.len()];
        for q in stream {
            counts[classify(q).index()] += 1;
        }
        let mut rng = StdRng::seed_from_u64(seed);
        let mut sample: Vec<QueryProfile> = stream.iter().take(k).cloned().collect();
        if stream.len() < k {
            return (counts, sample);
        }
        let draw = |rng: &mut StdRng| 1.0 - rng.gen::<f64>();
        let mut w = (draw(&mut rng).ln() / k as f64).exp();
        // 1-based position of the next admitted query.
        let mut i = k as u64 + (draw(&mut rng).ln() / (1.0 - w).ln()).floor() as u64 + 1;
        while i <= stream.len() as u64 {
            sample[rng.gen_range(0..k)] = stream[i as usize - 1].clone();
            w *= (draw(&mut rng).ln() / k as f64).exp();
            i += (draw(&mut rng).ln() / (1.0 - w).ln()).floor() as u64 + 1;
        }
        (counts, sample)
    }

    #[test]
    fn window_equals_a_plain_algorithm_l_loop() {
        let k = 16;
        // Empty, under k, exactly k, one past k, and n ≫ k.
        for n in [0u64, 1, 7, 15, 16, 17, 200, 5_000, 60_000] {
            for seed in [1u64, 2, 3] {
                let stream: Vec<QueryProfile> = (0..n).map(nth).collect();
                let mut win = QueryWindow::new(k, seed);
                for q in &stream {
                    win.push(q);
                }
                let (counts, sample) = algorithm_l(&stream, k, seed);
                assert_eq!(
                    win.counts().as_slice(),
                    counts.as_slice(),
                    "n {n} seed {seed}"
                );
                assert_eq!(win.sample(), sample.as_slice(), "n {n} seed {seed}");
                assert_eq!(win.seen(), n);
            }
        }
    }

    #[test]
    fn decode_refuses_impossible_windows() {
        let mut win = QueryWindow::new(4, 9);
        for i in 0..3 {
            win.push(&nth(i));
        }
        let good = encode_to_vec(&win);
        assert!(decode_from_slice::<QueryWindow>(&good).is_ok());
        // Re-encode with the given seen, capacity and sample; the rest as is.
        let recode = |seen: u64, capacity: usize, sample: &[QueryProfile]| {
            let mut w = SnapWriter::new();
            win.counts.encode(&mut w);
            seen.encode(&mut w);
            capacity.encode(&mut w);
            sample.to_vec().encode(&mut w);
            win.w.encode(&mut w);
            win.next.encode(&mut w);
            win.rng.encode(&mut w);
            w.into_bytes()
        };
        assert_eq!(recode(3, 4, win.sample()), good);
        let cases = [
            (recode(3, 0, &[]), "query window capacity"),
            (
                recode(3, 2, win.sample()),
                "query window sample over capacity",
            ),
            (recode(2, 4, win.sample()), "query window sample over seen"),
        ];
        for (bytes, what) in cases {
            match decode_from_slice::<QueryWindow>(&bytes) {
                Err(SnapError::Malformed(m)) => assert_eq!(m, what),
                other => panic!("{what}: decoded to {other:?}"),
            }
        }
    }
}
