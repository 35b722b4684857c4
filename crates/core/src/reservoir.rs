//! Reservoir sampling over streaming logs (Vitter's Algorithm R, \[7\]).
//!
//! Production logs are far too large to plan-evaluate every query; the TDE
//! keeps a fixed-size uniform sample of the stream and only evaluates
//! those (§3.1: "final template selection takes place from the pool of
//! queries by reservoir sampling").

use rand::{Rng, RngCore};

/// A fixed-capacity uniform sample of a stream.
///
/// # Examples
///
/// ```
/// use autodbaas_core::Reservoir;
/// use rand::SeedableRng;
///
/// let mut r = Reservoir::new(4);
/// let mut rng = rand::rngs::StdRng::seed_from_u64(1);
/// for i in 0..100 {
///     r.offer(i, &mut rng);
/// }
/// assert_eq!(r.items().len(), 4);
/// assert_eq!(r.seen(), 100);
/// ```
#[derive(Debug, Clone)]
pub struct Reservoir<T> {
    capacity: usize,
    seen: u64,
    items: Vec<T>,
}

impl<T> Reservoir<T> {
    /// Reservoir holding at most `capacity` items.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "reservoir capacity must be positive");
        Self {
            capacity,
            seen: 0,
            items: Vec::with_capacity(capacity),
        }
    }

    /// Offer one stream element (Algorithm R).
    pub fn offer(&mut self, item: T, rng: &mut dyn RngCore) {
        self.offer_with(|| item, rng);
    }

    /// [`offer`](Self::offer) for a stream read in place: `make` builds the
    /// element only if it is admitted, and the RNG is consulted exactly as
    /// `offer` consults it — once per element after the reservoir filled.
    pub fn offer_with(&mut self, make: impl FnOnce() -> T, rng: &mut dyn RngCore) {
        self.seen += 1;
        if self.items.len() < self.capacity {
            self.items.push(make());
        } else {
            // Replace a random slot with probability capacity/seen.
            let j = rng.gen_range(0..self.seen);
            if (j as usize) < self.capacity {
                self.items[j as usize] = make();
            }
        }
    }

    /// Current sample.
    pub fn items(&self) -> &[T] {
        &self.items
    }

    /// Stream length observed so far.
    pub fn seen(&self) -> u64 {
        self.seen
    }

    /// Capacity.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Reset for a new observation window.
    pub fn clear(&mut self) {
        self.seen = 0;
        self.items.clear();
    }
}

use autodbaas_snapshot::{Snap, SnapError, SnapReader, SnapWriter};

impl<T: Snap> Snap for Reservoir<T> {
    fn encode(&self, w: &mut SnapWriter) {
        self.capacity.encode(w);
        self.seen.encode(w);
        self.items.encode(w);
    }
    fn decode(r: &mut SnapReader) -> Result<Self, SnapError> {
        let capacity = usize::decode(r)?;
        if capacity == 0 {
            return Err(SnapError::Malformed("reservoir capacity"));
        }
        Ok(Self {
            capacity,
            seen: Snap::decode(r)?,
            items: Snap::decode(r)?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn fills_up_to_capacity_first() {
        let mut r = Reservoir::new(5);
        let mut rng = StdRng::seed_from_u64(1);
        for i in 0..5 {
            r.offer(i, &mut rng);
        }
        assert_eq!(r.items(), &[0, 1, 2, 3, 4]);
        assert_eq!(r.seen(), 5);
    }

    #[test]
    fn never_exceeds_capacity() {
        let mut r = Reservoir::new(8);
        let mut rng = StdRng::seed_from_u64(2);
        for i in 0..10_000 {
            r.offer(i, &mut rng);
        }
        assert_eq!(r.items().len(), 8);
        assert_eq!(r.seen(), 10_000);
    }

    #[test]
    fn sampling_is_approximately_uniform() {
        // Offer 0..100 into a k=10 reservoir many times; each element
        // should be retained ~10% of the runs.
        let mut hits = vec![0u32; 100];
        for trial in 0..3_000u64 {
            let mut r = Reservoir::new(10);
            let mut rng = StdRng::seed_from_u64(trial);
            for i in 0..100usize {
                r.offer(i, &mut rng);
            }
            for &i in r.items() {
                hits[i] += 1;
            }
        }
        // Expected 300 hits each; allow generous slack.
        for (i, &h) in hits.iter().enumerate() {
            assert!((180..=420).contains(&h), "element {i} retained {h} times");
        }
    }

    #[test]
    fn clear_resets_stream() {
        let mut r = Reservoir::new(3);
        let mut rng = StdRng::seed_from_u64(3);
        for i in 0..10 {
            r.offer(i, &mut rng);
        }
        r.clear();
        assert_eq!(r.seen(), 0);
        assert!(r.items().is_empty());
    }

    #[test]
    #[should_panic]
    fn zero_capacity_is_rejected() {
        let _ = Reservoir::<u32>::new(0);
    }
}
