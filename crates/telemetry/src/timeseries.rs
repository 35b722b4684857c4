//! Bounded time series and peak detection.
//!
//! The background-writer throttle detector (§3.2) works on disk-latency
//! series: it averages the latency over its window and compares the
//! checkpoint-rate/latency ratio against a baseline mapped from the tuner's
//! repository. [`TimeSeries`] is the storage; [`PeakDetector`] finds the
//! latency peaks (checkpoint write bursts) the Fig. 5 harness counts.

use crate::SimTime;
use std::collections::VecDeque;

/// One timestamped observation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Sample {
    /// Simulation time of the observation, ms.
    pub at: SimTime,
    /// Observed value (unit defined by the series owner).
    pub value: f64,
}

/// A bounded series of [`Sample`]s, appended at the back and trimmed at
/// the front.
///
/// Capacity-bounded so that a multi-day fleet simulation holds a constant
/// amount of monitoring state per database, like a real agent's ring buffer;
/// a reader that never looks back past some time drops what came before it
/// with [`TimeSeries::forget_before`].
#[derive(Debug, Clone)]
pub struct TimeSeries {
    samples: VecDeque<Sample>,
    capacity: usize,
}

impl TimeSeries {
    /// A series holding at most `capacity` samples (oldest evicted first).
    pub fn with_capacity(capacity: usize) -> Self {
        assert!(capacity > 0, "time series capacity must be positive");
        Self {
            // Grown on demand: most of a large fleet's series stay short,
            // and reserving rings nobody writes to leaves the heap full of
            // untouched holes that later allocations fault in one by one.
            samples: VecDeque::new(),
            capacity,
        }
    }

    /// Append an observation. Timestamps must be non-decreasing; monitoring
    /// agents never deliver out of order in the simulator, so this is a
    /// programming-error assert rather than a recoverable error.
    pub fn push(&mut self, at: SimTime, value: f64) {
        if let Some(last) = self.samples.back() {
            assert!(at >= last.at, "time series must be appended in time order");
        }
        if self.samples.len() == self.capacity {
            self.samples.pop_front();
        }
        self.samples.push_back(Sample { at, value });
    }

    /// Append `count` observations of `value` at `first, first + step, …`:
    /// what `count` calls of [`push`](Self::push) leave, with the front
    /// trimmed once and, when the run alone overflows the ring, only its
    /// last `capacity` samples written.
    pub fn push_run(&mut self, first: SimTime, step: SimTime, count: usize, value: f64) {
        if count == 0 {
            return;
        }
        if let Some(last) = self.samples.back() {
            assert!(
                first >= last.at,
                "time series must be appended in time order"
            );
        }
        let skipped = count.saturating_sub(self.capacity);
        let kept = count - skipped;
        let evicted = (self.samples.len() + kept).saturating_sub(self.capacity);
        self.samples.drain(..evicted);
        let start = first + step * skipped as SimTime;
        self.samples.extend((0..kept as SimTime).map(|i| Sample {
            at: start + step * i,
            value,
        }));
    }

    /// Number of retained samples.
    pub fn len(&self) -> usize {
        self.samples.len()
    }

    /// True when no samples are retained.
    pub fn is_empty(&self) -> bool {
        self.samples.is_empty()
    }

    /// Iterate over retained samples, oldest first.
    pub fn iter(&self) -> impl Iterator<Item = &Sample> {
        self.samples.iter()
    }

    /// Retained samples with `at >= since`, oldest first. Timestamps are
    /// non-decreasing, so they are a suffix of the ring: found by binary
    /// search, not by filtering the whole ring.
    fn since(&self, since: SimTime) -> impl Iterator<Item = &Sample> {
        let start = self.samples.partition_point(|s| s.at < since);
        self.samples.range(start..)
    }

    /// Drop the samples taken before `at`, keeping those at `at` and
    /// later: every window query with `since >= at` answers as before.
    pub fn forget_before(&mut self, at: SimTime) {
        let keep_from = self.samples.partition_point(|s| s.at < at);
        self.samples.drain(..keep_from);
    }

    /// Samples with `at >= since`, oldest first.
    pub fn window(&self, since: SimTime) -> Vec<Sample> {
        self.since(since).copied().collect()
    }

    /// Mean value over the window `at >= since` (0.0 if empty).
    pub fn mean_since(&self, since: SimTime) -> f64 {
        let mut sum = 0.0;
        let mut n = 0usize;
        for s in self.since(since) {
            sum += s.value;
            n += 1;
        }
        if n == 0 {
            0.0
        } else {
            sum / n as f64
        }
    }

    /// Downsample into `buckets` equal-width time bins over `[t0, t1)`,
    /// averaging within each bin. Empty bins yield 0.0. Used by the figure
    /// harness to print paper-style hourly/minutely series.
    pub fn resample(&self, t0: SimTime, t1: SimTime, buckets: usize) -> Vec<f64> {
        assert!(t1 > t0 && buckets > 0);
        let mut sums = vec![0.0; buckets];
        let mut counts = vec![0u64; buckets];
        let span = (t1 - t0) as f64;
        for s in &self.samples {
            if s.at < t0 || s.at >= t1 {
                continue;
            }
            let idx = (((s.at - t0) as f64 / span) * buckets as f64) as usize;
            let idx = idx.min(buckets - 1);
            sums[idx] += s.value;
            counts[idx] += 1;
        }
        sums.iter()
            .zip(&counts)
            .map(|(&s, &c)| if c == 0 { 0.0 } else { s / c as f64 })
            .collect()
    }
}

/// Finds local peaks in a series: samples strictly greater than both
/// neighbours and at least `threshold` above the series mean.
///
/// The threshold is expressed in absolute units (e.g. milliseconds of disk
/// latency) because the bgwriter detector compares against an SLA-style
/// latency baseline, not a z-score.
#[derive(Debug, Clone, Copy)]
pub struct PeakDetector {
    /// Minimum height above the window mean for a local max to count.
    pub threshold: f64,
}

impl PeakDetector {
    /// Detector with the given absolute prominence threshold.
    pub fn new(threshold: f64) -> Self {
        Self { threshold }
    }

    /// Return the samples that qualify as peaks, in time order.
    pub fn peaks(&self, samples: &[Sample]) -> Vec<Sample> {
        if samples.len() < 3 {
            return Vec::new();
        }
        let mean = samples.iter().map(|s| s.value).sum::<f64>() / samples.len() as f64;
        let mut out = Vec::new();
        for w in samples.windows(3) {
            let (prev, cur, next) = (w[0], w[1], w[2]);
            if cur.value > prev.value
                && cur.value > next.value
                && cur.value >= mean + self.threshold
            {
                out.push(cur);
            }
        }
        out
    }
}

autodbaas_snapshot::snap_struct!(Sample { at, value });
autodbaas_snapshot::snap_struct!(TimeSeries { samples, capacity });

#[cfg(test)]
mod tests {
    use super::*;

    fn series(vals: &[(u64, f64)]) -> TimeSeries {
        let mut ts = TimeSeries::with_capacity(1024);
        for &(at, v) in vals {
            ts.push(at, v);
        }
        ts
    }

    #[test]
    fn push_and_window_queries() {
        let ts = series(&[(0, 1.0), (10, 2.0), (20, 3.0), (30, 4.0)]);
        assert_eq!(ts.len(), 4);
        let values = |w: Vec<Sample>| w.iter().map(|s| s.value).collect::<Vec<_>>();
        assert_eq!(values(ts.window(15)), vec![3.0, 4.0]);
        assert!((ts.mean_since(10) - 3.0).abs() < 1e-12);
    }

    /// The filter over the whole ring that `window` and `mean_since`
    /// replaced, kept as their reference.
    fn filtered(ts: &TimeSeries, since: SimTime) -> Vec<Sample> {
        ts.iter().filter(|s| s.at >= since).copied().collect()
    }

    fn filtered_mean(ts: &TimeSeries, since: SimTime) -> f64 {
        let w = filtered(ts, since);
        if w.is_empty() {
            0.0
        } else {
            w.iter().fold(0.0, |sum, s| sum + s.value) / w.len() as f64
        }
    }

    use proptest::prelude::*;

    proptest! {
        /// Random non-decreasing series (steps of 0 give duplicate
        /// timestamps), a ring that may have evicted its head, and `since`
        /// anywhere from before the first sample to past the last: the
        /// binary-searched window is the filtered one, sample for sample,
        /// and its mean is bit-identical.
        #[test]
        fn window_queries_match_the_filtered_ring(
            steps in prop::collection::vec(0u64..4, 0..80),
            values in prop::collection::vec(-50.0f64..50.0, 80),
            capacity in 1usize..96,
            start in 0u64..20,
            since in 0u64..200,
        ) {
            let mut ts = TimeSeries::with_capacity(capacity);
            let mut at = start;
            for (step, value) in steps.iter().zip(&values) {
                at += step;
                ts.push(at, *value);
            }
            for q in [since, 0, start, at, at + 1, u64::MAX] {
                prop_assert_eq!(ts.window(q), filtered(&ts, q), "since {}", q);
                prop_assert_eq!(
                    ts.mean_since(q).to_bits(),
                    filtered_mean(&ts, q).to_bits(),
                    "since {}",
                    q
                );
            }
            // Trimmed before `since`, the series answers every query from
            // `since` on as the untrimmed one does, and holds nothing older.
            let mut trimmed = ts.clone();
            trimmed.forget_before(since);
            prop_assert!(trimmed.iter().all(|s| s.at >= since));
            for q in [since, since + 1, at, at + 1, u64::MAX].into_iter().filter(|&q| q >= since) {
                prop_assert_eq!(trimmed.window(q), filtered(&ts, q), "since {}", q);
                prop_assert_eq!(
                    trimmed.mean_since(q).to_bits(),
                    filtered_mean(&ts, q).to_bits(),
                    "since {}",
                    q
                );
            }
        }
    }

    proptest! {
        /// A run appended in one call leaves the ring sample for sample
        /// where as many single pushes do: over capacities the run fills,
        /// overflows or dwarfs, pre-filled rings, and steps of 0.
        #[test]
        fn push_run_matches_repeated_push(
            capacity in 1usize..48,
            prefill in 0usize..64,
            count in 0usize..128,
            step in 0u64..4,
            gap in 0u64..3,
            value in -50.0f64..50.0,
        ) {
            let mut run = TimeSeries::with_capacity(capacity);
            for i in 0..prefill {
                run.push(i as u64 * 2, i as f64);
            }
            let mut pushed = run.clone();
            let first = (prefill as u64 * 2).saturating_sub(2) + gap;
            run.push_run(first, step, count, value);
            for i in 0..count as u64 {
                pushed.push(first + step * i, value);
            }
            prop_assert_eq!(
                run.iter().copied().collect::<Vec<_>>(),
                pushed.iter().copied().collect::<Vec<_>>()
            );
        }
    }

    #[test]
    fn capacity_evicts_oldest() {
        let mut ts = TimeSeries::with_capacity(3);
        for i in 0..5u64 {
            ts.push(i, i as f64);
        }
        assert_eq!(ts.len(), 3);
        assert_eq!(ts.iter().next().unwrap().at, 2);
    }

    #[test]
    #[should_panic]
    fn out_of_order_push_panics() {
        let mut ts = TimeSeries::with_capacity(8);
        ts.push(10, 1.0);
        ts.push(5, 2.0);
    }

    #[test]
    fn resample_averages_bins() {
        let ts = series(&[(0, 2.0), (1, 4.0), (5, 10.0), (9, 20.0)]);
        let bins = ts.resample(0, 10, 2);
        assert!((bins[0] - 3.0).abs() < 1e-12);
        assert!((bins[1] - 15.0).abs() < 1e-12);
    }

    #[test]
    fn resample_empty_bins_are_zero() {
        let ts = series(&[(0, 5.0)]);
        let bins = ts.resample(0, 100, 4);
        assert_eq!(bins[1], 0.0);
        assert_eq!(bins[3], 0.0);
    }

    #[test]
    fn peak_detector_finds_bursts() {
        // Baseline 1.0 with two bursts at t=20 and t=50.
        let mut vals = Vec::new();
        for t in 0..70u64 {
            let v = match t {
                20 => 10.0,
                50 => 12.0,
                _ => 1.0,
            };
            vals.push((t, v));
        }
        let ts = series(&vals);
        let det = PeakDetector::new(3.0);
        let samples = ts.window(0);
        let peaks = det.peaks(&samples);
        assert_eq!(peaks.len(), 2);
        assert_eq!(peaks[0].at, 20);
        assert_eq!(peaks[1].at, 50);
    }

    #[test]
    fn peak_detector_ignores_subthreshold_wiggle() {
        let vals: Vec<(u64, f64)> = (0..30)
            .map(|t| (t, if t % 2 == 0 { 1.0 } else { 1.2 }))
            .collect();
        let det = PeakDetector::new(5.0);
        let ts = series(&vals);
        assert!(det.peaks(&ts.window(0)).is_empty());
    }

    #[test]
    fn peaks_need_three_samples() {
        let det = PeakDetector::new(0.0);
        assert!(det.peaks(&[Sample { at: 0, value: 1.0 }]).is_empty());
    }
}
