//! The central workload data repository (§2).
//!
//! Every tuner instance stores its observed workloads — `(configuration,
//! delta-metrics, objective)` samples — in one shared repository so tuning
//! experience gained on any IaaS transfers to every other tuner instance.
//! Sample *quality* is first-class: the paper's core argument is that
//! samples captured while "the database did not need tuning" (low
//! throughput, flat metric deltas) corrupt learning models, and the TDE's
//! whole purpose is to gate them out.

use parking_lot::Mutex;
use std::sync::Arc;

/// Quality label for one training sample.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SampleQuality {
    /// Captured under real load with meaningful metric variation.
    High,
    /// Captured while the database was idling — poison for the models.
    Low,
}

/// Classify a sample the way §1 describes: a high-quality sample needs both
/// sustained throughput and visible variation across the delta metrics.
pub fn assess_quality(metric_delta: &[f64], objective_qps: f64) -> SampleQuality {
    if objective_qps < 50.0 {
        return SampleQuality::Low;
    }
    // "only a certain set of metrics show good variations and rest do not":
    // count metrics with a non-trivial delta.
    let moving = metric_delta.iter().filter(|&&m| m.abs() > 1.0).count();
    if moving * 4 >= metric_delta.len() {
        SampleQuality::High
    } else {
        SampleQuality::Low
    }
}

/// One observed training sample.
#[derive(Debug, Clone)]
pub struct Sample {
    /// Knob vector, normalised to `[0, 1]` per dimension.
    pub config: Vec<f64>,
    /// Delta metric vector for the observation window.
    pub metrics: Vec<f64>,
    /// Objective (throughput, queries/second; higher is better).
    pub objective: f64,
    /// Quality label.
    pub quality: SampleQuality,
}

/// Identifier of a stored workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct WorkloadId(pub u64);

/// A workload `W`: the set of samples observed for one (database, workload
/// pattern) pair, per the §2 definition.
#[derive(Debug, Clone)]
pub struct StoredWorkload {
    /// Stable id.
    pub id: WorkloadId,
    /// Human-readable name.
    pub name: String,
    /// Whether this came from an offline (staging/bench) execution — those
    /// are always high quality ("there is no such point when an offline
    /// workload does not requires a tuning").
    pub offline: bool,
    /// The samples.
    pub samples: Vec<Sample>,
    /// Running per-dimension sums over the sample metrics (dimension fixed
    /// by the first sample), maintained on every append.
    sig_sum: Vec<f64>,
    /// Cached signature: `sig_sum / samples.len()`, refreshed on append so
    /// the mapper reads it in O(dim) instead of re-averaging every sample.
    sig_mean: Vec<f64>,
}

impl StoredWorkload {
    /// Mean metric vector over all samples — the workload's signature used
    /// by the mapper. `None` when the workload has no samples yet.
    pub fn metric_signature(&self) -> Option<Vec<f64>> {
        self.signature().map(<[f64]>::to_vec)
    }

    /// Borrowed form of [`StoredWorkload::metric_signature`] — the cached
    /// mean, no allocation. `None` when the workload has no samples yet.
    pub fn signature(&self) -> Option<&[f64]> {
        (!self.samples.is_empty()).then_some(self.sig_mean.as_slice())
    }

    /// Append a sample, keeping the signature cache current. The running
    /// sums accumulate in append order, so the cached mean is bit-identical
    /// to re-averaging the sample list from scratch.
    fn push_sample(&mut self, sample: Sample) {
        if self.samples.is_empty() {
            self.sig_sum = sample.metrics.clone();
        } else {
            for (s, v) in self.sig_sum.iter_mut().zip(&sample.metrics) {
                *s += v;
            }
        }
        self.samples.push(sample);
        let n = self.samples.len() as f64;
        self.sig_mean.clear();
        self.sig_mean.extend(self.sig_sum.iter().map(|s| s / n));
    }

    /// The sample with the best objective.
    pub fn best_sample(&self) -> Option<&Sample> {
        self.samples.iter().max_by(|a, b| {
            a.objective
                .partial_cmp(&b.objective)
                .expect("NaN objective")
        })
    }

    /// `(high, low)` sample counts for this workload — the sample-hygiene
    /// probe the scenario simulator's oracles read.
    pub fn quality_counts(&self) -> (usize, usize) {
        let high = self
            .samples
            .iter()
            .filter(|s| s.quality == SampleQuality::High)
            .count();
        (high, self.samples.len() - high)
    }
}

/// The repository itself.
#[derive(Debug, Default)]
pub struct WorkloadRepository {
    workloads: Vec<StoredWorkload>,
    /// Ids of workloads holding at least one sample, in id order. A fleet
    /// registers one workload per tenant but most never capture a sample
    /// (TDE gating), so the mapper iterates this instead of everything.
    sampled: Vec<WorkloadId>,
    /// Running total across all workloads.
    total_samples: usize,
    /// Per metric dimension, the largest `|signature|` over the sampled
    /// workloads: the mapper's normalisation scale, rebuilt whenever a
    /// signature moves instead of on every mapping. Derived state, so it
    /// is not encoded; decode rebuilds it.
    scale: Vec<f64>,
}

impl WorkloadRepository {
    /// Empty repository.
    pub fn new() -> Self {
        Self::default()
    }

    /// Register a new workload and get its id.
    pub fn register(&mut self, name: impl Into<String>, offline: bool) -> WorkloadId {
        let id = WorkloadId(self.workloads.len() as u64);
        self.workloads.push(StoredWorkload {
            id,
            name: name.into(),
            offline,
            samples: Vec::new(),
            sig_sum: Vec::new(),
            sig_mean: Vec::new(),
        });
        id
    }

    /// Append a sample to a workload.
    pub fn add_sample(&mut self, id: WorkloadId, sample: Sample) {
        if self.workloads[id.0 as usize].samples.is_empty() {
            let pos = self.sampled.partition_point(|&s| s.0 < id.0);
            self.sampled.insert(pos, id);
        }
        self.workloads[id.0 as usize].push_sample(sample);
        self.total_samples += 1;
        self.rebuild_scale();
    }

    /// Recompute [`WorkloadRepository::signature_scale`] from the sampled
    /// workloads' signatures. `max` over non-negative values does not
    /// depend on order, so this equals the sweep the mapper used to make.
    fn rebuild_scale(&mut self) {
        self.scale.clear();
        for id in &self.sampled {
            let sig = &self.workloads[id.0 as usize].sig_mean;
            if self.scale.len() < sig.len() {
                self.scale.resize(sig.len(), 0.0);
            }
            for (s, v) in self.scale.iter_mut().zip(sig) {
                *s = s.max(v.abs());
            }
        }
    }

    /// Per metric dimension, the largest `|signature|` over the workloads
    /// holding samples (a dimension no signature reaches is absent, i.e. 0).
    pub(crate) fn signature_scale(&self) -> &[f64] {
        &self.scale
    }

    /// Append a batch of samples to a workload.
    pub fn add_samples(&mut self, id: WorkloadId, samples: impl IntoIterator<Item = Sample>) {
        for s in samples {
            self.add_sample(id, s);
        }
    }

    /// Read a workload.
    pub fn workload(&self, id: WorkloadId) -> &StoredWorkload {
        &self.workloads[id.0 as usize]
    }

    /// Iterate over workloads.
    pub fn iter(&self) -> impl Iterator<Item = &StoredWorkload> {
        self.workloads.iter()
    }

    /// Iterate over workloads holding at least one sample, in id order —
    /// the mapper's working set.
    pub fn sampled(&self) -> impl Iterator<Item = &StoredWorkload> {
        self.sampled.iter().map(|id| &self.workloads[id.0 as usize])
    }

    /// Number of registered workloads.
    pub fn len(&self) -> usize {
        self.workloads.len()
    }

    /// True when empty.
    pub fn is_empty(&self) -> bool {
        self.workloads.is_empty()
    }

    /// Total samples across all workloads — drives the GPR training-cost
    /// model of the BO tuner. O(1): maintained on every append.
    pub fn total_samples(&self) -> usize {
        self.total_samples
    }

    /// `(high, low)` sample counts over *online* workloads only. Offline
    /// (staging/bench) workloads are excluded because the paper treats them
    /// as always worth learning from; the sample-hygiene oracle asserts that
    /// a TDE-gated fleet run leaves the low count at exactly zero.
    pub fn online_quality_counts(&self) -> (usize, usize) {
        self.sampled
            .iter()
            .map(|id| &self.workloads[id.0 as usize])
            .filter(|w| !w.offline)
            .fold((0, 0), |(h, l), w| {
                let (wh, wl) = w.quality_counts();
                (h + wh, l + wl)
            })
    }
}

/// Thread-shared repository handle: tuner instances on different threads
/// (and the config directors) all talk to the same store, like the paper's
/// central data repository VM.
pub type SharedRepository = Arc<Mutex<WorkloadRepository>>;

/// Create a fresh shared repository.
pub fn shared_repository() -> SharedRepository {
    Arc::new(Mutex::new(WorkloadRepository::new()))
}

use autodbaas_snapshot::{snap_enum, snap_struct, Snap, SnapError, SnapReader, SnapWriter};

snap_enum!(SampleQuality { High = 0, Low = 1 });

snap_struct!(Sample {
    config,
    metrics,
    objective,
    quality
});

impl Snap for WorkloadId {
    fn encode(&self, w: &mut SnapWriter) {
        self.0.encode(w);
    }
    fn decode(r: &mut SnapReader) -> Result<Self, SnapError> {
        Ok(WorkloadId(u64::decode(r)?))
    }
}

snap_struct!(StoredWorkload {
    id,
    name,
    offline,
    samples,
    sig_sum,
    sig_mean
});

impl Snap for WorkloadRepository {
    fn encode(&self, w: &mut SnapWriter) {
        self.workloads.encode(w);
        self.sampled.encode(w);
        self.total_samples.encode(w);
    }
    fn decode(r: &mut SnapReader) -> Result<Self, SnapError> {
        let mut repo = Self {
            workloads: Snap::decode(r)?,
            sampled: Snap::decode(r)?,
            total_samples: Snap::decode(r)?,
            scale: Vec::new(),
        };
        repo.rebuild_scale();
        Ok(repo)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample(config: Vec<f64>, objective: f64, quality: SampleQuality) -> Sample {
        Sample {
            config,
            metrics: vec![1.0, 2.0, 3.0],
            objective,
            quality,
        }
    }

    #[test]
    fn register_and_lookup() {
        let mut repo = WorkloadRepository::new();
        let a = repo.register("tpcc-offline", true);
        let b = repo.register("prod-42", false);
        assert_ne!(a, b);
        assert_eq!(repo.workload(a).name, "tpcc-offline");
        assert!(repo.workload(a).offline);
        assert!(!repo.workload(b).offline);
    }

    #[test]
    fn best_sample_tracks_max() {
        let mut repo = WorkloadRepository::new();
        let id = repo.register("w", false);
        assert!(repo.workload(id).best_sample().is_none());
        repo.add_sample(id, sample(vec![0.1], 100.0, SampleQuality::High));
        repo.add_sample(id, sample(vec![0.9], 300.0, SampleQuality::High));
        repo.add_sample(id, sample(vec![0.5], 200.0, SampleQuality::High));
        assert_eq!(repo.workload(id).best_sample().unwrap().config, vec![0.9]);
    }

    #[test]
    fn metric_signature_averages() {
        let mut repo = WorkloadRepository::new();
        let id = repo.register("w", false);
        repo.add_sample(
            id,
            Sample {
                config: vec![],
                metrics: vec![2.0, 4.0],
                objective: 1.0,
                quality: SampleQuality::High,
            },
        );
        repo.add_sample(
            id,
            Sample {
                config: vec![],
                metrics: vec![4.0, 8.0],
                objective: 1.0,
                quality: SampleQuality::High,
            },
        );
        assert_eq!(repo.workload(id).metric_signature(), Some(vec![3.0, 6.0]));
    }

    #[test]
    fn quality_assessment_flags_idle_windows() {
        // Idle database: near-zero throughput.
        assert_eq!(
            assess_quality(&[5.0, 10.0, 3.0, 2.0], 1.0),
            SampleQuality::Low
        );
        // Busy but flat metrics (the "only some metrics vary" case).
        let flat = vec![0.0; 20];
        assert_eq!(assess_quality(&flat, 500.0), SampleQuality::Low);
        // Busy with broad variation.
        let varied: Vec<f64> = (0..20).map(|i| (i * 10) as f64).collect();
        assert_eq!(assess_quality(&varied, 500.0), SampleQuality::High);
    }

    #[test]
    fn total_samples_sums_across_workloads() {
        let mut repo = WorkloadRepository::new();
        let a = repo.register("a", false);
        let b = repo.register("b", false);
        repo.add_sample(a, sample(vec![0.0], 1.0, SampleQuality::Low));
        repo.add_sample(b, sample(vec![0.0], 1.0, SampleQuality::Low));
        repo.add_sample(b, sample(vec![0.0], 1.0, SampleQuality::Low));
        assert_eq!(repo.total_samples(), 3);
    }

    #[test]
    fn cached_signature_matches_full_recompute() {
        let mut repo = WorkloadRepository::new();
        let id = repo.register("w", false);
        assert!(repo.workload(id).signature().is_none());
        for i in 0..17u32 {
            let m: Vec<f64> = (0..3).map(|d| (i * 7 + d) as f64 * 0.31).collect();
            repo.add_sample(
                id,
                Sample {
                    config: vec![],
                    metrics: m,
                    objective: 1.0,
                    quality: SampleQuality::High,
                },
            );
            // Reference: re-average the sample list from scratch.
            let w = repo.workload(id);
            let dim = w.samples[0].metrics.len();
            let mut mean = vec![0.0; dim];
            for s in &w.samples {
                for (m, v) in mean.iter_mut().zip(&s.metrics) {
                    *m += v;
                }
            }
            for m in &mut mean {
                *m /= w.samples.len() as f64;
            }
            assert_eq!(w.signature(), Some(mean.as_slice()), "after sample {i}");
            assert_eq!(w.metric_signature(), Some(mean));
        }
    }

    #[test]
    fn sampled_iterates_sample_bearing_workloads_in_id_order() {
        let mut repo = WorkloadRepository::new();
        let a = repo.register("a", false);
        let _gap = repo.register("never-sampled", false);
        let c = repo.register("c", false);
        assert_eq!(repo.sampled().count(), 0);
        // First samples arrive out of id order; iteration stays in id order.
        repo.add_sample(c, sample(vec![0.0], 1.0, SampleQuality::High));
        repo.add_sample(a, sample(vec![0.0], 1.0, SampleQuality::High));
        repo.add_sample(c, sample(vec![0.0], 2.0, SampleQuality::High));
        let ids: Vec<_> = repo.sampled().map(|w| w.id).collect();
        assert_eq!(ids, vec![a, c]);
        assert_eq!(repo.total_samples(), 3);
    }

    #[test]
    fn add_samples_batches_like_repeated_add_sample() {
        let mut repo = WorkloadRepository::new();
        let id = repo.register("w", false);
        repo.add_samples(
            id,
            (0..4).map(|i| sample(vec![i as f64], i as f64, SampleQuality::High)),
        );
        assert_eq!(repo.total_samples(), 4);
        assert_eq!(repo.workload(id).best_sample().unwrap().objective, 3.0);
    }

    #[test]
    fn quality_counts_split_online_from_offline() {
        let mut repo = WorkloadRepository::new();
        let bench = repo.register("tpcc-offline", true);
        let prod = repo.register("prod-42", false);
        let _idle = repo.register("prod-never-sampled", false);
        repo.add_sample(bench, sample(vec![0.1], 500.0, SampleQuality::High));
        repo.add_sample(bench, sample(vec![0.2], 1.0, SampleQuality::Low));
        repo.add_sample(prod, sample(vec![0.3], 400.0, SampleQuality::High));
        repo.add_sample(prod, sample(vec![0.4], 450.0, SampleQuality::High));
        assert_eq!(repo.workload(bench).quality_counts(), (1, 1));
        assert_eq!(repo.workload(prod).quality_counts(), (2, 0));
        // Offline samples never count against online hygiene.
        assert_eq!(repo.online_quality_counts(), (2, 0));
        repo.add_sample(prod, sample(vec![0.5], 2.0, SampleQuality::Low));
        assert_eq!(repo.online_quality_counts(), (2, 1));
    }

    /// The sweep `map_workload` made over every sampled signature on every
    /// call, kept as the cache's reference.
    fn swept_scale(repo: &WorkloadRepository) -> Vec<f64> {
        let dim = repo.sampled().map(|w| w.sig_mean.len()).max().unwrap_or(0);
        let mut scale = vec![0.0f64; dim];
        for w in repo.sampled() {
            for (s, v) in scale.iter_mut().zip(w.signature().unwrap()) {
                *s = s.max(v.abs());
            }
        }
        scale
    }

    use proptest::prelude::*;

    proptest! {
        /// Random appends over a few workloads, with ragged metric vectors
        /// (a workload's dimension is its first sample's; later samples may
        /// be shorter or longer) and signed values whose means shrink as
        /// well as grow: the cached scale equals a fresh sweep after every
        /// append and after a snapshot round trip.
        #[test]
        fn signature_scale_matches_a_fresh_sweep(
            picks in prop::collection::vec(0usize..4, 1..40),
            lens in prop::collection::vec(0usize..6, 40),
            values in prop::collection::vec(-1e3f64..1e3, 240),
        ) {
            let mut repo = WorkloadRepository::new();
            let ids: Vec<_> = (0..4).map(|i| repo.register(format!("w{i}"), i == 0)).collect();
            prop_assert!(repo.signature_scale().is_empty());
            for (k, &pick) in picks.iter().enumerate() {
                let metrics = values[k * 6..k * 6 + lens[k]].to_vec();
                repo.add_sample(
                    ids[pick],
                    Sample {
                        config: vec![],
                        metrics,
                        objective: 1.0,
                        quality: SampleQuality::High,
                    },
                );
                prop_assert_eq!(repo.signature_scale(), swept_scale(&repo).as_slice());
            }
            let bytes = autodbaas_snapshot::encode_to_vec(&repo);
            let back: WorkloadRepository = autodbaas_snapshot::decode_from_slice(&bytes).unwrap();
            prop_assert_eq!(back.signature_scale(), repo.signature_scale());
            prop_assert_eq!(autodbaas_snapshot::encode_to_vec(&back), bytes);
        }
    }

    #[test]
    fn shared_repository_is_cloneable_and_synchronised() {
        let shared = shared_repository();
        let clone = Arc::clone(&shared);
        let id = shared.lock().register("w", false);
        clone
            .lock()
            .add_sample(id, sample(vec![0.2], 9.0, SampleQuality::High));
        assert_eq!(shared.lock().total_samples(), 1);
    }
}
