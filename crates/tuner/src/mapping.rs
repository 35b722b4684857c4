//! OtterTune-style workload mapping.
//!
//! Before recommending, the BO tuner maps the target workload onto the most
//! similar workload it has seen before ("leverage tuning experiences",
//! §3.2/§5) and trains its GP on the union. Similarity is Euclidean
//! distance between *normalised* mean delta-metric vectors: each metric
//! dimension is scaled by its maximum across the repository so large-unit
//! counters don't dominate.

use crate::repo::{WorkloadId, WorkloadRepository};

/// Result of mapping a target onto the repository.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MappingResult {
    /// The most similar stored workload.
    pub workload: WorkloadId,
    /// Similarity score in `(0, 1]` (1 = identical signatures).
    pub score: f64,
}

/// Map `target_signature` (a mean delta-metric vector) onto the most
/// similar workload in `repo`, excluding `exclude` (the target itself, when
/// it is already registered). Returns `None` when no other workload has
/// samples.
pub fn map_workload(
    repo: &WorkloadRepository,
    target_signature: &[f64],
    exclude: Option<WorkloadId>,
) -> Option<MappingResult> {
    // Per-dimension normalisation factors across the repository + target.
    // The repository keeps the max over its sampled signatures current, so
    // only the target is folded in here; fleets register thousands of
    // workloads that never capture a sample, and those cost nothing.
    let dim = target_signature.len();
    let cached = repo.signature_scale();
    let scale: Vec<f64> = target_signature
        .iter()
        .enumerate()
        .map(|(d, v)| {
            cached
                .get(d)
                .copied()
                .unwrap_or(0.0)
                .max(v.abs())
                .max(1e-12)
        })
        .collect();

    let target_n: Vec<f64> = target_signature
        .iter()
        .zip(&scale)
        .map(|(v, s)| v / s)
        .collect();

    let mut best: Option<MappingResult> = None;
    for w in repo.sampled() {
        if Some(w.id) == exclude {
            continue;
        }
        let Some(sig) = w.signature() else {
            continue;
        };
        if sig.len() != dim {
            continue;
        }
        // Normalised Euclidean distance, fused per dimension: same
        // operations ((v/s), subtract, square, sum, sqrt) in the same order
        // as normalising into a scratch vector first, without the per-
        // workload allocation.
        let d2: f64 = target_n
            .iter()
            .zip(sig)
            .zip(&scale)
            .map(|((t, v), s)| {
                let diff = t - v / s;
                diff * diff
            })
            .sum();
        let d = d2.sqrt();
        let score = 1.0 / (1.0 + d);
        if best.is_none_or(|b| score > b.score) {
            best = Some(MappingResult {
                workload: w.id,
                score,
            });
        }
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::repo::{Sample, SampleQuality};

    fn add(repo: &mut WorkloadRepository, name: &str, metrics: Vec<f64>) -> WorkloadId {
        let id = repo.register(name, true);
        repo.add_sample(
            id,
            Sample {
                config: vec![0.5],
                metrics,
                objective: 100.0,
                quality: SampleQuality::High,
            },
        );
        id
    }

    #[test]
    fn maps_to_nearest_signature() {
        let mut repo = WorkloadRepository::new();
        let writey = add(&mut repo, "writey", vec![1000.0, 10.0, 5.0]);
        let ready = add(&mut repo, "ready", vec![10.0, 1000.0, 5.0]);
        let m = map_workload(&repo, &[900.0, 20.0, 5.0], None).unwrap();
        assert_eq!(m.workload, writey);
        let m = map_workload(&repo, &[20.0, 900.0, 5.0], None).unwrap();
        assert_eq!(m.workload, ready);
    }

    #[test]
    fn identical_signature_scores_one() {
        let mut repo = WorkloadRepository::new();
        let id = add(&mut repo, "w", vec![5.0, 6.0, 7.0]);
        let m = map_workload(&repo, &[5.0, 6.0, 7.0], None).unwrap();
        assert_eq!(m.workload, id);
        assert!((m.score - 1.0).abs() < 1e-9);
    }

    #[test]
    fn exclusion_skips_self() {
        let mut repo = WorkloadRepository::new();
        let a = add(&mut repo, "a", vec![1.0, 0.0]);
        let b = add(&mut repo, "b", vec![0.9, 0.1]);
        let m = map_workload(&repo, &[1.0, 0.0], Some(a)).unwrap();
        assert_eq!(m.workload, b);
    }

    #[test]
    fn empty_repo_maps_to_none() {
        let repo = WorkloadRepository::new();
        assert!(map_workload(&repo, &[1.0, 2.0], None).is_none());
    }

    #[test]
    fn workloads_without_samples_are_ignored() {
        let mut repo = WorkloadRepository::new();
        repo.register("empty", false);
        assert!(map_workload(&repo, &[1.0], None).is_none());
    }

    #[test]
    fn dimension_mismatch_is_skipped() {
        let mut repo = WorkloadRepository::new();
        add(&mut repo, "threedim", vec![1.0, 2.0, 3.0]);
        let ok = add(&mut repo, "twodim", vec![1.0, 2.0]);
        let m = map_workload(&repo, &[1.0, 2.0], None).unwrap();
        assert_eq!(m.workload, ok);
    }

    #[test]
    fn normalisation_prevents_big_counters_dominating() {
        let mut repo = WorkloadRepository::new();
        // Workload "big" only differs in the huge-unit dimension 0; workload
        // "shape" matches the target's shape in the small dimensions.
        let big = add(&mut repo, "big", vec![1_000_000.0, 0.0, 0.0]);
        let shape = add(&mut repo, "shape", vec![900_000.0, 10.0, 10.0]);
        let m = map_workload(&repo, &[900_000.0, 10.0, 10.0], None).unwrap();
        assert_eq!(m.workload, shape);
        let _ = big;
    }
}
