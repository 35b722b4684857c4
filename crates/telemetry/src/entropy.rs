//! Entropy over query-class frequency tables (§3.1, Eqs. 1 and 2).
//!
//! The TDE groups logged queries into per-knob classes and builds a hash
//! table of class frequencies. The *normalized* entropy of that distribution
//! decides whether repeated memory throttles are caused by genuinely
//! mis-tuned knobs (frequencies concentrated on the throttling class, high
//! normalized entropy in the paper's inverted convention — see below) or by
//! an undersized instance where every class fires evenly.
//!
//! The paper's prose inverts the usual convention: it calls the value "less"
//! when the distribution is even and "high" when one class dominates. That
//! is `1 - H/log n`, i.e. *redundancy*. We expose both the standard
//! normalized Shannon entropy ([`normalized_entropy`]) and the paper's
//! orientation ([`paper_entropy_score`]) so call sites can be explicit.

/// Shannon entropy `H(X) = -Σ p(x) log p(x)` of a frequency table, in nats.
///
/// Zero-count classes contribute nothing (lim p→0 of p·log p = 0).
pub fn shannon_entropy(counts: &[u64]) -> f64 {
    let total: u64 = counts.iter().sum();
    if total == 0 {
        return 0.0;
    }
    let total = total as f64;
    counts
        .iter()
        .filter(|&&c| c > 0)
        .map(|&c| {
            let p = c as f64 / total;
            -p * p.ln()
        })
        .sum()
}

/// Normalized entropy `η(X) = H(X) / log n ∈ [0, 1]` (Eq. 2).
///
/// `n` is the number of *possible* classes (including classes with zero
/// observed frequency); normalizing by `log n` makes the threshold
/// class-count independent, which is the point of Eq. 2. Returns 0.0 when
/// fewer than two classes exist (entropy is undefined there and no
/// filtration decision is possible).
pub fn normalized_entropy(counts: &[u64]) -> f64 {
    let n = counts.len();
    if n < 2 {
        return 0.0;
    }
    shannon_entropy(counts) / (n as f64).ln()
}

/// The paper's orientation of the entropy score: **high** when one query
/// class dominates (throttles will subside once the tuner fixes that class's
/// knob), **low** when classes fire evenly (the instance itself is
/// undersized and a plan upgrade is needed).
///
/// Implemented as `1 - η(X)`, i.e. the redundancy of the distribution.
pub fn paper_entropy_score(counts: &[u64]) -> f64 {
    1.0 - normalized_entropy(counts)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn entropy_of_empty_or_all_zero_is_zero() {
        assert_eq!(shannon_entropy(&[]), 0.0);
        assert_eq!(shannon_entropy(&[0, 0, 0]), 0.0);
    }

    #[test]
    fn entropy_of_single_class_is_zero() {
        assert_eq!(shannon_entropy(&[42]), 0.0);
        assert_eq!(shannon_entropy(&[42, 0, 0]), 0.0);
    }

    #[test]
    fn uniform_distribution_maximizes_normalized_entropy() {
        let eta = normalized_entropy(&[10, 10, 10, 10]);
        assert!(
            (eta - 1.0).abs() < 1e-12,
            "uniform should give η=1, got {eta}"
        );
    }

    #[test]
    fn normalized_entropy_is_bounded() {
        let cases: [&[u64]; 4] = [&[1, 2, 3], &[100, 1, 1], &[5, 5], &[7, 0, 0, 3]];
        for counts in cases {
            let eta = normalized_entropy(counts);
            assert!(
                (0.0..=1.0 + 1e-12).contains(&eta),
                "η={eta} out of range for {counts:?}"
            );
        }
    }

    #[test]
    fn skewed_distribution_has_lower_entropy_than_even() {
        let even = normalized_entropy(&[10, 10, 10]);
        let skewed = normalized_entropy(&[28, 1, 1]);
        assert!(skewed < even);
    }

    #[test]
    fn paper_score_inverts_orientation() {
        // Evenly-fired classes (undersized instance) => low paper score.
        let even = paper_entropy_score(&[10, 10, 10, 10]);
        // One dominating class (fixable by tuning) => high paper score.
        let dominated = paper_entropy_score(&[97, 1, 1, 1]);
        assert!(even < 0.05);
        assert!(dominated > 0.5);
    }

    #[test]
    fn entropy_scale_invariant() {
        let a = normalized_entropy(&[1, 2, 3]);
        let b = normalized_entropy(&[10, 20, 30]);
        assert!((a - b).abs() < 1e-12);
    }

    #[test]
    fn two_class_balanced_is_exactly_one() {
        assert!((normalized_entropy(&[5, 5]) - 1.0).abs() < 1e-12);
    }
}
