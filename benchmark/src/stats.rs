//! Order statistics, timing and `/proc` readings shared by the workloads.

use std::time::Instant;

/// Median, quartiles and sample count of a set of timings.
#[derive(Debug, Clone, Copy)]
pub struct Quartiles {
    pub q1: f64,
    pub median: f64,
    pub q3: f64,
    pub n: usize,
}

/// Value at quantile `q` in `[0, 1]` of an ascending slice (linear
/// interpolation between neighbours; 0 for an empty slice).
pub fn quantile_sorted(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = q.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let (lo, hi) = (rank.floor() as usize, rank.ceil() as usize);
    sorted[lo] + (sorted[hi] - sorted[lo]) * (rank - lo as f64)
}

/// Sort `xs` in place and return its quartiles.
pub fn quartiles(xs: &mut [f64]) -> Quartiles {
    xs.sort_by(f64::total_cmp);
    Quartiles {
        q1: quantile_sorted(xs, 0.25),
        median: quantile_sorted(xs, 0.5),
        q3: quantile_sorted(xs, 0.75),
        n: xs.len(),
    }
}

/// Median of `xs` (sorts in place).
pub fn median(xs: &mut [f64]) -> f64 {
    quartiles(xs).median
}

/// The fastest time seen for each step over several repetitions of the same
/// steps. Step `k` does identical work in every repetition and the host —
/// a shared machine — only ever adds time to it, so the minimum is the best
/// estimate of what the step costs; anything slow in the program itself
/// recurs at the same `k` in every repetition and stays in.
pub fn noise_floor(reps: &[Vec<f64>]) -> Vec<f64> {
    let steps = reps.iter().map(Vec::len).min().unwrap_or(0);
    (0..steps)
        .map(|k| reps.iter().map(|r| r[k]).fold(f64::INFINITY, f64::min))
        .collect()
}

/// Mean of `xs` (0 when empty).
pub fn mean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        0.0
    } else {
        xs.iter().sum::<f64>() / xs.len() as f64
    }
}

/// `num / den`, or 0 when nothing was counted.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// Seconds since `t`.
pub fn secs_since(t: Instant) -> f64 {
    t.elapsed().as_secs_f64()
}

/// Run `f`, returning its result and the wall seconds it took.
pub fn timed<R>(f: impl FnOnce() -> R) -> (R, f64) {
    let t = Instant::now();
    let r = f();
    (r, secs_since(t))
}

/// Mean nanoseconds per call of `f` over `iters` back-to-back calls, timed
/// as one block so the clock reads do not inflate a sub-100 ns operation.
pub fn ns_per_call(iters: usize, mut f: impl FnMut(usize)) -> f64 {
    let t = Instant::now();
    for i in 0..iters {
        f(i);
    }
    secs_since(t) * 1e9 / iters.max(1) as f64
}

/// Peak resident set of this process in MB (`VmHWM`); 0 where `/proc` has
/// no such line.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.split_whitespace().next())
        .and_then(|kb| kb.parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Nanoseconds the calling thread has spent on a CPU, from
/// `/proc/thread-self/schedstat`; 0 where the kernel does not expose it.
pub fn thread_cpu_ns() -> f64 {
    std::fs::read_to_string("/proc/thread-self/schedstat")
        .ok()
        .and_then(|s| s.split_whitespace().next().and_then(|v| v.parse().ok()))
        .unwrap_or(0.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_interpolate() {
        let mut xs = [4.0, 1.0, 3.0, 2.0, 5.0];
        let q = quartiles(&mut xs);
        assert_eq!((q.q1, q.median, q.q3, q.n), (2.0, 3.0, 4.0, 5));
        assert_eq!(quantile_sorted(&[], 0.5), 0.0);
        assert_eq!(quantile_sorted(&[1.0, 2.0], 0.5), 1.5);
    }
}
