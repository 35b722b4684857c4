//! Persistent performance baseline: runs a fixed, seeded workload through
//! the hot paths this repo optimises and writes `BENCH_perf.json` so
//! regressions show up as a diff, not an anecdote.
//!
//! Stages:
//!
//! 1. **GP fit sweep** — full O(n³) fit vs the O(n²) incremental extend at
//!    n ∈ {50, 100, 200, 400}.
//! 2. **Repeated recommend at n≈200** — the steady-state tuner loop
//!    (recommend → one new observation → recommend …) in three variants:
//!    `legacy` (full refit + per-candidate scalar sweep, the pre-
//!    optimisation code path, reconstructed here), `full` (refit each round
//!    but batched sweep: `BoConfig { incremental: false }`), and
//!    `incremental` (the default). The headline number is
//!    `legacy_ms / incremental_ms`, asserted ≥ 5×.
//! 3. **Fleet drive** — a 48-database fleet, one shard vs the auto-resolved
//!    shard count, in interleaved one-minute chunks (fastest chunk per
//!    side); node-ticks/second plus a determinism witness (event-log
//!    fingerprint and total queries must be bit-identical across both).
//!    The JSON keeps the field names `serial` (one shard) and `sharded`.
//! 4. **Backend drive** — a 16-database fleet per backend adapter
//!    (page-heap and LSM) on one shard, recording the relative
//!    per-tick cost of each engine profile plus a per-backend determinism
//!    witness (event-log fingerprint equal across a same-seed replay).
//! 5. **Fleet scaling** — the same head-to-head over a long-tail tenant
//!    fleet at {48, 512, 2048, 10_000} services. Fails if the auto-sharded
//!    fleet loses to one shard at ≥512 nodes or the 10k fleet drops below
//!    1M node-ticks/s.
//! 6. **Safe tuning** — one simulated day of the fig18 rig: a guarded
//!    and an observe-only arm cold-start a BO tuner against the
//!    production trace. Gates: the guarded arm finishes with zero
//!    SLO-floor breaches and strictly lower cumulative regret, the
//!    observe-only arm never clamps, and the guarded region clamps at
//!    least once (i.e. it did real work).
//!
//! All seeds are fixed; every non-timing field in the JSON is
//! deterministic. Timing fields are medians or fastest-reps over several
//! repetitions.
//!
//! The file starts with `"schema_version": 4`; v3 added the per-backend
//! `backends` section, v4 the `safetune` regret/SLO section. Consumers
//! must check the version field and refuse older/newer files rather than
//! guess (the detlint `--json` v2 bump set the precedent).
//!
//! Flags: `--rounds 24 --out BENCH_perf.json`.

use autodbaas_bench::{arg_value, longtail_fleet, race_shard_counts, safetune, NodeSpec};
use autodbaas_cloudsim::{FleetConfig, FleetSim};
use autodbaas_core::{TdeConfig, TuningPolicy};
use autodbaas_simdb::{DbFlavor, InstanceType};
use autodbaas_telemetry::outln;
use autodbaas_telemetry::{MILLIS_PER_HOUR, MILLIS_PER_MIN};
use autodbaas_tuner::{
    top_k_xy, BoConfig, BoStats, BoTuner, GaussianProcess, GpParams, Sample, SampleQuality,
    WorkloadId, WorkloadRepository,
};
use autodbaas_workload::{tpcc, ArrivalProcess};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::hint::black_box;
use std::time::Instant;

const DIM: usize = 15;
const CANDIDATES: usize = 400;
const KAPPA: f64 = 0.8;

/// Median wall-clock of `reps` runs, in milliseconds.
fn median_ms<R>(reps: usize, mut f: impl FnMut() -> R) -> f64 {
    let mut times: Vec<f64> = (0..reps)
        .map(|_| {
            let t = Instant::now();
            black_box(f());
            t.elapsed().as_secs_f64() * 1e3
        })
        .collect();
    times.sort_by(f64::total_cmp);
    times[times.len() / 2]
}

/// Smooth synthetic objective over the unit cube.
fn objective(c: &[f64]) -> f64 {
    let d2: f64 = c
        .iter()
        .enumerate()
        .map(|(i, &x)| {
            let opt = 0.3 + 0.4 * (i as f64 / DIM as f64);
            (x - opt) * (x - opt)
        })
        .sum();
    1000.0 * (-d2 * 2.0).exp()
}

fn gp_data(n: usize, seed: u64) -> (Vec<Vec<f64>>, Vec<f64>) {
    let mut rng = StdRng::seed_from_u64(seed);
    let xs: Vec<Vec<f64>> = (0..n)
        .map(|_| (0..DIM).map(|_| rng.gen()).collect())
        .collect();
    let ys: Vec<f64> = xs.iter().map(|x| objective(x)).collect();
    (xs, ys)
}

/// Stage 1: full-fit vs extend-one at each training size.
fn gp_fit_sweep(out: &mut String) {
    out.push_str("  \"gp_fit\": [\n");
    for (i, &n) in [50usize, 100, 200, 400].iter().enumerate() {
        let (xs, ys) = gp_data(n + 1, 0xf17 + n as u64);
        let full_ms = median_ms(7, || {
            GaussianProcess::fit(&xs[..n], &ys[..n], GpParams::default()).map(|g| g.len())
        });
        let base = GaussianProcess::fit(&xs[..n], &ys[..n], GpParams::default()).expect("SPD");
        let extend_ms = median_ms(7, || {
            let mut g = base.clone();
            assert!(g.extend(&xs[n], ys[n]));
            g.len()
        });
        let line = format!(
            "    {{\"n\": {n}, \"full_fit_ms\": {full_ms:.3}, \"extend_one_ms\": {extend_ms:.3}, \"speedup\": {:.1}}}{}\n",
            full_ms / extend_ms.max(1e-6),
            if i == 3 { "" } else { "," },
        );
        out.push_str(&line);
        outln!("gp_fit n={n:3}  full={full_ms:8.3} ms  extend={extend_ms:8.3} ms");
    }
    out.push_str("  ],\n");
}

/// Faithful reconstruction of the pre-optimisation GP path, preserved here
/// so the baseline keeps measuring what this PR replaced: `Vec<Vec<f64>>`
/// training-row storage (pointer-chasing per kernel row), per-pair
/// libm-`exp` RBF with a redundant sqrt, unblocked Cholesky, and
/// allocating triangular solves on every per-candidate prediction.
mod legacy {
    use autodbaas_tuner::linalg::{euclidean, Matrix};
    use autodbaas_tuner::GpParams;

    pub struct LegacyGp {
        params: GpParams,
        x: Vec<Vec<f64>>,
        alpha: Vec<f64>,
        chol: Matrix,
        y_mean: f64,
        y_scale: f64,
    }

    fn rbf(a: &[f64], b: &[f64], p: GpParams) -> f64 {
        let d = euclidean(a, b);
        p.signal_variance * (-(d * d) / (2.0 * p.length_scale * p.length_scale)).exp()
    }

    impl LegacyGp {
        pub fn fit(x: &[Vec<f64>], y: &[f64], params: GpParams) -> Option<Self> {
            if x.is_empty() || x.len() != y.len() {
                return None;
            }
            let n = x.len();
            let y_mean = y.iter().sum::<f64>() / n as f64;
            let var = y.iter().map(|v| (v - y_mean) * (v - y_mean)).sum::<f64>() / n as f64;
            let y_scale = var.sqrt().max(1e-9);
            let yn: Vec<f64> = y.iter().map(|v| (v - y_mean) / y_scale).collect();

            let mut jitter = params.noise.max(1e-9);
            for _ in 0..6 {
                let mut k = Matrix::zeros(n, n);
                for i in 0..n {
                    for j in 0..=i {
                        let v = rbf(&x[i], &x[j], params);
                        k[(i, j)] = v;
                        k[(j, i)] = v;
                    }
                    k[(i, i)] += jitter;
                }
                if let Some(chol) = k.cholesky_naive() {
                    let z = chol.solve_lower(&yn);
                    let alpha = chol.solve_lower_transpose(&z);
                    return Some(Self {
                        params,
                        x: x.to_vec(),
                        alpha,
                        chol,
                        y_mean,
                        y_scale,
                    });
                }
                jitter *= 10.0;
            }
            None
        }

        pub fn predict(&self, q: &[f64]) -> (f64, f64) {
            let n = self.x.len();
            let mut kstar = vec![0.0; n];
            for (i, xi) in self.x.iter().enumerate() {
                kstar[i] = rbf(q, xi, self.params);
            }
            let mean_n: f64 = kstar.iter().zip(&self.alpha).map(|(k, a)| k * a).sum();
            let v = self.chol.solve_lower(&kstar);
            let kqq = self.params.signal_variance + self.params.noise;
            let var_n = (kqq - v.iter().map(|t| t * t).sum::<f64>()).max(1e-12);
            (
                mean_n * self.y_scale + self.y_mean,
                var_n * self.y_scale * self.y_scale,
            )
        }

        pub fn ucb(&self, q: &[f64], kappa: f64) -> f64 {
            let (m, v) = self.predict(q);
            m + kappa * v.sqrt()
        }
    }
}

/// The seed implementation of one recommendation: full GP refit plus a
/// per-candidate scalar UCB sweep (allocating kernel rows per candidate).
fn legacy_recommend(xs: &[Vec<f64>], ys: &[f64], rng: &mut StdRng) -> Vec<f64> {
    let gp = legacy::LegacyGp::fit(xs, ys, GpParams::default()).expect("fit");
    let dims = top_k_xy(xs, ys, 6);
    let best_idx = ys
        .iter()
        .enumerate()
        .max_by(|a, b| a.1.partial_cmp(b.1).expect("NaN"))
        .map(|(i, _)| i)
        .unwrap_or(0);
    let best_known = &xs[best_idx];
    let mut best_cfg = best_known.clone();
    let mut best_ucb = gp.ucb(best_known, KAPPA);
    for c in 0..CANDIDATES {
        let mut cand = best_known.clone();
        for &d in &dims {
            cand[d] = if c % 2 == 0 {
                rng.gen::<f64>()
            } else {
                (best_known[d] + rng.gen_range(-0.15..0.15)).clamp(0.0, 1.0)
            };
        }
        let u = gp.ucb(&cand, KAPPA);
        if u > best_ucb {
            best_ucb = u;
            best_cfg = cand;
        }
    }
    best_cfg
}

fn seeded_repo(n: usize) -> (WorkloadRepository, WorkloadId) {
    let mut repo = WorkloadRepository::new();
    let id = repo.register("perf-target", false);
    let (xs, ys) = gp_data(n, 0x5eed);
    for (x, &y) in xs.iter().zip(&ys) {
        repo.add_sample(
            id,
            Sample {
                config: x.clone(),
                metrics: Vec::new(),
                objective: y,
                quality: SampleQuality::High,
            },
        );
    }
    (repo, id)
}

/// Stage 2: the steady-state tuner loop, three ways.
fn repeated_recommend(rounds: usize, out: &mut String) {
    let n0 = 200;
    // Fresh observations arriving between recommendations (identical
    // stream for every variant).
    let (new_xs, new_ys) = gp_data(rounds, 0xadd);

    let run_tuner = |cfg: BoConfig| {
        let (mut repo, id) = seeded_repo(n0);
        let mut tuner = BoTuner::new(cfg, 17);
        let t = Instant::now();
        for r in 0..rounds {
            black_box(tuner.recommend(&repo, id).expect("recommendation"));
            repo.add_sample(
                id,
                Sample {
                    config: new_xs[r].clone(),
                    metrics: Vec::new(),
                    objective: new_ys[r],
                    quality: SampleQuality::High,
                },
            );
        }
        (t.elapsed().as_secs_f64() * 1e3, tuner.stats())
    };

    let run_legacy = || {
        let (xs0, ys0) = gp_data(n0, 0x5eed);
        let mut xs = xs0;
        let mut ys = ys0;
        let mut rng = StdRng::seed_from_u64(17);
        let t = Instant::now();
        for r in 0..rounds {
            black_box(legacy_recommend(&xs, &ys, &mut rng));
            xs.push(new_xs[r].clone());
            ys.push(new_ys[r]);
        }
        t.elapsed().as_secs_f64() * 1e3
    };

    let cfg = BoConfig {
        candidates: CANDIDATES,
        kappa: KAPPA,
        ..BoConfig::default()
    };
    let full_cfg = BoConfig {
        incremental: false,
        ..cfg.clone()
    };
    // Warm up (page in code/data), then measure. Reps are *interleaved*
    // across the three variants so slow phases of a shared host hit each
    // variant equally, and each variant reports its *fastest* rep — the
    // least-interference estimate of its true cost.
    run_tuner(cfg.clone());
    run_legacy();
    const REPS: usize = 5;
    let mut legacy_reps = Vec::with_capacity(REPS);
    let mut full_reps = Vec::with_capacity(REPS);
    let mut inc_reps = Vec::with_capacity(REPS);
    let mut inc_stats = BoStats::default();
    let mut full_stats = BoStats::default();
    for _ in 0..REPS {
        legacy_reps.push(run_legacy());
        let (ms, stats) = run_tuner(full_cfg.clone());
        full_reps.push(ms);
        full_stats = stats;
        let (ms, stats) = run_tuner(cfg.clone());
        inc_reps.push(ms);
        inc_stats = stats;
    }
    let fastest = |v: Vec<f64>| v.into_iter().fold(f64::INFINITY, f64::min);
    let legacy_ms = fastest(legacy_reps);
    let full_ms = fastest(full_reps);
    let incremental_ms = fastest(inc_reps);

    let speedup_vs_legacy = legacy_ms / incremental_ms.max(1e-6);
    let speedup_vs_full = full_ms / incremental_ms.max(1e-6);
    outln!(
        "recommend x{rounds} @ n={n0}: legacy={legacy_ms:.1} ms  full={full_ms:.1} ms  \
         incremental={incremental_ms:.1} ms  speedup(legacy)={speedup_vs_legacy:.1}x  \
         speedup(full)={speedup_vs_full:.1}x"
    );
    outln!(
        "  maintenance: incremental {{fits: {}, extends: {}}}, full {{fits: {}, extends: {}}}",
        inc_stats.full_fits,
        inc_stats.incremental_extends,
        full_stats.full_fits,
        full_stats.incremental_extends
    );
    out.push_str(&format!(
        "  \"repeated_recommend\": {{\n    \"n_start\": {n0},\n    \"rounds\": {rounds},\n    \
         \"legacy_ms\": {legacy_ms:.2},\n    \"full_refit_ms\": {full_ms:.2},\n    \
         \"incremental_ms\": {incremental_ms:.2},\n    \
         \"speedup_vs_legacy\": {speedup_vs_legacy:.2},\n    \
         \"speedup_vs_full\": {speedup_vs_full:.2},\n    \"target_speedup\": 5.0,\n    \
         \"meets_target\": {},\n    \"incremental_full_fits\": {},\n    \
         \"incremental_extends\": {}\n  }},\n",
        speedup_vs_legacy >= 5.0,
        inc_stats.full_fits,
        inc_stats.incremental_extends,
    ));
}

fn build_fleet(shards: usize) -> FleetSim {
    let mut sim = FleetSim::new(
        FleetConfig {
            gate_samples_with_tde: false,
            seed: 0xf1ee7,
            shards,
            ..FleetConfig::default()
        },
        2,
    );
    for i in 0..48 {
        let wl = tpcc(0.5);
        let catalog = wl.catalog().clone();
        let node = NodeSpec::new(DbFlavor::Postgres, InstanceType::M4Large).managed(
            catalog,
            Box::new(wl),
            ArrivalProcess::Constant(250.0),
            TuningPolicy::TdeDriven,
            WorkloadId(0),
            TdeConfig::default(),
            1000 + i,
        );
        sim.add_node(node, &format!("db-{i}"));
    }
    sim
}

/// Stage 3: fleet ticks/second on the 48-database rig the seed regression
/// was measured on (230 ms parallel vs 204 ms serial), one shard vs the
/// auto-resolved shard count, plus the determinism witness.
fn fleet_drive(out: &mut String) {
    let mut serial = build_fleet(1);
    let mut sharded = build_fleet(0);
    serial.run_for(MILLIS_PER_MIN); // warm both fleets and the host caches
    sharded.run_for(MILLIS_PER_MIN);
    let (serial_ms, sharded_ms) = race_shard_counts(&mut serial, &mut sharded, MILLIS_PER_MIN, 7);
    let queries: u64 = serial.nodes.iter().map(|n| n.queries_submitted).sum();
    let node_ticks = 48.0 * 60.0;
    let shards = sharded.shard_count();
    outln!(
        "fleet 48 dbs, 1-min chunks: one-shard={serial_ms:.1} ms ({:.0} node-ticks/s)  \
         sharded={sharded_ms:.1} ms ({:.0} node-ticks/s, {shards} shard(s))  queries={queries}",
        node_ticks * 1e3 / serial_ms,
        node_ticks * 1e3 / sharded_ms,
    );
    out.push_str(&format!(
        "  \"fleet\": {{\n    \"nodes\": 48,\n    \"chunk_sim_minutes\": 1,\n    \
         \"total_queries\": {queries},\n    \
         \"serial\": {{\"wall_ms\": {serial_ms:.1}, \"node_ticks_per_sec\": {:.1}}},\n    \
         \"sharded\": {{\"wall_ms\": {sharded_ms:.1}, \"node_ticks_per_sec\": {:.1}, \
         \"shards\": {shards}}}\n  }},\n",
        node_ticks * 1e3 / serial_ms,
        node_ticks * 1e3 / sharded_ms,
    ));
}

/// A 16-node single-backend fleet for the per-backend dimension; smaller
/// than the stage-3 rig so the section stays cheap, one shard so the
/// numbers isolate engine-profile cost from sharding.
fn backend_fleet(flavor: DbFlavor, seed: u64) -> FleetSim {
    let mut sim = FleetSim::new(
        FleetConfig {
            gate_samples_with_tde: false,
            seed,
            shards: 1,
            ..FleetConfig::default()
        },
        2,
    );
    for i in 0..16 {
        let wl = tpcc(0.5);
        let catalog = wl.catalog().clone();
        let node = NodeSpec::new(flavor, InstanceType::M4Large).managed(
            catalog,
            Box::new(wl),
            ArrivalProcess::Constant(250.0),
            TuningPolicy::TdeDriven,
            WorkloadId(0),
            TdeConfig::default(),
            3_000 + i,
        );
        sim.add_node(node, &format!("db-{i}"));
    }
    sim
}

/// Stage 4: the backend dimension (schema v3). The same drive loop per
/// engine profile — the page-heap adapter and the LSM adapter — so an
/// engine-profile regression (say, compaction scheduling going quadratic)
/// shows up as its own diff line instead of being averaged into the
/// all-Postgres fleet numbers. Each backend also carries a determinism
/// witness: a same-seed replay must reproduce the event-log fingerprint.
fn backend_drive(out: &mut String) {
    out.push_str("  \"backends\": [\n");
    let backends = [(DbFlavor::Postgres, "pageheap"), (DbFlavor::Lsm, "lsm")];
    for (bi, &(flavor, name)) in backends.iter().enumerate() {
        let mut sim = backend_fleet(flavor, 0xbac4e7d);
        sim.run_for(MILLIS_PER_MIN); // warm-up
        let t = Instant::now();
        sim.run_for(2 * MILLIS_PER_MIN);
        let wall_ms = t.elapsed().as_secs_f64() * 1e3;
        let queries: u64 = sim.nodes.iter().map(|n| n.queries_submitted).sum();
        assert!(queries > 0, "{name} backend fleet executed no queries");

        let mut replay = backend_fleet(flavor, 0xbac4e7d);
        replay.run_for(3 * MILLIS_PER_MIN);
        assert_eq!(
            sim.events.fingerprint(),
            replay.events.fingerprint(),
            "{name} backend drive must replay bit-identically"
        );

        let node_ticks = 16.0 * 120.0;
        let tps = node_ticks * 1e3 / wall_ms;
        outln!(
            "backend {name:<8}: 16 dbs, 2-min drive = {wall_ms:>7.1} ms \
             ({tps:>8.0} node-ticks/s)  queries={queries}"
        );
        out.push_str(&format!(
            "    {{\"backend\": \"{name}\", \"nodes\": 16, \"drive_sim_minutes\": 2, \
             \"wall_ms\": {wall_ms:.1}, \"node_ticks_per_sec\": {tps:.0}, \
             \"total_queries\": {queries}, \"replay_deterministic\": true}}{}\n",
            if bi == backends.len() - 1 { "" } else { "," },
        ));
    }
    out.push_str("  ],\n");
}

/// Stage 5: the fleet-size sweep (ROADMAP item 1). A long-tail tenant
/// fleet at {48, 512, 2048, 10_000} services, one shard vs the auto-resolved
/// shard count, one-minute interleaved chunks. Hard gates: auto sharding
/// must not lose to one shard at ≥512 nodes, and the 10k fleet must sustain
/// ≥1M node-ticks/s auto-sharded. A losing/slow size gets up to two appeal
/// rounds of extra chunks before the gate fires, so a single noise burst on
/// a shared host doesn't fail the bin.
///
/// Both parallel gates apply only when the host can actually parallelize
/// (≥2 cores): on a single-core host auto resolution picks one shard and
/// the head-to-head races the plain loop against itself, so the strict
/// gates are replaced by a 2× overhead ceiling and the JSON records
/// `host_parallelism` so readers know why the timings look the way they do.
fn fleet_scaling(out: &mut String) {
    const FLOOR_10K: f64 = 1_000_000.0; // node-ticks/s, ROADMAP item 1
    let host_threads = std::thread::available_parallelism()
        .map(|p| p.get())
        .unwrap_or(1);
    let parallel_host = host_threads >= 2;
    if !parallel_host {
        outln!(
            "fleet_scaling: single-core host ({host_threads} thread) — \
             parallel win/floor gates relaxed to a 2x overhead ceiling"
        );
    }
    out.push_str(&format!("  \"host_parallelism\": {host_threads},\n"));
    out.push_str("  \"fleet_scaling\": [\n");
    let sizes = [48usize, 512, 2048, 10_000];
    for (si, &n) in sizes.iter().enumerate() {
        let reps = if n >= 2048 { 3 } else { 5 };
        let mut serial = longtail_fleet(n, 1, 0xf1ee7);
        let mut sharded = longtail_fleet(n, 0, 0xf1ee7);
        serial.run_for(MILLIS_PER_MIN);
        sharded.run_for(MILLIS_PER_MIN);
        let (mut serial_ms, mut sharded_ms) =
            race_shard_counts(&mut serial, &mut sharded, MILLIS_PER_MIN, reps);
        let node_ticks = (n * 60) as f64;
        let mut appeals = 0;
        while appeals < 2
            && parallel_host
            && ((n >= 512 && sharded_ms > serial_ms)
                || (n >= 10_000 && node_ticks * 1e3 / sharded_ms < FLOOR_10K))
        {
            let (s, p) = race_shard_counts(&mut serial, &mut sharded, MILLIS_PER_MIN, 2);
            serial_ms = serial_ms.min(s);
            sharded_ms = sharded_ms.min(p);
            appeals += 1;
        }
        let serial_tps = node_ticks * 1e3 / serial_ms;
        let sharded_tps = node_ticks * 1e3 / sharded_ms;
        let shards = sharded.shard_count();
        outln!(
            "fleet_scaling n={n:>6}: one-shard={serial_ms:>8.1} ms ({serial_tps:>9.0} t/s)  \
             sharded={sharded_ms:>8.1} ms ({sharded_tps:>9.0} t/s, {shards} shard(s))"
        );
        if parallel_host {
            assert!(
                n < 512 || sharded_ms <= serial_ms,
                "sharded drive slower than one shard at {n} nodes \
                 ({sharded_ms:.1} ms vs {serial_ms:.1} ms)"
            );
            assert!(
                n < 10_000 || sharded_tps >= FLOOR_10K,
                "10k fleet below the 1M node-ticks/s floor: {sharded_tps:.0}"
            );
        } else {
            assert!(
                sharded_ms <= serial_ms * 2.0,
                "sharded overhead ceiling breached on single-core host at {n} \
                 nodes ({sharded_ms:.1} ms vs {serial_ms:.1} ms one-shard)"
            );
        }
        out.push_str(&format!(
            "    {{\"nodes\": {n}, \
             \"serial\": {{\"wall_ms\": {serial_ms:.1}, \"node_ticks_per_sec\": {serial_tps:.0}}}, \
             \"sharded\": {{\"wall_ms\": {sharded_ms:.1}, \"node_ticks_per_sec\": {sharded_tps:.0}, \
             \"shards\": {shards}}}}}{}\n",
            if si == sizes.len() - 1 { "" } else { "," },
        ));
    }
    out.push_str("  ]\n");
}

/// Stage 6 (schema v4): the safe-tuning gate. One simulated day of the
/// fig18 rig — a guarded and an observe-only arm, identical fleets and
/// acquisition, only the safe-region geometry differing — with the
/// safety layer's contract asserted, not just recorded: the guard must
/// hold the SLO floor without giving up the regret advantage it exists
/// to provide.
fn safetune_gate(out: &mut String) {
    const SIM_DAYS: u64 = 1;
    const DBS: usize = 2;
    const SEED: u64 = 42;
    let run = |guarded: bool| {
        let mut sim = safetune::production_arm(guarded, DBS, SEED);
        sim.run_for(SIM_DAYS * 24 * MILLIS_PER_HOUR);
        sim
    };
    let t = Instant::now();
    let guarded = run(true);
    let unguarded = run(false);
    let wall_ms = t.elapsed().as_secs_f64() * 1e3;

    let gs = guarded.safety().expect("guarded governor");
    let us = unguarded.safety().expect("unguarded governor");
    let (g_clamps, g_breaches) = guarded.meter.safety_totals();
    let (u_clamps, u_breaches) = unguarded.meter.safety_totals();
    let regret_ratio = us.cumulative_regret() / gs.cumulative_regret().max(1e-9);
    outln!(
        "safetune {SIM_DAYS} day(s), {DBS} dbs/arm: regret guarded={:.1} unguarded={:.1} \
         ({regret_ratio:.2}x)  breaches {}/{}  clamps {g_clamps}/{u_clamps}  ({wall_ms:.0} ms)",
        gs.cumulative_regret(),
        us.cumulative_regret(),
        gs.total_violations(),
        us.total_violations(),
    );

    assert_eq!(
        g_breaches,
        gs.total_violations(),
        "meter/ledger breach split"
    );
    assert_eq!(
        u_breaches,
        us.total_violations(),
        "meter/ledger breach split"
    );
    assert_eq!(
        gs.total_violations(),
        0,
        "guarded arm must hold the SLO floor for the whole day"
    );
    assert_eq!(u_clamps, 0, "the observe-only arm must never clamp");
    assert!(
        g_clamps > 0,
        "the guarded region never clamped — it did no work"
    );
    assert!(
        gs.cumulative_regret() < us.cumulative_regret(),
        "guarded regret {:.1} must undercut unguarded {:.1}",
        gs.cumulative_regret(),
        us.cumulative_regret()
    );

    out.push_str(&format!(
        "  \"safetune\": {{\n    \"sim_days\": {SIM_DAYS},\n    \"services_per_arm\": {DBS},\n    \
         \"guarded\": {{\"cumulative_regret\": {:.1}, \"slo_breaches\": {}, \"clamps\": {g_clamps}, \
         \"worst_shortfall\": {:.4}}},\n    \
         \"unguarded\": {{\"cumulative_regret\": {:.1}, \"slo_breaches\": {}, \"clamps\": {u_clamps}, \
         \"worst_shortfall\": {:.4}}},\n    \
         \"regret_ratio\": {regret_ratio:.3},\n    \"wall_ms\": {wall_ms:.0}\n  }},\n",
        gs.cumulative_regret(),
        gs.total_violations(),
        gs.worst_shortfall(),
        us.cumulative_regret(),
        us.total_violations(),
        us.worst_shortfall(),
    ));
}

fn main() {
    let rounds: usize = arg_value("rounds")
        .and_then(|v| v.parse().ok())
        .unwrap_or(24);
    let out_path = arg_value("out").unwrap_or_else(|| "BENCH_perf.json".into());

    // v4: added the `safetune` regret/SLO section (v3 the per-backend
    // `backends` one). Consumers pinned to an older schema must fail on
    // the version field, not silently miss it.
    let mut out = String::from("{\n  \"schema_version\": 4,\n");
    gp_fit_sweep(&mut out);
    repeated_recommend(rounds, &mut out);
    fleet_drive(&mut out);
    backend_drive(&mut out);
    safetune_gate(&mut out);
    fleet_scaling(&mut out);
    out.push_str("}\n");

    std::fs::write(&out_path, &out).expect("write baseline file");
    outln!("wrote {out_path}");
}
