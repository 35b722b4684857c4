//! `tuner_loop`: the one workload where the `tuner` crate does all the work.
//!
//! A closed loop with one caller. BO: a repository seeded with 60 random
//! samples of a 15-dimensional synthetic objective, then 600 rounds of
//! `recommend_focused` → evaluate → `add_sample` under `BoConfig::default()`.
//! The training set passes `max_train_samples` (300) at round 240, after
//! which its prefix changes every round and the tuner refits from scratch:
//! 240 cheap rounds, then 360 dear ones. RL: 500 `recommend` + `observe`
//! steps on a 31-dimensional state. A repetition is all of that from a fresh
//! tuner; the run reports the median repetition.

use crate::metrics::{Checks, Outcome, Values};
use crate::stats::{self, median, quartiles, ratio, secs_since, timed};
use crate::trace::{Recorder, Span, ROOT};
use crate::Args;
use autodbaas_telemetry::Fingerprint;
use autodbaas_tuner::{
    BoConfig, BoStats, BoTuner, GaussianProcess, GpParams, RlConfig, RlTuner, Sample,
    SampleQuality, Transition, WorkloadId, WorkloadRepository,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::hint::black_box;
use std::time::Instant;

const DIM: usize = 15;
const SEED_SAMPLES: usize = 60;
const RL_STATE_DIM: usize = 31;

struct Sizes {
    rounds: usize,
    rl_steps: usize,
}

/// Smooth single-peak objective over the unit cube; the peak's place
/// depends on the seed, so every seed tunes towards a different optimum.
fn objective(c: &[f64], shift: f64) -> f64 {
    let d2: f64 = c
        .iter()
        .enumerate()
        .map(|(i, &x)| {
            let opt = 0.25 + 0.4 * (i as f64 / DIM as f64) + shift;
            (x - opt) * (x - opt)
        })
        .sum();
    1000.0 * (-2.0 * d2).exp()
}

fn sample(config: Vec<f64>, objective: f64) -> Sample {
    Sample {
        config,
        metrics: Vec::new(),
        objective,
        quality: SampleQuality::High,
    }
}

/// A seeded repository, a BO tuner that has fitted its first surrogate and
/// an RL tuner: what the loop needs before its first timed round.
struct Rig {
    repo: WorkloadRepository,
    id: WorkloadId,
    bo: BoTuner,
    rl: RlTuner,
    rng: StdRng,
    shift: f64,
}

fn setup(seed: u64) -> Rig {
    let mut rng = StdRng::seed_from_u64(seed);
    let shift = rng.gen_range(0.0..0.1);
    let mut repo = WorkloadRepository::new();
    let id = repo.register("tuner-loop", false);
    for _ in 0..SEED_SAMPLES {
        let x: Vec<f64> = (0..DIM).map(|_| rng.gen()).collect();
        let y = objective(&x, shift);
        repo.add_sample(id, sample(x, y));
    }
    let mut bo = BoTuner::new(BoConfig::default(), seed ^ 0xb0);
    black_box(bo.recommend(&repo, id));
    let rl = RlTuner::new(RL_STATE_DIM, DIM, RlConfig::default(), seed ^ 0x71);
    Rig {
        repo,
        id,
        bo,
        rl,
        rng,
        shift,
    }
}

/// What one repetition produced and cost.
struct Rep {
    /// Every BO round, whole (recommend, evaluate, add the sample), ms.
    round_ms: Vec<f64>,
    /// The `recommend_focused` call of every round, ms.
    rec_ms: Vec<f64>,
    rl_recommend_us: Vec<f64>,
    rl_observe_us: Vec<f64>,
    /// Hash of every recommended configuration, in order.
    sequence: u64,
    failed: u64,
    stats: BoStats,
}

/// The harness's own surrogate, kept on the same training prefix as the
/// tuner's so that what `recommend` spends on model maintenance can be
/// timed from outside it (traced runs only).
struct Mirror {
    xs: Vec<Vec<f64>>,
    ys: Vec<f64>,
    gp: GaussianProcess,
    fit_ms: Vec<f64>,
    extend_ms: Vec<f64>,
}

fn in_unit_cube(c: &[f64]) -> bool {
    c.len() == DIM && c.iter().all(|v| v.is_finite() && (0.0..=1.0).contains(v))
}

fn run_rep(
    seed: u64,
    sizes: &Sizes,
    rep: u64,
    mut trace: Option<(&mut Recorder, &mut Option<Mirror>)>,
) -> Rep {
    let mut rig = setup(seed);
    let cap = BoConfig::default().max_train_samples;
    if let Some((_, mirror)) = trace.as_mut() {
        let samples = &rig.repo.workload(rig.id).samples;
        let xs: Vec<Vec<f64>> = samples.iter().map(|s| s.config.clone()).collect();
        let ys: Vec<f64> = samples.iter().map(|s| s.objective).collect();
        let gp = GaussianProcess::fit(&xs, &ys, GpParams::default()).expect("seed samples fit");
        **mirror = Some(Mirror {
            xs,
            ys,
            gp,
            fit_ms: Vec::new(),
            extend_ms: Vec::new(),
        });
    }
    let mut out = Rep {
        round_ms: Vec::with_capacity(sizes.rounds),
        rec_ms: Vec::with_capacity(sizes.rounds),
        rl_recommend_us: Vec::with_capacity(sizes.rl_steps),
        rl_observe_us: Vec::with_capacity(sizes.rl_steps),
        sequence: 0,
        failed: 0,
        stats: BoStats::default(),
    };
    let mut sequence = Fingerprint::new();

    for round in 0..sizes.rounds {
        let trace_id = rep * (sizes.rounds + sizes.rl_steps) as u64 + round as u64;
        // The request names the indicted knobs; two a round, rotating.
        let focus = [round % DIM, (round * 7 + 3) % DIM];
        let mut child = None;
        if let Some((rec, Some(m))) = trace.as_mut() {
            // What the tuner is about to do to its surrogate, done to the
            // mirror: one rank-1 extend below the cap, a full refit of the
            // most recent `cap` samples above it.
            let n = m.xs.len();
            let t = Instant::now();
            let name = if n > cap {
                let gp =
                    GaussianProcess::fit(&m.xs[n - cap..], &m.ys[n - cap..], GpParams::default());
                m.fit_ms.push(secs_since(t) * 1e3);
                black_box(gp);
                "tuner.gp_fit"
            } else if m.gp.len() < n {
                let ok = m.gp.extend(&m.xs[n - 1], m.ys[n - 1]);
                m.extend_ms.push(secs_since(t) * 1e3);
                black_box(ok);
                "tuner.gp_extend"
            } else {
                "tuner.gp_reuse"
            };
            let start_ns = rec.ns_at(t);
            child = Some(rec.push(Span {
                name,
                start_ns,
                end_ns: rec.now_ns(),
                parent: ROOT,
                trace_id,
                calls: 1,
            }));
        }
        let t = Instant::now();
        let recommendation = rig.bo.recommend_focused(&rig.repo, rig.id, &focus);
        let t_end = Instant::now();
        out.rec_ms.push(t_end.duration_since(t).as_secs_f64() * 1e3);
        if let Some((rec, _)) = trace.as_mut() {
            let parent = rec.push(Span {
                name: "tuner.recommend",
                start_ns: rec.ns_at(t),
                end_ns: rec.ns_at(t_end),
                parent: ROOT,
                trace_id,
                calls: 1,
            });
            if let Some(c) = child {
                rec.adopt(c..parent, parent);
            }
        }
        let config = match recommendation {
            Some(r) if in_unit_cube(&r.config) => r.config,
            _ => {
                out.failed += 1;
                out.round_ms.push(secs_since(t) * 1e3);
                continue;
            }
        };
        for v in &config {
            sequence.mix_u64(v.to_bits());
        }
        // Evaluate with a little measurement noise and report back.
        let y = objective(&config, rig.shift) * (1.0 + rig.rng.gen_range(-0.01..0.01));
        if let Some((_, Some(m))) = trace.as_mut() {
            m.xs.push(config.clone());
            m.ys.push(y);
        }
        rig.repo.add_sample(rig.id, sample(config, y));
        out.round_ms.push(secs_since(t) * 1e3);
    }
    out.stats = rig.bo.stats();

    let mut state: Vec<f64> = (0..RL_STATE_DIM).map(|_| rig.rng.gen()).collect();
    let mut last = 0.0;
    for _ in 0..sizes.rl_steps {
        let t = Instant::now();
        let action = rig.rl.recommend(&state);
        out.rl_recommend_us.push(secs_since(t) * 1e6);
        if !in_unit_cube(&action) {
            out.failed += 1;
        }
        for v in &action {
            sequence.mix_u64(v.to_bits());
        }
        let y = objective(&action, rig.shift);
        let next_state: Vec<f64> = (0..RL_STATE_DIM).map(|_| rig.rng.gen()).collect();
        let transition = Transition {
            state: std::mem::replace(&mut state, next_state.clone()),
            action,
            reward: ((y - last) / 1000.0).clamp(-2.0, 2.0),
            next_state,
        };
        last = y;
        let t = Instant::now();
        rig.rl.observe(transition);
        out.rl_observe_us.push(secs_since(t) * 1e6);
    }
    out.sequence = sequence.finish();
    out
}

pub fn run(args: &Args) -> Outcome {
    let sizes = if args.quick {
        Sizes {
            rounds: 40,
            rl_steps: 100,
        }
    } else {
        Sizes {
            rounds: 600,
            rl_steps: 500,
        }
    };
    let mut values = Values::default();
    let mut checks = Checks::default();

    // Set-up takes well under a millisecond, so it is repeated often enough
    // for its median to mean something.
    let mut setup_s: Vec<f64> = (0..if args.quick { 20 } else { 200 })
        .map(|_| timed(|| black_box(setup(args.seed)).shift).1)
        .collect();
    values.set("setup_s", median(&mut setup_s));

    let budget_s = if args.trace {
        args.seconds / 3.0
    } else {
        args.seconds
    };
    let floor = if args.quick { 2 } else { 3 };
    let mut reps: Vec<Rep> = Vec::new();
    let started = Instant::now();
    while args.keep_going(reps.len(), floor, started, budget_s) {
        reps.push(run_rep(args.seed, &sizes, reps.len() as u64, None));
    }
    let first = &reps[0];
    for (i, r) in reps.iter().enumerate() {
        checks.require(
            r.sequence == first.sequence && r.stats == first.stats,
            || {
                format!(
                    "repetition {i} recommended a different sequence ({:016x} vs {:016x}, {:?} vs {:?})",
                    r.sequence, first.sequence, r.stats, first.stats
                )
            },
        );
    }
    println!(
        "# sequence_digest {:016x} bo_full_fits {} bo_extends {}",
        first.sequence, first.stats.full_fits, first.stats.incremental_extends
    );
    // Round `k` is the same work in every repetition: its cost is its
    // fastest repetition (see `stats::noise_floor`).
    let floor_of = |pick: &dyn Fn(&Rep) -> Vec<f64>| -> Vec<f64> {
        stats::noise_floor(&reps.iter().map(pick).collect::<Vec<_>>())
    };
    let bo_s = floor_of(&|r| r.round_ms.clone()).iter().sum::<f64>() / 1e3;
    let q = quartiles(
        &mut reps
            .iter()
            .map(|r| r.round_ms.iter().sum::<f64>() / 1e3)
            .collect::<Vec<_>>(),
    );
    println!(
        "# bo_s {bo_s:.4} = sum over rounds of the fastest of {} repetitions; whole repetitions: median {:.4} q1 {:.4} q3 {:.4}",
        q.n, q.median, q.q1, q.q3
    );
    let recs_per_s = sizes.rounds as f64 / bo_s;
    let mut rec_ms = floor_of(&|r| r.rec_ms.clone());
    rec_ms.sort_by(f64::total_cmp);
    let rl_s = floor_of(&|r| {
        r.rl_recommend_us
            .iter()
            .zip(&r.rl_observe_us)
            .map(|(a, b)| a + b)
            .collect()
    })
    .iter()
    .sum::<f64>()
        / 1e6;
    let calls = (reps.len() * (sizes.rounds + sizes.rl_steps)) as u64;
    let failed: u64 = reps.iter().map(|r| r.failed).sum();
    values.set("work_per_s", recs_per_s);
    values.set("latency_ms", stats::quantile_sorted(&rec_ms, 0.5));
    values.set("peak_rss_mb", stats::peak_rss_mb());
    values.set("recs_per_s", recs_per_s);
    values.set("rl_steps_per_s", sizes.rl_steps as f64 / rl_s);
    values.set("fail_frac", ratio(failed as f64, calls as f64));

    if args.trace {
        traced(args, &sizes, &reps, &mut values, &mut checks);
    }
    Outcome {
        correct: checks.all_passed() && failed == 0,
        attempted: calls,
        failed,
        values,
    }
}

fn traced(args: &Args, sizes: &Sizes, untraced: &[Rep], v: &mut Values, checks: &mut Checks) {
    let mut rec = Recorder::new();
    let mut mirror = None;
    let started = Instant::now();
    let mut reps: Vec<Rep> = Vec::new();
    while reps.is_empty()
        || (reps.len() < 3 && !args.quick && secs_since(started) < args.seconds * 0.5)
    {
        let n = reps.len() as u64;
        reps.push(run_rep(args.seed, sizes, n, Some((&mut rec, &mut mirror))));
    }
    checks.require(
        reps.iter().all(|r| r.sequence == untraced[0].sequence),
        || "a traced repetition recommended a different sequence".into(),
    );
    let mirror = mirror.expect("the traced repetitions kept a mirror");

    let cap = BoConfig::default().max_train_samples;
    // Rounds before the training set reaches the cap extend the surrogate;
    // the rest refit it.
    let below = (cap - SEED_SAMPLES).min(sizes.rounds);
    let pooled = |pick: &dyn Fn(&Rep) -> &[f64]| -> Vec<f64> {
        let mut all: Vec<f64> = reps.iter().flat_map(|r| pick(r).iter().copied()).collect();
        all.sort_by(f64::total_cmp);
        all
    };
    let all = pooled(&|r| &r.rec_ms);
    v.set("tuner.bo_rec_ms_p50", stats::quantile_sorted(&all, 0.5));
    v.set("tuner.bo_rec_ms_p99", stats::quantile_sorted(&all, 0.99));
    v.set(
        "tuner.bo_rec_ms_below_cap",
        stats::quantile_sorted(&pooled(&|r| &r.rec_ms[..below]), 0.5),
    );
    v.set(
        "tuner.bo_rec_ms_at_cap",
        stats::quantile_sorted(&pooled(&|r| &r.rec_ms[below..]), 0.5),
    );
    v.set("tuner.bo_full_fits", reps[0].stats.full_fits as f64);
    v.set("tuner.bo_extends", reps[0].stats.incremental_extends as f64);
    v.set("tuner.gp_fit_ms_n300", median(&mut mirror.fit_ms.clone()));
    // The extends nearest the cap: the training set is 250–300 samples.
    let tail = mirror.extend_ms.len().saturating_sub(50 * reps.len());
    v.set(
        "tuner.gp_extend_ms_n300",
        median(&mut mirror.extend_ms[tail..].to_vec()),
    );
    v.set(
        "tuner.rl_recommend_us",
        stats::mean(&pooled(&|r| &r.rl_recommend_us)),
    );
    v.set(
        "tuner.rl_observe_us",
        stats::mean(&pooled(&|r| &r.rl_observe_us)),
    );
    let mut repo = WorkloadRepository::new();
    let id = repo.register("probe", false);
    let config = vec![0.5; DIM];
    v.set(
        "tuner.add_sample_ns",
        stats::ns_per_call(20_000, |i| {
            repo.add_sample(id, sample(config.clone(), i as f64))
        }),
    );
    // The mirror's fits run between the timed calls, not inside them; what
    // is left is their effect on the caches the tuner's own fit uses.
    let rec_s = |rs: &[Rep]| -> f64 {
        let per_rep: Vec<Vec<f64>> = rs.iter().map(|r| r.rec_ms.clone()).collect();
        stats::noise_floor(&per_rep).iter().sum::<f64>() / 1e3
    };
    v.set("trace_overhead_frac", rec_s(&reps) / rec_s(untraced) - 1.0);
    println!(
        "# traced reps {} recommend_s {:.3} (untraced {:.3})",
        reps.len(),
        rec_s(&reps),
        rec_s(untraced)
    );

    rec.save(args, checks);
}
