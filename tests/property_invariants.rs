//! Property-based tests (proptest) over the core invariants of the
//! reproduction, spanning crates.

use autodbaas::ctrlplane::{Reconciler, ServiceSpec};
use autodbaas::prelude::*;
use autodbaas::simdb::{Catalog, QueryKind, QueryWindow};
use autodbaas::tde::{classify, ClassHistogram};
use autodbaas::telemetry::entropy::{normalized_entropy, paper_entropy_score, shannon_entropy};
use autodbaas::telemetry::stats::percentile;
use autodbaas::tuner::{denormalize_config, normalize_config};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

proptest! {
    // ---------------- entropy (Eqs. 1–2) ------------------------------

    #[test]
    fn normalized_entropy_stays_in_unit_interval(counts in prop::collection::vec(0u64..10_000, 2..12)) {
        let eta = normalized_entropy(&counts);
        prop_assert!((0.0..=1.0 + 1e-9).contains(&eta), "η = {eta}");
        let score = paper_entropy_score(&counts);
        prop_assert!((-1e-9..=1.0 + 1e-9).contains(&score));
    }

    #[test]
    fn uniform_counts_maximize_entropy(n in 2usize..10, c in 1u64..1000) {
        let uniform = vec![c; n];
        let eta_uniform = normalized_entropy(&uniform);
        prop_assert!((eta_uniform - 1.0).abs() < 1e-9);
        // Any concentration can only lower it.
        let mut skewed = vec![c; n];
        skewed[0] += 10 * c;
        prop_assert!(normalized_entropy(&skewed) <= eta_uniform + 1e-12);
    }

    #[test]
    fn entropy_is_permutation_invariant(mut counts in prop::collection::vec(0u64..1000, 2..8)) {
        let before = shannon_entropy(&counts);
        counts.reverse();
        prop_assert!((shannon_entropy(&counts) - before).abs() < 1e-9);
    }

    // ---------------- config normalisation ----------------------------

    #[test]
    fn config_roundtrip_is_identity_on_unit_box(unit in prop::collection::vec(0.0f64..=1.0, 15)) {
        let profile = KnobProfile::postgres();
        let raw = denormalize_config(&profile, &unit);
        let back = normalize_config(&profile, &raw);
        for (a, b) in unit.iter().zip(&back) {
            prop_assert!((a - b).abs() < 1e-9, "{a} vs {b}");
        }
    }

    #[test]
    fn knob_set_always_respects_bounds(values in prop::collection::vec(-1e20f64..1e20, 15)) {
        let profile = KnobProfile::postgres();
        let set = autodbaas::simdb::KnobSet::from_vec(&profile, &values);
        for (id, spec) in profile.iter() {
            let v = set.get(id);
            prop_assert!(v >= spec.min && v <= spec.max, "{} = {v}", spec.name);
        }
    }

    #[test]
    fn memory_cap_enforcement_always_lands_under_cap(
        values in prop::collection::vec(0.0f64..=1.0, 15),
        instance_idx in 0usize..6,
    ) {
        let profile = KnobProfile::postgres();
        let raw = denormalize_config(&profile, &values);
        let mut set = autodbaas::simdb::KnobSet::from_vec(&profile, &raw);
        let instance = InstanceType::LADDER[instance_idx];
        autodbaas::simdb::instance::enforce_memory_cap(&profile, &mut set, instance);
        prop_assert!(set.memory_budget_used(&profile) <= instance.db_mem_cap() * 1.0001);
    }

    // ---------------- planner invariants -------------------------------

    #[test]
    fn spill_happens_iff_demand_exceeds_grant(
        sort_mib in 0u64..512,
        work_mem_mib in 1u64..512,
    ) {
        let profile = KnobProfile::postgres();
        let mut knobs = profile.defaults();
        knobs.set_named(&profile, "work_mem", (work_mem_mib * 1024 * 1024) as f64);
        let planner = autodbaas::simdb::Planner::new(profile);
        let mut catalog = Catalog::new();
        catalog.add_table("t", 1_000_000, 150, 1);
        let mut q = QueryProfile::new(QueryKind::OrderBy, 0);
        q.rows_examined = 10_000;
        q.sort_bytes = sort_mib * 1024 * 1024;
        let plan = planner.plan(&q, &knobs, &catalog);
        let should_spill = q.sort_bytes > knobs.get_named(planner.profile(), "work_mem") as u64;
        prop_assert_eq!(plan.spill.is_some(), should_spill);
        if plan.spill.is_some() {
            prop_assert!(plan.spill_bytes > 0);
        }
    }

    #[test]
    fn planner_costs_are_finite_and_positive(
        rows in 1u64..10_000_000,
        rnd in 1.0f64..10.0,
    ) {
        let profile = KnobProfile::postgres();
        let mut knobs = profile.defaults();
        knobs.set_named(&profile, "random_page_cost", rnd);
        let planner = autodbaas::simdb::Planner::new(profile);
        let mut catalog = Catalog::new();
        catalog.add_table("t", 10_000_000, 150, 1);
        let mut q = QueryProfile::new(QueryKind::RangeSelect, 0);
        q.rows_examined = rows;
        let plan = planner.plan(&q, &knobs, &catalog);
        prop_assert!(plan.est_cost.is_finite() && plan.est_cost > 0.0);
        let true_cost = planner.true_cost(&q, &plan, 0.5, &catalog);
        prop_assert!(true_cost.is_finite() && true_cost > 0.0);
    }

    // ---------------- TDE primitives -----------------------------------

    #[test]
    fn reservoir_never_exceeds_capacity_and_counts_stream(
        cap in 1usize..64,
        n in 0usize..500,
        seed in 0u64..1000,
    ) {
        let mut w = QueryWindow::new(cap, seed);
        let mut h = ClassHistogram::new();
        for i in 0..n {
            let q = nth_query(i);
            w.push(&q);
            h.record(&q);
        }
        prop_assert_eq!(w.seen(), n as u64);
        prop_assert_eq!(w.sample().len(), n.min(cap));
        prop_assert_eq!(w.counts().as_slice(), h.counts());
        // Every retained query came from the stream, at most once.
        let mut kept: Vec<u32> = w.sample().iter().map(|q| q.table).collect();
        kept.sort_unstable();
        kept.dedup();
        prop_assert_eq!(kept.len(), w.sample().len());
        for q in w.sample() {
            prop_assert_eq!(q, &nth_query(q.table as usize));
        }
    }

    #[test]
    fn classification_is_total_and_histogram_conserves_counts(
        kinds in prop::collection::vec(0usize..13, 1..200),
    ) {
        let mut h = ClassHistogram::new();
        for &k in &kinds {
            let q = QueryProfile::new(QueryKind::ALL[k], 0);
            let _ = classify(&q); // never panics
            h.record(&q);
        }
        prop_assert_eq!(h.total(), kinds.len() as u64);
    }

    // ---------------- §4 buffer rule ------------------------------------

    #[test]
    fn buffer_update_never_exceeds_upper_limit(
        current in 1e6f64..1e10,
        working_set in 0.0f64..1e11,
        upper in 1e7f64..1e10,
        history in prop::collection::vec(1e6f64..1e10, 0..10),
        hits in 0u32..4,
    ) {
        if let Some(new_value) = autodbaas::ctrlplane::plan_buffer_update(
            current, working_set, upper, &history, hits,
        ) {
            prop_assert!(new_value <= upper * 1.0001, "{new_value} > {upper}");
            prop_assert!(new_value > 0.0);
        }
    }

    // ---------------- §4 reconciler convergence -------------------------

    // For ANY seeded schedule of config faults — direct drift on any node,
    // mid-apply crashes on either side of the slave-first protocol,
    // failovers promoting a drifted replica — the reconciler converges the
    // surviving service back to the persisted config within one watcher
    // timeout of the last fault.
    #[test]
    fn reconciler_converges_after_any_fault_schedule(
        seed in 0u64..500,
        n_faults in 1usize..8,
        n_slaves in 0usize..3,
    ) {
        const TICK: u64 = 5_000;
        const WATCHER: u64 = 30_000;
        let mut orch = ServiceOrchestrator::new();
        let (id, mut rs) = orch.provision(ServiceSpec {
            flavor: DbFlavor::Postgres,
            instance: InstanceType::M4Large,
            disk: DiskKind::Ssd,
            catalog: Catalog::synthetic(3, 100_000_000, 150, 1),
            n_slaves,
            seed,
        });
        let mut rec = Reconciler::new(id, WATCHER);
        let profile = rs.master().profile().clone();
        let wm = profile.lookup("work_mem").unwrap();
        let mut rng = StdRng::seed_from_u64(seed ^ 0xc4a05);
        let mut now = 0u64;
        for _ in 0..n_faults {
            for _ in 0..rng.gen_range(0..4usize) {
                now += TICK;
                rs.tick(TICK);
                let _ = rec.check(&orch, &mut rs, now);
            }
            let value = rng.gen_range(8.0f64..256.0) * 1024.0 * 1024.0;
            match rng.gen_range(0..5u32) {
                0 => rs.master_mut().set_knob_direct(wm, value),
                1 => {
                    // Drift one replica (half-applied recommendation).
                    if rs.n_slaves() > 0 {
                        let i = rng.gen_range(0..rs.n_slaves());
                        rs.slave_mut(i).set_knob_direct(wm, value);
                    } else {
                        rs.master_mut().set_knob_direct(wm, value);
                    }
                }
                2 => {
                    // Master crash mid-apply: slaves take the config, the
                    // master (and persistence) never see it.
                    rs.inject_master_crash();
                    let _ = rs.apply(
                        &[ConfigChange { knob: wm, value }],
                        ApplyMode::Reload,
                    );
                }
                3 => {
                    // Slave crash mid-apply rejects the recommendation,
                    // leaving earlier slaves drifted; with no slave to
                    // crash the apply succeeds and must be persisted.
                    if rs.n_slaves() > 0 {
                        rs.inject_slave_crash(rng.gen_range(0..rs.n_slaves()));
                    }
                    if rs
                        .apply(&[ConfigChange { knob: wm, value }], ApplyMode::Reload)
                        .is_ok()
                    {
                        orch.persist_config(id, rs.master().knobs().clone());
                    }
                }
                _ => {
                    let _ = rs.failover();
                }
            }
        }
        // Quiet tail: one watcher timeout (plus the checks around it)
        // after the last fault.
        for _ in 0..(WATCHER / TICK + 2) {
            now += TICK;
            rs.tick(TICK);
            let _ = rec.check(&orch, &mut rs, now);
        }
        let persisted = orch.persisted_config(id).unwrap().clone();
        for (n, node) in std::iter::once(rs.master())
            .chain(rs.slaves().iter())
            .enumerate()
        {
            for (kid, spec) in profile.iter() {
                if !spec.restart_required {
                    let live = node.knobs().get(kid);
                    prop_assert!(
                        (live - persisted.get(kid)).abs() < 1e-9,
                        "node {n} knob {} live {live} vs persisted {}",
                        spec.name,
                        persisted.get(kid)
                    );
                }
            }
        }
    }

    #[test]
    fn percentile_is_monotone_in_p(
        xs in prop::collection::vec(-1e6f64..1e6, 1..50),
        p1 in 0.0f64..100.0,
        p2 in 0.0f64..100.0,
    ) {
        let (lo, hi) = if p1 <= p2 { (p1, p2) } else { (p2, p1) };
        prop_assert!(percentile(&xs, lo) <= percentile(&xs, hi) + 1e-9);
    }
}

/// A shrunk failure of `buffer_update_never_exceeds_upper_limit` once
/// found by upstream proptest (the shrink branch returned a history value
/// above the cap). The vendored runner replays no regression files, so the
/// case is pinned here.
#[test]
fn buffer_update_shrink_branch_is_capped_at_the_upper_limit() {
    let upper = 10_000_000.0;
    let new_value = autodbaas::ctrlplane::plan_buffer_update(
        9_762_672_968.172_224,
        36_302_263_740.114_61,
        upper,
        &[4_164_288_721.090_000_6],
        1,
    )
    .expect("a working set above the cap with entropy hits plans an update");
    assert!(new_value <= upper * 1.0001, "{new_value} > {upper}");
    assert!(new_value > 0.0);
}

// ---------------- sharded tick engine ---------------------------------

/// One managed database for the fleet-equivalence property below.
fn fleet_node(seed: u64) -> ManagedDatabase {
    let wl = tpcc(0.5);
    let catalog = wl.catalog().clone();
    ManagedDatabase::new(
        DbFlavor::Postgres,
        InstanceType::M4Large,
        DiskKind::Ssd,
        catalog,
        Box::new(wl),
        ArrivalProcess::Constant(300.0),
        TuningPolicy::TdeDriven,
        autodbaas::tuner::WorkloadId(0),
        TdeConfig::default(),
        seed,
    )
}

proptest! {
    // The sharded tick engine must be invisible: for ANY fleet size, ANY
    // shard count (clamping included) and ANY seeded chaos plan, the
    // sharded drive produces the same event-log fingerprint and the same
    // per-node counters as the one-shard drive, bit for bit.
    #[test]
    fn serial_and_sharded_fleets_are_bit_identical(
        n_nodes in 1usize..7,
        shards in 1usize..=16,
        seed in 0u64..500,
        faults in prop::collection::vec(0u64..100_000, 0..6),
    ) {
        use autodbaas::cloudsim::{FaultKind, InteractionPlan, PlanEvent};
        use autodbaas::simdb::MetricId;
        const MIN: u64 = 60_000;
        // Decode each raw draw into (injection slot, node, fault kind) —
        // the vendored proptest has no tuple strategies.
        let plan: Vec<PlanEvent> = faults
            .iter()
            .map(|&raw| PlanEvent::fault(
                10_000 + (raw % 5) * 20_000,
                (raw / 5) as usize % n_nodes,
                match (raw / 320) % 8 {
                    0 => FaultKind::VmCrash,
                    1 => FaultKind::MasterCrashMidApply,
                    2 => FaultKind::SlaveCrashMidApply,
                    3 => FaultKind::TunerOutage { duration_ms: 30_000 },
                    4 => FaultKind::TelemetryDrop { duration_ms: 30_000 },
                    5 => FaultKind::DiskStall { duration_ms: 20_000, factor: 4.0 },
                    6 => FaultKind::ReplicaLagSpike { pause_ms: 10_000 },
                    _ => FaultKind::RequestLoss,
                },
            ))
            .collect();
        let run = |shards: usize| {
            let mut sim = FleetSim::new(
                FleetConfig {
                    gate_samples_with_tde: false,
                    shards,
                    ..FleetConfig::default()
                },
                2,
            );
            for i in 0..n_nodes {
                sim.add_node(fleet_node(seed * 1000 + i as u64), &format!("db-{i}"));
            }
            sim.enable_plan(InteractionPlan::new(plan.clone()));
            sim.run_for(2 * MIN);
            let metrics: Vec<(u64, f64)> = sim
                .nodes
                .iter()
                .map(|n| {
                    (
                        n.queries_submitted,
                        n.db().metrics().get(MetricId::QueriesExecuted),
                    )
                })
                .collect();
            (sim.events.fingerprint(), metrics, sim.drive_stats())
        };
        // One shard is the plain loop on the stepping thread; `shards`
        // forces real worker threads (clamped to the fleet size).
        let serial = run(1);
        let sharded_run = run(shards);
        prop_assert_eq!(serial.0, sharded_run.0, "event fingerprints diverged");
        prop_assert_eq!(serial.1, sharded_run.1, "per-node metrics diverged");
        // Both meter the drive they performed, identically.
        prop_assert_eq!(serial.2, sharded_run.2, "drive totals diverged");
        prop_assert_eq!(sharded_run.2.node_ticks, n_nodes as u64 * 2 * MIN / 1_000);
    }
}

/// Query `i` of a test stream: its position rides in `table`.
fn nth_query(i: usize) -> QueryProfile {
    QueryProfile::new(QueryKind::ALL[i % QueryKind::ALL.len()], i as u32)
}

#[test]
fn reservoir_sampling_is_unbiased_at_scale() {
    // Fixed-seed check that the window's sample keeps every stream position
    // with probability k/n. At k = 16 of n = 256 over 4,000 seeds a
    // position is kept ~250 times with binomial σ ≈ 15.3; the tolerance is
    // ±20 % (±50, over 3σ) for every one of the 256 positions.
    let (k, n, seeds) = (16, 256, 4_000u64);
    let mut hits = vec![0u32; n];
    for seed in 0..seeds {
        let mut w = QueryWindow::new(k, seed);
        for i in 0..n {
            w.push(&nth_query(i));
        }
        for q in w.sample() {
            hits[q.table as usize] += 1;
        }
    }
    let expected = (seeds * k as u64 / n as u64) as f64; // 250
    for (i, &h) in hits.iter().enumerate() {
        assert!(
            (expected * 0.8..=expected * 1.2).contains(&f64::from(h)),
            "position {i} retained {h} times (expected ~{expected})"
        );
    }
}
