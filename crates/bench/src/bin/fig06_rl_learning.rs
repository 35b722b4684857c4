//! Fig. 6 — "Measuring Reinforcement Learning accuracy on production
//! workload": (a) learning progress of the proposed MDP policy and (b)
//! average accuracy of the learning process.
//!
//! The §3.3 MDP runs episodes of 350–400 steps over the async/planner
//! knobs against reservoir-sampled production queries. Expectation: early
//! episodes show little learning (exploration); episodic reward and
//! accuracy then climb as the automata's action probabilities converge.

use autodbaas_bench::{header, sparkline, Rig};
use autodbaas_core::MdpEngine;
use autodbaas_simdb::{Backend, DbFlavor, InstanceType, QueryProfile};
use autodbaas_telemetry::outln;
use autodbaas_workload::production;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn main() {
    header(
        "Fig. 6",
        "MDP learning progress and accuracy on the production workload",
        "episodic rewards increase over early episodes (exploration -> \
         exploitation); accuracy (profitable-step fraction) climbs as the \
         action probabilities converge",
    );
    let wl = production();
    let mut rig = Rig::new(
        DbFlavor::Postgres,
        InstanceType::M4XLarge,
        wl.catalog().clone(),
        3,
    );
    // Start the planner knobs far from their workload optimum so there is
    // something to learn (stock defaults already sit in a decent region).
    let p = rig.db.profile().clone();
    rig.db
        .set_knob_direct(p.lookup("random_page_cost").unwrap(), 10.0);
    rig.db.set_knob_direct(
        p.lookup("effective_cache_size").unwrap(),
        8.0 * 1024.0 * 1024.0,
    );
    rig.db
        .set_knob_direct(p.lookup("max_parallel_workers_per_gather").unwrap(), 0.0);

    // Warm the instance with production traffic so cost evaluation sees a
    // realistic hit ratio.
    rig.drive(&wl, 800, 120, 16);

    // The engine's episodes are 375 steps, inside the paper's 350–400.
    let mut mdp = MdpEngine::new(&p);
    let mut rng = StdRng::seed_from_u64(17);
    let mut knobs = rig.db.knobs().clone();

    // The RL engine "captures all the queries in a time frame" — sample a
    // pool of production queries (reads matter for planner estimates).
    let mut wl_rng = StdRng::seed_from_u64(4);
    let mut sampled: Vec<QueryProfile> = Vec::new();
    while sampled.len() < 12 {
        let q = wl.next_query(&mut wl_rng);
        if q.rows_examined > 1_000 {
            sampled.push(q);
        }
    }

    let episodes = 12;
    let steps_per_episode = 375;
    let knob_count = mdp.knob_count().max(1);
    let steps_needed = episodes * steps_per_episode / knob_count + 1;
    for _ in 0..steps_needed {
        let outcomes = mdp.step(&rig.db, &mut knobs, &sampled, &mut rng);
        for o in &outcomes {
            if knobs.get(o.knob) != rig.db.knobs().get(o.knob) {
                rig.db.set_knob_direct(o.knob, knobs.get(o.knob));
            }
        }
    }

    let rewards = mdp.episode_rewards();
    let accuracy = mdp.episode_accuracy();
    outln!("\n(a) episodic reward over {} episodes:", rewards.len());
    sparkline("episodic reward", rewards);
    outln!("\n(b) accuracy (non-detrimental-step fraction):");
    sparkline("accuracy", accuracy);

    let early: f64 = rewards.iter().take(3).sum::<f64>() / 3.0;
    let late: f64 = rewards.iter().rev().take(3).sum::<f64>() / 3.0;
    outln!("\nmean episodic reward: first 3 episodes = {early:.3}, last 3 = {late:.3}");
    let cum: Vec<f64> = rewards
        .iter()
        .scan(0.0, |acc, r| {
            *acc += r;
            Some(*acc)
        })
        .collect();
    sparkline("cumulative reward", &cum);
    outln!(
        "\nfinal knob values: random_page_cost = {:.2}, workers = {:.0}",
        rig.db.knobs().get(p.lookup("random_page_cost").unwrap()),
        rig.db
            .knobs()
            .get(p.lookup("max_parallel_workers_per_gather").unwrap()),
    );
    assert!(
        late > early,
        "episodic reward must improve as the automata learn (early {early:.3}, late {late:.3})"
    );
    outln!("result: episodic reward rises as the automata converge — shape reproduced.");
}
