//! AutoDBaaS core: the Throttling Detection Engine (TDE).
//!
//! Reproduction of the central contribution of *"AutoDBaaS: Autonomous
//! Database as a Service for managing backing services"* (EDBT 2021):
//! instead of asking an ML tuner for new knob configurations on a fixed
//! period, a per-database TDE watches the live system and raises *throttle
//! signals* only when the current knobs are demonstrably insufficient for
//! the executing SQL workload. This makes tuning requests event-driven
//! (multiplying tuner-deployment scalability, Fig. 9) and guarantees the
//! tuners only ever train on high-quality samples (protecting their
//! learning models from corruption, Figs. 12–13).
//!
//! Pipeline pieces, each its own module. The paper templates the query
//! log; this TDE samples and re-plans query instances instead, so there is
//! no template store:
//!
//! * [`reservoir`] — Vitter Algorithm R sampling of the stream;
//! * [`mod@classify`] — per-knob query classes and the class histogram;
//! * [`memory`] — plan-based spill detection + working-set gauging;
//! * [`filter`] — the 8-consecutive-throttle entropy filtration separating
//!   mis-tuned knobs from undersized instances;
//! * [`bgwriter`] — checkpoint-cadence/disk-latency ratio vs. the
//!   tuner-mapped baseline;
//! * [`mdp`] — the learning-automata MDP over async/planner knobs;
//! * [`engine`] — the periodic [`Tde`] runner and [`TuningPolicy`];
//! * [`learned`] — the paper's §7 future work: a neural throttle
//!   classifier distilled online from the rule-based TDE.

pub mod bgwriter;
pub mod classify;
pub mod engine;
pub mod filter;
pub mod learned;
pub mod mdp;
pub mod memory;
pub mod reservoir;

pub use bgwriter::{BaselineMemo, BgBaseline, BgwriterDetector};
pub use classify::{classify, ClassHistogram, QueryClass};
pub use engine::{Tde, TdeConfig, TdeReport, ThrottleReason, ThrottleSignal, TuningPolicy};
pub use filter::{EntropyFilter, FilterDecision};
pub use learned::{LearnedDetector, LearnedScores};
pub use mdp::{MdpAction, MdpEngine, MdpOutcome};
pub use memory::{check_working_set, detect_spills, knob_at_cap, SpillFinding, WorkingSetFinding};
pub use reservoir::Reservoir;
