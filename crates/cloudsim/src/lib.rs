//! Discrete-event fleet simulator for the AutoDBaaS reproduction.
//!
//! The paper evaluates on an AWS fleet: 80 live databases across five VM
//! plans, 12 tuner instances, 5 config directors, one shared central data
//! repository (§5). This crate reproduces that topology in simulation:
//!
//! * [`node::ManagedDatabase`] — one replicated service + its TDE plugin +
//!   workload, with the in-flight/retry/rollback control state;
//! * [`sim::FleetSim`] — lockstep fleet advance with an event queue for
//!   recommendation completions, TDE-gated sample capture, both tuner
//!   backends, and the self-healing control plane (failover, crash
//!   recovery, retry/backoff, reconciliation, safe rollback);
//! * [`shard`] — the persistent sharded tick engine every fleet steps on:
//!   long-lived worker shards behind a generation barrier, bit-identical
//!   to the one-shard drive (the plain loop) for any shard count;
//! * [`faults`] — the fault vocabulary of the robustness experiments
//!   (Fig. 16);
//! * [`plan`] — interaction plans, the fleet's one adversarial schedule:
//!   faults, bursts, knob pushes, maintenance, replica churn.

pub mod faults;
pub mod node;
pub mod plan;
pub mod safety;
pub mod shard;
pub mod sim;

pub use faults::FaultKind;
pub use node::{DeferredApply, DriveTick, InFlightRequest, ManagedDatabase, RollbackGuard};
pub use plan::{InteractionPlan, PlanAction, PlanEngine, PlanEvent};
pub use safety::{RegretLedger, SafeRegion, SafetyConfig, SafetyGovernor, WindowVerdict};
pub use shard::{derived_shard_seed, DriveStats, HotState, ShardPool};
pub use sim::{FleetConfig, FleetSim, RollbackPolicy, FRAME_FLEET};
