//! # AutoDBaaS
//!
//! A from-scratch Rust reproduction of *"AutoDBaaS: Autonomous Database as
//! a Service for managing backing services"* (EDBT 2021): a tuning-service
//! architecture for PaaS providers whose central piece, the **Throttling
//! Detection Engine (TDE)**, turns periodic ML-tuner polling into
//! event-driven tuning requests raised only when a database's knobs are
//! demonstrably insufficient for its live SQL workload.
//!
//! This facade crate re-exports the whole workspace:
//!
//! * [`simdb`] — the simulated relational DBMS substrate (knobs, buffer
//!   pool, planner with spills, background writer/checkpointer, disk
//!   model, metrics, apply semantics), whose engines summarise each TDE
//!   window as its queries run: per-class counts and a uniform sample;
//! * [`workload`] — TPCC/YCSB/Wikipedia/Twitter/TPCH/CH-bench generators,
//!   the adulterated TPCC of §3.1, and the synthetic 33-day production
//!   trace of §5;
//! * [`tuner`] — OtterTune-style GP/BO and CDBTune-style actor–critic RL
//!   tuners with the shared workload repository;
//! * [`core`](tde) — the TDE: the class histogram over those windows,
//!   the memory/bgwriter/MDP detectors, and entropy filtration;
//! * [`ctrlplane`] — config director, service orchestrator, the DFA,
//!   reconciler, and maintenance-window logic;
//! * [`cloudsim`] — the fleet simulator reproducing the §5 topology.
//!
//! ## Quickstart
//!
//! ```
//! use autodbaas::prelude::*;
//!
//! // A PostgreSQL-flavored instance serving a TPCC-like dataset.
//! let wl = autodbaas::workload::tpcc(1.0);
//! let mut db = SimDatabase::new(
//!     DbFlavor::Postgres,
//!     InstanceType::M4Large,
//!     DiskKind::Ssd,
//!     wl.catalog().clone(),
//!     42,
//! );
//! // The TDE plugin watching it.
//! let mut tde = Tde::new(&db.profile().clone(), TdeConfig::default(), 7);
//!
//! // Drive some traffic, then ask the TDE whether tuning is needed.
//! let mut rng = rand::rngs::StdRng::seed_from_u64(1);
//! for _ in 0..50 {
//!     let q = wl.next_query(&mut rng);
//!     let _ = db.submit(&q, 10);
//!     db.tick(1_000);
//! }
//! let report = tde.run(&mut db, None);
//! println!("throttles: {}", report.throttles.len());
//! ```

pub use autodbaas_cloudsim as cloudsim;
pub use autodbaas_core as tde;
pub use autodbaas_ctrlplane as ctrlplane;
pub use autodbaas_simdb as simdb;
pub use autodbaas_telemetry as telemetry;
pub use autodbaas_tuner as tuner;
pub use autodbaas_workload as workload;

/// The most common imports for application code.
pub mod prelude {
    pub use autodbaas_cloudsim::{FleetConfig, FleetSim, ManagedDatabase};
    pub use autodbaas_core::{
        Tde, TdeConfig, TdeReport, ThrottleReason, ThrottleSignal, TuningPolicy,
    };
    pub use autodbaas_ctrlplane::{ConfigDirector, ReplicaSet, ServiceOrchestrator, TunerKind};
    pub use autodbaas_simdb::{
        ApplyMode, Backend, BackendKind, Catalog, ConfigChange, DbFlavor, DiskKind, InstanceType,
        KnobClass, KnobProfile, QueryKind, QueryProfile, SimDatabase, SubmitResult,
    };
    pub use autodbaas_tuner::{BoConfig, BoTuner, RlConfig, RlTuner, WorkloadRepository};
    pub use autodbaas_workload::{
        production, tpcc, twitter, wikipedia, ycsb, AdulteratedWorkload, ArrivalProcess,
        MixWorkload, QuerySource,
    };
    pub use rand::SeedableRng;
}
