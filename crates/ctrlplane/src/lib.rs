//! PaaS control plane for the AutoDBaaS reproduction (§2 and §4).
//!
//! The paper's architecture (Fig. 1) splits the service side into a
//! config director, service orchestrator, data federation agent, and
//! recovery machinery. This crate reproduces that control plane as a
//! library:
//!
//! * [`director`] — tuning-request load balancing over tuner instances and
//!   the config data repository (the Fig. 9 measurement point);
//! * [`orchestrator`] — lifecycle, credentials, and the persistence storage
//!   that makes tuned configs survive redeployments;
//! * [`dfa`] — one function translating a normalised recommendation into
//!   knob changes over the flavor's knob profile, applied slave-first;
//! * [`apply`] — the replica-set apply protocol with fault injection;
//! * [`reconciler`] — watcher-timeout reconciliation back to the persisted
//!   config after partial failures;
//! * [`maintenance`] — scheduled windows and the §4 non-tunable
//!   (restart-bound) buffer-knob rule.

pub mod apply;
pub mod dfa;
pub mod director;
pub mod maintenance;
pub mod metering;
pub mod orchestrator;
pub mod reconciler;

pub use apply::{ApplyError, FailoverReport, ReplicaSet};
pub use dfa::{apply_recommendation, DfaError};
pub use director::{Assignment, ConfigDirector, TunerKind, TunerSlot, WindowStat};
pub use maintenance::{plan_buffer_update, MaintenanceSchedule};
pub use metering::{RecommendationMeter, TenantUsage, DEFAULT_TUNER_RATE_PER_HOUR};
pub use orchestrator::{Credentials, ServiceId, ServiceOrchestrator, ServiceSpec};
pub use reconciler::{ReconcileOutcome, Reconciler};
