//! `autodbaas-gateway`: the multi-tenant network front door for the
//! AutoDBaaS tuning fleet.
//!
//! The paper's economics (§1, §4) — one tuner deployment serving hundreds
//! of tenant databases because the TDE suppresses unnecessary
//! recommendation requests — only materialise behind a real service
//! boundary. This crate is that boundary: a zero-external-dependency TCP
//! service built on `std::net` exposing the control plane over a
//! versioned, checksummed binary protocol.
//!
//! Layers, bottom up:
//!
//! * [`frame`] — length-prefixed frames (magic + version + checksum, hard
//!   size cap, reject-not-panic on garbage);
//! * [`proto`] — the request/response messages and their total codec;
//! * [`admission`] — per-tenant token buckets answering `Busy` instead of
//!   queueing;
//! * [`router`] — decoded requests → orchestrator / TDE filtration /
//!   config director / per-tenant metering;
//! * [`server`] — acceptor + fixed worker pool with bounded per-worker
//!   queues and graceful drain;
//! * [`client`] — the blocking client the loadgen and tests drive;
//! * [`clock`] — the crate's single wall-clock boundary.
//!
//! Two binaries ship with the crate: `autodbaas-gateway` (the daemon) and
//! `autodbaas-loadgen` (closed-loop pass/fail smoke: a summary on stdout,
//! non-zero exit on a protocol error, a dropped reply or an unshed
//! aggressor).

pub mod admission;
pub mod client;
pub mod clock;
pub mod frame;
pub mod proto;
pub mod router;
pub mod server;

pub use admission::{Admission, AdmissionConfig, AdmissionControl};
pub use client::{ClientError, GatewayClient};
pub use clock::{Clock, ManualClock, WallClock};
pub use frame::{Decoded, FrameError, HEADER_LEN, MAX_PAYLOAD, PROTOCOL_VERSION};
pub use proto::{ErrorCode, Request, Response, WireDecision, WireError, N_CLASSES};
pub use router::{GatewayState, RouterConfig, ANON_TENANT};
pub use server::{serve, GatewayHandle, ServerConfig};
