//! Monitoring substrate for AutoDBaaS.
//!
//! The paper observes live databases through an external monitoring agent
//! (Dynatrace in the authors' deployment). This crate is the stand-in: a
//! small, allocation-conscious toolkit of time series, summary statistics,
//! peak detection, the normalized-entropy measure from §3.1 (Eqs. 1–2), and
//! the handful of synthetic distributions the workload generators need.
//!
//! Everything here is deterministic given an explicit seed; no wall-clock
//! reads occur anywhere in the simulation stack.

pub mod dist;
pub mod entropy;
pub mod events;
pub mod quantile;
pub mod stats;
pub mod timeseries;

pub use entropy::{normalized_entropy, shannon_entropy};
pub use events::{intern_kind, Event, EventLog, Fingerprint};
pub use quantile::P2Quantile;
pub use stats::{mean, percentile, stddev};
pub use timeseries::{PeakDetector, Sample, TimeSeries};

/// Print a line to stdout, tolerating a closed pipe.
///
/// Every workspace binary reports through stdout; piping one into `head`
/// closes the pipe early and a bare `println!` would panic on the next
/// write. CLIs communicate failure through exit codes, not print success,
/// so the write error is deliberately dropped.
#[macro_export]
macro_rules! outln {
    ($($arg:tt)*) => {{
        use ::std::io::Write as _;
        let _ = ::std::writeln!(::std::io::stdout(), $($arg)*);
    }};
}

/// Print to stdout without a newline, tolerating a closed pipe.
/// See [`outln!`].
#[macro_export]
macro_rules! out {
    ($($arg:tt)*) => {{
        use ::std::io::Write as _;
        let _ = ::std::write!(::std::io::stdout(), $($arg)*);
    }};
}

/// Simulation time, in whole milliseconds since the start of the scenario.
///
/// All simulators in the workspace share this unit so series from different
/// components can be merged without conversion.
pub type SimTime = u64;

/// Milliseconds per second, to keep unit conversions greppable.
pub const MILLIS_PER_SEC: u64 = 1_000;
/// Milliseconds per minute.
pub const MILLIS_PER_MIN: u64 = 60 * MILLIS_PER_SEC;
/// Milliseconds per hour.
pub const MILLIS_PER_HOUR: u64 = 60 * MILLIS_PER_MIN;
/// Milliseconds per day.
pub const MILLIS_PER_DAY: u64 = 24 * MILLIS_PER_HOUR;
