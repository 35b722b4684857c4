//! OnlineTune-style safe online tuning (tentpole, ROADMAP item 5): a
//! learned safe region constrains every tuner candidate before it reaches
//! the apply path, and a baseline-relative regret ledger prices what the
//! tuner's exploration cost each tenant.
//!
//! The governor sits between the tuner backend and [`crate::FleetSim`]'s
//! vetted apply: candidates outside the tenant's current safe region are
//! clamped to its surface (counted, metered, and logged as
//! `"safe.clamped"`), the region expands while observation windows stay
//! above the tenant's SLO floor and contracts multiplicatively on a
//! breach, and every window accrues `max(0, baseline − objective)` into
//! the cumulative-regret account the fig. 18 harness reports. Everything
//! here is deterministic and RNG-free, and the whole governor round-trips
//! through the snapshot subsystem, so a checkpointed 33-day run resumes
//! with its safe regions and regret accounts intact.

use autodbaas_snapshot::snap_struct;

/// EWMA weight for the rolling baseline objective.
const BASELINE_ALPHA: f64 = 0.2;

/// Safe-tuning knobs.
#[derive(Debug, Clone, Copy)]
pub struct SafetyConfig {
    /// Initial half-width of the safe hyper-cube around the boot config,
    /// in unit-cube coordinates.
    pub initial_radius: f64,
    /// Fraction of the remaining headroom the radius gains after each
    /// clean (non-breach) observation window.
    pub expand_step: f64,
    /// Multiplicative radius contraction on an SLO breach.
    pub shrink_factor: f64,
    /// Smallest radius a breach can leave behind — the region never
    /// collapses to a point, so tuning can resume after recovery.
    pub min_radius: f64,
    /// Largest radius expansion can reach. The trust region stays bounded
    /// forever; long-run coverage of the knob space comes from the center
    /// *migrating* toward configs that survive their windows, not from
    /// the region swallowing the whole cube — so one bad candidate can
    /// never be worse than `max_radius` away from a proven-good config.
    pub max_radius: f64,
    /// SLO floor as a fraction of the rolling baseline: a window whose
    /// objective drops below `baseline × slo_floor_frac` is a breach.
    pub slo_floor_frac: f64,
    /// Windows observed before the baseline is trusted enough to charge
    /// regret or call breaches (the fleet boots untuned and cold).
    pub warmup_windows: u64,
}

impl Default for SafetyConfig {
    fn default() -> Self {
        Self {
            initial_radius: 0.15,
            expand_step: 0.01,
            shrink_factor: 0.5,
            min_radius: 0.02,
            max_radius: 0.3,
            slo_floor_frac: 0.7,
            warmup_windows: 5,
        }
    }
}

snap_struct!(SafetyConfig {
    initial_radius,
    expand_step,
    shrink_factor,
    min_radius,
    max_radius,
    slo_floor_frac,
    warmup_windows
});

/// A per-tenant safe hyper-cube in unit-knob space.
#[derive(Debug, Clone)]
pub struct SafeRegion {
    /// Region center — starts at the boot config, drifts toward configs
    /// that survived their observation windows.
    pub center: Vec<f64>,
    /// Half-width of the cube on every dimension.
    pub radius: f64,
}

impl SafeRegion {
    /// A fresh region around `center`.
    pub fn new(center: Vec<f64>, radius: f64) -> Self {
        Self { center, radius }
    }

    /// Clamp `unit` into the region, coordinate by coordinate. Returns
    /// `true` when any coordinate had to move.
    pub fn constrain(&self, unit: &mut [f64]) -> bool {
        let mut clamped = false;
        for (u, &c) in unit.iter_mut().zip(&self.center) {
            let lo = (c - self.radius).max(0.0);
            let hi = (c + self.radius).min(1.0);
            let v = u.clamp(lo, hi);
            if (v - *u).abs() > f64::EPSILON {
                clamped = true;
            }
            *u = v;
        }
        clamped
    }

    /// A clean window on `applied`: grow the radius by `expand_step` of
    /// the remaining headroom (never past `max_radius`) and drift the
    /// center halfway toward the applied config — the OnlineTune region
    /// walk. The bounded radius plus the migrating center is what lets
    /// the region eventually reach anywhere in the cube while keeping
    /// every single step's blast radius capped.
    pub fn expand_toward(&mut self, applied: &[f64], expand_step: f64, max_radius: f64) {
        self.radius = (self.radius + expand_step * (1.0 - self.radius)).min(max_radius);
        for (c, &a) in self.center.iter_mut().zip(applied) {
            *c += 0.5 * (a - *c);
        }
    }

    /// An SLO breach: contract multiplicatively, never below `min_radius`.
    pub fn shrink(&mut self, shrink_factor: f64, min_radius: f64) {
        self.radius = (self.radius * shrink_factor).max(min_radius);
    }
}

snap_struct!(SafeRegion { center, radius });

/// Baseline-relative regret accounting for one tenant.
#[derive(Debug, Clone, Copy, Default)]
pub struct RegretLedger {
    /// Rolling EWMA of the window objective (queries/second).
    pub baseline: f64,
    /// `Σ max(0, baseline − objective) × window_s` over all charged
    /// windows — throughput the tenant lost to exploration, in queries.
    pub cumulative_regret: f64,
    /// Observation windows folded in.
    pub windows: u64,
    /// Windows that breached the SLO floor.
    pub violations: u64,
    /// Deepest single-window shortfall seen after warmup, as a fraction
    /// of the then-current baseline (`1 - objective/baseline`, floored at
    /// zero) — where the SLO floor would have had to sit to catch it.
    pub worst_shortfall: f64,
}

snap_struct!(RegretLedger {
    baseline,
    cumulative_regret,
    windows,
    violations,
    worst_shortfall
});

/// One window's verdict from [`SafetyGovernor::observe_window`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WindowVerdict {
    /// The window fell below the SLO floor.
    pub breach: bool,
    /// Regret charged for this window (queries).
    pub regret: f64,
}

/// Per-tenant safety state: the region plus the ledger plus the last
/// config the governor let through.
#[derive(Debug, Clone)]
struct TenantSafety {
    region: SafeRegion,
    ledger: RegretLedger,
    /// Last constrained candidate that went to the apply path; a clean
    /// window expands the region toward it.
    last_applied: Option<Vec<f64>>,
}

snap_struct!(TenantSafety {
    region,
    ledger,
    last_applied
});

/// The fleet's safe-tuning layer: one region + ledger per tenant.
///
/// # Examples
///
/// ```
/// use autodbaas_cloudsim::safety::{SafetyConfig, SafetyGovernor};
///
/// let mut gov = SafetyGovernor::new(SafetyConfig::default());
/// gov.push_node(vec![0.5, 0.5]);
/// let mut candidate = vec![0.95, 0.5]; // far outside the initial region
/// assert!(gov.constrain(0, &mut candidate));
/// assert!(candidate[0] <= 0.5 + gov.config().initial_radius + 1e-12);
/// ```
#[derive(Debug, Clone)]
pub struct SafetyGovernor {
    cfg: SafetyConfig,
    tenants: Vec<TenantSafety>,
}

snap_struct!(SafetyGovernor { cfg, tenants });

impl SafetyGovernor {
    /// A governor with no tenants yet.
    pub fn new(cfg: SafetyConfig) -> Self {
        Self {
            cfg,
            tenants: Vec::new(),
        }
    }

    /// The governor's configuration.
    pub fn config(&self) -> &SafetyConfig {
        &self.cfg
    }

    /// Register one more tenant whose boot config (unit-cube coordinates)
    /// seeds its safe region.
    pub fn push_node(&mut self, boot_unit: Vec<f64>) {
        self.tenants.push(TenantSafety {
            region: SafeRegion::new(boot_unit, self.cfg.initial_radius),
            ledger: RegretLedger::default(),
            last_applied: None,
        });
    }

    /// Tenants registered.
    pub fn len(&self) -> usize {
        self.tenants.len()
    }

    /// No tenants registered yet.
    pub fn is_empty(&self) -> bool {
        self.tenants.is_empty()
    }

    /// Constrain a tuner candidate for tenant `idx` into its safe region.
    /// Returns `true` when the candidate had to be clamped.
    pub fn constrain(&mut self, idx: usize, unit: &mut [f64]) -> bool {
        let t = &mut self.tenants[idx];
        let clamped = t.region.constrain(unit);
        t.last_applied = Some(unit.to_vec());
        clamped
    }

    /// Fold one closed observation window into tenant `idx`'s ledger and
    /// region. `window_s` converts the throughput gap into lost queries.
    pub fn observe_window(&mut self, idx: usize, objective: f64, window_s: f64) -> WindowVerdict {
        let cfg = self.cfg;
        let t = &mut self.tenants[idx];
        let led = &mut t.ledger;
        led.windows += 1;
        let warm = led.windows > cfg.warmup_windows;
        let mut verdict = WindowVerdict {
            breach: false,
            regret: 0.0,
        };
        if warm {
            if objective < led.baseline * cfg.slo_floor_frac {
                verdict.breach = true;
                led.violations += 1;
                t.region.shrink(cfg.shrink_factor, cfg.min_radius);
            }
            let gap = (led.baseline - objective).max(0.0) * window_s;
            verdict.regret = gap;
            led.cumulative_regret += gap;
            if led.baseline > 0.0 {
                led.worst_shortfall = led.worst_shortfall.max(1.0 - objective / led.baseline);
            }
        }
        if !verdict.breach {
            if let Some(applied) = t.last_applied.take() {
                t.region
                    .expand_toward(&applied, cfg.expand_step, cfg.max_radius);
            }
        }
        // EWMA after judging, so a window is scored against the past, not
        // against itself.
        led.baseline = if led.windows == 1 {
            objective
        } else {
            (1.0 - BASELINE_ALPHA) * led.baseline + BASELINE_ALPHA * objective
        };
        verdict
    }

    /// Tenant `idx`'s ledger.
    pub fn ledger(&self, idx: usize) -> RegretLedger {
        self.tenants[idx].ledger
    }

    /// Tenant `idx`'s current safe region.
    pub fn region(&self, idx: usize) -> &SafeRegion {
        &self.tenants[idx].region
    }

    /// Fleet-wide cumulative regret (queries lost to exploration).
    pub fn cumulative_regret(&self) -> f64 {
        self.tenants
            .iter()
            .map(|t| t.ledger.cumulative_regret)
            .sum()
    }

    /// Fleet-wide SLO-floor breach count.
    pub fn total_violations(&self) -> u64 {
        self.tenants.iter().map(|t| t.ledger.violations).sum()
    }

    /// Deepest post-warmup window shortfall across the fleet (fraction of
    /// baseline) — the calibration headroom between the worst window the
    /// fleet produced and the configured SLO floor.
    pub fn worst_shortfall(&self) -> f64 {
        self.tenants
            .iter()
            .map(|t| t.ledger.worst_shortfall)
            .fold(0.0, f64::max)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constrain_clamps_into_the_cube_and_counts() {
        let mut gov = SafetyGovernor::new(SafetyConfig::default());
        gov.push_node(vec![0.5; 3]);
        let mut unit = vec![0.95, 0.5, 0.1];
        assert!(gov.constrain(0, &mut unit));
        for v in &unit {
            assert!((*v - 0.5).abs() <= gov.config().initial_radius + 1e-12);
        }
        // Inside the region: untouched, not counted as a clamp.
        let mut inside = vec![0.55, 0.5, 0.45];
        assert!(!gov.constrain(0, &mut inside));
        assert_eq!(inside, vec![0.55, 0.5, 0.45]);
    }

    #[test]
    fn clean_windows_expand_breaches_shrink() {
        let cfg = SafetyConfig {
            warmup_windows: 1,
            ..SafetyConfig::default()
        };
        let mut gov = SafetyGovernor::new(cfg);
        gov.push_node(vec![0.5; 2]);
        let r0 = gov.region(0).radius;
        let mut unit = vec![0.9, 0.1];
        gov.constrain(0, &mut unit);
        // Warmup window then a clean one: region grows.
        gov.observe_window(0, 100.0, 60.0);
        gov.constrain(0, &mut unit.clone());
        gov.observe_window(0, 100.0, 60.0);
        assert!(gov.region(0).radius > r0);
        // A deep breach: region contracts and the violation is booked.
        let grown = gov.region(0).radius;
        let v = gov.observe_window(0, 1.0, 60.0);
        assert!(v.breach);
        assert!(gov.region(0).radius < grown);
        assert_eq!(gov.total_violations(), 1);
        assert!(gov.cumulative_regret() > 0.0);
    }

    #[test]
    fn warmup_windows_never_breach_or_charge() {
        let mut gov = SafetyGovernor::new(SafetyConfig::default());
        gov.push_node(vec![0.5; 2]);
        for _ in 0..5 {
            let v = gov.observe_window(0, 0.0, 60.0);
            assert!(!v.breach);
            assert_eq!(v.regret, 0.0);
        }
        assert_eq!(gov.cumulative_regret(), 0.0);
        assert_eq!(gov.total_violations(), 0);
    }

    #[test]
    fn governor_round_trips_through_snap() {
        let mut gov = SafetyGovernor::new(SafetyConfig::default());
        gov.push_node(vec![0.3, 0.7]);
        gov.push_node(vec![0.5, 0.5]);
        let mut unit = vec![0.99, 0.01];
        gov.constrain(0, &mut unit);
        for w in 0..8 {
            gov.observe_window(0, if w == 6 { 1.0 } else { 90.0 }, 60.0);
            gov.observe_window(1, 50.0, 60.0);
        }
        let bytes = autodbaas_snapshot::encode_to_vec(&gov);
        let back: SafetyGovernor = autodbaas_snapshot::decode_from_slice(&bytes).unwrap();
        assert_eq!(back.len(), 2);
        assert_eq!(back.cumulative_regret(), gov.cumulative_regret());
        assert_eq!(back.total_violations(), gov.total_violations());
        assert_eq!(back.region(0).center, gov.region(0).center);
        assert_eq!(back.region(0).radius, gov.region(0).radius);
    }
}
