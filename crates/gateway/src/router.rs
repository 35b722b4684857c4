//! Request router: decoded wire requests → control-plane actions.
//!
//! This is where the service boundary meets the reproduction's existing
//! control plane: registration provisions through
//! [`ServiceOrchestrator`], metrics windows run the TDE entropy
//! filtration ([`EntropyFilter`]) before anything reaches the
//! [`ConfigDirector`], and every admitted request is billed to its tenant
//! through [`RecommendationMeter`]. The router is deliberately *pure with
//! respect to time*: `now_ms` is always a parameter, so the whole routing
//! layer replays deterministically under test while the server shell owns
//! the single wall-clock read.

use crate::admission::{Admission, AdmissionConfig, AdmissionControl};
use crate::proto::{ErrorCode, Request, Response, WireDecision, N_CLASSES};
use autodbaas_core::{ClassHistogram, EntropyFilter, FilterDecision, QueryClass};
use autodbaas_ctrlplane::{
    ConfigDirector, RecommendationMeter, ServiceId, ServiceOrchestrator, ServiceSpec, TunerKind,
};
use autodbaas_simdb::{Catalog, DbFlavor, DiskKind, InstanceType};
use autodbaas_telemetry::{EventLog, P2Quantile};
use std::collections::BTreeMap;

/// Access-log key of requests that carry no tenant id (RegisterService,
/// Health, Stats) and the token bucket all registrations share.
pub const ANON_TENANT: u64 = u64::MAX;

/// Dimensionality of synthesized unit-config vectors.
const REC_DIM: usize = 8;

/// Tuning parameters of the routing layer.
#[derive(Debug, Clone)]
pub struct RouterConfig {
    /// Admission policy shared by all tenants.
    pub admission: AdmissionConfig,
    /// Tuner fleet the embedded director load-balances across.
    pub tuners: Vec<TunerKind>,
    /// Modelled GPR busy-time per BO recommendation, ms (the paper's
    /// ~110 s on m4.xlarge).
    pub bo_service_time_ms: f64,
}

impl Default for RouterConfig {
    fn default() -> Self {
        Self {
            admission: AdmissionConfig::default(),
            tuners: vec![TunerKind::Bo; 4],
            bo_service_time_ms: 110_000.0,
        }
    }
}

/// Per-tenant routing state.
#[derive(Debug)]
struct TenantState {
    service: ServiceId,
    filter: EntropyFilter,
    /// Recommendations synthesized for this tenant so far (seeds the
    /// deterministic unit-config generator).
    recs: u64,
    /// Seed captured at registration; differentiates tenants' configs.
    seed: u64,
}

/// Everything the worker pool shares, guarded by one mutex in the server.
#[derive(Debug)]
pub struct GatewayState {
    cfg: RouterConfig,
    orchestrator: ServiceOrchestrator,
    director: ConfigDirector,
    meter: RecommendationMeter,
    admission: AdmissionControl,
    tenants: BTreeMap<u64, TenantState>,
    /// Access log: one event per admitted request, plus shed/error marks.
    pub access_log: EventLog,
    /// Request latency quantiles, µs (fed by the server shell).
    p50_us: P2Quantile,
    p99_us: P2Quantile,
    served: u64,
    busy: u64,
    errors: u64,
    /// Set by the server when shutdown begins; Health replies flip to
    /// `draining` so load balancers stop sending new work.
    pub draining: bool,
}

impl GatewayState {
    /// Fresh state with `cfg`.
    pub fn new(cfg: RouterConfig) -> Self {
        // The wire format and the TDE must agree on the class table; this
        // is a compile-time-constant comparison, not a runtime hazard.
        debug_assert_eq!(N_CLASSES, QueryClass::ALL.len());
        let tuners = if cfg.tuners.is_empty() {
            vec![TunerKind::Bo]
        } else {
            cfg.tuners.clone()
        };
        Self {
            admission: AdmissionControl::new(cfg.admission),
            orchestrator: ServiceOrchestrator::new(),
            director: ConfigDirector::new(&tuners),
            meter: RecommendationMeter::default(),
            tenants: BTreeMap::new(),
            access_log: EventLog::new(),
            p50_us: P2Quantile::new(0.5),
            p99_us: P2Quantile::new(0.99),
            served: 0,
            busy: 0,
            errors: 0,
            draining: false,
            cfg,
        }
    }

    /// The per-tenant meter (request/byte counters + recommendation cost).
    pub fn meter(&self) -> &RecommendationMeter {
        &self.meter
    }

    /// The embedded config director.
    pub fn director(&self) -> &ConfigDirector {
        &self.director
    }

    /// `(served, busy, errors)` so far.
    pub fn counters(&self) -> (u64, u64, u64) {
        (self.served, self.busy, self.errors)
    }

    /// Admission check for a request at `now_ms`. `Busy` outcomes are
    /// billed to the tenant and counted here. `Health` and `Stats` charge
    /// no bucket: they are O(1) reads already bounded by the connection
    /// queues, and a registration burst must not blind a load balancer to
    /// `draining`.
    pub fn admit(&mut self, req: &Request, now_ms: u64) -> Admission {
        if matches!(req, Request::Health | Request::Stats) {
            return Admission::Admit;
        }
        let key = req.tenant().unwrap_or(ANON_TENANT);
        let verdict = self.admission.check(key, now_ms);
        if let Admission::Busy { .. } = verdict {
            self.busy += 1;
            self.access_log.emit(now_ms, "gw.busy", key);
            if req.tenant().is_some() {
                self.meter.record_gateway_busy(ServiceId(key));
            }
        }
        verdict
    }

    /// Count one undecodable/failed request (the server replies `Error`).
    pub fn record_error(&mut self, now_ms: u64) {
        self.errors += 1;
        self.access_log.emit(now_ms, "gw.error", ANON_TENANT);
    }

    /// Feed one served request's latency into the stats quantiles.
    pub fn observe_latency_us(&mut self, us: u64) {
        self.p50_us.observe(us as f64);
        self.p99_us.observe(us as f64);
    }

    /// Bill an admitted request's wire bytes to its tenant.
    pub fn meter_bytes(&mut self, req: &Request, bytes_in: u64, bytes_out: u64) {
        if let Some(t) = req.tenant() {
            if self.tenants.contains_key(&t) {
                self.meter.record_gateway(ServiceId(t), bytes_in, bytes_out);
            }
        }
    }

    /// Route one admitted request. Infallible by construction: every
    /// failure path is a typed `Error` *response*, so a worker thread can
    /// never be killed by request content.
    pub fn route(&mut self, req: &Request, now_ms: u64) -> Response {
        self.served += 1;
        self.access_log
            .emit(now_ms, req.kind(), req.tenant().unwrap_or(ANON_TENANT));
        match req {
            Request::RegisterService {
                flavor,
                instance,
                disk,
                n_slaves,
                seed,
            } => self.register(*flavor, *instance, *disk, *n_slaves, *seed),
            Request::PushMetricsWindow {
                tenant,
                window_start,
                class_counts,
                throttled,
                knob_at_cap,
                ..
            } => self.push_metrics(
                *tenant,
                *window_start,
                class_counts,
                *throttled,
                *knob_at_cap,
            ),
            Request::ThrottleSignal {
                tenant,
                at,
                knob_class,
                service_time_ms,
            } => self.throttle(*tenant, *at, *knob_class, *service_time_ms),
            Request::FetchRecommendation { tenant, now } => self.fetch(*tenant, *now),
            Request::ApplyAck { tenant, at, ok } => self.apply_ack(*tenant, *at, *ok),
            Request::Health => Response::Healthy {
                draining: self.draining,
            },
            Request::Stats => Response::StatsReply {
                served: self.served,
                busy: self.busy,
                errors: self.errors,
                active_tenants: self.tenants.len() as u64,
                p50_us: self.p50_us.estimate().max(0.0) as u64,
                p99_us: self.p99_us.estimate().max(0.0) as u64,
            },
        }
    }

    fn register(
        &mut self,
        flavor: u8,
        instance: u8,
        disk: u8,
        n_slaves: u8,
        seed: u64,
    ) -> Response {
        let Some(flavor) = decode_flavor(flavor) else {
            return bad_request("flavor code not in 0..=1");
        };
        let Some(instance) = decode_instance(instance) else {
            return bad_request("instance code not in 0..=5");
        };
        let Some(disk) = decode_disk(disk) else {
            return bad_request("disk code not in 0..=1");
        };
        let spec = ServiceSpec {
            flavor,
            instance,
            disk,
            // Small synthetic dataset: the gateway provisions the managed
            // service's control record; tenants run the actual database.
            catalog: Catalog::synthetic(4, 50_000_000, 150, 1),
            n_slaves: n_slaves as usize,
            seed,
        };
        let (service, _rs) = self.orchestrator.provision(spec);
        self.tenants.insert(
            service.0,
            TenantState {
                service,
                filter: EntropyFilter::default(),
                recs: 0,
                seed,
            },
        );
        Response::Registered { tenant: service.0 }
    }

    fn push_metrics(
        &mut self,
        tenant: u64,
        window_start: u64,
        class_counts: &[u64; N_CLASSES],
        throttled: bool,
        knob_at_cap: bool,
    ) -> Response {
        let Some(state) = self.tenants.get_mut(&tenant) else {
            return unknown_tenant(tenant);
        };
        let hist = ClassHistogram::from_counts(class_counts);
        let decision = state.filter.observe(throttled, knob_at_cap, &hist);
        // Only a throttled window that survives filtration becomes a
        // tuning request — this is the §3.1 suppression that lets one
        // tuner deployment serve hundreds of tenants.
        let submitted = throttled && decision == FilterDecision::Forward;
        let mut ready_at = 0;
        if submitted {
            ready_at = self.submit_recommendation(tenant, window_start);
        }
        Response::Classified {
            decision: match decision {
                FilterDecision::Forward => WireDecision::Forward,
                FilterDecision::Suppress => WireDecision::Suppress,
                FilterDecision::PlanUpgrade => WireDecision::PlanUpgrade,
                FilterDecision::Hold => WireDecision::Hold,
            },
            submitted,
            ready_at,
        }
    }

    fn throttle(&mut self, tenant: u64, at: u64, knob_class: u8, service_time_ms: u32) -> Response {
        if knob_class > 2 {
            return bad_request("knob class code not in 0..=2");
        }
        if !self.tenants.contains_key(&tenant) {
            return unknown_tenant(tenant);
        }
        let service = ServiceId(tenant);
        let service_time = if service_time_ms == 0 {
            self.cfg.bo_service_time_ms
        } else {
            service_time_ms as f64
        };
        let assignment = self.director.submit_request(service, at, service_time);
        self.meter.record(service, service_time);
        let config = self.synthesize_config(tenant);
        self.director
            .record_recommendation(service, assignment.ready_at, config);
        Response::ThrottleQueued {
            tuner: assignment.tuner as u32,
            ready_at: assignment.ready_at,
        }
    }

    fn fetch(&mut self, tenant: u64, now: u64) -> Response {
        let Some(state) = self.tenants.get(&tenant) else {
            return unknown_tenant(tenant);
        };
        let history = self.director.recommendation_history(state.service);
        match history.iter().rev().find(|(at, _)| *at <= now) {
            Some((at, config)) => Response::Recommendation {
                ready: true,
                at: *at,
                unit_config: config.clone(),
            },
            None => Response::Recommendation {
                ready: false,
                at: 0,
                unit_config: Vec::new(),
            },
        }
    }

    fn apply_ack(&mut self, tenant: u64, at: u64, ok: bool) -> Response {
        if !self.tenants.contains_key(&tenant) {
            return unknown_tenant(tenant);
        }
        self.access_log.emit(
            at,
            if ok { "gw.applied" } else { "gw.apply_failed" },
            tenant,
        );
        Response::ApplyRecorded
    }

    /// Submit a tuning request for `tenant` and synthesize the modelled
    /// tuner's output into the config repository. Returns `ready_at`.
    fn submit_recommendation(&mut self, tenant: u64, now: u64) -> u64 {
        let service = self
            .tenants
            .get(&tenant)
            .map_or(ServiceId(tenant), |s| s.service);
        let service_time = self.cfg.bo_service_time_ms;
        let assignment = self.director.submit_request(service, now, service_time);
        self.meter.record(service, service_time);
        let config = self.synthesize_config(tenant);
        self.director
            .record_recommendation(service, assignment.ready_at, config);
        assignment.ready_at
    }

    /// Deterministic stand-in for a tuner's output: an FNV-mixed unit
    /// vector keyed by (tenant seed, recommendation ordinal), so reruns
    /// produce identical configs without any RNG.
    fn synthesize_config(&mut self, tenant: u64) -> Vec<f64> {
        let (seed, ordinal) = match self.tenants.get_mut(&tenant) {
            Some(s) => {
                s.recs += 1;
                (s.seed, s.recs)
            }
            None => (tenant, 0),
        };
        let mut h: u64 = 0xcbf29ce484222325 ^ seed.wrapping_mul(0x9e3779b97f4a7c15);
        h ^= ordinal;
        (0..REC_DIM)
            .map(|i| {
                h ^= (i as u64).wrapping_add(0x632be59bd9b4e019);
                h = h.wrapping_mul(0x100000001b3);
                // Map the high 53 bits into [0, 1).
                (h >> 11) as f64 / (1u64 << 53) as f64
            })
            .collect()
    }
}

fn bad_request(detail: &str) -> Response {
    Response::Error {
        code: ErrorCode::BadRequest,
        detail: detail.to_string(),
    }
}

fn unknown_tenant(tenant: u64) -> Response {
    Response::Error {
        code: ErrorCode::UnknownTenant,
        detail: format!("tenant {tenant} is not registered"),
    }
}

fn decode_flavor(code: u8) -> Option<DbFlavor> {
    match code {
        0 => Some(DbFlavor::Postgres),
        1 => Some(DbFlavor::MySql),
        _ => None,
    }
}

fn decode_instance(code: u8) -> Option<InstanceType> {
    match code {
        0 => Some(InstanceType::T2Small),
        1 => Some(InstanceType::T2Medium),
        2 => Some(InstanceType::T2Large),
        3 => Some(InstanceType::M4Large),
        4 => Some(InstanceType::M4XLarge),
        5 => Some(InstanceType::T3XLarge),
        _ => None,
    }
}

fn decode_disk(code: u8) -> Option<DiskKind> {
    match code {
        0 => Some(DiskKind::Ssd),
        1 => Some(DiskKind::Hdd),
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_state() -> GatewayState {
        GatewayState::new(RouterConfig {
            tuners: vec![TunerKind::Bo, TunerKind::Bo],
            bo_service_time_ms: 10_000.0,
            ..RouterConfig::default()
        })
    }

    fn register(state: &mut GatewayState) -> u64 {
        let resp = state.route(
            &Request::RegisterService {
                flavor: 0,
                instance: 3,
                disk: 0,
                n_slaves: 1,
                seed: 11,
            },
            0,
        );
        match resp {
            Response::Registered { tenant } => tenant,
            other => panic!("expected Registered, got {other:?}"),
        }
    }

    fn window(tenant: u64, at: u64, throttled: bool, at_cap: bool) -> Request {
        Request::PushMetricsWindow {
            tenant,
            window_start: at,
            window_ms: 60_000,
            // Heavily concentrated on the WorkMem class.
            class_counts: [500, 1, 1, 4, 2, 30],
            throttled,
            knob_at_cap: at_cap,
        }
    }

    #[test]
    fn register_then_metrics_then_fetch_then_ack() {
        let mut state = small_state();
        let tenant = register(&mut state);

        // First throttled window: under the consecutive threshold, the
        // throttle is forwarded and a tuning request submitted.
        let resp = state.route(&window(tenant, 60_000, true, false), 1);
        let Response::Classified {
            decision,
            submitted,
            ready_at,
        } = resp
        else {
            panic!("expected Classified, got {resp:?}");
        };
        assert_eq!(decision, WireDecision::Forward);
        assert!(submitted);
        assert_eq!(ready_at, 60_000 + 10_000);
        assert_eq!(state.director().total_requests(), 1);
        assert_eq!(state.meter().usage(ServiceId(tenant)).recommendations, 1);

        // Fetch before ready: nothing; at ready_at: the config.
        let early = state.route(
            &Request::FetchRecommendation {
                tenant,
                now: 65_000,
            },
            2,
        );
        assert_eq!(
            early,
            Response::Recommendation {
                ready: false,
                at: 0,
                unit_config: vec![]
            }
        );
        let resp = state.route(
            &Request::FetchRecommendation {
                tenant,
                now: ready_at,
            },
            3,
        );
        let Response::Recommendation {
            ready,
            at,
            unit_config,
        } = resp
        else {
            panic!("expected Recommendation");
        };
        assert!(ready);
        assert_eq!(at, ready_at);
        assert_eq!(unit_config.len(), 8);
        assert!(unit_config.iter().all(|v| (0.0..1.0).contains(v)));

        let resp = state.route(
            &Request::ApplyAck {
                tenant,
                at: ready_at + 1,
                ok: true,
            },
            4,
        );
        assert_eq!(resp, Response::ApplyRecorded);
        assert_eq!(state.access_log.count("gw.applied"), 1);
    }

    #[test]
    fn sustained_cap_limited_throttles_are_suppressed() {
        let mut state = small_state();
        let tenant = register(&mut state);
        let mut submitted_total = 0u32;
        let mut suppressed = 0u32;
        // 27 consecutive throttled windows with the knob at cap and a
        // concentrated class table: after each 8-run the filter suppresses.
        for i in 0..27u64 {
            match state.route(&window(tenant, 60_000 * (i + 1), true, true), i) {
                Response::Classified {
                    decision,
                    submitted,
                    ..
                } => {
                    submitted_total += u32::from(submitted);
                    if decision == WireDecision::Suppress {
                        suppressed += 1;
                    }
                }
                other => panic!("expected Classified, got {other:?}"),
            }
        }
        assert!(suppressed >= 3, "every 9th window suppresses: {suppressed}");
        assert_eq!(
            state.director().total_requests() as u32,
            submitted_total,
            "suppressed windows must not reach the director"
        );
        assert!(
            (submitted_total as usize) < 27,
            "TDE must shed some requests"
        );
    }

    #[test]
    fn unknown_tenant_and_bad_codes_are_typed_errors() {
        let mut state = small_state();
        let resp = state.route(&window(99, 0, true, false), 0);
        assert!(
            matches!(
                resp,
                Response::Error {
                    code: ErrorCode::UnknownTenant,
                    ..
                }
            ),
            "got {resp:?}"
        );
        let resp = state.route(
            &Request::RegisterService {
                flavor: 9,
                instance: 0,
                disk: 0,
                n_slaves: 0,
                seed: 0,
            },
            0,
        );
        assert!(matches!(
            resp,
            Response::Error {
                code: ErrorCode::BadRequest,
                ..
            }
        ));
        let tenant = register(&mut state);
        let resp = state.route(
            &Request::ThrottleSignal {
                tenant,
                at: 0,
                knob_class: 7,
                service_time_ms: 0,
            },
            0,
        );
        assert!(matches!(
            resp,
            Response::Error {
                code: ErrorCode::BadRequest,
                ..
            }
        ));
    }

    #[test]
    fn explicit_throttle_queues_and_bills() {
        let mut state = small_state();
        let tenant = register(&mut state);
        let resp = state.route(
            &Request::ThrottleSignal {
                tenant,
                at: 1_000,
                knob_class: 0,
                service_time_ms: 0,
            },
            5,
        );
        let Response::ThrottleQueued { ready_at, .. } = resp else {
            panic!("expected ThrottleQueued, got {resp:?}");
        };
        assert_eq!(ready_at, 11_000, "default BO service time applies");
        let usage = state.meter().usage(ServiceId(tenant));
        assert_eq!(usage.recommendations, 1);
        assert!(usage.tuner_busy_ms > 0.0);
    }

    #[test]
    fn admission_bills_busy_to_the_tenant() {
        let mut state = GatewayState::new(RouterConfig {
            admission: AdmissionConfig {
                burst: 2.0,
                rate_per_sec: 1.0,
            },
            ..RouterConfig::default()
        });
        let tenant = register(&mut state);
        let req = window(tenant, 0, false, false);
        assert_eq!(state.admit(&req, 0), Admission::Admit);
        assert_eq!(state.admit(&req, 0), Admission::Admit);
        assert!(matches!(state.admit(&req, 0), Admission::Busy { .. }));
        assert_eq!(state.meter().usage(ServiceId(tenant)).gateway_busy, 1);
        assert_eq!(state.counters().1, 1);
        assert_eq!(state.access_log.count("gw.busy"), 1);
    }

    #[test]
    fn monitoring_is_not_shed_by_a_registration_burst() {
        let mut state = GatewayState::new(RouterConfig {
            admission: AdmissionConfig {
                burst: 3.0,
                rate_per_sec: 1.0,
            },
            ..RouterConfig::default()
        });
        let registration = Request::RegisterService {
            flavor: 0,
            instance: 3,
            disk: 0,
            n_slaves: 1,
            seed: 11,
        };
        // As the server does: admit, and route what was admitted.
        let mut sent = 0u64;
        let mut call = |state: &mut GatewayState, req: &Request| {
            sent += 1;
            match state.admit(req, 7) {
                Admission::Admit => Some(state.route(req, 7)),
                Admission::Busy { .. } => None,
            }
        };
        for _ in 0..3 {
            let reply = call(&mut state, &registration);
            assert!(matches!(reply, Some(Response::Registered { .. })));
        }
        assert_eq!(call(&mut state, &registration), None, "bucket is empty");
        for _ in 0..10 {
            assert_eq!(
                call(&mut state, &Request::Health),
                Some(Response::Healthy { draining: false })
            );
            let stats = call(&mut state, &Request::Stats);
            assert!(matches!(stats, Some(Response::StatsReply { .. })));
        }
        assert_eq!(
            call(&mut state, &registration),
            None,
            "probes neither drew on the anonymous bucket nor refilled it"
        );
        let (served, busy, errors) = state.counters();
        assert_eq!((served + busy, errors), (sent, 0));
        assert_eq!((served, busy), (23, 2));
    }

    #[test]
    fn stats_and_health_reflect_state() {
        let mut state = small_state();
        let t = register(&mut state);
        state.observe_latency_us(100);
        state.meter_bytes(&window(t, 0, false, false), 70, 11);
        let resp = state.route(&Request::Stats, 9);
        let Response::StatsReply {
            served,
            active_tenants,
            ..
        } = resp
        else {
            panic!("expected StatsReply");
        };
        assert_eq!(served, 2, "register + stats");
        assert_eq!(active_tenants, 1);
        let u = state.meter().usage(ServiceId(t));
        assert_eq!((u.gateway_bytes_in, u.gateway_bytes_out), (70, 11));

        assert_eq!(
            state.route(&Request::Health, 10),
            Response::Healthy { draining: false }
        );
        state.draining = true;
        assert_eq!(
            state.route(&Request::Health, 11),
            Response::Healthy { draining: true }
        );
    }

    #[test]
    fn synthesized_configs_are_deterministic_and_distinct() {
        let mut a = small_state();
        let mut b = small_state();
        let ta = register(&mut a);
        let tb = register(&mut b);
        assert_eq!(ta, tb);
        let ca = a.synthesize_config(ta);
        let cb = b.synthesize_config(tb);
        assert_eq!(ca, cb, "same seed + ordinal → same config");
        let ca2 = a.synthesize_config(ta);
        assert_ne!(ca, ca2, "next ordinal → different config");
    }
}
