//! End-to-end gateway smoke test over a real loopback socket.
//!
//! A miniature of what `autodbaas-loadgen` does at scale: start the
//! gateway in-process, drive the full tenant lifecycle (register → push
//! metrics windows → fetch a recommendation → ack) from several
//! concurrent connections, and check the three edge behaviours the
//! service boundary exists for — TDE suppression of unthrottled windows,
//! token-bucket `Busy` shedding for an over-quota tenant, and graceful
//! drain.

use autodbaas_gateway::{
    frame, serve, AdmissionConfig, Decoded, GatewayClient, GatewayState, Request, Response,
    RouterConfig, ServerConfig, WallClock, WireDecision,
};
use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::Arc;
use std::time::Duration;

fn start(admission: AdmissionConfig, workers: usize) -> autodbaas_gateway::GatewayHandle {
    let state = GatewayState::new(RouterConfig {
        admission,
        ..RouterConfig::default()
    });
    serve(
        "127.0.0.1:0",
        state,
        ServerConfig {
            workers,
            ..ServerConfig::default()
        },
        Arc::new(WallClock::new()),
    )
    .expect("bind loopback")
}

fn connect(handle: &autodbaas_gateway::GatewayHandle) -> GatewayClient {
    let mut c = GatewayClient::connect(handle.addr()).expect("connect");
    c.set_timeout(Duration::from_secs(10)).expect("timeout");
    c
}

fn register(client: &mut GatewayClient, seed: u64) -> u64 {
    match client.call(&Request::RegisterService {
        flavor: 0,
        instance: 4, // M4XLarge
        disk: 0,
        n_slaves: 1,
        seed,
    }) {
        Ok(Response::Registered { tenant }) => tenant,
        other => panic!("register failed: {other:?}"),
    }
}

#[test]
fn full_tenant_lifecycle_across_concurrent_connections() {
    let handle = start(AdmissionConfig::default(), 4);
    let addr_handle = &handle;

    std::thread::scope(|s| {
        for worker in 0..4u64 {
            s.spawn(move || {
                let mut client = connect(addr_handle);
                let tenant = register(&mut client, 1000 + worker);

                // Throttled windows with a spiky class mix: the TDE must
                // forward the first and eventually a recommendation lands.
                let mut forwarded = 0u32;
                for w in 0..6u64 {
                    let at = w * 3_600_000;
                    match client
                        .call(&Request::PushMetricsWindow {
                            tenant,
                            window_start: at,
                            window_ms: 3_600_000,
                            class_counts: [900 + w * 50, 40, 10, 5, 1, 0],
                            throttled: true,
                            knob_at_cap: false,
                        })
                        .expect("push window")
                    {
                        Response::Classified {
                            decision,
                            submitted,
                            ..
                        } => {
                            if submitted {
                                forwarded += 1;
                                assert_eq!(decision, WireDecision::Forward);
                            }
                        }
                        other => panic!("expected Classified, got {other:?}"),
                    }
                }
                assert!(forwarded >= 1, "no throttled window was ever forwarded");

                // An unthrottled window must never submit a tuning request.
                match client
                    .call(&Request::PushMetricsWindow {
                        tenant,
                        window_start: 7 * 3_600_000,
                        window_ms: 3_600_000,
                        class_counts: [800, 50, 10, 5, 1, 0],
                        throttled: false,
                        knob_at_cap: false,
                    })
                    .expect("push calm window")
                {
                    Response::Classified { submitted, .. } => {
                        assert!(!submitted, "unthrottled window reached the tuner fleet");
                    }
                    other => panic!("expected Classified, got {other:?}"),
                }

                // Far enough in the future, the recommendation is ready.
                match client
                    .call(&Request::FetchRecommendation {
                        tenant,
                        now: u64::MAX,
                    })
                    .expect("fetch")
                {
                    Response::Recommendation {
                        ready, unit_config, ..
                    } => {
                        assert!(ready, "forwarded request produced no recommendation");
                        assert!(!unit_config.is_empty());
                        assert!(unit_config.iter().all(|v| (0.0..1.0).contains(v)));
                    }
                    other => panic!("expected Recommendation, got {other:?}"),
                }

                match client
                    .call(&Request::ApplyAck {
                        tenant,
                        at: 8 * 3_600_000,
                        ok: true,
                    })
                    .expect("ack")
                {
                    Response::ApplyRecorded => {}
                    other => panic!("expected ApplyRecorded, got {other:?}"),
                }
            });
        }
    });

    let state = handle.shutdown();
    let s = state.lock();
    let (served, _busy, errors) = s.counters();
    assert!(served >= 4 * 9, "served only {served} requests");
    assert_eq!(errors, 0, "protocol errors on a clean run");
    let (greq, _gbusy, gin, gout) = s.meter().gateway_totals();
    assert!(greq >= 4 * 8, "tenant-billed requests missing: {greq}");
    assert!(gin > 0 && gout > 0, "byte counters did not accumulate");
}

#[test]
fn over_quota_tenant_is_shed_with_busy() {
    // 2 tokens of burst refilled at 1/s: the third rapid-fire request of
    // any tenant must get `Busy` with a retry hint, and the gateway must
    // keep serving other tenants.
    let handle = start(
        AdmissionConfig {
            burst: 2.0,
            rate_per_sec: 1.0,
        },
        2,
    );
    let mut greedy = connect(&handle);
    let tenant = register(&mut greedy, 7);

    let mut busy_seen = 0u32;
    for _ in 0..8 {
        match greedy
            .call(&Request::FetchRecommendation { tenant, now: 0 })
            .expect("call")
        {
            Response::Busy { retry_after_ms } => {
                assert!(retry_after_ms > 0, "Busy must carry a retry hint");
                busy_seen += 1;
            }
            Response::Recommendation { .. } => {}
            other => panic!("unexpected reply: {other:?}"),
        }
    }
    assert!(
        busy_seen >= 5,
        "bucket of 2 should shed most of 8 rapid calls"
    );

    // A different tenant's bucket is untouched.
    let mut polite = connect(&handle);
    let other = register(&mut polite, 8);
    match polite
        .call(&Request::FetchRecommendation {
            tenant: other,
            now: 0,
        })
        .expect("call")
    {
        Response::Recommendation { .. } => {}
        other => panic!("politeness not rewarded: {other:?}"),
    }

    let state = handle.shutdown();
    let s = state.lock();
    let (_, busy, _) = s.counters();
    assert!(
        u64::from(busy_seen) <= busy,
        "router busy counter undercounts"
    );
    let (_, gbusy, _, _) = s.meter().gateway_totals();
    assert!(
        gbusy >= u64::from(busy_seen),
        "Busy replies were not billed"
    );
}

#[test]
fn pipelined_frames_are_answered_in_order() {
    // 64 frames handed to the kernel in one `write_all`: however TCP cuts
    // them into reads, the gateway answers each batch with one write, and
    // the replies must come back one per request, in request order.
    let handle = start(AdmissionConfig::default(), 2);
    let mut control = connect(&handle);
    let tenants = [register(&mut control, 21), register(&mut control, 22)];

    let requests: Vec<Request> = (0..64u64)
        .map(|i| {
            let tenant = tenants[(i % 2) as usize];
            let at = i * 3_600_000;
            match i % 8 {
                0..=2 => Request::PushMetricsWindow {
                    tenant,
                    window_start: at,
                    window_ms: 3_600_000,
                    class_counts: [900 + i, 40, 10, 5, 1, 0],
                    throttled: i % 3 == 0,
                    knob_at_cap: false,
                },
                3 => Request::FetchRecommendation { tenant, now: at },
                4 => Request::ThrottleSignal {
                    tenant,
                    at,
                    knob_class: (i % 3) as u8,
                    service_time_ms: 0,
                },
                5 => Request::ApplyAck {
                    tenant,
                    at,
                    ok: true,
                },
                6 => Request::Health,
                _ => Request::Stats,
            }
        })
        .collect();
    let bytes: Vec<u8> = requests
        .iter()
        .flat_map(|r| frame::encode(&r.encode()).expect("a request fits a frame"))
        .collect();

    let mut raw = TcpStream::connect(handle.addr()).expect("connect");
    raw.set_read_timeout(Some(Duration::from_secs(10)))
        .expect("timeout");
    raw.write_all(&bytes).expect("one write of 64 frames");

    let mut buf = Vec::new();
    let mut chunk = [0u8; 4096];
    let mut replies = Vec::new();
    while replies.len() < requests.len() {
        match frame::decode(&buf).expect("the gateway sends valid frames") {
            Decoded::Frame { payload, consumed } => {
                buf.drain(..consumed);
                replies.push(Response::decode(&payload).expect("a reply that decodes"));
            }
            Decoded::NeedMore(_) => {
                let n = raw.read(&mut chunk).expect("replies before the timeout");
                assert!(n > 0, "closed after {} of 64 replies", replies.len());
                buf.extend_from_slice(&chunk[..n]);
            }
        }
    }
    assert!(buf.is_empty(), "bytes beyond the 64th reply");
    for (i, (req, resp)) in requests.iter().zip(&replies).enumerate() {
        let right_kind = matches!(
            (req, resp),
            (
                Request::PushMetricsWindow { .. },
                Response::Classified { .. }
            ) | (
                Request::FetchRecommendation { .. },
                Response::Recommendation { .. }
            ) | (
                Request::ThrottleSignal { .. },
                Response::ThrottleQueued { .. }
            ) | (Request::ApplyAck { .. }, Response::ApplyRecorded)
                | (Request::Health, Response::Healthy { draining: false })
                | (Request::Stats, Response::StatsReply { .. })
        );
        assert!(right_kind, "request {i} {req:?} was answered {resp:?}");
    }
    // Each Stats reply counts what was served before it, itself included:
    // the batch was routed in order, not merely answered in order.
    let served_seen: Vec<u64> = replies
        .iter()
        .filter_map(|r| match r {
            Response::StatsReply { served, .. } => Some(*served),
            _ => None,
        })
        .collect();
    assert_eq!(
        served_seen,
        (0..8).map(|k| 2 + 8 * (k + 1)).collect::<Vec<u64>>()
    );

    // Conservation through the front door: 2 registrations, the 64, and
    // the Stats that asks.
    match control.call(&Request::Stats).expect("stats") {
        Response::StatsReply {
            served,
            busy,
            errors,
            active_tenants,
            ..
        } => {
            assert_eq!((served + busy, errors), (2 + 64 + 1, 0));
            assert_eq!(active_tenants, 2);
        }
        other => panic!("expected StatsReply, got {other:?}"),
    }
    drop((control, raw));
    handle.shutdown();
}

#[test]
fn drain_finishes_in_flight_work_then_refuses() {
    let handle = start(AdmissionConfig::default(), 2);
    let addr = handle.addr();
    let mut client = connect(&handle);
    assert_eq!(
        client.call(&Request::Health).expect("health"),
        Response::Healthy { draining: false }
    );
    let state = handle.shutdown();
    assert!(state.lock().draining, "drain flag not set");
    // Post-drain connections either fail to connect or get no service.
    if let Ok(mut late) = GatewayClient::connect(addr) {
        let _ = late.set_timeout(Duration::from_millis(500));
        assert!(
            late.call(&Request::Health).is_err(),
            "gateway served a request after drain"
        );
    }
}
