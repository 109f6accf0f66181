//! Criterion micro-benchmarks over the integer-time engine's hot paths.
//!
//! Where `micro.rs` times the *algorithmic* building blocks (Dijkstra,
//! tree construction, detour computation), these benches time the
//! *engine*: raw timer-wheel schedule/cancel/pop churn (the soft-state
//! refresh pattern — every timer is re-armed or cancelled, none expires
//! in place), a message-level join handshake, and the full Figure 1
//! recovery experiment under both timer backends. The wheel-vs-heap pair
//! is the trajectory number: identical semantics (see the
//! backend-equivalence tests), different dispatch cost.

use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;

use smrp_core::SmrpConfig;
use smrp_net::{FailureScenario, Graph, NodeId};
use smrp_proto::{FailureSpec, ProtoSession, RecoveryStrategy, Router, RouterConfig, TreeProtocol};
use smrp_sim::{NetSim, SimTime, TimerBackend, TimerWheel};

/// Soft-state churn: schedule a working set of timers, then repeatedly
/// cancel-and-re-arm the whole set one interval later — the SMRP
/// refresh/hello/RTO pattern where timers almost never fire in place.
fn bench_wheel_churn(c: &mut Criterion) {
    const LIVE: usize = 1024;
    const ROUNDS: usize = 16;
    c.bench_function("wheel/rearm_1k_timers_16_rounds", |b| {
        b.iter(|| {
            let mut wheel: TimerWheel<u32> = TimerWheel::new();
            let mut seq = 0u64;
            let mut now = SimTime::ZERO;
            let mut handles: Vec<_> = (0..LIVE)
                .map(|i| {
                    seq += 1;
                    wheel.schedule(
                        now + SimTime::from_ms(10.0 + i as f64 * 0.01),
                        seq,
                        i as u32,
                    )
                })
                .collect();
            for _ in 0..ROUNDS {
                now += SimTime::from_ms(1.0);
                for (i, h) in handles.iter_mut().enumerate() {
                    assert!(wheel.cancel(*h), "live handle cancels");
                    seq += 1;
                    *h = wheel.schedule(
                        now + SimTime::from_ms(10.0 + i as f64 * 0.01),
                        seq,
                        i as u32,
                    );
                }
            }
            black_box(wheel.len())
        })
    });
    c.bench_function("wheel/drain_1k_timers", |b| {
        b.iter(|| {
            let mut wheel: TimerWheel<u32> = TimerWheel::new();
            for i in 0..LIVE {
                wheel.schedule(SimTime::from_ms(i as f64 * 0.37), i as u64, i as u32);
            }
            let mut popped = 0u32;
            while let Some((_, _, v)) = wheel.pop() {
                popped = popped.wrapping_add(v);
            }
            black_box(popped)
        })
    });
}

/// Message-level join: a member grafts onto a running source through a
/// relay — reliable Setup envelopes, acks, and the periodic chains the
/// handshake arms.
fn bench_protocol_join(c: &mut Criterion) {
    let mut g = Graph::with_nodes(3);
    let ids: Vec<NodeId> = g.node_ids().collect();
    g.add_link(ids[0], ids[1], 1.0).unwrap();
    g.add_link(ids[1], ids[2], 1.0).unwrap();
    c.bench_function("engine/message_level_join_50ms", |b| {
        b.iter(|| {
            let mut routers: Vec<Router> = (0..3)
                .map(|_| Router::new(RouterConfig::default()))
                .collect();
            routers[ids[0].index()].set_source();
            let mut sim = NetSim::new(&g, routers);
            sim.with_node(ids[0], |r, ctx| r.start_timers(ctx));
            sim.with_node(ids[2], |r, ctx| {
                r.initiate_setup(ctx, vec![ids[2], ids[1], ids[0]], true)
            });
            sim.run_until(SimTime::from_ms(50.0));
            black_box(sim.node(ids[2]).deliveries().len())
        })
    });
}

/// The canonical Figure 1 recovery experiment end to end, once per
/// backend: tree build, timer start-up, cut at 100 ms, detection, graft,
/// restoration — ~3 s of simulated soft-state traffic.
fn bench_recovery_run(c: &mut Criterion) {
    let (graph, nodes) = smrp_core::paper::figure1_graph();
    let l_ad = graph.link_between(nodes.a, nodes.d).unwrap();
    let scenario = FailureScenario::link(l_ad);
    for (backend, name) in [
        (TimerBackend::Wheel, "wheel"),
        (TimerBackend::ReferenceHeap, "reference_heap"),
    ] {
        c.bench_function(&format!("engine/figure1_recovery_{name}"), |b| {
            let mut session = ProtoSession::build(
                &graph,
                nodes.s,
                &[nodes.c, nodes.d],
                TreeProtocol::Smrp(SmrpConfig::default()),
            )
            .unwrap();
            session.set_timer_backend(backend);
            let spec = FailureSpec::persistent(
                &scenario,
                RecoveryStrategy::LocalDetour,
                SimTime::from_ms(100.0),
                SimTime::from_ms(3000.0),
            );
            b.iter(|| {
                let report = session.run(&spec);
                assert!(report.all_restored());
                black_box(report.groups[0].restorations.len())
            })
        });
    }
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(20);
    targets = bench_wheel_churn, bench_protocol_join, bench_recovery_run
}
criterion_main!(benches);
