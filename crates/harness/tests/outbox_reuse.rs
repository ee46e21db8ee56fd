//! Outbox-reuse regression: one pooled [`Outbox`] per node driven across
//! thousands of engine calls in simnet's Byzantine storm scenario must
//! reach a capacity *plateau* — no unbounded buffer growth under spam —
//! and must never leak outputs from one call into the next.

use std::sync::{Arc, Mutex};

use ssbyz_core::{Engine, Msg, Outbox, Params};
use ssbyz_harness::{u64_corruptor, u64_injector, EngineProcess, NodeEvent};
use ssbyz_simnet::{Ctx, DriftClock, LinkConfig, Process, SimBuilder, StormConfig};
use ssbyz_types::{Duration, NodeId, RealTime};

/// Wraps an [`EngineProcess`] and snapshots its outbox capacities after
/// every handler invocation, so the plateau can be checked post-run.
struct OutboxSpy {
    inner: EngineProcess<u64>,
    log: Arc<Mutex<Vec<[usize; 8]>>>,
}

impl OutboxSpy {
    fn record(&self) {
        self.log
            .lock()
            .unwrap()
            .push(self.inner.outbox().capacities());
    }
}

impl Process<Msg<u64>, NodeEvent<u64>> for OutboxSpy {
    fn on_start(&mut self, ctx: &mut Ctx<'_, Msg<u64>, NodeEvent<u64>>) {
        self.inner.on_start(ctx);
    }

    fn on_message(
        &mut self,
        ctx: &mut Ctx<'_, Msg<u64>, NodeEvent<u64>>,
        from: NodeId,
        msg: &Msg<u64>,
    ) {
        self.inner.on_message(ctx, from, msg);
        self.record();
    }

    fn on_timer(&mut self, ctx: &mut Ctx<'_, Msg<u64>, NodeEvent<u64>>, token: u64) {
        self.inner.on_timer(ctx, token);
        self.record();
    }
}

/// A Byzantine storm over 4 engine nodes: spurious protocol messages
/// with forged identities injected at high rate, duplication, corruption
/// and arbitrary delays — thousands of engine calls through each node's
/// single pooled outbox. Every per-node capacity trace must plateau:
/// the capacities reached by mid-run are never exceeded afterwards.
#[test]
fn outbox_capacity_plateaus_under_byzantine_storm() {
    let params = Params::from_d(4, 1, Duration::from_millis(10), 0).unwrap();
    let storm_end = RealTime::from_nanos(1_500_000_000); // 1.5s of storm
    let storm = StormConfig {
        until: storm_end,
        drop_num: 1,
        drop_den: 8,
        corrupt_num: 1,
        corrupt_den: 8,
        dup_num: 1,
        dup_den: 4,
        max_delay: Duration::from_millis(15),
        injection_period: Some(Duration::from_micros(200)),
    };
    let logs: Vec<Arc<Mutex<Vec<[usize; 8]>>>> =
        (0..4).map(|_| Arc::new(Mutex::new(Vec::new()))).collect();
    let mut b = SimBuilder::new(0xB17A)
        .link(LinkConfig::uniform(
            Duration::from_micros(100),
            Duration::from_millis(2),
        ))
        .storm(storm)
        .corruptor(u64_corruptor(4))
        .injector(u64_injector(8));
    for (i, log) in logs.iter().enumerate() {
        let engine: Engine<u64> = Engine::new(NodeId::new(i as u32), params);
        let mut proc = EngineProcess::new(engine, params.d());
        if i == 0 {
            proc = proc.with_initiation(params.d() * 4u64, 42);
        }
        b = b.node(
            Box::new(OutboxSpy {
                inner: proc,
                log: Arc::clone(log),
            }),
            DriftClock::ideal(),
        );
    }
    let mut sim = b.build();
    // Storm phase plus a calm tail with a real agreement in it.
    sim.run_until(storm_end + Duration::from_millis(500));

    for (i, log) in logs.iter().enumerate() {
        let trace = log.lock().unwrap();
        assert!(
            trace.len() > 2_000,
            "node {i}: expected thousands of engine calls, got {}",
            trace.len()
        );
        // Capacity plateau: each buffer may grow a handful of times ever
        // (geometric `Vec` doubling until the workload's high-water mark)
        // — growth events must not scale with the thousands of calls.
        let mut growth_events = [0usize; 8];
        let mut prev = trace[0];
        for caps in &trace[1..] {
            for (k, (g, c)) in growth_events.iter_mut().zip(caps).enumerate() {
                if *c > prev[k] {
                    *g += 1;
                }
            }
            prev = *caps;
        }
        assert!(
            growth_events.iter().all(|&g| g <= 12),
            "node {i}: buffers kept growing instead of plateauing: {growth_events:?} growth events over {} calls",
            trace.len()
        );
        // And the plateau itself is modest: a 4-node protocol emits a
        // handful of outputs per call, not hundreds.
        let last = trace.last().unwrap();
        assert!(
            last.iter().all(|&c| c <= 256),
            "node {i}: implausibly large outbox buffers {last:?}"
        );
    }
}

/// No stale outputs: a call that produces nothing leaves the outbox
/// empty even if the previous call filled it (simnet-shaped Byzantine
/// duplicate storm driven directly through one engine + one outbox).
#[test]
fn no_stale_outputs_leak_between_calls() {
    let params = Params::from_d(4, 1, Duration::from_millis(10), 0).unwrap();
    let mut engine: Engine<u64> = Engine::new(NodeId::new(1), params);
    let mut ob: Outbox<u64> = Outbox::new();
    let g = NodeId::new(0);
    let mut t = 1_000_000_000_000u64;
    let mut saw_nonempty = false;
    // The same initiation replayed over and over: the first delivery
    // emits a support, every replay is suppressed and must read empty.
    for i in 0..5_000u64 {
        t += 5_000;
        let msg = Msg::Initiator {
            general: g,
            value: std::sync::Arc::new(3),
        };
        engine.on_message_ref(ssbyz_types::LocalTime::from_nanos(t), g, &msg, &mut ob);
        if i == 0 {
            assert!(!ob.is_empty(), "first delivery emits the support");
            saw_nonempty = true;
        } else if !ob.is_empty() {
            // Occasional legitimate resends re-emit (after the resend
            // gap and the re-invocation guards decay); what matters is
            // that duplicates *between* them are empty, which the
            // assertion below pins via the common case.
            saw_nonempty = true;
        }
    }
    assert!(saw_nonempty);
    // Final duplicate: definitely suppressed, definitely empty.
    t += 1;
    engine.on_message_ref(
        ssbyz_types::LocalTime::from_nanos(t),
        g,
        &Msg::Initiator {
            general: g,
            value: std::sync::Arc::new(3),
        },
        &mut ob,
    );
    assert!(ob.is_empty(), "stale outputs leaked: {:?}", ob.outputs());
}
