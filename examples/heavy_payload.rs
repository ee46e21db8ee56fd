//! Agreement over a heavyweight blob value on the clone-free path.
//!
//! ```text
//! cargo run --example heavy_payload
//! ```
//!
//! # Walkthrough
//!
//! The protocol is broadcast-dominated: every `msgd` round and every IA
//! echo is a "send to all n". Two mechanisms make that affordable for a
//! large payload — here a 64 KiB blob — without a single deep copy after
//! the proposer's original allocation:
//!
//! 1. **Clone-free emission (`Arc<V>` end to end).** Wire messages embed
//!    `Arc<V>`. The engine interns inbound payloads by content hash, and
//!    on first sight the arena stores a *clone of the `Arc` handle*, not
//!    of the bytes (`ValueInterner::intern_shared`). Every emitted
//!    `Broadcast`/`Event` resolves the interner slot back to a shared
//!    handle (`resolve_shared`) — a reference bump. The proposer's own
//!    `Engine::initiate(value)` moves the value into its `Arc` once.
//!
//! 2. **Shared fan-out in the simulator.** A broadcast wraps its payload
//!    in one `Arc`, and every copy in flight holds a reference to it. On
//!    the jittered links below each copy is its own wheel entry with its
//!    own delay; on fixed links the whole broadcast is one entry with a
//!    destination bitmap (`BroadcastDeliver`). Either way a round costs
//!    O(1) payload copies instead of O(n).
//!
//! The blob type below counts its own deep copies; the run asserts the
//! total stays at **zero** across the whole agreement — initiation,
//! support/approve/ready waves, echo rounds, decide relay and the final
//! `Decided` events at all nodes.

use std::sync::atomic::{AtomicU64, Ordering};

use ssbyz::core::{Engine, Event, Params};
use ssbyz::harness::{EngineProcess, NodeEvent, TOKEN_TICK};
use ssbyz::simnet::{DriftClock, LinkConfig, SimBuilder};
use ssbyz::{Duration, NodeId, RealTime};

/// How many times a blob's bytes were actually copied.
static DEEP_COPIES: AtomicU64 = AtomicU64::new(0);

/// A 64 KiB agreement payload whose `Clone` is observable.
#[derive(PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
struct Blob(Vec<u8>);

impl Blob {
    fn new(tag: u8) -> Self {
        Blob(vec![tag; 64 * 1024])
    }
}

impl Clone for Blob {
    fn clone(&self) -> Self {
        DEEP_COPIES.fetch_add(1, Ordering::Relaxed);
        Blob(self.0.clone())
    }
}

fn main() {
    const N: usize = 7;
    const F: usize = 2;
    let params = Params::from_d(N, F, Duration::from_millis(10), 0).expect("n > 3f");
    let tick = params.d();

    // Node 0 proposes the blob shortly after boot; everyone else runs a
    // plain engine. `with_initiation` hands the engine an owned value —
    // the single 64 KiB allocation of the whole run.
    let mut builder = SimBuilder::new(2026)
        .link(LinkConfig::uniform(
            Duration::from_micros(500),
            Duration::from_millis(9),
        ))
        .tagger(ssbyz::core::Msg::tag);
    for i in 0..N {
        let id = NodeId::new(i as u32);
        let mut p = EngineProcess::new(Engine::<Blob>::new(id, params), tick);
        if i == 0 {
            p = p.with_initiation(params.d() * 4u64, Blob::new(0xAB));
        }
        builder = builder.node(Box::new(p), DriftClock::ideal());
    }
    let mut sim = builder.build();
    let _ = TOKEN_TICK; // (tick timers are wired inside EngineProcess)

    sim.run_until(RealTime::ZERO + params.delta_agr() + params.d() * 30u64);

    let mut deciders = Vec::new();
    for obs in sim.observations() {
        if let NodeEvent::Core(Event::Decided { value, general, .. }) = &obs.event {
            assert_eq!(*general, NodeId::new(0));
            assert_eq!(value.0[0], 0xAB, "everyone decides the proposed blob");
            deciders.push(obs.node);
        }
    }
    assert_eq!(deciders.len(), N, "all {N} nodes decide: {deciders:?}");

    // `with_initiation` keeps one template copy (cloned when the planned
    // initiation fires) — everything after the engine boundary is Arc
    // reference bumps, through every broadcast wave and every decision.
    let copies = DEEP_COPIES.load(Ordering::Relaxed);
    println!("nodes decided:        {}", deciders.len());
    println!("messages sent:        {}", sim.metrics().sent);
    println!("messages delivered:   {}", sim.metrics().delivered);
    println!("blob deep copies:     {copies}");
    assert!(
        copies <= 2,
        "the 64 KiB payload must never be copied per message \
         (got {copies}; the budget covers the planned-initiation template only)"
    );
    println!("\n64 KiB payload agreed by all {N} nodes with {copies} deep copies ✓");
}
