//! Allocation-count regression tests for the pooled-outbox dispatch.
//!
//! A counting global allocator wraps `System` and keeps **thread-local**
//! tallies (so parallel test threads cannot pollute each other's
//! measurements). The tests pin the two acceptance properties of the
//! outbox refactor:
//!
//! * the duplicate/suppressed delivery path — the true hot path under
//!   Byzantine spam — performs **zero** heap allocations after warm-up,
//!   including across periodic cleanup cadences and emitting resends;
//! * an accepted broadcast (quorum completion → send + accept actions)
//!   performs a small bounded number of allocations, never growing with
//!   the number of deliveries processed.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::Arc;

use ssbyz_core::{BcastKind, Engine, IaKind, Msg, Outbox, Params};
use ssbyz_types::{Duration, LocalTime, NodeId};

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

struct CountingAlloc;

// SAFETY: delegates every operation to `System`; the thread-local
// counter is a const-initialized `Cell<u64>` (no lazy allocation, no
// destructor), so bumping it from inside the allocator cannot recurse.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.with(|c| c.set(c.get() + 1));
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.with(|c| c.set(c.get() + 1));
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static COUNTER: CountingAlloc = CountingAlloc;

/// Counts heap allocations performed by `f` on this thread.
fn count_allocs<R>(f: impl FnOnce() -> R) -> (u64, R) {
    let before = ALLOCS.with(Cell::get);
    let r = f();
    let after = ALLOCS.with(Cell::get);
    (after - before, r)
}

const D: u64 = 10_000_000; // 10ms

fn params(n: usize, f: usize) -> Params {
    Params::from_d(n, f, Duration::from_nanos(D), 0).unwrap()
}

/// Byzantine spam on the Initiator-Accept path: after warm-up, duplicate
/// support messages for an already-tracked value must not touch the heap
/// — across thousands of deliveries, periodic cleanups included.
#[test]
fn duplicate_ia_spam_is_allocation_free() {
    let p = params(7, 2);
    let mut engine: Engine<u64> = Engine::new(NodeId::new(0), p);
    let mut ob: Outbox<u64> = Outbox::new();
    let mut t = 1_000_000_000_000u64;
    // The spam payload is built once: wire messages reach the engine
    // Arc-shared by the network layer, so constructing one is the
    // sender's cost, never the delivery path's.
    let msg = Msg::Ia {
        kind: IaKind::Support,
        general: NodeId::new(1),
        value: Arc::new(7u64),
    };
    // Warm-up: populate instance state, arrival slots, outbox capacity,
    // and run enough cleanup cadences that the `last(G, m)` guard-history
    // deque reaches its compacted steady-state capacity.
    for i in 0..6_000u64 {
        t += 10_000;
        engine.on_message_ref(
            LocalTime::from_nanos(t),
            NodeId::new((i % 7) as u32),
            &msg,
            &mut ob,
        );
    }
    // Measured window: the identical spam shape, including resends (the
    // quorum window stays satisfied, so the engine keeps emitting an
    // approve once per resend gap) and ~10 cleanup cadences.
    let (allocs, delivered) = count_allocs(|| {
        let mut delivered = 0u64;
        for i in 0..10_000u64 {
            t += 10_000;
            engine.on_message_ref(
                LocalTime::from_nanos(t),
                NodeId::new((i % 7) as u32),
                &msg,
                &mut ob,
            );
            delivered += 1;
        }
        delivered
    });
    assert_eq!(delivered, 10_000);
    assert_eq!(
        allocs, 0,
        "duplicate IA spam must be allocation-free after warm-up"
    );
}

/// The msgd-broadcast echo path under duplicate spam: zero allocations
/// after warm-up (dense triplet slots + pooled outbox).
#[test]
fn duplicate_echo_spam_is_allocation_free() {
    let p = params(7, 2);
    let mut engine: Engine<u64> = Engine::new(NodeId::new(0), p);
    let mut ob: Outbox<u64> = Outbox::new();
    let mut t = 2_000_000_000_000u64;
    let msg = Msg::Bcast {
        kind: BcastKind::Echo,
        general: NodeId::new(1),
        broadcaster: NodeId::new(2),
        value: Arc::new(9u64),
        round: 1,
    };
    for i in 0..1_000u64 {
        t += 10_000;
        engine.on_message_ref(
            LocalTime::from_nanos(t),
            NodeId::new((i % 7) as u32),
            &msg,
            &mut ob,
        );
    }
    let (allocs, _) = count_allocs(|| {
        for i in 0..10_000u64 {
            t += 10_000;
            engine.on_message_ref(
                LocalTime::from_nanos(t),
                NodeId::new((i % 7) as u32),
                &msg,
                &mut ob,
            );
        }
    });
    assert_eq!(
        allocs, 0,
        "duplicate echo spam must be allocation-free after warm-up"
    );
}

/// Out-of-membership and forged traffic — the cheapest reject paths —
/// must also be allocation-free (they are what an adversary can mint at
/// line rate).
#[test]
fn rejected_traffic_is_allocation_free() {
    let p = params(4, 1);
    let mut engine: Engine<u64> = Engine::new(NodeId::new(0), p);
    let mut ob: Outbox<u64> = Outbox::new();
    let mut t = 3_000_000_000_000u64;
    let shapes = [
        // Sender outside the membership.
        (
            NodeId::new(1_000),
            Msg::Ia {
                kind: IaKind::Ready,
                general: NodeId::new(1),
                value: Arc::new(3u64),
            },
        ),
        // Claimed General outside the membership.
        (
            NodeId::new(2),
            Msg::Ia {
                kind: IaKind::Ready,
                general: NodeId::new(99),
                value: Arc::new(3u64),
            },
        ),
        // Forged initiation (sender ≠ claimed General).
        (
            NodeId::new(2),
            Msg::Initiator {
                general: NodeId::new(1),
                value: Arc::new(3u64),
            },
        ),
        // Bogus round.
        (
            NodeId::new(2),
            Msg::Bcast {
                kind: BcastKind::Echo,
                general: NodeId::new(1),
                broadcaster: NodeId::new(3),
                value: Arc::new(3u64),
                round: 0,
            },
        ),
    ];
    // Warm-up (first cleanup stamp).
    for (s, m) in &shapes {
        t += 10_000;
        engine.on_message_ref(LocalTime::from_nanos(t), *s, m, &mut ob);
    }
    let (allocs, _) = count_allocs(|| {
        for _ in 0..2_500u64 {
            for (s, m) in &shapes {
                t += 10_000;
                engine.on_message_ref(LocalTime::from_nanos(t), *s, m, &mut ob);
                assert!(ob.is_empty());
            }
        }
    });
    assert_eq!(allocs, 0, "rejected traffic must be allocation-free");
}

/// First sight of a *new* value — the one delivery shape interning is
/// allowed to charge for — has its own bounded budget: one arena clone
/// plus fresh per-value state, a handful of allocations per value, flat
/// in the number of deliveries. In steady state (the interner's free-list
/// recycling slots reclaimed from evicted/decayed values) the per-value
/// cost must not include any table growth.
#[test]
fn fresh_value_deliveries_have_bounded_allocation_budget() {
    let p = params(7, 2);
    let mut engine: Engine<u64> = Engine::new(NodeId::new(0), p);
    let mut ob: Outbox<u64> = Outbox::new();
    let mut t = 5_000_000_000_000u64;
    let mut v = 0u64;
    let deliver_fresh =
        |engine: &mut Engine<u64>, ob: &mut Outbox<u64>, t: &mut u64, v: &mut u64| {
            *t += 100_000;
            *v += 1;
            let msg = Msg::Ia {
                kind: IaKind::Support,
                general: NodeId::new(1),
                value: Arc::new(*v),
            };
            engine.on_message_ref(
                LocalTime::from_nanos(*t),
                NodeId::new((*v % 7) as u32),
                &msg,
                &mut *ob,
            );
        };
    // Warm-up: reach the tracked-value cap and the arena/table plateau,
    // and run many cleanup cadences so slot recycling is in effect.
    for _ in 0..4_000u64 {
        deliver_fresh(&mut engine, &mut ob, &mut t, &mut v);
    }
    let deliveries = 10_000u64;
    let (allocs, _) = count_allocs(|| {
        for _ in 0..deliveries {
            deliver_fresh(&mut engine, &mut ob, &mut t, &mut v);
        }
    });
    let per_delivery = allocs as f64 / deliveries as f64;
    println!("first-sight budget: {per_delivery:.2} allocs/delivery ({allocs} total)");
    // Steady state measures 3.00: fresh ValueState's lazily-allocated
    // arrival storage (2) plus the harness's own `Arc::new` per fresh
    // payload (the engine itself adds nothing — `intern_shared` stores a
    // reference bump of the wire Arc even on first sight). The slack
    // covers allocator/layout jitter only — a real regression of the
    // documented budget must fail here.
    assert!(
        per_delivery <= 4.0,
        "first-sight deliveries must stay cheap: {per_delivery:.2} allocs/delivery ({allocs} total)"
    );
}

/// An accepted broadcast (full echo quorum → accept → block-S decide →
/// relay) may allocate — fresh value state, accept tables — but the cost
/// must be small and bounded per wave, not proportional to traffic.
#[test]
fn accepted_broadcast_allocations_are_bounded() {
    let p = params(4, 1);
    let mut engine: Engine<u64> = Engine::new(NodeId::new(1), p);
    let mut ob: Outbox<u64> = Outbox::new();
    let mut t = 4_000_000_000_000u64;
    let wave = |engine: &mut Engine<u64>, ob: &mut Outbox<u64>, t: &mut u64, value: u64| {
        // A fresh execution: late anchor (no block R), then a full echo
        // wave for a round-1 broadcast by node 2 accepts and decides.
        engine
            .agreement_raw(NodeId::new(0))
            .corrupt_anchor(LocalTime::from_nanos(*t - 6 * D));
        for s in [0u32, 2, 3] {
            *t += 1_000;
            let msg = Msg::Bcast {
                kind: BcastKind::Echo,
                general: NodeId::new(0),
                broadcaster: NodeId::new(2),
                value: Arc::new(value),
                round: 1,
            };
            engine.on_message_ref(LocalTime::from_nanos(*t), NodeId::new(s), &msg, ob);
        }
        // Let the post-return reset run so the next wave starts fresh.
        *t += 4 * D;
        engine.on_tick(LocalTime::from_nanos(*t), ob);
        *t += 4 * D;
        engine.on_tick(LocalTime::from_nanos(*t), ob);
    };
    // Warm-up waves: buffers and tables reach steady state.
    for v in 0..50u64 {
        wave(&mut engine, &mut ob, &mut t, v % 4);
    }
    let waves = 200u64;
    let (allocs, _) = count_allocs(|| {
        for v in 0..waves {
            wave(&mut engine, &mut ob, &mut t, v % 4);
        }
    });
    let per_wave = allocs as f64 / waves as f64;
    assert!(
        per_wave <= 40.0,
        "accepted broadcast must stay cheap: {per_wave:.1} allocs/wave ({allocs} total)"
    );
}

/// The coalesced wave path: after warm-up, a full-membership duplicate
/// echo storm through `Engine::on_wave_ref` — three triplets relayed by
/// all seven senders, sender-major, so the grouping pass does real work
/// — performs **zero** heap allocations: one intern probe, one bulk
/// arrival record and one evaluation pass per key, with the sender
/// scratch and the wave plan pooled inside the outbox
/// (`capacities()[5..8]`) exactly like the dispatch arenas.
#[test]
fn coalesced_echo_wave_is_allocation_free() {
    let p = params(7, 2);
    let mut engine: Engine<u64> = Engine::new(NodeId::new(0), p);
    let mut ob: Outbox<u64> = Outbox::new();
    let mut t = 7_000_000_000_000u64;
    // The wave is built once (the simulator hands the engine a pooled
    // slice of Arc-shared arrivals; constructing it is the network
    // layer's cost, not the engine's).
    let value = Arc::new(9u64);
    let wave: Vec<(NodeId, Arc<Msg<u64>>)> = (0..7)
        .flat_map(|s| {
            let value = Arc::clone(&value);
            (2..5).map(move |b| {
                (
                    NodeId::new(s),
                    Arc::new(Msg::Bcast {
                        kind: BcastKind::Echo,
                        general: NodeId::new(1),
                        broadcaster: NodeId::new(b),
                        value: Arc::clone(&value),
                        round: 1,
                    }),
                )
            })
        })
        .collect();
    // Warm-up: triplet state, arrival stamps, outbox arenas and the wave
    // scratch all reach steady-state capacity.
    for _ in 0..1_000u64 {
        t += 10_000;
        engine.on_wave_ref(LocalTime::from_nanos(t), &wave, &mut ob);
    }
    assert_eq!(
        engine.dispatch_stats().wave_groups,
        3_000,
        "every key of every wave must form a group"
    );
    let caps = ob.capacities();
    assert!(
        caps[5] >= 7 && caps[6] >= 3 && caps[7] >= 21,
        "the sender scratch and the wave plan must be pooled in the outbox: {caps:?}"
    );
    let (allocs, _) = count_allocs(|| {
        for _ in 0..10_000u64 {
            t += 10_000;
            engine.on_wave_ref(LocalTime::from_nanos(t), &wave, &mut ob);
        }
    });
    assert_eq!(
        allocs, 0,
        "coalesced duplicate echo waves must be allocation-free after warm-up"
    );
    assert_eq!(
        ob.capacities(),
        caps,
        "steady-state waves must not grow any pooled buffer"
    );
}

// ---------------------------------------------------------------------
// Clone-counter extension: the Arc<V> emission path must never deep-copy
// the value — not per delivery, not per emitted Broadcast/Event.
// ---------------------------------------------------------------------

thread_local! {
    static V_CLONES: Cell<u64> = const { Cell::new(0) };
}

/// A heavyweight stand-in whose `Clone` is observable: every deep copy
/// of the payload bumps a thread-local counter.
#[derive(PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
struct CountedBlob([u8; 1024]);

impl Clone for CountedBlob {
    fn clone(&self) -> Self {
        V_CLONES.with(|c| c.set(c.get() + 1));
        CountedBlob(self.0)
    }
}

fn count_v_clones<R>(f: impl FnOnce() -> R) -> (u64, R) {
    let before = V_CLONES.with(Cell::get);
    let r = f();
    let after = V_CLONES.with(Cell::get);
    (after - before, r)
}

/// End-to-end clone audit of the engine path for a 1 KiB value: interning
/// an inbound Arc-shared wire payload stores a reference bump even on
/// first sight, and every emitted `Broadcast`/`Event` resolves the
/// interner slot's own `Arc` — **zero** deep copies of `V` across
/// initiation, delivery, quorum completion, acceptance, decide relay and
/// the Decided event.
#[test]
fn heavy_value_emission_is_clone_free() {
    let p = params(4, 1);
    let d = D;
    let mut engine: Engine<CountedBlob> = Engine::new(NodeId::new(1), p);
    let mut ob: Outbox<CountedBlob> = Outbox::new();
    let mut t = 6_000_000_000_000u64;

    let (clones, _) = count_v_clones(|| {
        // The proposer's own initiation: the value moves into its Arc.
        let mut general: Engine<CountedBlob> = Engine::new(NodeId::new(0), p);
        let mut gob: Outbox<CountedBlob> = Outbox::new();
        general
            .initiate(LocalTime::from_nanos(t), CountedBlob([7u8; 1024]), &mut gob)
            .expect("fresh engine initiates");
        let initiator = gob
            .outputs()
            .iter()
            .find_map(|o| match o {
                ssbyz_core::Output::Broadcast(m) => Some(m.clone()),
                _ => None,
            })
            .expect("initiation broadcasts");

        // Deliver the initiation (first sight at node 1: Arc bump into
        // the arena) — block K emits a support broadcast with the blob.
        t += 1_000;
        engine.on_message_ref(
            LocalTime::from_nanos(t),
            NodeId::new(0),
            &initiator,
            &mut ob,
        );
        assert!(!ob.is_empty(), "block K must emit support");

        // A full echo wave accepts, relays the decide (blob broadcast)
        // and emits the Decided event (blob event).
        engine
            .agreement_raw(NodeId::new(0))
            .corrupt_anchor(LocalTime::from_nanos(t - 6 * d));
        let value = std::sync::Arc::new(CountedBlob([7u8; 1024]));
        let mut emitted = 0usize;
        for s in [0u32, 2, 3] {
            t += 1_000;
            let msg = Msg::Bcast {
                kind: BcastKind::Echo,
                general: NodeId::new(0),
                broadcaster: NodeId::new(2),
                value: std::sync::Arc::clone(&value),
                round: 1,
            };
            engine.on_message_ref(LocalTime::from_nanos(t), NodeId::new(s), &msg, &mut ob);
            emitted += ob.len();
        }
        assert!(emitted > 0, "the completed wave must emit");
    });
    // The only deep copies permitted are the two explicit test-side
    // constructions ([7u8; 1024] literals are moves, not clones).
    assert_eq!(
        clones, 0,
        "engine delivery + emission must never deep-copy the value"
    );
}
