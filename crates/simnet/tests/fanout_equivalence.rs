//! A/B parity battery for broadcast fan-out.
//!
//! [`Ctx::broadcast`] has two routes. On a draw-free instant (fixed link
//! delay, no storm) the whole fan-out is one wheel entry carrying a
//! destination bitmap; otherwise every copy takes the unicast path, one
//! wheel entry per destination. The reference both must match lives
//! here, in the test processes: [`Fan::Unicasts`] fans out with one
//! [`Ctx::send`] per destination in ascending id order. The two fan-outs
//! must be *indistinguishable* from inside the simulation: identical
//! observation streams (node, real time, local time, payload — in
//! order), identical metrics including the per-tag send counts, identical
//! RNG consumption — under crashes, link blocks, a partition healed
//! mid-run, jittered delays, and full storms (drop / corrupt /
//! duplicate), from one node up:
//!
//! * on the draw-free route, link blocks and the partition clear
//!   destination bits at send and crashes are skipped at delivery, and
//!   0-, 1- and many-destination fan-outs each get their own entry shape;
//! * off it, the broadcast enqueues exactly what the unicasts enqueue —
//!   same wheel occupancy, same number of events — so no copy is merged
//!   with another;
//! * a corrupted copy is a private deep clone, so the other copies keep
//!   the original payload (pinned by the dedicated regression below).

use proptest::prelude::*;
use ssbyz_simnet::{
    Ctx, DriftClock, LinkConfig, Partition, Process, SimBuilder, Simulation, StormConfig,
};
use ssbyz_types::{Duration, NodeId, RealTime};

const T_BEAT: u64 = 1;

/// How a test process sends one payload to every node.
#[derive(Debug, Clone, Copy)]
enum Fan {
    /// The simulator's fan-out, `Ctx::broadcast`.
    Broadcast,
    /// The live oracle: one unicast per destination, ascending id.
    Unicasts,
}

impl Fan {
    fn out<O>(self, ctx: &mut Ctx<'_, u64, O>, msg: u64) {
        match self {
            Fan::Broadcast => ctx.broadcast(msg),
            Fan::Unicasts => {
                for to in 0..ctx.n() {
                    ctx.send(NodeId::new(to as u32), msg);
                }
            }
        }
    }
}

/// Broadcast-dominated process: every node broadcasts a tagged sequence
/// number on a periodic beat and observes everything it receives. A
/// received broadcast below a threshold is immediately re-broadcast
/// (amplification), so delivery *order* feeds back into traffic — any
/// reordering between the two fan-outs cascades into divergent streams.
struct Beater {
    fan: Fan,
    period: Duration,
    beats: u32,
    fired: u32,
    amplify_below: u64,
}

impl Process<u64, (NodeId, u64)> for Beater {
    fn on_start(&mut self, ctx: &mut Ctx<'_, u64, (NodeId, u64)>) {
        ctx.set_timer_after(self.period, T_BEAT);
    }

    fn on_message(&mut self, ctx: &mut Ctx<'_, u64, (NodeId, u64)>, from: NodeId, msg: &u64) {
        ctx.observe((from, *msg));
        // One amplification hop only: the re-broadcast leaves the band,
        // so traffic stays bounded at O(n²) per beat.
        if *msg < self.amplify_below {
            self.fan.out(ctx, msg + 10_000_000);
        }
    }

    fn on_timer(&mut self, ctx: &mut Ctx<'_, u64, (NodeId, u64)>, token: u64) {
        if token != T_BEAT {
            return;
        }
        let beat = (ctx.me().index() as u64) << 32 | u64::from(self.fired);
        self.fan.out(ctx, beat + 1_000_000);
        self.fired += 1;
        if self.fired < self.beats {
            ctx.set_timer_after(self.period, T_BEAT);
        }
    }
}

#[derive(Debug, Clone)]
struct Shape {
    n: usize,
    seed: u64,
    /// Fixed delay when 0, else uniform jitter span in µs.
    jitter_us: u64,
    /// Crash the top `crashes` nodes for the first half of the run.
    crashes: usize,
    /// Block node 0's links to itself and to node 1 for the first half
    /// when set: at n ≤ 3 node 0's fan-outs then reach 0 or 1 nodes.
    block: bool,
    /// Cut the upper half of the nodes off from the rest at start and
    /// heal the cut at `HEAL`.
    partition: bool,
    /// Storm drop/corrupt/dup numerators over 8 (0 disables the knob).
    drop_num: u32,
    corrupt_num: u32,
    dup_num: u32,
    /// Storm delays of at most 3 ns instead of 2 ms: dues collide, so
    /// the `(due, seq)` order of duplicates, corrupted copies and the
    /// rest decides what every node sees next.
    colliding_dues: bool,
    /// Re-broadcast amplification threshold.
    amplify: bool,
}

/// When a `partition` shape heals its cut: after the first beats.
const HEAL: RealTime = RealTime::from_nanos(2_500_000);

/// Beats and their amplified relays carry different tags.
fn tag(msg: &u64) -> &'static str {
    if *msg >= 10_000_000 {
        "relay"
    } else {
        "beat"
    }
}

fn build(shape: &Shape, fan: Fan) -> Simulation<u64, (NodeId, u64)> {
    let delay_min = Duration::from_micros(300);
    let delay_max = delay_min + Duration::from_micros(shape.jitter_us);
    let mut b = SimBuilder::new(shape.seed)
        .link(LinkConfig::uniform(delay_min, delay_max))
        .tagger(tag);
    if shape.drop_num + shape.corrupt_num + shape.dup_num > 0 {
        b = b
            .storm(StormConfig {
                until: RealTime::from_nanos(6_000_000),
                drop_num: shape.drop_num,
                drop_den: 8,
                corrupt_num: shape.corrupt_num,
                corrupt_den: 8,
                dup_num: shape.dup_num,
                dup_den: 8,
                max_delay: if shape.colliding_dues {
                    Duration::from_nanos(3)
                } else {
                    Duration::from_millis(2)
                },
                injection_period: None,
            })
            .corruptor(Box::new(|m, rng| {
                use rand::RngCore;
                // Mix of rewrites and eats, consuming entropy either way.
                let roll = rng.next_u64();
                if roll % 5 == 0 {
                    None
                } else {
                    Some(m ^ (roll % 64))
                }
            }));
    }
    for _ in 0..shape.n {
        b = b.node(
            Box::new(Beater {
                fan,
                period: Duration::from_millis(1),
                beats: 4,
                fired: 0,
                amplify_below: if shape.amplify { 1_500_000 } else { 0 },
            }),
            DriftClock::ideal(),
        );
    }
    let mut sim = b.build();
    for i in 0..shape.crashes.min(shape.n.saturating_sub(1)) {
        sim.set_down_until(
            NodeId::new((shape.n - 1 - i) as u32),
            RealTime::from_nanos(5_000_000),
        );
    }
    if shape.block {
        for to in 0..shape.n.min(2) {
            sim.block_link(
                NodeId::new(0),
                NodeId::new(to as u32),
                RealTime::from_nanos(5_000_000),
            );
        }
    }
    if shape.partition {
        let upper: Vec<NodeId> = (shape.n / 2..shape.n)
            .map(|i| NodeId::new(i as u32))
            .collect();
        sim.set_partition(Some(Partition::split(shape.n, &upper)));
    }
    sim
}

fn run_parity(shape: &Shape) {
    let mut batched = build(shape, Fan::Broadcast);
    let mut per_dest = build(shape, Fan::Unicasts);
    if shape.partition {
        for sim in [&mut batched, &mut per_dest] {
            sim.run_until(HEAL);
            sim.set_partition(None);
        }
    }
    let horizon = RealTime::from_nanos(12_000_000);
    batched.run_until(horizon);
    per_dest.run_until(horizon);
    assert_eq!(
        batched.observations(),
        per_dest.observations(),
        "observation streams diverged for {shape:?}"
    );
    assert_eq!(
        batched.metrics(),
        per_dest.metrics(),
        "metrics diverged for {shape:?}"
    );
    assert!(
        batched.queue_len() <= per_dest.queue_len(),
        "batching must never enqueue more than per-destination"
    );
    if shape.jitter_us > 0 {
        // No instant is draw-free: every copy is its own entry.
        assert_eq!(
            (batched.queue_len(), batched.events_processed()),
            (per_dest.queue_len(), per_dest.events_processed()),
            "a jittered broadcast must enqueue exactly its unicasts for {shape:?}"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Steady-state links (no storm): jittered delays put every copy on
    /// the unicast path; on fixed delays crashes clear bits at delivery,
    /// blocks and the partition clear bits at send — the observation
    /// stream must match the per-destination oracle exactly.
    #[test]
    fn batched_matches_per_destination_steady_state(
        n in 1usize..12,
        seed in 0u64..5_000,
        jitter_us in 0u64..1_500,
        fixed_delay in any::<bool>(),
        crashes in 0usize..3,
        block in any::<bool>(),
        partition in any::<bool>(),
        amplify in any::<bool>(),
    ) {
        let jitter_us = if fixed_delay { 0 } else { jitter_us };
        run_parity(&Shape {
            n, seed, jitter_us, crashes, block, partition,
            drop_num: 0, corrupt_num: 0, dup_num: 0, colliding_dues: false, amplify,
        });
    }

    /// Full storm: drops, per-copy corruption and duplicates on top of
    /// crashes and partitions; 3 ns storm delays make copies collide on
    /// one due.
    #[test]
    fn batched_matches_per_destination_under_storm(
        n in 1usize..10,
        seed in 0u64..5_000,
        jitter_us in 0u64..1_500,
        fixed_delay in any::<bool>(),
        crashes in 0usize..2,
        block in any::<bool>(),
        partition in any::<bool>(),
        drop_num in 0u32..4,
        corrupt_num in 0u32..5,
        dup_num in 0u32..4,
        colliding_dues in any::<bool>(),
    ) {
        let jitter_us = if fixed_delay { 0 } else { jitter_us };
        run_parity(&Shape {
            n, seed, jitter_us, crashes, block, partition,
            drop_num, corrupt_num, dup_num, colliding_dues, amplify: false,
        });
    }
}

/// Pins per-copy corruption: when the storm corrupts *some* destinations
/// of one broadcast, each corrupted destination gets its own private
/// mutated copy while every other destination's copy stays identical to
/// the original — the copies share one payload, so the corruptor always
/// works on a fresh deep clone and a rewrite never leaks into (or
/// suppresses) the others.
#[test]
fn corrupting_one_copy_leaves_the_other_copies_pristine() {
    const N: usize = 16;
    const ORIGINAL: u64 = 100;
    const STAMP: u64 = 1_000_000;
    struct OneShot(Fan);
    impl Process<u64, (NodeId, u64)> for OneShot {
        fn on_start(&mut self, ctx: &mut Ctx<'_, u64, (NodeId, u64)>) {
            if ctx.me() == NodeId::new(0) {
                self.0.out(ctx, ORIGINAL);
            }
        }
        fn on_message(&mut self, ctx: &mut Ctx<'_, u64, (NodeId, u64)>, from: NodeId, msg: &u64) {
            ctx.observe((from, *msg));
        }
        fn on_timer(&mut self, _ctx: &mut Ctx<'_, u64, (NodeId, u64)>, _token: u64) {}
    }
    let build = |fan: Fan| {
        let mut b = SimBuilder::new(7)
            .link(LinkConfig::fixed(Duration::from_millis(1)))
            .storm(StormConfig {
                until: RealTime::from_nanos(10_000_000),
                drop_num: 0,
                drop_den: 1,
                corrupt_num: 1,
                corrupt_den: 2, // roughly half the copies get rewritten
                dup_num: 0,
                dup_den: 1,
                max_delay: Duration::from_millis(1),
                injection_period: None,
            })
            .corruptor(Box::new(|m, _| Some(m + STAMP)));
        for _ in 0..N {
            b = b.node(Box::new(OneShot(fan)), DriftClock::ideal());
        }
        let mut sim = b.build();
        sim.run_until(RealTime::from_nanos(20_000_000));
        sim
    };
    let sim = build(Fan::Broadcast);

    let obs = sim.observations();
    assert_eq!(obs.len(), N, "every destination received exactly one copy");
    let pristine = obs.iter().filter(|o| o.event.1 == ORIGINAL).count();
    let corrupted = obs.iter().filter(|o| o.event.1 == ORIGINAL + STAMP).count();
    assert_eq!(
        pristine + corrupted,
        N,
        "copies are either pristine or exactly the corruptor's rewrite: {obs:?}"
    );
    assert_eq!(
        corrupted as u64,
        sim.metrics().corrupted,
        "each rewritten copy counts once"
    );
    assert!(
        pristine >= 2 && corrupted >= 2,
        "seed must exercise both paths (got {pristine} pristine / {corrupted} corrupted)"
    );
    // And the A/B check on exactly this scenario.
    let reference = build(Fan::Unicasts);
    assert_eq!(sim.observations(), reference.observations());
    assert_eq!(sim.metrics(), reference.metrics());
}

/// The headline collapse: an all-broadcast round under a deterministic
/// link delay occupies O(n) wheel entries batched versus O(n²) as
/// unicasts. `run_until` past start but before the delivery due
/// time leaves every fan-out enqueued and nothing popped.
#[test]
fn all_broadcast_round_queue_occupancy_drops_n_fold() {
    const N: usize = 32;
    struct Shout(Fan);
    impl Process<u64, u64> for Shout {
        fn on_start(&mut self, ctx: &mut Ctx<'_, u64, u64>) {
            self.0.out(ctx, ctx.me().index() as u64);
        }
        fn on_message(&mut self, ctx: &mut Ctx<'_, u64, u64>, _from: NodeId, msg: &u64) {
            ctx.observe(*msg);
        }
        fn on_timer(&mut self, _ctx: &mut Ctx<'_, u64, u64>, _token: u64) {}
    }
    let build = |fan| {
        let mut b = SimBuilder::new(3).link(LinkConfig::fixed(Duration::from_millis(1)));
        for _ in 0..N {
            b = b.node(Box::new(Shout(fan)), DriftClock::ideal());
        }
        b.build()
    };
    let mut batched: Simulation<u64, u64> = build(Fan::Broadcast);
    let mut per_dest: Simulation<u64, u64> = build(Fan::Unicasts);
    // Start fires every node's broadcast; deliveries are due at +1ms, so
    // running to +0.5ms only enqueues.
    batched.run_until(RealTime::from_nanos(500_000));
    per_dest.run_until(RealTime::from_nanos(500_000));
    assert_eq!(
        batched.queue_len(),
        N,
        "one wheel entry per broadcast (fixed delay ⇒ one batch)"
    );
    assert_eq!(per_dest.queue_len(), N * N, "unicasts: one per destination");
    assert_eq!(batched.queue_occupancy(), batched.queue_len());
    // Drain both: identical deliveries despite the n× occupancy gap.
    batched.run_until(RealTime::from_nanos(5_000_000));
    per_dest.run_until(RealTime::from_nanos(5_000_000));
    assert_eq!(batched.observations(), per_dest.observations());
    assert_eq!(batched.metrics().delivered, (N * N) as u64);
}

/// Crashed destinations are excluded *at delivery* via the bitmap walk
/// (swallowed), partitioned ones *at send* (bit never set) — counts and
/// streams equal to the unicast oracle.
#[test]
fn crashed_and_partitioned_destinations_are_excluded_from_batches() {
    let shape = Shape {
        n: 8,
        seed: 11,
        jitter_us: 0,
        crashes: 2,
        block: true,
        partition: true,
        drop_num: 0,
        corrupt_num: 0,
        dup_num: 0,
        colliding_dues: false,
        amplify: false,
    };
    let mut batched = build(&shape, Fan::Broadcast);
    batched.run_until(RealTime::from_nanos(12_000_000));
    assert!(
        batched.metrics().swallowed > 0,
        "crashes swallow deliveries"
    );
    assert!(
        batched.metrics().blocked > 0,
        "partition suppresses at send"
    );
    run_parity(&shape);
}
