//! Transient-fault state corruption.
//!
//! The paper's fault model allows a transient failure to leave every node
//! in an **arbitrary state**: any variable may hold any value, including
//! timestamps in the future, fabricated quorum evidence, fake anchors and
//! phantom pending decisions. [`Engine::scramble`](crate::Engine::scramble)
//! produces exactly such a state, driven by a caller-supplied [`Entropy`]
//! source so the core crate stays free of RNG dependencies.
//!
//! Each primitive plants its own residue — `InitiatorAccept::plant`,
//! `Agreement::plant` and `MsgdBroadcast::plant`, each written beside the
//! `cleanup` that must expire it — drawing from one shared `Garbage`
//! source; the engine adds the interner junk and the General-side guards.
//! Each primitive's unit tests pin that one cleanup past the latest
//! planted stamp plus its longest horizon leaves it dormant.
//!
//! The convergence experiments (E6) start every node from a scrambled
//! engine plus a scrambled clock and a network storm, and measure how long
//! until the protocol's properties hold again — the paper's Corollary 5
//! bounds this by `Δ_stb = 2·Δ_reset` after the system turns coherent.

use ssbyz_types::{Duration, LocalTime, NodeId, Value};

use crate::intern::{ValueId, ValueInterner};

/// A deterministic entropy source. Any `FnMut() -> u64` is one, so a
/// caller holding an RNG passes `&mut || rng.next_u64()`.
pub trait Entropy {
    /// The next raw 64-bit word.
    fn next_u64(&mut self) -> u64;

    /// Uniform value in `0..n` (`n > 0`).
    fn below(&mut self, n: u64) -> u64 {
        assert!(n > 0, "below(0) is meaningless");
        self.next_u64() % n
    }

    /// `true` with probability `num / den`.
    fn chance(&mut self, num: u64, den: u64) -> bool {
        self.below(den) < num
    }
}

impl<F: FnMut() -> u64> Entropy for F {
    fn next_u64(&mut self) -> u64 {
        self()
    }
}

/// The source one scramble plants from: entropy, fabricated values, the
/// engine's interner and the stamp range `[now − 2Δ_rmv, now + 2Δ_rmv)` —
/// both "plausible" and "clearly wrong" stamps, so the decay rules are
/// exercised in full.
pub(crate) struct Garbage<'a, V> {
    now: LocalTime,
    rmv: Duration,
    entropy: &'a mut dyn Entropy,
    gen_value: &'a mut dyn FnMut(&mut dyn Entropy) -> V,
    interner: &'a mut ValueInterner<V>,
}

impl<'a, V: Value> Garbage<'a, V> {
    pub(crate) fn new(
        now: LocalTime,
        rmv: Duration,
        entropy: &'a mut dyn Entropy,
        gen_value: &'a mut dyn FnMut(&mut dyn Entropy) -> V,
        interner: &'a mut ValueInterner<V>,
    ) -> Self {
        Garbage {
            now,
            rmv,
            entropy,
            gen_value,
            interner,
        }
    }

    /// A planted timestamp.
    pub(crate) fn stamp(&mut self) -> LocalTime {
        let span = self.rmv * 4u64;
        let off = Duration::from_nanos(self.entropy.below(span.as_nanos().max(1)));
        (self.now - self.rmv * 2u64) + off
    }

    /// A fabricated value (not yet interned).
    pub(crate) fn value(&mut self) -> V {
        (self.gen_value)(&mut *self.entropy)
    }

    /// Interns a fabricated value, at the moment it is first planted.
    pub(crate) fn intern(&mut self, value: &V) -> ValueId {
        self.interner.intern(value)
    }

    /// A uniform member of `0..n`.
    pub(crate) fn node(&mut self, n: usize) -> NodeId {
        NodeId::new(self.entropy.below(n as u64) as u32)
    }
}

impl<V> Entropy for Garbage<'_, V> {
    fn next_u64(&mut self) -> u64 {
        self.entropy.next_u64()
    }
}

/// A xorshift64 entropy stream for the scramble tests.
#[cfg(test)]
pub(crate) fn xorshift(seed: u64) -> impl FnMut() -> u64 {
    let mut s = seed.max(1);
    move || {
        s ^= s << 13;
        s ^= s >> 7;
        s ^= s << 17;
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::Engine;
    use crate::params::Params;

    #[test]
    fn entropy_helpers() {
        let mut e = xorshift(42);
        for _ in 0..100 {
            let v = Entropy::below(&mut e, 10);
            assert!(v < 10);
        }
        // chance(1, 1) is always true; chance(0, 2) never.
        assert!(Entropy::chance(&mut e, 1, 1));
        assert!(!Entropy::chance(&mut e, 0, 2));
    }

    #[test]
    fn scramble_plants_state() {
        let params = Params::from_d(4, 1, Duration::from_millis(10), 0).unwrap();
        let mut engine: Engine<u64> = Engine::new(NodeId::new(0), params);
        let mut e = xorshift(7);
        let now = LocalTime::from_nanos(123_456_789_000);
        // Twice: more intensity than one scramble.
        for _ in 0..2 {
            engine.scramble(now, &mut e, &mut |e| e.next_u64() % 8);
        }
        // Some instance must exist now.
        let any = (0..4).any(|i| engine.ia(NodeId::new(i)).is_some())
            || (0..4).any(|i| engine.agreement(NodeId::new(i)).is_some());
        assert!(any, "scramble must plant at least one instance");
    }

    #[test]
    fn scramble_is_deterministic_per_seed() {
        let params = Params::from_d(4, 1, Duration::from_millis(10), 0).unwrap();
        let now = LocalTime::from_nanos(5_000_000_000);
        let build = |seed| {
            let mut engine: Engine<u64> = Engine::new(NodeId::new(1), params);
            let mut e = xorshift(seed);
            engine.scramble(now, &mut e, &mut |e| e.next_u64() % 4);
            format!("{engine:?}")
        };
        assert_eq!(build(9), build(9));
        assert_ne!(build(9), build(10));
    }

    #[test]
    fn interner_junk_and_guards_decay_to_empty() {
        let params = Params::from_d(4, 1, Duration::from_millis(10), 0).unwrap();
        let mut engine: Engine<u64> = Engine::new(NodeId::new(0), params);
        let mut e = xorshift(3);
        let now = LocalTime::from_nanos(50_000_000_000);
        // Twice: twice the junk and guards of one scramble.
        for _ in 0..2 {
            engine.scramble(now, &mut e, &mut |e| e.next_u64());
        }
        assert!(
            engine.interner().occupancy() > 0,
            "junk must land in the interner"
        );
        // Tick far past every decay horizon (stamps reach +2Δ_rmv into
        // the future; Δ_reset past that clears the [IG3] fallout).
        let mut ob = crate::Outbox::new();
        let mut t = now;
        for _ in 0..500 {
            t += Duration::from_millis(20);
            engine.on_tick(t, &mut ob);
        }
        assert_eq!(
            engine.interner().occupancy(),
            0,
            "every planted id must be swept once the state decays"
        );
    }

    #[test]
    fn scrambled_engine_still_processes_events() {
        // A scrambled engine must not panic on subsequent inputs.
        let params = Params::from_d(4, 1, Duration::from_millis(10), 0).unwrap();
        let mut engine: Engine<u64> = Engine::new(NodeId::new(2), params);
        let mut e = xorshift(99);
        let now = LocalTime::from_nanos(77_000_000_000);
        engine.scramble(now, &mut e, &mut |e| e.next_u64() % 4);
        let later = now + Duration::from_millis(1);
        let mut ob = crate::Outbox::new();
        engine.on_tick(later, &mut ob);
        engine.on_message(
            later + Duration::from_millis(1),
            NodeId::new(0),
            crate::message::Msg::Initiator {
                general: NodeId::new(0),
                value: std::sync::Arc::new(3),
            },
            &mut ob,
        );
        // Decay must eventually clean everything (ticks over 2Δ_rmv).
        let mut t = later;
        for _ in 0..200 {
            t += Duration::from_millis(20);
            engine.on_tick(t, &mut ob);
        }
    }
}
