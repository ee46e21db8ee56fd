//! The simulator's storm phase for `Msg<u64>`: a message corruptor and a
//! spurious-traffic injector, both drawing from the simulator's RNG.

use rand::rngs::StdRng;
use rand::RngCore;
use std::sync::Arc;

use ssbyz_core::{BcastKind, IaKind, Msg};
use ssbyz_simnet::{Corruptor, Injector};
use ssbyz_types::NodeId;

/// Builds a storm corruptor for `Msg<u64>`: rewrites fields (values,
/// claimed generals, rounds, stage kinds) at random, occasionally eating
/// the message. Field-level corruption is nastier than loss because the
/// result is still a well-formed protocol message.
#[must_use]
pub fn u64_corruptor(n: usize) -> Corruptor<Msg<u64>> {
    Box::new(move |msg, rng| {
        if rng.next_u64() % 8 == 0 {
            return None; // eaten
        }
        let pick = |rng: &mut StdRng| NodeId::new((rng.next_u64() % n as u64) as u32);
        Some(match msg {
            Msg::Initiator { general, value } => {
                if rng.next_u64() % 2 == 0 {
                    Msg::Initiator {
                        general,
                        value: Arc::new(*value ^ (rng.next_u64() % 16)),
                    }
                } else {
                    Msg::Initiator {
                        general: pick(rng),
                        value,
                    }
                }
            }
            Msg::Ia {
                kind,
                general: _,
                value,
            } => {
                let kind = match rng.next_u64() % 3 {
                    0 => IaKind::Support,
                    1 => IaKind::Approve,
                    _ => kind,
                };
                Msg::Ia {
                    kind,
                    general: pick(rng),
                    value: Arc::new(*value ^ (rng.next_u64() % 16)),
                }
            }
            Msg::Bcast {
                kind,
                general,
                broadcaster: _,
                value,
                round,
            } => {
                let kind = match rng.next_u64() % 5 {
                    0 => BcastKind::Echo,
                    1 => BcastKind::EchoPrime,
                    _ => kind,
                };
                Msg::Bcast {
                    kind,
                    general,
                    broadcaster: pick(rng),
                    value: Arc::new(*value ^ (rng.next_u64() % 16)),
                    round: (round + (rng.next_u64() % 3) as u32).max(1),
                }
            }
        })
    })
}

/// Builds a spurious-traffic injector for `Msg<u64>`: fabricates protocol
/// messages with forged identities, as the incoherent network may.
#[must_use]
pub fn u64_injector(value_space: u64) -> Injector<Msg<u64>> {
    Box::new(move |rng, n| {
        let pick = |rng: &mut StdRng| NodeId::new((rng.next_u64() % n as u64) as u32);
        let from = pick(rng);
        let to = pick(rng);
        let value = Arc::new(rng.next_u64() % value_space.max(1));
        let msg = match rng.next_u64() % 8 {
            0 => Msg::Initiator {
                general: from,
                value,
            },
            1..=3 => Msg::Ia {
                kind: match rng.next_u64() % 3 {
                    0 => IaKind::Support,
                    1 => IaKind::Approve,
                    _ => IaKind::Ready,
                },
                general: pick(rng),
                value,
            },
            _ => Msg::Bcast {
                kind: match rng.next_u64() % 4 {
                    0 => BcastKind::Init,
                    1 => BcastKind::Echo,
                    2 => BcastKind::InitPrime,
                    _ => BcastKind::EchoPrime,
                },
                general: pick(rng),
                broadcaster: pick(rng),
                value,
                round: (rng.next_u64() % 4) as u32 + 1,
            },
        };
        (from, to, msg)
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    #[test]
    fn corruptor_produces_wellformed_messages() {
        let mut c = u64_corruptor(7);
        let mut rng = StdRng::seed_from_u64(3);
        let mut kept = 0;
        for i in 0..200u64 {
            let msg = Msg::Ia {
                kind: IaKind::Ready,
                general: NodeId::new((i % 7) as u32),
                value: Arc::new(i),
            };
            if let Some(m) = c(msg, &mut rng) {
                kept += 1;
                // Claimed ids stay inside the membership.
                assert!(m.general().index() < 7);
            }
        }
        assert!(kept > 150, "only ~1/8 should be eaten, kept {kept}");
    }

    #[test]
    fn injector_addresses_members_only() {
        let mut inj = u64_injector(16);
        let mut rng = StdRng::seed_from_u64(4);
        for _ in 0..200 {
            let (from, to, msg) = inj(&mut rng, 5);
            assert!(from.index() < 5);
            assert!(to.index() < 5);
            assert!(msg.general().index() < 5);
        }
    }
}
