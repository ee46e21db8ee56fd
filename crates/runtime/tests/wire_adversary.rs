//! Byte-level corruption battery for the TCP wire path.
//!
//! Two layers:
//!
//! * a **stochastic campaign** — the reactor's built-in corruption
//!   adversary flips bits, truncates, replays, and forges MACs on a
//!   fraction of all outbound frames while a real stream commits. The
//!   cluster must still commit exactly the submitted values (retries
//!   and catch-up recover the dropped frames), with zero panics and
//!   zero forged commits;
//! * **deterministic injections** — hand-built hostile byte strings
//!   pushed onto live links via the raw test hook, pinned against the
//!   reject counters: forged MACs bounce at the frame gate *before any
//!   payload parse*, and framing garbage kills only the one poisoned
//!   connection.

use std::sync::Arc;

use ssbyz_core::{Msg, Params, PipelineConfig, SlotMsg};
use ssbyz_runtime::PipelineCluster;
use ssbyz_types::{Duration, NodeId};
use ssbyz_wire::{
    encode_slot_msg, frame::write_frame, CorruptConfig, MacKey, TcpTransport, WireConfig,
};

const STREAM: u64 = 6;

fn params_n4() -> Params {
    Params::from_d(4, 1, Duration::from_millis(20), 0).unwrap()
}

fn spawn_tcp(wire: WireConfig) -> PipelineCluster<u64, TcpTransport<u64>> {
    let pipe_cfg = PipelineConfig::new(NodeId::new(0), &params_n4()).with_window(2);
    PipelineCluster::spawn_tcp(params_n4(), pipe_cfg, Duration::from_millis(5), wire)
        .expect("loopback mesh")
}

#[test]
fn corruption_campaign_commits_only_submitted_values() {
    // Corrupt ~1 in 8 outbound frames across every mode.
    let wire = WireConfig::from_seed(99).with_corruption(CorruptConfig::all_modes(1234, 1, 8));
    let cluster = spawn_tcp(wire);
    std::thread::sleep(std::time::Duration::from_millis(30));
    for v in 0..STREAM {
        cluster.submit(40_000 + v).unwrap();
    }
    let waited = cluster.wait_for_commits(4 * STREAM as usize, std::time::Duration::from_secs(60));
    if let Err(e) = waited {
        // Per-node progress tells a wedged proposer (the only node that
        // decides) from a stream that is merely slow.
        let committed: Vec<usize> = cluster.committed_logs().iter().map(Vec::len).collect();
        panic!(
            "stream must commit despite corruption: {e:?}; committed slots per node \
             {committed:?} of {STREAM}; {:?}",
            cluster.transport().stats()
        );
    }

    let logs = cluster.committed_logs();
    for (i, log) in logs.iter().enumerate() {
        assert_eq!(log.len(), STREAM as usize, "node {i} log length");
        for (slot, (got_slot, got_val)) in log.iter().enumerate() {
            assert_eq!(*got_slot, slot as u64, "node {i} slot order");
            assert_eq!(
                **got_val,
                40_000 + slot as u64,
                "node {i} committed a value nobody submitted"
            );
        }
    }

    let stats = cluster.transport().stats();
    assert!(
        stats.corrupted_injected > 0,
        "adversary never fired: {stats:?}"
    );
    // Bit flips, MAC forgeries, and truncations all land on the MAC /
    // header gates; replays pass them (they are authentic bytes) and
    // are absorbed by protocol-level dedup instead.
    assert!(
        stats.rejected_mac + stats.rejected_header > 0,
        "corrupted frames were never rejected: {stats:?}"
    );
    cluster.shutdown();
}

#[test]
fn forged_mac_frames_bounce_before_parse() {
    let cluster = spawn_tcp(WireConfig::from_seed(5));
    std::thread::sleep(std::time::Duration::from_millis(30));
    let before = cluster.transport().stats();

    // An attacker without the cluster master secret crafts a perfectly
    // well-formed frame carrying a committable payload, MAC'd with its
    // own key, and squats on the 2 → 3 link.
    let forged_value = 666_666u64;
    let payload_msg: SlotMsg<u64> = SlotMsg::Slot {
        slot: 0,
        attempt: 0,
        inner: Msg::Initiator {
            general: NodeId::new(0),
            value: Arc::new(forged_value),
        },
    };
    let mut payload = Vec::new();
    encode_slot_msg(&payload_msg, &mut payload);
    let attacker_key = MacKey::from_bytes([0x5a; 32]);
    let mut frame = Vec::new();
    write_frame(&mut frame, &attacker_key, NodeId::new(2), &payload);
    for _ in 0..16 {
        cluster
            .transport()
            .inject_raw(NodeId::new(2), NodeId::new(3), frame.clone());
    }
    std::thread::sleep(std::time::Duration::from_millis(200));

    let after = cluster.transport().stats();
    assert!(
        after.rejected_mac >= before.rejected_mac + 16,
        "forged frames not rejected at the MAC gate: {after:?}"
    );
    // Reject-before-parse: a rejected frame never reaches the decoder.
    assert_eq!(after.rejected_decode, before.rejected_decode);
    // And nothing committed — not the forged value, not anything else.
    assert!(
        cluster.commits().is_empty(),
        "forged traffic produced commits"
    );
    cluster.shutdown();
}

#[test]
fn framing_garbage_poisons_only_one_link() {
    let cluster = spawn_tcp(WireConfig::from_seed(6));
    std::thread::sleep(std::time::Duration::from_millis(30));

    // Raw garbage with a hostile length prefix: framing on 1 → 2 is
    // beyond recovery, the reactor must drop that connection (and only
    // that one) rather than stall or crash.
    let mut garbage = vec![0xffu8; 64];
    garbage[0] = 0xff;
    cluster
        .transport()
        .inject_raw(NodeId::new(1), NodeId::new(2), garbage);
    std::thread::sleep(std::time::Duration::from_millis(200));

    let stats = cluster.transport().stats();
    assert!(
        stats.rejected_header > 0,
        "poisoned stream not detected: {stats:?}"
    );
    assert!(cluster.commits().is_empty());

    // The mesh minus one link still carries a stream to completion:
    // n = 4, f = 1 tolerates a lossy pair.
    for v in 0..STREAM {
        cluster.submit(50_000 + v).unwrap();
    }
    cluster
        .wait_for_commits(4 * STREAM as usize, std::time::Duration::from_secs(60))
        .expect("stream must commit around the dead link");
    for (i, log) in cluster.committed_logs().iter().enumerate() {
        for (slot, (_, got_val)) in log.iter().enumerate() {
            assert_eq!(**got_val, 50_000 + slot as u64, "node {i} wrong value");
        }
    }
    cluster.shutdown();
}

#[test]
fn truncated_authentic_frames_are_rejected() {
    let cluster = spawn_tcp(WireConfig::from_seed(8));
    std::thread::sleep(std::time::Duration::from_millis(30));
    let before = cluster.transport().stats();

    // An authentic frame for the 0 → 1 link (the attacker replays
    // captured bytes), cut short with a fixed-up length prefix so the
    // stream stays in sync: the MAC no longer covers what arrives.
    let payload_msg: SlotMsg<u64> = SlotMsg::Heartbeat { committed: 9 };
    let mut payload = Vec::new();
    encode_slot_msg(&payload_msg, &mut payload);
    let master = WireConfig::from_seed(8).master_key;
    let key = MacKey::derive_link(&master, NodeId::new(0), NodeId::new(1));
    let mut frame = Vec::new();
    write_frame(&mut frame, &key, NodeId::new(0), &payload);
    let cut = frame.len() - 2;
    let body_len = u32::try_from(cut - 4).unwrap();
    let mut truncated = frame[..cut].to_vec();
    truncated[..4].copy_from_slice(&body_len.to_le_bytes());
    for _ in 0..8 {
        cluster
            .transport()
            .inject_raw(NodeId::new(0), NodeId::new(1), truncated.clone());
    }
    std::thread::sleep(std::time::Duration::from_millis(200));

    let after = cluster.transport().stats();
    assert!(
        after.rejected_mac >= before.rejected_mac + 8,
        "truncated frames not rejected: {after:?}"
    );
    assert!(cluster.commits().is_empty());

    // The *untruncated* authentic bytes, replayed verbatim, do pass the
    // gate — replay defense is the protocol's job, not the MAC's.
    let delivered_before = cluster.transport().stats().frames_delivered;
    cluster
        .transport()
        .inject_raw(NodeId::new(0), NodeId::new(1), frame);
    std::thread::sleep(std::time::Duration::from_millis(200));
    assert!(
        cluster.transport().stats().frames_delivered > delivered_before,
        "authentic replayed frame should still deliver"
    );
    cluster.shutdown();
}
