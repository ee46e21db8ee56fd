//! Transport equivalence battery: the authenticated TCP reactor must
//! produce **bit-identical** replicated decision logs to the in-process
//! channel router (the golden model) for the same submitted stream.
//!
//! This works because the committed log is a protocol-level guarantee,
//! not a timing artifact: one proposer, first-write-wins slots, gap-free
//! commit order. Two correct transports may reorder and delay whatever
//! they like — the log that comes out the other side is the same bytes.

use std::sync::Arc;

use ssbyz_core::{Params, PipelineConfig, SlotMsg};
use ssbyz_runtime::{InProcessTransport, PipelineCluster, RuntimeConfig};
use ssbyz_types::{Duration, NodeId, Value};
use ssbyz_wire::{encode_slot_msg, TcpTransport, Transport, WireConfig, WireValue};

const STREAM: u64 = 12;

fn params_n7() -> Params {
    Params::from_d(7, 2, Duration::from_millis(20), 0).unwrap()
}

/// Canonical byte image of one node's committed log: every `(slot,
/// value)` rendered through the wire codec itself, concatenated in slot
/// order. Comparing these compares the logs bit for bit.
fn log_bytes<V: Value + WireValue>(log: &[(u64, Arc<V>)]) -> Vec<u8> {
    let mut out = Vec::new();
    for (slot, value) in log {
        let entry: SlotMsg<V> = SlotMsg::CatchUpReply {
            slot: *slot,
            value: Arc::clone(value),
        };
        encode_slot_msg(&entry, &mut out);
    }
    out
}

/// Drives `STREAM` submissions through `cluster` and returns the
/// per-node committed logs.
fn drive<T: Transport<SlotMsg<u64>>>(
    cluster: &PipelineCluster<u64, T>,
) -> Vec<Vec<(u64, Arc<u64>)>> {
    std::thread::sleep(std::time::Duration::from_millis(30));
    for v in 0..STREAM {
        cluster.submit(7_000 + v).unwrap();
    }
    cluster
        .wait_for_commits(7 * STREAM as usize, std::time::Duration::from_secs(60))
        .expect("full stream commits");
    cluster.committed_logs()
}

#[test]
fn n7_decision_logs_bit_identical_across_transports() {
    let pipe_cfg = PipelineConfig::new(NodeId::new(0), &params_n7()).with_window(4);

    let inproc: PipelineCluster<u64> = PipelineCluster::spawn(
        params_n7(),
        pipe_cfg.clone(),
        RuntimeConfig {
            seed: 42,
            ..RuntimeConfig::default()
        },
    );
    let inproc_logs = drive(&inproc);
    inproc.shutdown();

    let tcp: PipelineCluster<u64, TcpTransport<u64>> = PipelineCluster::spawn_tcp(
        params_n7(),
        pipe_cfg,
        Duration::from_millis(5),
        WireConfig::from_seed(42),
    )
    .expect("loopback mesh");
    let tcp_logs = drive(&tcp);
    let stats = tcp.transport().stats();
    tcp.shutdown();

    assert_eq!(inproc_logs.len(), 7);
    assert_eq!(tcp_logs.len(), 7);
    for (i, (a, b)) in inproc_logs.iter().zip(tcp_logs.iter()).enumerate() {
        assert_eq!(a.len(), STREAM as usize, "node {i} in-process log length");
        assert_eq!(b.len(), STREAM as usize, "node {i} tcp log length");
        // Structural equality first (better failure messages) ...
        for ((sa, va), (sb, vb)) in a.iter().zip(b.iter()) {
            assert_eq!(sa, sb, "node {i} slot order differs");
            assert_eq!(**va, **vb, "node {i} slot {sa} value differs");
        }
        // ... then the bit-level pin through the codec itself.
        assert_eq!(
            log_bytes(a),
            log_bytes(b),
            "node {i} logs are not bit-identical"
        );
    }

    // The TCP run really crossed the wire, cleanly.
    assert!(stats.frames_sent > 0, "no frames sent");
    assert!(stats.frames_delivered > 0, "no frames delivered");
    assert_eq!(stats.rejected_mac, 0, "clean run rejected MACs");
    assert_eq!(stats.rejected_decode, 0, "clean run rejected payloads");
}

#[test]
fn same_seed_same_transport_logs_are_reproducible() {
    // Fixed-seed determinism of the *logs* (not the timings): two
    // in-process runs with the same seed and stream commit the same
    // bytes. This is the property the cross-transport pin relies on.
    let pipe_cfg = PipelineConfig::new(NodeId::new(0), &params_n7()).with_window(4);
    let mut images: Vec<Vec<Vec<u8>>> = Vec::new();
    for _ in 0..2 {
        let cluster: PipelineCluster<u64> = PipelineCluster::spawn(
            params_n7(),
            pipe_cfg.clone(),
            RuntimeConfig {
                seed: 7,
                ..RuntimeConfig::default()
            },
        );
        let logs = drive(&cluster);
        cluster.shutdown();
        images.push(logs.iter().map(|l| log_bytes(l)).collect());
    }
    assert_eq!(images[0], images[1], "same-seed logs differ across runs");
}

#[test]
fn explicit_transport_construction_matches_spawn() {
    // The `Transport` seam is public: building the in-process plane by
    // hand (as a custom runtime would) behaves like `spawn`.
    let params = Params::from_d(4, 1, Duration::from_millis(20), 0).unwrap();
    let pipe_cfg = PipelineConfig::new(NodeId::new(0), &params);
    let cluster: PipelineCluster<u64> =
        PipelineCluster::spawn(params, pipe_cfg, RuntimeConfig::default());
    std::thread::sleep(std::time::Duration::from_millis(20));
    for v in 0..4u64 {
        cluster.submit(v).unwrap();
    }
    cluster
        .wait_for_commits(16, std::time::Duration::from_secs(20))
        .unwrap();
    cluster.shutdown();

    // Standalone use of the seam outside a cluster: broadcast one
    // message through a bare InProcessTransport and observe delivery.
    let (tx0, rx0) = crossbeam_channel::unbounded();
    let (tx1, rx1) = crossbeam_channel::unbounded();
    let transport: InProcessTransport<SlotMsg<u64>> = InProcessTransport::start(
        RuntimeConfig::default(),
        vec![tx0, tx1],
        |from, msg: Arc<SlotMsg<u64>>| (from, msg),
    );
    use ssbyz_wire::TransportTx;
    transport
        .tx()
        .broadcast(NodeId::new(0), SlotMsg::Heartbeat { committed: 3 });
    for rx in [rx0, rx1] {
        let (from, msg) = rx
            .recv_timeout(std::time::Duration::from_secs(5))
            .expect("delivery");
        assert_eq!(from, NodeId::new(0));
        assert_eq!(*msg, SlotMsg::Heartbeat { committed: 3 });
    }
    transport.shutdown();
}
