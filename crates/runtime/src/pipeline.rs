//! Threaded wall-clock execution of the slot pipeline: a
//! [`PipelineCluster`] serves a continuous stream of client values, one
//! [`SlotPipeline`] per node thread on the host loop [`Cluster`] runs
//! too, commits applied in slot order to each node's decision log.
//!
//! The message plane is any [`Transport`] of [`SlotMsg`]: the default
//! [`InProcessTransport`] (the golden model — [`Cluster`]'s delay
//! router) or, via [`PipelineCluster::spawn_tcp`], a [`TcpTransport`]
//! of authenticated frames on a loopback mesh driven by one
//! readiness-loop reactor. Only the sending handle differs, which is
//! what lets the equivalence battery pin the two to bit-identical logs.
//!
//! [`Cluster`]: crate::Cluster
//!
//! ```no_run
//! use ssbyz_core::{Params, PipelineConfig};
//! use ssbyz_runtime::{PipelineCluster, RuntimeConfig};
//! use ssbyz_types::{Duration, NodeId};
//!
//! let params = Params::from_d(4, 1, Duration::from_millis(20), 0)?;
//! let pipe_cfg = PipelineConfig::new(NodeId::new(0), &params);
//! let cluster: PipelineCluster<u64> =
//!     PipelineCluster::spawn(params, pipe_cfg, RuntimeConfig::default());
//! for v in 0..8u64 {
//!     cluster.submit(v)?;
//! }
//! cluster.wait_for_commits(4 * 8, std::time::Duration::from_secs(10))?;
//! cluster.shutdown();
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

use std::sync::Arc;
use std::time::Duration as StdDuration;

use ssbyz_core::{LocalTime, Params, PipeEvent, PipelineConfig, SlotMsg, SlotPipeline};
use ssbyz_types::{NodeId, Value};
use ssbyz_wire::{TcpTransport, Transport, WireConfig, WireValue};

use crate::{ClusterError, Cmd, Host, Hosted, InProcessTransport, RuntimeConfig};

/// One slot commit observed on the cluster: `node` applied `value` at
/// `slot` in its replicated log, `elapsed` after cluster start.
#[derive(Debug, Clone)]
pub struct CommitRecord<V> {
    /// The committing node.
    pub node: NodeId,
    /// The slot number (per-node logs are gap-free and in slot order).
    pub slot: u64,
    /// The decided value (shared wire handle, no deep copy).
    pub value: Arc<V>,
    /// Wall-clock time since cluster start.
    pub elapsed: StdDuration,
}

impl<V: Value> Hosted for SlotPipeline<V> {
    type Cmd = V;
    type Record = CommitRecord<V>;

    fn command(&mut self, now: LocalTime, value: V, buf: &mut Self::Buf) {
        self.enqueue(value);
        self.pump(now, buf);
    }

    /// Per-slot protocol events and catch-up adoptions are interior
    /// progress; the committed prefix is the API.
    fn record(node: NodeId, event: PipeEvent<V>, elapsed: StdDuration) -> Option<Self::Record> {
        match event {
            PipeEvent::Committed { slot, value } => Some(CommitRecord {
                node,
                slot,
                value,
                elapsed,
            }),
            _ => None,
        }
    }
}

/// A live cluster of slot-pipeline threads serving a value stream,
/// generic over its message plane (`T`). `spawn` keeps the in-process
/// router; [`PipelineCluster::spawn_tcp`] runs the same node threads
/// over the authenticated TCP reactor.
pub struct PipelineCluster<V: Value, T: Transport<SlotMsg<V>> = InProcessTransport<SlotMsg<V>>> {
    host: Host<SlotPipeline<V>, T>,
    proposer: NodeId,
}

impl<V: Value> PipelineCluster<V> {
    /// Spawns `params.n()` pipeline threads plus the in-process delay
    /// router. `pipe_cfg` configures every node's multiplexer (same
    /// window, retry and catch-up policy cluster-wide).
    #[must_use]
    pub fn spawn(params: Params, pipe_cfg: PipelineConfig, cfg: RuntimeConfig) -> Self {
        PipelineCluster {
            proposer: pipe_cfg.proposer,
            host: Host::in_process(params.n(), cfg, |id| {
                SlotPipeline::new(id, params, pipe_cfg.clone())
            }),
        }
    }
}

impl<V: Value + WireValue> PipelineCluster<V, TcpTransport<V>> {
    /// Spawns `params.n()` pipeline threads over the authenticated TCP
    /// loopback mesh: binds the listener, performs the MAC'd
    /// handshakes, and starts the readiness-loop reactor. `tick` is the
    /// node engine tick (the link-delay knobs of [`RuntimeConfig`] do
    /// not apply — loopback latency is whatever the kernel provides).
    ///
    /// # Errors
    ///
    /// Propagates socket errors from binding or connecting the mesh.
    pub fn spawn_tcp(
        params: Params,
        pipe_cfg: PipelineConfig,
        tick: ssbyz_types::Duration,
        wire: WireConfig,
    ) -> std::io::Result<Self> {
        let n = params.n();
        Ok(PipelineCluster {
            proposer: pipe_cfg.proposer,
            host: Host::spawn(
                n,
                tick,
                |id| SlotPipeline::new(id, params, pipe_cfg.clone()),
                |delivery| TcpTransport::start(n, wire, delivery, Cmd::Deliver),
            )?,
        })
    }
}

impl<V: Value, T: Transport<SlotMsg<V>>> PipelineCluster<V, T> {
    /// Number of nodes.
    #[must_use]
    pub fn n(&self) -> usize {
        self.host.cmd_txs.len()
    }

    /// The running transport instance (reactor statistics, raw-byte
    /// injection hooks on the TCP plane).
    #[must_use]
    pub fn transport(&self) -> &T {
        &self.host.transport
    }

    /// Enqueues `value` on the proposer's stream; it will be batched
    /// into the next open slot the window allows.
    ///
    /// # Errors
    ///
    /// [`ClusterError::Shutdown`] if the proposer thread has exited.
    pub fn submit(&self, value: V) -> Result<(), ClusterError> {
        self.host.command(self.proposer, value)
    }

    /// Injects a raw slot message with a forged sender (adversary
    /// testing). On the in-process plane it is one unicast with a
    /// sampled link delay; on the TCP plane it is stamped with the
    /// *claimed sender's own* link keys — an insider Byzantine node,
    /// which may say anything but can never forge another node's MAC.
    ///
    /// # Errors
    ///
    /// [`ClusterError::Shutdown`] if the cluster is no longer live.
    pub fn inject(&self, from: NodeId, to: NodeId, msg: SlotMsg<V>) -> Result<(), ClusterError> {
        self.host.inject(from, to, msg)
    }

    /// Snapshot of all commit records so far, in observation order.
    #[must_use]
    pub fn commits(&self) -> Vec<CommitRecord<V>> {
        self.host.records.lock().clone()
    }

    /// Per-node committed logs, each in slot order.
    #[must_use]
    pub fn committed_logs(&self) -> Vec<Vec<(u64, Arc<V>)>> {
        let mut logs: Vec<Vec<(u64, Arc<V>)>> = vec![Vec::new(); self.n()];
        for c in self.commits() {
            logs[c.node.index()].push((c.slot, c.value));
        }
        logs
    }

    /// Waits (up to `timeout`) until `count` commit records exist
    /// across the cluster.
    ///
    /// # Errors
    ///
    /// [`ClusterError::Shutdown`] as soon as any node thread has exited
    /// (the count can no longer be reached); [`ClusterError::Timeout`]
    /// if the deadline passes first.
    pub fn wait_for_commits(&self, count: usize, timeout: StdDuration) -> Result<(), ClusterError> {
        self.host
            .wait_for(timeout, |commits| commits.len() >= count)
    }

    /// Stops all threads and joins them, the transport's last.
    pub fn shutdown(self) {
        self.host.shutdown();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ssbyz_types::Duration;

    const STREAM: u64 = 8;

    #[test]
    fn pipeline_cluster_serves_a_stream_in_slot_order() {
        let params = Params::from_d(4, 1, Duration::from_millis(20), 0).unwrap();
        let pipe_cfg = PipelineConfig::new(NodeId::new(0), &params).with_window(4);
        let cluster: PipelineCluster<u64> =
            PipelineCluster::spawn(params, pipe_cfg, RuntimeConfig::default());
        std::thread::sleep(std::time::Duration::from_millis(30));
        for v in 0..STREAM {
            cluster.submit(500 + v).unwrap();
        }
        assert_eq!(
            cluster.wait_for_commits(4 * STREAM as usize, std::time::Duration::from_secs(20)),
            Ok(()),
            "commits: {:?}",
            cluster.commits().len()
        );
        let logs = cluster.committed_logs();
        for (i, log) in logs.iter().enumerate() {
            assert_eq!(log.len(), STREAM as usize, "node {i} missing commits");
            for (slot, (got_slot, got_val)) in log.iter().enumerate() {
                assert_eq!(*got_slot, slot as u64, "node {i} out of slot order");
                assert_eq!(**got_val, 500 + slot as u64, "node {i} wrong value");
            }
        }
        cluster.shutdown();
    }

    #[test]
    fn pipeline_cluster_shutdown_is_clean_without_traffic() {
        let params = Params::from_d(4, 1, Duration::from_millis(20), 0).unwrap();
        let pipe_cfg = PipelineConfig::new(NodeId::new(0), &params);
        let cluster: PipelineCluster<u64> =
            PipelineCluster::spawn(params, pipe_cfg, RuntimeConfig::default());
        std::thread::sleep(std::time::Duration::from_millis(20));
        assert!(cluster.commits().is_empty());
        cluster.shutdown();
    }

    #[test]
    fn forged_slot_initiator_does_not_commit() {
        use ssbyz_core::Msg;
        let params = Params::from_d(4, 1, Duration::from_millis(20), 0).unwrap();
        let pipe_cfg = PipelineConfig::new(NodeId::new(0), &params);
        let cluster: PipelineCluster<u64> =
            PipelineCluster::spawn(params, pipe_cfg, RuntimeConfig::default());
        std::thread::sleep(std::time::Duration::from_millis(20));
        cluster
            .inject(
                NodeId::new(2),
                NodeId::new(3),
                SlotMsg::Slot {
                    slot: 0,
                    attempt: 0,
                    inner: Msg::Initiator {
                        general: NodeId::new(1),
                        value: Arc::new(9),
                    },
                },
            )
            .unwrap();
        std::thread::sleep(std::time::Duration::from_millis(150));
        assert!(cluster.commits().is_empty());
        cluster.shutdown();
    }

    #[test]
    fn tcp_pipeline_cluster_serves_a_stream() {
        let params = Params::from_d(4, 1, Duration::from_millis(20), 0).unwrap();
        let pipe_cfg = PipelineConfig::new(NodeId::new(0), &params).with_window(4);
        let cluster: PipelineCluster<u64, TcpTransport<u64>> = PipelineCluster::spawn_tcp(
            params,
            pipe_cfg,
            Duration::from_millis(5),
            WireConfig::from_seed(7),
        )
        .expect("loopback mesh");
        std::thread::sleep(std::time::Duration::from_millis(30));
        for v in 0..STREAM {
            cluster.submit(900 + v).unwrap();
        }
        assert_eq!(
            cluster.wait_for_commits(4 * STREAM as usize, std::time::Duration::from_secs(20)),
            Ok(()),
            "commits: {:?}",
            cluster.commits().len()
        );
        let logs = cluster.committed_logs();
        for (i, log) in logs.iter().enumerate() {
            assert_eq!(log.len(), STREAM as usize, "node {i} missing commits");
            for (slot, (got_slot, got_val)) in log.iter().enumerate() {
                assert_eq!(*got_slot, slot as u64, "node {i} out of slot order");
                assert_eq!(**got_val, 900 + slot as u64, "node {i} wrong value");
            }
        }
        let stats = cluster.transport().stats();
        assert!(stats.frames_delivered > 0, "no frames crossed the wire");
        assert_eq!(stats.rejected_mac, 0, "clean run rejected frames");
        cluster.shutdown();
    }

    #[test]
    fn wait_for_commits_reports_timeout_not_false() {
        let params = Params::from_d(4, 1, Duration::from_millis(20), 0).unwrap();
        let pipe_cfg = PipelineConfig::new(NodeId::new(0), &params);
        let cluster: PipelineCluster<u64> =
            PipelineCluster::spawn(params, pipe_cfg, RuntimeConfig::default());
        assert_eq!(
            cluster.wait_for_commits(1, std::time::Duration::from_millis(50)),
            Err(ClusterError::Timeout)
        );
        cluster.shutdown();
    }
}
