//! `tcp-n4-paced` and `tcp-n4-flood-1k`: the slot pipeline on real
//! threads over the authenticated loopback mesh, driven by one
//! load-generator thread. n=4 f=1 is the smallest Byzantine-tolerant
//! cluster: 4 node threads and 1 reactor over 6 connections — more
//! threads than this host has cores, and stated for that reason. The
//! generator itself adds one.

use std::time::{Duration as StdDuration, Instant};

use ssbyz_core::{Params, PipelineConfig};
use ssbyz_runtime::{ClusterError, PipelineCluster};
use ssbyz_types::{Duration, NodeId, Value};
use ssbyz_wire::{TcpTransport, WireConfig, WireStats, WireValue};

use super::{derive, spanned, Outcome, Region, Trace};
use crate::stats;
use crate::trace::Site;

/// A value type the cluster can agree on and the benchmark can make
/// from a seed.
pub trait Payload: Value + WireValue {
    fn make(seed: u64, index: u64) -> Self;
}

impl Payload for u64 {
    fn make(seed: u64, index: u64) -> u64 {
        derive(seed, index)
    }
}

/// Bytes per flood value.
pub const BLOB_LEN: usize = 1024;

impl Payload for Vec<u8> {
    fn make(seed: u64, index: u64) -> Vec<u8> {
        // xorshift64 from a per-value seed; never zero.
        let mut x = derive(seed, index) | 1;
        let mut v = Vec::with_capacity(BLOB_LEN);
        while v.len() < BLOB_LEN {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            v.extend_from_slice(&x.to_le_bytes());
        }
        v
    }
}

#[derive(Debug, Clone, Copy)]
pub enum Load {
    /// Open loop: one value every `1/per_sec` seconds; latency runs
    /// from each value's due instant, sent on time or not.
    Paced { per_sec: u64 },
    /// Closed loop: the next value goes the moment `Shape::lead` allows;
    /// latency runs from the send.
    Flood,
}

#[derive(Debug, Clone, Copy)]
pub struct Shape {
    pub n: usize,
    pub f: usize,
    pub d: Duration,
    pub window: u64,
    pub tick: Duration,
    pub load: Load,
    /// Values the client may be ahead, under either load: it submits
    /// slot s once the nodes' commit counts add up to n·(s − lead + 1).
    pub lead: usize,
    /// Quiet time after spawn so heartbeats flow before the first value.
    pub settle: StdDuration,
    /// How long the cluster may take to commit what it was handed: the
    /// longest the client waits for room, and the wait after the last
    /// value. More than `retry_after`, so one stalled slot is a slow
    /// slot, not a failed one.
    pub drain: StdDuration,
    pub setups: usize,
}

impl Shape {
    /// `d` is the bound on delivery plus processing the cluster is told
    /// to assume, and the host has to keep it: with a slot in flight, a
    /// process that is not scheduled for more than about 2d can leave
    /// the proposer the only node that decided it, which this pipeline
    /// never repairs (README, sizing findings). A shared host stops a
    /// guest for tens of milliseconds as a matter of course and for
    /// hundreds now and then, so `d` is 500 ms, not the 10 ms loopback
    /// would allow; decisions follow the actual delivery, not `d`, and
    /// cost the same under either.
    ///
    /// `lead` is 4: a node drops traffic for slots a full window past
    /// its own commits, a slot more than f nodes dropped stalls, and 4
    /// is the largest lead at which no more than f nodes can be that
    /// far behind: (f+1)·window > n·(lead−1). It still keeps both
    /// cores busy: the closed loop commits as fast at 4 as at 64.
    ///
    /// The open loop offers 1600 values/s, two thirds of what the
    /// cluster sustains. At 1000/s it idles between slots, a decision
    /// is a chain of eight thread wake-ups, and what a wake-up costs in
    /// this guest changes by the minute: run to run, latency and CPU
    /// per decision spread two to four times wider than at 1600/s,
    /// where the next value arrives as the last one commits.
    const BASE: Shape = Shape {
        n: 4,
        f: 1,
        d: Duration::from_millis(500),
        window: 8,
        tick: Duration::from_millis(5),
        load: Load::Paced { per_sec: 1600 },
        lead: 4,
        settle: StdDuration::from_millis(100),
        drain: StdDuration::from_secs(30),
        setups: 5,
    };
    pub const PACED: Shape = Shape::BASE;
    pub const FLOOD: Shape = Shape {
        load: Load::Flood,
        ..Shape::BASE
    };

    pub fn params(&self) -> Params {
        Params::from_d(self.n, self.f, self.d, 0).expect("n > 3f")
    }
}

type Cluster<V> = PipelineCluster<V, TcpTransport<V>>;

fn rejected(s: &WireStats) -> u64 {
    s.rejected_mac + s.rejected_header + s.rejected_decode
}

pub fn run<V: Payload>(shape: &Shape, seed: u64, secs: f64, trace: Trace<'_>) -> Outcome {
    let mut out = Outcome::default();
    let params = shape.params();
    let pipe_cfg = PipelineConfig::new(NodeId::new(0), &params).with_window(shape.window);
    let retry_after_s = (params.delta_agr() + params.d() * 4u64).as_secs_f64();
    let (n, quorum) = (shape.n, shape.n - shape.f);

    // Every set-up but the last is torn down again; the last one serves.
    let mut live: Option<(Cluster<V>, Instant)> = None;
    for k in 0..shape.setups.max(1) {
        if let Some((old, _)) = live.take() {
            old.shutdown();
        }
        let wire = WireConfig::from_seed(derive(seed, u64::MAX - k as u64));
        let t = Instant::now();
        // `spawn_tcp` stamps the cluster's epoch on its first line;
        // `CommitRecord::elapsed` counts from there.
        let epoch = Instant::now();
        let cluster: Cluster<V> = spanned(trace, Site::RuntimeSpawn, 0, || {
            PipelineCluster::spawn_tcp(params, pipe_cfg.clone(), shape.tick, wire)
        })
        .expect("loopback mesh comes up");
        std::thread::sleep(shape.settle);
        out.setup_s.push(t.elapsed().as_secs_f64());
        live = Some((cluster, epoch));
    }
    let (cluster, epoch) = live.expect("at least one set-up");

    if let Some(t) = trace {
        t.keep_spans(true);
    }
    // Per value: the instant its latency counts from (due when paced,
    // sent when closed-loop) and the instant it was actually sent,
    // both in seconds after `t0`.
    let mut from_s: Vec<f64> = Vec::new();
    let mut sent_s: Vec<f64> = Vec::new();
    let stats0 = cluster.transport().stats();
    let region = Region::begin(secs);
    let t0 = region.start();
    let mut send = |from: Option<f64>| -> Result<(), ClusterError> {
        let index = from_s.len() as u64;
        if let Some(t) = trace {
            t.set_op(index);
        }
        let now = t0.elapsed().as_secs_f64();
        from_s.push(from.unwrap_or(now));
        sent_s.push(now);
        spanned(trace, Site::RuntimeSubmit, 1, || {
            cluster.submit(V::make(seed, index))
        })
    };
    // Blocks until the nodes have committed `back` slots on average.
    // The cluster's own wait sleeps 2 ms between looks; this one, 100 µs.
    let hold = |back: usize| -> Result<(), ClusterError> {
        let since = Instant::now();
        loop {
            match cluster.wait_for_commits(n * back, StdDuration::ZERO) {
                Err(ClusterError::Timeout) if since.elapsed() < shape.drain => {
                    std::thread::sleep(StdDuration::from_micros(100));
                }
                other => return other,
            }
        }
    };
    let generated: Result<(), ClusterError> = (|| {
        for i in 0usize.. {
            let due_s = match shape.load {
                Load::Paced { per_sec } => {
                    let due_s = i as f64 / per_sec as f64;
                    if due_s >= secs {
                        break;
                    }
                    let due_at = t0 + StdDuration::from_secs_f64(due_s);
                    let now = Instant::now();
                    if due_at > now {
                        std::thread::sleep(due_at - now);
                    }
                    Some(due_s)
                }
                Load::Flood if region.over() => break,
                Load::Flood => None,
            };
            spanned(trace, Site::RuntimeWait, 1, || {
                hold((i + 1).saturating_sub(shape.lead))
            })?;
            send(due_s)?;
        }
        Ok(())
    })();
    let total = from_s.len();
    // A generator that gave up waiting has waited long enough.
    let drained = generated.is_ok()
        && spanned(trace, Site::RuntimeWait, 0, || {
            cluster.wait_for_commits(n * total, shape.drain).is_ok()
        });
    region.end(&mut out);
    let stats1 = cluster.transport().stats();
    let commits = spanned(trace, Site::RuntimeCommits, 0, || cluster.commits());
    spanned(trace, Site::RuntimeShutdown, 0, || cluster.shutdown());
    if let Err(e) = generated {
        out.fail(|| format!("load generator stopped after {total} values: {e}"));
    }

    // The gate: every node's log is gap-free and in slot order, and
    // slot k holds the k-th submitted value (so all logs are equal).
    let offset = t0.duration_since(epoch).as_secs_f64();
    let mut commit_s: Vec<Vec<f64>> = vec![Vec::new(); total];
    let mut next = vec![0u64; n];
    for c in &commits {
        let node = c.node.index();
        let in_order = c.slot == next[node];
        next[node] = c.slot + 1;
        let slot = c.slot as usize;
        if !in_order || slot >= total || *c.value != V::make(seed, c.slot) {
            out.fail(|| format!("node {node}: slot {} out of order or wrong value", c.slot));
            continue;
        }
        commit_s[slot].push(c.elapsed.as_secs_f64() - offset);
    }

    // A slot is decided when n−f nodes committed it.
    out.attempted = total as u64;
    // Decision instants by whole second of the region.
    let mut buckets: Vec<Vec<f64>> = vec![Vec::new(); secs.floor() as usize];
    let mut stalled = 0u64;
    for (slot, times) in commit_s.iter_mut().enumerate() {
        if times.len() < quorum {
            out.fail(|| {
                format!(
                    "slot {slot}: {}/{quorum} commits before the drain deadline",
                    times.len()
                )
            });
            continue;
        }
        times.sort_by(f64::total_cmp);
        let decided_s = times[quorum - 1];
        let latency_s = decided_s - from_s[slot];
        out.decisions += 1;
        out.latency_ms.push(latency_s * 1e3);
        stalled += u64::from(latency_s > retry_after_s);
        if let Some(b) = buckets.get_mut(decided_s.max(0.0) as usize) {
            b.push(decided_s);
        }
    }
    if out.failed > 0 {
        eprintln!("note: slots committed per node {next:?} of {total} submitted");
    }
    if !drained && out.failed == 0 {
        // n−f commits everywhere but a straggler node behind: allowed
        // by the gate, worth a line.
        eprintln!("note: not every node committed every slot within the drain time");
    }
    // One throughput sample per whole second: the decisions in it over
    // the span from its first to its last (a count over a fixed second
    // would read the same whole number run after run when paced).
    for b in &buckets {
        let first = b.iter().copied().fold(f64::INFINITY, f64::min);
        let last = b.iter().copied().fold(f64::NEG_INFINITY, f64::max);
        if b.len() >= 2 && last > first {
            out.rate.push((b.len() - 1) as f64 / (last - first));
        }
    }
    if out.rate.is_empty() {
        out.rate.push(out.decisions as f64 / out.wall_s);
    }

    let per = out.decisions.max(1) as f64;
    out.layer(
        "wire.frames_per_decision",
        (stats1.frames_sent - stats0.frames_sent) as f64 / per,
    );
    out.layer(
        "wire.bytes_per_decision",
        (stats1.bytes_sent - stats0.bytes_sent) as f64 / per,
    );
    out.layer(
        "wire.rejected_frames",
        (rejected(&stats1) - rejected(&stats0)) as f64,
    );
    out.layer("core.pipeline.stalled_slots", stalled as f64);
    out.layer(
        "runtime.commit_latency_p99_ms",
        stats::percentile(&out.latency_ms, 0.99).unwrap_or(0.0),
    );
    if matches!(shape.load, Load::Paced { .. }) {
        out.layer(
            "runtime.gen_late_max_ms",
            stats::max(&stats::lateness(&from_s, &sent_s)) * 1e3,
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workloads::named;

    #[test]
    fn payloads_come_from_the_seed() {
        assert_eq!(<u64 as Payload>::make(1, 5), <u64 as Payload>::make(1, 5));
        assert_ne!(<u64 as Payload>::make(1, 5), <u64 as Payload>::make(2, 5));
        let a = <Vec<u8> as Payload>::make(1, 5);
        assert_eq!(a.len(), BLOB_LEN);
        assert_eq!(a, <Vec<u8> as Payload>::make(1, 5));
        assert_ne!(a, <Vec<u8> as Payload>::make(1, 6));
        assert_ne!(a[..8], a[8..16], "not a repeated word");
    }

    #[test]
    fn the_lead_is_the_largest_that_leaves_at_most_f_nodes_a_window_behind() {
        for s in [Shape::PACED, Shape::FLOOD] {
            let (n, f, lead) = (s.n as u64, s.f as u64, s.lead as u64);
            assert!((f + 1) * s.window > n * (lead - 1));
            assert!((f + 1) * s.window <= n * lead);
        }
    }

    fn short(load: Load) -> Shape {
        Shape {
            load,
            settle: StdDuration::from_millis(30),
            setups: 2,
            ..Shape::PACED
        }
    }

    #[test]
    fn a_short_paced_run_commits_every_value_in_order() {
        let out = run::<u64>(&short(Load::Paced { per_sec: 200 }), 3, 0.3, None);
        assert_eq!(out.attempted, 60);
        assert_eq!((out.failed, out.decisions), (0, 60), "{:?}", out.problems);
        assert_eq!(out.setup_s.len(), 2);
        assert_eq!(out.latency_ms.len(), 60);
        assert!(out.latency_ms.iter().all(|l| *l > 0.0 && *l < 1000.0));
        let get = |name: &str| named(&out.layer, name).unwrap();
        assert_eq!(get("wire.rejected_frames"), 0.0);
        assert!(get("wire.frames_per_decision") > 10.0);
    }

    #[test]
    fn a_short_flood_run_keeps_the_loop_closed() {
        let out = run::<Vec<u8>>(&short(Load::Flood), 3, 0.2, None);
        assert!(out.attempted >= 4);
        assert_eq!(out.failed, 0, "{:?}", out.problems);
        assert_eq!(out.decisions, out.attempted);
        let get = |name: &str| named(&out.layer, name).unwrap();
        assert!(get("wire.bytes_per_decision") > BLOB_LEN as f64);
    }
}
