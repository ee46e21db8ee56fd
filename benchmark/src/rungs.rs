//! Layers timed in isolation, at the sizes the workloads use them at.
//! Each rung calls only the layer's public functions.

use std::collections::VecDeque;
use std::hint::black_box;
use std::sync::Arc;
use std::time::{Duration as StdDuration, Instant};

use crossbeam_channel::unbounded;
use ssbyz_core::store::ArrivalLog;
use ssbyz_core::{PipeEvent, PipeOutput, PipelineConfig, SlotMsg, SlotPipeline};
use ssbyz_sched::{EventQueue, TimerWheel};
use ssbyz_types::{Duration, LocalTime, NodeId};
use ssbyz_wire::frame::{next_frame, verify_frame, write_frame, Framing, LEN_PREFIX};
use ssbyz_wire::{
    decode_slot_msg, encode_slot_msg, mac, MacKey, TcpTransport, Transport, TransportTx,
    WireConfig, DEFAULT_MAX_FRAME, WIRE_VERSION,
};

use crate::stats;
use crate::trace::{Site, Tracer};
use crate::workloads::tcp::{self, Payload};

/// Repeats of a closed-form rung; the median is reported.
const REPS: usize = 5;

fn median_ns_per_iter(iters: u64, mut pass: impl FnMut(u64)) -> f64 {
    let samples: Vec<f64> = (0..REPS)
        .map(|_| {
            let t = Instant::now();
            pass(iters);
            t.elapsed().as_nanos() as f64 / iters as f64
        })
        .collect();
    stats::median(&samples).expect("REPS > 0")
}

/// `core.store`: one steady-state protocol step against the arrival
/// log — record an arrival, ask the quorum-window question, prune on a
/// cadence — with `n` senders each holding a full history.
pub fn store_record_query_ns(n: usize, iters: u64) -> f64 {
    let mut log = ArrivalLog::new();
    for i in 0..(n as u64 * ArrivalLog::MAX_PER_SENDER as u64) {
        log.record(
            LocalTime::from_nanos(1 + i * 997),
            NodeId::new((i % n as u64) as u32),
        );
    }
    let mut t = n as u64 * 8 * 997;
    median_ns_per_iter(iters, |iters| {
        for _ in 0..iters {
            t += 1_000;
            let now = LocalTime::from_nanos(t);
            log.record(now, NodeId::new((t / 1_000 % n as u64) as u32));
            black_box(log.distinct_in_window(now, Duration::from_nanos(40_000)));
            if t.is_multiple_of(64_000) {
                log.prune(now, Duration::from_nanos(100_000));
            }
        }
    })
}

/// `sched`: pop the next event and schedule its successor a jittered
/// link delay later, with `depth` events pending throughout — what the
/// simulator's queue does per delivery on jittered links.
pub fn sched_insert_pop_ns(depth: usize, seed: u64, iters: u64) -> f64 {
    let (lo, hi) = (500_000u64, 9_000_000u64);
    let mut x = seed | 1;
    let mut delay = move || {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        lo + x % (hi - lo)
    };
    let mut wheel: TimerWheel<u64> = TimerWheel::for_span_hint(hi);
    for i in 0..depth.max(1) as u64 {
        wheel.insert(delay(), i);
    }
    median_ns_per_iter(iters, |iters| {
        for _ in 0..iters {
            let e = wheel.pop().expect("depth stays constant");
            wheel.insert(e.due + delay(), black_box(e.payload));
        }
    })
}

/// What the wire ladder measured, by per-layer metric name.
pub type Rungs = Vec<(&'static str, f64)>;

enum InFlight {
    /// A framed, MAC'd message on the `from → to` link.
    Frame(Vec<u8>),
    /// A node's own broadcast copy: codec bytes, no frame.
    OwnCopy(Vec<u8>),
}

/// `wire` ladder: the `tcp-*` cluster's pipelines driven on one thread,
/// every message taking the wire path by hand — `encode_slot_msg` →
/// `write_frame` → `next_frame`/`verify_frame` → `decode_slot_msg` →
/// `SlotPipeline::on_message` — each call in a span of its own. No
/// sockets, channels, threads or waiting: what is left is the CPU the
/// layers themselves need for one decision. Time is synthetic (2 µs
/// per delivery, a tick every 5 ms of it).
pub fn wire_ladder<V: Payload>(
    shape: &tcp::Shape,
    seed: u64,
    slots: u64,
    tracer: &Arc<Tracer>,
) -> Result<Rungs, String> {
    let n = shape.n;
    let params = shape.params();
    let cfg = PipelineConfig::new(NodeId::new(0), &params).with_window(shape.window);
    let master = WireConfig::from_seed(seed).master_key;
    let id = |i: usize| NodeId::new(i as u32);
    let keys: Vec<Vec<MacKey>> = (0..n)
        .map(|a| {
            (0..n)
                .map(|b| MacKey::derive_link(&master, id(a), id(b)))
                .collect()
        })
        .collect();
    let mut pipes: Vec<SlotPipeline<V>> = (0..n)
        .map(|i| SlotPipeline::new(id(i), params, cfg.clone()))
        .collect();

    let mut queue: VecDeque<(usize, usize, InFlight)> = VecDeque::new();
    let mut spare: Vec<Vec<u8>> = Vec::new();
    let mut payload: Vec<u8> = Vec::new();
    let mut committed = vec![0u64; n];
    let (mut frames, mut frame_bytes) = (0u64, 0u64);

    // Turns one node's outputs into in-flight messages.
    let mut emit = |from: usize,
                    out: &mut Vec<PipeOutput<V>>,
                    queue: &mut VecDeque<(usize, usize, InFlight)>,
                    spare: &mut Vec<Vec<u8>>,
                    committed: &mut Vec<u64>| {
        for o in out.drain(..) {
            let (msg, only) = match o {
                PipeOutput::Broadcast(msg) => (msg, None),
                PipeOutput::Send(to, msg) => (msg, Some(to.index())),
                PipeOutput::Event(PipeEvent::Committed { .. }) => {
                    committed[from] += 1;
                    continue;
                }
                // The tick below stands in for precise wake-ups.
                PipeOutput::WakeAt(_) | PipeOutput::Event(_) => continue,
            };
            payload.clear();
            tracer.span(Site::CodecEncode, 1, || encode_slot_msg(&msg, &mut payload));
            for (to, key) in keys[from].iter().enumerate() {
                if only.is_some_and(|o| o != to) {
                    continue;
                }
                let mut buf = spare.pop().unwrap_or_default();
                buf.clear();
                if to == from {
                    buf.extend_from_slice(&payload);
                    queue.push_back((from, to, InFlight::OwnCopy(buf)));
                    continue;
                }
                tracer.span(Site::FrameWrite, 1, || {
                    write_frame(&mut buf, key, id(from), &payload)
                });
                // The MAC pass alone, over the same bytes `write_frame`
                // just tagged: an isolated rung, not part of the path.
                let from_bytes = id(from).as_u32().to_le_bytes();
                tracer.span(Site::MacTag, 1, || {
                    black_box(mac::mac(key, &[&[WIRE_VERSION], &from_bytes, &payload]))
                });
                frames += 1;
                frame_bytes += buf.len() as u64;
                queue.push_back((from, to, InFlight::Frame(buf)));
            }
        }
    };

    let mut out: Vec<PipeOutput<V>> = Vec::new();
    let mut now_ns = 1_000_000u64;
    let tick_ns = shape.tick.as_nanos();
    let mut next_tick = now_ns + tick_ns;
    for i in 0..slots {
        pipes[0].enqueue(V::make(seed, i));
    }
    tracer.keep_spans(true);
    pipes[0].pump(LocalTime::from_nanos(now_ns), &mut out);
    emit(0, &mut out, &mut queue, &mut spare, &mut committed);
    while let Some((from, to, flight)) = queue.pop_front() {
        // Full spans for the first window of slots only.
        if committed[0] == shape.window {
            tracer.keep_spans(false);
        }
        tracer.set_op(committed[0]);
        now_ns += 2_000;
        let now = LocalTime::from_nanos(now_ns);
        if now_ns >= next_tick {
            next_tick += tick_ns;
            for (node, pipe) in pipes.iter_mut().enumerate() {
                pipe.on_tick(now, &mut out);
                emit(node, &mut out, &mut queue, &mut spare, &mut committed);
            }
        }
        let (bytes, decoded) = match flight {
            InFlight::OwnCopy(bytes) => {
                let m = tracer.span(Site::CodecDecode, 1, || decode_slot_msg::<V>(&bytes));
                (bytes, m)
            }
            InFlight::Frame(bytes) => {
                let verified = tracer.span(Site::FrameVerify, 1, || {
                    match next_frame(&bytes, DEFAULT_MAX_FRAME) {
                        Framing::Complete { len } => verify_frame(
                            &bytes[LEN_PREFIX..LEN_PREFIX + len],
                            id(from),
                            &keys[from][to],
                        )
                        .map_err(|e| format!("{e:?}")),
                        _ => Err("own frame does not frame".into()),
                    }
                });
                let body =
                    verified.map_err(|e| format!("ladder frame {from}→{to} rejected: {e}"))?;
                let m = tracer.span(Site::CodecDecode, 1, || decode_slot_msg::<V>(body));
                (bytes, m)
            }
        };
        let msg: SlotMsg<V> = decoded.map_err(|e| format!("ladder decode {from}→{to}: {e:?}"))?;
        tracer.span(Site::LadderPipeline, 1, || {
            pipes[to].on_message(now, id(from), &msg, &mut out);
        });
        emit(to, &mut out, &mut queue, &mut spare, &mut committed);
        spare.push(bytes);
    }
    tracer.keep_spans(false);
    if committed.iter().any(|c| *c != slots) {
        return Err(format!("ladder committed {committed:?} of {slots} slots"));
    }

    let per_frame = |site: Site| {
        let s = tracer.sum(site);
        s.total_ns / s.count.max(1) as f64
    };
    let path: f64 = [
        Site::CodecEncode,
        Site::FrameWrite,
        Site::FrameVerify,
        Site::CodecDecode,
        Site::LadderPipeline,
    ]
    .iter()
    .map(|s| tracer.sum(*s).total_ns)
    .sum();
    Ok(vec![
        (
            "core.pipeline.ns_per_decision",
            tracer.sum(Site::LadderPipeline).total_ns / slots as f64,
        ),
        (
            "wire.codec.encode_ns_per_frame",
            per_frame(Site::CodecEncode),
        ),
        (
            "wire.codec.decode_ns_per_frame",
            per_frame(Site::CodecDecode),
        ),
        ("wire.mac.ns_per_frame", per_frame(Site::MacTag)),
        ("wire.frame.write_ns_per_frame", per_frame(Site::FrameWrite)),
        (
            "wire.frame.verify_ns_per_frame",
            per_frame(Site::FrameVerify),
        ),
        (
            "wire.frame.bytes_per_frame",
            frame_bytes as f64 / frames.max(1) as f64,
        ),
        ("wire.ladder_us_per_decision", path / 1e3 / slots as f64),
    ])
}

/// `wire.reactor`: the transport alone. Every node broadcasts
/// heartbeats into a live [`TcpTransport`] whose deliveries land in
/// channels this thread drains; no pipeline, no protocol. Wall time
/// per delivered message with the reactor kept busy: its loop, the
/// sockets and the channel hand-offs on top of codec, MAC and framing.
pub fn reactor_ns_per_frame(n: usize, seed: u64, broadcasts: u64) -> Result<f64, String> {
    let mut txs = Vec::new();
    let mut rxs = Vec::new();
    for _ in 0..n {
        let (tx, rx) = unbounded::<Arc<SlotMsg<u64>>>();
        txs.push(tx);
        rxs.push(rx);
    }
    let transport: TcpTransport<u64> =
        TcpTransport::start(n, WireConfig::from_seed(seed), txs, |_from, msg| msg)
            .map_err(|e| format!("reactor rung: {e}"))?;
    let tx = transport.tx();
    let mut samples = Vec::new();
    let mut failure = None;
    for rep in 0..REPS as u64 {
        let expected = broadcasts * n as u64;
        let deadline = Instant::now() + StdDuration::from_secs(10);
        let t = Instant::now();
        for b in 0..broadcasts {
            let from = NodeId::new((b % n as u64) as u32);
            tx.broadcast(
                from,
                SlotMsg::Heartbeat {
                    committed: rep * broadcasts + b,
                },
            );
        }
        let mut got = 0u64;
        while got < expected {
            let before = got;
            for rx in &rxs {
                while rx.try_recv().is_ok() {
                    got += 1;
                }
            }
            if got == before {
                if Instant::now() > deadline {
                    failure = Some(format!("reactor rung delivered {got} of {expected}"));
                    break;
                }
                std::thread::yield_now();
            }
        }
        samples.push(t.elapsed().as_nanos() as f64 / expected as f64);
        if failure.is_some() {
            break;
        }
    }
    let rejected = {
        let s = transport.stats();
        s.rejected_mac + s.rejected_header + s.rejected_decode
    };
    drop(tx);
    transport.shutdown();
    match failure {
        Some(f) => Err(f),
        None if rejected > 0 => Err(format!(
            "reactor rung rejected {rejected} of its own frames"
        )),
        None => Ok(stats::median(&samples).expect("REPS > 0")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workloads::named;

    #[test]
    fn closed_form_rungs_give_positive_times() {
        assert!(store_record_query_ns(16, 20_000) > 0.0);
        assert!(sched_insert_pop_ns(64, 9, 20_000) > 0.0);
    }

    #[test]
    fn the_ladder_commits_every_slot_on_every_node() {
        let tracer = Tracer::new();
        let rungs = wire_ladder::<u64>(&tcp::Shape::PACED, 5, 40, &tracer).unwrap();
        let get = |name: &str| named(&rungs, name).unwrap();
        for (name, value) in &rungs {
            assert!(*value > 0.0, "{name} = {value}");
        }
        // One frame carries a header, a tag and a few varints.
        assert!(
            get("wire.frame.bytes_per_frame") > 25.0 && get("wire.frame.bytes_per_frame") < 64.0
        );
        let blob = wire_ladder::<Vec<u8>>(&tcp::Shape::FLOOD, 5, 16, &Tracer::new()).unwrap();
        let bytes = named(&blob, "wire.frame.bytes_per_frame").unwrap();
        assert!(bytes > 512.0, "1 KiB values dominate the frame: {bytes}");
        assert!(tracer.spans_kept() > 0);
    }

    #[test]
    fn the_reactor_rung_delivers_every_broadcast() {
        assert!(reactor_ns_per_frame(4, 5, 200).unwrap() > 0.0);
    }
}
