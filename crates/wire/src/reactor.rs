//! A hand-rolled readiness-loop TCP transport.
//!
//! One reactor thread owns every socket of the cluster: `n(n−1)/2`
//! duplex loopback connections (one per unordered node pair, each
//! direction MAC'd with its own directed link key) plus the command
//! channel the node threads push outbound traffic through. The loop is
//! poll-style over non-blocking `std::net` sockets — no `epoll`/`mio`
//! (no registry access in this build), just a bounded block on the
//! command channel, then one turn that flushes every write buffer and
//! reads the endpoints that bytes were written to. This replaces the
//! one-thread-per-link design a naive blocking implementation would
//! need (`2·n(n−1)` reader/writer threads at n = 16) with exactly one
//! I/O thread.
//!
//! Outbound per-frame work runs on the sending node's thread: [`TcpTx`]
//! encodes a message once and MACs one frame per destination, so the
//! reactor only queues ready bytes. The receive path stays on the
//! reactor and is strictly **reject-before-parse** (see
//! [`crate::frame`]); per-frame outcomes are tallied in [`WireStats`].
//! Equal values share one allocation (a small ring of recent values,
//! fed each sender's own `Arc` before its own copy is decoded), so
//! every node's log, the proposer's too, holds one `Arc` per slot.
//!
//! For the byte-level corruption adversary, the reactor can tamper with
//! outbound frames as it queues them ([`CorruptConfig`]): bit flips,
//! truncations (length-consistent, so stream framing survives), replays
//! of recent frames, and MAC forgeries — everything the acceptance
//! battery needs to demonstrate zero forged commits and zero panics.

use std::collections::{HashMap, VecDeque};
use std::io::{Read, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Instant;

use crossbeam_channel::{unbounded, Receiver, RecvTimeoutError, Sender, TryRecvError};
use parking_lot::Mutex;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use ssbyz_core::{Msg, SlotMsg};
use ssbyz_types::{NodeId, Value};

use crate::codec::{decode_slot_msg, encode_slot_msg, WireValue};
use crate::frame::{
    hello_payload, next_frame, parse_hello, verify_frame, write_frame, FrameReject, Framing,
    DEFAULT_MAX_FRAME, HEADER_LEN, HELLO_LEN, LEN_PREFIX,
};
use crate::mac::{mac, MacKey, KEY_LEN};
use crate::transport::{Transport, TransportTx};

/// How many recent outbound frames each link retains for the replay
/// corruption mode.
const REPLAY_DEPTH: usize = 4;

/// How many recently decoded values the reactor keeps for sharing.
const VALUE_RING: usize = 16;

/// Wire-transport configuration.
#[derive(Debug, Clone)]
pub struct WireConfig {
    /// Cluster master secret; directed per-link keys are derived from
    /// it (every node of a co-located test cluster shares it — in a
    /// real deployment each pair would provision its own link key).
    pub master_key: [u8; KEY_LEN],
    /// Period of the full sweep: at least this often, busy or idle, the
    /// reactor reads every endpoint, not only those written to in the
    /// turn. It is also the longest a quiet reactor waits for a command.
    pub poll_interval: std::time::Duration,
    /// Frames with a bigger body are rejected at the length prefix.
    pub max_frame: u32,
    /// Optional outbound byte-corruption adversary.
    pub corrupt: Option<CorruptConfig>,
}

impl WireConfig {
    /// Config with a master key derived from `seed` (the MAC under the
    /// all-zero key, so anyone who knows the seed knows the key: seeded
    /// configs are for tests and the benchmark) and no corruption.
    #[must_use]
    pub fn from_seed(seed: u64) -> Self {
        let zero = MacKey::from_bytes([0; KEY_LEN]);
        WireConfig {
            master_key: mac(&zero, &[b"ssbyz-wire-master", &seed.to_le_bytes()]),
            poll_interval: std::time::Duration::from_micros(200),
            max_frame: DEFAULT_MAX_FRAME,
            corrupt: None,
        }
    }

    /// Arms the outbound corruption adversary.
    #[must_use]
    pub fn with_corruption(mut self, corrupt: CorruptConfig) -> Self {
        self.corrupt = Some(corrupt);
        self
    }
}

impl Default for WireConfig {
    fn default() -> Self {
        WireConfig::from_seed(0)
    }
}

/// One way to tamper with an outbound frame.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CorruptMode {
    /// Flip one random bit somewhere in the frame body.
    BitFlip,
    /// Cut the frame short and fix up the length prefix (framing stays
    /// in sync; the MAC no longer covers what arrives).
    Truncate,
    /// Deliver the frame and additionally replay a recent frame from
    /// the same link (a valid duplicate — the engine must absorb it).
    Replay,
    /// Overwrite the MAC tag with garbage (an outsider's forgery).
    ForgeMac,
}

impl CorruptMode {
    /// Every mode, for "all of it" campaigns.
    pub const ALL: [CorruptMode; 4] = [
        CorruptMode::BitFlip,
        CorruptMode::Truncate,
        CorruptMode::Replay,
        CorruptMode::ForgeMac,
    ];
}

/// Seeded, rate-limited outbound frame corruption.
#[derive(Debug, Clone)]
pub struct CorruptConfig {
    /// RNG seed (deterministic given the same traffic order).
    pub seed: u64,
    /// Corrupt roughly `num / den` of outbound frames.
    pub num: u32,
    /// Rate denominator.
    pub den: u32,
    /// Modes drawn uniformly per corrupted frame.
    pub modes: Vec<CorruptMode>,
}

impl CorruptConfig {
    /// All four modes at rate `num / den`.
    #[must_use]
    pub fn all_modes(seed: u64, num: u32, den: u32) -> Self {
        CorruptConfig {
            seed,
            num,
            den,
            modes: CorruptMode::ALL.to_vec(),
        }
    }
}

/// Per-frame outcome counters, shared with the owning transport.
///
/// `rejected_mac + rejected_header` frames never reached the codec;
/// `rejected_decode` frames never reached a node — together they pin
/// the reject-before-parse discipline in the acceptance battery.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct WireStats {
    /// Authenticated frames queued for the wire (self-copies excluded).
    pub frames_sent: u64,
    /// Messages decoded and handed to a node: frames that passed the
    /// MAC, plus the senders' own broadcast copies, which never cross a
    /// socket and skip the MAC.
    pub frames_delivered: u64,
    /// Frames rejected by MAC verification (before any parse).
    pub rejected_mac: u64,
    /// Frames rejected by header checks: bad version, sender ≠ link
    /// peer, undersized or oversized body (before MAC and parse).
    pub rejected_header: u64,
    /// Frames whose payload failed to decode after a valid MAC (only
    /// reachable via raw injection — an authenticated peer's codec
    /// bytes always parse).
    pub rejected_decode: u64,
    /// Outbound frames the corruption adversary tampered with.
    pub corrupted_injected: u64,
    /// Raw bytes written to sockets.
    pub bytes_sent: u64,
    /// Raw bytes read from sockets.
    pub bytes_received: u64,
}

/// Commands from node threads (and tests) to the reactor.
enum ReactorCmd<V> {
    /// One message, already encoded and framed by its sender's thread.
    Send(Outbound<V>),
    /// Test hook: push arbitrary bytes onto the `from → to` stream.
    InjectRaw {
        from: NodeId,
        to: NodeId,
        bytes: Vec<u8>,
    },
    Shutdown,
}

/// A message as [`TcpTx`] hands it to the reactor.
struct Outbound<V> {
    from: NodeId,
    /// `None`: every node, the sender's own copy included.
    to: Option<NodeId>,
    /// The value the sender holds, if the message carries one.
    value: Option<Arc<V>>,
    /// The codec bytes; the sender's own copy is decoded from these.
    payload: Vec<u8>,
    /// One authenticated frame per destination other than `from`, in
    /// id order, back to back; all the same length.
    frames: Vec<u8>,
}

/// The nodes a send reaches, in id order: `to`, or all `n`.
fn destinations(to: Option<NodeId>, n: usize) -> impl Iterator<Item = NodeId> + Clone {
    to.map_or(0..n, |to| to.index()..to.index() + 1)
        .map(|i| NodeId::new(i as u32))
}

/// The sending handle nodes hold into a [`TcpTransport`]. It encodes
/// and MACs on the calling thread, then hands the reactor ready bytes.
pub struct TcpTx<V> {
    cmd_tx: Sender<ReactorCmd<V>>,
    /// `k(from → to)` at `from · n + to`.
    keys: Arc<[MacKey]>,
    n: usize,
}

impl<V> Clone for TcpTx<V> {
    fn clone(&self) -> Self {
        TcpTx {
            cmd_tx: self.cmd_tx.clone(),
            keys: Arc::clone(&self.keys),
            n: self.n,
        }
    }
}

impl<V: Value + WireValue> TcpTx<V> {
    fn send(&self, from: NodeId, to: Option<NodeId>, msg: &SlotMsg<V>) {
        // Traffic outside the membership has no link to travel on.
        if from.index() >= self.n || to.is_some_and(|to| to.index() >= self.n) {
            return;
        }
        let mut payload = Vec::new();
        encode_slot_msg(msg, &mut payload);
        let remote = destinations(to, self.n).filter(|&dst| dst != from);
        let mut frames =
            Vec::with_capacity(remote.clone().count() * (LEN_PREFIX + HEADER_LEN + payload.len()));
        for dst in remote {
            let key = &self.keys[from.index() * self.n + dst.index()];
            write_frame(&mut frames, key, from, &payload);
        }
        let out = Outbound {
            from,
            to,
            value: value_of(msg).cloned(),
            payload,
            frames,
        };
        let _ = self.cmd_tx.send(ReactorCmd::Send(out));
    }
}

impl<V: Value + WireValue> TransportTx<SlotMsg<V>> for TcpTx<V> {
    fn broadcast(&self, from: NodeId, msg: SlotMsg<V>) {
        self.send(from, None, &msg);
    }

    fn unicast(&self, from: NodeId, to: NodeId, msg: SlotMsg<V>) {
        self.send(from, Some(to), &msg);
    }
}

/// A running TCP loopback transport: sockets + reactor thread.
pub struct TcpTransport<V: Value + WireValue> {
    tx: TcpTx<V>,
    reactor: JoinHandle<()>,
    stats: Arc<Mutex<WireStats>>,
}

impl<V: Value + WireValue> TcpTransport<V> {
    /// Binds the loopback mesh, performs the authenticated handshakes,
    /// and spawns the reactor thread. Inbound messages for node `i`
    /// are wrapped by `wrap` and pushed into `delivery[i]`.
    ///
    /// # Errors
    ///
    /// Propagates socket errors; a peer that fails its handshake
    /// surfaces as [`std::io::ErrorKind::InvalidData`].
    pub fn start<C, F>(
        n: usize,
        cfg: WireConfig,
        delivery: Vec<Sender<C>>,
        wrap: F,
    ) -> std::io::Result<Self>
    where
        C: Send + 'static,
        F: Fn(NodeId, Arc<SlotMsg<V>>) -> C + Send + 'static,
    {
        assert_eq!(delivery.len(), n, "one delivery channel per node");
        let mut conns = connect_mesh(n, &cfg.master_key)?;
        let mut link = HashMap::new();
        for (i, c) in conns.iter().enumerate() {
            link.insert((c.me.as_u32(), c.peer.as_u32()), i);
        }
        for c in &mut conns {
            c.pair = link[&(c.peer.as_u32(), c.me.as_u32())];
        }
        let keys: Arc<[MacKey]> = (0..n * n)
            .map(|i| {
                let (from, to) = (NodeId::new((i / n) as u32), NodeId::new((i % n) as u32));
                MacKey::derive_link(&cfg.master_key, from, to)
            })
            .collect();
        let stats: Arc<Mutex<WireStats>> = Arc::new(Mutex::new(WireStats::default()));
        let (cmd_tx, cmd_rx) = unbounded::<ReactorCmd<V>>();
        let corrupt = cfg
            .corrupt
            .clone()
            .map(|c| (StdRng::seed_from_u64(c.seed ^ 0x7769_7265_6164_7621), c));
        let inbox = Inbox {
            delivery,
            wrap,
            stats: Arc::clone(&stats),
            values: ValueRing::default(),
        };
        let poll = cfg.poll_interval;
        let max_frame = cfg.max_frame;
        let reactor = std::thread::Builder::new()
            .name("ssbyz-wire-reactor".into())
            .spawn(move || {
                Reactor {
                    conns,
                    link,
                    inbox,
                    max_frame,
                    corrupt,
                    frame_buf: Vec::new(),
                }
                .run(&cmd_rx, poll);
            })?;
        Ok(TcpTransport {
            tx: TcpTx { cmd_tx, keys, n },
            reactor,
            stats,
        })
    }

    /// Snapshot of the frame counters.
    #[must_use]
    pub fn stats(&self) -> WireStats {
        *self.stats.lock()
    }

    /// Test hook: push arbitrary bytes onto the `from → to` byte
    /// stream, as a wire-level attacker squatting on the link would.
    pub fn inject_raw(&self, from: NodeId, to: NodeId, bytes: Vec<u8>) {
        let _ = self
            .tx
            .cmd_tx
            .send(ReactorCmd::InjectRaw { from, to, bytes });
    }
}

impl<V: Value + WireValue> Transport<SlotMsg<V>> for TcpTransport<V> {
    type Tx = TcpTx<V>;

    fn tx(&self) -> TcpTx<V> {
        self.tx.clone()
    }

    fn shutdown(self) {
        let _ = self.tx.cmd_tx.send(ReactorCmd::Shutdown);
        drop(self.tx);
        let _ = self.reactor.join();
    }
}

/// One endpoint of a duplex link, owned by the reactor.
struct Conn {
    stream: TcpStream,
    /// The node this endpoint belongs to.
    me: NodeId,
    /// The authenticated node on the other end.
    peer: NodeId,
    /// Index of the other endpoint of this connection.
    pair: usize,
    /// Verifies frames from `peer` (`k(peer → me)`).
    key_in: MacKey,
    rbuf: Vec<u8>,
    wbuf: Vec<u8>,
    wpos: usize,
    /// Read side closed, errored, or framing-desynced.
    dead: bool,
    /// The other endpoint wrote, or has bytes queued, this turn.
    hot: bool,
    /// Recent outbound frames, for the replay corruption mode.
    recent: VecDeque<Vec<u8>>,
}

impl Conn {
    fn new(stream: TcpStream, me: NodeId, peer: NodeId, key_in: MacKey) -> Self {
        Conn {
            stream,
            me,
            peer,
            pair: usize::MAX,
            key_in,
            rbuf: Vec::new(),
            wbuf: Vec::new(),
            wpos: 0,
            dead: false,
            hot: false,
            recent: VecDeque::new(),
        }
    }
}

/// Builds the full loopback mesh with authenticated hellos. Runs in
/// blocking mode (setup only); all sockets end up non-blocking.
fn connect_mesh(n: usize, master: &[u8; KEY_LEN]) -> std::io::Result<Vec<Conn>> {
    let listener = TcpListener::bind(("127.0.0.1", 0))?;
    let addr = listener.local_addr()?;
    listener.set_nonblocking(true)?;
    let mut conns = Vec::new();
    let mut expected = 0usize;
    for a in 0..n as u32 {
        for b in (a + 1)..n as u32 {
            // The lower id owns the connecting side of the pair.
            let (from, to) = (NodeId::new(a), NodeId::new(b));
            let stream = TcpStream::connect(addr)?;
            stream.set_nodelay(true)?;
            let key_out = MacKey::derive_link(master, from, to);
            let mut hello = Vec::new();
            write_frame(&mut hello, &key_out, from, &hello_payload(from, to));
            (&stream).write_all(&hello)?;
            stream.set_nonblocking(true)?;
            let key_in = MacKey::derive_link(master, to, from);
            conns.push(Conn::new(stream, from, to, key_in));
            expected += 1;
        }
    }
    // Accept and authenticate the other endpoint of every pair.
    let deadline = Instant::now() + std::time::Duration::from_secs(10);
    let mut accepted = 0usize;
    while accepted < expected {
        match listener.accept() {
            Ok((stream, _)) => {
                stream.set_nodelay(true)?;
                stream.set_nonblocking(false)?;
                stream.set_read_timeout(Some(std::time::Duration::from_secs(2)))?;
                let conn = accept_hello(stream, n, master)?;
                conns.push(conn);
                accepted += 1;
            }
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                if Instant::now() > deadline {
                    return Err(std::io::Error::new(
                        std::io::ErrorKind::TimedOut,
                        "handshake mesh did not complete",
                    ));
                }
                std::thread::sleep(std::time::Duration::from_millis(1));
            }
            Err(e) => return Err(e),
        }
    }
    Ok(conns)
}

/// Reads and verifies the hello frame on a freshly accepted stream.
fn accept_hello(stream: TcpStream, n: usize, master: &[u8; KEY_LEN]) -> std::io::Result<Conn> {
    let bad = |what: &str| std::io::Error::new(std::io::ErrorKind::InvalidData, what.to_string());
    let mut buf = [0u8; LEN_PREFIX + HEADER_LEN + HELLO_LEN];
    (&stream).read_exact(&mut buf)?;
    let mut len_bytes = [0u8; 4];
    len_bytes.copy_from_slice(&buf[..LEN_PREFIX]);
    if u32::from_le_bytes(len_bytes) as usize != HEADER_LEN + HELLO_LEN {
        return Err(bad("hello frame has wrong length"));
    }
    let body = &buf[LEN_PREFIX..];
    // The hello is the one frame parsed structurally before MAC
    // verification: the acceptor cannot pick the link key until it
    // reads the claimed pair. Fixed size, constant work.
    let (from, to) =
        parse_hello(&body[HEADER_LEN..]).ok_or_else(|| bad("malformed hello payload"))?;
    if from.index() >= n || to.index() >= n || from == to {
        return Err(bad("hello pair out of membership"));
    }
    let key_in = MacKey::derive_link(master, from, to);
    if verify_frame(body, from, &key_in).is_err() {
        return Err(bad("hello failed authentication"));
    }
    stream.set_read_timeout(None)?;
    stream.set_nonblocking(true)?;
    Ok(Conn::new(stream, to, from, key_in))
}

/// The recently decoded values, newest last. A decode equal to one of
/// them takes that value's `Arc` and drops its own copy, so the copies
/// of one value that every node receives, and logs, are one allocation.
struct ValueRing<V>(VecDeque<Arc<V>>);

impl<V> Default for ValueRing<V> {
    fn default() -> Self {
        ValueRing(VecDeque::with_capacity(VALUE_RING))
    }
}

impl<V: PartialEq> ValueRing<V> {
    fn share(&mut self, value: &mut Arc<V>) {
        // Newest first: the copies of one value arrive close together.
        if let Some(seen) = self.0.iter().rev().find(|seen| ***seen == **value) {
            *value = Arc::clone(seen);
            return;
        }
        if self.0.len() == VALUE_RING {
            self.0.pop_front();
        }
        self.0.push_back(Arc::clone(value));
    }
}

/// The value handle a message carries, if any.
fn value_of<V: Value>(msg: &SlotMsg<V>) -> Option<&Arc<V>> {
    match msg {
        SlotMsg::Slot { inner, .. } => Some(inner.value_shared()),
        SlotMsg::CatchUpReply { value, .. } => Some(value),
        SlotMsg::CatchUpRequest { .. } | SlotMsg::Heartbeat { .. } => None,
    }
}

/// [`value_of`], for swapping a decoded message's handle.
fn value_of_mut<V>(msg: &mut SlotMsg<V>) -> Option<&mut Arc<V>> {
    match msg {
        SlotMsg::Slot {
            inner: Msg::Initiator { value, .. } | Msg::Ia { value, .. } | Msg::Bcast { value, .. },
            ..
        }
        | SlotMsg::CatchUpReply { value, .. } => Some(value),
        SlotMsg::CatchUpRequest { .. } | SlotMsg::Heartbeat { .. } => None,
    }
}

/// The reactor's delivery end: decode, share the value, hand over.
struct Inbox<V, C, F> {
    delivery: Vec<Sender<C>>,
    wrap: F,
    stats: Arc<Mutex<WireStats>>,
    values: ValueRing<V>,
}

impl<V, C, F> Inbox<V, C, F>
where
    V: Value + WireValue,
    F: Fn(NodeId, Arc<SlotMsg<V>>) -> C,
{
    /// Decodes codec bytes that are authentic (a verified frame, or a
    /// sender's own copy) and delivers them to `to` as sent by `from`.
    fn deliver(&mut self, from: NodeId, to: NodeId, payload: &[u8]) {
        match decode_slot_msg::<V>(payload) {
            Ok(mut msg) => {
                if let Some(value) = value_of_mut(&mut msg) {
                    self.values.share(value);
                }
                self.stats.lock().frames_delivered += 1;
                let _ = self.delivery[to.index()].send((self.wrap)(from, Arc::new(msg)));
            }
            Err(_) => self.stats.lock().rejected_decode += 1,
        }
    }
}

struct Reactor<V, C, F> {
    conns: Vec<Conn>,
    link: HashMap<(u32, u32), usize>,
    inbox: Inbox<V, C, F>,
    max_frame: u32,
    corrupt: Option<(StdRng, CorruptConfig)>,
    frame_buf: Vec<u8>,
}

impl<V, C, F> Reactor<V, C, F>
where
    V: Value + WireValue,
    C: Send + 'static,
    F: Fn(NodeId, Arc<SlotMsg<V>>) -> C,
{
    fn run(mut self, cmd_rx: &Receiver<ReactorCmd<V>>, poll: std::time::Duration) {
        let mut read_buf = vec![0u8; 64 * 1024];
        let mut next_sweep = Instant::now() + poll;
        loop {
            // Block until a command arrives or the next full sweep is
            // due, then drain the rest of the queue without blocking.
            let wait = next_sweep.saturating_duration_since(Instant::now());
            let mut shutdown = match cmd_rx.recv_timeout(wait) {
                Ok(cmd) => self.handle(cmd),
                Err(RecvTimeoutError::Timeout) => false,
                Err(RecvTimeoutError::Disconnected) => true,
            };
            while !shutdown {
                match cmd_rx.try_recv() {
                    Ok(cmd) => shutdown = self.handle(cmd),
                    Err(TryRecvError::Empty) => break,
                    Err(TryRecvError::Disconnected) => shutdown = true,
                }
            }
            let now = Instant::now();
            let sweep = shutdown || now >= next_sweep;
            if sweep {
                next_sweep = now + poll;
            }
            self.turn(sweep, &mut read_buf);
            if shutdown {
                // Final grace turn so frames already on the wire (both
                // endpoints live in this reactor) still deliver.
                self.turn(true, &mut read_buf);
                return;
            }
        }
    }

    /// Flushes every connection, then reads the endpoints whose peer
    /// wrote or still has bytes queued — every endpoint on a `sweep`.
    /// Reading after all writes lets a frame written to any endpoint
    /// deliver in the same turn.
    fn turn(&mut self, sweep: bool, read_buf: &mut [u8]) {
        for ci in 0..self.conns.len() {
            if self.flush(ci) {
                let pair = self.conns[ci].pair;
                self.conns[pair].hot = true;
            }
        }
        for ci in 0..self.conns.len() {
            if std::mem::take(&mut self.conns[ci].hot) || sweep {
                self.read_frames(ci, read_buf);
            }
        }
    }

    /// Applies one command; returns `true` on shutdown.
    fn handle(&mut self, cmd: ReactorCmd<V>) -> bool {
        match cmd {
            ReactorCmd::Send(out) => {
                let n = self.inbox.delivery.len();
                if let Some(mut value) = out.value {
                    self.inbox.values.share(&mut value);
                }
                let mut frames = out
                    .frames
                    .chunks_exact(LEN_PREFIX + HEADER_LEN + out.payload.len());
                for dst in destinations(out.to, n) {
                    if dst == out.from {
                        self.inbox.deliver(out.from, dst, &out.payload);
                    } else if let Some(frame) = frames.next() {
                        self.enqueue(out.from, dst, frame);
                    }
                }
            }
            ReactorCmd::InjectRaw { from, to, bytes } => {
                if let Some(&ci) = self.link.get(&(from.as_u32(), to.as_u32())) {
                    self.conns[ci].wbuf.extend_from_slice(&bytes);
                }
            }
            ReactorCmd::Shutdown => return true,
        }
        false
    }

    /// Queues a frame on the `from → to` link, tampered with if the
    /// corruption adversary so draws.
    fn enqueue(&mut self, from: NodeId, to: NodeId, frame: &[u8]) {
        let Some(&ci) = self.link.get(&(from.as_u32(), to.as_u32())) else {
            return;
        };
        self.inbox.stats.lock().frames_sent += 1;
        let conn = &mut self.conns[ci];
        let Some((rng, cc)) = &mut self.corrupt else {
            conn.wbuf.extend_from_slice(frame);
            return;
        };
        // Only the replay mode reads the ring, so only an armed
        // adversary keeps one; the oldest buffer is reused.
        let mut kept = if conn.recent.len() == REPLAY_DEPTH {
            conn.recent.pop_front().unwrap_or_default()
        } else {
            Vec::new()
        };
        kept.clear();
        kept.extend_from_slice(frame);
        conn.recent.push_back(kept);
        if rng.gen_ratio(cc.num, cc.den) && !cc.modes.is_empty() {
            let mode = cc.modes[rng.gen_range(0..cc.modes.len())];
            self.frame_buf.clear();
            self.frame_buf.extend_from_slice(frame);
            corrupt_frame(&mut self.frame_buf, mode, rng, &conn.recent);
            self.inbox.stats.lock().corrupted_injected += 1;
            conn.wbuf.extend_from_slice(&self.frame_buf);
        } else {
            conn.wbuf.extend_from_slice(frame);
        }
    }

    /// Writes as much pending output as the socket accepts. Returns
    /// whether the other endpoint has bytes to read: some were written,
    /// or some are still queued.
    fn flush(&mut self, ci: usize) -> bool {
        let conn = &mut self.conns[ci];
        if conn.dead || conn.wpos == conn.wbuf.len() {
            return false;
        }
        let mut sent = 0u64;
        loop {
            match conn.stream.write(&conn.wbuf[conn.wpos..]) {
                Ok(0) => {
                    conn.dead = true;
                    break;
                }
                Ok(k) => {
                    conn.wpos += k;
                    sent += k as u64;
                    if conn.wpos == conn.wbuf.len() {
                        break;
                    }
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                Err(_) => {
                    conn.dead = true;
                    break;
                }
            }
        }
        if sent > 0 {
            self.inbox.stats.lock().bytes_sent += sent;
        }
        let queued = conn.wpos < conn.wbuf.len();
        if !queued {
            conn.wbuf.clear();
            conn.wpos = 0;
        } else if conn.wpos > 64 * 1024 {
            conn.wbuf.drain(..conn.wpos);
            conn.wpos = 0;
        }
        sent > 0 || (queued && !conn.dead)
    }

    /// Drains the socket and processes every complete frame:
    /// header checks → MAC → decode → deliver, rejecting as early as
    /// possible.
    fn read_frames(&mut self, ci: usize, read_buf: &mut [u8]) {
        let conn = &mut self.conns[ci];
        if conn.dead {
            return;
        }
        let mut received = 0u64;
        loop {
            match conn.stream.read(read_buf) {
                Ok(0) => {
                    conn.dead = true;
                    break;
                }
                Ok(k) => {
                    conn.rbuf.extend_from_slice(&read_buf[..k]);
                    received += k as u64;
                    if k < read_buf.len() {
                        break;
                    }
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                Err(_) => {
                    conn.dead = true;
                    break;
                }
            }
        }
        if received > 0 {
            self.inbox.stats.lock().bytes_received += received;
        }
        let mut pos = 0usize;
        loop {
            match next_frame(&conn.rbuf[pos..], self.max_frame) {
                Framing::Incomplete => break,
                Framing::Poisoned => {
                    // The length prefix itself is garbage: a byte
                    // stream cannot be re-synchronized, so the link is
                    // dropped — degrade, never panic.
                    self.inbox.stats.lock().rejected_header += 1;
                    conn.dead = true;
                    conn.rbuf.clear();
                    pos = 0;
                    break;
                }
                Framing::Complete { len } => {
                    let body = &conn.rbuf[pos + LEN_PREFIX..pos + LEN_PREFIX + len];
                    match verify_frame(body, conn.peer, &conn.key_in) {
                        Ok(payload) => self.inbox.deliver(conn.peer, conn.me, payload),
                        Err(FrameReject::BadMac) => self.inbox.stats.lock().rejected_mac += 1,
                        Err(_) => self.inbox.stats.lock().rejected_header += 1,
                    }
                    pos += LEN_PREFIX + len;
                }
            }
        }
        if pos > 0 {
            conn.rbuf.drain(..pos);
        }
    }
}

/// Tampers with one framed message in place.
fn corrupt_frame(
    frame: &mut Vec<u8>,
    mode: CorruptMode,
    rng: &mut StdRng,
    recent: &VecDeque<Vec<u8>>,
) {
    match mode {
        CorruptMode::BitFlip => {
            if frame.len() > LEN_PREFIX {
                let i = rng.gen_range(LEN_PREFIX..frame.len());
                let bit = rng.gen_range(0u32..8);
                frame[i] ^= 1 << bit;
            }
        }
        CorruptMode::Truncate => {
            let body_len = frame.len() - LEN_PREFIX;
            if body_len > 0 {
                let keep = rng.gen_range(0..body_len);
                frame.truncate(LEN_PREFIX + keep);
                let keep32 = keep as u32;
                frame[..LEN_PREFIX].copy_from_slice(&keep32.to_le_bytes());
            }
        }
        CorruptMode::Replay => {
            if let Some(old) = recent.get(rng.gen_range(0..recent.len())) {
                let mut replayed = old.clone();
                frame.append(&mut replayed);
            }
        }
        CorruptMode::ForgeMac => {
            // Tag bytes live right after version + sender.
            let tag_start = LEN_PREFIX + 1 + 4;
            if frame.len() >= tag_start + 16 {
                for b in &mut frame[tag_start..tag_start + 16] {
                    *b ^= (rng.gen_range(1u32..256)) as u8;
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use std::time::Duration;

    use super::*;

    #[test]
    fn equal_values_share_one_allocation_and_the_ring_stays_bounded() {
        let mut ring = ValueRing::default();
        let mut first = Arc::new(vec![7u8; 1024]);
        let mut equal = Arc::new(vec![7u8; 1024]);
        ring.share(&mut first);
        ring.share(&mut equal);
        assert!(Arc::ptr_eq(&first, &equal), "equal bytes, two allocations");

        let mut last_byte = vec![7u8; 1024];
        last_byte[1023] = 8;
        let mut differs = Arc::new(last_byte);
        ring.share(&mut differs);
        assert!(!Arc::ptr_eq(&first, &differs));
        assert_eq!(differs[1023], 8);

        for i in 0..4 * VALUE_RING {
            ring.share(&mut Arc::new(vec![i as u8; 4]));
            assert!(ring.0.len() <= VALUE_RING, "ring grew to {}", ring.0.len());
        }
    }

    #[test]
    fn a_frame_written_behind_the_read_position_delivers_in_the_same_turn() {
        // With a 10 s sweep period, only the read-where-written rule can
        // deliver in time. Node n−1's receivers come before its sending
        // endpoints in the reactor's order, so a read pass interleaved
        // with the writes would pass them before their frames exist.
        let n = 4;
        let cfg = WireConfig {
            poll_interval: Duration::from_secs(10),
            ..WireConfig::from_seed(3)
        };
        let (txs, rxs): (Vec<_>, Vec<_>) = (0..n).map(|_| unbounded()).unzip();
        let transport: TcpTransport<u64> =
            TcpTransport::start(n, cfg, txs, |from, msg| (from, msg)).expect("loopback mesh");
        let last = NodeId::new(n as u32 - 1);
        let msg = SlotMsg::Heartbeat { committed: 5 };
        transport.tx().broadcast(last, msg.clone());
        for (i, rx) in rxs.iter().enumerate() {
            let (from, got) = rx
                .recv_timeout(Duration::from_secs(1))
                .unwrap_or_else(|_| panic!("node {i} waited past 1 s"));
            assert_eq!((from, &*got), (last, &msg));
        }
        transport.shutdown();
    }
}
