//! A hand-rolled readiness-loop TCP transport.
//!
//! One reactor thread owns every socket of the cluster: `n(n−1)/2`
//! duplex loopback connections (one per unordered node pair, each
//! direction MAC'd with its own directed link key) plus the command
//! channel the node threads push outbound traffic through. The loop is
//! poll-style and level-triggered over non-blocking `std::net` sockets
//! — no `epoll`/`mio` (no registry access in this build), just a
//! bounded block on the command channel that doubles as the poll tick,
//! then one sweep flushing write buffers and draining readable sockets.
//! This replaces the one-thread-per-link design a naive blocking
//! implementation would need (`2·n(n−1)` reader/writer threads at
//! n = 16) with exactly one I/O thread.
//!
//! The receive path is strictly **reject-before-parse** (see
//! [`crate::frame`]); per-frame outcomes are tallied in [`WireStats`].
//!
//! For the byte-level corruption adversary, the reactor can tamper with
//! its own outbound frames ([`CorruptConfig`]): bit flips, truncations
//! (length-consistent, so stream framing survives), replays of recent
//! frames, and MAC forgeries — everything the acceptance battery needs
//! to demonstrate zero forged commits and zero panics.

use std::collections::{HashMap, VecDeque};
use std::io::{Read, Write};
use std::marker::PhantomData;
use std::net::{TcpListener, TcpStream};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Instant;

use crossbeam_channel::{unbounded, Receiver, RecvTimeoutError, Sender, TryRecvError};
use parking_lot::Mutex;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use ssbyz_core::SlotMsg;
use ssbyz_types::{NodeId, Value};

use crate::codec::{decode_slot_msg, encode_slot_msg, WireValue};
use crate::frame::{
    hello_payload, next_frame, parse_hello, verify_frame, write_frame, FrameReject, Framing,
    DEFAULT_MAX_FRAME, HEADER_LEN, HELLO_LEN, LEN_PREFIX,
};
use crate::mac::{hash, MacKey, KEY_LEN};
use crate::transport::{Transport, TransportTx};

/// How many recent outbound frames each link retains for the replay
/// corruption mode.
const REPLAY_DEPTH: usize = 4;

/// Wire-transport configuration.
#[derive(Debug, Clone)]
pub struct WireConfig {
    /// Cluster master secret; directed per-link keys are derived from
    /// it (every node of a co-located test cluster shares it — in a
    /// real deployment each pair would provision its own link key).
    pub master_key: [u8; KEY_LEN],
    /// Upper bound on one poll-loop wait when no commands arrive; also
    /// the worst-case added latency on a quiet wire.
    pub poll_interval: std::time::Duration,
    /// Frames with a bigger body are rejected at the length prefix.
    pub max_frame: u32,
    /// Optional outbound byte-corruption adversary.
    pub corrupt: Option<CorruptConfig>,
}

impl WireConfig {
    /// Config with a master key derived from `seed` and no corruption.
    #[must_use]
    pub fn from_seed(seed: u64) -> Self {
        WireConfig {
            master_key: hash(&[b"ssbyz-wire-master", &seed.to_le_bytes()]),
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
    /// Frames verified, decoded, and handed to a node.
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
    Broadcast {
        from: NodeId,
        msg: SlotMsg<V>,
    },
    Unicast {
        from: NodeId,
        to: NodeId,
        msg: SlotMsg<V>,
    },
    /// Test hook: push arbitrary bytes onto the `from → to` stream.
    InjectRaw {
        from: NodeId,
        to: NodeId,
        bytes: Vec<u8>,
    },
    Shutdown,
}

/// The sending handle nodes hold into a [`TcpTransport`].
pub struct TcpTx<V>(Sender<ReactorCmd<V>>);

impl<V> Clone for TcpTx<V> {
    fn clone(&self) -> Self {
        TcpTx(self.0.clone())
    }
}

impl<V: Value + WireValue> TransportTx<SlotMsg<V>> for TcpTx<V> {
    fn broadcast(&self, from: NodeId, msg: SlotMsg<V>) {
        let _ = self.0.send(ReactorCmd::Broadcast { from, msg });
    }

    fn unicast(&self, from: NodeId, to: NodeId, msg: SlotMsg<V>) {
        let _ = self.0.send(ReactorCmd::Unicast { from, to, msg });
    }
}

/// A running TCP loopback transport: sockets + reactor thread.
pub struct TcpTransport<V: Value + WireValue> {
    cmd_tx: Sender<ReactorCmd<V>>,
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
        let conns = connect_mesh(n, &cfg.master_key)?;
        let mut link = HashMap::new();
        for (i, c) in conns.iter().enumerate() {
            link.insert((c.me.as_u32(), c.peer.as_u32()), i);
        }
        let stats: Arc<Mutex<WireStats>> = Arc::new(Mutex::new(WireStats::default()));
        let (cmd_tx, cmd_rx) = unbounded::<ReactorCmd<V>>();
        let corrupt = cfg
            .corrupt
            .clone()
            .map(|c| (StdRng::seed_from_u64(c.seed ^ 0x7769_7265_6164_7621), c));
        let reactor_stats = Arc::clone(&stats);
        let poll = cfg.poll_interval;
        let max_frame = cfg.max_frame;
        let reactor = std::thread::Builder::new()
            .name("ssbyz-wire-reactor".into())
            .spawn(move || {
                Reactor {
                    conns,
                    link,
                    delivery,
                    wrap,
                    stats: reactor_stats,
                    max_frame,
                    corrupt,
                    payload_buf: Vec::new(),
                    frame_buf: Vec::new(),
                    _marker: PhantomData::<V>,
                }
                .run(&cmd_rx, poll);
            })?;
        Ok(TcpTransport {
            cmd_tx,
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
        let _ = self.cmd_tx.send(ReactorCmd::InjectRaw { from, to, bytes });
    }
}

impl<V: Value + WireValue> Transport<SlotMsg<V>> for TcpTransport<V> {
    type Tx = TcpTx<V>;

    fn tx(&self) -> TcpTx<V> {
        TcpTx(self.cmd_tx.clone())
    }

    fn shutdown(self) {
        let _ = self.cmd_tx.send(ReactorCmd::Shutdown);
        drop(self.cmd_tx);
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
    /// Verifies frames from `peer` (`k(peer → me)`).
    key_in: MacKey,
    /// Signs frames to `peer` (`k(me → peer)`).
    key_out: MacKey,
    rbuf: Vec<u8>,
    wbuf: Vec<u8>,
    wpos: usize,
    /// Read side closed, errored, or framing-desynced.
    dead: bool,
    /// Recent outbound frames, for the replay corruption mode.
    recent: VecDeque<Vec<u8>>,
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
            conns.push(Conn {
                stream,
                me: from,
                peer: to,
                key_in: MacKey::derive_link(master, to, from),
                key_out,
                rbuf: Vec::new(),
                wbuf: Vec::new(),
                wpos: 0,
                dead: false,
                recent: VecDeque::new(),
            });
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
    Ok(Conn {
        stream,
        me: to,
        peer: from,
        key_out: MacKey::derive_link(master, to, from),
        key_in,
        rbuf: Vec::new(),
        wbuf: Vec::new(),
        wpos: 0,
        dead: false,
        recent: VecDeque::new(),
    })
}

struct Reactor<V, C, F> {
    conns: Vec<Conn>,
    link: HashMap<(u32, u32), usize>,
    delivery: Vec<Sender<C>>,
    wrap: F,
    stats: Arc<Mutex<WireStats>>,
    max_frame: u32,
    corrupt: Option<(StdRng, CorruptConfig)>,
    payload_buf: Vec<u8>,
    frame_buf: Vec<u8>,
    _marker: PhantomData<V>,
}

impl<V, C, F> Reactor<V, C, F>
where
    V: Value + WireValue,
    C: Send + 'static,
    F: Fn(NodeId, Arc<SlotMsg<V>>) -> C,
{
    fn run(mut self, cmd_rx: &Receiver<ReactorCmd<V>>, poll: std::time::Duration) {
        let mut read_buf = vec![0u8; 64 * 1024];
        loop {
            let mut shutdown = false;
            // Block (bounded) for the first command — this is the poll
            // tick — then drain the rest of the queue without blocking.
            match cmd_rx.recv_timeout(poll) {
                Ok(cmd) => shutdown |= self.handle(cmd),
                Err(RecvTimeoutError::Timeout) => {}
                Err(RecvTimeoutError::Disconnected) => shutdown = true,
            }
            if !shutdown {
                loop {
                    match cmd_rx.try_recv() {
                        Ok(cmd) => {
                            if self.handle(cmd) {
                                shutdown = true;
                                break;
                            }
                        }
                        Err(TryRecvError::Empty) => break,
                        Err(TryRecvError::Disconnected) => {
                            shutdown = true;
                            break;
                        }
                    }
                }
            }
            // One level-triggered sweep: flush what the kernel will
            // take, read what it has, deliver complete frames.
            for i in 0..self.conns.len() {
                self.flush(i);
                self.read_frames(i, &mut read_buf);
            }
            if shutdown {
                // Final grace sweep so frames already on the wire (both
                // endpoints live in this reactor) still deliver.
                for i in 0..self.conns.len() {
                    self.flush(i);
                    self.read_frames(i, &mut read_buf);
                }
                return;
            }
        }
    }

    /// Applies one command; returns `true` on shutdown.
    fn handle(&mut self, cmd: ReactorCmd<V>) -> bool {
        match cmd {
            ReactorCmd::Broadcast { from, msg } => {
                self.payload_buf.clear();
                encode_slot_msg(&msg, &mut self.payload_buf);
                for dst in 0..self.delivery.len() {
                    let dst = NodeId::new(dst as u32);
                    if dst == from {
                        self.deliver_self(from, dst);
                    } else {
                        self.enqueue(from, dst);
                    }
                }
            }
            ReactorCmd::Unicast { from, to, msg } => {
                self.payload_buf.clear();
                encode_slot_msg(&msg, &mut self.payload_buf);
                if to == from {
                    self.deliver_self(from, to);
                } else {
                    self.enqueue(from, to);
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

    /// A node's own broadcast copy: no socket, but the same
    /// encode → decode loop as every other delivery, so the self path
    /// exercises the codec identically.
    fn deliver_self(&mut self, from: NodeId, to: NodeId) {
        match decode_slot_msg::<V>(&self.payload_buf) {
            Ok(msg) => {
                self.stats.lock().frames_delivered += 1;
                let _ = self.delivery[to.index()].send((self.wrap)(from, Arc::new(msg)));
            }
            Err(_) => {
                // Unreachable for a correct codec; counted, not panicked.
                self.stats.lock().rejected_decode += 1;
            }
        }
    }

    /// Frames `payload_buf` for the `from → to` link (with optional
    /// adversarial tampering) and queues it on the connection.
    fn enqueue(&mut self, from: NodeId, to: NodeId) {
        let Some(&ci) = self.link.get(&(from.as_u32(), to.as_u32())) else {
            return;
        };
        let conn = &mut self.conns[ci];
        self.frame_buf.clear();
        write_frame(&mut self.frame_buf, &conn.key_out, from, &self.payload_buf);
        {
            let mut stats = self.stats.lock();
            stats.frames_sent += 1;
        }
        if conn.recent.len() == REPLAY_DEPTH {
            conn.recent.pop_front();
        }
        conn.recent.push_back(self.frame_buf.clone());
        if let Some((rng, cc)) = &mut self.corrupt {
            if rng.gen_ratio(cc.num, cc.den) && !cc.modes.is_empty() {
                let mode = cc.modes[rng.gen_range(0..cc.modes.len())];
                corrupt_frame(&mut self.frame_buf, mode, rng, &conn.recent);
                self.stats.lock().corrupted_injected += 1;
            }
        }
        conn.wbuf.extend_from_slice(&self.frame_buf);
    }

    /// Writes as much pending output as the socket accepts.
    fn flush(&mut self, ci: usize) {
        let conn = &mut self.conns[ci];
        if conn.dead || conn.wpos == conn.wbuf.len() {
            return;
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
            self.stats.lock().bytes_sent += sent;
        }
        if conn.wpos == conn.wbuf.len() {
            conn.wbuf.clear();
            conn.wpos = 0;
        } else if conn.wpos > 64 * 1024 {
            conn.wbuf.drain(..conn.wpos);
            conn.wpos = 0;
        }
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
            self.stats.lock().bytes_received += received;
        }
        let mut pos = 0usize;
        loop {
            match next_frame(&conn.rbuf[pos..], self.max_frame) {
                Framing::Incomplete => break,
                Framing::Poisoned => {
                    // The length prefix itself is garbage: a byte
                    // stream cannot be re-synchronized, so the link is
                    // dropped — degrade, never panic.
                    self.stats.lock().rejected_header += 1;
                    conn.dead = true;
                    conn.rbuf.clear();
                    pos = 0;
                    break;
                }
                Framing::Complete { len } => {
                    let body = &conn.rbuf[pos + LEN_PREFIX..pos + LEN_PREFIX + len];
                    match verify_frame(body, conn.peer, &conn.key_in) {
                        Ok(payload) => match decode_slot_msg::<V>(payload) {
                            Ok(msg) => {
                                self.stats.lock().frames_delivered += 1;
                                let _ = self.delivery[conn.me.index()]
                                    .send((self.wrap)(conn.peer, Arc::new(msg)));
                            }
                            Err(_) => self.stats.lock().rejected_decode += 1,
                        },
                        Err(FrameReject::BadMac) => self.stats.lock().rejected_mac += 1,
                        Err(_) => self.stats.lock().rejected_header += 1,
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
