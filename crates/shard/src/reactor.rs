//! A homegrown nonblocking TCP reactor.
//!
//! One thread multiplexes every connection. It blocks in `poll(2)` on the
//! listener, every live connection and a wake descriptor, and acts only on
//! what the kernel reports ready: accept, read and frame newline-delimited
//! lines into a [`LineHandler`], write queued responses. Worker threads
//! hand finished responses back through a shared [`Outbox`], whose
//! self-pipe is the wake descriptor — so a byte arriving on a socket and a
//! response completing on a worker both end the wait at once, and no
//! request ever sits out a timer. `poll_interval` is only the wait's
//! timeout (how stale an un-signalled shutdown flag can get) and the unit
//! of the shutdown grace window.
//!
//! This replaces the serve layer's original thread-per-connection loop (and
//! its `WouldBlock => sleep(POLL)` accept busy-wait): connection count no
//! longer costs a thread, an idle reactor costs no CPU, and shutdown latency
//! is bounded by the poll interval instead of a 50 ms accept nap.
//!
//! The readiness wait is the private `poll` module, a thin wrapper over
//! libc's `poll(2)` and the one exception to the workspace's `unsafe` ban
//! (`DESIGN.md` §14 says why it beat the safe alternatives). `poll` is
//! level-triggered and O(descriptors) in the kernel; everything this loop
//! does after it returns is O(ready).

use std::collections::HashMap;
use std::io::{ErrorKind, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::os::unix::net::UnixStream;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use infs_trace::counter;

use crate::poll::{self, PollFd, POLLIN, POLLOUT};

/// Longest request line the reactor buffers, terminator excluded. A
/// connection that exceeds it is answered once
/// ([`LineHandler::overlong_line`]) and closed, so one newline-less client
/// cannot grow server memory without limit.
///
/// Sized from the largest line the repo's own clients can produce: an
/// `Execute` carrying two paper-scale operands (`workloads::micro` at
/// `Scale::Paper`, 4 Mi `f32` each) at the ≤ 25 bytes an `f32` widened to
/// `f64` prints as in JSON is ≈ 200 MiB. The largest line a client sends
/// today is the benchmark's 1.3 MB `inmem` Execute; an inline `binary`
/// Execute adds ≈ 160 KB.
pub const MAX_LINE_BYTES: usize = 256 << 20;

/// Bytes per `read` call. A longer line simply takes several reads.
const READ_CHUNK: usize = 64 * 1024;

/// Identifies one accepted connection for the lifetime of the reactor.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ConnId(pub u64);

#[derive(Default)]
struct OutState {
    /// `(conn, bytes)` responses awaiting delivery, in completion order.
    ready: Vec<(ConnId, Vec<u8>)>,
    /// A wake byte has been written since the reactor last drained: senders
    /// that find this set skip the write.
    signaled: bool,
}

struct Shared {
    state: Mutex<OutState>,
    /// The self-pipe. `wake_tx` gets one byte when `signaled` goes from
    /// false to true; the reactor polls `wake_rx`.
    wake_tx: UnixStream,
    wake_rx: UnixStream,
}

/// The channel worker threads use to hand finished responses back to the
/// reactor. Cloning is cheap (an `Arc`); sends never block.
#[derive(Clone)]
pub struct Outbox {
    inner: Arc<Shared>,
}

impl Outbox {
    /// A fresh outbox (one per reactor run; handlers receive it by
    /// reference).
    ///
    /// # Errors
    ///
    /// The wake-up socket pair cannot be created (descriptor exhaustion).
    pub fn new() -> std::io::Result<Self> {
        let (wake_tx, wake_rx) = UnixStream::pair()?;
        wake_tx.set_nonblocking(true)?;
        wake_rx.set_nonblocking(true)?;
        Ok(Outbox {
            inner: Arc::new(Shared {
                state: Mutex::new(OutState::default()),
                wake_tx,
                wake_rx,
            }),
        })
    }

    /// Queue `bytes` for delivery on `conn` and wake the reactor. The
    /// reactor appends the protocol's `\n` terminator — callers hand over
    /// exactly one serialized response.
    pub fn send(&self, conn: ConnId, bytes: Vec<u8>) {
        self.signal(|st| st.ready.push((conn, bytes)));
    }

    /// Wake the reactor without queueing anything (used by shutdown
    /// signaling so the flag is observed at once, not one timeout later).
    pub fn wake(&self) {
        self.signal(|_| {});
    }

    fn signal(&self, update: impl FnOnce(&mut OutState)) {
        let first = {
            let mut st = self.inner.state.lock().expect("outbox poisoned");
            update(&mut st);
            !std::mem::replace(&mut st.signaled, true)
        };
        if first {
            // Cannot fill up: at most one byte is written per reactor drain.
            // A failed write means the reactor is gone.
            let _ = (&self.inner.wake_tx).write(&[1]);
        }
    }

    /// Empties the self-pipe. The reactor calls this *before* `drain`: a
    /// sender that signals after the pipe is read but before the queue is
    /// taken has its item taken; one that signals later finds `signaled`
    /// cleared and writes a fresh byte. A wake-up is never lost, only
    /// occasionally spurious.
    fn clear_wake(&self) {
        let mut sink = [0u8; 64];
        while matches!((&self.inner.wake_rx).read(&mut sink), Ok(n) if n == sink.len()) {}
    }

    /// Takes everything queued and re-arms the wake byte.
    fn drain(&self) -> Vec<(ConnId, Vec<u8>)> {
        let mut st = self.inner.state.lock().expect("outbox poisoned");
        st.signaled = false;
        std::mem::take(&mut st.ready)
    }
}

/// What the reactor calls when a full newline-framed line arrives.
///
/// `on_line` runs on the reactor thread and must not block: hand the work to
/// a queue/pool and return. The response — whenever it is ready, from
/// whatever thread — goes through the [`Outbox`].
pub trait LineHandler: Send + Sync {
    /// One complete line (terminator stripped) from `conn`.
    fn on_line(&self, conn: ConnId, line: &str, out: &Outbox);

    /// Lines accepted but not yet answered. The reactor drains these before
    /// honoring shutdown so in-flight responses (including the reply to a
    /// `Shutdown` verb itself) reach the wire.
    fn in_flight(&self) -> usize {
        0
    }

    /// `conn` sent more than [`MAX_LINE_BYTES`] without a newline. The
    /// reactor reads nothing more from it, frees its buffer, writes the
    /// returned line (if any — the protocol's way of saying "too long"; the
    /// `\n` is appended) and closes the connection once that and any replies
    /// still owed have been flushed. A peer still sending at that point sees
    /// a reset.
    fn overlong_line(&self, _conn: ConnId) -> Option<Vec<u8>> {
        None
    }
}

/// Reactor tuning knobs.
#[derive(Debug, Clone)]
pub struct ReactorConfig {
    /// Timeout of the readiness wait — how long a shutdown flag raised
    /// without [`Outbox::wake`] can go unnoticed — and the unit of
    /// shutdown-latency bounds. No request waits on it: socket readiness and
    /// completed responses end the wait immediately.
    pub poll_interval: Duration,
    /// Accepted connections beyond this are closed immediately.
    pub max_connections: usize,
}

impl Default for ReactorConfig {
    fn default() -> Self {
        Self {
            poll_interval: Duration::from_millis(1),
            max_connections: 4096,
        }
    }
}

/// Totals returned when the reactor exits.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ReactorStats {
    /// Connections accepted.
    pub accepted: u64,
    /// Complete lines dispatched to the handler.
    pub lines: u64,
    /// Responses accepted from the outbox for delivery.
    pub responses: u64,
    /// Connections refused because `max_connections` was reached.
    pub refused: u64,
    /// Readiness waits entered (`poll(2)` calls). An idle reactor adds one
    /// per `poll_interval`; a spinning one adds thousands.
    pub polls: u64,
}

/// The line a connection overran [`MAX_LINE_BYTES`] on.
#[derive(Debug, PartialEq, Eq)]
struct Overlong;

/// Newline framing for one connection: holds the unterminated tail of what
/// has been read. The tail never contains `\n`, so each byte is searched
/// once and copied at most once however the peer fragments its writes.
#[derive(Default)]
struct Framer {
    partial: Vec<u8>,
}

impl Framer {
    /// Feeds the next bytes off the wire, calling `line` with every line
    /// they complete — lossily decoded, trimmed, empty ones skipped. A line
    /// that lies wholly inside `chunk` is passed on in place.
    fn feed(&mut self, chunk: &[u8], mut line: impl FnMut(&str)) -> Result<(), Overlong> {
        let mut emit = |bytes: &[u8]| {
            let text = String::from_utf8_lossy(bytes);
            let text = text.trim();
            if !text.is_empty() {
                line(text);
            }
        };
        let mut rest = chunk;
        while let Some(pos) = rest.iter().position(|&b| b == b'\n') {
            let (head, tail) = (&rest[..pos], &rest[pos + 1..]);
            if self.partial.len() + head.len() > MAX_LINE_BYTES {
                return Err(Overlong);
            }
            if self.partial.is_empty() {
                emit(head);
            } else {
                self.partial.extend_from_slice(head);
                emit(&self.partial);
                self.partial.clear();
            }
            rest = tail;
        }
        if self.partial.len() + rest.len() > MAX_LINE_BYTES {
            return Err(Overlong);
        }
        self.partial.extend_from_slice(rest);
        Ok(())
    }
}

struct Conn {
    stream: TcpStream,
    framer: Framer,
    /// Serialized responses awaiting a writable socket; `outbuf[..sent]` is
    /// already on the wire.
    outbuf: Vec<u8>,
    sent: usize,
    /// Lines dispatched minus responses queued back — the reactor keeps a
    /// half-closed connection alive until this drains.
    pending: u64,
    /// Nothing more is read: the peer closed its write side, the socket
    /// failed, or a line overran [`MAX_LINE_BYTES`].
    eof: bool,
}

impl Conn {
    fn unsent(&self) -> &[u8] {
        &self.outbuf[self.sent..]
    }

    /// What to wait for. A half-closed connection whose replies are still
    /// being computed waits for nothing and must stay out of the poll set:
    /// the kernel reports its hang-up unasked, and the loop would spin.
    fn interest(&self) -> i16 {
        let read = if self.eof { 0 } else { POLLIN };
        let write = if self.unsent().is_empty() { 0 } else { POLLOUT };
        read | write
    }

    /// Appends one response line to the out-buffer.
    fn queue(&mut self, line: &[u8]) {
        self.outbuf.extend_from_slice(line);
        self.outbuf.push(b'\n');
    }

    /// One `read`, framed into `handler`. `poll` is level-triggered, so
    /// whatever this leaves in the socket is reported again — which also
    /// keeps one firehose connection from starving the rest.
    fn read_ready(
        &mut self,
        id: u64,
        buf: &mut [u8],
        handler: &dyn LineHandler,
        outbox: &Outbox,
        stats: &mut ReactorStats,
    ) {
        let n = match self.stream.read(buf) {
            Ok(0) => {
                self.eof = true;
                return;
            }
            Ok(n) => n,
            Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::Interrupted) => return,
            Err(_) => {
                self.eof = true;
                return;
            }
        };
        let pending = &mut self.pending;
        let framed = self.framer.feed(&buf[..n], |line| {
            *pending += 1;
            stats.lines += 1;
            counter!("reactor.lines", 1);
            handler.on_line(ConnId(id), line, outbox);
        });
        if framed.is_err() {
            self.eof = true;
            self.framer = Framer::default();
            if let Some(reply) = handler.overlong_line(ConnId(id)) {
                self.queue(&reply);
            }
        }
    }

    /// One `write` of whatever is unsent; the rest waits for `POLLOUT`.
    /// False when the socket is dead.
    fn flush(&mut self) -> bool {
        if self.unsent().is_empty() {
            return true;
        }
        match self.stream.write(&self.outbuf[self.sent..]) {
            Ok(0) => return false,
            Ok(n) => self.sent += n,
            Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::Interrupted) => {}
            Err(_) => return false,
        }
        if self.sent == self.outbuf.len() {
            self.outbuf.clear();
            self.sent = 0;
        }
        true
    }

    /// No reply owed and none half-written.
    fn quiet(&self) -> bool {
        self.pending == 0 && self.unsent().is_empty()
    }

    /// Nothing left to read, compute or write.
    fn finished(&self) -> bool {
        self.eof && self.quiet()
    }
}

/// Run the reactor until `shutdown` is set: accept on `listener`, frame
/// newline-delimited requests into `handler`, deliver [`Outbox`] responses.
///
/// On shutdown the reactor stops accepting, waits for `handler.in_flight()`
/// to drain and flushes every outbuf — bounded by one extra `poll_interval`
/// of grace — so total shutdown latency stays under 2× `poll_interval`.
///
/// # Errors
///
/// Marking the listener nonblocking, or `poll(2)` itself failing (out of
/// memory, or more descriptors than `RLIMIT_NOFILE`); per-connection IO
/// errors close that connection and the loop continues.
pub fn run_reactor(
    listener: TcpListener,
    handler: &dyn LineHandler,
    cfg: &ReactorConfig,
    shutdown: &AtomicBool,
    outbox: &Outbox,
) -> std::io::Result<ReactorStats> {
    listener.set_nonblocking(true)?;
    let mut conns: HashMap<u64, Conn> = HashMap::new();
    let mut next_id: u64 = 1;
    let mut stats = ReactorStats::default();
    // `Some(deadline)` once shutdown is observed: the drain grace window.
    let mut draining: Option<Instant> = None;
    let mut buf = vec![0u8; READ_CHUNK];
    // The poll set, rebuilt before each wait: the wake descriptor, the
    // listener while accepting, then `ids[i]`'s socket at `fds[fixed + i]`.
    let mut fds: Vec<PollFd> = Vec::new();
    let mut ids: Vec<u64> = Vec::new();
    // Connections with something to flush or close after this wake-up.
    let mut touched: Vec<u64> = Vec::new();
    // Set when `accept` fails hard (descriptor exhaustion): the listener
    // sits out one wait, or its standing readiness would spin the loop.
    let mut accept_failed = false;

    loop {
        // 1. Shutdown: stop accepting, give in-flight work one poll interval
        //    of grace to finish and flush, then exit regardless.
        if draining.is_none() && shutdown.load(Ordering::SeqCst) {
            draining = Some(Instant::now() + cfg.poll_interval);
        }
        let timeout = match draining {
            None => cfg.poll_interval,
            Some(deadline) => {
                let idle = handler.in_flight() == 0 && conns.values().all(Conn::quiet);
                let left = deadline.saturating_duration_since(Instant::now());
                if idle || left.is_zero() {
                    return Ok(stats);
                }
                left
            }
        };

        // 2. Wait for the first thing to happen.
        fds.clear();
        ids.clear();
        fds.push(PollFd::new(&outbox.inner.wake_rx, POLLIN));
        let accepting = draining.is_none() && !std::mem::take(&mut accept_failed);
        if accepting {
            fds.push(PollFd::new(&listener, POLLIN));
        }
        let fixed = fds.len();
        for (&id, c) in &conns {
            let events = c.interest();
            if events != 0 {
                fds.push(PollFd::new(&c.stream, events));
                ids.push(id);
            }
        }
        poll::wait(&mut fds, timeout)?;
        stats.polls += 1;

        if fds[0].readable() {
            outbox.clear_wake();
        }

        // 3. Accept every pending connection.
        while accepting && fds[1].readable() {
            match listener.accept() {
                Ok((stream, _)) => {
                    if conns.len() >= cfg.max_connections {
                        stats.refused += 1;
                        continue;
                    }
                    if stream.set_nonblocking(true).is_err() {
                        continue;
                    }
                    let _ = stream.set_nodelay(true);
                    conns.insert(
                        next_id,
                        Conn {
                            stream,
                            framer: Framer::default(),
                            outbuf: Vec::new(),
                            sent: 0,
                            pending: 0,
                            eof: false,
                        },
                    );
                    stats.accepted += 1;
                    counter!("reactor.accepted", 1);
                    next_id += 1;
                }
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                Err(e) => {
                    accept_failed = e.kind() != ErrorKind::WouldBlock;
                    break;
                }
            }
        }

        // 4. Read the sockets reported readable, dispatch full lines.
        for (fd, &id) in fds[fixed..].iter().zip(&ids) {
            if !(fd.readable() || fd.writable()) {
                continue;
            }
            touched.push(id);
            if let Some(c) = conns.get_mut(&id).filter(|c| fd.readable() && !c.eof) {
                c.read_ready(id, &mut buf, handler, outbox, &mut stats);
            }
        }

        // 5. Move completed responses into per-connection out-buffers —
        //    including any the handler produced on this thread in step 4.
        for (conn, bytes) in outbox.drain() {
            if let Some(c) = conns.get_mut(&conn.0) {
                c.queue(&bytes);
                c.pending = c.pending.saturating_sub(1);
                stats.responses += 1;
                touched.push(conn.0);
            }
            // A response for a connection that already dropped is discarded:
            // the peer is gone, there is nowhere to deliver it.
        }

        // 6. Write to the touched sockets (optimistically for a fresh
        //    response — `POLLOUT` is only asked for after a short write);
        //    drop dead and finished connections.
        for id in touched.drain(..) {
            if let Some(c) = conns.get_mut(&id) {
                if !c.flush() || c.finished() {
                    conns.remove(&id);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use infs_faults::mix64;
    use std::io::{BufRead, BufReader};
    use std::net::Shutdown;
    use std::sync::mpsc;

    /// Echoes each line back, uppercased, from the reactor thread itself.
    struct Upper;
    impl LineHandler for Upper {
        fn on_line(&self, conn: ConnId, line: &str, out: &Outbox) {
            out.send(conn, line.to_uppercase().into_bytes());
        }
    }

    type Running = (
        std::net::SocketAddr,
        Arc<AtomicBool>,
        Outbox,
        std::thread::JoinHandle<ReactorStats>,
    );

    fn start_with(handler: impl LineHandler + 'static, cfg: ReactorConfig) -> Running {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().expect("addr");
        let stop = Arc::new(AtomicBool::new(false));
        let outbox = Outbox::new().expect("outbox");
        let h = {
            let stop = Arc::clone(&stop);
            let outbox = outbox.clone();
            std::thread::spawn(move || {
                run_reactor(listener, &handler, &cfg, &stop, &outbox).expect("reactor")
            })
        };
        (addr, stop, outbox, h)
    }

    fn start(cfg: ReactorConfig) -> Running {
        start_with(Upper, cfg)
    }

    fn slow_poll() -> ReactorConfig {
        ReactorConfig {
            poll_interval: Duration::from_millis(250),
            ..ReactorConfig::default()
        }
    }

    fn connect(addr: std::net::SocketAddr) -> (TcpStream, BufReader<TcpStream>) {
        let s = TcpStream::connect(addr).expect("connect");
        s.set_nodelay(true).expect("nodelay");
        let r = BufReader::new(s.try_clone().expect("clone"));
        (s, r)
    }

    fn echo(s: &mut TcpStream, r: &mut BufReader<TcpStream>, text: &str) -> String {
        s.write_all(format!("{text}\n").as_bytes()).expect("write");
        let mut line = String::new();
        r.read_line(&mut line).expect("read");
        line.trim().to_string()
    }

    #[test]
    fn echoes_lines_across_many_connections() {
        let (addr, stop, outbox, h) = start(ReactorConfig::default());
        let mut streams = Vec::new();
        for i in 0..32 {
            let (mut s, mut r) = connect(addr);
            assert_eq!(
                echo(&mut s, &mut r, &format!("hello-{i}")),
                format!("HELLO-{i}")
            );
            streams.push((s, r));
        }
        // Interleave a second round over the already-open connections.
        for (i, (s, _)) in streams.iter_mut().enumerate() {
            writeln!(s, "again-{i}").expect("write");
        }
        for (i, (_, r)) in streams.iter_mut().enumerate() {
            let mut line = String::new();
            r.read_line(&mut line).expect("read");
            assert_eq!(line.trim(), format!("AGAIN-{i}"));
        }
        stop.store(true, Ordering::SeqCst);
        outbox.wake();
        let stats = h.join().expect("join");
        assert_eq!(stats.accepted, 32);
        assert_eq!(stats.lines, 64);
    }

    #[test]
    fn partial_lines_and_batched_writes_frame_correctly() {
        let (addr, stop, outbox, h) = start(ReactorConfig::default());
        let (mut s, mut r) = connect(addr);
        // One syscall carrying 1.5 messages, then the remainder.
        s.write_all(b"first\nsec").expect("write");
        let mut line = String::new();
        r.read_line(&mut line).expect("read");
        assert_eq!(line.trim(), "FIRST");
        s.write_all(b"ond\n").expect("write");
        line.clear();
        r.read_line(&mut line).expect("read");
        assert_eq!(line.trim(), "SECOND");
        stop.store(true, Ordering::SeqCst);
        outbox.wake();
        h.join().expect("join");
    }

    #[test]
    fn refuses_beyond_max_connections() {
        let cfg = ReactorConfig {
            max_connections: 2,
            ..ReactorConfig::default()
        };
        let (addr, stop, outbox, h) = start(cfg);
        let mut keep = Vec::new();
        for i in 0..2 {
            let (mut s, mut r) = connect(addr);
            echo(&mut s, &mut r, &format!("k{i}"));
            keep.push((s, r));
        }
        // Third connection is accepted at the TCP level then closed by the
        // reactor: the read side observes EOF, never an echo.
        let (_s3, mut r3) = connect(addr);
        let mut line = String::new();
        let n = r3.read_line(&mut line).expect("read");
        assert_eq!(n, 0, "over-limit connection must see EOF, got {line:?}");
        stop.store(true, Ordering::SeqCst);
        outbox.wake();
        let stats = h.join().expect("join");
        assert_eq!(stats.refused, 1);
    }

    /// Satellite regression: the legacy accept loop slept 50 ms on
    /// `WouldBlock`, so shutdown could straggle multiple poll periods. The
    /// reactor must exit in under 2× its poll interval even with idle open
    /// connections — this pins the bound so the busy-wait can't return.
    #[test]
    fn shutdown_latency_is_bounded_by_twice_poll_interval() {
        let cfg = ReactorConfig {
            poll_interval: Duration::from_millis(250),
            ..ReactorConfig::default()
        };
        let (addr, stop, outbox, h) = start(cfg);
        let _idle1 = TcpStream::connect(addr).expect("connect");
        let _idle2 = TcpStream::connect(addr).expect("connect");
        // Let the reactor park with the idle connections registered.
        std::thread::sleep(Duration::from_millis(50));
        let t0 = Instant::now();
        stop.store(true, Ordering::SeqCst);
        outbox.wake();
        h.join().expect("join");
        let elapsed = t0.elapsed();
        assert!(
            elapsed < Duration::from_millis(500),
            "shutdown took {elapsed:?}, bound is 2 × 250ms poll"
        );
    }

    /// What the reactor's framing must equal, whatever the fragmentation:
    /// split the whole stream at `\n`, decode, trim, drop the empties.
    fn split_oracle(stream: &[u8]) -> Vec<String> {
        let terminated = &stream[..stream
            .iter()
            .rposition(|&b| b == b'\n')
            .map_or(0, |p| p + 1)];
        terminated
            .split(|&b| b == b'\n')
            .map(|l| String::from_utf8_lossy(l).trim().to_string())
            .filter(|l| !l.is_empty())
            .collect()
    }

    #[test]
    fn framing_matches_split_oracle_under_random_fragmentation() {
        const SEED: u64 = 0xC0FFEE;
        for case in 0..64u64 {
            let mut draws = 0u64;
            let mut roll = |n: u64| {
                draws += 1;
                mix64(SEED, case, draws) % n
            };
            // A stream of lines of every awkward kind.
            let mut stream: Vec<u8> = Vec::new();
            for _ in 0..roll(40) + 1 {
                match roll(7) {
                    0 => {}                                  // empty line
                    1 => stream.extend_from_slice(b"  \t "), // blank line
                    2 => stream.extend_from_slice(b"crlf line\r"),
                    3 => stream.extend_from_slice(&[b'a', 0xff, 0xc3, b'z', 0xe2, 0x82]),
                    4 => stream.extend_from_slice("µs → ok".as_bytes()),
                    5 => {
                        // Longer than the read chunk.
                        let len = READ_CHUNK + roll(READ_CHUNK as u64) as usize;
                        stream.extend((0..len).map(|i| b'a' + (i % 23) as u8));
                    }
                    _ => {
                        let len = roll(200) as usize;
                        stream.extend((0..len).map(|i| b' ' + ((i * 7 + len) % 90) as u8));
                    }
                }
                stream.push(b'\n');
            }
            stream.extend_from_slice(b"unterminated tail");

            // Cut it at random boundaries: trickles, small and large reads.
            let mut framer = Framer::default();
            let mut got: Vec<String> = Vec::new();
            let mut at = 0;
            while at < stream.len() {
                let cut = match roll(4) {
                    0 => 1,
                    1 => 1 + roll(16) as usize,
                    2 => 1 + roll(4096) as usize,
                    _ => READ_CHUNK,
                };
                let end = (at + cut).min(stream.len());
                framer
                    .feed(&stream[at..end], |line| got.push(line.to_string()))
                    .expect("no line is near the cap");
                at = end;
            }
            assert_eq!(got, split_oracle(&stream), "case {case}");
            assert_eq!(framer.partial, b"unterminated tail", "case {case}");
        }
    }

    /// Answers `big` with 8 MiB of patterned bytes — twice what Linux lets
    /// a send buffer grow to by default, so the first write is short —
    /// anything else with an echo.
    struct Big;
    const BIG: usize = 8 << 20;
    fn big_byte(i: usize) -> u8 {
        b'A' + (i % 26) as u8 + ((i / 4093) % 2) as u8 * 32
    }
    impl LineHandler for Big {
        fn on_line(&self, conn: ConnId, line: &str, out: &Outbox) {
            let reply = match line {
                "big" => (0..BIG).map(big_byte).collect(),
                other => other.to_uppercase().into_bytes(),
            };
            out.send(conn, reply);
        }
    }

    #[test]
    fn back_pressured_reply_arrives_intact_while_others_are_served() {
        let (addr, stop, outbox, h) = start_with(Big, slow_poll());
        let (mut slow, mut slow_r) = connect(addr);
        slow.write_all(b"big\n").expect("write");
        // The reply cannot fit the socket buffers, so it parks on `POLLOUT`.
        // A second connection is served meanwhile, promptly.
        let (mut other, mut other_r) = connect(addr);
        for i in 0..10 {
            // Drain a little of the big reply before each echo (the first
            // sip also waits out the handler building it): every refill is
            // a `POLLOUT` wake-up.
            let mut sip = vec![0u8; 8192];
            slow_r.read_exact(&mut sip).expect("sip");
            let from = i * sip.len();
            assert!(sip
                .iter()
                .enumerate()
                .all(|(k, &b)| b == big_byte(from + k)));
            let t0 = Instant::now();
            assert_eq!(
                echo(&mut other, &mut other_r, &format!("m{i}")),
                format!("M{i}")
            );
            let took = t0.elapsed();
            assert!(took < Duration::from_millis(50), "echo {i} took {took:?}");
        }
        let mut rest = Vec::new();
        slow_r.read_until(b'\n', &mut rest).expect("rest");
        assert_eq!(rest.len(), BIG - 10 * 8192 + 1);
        assert_eq!(rest.pop(), Some(b'\n'));
        let from = 10 * 8192;
        assert!(rest
            .iter()
            .enumerate()
            .all(|(k, &b)| b == big_byte(from + k)));
        // And the connection still works.
        assert_eq!(echo(&mut slow, &mut slow_r, "after"), "AFTER");
        stop.store(true, Ordering::SeqCst);
        outbox.wake();
        h.join().expect("join");
    }

    /// Never answers `hold`; tells the test when it arrived.
    struct Hold(Mutex<mpsc::Sender<()>>);
    impl LineHandler for Hold {
        fn on_line(&self, conn: ConnId, line: &str, out: &Outbox) {
            if line == "hold" {
                self.0.lock().expect("lock").send(()).expect("test listens");
            } else {
                out.send(conn, line.to_uppercase().into_bytes());
            }
        }
    }

    /// CI "Wire latency smoke". A half-closed connection still owed a reply
    /// has nothing to wait for, yet the kernel reports its hang-up whether
    /// asked or not: were it in the poll set, the level-triggered wait would
    /// return at once, forever.
    #[test]
    fn idle_reactor_does_not_spin() {
        let (tx, rx) = mpsc::channel();
        let (addr, stop, outbox, h) = start_with(Hold(Mutex::new(tx)), slow_poll());
        let (mut open, mut open_r) = connect(addr);
        assert_eq!(echo(&mut open, &mut open_r, "ready"), "READY");
        let (mut half, _half_r) = connect(addr);
        half.write_all(b"hold\n").expect("write");
        rx.recv().expect("line dispatched");
        half.shutdown(Shutdown::Write).expect("half-close");

        std::thread::sleep(Duration::from_millis(200));

        stop.store(true, Ordering::SeqCst);
        outbox.wake();
        let stats = h.join().expect("join");
        // Everything before the sleep is at most 7 wake-ups (two accepts, a
        // line and the pipe byte of its in-thread echo, the held line, the
        // FIN, one spare), the shutdown is one, and 200 ms of idling at a
        // 250 ms timeout may add 3 with room to spare. A spin adds
        // thousands.
        assert_eq!((stats.accepted, stats.lines, stats.responses), (2, 2, 1));
        assert!(stats.polls <= 7 + 3 + 1, "{} polls", stats.polls);
    }
}
