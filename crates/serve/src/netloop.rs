//! The reactor core shared by the `epicd` and `epicg` event loops, and
//! the only place either loop blocks.
//!
//! * [`Poller`] — the readiness wait. Each loop iteration registers the
//!   sockets that can make progress (a reading connection for input, a
//!   writing one for output space) and calls [`Poller::wait`] with the
//!   loop's earliest timer deadline. On unix that is one `poll(2)` call
//!   through a tiny `extern "C"` shim — the workspace's only `unsafe` —
//!   over a `#[repr(C)]` pollfd buffer reused across waits. Elsewhere
//!   the wait degrades to a short sleep and the loop's nonblocking
//!   attempt sweep finds the work.
//! * [`Waker`] — a socket pair whose read end every wait also polls, so
//!   another thread (a job completion, a `stop` call) can end a wait.
//! * [`OutFrame`], [`accept`], [`reject`] and [`Slab`] — the frame
//!   output, accept-at-capacity and slot bookkeeping both loops need.
//!
//! The wait is level-triggered: it reports a socket as long as bytes
//! sit in its kernel buffer. That is why the loops need no "did this
//! sweep make progress" bookkeeping — a sweep that stopped short (a
//! per-connection frame budget, say) leaves the socket readable and the
//! next wait returns at once. It holds only because
//! [`FrameDecoder::read_from`](crate::proto::FrameDecoder::read_from)
//! never reads past the current frame: no request bytes ever wait in
//! user space where `poll` cannot see them. Keep that invariant.

use crate::key::CacheKey;
use crate::proto::{self, Response};
use epic_driver::Measurement;
use epic_trace::Histogram;
use std::io::{IoSlice, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// What a registered socket is waited on for.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Interest {
    /// Input (or a pending accept, or a hangup) is available.
    Read,
    /// Output buffer space is available.
    Write,
}

/// Anything the readiness wait can watch: a socket on unix.
#[cfg(unix)]
pub use std::os::fd::AsRawFd as Source;

/// Anything the readiness wait can watch (the fallback wait watches
/// nothing, so every type qualifies).
#[cfg(not(unix))]
pub trait Source {}
#[cfg(not(unix))]
impl<T: ?Sized> Source for T {}

#[cfg(unix)]
mod sys {
    use std::os::raw::{c_int, c_short};

    /// `struct pollfd`, identical on every unix.
    #[repr(C)]
    pub struct PollFd {
        pub fd: c_int,
        pub events: c_short,
        pub revents: c_short,
    }

    pub const POLLIN: c_short = 0x1;
    pub const POLLOUT: c_short = 0x4;

    #[cfg(any(target_os = "linux", target_os = "android"))]
    pub type NFds = std::os::raw::c_ulong;
    #[cfg(not(any(target_os = "linux", target_os = "android")))]
    pub type NFds = std::os::raw::c_uint;

    extern "C" {
        pub fn poll(fds: *mut PollFd, nfds: NFds, timeout: c_int) -> c_int;
    }
}

/// Cross-thread signals to a loop blocked in [`Poller::wait`]: `wake`
/// writes one byte to a socket pair whose read end the wait polls, and
/// `stop` also raises the flag the loop checks each iteration. `armed`
/// keeps at most one byte in flight however many wakes race.
pub struct Waker {
    #[cfg(unix)]
    rx: std::os::unix::net::UnixStream,
    #[cfg(unix)]
    tx: std::os::unix::net::UnixStream,
    armed: AtomicBool,
    stopped: AtomicBool,
}

impl Waker {
    /// A fresh, disarmed waker.
    ///
    /// # Errors
    /// Socket-pair creation failures.
    pub fn new() -> std::io::Result<Waker> {
        #[cfg(unix)]
        let (rx, tx) = std::os::unix::net::UnixStream::pair()?;
        #[cfg(unix)]
        for end in [&rx, &tx] {
            end.set_nonblocking(true)?;
        }
        Ok(Waker {
            #[cfg(unix)]
            rx,
            #[cfg(unix)]
            tx,
            armed: AtomicBool::new(false),
            stopped: AtomicBool::new(false),
        })
    }

    /// Ask the loop to exit, and wake it so it notices.
    pub fn stop(&self) {
        self.stopped.store(true, Ordering::SeqCst);
        self.wake();
    }

    /// Whether [`stop`](Waker::stop) has been called.
    pub fn stopped(&self) -> bool {
        self.stopped.load(Ordering::SeqCst)
    }

    /// End the loop's current (or next) wait.
    pub fn wake(&self) {
        if !self.armed.swap(true, Ordering::SeqCst) {
            #[cfg(unix)]
            let _ = (&self.tx).write(&[1u8]);
        }
    }

    /// Consume pending wake bytes, *then* disarm, so the next wait
    /// blocks until the next wake. A wake racing this call either lands
    /// before the disarm (its work is already queued, and the loop looks
    /// at its queues next) or after it, and sends a fresh byte. The other
    /// order loses wakes: a racing byte could be drained while `armed`
    /// stays set, and every later wake would skip its write.
    fn reset(&self) {
        #[cfg(unix)]
        {
            let mut buf = [0u8; 64];
            while matches!(std::io::Read::read(&mut (&self.rx), &mut buf), Ok(n) if n > 0) {}
        }
        // a read-modify-write, so the racing wake's queued work is
        // visible to the loop's next look at its queues
        self.armed.swap(false, Ordering::SeqCst);
    }
}

/// The readiness wait: register sockets, then [`wait`](Poller::wait).
/// Registrations last for one wait; the pollfd buffer is reused.
pub struct Poller {
    #[cfg(unix)]
    fds: Vec<sys::PollFd>,
    waker: Arc<Waker>,
    wait_us: Histogram,
}

/// Longest the non-unix fallback sleeps before the loop sweeps again.
#[cfg(not(unix))]
const FALLBACK_PARK: std::time::Duration = std::time::Duration::from_millis(5);

impl Poller {
    /// A poller that always also watches `waker` and records each
    /// wait's blocked time, in µs, to `wait_us`.
    pub fn new(waker: Arc<Waker>, wait_us: Histogram) -> Poller {
        Poller {
            #[cfg(unix)]
            fds: Vec::new(),
            waker,
            wait_us,
        }
    }

    /// Watch `src` for `interest` during the next wait.
    #[cfg_attr(not(unix), allow(unused_variables))]
    pub fn register(&mut self, src: &impl Source, interest: Interest) {
        #[cfg(unix)]
        self.fds.push(sys::PollFd {
            fd: src.as_raw_fd(),
            events: match interest {
                Interest::Read => sys::POLLIN,
                Interest::Write => sys::POLLOUT,
            },
            revents: 0,
        });
    }

    /// Block until a registered socket is ready, `deadline` passes (never,
    /// for `None`), or the waker fires; then clear the registrations. Pass
    /// a deadline of now only when non-socket work is already queued —
    /// otherwise the loop would spin.
    pub fn wait(&mut self, deadline: Option<Instant>) {
        let t0 = Instant::now();
        let timeout = deadline.map(|d| d.saturating_duration_since(t0));
        #[cfg(unix)]
        {
            let rx = self.waker.rx.as_raw_fd();
            self.register(&rx, Interest::Read);
            // whole milliseconds, rounded up so a timer never fires early
            let ms = timeout.map_or(-1, |t| {
                i32::try_from(t.as_micros().div_ceil(1000)).unwrap_or(i32::MAX)
            });
            // SAFETY: `fds` is a live, exclusively borrowed buffer of
            // `fds.len()` initialised `#[repr(C)]` pollfd records, which is
            // exactly what poll(2) reads and writes (`revents` only); it
            // keeps no pointer past the call. An error (EINTR, or a closed
            // fd) just ends this wait: the loop re-sweeps and waits again.
            #[allow(unsafe_code)]
            let _ = unsafe { sys::poll(self.fds.as_mut_ptr(), self.fds.len() as sys::NFds, ms) };
            if self.fds.pop().is_some_and(|w| w.revents != 0) {
                self.waker.reset();
            }
            self.fds.clear();
        }
        #[cfg(not(unix))]
        {
            std::thread::sleep(timeout.map_or(FALLBACK_PARK, |t| t.min(FALLBACK_PARK)));
            self.waker.reset();
        }
        self.wait_us.record(t0.elapsed().as_micros() as u64);
    }
}

/// One outgoing frame — big-endian length header plus body — flushed
/// with vectored writes that resume mid-frame after `WouldBlock`. The
/// body buffer keeps its capacity across frames.
#[derive(Default)]
pub struct OutFrame {
    header: [u8; 4],
    body: Vec<u8>,
    sent: usize,
}

impl OutFrame {
    /// Encode `resp` as the next frame, reusing the body buffer.
    pub fn stage(&mut self, resp: &Response) {
        proto::encode_response_into(resp, &mut self.body);
        self.restart();
    }

    /// Encode a `Done` answer as the next frame straight from a borrowed
    /// measurement (see [`proto::encode_done_into`]).
    pub fn stage_done(&mut self, key: CacheKey, cache_hit: bool, coalesced: bool, m: &Measurement) {
        proto::encode_done_into(key, cache_hit, coalesced, m, &mut self.body);
        self.restart();
    }

    /// Stage an already encoded body, byte for byte, as the next frame:
    /// a gateway forwarding a shard's answer.
    pub fn stage_raw(&mut self, body: &[u8]) {
        self.body.clear();
        self.body.extend_from_slice(body);
        self.restart();
    }

    /// Frame the freshly staged body from its first byte.
    fn restart(&mut self) {
        self.header = (self.body.len() as u32).to_be_bytes();
        self.sent = 0;
    }

    /// Body length of the staged frame.
    pub fn body_len(&self) -> usize {
        self.body.len()
    }

    /// The staged body, e.g. to send the same frame on another stream.
    pub fn into_body(self) -> Vec<u8> {
        self.body
    }

    /// Whether every byte of the staged frame has been written.
    pub fn flushed(&self) -> bool {
        self.sent == 4 + self.body.len()
    }

    /// Push the frame out as far as `w` allows. `Ok(true)` once fully
    /// flushed, `Ok(false)` on `WouldBlock`.
    ///
    /// # Errors
    /// Transport errors; a zero-length write is `WriteZero`.
    pub fn write_to(&mut self, w: &mut impl Write) -> std::io::Result<bool> {
        while !self.flushed() {
            let hdr = &self.header[self.sent.min(4)..];
            let body = &self.body[self.sent.saturating_sub(4)..];
            match w.write_vectored(&[IoSlice::new(hdr), IoSlice::new(body)]) {
                Ok(0) => {
                    return Err(std::io::Error::new(
                        std::io::ErrorKind::WriteZero,
                        "peer stopped accepting bytes mid-frame",
                    ))
                }
                Ok(n) => self.sent += n,
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => return Ok(false),
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
        }
        Ok(true)
    }
}

/// What pumping one client connection concluded.
pub enum Outcome {
    /// Still open; the next wait covers it.
    Keep,
    /// Hung up, broken, or answered with a final frame: free its slot.
    Close,
    /// A `ShutdownOk` has been flushed: stop the whole loop.
    Shutdown,
}

/// The next queued connection, nonblocking with Nagle off; `None` once
/// the backlog is empty (or `accept` fails).
pub fn accept(listener: &TcpListener) -> Option<TcpStream> {
    loop {
        match listener.accept() {
            Ok((stream, _)) => {
                if stream.set_nonblocking(true).is_ok() {
                    let _ = stream.set_nodelay(true);
                    return Some(stream);
                }
            }
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(_) => return None,
        }
    }
}

/// Over-cap admission: a best-effort typed error frame, then close. The
/// frame is a few dozen bytes, so one nonblocking write delivers it in
/// practice.
pub fn reject(mut stream: TcpStream, msg: &str) {
    let mut frame = OutFrame::default();
    frame.stage(&Response::Err(msg.to_string()));
    let _ = frame.write_to(&mut stream);
}

/// Slot-indexed storage with a free list: an entry's index is stable for
/// its lifetime (connections and pending requests are named by index),
/// and freed slots are reused. An entry can be *checked out* — removed
/// while its slot stays reserved — so a loop can hold `&mut self` and
/// the entry at once.
pub struct Slab<T> {
    slots: Vec<Option<T>>,
    /// Per slot, how many entries it has held.
    gens: Vec<u64>,
    free: Vec<usize>,
}

/// Names one slab entry for as long as it lives: its slot plus that
/// slot's generation, so a key that outlives its entry (a job completing
/// after its client hung up) never reaches the slot's next occupant.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Key {
    slot: usize,
    gen: u64,
}

impl<T> Default for Slab<T> {
    fn default() -> Slab<T> {
        Slab {
            slots: Vec::new(),
            gens: Vec::new(),
            free: Vec::new(),
        }
    }
}

impl<T> Slab<T> {
    /// Store `v`, returning its index.
    pub fn insert(&mut self, v: T) -> usize {
        let i = self.free.pop().unwrap_or_else(|| {
            self.slots.push(None);
            self.gens.push(0);
            self.slots.len() - 1
        });
        self.slots[i] = Some(v);
        self.gens[i] += 1;
        i
    }

    /// The key of the entry at `i` (checked out or not).
    pub fn key(&self, i: usize) -> Key {
        Key {
            slot: i,
            gen: self.gens[i],
        }
    }

    /// The entry `key` names, unless it is gone, checked out, or its
    /// slot has been reused.
    pub fn get_by_key(&mut self, key: Key) -> Option<&mut T> {
        if self.gens.get(key.slot) != Some(&key.gen) {
            return None;
        }
        self.get_mut(key.slot)
    }

    /// Live entries, checked-out ones included.
    pub fn live(&self) -> usize {
        self.slots.len() - self.free.len()
    }

    /// One past the highest index ever handed out.
    pub fn slots(&self) -> usize {
        self.slots.len()
    }

    /// The entry at `i`, unless free or checked out.
    pub fn get_mut(&mut self, i: usize) -> Option<&mut T> {
        self.slots.get_mut(i).and_then(Option::as_mut)
    }

    /// Present entries with their indices.
    pub fn iter(&self) -> impl Iterator<Item = (usize, &T)> {
        self.slots
            .iter()
            .enumerate()
            .filter_map(|(i, s)| s.as_ref().map(|v| (i, v)))
    }

    /// Take the entry at `i` out, keeping the slot reserved; follow with
    /// [`check_in`](Slab::check_in) or [`release`](Slab::release).
    pub fn check_out(&mut self, i: usize) -> Option<T> {
        self.slots.get_mut(i)?.take()
    }

    /// Return a checked-out entry to its slot.
    pub fn check_in(&mut self, i: usize, v: T) {
        self.slots[i] = Some(v);
    }

    /// Free the reserved slot of a checked-out entry.
    pub fn release(&mut self, i: usize) {
        self.free.push(i);
    }

    /// Free slot `i`, returning its entry.
    pub fn remove(&mut self, i: usize) -> Option<T> {
        let v = self.check_out(i)?;
        self.release(i);
        Some(v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn slab_reuses_freed_slots_and_guards_stale_keys() {
        let mut s = Slab::default();
        let (a, b) = (s.insert('a'), s.insert('b'));
        assert_eq!((a, b, s.live()), (0, 1, 2));
        assert_eq!(s.check_out(a), Some('a'));
        assert_eq!(s.live(), 2);
        assert_eq!(s.get_mut(a), None);
        s.release(a);
        let stale = s.key(a);
        assert_eq!(s.insert('c'), a);
        assert_eq!(s.get_by_key(stale), None);
        assert_eq!(s.get_by_key(s.key(a)), Some(&mut 'c'));
        assert_eq!(s.remove(b), Some('b'));
        assert_eq!(s.remove(b), None);
        assert_eq!(s.iter().collect::<Vec<_>>(), vec![(0, &'c')]);
    }

    #[test]
    fn out_frame_resumes_mid_frame() {
        /// Takes `room` more bytes, then blocks.
        struct Tight(Vec<u8>, usize);
        impl Write for Tight {
            fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
                let n = buf.len().min(self.1);
                if n == 0 {
                    return Err(std::io::ErrorKind::WouldBlock.into());
                }
                self.0.extend_from_slice(&buf[..n]);
                self.1 -= n;
                Ok(n)
            }
            fn flush(&mut self) -> std::io::Result<()> {
                Ok(())
            }
        }
        let mut f = OutFrame::default();
        f.stage_raw(b"hello");
        let mut w = Tight(Vec::new(), 2);
        assert!(!f.write_to(&mut w).unwrap() && !f.flushed());
        w.1 = 5;
        assert!(!f.write_to(&mut w).unwrap());
        w.1 = 99;
        assert!(f.write_to(&mut w).unwrap() && f.flushed());
        assert_eq!(w.0, b"\0\0\0\x05hello");
    }

    #[test]
    fn racing_wakes_are_never_lost() {
        // A lost wake leaves `armed` set with no byte in flight: every
        // later wake (the final `stop` included) skips its write, and the
        // wait runs to its deadline.
        let waker = Arc::new(Waker::new().unwrap());
        let mut p = Poller::new(Arc::clone(&waker), Histogram::detached());
        let w = Arc::clone(&waker);
        let producer = std::thread::spawn(move || {
            let t0 = Instant::now();
            while t0.elapsed() < Duration::from_millis(300) {
                w.wake();
            }
            w.stop();
        });
        while !waker.stopped() {
            let t0 = Instant::now();
            p.wait(Some(t0 + Duration::from_secs(2)));
            assert!(t0.elapsed() < Duration::from_secs(2), "a wake was lost");
        }
        producer.join().unwrap();
    }

    #[test]
    #[cfg(unix)] // the fallback wait never blocks past 5 ms
    fn wait_returns_on_readiness_and_deadline() {
        let mut p = Poller::new(Arc::new(Waker::new().unwrap()), Histogram::detached());
        let l = TcpListener::bind("127.0.0.1:0").unwrap();
        l.set_nonblocking(true).unwrap();

        // deadline: nothing is ready
        let t0 = Instant::now();
        p.register(&l, Interest::Read);
        p.wait(Some(t0 + Duration::from_millis(20)));
        assert!(t0.elapsed() >= Duration::from_millis(20));

        // readiness: a pending accept ends the wait long before its deadline
        let _c = TcpStream::connect(l.local_addr().unwrap()).unwrap();
        let t0 = Instant::now();
        p.register(&l, Interest::Read);
        p.wait(Some(t0 + Duration::from_secs(5)));
        assert!(t0.elapsed() < Duration::from_secs(5));
        assert!(accept(&l).is_some());
    }
}
