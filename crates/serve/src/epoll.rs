//! Readiness notification for the serving loop: a minimal binding to
//! Linux `epoll` and `eventfd`, declared against the libc that `std`
//! already links, so serving needs no external crate.
//!
//! Two owning types close their descriptors on drop. [`Epoll`] is an
//! epoll instance a thread blocks in; [`Waker`] is an eventfd another
//! thread writes to wake it. A waker also keeps a list of marked tokens,
//! so the woken shard learns *which* of its connections have an answered
//! extraction, not merely that something happened.

use std::io;
use std::os::fd::RawFd;
use std::os::raw::{c_int, c_uint, c_void};
use std::sync::{Arc, Mutex};
use std::time::Duration;

/// Readable, including a peer's half-close.
pub(crate) const EPOLLIN: u32 = 0x001;
/// Writable.
pub(crate) const EPOLLOUT: u32 = 0x004;
/// The peer shut down its writing half.
pub(crate) const EPOLLRDHUP: u32 = 0x2000;
/// Edge-triggered: report a readiness change once, not while it lasts.
pub(crate) const EPOLLET: u32 = 1 << 31;

const EPOLL_CLOEXEC: c_int = 0o2_000_000;
const EPOLL_CTL_ADD: c_int = 1;
const EPOLL_CTL_MOD: c_int = 3;
const EFD_CLOEXEC: c_int = 0o2_000_000;
const EFD_NONBLOCK: c_int = 0o4_000;

/// `struct epoll_event`. The kernel ABI packs it on x86-64 only.
#[repr(C)]
#[cfg_attr(target_arch = "x86_64", repr(packed))]
#[derive(Clone, Copy)]
struct EpollEvent {
    events: u32,
    data: u64,
}

extern "C" {
    fn epoll_create1(flags: c_int) -> c_int;
    fn epoll_ctl(epfd: c_int, op: c_int, fd: c_int, event: *mut EpollEvent) -> c_int;
    fn epoll_wait(epfd: c_int, events: *mut EpollEvent, maxevents: c_int, timeout: c_int) -> c_int;
    fn eventfd(initval: c_uint, flags: c_int) -> c_int;
    fn read(fd: c_int, buf: *mut c_void, count: usize) -> isize;
    fn write(fd: c_int, buf: *const c_void, count: usize) -> isize;
    fn close(fd: c_int) -> c_int;
}

/// Turns a `-1` return into the thread's `errno`.
fn check(ret: c_int) -> io::Result<c_int> {
    if ret < 0 {
        Err(io::Error::last_os_error())
    } else {
        Ok(ret)
    }
}

/// An owned epoll instance.
pub(crate) struct Epoll {
    fd: RawFd,
}

impl Epoll {
    pub(crate) fn new() -> io::Result<Epoll> {
        // SAFETY: epoll_create1 takes no pointers; a valid flag set.
        let fd = check(unsafe { epoll_create1(EPOLL_CLOEXEC) })?;
        Ok(Epoll { fd })
    }

    /// Registers `fd` for `events`, reported under `token`.
    pub(crate) fn add(&self, fd: RawFd, events: u32, token: u64) -> io::Result<()> {
        self.ctl(EPOLL_CTL_ADD, fd, events, token)
    }

    /// Replaces the interest set of an already registered `fd`.
    pub(crate) fn modify(&self, fd: RawFd, events: u32, token: u64) -> io::Result<()> {
        self.ctl(EPOLL_CTL_MOD, fd, events, token)
    }

    fn ctl(&self, op: c_int, fd: RawFd, events: u32, token: u64) -> io::Result<()> {
        let mut event = EpollEvent { events, data: token };
        // SAFETY: `event` is a live, initialized epoll_event the kernel
        // only reads during the call. A stale or foreign `fd` is reported
        // as an error (EBADF/ENOENT), never undefined behaviour.
        check(unsafe { epoll_ctl(self.fd, op, fd, &mut event) }).map(drop)
    }

    /// Blocks until a registered descriptor is ready or `timeout` passes
    /// (`None` waits indefinitely), filling `events`. The timeout rounds
    /// up to whole milliseconds, so a deadline is never woken early. A
    /// signal interrupting the wait returns with no events.
    pub(crate) fn wait(&self, events: &mut Events, timeout: Option<Duration>) -> io::Result<()> {
        let ms =
            timeout.map_or(-1, |t| t.as_nanos().div_ceil(1_000_000).min(i32::MAX as u128) as c_int);
        let cap = c_int::try_from(events.buf.len()).unwrap_or(c_int::MAX);
        // SAFETY: `buf` is an exclusively borrowed allocation of at least
        // `cap` events; the kernel writes at most `cap` of them.
        let n = unsafe { epoll_wait(self.fd, events.buf.as_mut_ptr(), cap, ms) };
        events.len = match check(n) {
            Ok(n) => n as usize,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => 0,
            Err(e) => return Err(e),
        };
        Ok(())
    }
}

impl Drop for Epoll {
    fn drop(&mut self) {
        // SAFETY: `fd` is owned by this value and closed exactly once.
        unsafe { close(self.fd) };
    }
}

/// The buffer one [`Epoll::wait`] fills.
pub(crate) struct Events {
    buf: Vec<EpollEvent>,
    len: usize,
}

impl Events {
    pub(crate) fn with_capacity(capacity: usize) -> Events {
        Events { buf: vec![EpollEvent { events: 0, data: 0 }; capacity.max(1)], len: 0 }
    }

    /// The tokens of the descriptors the last wait reported ready.
    pub(crate) fn tokens(&self) -> impl Iterator<Item = u64> + '_ {
        self.buf[..self.len].iter().map(|e| e.data)
    }
}

/// An owned eventfd that wakes a thread blocked in [`Epoll::wait`], plus
/// the tokens marked since that thread last took them.
pub(crate) struct Waker {
    fd: RawFd,
    marked: Mutex<Vec<u64>>,
}

impl Waker {
    pub(crate) fn new() -> io::Result<Waker> {
        // SAFETY: eventfd takes no pointers; a valid flag set.
        let fd = check(unsafe { eventfd(0, EFD_CLOEXEC | EFD_NONBLOCK) })?;
        Ok(Waker { fd, marked: Mutex::new(Vec::new()) })
    }

    /// The descriptor to register (level-triggered, [`EPOLLIN`]).
    pub(crate) fn fd(&self) -> RawFd {
        self.fd
    }

    /// Makes the eventfd readable until the next [`take`](Waker::take).
    pub(crate) fn wake(&self) {
        let one = 1u64;
        // SAFETY: writes 8 bytes from a live u64, as eventfd requires. The
        // only possible failure, EAGAIN at a saturated counter, means the
        // descriptor is already readable — the wake has happened.
        unsafe { write(self.fd, (&one as *const u64).cast(), 8) };
    }

    /// Marks `token` and wakes the owner if the list was empty — a
    /// non-empty list already has a wake pending, since [`take`]
    /// clears the eventfd before it empties the list.
    ///
    /// [`take`]: Waker::take
    pub(crate) fn mark(&self, token: u64) {
        let first = {
            let mut marked = self.marked.lock().unwrap_or_else(|e| e.into_inner());
            marked.push(token);
            marked.len() == 1
        };
        if first {
            self.wake();
        }
    }

    /// Clears the eventfd, then moves every marked token into `into`.
    pub(crate) fn take(&self, into: &mut Vec<u64>) {
        let mut count = 0u64;
        // SAFETY: reads 8 bytes into a live u64, as eventfd requires. On a
        // nonblocking eventfd with a zero counter it fails with EAGAIN,
        // which leaves nothing to clear.
        unsafe { read(self.fd, (&mut count as *mut u64).cast(), 8) };
        into.append(&mut self.marked.lock().unwrap_or_else(|e| e.into_inner()));
    }
}

impl Drop for Waker {
    fn drop(&mut self) {
        // SAFETY: `fd` is owned by this value and closed exactly once.
        unsafe { close(self.fd) };
    }
}

/// Where the batcher reports an answered extraction: the submitting
/// shard's [`Waker`] and the connection's token on that shard.
#[derive(Clone)]
pub(crate) struct Wake {
    pub(crate) waker: Arc<Waker>,
    pub(crate) token: u64,
}

impl Wake {
    /// Marks the connection on its shard, waking the shard if needed.
    pub(crate) fn wake(&self) {
        self.waker.mark(self.token);
    }
}
