//! `poll(2)`: the reactor's one blocking call, and this workspace's one
//! `unsafe` block.
//!
//! std exposes no readiness wait, and every safe substitute costs what the
//! reactor exists to avoid: a timed sleep puts the timer on every request's
//! path, a reader thread per connection brings back thread-per-connection,
//! and a spin burns a core this box does not have. std already links libc,
//! so one `extern "C"` declaration reaches `poll` with no new dependency.
//! The wrapper is safe to call: the kernel reads and writes exactly the
//! `fds.len()` entries of a slice the caller holds exclusively, and a
//! descriptor number that is stale or invalid is reported in `revents`
//! (`POLLNVAL`), not dereferenced.

use std::ffi::c_int;
use std::io;
use std::os::fd::AsRawFd;
use std::time::Duration;

/// Data to read — or a pending accept, or end-of-stream.
pub(crate) const POLLIN: i16 = 0x001;
/// Room in the socket's send buffer.
pub(crate) const POLLOUT: i16 = 0x004;

#[cfg(any(target_os = "linux", target_os = "android"))]
type NfdsT = std::ffi::c_ulong;
#[cfg(not(any(target_os = "linux", target_os = "android")))]
type NfdsT = std::ffi::c_uint;

/// One `struct pollfd`, laid out as POSIX specifies it.
#[repr(C)]
pub(crate) struct PollFd {
    fd: c_int,
    events: i16,
    revents: i16,
}

impl PollFd {
    /// Watch `io` for `events` (`POLLIN | POLLOUT`). The kernel reports
    /// errors and hang-ups whether asked to or not, so a descriptor with
    /// nothing to wait for must be left out of the set, not passed with 0.
    pub(crate) fn new(io: &impl AsRawFd, events: i16) -> PollFd {
        PollFd {
            fd: io.as_raw_fd(),
            events,
            revents: 0,
        }
    }

    /// A read will not block: data, EOF, a pending accept, or an error the
    /// read will return.
    pub(crate) fn readable(&self) -> bool {
        self.revents & !POLLOUT != 0
    }

    /// A write will not block: buffer space, or an error the write will
    /// return.
    pub(crate) fn writable(&self) -> bool {
        self.revents & !POLLIN != 0
    }
}

extern "C" {
    fn poll(fds: *mut PollFd, nfds: NfdsT, timeout: c_int) -> c_int;
}

/// Blocks until a descriptor in `fds` is ready or `timeout` passes (rounded
/// up to a whole millisecond, so a short timeout never turns into a spin),
/// and returns how many entries have `revents` set. `EINTR` is retried.
pub(crate) fn wait(fds: &mut [PollFd], timeout: Duration) -> io::Result<usize> {
    let ms = c_int::try_from(timeout.as_nanos().div_ceil(1_000_000)).unwrap_or(c_int::MAX);
    loop {
        // SAFETY: `fds` is an exclusive borrow of `fds.len()` initialised
        // `#[repr(C)]` `PollFd`s whose layout is `struct pollfd`'s; `poll`
        // reads `fd`/`events` and writes `revents` of exactly those entries
        // and keeps no pointer past its return. Descriptor numbers are plain
        // integers to it: a closed or foreign one yields `POLLNVAL`.
        let n = unsafe { poll(fds.as_mut_ptr(), fds.len() as NfdsT, ms) };
        if n >= 0 {
            return Ok(n as usize);
        }
        let e = io::Error::last_os_error();
        if e.kind() != io::ErrorKind::Interrupted {
            return Err(e);
        }
    }
}
