//! The Linux calls the standard library does not wrap: `wait4`, for a
//! child's peak memory, and `prctl`, for punctual sleeps and for children
//! that cannot outlive the harness.

use std::io;
use std::os::raw::{c_int, c_long, c_ulong};
use std::os::unix::process::CommandExt;
use std::process::Command;

#[repr(C)]
struct TimeVal {
    sec: c_long,
    usec: c_long,
}

/// `struct rusage` of 64-bit Linux: two timevals, then 14 longs of which the
/// first is `ru_maxrss` (kB).
#[repr(C)]
struct RUsage {
    utime: TimeVal,
    stime: TimeVal,
    maxrss: c_long,
    rest: [c_long; 13],
}

extern "C" {
    fn wait4(pid: c_int, status: *mut c_int, options: c_int, rusage: *mut RUsage) -> c_int;
    fn prctl(option: c_int, arg2: c_ulong, ...) -> c_int;
}

const PR_SET_PDEATHSIG: c_int = 1;
const PR_SET_TIMERSLACK: c_int = 29;
const SIGKILL: c_ulong = 9;

/// How a reaped child ended.
pub struct Reaped {
    /// Exit code, `None` when a signal ended the child.
    pub exit_code: Option<i32>,
    /// Peak resident set size, kB.
    pub max_rss_kb: u64,
}

/// Blocks until child `pid` exits, reaps it and returns how it ended.
pub fn reap(pid: u32) -> io::Result<Reaped> {
    let pid = c_int::try_from(pid).map_err(|_| io::Error::other("pid out of range"))?;
    let mut status: c_int = 0;
    let mut usage = RUsage {
        utime: TimeVal { sec: 0, usec: 0 },
        stime: TimeVal { sec: 0, usec: 0 },
        maxrss: 0,
        rest: [0; 13],
    };
    loop {
        // SAFETY: `status` and `usage` are live, exclusively borrowed locals
        // whose layouts match the C `int` and the 64-bit Linux
        // `struct rusage` that wait4 writes; it writes nothing else.
        let ret = unsafe { wait4(pid, &mut status, 0, &mut usage) };
        if ret == pid {
            let exited = status & 0x7f == 0;
            return Ok(Reaped {
                exit_code: exited.then_some((status >> 8) & 0xff),
                max_rss_kb: u64::try_from(usage.maxrss).unwrap_or(0),
            });
        }
        let err = io::Error::last_os_error();
        if err.kind() != io::ErrorKind::Interrupted {
            return Err(err);
        }
    }
}

/// Sets the calling thread's timer slack, the time the kernel may delay a
/// sleeping thread's wake-up to batch timers (50 µs by default). Best
/// effort: a failure leaves the default.
pub fn set_timer_slack_ns(ns: u64) {
    // SAFETY: PR_SET_TIMERSLACK reads only its integer argument and changes
    // only the calling thread's timer slack.
    let _ = unsafe { prctl(PR_SET_TIMERSLACK, ns as c_ulong) };
}

/// Makes the kernel kill the child `cmd` starts when the thread that started
/// it exits, so a harness killed by a signal leaves no `soar` behind.
pub fn kill_with_parent(cmd: &mut Command) -> &mut Command {
    // SAFETY: the closure runs in the forked child before exec and calls
    // only prctl(PR_SET_PDEATHSIG), which is async-signal-safe, allocates
    // nothing and touches no state shared with the parent.
    unsafe {
        cmd.pre_exec(|| {
            if prctl(PR_SET_PDEATHSIG, SIGKILL) == -1 {
                return Err(io::Error::last_os_error());
            }
            Ok(())
        })
    }
}
