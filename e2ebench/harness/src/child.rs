//! Child processes of the `soar` binary: timed one-shot runs with their peak
//! memory, and a long-running daemon. Every child is reaped before its handle
//! goes away, on success, on error and on unwind.
//!
//! A child's standard output is always read to the end: `soar` panics when
//! printing to a closed pipe, so a harness that stopped reading early would
//! turn a good run into a failed one.

use crate::sys::{kill_with_parent, reap};
use std::io::{self, BufRead, BufReader};
use std::net::SocketAddr;
use std::process::{Child, ChildStdout, Command, ExitStatus, Stdio};
use std::time::{Duration, Instant};

/// Kills and reaps a child that is still owned when dropped.
struct Reaper(Option<Child>);

impl Drop for Reaper {
    fn drop(&mut self) {
        if let Some(child) = &mut self.0 {
            let _ = child.kill();
            let _ = child.wait();
        }
    }
}

/// What one timed run of a child left behind.
pub struct RunResult {
    /// Spawn to reaped exit.
    pub wall: Duration,
    /// Peak resident set size of the child, in kB.
    pub max_rss_kb: u64,
    /// Exit code, `None` when a signal ended the child.
    pub exit_code: Option<i32>,
}

/// Runs `cmd` to completion, draining its standard output, and reports its
/// wall time and peak RSS (from `wait4`).
pub fn run_timed(cmd: &mut Command) -> io::Result<RunResult> {
    let start = Instant::now();
    let mut reaper = Reaper(Some(
        kill_with_parent(cmd)
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .spawn()?,
    ));
    let child = reaper.0.as_mut().expect("child was just spawned");
    io::copy(
        &mut child.stdout.take().expect("stdout is piped"),
        &mut io::sink(),
    )?;
    let usage = reap(child.id())?;
    let wall = start.elapsed();
    // Reaped by wait4: the handle must not kill or wait on the pid again.
    drop(reaper.0.take());
    Ok(RunResult {
        wall,
        max_rss_kb: usage.max_rss_kb,
        exit_code: usage.exit_code,
    })
}

/// A running `soar serve`, killed and reaped if dropped while still running.
pub struct Daemon {
    reaper: Reaper,
    stdout: BufReader<ChildStdout>,
    pid: u32,
    /// The address the daemon reported it listens on.
    pub addr: SocketAddr,
}

impl Daemon {
    /// Starts `cmd` (a `soar serve` invocation) and waits for its
    /// `listening on ADDR` line.
    pub fn spawn(cmd: &mut Command) -> io::Result<Daemon> {
        let mut reaper = Reaper(Some(
            kill_with_parent(cmd)
                .stdin(Stdio::null())
                .stdout(Stdio::piped())
                .spawn()?,
        ));
        let child = reaper.0.as_mut().expect("child was just spawned");
        let pid = child.id();
        let mut stdout = BufReader::new(child.stdout.take().expect("stdout is piped"));
        let mut line = String::new();
        stdout.read_line(&mut line)?;
        let addr = line
            .trim()
            .rsplit(' ')
            .next()
            .and_then(|word| word.parse().ok())
            .ok_or_else(|| io::Error::other(format!("no listening address in {line:?}")))?;
        Ok(Daemon {
            reaper,
            stdout,
            pid,
            addr,
        })
    }

    /// The daemon's peak resident set size (`VmHWM`) so far, in kB.
    pub fn vm_hwm_kb(&self) -> io::Result<u64> {
        let status = std::fs::read_to_string(format!("/proc/{}/status", self.pid))?;
        status
            .lines()
            .find_map(|line| line.strip_prefix("VmHWM:"))
            .and_then(|rest| rest.trim().trim_end_matches("kB").trim().parse().ok())
            .ok_or_else(|| io::Error::other("no VmHWM in /proc status"))
    }

    /// Waits up to `timeout` for the daemon to exit on its own (after a
    /// `Shutdown`), draining its output; kills it past the deadline.
    pub fn wait_exit(mut self, timeout: Duration) -> io::Result<ExitStatus> {
        let deadline = Instant::now() + timeout;
        let child = self.reaper.0.as_mut().expect("daemon is owned until exit");
        loop {
            if let Some(status) = child.try_wait()? {
                io::copy(&mut self.stdout, &mut io::sink())?;
                self.reaper.0.take();
                return Ok(status);
            }
            if Instant::now() >= deadline {
                return Err(io::Error::other("daemon did not exit after Shutdown"));
            }
            std::thread::sleep(Duration::from_millis(2));
        }
    }
}
