//! `serve-churn`: a fresh `soar serve` daemon driven open loop over one
//! pipelined connection (`Client::split`: this thread sends on
//! a fixed schedule, one receiver thread reads), plus one control connection
//! for `Metrics` and `Shutdown`.
//!
//! Every step of the schedule sends one 100-event churn batch to the next
//! `BT(512)` tenant in turn, and after every `solve_every`-th batch a `Solve`
//! of the `BT(2000)` probe tenant, due at the same time. The headline
//! latency is the `Solve`'s, from its due time to its answer: timing from
//! the due time, not from the send, makes a stall of the daemon or of the
//! sender show in every request scheduled behind it. (`soar loadtest --rate`
//! stamps requests at send time, which hides exactly those stalls.)
//! Churn-batch latencies are sub-millisecond, where wake-up noise of a
//! shared 2-core host moves them by ±30% from run to run; they are reported
//! per layer.
//!
//! A run is: a warm-up at the reference rate, then alternating blocks at the
//! reference rate (`main_*`) and at a second fixed rate (`side_*`), and in
//! the traced run a ladder of rising offered rates (`run.max_rate_rps`).
//! After the window every served `SolveOutcome` is checked against an
//! offline replay.

use crate::child::Daemon;
use crate::stats::{median, quantile, tail};
use crate::verify::{replay_tenant, Answer, BatchStream, Replay, TenantPlan};
use crate::{Env, Metrics, Outcome};
use soar_serve::metrics::{LatencySummary, MetricsSnapshot};
use soar_serve::protocol::{Request, RequestBody, Response, ResponseBody, SolveOutcome};
use soar_serve::server::{Client, ClientReceiver, ClientSender};
use std::ops::Range;
use std::path::Path;
use std::process::{Command, Stdio};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    Churn,
    Solve,
}

/// One serve workload: the resident tenants, the request mix and the rates.
pub struct Workload {
    pub name: &'static str,
    tenants: u64,
    /// `BT(n)` size of every tenant.
    switches: u32,
    budget: u32,
    events_per_batch: usize,
    /// One `Solve` per this many churn batches.
    solve_every: u64,
    /// `(switches, budget)` of the extra `BT(n)` tenant that receives every
    /// `Solve` and no churn.
    probe: (u32, u32),
    /// Offered load of the warm-up and reference phases, requests/s.
    ref_rate: f64,
    /// Offered load of the second fixed-rate phase, requests/s.
    side_rate: f64,
    /// Highest offered load the ladder probes, requests/s.
    rate_cap: f64,
    /// Limit on the `Solve` tail latency, ms.
    limit_ms: f64,
}

/// 256 resident `BT(512)` tenants at k = 8 with the write-ahead log on and
/// 100-event churn batches, so decode, admission, batching, WAL append and
/// `DynamicInstance::apply` do the work; one `Solve` per 64 batches goes to
/// a resident `BT(2000)` probe tenant at k = 16 that receives no churn: the
/// latency of a read under write load. The probe is just below
/// `PARALLEL_GATHER_MIN_SWITCHES` (2048), so its gather runs on one thread:
/// a `BT(4096)` probe's level-parallel gather ran 7 ms when the host woke
/// the second core promptly and 11–13 ms — no faster than one thread — when
/// it did not, in spells of tens of seconds, so whole runs came out fast or
/// slow.
pub const SERVE_CHURN: Workload = Workload {
    name: "serve-churn",
    tenants: 256,
    switches: 512,
    budget: 8,
    events_per_batch: 100,
    solve_every: 64,
    probe: (2000, 16),
    ref_rate: 1000.0,
    side_rate: 1500.0,
    rate_cap: 16000.0,
    limit_ms: 50.0,
};

/// Register seed of the probe tenant, for every run seed.
const PROBE_SEED: u64 = 1;
const WARMUP_SECS: f64 = 0.5;
/// Shares of `--seconds` at the reference and at the side rate. The traced
/// run spends half as long on each and the rest on the ladder.
const REF_SHARE: f64 = 0.6;
const SIDE_SHARE: f64 = 0.4;
/// Blocks each of the two rates is cut into; the blocks alternate, so a
/// spell of a slow host falls on both rates alike.
const BLOCKS: usize = 8;
/// Ratio between consecutive coarse ladder rungs.
const LADDER_STEP: f64 = 1.25;
/// Bisection probes between the last passing and the first failing rung.
const BISECT_STEPS: usize = 3;
/// Ladder probes a run budgets for (coarse rungs up to the first failure,
/// the bisection, and the repeats of failed probes); each gets an equal
/// share of the ladder's time.
const MAX_PROBES: usize = 10;
/// Most windows a phase's latencies are cut into (see [`windowed_median`]).
const MAX_WINDOWS: usize = 12;
/// Fewest samples per window.
const MIN_WINDOW_SAMPLES: usize = 25;
/// How long a phase's answers may trail its last send before the missing
/// ones count as timed out.
const DRAIN_SECS: f64 = 10.0;
const EXIT_TIMEOUT: Duration = Duration::from_secs(30);

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Status {
    Pending,
    Ok,
    Shed,
    Error,
}

/// One request on the data connection; `req_id` is its index plus one.
struct Slot {
    kind: Kind,
    tenant: u64,
    /// Encode/decode timed for this request (traced run, odd seconds).
    instrumented: bool,
    due_ns: u64,
    sent_ns: u64,
    done_ns: u64,
    status: Status,
    timed_out: bool,
    applied: u32,
    outcome: Option<SolveOutcome>,
    encode_ns: u64,
    decode_ns: u64,
    bytes: usize,
}

impl Slot {
    fn latency_ms(&self) -> f64 {
        (self.done_ns.saturating_sub(self.due_ns)) as f64 / 1e6
    }

    fn ok(&self) -> bool {
        self.status == Status::Ok && !self.timed_out
    }
}

struct Shared {
    slots: Mutex<Vec<Slot>>,
    done: AtomicU64,
    t0: Instant,
}

impl Shared {
    fn now_ns(&self) -> u64 {
        self.t0.elapsed().as_nanos() as u64
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, Vec<Slot>> {
        self.slots
            .lock()
            .expect("no thread panics holding the slot table")
    }
}

/// How the traced run instruments a phase.
#[derive(Clone, Copy)]
enum Instrument {
    Off,
    /// Instrument steps due in odd seconds of the phase, so instrumented and
    /// plain steps see the same daemon state.
    Alternate,
}

/// The churned tenants `0..w.tenants`, then the probe tenant. The probe has
/// the same loads for every seed: how long its `Solve` takes depends on the
/// loads (the pruned kernel cuts rows by their values), and the probes of
/// two seeds differed by about 10%.
fn plans(w: &Workload, seed: u64) -> Vec<TenantPlan> {
    let shapes = (0..w.tenants).map(|_| (w.switches, w.budget));
    shapes
        .chain(std::iter::once(w.probe))
        .zip(0..)
        .map(|((switches, budget), tenant)| TenantPlan {
            tenant,
            switches,
            budget,
            register_seed: if tenant == w.tenants {
                PROBE_SEED
            } else {
                seed.wrapping_mul(1_000_003).wrapping_add(tenant)
            },
            stream_seed: seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ (tenant << 20) ^ 0x5eed,
            events_per_batch: w.events_per_batch,
        })
        .collect()
}

fn call(client: &mut Client, body: RequestBody) -> Result<ResponseBody, String> {
    client
        .call(&Request { req_id: 0, body })
        .map(|resp| resp.body)
        .map_err(|e| format!("control call: {e}"))
}

/// Starts a daemon and registers every tenant; returns it with the time from
/// spawn to the last acknowledged `Register`.
fn start_daemon(
    env: &Env,
    plans: &[TenantPlan],
    state_dir: &Path,
) -> Result<(Daemon, f64), String> {
    let _ = std::fs::remove_dir_all(state_dir);
    let t0 = Instant::now();
    let mut cmd = Command::new(&env.soar);
    cmd.args(["serve", "--addr", "127.0.0.1:0", "--state-dir"])
        .arg(state_dir);
    cmd.stderr(Stdio::null());
    let daemon = Daemon::spawn(&mut cmd).map_err(|e| format!("soar serve: {e}"))?;
    let mut client =
        Client::connect(&daemon.addr).map_err(|e| format!("connect {}: {e}", daemon.addr))?;
    for plan in plans {
        match call(
            &mut client,
            RequestBody::Register {
                tenant: plan.tenant,
                switches: plan.switches,
                budget: plan.budget,
                seed: plan.register_seed,
            },
        )? {
            ResponseBody::Registered { .. } => {}
            other => return Err(format!("register {}: {other:?}", plan.tenant)),
        }
    }
    Ok((daemon, t0.elapsed().as_secs_f64()))
}

fn shutdown(daemon: Daemon) -> Result<(), String> {
    let mut control =
        Client::connect(&daemon.addr).map_err(|e| format!("connect {}: {e}", daemon.addr))?;
    match call(&mut control, RequestBody::Shutdown)? {
        ResponseBody::ShuttingDown => {}
        other => return Err(format!("shutdown: {other:?}")),
    }
    let status = daemon
        .wait_exit(EXIT_TIMEOUT)
        .map_err(|e| format!("soar serve: {e}"))?;
    if !status.success() {
        return Err(format!("soar serve exited with {status}"));
    }
    Ok(())
}

/// The sending side: the schedule, the tenants' batch streams and the send
/// half of the data connection.
struct LoadGen<'a> {
    w: &'a Workload,
    shared: &'a Shared,
    tx: ClientSender,
    streams: Vec<BatchStream>,
    /// Churn batches sent so far, over all phases.
    batches: u64,
    scratch: Vec<u8>,
}

impl LoadGen<'_> {
    fn send(
        &mut self,
        kind: Kind,
        tenant: u64,
        due_ns: u64,
        instrumented: bool,
        body: RequestBody,
    ) -> Result<(), String> {
        let mut slots = self.shared.lock();
        let req = Request {
            req_id: slots.len() as u64 + 1,
            body,
        };
        let (mut encode_ns, mut bytes) = (0, 0);
        if instrumented {
            self.scratch.clear();
            let t = Instant::now();
            req.encode(&mut self.scratch);
            encode_ns = t.elapsed().as_nanos() as u64;
            bytes = self.scratch.len();
        }
        slots.push(Slot {
            kind,
            tenant,
            instrumented,
            due_ns,
            sent_ns: self.shared.now_ns(),
            done_ns: 0,
            status: Status::Pending,
            timed_out: false,
            applied: 0,
            outcome: None,
            encode_ns,
            decode_ns: 0,
            bytes,
        });
        drop(slots);
        self.tx
            .send(&req)
            .map_err(|e| format!("send request {}: {e}", req.req_id))
    }

    /// Offers `rate` requests/s for `secs` seconds, then waits for the
    /// answers; returns the phase's slot range.
    fn phase(
        &mut self,
        rate: f64,
        secs: f64,
        instrument: Instrument,
    ) -> Result<Range<usize>, String> {
        let w = self.w;
        let first = self.shared.lock().len();
        let per_step = 1.0 + 1.0 / w.solve_every as f64;
        let interval = per_step / rate;
        let steps = (secs / interval).round().max(1.0) as u64;
        let start_ns = self.shared.now_ns();
        for s in 0..steps {
            let offset = s as f64 * interval;
            let due_ns = start_ns + (offset * 1e9) as u64;
            let instrumented = match instrument {
                Instrument::Off => false,
                Instrument::Alternate => offset as u64 % 2 == 1,
            };
            let batch = self.batches;
            self.batches += 1;
            let tenant = batch % w.tenants;
            // Drawn before the due time, so the generator's own work does not
            // make it late.
            let events = self.streams[tenant as usize].next_batch();
            let now = self.shared.now_ns();
            if due_ns > now {
                std::thread::sleep(Duration::from_nanos(due_ns - now));
            }
            let body = RequestBody::Churn {
                tenant,
                seq: 0,
                events,
            };
            self.send(Kind::Churn, tenant, due_ns, instrumented, body)?;
            if batch % w.solve_every == w.solve_every - 1 {
                let tenant = w.tenants;
                let body = RequestBody::Solve { tenant };
                self.send(Kind::Solve, tenant, due_ns, instrumented, body)?;
            }
        }
        let last = self.shared.lock().len();
        self.drain(last);
        Ok(first..last)
    }

    /// Waits until every request so far is answered, or marks the rest timed
    /// out after [`DRAIN_SECS`].
    fn drain(&self, sent: usize) {
        let deadline = Instant::now() + Duration::from_secs_f64(DRAIN_SECS);
        while (self.shared.done.load(Ordering::Acquire) as usize) < sent {
            if Instant::now() >= deadline {
                for slot in self.shared.lock().iter_mut() {
                    if slot.status == Status::Pending {
                        slot.timed_out = true;
                    }
                }
                return;
            }
            std::thread::sleep(Duration::from_micros(500));
        }
    }
}

/// The receiving side: matches each answer to its slot until the daemon
/// closes the connection.
fn receive(mut rx: ClientReceiver, shared: &Shared) -> Result<(), String> {
    let mut scratch = Vec::new();
    loop {
        let resp = match rx.recv() {
            Ok(Some(resp)) => resp,
            Ok(None) => return Ok(()),
            Err(e) => return Err(format!("receive: {e}")),
        };
        let done_ns = shared.now_ns();
        let mut slots = shared.lock();
        let idx = resp.req_id.wrapping_sub(1) as usize;
        let Some(slot) = slots.get_mut(idx) else {
            return Err(format!("answer to unknown request {}", resp.req_id));
        };
        if slot.instrumented {
            scratch.clear();
            resp.encode(&mut scratch);
            let t = Instant::now();
            let decoded = Response::decode(&scratch);
            slot.decode_ns = t.elapsed().as_nanos() as u64;
            std::hint::black_box(decoded.is_ok());
        }
        slot.done_ns = done_ns;
        slot.status = match (slot.kind, resp.body) {
            (Kind::Churn, ResponseBody::ChurnApplied { applied, .. }) => {
                slot.applied = applied;
                Status::Ok
            }
            (Kind::Solve, ResponseBody::Solved(outcome)) => {
                slot.outcome = Some(outcome);
                Status::Ok
            }
            (_, ResponseBody::Overloaded { .. }) => Status::Shed,
            (_, other) => {
                eprintln!("request {}: unexpected answer {other:?}", resp.req_id);
                Status::Error
            }
        };
        drop(slots);
        shared.done.fetch_add(1, Ordering::Release);
    }
}

/// What one phase measured.
#[derive(Default)]
struct PhaseStats {
    /// Latency of every answered `Solve`, in send order, ms.
    solves: Vec<f64>,
    /// Latency of every applied churn batch, ms.
    churns: Vec<f64>,
    shed: u64,
    errors: u64,
    timeouts: u64,
    /// Answered requests per second from the phase's first due time to its
    /// last answer.
    achieved_rps: f64,
}

fn phase_stats<'a>(slots: impl IntoIterator<Item = &'a Slot>) -> PhaseStats {
    let mut stats = PhaseStats::default();
    let (mut first_due, mut last_done, mut sent) = (u64::MAX, 0, 0u64);
    for slot in slots {
        sent += 1;
        first_due = first_due.min(slot.due_ns);
        if slot.timed_out || slot.status == Status::Pending {
            stats.timeouts += 1;
            continue;
        }
        last_done = last_done.max(slot.done_ns);
        match (slot.status, slot.kind) {
            (Status::Ok, Kind::Solve) => stats.solves.push(slot.latency_ms()),
            (Status::Ok, Kind::Churn) => stats.churns.push(slot.latency_ms()),
            (Status::Shed, _) => stats.shed += 1,
            _ => stats.errors += 1,
        }
    }
    if sent > 0 {
        let span = (last_done.saturating_sub(first_due)) as f64 / 1e9;
        let answered = (sent - stats.timeouts) as f64;
        stats.achieved_rps = if span > 0.0 { answered / span } else { 0.0 };
    }
    stats
}

impl PhaseStats {
    /// The phase meets the limit: no shed, error or timeout, the `Solve`
    /// tail within the limit, and no growing backlog (the median of the last
    /// quarter of the phase also within it).
    fn passes(&self, limit_ms: f64) -> bool {
        let solves = &self.solves;
        self.shed + self.errors + self.timeouts == 0
            && !solves.is_empty()
            && tail(solves).0 <= limit_ms
            && median(&solves[solves.len() * 3 / 4..]) <= limit_ms
    }
}

/// The median of a phase, robust to bursts of host noise: the samples (in
/// send order) are cut into consecutive windows of equal count — as many as
/// [`MAX_WINDOWS`] while each keeps [`MIN_WINDOW_SAMPLES`] — and the median
/// of the windows' medians is reported. A burst then moves a few windows,
/// not the result.
fn windowed_median(samples: &[f64]) -> f64 {
    let windows = (samples.len() / MIN_WINDOW_SAMPLES).clamp(1, MAX_WINDOWS);
    let per_window = (samples.len() / windows).max(1);
    let medians: Vec<f64> = samples
        .chunks(per_window)
        .take(windows)
        .map(median)
        .collect();
    median(&medians)
}

/// Tail of a server-side histogram summary: the highest of its percentiles
/// with at least ten samples beyond it, else its maximum.
fn summary_tail(summary: &LatencySummary) -> f64 {
    if summary.count >= 10_000 {
        summary.p999_us
    } else if summary.count >= 1_000 {
        summary.p99_us
    } else {
        summary.max_us
    }
}

fn dir_bytes(dir: &Path) -> u64 {
    std::fs::read_dir(dir)
        .map(|entries| {
            entries
                .filter_map(Result::ok)
                .filter_map(|e| e.metadata().ok())
                .filter(|m| m.is_file())
                .map(|m| m.len())
                .sum()
        })
        .unwrap_or(0)
}

pub fn run(
    env: &Env,
    w: &Workload,
    seed: u64,
    seconds: f64,
    traced: bool,
) -> Result<Outcome, String> {
    let plans = plans(w, seed);
    let state_dir = env.work.join("state");

    let (daemon, secs) = start_daemon(env, &plans, &state_dir)?;
    let mut setup = vec![secs];
    // `setup_s` is the median over this daemon's start-up and that of a
    // throwaway daemon after every pair of blocks, so it spans the run: the
    // host's speed swings by up to 2× within ten seconds, and start-ups
    // back to back all see one speed.
    let spare_dir = env.work.join("spare-state");
    let mut spare_setup = || -> Result<(), String> {
        let (spare, secs) = start_daemon(env, &plans, &spare_dir)?;
        setup.push(secs);
        shutdown(spare)
    };

    let shared = Shared {
        slots: Mutex::new(Vec::new()),
        done: AtomicU64::new(0),
        t0: Instant::now(),
    };
    let client = Client::connect(&daemon.addr).map_err(|e| format!("connect: {e}"))?;
    let (tx, rx) = client.split().map_err(|e| format!("split: {e}"))?;
    let mut load = LoadGen {
        w,
        shared: &shared,
        tx,
        streams: plans.iter().map(BatchStream::new).collect(),
        batches: 0,
        scratch: Vec::new(),
    };

    let (phases, snapshot, hwm_kb) = std::thread::scope(|scope| {
        let receiver = scope.spawn(|| receive(rx, &shared));
        // The sender sleeps until each due time; the default 50 µs timer
        // slack would make every send late by about that much.
        crate::sys::set_timer_slack_ns(1);
        // The daemon's metrics and peak memory describe the fixed-rate
        // phases: they are read before the ladder overloads it.
        let observed =
            fixed_phases(&mut load, seconds, traced, &mut spare_setup).and_then(|mut phases| {
                let mut control =
                    Client::connect(&daemon.addr).map_err(|e| format!("connect: {e}"))?;
                let snapshot = match call(&mut control, RequestBody::Metrics)? {
                    ResponseBody::MetricsReport { json } => {
                        serde_json::from_str::<MetricsSnapshot>(&json)
                            .map_err(|e| format!("metrics snapshot: {e}"))?
                    }
                    other => return Err(format!("metrics: {other:?}")),
                };
                let hwm = daemon.vm_hwm_kb().map_err(|e| format!("VmHWM: {e}"))?;
                if traced {
                    ladder(&mut load, seconds, &mut phases)?;
                }
                Ok((phases, snapshot, hwm))
            });
        // Shutdown also ends the data connection and with it the receiver.
        let stopped = shutdown(daemon);
        let received = receiver
            .join()
            .unwrap_or_else(|_| Err("receiver thread panicked".into()));
        let observed = observed?;
        stopped?;
        received?;
        Ok::<_, String>(observed)
    })?;

    let slots = shared.slots.into_inner().expect("receiver has ended");

    // Verification, after the window: every tenant replayed offline.
    let mut replays = Vec::new();
    let mut mismatches = 0u64;
    for plan in &plans {
        // What the daemon did, late answers included. Past a request that
        // was never answered the tenant's state is unknown, so its check
        // stops there (the request already counts as timed out).
        let answers: Vec<Answer> = slots
            .iter()
            .filter(|s| s.tenant == plan.tenant)
            .take_while(|s| s.status != Status::Pending)
            .map(|s| match s.kind {
                Kind::Churn => Answer::Churn {
                    applied: (s.status == Status::Ok).then_some(s.applied),
                },
                Kind::Solve => Answer::Solve(s.outcome.clone()),
            })
            .collect();
        let replay = replay_tenant(plan, &answers);
        if let Some(first) = &replay.first_mismatch {
            eprintln!("{}: {first}", w.name);
        }
        mismatches += replay.mismatches;
        replays.push(replay);
    }

    // Failures: errors and wrong outputs anywhere, sheds and timeouts in
    // the fixed-rate phases. Overload on the ladder only fails that rung.
    let stats: Vec<PhaseStats> = phases
        .iter()
        .map(|p| phase_stats(&slots[p.slots.clone()]))
        .collect();
    let mut failed = mismatches;
    for (i, (phase, stats)) in phases.iter().zip(&stats).enumerate() {
        let fixed_rate = phase.kind != PhaseKind::Ladder;
        if stats.errors + stats.shed + stats.timeouts > 0 {
            eprintln!(
                "{}: phase {i} ({:?}): {} errors, {} shed, {} timed out",
                w.name, phase.kind, stats.errors, stats.shed, stats.timeouts
            );
        }
        failed += stats.errors;
        if fixed_rate {
            failed += stats.shed + stats.timeouts;
        }
    }
    let attempted = slots.len() as u64;

    // Every slot of the blocks of one kind, in send order.
    let of_kind = |kind: PhaseKind| -> Vec<&Slot> {
        phases
            .iter()
            .filter(|p| p.kind == kind)
            .flat_map(|p| &slots[p.slots.clone()])
            .collect()
    };
    let main = phase_stats(of_kind(PhaseKind::Main)).solves;
    let side = phase_stats(of_kind(PhaseKind::Side)).solves;
    let mut metrics = Metrics::default();
    if traced {
        // The highest passing block's or rung's throughput; the first
        // reference block's when none meets the limit.
        let max_rate = phases
            .iter()
            .zip(&stats)
            .filter(|(p, stats)| p.kind != PhaseKind::Warmup && stats.passes(w.limit_ms))
            .map(|(_, stats)| stats.achieved_rps)
            .reduce(f64::max)
            .unwrap_or(stats[1].achieved_rps);
        metrics.set("run.main_tail_ms", tail(&main).0);
        metrics.set("run.side_tail_ms", tail(&side).0);
        metrics.set("run.max_rate_rps", max_rate);
        metrics.set("run.peak_rss_mb", hwm_kb as f64 / 1024.0);
        let reference = of_kind(PhaseKind::Main);
        layer_metrics(&reference, &snapshot, &replays, &state_dir, &mut metrics);
    } else {
        metrics.set("setup_s", median(&setup));
        metrics.set("main_p50_ms", windowed_median(&main));
        metrics.set("side_p50_ms", windowed_median(&side));
        metrics.set(
            "main_side_ratio",
            windowed_median(&main) / windowed_median(&side),
        );
        metrics.set("ok_share", 1.0 - failed as f64 / attempted as f64);
    }
    eprintln!(
        "{}: {} solves at {} req/s, {} at {} req/s, {} ladder probes; \
         {} solves checked, {mismatches} mismatches",
        w.name,
        main.len(),
        w.ref_rate,
        side.len(),
        w.side_rate,
        phases
            .iter()
            .filter(|p| p.kind == PhaseKind::Ladder)
            .count(),
        replays.iter().map(|r| r.checked).sum::<u64>(),
    );
    Ok(Outcome {
        correct: failed == 0,
        attempted,
        failed,
        metrics,
    })
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum PhaseKind {
    Warmup,
    /// A block at the reference rate.
    Main,
    /// A block at the side rate.
    Side,
    Ladder,
}

/// One phase of the load and its slot range.
struct Phase {
    kind: PhaseKind,
    slots: Range<usize>,
}

/// Runs the warm-up, then [`BLOCKS`] alternating blocks at the reference
/// and at the side rate, calling `between` after every pair.
fn fixed_phases(
    load: &mut LoadGen,
    seconds: f64,
    traced: bool,
    between: &mut dyn FnMut() -> Result<(), String>,
) -> Result<Vec<Phase>, String> {
    let w = load.w;
    let (share, instrument) = if traced {
        (0.5, Instrument::Alternate)
    } else {
        (1.0, Instrument::Off)
    };
    let each = seconds * share / BLOCKS as f64;
    let mut phases = vec![Phase {
        kind: PhaseKind::Warmup,
        slots: load.phase(w.ref_rate, WARMUP_SECS, Instrument::Off)?,
    }];
    for _ in 0..BLOCKS {
        phases.push(Phase {
            kind: PhaseKind::Main,
            slots: load.phase(w.ref_rate, each * REF_SHARE, instrument)?,
        });
        phases.push(Phase {
            kind: PhaseKind::Side,
            slots: load.phase(w.side_rate, each * SIDE_SHARE, Instrument::Off)?,
        });
        between()?;
    }
    Ok(phases)
}

/// The traced run's ladder, appending its probes to `phases`.
fn ladder(load: &mut LoadGen, seconds: f64, phases: &mut Vec<Phase>) -> Result<(), String> {
    let w = load.w;
    // The last side-rate block is the ladder's first rung.
    let side = phases
        .last()
        .expect("the side-rate blocks ran")
        .slots
        .clone();
    if !phase_stats(&load.shared.lock()[side]).passes(w.limit_ms) {
        return Ok(());
    }

    // Coarse rungs ×LADDER_STEP up from the side rate until one fails, then
    // bisect between the last pass and that failure.
    let probe_secs = seconds * 0.5 / MAX_PROBES as f64;
    // A rung fails only when it fails twice in a row, so one burst of noise
    // from the host does not end the ladder.
    let mut probe = |rate: f64| -> Result<bool, String> {
        for _ in 0..2 {
            let slots = load.phase(rate, probe_secs, Instrument::Off)?;
            let stats = phase_stats(&load.shared.lock()[slots.clone()]);
            let passes = stats.passes(w.limit_ms);
            eprintln!(
                "{}: ladder {rate:.0} req/s: {} (answered {:.0}/s, tail {:.2} ms, {} shed)",
                w.name,
                if passes { "pass" } else { "fail" },
                stats.achieved_rps,
                tail(&stats.solves).0,
                stats.shed
            );
            phases.push(Phase {
                kind: PhaseKind::Ladder,
                slots,
            });
            if passes {
                return Ok(true);
            }
        }
        Ok(false)
    };
    let mut pass = w.side_rate;
    let mut fail = None;
    let mut rate = w.side_rate * LADDER_STEP;
    while rate <= w.rate_cap {
        if !probe(rate)? {
            fail = Some(rate);
            break;
        }
        pass = rate;
        rate *= LADDER_STEP;
    }
    if let Some(mut fail) = fail {
        for _ in 0..BISECT_STEPS {
            let mid = (pass * fail).sqrt();
            if probe(mid)? {
                pass = mid;
            } else {
                fail = mid;
            }
        }
    }
    Ok(())
}

/// The `serve.*` layer metrics of the reference-rate blocks `reference`,
/// from the load's own timings, the daemon's snapshot and the offline
/// replays.
fn layer_metrics(
    reference: &[&Slot],
    snap: &MetricsSnapshot,
    replays: &[Replay],
    state_dir: &Path,
    metrics: &mut Metrics,
) {
    let stats = phase_stats(reference.iter().copied());
    let lag: Vec<f64> = reference
        .iter()
        .map(|s| s.sent_ns.saturating_sub(s.due_ns) as f64 / 1e6)
        .collect();
    let instrumented: Vec<&Slot> = reference
        .iter()
        .copied()
        .filter(|s| s.instrumented)
        .collect();
    let of = |f: fn(&Slot) -> f64| median(&instrumented.iter().map(|s| f(s)).collect::<Vec<_>>());
    // Solves of the reference phase, split by instrumentation.
    let solve_latency = |instrumented: bool| -> Vec<f64> {
        reference
            .iter()
            .filter(|s| s.kind == Kind::Solve && s.ok() && s.instrumented == instrumented)
            .map(|s| s.latency_ms())
            .collect()
    };
    let plain_p50 = median(&solve_latency(false));
    let server_solve: Vec<f64> = reference
        .iter()
        .filter_map(|s| s.outcome.as_ref())
        .map(|o| o.wall_ns as f64 / 1e6)
        .collect();
    let flat = |f: fn(&Replay) -> &Vec<f64>| -> Vec<f64> {
        replays.iter().flat_map(|r| f(r).iter().copied()).collect()
    };

    metrics.set("serve.gen_lag_ms", quantile(&lag, 0.99));
    metrics.set("serve.encode_us", of(|s| s.encode_ns as f64 / 1e3));
    metrics.set("serve.decode_us", of(|s| s.decode_ns as f64 / 1e3));
    metrics.set("serve.req_bytes", of(|s| s.bytes as f64));
    metrics.set("serve.churn_p50_ms", median(&stats.churns));
    metrics.set("serve.churn_tail_ms", tail(&stats.churns).0);
    metrics.set("serve.queue_wait_p50_us", snap.queue_wait.p50_us);
    metrics.set("serve.queue_wait_tail_us", summary_tail(&snap.queue_wait));
    metrics.set("serve.batch_form_p50_us", snap.batch_form.p50_us);
    metrics.set("serve.wal_append_p50_us", snap.wal_append.p50_us);
    metrics.set("serve.wal_append_tail_us", summary_tail(&snap.wal_append));
    if snap.events_applied > 0 {
        metrics.set(
            "serve.wal_bytes_per_event",
            dir_bytes(state_dir) as f64 / snap.events_applied as f64,
        );
    }
    metrics.set("serve.server_solve_p50_ms", median(&server_solve));
    metrics.set("serve.server_solve_tail_ms", tail(&server_solve).0);
    if snap.solves > 0 {
        metrics.set(
            "serve.cells_per_solve",
            snap.cells_written as f64 / snap.solves as f64,
        );
    }
    metrics.set("serve.server_churn_p50_us", snap.churn_latency.p50_us);
    metrics.set("serve.alloc_events", snap.alloc_events as f64);
    metrics.set("serve.sheds", snap.sheds() as f64);
    metrics.set("serve.io_errors", snap.io_errors as f64);
    metrics.set(
        "serve.register_ms",
        median(&replays.iter().map(|r| r.register_ms).collect::<Vec<_>>()),
    );
    metrics.set("serve.offline_apply_us", median(&flat(|r| &r.apply_us)));
    metrics.set("serve.offline_solve_ms", median(&flat(|r| &r.solve_ms)));
    metrics.set(
        "serve.unattributed_ms",
        plain_p50 - snap.solve_latency.p50_us / 1e3,
    );
    metrics.set(
        "trace.overhead_ms",
        median(&solve_latency(true)) - plain_p50,
    );
}
