//! The synthesis daemon: a bounded job queue feeding a worker pool,
//! single-flight deduplication, per-request deadlines and graceful drain.
//!
//! Architecture:
//!
//! * the **accept loop** (the thread inside [`Server::run`]) takes
//!   connections off a non-blocking [`TcpListener`] and hands each to its
//!   own handler thread;
//! * handler threads parse line-delimited requests ([`crate::proto`]) and
//!   operate on the shared state.  `submit` pushes a job id onto a
//!   **bounded queue** — when the queue is at capacity the request is
//!   rejected explicitly (`{"ok":false,"rejected":true}`), it never
//!   blocks the client;
//! * **worker threads** pop job ids, run [`ph_core::Synthesizer`] (with
//!   the disk cache installed when configured) and publish results;
//! * **single-flight**: identical submissions — same content key as a job
//!   that is still queued or running — don't enqueue a second synthesis.
//!   The duplicate becomes a *follower* of the primary job and receives a
//!   copy of its result when it lands, translated into the follower's own
//!   field ids (the key is canonical, so the two specs may number their
//!   fields differently).  Combined with the cache this gives
//!   exactly-one-synthesis for any burst of identical requests;
//! * **bounded job table**: a `wait: true` job is forgotten once its
//!   result is delivered inline; finished `wait: false` jobs stay for
//!   `result` in a FIFO of [`ServerConfig::retained_jobs`] entries, and
//!   `status`/`result` on an id pushed out of it answer `"expired"`;
//! * **panic isolation**: a job whose synthesis panics fails alone (status
//!   `failed`, `svc.panics` counted); the worker survives and the job's
//!   waiters and followers get `ok: false`;
//! * **graceful drain**: a `shutdown` request, a [`ShutdownHandle`], or
//!   SIGTERM stops the accept loop, lets queued and running jobs finish,
//!   joins the workers and returns `Ok(())` — so `phd` exits 0.
//!
//! Lock discipline: `inflight` may be held while taking `jobs` or
//! `queue`; `jobs` and `queue` are never held while waiting for
//! `inflight`.  Deduplication correctness comes from the submit path
//! doing its in-flight check and enqueue under one `inflight` critical
//! section.
//!
//! Everything observable increments `svc.*` counters on the ambient
//! [`ph_obs`] tracer.

use crate::cache::{remap_fields, DiskCache};
use crate::codec;
use crate::proto::{self, Request, SubmitReq};
use ph_core::{SynthParams, Synthesizer};
use ph_hw::{DeviceProfile, TcamProgram};
use ph_ir::canon::{canonicalize, Canon};
use ph_obs::Json;
use std::collections::{HashMap, VecDeque};
use std::io::{BufRead, BufReader, ErrorKind};
use std::net::{TcpListener, TcpStream};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::Duration;

use ph_core::CacheHook;

/// Set by the SIGTERM handler; polled by every running server's accept
/// loop (process-global because signal dispositions are).
static TERM_REQUESTED: AtomicBool = AtomicBool::new(false);

/// Installs a SIGTERM handler that requests a graceful drain.  The
/// workspace links no `libc` crate; `std` already links the platform C
/// library, so the raw `signal(2)` symbol is declared directly.
#[cfg(unix)]
pub fn install_sigterm_drain() {
    extern "C" {
        fn signal(signum: i32, handler: usize) -> usize;
    }
    extern "C" fn on_term(_sig: i32) {
        // Async-signal-safe: a single atomic store.
        TERM_REQUESTED.store(true, Ordering::SeqCst);
    }
    const SIGTERM: i32 = 15;
    unsafe {
        signal(SIGTERM, on_term as *const () as usize);
    }
}

/// Non-Unix fallback: SIGTERM drain is unavailable; `shutdown` requests
/// and [`ShutdownHandle`] still work.
#[cfg(not(unix))]
pub fn install_sigterm_drain() {}

/// Daemon configuration.
#[derive(Clone, Debug)]
pub struct ServerConfig {
    /// Bind address, e.g. `"127.0.0.1:9077"`; port 0 picks an ephemeral
    /// port (see [`Server::local_addr`]).
    pub addr: String,
    /// Worker threads executing synthesis jobs.
    pub workers: usize,
    /// Bounded queue capacity; submissions beyond it are rejected.
    pub queue_cap: usize,
    /// Result cache consulted and populated by every job.
    pub cache: Option<CacheHook>,
}

/// Finished `wait: false` jobs retained per queue slot (see
/// [`ServerConfig::retained_jobs`]).
const RETAINED_PER_QUEUE_SLOT: usize = 4;

impl ServerConfig {
    /// How many finished `wait: false` jobs the daemon keeps for `result`
    /// before the oldest answer `"expired"`: a fixed multiple of
    /// `queue_cap`, so a client can submit a full queue without waiting
    /// and still collect every result.
    pub fn retained_jobs(&self) -> usize {
        RETAINED_PER_QUEUE_SLOT * self.queue_cap.max(1)
    }
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            addr: "127.0.0.1:9077".into(),
            workers: 2,
            queue_cap: 64,
            cache: DiskCache::from_env(),
        }
    }
}

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum JobStatus {
    Queued,
    Running,
    Done,
    Failed,
    Canceled,
}

impl JobStatus {
    fn name(self) -> &'static str {
        match self {
            JobStatus::Queued => "queued",
            JobStatus::Running => "running",
            JobStatus::Done => "done",
            JobStatus::Failed => "failed",
            JobStatus::Canceled => "canceled",
        }
    }

    fn terminal(self) -> bool {
        !matches!(self, JobStatus::Queued | JobStatus::Running)
    }
}

/// A finished synthesis.  It is rendered for the wire on delivery, not
/// when it lands, because each follower receives it in its own field
/// coordinates.
#[derive(Clone)]
struct Done {
    program: TcamProgram,
    stats: Json,
    cache_hit: bool,
}

/// A finished job's payload, or the synthesis error message.
type JobResult = Result<Done, String>;

/// Whom a result is delivered to: the submitter's spec in canonical form
/// (for its field maps) and its device (the content key ignores device
/// names, so a follower may name its device differently).
struct Target {
    canon: Canon,
    device: DeviceProfile,
}

struct Job {
    key: String,
    status: JobStatus,
    /// The submitter takes the result inline (`wait: true`); the entry is
    /// removed on delivery instead of being retained.
    wait: bool,
    /// Dropped once the job is terminal.
    target: Option<Box<Target>>,
    submit: Option<Box<SubmitReq>>,
    result: Option<JobResult>,
    /// Duplicate submissions riding on this primary job.
    followers: Vec<u64>,
}

impl Job {
    fn new(key: &str, status: JobStatus, wait: bool, target: Box<Target>) -> Job {
        Job {
            key: key.to_string(),
            status,
            wait,
            target: Some(target),
            submit: None,
            result: None,
            followers: Vec::new(),
        }
    }
}

/// The jobs the daemon still answers for.  Live jobs stay until they
/// finish; a `wait: true` job is then removed as its result is delivered,
/// and finished `wait: false` jobs wait in a FIFO for `result` until
/// [`ServerConfig::retained_jobs`] younger ones push them out.
#[derive(Default)]
struct JobTable {
    jobs: HashMap<u64, Job>,
    /// Finished `wait: false` jobs, oldest first.
    finished: VecDeque<u64>,
}

impl JobTable {
    /// Moves a live job to a terminal status.  A job that is already
    /// terminal (a follower canceled on its own) keeps its status.
    fn settle(&mut self, id: u64, status: JobStatus, result: Option<JobResult>, retain: usize) {
        let Some(job) = self.jobs.get_mut(&id) else {
            return;
        };
        if job.status.terminal() {
            return;
        }
        job.status = status;
        job.result = result;
        job.target = None;
        job.submit = None;
        if !job.wait {
            self.finished.push_back(id);
            while self.finished.len() > retain {
                if let Some(old) = self.finished.pop_front() {
                    self.jobs.remove(&old);
                }
            }
        }
    }
}

/// The primary's result in a follower's coordinates: field ids go
/// primary → canonical → follower, and the device is the follower's.
fn translate(done: &Done, from: &Target, to: &Target) -> JobResult {
    let mut program = done.program.clone();
    remap_fields(&mut program, |f| {
        to.canon.field_from_canon(from.canon.field_to_canon(f)?)
    })
    .map_err(|f| format!("field {} of the shared result has no counterpart here", f.0))?;
    program.device = to.device.clone();
    Ok(Done {
        program,
        stats: done.stats.clone(),
        cache_hit: done.cache_hit,
    })
}

#[derive(Default)]
struct Counters {
    submitted: AtomicU64,
    completed: AtomicU64,
    failed: AtomicU64,
    canceled: AtomicU64,
    panics: AtomicU64,
    dedup_hits: AtomicU64,
    rejected_full: AtomicU64,
    cache_hits: AtomicU64,
    cache_misses: AtomicU64,
}

struct Shared {
    queue: Mutex<VecDeque<u64>>,
    queue_cv: Condvar,
    jobs: Mutex<JobTable>,
    /// Signaled whenever any job reaches a terminal status.
    jobs_cv: Condvar,
    /// Content key → primary job id, for jobs still queued or running.
    inflight: Mutex<HashMap<String, u64>>,
    next_job: AtomicU64,
    draining: AtomicBool,
    counters: Counters,
    config: ServerConfig,
}

impl Shared {
    fn drain(&self) {
        self.draining.store(true, Ordering::SeqCst);
        self.queue_cv.notify_all();
    }

    /// Publishes a terminal status (+ result) to a job and its followers,
    /// each follower's copy translated into its own coordinates.
    fn publish(&self, id: u64, status: JobStatus, result: Option<JobResult>) {
        let retain = self.config.retained_jobs();
        let mut table = self.jobs.lock().unwrap();
        let Some(job) = table.jobs.get_mut(&id) else {
            return;
        };
        let followers = std::mem::take(&mut job.followers);
        let from = job.target.take();
        for f in followers {
            let to = table.jobs.get(&f).and_then(|j| j.target.as_deref());
            let copy = match (&result, from.as_deref(), to) {
                (Some(Ok(done)), Some(from), Some(to)) => Some(translate(done, from, to)),
                _ => result.clone(),
            };
            table.settle(f, status, copy, retain);
        }
        table.settle(id, status, result, retain);
        drop(table);
        self.jobs_cv.notify_all();
    }

    /// Blocks until `id` reaches a terminal status, then removes it and
    /// hands over its result: a waited job is delivered exactly once.
    fn collect(&self, id: u64) -> (JobStatus, Option<JobResult>) {
        let mut table = self.jobs.lock().unwrap();
        loop {
            match table.jobs.get(&id) {
                None => return (JobStatus::Failed, None),
                Some(j) if j.status.terminal() => {
                    let job = table.jobs.remove(&id).expect("present");
                    return (job.status, job.result);
                }
                Some(_) => {}
            }
            table = self.jobs_cv.wait(table).unwrap();
        }
    }

    /// Drops `key`'s in-flight entry if it still names `id`: after this,
    /// identical submissions enqueue fresh (and hit the disk cache)
    /// instead of following a finished job.
    fn retire(&self, key: &str, id: u64) {
        let mut inflight = self.inflight.lock().unwrap();
        if inflight.get(key).copied() == Some(id) {
            inflight.remove(key);
        }
    }

    /// The answer for a job id the table no longer holds: ids the daemon
    /// issued were retired by the retention policy.
    fn missing(&self, job: u64) -> Json {
        if job != 0 && job < self.next_job.load(Ordering::Relaxed) {
            proto::error_response("expired").with("status", "expired")
        } else {
            proto::error_response("unknown job")
        }
    }
}

/// The message of a caught panic payload.
fn panic_message(payload: &(dyn std::any::Any + Send)) -> &str {
    payload
        .downcast_ref::<&str>()
        .copied()
        .or_else(|| payload.downcast_ref::<String>().map(String::as_str))
        .unwrap_or("non-string panic payload")
}

/// Worker loop: pop a job, synthesize, publish.
fn worker_loop(shared: &Shared) {
    loop {
        let id = {
            let mut q = shared.queue.lock().unwrap();
            loop {
                if let Some(id) = q.pop_front() {
                    break id;
                }
                if shared.draining.load(Ordering::SeqCst) {
                    return;
                }
                q = shared.queue_cv.wait(q).unwrap();
            }
        };
        let claimed = {
            let mut table = shared.jobs.lock().unwrap();
            match table.jobs.get_mut(&id) {
                Some(j) if j.status == JobStatus::Queued => {
                    j.status = JobStatus::Running;
                    j.submit.take().map(|req| (req, j.key.clone()))
                }
                // Canceled (or vanished) while queued; its inflight entry
                // was already removed by the cancel path.
                _ => None,
            }
        };
        let Some((req, key)) = claimed else { continue };
        let _span = ph_obs::current().span("svc.job");
        let params = SynthParams {
            timeout: req
                .deadline_ms
                .map(Duration::from_millis)
                .or(SynthParams::default().timeout),
            cache: shared.config.cache.clone(),
            ..SynthParams::default()
        };
        // A panicking job (the solver, a cache hook) fails alone: the
        // worker survives and its waiters get an answer.
        let outcome = catch_unwind(AssertUnwindSafe(|| {
            Synthesizer::new(req.device.clone(), req.opts)
                .with_params(params)
                .synthesize(&req.spec)
        }));
        let (status, result) = match outcome {
            Ok(Ok(out)) => {
                let hit = out.stats.cache_hits > 0;
                let ctr = if hit {
                    &shared.counters.cache_hits
                } else {
                    &shared.counters.cache_misses
                };
                ctr.fetch_add(1, Ordering::Relaxed);
                shared.counters.completed.fetch_add(1, Ordering::Relaxed);
                (
                    JobStatus::Done,
                    Ok(Done {
                        stats: out.stats.to_json(),
                        program: out.program,
                        cache_hit: hit,
                    }),
                )
            }
            Ok(Err(e)) => {
                shared.counters.failed.fetch_add(1, Ordering::Relaxed);
                (JobStatus::Failed, Err(e.to_string()))
            }
            Err(payload) => {
                shared.counters.failed.fetch_add(1, Ordering::Relaxed);
                shared.counters.panics.fetch_add(1, Ordering::Relaxed);
                ph_obs::current().count("svc.panics", 1);
                let msg = format!("synthesis panicked: {}", panic_message(&*payload));
                (JobStatus::Failed, Err(msg))
            }
        };
        // Retire the in-flight entry before publishing.
        shared.retire(&key, id);
        shared.publish(id, status, Some(result));
    }
}

enum Placement {
    Rejected,
    Follower(u64, u64),
    Enqueued(u64),
}

/// Enqueues a new primary job, or rejects on a full queue.  Runs under
/// the `inflight` lock.
fn try_enqueue(
    shared: &Shared,
    inflight: &mut HashMap<String, u64>,
    key: &str,
    target: Box<Target>,
    req: Box<SubmitReq>,
) -> Placement {
    let mut queue = shared.queue.lock().unwrap();
    if queue.len() >= shared.config.queue_cap {
        return Placement::Rejected;
    }
    let id = shared.next_job.fetch_add(1, Ordering::Relaxed);
    let mut job = Job::new(key, JobStatus::Queued, req.wait, target);
    job.submit = Some(req);
    shared.jobs.lock().unwrap().jobs.insert(id, job);
    inflight.insert(key.to_string(), id);
    queue.push_back(id);
    Placement::Enqueued(id)
}

/// Handles one submit request end to end; returns the response.
fn handle_submit(shared: &Shared, req: Box<SubmitReq>) -> Json {
    if shared.draining.load(Ordering::SeqCst) {
        return proto::error_response("draining");
    }
    // Single-flight identity: same canonical spec, device model and
    // synthesis knobs as the daemon's workers will use.
    let canon = canonicalize(&req.spec);
    let key = DiskCache::key_of_canon(&canon.spec, &req.device, req.opts, &SynthParams::default());
    let target = Box::new(Target {
        canon,
        device: req.device.clone(),
    });
    shared.counters.submitted.fetch_add(1, Ordering::Relaxed);
    ph_obs::current().count("svc.submitted", 1);
    let wait = req.wait;

    let placement = {
        // In-flight check and enqueue are one critical section so two
        // identical concurrent submissions can't both become primaries.
        let mut inflight = shared.inflight.lock().unwrap();
        match inflight.get(&key).copied() {
            Some(primary) => {
                let mut table = shared.jobs.lock().unwrap();
                let attached = match table.jobs.get_mut(&primary) {
                    Some(p) if !p.status.terminal() => {
                        let id = shared.next_job.fetch_add(1, Ordering::Relaxed);
                        p.followers.push(id);
                        let job = Job::new(&key, p.status, wait, target);
                        table.jobs.insert(id, job);
                        Ok(id)
                    }
                    _ => Err(target),
                };
                drop(table);
                match attached {
                    Ok(id) => {
                        shared.counters.dedup_hits.fetch_add(1, Ordering::Relaxed);
                        ph_obs::current().count("svc.dedup", 1);
                        Placement::Follower(id, primary)
                    }
                    Err(target) => {
                        // Raced with completion: enqueue fresh.
                        inflight.remove(&key);
                        try_enqueue(shared, &mut inflight, &key, target, req)
                    }
                }
            }
            None => try_enqueue(shared, &mut inflight, &key, target, req),
        }
    };

    match placement {
        Placement::Rejected => {
            shared
                .counters
                .rejected_full
                .fetch_add(1, Ordering::Relaxed);
            ph_obs::current().count("svc.rejected_full", 1);
            proto::rejected_response()
        }
        Placement::Follower(id, primary) => finish_submit(shared, id, wait, &key, Some(primary)),
        Placement::Enqueued(id) => {
            shared.queue_cv.notify_one();
            finish_submit(shared, id, wait, &key, None)
        }
    }
}

fn finish_submit(shared: &Shared, id: u64, wait: bool, key: &str, primary: Option<u64>) -> Json {
    let mut resp = proto::ok_response()
        .with("job", id)
        .with("key", key)
        .with("deduped", primary.is_some());
    if !wait {
        return resp;
    }
    let (status, result) = shared.collect(id);
    resp.set("status", status.name());
    attach_result(&mut resp, status, result);
    resp
}

fn attach_result(resp: &mut Json, status: JobStatus, result: Option<JobResult>) {
    match result {
        Some(Ok(done)) => {
            resp.set("cache_hit", done.cache_hit);
            resp.set("program", codec::program_to_json(&done.program));
            resp.set("program_text", done.program.to_string());
            resp.set("stats", done.stats);
        }
        Some(Err(e)) => {
            resp.set("ok", false);
            resp.set("error", e);
        }
        None => {
            if status != JobStatus::Done {
                resp.set("ok", false);
                resp.set("error", format!("job {}", status.name()));
            }
        }
    }
}

fn handle_cancel(shared: &Shared, job: u64) -> Json {
    // Decide under the jobs lock; release it before touching inflight
    // (lock discipline: never jobs → inflight).
    let key = {
        let retain = shared.config.retained_jobs();
        let mut table = shared.jobs.lock().unwrap();
        let (followers, key) = match table.jobs.get_mut(&job) {
            None => return shared.missing(job),
            Some(j) if j.status != JobStatus::Queued => {
                return proto::error_response("job not cancelable").with("status", j.status.name())
            }
            Some(j) => (std::mem::take(&mut j.followers), j.key.clone()),
        };
        for id in followers.into_iter().chain([job]) {
            table.settle(id, JobStatus::Canceled, None, retain);
        }
        key
    };
    shared.counters.canceled.fetch_add(1, Ordering::Relaxed);
    shared.retire(&key, job);
    shared.jobs_cv.notify_all();
    proto::ok_response().with("job", job).with("canceled", true)
}

/// Dispatches one request.  The bool asks the connection handler to
/// start a drain.
///
/// Each endpoint runs under its own span so the tracer's duration
/// histograms break request latency down per operation (`svc.op.*`).
fn handle_request(shared: &Shared, req: Request) -> (Json, bool) {
    let _span = ph_obs::current().span(match &req {
        Request::Ping => "svc.op.ping",
        Request::Submit(_) => "svc.op.submit",
        Request::Status { .. } => "svc.op.status",
        Request::Result { .. } => "svc.op.result",
        Request::Cancel { .. } => "svc.op.cancel",
        Request::Stats => "svc.op.stats",
        Request::Shutdown => "svc.op.shutdown",
    });
    match req {
        Request::Ping => (proto::ok_response().with("pong", true), false),
        Request::Submit(s) => (handle_submit(shared, s), false),
        Request::Status { job } => {
            let table = shared.jobs.lock().unwrap();
            match table.jobs.get(&job) {
                None => (shared.missing(job), false),
                Some(j) => (
                    proto::ok_response()
                        .with("job", job)
                        .with("status", j.status.name()),
                    false,
                ),
            }
        }
        Request::Result { job } => {
            let (status, result) = {
                let table = shared.jobs.lock().unwrap();
                match table.jobs.get(&job) {
                    None => return (shared.missing(job), false),
                    Some(j) => (j.status, j.result.clone()),
                }
            };
            if !status.terminal() {
                return (
                    proto::error_response("job not finished").with("status", status.name()),
                    false,
                );
            }
            let mut resp = proto::ok_response()
                .with("job", job)
                .with("status", status.name());
            attach_result(&mut resp, status, result);
            (resp, false)
        }
        Request::Cancel { job } => (handle_cancel(shared, job), false),
        Request::Stats => {
            let c = &shared.counters;
            let queue_len = shared.queue.lock().unwrap().len();
            let jobs_retained = shared.jobs.lock().unwrap().jobs.len();
            (
                proto::ok_response()
                    .with("submitted", c.submitted.load(Ordering::Relaxed))
                    .with("completed", c.completed.load(Ordering::Relaxed))
                    .with("failed", c.failed.load(Ordering::Relaxed))
                    .with("canceled", c.canceled.load(Ordering::Relaxed))
                    .with("panics", c.panics.load(Ordering::Relaxed))
                    .with("dedup_hits", c.dedup_hits.load(Ordering::Relaxed))
                    .with("rejected_full", c.rejected_full.load(Ordering::Relaxed))
                    .with("cache_hits", c.cache_hits.load(Ordering::Relaxed))
                    .with("cache_misses", c.cache_misses.load(Ordering::Relaxed))
                    .with("queue_len", queue_len as u64)
                    .with("jobs_retained", jobs_retained as u64)
                    .with("workers", shared.config.workers as u64)
                    .with("queue_cap", shared.config.queue_cap as u64)
                    .with("draining", shared.draining.load(Ordering::SeqCst)),
                false,
            )
        }
        Request::Shutdown => (proto::ok_response().with("draining", true), true),
    }
}

/// Serves one connection: line in, line out.  Reads poll with a timeout
/// so an idle connection notices a drain instead of pinning the join.
fn handle_connection(shared: &Arc<Shared>, stream: TcpStream) {
    let _ = stream.set_read_timeout(Some(Duration::from_millis(200)));
    let mut writer = match stream.try_clone() {
        Ok(w) => w,
        Err(_) => return,
    };
    let mut reader = BufReader::new(stream);
    let mut line = String::new();
    loop {
        line.clear();
        match reader.read_line(&mut line) {
            Ok(0) => break, // EOF
            Ok(_) => {}
            Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) => {
                if shared.draining.load(Ordering::SeqCst) {
                    break;
                }
                continue;
            }
            Err(e) if e.kind() == ErrorKind::Interrupted => continue,
            Err(_) => break,
        }
        if line.trim().is_empty() {
            continue;
        }
        let (resp, drain) = match proto::parse_request(line.trim()) {
            Ok(req) => handle_request(shared, req),
            Err(e) => {
                ph_obs::current().count("svc.bad_request", 1);
                (proto::error_response(&e.to_string()), false)
            }
        };
        if proto::write_message(&mut writer, &resp).is_err() {
            break;
        }
        if drain {
            shared.drain();
            break;
        }
    }
}

/// An in-process drain trigger (same effect as the `shutdown` op or
/// SIGTERM); cloneable and safe to fire from any thread.
#[derive(Clone)]
pub struct ShutdownHandle {
    shared: Arc<Shared>,
}

impl ShutdownHandle {
    /// Requests a graceful drain.
    pub fn shutdown(&self) {
        self.shared.drain();
    }
}

/// A bound, not-yet-running daemon.
pub struct Server {
    listener: TcpListener,
    shared: Arc<Shared>,
}

impl Server {
    /// Binds the listener (so [`Server::local_addr`] is known before
    /// [`Server::run`] blocks) and allocates the shared state.
    ///
    /// # Errors
    ///
    /// Propagates the bind failure.
    pub fn bind(config: ServerConfig) -> std::io::Result<Server> {
        let listener = TcpListener::bind(&config.addr)?;
        listener.set_nonblocking(true)?;
        let shared = Arc::new(Shared {
            queue: Mutex::new(VecDeque::new()),
            queue_cv: Condvar::new(),
            jobs: Mutex::new(JobTable::default()),
            jobs_cv: Condvar::new(),
            inflight: Mutex::new(HashMap::new()),
            next_job: AtomicU64::new(1),
            draining: AtomicBool::new(false),
            counters: Counters::default(),
            config,
        });
        Ok(Server { listener, shared })
    }

    /// The bound address (resolves port 0).
    ///
    /// # Errors
    ///
    /// Propagates the socket query failure.
    pub fn local_addr(&self) -> std::io::Result<std::net::SocketAddr> {
        self.listener.local_addr()
    }

    /// A drain trigger for in-process embedding (tests, `svc_bench`).
    pub fn shutdown_handle(&self) -> ShutdownHandle {
        ShutdownHandle {
            shared: Arc::clone(&self.shared),
        }
    }

    /// Runs the daemon until drained: spawns the worker pool, accepts
    /// connections, and on a drain request stops accepting, finishes all
    /// queued and running jobs, joins every thread and returns.
    ///
    /// # Errors
    ///
    /// Propagates accept-loop IO failures other than the expected
    /// `WouldBlock`.
    pub fn run(self) -> std::io::Result<()> {
        let Server { listener, shared } = self;
        let workers: Vec<_> = (0..shared.config.workers.max(1))
            .map(|i| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("phd-worker-{i}"))
                    .spawn(move || worker_loop(&shared))
                    .expect("spawn worker")
            })
            .collect();
        let mut handlers: Vec<std::thread::JoinHandle<()>> = Vec::new();
        loop {
            if TERM_REQUESTED.load(Ordering::SeqCst) {
                shared.drain();
            }
            if shared.draining.load(Ordering::SeqCst) {
                break;
            }
            match listener.accept() {
                Ok((stream, _)) => {
                    let _ = stream.set_nonblocking(false);
                    let _ = stream.set_nodelay(true);
                    let shared = Arc::clone(&shared);
                    let h = std::thread::Builder::new()
                        .name("phd-conn".into())
                        .spawn(move || handle_connection(&shared, stream))
                        .expect("spawn connection handler");
                    handlers.push(h);
                    handlers.retain(|h| !h.is_finished());
                }
                Err(e) if e.kind() == ErrorKind::WouldBlock => {
                    std::thread::sleep(Duration::from_millis(10));
                }
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
        }
        ph_obs::current().count("svc.drain", 1);
        // Drain: workers exit once the queue is empty; connection
        // handlers notice the flag on their next read timeout.
        shared.queue_cv.notify_all();
        for w in workers {
            let _ = w.join();
        }
        for h in handlers {
            let _ = h.join();
        }
        Ok(())
    }
}
