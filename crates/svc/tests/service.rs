//! End-to-end daemon tests over real loopback TCP: cache replay through
//! the service, deterministic single-flight dedup (with followers getting
//! results in their own field ids), queue-full backpressure, the bounded
//! job table, panic isolation, per-message framing latency, and graceful
//! drain.

use ph_core::{CacheHook, OptConfig, SynthCache, SynthOutput, SynthParams, SynthStats};
use ph_hw::DeviceProfile;
use ph_ir::{FieldId, FieldKind, KeyPart, ParserSpec};
use ph_obs::Json;
use ph_svc::{codec, Client, ClientError, DiskCache, Server, ServerConfig, ShutdownHandle};
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicUsize, Ordering};
use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};

fn tmp_dir(tag: &str) -> std::path::PathBuf {
    static N: AtomicU32 = AtomicU32::new(0);
    let d = std::env::temp_dir().join(format!(
        "ph-svc-e2e-{tag}-{}-{}",
        std::process::id(),
        N.fetch_add(1, Ordering::Relaxed)
    ));
    let _ = std::fs::remove_dir_all(&d);
    d
}

/// A 4-bit one-state parser; `accept_on` varies the select constant so
/// tests can mint distinct content keys on demand.
fn tiny_spec(accept_on: u8) -> ParserSpec {
    ph_p4f::parse_parser(&format!(
        r#"
        header h_t {{ v : 4; }}
        parser {{
            state start {{
                extract(h_t);
                transition select(h_t.v) {{ {accept_on} : accept; default : reject; }}
            }}
        }}
        "#,
    ))
    .unwrap()
}

/// Binds a daemon on an ephemeral loopback port and runs it on its own
/// thread; returns the address, the drain trigger and the join handle.
fn start(
    config: ServerConfig,
) -> (
    String,
    ShutdownHandle,
    std::thread::JoinHandle<std::io::Result<()>>,
) {
    let server = Server::bind(ServerConfig {
        addr: "127.0.0.1:0".into(),
        ..config
    })
    .unwrap();
    let addr = server.local_addr().unwrap().to_string();
    let handle = server.shutdown_handle();
    let join = std::thread::spawn(move || server.run());
    (addr, handle, join)
}

#[test]
fn second_submit_replays_from_cache_byte_identically() {
    let dir = tmp_dir("replay");
    let (addr, handle, join) = start(ServerConfig {
        workers: 2,
        queue_cap: 8,
        cache: Some(CacheHook(Arc::new(DiskCache::new(&dir)))),
        ..ServerConfig::default()
    });
    let mut client = Client::connect(&addr).unwrap();
    client.ping().unwrap();
    let spec = tiny_spec(7);
    let dev = DeviceProfile::tofino();
    let cold = client
        .submit_wait(&spec, &dev, OptConfig::all(), Some(Duration::from_secs(30)))
        .unwrap();
    assert!(!cold.cache_hit);
    let warm = client
        .submit_wait(&spec, &dev, OptConfig::all(), Some(Duration::from_secs(30)))
        .unwrap();
    assert!(warm.cache_hit, "second submission must replay");
    assert!(!warm.deduped, "sequential submissions never dedup");
    assert_eq!(warm.key, cold.key);
    assert_eq!(warm.program, cold.program);
    assert_eq!(
        warm.program_text, cold.program_text,
        "cache replay must be byte-identical"
    );
    let stats = client.stats().unwrap();
    assert_eq!(stats.get("cache_hits").and_then(Json::as_i64), Some(1));
    assert_eq!(stats.get("cache_misses").and_then(Json::as_i64), Some(1));
    handle.shutdown();
    assert!(join.join().unwrap().is_ok());
    let _ = std::fs::remove_dir_all(&dir);
}

/// A cache whose lookup parks the worker until the test releases it —
/// turning "N identical submissions while one is in flight" into a
/// deterministic schedule instead of a timing race.
struct GateCache {
    entered: Barrier,
    release: Barrier,
    lookups: AtomicUsize,
    stores: AtomicUsize,
}

impl GateCache {
    fn new() -> Arc<GateCache> {
        Arc::new(GateCache {
            entered: Barrier::new(2),
            release: Barrier::new(2),
            lookups: AtomicUsize::new(0),
            stores: AtomicUsize::new(0),
        })
    }
}

impl SynthCache for GateCache {
    fn lookup(
        &self,
        _spec: &ParserSpec,
        _device: &DeviceProfile,
        _opts: OptConfig,
        _params: &SynthParams,
    ) -> Option<SynthOutput> {
        self.lookups.fetch_add(1, Ordering::SeqCst);
        self.entered.wait();
        self.release.wait();
        None
    }

    fn store(
        &self,
        _spec: &ParserSpec,
        _device: &DeviceProfile,
        _opts: OptConfig,
        _params: &SynthParams,
        _out: &SynthOutput,
    ) {
        self.stores.fetch_add(1, Ordering::SeqCst);
    }
}

#[test]
fn identical_concurrent_submissions_synthesize_exactly_once() {
    const DUPES: usize = 4;
    let gate = GateCache::new();
    let (addr, handle, join) = start(ServerConfig {
        workers: 1,
        queue_cap: 8,
        cache: Some(CacheHook(gate.clone())),
        ..ServerConfig::default()
    });
    let spec = tiny_spec(7);
    let mut client = Client::connect(&addr).unwrap();

    let submit_nowait = |client: &mut Client| -> Json {
        let req = Json::obj()
            .with("op", "submit")
            .with("spec", codec::spec_to_json(&spec))
            .with("device", "tofino")
            .with("wait", false);
        client.request(&req).unwrap()
    };

    // Primary: enqueued, then the worker parks inside the cache lookup.
    let primary = submit_nowait(&mut client);
    assert_eq!(primary.get("deduped").and_then(Json::as_bool), Some(false));
    gate.entered.wait(); // the worker is now provably mid-synthesis

    // Identical submissions while it runs: all become followers.
    let mut follower_jobs = Vec::new();
    for _ in 0..DUPES {
        let resp = submit_nowait(&mut client);
        assert_eq!(
            resp.get("deduped").and_then(Json::as_bool),
            Some(true),
            "in-flight duplicate must dedup, got {resp}"
        );
        follower_jobs.push(resp.get("job").and_then(Json::as_i64).unwrap());
    }

    gate.release.wait(); // let the one synthesis proceed

    // Every follower receives the primary's result.
    for job in follower_jobs {
        let result = loop {
            match client.request(&Json::obj().with("op", "result").with("job", job)) {
                Ok(r) => break r,
                Err(ClientError::Daemon { message, .. }) if message.contains("not finished") => {
                    std::thread::sleep(Duration::from_millis(10));
                }
                Err(e) => panic!("result op failed: {e}"),
            }
        };
        assert_eq!(result.get("status").and_then(Json::as_str), Some("done"));
        assert!(result.get("program").is_some());
    }

    let stats = client.stats().unwrap();
    assert_eq!(
        stats.get("dedup_hits").and_then(Json::as_i64),
        Some(DUPES as i64)
    );
    assert_eq!(stats.get("completed").and_then(Json::as_i64), Some(1));
    assert_eq!(gate.lookups.load(Ordering::SeqCst), 1, "one lookup");
    assert_eq!(
        gate.stores.load(Ordering::SeqCst),
        1,
        "one synthesis stored"
    );

    handle.shutdown();
    assert!(join.join().unwrap().is_ok());
}

#[test]
fn full_queue_rejects_explicitly_instead_of_hanging() {
    let gate = GateCache::new();
    let (addr, handle, join) = start(ServerConfig {
        workers: 1,
        queue_cap: 1,
        cache: Some(CacheHook(gate.clone())),
        ..ServerConfig::default()
    });
    let mut client = Client::connect(&addr).unwrap();
    let submit_nowait = |client: &mut Client, accept_on: u8| {
        let req = Json::obj()
            .with("op", "submit")
            .with("spec", codec::spec_to_json(&tiny_spec(accept_on)))
            .with("device", "tofino")
            .with("wait", false);
        client.request(&req)
    };

    // Job 1 occupies the single worker (parked in the gated lookup);
    // job 2 (a *different* spec, so no dedup) fills the 1-slot queue.
    submit_nowait(&mut client, 1).unwrap();
    gate.entered.wait();
    submit_nowait(&mut client, 2).unwrap();

    // Job 3 must be rejected immediately and explicitly.
    let err = submit_nowait(&mut client, 3).unwrap_err();
    match err {
        ClientError::Daemon { rejected, .. } => {
            assert!(rejected, "queue-full must set the rejected flag");
        }
        other => panic!("expected a daemon rejection, got {other}"),
    }
    let stats = client.stats().unwrap();
    assert_eq!(stats.get("rejected_full").and_then(Json::as_i64), Some(1));

    // Unblock both queued jobs (the gate is hit once per synthesis).
    gate.release.wait();
    gate.entered.wait();
    gate.release.wait();

    handle.shutdown();
    assert!(join.join().unwrap().is_ok());
}

#[test]
fn drain_finishes_queued_work_and_refuses_new_submissions() {
    let dir = tmp_dir("drain");
    let (addr, handle, join) = start(ServerConfig {
        workers: 1,
        queue_cap: 8,
        cache: Some(CacheHook(Arc::new(DiskCache::new(&dir)))),
        ..ServerConfig::default()
    });
    let spec = tiny_spec(9);
    let dev = DeviceProfile::tofino();
    let mut client = Client::connect(&addr).unwrap();
    let out = client
        .submit_wait(&spec, &dev, OptConfig::all(), Some(Duration::from_secs(30)))
        .unwrap();
    assert!(out.program.entry_count() > 0);

    handle.shutdown();
    assert!(join.join().unwrap().is_ok(), "drain must exit cleanly");

    // The listener is gone: new connections fail outright.
    assert!(Client::connect(&addr).is_err());
    let _ = std::fs::remove_dir_all(&dir);
}

/// Submits `spec` without waiting; returns the raw response.
fn submit_nowait(client: &mut Client, spec: &ParserSpec) -> Result<Json, ClientError> {
    let req = Json::obj()
        .with("op", "submit")
        .with("spec", codec::spec_to_json(spec))
        .with("device", "tofino")
        .with("wait", false);
    client.request(&req)
}

fn job_of(resp: &Json) -> i64 {
    resp.get("job").and_then(Json::as_i64).expect("job id")
}

/// Polls the `result` op until the job is finished; returns the response
/// (`ok: false` ones included).
fn await_result(client: &mut Client, job: i64) -> Result<Json, ClientError> {
    loop {
        match client.request(&Json::obj().with("op", "result").with("job", job)) {
            Err(ClientError::Daemon { message, .. }) if message.contains("not finished") => {
                std::thread::sleep(Duration::from_millis(5));
            }
            other => return other,
        }
    }
}

fn stat(client: &mut Client, key: &str) -> i64 {
    let stats = client.stats().unwrap();
    stats.get(key).and_then(Json::as_i64).expect(key)
}

#[test]
fn job_table_stays_bounded_and_old_results_expire() {
    let dir = tmp_dir("retain");
    let config = ServerConfig {
        workers: 1,
        queue_cap: 2,
        cache: Some(CacheHook(Arc::new(DiskCache::new(&dir)))),
        ..ServerConfig::default()
    };
    let retained = config.retained_jobs();
    let (addr, handle, join) = start(config);
    let mut client = Client::connect(&addr).unwrap();
    let spec = tiny_spec(5);
    let dev = DeviceProfile::tofino();

    // Waited submissions of a cached spec: each entry goes as its result
    // is delivered.
    for _ in 0..1000 {
        client
            .submit_wait(&spec, &dev, OptConfig::all(), None)
            .unwrap();
    }
    let after_waited = stat(&mut client, "jobs_retained");
    assert!(after_waited as usize <= retained);
    assert_eq!(after_waited, 0, "a delivered waited job leaves nothing");

    // Unwaited submissions are kept for `result`, oldest out first.
    let jobs: Vec<i64> = (0..retained + 3)
        .map(|_| {
            let job = job_of(&submit_nowait(&mut client, &spec).unwrap());
            await_result(&mut client, job).unwrap();
            job
        })
        .collect();
    assert_eq!(stat(&mut client, "jobs_retained") as usize, retained);
    for &old in &jobs[..3] {
        for op in ["status", "result"] {
            match client.request(&Json::obj().with("op", op).with("job", old)) {
                Err(ClientError::Daemon { message, .. }) => assert_eq!(message, "expired"),
                other => panic!("{op} on evicted job {old}: {other:?}"),
            }
        }
    }
    let newest = await_result(&mut client, *jobs.last().unwrap()).unwrap();
    assert_eq!(newest.get("status").and_then(Json::as_str), Some("done"));
    match client.request(&Json::obj().with("op", "status").with("job", 1_000_000_i64)) {
        Err(ClientError::Daemon { message, .. }) => assert_eq!(message, "unknown job"),
        other => panic!("never-issued id: {other:?}"),
    }

    handle.shutdown();
    assert!(join.join().unwrap().is_ok());
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn sequential_cache_hits_are_not_stalled_by_the_transport() {
    let dir = tmp_dir("framing");
    let (addr, handle, join) = start(ServerConfig {
        workers: 1,
        queue_cap: 8,
        cache: Some(CacheHook(Arc::new(DiskCache::new(&dir)))),
        ..ServerConfig::default()
    });
    let mut client = Client::connect(&addr).unwrap();
    let spec = tiny_spec(3);
    let dev = DeviceProfile::tofino();
    let cold = client
        .submit_wait(&spec, &dev, OptConfig::all(), None)
        .unwrap();
    assert!(!cold.cache_hit);
    // A message written piecewise stalls each request on delayed ACKs
    // (about 88 ms apiece, 17 s for this loop); one write per message
    // keeps a hit under a millisecond.
    let t = Instant::now();
    for _ in 0..200 {
        let warm = client
            .submit_wait(&spec, &dev, OptConfig::all(), None)
            .unwrap();
        assert!(warm.cache_hit);
    }
    let elapsed = t.elapsed();
    assert!(
        elapsed < Duration::from_secs(2),
        "200 cache hits took {elapsed:?}"
    );
    handle.shutdown();
    assert!(join.join().unwrap().is_ok());
    let _ = std::fs::remove_dir_all(&dir);
}

/// Two fields of different widths; the key reads the second one, so a
/// program that confuses the two fields extracts and branches wrongly.
fn two_field_spec() -> ParserSpec {
    ph_p4f::parse_parser(
        r#"
        header h_t { a : 4; b : 8; }
        parser {
            state start {
                extract(h_t);
                transition select(h_t.b) { 0xab : accept; default : reject; }
            }
        }
        "#,
    )
    .unwrap()
}

/// `spec` with its field table reversed and every field reference
/// renumbered to match: the same parser, numbered differently.
fn reverse_fields(spec: &ParserSpec) -> ParserSpec {
    let n = spec.fields.len();
    let m = |f: FieldId| FieldId(n - 1 - f.0);
    let mut out = spec.clone();
    out.fields.reverse();
    for field in &mut out.fields {
        if let FieldKind::Var(v) = &mut field.kind {
            v.control = m(v.control);
        }
    }
    for state in &mut out.states {
        for f in &mut state.extracts {
            *f = m(*f);
        }
        for kp in &mut state.key {
            if let KeyPart::Slice { field, .. } = kp {
                *field = m(*field);
            }
        }
    }
    out
}

#[test]
fn follower_gets_the_primary_result_in_its_own_field_ids() {
    let gate = GateCache::new();
    let (addr, handle, join) = start(ServerConfig {
        workers: 1,
        queue_cap: 8,
        cache: Some(CacheHook(gate.clone())),
        ..ServerConfig::default()
    });
    let spec = two_field_spec();
    let variant = reverse_fields(&spec);
    let dev = DeviceProfile::tofino();
    let mut client = Client::connect(&addr).unwrap();

    // Park the primary mid-synthesis, then attach the variant to it.
    let primary = submit_nowait(&mut client, &spec).unwrap();
    gate.entered.wait();
    let follower = submit_nowait(&mut client, &variant).unwrap();
    assert_eq!(
        follower.get("deduped").and_then(Json::as_bool),
        Some(true),
        "the variant shares the primary's canonical key"
    );
    gate.release.wait();

    let program_of = |resp: &Json| codec::program_from_json(resp.get("program").unwrap()).unwrap();
    let primary_program = program_of(&await_result(&mut client, job_of(&primary)).unwrap());
    let follower_program = program_of(&await_result(&mut client, job_of(&follower)).unwrap());

    // What a cache hit for the variant returns: the primary's program
    // stored under its spec and read back under the variant.
    let dir = tmp_dir("follower");
    let cache = DiskCache::new(&dir);
    let params = SynthParams::default();
    let stored = SynthOutput {
        program: primary_program.clone(),
        stats: SynthStats::default(),
    };
    cache.store(&spec, &dev, OptConfig::all(), &params, &stored);
    let hit = cache
        .lookup(&variant, &dev, OptConfig::all(), &params)
        .expect("the variant hits the primary's entry");
    assert_eq!(follower_program, hit.program);
    assert_ne!(
        follower_program, primary_program,
        "the variant numbers its fields differently"
    );
    assert_eq!(
        ph_hw::check_program(&follower_program, &variant.fields),
        Vec::new()
    );
    ph_core::validate::check_program_against_spec(&variant, &follower_program, 7, 200)
        .expect("the follower's program parses like the variant");

    handle.shutdown();
    assert!(join.join().unwrap().is_ok());
    let _ = std::fs::remove_dir_all(&dir);
}

/// A cache whose first lookup parks like [`GateCache`] and then panics;
/// later lookups miss.
struct PanicOnceCache {
    gate: Arc<GateCache>,
    armed: AtomicBool,
}

impl SynthCache for PanicOnceCache {
    fn lookup(
        &self,
        spec: &ParserSpec,
        device: &DeviceProfile,
        opts: OptConfig,
        params: &SynthParams,
    ) -> Option<SynthOutput> {
        if self.armed.swap(false, Ordering::SeqCst) {
            self.gate.lookup(spec, device, opts, params);
            panic!("injected lookup failure");
        }
        None
    }

    fn store(
        &self,
        _spec: &ParserSpec,
        _device: &DeviceProfile,
        _opts: OptConfig,
        _params: &SynthParams,
        _out: &SynthOutput,
    ) {
    }
}

#[test]
fn a_panicking_job_fails_alone_and_the_worker_survives() {
    let gate = GateCache::new();
    let (addr, handle, join) = start(ServerConfig {
        workers: 1,
        queue_cap: 8,
        cache: Some(CacheHook(Arc::new(PanicOnceCache {
            gate: gate.clone(),
            armed: AtomicBool::new(true),
        }))),
        ..ServerConfig::default()
    });
    let spec = tiny_spec(11);
    let dev = DeviceProfile::tofino();
    let mut client = Client::connect(&addr).unwrap();

    // The primary parks inside the doomed lookup; a waiting duplicate
    // attaches to it from a second connection.
    let primary = submit_nowait(&mut client, &spec).unwrap();
    gate.entered.wait();
    let waiter = {
        let (addr, spec, dev) = (addr.clone(), spec.clone(), dev.clone());
        std::thread::spawn(move || {
            Client::connect(&addr)
                .unwrap()
                .submit_wait(&spec, &dev, OptConfig::all(), None)
        })
    };
    while stat(&mut client, "dedup_hits") < 1 {
        std::thread::sleep(Duration::from_millis(5));
    }
    gate.release.wait();

    match waiter.join().unwrap() {
        Err(ClientError::Daemon { message, rejected }) => {
            assert!(!rejected);
            assert!(message.contains("panicked"), "{message}");
        }
        other => panic!("waiting follower of a panicked job: {other:?}"),
    }
    match await_result(&mut client, job_of(&primary)) {
        Err(ClientError::Daemon { message, .. }) => assert!(message.contains("panicked")),
        other => panic!("panicked primary: {other:?}"),
    }
    assert_eq!(stat(&mut client, "panics"), 1);

    // Same daemon, same worker, same key: the next submission synthesizes.
    let out = client
        .submit_wait(&spec, &dev, OptConfig::all(), None)
        .unwrap();
    assert!(!out.deduped);
    assert!(out.program.entry_count() > 0);

    handle.shutdown();
    assert!(join.join().unwrap().is_ok());
}
