//! `phd-mixed`: an in-process `ph_svc::Server` on loopback with a fresh
//! `DiskCache`, driven by two closed-loop `Client`s.  Set-up populates the
//! cache with the `compile-small` specs; the measured stream then mixes
//! exact repeats (cache reads; the registry's `- R1`/`- R3`/`- R5` rows
//! among them share a canonical form with their base rows), alpha-variants
//! (seeded renames and state reorderings, which hit through
//! canonicalization) and, at
//! one request in five, a fresh spec (one header field's width redrawn)
//! that misses, synthesizes and stores.

use crate::compile::{self, program_size, shuffle, Job};
use crate::layers::{races, Layers};
use crate::{peak_rss_mb, stat, Args, Outcome, TempDir};
use ph_bits::Rng;
use ph_core::{CacheHook, OptConfig, SynthCache, SynthOutput, SynthParams};
use ph_ir::{analysis, canon, FieldKind, NextState, ParserSpec, StateId};
use ph_obs::Json;
use ph_svc::{codec, Client, DiskCache, Server, ServerConfig, ShutdownHandle, SubmitOutcome};
use std::collections::HashSet;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

const CLIENTS: usize = 2;
/// Set-up repetitions; `setup_s` is their median.
const SETUP_REPS: usize = 3;
/// Requests per block; each block holds exactly one fresh spec.
const BLOCK: usize = 5;
/// `request_s.tail` level; the stream runs until ten requests lie beyond.
const REQUEST_TAIL_LEVEL: f64 = 95.0;
/// `compile_s.tail` level over the fresh specs' compiles.
const COMPILE_TAIL_LEVEL: f64 = 75.0;
/// Widest field a fresh spec draws.
const MAX_FRESH_WIDTH: usize = 32;

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum Kind {
    Exact,
    Variant,
    Fresh,
}

/// One measured request and what came back.
struct Req {
    kind: Kind,
    base: usize,
    spec: ParserSpec,
    secs: f64,
    reply: Result<SubmitOutcome, String>,
}

/// A populated base spec: its compile-small job and the program its miss
/// stored.
struct Base {
    job: Job,
    reply: Result<SubmitOutcome, String>,
}

fn submit(client: &mut Client, spec: &ParserSpec, job: &Job) -> Result<SubmitOutcome, String> {
    client
        .submit_wait(spec, &job.device, OptConfig::all(), None)
        .map_err(|e| e.to_string())
}

fn connect(addr: &str) -> Result<Client, String> {
    Client::connect(addr).map_err(|e| format!("connect {addr}: {e}"))
}

/// The in-process daemon's thread.  Dropping it (on an error path) drains
/// the daemon and joins the thread, so no thread outlives the run.
struct Daemon {
    shutdown: ShutdownHandle,
    thread: Option<std::thread::JoinHandle<std::io::Result<()>>>,
}

impl Daemon {
    /// Drains the daemon and reports how its accept loop ended.
    fn stop(mut self) -> Result<(), String> {
        self.shutdown.shutdown();
        self.thread
            .take()
            .expect("the thread is joined only here or on drop")
            .join()
            .expect("daemon thread panicked")
            .map_err(|e| format!("daemon: {e}"))
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        self.shutdown.shutdown();
        if let Some(t) = self.thread.take() {
            let _ = t.join();
        }
    }
}

/// The daemon's `stats` counter `key`.
fn counter(stats: &Json, key: &str) -> u64 {
    stats.get(key).and_then(Json::as_i64).unwrap_or(0).max(0) as u64
}

/// A started daemon with a populated cache.  Fields drop in order: the
/// daemon drains before its cache directory is removed.
struct Ready {
    daemon: Daemon,
    addr: String,
    bases: Vec<Base>,
    tmp: TempDir,
}

/// The set-up a daemon user pays: build the specs, create the cache, bind
/// and start the daemon, and populate the cache by submitting the
/// `compile-small` specs, in seeded order, through both clients.
fn set_up(seed: u64) -> Result<Ready, String> {
    let tmp = TempDir::new("phd")?;
    let server = Server::bind(ServerConfig {
        addr: "127.0.0.1:0".into(),
        workers: ServerConfig::default().workers,
        queue_cap: ServerConfig::default().queue_cap,
        cache: Some(CacheHook(Arc::new(DiskCache::new(tmp.0.join("cache"))))),
    })
    .map_err(|e| format!("bind: {e}"))?;
    let addr = server
        .local_addr()
        .map_err(|e| format!("local_addr: {e}"))?
        .to_string();
    let daemon = Daemon {
        shutdown: server.shutdown_handle(),
        thread: Some(std::thread::spawn(move || server.run())),
    };
    let jobs = compile::jobs(compile::Set::Small);
    let mut order: Vec<usize> = (0..jobs.len()).collect();
    shuffle(&mut order, &mut Rng::seed_from_u64(seed));
    let populated = std::thread::scope(|scope| -> Result<_, String> {
        let populate: Vec<_> = (0..CLIENTS)
            .map(|c| {
                let (addr, jobs, order) = (&addr, &jobs, &order);
                scope.spawn(move || -> Result<Vec<(usize, _)>, String> {
                    let mut client = connect(addr)?;
                    Ok(order
                        .iter()
                        .skip(c)
                        .step_by(CLIENTS)
                        .map(|&j| (j, submit(&mut client, &jobs[j].spec, &jobs[j])))
                        .collect())
                })
            })
            .collect();
        let mut replies: Vec<Option<Result<SubmitOutcome, String>>> = Vec::new();
        replies.resize_with(jobs.len(), || None);
        for h in populate {
            for (j, r) in h.join().expect("populate client panicked")? {
                replies[j] = Some(r);
            }
        }
        Ok(replies)
    })?;
    let bases = jobs
        .into_iter()
        .zip(populated)
        .map(|(job, reply)| Base {
            job,
            reply: reply.expect("every base spec is submitted once"),
        })
        .collect();
    Ok(Ready {
        daemon,
        addr,
        bases,
        tmp,
    })
}

pub fn run(args: &Args) -> Result<Outcome, String> {
    // --- set-up, `SETUP_REPS` times; the last daemon serves the stream ----
    let mut times = Vec::new();
    let mut ready = None;
    for _ in 0..SETUP_REPS {
        // Stop the previous daemon and remove its cache first.
        drop(ready.take());
        let t = Instant::now();
        ready = Some(set_up(args.seed)?);
        times.push(t.elapsed().as_secs_f64());
    }
    let setup_s = stat::median(&times);
    let Ready {
        daemon,
        addr,
        bases,
        tmp,
    } = ready.expect("SETUP_REPS > 0");
    let cache_dir = tmp.0.join("cache");

    // --- measured stream -------------------------------------------------
    let mut control = connect(&addr)?;
    let before = control.stats().map_err(|e| e.to_string())?;
    let seen: Mutex<HashSet<String>> = Mutex::new(
        bases
            .iter()
            .map(|b| fingerprint(&b.job.spec, &b.job))
            .collect(),
    );
    // Fresh specs walk one seeded cycle over the resizable bases, shared by
    // both clients, and the run compiles whole cycles only: every run then
    // compiles the same mix, whatever its seed and length.
    let mut fresh_order: Vec<usize> = (0..bases.len())
        .filter(|&b| !resizable(&bases[b].job.spec).is_empty())
        .collect();
    shuffle(&mut fresh_order, &mut Rng::seed_from_u64(args.seed));
    let cycle = fresh_order.len();
    let requests = AtomicUsize::new(0);
    let issued = AtomicUsize::new(0);
    let quota = AtomicUsize::new(usize::MAX);
    let min_requests = stat::samples_for(REQUEST_TAIL_LEVEL);
    let min_fresh = stat::samples_for(COMPILE_TAIL_LEVEL);
    let start = Instant::now();
    let streams: Vec<Result<Vec<Req>, String>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..CLIENTS)
            .map(|c| {
                let (addr, bases, seen) = (&addr, &bases, &seen);
                let (fresh_order, requests, issued, quota) =
                    (&fresh_order, &requests, &issued, &quota);
                scope.spawn(move || -> Result<Vec<Req>, String> {
                    let mut client = connect(addr)?;
                    let mut rng =
                        Rng::seed_from_u64(args.seed ^ (0x9e37_79b9_7f4a_7c15 * (c as u64 + 1)));
                    let mut out = Vec::new();
                    let mut fresh_pos = 0;
                    loop {
                        if start.elapsed() >= args.seconds
                            && requests.load(Ordering::SeqCst) >= min_requests
                        {
                            let done = issued.load(Ordering::SeqCst).max(min_fresh);
                            quota.fetch_min(done.div_ceil(cycle) * cycle, Ordering::SeqCst);
                        }
                        let slot = out.len() % BLOCK;
                        if slot == 0 {
                            fresh_pos = rng.gen_range(0..BLOCK);
                        }
                        let (kind, base, spec) = if slot == fresh_pos {
                            // Take the next fresh ticket, unless the quota is spent.
                            let Ok(k) =
                                issued.fetch_update(Ordering::SeqCst, Ordering::SeqCst, |k| {
                                    (k < quota.load(Ordering::SeqCst)).then_some(k + 1)
                                })
                            else {
                                break;
                            };
                            let base = fresh_order[k % cycle];
                            let spec = perturb(&bases[base].job, &mut rng, seen)?;
                            (Kind::Fresh, base, spec)
                        } else {
                            let base = rng.gen_range(0..bases.len());
                            if rng.gen_bool(0.5) {
                                (Kind::Exact, base, bases[base].job.spec.clone())
                            } else {
                                let spec = alpha_variant(&bases[base].job.spec, &mut rng);
                                (Kind::Variant, base, spec)
                            }
                        };
                        let t = Instant::now();
                        let reply = submit(&mut client, &spec, &bases[base].job);
                        let secs = t.elapsed().as_secs_f64();
                        requests.fetch_add(1, Ordering::SeqCst);
                        out.push(Req {
                            kind,
                            base,
                            spec,
                            secs,
                            reply,
                        });
                    }
                    Ok(out)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("stream client panicked"))
            .collect()
    });
    let window = start.elapsed().as_secs_f64();
    let after = control.stats().map_err(|e| e.to_string());
    drop(control);
    daemon.stop()?;
    // Read before the checks below, so the peak is the daemon's and the
    // stream's, not the oracle's.
    let peak_rss = peak_rss_mb();
    let after = after?;
    let reqs: Vec<Req> = streams
        .into_iter()
        .collect::<Result<Vec<_>, _>>()?
        .into_iter()
        .flatten()
        .collect();

    // --- checks, outside the measured stream ------------------------------
    let mut layers = Layers::default();
    let mut failed = 0u64;
    for b in &bases {
        let ok = match &b.reply {
            Ok(r) => consistent(r) && layers.oracle(&b.job.spec, &r.program, args.seed),
            Err(e) => {
                eprintln!("perfbench: populate {}: {e}", b.job.name);
                false
            }
        };
        failed += u64::from(!ok);
    }
    for r in &reqs {
        let ok = match &r.reply {
            Err(e) => {
                eprintln!("perfbench: request on {}: {e}", bases[r.base].job.name);
                false
            }
            Ok(reply) => {
                consistent(reply)
                    && match (r.kind, &bases[r.base].reply) {
                        (Kind::Fresh, _) => layers.oracle(&r.spec, &reply.program, args.seed),
                        (_, Err(_)) => false,
                        (Kind::Exact | Kind::Variant, Ok(stored)) => {
                            reply.program_text == stored.program_text
                        }
                    }
            }
        };
        if !ok && r.reply.is_ok() {
            eprintln!(
                "perfbench: {:?} reply on {} failed its check",
                r.kind, bases[r.base].job.name
            );
        }
        failed += u64::from(!ok);
    }

    // --- metrics ----------------------------------------------------------
    let req_secs: Vec<f64> = reqs.iter().map(|r| r.secs).collect();
    // A daemon user's compile is a request that misses: its latency is
    // what the user waits for a fresh program.
    let compile_secs: Vec<f64> = reqs
        .iter()
        .filter(|r| r.reply.as_ref().is_ok_and(|o| !o.cache_hit))
        .map(|r| r.secs)
        .collect();
    let compile_tail = stat::tail(&compile_secs, COMPILE_TAIL_LEVEL)
        .ok_or("too few fresh compiles for the tail percentile")?;
    let request_tail = stat::tail(&req_secs, REQUEST_TAIL_LEVEL)
        .ok_or("too few requests for the tail percentile")?;
    let size = |tofino: bool| -> f64 {
        bases
            .iter()
            .filter(|b| b.job.device.allows_loops() == tofino)
            .filter_map(|b| b.reply.as_ref().ok())
            .map(|r| program_size(&r.program) as f64)
            .sum()
    };
    let attempted = (bases.len() + reqs.len()) as u64;
    let info = Json::obj()
        .with("workload", "phd-mixed")
        .with("requests", reqs.len())
        .with("fresh_compiles", compile_secs.len())
        .with("request_s.tail", format!("p{REQUEST_TAIL_LEVEL}"))
        .with("compile_s.tail", format!("p{COMPILE_TAIL_LEVEL}"))
        .with("clients", CLIENTS)
        .with("setup_reps", SETUP_REPS)
        .with("workers", ServerConfig::default().workers)
        .with(
            "order_stat",
            Json::obj()
                .with("compile_s.p50", stat::order_stat(&compile_secs, 0.5))
                .with(
                    "compile_s.tail",
                    stat::order_stat(&compile_secs, COMPILE_TAIL_LEVEL / 100.0),
                )
                .with("request_s.p50", stat::order_stat(&req_secs, 0.5))
                .with(
                    "request_s.tail",
                    stat::order_stat(&req_secs, REQUEST_TAIL_LEVEL / 100.0),
                ),
        );
    let request_p50 = stat::quantile(&req_secs, 0.5);
    let compile_geomean = stat::geomean(&compile_secs);
    let metrics = if args.trace {
        layers.dedup_hits = counter(&after, "dedup_hits") - counter(&before, "dedup_hits");
        layers.rejected = counter(&after, "rejected_full") - counter(&before, "rejected_full");
        trace_layers(&reqs, &bases, &cache_dir, &tmp, &mut layers)?;
        let mut m = layers.metrics();
        m.push(("traced.compile_s.geomean", compile_geomean, "s"));
        m.push(("traced.request_s.p50", request_p50, "s"));
        m
    } else {
        vec![
            ("compile_s.p50", stat::quantile(&compile_secs, 0.5), "s"),
            ("compile_s.geomean", compile_geomean, "s"),
            ("compile_s.tail", compile_tail, "s"),
            ("programs_per_s", compile_secs.len() as f64 / window, "1/s"),
            ("tcam_entries.sum", size(true), "count"),
            ("ipu_stages.sum", size(false), "count"),
            (
                "ok_frac",
                (attempted - failed) as f64 / attempted as f64,
                "ratio",
            ),
            ("peak_rss_mb", peak_rss, "MB"),
            ("setup_s", setup_s, "s"),
            ("request_s.p50", request_p50, "s"),
            ("request_s.tail", request_tail, "s"),
            ("requests_per_s", reqs.len() as f64 / window, "1/s"),
        ]
    };
    Ok(Outcome {
        attempted,
        failed,
        metrics,
        info,
    })
}

/// The decoded program renders to exactly the text the daemon printed.
fn consistent(r: &SubmitOutcome) -> bool {
    r.program.to_string() == r.program_text
}

/// Per-layer numbers for the daemon path: the benchmark's own calls into
/// the front end, the codec and the disk cache, per request, plus the
/// stats each miss returned.
fn trace_layers(
    reqs: &[Req],
    bases: &[Base],
    cache_dir: &std::path::Path,
    tmp: &TempDir,
    layers: &mut Layers,
) -> Result<(), String> {
    let lookup_cache = DiskCache::new(cache_dir);
    let store_cache = DiskCache::new(tmp.0.join("store"));
    let params = SynthParams::default();
    for r in reqs {
        let Ok(reply) = &r.reply else { continue };
        let device = &bases[r.base].job.device;
        layers.ops += 1;
        layers.front_end(&r.spec, device)?;

        let t = Instant::now();
        let spec_text = codec::spec_to_json(&r.spec).to_string();
        let spec_back = Json::parse(&spec_text).map_err(|e| e.to_string())?;
        codec::spec_from_json(&spec_back).map_err(|e| e.to_string())?;
        let prog_text = codec::program_to_json(&reply.program).to_string();
        let prog_back = Json::parse(&prog_text).map_err(|e| e.to_string())?;
        codec::program_from_json(&prog_back).map_err(|e| e.to_string())?;
        layers.codec_s += t.elapsed().as_secs_f64();

        let t = Instant::now();
        std::hint::black_box(lookup_cache.lookup(&r.spec, device, OptConfig::all(), &params));
        layers.cache_lookup_s += t.elapsed().as_secs_f64();

        let raced = races(&r.spec, device);
        if reply.cache_hit {
            layers.hits += 1;
            layers.overhead_s += r.secs;
            layers.add_race(raced, None);
            continue;
        }
        let stats = codec::stats_from_json(&reply.stats).map_err(|e| e.to_string())?;
        layers.add_stats(&stats);
        layers.add_race(raced, None);
        layers.overhead_s += r.secs - stats.wall.as_secs_f64();
        let out = SynthOutput {
            program: reply.program.clone(),
            stats,
        };
        let t = Instant::now();
        store_cache.store(&r.spec, device, OptConfig::all(), &params, &out);
        layers.cache_store_s += t.elapsed().as_secs_f64();
        layers.stores += 1;
    }
    Ok(())
}

/// Canonical identity of a spec on a job's device: equal fingerprints
/// share one cache entry.
fn fingerprint(spec: &ParserSpec, job: &Job) -> String {
    format!(
        "{}\n{}",
        job.device.name,
        canon::spec_fingerprint_text(&canon::canonicalize(spec).spec)
    )
}

/// Fields whose width a fresh spec may change: fixed-width fields that no
/// transition keys on and no varbit length reads (`analysis::
/// irrelevant_fields`), so the change alters the spec's canonical form but
/// not the shape of the synthesis problem.
fn resizable(spec: &ParserSpec) -> Vec<usize> {
    analysis::irrelevant_fields(spec)
        .iter()
        .enumerate()
        .filter(|&(f, &irrelevant)| irrelevant && spec.fields[f].kind == FieldKind::Fixed)
        .map(|(f, _)| f)
        .collect()
}

/// A fresh spec: `job`'s spec with the width of one resizable field
/// redrawn, canonically distinct from every spec sent so far.
fn perturb(job: &Job, rng: &mut Rng, seen: &Mutex<HashSet<String>>) -> Result<ParserSpec, String> {
    let fields = resizable(&job.spec);
    for _ in 0..256 {
        let f = fields[rng.gen_range(0..fields.len())];
        let width = rng.gen_range(1..=MAX_FRESH_WIDTH);
        if width == job.spec.fields[f].width {
            continue;
        }
        let mut out = job.spec.clone();
        out.fields[f].width = width;
        if out.validate().is_ok()
            && seen
                .lock()
                .expect("no thread panics holding the seen set")
                .insert(fingerprint(&out, job))
        {
            return Ok(out);
        }
    }
    Err(format!("{}: no fresh width perturbation found", job.name))
}

/// An alpha-variant of `spec`: fields and states renamed, states
/// reordered.  Field order is kept, so the variant's program text equals
/// the base's.
fn alpha_variant(spec: &ParserSpec, rng: &mut Rng) -> ParserSpec {
    let tag = rng.gen_range(0..1_000_000u64);
    let mut sperm: Vec<usize> = (0..spec.states.len()).collect();
    shuffle(&mut sperm, rng);
    let next = |n: NextState| match n {
        NextState::State(s) => NextState::State(StateId(sperm[s.0])),
        other => other,
    };
    let mut fields = spec.fields.clone();
    for f in &mut fields {
        f.name = format!("{}_v{tag}", f.name);
    }
    let mut states = spec.states.clone();
    for (i, st) in spec.states.iter().enumerate() {
        let mut ns = st.clone();
        ns.name = format!("{}_v{tag}", st.name);
        for t in &mut ns.transitions {
            t.next = next(t.next);
        }
        ns.default = next(st.default);
        states[sperm[i]] = ns;
    }
    ParserSpec {
        fields,
        states,
        start: StateId(sperm[spec.start.0]),
    }
}
