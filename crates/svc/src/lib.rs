//! # ph-svc
//!
//! The synthesis service: a content-addressed result cache and a
//! JSON-over-TCP daemon, all on `std` only (the workspace is
//! dependency-free by design).
//!
//! Three layers:
//!
//! * [`cache`] — [`DiskCache`], an on-disk store keyed by a SHA-256 over
//!   the *canonical* specification ([`ph_ir::canon`]), the device model,
//!   and the result-determining synthesis knobs.  Installed via
//!   [`ph_core::SynthParams::cache`] (or `PH_CACHE_DIR` through
//!   [`DiskCache::from_env`]), it makes repeated synthesis of the same
//!   parser — across processes, table runs and fuzz campaigns — a disk
//!   read instead of a CEGIS run.
//! * [`server`] / [`client`] — `phd`, a daemon serving line-delimited
//!   JSON over TCP ([`proto`]): bounded-queue backpressure, a synthesis
//!   worker pool, single-flight deduplication of identical in-flight
//!   requests, a bounded job table, panic isolation per job,
//!   per-request deadlines and graceful drain on SIGTERM or a
//!   `shutdown` request.
//! * [`codec`] / [`pool`] — hand-written JSON codecs for the IR and
//!   program types, and the `par_map` worker-pool primitive shared with
//!   `ph-bench`.
//!
//! Binaries: `phd` (the daemon), `ph_client` (submit/inspect), and — in
//! `ph-bench`, which owns the results schema — `svc_bench` (cold/warm
//! throughput measurement).

pub mod cache;
pub mod client;
pub mod codec;
pub mod pool;
pub mod proto;
pub mod server;

pub use cache::{DiskCache, CACHE_BUDGET_ENV, CACHE_DIR_ENV, CACHE_FORMAT_VERSION};
pub use client::{Client, ClientError, SubmitOutcome};
pub use codec::CodecError;
pub use pool::{jobs_from_args, par_map};
pub use server::{install_sigterm_drain, Server, ServerConfig, ShutdownHandle};
