//! Per-layer numbers and the output oracle.
//!
//! Nothing here adds tracing inside the compiler.  Front-end layers are
//! timed by calling their public functions again on each workload spec,
//! outside the timed region; the CEGIS, SAT, portfolio and batching layers
//! are read from the `SynthStats` every synthesis already returns; the
//! daemon's layers are timed around the benchmark's own calls into
//! `ph_svc` and read from its `stats` op.

use ph_core::fuzz::{fuzz, FuzzConfig};
use ph_core::{cegis, reduce, skeleton, OptConfig, SynthParams, SynthStats};
use ph_hw::{DeviceProfile, TcamProgram};
use ph_ir::{analysis, canon, ParserSpec};
use std::hint::black_box;
use std::time::{Duration, Instant};

/// Whether Opt7 races two skeleton families for this compile: the rule of
/// `ph_core::parallel::synthesize_racing` (single-table device, loop-free
/// spec, at least two cores).
pub fn races(spec: &ParserSpec, device: &DeviceProfile) -> bool {
    device.allows_loops() && analysis::is_loop_free(spec) && crate::cores() >= 2
}

/// Sums over a run's operations (compiles, or daemon requests), reported
/// as per-operation means unless a metric says otherwise.
#[derive(Default)]
pub struct Layers {
    /// Operations the stats-derived sums are averaged over.
    pub ops: u64,
    front_calls: u64,
    validate_s: f64,
    canon_s: f64,
    reduce_s: f64,
    skeleton_s: f64,
    spec_states: u64,
    search_space_bits: u64,
    smt_terms: u64,
    sat_vars: u64,
    gate_vars: u64,
    synth_s: f64,
    verify_s: f64,
    shrink_s: f64,
    rest_s: f64,
    iterations: u64,
    test_cases: u64,
    verify_checks: u64,
    budget_levels: u64,
    conflicts: u64,
    decisions: u64,
    propagations: u64,
    simplify_s: f64,
    arena_gcs: u64,
    arena_bytes: u64,
    portfolio_races: u64,
    clauses_imported: u64,
    batch_rounds: u64,
    batch_candidates: u64,
    cex_harvested: u64,
    cex_dup_dropped: u64,
    raced: u64,
    outside_s: f64,
    pub cache_lookup_s: f64,
    pub cache_store_s: f64,
    pub stores: u64,
    pub codec_s: f64,
    pub hits: u64,
    pub overhead_s: f64,
    pub dedup_hits: u64,
    pub rejected: u64,
    checked: u64,
    packets: u64,
    oracle_s: f64,
    divergences: u64,
}

fn secs(t: Instant) -> f64 {
    t.elapsed().as_secs_f64()
}

impl Layers {
    /// Re-runs the compiler's front end on `spec` through its public
    /// functions, in `synthesize_one`'s order: validate, canonicalize
    /// (the daemon's cache key), unroll where the device cannot loop,
    /// reduce, and build the skeleton's shape and solver variables on a
    /// fresh `Smt`.  The loop-free family stands in for both Opt7 branches.
    pub fn front_end(&mut self, spec: &ParserSpec, device: &DeviceProfile) -> Result<(), String> {
        let opts = OptConfig::all();
        let t = Instant::now();
        spec.validate().map_err(|e| e.to_string())?;
        self.validate_s += secs(t);

        let t = Instant::now();
        black_box(canon::canonicalize(spec));
        self.canon_s += secs(t);

        let t = Instant::now();
        let spec_loopy = !analysis::is_loop_free(spec);
        let loopy = spec_loopy && device.allows_loops();
        let unrolled;
        let working = if spec_loopy && !loopy {
            unrolled = cegis::unroll_spec(spec, SynthParams::default().max_loop_iters);
            &unrolled
        } else {
            spec
        };
        let reduced = reduce::reduce_spec(working, opts)?;
        self.reduce_s += secs(t);
        self.spec_states += reduced.spec.states.len() as u64;

        let t = Instant::now();
        let shape = skeleton::build_shape(&reduced, device, opts, loopy, None)?;
        let mut smt = ph_smt::Smt::new();
        let vars = black_box(skeleton::build_vars(&mut smt, &shape, device));
        self.skeleton_s += secs(t);
        self.search_space_bits += vars.search_space_bits as u64;
        self.smt_terms += smt.num_terms() as u64;
        self.sat_vars += smt.num_sat_vars() as u64;
        self.gate_vars += smt.blast_stats().gate_vars;
        self.front_calls += 1;
        Ok(())
    }

    /// Folds in the statistics one synthesis run returned.
    pub fn add_stats(&mut self, s: &SynthStats) {
        let (synth, verify, shrink) = (
            s.synth_time.as_secs_f64(),
            s.verify_time.as_secs_f64(),
            s.shrink_time.as_secs_f64(),
        );
        self.synth_s += synth;
        self.verify_s += verify;
        self.shrink_s += shrink;
        self.rest_s += s.wall.as_secs_f64() - synth - verify - shrink;
        self.iterations += s.cegis_iterations as u64;
        self.test_cases += s.test_cases as u64;
        self.verify_checks += s.verify_checks as u64;
        self.budget_levels += s.budget_levels as u64;
        for sat in [&s.synth_sat, &s.verify_sat] {
            self.conflicts += sat.conflicts;
            self.decisions += sat.decisions;
            self.propagations += sat.propagations;
            self.simplify_s += sat.simplify_time_ns as f64 * 1e-9;
            self.arena_gcs += sat.arena_gcs;
            self.arena_bytes += sat.arena_bytes;
        }
        self.portfolio_races += s.portfolio_races;
        self.clauses_imported += s.portfolio_clauses_imported;
        self.batch_rounds += s.batch_rounds;
        self.batch_candidates += s.batch_candidates;
        self.cex_harvested += s.batch_cex_harvested;
        self.cex_dup_dropped += s.cex_dup_dropped;
    }

    /// Records whether a compile raced, and the `synthesize` time spent
    /// outside the winning run (`None` where only the daemon saw it).
    pub fn add_race(&mut self, raced: bool, outside: Option<Duration>) {
        self.raced += u64::from(raced);
        self.outside_s += outside.map_or(0.0, |d| d.as_secs_f64());
    }

    /// The independent output check: `ph_core::fuzz` compares the spec
    /// interpreter with the TCAM machine on grammar-aware and random
    /// packets, and `ph_hw::check_program` re-checks the device limits.
    /// Returns whether the program passed.
    pub fn oracle(&mut self, spec: &ParserSpec, program: &TcamProgram, seed: u64) -> bool {
        let t = Instant::now();
        let cfg = FuzzConfig {
            seed,
            ..FuzzConfig::default()
        };
        let report = fuzz(spec, &[("program", program)], &cfg);
        self.oracle_s += secs(t);
        self.checked += 1;
        self.packets += report.stats.packets;
        self.divergences += report.stats.divergences;
        let violations = ph_hw::check_program(program, &spec.fields);
        if !report.clean() || !violations.is_empty() {
            eprintln!(
                "perfbench: oracle rejects a program: {} divergences, {} device violations",
                report.stats.divergences,
                violations.len()
            );
            return false;
        }
        true
    }

    /// The per-layer metrics, in the order of `BENCHMARK.json`.
    pub fn metrics(&self) -> Vec<(&'static str, f64, &'static str)> {
        let per_call = |x: f64| x / self.front_calls.max(1) as f64;
        let per_op = |x: f64| x / self.ops.max(1) as f64;
        let ratio = |a: f64, b: f64| if b > 0.0 { a / b } else { 0.0 };
        let solver_s = self.synth_s + self.verify_s + self.shrink_s;
        vec![
            ("ir.validate_s", per_call(self.validate_s), "s"),
            ("ir.canon_s", per_call(self.canon_s), "s"),
            ("reduce.time_s", per_call(self.reduce_s), "s"),
            (
                "reduce.spec_states",
                per_call(self.spec_states as f64),
                "count",
            ),
            ("skeleton.time_s", per_call(self.skeleton_s), "s"),
            (
                "skeleton.search_space_bits",
                per_call(self.search_space_bits as f64),
                "bits",
            ),
            ("smt.terms", per_call(self.smt_terms as f64), "count"),
            ("smt.sat_vars", per_call(self.sat_vars as f64), "count"),
            ("smt.gate_vars", per_call(self.gate_vars as f64), "count"),
            ("cegis.synth_s", per_op(self.synth_s), "s"),
            ("cegis.verify_s", per_op(self.verify_s), "s"),
            ("cegis.shrink_s", per_op(self.shrink_s), "s"),
            ("cegis.rest_s", per_op(self.rest_s), "s"),
            ("cegis.iterations", per_op(self.iterations as f64), "count"),
            ("cegis.test_cases", per_op(self.test_cases as f64), "count"),
            (
                "cegis.verify_checks",
                per_op(self.verify_checks as f64),
                "count",
            ),
            (
                "cegis.budget_levels",
                per_op(self.budget_levels as f64),
                "count",
            ),
            ("sat.conflicts", per_op(self.conflicts as f64), "count"),
            ("sat.decisions", per_op(self.decisions as f64), "count"),
            (
                "sat.propagations",
                per_op(self.propagations as f64),
                "count",
            ),
            (
                "sat.props_per_s",
                ratio(self.propagations as f64, solver_s),
                "1/s",
            ),
            ("sat.simplify_s", per_op(self.simplify_s), "s"),
            ("sat.arena_gcs", per_op(self.arena_gcs as f64), "count"),
            ("sat.arena_bytes", per_op(self.arena_bytes as f64), "bytes"),
            (
                "portfolio.races",
                per_op(self.portfolio_races as f64),
                "count",
            ),
            (
                "portfolio.clauses_imported",
                per_op(self.clauses_imported as f64),
                "count",
            ),
            ("batch.rounds", per_op(self.batch_rounds as f64), "count"),
            (
                "batch.candidates",
                per_op(self.batch_candidates as f64),
                "count",
            ),
            (
                "batch.cex_harvested",
                per_op(self.cex_harvested as f64),
                "count",
            ),
            (
                "batch.cex_dup_dropped",
                per_op(self.cex_dup_dropped as f64),
                "count",
            ),
            (
                "batch.useful_frac",
                ratio(
                    self.cex_harvested as f64,
                    self.batch_candidates.saturating_sub(self.batch_rounds) as f64,
                ),
                "ratio",
            ),
            ("parallel.raced_frac", per_op(self.raced as f64), "ratio"),
            ("parallel.outside_s", per_op(self.outside_s), "s"),
            ("svc.cache_lookup_s", per_op(self.cache_lookup_s), "s"),
            (
                "svc.cache_store_s",
                self.cache_store_s / self.stores.max(1) as f64,
                "s",
            ),
            ("svc.codec_s", per_op(self.codec_s), "s"),
            ("svc.hit_frac", per_op(self.hits as f64), "ratio"),
            ("svc.overhead_s", per_op(self.overhead_s), "s"),
            ("svc.dedup_hits", self.dedup_hits as f64, "count"),
            ("svc.rejected", self.rejected as f64, "count"),
            (
                "oracle.packets",
                self.packets as f64 / self.checked.max(1) as f64,
                "count",
            ),
            (
                "oracle.pkts_per_s",
                ratio(self.packets as f64, self.oracle_s),
                "1/s",
            ),
            ("oracle.divergences", self.divergences as f64, "count"),
        ]
    }
}
