//! `compile-small` and `compile-hard`: registry rows compiled back to back
//! through `Synthesizer::synthesize`, one thread, `OptConfig::all()` and
//! default `SynthParams`, in one seeded order repeated for a fixed number
//! of whole passes.

use crate::layers::{races, Layers};
use crate::{peak_rss_mb, stat, Args, Outcome};
use ph_bits::Rng;
use ph_core::{OptConfig, RunHists, Synthesizer};
use ph_hw::{DeviceProfile, TcamProgram};
use ph_ir::ParserSpec;
use ph_obs::Json;
use std::time::{Duration, Instant};

#[derive(Clone, Copy, PartialEq, Eq)]
pub enum Set {
    Small,
    Hard,
}

/// Registry families of `compile-small`, compiled on both devices.
const SMALL_FAMILIES: [&str; 5] = [
    "Parse Ethernet",
    "Parse icmp",
    "Multi-key",
    "Pure Extraction",
    "Dash V2",
];
/// Loopy rows of `compile-small`, Tofino only: on the IPU they time out.
const SMALL_TOFINO_ROWS: [&str; 3] = ["Parse MPLS", "Parse MPLS - R1", "Parse MPLS + R1"];
/// `compile-hard` families, compiled on both devices.  `Sai V1 ± R2`
/// (about 22 s a pass) is left out so one run fits the time budget.
const HARD_FAMILIES: [&str; 1] = ["Large tran key"];
/// The only registry row that fires the SAT portfolio.
const HARD_IPU_ROWS: [&str; 1] = ["Parse MPLS + unroll loop"];

/// The tiny compile that warms up the process during set-up.
const WARM_UP_ROW: &str = "Pure Extraction + state merging";

/// Percentile reported as `compile_s.tail` on `compile-small`; a run
/// compiles enough whole passes for ten compiles to lie beyond it.
const SMALL_TAIL_LEVEL: f64 = 90.0;

/// Nominal seconds of one pass on a 2-core host.  A run compiles
/// `--seconds` ÷ this many whole passes (at least one, and on
/// `compile-small` at least what the tail needs): the sample count follows
/// from the arguments alone, not from how fast the host happens to be.
fn nominal_pass_secs(set: Set) -> u64 {
    match set {
        Set::Small => 5,
        Set::Hard => 20,
    }
}

/// Set-up repetitions; `setup_s` is their median.
const SETUP_REPS: usize = 5;

/// One compile of a pass.
pub struct Job {
    pub name: String,
    pub device: DeviceProfile,
    pub spec: ParserSpec,
}

fn device_name(d: &DeviceProfile) -> &'static str {
    if d.allows_loops() {
        "tofino"
    } else {
        "ipu"
    }
}

/// The workload's compiles in registry order.
pub fn jobs(set: Set) -> Vec<Job> {
    let (families, ipu_only, tofino_only): (&[&str], &[&str], &[&str]) = match set {
        Set::Small => (&SMALL_FAMILIES, &[], &SMALL_TOFINO_ROWS),
        Set::Hard => (&HARD_FAMILIES, &HARD_IPU_ROWS, &[]),
    };
    let mut out = Vec::new();
    for case in ph_benchmarks::registry() {
        let both = families.iter().any(|f| case.name.starts_with(f));
        let name = case.name.as_str();
        for device in [DeviceProfile::tofino(), DeviceProfile::ipu()] {
            let only = if device.allows_loops() {
                tofino_only
            } else {
                ipu_only
            };
            if both || only.contains(&name) {
                out.push(Job {
                    name: case.name.clone(),
                    device,
                    spec: case.spec.clone(),
                });
            }
        }
    }
    out
}

/// Fisher–Yates with the benchmark's seeded generator.
pub fn shuffle<T>(xs: &mut [T], rng: &mut Rng) {
    for i in (1..xs.len()).rev() {
        xs.swap(i, rng.gen_range(0..=i));
    }
}

/// One timed compile.
struct Sample {
    job: usize,
    pass: usize,
    secs: f64,
    result: Result<ph_core::SynthOutput, String>,
}

/// The set-up a user pays before the first compile: build the specs from
/// their P4 sources (registry parse plus rewrites), validate them, and run
/// one tiny compile so lazy process state (allocator, thread stacks) is in
/// place.  Timed `SETUP_REPS` times; returns the jobs and the median.
fn set_up(set: Set) -> Result<(Vec<Job>, f64), String> {
    let mut times = Vec::new();
    let mut built = None;
    for _ in 0..SETUP_REPS {
        let t = Instant::now();
        let jobs = jobs(set);
        for j in &jobs {
            j.spec.validate().map_err(|e| format!("{}: {e}", j.name))?;
        }
        let warm = ph_benchmarks::registry()
            .into_iter()
            .find(|c| c.name == WARM_UP_ROW)
            .ok_or("warm-up row missing from the registry")?;
        Synthesizer::new(DeviceProfile::ipu(), OptConfig::all())
            .synthesize(&warm.spec)
            .map_err(|e| format!("warm-up compile: {e}"))?;
        times.push(t.elapsed().as_secs_f64());
        built = Some(jobs);
    }
    Ok((built.expect("SETUP_REPS > 0"), stat::median(&times)))
}

pub fn run(set: Set, args: &Args) -> Result<Outcome, String> {
    let (jobs, setup_s) = set_up(set)?;
    let mut order: Vec<usize> = (0..jobs.len()).collect();
    shuffle(&mut order, &mut Rng::seed_from_u64(args.seed));
    let tail_passes = match set {
        Set::Small => stat::samples_for(SMALL_TAIL_LEVEL).div_ceil(jobs.len()),
        Set::Hard => 1,
    };
    let passes = ((args.seconds.as_secs() / nominal_pass_secs(set)) as usize).max(tail_passes);

    // Timed region: a fixed number of whole passes.
    let mut samples: Vec<Sample> = Vec::new();
    let mut pass_secs: Vec<f64> = Vec::new();
    for pass in 0..passes {
        let t_pass = Instant::now();
        for &j in &order {
            let synth = Synthesizer::new(jobs[j].device.clone(), OptConfig::all());
            let t = Instant::now();
            let mut result = synth.synthesize(&jobs[j].spec);
            let secs = t.elapsed().as_secs_f64();
            // No metric reads the per-query histograms; drop them so the
            // retained outputs stay small.
            if let Ok(out) = &mut result {
                out.stats.hists = RunHists::default();
            }
            samples.push(Sample {
                job: j,
                pass,
                secs,
                result: result.map_err(|e| e.to_string()),
            });
        }
        pass_secs.push(t_pass.elapsed().as_secs_f64());
    }
    // Read before the checks below, so the peak is the compiler's.
    let peak_rss = peak_rss_mb();

    // Outside the timed region: check every distinct program.
    let mut layers = Layers::default();
    let mut failed = 0u64;
    let mut verdicts: std::collections::HashMap<(usize, String), bool> = Default::default();
    for s in &samples {
        let ok = match &s.result {
            Ok(out) => *verdicts
                .entry((s.job, out.program.to_string()))
                .or_insert_with(|| layers.oracle(&jobs[s.job].spec, &out.program, args.seed)),
            Err(e) => {
                eprintln!(
                    "perfbench: {} on {}: {e}",
                    jobs[s.job].name,
                    device_name(&jobs[s.job].device)
                );
                false
            }
        };
        failed += u64::from(!ok);
    }

    let times: Vec<f64> = samples.iter().map(|s| s.secs).collect();
    let p50 = stat::quantile(&times, 0.5);
    let geomean = stat::geomean(&times);
    let (tail, tail_level) = match set {
        Set::Small => (
            stat::tail(&times, SMALL_TAIL_LEVEL)
                .ok_or("too few compiles for the tail percentile")?,
            format!("p{SMALL_TAIL_LEVEL}"),
        ),
        // Too few compiles for any percentile with ten beyond it.
        Set::Hard => (
            times.iter().copied().fold(0.0, f64::max),
            format!(
                "max: {} compiles leave no percentile with ten beyond it",
                times.len()
            ),
        ),
    };
    let per_s = times.len() as f64 / pass_secs.iter().sum::<f64>();
    // The largest per-pass sum: an exact count, so no estimator touches it.
    let size = |tofino: bool| {
        (0..pass_secs.len())
            .map(|p| {
                samples
                    .iter()
                    .filter(|s| s.pass == p && jobs[s.job].device.allows_loops() == tofino)
                    .filter_map(|s| s.result.as_ref().ok())
                    .map(|o| program_size(&o.program))
                    .sum::<usize>()
            })
            .max()
            .unwrap_or(0) as f64
    };
    let attempted = samples.len() as u64;
    let ok_frac = (attempted - failed) as f64 / attempted as f64;
    let info = Json::obj()
        .with(
            "workload",
            if set == Set::Small {
                "compile-small"
            } else {
                "compile-hard"
            },
        )
        .with("compiles", times.len())
        .with("passes", pass_secs.len())
        .with("compile_s.tail", tail_level)
        .with("setup_reps", SETUP_REPS)
        .with("order_stat", {
            let p50 = stat::order_stat(&times, 0.5);
            let mut o = Json::obj()
                .with("compile_s.p50", p50)
                .with("request_s.p50", p50);
            if set == Set::Small {
                let tail = stat::order_stat(&times, SMALL_TAIL_LEVEL / 100.0);
                o = o.with("compile_s.tail", tail).with("request_s.tail", tail);
            }
            o
        });

    let metrics = if args.trace {
        traced_metrics(&jobs, &samples, &mut layers, geomean, p50)?
    } else {
        vec![
            ("compile_s.p50", p50, "s"),
            ("compile_s.geomean", geomean, "s"),
            ("compile_s.tail", tail, "s"),
            ("programs_per_s", per_s, "1/s"),
            ("tcam_entries.sum", size(true), "count"),
            ("ipu_stages.sum", size(false), "count"),
            ("ok_frac", ok_frac, "ratio"),
            ("peak_rss_mb", peak_rss, "MB"),
            ("setup_s", setup_s, "s"),
            // A library user's request is one `synthesize` call.
            ("request_s.p50", p50, "s"),
            ("request_s.tail", tail, "s"),
            ("requests_per_s", per_s, "1/s"),
        ]
    };
    Ok(Outcome {
        attempted,
        failed,
        metrics,
        info,
    })
}

/// Tofino programs are sized in TCAM entries, IPU programs in stages.
pub fn program_size(p: &TcamProgram) -> usize {
    if p.device.allows_loops() {
        p.entry_count()
    } else {
        p.stages_used()
    }
}

/// Per-layer numbers of a traced run, plus one `detail` line per compile
/// for the repeatability record.
fn traced_metrics(
    jobs: &[Job],
    samples: &[Sample],
    layers: &mut Layers,
    geomean: f64,
    p50: f64,
) -> Result<Vec<(&'static str, f64, &'static str)>, String> {
    for s in samples {
        let job = &jobs[s.job];
        layers.front_end(&job.spec, &job.device)?;
        let Ok(out) = &s.result else { continue };
        layers.ops += 1;
        layers.add_stats(&out.stats);
        let raced = races(&job.spec, &job.device);
        let wall = Duration::from_secs_f64(s.secs);
        layers.add_race(raced, Some(wall.saturating_sub(out.stats.wall)));
        let class = match (job.device.allows_loops(), raced) {
            (false, _) => "ipu",
            (true, false) => "tofino-loopy",
            (true, true) => "tofino-raced",
        };
        let st = &out.stats;
        let (a, b) = (&st.synth_sat, &st.verify_sat);
        println!(
            "detail {}",
            Json::obj()
                .with("pass", s.pass)
                .with("row", job.name.as_str())
                .with("device", device_name(&job.device))
                .with("class", class)
                .with("secs", s.secs)
                .with("size", program_size(&out.program))
                .with("cegis.iterations", st.cegis_iterations)
                .with("cegis.test_cases", st.test_cases)
                .with("cegis.verify_checks", st.verify_checks)
                .with("cegis.budget_levels", st.budget_levels)
                .with("sat.conflicts", a.conflicts + b.conflicts)
                .with("sat.decisions", a.decisions + b.decisions)
                .with("sat.propagations", a.propagations + b.propagations)
                .with("portfolio.races", st.portfolio_races)
                .with("batch.rounds", st.batch_rounds)
                .with("batch.candidates", st.batch_candidates)
                .with("batch.cex_harvested", st.batch_cex_harvested)
                .with("batch.cex_dup_dropped", st.cex_dup_dropped)
        );
    }
    let mut m = layers.metrics();
    m.push(("traced.compile_s.geomean", geomean, "s"));
    m.push(("traced.request_s.p50", p50, "s"));
    Ok(m)
}
