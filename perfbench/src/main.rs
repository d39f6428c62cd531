//! End-to-end and per-layer benchmark of the ParserHawk compiler and its
//! `phd` daemon.  See `perfbench/README.md` for the workloads, the metrics
//! and how each layer number maps onto an end-to-end number.
//!
//! ```text
//! cargo run --release -q --manifest-path perfbench/Cargo.toml -- \
//!     --workload compile-small --seed 1 --seconds 20 --trace 0
//! ```
//!
//! The last stdout line is one JSON object
//! `{"correct", "attempted", "failed", "metrics"}`; `--trace 0` reports the
//! end-to-end metrics, `--trace 1` the per-layer ones.  Earlier lines carry
//! the host fingerprint (`host {...}`), the tail levels used (`info {...}`)
//! and, in traced runs, one `detail {...}` line per compile.

mod compile;
mod layers;
mod phd;

use ph_obs::Json;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Duration;

/// Parsed command line.
struct Args {
    workload: String,
    seed: u64,
    seconds: Duration,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value
                    .parse::<u64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if s == 0 {
                    return Err("--seconds must be at least 1".into());
                }
                seconds = Some(Duration::from_secs(s));
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

/// What one workload run hands back for printing.
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    /// `(name, value, unit)` in print order.
    pub metrics: Vec<(&'static str, f64, &'static str)>,
    /// Sample counts and tail levels behind the timing metrics.
    pub info: Json,
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload <compile-small|compile-hard|phd-mixed> \
                 --seed <n> --seconds <s> --trace <0|1>"
            );
            return ExitCode::from(2);
        }
    };
    // Users run the compiler with defaults: no PH_* override may leak in
    // (PH_BATCH, PH_PORTFOLIO, PH_TRACE, PH_CACHE_DIR, ...).  No other
    // thread exists yet, so clearing the environment is race-free.
    for (k, _) in std::env::vars() {
        if k.starts_with("PH_") {
            std::env::remove_var(&k);
        }
    }
    println!("host {}", host_fingerprint());
    let outcome = match args.workload.as_str() {
        "compile-small" => compile::run(compile::Set::Small, &args),
        "compile-hard" => compile::run(compile::Set::Hard, &args),
        "phd-mixed" => phd::run(&args),
        other => Err(format!("unknown workload {other:?}")),
    };
    let outcome = match outcome {
        Ok(o) => o,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::FAILURE;
        }
    };
    println!("info {}", outcome.info);
    let mut metrics = Json::obj();
    for (name, value, unit) in &outcome.metrics {
        metrics.set(name, Json::obj().with("value", *value).with("unit", *unit));
    }
    println!(
        "{}",
        Json::obj()
            .with("correct", outcome.failed == 0)
            .with("attempted", outcome.attempted)
            .with("failed", outcome.failed)
            .with("metrics", metrics)
    );
    ExitCode::SUCCESS
}

/// Core count, CPU model, source revision and build profile, so runs from
/// different hosts or builds can be told apart.
fn host_fingerprint() -> Json {
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|t| {
            t.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split_once(':'))
                .map(|(_, v)| v.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into());
    Json::obj()
        .with("nproc", cores())
        .with("cpu_model", cpu)
        .with("git_sha", git_sha())
        .with("source_sha256", source_digest())
        .with(
            "profile",
            if cfg!(debug_assertions) {
                "debug"
            } else {
                "release"
            },
        )
}

pub fn cores() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// The checkout root: the parent of this package's directory.
pub fn repo_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .expect("the benchmark package lives one level below the checkout root")
        .to_path_buf()
}

/// `git rev-parse HEAD`, or `"none"` outside a git checkout.
fn git_sha() -> String {
    std::process::Command::new("git")
        .args(["rev-parse", "HEAD"])
        .current_dir(repo_root())
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "none".into())
}

/// SHA-256 over the compiler's and the benchmark's sources (`crates/` and
/// `perfbench/src/`, paths sorted): identifies the code even where the
/// checkout carries no git metadata.
fn source_digest() -> String {
    fn walk(dir: &Path, out: &mut Vec<PathBuf>) {
        let Ok(entries) = std::fs::read_dir(dir) else {
            return;
        };
        for e in entries.flatten() {
            let p = e.path();
            if p.is_dir() {
                walk(&p, out);
            } else if matches!(
                p.extension().and_then(|x| x.to_str()),
                Some("rs") | Some("toml")
            ) {
                out.push(p);
            }
        }
    }
    let root = repo_root();
    let mut files = Vec::new();
    walk(&root.join("crates"), &mut files);
    walk(&root.join("perfbench").join("src"), &mut files);
    files.sort();
    let mut h = ph_bits::sha256::Sha256::new();
    for f in &files {
        h.update(
            f.strip_prefix(&root)
                .unwrap_or(f)
                .to_string_lossy()
                .as_bytes(),
        );
        h.update(&std::fs::read(f).unwrap_or_default());
    }
    h.finish().iter().map(|b| format!("{b:02x}")).collect()
}

/// `VmHWM` of this process in MiB.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|t| {
            t.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map(|kb| kb / 1024.0)
        .unwrap_or(0.0)
}

/// A scratch directory inside the checkout, removed on drop.
pub struct TempDir(pub PathBuf);

impl TempDir {
    pub fn new(tag: &str) -> Result<TempDir, String> {
        let dir = repo_root()
            .join("perfbench")
            .join("tmp")
            .join(format!("{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
        Ok(TempDir(dir))
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// Sorted-sample statistics.
pub mod stat {
    pub fn median(xs: &[f64]) -> f64 {
        quantile(xs, 0.5)
    }

    pub fn geomean(xs: &[f64]) -> f64 {
        if xs.is_empty() {
            return 0.0;
        }
        (xs.iter().map(|x| x.ln()).sum::<f64>() / xs.len() as f64).exp()
    }

    /// Percentile `level` of `xs` (Harrell–Davis), or `None` when fewer
    /// than ten samples lie beyond it: no tail is reported from less.
    pub fn tail(xs: &[f64], level: f64) -> Option<f64> {
        let beyond = xs.len() - ((level / 100.0) * xs.len() as f64).ceil() as usize;
        (beyond >= 10).then(|| quantile(xs, level / 100.0))
    }

    /// Harrell–Davis estimate of quantile `q` (0..1): a Beta-weighted mean
    /// of all order statistics.  It averages the samples near `q`, so on a
    /// small sample (`compile-hard`'s 9 compiles) the median is not one
    /// compile's time; the README's *Noise* section compares its spread
    /// with the plain order statistic's.
    pub fn quantile(xs: &[f64], q: f64) -> f64 {
        let mut v = xs.to_vec();
        v.sort_by(f64::total_cmp);
        let n = v.len() as f64;
        let (a, b) = (q * (n + 1.0), (1.0 - q) * (n + 1.0));
        let mut prev = 0.0;
        let mut sum = 0.0;
        for (i, x) in v.iter().enumerate() {
            let cdf = inc_beta(a, b, (i + 1) as f64 / n);
            sum += (cdf - prev) * x;
            prev = cdf;
        }
        sum
    }

    /// Regularized incomplete beta function I_x(a, b), by the continued
    /// fraction of Numerical Recipes §6.4.
    fn inc_beta(a: f64, b: f64, x: f64) -> f64 {
        if x <= 0.0 {
            return 0.0;
        }
        if x >= 1.0 {
            return 1.0;
        }
        let front =
            (ln_gamma(a + b) - ln_gamma(a) - ln_gamma(b) + a * x.ln() + b * (1.0 - x).ln()).exp();
        if x < (a + 1.0) / (a + b + 2.0) {
            front * beta_cf(a, b, x) / a
        } else {
            1.0 - front * beta_cf(b, a, 1.0 - x) / b
        }
    }

    fn beta_cf(a: f64, b: f64, x: f64) -> f64 {
        const TINY: f64 = 1e-300;
        let (qab, qap, qam) = (a + b, a + 1.0, a - 1.0);
        let mut c = 1.0;
        let mut d = 1.0 - qab * x / qap;
        d = 1.0 / if d.abs() < TINY { TINY } else { d };
        let mut h = d;
        for m in 1..1000 {
            let m = m as f64;
            let m2 = 2.0 * m;
            for aa in [
                m * (b - m) * x / ((qam + m2) * (a + m2)),
                -(a + m) * (qab + m) * x / ((a + m2) * (qap + m2)),
            ] {
                d = 1.0 + aa * d;
                d = 1.0 / if d.abs() < TINY { TINY } else { d };
                c = 1.0 + aa / c;
                if c.abs() < TINY {
                    c = TINY;
                }
                h *= d * c;
            }
            if (d * c - 1.0).abs() < 1e-12 {
                break;
            }
        }
        h
    }

    /// ln Γ(x) for x > 0 (Lanczos, g = 7).
    fn ln_gamma(x: f64) -> f64 {
        const C: [f64; 9] = [
            0.999_999_999_999_809_9,
            676.520_368_121_885_1,
            -1_259.139_216_722_402_8,
            771.323_428_777_653_1,
            -176.615_029_162_140_6,
            12.507_343_278_686_905,
            -0.138_571_095_265_720_12,
            9.984_369_578_019_572e-6,
            1.505_632_735_149_311_6e-7,
        ];
        let x = x - 1.0;
        let t = x + 7.5;
        let s = C[1..]
            .iter()
            .enumerate()
            .fold(C[0], |s, (i, c)| s + c / (x + i as f64 + 1.0));
        0.5 * (2.0 * std::f64::consts::PI).ln() + (x + 0.5) * t.ln() - t + s.ln()
    }

    /// Quantile `q` (0..1) as the plain order statistic, interpolated
    /// linearly between the two nearest samples.  Printed beside the
    /// Harrell–Davis value so `tools/runs.py` can compare the two
    /// estimators' spreads on the same runs.
    pub fn order_stat(xs: &[f64], q: f64) -> f64 {
        let mut v = xs.to_vec();
        v.sort_by(f64::total_cmp);
        if v.is_empty() {
            return 0.0;
        }
        let pos = q * (v.len() - 1) as f64;
        let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
        v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
    }

    /// Samples a tail at `level` needs (ten beyond it).
    pub fn samples_for(level: f64) -> usize {
        (10.0 / (1.0 - level / 100.0)).ceil() as usize
    }
}
