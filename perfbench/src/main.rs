//! `perfbench`: the repository's end-to-end benchmark.
//!
//! ```text
//! perfbench --workload <match-http|dedup-serve|dedup-jaccard|finetune>
//!           --seed <n> --seconds <s> --trace <0|1> --gateway-bin <path>
//! ```
//!
//! Normally started through `perfbench/run.sh`, which builds this binary
//! and the `em-gateway` binary from source first. Each workload builds
//! its state three times and reports the median build as `setup_s`,
//! measures for about `--seconds`, checks the program's outputs, and
//! prints two JSON lines to stdout: provenance (revision, host, sample
//! counts, checks, workload facts), then the result line. `--trace 0`
//! reports the end-to-end metrics; `--trace 1` turns on em-obs, times
//! the calls into each layer and reports the per-layer metrics. The exit
//! code is non-zero when any output check fails.

mod dedup;
mod finetune;
mod flops;
mod host;
mod match_http;
mod model;
mod report;
mod stats;

use report::Report;
use std::path::PathBuf;
use std::time::{Duration, Instant};

/// Set-ups per run; the median is `setup_s`.
const SETUPS: usize = 3;

/// Options every workload receives.
pub struct Opts {
    pub seed: u64,
    pub seconds: Duration,
    pub trace: bool,
    pub gateway_bin: PathBuf,
    /// Scratch directory inside the checkout, removed at exit.
    pub work: PathBuf,
}

/// Build a workload's state `SETUPS` times, keep the last, and return
/// it with the median build time in seconds.
pub fn timed_setups<T>(mut build: impl FnMut() -> Result<T, String>) -> Result<(T, f64), String> {
    let mut times = Vec::with_capacity(SETUPS);
    let mut kept = None;
    for _ in 0..SETUPS {
        drop(kept.take());
        let t0 = Instant::now();
        kept = Some(build()?);
        times.push(t0.elapsed().as_secs_f64());
    }
    Ok((kept.expect("at least one set-up"), stats::median(&times)))
}

fn arg(args: &[String], name: &str) -> Result<String, String> {
    args.iter()
        .position(|a| a == name)
        .and_then(|i| args.get(i + 1))
        .cloned()
        .ok_or_else(|| format!("missing {name}"))
}

fn parse_opts(args: &[String]) -> Result<(String, Opts), String> {
    let workload = arg(args, "--workload")?;
    let seed = arg(args, "--seed")?
        .parse()
        .map_err(|e| format!("--seed: {e}"))?;
    let seconds: u64 = arg(args, "--seconds")?
        .parse()
        .map_err(|e| format!("--seconds: {e}"))?;
    let trace = match arg(args, "--trace")?.as_str() {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace must be 0 or 1, not {other:?}")),
    };
    let gateway_bin = PathBuf::from(arg(args, "--gateway-bin")?);
    let work = PathBuf::from(".bench_work").join(format!("{workload}-{}", std::process::id()));
    let opts = Opts {
        seed,
        seconds: Duration::from_secs(seconds.max(1)),
        trace,
        gateway_bin,
        work,
    };
    Ok((workload, opts))
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (workload, opts) = match parse_opts(&args) {
        Ok(v) => v,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    if let Err(e) = std::fs::create_dir_all(&opts.work) {
        eprintln!("perfbench: cannot create {}: {e}", opts.work.display());
        std::process::exit(2);
    }
    if opts.trace {
        em_obs::set_level(em_obs::LEVEL_AGGREGATE);
    } else {
        em_obs::set_level(em_obs::LEVEL_OFF);
    }
    let provenance = host::provenance(&workload, opts.seed, opts.trace);
    let mut report = Report::default();
    let outcome = match workload.as_str() {
        "match-http" => match_http::run(&opts, &mut report),
        "dedup-serve" => dedup::run(dedup::Variant::Serve, &opts, &mut report),
        "dedup-jaccard" => dedup::run(dedup::Variant::Jaccard, &opts, &mut report),
        "finetune" => finetune::run(&opts, &mut report),
        other => Err(format!("unknown workload {other:?}")),
    };
    let _ = std::fs::remove_dir_all(&opts.work);
    if let Err(e) = outcome {
        eprintln!("perfbench: {workload}: {e}");
        std::process::exit(1);
    }
    if !report.emit(provenance, opts.trace) {
        std::process::exit(1);
    }
}
