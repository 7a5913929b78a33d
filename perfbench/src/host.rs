//! Facts about the host and processes: provenance, memory, CPU time.

use serde_json::Value;
use std::process::Command;

/// `VmHWM` (peak resident set) of a process in MiB, from
/// `/proc/<pid>/status`.
pub fn peak_rss_mib(pid: &str) -> Option<f64> {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status")).ok()?;
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))?
        .split_whitespace()
        .next()?
        .parse()
        .ok()?;
    Some(kb / 1024.0)
}

/// User plus system CPU seconds a process has used, all threads, from
/// `/proc/<pid>/stat` (clock ticks at the usual 100 Hz).
pub fn cpu_seconds(pid: &str) -> Option<f64> {
    let stat = std::fs::read_to_string(format!("/proc/{pid}/stat")).ok()?;
    // Fields after the parenthesised command name; utime and stime are
    // fields 14 and 15 of the whole line.
    let rest = &stat[stat.rfind(')')? + 2..];
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let utime: f64 = fields.get(11)?.parse().ok()?;
    let stime: f64 = fields.get(12)?.parse().ok()?;
    Some((utime + stime) / 100.0)
}

/// Clock ticks (100 Hz, summed over CPUs) the hypervisor has given to
/// other guests while this machine wanted to run: the `steal` column of
/// the aggregate `cpu` line of `/proc/stat`.
pub fn steal_ticks() -> Option<u64> {
    let stat = std::fs::read_to_string("/proc/stat").ok()?;
    let cpu = stat.lines().next()?.strip_prefix("cpu ")?;
    cpu.split_whitespace().nth(7)?.parse().ok()
}

/// Provenance for a result: code revision, CPU, SIMD, threads and the
/// observability level.
pub fn provenance(workload: &str, seed: u64, trace: bool) -> Vec<(String, Value)> {
    let cpuinfo = std::fs::read_to_string("/proc/cpuinfo").unwrap_or_default();
    let cpu = cpuinfo
        .lines()
        .find_map(|l| l.strip_prefix("model name"))
        .map(|l| l.trim_start_matches([' ', '\t', ':']).to_string())
        .unwrap_or_else(|| "unknown".into());
    let wanted = [
        "sse4_2",
        "avx",
        "avx2",
        "fma",
        "avx512f",
        "avx512bw",
        "avx512vl",
        "avx512_vnni",
        "avx512_bf16",
        "avx512_fp16",
        "avx_vnni",
    ];
    let flags: Vec<&str> = cpuinfo
        .lines()
        .find_map(|l| l.strip_prefix("flags"))
        .map(|l| {
            l.split_whitespace()
                .filter(|f| wanted.contains(f))
                .collect()
        })
        .unwrap_or_default();
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let env = |k: &str| Value::Str(std::env::var(k).unwrap_or_default());
    vec![
        ("workload".into(), Value::Str(workload.into())),
        ("seed".into(), Value::UInt(seed)),
        ("trace".into(), Value::Bool(trace)),
        ("rev".into(), Value::Str(git_rev())),
        ("cpu".into(), Value::Str(cpu)),
        ("simd_flags".into(), Value::Str(flags.join(" "))),
        (
            "gemm_kernel".into(),
            Value::Str(em_kernels::simd_kind().into()),
        ),
        ("nproc".into(), Value::UInt(nproc as u64)),
        ("EM_THREADS".into(), env("EM_THREADS")),
        ("EM_OBS".into(), env("EM_OBS")),
        (
            "em_obs_level".into(),
            Value::UInt(u64::from(em_obs::level())),
        ),
    ]
}

/// The checked-out revision, or `unknown` outside a git checkout.
fn git_rev() -> String {
    Command::new("git")
        .args(["rev-parse", "--short=12", "HEAD"])
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".into())
}
