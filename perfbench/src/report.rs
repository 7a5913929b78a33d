//! The metrics a run reports, their units, and the result line.

use crate::stats::valid_metric_name;
use serde_json::Value;

/// End-to-end metrics: every workload reports each of them untraced.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("throughput_pairs_per_s", "pairs/s"),
    ("p50_ms", "ms"),
    ("p99_ms", "ms"),
    ("ok_frac", "frac"),
    ("peak_rss_mib", "MiB"),
];

/// Per-layer metrics: every traced run reports each of them. A layer a
/// workload does not run reads 0 and is listed under `not_on_path` in
/// the provenance line.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("quality.f1", "frac"),
    ("loadgen.late_p99_ms", "ms"),
    ("gateway.server_p50_ms", "ms"),
    ("gateway.server_p99_ms", "ms"),
    ("gateway.client_gap_ms", "ms"),
    ("gateway.parse_us", "us"),
    ("tokenize.us_per_pair", "us"),
    ("tokenize.tokens_per_pair", "tokens"),
    ("serve.queue_wait_p99_ms", "ms"),
    ("serve.batch_wait_p50_ms", "ms"),
    ("serve.forward_p50_ms", "ms"),
    ("serve.forward_p99_ms", "ms"),
    ("serve.pairs_per_batch", "pairs"),
    ("serve.batch_fill", "frac"),
    ("serve.shed", "count"),
    ("serve.timeouts", "count"),
    ("serve.retries", "count"),
    ("serve.worker_restarts", "count"),
    ("serve.match_rate", "frac"),
    ("forward.us_per_pair", "us"),
    ("forward.gflops", "GFLOP/s"),
    ("forward.direct_us", "us"),
    ("graph.plan_cache_hit_rate", "frac"),
    ("block.index_build_s", "s"),
    ("block.probe_us_per_row", "us"),
    ("block.candidates", "count"),
    ("block.recall", "frac"),
    ("block.reduction", "frac"),
    ("pipeline.row_us", "us"),
    ("pipeline.submit_us", "us"),
    ("pipeline.wait_us", "us"),
    ("pipeline.self_s", "s"),
    ("finetune.encode_s", "s"),
    ("train.forward_s", "s"),
    ("train.backward_s", "s"),
    ("train.step_s", "s"),
    ("finetune.eval_s", "s"),
    ("train.padding_eff", "frac"),
    ("cpu_s_per_kpair", "s"),
    ("tracing_overhead_frac", "frac"),
    ("unattributed_frac", "frac"),
];

/// What one run found: metric values, the checks it made, and context.
#[derive(Default)]
pub struct Report {
    pub attempted: u64,
    pub failed: u64,
    metrics: Vec<(&'static str, f64)>,
    /// Check name and, when it failed, why.
    checks: Vec<(String, Option<String>)>,
    /// Samples behind each percentile metric.
    samples: Vec<(String, Value)>,
    /// Workload facts that are not metrics (curves, counts, sizes).
    facts: Vec<(String, Value)>,
}

impl Report {
    /// Record a metric; its name must be declared in [`END_TO_END`] or
    /// [`PER_LAYER`].
    pub fn metric(&mut self, name: &'static str, value: f64) {
        assert!(unit_of(name).is_some(), "undeclared metric {name}");
        self.metrics.retain(|(n, _)| *n != name);
        self.metrics.push((name, value));
    }

    /// Record a percentile metric with the number of samples behind it.
    pub fn percentile(&mut self, name: &'static str, value: f64, samples: usize) {
        self.metric(name, value);
        self.samples
            .push((name.into(), Value::UInt(samples as u64)));
    }

    /// Record an output check; a check made again keeps its first
    /// failure.
    pub fn check(&mut self, name: &str, ok: bool, detail: impl FnOnce() -> String) {
        let why = (!ok).then(detail);
        if let Some(w) = &why {
            eprintln!("perfbench: check failed: {name}: {w}");
        }
        match self.checks.iter_mut().find(|(n, _)| n == name) {
            Some((_, earlier)) => {
                if earlier.is_none() {
                    *earlier = why;
                }
            }
            None => self.checks.push((name.into(), why)),
        }
    }

    /// Report every per-layer metric this workload's path does not run
    /// as 0, and name them in the provenance line.
    pub fn fill_not_on_path(&mut self) {
        let absent: Vec<&'static str> = PER_LAYER
            .iter()
            .map(|&(n, _)| n)
            .filter(|n| !self.metrics.iter().any(|(m, _)| m == n))
            .collect();
        for &name in &absent {
            self.metric(name, 0.0);
        }
        let names = absent.iter().map(|n| Value::Str(n.to_string())).collect();
        self.fact("not_on_path", Value::Array(names));
    }

    pub fn fact(&mut self, name: &str, value: Value) {
        self.facts.push((name.into(), value));
    }

    pub fn correct(&self) -> bool {
        self.checks.iter().all(|(_, why)| why.is_none())
    }

    /// Print the provenance line, then the result line, to stdout.
    /// Returns whether every check passed and every metric of the mode
    /// was reported.
    pub fn emit(mut self, mut provenance: Vec<(String, Value)>, trace: bool) -> bool {
        self.check(
            "metric names follow the result grammar",
            declarations_valid(),
            || "an invalid or repeated name is declared".into(),
        );
        let declared = if trace { PER_LAYER } else { END_TO_END };
        let missing: Vec<&str> = declared
            .iter()
            .map(|&(n, _)| n)
            .filter(|n| !self.metrics.iter().any(|(m, _)| m == n))
            .collect();
        self.check("every metric reported", missing.is_empty(), || {
            format!("missing {missing:?}")
        });
        let infinite: Vec<&str> = self
            .metrics
            .iter()
            .filter(|(_, v)| !v.is_finite())
            .map(|&(n, _)| n)
            .collect();
        self.check("every metric finite", infinite.is_empty(), || {
            format!("{infinite:?}")
        });
        let checks = self
            .checks
            .iter()
            .map(|(n, why)| {
                (
                    n.clone(),
                    why.clone().map_or(Value::Str("ok".into()), Value::Str),
                )
            })
            .collect();
        provenance.push(("samples".into(), Value::Object(self.samples.clone())));
        provenance.push(("checks".into(), Value::Object(checks)));
        provenance.push(("facts".into(), Value::Object(self.facts.clone())));
        let line = |v: Value| serde_json::to_string(&v).expect("JSON renders");
        println!("{}", line(Value::Object(provenance)));

        let correct = self.correct();
        let metrics = declared
            .iter()
            .filter_map(|&(name, unit)| {
                let v = self.metrics.iter().find(|(m, _)| *m == name)?.1;
                let entry = vec![
                    ("value".into(), Value::Float(v)),
                    ("unit".into(), Value::Str(unit.into())),
                ];
                Some((name.to_string(), Value::Object(entry)))
            })
            .collect();
        println!(
            "{}",
            line(Value::Object(vec![
                ("correct".into(), Value::Bool(correct)),
                ("attempted".into(), Value::UInt(self.attempted.max(1))),
                ("failed".into(), Value::UInt(self.failed)),
                ("metrics".into(), Value::Object(metrics)),
            ]))
        );
        correct
    }
}

fn unit_of(name: &str) -> Option<&'static str> {
    END_TO_END
        .iter()
        .chain(PER_LAYER)
        .find(|(n, _)| *n == name)
        .map(|&(_, u)| u)
}

/// Every declared name is valid and used once.
pub fn declarations_valid() -> bool {
    let all: Vec<&str> = END_TO_END
        .iter()
        .chain(PER_LAYER)
        .map(|&(n, _)| n)
        .collect();
    all.iter().all(|n| valid_metric_name(n))
        && all.iter().enumerate().all(|(i, n)| !all[..i].contains(n))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn declarations_are_valid_and_distinct() {
        assert!(declarations_valid());
    }

    /// The metric tables here and `BENCHMARK.json` at the repository root
    /// describe the same metrics, in the same order, with the same units.
    #[test]
    fn declarations_match_the_benchmark_manifest() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let raw = std::fs::read_to_string(path).expect("BENCHMARK.json beside the benchmark");
        let manifest: Value = serde_json::from_str(&raw).expect("manifest parses");
        let listed = |key: &str| -> Vec<(String, String)> {
            manifest
                .get_field(key)
                .and_then(Value::as_array)
                .expect("metric list")
                .iter()
                .map(|m| {
                    let s = |f: &str| m.get_field(f).and_then(Value::as_str).unwrap().to_string();
                    (s("name"), s("unit"))
                })
                .collect()
        };
        let ours = |t: &[(&str, &str)]| -> Vec<(String, String)> {
            t.iter().map(|&(n, u)| (n.into(), u.into())).collect()
        };
        assert_eq!(listed("end_to_end"), ours(END_TO_END));
        assert_eq!(listed("per_layer"), ours(PER_LAYER));
    }
}
