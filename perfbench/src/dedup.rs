//! `dedup-serve` and `dedup-jaccard`: table in, matches out, through
//! `DedupPipeline` with the token blocker.
//!
//! Both variants materialise two `CatalogTables` tables during set-up
//! (generating rows on the fly would put em-data's row generator in the
//! timed region) and then run the pipeline pass after pass, each pass
//! probing the next slice of table A against all of table B, until the
//! window is over.
//!
//! - dedup-serve scores with `ServeMatcher` (the gateway's model,
//!   default `ServeConfig`): serving in throughput mode, where buckets
//!   fill and the forward is most of the wall time.
//! - dedup-jaccard scores with `JaccardScorer` over millions of
//!   candidates: no forward at all, so the timed region is em-block's
//!   index build, probe, row fetch, scoring and fsync'd sink. A forward
//!   change should move nothing here.

use crate::flops::forward_flops;
use crate::report::Report;
use crate::stats::{mean, median, median_percentile, obs_quantile};
use crate::{host, model, timed_setups, Opts};
use em_block::{
    read_matches, BlockIndex, BlockerConfig, BlockingEval, CandidateStream, DedupPipeline,
    JaccardScorer, MatchDecision, PairScorer, PipelineConfig, PipelineError, ProbeScratch, Row,
    TableSource,
};
use em_data::CatalogTables;
use em_serve::{FrozenMatcher, ServeConfig, ServeMatcher};
use em_transformers::Batch;
use serde_json::Value;
use std::cell::Cell;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

#[derive(Clone, Copy, PartialEq, Eq)]
pub enum Variant {
    Serve,
    Jaccard,
}

struct Sizes {
    rows_a: u32,
    rows_b: u32,
    /// Table-A rows probed per pipeline pass.
    slice: u32,
}

impl Variant {
    fn sizes(self) -> Sizes {
        match self {
            Variant::Serve => Sizes {
                rows_a: 12_000,
                rows_b: 12_000,
                slice: 2_000,
            },
            Variant::Jaccard => Sizes {
                rows_a: 400_000,
                rows_b: 400_000,
                slice: 100_000,
            },
        }
    }
}

/// The pipeline's production blocker: one shared rare token, with tokens
/// in more than 0.02 % of B's rows stop-worded out.
pub fn blocker() -> BlockerConfig {
    BlockerConfig::Token {
        min_shared: 1,
        stop_fraction: 0.0002,
    }
}

/// A table held in memory.
pub struct VecTable(pub Vec<Row>);

impl TableSource for VecTable {
    fn len(&self) -> u32 {
        self.0.len() as u32
    }

    fn row(&self, i: u32) -> Row {
        self.0[i as usize].clone()
    }
}

impl TableSource for &VecTable {
    fn len(&self) -> u32 {
        (*self).len()
    }

    fn row(&self, i: u32) -> Row {
        (*self).row(i)
    }
}

/// Rows `lo..hi` of a table, keeping their ids.
struct Slice<'a> {
    table: &'a VecTable,
    lo: u32,
    hi: u32,
}

impl TableSource for Slice<'_> {
    fn len(&self) -> u32 {
        self.hi - self.lo
    }

    fn row(&self, i: u32) -> Row {
        self.table.row(self.lo + i)
    }
}

/// Notes when each probe row is fetched: the pipeline fetches probe row
/// `i` once, when it starts on it, so the gaps are per-row latencies.
struct RowClock<T> {
    inner: T,
    fetched: Mutex<Vec<Instant>>,
}

impl<T: TableSource> RowClock<T> {
    fn new(inner: T) -> Self {
        let rows = inner.len() as usize;
        Self {
            inner,
            fetched: Mutex::new(Vec::with_capacity(rows)),
        }
    }
}

impl<T: TableSource> TableSource for RowClock<T> {
    fn len(&self) -> u32 {
        self.inner.len()
    }

    fn row(&self, i: u32) -> Row {
        self.fetched
            .lock()
            .expect("row clock poisoned by a panicking fetch")
            .push(Instant::now());
        self.inner.row(i)
    }
}

/// Times every row fetch of the table it wraps (traced runs only).
/// Counters are plain statistics, so `Relaxed` suffices.
struct TimedTable<T> {
    inner: T,
    nanos: AtomicU64,
    calls: AtomicU64,
}

impl<T> TimedTable<T> {
    fn new(inner: T) -> Self {
        Self {
            inner,
            nanos: AtomicU64::new(0),
            calls: AtomicU64::new(0),
        }
    }

    fn seconds(&self) -> f64 {
        self.nanos.load(Ordering::Relaxed) as f64 / 1e9
    }
}

impl<T: TableSource> TableSource for TimedTable<T> {
    fn len(&self) -> u32 {
        self.inner.len()
    }

    fn row(&self, i: u32) -> Row {
        let t = Instant::now();
        let row = self.inner.row(i);
        self.nanos
            .fetch_add(t.elapsed().as_nanos() as u64, Ordering::Relaxed);
        self.calls.fetch_add(1, Ordering::Relaxed);
        row
    }
}

/// Times every `submit` and `wait` of the scorer it wraps (traced runs
/// only).
struct TimedScorer<'a, S> {
    inner: &'a S,
    submit: Cell<Duration>,
    wait: Cell<Duration>,
    calls: Cell<u64>,
}

impl<'a, S> TimedScorer<'a, S> {
    fn new(inner: &'a S) -> Self {
        Self {
            inner,
            submit: Cell::new(Duration::ZERO),
            wait: Cell::new(Duration::ZERO),
            calls: Cell::new(0),
        }
    }
}

impl<S: PairScorer> PairScorer for TimedScorer<'_, S> {
    type Ticket = S::Ticket;

    fn submit(&self, left: &str, right: &str) -> Result<S::Ticket, PipelineError> {
        let t = Instant::now();
        let ticket = self.inner.submit(left, right);
        self.submit.set(self.submit.get() + t.elapsed());
        self.calls.set(self.calls.get() + 1);
        ticket
    }

    fn wait(&self, ticket: S::Ticket) -> Result<f32, PipelineError> {
        let t = Instant::now();
        let score = self.inner.wait(ticket);
        self.wait.set(self.wait.get() + t.elapsed());
        score
    }
}

/// Everything set-up builds: the tables and, for dedup-serve, the
/// started matcher.
struct State {
    tables: CatalogTables,
    a: VecTable,
    b: VecTable,
    matcher: Option<ServeMatcher>,
}

/// Generate every row once, on two threads.
fn materialise(n: u32, row: impl Fn(u32) -> Row + Sync) -> VecTable {
    let mid = n / 2;
    let (lo, hi) = std::thread::scope(|s| {
        let lo = s.spawn(|| (0..mid).map(&row).collect::<Vec<_>>());
        let hi = s.spawn(|| (mid..n).map(&row).collect::<Vec<_>>());
        (
            lo.join().expect("row generator panicked"),
            hi.join().expect("row generator panicked"),
        )
    });
    let mut rows = lo;
    rows.extend(hi);
    VecTable(rows)
}

fn setup(variant: Variant, sizes: &Sizes, seed: u64) -> State {
    let tables = CatalogTables::new(sizes.rows_a, sizes.rows_b, seed);
    let a = materialise(sizes.rows_a, |i| tables.row_a(i));
    let b = materialise(sizes.rows_b, |j| tables.row_b(j));
    let matcher = (variant == Variant::Serve)
        .then(|| ServeMatcher::start(model::gateway_default(), ServeConfig::default()));
    State {
        tables,
        a,
        b,
        matcher,
    }
}

/// What a run of passes measured.
#[derive(Default)]
struct Phase {
    passes: u64,
    rows: u64,
    pairs: u64,
    matches: u64,
    /// Pipeline wall time summed over passes.
    wall: f64,
    /// Per pass: pairs per second, and each probe row's latency.
    pass_rates: Vec<f64>,
    row_latency_ms: Vec<Vec<f64>>,
    true_matches: u64,
    gold: u64,
    /// Decisions kept for the score check: (a id, b id, score).
    sampled: Vec<MatchDecision>,
    wrapped: Wrapped,
    /// Output checks that failed, with the pass they failed in.
    broken: Vec<String>,
}

struct Ctx<'a> {
    state: &'a State,
    slice: u32,
    /// Gold pairs per A slice.
    gold: Vec<u64>,
    work: &'a Path,
}

impl Ctx<'_> {
    fn slices(&self) -> u32 {
        self.state.a.len() / self.slice
    }
}

/// Gold pairs whose A row falls in each slice: one pass over B.
fn gold_per_slice(tables: &CatalogTables, slice: u32, slices: u32) -> Vec<u64> {
    let mut gold = vec![0u64; slices as usize];
    for j in 0..tables.len_b() {
        let e = tables.b_entity(j);
        if e < u64::from(tables.len_a()) {
            if let Some(g) = gold.get_mut((e / u64::from(slice)) as usize) {
                *g += 1;
            }
        }
    }
    gold
}

/// Minimum batches behind the traced forward percentiles (a p99 needs
/// ten beyond it).
const TRACED_BATCHES: u64 = 1100;

/// Run pipeline passes for at least `window`. A traced phase also runs
/// until the matcher has made enough forwards for a p99 (at most four
/// windows).
fn run_passes<S: PairScorer>(
    ctx: &Ctx,
    scorer: &S,
    window: Duration,
    traced: bool,
    first_pass: u64,
) -> Result<Phase, String> {
    let mut phase = Phase::default();
    let start = Instant::now();
    let forwards = || em_obs::histogram_snapshot("serve/forward").map_or(0, |h| h.count);
    let more = |phase: &Phase| {
        let elapsed = start.elapsed();
        phase.passes == 0
            || elapsed < window
            || (traced
                && ctx.state.matcher.is_some()
                && forwards() < TRACED_BATCHES
                && elapsed < 4 * window)
    };
    while more(&phase) {
        let k = first_pass + phase.passes;
        let idx = (k % u64::from(ctx.slices())) as u32;
        let out = ctx.work.join(format!("decisions-{k}.jsonl"));
        let pass = pipeline_pass(ctx, scorer, idx, &out, traced);
        let (result, fetched, end, t0) = (pass.result, pass.fetched, pass.end, pass.start);
        let threshold = pass.threshold;
        phase.wrapped.add(pass.wrapped);
        let report = result.map_err(|e| format!("pipeline pass {k}: {e}"))?;
        phase.wall += (end - t0).as_secs_f64();
        phase.passes += 1;
        phase.rows += fetched.len() as u64;
        phase.pairs += report.pairs_scored;
        phase.matches += report.matches;
        phase
            .pass_rates
            .push(report.pairs_scored as f64 / (end - t0).as_secs_f64());
        let next = fetched.iter().skip(1).copied().chain([end]);
        let latency = fetched
            .iter()
            .zip(next)
            .map(|(&t, until)| (until - t).as_secs_f64() * 1e3);
        phase.row_latency_ms.push(latency.collect());

        let decisions = read_matches(&out).map_err(|e| format!("re-reading decisions: {e}"))?;
        if !report.completed || fetched.len() as u32 != ctx.slice {
            phase
                .broken
                .push(format!("pass {k} did not probe every row"));
        }
        if decisions.len() as u64 != report.matches {
            phase.broken.push(format!(
                "pass {k}: {} decisions on file, report says {}",
                decisions.len(),
                report.matches
            ));
        }
        if let Some(d) = decisions.iter().find(|d| d.score <= threshold) {
            phase
                .broken
                .push(format!("pass {k}: decision {d:?} not above {threshold}"));
        }
        let tables = &ctx.state.tables;
        phase.true_matches += decisions
            .iter()
            .filter(|d| tables.is_match(d.a_id as u32, d.b_id as u32))
            .count() as u64;
        phase.gold += ctx.gold[idx as usize];
        let stride = (decisions.len() / 16).max(1);
        phase
            .sampled
            .extend(decisions.iter().step_by(stride).copied());
        let _ = std::fs::remove_file(&out);
        let mut progress = out.into_os_string();
        progress.push(".progress");
        let _ = std::fs::remove_file(progress);
    }
    Ok(phase)
}

/// Time inside the wrapped calls of traced passes.
#[derive(Default, Clone, Copy)]
struct Wrapped {
    fetch_s: f64,
    fetches: u64,
    submit_s: f64,
    wait_s: f64,
    submits: u64,
}

impl Wrapped {
    fn add(&mut self, o: Wrapped) {
        self.fetch_s += o.fetch_s;
        self.fetches += o.fetches;
        self.submit_s += o.submit_s;
        self.wait_s += o.wait_s;
        self.submits += o.submits;
    }
}

/// One pipeline run and what the wrappers saw of it.
struct Pass {
    result: Result<em_block::PipelineReport, PipelineError>,
    threshold: f32,
    /// When each probe row was fetched.
    fetched: Vec<Instant>,
    start: Instant,
    end: Instant,
    wrapped: Wrapped,
}

/// Probe slice `idx` of table A against table B, writing decisions to
/// `out`. Traced passes wrap both tables and the scorer in timers.
fn pipeline_pass<S: PairScorer>(ctx: &Ctx, scorer: &S, idx: u32, out: &Path, traced: bool) -> Pass {
    let lo = idx * ctx.slice;
    let slice = Slice {
        table: &ctx.state.a,
        lo,
        hi: lo + ctx.slice,
    };
    let config = PipelineConfig::new(blocker(), out);
    let threshold = config.threshold;
    let pipeline = DedupPipeline::new(config);
    if traced {
        let probe = RowClock::new(TimedTable::new(slice));
        let b = TimedTable::new(&ctx.state.b);
        let timed = TimedScorer::new(scorer);
        let start = Instant::now();
        let result = pipeline.run(&probe, &b, &timed);
        let end = Instant::now();
        let wrapped = Wrapped {
            fetch_s: probe.inner.seconds() + b.seconds(),
            fetches: probe.inner.calls.load(Ordering::Relaxed) + b.calls.load(Ordering::Relaxed),
            submit_s: timed.submit.get().as_secs_f64(),
            wait_s: timed.wait.get().as_secs_f64(),
            submits: timed.calls.get(),
        };
        Pass {
            result,
            threshold,
            start,
            end,
            wrapped,
            fetched: probe.fetched.into_inner().expect("row clock"),
        }
    } else {
        let probe = RowClock::new(slice);
        let start = Instant::now();
        let result = pipeline.run(&probe, &ctx.state.b, scorer);
        let end = Instant::now();
        Pass {
            result,
            threshold,
            start,
            end,
            wrapped: Wrapped::default(),
            fetched: probe.fetched.into_inner().expect("row clock"),
        }
    }
}

/// Scores the pipeline wrote must be the scorer's: exactly for Jaccard,
/// within 1e-5 of the frozen model for the served transformer.
fn check_scores(state: &State, phase: &Phase, report: &mut Report) {
    let text = |t: &VecTable, id: u64| t.0[id as usize].text.clone();
    let mut worst = 0.0f32;
    for d in &phase.sampled {
        let (l, r) = (text(&state.a, d.a_id), text(&state.b, d.b_id));
        let oracle = match &state.matcher {
            Some(m) => m.frozen().score_encodings(&[m.encode_text(&l, &r)])[0],
            None => JaccardScorer::default()
                .submit(&l, &r)
                .expect("Jaccard scoring cannot fail"),
        };
        worst = worst.max((oracle - d.score).abs());
    }
    let tol = if state.matcher.is_some() { 1e-5 } else { 0.0 };
    report.check(
        "pipeline scores equal the scorer's own (sampled)",
        !phase.sampled.is_empty() && worst <= tol,
        || format!("{} samples, max deviation {worst}", phase.sampled.len()),
    );
}

fn f1(phase: &Phase) -> f64 {
    let p = phase.true_matches as f64 / (phase.matches as f64).max(1.0);
    let r = phase.true_matches as f64 / (phase.gold as f64).max(1.0);
    if p + r == 0.0 {
        0.0
    } else {
        2.0 * p * r / (p + r)
    }
}

/// [`run_passes`] with the workload's scorer.
fn passes(ctx: &Ctx, window: Duration, traced: bool, first_pass: u64) -> Result<Phase, String> {
    match &ctx.state.matcher {
        Some(m) => run_passes(ctx, m, window, traced, first_pass),
        None => run_passes(ctx, &JaccardScorer::default(), window, traced, first_pass),
    }
}

pub fn run(variant: Variant, opts: &Opts, report: &mut Report) -> Result<(), String> {
    let (state, setup_s) = timed_setups(|| Ok(setup(variant, &variant.sizes(), opts.seed)))?;
    report.metric("setup_s", setup_s);
    let sizes = variant.sizes();
    let slices = sizes.rows_a / sizes.slice;
    let ctx = Ctx {
        state: &state,
        slice: sizes.slice,
        gold: gold_per_slice(&state.tables, sizes.slice, slices),
        work: &opts.work,
    };
    report.fact("rows_a", Value::UInt(u64::from(sizes.rows_a)));
    report.fact("rows_b", Value::UInt(u64::from(sizes.rows_b)));
    report.fact("rows_per_pass", Value::UInt(u64::from(sizes.slice)));

    let cpu0 = host::cpu_seconds("self");
    let plain = passes(&ctx, opts.seconds, false, 0)?;
    let cpu = host::cpu_seconds("self").zip(cpu0).map(|(b, a)| b - a);
    let peak_rss = host::peak_rss_mib("self").unwrap_or(0.0);
    account(&state, &plain, "plain", report);

    // Blocking quality against the gold oracle over the full tables.
    let index = BlockIndex::build(&blocker(), &state.b);
    let gold_total: u64 = ctx.gold.iter().sum();
    let mut eval = BlockingEval::new(state.a.len(), state.b.len(), gold_total);
    let mut sample_pairs = Vec::new();
    for c in CandidateStream::new(&index, &state.a) {
        eval.observe(state.tables.is_match(c.a, c.b));
        if sample_pairs.len() < 2000 {
            sample_pairs.push((c.a, c.b));
        }
    }
    if variant == Variant::Jaccard {
        report.check(
            "blocking meets the CI floor (recall >= 0.95, reduction >= 0.99)",
            eval.recall() >= 0.95 && eval.reduction() >= 0.99,
            || format!("recall {} reduction {}", eval.recall(), eval.reduction()),
        );
    }

    if !opts.trace {
        // Medians over passes, so a disturbed pass cannot set the figure.
        // Unlike the request tails of match-http, a pass's p99 is the
        // chunk drain, so it repeats and the median is the steadier.
        let lat = &plain.row_latency_ms;
        let thin = || "too few rows for the percentile".to_string();
        report.metric("throughput_pairs_per_s", median(&plain.pass_rates));
        report.percentile(
            "p50_ms",
            median_percentile(lat, 0.5).ok_or_else(thin)?,
            sizes.slice as usize,
        );
        report.percentile(
            "p99_ms",
            median_percentile(lat, 0.99).ok_or_else(thin)?,
            sizes.slice as usize,
        );
        report.metric("ok_frac", 1.0);
        report.metric("peak_rss_mib", peak_rss);
        return Ok(());
    }

    // Traced phase: wrapped tables and scorer, em-obs on.
    em_obs::reset();
    em_obs::set_level(em_obs::LEVEL_AGGREGATE);
    let stats0 = state.matcher.as_ref().map(ServeMatcher::stats);
    let traced = passes(&ctx, opts.seconds, true, plain.passes)?;
    em_obs::set_level(em_obs::LEVEL_OFF);
    account(&state, &traced, "traced", report);
    report.metric("quality.f1", f1(&traced));
    let per_pair = |p: &Phase| p.wall / p.pairs.max(1) as f64;
    report.metric(
        "tracing_overhead_frac",
        per_pair(&traced) / per_pair(&plain) - 1.0,
    );
    report.metric(
        "cpu_s_per_kpair",
        cpu.map_or(0.0, |c| c / plain.pairs.max(1) as f64 * 1000.0),
    );
    let w = traced.wrapped;
    report.metric("pipeline.row_us", w.fetch_s / w.fetches.max(1) as f64 * 1e6);
    report.metric(
        "pipeline.submit_us",
        w.submit_s / w.submits.max(1) as f64 * 1e6,
    );
    report.metric("pipeline.wait_us", w.wait_s / w.submits.max(1) as f64 * 1e6);
    let self_s = traced.wall - w.fetch_s - w.submit_s - w.wait_s;
    report.metric("pipeline.self_s", self_s / traced.passes as f64);

    // em-block in isolation: index build, probe, blocking quality.
    let builds: Vec<f64> = (0..3)
        .map(|_| {
            let t = Instant::now();
            std::hint::black_box(BlockIndex::build(&blocker(), &state.b));
            t.elapsed().as_secs_f64()
        })
        .collect();
    let index_build_s = median(&builds);
    let mut scratch = ProbeScratch::new(state.b.len());
    let mut hits = Vec::new();
    let tp = Instant::now();
    for row in &state.a.0[..sizes.slice as usize] {
        index.probe(&row.text, &mut scratch, &mut hits);
        std::hint::black_box(&hits);
    }
    let probe_us = tp.elapsed().as_secs_f64() / f64::from(sizes.slice) * 1e6;
    report.metric("block.index_build_s", index_build_s);
    report.metric("block.probe_us_per_row", probe_us);
    report.metric("block.candidates", eval.candidates() as f64);
    report.metric("block.recall", eval.recall());
    report.metric("block.reduction", eval.reduction());
    let unattributed =
        self_s - index_build_s * traced.passes as f64 - probe_us * 1e-6 * traced.rows as f64;
    report.metric("unattributed_frac", unattributed / traced.wall);

    if let (Some(m), Some(s0)) = (&state.matcher, stats0) {
        serve_layers(
            m,
            s0,
            &state,
            &sample_pairs,
            traced.pairs,
            traced.matches,
            report,
        )?;
    }
    report.fill_not_on_path();
    Ok(())
}

/// Output checks and quality facts of one phase.
fn account(state: &State, phase: &Phase, label: &str, report: &mut Report) {
    report.attempted += phase.pairs;
    for b in &phase.broken {
        report.check("decisions file matches the pipeline report", false, || {
            b.clone()
        });
    }
    if phase.broken.is_empty() {
        report.check(
            "decisions file matches the pipeline report",
            true,
            String::new,
        );
    }
    check_scores(state, phase, report);
    let facts = vec![
        ("passes".to_string(), Value::UInt(phase.passes)),
        ("pairs_scored".into(), Value::UInt(phase.pairs)),
        ("matches".into(), Value::UInt(phase.matches)),
        (
            "match_rate".into(),
            Value::Float(phase.matches as f64 / phase.pairs.max(1) as f64),
        ),
        ("f1".into(), Value::Float(f1(phase))),
        ("seconds".into(), Value::Float(phase.wall)),
    ];
    report.fact(label, Value::Object(facts));
}

/// em-serve, em-graph and em-tokenizers as dedup-serve drives them.
fn serve_layers(
    m: &ServeMatcher,
    s0: em_serve::ServeStats,
    state: &State,
    sample_pairs: &[(u32, u32)],
    pairs: u64,
    matches: u64,
    report: &mut Report,
) -> Result<(), String> {
    let s = m.stats();
    let hist = |name: &str| em_obs::histogram_snapshot(name).unwrap_or_default();
    let q = |name: &str, q: f64| {
        obs_quantile(&hist(name), q)
            .map(|v| v * 1e3)
            .ok_or(format!("too few {name} samples for the percentile"))
    };
    report.percentile(
        "serve.queue_wait_p99_ms",
        q("serve/queue_wait", 0.99)?,
        hist("serve/queue_wait").count as usize,
    );
    report.percentile(
        "serve.batch_wait_p50_ms",
        q("serve/batch_wait", 0.5)?,
        hist("serve/batch_wait").count as usize,
    );
    let forward = hist("serve/forward");
    report.percentile(
        "serve.forward_p50_ms",
        q("serve/forward", 0.5)?,
        forward.count as usize,
    );
    report.percentile(
        "serve.forward_p99_ms",
        q("serve/forward", 0.99)?,
        forward.count as usize,
    );
    let examples = (s.examples - s0.examples).max(1) as f64;
    let batches = (s.batches - s0.batches).max(1) as f64;
    let capacity = (s.batch_capacity - s0.batch_capacity).max(1) as f64;
    report.metric("serve.pairs_per_batch", examples / batches);
    report.metric("serve.batch_fill", examples / capacity);
    report.metric("serve.shed", (s.shed - s0.shed) as f64);
    // A timed-out ticket fails its pass, and with it the run.
    report.metric("serve.timeouts", 0.0);
    report.metric("serve.retries", (s.retries - s0.retries) as f64);
    report.metric(
        "serve.worker_restarts",
        (s.worker_restarts - s0.worker_restarts) as f64,
    );
    report.metric("serve.match_rate", matches as f64 / pairs.max(1) as f64);
    report.metric("forward.us_per_pair", forward.sum() / examples * 1e6);
    let hits = s.plan_cache_hits - s0.plan_cache_hits;
    let misses = s.plan_cache_misses - s0.plan_cache_misses;
    report.metric(
        "graph.plan_cache_hit_rate",
        hits as f64 / (hits + misses).max(1) as f64,
    );

    let texts: Vec<(&str, &str)> = sample_pairs
        .iter()
        .map(|&(a, b)| {
            (
                state.a.0[a as usize].text.as_str(),
                state.b.0[b as usize].text.as_str(),
            )
        })
        .collect();
    let frozen = m.frozen();
    tokenize_and_forward(m, &frozen, &texts, examples / batches, report);
    Ok(())
}

/// `tokenize.*` from `ServeMatcher::encode_text` over `texts`, and
/// `forward.direct_us` / `forward.gflops` from `FrozenMatcher::logits`
/// on a batch of the dominant length bucket, sized like the served
/// batches.
pub fn tokenize_and_forward(
    m: &ServeMatcher,
    frozen: &FrozenMatcher,
    texts: &[(&str, &str)],
    pairs_per_batch: f64,
    report: &mut Report,
) -> (f64, usize) {
    let t = Instant::now();
    let encodings: Vec<_> = texts.iter().map(|(l, r)| m.encode_text(l, r)).collect();
    let tok_us = t.elapsed().as_secs_f64() / texts.len().max(1) as f64 * 1e6;
    let tokens: Vec<f64> = encodings.iter().map(|e| e.real_span() as f64).collect();
    report.metric("tokenize.us_per_pair", tok_us);
    report.metric("tokenize.tokens_per_pair", mean(&tokens));

    let mut by_bucket = std::collections::BTreeMap::<usize, Vec<_>>::new();
    for e in &encodings {
        by_bucket
            .entry(Batch::bucket_len(e))
            .or_default()
            .push(e.clone());
    }
    let Some((&seq, group)) = by_bucket.iter().max_by_key(|(_, g)| g.len()) else {
        return (tok_us, 0);
    };
    let size = (pairs_per_batch.round() as usize).max(1);
    let batch_encodings: Vec<_> = group.iter().cycle().take(size).cloned().collect();
    let batch = Batch::from_encodings(&batch_encodings);
    let times: Vec<f64> = (0..31)
        .map(|_| {
            let t = Instant::now();
            std::hint::black_box(frozen.logits(std::hint::black_box(&batch)));
            t.elapsed().as_secs_f64()
        })
        .collect();
    let direct = median(&times);
    report.metric("forward.direct_us", direct * 1e6);
    report.metric(
        "forward.gflops",
        forward_flops(&frozen.model.config, size, seq) / direct / 1e9,
    );
    report.fact("forward_batch", Value::UInt(size as u64));
    report.fact("forward_seq", Value::UInt(seq as u64));
    (tok_us, seq)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The timing wrappers pass every row and score through untouched:
    /// a traced pass writes the same decisions file, byte for byte.
    #[test]
    fn traced_pass_writes_identical_decisions() {
        let sizes = Sizes {
            rows_a: 3000,
            rows_b: 3000,
            slice: 1500,
        };
        let state = setup(Variant::Jaccard, &sizes, 7);
        let work = std::env::temp_dir().join(format!("perfbench-test-{}", std::process::id()));
        std::fs::create_dir_all(&work).unwrap();
        let ctx = Ctx {
            state: &state,
            slice: sizes.slice,
            gold: gold_per_slice(&state.tables, sizes.slice, 2),
            work: &work,
        };
        let scorer = JaccardScorer::default();
        let files: Vec<Vec<u8>> = [false, true]
            .iter()
            .map(|&traced| {
                let out = work.join(format!("traced-{traced}.jsonl"));
                let pass = pipeline_pass(&ctx, &scorer, 1, &out, traced);
                let report = pass.result.expect("pass runs");
                assert!(report.matches > 0 && report.completed);
                assert_eq!(pass.fetched.len(), 1500);
                assert_eq!(traced, pass.wrapped.submits == report.pairs_scored);
                std::fs::read(&out).unwrap()
            })
            .collect();
        std::fs::remove_dir_all(&work).unwrap();
        assert_eq!(files[0], files[1]);
    }
}
