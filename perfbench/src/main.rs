//! `perfbench`: the repository benchmark. One run measures one workload
//! for a fixed time under a workload seed and prints, as its last line,
//! `{"correct", "attempted", "failed", "metrics"}`: the end-to-end
//! metrics with `--trace 0`, the per-layer metrics with `--trace 1`.
//! `perfbench/run.py` builds the program and this harness, then runs it;
//! `perfbench/NOTES.md` explains the workloads and metrics.
//!
//! ```text
//! perfbench --workload gnp_engine|pgm_cli|serve_mix --seed N --seconds S --trace 0|1
//!           --mintri PATH --work-dir DIR [--build-info JSON]
//! ```

mod gnp;
mod http;
mod pgm_cli;
mod serve_mix;
mod trace;
mod util;

use mintri_core::json::{escape, JsonObject};
use mintri_engine::graph_fingerprint;
use mintri_graph::Graph;
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::{Duration, Instant};
use trace::Tracer;
use util::{median, Metrics};

/// Set-up is timed this many times per run, half before the measured
/// phase and half after it, and the median reported: one slow start, or
/// a busy second on the machine, does not decide `setup_s`.
pub const SETUP_REPEATS: usize = 10;

/// The end-to-end metrics every `--trace 0` run prints, with units.
const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("results_per_s", "1/s"),
    ("ttfr_ms_p50", "ms"),
    ("delay_us_p50", "us"),
    ("delay_us_p99", "us"),
    ("request_ms_p50", "ms"),
    ("request_ms_p90", "ms"),
    ("requests_per_s", "1/s"),
    ("peak_rss_mb", "MB"),
];

/// The per-layer metrics every `--trace 1` run prints. A layer that does
/// no work on a workload reads 0 there (the run's `meta.not_exercised`
/// lists those). Counts and times are per operation unless the notes say
/// otherwise.
const PER_LAYER: &[(&str, &str)] = &[
    ("separators.pulls", "count/op"),
    ("separators.pull_us", "us/op"),
    ("crossing.queries", "count/op"),
    ("crossing.us", "us/op"),
    ("crossing.memo_hit_ratio", "ratio"),
    ("extend.calls", "count/op"),
    ("extend.per_result", "count"),
    ("extend.us", "us/op"),
    ("extend.new_answer_ratio", "ratio"),
    ("extend.saturate_us", "us/op"),
    ("extend.mcsm_us", "us/op"),
    ("extend.extract_us", "us/op"),
    ("frontier.us", "us/op"),
    ("frontier.pairs_per_batch", "count"),
    ("engine.setup_us", "us"),
    ("engine.dispatch.replay", "count/op"),
    ("engine.dispatch.hydrate", "count/op"),
    ("engine.dispatch.parallel", "count/op"),
    ("engine.dispatch.sequential", "count/op"),
    ("engine.dispatch.ranked", "count/op"),
    ("session.replay_ratio", "ratio"),
    ("session.evictions", "count"),
    ("store.hydrates", "count"),
    ("store.writes", "count"),
    ("store.bytes", "bytes"),
    ("profile.overrides", "count"),
    ("profile.demotions", "count"),
    ("ranked.expansions_per_item", "count"),
    ("ranked.overruns", "count"),
    ("plan.ms", "ms"),
    ("plan.atoms", "count"),
    ("query.overhead_pct", "%"),
    ("io.parse_ms", "ms"),
    ("cli.spawn_ms", "ms"),
    ("treedecomp.us_per_item", "us"),
    ("json.parse_us_per_kb", "us/KB"),
    ("json.kb_per_request", "KB"),
    ("http.server_ms_p50", "ms"),
    ("http.transport_ms_p50", "ms"),
    ("http.ttfb_ms_p50", "ms"),
    ("width_improve_pct", "%"),
    ("fill_improve_pct", "%"),
    ("trace.overhead_pct", "%"),
    ("trace.unattributed_pct", "%"),
];

pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// The release `mintri` binary (pgm_cli, serve_mix).
    pub mintri: PathBuf,
    /// Scratch directory for corpus files, stores and trace output.
    pub work: PathBuf,
    /// Commit, rustc version and build profile, as a JSON object.
    pub build_info: String,
}

impl Args {
    fn parse() -> Result<Args, String> {
        let mut flags: BTreeMap<String, String> = BTreeMap::new();
        let mut it = std::env::args().skip(1);
        while let Some(a) = it.next() {
            let key = a
                .strip_prefix("--")
                .ok_or_else(|| format!("expected --flag, got {a:?}"))?;
            let value = it.next().ok_or_else(|| format!("--{key} needs a value"))?;
            flags.insert(key.to_string(), value);
        }
        let get = |k: &str| flags.get(k).cloned().ok_or(format!("--{k} is required"));
        let workload = get("workload")?;
        if !["gnp_engine", "pgm_cli", "serve_mix"].contains(&workload.as_str()) {
            return Err(format!("unknown workload {workload:?}"));
        }
        let seconds: f64 = get("seconds")?.parse().map_err(|_| "--seconds: number")?;
        if seconds.is_nan() || seconds <= 0.0 {
            return Err("--seconds must be positive".into());
        }
        Ok(Args {
            workload,
            seed: get("seed")?.parse().map_err(|_| "--seed: integer")?,
            seconds,
            trace: match get("trace")?.as_str() {
                "0" => false,
                "1" => true,
                other => return Err(format!("--trace must be 0 or 1, got {other:?}")),
            },
            mintri: PathBuf::from(get("mintri")?),
            work: PathBuf::from(get("work-dir")?),
            build_info: flags.get("build-info").cloned().unwrap_or("{}".into()),
        })
    }

    pub fn measure_for(&self) -> Duration {
        Duration::from_secs_f64(self.seconds)
    }
}

/// One generated input, as recorded in the run's metadata.
pub struct CorpusEntry {
    pub name: String,
    pub nodes: usize,
    pub edges: usize,
    /// Atoms the planner enumerates (non-chordal atoms of the graph).
    pub atoms: usize,
    pub fingerprint: u64,
}

impl CorpusEntry {
    pub fn of(name: &str, g: &Graph) -> Self {
        CorpusEntry {
            name: name.to_string(),
            nodes: g.num_nodes(),
            edges: g.num_edges(),
            atoms: mintri_core::Plan::of(g).atoms.len(),
            fingerprint: graph_fingerprint(g),
        }
    }

    fn to_json(&self) -> String {
        let mut doc = JsonObject::new();
        doc.str("name", &self.name);
        doc.usize("n", self.nodes);
        doc.usize("m", self.edges);
        doc.usize("atoms", self.atoms);
        doc.str("fingerprint", &format!("{:016x}", self.fingerprint));
        doc.finish()
    }
}

/// Tables 1–2 quality of one run — the mean improvement of the best
/// result over the first, in width and in fill — for the `meta` line of
/// an untraced run. (It depends on the instances far more than on the
/// code, so it is recorded, and reported as a traced-run metric, rather
/// than gated; see NOTES.md.)
pub fn quality_note(width: &[f64], fill: &[f64]) -> String {
    format!(
        "{{\"width_improve_pct\":{{\"value\":{},\"unit\":\"%\",\"samples\":{}}},\"fill_improve_pct\":{{\"value\":{},\"unit\":\"%\",\"samples\":{}}}}}",
        util::number(util::mean(width)),
        width.len(),
        util::number(util::mean(fill)),
        fill.len()
    )
}

/// What a workload run reports: metrics, counts, corpus and notes.
#[derive(Default)]
pub struct Report {
    pub metrics: Metrics,
    /// Operations attempted in the measured phase.
    pub attempted: usize,
    /// Failures: a wrong answer, a non-2xx response, a nonzero exit or a
    /// deadline overrun, counted by kind.
    pub failures: BTreeMap<String, usize>,
    /// Output-check failures (wrong answers), described.
    pub wrong: Vec<String>,
    pub corpus: Vec<CorpusEntry>,
    /// Extra metadata for the run's `meta` line.
    pub notes: Vec<(String, String)>,
    pub tracer: Option<Tracer>,
}

impl Report {
    pub fn fail(&mut self, kind: &str) {
        *self.failures.entry(kind.to_string()).or_default() += 1;
    }

    /// Records a wrong answer: a failure of kind `wrong_answer`, and a
    /// failed output check.
    pub fn wrong_answer(&mut self, what: String) {
        self.fail("wrong_answer");
        if self.wrong.len() < 20 {
            self.wrong.push(what);
        }
    }

    pub fn failed(&self) -> usize {
        self.failures.values().sum()
    }

    pub fn note(&mut self, key: &str, json: String) {
        self.notes.push((key.to_string(), json));
    }
}

/// Runs `setup` half of [`SETUP_REPEATS`] times, keeping the last state;
/// returns it with each set-up's time in seconds. A workload calls it
/// before its measured phase, and [`put_setup_s`] calls it again after.
pub fn repeated_setup<T>(
    mut setup: impl FnMut() -> Result<T, String>,
) -> Result<(T, Vec<f64>), String> {
    let mut times = Vec::new();
    let mut last = None;
    for _ in 0..SETUP_REPEATS / 2 {
        drop(last.take());
        let t = Instant::now();
        last = Some(setup()?);
        times.push(t.elapsed().as_secs_f64());
    }
    Ok((last.expect("at least one set-up"), times))
}

/// Records `setup_s`: the median of the set-up `times` taken before the
/// measured phase and of as many more taken now, after it. Every time is
/// kept in the run's `meta.setup_times_s`.
pub fn put_setup_s<T>(
    report: &mut Report,
    mut times: Vec<f64>,
    setup: impl FnMut() -> Result<T, String>,
) -> Result<(), String> {
    times.extend(repeated_setup(setup)?.1);
    let all: Vec<String> = times.iter().map(|&t| util::number(t)).collect();
    report.note("setup_times_s", format!("[{}]", all.join(",")));
    report
        .metrics
        .put_n("setup_s", median(&times), "s", times.len());
    Ok(())
}

fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

fn main() -> ExitCode {
    let args = match Args::parse() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    if !args.mintri.is_file() {
        eprintln!(
            "perfbench: mintri binary not found at {}",
            args.mintri.display()
        );
        return ExitCode::from(2);
    }
    if let Err(e) = std::fs::create_dir_all(&args.work) {
        eprintln!("perfbench: cannot create {}: {e}", args.work.display());
        return ExitCode::from(2);
    }
    let result = match args.workload.as_str() {
        "gnp_engine" => gnp::run(&args),
        "pgm_cli" => pgm_cli::run(&args),
        _ => serve_mix::run(&args),
    };
    let report = match result {
        Ok(r) => r,
        Err(e) => {
            eprintln!("perfbench: {} failed: {e}", args.workload);
            return ExitCode::from(3);
        }
    };

    if report.attempted == 0 {
        eprintln!("perfbench: no operation completed in the measured time");
        return ExitCode::from(3);
    }
    let names = if args.trace { PER_LAYER } else { END_TO_END };
    let missing = report.metrics.missing(names);
    if !args.trace && !missing.is_empty() {
        eprintln!("perfbench: end-to-end metrics not measured: {missing:?}");
        return ExitCode::from(3);
    }

    for (name, n) in report.metrics.sample_counts() {
        let floor = if name.ends_with("_p99") {
            1000
        } else if name.ends_with("_p90") {
            100
        } else {
            0
        };
        if n < floor {
            eprintln!("perfbench: warning: {name} rests on {n} samples, fewer than {floor}");
        }
    }

    let mut trace_file = None;
    if let Some(tracer) = &report.tracer {
        let path = args
            .work
            .join(format!("trace-{}-{}.jsonl", args.workload, args.seed));
        match tracer.write(&path) {
            Ok(()) => trace_file = Some(path.display().to_string()),
            Err(e) => eprintln!("perfbench: cannot write trace: {e}"),
        }
    }

    // Everything a later reader needs to reproduce or compare the run.
    let mut meta = JsonObject::new();
    meta.str("workload", &args.workload);
    meta.raw("seed", args.seed.to_string());
    meta.raw("seconds", util::number(args.seconds));
    meta.bool("trace", args.trace);
    meta.usize("nproc", nproc());
    meta.raw("build", args.build_info.clone());
    let failures: Vec<String> = report
        .failures
        .iter()
        .map(|(k, v)| format!("{}:{v}", escape(k)))
        .collect();
    meta.raw("failures", format!("{{{}}}", failures.join(",")));
    meta.raw(
        "failed_ratio",
        util::number(report.failed() as f64 / report.attempted.max(1) as f64),
    );
    let wrong: Vec<String> = report.wrong.iter().map(|w| escape(w)).collect();
    meta.raw("wrong_answers", format!("[{}]", wrong.join(",")));
    meta.raw("samples", report.metrics.samples_json());
    if args.trace {
        let names: Vec<String> = missing.iter().map(|n| escape(n)).collect();
        meta.raw("not_exercised", format!("[{}]", names.join(",")));
    }
    for (k, v) in &report.notes {
        meta.raw(k, v.clone());
    }
    if let Some(path) = &trace_file {
        meta.str("trace_file", path);
    }
    let corpus: Vec<String> = report.corpus.iter().map(CorpusEntry::to_json).collect();
    meta.raw("corpus", format!("[{}]", corpus.join(",")));
    let mut line = JsonObject::new();
    line.raw("meta", meta.finish());
    println!("{}", line.finish());

    let correct = report.wrong.is_empty();
    let mut result = JsonObject::new();
    result.bool("correct", correct);
    result.usize("attempted", report.attempted);
    result.usize("failed", report.failed());
    result.raw("metrics", report.metrics.to_json(names));
    println!("{}", result.finish());
    if correct {
        ExitCode::SUCCESS
    } else {
        eprintln!("perfbench: output checks failed: {:?}", report.wrong);
        ExitCode::from(1)
    }
}
