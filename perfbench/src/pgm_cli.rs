//! `pgm_cli`: the paper's Fig. 6 PGM families plus TPC-H Q7/Q9 and a
//! chained-cycle graph, each written as a DIMACS file and run the way a
//! user runs the release binary — one `mintri enumerate --limit K` and
//! one `mintri best-k --k 5 --budget-ms T` process per file, both on the
//! default sequential path. Planning, the ranked path, process start,
//! parsing and rendering are all inside the measured time.
//!
//! Every process has a deadline of its budget plus slack; a process still
//! running at its deadline is killed and counted as a failure. Ranked
//! best-k currently ignores its budget on most PGM instances, so this
//! workload's failures are mostly those overruns (see NOTES.md).

use crate::trace::Tracer;
use crate::util::{
    geomean, grouped_quantile, improvement_pct, mean, median, ms, overhead_pct, quantile,
    wait_with_peak_rss, Rng,
};
use crate::{put_setup_s, repeated_setup, Args, CorpusEntry, Report};
use mintri_core::json::JsonValue;
use mintri_core::query::{ExecPolicy, Query};
use mintri_core::{MsGraph, Plan};
use mintri_graph::Graph;
use mintri_sgr::{EnumMis, PrintMode};
use mintri_workloads::{random, tpch_query, PgmFamily};
use std::io::{BufRead, BufReader, Read};
use std::path::{Path, PathBuf};
use std::process::{Command, ExitStatus, Stdio};
use std::sync::mpsc;
use std::time::{Duration, Instant};

/// Records each `enumerate` process is asked for.
const K: usize = 30;
/// Winners each `best-k` process is asked for, and its time budget.
const BEST_K: usize = 5;
const BEST_K_BUDGET_MS: u64 = 100;
/// Time budget of an `enumerate` process (it stops at `K` long before).
const ENUM_BUDGET_MS: u64 = 10_000;
/// Fixed part of every deadline's slack: process start, parse, render.
const BASE_SLACK: Duration = Duration::from_millis(100);
/// Size-scaled part of the slack, per `n·m` of the graph: covers planning,
/// which is not inside the budget (Pedigree plans for about 0.6 s).
const SLACK_PER_NM_NS: u64 = 2_500;
/// Instance seed of the PGM files. They are one fixed dataset, as the
/// paper's UAI files are: with seeded instances, a single Pedigree or
/// Segmentation instance set the tail metrics and their spread over
/// seeds exceeded any usable bound (see NOTES.md).
const PGM_INSTANCE_SEED: u64 = 2017;

struct Input {
    name: String,
    graph: Graph,
    path: PathBuf,
    /// Deadline slack beyond the budget.
    slack: Duration,
}

/// One instance per Fig. 6 family, TPC-H Q7 and Q9, and three chained
/// cycles of seeded lengths.
fn graphs(seed: u64) -> Vec<(String, Graph)> {
    let mut rng = Rng::new(seed ^ 0x0070_676d_5f63_6c69);
    let mut out: Vec<(String, Graph)> = PgmFamily::ALL
        .iter()
        .flat_map(|f| f.instances(1, PGM_INSTANCE_SEED))
        .map(|i| (i.name, i.graph))
        .collect();
    for q in [7, 9] {
        out.push((format!("TPCH_Q{q}"), tpch_query(q).graph));
    }
    let lengths: Vec<usize> = (0..3).map(|_| rng.range(6, 9)).collect();
    out.push((
        format!(
            "Chain_{}",
            lengths
                .iter()
                .map(usize::to_string)
                .collect::<Vec<_>>()
                .join("_")
        ),
        random::chained_cycles(&lengths),
    ));
    out
}

struct Setup {
    inputs: Vec<Input>,
    corpus: Vec<CorpusEntry>,
    /// A 3-node path, for timing bare process start.
    tiny: PathBuf,
}

fn setup(args: &Args) -> Result<Setup, String> {
    let dir = args.work.join(format!("pgm-{}", args.seed));
    std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let mut inputs = Vec::new();
    let mut corpus = Vec::new();
    for (name, graph) in graphs(args.seed) {
        let path = dir.join(format!("{name}.col"));
        std::fs::write(&path, mintri_graph::io::to_dimacs(&graph))
            .map_err(|e| format!("{}: {e}", path.display()))?;
        let nm = (graph.num_nodes() * graph.num_edges()) as u64;
        let slack = BASE_SLACK + Duration::from_nanos(nm * SLACK_PER_NM_NS);
        corpus.push(CorpusEntry::of(&name, &graph));
        inputs.push(Input {
            name,
            graph,
            path,
            slack,
        });
    }
    let tiny = dir.join("tiny.col");
    std::fs::write(&tiny, "p edge 3 2\ne 1 2\ne 2 3\n").map_err(|e| e.to_string())?;
    // Warm-up: one process start pages the binary in.
    let warm = run_process(
        &mut mintri(args, "stats", &tiny, &[]),
        Duration::from_secs(10),
        0,
    )
    .map_err(|e| format!("cannot start mintri: {e}"))?;
    if !warm.ok() {
        return Err(format!("mintri stats failed: {}", warm.stderr));
    }
    Ok(Setup {
        inputs,
        corpus,
        tiny,
    })
}

fn mintri(args: &Args, command: &str, input: &Path, extra: &[&str]) -> Command {
    let mut cmd = Command::new(&args.mintri);
    cmd.arg(command).arg("--input").arg(input).args(extra);
    cmd
}

/// One finished (or killed) child process.
struct Proc {
    wall: Duration,
    /// When the first line after `skip` header lines reached stdout.
    first_line: Option<Duration>,
    stdout: String,
    stderr: String,
    status: ExitStatus,
    killed: bool,
    /// Peak resident set of the process, MB.
    peak_rss_mb: f64,
}

impl Proc {
    fn ok(&self) -> bool {
        !self.killed && self.status.success()
    }
}

/// Runs `cmd` to completion or until `deadline`, when it is killed.
/// Stdout is read on a helper thread so that the first line after `skip`
/// header lines is timed as it arrives; stderr is read once the process
/// has ended.
fn run_process(cmd: &mut Command, deadline: Duration, skip: usize) -> std::io::Result<Proc> {
    let t0 = Instant::now();
    let mut child = cmd
        .stdin(Stdio::null())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()?;
    let stdout = child.stdout.take().expect("stdout is piped");
    let mut stderr = child.stderr.take().expect("stderr is piped");
    let (tx, rx) = mpsc::channel();
    let reader = std::thread::spawn(move || {
        let mut reader = BufReader::new(stdout);
        let (mut out, mut first, mut lines) = (String::new(), None, 0usize);
        let mut line = String::new();
        loop {
            line.clear();
            match reader.read_line(&mut line) {
                Ok(0) | Err(_) => break,
                Ok(_) => {
                    if lines == skip {
                        first = Some(t0.elapsed());
                    }
                    lines += 1;
                    out.push_str(&line);
                }
            }
        }
        let _ = tx.send(());
        (out, first)
    });
    let killed = rx
        .recv_timeout(deadline.saturating_sub(t0.elapsed()))
        .is_err();
    if killed {
        let _ = child.kill();
    }
    let (status, peak_rss_mb) = wait_with_peak_rss(&mut child)?;
    let wall = t0.elapsed();
    let (stdout, first_line) = reader.join().expect("stdout reader does not panic");
    let mut err = String::new();
    let _ = stderr.read_to_string(&mut err);
    Ok(Proc {
        wall,
        first_line,
        stdout,
        stderr: err,
        status,
        killed,
        peak_rss_mb,
    })
}

/// A parsed `enumerate` CSV record.
struct Record {
    elapsed_us: f64,
    width: usize,
    fill: usize,
}

fn parse_records(stdout: &str) -> Option<Vec<Record>> {
    let mut lines = stdout.lines();
    if lines.next()? != "index,elapsed_us,width,fill" {
        return None;
    }
    lines
        .enumerate()
        .map(|(i, l)| {
            let f: Vec<&str> = l.split(',').collect();
            if f.len() != 4 || f[0].parse::<usize>().ok()? != i {
                return None;
            }
            Some(Record {
                elapsed_us: f[1].parse().ok()?,
                width: f[2].parse().ok()?,
                fill: f[3].parse().ok()?,
            })
        })
        .collect()
}

/// Output check of an `enumerate` process: exactly `K` records (fewer
/// only when the graph has fewer and the run says it completed).
fn check_enumerate(p: &Proc, input: &Input, report: &mut Report) -> Option<Vec<Record>> {
    if p.killed {
        report.fail("deadline_overrun");
        return None;
    }
    if !p.ok() {
        report.fail("nonzero_exit");
        return None;
    }
    let Some(records) = parse_records(&p.stdout) else {
        report.wrong_answer(format!(
            "{}: enumerate output is not the record CSV",
            input.name
        ));
        return None;
    };
    let complete = p.stderr.contains("(complete)");
    if records.len() != K && !(complete && records.len() < K) {
        report.wrong_answer(format!(
            "{}: enumerate emitted {} records, expected {K}",
            input.name,
            records.len()
        ));
        return None;
    }
    Some(records)
}

/// Output check of a `best-k` process: between 1 and `BEST_K` winners,
/// ranked by width.
fn check_best_k(p: &Proc, input: &Input, report: &mut Report) -> bool {
    if p.killed {
        report.fail("deadline_overrun");
        return false;
    }
    if !p.ok() {
        report.fail("nonzero_exit");
        return false;
    }
    let mut lines = p.stdout.lines();
    let rows: Option<Vec<(usize, usize)>> = (lines.next() == Some("rank,width,fill"))
        .then(|| {
            lines
                .map(|l| {
                    let f: Vec<&str> = l.split(',').collect();
                    Some((f.get(1)?.parse().ok()?, f.get(2)?.parse().ok()?))
                })
                .collect()
        })
        .flatten();
    let valid = rows
        .is_some_and(|r| (1..=BEST_K).contains(&r.len()) && r.windows(2).all(|w| w[0].0 <= w[1].0));
    if !valid {
        report.wrong_answer(format!(
            "{}: best-k output is not {BEST_K} ranked winners",
            input.name
        ));
    }
    valid
}

/// The order operations run in: every `(file, operation)` pair once per
/// cycle, shuffled afresh each cycle from the workload seed.
struct OpOrder {
    rng: Rng,
    pairs: Vec<(usize, usize)>,
}

impl OpOrder {
    fn new(seed: u64, files: usize) -> Self {
        OpOrder {
            rng: Rng::new(seed ^ 0x006f_7264_6572),
            pairs: (0..files).flat_map(|f| [(f, 0), (f, 1)]).collect(),
        }
    }

    fn cycle(&mut self) -> Vec<(usize, usize)> {
        for i in (1..self.pairs.len()).rev() {
            let j = self.rng.range(0, i);
            self.pairs.swap(i, j);
        }
        self.pairs.clone()
    }
}

/// `(command, extra flags, budget)` of the two operations per file.
fn operations() -> [(&'static str, Vec<String>, u64); 2] {
    [
        (
            "enumerate",
            vec![
                "--limit".into(),
                K.to_string(),
                "--budget-ms".into(),
                ENUM_BUDGET_MS.to_string(),
            ],
            ENUM_BUDGET_MS,
        ),
        (
            "best-k",
            vec![
                "--k".into(),
                BEST_K.to_string(),
                "--budget-ms".into(),
                BEST_K_BUDGET_MS.to_string(),
            ],
            BEST_K_BUDGET_MS,
        ),
    ]
}

fn run_op(args: &Args, input: &Input, op: usize, traced: bool) -> Result<Proc, String> {
    let (command, flags, budget) = &operations()[op];
    let mut flags: Vec<&str> = flags.iter().map(String::as_str).collect();
    if traced {
        flags.extend(["--trace", "--format", "json"]);
    }
    let deadline = Duration::from_millis(*budget) + input.slack;
    // The CSV header comes first; the first record is the first result.
    let skip = usize::from(!traced);
    run_process(
        &mut mintri(args, command, &input.path, &flags),
        deadline,
        skip,
    )
    .map_err(|e| format!("cannot run mintri {command}: {e}"))
}

pub fn run(args: &Args) -> Result<Report, String> {
    let (mut setup, setup_times) = repeated_setup(|| setup(args))?;
    let mut report = Report {
        corpus: std::mem::take(&mut setup.corpus),
        ..Report::default()
    };
    let deadlines: Vec<String> = setup
        .inputs
        .iter()
        .map(|i| format!("\"{}\":{}", i.name, ms(i.slack).round()))
        .collect();
    report.note("slack_ms", format!("{{{}}}", deadlines.join(",")));
    if args.trace {
        return traced(args, &setup, report);
    }
    let (mut walls, mut gaps) = (Vec::new(), Vec::new());
    let mut ttfr: Vec<Vec<f64>> = vec![Vec::new(); setup.inputs.len()];
    let (mut enum_records, mut enum_secs) = (0usize, 0.0);
    let mut quality: Vec<Option<(f64, f64)>> = vec![None; setup.inputs.len()];
    let mut order = OpOrder::new(args.seed, setup.inputs.len());
    let mut per_op: Vec<Vec<f64>> = vec![Vec::new(); 2 * setup.inputs.len()];
    let mut peak_rss = 0.0f64;
    let start = Instant::now();
    // Whole cycles only, so every run weighs each operation the same.
    while start.elapsed() < args.measure_for() {
        for (i, op) in order.cycle() {
            let input = &setup.inputs[i];
            report.attempted += 1;
            let p = run_op(args, input, op, false)?;
            walls.push(ms(p.wall));
            per_op[2 * i + op].push(ms(p.wall));
            if !p.killed {
                peak_rss = peak_rss.max(p.peak_rss_mb);
            }
            if op == 0 {
                if let Some(records) = check_enumerate(&p, input, &mut report) {
                    enum_records += records.len();
                    enum_secs += p.wall.as_secs_f64();
                    gaps.extend(
                        records
                            .windows(2)
                            .map(|w| w[1].elapsed_us - w[0].elapsed_us),
                    );
                    quality[i].get_or_insert_with(|| improvement(&records));
                    ttfr[i].extend(p.first_line.map(ms));
                }
            } else {
                check_best_k(&p, input, &mut report);
            }
        }
    }
    let busy: f64 = walls.iter().sum::<f64>() / 1e3;
    let quality: Vec<(f64, f64)> = quality.into_iter().flatten().collect();
    put_setup_s(&mut report, setup_times, || self::setup(args))?;
    let m = &mut report.metrics;
    m.put_n(
        "results_per_s",
        enum_records as f64 / enum_secs,
        "1/s",
        enum_records,
    );
    // The median of each file (first result) or operation (request
    // time). The p50 metrics combine them by geometric mean, so every
    // instance counts the same and a change that speeds up one instance
    // shows even when it is not the middle one.
    let medians = |groups: &[Vec<f64>]| -> Vec<f64> {
        groups
            .iter()
            .filter(|g| !g.is_empty())
            .map(|g| median(g))
            .collect()
    };
    let ttfr_n = ttfr.iter().map(Vec::len).sum();
    m.put_n("ttfr_ms_p50", geomean(&medians(&ttfr)), "ms", ttfr_n);
    // The CLI prints record times in whole microseconds.
    m.put_n(
        "delay_us_p50",
        grouped_quantile(&mut gaps, 0.5),
        "us",
        gaps.len(),
    );
    m.put_n(
        "delay_us_p99",
        grouped_quantile(&mut gaps, 0.99),
        "us",
        gaps.len(),
    );
    let n = walls.len();
    let mut op_medians = medians(&per_op);
    m.put_n("request_ms_p50", geomean(&op_medians), "ms", n);
    // The tail across the corpus: the 90th percentile of the operations'
    // medians. The 90th percentile of the pooled samples would sit on the
    // fastest few runs of the two slowest operations (16 of 18 operations
    // lie below it), an extreme of a handful of samples.
    m.put_n("request_ms_p90", quantile(&mut op_medians, 0.9), "ms", n);
    m.put_n("requests_per_s", n as f64 / busy, "1/s", n);
    // Killed processes are left out: their memory at the kill is an
    // accident of timing.
    m.put("peak_rss_mb", peak_rss, "MB");
    let w: Vec<f64> = quality.iter().map(|q| q.0).collect();
    let f: Vec<f64> = quality.iter().map(|q| q.1).collect();
    report.note("quality", crate::quality_note(&w, &f));
    let medians: Vec<String> = setup
        .inputs
        .iter()
        .enumerate()
        .flat_map(|(i, input)| {
            let per_op = &per_op;
            operations()
                .into_iter()
                .enumerate()
                .map(move |(op, (command, _, _))| {
                    let walls = &per_op[2 * i + op];
                    let med = if walls.is_empty() { 0.0 } else { median(walls) };
                    format!("\"{} {command}\":{}", input.name, crate::util::number(med))
                })
        })
        .collect();
    report.note(
        "median_ms_by_operation",
        format!("{{{}}}", medians.join(",")),
    );
    Ok(report)
}

/// Tables 1–2 over one enumerate's records: the best width and fill
/// among them against the first record's, in percent of the first.
fn improvement(records: &[Record]) -> (f64, f64) {
    let wmin = records.iter().map(|r| r.width).min().unwrap_or(0);
    let fmin = records.iter().map(|r| r.fill).min().unwrap_or(0);
    (
        improvement_pct(records[0].width as f64, wmin as f64),
        improvement_pct(records[0].fill as f64, fmin as f64),
    )
}

/// Adds the program's own span tree (from `--trace --format json`) under
/// `parent`, ending at `end`; returns nothing when the output has none.
fn add_program_spans(tracer: &mut Tracer, op: u64, parent: usize, end: Instant, stdout: &str) {
    let Ok(doc) = JsonValue::parse(stdout.trim()) else {
        return;
    };
    let Some(trace) = doc.get("outcome").and_then(|o| o.get("trace")) else {
        return;
    };
    // `trace` wraps the `query` span; place it so it ends when the first
    // output byte arrived (the CLI renders after the query finishes).
    let Some(query) = trace
        .get("children")
        .and_then(JsonValue::as_array)
        .and_then(|c| c.first())
    else {
        return;
    };
    let dur = |n: &JsonValue| {
        Duration::from_micros(
            n.get("duration_us")
                .and_then(JsonValue::as_u64)
                .unwrap_or(0),
        )
    };
    let start_of = |n: &JsonValue| {
        Duration::from_micros(n.get("start_us").and_then(JsonValue::as_u64).unwrap_or(0))
    };
    let q_start = end.checked_sub(dur(query)).unwrap_or(end);
    let q = tracer.record("cli.query", op, Some(parent), q_start, end);
    let base = start_of(query);
    for child in query
        .get("children")
        .and_then(JsonValue::as_array)
        .unwrap_or(&[])
    {
        let name = match child.get("name").and_then(JsonValue::as_str) {
            Some("plan") => "cli.plan",
            Some("atom") => "cli.atom",
            Some("first_result") => "cli.first_result",
            Some("drain") => "cli.drain",
            _ => "cli.other",
        };
        // `atom` spans overlap `first_result`/`drain`; keep only the
        // sequential phases as children so cover time is not counted twice.
        if name == "cli.atom" {
            continue;
        }
        let s = q_start + start_of(child).saturating_sub(base);
        tracer.record(name, op, Some(q), s, s + dur(child));
    }
}

/// The traced run: each operation untraced and with `--trace --format
/// json` (alternating which goes first), spans per process with the
/// program's own spans beneath; then in-process planning, parsing,
/// spawn-time and query-layer measurements on the same files.
fn traced(args: &Args, setup: &Setup, mut report: Report) -> Result<Report, String> {
    let origin = Instant::now();
    let mut tracer = Tracer::new(origin);
    let mut overhead = Vec::new();
    let mut overruns = 0usize;
    let mut quality: Vec<Option<(f64, f64)>> = vec![None; setup.inputs.len()];
    let share = args.measure_for().mul_f64(0.6);
    let mut op_id = 0u64;
    let mut order = OpOrder::new(args.seed, setup.inputs.len());
    'run: loop {
        for (i, op) in order.cycle() {
            let input = &setup.inputs[i];
            if origin.elapsed() >= share {
                break 'run;
            }
            report.attempted += 1;
            op_id += 1;
            let traced_first = op_id.is_multiple_of(2);
            let mut walls = [None, None];
            for traced in [traced_first, !traced_first] {
                let t_open = Instant::now();
                let p = run_op(args, input, op, traced)?;
                let name = if traced { "op.traced" } else { "op" };
                let root = tracer.record(name, op_id, None, t_open, Instant::now());
                if traced {
                    if let Some(first) = p.first_line {
                        add_program_spans(&mut tracer, op_id, root, t_open + first, &p.stdout);
                    }
                } else if op == 0 {
                    if let Some(records) = check_enumerate(&p, input, &mut report) {
                        quality[i].get_or_insert_with(|| improvement(&records));
                    }
                } else {
                    overruns += usize::from(p.killed);
                    check_best_k(&p, input, &mut report);
                }
                if !p.killed {
                    walls[usize::from(traced)] = Some(ms(p.wall));
                }
            }
            if let [Some(u), Some(t)] = walls {
                overhead.push((u, t));
            }
        }
    }
    let quality: Vec<(f64, f64)> = quality.into_iter().flatten().collect();
    let m = &mut report.metrics;
    m.put_n(
        "width_improve_pct",
        mean(&quality.iter().map(|q| q.0).collect::<Vec<_>>()),
        "%",
        quality.len(),
    );
    m.put_n(
        "fill_improve_pct",
        mean(&quality.iter().map(|q| q.1).collect::<Vec<_>>()),
        "%",
        quality.len(),
    );
    m.put_n(
        "ranked.overruns",
        overruns as f64,
        "count",
        report.attempted,
    );
    m.put_n(
        "trace.overhead_pct",
        overhead_pct(&overhead),
        "%",
        overhead.len(),
    );
    m.put_n(
        "trace.unattributed_pct",
        tracer.unattributed_pct(&["op.traced"]),
        "%",
        tracer.len(),
    );

    // In-process layers on the same files.
    let (mut plan_ms, mut atoms, mut parse_ms) = (Vec::new(), Vec::new(), Vec::new());
    for input in &setup.inputs {
        let text = std::fs::read_to_string(&input.path).map_err(|e| e.to_string())?;
        let t = Instant::now();
        let g = mintri_graph::io::parse_dimacs(&text).map_err(|e| e.to_string())?;
        parse_ms.push(ms(t.elapsed()));
        if g != input.graph {
            report.wrong_answer(format!(
                "{}: DIMACS round trip changed the graph",
                input.name
            ));
        }
        let t = Instant::now();
        atoms.push(Plan::of(&g).atoms.len() as f64);
        plan_ms.push(ms(t.elapsed()));
    }
    let n = setup.inputs.len();
    let m = &mut report.metrics;
    m.put_n("plan.ms", mean(&plan_ms), "ms", n);
    m.put_n("plan.atoms", mean(&atoms), "count", n);
    m.put_n("io.parse_ms", mean(&parse_ms), "ms", n);
    let mut spawn = Vec::new();
    for _ in 0..21 {
        let p = run_process(
            &mut mintri(args, "stats", &setup.tiny, &[]),
            Duration::from_secs(10),
            0,
        )
        .map_err(|e| e.to_string())?;
        spawn.extend(p.first_line.map(ms));
    }
    report
        .metrics
        .put_n("cli.spawn_ms", median(&spawn), "ms", spawn.len());
    let (overhead, files) = query_overhead(setup, origin + args.measure_for());
    report
        .metrics
        .put_n("query.overhead_pct", overhead, "%", files);
    report.tracer = Some(tracer);
    Ok(report)
}

/// `Query::run_local` (unplanned, so both sides run the same `EnumMIS`
/// over the whole graph) against the benchmark's own `EnumMis` loop
/// that materializes each answer, both to `K` results, alternating which
/// goes first; until `until`. Returns the query layer's extra time in
/// percent of the plain loop, and the number of files compared.
fn query_overhead(setup: &Setup, until: Instant) -> (f64, usize) {
    let (mut query_s, mut plain_s, mut files) = (0.0, 0.0, 0usize);
    for (i, input) in setup.inputs.iter().enumerate() {
        if Instant::now() >= until {
            break;
        }
        let g = &input.graph;
        let via_query = || {
            let t = Instant::now();
            let n = Query::enumerate()
                .policy(ExecPolicy::fixed().with_planned(false).with_threads(1))
                .budget(mintri_core::EnumerationBudget::results(K))
                .run_local(g)
                .count();
            (t.elapsed().as_secs_f64(), n)
        };
        let via_loop = || {
            let t = Instant::now();
            let ms_graph = MsGraph::new(g);
            let mut n = 0usize;
            for answer in EnumMis::new(&ms_graph, PrintMode::UponGeneration).take(K) {
                std::hint::black_box(ms_graph.materialize(&answer));
                n += 1;
            }
            (t.elapsed().as_secs_f64(), n)
        };
        let (a, b) = if i % 2 == 0 {
            let a = via_query();
            (a, via_loop())
        } else {
            let b = via_loop();
            (via_query(), b)
        };
        if a.1 == b.1 {
            query_s += a.0;
            plain_s += b.0;
            files += 1;
        }
    }
    (
        100.0 * (query_s - plain_s) / plain_s.max(f64::MIN_POSITIVE),
        files,
    )
}
