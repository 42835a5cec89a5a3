//! `gnp_engine`: the paper's Fig. 7 random graphs, each enumerated to a
//! fixed result count through one shared `Engine` with the default
//! configuration and policy (all cores, unordered delivery, `Auto`).
//! Every graph is distinct, so no answer is replayed: the time goes to
//! `Extend`, the crossing oracle and the separator cursor.
//!
//! The traced run adds two passes over the same graphs: engine calls
//! wrapped in spans (traced and untraced on twin engines, for the
//! tracing overhead), and the sequential `EnumMIS` loop over an `Sgr`
//! wrapper that times every call into `MsGraph`.

use crate::trace::Tracer;
use crate::util::{improvement_pct, mean, ms, overhead_pct, quantile, us, Rng, Watchdog};
use crate::{put_setup_s, repeated_setup, Args, CorpusEntry, Report};
use mintri_chordal::{minimal_separators_with, ForestScratch};
use mintri_core::query::{CancelToken, Query};
use mintri_core::{EnumerationBudget, ExtendScratch, MsGraph, SepId};
use mintri_engine::Engine;
use mintri_graph::{Graph, Node};
use mintri_separators::MinSepState;
use mintri_sgr::{EvalScratch, Frontier, PrintMode, Sgr};
use mintri_triangulate::{is_minimal_triangulation, mcs_m_into, TriScratch, Triangulation};
use std::cell::{Cell, RefCell};
use std::collections::HashSet;
use std::time::{Duration, Instant};

/// Results enumerated per graph.
const K: usize = 200;
/// Time budget of one enumeration; the deadline adds [`SLACK`].
const BUDGET: Duration = Duration::from_secs(5);
const SLACK: Duration = Duration::from_secs(2);
/// Warm-up graphs enumerated to `K` results during set-up: fixed, outside
/// every seed's corpus, so set-up does the same work under every seed.
const WARM_UP: [(usize, f64, u64); 3] = [
    (40, 0.3, 0x5741_0001),
    (40, 0.5, 0x5741_0002),
    (50, 0.3, 0x5741_0003),
];

struct Input {
    name: String,
    graph: Graph,
}

/// Fig. 7 graphs (`n` uniform in 30..=50, `p` in {0.3, 0.5}), drawn from
/// the seed one at a time for as long as the run lasts, so throughput has
/// no cap. Fingerprints keep every graph distinct; each graph drawn is
/// recorded in the run's corpus.
struct Corpus {
    rng: Rng,
    seen: HashSet<u64>,
    entries: Vec<CorpusEntry>,
}

impl Corpus {
    fn new(seed: u64) -> Self {
        Corpus {
            rng: Rng::new(seed ^ 0x0067_6e70_5f65_6e67),
            seen: HashSet::new(),
            entries: Vec::new(),
        }
    }

    fn draw(&mut self) -> Input {
        loop {
            let n = self.rng.range(30, 50);
            let p = if self.rng.chance(0.5) { 0.3 } else { 0.5 };
            let graph = mintri_workloads::random::erdos_renyi(n, p, self.rng.next_u64());
            if self.seen.insert(mintri_engine::graph_fingerprint(&graph)) {
                let name = format!("gnp_{:03}_n{n}_p{p}", self.entries.len());
                self.entries.push(CorpusEntry::of(&name, &graph));
                return Input { name, graph };
            }
        }
    }
}

/// A fresh engine, warmed up on the [`WARM_UP`] graphs: starts the worker
/// pool and pages in the enumeration code.
fn setup() -> Result<Engine, String> {
    let engine = Engine::new();
    for (n, p, seed) in WARM_UP {
        let warm = mintri_workloads::random::erdos_renyi(n, p, seed);
        let got = engine
            .run(
                &warm,
                Query::enumerate().budget(EnumerationBudget::results(K)),
            )
            .count();
        if got == 0 {
            return Err("warm-up enumeration produced nothing".into());
        }
    }
    Ok(engine)
}

/// One graph through the engine, as the benchmark saw it.
struct Op {
    first: Option<Duration>,
    wall: Duration,
    /// Times of each result from the operation's start.
    at: Vec<Duration>,
    results: Vec<Triangulation>,
    completed: bool,
    cancelled: bool,
}

fn run_op(engine: &Engine, g: &Graph, watchdog: &Watchdog) -> Op {
    let cancel = CancelToken::new();
    let query = Query::enumerate()
        .budget(EnumerationBudget::results_or_time(K, BUDGET))
        .cancel_token(cancel.clone());
    let t0 = Instant::now();
    watchdog.arm(cancel, t0 + BUDGET + SLACK);
    let mut response = engine.run(g, query);
    let mut at = Vec::with_capacity(K);
    let mut results = Vec::with_capacity(K);
    for item in response.by_ref() {
        at.push(t0.elapsed());
        if let Some(t) = item.into_triangulation() {
            results.push(t);
        }
    }
    let wall = t0.elapsed();
    watchdog.disarm();
    let outcome = response.outcome();
    Op {
        first: at.first().copied(),
        wall,
        at,
        results,
        completed: outcome.completed,
        cancelled: outcome.cancelled,
    }
}

/// Output checks of one operation: the right number of results, all
/// distinct, and a seeded sample that is a minimal triangulation.
/// Returns the quality improvement (width %, fill %) of the best result
/// over the first. An operation cancelled at its deadline, or one that
/// spent its whole time budget short of `K` results, is a deadline
/// overrun, not a wrong answer.
fn check(op: &Op, input: &Input, rng: &mut Rng, report: &mut Report) -> Option<(f64, f64)> {
    let short = op.results.len() != K && !op.completed;
    if op.cancelled || op.wall > BUDGET + SLACK || (short && op.wall >= BUDGET) {
        report.fail("deadline_overrun");
        return None;
    }
    if short {
        report.wrong_answer(format!(
            "{}: {} results, expected {K}",
            input.name,
            op.results.len()
        ));
        return None;
    }
    let mut seen = HashSet::with_capacity(op.results.len());
    for t in &op.results {
        let mut fill = t.fill.clone();
        fill.sort_unstable();
        if !seen.insert(fill) {
            report.wrong_answer(format!(
                "{}: a triangulation was delivered twice",
                input.name
            ));
            return None;
        }
    }
    let sample = &op.results[rng.range(0, op.results.len() - 1)];
    if !is_minimal_triangulation(&input.graph, &sample.graph) {
        report.wrong_answer(format!(
            "{}: sampled result is not a minimal triangulation",
            input.name
        ));
        return None;
    }
    Some(improvement(&op.results))
}

/// Tables 1–2: how much the best of the results improves on the first,
/// in width and in fill, as percentages of the first.
fn improvement(results: &[Triangulation]) -> (f64, f64) {
    let first = &results[0];
    let (w0, f0) = (first.width() as f64, first.fill_count() as f64);
    let wmin = results.iter().map(|t| t.width()).min().unwrap_or(0) as f64;
    let fmin = results.iter().map(|t| t.fill_count()).min().unwrap_or(0) as f64;
    (improvement_pct(w0, wmin), improvement_pct(f0, fmin))
}

pub fn run(args: &Args) -> Result<Report, String> {
    let (engine, setup_times) = repeated_setup(setup)?;
    let mut corpus = Corpus::new(args.seed);
    let mut report = Report::default();
    if args.trace {
        traced(args, &mut corpus, &mut report);
        report.corpus = corpus.entries;
        return Ok(report);
    }
    let watchdog = Watchdog::new();
    let mut rng = Rng::new(args.seed ^ 0x0063_6865_636b);
    let (mut ttfr, mut gaps, mut walls) = (Vec::new(), Vec::new(), Vec::new());
    let (mut width, mut fill) = (Vec::new(), Vec::new());
    let mut results = 0usize;
    let start = Instant::now();
    while start.elapsed() < args.measure_for() {
        let input = corpus.draw();
        report.attempted += 1;
        let op = run_op(&engine, &input.graph, &watchdog);
        walls.push(op.wall);
        results += op.results.len();
        if let Some(f) = op.first {
            ttfr.push(ms(f));
        }
        gaps.extend(op.at.windows(2).map(|w| us(w[1] - w[0])));
        if let Some((w, f)) = check(&op, &input, &mut rng, &mut report) {
            width.push(w);
            fill.push(f);
        }
    }
    report.corpus = corpus.entries;
    drop(engine);
    let rss = crate::util::vm_hwm_mb("self").ok_or("cannot read own peak RSS")?;
    let busy: f64 = walls.iter().map(Duration::as_secs_f64).sum();
    let mut wall_ms: Vec<f64> = walls.iter().map(|&d| ms(d)).collect();
    put_setup_s(&mut report, setup_times, setup)?;
    let m = &mut report.metrics;
    m.put_n("results_per_s", results as f64 / busy, "1/s", results);
    m.put_n("ttfr_ms_p50", quantile(&mut ttfr, 0.5), "ms", ttfr.len());
    m.put_n("delay_us_p50", quantile(&mut gaps, 0.5), "us", gaps.len());
    m.put_n("delay_us_p99", quantile(&mut gaps, 0.99), "us", gaps.len());
    m.put_n(
        "request_ms_p50",
        quantile(&mut wall_ms, 0.5),
        "ms",
        wall_ms.len(),
    );
    m.put_n(
        "request_ms_p90",
        quantile(&mut wall_ms, 0.9),
        "ms",
        wall_ms.len(),
    );
    m.put_n(
        "requests_per_s",
        walls.len() as f64 / busy,
        "1/s",
        walls.len(),
    );
    m.put("peak_rss_mb", rss, "MB");
    report.note("quality", crate::quality_note(&width, &fill));
    Ok(report)
}

/// Counts and times of calls into `MsGraph`, taken by [`Timed`].
#[derive(Default)]
struct Calls {
    pulls: Cell<u64>,
    pull_ns: Cell<u64>,
    crossing: Cell<u64>,
    crossing_ns: Cell<u64>,
    extends: Cell<u64>,
    extend_ns: Cell<u64>,
    /// Every [`SAMPLE_EVERY`]-th `Extend` input, replayed later through
    /// the kernel's three stages.
    sampled: RefCell<Vec<Vec<SepId>>>,
}

const SAMPLE_EVERY: u64 = 8;

fn add(cell: &Cell<u64>, v: u64) {
    cell.set(cell.get() + v);
}

/// An `Sgr` that forwards to `MsGraph` and times each call.
struct Timed<'a> {
    inner: &'a MsGraph<'a>,
    calls: &'a Calls,
}

impl Sgr for Timed<'_> {
    type Node = SepId;
    type NodeCursor = MinSepState;
    type Scratch = ExtendScratch;

    fn start_nodes(&self) -> MinSepState {
        self.inner.start_nodes()
    }

    fn next_node(&self, cursor: &mut MinSepState) -> Option<SepId> {
        let t = Instant::now();
        let v = self.inner.next_node(cursor);
        add(&self.calls.pull_ns, t.elapsed().as_nanos() as u64);
        add(&self.calls.pulls, 1);
        v
    }

    fn edge(&self, u: &SepId, v: &SepId) -> bool {
        self.inner.edge(u, v)
    }

    fn extend(&self, base: &[SepId]) -> Vec<SepId> {
        self.inner.extend(base)
    }

    fn edge_with(&self, u: &SepId, v: &SepId, ws: &mut ExtendScratch) -> bool {
        let t = Instant::now();
        let r = self.inner.edge_with(u, v, ws);
        add(&self.calls.crossing_ns, t.elapsed().as_nanos() as u64);
        add(&self.calls.crossing, 1);
        r
    }

    fn extend_with(&self, base: &[SepId], out: &mut Vec<SepId>, ws: &mut ExtendScratch) {
        let t = Instant::now();
        self.inner.extend_with(base, out, ws);
        add(&self.calls.extend_ns, t.elapsed().as_nanos() as u64);
        add(&self.calls.extends, 1);
        if self.calls.extends.get().is_multiple_of(SAMPLE_EVERY) {
            self.calls.sampled.borrow_mut().push(base.to_vec());
        }
    }
}

/// Per-layer totals of the layer pass, summed over graphs.
#[derive(Default)]
struct Layers {
    graphs: usize,
    results: usize,
    pulls: u64,
    pull_us: f64,
    crossing: u64,
    crossing_us: f64,
    extends: u64,
    extend_us: f64,
    new_answers: usize,
    memo_cached: usize,
    memo_computed: usize,
    /// µs per `Extend` in each kernel stage, over the replayed samples.
    stage_us: [f64; 3],
    stage_samples: usize,
    frontier_us: f64,
    batches: usize,
    pairs: usize,
}

/// The sequential `EnumMIS` loop (as `mintri_sgr::EnumMis` runs it) over
/// a timing wrapper, to `K` results, with a span per frontier drain and
/// per evaluated batch.
fn layer_pass(input: &Input, op: u64, tracer: &mut Tracer, layers: &mut Layers) {
    let ms_graph = MsGraph::new(&input.graph);
    let calls = Calls::default();
    let sgr = Timed {
        inner: &ms_graph,
        calls: &calls,
    };
    let root = tracer.open("layers", op, None);
    let mut frontier = Frontier::new(&sgr, PrintMode::UponGeneration);
    let mut scratch: EvalScratch<&Timed> = EvalScratch::default();
    let mut results = 0usize;
    let mut absorb_ns = 0u64;
    let mut drain_self_ns = 0u64;
    while results < K {
        if let Some(_answer) = frontier.pop_emission() {
            results += 1;
            continue;
        }
        if frontier.is_complete() {
            break;
        }
        let pulls_before = calls.pull_ns.get();
        let t = Instant::now();
        let batch = frontier.drain_pending();
        let end = Instant::now();
        tracer.record("frontier.drain", op, Some(root), t, end);
        drain_self_ns += (end - t).as_nanos() as u64 - (calls.pull_ns.get() - pulls_before);
        layers.batches += 1;
        layers.pairs += batch.len();
        let t = Instant::now();
        for pair in &batch {
            let produced = pair.evaluate_with(frontier.sgr(), &mut scratch);
            let a = Instant::now();
            frontier.absorb_one(produced.then_some(&mut scratch.out));
            absorb_ns += a.elapsed().as_nanos() as u64;
        }
        tracer.record("batch", op, Some(root), t, Instant::now());
    }
    tracer.close(root);
    let stats = ms_graph.stats();
    layers.graphs += 1;
    layers.results += results;
    layers.pulls += calls.pulls.get();
    layers.pull_us += calls.pull_ns.get() as f64 / 1e3;
    layers.crossing += calls.crossing.get();
    layers.crossing_us += calls.crossing_ns.get() as f64 / 1e3;
    layers.extends += calls.extends.get();
    layers.extend_us += calls.extend_ns.get() as f64 / 1e3;
    layers.new_answers += frontier.stats().answers;
    layers.memo_cached += stats.crossing_cached;
    layers.memo_computed += stats.crossing_computed;
    layers.frontier_us += (drain_self_ns + absorb_ns) as f64 / 1e3;
    replay_extends(&input.graph, &ms_graph, &calls.sampled.borrow(), layers);
}

/// Replays recorded `Extend` inputs through the kernel's stages —
/// saturate `φ`, MCS-M, separator extraction — timing each.
fn replay_extends(g: &Graph, ms_graph: &MsGraph<'_>, inputs: &[Vec<SepId>], layers: &mut Layers) {
    let mut gphi = Graph::new(0);
    let mut members: Vec<Node> = Vec::new();
    let mut tri = TriScratch::default();
    let mut forest = ForestScratch::default();
    for base in inputs {
        let t0 = Instant::now();
        gphi.clone_from(g);
        for &id in base {
            gphi.saturate_with(&ms_graph.separator(id), &mut members);
        }
        let t1 = Instant::now();
        mcs_m_into(&gphi, &mut tri);
        for &(u, v) in &tri.fill {
            gphi.add_edge(u, v);
        }
        let t2 = Instant::now();
        let mut seps = 0usize;
        minimal_separators_with(&gphi, &tri.peo, &mut forest, |_| seps += 1);
        let t3 = Instant::now();
        std::hint::black_box(seps);
        layers.stage_us[0] += us(t1 - t0);
        layers.stage_us[1] += us(t2 - t1);
        layers.stage_us[2] += us(t3 - t2);
        layers.stage_samples += 1;
    }
}

/// The traced run: engine spans with their overhead, then the layer
/// pass, splitting the measured time between them.
fn traced(args: &Args, corpus: &mut Corpus, report: &mut Report) {
    let origin = Instant::now();
    let mut tracer = Tracer::new(origin);
    let watchdog = Watchdog::new();
    let mut rng = Rng::new(args.seed ^ 0x0063_6865_636b);
    // Twin engines, so the traced and the untraced call of a graph do the
    // same (cold) work; which runs first alternates.
    let (plain, spanned) = (Engine::new(), Engine::new());
    let (mut overhead, mut setup_us) = (Vec::new(), Vec::new());
    let mut dispatch = [0usize; 5];
    let mut quality = Vec::new();
    let engine_share = args.measure_for().mul_f64(0.4);
    let mut engine_inputs = Vec::new();
    while origin.elapsed() < engine_share {
        let (i, input) = (engine_inputs.len(), corpus.draw());
        report.attempted += 1;
        let mut spanned_run = || {
            spanned_op(
                &spanned,
                &input,
                i as u64,
                &watchdog,
                &mut tracer,
                &mut setup_us,
                &mut dispatch,
            )
        };
        let spanned_first = (i % 2 == 1).then(&mut spanned_run);
        let op = run_op(&plain, &input.graph, &watchdog);
        let traced_ms = spanned_first.unwrap_or_else(spanned_run);
        overhead.push((ms(op.wall), traced_ms));
        if let Some(q) = check(&op, &input, &mut rng, report) {
            quality.push(q);
        }
        engine_inputs.push(input);
    }
    let mut layers = Layers::default();
    while origin.elapsed() < args.measure_for() {
        let op = (engine_inputs.len() + layers.graphs) as u64;
        layer_pass(&corpus.draw(), op, &mut tracer, &mut layers);
    }
    let per_graph = |v: f64| v / layers.graphs.max(1) as f64;
    let per_extend_to_op =
        |stage: f64| stage / layers.stage_samples.max(1) as f64 * per_graph(layers.extends as f64);
    let m = &mut report.metrics;
    let g = layers.graphs;
    m.put_n(
        "separators.pulls",
        per_graph(layers.pulls as f64),
        "count/op",
        g,
    );
    m.put_n("separators.pull_us", per_graph(layers.pull_us), "us/op", g);
    m.put_n(
        "crossing.queries",
        per_graph(layers.crossing as f64),
        "count/op",
        g,
    );
    m.put_n("crossing.us", per_graph(layers.crossing_us), "us/op", g);
    let lookups = (layers.memo_cached + layers.memo_computed).max(1) as f64;
    m.put_n(
        "crossing.memo_hit_ratio",
        layers.memo_cached as f64 / lookups,
        "ratio",
        g,
    );
    m.put_n(
        "extend.calls",
        per_graph(layers.extends as f64),
        "count/op",
        g,
    );
    m.put_n(
        "extend.per_result",
        layers.extends as f64 / layers.results.max(1) as f64,
        "count",
        g,
    );
    m.put_n("extend.us", per_graph(layers.extend_us), "us/op", g);
    m.put_n(
        "extend.new_answer_ratio",
        layers.new_answers as f64 / layers.extends.max(1) as f64,
        "ratio",
        g,
    );
    let n = layers.stage_samples;
    m.put_n(
        "extend.saturate_us",
        per_extend_to_op(layers.stage_us[0]),
        "us/op",
        n,
    );
    m.put_n(
        "extend.mcsm_us",
        per_extend_to_op(layers.stage_us[1]),
        "us/op",
        n,
    );
    m.put_n(
        "extend.extract_us",
        per_extend_to_op(layers.stage_us[2]),
        "us/op",
        n,
    );
    m.put_n("frontier.us", per_graph(layers.frontier_us), "us/op", g);
    m.put_n(
        "frontier.pairs_per_batch",
        layers.pairs as f64 / layers.batches.max(1) as f64,
        "count",
        layers.batches,
    );
    m.put_n("engine.setup_us", mean(&setup_us), "us", setup_us.len());
    let ops = setup_us.len().max(1) as f64;
    for (k, name) in DISPATCH_NAMES.iter().enumerate() {
        m.put_n(
            &format!("engine.dispatch.{name}"),
            dispatch[k] as f64 / ops,
            "count/op",
            setup_us.len(),
        );
    }
    let plan: Vec<(f64, usize)> = engine_inputs
        .iter()
        .map(|i| {
            let t = Instant::now();
            let atoms = mintri_core::Plan::of(&i.graph).atoms.len();
            (ms(t.elapsed()), atoms)
        })
        .collect();
    m.put_n(
        "plan.ms",
        mean(&plan.iter().map(|p| p.0).collect::<Vec<_>>()),
        "ms",
        plan.len(),
    );
    m.put_n(
        "plan.atoms",
        mean(&plan.iter().map(|p| p.1 as f64).collect::<Vec<_>>()),
        "count",
        plan.len(),
    );
    let width: Vec<f64> = quality.iter().map(|q| q.0).collect();
    let fill: Vec<f64> = quality.iter().map(|q| q.1).collect();
    m.put_n("width_improve_pct", mean(&width), "%", width.len());
    m.put_n("fill_improve_pct", mean(&fill), "%", fill.len());
    m.put_n(
        "trace.overhead_pct",
        overhead_pct(&overhead),
        "%",
        overhead.len(),
    );
    m.put_n(
        "trace.unattributed_pct",
        tracer.unattributed_pct(&["op", "layers"]),
        "%",
        tracer.len(),
    );
    report.tracer = Some(tracer);
}

/// Dispatch kinds by their wire names, in the order metrics list them.
pub const DISPATCH_NAMES: [&str; 5] = ["replay", "hydrate", "parallel", "sequential", "ranked"];

/// One engine call with spans: `op` over `engine.run` (until the
/// `Response` is back), `first_result` and `drain`. Returns its wall ms.
fn spanned_op(
    engine: &Engine,
    input: &Input,
    op: u64,
    watchdog: &Watchdog,
    tracer: &mut Tracer,
    setup_us: &mut Vec<f64>,
    dispatch: &mut [usize; 5],
) -> f64 {
    let root = tracer.open("op", op, None);
    let t0 = Instant::now();
    let cancel = CancelToken::new();
    watchdog.arm(cancel.clone(), t0 + BUDGET + SLACK);
    let mut response = engine.run(
        &input.graph,
        Query::enumerate()
            .budget(EnumerationBudget::results_or_time(K, BUDGET))
            .cancel_token(cancel),
    );
    let t1 = Instant::now();
    let mut first = None;
    let mut last = t1;
    for _item in response.by_ref() {
        last = Instant::now();
        first.get_or_insert(last);
    }
    watchdog.disarm();
    let first = first.unwrap_or(last);
    tracer.record("engine.run", op, Some(root), t0, t1);
    tracer.record("first_result", op, Some(root), t1, first);
    tracer.record("drain", op, Some(root), first, last);
    tracer.close(root);
    setup_us.push(us(t1 - t0));
    for d in &response.outcome().dispatch {
        if let Some(k) = DISPATCH_NAMES.iter().position(|n| *n == d.kind.name()) {
            dispatch[k] += 1;
        }
    }
    ms(last - t0)
}
