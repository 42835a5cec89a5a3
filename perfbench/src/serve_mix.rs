//! `serve_mix`: a live `mintri serve` with a fresh store directory and a
//! session cap below the mix's working set, driven closed loop over two
//! keep-alive connections by a seeded mix of requests:
//!
//! * collected enumerate, best-k and decompose queries on the 22 TPC-H
//!   join graphs (small, so most repeats are answer replays);
//! * NDJSON-streamed full enumerations of cycles C9–C11 (cold once, then
//!   replayed or hydrated from the store after eviction);
//! * NDJSON-streamed `stats` scans of mid-size G(n,p) graphs (per-result
//!   server timestamps, so the delay between results is visible);
//! * fresh `/v1/graphs` uploads followed by a cold query.
//!
//! Most of the time goes to the JSON codec, HTTP, session replay and the
//! store, not to `Extend`.

use crate::gnp::DISPATCH_NAMES;
use crate::http::{Conn, Reply};
use crate::trace::Tracer;
use crate::util::{
    geomean, grouped_quantile, improvement_pct, mean, median, ms, quantile, us, vm_hwm_mb, Rng,
};
use crate::{put_setup_s, repeated_setup, Args, CorpusEntry, Report};
use mintri_core::json::{graph_to_json, JsonValue};
use mintri_graph::Graph;
use mintri_telemetry::promtext;
use mintri_triangulate::is_minimal_triangulation;
use mintri_workloads::{all_queries, random};
use std::collections::HashMap;
use std::io::ErrorKind;
use std::path::Path;
use std::process::{Child, Command, Stdio};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// Warm sessions the server may keep: below the mix's working set of
/// graphs, so sessions are evicted, spilled and hydrated.
const MAX_SESSIONS: usize = 8;
/// Closed-loop clients, each on its own keep-alive connection.
const CONNECTIONS: usize = 2;
/// Server-side budget of every query (`timeout_ms`); the client gives
/// up [`CLIENT_SLACK`] later.
const TIMEOUT_MS: u64 = 10_000;
const CLIENT_SLACK: Duration = Duration::from_secs(2);
const CYCLES: [usize; 3] = [9, 10, 11];
const GNP_POOL: usize = 16;
/// Instance seed of the streamed G(n,p) graphs: one fixed set, so the
/// delay between results does not hinge on which graphs a seed drew.
const GNP_POOL_SEED: u64 = 2017;
/// Nodes of the pooled G(n,p) graphs (p = 0.3) and of uploaded graphs.
const GNP_NODES: usize = 28;
const UPLOAD_NODES: usize = 18;
/// Results of each streamed G(n,p) scan and of each collected query.
const GNP_RESULTS: usize = 200;
const COLLECTED_RESULTS: usize = 100;
const DECOMPOSITIONS: usize = 20;
const BEST_K: usize = 3;

#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
enum Kind {
    TpchEnumerate,
    TpchBestK,
    TpchDecompose,
    CycleStream,
    GnpStream,
    Upload,
    ColdQuery,
}

impl Kind {
    fn name(self) -> &'static str {
        match self {
            Kind::TpchEnumerate => "tpch_enumerate",
            Kind::TpchBestK => "tpch_best_k",
            Kind::TpchDecompose => "tpch_decompose",
            Kind::CycleStream => "cycle_stream",
            Kind::GnpStream => "gnp_stream",
            Kind::Upload => "upload",
            Kind::ColdQuery => "cold_query",
        }
    }
}

/// The running server; killed and reaped on drop.
struct Server {
    child: Child,
    addr: String,
}

impl Server {
    fn boot(args: &Args, dir: &Path) -> Result<Server, String> {
        let _ = std::fs::remove_dir_all(dir);
        std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
        let log_path = dir.join("server.log");
        let log = std::fs::File::create(&log_path).map_err(|e| e.to_string())?;
        let child = Command::new(&args.mintri)
            .args(["serve", "--addr", "127.0.0.1:0", "--workers", "2"])
            .args(["--max-sessions", &MAX_SESSIONS.to_string()])
            .arg("--store-dir")
            .arg(dir.join("store"))
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(log)
            .spawn()
            .map_err(|e| format!("cannot start mintri serve: {e}"))?;
        let mut server = Server {
            child,
            addr: String::new(),
        };
        let until = Instant::now() + Duration::from_secs(20);
        while Instant::now() < until {
            let text = std::fs::read_to_string(&log_path).unwrap_or_default();
            // The address line counts once it is complete: the log may be
            // read while the server is still writing it.
            let line = text
                .split("listening on http://")
                .nth(1)
                .and_then(|rest| rest.split_once('\n'));
            if let Some((addr, _)) = line {
                server.addr = addr.trim().to_string();
                return Ok(server);
            }
            if let Ok(Some(status)) = server.child.try_wait() {
                return Err(format!("mintri serve exited ({status}): {text}"));
            }
            std::thread::sleep(Duration::from_millis(2));
        }
        Err("mintri serve did not report its address".into())
    }

    fn peak_rss_mb(&self) -> Option<f64> {
        vm_hwm_mb(&self.child.id().to_string())
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

/// An uploaded graph.
struct Uploaded {
    name: String,
    id: String,
    graph: Graph,
}

struct Setup {
    server: Server,
    tpch: Vec<Uploaded>,
    cycles: Vec<Uploaded>,
    gnp: Vec<Uploaded>,
    /// Widths of the best-k winners of each TPC-H graph from the
    /// exhaustive scan (`"ranked": false`), by graph id.
    expected_best: HashMap<String, Vec<Option<u64>>>,
    corpus: Vec<CorpusEntry>,
}

fn deadline() -> Instant {
    Instant::now() + Duration::from_millis(TIMEOUT_MS) + CLIENT_SLACK
}

fn upload(conn: &mut Conn, name: &str, g: &Graph) -> Result<Uploaded, String> {
    let reply = conn
        .request("POST", "/v1/graphs", &graph_to_json(g), deadline())
        .map_err(|e| format!("upload {name}: {e}"))?;
    let doc = JsonValue::parse(&reply.body).map_err(|e| format!("upload {name}: {e:?}"))?;
    let id = doc
        .get("graph_id")
        .and_then(JsonValue::as_str)
        .ok_or_else(|| format!("upload {name}: no graph_id in {}", reply.body))?;
    Ok(Uploaded {
        name: name.to_string(),
        id: id.to_string(),
        graph: g.clone(),
    })
}

fn setup(args: &Args, rep: &mut usize) -> Result<Setup, String> {
    *rep += 1;
    let dir = args.work.join(format!("serve-{}-{rep}", args.seed));
    let server = Server::boot(args, &dir)?;
    let mut conn = Conn::connect(&server.addr).map_err(|e| e.to_string())?;
    let mut rng = Rng::new(GNP_POOL_SEED);
    let mut tpch = Vec::new();
    for q in all_queries() {
        tpch.push(upload(&mut conn, &format!("TPCH_Q{}", q.number), &q.graph)?);
    }
    let mut cycles = Vec::new();
    for n in CYCLES {
        cycles.push(upload(&mut conn, &format!("C{n}"), &Graph::cycle(n))?);
    }
    let mut gnp = Vec::new();
    for i in 0..GNP_POOL {
        let g = random::erdos_renyi(GNP_NODES, 0.3, rng.next_u64());
        gnp.push(upload(
            &mut conn,
            &format!("gnp_{i}_n{GNP_NODES}_p0.3"),
            &g,
        )?);
    }
    // Warm-up, and the reference answers: the exhaustive best-k scan of
    // every TPC-H graph.
    let mut expected_best = HashMap::new();
    for g in &tpch {
        let spec = query_spec(
            &g.id,
            &format!("{{\"type\":\"best_k\",\"k\":{BEST_K},\"cost\":\"width\"}}"),
            None,
            false,
            false,
            ",\"policy\":{\"mode\":\"fixed\",\"ranked\":false}",
        );
        let reply = conn
            .request("POST", "/v1/query", &spec, deadline())
            .map_err(|e| format!("reference best-k of {}: {e}", g.name))?;
        let doc = JsonValue::parse(&reply.body).map_err(|e| format!("{e:?}"))?;
        let items = doc
            .get("items")
            .and_then(JsonValue::as_array)
            .ok_or("reference best-k answer has no items")?;
        expected_best.insert(g.id.clone(), widths(items.iter()));
    }
    let corpus = tpch
        .iter()
        .chain(&cycles)
        .chain(&gnp)
        .map(|u| CorpusEntry::of(&u.name, &u.graph))
        .collect();
    Ok(Setup {
        server,
        tpch,
        cycles,
        gnp,
        expected_best,
        corpus,
    })
}

/// A `/v1/query` body. `extra` is spliced into the query object.
fn query_spec(
    id: &str,
    task: &str,
    max: Option<usize>,
    stream: bool,
    trace: bool,
    extra: &str,
) -> String {
    let budget = max.map_or(String::new(), |n| {
        format!(",\"budget\":{{\"max_results\":{n}}}")
    });
    format!(
        "{{\"graph_id\":\"{id}\",\"stream\":{stream},\"timeout_ms\":{TIMEOUT_MS},\"query\":{{\"task\":{task}{budget},\"trace\":{trace}{extra}}}}}"
    )
}

/// A result item reduced to its timing-free content, so replayed and
/// cold answers compare equal: fill edges sorted, `elapsed_us` dropped.
fn item_key(item: &JsonValue) -> String {
    let num = |k: &str| item.get(k).and_then(JsonValue::as_u64).unwrap_or(u64::MAX);
    let pairs = |k: &str| -> Vec<(u64, u64)> {
        let mut v: Vec<(u64, u64)> = item
            .get(k)
            .and_then(JsonValue::as_array)
            .unwrap_or(&[])
            .iter()
            .filter_map(|e| {
                let e = e.as_array()?;
                Some((e.first()?.as_u64()?, e.get(1)?.as_u64()?))
            })
            .collect();
        v.sort_unstable();
        v
    };
    let bags: Vec<Vec<u64>> = item
        .get("bags")
        .and_then(JsonValue::as_array)
        .unwrap_or(&[])
        .iter()
        .map(|b| {
            b.as_array()
                .unwrap_or(&[])
                .iter()
                .filter_map(JsonValue::as_u64)
                .collect()
        })
        .collect();
    format!(
        "w{} f{} {:?} {:?} {:?}",
        num("width"),
        num("fill"),
        pairs("fill_edges"),
        bags,
        pairs("edges")
    )
}

fn widths<'a>(items: impl Iterator<Item = &'a JsonValue>) -> Vec<Option<u64>> {
    items
        .map(|i| i.get("width").and_then(JsonValue::as_u64))
        .collect()
}

/// What one request produced, as the client saw it.
#[derive(Default)]
struct Sample {
    kind: Option<Kind>,
    start: Option<Instant>,
    traced: bool,
    ok: bool,
    wall_ms: f64,
    ttfb_ms: f64,
    first_item_ms: Option<f64>,
    items: usize,
    /// Server-side gaps between streamed `stats` records, µs.
    gaps: Vec<f64>,
    quality: Option<(f64, f64)>,
    body_kb: f64,
    parse_us: f64,
    replay: bool,
    dispatch: [usize; 5],
    /// From the server's trace: query start until the response stream
    /// was handed back (`first_result` opens).
    engine_setup_us: Option<f64>,
}

/// Shared across the client threads: the first (cold) answer of each
/// query, which later replays must equal.
type FirstAnswers = Mutex<HashMap<String, Vec<String>>>;

/// Everything one client thread saw.
#[derive(Default)]
struct ClientLog {
    samples: Vec<Sample>,
    failures: Vec<String>,
    wrong: Vec<String>,
    tracer: Option<Tracer>,
}

fn catalan(n: usize) -> usize {
    (0..n).fold(1usize, |c, i| c * 2 * (2 * i + 1) / (i + 2))
}

/// The mix, by share of operations. The shares are an assumption, not a
/// measured or published traffic profile. They are set so that every
/// request class gets at least 100 requests in a 30 s run, which its
/// 90th percentile needs; the latency metrics weigh each class the same
/// whatever its share (see [`per_class`]).
fn pick(rng: &mut Rng) -> Kind {
    match rng.range(0, 99) {
        0..=34 => Kind::TpchEnumerate,
        35..=54 => Kind::TpchBestK,
        55..=74 => Kind::TpchDecompose,
        75..=80 => Kind::CycleStream,
        81..=87 => Kind::GnpStream,
        _ => Kind::Upload,
    }
}

/// A figure of each request class, combined by geometric mean so that
/// every class counts the same, whatever its share of the mix: a change
/// that halves one class's latency moves the result by the same factor
/// however often the mix sends that class. `figure` gives a class's
/// figure and the samples behind it, or `None` when it has none; such
/// classes are left out. Returns the mean and the sample count of the
/// smallest class behind it.
fn per_class(
    samples: &[Sample],
    kinds: &[Kind],
    figure: impl Fn(&[&Sample]) -> Option<(f64, usize)>,
) -> (f64, usize) {
    let (mut figures, mut fewest) = (Vec::new(), usize::MAX);
    for &kind in kinds {
        let class: Vec<&Sample> = samples.iter().filter(|s| s.kind == Some(kind)).collect();
        if let Some((value, n)) = figure(&class) {
            figures.push(value);
            fewest = fewest.min(n);
        }
    }
    (
        geomean(&figures),
        if figures.is_empty() { 0 } else { fewest },
    )
}

/// The `q`-quantile of `values` with its sample count; `None` if empty.
fn quantile_of(mut values: Vec<f64>, q: f64) -> Option<(f64, usize)> {
    (!values.is_empty()).then(|| (quantile(&mut values, q), values.len()))
}

const ALL_KINDS: [Kind; 7] = [
    Kind::TpchEnumerate,
    Kind::TpchBestK,
    Kind::TpchDecompose,
    Kind::CycleStream,
    Kind::GnpStream,
    Kind::Upload,
    Kind::ColdQuery,
];
const STREAMED: [Kind; 2] = [Kind::CycleStream, Kind::GnpStream];

/// Parses a body (every NDJSON line, or the one document), timing it.
fn parse_body(
    reply: &Reply,
    streamed: bool,
    sample: &mut Sample,
) -> Result<Vec<JsonValue>, String> {
    let t = Instant::now();
    let docs: Result<Vec<JsonValue>, _> = if streamed {
        reply.body.lines().map(JsonValue::parse).collect()
    } else {
        JsonValue::parse(&reply.body).map(|d| vec![d])
    };
    sample.parse_us = us(t.elapsed());
    sample.body_kb = reply.body.len() as f64 / 1024.0;
    docs.map_err(|e| format!("unparsable body: {e:?}"))
}

/// Reads the outcome fields every query answer carries.
fn read_outcome(doc: &JsonValue, sample: &mut Sample) -> Result<(), String> {
    let outcome = doc.get("outcome").ok_or("answer without an outcome")?;
    if outcome.get("cancelled").and_then(JsonValue::as_bool) == Some(true) {
        return Err("deadline_overrun".into());
    }
    sample.replay = doc.get("is_replay").and_then(JsonValue::as_bool) == Some(true);
    for d in outcome
        .get("dispatch")
        .and_then(JsonValue::as_array)
        .unwrap_or(&[])
    {
        let kind = d.get("kind").and_then(JsonValue::as_str);
        let Some(idx) = DISPATCH_NAMES.iter().position(|n| Some(*n) == kind) else {
            continue;
        };
        sample.dispatch[idx] += 1;
    }
    if let Some(query) = outcome
        .get("trace")
        .and_then(|t| t.get("children"))
        .and_then(JsonValue::as_array)
        .and_then(|c| c.first())
    {
        let start = query
            .get("start_us")
            .and_then(JsonValue::as_u64)
            .unwrap_or(0);
        let first = query
            .get("children")
            .and_then(JsonValue::as_array)
            .unwrap_or(&[])
            .iter()
            .find(|c| c.get("name").and_then(JsonValue::as_str) == Some("first_result"))
            .and_then(|c| c.get("start_us")?.as_u64());
        sample.engine_setup_us = first.map(|f| f.saturating_sub(start) as f64);
    }
    Ok(())
}

struct Client<'a> {
    setup: &'a Setup,
    first: &'a FirstAnswers,
    conn: Option<Conn>,
    rng: Rng,
    log: ClientLog,
    op: u64,
}

impl Client<'_> {
    fn conn(&mut self) -> Result<&mut Conn, String> {
        if self.conn.is_none() {
            self.conn = Some(Conn::connect(&self.setup.server.addr).map_err(|e| e.to_string())?);
        }
        Ok(self.conn.as_mut().expect("connected above"))
    }

    /// One request, with its sample and spans. A transport error or a
    /// non-2xx status is a failure; the connection is reopened after an
    /// error.
    fn send(
        &mut self,
        kind: Kind,
        path: &str,
        body: &str,
        traced: bool,
    ) -> (Sample, Option<Reply>) {
        let mut sample = Sample {
            kind: Some(kind),
            start: Some(Instant::now()),
            traced,
            ..Sample::default()
        };
        let result = match self.conn() {
            Ok(conn) => conn.request("POST", path, body, deadline()),
            Err(e) => Err(std::io::Error::other(e)),
        };
        let reply = match result {
            Ok(r) => r,
            Err(e) => {
                self.conn = None;
                let kind = match e.kind() {
                    ErrorKind::TimedOut | ErrorKind::WouldBlock => "deadline_overrun",
                    _ => "transport_error",
                };
                self.log.failures.push(kind.into());
                sample.wall_ms = sample.start.map_or(0.0, |t0| ms(t0.elapsed()));
                return (sample, None);
            }
        };
        sample.wall_ms = ms(reply.wall);
        sample.ttfb_ms = ms(reply.ttfb);
        if !(200..300).contains(&reply.status) {
            self.log.failures.push(format!("http_{}", reply.status));
            return (sample, None);
        }
        sample.ok = true;
        (sample, Some(reply))
    }

    fn wrong(&mut self, what: String) {
        self.log.failures.push("wrong_answer".into());
        self.log.wrong.push(what);
    }

    /// Runs one operation of the mix (an upload is followed by a cold
    /// query, recorded as two requests).
    fn operate(&mut self, kind: Kind, traced: bool) {
        self.op += 1;
        let setup = self.setup;
        let (target, spec, streamed) = match kind {
            Kind::TpchEnumerate | Kind::TpchBestK | Kind::TpchDecompose => {
                let g = &setup.tpch[self.rng.range(0, setup.tpch.len() - 1)];
                let (task, max) = match kind {
                    Kind::TpchEnumerate => (
                        "{\"type\":\"enumerate\"}".to_string(),
                        Some(COLLECTED_RESULTS),
                    ),
                    Kind::TpchBestK => (
                        format!("{{\"type\":\"best_k\",\"k\":{BEST_K},\"cost\":\"width\"}}"),
                        None,
                    ),
                    _ => ("{\"type\":\"decompose\"}".to_string(), Some(DECOMPOSITIONS)),
                };
                (g, query_spec(&g.id, &task, max, false, traced, ""), false)
            }
            Kind::CycleStream => {
                let g = &setup.cycles[self.rng.range(0, setup.cycles.len() - 1)];
                (
                    g,
                    query_spec(&g.id, "{\"type\":\"enumerate\"}", None, true, traced, ""),
                    true,
                )
            }
            Kind::GnpStream => {
                let g = &setup.gnp[self.rng.range(0, setup.gnp.len() - 1)];
                (
                    g,
                    query_spec(
                        &g.id,
                        "{\"type\":\"stats\"}",
                        Some(GNP_RESULTS),
                        true,
                        traced,
                        "",
                    ),
                    true,
                )
            }
            Kind::Upload | Kind::ColdQuery => return self.upload_and_query(traced),
        };
        self.query(kind, target, &spec, streamed, traced);
    }

    /// Sends a query, checks its answer and files the sample. A cancelled
    /// query is a deadline overrun; a failed check is a wrong answer.
    fn query(&mut self, kind: Kind, target: &Uploaded, spec: &str, streamed: bool, traced: bool) {
        let (mut sample, reply) = self.send(kind, "/v1/query", spec, traced);
        if let Some(reply) = reply {
            if let Err(e) = self.check(kind, target, &reply, streamed, &mut sample) {
                if e == "deadline_overrun" {
                    self.log.failures.push(e);
                } else {
                    self.wrong(format!("{} on {}: {e}", kind.name(), target.name));
                }
                sample.ok = false;
            }
        }
        self.finish(sample);
    }

    /// Files the sample; when tracing, records its spans: `op` from the
    /// request's start to now, over the wait for the first byte, the body
    /// transfer and the JSON parse.
    fn finish(&mut self, sample: Sample) {
        if let (Some(tracer), Some(t0)) = (self.log.tracer.as_mut(), sample.start) {
            let end = Instant::now();
            let root = tracer.record("op", self.op, None, t0, end);
            let secs = |ms: f64| Duration::from_secs_f64(ms / 1e3);
            let (ttfb, wall) = (t0 + secs(sample.ttfb_ms), t0 + secs(sample.wall_ms));
            if sample.ttfb_ms > 0.0 {
                tracer.record("http.ttfb", self.op, Some(root), t0, ttfb);
                tracer.record("http.body", self.op, Some(root), ttfb, wall);
            }
            let parse = secs(sample.parse_us / 1e3);
            tracer.record(
                "json.parse",
                self.op,
                Some(root),
                end.checked_sub(parse).unwrap_or(end),
                end,
            );
        }
        self.log.samples.push(sample);
    }

    /// Parses and checks an answer, filling the sample.
    fn check(
        &mut self,
        kind: Kind,
        g: &Uploaded,
        reply: &Reply,
        streamed: bool,
        sample: &mut Sample,
    ) -> Result<(), String> {
        let docs = parse_body(reply, streamed, sample)?;
        let (items, done): (Vec<&JsonValue>, &JsonValue) = if streamed {
            let (last, rest) = docs.split_last().ok_or("empty stream")?;
            let done = last.get("done").ok_or("stream without a done line")?;
            let items = rest
                .iter()
                .map(|d| d.get("item").ok_or("stream line without an item"))
                .collect::<Result<_, _>>()?;
            sample.first_item_ms = reply.first_line.map(ms);
            (items, done)
        } else {
            let doc = &docs[0];
            let items = doc
                .get("items")
                .and_then(JsonValue::as_array)
                .ok_or("no items")?;
            (items.iter().collect(), doc)
        };
        read_outcome(done, sample)?;
        sample.items = items.len();
        let keys: Vec<String> = items.iter().map(|i| item_key(i)).collect();
        match kind {
            Kind::TpchBestK => {
                // Winners tied on width may differ between scans, so the
                // costs are compared, and a sampled winner is checked.
                if self.setup.expected_best.get(&g.id) != Some(&widths(items.iter().copied())) {
                    return Err("ranked best-k widths differ from the exhaustive scan".into());
                }
                self.sample_is_minimal(&g.graph, &items)?;
            }
            Kind::CycleStream => {
                let n = g.graph.num_nodes();
                if keys.len() != catalan(n - 2) {
                    return Err(format!(
                        "{} triangulations, Catalan({}) = {}",
                        keys.len(),
                        n - 2,
                        catalan(n - 2)
                    ));
                }
                self.same_as_first(&g.id, "enumerate", keys)?;
            }
            Kind::TpchEnumerate => {
                self.sample_is_minimal(&g.graph, &items)?;
                if completed(done) {
                    self.same_as_first(&g.id, "enumerate", keys)?;
                }
            }
            Kind::GnpStream => {
                if keys.len() != GNP_RESULTS {
                    return Err(format!("{} records, expected {GNP_RESULTS}", keys.len()));
                }
                let at: Vec<f64> = items
                    .iter()
                    .map(|i| {
                        i.get("elapsed_us")
                            .and_then(JsonValue::as_f64)
                            .unwrap_or(0.0)
                    })
                    .collect();
                sample.gaps = at.windows(2).map(|w| w[1] - w[0]).collect();
                let num =
                    |i: &JsonValue, k: &str| i.get(k).and_then(JsonValue::as_f64).unwrap_or(0.0);
                let (w0, f0) = (num(items[0], "width"), num(items[0], "fill"));
                let wmin = items
                    .iter()
                    .map(|i| num(i, "width"))
                    .fold(f64::INFINITY, f64::min);
                let fmin = items
                    .iter()
                    .map(|i| num(i, "fill"))
                    .fold(f64::INFINITY, f64::min);
                sample.quality = Some((improvement_pct(w0, wmin), improvement_pct(f0, fmin)));
            }
            Kind::TpchDecompose => {
                if keys.is_empty() || keys.len() > DECOMPOSITIONS {
                    return Err(format!("{} decompositions", keys.len()));
                }
            }
            Kind::ColdQuery => {
                if keys.len() != COLLECTED_RESULTS && !completed(done) {
                    return Err(format!(
                        "{} results, expected {COLLECTED_RESULTS}",
                        keys.len()
                    ));
                }
                let mut distinct = keys.clone();
                distinct.sort();
                distinct.dedup();
                if distinct.len() != keys.len() {
                    return Err("a triangulation was delivered twice".into());
                }
                self.sample_is_minimal(&g.graph, &items)?;
            }
            Kind::Upload => {}
        }
        Ok(())
    }

    /// A replayed answer must equal the first answer, as a set.
    fn same_as_first(&self, id: &str, task: &str, mut keys: Vec<String>) -> Result<(), String> {
        keys.sort();
        let mut first = self.first.lock().expect("no client thread panicked");
        let key = format!("{id}/{task}");
        match first.get(&key) {
            Some(cold) if *cold != keys => {
                Err("replayed answer differs from the cold answer".into())
            }
            Some(_) => Ok(()),
            None => {
                first.insert(key, keys);
                Ok(())
            }
        }
    }

    /// A seeded sample of the items is a minimal triangulation of `g`.
    fn sample_is_minimal(&mut self, g: &Graph, items: &[&JsonValue]) -> Result<(), String> {
        if items.is_empty() {
            return Err("no results".into());
        }
        let item = items[self.rng.range(0, items.len() - 1)];
        let mut h = g.clone();
        for e in item
            .get("fill_edges")
            .and_then(JsonValue::as_array)
            .unwrap_or(&[])
        {
            let e = e.as_array().unwrap_or(&[]);
            let (Some(u), Some(v)) = (
                e.first().and_then(JsonValue::as_u64),
                e.get(1).and_then(JsonValue::as_u64),
            ) else {
                return Err("malformed fill edge".into());
            };
            if u == 0 || v == 0 || u as usize > g.num_nodes() || v as usize > g.num_nodes() {
                return Err("fill edge out of range".into());
            }
            h.add_edge(u as u32 - 1, v as u32 - 1);
        }
        if !is_minimal_triangulation(g, &h) {
            return Err("sampled result is not a minimal triangulation".into());
        }
        Ok(())
    }

    /// A fresh G(n,p) upload, then a cold collected enumeration of it.
    fn upload_and_query(&mut self, traced: bool) {
        let n = UPLOAD_NODES;
        let g = random::erdos_renyi(n, 0.3, self.rng.next_u64());
        let (mut sample, reply) = self.send(Kind::Upload, "/v1/graphs", &graph_to_json(&g), false);
        let Some(reply) = reply else {
            self.finish(sample);
            return;
        };
        let parsed = parse_body(&reply, false, &mut sample);
        let id = parsed.ok().and_then(|d| {
            d[0].get("graph_id")
                .and_then(JsonValue::as_str)
                .map(str::to_string)
        });
        self.finish(sample);
        let Some(id) = id else {
            self.wrong(format!("upload of gnp_n{n}: no graph_id"));
            return;
        };
        let target = Uploaded {
            name: format!("upload_n{n}"),
            id: id.clone(),
            graph: g,
        };
        self.op += 1;
        let spec = query_spec(
            &id,
            "{\"type\":\"enumerate\"}",
            Some(COLLECTED_RESULTS),
            false,
            traced,
            "",
        );
        self.query(Kind::ColdQuery, &target, &spec, false, traced);
    }
}

/// The answer's outcome says the enumeration finished.
fn completed(doc: &JsonValue) -> bool {
    doc.get("outcome")
        .and_then(|o| o.get("completed"))
        .and_then(JsonValue::as_bool)
        == Some(true)
}

/// Drives the mix from [`CONNECTIONS`] closed-loop clients until
/// `until`. With `alternate_trace`, every other operation of a client
/// asks the server for its trace and the client records spans.
fn drive(
    setup: &Setup,
    seed: u64,
    until: Instant,
    alternate_trace: bool,
    origin: Instant,
) -> Vec<ClientLog> {
    let first: FirstAnswers = Mutex::new(HashMap::new());
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..CONNECTIONS)
            .map(|c| {
                let first = &first;
                scope.spawn(move || {
                    let mut client = Client {
                        setup,
                        first,
                        conn: None,
                        rng: Rng::new(seed ^ (0x006d_6978 + c as u64) << 8),
                        log: ClientLog {
                            tracer: alternate_trace.then(|| Tracer::new(origin)),
                            ..ClientLog::default()
                        },
                        op: (c as u64) << 32,
                    };
                    let mut i = 0u64;
                    while Instant::now() < until {
                        let kind = pick(&mut client.rng);
                        client.operate(kind, alternate_trace && i % 2 == 1);
                        i += 1;
                    }
                    client.log
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client threads do not panic"))
            .collect()
    })
}

/// `GET` a document from the server on a fresh connection.
fn get(addr: &str, path: &str) -> Result<String, String> {
    let mut conn = Conn::connect(addr).map_err(|e| e.to_string())?;
    let reply = conn
        .request("GET", path, "", deadline())
        .map_err(|e| format!("GET {path}: {e}"))?;
    if reply.status != 200 {
        return Err(format!("GET {path}: status {}", reply.status));
    }
    Ok(reply.body)
}

pub fn run(args: &Args) -> Result<Report, String> {
    let mut rep = 0;
    let (mut setup, setup_times) = repeated_setup(|| setup(args, &mut rep))?;
    let mut report = Report {
        corpus: std::mem::take(&mut setup.corpus),
        ..Report::default()
    };
    let before = args
        .trace
        .then(|| Snapshot::take(&setup.server.addr))
        .transpose()?;
    let origin = Instant::now();
    let started = Instant::now();
    let logs = drive(
        &setup,
        args.seed,
        started + args.measure_for(),
        args.trace,
        origin,
    );
    let elapsed = started.elapsed().as_secs_f64();
    let mut samples = Vec::new();
    let mut tracer = Tracer::new(origin);
    for log in logs {
        for f in &log.failures {
            report.fail(f);
        }
        for w in log.wrong {
            if report.wrong.len() < 20 {
                report.wrong.push(w);
            }
        }
        if let Some(t) = log.tracer {
            tracer.absorb(t);
        }
        samples.extend(log.samples);
    }
    report.attempted = samples.len();
    let mix: Vec<String> = ALL_KINDS
        .iter()
        .filter_map(|&kind| {
            let mut walls: Vec<f64> = samples
                .iter()
                .filter(|s| s.kind == Some(kind))
                .map(|s| s.wall_ms)
                .collect();
            (!walls.is_empty()).then(|| {
                format!(
                    "\"{}\":{{\"requests\":{},\"p50_ms\":{},\"p90_ms\":{}}}",
                    kind.name(),
                    walls.len(),
                    crate::util::number(quantile(&mut walls, 0.5)),
                    crate::util::number(quantile(&mut walls, 0.9))
                )
            })
        })
        .collect();
    report.note("mix", format!("{{{}}}", mix.join(",")));
    let quality: Vec<(f64, f64)> = samples.iter().filter_map(|s| s.quality).collect();
    let width: Vec<f64> = quality.iter().map(|q| q.0).collect();
    let fill: Vec<f64> = quality.iter().map(|q| q.1).collect();
    report.note("quality", crate::quality_note(&width, &fill));
    if args.trace {
        let before = before.expect("taken when tracing");
        let after = Snapshot::take(&setup.server.addr)?;
        layer_metrics(&mut report, &samples, &before, &after, &setup);
        report.metrics.put_n(
            "trace.unattributed_pct",
            tracer.unattributed_pct(&["op"]),
            "%",
            tracer.len(),
        );
        report.tracer = Some(tracer);
        return Ok(report);
    }
    // Streamed results per second of each streamed class's wall time.
    let (per_s, stream_items) = per_class(&samples, &STREAMED, |class| {
        let ok = class.iter().filter(|s| s.ok);
        let items: usize = ok.clone().map(|s| s.items).sum();
        let secs: f64 = ok.map(|s| s.wall_ms / 1e3).sum();
        (secs > 0.0).then(|| (items as f64 / secs, items))
    });
    let (ttfr, ttfr_n) = per_class(&samples, &STREAMED, |class| {
        quantile_of(class.iter().filter_map(|s| s.first_item_ms).collect(), 0.5)
    });
    let walls = |class: &[&Sample]| class.iter().map(|s| s.wall_ms).collect::<Vec<f64>>();
    let (p50, p50_n) = per_class(&samples, &ALL_KINDS, |c| quantile_of(walls(c), 0.5));
    let (p90, p90_n) = per_class(&samples, &ALL_KINDS, |c| quantile_of(walls(c), 0.9));
    let mut gaps: Vec<f64> = samples
        .iter()
        .flat_map(|s| s.gaps.iter().copied())
        .collect();
    let completed = samples.iter().filter(|s| s.ok).count();
    put_setup_s(&mut report, setup_times, || self::setup(args, &mut rep))?;
    let m = &mut report.metrics;
    m.put_n("results_per_s", per_s, "1/s", stream_items);
    m.put_n("ttfr_ms_p50", ttfr, "ms", ttfr_n);
    // Streamed records carry server times in whole microseconds.
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
    m.put_n("request_ms_p50", p50, "ms", p50_n);
    m.put_n("request_ms_p90", p90, "ms", p90_n);
    m.put_n(
        "requests_per_s",
        completed as f64 / elapsed,
        "1/s",
        completed,
    );
    let rss = setup
        .server
        .peak_rss_mb()
        .ok_or("cannot read the server's peak RSS")?;
    m.put("peak_rss_mb", rss, "MB");
    Ok(report)
}

/// Server counters read before and after the measured phase.
struct Snapshot {
    stats: JsonValue,
    metrics: Vec<promtext::Sample>,
}

impl Snapshot {
    fn take(addr: &str) -> Result<Snapshot, String> {
        let stats = JsonValue::parse(&get(addr, "/v1/stats")?).map_err(|e| format!("{e:?}"))?;
        let metrics = promtext::parse(&get(addr, "/v1/metrics")?)?;
        Ok(Snapshot { stats, metrics })
    }

    fn stat(&self, section: &str, key: &str) -> f64 {
        self.stats
            .get(section)
            .and_then(|s| s.get(key))
            .and_then(JsonValue::as_f64)
            .unwrap_or(0.0)
    }

    fn metric(&self, name: &str) -> f64 {
        self.metrics
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.value)
            .sum()
    }

    /// Cumulative `/v1/query` latency buckets: `(le µs, count)`.
    fn query_buckets(&self) -> Vec<(f64, f64)> {
        self.metrics
            .iter()
            .filter(|s| {
                s.name == "mintri_http_request_microseconds_bucket"
                    && s.label("endpoint") == Some("/v1/query")
            })
            .filter_map(|s| Some((s.label("le")?.parse::<f64>().ok()?, s.value)))
            .collect()
    }
}

/// The median of a histogram given as two cumulative bucket snapshots,
/// interpolating linearly inside the bucket that holds it.
fn histogram_median(before: &[(f64, f64)], after: &[(f64, f64)]) -> f64 {
    let delta: Vec<(f64, f64)> = after
        .iter()
        .map(|&(le, c)| {
            let b = before.iter().find(|x| x.0 == le).map_or(0.0, |x| x.1);
            (le, c - b)
        })
        .collect();
    let Some(&(_, total)) = delta.last() else {
        return 0.0;
    };
    let target = total / 2.0;
    let (mut lo, mut below) = (0.0, 0.0);
    for &(le, cum) in &delta {
        if cum >= target && cum > below {
            let hi = if le.is_finite() { le } else { lo };
            return lo + (hi - lo) * (target - below) / (cum - below);
        }
        if le.is_finite() {
            lo = le;
        }
        below = cum;
    }
    lo
}

fn layer_metrics(
    report: &mut Report,
    samples: &[Sample],
    before: &Snapshot,
    after: &Snapshot,
    setup: &Setup,
) {
    let queries: Vec<&Sample> = samples
        .iter()
        .filter(|s| s.ok && s.kind != Some(Kind::Upload))
        .collect();
    let q = queries.len().max(1) as f64;
    let m = &mut report.metrics;
    let setup_us: Vec<f64> = queries.iter().filter_map(|s| s.engine_setup_us).collect();
    m.put_n("engine.setup_us", mean(&setup_us), "us", setup_us.len());
    for (k, name) in DISPATCH_NAMES.iter().enumerate() {
        let n: usize = queries.iter().map(|s| s.dispatch[k]).sum();
        m.put_n(
            &format!("engine.dispatch.{name}"),
            n as f64 / q,
            "count/op",
            queries.len(),
        );
    }
    let replays = queries.iter().filter(|s| s.replay).count();
    m.put_n(
        "session.replay_ratio",
        replays as f64 / q,
        "ratio",
        queries.len(),
    );
    let d = |section: &str, key: &str| after.stat(section, key) - before.stat(section, key);
    m.put(
        "session.evictions",
        d("engine", "sessions_evicted"),
        "count",
    );
    m.put("store.hydrates", d("store", "hits"), "count");
    m.put("store.writes", d("store", "writes"), "count");
    m.put("store.bytes", d("store", "bytes"), "bytes");
    let dm = |name: &str| after.metric(name) - before.metric(name);
    m.put(
        "profile.overrides",
        dm("mintri_engine_auto_pool_overrides_total"),
        "count",
    );
    m.put(
        "profile.demotions",
        dm("mintri_engine_auto_sequential_demotions_total"),
        "count",
    );
    let best_items: usize = queries
        .iter()
        .filter(|s| s.kind == Some(Kind::TpchBestK))
        .map(|s| s.items)
        .sum();
    m.put_n(
        "ranked.expansions_per_item",
        dm("mintri_engine_ranked_expansions_total") / best_items.max(1) as f64,
        "count",
        best_items,
    );
    let decompose: Vec<&&Sample> = queries
        .iter()
        .filter(|s| s.kind == Some(Kind::TpchDecompose))
        .collect();
    let items: usize = decompose.iter().map(|s| s.items).sum();
    let wall_us: f64 = decompose.iter().map(|s| s.wall_ms * 1e3).sum();
    m.put_n(
        "treedecomp.us_per_item",
        wall_us / items.max(1) as f64,
        "us",
        items,
    );
    let kb: f64 = samples.iter().map(|s| s.body_kb).sum();
    let parse_us: f64 = samples.iter().map(|s| s.parse_us).sum();
    m.put_n(
        "json.parse_us_per_kb",
        parse_us / kb.max(f64::MIN_POSITIVE),
        "us/KB",
        samples.len(),
    );
    m.put_n(
        "json.kb_per_request",
        kb / samples.len().max(1) as f64,
        "KB",
        samples.len(),
    );
    let server_ms = histogram_median(&before.query_buckets(), &after.query_buckets()) / 1e3;
    let mut client: Vec<f64> = queries.iter().map(|s| s.wall_ms).collect();
    let client_p50 = if client.is_empty() {
        0.0
    } else {
        quantile(&mut client, 0.5)
    };
    m.put_n("http.server_ms_p50", server_ms, "ms", queries.len());
    m.put_n(
        "http.transport_ms_p50",
        client_p50 - server_ms,
        "ms",
        queries.len(),
    );
    let ttfb: Vec<f64> = queries
        .iter()
        .filter(|s| matches!(s.kind, Some(Kind::CycleStream | Kind::GnpStream)))
        .map(|s| s.ttfb_ms)
        .collect();
    m.put_n(
        "http.ttfb_ms_p50",
        if ttfb.is_empty() { 0.0 } else { median(&ttfb) },
        "ms",
        ttfb.len(),
    );
    let quality: Vec<(f64, f64)> = samples.iter().filter_map(|s| s.quality).collect();
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
    let graphs: Vec<&Graph> = setup
        .tpch
        .iter()
        .chain(&setup.cycles)
        .chain(&setup.gnp)
        .map(|u| &u.graph)
        .collect();
    let mut plan_ms = Vec::new();
    let mut atoms = Vec::new();
    for g in &graphs {
        let t = Instant::now();
        atoms.push(mintri_core::Plan::of(g).atoms.len() as f64);
        plan_ms.push(ms(t.elapsed()));
    }
    m.put_n("plan.ms", mean(&plan_ms), "ms", graphs.len());
    m.put_n("plan.atoms", mean(&atoms), "count", graphs.len());
    // Traced and untraced operations alternate; compare the median wall
    // time of each kind, weighting kinds by how often they ran.
    let mut by_kind: HashMap<Kind, [Vec<f64>; 2]> = HashMap::new();
    for s in samples.iter().filter(|s| s.ok) {
        if let Some(kind) = s.kind {
            by_kind.entry(kind).or_default()[usize::from(s.traced)].push(s.wall_ms);
        }
    }
    let (mut weighted, mut n) = (0.0, 0usize);
    for [plain, traced] in by_kind.values() {
        if !plain.is_empty() && !traced.is_empty() {
            let count = plain.len() + traced.len();
            weighted += count as f64 * median(traced) / median(plain);
            n += count;
        }
    }
    let overhead = if n == 0 {
        0.0
    } else {
        100.0 * (weighted / n as f64 - 1.0)
    };
    m.put_n("trace.overhead_pct", overhead, "%", n);
}
