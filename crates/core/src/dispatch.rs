//! The one dispatch path every executor shares.
//!
//! [`Query::run_local`](crate::query::Query::run_local) and
//! `mintri_engine::Engine::run` differ only in where a stream comes
//! from: a fresh `MsGraph` locally; a warm session (replay, disk
//! hydrate, parallel or sequential run) in the engine. Everything else
//! happens here, once, in [`assemble`]: planning, the per-stream
//! dispatch decision ([`decide`]), the `atom` trace spans, the ranked
//! cost floors, product composition and the [`Response`] wiring.
//!
//! Scheduling therefore never changes answers, by construction: the
//! decision is a pure function of the plan and the thread budget, and
//! the composed emission order is the plan's odometer order whichever
//! way each stream is served.

use crate::plan::{AtomStream, ComposedStream, Plan};
use crate::query::{
    AtomDispatch, CancelToken, CostMeasure, Delivery, DispatchKind, Query, Response, Task,
    TracedStream, TriangulationStream,
};
use crate::ranked::{cost_floor, RankedAtom, RankedComposed, RankedStream};
use mintri_graph::Graph;
use mintri_sgr::{EnumMisStats, PrintMode};
use mintri_telemetry::{Counter, Histogram, SpanHandle, TraceBuilder};
use mintri_triangulate::{Triangulation, Triangulator};
use std::sync::Arc;
use std::time::Instant;

/// Decides how each stream of a query runs: one entry per atom of
/// `plan`, or a single whole-graph entry when `plan` is `None`.
///
/// The last atom — the composer's fastest-varying cursor — takes the
/// whole thread budget; every other atom runs sequentially. Ranked
/// streams are labeled [`DispatchKind::Ranked`]; the others are
/// [`DispatchKind::Parallel`] when granted more than one thread and
/// [`DispatchKind::Sequential`] otherwise.
pub fn decide(plan: Option<&Plan>, g: &Graph, ranked: bool, threads: usize) -> Vec<AtomDispatch> {
    let nodes: Vec<usize> = match plan {
        Some(plan) => plan.atoms.iter().map(|a| a.graph.num_nodes()).collect(),
        None => vec![g.num_nodes()],
    };
    let last = nodes.len().saturating_sub(1);
    nodes
        .into_iter()
        .enumerate()
        .map(|(index, nodes)| {
            let threads = if index == last { threads } else { 1 };
            let kind = if ranked {
                DispatchKind::Ranked
            } else if threads > 1 {
                DispatchKind::Parallel
            } else {
                DispatchKind::Sequential
            };
            AtomDispatch {
                index,
                nodes,
                threads,
                kind,
            }
        })
        .collect()
}

/// The metric handles the ranked gear reports into.
pub struct RankedMetrics {
    /// Bumped once per ranked query.
    pub queries: Arc<Counter>,
    /// Raw pulls the ranked frontiers paid for.
    pub expansions: Arc<Counter>,
    /// Delay from stream creation to the first ranked result.
    pub first_result_us: Arc<Histogram>,
}

/// What sets one executor apart, apart from how it opens a stream.
pub struct Executor {
    /// The executor's name on the query's trace span (the `dispatch`
    /// attribute: `"local"`, `"engine"`).
    pub name: &'static str,
    /// The query's resolved worker-thread budget.
    pub threads: usize,
    /// Where ranked queries report, when the executor keeps metrics.
    pub ranked_metrics: Option<RankedMetrics>,
}

/// One stream an executor opens for [`assemble`].
pub struct StreamRequest<'r> {
    /// The graph to enumerate: one planned atom's subgraph, or the whole
    /// query graph.
    pub graph: &'r Graph,
    /// The query's triangulation backend, shared by all its streams.
    pub triangulator: &'r Arc<dyn Triangulator>,
    /// The sequential schedule's print mode.
    pub mode: PrintMode,
    /// The order contract the stream must honor. Ranked streams always
    /// ask for [`Delivery::Deterministic`]: the ranked tie order is the
    /// production index.
    pub delivery: Delivery,
    /// Worker threads decided for this stream.
    pub threads: usize,
    /// The query's cancellation handle.
    pub cancel: &'r CancelToken,
}

/// An opened stream, plus how it was actually served when the executor
/// knows better than the decision (a replayed or hydrated cache, or a
/// sequential fallback). Ranked streams keep their `Ranked` label.
pub type OpenedStream = (Box<dyn TriangulationStream>, Option<DispatchKind>);

/// Executes `query` over `g` — the one function that turns per-atom
/// streams into a [`Response`].
///
/// Plans through `plan_of` when the policy says so (a plan that reduces
/// nothing runs as the whole graph), decides each stream's dispatch,
/// opens every stream through `open`, wraps each in its `atom` span when
/// traced and in its cost floor when ranked, and composes them: a
/// [`ComposedStream`] or [`RankedComposed`] over a reduced plan, the bare
/// stream otherwise — so an unreduced graph keeps the `EnumMIS` order and
/// counters of a plain run bit for bit.
pub fn assemble(
    g: &Graph,
    query: Query,
    executor: Executor,
    plan_of: impl FnOnce(&Graph) -> Arc<Plan>,
    mut open: impl FnMut(StreamRequest<'_>) -> OpenedStream,
) -> Response<'static> {
    let Query {
        task,
        triangulator,
        mode,
        budget,
        policy,
        trace,
        cancel,
    } = query;
    let measure = match task {
        Task::BestK { cost, .. } if policy.ranked => Some(cost),
        _ => None,
    };
    let ranked_metrics = executor.ranked_metrics.filter(|_| measure.is_some());
    if let Some(m) = &ranked_metrics {
        m.queries.inc();
    }
    let tracer = trace.then(TraceBuilder::new);
    let query_span = tracer.as_ref().map(|t| {
        let span = t.root_span("query");
        span.attr("task", task.name());
        span.attr("dispatch", executor.name);
        span
    });
    let plan = if policy.planned {
        let span = query_span.as_ref().map(|q| q.child("plan"));
        let plan = plan_of(g);
        if let Some(span) = span {
            span.attr("atoms", plan.atoms.len().to_string());
            span.attr("unreduced", plan.is_unreduced().to_string());
            span.finish();
        }
        Some(plan).filter(|p| !p.is_unreduced())
    } else {
        None
    };
    let mut dispatch = decide(plan.as_deref(), g, measure.is_some(), executor.threads);
    let triangulator: Arc<dyn Triangulator> = Arc::from(triangulator);
    let delivery = match measure {
        Some(_) => Delivery::Deterministic,
        None => policy.delivery,
    };
    let mut streams = Vec::with_capacity(dispatch.len());
    for d in &mut dispatch {
        let graph = plan.as_ref().map_or(g, |p| &p.atoms[d.index].graph);
        let (stream, served) = open(StreamRequest {
            graph,
            triangulator: &triangulator,
            mode,
            delivery,
            threads: d.threads,
            cancel: &cancel,
        });
        if let (Some(kind), None) = (served, measure) {
            d.kind = kind;
        }
        streams.push(traced(stream, query_span.as_ref(), d));
    }
    let response = match measure {
        None => {
            let stream: Box<dyn TriangulationStream> = match &plan {
                Some(plan) => {
                    let children = plan
                        .atoms
                        .iter()
                        .zip(streams)
                        .map(|(atom, stream)| AtomStream {
                            stream,
                            old_of: atom.old_of.clone(),
                        })
                        .collect();
                    Box::new(ComposedStream::new(g.clone(), children))
                }
                None => streams.pop().expect("one whole-graph stream"),
            };
            Response::over_stream(task, budget, cancel, stream)
        }
        Some(measure) => {
            let expansions = ranked_metrics.as_ref().map(|m| &m.expansions);
            let floored = |graph: &Graph, stream| {
                let ranked = RankedStream::over(stream, measure, cost_floor(graph, measure));
                match expansions {
                    Some(counter) => ranked.with_expansion_counter(Arc::clone(counter)),
                    None => ranked,
                }
            };
            let stream: Box<dyn TriangulationStream> = match &plan {
                Some(plan) => {
                    let width_const = match measure {
                        CostMeasure::Width => plan.chordal_width(g),
                        CostMeasure::Fill => 0,
                    };
                    let children = plan
                        .atoms
                        .iter()
                        .zip(streams)
                        .map(|(atom, stream)| RankedAtom {
                            stream: floored(&atom.graph, stream),
                            old_of: atom.old_of.clone(),
                        })
                        .collect();
                    Box::new(RankedComposed::new(
                        g.clone(),
                        measure,
                        width_const,
                        children,
                    ))
                }
                None => Box::new(floored(g, streams.pop().expect("one whole-graph stream"))),
            };
            let stream: Box<dyn TriangulationStream> = match ranked_metrics {
                Some(m) => Box::new(FirstResultTimed::new(stream, m.first_result_us)),
                None => stream,
            };
            Response::over_ranked_stream(task, budget, cancel, stream)
        }
    }
    .with_dispatch(dispatch);
    match (tracer, query_span) {
        (Some(t), Some(s)) => response.with_trace(t, s),
        _ => response,
    }
}

/// Wraps `stream` in a [`TracedStream`] under an `atom` span when the
/// query is traced; the untraced path returns the stream unchanged. The
/// `dispatch` attribute is the same [`DispatchKind`] the outcome
/// reports (`ranked` streams then count the frontier's expansions).
fn traced(
    stream: Box<dyn TriangulationStream>,
    query_span: Option<&SpanHandle>,
    d: &AtomDispatch,
) -> Box<dyn TriangulationStream> {
    match query_span {
        Some(parent) => {
            let span = parent.child("atom");
            span.attr("index", d.index.to_string());
            span.attr("nodes", d.nodes.to_string());
            span.attr("dispatch", d.kind.name());
            Box::new(TracedStream::new(stream, span))
        }
        None => stream,
    }
}

/// Records the delay from ranked-stream creation to its first emitted
/// result — how fast the best answer surfaces, however big the space.
/// Two clock reads per stream and one histogram write: the hot path
/// stays write-only.
struct FirstResultTimed {
    inner: Box<dyn TriangulationStream>,
    created: Instant,
    hist: Option<Arc<Histogram>>,
}

impl FirstResultTimed {
    fn new(inner: Box<dyn TriangulationStream>, hist: Arc<Histogram>) -> Self {
        FirstResultTimed {
            inner,
            created: Instant::now(),
            hist: Some(hist),
        }
    }
}

impl TriangulationStream for FirstResultTimed {
    fn next_tri(&mut self) -> Option<Triangulation> {
        let tri = self.inner.next_tri();
        if tri.is_some() {
            if let Some(hist) = self.hist.take() {
                hist.record_duration(self.created.elapsed());
            }
        }
        tri
    }

    fn finished(&self) -> bool {
        self.inner.finished()
    }

    fn enum_stats(&self) -> Option<EnumMisStats> {
        self.inner.enum_stats()
    }

    fn is_replay(&self) -> bool {
        self.inner.is_replay()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_last_atom_takes_the_thread_budget() {
        // C4 and C5 glued at vertex 3 → two atoms.
        let g = Graph::from_edges(
            8,
            &[
                (0, 1),
                (1, 2),
                (2, 3),
                (3, 0),
                (3, 4),
                (4, 5),
                (5, 6),
                (6, 7),
                (7, 3),
            ],
        );
        let plan = Plan::of(&g);
        let split = |ranked, threads| -> Vec<(DispatchKind, usize)> {
            decide(Some(&plan), &g, ranked, threads)
                .iter()
                .map(|d| (d.kind, d.threads))
                .collect()
        };
        use DispatchKind::{Parallel, Ranked, Sequential};
        assert_eq!(split(false, 4), vec![(Sequential, 1), (Parallel, 4)]);
        assert_eq!(split(false, 1), vec![(Sequential, 1), (Sequential, 1)]);
        assert_eq!(split(true, 4), vec![(Ranked, 1), (Ranked, 4)]);
        let whole = decide(None, &g, false, 3);
        assert_eq!(whole.len(), 1);
        assert_eq!((whole[0].nodes, whole[0].threads), (8, 3));
        // A chordal graph plans to zero enumerated atoms.
        let path = Graph::path(4);
        assert!(decide(Some(&Plan::of(&path)), &path, false, 4).is_empty());
    }
}
