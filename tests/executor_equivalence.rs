//! Executor equivalence against ground truth: the engine (1 and 2+
//! threads, cold and session-warm) answers exactly what
//! `Query::run_local` answers — the same set under
//! `Delivery::Unordered`, the same sequence bit for bit under
//! `Delivery::Deterministic` — and that answer is checked against the
//! brute-force oracle (n ≤ 6) and the closed-form counts: C_n has
//! Catalan(n−2) minimal triangulations, and chained cycles the product
//! of their cycles' Catalan numbers.

use mintri::core::BruteForce;
use mintri::prelude::*;
use mintri::workloads::random::chained_cycles;
use proptest::prelude::*;

type Edges = Vec<Vec<(Node, Node)>>;

/// A random graph on `3..=max_n` nodes with independent edge bits.
fn graph_strategy(max_n: usize) -> impl Strategy<Value = Graph> {
    (3usize..=max_n).prop_flat_map(|n| {
        let m = n * (n - 1) / 2;
        proptest::collection::vec(any::<bool>(), m).prop_map(move |bits| {
            let mut g = Graph::new(n);
            let mut k = 0;
            for u in 0..n as u32 {
                for v in (u + 1)..n as u32 {
                    if bits[k] {
                        g.add_edge(u, v);
                    }
                    k += 1;
                }
            }
            g
        })
    })
}

/// Drains one response into the full edge list of each triangulation —
/// a faithful identity for both set and order comparisons.
fn drain(resp: Response<'_>) -> Edges {
    resp.filter_map(QueryItem::into_triangulation)
        .map(|t| t.graph.edges())
        .collect()
}

fn sorted(mut v: Edges) -> Edges {
    v.sort();
    v
}

/// The oracle's answer set, sorted.
fn brute_force(g: &Graph) -> Edges {
    sorted(
        BruteForce::minimal_triangulations(g)
            .iter()
            .map(Graph::edges)
            .collect(),
    )
}

fn catalan(n: usize) -> usize {
    (0..n).fold(1, |c, k| c * 2 * (2 * k + 1) / (k + 2))
}

/// Runs `g` through `run_local` and through a fresh engine per entry of
/// `threads`, cold and then session-warm (the second round replays),
/// under both delivery contracts; asserts they all agree and returns the
/// answer set.
fn assert_executors_agree(g: &Graph, threads: &[usize]) -> Edges {
    let det = ExecPolicy::default().with_delivery(Delivery::Deterministic);
    let local = drain(Query::enumerate().run_local(g));
    let local_det = drain(Query::enumerate().policy(det).run_local(g));
    assert_eq!(local, local_det, "run_local is always the sequential order");
    let unplanned = ExecPolicy::default().with_planned(false);
    assert_eq!(
        sorted(drain(Query::enumerate().policy(unplanned).run_local(g))),
        sorted(local.clone()),
        "planning changed the answer set"
    );
    for &threads in threads {
        let engine = Engine::with_config(EngineConfig {
            threads,
            ..EngineConfig::default()
        });
        for round in ["cold", "session-warm"] {
            let unordered = drain(engine.run(g, Query::enumerate()));
            assert_eq!(
                sorted(unordered),
                sorted(local.clone()),
                "engine unordered ({threads} threads, {round}) changed the set"
            );
            let ordered = drain(engine.run(g, Query::enumerate().policy(det)));
            assert_eq!(
                ordered, local,
                "engine deterministic ({threads} threads, {round}) changed the order"
            );
        }
    }
    local
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Every executor equals the brute-force oracle on random graphs,
    /// sequential engine.
    #[test]
    fn executors_match_brute_force_on_random_graphs(g in graph_strategy(6)) {
        let answers = assert_executors_agree(&g, &[1]);
        prop_assert_eq!(sorted(answers), brute_force(&g));
    }

    /// The same with a parallel worker pool, where the last atom runs on
    /// the engine's threads.
    #[test]
    fn executors_match_brute_force_on_random_graphs_parallel(g in graph_strategy(6)) {
        let answers = assert_executors_agree(&g, &[4]);
        prop_assert_eq!(sorted(answers), brute_force(&g));
    }
}

/// C_n has Catalan(n−2) minimal triangulations, on every executor; the
/// small cycles also match the brute-force oracle.
#[test]
fn cycles_yield_catalan_many_results() {
    for n in 3..=9 {
        let g = Graph::cycle(n);
        let answers = assert_executors_agree(&g, &[1, 4]);
        assert_eq!(answers.len(), catalan(n - 2), "C{n}");
        if n <= 6 {
            let oracle = BruteForce::minimal_triangulations(&g);
            assert_eq!(answers.len(), oracle.len(), "C{n} vs brute force");
        }
    }
}

/// Chained cycles decompose into one atom per cycle, so the composed
/// odometer — and the engine's per-atom thread grant — drive the run;
/// the count is the product of the cycles' Catalan numbers.
#[test]
fn executors_agree_on_chained_cycles() {
    for shape in [&[4usize, 6][..], &[4, 5, 6], &[5, 5]] {
        let answers = assert_executors_agree(&chained_cycles(shape), &[1, 4]);
        let expected: usize = shape.iter().map(|&len| catalan(len - 2)).product();
        assert_eq!(answers.len(), expected, "{shape:?}");
    }
}

/// Ranked best-k keeps its answer contract on both executors: the same
/// winners in the same order, cold and session-warm, equal to the
/// exhaustive scan's.
#[test]
fn best_k_agrees_across_executors_on_chained_cycles() {
    let g = chained_cycles(&[4, 5, 6]);
    let best_k = || Query::best_k(7, CostMeasure::Fill);
    let fills = |resp: Response<'_>| -> Edges {
        resp.filter_map(QueryItem::into_triangulation)
            .map(|t| t.fill)
            .collect()
    };
    let local = fills(best_k().run_local(&g));
    assert_eq!(local.len(), 7);
    let exhaustive = fills(
        best_k()
            .policy(ExecPolicy::default().with_ranked(false))
            .run_local(&g),
    );
    assert_eq!(local, exhaustive, "ranked and exhaustive winners differ");
    let engine = Engine::with_config(EngineConfig {
        threads: 4,
        ..EngineConfig::default()
    });
    for round in ["cold", "session-warm"] {
        assert_eq!(
            fills(engine.run(&g, best_k())),
            local,
            "engine best-k winners diverged ({round})"
        );
        // Drain once so the second round replays every atom.
        let _ = engine.run(&g, Query::enumerate()).count();
    }
}
