//! Randomised cross-validation across crates: on hundreds of random graphs
//! and queries, the VUG pipeline, the naive enumeration and the three
//! enumeration baselines must produce the identical temporal simple path
//! graph, and the intermediate upper-bound graphs must nest correctly.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use tspg_suite::graph::fixtures::figure1_expected_tspg_edges;
use tspg_suite::prelude::*;
use tspg_suite::{baselines, core, datasets};

struct Case {
    graph: TemporalGraph,
    source: VertexId,
    target: VertexId,
    window: TimeInterval,
}

fn random_case(rng: &mut StdRng, max_vertices: u32, max_edges: usize, max_time: i64) -> Case {
    let n = rng.random_range(4..=max_vertices);
    let m = rng.random_range(6..=max_edges);
    let edges: Vec<TemporalEdge> = (0..m)
        .map(|_| {
            TemporalEdge::new(
                rng.random_range(0..n),
                rng.random_range(0..n),
                rng.random_range(1..=max_time),
            )
        })
        .filter(|e| e.src != e.dst)
        .collect();
    let graph = TemporalGraph::from_edges(n as usize, edges);
    let source = rng.random_range(0..n);
    let mut target = rng.random_range(0..n);
    if target == source {
        target = (target + 1) % n;
    }
    let begin = rng.random_range(1..=max_time / 2);
    let end = rng.random_range(begin..=max_time);
    Case { graph, source, target, window: TimeInterval::new(begin, end) }
}

#[test]
fn all_algorithms_agree_on_random_sparse_graphs() {
    let mut rng = StdRng::seed_from_u64(0xC0FFEE);
    for case_no in 0..120 {
        let case = random_case(&mut rng, 14, 70, 12);
        let expected =
            naive_tspg(&case.graph, case.source, case.target, case.window, &Budget::unlimited())
                .tspg;
        let vug = generate_tspg(&case.graph, case.source, case.target, case.window);
        assert_eq!(vug.tspg, expected, "case {case_no}: VUG vs enumeration");
        for alg in EpAlgorithm::ALL {
            let ep = run_ep(
                alg,
                &case.graph,
                case.source,
                case.target,
                case.window,
                &Budget::unlimited(),
            );
            assert_eq!(ep.tspg, expected, "case {case_no}: {alg} vs enumeration");
        }
    }
}

#[test]
fn all_algorithms_agree_on_random_dense_graphs() {
    // Denser graphs with a narrow timestamp domain maximise parallel edges
    // and temporal cycles, the hard cases for the simple-path constraint.
    let mut rng = StdRng::seed_from_u64(0xBEEF);
    for case_no in 0..40 {
        let case = random_case(&mut rng, 9, 160, 7);
        let expected =
            naive_tspg(&case.graph, case.source, case.target, case.window, &Budget::unlimited())
                .tspg;
        let vug = generate_tspg(&case.graph, case.source, case.target, case.window);
        assert_eq!(vug.tspg, expected, "case {case_no}");
        let no_tight = generate_tspg_with(
            &case.graph,
            case.source,
            case.target,
            case.window,
            &VugConfig::without_tight_ubg(),
        );
        assert_eq!(no_tight.tspg, expected, "case {case_no} (ablation)");
    }
}

#[test]
fn upper_bound_graphs_nest_and_contain_the_result() {
    let mut rng = StdRng::seed_from_u64(0xDEAD);
    for case_no in 0..80 {
        let case = random_case(&mut rng, 16, 90, 14);
        let projection = EdgeSet::from_graph(&case.graph.project(case.window));
        let es = EdgeSet::from_graph(&baselines::es_tsg(
            &case.graph,
            case.source,
            case.target,
            case.window,
        ));
        let tg = EdgeSet::from_graph(&baselines::tg_tsg(
            &case.graph,
            case.source,
            case.target,
            case.window,
        ));
        let gq = core::quick_upper_bound_graph(&case.graph, case.source, case.target, case.window);
        let gq_set = EdgeSet::from_graph(&gq);
        let gt = core::tight_upper_bound_graph(&gq, case.source, case.target);
        let gt_set = EdgeSet::from_graph(&gt);
        let tspg = generate_tspg(&case.graph, case.source, case.target, case.window).tspg;

        assert_eq!(gq_set, tg, "case {case_no}: QuickUBG == tgTSG");
        assert!(tspg.is_subset_of(&gt_set), "case {case_no}: tspG ⊆ G_t");
        assert!(gt_set.is_subset_of(&gq_set), "case {case_no}: G_t ⊆ G_q");
        assert!(gq_set.is_subset_of(&es), "case {case_no}: G_q ⊆ esTSG");
        assert!(es.is_subset_of(&projection), "case {case_no}: esTSG ⊆ projection");
    }
}

#[test]
fn every_reported_edge_lies_on_a_witness_path() {
    let mut rng = StdRng::seed_from_u64(0xFACE);
    for case_no in 0..40 {
        let case = random_case(&mut rng, 12, 60, 10);
        let tspg = generate_tspg(&case.graph, case.source, case.target, case.window).tspg;
        // Collect the union of all enumerated paths' edges and check set
        // equality in both directions (soundness and completeness).
        let enumeration = enumerate_paths(
            &case.graph,
            case.source,
            case.target,
            case.window,
            &Budget::unlimited(),
        );
        let mut union = EdgeSet::new();
        for p in &enumeration.paths {
            p.validate(case.source, case.target, case.window).unwrap();
            for e in p.edges() {
                union.insert(*e);
            }
        }
        assert_eq!(tspg, union, "case {case_no}");
    }
}

#[test]
fn batch_workloads_on_registry_datasets_are_consistent() {
    // A smoke-sized end-to-end run across the dataset registry: every query
    // must produce identical results from VUG and from EPtgTSG.
    for spec in registry().into_iter().take(3) {
        let graph = spec.generate(Scale::tiny(), 11);
        let queries = generate_workload(&graph, 8, spec.default_theta.min(8), 5).expect("workload");
        for q in &queries {
            let vug = generate_tspg(&graph, q.source, q.target, q.window);
            let ep = run_ep(
                EpAlgorithm::TgTsg,
                &graph,
                q.source,
                q.target,
                q.window,
                &Budget::unlimited(),
            );
            assert_eq!(vug.tspg, ep.tspg, "dataset {} query {q:?}", spec.id);
            assert!(
                !vug.tspg.is_empty(),
                "workload queries are reachable, so the tspG is non-empty"
            );
        }
    }
}

/// A query at the ends of the timestamp range with its exact tspG.
struct ExtremeFixture {
    name: &'static str,
    graph: TemporalGraph,
    source: VertexId,
    target: VertexId,
    window: TimeInterval,
    expected: EdgeSet,
}

/// The sentinels `τ_b − 1` and `τ_e + 1` saturate instead of wrapping, and
/// a path that arrives at `i64::MAX` cannot be extended.
fn extreme_fixtures() -> Vec<ExtremeFixture> {
    let chain = |first: Timestamp| {
        TemporalGraph::from_edges(
            3,
            vec![TemporalEdge::new(0, 1, first), TemporalEdge::new(1, 2, 5)],
        )
    };
    let (s, t, _) = figure1_query();
    let figure1 = |name, window| ExtremeFixture {
        name,
        graph: figure1_graph(),
        source: s,
        target: t,
        window,
        expected: EdgeSet::from_edges(figure1_expected_tspg_edges()),
    };
    vec![
        // 5 does not follow i64::MAX: no temporal path.
        ExtremeFixture {
            name: "0 -[i64::MAX]-> 1 -[5]-> 2 over [0, i64::MAX]",
            graph: chain(i64::MAX),
            source: 0,
            target: 2,
            window: TimeInterval::new(0, i64::MAX),
            expected: EdgeSet::new(),
        },
        figure1("Figure 1 over [0, i64::MAX]", TimeInterval::new(0, i64::MAX)),
        figure1("Figure 1 over [i64::MIN, 100]", TimeInterval::new(i64::MIN, 100)),
        ExtremeFixture {
            name: "0 -[i64::MIN]-> 1 -[5]-> 2 over [i64::MIN, 10]",
            graph: chain(i64::MIN),
            source: 0,
            target: 2,
            window: TimeInterval::new(i64::MIN, 10),
            expected: EdgeSet::from_edges(chain(i64::MIN).edges().iter().copied()),
        },
    ]
}

#[test]
fn every_algorithm_is_exact_at_the_ends_of_the_timestamp_range() {
    for fx in extreme_fixtures() {
        let (g, s, t, w) = (&fx.graph, fx.source, fx.target, fx.window);
        let naive = naive_tspg(g, s, t, w, &Budget::unlimited());
        assert!(naive.is_exact(), "{}", fx.name);
        assert_eq!(naive.tspg, fx.expected, "{}: naive enumeration", fx.name);
        assert_eq!(generate_tspg(g, s, t, w).tspg, fx.expected, "{}: VUG", fx.name);
        for alg in EpAlgorithm::ALL {
            let ep = run_ep(alg, g, s, t, w, &Budget::unlimited());
            assert_eq!(ep.tspg, fx.expected, "{}: {alg}", fx.name);
        }
        assert_eq!(
            datasets::is_reachable(g, s, t, w),
            !fx.expected.is_empty(),
            "{}: is_reachable",
            fx.name
        );
    }
}
