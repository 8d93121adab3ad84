//! End-to-end pipeline tests: condensation, membership queries, reports,
//! the stock algorithms' correctness table and phase attribution
//! (`stock_*`), and the engine composition battery (`composition_*`) —
//! every stock stage list plus a set of legal custom compositions must
//! produce the Tarjan partition on every corpus graph at 1/2/4 threads,
//! and illegal compositions must be rejected up front.

use swscc::core::instrument::Phase;
use swscc::graph::datasets::Dataset;
use swscc::graph::gen::{bowtie, erdos_renyi, watts_strogatz, BowtieConfig};
use swscc::{
    detect_scc, run_pipeline, Algorithm, CsrGraph, Pipeline, PipelineError, PivotStrategy,
    RunGuard, SccConfig,
};

fn kahn_is_acyclic(dag: &CsrGraph) -> bool {
    let mut indeg: Vec<usize> = dag.nodes().map(|v| dag.in_degree(v)).collect();
    let mut queue: Vec<u32> = dag.nodes().filter(|&v| indeg[v as usize] == 0).collect();
    let mut seen = 0usize;
    while let Some(u) = queue.pop() {
        seen += 1;
        for &v in dag.out_neighbors(u) {
            indeg[v as usize] -= 1;
            if indeg[v as usize] == 0 {
                queue.push(v);
            }
        }
    }
    seen == dag.num_nodes()
}

#[test]
fn condensation_is_always_a_dag() {
    for d in [Dataset::Livej, Dataset::Baidu, Dataset::CaRoad] {
        let g = d.generate(0.05, 42);
        let (r, _) = detect_scc(&g, Algorithm::Method2, &SccConfig::default());
        let dag = r.condensation(&g);
        assert_eq!(dag.num_nodes(), r.num_components());
        assert!(
            kahn_is_acyclic(&dag),
            "{} condensation has a cycle",
            d.name()
        );
    }
}

#[test]
fn condensation_preserves_cross_edges() {
    let g = Dataset::Flickr.generate(0.03, 11);
    let (r, _) = detect_scc(&g, Algorithm::Method1, &SccConfig::default());
    let dag = r.condensation(&g);
    // every original cross-component edge appears in the condensation
    for (u, v) in g.edges() {
        if !r.same_component(u, v) {
            assert!(
                dag.has_edge(r.component(u), r.component(v)),
                "cross edge {u}->{v} missing from condensation"
            );
        }
    }
}

#[test]
fn membership_queries_consistent() {
    let g = Dataset::Baidu.generate(0.05, 3);
    let (r, _) = detect_scc(&g, Algorithm::Method2, &SccConfig::default());
    assert!(r.check_dense());
    let sizes = r.component_sizes();
    assert_eq!(sizes.iter().sum::<usize>(), g.num_nodes());
    // members() round-trips with component()
    let c = r.component(0);
    let members = r.members(c);
    assert!(members.contains(&0));
    assert!(members.iter().all(|&m| r.component(m) == c));
    assert_eq!(members.len(), sizes[c as usize]);
}

#[test]
fn report_phase_accounting_covers_all_nodes() {
    for algo in Algorithm::parallel() {
        let g = Dataset::Livej.generate(0.05, 42);
        let (_, report) = detect_scc(&g, algo, &SccConfig::with_threads(2));
        let resolved: usize = report.phase_resolved.iter().map(|(_, n)| n).sum();
        assert_eq!(resolved, g.num_nodes(), "{} loses nodes", algo.name());
        assert!(report.total_time.as_nanos() > 0);
    }
}

#[test]
fn method2_wcc_increases_initial_tasks() {
    // The §3.3 effect: Method 2's WCC phase seeds far more work items than
    // Method 1's color scan.
    let g = Dataset::Flickr.generate(0.1, 42);
    let cfg = SccConfig::with_threads(1);
    let (_, rep1) = detect_scc(&g, Algorithm::Method1, &cfg);
    let (_, rep2) = detect_scc(&g, Algorithm::Method2, &cfg);
    assert!(
        rep2.initial_tasks >= 10 * rep1.initial_tasks.max(1),
        "WCC did not multiply task parallelism: method1={} method2={}",
        rep1.initial_tasks,
        rep2.initial_tasks
    );
}

#[test]
fn method2_trim_resolves_majority_on_small_world() {
    // Fig. 8 shape: data-parallel phases (trim + peel + trim') account for
    // the overwhelming majority of nodes on small-world graphs.
    let g = Dataset::Livej.generate(0.1, 42);
    let (_, report) = detect_scc(&g, Algorithm::Method2, &SccConfig::default());
    let data_parallel = report.resolved_in(Phase::ParTrim)
        + report.resolved_in(Phase::ParFwbw)
        + report.resolved_in(Phase::ParTrim2);
    assert!(
        data_parallel as f64 >= 0.9 * g.num_nodes() as f64,
        "only {data_parallel}/{} resolved in phase 1",
        g.num_nodes()
    );
}

#[test]
fn patents_resolved_entirely_by_trim() {
    // §5: "the SCC structure of this graph was identified by the Trim
    // operation".
    let g = Dataset::Patents.generate(0.1, 42);
    let (_, report) = detect_scc(&g, Algorithm::Method2, &SccConfig::default());
    assert_eq!(report.resolved_in(Phase::ParTrim), g.num_nodes());
    assert_eq!(report.resolved_in(Phase::RecurFwbw), 0);
}

#[test]
fn task_log_limit_respected_end_to_end() {
    let g = Dataset::Baidu.generate(0.05, 42);
    let cfg = SccConfig {
        task_log_limit: 7,
        ..SccConfig::with_threads(1)
    };
    let (_, report) = detect_scc(&g, Algorithm::Method2, &cfg);
    assert!(report.task_log.len() <= 7);
    assert!(!report.task_log.is_empty());
}

#[test]
fn sequential_oracles_report_shape() {
    let g = Dataset::Orkut.generate(0.03, 42);
    for algo in [Algorithm::Tarjan, Algorithm::Kosaraju, Algorithm::Pearce] {
        let (r, report) = detect_scc(&g, algo, &SccConfig::default());
        assert!(r.num_components() > 0);
        assert!(report.phase_times.is_empty());
        assert_eq!(report.initial_tasks, 0);
    }
}

#[test]
fn algorithm_names_round_trip() {
    for a in Algorithm::all() {
        assert_eq!(Algorithm::from_name(a.name()), Some(a));
    }
    assert_eq!(Algorithm::from_name("bogus"), None);
}

// ---------------------------------------------------------------------------
// Stock algorithms: correctness table and phase attribution (`stock_*`)
// ---------------------------------------------------------------------------

/// Every algorithm that runs as a stock pipeline.
const STOCK_ALGORITHMS: [Algorithm; 6] = [
    Algorithm::FwBw,
    Algorithm::Coloring,
    Algorithm::Baseline,
    Algorithm::Method1,
    Algorithm::Method2,
    Algorithm::Multistep,
];

/// Hand-built shapes: the empty graph, a self-loop, cycles chained by
/// bridges, a bowtie with a satellite pair, a small-world hub with
/// satellites, pairs, and tendrils.
fn small_shapes() -> Vec<CsrGraph> {
    vec![
        CsrGraph::from_edges(0, &[]),
        CsrGraph::from_edges(1, &[(0, 0)]),
        CsrGraph::from_edges(3, &[(0, 1), (1, 0), (2, 2)]),
        CsrGraph::from_edges(6, &[(0, 1), (1, 2), (2, 0), (2, 3), (3, 4), (4, 3), (4, 5)]),
        // two 3-cycles joined by a bridge, plus an OUT node
        CsrGraph::from_edges(
            7,
            &[
                (0, 1),
                (1, 2),
                (2, 0),
                (2, 3),
                (3, 4),
                (4, 5),
                (5, 3),
                (5, 6),
            ],
        ),
        // two 3-cycles joined by a bridge, plus a disconnected pair
        CsrGraph::from_edges(
            8,
            &[
                (0, 1),
                (1, 2),
                (2, 0),
                (3, 4),
                (4, 5),
                (5, 3),
                (2, 3),
                (6, 7),
            ],
        ),
        // chain of 2-cycles: (0,1) -> (2,3) -> (4,5)
        CsrGraph::from_edges(
            6,
            &[
                (0, 1),
                (1, 0),
                (1, 2),
                (2, 3),
                (3, 2),
                (3, 4),
                (4, 5),
                (5, 4),
            ],
        ),
        // giant 5-cycle, IN node, OUT node, 2-cycle satellite
        CsrGraph::from_edges(
            9,
            &[
                (0, 1),
                (1, 2),
                (2, 3),
                (3, 4),
                (4, 0),
                (5, 0),
                (4, 6),
                (6, 7),
                (7, 8),
                (8, 7),
            ],
        ),
        // giant 4-cycle + OUT satellite 3-cycle + OUT pair + tendrils
        CsrGraph::from_edges(
            12,
            &[
                (0, 1),
                (1, 2),
                (2, 3),
                (3, 0),
                (3, 4),
                (4, 5),
                (5, 6),
                (6, 4),
                (0, 7),
                (7, 8),
                (8, 7),
                (9, 0),
                (0, 10),
                (10, 11),
            ],
        ),
        // a pair, a 3-cycle, another pair, and a dangling chain
        CsrGraph::from_edges(
            10,
            &[
                (0, 1),
                (1, 0),
                (2, 3),
                (3, 4),
                (4, 2),
                (5, 6),
                (6, 5),
                (7, 8),
                (8, 9),
            ],
        ),
    ]
}

/// Uniform random multigraphs: for each `(seed, count, node bound, edge
/// factor)` family, `count` graphs with `n < bound` nodes and fewer than
/// `factor * n` edges.
fn random_graphs() -> Vec<CsrGraph> {
    use rand::rngs::SmallRng;
    use rand::{RngExt, SeedableRng};
    let families: [(u64, usize, usize, usize); 6] = [
        (41, 10, 150, 5),
        (43, 10, 150, 5),
        (47, 10, 150, 5),
        (53, 8, 120, 4),
        (79, 15, 150, 5),
        (83, 12, 200, 4),
    ];
    let mut graphs = Vec::new();
    for (seed, count, bound, factor) in families {
        let mut rng = SmallRng::seed_from_u64(seed);
        for _ in 0..count {
            let n = rng.random_range(1..bound);
            let m = rng.random_range(0..factor * n);
            let edges: Vec<_> = (0..m)
                .map(|_| (rng.random_range(0..n) as u32, rng.random_range(0..n) as u32))
                .collect();
            graphs.push(CsrGraph::from_edges(n, &edges));
        }
    }
    graphs
}

#[test]
fn stock_algorithms_match_tarjan() {
    let graphs: Vec<CsrGraph> = small_shapes().into_iter().chain(random_graphs()).collect();
    for (i, g) in graphs.iter().enumerate() {
        let want = detect_scc(g, Algorithm::Tarjan, &SccConfig::default()).0;
        for algo in STOCK_ALGORITHMS {
            for threads in 1..=4 {
                let (r, report) = detect_scc(g, algo, &SccConfig::with_threads(threads));
                let name = algo.name();
                assert_eq!(
                    r.canonical_labels(),
                    want.canonical_labels(),
                    "{name} disagrees with tarjan on graph {i} ({threads} threads)"
                );
                let resolved: usize = report.phase_resolved.iter().map(|(_, n)| n).sum();
                assert_eq!(
                    resolved,
                    g.num_nodes(),
                    "{name} phase accounting must cover all nodes on graph {i}"
                );
            }
        }
    }
}

#[test]
fn stock_baseline_dag_fully_trimmed() {
    // On a DAG the trim phase must resolve everything; the recursive
    // phase gets no work (the Patents observation, §5).
    let g = CsrGraph::from_edges(5, &[(4, 3), (3, 2), (2, 1), (1, 0), (4, 1)]);
    let (r, report) = detect_scc(&g, Algorithm::Baseline, &SccConfig::with_threads(2));
    assert_eq!(r.num_components(), 5);
    assert_eq!(report.resolved_in(Phase::ParTrim), 5);
    assert_eq!(report.resolved_in(Phase::RecurFwbw), 0);
    assert_eq!(report.initial_tasks, 0);
}

#[test]
fn stock_baseline_queue_stats_populated() {
    let g = CsrGraph::from_edges(4, &[(0, 1), (1, 0), (2, 3), (3, 2)]);
    let (_, report) = detect_scc(&g, Algorithm::Baseline, &SccConfig::with_threads(1));
    assert!(report.queue.tasks_executed >= 1);
    assert_eq!(
        report.initial_tasks, 1,
        "one color 0 partition seeds phase 2"
    );
}

#[test]
fn stock_fwbw_every_node_resolved_on_dag() {
    // Worst case for pure FW-BW: a DAG means one task per node.
    let g = CsrGraph::from_edges(50, &(0..49u32).map(|i| (i, i + 1)).collect::<Vec<_>>());
    let (r, report) = detect_scc(&g, Algorithm::FwBw, &SccConfig::with_threads(2));
    assert_eq!(r.num_components(), 50);
    assert_eq!(report.resolved_in(Phase::RecurFwbw), 50);
    assert_eq!(report.resolved_in(Phase::ParTrim), 0, "no trim ran");
    // every singleton cost its own task
    assert!(report.queue.tasks_executed >= 50);
}

#[test]
fn stock_method1_giant_scc_resolved_in_parallel_phase() {
    // 50-cycle dominates a 100-node graph: Par-FWBW must claim it.
    let mut edges: Vec<(u32, u32)> = (0..50u32).map(|i| (i, (i + 1) % 50)).collect();
    for i in 50..100u32 {
        edges.push((0, i)); // OUT tendrils
    }
    let g = CsrGraph::from_edges(100, &edges);
    let (r, report) = detect_scc(&g, Algorithm::Method1, &SccConfig::with_threads(2));
    assert_eq!(r.largest_component_size(), 50);
    assert_eq!(report.resolved_in(Phase::ParFwbw), 50);
    // tendrils go to the first trim
    assert_eq!(report.resolved_in(Phase::ParTrim), 50);
    assert!(report.fwbw_trials >= 1);
}

#[test]
fn stock_method1_post_peel_pair_resolved() {
    // giant {0,1,2}; IN chain 3 -> 4 -> 0 trims first; the OUT pair
    // 5 <-> 6 survives trim and peel and is resolved in phase 2.
    let g = CsrGraph::from_edges(
        7,
        &[
            (0, 1),
            (1, 2),
            (2, 0),
            (0, 5),
            (5, 6),
            (6, 5),
            (3, 4),
            (4, 0),
        ],
    );
    let (r, report) = detect_scc(&g, Algorithm::Method1, &SccConfig::with_threads(2));
    // components: giant {0,1,2}, pair {5,6}, singletons {3} and {4}
    assert_eq!(r.num_components(), 4);
    let mut sizes = r.component_sizes();
    sizes.sort_unstable();
    assert_eq!(sizes, vec![1, 1, 2, 3]);
    let total: usize = report.phase_resolved.iter().map(|(_, n)| n).sum();
    assert_eq!(total, 7);
}

#[test]
fn stock_method2_wcc_splits_satellites_into_tasks() {
    // giant 3-cycle; 8 satellite 3-cycles hanging off node 0 (OUT
    // side). 3-cycles survive Trim and Trim2, so they must reach the
    // WCC step, which splits them into 8 independent work items.
    // Pivot = MaxDegreeProduct lands deterministically on hub node 0.
    let mut edges: Vec<(u32, u32)> = vec![(0, 1), (1, 2), (2, 0)];
    let mut next = 3u32;
    for _ in 0..8 {
        edges.push((0, next)); // attach
        edges.push((next, next + 1));
        edges.push((next + 1, next + 2));
        edges.push((next + 2, next));
        next += 3;
    }
    let g = CsrGraph::from_edges(next as usize, &edges);
    let cfg = SccConfig {
        pivot: PivotStrategy::MaxDegreeProduct,
        ..SccConfig::with_threads(2)
    };
    let (r, report) = detect_scc(&g, Algorithm::Method2, &cfg);
    assert_eq!(r.num_components(), 9);
    assert_eq!(report.resolved_in(Phase::ParFwbw), 3, "peel got the giant");
    // Each satellite 3-cycle is a separate WCC => a separate task.
    assert_eq!(report.initial_tasks, 8);
    assert_eq!(report.resolved_in(Phase::RecurFwbw), 24);
}

#[test]
fn stock_method2_trim2_contributes() {
    // Pair chain hanging off a giant cycle, plus a pendant (node 7)
    // that makes node 0 the unambiguous degree-product pivot:
    //   {0,1,2} cycle; 0 -> (3<->4) -> (5<->6); 0 -> 7.
    let g = CsrGraph::from_edges(
        8,
        &[
            (0, 1),
            (1, 2),
            (2, 0),
            (0, 3),
            (3, 4),
            (4, 3),
            (4, 5),
            (5, 6),
            (6, 5),
            (0, 7),
        ],
    );
    let cfg = SccConfig {
        pivot: PivotStrategy::MaxDegreeProduct,
        ..SccConfig::with_threads(1)
    };
    let (r, report) = detect_scc(&g, Algorithm::Method2, &cfg);
    assert_eq!(r.num_components(), 4); // {0,1,2}, {3,4}, {5,6}, {7}
    assert_eq!(
        report.resolved_in(Phase::ParTrim),
        1,
        "pendant 7 trims first"
    );
    assert_eq!(report.resolved_in(Phase::ParFwbw), 3, "giant peeled");
    // Both pairs fall to the Trim′ block (pattern a for {3,4} once the
    // giant is gone; pattern b for the chain-end {5,6}).
    assert_eq!(report.resolved_in(Phase::ParTrim2), 4);
    assert_eq!(report.resolved_in(Phase::RecurFwbw), 0);
}

#[test]
fn stock_method2_color_only_ablation_still_correct() {
    let g = CsrGraph::from_edges(6, &[(0, 1), (1, 0), (2, 3), (3, 2), (1, 2), (4, 5)]);
    let mut cfg = SccConfig::with_threads(2);
    cfg.hybrid_sets = false;
    let (r, _) = detect_scc(&g, Algorithm::Method2, &cfg);
    let want = detect_scc(&g, Algorithm::Tarjan, &SccConfig::default()).0;
    assert_eq!(r.canonical_labels(), want.canonical_labels());
}

#[test]
fn stock_coloring_round_count_reported() {
    // a 3-chain of 2-cycles takes multiple rounds: each round peels the
    // classes whose roots are maximal
    let g = CsrGraph::from_edges(
        6,
        &[
            (5, 4),
            (4, 5),
            (4, 3),
            (3, 2),
            (2, 3),
            (2, 1),
            (1, 0),
            (0, 1),
        ],
    );
    let (r, report) = detect_scc(&g, Algorithm::Coloring, &SccConfig::with_threads(1));
    assert_eq!(r.num_components(), 3);
    assert!(report.fwbw_trials >= 1, "rounds = {}", report.fwbw_trials);
}

#[test]
fn stock_coloring_dag_fully_trimmed_zero_rounds() {
    let g = CsrGraph::from_edges(5, &[(0, 1), (1, 2), (2, 3), (3, 4)]);
    let (r, report) = detect_scc(&g, Algorithm::Coloring, &SccConfig::with_threads(2));
    assert_eq!(r.num_components(), 5);
    assert_eq!(report.fwbw_trials, 0, "trim leaves nothing to color");
}

#[test]
fn stock_multistep_giant_scc_taken_by_peel() {
    // hub-heavy cycle so the degree-product pivot lands inside it
    let n = 2000u32;
    let mut edges: Vec<_> = (0..n).map(|i| (i, (i + 1) % n)).collect();
    for i in 0..200u32 {
        edges.push((0, n + i)); // tendrils
    }
    let g = CsrGraph::from_edges((n + 200) as usize, &edges);
    let (r, report) = detect_scc(&g, Algorithm::Multistep, &SccConfig::with_threads(2));
    assert_eq!(r.largest_component_size(), 2000);
    assert_eq!(report.resolved_in(Phase::ParFwbw), 2000);
    assert_eq!(report.resolved_in(Phase::ParTrim), 200);
}

// ---------------------------------------------------------------------------
// Engine composition battery (`composition_*`, the CI pipeline-matrix step)
// ---------------------------------------------------------------------------

/// Small but structurally diverse corpus: planted bowtie (giant SCC +
/// in/out/tendrils), both Erdős–Rényi regimes, a small-world ring, and
/// two dataset analogs (power-law and pure-DAG extremes).
fn corpus() -> Vec<(&'static str, CsrGraph)> {
    let bt = bowtie(&BowtieConfig {
        num_nodes: 1500,
        ..Default::default()
    });
    vec![
        ("bowtie", bt.graph),
        ("sparse-er", erdos_renyi(1200, 600, 7)),
        ("dense-er", erdos_renyi(1200, 5000, 7)),
        ("watts-strogatz", watts_strogatz(1000, 6, 0.1, 9)),
        ("baidu", Dataset::Baidu.generate(0.03, 42)),
        ("patents", Dataset::Patents.generate(0.03, 42)),
    ]
}

fn assert_composition_matches_tarjan(spec: &str) {
    let pipeline = Pipeline::parse(spec).unwrap_or_else(|e| panic!("{spec:?} rejected: {e}"));
    for (label, g) in corpus() {
        let want = detect_scc(&g, Algorithm::Tarjan, &SccConfig::default())
            .0
            .canonical_labels();
        for threads in [1usize, 2, 4] {
            let cfg = SccConfig::with_threads(threads);
            let (r, report) = run_pipeline(&g, &pipeline, &cfg, &RunGuard::new())
                .unwrap_or_else(|e| panic!("{spec:?} on {label}: {e}"));
            assert_eq!(
                r.canonical_labels(),
                want,
                "pipeline {spec:?} with {threads} threads disagrees with tarjan on {label}"
            );
            let resolved: usize = report.phase_resolved.iter().map(|(_, n)| n).sum();
            assert_eq!(
                resolved,
                g.num_nodes(),
                "pipeline {spec:?} loses nodes in the report on {label}"
            );
        }
    }
}

#[test]
fn composition_stock_pipelines_match_tarjan() {
    for algo in [
        Algorithm::Baseline,
        Algorithm::Method1,
        Algorithm::Method2,
        Algorithm::Coloring,
        Algorithm::Multistep,
    ] {
        let pipeline = Pipeline::stock(algo).expect("parallel algorithms have stock pipelines");
        assert_composition_matches_tarjan(&pipeline.to_string());
    }
}

#[test]
fn composition_queue_only() {
    assert_composition_matches_tarjan("tasks");
}

#[test]
fn composition_serial_only() {
    assert_composition_matches_tarjan("serial");
}

#[test]
fn composition_peel_without_trim() {
    assert_composition_matches_tarjan("fwbw,tasks");
}

#[test]
fn composition_trim2_first() {
    assert_composition_matches_tarjan("trim2,tasks");
}

#[test]
fn composition_wcc_partition_only() {
    assert_composition_matches_tarjan("wcc,tasks");
}

#[test]
fn composition_trim_trim2_wcc() {
    assert_composition_matches_tarjan("trim,trim2,wcc,tasks");
}

#[test]
fn composition_single_peel_serial_finish() {
    assert_composition_matches_tarjan("peel,serial");
}

#[test]
fn composition_method2_without_trim2_ablation() {
    assert_composition_matches_tarjan("trim,fwbw,wcc,tasks");
}

#[test]
fn composition_bare_coloring() {
    assert_composition_matches_tarjan("coloring");
}

#[test]
fn composition_color_tail_without_peel() {
    assert_composition_matches_tarjan("trim,colortail,serial");
}

#[test]
fn composition_everything_but_the_kitchen_sink() {
    assert_composition_matches_tarjan("trim,fwbw,trim2,trim,peel,trim,wcc,tasks");
}

#[test]
fn composition_multisearch_only() {
    assert_composition_matches_tarjan("multisearch");
}

#[test]
fn composition_peel_then_multisearch() {
    // The headline MultiReach composition: peel the giant SCC, then
    // resolve the residue with multi-pivot reachability rounds.
    assert_composition_matches_tarjan("trim,fwbw,peel,multisearch");
}

#[test]
fn composition_wcc_then_multisearch() {
    // multisearch is legal anywhere tasks is, including after a
    // re-partitioning stage (it searches within color partitions).
    assert_composition_matches_tarjan("trim,fwbw,trim2,trim,wcc,multisearch");
}

type RejectionPredicate = fn(&PipelineError) -> bool;

#[test]
fn composition_illegal_pipelines_rejected() {
    use PipelineError as E;
    let cases: &[(&str, RejectionPredicate)] = &[
        ("", |e| matches!(e, E::Empty)),
        (" , ,", |e| matches!(e, E::Empty)),
        ("trim", |e| matches!(e, E::NotTerminal(_))),
        ("trim,fwbw,wcc", |e| matches!(e, E::NotTerminal(_))),
        // final-stage check fires first: the trailing `trim` is the error
        ("tasks,trim", |e| matches!(e, E::NotTerminal(_))),
        ("coloring,tasks", |e| matches!(e, E::TerminalNotLast(_))),
        ("serial,serial", |e| matches!(e, E::TerminalNotLast(_))),
        ("multisearch,tasks", |e| matches!(e, E::TerminalNotLast(_))),
        ("trim,bogus,tasks", |e| matches!(e, E::UnknownStage(_))),
        ("wcc,fwbw,tasks", |e| {
            matches!(e, E::PeelAfterRepartition { .. })
        }),
        ("trim,colortail,peel,serial", |e| {
            matches!(e, E::PeelAfterRepartition { .. })
        }),
    ];
    for (spec, matches_expected) in cases {
        match Pipeline::parse(spec) {
            Ok(p) => panic!("{spec:?} should be rejected, parsed as {p}"),
            Err(e) => assert!(
                matches_expected(&e),
                "{spec:?} rejected with unexpected error: {e}"
            ),
        }
    }
}

#[test]
fn composition_wcc_dispatcher_agrees_across_impls() {
    // Satellite knob: the Wcc kernel consumes `cfg.wcc_impl`; label
    // propagation and union-find must induce identical partitions.
    use swscc::WccImpl;
    let pipeline = Pipeline::parse("trim,fwbw,trim2,wcc,tasks").unwrap();
    for (label, g) in corpus() {
        let want = detect_scc(&g, Algorithm::Tarjan, &SccConfig::default())
            .0
            .canonical_labels();
        for impl_ in [WccImpl::LabelPropagation, WccImpl::UnionFind] {
            let cfg = SccConfig {
                wcc_impl: impl_,
                ..SccConfig::with_threads(2)
            };
            let (r, _) = run_pipeline(&g, &pipeline, &cfg, &RunGuard::new()).unwrap();
            assert_eq!(
                r.canonical_labels(),
                want,
                "wcc impl {impl_:?} breaks the pipeline on {label}"
            );
        }
    }
}

// ---------------------------------------------------------------------------
// Compressed-backend battery (`compressed_*`, the CI compressed lane)
// ---------------------------------------------------------------------------

/// Runs `spec` on the byte-delta compressed backend over the whole corpus
/// at 1/2/4 threads under every live-set compaction policy, asserting the
/// Tarjan partition each time. The GraphView seam must be behaviorally
/// invisible: same SCCs, same full phase accounting.
fn assert_compressed_composition_matches_tarjan(spec: &str) {
    use swscc::graph::CompressedCsr;
    use swscc::CompactionPolicy;
    let pipeline = Pipeline::parse(spec).unwrap_or_else(|e| panic!("{spec:?} rejected: {e}"));
    for (label, g) in corpus() {
        let want = detect_scc(&g, Algorithm::Tarjan, &SccConfig::default())
            .0
            .canonical_labels();
        let z = CompressedCsr::from_csr(&g);
        for threads in [1usize, 2, 4] {
            for policy in [
                CompactionPolicy::Auto,
                CompactionPolicy::Always,
                CompactionPolicy::Never,
            ] {
                let cfg = SccConfig {
                    live_set_compaction: policy,
                    ..SccConfig::with_threads(threads)
                };
                let (r, report) = run_pipeline(&z, &pipeline, &cfg, &RunGuard::new())
                    .unwrap_or_else(|e| panic!("{spec:?} on compressed {label}: {e}"));
                assert_eq!(
                    r.canonical_labels(),
                    want,
                    "pipeline {spec:?} ({threads} threads, {policy:?}) disagrees \
                     with tarjan on compressed {label}"
                );
                let resolved: usize = report.phase_resolved.iter().map(|(_, n)| n).sum();
                assert_eq!(
                    resolved,
                    g.num_nodes(),
                    "pipeline {spec:?} loses nodes on compressed {label}"
                );
            }
        }
    }
}

#[test]
fn compressed_stock_baseline_matches_tarjan() {
    let p = Pipeline::stock(Algorithm::Baseline).unwrap();
    assert_compressed_composition_matches_tarjan(&p.to_string());
}

#[test]
fn compressed_stock_method1_matches_tarjan() {
    let p = Pipeline::stock(Algorithm::Method1).unwrap();
    assert_compressed_composition_matches_tarjan(&p.to_string());
}

#[test]
fn compressed_stock_method2_matches_tarjan() {
    let p = Pipeline::stock(Algorithm::Method2).unwrap();
    assert_compressed_composition_matches_tarjan(&p.to_string());
}

#[test]
fn compressed_stock_coloring_matches_tarjan() {
    let p = Pipeline::stock(Algorithm::Coloring).unwrap();
    assert_compressed_composition_matches_tarjan(&p.to_string());
}

#[test]
fn compressed_stock_multistep_matches_tarjan() {
    let p = Pipeline::stock(Algorithm::Multistep).unwrap();
    assert_compressed_composition_matches_tarjan(&p.to_string());
}

#[test]
fn compressed_multisearch_matches_tarjan() {
    assert_compressed_composition_matches_tarjan("trim,fwbw,peel,multisearch");
}

#[test]
fn compressed_and_raw_backends_identical_partitions() {
    // Beyond ≡ Tarjan: both backends, same pipeline, same config — the
    // canonical labelings must agree exactly on every corpus graph.
    use swscc::graph::CompressedCsr;
    let pipeline = Pipeline::parse("trim,fwbw,trim,trim2,trim,wcc,tasks").unwrap();
    for (label, g) in corpus() {
        let z = CompressedCsr::from_csr(&g);
        let cfg = SccConfig::with_threads(2);
        let (raw, _) = run_pipeline(&g, &pipeline, &cfg, &RunGuard::new()).unwrap();
        let (zip, _) = run_pipeline(&z, &pipeline, &cfg, &RunGuard::new()).unwrap();
        assert_eq!(
            raw.canonical_labels(),
            zip.canonical_labels(),
            "backends disagree on {label}"
        );
    }
}
