//! Batch workloads: `run_pipeline` called over and over on one
//! generated graph, each partition checked against Tarjan outside the
//! timed region.
//!
//! * `batch-livej` — livej analog at scale 4 on the raw CSR. The giant
//!   SCC holds 79% of the nodes, so the Par-FWBW peel dominates.
//! * `batch-baidu-z` — baidu analog at scale 4 on `CompressedCsr`. The
//!   giant SCC holds 28%, so trim2, wcc and the recursive FW-BW carry
//!   real load and every adjacency read pays VarInt decode.

use crate::oracle::Canonical;
use crate::stats::{mean, median, ms, ns, percentile, window_of, Windowed};
use crate::trace::Tracer;
use crate::{Args, Report, Workload};
use std::time::{Duration, Instant};
use swscc::core::instrument::Phase;
use swscc::graph::bfs::{par_bfs_levels_with, Direction, UNREACHED};
use swscc::graph::datasets::Dataset;
use swscc::graph::{Adjacency, CompressedCsr, CsrGraph, GraphView, TraversalConfig};
use swscc::{Algorithm, Pipeline, RunGuard, RunReport, SccConfig, SccError, SccResult};

/// Set-ups per untraced run; `setup_s` is their median.
const SETUPS: usize = 3;
const SCALE: f64 = 4.0;

enum Backend {
    Raw(CsrGraph),
    Compressed(CompressedCsr),
}

impl Backend {
    fn run(&self, p: &Pipeline, cfg: &SccConfig) -> Result<(SccResult, RunReport), SccError> {
        let guard = RunGuard::new();
        match self {
            Backend::Raw(g) => swscc::run_pipeline(g, p, cfg, &guard),
            Backend::Compressed(z) => swscc::run_pipeline(z, p, cfg, &guard),
        }
    }

    /// The graph as a raw CSR: the backend itself, or the raw copy kept
    /// beside a compressed one.
    fn csr<'a>(&'a self, raw: &'a Option<CsrGraph>) -> &'a CsrGraph {
        match (self, raw) {
            (Backend::Raw(g), _) | (_, Some(g)) => g,
            (Backend::Compressed(_), None) => panic!("the raw copy of the graph was dropped"),
        }
    }
}

/// Generates the workload's graph on its backend. For `batch-baidu-z`
/// the raw graph comes back too, since Tarjan needs a `CsrGraph`.
fn generate(w: Workload, seed: u64) -> (Backend, Option<CsrGraph>) {
    match w {
        Workload::BatchLivej => (Backend::Raw(Dataset::Livej.generate(SCALE, seed)), None),
        _ => {
            let g = Dataset::Baidu.generate(SCALE, seed);
            (Backend::Compressed(CompressedCsr::from_csr(&g)), Some(g))
        }
    }
}

/// The counters two runs of one seed must agree on.
fn work_counters(report: &RunReport, components: usize) -> Vec<(String, u64)> {
    let mut c = vec![
        ("fwbw_trials".to_string(), report.fwbw_trials as u64),
        ("tasks_initial".to_string(), report.initial_tasks as u64),
        (
            "tasks_executed".to_string(),
            report.queue.tasks_executed as u64,
        ),
        ("cond_nodes".to_string(), components as u64),
    ];
    for phase in Phase::all() {
        c.push((
            format!("{}_resolved", phase.name()),
            report.resolved_in(phase) as u64,
        ));
    }
    c
}

pub fn run(args: &Args, report: &mut Report) -> Result<(), String> {
    let pipeline = Pipeline::stock(Algorithm::Method2).expect("method2 is a stock pipeline");
    let cfg = SccConfig::with_threads(args.threads);

    let setups = if args.trace { 1 } else { SETUPS };
    let mut setup_times = Vec::new();
    let mut built = None;
    for _ in 0..setups {
        drop(built.take());
        let t = Instant::now();
        let (backend, raw) = generate(args.workload, args.seed);
        let warm_up = backend
            .run(&pipeline, &cfg)
            .map_err(|e| format!("warm-up run: {e}"))?;
        drop(warm_up);
        setup_times.push(t.elapsed().as_secs_f64());
        built = Some((backend, raw));
    }
    let (backend, mut raw) = built.expect("at least one set-up");
    // Only Tarjan's partition in canonical form outlives the set-up, so
    // `rss_peak_mb` holds the backend and the pipeline, not the checks.
    let mut expected =
        Canonical::new(swscc::core::tarjan::tarjan_scc(backend.csr(&raw)).assignment());
    if !args.trace {
        // The raw copy only fed Tarjan; keeping it would hide the
        // compressed backend's own footprint in `rss_peak_mb`.
        raw = None;
    }

    if !crate::stats::reset_hwm() {
        report.check(false, || {
            "cannot reset VmHWM via /proc/self/clear_refs".into()
        });
    }
    let mut samples = Windowed::default();
    let mut traced = Vec::new();
    let mut tracer = Tracer::new(Instant::now());
    let mut reports: Vec<RunReport> = Vec::new();
    let mut first: Option<Vec<(String, u64)>> = None;
    let start = Instant::now();
    let deadline = start + Duration::from_secs_f64(args.seconds);
    let mut i = 0u64;
    while Instant::now() < deadline {
        i += 1;
        // In the traced run every other repetition runs inside a span;
        // the difference between the two halves is the trace overhead.
        let in_span = args.trace && i.is_multiple_of(2);
        let t = Instant::now();
        let out = if in_span {
            tracer
                .span("core.pipeline.run_pipeline", None, i, |_, _| {
                    backend.run(&pipeline, &cfg)
                })
                .0
        } else {
            backend.run(&pipeline, &cfg)
        };
        let end = Instant::now();
        let dt = ms(end - t);
        report.attempted += 1;
        let (result, run_report) = match out {
            Ok(r) => r,
            Err(e) => {
                report.failed += 1;
                report.check(false, || format!("run_pipeline failed: {e}"));
                continue;
            }
        };
        if in_span {
            traced.push(dt);
        } else {
            samples.push(window_of(start, deadline, end), dt);
        }
        let right = expected.matches(result.assignment());
        if !right {
            report.failed += 1;
        }
        report.check(right, || {
            format!("repetition {i}: partition differs from Tarjan")
        });
        let counters = work_counters(&run_report, result.num_components());
        match &first {
            None => first = Some(counters),
            Some(f) => report.check(*f == counters, || {
                format!("repetition {i}: work counters {counters:?} differ from {f:?}")
            }),
        }
        if args.trace {
            reports.push(run_report);
        }
    }
    report.check(samples.len() > 0, || "no repetition finished".into());
    for (k, v) in first.unwrap_or_default() {
        report.counter(k, v);
    }
    eprintln!(
        "sccbench: {} repetitions, {} outside spans",
        samples.len() + traced.len(),
        samples.len()
    );

    if !args.trace {
        report.set("setup_s", median(&setup_times));
        report.set(
            "rss_peak_mb",
            crate::stats::vm_hwm_mb("self").ok_or("cannot read VmHWM")?,
        );
        report.set("op_mean_ms", samples.median_of(mean));
        report.set("op_p75_ms", samples.median_of(|w| percentile(w, 0.75)));
        return Ok(());
    }

    let p50 = median(&samples.all());
    report.set(
        "bench.trace.overhead_pct",
        (median(&traced) - p50) / p50 * 100.0,
    );
    layer_metrics(
        backend.csr(&raw),
        &backend,
        &reports,
        p50,
        &mut tracer,
        report,
    );
    let path = args
        .work
        .join(format!("trace-{}.jsonl", args.workload.name()));
    tracer
        .write_jsonl(&path)
        .map_err(|e| format!("cannot write {}: {e}", path.display()))
}

/// The pipeline's own per-phase report, plus the view, traversal and
/// Tarjan layers timed around their public entry points.
fn layer_metrics(
    g: &CsrGraph,
    backend: &Backend,
    reports: &[RunReport],
    pipeline_p50_ms: f64,
    tracer: &mut Tracer,
    report: &mut Report,
) {
    let phase_names = [
        (
            Phase::ParTrim,
            "core.pipeline.par_trim_ms",
            "core.pipeline.par_trim_resolved",
        ),
        (
            Phase::ParFwbw,
            "core.pipeline.par_fwbw_ms",
            "core.pipeline.par_fwbw_resolved",
        ),
        (
            Phase::ParTrim2,
            "core.pipeline.par_trim2_ms",
            "core.pipeline.par_trim2_resolved",
        ),
        (
            Phase::ParWcc,
            "core.pipeline.par_wcc_ms",
            "core.pipeline.par_wcc_resolved",
        ),
        (
            Phase::RecurFwbw,
            "core.pipeline.recur_fwbw_ms",
            "core.pipeline.recur_fwbw_resolved",
        ),
    ];
    let per_run =
        |f: &dyn Fn(&RunReport) -> f64| median(&reports.iter().map(f).collect::<Vec<_>>());
    for (phase, ms_name, resolved_name) in phase_names {
        report.set(ms_name, per_run(&|r| ms(r.time_in(phase))));
        report.set(resolved_name, per_run(&|r| r.resolved_in(phase) as f64));
    }
    report.set(
        "core.pipeline.fwbw_trials",
        per_run(&|r| r.fwbw_trials as f64),
    );
    report.set(
        "core.pipeline.tasks_initial",
        per_run(&|r| r.initial_tasks as f64),
    );
    report.set(
        "core.pipeline.tasks_executed",
        per_run(&|r| r.queue.tasks_executed as f64),
    );
    report.set(
        "core.pipeline.queue_max_depth",
        per_run(&|r| r.queue.max_global_depth as f64),
    );

    let (sweep, footprint) = match backend {
        Backend::Raw(g) => (sweep_ns_per_edge(g, tracer), g.memory_footprint()),
        Backend::Compressed(z) => (sweep_ns_per_edge(z, tracer), z.memory_footprint()),
    };
    report.set("graph.view.sweep_ns_per_edge", sweep);
    report.set("graph.view.bytes_per_edge", footprint.bytes_per_edge());

    // Fixed pivot: the node with the largest total degree, which the
    // small-world analogs place inside the giant SCC.
    let pivot = (0..g.num_nodes() as u32)
        .max_by_key(|&u| (g.out_degree(u) + g.in_degree(u), std::cmp::Reverse(u)))
        .unwrap_or(0);
    let cfg = TraversalConfig::default();
    let mut bfs_ms = Vec::new();
    let mut levels = Vec::new();
    for i in 0..5 {
        let t = Instant::now();
        levels = match backend {
            Backend::Raw(g) => {
                tracer.span("graph.traverse.par_bfs_levels_with", None, i, |_, _| {
                    par_bfs_levels_with(g, pivot, Adjacency::Directed(Direction::Forward), &cfg)
                })
            }
            Backend::Compressed(z) => {
                tracer.span("graph.traverse.par_bfs_levels_with", None, i, |_, _| {
                    par_bfs_levels_with(z, pivot, Adjacency::Directed(Direction::Forward), &cfg)
                })
            }
        }
        .0;
        bfs_ms.push(ms(t.elapsed()));
    }
    let reached: Vec<u32> = levels.into_iter().filter(|&l| l != UNREACHED).collect();
    report.set("graph.traverse.bfs_ms", median(&bfs_ms));
    report.set(
        "graph.traverse.levels",
        reached.iter().max().map_or(0.0, |&l| f64::from(l) + 1.0),
    );
    report.set("graph.traverse.reached", reached.len() as f64);

    let mut tarjan_ms = Vec::new();
    for i in 0..3 {
        let t = Instant::now();
        let r = tracer.span("core.tarjan.tarjan_scc", None, i, |_, _| {
            swscc::core::tarjan::tarjan_scc(g)
        });
        tarjan_ms.push(ms(t.elapsed()));
        std::hint::black_box(r);
    }
    let tarjan = median(&tarjan_ms);
    report.set("core.tarjan.ms", tarjan);
    report.set("core.tarjan.speedup_x", tarjan / pipeline_p50_ms);
}

/// Nanoseconds per edge of a full forward-plus-backward neighbour sweep
/// (median of three).
fn sweep_ns_per_edge<G: GraphView>(g: &G, tracer: &mut Tracer) -> f64 {
    let mut per_edge = Vec::new();
    for i in 0..3 {
        let t = Instant::now();
        let (sum, _) = tracer.span("graph.view.for_each_neighbor_while", None, i, |_, _| {
            let mut sum = 0u64;
            for dir in [Direction::Forward, Direction::Backward] {
                for u in 0..g.num_nodes() as u32 {
                    g.for_each_neighbor_while(dir, u, |v| {
                        sum = sum.wrapping_add(u64::from(v));
                        true
                    });
                }
            }
            sum
        });
        std::hint::black_box(sum);
        per_edge.push(ns(t.elapsed()) / (2 * g.num_edges().max(1)) as f64);
    }
    median(&per_edge)
}
