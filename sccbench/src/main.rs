//! `sccbench` — one workload per invocation, seeded inputs, checked
//! answers, and one JSON result line.
//!
//! ```text
//! sccbench --workload NAME --seed N --seconds S --trace 0|1
//!          --daemon PATH --work DIR
//! ```
//!
//! With `--trace 0` the result carries the end-to-end metrics; with
//! `--trace 1` a separate traced run of the same workload carries the
//! per-layer metrics. `sccbench/run.py` builds this binary and the
//! daemon and passes `--daemon` and `--work`; see `sccbench/LAYERS.md`
//! for what every metric means and which end-to-end metric it moves.

mod batch;
mod oracle;
mod serve;
mod stats;
mod trace;

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::ExitCode;

/// Every end-to-end metric, printed by every untraced run.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("rss_peak_mb", "MiB"),
    ("op_mean_ms", "ms"),
    ("op_p75_ms", "ms"),
];

/// Every per-layer metric, printed by every traced run. A layer that
/// the workload does not exercise reports 0.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("graph.view.sweep_ns_per_edge", "ns"),
    ("graph.view.bytes_per_edge", "B"),
    ("graph.traverse.bfs_ms", "ms"),
    ("graph.traverse.levels", "count"),
    ("graph.traverse.reached", "count"),
    ("core.pipeline.par_trim_ms", "ms"),
    ("core.pipeline.par_trim_resolved", "count"),
    ("core.pipeline.par_fwbw_ms", "ms"),
    ("core.pipeline.par_fwbw_resolved", "count"),
    ("core.pipeline.par_trim2_ms", "ms"),
    ("core.pipeline.par_trim2_resolved", "count"),
    ("core.pipeline.par_wcc_ms", "ms"),
    ("core.pipeline.par_wcc_resolved", "count"),
    ("core.pipeline.recur_fwbw_ms", "ms"),
    ("core.pipeline.recur_fwbw_resolved", "count"),
    ("core.pipeline.fwbw_trials", "count"),
    ("core.pipeline.tasks_initial", "count"),
    ("core.pipeline.tasks_executed", "count"),
    ("core.pipeline.queue_max_depth", "count"),
    ("core.tarjan.ms", "ms"),
    ("core.tarjan.speedup_x", "x"),
    ("core.incremental.apply_us_p50", "us"),
    ("core.incremental.apply_us_p99", "us"),
    ("core.incremental.rebuild_ms_p50", "ms"),
    ("core.incremental.in_order", "count"),
    ("core.incremental.reorders", "count"),
    ("core.incremental.merges", "count"),
    ("core.incremental.splits", "count"),
    ("core.incremental.rebuilds", "count"),
    ("core.snapshot.build_ms_p50", "ms"),
    ("core.snapshot.cond_nodes", "count"),
    ("core.snapshot.cond_edges", "count"),
    ("core.snapshot.reach_us_p50", "us"),
    ("core.snapshot.reach_us_p99", "us"),
    ("core.snapshot.same_scc_ns", "ns"),
    ("core.snapshot.scc_id_ns", "ns"),
    ("sync.epoch.publish_us", "us"),
    ("sync.epoch.load_ns", "ns"),
    ("serve.protocol.decode_request_ns", "ns"),
    ("serve.protocol.encode_response_ns", "ns"),
    ("serve.protocol.frame_bytes", "B"),
    ("serve.admission.admit_ns", "ns"),
    ("serve.admission.shed", "count"),
    ("serve.net.ping_us_p50", "us"),
    ("serve.net.ping_us_p99", "us"),
    ("serve.net.wire_minus_replay_us_p50", "us"),
    ("serve.server.queries", "count"),
    ("serve.server.shed", "count"),
    ("serve.server.deadline_misses", "count"),
    ("serve.server.quarantined", "count"),
    ("serve.server.mutations_ok", "count"),
    ("serve.server.mutations_failed", "count"),
    ("bench.trace.overhead_pct", "%"),
    ("bench.failed_frac", "ratio"),
    ("bench.read_p99_us", "us"),
];

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    BatchLivej,
    BatchBaiduZ,
    ServeRead,
    ServeWrite,
}

impl Workload {
    fn from_name(name: &str) -> Option<Workload> {
        Some(match name {
            "batch-livej" => Workload::BatchLivej,
            "batch-baidu-z" => Workload::BatchBaiduZ,
            "serve-read" => Workload::ServeRead,
            "serve-write" => Workload::ServeWrite,
            _ => return None,
        })
    }

    pub fn name(self) -> &'static str {
        match self {
            Workload::BatchLivej => "batch-livej",
            Workload::BatchBaiduZ => "batch-baidu-z",
            Workload::ServeRead => "serve-read",
            Workload::ServeWrite => "serve-write",
        }
    }
}

pub struct Args {
    pub workload: Workload,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub daemon: PathBuf,
    pub work: PathBuf,
    pub threads: usize,
}

/// What one run measured and checked.
#[derive(Default)]
pub struct Report {
    metrics: BTreeMap<&'static str, f64>,
    pub attempted: u64,
    pub failed: u64,
    /// Broken checks; any entry makes the run incorrect.
    pub errors: Vec<String>,
    /// Hardware-independent work counters; two runs of one seed must
    /// agree on every one.
    pub counters: BTreeMap<String, u64>,
}

impl Report {
    pub fn set(&mut self, name: &'static str, value: f64) {
        debug_assert!(
            END_TO_END.iter().chain(PER_LAYER).any(|(n, _)| *n == name),
            "unknown metric {name}"
        );
        self.metrics.insert(name, value);
    }

    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.errors.push(what());
        }
    }

    pub fn counter(&mut self, name: impl Into<String>, value: u64) {
        self.counters.insert(name.into(), value);
    }

    fn to_json(&self, trace: bool) -> String {
        let names = if trace { PER_LAYER } else { END_TO_END };
        let metrics: Vec<String> = names
            .iter()
            .map(|(name, unit)| {
                let v = self.metrics.get(name).copied().unwrap_or(0.0);
                let v = if v.is_finite() { v } else { 0.0 };
                format!("\"{name}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}")
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.errors.is_empty(),
            self.attempted.max(1),
            self.failed,
            metrics.join(", ")
        )
    }
}

fn parse_args() -> Result<Args, String> {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    let get = |flag: &str| -> Result<&str, String> {
        raw.iter()
            .position(|a| a == flag)
            .and_then(|i| raw.get(i + 1))
            .map(String::as_str)
            .ok_or_else(|| format!("missing {flag}"))
    };
    let workload = get("--workload")?;
    Ok(Args {
        workload: Workload::from_name(workload)
            .ok_or_else(|| format!("unknown workload {workload:?}"))?,
        seed: get("--seed")?.parse().map_err(|e| format!("--seed: {e}"))?,
        seconds: get("--seconds")?
            .parse()
            .map_err(|e| format!("--seconds: {e}"))?,
        trace: match get("--trace")? {
            "0" => false,
            "1" => true,
            t => return Err(format!("--trace must be 0 or 1, not {t:?}")),
        },
        daemon: PathBuf::from(get("--daemon")?),
        work: PathBuf::from(get("--work")?),
        threads: std::thread::available_parallelism().map_or(1, |n| n.get()),
    })
}

/// FNV-1a hash of the benchmark's and the daemon's executables. Work
/// counters are compared only between runs of the same build, since a
/// change to the program may rightly change the work it does.
fn build_id(args: &Args) -> Result<String, String> {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    for path in [exe.as_path(), args.daemon.as_path()] {
        let bytes = std::fs::read(path).map_err(|e| format!("{}: {e}", path.display()))?;
        for b in bytes {
            h = (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
        }
    }
    Ok(format!("{h:016x}"))
}

/// Compares this run's work counters with the first run of the same
/// workload and seed by the same build in this work directory,
/// recording them if there is none.
fn check_counters(args: &Args, report: &mut Report) {
    let id = match build_id(args) {
        Ok(id) => id,
        Err(e) => {
            report.check(false, || format!("cannot identify the build: {e}"));
            return;
        }
    };
    let dir = args.work.join("counters").join(id);
    let path = dir.join(format!("{}-{}.txt", args.workload.name(), args.seed));
    let text: String = report
        .counters
        .iter()
        .map(|(k, v)| format!("{k} {v}\n"))
        .collect();
    match std::fs::read_to_string(&path) {
        Ok(previous) => {
            let differ: Vec<String> = previous
                .lines()
                .filter_map(|l| l.split_once(' '))
                .filter(|(k, v)| report.counters.get(*k).map(u64::to_string).as_deref() != Some(*v))
                .map(|(k, v)| format!("{k}: first run {v}, now {:?}", report.counters.get(k)))
                .collect();
            report.check(differ.is_empty(), || {
                format!(
                    "work counters differ from an earlier run of this seed and build: {differ:?}"
                )
            });
        }
        Err(_) => {
            let tmp = path.with_extension("tmp");
            let written = std::fs::create_dir_all(&dir)
                .and_then(|()| std::fs::write(&tmp, &text))
                .and_then(|()| std::fs::rename(&tmp, &path));
            if let Err(e) = written {
                eprintln!("sccbench: cannot record work counters: {e}");
            }
        }
    }
    eprint!("sccbench: work counters\n{text}");
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("sccbench: {e}");
            return ExitCode::from(2);
        }
    };
    if let Err(e) = std::fs::create_dir_all(&args.work) {
        eprintln!("sccbench: cannot create {}: {e}", args.work.display());
        return ExitCode::from(2);
    }
    let mut report = Report::default();
    report.check(oracle::checks_fire(), || {
        "the answer checks accepted a corrupted answer".to_string()
    });
    let run = match args.workload {
        Workload::BatchLivej | Workload::BatchBaiduZ => batch::run(&args, &mut report),
        Workload::ServeRead | Workload::ServeWrite => serve::run(&args, &mut report),
    };
    if let Err(e) = run {
        eprintln!("sccbench: {} failed: {e}", args.workload.name());
        return ExitCode::from(1);
    }
    check_counters(&args, &mut report);
    report.set(
        "bench.failed_frac",
        report.failed as f64 / report.attempted.max(1) as f64,
    );
    for e in &report.errors {
        eprintln!("sccbench: WRONG: {e}");
    }
    println!("{}", report.to_json(args.trace));
    if report.errors.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
