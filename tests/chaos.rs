//! Chaos battery: seed-replayable fault-injection schedules across every
//! parallel driver.
//!
//! Each schedule is derived from a single `u64` seed by a splitmix64
//! chain: seed → (driver, graph, thread count, panic policy, fault plan).
//! The run must either finish with Tarjan-identical components or return
//! a clean typed [`SccError`] — never hang, never a wrong answer, never
//! an unabsorbed panic.
//!
//! All schedules run inside ONE `#[test]`: armed fault sessions serialize
//! on a process-global mutex (`swscc::sync::fault`), so splitting them
//! across tests would only interleave lock waits, and a single test keeps
//! the seed chain deterministic.
//!
//! Replaying a failure: the battery prints the offending schedule seed;
//! rerun just that schedule with
//!
//! ```text
//! CHAOS_SEED=<seed> cargo test --test chaos -- --nocapture
//! ```
//!
//! `CHAOS_ROUNDS=<n>` overrides the schedule count (default 320).

use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::Duration;
use swscc::graph::gen::erdos_renyi::erdos_renyi;
use swscc::graph::gen::watts_strogatz::watts_strogatz;
use swscc::serve::{Client, Endpoint, Listener, Response, ServeConfig, ServedGraph, Server};
use swscc::sync::fault::{self, FaultKind, FaultPlan};
use swscc::{
    detect_scc, run_checked, run_pipeline, Algorithm, CsrGraph, PanicPolicy, Pipeline, RunGuard,
    SccConfig, SccError,
};

/// What a chaos schedule drives: a stock algorithm through `run_checked`,
/// or a custom `--pipeline` composition through `run_pipeline` (same
/// engine, same typed-error contract).
#[derive(Clone, Copy, Debug)]
enum Driver {
    Algo(Algorithm),
    Custom(&'static str),
}

/// Each driver paired with the fault sites its pipeline actually passes
/// through. A plan can still land past the end of the run (late `nth`,
/// small graph) — those no-fire schedules are counted and reported as
/// skipped, and the per-site guards below make sure none of them turns
/// the whole battery vacuous. `model-yield` is excluded: it only exists
/// under `--cfg model`.
const DRIVERS: &[(Driver, &[&str])] = &[
    (
        Driver::Algo(Algorithm::Baseline),
        &["trim-round", "workqueue-task", "recur-task"],
    ),
    (
        Driver::Algo(Algorithm::Method1),
        &[
            "trim-round",
            "fwbw-superstep",
            "workqueue-task",
            "recur-task",
        ],
    ),
    (
        Driver::Algo(Algorithm::Method2),
        &[
            "trim-round",
            "fwbw-superstep",
            "wcc-round",
            "workqueue-task",
            "recur-task",
        ],
    ),
    (
        Driver::Algo(Algorithm::Coloring),
        &["trim-round", "coloring-round"],
    ),
    (
        Driver::Algo(Algorithm::Multistep),
        &["trim-round", "fwbw-superstep", "coloring-round"],
    ),
    (
        Driver::Algo(Algorithm::FwBw),
        &["workqueue-task", "recur-task"],
    ),
    (
        Driver::Custom("trim,fwbw,trim,multisearch"),
        &["trim-round", "fwbw-superstep", "multisearch-round"],
    ),
    (Driver::Custom("multisearch"), &["multisearch-round"]),
];

const DEFAULT_ROUNDS: u64 = 320;

fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e3779b97f4a7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d049bb133111eb);
    z ^ (z >> 31)
}

/// Small-world-ish test graphs plus their Tarjan oracle labels. Kept
/// small (≤ ~400 nodes) so hundreds of schedules finish quickly; every
/// shape still exercises trim, peel, WCC, coloring and the task queue.
fn graph_pool() -> Vec<(&'static str, CsrGraph, Vec<u32>)> {
    let mut pool: Vec<(&'static str, CsrGraph)> = Vec::new();

    // Bowtie: giant cycle + IN/OUT tendrils + satellite cycles.
    let mut edges: Vec<(u32, u32)> = (0..60u32).map(|i| (i, (i + 1) % 60)).collect();
    for s in 0..10u32 {
        let b = 60 + 3 * s;
        edges.extend([(0, b), (b, b + 1), (b + 1, b + 2), (b + 2, b)]);
    }
    for t in 90..110u32 {
        edges.push((t, 1)); // IN tendrils
        edges.push((2, t + 20)); // OUT tendrils
    }
    pool.push(("bowtie", CsrGraph::from_edges(130, &edges)));

    // Chain of 3-cycles bridged one to the next, numbered so ids fall
    // away from the chain's smallest id: WCC label propagation needs
    // several rounds to carry the minimum label along the residue, so
    // every `nth` the derivation draws can land inside Par-WCC (on the
    // other graphs it converges in at most two rounds).
    let k = 20u32;
    let id = |c: u32, j: u32| if c == 0 { j } else { 3 * (k - c) + j };
    let mut chain = Vec::new();
    for c in 0..k {
        chain.extend([
            (id(c, 0), id(c, 1)),
            (id(c, 1), id(c, 2)),
            (id(c, 2), id(c, 0)),
        ]);
        if c + 1 < k {
            chain.push((id(c, 2), id(c + 1, 0)));
        }
    }
    pool.push(("cycle-chain", CsrGraph::from_edges(3 * k as usize, &chain)));

    pool.push(("er-sparse", erdos_renyi(150, 250, 7)));
    pool.push(("er-dense", erdos_renyi(120, 700, 11)));
    pool.push(("ws-ring", watts_strogatz(100, 4, 0.2, 13)));
    pool.push(("singletons", CsrGraph::from_edges(40, &[(0, 1), (2, 3)])));
    pool.push(("empty", CsrGraph::from_edges(0, &[])));

    pool.into_iter()
        .map(|(name, g)| {
            let labels = detect_scc(&g, Algorithm::Tarjan, &SccConfig::default())
                .0
                .canonical_labels();
            (name, g, labels)
        })
        .collect()
}

struct Schedule {
    driver: Driver,
    graph: usize,
    threads: usize,
    policy: PanicPolicy,
    plan: FaultPlan,
}

fn derive(seed: u64, num_graphs: usize) -> Schedule {
    let mut s = seed;
    let (driver, sites) = DRIVERS[(splitmix64(&mut s) % DRIVERS.len() as u64) as usize];
    let graph = (splitmix64(&mut s) % num_graphs as u64) as usize;
    let threads = [1, 2, 4][(splitmix64(&mut s) % 3) as usize];
    // Bias toward Fallback: it exercises the recovery machinery; Fail
    // only needs enough coverage to prove the error is typed.
    let policy = if splitmix64(&mut s).is_multiple_of(4) {
        PanicPolicy::Fail
    } else {
        PanicPolicy::Fallback
    };
    let site = sites[(splitmix64(&mut s) % sites.len() as u64) as usize];
    // Early hits are the common case (small graphs converge in a handful
    // of rounds); a tail of later indices probes deeper into the run and
    // sometimes lands past the end — a legitimate no-fire schedule.
    let nth = splitmix64(&mut s) % 4;
    // Mostly panics; some delays (straggler timing, must stay correct)
    // and some persistent (repeat) panics that exhaust the retry and
    // force the degraded-to-sequential path.
    let roll = splitmix64(&mut s) % 8;
    let kind = if roll == 0 {
        FaultKind::Delay(Duration::from_millis(1 + splitmix64(&mut s) % 4))
    } else {
        FaultKind::Panic
    };
    let repeat = roll == 1 || roll == 2;
    Schedule {
        driver,
        graph,
        threads,
        policy,
        plan: FaultPlan {
            site: Some(site),
            nth,
            kind,
            repeat,
        },
    }
}

/// One schedule's bookkeeping: which site was armed, and whether the
/// fault actually fired (a late `nth` can land past the end of the run).
struct ScheduleOutcome {
    site: &'static str,
    fired: bool,
}

/// Runs one schedule; returns the armed site and whether it fired, or an
/// error description on any violation.
fn run_schedule(
    seed: u64,
    pool: &[(&'static str, CsrGraph, Vec<u32>)],
) -> Result<ScheduleOutcome, String> {
    let sched = derive(seed, pool.len());
    let (gname, g, oracle) = &pool[sched.graph];
    let mut cfg = SccConfig::with_threads(sched.threads);
    cfg.on_panic = sched.policy;
    let site = sched.plan.site.expect("every chaos plan names a site");
    let describe = || {
        format!(
            "seed {seed}: {:?} on {gname} ({} threads, {:?}, plan {:?})",
            sched.driver, sched.threads, sched.policy, sched.plan
        )
    };

    let guard = RunGuard::new();
    let fault_guard = fault::arm(sched.plan);
    let outcome = match sched.driver {
        Driver::Algo(algo) => run_checked(g, algo, &cfg, &guard),
        Driver::Custom(spec) => {
            let pipeline = Pipeline::parse(spec).expect("chaos pipeline specs are legal");
            run_pipeline(g, &pipeline, &cfg, &guard)
        }
    };
    let fired = fault::fired();
    drop(fault_guard);

    match outcome {
        Ok((result, _report)) => {
            if result.canonical_labels() != *oracle {
                return Err(format!("{}: WRONG SCCs", describe()));
            }
            Ok(ScheduleOutcome { site, fired })
        }
        Err(SccError::WorkerPanic { message }) => {
            // The only acceptable error here: a panic surfaced under the
            // Fail policy, and it must be ours.
            if sched.policy != PanicPolicy::Fail {
                return Err(format!(
                    "{}: Fallback policy surfaced a panic: {message}",
                    describe()
                ));
            }
            if !fired || !message.contains("injected fault") {
                return Err(format!("{}: non-injected panic: {message}", describe()));
            }
            Ok(ScheduleOutcome { site, fired: true })
        }
        Err(e) => Err(format!("{}: unexpected error {e}", describe())),
    }
}

/// Injected panics are expected by the hundreds; keep the default
/// hook's backtrace spam out of the test output. Real (non-injected)
/// panics still print. Installing twice (both batteries run in one
/// process) just stacks two copies of the same filter.
fn install_quiet_panic_hook() {
    let default_hook = std::panic::take_hook();
    std::panic::set_hook(Box::new(move |info| {
        let injected = info
            .payload()
            .downcast_ref::<String>()
            .map(String::as_str)
            .or_else(|| info.payload().downcast_ref::<&str>().copied())
            .is_some_and(|m| m.contains("injected fault"));
        if !injected {
            default_hook(info);
        }
    }));
}

#[test]
fn chaos_battery() {
    install_quiet_panic_hook();

    let pool = graph_pool();

    if let Ok(seed) = std::env::var("CHAOS_SEED") {
        let seed: u64 = seed.parse().expect("CHAOS_SEED must be a u64");
        match run_schedule(seed, &pool) {
            Ok(out) => println!(
                "seed {seed}: ok (site {}, fault fired: {})",
                out.site, out.fired
            ),
            Err(msg) => panic!("chaos replay failed: {msg}"),
        }
        return;
    }

    let rounds: u64 = std::env::var("CHAOS_ROUNDS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(DEFAULT_ROUNDS);
    let mut chain = 0x5cc_c4a05u64;
    let mut failures = Vec::new();
    // Per-site (scheduled, fired) accounting: a plan whose `nth` lands
    // past the end of the run is a legitimate no-fire schedule, but it
    // must be *counted as skipped*, not silently treated as coverage.
    let mut by_site: BTreeMap<&'static str, (u64, u64)> = BTreeMap::new();
    for _ in 0..rounds {
        let seed = splitmix64(&mut chain);
        match run_schedule(seed, &pool) {
            Ok(out) => {
                let entry = by_site.entry(out.site).or_insert((0, 0));
                entry.0 += 1;
                entry.1 += u64::from(out.fired);
            }
            Err(msg) => failures.push(msg),
        }
    }
    assert!(
        failures.is_empty(),
        "{} of {rounds} chaos schedules failed (replay with CHAOS_SEED=<seed>):\n{}",
        failures.len(),
        failures.join("\n")
    );
    let fired_count: u64 = by_site.values().map(|&(_, f)| f).sum();
    println!("chaos coverage over {rounds} schedules (site: fired/scheduled, skipped):");
    for (site, &(scheduled, fired)) in &by_site {
        println!(
            "  {site:<18} {fired:>4}/{scheduled:<4} ({} skipped)",
            scheduled - fired
        );
    }
    // Vacuity guards. Global: if fault sites are renamed or removed,
    // every plan silently misses and the battery proves nothing — a
    // healthy mix has well over a third of plans actually triggering.
    // Per-site (full batteries only, so short CHAOS_ROUNDS debug runs
    // stay usable): every site the derivation armed must have produced
    // at least one real trigger.
    assert!(
        fired_count >= 1,
        "no chaos schedule fired its fault — site list out of date?"
    );
    assert!(
        fired_count * 3 >= rounds,
        "only {fired_count}/{rounds} schedules actually fired their fault \
         — site list out of date?"
    );
    if rounds >= DEFAULT_ROUNDS {
        for (site, &(scheduled, fired)) in &by_site {
            assert!(
                fired >= 1,
                "site {site} was armed {scheduled} times but never fired \
                 — driver never reaches it?"
            );
        }
    }
}

// ---------------------------------------------------------------------------
// Server chaos group: seed-replayable fault schedules against a live
// `swscc-serve` instance on a real socket. The invariant under attack is
// the availability doctrine: a serving epoch is always installed, every
// failure a client sees is typed, and one hostile/panicking connection
// never costs the listener or another client.
//
// Replay: `SERVE_CHAOS_SEED=<seed> cargo test --test chaos server_chaos
// -- --nocapture`; `SERVE_CHAOS_ROUNDS=<n>` overrides the count.
//
// Every server interaction here happens under an armed fault session —
// the schedule's real plan, or an inert one for boot and for the
// no-fault control schedules. That is not optional hygiene: a server
// recompute runs the full pipeline, so unarmed traffic from this group
// could consume a single-shot `trim-round` plan armed by the main
// battery running in the same process.
// ---------------------------------------------------------------------------

const SERVE_DEFAULT_ROUNDS: u64 = 24;

/// What a server schedule injects.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum ServeScenario {
    /// No fault: recompute must bump the epoch, answers stay correct.
    Control,
    /// Panic at the epoch-swap point: recompute fails typed, the old
    /// epoch keeps serving, the next recompute heals.
    SwapKill,
    /// Panic inside a query handler: exactly one connection dies, the
    /// listener and fresh connections survive.
    FrameKill,
    /// Delay inside a query handler with a 1ms budget: the miss is a
    /// typed `DeadlineExceeded`, and the next (unarmed) query answers.
    FrameStall,
    /// Panic at a pipeline site during recompute: `Fallback` absorbs it
    /// and publishes, `Fail` degrades to a typed `RecomputeFailed` with
    /// the old epoch serving.
    RecomputeKill,
    /// Panic at the incr-merge point while an inserted back edge is
    /// collapsing its merge set: the write fails typed, the old epoch
    /// keeps serving the pre-mutation answers, and the retried insert
    /// heals by rebuild into the merged (Tarjan-on-mutated-graph)
    /// partition.
    MergeKill,
    /// Panic at the delta-compact point: only the rebuilt backend is
    /// lost — base + overlay keep answering, and the retried compact
    /// folds the staged deltas.
    CompactKill,
}

struct ServeSchedule {
    scenario: ServeScenario,
    graph: usize,
    threads: usize,
    policy: PanicPolicy,
    plan: FaultPlan,
}

/// An inert plan: arming it serializes with the other battery without
/// injecting anything.
fn serve_inert_plan() -> FaultPlan {
    FaultPlan {
        site: Some("serve-chaos-inert"),
        nth: 0,
        kind: FaultKind::Panic,
        repeat: false,
    }
}

fn derive_serve(seed: u64, num_graphs: usize) -> ServeSchedule {
    let mut s = seed;
    let scenario = [
        ServeScenario::Control,
        ServeScenario::SwapKill,
        ServeScenario::FrameKill,
        ServeScenario::FrameStall,
        ServeScenario::RecomputeKill,
        ServeScenario::MergeKill,
        ServeScenario::CompactKill,
    ][(splitmix64(&mut s) % 7) as usize];
    let graph = (splitmix64(&mut s) % num_graphs as u64) as usize;
    let threads = [1, 2, 4][(splitmix64(&mut s) % 3) as usize];
    let policy = if splitmix64(&mut s).is_multiple_of(2) {
        PanicPolicy::Fail
    } else {
        PanicPolicy::Fallback
    };
    let plan = match scenario {
        ServeScenario::Control => serve_inert_plan(),
        ServeScenario::SwapKill => FaultPlan {
            site: Some(fault::SERVE_SWAP),
            nth: 0,
            kind: FaultKind::Panic,
            repeat: false,
        },
        ServeScenario::FrameKill => FaultPlan {
            site: Some(fault::SERVE_FRAME),
            nth: splitmix64(&mut s) % 3,
            kind: FaultKind::Panic,
            repeat: false,
        },
        ServeScenario::FrameStall => FaultPlan {
            site: Some(fault::SERVE_FRAME),
            nth: 0,
            kind: FaultKind::Delay(Duration::from_millis(40)),
            repeat: false,
        },
        ServeScenario::RecomputeKill => {
            // Method2's pipeline always runs trim and fwbw; wcc joins
            // the rotation as a sometimes-skipped site (counted via
            // `fault::fired`).
            let site =
                ["trim-round", "fwbw-superstep", "wcc-round"][(splitmix64(&mut s) % 3) as usize];
            FaultPlan {
                site: Some(site),
                nth: splitmix64(&mut s) % 2,
                kind: FaultKind::Panic,
                repeat: splitmix64(&mut s).is_multiple_of(3),
            }
        }
        ServeScenario::MergeKill => FaultPlan {
            site: Some(fault::INCR_MERGE),
            nth: 0,
            kind: FaultKind::Panic,
            repeat: false,
        },
        ServeScenario::CompactKill => FaultPlan {
            site: Some(fault::DELTA_COMPACT),
            nth: 0,
            kind: FaultKind::Panic,
            repeat: false,
        },
    };
    ServeSchedule {
        scenario,
        graph,
        threads,
        policy,
        plan,
    }
}

/// Samples seeded node pairs and checks `same-scc` answers against the
/// Tarjan oracle labels. Every wire failure is a violation here: these
/// run when the connection is expected healthy.
fn check_oracle_pairs(
    c: &mut Client,
    oracle: &[u32],
    seed: u64,
    describe: &dyn Fn() -> String,
) -> Result<(), String> {
    let n = oracle.len() as u64;
    if n == 0 {
        // The empty graph has no in-range pairs; probe the typed
        // out-of-range path instead.
        return match c.same_scc(0, 0, 0) {
            Ok(Response::OutOfRange) => Ok(()),
            other => Err(format!("{}: empty graph gave {other:?}", describe())),
        };
    }
    let mut s = seed;
    for _ in 0..4 {
        let u = (splitmix64(&mut s) % n) as u32;
        let v = (splitmix64(&mut s) % n) as u32;
        let want = oracle[u as usize] == oracle[v as usize];
        match c.same_scc(u, v, 0) {
            Ok(Response::Bool(got)) if got == want => {}
            other => {
                return Err(format!(
                    "{}: same_scc({u},{v}) wanted {want}, got {other:?}",
                    describe()
                ))
            }
        }
    }
    Ok(())
}

/// Tarjan oracle over the base graph plus `extra` edges — the ground
/// truth a healed incremental engine must serve after a mutation.
fn mutated_oracle(g: &CsrGraph, extra: &[(u32, u32)]) -> Vec<u32> {
    let mut edges: Vec<(u32, u32)> = g.edges().collect();
    edges.extend_from_slice(extra);
    detect_scc(
        &CsrGraph::from_edges(g.num_nodes(), &edges),
        Algorithm::Tarjan,
        &SccConfig::default(),
    )
    .0
    .canonical_labels()
}

/// Runs one server schedule end-to-end; returns whether the armed fault
/// actually fired, or a violation description.
fn run_serve_schedule(
    seed: u64,
    pool: &[(&'static str, CsrGraph, Vec<u32>)],
) -> Result<(ServeScenario, bool), String> {
    let sched = derive_serve(seed, pool.len());
    let (gname, g, oracle) = &pool[sched.graph];
    let describe = || {
        format!(
            "serve seed {seed}: {:?} on {gname} ({} threads, {:?}, plan {:?})",
            sched.scenario, sched.threads, sched.policy, sched.plan
        )
    };

    let mut scc = SccConfig::with_threads(sched.threads);
    scc.on_panic = sched.policy;
    let config = ServeConfig {
        scc,
        ..ServeConfig::default()
    };

    // Boot under an inert session so pipeline-site plans cannot hit the
    // initial build — the scenario under test is the *recompute* path.
    let (server, bound, handle) = {
        let _quiet = fault::arm(serve_inert_plan());
        let listener = Listener::bind(&Endpoint::Tcp("127.0.0.1:0".into()))
            .map_err(|e| format!("{}: bind failed: {e}", describe()))?;
        let bound = listener
            .local_endpoint()
            .map_err(|e| format!("{}: no local endpoint: {e}", describe()))?;
        let server = Server::new(ServedGraph::Raw(g.clone()), config)
            .map_err(|e| format!("{}: initial build failed: {e}", describe()))?;
        let loop_server = Arc::clone(&server);
        let handle = swscc::sync::thread::spawn(move || loop_server.run(listener));
        (server, bound, handle)
    };

    let fault_guard = fault::arm(sched.plan);
    let io = Duration::from_secs(10);
    let connect =
        || Client::connect(&bound, io).map_err(|e| format!("{}: connect failed: {e}", describe()));
    let result = (|| -> Result<(), String> {
        let mut c = connect()?;
        match sched.scenario {
            ServeScenario::Control => {
                check_oracle_pairs(&mut c, oracle, seed ^ 1, &describe)?;
                match c.recompute() {
                    Ok(Response::Recomputed { epoch: 1 }) => {}
                    other => return Err(format!("{}: recompute gave {other:?}", describe())),
                }
                check_oracle_pairs(&mut c, oracle, seed ^ 2, &describe)?;
            }
            ServeScenario::SwapKill => {
                match c.recompute() {
                    Ok(Response::RecomputeFailed { message })
                        if message.contains("injected fault") => {}
                    other => return Err(format!("{}: kill gave {other:?}", describe())),
                }
                if server.epoch() != 0 {
                    return Err(format!("{}: failed swap advanced the epoch", describe()));
                }
                let stats = c
                    .stats()
                    .map_err(|e| format!("{}: stats failed: {e}", describe()))?;
                if !stats.stale || stats.recomputes_failed != 1 {
                    return Err(format!(
                        "{}: stale bookkeeping wrong: {stats:?}",
                        describe()
                    ));
                }
                check_oracle_pairs(&mut c, oracle, seed ^ 3, &describe)?;
                // One-shot plan is spent: the service heals.
                match c.recompute() {
                    Ok(Response::Recomputed { epoch: 1 }) => {}
                    other => return Err(format!("{}: heal gave {other:?}", describe())),
                }
            }
            ServeScenario::FrameKill => {
                // The nth admitted query panics its handler: that one
                // connection must die; earlier queries and later fresh
                // connections must answer.
                let nth = sched.plan.nth as usize;
                let mut died = false;
                for i in 0..=nth {
                    match c.scc_id(0, 0) {
                        Ok(_) if i < nth => {}
                        Err(_) if i == nth => died = true,
                        other => {
                            return Err(format!("{}: query {i}/{nth} gave {other:?}", describe()))
                        }
                    }
                }
                if !died {
                    return Err(format!("{}: victim connection survived", describe()));
                }
                let mut fresh = connect()?;
                check_oracle_pairs(&mut fresh, oracle, seed ^ 4, &describe)?;
                let stats = fresh
                    .stats()
                    .map_err(|e| format!("{}: stats failed: {e}", describe()))?;
                if stats.quarantined < 1 {
                    return Err(format!("{}: panic not counted as quarantine", describe()));
                }
            }
            ServeScenario::FrameStall => {
                match c.scc_id(0, 1) {
                    Ok(Response::DeadlineExceeded) => {}
                    other => return Err(format!("{}: stall gave {other:?}", describe())),
                }
                // Plan consumed; the connection survived the miss.
                check_oracle_pairs(&mut c, oracle, seed ^ 5, &describe)?;
            }
            ServeScenario::RecomputeKill => {
                let reply = c
                    .recompute()
                    .map_err(|e| format!("{}: recompute dropped: {e}", describe()))?;
                let fired = fault::fired();
                match (reply, sched.policy, fired) {
                    // No-fire (site past the run's rounds): plain success.
                    (Response::Recomputed { epoch: 1 }, _, false) => {}
                    // Fallback absorbs the panic and still publishes.
                    (Response::Recomputed { epoch: 1 }, PanicPolicy::Fallback, true) => {}
                    (Response::RecomputeFailed { message }, PanicPolicy::Fail, true) => {
                        if !message.contains("injected fault") {
                            return Err(format!("{}: non-injected failure: {message}", describe()));
                        }
                        if server.epoch() != 0 {
                            return Err(format!(
                                "{}: failed recompute advanced the epoch",
                                describe()
                            ));
                        }
                    }
                    (other, policy, fired) => {
                        return Err(format!(
                            "{}: ({other:?}, {policy:?}, fired={fired}) is not a legal outcome",
                            describe()
                        ))
                    }
                }
                // Whatever epoch is serving must still answer correctly
                // (repeat plans can keep firing here — queries don't
                // cross pipeline sites, so they stay clean).
                check_oracle_pairs(&mut c, oracle, seed ^ 6, &describe)?;
            }
            ServeScenario::MergeKill => {
                // Reversing a cross-SCC base edge closes a condensation
                // cycle, so the insert is guaranteed to reach the
                // incr-merge point. A fully condensed graph has no such
                // edge: the plan legitimately never fires, reads still
                // answer.
                let cross = g
                    .edges()
                    .find(|&(eu, ev)| oracle[eu as usize] != oracle[ev as usize]);
                let Some((eu, ev)) = cross else {
                    check_oracle_pairs(&mut c, oracle, seed ^ 7, &describe)?;
                    return Ok(());
                };
                match c.insert_edge(ev, eu, 0) {
                    Ok(Response::MutateFailed { message })
                        if message.contains("injected fault") => {}
                    other => return Err(format!("{}: killed merge gave {other:?}", describe())),
                }
                if server.epoch() != 0 {
                    return Err(format!("{}: killed merge advanced the epoch", describe()));
                }
                // Old epoch serving: pre-mutation answers, failure counted.
                check_oracle_pairs(&mut c, oracle, seed ^ 8, &describe)?;
                let stats = c
                    .stats()
                    .map_err(|e| format!("{}: stats failed: {e}", describe()))?;
                if stats.mutations_failed != 1 {
                    return Err(format!(
                        "{}: mutate-failed bookkeeping wrong: {stats:?}",
                        describe()
                    ));
                }
                // Plan spent: the retry heals by rebuild (the graph
                // already holds the edge) and publishes the merged
                // partition, which must match Tarjan on the mutated
                // graph.
                match c.insert_edge(ev, eu, 0) {
                    Ok(Response::Mutated(m)) if m.epoch == 1 => {}
                    other => return Err(format!("{}: healing insert gave {other:?}", describe())),
                }
                let healed = mutated_oracle(g, &[(ev, eu)]);
                check_oracle_pairs(&mut c, &healed, seed ^ 9, &describe)?;
            }
            ServeScenario::CompactKill => {
                // Stage a pending overlay entry when the graph has nodes
                // (a self-loop is partition-neutral, so the oracle stays
                // valid throughout).
                if !oracle.is_empty() {
                    match c.insert_edge(0, 0, 0) {
                        Ok(Response::Mutated(_)) => {}
                        other => {
                            return Err(format!("{}: staging insert gave {other:?}", describe()))
                        }
                    }
                }
                let staged = c
                    .stats()
                    .map_err(|e| format!("{}: stats failed: {e}", describe()))?
                    .pending_deltas;
                match c.compact() {
                    Ok(Response::MutateFailed { message })
                        if message.contains("injected fault") => {}
                    other => return Err(format!("{}: killed compact gave {other:?}", describe())),
                }
                // Only the rebuilt backend was lost: base + overlay keep
                // answering, and the retried compact folds the staged
                // entries.
                check_oracle_pairs(&mut c, oracle, seed ^ 10, &describe)?;
                match c.compact() {
                    Ok(Response::Compacted { folded, .. }) if folded == staged => {}
                    other => {
                        return Err(format!(
                            "{}: healing compact gave {other:?} (staged {staged})",
                            describe()
                        ))
                    }
                }
                let stats = c
                    .stats()
                    .map_err(|e| format!("{}: stats failed: {e}", describe()))?;
                if stats.pending_deltas != 0 {
                    return Err(format!(
                        "{}: compact left {} deltas pending",
                        describe(),
                        stats.pending_deltas
                    ));
                }
                check_oracle_pairs(&mut c, oracle, seed ^ 11, &describe)?;
            }
        }
        Ok(())
    })();
    let fired = fault::fired();
    drop(fault_guard);

    // Shut down under an inert session too: zero unarmed traffic.
    {
        let _quiet = fault::arm(serve_inert_plan());
        server.request_shutdown();
        match handle.join() {
            Ok(Ok(())) => {}
            Ok(Err(e)) => return Err(format!("{}: accept loop error: {e}", describe())),
            Err(_) => return Err(format!("{}: accept loop panicked", describe())),
        }
    }
    result.map(|()| (sched.scenario, fired))
}

#[test]
fn server_chaos_battery() {
    install_quiet_panic_hook();
    let pool = graph_pool();

    if let Ok(seed) = std::env::var("SERVE_CHAOS_SEED") {
        let seed: u64 = seed.parse().expect("SERVE_CHAOS_SEED must be a u64");
        match run_serve_schedule(seed, &pool) {
            Ok((scenario, fired)) => {
                println!("serve seed {seed}: ok ({scenario:?}, fault fired: {fired})")
            }
            Err(msg) => panic!("serve chaos replay failed: {msg}"),
        }
        return;
    }

    let rounds: u64 = std::env::var("SERVE_CHAOS_ROUNDS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(SERVE_DEFAULT_ROUNDS);
    let mut chain = 0x5e12e_c4a05u64;
    let mut failures = Vec::new();
    let mut by_scenario: BTreeMap<&'static str, (u64, u64)> = BTreeMap::new();
    for _ in 0..rounds {
        let seed = splitmix64(&mut chain);
        match run_serve_schedule(seed, &pool) {
            Ok((scenario, fired)) => {
                let name = match scenario {
                    ServeScenario::Control => "control",
                    ServeScenario::SwapKill => "swap-kill",
                    ServeScenario::FrameKill => "frame-kill",
                    ServeScenario::FrameStall => "frame-stall",
                    ServeScenario::RecomputeKill => "recompute-kill",
                    ServeScenario::MergeKill => "merge-kill",
                    ServeScenario::CompactKill => "compact-kill",
                };
                let entry = by_scenario.entry(name).or_insert((0, 0));
                entry.0 += 1;
                entry.1 += u64::from(fired);
            }
            Err(msg) => failures.push(msg),
        }
    }
    assert!(
        failures.is_empty(),
        "{} of {rounds} server chaos schedules failed (replay with SERVE_CHAOS_SEED=<seed>):\n{}",
        failures.len(),
        failures.join("\n")
    );
    println!("server chaos coverage over {rounds} schedules (scenario: fired/scheduled):");
    for (name, &(scheduled, fired)) in &by_scenario {
        println!("  {name:<16} {fired:>3}/{scheduled:<3}");
    }
    // Vacuity guard: at least one schedule of a fault-bearing scenario
    // must have actually fired its fault, or the serve sites are stale.
    let fired_count: u64 = by_scenario
        .iter()
        .filter(|(name, _)| **name != "control")
        .map(|(_, &(_, f))| f)
        .sum();
    assert!(
        fired_count >= 1,
        "no server chaos schedule fired its fault — serve site list out of date?"
    );
}
