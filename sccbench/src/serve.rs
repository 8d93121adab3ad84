//! Served workloads: a `swscc-serve` child process on a generated graph
//! file, driven in a closed loop over unix-socket connections.
//!
//! * `serve-read` — the livej analog at scale 4 on the raw backend.
//!   `threads` connections each send same-scc 50% / scc-id 30% /
//!   condensation-reach 20%, every id in range, no writes.
//! * `serve-write` — the livej analog at scale 1. One connection sends
//!   a seeded stream of single `insert-edge` / `delete-edge` requests
//!   (see [`WriteStream`]) while a second connection runs `serve-read`'s
//!   mix.
//!
//! Every request carries a deadline far above write latency, so a
//! healthy daemon fails nothing. At the end every node's `scc-id` is
//! checked against Tarjan on the (mutated) graph, and a seeded sample of
//! `condensation-reach` answers against reachability on the same graph.

use crate::oracle::{LabelMatcher, Oracle};
use crate::stats::{mean, median, ms, percentile, us, window_of, Rng, Windowed, WINDOWS};
use crate::trace::Tracer;
use crate::{Args, Report, Workload};
use std::collections::HashSet;
use std::io::{BufReader, Write};
use std::os::unix::net::UnixStream;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};
use swscc::core::incremental::{IncrementalEngine, Mutation, MutationOutcome};
use swscc::graph::datasets::Dataset;
use swscc::graph::{io, CsrGraph, DeltaGraph};
use swscc::serve::admission::AdmissionGate;
use swscc::serve::protocol::{
    decode_request, decode_response, encode_request, encode_response, read_frame, write_frame,
    MAX_RESPONSE_FRAME,
};
use swscc::serve::{Client, Endpoint, FrameError, Request, Response, StatsReply};
use swscc::sync::epoch::EpochCell;
use swscc::{Algorithm, Pipeline, RunGuard, SccConfig, SccSnapshot};

/// Daemon start-ups per untraced run; `setup_s` is their median.
/// `serve-write`'s daemon starts in well under a second, so it takes
/// more of them to give a steady median.
const SETUPS_READ: usize = 3;
const SETUPS_WRITE: usize = 7;
/// Deadline budget on every request: far above any write's latency.
const DEADLINE_MS: u32 = 30_000;
const IO_TIMEOUT: Duration = Duration::from_secs(60);
/// `Overloaded` replies are retried this often before counting as failed.
const RETRIES: usize = 8;
/// Seeded `condensation-reach` answers checked against the oracle.
const REACH_SAMPLE: usize = 1024;
/// Writes whose outcomes must repeat exactly between runs of a seed.
const COUNTED_WRITES: usize = 32;
/// In the traced run one read in this many is recorded as a span.
const TRACE_EVERY: u64 = 16;
/// Traced reads replayed in-process through the layer functions.
const REPLAYED_READS: usize = 5_000;

/// A running daemon; killed and reaped on drop if not shut down.
struct Daemon {
    child: Child,
    socket: PathBuf,
}

impl Daemon {
    /// Spawns the daemon and returns it with the time from spawn to its
    /// first `stats` reply (load, engine build and epoch-0 snapshot) and
    /// that reply.
    fn start(
        args: &Args,
        graph: &Path,
        k: usize,
    ) -> Result<(Daemon, Duration, StatsReply), String> {
        let socket = args.work.join(format!("d{}-{k}.sock", std::process::id()));
        let t = Instant::now();
        let child = Command::new(&args.daemon)
            .arg(graph)
            .arg("--socket")
            .arg(&socket)
            .args(["--threads", &args.threads.to_string()])
            .args(["--deadline-ms", &DEADLINE_MS.to_string()])
            .args(["--max-deadline-ms", &DEADLINE_MS.to_string()])
            .args(["--io-timeout-ms", &IO_TIMEOUT.as_millis().to_string()])
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .spawn()
            .map_err(|e| format!("cannot start {}: {e}", args.daemon.display()))?;
        let mut daemon = Daemon { child, socket };
        loop {
            if let Ok(Some(status)) = daemon.child.try_wait() {
                return Err(format!("daemon exited during start-up: {status}"));
            }
            if t.elapsed() > Duration::from_secs(120) {
                return Err("daemon did not answer within 120 s".into());
            }
            if let Ok(mut c) = daemon.client() {
                let stats = c.stats().map_err(|e| format!("first stats: {e}"))?;
                return Ok((daemon, t.elapsed(), stats));
            }
            std::thread::sleep(Duration::from_millis(2));
        }
    }

    fn client(&self) -> std::io::Result<Client> {
        Client::connect(&Endpoint::Unix(self.socket.clone()), IO_TIMEOUT)
    }

    fn hwm_mb(&self) -> Option<f64> {
        crate::stats::vm_hwm_mb(&self.child.id().to_string())
    }

    /// Sends `shutdown` and waits for the process to end.
    fn stop(mut self) -> Result<(), String> {
        let sent = self
            .client()
            .map_err(|e| e.to_string())
            .and_then(|mut c| c.shutdown().map_err(|e| e.to_string()));
        let t = Instant::now();
        while t.elapsed() < Duration::from_secs(30) {
            if let Ok(Some(_)) = self.child.try_wait() {
                return sent.map_err(|e| format!("shutdown: {e}"));
            }
            std::thread::sleep(Duration::from_millis(5));
        }
        Err("daemon did not exit within 30 s of shutdown".into())
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        if let Ok(None) = self.child.try_wait() {
            let _ = self.child.kill();
            let _ = self.child.wait();
        }
        let _ = std::fs::remove_file(&self.socket);
    }
}

/// Removes the generated graph file when the run ends, however it ends.
struct TempFile(PathBuf);

impl Drop for TempFile {
    fn drop(&mut self) {
        let _ = std::fs::remove_file(&self.0);
    }
}

/// One read of `serve-read`'s mix, every id in range.
fn read_request(rng: &mut Rng, n: u32) -> Request {
    let pick = rng.below(100);
    let u = rng.below(u64::from(n)) as u32;
    let v = rng.below(u64::from(n)) as u32;
    let deadline_ms = DEADLINE_MS;
    match pick {
        0..=49 => Request::SameScc { u, v, deadline_ms },
        50..=79 => Request::SccId { u, deadline_ms },
        _ => Request::CondReach { u, v, deadline_ms },
    }
}

/// The answer a read got, or `None` for a reply of the wrong type.
fn read_answer(req: &Request, resp: &Response) -> Option<u32> {
    match (req, resp) {
        (Request::SameScc { .. } | Request::CondReach { .. }, Response::Bool(b)) => {
            Some(u32::from(*b))
        }
        (Request::SccId { .. }, Response::Id(id)) => Some(*id),
        _ => None,
    }
}

/// A synchronous call that retries `Overloaded` with the suggested
/// backoff. `Err` is the failure: a typed error reply after retries, or
/// a transport error.
fn call(client: &mut Client, req: &Request) -> Result<Response, String> {
    for _ in 0..RETRIES {
        match client.call(req) {
            Ok(Response::Overloaded { retry_after_ms }) => {
                std::thread::sleep(Duration::from_millis(u64::from(retry_after_ms)));
            }
            Ok(resp) => return Ok(resp),
            Err(e) => return Err(format!("transport: {e}")),
        }
    }
    Err("overloaded after retries".into())
}

/// A read sent inside a `bench.request` span (traced run only).
struct TracedRead {
    id: u64,
    req: Request,
    answer: u32,
    wire: Duration,
}

/// What the reader connections did.
#[derive(Default)]
struct ReadLoop {
    /// Round-trip latency of every answered read outside a span, in
    /// microseconds.
    latency_us: Windowed,
    traced: Vec<TracedRead>,
    answers: Vec<(Request, u32)>,
    attempted: u64,
    failures: Vec<String>,
    tracer: Option<Tracer>,
}

impl ReadLoop {
    /// Pools what several connections did.
    fn merge(loops: Vec<ReadLoop>) -> ReadLoop {
        let mut all = ReadLoop::default();
        for l in loops {
            all.latency_us.absorb(l.latency_us);
            all.traced.extend(l.traced);
            all.answers.extend(l.answers);
            all.attempted += l.attempted;
            all.failures.extend(l.failures);
            all.tracer = match (all.tracer, l.tracer) {
                (Some(mut a), Some(b)) => {
                    a.absorb(b);
                    Some(a)
                }
                (a, b) => a.or(b),
            };
        }
        all
    }
}

/// Sends reads back to back on one connection until the measured
/// phase `(start, deadline)` ends.
fn read_loop(
    d: &Daemon,
    lane: u64,
    seed: u64,
    n: u32,
    (start, deadline): (Instant, Instant),
    tracer: Option<Tracer>,
) -> ReadLoop {
    let mut out = ReadLoop {
        tracer,
        ..ReadLoop::default()
    };
    let mut rng = Rng::lane(seed, lane);
    let mut client = match d.client() {
        Ok(c) => c,
        Err(e) => {
            out.attempted += 1;
            out.failures.push(format!("connect: {e}"));
            return out;
        }
    };
    while Instant::now() < deadline {
        let req = read_request(&mut rng, n);
        let id = (lane << 32) | out.attempted;
        out.attempted += 1;
        let t = Instant::now();
        let resp = call(&mut client, &req);
        let end = Instant::now();
        let lat = us(end - t);
        match resp.map(|r| (read_answer(&req, &r), r)) {
            Ok((Some(answer), _)) => {
                // In the traced run some reads are recorded as spans, after
                // their clock stopped, and later replayed in-process.
                match out.tracer.as_mut() {
                    Some(tr) if id % TRACE_EVERY == 1 => {
                        tr.record("bench.request", t, end, id);
                        out.traced.push(TracedRead {
                            id,
                            req: req.clone(),
                            answer,
                            wire: end - t,
                        });
                    }
                    _ => out.latency_us.push(window_of(start, deadline, end), lat),
                }
                out.answers.push((req, answer));
            }
            Ok((None, r)) => out.failures.push(format!("{req:?} answered {r:?}")),
            Err(e) => {
                out.failures.push(format!("{req:?}: {e}"));
                match d.client() {
                    Ok(c) => client = c,
                    Err(_) => break,
                }
            }
        }
    }
    out
}

/// Sends `reqs` on one connection, a window at a time without waiting
/// for each reply, and returns the replies in order.
fn pipelined(socket: &Path, reqs: &[Request]) -> Result<Vec<Response>, FrameError> {
    let io_err = |e: std::io::Error| FrameError::Io(e.kind());
    let stream = UnixStream::connect(socket).map_err(io_err)?;
    stream.set_read_timeout(Some(IO_TIMEOUT)).map_err(io_err)?;
    stream.set_write_timeout(Some(IO_TIMEOUT)).map_err(io_err)?;
    let mut reader = BufReader::new(stream.try_clone().map_err(io_err)?);
    let mut writer = stream;
    let mut out = Vec::with_capacity(reqs.len());
    for window in reqs.chunks(256) {
        let mut buf = Vec::new();
        for r in window {
            write_frame(&mut buf, &encode_request(r))?;
        }
        writer.write_all(&buf).map_err(io_err)?;
        for _ in window {
            out.push(decode_response(&read_frame(
                &mut reader,
                MAX_RESPONSE_FRAME,
            )?)?);
        }
    }
    Ok(out)
}

/// Checks every node's `scc-id` and a seeded sample of
/// `condensation-reach` answers against `oracle`.
fn sweep(d: &Daemon, oracle: &Oracle, seed: u64, report: &mut Report) {
    let n = oracle.labels.len() as u32;
    let mut reqs: Vec<Request> = (0..n)
        .map(|u| Request::SccId {
            u,
            deadline_ms: DEADLINE_MS,
        })
        .collect();
    let mut rng = Rng::lane(seed, 0x5eed);
    reqs.extend((0..REACH_SAMPLE).map(|_| Request::CondReach {
        u: rng.below(u64::from(n)) as u32,
        v: rng.below(u64::from(n)) as u32,
        deadline_ms: DEADLINE_MS,
    }));
    report.attempted += reqs.len() as u64;
    let replies = match pipelined(&d.socket, &reqs) {
        Ok(r) => r,
        Err(e) => {
            report.failed += reqs.len() as u64;
            report.check(false, || format!("final sweep: {e}"));
            return;
        }
    };
    let mut matcher = LabelMatcher::new(&oracle.labels, oracle.num_components);
    let (mut failed, mut wrong_ids, mut wrong_reach) = (0u64, 0u64, 0u64);
    for (req, resp) in reqs.iter().zip(&replies) {
        match (req, read_answer(req, resp)) {
            (_, None) => failed += 1,
            (Request::SccId { u, .. }, Some(id)) => {
                wrong_ids += u64::from(!matcher.check(*u, id));
            }
            (Request::CondReach { u, v, .. }, Some(b)) => {
                wrong_reach += u64::from(oracle.reach(*u, *v) != (b == 1));
            }
            _ => unreachable!("the sweep sends only scc-id and reach"),
        }
    }
    report.failed += failed + wrong_ids + wrong_reach;
    report.check(failed == 0, || {
        format!("final sweep: {failed} failed replies")
    });
    report.check(wrong_ids == 0, || {
        format!("final sweep: {wrong_ids} of {n} scc-id answers disagree with Tarjan")
    });
    report.check(wrong_reach == 0, || {
        format!("final sweep: {wrong_reach} of {REACH_SAMPLE} reach answers are wrong")
    });
}

/// Checks the closed loop's answers against an unchanging graph: every
/// same-scc and scc-id answer, and a seeded sample of reach answers.
fn check_reads(reads: &ReadLoop, oracle: &Oracle, report: &mut Report) {
    let mut matcher = LabelMatcher::new(&oracle.labels, oracle.num_components);
    let mut wrong = 0u64;
    let mut reach_checked = 0;
    for (req, answer) in &reads.answers {
        let right = match *req {
            Request::SameScc { u, v, .. } => oracle.same_scc(u, v) == (*answer == 1),
            Request::SccId { u, .. } => matcher.check(u, *answer),
            Request::CondReach { u, v, .. } if reach_checked < REACH_SAMPLE => {
                reach_checked += 1;
                oracle.reach(u, v) == (*answer == 1)
            }
            _ => true,
        };
        wrong += u64::from(!right);
    }
    report.failed += wrong;
    report.check(wrong == 0, || {
        format!("{wrong} closed-loop answers disagree with the oracle")
    });
}

/// Writes per cycle of the stream: three inserts, then two deletes.
const CYCLE: usize = 5;

/// The seeded write stream of `serve-write`: three inserts of fresh
/// edges, then two deletes of edges the stream inserted, over and over.
/// Both endpoints of every insert lie in the base graph's giant SCC, so
/// every insert applies in order and every delete repairs the giant SCC,
/// which exceeds the engine's residue limit and rebuilds. Exactly two
/// writes in five rebuild, whatever the seed.
struct WriteStream<'g> {
    rng: Rng,
    ops: u64,
    base: &'g CsrGraph,
    giant: Vec<u32>,
    live: Vec<(u32, u32)>,
    live_set: HashSet<(u32, u32)>,
}

impl<'g> WriteStream<'g> {
    fn new(base: &'g CsrGraph, giant: Vec<u32>, seed: u64) -> WriteStream<'g> {
        WriteStream {
            rng: Rng::lane(seed, 0x3717e),
            ops: 0,
            base,
            giant,
            live: Vec::new(),
            live_set: HashSet::new(),
        }
    }

    fn next_op(&mut self) -> Mutation {
        self.ops += 1;
        if (1..=3).contains(&(self.ops % CYCLE as u64)) {
            let k = self.giant.len() as u64;
            loop {
                let u = self.giant[self.rng.below(k) as usize];
                let v = self.giant[self.rng.below(k) as usize];
                if u != v && !self.base.has_edge(u, v) && self.live_set.insert((u, v)) {
                    self.live.push((u, v));
                    return Mutation::Insert(u, v);
                }
            }
        }
        let i = self.rng.below(self.live.len() as u64) as usize;
        let (u, v) = self.live.swap_remove(i);
        self.live_set.remove(&(u, v));
        Mutation::Delete(u, v)
    }

    /// The graph the stream has produced so far.
    fn materialize(&self) -> CsrGraph {
        let mut edges: Vec<(u32, u32)> = self.base.edges().collect();
        edges.extend(&self.live);
        CsrGraph::from_edges(self.base.num_nodes(), &edges)
    }
}

/// One answered write: latency and what the daemon reported it did.
struct WriteRecord {
    op: Mutation,
    start: Instant,
    end: Instant,
    merges: u32,
    splits: u32,
    rebuilds: u32,
    num_components: u64,
}

/// Sends the write stream on one connection until `deadline`.
fn write_loop(
    d: &Daemon,
    stream: &mut WriteStream,
    deadline: Instant,
) -> (Vec<WriteRecord>, u64, Vec<String>) {
    let (mut records, mut attempted, mut failures) = (Vec::new(), 0, Vec::new());
    let mut client = match d.client() {
        Ok(c) => c,
        Err(e) => return (records, 1, vec![format!("connect: {e}")]),
    };
    while Instant::now() < deadline {
        let op = stream.next_op();
        let req = match op {
            Mutation::Insert(u, v) => Request::InsertEdge {
                u,
                v,
                deadline_ms: DEADLINE_MS,
            },
            Mutation::Delete(u, v) => Request::DeleteEdge {
                u,
                v,
                deadline_ms: DEADLINE_MS,
            },
        };
        attempted += 1;
        let start = Instant::now();
        let resp = call(&mut client, &req);
        let end = Instant::now();
        match resp {
            Ok(Response::Mutated(r)) if r.applied == 1 && r.noops == 0 => {
                records.push(WriteRecord {
                    op,
                    start,
                    end,
                    merges: r.merges,
                    splits: r.splits,
                    rebuilds: r.rebuilds,
                    num_components: r.num_components,
                });
            }
            Ok(other) => failures.push(format!("{req:?} answered {other:?}")),
            Err(e) => {
                failures.push(format!("{req:?}: {e}"));
                match d.client() {
                    Ok(c) => client = c,
                    Err(_) => break,
                }
            }
        }
    }
    (records, attempted, failures)
}

fn count_failures(report: &mut Report, attempted: u64, failures: &[String]) {
    report.attempted += attempted;
    report.failed += failures.len() as u64;
    if let Some(first) = failures.first() {
        eprintln!(
            "sccbench: {} failed operations, first: {first}",
            failures.len()
        );
    }
}

pub fn run(args: &Args, report: &mut Report) -> Result<(), String> {
    let t_run = Instant::now();
    let write = args.workload == Workload::ServeWrite;
    let scale = if write { 1.0 } else { 4.0 };
    let g = Dataset::Livej.generate(scale, args.seed);
    let n = g.num_nodes() as u32;
    let file = TempFile(args.work.join(format!(
        "graph-{}-{}-{}.bin",
        args.workload.name(),
        args.seed,
        std::process::id()
    )));
    io::save_binary(&g, &file.0).map_err(|e| format!("cannot write the graph file: {e}"))?;

    let setups = match (args.trace, write) {
        (true, _) => 1,
        (false, false) => SETUPS_READ,
        (false, true) => SETUPS_WRITE,
    };
    let mut setup_times = Vec::new();
    let mut daemon = None;
    for k in 0..setups {
        if let Some(d) = daemon.take() {
            Daemon::stop(d)?;
        }
        let (d, t, stats) = Daemon::start(args, &file.0, k)?;
        setup_times.push(t.as_secs_f64());
        report.counter("cond_nodes", stats.num_components);
        daemon = Some(d);
    }
    let d = daemon.expect("at least one start-up");
    let epoch = Instant::now();
    eprintln!(
        "sccbench: set-up done at {:.1} s",
        (epoch - t_run).as_secs_f64()
    );

    let mut stream =
        write.then(|| WriteStream::new(&g, Oracle::new(&g).largest_component(), args.seed));
    let start = Instant::now();
    let deadline = start + Duration::from_secs_f64(args.seconds);
    // `serve-read` drives one connection per core; `serve-write` one
    // reader next to its writer.
    let readers = if write { 1 } else { args.threads as u64 };
    let (loops, writes) = std::thread::scope(|s| {
        let handles: Vec<_> = (1..=readers)
            .map(|lane| {
                let (d, tracer) = (&d, args.trace.then(|| Tracer::new(epoch)));
                s.spawn(move || read_loop(d, lane, args.seed, n, (start, deadline), tracer))
            })
            .collect();
        let writes = stream.as_mut().map(|st| write_loop(&d, st, deadline));
        let loops: Vec<ReadLoop> = handles
            .into_iter()
            .map(|h| h.join().expect("reader thread panicked"))
            .collect();
        (loops, writes)
    });
    let reads = ReadLoop::merge(loops);
    let window = start.elapsed().as_secs_f64();
    let rss = d.hwm_mb().ok_or("cannot read the daemon's VmHWM")?;

    count_failures(report, reads.attempted, &reads.failures);
    let oracle = match (&writes, &stream) {
        (Some((records, attempted, failures)), Some(stream)) => {
            count_failures(report, *attempted, failures);
            record_write_counters(records, report);
            Oracle::new(&stream.materialize())
        }
        _ => {
            let oracle = Oracle::new(&g);
            check_reads(&reads, &oracle, report);
            oracle
        }
    };
    eprintln!(
        "sccbench: oracle done at {:.1} s",
        t_run.elapsed().as_secs_f64()
    );
    sweep(&d, &oracle, args.seed, report);
    eprintln!(
        "sccbench: sweep done at {:.1} s",
        t_run.elapsed().as_secs_f64()
    );
    let stats = d
        .client()
        .map_err(|e| e.to_string())
        .and_then(|mut c| c.stats().map_err(|e| e.to_string()))
        .map_err(|e| format!("final stats: {e}"))?;
    report.check(
        stats.num_components as usize == oracle.num_components,
        || {
            format!(
                "daemon reports {} components, Tarjan finds {}",
                stats.num_components, oracle.num_components
            )
        },
    );

    if !args.trace {
        report.set("setup_s", median(&setup_times));
        report.set("rss_peak_mb", rss);
        // Writes are windowed by whole cycles of the stream rather than
        // by time, so that every window holds the same two-in-five share
        // of rebuilds; a last, partial cycle is left out.
        let write_ms = writes.as_ref().map(|(records, ..)| {
            let cycles = records.len() / CYCLE;
            let mut w = Windowed::default();
            for (i, r) in records.iter().take(cycles * CYCLE).enumerate() {
                w.push(i / CYCLE * WINDOWS / cycles, ms(r.end - r.start));
            }
            w
        });
        // Writes are timed in milliseconds, reads in microseconds.
        let (op, to_ms) = match &write_ms {
            Some(w) => (w, 1.0),
            None => (&reads.latency_us, 1e-3),
        };
        let ops = writes
            .as_ref()
            .map_or(reads.answers.len(), |(r, ..)| r.len());
        eprintln!(
            "sccbench: {ops} operations in {window:.2} s ({:.1}/s), read p99 {:.1} us",
            ops as f64 / window,
            percentile(&reads.latency_us.all(), 0.99)
        );
        report.set("op_mean_ms", op.median_of(mean) * to_ms);
        report.set("op_p75_ms", op.median_of(|w| percentile(w, 0.75)) * to_ms);
        return Daemon::stop(d);
    }

    let pipeline = Pipeline::stock(Algorithm::Method2).expect("method2 is a stock pipeline");
    let cfg = SccConfig::with_threads(args.threads);
    let mut tracer = Tracer::new(epoch);
    let read_us = reads.latency_us.all();
    let traced_us: Vec<f64> = reads.traced.iter().map(|r| us(r.wire)).collect();
    // The wire path carries no tracing (spans are recorded after the
    // clock stops and replayed after the loop), so there is no traced
    // path to compare and `bench.trace.overhead_pct` stays 0 here.
    report.set(
        "bench.read_p99_us",
        percentile(&[read_us.as_slice(), &traced_us].concat(), 0.99),
    );
    ping(&d, &mut tracer, report)?;
    server_counters(&stats, report);
    Daemon::stop(d)?;

    let guard = RunGuard::new();
    let mut engine = IncrementalEngine::new(DeltaGraph::new(g.clone()), pipeline, cfg, &guard)
        .map_err(|e| format!("in-process engine: {e}"))?;
    let mut builds = Vec::new();
    let mut snapshot = None;
    for i in 0..3 {
        let s = tracer.span("core.snapshot.snapshot", None, i, |_, _| {
            engine.snapshot(&guard)
        });
        snapshot = Some(s.0.map_err(|e| format!("snapshot: {e}"))?);
    }
    let snapshot = snapshot.expect("three builds");
    report.set(
        "core.snapshot.cond_nodes",
        snapshot.condensation().num_nodes() as f64,
    );
    report.set(
        "core.snapshot.cond_edges",
        snapshot.condensation().num_edges() as f64,
    );
    let cell = EpochCell::new(snapshot);
    if let Some((records, ..)) = &writes {
        replay_writes(records, &mut engine, &cell, &guard, &mut tracer, report)?;
    } else {
        for i in 0..3 {
            let s = engine
                .snapshot(&guard)
                .map_err(|e| format!("snapshot: {e}"))?;
            tracer.span("sync.epoch.publish", None, i, |_, _| cell.publish(s));
        }
    }
    for s in tracer
        .spans()
        .iter()
        .filter(|s| s.name == "core.snapshot.snapshot")
    {
        builds.push(ms(s.duration()));
    }
    report.set("core.snapshot.build_ms_p50", median(&builds));
    report.set(
        "sync.epoch.publish_us",
        median(&tracer.self_ns("sync.epoch.publish")) / 1e3,
    );

    // Without writes the replay answers from the daemon's partition, so
    // its boolean answers must match the wire's.
    replay_reads(&reads.traced, &cell, !write, &mut tracer, report);
    if let Some(t) = reads.tracer {
        tracer.absorb(t);
    }
    let path = args
        .work
        .join(format!("trace-{}.jsonl", args.workload.name()));
    tracer
        .write_jsonl(&path)
        .map_err(|e| format!("cannot write {}: {e}", path.display()))
}

/// Outcome counts of the first [`COUNTED_WRITES`] writes: the stream is
/// seeded, so these repeat exactly between runs of one seed.
fn record_write_counters(records: &[WriteRecord], report: &mut Report) {
    if records.len() < COUNTED_WRITES {
        report.check(false, || {
            format!(
                "only {} writes answered, {COUNTED_WRITES} needed",
                records.len()
            )
        });
        return;
    }
    let head = &records[..COUNTED_WRITES];
    let sum = |f: fn(&WriteRecord) -> u32| head.iter().map(|r| u64::from(f(r))).sum::<u64>();
    report.counter("write_merges", sum(|r| r.merges));
    report.counter("write_splits", sum(|r| r.splits));
    report.counter("write_rebuilds", sum(|r| r.rebuilds));
    report.counter("write_components", head[COUNTED_WRITES - 1].num_components);
}

/// Transport floor: `ping` skips admission and the snapshot.
fn ping(d: &Daemon, tracer: &mut Tracer, report: &mut Report) -> Result<(), String> {
    let mut c = d.client().map_err(|e| format!("ping connect: {e}"))?;
    let mut lat = Vec::new();
    for i in 0..2000 {
        report.attempted += 1;
        let t = Instant::now();
        let (r, _) = tracer.span("serve.net.ping", None, i, |_, _| c.ping());
        lat.push(us(t.elapsed()));
        if r.is_err() {
            report.failed += 1;
        }
    }
    report.set("serve.net.ping_us_p50", median(&lat));
    report.set("serve.net.ping_us_p99", percentile(&lat, 0.99));
    Ok(())
}

fn server_counters(s: &StatsReply, report: &mut Report) {
    report.set("serve.server.queries", s.queries as f64);
    report.set("serve.server.shed", s.shed as f64);
    report.set("serve.server.deadline_misses", s.deadline_misses as f64);
    report.set("serve.server.quarantined", s.quarantined as f64);
    report.set("serve.server.mutations_ok", s.mutations_ok as f64);
    report.set("serve.server.mutations_failed", s.mutations_failed as f64);
}

/// Replays the answered writes in order through the engine, snapshot and
/// epoch layers, and checks that each op has the outcome the daemon
/// reported.
fn replay_writes(
    records: &[WriteRecord],
    engine: &mut IncrementalEngine<CsrGraph>,
    cell: &EpochCell<SccSnapshot>,
    guard: &RunGuard,
    tracer: &mut Tracer,
    report: &mut Report,
) -> Result<(), String> {
    let mut apply_us = Vec::new();
    let mut rebuild_ms = Vec::new();
    let before = engine.counters();
    for (i, rec) in records.iter().enumerate() {
        let id = (1 << 40) | i as u64;
        tracer.record("bench.request", rec.start, rec.end, id);
        let (outcome, _) = tracer.span("bench.replay", None, id, |t, p| {
            let t0 = Instant::now();
            let (outcome, _) = t.span("core.incremental.apply", Some(p), id, |_, _| {
                engine.apply(rec.op, guard)
            });
            let apply = t0.elapsed();
            let (snap, _) = t.span("core.snapshot.snapshot", Some(p), id, |_, _| {
                engine.snapshot(guard)
            });
            let snap = snap?;
            t.span("sync.epoch.publish", Some(p), id, |_, _| cell.publish(snap));
            outcome.map(|o| (o, apply))
        });
        let (outcome, apply) = outcome.map_err(|e| format!("replayed write {i}: {e}"))?;
        apply_us.push(us(apply));
        let reported = (rec.merges, rec.splits, rec.rebuilds);
        let replayed = match outcome {
            MutationOutcome::Merged { .. } => (1, 0, 0),
            MutationOutcome::Repaired { parts } if parts > 1 => (0, 1, 0),
            MutationOutcome::Rebuilt => {
                rebuild_ms.push(ms(apply));
                (0, 0, 1)
            }
            _ => (0, 0, 0),
        };
        report.check(reported == replayed, || {
            format!("write {i}: daemon reported {reported:?}, replay gave {outcome:?}")
        });
    }
    let c = engine.counters();
    report.set("core.incremental.apply_us_p50", median(&apply_us));
    report.set("core.incremental.apply_us_p99", percentile(&apply_us, 0.99));
    report.set("core.incremental.rebuild_ms_p50", median(&rebuild_ms));
    report.set(
        "core.incremental.in_order",
        (c.in_order - before.in_order) as f64,
    );
    report.set(
        "core.incremental.reorders",
        (c.reorders - before.reorders) as f64,
    );
    report.set("core.incremental.merges", (c.merges - before.merges) as f64);
    report.set("core.incremental.splits", (c.splits - before.splits) as f64);
    report.set(
        "core.incremental.rebuilds",
        (c.full_rebuilds - before.full_rebuilds) as f64,
    );
    Ok(())
}

/// Replays traced reads in-process through the layers a read crosses in
/// the daemon: decode, admission, epoch load, snapshot query, encode.
/// Each replay shares its request id with the on-wire `bench.request`.
fn replay_reads(
    reads: &[TracedRead],
    cell: &EpochCell<SccSnapshot>,
    answers_must_match: bool,
    tracer: &mut Tracer,
    report: &mut Report,
) {
    let gate = AdmissionGate::new(64);
    let guard = RunGuard::new();
    let mut frame_bytes = Vec::new();
    let mut extra_us = Vec::new();
    let mut shed = 0u64;
    let mut mismatches = 0u64;
    for read in reads.iter().take(REPLAYED_READS) {
        let id = read.id;
        let payload = encode_request(&read.req);
        let t = Instant::now();
        tracer.span("bench.replay", None, id, |t, p| {
            let (decoded, _) = t.span("serve.protocol.decode_request", Some(p), id, |_, _| {
                decode_request(&payload)
            });
            let decoded = decoded.expect("the bench encodes valid requests");
            let (permit, _) = t.span("serve.admission.try_admit", Some(p), id, |_, _| {
                gate.try_admit()
            });
            if permit.is_none() {
                shed += 1;
            }
            let (snap, _) = t.span("sync.epoch.load", Some(p), id, |_, _| cell.load());
            let s = snap.value();
            let resp = match decoded {
                Request::SameScc { u, v, .. } => t
                    .span("core.snapshot.same_scc", Some(p), id, |_, _| {
                        s.same_scc(u, v)
                    })
                    .0
                    .map(Response::Bool),
                Request::SccId { u, .. } => t
                    .span("core.snapshot.scc_id", Some(p), id, |_, _| s.scc_id(u))
                    .0
                    .map(Response::Id),
                Request::CondReach { u, v, .. } => t
                    .span("core.snapshot.condensation_reach", Some(p), id, |_, _| {
                        s.condensation_reach(u, v, &guard)
                    })
                    .0
                    .ok()
                    .flatten()
                    .map(Response::Bool),
                _ => None,
            }
            .unwrap_or(Response::OutOfRange);
            drop(permit);
            let (bytes, _) = t.span("serve.protocol.encode_response", Some(p), id, |_, _| {
                encode_response(&resp)
            });
            frame_bytes.push((8 + payload.len() + bytes.len()) as f64);
            let bool_answer = matches!(
                read.req,
                Request::SameScc { .. } | Request::CondReach { .. }
            );
            if answers_must_match
                && bool_answer
                && read_answer(&read.req, &resp) != Some(read.answer)
            {
                mismatches += 1;
            }
        });
        extra_us.push(us(read.wire) - us(t.elapsed()));
    }
    report.check(mismatches == 0, || {
        format!("{mismatches} replayed reads answered differently from the daemon")
    });
    let med = |name: &str| median(&tracer.self_ns(name));
    let reach_us: Vec<f64> = tracer
        .self_ns("core.snapshot.condensation_reach")
        .iter()
        .map(|ns| ns / 1e3)
        .collect();
    report.set("core.snapshot.reach_us_p50", median(&reach_us));
    report.set("core.snapshot.reach_us_p99", percentile(&reach_us, 0.99));
    report.set("core.snapshot.same_scc_ns", med("core.snapshot.same_scc"));
    report.set("core.snapshot.scc_id_ns", med("core.snapshot.scc_id"));
    report.set("sync.epoch.load_ns", med("sync.epoch.load"));
    report.set(
        "serve.protocol.decode_request_ns",
        med("serve.protocol.decode_request"),
    );
    report.set(
        "serve.protocol.encode_response_ns",
        med("serve.protocol.encode_response"),
    );
    report.set(
        "serve.protocol.frame_bytes",
        frame_bytes.iter().sum::<f64>() / frame_bytes.len().max(1) as f64,
    );
    report.set("serve.admission.admit_ns", med("serve.admission.try_admit"));
    report.set("serve.admission.shed", shed as f64);
    report.set("serve.net.wire_minus_replay_us_p50", median(&extra_us));
}
