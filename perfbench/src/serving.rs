//! `serve` and `live`: the `tspg-server` binary driven over its unix
//! socket on the serving graph. `serve` runs it with default flags; `live`
//! with [`crate::workers`] worker threads, because its pipelined load keeps
//! every worker busy beside the load generator's own threads.

use crate::client::{stats_delta, ServerProcess, Stats};
use crate::inputs::{parse_feed, read_graph, read_queries, Files, SERVE_CONNECTIONS};
use crate::oracle::Reference;
use crate::replay::{report_phases, Replayer};
use crate::report::Report;
use crate::stats::median;
use crate::trace::Tracer;
use crate::{median_secs, Run, SETUP_REPS};
use std::collections::{HashSet, VecDeque};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc;
use std::time::{Duration, Instant};
use tspg_core::{QueryEngine, QuerySpec, VugReport, VugResult};
use tspg_graph::{EdgeSet, TemporalEdge, TemporalGraph};
use tspg_server::protocol::{self, Response};

/// Requests one `live` connection keeps in flight: twice the server's
/// default `admit_max` of 32, so the size trigger always fires.
const LIVE_WINDOW: usize = 64;
/// `live` queries answered before the measured phase.
const LIVE_WARM_UP: usize = 1_000;
/// `live` queries issued per ingest: about every 500 ms on a 2-vCPU host.
/// Tying ingests to the query count rather than the clock keeps the mix of
/// reads and writes, and so the share of reads that follow a cache flush,
/// the same however fast the host runs.
const QUERIES_PER_INGEST: usize = 400;
/// Distinct queries replayed phase by phase in the traced run.
const REPLAYED_QUERIES: usize = 200;
/// Idle `ping` round trips timed in the traced run.
const PINGS: usize = 200;

/// One answered (or failed) query.
struct Reply {
    query: QuerySpec,
    sent: Instant,
    received: Instant,
    /// Ingests acknowledged before the query was sent.
    lo: usize,
    /// Ingests sent before its reply was read.
    hi: usize,
    answer: Result<Vec<TemporalEdge>, String>,
}

/// One scheduled ingest.
struct Ingest {
    due: Instant,
    sent: Instant,
    acked: Instant,
}

/// Where a phase stops issuing queries.
#[derive(Clone, Copy)]
enum Stop {
    At(Instant),
    After(usize),
}

impl Stop {
    fn reached(self, issued: usize) -> bool {
        match self {
            Stop::At(deadline) => Instant::now() >= deadline,
            Stop::After(count) => issued >= count,
        }
    }
}

pub fn run(run: &Run, live: bool) -> Result<Report, String> {
    let mut report = Report::new(if live { "live" } else { "serve" });
    let mut tracer = Tracer::default();

    // Set-up: spawn the server until its first pong, several times; the
    // last one stays up for the measured phases.
    let workers = crate::workers().to_string();
    let flags: &[&str] = if live { &["--threads", &workers] } else { &[] };
    let mut setups = Vec::new();
    let mut server = None;
    for rep in 0..SETUP_REPS {
        if let Some(previous) = server.take() {
            ServerProcess::shutdown(previous)?;
        }
        let log = format!("server-{rep}.log");
        let (started, took) = ServerProcess::start(
            &run.server_bin,
            Files::SERVING.as_ref(),
            flags,
            "server.sock".as_ref(),
            log.as_ref(),
        )?;
        setups.push(took);
        server = Some(started);
    }
    let server = server.expect("at least one set-up");
    let graph = tracer.span("graph.load", None, 0, || read_graph(Files::SERVING.as_ref()))?;
    let mut control = server.connect()?;
    run.progress("set up");

    let mut replies = Vec::new();
    let mut sent_feed: Vec<Vec<TemporalEdge>> = Vec::new();
    let (qps, measured, ingests, traced_qps, traced, traced_ingests, delta);
    if live {
        let queries = read_queries(Files::LIVE_QUERIES.as_ref())?;
        let feed = parse_feed(
            &std::fs::read_to_string(Files::LIVE_FEED).map_err(|e| format!("live feed: {e}"))?,
        )?;
        let (warm, _, next) = pipeline(&server, &queries, 0, &[], 0, Stop::After(LIVE_WARM_UP))?;
        replies.extend(warm);
        let deadline = Instant::now() + Duration::from_secs_f64(run.seconds);
        let (m, i, next) = pipeline(&server, &queries, next, &feed, 0, Stop::At(deadline))?;
        sent_feed.extend(feed.iter().cycle().take(i.len()).cloned());
        (qps, measured, ingests) = (answered_per_second(&m, deadline, run.seconds), m, i);
        let before = control.stats()?;
        if run.trace {
            // The traced phase sends the feed again from its start
            // (duplicates still rebuild the CSR and flush the cache), so it
            // runs under the same write load as the untraced one.
            let deadline = Instant::now() + Duration::from_secs_f64(run.seconds);
            let epoch0 = sent_feed.len();
            let (t, i, _) = pipeline(&server, &queries, next, &feed, epoch0, Stop::At(deadline))?;
            sent_feed.extend(feed.iter().cycle().take(i.len()).cloned());
            (traced_qps, traced, traced_ingests) =
                (answered_per_second(&t, deadline, run.seconds), t, i);
        } else {
            (traced_qps, traced, traced_ingests) = (0.0, Vec::new(), Vec::new());
        }
        delta = stats_delta(&before, &control.stats()?);
    } else {
        let lists: Vec<Vec<QuerySpec>> = (0..SERVE_CONNECTIONS)
            .map(|c| read_queries(Files::serve(c).as_ref()))
            .collect::<Result<_, _>>()?;
        let warm_list = read_queries(Files::SERVE_WARM.as_ref())?;
        // Warm-up: the Zipf catalog once, split across the connections.
        let warm_lists: Vec<Vec<QuerySpec>> = (0..SERVE_CONNECTIONS)
            .map(|c| warm_list.iter().skip(c).step_by(SERVE_CONNECTIONS).copied().collect())
            .collect();
        let counts: Vec<usize> = warm_lists.iter().map(Vec::len).collect();
        let (warm, _) = closed_loop(&server, &warm_lists, &[0; SERVE_CONNECTIONS], &counts, None)?;
        replies.extend(warm);
        let deadline = Instant::now() + Duration::from_secs_f64(run.seconds);
        let (m, cursors) =
            closed_loop(&server, &lists, &[0; SERVE_CONNECTIONS], &[], Some(deadline))?;
        qps = answered_per_second(&m, deadline, run.seconds);
        measured = m;
        ingests = Vec::new();
        let before = control.stats()?;
        if run.trace {
            let deadline = Instant::now() + Duration::from_secs_f64(run.seconds);
            let (t, _) = closed_loop(&server, &lists, &cursors, &[], Some(deadline))?;
            traced_qps = answered_per_second(&t, deadline, run.seconds);
            traced = t;
        } else {
            (traced_qps, traced) = (0.0, Vec::new());
        }
        traced_ingests = Vec::new();
        delta = stats_delta(&before, &control.stats()?);
    }
    let peak_rss = server.peak_rss_mb()?;
    run.progress("served");

    let samples: Vec<f64> = measured.iter().map(|r| ms(r.received - r.sent)).collect();
    if live {
        let ingest_ms: Vec<f64> = ingests.iter().map(|i| ms(i.acked - i.due)).collect();
        report.extra("ingest_p50_ms", median(&ingest_ms).unwrap_or(0.0));
    }
    if run.trace {
        for (i, r) in traced.iter().enumerate() {
            tracer.record("request", r.sent, r.received, i as u64);
        }
        for (k, i) in traced_ingests.iter().enumerate() {
            tracer.record("ingest", i.due, i.acked, k as u64);
        }
        let mut rtts = Vec::with_capacity(PINGS);
        for k in 0..PINGS {
            let sent = Instant::now();
            control.ping()?;
            tracer.record("ping", sent, Instant::now(), k as u64);
            rtts.push(sent.elapsed());
        }
        report.extra("server.rtt_us", mean_us(&rtts));
    }
    ServerProcess::shutdown(server)?;

    replies.extend(measured);
    let traced_count = traced.len();
    replies.extend(traced);
    report.attempted = replies.len() as u64;
    report.failed += replies.iter().filter(|r| r.answer.is_err()).count() as u64;

    // Correctness gate: every answer against the reference at an epoch
    // the request could have observed.
    let mut reference = Reference::new(&graph, sent_feed.clone());
    let mut pairs = Vec::new();
    for r in &replies {
        for eff in reference.canonical_epochs(&r.query, r.lo, r.hi) {
            pairs.push((r.query, eff));
        }
    }
    run.progress("measured");
    let computed = reference.prepare(pairs, crate::threads());
    run.progress(&format!("computed {computed} reference answers"));
    for r in &replies {
        if let Ok(answer) = &r.answer {
            if reference.fresh_within(&r.query, answer, r.lo, r.hi) != Some(true) {
                eprintln!(
                    "{}: wrong or stale answer for {:?} (epochs {}..={})",
                    report.workload, r.query, r.lo, r.hi
                );
                report.failed += 1;
            }
        }
    }

    if run.trace {
        report.metric("graph.load_ms", tracer.mean_self_ms("graph.load"));
        report.metric("graph.edges", graph.num_edges() as f64);
        let traced = &replies[replies.len() - traced_count..];
        replay_client_layers(&graph, traced, &sent_feed, live, &mut tracer, &mut report);
        server_layers(&delta, &mut report);
        report.metric("trace.overhead_pct", 100.0 * (qps - traced_qps) / qps);
        if live {
            let lag: Vec<f64> = traced_ingests.iter().map(|i| ms(i.sent - i.due)).collect();
            report.extra("generator.ingest_lag_ms", median(&lag).unwrap_or(0.0));
        }
        run.write_trace(&tracer)?;
    } else {
        report.metric("setup_s", median_secs(&setups));
        report.metric("throughput_qps", qps);
        report.latencies(&samples)?;
        report.metric("peak_rss_mb", peak_rss);
    }
    Ok(report)
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

fn mean_us(durations: &[Duration]) -> f64 {
    durations.iter().map(|d| d.as_secs_f64() * 1e6).sum::<f64>() / durations.len().max(1) as f64
}

/// Answers read before `deadline`, per second of the phase.
fn answered_per_second(replies: &[Reply], deadline: Instant, seconds: f64) -> f64 {
    replies.iter().filter(|r| r.received <= deadline && r.answer.is_ok()).count() as f64 / seconds
}

fn parse_answer(line: &str, id: u64) -> Result<Vec<TemporalEdge>, String> {
    match protocol::parse_response(line) {
        Ok(Response::Result(payload)) if payload.id == id => Ok(payload.edges),
        other => Err(format!("request {id} answered with {other:?}")),
    }
}

/// Closed loop: one thread per list, each with one request outstanding,
/// from `start[c]` until `deadline` or `counts[c]` requests. Returns the
/// replies and where each list stopped.
fn closed_loop(
    server: &ServerProcess,
    lists: &[Vec<QuerySpec>],
    start: &[usize],
    counts: &[usize],
    deadline: Option<Instant>,
) -> Result<(Vec<Reply>, Vec<usize>), String> {
    let results: Vec<Result<(Vec<Reply>, usize), String>> = std::thread::scope(|scope| {
        let handles: Vec<_> = lists
            .iter()
            .enumerate()
            .map(|(c, list)| {
                let stop = match deadline {
                    Some(at) => Stop::At(at),
                    None => Stop::After(counts[c]),
                };
                let mut conn = server.connect();
                scope.spawn(move || {
                    let conn = conn.as_mut().map_err(|e| e.clone())?;
                    let mut out = Vec::new();
                    let mut cursor = start[c];
                    while !stop.reached(out.len()) {
                        let query = list[cursor % list.len()];
                        let id = cursor as u64;
                        cursor += 1;
                        let sent = Instant::now();
                        conn.send(&protocol::format_query(id, &query))?;
                        let line = conn.recv()?;
                        let received = Instant::now();
                        let answer = parse_answer(&line, id);
                        out.push(Reply { query, sent, received, lo: 0, hi: 0, answer });
                    }
                    Ok((out, cursor))
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("client thread panicked")).collect()
    });
    let mut replies = Vec::new();
    let mut cursors = Vec::new();
    for result in results {
        let (out, cursor) = result?;
        replies.extend(out);
        cursors.push(cursor);
    }
    Ok((replies, cursors))
}

/// One pipelining connection (up to [`LIVE_WINDOW`] requests in flight)
/// from `queries[cursor..]` until `stop`, beside an ingest connection that
/// sends the next batch of `feed` (cycling) each time [`QUERIES_PER_INGEST`]
/// more queries have been issued. `epoch0` is the number of ingests before
/// this phase. Returns the replies, the ingests and the next cursor.
fn pipeline(
    server: &ServerProcess,
    queries: &[QuerySpec],
    mut cursor: usize,
    feed: &[Vec<TemporalEdge>],
    epoch0: usize,
    stop: Stop,
) -> Result<(Vec<Reply>, Vec<Ingest>, usize), String> {
    let sent = &AtomicUsize::new(epoch0);
    let acked = &AtomicUsize::new(epoch0);
    let mut conn = server.connect()?;
    let mut feeder = server.connect()?;
    std::thread::scope(|scope| {
        // Dropped on every way out of this closure, which ends the feeder.
        let (due_tx, due_rx) = mpsc::channel::<Instant>();
        let ingests = scope.spawn(move || -> Result<Vec<Ingest>, String> {
            let mut out = Vec::new();
            for (k, due) in due_rx.iter().enumerate() {
                let batch = &feed[k % feed.len()];
                let epoch = epoch0 + k + 1;
                let send_at = Instant::now();
                sent.store(epoch, Ordering::SeqCst);
                feeder.send(&protocol::format_ingest(batch))?;
                let reply = feeder.recv()?;
                let acked_at = Instant::now();
                let want = Response::Ingested { epoch: epoch as u64, edges: batch.len() as u64 };
                if protocol::parse_response(&reply) != Ok(want) {
                    return Err(format!("ingest {epoch} answered with {reply:?}"));
                }
                acked.store(epoch, Ordering::SeqCst);
                out.push(Ingest { due, sent: send_at, acked: acked_at });
            }
            Ok(out)
        });
        let mut replies = Vec::new();
        let mut pending: VecDeque<(u64, QuerySpec, Instant, usize)> = VecDeque::new();
        let mut issued = 0;
        loop {
            while pending.len() < LIVE_WINDOW && !stop.reached(issued) {
                let query = queries[cursor % queries.len()];
                let id = issued as u64;
                cursor += 1;
                issued += 1;
                let lo = acked.load(Ordering::SeqCst);
                let at = Instant::now();
                conn.send(&protocol::format_query(id, &query))?;
                pending.push_back((id, query, at, lo));
                if !feed.is_empty() && issued % QUERIES_PER_INGEST == 0 {
                    // A send fails only when the feeder already stopped on
                    // an error, which the join below reports.
                    let _ = due_tx.send(at);
                }
            }
            let Some((id, query, sent_at, lo)) = pending.pop_front() else { break };
            let line = conn.recv()?;
            let received = Instant::now();
            let hi = sent.load(Ordering::SeqCst);
            let answer = parse_answer(&line, id);
            replies.push(Reply { query, sent: sent_at, received, lo, hi, answer });
        }
        drop(due_tx);
        let ingests = ingests.join().expect("ingest thread panicked")?;
        Ok((replies, ingests, cursor))
    })
}

/// Client-side replays of the traced phase: the phase functions on a
/// sample of its distinct queries, protocol parse/format over its lines
/// and, for `live`, the ingest of its edge batches.
fn replay_client_layers(
    graph: &TemporalGraph,
    replies: &[Reply],
    feed: &[Vec<TemporalEdge>],
    live: bool,
    tracer: &mut Tracer,
    report: &mut Report,
) {
    let mut seen = HashSet::new();
    let mut replayer = Replayer::default();
    for r in replies {
        if seen.len() >= REPLAYED_QUERIES {
            break;
        }
        if seen.insert(r.query) {
            replayer.run(tracer, graph, r.query, seen.len() as u64, None);
        }
    }
    report_phases(report, tracer, &replayer.totals);

    let lines: Vec<String> = replies
        .iter()
        .enumerate()
        .map(|(i, r)| protocol::format_query(i as u64, &r.query))
        .collect();
    let started = Instant::now();
    for line in &lines {
        std::hint::black_box(protocol::parse_request(std::hint::black_box(line)).is_ok());
    }
    report.extra(
        "server.protocol.parse_us",
        started.elapsed().as_secs_f64() * 1e6 / lines.len().max(1) as f64,
    );
    let answers: Vec<VugResult> = replies
        .iter()
        .map(|r| {
            let tspg = r
                .answer
                .as_ref()
                .map_or_else(|_| EdgeSet::new(), |e| EdgeSet::from_edges(e.iter().copied()));
            let report = VugReport { result_vertices: tspg.num_vertices(), ..VugReport::default() };
            VugResult { tspg, report }
        })
        .collect();
    let started = Instant::now();
    for (i, answer) in answers.iter().enumerate() {
        std::hint::black_box(protocol::format_result(i as u64, answer));
    }
    report.extra(
        "server.protocol.format_us",
        started.elapsed().as_secs_f64() * 1e6 / answers.len().max(1) as f64,
    );

    if live {
        let mut engine = QueryEngine::new(graph.clone());
        for (k, batch) in feed.iter().enumerate() {
            tracer.span("graph.extend", None, k as u64, || engine.ingest(batch));
        }
        report.extra("graph.extend_ms", tracer.mean_self_ms("graph.extend"));
    }
}

/// Planner, cache and admission counters from the traced phase's `stats`
/// deltas.
fn server_layers(delta: &Stats, report: &mut Report) {
    let get = |key: &str| delta.get(key).copied().unwrap_or(0) as f64;
    let ratio = |a: f64, b: f64| a / b.max(1.0);
    report.metric("planner.queries", get("queries"));
    report.metric("planner.pipeline_runs", get("pipeline_runs"));
    report.metric("planner.dedup_answered", get("dedup_answered"));
    report.metric("planner.shared_answered", get("shared_answered"));
    report.metric("planner.envelope_units", get("envelope_units"));
    report.metric("planner.envelope_answered", get("envelope_answered"));
    report.metric("planner.envelope_yield", ratio(get("envelope_answered"), get("envelope_units")));
    report.metric("planner.profile_groups", get("profile_groups"));
    report.metric("planner.profile_answered", get("profile_answered"));
    let (hits, misses) = (get("cache_lookup_hits"), get("cache_lookup_misses"));
    report.metric("cache.hit_rate", ratio(hits, hits + misses));
    report.metric("cache.evictions", get("cache_evictions"));
    let (hits, misses) = (get("profile_cache_hits"), get("profile_cache_misses"));
    report.metric("profile_cache.hit_rate", ratio(hits, hits + misses));
    report.metric("server.admission.batch_size", ratio(get("queries"), get("batches")));
    report.metric("server.admission.timer_flushes", get("timer_flushes"));
    report.metric("server.admission.size_flushes", get("size_flushes"));
    report.metric("server.admission.empty_wakeups", get("empty_wakeups"));
    report.metric("server.responses", get("responses"));
    report.metric("server.dropped", get("dropped"));
    report.metric("server.quota_rejections", get("quota_rejections"));
    report.metric("server.malformed", get("malformed"));
}
