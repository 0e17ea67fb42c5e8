//! Admission-path tests of the resident `tspg-server`: the edge cases of
//! the micro-batching dispatcher (a lone query after idling, per-client
//! quotas, malformed lines, mid-batch disconnects) plus the differential
//! pin — answers served over the socket must be byte-identical to the
//! sequential engine, whether one client sends the whole workload or four
//! concurrent strangers interleave it.

mod common;

use common::differential::sequential_results;
use std::io::{BufRead, BufReader, Write};
use std::os::unix::net::UnixStream;
use std::path::{Path, PathBuf};
use std::time::Duration;
use tspg_suite::prelude::*;
use tspg_suite::server::{protocol, Server, ServerConfig};

fn temp_socket(tag: &str) -> PathBuf {
    use std::sync::atomic::{AtomicUsize, Ordering};
    static COUNTER: AtomicUsize = AtomicUsize::new(0);
    let unique = COUNTER.fetch_add(1, Ordering::Relaxed);
    std::env::temp_dir().join(format!("tspg_adm_{tag}_{}_{unique}.sock", std::process::id()))
}

fn connect(path: &Path) -> (BufReader<UnixStream>, UnixStream) {
    let stream = UnixStream::connect(path).expect("connect");
    let reader = BufReader::new(stream.try_clone().expect("clone"));
    (reader, stream)
}

fn send(stream: &mut UnixStream, line: &str) {
    stream.write_all(line.as_bytes()).unwrap();
    stream.write_all(b"\n").unwrap();
    stream.flush().unwrap();
}

fn read_line(reader: &mut BufReader<UnixStream>) -> String {
    let mut line = String::new();
    reader.read_line(&mut line).unwrap();
    line.trim_end().to_string()
}

fn stat(stats: &str, key: &str) -> u64 {
    stats
        .lines()
        .find_map(|l| l.strip_prefix(key).and_then(|l| l.strip_prefix('=')))
        .unwrap_or_else(|| panic!("stats lack {key}=: {stats}"))
        .parse()
        .unwrap()
}

/// With nothing pending the dispatcher sleeps until a request arrives. A
/// lone query that far undershoots `admit_max` is then flushed by the
/// window, and again after the dispatcher has gone back to sleep.
#[test]
fn a_lone_query_after_idling_is_answered_with_a_deep_admit_max() {
    let socket = temp_socket("idle");
    let config = ServerConfig {
        admit_max: 1024,
        admit_window: Duration::from_millis(1),
        ..ServerConfig::default()
    };
    let handle = Server::bind(QueryEngine::new(figure1_graph()), &socket, config).unwrap();
    let (s, t, w) = figure1_query();
    let (mut reader, mut stream) = connect(&socket);
    // A lost wake-up would leave the dispatcher asleep for good; the read
    // timeout turns that hang into a failure.
    stream.set_read_timeout(Some(Duration::from_secs(60))).unwrap();

    for id in 0..2 {
        // The server idles: nothing is queued, and no batch has run since
        // the previous answer.
        assert_eq!(stat(&handle.stats_text(), "batches"), id, "idle before request {id}");
        send(&mut stream, &protocol::format_query(id, &QuerySpec::new(s, t, w)));
        let reply = protocol::parse_response(&read_line(&mut reader)).unwrap();
        let protocol::Response::Result(payload) = reply else { panic!("{reply:?}") };
        assert_eq!(payload.id, id);
        assert_eq!(payload.edges.len(), 4);
    }
    let stats = handle.stats_text();
    assert_eq!(stat(&stats, "timer_flushes"), 2, "only the window flushes a lone query: {stats}");

    handle.shutdown();
    let report = handle.join();
    assert_eq!(report.responses, 2);
    assert_eq!(report.batches, 2, "each lone query ran as its own batch");
}

/// With `quota = 1` and an admission window far longer than the test, a
/// second pipelined request deterministically exceeds the quota: a query
/// is answered with an error line tagged with its id, an ingest with an
/// untagged one and is never applied, while the admitted request is still
/// answered on the shutdown drain.
#[test]
fn quota_exceeded_requests_get_a_tagged_error_line() {
    let socket = temp_socket("quota");
    let config = ServerConfig {
        quota: 1,
        // Longer than the test: the first request cannot be answered (and
        // its quota slot released) before the second one is judged.
        admit_window: Duration::from_secs(30),
        ..ServerConfig::default()
    };
    let handle = Server::bind(QueryEngine::new(figure1_graph()), &socket, config).unwrap();
    let (s, t, w) = figure1_query();
    let q = QuerySpec::new(s, t, w);

    let (mut reader, mut stream) = connect(&socket);
    send(&mut stream, &protocol::format_query(0, &q));
    send(&mut stream, &protocol::format_query(1, &q));
    send(&mut stream, &protocol::format_ingest(&[TemporalEdge::new(s, t, 5)]));
    send(&mut stream, "shutdown");

    // Deterministic reply order: the reader rejects request 1 and the
    // ingest inline and acknowledges the shutdown; the dispatcher then
    // drains request 0.
    for want in [Some(1), None] {
        let reply = protocol::parse_response(&read_line(&mut reader)).unwrap();
        let protocol::Response::Error { id, message } = reply else { panic!("{reply:?}") };
        assert_eq!(id, want);
        assert!(message.contains("quota exceeded"), "{message}");
    }
    assert_eq!(read_line(&mut reader), "bye");
    let reply = protocol::parse_response(&read_line(&mut reader)).unwrap();
    let protocol::Response::Result(payload) = reply else { panic!("{reply:?}") };
    assert_eq!(payload.id, 0);
    assert_eq!(payload.edges.len(), 4, "the admitted request is answered on the drain");

    let stats = handle.stats_text();
    assert_eq!(stat(&stats, "epoch"), 0, "the rejected ingest was applied: {stats}");
    assert_eq!(stat(&stats, "ingest_batches"), 0, "{stats}");

    let report = handle.join();
    assert_eq!(report.quota_rejections, 2);
    assert_eq!(report.responses, 1);
}

/// Malformed request lines are the client's bug, not the server's: each
/// gets an error reply — tagged with the request id whenever one could be
/// parsed — and the connection (and engine) keep serving.
#[test]
fn malformed_lines_are_answered_and_do_not_stop_the_server() {
    let socket = temp_socket("malformed");
    let handle =
        Server::bind(QueryEngine::new(figure1_graph()), &socket, ServerConfig::default()).unwrap();
    let (s, t, w) = figure1_query();
    let (mut reader, mut stream) = connect(&socket);

    // Unknown verb: no id to tag.
    send(&mut stream, "frobnicate 1 2 3");
    let reply = protocol::parse_response(&read_line(&mut reader)).unwrap();
    assert!(matches!(reply, protocol::Response::Error { id: None, .. }), "{reply:?}");

    // Truncated query: the id survives parsing and tags the error.
    send(&mut stream, "query 41 0 7 2");
    let reply = protocol::parse_response(&read_line(&mut reader)).unwrap();
    let protocol::Response::Error { id, message } = reply else { panic!("{reply:?}") };
    assert_eq!(id, Some(41));
    assert!(message.contains("window end"), "{message}");

    // Inverted interval: rejected at parse time, never enqueued.
    send(&mut stream, "query 42 0 7 9 2");
    let reply = protocol::parse_response(&read_line(&mut reader)).unwrap();
    let protocol::Response::Error { id, .. } = reply else { panic!("{reply:?}") };
    assert_eq!(id, Some(42));

    // The same connection still gets real answers afterwards.
    send(&mut stream, &protocol::format_query(43, &QuerySpec::new(s, t, w)));
    let reply = protocol::parse_response(&read_line(&mut reader)).unwrap();
    let protocol::Response::Result(payload) = reply else { panic!("{reply:?}") };
    assert_eq!(payload.id, 43);
    assert_eq!(payload.edges.len(), 4);

    handle.shutdown();
    let report = handle.join();
    assert_eq!(report.malformed, 3);
    assert_eq!(report.responses, 1);
    assert_eq!(report.totals.queries, 1, "malformed lines never reach the engine");
}

/// A client that disconnects between admission and dispatch has its
/// computed answers dropped; the batch, the dispatcher and every other
/// client are unaffected.
#[test]
fn client_disconnect_mid_batch_drops_its_answers_without_poisoning_the_dispatcher() {
    let socket = temp_socket("disconnect");
    let config = ServerConfig {
        // Wide enough that the flush deterministically happens after the
        // disconnecting client is gone.
        admit_window: Duration::from_millis(300),
        ..ServerConfig::default()
    };
    let handle = Server::bind(QueryEngine::new(figure1_graph()), &socket, config).unwrap();
    let (s, t, w) = figure1_query();
    let q = QuerySpec::new(s, t, w);

    // Client A enqueues two requests and vanishes before the window closes.
    let (_reader_a, mut stream_a) = connect(&socket);
    send(&mut stream_a, &protocol::format_query(0, &q));
    send(&mut stream_a, &protocol::format_query(1, &q));
    // Survivor client B enqueues into the same admission batch.
    let (mut reader_b, mut stream_b) = connect(&socket);
    send(&mut stream_b, &protocol::format_query(7, &q));
    drop(_reader_a);
    drop(stream_a);
    // Wait until the server has noticed the disconnect, so the flush that
    // follows sees A marked gone.
    while stat(&handle.stats_text(), "clients_gone") == 0 {
        std::thread::sleep(Duration::from_millis(5));
    }

    // B's answer arrives; A's are computed and dropped.
    let reply = protocol::parse_response(&read_line(&mut reader_b)).unwrap();
    let protocol::Response::Result(payload) = reply else { panic!("{reply:?}") };
    assert_eq!(payload.id, 7);
    assert_eq!(payload.edges.len(), 4);

    // The dispatcher survived: a second round through B still works.
    send(&mut stream_b, &protocol::format_query(8, &q));
    let reply = protocol::parse_response(&read_line(&mut reader_b)).unwrap();
    let protocol::Response::Result(payload) = reply else { panic!("{reply:?}") };
    assert_eq!(payload.id, 8);

    handle.shutdown();
    let report = handle.join();
    assert_eq!(report.dropped, 2, "both of A's answers were dropped");
    assert_eq!(report.responses, 2, "both of B's answers were written");
    assert_eq!(report.totals.queries, 4, "dropped answers are still computed");
}

/// The `ingest` verb end to end: a query, an answer-changing edge batch,
/// and a re-query through one pipelined connection. The second answer must
/// reflect the mutation (and match a fresh engine over the union edge
/// set), and the stats surface the new epoch and ingest counters.
#[test]
fn ingest_verb_revises_answers_and_counts_in_stats() {
    let socket = temp_socket("ingest");
    let graph = figure1_graph();
    let handle =
        Server::bind(QueryEngine::new(graph.clone()), &socket, ServerConfig::default()).unwrap();
    let (s, t, w) = figure1_query();
    let q = QuerySpec::new(s, t, w);
    let (mut reader, mut stream) = connect(&socket);

    send(&mut stream, &protocol::format_query(0, &q));
    let reply = protocol::parse_response(&read_line(&mut reader)).unwrap();
    let protocol::Response::Result(before) = reply else { panic!("{reply:?}") };
    assert_eq!(before.edges.len(), 4);

    // A direct s -> t edge inside the window always joins the tspG.
    let delta = [TemporalEdge::new(s, t, 5)];
    send(&mut stream, &protocol::format_ingest(&delta));
    let reply = protocol::parse_response(&read_line(&mut reader)).unwrap();
    assert_eq!(reply, protocol::Response::Ingested { epoch: 1, edges: 1 });

    send(&mut stream, &protocol::format_query(1, &q));
    let reply = protocol::parse_response(&read_line(&mut reader)).unwrap();
    let protocol::Response::Result(after) = reply else { panic!("{reply:?}") };
    assert_ne!(before.edges, after.edges, "the ingested edge must change the answer");
    let fresh_graph = {
        let mut edges = graph.edges().to_vec();
        edges.extend_from_slice(&delta);
        TemporalGraph::from_edges(graph.num_vertices(), edges)
    };
    let want = sequential_results(&fresh_graph, &[q]);
    assert_eq!(after.edges, want[0].tspg.edges(), "post-ingest answer must match a fresh engine");

    let stats = handle.stats_text();
    assert_eq!(stat(&stats, "epoch"), 1, "{stats}");
    assert_eq!(stat(&stats, "ingest_batches"), 1, "{stats}");
    assert_eq!(stat(&stats, "ingest_edges"), 1, "{stats}");

    handle.shutdown();
    let report = handle.join();
    assert_eq!(report.responses, 2, "ingest acks are not counted as query responses");
}

/// Satellite regression: a request id that does not parse as a u64 is no
/// longer collapsed into an anonymous error — the raw token is echoed in
/// the message so the client can tell which line was rejected.
#[test]
fn unparseable_request_ids_echo_the_raw_token() {
    let socket = temp_socket("badid");
    let handle =
        Server::bind(QueryEngine::new(figure1_graph()), &socket, ServerConfig::default()).unwrap();
    let (mut reader, mut stream) = connect(&socket);

    send(&mut stream, "query nope 0 7 2 7");
    let reply = protocol::parse_response(&read_line(&mut reader)).unwrap();
    let protocol::Response::Error { id, message } = reply else { panic!("{reply:?}") };
    assert_eq!(id, None, "an unparseable id cannot tag the error");
    assert!(message.contains("nope"), "the raw token must be echoed: {message}");

    handle.shutdown();
    let report = handle.join();
    assert_eq!(report.malformed, 1);
}

/// Every key the `stats` verb emits is documented in README.md's stats
/// glossaries as an inline-code span (`` `key` ``). The key count pins
/// the emitters, so a key that stops being emitted shows up here too.
#[test]
fn every_stats_key_is_documented_in_the_readme() {
    let readme = include_str!("../README.md");
    let socket = temp_socket("glossary");
    let handle =
        Server::bind(QueryEngine::new(figure1_graph()), &socket, ServerConfig::default()).unwrap();
    let stats = handle.stats_text();
    handle.shutdown();
    handle.join();

    let keys: Vec<&str> =
        stats.lines().filter_map(|line| line.split_once('=').map(|(key, _)| key)).collect();
    assert!(keys.len() >= 40, "only {} stats keys: {stats}", keys.len());
    let undocumented: Vec<&str> =
        keys.into_iter().filter(|key| !readme.contains(&format!("`{key}`"))).collect();
    assert!(undocumented.is_empty(), "stats keys missing from README.md: {undocumented:?}");
}

/// The differential pin: a generated workload answered over the socket —
/// by one client, and by four concurrent interleaving clients — must be
/// byte-identical to the PR 2 sequential engine, query by query.
#[test]
fn server_answers_match_the_sequential_engine_across_the_client_grid() {
    let graph = GraphGenerator::uniform(40, 400, 40).generate(0xad31);
    let queries = generate_repeated_workload(&graph, &RepeatedWorkloadConfig::new(48, 12, 4), 7)
        .expect("workload");
    let reference = sequential_results(&graph, &queries);

    for num_clients in [1usize, 4] {
        let socket = temp_socket(&format!("grid{num_clients}"));
        let config = ServerConfig {
            admit_max: 8,
            admit_window: Duration::from_millis(1),
            ..ServerConfig::default()
        };
        let handle = Server::bind(QueryEngine::new(graph.clone()), &socket, config).unwrap();

        // Client c pipelines queries c, c + n, c + 2n, ... tagged with
        // their global index, so answers can be checked slot by slot.
        std::thread::scope(|scope| {
            let mut workers = Vec::new();
            for c in 0..num_clients {
                let socket = socket.clone();
                let queries = &queries;
                let reference = &reference;
                workers.push(scope.spawn(move || {
                    let (mut reader, mut stream) = connect(&socket);
                    let mine: Vec<usize> = (c..queries.len()).step_by(num_clients).collect();
                    for &i in &mine {
                        send(&mut stream, &protocol::format_query(i as u64, &queries[i]));
                    }
                    let mut answered = 0usize;
                    for _ in &mine {
                        let reply = protocol::parse_response(&read_line(&mut reader)).unwrap();
                        let protocol::Response::Result(payload) = reply else {
                            panic!("client {c}: {reply:?}")
                        };
                        let i = payload.id as usize;
                        assert!(mine.contains(&i), "client {c} got a stranger's answer #{i}");
                        assert_eq!(
                            payload.edges,
                            reference[i].tspg.edges(),
                            "query #{i} over the socket diverged from the sequential engine"
                        );
                        assert_eq!(payload.vertices, reference[i].report.result_vertices);
                        answered += 1;
                    }
                    answered
                }));
            }
            let answered: usize = workers.into_iter().map(|w| w.join().unwrap()).sum();
            assert_eq!(answered, queries.len());
        });

        handle.shutdown();
        let report = handle.join();
        assert_eq!(report.responses, queries.len() as u64);
        assert_eq!(report.totals.queries, queries.len());
        assert_eq!(report.quota_rejections + report.malformed + report.dropped, 0);
        if num_clients > 1 {
            assert!(
                report.batches < queries.len() as u64,
                "concurrent clients must share admission batches: {report:?}"
            );
        }
        assert!(!socket.exists(), "socket unlinked after shutdown");
    }
}
