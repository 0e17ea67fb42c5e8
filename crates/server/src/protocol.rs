//! The line-oriented wire protocol shared by `tspg-server` and the
//! `tspg client` subcommand.
//!
//! Every message is one `\n`-terminated line of UTF-8 text; there is no
//! framing beyond that, so the protocol works over any reliable byte
//! stream (the server speaks it over a unix domain socket). Grammar:
//!
//! ```text
//! request  := "query" SP id SP source SP target SP begin SP end
//!           | "ingest" SP src SP dst SP time {SP src SP dst SP time}
//!           | "stats" | "ping" | "shutdown"
//! response := "result" SP id SP "edges=" E SP "vertices=" V SP "ns=" NS
//!                      {SP src "," dst "," time}
//!           | "ingested" SP "epoch=" E SP "edges=" N
//!           | "error" SP (id | "-") SP message
//!           | "pong" | "bye"
//! ```
//!
//! `id` is a client-chosen `u64` request tag; responses echo it so a client
//! may pipeline any number of requests (up to the server's per-client
//! quota) and match answers as they stream back. A `result` line carries
//! the full tspG as `src,dst,time` triples in the engine's canonical edge
//! order — byte-identity against a local [`tspg_core::QueryEngine`] run is
//! checked by comparing the triples, nothing weaker. An `ingest` line
//! carries one or more whitespace-separated edge triples to append to the
//! live graph; the dispatcher applies it between query batches (a batch
//! never straddles an epoch) and acknowledges with the post-ingest graph
//! epoch and the number of submitted triples. The `stats` verb is answered
//! with `key=value` lines terminated by a bare `end` line (not modelled
//! here; see the crate docs for the key glossary).

use std::fmt::Write as _;
use tspg_core::{QuerySpec, VugResult};
use tspg_graph::TemporalEdge;

/// A parsed client request line.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Request {
    /// `query <id> <source> <target> <begin> <end>` — enqueue one query
    /// for the next admission batch.
    Query {
        /// Client-chosen request tag echoed on the response line.
        id: u64,
        /// The query quadruple, in canonical form.
        query: QuerySpec,
    },
    /// `ingest <src> <dst> <time> ...` — append a timestamped edge batch
    /// to the live graph at the next batch boundary.
    Ingest {
        /// The submitted edge batch, in submission order (the graph
        /// normalizes on append; order does not matter).
        edges: Vec<TemporalEdge>,
    },
    /// `stats` — dump the server's counters as `key=value` lines.
    Stats,
    /// `ping` — liveness probe, answered with `pong`.
    Ping,
    /// `shutdown` — graceful shutdown: drain the admission queue, answer
    /// everything pending, unlink the socket, exit 0.
    Shutdown,
}

/// Parses one request line.
///
/// On failure returns the request id when one could still be extracted
/// (so the error reply can be tagged and the client can match it to the
/// request it pipelined) plus a human-readable message.
pub fn parse_request(line: &str) -> Result<Request, (Option<u64>, String)> {
    let mut fields = line.split_whitespace();
    let verb = fields.next().ok_or_else(|| (None, "empty request".to_string()))?;
    match verb {
        "stats" => Ok(Request::Stats),
        "ping" => Ok(Request::Ping),
        "shutdown" => Ok(Request::Shutdown),
        "ingest" => {
            let raw: Vec<&str> = fields.collect();
            if raw.is_empty() {
                return Err((None, "ingest needs at least one src dst time triple".to_string()));
            }
            if !raw.len().is_multiple_of(3) {
                return Err((
                    None,
                    format!("ingest carries {} fields, not a multiple of 3", raw.len()),
                ));
            }
            let mut edges = Vec::with_capacity(raw.len() / 3);
            for triple in raw.chunks_exact(3) {
                let part = |what: &str, raw: &str| -> Result<i64, (Option<u64>, String)> {
                    raw.parse().map_err(|_| (None, format!("invalid {what} {raw:?}")))
                };
                let src = part("source vertex", triple[0])?;
                let dst = part("target vertex", triple[1])?;
                let time = part("timestamp", triple[2])?;
                let (Ok(src), Ok(dst)) = (u32::try_from(src), u32::try_from(dst)) else {
                    return Err((None, "vertex ids must be non-negative u32".to_string()));
                };
                edges.push(TemporalEdge::new(src, dst, time));
            }
            Ok(Request::Ingest { edges })
        }
        "query" => {
            let id: u64 = match fields.next() {
                Some(raw) => raw.parse().map_err(|_| {
                    // Echo the raw token: the reply can't be tagged, so the
                    // message itself is the client's only correlation handle.
                    (None, format!("invalid request id {raw:?} (must be a u64)"))
                })?,
                None => return Err((None, "query needs a numeric request id".to_string())),
            };
            let mut field = |what: &str| -> Result<i64, (Option<u64>, String)> {
                let raw = fields.next().ok_or_else(|| (Some(id), format!("missing {what}")))?;
                raw.parse().map_err(|_| (Some(id), format!("invalid {what} {raw:?}")))
            };
            let source = field("source vertex")?;
            let target = field("target vertex")?;
            let begin = field("window begin")?;
            let end = field("window end")?;
            if let Some(extra) = fields.next() {
                return Err((Some(id), format!("too many fields (unexpected {extra:?})")));
            }
            let (source, target) = match (u32::try_from(source), u32::try_from(target)) {
                (Ok(s), Ok(t)) => (s, t),
                _ => return Err((Some(id), "vertex ids must be non-negative u32".to_string())),
            };
            let query = QuerySpec::try_new(source, target, begin, end)
                .ok_or_else(|| (Some(id), format!("invalid interval [{begin}, {end}]")))?;
            Ok(Request::Query { id, query })
        }
        other => Err((None, format!("unknown verb {other:?}"))),
    }
}

/// Formats one `query` request line (the client side of
/// [`parse_request`]).
pub fn format_query(id: u64, query: &QuerySpec) -> String {
    format!(
        "query {id} {} {} {} {}",
        query.source,
        query.target,
        query.window.begin(),
        query.window.end()
    )
}

/// Formats one `ingest` request line (the client side of
/// [`parse_request`]).
pub fn format_ingest(edges: &[TemporalEdge]) -> String {
    let mut line = "ingest".to_string();
    for e in edges {
        let _ = write!(line, " {} {} {}", e.src, e.dst, e.time);
    }
    line
}

/// A parsed server response line.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Response {
    /// A query's answer: the tspG shipped as edge triples.
    Result(ResultPayload),
    /// Acknowledgement of an `ingest`: the batch was applied at a batch
    /// boundary and the graph now sits at `epoch`.
    Ingested {
        /// The graph epoch after applying the batch.
        epoch: u64,
        /// Number of edge triples the request submitted (duplicates
        /// included; the graph de-duplicates on append).
        edges: u64,
    },
    /// An error reply, tagged with the request id when the offending line
    /// carried a parseable one.
    Error {
        /// The request the error answers, if identifiable.
        id: Option<u64>,
        /// Human-readable description.
        message: String,
    },
    /// Answer to `ping`.
    Pong,
    /// Answer to `shutdown`: the server is draining and about to exit.
    Bye,
}

/// The payload of a `result` line.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ResultPayload {
    /// Echo of the request id.
    pub id: u64,
    /// Vertices of the tspG (shipped because the edge triples alone do not
    /// reveal it for the empty graph).
    pub vertices: usize,
    /// Pipeline time of the run that produced this answer, in nanoseconds.
    /// Answers copied from a duplicate, the cache or a covering unit carry
    /// the producing run's time, mirroring `tspg batch` output.
    pub ns: u64,
    /// The tspG's edges in the engine's canonical order.
    pub edges: Vec<TemporalEdge>,
}

/// Formats one `result` response line from an engine answer.
pub fn format_result(id: u64, result: &VugResult) -> String {
    let mut line = format!(
        "result {id} edges={} vertices={} ns={}",
        result.tspg.num_edges(),
        result.report.result_vertices,
        u64::try_from(result.report.total_elapsed().as_nanos()).unwrap_or(u64::MAX),
    );
    for e in result.tspg.edges() {
        let _ = write!(line, " {},{},{}", e.src, e.dst, e.time);
    }
    line
}

/// Formats one `ingested` acknowledgement line.
pub fn format_ingested(epoch: u64, edges: u64) -> String {
    format!("ingested epoch={epoch} edges={edges}")
}

/// Formats an `error` response line; `id = None` renders the `-` tag.
pub fn format_error(id: Option<u64>, message: &str) -> String {
    match id {
        Some(id) => format!("error {id} {message}"),
        None => format!("error - {message}"),
    }
}

/// Parses one response line (the client side of [`format_result`] and
/// friends).
pub fn parse_response(line: &str) -> Result<Response, String> {
    let mut fields = line.split_whitespace();
    match fields.next().ok_or_else(|| "empty response".to_string())? {
        "pong" => Ok(Response::Pong),
        "bye" => Ok(Response::Bye),
        "ingested" => {
            let mut kv = |key: &str| -> Result<u64, String> {
                let raw = fields.next().ok_or_else(|| format!("ingested missing {key}="))?;
                raw.strip_prefix(key)
                    .and_then(|r| r.strip_prefix('='))
                    .and_then(|r| r.parse().ok())
                    .ok_or_else(|| format!("bad ingested field {raw:?} (expected {key}=N)"))
            };
            let epoch = kv("epoch")?;
            let edges = kv("edges")?;
            if let Some(extra) = fields.next() {
                return Err(format!("ingested line has trailing field {extra:?}"));
            }
            Ok(Response::Ingested { epoch, edges })
        }
        "error" => {
            let tag = fields.next().ok_or_else(|| "error line without id tag".to_string())?;
            let id = if tag == "-" {
                None
            } else {
                Some(tag.parse().map_err(|_| format!("bad error id tag {tag:?}"))?)
            };
            let rest: Vec<&str> = fields.collect();
            Ok(Response::Error { id, message: rest.join(" ") })
        }
        "result" => {
            let id: u64 = fields
                .next()
                .and_then(|f| f.parse().ok())
                .ok_or_else(|| "result line without request id".to_string())?;
            let mut kv = |key: &str| -> Result<u64, String> {
                let raw = fields.next().ok_or_else(|| format!("result missing {key}="))?;
                raw.strip_prefix(key)
                    .and_then(|r| r.strip_prefix('='))
                    .and_then(|r| r.parse().ok())
                    .ok_or_else(|| format!("bad result field {raw:?} (expected {key}=N)"))
            };
            let num_edges = kv("edges")?;
            let vertices = kv("vertices")? as usize;
            let ns = kv("ns")?;
            // Grown by the triples the line carries: the announced count is
            // checked below, never trusted to size an allocation.
            let mut edges = Vec::new();
            for triple in fields.by_ref() {
                let mut parts = triple.split(',');
                let mut part = |what: &str| -> Result<i64, String> {
                    parts
                        .next()
                        .and_then(|p| p.parse().ok())
                        .ok_or_else(|| format!("bad edge triple {triple:?} ({what})"))
                };
                let src = part("src")?;
                let dst = part("dst")?;
                let time = part("time")?;
                if parts.next().is_some() {
                    return Err(format!("bad edge triple {triple:?} (too many fields)"));
                }
                let (Ok(src), Ok(dst)) = (u32::try_from(src), u32::try_from(dst)) else {
                    return Err(format!("bad edge triple {triple:?} (vertex out of range)"));
                };
                edges.push(TemporalEdge::new(src, dst, time));
            }
            if edges.len() as u64 != num_edges {
                return Err(format!(
                    "result {id} announced edges={num_edges} but carried {}",
                    edges.len()
                ));
            }
            Ok(Response::Result(ResultPayload { id, vertices, ns, edges }))
        }
        other => Err(format!("unknown response verb {other:?}")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tspg_core::generate_tspg;
    use tspg_graph::fixtures::{figure1_graph, figure1_query};

    #[test]
    fn request_round_trip() {
        let q = QuerySpec::new(3, 9, tspg_graph::TimeInterval::new(2, 7));
        let line = format_query(17, &q);
        assert_eq!(line, "query 17 3 9 2 7");
        assert_eq!(parse_request(&line), Ok(Request::Query { id: 17, query: q }));
        assert_eq!(parse_request("stats"), Ok(Request::Stats));
        assert_eq!(parse_request("ping"), Ok(Request::Ping));
        assert_eq!(parse_request("shutdown"), Ok(Request::Shutdown));
    }

    #[test]
    fn degenerate_queries_parse_canonically() {
        // `s == t` canonicalizes at construction, exactly like query files.
        let parsed = parse_request("query 1 4 4 2 9").unwrap();
        let Request::Query { query, .. } = parsed else { panic!("not a query") };
        assert!(query.is_degenerate());
    }

    #[test]
    fn malformed_requests_carry_the_id_when_parseable() {
        assert_eq!(parse_request("").unwrap_err().0, None);
        assert_eq!(parse_request("frobnicate 1 2").unwrap_err().0, None);
        assert_eq!(parse_request("query nope 1 2 3 4").unwrap_err().0, None);
        assert_eq!(parse_request("query 7 1 2 3").unwrap_err().0, Some(7));
        assert_eq!(parse_request("query 7 1 2 3 bogus").unwrap_err().0, Some(7));
        assert_eq!(parse_request("query 7 1 2 3 4 5").unwrap_err().0, Some(7));
        assert_eq!(parse_request("query 7 1 2 9 3").unwrap_err().0, Some(7));
        assert_eq!(parse_request("query 7 -1 2 3 4").unwrap_err().0, Some(7));
    }

    #[test]
    fn unparseable_request_id_is_echoed_in_the_message() {
        // The error reply can't be tagged (there is no valid id), so the
        // raw token in the message is the client's only correlation handle.
        let (id, message) = parse_request("query nope 1 2 3 4").unwrap_err();
        assert_eq!(id, None);
        assert!(message.contains("\"nope\""), "raw token must be echoed: {message:?}");
        let (_, message) = parse_request("query 18446744073709551616 1 2 3 4").unwrap_err();
        assert!(message.contains("18446744073709551616"), "overflowing id echoed: {message:?}");
    }

    #[test]
    fn ingest_request_round_trip() {
        let edges = vec![
            TemporalEdge::new(0, 7, 5),
            TemporalEdge::new(3, 2, 1),
            TemporalEdge::new(0, 7, 5),
        ];
        let line = format_ingest(&edges);
        assert_eq!(line, "ingest 0 7 5 3 2 1 0 7 5");
        assert_eq!(parse_request(&line), Ok(Request::Ingest { edges }));
    }

    #[test]
    fn malformed_ingest_requests_are_rejected() {
        assert_eq!(parse_request("ingest").unwrap_err().0, None);
        assert!(parse_request("ingest 1 2").unwrap_err().1.contains("multiple of 3"));
        assert!(parse_request("ingest 1 2 3 4").unwrap_err().1.contains("multiple of 3"));
        assert!(parse_request("ingest 1 nope 3").unwrap_err().1.contains("\"nope\""));
        assert!(parse_request("ingest -1 2 3").unwrap_err().1.contains("non-negative"));
        assert!(parse_request("ingest 1 2 x").unwrap_err().1.contains("timestamp"));
    }

    #[test]
    fn ingested_response_round_trip() {
        let line = format_ingested(3, 12);
        assert_eq!(line, "ingested epoch=3 edges=12");
        assert_eq!(parse_response(&line).unwrap(), Response::Ingested { epoch: 3, edges: 12 });
        assert!(parse_response("ingested epoch=3").is_err());
        assert!(parse_response("ingested epoch=3 edges=1 junk").is_err());
        assert!(parse_response("ingested edges=1 epoch=3").is_err());
    }

    #[test]
    fn result_round_trip_preserves_the_tspg_bit_for_bit() {
        let g = figure1_graph();
        let (s, t, w) = figure1_query();
        let result = generate_tspg(&g, s, t, w);
        let line = format_result(42, &result);
        let Response::Result(payload) = parse_response(&line).unwrap() else {
            panic!("not a result");
        };
        assert_eq!(payload.id, 42);
        assert_eq!(payload.edges, result.tspg.edges());
        assert_eq!(payload.vertices, result.report.result_vertices);

        // Empty results ship no triples but still announce their counts.
        let empty = generate_tspg(&g, t, s, w);
        let Response::Result(payload) = parse_response(&format_result(0, &empty)).unwrap() else {
            panic!("not a result");
        };
        assert!(payload.edges.is_empty());
    }

    #[test]
    fn error_and_control_responses_parse() {
        assert_eq!(
            parse_response(&format_error(Some(3), "quota exceeded")).unwrap(),
            Response::Error { id: Some(3), message: "quota exceeded".to_string() }
        );
        assert_eq!(
            parse_response(&format_error(None, "unknown verb")).unwrap(),
            Response::Error { id: None, message: "unknown verb".to_string() }
        );
        assert_eq!(parse_response("pong").unwrap(), Response::Pong);
        assert_eq!(parse_response("bye").unwrap(), Response::Bye);
        assert!(parse_response("result 1 edges=2 vertices=1 ns=5 0,1,2").is_err());
        // An announced count far above the carried triples must be rejected
        // without reserving room for it.
        assert!(parse_response("result 1 edges=1000000000000 vertices=0 ns=0").is_err());
        assert!(parse_response("result 1 edges=18446744073709551615 vertices=0 ns=0").is_err());
        assert!(parse_response("result 1 edges=1 vertices=1 ns=5 0,1").is_err());
        assert!(parse_response("nonsense").is_err());
    }

    /// The token pool fuzzed lines are built from: every verb of both
    /// directions (plus garbage), the field prefixes, and values — numbers
    /// at the `u32`, `u64` and `i64` extremes, comma triples and garbage.
    const VERBS: &[&str] = &[
        "query",
        "ingest",
        "stats",
        "ping",
        "shutdown",
        "result",
        "ingested",
        "error",
        "pong",
        "bye",
        "frobnicate",
    ];
    const PREFIXES: &[&str] = &["", "edges=", "vertices=", "ns=", "epoch="];
    const VALUES: &[&str] = &[
        "0",
        "1",
        "7",
        "4294967295",
        "4294967296",
        "1000000000000",
        "9223372036854775807",
        "9223372036854775808",
        "18446744073709551615",
        "18446744073709551616",
        "-1",
        "-9223372036854775808",
        "-9223372036854775809",
        "0,1,2",
        "4294967295,0,9223372036854775807",
        "1,2,-9223372036854775808",
        "0,4294967296,1",
        "1,2",
        "1,2,3,4",
        ",,",
        "",
        "x",
        "=",
        "é",
        "\u{0}",
    ];

    /// The field prefixes of a well-formed line with this verb, so fuzzed
    /// lines reach past the first field often enough.
    fn shape(verb: &str) -> &'static [&'static str] {
        match verb {
            "query" => &["", "", "", "", ""],
            "ingest" => &["", "", ""],
            "result" => &["", "edges=", "vertices=", "ns="],
            "ingested" => &["epoch=", "edges="],
            "error" => &[""],
            _ => &[],
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(20_000))]

        /// No line built from the pool panics either parser (or aborts on
        /// an allocation), and every request the parser accepts formats
        /// back to a line that parses to the same request.
        #[test]
        fn parsers_never_panic_on_lines_built_from_the_token_pool(
            (verb, fields) in (
                0..VERBS.len(),
                proptest::collection::vec((0..4 * PREFIXES.len(), 0..VALUES.len()), 0..10),
            )
        ) {
            let verb = VERBS[verb];
            let mut line = verb.to_string();
            for (i, &(prefix, value)) in fields.iter().enumerate() {
                // Mostly the prefix the verb expects at this field.
                let prefix = match shape(verb).get(i) {
                    Some(expected) if prefix >= PREFIXES.len() => expected,
                    _ => PREFIXES[prefix % PREFIXES.len()],
                };
                line.push(' ');
                line.push_str(prefix);
                line.push_str(VALUES[value]);
            }
            let _ = parse_response(&line);
            match parse_request(&line) {
                Ok(Request::Query { id, query }) => {
                    let again = parse_request(&format_query(id, &query));
                    let want = Ok(Request::Query { id, query });
                    proptest::prop_assert_eq!(again, want, "{}", line);
                }
                Ok(Request::Ingest { edges }) => {
                    let again = parse_request(&format_ingest(&edges));
                    let want = Ok(Request::Ingest { edges });
                    proptest::prop_assert_eq!(again, want, "{}", line);
                }
                Ok(_) | Err(_) => {}
            }
        }

        /// Well-formed `query` and `ingest` lines with values anywhere in
        /// their types' ranges round-trip through the formatters.
        #[test]
        fn well_formed_requests_round_trip_through_the_formatters(
            (id, source, target, a, b, edges) in (
                0..=u64::MAX,
                0..=u32::MAX,
                0..=u32::MAX,
                i64::MIN..=i64::MAX,
                i64::MIN..=i64::MAX,
                proptest::collection::vec(
                    (0..=u32::MAX, 0..=u32::MAX, i64::MIN..=i64::MAX),
                    1..6,
                ),
            )
        ) {
            let window = tspg_graph::TimeInterval::new(a.min(b), a.max(b));
            let query = QuerySpec::new(source, target, window);
            let line = format_query(id, &query);
            let want = Ok(Request::Query { id, query });
            proptest::prop_assert_eq!(parse_request(&line), want, "{}", line);
            let edges: Vec<TemporalEdge> =
                edges.into_iter().map(|(s, d, time)| TemporalEdge::new(s, d, time)).collect();
            let line = format_ingest(&edges);
            let want = Ok(Request::Ingest { edges });
            proptest::prop_assert_eq!(parse_request(&line), want, "{}", line);
        }
    }
}
