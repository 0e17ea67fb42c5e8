//! `tspg` — command-line interface for temporal simple path graph generation.
//!
//! ```text
//! tspg stats <edge-list>
//! tspg generate --dataset D1 [--scale tiny|small|medium] [--seed N] [--output FILE]
//! tspg query <edge-list> --source S --target T --begin B --end E
//!            [--algorithm vug|epdt|epes|eptg] [--dot]
//! tspg paths <edge-list> --source S --target T --begin B --end E [--limit N]
//! tspg workload <edge-list> --queries N --theta T [--seed N]
//!               [--fanout-sources S] [--end-spread E] [--begin-jitter J]
//!               [--output FILE]
//! tspg batch <edge-list> <query-file> [--threads N] [--cache-size N]
//!            [--profile-cache-size N] [--quiet]
//! tspg client <query-file> --socket PATH [--ingest FILE] [--stats] [--shutdown]
//!            [--quiet]
//! ```
//!
//! The edge-list format is one `src dst timestamp` triple per line (`#` and
//! `%` start comments), the same format used by SNAP/KONECT dumps. Query
//! files hold one `source target begin end` quadruple per line with the
//! same comment rules.

#![forbid(unsafe_code)]

use std::collections::HashMap;
use std::io::{BufRead, BufReader, Write};
use std::os::unix::net::UnixStream;
use std::process::ExitCode;
use std::time::{Duration, Instant};
use tspg_baselines::{run_ep, EpAlgorithm};
use tspg_core::{generate_tspg, CacheConfig, ProfileCacheConfig, QueryEngine, QuerySpec};
use tspg_datasets::{find, format_queries, generate_workload, parse_queries, Scale};
use tspg_enum::{enumerate_paths, Budget};
use tspg_graph::{io, GraphStats, TemporalEdge, TemporalGraph, TimeInterval, VertexId};

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match dispatch(&args) {
        Ok(output) => {
            print!("{output}");
            ExitCode::SUCCESS
        }
        Err(message) => {
            eprintln!("error: {message}");
            eprintln!("run `tspg help` for usage");
            ExitCode::FAILURE
        }
    }
}

fn dispatch(args: &[String]) -> Result<String, String> {
    let Some(command) = args.first() else {
        return Ok(usage());
    };
    let rest = &args[1..];
    match command.as_str() {
        "help" | "--help" | "-h" => Ok(usage()),
        "stats" => cmd_stats(rest),
        "generate" => cmd_generate(rest),
        "query" => cmd_query(rest),
        "paths" => cmd_paths(rest),
        "workload" => cmd_workload(rest),
        "batch" => cmd_batch(rest),
        "client" => cmd_client(rest),
        other => Err(format!("unknown command {other:?}")),
    }
}

fn usage() -> String {
    "tspg — temporal simple path graph generation (VUG)\n\
     \n\
     usage:\n\
       tspg stats <edge-list>\n\
       tspg generate --dataset D1 [--scale tiny|small|medium] [--seed N] [--output FILE]\n\
       tspg query <edge-list> --source S --target T --begin B --end E\n\
                  [--algorithm vug|epdt|epes|eptg] [--dot]\n\
       tspg paths <edge-list> --source S --target T --begin B --end E [--limit N]\n\
       tspg workload <edge-list> --queries N --theta T [--seed N]\n\
                  [--fanout-sources S] [--end-spread E] [--begin-jitter J] [--output FILE]\n\
       tspg batch <edge-list> <query-file> [--threads N] [--cache-size N]\n\
                  [--profile-cache-size N] [--quiet]\n\
       tspg client <query-file> --socket PATH [--ingest FILE] [--stats] [--shutdown]\n\
                  [--quiet]\n"
        .to_string()
}

/// Splits positional arguments from `--flag value` pairs and bare
/// `--switch`es. Each command passes the flags and switches it reads; any
/// other `--name` is a usage error naming it.
fn parse_flags(
    args: &[String],
    flags: &[&str],
    switches: &[&str],
) -> Result<(Vec<String>, HashMap<String, String>), String> {
    let mut positional = Vec::new();
    let mut parsed = HashMap::new();
    let mut iter = args.iter();
    while let Some(arg) = iter.next() {
        if let Some(name) = arg.strip_prefix("--") {
            let value = if switches.contains(&name) {
                "true".to_string()
            } else if flags.contains(&name) {
                iter.next().cloned().ok_or_else(|| format!("--{name} expects a value"))?
            } else {
                return Err(format!("unknown flag --{name}"));
            };
            parsed.insert(name.to_string(), value);
        } else {
            positional.push(arg.clone());
        }
    }
    Ok((positional, parsed))
}

fn required<'a>(flags: &'a HashMap<String, String>, name: &str) -> Result<&'a str, String> {
    flags.get(name).map(String::as_str).ok_or_else(|| format!("missing required flag --{name}"))
}

fn parse_number<T: std::str::FromStr>(value: &str, what: &str) -> Result<T, String> {
    value.parse().map_err(|_| format!("invalid {what}: {value:?}"))
}

fn load_graph(path: &str) -> Result<TemporalGraph, String> {
    io::read_edge_list_file(path).map_err(|e| format!("cannot read {path}: {e}"))
}

fn parse_query(
    flags: &HashMap<String, String>,
) -> Result<(VertexId, VertexId, TimeInterval), String> {
    let source: VertexId = parse_number(required(flags, "source")?, "source vertex")?;
    let target: VertexId = parse_number(required(flags, "target")?, "target vertex")?;
    let begin: i64 = parse_number(required(flags, "begin")?, "interval begin")?;
    let end: i64 = parse_number(required(flags, "end")?, "interval end")?;
    let window = TimeInterval::try_new(begin, end)
        .ok_or_else(|| format!("invalid interval [{begin}, {end}]"))?;
    Ok((source, target, window))
}

fn cmd_stats(args: &[String]) -> Result<String, String> {
    let (positional, _) = parse_flags(args, &[], &[])?;
    let path = positional.first().ok_or("stats requires an edge-list path")?;
    let graph = load_graph(path)?;
    let stats = GraphStats::compute(&graph);
    Ok(format!("{stats}\n"))
}

fn cmd_generate(args: &[String]) -> Result<String, String> {
    let (_, flags) = parse_flags(args, &["dataset", "scale", "seed", "output"], &[])?;
    let dataset = required(&flags, "dataset")?;
    let spec = find(dataset).ok_or_else(|| format!("unknown dataset {dataset:?} (D1..D10)"))?;
    let scale = match flags.get("scale").map(String::as_str).unwrap_or("small") {
        "tiny" => Scale::tiny(),
        "small" => Scale::small(),
        "medium" => Scale::medium(),
        other => return Err(format!("unknown scale {other:?}")),
    };
    let seed: u64 = match flags.get("seed") {
        Some(v) => parse_number(v, "seed")?,
        None => 42,
    };
    let graph = spec.generate(scale, seed);
    let stats = GraphStats::compute(&graph);
    match flags.get("output") {
        Some(path) => {
            io::write_edge_list_file(&graph, path)
                .map_err(|e| format!("cannot write {path}: {e}"))?;
            Ok(format!("wrote {} ({stats})\n", path))
        }
        None => {
            let mut buffer = Vec::new();
            io::write_edge_list(&graph, &mut buffer).map_err(|e| e.to_string())?;
            Ok(String::from_utf8_lossy(&buffer).into_owned())
        }
    }
}

fn cmd_query(args: &[String]) -> Result<String, String> {
    let (positional, flags) =
        parse_flags(args, &["source", "target", "begin", "end", "algorithm"], &["dot"])?;
    let path = positional.first().ok_or("query requires an edge-list path")?;
    let graph = load_graph(path)?;
    let (source, target, window) = parse_query(&flags)?;
    let algorithm = flags.get("algorithm").map(String::as_str).unwrap_or("vug");

    let (tspg, summary) = match algorithm {
        "vug" => {
            let result = generate_tspg(&graph, source, target, window);
            let r = &result.report;
            let summary = format!(
                "algorithm=VUG |Gq|={} |Gt|={} |tspG|={} vertices={} time={:?}\n",
                r.quick_edges,
                r.tight_edges,
                r.result_edges,
                r.result_vertices,
                r.total_elapsed()
            );
            (result.tspg, summary)
        }
        "epdt" | "epes" | "eptg" => {
            let ep = match algorithm {
                "epdt" => EpAlgorithm::DtTsg,
                "epes" => EpAlgorithm::EsTsg,
                _ => EpAlgorithm::TgTsg,
            };
            let result = run_ep(ep, &graph, source, target, window, &Budget::unlimited());
            let summary = format!(
                "algorithm={} |UBG|={} |tspG|={} time={:?}\n",
                ep.name(),
                result.upper_bound_edges,
                result.tspg.num_edges(),
                result.total_elapsed()
            );
            (result.tspg, summary)
        }
        other => return Err(format!("unknown algorithm {other:?}")),
    };

    let mut out = summary;
    if flags.contains_key("dot") {
        let sub = tspg.to_graph(graph.num_vertices());
        out.push_str(&io::to_dot(&sub, None));
    } else {
        for e in tspg.edges() {
            out.push_str(&format!("{} {} {}\n", e.src, e.dst, e.time));
        }
    }
    Ok(out)
}

fn cmd_paths(args: &[String]) -> Result<String, String> {
    let (positional, flags) =
        parse_flags(args, &["source", "target", "begin", "end", "limit"], &[])?;
    let path = positional.first().ok_or("paths requires an edge-list path")?;
    let graph = load_graph(path)?;
    let (source, target, window) = parse_query(&flags)?;
    let limit: u64 = match flags.get("limit") {
        Some(v) => parse_number(v, "limit")?,
        None => 1000,
    };
    let out = enumerate_paths(&graph, source, target, window, &Budget::paths(limit));
    let mut text = format!(
        "{} temporal simple path(s) from {source} to {target} within {window} (status: {:?})\n",
        out.paths.len(),
        out.stats.status
    );
    for p in &out.paths {
        text.push_str(&format!("{p}\n"));
    }
    Ok(text)
}

fn cmd_workload(args: &[String]) -> Result<String, String> {
    let (positional, flags) = parse_flags(
        args,
        &["queries", "theta", "seed", "fanout-sources", "end-spread", "begin-jitter", "output"],
        &[],
    )?;
    let path = positional.first().ok_or("workload requires an edge-list path")?;
    let graph = load_graph(path)?;
    let num_queries: usize = parse_number(required(&flags, "queries")?, "query count")?;
    let theta: i64 = parse_number(required(&flags, "theta")?, "theta")?;
    let seed: u64 = match flags.get("seed") {
        Some(v) => parse_number(v, "seed")?,
        None => 42,
    };
    // `--fanout-sources S` switches to the same-source fan-out generator;
    // `--end-spread` / `--begin-jitter` tune its window variation (the
    // latter produces the mixed-begin bursts profile sharing groups).
    let fanout_sources: Option<usize> = match flags.get("fanout-sources") {
        Some(v) => Some(parse_number(v, "fan-out source count")?),
        None => None,
    };
    let queries = match fanout_sources {
        Some(sources) => {
            let mut cfg = tspg_datasets::FanoutWorkloadConfig::new(num_queries, sources, theta);
            if let Some(v) = flags.get("end-spread") {
                cfg.end_spread = parse_number(v, "end spread")?;
            }
            if let Some(v) = flags.get("begin-jitter") {
                cfg = cfg.with_begin_jitter(parse_number(v, "begin jitter")?);
            }
            tspg_datasets::generate_fanout_workload(&graph, &cfg, seed)
        }
        None => {
            for knob in ["end-spread", "begin-jitter"] {
                if flags.contains_key(knob) {
                    return Err(format!("--{knob} requires --fanout-sources"));
                }
            }
            generate_workload(&graph, num_queries, theta, seed)
        }
    }
    .map_err(|e| format!("cannot generate workload: {e}"))?;
    if queries.len() < num_queries {
        eprintln!(
            "warning: only {} of {num_queries} queries could be generated \
             (graph too sparse for theta={theta})",
            queries.len()
        );
    }
    let text = format_queries(&queries);
    match flags.get("output") {
        Some(out_path) => {
            std::fs::write(out_path, &text).map_err(|e| format!("cannot write {out_path}: {e}"))?;
            Ok(format!(
                "wrote {} ({} queries, theta={theta}, seed={seed})\n",
                out_path,
                queries.len()
            ))
        }
        None => Ok(text),
    }
}

fn cmd_batch(args: &[String]) -> Result<String, String> {
    let (positional, flags) =
        parse_flags(args, &["threads", "cache-size", "profile-cache-size"], &["quiet"])?;
    let graph_path = positional.first().ok_or("batch requires an edge-list path")?;
    let query_path = positional.get(1).ok_or("batch requires a query-file path")?;
    let threads: usize = match flags.get("threads") {
        Some(v) => parse_number(v, "thread count")?,
        None => 1,
    };
    if threads == 0 {
        return Err("--threads must be at least 1".to_string());
    }
    let quiet = flags.contains_key("quiet");
    // `--cache-size 0` disables the result cache.
    let cache_entries: Option<usize> = match flags.get("cache-size") {
        Some(v) => Some(parse_number(v, "cache size")?),
        None => None,
    };
    // `--profile-cache-size 0` disables cross-batch profile residency
    // (groups still share one arrival profile within a batch).
    let profile_cache_entries: Option<usize> = match flags.get("profile-cache-size") {
        Some(v) => Some(parse_number(v, "profile cache size")?),
        None => None,
    };
    let graph = load_graph(graph_path)?;
    let text = std::fs::read_to_string(query_path)
        .map_err(|e| format!("cannot read {query_path}: {e}"))?;
    let queries: Vec<QuerySpec> = parse_queries(&text).map_err(|e| format!("{query_path}: {e}"))?;
    if queries.is_empty() {
        return Err(format!("{query_path} contains no queries"));
    }

    let mut engine = QueryEngine::new(graph);
    engine = match cache_entries {
        Some(0) => engine.without_cache(),
        Some(entries) => engine.with_cache(CacheConfig::with_max_entries(entries)),
        None => engine,
    };
    engine = match profile_cache_entries {
        Some(0) => engine.without_profile_cache(),
        Some(entries) => engine.with_profile_cache(ProfileCacheConfig::with_max_entries(entries)),
        None => engine,
    };
    let started = Instant::now();
    let (results, stats) = engine.run_batch_with_stats(&queries, threads);
    let wall = started.elapsed();

    let mut out = String::new();
    let mut total_edges = 0u64;
    let mut slowest = std::time::Duration::ZERO;
    for (i, (q, r)) in queries.iter().zip(results.iter()).enumerate() {
        // `time=` is the pipeline time in the slot's report. Answers copied
        // from a duplicate, the cache or a covering unit carry the report
        // of the run that produced the result, not this batch's marginal
        // cost — the aggregate line's wall-clock is the spend of this run.
        let elapsed = r.report.total_elapsed();
        slowest = slowest.max(elapsed);
        total_edges += r.report.result_edges as u64;
        if !quiet {
            out.push_str(&format!(
                "#{i} {}->{} {} edges={} vertices={} time={elapsed:?}\n",
                q.source, q.target, q.window, r.report.result_edges, r.report.result_vertices,
            ));
        }
    }
    let qps = if wall.as_secs_f64() > 0.0 {
        results.len() as f64 / wall.as_secs_f64()
    } else {
        f64::INFINITY
    };
    out.push_str(&format!(
        "answered {} queries in {wall:?} ({qps:.0} queries/s, threads={threads}, \
         slowest={slowest:?}, total tspG edges={total_edges})\n",
        results.len(),
    ));
    let cache_cell = match engine.cache_stats() {
        Some(c) => format!(
            "cache_hits={} hit_rate={:.1}% entries={} bytes={}",
            stats.cache_hits,
            100.0 * c.hit_rate(),
            c.entries,
            c.bytes
        ),
        None => "cache=off".to_string(),
    };
    let profile_cell = match engine.profile_cache_stats() {
        Some(p) => format!(
            "profile_cache_hits={} profile_cache_entries={} profile_cache_bytes={}",
            p.hits, p.entries, p.bytes
        ),
        None => "profile_cache=off".to_string(),
    };
    out.push_str(&format!(
        "plan: units={} envelopes={} dedup={} shared={} envelope_answered={} \
         profile_groups={} profile_answered={} degenerate={} {cache_cell} \
         {profile_cell} (pipeline runs {} for {} queries)\n",
        stats.executed_units,
        stats.envelope_units,
        stats.dedup_answered,
        stats.shared_answered,
        stats.envelope_answered,
        stats.profile_groups,
        stats.profile_answered,
        stats.degenerate,
        stats.pipeline_runs(),
        stats.queries,
    ));
    Ok(out)
}

/// Parses an ingest file: one `src dst time` triple per line, `#`/`%`
/// comments, with blank lines separating batches (each batch becomes one
/// `ingest` request and thus one graph epoch).
fn parse_edge_batches(path: &str) -> Result<Vec<Vec<TemporalEdge>>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    let mut batches: Vec<Vec<TemporalEdge>> = Vec::new();
    let mut current: Vec<TemporalEdge> = Vec::new();
    for (lineno, raw) in text.lines().enumerate() {
        let line = raw.split(['#', '%']).next().unwrap_or("").trim();
        if line.is_empty() {
            if raw.trim().is_empty() && !current.is_empty() {
                batches.push(std::mem::take(&mut current));
            }
            continue;
        }
        let mut fields = line.split_whitespace();
        let mut field = |what: &str| -> Result<&str, String> {
            fields.next().ok_or_else(|| format!("{path}:{}: missing {what}", lineno + 1))
        };
        let src: VertexId = parse_number(field("source vertex")?, "source vertex")?;
        let dst: VertexId = parse_number(field("target vertex")?, "target vertex")?;
        let time: i64 = parse_number(field("timestamp")?, "timestamp")?;
        if let Some(extra) = fields.next() {
            return Err(format!("{path}:{}: unexpected field {extra:?}", lineno + 1));
        }
        current.push(TemporalEdge::new(src, dst, time));
    }
    if !current.is_empty() {
        batches.push(current);
    }
    Ok(batches)
}

/// Speaks the `tspg-server` wire protocol: connects to the socket, pipelines
/// the whole query file, prints the answers in the same per-query format as
/// `tspg batch` (so the two outputs can be diffed directly, timings aside).
///
/// With `--ingest FILE`, the file's edge batches (one `src dst time` triple
/// per line, blank lines separating batches, `#`/`%` comments allowed) are
/// sent and acknowledged *before* the queries, so every printed answer
/// reflects the mutated graph.
fn cmd_client(args: &[String]) -> Result<String, String> {
    use tspg_server::protocol::{self, Response};

    let (positional, flags) =
        parse_flags(args, &["socket", "ingest"], &["quiet", "stats", "shutdown"])?;
    let query_path = positional.first().ok_or("client requires a query-file path")?;
    let socket = required(&flags, "socket")?;
    let quiet = flags.contains_key("quiet");

    let text = std::fs::read_to_string(query_path)
        .map_err(|e| format!("cannot read {query_path}: {e}"))?;
    let queries: Vec<QuerySpec> = parse_queries(&text).map_err(|e| format!("{query_path}: {e}"))?;
    if queries.is_empty() {
        return Err(format!("{query_path} contains no queries"));
    }

    let stream =
        UnixStream::connect(socket).map_err(|e| format!("cannot connect to {socket}: {e}"))?;
    let mut reader =
        BufReader::new(stream.try_clone().map_err(|e| format!("cannot clone connection: {e}"))?);
    let mut writer = stream;
    let read_line = |reader: &mut BufReader<UnixStream>| -> Result<String, String> {
        let mut line = String::new();
        let n = reader.read_line(&mut line).map_err(|e| format!("read from {socket}: {e}"))?;
        if n == 0 {
            return Err(format!("{socket}: server closed the connection"));
        }
        Ok(line.trim_end().to_string())
    };

    let mut out = String::new();
    if let Some(ingest_path) = flags.get("ingest") {
        let batches = parse_edge_batches(ingest_path)?;
        if batches.is_empty() {
            return Err(format!("{ingest_path} contains no edges"));
        }
        // Apply every mutation batch and wait for its acknowledgement
        // before pipelining the queries: the answers printed below must
        // all reflect the mutated graph.
        for batch in &batches {
            writer
                .write_all(protocol::format_ingest(batch).as_bytes())
                .and_then(|()| writer.write_all(b"\n"))
                .and_then(|()| writer.flush())
                .map_err(|e| format!("write to {socket}: {e}"))?;
            let line = read_line(&mut reader)?;
            match protocol::parse_response(&line).map_err(|e| format!("{socket}: {e}"))? {
                Response::Ingested { epoch, edges } => {
                    out.push_str(&format!("ingested {edges} edges, graph at epoch {epoch}\n"));
                }
                Response::Error { message, .. } => {
                    return Err(format!("{socket}: ingest rejected: {message}"));
                }
                other => return Err(format!("{socket}: unexpected reply {other:?}")),
            }
        }
    }

    // Pipeline the whole file, tagging each request with its file index, so
    // concurrent strangers' queries can share the server's admission batch.
    let started = Instant::now();
    let mut request_lines = String::new();
    for (i, q) in queries.iter().enumerate() {
        request_lines.push_str(&protocol::format_query(i as u64, q));
        request_lines.push('\n');
    }
    writer
        .write_all(request_lines.as_bytes())
        .and_then(|()| writer.flush())
        .map_err(|e| format!("write to {socket}: {e}"))?;

    // Answers stream back tagged; collect by id so the printout is in file
    // order even if the server ever reordered replies.
    let mut answers: Vec<Option<protocol::ResultPayload>> = vec![None; queries.len()];
    let mut errors: Vec<String> = Vec::new();
    for _ in 0..queries.len() {
        let line = read_line(&mut reader)?;
        match protocol::parse_response(&line).map_err(|e| format!("{socket}: {e}"))? {
            Response::Result(payload) => {
                let slot = answers
                    .get_mut(payload.id as usize)
                    .ok_or_else(|| format!("{socket}: unexpected request id {}", payload.id))?;
                *slot = Some(payload);
            }
            Response::Error { id, message } => {
                let tag = id.map_or_else(|| "-".to_string(), |id| id.to_string());
                errors.push(format!("request {tag}: {message}"));
            }
            other => return Err(format!("{socket}: unexpected reply {other:?}")),
        }
    }
    let wall = started.elapsed();

    let mut total_edges = 0u64;
    for (i, q) in queries.iter().enumerate() {
        let Some(payload) = &answers[i] else { continue };
        total_edges += payload.edges.len() as u64;
        if !quiet {
            let elapsed = Duration::from_nanos(payload.ns);
            out.push_str(&format!(
                "#{i} {}->{} {} edges={} vertices={} time={elapsed:?}\n",
                q.source,
                q.target,
                q.window,
                payload.edges.len(),
                payload.vertices,
            ));
        }
    }
    let answered = answers.iter().filter(|a| a.is_some()).count();
    out.push_str(&format!(
        "answered {answered} queries in {wall:?} over {socket} (total tspG edges={total_edges})\n",
    ));
    if !errors.is_empty() {
        return Err(format!(
            "{} of {} requests failed (first: {})",
            errors.len(),
            queries.len(),
            errors[0]
        ));
    }

    if flags.contains_key("stats") {
        writer
            .write_all(b"stats\n")
            .and_then(|()| writer.flush())
            .map_err(|e| format!("write to {socket}: {e}"))?;
        loop {
            let line = read_line(&mut reader)?;
            if line == "end" {
                break;
            }
            out.push_str(&line);
            out.push('\n');
        }
    }

    if flags.contains_key("shutdown") {
        writer
            .write_all(b"shutdown\n")
            .and_then(|()| writer.flush())
            .map_err(|e| format!("write to {socket}: {e}"))?;
        let line = read_line(&mut reader)?;
        if line != "bye" {
            return Err(format!("{socket}: expected bye to shutdown, got {line:?}"));
        }
        out.push_str("server shutting down\n");
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use tspg_graph::fixtures::figure1_graph;

    fn fixture_file() -> std::path::PathBuf {
        use std::sync::atomic::{AtomicUsize, Ordering};
        static COUNTER: AtomicUsize = AtomicUsize::new(0);
        let unique = COUNTER.fetch_add(1, Ordering::Relaxed);
        let path = std::env::temp_dir()
            .join(format!("tspg_cli_fixture_{}_{unique}.txt", std::process::id()));
        io::write_edge_list_file(&figure1_graph(), &path).unwrap();
        path
    }

    fn args(list: &[&str]) -> Vec<String> {
        list.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn help_and_unknown_commands() {
        assert!(dispatch(&[]).unwrap().contains("usage"));
        assert!(dispatch(&args(&["help"])).unwrap().contains("tspg query"));
        assert!(dispatch(&args(&["frobnicate"])).is_err());
    }

    #[test]
    fn stats_command() {
        let path = fixture_file();
        let out = dispatch(&args(&["stats", path.to_str().unwrap()])).unwrap();
        assert!(out.contains("|E|=14"));
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn query_command_runs_all_algorithms() {
        let path = fixture_file();
        let p = path.to_str().unwrap();
        for alg in ["vug", "epdt", "epes", "eptg"] {
            let out = dispatch(&args(&[
                "query",
                p,
                "--source",
                "0",
                "--target",
                "7",
                "--begin",
                "2",
                "--end",
                "7",
                "--algorithm",
                alg,
            ]))
            .unwrap();
            assert_eq!(out.lines().count(), 5, "summary plus four edges for {alg}: {out}");
        }
        let dot = dispatch(&args(&[
            "query", p, "--source", "0", "--target", "7", "--begin", "2", "--end", "7", "--dot",
        ]))
        .unwrap();
        assert!(dot.contains("digraph"));
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn paths_command_lists_both_paths() {
        let path = fixture_file();
        let out = dispatch(&args(&[
            "paths",
            path.to_str().unwrap(),
            "--source",
            "0",
            "--target",
            "7",
            "--begin",
            "2",
            "--end",
            "7",
        ]))
        .unwrap();
        assert!(out.starts_with("2 temporal simple path(s)"));
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn generate_command_writes_an_edge_list() {
        let out_path =
            std::env::temp_dir().join(format!("tspg_cli_gen_{}.txt", std::process::id()));
        let out = dispatch(&args(&[
            "generate",
            "--dataset",
            "D1",
            "--scale",
            "tiny",
            "--seed",
            "7",
            "--output",
            out_path.to_str().unwrap(),
        ]))
        .unwrap();
        assert!(out.starts_with("wrote"));
        let reloaded = io::read_edge_list_file(&out_path).unwrap();
        assert!(reloaded.num_edges() > 0);
        std::fs::remove_file(out_path).ok();
    }

    #[test]
    fn workload_and_batch_commands_roundtrip() {
        let graph_path = fixture_file();
        let g = graph_path.to_str().unwrap();
        let query_path = std::env::temp_dir().join(format!(
            "tspg_cli_batch_{}_{:?}.txt",
            std::process::id(),
            std::thread::current().id()
        ));
        let q = query_path.to_str().unwrap();

        // Generate a query file over the fixture graph...
        let out = dispatch(&args(&[
            "workload",
            g,
            "--queries",
            "8",
            "--theta",
            "6",
            "--seed",
            "3",
            "--output",
            q,
        ]))
        .unwrap();
        assert!(out.starts_with("wrote"), "{out}");

        // ...answer it sequentially and with 2 worker threads...
        let sequential = dispatch(&args(&["batch", g, q])).unwrap();
        assert!(sequential.contains("queries/s"), "{sequential}");
        assert!(sequential.contains("threads=1"), "{sequential}");
        let parallel = dispatch(&args(&["batch", g, q, "--threads", "2"])).unwrap();
        assert!(parallel.contains("threads=2"), "{parallel}");

        // ...and check the per-query lines agree between the two runs
        // (everything except the timings is deterministic).
        let strip = |text: &str| -> Vec<String> {
            text.lines()
                .filter(|l| l.starts_with('#'))
                .map(|l| l.split(" time=").next().unwrap().to_string())
                .collect()
        };
        assert_eq!(strip(&sequential), strip(&parallel));
        assert_eq!(strip(&sequential).len(), 8);

        // --quiet keeps only the aggregate and plan-stats lines.
        let quiet = dispatch(&args(&["batch", g, q, "--quiet"])).unwrap();
        assert_eq!(quiet.lines().count(), 2, "{quiet}");
        assert!(quiet.lines().last().unwrap().starts_with("plan:"), "{quiet}");

        std::fs::remove_file(graph_path).ok();
        std::fs::remove_file(query_path).ok();
    }

    #[test]
    fn batch_command_reports_plan_and_cache_stats() {
        let graph_path = fixture_file();
        let g = graph_path.to_str().unwrap();
        let query_path = std::env::temp_dir().join(format!(
            "tspg_cli_planstats_{}_{:?}.txt",
            std::process::id(),
            std::thread::current().id()
        ));
        // Two duplicates of a wide query, one contained window, one
        // degenerate query and one independent query.
        std::fs::write(&query_path, "0 7 2 7\n0 7 2 7\n0 7 3 6\n4 4 2 7\n7 0 2 7\n").unwrap();
        let q = query_path.to_str().unwrap();

        let out = dispatch(&args(&["batch", g, q, "--quiet"])).unwrap();
        let plan = out.lines().last().unwrap();
        assert!(plan.contains("units=2"), "{plan}");
        assert!(plan.contains("envelopes=0"), "{plan}");
        assert!(plan.contains("dedup=1"), "{plan}");
        assert!(plan.contains("shared=1"), "{plan}");
        assert!(plan.contains("degenerate=1"), "{plan}");
        assert!(plan.contains("pipeline runs 2 for 5 queries"), "{plan}");
        assert!(plan.contains("cache_hits=0"), "{plan}");

        // --cache-size 0 drops the cache columns.
        let out = dispatch(&args(&["batch", g, q, "--quiet", "--cache-size", "0"])).unwrap();
        assert!(out.lines().last().unwrap().contains("cache=off"), "{out}");

        // An explicit cache size is accepted; a bad one is rejected.
        let out = dispatch(&args(&["batch", g, q, "--quiet", "--cache-size", "128"])).unwrap();
        assert!(out.lines().last().unwrap().contains("entries="), "{out}");
        let err = dispatch(&args(&["batch", g, q, "--cache-size", "lots"])).unwrap_err();
        assert!(err.contains("cache size"), "{err}");

        std::fs::remove_file(query_path).ok();
        std::fs::remove_file(graph_path).ok();
    }

    #[test]
    fn batch_command_envelope_flags_control_the_planner() {
        let graph_path = fixture_file();
        let g = graph_path.to_str().unwrap();
        let query_path = std::env::temp_dir().join(format!(
            "tspg_cli_envelopes_{}_{:?}.txt",
            std::process::id(),
            std::thread::current().id()
        ));
        // Two overlapping (non-nested) windows on the same (s, t).
        std::fs::write(&query_path, "0 7 2 5\n0 7 4 7\n").unwrap();
        let q = query_path.to_str().unwrap();

        // Default planner: one synthesized envelope answers both.
        let out = dispatch(&args(&["batch", g, q, "--quiet"])).unwrap();
        let plan = out.lines().last().unwrap();
        assert!(plan.contains("envelopes=1"), "{plan}");
        assert!(plan.contains("envelope_answered=2"), "{plan}");
        assert!(plan.contains("pipeline runs 1 for 2 queries"), "{plan}");

        // The planner's switches are not command-line flags: the retired
        // envelope knobs are rejected by name, never silently ignored.
        for retired in [&["--no-envelopes"][..], &["--envelope-factor", "2"][..]] {
            let err = dispatch(&args(&[&["batch", g, q][..], retired].concat())).unwrap_err();
            assert_eq!(err, format!("unknown flag {}", retired[0]));
        }

        std::fs::remove_file(query_path).ok();
        std::fs::remove_file(graph_path).ok();
    }

    #[test]
    fn batch_command_profile_flags_control_the_planner() {
        let graph_path = fixture_file();
        let g = graph_path.to_str().unwrap();
        let query_path = std::env::temp_dir().join(format!(
            "tspg_cli_profile_{}_{:?}.txt",
            std::process::id(),
            std::thread::current().id()
        ));
        // A same-source fan-out: three targets, mixed window begins.
        std::fs::write(&query_path, "0 7 2 7\n0 2 3 7\n0 3 2 7\n").unwrap();
        let q = query_path.to_str().unwrap();

        // Default planner: one profile group spanning all three units, and
        // the resident profile cache holding the group's source.
        let out = dispatch(&args(&["batch", g, q, "--quiet"])).unwrap();
        let plan = out.lines().last().unwrap();
        assert!(plan.contains("profile_groups=1"), "{plan}");
        assert!(plan.contains("profile_answered=3"), "{plan}");
        assert!(plan.contains("profile_cache_entries=1"), "{plan}");
        assert!(plan.contains("pipeline runs 3 for 3 queries"), "{plan}");

        // --profile-cache-size 0 turns residency off; a positive size keeps
        // it on; a bad size is rejected.
        let out =
            dispatch(&args(&["batch", g, q, "--quiet", "--profile-cache-size", "0"])).unwrap();
        assert!(out.lines().last().unwrap().contains("profile_cache=off"), "{out}");
        let out =
            dispatch(&args(&["batch", g, q, "--quiet", "--profile-cache-size", "16"])).unwrap();
        assert!(out.lines().last().unwrap().contains("profile_cache_entries=1"), "{out}");
        let err = dispatch(&args(&["batch", g, q, "--profile-cache-size", "lots"])).unwrap_err();
        assert!(err.contains("profile cache size"), "{err}");
        let err = dispatch(&args(&["batch", g, q, "--no-profile-sharing"])).unwrap_err();
        assert_eq!(err, "unknown flag --no-profile-sharing");

        std::fs::remove_file(query_path).ok();
        std::fs::remove_file(graph_path).ok();
    }

    #[test]
    fn workload_command_fanout_knobs_generate_mixed_begin_bursts() {
        let graph_path = fixture_file();
        let g = graph_path.to_str().unwrap();

        // Fan-out generation with jittered begins parses back and contains
        // at least one source with differing begins.
        let out = dispatch(&args(&[
            "workload",
            g,
            "--queries",
            "12",
            "--theta",
            "4",
            "--seed",
            "7",
            "--fanout-sources",
            "2",
            "--begin-jitter",
            "3",
            "--end-spread",
            "2",
        ]))
        .unwrap();
        let queries = tspg_datasets::parse_queries(&out).unwrap();
        assert!(!queries.is_empty());
        let mut begins: HashMap<VertexId, Vec<i64>> = HashMap::new();
        for q in &queries {
            begins.entry(q.source).or_default().push(q.window.begin());
        }
        let mixed = begins.values().any(|b| b.iter().any(|&begin| begin != b[0]));
        assert!(mixed, "begin jitter must mix begins: {out}");

        // The jitter/spread knobs demand the fan-out generator.
        for knob in ["--begin-jitter", "--end-spread"] {
            let err =
                dispatch(&args(&["workload", g, "--queries", "4", "--theta", "4", knob, "2"]))
                    .unwrap_err();
            assert!(err.contains("fanout-sources"), "{err}");
        }
        std::fs::remove_file(graph_path).ok();
    }

    #[test]
    fn workload_command_surfaces_generator_errors() {
        let graph_path = fixture_file();
        let g = graph_path.to_str().unwrap();
        // theta = 0 used to panic inside the RNG; now it is a clean error.
        let err = dispatch(&args(&["workload", g, "--queries", "5", "--theta", "0"])).unwrap_err();
        assert!(err.contains("theta"), "{err}");
        std::fs::remove_file(graph_path).ok();

        // An edgeless graph cannot anchor any window.
        let empty_path =
            std::env::temp_dir().join(format!("tspg_cli_emptyg_{}.txt", std::process::id()));
        std::fs::write(&empty_path, "# no edges\n").unwrap();
        let err = dispatch(&args(&[
            "workload",
            empty_path.to_str().unwrap(),
            "--queries",
            "5",
            "--theta",
            "4",
        ]))
        .unwrap_err();
        assert!(err.contains("no edges"), "{err}");
        std::fs::remove_file(empty_path).ok();
    }

    #[test]
    fn batch_command_rejects_bad_inputs() {
        let graph_path = fixture_file();
        let g = graph_path.to_str().unwrap();
        let err = dispatch(&args(&["batch", g])).unwrap_err();
        assert!(err.contains("query-file"), "{err}");
        let err = dispatch(&args(&["batch", g, "/definitely/not/a/file"])).unwrap_err();
        assert!(err.contains("cannot read"), "{err}");
        let bad_path = std::env::temp_dir().join(format!(
            "tspg_cli_badq_{}_{:?}.txt",
            std::process::id(),
            std::thread::current().id()
        ));
        std::fs::write(&bad_path, "0 7 2 bogus\n").unwrap();
        let err = dispatch(&args(&["batch", g, bad_path.to_str().unwrap()])).unwrap_err();
        assert!(err.contains("line 1"), "{err}");
        std::fs::write(&bad_path, "# only comments\n").unwrap();
        let err = dispatch(&args(&["batch", g, bad_path.to_str().unwrap()])).unwrap_err();
        assert!(err.contains("no queries"), "{err}");
        let err = dispatch(&args(&["batch", g, bad_path.to_str().unwrap(), "--threads", "0"]))
            .unwrap_err();
        assert!(err.contains("--threads"), "{err}");
        std::fs::remove_file(bad_path).ok();
        std::fs::remove_file(graph_path).ok();
    }

    #[test]
    fn client_ingest_flag_mutates_the_served_graph_before_querying() {
        use tspg_server::{Server, ServerConfig};

        let tag = format!("{}_{:?}", std::process::id(), std::thread::current().id());
        let query_path = std::env::temp_dir().join(format!("tspg_cli_ingest_q_{tag}.txt"));
        std::fs::write(&query_path, "0 7 2 7\n").unwrap();
        let q = query_path.to_str().unwrap();
        // Two batches (blank-line separated) with comments: two epochs.
        let delta_path = std::env::temp_dir().join(format!("tspg_cli_ingest_d_{tag}.txt"));
        std::fs::write(&delta_path, "# direct edge inside the window\n0 7 5\n\n1 7 6 % late\n")
            .unwrap();
        let d = delta_path.to_str().unwrap();
        let socket = std::env::temp_dir().join(format!("tspg_cli_ingest_{tag}.sock"));
        let handle =
            Server::bind(QueryEngine::new(figure1_graph()), &socket, ServerConfig::default())
                .unwrap();
        let s = socket.to_str().unwrap();

        let before = dispatch(&args(&["client", q, "--socket", s])).unwrap();
        let after = dispatch(&args(&["client", q, "--socket", s, "--ingest", d])).unwrap();
        assert!(after.contains("ingested 1 edges, graph at epoch 1\n"), "{after}");
        assert!(after.contains("ingested 1 edges, graph at epoch 2\n"), "{after}");
        let answer =
            |text: &str| text.lines().find(|l| l.starts_with('#')).map(|l| l.to_string()).unwrap();
        assert_ne!(answer(&before), answer(&after), "ingest must change the answer");

        dispatch(&args(&["client", q, "--socket", s, "--quiet", "--shutdown"])).unwrap();
        handle.join();
        std::fs::remove_file(query_path).ok();
        std::fs::remove_file(delta_path).ok();
    }

    #[test]
    fn client_command_matches_batch_output_and_drives_the_server_verbs() {
        use tspg_server::{Server, ServerConfig};

        let graph_path = fixture_file();
        let g = graph_path.to_str().unwrap();
        let query_path = std::env::temp_dir().join(format!(
            "tspg_cli_client_{}_{:?}.txt",
            std::process::id(),
            std::thread::current().id()
        ));
        // Duplicates, a contained window and a degenerate query so the
        // server's sharing machinery has something to do.
        std::fs::write(&query_path, "0 7 2 7\n0 7 2 7\n0 7 3 6\n4 4 2 7\n7 0 2 7\n").unwrap();
        let q = query_path.to_str().unwrap();

        let socket = std::env::temp_dir().join(format!(
            "tspg_cli_client_{}_{:?}.sock",
            std::process::id(),
            { std::thread::current().id() }
        ));
        let handle = Server::bind(
            QueryEngine::new(figure1_graph()),
            &socket,
            ServerConfig { admit_max: 3, ..ServerConfig::default() },
        )
        .unwrap();
        let s = socket.to_str().unwrap();

        // The per-query lines must match `tspg batch` exactly, timings aside.
        let strip = |text: &str| -> Vec<String> {
            text.lines()
                .filter(|l| l.starts_with('#'))
                .map(|l| l.split(" time=").next().unwrap().to_string())
                .collect()
        };
        let via_server = dispatch(&args(&["client", q, "--socket", s, "--stats"])).unwrap();
        let one_shot = dispatch(&args(&["batch", g, q])).unwrap();
        assert_eq!(strip(&via_server), strip(&one_shot));
        assert_eq!(strip(&via_server).len(), 5);
        assert!(via_server.contains("answered 5 queries"), "{via_server}");
        // --stats appends the server's key=value dump.
        assert!(via_server.contains("dedup_answered=1"), "{via_server}");
        assert!(via_server.contains("\nbatches="), "{via_server}");

        // --quiet keeps the aggregate line only; --shutdown stops the server.
        let quiet =
            dispatch(&args(&["client", q, "--socket", s, "--quiet", "--shutdown"])).unwrap();
        assert_eq!(quiet.lines().count(), 2, "{quiet}");
        assert!(quiet.ends_with("server shutting down\n"), "{quiet}");
        let report = handle.join();
        assert_eq!(report.totals.queries, 10);
        assert!(!socket.exists(), "socket must be unlinked after shutdown");

        // A dead socket is a clean error, not a hang.
        let err = dispatch(&args(&["client", q, "--socket", s])).unwrap_err();
        assert!(err.contains("cannot connect"), "{err}");

        std::fs::remove_file(query_path).ok();
        std::fs::remove_file(graph_path).ok();
    }

    #[test]
    fn missing_flags_are_reported() {
        let path = fixture_file();
        let err = dispatch(&args(&["query", path.to_str().unwrap(), "--source", "0"])).unwrap_err();
        assert!(err.contains("--target"));
        let err = dispatch(&args(&["generate"])).unwrap_err();
        assert!(err.contains("--dataset"));
        let err = dispatch(&args(&["generate", "--dataset", "D99"])).unwrap_err();
        assert!(err.contains("unknown dataset"));
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn invalid_interval_is_rejected() {
        let path = fixture_file();
        let err = dispatch(&args(&[
            "query",
            path.to_str().unwrap(),
            "--source",
            "0",
            "--target",
            "7",
            "--begin",
            "9",
            "--end",
            "2",
        ]))
        .unwrap_err();
        assert!(err.contains("invalid interval"));
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn misspelled_flags_are_rejected_by_name() {
        // `--thread` is not `--threads`: it must not be ignored, and the
        // error comes before either file is read.
        let err = dispatch(&args(&["batch", "g.txt", "q.txt", "--thread", "4"])).unwrap_err();
        assert_eq!(err, "unknown flag --thread");
        // Switches are per command too: `query` reads no `--quiet`.
        let err = dispatch(&args(&["query", "g.txt", "--quiet"])).unwrap_err();
        assert_eq!(err, "unknown flag --quiet");
    }
}
