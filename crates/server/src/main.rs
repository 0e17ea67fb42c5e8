//! `tspg-server` — resident serving frontend over a unix domain socket.
//!
//! ```text
//! tspg-server <edge-list> --socket PATH [--admit-max N] [--admit-window-ms T]
//!             [--quota N] [--threads N] [--cache-size N]
//!             [--profile-cache-size N]
//! ```
//!
//! Loads the edge list once, builds one [`QueryEngine`] and serves the
//! line-oriented protocol (see [`tspg_server::protocol`]) until a client
//! sends the `shutdown` verb. On shutdown the admission queue is drained,
//! every pending answer is written, the socket is unlinked and the process
//! exits 0 with a final stats dump on stderr. A flag not listed above is a
//! usage error.

#![forbid(unsafe_code)]

use std::collections::HashMap;
use std::process::ExitCode;
use std::time::Duration;
use tspg_core::{CacheConfig, ProfileCacheConfig, QueryEngine};
use tspg_graph::io;
use tspg_server::{Server, ServerConfig};

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match run(&args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(message) => {
            eprintln!("error: {message}");
            eprintln!("{USAGE}");
            ExitCode::FAILURE
        }
    }
}

const USAGE: &str = "usage:\n  tspg-server <edge-list> --socket PATH [--admit-max N] \
                     [--admit-window-ms T]\n              [--quota N] [--threads N] \
                     [--cache-size N] [--profile-cache-size N]";

/// Every flag `run` reads; any other is rejected before the graph loads.
const FLAGS: &[&str] = &[
    "socket",
    "admit-max",
    "admit-window-ms",
    "quota",
    "threads",
    "cache-size",
    "profile-cache-size",
];

fn run(args: &[String]) -> Result<(), String> {
    if args.iter().any(|a| a == "--help" || a == "-h" || a == "help") {
        println!("{USAGE}");
        return Ok(());
    }
    let (positional, flags) = parse_flags(args)?;
    let graph_path = positional.first().ok_or("missing edge-list path")?;
    if let Some(extra) = positional.get(1) {
        return Err(format!("unexpected positional argument {extra:?}"));
    }
    let socket = flags.get("socket").ok_or("missing required flag --socket")?;

    let mut config = ServerConfig::default();
    if let Some(v) = flags.get("admit-max") {
        config.admit_max = parse_number(v, "admission batch size")?;
        if config.admit_max == 0 {
            return Err("--admit-max must be at least 1".to_string());
        }
    }
    if let Some(v) = flags.get("admit-window-ms") {
        let ms: u64 = parse_number(v, "admission window")?;
        config.admit_window = Duration::from_millis(ms);
    }
    if let Some(v) = flags.get("quota") {
        config.quota = parse_number(v, "per-client quota")?;
        if config.quota == 0 {
            return Err("--quota must be at least 1".to_string());
        }
    }
    if let Some(v) = flags.get("threads") {
        config.threads = parse_number(v, "thread count")?;
        if config.threads == 0 {
            return Err("--threads must be at least 1".to_string());
        }
    }
    // 0 disables the result cache.
    let cache_entries: Option<usize> = match flags.get("cache-size") {
        Some(v) => Some(parse_number(v, "cache size")?),
        None => None,
    };
    // 0 disables cross-batch profile residency (within-batch sharing stays).
    let profile_cache_entries: Option<usize> = match flags.get("profile-cache-size") {
        Some(v) => Some(parse_number(v, "profile cache size")?),
        None => None,
    };

    let graph = io::read_edge_list_file(graph_path)
        .map_err(|e| format!("cannot read {graph_path}: {e}"))?;
    eprintln!(
        "tspg-server: loaded {graph_path} ({} vertices, {} edges)",
        graph.num_vertices(),
        graph.num_edges()
    );
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

    let handle =
        Server::bind(engine, socket, config).map_err(|e| format!("cannot bind {socket}: {e}"))?;
    eprintln!(
        "tspg-server: listening on {socket} (admit_max={}, admit_window={:?}, quota={}, \
         threads={})",
        config.admit_max, config.admit_window, config.quota, config.threads
    );
    // Blocks until a client sends the `shutdown` verb.
    let report = handle.join();
    eprintln!(
        "tspg-server: shut down after {} requests / {} responses ({} batches, {} queries, \
         {} dropped, {} quota rejections, {} malformed)",
        report.requests,
        report.responses,
        report.batches,
        report.totals.queries,
        report.dropped,
        report.quota_rejections,
        report.malformed,
    );
    Ok(())
}

/// Splits positional arguments from `--flag value` pairs (same convention
/// as the `tspg` CLI), rejecting any flag not in [`FLAGS`].
fn parse_flags(args: &[String]) -> Result<(Vec<String>, HashMap<String, String>), String> {
    let mut positional = Vec::new();
    let mut flags = HashMap::new();
    let mut iter = args.iter();
    while let Some(arg) = iter.next() {
        if let Some(name) = arg.strip_prefix("--") {
            if !FLAGS.contains(&name) {
                return Err(format!("unknown flag --{name}"));
            }
            let value = iter.next().cloned().ok_or_else(|| format!("--{name} expects a value"))?;
            flags.insert(name.to_string(), value);
        } else {
            positional.push(arg.clone());
        }
    }
    Ok((positional, flags))
}

fn parse_number<T: std::str::FromStr>(value: &str, what: &str) -> Result<T, String> {
    value.parse().map_err(|_| format!("invalid {what}: {value:?}"))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(list: &[&str]) -> Vec<String> {
        list.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn unknown_flags_are_rejected_before_the_graph_is_read() {
        // The edge list does not exist: an error naming the flag proves the
        // flag was judged before the graph load was attempted.
        let err = run(&args(&["missing.txt", "--socket", "s.sock", "--admit-windw-ms", "5"]))
            .unwrap_err();
        assert_eq!(err, "unknown flag --admit-windw-ms");
        // A known flag gets as far as the graph load.
        let err = run(&args(&["missing.txt", "--socket", "s.sock", "--admit-window-ms", "5"]))
            .unwrap_err();
        assert!(err.contains("missing.txt"), "{err}");
    }
}
