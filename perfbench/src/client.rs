//! The `tspg-server` process and the client side of its wire protocol.

use std::collections::BTreeMap;
use std::io::{BufRead, BufReader, Write};
use std::os::unix::net::UnixStream;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

/// A running `tspg-server` child. Dropping it kills and reaps the process.
pub struct ServerProcess {
    child: Child,
    socket: PathBuf,
}

impl ServerProcess {
    /// Starts the server on `graph` with the extra `flags` and waits for
    /// its first `pong`. Returns the process and the time from spawn to
    /// that reply.
    pub fn start(
        binary: &Path,
        graph: &Path,
        flags: &[&str],
        socket: &Path,
        log: &Path,
    ) -> Result<(Self, Duration), String> {
        let _ = std::fs::remove_file(socket);
        let log = std::fs::File::create(log).map_err(|e| format!("{}: {e}", log.display()))?;
        let started = Instant::now();
        let child = Command::new(binary)
            .arg(graph)
            .args(flags)
            .arg("--socket")
            .arg(socket)
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(log)
            .spawn()
            .map_err(|e| format!("cannot start {}: {e}", binary.display()))?;
        let mut server = ServerProcess { child, socket: socket.to_path_buf() };
        loop {
            if let Ok(stream) = UnixStream::connect(socket) {
                let mut conn = Conn::new(stream)?;
                conn.send("ping")?;
                if conn.recv()? == "pong" {
                    return Ok((server, started.elapsed()));
                }
                return Err("server answered ping with something other than pong".into());
            }
            if let Some(status) = server.child.try_wait().map_err(|e| e.to_string())? {
                return Err(format!("tspg-server exited during start-up ({status})"));
            }
            if started.elapsed() > Duration::from_secs(120) {
                return Err("tspg-server did not answer ping within 120 s".into());
            }
            std::thread::sleep(Duration::from_micros(200));
        }
    }

    pub fn connect(&self) -> Result<Conn, String> {
        Conn::new(UnixStream::connect(&self.socket).map_err(|e| format!("connect: {e}"))?)
    }

    /// Peak resident set of the server so far, in MiB.
    pub fn peak_rss_mb(&self) -> Result<f64, String> {
        peak_rss_mb(&format!("/proc/{}/status", self.child.id()))
    }

    /// Sends `shutdown`, then waits for the process to exit.
    pub fn shutdown(mut self) -> Result<(), String> {
        let mut conn = self.connect()?;
        conn.send("shutdown")?;
        let reply = conn.recv()?;
        if reply != "bye" {
            return Err(format!("shutdown answered with {reply:?}"));
        }
        let deadline = Instant::now() + Duration::from_secs(30);
        while Instant::now() < deadline {
            if let Some(status) = self.child.try_wait().map_err(|e| e.to_string())? {
                return if status.success() {
                    Ok(())
                } else {
                    Err(format!("tspg-server exited with {status}"))
                };
            }
            std::thread::sleep(Duration::from_millis(2));
        }
        Err("tspg-server did not exit within 30 s of shutdown".into())
    }
}

impl Drop for ServerProcess {
    fn drop(&mut self) {
        if let Ok(None) = self.child.try_wait() {
            let _ = self.child.kill();
        }
        let _ = self.child.wait();
        let _ = std::fs::remove_file(&self.socket);
    }
}

/// `VmHWM` of a `/proc/<pid>/status` file, in MiB.
pub fn peak_rss_mb(status_path: &str) -> Result<f64, String> {
    let status = std::fs::read_to_string(status_path).map_err(|e| format!("{status_path}: {e}"))?;
    let kib: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .ok_or_else(|| format!("{status_path}: no VmHWM line"))?;
    Ok(kib / 1024.0)
}

/// One protocol connection.
pub struct Conn {
    reader: BufReader<UnixStream>,
    writer: UnixStream,
    line: String,
}

impl Conn {
    fn new(stream: UnixStream) -> Result<Self, String> {
        let writer = stream.try_clone().map_err(|e| e.to_string())?;
        Ok(Self { reader: BufReader::new(stream), writer, line: String::new() })
    }

    pub fn send(&mut self, line: &str) -> Result<(), String> {
        self.writer
            .write_all(line.as_bytes())
            .and_then(|()| self.writer.write_all(b"\n"))
            .map_err(|e| format!("send: {e}"))
    }

    pub fn recv(&mut self) -> Result<String, String> {
        self.line.clear();
        match self.reader.read_line(&mut self.line) {
            Ok(0) => Err("server closed the connection".into()),
            Ok(_) => Ok(self.line.trim_end().to_string()),
            Err(e) => Err(format!("recv: {e}")),
        }
    }

    /// Sends `stats` and parses the reply.
    pub fn stats(&mut self) -> Result<Stats, String> {
        self.send("stats")?;
        let mut text = String::new();
        loop {
            let line = self.recv()?;
            text.push_str(&line);
            text.push('\n');
            if line == "end" {
                return parse_stats(&text);
            }
        }
    }

    /// One `ping` round trip.
    pub fn ping(&mut self) -> Result<Duration, String> {
        let started = Instant::now();
        self.send("ping")?;
        let reply = self.recv()?;
        if reply != "pong" {
            return Err(format!("ping answered with {reply:?}"));
        }
        Ok(started.elapsed())
    }
}

/// A `stats` snapshot: every `key=value` line.
pub type Stats = BTreeMap<String, u64>;

/// Parses a `stats` reply: `key=value` lines ended by a bare `end`.
pub fn parse_stats(text: &str) -> Result<Stats, String> {
    let mut stats = Stats::new();
    for line in text.lines() {
        let line = line.trim();
        if line == "end" {
            return Ok(stats);
        }
        let (key, value) =
            line.split_once('=').ok_or_else(|| format!("stats line without '=': {line:?}"))?;
        let value = value.parse().map_err(|_| format!("stats value is not a u64: {line:?}"))?;
        stats.insert(key.to_string(), value);
    }
    Err("stats reply has no `end` line".into())
}

/// Per-key change between two snapshots (keys missing from `before`
/// count from 0; counters never go backwards, gauges may, so negative
/// changes clamp to 0).
pub fn stats_delta(before: &Stats, after: &Stats) -> Stats {
    after
        .iter()
        .map(|(k, &v)| (k.clone(), v.saturating_sub(before.get(k).copied().unwrap_or(0))))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stats_parser_reads_key_values_until_end() {
        let text = "admit_max=32\nqueries=10\ncache_hits=4\nend\n";
        let stats = parse_stats(text).unwrap();
        assert_eq!(stats["admit_max"], 32);
        assert_eq!(stats["queries"], 10);
        assert_eq!(stats.len(), 3);
        assert!(parse_stats("queries=1\n").is_err(), "a reply must end with `end`");
        assert!(parse_stats("queries\nend\n").is_err());
        assert!(parse_stats("queries=-1\nend\n").is_err());
    }

    #[test]
    fn stats_delta_subtracts_per_key() {
        let before = parse_stats("queries=10\ncache_hits=4\nentries=9\nend").unwrap();
        let after = parse_stats("queries=25\ncache_hits=4\nentries=3\nepoch=2\nend").unwrap();
        let delta = stats_delta(&before, &after);
        assert_eq!(delta["queries"], 15);
        assert_eq!(delta["cache_hits"], 0);
        assert_eq!(delta["entries"], 0, "a shrinking gauge clamps to 0");
        assert_eq!(delta["epoch"], 2, "a key new in `after` counts from 0");
    }

    #[test]
    fn vmhwm_is_read_in_mib() {
        let mb = peak_rss_mb("/proc/self/status").unwrap();
        assert!(mb > 0.1 && mb < 1e6, "{mb}");
    }
}
