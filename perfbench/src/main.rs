//! `perfbench` — the repository benchmark.
//!
//! ```text
//! perfbench --workload <paper|batch|serve|live|all> --seed N --seconds S --trace <0|1>
//! ```
//!
//! Each run generates its inputs from the seed (in a child process, so the
//! generator's memory never counts as the engine's), runs the workload
//! against the real program, checks every answer, and prints its metrics.
//! `--help` lists the workloads, the metrics and their units, and which
//! end-to-end metric each per-layer metric should move.

mod batch;
mod client;
mod inputs;
mod metrics;
mod oracle;
mod paper;
mod replay;
mod report;
mod serving;
mod stats;
mod trace;

use inputs::{Sizes, Workload};
use report::Report;
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode};
use std::time::Duration;

/// Set-ups per run; `setup_s` is their median.
pub const SETUP_REPS: usize = 9;

/// Everything a workload runner needs.
pub struct Run {
    pub workload: Workload,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub sizes: Sizes,
    pub server_bin: PathBuf,
    pub trace_dir: PathBuf,
    /// When the run began (for the stage notes on stderr).
    pub started: std::time::Instant,
}

impl Run {
    /// Writes the run's spans next to the benchmark.
    pub fn write_trace(&self, tracer: &trace::Tracer) -> Result<(), String> {
        std::fs::create_dir_all(&self.trace_dir).map_err(|e| e.to_string())?;
        let path = self.trace_dir.join(format!("{}-{}.tsv", self.workload.name(), self.seed));
        tracer.write_tsv(&path).map_err(|e| format!("{}: {e}", path.display()))
    }

    /// Notes on stderr when a stage of the run ended.
    pub fn progress(&self, stage: &str) {
        let at = self.started.elapsed().as_secs_f64();
        eprintln!("perfbench: {}: {stage} at {at:.2} s", self.workload.name());
    }
}

/// Threads for the correctness checks outside the timed phases: the
/// hardware's.
pub fn threads() -> usize {
    std::thread::available_parallelism().map(std::num::NonZeroUsize::get).unwrap_or(1)
}

/// Worker threads of the measured engine (`batch`'s batches, the `live`
/// server): the hardware's less one, at least one. Workers on every core
/// finish a batch only when the last of them is scheduled, so any other
/// runnable thread (the load generator, the server's readers, another
/// tenant) stalls the whole batch; one free core absorbs that.
pub fn workers() -> usize {
    threads().saturating_sub(1).max(1)
}

/// Median of durations, in seconds.
pub fn median_secs(durations: &[Duration]) -> f64 {
    let secs: Vec<f64> = durations.iter().map(Duration::as_secs_f64).collect();
    stats::median(&secs).unwrap_or(0.0)
}

/// Seeded Fisher–Yates shuffle.
pub fn shuffle<T>(items: &mut [T], seed: u64) {
    let mut state = seed;
    for i in (1..items.len()).rev() {
        state = inputs::derive(state, i as u64);
        items.swap(i, (state % (i as u64 + 1)) as usize);
    }
}

struct Options {
    workloads: Vec<Workload>,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_options(args: &[String]) -> Result<Options, String> {
    let mut options = Options { workloads: Vec::new(), seed: 1, seconds: 10.0, trace: false };
    let mut iter = args.iter();
    while let Some(flag) = iter.next() {
        let value = iter.next().ok_or_else(|| format!("{flag} expects a value"))?;
        match flag.as_str() {
            "--workload" => {
                options.workloads = match value.as_str() {
                    "all" => Workload::ALL.to_vec(),
                    name => vec![Workload::parse(name)
                        .ok_or_else(|| format!("unknown workload {name:?}"))?],
                }
            }
            "--seed" => options.seed = value.parse().map_err(|_| format!("bad seed {value:?}"))?,
            "--seconds" => {
                options.seconds = value.parse().map_err(|_| format!("bad seconds {value:?}"))?;
                if options.seconds.is_nan() || options.seconds <= 0.0 {
                    return Err("--seconds must be positive".into());
                }
            }
            "--trace" => {
                options.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value:?}")),
                }
            }
            _ => return Err(format!("unknown flag {flag:?}")),
        }
    }
    if options.workloads.is_empty() {
        return Err("missing --workload".into());
    }
    Ok(options)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.iter().any(|a| a == "--help" || a == "-h") {
        print!("{}", metrics::usage());
        return ExitCode::SUCCESS;
    }
    if args.first().map(String::as_str) == Some("gen") {
        return match generate_here(&args[1..]) {
            Ok(()) => ExitCode::SUCCESS,
            Err(e) => {
                eprintln!("perfbench gen: {e}");
                ExitCode::from(2)
            }
        };
    }
    let options = match parse_options(&args) {
        Ok(options) => options,
        Err(e) => {
            eprintln!("perfbench: {e}\n\n{}", metrics::usage());
            return ExitCode::from(2);
        }
    };
    let expected: Vec<&str> = if options.trace {
        metrics::PER_LAYER.iter().map(|m| m.name).collect()
    } else {
        metrics::END_TO_END.iter().map(|m| m.name).collect()
    };
    let mut reports = Vec::new();
    for &workload in &options.workloads {
        let result = run_workload(workload, &options)
            .and_then(|report| report.check_names(&expected).map(|()| report));
        match result {
            Ok(report) => {
                for line in report.lines() {
                    println!("{line}");
                }
                reports.push(report);
            }
            Err(e) => {
                eprintln!("perfbench: {}: {e}", workload.name());
                return ExitCode::from(2);
            }
        }
    }
    println!("{}", Report::json(&reports, options.workloads.len() > 1));
    if reports.iter().any(|r| r.failed > 0) {
        eprintln!("perfbench: wrong, stale or missing answers; see above");
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}

/// `perfbench gen <workload> <seed>`: writes the inputs into the current
/// directory.
fn generate_here(args: &[String]) -> Result<(), String> {
    let [workload, seed] = args else { return Err("usage: perfbench gen WORKLOAD SEED".into()) };
    let workload = Workload::parse(workload).ok_or("unknown workload")?;
    let seed = seed.parse().map_err(|_| "bad seed")?;
    inputs::generate(workload, seed, Path::new("."), &Sizes::FULL).map(drop)
}

/// Runs one workload in a fresh work directory under the benchmark's own
/// directory, which is removed afterwards.
fn run_workload(workload: Workload, options: &Options) -> Result<Report, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let server_bin = exe.with_file_name("tspg-server");
    let base = Path::new(env!("CARGO_MANIFEST_DIR")).join(".work");
    let work = base.join(format!("{}-{}-{}", workload.name(), options.seed, std::process::id()));
    let _ = std::fs::remove_dir_all(&work);
    std::fs::create_dir_all(&work).map_err(|e| format!("{}: {e}", work.display()))?;
    let _cleanup = RemoveOnDrop(work.clone());
    let home = std::env::current_dir().map_err(|e| e.to_string())?;
    // Relative names keep the server's socket path short however deep the
    // checkout is.
    std::env::set_current_dir(&work).map_err(|e| format!("{}: {e}", work.display()))?;
    let run = Run {
        workload,
        seed: options.seed,
        seconds: options.seconds,
        trace: options.trace,
        sizes: Sizes::FULL,
        server_bin,
        trace_dir: base.join("traces"),
        started: std::time::Instant::now(),
    };
    let result = (|| {
        let status = Command::new(&exe)
            .args(["gen", workload.name(), &options.seed.to_string()])
            .status()
            .map_err(|e| format!("cannot run the input generator: {e}"))?;
        if !status.success() {
            return Err(format!("input generation failed ({status})"));
        }
        run.progress("generated inputs");
        match workload {
            Workload::Paper => paper::run(&run),
            Workload::Batch => batch::run(&run),
            Workload::Serve => serving::run(&run, false),
            Workload::Live => serving::run(&run, true),
        }
    })();
    std::env::set_current_dir(home).map_err(|e| e.to_string())?;
    result
}

struct RemoveOnDrop(PathBuf);

impl Drop for RemoveOnDrop {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(text: &str) -> Vec<String> {
        text.split_whitespace().map(str::to_string).collect()
    }

    #[test]
    fn options_parse_the_documented_flags() {
        let o = parse_options(&args("--workload live --seed 7 --seconds 10 --trace 1")).unwrap();
        assert_eq!(o.workloads, vec![Workload::Live]);
        assert_eq!((o.seed, o.seconds, o.trace), (7, 10.0, true));
        assert_eq!(parse_options(&args("--workload all")).unwrap().workloads.len(), 4);
        assert!(parse_options(&args("--workload bogus")).is_err());
        assert!(parse_options(&args("--workload paper --trace 2")).is_err());
        assert!(parse_options(&args("--seed 3")).is_err());
    }

    #[test]
    fn shuffle_is_a_seeded_permutation() {
        let mut a: Vec<u32> = (0..100).collect();
        let mut b = a.clone();
        shuffle(&mut a, 5);
        shuffle(&mut b, 5);
        assert_eq!(a, b);
        assert_ne!(a, (0..100).collect::<Vec<_>>());
        a.sort_unstable();
        assert_eq!(a, (0..100).collect::<Vec<_>>());
    }
}
