//! The `experiments` binary: regenerates every table and figure of the
//! paper's evaluation section as plain-text tables.
//!
//! ```text
//! cargo run -p tspg-bench --release --bin experiments -- [SUBCOMMAND] [OPTIONS]
//!
//! SUBCOMMANDS
//!   all        run every experiment (default)
//!   table1     dataset statistics (Table I analogue)
//!   exp1       response time on all datasets            (Fig. 5)
//!   exp2       response time vs theta                   (Figs. 6, 14)
//!   exp3       space consumption                        (Fig. 7)
//!   exp4       per-phase response time of VUG           (Fig. 8)
//!   table2     upper-bound ratios                       (Table II)
//!   exp5       tgTSG vs QuickUBG                        (Fig. 9)
//!   exp5-theta upper-bound generation vs theta          (Figs. 10, 15)
//!   exp6       EEV vs enumeration on G_t                (Fig. 11)
//!   exp7       number of paths vs edges in the tspG     (Fig. 12)
//!   exp8       transit case study                       (Fig. 13)
//!   batch      batch query engine throughput            (Exp-9, beyond the paper)
//!   ablation   each sharing layer off, per serving workload (beyond the paper)
//!   exp13      closed-loop latency through tspg-server  (Exp-13, beyond the paper)
//!   exp15      warm-cache serving under a live edge feed (Exp-15, beyond the paper)
//!
//! OPTIONS
//!   --scale tiny|small|medium   dataset scale                (default small)
//!   --queries N                 queries per dataset          (default 50)
//!   --datasets D1,D3,...        restrict the datasets
//!   --seed N                    RNG seed                     (default 0x5eed)
//!   --budget-ms N               per-query baseline budget    (default 2000)
//!   --threads N                 batch/serving workers        (default 2)
//! ```

#![forbid(unsafe_code)]

use std::process::ExitCode;
use std::time::Duration;
use tspg_bench::experiments::*;
use tspg_bench::harness::Table;
use tspg_bench::HarnessConfig;
use tspg_datasets::Scale;
use tspg_enum::Budget;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match run(&args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(message) => {
            eprintln!("error: {message}");
            eprintln!("run with --help for usage");
            ExitCode::FAILURE
        }
    }
}

fn run(args: &[String]) -> Result<(), String> {
    let mut command: Option<String> = None;
    let mut cfg = HarnessConfig::default();
    let mut threads: usize = 2;
    let mut iter = args.iter().peekable();
    while let Some(arg) = iter.next() {
        match arg.as_str() {
            "--help" | "-h" => {
                print_help();
                return Ok(());
            }
            "--scale" => {
                cfg.scale = match next_value(&mut iter, "--scale")?.as_str() {
                    "tiny" => Scale::tiny(),
                    "small" => Scale::small(),
                    "medium" => Scale::medium(),
                    other => return Err(format!("unknown scale {other:?}")),
                };
            }
            "--queries" => {
                cfg.queries_per_dataset = next_value(&mut iter, "--queries")?
                    .parse()
                    .map_err(|_| "invalid --queries value".to_string())?;
            }
            "--seed" => {
                cfg.seed = next_value(&mut iter, "--seed")?
                    .parse()
                    .map_err(|_| "invalid --seed value".to_string())?;
            }
            "--budget-ms" => {
                let ms: u64 = next_value(&mut iter, "--budget-ms")?
                    .parse()
                    .map_err(|_| "invalid --budget-ms value".to_string())?;
                cfg.baseline_budget =
                    Budget::timeout(Duration::from_millis(ms)).with_max_steps(50_000_000);
            }
            "--threads" => {
                threads = next_value(&mut iter, "--threads")?
                    .parse()
                    .map_err(|_| "invalid --threads value".to_string())?;
                if threads == 0 {
                    return Err("--threads must be at least 1".to_string());
                }
            }
            "--datasets" => {
                cfg.datasets = next_value(&mut iter, "--datasets")?
                    .split(',')
                    .map(|s| s.trim().to_string())
                    .filter(|s| !s.is_empty())
                    .collect();
            }
            other if other.starts_with('-') => return Err(format!("unknown option {other:?}")),
            other => {
                if command.is_some() {
                    return Err(format!("unexpected extra argument {other:?}"));
                }
                command = Some(other.to_string());
            }
        }
    }

    let command = command.unwrap_or_else(|| "all".to_string());
    let theta_sweep_datasets = ["D1", "D9"];
    let ubg_sweep_datasets = ["D9", "D10"];
    let eev_datasets = ["D1", "D8"];

    let print = |tables: Vec<Table>| {
        for t in tables {
            println!("{}", t.render());
        }
    };

    match command.as_str() {
        "table1" => print(vec![table1_datasets(&cfg)]),
        "exp1" => print(vec![exp1_response_time(&cfg)]),
        "exp2" => print(exp2_vary_theta(&cfg, &theta_sweep_datasets)),
        "exp3" => print(vec![exp3_space(&cfg)]),
        "exp4" => print(vec![exp4_phases(&cfg)]),
        "table2" => print(vec![table2_upper_bound_ratio(&cfg)]),
        "exp5" => print(vec![exp5_quick_vs_tg(&cfg)]),
        "exp5-theta" => print(exp5_vary_theta(&cfg, &ubg_sweep_datasets)),
        "exp6" => print(exp6_eev_vs_enumeration(&cfg, &eev_datasets)),
        "exp7" => print(exp7_paths_vs_edges(&cfg, &eev_datasets)),
        "exp8" => {
            let (table, dot) = exp8_case_study(cfg.seed);
            print(vec![table]);
            println!("Graphviz DOT of the case-study tspG:\n{dot}");
        }
        "batch" => print(vec![exp9_batch_throughput(&cfg, threads)]),
        "ablation" => print(vec![ablation(&cfg, threads)]),
        "exp13" => print(vec![exp13_server_latency(&cfg, threads)]),
        "exp15" => print(vec![exp15_live_ingestion(&cfg, threads)]),
        "all" => {
            print(vec![table1_datasets(&cfg)]);
            print(vec![exp1_response_time(&cfg)]);
            print(exp2_vary_theta(&cfg, &theta_sweep_datasets));
            print(vec![exp3_space(&cfg)]);
            print(vec![exp4_phases(&cfg)]);
            print(vec![table2_upper_bound_ratio(&cfg)]);
            print(vec![exp5_quick_vs_tg(&cfg)]);
            print(exp5_vary_theta(&cfg, &ubg_sweep_datasets));
            print(exp6_eev_vs_enumeration(&cfg, &eev_datasets));
            print(exp7_paths_vs_edges(&cfg, &eev_datasets));
            let (table, dot) = exp8_case_study(cfg.seed);
            print(vec![table]);
            println!("Graphviz DOT of the case-study tspG:\n{dot}");
            print(vec![exp9_batch_throughput(&cfg, threads)]);
            print(vec![ablation(&cfg, threads)]);
            print(vec![exp13_server_latency(&cfg, threads)]);
            print(vec![exp15_live_ingestion(&cfg, threads)]);
        }
        other => return Err(format!("unknown subcommand {other:?}")),
    }
    Ok(())
}

fn next_value(
    iter: &mut std::iter::Peekable<std::slice::Iter<'_, String>>,
    flag: &str,
) -> Result<String, String> {
    iter.next().cloned().ok_or_else(|| format!("{flag} expects a value"))
}

fn print_help() {
    println!(
        "experiments — reproduce the paper's tables and figures\n\n\
         usage: experiments [SUBCOMMAND] [--scale tiny|small|medium] [--queries N]\n\
                [--datasets D1,D2,...] [--seed N] [--budget-ms N] [--threads N]\n\n\
         subcommands: all (default), table1, exp1, exp2, exp3, exp4, table2,\n\
                      exp5, exp5-theta, exp6, exp7, exp8, batch, ablation, exp13,\n\
                      exp15"
    );
}
