//! `paper`: one `generate_tspg` call at a time, closed loop, one thread,
//! over several seeded instances of the ten Table I analogues.

use crate::inputs::{read_graph, read_queries, Files};
use crate::replay::{report_phases, Replayer};
use crate::report::Report;
use crate::trace::Tracer;
use crate::{median_secs, Run, SETUP_REPS};
use std::time::Instant;
use tspg_baselines::{run_ep, EpAlgorithm};
use tspg_core::{generate_tspg, QuerySpec};
use tspg_datasets::registry;
use tspg_enum::Budget;
use tspg_graph::{EdgeSet, TemporalGraph};

/// DFS steps EPtgTSG may spend on one query before it is left unchecked.
const ORACLE_STEPS: u64 = 200_000;

pub fn run(run: &Run) -> Result<Report, String> {
    let mut files = Vec::new();
    for spec in registry() {
        for instance in 0..run.sizes.paper_instances {
            files.push((
                Files::paper_graph(spec.id, instance),
                Files::paper_queries(spec.id, instance),
            ));
        }
    }

    // Set-up: parse every graph file and build its CSR, several times.
    let mut setups = Vec::new();
    let mut graphs: Vec<TemporalGraph> = Vec::new();
    let mut tracer = Tracer::default();
    for _ in 0..SETUP_REPS {
        let started = Instant::now();
        graphs = files
            .iter()
            .map(|(graph, _)| tracer.span("graph.load", None, 0, || read_graph(graph.as_ref())))
            .collect::<Result<_, _>>()?;
        setups.push(started.elapsed());
    }
    run.progress("set up");
    let mut pool: Vec<(usize, QuerySpec)> = Vec::new();
    for (g, (_, queries)) in files.iter().enumerate() {
        pool.extend(read_queries(queries.as_ref())?.into_iter().map(|q| (g, q)));
    }
    crate::shuffle(&mut pool, run.seed);

    let mut report = Report::new("paper");
    // Warm-up pass: every distinct query once; these answers are checked
    // against the oracle and every later answer against them.
    let answers: Vec<EdgeSet> = pool
        .iter()
        .map(|&(g, q)| generate_tspg(&graphs[g], q.source, q.target, q.window).tspg)
        .collect();
    report.attempted += pool.len() as u64;
    run.progress("warmed up");

    let (qps, samples, failed) = closed_loop(run.seconds, &answers, |i| {
        let (g, q) = pool[i];
        generate_tspg(&graphs[g], q.source, q.target, q.window).tspg
    });
    report.attempted += samples.len() as u64;
    report.failed += failed;
    let peak_rss = crate::client::peak_rss_mb("/proc/self/status")?;

    if run.trace {
        // The traced phase replays each call phase by phase, from cold
        // working state like the one-shot call it stands for.
        let mut replayer = Replayer::default();
        let mut request = 0u64;
        let (traced_qps, traced, failed) = closed_loop(run.seconds, &answers, |i| {
            let (g, q) = pool[i];
            request += 1;
            replayer.cool();
            replayer.run(&mut tracer, &graphs[g], q, request, None)
        });
        report.attempted += traced.len() as u64;
        report.failed += failed;
        report.metric("graph.load_ms", tracer.mean_self_ms("graph.load"));
        report.metric("graph.edges", graphs.iter().map(|g| g.num_edges()).sum::<usize>() as f64);
        report_phases(&mut report, &tracer, &replayer.totals);
        report.metric("trace.overhead_pct", 100.0 * (qps - traced_qps) / qps);
        report.zero_unreached_layers();
        run.write_trace(&tracer)?;
    } else {
        report.metric("setup_s", median_secs(&setups));
        report.metric("throughput_qps", qps);
        report.latencies(&samples)?;
        report.metric("peak_rss_mb", peak_rss);
    }

    run.progress("measured");
    // The oracle: EPtgTSG shares no code with VUG; check every distinct
    // query it finishes within its step budget.
    let chunk = pool.len().div_ceil(crate::threads());
    let graphs = &graphs;
    let verdicts: Vec<Option<bool>> = std::thread::scope(|scope| {
        let handles: Vec<_> = pool
            .chunks(chunk)
            .zip(answers.chunks(chunk))
            .map(|(entries, expected)| {
                scope.spawn(move || {
                    entries
                        .iter()
                        .zip(expected)
                        .map(|(&(g, q), answer)| {
                            let budget = Budget::steps(ORACLE_STEPS);
                            let ep = run_ep(
                                EpAlgorithm::TgTsg,
                                &graphs[g],
                                q.source,
                                q.target,
                                q.window,
                                &budget,
                            );
                            ep.is_exact().then(|| ep.tspg == *answer)
                        })
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        handles.into_iter().flat_map(|h| h.join().expect("oracle worker panicked")).collect()
    });
    let checked = verdicts.iter().flatten().count();
    for (verdict, (g, q)) in verdicts.iter().zip(&pool) {
        if *verdict == Some(false) {
            eprintln!("paper: wrong answer for {q:?} on graph {}", files[*g].0);
            report.failed += 1;
        }
    }
    run.progress("checked answers");
    report.extra("oracle_checked_share", checked as f64 / pool.len().max(1) as f64);
    Ok(report)
}

/// Calls `answer(i)` for every pool index in order, round after round,
/// until `seconds` have passed. Returns the throughput, the per-call
/// latencies in ms and the number of answers that differ from `expected`.
fn closed_loop(
    seconds: f64,
    expected: &[EdgeSet],
    mut answer: impl FnMut(usize) -> EdgeSet,
) -> (f64, Vec<f64>, u64) {
    let mut samples = Vec::with_capacity(1 << 16);
    let mut failed = 0;
    let started = Instant::now();
    let mut i = 0;
    while started.elapsed().as_secs_f64() < seconds {
        let call = Instant::now();
        let got = answer(i);
        samples.push(call.elapsed().as_secs_f64() * 1e3);
        failed += u64::from(got != expected[i]);
        i = (i + 1) % expected.len();
    }
    (samples.len() as f64 / started.elapsed().as_secs_f64(), samples, failed)
}
