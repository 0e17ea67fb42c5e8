//! Shared experiment infrastructure: dataset preparation, per-query
//! algorithm execution, aggregation, and plain-text table rendering.

use std::fmt::Write as _;
use std::time::Duration;
use tspg_baselines::{run_ep, EpAlgorithm};
use tspg_core::{generate_tspg_with, VugConfig};
use tspg_datasets::{registry, DatasetSpec, Query, Scale, WorkloadConfig, WorkloadGenerator};
use tspg_enum::Budget;
use tspg_graph::TemporalGraph;

/// Global configuration of a harness run.
#[derive(Clone, Debug)]
pub struct HarnessConfig {
    /// Scale applied to the dataset registry.
    pub scale: Scale,
    /// Number of queries per dataset (the paper uses 1000; the default here
    /// is laptop-sized).
    pub queries_per_dataset: usize,
    /// Per-query budget applied to the enumeration-based baselines. Hitting
    /// it is reported as `INF`, mirroring the paper's 12-hour cut-off.
    pub baseline_budget: Budget,
    /// Random seed; controls both dataset generation and workloads.
    pub seed: u64,
    /// Restrict the run to these dataset ids (empty = all ten).
    pub datasets: Vec<String>,
}

impl Default for HarnessConfig {
    fn default() -> Self {
        Self {
            scale: Scale::small(),
            queries_per_dataset: 50,
            baseline_budget: Budget::unlimited()
                .with_max_steps(2_000_000)
                .with_timeout(Duration::from_secs(2)),
            seed: 0x5eed,
            datasets: Vec::new(),
        }
    }
}

impl HarnessConfig {
    /// A configuration small enough for CI smoke tests.
    pub fn smoke() -> Self {
        Self {
            scale: Scale::tiny(),
            queries_per_dataset: 10,
            baseline_budget: Budget::unlimited()
                .with_max_steps(200_000)
                .with_timeout(Duration::from_millis(250)),
            ..Self::default()
        }
    }

    /// The dataset specs selected by this configuration.
    pub fn selected_specs(&self) -> Vec<DatasetSpec> {
        registry()
            .into_iter()
            .filter(|spec| {
                self.datasets.is_empty()
                    || self.datasets.iter().any(|d| d.eq_ignore_ascii_case(spec.id))
            })
            .collect()
    }

    /// Generates the graph and workload of one dataset.
    pub fn prepare(&self, spec: &DatasetSpec) -> PreparedDataset {
        self.prepare_with_theta(spec, spec.default_theta)
    }

    /// Generates the graph and a workload with an explicit query span θ.
    ///
    /// # Panics
    ///
    /// Panics if the workload cannot be generated at all (invalid θ, or a
    /// dataset too sparse at this scale to admit a single reachable query)
    /// — a misconfigured experiment should fail loudly, not report numbers
    /// over an empty workload.
    pub fn prepare_with_theta(&self, spec: &DatasetSpec, theta: i64) -> PreparedDataset {
        let graph = spec.generate(self.scale, self.seed ^ hash_id(spec.id));
        let mut generator = WorkloadGenerator::new(&graph, self.seed.wrapping_add(theta as u64));
        let queries = generator
            .generate(&WorkloadConfig::new(self.queries_per_dataset, theta))
            .unwrap_or_else(|e| panic!("workload for {} (theta={theta}): {e}", spec.id));
        PreparedDataset { id: spec.id.to_string(), spec: spec.clone(), theta, graph, queries }
    }
}

fn hash_id(id: &str) -> u64 {
    id.bytes().fold(0xcbf29ce484222325u64, |h, b| (h ^ b as u64).wrapping_mul(0x100000001b3))
}

/// A generated dataset plus its query workload.
#[derive(Clone, Debug)]
pub struct PreparedDataset {
    /// Dataset id (`"D1"` … `"D10"`).
    pub id: String,
    /// The registry entry the dataset was generated from.
    pub spec: DatasetSpec,
    /// Query span θ used for the workload.
    pub theta: i64,
    /// The synthetic temporal graph.
    pub graph: TemporalGraph,
    /// The reachability-checked query workload.
    pub queries: Vec<Query>,
}

/// The algorithms compared throughout the experiments.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Algorithm {
    /// `EPdtTSG`: enumeration on the projected graph.
    EpDtTsg,
    /// `EPesTSG`: enumeration on the non-decreasing-walk reduction.
    EpEsTsg,
    /// `EPtgTSG`: enumeration on the strict-ascent (Dijkstra) reduction.
    EpTgTsg,
    /// `VUG`: the paper's algorithm (all optimizations on).
    Vug,
    /// Ablation: VUG without the TightUBG phase.
    VugNoTight,
    /// Ablation: VUG without the bidirectional-DFS optimizations.
    VugNoBidirOpt,
}

impl Algorithm {
    /// The four algorithms of the headline comparison (Fig. 5).
    pub const HEADLINE: [Algorithm; 4] =
        [Algorithm::EpDtTsg, Algorithm::EpEsTsg, Algorithm::EpTgTsg, Algorithm::Vug];

    /// Display name matching the paper.
    pub fn name(&self) -> &'static str {
        match self {
            Algorithm::EpDtTsg => "EPdtTSG",
            Algorithm::EpEsTsg => "EPesTSG",
            Algorithm::EpTgTsg => "EPtgTSG",
            Algorithm::Vug => "VUG",
            Algorithm::VugNoTight => "VUG-noTight",
            Algorithm::VugNoBidirOpt => "VUG-noBidirOpt",
        }
    }
}

/// Measurements of one algorithm on one query.
#[derive(Clone, Copy, Debug)]
pub struct QueryOutcome {
    /// Wall-clock time of the run.
    pub elapsed: Duration,
    /// Number of edges in the produced tspG.
    pub tspg_edges: usize,
    /// Number of edges in the algorithm's (final) upper-bound graph.
    pub upper_bound_edges: usize,
    /// Approximate peak memory of the run in bytes.
    pub approx_bytes: usize,
    /// `true` if the run finished within budget (baselines only; VUG always
    /// completes).
    pub completed: bool,
    /// VUG only: per-phase timings `(quick, tight, eev)`.
    pub phases: Option<(Duration, Duration, Duration)>,
}

/// Aggregate of one algorithm over a whole workload.
#[derive(Clone, Copy, Debug, Default)]
pub struct AlgorithmOutcome {
    /// Number of queries executed.
    pub queries: usize,
    /// Number of queries that hit the budget ("INF" behaviour).
    pub timed_out: usize,
    /// Sum of wall-clock times.
    pub total_elapsed: Duration,
    /// Sum of the VUG phase timings, when applicable.
    pub total_phases: (Duration, Duration, Duration),
    /// Smallest per-query memory footprint observed.
    pub min_bytes: usize,
    /// Largest per-query memory footprint observed.
    pub max_bytes: usize,
    /// Sum of tspG edge counts (for ratio computations).
    pub total_tspg_edges: u64,
    /// Sum of upper-bound edge counts.
    pub total_upper_bound_edges: u64,
}

impl AlgorithmOutcome {
    /// Folds one query outcome into the aggregate.
    pub fn add(&mut self, q: &QueryOutcome) {
        self.queries += 1;
        if !q.completed {
            self.timed_out += 1;
        }
        self.total_elapsed += q.elapsed;
        if let Some((a, b, c)) = q.phases {
            self.total_phases.0 += a;
            self.total_phases.1 += b;
            self.total_phases.2 += c;
        }
        self.min_bytes =
            if self.queries == 1 { q.approx_bytes } else { self.min_bytes.min(q.approx_bytes) };
        self.max_bytes = self.max_bytes.max(q.approx_bytes);
        self.total_tspg_edges += q.tspg_edges as u64;
        self.total_upper_bound_edges += q.upper_bound_edges as u64;
    }

    /// `true` if at least one query hit the budget; such aggregates are
    /// printed as `INF`, mirroring the paper.
    pub fn is_inf(&self) -> bool {
        self.timed_out > 0
    }

    /// Total time rendered the way the paper's plots label it.
    pub fn render_time(&self) -> String {
        if self.is_inf() {
            "INF".to_string()
        } else {
            format_duration(self.total_elapsed)
        }
    }

    /// Average upper-bound ratio `|tspG| / |UBG|` in percent.
    pub fn upper_bound_ratio_percent(&self) -> f64 {
        if self.total_upper_bound_edges == 0 {
            100.0
        } else {
            100.0 * self.total_tspg_edges as f64 / self.total_upper_bound_edges as f64
        }
    }
}

/// Runs `algorithm` on a single query.
pub fn run_query(
    algorithm: Algorithm,
    graph: &TemporalGraph,
    query: &Query,
    baseline_budget: &Budget,
) -> QueryOutcome {
    match algorithm {
        Algorithm::EpDtTsg | Algorithm::EpEsTsg | Algorithm::EpTgTsg => {
            let ep = match algorithm {
                Algorithm::EpDtTsg => EpAlgorithm::DtTsg,
                Algorithm::EpEsTsg => EpAlgorithm::EsTsg,
                _ => EpAlgorithm::TgTsg,
            };
            let out = run_ep(ep, graph, query.source, query.target, query.window, baseline_budget);
            QueryOutcome {
                elapsed: out.total_elapsed(),
                tspg_edges: out.tspg.num_edges(),
                upper_bound_edges: out.upper_bound_edges,
                approx_bytes: out.approx_bytes,
                completed: out.is_exact(),
                phases: None,
            }
        }
        Algorithm::Vug | Algorithm::VugNoTight | Algorithm::VugNoBidirOpt => {
            let config = match algorithm {
                Algorithm::VugNoTight => VugConfig::without_tight_ubg(),
                Algorithm::VugNoBidirOpt => VugConfig::without_bidir_optimizations(),
                _ => VugConfig::full(),
            };
            let out = generate_tspg_with(graph, query.source, query.target, query.window, &config);
            QueryOutcome {
                elapsed: out.report.total_elapsed(),
                tspg_edges: out.report.result_edges,
                upper_bound_edges: out.report.tight_edges,
                approx_bytes: out.report.approx_bytes,
                completed: true,
                phases: Some((
                    out.report.quick_elapsed,
                    out.report.tight_elapsed,
                    out.report.eev_elapsed,
                )),
            }
        }
    }
}

/// Runs `algorithm` over every query of a prepared dataset.
pub fn run_workload(
    algorithm: Algorithm,
    dataset: &PreparedDataset,
    baseline_budget: &Budget,
) -> AlgorithmOutcome {
    let mut agg = AlgorithmOutcome::default();
    for query in &dataset.queries {
        let outcome = run_query(algorithm, &dataset.graph, query, baseline_budget);
        agg.add(&outcome);
    }
    agg
}

/// Renders a `Duration` in the compact style of the paper's plots.
pub fn format_duration(d: Duration) -> String {
    let secs = d.as_secs_f64();
    if secs >= 100.0 {
        format!("{secs:.0}s")
    } else if secs >= 1.0 {
        format!("{secs:.2}s")
    } else if secs >= 1e-3 {
        format!("{:.2}ms", secs * 1e3)
    } else {
        format!("{:.1}us", secs * 1e6)
    }
}

/// Renders a byte count with binary units.
pub fn format_bytes(bytes: usize) -> String {
    const UNITS: [&str; 5] = ["B", "KiB", "MiB", "GiB", "TiB"];
    let mut value = bytes as f64;
    let mut unit = 0;
    while value >= 1024.0 && unit + 1 < UNITS.len() {
        value /= 1024.0;
        unit += 1;
    }
    if unit == 0 {
        format!("{bytes}B")
    } else {
        format!("{value:.1}{}", UNITS[unit])
    }
}

/// A minimal fixed-width text table used for every experiment's output.
#[derive(Clone, Debug)]
pub struct Table {
    title: String,
    header: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Creates an empty table with a title and column headers.
    pub fn new(title: impl Into<String>, header: &[&str]) -> Self {
        Self {
            title: title.into(),
            header: header.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends one row (must have as many cells as the header).
    pub fn push_row(&mut self, row: Vec<String>) {
        assert_eq!(row.len(), self.header.len(), "row width mismatch");
        self.rows.push(row);
    }

    /// Number of data rows.
    pub fn num_rows(&self) -> usize {
        self.rows.len()
    }

    /// The table title.
    pub fn title(&self) -> &str {
        &self.title
    }

    /// The column headers.
    pub fn header(&self) -> &[String] {
        &self.header
    }

    /// The data rows, each as wide as the header.
    pub fn rows(&self) -> &[Vec<String>] {
        &self.rows
    }

    /// Renders the table with aligned columns.
    pub fn render(&self) -> String {
        let mut widths: Vec<usize> = self.header.iter().map(String::len).collect();
        for row in &self.rows {
            for (i, cell) in row.iter().enumerate() {
                widths[i] = widths[i].max(cell.len());
            }
        }
        let mut out = String::new();
        let _ = writeln!(out, "## {}", self.title);
        let mut line = String::new();
        for (i, cell) in self.header.iter().enumerate() {
            let _ = write!(line, "{:<width$}  ", cell, width = widths[i]);
        }
        let _ = writeln!(out, "{}", line.trim_end());
        let _ = writeln!(out, "{}", "-".repeat(line.trim_end().len()));
        for row in &self.rows {
            let mut line = String::new();
            for (i, cell) in row.iter().enumerate() {
                let _ = write!(line, "{:<width$}  ", cell, width = widths[i]);
            }
            let _ = writeln!(out, "{}", line.trim_end());
        }
        out
    }

    /// Renders the table as tab-separated values (no title).
    pub fn render_tsv(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "{}", self.header.join("\t"));
        for row in &self.rows {
            let _ = writeln!(out, "{}", row.join("\t"));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn config_selects_datasets() {
        let mut cfg = HarnessConfig::smoke();
        assert_eq!(cfg.selected_specs().len(), 10);
        cfg.datasets = vec!["d1".into(), "D3".into()];
        let selected = cfg.selected_specs();
        assert_eq!(selected.len(), 2);
        assert_eq!(selected[0].id, "D1");
        assert_eq!(selected[1].id, "D3");
    }

    #[test]
    fn prepare_generates_queries_with_requested_theta() {
        let cfg = HarnessConfig::smoke();
        let spec = cfg.selected_specs().into_iter().next().unwrap();
        let prepared = cfg.prepare_with_theta(&spec, 6);
        assert_eq!(prepared.theta, 6);
        assert!(!prepared.queries.is_empty());
        assert!(prepared.queries.iter().all(|q| q.theta() == 6));
    }

    #[test]
    fn vug_and_baselines_agree_on_a_smoke_workload() {
        let cfg = HarnessConfig::smoke();
        let spec = tspg_datasets::find("D1").unwrap();
        let prepared = cfg.prepare(&spec);
        for q in prepared.queries.iter().take(5) {
            let vug = run_query(Algorithm::Vug, &prepared.graph, q, &Budget::unlimited());
            let ep = run_query(Algorithm::EpTgTsg, &prepared.graph, q, &Budget::unlimited());
            assert!(vug.completed && ep.completed);
            assert_eq!(vug.tspg_edges, ep.tspg_edges, "query {q:?}");
        }
    }

    #[test]
    fn aggregation_tracks_min_max_and_inf() {
        let mut agg = AlgorithmOutcome::default();
        agg.add(&QueryOutcome {
            elapsed: Duration::from_millis(5),
            tspg_edges: 10,
            upper_bound_edges: 20,
            approx_bytes: 1000,
            completed: true,
            phases: None,
        });
        agg.add(&QueryOutcome {
            elapsed: Duration::from_millis(7),
            tspg_edges: 5,
            upper_bound_edges: 10,
            approx_bytes: 4000,
            completed: false,
            phases: None,
        });
        assert_eq!(agg.queries, 2);
        assert_eq!(agg.timed_out, 1);
        assert!(agg.is_inf());
        assert_eq!(agg.render_time(), "INF");
        assert_eq!(agg.min_bytes, 1000);
        assert_eq!(agg.max_bytes, 4000);
        assert!((agg.upper_bound_ratio_percent() - 50.0).abs() < 1e-9);
    }

    #[test]
    fn formatting_helpers() {
        assert_eq!(format_duration(Duration::from_secs(200)), "200s");
        assert_eq!(format_duration(Duration::from_millis(1500)), "1.50s");
        assert_eq!(format_duration(Duration::from_micros(2500)), "2.50ms");
        assert_eq!(format_duration(Duration::from_nanos(800)), "0.8us");
        assert_eq!(format_bytes(512), "512B");
        assert_eq!(format_bytes(2048), "2.0KiB");
        assert!(format_bytes(3 * 1024 * 1024).starts_with("3.0MiB"));
    }

    #[test]
    fn table_rendering() {
        let mut t = Table::new("demo", &["a", "b"]);
        t.push_row(vec!["1".into(), "hello".into()]);
        t.push_row(vec!["22".into(), "x".into()]);
        let text = t.render();
        assert!(text.contains("## demo"));
        assert!(text.contains("hello"));
        assert_eq!(t.num_rows(), 2);
        assert_eq!(t.render_tsv().lines().count(), 3);
        assert_eq!(t.title(), "demo");
    }

    #[test]
    #[should_panic(expected = "row width mismatch")]
    fn table_rejects_ragged_rows() {
        let mut t = Table::new("demo", &["a", "b"]);
        t.push_row(vec!["1".into()]);
    }

    #[test]
    fn algorithm_names() {
        assert_eq!(Algorithm::HEADLINE.len(), 4);
        assert_eq!(Algorithm::Vug.name(), "VUG");
        assert_eq!(Algorithm::EpDtTsg.name(), "EPdtTSG");
        assert_eq!(Algorithm::VugNoTight.name(), "VUG-noTight");
    }
}
