//! The dataset registry: laptop-scale analogues of the paper's Table I.
//!
//! Each [`DatasetSpec`] records the full-size statistics of the corresponding
//! real dataset (for documentation and for the `experiments` binary's Table
//! I) together with a generator model whose *shape* mimics it. A [`Scale`] divides the sizes
//! down to something that runs on a laptop; the default experiment scale is
//! [`Scale::small`].

use crate::generators::{GeneratorModel, GraphGenerator};
use tspg_graph::TemporalGraph;

/// How aggressively to shrink the full-size dataset statistics.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Scale {
    /// Divisor applied to the vertex and edge counts.
    pub size_divisor: f64,
    /// Divisor applied to the timestamp-domain size.
    pub time_divisor: f64,
    /// Lower bound on the number of generated edges.
    pub min_edges: usize,
    /// Upper bound on the number of generated edges (safety cap).
    pub max_edges: usize,
    /// Multiplier applied to the original dataset's edge/vertex density when
    /// deriving the scaled vertex count. Values above 1 concentrate the
    /// edges on fewer vertices, recovering the per-window branching factor
    /// that the full-size datasets get from their sheer size.
    pub density_boost: f64,
}

impl Scale {
    /// A few hundred edges per dataset; suitable for unit tests.
    pub fn tiny() -> Self {
        Self {
            size_divisor: 40_000.0,
            time_divisor: 40.0,
            min_edges: 300,
            max_edges: 3_000,
            density_boost: 3.0,
        }
    }

    /// Thousands to tens of thousands of edges; the default for the
    /// experiment harness.
    pub fn small() -> Self {
        Self {
            size_divisor: 4_000.0,
            time_divisor: 20.0,
            min_edges: 4_000,
            max_edges: 40_000,
            density_boost: 8.0,
        }
    }

    /// Hundreds of thousands of edges; minutes-long harness runs.
    pub fn medium() -> Self {
        Self {
            size_divisor: 400.0,
            time_divisor: 10.0,
            min_edges: 10_000,
            max_edges: 400_000,
            density_boost: 8.0,
        }
    }
}

impl Default for Scale {
    fn default() -> Self {
        Scale::small()
    }
}

/// A dataset of the paper (Table I) plus the synthetic model that stands in
/// for it.
#[derive(Clone, Debug)]
pub struct DatasetSpec {
    /// Short id used throughout the paper: `"D1"` … `"D10"`.
    pub id: &'static str,
    /// Name of the real dataset this spec mirrors.
    pub source_name: &'static str,
    /// `|V|` of the real dataset.
    pub full_vertices: usize,
    /// `|E|` of the real dataset.
    pub full_edges: usize,
    /// `|T|` of the real dataset.
    pub full_timestamps: usize,
    /// Maximum degree `d` of the real dataset.
    pub full_max_degree: usize,
    /// Default query span θ used by the paper for this dataset.
    pub default_theta: i64,
    /// Generator family used for the synthetic analogue.
    pub model: GeneratorModel,
}

impl DatasetSpec {
    /// The generator obtained by applying `scale` to the full-size statistics.
    ///
    /// Scaling keeps what actually drives the algorithms' relative behaviour:
    /// the number of edges falling inside one query window per vertex. The
    /// full datasets achieve that density through sheer size (tens of
    /// millions of edges and six-figure hub degrees); at laptop scale the
    /// same per-window density is recovered by shrinking the vertex set and
    /// the timestamp domain faster than the edge count (`density_boost`,
    /// and a timestamp domain of a few multiples of the default θ).
    pub fn generator(&self, scale: Scale) -> GraphGenerator {
        let num_edges = ((self.full_edges as f64 / scale.size_divisor) as usize)
            .clamp(scale.min_edges, scale.max_edges);
        let density = self.full_edges as f64 / self.full_vertices as f64;
        let num_vertices = ((num_edges as f64 / (density * scale.density_boost)) as usize).max(24);
        let theta = self.default_theta as usize;
        let num_timestamps = ((self.full_timestamps as f64 / scale.time_divisor) as usize)
            .clamp(3 * theta, 4 * theta);
        GraphGenerator { num_vertices, num_edges, num_timestamps, model: self.model.clone() }
    }

    /// Generates the synthetic analogue at the given scale and seed.
    pub fn generate(&self, scale: Scale, seed: u64) -> TemporalGraph {
        self.generator(scale).generate(seed)
    }
}

/// The ten datasets of Table I, in order D1…D10.
pub fn registry() -> Vec<DatasetSpec> {
    vec![
        DatasetSpec {
            id: "D1",
            source_name: "email-Eu-core",
            full_vertices: 1_005,
            full_edges: 332_334,
            full_timestamps: 803,
            full_max_degree: 9_782,
            default_theta: 10,
            // email-Eu-core is a small, very dense communication core; a
            // uniform model over a compact vertex set reproduces its
            // many-parallel-routes behaviour better than a partitioned
            // community model at this scale.
            model: GeneratorModel::Uniform,
        },
        DatasetSpec {
            id: "D2",
            source_name: "sx-mathoverflow",
            full_vertices: 88_581,
            full_edges: 506_550,
            full_timestamps: 2_350,
            full_max_degree: 5_931,
            default_theta: 20,
            model: GeneratorModel::Hub { exponent: 2.2 },
        },
        DatasetSpec {
            id: "D3",
            source_name: "sx-askubuntu",
            full_vertices: 159_316,
            full_edges: 964_437,
            full_timestamps: 2_613,
            full_max_degree: 8_729,
            default_theta: 20,
            model: GeneratorModel::Hub { exponent: 2.4 },
        },
        DatasetSpec {
            id: "D4",
            source_name: "sx-superuser",
            full_vertices: 194_085,
            full_edges: 1_443_339,
            full_timestamps: 2_773,
            full_max_degree: 26_996,
            default_theta: 20,
            model: GeneratorModel::Hub { exponent: 2.6 },
        },
        DatasetSpec {
            id: "D5",
            source_name: "wiki-ru",
            full_vertices: 457_018,
            full_edges: 2_282_055,
            full_timestamps: 4_715,
            full_max_degree: 188_103,
            default_theta: 25,
            model: GeneratorModel::Hub { exponent: 2.8 },
        },
        DatasetSpec {
            id: "D6",
            source_name: "wiki-de",
            full_vertices: 519_404,
            full_edges: 6_729_794,
            full_timestamps: 5_599,
            full_max_degree: 395_780,
            default_theta: 25,
            model: GeneratorModel::Hub { exponent: 3.0 },
        },
        DatasetSpec {
            id: "D7",
            source_name: "wiki-talk",
            full_vertices: 1_140_149,
            full_edges: 7_833_140,
            full_timestamps: 2_320,
            full_max_degree: 264_905,
            default_theta: 20,
            model: GeneratorModel::Hub { exponent: 3.0 },
        },
        DatasetSpec {
            id: "D8",
            source_name: "flickr",
            full_vertices: 2_302_926,
            full_edges: 33_140_017,
            full_timestamps: 196,
            full_max_degree: 34_174,
            default_theta: 10,
            model: GeneratorModel::Uniform,
        },
        DatasetSpec {
            id: "D9",
            source_name: "sx-stackoverflow",
            full_vertices: 6_024_271,
            full_edges: 63_497_050,
            full_timestamps: 2_776,
            full_max_degree: 101_663,
            default_theta: 20,
            model: GeneratorModel::Hub { exponent: 2.6 },
        },
        DatasetSpec {
            id: "D10",
            source_name: "wikipedia",
            full_vertices: 2_166_670,
            full_edges: 86_337_879,
            full_timestamps: 3_787,
            full_max_degree: 218_465,
            default_theta: 25,
            model: GeneratorModel::Community { communities: 24, p_in: 0.7 },
        },
    ]
}

/// Looks up a dataset spec by its id (`"D1"` … `"D10"`), case-insensitively.
pub fn find(id: &str) -> Option<DatasetSpec> {
    registry().into_iter().find(|d| d.id.eq_ignore_ascii_case(id))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_has_ten_datasets_in_order() {
        let r = registry();
        assert_eq!(r.len(), 10);
        for (i, spec) in r.iter().enumerate() {
            assert_eq!(spec.id, format!("D{}", i + 1));
            assert!(spec.full_edges >= spec.full_vertices);
            assert!(spec.default_theta >= 10);
        }
        // Sizes are strictly increasing from D1 to D10 in edge count, as in
        // Table I.
        for w in r.windows(2) {
            assert!(w[0].full_edges < w[1].full_edges);
        }
    }

    #[test]
    fn find_by_id() {
        assert_eq!(find("D3").unwrap().source_name, "sx-askubuntu");
        assert_eq!(find("d10").unwrap().source_name, "wikipedia");
        assert!(find("D11").is_none());
    }

    #[test]
    fn scaling_respects_caps() {
        for spec in registry() {
            for scale in [Scale::tiny(), Scale::small()] {
                let g = spec.generator(scale);
                assert!(g.num_edges >= scale.min_edges);
                assert!(g.num_edges <= scale.max_edges);
                assert!(g.num_vertices >= 24);
                assert!(g.num_timestamps >= 3 * spec.default_theta as usize);
                assert!(g.num_timestamps <= 4 * spec.default_theta as usize);
            }
        }
    }

    #[test]
    fn generation_is_deterministic_and_nonempty() {
        let spec = find("D1").unwrap();
        let a = spec.generate(Scale::tiny(), 1);
        let b = spec.generate(Scale::tiny(), 1);
        assert_eq!(a.edges(), b.edges());
        assert!(a.num_edges() >= 200);
    }

    #[test]
    fn default_scale_is_small() {
        assert_eq!(Scale::default(), Scale::small());
    }
}
