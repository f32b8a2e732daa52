//! Synthetic equivalents of the paper's Table I datasets.
//!
//! The paper's twelve datasets come from SNAP, WebGraph, and the DIMACS
//! challenge; none are redistributable here, so each is replaced by a
//! deterministic synthetic generator tuned to match the *structural
//! property the paper relies on*: the fraction of edges incident to the
//! top-20% most-connected vertices ("in-degree con." / "out-degree con." in
//! Table I). Power-law datasets are R-MAT instances with quadrant
//! probabilities chosen per dataset; road networks are perturbed 2-D grids.
//!
//! Sizes are scaled down (see [`DatasetScale`]) so the cycle-level simulator
//! finishes in seconds; the companion scratchpad budgets in `omega-core` are
//! scaled by the same factor, preserving the resident-fraction of `vtxProp`
//! that drives every result in the paper.
//!
//! # Example
//!
//! ```
//! use omega_graph::datasets::{Dataset, DatasetScale};
//!
//! let g = Dataset::Lj.build(DatasetScale::Tiny)?;
//! assert!(g.is_directed());
//! let meta = Dataset::Lj.meta();
//! assert!(meta.power_law);
//! # Ok::<(), omega_graph::GraphError>(())
//! ```

use crate::generators::{self, RmatParams};
use crate::{reorder, CsrGraph, GraphError};

/// How large to build the synthetic datasets.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum DatasetScale {
    /// Unit-test scale: hundreds to a few thousand vertices.
    Tiny,
    /// Evaluation scale used by the figure harness: tens of thousands of
    /// vertices (≈1/160 of the paper, with on-chip budgets scaled to match).
    #[default]
    Small,
    /// Four times the Small vertex counts, for patient validation runs
    /// (`figures --scale medium`). On-chip budgets are *not* rescaled, so hot
    /// residency fractions drop accordingly — closer to the paper's large
    /// datasets.
    Medium,
}

impl DatasetScale {
    /// All scales, smallest first.
    pub const ALL: [DatasetScale; 3] = [
        DatasetScale::Tiny,
        DatasetScale::Small,
        DatasetScale::Medium,
    ];

    /// Stable lowercase identifier ("tiny" / "small" / "medium"), used in
    /// CLI flags and experiment-store fingerprints.
    pub fn code(self) -> &'static str {
        match self {
            DatasetScale::Tiny => "tiny",
            DatasetScale::Small => "small",
            DatasetScale::Medium => "medium",
        }
    }

    /// Looks a scale up by its [`DatasetScale::code`] (case-insensitive).
    pub fn from_code(code: &str) -> Option<DatasetScale> {
        DatasetScale::ALL
            .iter()
            .copied()
            .find(|s| s.code().eq_ignore_ascii_case(code))
    }

    /// Log2 reduction applied to the R-MAT scale exponent relative to
    /// [`DatasetScale::Small`].
    fn shift(self) -> u32 {
        match self {
            DatasetScale::Tiny => 4,
            DatasetScale::Small => 0,
            DatasetScale::Medium => 0, // handled as a boost below
        }
    }

    fn boost(self) -> u32 {
        match self {
            DatasetScale::Medium => 2,
            _ => 0,
        }
    }
}

/// The twelve datasets of Table I.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[allow(missing_docs)] // variant names mirror the paper's dataset codes
pub enum Dataset {
    Sd,
    Ap,
    Rmat,
    Orkut,
    Wiki,
    Lj,
    Ic,
    Uk,
    Twitter,
    RoadPa,
    RoadCa,
    Usa,
}

/// Reference characteristics from Table I of the paper, kept so the harness
/// can print paper-vs-measured rows.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DatasetMeta {
    /// Dataset code used in the paper ("sd", "lj", …).
    pub code: &'static str,
    /// Full dataset name in the paper.
    pub full_name: &'static str,
    /// Millions of vertices in the paper's version.
    pub paper_vertices_m: f64,
    /// Millions of edges in the paper's version.
    pub paper_edges_m: f64,
    /// Whether the paper's graph is directed.
    pub directed: bool,
    /// Table I "in-degree con." (%): share of incoming edges on the top-20%.
    pub paper_in_connectivity: f64,
    /// Table I "out-degree con." (%).
    pub paper_out_connectivity: f64,
    /// Table I "power law" row.
    pub power_law: bool,
}

impl Dataset {
    /// All twelve datasets in Table I order.
    pub const ALL: [Dataset; 12] = [
        Dataset::Sd,
        Dataset::Ap,
        Dataset::Rmat,
        Dataset::Orkut,
        Dataset::Wiki,
        Dataset::Lj,
        Dataset::Ic,
        Dataset::Uk,
        Dataset::Twitter,
        Dataset::RoadPa,
        Dataset::RoadCa,
        Dataset::Usa,
    ];

    /// The nine power-law datasets (Table I "power law = yes").
    pub const POWER_LAW: [Dataset; 9] = [
        Dataset::Sd,
        Dataset::Ap,
        Dataset::Rmat,
        Dataset::Orkut,
        Dataset::Wiki,
        Dataset::Lj,
        Dataset::Ic,
        Dataset::Uk,
        Dataset::Twitter,
    ];

    /// Table I reference metadata.
    pub fn meta(self) -> DatasetMeta {
        match self {
            Dataset::Sd => DatasetMeta {
                code: "sd",
                full_name: "soc-Slashdot0811",
                paper_vertices_m: 0.07,
                paper_edges_m: 0.9,
                directed: true,
                paper_in_connectivity: 62.8,
                paper_out_connectivity: 78.05,
                power_law: true,
            },
            Dataset::Ap => DatasetMeta {
                code: "ap",
                full_name: "ca-AstroPh",
                paper_vertices_m: 0.13,
                paper_edges_m: 0.39,
                directed: false,
                paper_in_connectivity: 100.0,
                paper_out_connectivity: 100.0,
                power_law: true,
            },
            Dataset::Rmat => DatasetMeta {
                code: "rMat",
                full_name: "rMat",
                paper_vertices_m: 2.0,
                paper_edges_m: 25.0,
                directed: true,
                paper_in_connectivity: 93.0,
                paper_out_connectivity: 93.8,
                power_law: true,
            },
            Dataset::Orkut => DatasetMeta {
                code: "orkut",
                full_name: "orkut-2007",
                paper_vertices_m: 3.0,
                paper_edges_m: 234.0,
                directed: true,
                paper_in_connectivity: 58.73,
                paper_out_connectivity: 58.73,
                power_law: true,
            },
            Dataset::Wiki => DatasetMeta {
                code: "wiki",
                full_name: "enwiki-2013",
                paper_vertices_m: 4.2,
                paper_edges_m: 101.0,
                directed: true,
                paper_in_connectivity: 84.69,
                paper_out_connectivity: 60.97,
                power_law: true,
            },
            Dataset::Lj => DatasetMeta {
                code: "lj",
                full_name: "ljournal-2008",
                paper_vertices_m: 5.3,
                paper_edges_m: 79.0,
                directed: true,
                paper_in_connectivity: 77.35,
                paper_out_connectivity: 75.56,
                power_law: true,
            },
            Dataset::Ic => DatasetMeta {
                code: "ic",
                full_name: "indochina-2004",
                paper_vertices_m: 7.4,
                paper_edges_m: 194.0,
                directed: true,
                paper_in_connectivity: 93.26,
                paper_out_connectivity: 73.37,
                power_law: true,
            },
            Dataset::Uk => DatasetMeta {
                code: "uk",
                full_name: "uk-2002",
                paper_vertices_m: 18.5,
                paper_edges_m: 298.0,
                directed: true,
                paper_in_connectivity: 84.45,
                paper_out_connectivity: 44.05,
                power_law: true,
            },
            Dataset::Twitter => DatasetMeta {
                code: "twitter",
                full_name: "twitter-2010",
                paper_vertices_m: 41.6,
                paper_edges_m: 1468.0,
                directed: true,
                paper_in_connectivity: 85.9,
                paper_out_connectivity: 74.9,
                power_law: true,
            },
            Dataset::RoadPa => DatasetMeta {
                code: "rPA",
                full_name: "roadNet-PA",
                paper_vertices_m: 1.0,
                paper_edges_m: 3.0,
                directed: false,
                paper_in_connectivity: 28.6,
                paper_out_connectivity: 28.6,
                power_law: false,
            },
            Dataset::RoadCa => DatasetMeta {
                code: "rCA",
                full_name: "roadNet-CA",
                paper_vertices_m: 1.9,
                paper_edges_m: 5.5,
                directed: false,
                paper_in_connectivity: 28.8,
                paper_out_connectivity: 28.8,
                power_law: false,
            },
            Dataset::Usa => DatasetMeta {
                code: "USA",
                full_name: "Western-USA",
                paper_vertices_m: 6.2,
                paper_edges_m: 15.0,
                directed: false,
                paper_in_connectivity: 29.35,
                paper_out_connectivity: 29.35,
                power_law: false,
            },
        }
    }

    /// Dataset code as used in the paper's figures.
    pub fn code(self) -> &'static str {
        self.meta().code
    }

    /// Looks a dataset up by its paper code (case-insensitive).
    pub fn from_code(code: &str) -> Option<Dataset> {
        Dataset::ALL
            .iter()
            .copied()
            .find(|d| d.code().eq_ignore_ascii_case(code))
    }

    /// Builds the synthetic equivalent at the given scale, **already
    /// reordered** into the paper's canonical monotone-popularity id order
    /// (§VI, n-th-element over the top 20%) — the state in which OMEGA
    /// consumes graphs.
    ///
    /// Deterministic: the same `(dataset, scale)` pair always yields the
    /// same graph.
    ///
    /// # Errors
    ///
    /// Propagates [`GraphError`] from the generators; parameters in the
    /// registry are valid, so errors indicate resource exhaustion only.
    pub fn build(self, scale: DatasetScale) -> Result<CsrGraph, GraphError> {
        let g = self.build_unordered(scale)?;
        let (g, _) = reorder::canonical_hot_order(&g);
        Ok(g)
    }

    /// Builds the dataset *without* the canonical reordering — used by the
    /// reordering ablation, which wants to apply orderings itself.
    ///
    /// # Errors
    ///
    /// Propagates [`GraphError`] from the generators.
    pub fn build_unordered(self, scale: DatasetScale) -> Result<CsrGraph, GraphError> {
        let shift = scale.shift();
        let boost = scale.boost();
        let seed = 0x0E0A_0000 + self as u64;
        // (rmat scale at Small, edge factor, params) per dataset; tuned so the
        // measured top-20% in-connectivity lands near Table I.
        let rmat_spec: Option<(u32, u32, RmatParams)> = match self {
            Dataset::Sd => Some((
                12,
                12,
                RmatParams {
                    a: 0.48,
                    b: 0.21,
                    c: 0.21,
                    d: 0.10,
                    noise: 0.1,
                },
            )),
            Dataset::Ap => Some((12, 3, RmatParams::default())),
            Dataset::Rmat => Some((14, 12, RmatParams::strong())),
            Dataset::Orkut => Some((13, 32, RmatParams::mild())),
            Dataset::Wiki => Some((
                14,
                16,
                RmatParams {
                    a: 0.57,
                    b: 0.13,
                    c: 0.25,
                    d: 0.05,
                    noise: 0.1,
                },
            )),
            Dataset::Lj => Some((15, 12, RmatParams::default())),
            Dataset::Ic => Some((14, 24, RmatParams::strong())),
            Dataset::Uk => Some((
                15,
                16,
                RmatParams {
                    a: 0.55,
                    b: 0.10,
                    c: 0.30,
                    d: 0.05,
                    noise: 0.1,
                },
            )),
            Dataset::Twitter => Some((15, 24, RmatParams::default())),
            Dataset::RoadPa | Dataset::RoadCa | Dataset::Usa => None,
        };
        match self {
            Dataset::Ap => {
                let (s, ef, p) = rmat_spec.expect("ap is an rmat dataset");
                generators::rmat_undirected(s - shift + boost, ef, p, seed)
            }
            Dataset::RoadPa => {
                let side = (128usize >> (shift / 2)) << boost.min(1);
                generators::grid_road(side, side, 0.08, 1000, seed)
            }
            Dataset::RoadCa => {
                let side = (160usize >> (shift / 2)) << boost.min(1);
                generators::grid_road(side, side, 0.10, 1000, seed)
            }
            Dataset::Usa => {
                let side = (224usize >> (shift / 2)) << boost.min(1);
                generators::grid_road(side, side, 0.06, 1000, seed)
            }
            _ => {
                let (s, ef, p) = rmat_spec.expect("directed rmat dataset");
                generators::rmat(s - shift + boost, ef, p, seed)
            }
        }
    }
}

impl std::fmt::Display for Dataset {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.code())
    }
}

impl std::str::FromStr for Dataset {
    type Err = GraphError;

    /// Parses a paper dataset code (case-insensitive). Unknown codes become
    /// a structured [`GraphError::UnknownName`] at the boundary.
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        Dataset::from_code(s).ok_or_else(|| GraphError::UnknownName {
            kind: "dataset",
            given: s.to_string(),
        })
    }
}

impl std::fmt::Display for DatasetScale {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.code())
    }
}

impl std::str::FromStr for DatasetScale {
    type Err = GraphError;

    /// Parses a scale code (case-insensitive).
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        DatasetScale::from_code(s).ok_or_else(|| GraphError::UnknownName {
            kind: "scale",
            given: s.to_string(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stats;

    #[test]
    fn all_datasets_build_at_tiny_scale() {
        for d in Dataset::ALL {
            let g = d.build(DatasetScale::Tiny).unwrap();
            assert!(g.num_vertices() > 0, "{d}");
            assert!(g.num_edges() > 0, "{d}");
            assert_eq!(g.is_directed(), d.meta().directed, "{d}");
        }
    }

    #[test]
    fn power_law_classification_matches_table_one() {
        for d in Dataset::ALL {
            let g = d.build(DatasetScale::Tiny).unwrap();
            let s = stats::degree_stats(&g);
            assert_eq!(
                s.follows_power_law(),
                d.meta().power_law,
                "{d}: measured in-connectivity {}",
                s.in_connectivity(0.2)
            );
        }
    }

    #[test]
    fn builds_are_deterministic() {
        let a = Dataset::Sd.build(DatasetScale::Tiny).unwrap();
        let b = Dataset::Sd.build(DatasetScale::Tiny).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn canonical_order_means_prefix_is_hot() {
        let g = Dataset::Lj.build(DatasetScale::Tiny).unwrap();
        let k = (g.num_vertices() * 200).div_ceil(1000);
        let hot: Vec<_> = (0..k as u32).collect();
        let cov = stats::arc_coverage_of(&g, &hot);
        let s = stats::degree_stats(&g);
        assert!(
            (cov - s.in_connectivity(0.2)).abs() < 1e-9,
            "prefix must be the hot set"
        );
    }

    #[test]
    fn medium_scale_is_larger_than_small() {
        let small = Dataset::Sd.build(DatasetScale::Small).unwrap();
        let medium = Dataset::Sd.build(DatasetScale::Medium).unwrap();
        assert_eq!(medium.num_vertices(), 4 * small.num_vertices());
    }

    #[test]
    fn from_code_roundtrips() {
        for d in Dataset::ALL {
            assert_eq!(Dataset::from_code(d.code()), Some(d));
        }
        assert_eq!(Dataset::from_code("TWITTER"), Some(Dataset::Twitter));
        assert_eq!(Dataset::from_code("nope"), None);
    }

    #[test]
    fn from_str_is_from_code_with_a_structured_error() {
        for d in Dataset::ALL {
            assert_eq!(d.code().parse::<Dataset>().unwrap(), d);
        }
        let err = "nope".parse::<Dataset>().unwrap_err();
        assert!(err.to_string().contains("nope"), "{err}");
        for s in DatasetScale::ALL {
            assert_eq!(s.code().parse::<DatasetScale>().unwrap(), s);
        }
        assert!("huge".parse::<DatasetScale>().is_err());
    }

    #[test]
    fn road_datasets_are_weighted_for_sssp() {
        for d in [Dataset::RoadPa, Dataset::RoadCa, Dataset::Usa] {
            assert!(d.build(DatasetScale::Tiny).unwrap().is_weighted(), "{d}");
        }
    }
}
