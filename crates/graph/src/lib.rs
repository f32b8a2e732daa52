//! # omega-graph
//!
//! Graph substrate for the OMEGA reproduction (Addisie et al., IISWC 2018).
//!
//! This crate provides everything the paper's evaluation needs from the graph
//! side:
//!
//! * [`CsrGraph`] — a compressed-sparse-row graph with both outgoing and
//!   incoming adjacency, optional edge weights, and cheap degree queries.
//! * [`GraphBuilder`] — edge-list ingestion with deduplication and
//!   symmetrisation.
//! * [`generators`] — synthetic workload generators: R-MAT power-law graphs
//!   (stand-ins for the paper's SNAP/WebGraph datasets) and grid-based road
//!   networks (stand-ins for roadNet-PA/CA and Western-USA).
//! * [`stats`] — degree skew analysis: the "top-20% connectivity" metric of
//!   Table I and the power-law classification it implies.
//! * [`reorder`] — the offline reordering algorithms of §VI (in-degree sort,
//!   out-degree sort, top-k sort, linear nth-element selection, and a
//!   SlashBurn-like hub ordering).
//! * [`slicing`] — the graph slicing schemes of §VII for graphs whose hot
//!   vertex set exceeds on-chip storage.
//! * [`datasets`] — a registry of scaled-down synthetic equivalents of the
//!   twelve datasets in Table I.
//!
//! # Example
//!
//! ```
//! use omega_graph::{generators, stats};
//!
//! // A small power-law graph, like the paper's `sd` (soc-Slashdot0811).
//! let g = generators::rmat(12, 16, generators::RmatParams::default(), 7)?;
//! let skew = stats::degree_stats(&g);
//! // Natural graphs route most edges through few vertices.
//! assert!(skew.in_connectivity(0.20) > 0.5);
//! # Ok::<(), omega_graph::GraphError>(())
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod builder;
mod csr;
mod error;

pub mod datasets;
pub mod generators;
pub mod reorder;
pub mod rng;
pub mod slicing;
pub mod stats;

pub use builder::GraphBuilder;
pub use csr::{CsrGraph, NeighborIter, WeightedNeighborIter};
pub use error::GraphError;

/// Identifier of a vertex. Vertices are dense integers `0..n`.
pub type VertexId = u32;

/// Edge weight type used by weighted algorithms (SSSP).
pub type Weight = u32;
