//! # omega-core
//!
//! The OMEGA architecture (Addisie, Kassa, Matthews, Bertacco — IISWC
//! 2018): a heterogeneous cache/scratchpad memory subsystem for natural
//! graph analytics, with Processing-In-SCratchpad (PISC) engines for
//! offloaded atomic vertex updates.
//!
//! This crate assembles the paper's contribution on top of the substrates:
//!
//! * [`config`] — machine assembly: the CMP substrate plus one
//!   [`MemoryModel`] — the baseline, OMEGA (half the L2 re-purposed as
//!   scratchpads, Table III), or one of its rivals.
//! * [`layout`] — the simulated virtual address space for Ligra's data
//!   structures; the basis of the controller's address-monitoring
//!   registers.
//! * [`controller`] — the scratchpad controller of Fig. 7: monitor unit
//!   (vtxProp range filtering), partition unit (local vs. remote
//!   scratchpad), index unit (slot addressing).
//! * [`microcode`] — the PISC microcode ISA and the compiler that stands in
//!   for the paper's source-to-source translation tool (Fig. 13).
//! * [`pisc`] — the PISC engine of Fig. 9: ALU + sequencer timing model.
//! * [`svbuffer`] — the source-vertex buffer of Fig. 11.
//! * [`pinned`] — pinned hierarchies: hot vtxProp lines locked in the
//!   regular L2, in the scratchpad controller's order (the §IX locked
//!   cache) or vertex-major (the GRASP-style specialized cache).
//! * [`pim`] — `DramPim`, the DRAM-side atomic-offload engines, and
//!   `PimRankMemory`, the ALPHA-PIM/PIUMA-style rival built on them:
//!   atomic vertex updates execute at the DRAM rank instead of on-chip.
//! * [`machine`] — `OmegaMemory`, the full OMEGA memory system implementing
//!   `omega_sim::MemorySystem`, routing vtxProp accesses to scratchpads at
//!   word granularity and offloading atomics to PISCs (and, with the §IX.2
//!   extension, cold-vertex atomics to one `DramPim` engine per channel).
//! * [`lower`] — lowering of `omega-ligra` trace events onto concrete
//!   addresses and simulator operations.
//! * [`runner`] — one-call experiment execution: run an algorithm, collect
//!   a trace, replay it on a machine, return a [`runner::RunReport`].
//! * [`analytic`] — the high-level performance model used for the paper's
//!   very large datasets (Fig. 20).
//! * [`error`] — [`OmegaError`], the workspace-wide error currency with
//!   stable machine-readable codes for wire-level error responses.
//!
//! # Example
//!
//! ```
//! use omega_core::config::SystemConfig;
//! use omega_core::runner::Runner;
//! use omega_graph::datasets::{Dataset, DatasetScale};
//! use omega_ligra::algorithms::Algo;
//!
//! let g = Dataset::Sd.build(DatasetScale::Tiny)?;
//! let algo = Algo::PageRank { iters: 1 };
//! let base = Runner::new(SystemConfig::mini_baseline()).run(&g, algo);
//! let omega = Runner::new(SystemConfig::mini_omega()).run(&g, algo);
//! // Same computation on both machines...
//! assert_eq!(base.checksum, omega.checksum);
//! // ...and OMEGA does not run slower on a natural graph.
//! assert!(omega.total_cycles <= base.total_cycles);
//! # Ok::<(), omega_graph::GraphError>(())
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod analytic;
pub mod config;
pub mod controller;
pub mod error;
pub mod layout;
pub mod lower;
pub mod machine;
pub mod microcode;
pub mod pim;
pub mod pinned;
pub mod pisc;
pub mod runner;
pub mod svbuffer;

pub use config::{MemoryModel, OmegaConfig, PimRankConfig, PinOrder, SystemConfig};
pub use error::OmegaError;
pub use machine::OmegaMemory;
pub use pim::PimRankMemory;
pub use runner::{replay, RunReport, Runner};
