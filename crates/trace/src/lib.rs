//! # dirsim-trace
//!
//! Multiprocessor address traces for cache-coherence simulation: the
//! reference model, file formats, statistics, filters, and synthetic
//! workload generators.
//!
//! This crate is the stand-in for the ATUM trace infrastructure used by
//! Agarwal, Simoni, Hennessy & Horowitz, *"An Evaluation of Directory
//! Schemes for Cache Coherence"* (ISCA 1988). A trace is an interleaved
//! stream of [`MemRef`]s; statistics ([`TraceStats`]) correspond to the
//! paper's Table 3; the synthetic generators ([`synth`]) reproduce the
//! first-order characteristics of the paper's POPS / THOR / PERO traces.
//!
//! ## Quick start
//!
//! ```
//! use dirsim_trace::synth::PaperTrace;
//! use dirsim_trace::TraceStats;
//!
//! // A deterministic stand-in for the paper's POPS trace:
//! let refs: Vec<_> = PaperTrace::Pops.workload().take(10_000).collect();
//! let stats = TraceStats::from_refs(refs);
//! assert_eq!(stats.cpu_count(), 4);
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod codec;
pub mod compress;
pub mod corpus;
pub mod filter;
pub mod frontend;
pub mod io;
pub mod mmap;
pub mod scenario;
pub mod source;
pub mod stats;
pub mod synth;
pub mod types;

pub use frontend::{open_trace, TraceFormat};
pub use io::TraceIoError;
pub use mmap::MmapTraceSource;
pub use scenario::{Scenario, ScenarioError};
pub use source::{BorrowedChunkSource, IterSource, SliceSource, TakeSource, TraceSource};
pub use stats::TraceStats;
pub use types::{AccessKind, Addr, CpuId, MemRef, ProcessId, RefFlags};
