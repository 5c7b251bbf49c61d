//! # dirsim
//!
//! A trace-driven evaluation framework for **directory cache-coherence
//! schemes**, reproducing Agarwal, Simoni, Hennessy & Horowitz, *"An
//! Evaluation of Directory Schemes for Cache Coherence"* (ISCA 1988).
//!
//! The paper classifies directory schemes as `Dir_i X` — `i` cache pointers
//! per directory entry, `X ∈ {B, NB}` for broadcast / no-broadcast — and
//! compares them against snoopy protocols (WTI, Dragon) by simulating
//! infinite caches over interleaved multiprocessor address traces and
//! pricing the resulting bus operations under pipelined and non-pipelined
//! bus models. This crate ties together the substrates:
//!
//! * [`dirsim_trace`] — trace model, file formats, synthetic POPS / THOR /
//!   PERO workload stand-ins;
//! * [`dirsim_mem`] — blocks, infinite/finite caches, sharing attribution,
//!   and a coherence-correctness oracle;
//! * [`dirsim_protocol`] — the `Dir_i{B,NB}` family, coarse-vector
//!   directories, and the snoopy baselines;
//! * [`dirsim_cost`] — the Table 1/2 bus cost models;
//!
//! and adds the [`engine`] (event counting + oracle replay, and
//! [`Simulator::run`], the paper's one-pass-per-scheme method), the
//! single-pass multi-protocol [`broadcast`] engine (one staged
//! `decode → route → step → merge` pipeline; the trace source decides
//! whether decode runs inline or on a producer thread), the
//! [`experiment`] matrix harness, whose one execution setting is its
//! worker count, the paper's experiment presets ([`paper`]), and text
//! renderers for every table and figure ([`report`]).
//!
//! ## Quick start
//!
//! ```
//! use dirsim::prelude::*;
//!
//! # fn main() -> Result<(), dirsim::Error> {
//! // Simulate the paper's four schemes over a small POPS-like workload
//! // (one trace pass, all schemes in lockstep):
//! let results = dirsim::paper::headline_experiment(20_000).run()?;
//! let dir0b = &results[Scheme::dir0_b()];
//! let dragon = &results[Scheme::Dragon];
//! let model = CostModel::pipelined();
//! // The paper's headline: Dir0B approaches Dragon's performance.
//! assert!(dir0b.combined.cycles_per_ref(model) < 3.0 * dragon.combined.cycles_per_ref(model));
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod analysis;
pub mod broadcast;
pub mod engine;
pub mod error;
pub mod experiment;
pub mod histogram;
pub mod invariant;
pub mod kernel;
pub mod paper;
mod pipeline;
pub mod reference;
pub mod report;
pub mod timing;

pub use broadcast::BroadcastSimulator;
pub use dirsim_obs as obs;
pub use engine::{
    audit_step, ShardKey, SimConfig, SimConfigError, SimError, SimResult, Simulator, StepFailure,
};
pub use error::{Error, InvariantError};
pub use experiment::{Experiment, ExperimentResults, Input, NamedWorkload, SchemeResult};
pub use histogram::FanoutHistogram;
pub use invariant::InvariantViolation;
pub use kernel::KernelPolicy;
pub use timing::{TimingConfig, TimingResult, TimingSimulator};

/// Convenient re-exports for examples and downstream users.
pub mod prelude {
    pub use crate::broadcast::BroadcastSimulator;
    pub use crate::engine::{SimConfig, SimResult, Simulator};
    pub use crate::error::Error;
    pub use crate::experiment::{Experiment, ExperimentResults, Input, NamedWorkload};
    pub use crate::histogram::FanoutHistogram;
    pub use crate::kernel::KernelPolicy;
    pub use dirsim_cost::{BusKind, CostBreakdown, CostCategory, CostModel};
    pub use dirsim_mem::{BlockAddr, BlockMap, CacheId, SharingModel};
    pub use dirsim_protocol::{BusOp, CoherenceProtocol, DirSpec, EventCounts, EventKind, Scheme};
    pub use dirsim_trace::synth::{PaperTrace, Workload, WorkloadConfig};
    pub use dirsim_trace::{
        AccessKind, Addr, CpuId, IterSource, MemRef, ProcessId, Scenario, ScenarioError,
        SliceSource, TraceSource, TraceStats,
    };
}
