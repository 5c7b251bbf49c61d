//! # dirsim-sweep
//!
//! Resumable orchestrator for the paper's evaluation grid.
//!
//! The paper's results are a *grid*: every scheme (§3) crossed with every
//! workload (§4) at a handful of cache geometries, each point summarised as
//! bus cycles per memory reference (Tables 5–7). Reproducing that grid from
//! one-off `simulate` invocations is error-prone — a killed run loses
//! everything, and the tables in EXPERIMENTS.md drift from the commands that
//! produced them. This crate makes the grid itself the unit of work:
//!
//! * [`spec`] — a declarative `.sweep` file names the axes (schemes,
//!   scenarios, geometries, CPU counts, reference budgets); the cross
//!   product is the cell list.
//! * [`cell`] — each cell has a stable FNV-1a identity hash over its full
//!   configuration, so "already done" is a property of the store, not of
//!   the process that ran it.
//! * [`store`] — an append-only JSON-lines store, flushed per record and
//!   repaired on open (a killed writer's torn final line is truncated away).
//!   Re-running a spec skips every cell whose hash is already stored.
//! * [`run`] — a worker pool drains the pending cells one input group at
//!   a time (every pending scheme over one trace, in one engine pass) and
//!   streams each cell's result to the store, with live progress (cells
//!   done/total, aggregate refs/sec, ETA).
//! * [`report`] — regenerates the paper tables (bus cycles per reference,
//!   scheme × workload) from the store alone; the store is the source of
//!   truth for EXPERIMENTS.md.
//!
//! The `dirsim-sweep` binary ties these together; see `specs/` for the
//! committed grid definitions.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod cell;
pub mod report;
pub mod run;
pub mod spec;
pub mod store;

pub use cell::{Cell, CellRecord};
pub use report::render_report;
pub use run::{run_sweep, SweepOptions, SweepSummary};
pub use spec::{CostModelKind, SpecError, SweepSource, SweepSpec};
pub use store::{Store, StoreError};

use std::error::Error as StdError;
use std::fmt;
use std::io;

/// Any failure raised while expanding, running, or reporting a sweep.
#[derive(Debug)]
pub enum SweepError {
    /// The `.sweep` spec failed to parse or expand.
    Spec(SpecError),
    /// The result store is unreadable or corrupt.
    Store(StoreError),
    /// A cell's simulation failed.
    Sim(dirsim::Error),
    /// A report could not be rendered from the store.
    Report(report::ReportError),
    /// Reading the spec file (or another sweep file) failed.
    Io(io::Error),
}

impl fmt::Display for SweepError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SweepError::Spec(e) => write!(f, "sweep spec error: {e}"),
            SweepError::Store(e) => write!(f, "sweep store error: {e}"),
            SweepError::Sim(e) => write!(f, "sweep cell failed: {e}"),
            SweepError::Report(e) => write!(f, "sweep report error: {e}"),
            SweepError::Io(e) => write!(f, "sweep i/o error: {e}"),
        }
    }
}

impl StdError for SweepError {
    // Each wrapped error is displayed above, so only its own source is
    // chained: a printed cause chain names every cause once.
    fn source(&self) -> Option<&(dyn StdError + 'static)> {
        match self {
            SweepError::Spec(e) => e.source(),
            SweepError::Store(e) => e.source(),
            SweepError::Sim(e) => e.source(),
            SweepError::Report(e) => e.source(),
            SweepError::Io(e) => e.source(),
        }
    }
}

impl From<SpecError> for SweepError {
    fn from(e: SpecError) -> Self {
        SweepError::Spec(e)
    }
}

impl From<StoreError> for SweepError {
    fn from(e: StoreError) -> Self {
        SweepError::Store(e)
    }
}

impl From<dirsim::Error> for SweepError {
    fn from(e: dirsim::Error) -> Self {
        SweepError::Sim(e)
    }
}

impl From<report::ReportError> for SweepError {
    fn from(e: report::ReportError) -> Self {
        SweepError::Report(e)
    }
}

impl From<io::Error> for SweepError {
    fn from(e: io::Error) -> Self {
        SweepError::Io(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn no_error_displays_its_source() {
        let spec = || SweepSpec::parse("schemes = Dir0B\nbogus = 1\n").unwrap_err();
        let disk = || io::Error::other("disk gone");
        let errors = [
            SweepError::Spec(spec()),
            SweepError::Store(StoreError::Io {
                path: "store.jsonl".into(),
                source: disk(),
            }),
            SweepError::Sim(dirsim::SimConfigError::NoSchemes.into()),
            SweepError::Report(report::ReportError::Spec(spec())),
            SweepError::Io(disk()),
        ];
        for e in &errors {
            let mut layer: &dyn StdError = e;
            while let Some(source) = layer.source() {
                let (outer, inner) = (layer.to_string(), source.to_string());
                assert!(!outer.contains(&inner), "`{outer}` repeats `{inner}`");
                layer = source;
            }
        }
    }
}
