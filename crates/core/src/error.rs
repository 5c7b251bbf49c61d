//! The crate-wide error type.
//!
//! Every failure a simulation can produce — a coherence-oracle violation,
//! a protocol-invariant violation, a trace decode error, an invalid
//! configuration — unifies under one [`Error`] enum with
//! [`std::error::Error::source`] chaining, so binaries can print a cause
//! chain instead of stringifying each layer ad hoc. A wrapper that
//! displays the error it wraps returns that error's own source, so every
//! cause in a printed chain appears once.

use std::fmt;

use dirsim_trace::TraceIoError;

use crate::engine::{SimConfigError, SimError};
use crate::invariant::InvariantViolation;

/// A protocol-invariant violation attributed to a scheme and reference.
///
/// This is the typed counterpart of the panic [`crate::Simulator::run`]
/// raises: the broadcast engine reports invariant violations as values so
/// multi-scheme runs fail cleanly instead of aborting.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct InvariantError {
    /// Protocol whose invariant fired.
    pub scheme: String,
    /// Zero-based index of the reference that exposed the violation
    /// (stream-local: under sharded execution, relative to the shard).
    pub ref_index: u64,
    /// The violation.
    pub violation: InvariantViolation,
}

impl fmt::Display for InvariantError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "protocol invariant violated in {} at reference {}: {}",
            self.scheme, self.ref_index, self.violation
        )
    }
}

impl std::error::Error for InvariantError {
    // The violation is displayed above, so only its own source is chained.
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        self.violation.source()
    }
}

/// Any failure a `dirsim` simulation can produce.
#[derive(Debug)]
pub enum Error {
    /// The coherence oracle caught a protocol misbehaving.
    Sim(SimError),
    /// The per-reference invariant audit caught a protocol misbehaving.
    Invariant(InvariantError),
    /// The reference stream failed to decode.
    TraceIo(TraceIoError),
    /// The simulation configuration is invalid.
    Config(SimConfigError),
    /// The synthetic-workload configuration is invalid.
    Workload(dirsim_trace::synth::ConfigError),
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Error::Sim(e) => e.fmt(f),
            Error::Invariant(e) => e.fmt(f),
            Error::TraceIo(e) => e.fmt(f),
            Error::Config(e) => e.fmt(f),
            Error::Workload(e) => e.fmt(f),
        }
    }
}

impl std::error::Error for Error {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            Error::Sim(e) => e.source(),
            Error::Invariant(e) => e.source(),
            Error::TraceIo(e) => e.source(),
            Error::Config(e) => e.source(),
            Error::Workload(e) => e.source(),
        }
    }
}

impl From<SimError> for Error {
    fn from(e: SimError) -> Self {
        Error::Sim(e)
    }
}

impl From<InvariantError> for Error {
    fn from(e: InvariantError) -> Self {
        Error::Invariant(e)
    }
}

impl From<TraceIoError> for Error {
    fn from(e: TraceIoError) -> Self {
        Error::TraceIo(e)
    }
}

impl From<SimConfigError> for Error {
    fn from(e: SimConfigError) -> Self {
        Error::Config(e)
    }
}

impl From<dirsim_trace::synth::ConfigError> for Error {
    fn from(e: dirsim_trace::synth::ConfigError) -> Self {
        Error::Workload(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dirsim_mem::{BlockAddr, CacheId, OracleViolation};
    use std::error::Error as _;

    /// Asserts that no layer of `e`'s cause chain displays its source's
    /// message, so a printed chain names every cause once.
    fn assert_causes_print_once(e: &dyn std::error::Error) {
        let mut layer = e;
        while let Some(source) = layer.source() {
            let (outer, inner) = (layer.to_string(), source.to_string());
            assert!(!outer.contains(&inner), "`{outer}` repeats `{inner}`");
            layer = source;
        }
    }

    fn oracle_error() -> Error {
        Error::Sim(SimError {
            scheme: "Dir0B".into(),
            ref_index: 7,
            violation: OracleViolation::WriterHasNoCopy {
                cache: CacheId::new(1),
                block: BlockAddr::new(2),
            },
        })
    }

    #[test]
    fn source_chain_reaches_the_violation() {
        // The printed chain names the scheme, the reference and the
        // violation, each once: the message carries them all, and the
        // violation has no cause of its own.
        let e = oracle_error();
        let msg = e.to_string();
        assert!(
            msg.contains("Dir0B") && msg.contains("reference 7"),
            "{msg}"
        );
        assert_eq!(msg.matches("without holding a copy").count(), 1, "{msg}");
        assert!(e.source().is_none());
    }

    #[test]
    fn no_error_displays_its_source() {
        // One error per variant, each wrapping a further layer.
        let io = std::io::Error::new(std::io::ErrorKind::InvalidData, "bad byte");
        let errors: Vec<Error> = vec![
            oracle_error(),
            InvariantError {
                scheme: "Dragon".into(),
                ref_index: 3,
                violation: InvariantViolation::StateDropped {
                    block: BlockAddr::new(1),
                },
            }
            .into(),
            TraceIoError::Io(io).into(),
            SimConfigError::Geometry(dirsim_mem::InvalidGeometry(dirsim_mem::CacheGeometry {
                sets: 3,
                ways: 0,
            }))
            .into(),
            dirsim_trace::synth::WorkloadConfig::builder()
                .cpus(0)
                .build()
                .unwrap_err()
                .into(),
        ];
        for e in &errors {
            assert_causes_print_once(e);
        }
    }

    #[test]
    fn invariant_error_displays_scheme_and_index() {
        let e = InvariantError {
            scheme: "Dragon".into(),
            ref_index: 3,
            violation: InvariantViolation::StateDropped {
                block: BlockAddr::new(1),
            },
        };
        let msg = e.to_string();
        assert!(msg.contains("Dragon"));
        assert!(msg.contains("reference 3"));
        // The violation is part of the message, not a separate cause.
        assert!(msg.contains(&e.violation.to_string()));
        assert!(e.source().is_none());
    }

    #[test]
    fn from_impls_wrap_every_layer() {
        let trace: Error = TraceIoError::TruncatedRecord.into();
        assert!(matches!(trace, Error::TraceIo(_)));
        let config: Error =
            SimConfigError::Geometry(dirsim_mem::InvalidGeometry(dirsim_mem::CacheGeometry {
                sets: 3,
                ways: 0,
            }))
            .into();
        assert!(matches!(config, Error::Config(_)));
        let workload: Error = dirsim_trace::synth::WorkloadConfig::builder()
            .cpus(0)
            .build()
            .unwrap_err()
            .into();
        assert!(matches!(workload, Error::Workload(_)));
    }
}
