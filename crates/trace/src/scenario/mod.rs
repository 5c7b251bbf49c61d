//! Named, reproducible workload scenarios and the spec language that
//! defines them.
//!
//! A **scenario** is a named, validated [`WorkloadConfig`] with a
//! description — the unit the rest of the system asks for by name
//! (`simulate --scenario pops`) or loads from a spec file on disk. The
//! module follows a script-language split (DESIGN.md §15):
//!
//! * [`ast`] — the untyped parse tree (`scenario "name" { key = value,
//!   nested { … } }`), every node carrying its source line;
//! * [`parser`] — the grammar: a hand-rolled lexer + recursive-descent
//!   parser producing [`ast::Spec`] or a line-addressed [`ParseError`];
//! * [`rules`] — the vocabulary: resolves an AST into a
//!   [`WorkloadConfig`] (defaults from [`WorkloadConfig::default`], the
//!   spec names only what differs) and reports unknown keys, type
//!   mismatches and duplicates as field-addressed [`RuleError`]s before
//!   handing the result to [`WorkloadConfig::validate`];
//! * [`mod@registry`] — the bundled library: every `.scn` under
//!   `crates/trace/scenarios/` compiled in and parsed once, the paper's
//!   POPS/THOR/PERO presets re-expressed as specs that generate
//!   bit-identical traces to the old hand-written constructors.
//!
//! ```
//! use dirsim_trace::scenario::Scenario;
//!
//! // By name, from the bundled registry:
//! let pops = Scenario::named("pops").unwrap();
//! let refs: Vec<_> = pops.workload().take(10_000).collect();
//! assert_eq!(refs.len(), 10_000);
//!
//! // Or from spec text (a file's contents):
//! let custom = Scenario::parse(r#"
//!     scenario "mine" {
//!         cpus = 8
//!         processes = 8
//!         zipf_theta = 0.9
//!     }
//! "#).unwrap();
//! assert_eq!(custom.config().cpus, 8);
//! ```

pub mod ast;
pub mod parser;
pub mod registry;
pub mod rules;

use std::fmt;
use std::path::Path;

use crate::source::TakeSource;
use crate::synth::{ConfigError, Workload, WorkloadConfig};

pub use parser::{parse_spec, ParseError, ParseErrorKind};
pub use registry::registry;
pub use rules::{RuleError, RuleErrorKind};

/// Any way a scenario can fail to load.
#[derive(Debug, Clone, PartialEq)]
pub enum ScenarioError {
    /// The spec text failed to parse.
    Parse(ParseError),
    /// The spec parsed but used an unknown key, wrong type, or duplicate.
    Rule(RuleError),
    /// The resolved configuration failed validation.
    Config(ConfigError),
    /// No bundled scenario has this name.
    UnknownScenario {
        /// The requested name.
        name: String,
    },
    /// A spec file could not be read.
    Io {
        /// The path that failed.
        path: String,
        /// The OS error message.
        message: String,
    },
}

impl fmt::Display for ScenarioError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ScenarioError::Parse(e) => e.fmt(f),
            ScenarioError::Rule(e) => e.fmt(f),
            ScenarioError::Config(e) => e.fmt(f),
            ScenarioError::UnknownScenario { name } => {
                write!(
                    f,
                    "no bundled scenario named `{name}` (try --list-scenarios)"
                )
            }
            ScenarioError::Io { path, message } => {
                write!(f, "cannot read scenario file `{path}`: {message}")
            }
        }
    }
}

impl std::error::Error for ScenarioError {}

impl From<ParseError> for ScenarioError {
    fn from(e: ParseError) -> Self {
        ScenarioError::Parse(e)
    }
}

impl From<rules::ResolveError> for ScenarioError {
    fn from(e: rules::ResolveError) -> Self {
        match e {
            rules::ResolveError::Rule(e) => ScenarioError::Rule(e),
            rules::ResolveError::Config(e) => ScenarioError::Config(e),
        }
    }
}

/// A named, validated workload: the unit the public API deals in.
///
/// Obtain one from the bundled registry ([`Scenario::named`]), from spec
/// text ([`Scenario::parse`]), from a file ([`Scenario::from_file`]), or
/// let [`Scenario::resolve`] pick name-or-file from a CLI argument.
#[derive(Debug, Clone, PartialEq)]
pub struct Scenario {
    name: String,
    description: String,
    config: WorkloadConfig,
}

impl Scenario {
    /// Looks up a bundled scenario by name (case-insensitive, so the
    /// paper's upper-case `POPS` works too).
    ///
    /// # Errors
    ///
    /// Returns [`ScenarioError::UnknownScenario`] if no bundled scenario
    /// has the name.
    pub fn named(name: &str) -> Result<&'static Scenario, ScenarioError> {
        registry()
            .iter()
            .find(|s| s.name.eq_ignore_ascii_case(name))
            .ok_or_else(|| ScenarioError::UnknownScenario {
                name: name.to_string(),
            })
    }

    /// Parses and resolves one spec from text.
    ///
    /// # Errors
    ///
    /// Returns a [`ScenarioError`] carrying line/field context for parse,
    /// rule, and validation failures.
    pub fn parse(text: &str) -> Result<Scenario, ScenarioError> {
        let spec = parser::parse_spec(text)?;
        let resolved = rules::resolve(&spec)?;
        Ok(Scenario {
            name: spec.name,
            description: resolved.description,
            config: resolved.config,
        })
    }

    /// Loads a spec file from disk.
    ///
    /// # Errors
    ///
    /// Returns [`ScenarioError::Io`] if the file cannot be read, or any
    /// [`Scenario::parse`] error for its contents.
    pub fn from_file(path: impl AsRef<Path>) -> Result<Scenario, ScenarioError> {
        let path = path.as_ref();
        let text = std::fs::read_to_string(path).map_err(|e| ScenarioError::Io {
            path: path.display().to_string(),
            message: e.to_string(),
        })?;
        Scenario::parse(&text)
    }

    /// Resolves a CLI argument: a bundled name first, otherwise a spec
    /// file path (anything containing a path separator or `.` is treated
    /// as a path without consulting the registry).
    ///
    /// # Errors
    ///
    /// Returns the registry or file error, whichever path was taken.
    pub fn resolve(arg: &str) -> Result<Scenario, ScenarioError> {
        let looks_like_path = arg.contains(['/', '\\', '.']);
        if !looks_like_path {
            return Scenario::named(arg).cloned();
        }
        Scenario::from_file(arg)
    }

    /// The scenario's name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// One-line human description (may be empty for file-loaded specs).
    pub fn description(&self) -> &str {
        &self.description
    }

    /// The validated workload configuration.
    pub fn config(&self) -> &WorkloadConfig {
        &self.config
    }

    /// Builds the infinite reference generator for this scenario.
    pub fn workload(&self) -> Workload {
        Workload::new(self.config.clone())
    }

    /// Builds a bounded [`TraceSource`](crate::TraceSource) of `len`
    /// references, ready to feed a simulation engine: the generator capped
    /// at `len`, each chunk one [`Workload::fill`].
    pub fn source(&self, len: u64) -> TakeSource<Workload> {
        TakeSource::new(self.workload(), len)
    }

    /// Renders the scenario back into spec text that parses to an equal
    /// scenario (`parse(to_spec(s)) == s`, pinned by proptest).
    pub fn to_spec(&self) -> String {
        rules::render(&self.name, &self.description, &self.config)
    }
}

impl fmt::Display for Scenario {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.name)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn named_lookup_is_case_insensitive() {
        assert_eq!(Scenario::named("POPS").unwrap().name(), "pops");
        assert_eq!(Scenario::named("Thor").unwrap().name(), "thor");
    }

    #[test]
    fn unknown_name_lists_the_failure() {
        let err = Scenario::named("nope").unwrap_err();
        assert!(matches!(err, ScenarioError::UnknownScenario { .. }));
        assert!(err.to_string().contains("nope"));
    }

    #[test]
    fn parse_rejects_bad_specs_with_context() {
        let err = Scenario::parse("scenario \"x\" {\n  cpuz = 4\n}").unwrap_err();
        match err {
            ScenarioError::Rule(e) => {
                assert_eq!(e.line, 2);
                assert_eq!(e.field, "cpuz");
            }
            other => panic!("unexpected: {other:?}"),
        }
    }

    #[test]
    fn missing_file_reports_io_error() {
        let err = Scenario::from_file("/nonexistent/x.scn").unwrap_err();
        assert!(matches!(err, ScenarioError::Io { .. }));
    }

    #[test]
    fn resolve_prefers_names_and_falls_back_to_paths() {
        assert_eq!(Scenario::resolve("pero").unwrap().name(), "pero");
        let err = Scenario::resolve("missing-dir/spec.scn").unwrap_err();
        assert!(matches!(err, ScenarioError::Io { .. }));
    }

    #[test]
    fn to_spec_round_trips_every_bundled_scenario() {
        for s in registry() {
            let back = Scenario::parse(&s.to_spec()).unwrap();
            assert_eq!(&back, s, "{}", s.name());
        }
    }

    #[test]
    fn source_is_bounded() {
        use crate::TraceSource;
        let mut src = Scenario::named("zipf-hot").unwrap().source(5_000);
        let mut buf = Vec::new();
        let mut total = 0;
        while src.read_chunk(&mut buf, 1024).unwrap() > 0 {
            total += buf.len();
        }
        assert_eq!(total, 5_000);
    }
}
