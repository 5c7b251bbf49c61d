//! The `.sweep` grid spec: axes in, cells out.
//!
//! A sweep spec is a flat `key = value, value, ...` file naming each axis
//! of the evaluation grid. The grid is the full cross product, in spec
//! order — the same order the paper's tables use:
//!
//! ```text
//! # Table 5 lineup over the three paper traces.
//! schemes     = Dir0B, Dir1NB, DirnNB, WTI, Dragon
//! scenarios   = pops, thor, pero
//! geometries  = infinite, 64x4
//! cpus        = default, 8
//! refs        = 100_000
//! cost-models = pipelined, non-pipelined
//! ```
//!
//! `schemes` and `scenarios` are required; the other axes default to the
//! paper's baseline (`geometries = infinite`, `cpus = default`,
//! `refs = 100_000`, `cost-models = pipelined`). Scenario entries are
//! resolved the same way `simulate --scenario` resolves them: a bundled
//! name (`pops`), a path to a `.scn` file, **or a path to a trace or
//! corpus file** in any format `open_trace` sniffs (`DTR1`, `DTR2`,
//! `DTR3` corpus, text, CSV) — an existing file some
//! [`TraceFormat`](dirsim_trace::TraceFormat) claims becomes a
//! [`SweepSource::Trace`] axis entry, streamed at run time instead of
//! regenerated from a seed. `cost-models` selects
//! which cost columns the report renders; it is *not* part of a cell's
//! identity, because every stored record carries both pricings (§4 of
//! the paper separates event frequencies from event costs, and so does
//! the store).

use std::fmt;
use std::str::FromStr;

use dirsim_mem::CacheGeometry;
use dirsim_protocol::Scheme;
use dirsim_trace::frontend::is_trace_file;
use dirsim_trace::synth::WorkloadConfig;
use dirsim_trace::Scenario;

use crate::cell::Cell;

/// Default references simulated per cell when the spec omits `refs`.
pub const DEFAULT_REFS: usize = 100_000;

/// Which [`dirsim_cost::CostModel`] a report column prices events with.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CostModelKind {
    /// The paper's pipelined bus (Table 5).
    Pipelined,
    /// The paper's non-pipelined bus (Table 6).
    NonPipelined,
}

impl CostModelKind {
    /// Spec-file / report label.
    pub fn label(self) -> &'static str {
        match self {
            CostModelKind::Pipelined => "pipelined",
            CostModelKind::NonPipelined => "non-pipelined",
        }
    }

    /// The concrete cost model.
    pub fn model(self) -> dirsim_cost::CostModel {
        match self {
            CostModelKind::Pipelined => dirsim_cost::CostModel::pipelined(),
            CostModelKind::NonPipelined => dirsim_cost::CostModel::non_pipelined(),
        }
    }
}

/// A parse or expansion failure, with the 1-based spec line when one
/// applies.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpecError {
    /// 1-based line number in the spec text; `None` for whole-spec errors.
    pub line: Option<usize>,
    /// What went wrong.
    pub message: String,
}

impl SpecError {
    fn at(line: usize, message: impl Into<String>) -> Self {
        SpecError {
            line: Some(line),
            message: message.into(),
        }
    }

    fn whole(message: impl Into<String>) -> Self {
        SpecError {
            line: None,
            message: message.into(),
        }
    }
}

impl fmt::Display for SpecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.line {
            Some(line) => write!(f, "line {line}: {}", self.message),
            None => write!(f, "{}", self.message),
        }
    }
}

impl std::error::Error for SpecError {}

/// One entry of the `scenarios` axis: a synthetic scenario, or an
/// existing trace/corpus file in any format `open_trace` sniffs. The sniffing rule is the one `simulate --scenario`
/// applies — magic bytes first, extension second — so `.scn` spec files
/// and bundled scenario names fall through to [`Scenario::resolve`].
#[derive(Debug, Clone)]
pub enum SweepSource {
    /// Synthetic workload, regenerated from its seed per cell.
    Scenario(Box<Scenario>),
    /// External trace/corpus file, streamed per cell.
    Trace {
        /// Path as written in the spec.
        path: String,
        /// Byte length at parse time; enters every cell's identity hash.
        len: u64,
    },
}

impl SweepSource {
    /// Axis label: the scenario name, or the trace path as written.
    pub fn name(&self) -> &str {
        match self {
            SweepSource::Scenario(s) => s.name(),
            SweepSource::Trace { path, .. } => path,
        }
    }
}

/// A parsed sweep grid: one `Vec` per axis, in spec order.
#[derive(Debug, Clone)]
pub struct SweepSpec {
    /// Coherence schemes (paper notation, e.g. `Dir1NB`).
    pub schemes: Vec<Scheme>,
    /// Resolved workload sources (scenarios and/or trace files).
    pub scenarios: Vec<SweepSource>,
    /// Cache geometries; `None` is the paper's infinite cache.
    pub geometries: Vec<Option<CacheGeometry>>,
    /// CPU-count overrides; `None` keeps each scenario's own count.
    pub cpus: Vec<Option<u16>>,
    /// References simulated per cell.
    pub refs: Vec<usize>,
    /// Cost models the report prices cells with (not part of cell identity).
    pub cost_models: Vec<CostModelKind>,
}

impl SweepSpec {
    /// Parses a `.sweep` spec.
    ///
    /// # Errors
    ///
    /// Returns a [`SpecError`] naming the offending line for unknown or
    /// duplicate keys, malformed values, unresolvable scenarios, duplicate
    /// axis entries (which would double-count cells), or a missing
    /// required axis.
    pub fn parse(text: &str) -> Result<SweepSpec, SpecError> {
        let mut schemes: Option<Vec<Scheme>> = None;
        let mut scenarios: Option<Vec<SweepSource>> = None;
        let mut geometries: Option<Vec<Option<CacheGeometry>>> = None;
        let mut cpus: Option<Vec<Option<u16>>> = None;
        let mut refs: Option<Vec<usize>> = None;
        let mut cost_models: Option<Vec<CostModelKind>> = None;

        for (idx, raw) in text.lines().enumerate() {
            let line_no = idx + 1;
            let line = match raw.find('#') {
                Some(pos) => &raw[..pos],
                None => raw,
            };
            let line = line.trim();
            if line.is_empty() {
                continue;
            }
            let (key, value) = line.split_once('=').ok_or_else(|| {
                SpecError::at(line_no, format!("expected `key = values`, got `{line}`"))
            })?;
            let key = key.trim();
            let values: Vec<&str> = value
                .split(',')
                .map(str::trim)
                .filter(|v| !v.is_empty())
                .collect();
            if values.is_empty() {
                return Err(SpecError::at(line_no, format!("`{key}` lists no values")));
            }
            match key {
                "schemes" => {
                    set_axis(&mut schemes, key, line_no, parse_schemes(&values, line_no)?)?;
                }
                "scenarios" => {
                    set_axis(
                        &mut scenarios,
                        key,
                        line_no,
                        parse_scenarios(&values, line_no)?,
                    )?;
                }
                "geometries" => {
                    set_axis(
                        &mut geometries,
                        key,
                        line_no,
                        parse_geometries(&values, line_no)?,
                    )?;
                }
                "cpus" => {
                    set_axis(&mut cpus, key, line_no, parse_cpus(&values, line_no)?)?;
                }
                "refs" => {
                    set_axis(&mut refs, key, line_no, parse_refs(&values, line_no)?)?;
                }
                "cost-models" => {
                    set_axis(
                        &mut cost_models,
                        key,
                        line_no,
                        parse_cost_models(&values, line_no)?,
                    )?;
                }
                other => {
                    return Err(SpecError::at(line_no, format!("unknown key `{other}`")));
                }
            }
        }

        let spec = SweepSpec {
            schemes: schemes.ok_or_else(|| SpecError::whole("spec names no `schemes`"))?,
            scenarios: scenarios.ok_or_else(|| SpecError::whole("spec names no `scenarios`"))?,
            geometries: geometries.unwrap_or_else(|| vec![None]),
            cpus: cpus.unwrap_or_else(|| vec![None]),
            refs: refs.unwrap_or_else(|| vec![DEFAULT_REFS]),
            cost_models: cost_models.unwrap_or_else(|| vec![CostModelKind::Pipelined]),
        };
        Ok(spec)
    }

    /// Number of grid cells (`cost-models` is a report axis, not a cell
    /// axis).
    pub fn cell_count(&self) -> usize {
        self.schemes.len()
            * self.scenarios.len()
            * self.geometries.len()
            * self.cpus.len()
            * self.refs.len()
    }

    /// Expands the cross product into concrete cells, in axis order
    /// (refs, then cpus, then geometry, then scenario, then scheme varying
    /// fastest — so the report's scheme × scenario tables fill row-major).
    ///
    /// # Errors
    ///
    /// Returns a [`SpecError`] if a CPU override produces an invalid
    /// workload for some scenario.
    pub fn expand(&self) -> Result<Vec<Cell>, SpecError> {
        let mut cells = Vec::with_capacity(self.cell_count());
        for &refs in &self.refs {
            for &cpus in &self.cpus {
                for &geometry in &self.geometries {
                    for source in &self.scenarios {
                        match source {
                            SweepSource::Scenario(scenario) => {
                                let config = apply_cpus(scenario.config(), cpus).map_err(|e| {
                                    SpecError::whole(format!(
                                        "scenario `{}` with cpus={}: {e}",
                                        scenario.name(),
                                        cpus.map_or("default".to_string(), |c| c.to_string()),
                                    ))
                                })?;
                                for &scheme in &self.schemes {
                                    cells.push(Cell::new(
                                        scheme,
                                        scenario,
                                        config.clone(),
                                        geometry,
                                        cpus,
                                        refs,
                                    ));
                                }
                            }
                            SweepSource::Trace { path, len } => {
                                for &scheme in &self.schemes {
                                    cells.push(Cell::from_trace(
                                        scheme, path, *len, geometry, cpus, refs,
                                    ));
                                }
                            }
                        }
                    }
                }
            }
        }
        Ok(cells)
    }
}

/// Applies a `cpus` override to a scenario's workload: the CPU count is
/// replaced and the process count raised to keep `processes >= cpus`
/// (a [`WorkloadConfig`] invariant).
fn apply_cpus(
    config: &WorkloadConfig,
    cpus: Option<u16>,
) -> Result<WorkloadConfig, dirsim_trace::synth::ConfigError> {
    let mut config = config.clone();
    if let Some(cpus) = cpus {
        config.cpus = cpus;
        config.processes = config.processes.max(u32::from(cpus));
    }
    config.validate()?;
    Ok(config)
}

fn set_axis<T>(
    slot: &mut Option<Vec<T>>,
    key: &str,
    line: usize,
    values: Vec<T>,
) -> Result<(), SpecError> {
    if slot.is_some() {
        return Err(SpecError::at(line, format!("duplicate key `{key}`")));
    }
    *slot = Some(values);
    Ok(())
}

fn reject_duplicates(labels: &[String], axis: &str, line: usize) -> Result<(), SpecError> {
    for (i, label) in labels.iter().enumerate() {
        if labels[..i].contains(label) {
            return Err(SpecError::at(
                line,
                format!("duplicate {axis} entry `{label}` would double-count cells"),
            ));
        }
    }
    Ok(())
}

fn parse_schemes(values: &[&str], line: usize) -> Result<Vec<Scheme>, SpecError> {
    let schemes = values
        .iter()
        .map(|v| Scheme::from_str(v).map_err(|e| SpecError::at(line, format!("scheme `{v}`: {e}"))))
        .collect::<Result<Vec<_>, _>>()?;
    let labels: Vec<String> = schemes.iter().map(|s| s.name()).collect();
    reject_duplicates(&labels, "scheme", line)?;
    Ok(schemes)
}

fn parse_scenarios(values: &[&str], line: usize) -> Result<Vec<SweepSource>, SpecError> {
    let sources = values
        .iter()
        .map(|v| {
            if is_trace_file(v) {
                let len = std::fs::metadata(v)
                    .map_err(|e| SpecError::at(line, format!("trace `{v}`: {e}")))?
                    .len();
                return Ok(SweepSource::Trace {
                    path: (*v).to_string(),
                    len,
                });
            }
            Scenario::resolve(v)
                .map(|s| SweepSource::Scenario(Box::new(s)))
                .map_err(|e| SpecError::at(line, format!("scenario `{v}`: {e}")))
        })
        .collect::<Result<Vec<_>, _>>()?;
    let labels: Vec<String> = sources.iter().map(|s| s.name().to_string()).collect();
    reject_duplicates(&labels, "scenario", line)?;
    Ok(sources)
}

fn parse_geometries(values: &[&str], line: usize) -> Result<Vec<Option<CacheGeometry>>, SpecError> {
    let geometries = values
        .iter()
        .map(|v| parse_geometry(v, line))
        .collect::<Result<Vec<_>, _>>()?;
    let labels: Vec<String> = geometries
        .iter()
        .map(|g| crate::cell::geometry_label(*g))
        .collect();
    reject_duplicates(&labels, "geometry", line)?;
    Ok(geometries)
}

fn parse_geometry(value: &str, line: usize) -> Result<Option<CacheGeometry>, SpecError> {
    if value.eq_ignore_ascii_case("infinite") {
        return Ok(None);
    }
    let (sets, ways) = value.split_once('x').ok_or_else(|| {
        SpecError::at(
            line,
            format!("geometry `{value}` is neither `infinite` nor `SETSxWAYS`"),
        )
    })?;
    let sets = parse_number(sets)
        .ok_or_else(|| SpecError::at(line, format!("geometry `{value}`: bad set count")))?;
    let ways = parse_number(ways)
        .ok_or_else(|| SpecError::at(line, format!("geometry `{value}`: bad way count")))?;
    let geometry = CacheGeometry {
        sets: sets as u32,
        ways: ways as u32,
    };
    geometry
        .validate()
        .map_err(|e| SpecError::at(line, format!("geometry `{value}`: {e}")))?;
    Ok(Some(geometry))
}

fn parse_cpus(values: &[&str], line: usize) -> Result<Vec<Option<u16>>, SpecError> {
    let cpus = values
        .iter()
        .map(|v| {
            if v.eq_ignore_ascii_case("default") {
                Ok(None)
            } else {
                match parse_number(v) {
                    Some(n) if n >= 1 && n <= u64::from(u16::MAX) => Ok(Some(n as u16)),
                    _ => Err(SpecError::at(
                        line,
                        format!("cpus `{v}` is neither `default` nor a count in 1..=65535"),
                    )),
                }
            }
        })
        .collect::<Result<Vec<_>, _>>()?;
    let labels: Vec<String> = cpus.iter().map(|c| crate::cell::cpus_label(*c)).collect();
    reject_duplicates(&labels, "cpus", line)?;
    Ok(cpus)
}

fn parse_refs(values: &[&str], line: usize) -> Result<Vec<usize>, SpecError> {
    let refs = values
        .iter()
        .map(|v| match parse_number(v) {
            Some(n) if n >= 1 => Ok(n as usize),
            _ => Err(SpecError::at(
                line,
                format!("refs `{v}` is not a positive count"),
            )),
        })
        .collect::<Result<Vec<_>, _>>()?;
    let labels: Vec<String> = refs.iter().map(|r| r.to_string()).collect();
    reject_duplicates(&labels, "refs", line)?;
    Ok(refs)
}

fn parse_cost_models(values: &[&str], line: usize) -> Result<Vec<CostModelKind>, SpecError> {
    let models = values
        .iter()
        .map(|v| {
            if v.eq_ignore_ascii_case("pipelined") {
                Ok(CostModelKind::Pipelined)
            } else if v.eq_ignore_ascii_case("non-pipelined") {
                Ok(CostModelKind::NonPipelined)
            } else {
                Err(SpecError::at(
                    line,
                    format!("cost model `{v}` is neither `pipelined` nor `non-pipelined`"),
                ))
            }
        })
        .collect::<Result<Vec<_>, _>>()?;
    let labels: Vec<String> = models.iter().map(|m| m.label().to_string()).collect();
    reject_duplicates(&labels, "cost model", line)?;
    Ok(models)
}

/// Parses a decimal count; underscores are digit separators, as in `.scn`
/// specs (`100_000`).
fn parse_number(value: &str) -> Option<u64> {
    let cleaned: String = value.chars().filter(|&c| c != '_').collect();
    if cleaned.is_empty() {
        return None;
    }
    cleaned.parse().ok()
}

#[cfg(test)]
mod tests {
    use super::*;
    use dirsim::Input;

    const FULL: &str = "\
# exercise every axis
schemes     = Dir1NB, WTI
scenarios   = pops, thor
geometries  = infinite, 64x4
cpus        = default, 8
refs        = 2_000
cost-models = pipelined, non-pipelined
";

    #[test]
    fn parses_every_axis_and_counts_cells() {
        let spec = SweepSpec::parse(FULL).unwrap();
        assert_eq!(spec.schemes.len(), 2);
        assert_eq!(spec.scenarios.len(), 2);
        assert_eq!(
            spec.geometries,
            vec![None, Some(CacheGeometry { sets: 64, ways: 4 })]
        );
        assert_eq!(spec.cpus, vec![None, Some(8)]);
        assert_eq!(spec.refs, vec![2_000]);
        assert_eq!(spec.cost_models.len(), 2);
        assert_eq!(spec.cell_count(), 16);
        assert_eq!(spec.expand().unwrap().len(), 16);
    }

    #[test]
    fn missing_axes_take_paper_defaults() {
        let spec = SweepSpec::parse("schemes = Dir0B\nscenarios = pops\n").unwrap();
        assert_eq!(spec.geometries, vec![None]);
        assert_eq!(spec.cpus, vec![None]);
        assert_eq!(spec.refs, vec![DEFAULT_REFS]);
        assert_eq!(spec.cost_models, vec![CostModelKind::Pipelined]);
        assert_eq!(spec.cell_count(), 1);
    }

    #[test]
    fn missing_required_axis_is_an_error() {
        let err = SweepSpec::parse("schemes = Dir0B\n").unwrap_err();
        assert!(err.to_string().contains("scenarios"), "{err}");
    }

    #[test]
    fn bad_lines_carry_line_numbers() {
        let err = SweepSpec::parse("schemes = Dir0B\nscenarios = nope\n").unwrap_err();
        assert_eq!(err.line, Some(2));
        assert!(err.to_string().contains("nope"), "{err}");

        let err = SweepSpec::parse("schemes = Dir0B\nwat = 1\n").unwrap_err();
        assert_eq!(err.line, Some(2));
        assert!(err.to_string().contains("unknown key"), "{err}");

        let err = SweepSpec::parse("schemes = Dir0B\ngeometries = 63x4\n").unwrap_err();
        assert_eq!(err.line, Some(2));
    }

    #[test]
    fn duplicate_entries_and_keys_are_rejected() {
        let err = SweepSpec::parse("schemes = Dir0B, Dir0B\nscenarios = pops\n").unwrap_err();
        assert!(err.to_string().contains("double-count"), "{err}");

        let err =
            SweepSpec::parse("schemes = Dir0B\nschemes = WTI\nscenarios = pops\n").unwrap_err();
        assert!(err.to_string().contains("duplicate key"), "{err}");
    }

    #[test]
    fn cpu_override_raises_process_count() {
        let spec =
            SweepSpec::parse("schemes = Dir0B\nscenarios = pops\ncpus = 16\nrefs = 100\n").unwrap();
        let cells = spec.expand().unwrap();
        assert_eq!(cells.len(), 1);
        let Input::Synthetic(config) = &cells[0].input else {
            panic!("scenario entry must expand to a synthetic cell");
        };
        assert_eq!(config.cpus, 16);
        assert!(config.processes >= 16);
    }

    #[test]
    fn trace_files_join_the_scenarios_axis() {
        use std::io::Write as _;
        let path = std::env::temp_dir().join(format!(
            "dirsim-sweep-spec-trace-{}.dtr",
            std::process::id()
        ));
        {
            let mut out = std::io::BufWriter::new(std::fs::File::create(&path).unwrap());
            let refs = Scenario::named("pops").unwrap().workload().take(64);
            dirsim_trace::io::write_binary(&mut out, refs).unwrap();
            out.flush().unwrap();
        }
        let text = format!(
            "schemes = Dir0B, WTI\nscenarios = pops, {}\nrefs = 50\n",
            path.display()
        );
        let spec = SweepSpec::parse(&text).unwrap();
        assert_eq!(spec.scenarios.len(), 2);
        assert!(matches!(spec.scenarios[0], SweepSource::Scenario(_)));
        let SweepSource::Trace { ref len, .. } = spec.scenarios[1] else {
            panic!("existing DTR1 file must sniff as a trace entry");
        };
        assert_eq!(*len, 8 + 64 * 16, "header plus 64 fixed records");

        // The mixed axis expands to synthetic and trace cells side by side.
        let cells = spec.expand().unwrap();
        assert_eq!(cells.len(), 4);
        assert!(matches!(cells[0].input, Input::Synthetic(_)));
        assert_eq!(cells[2].input, Input::Trace(path.clone()));
        assert_eq!(cells[2].scenario, path.display().to_string());

        // A duplicate trace path double-counts cells, like any axis entry.
        let dup = format!(
            "schemes = Dir0B\nscenarios = {p}, {p}\n",
            p = path.display()
        );
        let err = SweepSpec::parse(&dup).unwrap_err();
        assert!(err.to_string().contains("double-count"), "{err}");

        // A missing file is not sniffable and falls through to scenario
        // resolution, which names the value in its error.
        let err = SweepSpec::parse("schemes = Dir0B\nscenarios = no-such.dtr\n").unwrap_err();
        assert!(err.to_string().contains("no-such.dtr"), "{err}");
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn comments_and_blank_lines_are_ignored() {
        let spec =
            SweepSpec::parse("# grid\n\nschemes = Dir0B # trailing\nscenarios = pops\n").unwrap();
        assert_eq!(spec.cell_count(), 1);
    }
}
