//! Regenerating the paper tables from the store alone.
//!
//! The report is a pure function of (spec, store): no simulation, no
//! wall-clock, no environment — so two stores holding the same cells
//! render bit-identical markdown, whether the cells were computed in one
//! run or across five resumed ones. That determinism is what lets
//! EXPERIMENTS.md treat `dirsim-sweep --report` output as canonical.
//!
//! The table shape follows the paper: one scheme × workload matrix of bus
//! cycles per memory reference for each cost model the spec asks for
//! (Table 5 is the pipelined bus, Table 6 the non-pipelined one), with a
//! reference-weighted `All` column matching the paper's practice of
//! quoting an aggregate over its three traces. One matrix is emitted per
//! (geometry, cpus, refs) point, so finite-cache and scaled-CPU grids get
//! their own sections rather than averaging incomparable cells.

use std::collections::HashMap;
use std::fmt;
use std::fmt::Write as _;

use crate::cell::{cpus_label, geometry_label, Cell, CellRecord};
use crate::spec::{CostModelKind, SpecError, SweepSpec};
use crate::store::Store;

/// A report failure: the store does not cover the spec.
#[derive(Debug, Clone, PartialEq)]
pub enum ReportError {
    /// The spec itself failed to expand.
    Spec(SpecError),
    /// A cell of the grid has no record in the store (boxed to keep the
    /// `Err` variant small on the hot `Result` paths).
    MissingCell(Box<MissingCell>),
}

/// Which grid cell a report could not find in the store.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MissingCell {
    /// Scheme name.
    pub scheme: String,
    /// Scenario name.
    pub scenario: String,
    /// Geometry label.
    pub geometry: String,
    /// CPU-override label.
    pub cpus: String,
    /// References per cell.
    pub refs: usize,
    /// The identity hash that was not found.
    pub hash: String,
}

impl fmt::Display for ReportError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ReportError::Spec(e) => write!(f, "cannot expand spec: {e}"),
            ReportError::MissingCell(cell) => write!(
                f,
                "store lacks cell {} ({} x {}, geometry {}, cpus {}, {} refs); \
                 run the sweep to fill it",
                cell.hash, cell.scheme, cell.scenario, cell.geometry, cell.cpus, cell.refs
            ),
        }
    }
}

impl std::error::Error for ReportError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            // Displayed above, so only its own source is chained.
            ReportError::Spec(e) => e.source(),
            ReportError::MissingCell(_) => None,
        }
    }
}

/// Renders the spec's grid as markdown tables from stored results only.
///
/// # Errors
///
/// Returns [`ReportError::MissingCell`] for the first grid cell absent
/// from the store — a report must never silently blend a partial grid.
pub fn render_report(spec: &SweepSpec, store: &Store) -> Result<String, ReportError> {
    let cells = spec.expand().map_err(ReportError::Spec)?;
    let by_hash: HashMap<&str, &CellRecord> = store
        .records()
        .iter()
        .map(|r| (r.hash.as_str(), r))
        .collect();

    let mut out = String::new();
    let _ = writeln!(out, "# Paper grid report");
    let _ = writeln!(out);
    let _ = writeln!(
        out,
        "Regenerated by `dirsim-sweep --report` from the result store ({} cells).",
        cells.len()
    );

    // One section per grid point of the non-table axes, in spec order.
    for &refs in &spec.refs {
        for &cpus in &spec.cpus {
            for &geometry in &spec.geometries {
                for &model in &spec.cost_models {
                    render_table(
                        &mut out,
                        spec,
                        &cells,
                        &by_hash,
                        geometry_label(geometry).as_str(),
                        cpus_label(cpus).as_str(),
                        refs,
                        model,
                    )?;
                }
            }
        }
    }
    Ok(out)
}

#[allow(clippy::too_many_arguments)]
fn render_table(
    out: &mut String,
    spec: &SweepSpec,
    cells: &[Cell],
    by_hash: &HashMap<&str, &CellRecord>,
    geometry: &str,
    cpus: &str,
    refs: usize,
    model: CostModelKind,
) -> Result<(), ReportError> {
    let bus = match model {
        CostModelKind::Pipelined => "pipelined bus (Table 5 pricing)",
        CostModelKind::NonPipelined => "non-pipelined bus (Table 6 pricing)",
    };
    let _ = writeln!(out);
    let _ = writeln!(out, "## Bus cycles per reference — {bus}");
    let _ = writeln!(out);
    let _ = writeln!(
        out,
        "Geometry {geometry}, cpus {cpus}, {refs} references per cell."
    );
    let _ = writeln!(out);

    let mut header = String::from("| Scheme |");
    let mut rule = String::from("|---|");
    for scenario in &spec.scenarios {
        let _ = write!(header, " {} |", scenario.name());
        rule.push_str("---|");
    }
    header.push_str(" All |");
    rule.push_str("---|");
    let _ = writeln!(out, "{header}");
    let _ = writeln!(out, "{rule}");

    for scheme in &spec.schemes {
        let mut row = format!("| {} |", scheme.name());
        let mut cycles_sum = 0.0f64;
        let mut refs_sum = 0u64;
        for scenario in &spec.scenarios {
            let cell = cells
                .iter()
                .find(|c| {
                    c.scheme == *scheme
                        && c.scenario == scenario.name()
                        && c.geometry_label() == geometry
                        && cpus_label(c.cpus) == cpus
                        && c.refs == refs
                })
                .expect("expanded grid covers every axis combination");
            let record = by_hash.get(cell.hash.as_str()).ok_or_else(|| {
                ReportError::MissingCell(Box::new(MissingCell {
                    scheme: scheme.name(),
                    scenario: scenario.name().to_string(),
                    geometry: geometry.to_string(),
                    cpus: cpus.to_string(),
                    refs,
                    hash: cell.hash.clone(),
                }))
            })?;
            let cpr = record.cycles_per_ref(model);
            cycles_sum += cpr * record.refs as f64;
            refs_sum += record.refs;
            let _ = write!(row, " {cpr:.4} |");
        }
        let all = if refs_sum == 0 {
            0.0
        } else {
            cycles_sum / refs_sum as f64
        };
        let _ = write!(row, " {all:.4} |");
        let _ = writeln!(out, "{row}");
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::run::{run_sweep, SweepOptions};
    use std::fs;

    #[test]
    fn report_is_deterministic_and_demands_a_full_store() {
        let path =
            std::env::temp_dir().join(format!("dirsim-sweep-report-{}.jsonl", std::process::id()));
        let _ = fs::remove_file(&path);
        let spec = SweepSpec::parse(
            "schemes = Dir1NB, Dir0B\nscenarios = pops, thor\nrefs = 1_000\n\
             cost-models = pipelined, non-pipelined\n",
        )
        .unwrap();

        let mut store = Store::open(&path).unwrap();
        let err = render_report(&spec, &store).unwrap_err();
        assert!(matches!(err, ReportError::MissingCell(_)), "{err}");

        run_sweep(&spec, &mut store, &SweepOptions::default()).unwrap();
        let report = render_report(&spec, &store).unwrap();
        assert!(report.contains("Table 5 pricing"), "{report}");
        assert!(report.contains("Table 6 pricing"), "{report}");
        assert!(report.contains("| Dir1NB |"), "{report}");
        assert!(report.contains("| pops | thor | All |"), "{report}");

        // Reopening the store must render the identical bytes.
        let reopened = Store::open(&path).unwrap();
        assert_eq!(render_report(&spec, &reopened).unwrap(), report);
        fs::remove_file(&path).unwrap();
    }
}
