//! Run a `.sweep` grid spec against a resumable result store.
//!
//! ```text
//! dirsim-sweep <spec.sweep> [--store PATH] [--workers N] [--progress]
//!              [--report] [--report-out PATH] [--expect-cached]
//!              [--list-cells] [--metrics-json PATH]
//! ```
//!
//! The spec names the grid's axes (see `crates/sweep/specs/` for the
//! committed grids); a `scenarios` entry may be a bundled scenario name,
//! a `.scn` spec file, or a trace/corpus file in any format `open_trace`
//! sniffs (`DTR1`, `DTR2`, `DTR3` corpus, text, CSV) — trace entries
//! stream the file per cell instead of regenerating a synthetic
//! workload. The store (default `sweep-store.jsonl`) accumulates
//! one JSON line per completed cell, keyed by configuration hash. Cells
//! already in the store are skipped, so re-running after a crash — or
//! after extending the spec — computes only what is missing. A torn final
//! line from a killed run is repaired on open.
//!
//! `--report` renders the paper tables (bus cycles per reference, scheme
//! × workload per cost model) from the store to stdout; `--report-out`
//! writes them to a file instead. `--expect-cached` fails if any cell had
//! to be simulated — CI uses it to pin that resume really resumes.
//! `--list-cells` prints the grid and each cell's cached/pending state
//! without running anything.

use std::fs;
use std::path::PathBuf;
use std::process::ExitCode;
use std::sync::Arc;

use dirsim_obs::{write_jsonl_file, MetricsRegistry, RunManifest};
use dirsim_sweep::{render_report, run_sweep, Store, SweepError, SweepOptions, SweepSpec};

struct Options {
    spec: PathBuf,
    store: PathBuf,
    workers: usize,
    progress: bool,
    report: bool,
    report_out: Option<PathBuf>,
    expect_cached: bool,
    list_cells: bool,
    metrics_json: Option<PathBuf>,
}

fn parse_args() -> Result<Options, Box<dyn std::error::Error>> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let usage = "usage: dirsim-sweep <spec.sweep> [--store PATH] [--workers N] \
                 [--progress] [--report] [--report-out PATH] [--expect-cached] \
                 [--list-cells] [--metrics-json PATH]";
    let mut spec = None;
    let mut opts = Options {
        spec: PathBuf::new(),
        store: PathBuf::from("sweep-store.jsonl"),
        workers: 0,
        progress: false,
        report: false,
        report_out: None,
        expect_cached: false,
        list_cells: false,
        metrics_json: None,
    };
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--progress" => opts.progress = true,
            "--report" => opts.report = true,
            "--expect-cached" => opts.expect_cached = true,
            "--list-cells" => opts.list_cells = true,
            "--store" => {
                i += 1;
                opts.store = PathBuf::from(args.get(i).ok_or(usage)?);
            }
            "--report-out" => {
                i += 1;
                opts.report_out = Some(PathBuf::from(args.get(i).ok_or(usage)?));
            }
            "--metrics-json" => {
                i += 1;
                opts.metrics_json = Some(PathBuf::from(args.get(i).ok_or(usage)?));
            }
            "--workers" => {
                i += 1;
                opts.workers = args
                    .get(i)
                    .ok_or(usage)?
                    .parse()
                    .map_err(|_| "--workers expects a number")?;
            }
            other if other.starts_with("--") => {
                return Err(format!("unknown flag `{other}`\n{usage}").into());
            }
            positional => {
                if spec.replace(PathBuf::from(positional)).is_some() {
                    return Err(usage.into());
                }
            }
        }
        i += 1;
    }
    opts.spec = spec.ok_or(usage)?;
    Ok(opts)
}

fn run(opts: &Options) -> Result<(), Box<dyn std::error::Error>> {
    let text = fs::read_to_string(&opts.spec)
        .map_err(|e| format!("reading {}: {e}", opts.spec.display()))?;
    let spec = SweepSpec::parse(&text).map_err(SweepError::Spec)?;
    let mut store = Store::open(&opts.store)?;

    if opts.list_cells {
        for cell in spec.expand().map_err(SweepError::Spec)? {
            let state = if store.contains(&cell.hash) {
                "cached"
            } else {
                "pending"
            };
            println!(
                "{} {state} {} {} geometry={} cpus={} refs={}",
                cell.hash,
                cell.scheme.name(),
                cell.scenario,
                cell.geometry_label(),
                dirsim_sweep::cell::cpus_label(cell.cpus),
                cell.refs,
            );
        }
        return Ok(());
    }

    let registry = Arc::new(MetricsRegistry::new());
    let sweep_opts = SweepOptions {
        workers: opts.workers,
        progress: opts.progress,
        recorder: registry.clone(),
    };
    let summary = run_sweep(&spec, &mut store, &sweep_opts)?;
    eprintln!(
        "sweep: {} cells ({} ran, {} cached) in {:.2}s, {:.0} refs/s aggregate",
        summary.total,
        summary.ran,
        summary.skipped,
        summary.wall_secs,
        summary.refs_simulated as f64 / summary.wall_secs.max(1e-9),
    );

    if let Some(path) = &opts.metrics_json {
        let manifest = RunManifest::new("dirsim-sweep")
            .mode(&if opts.workers == 0 {
                "pool(auto)".to_string()
            } else {
                format!("pool({})", opts.workers)
            })
            .trace(&format!("sweep:{}", opts.spec.display()))
            .refs(summary.refs_simulated)
            .wall_secs(summary.wall_secs)
            .extra("cells_total", &summary.total.to_string())
            .extra("cells_ran", &summary.ran.to_string())
            .extra("cells_skipped", &summary.skipped.to_string());
        write_jsonl_file(path, &manifest, &registry)
            .map_err(|e| format!("writing {}: {e}", path.display()))?;
    }

    if opts.expect_cached && summary.ran > 0 {
        return Err(format!(
            "--expect-cached: {} of {} cells were not in the store",
            summary.ran, summary.total
        )
        .into());
    }

    if opts.report || opts.report_out.is_some() {
        let report = render_report(&spec, &store).map_err(SweepError::Report)?;
        match &opts.report_out {
            Some(path) => {
                fs::write(path, &report).map_err(|e| format!("writing {}: {e}", path.display()))?
            }
            None => print!("{report}"),
        }
    }
    Ok(())
}

fn main() -> ExitCode {
    let opts = match parse_args() {
        Ok(opts) => opts,
        Err(err) => {
            eprintln!("dirsim-sweep: {err}");
            return ExitCode::FAILURE;
        }
    };
    match run(&opts) {
        Ok(()) => ExitCode::SUCCESS,
        Err(err) => {
            eprintln!("dirsim-sweep: {err}");
            let mut source = err.source();
            while let Some(cause) = source {
                eprintln!("  caused by: {cause}");
                source = cause.source();
            }
            ExitCode::FAILURE
        }
    }
}
