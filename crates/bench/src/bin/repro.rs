//! Regenerates every table and figure of the paper's evaluation section.
//!
//! Usage:
//!
//! ```text
//! repro [--quick] [--only <artifact>] [--csv <dir>] [--list]
//!       [--metrics-json <path>] [--progress]
//! ```
//!
//! * `--quick` — 100k references per trace instead of 1M.
//! * `--only <artifact>` — print one artifact (see `--list`).
//! * `--csv <dir>` — additionally write figure data series as CSV files.
//! * `--list` — list artifact names.
//! * `--metrics-json <path>` — write engine metrics (run manifest,
//!   per-phase timings, per-scheme operation counts) as JSON lines.
//! * `--progress` — report references/sec on stderr while simulating.

use std::process::ExitCode;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use dirsim::obs::{MetricsRegistry, ProgressMeter, Recorder, RunManifest};
use dirsim::paper;
use dirsim_bench::{csv_artifacts, render_artifact, ARTIFACTS, QUICK_REFS, REPORT_REFS};

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut quick = false;
    let mut only: Option<String> = None;
    let mut csv_dir: Option<String> = None;
    let mut metrics_json: Option<String> = None;
    let mut progress = false;
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--quick" => quick = true,
            "--progress" => progress = true,
            "--list" => {
                for a in ARTIFACTS {
                    println!("{a}");
                }
                return ExitCode::SUCCESS;
            }
            "--only" => {
                i += 1;
                let Some(name) = args.get(i) else {
                    eprintln!("--only requires an artifact name (try --list)");
                    return ExitCode::FAILURE;
                };
                only = Some(name.clone());
            }
            "--csv" => {
                i += 1;
                let Some(dir) = args.get(i) else {
                    eprintln!("--csv requires a directory");
                    return ExitCode::FAILURE;
                };
                csv_dir = Some(dir.clone());
            }
            "--metrics-json" => {
                i += 1;
                let Some(path) = args.get(i) else {
                    eprintln!("--metrics-json requires a path");
                    return ExitCode::FAILURE;
                };
                metrics_json = Some(path.clone());
            }
            other => {
                eprintln!(
                    "unknown argument {other}; usage: repro [--quick] [--only <artifact>] \
                     [--csv <dir>] [--list] [--metrics-json <path>] [--progress]"
                );
                return ExitCode::FAILURE;
            }
        }
        i += 1;
    }

    let refs = if quick { QUICK_REFS } else { REPORT_REFS };
    if let Some(ref name) = only {
        if !ARTIFACTS.contains(&name.as_str()) {
            eprintln!("unknown artifact {name}; try --list");
            return ExitCode::FAILURE;
        }
    }

    let registry = metrics_json
        .as_ref()
        .map(|_| Arc::new(MetricsRegistry::new()));
    let meter = Arc::new(Mutex::new(if progress {
        ProgressMeter::stderr("refs", Duration::from_millis(500))
    } else {
        ProgressMeter::disabled()
    }));
    let instrument = |exp: dirsim::Experiment| {
        let exp = match &registry {
            Some(r) => exp.recorder(Arc::clone(r) as Arc<dyn Recorder>),
            None => exp,
        };
        exp.progress(Arc::clone(&meter))
            .workers(std::thread::available_parallelism().map_or(1, |n| n.get()))
    };

    let started = Instant::now();
    eprintln!("simulating headline experiment ({refs} refs/trace)...");
    let headline = match instrument(paper::headline_experiment(refs)).run() {
        Ok(r) => r,
        Err(e) => {
            dirsim_bench::report_error("repro", &e);
            return ExitCode::FAILURE;
        }
    };
    eprintln!("simulating extended experiment...");
    let extended = match instrument(paper::extended_experiment(refs)).run() {
        Ok(r) => r,
        Err(e) => {
            dirsim_bench::report_error("repro", &e);
            return ExitCode::FAILURE;
        }
    };
    let wall = started.elapsed().as_secs_f64();

    if let (Some(path), Some(registry)) = (&metrics_json, &registry) {
        let manifest = RunManifest::new("repro")
            .schemes(paper::extended_schemes().iter().map(|s| s.name()))
            .mode("parallel")
            .trace("synth:paper-workloads")
            .refs(refs as u64)
            .wall_secs(wall)
            .extra("experiments", "headline+extended");
        if let Err(e) =
            dirsim::obs::write_jsonl_file(std::path::Path::new(path), &manifest, registry)
        {
            eprintln!("cannot write {path}: {e}");
            return ExitCode::FAILURE;
        }
        eprintln!("metrics written to {path}");
    }

    println!("dirsim reproduction report — Agarwal, Simoni, Hennessy, Horowitz (ISCA 1988)");
    println!("references per trace: {refs}\n");
    match only {
        Some(name) => println!("{}", render_artifact(&name, &headline, &extended, refs)),
        None => {
            for a in ARTIFACTS {
                println!("{}", render_artifact(a, &headline, &extended, refs));
            }
        }
    }
    if let Some(dir) = csv_dir {
        if let Err(e) = std::fs::create_dir_all(&dir) {
            eprintln!("cannot create {dir}: {e}");
            return ExitCode::FAILURE;
        }
        for (name, content) in csv_artifacts(&headline, &extended) {
            let path = std::path::Path::new(&dir).join(&name);
            if let Err(e) = std::fs::write(&path, content) {
                eprintln!("cannot write {}: {e}", path.display());
                return ExitCode::FAILURE;
            }
            eprintln!("wrote {}", path.display());
        }
    }
    ExitCode::SUCCESS
}
