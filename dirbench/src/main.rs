//! The dirsim benchmark.
//!
//! ```text
//! dirbench --workload <pops-corpus|wide96-finite|paper-grid-cold>
//!          --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! One client runs one job at a time (closed loop) for `--seconds`, on as
//! many engine workers as the host has CPUs. Modelled caches start empty.
//! The last line of standard output is the result:
//! `{"correct", "attempted", "failed", "metrics"}` — the end-to-end
//! metrics with `--trace 0`, the per-layer ledger with `--trace 1`. The
//! line before it is the provenance record, also appended to
//! `.dirbench/history.jsonl`. See `dirbench/README.md`.

mod host;
mod layers;
mod workload;

use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::sync::Arc;
use std::time::Instant;

use dirsim::KernelPolicy;
use dirsim_obs::json::float;
use dirsim_obs::{Json, MetricsRegistry, Recorder, RunManifest};
use dirsim_sweep::{CellRecord, SweepSpec};

use host::{median, peak_rss_mib, tail, Provenance};
use layers::Phases;
use workload::{
    by_hash, cells_alone, corpus_job, lineup, noop, sweep_job, validation_paper_err, write_dtr1,
    BoxError, Corpus, CorpusJob, Grid, Sizes, Workload, LINEUP,
};

const USAGE: &str = "usage: dirbench --workload <pops-corpus|wide96-finite|paper-grid-cold> \
                     --seed <n> --seconds <s> --trace <0|1>";

/// Jobs a timed loop runs at least, however short `--seconds` is.
const MIN_JOBS: usize = 3;

/// A traced run whose spans cover less of the job than this is flagged.
const COVERAGE_FLOOR: f64 = 0.9;

/// One reported metric.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    name: String,
    value: f64,
    unit: &'static str,
}

impl Metric {
    fn new(name: &str, value: f64, unit: &'static str) -> Metric {
        Metric {
            name: name.to_string(),
            value,
            unit,
        }
    }
}

/// Command-line arguments.
#[derive(Debug, Clone)]
struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

impl Args {
    fn parse(mut args: impl Iterator<Item = String>) -> Result<Args, String> {
        let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
        while let Some(flag) = args.next() {
            let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
            let bad = |_| format!("bad value `{value}` for {flag}");
            match flag.as_str() {
                "--workload" => {
                    workload = Some(
                        Workload::parse(&value)
                            .ok_or_else(|| format!("unknown workload `{value}`"))?,
                    );
                }
                "--seed" => seed = Some(value.parse::<u64>().map_err(|e| bad(e.to_string()))?),
                "--seconds" => {
                    let s = value.parse::<f64>().map_err(|e| bad(e.to_string()))?;
                    if !(s.is_finite() && s > 0.0) {
                        return Err(bad(String::new()));
                    }
                    seconds = Some(s);
                }
                "--trace" => {
                    trace = Some(match value.as_str() {
                        "0" => false,
                        "1" => true,
                        _ => return Err(bad(String::new())),
                    });
                }
                _ => return Err(format!("unknown argument `{flag}`")),
            }
        }
        Ok(Args {
            workload: workload.ok_or("--workload is required")?,
            seed: seed.ok_or("--seed is required")?,
            seconds: seconds.ok_or("--seconds is required")?,
            trace: trace.ok_or("--trace is required")?,
        })
    }
}

/// What one run measured and checked.
#[derive(Debug, Clone, Default)]
struct Outcome {
    /// Timed jobs.
    attempted: usize,
    /// Timed jobs that errored or failed the output check.
    failed: usize,
    /// Failed checks outside the timed jobs (kernel vs match runs).
    probe_failures: usize,
    /// Schemes each job ran.
    schemes: Vec<String>,
    metrics: Vec<Metric>,
    /// Extra fields for the provenance record.
    notes: Vec<(String, Json)>,
}

impl Outcome {
    fn correct(&self) -> bool {
        self.failed == 0 && self.probe_failures == 0
    }

    fn error_rate(&self) -> f64 {
        self.failed as f64 / self.attempted.max(1) as f64
    }

    fn note(&mut self, key: &str, value: Json) {
        self.notes.push((key.to_string(), value));
    }

    /// The result line: `correct`, `attempted`, `failed` and `metrics`.
    fn result_json(&self) -> Json {
        let metrics = self
            .metrics
            .iter()
            .map(|m| {
                (
                    m.name.clone(),
                    Json::Obj(vec![
                        ("value".to_string(), float(m.value)),
                        ("unit".to_string(), Json::Str(m.unit.to_string())),
                    ]),
                )
            })
            .collect();
        Json::Obj(vec![
            ("correct".to_string(), Json::Bool(self.correct())),
            ("attempted".to_string(), Json::Int(self.attempted as i128)),
            ("failed".to_string(), Json::Int(self.failed as i128)),
            ("metrics".to_string(), Json::Obj(metrics)),
        ])
    }
}

/// Knobs the self-tests turn; the binary always runs [`Knobs::FULL`].
#[derive(Debug, Clone, Copy)]
struct Knobs {
    sizes: Sizes,
    /// Corrupt the first timed job's output before it is checked.
    plant_mismatch: bool,
}

impl Knobs {
    const FULL: Knobs = Knobs {
        sizes: Sizes::FULL,
        plant_mismatch: false,
    };
}

fn main() -> ExitCode {
    let args = match Args::parse(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("dirbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let root = Path::new(".");
    let outcome = match run(&args, Knobs::FULL, root) {
        Ok(outcome) => outcome,
        Err(e) => {
            eprintln!("dirbench: {e}");
            return ExitCode::FAILURE;
        }
    };
    let record = provenance_record(&args, &outcome, &Provenance::collect(root));
    let line = record.to_string_compact();
    if let Err(e) = append_history(root, &line) {
        eprintln!("dirbench: could not append to the history file: {e}");
    }
    println!("{line}");
    println!("{}", outcome.result_json().to_string_compact());
    ExitCode::SUCCESS
}

fn append_history(root: &Path, line: &str) -> std::io::Result<()> {
    use std::io::Write as _;
    let mut file = std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(root.join(".dirbench/history.jsonl"))?;
    writeln!(file, "{line}")
}

/// The provenance record: commit, host, compiler, seed, and the figures
/// the result line has no room for (tail latency, run count, error rate).
fn provenance_record(args: &Args, outcome: &Outcome, prov: &Provenance) -> Json {
    let wall_s = outcome.metrics.iter().find(|m| m.name == "wall_s");
    let manifest = RunManifest::new("dirbench")
        .schemes(&outcome.schemes)
        .wall_secs(wall_s.map_or(0.0, |m| m.value))
        .mode(&format!("workers={}", prov.nproc))
        .trace(args.workload.name())
        .seed(args.seed)
        .extra("commit", &prov.commit)
        .extra("nproc", &prov.nproc.to_string())
        .extra("cpu_model", &prov.cpu_model)
        .extra("rustc", &prov.rustc)
        .extra("traced", if args.trace { "1" } else { "0" });
    let Json::Obj(mut pairs) = manifest.to_json() else {
        unreachable!("a manifest serialises to an object")
    };
    pairs.push(("error_rate".to_string(), float(outcome.error_rate())));
    pairs.push(("correct".to_string(), Json::Bool(outcome.correct())));
    pairs.extend(outcome.notes.iter().cloned());
    pairs.push((
        "metrics".to_string(),
        Json::Obj(
            outcome
                .metrics
                .iter()
                .map(|m| (m.name.clone(), float(m.value)))
                .collect(),
        ),
    ));
    Json::Obj(pairs)
}

/// Runs one workload in a private directory under `.dirbench/`, removed
/// afterwards.
fn run(args: &Args, knobs: Knobs, root: &Path) -> Result<Outcome, BoxError> {
    let dir =
        root.join(".dirbench")
            .join(format!("{}-{}", args.workload.name(), std::process::id()));
    std::fs::create_dir_all(&dir)?;
    let outcome = match args.workload {
        Workload::PopsCorpus | Workload::Wide96Finite => run_corpus(args, knobs, &dir),
        Workload::PaperGridCold => run_grid(args, knobs, &dir),
    };
    std::fs::remove_dir_all(&dir).ok();
    outcome
}

/// Runs `job` back to back until `seconds` have passed (and at least
/// [`MIN_JOBS`] times). `job` gets the job index.
fn closed_loop<T>(seconds: f64, mut job: impl FnMut(usize) -> T) -> Vec<T> {
    let start = Instant::now();
    let mut out = Vec::new();
    while out.len() < MIN_JOBS || start.elapsed().as_secs_f64() < seconds {
        out.push(job(out.len()));
    }
    out
}

/// Median seconds of `reps` set-ups.
fn setup_s(reps: usize, mut setup: impl FnMut() -> Result<(), BoxError>) -> Result<f64, BoxError> {
    let mut secs = Vec::new();
    for _ in 0..reps.max(1) {
        let start = Instant::now();
        setup()?;
        secs.push(start.elapsed().as_secs_f64());
    }
    Ok(median(&secs))
}

/// A traced job gets its own registry, so its spans are its own.
fn recorder_for(traced: bool) -> (Option<Arc<MetricsRegistry>>, Arc<dyn Recorder>) {
    if traced {
        let registry = Arc::new(MetricsRegistry::new());
        let recorder: Arc<dyn Recorder> = registry.clone();
        (Some(registry), recorder)
    } else {
        (None, noop())
    }
}

/// Wall-time figures shared by every workload's untraced result.
fn wall_metrics(out: &mut Outcome, walls: &[f64], steps: f64) {
    let wall_s = median(walls);
    eprintln!(
        "dirbench: {} jobs, wall min {:.4} s, median {wall_s:.4} s, max {:.4} s",
        walls.len(),
        walls.iter().copied().fold(f64::INFINITY, f64::min),
        walls.iter().copied().fold(0.0, f64::max),
    );
    out.metrics.push(Metric::new("wall_s", wall_s, "s"));
    out.metrics
        .push(Metric::new("steps_per_s", steps / wall_s, "steps/s"));
    out.note("wall_s_p50", float(wall_s));
    out.note("runs", Json::Int(walls.len() as i128));
    out.note(
        "job_walls_s",
        Json::Arr(walls.iter().map(|&w| float(w)).collect()),
    );
    if let Some((p, value)) = tail(walls) {
        out.note(&format!("wall_s_p{p}"), float(value));
    }
}

fn push_rss(out: &mut Outcome) -> Result<(), BoxError> {
    let rss = peak_rss_mib().ok_or("the platform reports no peak RSS")?;
    out.metrics.push(Metric::new("peak_rss_mib", rss, "MiB"));
    Ok(())
}

/// `pops-corpus` and `wide96-finite`.
fn run_corpus(args: &Args, knobs: Knobs, dir: &Path) -> Result<Outcome, BoxError> {
    let sizes = &knobs.sizes;
    let workers = host::nproc();
    let schemes = lineup();
    let corpus = Corpus::new(args.workload, args.seed, sizes, dir)?;
    let setup = setup_s(sizes.setup_reps, || corpus.write())?;
    let config = corpus.config(KernelPolicy::Auto);
    let steps = (corpus.refs * schemes.len() as u64) as f64;

    // The one-worker run is the output check's reference (serial mode
    // checks the parallel modes) and, traced, the scaling baseline.
    let w1 = corpus_job(&corpus.path, &schemes, config, 1, noop())?;

    let mut out = Outcome {
        schemes: LINEUP.iter().map(|s| s.to_string()).collect(),
        ..Outcome::default()
    };
    let mut untraced = Vec::new();
    let mut traced: Vec<(CorpusJob, Phases)> = Vec::new();
    let jobs = closed_loop(args.seconds, |i| {
        // Traced runs alternate untraced and traced jobs, so the two
        // medians see the same machine conditions.
        let trace_this = args.trace && i % 2 == 1;
        let (registry, recorder) = recorder_for(trace_this);
        let job = corpus_job(&corpus.path, &schemes, config, workers, recorder);
        (job, registry)
    });
    for (i, (job, registry)) in jobs.into_iter().enumerate() {
        out.attempted += 1;
        let mut job = match job {
            Ok(job) => job,
            Err(e) => {
                eprintln!("dirbench: job {i} failed: {e}");
                out.failed += 1;
                continue;
            }
        };
        if knobs.plant_mismatch && i == 0 {
            job.results[0].transactions += 1;
        }
        if job.results != w1.results {
            eprintln!("dirbench: job {i} differs from the one-worker reference");
            out.failed += 1;
            continue;
        }
        match registry {
            Some(registry) => traced.push((job, Phases::from_registry(&registry))),
            None => untraced.push(job.wall_s),
        }
    }
    if untraced.is_empty() {
        return Err("no timed job succeeded".into());
    }

    if !args.trace {
        wall_metrics(&mut out, &untraced, steps);
        out.metrics.push(Metric::new("setup_s", setup, "s"));
        push_rss(&mut out)?;
        let err = validation_paper_err(args.seed, sizes, workers)?;
        out.metrics.push(Metric::new("paper_err", err, "ratio"));
        return Ok(out);
    }

    if traced.is_empty() {
        return Err("no traced job succeeded".into());
    }
    let grid_dir = dir.join("sweep");
    std::fs::create_dir_all(&grid_dir)?;
    let mut metrics = layers::core_ledger(&untraced, &traced, &w1, steps, workers);
    metrics.push(overhead(
        &traced.iter().map(|(j, _)| j.wall_s).collect::<Vec<_>>(),
        &untraced,
    ));
    metrics.extend(standalone_layers(
        &corpus.path,
        corpus.refs,
        &corpus.scenario,
        config,
        w1.caches,
        sizes,
        &mut out,
    )?);
    metrics.extend(corpus_sweep_layers(&corpus, sizes, workers, &grid_dir)?);
    flag_coverage(&metrics, &mut out);
    out.metrics = metrics;
    Ok(out)
}

fn overhead(traced: &[f64], untraced: &[f64]) -> Metric {
    Metric::new(
        "obs.overhead_frac",
        median(traced) / median(untraced) - 1.0,
        "ratio",
    )
}

/// Notes the ledger's coverage and warns when it is under the floor.
fn flag_coverage(metrics: &[Metric], out: &mut Outcome) {
    let Some(coverage) = metrics.iter().find(|m| m.name == "ledger.coverage") else {
        return;
    };
    let under = coverage.value < COVERAGE_FLOOR;
    if under {
        eprintln!(
            "dirbench: ledger covers {:.1}% of traced wall time (floor {:.0}%)",
            coverage.value * 100.0,
            COVERAGE_FLOOR * 100.0
        );
    }
    out.note("ledger_under_floor", Json::Bool(under));
}

/// Standalone timings of the trace, core, protocol and mem layers over a
/// corpus file and the scenario it came from.
fn standalone_layers(
    path: &Path,
    refs: u64,
    scenario: &dirsim_trace::Scenario,
    config: dirsim::SimConfig,
    caches: u32,
    sizes: &Sizes,
    out: &mut Outcome,
) -> Result<Vec<Metric>, BoxError> {
    let reps = sizes.probe_reps;
    let mut metrics = vec![
        Metric::new(
            "trace.mmap_decode_refs_per_s",
            layers::mmap_decode_refs_per_s(path, refs, reps)?,
            "refs/s",
        ),
        Metric::new(
            "trace.gen_refs_per_s",
            layers::gen_refs_per_s(scenario, sizes.gen_refs, reps)?,
            "refs/s",
        ),
    ];
    let prefix = layers::prefix(path, sizes.prefix_refs)?;
    let (lane, mismatches) = layers::lane_probes(config, &lineup(), caches, &prefix, reps)?;
    if mismatches > 0 {
        eprintln!("dirbench: {mismatches} kernel runs differ from their match-machine runs");
    }
    out.probe_failures += mismatches;
    metrics.extend(lane);
    for width in [4, 96] {
        metrics.push(layers::sharer_set_ns_per_op(width, sizes.sharer_ops, reps));
    }
    Ok(metrics)
}

/// The sweep layer over a corpus workload's own input: the 14 schemes as
/// trace cells over the corpus, each capped at the probe prefix.
fn corpus_sweep_layers(
    corpus: &Corpus,
    sizes: &Sizes,
    workers: usize,
    dir: &Path,
) -> Result<Vec<Metric>, BoxError> {
    let text = format!(
        "schemes = {}\nscenarios = {}\nrefs = {}\n",
        LINEUP.join(", "),
        corpus.path.display(),
        sizes.prefix_refs
    );
    let mut spec = None;
    let expand_s = setup_s(sizes.probe_reps, || {
        let parsed = SweepSpec::parse(&text)?;
        std::hint::black_box(parsed.expand()?);
        spec = Some(parsed);
        Ok(())
    })?;
    let spec = spec.expect("set-up ran at least once");
    let grid = Grid {
        spec: spec.clone(),
        dir: dir.to_path_buf(),
    };
    let mut walls = Vec::new();
    for _ in 0..sizes.probe_reps.max(1) {
        walls.push(sweep_job(&grid, &spec, workers, noop())?.0);
    }
    let alone = cells_alone(&grid, &spec)?;
    layers::sweep_ledger(&grid, &spec, expand_s, median(&walls), &alone, workers)
}

/// `paper-grid-cold`.
fn run_grid(args: &Args, knobs: Knobs, dir: &Path) -> Result<Outcome, BoxError> {
    let sizes = &knobs.sizes;
    let workers = host::nproc();
    let mut grid = None;
    let mut expand = Vec::new();
    let setup = setup_s(sizes.grid_setup_reps, || {
        let (g, expand_s) = Grid::setup(args.seed, sizes, dir)?;
        expand.push(expand_s);
        grid = Some(g);
        Ok(())
    })?;
    let grid = grid.expect("set-up ran at least once");
    let spec = grid.spec.clone();
    let steps = (spec.cell_count() * sizes.cell_refs) as f64;

    // Each store record must equal the same cell run alone.
    let alone = cells_alone(&grid, &spec)?;
    let reference = by_hash(alone.iter().map(|(r, _)| r.clone()).collect());

    let mut out = Outcome {
        schemes: spec.schemes.iter().map(|s| s.name()).collect(),
        ..Outcome::default()
    };
    let mut untraced = Vec::new();
    let mut traced = Vec::new();
    let mut first_records: Option<Vec<CellRecord>> = None;
    let jobs = closed_loop(args.seconds, |i| {
        let trace_this = args.trace && i % 2 == 1;
        let (_registry, recorder) = recorder_for(trace_this);
        (sweep_job(&grid, &spec, workers, recorder), trace_this)
    });
    for (i, (job, trace_this)) in jobs.into_iter().enumerate() {
        out.attempted += 1;
        let (wall_s, mut records) = match job {
            Ok(job) => job,
            Err(e) => {
                eprintln!("dirbench: job {i} failed: {e}");
                out.failed += 1;
                continue;
            }
        };
        if knobs.plant_mismatch && i == 0 {
            records[0].transactions += 1;
        }
        let records = by_hash(records);
        if records != reference {
            eprintln!("dirbench: job {i}'s store differs from its cells run alone");
            out.failed += 1;
            continue;
        }
        first_records.get_or_insert(records);
        if trace_this {
            traced.push(wall_s);
        } else {
            untraced.push(wall_s);
        }
    }
    if untraced.is_empty() {
        return Err("no timed job succeeded".into());
    }

    if !args.trace {
        wall_metrics(&mut out, &untraced, steps);
        out.metrics.push(Metric::new("setup_s", setup, "s"));
        push_rss(&mut out)?;
        let records = first_records.expect("a job succeeded");
        let err = workload::store_paper_err(&records).ok_or("the grid ran no published scheme")?;
        out.metrics.push(Metric::new("paper_err", err, "ratio"));
        return Ok(out);
    }

    let mut metrics = layers::sweep_ledger(
        &grid,
        &spec,
        median(&expand),
        median(&untraced),
        &alone,
        workers,
    )?;
    metrics.push(overhead(&traced, &untraced));
    // The engine layers have no span inside a sweep cell, so they are
    // measured on the grid's first input (the seeded pops trace at cell
    // length) written as a corpus and run as a corpus job.
    let pops = workload::reseed(&dirsim_trace::Scenario::named("pops")?.to_spec(), args.seed)?;
    let path: PathBuf = dir.join("layers.dtr");
    let refs = sizes.cell_refs as u64;
    write_dtr1(&pops, refs, &path)?;
    let schemes = lineup();
    let config = dirsim::SimConfig::default();
    let w1 = corpus_job(&path, &schemes, config, 1, noop())?;
    let mut layer_untraced = Vec::new();
    let mut layer_traced = Vec::new();
    for i in 0..2 * MIN_JOBS {
        let (registry, recorder) = recorder_for(i % 2 == 1);
        let job = corpus_job(&path, &schemes, config, workers, recorder)?;
        if job.results != w1.results {
            out.probe_failures += 1;
        }
        match registry {
            Some(registry) => {
                let phases = Phases::from_registry(&registry);
                layer_traced.push((job, phases));
            }
            None => layer_untraced.push(job.wall_s),
        }
    }
    let steps = (refs * schemes.len() as u64) as f64;
    metrics.extend(layers::core_ledger(
        &layer_untraced,
        &layer_traced,
        &w1,
        steps,
        workers,
    ));
    metrics.extend(standalone_layers(
        &path, refs, &pops, config, w1.caches, sizes, &mut out,
    )?);
    flag_coverage(&metrics, &mut out);
    out.metrics = metrics;
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `(name, unit)` of every metric `BENCHMARK.json` declares under `key`.
    fn declared(key: &str) -> Vec<(String, String)> {
        let json = Json::parse(include_str!("../../BENCHMARK.json")).unwrap();
        json.get(key)
            .and_then(Json::as_arr)
            .unwrap()
            .iter()
            .map(|m| {
                let field = |f: &str| m.get(f).and_then(Json::as_str).unwrap().to_string();
                (field("name"), field("unit"))
            })
            .collect()
    }

    fn emitted(out: &Outcome) -> Vec<(String, String)> {
        out.metrics
            .iter()
            .map(|m| (m.name.clone(), m.unit.to_string()))
            .collect()
    }

    fn args(workload: Workload, trace: bool) -> Args {
        Args {
            workload,
            seed: 7,
            seconds: 0.01,
            trace,
        }
    }

    fn tiny(plant_mismatch: bool) -> Knobs {
        Knobs {
            sizes: Sizes::tiny(),
            plant_mismatch,
        }
    }

    fn scratch(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("dirbench-test-{}-{tag}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn every_metric_is_emitted_with_its_unit_on_every_workload() {
        let root = scratch("metrics");
        let mut per_layer = declared("per_layer");
        per_layer.sort();
        for workload in Workload::ALL {
            let out = run(&args(workload, false), tiny(false), &root).unwrap();
            assert!(out.correct(), "{workload:?}");
            assert_eq!(out.failed, 0);
            assert!(out.attempted >= MIN_JOBS);
            assert_eq!(emitted(&out), declared("end_to_end"), "{workload:?}");
            assert!(out
                .metrics
                .iter()
                .all(|m| m.value.is_finite() && m.value > 0.0));

            let out = run(&args(workload, true), tiny(false), &root).unwrap();
            assert!(out.correct(), "{workload:?} traced");
            let mut got = emitted(&out);
            got.sort();
            assert_eq!(got, per_layer, "{workload:?} traced");
            assert!(out.metrics.iter().all(|m| m.value.is_finite()));
            assert!(out.notes.iter().any(|(k, _)| k == "ledger_under_floor"));
        }
        std::fs::remove_dir_all(&root).unwrap();
    }

    #[test]
    fn a_planted_mismatch_counts_in_error_rate() {
        let root = scratch("plant");
        for workload in Workload::ALL {
            let out = run(&args(workload, false), tiny(true), &root).unwrap();
            assert_eq!(out.failed, 1, "{workload:?}");
            assert!(!out.correct());
            assert!(out.error_rate() > 0.0);
            let line = out.result_json().to_string_compact();
            assert!(line.contains("\"correct\":false"), "{line}");
        }
        std::fs::remove_dir_all(&root).unwrap();
    }

    #[test]
    fn corpus_paper_err_matches_the_grid_store() {
        let sizes = Sizes::tiny();
        let root = scratch("paper-err");
        let (grid, _) = Grid::setup(3, &sizes, &root).unwrap();
        let (_, records) = sweep_job(&grid, &grid.spec, 2, noop()).unwrap();
        let from_store = workload::store_paper_err(&records).unwrap();
        let direct = validation_paper_err(3, &sizes, 2).unwrap();
        assert!(
            (from_store - direct).abs() < 1e-12,
            "{from_store} vs {direct}"
        );
        std::fs::remove_dir_all(&root).unwrap();
    }

    #[test]
    fn provenance_names_commit_host_compiler_and_seed() {
        let out = Outcome {
            attempted: 4,
            failed: 1,
            ..Outcome::default()
        };
        let prov = Provenance::collect(Path::new("."));
        let record = provenance_record(&args(Workload::PopsCorpus, false), &out, &prov);
        assert!(record.get("seed").is_some());
        let extra = record.get("extra").unwrap();
        for key in ["commit", "nproc", "cpu_model", "rustc"] {
            assert!(extra.get(key).is_some(), "{key}");
        }
        assert_eq!(record.get("error_rate").and_then(Json::as_f64), Some(0.25));
    }

    #[test]
    fn arguments_parse_strictly() {
        let parse = |s: &str| Args::parse(s.split_whitespace().map(str::to_string));
        let ok = parse("--workload pops-corpus --seed 3 --seconds 10 --trace 1").unwrap();
        assert_eq!(ok.workload, Workload::PopsCorpus);
        assert!(ok.trace);
        assert!(parse("--workload pops-corpus --seed 3 --seconds 10").is_err());
        assert!(parse("--workload nope --seed 3 --seconds 10 --trace 0").is_err());
        assert!(parse("--workload pops-corpus --seed 3 --seconds 10 --trace 2").is_err());
    }
}
