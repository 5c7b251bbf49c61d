//! Run one or more coherence schemes over a trace and report the results.
//!
//! ```text
//! simulate [<scheme[,scheme...]> <trace file>] [--caches N] [--oracle]
//!          [--block BYTES] [--per-processor] [--finite SETSxWAYS]
//!          [--refs N] [--scenario NAME|FILE] [--list-scenarios]
//!          [--metrics-json PATH] [--progress]
//! ```
//!
//! With no positional arguments the paper's four headline schemes are run
//! over a synthetic POPS workload (`--refs` references, default 100 000) —
//! a self-contained demo needing no trace file. `--scenario` swaps that
//! workload for any bundled scenario by name, for a `.scn` spec file
//! parsed by the scenario language (see DESIGN.md §15), **or for a trace
//! or corpus file** — any format `open_trace` sniffs (`DTR1`, `DTR2`,
//! `DTR3` corpus, text, CSV) is accepted wherever a scenario name is; a
//! single scheme list may still be given as the only
//! positional argument. `--list-scenarios` prints the bundled registry
//! and exits.
//!
//! `<scheme>` uses the paper's notation (`Dir0B`, `Dir2NB`, `DirnNB`,
//! `CoarseVector`, `Tang`, `YenFu`, `WTI`, `Dragon`, `Berkeley`). Trace
//! files are sniffed by magic bytes first, extension second (see
//! `trace_tool`), and run in full; `--refs` sizes only synthetic
//! scenarios.
//!
//! Both kinds of input run through one `dirsim::Experiment`, which also
//! decides the cache count: a scenario's declared population, or one
//! cache per process id in a trace (per CPU id under `--per-processor`).
//! `--caches` may widen that count, never narrow it: a count too small
//! for the input, like an empty trace, is a typed error (exit 1).
//! Fixed-record `DTR1` files are memory-mapped and decoded zero-copy;
//! every file is streamed in two passes (the sizing scan, then the
//! simulation), so multi-GB corpora run in constant memory, and
//! synthetic scenarios stream straight out of their generator.
//!
//! `--metrics-json` writes a JSON-lines metrics file (run manifest,
//! per-phase engine timings, per-scheme operation counts — schema version
//! `dirsim_obs::SCHEMA_VERSION`); `--progress` reports references/sec on
//! stderr while the run is in flight.

use std::path::PathBuf;
use std::process::ExitCode;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use dirsim::obs::{MetricsRegistry, NoopRecorder, ProgressMeter, Recorder, RunManifest};
use dirsim::prelude::*;
use dirsim_cost::CostCategory;
use dirsim_mem::CacheGeometry;
use dirsim_trace::frontend::is_trace_file;
use dirsim_trace::scenario::registry;

struct Options {
    schemes: Vec<Scheme>,
    /// `None` runs the synthetic demo workload.
    path: Option<String>,
    /// Synthetic workload: bundled scenario name or spec-file path.
    scenario: Option<String>,
    list_scenarios: bool,
    caches: Option<u32>,
    oracle: bool,
    block_bytes: u32,
    per_processor: bool,
    finite: Option<CacheGeometry>,
    refs: usize,
    metrics_json: Option<PathBuf>,
    progress: bool,
}

fn parse_args() -> Result<Options, Box<dyn std::error::Error>> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let usage = "usage: simulate [<scheme> <trace>] [--caches N] [--oracle] \
                 [--block BYTES] [--per-processor] [--finite SETSxWAYS] \
                 [--refs N] [--scenario NAME|FILE] [--list-scenarios] \
                 [--metrics-json PATH] [--progress]";
    let mut positional = Vec::new();
    let mut opts = Options {
        schemes: vec![Scheme::Dragon],
        path: None,
        scenario: None,
        list_scenarios: false,
        caches: None,
        oracle: false,
        block_bytes: 16,
        per_processor: false,
        finite: None,
        refs: 100_000,
        metrics_json: None,
        progress: false,
    };
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--oracle" => opts.oracle = true,
            "--per-processor" => opts.per_processor = true,
            "--progress" => opts.progress = true,
            "--list-scenarios" => opts.list_scenarios = true,
            "--scenario" => {
                i += 1;
                opts.scenario = Some(args.get(i).ok_or(usage)?.clone());
            }
            "--caches" => {
                i += 1;
                opts.caches = Some(
                    args.get(i)
                        .ok_or(usage)?
                        .parse()
                        .map_err(|_| "--caches expects a number")?,
                );
            }
            "--block" => {
                i += 1;
                opts.block_bytes = args
                    .get(i)
                    .ok_or(usage)?
                    .parse()
                    .map_err(|_| "--block expects a number of bytes")?;
            }
            "--refs" => {
                i += 1;
                opts.refs = args
                    .get(i)
                    .ok_or(usage)?
                    .parse()
                    .map_err(|_| "--refs expects a number")?;
            }
            "--metrics-json" => {
                i += 1;
                opts.metrics_json = Some(PathBuf::from(args.get(i).ok_or(usage)?));
            }
            "--finite" => {
                i += 1;
                let spec = args.get(i).ok_or(usage)?;
                let (sets, ways) = spec
                    .split_once('x')
                    .ok_or("--finite expects SETSxWAYS, e.g. 64x4")?;
                opts.finite = Some(CacheGeometry {
                    sets: sets.parse().map_err(|_| "bad set count")?,
                    ways: ways.parse().map_err(|_| "bad way count")?,
                });
            }
            other => positional.push(other.to_string()),
        }
        i += 1;
    }
    match &positional[..] {
        [] => {
            // Demo mode: the paper's headline schemes over a synthetic
            // scenario (POPS unless --scenario says otherwise).
            opts.schemes = Scheme::paper_lineup();
        }
        [scheme] if opts.scenario.is_some() => {
            opts.schemes = scheme
                .split(',')
                .map(str::parse)
                .collect::<Result<Vec<Scheme>, _>>()?;
        }
        [scheme, path] => {
            if opts.scenario.is_some() {
                return Err("--scenario and a trace file are mutually exclusive".into());
            }
            opts.schemes = scheme
                .split(',')
                .map(str::parse)
                .collect::<Result<Vec<Scheme>, _>>()?;
            opts.path = Some(path.clone());
        }
        _ => return Err(usage.into()),
    }
    Ok(opts)
}

fn run() -> Result<(), Box<dyn std::error::Error>> {
    let opts = parse_args()?;

    if opts.list_scenarios {
        println!(
            "{:<18} {:>5} {:>5}  description",
            "scenario", "cpus", "procs"
        );
        for s in registry() {
            println!(
                "{:<18} {:>5} {:>5}  {}",
                s.name(),
                s.config().cpus,
                s.config().processes,
                s.description()
            );
        }
        return Ok(());
    }

    let registry = opts
        .metrics_json
        .as_ref()
        .map(|_| Arc::new(MetricsRegistry::new()));
    let recorder: Arc<dyn Recorder> = match &registry {
        Some(r) => Arc::clone(r) as Arc<dyn Recorder>,
        None => Arc::new(NoopRecorder),
    };
    let meter = Arc::new(Mutex::new(if opts.progress {
        ProgressMeter::stderr("refs", Duration::from_millis(500))
    } else {
        ProgressMeter::disabled()
    }));

    // Resolve the input: an explicit trace file, a --scenario value that
    // names a trace/corpus file (both run in full), or a synthetic
    // scenario (the bundled POPS spec unless --scenario overrides it).
    let scenario_arg = opts.scenario.as_deref();
    let trace_path = match (&opts.path, scenario_arg) {
        (Some(path), _) => Some(path.clone()),
        (None, Some(arg)) if is_trace_file(arg) => Some(arg.to_string()),
        _ => None,
    };
    let (workload, refs, seed) = match trace_path {
        Some(path) => (NamedWorkload::trace(&path, &path), usize::MAX, None),
        None => {
            let scenario = Scenario::resolve(scenario_arg.unwrap_or("pops"))?;
            let config = scenario.config();
            let desc = format!(
                "scenario:{}(cpus={}, seed={:#x})",
                scenario.name(),
                config.cpus,
                config.seed
            );
            let workload = NamedWorkload::new(desc, config.clone());
            (workload, opts.refs, Some(config.seed))
        }
    };
    let config = SimConfig {
        block_map: BlockMap::new(opts.block_bytes)?,
        sharing: if opts.per_processor {
            SharingModel::PerProcessor
        } else {
            SharingModel::PerProcess
        },
        check_oracle: opts.oracle,
        geometry: opts.finite,
        ..SimConfig::default()
    };

    // One single-pass broadcast run covers every requested scheme and
    // feeds the phase/scheme instrumentation. A trace that fails to open
    // or decode is reported under its path.
    let started = Instant::now();
    let input = workload.name.clone();
    let mut ran = Experiment::new()
        .workload(workload)
        .schemes(opts.schemes.clone())
        .refs_per_trace(refs)
        .sim_config(config)
        .caches(opts.caches)
        .recorder(Arc::clone(&recorder))
        .progress(Arc::clone(&meter))
        .run()
        .map_err(|e| -> Box<dyn std::error::Error> {
            match e {
                dirsim::Error::TraceIo(e) => format!("{input}: {e}").into(),
                e => e.into(),
            }
        })?;
    let wall = started.elapsed().as_secs_f64();
    let (trace_desc, stats) = ran.trace_stats.remove(0);
    let caches = ran.caches[0];
    let observed = stats.total();
    meter
        .lock()
        .expect("progress meter poisoned")
        .finish(observed, None);
    let results: Vec<SimResult> = ran.per_scheme.into_iter().map(|s| s.combined).collect();

    if let (Some(path), Some(registry)) = (&opts.metrics_json, &registry) {
        let mut manifest = RunManifest::new("simulate")
            .schemes(results.iter().map(|r| r.scheme.clone()))
            .mode("single-pass")
            .trace(&trace_desc)
            .refs(observed)
            .wall_secs(wall)
            .extra("caches", &caches.to_string())
            .extra("block_bytes", &opts.block_bytes.to_string());
        if let Some(seed) = seed {
            manifest = manifest.seed(seed);
        }
        dirsim::obs::write_jsonl_file(path, &manifest, registry)
            .map_err(|e| format!("{}: {e}", path.display()))?;
        eprintln!("metrics written to {}", path.display());
    }

    if results.len() > 1 {
        // Comparison mode: one summary row per scheme.
        println!("trace:    {trace_desc} ({stats})");
        println!(
            "{:>14} {:>12} {:>12} {:>10} {:>10}",
            "scheme", "pipelined", "non-pipelined", "txns/ref", "miss rate"
        );
        for result in &results {
            let bd = result.breakdown(CostModel::pipelined());
            println!(
                "{:>14} {:>12.4} {:>12.4} {:>10.4} {:>9.3}%",
                result.scheme,
                bd.cycles_per_ref(),
                result.cycles_per_ref(CostModel::non_pipelined()),
                bd.transactions_per_ref(),
                result.events.data_miss_rate() * 100.0,
            );
        }
        return Ok(());
    }

    let result = &results[0];
    println!("trace:    {trace_desc} ({stats})");
    println!(
        "scheme:   {} over {caches} caches ({} sharing, {}-byte blocks{})",
        result.scheme,
        config.sharing,
        opts.block_bytes,
        match opts.finite {
            Some(g) => format!(", finite {}x{}", g.sets, g.ways),
            None => ", infinite caches".to_string(),
        }
    );
    if opts.oracle {
        println!("oracle:   every data movement audited — coherent ✓");
    }
    println!("\nevent frequencies (% of refs):");
    for (kind, count) in result.events.iter() {
        if count > 0 {
            println!(
                "  {:<14} {:>8.3}  ({count})",
                kind.name(),
                result.events.frequency(kind) * 100.0
            );
        }
    }
    println!("\ncost:");
    for model in [CostModel::pipelined(), CostModel::non_pipelined()] {
        let bd = result.breakdown(model);
        println!(
            "  {:>14}: {:.4} cycles/ref  ({:.2} cycles/txn, {:.4} txns/ref)",
            model.kind().to_string(),
            bd.cycles_per_ref(),
            bd.cycles_per_transaction(),
            bd.transactions_per_ref()
        );
    }
    let bd = result.breakdown(CostModel::pipelined());
    println!("  pipelined breakdown:");
    for cat in CostCategory::ALL {
        if bd[cat] > 0.0 {
            println!("    {:<11} {:.4}", cat.name(), bd[cat]);
        }
    }
    if result.fanout.total() > 0 {
        println!(
            "\nclean-write invalidations ≤1 cache: {:.1}% (of {})",
            result.fanout.fraction_at_most(1) * 100.0,
            result.fanout.total()
        );
    }
    if result.capacity_evictions > 0 {
        println!("capacity evictions: {}", result.capacity_evictions);
    }
    Ok(())
}

fn main() -> ExitCode {
    match run() {
        Ok(()) => ExitCode::SUCCESS,
        Err(err) => {
            dirsim_bench::report_error("simulate", err.as_ref());
            ExitCode::FAILURE
        }
    }
}
