//! CI throughput smoke test: runs the paper's extended scheme matrix
//! three ways and fails if the single-pass engine is slower than one
//! pass per scheme — the engine's per-reference work is identical, so a
//! slowdown means a structural regression (an extra pass over the trace,
//! a per-reference allocation), never tuning drift.
//!
//! Three modes are timed: `serial` (the paper's method: each workload
//! materialised once, then one single-scheme engine pass per scheme and
//! workload over the materialised trace, lent inline), `single-pass`
//! (one `Experiment` run on one worker) and `sharded` (the same on `n`
//! workers, `n` the available core count). The generated workloads
//! decode on the engine's producer thread in both `Experiment` modes —
//! the source, not the worker count, decides where decode runs.
//!
//! Two rounds run back to back: the paper's **infinite**-cache model
//! (block-sharded) and a **finite** 64-set × 4-way geometry (set-sharded,
//! with real LRU replacement traffic). Each round gets the same paired
//! gate, so the finite-cache engine path is held to the same bar the
//! infinite path has been since it was parallelised.
//!
//! A third, decode-bound round exercises corpus ingestion: a generated
//! DTR1 file (`--decode-refs`, default 10^7 references) is drained
//! through the buffered reader and through the mmap-backed zero-copy
//! source, back to back per round. Both rates are exported
//! (`buffered_decode_refs_per_sec`, `mmap_decode_refs_per_sec`, plus
//! their ratio) so `bench_gate` ratchets the decode path alongside the
//! engine; the round only hard-fails when mmap decode falls below 0.8×
//! buffered — a structural loss, since the mmap path does strictly less
//! work per record. One instrumented simulation over the buffered source
//! (which decodes on the producer thread) then records
//! `decode_stall_seconds`; the mmap source decodes inline, so it has no
//! stall to record.
//!
//! Usage: `throughput_smoke [refs_per_trace] [--metrics-json <path>]
//! [--bench-json <path>] [--decode-refs N]` (default 100 000 references
//! per trace)
//!
//! Prints one row per mode with wall time, engine steps per second
//! (references × schemes), and speedup over serial. The sharded rows are
//! informational: their speedup depends on the core count of the machine,
//! so they warn rather than fail when they lose to single-pass.
//!
//! `--metrics-json` records the measured timings (`smoke_best_seconds`,
//! `steps_per_sec` per `{cache, mode}`, `smoke_best_ratio` per
//! `{cache}`) as JSON lines after the gate's measurements complete, so
//! exporting never perturbs the timing; it then runs one instrumented
//! parallel pass per cache model so the pipeline metrics
//! (`decode_stall_seconds`, `step_stall_seconds`, `pipeline_queue_depth`,
//! `pipeline_occupancy`) land in the same file for schema validation.
//! `--bench-json` additionally writes a one-object perf-trajectory file
//! (`BENCH_throughput.json` in CI) whose `metrics` map holds one
//! steps/sec entry per cache-model × mode pair.

use std::process::ExitCode;
use std::sync::Arc;
use std::time::Instant;

use dirsim::obs::{Json, MetricsRegistry, Recorder, RunManifest};
use dirsim::prelude::{MemRef, PaperTrace, Scheme, SliceSource};
use dirsim::{BroadcastSimulator, Experiment, ExperimentResults, SimConfig};
use dirsim_mem::CacheGeometry;
use dirsim_trace::io::{read_binary, write_binary};
use dirsim_trace::{BorrowedChunkSource, MmapTraceSource, Scenario, TraceSource};

/// Floor on measured wall time per timed pass. Coarse clocks (or an
/// absurdly small ref count) can report ~0 elapsed seconds; rather than
/// clamping the divisor — which silently turns a too-short measurement
/// into a bogus but finite rate — the harness *calibrates* the reference
/// count upward until a probe pass exceeds this floor, so every timed
/// round is comfortably above clock granularity and no clamp is needed.
const MIN_SECS: f64 = 5e-3;

/// Upper bound on calibration doublings: 2^20 × the requested refs is
/// far past any plausible clock-granularity problem, so hitting this
/// means the clock is broken, not the workload too small.
const MAX_CALIBRATION_DOUBLINGS: u32 = 20;

/// Doubles `refs` until a single-pass probe takes at least [`MIN_SECS`].
/// Calibrating on the infinite-cache experiment (the fastest per
/// reference) guarantees the slower finite round clears the floor too.
fn calibrate_refs(mut refs: usize) -> Result<usize, dirsim::Error> {
    for _ in 0..MAX_CALIBRATION_DOUBLINGS {
        let exp = dirsim::paper::extended_experiment(refs);
        let start = Instant::now();
        exp.run()?;
        if start.elapsed().as_secs_f64() >= MIN_SECS {
            break;
        }
        refs *= 2;
    }
    Ok(refs)
}

/// Paired rounds per cache model. Shared-runner noise is bursty, so
/// unpaired timings are useless: a slow patch of machine can double any
/// individual measurement. Each round times all modes back-to-back and
/// the gates look at per-round *ratios* (adjacent measurements see the
/// same machine conditions), judging each gated mode by its best round.
const ROUNDS: usize = 5;

/// The finite-cache geometry for the finite round: small enough that the
/// paper workloads generate steady replacement traffic, large enough that
/// the run is not pure eviction churn.
const FINITE_GEOMETRY: CacheGeometry = CacheGeometry { sets: 64, ways: 4 };

const MODES: usize = 3;

/// Mode order: serial (index 0) and single-pass (index 1) form the gated
/// pair; sharded (index 2) spreads the steps over every core.
const MODE_LABELS: [&str; MODES] = ["serial", "single-pass", "sharded"];

/// The worker count per mode: `None` is the serial mode, `Some(w)` one
/// `Experiment` run on `w` workers.
fn modes(workers: usize) -> [Option<usize>; MODES] {
    [None, Some(1), Some(workers)]
}

fn steps_of(results: &ExperimentResults) -> u64 {
    results.per_scheme.iter().map(|s| s.combined.refs).sum()
}

/// The serial mode: materialise each paper workload once, then one
/// single-scheme engine pass per (scheme, workload) over the
/// materialised trace, lent inline. Returns the engine steps taken.
fn serial(sim: SimConfig, refs: usize) -> Result<u64, dirsim::Error> {
    let traces: Vec<(u32, Vec<MemRef>)> = PaperTrace::ALL
        .iter()
        .map(|t| {
            let scenario = t.scenario();
            let trace = scenario.workload().take(refs).collect();
            (scenario.config().processes, trace)
        })
        .collect();
    let engine = BroadcastSimulator::new(sim);
    let mut steps = 0;
    for scheme in dirsim::paper::extended_schemes() {
        for (caches, trace) in &traces {
            steps += engine.run(&[scheme], *caches, SliceSource::new(trace))?[0].refs;
        }
    }
    Ok(steps)
}

/// The extended matrix at `refs` references per workload under `sim`.
fn experiment(sim: SimConfig, refs: usize) -> Experiment {
    dirsim::paper::extended_experiment(refs).sim_config(sim)
}

fn timed(sim: SimConfig, refs: usize, mode: Option<usize>) -> Result<(f64, u64), dirsim::Error> {
    let exp = mode.map(|workers| experiment(sim, refs).workers(workers));
    let start = Instant::now();
    let steps = match exp {
        None => serial(sim, refs)?,
        Some(exp) => steps_of(&exp.run()?),
    };
    // No clamp: `calibrate_refs` scaled the workload past MIN_SECS, so
    // the elapsed time is genuinely non-zero.
    Ok((start.elapsed().as_secs_f64(), steps))
}

/// One cache model's paired measurement: best seconds and steps per mode,
/// plus the best per-round serial / single-pass ratio the gate judges.
struct Round {
    best: [f64; MODES],
    steps: [u64; MODES],
    best_ratio: f64,
}

fn measure(sim: SimConfig, refs: usize, workers: usize) -> Result<Round, dirsim::Error> {
    // Warm-up pass: first-touch page faults and lazy allocations land
    // here instead of skewing round one.
    experiment(sim, refs).run()?;
    let mut best = [f64::INFINITY; MODES];
    let mut steps = [0u64; MODES];
    let mut best_ratio = 0.0f64;
    for _ in 0..ROUNDS {
        let mut round = [f64::INFINITY; MODES];
        for (i, &mode) in modes(workers).iter().enumerate() {
            let (secs, n) = timed(sim, refs, mode)?;
            round[i] = secs;
            best[i] = best[i].min(secs);
            steps[i] = n;
        }
        // Calibration keeps every measurement above MIN_SECS, so the
        // ratio is finite.
        best_ratio = best_ratio.max(round[0] / round[1]);
    }
    Ok(Round {
        best,
        steps,
        best_ratio,
    })
}

/// Prints the per-mode table for one round and returns steps/sec per mode.
fn report(label: &str, round: &Round) -> [f64; MODES] {
    println!(
        "[{label}] {:>12} {:>9} {:>14} {:>9}",
        "mode", "seconds", "steps/sec", "vs serial"
    );
    let mut rates = [0.0f64; MODES];
    for i in 0..MODES {
        rates[i] = round.steps[i] as f64 / round.best[i];
        let speedup = rates[i] / rates[0];
        println!(
            "[{label}] {:>12} {:>9.2} {:>14.0} {speedup:>8.2}x",
            MODE_LABELS[i], round.best[i], rates[i]
        );
    }
    rates
}

/// Applies the gate to one round: single-pass must reach 90% of serial
/// throughput in at least one paired round; sharded only warns.
fn gate(label: &str, round: &Round, rates: &[f64; MODES], workers: usize) -> bool {
    // 10% guard band on the best paired round: a real regression slows
    // every round well past this; noise does not slow all five.
    if round.best_ratio < 0.90 {
        eprintln!(
            "FAIL[{label}]: single-pass never reached serial throughput \
             (best round {:.2}x serial)",
            round.best_ratio
        );
        return false;
    }
    let (single_pass, sharded) = (rates[1], rates[2]);
    if workers > 1 && sharded < single_pass {
        eprintln!(
            "warning[{label}]: sharded ({sharded:.0} steps/sec) did not beat \
             single-pass ({single_pass:.0} steps/sec) on this machine"
        );
    }
    println!(
        "OK[{label}]: single-pass best round is {:.2}x serial",
        round.best_ratio
    );
    true
}

/// Default size of the generated decode-round corpus: large enough that
/// the round is bound by record decode (the file no longer fits any
/// reasonable L2), small enough to generate in seconds.
const DECODE_REFS: usize = 10_000_000;

/// Floor on mmap-vs-buffered decode: the zero-copy path does strictly
/// less work per record, so falling below 0.8× buffered is structural
/// (a copy or allocation crept back in), not noise.
const DECODE_FLOOR: f64 = 0.8;

/// The decode-bound corpus round's measurements.
struct DecodeRound {
    refs: u64,
    /// Best wall seconds per path across the paired rounds.
    buffered_best: f64,
    mmap_best: f64,
    /// Total `decode_stall_seconds` from one instrumented simulation
    /// over the buffered source, which decodes on the producer thread
    /// (evidence, not gated).
    stall_buffered: f64,
}

impl DecodeRound {
    fn buffered_rate(&self) -> f64 {
        self.refs as f64 / self.buffered_best
    }

    fn mmap_rate(&self) -> f64 {
        self.refs as f64 / self.mmap_best
    }

    fn ratio(&self) -> f64 {
        self.mmap_rate() / self.buffered_rate()
    }
}

/// Drains the whole file through the buffered reader; returns (secs, refs).
fn drain_buffered(path: &std::path::Path) -> Result<(f64, u64), Box<dyn std::error::Error>> {
    let file = std::fs::File::open(path)?;
    let mut src = read_binary(std::io::BufReader::new(file));
    let mut chunk = Vec::new();
    let mut n = 0u64;
    let start = Instant::now();
    while src.read_chunk(&mut chunk, 32_768)? > 0 {
        n += chunk.len() as u64;
    }
    Ok((start.elapsed().as_secs_f64().max(MIN_SECS), n))
}

/// Drains the whole file through the mmap source's borrowed-chunk view
/// (the zero-copy path the engine takes); returns (secs, refs).
fn drain_mmap(path: &std::path::Path) -> Result<(f64, u64), Box<dyn std::error::Error>> {
    let mut src = MmapTraceSource::open(path)?;
    let mut n = 0u64;
    let start = Instant::now();
    loop {
        let chunk = src.next_chunk(32_768)?;
        if chunk.is_empty() {
            break;
        }
        n += chunk.len() as u64;
    }
    Ok((start.elapsed().as_secs_f64().max(MIN_SECS), n))
}

/// One instrumented simulation over a corpus source that decodes on the
/// producer thread; returns the total `decode_stall_seconds` the step
/// side accumulated.
fn decode_stall<S>(source: S) -> Result<f64, dirsim::Error>
where
    S: TraceSource + Send,
{
    let registry = Arc::new(MetricsRegistry::new());
    BroadcastSimulator::paper()
        .recorder(Arc::clone(&registry) as Arc<dyn Recorder>)
        .run(&[Scheme::Wti], 4, source)?;
    Ok(registry
        .histogram_summary("decode_stall_seconds", &[])
        .map(|s| s.sum)
        .unwrap_or(0.0))
}

/// Generates the decode corpus, runs the paired buffered/mmap rounds,
/// and takes the buffered source's stall evidence.
fn measure_decode(decode_refs: usize) -> Result<DecodeRound, Box<dyn std::error::Error>> {
    let path = std::env::temp_dir().join(format!("dirsim-smoke-decode-{}.dtr", std::process::id()));
    let workload = Scenario::named("pops").expect("bundled scenario");
    {
        let file = std::fs::File::create(&path)?;
        let mut w = std::io::BufWriter::new(file);
        write_binary(&mut w, workload.workload().take(decode_refs))?;
        std::io::Write::flush(&mut w)?;
    }
    // Warm-up drains: page-cache population and first-touch faults land
    // here instead of skewing round one of either path.
    drain_buffered(&path)?;
    drain_mmap(&path)?;
    let mut round = DecodeRound {
        refs: decode_refs as u64,
        buffered_best: f64::INFINITY,
        mmap_best: f64::INFINITY,
        stall_buffered: 0.0,
    };
    for _ in 0..ROUNDS {
        let (secs, n) = drain_buffered(&path)?;
        assert_eq!(n, round.refs, "buffered decode dropped records");
        round.buffered_best = round.buffered_best.min(secs);
        let (secs, n) = drain_mmap(&path)?;
        assert_eq!(n, round.refs, "mmap decode dropped records");
        round.mmap_best = round.mmap_best.min(secs);
    }
    round.stall_buffered = decode_stall(read_binary(std::io::BufReader::new(
        std::fs::File::open(&path)?,
    )))?;
    std::fs::remove_file(&path).ok();
    Ok(round)
}

fn report_decode(round: &DecodeRound) -> bool {
    println!(
        "[decode] {:>12} {:>9} {:>14}",
        "source", "seconds", "refs/sec"
    );
    println!(
        "[decode] {:>12} {:>9.3} {:>14.0}",
        "buffered",
        round.buffered_best,
        round.buffered_rate()
    );
    println!(
        "[decode] {:>12} {:>9.3} {:>14.0}",
        "mmap",
        round.mmap_best,
        round.mmap_rate()
    );
    println!(
        "[decode] buffered decode_stall_seconds: {:.4}",
        round.stall_buffered
    );
    let ratio = round.ratio();
    if ratio < DECODE_FLOOR {
        eprintln!(
            "FAIL[decode]: mmap decode reached only {ratio:.2}x buffered \
             (floor {DECODE_FLOOR:.2}x) — the zero-copy path regressed structurally"
        );
        return false;
    }
    if ratio < 1.0 {
        eprintln!(
            "warning[decode]: mmap decode ({:.0} refs/sec) did not beat buffered \
             ({:.0} refs/sec) on this machine ({ratio:.2}x)",
            round.mmap_rate(),
            round.buffered_rate()
        );
    } else {
        println!("OK[decode]: mmap decode is {ratio:.2}x buffered");
    }
    true
}

fn run() -> Result<ExitCode, Box<dyn std::error::Error>> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut refs: usize = 100_000;
    let mut decode_refs: usize = DECODE_REFS;
    let mut metrics_json: Option<String> = None;
    let mut bench_json: Option<String> = None;
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--metrics-json" => {
                i += 1;
                metrics_json = Some(args.get(i).ok_or("--metrics-json requires a path")?.clone());
            }
            "--bench-json" => {
                i += 1;
                bench_json = Some(args.get(i).ok_or("--bench-json requires a path")?.clone());
            }
            "--decode-refs" => {
                i += 1;
                decode_refs = args
                    .get(i)
                    .ok_or("--decode-refs requires a number")?
                    .parse()
                    .map_err(|_| "--decode-refs requires a number")?;
            }
            other => {
                refs = other.parse().map_err(|_| {
                    format!(
                        "unknown argument {other}; usage: throughput_smoke \
                         [refs_per_trace] [--metrics-json <path>] [--bench-json <path>] \
                         [--decode-refs N]"
                    )
                })?;
            }
        }
        i += 1;
    }

    let workers = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    let requested = refs;
    let refs = calibrate_refs(refs)?;
    if refs != requested {
        println!(
            "calibrated refs_per_trace {requested} -> {refs} so every timed \
             pass exceeds the {MIN_SECS}s floor"
        );
    }
    let infinite = SimConfig::default();
    let finite = SimConfig {
        geometry: Some(FINITE_GEOMETRY),
        ..SimConfig::default()
    };
    let matrix = experiment(infinite, refs);
    println!(
        "throughput smoke: {} workloads x {} schemes at {refs} refs/trace \
         ({workers} cores; finite round {}x{})",
        matrix.workload_count(),
        matrix.scheme_count(),
        FINITE_GEOMETRY.sets,
        FINITE_GEOMETRY.ways,
    );

    let started = Instant::now();
    let caches = [("infinite", infinite), ("finite", finite)];
    let mut rounds = Vec::with_capacity(caches.len());
    for &(label, sim) in &caches {
        let round = measure(sim, refs, workers)?;
        let rates = report(label, &round);
        rounds.push((label, round, rates));
    }
    let decode = measure_decode(decode_refs)?;

    // Export after every measurement so recording can't perturb the gate.
    if let Some(path) = &metrics_json {
        let registry = Arc::new(MetricsRegistry::new());
        for (cache, round, _) in &rounds {
            for (i, mode) in MODE_LABELS.iter().enumerate() {
                let labels = [("cache", *cache), ("mode", mode)];
                registry.gauge("smoke_best_seconds", &labels, round.best[i]);
                registry.gauge(
                    "steps_per_sec",
                    &labels,
                    round.steps[i] as f64 / round.best[i],
                );
            }
            registry.gauge("smoke_best_ratio", &[("cache", *cache)], round.best_ratio);
        }
        // The corpus decode round: paired rates per source, plus the
        // stall evidence from the buffered source's producer thread.
        for (source, rate) in [
            ("buffered", decode.buffered_rate()),
            ("mmap", decode.mmap_rate()),
        ] {
            registry.gauge("decode_refs_per_sec", &[("source", source)], rate);
        }
        registry.gauge(
            "corpus_pipelined_stall_seconds",
            &[("source", "buffered")],
            decode.stall_buffered,
        );
        // One instrumented parallel pass per cache model (after all the
        // timing): the generated workloads decode on the producer thread,
        // so the pipeline-overlap metrics land in the exported file and
        // CI schema-validates their names and shapes.
        for &(_, sim) in &caches {
            experiment(sim, refs)
                .recorder(Arc::clone(&registry) as Arc<dyn Recorder>)
                .workers(workers.min(2))
                .run()?;
        }
        let manifest = RunManifest::new("throughput_smoke")
            .schemes(dirsim::paper::extended_schemes().iter().map(|s| s.name()))
            .mode("paired-rounds")
            .trace("synth:paper-workloads")
            .refs(refs as u64)
            .wall_secs(started.elapsed().as_secs_f64())
            .extra("rounds", &ROUNDS.to_string())
            .extra("workers", &workers.to_string())
            .extra(
                "finite_geometry",
                &format!("{}x{}", FINITE_GEOMETRY.sets, FINITE_GEOMETRY.ways),
            );
        dirsim::obs::write_jsonl_file(std::path::Path::new(path), &manifest, &registry)
            .map_err(|e| format!("{path}: {e}"))?;
        eprintln!("metrics written to {path}");
    }

    if let Some(path) = &bench_json {
        // Perf-trajectory file: one flat metrics map per CI run, so a
        // plotting job can chart steps/sec per cache model × mode over
        // commit history.
        let mut metrics = Vec::new();
        for (cache, round, rates) in &rounds {
            for i in 0..MODES {
                let key = format!("{cache}_{}_steps_per_sec", MODE_LABELS[i].replace('-', "_"));
                metrics.push((key, dirsim::obs::json::float(rates[i])));
            }
            metrics.push((
                format!("{cache}_best_ratio"),
                dirsim::obs::json::float(round.best_ratio),
            ));
        }
        metrics.push((
            "buffered_decode_refs_per_sec".into(),
            dirsim::obs::json::float(decode.buffered_rate()),
        ));
        metrics.push((
            "mmap_decode_refs_per_sec".into(),
            dirsim::obs::json::float(decode.mmap_rate()),
        ));
        metrics.push((
            "mmap_over_buffered_decode_ratio".into(),
            dirsim::obs::json::float(decode.ratio()),
        ));
        // Same record shape the CI trajectory archive appends to
        // BENCH_history.jsonl: commit + date identify the point on the
        // perf curve, the metrics map is what gets plotted (and gated).
        let commit = std::env::var("GITHUB_SHA")
            .or_else(|_| std::env::var("DIRSIM_COMMIT"))
            .unwrap_or_else(|_| "local".into());
        let doc = Json::Obj(vec![
            ("bench".into(), Json::Str("throughput".into())),
            ("commit".into(), Json::Str(commit)),
            ("date".into(), Json::Str(utc_date_string())),
            ("refs_per_trace".into(), Json::Int(refs as i128)),
            ("decode_refs".into(), Json::Int(decode_refs as i128)),
            ("workers".into(), Json::Int(workers as i128)),
            ("metrics".into(), Json::Obj(metrics)),
        ]);
        std::fs::write(path, doc.to_string_compact() + "\n").map_err(|e| format!("{path}: {e}"))?;
        eprintln!("perf trajectory written to {path}");
    }

    let mut ok = true;
    for (cache, round, rates) in &rounds {
        ok &= gate(cache, round, rates, workers);
    }
    ok &= report_decode(&decode);
    Ok(if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

/// UTC calendar date (`YYYY-MM-DD`) without a date-time dependency:
/// Howard Hinnant's `civil_from_days` on the epoch day count.
fn utc_date_string() -> String {
    let secs = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map(|d| d.as_secs())
        .unwrap_or(0);
    let z = (secs / 86_400) as i64 + 719_468;
    let era = z.div_euclid(146_097);
    let doe = z.rem_euclid(146_097);
    let yoe = (doe - doe / 1460 + doe / 36_524 - doe / 146_096) / 365;
    let doy = doe - (365 * yoe + yoe / 4 - yoe / 100);
    let mp = (5 * doy + 2) / 153;
    let d = doy - (153 * mp + 2) / 5 + 1;
    let m = if mp < 10 { mp + 3 } else { mp - 9 };
    let y = yoe + era * 400 + i64::from(m <= 2);
    format!("{y:04}-{m:02}-{d:02}")
}

fn main() -> ExitCode {
    match run() {
        Ok(code) => code,
        Err(err) => {
            dirsim_bench::report_error("throughput_smoke", err.as_ref());
            ExitCode::FAILURE
        }
    }
}
