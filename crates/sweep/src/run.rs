//! The sweep executor: a worker pool of pipelined engines over the
//! pending cells.
//!
//! Scheduling is deliberately simple. Cells are independent (the grid is
//! a cross product, and every cell regenerates its workload from the
//! scenario seed or re-streams its trace file), so a shared work queue
//! plus a result channel is all the coordination needed. Each worker runs
//! its cell through the normal [`Experiment`] front door with one engine
//! worker (`Parallel { workers: 1 }`) — the cell's generator or trace
//! decoder runs on the engine's producer thread, overlapped with
//! simulation inside the cell, and cells run in parallel across the
//! pool — which keeps every result bit-identical to a serial `simulate`
//! run of the same configuration (the equivalence the engine's tier-1
//! tests pin).
//!
//! The main thread owns the store: workers never touch the file, results
//! are appended (and flushed) in completion order, and a crash between
//! appends loses only cells that had not finished. Progress goes through
//! [`dirsim_obs::ProgressMeter`] — cells done/total, aggregate refs/sec,
//! and an ETA from the mean cell time so far.

use std::sync::mpsc;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use dirsim::{BroadcastSimulator, ExecutionMode, Experiment, NamedWorkload, SimConfig, SimResult};
use dirsim_cost::CostModel;
use dirsim_obs::{NoopRecorder, ProgressMeter, Recorder};
use dirsim_trace::{open_trace, TakeSource, TraceSource, TraceStats};

use crate::cell::{Cell, CellInput, CellRecord};
use crate::store::Store;
use crate::{SweepError, SweepSpec};

/// Tuning knobs for [`run_sweep`].
#[derive(Debug)]
pub struct SweepOptions {
    /// Worker threads; 0 means one per available CPU.
    pub workers: usize,
    /// Emit live progress to stderr.
    pub progress: bool,
    /// Metrics sink for sweep-level counters (cells run/skipped, refs).
    pub recorder: Arc<dyn Recorder>,
}

impl Default for SweepOptions {
    fn default() -> Self {
        SweepOptions {
            workers: 0,
            progress: false,
            recorder: Arc::new(NoopRecorder),
        }
    }
}

/// What one [`run_sweep`] call did.
#[derive(Debug, Clone, PartialEq)]
pub struct SweepSummary {
    /// Cells in the expanded grid.
    pub total: usize,
    /// Cells simulated by this invocation.
    pub ran: usize,
    /// Cells already in the store, left untouched.
    pub skipped: usize,
    /// References simulated by this invocation.
    pub refs_simulated: u64,
    /// Wall-clock seconds spent running cells.
    pub wall_secs: f64,
}

/// Expands `spec`, skips every cell already in `store`, runs the rest
/// over a worker pool, and streams each completed cell to the store.
///
/// # Errors
///
/// Returns the first [`SweepError`] hit: spec expansion, a cell's
/// simulation, or a store append. Cells completed before the failure are
/// already durable in the store, so a re-run resumes past them.
pub fn run_sweep(
    spec: &SweepSpec,
    store: &mut Store,
    opts: &SweepOptions,
) -> Result<SweepSummary, SweepError> {
    let cells = spec.expand()?;
    let total = cells.len();
    let pending: Vec<Cell> = cells
        .into_iter()
        .filter(|c| !store.contains(&c.hash))
        .collect();
    let skipped = total - pending.len();
    let refs_pending: u64 = pending.iter().map(|c| c.refs as u64).sum();
    opts.recorder
        .counter("sweep_cells_total", &[], total as u64);
    opts.recorder
        .counter("sweep_cells_skipped", &[], skipped as u64);

    let workers = effective_workers(opts.workers, pending.len());
    let mut meter = progress_meter(opts.progress, total, skipped);
    let start = Instant::now();

    let mut ran = 0usize;
    let mut refs_simulated = 0u64;
    let mut first_err: Option<SweepError> = None;

    if !pending.is_empty() {
        let queue = Mutex::new(pending.into_iter());
        let queue = &queue;
        let (tx, rx) = mpsc::channel::<(Cell, Result<CellRecord, SweepError>)>();
        std::thread::scope(|scope| {
            for _ in 0..workers {
                let tx = tx.clone();
                scope.spawn(move || loop {
                    let cell = queue.lock().expect("queue poisoned").next();
                    let Some(cell) = cell else { break };
                    let result = run_cell(&cell);
                    if tx.send((cell, result)).is_err() {
                        break; // main thread stopped listening
                    }
                });
            }
            drop(tx);
            for (cell, result) in rx {
                let record = match result {
                    Ok(record) => record,
                    Err(e) => {
                        first_err = Some(e);
                        // Dropping the receiver makes every worker's next
                        // send fail, draining the pool.
                        break;
                    }
                };
                if let Err(e) = store.append(&record) {
                    first_err = Some(e.into());
                    break;
                }
                ran += 1;
                refs_simulated += record.refs;
                let scheme = cell.scheme.name();
                opts.recorder
                    .counter("sweep_cells_run", &[("scheme", scheme.as_str())], 1);
                opts.recorder.counter("sweep_refs", &[], record.refs);
                let eta = eta_secs(start.elapsed(), refs_simulated, refs_pending);
                meter.tick_now(ran as u64, eta);
            }
        });
    }
    if let Some(e) = first_err {
        return Err(e);
    }

    let wall_secs = start.elapsed().as_secs_f64();
    meter.finish(ran as u64, None);
    Ok(SweepSummary {
        total,
        ran,
        skipped,
        refs_simulated,
        wall_secs,
    })
}

/// Runs one cell and condenses the result into its store record.
///
/// Synthetic cells go through the normal [`Experiment`] front door;
/// trace cells stream their file through the frontend registry into a
/// one-worker [`BroadcastSimulator`], so both kinds stay bit-identical
/// to a `simulate` run of the same configuration.
fn run_cell(cell: &Cell) -> Result<CellRecord, SweepError> {
    let sim = SimConfig {
        geometry: cell.geometry,
        ..SimConfig::default()
    };
    let (result, cpus): (SimResult, u32) = match &cell.input {
        CellInput::Synthetic(config) => {
            let results = Experiment::new()
                .workload(NamedWorkload::new(cell.scenario.clone(), config.clone()))
                .scheme(cell.scheme)
                .refs_per_trace(cell.refs)
                .sim_config(sim)
                .execution(ExecutionMode::Parallel { workers: 1 })
                .run()?;
            (
                results.per_scheme[0].combined.clone(),
                u32::from(config.cpus),
            )
        }
        CellInput::Trace { path, .. } => {
            let caches = trace_caches(cell, path)?;
            let source = TakeSource::new(
                open_trace(path).map_err(dirsim::Error::from)?,
                cell.refs as u64,
            );
            let results =
                BroadcastSimulator::new(sim)
                    .workers(1)
                    .run(&[cell.scheme], caches, source)?;
            let result = results
                .into_iter()
                .next()
                .expect("one scheme in, one result out");
            (result, caches)
        }
    };
    Ok(CellRecord {
        hash: cell.hash.clone(),
        scheme: result.scheme.clone(),
        scenario: cell.scenario.clone(),
        geometry: cell.geometry_label(),
        cpus,
        refs: result.refs,
        transactions: result.transactions,
        distinct_blocks: result.distinct_blocks,
        evictions: result.capacity_evictions,
        miss_rate: result.events.data_miss_rate(),
        pipelined_cpr: result.cycles_per_ref(CostModel::pipelined()),
        non_pipelined_cpr: result.cycles_per_ref(CostModel::non_pipelined()),
    })
}

/// Cache count for a trace cell: the spec's `cpus` override taken as an
/// explicit cache count, or one cache per process id observed in the
/// simulated prefix — the same default `simulate` applies to trace
/// files (ids, not distinct processes: an open-system trace can retire
/// an id without it ever emitting a reference).
fn trace_caches(cell: &Cell, path: &str) -> Result<u32, SweepError> {
    if let Some(cpus) = cell.cpus {
        return Ok(u32::from(cpus));
    }
    let source = open_trace(path).map_err(dirsim::Error::from)?;
    let mut src = TakeSource::new(source, cell.refs as u64);
    let mut stats = TraceStats::new();
    let mut chunk = Vec::new();
    while src
        .read_chunk(&mut chunk, 65_536)
        .map_err(dirsim::Error::from)?
        > 0
    {
        for r in &chunk {
            stats.observe(r);
        }
    }
    if stats.total() == 0 {
        return Err(SweepError::Io(std::io::Error::new(
            std::io::ErrorKind::InvalidData,
            format!("trace `{path}` is empty"),
        )));
    }
    Ok(stats.process_id_bound())
}

fn effective_workers(requested: usize, pending: usize) -> usize {
    let available = std::thread::available_parallelism().map_or(1, |n| n.get());
    let workers = if requested == 0 { available } else { requested };
    workers.clamp(1, pending.max(1))
}

/// ETA from the aggregate reference rate so far: remaining refs over
/// refs/sec. Reference-weighted, so a grid mixing cheap and expensive
/// cells converges faster than a per-cell mean would.
fn eta_secs(elapsed: Duration, refs_done: u64, refs_pending: u64) -> Option<u64> {
    let secs = elapsed.as_secs_f64();
    if refs_done == 0 || secs <= 0.0 {
        return None;
    }
    let rate = refs_done as f64 / secs;
    let remaining = refs_pending.saturating_sub(refs_done) as f64;
    Some((remaining / rate).ceil() as u64)
}

fn progress_meter(enabled: bool, total: usize, skipped: usize) -> ProgressMeter {
    if !enabled {
        return ProgressMeter::disabled();
    }
    ProgressMeter::new(
        "cells",
        Duration::from_millis(500),
        Box::new(move |p| {
            let eta = p
                .detail
                .map_or(String::new(), |secs| format!(", eta {secs}s"));
            eprintln!(
                "sweep: {}/{} cells ({} cached), {:.2} cells/s{eta}",
                p.done + skipped as u64,
                total,
                skipped,
                p.rate_per_sec,
            );
        }),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::fs;
    use std::path::PathBuf;

    fn temp_store(tag: &str) -> PathBuf {
        std::env::temp_dir().join(format!(
            "dirsim-sweep-run-{}-{tag}.jsonl",
            std::process::id()
        ))
    }

    fn tiny_spec() -> SweepSpec {
        SweepSpec::parse("schemes = Dir1NB, WTI\nscenarios = pops\nrefs = 2_000\n").unwrap()
    }

    #[test]
    fn runs_then_skips_and_matches_single_cell_results() {
        let path = temp_store("skip");
        let _ = fs::remove_file(&path);
        let mut store = Store::open(&path).unwrap();
        let spec = tiny_spec();

        let first = run_sweep(&spec, &mut store, &SweepOptions::default()).unwrap();
        assert_eq!((first.total, first.ran, first.skipped), (2, 2, 0));
        assert_eq!(first.refs_simulated, 4_000);
        let bytes = fs::read(&path).unwrap();

        let again = run_sweep(&spec, &mut store, &SweepOptions::default()).unwrap();
        assert_eq!((again.total, again.ran, again.skipped), (2, 0, 2));
        assert_eq!(again.refs_simulated, 0);
        assert_eq!(fs::read(&path).unwrap(), bytes, "skip must not rewrite");

        // The stored numbers are the engine's own, not a re-derivation.
        // The store appends in completion order, so look the record up by
        // the cell's hash rather than by position.
        let cell = &spec.expand().unwrap()[0];
        let direct = run_cell(cell).unwrap();
        let stored = store
            .records()
            .iter()
            .find(|r| r.hash == cell.hash)
            .expect("the cell's record is stored");
        assert_eq!(*stored, direct);
        fs::remove_file(&path).unwrap();
    }

    #[test]
    fn trace_cells_run_skip_and_rerun_when_the_file_changes() {
        use std::io::Write as _;
        let trace =
            std::env::temp_dir().join(format!("dirsim-sweep-run-trace-{}.dtr", std::process::id()));
        let write_trace = |refs: usize| {
            let mut out = std::io::BufWriter::new(fs::File::create(&trace).unwrap());
            let workload = dirsim_trace::Scenario::named("pops").unwrap().workload();
            dirsim_trace::io::write_binary(&mut out, workload.take(refs)).unwrap();
            out.flush().unwrap();
        };
        write_trace(1_500);

        let path = temp_store("trace");
        let _ = fs::remove_file(&path);
        let mut store = Store::open(&path).unwrap();
        let text = format!(
            "schemes = Dir1NB, WTI\nscenarios = {}\nrefs = 1_000\n",
            trace.display()
        );
        let spec = SweepSpec::parse(&text).unwrap();

        let first = run_sweep(&spec, &mut store, &SweepOptions::default()).unwrap();
        assert_eq!((first.total, first.ran, first.skipped), (2, 2, 0));
        // `refs` caps the stream: 1_000 of the file's 1_500 references.
        assert_eq!(first.refs_simulated, 2_000);
        let record = &store.records()[0];
        assert_eq!(record.scenario, trace.display().to_string());
        assert!(record.cpus > 0, "caches derived from the trace itself");
        assert!(record.transactions > 0);

        let again = run_sweep(&spec, &mut store, &SweepOptions::default()).unwrap();
        assert_eq!((again.ran, again.skipped), (0, 2));

        // Rewriting the file changes its length, hence every cell's
        // identity — the grid re-runs instead of serving stale results.
        write_trace(2_000);
        let spec = SweepSpec::parse(&text).unwrap();
        let rerun = run_sweep(&spec, &mut store, &SweepOptions::default()).unwrap();
        assert_eq!((rerun.ran, rerun.skipped), (2, 0));

        fs::remove_file(&path).unwrap();
        fs::remove_file(&trace).unwrap();
    }

    #[test]
    fn worker_count_clamps_to_pending_cells() {
        assert_eq!(effective_workers(8, 2), 2);
        assert_eq!(effective_workers(1, 100), 1);
        assert!(effective_workers(0, 100) >= 1);
        assert_eq!(effective_workers(3, 0), 1);
    }

    #[test]
    fn eta_is_reference_weighted() {
        let eta = eta_secs(Duration::from_secs(10), 1_000, 3_000).unwrap();
        assert_eq!(eta, 20);
        assert!(eta_secs(Duration::from_secs(1), 0, 100).is_none());
    }
}
