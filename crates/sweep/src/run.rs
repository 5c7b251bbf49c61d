//! The sweep executor: a worker pool of engines over the pending cells,
//! one engine pass per input group.
//!
//! Cells that differ only in their scheme simulate the same reference
//! stream, so the pending cells are split into **input groups** by
//! [`Cell::input_key`] (scenario spec text or trace path and length,
//! geometry, cpus and refs). Each group makes one one-worker
//! [`Experiment`] call over all of its pending schemes — the
//! paper's §4 method of measuring event frequencies once per trace —
//! whichever kind its input is. The trace is generated or decoded once
//! and every scheme's lane steps it in lockstep; a trace file is first
//! scanned once to size the system (always, even when the cell's `cpus`
//! overrides the count, so an empty trace or a too-small override fails
//! as a typed error before any engine runs). Every record stays
//! bit-identical to its cell run alone (the equivalence the engine's
//! tier-1 tests pin), and resume still skips by cell hash, so a group
//! whose store already holds some schemes runs only the rest.
//!
//! Groups are independent, so a shared work queue plus a result channel
//! is all the coordination needed; the pool has `min(workers, groups)`
//! threads.
//!
//! The main thread owns the store: workers never touch the file. A
//! finished group's records are appended (and flushed) one cell at a
//! time, groups in completion order, so a crash loses only the groups
//! still in flight (and a torn final line, which the store repairs on
//! open) — never part of a record. Progress goes through
//! [`dirsim_obs::ProgressMeter`] — cells done/total, aggregate refs/sec,
//! and an ETA from the reference rate so far.

use std::collections::HashMap;
use std::sync::mpsc;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use dirsim::{Experiment, Input, NamedWorkload, SimConfig};
use dirsim_cost::CostModel;
use dirsim_obs::{NoopRecorder, ProgressMeter, Recorder};

use crate::cell::{Cell, CellRecord};
use crate::store::Store;
use crate::{SweepError, SweepSpec};

/// References per chunk in a group's engine pass: a quarter of the
/// engine default. A group holds one lane table per pending scheme, so it
/// keeps the decode pipeline's in-flight buffers at 512 KiB instead of
/// 2 MiB, which holds a group's peak memory below a single cell's at the
/// default. With many lanes the
/// per-chunk hand-off stays far below 1% of the step work. Results never
/// depend on the chunk size.
const GROUP_CHUNK: usize = 8_192;

/// Tuning knobs for [`run_sweep`].
#[derive(Debug)]
pub struct SweepOptions {
    /// Worker threads; 0 means one per available CPU.
    pub workers: usize,
    /// Emit live progress to stderr.
    pub progress: bool,
    /// Metrics sink for sweep-level counters (cells run/skipped, engine
    /// passes, refs).
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
/// over a worker pool one input group at a time, and streams each
/// completed cell to the store.
///
/// # Errors
///
/// Returns the first [`SweepError`] hit: spec expansion, a group's
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

    let groups = input_groups(pending);
    let workers = effective_workers(opts.workers, groups.len());
    let mut meter = progress_meter(opts.progress, total, skipped);
    let start = Instant::now();

    let mut ran = 0usize;
    let mut refs_simulated = 0u64;
    let mut first_err: Option<SweepError> = None;

    if !groups.is_empty() {
        let queue = Mutex::new(groups.into_iter());
        let queue = &queue;
        type Done = (Vec<Cell>, Result<Vec<CellRecord>, SweepError>);
        let (tx, rx) = mpsc::channel::<Done>();
        std::thread::scope(|scope| {
            for _ in 0..workers {
                let tx = tx.clone();
                scope.spawn(move || loop {
                    let group = queue.lock().expect("queue poisoned").next();
                    let Some(group) = group else { break };
                    let result = run_group(&group);
                    if tx.send((group, result)).is_err() {
                        break; // main thread stopped listening
                    }
                });
            }
            drop(tx);
            'groups: for (group, result) in rx {
                let records = match result {
                    Ok(records) => records,
                    Err(e) => {
                        first_err = Some(e);
                        // Dropping the receiver makes every worker's next
                        // send fail, draining the pool.
                        break;
                    }
                };
                opts.recorder.counter("sweep_trace_passes", &[], 1);
                for (cell, record) in group.iter().zip(&records) {
                    if let Err(e) = store.append(record) {
                        first_err = Some(e.into());
                        break 'groups;
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

/// Splits cells into input groups — cells with equal
/// [`Cell::input_key`]s, which differ only in their scheme — keeping
/// expansion order within and across groups.
fn input_groups(cells: Vec<Cell>) -> Vec<Vec<Cell>> {
    let mut groups: Vec<Vec<Cell>> = Vec::new();
    let mut index: HashMap<String, usize> = HashMap::new();
    for cell in cells {
        match index.get(&cell.input_key) {
            Some(&g) => groups[g].push(cell),
            None => {
                index.insert(cell.input_key.clone(), groups.len());
                groups.push(vec![cell]);
            }
        }
    }
    groups
}

/// Runs one input group in a single engine pass over all of its schemes
/// and condenses each scheme's result into its cell's store record, in
/// `group` order.
///
/// Both input kinds go through the one [`Experiment`] front door, so
/// both stay bit-identical to a `simulate` run of each cell's
/// configuration. A synthetic cell's `cpus` is already applied to its
/// workload and recorded as is; a trace cell's `cpus` overrides the
/// cache count, and the record stores the count the trace ran with.
fn run_group(group: &[Cell]) -> Result<Vec<CellRecord>, SweepError> {
    let first = &group[0];
    let (caches, declared_cpus) = match &first.input {
        Input::Synthetic(config) => (None, Some(u32::from(config.cpus))),
        Input::Trace(_) => (first.cpus.map(u32::from), None),
    };
    let ran = Experiment::new()
        .workload(NamedWorkload {
            name: first.scenario.clone(),
            input: first.input.clone(),
        })
        .schemes(group.iter().map(|c| c.scheme))
        .refs_per_trace(first.refs)
        .chunk_size(GROUP_CHUNK)
        .sim_config(SimConfig {
            geometry: first.geometry,
            ..SimConfig::default()
        })
        .caches(caches)
        .run()?;
    let cpus = declared_cpus.unwrap_or(ran.caches[0]);
    let results = ran.per_scheme.into_iter().map(|s| s.combined);
    Ok(group
        .iter()
        .zip(results)
        .map(|(cell, result)| CellRecord {
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
        .collect())
}

/// Pool size: the requested worker count (0 = one per available CPU),
/// never more than there are groups to run.
fn effective_workers(requested: usize, groups: usize) -> usize {
    let available = std::thread::available_parallelism().map_or(1, |n| n.get());
    let workers = if requested == 0 { available } else { requested };
    workers.clamp(1, groups.max(1))
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
    use dirsim_obs::{MetricValue, MetricsRegistry};
    use dirsim_protocol::Scheme;
    use std::collections::BTreeMap;
    use std::fs;
    use std::path::{Path, PathBuf};

    fn temp_store(tag: &str) -> PathBuf {
        std::env::temp_dir().join(format!(
            "dirsim-sweep-run-{}-{tag}.jsonl",
            std::process::id()
        ))
    }

    fn tiny_spec() -> SweepSpec {
        SweepSpec::parse("schemes = Dir1NB, WTI\nscenarios = pops\nrefs = 2_000\n").unwrap()
    }

    /// Writes the first `refs` references of the bundled pops trace to
    /// `path` as a DTR1 file.
    fn write_pops_trace(path: &Path, refs: usize) {
        use std::io::Write as _;
        let mut out = std::io::BufWriter::new(fs::File::create(path).unwrap());
        let workload = dirsim_trace::Scenario::named("pops").unwrap().workload();
        dirsim_trace::io::write_binary(&mut out, workload.take(refs)).unwrap();
        out.flush().unwrap();
    }

    /// 2 schemes x {bundled scenario, DTR1 trace} x {infinite, 8x2} x
    /// {default, 8 cpus}: 16 cells in 8 input groups.
    fn mixed_spec(trace: &Path) -> SweepSpec {
        SweepSpec::parse(&format!(
            "schemes = Dir1NB, WTI\nscenarios = pops, {}\ngeometries = infinite, 8x2\n\
             cpus = default, 8\nrefs = 1_000\n",
            trace.display()
        ))
        .unwrap()
    }

    /// Every cell of `spec` run alone as a one-cell group, by hash.
    fn cells_alone(spec: &SweepSpec) -> Vec<CellRecord> {
        let mut records: Vec<CellRecord> = spec
            .expand()
            .unwrap()
            .iter()
            .flat_map(|cell| run_group(std::slice::from_ref(cell)).unwrap())
            .collect();
        records.sort_by(|a, b| a.hash.cmp(&b.hash));
        records
    }

    /// The store's records, by hash (the store appends in completion
    /// order).
    fn stored(store: &Store) -> Vec<CellRecord> {
        let mut records = store.records().to_vec();
        records.sort_by(|a, b| a.hash.cmp(&b.hash));
        records
    }

    /// Counter `name`'s totals by label value (`""` when unlabelled).
    fn counts(reg: &MetricsRegistry, name: &str) -> BTreeMap<String, u64> {
        let mut out = BTreeMap::new();
        for r in reg.snapshot().iter().filter(|r| r.name == name) {
            if let MetricValue::Counter(c) = r.value {
                let label: Vec<&str> = r.labels.iter().map(|(_, v)| v.as_str()).collect();
                *out.entry(label.join(",")).or_insert(0) += c;
            }
        }
        out
    }

    fn total(reg: &MetricsRegistry, name: &str) -> u64 {
        counts(reg, name).values().sum()
    }

    fn metered() -> (Arc<MetricsRegistry>, SweepOptions) {
        let reg = Arc::new(MetricsRegistry::new());
        let opts = SweepOptions {
            recorder: Arc::clone(&reg) as Arc<dyn Recorder>,
            ..SweepOptions::default()
        };
        (reg, opts)
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

        // The stored numbers are the engine's own, not a re-derivation:
        // the grouped pass stores what the cell run alone, as a one-cell
        // group, computes. The store appends in completion order, so look
        // the record up by the cell's hash rather than by position.
        for cell in &spec.expand().unwrap() {
            let direct = run_group(std::slice::from_ref(cell)).unwrap();
            let stored = store
                .records()
                .iter()
                .find(|r| r.hash == cell.hash)
                .expect("the cell's record is stored");
            assert_eq!(direct, std::slice::from_ref(stored));
        }
        fs::remove_file(&path).unwrap();
    }

    #[test]
    fn trace_cells_run_skip_and_rerun_when_the_file_changes() {
        let trace =
            std::env::temp_dir().join(format!("dirsim-sweep-run-trace-{}.dtr", std::process::id()));
        write_pops_trace(&trace, 1_500);

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
        write_pops_trace(&trace, 2_000);
        let spec = SweepSpec::parse(&text).unwrap();
        let rerun = run_sweep(&spec, &mut store, &SweepOptions::default()).unwrap();
        assert_eq!((rerun.ran, rerun.skipped), (2, 0));

        fs::remove_file(&path).unwrap();
        fs::remove_file(&trace).unwrap();
    }

    #[test]
    fn a_too_small_trace_override_fails_typed_and_stores_nothing() {
        let trace = std::env::temp_dir().join(format!(
            "dirsim-sweep-run-narrow-{}.dtr",
            std::process::id()
        ));
        write_pops_trace(&trace, 1_000);
        let path = temp_store("narrow");
        let _ = fs::remove_file(&path);
        let mut store = Store::open(&path).unwrap();
        let spec = SweepSpec::parse(&format!(
            "schemes = Dir1NB, WTI\nscenarios = {}\ncpus = 1\nrefs = 500\n",
            trace.display()
        ))
        .unwrap();
        let err = run_sweep(&spec, &mut store, &SweepOptions::default()).unwrap_err();
        assert!(
            matches!(
                err,
                SweepError::Sim(dirsim::Error::Config(
                    dirsim::SimConfigError::TooFewCaches { caches: 1, .. }
                ))
            ),
            "{err}"
        );
        assert!(store.records().is_empty());
        assert!(
            fs::read(&path).map_or(true, |bytes| bytes.is_empty()),
            "nothing written"
        );
        let _ = fs::remove_file(&path);
        fs::remove_file(&trace).unwrap();
    }

    #[test]
    fn mixed_grid_store_equals_every_cell_run_alone() {
        let trace =
            std::env::temp_dir().join(format!("dirsim-sweep-run-mixed-{}.dtr", std::process::id()));
        write_pops_trace(&trace, 1_500);
        let spec = mixed_spec(&trace);
        let path = temp_store("mixed");
        let _ = fs::remove_file(&path);
        let mut store = Store::open(&path).unwrap();

        let summary = run_sweep(&spec, &mut store, &SweepOptions::default()).unwrap();
        assert_eq!((summary.total, summary.ran), (16, 16));
        assert_eq!(stored(&store), cells_alone(&spec));

        fs::remove_file(&path).unwrap();
        fs::remove_file(&trace).unwrap();
    }

    #[test]
    fn seeded_store_reruns_only_the_missing_schemes() {
        let path = temp_store("seeded");
        let _ = fs::remove_file(&path);
        let mut store = Store::open(&path).unwrap();
        let seed = SweepSpec::parse("schemes = Dir1NB\nscenarios = pops\nrefs = 2_000\n").unwrap();
        run_sweep(&seed, &mut store, &SweepOptions::default()).unwrap();
        let seeded = fs::read(&path).unwrap();

        // The pops group already holds Dir1NB; the thor group holds nothing.
        let spec = SweepSpec::parse(
            "schemes = Dir1NB, WTI, Dragon\nscenarios = pops, thor\nrefs = 2_000\n",
        )
        .unwrap();
        let (reg, opts) = metered();
        let summary = run_sweep(&spec, &mut store, &opts).unwrap();
        assert_eq!((summary.total, summary.ran, summary.skipped), (6, 5, 1));
        assert_eq!(total(&reg, "sweep_trace_passes"), 2);
        let expected = [("Dir1NB", 1), ("Dragon", 2), ("WTI", 2)];
        assert_eq!(
            counts(&reg, "sweep_cells_run"),
            expected.map(|(s, n)| (s.to_string(), n)).into(),
            "Dir1NB ran for thor only"
        );

        let bytes = fs::read(&path).unwrap();
        assert_eq!(
            &bytes[..seeded.len()],
            seeded,
            "the seeded record stays put"
        );
        assert_eq!(stored(&store), cells_alone(&spec));
        fs::remove_file(&path).unwrap();
    }

    #[test]
    fn trace_passes_equal_input_groups() {
        let trace = std::env::temp_dir().join(format!(
            "dirsim-sweep-run-passes-{}.dtr",
            std::process::id()
        ));
        write_pops_trace(&trace, 1_500);
        for (spec, groups) in [(mixed_spec(&trace), 8), (tiny_spec(), 1)] {
            let path = temp_store("passes");
            let _ = fs::remove_file(&path);
            let mut store = Store::open(&path).unwrap();
            let (reg, opts) = metered();
            run_sweep(&spec, &mut store, &opts).unwrap();
            assert_eq!(total(&reg, "sweep_trace_passes"), groups);
            assert_eq!(total(&reg, "sweep_cells_run"), spec.cell_count() as u64);
            // A fully cached re-run makes no pass at all.
            let (reg, opts) = metered();
            run_sweep(&spec, &mut store, &opts).unwrap();
            assert_eq!(total(&reg, "sweep_trace_passes"), 0);
            fs::remove_file(&path).unwrap();
        }
        fs::remove_file(&trace).unwrap();
    }

    #[test]
    fn cells_that_differ_in_input_are_never_merged() {
        let pops = dirsim_trace::Scenario::named("pops").unwrap();
        let thor = dirsim_trace::Scenario::named("thor").unwrap();
        let finite = Some(dirsim_mem::CacheGeometry { sets: 8, ways: 2 });
        let synthetic = |scheme, scenario: &dirsim_trace::Scenario, geometry, cpus, refs| {
            Cell::new(
                scheme,
                scenario,
                scenario.config().clone(),
                geometry,
                cpus,
                refs,
            )
        };
        let trace = |scheme, path, len, geometry, cpus, refs| {
            Cell::from_trace(scheme, path, len, geometry, cpus, refs)
        };
        let (a, b) = (Scheme::dir1_nb(), Scheme::Wti);
        let cells = vec![
            synthetic(a, pops, None, None, 1_000),
            synthetic(b, pops, None, None, 1_000),
            synthetic(a, pops, None, None, 2_000),
            synthetic(a, pops, finite, None, 1_000),
            synthetic(a, pops, None, Some(8), 1_000),
            synthetic(a, thor, None, None, 1_000),
            trace(a, "a.dtr", 160, None, None, 1_000),
            trace(b, "a.dtr", 160, None, None, 1_000),
            trace(a, "a.dtr", 176, None, None, 1_000),
            trace(a, "b.dtr", 160, None, None, 1_000),
            trace(a, "a.dtr", 160, finite, None, 1_000),
            trace(a, "a.dtr", 160, None, Some(8), 1_000),
            trace(a, "a.dtr", 160, None, None, 2_000),
        ];
        let hashes: Vec<String> = cells.iter().map(|c| c.hash.clone()).collect();
        let groups = input_groups(cells);
        let members: Vec<Vec<&str>> = groups
            .iter()
            .map(|g| g.iter().map(|c| c.hash.as_str()).collect())
            .collect();
        let h = |i: usize| hashes[i].as_str();
        // Only the two scheme pairs share a pass; every other axis splits.
        let mut expected = vec![vec![h(0), h(1)], vec![h(6), h(7)]];
        expected.extend([2, 3, 4, 5, 8, 9, 10, 11, 12].map(|i| vec![h(i)]));
        let mut members = members;
        members.sort();
        expected.sort();
        assert_eq!(members, expected);
    }

    #[test]
    fn worker_count_clamps_to_pending_cells() {
        // The pool never outnumbers the input groups it drains.
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
