//! The experiment harness: a (workloads × schemes) simulation matrix.
//!
//! [`Experiment`] is the one way a front end runs an input. Every
//! configured workload — a synthetic generator or a trace file, behind
//! one [`Input`] — runs through every configured scheme, and the run
//! collects per-trace and combined [`SimResult`]s. There is one way to
//! run it, [`Experiment::run`], and one execution setting,
//! [`Experiment::workers`]: each workload is generated or decoded once
//! and broadcast through all schemes in lockstep via
//! [`BroadcastSimulator`], on the calling thread with one worker (the
//! default) or sharded over several (by block address for infinite
//! caches, by cache set index for finite geometries). Results never
//! depend on the worker count. Where decode runs is decided by the
//! source (see [`crate::broadcast`]): streamed generators and buffered
//! file decoders decode on a producer thread, materialised traces and
//! memory-mapped `DTR1` files are lent inline. The paper-specific
//! experiment presets live in [`crate::paper`].
//!
//! The paper's own method, one pass per scheme, is
//! [`Simulator::run`](crate::Simulator::run) over each workload: that is
//! the oracle `tests/equivalence.rs` checks every run of this harness
//! against.
//!
//! How many caches a workload runs with is decided in one place, before
//! any engine runs (see [`ExperimentResults::caches`]): a synthetic
//! workload's declared population, else one cache per id its stream
//! names. [`Experiment::caches`] may widen that count, never narrow it.
//! The scan that sizes a stream also supplies its Table 3 [`TraceStats`]
//! unless lock tests are filtered out; every other stream is tallied as
//! it runs, one engine chunk at a time.

use std::ops::Index;
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex};

use dirsim_mem::SharingModel;
use dirsim_obs::{NoopRecorder, ProgressMeter, Recorder};
use dirsim_protocol::Scheme;
use dirsim_trace::source::{collect_all, IterSource, SliceSource, TakeSource, WithoutLockTests};
use dirsim_trace::synth::{Workload, WorkloadConfig};
use dirsim_trace::{open_trace, MemRef, Scenario, TraceSource, TraceStats};

use crate::broadcast::{BroadcastSimulator, DEFAULT_CHUNK};
use crate::engine::{SimConfig, SimConfigError, SimResult};
use crate::error::Error;

/// What a workload simulates.
#[derive(Debug, Clone, PartialEq)]
pub enum Input {
    /// A synthetic workload, generated from its configuration.
    Synthetic(WorkloadConfig),
    /// A trace file in any format [`open_trace`] reads.
    Trace(PathBuf),
}

/// One named workload in an experiment.
#[derive(Debug, Clone)]
pub struct NamedWorkload {
    /// Display name (`POPS`, `THOR`, a trace path, …).
    pub name: String,
    /// The reference stream to simulate.
    pub input: Input,
}

impl NamedWorkload {
    /// Creates a named synthetic workload.
    pub fn new(name: impl Into<String>, config: WorkloadConfig) -> Self {
        NamedWorkload {
            name: name.into(),
            input: Input::Synthetic(config),
        }
    }

    /// Creates a named workload over a trace file, opened with
    /// [`open_trace`] when the experiment runs.
    pub fn trace(name: impl Into<String>, path: impl Into<PathBuf>) -> Self {
        NamedWorkload {
            name: name.into(),
            input: Input::Trace(path.into()),
        }
    }
}

impl From<&Scenario> for NamedWorkload {
    /// Adopts a scenario (bundled or parsed from a spec file) as an
    /// experiment workload, keeping its registry name.
    fn from(scenario: &Scenario) -> Self {
        NamedWorkload::new(scenario.name(), scenario.config().clone())
    }
}

/// A simulation matrix over workloads and schemes.
///
/// # Examples
///
/// ```
/// use dirsim::{Experiment, NamedWorkload};
/// use dirsim_protocol::Scheme;
/// use dirsim_trace::synth::WorkloadConfig;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let cfg = WorkloadConfig::builder().seed(7).build()?;
/// let results = Experiment::new()
///     .workload(NamedWorkload::new("demo", cfg))
///     .schemes(Scheme::paper_lineup())
///     .refs_per_trace(20_000)
///     .run()?;
/// assert_eq!(results.per_scheme.len(), 4);
/// assert!(results[Scheme::dir0_b()].combined.refs > 0);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct Experiment {
    workloads: Vec<NamedWorkload>,
    schemes: Vec<Scheme>,
    refs_per_trace: usize,
    chunk: usize,
    sim: SimConfig,
    caches: Option<u32>,
    exclude_lock_tests: bool,
    workers: usize,
    recorder: Arc<dyn Recorder>,
    progress: Option<Arc<Mutex<ProgressMeter>>>,
}

impl Default for Experiment {
    fn default() -> Self {
        Experiment {
            workloads: Vec::new(),
            schemes: Vec::new(),
            refs_per_trace: 100_000,
            chunk: DEFAULT_CHUNK,
            sim: SimConfig::default(),
            caches: None,
            exclude_lock_tests: false,
            workers: 1,
            recorder: Arc::new(NoopRecorder),
            progress: None,
        }
    }
}

impl Experiment {
    /// Starts an empty experiment.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds one workload.
    pub fn workload(mut self, workload: NamedWorkload) -> Self {
        self.workloads.push(workload);
        self
    }

    /// Adds several workloads.
    pub fn workloads<I>(mut self, workloads: I) -> Self
    where
        I: IntoIterator<Item = NamedWorkload>,
    {
        self.workloads.extend(workloads);
        self
    }

    /// Adds one scheme.
    pub fn scheme(mut self, scheme: Scheme) -> Self {
        self.schemes.push(scheme);
        self
    }

    /// Adds several schemes.
    pub fn schemes<I>(mut self, schemes: I) -> Self
    where
        I: IntoIterator<Item = Scheme>,
    {
        self.schemes.extend(schemes);
        self
    }

    /// References simulated per workload (default 100 000). A trace file
    /// shorter than the budget runs in full.
    pub fn refs_per_trace(mut self, refs: usize) -> Self {
        self.refs_per_trace = refs;
        self
    }

    /// References per engine chunk (default [`DEFAULT_CHUNK`]); see
    /// [`BroadcastSimulator::chunk_size`]. Results never depend on it.
    pub fn chunk_size(mut self, refs: usize) -> Self {
        self.chunk = refs;
        self
    }

    /// Overrides the engine configuration.
    pub fn sim_config(mut self, sim: SimConfig) -> Self {
        self.sim = sim;
        self
    }

    /// Overrides every workload's cache count (`None`, the default, keeps
    /// the count each workload needs; see [`ExperimentResults::caches`]).
    /// The override may widen a system but never narrow it: a count
    /// below what a workload needs fails the run with
    /// [`SimConfigError::TooFewCaches`] before any engine runs.
    pub fn caches(mut self, caches: Option<u32>) -> Self {
        self.caches = caches;
        self
    }

    /// Enables oracle checking for every run.
    pub fn check_oracle(mut self, check: bool) -> Self {
        self.sim.check_oracle = check;
        self
    }

    /// Removes spin-lock test reads from every workload before simulation
    /// (the §5.2 ablation).
    pub fn exclude_lock_tests(mut self, exclude: bool) -> Self {
        self.exclude_lock_tests = exclude;
        self
    }

    /// Sets how many shard workers each workload's engine pass uses
    /// (default 1, stepping on the calling thread; see
    /// [`BroadcastSimulator::workers`]). Results never depend on it. Zero
    /// fails the run with [`SimConfigError::ZeroWorkers`]; one worker per
    /// core is [`std::thread::available_parallelism`].
    pub fn workers(mut self, workers: usize) -> Self {
        self.workers = workers;
        self
    }

    /// Sets the metrics [`Recorder`] passed to the underlying engine (see
    /// [`BroadcastSimulator::recorder`]). Defaults to the no-op recorder.
    pub fn recorder(mut self, recorder: Arc<dyn Recorder>) -> Self {
        self.recorder = recorder;
        self
    }

    /// Attaches a throttled [`ProgressMeter`] reporting cumulative
    /// references simulated across the whole matrix. The run ticks it
    /// once per engine chunk, through [`ProgressMeter::tick_now`].
    pub fn progress(mut self, progress: Arc<Mutex<ProgressMeter>>) -> Self {
        self.progress = Some(progress);
        self
    }

    /// Number of workloads configured so far.
    pub fn workload_count(&self) -> usize {
        self.workloads.len()
    }

    /// Number of schemes configured so far.
    pub fn scheme_count(&self) -> usize {
        self.schemes.len()
    }

    /// One generation pass over a synthetic workload, counted in the
    /// `input_passes{trace}` metric so tests can pin how many times the
    /// experiment reads each input.
    fn generate(&self, name: &str, config: &WorkloadConfig) -> impl TraceSource + Send {
        self.recorder.counter("input_passes", &[("trace", name)], 1);
        IterSource::new(Workload::new(config.clone()).take(self.refs_per_trace))
    }

    /// Opens a trace file's reference stream, capped at the reference
    /// budget; one pass, counted like [`Self::generate`]'s.
    fn open(&self, name: &str, path: &Path) -> Result<impl TraceSource + Send, Error> {
        self.recorder.counter("input_passes", &[("trace", name)], 1);
        Ok(TakeSource::new(
            open_trace(path)?,
            self.refs_per_trace as u64,
        ))
    }

    /// The one cache-sizing rule: how many caches `w` runs with.
    ///
    /// A zero reference budget empties every input, so it fails first.
    /// A synthetic workload needs its declared population — `processes`
    /// under per-process attribution, `cpus` under per-processor — except
    /// an open system attributed per process, which mints ids past its
    /// initial population. That workload, like every trace file, needs
    /// one cache per id its stream names: the process-id bound, or the
    /// CPU-id bound under per-processor attribution (ids, not distinct
    /// ids: a trace can skip one). The bound comes from one
    /// [`TraceStats::scan`] of the **unfiltered** stream; lock-test
    /// filtering never widens the id space, so it covers the filtered
    /// stream too. The override, if any, is checked against that need.
    ///
    /// Returns the cache count, the scan's statistics when sizing scanned
    /// the stream (so the run need not tally it again), and an open
    /// system's stream, materialised to scan it and handed back so the
    /// run consumes that same pass instead of generating the trace twice.
    #[allow(clippy::type_complexity)]
    fn size(
        &self,
        w: &NamedWorkload,
    ) -> Result<(u32, Option<TraceStats>, Option<Vec<MemRef>>), Error> {
        let empty = || Err(SimConfigError::EmptyTrace(w.name.clone()).into());
        if self.refs_per_trace == 0 {
            return empty();
        }
        let (needed, scanned, raw) = match (&w.input, self.sim.sharing) {
            (Input::Synthetic(config), SharingModel::PerProcessor) => {
                (u32::from(config.cpus), None, None)
            }
            (Input::Synthetic(config), _) if !config.open.is_enabled() => {
                (config.processes, None, None)
            }
            (input, sharing) => {
                let (stats, raw) = match input {
                    Input::Trace(path) => (TraceStats::scan(self.open(&w.name, path)?)?, None),
                    Input::Synthetic(config) => {
                        let raw = collect_all(self.generate(&w.name, config))?;
                        (TraceStats::scan(SliceSource::new(&raw))?, Some(raw))
                    }
                };
                if stats.total() == 0 {
                    return empty();
                }
                let needed = match sharing {
                    SharingModel::PerProcess => stats.process_id_bound(),
                    SharingModel::PerProcessor => stats.cpu_id_bound(),
                };
                (needed, Some(stats), raw)
            }
        };
        match self.caches {
            Some(caches) if caches < needed => {
                Err(SimConfigError::TooFewCaches { caches, needed }.into())
            }
            caches => Ok((caches.unwrap_or(needed), scanned, raw)),
        }
    }

    /// Runs the full matrix: each workload is generated or decoded once,
    /// streamed in chunks, and broadcast through every scheme, sharded
    /// over [`Self::workers`].
    ///
    /// # Errors
    ///
    /// Propagates the first [`Error`] — a trace that fails to open or
    /// decode, an oracle or invariant violation when checking is
    /// enabled, or an invalid configuration: [`SimConfigError::NoWorkloads`]
    /// and [`SimConfigError::NoSchemes`] for an empty matrix, and
    /// [`SimConfigError::EmptyTrace`] (an empty trace or a zero reference
    /// budget) or [`SimConfigError::TooFewCaches`] from sizing, which runs
    /// for every workload before any engine does.
    pub fn run(&self) -> Result<ExperimentResults, Error> {
        if self.workloads.is_empty() {
            return Err(Error::Config(SimConfigError::NoWorkloads));
        }
        if self.schemes.is_empty() {
            return Err(Error::Config(SimConfigError::NoSchemes));
        }
        let sized = self
            .workloads
            .iter()
            .map(|w| self.size(w))
            .collect::<Result<Vec<_>, _>>()?;
        let broadcaster = BroadcastSimulator::new(self.sim)
            .chunk_size(self.chunk)
            .workers(self.workers)
            .recorder(Arc::clone(&self.recorder));
        let mut trace_stats = Vec::with_capacity(self.workloads.len());
        let mut caches = Vec::with_capacity(self.workloads.len());
        let mut per_workload: Vec<Vec<SimResult>> = Vec::with_capacity(self.workloads.len());
        let mut observed = 0u64;
        for (w, (n, scanned, raw)) in self.workloads.iter().zip(sized) {
            // A stream that sizing scanned and the run simulates unchanged
            // reports the scan's statistics. Every other stream — never
            // scanned, or lock-test filtered on its way to the engine — is
            // tallied as it runs, one chunk at a time.
            let scanned = scanned.filter(|_| !self.exclude_lock_tests);
            let mut tally = scanned.is_none().then(TraceStats::new);
            let mut observe = |chunk: &[MemRef]| {
                if let Some(stats) = &mut tally {
                    stats.extend(chunk.iter().copied());
                }
                observed += chunk.len() as u64;
                if let Some(p) = &self.progress {
                    p.lock()
                        .expect("progress meter poisoned")
                        .tick_now(observed, None);
                }
            };
            // Synthetic streams come straight out of the generator
            // (decoded on the producer thread) and trace files out of
            // their reader (inline when it lends its chunks, as a mapped
            // DTR1 file does). An open system's stream was materialised
            // by sizing and is lent inline. Lock-test filtering wraps any
            // of them and runs on the producer thread.
            let results = match (&raw, &w.input) {
                (Some(raw), _) => self.stream(&broadcaster, n, SliceSource::new(raw), &mut observe),
                (None, Input::Synthetic(config)) => {
                    let stream = self.generate(&w.name, config);
                    self.stream(&broadcaster, n, stream, &mut observe)
                }
                (None, Input::Trace(path)) => {
                    self.stream(&broadcaster, n, self.open(&w.name, path)?, &mut observe)
                }
            }?;
            let stats = scanned.or(tally).expect("a stream is scanned or tallied");
            trace_stats.push((w.name.clone(), stats));
            caches.push(n);
            per_workload.push(results);
        }

        let per_scheme = self
            .schemes
            .iter()
            .enumerate()
            .map(|(i, &scheme)| {
                let mut per_trace = Vec::with_capacity(self.workloads.len());
                let mut combined: Option<SimResult> = None;
                for (w, results) in self.workloads.iter().zip(per_workload.iter()) {
                    let result = results[i].clone();
                    match combined.as_mut() {
                        Some(c) => c.merge(&result),
                        None => combined = Some(result.clone()),
                    }
                    per_trace.push((w.name.clone(), result));
                }
                SchemeResult {
                    scheme,
                    per_trace,
                    combined: combined.expect("at least one workload"),
                }
            })
            .collect();

        Ok(ExperimentResults {
            trace_stats,
            caches,
            per_scheme,
        })
    }

    /// Broadcasts one workload's stream, lock-test filtered when enabled,
    /// showing `observe` each chunk the engine steps.
    fn stream<S, F>(
        &self,
        engine: &BroadcastSimulator,
        caches: u32,
        source: S,
        observe: F,
    ) -> Result<Vec<SimResult>, Error>
    where
        S: TraceSource + Send,
        F: FnMut(&[MemRef]),
    {
        if self.exclude_lock_tests {
            engine.run_observed(
                &self.schemes,
                caches,
                WithoutLockTests::new(source),
                observe,
            )
        } else {
            engine.run_observed(&self.schemes, caches, source, observe)
        }
    }
}

/// Results for one scheme across all workloads.
#[derive(Debug, Clone)]
pub struct SchemeResult {
    /// The scheme simulated.
    pub scheme: Scheme,
    /// Per-workload results, in workload order.
    pub per_trace: Vec<(String, SimResult)>,
    /// All workloads merged (reference-weighted average).
    pub combined: SimResult,
}

/// Results of a full experiment run.
#[derive(Debug, Clone)]
pub struct ExperimentResults {
    /// Table 3-style statistics per workload, of the simulated (possibly
    /// lock-test filtered) stream.
    pub trace_stats: Vec<(String, TraceStats)>,
    /// The cache count each workload ran with, in workload order: the
    /// [`Experiment::caches`] override if set, else what the workload
    /// needs — a synthetic workload's declared population (`processes`,
    /// or `cpus` under per-processor attribution), or, for a trace file
    /// or a per-process open system, one past the highest process id
    /// (CPU id under per-processor attribution) in its unfiltered
    /// stream.
    pub caches: Vec<u32>,
    /// Per-scheme results, in scheme order.
    pub per_scheme: Vec<SchemeResult>,
}

impl ExperimentResults {
    /// Finds a scheme's results.
    ///
    /// ```
    /// # use dirsim::{Experiment, NamedWorkload};
    /// # use dirsim_protocol::Scheme;
    /// # use dirsim_trace::synth::WorkloadConfig;
    /// # let cfg = WorkloadConfig::builder().seed(1).build().unwrap();
    /// # let results = Experiment::new()
    /// #     .workload(NamedWorkload::new("demo", cfg))
    /// #     .scheme(Scheme::Dragon)
    /// #     .refs_per_trace(1_000)
    /// #     .run()
    /// #     .unwrap();
    /// assert!(results.get(Scheme::Dragon).is_some());
    /// assert!(results.get(Scheme::dir_n_nb()).is_none());
    /// ```
    pub fn get(&self, scheme: Scheme) -> Option<&SchemeResult> {
        self.per_scheme.iter().find(|s| s.scheme == scheme)
    }

    /// Names of the simulated workloads, in order.
    pub fn trace_names(&self) -> Vec<&str> {
        self.trace_stats.iter().map(|(n, _)| n.as_str()).collect()
    }
}

impl Index<Scheme> for ExperimentResults {
    type Output = SchemeResult;

    /// `results[scheme]` — like [`ExperimentResults::get`], but panics
    /// with a descriptive message when the scheme was not part of the
    /// experiment.
    fn index(&self, scheme: Scheme) -> &SchemeResult {
        self.get(scheme)
            .unwrap_or_else(|| panic!("scheme {scheme} was not simulated"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_config(seed: u64) -> WorkloadConfig {
        WorkloadConfig::builder().seed(seed).build().unwrap()
    }

    fn tiny_experiment() -> Experiment {
        Experiment::new()
            .workload(NamedWorkload::new("a", small_config(1)))
            .workload(NamedWorkload::new("b", small_config(2)))
            .schemes([Scheme::dir0_b(), Scheme::Dragon])
            .refs_per_trace(5_000)
    }

    #[test]
    fn runs_full_matrix() {
        let results = tiny_experiment().run().unwrap();
        assert_eq!(results.trace_stats.len(), 2);
        assert_eq!(results.per_scheme.len(), 2);
        for s in &results.per_scheme {
            assert_eq!(s.per_trace.len(), 2);
            assert_eq!(s.combined.refs, 10_000);
        }
    }

    #[test]
    fn typed_scheme_lookup() {
        let results = tiny_experiment().run().unwrap();
        assert!(results.get(Scheme::dir0_b()).is_some());
        assert!(results.get(Scheme::Dragon).is_some());
        assert!(results.get(Scheme::Wti).is_none());
        assert_eq!(results[Scheme::Dragon].scheme, Scheme::Dragon);
        assert_eq!(results.trace_names(), vec!["a", "b"]);
    }

    #[test]
    #[should_panic(expected = "was not simulated")]
    fn index_panics_on_missing_scheme() {
        let results = tiny_experiment().run().unwrap();
        let _ = &results[Scheme::Wti];
    }

    #[test]
    fn oracle_checked_run_succeeds() {
        tiny_experiment().check_oracle(true).run().unwrap();
    }

    #[test]
    fn lock_exclusion_reduces_refs() {
        let with_locks = tiny_experiment().run().unwrap();
        let without = tiny_experiment().exclude_lock_tests(true).run().unwrap();
        let a = with_locks.per_scheme[0].combined.refs;
        let b = without.per_scheme[0].combined.refs;
        assert!(b < a, "lock filtering removed references ({b} !< {a})");
    }

    /// Asserts two runs agree: trace statistics, cache counts, and every
    /// scheme's per-trace and combined results.
    fn assert_same_results(a: &ExperimentResults, b: &ExperimentResults, what: &str) {
        assert_eq!(a.trace_stats, b.trace_stats, "{what}");
        assert_eq!(a.caches, b.caches, "{what}");
        for (x, y) in a.per_scheme.iter().zip(b.per_scheme.iter()) {
            assert_eq!(x.scheme, y.scheme, "{what}");
            assert_eq!(x.combined, y.combined, "{what}: {}", x.scheme);
            assert_eq!(x.per_trace, y.per_trace, "{what}: {}", x.scheme);
        }
    }

    fn core_count() -> usize {
        std::thread::available_parallelism().map_or(1, |n| n.get())
    }

    #[test]
    fn all_execution_modes_match() {
        // Neither the worker count nor the chunk size may leak into the
        // results: a 1 000-reference chunk splits each 5 000-reference
        // trace five ways and changes nothing.
        let baseline = tiny_experiment().run().unwrap();
        for workers in [1, 3] {
            for chunk in [DEFAULT_CHUNK, 1_000] {
                let other = tiny_experiment()
                    .chunk_size(chunk)
                    .workers(workers)
                    .run()
                    .unwrap();
                let what = format!("{workers} workers, chunk {chunk}");
                assert_same_results(&baseline, &other, &what);
            }
        }
    }

    #[test]
    fn modes_match_with_lock_exclusion() {
        let one = tiny_experiment().exclude_lock_tests(true).run().unwrap();
        let two = tiny_experiment()
            .exclude_lock_tests(true)
            .workers(2)
            .run()
            .unwrap();
        assert_same_results(&one, &two, "lock-filtered, 2 workers");
    }

    #[test]
    fn parallel_run_matches_sequential() {
        let sequential = tiny_experiment().run().unwrap();
        let parallel = tiny_experiment().workers(core_count()).run().unwrap();
        assert_same_results(&sequential, &parallel, "all cores");
    }

    #[test]
    fn sharded_finite_cache_matches_serial() {
        // Regression: sharded finite-cache experiments used to be
        // rejected with a typed `ShardedFiniteCache` error; set sharding
        // made them exact, so every worker count matches one worker.
        use dirsim_mem::CacheGeometry;
        let config = SimConfig {
            geometry: Some(CacheGeometry { sets: 16, ways: 2 }),
            ..SimConfig::default()
        };
        let finite = |workers| {
            tiny_experiment()
                .sim_config(config)
                .workers(workers)
                .run()
                .unwrap()
        };
        let serial = finite(1);
        for workers in [4, core_count()] {
            assert_same_results(&serial, &finite(workers), &format!("{workers} workers"));
        }
    }

    #[test]
    fn open_system_modes_agree_on_cache_bound() {
        // The materialised bound must match what the old dry pass
        // computed: every worker count sizes the system identically and
        // produces bit-identical results.
        let open = Scenario::named("open-system").unwrap();
        let experiment = |workers| {
            Experiment::new()
                .workload(NamedWorkload::from(open))
                .scheme(Scheme::dir0_b())
                .refs_per_trace(4_000)
                .workers(workers)
                .run()
                .unwrap()
        };
        assert_same_results(&experiment(1), &experiment(2), "2 workers");
    }

    #[test]
    fn deterministic_across_runs() {
        let a = tiny_experiment().run().unwrap();
        let b = tiny_experiment().run().unwrap();
        assert_eq!(
            a.per_scheme[0].combined.events,
            b.per_scheme[0].combined.events
        );
        assert_eq!(a.per_scheme[0].combined.ops, b.per_scheme[0].combined.ops);
    }

    #[test]
    fn empty_workloads_is_a_typed_error() {
        let err = Experiment::new().scheme(Scheme::Wti).run().unwrap_err();
        assert!(
            matches!(err, Error::Config(SimConfigError::NoWorkloads)),
            "{err}"
        );
    }

    #[test]
    fn empty_schemes_is_a_typed_error() {
        let err = Experiment::new()
            .workload(NamedWorkload::new("a", small_config(1)))
            .run()
            .unwrap_err();
        assert!(
            matches!(err, Error::Config(SimConfigError::NoSchemes)),
            "{err}"
        );
    }

    /// Writes `refs` to a fresh DTR1 file named after `tag`.
    fn dtr1_file(tag: &str, refs: &[MemRef]) -> PathBuf {
        let path = std::env::temp_dir().join(format!(
            "dirsim-experiment-{}-{tag}.dtr",
            std::process::id()
        ));
        let mut bytes = Vec::new();
        dirsim_trace::io::write_binary(&mut bytes, refs.iter().copied()).unwrap();
        std::fs::write(&path, bytes).unwrap();
        path
    }

    /// The worker counts the trace-input tests run at.
    const WORKERS: [usize; 2] = [1, 2];

    #[test]
    fn sparse_cpu_ids_size_per_processor_runs_by_the_id_bound() {
        use crate::engine::Simulator;
        use dirsim_trace::CpuId;
        // CPU ids {0, 2}: two distinct CPUs, but cache index 2 must exist.
        let refs: Vec<MemRef> = Workload::new(small_config(4))
            .take(3_000)
            .map(|mut r| {
                r.cpu = CpuId::new((r.cpu.index() % 2 * 2) as u16);
                r
            })
            .collect();
        assert_eq!(TraceStats::from_refs(refs.iter().copied()).cpu_count(), 2);
        let path = dtr1_file("sparse", &refs);
        let sim = SimConfig {
            sharing: SharingModel::PerProcessor,
            ..SimConfig::default()
        };
        let schemes = [Scheme::dir0_b(), Scheme::Dragon];
        let direct: Vec<SimResult> = schemes
            .iter()
            .map(|s| {
                let mut protocol = s.build(3);
                Simulator::new(sim)
                    .run(protocol.as_mut(), refs.iter().copied())
                    .unwrap()
            })
            .collect();
        for workers in WORKERS {
            let results = Experiment::new()
                .workload(NamedWorkload::trace("sparse", &path))
                .schemes(schemes)
                .sim_config(sim)
                .workers(workers)
                .run()
                .unwrap();
            assert_eq!(results.caches, [3], "{workers} workers");
            for (got, want) in results.per_scheme.iter().zip(&direct) {
                assert_eq!(&got.combined, want, "{workers} workers: {}", got.scheme);
            }
        }
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn an_override_may_widen_a_trace_but_never_narrow_it() {
        let refs: Vec<MemRef> = Workload::new(small_config(5)).take(2_000).collect();
        let needed = TraceStats::from_refs(refs.iter().copied()).process_id_bound();
        assert_eq!(needed, 4);
        let path = dtr1_file("override", &refs);
        let experiment = |caches| {
            Experiment::new()
                .workload(NamedWorkload::trace("t", &path))
                .scheme(Scheme::Wti)
                .caches(caches)
        };
        for workers in WORKERS {
            let err = experiment(Some(1)).workers(workers).run().unwrap_err();
            assert!(
                matches!(
                    err,
                    Error::Config(SimConfigError::TooFewCaches {
                        caches: 1,
                        needed: 4
                    })
                ),
                "{workers} workers: {err}"
            );
            let wide = experiment(Some(6)).workers(workers).run().unwrap();
            assert_eq!(wide.caches, [6], "{workers} workers");
        }
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn an_empty_trace_is_a_typed_error() {
        let path = dtr1_file("empty", &[]);
        for caches in [None, Some(4)] {
            for workers in WORKERS {
                let err = Experiment::new()
                    .workload(NamedWorkload::trace("nothing", &path))
                    .scheme(Scheme::Wti)
                    .caches(caches)
                    .workers(workers)
                    .run()
                    .unwrap_err();
                assert!(
                    matches!(&err, Error::Config(SimConfigError::EmptyTrace(name)) if name == "nothing"),
                    "{caches:?}, {workers} workers: {err}"
                );
            }
        }
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn a_zero_reference_budget_is_a_typed_error() {
        use dirsim_obs::MetricsRegistry;
        // Sizing never scans a closed synthetic workload, so a zero budget
        // must fail there as it does for an open system or a trace file:
        // a typed error before any lane bank is built.
        let refs: Vec<MemRef> = Workload::new(small_config(7)).take(100).collect();
        let path = dtr1_file("zero-budget", &refs);
        let inputs = [
            NamedWorkload::new("closed", small_config(7)),
            NamedWorkload::from(Scenario::named("open-system").unwrap()),
            NamedWorkload::trace("file", &path),
        ];
        for w in inputs {
            for workers in WORKERS {
                let reg = Arc::new(MetricsRegistry::new());
                let err = Experiment::new()
                    .workload(w.clone())
                    .scheme(Scheme::Wti)
                    .refs_per_trace(0)
                    .recorder(Arc::clone(&reg) as Arc<dyn Recorder>)
                    .workers(workers)
                    .run()
                    .unwrap_err();
                let what = format!("{}, {workers} workers", w.name);
                assert!(
                    matches!(&err, Error::Config(SimConfigError::EmptyTrace(name)) if *name == w.name),
                    "{what}: {err}"
                );
                assert_eq!(reg.counter_value("kernel_lanes", &[]), None, "{what}");
            }
        }
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn input_passes_count_every_read_of_every_input() {
        use dirsim_obs::MetricsRegistry;
        // A trace file is read twice, by sizing's scan and by the run; a
        // closed synthetic workload once, by the run; an open system once,
        // by sizing, whose materialised stream the run consumes. Whichever
        // pass supplied them, each workload's statistics are those of the
        // stream it simulated.
        const REFS: usize = 4_000;
        let open = Scenario::named("open-system").unwrap();
        assert!(open.config().open.is_enabled(), "scenario must be open");
        let closed = small_config(3);
        let file: Vec<MemRef> = Workload::new(small_config(6)).take(REFS).collect();
        let path = dtr1_file("passes", &file);
        let generated = |config: &WorkloadConfig| -> Vec<MemRef> {
            Workload::new(config.clone()).take(REFS).collect()
        };
        let inputs = [
            ("open-system", 1, generated(open.config())),
            ("closed", 1, generated(&closed)),
            ("file", 2, file),
        ];
        for exclude in [false, true] {
            for workers in WORKERS {
                let reg = Arc::new(MetricsRegistry::new());
                let results = Experiment::new()
                    .workload(NamedWorkload::from(open))
                    .workload(NamedWorkload::new("closed", closed.clone()))
                    .workload(NamedWorkload::trace("file", &path))
                    .scheme(Scheme::dir0_b())
                    .refs_per_trace(REFS)
                    .exclude_lock_tests(exclude)
                    .recorder(Arc::clone(&reg) as Arc<dyn Recorder>)
                    .workers(workers)
                    .run()
                    .unwrap();
                for ((name, passes, refs), (got, stats)) in inputs.iter().zip(&results.trace_stats)
                {
                    let what = format!("{name}, {workers} workers, lock tests excluded: {exclude}");
                    assert_eq!(got, name, "{what}");
                    assert_eq!(
                        reg.counter_value("input_passes", &[("trace", name)]),
                        Some(*passes),
                        "{what}"
                    );
                    let simulated = refs.iter().filter(|r| !(exclude && r.flags.is_lock()));
                    assert_eq!(*stats, TraceStats::from_refs(simulated.copied()), "{what}");
                }
            }
        }
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn zero_workers_is_a_typed_error() {
        let err = tiny_experiment().workers(0).run().unwrap_err();
        assert!(
            matches!(err, Error::Config(SimConfigError::ZeroWorkers)),
            "{err}"
        );
    }
}
