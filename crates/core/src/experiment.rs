//! The experiment harness: a (workloads × schemes) simulation matrix.
//!
//! [`Experiment`] drives every configured workload through every configured
//! scheme and collects per-trace and combined [`SimResult`]s. There is one
//! way to run it — [`Experiment::run`] — in one of two [`ExecutionMode`]s:
//!
//! * [`Parallel { workers }`](ExecutionMode::Parallel) (the default, with
//!   one worker): each workload is generated once and broadcast through
//!   all schemes in lockstep via [`BroadcastSimulator`], sharded over
//!   `workers` threads (by block address for infinite caches, by cache
//!   set index for finite geometries);
//! * [`Serial`](ExecutionMode::Serial): the paper's literal
//!   one-pass-per-scheme method over the materialised trace, kept as the
//!   oracle the parallel mode is checked against.
//!
//! Both run the same staged `decode → route → step → merge` pipeline and
//! produce bit-identical results. Where decode runs is decided by the
//! source, not the mode (see [`crate::broadcast`]): streamed generators
//! decode on a producer thread, materialised traces are lent inline as a
//! [`SliceSource`]. The paper-specific experiment presets live in
//! [`crate::paper`].

use std::ops::Index;
use std::sync::{Arc, Mutex};

use dirsim_mem::SharingModel;
use dirsim_obs::{NoopRecorder, ProgressMeter, Recorder};
use dirsim_protocol::Scheme;
use dirsim_trace::filter::without_lock_tests;
use dirsim_trace::source::{IterSource, SliceSource, WithoutLockTests};
use dirsim_trace::synth::{Workload, WorkloadConfig};
use dirsim_trace::{MemRef, Scenario, TraceStats};

use crate::broadcast::{BroadcastSimulator, DEFAULT_CHUNK};
use crate::engine::{SimConfig, SimConfigError, SimResult};
use crate::error::Error;

/// One named workload in an experiment.
#[derive(Debug, Clone)]
pub struct NamedWorkload {
    /// Display name (`POPS`, `THOR`, …).
    pub name: String,
    /// Generator configuration.
    pub config: WorkloadConfig,
}

impl NamedWorkload {
    /// Creates a named workload.
    pub fn new(name: impl Into<String>, config: WorkloadConfig) -> Self {
        NamedWorkload {
            name: name.into(),
            config,
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

/// How an [`Experiment`] executes its matrix.
///
/// Both modes produce bit-identical [`ExperimentResults`]; they differ
/// only in how many trace passes run and how stepping is spread over
/// threads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ExecutionMode {
    /// One full pass over each materialised trace per scheme — the
    /// paper's literal methodology and the oracle for
    /// [`Parallel`](Self::Parallel). N schemes pay for N passes.
    Serial,
    /// Generate each trace once and broadcast every chunk through all
    /// schemes in lockstep, sharded over `workers` threads under the
    /// configuration's [`ShardKey`](crate::engine::ShardKey): by block
    /// address for infinite caches, by cache set index for finite
    /// geometries. Exact for every worker count; one worker steps on the
    /// calling thread.
    Parallel {
        /// Number of step worker threads (not counting a decode
        /// producer thread, which the source decides on).
        workers: usize,
    },
}

impl ExecutionMode {
    /// [`Parallel`](Self::Parallel) with one worker per available core
    /// (one worker when the core count is unknown).
    pub fn all_cores() -> Self {
        let workers = std::thread::available_parallelism().map_or(1, |n| n.get());
        ExecutionMode::Parallel { workers }
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
    exclude_lock_tests: bool,
    mode: ExecutionMode,
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
            exclude_lock_tests: false,
            mode: ExecutionMode::Parallel { workers: 1 },
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

    /// References simulated per workload (default 100 000).
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

    /// Sets the execution mode used by [`Self::run`] (default
    /// `Parallel { workers: 1 }`).
    pub fn execution(mut self, mode: ExecutionMode) -> Self {
        self.mode = mode;
        self
    }

    /// Sets the metrics [`Recorder`] passed to the underlying engine (see
    /// [`BroadcastSimulator::recorder`]). Defaults to the no-op recorder.
    pub fn recorder(mut self, recorder: Arc<dyn Recorder>) -> Self {
        self.recorder = recorder;
        self
    }

    /// Attaches a throttled [`ProgressMeter`] reporting cumulative
    /// references observed across the whole matrix.
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

    /// Whether sizing the system needs the materialised trace: open-system
    /// traces mint fresh process ids past the initial population, and
    /// per-process attribution needs one cache per id that appears.
    fn needs_trace_for_bound(&self, config: &WorkloadConfig) -> bool {
        self.sim.sharing == SharingModel::PerProcess && config.open.is_enabled()
    }

    /// Caches the simulated system needs for `config`, given the
    /// **unfiltered** reference stream `raw` when
    /// [`Self::needs_trace_for_bound`] says it is required. Lock-test
    /// filtering never widens the id space, so the unfiltered bound also
    /// covers the filtered stream.
    ///
    /// This used to run a *dry generation pass* over the workload just to
    /// find max-pid+1, silently doubling trace-generation cost for every
    /// open-system per-process run; the bound now comes from the same
    /// materialised pass the run itself consumes
    /// (`trace_generations` pins the pass count).
    fn cache_bound(&self, config: &WorkloadConfig, raw: &[MemRef]) -> u32 {
        match self.sim.sharing {
            SharingModel::PerProcess if config.open.is_enabled() => raw
                .iter()
                .map(|r| r.pid.index() as u32 + 1)
                .max()
                .unwrap_or(config.processes),
            SharingModel::PerProcess => config.processes,
            SharingModel::PerProcessor => u32::from(config.cpus),
        }
    }

    /// Materialises one workload's unfiltered reference stream — exactly
    /// one generation pass, counted in the `trace_generations` metric so
    /// tests can pin that no code path regenerates a trace behind the
    /// experiment's back.
    fn generate_raw(&self, w: &NamedWorkload) -> Vec<MemRef> {
        self.note_generation(&w.name);
        Workload::new(w.config.clone())
            .take(self.refs_per_trace)
            .collect()
    }

    /// Materialises one workload's simulated stream: one generation pass,
    /// the cache bound taken from the unfiltered stream, then lock-test
    /// filtering when enabled.
    fn materialise(&self, w: &NamedWorkload) -> (u32, Vec<MemRef>) {
        let raw = self.generate_raw(w);
        let caches = self.cache_bound(&w.config, &raw);
        let refs = if self.exclude_lock_tests {
            without_lock_tests(raw).collect()
        } else {
            raw
        };
        (caches, refs)
    }

    /// Records one trace-generation pass for `name`.
    fn note_generation(&self, name: &str) {
        self.recorder
            .counter("trace_generations", &[("trace", name)], 1);
    }

    /// Runs the full matrix in the configured [`ExecutionMode`]
    /// (`Parallel { workers: 1 }` unless overridden via
    /// [`Self::execution`]).
    ///
    /// # Errors
    ///
    /// Propagates the first [`Error`] — an oracle or invariant violation
    /// when checking is enabled, or an invalid configuration, including
    /// [`SimConfigError::NoWorkloads`] and [`SimConfigError::NoSchemes`]
    /// for an empty matrix.
    pub fn run(&self) -> Result<ExperimentResults, Error> {
        if self.workloads.is_empty() {
            return Err(Error::Config(SimConfigError::NoWorkloads));
        }
        if self.schemes.is_empty() {
            return Err(Error::Config(SimConfigError::NoSchemes));
        }
        match self.mode {
            ExecutionMode::Serial => self.run_serial(),
            ExecutionMode::Parallel { workers } => self.run_broadcast(workers),
        }
    }

    /// The oracle path: materialise each trace, then one independent
    /// pipeline pass per (scheme, workload) cell — the paper's literal
    /// N-passes methodology, expressed on the same staged pipeline as
    /// the parallel mode. The materialised traces are lent inline.
    fn run_serial(&self) -> Result<ExperimentResults, Error> {
        let mut trace_stats = Vec::with_capacity(self.workloads.len());
        let mut trace_refs: Vec<Vec<MemRef>> = Vec::with_capacity(self.workloads.len());
        let mut trace_caches = Vec::with_capacity(self.workloads.len());
        for w in &self.workloads {
            let (caches, refs) = self.materialise(w);
            trace_caches.push(caches);
            trace_stats.push((w.name.clone(), TraceStats::from_refs(refs.iter().copied())));
            trace_refs.push(refs);
        }

        // The engine keeps its default no-op recorder here: per-chunk
        // metrics would count every trace `schemes` times in this mode,
        // so only the per-scheme totals are recorded, as before.
        let engine = BroadcastSimulator::new(self.sim).chunk_size(self.chunk);
        let mut per_scheme = Vec::with_capacity(self.schemes.len());
        let mut simulated_refs = 0u64;
        for &scheme in &self.schemes {
            let mut per_trace = Vec::with_capacity(self.workloads.len());
            let mut combined: Option<SimResult> = None;
            for ((w, refs), &caches) in self
                .workloads
                .iter()
                .zip(trace_refs.iter())
                .zip(trace_caches.iter())
            {
                let mut results = engine.run(&[scheme], caches, SliceSource::new(refs))?;
                let result = results.pop().expect("one scheme in, one result out");
                simulated_refs += result.refs;
                if let Some(p) = &self.progress {
                    p.lock()
                        .expect("progress meter poisoned")
                        .tick_now(simulated_refs, None);
                }
                match combined.as_mut() {
                    Some(c) => c.merge(&result),
                    None => combined = Some(result.clone()),
                }
                per_trace.push((w.name.clone(), result));
            }
            let combined = combined.expect("at least one workload");
            crate::pipeline::record_scheme_totals(&*self.recorder, std::slice::from_ref(&combined));
            per_scheme.push(SchemeResult {
                scheme,
                per_trace,
                combined,
            });
        }

        Ok(ExperimentResults {
            trace_stats,
            per_scheme,
        })
    }

    /// The parallel path: each workload is generated once, streamed in
    /// chunks, and broadcast through every scheme, sharded over
    /// `workers`.
    fn run_broadcast(&self, workers: usize) -> Result<ExperimentResults, Error> {
        let broadcaster = BroadcastSimulator::new(self.sim)
            .chunk_size(self.chunk)
            .workers(workers)
            .recorder(Arc::clone(&self.recorder));
        let mut trace_stats = Vec::with_capacity(self.workloads.len());
        let mut per_workload: Vec<Vec<SimResult>> = Vec::with_capacity(self.workloads.len());
        let mut observed = 0u64;
        for w in &self.workloads {
            let mut stats = TraceStats::new();
            let mut observe = |r: &MemRef| {
                stats.observe(r);
                observed += 1;
                if let Some(p) = &self.progress {
                    p.lock()
                        .expect("progress meter poisoned")
                        .tick(observed, None);
                }
            };
            // Closed systems stream straight out of the generator (decoded
            // on the producer thread); open per-process systems
            // materialise the trace once, derive the cache bound from that
            // same pass (never a second, dry generation pass — see
            // `cache_bound`), and lend it inline. Lock-test filtering
            // happens before the engine either way, so `observe` (and
            // therefore `TraceStats`) sees exactly the filtered stream, as
            // in serial mode.
            let schemes = &self.schemes;
            let results = if self.needs_trace_for_bound(&w.config) {
                let (caches, refs) = self.materialise(w);
                broadcaster.run_observed(schemes, caches, SliceSource::new(&refs), &mut observe)?
            } else {
                let caches = self.cache_bound(&w.config, &[]);
                self.note_generation(&w.name);
                let stream =
                    IterSource::new(Workload::new(w.config.clone()).take(self.refs_per_trace));
                if self.exclude_lock_tests {
                    let filtered = WithoutLockTests::new(stream);
                    broadcaster.run_observed(schemes, caches, filtered, &mut observe)?
                } else {
                    broadcaster.run_observed(schemes, caches, stream, &mut observe)?
                }
            };
            trace_stats.push((w.name.clone(), stats));
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
            per_scheme,
        })
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
    /// Table 3-style statistics per workload.
    pub trace_stats: Vec<(String, TraceStats)>,
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

    #[test]
    fn all_execution_modes_match() {
        let serial = tiny_experiment()
            .execution(ExecutionMode::Serial)
            .run()
            .unwrap();
        // The chunk size only paces the pipeline: a 1 000-reference chunk
        // splits each 5 000-reference trace five ways and changes nothing.
        for mode in [
            ExecutionMode::Parallel { workers: 1 },
            ExecutionMode::Parallel { workers: 3 },
        ] {
            for chunk in [DEFAULT_CHUNK, 1_000] {
                let other = tiny_experiment()
                    .chunk_size(chunk)
                    .execution(mode)
                    .run()
                    .unwrap();
                let what = format!("{mode:?}, chunk {chunk}");
                assert_eq!(serial.trace_stats, other.trace_stats, "{what}");
                for (a, b) in serial.per_scheme.iter().zip(other.per_scheme.iter()) {
                    assert_eq!(a.scheme, b.scheme);
                    assert_eq!(a.combined, b.combined, "{what}");
                    assert_eq!(a.per_trace, b.per_trace, "{what}");
                }
            }
        }
    }

    #[test]
    fn modes_match_with_lock_exclusion() {
        let serial = tiny_experiment()
            .exclude_lock_tests(true)
            .execution(ExecutionMode::Serial)
            .run()
            .unwrap();
        let single = tiny_experiment()
            .exclude_lock_tests(true)
            .execution(ExecutionMode::Parallel { workers: 1 })
            .run()
            .unwrap();
        assert_eq!(serial.trace_stats, single.trace_stats);
        for (a, b) in serial.per_scheme.iter().zip(single.per_scheme.iter()) {
            assert_eq!(a.combined, b.combined);
        }
    }

    #[test]
    fn parallel_run_matches_sequential() {
        let sequential = tiny_experiment().run().unwrap();
        let parallel = tiny_experiment()
            .execution(ExecutionMode::all_cores())
            .run()
            .unwrap();
        assert_eq!(sequential.trace_stats, parallel.trace_stats);
        for (a, b) in sequential.per_scheme.iter().zip(parallel.per_scheme.iter()) {
            assert_eq!(a.scheme, b.scheme);
            assert_eq!(a.combined, b.combined);
            assert_eq!(a.per_trace, b.per_trace);
        }
    }

    #[test]
    fn sharded_finite_cache_matches_serial() {
        // Regression: sharded finite-cache experiments used to be
        // rejected with a typed `ShardedFiniteCache` error; set sharding
        // made them exact. The all-cores mode shards finite geometries
        // too.
        use dirsim_mem::CacheGeometry;
        let config = SimConfig::builder()
            .geometry(CacheGeometry { sets: 16, ways: 2 })
            .build()
            .unwrap();
        let finite = |mode| {
            tiny_experiment()
                .sim_config(config)
                .execution(mode)
                .run()
                .unwrap()
        };
        let serial = finite(ExecutionMode::Serial);
        for results in [
            finite(ExecutionMode::Parallel { workers: 4 }),
            finite(ExecutionMode::all_cores()),
        ] {
            for (a, b) in serial.per_scheme.iter().zip(results.per_scheme.iter()) {
                assert_eq!(a.scheme, b.scheme);
                assert_eq!(a.combined, b.combined);
                assert_eq!(a.per_trace, b.per_trace);
            }
        }
    }

    #[test]
    fn run_generates_each_trace_exactly_once() {
        use dirsim_obs::{MetricValue, MetricsRegistry};
        // Regression for the dry-pass double generation: sizing an
        // open-system per-process run used to regenerate the *entire*
        // workload just to compute max-pid+1, so every such run paid for
        // two generation passes per trace. The bound now comes from the
        // run's own materialised pass; `trace_generations` counts every
        // `Workload` stream the experiment constructs.
        let open = Scenario::named("open-system").unwrap();
        assert!(open.config().open.is_enabled(), "scenario must be open");
        for mode in [
            ExecutionMode::Serial,
            ExecutionMode::Parallel { workers: 1 },
            ExecutionMode::Parallel { workers: 2 },
        ] {
            let reg = Arc::new(MetricsRegistry::new());
            let results = Experiment::new()
                .workload(NamedWorkload::from(open))
                .workload(NamedWorkload::new("closed", small_config(3)))
                .schemes([Scheme::dir0_b(), Scheme::Dragon])
                .refs_per_trace(4_000)
                .recorder(Arc::clone(&reg) as Arc<dyn Recorder>)
                .execution(mode)
                .run()
                .unwrap();
            assert_eq!(results.per_scheme.len(), 2);
            for name in ["open-system", "closed"] {
                let passes: u64 = reg
                    .snapshot()
                    .iter()
                    .filter(|r| {
                        r.name == "trace_generations"
                            && r.labels == [("trace".to_string(), name.to_string())]
                    })
                    .map(|r| match r.value {
                        MetricValue::Counter(c) => c,
                        _ => 0,
                    })
                    .sum();
                assert_eq!(passes, 1, "{mode:?}: trace {name} generated {passes} times");
            }
        }
    }

    #[test]
    fn open_system_modes_agree_on_cache_bound() {
        // The materialised bound must match what the old dry pass
        // computed: every execution mode still sizes the system
        // identically and produces bit-identical results.
        let open = Scenario::named("open-system").unwrap();
        let experiment = || {
            Experiment::new()
                .workload(NamedWorkload::from(open))
                .scheme(Scheme::dir0_b())
                .refs_per_trace(4_000)
        };
        let serial = experiment().execution(ExecutionMode::Serial).run().unwrap();
        for mode in [
            ExecutionMode::Parallel { workers: 1 },
            ExecutionMode::Parallel { workers: 2 },
        ] {
            let other = experiment().execution(mode).run().unwrap();
            assert_eq!(serial.trace_stats, other.trace_stats, "{mode:?}");
            assert_eq!(
                serial.per_scheme[0].combined, other.per_scheme[0].combined,
                "{mode:?}"
            );
        }
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
            .execution(ExecutionMode::Serial)
            .run()
            .unwrap_err();
        assert!(
            matches!(err, Error::Config(SimConfigError::NoSchemes)),
            "{err}"
        );
    }

    #[test]
    fn zero_workers_is_a_typed_error() {
        let err = tiny_experiment()
            .execution(ExecutionMode::Parallel { workers: 0 })
            .run()
            .unwrap_err();
        assert!(
            matches!(err, Error::Config(SimConfigError::ZeroWorkers)),
            "{err}"
        );
    }
}
