//! The three workloads: their inputs (made from the benchmark seed), the
//! job each one times, and the checks on the job's output.
//!
//! * `pops-corpus` — 14 schemes over a DTR1 corpus generated from `pops`,
//!   infinite caches: `open_trace` → `TraceStats` pass →
//!   `BroadcastSimulator::workers(nproc).run` over the memory-mapped file.
//! * `wide96-finite` — the same job over a corpus from `wide96.scn`
//!   (96 CPUs, 64x4 finite caches): past the kernel width limit, so every
//!   step runs the match machines and the finite-cache replica evicts.
//! * `paper-grid-cold` — `run_sweep` over `paper-grid.sweep`'s schemes
//!   and seeded copies of pops/thor/pero, each job on a fresh store.

use std::error::Error;
use std::fs::File;
use std::io::{BufWriter, Write as _};
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;

use dirsim::broadcast::DEFAULT_CHUNK;
use dirsim::prelude::CostModel;
use dirsim::reference::paper_table5_cumulative;
use dirsim::{BroadcastSimulator, KernelPolicy, SimConfig, SimResult};
use dirsim_mem::CacheGeometry;
use dirsim_obs::{NoopRecorder, Recorder};
use dirsim_protocol::Scheme;
use dirsim_sweep::{run_sweep, CellRecord, Store, SweepOptions, SweepSpec};
use dirsim_trace::codec::BinaryWriter;
use dirsim_trace::{open_trace, IterSource, Scenario, TraceStats};

/// Boxed error for the benchmark's own plumbing.
pub type BoxError = Box<dyn Error + Send + Sync>;

/// The 14 schemes the corpus workloads run, in the paper's order.
pub const LINEUP: [&str; 14] = [
    "Dir0B",
    "Dir1B",
    "Dir2B",
    "Dir4B",
    "Dir1NB",
    "Dir2NB",
    "Dir4NB",
    "DirnNB",
    "CoarseVector",
    "Tang",
    "YenFu",
    "DirUpd",
    "WTI",
    "Dragon",
];

/// Schemes whose All-column pipelined cycles/ref the paper published.
pub const PUBLISHED: [&str; 7] = [
    "Dir1NB", "WTI", "Dir0B", "Dragon", "Berkeley", "DirnNB", "Dir1B",
];

const WIDE96_SCN: &str = include_str!("../scenarios/wide96.scn");
const PAPER_GRID_SWEEP: &str = include_str!("../../crates/sweep/specs/paper-grid.sweep");

/// The finite geometry of `wide96-finite` (and of the finite-replica probe).
pub const FINITE: CacheGeometry = CacheGeometry { sets: 64, ways: 4 };

/// Parses [`LINEUP`].
pub fn lineup() -> Vec<Scheme> {
    LINEUP
        .iter()
        .map(|s| s.parse().expect("lineup names are valid schemes"))
        .collect()
}

/// Input sizes. [`Sizes::FULL`] is what the benchmark measures;
/// [`Sizes::tiny`] keeps the self-tests fast.
#[derive(Debug, Clone, Copy)]
pub struct Sizes {
    /// References in the `pops-corpus` corpus.
    pub pops_refs: u64,
    /// References in the `wide96-finite` corpus.
    pub wide_refs: u64,
    /// References per `paper-grid-cold` cell.
    pub cell_refs: usize,
    /// Prefix length of the single-lane probes and of trace sweep cells.
    pub prefix_refs: usize,
    /// References drained by the generator probe.
    pub gen_refs: usize,
    /// SharerSet operations per probe.
    pub sharer_ops: usize,
    /// Set-up repetitions per run of the corpus workloads (the median is
    /// reported).
    pub setup_reps: usize,
    /// Set-up repetitions per run of `paper-grid-cold`, whose set-up takes
    /// about a millisecond and so needs more samples for a steady median.
    pub grid_setup_reps: usize,
    /// Repetitions of each standalone probe (the median is reported).
    pub probe_reps: usize,
}

impl Sizes {
    /// The benchmark's sizes.
    pub const FULL: Sizes = Sizes {
        pops_refs: 10_000_000,
        wide_refs: 2_000_000,
        cell_refs: 1_000_000,
        prefix_refs: 300_000,
        gen_refs: 2_000_000,
        sharer_ops: 4_000_000,
        setup_reps: 3,
        grid_setup_reps: 31,
        probe_reps: 3,
    };

    /// Self-test sizes: every path runs, in milliseconds.
    #[cfg(test)]
    pub fn tiny() -> Sizes {
        Sizes {
            pops_refs: 20_000,
            wide_refs: 10_000,
            cell_refs: 2_000,
            prefix_refs: 3_000,
            gen_refs: 5_000,
            sharer_ops: 10_000,
            setup_reps: 2,
            grid_setup_reps: 2,
            probe_reps: 1,
        }
    }
}

/// A benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// 14 schemes over a `pops` corpus with infinite caches.
    PopsCorpus,
    /// 14 schemes over a 96-CPU corpus with 64x4 finite caches.
    Wide96Finite,
    /// The paper grid on a cold store.
    PaperGridCold,
}

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 3] = [
        Workload::PopsCorpus,
        Workload::Wide96Finite,
        Workload::PaperGridCold,
    ];

    /// The workload's name on the command line.
    pub fn name(self) -> &'static str {
        match self {
            Workload::PopsCorpus => "pops-corpus",
            Workload::Wide96Finite => "wide96-finite",
            Workload::PaperGridCold => "paper-grid-cold",
        }
    }

    /// Looks a workload up by name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// Re-seeds a scenario spec: its own seed mixed with the benchmark seed,
/// so every `--seed` gives different (and reproducible) inputs.
///
/// # Errors
///
/// Returns the scenario error if `spec` does not parse.
pub fn reseed(spec: &str, seed: u64) -> Result<Scenario, BoxError> {
    let canonical = Scenario::parse(spec)?.to_spec();
    let mut text = String::with_capacity(canonical.len());
    for line in canonical.lines() {
        match line.trim().strip_prefix("seed = 0x") {
            Some(hex) => {
                let own = u64::from_str_radix(hex, 16)?;
                text.push_str(&format!(
                    "    seed = 0x{:x}\n",
                    splitmix64(own ^ splitmix64(seed))
                ));
            }
            None => {
                text.push_str(line);
                text.push('\n');
            }
        }
    }
    Ok(Scenario::parse(&text)?)
}

fn splitmix64(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

// ---------------------------------------------------------------------------
// Corpus workloads
// ---------------------------------------------------------------------------

/// A corpus workload's input: the seeded scenario, its length, the
/// cache geometry, and where set-up writes the DTR1 file.
#[derive(Debug, Clone)]
pub struct Corpus {
    /// The seeded scenario the corpus is generated from.
    pub scenario: Scenario,
    /// References in the corpus.
    pub refs: u64,
    /// `None` for infinite caches.
    pub geometry: Option<CacheGeometry>,
    /// The corpus file.
    pub path: PathBuf,
}

impl Corpus {
    /// The corpus for `workload` (a corpus workload) under `seed`.
    ///
    /// # Errors
    ///
    /// Fails if the scenario does not parse.
    pub fn new(
        workload: Workload,
        seed: u64,
        sizes: &Sizes,
        dir: &Path,
    ) -> Result<Corpus, BoxError> {
        let (spec, refs, geometry) = match workload {
            Workload::PopsCorpus => (Scenario::named("pops")?.to_spec(), sizes.pops_refs, None),
            Workload::Wide96Finite => (WIDE96_SCN.to_string(), sizes.wide_refs, Some(FINITE)),
            Workload::PaperGridCold => return Err("paper-grid-cold has no corpus".into()),
        };
        Ok(Corpus {
            scenario: reseed(&spec, seed)?,
            refs,
            geometry,
            path: dir.join(format!("{}.dtr", workload.name())),
        })
    }

    /// Set-up: generates the corpus and writes it as DTR1.
    ///
    /// # Errors
    ///
    /// Returns any I/O error.
    pub fn write(&self) -> Result<(), BoxError> {
        write_dtr1(&self.scenario, self.refs, &self.path)
    }

    /// The engine configuration the job runs with.
    pub fn config(&self, kernels: KernelPolicy) -> SimConfig {
        SimConfig {
            geometry: self.geometry,
            kernels,
            ..SimConfig::default()
        }
    }
}

/// Streams `refs` references of `scenario` into a DTR1 file at `path`.
///
/// # Errors
///
/// Returns any I/O error.
pub fn write_dtr1(scenario: &Scenario, refs: u64, path: &Path) -> Result<(), BoxError> {
    let file = BufWriter::with_capacity(1 << 20, File::create(path)?);
    let mut writer = BinaryWriter::new(file)?;
    for r in scenario.workload().take(refs as usize) {
        writer.push(&r)?;
    }
    let (mut file, _) = writer.finish()?;
    file.flush()?;
    Ok(())
}

/// One timed corpus job.
#[derive(Debug, Clone)]
pub struct CorpusJob {
    /// Whole job, stats pass included.
    pub wall_s: f64,
    /// The `TraceStats` pass alone.
    pub stats_s: f64,
    /// Caches the stats pass derived (one per process id).
    pub caches: u32,
    /// One result per scheme.
    pub results: Vec<SimResult>,
}

/// Runs the corpus job: stats pass over the file, then every scheme over
/// the memory-mapped file on `workers` engine workers.
///
/// # Errors
///
/// Returns trace and engine errors.
pub fn corpus_job(
    path: &Path,
    schemes: &[Scheme],
    config: SimConfig,
    workers: usize,
    recorder: Arc<dyn Recorder>,
) -> Result<CorpusJob, BoxError> {
    let start = Instant::now();
    let mut stats = TraceStats::new();
    {
        let mut source = open_trace(path)?;
        let mut chunk = Vec::new();
        while source.read_chunk(&mut chunk, DEFAULT_CHUNK)? > 0 {
            for r in &chunk {
                stats.observe(r);
            }
        }
    }
    let stats_s = start.elapsed().as_secs_f64();
    let caches = stats.process_id_bound();
    let results = BroadcastSimulator::new(config)
        .workers(workers)
        .recorder(recorder)
        .run(schemes, caches, open_trace(path)?)?;
    Ok(CorpusJob {
        wall_s: start.elapsed().as_secs_f64(),
        stats_s,
        caches,
        results,
    })
}

/// The untraced recorder.
pub fn noop() -> Arc<dyn Recorder> {
    Arc::new(NoopRecorder)
}

// ---------------------------------------------------------------------------
// paper-grid-cold
// ---------------------------------------------------------------------------

/// The paper grid as the benchmark runs it: seeded `.scn` copies of the
/// three paper traces, `paper-grid.sweep`'s schemes, `cell_refs` per cell.
#[derive(Debug, Clone)]
pub struct Grid {
    /// The parsed spec.
    pub spec: SweepSpec,
    /// Directory holding the `.scn` files and stores.
    pub dir: PathBuf,
}

impl Grid {
    /// Set-up: writes the seeded `.scn` files, parses and expands the spec
    /// and creates a store. Returns the grid and the parse+expand seconds.
    ///
    /// # Errors
    ///
    /// Returns I/O, scenario, spec and store errors.
    pub fn setup(seed: u64, sizes: &Sizes, dir: &Path) -> Result<(Grid, f64), BoxError> {
        let mut paths = Vec::new();
        for name in ["pops", "thor", "pero"] {
            let scenario = reseed(&Scenario::named(name)?.to_spec(), seed)?;
            let path = dir.join(format!("{name}.scn"));
            std::fs::write(&path, scenario.to_spec())?;
            paths.push(path.display().to_string());
        }
        let schemes: Vec<String> = SweepSpec::parse(PAPER_GRID_SWEEP)?
            .schemes
            .iter()
            .map(|s| s.name())
            .collect();
        let text = format!(
            "schemes = {}\nscenarios = {}\nrefs = {}\ncost-models = pipelined, non-pipelined\n",
            schemes.join(", "),
            paths.join(", "),
            sizes.cell_refs
        );
        let start = Instant::now();
        let spec = SweepSpec::parse(&text)?;
        let cells = spec.expand()?;
        let expand_s = start.elapsed().as_secs_f64();
        std::hint::black_box(cells);
        let grid = Grid {
            spec,
            dir: dir.to_path_buf(),
        };
        let store = grid.fresh_store("setup")?;
        std::fs::remove_file(store.path()).ok();
        Ok((grid, expand_s))
    }

    /// Opens an empty store in the grid directory.
    ///
    /// # Errors
    ///
    /// Returns the store error.
    pub fn fresh_store(&self, tag: &str) -> Result<Store, BoxError> {
        let path = self.dir.join(format!("store-{tag}.jsonl"));
        std::fs::remove_file(&path).ok();
        Ok(Store::open(path)?)
    }
}

/// Runs `spec` on a fresh store; returns the seconds `run_sweep` took and
/// the stored records.
///
/// # Errors
///
/// Returns sweep and store errors.
pub fn sweep_job(
    grid: &Grid,
    spec: &SweepSpec,
    workers: usize,
    recorder: Arc<dyn Recorder>,
) -> Result<(f64, Vec<CellRecord>), BoxError> {
    let mut store = grid.fresh_store("job")?;
    let opts = SweepOptions {
        workers,
        progress: false,
        recorder,
    };
    let start = Instant::now();
    run_sweep(spec, &mut store, &opts)?;
    let wall_s = start.elapsed().as_secs_f64();
    let records = store.records().to_vec();
    std::fs::remove_file(store.path()).ok();
    Ok((wall_s, records))
}

/// Every cell of `spec` run alone (one-cell spec, one worker, fresh
/// store), in expansion order, with its seconds.
///
/// # Errors
///
/// Returns sweep and store errors.
pub fn cells_alone(grid: &Grid, spec: &SweepSpec) -> Result<Vec<(CellRecord, f64)>, BoxError> {
    let mut out = Vec::new();
    for source in &spec.scenarios {
        for &scheme in &spec.schemes {
            let one = SweepSpec {
                schemes: vec![scheme],
                scenarios: vec![source.clone()],
                ..spec.clone()
            };
            let (secs, mut records) = sweep_job(grid, &one, 1, noop())?;
            let record = records.pop().ok_or("a one-cell sweep stored no record")?;
            out.push((record, secs));
        }
    }
    Ok(out)
}

/// Sorts records by identity hash, so stores filled in completion order
/// compare equal.
pub fn by_hash(mut records: Vec<CellRecord>) -> Vec<CellRecord> {
    records.sort_by(|a, b| a.hash.cmp(&b.hash));
    records
}

// ---------------------------------------------------------------------------
// paper_err
// ---------------------------------------------------------------------------

/// *Simulated*: mean relative error of the All-column (reference-weighted
/// over the traces) pipelined cycles/ref against the paper's Table 5, over
/// the [`PUBLISHED`] schemes present in `rows` of
/// `(scheme, refs, pipelined cycles/ref)`.
pub fn paper_err<'a>(rows: impl IntoIterator<Item = (&'a str, u64, f64)>) -> Option<f64> {
    let mut all = [(0u64, 0.0f64); PUBLISHED.len()];
    for (scheme, refs, cpr) in rows {
        if let Some(i) = PUBLISHED.iter().position(|&p| p == scheme) {
            all[i].0 += refs;
            all[i].1 += cpr * refs as f64;
        }
    }
    let errs: Vec<f64> = PUBLISHED
        .iter()
        .zip(all)
        .filter(|(_, (refs, _))| *refs > 0)
        .filter_map(|(&scheme, (refs, cycles))| {
            let paper = paper_table5_cumulative(scheme)?;
            Some((cycles / refs as f64 - paper).abs() / paper)
        })
        .collect();
    (!errs.is_empty()).then(|| errs.iter().sum::<f64>() / errs.len() as f64)
}

/// [`paper_err`] over a sweep store's records.
pub fn store_paper_err(records: &[CellRecord]) -> Option<f64> {
    paper_err(
        records
            .iter()
            .map(|r| (r.scheme.as_str(), r.refs, r.pipelined_cpr)),
    )
}

/// `paper_err` for the corpus workloads, whose own jobs have no paper
/// reference: the same figure the `paper-grid-cold` store gives for this
/// seed, from the [`PUBLISHED`] schemes over the same seeded traces and
/// cell length, run through the engine directly (not timed).
///
/// # Errors
///
/// Returns scenario and engine errors.
pub fn validation_paper_err(seed: u64, sizes: &Sizes, workers: usize) -> Result<f64, BoxError> {
    let schemes: Vec<Scheme> = PUBLISHED
        .iter()
        .map(|s| s.parse())
        .collect::<Result<_, _>>()?;
    let mut results = Vec::new();
    for name in ["pops", "thor", "pero"] {
        let scenario = reseed(&Scenario::named(name)?.to_spec(), seed)?;
        results.extend(
            BroadcastSimulator::new(SimConfig::default())
                .workers(workers)
                .run(
                    &schemes,
                    scenario.config().processes,
                    IterSource::new(scenario.workload().take(sizes.cell_refs)),
                )?,
        );
    }
    paper_err(results.iter().map(|r| {
        (
            r.scheme.as_str(),
            r.refs,
            r.cycles_per_ref(CostModel::pipelined()),
        )
    }))
    .ok_or_else(|| "no published scheme ran".into())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reseed_changes_only_the_seed() {
        let pops = Scenario::named("pops").unwrap();
        let a = reseed(&pops.to_spec(), 1).unwrap();
        let b = reseed(&pops.to_spec(), 1).unwrap();
        let c = reseed(&pops.to_spec(), 2).unwrap();
        assert_eq!(a, b);
        assert_ne!(a.config().seed, c.config().seed);
        assert_ne!(a.config().seed, pops.config().seed);
        let mut same = a.config().clone();
        same.seed = pops.config().seed;
        assert_eq!(&same, pops.config());
    }

    #[test]
    fn workload_names_round_trip() {
        for w in Workload::ALL {
            assert_eq!(Workload::parse(w.name()), Some(w));
        }
        assert_eq!(Workload::parse("nope"), None);
    }

    #[test]
    fn wide96_is_past_the_kernel_limit() {
        let wide = reseed(WIDE96_SCN, 7).unwrap();
        assert!(u32::from(wide.config().cpus) > dirsim::kernel::MAX_KERNEL_CACHES);
        assert_eq!(lineup().len(), 14);
    }

    #[test]
    fn wide96_overflows_pointer_sets_and_evicts() {
        let dir = std::env::temp_dir().join(format!("dirbench-wide-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let sizes = Sizes {
            wide_refs: 200_000,
            ..Sizes::tiny()
        };
        let corpus = Corpus::new(Workload::Wide96Finite, 1, &sizes, &dir).unwrap();
        corpus.write().unwrap();
        let schemes = [Scheme::dir1_nb(), Scheme::dir_n_nb()];
        let job = corpus_job(
            &corpus.path,
            &schemes,
            corpus.config(KernelPolicy::Auto),
            2,
            noop(),
        )
        .unwrap();
        let (limited, full) = (&job.results[0], &job.results[1]);
        assert!(limited.events.data_miss_rate() > 4.0 * full.events.data_miss_rate());
        assert!(full.capacity_evictions > 0);
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
