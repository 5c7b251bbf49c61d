//! Per-layer measurements for the traced run (`--trace 1`).
//!
//! Two sources, and nothing added inside the program:
//!
//! * the engine's own `phase_seconds` spans, read from a
//!   [`MetricsRegistry`] attached through `BroadcastSimulator::recorder`;
//! * standalone timings of direct calls into each crate's public
//!   functions (decode, generation, single-lane stepping, sharer sets,
//!   the sweep layer).

use std::collections::BTreeMap;
use std::path::Path;
use std::time::Instant;

use dirsim::broadcast::DEFAULT_CHUNK;
use dirsim::{BroadcastSimulator, KernelPolicy, SimConfig, SimResult};
use dirsim_mem::CacheId;
use dirsim_obs::{MetricValue, MetricsRegistry};
use dirsim_protocol::{Scheme, SharerSet};
use dirsim_sweep::{CellRecord, SweepSource, SweepSpec};
use dirsim_trace::source::collect_all;
use dirsim_trace::{
    open_trace, IterSource, MemRef, MmapTraceSource, Scenario, TakeSource, TraceSource,
};

use crate::host::{median, quantile};
use crate::workload::{BoxError, CorpusJob, Grid, FINITE};
use crate::Metric;

/// Summed `phase_seconds` spans of one engine run.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Phases {
    /// Chunk decode (calling thread).
    pub decode: f64,
    /// Routing chunks to shards (calling thread; zero at one worker).
    pub route: f64,
    /// Stepping, summed over shards.
    pub step: f64,
    /// Stepping on the busiest shard.
    pub step_max_shard: f64,
    /// Merging shard results (zero at one worker).
    pub merge: f64,
}

impl Phases {
    /// Reads the spans a run recorded into `registry`.
    pub fn from_registry(registry: &MetricsRegistry) -> Phases {
        let mut phases = Phases::default();
        let mut per_shard: BTreeMap<String, f64> = BTreeMap::new();
        for record in registry.snapshot() {
            let MetricValue::Histogram(h) = record.value else {
                continue;
            };
            if record.name != "phase_seconds" {
                continue;
            }
            let label = |key: &str| {
                record
                    .labels
                    .iter()
                    .find(|(k, _)| k == key)
                    .map(|(_, v)| v.as_str())
            };
            match label("phase") {
                Some("decode") => phases.decode += h.sum,
                Some("route") => phases.route += h.sum,
                Some("merge") => phases.merge += h.sum,
                Some("step") => {
                    phases.step += h.sum;
                    *per_shard
                        .entry(label("shard").unwrap_or("0").to_string())
                        .or_default() += h.sum;
                }
                _ => {}
            }
        }
        phases.step_max_shard = per_shard.values().copied().fold(0.0, f64::max);
        phases
    }

    /// Seconds of a job's blocking path these spans account for, given
    /// the job's stats pass: the calling thread's decode and route run
    /// concurrently with the shards' stepping, so the longer of the two
    /// blocks the result; the merge follows both.
    pub fn blocking_s(&self, stats_s: f64) -> f64 {
        stats_s + (self.decode + self.route).max(self.step_max_shard) + self.merge
    }
}

/// The `core.*` ledger from a run's timed corpus jobs: untraced walls,
/// traced jobs with their spans, and the one-worker reference job.
pub fn core_ledger(
    untraced_walls: &[f64],
    traced: &[(CorpusJob, Phases)],
    w1: &CorpusJob,
    steps: f64,
    workers: usize,
) -> Vec<Metric> {
    let med =
        |f: &dyn Fn(&(CorpusJob, Phases)) -> f64| median(&traced.iter().map(f).collect::<Vec<_>>());
    let steps_per_s = steps / median(untraced_walls);
    let w1_steps_per_s = steps / w1.wall_s;
    vec![
        Metric::new("trace.stats_pass_s", med(&|(j, _)| j.stats_s), "s"),
        Metric::new("core.decode_s", med(&|(_, p)| p.decode), "s"),
        Metric::new("core.route_s", med(&|(_, p)| p.route), "s"),
        Metric::new("core.step_s", med(&|(_, p)| p.step), "s"),
        Metric::new(
            "core.step_max_shard_s",
            med(&|(_, p)| p.step_max_shard),
            "s",
        ),
        Metric::new("core.merge_s", med(&|(_, p)| p.merge), "s"),
        Metric::new(
            "core.unattributed_s",
            med(&|(j, p)| j.wall_s - p.blocking_s(j.stats_s)),
            "s",
        ),
        Metric::new(
            "ledger.coverage",
            med(&|(j, p)| p.blocking_s(j.stats_s) / j.wall_s),
            "ratio",
        ),
        Metric::new("core.w1_steps_per_s", w1_steps_per_s, "steps/s"),
        Metric::new(
            "core.scaling_eff",
            steps_per_s / (workers as f64 * w1_steps_per_s),
            "ratio",
        ),
    ]
}

/// Median seconds of `reps` calls of `f`.
fn timed<T>(reps: usize, mut f: impl FnMut() -> Result<T, BoxError>) -> Result<f64, BoxError> {
    let mut secs = Vec::with_capacity(reps);
    for _ in 0..reps.max(1) {
        let start = Instant::now();
        std::hint::black_box(f()?);
        secs.push(start.elapsed().as_secs_f64());
    }
    Ok(median(&secs))
}

/// `trace.mmap_decode_refs_per_s`: the corpus drained through
/// [`MmapTraceSource`]'s zero-copy chunks alone.
///
/// # Errors
///
/// Returns trace errors.
pub fn mmap_decode_refs_per_s(path: &Path, refs: u64, reps: usize) -> Result<f64, BoxError> {
    let secs = timed(reps, || {
        let mut source = MmapTraceSource::open(path)?;
        let chunks = source.borrowed().ok_or("mmap sources lend chunks")?;
        let mut n = 0usize;
        loop {
            let chunk = chunks.next_chunk(DEFAULT_CHUNK)?;
            if chunk.is_empty() {
                break;
            }
            n += std::hint::black_box(chunk).len();
        }
        Ok(n)
    })?;
    Ok(refs as f64 / secs)
}

/// `trace.gen_refs_per_s`: `refs` references drained from
/// [`Scenario::workload`].
///
/// # Errors
///
/// Never fails; the `Result` keeps the probe signatures uniform.
pub fn gen_refs_per_s(scenario: &Scenario, refs: usize, reps: usize) -> Result<f64, BoxError> {
    let secs = timed(reps, || Ok(drain(scenario, refs)))?;
    Ok(refs as f64 / secs)
}

fn drain(scenario: &Scenario, refs: usize) -> usize {
    scenario.workload().take(refs).fold(0, |n, r| {
        std::hint::black_box(r);
        n + 1
    })
}

/// The first `refs` references of a trace file, in memory.
///
/// # Errors
///
/// Returns trace errors.
pub fn prefix(path: &Path, refs: usize) -> Result<Vec<MemRef>, BoxError> {
    Ok(collect_all(TakeSource::new(
        open_trace(path)?,
        refs as u64,
    ))?)
}

fn single_lane(
    config: SimConfig,
    scheme: Scheme,
    caches: u32,
    refs: &[MemRef],
) -> Result<(f64, SimResult), BoxError> {
    let start = Instant::now();
    let mut results = BroadcastSimulator::new(config).workers(1).run(
        &[scheme],
        caches,
        IterSource::new(refs.iter().copied()),
    )?;
    let secs = start.elapsed().as_secs_f64();
    Ok((secs, results.pop().ok_or("one scheme in, one result out")?))
}

/// Single-lane probes over an in-memory prefix:
/// `core.kernel_ns_per_ref.<Scheme>` (kernels on `Auto`),
/// `protocol.match_ns_per_ref.<Scheme>` (kernels `Disabled`) and
/// `mem.finite_ns_per_ref` (Dragon, 64x4 finite minus infinite). Also
/// returns how many schemes' kernel and match results differed — the
/// match machines are the kernels' oracle.
///
/// # Errors
///
/// Returns engine errors.
pub fn lane_probes(
    base: SimConfig,
    schemes: &[Scheme],
    caches: u32,
    refs: &[MemRef],
    reps: usize,
) -> Result<(Vec<Metric>, usize), BoxError> {
    let ns = |secs: f64| secs * 1e9 / refs.len() as f64;
    let with = |kernels, geometry| SimConfig {
        kernels,
        geometry,
        ..base
    };
    let mut kernel = Vec::new();
    let mut matched = Vec::new();
    let mut mismatches = 0;
    for &scheme in schemes {
        let (mut k, mut m) = (Vec::new(), Vec::new());
        for _ in 0..reps.max(1) {
            let (ks, kr) = single_lane(
                with(KernelPolicy::Auto, base.geometry),
                scheme,
                caches,
                refs,
            )?;
            let (ms, mr) = single_lane(
                with(KernelPolicy::Disabled, base.geometry),
                scheme,
                caches,
                refs,
            )?;
            mismatches += usize::from(kr != mr);
            k.push(ks);
            m.push(ms);
        }
        kernel.push(Metric::new(
            &format!("core.kernel_ns_per_ref.{}", scheme.name()),
            ns(median(&k)),
            "ns/ref",
        ));
        matched.push(Metric::new(
            &format!("protocol.match_ns_per_ref.{}", scheme.name()),
            ns(median(&m)),
            "ns/ref",
        ));
    }
    let (mut finite, mut infinite) = (Vec::new(), Vec::new());
    for _ in 0..reps.max(1) {
        finite.push(
            single_lane(
                with(KernelPolicy::Auto, Some(FINITE)),
                Scheme::Dragon,
                caches,
                refs,
            )?
            .0,
        );
        infinite.push(single_lane(with(KernelPolicy::Auto, None), Scheme::Dragon, caches, refs)?.0);
    }
    let mut metrics = kernel;
    metrics.append(&mut matched);
    metrics.push(Metric::new(
        "mem.finite_ns_per_ref",
        ns(median(&finite)) - ns(median(&infinite)),
        "ns/ref",
    ));
    Ok((metrics, mismatches))
}

/// `protocol.sharer_set_ns_per_op.<width>`: an insert/insert/remove/query
/// mix over ids `0..width`; at 96 the ids past 63 take the spill words.
pub fn sharer_set_ns_per_op(width: u32, ops: usize, reps: usize) -> Metric {
    let stride = (width / 2) | 1;
    let ids: Vec<CacheId> = (0..1024u32)
        .map(|i| CacheId::new((i * stride) % width))
        .collect();
    let mut secs = Vec::new();
    for _ in 0..reps.max(1) {
        let start = Instant::now();
        let mut set = SharerSet::new();
        let mut acc = 0usize;
        for (i, &id) in ids.iter().cycle().take(ops).enumerate() {
            match i % 4 {
                0 | 1 => acc += usize::from(set.insert(id)),
                2 => acc += usize::from(set.remove(id)),
                _ => acc += usize::from(set.contains(id)) + set.count_others(id),
            }
        }
        std::hint::black_box((acc, set.len()));
        secs.push(start.elapsed().as_secs_f64());
    }
    Metric::new(
        &format!("protocol.sharer_set_ns_per_op.{width}"),
        median(&secs) * 1e9 / ops as f64,
        "ns/op",
    )
}

/// The `sweep.*` ledger: `expand_s` (parse + expand), per-cell seconds
/// with each cell run alone, pool efficiency against the pooled sweep's
/// wall time, the share of cell time spent producing the cells' traces
/// (generation for scenarios, streaming for trace files), and the cost
/// of one store append.
///
/// # Errors
///
/// Returns scenario, trace and store errors.
pub fn sweep_ledger(
    grid: &Grid,
    spec: &SweepSpec,
    expand_s: f64,
    pool_wall_s: f64,
    alone: &[(CellRecord, f64)],
    workers: usize,
) -> Result<Vec<Metric>, BoxError> {
    let cell_s: Vec<f64> = alone.iter().map(|(_, s)| *s).collect();
    let total: f64 = cell_s.iter().sum();
    let refs = spec.refs.iter().sum::<usize>();
    let mut produce_s = 0.0;
    for source in &spec.scenarios {
        let secs = match source {
            SweepSource::Scenario(scenario) => timed(1, || Ok(drain(scenario, refs)))?,
            SweepSource::Trace { path, .. } => timed(1, || {
                Ok(collect_all(TakeSource::new(open_trace(path)?, refs as u64))?.len())
            })?,
        };
        produce_s += secs * spec.schemes.len() as f64;
    }

    const APPENDS: usize = 200;
    let mut store = grid.fresh_store("append")?;
    let start = Instant::now();
    for i in 0..APPENDS {
        let mut record = alone[i % alone.len()].0.clone();
        record.hash = format!("{i:016x}");
        store.append(&record)?;
    }
    let append_us = start.elapsed().as_secs_f64() * 1e6 / APPENDS as f64;
    std::fs::remove_file(store.path()).ok();

    Ok(vec![
        Metric::new("sweep.expand_s", expand_s, "s"),
        Metric::new("sweep.cell_s.p50", quantile(&cell_s, 0.5), "s"),
        Metric::new("sweep.cell_s.p90", quantile(&cell_s, 0.9), "s"),
        Metric::new(
            "sweep.pool_eff",
            total / (workers as f64 * pool_wall_s),
            "ratio",
        ),
        Metric::new("sweep.gen_share", produce_s / total, "ratio"),
        Metric::new("sweep.append_us", append_us, "us"),
    ])
}
