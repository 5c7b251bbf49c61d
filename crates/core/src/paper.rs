//! The paper's concrete experiments, as runnable presets and derived
//! analyses.
//!
//! * [`paper_workloads`] — the POPS/THOR/PERO stand-ins (Table 3).
//! * [`headline_experiment`] — the §5 evaluation: `Dir1NB`, WTI, `Dir0B`,
//!   Dragon over the three traces (Tables 4–5, Figures 1–5).
//! * [`extended_experiment`] — adds §5/§6 schemes: Berkeley, `DirnNB`,
//!   `Dir1B`, `DiriB`/`DiriNB`, coarse vector.
//! * [`q_sensitivity`] — §5.1 fixed-overhead model.
//! * [`lock_impact`] — §5.2 spin-lock ablation.
//! * [`broadcast_sensitivity`] — §6 broadcast-cost model for `Dir1B`.
//! * [`pointer_sweep`] — §6 `Dir_i` scaling study over system sizes the
//!   original authors could not trace.
//! * [`finite_cache_study`] — the §4 finite-cache extension.
//! * [`network_scaling`] — §1/§7 snoopy-vs-directory interconnect traffic.
//! * [`utilization_study`] — §4.1 timing-level processor utilisation.
//! * [`sharing_sweep`] — workload sensitivity to sharing intensity.
//! * [`seed_sensitivity`] — dispersion of the headline metric across
//!   generator seeds.

use dirsim_cost::CostModel;
use dirsim_protocol::{DirSpec, Scheme};
use dirsim_trace::synth::{PaperTrace, WorkloadConfig};

use crate::engine::SimResult;
use crate::error::Error;
use crate::experiment::{Experiment, ExperimentResults, Input, NamedWorkload};

/// The three paper-trace stand-ins, in Table 3 order.
///
/// Resolved from the bundled scenario registry (the `pops`/`thor`/`pero`
/// specs), keeping the paper's upper-case display names for table output.
pub fn paper_workloads() -> Vec<NamedWorkload> {
    PaperTrace::ALL
        .iter()
        .map(|t| NamedWorkload::new(t.name(), t.scenario().config().clone()))
        .collect()
}

/// Default reference count per trace for paper-scale runs. The ATUM traces
/// hold ~3.1–3.5 M references each; one million is enough for stable event
/// frequencies while keeping test time reasonable.
pub const DEFAULT_REFS: usize = 1_000_000;

/// The §5 headline evaluation: the paper's four schemes over the three
/// traces.
pub fn headline_experiment(refs_per_trace: usize) -> Experiment {
    Experiment::new()
        .workloads(paper_workloads())
        .schemes(Scheme::paper_lineup())
        .refs_per_trace(refs_per_trace)
}

/// Every scheme discussed in the paper, headline lineup first.
pub fn extended_schemes() -> Vec<Scheme> {
    let mut schemes = Scheme::paper_lineup();
    schemes.push(Scheme::Berkeley);
    schemes.push(Scheme::Directory(DirSpec::dir_n_nb()));
    schemes.push(Scheme::Directory(DirSpec::dir1_b()));
    schemes.push(Scheme::Directory(DirSpec::dir_i_b(2)));
    schemes.push(Scheme::Directory(
        DirSpec::dir_i_nb(2).expect("i=2 is valid"),
    ));
    schemes.push(Scheme::Directory(
        DirSpec::dir_i_nb(4).expect("i=4 is valid"),
    ));
    schemes.push(Scheme::CoarseVector);
    schemes.push(Scheme::Tang);
    schemes.push(Scheme::YenFu);
    schemes.push(Scheme::DirUpdate);
    schemes.push(Scheme::Illinois);
    schemes
}

/// The extended evaluation (§5 + §6 schemes) over the three traces.
pub fn extended_experiment(refs_per_trace: usize) -> Experiment {
    Experiment::new()
        .workloads(paper_workloads())
        .schemes(extended_schemes())
        .refs_per_trace(refs_per_trace)
}

/// §5.1: cycles per reference when each bus transaction carries `q` extra
/// fixed-overhead cycles. Returns `(q, cycles_per_ref)` pairs.
///
/// The paper's example: with `q = 1`, `Dir0B` needs only ~12 % more bus
/// cycles than Dragon, versus ~46 % at `q = 0`.
pub fn q_sensitivity(result: &SimResult, model: CostModel, qs: &[f64]) -> Vec<(f64, f64)> {
    let breakdown = result.breakdown(model);
    qs.iter()
        .map(|&q| (q, breakdown.cycles_per_ref_with_overhead(q)))
        .collect()
}

/// §6: cycles per reference as a function of the broadcast cost `b`.
/// Derived by *repricing* the recorded operations — no resimulation, which
/// is exactly the paper's event/cost split.
pub fn broadcast_sensitivity(result: &SimResult, bs: &[u32]) -> Vec<(u32, f64)> {
    bs.iter()
        .map(|&b| {
            let model = CostModel::pipelined().with_broadcast_cost(b);
            (b, result.cycles_per_ref(model))
        })
        .collect()
}

/// Outcome of the §5.2 spin-lock ablation for one scheme.
#[derive(Debug, Clone)]
pub struct LockImpact {
    /// Scheme name.
    pub scheme: String,
    /// Bus cycles per reference with lock-test reads included.
    pub with_locks: f64,
    /// Bus cycles per reference with lock-test reads excluded.
    pub without_locks: f64,
}

impl LockImpact {
    /// Relative improvement from removing lock tests.
    pub fn improvement(&self) -> f64 {
        if self.with_locks == 0.0 {
            0.0
        } else {
            (self.with_locks - self.without_locks) / self.with_locks
        }
    }
}

/// §5.2: reruns the given schemes over the paper workloads with and without
/// spin-lock test reads and compares pipelined-bus costs.
///
/// # Errors
///
/// Propagates simulation errors (only possible with oracle checking, which
/// this preset leaves off).
pub fn lock_impact(refs_per_trace: usize, schemes: Vec<Scheme>) -> Result<Vec<LockImpact>, Error> {
    let base = Experiment::new()
        .workloads(paper_workloads())
        .schemes(schemes.clone())
        .refs_per_trace(refs_per_trace);
    let with_locks = base.clone().run()?;
    let without_locks = base.exclude_lock_tests(true).run()?;
    let model = CostModel::pipelined();
    Ok(schemes
        .iter()
        .map(|&s| LockImpact {
            scheme: s.name(),
            with_locks: with_locks[s].combined.cycles_per_ref(model),
            without_locks: without_locks[s].combined.cycles_per_ref(model),
        })
        .collect())
}

/// A synthetic workload scaled to `n` processors for the §6 scaling study
/// (the paper: "an accurate evaluation of the tradeoffs will require traces
/// from a much larger number of processors").
pub fn scaled_workload(processors: u16, seed: u64) -> WorkloadConfig {
    WorkloadConfig::builder()
        .cpus(processors)
        .processes(u32::from(processors))
        .shared_frac(0.05)
        .seed(seed)
        .build()
        .expect("scaled workload configuration is valid")
}

/// One row of the §6 pointer sweep.
#[derive(Debug, Clone)]
pub struct PointerSweepRow {
    /// Scheme name (`Dir1B`, `Dir2NB`, …).
    pub scheme: String,
    /// Pipelined-bus cycles per reference.
    pub cycles_per_ref: f64,
    /// Coherence miss rate (NB schemes trade misses for broadcasts).
    pub miss_rate: f64,
    /// Broadcast invalidations per 1000 references.
    pub broadcasts_per_kiloref: f64,
}

/// §6: sweeps `Dir_i B` and `Dir_i NB` over pointer counts `is` on an
/// `n`-processor workload; also includes `Dir0B` and `DirnNB` anchors and
/// the coarse-vector scheme.
///
/// # Errors
///
/// Propagates simulation errors.
pub fn pointer_sweep(
    processors: u16,
    refs: usize,
    is: &[u32],
) -> Result<Vec<PointerSweepRow>, Error> {
    let mut schemes = vec![Scheme::Directory(DirSpec::dir0_b())];
    for &i in is {
        schemes.push(Scheme::Directory(DirSpec::dir_i_b(i)));
        if let Ok(spec) = DirSpec::dir_i_nb(i) {
            schemes.push(Scheme::Directory(spec));
        }
    }
    schemes.push(Scheme::Directory(DirSpec::dir_n_nb()));
    schemes.push(Scheme::CoarseVector);

    let results = Experiment::new()
        .workload(NamedWorkload::new(
            format!("scaled-{processors}p"),
            scaled_workload(processors, 0x5ca1_ed00 + u64::from(processors)),
        ))
        .schemes(schemes)
        .refs_per_trace(refs)
        .run()?;

    let model = CostModel::pipelined();
    Ok(results
        .per_scheme
        .iter()
        .map(|s| {
            let r = &s.combined;
            let broadcasts = r.ops[dirsim_protocol::BusOp::BroadcastInvalidate];
            PointerSweepRow {
                scheme: s.scheme.name(),
                cycles_per_ref: r.cycles_per_ref(model),
                miss_rate: r.events.coherence_miss_rate(),
                broadcasts_per_kiloref: broadcasts as f64 * 1000.0 / r.refs as f64,
            }
        })
        .collect())
}

/// Convenience: runs the headline experiment and returns its results.
///
/// # Errors
///
/// Propagates simulation errors.
pub fn run_headline(refs_per_trace: usize) -> Result<ExperimentResults, Error> {
    headline_experiment(refs_per_trace).run()
}

/// One row of the finite-cache study.
#[derive(Debug, Clone)]
pub struct FiniteCacheRow {
    /// Cache capacity in blocks (`None` = infinite, the paper's model).
    pub capacity_blocks: Option<u32>,
    /// Pipelined-bus cycles per reference.
    pub cycles_per_ref: f64,
    /// Data miss rate (cold + coherence + capacity).
    pub miss_rate: f64,
    /// Capacity replacements per 1000 references.
    pub evictions_per_kiloref: f64,
}

/// The paper's §4 finite-cache extension: reruns a scheme over the paper
/// workloads at several cache capacities (4-way set-associative LRU) and
/// reports how capacity misses add to the infinite-cache coherence cost.
///
/// # Errors
///
/// Propagates simulation errors.
pub fn finite_cache_study(
    scheme: Scheme,
    refs_per_trace: usize,
    capacities_blocks: &[u32],
) -> Result<Vec<FiniteCacheRow>, Error> {
    use dirsim_mem::CacheGeometry;
    let model = CostModel::pipelined();
    let mut rows = Vec::with_capacity(capacities_blocks.len() + 1);
    let mut geometries: Vec<Option<CacheGeometry>> = vec![None];
    for &blocks in capacities_blocks {
        let ways = 4u32;
        let sets = (blocks / ways).max(1).next_power_of_two();
        geometries.push(Some(CacheGeometry { sets, ways }));
    }
    for geometry in geometries {
        let sim = crate::engine::SimConfig {
            geometry,
            ..crate::engine::SimConfig::default()
        };
        let results = Experiment::new()
            .workloads(paper_workloads())
            .scheme(scheme)
            .refs_per_trace(refs_per_trace)
            .sim_config(sim)
            .run()?;
        let r = &results.per_scheme[0].combined;
        rows.push(FiniteCacheRow {
            capacity_blocks: geometry.map(|g| g.sets * g.ways),
            cycles_per_ref: r.cycles_per_ref(model),
            miss_rate: r.events.data_miss_rate(),
            evictions_per_kiloref: r.capacity_evictions as f64 * 1000.0 / r.refs as f64,
        });
    }
    Ok(rows)
}

/// One row of the network-scaling study (§7's "better suited to building
/// large-scale multiprocessors" claim, quantified).
#[derive(Debug, Clone)]
pub struct NetworkScalingRow {
    /// Scheme name.
    pub scheme: String,
    /// Node count.
    pub nodes: u32,
    /// Topology.
    pub topology: dirsim_cost::Topology,
    /// Link-cycles of network traffic per memory reference.
    pub traffic_per_ref: f64,
    /// Processors sustainable before the network saturates, assuming each
    /// issues one reference per network cycle.
    pub saturation_processors: f64,
}

/// Prices each scheme's recorded operations on every topology at `nodes`
/// nodes. Snoopy schemes pay address flooding (they must snoop every
/// transaction); directory schemes send directed messages.
///
/// # Errors
///
/// Propagates simulation errors.
pub fn network_scaling(
    nodes: u16,
    refs: usize,
    schemes: Vec<Scheme>,
) -> Result<Vec<NetworkScalingRow>, Error> {
    use dirsim_cost::{NetworkModel, Placement, Topology};
    let results = Experiment::new()
        .workload(NamedWorkload::new(
            format!("scaled-{nodes}p"),
            scaled_workload(nodes, 0x0e70_0000 + u64::from(nodes)),
        ))
        .schemes(schemes)
        .refs_per_trace(refs)
        .run()?;
    let mut rows = Vec::new();
    for s in &results.per_scheme {
        let placement = if s.scheme.is_snoopy() {
            Placement::Snoopy
        } else {
            Placement::Directory
        };
        for topology in Topology::ALL {
            let model = NetworkModel::new(topology, u32::from(nodes));
            let traffic = model.traffic_per_ref(&s.combined.ops, s.combined.refs, placement);
            rows.push(NetworkScalingRow {
                scheme: s.scheme.name(),
                nodes: u32::from(nodes),
                topology,
                traffic_per_ref: traffic,
                saturation_processors: model.saturation_processors(traffic, 1.0),
            });
        }
    }
    Ok(rows)
}

/// One row of the sharing-intensity sweep.
#[derive(Debug, Clone)]
pub struct SharingSweepRow {
    /// Fraction of data references targeting shared pools.
    pub shared_frac: f64,
    /// Pipelined cycles/ref per scheme, in scheme order.
    pub cycles_per_ref: Vec<(String, f64)>,
}

/// Workload-sensitivity sweep: how each scheme's cost responds to the
/// intensity of data sharing (Figure 3's POPS/THOR vs PERO contrast,
/// generalised to a controlled dial). Write-through costs are flat in
/// sharing; coherence-driven costs grow with it.
///
/// # Errors
///
/// Propagates simulation errors.
pub fn sharing_sweep(
    refs: usize,
    fractions: &[f64],
    schemes: Vec<Scheme>,
) -> Result<Vec<SharingSweepRow>, Error> {
    let model = CostModel::pipelined();
    let mut rows = Vec::with_capacity(fractions.len());
    for &frac in fractions {
        let cfg = WorkloadConfig {
            shared_frac: frac,
            seed: 0x0005_eed0 + (frac * 1000.0) as u64,
            ..WorkloadConfig::default()
        };
        let results = Experiment::new()
            .workload(NamedWorkload::new(format!("shared-{frac}"), cfg))
            .schemes(schemes.clone())
            .refs_per_trace(refs)
            .run()?;
        rows.push(SharingSweepRow {
            shared_frac: frac,
            cycles_per_ref: results
                .per_scheme
                .iter()
                .map(|s| (s.scheme.name(), s.combined.cycles_per_ref(model)))
                .collect(),
        });
    }
    Ok(rows)
}

/// One row of the timing-level utilisation study.
#[derive(Debug, Clone)]
pub struct UtilizationRow {
    /// Scheme name.
    pub scheme: String,
    /// Processor count.
    pub processors: u16,
    /// Mean per-processor utilisation.
    pub utilization: f64,
    /// Aggregate throughput in references per cycle.
    pub effective_processors: f64,
    /// Bus utilisation.
    pub bus_utilization: f64,
}

/// Timing-level utilisation study (§4.1's "total processor utilizations"
/// methodology, which the paper set aside): runs each scheme through the
/// cycle-level [`crate::timing::TimingSimulator`] at several machine sizes
/// and reports measured utilisation and speedup.
///
/// # Panics
///
/// Panics if `processors` is empty.
pub fn utilization_study(
    refs: usize,
    processors: &[u16],
    schemes: Vec<Scheme>,
) -> Vec<UtilizationRow> {
    use crate::timing::TimingSimulator;
    assert!(!processors.is_empty(), "need at least one machine size");
    let mut rows = Vec::new();
    for &n in processors {
        let cfg = scaled_workload(n, 0x71e0_0000 + u64::from(n));
        let refs_vec: Vec<dirsim_trace::MemRef> =
            dirsim_trace::synth::Workload::new(cfg).take(refs).collect();
        for &scheme in &schemes {
            let mut protocol = scheme.build(u32::from(n));
            let result = TimingSimulator::default()
                .run_source(
                    protocol.as_mut(),
                    dirsim_trace::SliceSource::new(&refs_vec),
                    usize::from(n),
                )
                .expect("an in-memory trace cannot fail to decode");
            rows.push(UtilizationRow {
                scheme: scheme.name(),
                processors: n,
                utilization: result.processor_utilization(),
                effective_processors: result.effective_processors(),
                bus_utilization: result.bus_utilization(),
            });
        }
    }
    rows
}

/// Dispersion of a scheme's headline metric across generator seeds.
#[derive(Debug, Clone)]
pub struct SeedSensitivityRow {
    /// Scheme name.
    pub scheme: String,
    /// Mean pipelined cycles/ref across seeds.
    pub mean: f64,
    /// Sample standard deviation.
    pub stddev: f64,
    /// Minimum across seeds.
    pub min: f64,
    /// Maximum across seeds.
    pub max: f64,
}

impl SeedSensitivityRow {
    /// Coefficient of variation (stddev / mean).
    pub fn relative_spread(&self) -> f64 {
        if self.mean == 0.0 {
            0.0
        } else {
            self.stddev / self.mean
        }
    }
}

/// Reruns the headline evaluation under `seeds` different generator seeds
/// and reports the dispersion of each scheme's cycles/ref — evidence that
/// the reproduced shape is a property of the workload model, not of one
/// random stream.
///
/// # Errors
///
/// Propagates simulation errors.
///
/// # Panics
///
/// Panics if `seeds == 0`.
pub fn seed_sensitivity(
    refs_per_trace: usize,
    seeds: u64,
) -> Result<Vec<SeedSensitivityRow>, Error> {
    assert!(seeds > 0, "need at least one seed");
    let model = CostModel::pipelined();
    let schemes = Scheme::paper_lineup();
    let mut samples: Vec<Vec<f64>> = vec![Vec::new(); schemes.len()];
    for seed_offset in 0..seeds {
        let workloads: Vec<NamedWorkload> = paper_workloads()
            .into_iter()
            .map(|mut w| {
                if let Input::Synthetic(config) = &mut w.input {
                    config.seed = config.seed.wrapping_add(seed_offset * 0x9e37_79b9);
                }
                w
            })
            .collect();
        let results = Experiment::new()
            .workloads(workloads)
            .schemes(schemes.clone())
            .refs_per_trace(refs_per_trace)
            .workers(std::thread::available_parallelism().map_or(1, |n| n.get()))
            .run()?;
        for (i, s) in results.per_scheme.iter().enumerate() {
            samples[i].push(s.combined.cycles_per_ref(model));
        }
    }
    Ok(schemes
        .iter()
        .zip(samples)
        .map(|(scheme, xs)| {
            let n = xs.len() as f64;
            let mean = xs.iter().sum::<f64>() / n;
            let var = if xs.len() > 1 {
                xs.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / (n - 1.0)
            } else {
                0.0
            };
            SeedSensitivityRow {
                scheme: scheme.name(),
                mean,
                stddev: var.sqrt(),
                min: xs.iter().copied().fold(f64::INFINITY, f64::min),
                max: xs.iter().copied().fold(f64::NEG_INFINITY, f64::max),
            }
        })
        .collect())
}

#[cfg(test)]
mod tests {
    use super::*;
    use dirsim_protocol::OpCounts;

    #[test]
    fn workloads_are_the_three_traces() {
        let names: Vec<String> = paper_workloads().into_iter().map(|w| w.name).collect();
        assert_eq!(names, vec!["POPS", "THOR", "PERO"]);
    }

    #[test]
    fn extended_schemes_superset_of_headline() {
        let ext = extended_schemes();
        for s in Scheme::paper_lineup() {
            assert!(ext.contains(&s));
        }
        assert!(ext.len() > 4);
    }

    #[test]
    fn q_sensitivity_is_affine() {
        let mut ops = OpCounts::new();
        ops.record(dirsim_protocol::BusOp::MemRead, 10);
        let result = SimResult {
            scheme: "x".into(),
            events: Default::default(),
            ops,
            transactions: 10,
            refs: 1000,
            fanout: Default::default(),
            distinct_blocks: 0,
            capacity_evictions: 0,
        };
        let pts = q_sensitivity(&result, CostModel::pipelined(), &[0.0, 1.0, 2.0]);
        let slope01 = pts[1].1 - pts[0].1;
        let slope12 = pts[2].1 - pts[1].1;
        assert!((slope01 - slope12).abs() < 1e-12);
        assert!((slope01 - 0.01).abs() < 1e-12, "slope = txns/ref");
    }

    #[test]
    fn broadcast_sensitivity_grows_with_b() {
        let mut ops = OpCounts::new();
        ops.record(dirsim_protocol::BusOp::BroadcastInvalidate, 5);
        let result = SimResult {
            scheme: "x".into(),
            events: Default::default(),
            ops,
            transactions: 5,
            refs: 1000,
            fanout: Default::default(),
            distinct_blocks: 0,
            capacity_evictions: 0,
        };
        let pts = broadcast_sensitivity(&result, &[1, 8, 32]);
        assert!(pts[0].1 < pts[1].1 && pts[1].1 < pts[2].1);
        // Slope per unit b is broadcasts/ref.
        let slope = (pts[1].1 - pts[0].1) / 7.0;
        assert!((slope - 0.005).abs() < 1e-12);
    }

    #[test]
    fn lock_impact_small_run() {
        let impacts = lock_impact(
            20_000,
            vec![
                Scheme::Directory(DirSpec::dir1_nb()),
                Scheme::Directory(DirSpec::dir0_b()),
            ],
        )
        .unwrap();
        assert_eq!(impacts.len(), 2);
        let dir1nb = &impacts[0];
        assert_eq!(dir1nb.scheme, "Dir1NB");
        assert!(dir1nb.with_locks > 0.0);
        assert!(dir1nb.improvement() >= 0.0);
    }

    #[test]
    fn scaled_workload_is_valid_for_many_sizes() {
        for n in [4u16, 16, 64] {
            scaled_workload(n, 1).validate().unwrap();
        }
    }

    #[test]
    fn sharing_sweep_shapes() {
        let rows = sharing_sweep(
            20_000,
            &[0.0, 0.10],
            vec![Scheme::Wti, Scheme::Directory(DirSpec::dir0_b())],
        )
        .unwrap();
        assert_eq!(rows.len(), 2);
        let cost = |row: &SharingSweepRow, name: &str| {
            row.cycles_per_ref
                .iter()
                .find(|(n, _)| n == name)
                .map(|(_, v)| *v)
                .unwrap()
        };
        // Coherence cost grows with sharing for the copy-back scheme...
        assert!(cost(&rows[1], "Dir0B") > cost(&rows[0], "Dir0B"));
        // ...while WTI's write-through floor moves much less, relatively.
        let wti_growth = cost(&rows[1], "WTI") / cost(&rows[0], "WTI");
        let dir_growth = cost(&rows[1], "Dir0B") / cost(&rows[0], "Dir0B");
        assert!(
            dir_growth > wti_growth,
            "dir {dir_growth:.2} vs wti {wti_growth:.2}"
        );
    }

    #[test]
    fn seed_sensitivity_is_modest() {
        let rows = seed_sensitivity(30_000, 3).unwrap();
        assert_eq!(rows.len(), 4);
        for row in &rows {
            assert!(row.mean > 0.0, "{}", row.scheme);
            assert!(row.min <= row.mean && row.mean <= row.max);
            assert!(
                row.relative_spread() < 0.35,
                "{}: spread {:.2}",
                row.scheme,
                row.relative_spread()
            );
        }
        // The scheme ordering survives across every seed (min/max bands of
        // adjacent schemes in the ordering do not cross).
        let by_name = |n: &str| rows.iter().find(|r| r.scheme == n).unwrap();
        assert!(by_name("Dir1NB").min > by_name("WTI").max);
        assert!(by_name("WTI").min > by_name("Dir0B").max);
    }

    #[test]
    fn network_scaling_shows_directory_advantage() {
        let rows = network_scaling(
            64,
            20_000,
            vec![
                Scheme::Directory(DirSpec::dir1_b()),
                Scheme::Wti,
                Scheme::Dragon,
            ],
        )
        .unwrap();
        assert_eq!(rows.len(), 9); // 3 schemes x 3 topologies
        let get = |scheme: &str, topo: dirsim_cost::Topology| {
            rows.iter()
                .find(|r| r.scheme == scheme && r.topology == topo)
                .unwrap()
        };
        use dirsim_cost::Topology;
        // On the bus Dragon wins (the paper's §5 result)...
        let bus_dragon = get("Dragon", Topology::Bus);
        let bus_dir1b = get("Dir1B", Topology::Bus);
        assert!(bus_dragon.traffic_per_ref < bus_dir1b.traffic_per_ref * 1.5);
        // ...but off the bus, snoopy address flooding dominates and the
        // directory scales (the paper's §1/§7 argument). WTI, which puts
        // every write on the medium, collapses hardest.
        for topo in [Topology::Crossbar, Topology::Mesh2D] {
            let dir1b = get("Dir1B", topo).saturation_processors;
            let wti = get("WTI", topo).saturation_processors;
            let dragon = get("Dragon", topo).saturation_processors;
            assert!(
                dir1b > 3.0 * wti,
                "{topo}: directory {dir1b} !> 3x WTI {wti}"
            );
            assert!(
                dir1b > dragon,
                "{topo}: directory {dir1b} !> Dragon {dragon}"
            );
        }
        // And the directory's saturation point grows with the richer
        // topology while the bus stays flat.
        assert!(
            get("Dir1B", Topology::Crossbar).saturation_processors
                > 5.0 * get("Dir1B", Topology::Bus).saturation_processors
        );
    }

    #[test]
    fn finite_cache_study_shows_capacity_penalty() {
        let rows =
            finite_cache_study(Scheme::Directory(DirSpec::dir0_b()), 20_000, &[64, 4096]).unwrap();
        assert_eq!(rows.len(), 3);
        let infinite = &rows[0];
        let tiny = &rows[1];
        let large = &rows[2];
        assert_eq!(infinite.capacity_blocks, None);
        assert_eq!(infinite.evictions_per_kiloref, 0.0);
        assert!(
            tiny.miss_rate > infinite.miss_rate,
            "small caches miss more"
        );
        assert!(tiny.cycles_per_ref > infinite.cycles_per_ref);
        assert!(tiny.evictions_per_kiloref > large.evictions_per_kiloref);
        // Large caches approach the infinite-cache bound (§4).
        assert!(large.cycles_per_ref < 2.0 * infinite.cycles_per_ref);
    }

    #[test]
    fn pointer_sweep_smoke() {
        let rows = pointer_sweep(8, 20_000, &[1, 2]).unwrap();
        // Dir0B, Dir1B, Dir1NB, Dir2B, Dir2NB, DirnNB, CoarseVector
        assert_eq!(rows.len(), 7);
        let names: Vec<&str> = rows.iter().map(|r| r.scheme.as_str()).collect();
        assert!(names.contains(&"Dir0B"));
        assert!(names.contains(&"DirnNB"));
        assert!(names.contains(&"CoarseVector"));
        for row in &rows {
            assert!(row.cycles_per_ref > 0.0, "{}", row.scheme);
        }
        // NB schemes never broadcast.
        for row in rows.iter().filter(|r| r.scheme.ends_with("NB")) {
            assert_eq!(row.broadcasts_per_kiloref, 0.0, "{}", row.scheme);
        }
    }
}
