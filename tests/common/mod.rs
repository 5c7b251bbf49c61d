//! What the engine test suites share: the scheme gauntlet, the results
//! comparison, and the serial oracle every equivalence round checks the
//! engine against.
//!
//! The oracle is the paper's own method (§4): each (scheme, workload)
//! cell runs alone, one pass over the materialised trace, through
//! `Simulator::run`. That path keeps its own per-reference decode and
//! steps the match machines, so it shares no lane bank, `Decoder`, table
//! kernel, route or merge with the engine it checks.

// Each suite uses a different subset of these helpers.
#![allow(dead_code)]

use dirsim::prelude::*;
use dirsim::{ExperimentResults, NamedWorkload, SchemeResult};
use dirsim_trace::filter::without_lock_tests;

/// The paper's Table 5 line-up, the remaining directory organisations and
/// the snoopy baselines — the 14 schemes the model checker gauntlets —
/// plus Dir4B and Dir4NB, which `paper-grid.sweep` and every `dirbench`
/// workload run. (`dirsim-verify` depends on this crate, so the list is
/// spelled out here.)
pub fn gauntlet() -> Vec<Scheme> {
    let nb = |i| Scheme::Directory(DirSpec::dir_i_nb(i).expect("a valid NB pointer count"));
    vec![
        Scheme::dir_n_nb(),
        Scheme::dir0_b(),
        Scheme::dir1_b(),
        Scheme::dir_i_b(2),
        Scheme::dir_i_b(4),
        Scheme::dir1_nb(),
        nb(2),
        nb(4),
        Scheme::CoarseVector,
        Scheme::Tang,
        Scheme::YenFu,
        Scheme::DirUpdate,
        Scheme::Wti,
        Scheme::Illinois,
        Scheme::Dragon,
        Scheme::Berkeley,
    ]
}

/// Whether the lanes of a run under `sim` start on table kernels: the
/// policy allows them and neither audit is on, since audits read machine
/// internals a kernel never touches. The `invariants` feature turns the
/// invariant audit on by default, so there no default run takes a kernel.
pub fn kernels_engage(sim: &SimConfig) -> bool {
    sim.kernels == KernelPolicy::Auto && !sim.check_oracle && !sim.check_invariants
}

/// Asserts two runs agree bit for bit: trace statistics, cache counts,
/// and every scheme's per-trace and combined results.
pub fn assert_identical(a: &ExperimentResults, b: &ExperimentResults, what: &str) {
    assert_eq!(a.trace_stats, b.trace_stats, "{what}: trace statistics");
    assert_eq!(a.caches, b.caches, "{what}: cache counts");
    assert_eq!(
        a.per_scheme.len(),
        b.per_scheme.len(),
        "{what}: scheme count"
    );
    for (x, y) in a.per_scheme.iter().zip(&b.per_scheme) {
        assert_eq!(x.scheme, y.scheme, "{what}: scheme order");
        assert_eq!(x.per_trace, y.per_trace, "{what}: {} per-trace", x.scheme);
        assert_eq!(x.combined, y.combined, "{what}: {} combined", x.scheme);
    }
}

/// Each scheme run alone through `Simulator::run` over `trace` on
/// `caches` caches, in `schemes` order.
pub fn alone(sim: SimConfig, schemes: &[Scheme], caches: u32, trace: &[MemRef]) -> Vec<SimResult> {
    schemes
        .iter()
        .map(|s| {
            let mut protocol = s.build(caches);
            Simulator::new(sim)
                .run(protocol.as_mut(), trace.iter().copied())
                .unwrap()
        })
        .collect()
}

/// A (workloads × schemes) matrix over synthetic workloads, described
/// once so that the same description drives both the engine
/// ([`Matrix::run`]) and the oracle ([`Matrix::oracle`]).
#[derive(Debug, Clone)]
pub struct Matrix {
    pub workloads: Vec<NamedWorkload>,
    pub schemes: Vec<Scheme>,
    pub refs: usize,
    pub sim: SimConfig,
    pub exclude_lock_tests: bool,
}

impl Matrix {
    /// `schemes` over `workloads`, `refs` references each, with the
    /// default engine configuration.
    pub fn new(workloads: Vec<NamedWorkload>, schemes: Vec<Scheme>, refs: usize) -> Self {
        Matrix {
            workloads,
            schemes,
            refs,
            sim: SimConfig::default(),
            exclude_lock_tests: false,
        }
    }

    /// `schemes` over the three paper workloads.
    pub fn paper(schemes: Vec<Scheme>, refs: usize) -> Self {
        Matrix::new(dirsim::paper::paper_workloads(), schemes, refs)
    }

    /// The matrix as an [`Experiment`] on one worker.
    pub fn experiment(&self) -> Experiment {
        Experiment::new()
            .workloads(self.workloads.clone())
            .schemes(self.schemes.clone())
            .refs_per_trace(self.refs)
            .sim_config(self.sim)
            .exclude_lock_tests(self.exclude_lock_tests)
    }

    /// Runs the matrix through [`Experiment`] on `workers` workers.
    pub fn run(&self, workers: usize) -> ExperimentResults {
        self.experiment().workers(workers).run().unwrap()
    }

    /// The oracle: each workload generated and sized on its own, then
    /// every (scheme, workload) cell run alone through `Simulator::run`
    /// over the materialised (and, when asked, lock-test filtered) trace.
    ///
    /// Sizing restates `Experiment`'s rule for synthetic workloads: the
    /// declared population, except that an open system attributed per
    /// process needs one cache per process id its unfiltered stream
    /// names.
    pub fn oracle(&self) -> ExperimentResults {
        let mut trace_stats = Vec::new();
        let mut caches = Vec::new();
        let mut per_workload = Vec::new();
        for w in &self.workloads {
            let Input::Synthetic(config) = &w.input else {
                panic!("the oracle generates its inputs; {} is a trace", w.name);
            };
            let raw: Vec<MemRef> = Workload::new(config.clone()).take(self.refs).collect();
            let n = match self.sim.sharing {
                SharingModel::PerProcessor => u32::from(config.cpus),
                SharingModel::PerProcess if config.open.is_enabled() => {
                    TraceStats::from_refs(raw.iter().copied()).process_id_bound()
                }
                SharingModel::PerProcess => config.processes,
            };
            let trace: Vec<MemRef> = if self.exclude_lock_tests {
                without_lock_tests(raw).collect()
            } else {
                raw
            };
            trace_stats.push((w.name.clone(), TraceStats::from_refs(trace.iter().copied())));
            caches.push(n);
            per_workload.push(alone(self.sim, &self.schemes, n, &trace));
        }
        let per_scheme = self
            .schemes
            .iter()
            .enumerate()
            .map(|(i, &scheme)| {
                let per_trace: Vec<(String, SimResult)> = self
                    .workloads
                    .iter()
                    .zip(&per_workload)
                    .map(|(w, results)| (w.name.clone(), results[i].clone()))
                    .collect();
                let mut combined = per_trace[0].1.clone();
                for (_, result) in &per_trace[1..] {
                    combined.merge(result);
                }
                SchemeResult {
                    scheme,
                    per_trace,
                    combined,
                }
            })
            .collect();
        ExperimentResults {
            trace_stats,
            caches,
            per_scheme,
        }
    }
}
