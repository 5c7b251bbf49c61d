//! Observability contract: metrics must describe the run faithfully and
//! must never change it.
//!
//! Three guarantees matter enough to pin down across the full 16-scheme
//! gauntlet:
//!
//! 1. **Zero perturbation** — attaching a recorder yields
//!    [`ExperimentResults`] bit-identical to an uninstrumented one-worker
//!    run, at every worker count.
//! 2. **Faithful totals** — the exported counters agree exactly with the
//!    simulation's own results (`engine_refs`, per-scheme refs /
//!    transactions / bus-op counts).
//! 3. **Lossless export** — writing the registry as JSON lines and parsing
//!    it back reproduces the manifest and every series exactly.

mod common;

use std::sync::{Arc, Mutex};
use std::time::Duration;

use common::{assert_identical, gauntlet};
use dirsim::obs::{
    parse_metrics, write_jsonl, MetricsRegistry, ProgressMeter, Recorder, RunManifest,
};
use dirsim::prelude::*;
use dirsim::{Experiment, ExperimentResults, NamedWorkload};

const REFS: usize = 6_000;

fn experiment() -> Experiment {
    Experiment::new()
        .workloads(dirsim::paper::paper_workloads())
        .schemes(gauntlet())
        .refs_per_trace(REFS)
}

/// Runs `exp` on `workers` workers.
fn run(exp: Experiment, workers: usize) -> ExperimentResults {
    exp.workers(workers).run().unwrap()
}

#[test]
fn recorder_never_perturbs_results() {
    // Baseline: one worker with the default no-op recorder.
    let baseline = run(experiment(), 1);
    for workers in [1, 3] {
        let what = format!("{workers} workers");
        let registry = Arc::new(MetricsRegistry::new());
        let instrumented = run(
            experiment().recorder(Arc::clone(&registry) as Arc<dyn Recorder>),
            workers,
        );
        assert_identical(&baseline, &instrumented, &what);
        assert!(
            !registry.is_empty(),
            "{what}: an attached registry must actually collect metrics"
        );
    }
}

#[test]
fn recorded_counters_match_simulation_results() {
    let registry = Arc::new(MetricsRegistry::new());
    let results = run(
        experiment().recorder(Arc::clone(&registry) as Arc<dyn Recorder>),
        1,
    );

    // The engine decodes each workload's stream exactly once, which every
    // scheme then consumes in lockstep.
    let engine_refs = registry
        .counter_value("engine_refs", &[])
        .expect("engine_refs must be recorded");
    for s in &results.per_scheme {
        assert_eq!(engine_refs, s.combined.refs, "{}", s.scheme);
        let name = s.scheme.name();
        let labels = [("scheme", name.as_str())];
        assert_eq!(
            registry.counter_value("scheme_refs", &labels),
            Some(s.combined.refs),
            "{name}: scheme_refs"
        );
        assert_eq!(
            registry.counter_value("scheme_transactions", &labels),
            Some(s.combined.transactions),
            "{name}: scheme_transactions"
        );
        let recorded_ops: u64 = s
            .combined
            .ops
            .iter()
            .filter(|&(_, count)| count > 0)
            .map(|(op, _)| {
                registry
                    .counter_value(
                        "scheme_ops",
                        &[("op", op.name()), ("scheme", name.as_str())],
                    )
                    .unwrap_or_else(|| panic!("{name}: missing scheme_ops for {}", op.name()))
            })
            .sum();
        assert_eq!(recorded_ops, s.combined.ops.total(), "{name}: scheme_ops");
    }

    // Phase spans fire at least once per chunk with one worker.
    for phase in ["decode", "step"] {
        let h = registry
            .histogram_summary("phase_seconds", &[("phase", phase)])
            .unwrap_or_else(|| panic!("missing phase_seconds for {phase}"));
        assert!(h.count > 0, "{phase}: no span samples");
        assert!(h.sum >= 0.0 && h.min >= 0.0, "{phase}: negative timing");
    }
}

#[test]
fn sharded_run_records_per_shard_series() {
    let registry = Arc::new(MetricsRegistry::new());
    let results = run(
        experiment().recorder(Arc::clone(&registry) as Arc<dyn Recorder>),
        3,
    );

    // Shards partition the reference stream: per-shard refs sum to the
    // refs every scheme saw.
    let total: u64 = (0..3)
        .map(|shard| {
            registry
                .counter_value("shard_refs", &[("shard", &shard.to_string())])
                .unwrap_or(0)
        })
        .sum();
    assert_eq!(total, results.per_scheme[0].combined.refs);
    assert!(
        registry
            .histogram_summary("phase_seconds", &[("phase", "merge")])
            .is_some(),
        "sharded runs must time the merge phase"
    );
}

#[test]
fn finite_sharded_run_records_per_shard_series() {
    // Set-sharded finite-cache runs report the same shard_refs/shard_ops
    // series as block-sharded infinite runs, and attaching the recorder
    // must not perturb the (replacement-heavy) results.
    use dirsim_mem::CacheGeometry;
    let config = SimConfig {
        geometry: Some(CacheGeometry { sets: 8, ways: 2 }),
        ..SimConfig::default()
    };
    let workers = 3;
    let baseline = run(experiment().sim_config(config), 1);
    let registry = Arc::new(MetricsRegistry::new());
    let results = run(
        experiment()
            .sim_config(config)
            .recorder(Arc::clone(&registry) as Arc<dyn Recorder>),
        workers,
    );
    assert_identical(&baseline, &results, "finite sharded instrumented");

    let shard_refs: u64 = (0..workers)
        .map(|shard| {
            registry
                .counter_value("shard_refs", &[("shard", &shard.to_string())])
                .unwrap_or(0)
        })
        .sum();
    assert_eq!(shard_refs, results.per_scheme[0].combined.refs);
    let shard_ops: u64 = (0..workers)
        .map(|shard| {
            registry
                .counter_value("shard_ops", &[("shard", &shard.to_string())])
                .unwrap_or(0)
        })
        .sum();
    let total_ops: u64 = results
        .per_scheme
        .iter()
        .map(|s| s.combined.ops.total())
        .sum();
    assert_eq!(shard_ops, total_ops, "eviction ops are per-shard too");
    assert!(
        results.per_scheme[0].combined.capacity_evictions > 0,
        "the geometry must be small enough to exercise replacement"
    );
}

#[test]
fn pipelined_run_records_overlap_metrics() {
    // Generated workloads decode on the producer thread, and that path
    // must make the overlap observable: per-chunk stall histograms on
    // both sides of the handshake, queue depths per stage, and a closing
    // occupancy gauge in [0, 1] — on top of everything inline decode
    // records.
    let workers = 3;
    let baseline = run(experiment(), 1);
    let registry = Arc::new(MetricsRegistry::new());
    let results = run(
        experiment().recorder(Arc::clone(&registry) as Arc<dyn Recorder>),
        workers,
    );
    assert_identical(&baseline, &results, "pipelined instrumented");

    let decode_stall = registry
        .histogram_summary("decode_stall_seconds", &[])
        .expect("decode_stall_seconds must be recorded");
    assert!(decode_stall.count > 0 && decode_stall.sum >= 0.0);
    let step_stall = registry
        .histogram_summary("step_stall_seconds", &[])
        .expect("step_stall_seconds must be recorded");
    assert!(step_stall.count > 0 && step_stall.sum >= 0.0);

    let decode_depth = registry
        .histogram_summary("pipeline_queue_depth", &[("stage", "decode")])
        .expect("decode-stage queue depth must be recorded");
    assert!(decode_depth.count > 0 && decode_depth.min >= 0.0);
    let step_depths: u64 = (0..workers)
        .filter_map(|shard| {
            registry.histogram_summary(
                "pipeline_queue_depth",
                &[("shard", &shard.to_string()), ("stage", "step")],
            )
        })
        .map(|h| h.count)
        .sum();
    assert!(
        step_depths > 0,
        "per-shard step queue depth must be recorded"
    );

    // One occupancy gauge per workload pass; gauges overwrite, so only
    // the final value is visible — but it must be a valid fraction.
    let occupancy = registry
        .gauge_value("pipeline_occupancy", &[])
        .expect("pipeline_occupancy must be recorded");
    assert!(
        (0.0..=1.0).contains(&occupancy),
        "occupancy must be a fraction, got {occupancy}"
    );

    // The sharding metrics are unchanged by overlap: per-shard refs still
    // partition the stream.
    let shard_refs: u64 = (0..workers)
        .map(|shard| {
            registry
                .counter_value("shard_refs", &[("shard", &shard.to_string())])
                .unwrap_or(0)
        })
        .sum();
    assert_eq!(shard_refs, results.per_scheme[0].combined.refs);
}

#[test]
fn exported_jsonl_round_trips_exactly() {
    let registry = Arc::new(MetricsRegistry::new());
    run(
        experiment().recorder(Arc::clone(&registry) as Arc<dyn Recorder>),
        1,
    );

    let manifest = RunManifest::new("observability-test")
        .schemes(gauntlet().iter().map(|s| s.name()))
        .mode("single-pass")
        .trace("synth:paper-workloads")
        .refs(REFS as u64)
        .wall_secs(0.125)
        .extra("suite", "integration");
    let mut buf = Vec::new();
    write_jsonl(&mut buf, &manifest, &registry).unwrap();
    let text = String::from_utf8(buf).unwrap();

    let run = parse_metrics(&text).expect("writer output must satisfy its own schema");
    assert_eq!(run.manifest, manifest, "manifest round-trip");
    assert_eq!(run.records, registry.snapshot(), "metric series round-trip");
}

#[test]
fn the_default_configuration_steps_the_shipped_kernels() {
    // The default configuration is the one every reported number comes
    // from, and no build profile changes it: only the `invariants` feature
    // turns the audit default on, and audited lanes step their match
    // machines. Otherwise every lane of the paper line-up starts on a
    // table kernel, and the bank joins them.
    let audited = cfg!(feature = "invariants");
    assert_eq!(SimConfig::default().check_invariants, audited);
    let registry = Arc::new(MetricsRegistry::new());
    Experiment::new()
        .workload(NamedWorkload::from(Scenario::named("pops").unwrap()))
        .schemes(Scheme::paper_lineup())
        .refs_per_trace(REFS)
        .recorder(Arc::clone(&registry) as Arc<dyn Recorder>)
        .run()
        .unwrap();
    let lanes = if audited {
        0
    } else {
        Scheme::paper_lineup().len() as u64
    };
    for counter in ["kernel_lanes", "kernel_joint_lanes"] {
        assert_eq!(
            registry.counter_value(counter, &[]),
            Some(lanes),
            "{counter}"
        );
    }
    // No lane starts on its match machine unless the audit is on.
    let audited_lanes = audited.then_some(Scheme::paper_lineup().len() as u64);
    for (reason, want) in [
        ("audited", audited_lanes),
        ("disabled", None),
        ("wide", None),
    ] {
        assert_eq!(
            registry.counter_value("match_lanes", &[("reason", reason)]),
            want,
            "match_lanes{{reason={reason}}}"
        );
    }
}

#[test]
fn match_lanes_say_why_a_lane_has_no_kernel() {
    // Each lane without a table kernel counts one reason, the first that
    // applies: audited, then disabled, then wide (past 64 caches),
    // summed over shards.
    let schemes = vec![Scheme::dir_n_nb(), Scheme::Dragon, Scheme::Wti];
    let lanes = schemes.len() as u64;
    let narrow = NamedWorkload::from(Scenario::named("pops").unwrap());
    let wide = NamedWorkload::new(
        "wide",
        WorkloadConfig::builder()
            .cpus(96)
            .processes(96)
            .seed(5)
            .build()
            .unwrap(),
    );
    let unaudited = SimConfig {
        check_invariants: false,
        ..SimConfig::default()
    };
    let disabled = SimConfig {
        kernels: KernelPolicy::Disabled,
        ..unaudited
    };
    let audited = SimConfig {
        check_oracle: true,
        ..disabled
    };
    for (workload, sim, reason) in [
        (&wide, unaudited, "wide"),
        (&wide, disabled, "disabled"),
        (&narrow, disabled, "disabled"),
        (&wide, audited, "audited"),
        (&narrow, audited, "audited"),
    ] {
        for workers in [1, 3] {
            let what = format!("{} lanes, {workers} workers", workload.name);
            let registry = Arc::new(MetricsRegistry::new());
            Experiment::new()
                .workload(workload.clone())
                .schemes(schemes.clone())
                .refs_per_trace(REFS)
                .sim_config(sim)
                .workers(workers)
                .recorder(Arc::clone(&registry) as Arc<dyn Recorder>)
                .run()
                .unwrap();
            for r in ["audited", "disabled", "wide"] {
                let want = (r == reason).then_some(lanes * workers as u64);
                assert_eq!(
                    registry.counter_value("match_lanes", &[("reason", r)]),
                    want,
                    "{what}: match_lanes{{reason={r}}}"
                );
            }
            assert_eq!(
                registry.counter_value("kernel_lanes", &[]),
                Some(0),
                "{what}"
            );
        }
    }
}

#[test]
fn decode_runs_say_where_each_run_decoded() {
    // A mapped DTR1 file lends its chunks, so its run decodes inline on
    // the calling thread; a generator decodes on the producer thread. Each
    // run counts once, whatever its worker count.
    use dirsim_trace::io::write_binary;
    use std::io::Write as _;

    let pops = Scenario::named("pops").unwrap();
    let path = std::env::temp_dir().join(format!(
        "dirsim-observability-decode-runs-{}.dtr",
        std::process::id()
    ));
    {
        let mut out = std::io::BufWriter::new(std::fs::File::create(&path).unwrap());
        write_binary(&mut out, pops.workload().take(REFS)).unwrap();
        out.flush().unwrap();
    }
    for workers in [1, 3] {
        let registry = Arc::new(MetricsRegistry::new());
        Experiment::new()
            .workload(NamedWorkload::trace("mapped", &path))
            .workload(NamedWorkload::from(pops))
            .workload(NamedWorkload::from(Scenario::named("pero").unwrap()))
            .schemes(vec![Scheme::Dragon, Scheme::dir_n_nb()])
            .refs_per_trace(REFS)
            .workers(workers)
            .recorder(Arc::clone(&registry) as Arc<dyn Recorder>)
            .run()
            .unwrap();
        for (placement, runs) in [("inline", 1), ("producer", 2)] {
            assert_eq!(
                registry.counter_value("decode_runs", &[("placement", placement)]),
                Some(runs),
                "{workers} workers: decode_runs{{placement={placement}}}"
            );
        }
    }
    std::fs::remove_file(&path).unwrap();
}

#[test]
fn progress_meter_sees_monotone_cumulative_refs() {
    let seen = Arc::new(Mutex::new(Vec::new()));
    let sink = Arc::clone(&seen);
    let meter = ProgressMeter::new(
        "refs",
        Duration::ZERO,
        Box::new(move |p| sink.lock().unwrap().push(p.done)),
    );
    let results = run(experiment().progress(Arc::new(Mutex::new(meter))), 1);

    let seen = seen.lock().unwrap();
    // The run ticks once per engine chunk, so with no report interval the
    // last report is every reference simulated.
    assert!(!seen.is_empty(), "expected at least one progress report");
    assert!(
        seen.windows(2).all(|w| w[0] <= w[1]),
        "progress must be monotone: {seen:?}"
    );
    assert_eq!(*seen.last().unwrap(), results.per_scheme[0].combined.refs);
}
