//! Engine-path equivalence: the serial per-scheme oracle
//! (`ExecutionMode::Serial`) and the parallel broadcast mode
//! (`ExecutionMode::Parallel`) with one worker and with several must
//! produce **bit-identical** results for every scheme, whichever thread
//! decodes the trace.
//!
//! This is the load-bearing guarantee behind `ExecutionMode`: sharding is
//! exact because per-block protocol state never interacts across blocks
//! and every counter merged across shards is a commutative sum. Infinite
//! caches shard by block address; finite caches shard by cache set index
//! (LRU state never crosses sets, and a block's set is a pure function of
//! its address), so both geometries get the full guarantee. Decode on the
//! producer thread (generators, buffered decoders) is exact because only
//! decode *work* moves there — chunks arrive in stream order over one
//! bounded FIFO and chunk boundaries carry no simulation state — and
//! inline decode (lent slices, mmap) steps the very same chunks. Any
//! drift here means one of the paths is wrong, not "parallel noise".
//!
//! The scheme list mirrors the `dirsim-verify` gauntlet (that crate
//! depends on this one, so the 14 schemes are enumerated inline).

use dirsim::prelude::*;
use dirsim::{ExecutionMode, Experiment, ExperimentResults, NamedWorkload};
use dirsim_mem::CacheGeometry;
use dirsim_protocol::DirSpec;

const REFS: usize = 12_000;

/// Reference count for the finite-cache rounds: capacity evictions make
/// every reference more expensive (evict + re-fetch + oracle replay), so
/// the finite gauntlet runs a slightly shorter trace.
const FINITE_REFS: usize = 8_000;

/// The paper's Table 5 line-up plus the remaining directory organisations
/// and snoopy baselines — every protocol the model checker gauntlets.
fn gauntlet() -> Vec<Scheme> {
    vec![
        Scheme::dir_n_nb(),
        Scheme::dir0_b(),
        Scheme::dir1_b(),
        Scheme::dir_i_b(2),
        Scheme::dir1_nb(),
        Scheme::Directory(DirSpec::dir_i_nb(2).expect("two pointers is a valid NB spec")),
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

fn experiment() -> Experiment {
    Experiment::new()
        .workloads(dirsim::paper::paper_workloads())
        .schemes(gauntlet())
        .refs_per_trace(REFS)
}

/// Runs `exp` in `mode`.
fn run(exp: &Experiment, mode: ExecutionMode) -> ExperimentResults {
    exp.clone().execution(mode).run().unwrap()
}

/// `Parallel { workers }`, spelled short.
fn parallel(workers: usize) -> ExecutionMode {
    ExecutionMode::Parallel { workers }
}

fn assert_identical(a: &ExperimentResults, b: &ExperimentResults, what: &str) {
    assert_eq!(a.trace_stats, b.trace_stats, "{what}: trace statistics");
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

#[test]
fn gauntlet_covers_all_fourteen_schemes() {
    let schemes = gauntlet();
    assert_eq!(schemes.len(), 14);
    let names: std::collections::HashSet<String> = schemes.iter().map(|s| s.name()).collect();
    assert_eq!(names.len(), 14, "scheme names must be distinct");
}

#[test]
fn single_pass_matches_serial_for_every_scheme() {
    let exp = experiment();
    let serial = run(&exp, ExecutionMode::Serial);
    let single = run(&exp, parallel(1));
    assert_identical(&serial, &single, "parallel (1 worker) vs serial");
}

#[test]
fn sharded_matches_serial_for_every_scheme() {
    let exp = experiment();
    let serial = run(&exp, ExecutionMode::Serial);
    for workers in [2, 5] {
        let sharded = run(&exp, parallel(workers));
        assert_identical(&serial, &sharded, &format!("{workers} shards vs serial"));
    }
}

#[test]
fn pipelined_matches_serial_for_every_scheme() {
    // Decode on the producer thread vs inline, for every scheme: the same
    // materialised trace is served once by an `IterSource` (decoded on the
    // producer thread) and once by a `SliceSource` (lent inline), at one
    // worker and at four, and both must equal the serial oracle.
    let exp = experiment();
    let serial = run(&exp, ExecutionMode::Serial);
    let schemes = gauntlet();
    for (t, w) in dirsim::paper::paper_workloads().iter().enumerate() {
        let refs: Vec<MemRef> = Workload::new(w.config.clone()).take(REFS).collect();
        let caches = w.config.processes;
        let oracle: Vec<&SimResult> = serial
            .per_scheme
            .iter()
            .map(|s| &s.per_trace[t].1)
            .collect();
        for workers in [1, 4] {
            let engine = BroadcastSimulator::new(SimConfig::default()).workers(workers);
            let overlapped = engine
                .run(&schemes, caches, IterSource::new(refs.iter().copied()))
                .unwrap();
            let inline = engine
                .run(&schemes, caches, SliceSource::new(&refs))
                .unwrap();
            let what = format!("{} with {workers} workers", w.name);
            assert_eq!(
                overlapped.iter().collect::<Vec<_>>(),
                oracle,
                "producer thread, {what}"
            );
            assert_eq!(inline.iter().collect::<Vec<_>>(), oracle, "inline, {what}");
        }
    }
}

#[test]
fn shard_count_is_immaterial() {
    // Per-shard counters are commutative sums, so the worker count must
    // not leak into the results at all.
    let exp = experiment();
    let three = run(&exp, parallel(3));
    let eight = run(&exp, parallel(8));
    assert_identical(&three, &eight, "3 shards vs 8 shards");
}

#[test]
fn equivalence_holds_with_lock_tests_excluded() {
    // The §5.2 ablation filters the stream *before* it reaches the
    // engine; every execution path must see the identical filtered trace.
    let exp = experiment().exclude_lock_tests(true);
    let serial = run(&exp, ExecutionMode::Serial);
    assert_identical(&serial, &run(&exp, parallel(1)), "lock-filtered 1 worker");
    assert_identical(&serial, &run(&exp, parallel(4)), "lock-filtered 4 workers");
}

#[test]
fn equivalence_holds_under_the_oracle() {
    // The shadow-memory audit must neither perturb results nor behave
    // differently per path (each shard audits its own blocks).
    let exp = Experiment::new()
        .workload(NamedWorkload::new(
            "audited",
            WorkloadConfig::builder().seed(7).build().unwrap(),
        ))
        .schemes(gauntlet())
        .refs_per_trace(6_000)
        .check_oracle(true);
    let serial = run(&exp, ExecutionMode::Serial);
    assert_identical(&serial, &run(&exp, parallel(1)), "audited 1 worker");
    assert_identical(&serial, &run(&exp, parallel(3)), "audited 3 workers");
}

fn finite_experiment(geometry: CacheGeometry) -> Experiment {
    let config = SimConfig::builder()
        .geometry(geometry)
        .build()
        .expect("test geometry is valid");
    Experiment::new()
        .workloads(dirsim::paper::paper_workloads())
        .schemes(gauntlet())
        .refs_per_trace(FINITE_REFS)
        .sim_config(config)
}

#[test]
fn finite_cache_sharded_matches_serial_for_every_scheme() {
    // The tentpole guarantee: set-sharded finite-cache execution is
    // bit-identical to serial for all 14 schemes. This configuration was
    // rejected outright (`SimConfigError::ShardedFiniteCache`) before
    // set sharding existed, so this doubles as the regression test that
    // the old rejection path now succeeds.
    let exp = finite_experiment(CacheGeometry { sets: 8, ways: 2 });
    let serial = run(&exp, ExecutionMode::Serial);
    for workers in [1, 2, 5] {
        assert_identical(
            &serial,
            &run(&exp, parallel(workers)),
            &format!("finite {workers} workers vs serial"),
        );
    }
    // The geometry is small enough that the equivalence is exercised by
    // real replacement traffic, not a trivially infinite-looking run.
    for s in &serial.per_scheme {
        assert!(
            s.combined.capacity_evictions > 0,
            "{}: no capacity evictions — geometry too large for the trace",
            s.scheme
        );
    }
}

#[test]
fn finite_cache_shard_count_is_immaterial() {
    let exp = finite_experiment(CacheGeometry { sets: 8, ways: 2 });
    let three = run(&exp, parallel(3));
    let eight = run(&exp, parallel(8));
    assert_identical(&three, &eight, "finite 3 shards vs 8 shards");
}

#[test]
fn degenerate_finite_geometries_agree_across_modes() {
    // The corners of the geometry space: direct-mapped (ways = 1, every
    // touch of a new block in a set evicts), a single set (sets = 1, the
    // set key routes everything to shard 0 and the run degenerates to
    // single-pass-on-a-worker), and fewer sets than shards (most shards
    // stay empty). Each must agree with serial at one worker and at
    // eight.
    let cases = [
        ("direct-mapped", CacheGeometry { sets: 16, ways: 1 }),
        ("single-set", CacheGeometry { sets: 1, ways: 4 }),
        ("sets < shards", CacheGeometry { sets: 2, ways: 2 }),
    ];
    for (label, geometry) in cases {
        let exp = finite_experiment(geometry);
        let serial = run(&exp, ExecutionMode::Serial);
        assert_identical(
            &serial,
            &run(&exp, parallel(1)),
            &format!("{label} 1 worker"),
        );
        assert_identical(
            &serial,
            &run(&exp, parallel(8)),
            &format!("{label} 8 workers"),
        );
    }
}

#[test]
fn finite_cache_equivalence_holds_under_the_oracle() {
    // Eviction write-backs and post-eviction re-fetches must replay
    // identically against each shard's shadow memory.
    let config = SimConfig::builder()
        .geometry(CacheGeometry { sets: 4, ways: 2 })
        .check_oracle(true)
        .build()
        .unwrap();
    let exp = Experiment::new()
        .workload(NamedWorkload::new(
            "audited",
            WorkloadConfig::builder().seed(7).build().unwrap(),
        ))
        .schemes(gauntlet())
        .refs_per_trace(6_000)
        .sim_config(config);
    let serial = run(&exp, ExecutionMode::Serial);
    assert_identical(&serial, &run(&exp, parallel(1)), "audited finite 1 worker");
    assert_identical(&serial, &run(&exp, parallel(3)), "audited finite 3 workers");
}

#[test]
fn open_system_scenario_agrees_across_all_modes() {
    // Open-system workloads exercise the one generator feature that
    // changes the *population* mid-trace: Poisson arrivals mint new
    // process IDs and departures retire them, with a Zipf-skewed shared
    // pool and a phased write ramp layered on top ("open-zipf-phased").
    // The engine paths only ever see the emitted reference stream, so
    // every mode must still be bit-identical across all 14 schemes. (The
    // parallel mode materialises open per-process traces to size the
    // system and lends them inline, so this also pins that placement.)
    let scenario = Scenario::named("open-zipf-phased").unwrap();
    let exp = Experiment::new()
        .workload(NamedWorkload::from(scenario))
        .schemes(gauntlet())
        .refs_per_trace(REFS);
    let serial = run(&exp, ExecutionMode::Serial);
    assert_identical(&serial, &run(&exp, parallel(1)), "open-system 1 worker");
    assert_identical(&serial, &run(&exp, parallel(4)), "open-system 4 workers");
    // The run really is open: more processes appear than the six that
    // start, so the equivalence covers mid-trace arrivals.
    let procs = serial.trace_stats[0].1.process_count();
    assert!(
        procs > 6,
        "expected arrivals beyond the initial population, saw {procs} processes"
    );
}

#[test]
fn default_and_parallel_runs_agree_with_serial() {
    // The default mode and the all-cores mode sit on top of the same
    // machinery; they must agree with the serial oracle too.
    let exp = Experiment::new()
        .workloads(dirsim::paper::paper_workloads())
        .schemes(Scheme::paper_lineup())
        .refs_per_trace(REFS);
    let serial = run(&exp, ExecutionMode::Serial);
    assert_identical(&serial, &exp.run().unwrap(), "default run");
    assert_identical(&serial, &run(&exp, ExecutionMode::all_cores()), "all cores");
}

// ---------------------------------------------------------------------
// Table kernels: the memoized transition-table step path must be
// bit-identical to the match-based machines it replaces. These runs set
// `check_invariants(false)` because the per-reference audit forces the
// direct path (audits read machine internals the kernel never touches),
// and debug builds audit by default.
// ---------------------------------------------------------------------

fn kernel_experiment(kernels: KernelPolicy, geometry: Option<CacheGeometry>) -> Experiment {
    let mut builder = SimConfig::builder()
        .check_invariants(false)
        .kernels(kernels);
    if let Some(g) = geometry {
        builder = builder.geometry(g);
    }
    let config = builder.build().expect("kernel test config is valid");
    Experiment::new()
        .workloads(dirsim::paper::paper_workloads())
        .schemes(gauntlet())
        .refs_per_trace(FINITE_REFS)
        .sim_config(config)
}

#[test]
fn table_kernels_match_the_direct_machines() {
    // `Required` panics if any lane silently falls back at construction,
    // so passing proves the kernel path actually ran on the left side.
    let kernels = kernel_experiment(KernelPolicy::Required, None);
    let direct = kernel_experiment(KernelPolicy::Disabled, None);
    for (mode, what) in [
        (ExecutionMode::Serial, "kernel serial"),
        (parallel(1), "kernel 1 worker"),
        (parallel(3), "kernel 3 workers"),
    ] {
        assert_identical(&run(&kernels, mode), &run(&direct, mode), what);
    }
}

#[test]
fn table_kernels_match_the_direct_machines_with_finite_caches() {
    // Finite geometries route LRU capacity evictions through the kernel's
    // two-phase prepare/commit step; the small geometry guarantees real
    // replacement traffic (asserted in the finite gauntlet above).
    let geometry = CacheGeometry { sets: 8, ways: 2 };
    let kernels = kernel_experiment(KernelPolicy::Required, Some(geometry));
    let direct = kernel_experiment(KernelPolicy::Disabled, Some(geometry));
    for (mode, what) in [
        (ExecutionMode::Serial, "finite kernel serial"),
        (parallel(1), "finite kernel 1 worker"),
        (parallel(3), "finite kernel 3 workers"),
    ] {
        assert_identical(&run(&kernels, mode), &run(&direct, mode), what);
    }
}

#[test]
fn table_kernels_match_the_direct_machines_under_auto_policy() {
    // `Auto` is the shipped default; it must agree with `Disabled` too
    // (and with `Required`, by transitivity with the test above).
    let auto = kernel_experiment(KernelPolicy::Auto, None);
    let direct = kernel_experiment(KernelPolicy::Disabled, None);
    let a = run(&auto, parallel(1));
    let d = run(&direct, parallel(1));
    assert_identical(&a, &d, "auto-policy 1 worker");
}

#[test]
fn wide_systems_agree_with_kernels_on_auto() {
    // 24 caches shrink the kernel's state budget enough that read-heavy
    // sharing can overflow it mid-run; the overflow path materializes a
    // machine from the table recipes and continues on the direct path,
    // which must stay bit-identical whether or not the budget trips.
    let wide = NamedWorkload::new(
        "wide",
        WorkloadConfig::builder()
            .cpus(24)
            .processes(24)
            .seed(11)
            .build()
            .expect("wide workload config is valid"),
    );
    let base = SimConfig::builder().sharing(SharingModel::PerProcessor);
    let auto = base
        .clone()
        .check_invariants(false)
        .kernels(KernelPolicy::Auto)
        .build()
        .unwrap();
    let direct = base
        .check_invariants(false)
        .kernels(KernelPolicy::Disabled)
        .build()
        .unwrap();
    let with_kernels = Experiment::new()
        .workload(wide.clone())
        .schemes(gauntlet())
        .refs_per_trace(10_000)
        .sim_config(auto);
    let without = Experiment::new()
        .workload(wide)
        .schemes(gauntlet())
        .refs_per_trace(10_000)
        .sim_config(direct);
    for (mode, what) in [
        (parallel(1), "wide 1 worker"),
        (parallel(4), "wide 4 workers"),
    ] {
        assert_identical(&run(&with_kernels, mode), &run(&without, mode), what);
    }
}

// ---------------------------------------------------------------------
// Corpus ingestion: the same trace served five ways — an in-memory
// iterator, an in-memory slice, buffered DTR1 decode, zero-copy mmap
// decode, and a DTR3 pack/unpack round-trip — must be bit-identical at
// 1 and 4 workers for all 14 schemes. The slice and mmap sources lend
// their chunks and decode inline; the others decode on the producer
// thread, so this round pins both placements.
// ---------------------------------------------------------------------

#[test]
fn corpus_round_is_bit_identical_across_sources_and_modes() {
    use dirsim::BroadcastSimulator;
    use dirsim_trace::corpus::{write_corpus, CorpusReader};
    use dirsim_trace::io::{read_binary, write_binary};
    use dirsim_trace::{IterSource, MmapTraceSource, SliceSource, TraceSource, TraceStats};
    use std::io::Write as _;

    const CORPUS_REFS: usize = 10_000;
    let refs: Vec<MemRef> = Scenario::named("pops")
        .unwrap()
        .workload()
        .take(CORPUS_REFS)
        .collect();
    let caches = TraceStats::from_refs(refs.iter().copied()).process_id_bound();
    let dir = std::env::temp_dir();
    let dtr = dir.join(format!("dirsim-equiv-corpus-{}.dtr", std::process::id()));
    let dtrz = dir.join(format!("dirsim-equiv-corpus-{}.dtrz", std::process::id()));
    {
        let mut out = std::io::BufWriter::new(std::fs::File::create(&dtr).unwrap());
        write_binary(&mut out, refs.iter().copied()).unwrap();
        out.flush().unwrap();
    }
    {
        // Pack the on-disk DTR1 into a DTR3 corpus, exactly as
        // `trace_tool pack` does.
        let src = read_binary(std::io::BufReader::new(std::fs::File::open(&dtr).unwrap()));
        let mut out = std::io::BufWriter::new(std::fs::File::create(&dtrz).unwrap());
        let packed = write_corpus(&mut out, src).unwrap();
        out.flush().unwrap();
        assert_eq!(packed as usize, CORPUS_REFS);
    }

    // Unpacking the corpus reproduces the original DTR1 byte for byte.
    {
        let mut src = CorpusReader::open(&dtrz).unwrap();
        let mut unpacked = Vec::new();
        let mut chunk = Vec::new();
        let mut writer = dirsim_trace::codec::BinaryWriter::new(Vec::new()).unwrap();
        while src.read_chunk(&mut chunk, 4096).unwrap() > 0 {
            for r in &chunk {
                writer.push(r).unwrap();
            }
        }
        let (bytes, count) = writer.finish().unwrap();
        unpacked.extend_from_slice(&bytes);
        assert_eq!(count as usize, CORPUS_REFS);
        assert_eq!(
            unpacked,
            std::fs::read(&dtr).unwrap(),
            "pack/unpack must round-trip the DTR1 bytes exactly"
        );
    }

    let schemes = gauntlet();
    let engine = |workers: usize| BroadcastSimulator::new(SimConfig::default()).workers(workers);
    let baseline = engine(1)
        .run(&schemes, caches, IterSource::new(refs.iter().copied()))
        .unwrap();

    for workers in [1, 4] {
        let run = |source: Box<dyn TraceSource + Send + '_>| {
            engine(workers).run(&schemes, caches, source).unwrap()
        };
        let what = format!("workers={workers}");
        let iter = run(Box::new(IterSource::new(refs.iter().copied())));
        assert_eq!(iter, baseline, "in-memory iterator ({what})");
        let slice = run(Box::new(SliceSource::new(&refs)));
        assert_eq!(slice, baseline, "in-memory slice ({what})");
        let buffered = run(Box::new(read_binary(std::io::BufReader::new(
            std::fs::File::open(&dtr).unwrap(),
        ))));
        assert_eq!(buffered, baseline, "buffered DTR1 ({what})");
        let mapped = run(Box::new(MmapTraceSource::open(&dtr).unwrap()));
        assert_eq!(mapped, baseline, "mmap DTR1 ({what})");
        let corpus = run(Box::new(CorpusReader::open(&dtrz).unwrap()));
        assert_eq!(corpus, baseline, "DTR3 corpus ({what})");
    }
    std::fs::remove_file(&dtr).unwrap();
    std::fs::remove_file(&dtrz).unwrap();
}

/// 64 CPUs of read-only traffic over a wide shared pool: every block
/// accumulates holders in its own insertion order, which is exactly what
/// mints fresh DirnNB states fastest.
fn wide_finite_config() -> WorkloadConfig {
    WorkloadConfig::builder()
        .cpus(64)
        .processes(64)
        .instr_frac(0.0)
        .write_frac(0.0)
        .shared_frac(0.95)
        .shared_blocks_per_pool(256)
        .seed(13)
        .build()
        .expect("wide finite workload config is valid")
}

/// The wide finite runs' engine configuration: per-processor caches of
/// 8x2, audits off so kernels can engage.
fn wide_finite_sim(kernels: KernelPolicy) -> SimConfig {
    SimConfig::builder()
        .sharing(SharingModel::PerProcessor)
        .geometry(CacheGeometry { sets: 8, ways: 2 })
        .check_invariants(false)
        .kernels(kernels)
        .build()
        .unwrap()
}

#[test]
fn wide_finite_systems_agree_with_kernels_on_auto() {
    // The overflow fallback under a *finite* geometry: 64 caches shrink
    // the kernel's state budget to ~1365 states, and read-only traffic
    // over a wide shared pool makes every scheme's lane observe a fresh
    // holder subset per block (eviction pruning included), so DirnNB
    // trips the budget a few thousand references in. Kernel lanes carry
    // no finite-cache state of their own (the bank's shared replica
    // does), so the fallback must also reconstruct the lane's LRU
    // replica from the chunk-start snapshot — this pins that
    // reconstruction bit-identical in both the staged multi-lane decode
    // (one worker, sharded) and the fused single-lane decode (serial).
    let wide = NamedWorkload::new("wide-finite", wide_finite_config());
    let schemes = vec![Scheme::dir_n_nb(), Scheme::CoarseVector, Scheme::Wti];
    let with_kernels = Experiment::new()
        .workload(wide.clone())
        .schemes(schemes.clone())
        .refs_per_trace(20_000)
        .sim_config(wide_finite_sim(KernelPolicy::Auto));
    let without = Experiment::new()
        .workload(wide)
        .schemes(schemes)
        .refs_per_trace(20_000)
        .sim_config(wide_finite_sim(KernelPolicy::Disabled));
    for (mode, what) in [
        (ExecutionMode::Serial, "wide finite serial"),
        (parallel(1), "wide finite 1 worker"),
        (parallel(3), "wide finite 3 workers"),
    ] {
        assert_identical(&run(&with_kernels, mode), &run(&without, mode), what);
    }
}

#[test]
fn overflow_past_the_first_decode_block_agrees_with_kernels_on_auto() {
    // A bank of several kernel lanes decodes each chunk in blocks of 4096
    // references. An overflow in a later block must rebuild the lane's
    // LRU replica over the *chunk* prefix up to the failed reference, not
    // the block prefix. A run of read hits to one block mints no kernel
    // state, so prefixing it to the wide finite trace pushes every
    // overflow past the first decode block of the first chunk.
    let hit = MemRef::new(
        CpuId::new(0),
        ProcessId::new(0),
        Addr::new(0x40),
        AccessKind::Read,
    );
    let trace: Vec<MemRef> = std::iter::repeat(hit)
        .take(6_000)
        .chain(Workload::new(wide_finite_config()).take(20_000))
        .collect();
    let schemes = [Scheme::dir_n_nb(), Scheme::CoarseVector, Scheme::Wti];
    let run = |kernels: KernelPolicy, workers: Option<usize>| -> Vec<SimResult> {
        let engine = BroadcastSimulator::new(wide_finite_sim(kernels));
        match workers {
            // Serial: one pass per scheme, as `ExecutionMode::Serial` runs
            // it — a one-lane bank, which fuses decode and step.
            None => schemes
                .iter()
                .flat_map(|&s| engine.run(&[s], 64, SliceSource::new(&trace)).unwrap())
                .collect(),
            Some(workers) => engine
                .workers(workers)
                .run(&schemes, 64, SliceSource::new(&trace))
                .unwrap(),
        }
    };
    for (workers, what) in [
        (None, "serial"),
        (Some(1), "1 worker"),
        (Some(3), "3 workers"),
    ] {
        assert_eq!(
            run(KernelPolicy::Auto, workers),
            run(KernelPolicy::Disabled, workers),
            "{what}"
        );
    }
}
