//! Engine-path equivalence: every way the engine runs an experiment —
//! one worker or several, decode inline or on the producer thread, table
//! kernels or match machines, one lane per bank or many — must produce
//! results **bit-identical** to the serial oracle: each (scheme, workload)
//! cell run alone through `Simulator::run`, the paper's one pass per
//! scheme (see `common::Matrix::oracle`).
//!
//! Sharding is exact because per-block protocol state never interacts
//! across blocks and every counter merged across shards is a commutative
//! sum. Infinite caches shard by block address; finite caches shard by
//! cache set index (LRU state never crosses sets, and a block's set is a
//! pure function of its address), so both geometries get the full
//! guarantee. Decode on the producer thread (generators, buffered
//! decoders) is exact because only decode *work* moves there — chunks
//! arrive in stream order over one bounded FIFO and chunk boundaries
//! carry no simulation state — and inline decode (lent slices, mmap)
//! steps the very same chunks. The oracle shares none of that machinery,
//! nor the lane bank's one shared decode, so any drift here means an
//! engine path is wrong, not "parallel noise".

mod common;

use std::sync::Arc;

use common::{alone, assert_identical, gauntlet, kernels_engage, wide_config, Matrix};
use dirsim::broadcast::DEFAULT_CHUNK;
use dirsim::obs::MetricsRegistry;
use dirsim::prelude::*;
use dirsim::{ExperimentResults, NamedWorkload};
use dirsim_mem::CacheGeometry;

const REFS: usize = 12_000;

/// Reference count for the finite-cache rounds: capacity evictions make
/// every reference more expensive (evict + re-fetch + oracle replay), so
/// the finite gauntlet runs a slightly shorter trace.
const FINITE_REFS: usize = 8_000;

/// Checks `matrix` against its oracle at each worker count and returns
/// the oracle's results.
fn assert_matches_oracle(matrix: &Matrix, workers: &[usize], what: &str) -> ExperimentResults {
    let oracle = matrix.oracle();
    for &w in workers {
        let what = format!("{what}, {w} workers vs serial");
        assert_identical(&oracle, &matrix.run(w), &what);
    }
    oracle
}

/// The gauntlet over the paper workloads under a finite geometry.
fn finite_matrix(geometry: CacheGeometry) -> Matrix {
    let mut matrix = Matrix::paper(gauntlet(), FINITE_REFS);
    matrix.sim.geometry = Some(geometry);
    matrix
}

/// An audited workload: every reference is checked against the invariant
/// catalogue, and the shadow-memory oracle replays every movement.
fn audited(geometry: Option<CacheGeometry>) -> Matrix {
    let workload = NamedWorkload::new(
        "audited",
        WorkloadConfig::builder().seed(7).build().unwrap(),
    );
    let mut matrix = Matrix::new(vec![workload], gauntlet(), 6_000);
    matrix.sim.check_oracle = true;
    matrix.sim.check_invariants = true;
    matrix.sim.geometry = geometry;
    matrix
}

/// Checks `matrix` under both kernel policies against its oracle at each
/// worker count, and the `kernel_lanes` count: where kernels engage
/// ([`kernels_engage`]) every lane of at most 64 caches starts on one,
/// one per scheme, per workload pass, per shard; elsewhere none does.
/// A bank of several kernel lanes joins them all (`kernel_joint_lanes`).
/// Returns the metrics of the `Auto` runs, in `workers` order.
fn assert_kernels_match_oracle(
    matrix: &Matrix,
    workers: &[usize],
    what: &str,
) -> Vec<Arc<MetricsRegistry>> {
    let oracle = matrix.oracle();
    let mut auto = Vec::new();
    for kernels in [KernelPolicy::Auto, KernelPolicy::Disabled] {
        let matrix = Matrix {
            sim: SimConfig {
                kernels,
                ..matrix.sim
            },
            ..matrix.clone()
        };
        for &w in workers {
            let what = format!("{what}, {kernels:?}, {w} workers vs serial");
            let registry = Arc::new(MetricsRegistry::new());
            let results = matrix
                .experiment()
                .workers(w)
                .recorder(registry.clone())
                .run()
                .unwrap();
            assert_identical(&oracle, &results, &what);
            let lanes = registry.counter_value("kernel_lanes", &[]).unwrap_or(0);
            let joint = registry
                .counter_value("kernel_joint_lanes", &[])
                .unwrap_or(0);
            let kernel_lanes = if kernels_engage(&matrix.sim) {
                (matrix.schemes.len() * matrix.workloads.len() * w) as u64
            } else {
                0
            };
            assert_eq!(lanes, kernel_lanes, "{what}: kernel_lanes");
            let joined = if matrix.schemes.len() > 1 {
                kernel_lanes
            } else {
                0
            };
            assert_eq!(joint, joined, "{what}: kernel_joint_lanes");
            if kernels == KernelPolicy::Auto {
                auto.push(registry);
            }
        }
    }
    auto
}

#[test]
fn gauntlet_covers_all_sixteen_schemes() {
    let names: std::collections::HashSet<String> = gauntlet().iter().map(|s| s.name()).collect();
    assert_eq!(names.len(), 16, "scheme names must be distinct");
    for name in ["Dir4B", "Dir4NB"] {
        assert!(names.contains(name), "{name} is missing");
    }
}

#[test]
fn single_pass_matches_serial_for_every_scheme() {
    assert_matches_oracle(&Matrix::paper(gauntlet(), REFS), &[1], "paper workloads");
}

#[test]
fn sharded_matches_serial_for_every_scheme() {
    assert_matches_oracle(&Matrix::paper(gauntlet(), REFS), &[2, 5], "paper workloads");
}

#[test]
fn pipelined_matches_serial_for_every_scheme() {
    // Decode on the producer thread vs inline, for every scheme: the same
    // materialised trace is served once by an `IterSource` (decoded on the
    // producer thread) and once by a `SliceSource` (lent inline), at one
    // worker and at four, and both must equal the serial oracle.
    let oracle = Matrix::paper(gauntlet(), REFS).oracle();
    let schemes = gauntlet();
    for (t, trace) in PaperTrace::ALL.iter().enumerate() {
        let config = trace.scenario().config();
        let refs: Vec<MemRef> = Workload::new(config.clone()).take(REFS).collect();
        let caches = config.processes;
        let want: Vec<&SimResult> = oracle
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
            let what = format!("{} with {workers} workers", trace.name());
            assert_eq!(
                overlapped.iter().collect::<Vec<_>>(),
                want,
                "producer thread, {what}"
            );
            assert_eq!(inline.iter().collect::<Vec<_>>(), want, "inline, {what}");
        }
    }
}

#[test]
fn shard_count_is_immaterial() {
    // Per-shard counters are commutative sums, so the worker count must
    // not leak into the results at all.
    assert_matches_oracle(&Matrix::paper(gauntlet(), REFS), &[3, 8], "paper workloads");
}

#[test]
fn equivalence_holds_with_lock_tests_excluded() {
    // The §5.2 ablation filters the stream *before* it reaches the
    // engine; every execution path must see the identical filtered trace.
    let matrix = Matrix {
        exclude_lock_tests: true,
        ..Matrix::paper(gauntlet(), REFS)
    };
    assert_matches_oracle(&matrix, &[1, 4], "lock-filtered");
}

#[test]
fn equivalence_holds_under_the_oracle() {
    // The shadow-memory audit must neither perturb results nor behave
    // differently per path (each shard audits its own blocks).
    assert_matches_oracle(&audited(None), &[1, 3], "audited");
}

#[test]
fn finite_cache_sharded_matches_serial_for_every_scheme() {
    // The tentpole guarantee: set-sharded finite-cache execution is
    // bit-identical to serial for every scheme. This configuration was
    // rejected outright (`SimConfigError::ShardedFiniteCache`) before
    // set sharding existed, so this doubles as the regression test that
    // the old rejection path now succeeds.
    let matrix = finite_matrix(CacheGeometry { sets: 8, ways: 2 });
    let oracle = assert_matches_oracle(&matrix, &[1, 2, 5], "finite 8x2");
    // The geometry is small enough that the equivalence is exercised by
    // real replacement traffic, not a trivially infinite-looking run.
    for s in &oracle.per_scheme {
        assert!(
            s.combined.capacity_evictions > 0,
            "{}: no capacity evictions — geometry too large for the trace",
            s.scheme
        );
    }
}

#[test]
fn finite_cache_shard_count_is_immaterial() {
    let matrix = finite_matrix(CacheGeometry { sets: 8, ways: 2 });
    assert_matches_oracle(&matrix, &[3, 8], "finite 8x2");
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
        assert_matches_oracle(&finite_matrix(geometry), &[1, 8], label);
    }
}

#[test]
fn finite_cache_equivalence_holds_under_the_oracle() {
    // Eviction write-backs and post-eviction re-fetches must replay
    // identically against each shard's shadow memory.
    let geometry = CacheGeometry { sets: 4, ways: 2 };
    assert_matches_oracle(&audited(Some(geometry)), &[1, 3], "audited finite");
}

#[test]
fn open_system_scenario_agrees_across_all_modes() {
    // Open-system workloads exercise the one generator feature that
    // changes the *population* mid-trace: Poisson arrivals mint new
    // process IDs and departures retire them, with a Zipf-skewed shared
    // pool and a phased write ramp layered on top ("open-zipf-phased").
    // The engine paths only ever see the emitted reference stream, so
    // every worker count must still be bit-identical to serial across the
    // gauntlet. (`Experiment` materialises open per-process traces to
    // size the system and streams them from memory, lock-test filtered
    // when asked, so this also pins that path both ways.)
    let scenario = Scenario::named("open-zipf-phased").unwrap();
    for exclude in [false, true] {
        let mut matrix = Matrix::new(vec![NamedWorkload::from(scenario)], gauntlet(), REFS);
        matrix.exclude_lock_tests = exclude;
        let what = format!("open-system, lock tests excluded: {exclude}");
        let oracle = assert_matches_oracle(&matrix, &[1, 4], &what);
        // The run really is open: more processes appear than the six that
        // start, so the equivalence covers mid-trace arrivals.
        let stats = &oracle.trace_stats[0].1;
        let procs = stats.process_count();
        assert!(
            procs > 6,
            "{what}: expected arrivals beyond the initial population, saw {procs} processes"
        );
        // The filter has lock reads to drop, and drops them all.
        assert_eq!(stats.lock_reads() == 0, exclude, "{what}");
    }
}

#[test]
fn default_and_parallel_runs_agree_with_serial() {
    // The default worker count and one worker per core sit on top of the
    // same machinery; they must agree with the serial oracle too.
    let matrix = Matrix::paper(Scheme::paper_lineup(), REFS);
    let oracle = matrix.oracle();
    assert_identical(&oracle, &matrix.experiment().run().unwrap(), "default run");
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    assert_identical(&oracle, &matrix.run(cores), "all cores");
}

// ---------------------------------------------------------------------
// Table kernels: the memoized transition-table step path must be
// bit-identical to the match-based machines it replaces, which the
// oracle steps. Each round runs both kernel policies and checks
// `kernel_lanes`, so a lane that silently falls back to its match
// machine under `Auto` fails the round. (Under the `invariants` feature
// every lane audits and none takes a kernel, which the rounds check too.)
// ---------------------------------------------------------------------

#[test]
fn table_kernels_match_the_direct_machines() {
    // Infinite caches, and a finite geometry whose LRU capacity evictions
    // take the kernel's two-phase prepare/commit step (the small geometry
    // guarantees real replacement traffic; see the finite gauntlet above).
    for geometry in [None, Some(CacheGeometry { sets: 8, ways: 2 })] {
        let mut matrix = Matrix::paper(gauntlet(), FINITE_REFS);
        matrix.sim.geometry = geometry;
        assert_kernels_match_oracle(&matrix, &[1, 3], &format!("{geometry:?}"));
    }
}

#[test]
fn each_scheme_alone_matches_serial() {
    // One scheme per run makes every bank a one-lane bank, which decodes
    // in blocks like any other bank and steps them on its kernel or, under
    // `Disabled`, its match machine.
    for geometry in [None, Some(CacheGeometry { sets: 8, ways: 2 })] {
        let mut all = Matrix::paper(gauntlet(), FINITE_REFS);
        all.sim.geometry = geometry;
        for scheme in gauntlet() {
            let matrix = Matrix {
                schemes: vec![scheme],
                ..all.clone()
            };
            assert_kernels_match_oracle(&matrix, &[1, 3], &format!("{scheme} alone, {geometry:?}"));
        }
    }
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
    let mut matrix = Matrix::new(vec![wide], gauntlet(), 10_000);
    matrix.sim.sharing = SharingModel::PerProcessor;
    assert_kernels_match_oracle(&matrix, &[1, 4], "wide");
}

// ---------------------------------------------------------------------
// Corpus ingestion: the same trace served five ways — an in-memory
// iterator, an in-memory slice, buffered DTR1 decode, zero-copy mmap
// decode, and a DTR3 pack/unpack round-trip — must be bit-identical to
// serial at 1 and 4 workers for every scheme. The slice and mmap sources
// lend their chunks and decode inline; the others decode on the producer
// thread, so this round pins both placements. The DTR1 and DTR3 files
// then run as trace workloads through `Experiment`, and the DTR1 file
// against the scenario it was written from.
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
    let baseline = alone(SimConfig::default(), &schemes, caches, &refs);

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

    // The files as trace workloads: `Experiment` sizes each from its own
    // scan, and every worker count equals serial.
    let stats = TraceStats::from_refs(refs.iter().copied());
    for path in [&dtr, &dtrz] {
        let exp = Experiment::new()
            .workload(NamedWorkload::trace("corpus", path))
            .schemes(schemes.clone())
            .refs_per_trace(CORPUS_REFS);
        for workers in [1, 4] {
            let what = format!("{} on {workers} workers", path.display());
            let results = exp.clone().workers(workers).run().unwrap();
            assert_eq!(
                results.trace_stats,
                [("corpus".to_string(), stats.clone())],
                "{what}"
            );
            assert_eq!(results.caches, [caches], "{what}");
            let combined: Vec<SimResult> =
                results.per_scheme.into_iter().map(|s| s.combined).collect();
            assert_eq!(combined, baseline, "{what}");
        }
    }

    // The two input kinds against each other: the DTR1 file written from
    // `pops` runs bit-identically to the `pops` scenario itself, and both
    // to serial.
    for exclude_lock_tests in [false, true] {
        let matrix = Matrix {
            exclude_lock_tests,
            ..Matrix::new(
                vec![NamedWorkload::from(Scenario::named("pops").unwrap())],
                schemes.clone(),
                CORPUS_REFS,
            )
        };
        let oracle = matrix.oracle();
        let what = format!("exclude_lock_tests = {exclude_lock_tests}");
        assert_identical(&oracle, &matrix.run(1), &format!("pops scenario, {what}"));
        let file = Matrix {
            workloads: vec![NamedWorkload::trace("pops", &dtr)],
            ..matrix
        };
        assert_identical(
            &oracle,
            &file.experiment().run().unwrap(),
            &format!("DTR1 file, {what}"),
        );
    }
    std::fs::remove_file(&dtr).unwrap();
    std::fs::remove_file(&dtrz).unwrap();
}

#[test]
fn systems_past_the_kernel_width_agree_on_the_match_machines() {
    // 96 caches is past what a kernel tables, so every lane of every
    // bank steps its match machine: sharer ids past 64 fill the second
    // inline word, Dir_iNB pointer sets overflow, and under the finite
    // geometry the bank's one replica evicts. Each scheme run alone
    // through `Simulator::run` is the oracle.
    let wide = NamedWorkload::new("wide96", wide_config(96));
    for geometry in [None, Some(CacheGeometry { sets: 16, ways: 2 })] {
        let matrix = Matrix {
            sim: SimConfig {
                geometry,
                ..SimConfig::default()
            },
            ..Matrix::new(vec![wide.clone()], gauntlet(), 20_000)
        };
        let oracle = matrix.oracle();
        assert_eq!(oracle.caches, [96]);
        let combined = |name: &str| {
            let s = oracle.per_scheme.iter().find(|s| s.scheme.name() == name);
            s.expect("a gauntlet scheme").combined.clone()
        };
        // Pointer overflow: Dir4NB evicts sharers the full map keeps.
        assert!(
            combined("Dir4NB").events.read_misses() > combined("DirnNB").events.read_misses(),
            "{geometry:?}: Dir4NB never overflowed its pointers"
        );
        assert_eq!(
            combined("DirnNB").capacity_evictions > 0,
            geometry.is_some(),
            "{geometry:?}: capacity evictions"
        );
        for w in [1, 3] {
            let what = format!("wide96, {geometry:?}, {w} workers vs serial");
            let registry = Arc::new(MetricsRegistry::new());
            let results = matrix
                .experiment()
                .workers(w)
                .recorder(registry.clone())
                .run()
                .unwrap();
            assert_identical(&oracle, &results, &what);
            assert_eq!(
                registry.counter_value("kernel_lanes", &[]),
                Some(0),
                "{what}: kernel_lanes"
            );
        }
    }
}

#[test]
fn audited_systems_past_the_inline_capacities_agree() {
    // A sharer set keeps ids below 128 and its first eight members inline,
    // and an outcome its first ops and movements; past those they spill
    // to the heap. The oracle steps the same machines, so a spill defect
    // shows only to the audits, which this round turns on explicitly: at
    // 160 caches sharer ids pass both inline words, and pools of eight
    // shared blocks gather more holders than any inline capacity, so
    // clean writes fan out past them too.
    let config = WorkloadConfig {
        shared_blocks_per_pool: 8,
        ..wide_config(160)
    };
    let wide = NamedWorkload::new("wide160", config);
    for geometry in [None, Some(CacheGeometry { sets: 4, ways: 2 })] {
        let mut matrix = Matrix::new(vec![wide.clone()], gauntlet(), 6_000);
        matrix.sim.check_oracle = true;
        matrix.sim.check_invariants = true;
        matrix.sim.geometry = geometry;
        let what = format!("audited wide160, {geometry:?}");
        let oracle = assert_matches_oracle(&matrix, &[1, 3], &what);
        assert_eq!(oracle.caches, [160]);
        assert_eq!(oracle.trace_stats[0].1.process_count(), 160, "{what}");
        let dir_n_nb = &oracle.per_scheme[0];
        assert_eq!(dir_n_nb.scheme, Scheme::dir_n_nb());
        let widest = dir_n_nb.combined.fanout.max_fanout().unwrap_or(0);
        assert!(
            widest as usize > dirsim_protocol::ops::INLINE_OPS,
            "{what}: widest DirnNB fan-out {widest} stays inline"
        );
    }
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
/// 8x2.
fn wide_finite_sim(kernels: KernelPolicy) -> SimConfig {
    SimConfig {
        sharing: SharingModel::PerProcessor,
        geometry: Some(CacheGeometry { sets: 8, ways: 2 }),
        kernels,
        ..SimConfig::default()
    }
}

/// DirnNB's `kernel_materializations` count in `registry`.
fn dir_n_nb_materializations(registry: &MetricsRegistry) -> u64 {
    registry
        .counter_value(
            "kernel_materializations",
            &[("scheme", &Scheme::dir_n_nb().name())],
        )
        .unwrap_or(0)
}

#[test]
fn wide_finite_systems_agree_with_kernels_on_auto() {
    // The overflow fallback under a *finite* geometry: 64 caches shrink
    // the kernel's state budget to ~1365 states, and read-only traffic
    // over a wide shared pool makes every scheme's lane observe a fresh
    // holder subset per block (eviction pruning included), so DirnNB
    // trips the budget a few thousand references in. The overflowing lane
    // then steps the rest of the trace on the match path, still reading
    // residency and victims from the bank's one shared decode, at one
    // worker and sharded. Serial decodes on its own, so it checks that
    // shared decode too.
    let wide = NamedWorkload::new("wide-finite", wide_finite_config());
    let schemes = vec![Scheme::dir_n_nb(), Scheme::CoarseVector, Scheme::Wti];
    let matrix = Matrix {
        sim: wide_finite_sim(KernelPolicy::Auto),
        ..Matrix::new(vec![wide], schemes, 20_000)
    };
    let workers = [1, 3];
    let auto = assert_kernels_match_oracle(&matrix, &workers, "wide finite");
    for (w, registry) in workers.iter().zip(&auto) {
        assert_eq!(
            dir_n_nb_materializations(registry) > 0,
            kernels_engage(&matrix.sim),
            "{w} workers: DirnNB left its kernel"
        );
    }
}

#[test]
fn overflow_past_the_first_decode_block_agrees_with_kernels_on_auto() {
    // A bank of several lanes decodes each chunk in blocks of 4096
    // references. An overflow in a later block must hand the match path
    // the decoded record it failed on, not one from the block's start. A
    // run of read hits to one block mints no kernel state, so prefixing
    // it to the wide finite trace pushes every overflow past the first
    // decode block of the first chunk. Each scheme run alone through
    // `Simulator::run` checks the shared decode against an independent
    // one.
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
    let reference = alone(
        wide_finite_sim(KernelPolicy::Disabled),
        &schemes,
        64,
        &trace,
    );
    let run = |kernels: KernelPolicy, workers: Option<usize>, registry: Arc<MetricsRegistry>| {
        let engine = BroadcastSimulator::new(wide_finite_sim(kernels)).recorder(registry);
        match workers {
            // One engine pass per scheme: a one-lane bank.
            None => schemes
                .iter()
                .flat_map(|&s| engine.run(&[s], 64, SliceSource::new(&trace)).unwrap())
                .collect::<Vec<SimResult>>(),
            Some(workers) => engine
                .workers(workers)
                .run(&schemes, 64, SliceSource::new(&trace))
                .unwrap(),
        }
    };
    for (workers, what) in [
        (None, "one pass per scheme"),
        (Some(1), "1 worker"),
        (Some(3), "3 workers"),
    ] {
        let registry = Arc::new(MetricsRegistry::new());
        let auto = run(KernelPolicy::Auto, workers, registry.clone());
        // Every placement counts its kernel lanes: one per scheme per
        // shard (one pass per scheme runs one one-lane bank each).
        let engaged = kernels_engage(&wide_finite_sim(KernelPolicy::Auto));
        assert_eq!(
            registry.counter_value("kernel_lanes", &[]),
            Some(if engaged {
                3 * workers.unwrap_or(1) as u64
            } else {
                0
            }),
            "{what}"
        );
        assert_eq!(
            dir_n_nb_materializations(&registry) > 0,
            engaged,
            "{what}: DirnNB left its kernel"
        );
        assert_eq!(
            auto,
            run(KernelPolicy::Disabled, workers, Arc::default()),
            "{what}"
        );
        assert_eq!(auto, reference, "{what}: vs Simulator");
    }
}

// ---------------------------------------------------------------------
// Fetch edges: a lane bank sets instruction fetches aside at decode, and
// each lane adds a decode block's fetch count once instead of stepping
// every fetch. These rounds aim at the edges of that split — a stream
// with no data at all, decode blocks with no data reference, fetch runs
// across chunk and decode-block boundaries (odd chunk sizes), and a
// kernel overflow on the first data reference after a fetch run — with
// one bank of every scheme and one one-lane bank per scheme, under both
// kernel policies, against each scheme run alone through
// `Simulator::run`.
// ---------------------------------------------------------------------

/// An instruction fetch by CPU and process `k % 4`. The addresses walk
/// distinct blocks, so the route spreads fetch runs over every shard.
fn fetch(k: u64) -> MemRef {
    MemRef::instr(
        CpuId::new((k % 4) as u16),
        ProcessId::new((k % 4) as u32),
        Addr::new(0x10_0000 + 16 * k),
    )
}

/// Checks `trace` under `sim` against the oracle at 1 and 3 workers and
/// two odd chunk sizes, as one bank of every scheme and as one one-lane
/// bank per scheme, and checks `kernel_lanes` and `kernel_joint_lanes`.
/// Returns each placement's label and metrics.
fn assert_fetch_edge(
    sim: SimConfig,
    schemes: &[Scheme],
    caches: u32,
    trace: &[MemRef],
    what: &str,
) -> Vec<(String, Arc<MetricsRegistry>)> {
    let want = alone(sim, schemes, caches, trace);
    let mut registries = Vec::new();
    for workers in [1, 3] {
        for chunk in [1_001, 4_097] {
            let what = format!(
                "{what}, {:?}, {workers} workers, chunks of {chunk}",
                sim.kernels
            );
            let registry = Arc::new(MetricsRegistry::new());
            let engine = BroadcastSimulator::new(sim)
                .workers(workers)
                .chunk_size(chunk)
                .recorder(registry.clone());
            let bank = engine
                .run(schemes, caches, SliceSource::new(trace))
                .unwrap();
            assert_eq!(bank, want, "{what}: one bank");
            let one_lane: Vec<SimResult> = schemes
                .iter()
                .flat_map(|&s| engine.run(&[s], caches, SliceSource::new(trace)).unwrap())
                .collect();
            assert_eq!(one_lane, want, "{what}: one-lane banks");
            // The bank of every scheme joins its lanes; one-lane banks
            // never do.
            let (kernel_lanes, joint_lanes) = if kernels_engage(&sim) {
                (2 * schemes.len() * workers, schemes.len() * workers)
            } else {
                (0, 0)
            };
            assert_eq!(
                registry.counter_value("kernel_lanes", &[]).unwrap_or(0),
                kernel_lanes as u64,
                "{what}: kernel_lanes"
            );
            assert_eq!(
                registry
                    .counter_value("kernel_joint_lanes", &[])
                    .unwrap_or(0),
                joint_lanes as u64,
                "{what}: kernel_joint_lanes"
            );
            registries.push((what, registry));
        }
    }
    registries
}

#[test]
fn fetch_edges_agree_with_the_oracle() {
    let pops: Vec<MemRef> = Scenario::named("pops")
        .unwrap()
        .workload()
        .take(6_000)
        .collect();
    let caches = TraceStats::from_refs(pops.iter().copied()).process_id_bound();
    // Fetch runs of 1 to 7 between the pops references, so runs end and
    // start on every side of each chunk and decode-block boundary.
    let straddling: Vec<MemRef> = pops
        .iter()
        .enumerate()
        .flat_map(|(i, &r)| (0..(i as u64 * 5) % 7 + 1).map(fetch).chain([r]))
        .collect();
    // 30,000 fetches in a row: at 3 workers each shard still gets runs
    // longer than two decode blocks, so some block holds no data at all.
    let data_free: Vec<MemRef> = pops[..3_000]
        .iter()
        .copied()
        .chain((0..30_000).map(fetch))
        .chain(pops[3_000..].iter().copied())
        .collect();
    let cases = [
        ("fetches only", (0..9_000).map(fetch).collect::<Vec<_>>()),
        ("a fetch run longer than a decode block", data_free),
        ("fetch runs across boundaries", straddling),
    ];
    for (what, trace) in &cases {
        for kernels in [KernelPolicy::Auto, KernelPolicy::Disabled] {
            let sim = SimConfig {
                kernels,
                ..SimConfig::default()
            };
            assert_fetch_edge(sim, &gauntlet(), caches, trace, what);
        }
    }
}

#[test]
fn kernel_overflow_after_a_fetch_run_agrees_with_the_oracle() {
    // The wide finite trace with a run of fetches before every data
    // reference, so the data reference that overflows DirnNB's kernel
    // comes straight after a fetch run, whichever one it is.
    let trace: Vec<MemRef> = Workload::new(wide_finite_config())
        .take(20_000)
        .enumerate()
        .flat_map(|(i, r)| (0..i as u64 % 3 + 1).map(fetch).chain([r]))
        .collect();
    let schemes = [Scheme::dir_n_nb(), Scheme::CoarseVector, Scheme::Wti];
    for kernels in [KernelPolicy::Auto, KernelPolicy::Disabled] {
        let sim = wide_finite_sim(kernels);
        for (what, registry) in assert_fetch_edge(sim, &schemes, 64, &trace, "wide finite") {
            assert_eq!(
                dir_n_nb_materializations(&registry) > 0,
                kernels_engage(&sim),
                "{what}: DirnNB left its kernel"
            );
        }
    }
}

// ---------------------------------------------------------------------
// The joint kernel: a bank whose lanes all start on table kernels steps
// them as one product machine, and splits back into per-lane kernels
// past its budget or when a lane's own table overflows. These rounds aim
// at its cold path — residency misses and victims, a mid-stream split,
// data-free decode blocks — at 1 and 3 workers, under both kernel
// policies, against each scheme run alone through `Simulator::run`, and
// each asserts the joint's counters: none where kernels do not engage.
// ---------------------------------------------------------------------

/// `kernel_joint_splits{reason}` in `registry`.
fn joint_splits(registry: &MetricsRegistry, reason: &str) -> u64 {
    registry
        .counter_value("kernel_joint_splits", &[("reason", reason)])
        .unwrap_or(0)
}

/// Runs every scheme over `trace` as one bank in chunks of `chunk`, at 1
/// and 3 workers under both kernel policies, checks each run against
/// `Simulator::run`, and returns the `Auto` runs' worker counts and
/// metrics.
fn joint_runs(
    sim: SimConfig,
    schemes: &[Scheme],
    caches: u32,
    trace: &[MemRef],
    chunk: usize,
) -> Vec<(usize, Arc<MetricsRegistry>)> {
    let mut auto = Vec::new();
    for kernels in [KernelPolicy::Auto, KernelPolicy::Disabled] {
        let sim = SimConfig { kernels, ..sim };
        let want = alone(sim, schemes, caches, trace);
        for workers in [1, 3] {
            let registry = Arc::new(MetricsRegistry::new());
            let got = BroadcastSimulator::new(sim)
                .workers(workers)
                .chunk_size(chunk)
                .recorder(registry.clone())
                .run(schemes, caches, SliceSource::new(trace))
                .unwrap();
            assert_eq!(
                got, want,
                "{kernels:?}, {workers} workers, chunks of {chunk}"
            );
            let joined = registry
                .counter_value("kernel_joint_lanes", &[])
                .unwrap_or(0);
            let want_joined = if kernels_engage(&sim) {
                schemes.len() * workers
            } else {
                0
            };
            assert_eq!(joined, want_joined as u64, "{workers} workers");
            if kernels == KernelPolicy::Auto {
                auto.push((workers, registry));
            }
        }
    }
    auto
}

#[test]
fn finite_misses_and_victims_take_the_joint_cold_path() {
    // An 8x2 geometry turns about a fifth of the data references into
    // residency misses, most with a victim: each takes the joint's cold
    // path, which moves two blocks' tuples and accounts every lane's
    // step. No split may cut it short.
    let trace: Vec<MemRef> = Scenario::named("pops")
        .unwrap()
        .workload()
        .take(FINITE_REFS)
        .collect();
    let caches = TraceStats::from_refs(trace.iter().copied()).process_id_bound();
    let sim = SimConfig {
        geometry: Some(CacheGeometry { sets: 8, ways: 2 }),
        ..SimConfig::default()
    };
    let schemes = gauntlet();
    let want = alone(sim, &schemes, caches, &trace);
    assert!(
        want.iter().all(|r| r.capacity_evictions > 100),
        "the geometry must evict"
    );
    for (workers, registry) in joint_runs(sim, &schemes, caches, &trace, DEFAULT_CHUNK) {
        for reason in ["budget", "lane_overflow"] {
            assert_eq!(
                joint_splits(&registry, reason),
                0,
                "{workers} workers: {reason}"
            );
        }
    }
}

#[test]
fn joint_splits_mid_stream_on_the_wide_trace() {
    // At 64 caches the wide trace keeps minting states. Every lane of
    // the gauntlet forgets a different part of a block's history, so the
    // joint state space outgrows the widest lane's and trips the joint
    // budget first; DirnNB, CoarseVector and WTI grow in step, so
    // DirnNB's own table overflows first. Either way the bank splits
    // mid-stream, each lane resumes on its own kernel at the failed
    // record, and DirnNB later overflows onto its match machine. Every
    // lane takes its block states from the joint's tuples at the split.
    // The trace runs twice over, so every block live at the split is
    // referenced again after it; in one-reference chunks the block the
    // bank interned last before the split is one of them, not a block
    // still waiting for its first reference further on in the chunk.
    let once: Vec<MemRef> = Workload::new(wide_finite_config()).take(20_000).collect();
    let trace: Vec<MemRef> = once.iter().chain(&once).copied().collect();
    let sim = wide_finite_sim(KernelPolicy::Auto);
    for (schemes, reason) in [
        (gauntlet(), "budget"),
        (
            vec![Scheme::dir_n_nb(), Scheme::CoarseVector, Scheme::Wti],
            "lane_overflow",
        ),
    ] {
        let runs = [DEFAULT_CHUNK, 1]
            .into_iter()
            .flat_map(|chunk| joint_runs(sim, &schemes, 64, &trace, chunk));
        for (workers, registry) in runs {
            let what = format!("{} schemes, {workers} workers", schemes.len());
            let splits = joint_splits(&registry, reason);
            assert_eq!(splits > 0, kernels_engage(&sim), "{what}: {reason} splits");
            let all = joint_splits(&registry, "budget") + joint_splits(&registry, "lane_overflow");
            assert_eq!(all, splits, "{what}: only {reason} splits");
            assert_eq!(
                dir_n_nb_materializations(&registry) > 0,
                kernels_engage(&sim),
                "{what}: DirnNB left its kernel"
            );
        }
    }
}

#[test]
fn fetch_only_blocks_keep_the_bank_joined() {
    // Two decode blocks' worth of fetches in mid-stream: whatever the
    // shard or chunk boundaries, some decode block of a joined bank holds
    // no data reference, steps nothing through the joint kernel, and
    // leaves it joined for the data after it.
    let pops: Vec<MemRef> = Scenario::named("pops")
        .unwrap()
        .workload()
        .take(6_000)
        .collect();
    let caches = TraceStats::from_refs(pops.iter().copied()).process_id_bound();
    let trace: Vec<MemRef> = pops[..3_000]
        .iter()
        .copied()
        .chain((0..3 * 4_096 * 3).map(fetch))
        .chain(pops[3_000..].iter().copied())
        .collect();
    for kernels in [KernelPolicy::Auto, KernelPolicy::Disabled] {
        let sim = SimConfig {
            kernels,
            ..SimConfig::default()
        };
        for (what, registry) in assert_fetch_edge(sim, &gauntlet(), caches, &trace, "fetch run") {
            for reason in ["budget", "lane_overflow"] {
                assert_eq!(joint_splits(&registry, reason), 0, "{what}: {reason}");
            }
        }
    }
}
