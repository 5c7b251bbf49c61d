//! Raw component throughput: workload generation, trace IO, protocol state
//! machines, and the end-to-end engine (references per second) at one
//! worker and at one worker per core.

use criterion::{criterion_group, criterion_main, BatchSize, Criterion, Throughput};

use dirsim::prelude::*;
use dirsim_trace::io::{read_binary, write_binary};
use dirsim_trace::{BorrowedChunkSource, MmapTraceSource, TraceSource};

const REFS: usize = 100_000;

fn pops() -> &'static Scenario {
    Scenario::named("pops").expect("bundled")
}

fn bench_generator(c: &mut Criterion) {
    let mut group = c.benchmark_group("throughput/generator");
    group.throughput(Throughput::Elements(REFS as u64));
    for name in ["pops", "thor", "pero"] {
        let scenario = Scenario::named(name).expect("bundled");
        group.bench_function(&name.to_uppercase(), |b| {
            b.iter(|| {
                let n = scenario.workload().take(REFS).count();
                std::hint::black_box(n)
            })
        });
    }
    group.finish();
}

fn bench_trace_io(c: &mut Criterion) {
    let refs: Vec<MemRef> = pops().workload().take(REFS).collect();
    let mut encoded = Vec::new();
    write_binary(&mut encoded, refs.iter().copied()).unwrap();

    let mut group = c.benchmark_group("throughput/trace_io");
    group.throughput(Throughput::Elements(REFS as u64));
    group.bench_function("write_binary", |b| {
        b.iter(|| {
            let mut buf = Vec::with_capacity(encoded.len());
            write_binary(&mut buf, refs.iter().copied()).unwrap();
            std::hint::black_box(buf.len())
        })
    });
    group.bench_function("read_binary", |b| {
        b.iter(|| {
            let n = read_binary(&encoded[..]).count();
            std::hint::black_box(n)
        })
    });
    group.finish();
}

/// The decode-bound corpus round: buffered `BinaryTraceSource` (one
/// `read` syscall batch + per-record copy out of an owned buffer) vs the
/// mmap source decoding straight from the page cache. A 10^7-reference
/// DTR1 file (160 MB) keeps the round IO-bound the way real corpus
/// ingestion is; the chunk loop mirrors the engine's decode stage.
fn bench_corpus_decode(c: &mut Criterion) {
    const DECODE_REFS: usize = 10_000_000;
    const CHUNK: usize = 32_768;
    let path = std::env::temp_dir().join(format!("dirsim-bench-decode-{}.dtr", std::process::id()));
    {
        let file = std::fs::File::create(&path).expect("create bench corpus");
        let mut w = std::io::BufWriter::new(file);
        write_binary(&mut w, pops().workload().take(DECODE_REFS)).expect("write bench corpus");
    }

    let mut group = c.benchmark_group("throughput/corpus_decode_10m");
    group.sample_size(10);
    group.throughput(Throughput::Elements(DECODE_REFS as u64));
    group.bench_function("buffered", |b| {
        b.iter(|| {
            let file = std::fs::File::open(&path).expect("open bench corpus");
            let mut src = read_binary(std::io::BufReader::new(file));
            let mut chunk = Vec::new();
            let mut n = 0usize;
            while src.read_chunk(&mut chunk, CHUNK).expect("decode") > 0 {
                n += chunk.len();
            }
            std::hint::black_box(n)
        })
    });
    group.bench_function("mmap", |b| {
        // The borrowed-chunk view is the path the engine takes: decode
        // once into the source's buffer, lend the slice, no copy out.
        b.iter(|| {
            let mut src = MmapTraceSource::open(&path).expect("map bench corpus");
            let mut n = 0usize;
            loop {
                let chunk = src.next_chunk(CHUNK).expect("decode");
                if chunk.is_empty() {
                    break;
                }
                n += chunk.len();
            }
            std::hint::black_box(n)
        })
    });
    group.finish();
    std::fs::remove_file(&path).ok();
}

fn bench_protocols(c: &mut Criterion) {
    let refs: Vec<MemRef> = pops().workload().take(REFS).collect();
    let mut group = c.benchmark_group("throughput/engine");
    group.throughput(Throughput::Elements(REFS as u64));
    let mut schemes = Scheme::paper_lineup();
    schemes.push(Scheme::Directory(DirSpec::dir_n_nb()));
    schemes.push(Scheme::Berkeley);
    schemes.push(Scheme::CoarseVector);
    for scheme in schemes {
        group.bench_function(&scheme.name(), |b| {
            b.iter_batched(
                || scheme.build(4),
                |mut protocol| {
                    Simulator::paper()
                        .run(protocol.as_mut(), refs.iter().copied())
                        .unwrap()
                },
                BatchSize::SmallInput,
            )
        });
    }
    group.finish();
}

fn bench_oracle_overhead(c: &mut Criterion) {
    let refs: Vec<MemRef> = pops().workload().take(REFS).collect();
    let mut group = c.benchmark_group("throughput/oracle");
    group.throughput(Throughput::Elements(REFS as u64));
    for check in [false, true] {
        let label = if check {
            "with_oracle"
        } else {
            "without_oracle"
        };
        group.bench_function(label, |b| {
            b.iter_batched(
                || Scheme::Directory(DirSpec::dir0_b()).build(4),
                |mut protocol| {
                    let sim = Simulator::new(SimConfig {
                        check_oracle: check,
                        ..SimConfig::default()
                    });
                    sim.run(protocol.as_mut(), refs.iter().copied()).unwrap()
                },
                BatchSize::SmallInput,
            )
        });
    }
    group.finish();
}

/// The full headline matrix (3 traces × 4 schemes at 200k refs/trace)
/// under the infinite-cache model and a 64-set × 4-way LRU geometry, at
/// two worker counts: `single_pass` (each trace streamed once through all
/// schemes on one worker) and `sharded` (one worker per available core).
/// The finite matrix additionally pays for replacement lookups, evictions
/// and re-fetches, and shards by cache **set index** (LRU state never
/// crosses sets), which is exactly as parallel as block sharding whenever
/// `sets >= workers`. Throughput is engine steps per second (references
/// × schemes). The paper's one pass per scheme is timed by the
/// `throughput_smoke` binary's `serial` mode.
fn bench_execution_modes(c: &mut Criterion) {
    const MATRIX_REFS: usize = 200_000;
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let finite = SimConfig {
        geometry: Some(dirsim_mem::CacheGeometry { sets: 64, ways: 4 }),
        ..SimConfig::default()
    };
    for (group, sim) in [
        ("throughput/full_matrix_200k", SimConfig::default()),
        ("throughput/full_matrix_finite_200k", finite),
    ] {
        let exp = dirsim::paper::headline_experiment(MATRIX_REFS).sim_config(sim);
        let steps = (MATRIX_REFS * exp.workload_count() * exp.scheme_count()) as u64;
        let mut group = c.benchmark_group(group);
        group.sample_size(10);
        group.throughput(Throughput::Elements(steps));
        for (label, workers) in [("single_pass", 1), ("sharded", cores)] {
            let exp = exp.clone().workers(workers);
            group.bench_function(label, |b| b.iter(|| exp.run().unwrap()));
        }
        group.finish();
    }
}

criterion_group!(
    benches,
    bench_generator,
    bench_trace_io,
    bench_corpus_decode,
    bench_protocols,
    bench_oracle_overhead,
    bench_execution_modes
);
criterion_main!(benches);
