//! Microbenchmarks for the packed sharer-set representation: insert,
//! remove, membership, iteration, and popcount at system widths from 4
//! to 128 caches (the inline bitmap words) and past 128 (the spill
//! words), so a representation change shows up as a per-op delta
//! rather than only as end-to-end engine drift.

use criterion::{criterion_group, criterion_main, BatchSize, Criterion, Throughput};

use dirsim_mem::CacheId;
use dirsim_protocol::SharerSet;

/// System widths on the inline bitmap words (ids < 128) plus one width
/// that forces the spill words (ids >= 128).
const WIDTHS: [u32; 5] = [4, 16, 64, 128, 256];

const OPS: usize = 4_096;

/// A deterministic id sequence cycling through `width` caches with an
/// odd stride, so consecutive ops rarely hit the same id.
fn ids(width: u32) -> Vec<CacheId> {
    let stride = (width / 2) | 1;
    (0..OPS as u32)
        .map(|i| CacheId::new((i * stride) % width))
        .collect()
}

fn full_set(width: u32) -> SharerSet {
    (0..width).map(CacheId::new).collect()
}

fn bench_insert_remove(c: &mut Criterion) {
    let mut group = c.benchmark_group("sharer_set/insert_remove");
    group.throughput(Throughput::Elements(OPS as u64));
    for width in WIDTHS {
        let seq = ids(width);
        group.bench_function(&format!("width{width}"), |b| {
            b.iter_batched(
                SharerSet::new,
                |mut set| {
                    for (i, &id) in seq.iter().enumerate() {
                        if i % 3 == 2 {
                            set.remove(id);
                        } else {
                            set.insert(id);
                        }
                    }
                    std::hint::black_box(set.len())
                },
                BatchSize::SmallInput,
            )
        });
    }
    group.finish();
}

fn bench_contains(c: &mut Criterion) {
    let mut group = c.benchmark_group("sharer_set/contains");
    group.throughput(Throughput::Elements(OPS as u64));
    for width in WIDTHS {
        let set = full_set(width);
        let seq = ids(width);
        group.bench_function(&format!("width{width}"), |b| {
            b.iter(|| {
                let mut hits = 0usize;
                for &id in &seq {
                    hits += usize::from(set.contains(id));
                }
                std::hint::black_box(hits)
            })
        });
    }
    group.finish();
}

fn bench_iterate(c: &mut Criterion) {
    let mut group = c.benchmark_group("sharer_set/iterate");
    for width in WIDTHS {
        let set = full_set(width);
        group.throughput(Throughput::Elements(u64::from(width)));
        group.bench_function(&format!("width{width}"), |b| {
            b.iter(|| {
                let mut acc = 0usize;
                for id in set.iter() {
                    acc = acc.wrapping_add(id.index());
                }
                std::hint::black_box(acc)
            })
        });
    }
    group.finish();
}

fn bench_count(c: &mut Criterion) {
    let mut group = c.benchmark_group("sharer_set/count");
    for width in WIDTHS {
        let set = full_set(width);
        let except = CacheId::new(width / 2);
        group.bench_function(&format!("width{width}"), |b| {
            b.iter(|| std::hint::black_box(set.len() + set.count_others(except)))
        });
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_insert_remove,
    bench_contains,
    bench_iterate,
    bench_count
);
criterion_main!(benches);
