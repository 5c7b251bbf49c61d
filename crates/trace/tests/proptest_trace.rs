//! Property tests for the trace crate: format robustness, statistics
//! algebra, filter laws, and generator structure.

use proptest::prelude::*;
use proptest::test_runner::TestCaseResult;

use dirsim_trace::filter::{by_cpu, data_only, without_lock_tests, without_os};
use dirsim_trace::frontend::{read_csv, write_csv};
use dirsim_trace::io::{read_binary, read_text, write_binary, write_text, TraceIoError};
use dirsim_trace::source::{IterSource, SliceSource};
use dirsim_trace::synth::{Region, Workload, WorkloadConfig};
use dirsim_trace::{
    open_trace, AccessKind, Addr, CpuId, MemRef, MmapTraceSource, ProcessId, RefFlags, TraceSource,
    TraceStats,
};

/// A collision-free temp path: pid plus a process-wide counter, so
/// proptest cases (and parallel test binaries) never share a file.
fn temp_path(tag: &str, ext: &str) -> std::path::PathBuf {
    use std::sync::atomic::{AtomicU64, Ordering};
    static NEXT: AtomicU64 = AtomicU64::new(0);
    std::env::temp_dir().join(format!(
        "dirsim-proptest-{tag}-{}-{}.{ext}",
        std::process::id(),
        NEXT.fetch_add(1, Ordering::Relaxed)
    ))
}

/// `refs` as a `DTR2` stream: the payload of a `DTR3` corpus, the one
/// place `DTR2` bytes are written.
fn dtr2_bytes(refs: &[MemRef]) -> Vec<u8> {
    use dirsim_trace::corpus::{write_corpus, CORPUS_FOOTER_LEN, CORPUS_HEADER_LEN};
    let mut corpus = Vec::new();
    write_corpus(&mut corpus, SliceSource::new(refs)).unwrap();
    corpus[CORPUS_HEADER_LEN..corpus.len() - CORPUS_FOOTER_LEN].to_vec()
}

fn arbitrary_refs(len: usize) -> impl Strategy<Value = Vec<MemRef>> {
    prop::collection::vec(
        (
            0u16..8,
            0u32..8,
            0u64..(1 << 44),
            0u8..3,
            any::<bool>(),
            any::<bool>(),
        )
            .prop_map(|(cpu, pid, addr, kind, lock, os)| {
                let kind = match kind {
                    0 => AccessKind::InstrFetch,
                    1 => AccessKind::Read,
                    _ => AccessKind::Write,
                };
                let mut flags = RefFlags::empty();
                if lock {
                    flags = flags.with_lock();
                }
                if os {
                    flags = flags.with_os();
                }
                MemRef::new(CpuId::new(cpu), ProcessId::new(pid), Addr::new(addr), kind)
                    .with_flags(flags)
            }),
        0..len,
    )
}

/// Drives `source` to exhaustion in `chunk`-sized reads, checking the
/// short-read/EOF contract along the way: `read_chunk` never over-fills
/// `max`, the buffer length always equals the returned count, `Ok(0)`
/// appears exactly once — at end of stream, never mid-stream (a
/// premature 0 would truncate `got` and fail the final comparison) — and
/// end of stream is sticky.
fn check_source_contract<S: TraceSource>(
    mut source: S,
    want: &[MemRef],
    chunk: usize,
) -> TestCaseResult {
    let mut got = Vec::new();
    let mut buf = Vec::new();
    loop {
        let n = source.read_chunk(&mut buf, chunk).unwrap();
        prop_assert!(n <= chunk, "read_chunk over-filled max: {} > {}", n, chunk);
        prop_assert_eq!(n, buf.len());
        if n == 0 {
            break;
        }
        got.extend_from_slice(&buf);
    }
    // A source that reported end of stream stays ended.
    prop_assert_eq!(source.read_chunk(&mut buf, chunk).unwrap(), 0);
    prop_assert_eq!(&got[..], want);
    Ok(())
}

/// Drains a source, panicking on any error (for comparisons only).
fn drain<S: TraceSource>(mut source: S, chunk: usize) -> Vec<MemRef> {
    let mut got = Vec::new();
    let mut buf = Vec::new();
    while source.read_chunk(&mut buf, chunk).unwrap() > 0 {
        got.extend_from_slice(&buf);
    }
    got
}

/// Drains a source through its borrowed-chunk view, checking the same
/// contract as [`check_source_contract`]: no chunk exceeds `chunk`, an
/// empty chunk ends the stream, and the end is sticky.
fn drain_borrowed<S: TraceSource>(
    mut source: S,
    chunk: usize,
) -> Result<Vec<MemRef>, TestCaseError> {
    let borrowed = source.borrowed().expect("source lends its chunks");
    let mut got = Vec::new();
    loop {
        let lent = borrowed.next_chunk(chunk).unwrap();
        prop_assert!(
            lent.len() <= chunk,
            "next_chunk over-filled max: {} > {}",
            lent.len(),
            chunk
        );
        if lent.is_empty() {
            break;
        }
        got.extend_from_slice(lent);
    }
    prop_assert!(borrowed.next_chunk(chunk).unwrap().is_empty());
    Ok(got)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Every [`TraceSource`] adapter honours the short-read/EOF contract
    /// for arbitrary streams and chunk sizes: binary, text, and
    /// iterator/synthetic sources alike.
    #[test]
    fn sources_honour_the_chunk_contract(refs in arbitrary_refs(120), chunk in 1usize..40) {
        let mut bin = Vec::new();
        write_binary(&mut bin, refs.iter().copied()).unwrap();
        check_source_contract(read_binary(&bin[..]), &refs, chunk)?;

        let mut txt = Vec::new();
        write_text(&mut txt, refs.iter().copied()).unwrap();
        check_source_contract(read_text(&txt[..]), &refs, chunk)?;

        check_source_contract(IterSource::new(refs.iter().copied()), &refs, chunk)?;
    }

    /// Chunk size is invisible: reading one reference at a time and
    /// reading everything in one oversized chunk produce the same
    /// sequence for binary, text, and synthetic workload sources.
    #[test]
    fn chunk_size_does_not_change_the_stream(refs in arbitrary_refs(80), seed in any::<u64>()) {
        let oversized = refs.len() + 1;

        let mut bin = Vec::new();
        write_binary(&mut bin, refs.iter().copied()).unwrap();
        prop_assert_eq!(drain(read_binary(&bin[..]), 1), drain(read_binary(&bin[..]), oversized));

        let mut txt = Vec::new();
        write_text(&mut txt, refs.iter().copied()).unwrap();
        prop_assert_eq!(drain(read_text(&txt[..]), 1), drain(read_text(&txt[..]), oversized));

        // Synthetic workloads are deterministic under a seed, so two
        // independently generated streams are comparable.
        let cfg = WorkloadConfig::builder().seed(seed).build().unwrap();
        let synth = |chunk: usize| {
            drain(IterSource::new(Workload::new(cfg.clone()).take(64)), chunk)
        };
        prop_assert_eq!(synth(1), synth(65));
    }

    /// Corrupting any single byte of a binary trace either still decodes
    /// (payload bytes) or produces a clean error — never a panic.
    #[test]
    fn binary_corruption_never_panics(refs in arbitrary_refs(20), pos in 0usize..100, byte in any::<u8>()) {
        let mut buf = Vec::new();
        write_binary(&mut buf, refs.iter().copied()).unwrap();
        if buf.is_empty() {
            return Ok(());
        }
        let idx = pos % buf.len();
        buf[idx] = byte;
        // Must terminate without panicking; errors are fine.
        let _ = read_binary(&buf[..]).collect::<Vec<Result<MemRef, TraceIoError>>>();
    }

    /// Truncating a binary trace mid-record errors instead of inventing
    /// data.
    #[test]
    fn binary_truncation_is_detected(refs in arbitrary_refs(20), cut in 1usize..15) {
        prop_assume!(!refs.is_empty());
        let mut buf = Vec::new();
        write_binary(&mut buf, refs.iter().copied()).unwrap();
        buf.truncate(buf.len() - cut);
        let results: Vec<_> = read_binary(&buf[..]).collect();
        prop_assert!(matches!(
            results.last(),
            Some(Err(TraceIoError::TruncatedRecord)) | Some(Err(TraceIoError::Io(_)))
        ));
        // All records before the cut decode correctly.
        for (got, want) in results.iter().zip(refs.iter()) {
            if let Ok(got) = got {
                prop_assert_eq!(got, want);
            }
        }
    }

    /// Text parsing accepts whatever the writer produces, line by line.
    #[test]
    fn text_lines_are_individually_valid(refs in arbitrary_refs(40)) {
        let mut buf = Vec::new();
        write_text(&mut buf, refs.iter().copied()).unwrap();
        let text = String::from_utf8(buf).unwrap();
        for (line, want) in text.lines().zip(refs.iter()) {
            let got: Vec<MemRef> =
                read_text(line.as_bytes()).collect::<Result<_, _>>().unwrap();
            prop_assert_eq!(&got[..], std::slice::from_ref(want));
        }
    }

    /// The compressed format round-trips arbitrary reference streams.
    #[test]
    fn compressed_round_trips(refs in arbitrary_refs(200)) {
        use dirsim_trace::compress::read_compressed;
        let buf = dtr2_bytes(&refs);
        let back: Vec<MemRef> =
            read_compressed(&buf[..]).collect::<Result<_, _>>().unwrap();
        prop_assert_eq!(back, refs);
    }

    /// Corrupting a compressed stream never panics and never loops.
    #[test]
    fn compressed_corruption_never_panics(
        refs in arbitrary_refs(30),
        pos in 0usize..200,
        byte in any::<u8>(),
    ) {
        use dirsim_trace::compress::read_compressed;
        let mut buf = dtr2_bytes(&refs);
        if buf.is_empty() {
            return Ok(());
        }
        let idx = pos % buf.len();
        buf[idx] = byte;
        let decoded: Vec<_> = read_compressed(&buf[..]).take(1000).collect();
        prop_assert!(decoded.len() <= refs.len() + 8, "no runaway decoding");
    }

    /// The mmap source decodes identically to the buffered decoder,
    /// record for record, at chunk size 1, an odd size, and one
    /// oversized chunk — and it honours the short-read/EOF contract
    /// like every other source.
    #[test]
    fn mmap_decodes_identically_to_buffered(refs in arbitrary_refs(120), chunk in 1usize..40) {
        let path = temp_path("mmap", "dtr");
        let mut bin = Vec::new();
        write_binary(&mut bin, refs.iter().copied()).unwrap();
        std::fs::write(&path, &bin).unwrap();
        check_source_contract(MmapTraceSource::open(&path).unwrap(), &refs, chunk)?;
        for chunk in [1, 7, refs.len() + 1] {
            prop_assert_eq!(
                drain(MmapTraceSource::open(&path).unwrap(), chunk),
                drain(read_binary(&bin[..]), chunk),
                "chunk size {}", chunk
            );
        }
        std::fs::remove_file(&path).unwrap();
    }

    /// An in-memory [`SliceSource`] serves the same stream three ways —
    /// owned reads, borrowed chunks, and the [`IterSource`] it replaces —
    /// at chunk size 1, an odd size, and one oversized chunk, and it
    /// honours the short-read/EOF contract like every other source.
    #[test]
    fn slice_source_agrees_owned_borrowed_and_iter(refs in arbitrary_refs(120), chunk in 1usize..40) {
        check_source_contract(SliceSource::new(&refs), &refs, chunk)?;
        for chunk in [1, 7, refs.len() + 1] {
            let owned = drain(SliceSource::new(&refs), chunk);
            prop_assert_eq!(&owned, &refs, "owned, chunk size {}", chunk);
            prop_assert_eq!(drain_borrowed(SliceSource::new(&refs), chunk)?, owned, "borrowed, chunk size {}", chunk);
            prop_assert_eq!(drain(IterSource::new(refs.iter().copied()), chunk), refs.clone(), "iter, chunk size {}", chunk);
        }
    }

    /// The text and CSV frontends round-trip arbitrary streams through
    /// the registry's sniffing `open_trace` path. Text is lossless; the
    /// foreign CSV schema has no flag column, so the round trip
    /// normalises flags away and must preserve everything else.
    #[test]
    fn text_and_csv_frontends_round_trip(refs in arbitrary_refs(80)) {
        let txt = temp_path("frontend", "txt");
        let mut buf = Vec::new();
        write_text(&mut buf, refs.iter().copied()).unwrap();
        std::fs::write(&txt, &buf).unwrap();
        prop_assert_eq!(drain(open_trace(&txt).unwrap(), 17), refs.clone());
        std::fs::remove_file(&txt).unwrap();

        let lossy: Vec<MemRef> = refs
            .iter()
            .map(|r| MemRef::new(r.cpu, r.pid, r.addr, r.kind))
            .collect();
        let mut buf = Vec::new();
        write_csv(&mut buf, refs.iter().copied()).unwrap();
        // In memory, straight through the reader…
        prop_assert_eq!(drain(read_csv(&buf[..]), 17), lossy.clone());
        // …and from disk, sniffed by the registry.
        let csv = temp_path("frontend", "csv");
        std::fs::write(&csv, &buf).unwrap();
        prop_assert_eq!(drain(open_trace(&csv).unwrap(), 17), lossy);
        std::fs::remove_file(&csv).unwrap();
    }

    /// Stats of a concatenation equal the merge of the parts.
    #[test]
    fn stats_merge_is_concat(a in arbitrary_refs(100), b in arbitrary_refs(100)) {
        let mut merged = TraceStats::from_refs(a.iter().copied());
        merged.merge(&TraceStats::from_refs(b.iter().copied()));
        let concat = TraceStats::from_refs(a.iter().copied().chain(b.iter().copied()));
        prop_assert_eq!(merged, concat);
    }

    /// Cutting one stream in two and merging the halves' stats gives the
    /// whole stream's, with CPU and process ids on every side of the
    /// identity sets' one-word and spill boundaries (64 and 65,536).
    #[test]
    fn merged_halves_equal_the_whole(
        refs in arbitrary_refs(200),
        ids in prop::collection::vec((0u32..140, 0u32..140), 200),
        cut in 0usize..200,
    ) {
        let wide = |x: u32| if x < 70 { x } else { 65_466 + x };
        let refs: Vec<MemRef> = refs
            .iter()
            .zip(&ids)
            .map(|(r, &(cpu, pid))| MemRef {
                cpu: CpuId::new(wide(cpu).min(u32::from(u16::MAX)) as u16),
                pid: ProcessId::new(wide(pid)),
                ..*r
            })
            .collect();
        let cut = cut.min(refs.len());
        let whole = TraceStats::from_refs(refs.iter().copied());
        let mut merged = TraceStats::from_refs(refs[..cut].iter().copied());
        merged.merge(&TraceStats::from_refs(refs[cut..].iter().copied()));
        prop_assert_eq!(merged.cpu_id_bound(), whole.cpu_id_bound());
        prop_assert_eq!(merged.process_id_bound(), whole.process_id_bound());
        prop_assert_eq!(merged.process_count(), whole.process_count());
        prop_assert_eq!(merged.to_string(), whole.to_string());
        prop_assert_eq!(merged, whole);
    }

    /// Filters are idempotent and only remove what they claim.
    /// `observe`'s arithmetic tallies agree with a tally written with
    /// `match`, over streams that mix every kind with every flag pair: a
    /// lock flag on a write or a fetch is not a lock read, and an OS flag
    /// counts on every kind.
    #[test]
    fn observe_matches_a_match_tally(refs in arbitrary_refs(200)) {
        let stats = TraceStats::from_refs(refs.iter().copied());
        let (mut instr, mut reads, mut writes, mut locks, mut system) = (0, 0, 0, 0, 0);
        for r in &refs {
            match (r.kind, r.flags.is_lock()) {
                (AccessKind::InstrFetch, _) => instr += 1,
                (AccessKind::Read, true) => {
                    reads += 1;
                    locks += 1;
                }
                (AccessKind::Read, false) => reads += 1,
                (AccessKind::Write, _) => writes += 1,
            }
            if r.flags.is_os() {
                system += 1;
            }
        }
        prop_assert_eq!(stats.total(), refs.len() as u64);
        prop_assert_eq!(stats.instructions(), instr);
        prop_assert_eq!(stats.data_reads(), reads);
        prop_assert_eq!(stats.data_writes(), writes);
        prop_assert_eq!(stats.lock_reads(), locks);
        prop_assert_eq!(stats.system(), system);
        prop_assert_eq!(stats.user(), refs.len() as u64 - system);
    }

    #[test]
    fn filters_are_idempotent(refs in arbitrary_refs(150)) {
        let once: Vec<MemRef> = without_lock_tests(refs.clone()).collect();
        let twice: Vec<MemRef> = without_lock_tests(once.clone()).collect();
        prop_assert_eq!(&once, &twice);
        prop_assert!(once.iter().all(|r| !r.flags.is_lock()));
        let removed = refs.len() - once.len();
        let locks = refs.iter().filter(|r| r.flags.is_lock()).count();
        prop_assert_eq!(removed, locks);

        let os_free: Vec<MemRef> = without_os(refs.clone()).collect();
        prop_assert!(os_free.iter().all(|r| !r.flags.is_os()));
        let data: Vec<MemRef> = data_only(refs.clone()).collect();
        prop_assert!(data.iter().all(|r| r.kind.is_data()));
        for cpu in 0..8u16 {
            let per: Vec<MemRef> = by_cpu(refs.clone(), CpuId::new(cpu)).collect();
            prop_assert!(per.iter().all(|r| r.cpu == CpuId::new(cpu)));
        }
    }

    /// Generator structural laws on arbitrary (valid) configurations:
    /// instruction fetches only target code, lock flags only appear on
    /// reads of lock words, and the CPU sequence is round-robin.
    #[test]
    fn generator_structural_laws(
        cpus in 1u16..6,
        extra_procs in 0u32..3,
        seed in any::<u64>(),
        shared in 0.0f64..0.2,
    ) {
        let cfg = WorkloadConfig::builder()
            .cpus(cpus)
            .processes(u32::from(cpus) + extra_procs)
            .shared_frac(shared)
            .seed(seed)
            .build()
            .unwrap();
        let refs: Vec<MemRef> = Workload::new(cfg).take(3000).collect();
        for (i, r) in refs.iter().enumerate() {
            prop_assert_eq!(r.cpu.index(), i % cpus as usize, "round robin");
            match r.kind {
                AccessKind::InstrFetch => {
                    prop_assert_eq!(Region::of(r.addr), Some(Region::Code));
                }
                AccessKind::Read => {
                    if r.flags.is_lock() {
                        prop_assert_eq!(Region::of(r.addr), Some(Region::Locks));
                    }
                }
                AccessKind::Write => {
                    prop_assert!(!r.flags.is_lock(), "writes are never spin tests");
                }
            }
            prop_assert!(Region::of(r.addr).is_some(), "every address has a region");
        }
    }
}

/// An empty slice is an empty stream on both the owned and the borrowed
/// path, at every chunk size.
#[test]
fn slice_source_serves_an_empty_slice_as_an_empty_stream() {
    for chunk in [1, 7, 32_768] {
        assert_eq!(drain(SliceSource::new(&[]), chunk), Vec::new());
        assert_eq!(
            drain_borrowed(SliceSource::new(&[]), chunk).unwrap(),
            Vec::new()
        );
        assert_eq!(
            drain(IterSource::new(std::iter::empty()), chunk),
            Vec::new()
        );
    }
}

/// The degenerate files the fuzzer cannot reach with a generated stream:
/// a zero-byte file and a header-only file. Both decode paths must agree
/// — a typed refusal for the former, a clean zero-record stream for the
/// latter.
#[test]
fn mmap_agrees_with_buffered_on_empty_and_header_only_files() {
    let path = temp_path("degenerate", "dtr");

    // Empty file: no header to validate. The mmap path refuses at open;
    // the lazy buffered path refuses on the first chunk read.
    std::fs::write(&path, b"").unwrap();
    assert!(matches!(
        MmapTraceSource::open(&path),
        Err(TraceIoError::TruncatedRecord)
    ));
    let file = std::fs::File::open(&path).unwrap();
    let mut src = read_binary(std::io::BufReader::new(file));
    let mut buf = Vec::new();
    assert!(src.read_chunk(&mut buf, 16).is_err());

    // Header-only file: a valid, empty trace from both paths.
    std::fs::write(&path, dirsim_trace::codec::header_bytes()).unwrap();
    assert_eq!(drain(MmapTraceSource::open(&path).unwrap(), 8), Vec::new());
    let file = std::fs::File::open(&path).unwrap();
    assert_eq!(
        drain(read_binary(std::io::BufReader::new(file)), 8),
        Vec::new()
    );
    std::fs::remove_file(&path).unwrap();
}
