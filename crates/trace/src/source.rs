//! Streaming trace sources: one chunked pull interface over every way a
//! reference stream can be produced.
//!
//! The simulation engine replays the *same* interleaved stream under many
//! protocols at once, so it wants references in bounded batches rather
//! than as fully materialised `Vec<MemRef>`s (a 14-scheme matrix over a
//! million-reference trace would otherwise hold 14 traces' worth of
//! memory). [`TraceSource`] is that interface: a source fills a caller
//! buffer with up to `max` references per call and reports exhaustion by
//! filling zero.
//!
//! Implementations cover the producers the crate knows about — synthetic
//! generators (via [`IterSource`]), in-memory traces (via the zero-copy
//! [`SliceSource`]), binary/compressed readers
//! ([`crate::io::BinaryReader`], [`crate::compress::CompressedReader`]),
//! and text readers ([`crate::io::TextReader`]) — plus the
//! [`WithoutLockTests`] adapter used by the §5.2 ablation.
//!
//! ```
//! use dirsim_trace::source::{IterSource, TraceSource};
//! use dirsim_trace::synth::PaperTrace;
//!
//! let mut source = IterSource::new(PaperTrace::Pops.workload().take(10_000));
//! let mut buf = Vec::new();
//! let mut total = 0;
//! while source.read_chunk(&mut buf, 4096).unwrap() > 0 {
//!     total += buf.len();
//! }
//! assert_eq!(total, 10_000);
//! ```

use std::io::{BufRead, Read};

use crate::compress::CompressedReader;
use crate::io::{BinaryReader, TextReader, TraceIoError};
use crate::types::MemRef;

/// A pull-based, chunked producer of memory references.
///
/// Implementors fill the caller's buffer with up to `max` references per
/// call; a call that fills zero references means the stream is exhausted.
/// The buffer is cleared by the source before filling, so callers can
/// reuse one allocation across the whole stream.
pub trait TraceSource {
    /// Clears `buf` and fills it with up to `max` references.
    ///
    /// Returns the number of references written (`buf.len()`); `Ok(0)`
    /// means the source is exhausted and further calls keep returning
    /// `Ok(0)`.
    ///
    /// # Errors
    ///
    /// Returns a [`TraceIoError`] if the underlying stream fails to
    /// decode; after an error the source is fused (subsequent calls
    /// return `Ok(0)`).
    fn read_chunk(&mut self, buf: &mut Vec<MemRef>, max: usize) -> Result<usize, TraceIoError>;

    /// Owned-buffer variant of [`read_chunk`](Self::read_chunk): takes the
    /// chunk buffer by value and hands it back filled.
    ///
    /// This is the recycling handshake the pipelined engine uses when the
    /// decode stage lives on its own thread: emptied buffers travel back
    /// to the producer over a channel, get refilled here, and are sent
    /// forward again — the references themselves are written exactly once
    /// per chunk and never copied between stages. An empty returned
    /// buffer (`buf.is_empty()`) means the stream is exhausted, mirroring
    /// the `Ok(0)` contract of `read_chunk`.
    ///
    /// # Errors
    ///
    /// See [`read_chunk`](Self::read_chunk); on error the buffer is
    /// consumed (the caller is expected to abandon the stream).
    fn read_chunk_owned(
        &mut self,
        mut buf: Vec<MemRef>,
        max: usize,
    ) -> Result<Vec<MemRef>, TraceIoError> {
        self.read_chunk(&mut buf, max)?;
        Ok(buf)
    }

    /// The zero-copy view of this source, if it has one.
    ///
    /// Sources whose chunks are already in memory (the memory-mapped
    /// reader's reusable decode buffer, a [`SliceSource`]'s slice) return
    /// `Some`; the engine then decodes them inline, borrowing each chunk
    /// in place. `None` (the default) means callers use
    /// [`read_chunk`](Self::read_chunk) /
    /// [`read_chunk_owned`](Self::read_chunk_owned), which every source
    /// supports, and the engine decodes on a producer thread.
    fn borrowed(&mut self) -> Option<&mut dyn BorrowedChunkSource> {
        None
    }
}

/// A chunked reference producer whose chunks are borrowed from storage
/// the source owns, valid until the next call.
///
/// The contract mirrors [`TraceSource::read_chunk`]: a chunk holds at
/// most `max` references, an empty chunk means the stream is exhausted,
/// errors fuse the source (later calls yield empty chunks), and the
/// reference sequence is identical to what the owned path would produce.
pub trait BorrowedChunkSource {
    /// Decodes and returns the next chunk of up to `max` references.
    ///
    /// # Errors
    ///
    /// Returns a [`TraceIoError`] if the underlying stream fails to
    /// decode; afterwards the source is fused.
    fn next_chunk(&mut self, max: usize) -> Result<&[MemRef], TraceIoError>;
}

impl<S: TraceSource + ?Sized> TraceSource for &mut S {
    fn read_chunk(&mut self, buf: &mut Vec<MemRef>, max: usize) -> Result<usize, TraceIoError> {
        (**self).read_chunk(buf, max)
    }

    fn borrowed(&mut self) -> Option<&mut dyn BorrowedChunkSource> {
        (**self).borrowed()
    }
}

impl<S: TraceSource + ?Sized> TraceSource for Box<S> {
    fn read_chunk(&mut self, buf: &mut Vec<MemRef>, max: usize) -> Result<usize, TraceIoError> {
        (**self).read_chunk(buf, max)
    }

    fn borrowed(&mut self) -> Option<&mut dyn BorrowedChunkSource> {
        (**self).borrowed()
    }
}

/// Adapts any infallible reference iterator — a synthetic
/// [`Workload`](crate::synth::Workload), a `Vec`, a filter chain — into a
/// [`TraceSource`].
#[derive(Debug)]
pub struct IterSource<I> {
    inner: I,
}

impl<I> IterSource<I>
where
    I: Iterator<Item = MemRef>,
{
    /// Wraps an iterator of references.
    pub fn new(inner: I) -> Self {
        IterSource { inner }
    }
}

impl<I> TraceSource for IterSource<I>
where
    I: Iterator<Item = MemRef>,
{
    fn read_chunk(&mut self, buf: &mut Vec<MemRef>, max: usize) -> Result<usize, TraceIoError> {
        buf.clear();
        buf.extend(self.inner.by_ref().take(max));
        Ok(buf.len())
    }
}

/// Serves an in-memory trace without copying it: the
/// [`BorrowedChunkSource`] view lends sub-slices of the caller's slice,
/// and the owned path ([`TraceSource::read_chunk`]) copies them out.
#[derive(Debug, Clone)]
pub struct SliceSource<'a> {
    rest: &'a [MemRef],
}

impl<'a> SliceSource<'a> {
    /// Wraps a slice of references.
    pub fn new(refs: &'a [MemRef]) -> Self {
        SliceSource { rest: refs }
    }

    fn take(&mut self, max: usize) -> &'a [MemRef] {
        let (chunk, rest) = self.rest.split_at(max.min(self.rest.len()));
        self.rest = rest;
        chunk
    }
}

impl TraceSource for SliceSource<'_> {
    fn read_chunk(&mut self, buf: &mut Vec<MemRef>, max: usize) -> Result<usize, TraceIoError> {
        buf.clear();
        buf.extend_from_slice(self.take(max));
        Ok(buf.len())
    }

    fn borrowed(&mut self) -> Option<&mut dyn BorrowedChunkSource> {
        Some(self)
    }
}

impl BorrowedChunkSource for SliceSource<'_> {
    fn next_chunk(&mut self, max: usize) -> Result<&[MemRef], TraceIoError> {
        Ok(self.take(max))
    }
}

pub(crate) fn fill_from_results<I>(
    iter: &mut I,
    buf: &mut Vec<MemRef>,
    max: usize,
) -> Result<usize, TraceIoError>
where
    I: Iterator<Item = Result<MemRef, TraceIoError>>,
{
    buf.clear();
    while buf.len() < max {
        match iter.next() {
            Some(Ok(r)) => buf.push(r),
            Some(Err(e)) => return Err(e),
            None => break,
        }
    }
    Ok(buf.len())
}

impl<R: Read> TraceSource for BinaryReader<R> {
    fn read_chunk(&mut self, buf: &mut Vec<MemRef>, max: usize) -> Result<usize, TraceIoError> {
        fill_from_results(self, buf, max)
    }
}

impl<R: BufRead> TraceSource for TextReader<R> {
    fn read_chunk(&mut self, buf: &mut Vec<MemRef>, max: usize) -> Result<usize, TraceIoError> {
        fill_from_results(self, buf, max)
    }
}

impl<R: Read> TraceSource for CompressedReader<R> {
    fn read_chunk(&mut self, buf: &mut Vec<MemRef>, max: usize) -> Result<usize, TraceIoError> {
        fill_from_results(self, buf, max)
    }
}

/// Drops spin-lock test reads from an underlying source (the §5.2
/// ablation, the streaming counterpart of
/// [`crate::filter::without_lock_tests`]).
///
/// A chunk from the inner source may shrink after filtering; this adapter
/// keeps pulling until it has at least one reference (or the inner source
/// is exhausted), so `Ok(0)` still means end-of-stream.
#[derive(Debug)]
pub struct WithoutLockTests<S> {
    inner: S,
    scratch: Vec<MemRef>,
}

impl<S: TraceSource> WithoutLockTests<S> {
    /// Wraps a source, filtering out lock-test references.
    pub fn new(inner: S) -> Self {
        WithoutLockTests {
            inner,
            scratch: Vec::new(),
        }
    }
}

impl<S: TraceSource> TraceSource for WithoutLockTests<S> {
    fn read_chunk(&mut self, buf: &mut Vec<MemRef>, max: usize) -> Result<usize, TraceIoError> {
        buf.clear();
        while buf.is_empty() {
            if self.inner.read_chunk(&mut self.scratch, max)? == 0 {
                return Ok(0);
            }
            buf.extend(self.scratch.iter().filter(|r| !r.flags.is_lock()));
        }
        Ok(buf.len())
    }
}

/// Caps an underlying source at `limit` references (the streaming
/// counterpart of `Iterator::take`), so a fixed reference budget can be
/// replayed out of an arbitrarily large corpus file. It lends chunks
/// exactly when its inner source does, so a capped memory-mapped file
/// still decodes inline with no copies.
#[derive(Debug)]
pub struct TakeSource<S> {
    inner: S,
    remaining: u64,
}

impl<S: TraceSource> TakeSource<S> {
    /// Wraps `inner`, yielding at most `limit` references.
    pub fn new(inner: S, limit: u64) -> Self {
        TakeSource {
            inner,
            remaining: limit,
        }
    }

    /// `max` clamped to the references left under the cap.
    fn clamp(&self, max: usize) -> usize {
        max.min(usize::try_from(self.remaining).unwrap_or(usize::MAX))
    }
}

impl<S: TraceSource> TraceSource for TakeSource<S> {
    fn read_chunk(&mut self, buf: &mut Vec<MemRef>, max: usize) -> Result<usize, TraceIoError> {
        let max = self.clamp(max);
        if max == 0 {
            buf.clear();
            return Ok(0);
        }
        let n = self.inner.read_chunk(buf, max)?;
        self.remaining -= n as u64;
        Ok(n)
    }

    fn borrowed(&mut self) -> Option<&mut dyn BorrowedChunkSource> {
        self.inner.borrowed()?;
        Some(self)
    }
}

impl<S: TraceSource> BorrowedChunkSource for TakeSource<S> {
    fn next_chunk(&mut self, max: usize) -> Result<&[MemRef], TraceIoError> {
        let max = self.clamp(max);
        let Some(inner) = self.inner.borrowed().filter(|_| max > 0) else {
            return Ok(&[]);
        };
        let chunk = inner.next_chunk(max)?;
        self.remaining -= chunk.len() as u64;
        Ok(chunk)
    }
}

/// Drains a source into one `Vec` (testing / small-trace convenience; for
/// large traces prefer chunked consumption).
///
/// # Errors
///
/// Propagates the first decode error from the source.
pub fn collect_all<S: TraceSource>(mut source: S) -> Result<Vec<MemRef>, TraceIoError> {
    let mut out = Vec::new();
    let mut buf = Vec::new();
    while source.read_chunk(&mut buf, 8192)? > 0 {
        out.extend_from_slice(&buf);
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::io::{read_binary, read_text, write_binary, write_text};
    use crate::synth::PaperTrace;
    use crate::types::{Addr, CpuId, ProcessId, RefFlags};

    fn sample() -> Vec<MemRef> {
        let c0 = CpuId::new(0);
        let p0 = ProcessId::new(0);
        vec![
            MemRef::instr(c0, p0, Addr::new(0x1000)),
            MemRef::read(c0, p0, Addr::new(0x40)).with_flags(RefFlags::empty().with_lock()),
            MemRef::write(c0, p0, Addr::new(0x80)),
        ]
    }

    #[test]
    fn iter_source_chunks_exactly() {
        let refs: Vec<MemRef> = PaperTrace::Pops.workload().take(1000).collect();
        let mut source = IterSource::new(refs.iter().copied());
        let mut buf = Vec::new();
        let mut seen = Vec::new();
        loop {
            let n = source.read_chunk(&mut buf, 64).unwrap();
            if n == 0 {
                break;
            }
            assert!(n <= 64);
            seen.extend_from_slice(&buf);
        }
        assert_eq!(seen, refs);
        // Exhausted sources stay exhausted.
        assert_eq!(source.read_chunk(&mut buf, 64).unwrap(), 0);
    }

    #[test]
    fn owned_buffer_handshake_recycles_one_allocation() {
        let refs: Vec<MemRef> = PaperTrace::Pops.workload().take(300).collect();
        let mut source = IterSource::new(refs.iter().copied());
        let mut buf = Vec::with_capacity(64);
        let ptr = buf.as_ptr();
        let mut seen = Vec::new();
        loop {
            buf = source.read_chunk_owned(buf, 64).unwrap();
            if buf.is_empty() {
                break;
            }
            seen.extend_from_slice(&buf);
        }
        assert_eq!(seen, refs);
        // The chunk never outgrew the buffer, so the handshake reused the
        // caller's allocation for the entire stream.
        assert_eq!(buf.as_ptr(), ptr, "the same allocation is recycled");
    }

    #[test]
    fn owned_buffer_handshake_surfaces_errors() {
        let encoded = b"NOPE0000".to_vec();
        let mut source = read_binary(&encoded[..]);
        assert!(matches!(
            source.read_chunk_owned(Vec::new(), 16),
            Err(TraceIoError::BadMagic(_))
        ));
    }

    #[test]
    fn binary_reader_is_a_source() {
        let refs = sample();
        let mut encoded = Vec::new();
        write_binary(&mut encoded, refs.iter().copied()).unwrap();
        let collected = collect_all(read_binary(&encoded[..])).unwrap();
        assert_eq!(collected, refs);
    }

    #[test]
    fn text_reader_is_a_source() {
        let refs = sample();
        let mut encoded = Vec::new();
        write_text(&mut encoded, refs.iter().copied()).unwrap();
        let collected = collect_all(read_text(&encoded[..])).unwrap();
        assert_eq!(collected, refs);
    }

    #[test]
    fn compressed_reader_is_a_source() {
        let refs: Vec<MemRef> = PaperTrace::Pops.workload().take(500).collect();
        let mut encoded = Vec::new();
        crate::compress::write_compressed(&mut encoded, refs.iter().copied()).unwrap();
        let collected = collect_all(crate::compress::read_compressed(&encoded[..])).unwrap();
        assert_eq!(collected, refs);
    }

    #[test]
    fn source_errors_surface() {
        let encoded = b"NOPE0000".to_vec();
        let mut source = read_binary(&encoded[..]);
        let mut buf = Vec::new();
        assert!(matches!(
            source.read_chunk(&mut buf, 16),
            Err(TraceIoError::BadMagic(_))
        ));
        // Fused after the error.
        assert_eq!(source.read_chunk(&mut buf, 16).unwrap(), 0);
    }

    #[test]
    fn lock_filter_source_matches_filter_adapter() {
        let refs: Vec<MemRef> = PaperTrace::Pops.workload().take(5000).collect();
        let expected: Vec<MemRef> =
            crate::filter::without_lock_tests(refs.iter().copied()).collect();
        let filtered =
            collect_all(WithoutLockTests::new(IterSource::new(refs.iter().copied()))).unwrap();
        assert_eq!(filtered, expected);
        assert!(filtered.len() < refs.len(), "POPS contains lock tests");
    }

    #[test]
    fn lock_filter_skips_all_lock_chunks() {
        let c0 = CpuId::new(0);
        let p0 = ProcessId::new(0);
        let lock = MemRef::read(c0, p0, Addr::new(0)).with_flags(RefFlags::empty().with_lock());
        let plain = MemRef::read(c0, p0, Addr::new(16));
        // 3 chunks of size 1: lock, lock, plain — the adapter must not
        // report exhaustion at an all-lock chunk.
        let refs = vec![lock, lock, plain];
        let mut source = WithoutLockTests::new(IterSource::new(refs.into_iter()));
        let mut buf = Vec::new();
        assert_eq!(source.read_chunk(&mut buf, 1).unwrap(), 1);
        assert_eq!(buf, vec![plain]);
        assert_eq!(source.read_chunk(&mut buf, 1).unwrap(), 0);
    }

    #[test]
    fn take_source_caps_the_stream() {
        let refs: Vec<MemRef> = PaperTrace::Pops.workload().take(500).collect();
        let capped =
            collect_all(TakeSource::new(IterSource::new(refs.iter().copied()), 123)).unwrap();
        assert_eq!(capped, &refs[..123]);
        // A limit past the end of the stream is a no-op.
        let uncapped = collect_all(TakeSource::new(
            IterSource::new(refs.iter().copied()),
            10_000,
        ))
        .unwrap();
        assert_eq!(uncapped, refs);
        // A zero limit is empty without touching the inner source.
        let empty = collect_all(TakeSource::new(IterSource::new(refs.iter().copied()), 0)).unwrap();
        assert!(empty.is_empty());
    }

    #[test]
    fn take_source_lends_exactly_when_its_inner_source_does() {
        let refs: Vec<MemRef> = PaperTrace::Pops.workload().take(500).collect();
        let mut owned = TakeSource::new(IterSource::new(refs.iter().copied()), 123);
        assert!(owned.borrowed().is_none());
        let mut lent = TakeSource::new(SliceSource::new(&refs), 123);
        let view = lent.borrowed().expect("a capped slice still lends");
        let mut seen = Vec::new();
        loop {
            let chunk = view.next_chunk(50).unwrap();
            if chunk.is_empty() {
                break;
            }
            assert!(chunk.len() <= 50);
            seen.extend_from_slice(chunk);
        }
        assert_eq!(seen, &refs[..123]);
    }

    #[test]
    fn borrowed_defaults_to_none_and_forwards() {
        fn through_generic<S: TraceSource>(mut source: S) -> bool {
            source.borrowed().is_none()
        }
        let mut source = IterSource::new(std::iter::empty());
        assert!(source.borrowed().is_none());
        assert!(through_generic(&mut source));
        let mut boxed: Box<dyn TraceSource> = Box::new(IterSource::new(std::iter::empty()));
        assert!(boxed.borrowed().is_none());
    }

    #[test]
    fn mut_ref_and_box_are_sources() {
        let refs = sample();
        let mut inner = IterSource::new(refs.iter().copied());
        let collected = collect_all(&mut inner).unwrap();
        assert_eq!(collected, refs);
        let boxed: Box<dyn TraceSource> = Box::new(IterSource::new(refs.clone().into_iter()));
        assert_eq!(collect_all(boxed).unwrap(), refs);
    }
}
