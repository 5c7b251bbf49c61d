//! Memory-mapped `DTR1` trace source.
//!
//! [`crate::io::BinaryReader`] pulls file bytes through `std::io` buffers
//! and hands out one record at a time; at corpus scale (10⁸ references,
//! ~1.6 GB) the copy into the read buffer and the per-chunk buffer
//! traffic start to dominate decode. [`MmapTraceSource`] maps the file
//! instead and decodes records straight out of the map into one reusable
//! chunk buffer: no read syscalls on the hot path, no per-record heap
//! traffic, and the kernel's page cache is shared across simultaneous
//! readers of the same corpus.
//!
//! The map is advised `MADV_SEQUENTIAL` at open, and as decoding crosses
//! each 1 MiB window the next window is advised `MADV_WILLNEED`, so page
//! faults overlap with decode instead of stalling it.
//!
//! File validation happens at open: a missing or foreign magic is
//! [`TraceIoError::BadMagic`], a file shorter than its header is
//! [`TraceIoError::TruncatedRecord`], and a byte length that is not a
//! whole number of records yields every complete record followed by a
//! single [`TraceIoError::TruncatedRecord`] — exactly the buffered
//! reader's behaviour, which the equivalence property tests pin.
//!
//! On non-Unix targets (no `mmap`) the source falls back to reading the
//! whole file into a heap buffer; the decode path and error behaviour
//! are identical.

use std::fs::File;
use std::io;
use std::path::Path;

use crate::codec::{self, HEADER_LEN, RECORD_LEN};
use crate::io::TraceIoError;
use crate::source::{BorrowedChunkSource, TraceSource};
use crate::types::MemRef;

/// Bytes of lookahead advised `MADV_WILLNEED` as decode crosses each
/// window boundary.
const PREFETCH_WINDOW: usize = 1 << 20;

#[cfg(unix)]
mod sys {
    //! The slice of the mmap syscall surface this module needs, declared
    //! directly: the workspace is dependency-free, so there is no `libc`
    //! crate to lean on. Constants are the Linux values; they match every
    //! tier-1 Unix target for these three calls.

    use core::ffi::{c_int, c_void};

    pub const PROT_READ: c_int = 1;
    pub const MAP_PRIVATE: c_int = 2;
    pub const MADV_SEQUENTIAL: c_int = 2;
    pub const MADV_WILLNEED: c_int = 3;

    pub const MAP_FAILED: *mut c_void = usize::MAX as *mut c_void;

    extern "C" {
        pub fn mmap(
            addr: *mut c_void,
            len: usize,
            prot: c_int,
            flags: c_int,
            fd: c_int,
            offset: i64,
        ) -> *mut c_void;
        pub fn munmap(addr: *mut c_void, len: usize) -> c_int;
        pub fn madvise(addr: *mut c_void, len: usize, advice: c_int) -> c_int;
    }
}

/// A read-only view of a whole file: an `mmap` region on Unix, a heap
/// buffer elsewhere (and for empty files, which `mmap` rejects).
#[derive(Debug)]
enum Backing {
    #[cfg(unix)]
    Mapped {
        ptr: *mut core::ffi::c_void,
        len: usize,
    },
    Heap(Vec<u8>),
}

/// An owned read-only mapping of a file's bytes.
#[derive(Debug)]
pub struct Mapping {
    backing: Backing,
}

// The region is owned exclusively by this value and only ever read, so
// moving it across threads is sound (the pipelined engine requires its
// sources to be `Send`).
unsafe impl Send for Mapping {}

impl Mapping {
    /// Maps `file` (falling back to a heap read where `mmap` is
    /// unavailable or meaningless, e.g. empty files).
    ///
    /// # Errors
    ///
    /// Returns any error from the underlying syscalls or file reads.
    pub fn of_file(file: &mut File) -> io::Result<Self> {
        let len = file.metadata()?.len();
        let len = usize::try_from(len)
            .map_err(|_| io::Error::new(io::ErrorKind::InvalidData, "file too large to map"))?;
        Self::map_impl(file, len)
    }

    /// Opens and maps the file at `path`.
    ///
    /// # Errors
    ///
    /// Returns any error from opening or mapping the file.
    pub fn open(path: impl AsRef<Path>) -> io::Result<Self> {
        let mut file = File::open(path)?;
        Self::of_file(&mut file)
    }

    #[cfg(unix)]
    fn map_impl(file: &mut File, len: usize) -> io::Result<Self> {
        use std::os::unix::io::AsRawFd;
        if len == 0 {
            // mmap(len = 0) is EINVAL; an empty view needs no map.
            return Ok(Mapping {
                backing: Backing::Heap(Vec::new()),
            });
        }
        let ptr = unsafe {
            sys::mmap(
                std::ptr::null_mut(),
                len,
                sys::PROT_READ,
                sys::MAP_PRIVATE,
                file.as_raw_fd(),
                0,
            )
        };
        if ptr == sys::MAP_FAILED {
            return Err(io::Error::last_os_error());
        }
        // Advisory only: a failure here costs prefetch, not correctness.
        unsafe { sys::madvise(ptr, len, sys::MADV_SEQUENTIAL) };
        Ok(Mapping {
            backing: Backing::Mapped { ptr, len },
        })
    }

    #[cfg(not(unix))]
    fn map_impl(file: &mut File, len: usize) -> io::Result<Self> {
        use std::io::Read;
        let mut bytes = Vec::with_capacity(len);
        file.read_to_end(&mut bytes)?;
        Ok(Mapping {
            backing: Backing::Heap(bytes),
        })
    }

    /// The mapped bytes.
    pub fn bytes(&self) -> &[u8] {
        match &self.backing {
            #[cfg(unix)]
            Backing::Mapped { ptr, len } => unsafe {
                std::slice::from_raw_parts(*ptr as *const u8, *len)
            },
            Backing::Heap(v) => v,
        }
    }

    /// Hints that `[offset, offset + len)` will be read soon. Clamped to
    /// the mapping; a no-op on heap backings.
    pub fn advise_willneed(&self, offset: usize, len: usize) {
        match &self.backing {
            #[cfg(unix)]
            Backing::Mapped { ptr, len: map_len } => {
                if offset >= *map_len {
                    return;
                }
                let len = len.min(*map_len - offset);
                let start = (*ptr as usize + offset) as *mut core::ffi::c_void;
                unsafe { sys::madvise(start, len, sys::MADV_WILLNEED) };
            }
            Backing::Heap(_) => {}
        }
    }
}

impl Drop for Mapping {
    fn drop(&mut self) {
        match &self.backing {
            #[cfg(unix)]
            Backing::Mapped { ptr, len } => {
                unsafe { sys::munmap(*ptr, *len) };
            }
            Backing::Heap(_) => {}
        }
    }
}

/// A [`TraceSource`] (and [`BorrowedChunkSource`]) decoding `DTR1`
/// records straight from a file mapping.
///
/// # Examples
///
/// ```no_run
/// use dirsim_trace::mmap::MmapTraceSource;
/// use dirsim_trace::source::collect_all;
///
/// let source = MmapTraceSource::open("corpus.dtr")?;
/// let refs = collect_all(source)?;
/// # Ok::<(), dirsim_trace::TraceIoError>(())
/// ```
#[derive(Debug)]
pub struct MmapTraceSource {
    map: Mapping,
    /// Byte offset of the next undecoded record.
    pos: usize,
    /// One past the last byte of the last *complete* record.
    end: usize,
    /// Whether bytes trail past `end` (a torn final record).
    torn_tail: bool,
    /// Sticky end-of-stream / post-error flag.
    done: bool,
    /// Reused decode buffer backing [`BorrowedChunkSource`] chunks.
    chunk: Vec<MemRef>,
    /// High-water mark of `MADV_WILLNEED` advice.
    prefetched_to: usize,
}

impl MmapTraceSource {
    /// Opens and validates the file at `path`.
    ///
    /// # Errors
    ///
    /// * [`TraceIoError::Io`] if the file cannot be opened or mapped.
    /// * [`TraceIoError::TruncatedRecord`] if it is shorter than the
    ///   8-byte header.
    /// * [`TraceIoError::BadMagic`] if the magic is not `DTR1`.
    ///
    /// A torn final record is *not* an open error: the stream yields all
    /// complete records first and then fails, like the buffered reader.
    pub fn open(path: impl AsRef<Path>) -> Result<Self, TraceIoError> {
        let map = Mapping::open(path)?;
        Self::from_mapping(map)
    }

    /// Wraps an existing mapping (the whole file, header included).
    ///
    /// # Errors
    ///
    /// See [`open`](Self::open).
    pub fn from_mapping(map: Mapping) -> Result<Self, TraceIoError> {
        let bytes = map.bytes();
        if bytes.len() < HEADER_LEN {
            return Err(TraceIoError::TruncatedRecord);
        }
        let header: [u8; HEADER_LEN] = bytes[0..HEADER_LEN].try_into().expect("len checked");
        codec::check_header(&header)?;
        let payload = bytes.len() - HEADER_LEN;
        let end = HEADER_LEN + (payload / RECORD_LEN) * RECORD_LEN;
        let torn_tail = payload % RECORD_LEN != 0;
        Ok(MmapTraceSource {
            map,
            pos: HEADER_LEN,
            end,
            torn_tail,
            done: false,
            chunk: Vec::new(),
            prefetched_to: HEADER_LEN,
        })
    }

    /// Number of complete records remaining ahead of the cursor (the
    /// whole stream when called right after opening).
    pub fn record_count(&self) -> u64 {
        (self.end.saturating_sub(self.pos) / RECORD_LEN) as u64
    }

    /// Decodes up to `max` records into `out` (which is cleared first).
    fn decode_chunk(
        out: &mut Vec<MemRef>,
        bytes: &[u8],
        pos: usize,
        max: usize,
    ) -> Result<usize, TraceIoError> {
        out.clear();
        let take = max.min(bytes[pos..].len() / RECORD_LEN);
        out.reserve(take);
        for i in 0..take {
            let at = pos + i * RECORD_LEN;
            let rec: &[u8; RECORD_LEN] =
                bytes[at..at + RECORD_LEN].try_into().expect("len checked");
            out.push(codec::decode_record(rec)?);
        }
        Ok(take)
    }

    /// Shared body of both read paths: advises the next prefetch window,
    /// decodes into `out`, and updates the cursor / error state.
    fn fill(&mut self, max: usize) -> Result<(), TraceIoError> {
        if self.done {
            self.chunk.clear();
            return Ok(());
        }
        if self.pos >= self.end {
            self.chunk.clear();
            self.done = true;
            if self.torn_tail {
                return Err(TraceIoError::TruncatedRecord);
            }
            return Ok(());
        }
        if self.pos + PREFETCH_WINDOW > self.prefetched_to {
            self.map
                .advise_willneed(self.prefetched_to, PREFETCH_WINDOW);
            self.prefetched_to = (self.prefetched_to + PREFETCH_WINDOW).min(self.end);
        }
        let mut chunk = std::mem::take(&mut self.chunk);
        let bytes = &self.map.bytes()[..self.end];
        let res = Self::decode_chunk(&mut chunk, bytes, self.pos, max);
        self.chunk = chunk;
        match res {
            Ok(n) => {
                self.pos += n * RECORD_LEN;
                Ok(())
            }
            Err(e) => {
                self.done = true;
                self.chunk.clear();
                Err(e)
            }
        }
    }
}

impl TraceSource for MmapTraceSource {
    fn read_chunk(&mut self, buf: &mut Vec<MemRef>, max: usize) -> Result<usize, TraceIoError> {
        self.fill(max)?;
        buf.clear();
        buf.extend_from_slice(&self.chunk);
        Ok(buf.len())
    }

    fn borrowed(&mut self) -> Option<&mut dyn BorrowedChunkSource> {
        Some(self)
    }
}

impl BorrowedChunkSource for MmapTraceSource {
    fn next_chunk(&mut self, max: usize) -> Result<&[MemRef], TraceIoError> {
        self.fill(max)?;
        Ok(&self.chunk)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::io::write_binary;
    use crate::source::collect_all;
    use crate::synth::PaperTrace;

    fn write_temp(bytes: &[u8]) -> std::path::PathBuf {
        use std::sync::atomic::{AtomicU64, Ordering};
        static NEXT: AtomicU64 = AtomicU64::new(0);
        let path = std::env::temp_dir().join(format!(
            "dirsim-mmap-test-{}-{}",
            std::process::id(),
            NEXT.fetch_add(1, Ordering::Relaxed)
        ));
        std::fs::write(&path, bytes).unwrap();
        path
    }

    #[test]
    fn decodes_a_round_tripped_trace() {
        let refs: Vec<MemRef> = PaperTrace::Pops.workload().take(5000).collect();
        let mut buf = Vec::new();
        write_binary(&mut buf, refs.iter().copied()).unwrap();
        let path = write_temp(&buf);
        let source = MmapTraceSource::open(&path).unwrap();
        assert_eq!(source.record_count(), refs.len() as u64);
        assert_eq!(collect_all(source).unwrap(), refs);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn borrowed_chunks_match_owned_chunks() {
        let refs: Vec<MemRef> = PaperTrace::Thor.workload().take(1000).collect();
        let mut buf = Vec::new();
        write_binary(&mut buf, refs.iter().copied()).unwrap();
        let path = write_temp(&buf);
        let mut source = MmapTraceSource::open(&path).unwrap();
        let mut seen = Vec::new();
        loop {
            let chunk = source.next_chunk(77).unwrap();
            if chunk.is_empty() {
                break;
            }
            seen.extend_from_slice(chunk);
        }
        assert_eq!(seen, refs);
        // End of stream is sticky on the borrowed path too.
        assert!(source.next_chunk(77).unwrap().is_empty());
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn bad_magic_fails_at_open() {
        let path = write_temp(b"NOPE0000");
        assert!(matches!(
            MmapTraceSource::open(&path),
            Err(TraceIoError::BadMagic(m)) if &m == b"NOPE"
        ));
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn short_header_fails_at_open() {
        let path = write_temp(b"DTR");
        assert!(matches!(
            MmapTraceSource::open(&path),
            Err(TraceIoError::TruncatedRecord)
        ));
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn torn_tail_yields_full_records_then_truncated_error() {
        let refs: Vec<MemRef> = PaperTrace::Pops.workload().take(10).collect();
        let mut buf = Vec::new();
        write_binary(&mut buf, refs.iter().copied()).unwrap();
        buf.truncate(buf.len() - 5); // tear the final record
        let path = write_temp(&buf);
        let mut source = MmapTraceSource::open(&path).unwrap();
        let mut seen = Vec::new();
        let mut chunk = Vec::new();
        let err = loop {
            match source.read_chunk(&mut chunk, 3) {
                Ok(0) => panic!("stream ended without reporting the torn tail"),
                Ok(_) => seen.extend_from_slice(&chunk),
                Err(e) => break e,
            }
        };
        assert!(matches!(err, TraceIoError::TruncatedRecord));
        assert_eq!(seen, &refs[..9], "every complete record, no partials");
        // Fused after the error.
        assert_eq!(source.read_chunk(&mut chunk, 3).unwrap(), 0);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn header_only_file_is_an_empty_stream() {
        let path = write_temp(&crate::codec::header_bytes());
        let source = MmapTraceSource::open(&path).unwrap();
        assert_eq!(source.record_count(), 0);
        assert!(collect_all(source).unwrap().is_empty());
        std::fs::remove_file(&path).unwrap();
    }
}
