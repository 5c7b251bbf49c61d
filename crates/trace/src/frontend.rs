//! Trace formats and `open_trace` path sniffing.
//!
//! Every consumer of trace files (`simulate`, `trace_tool`,
//! `dirsim-sweep`) opens them through [`open_trace`], which asks
//! [`TraceFormat::of`] which of the five formats a file is — magic bytes
//! for the three binary formats, extension for the headerless text
//! formats — and opens it as a boxed [`TraceSource`].
//!
//! | format | claims | source |
//! |--------|--------|--------|
//! | [`Corpus`](TraceFormat::Corpus) | `DTR3` magic, `.dtrz` | [`crate::corpus::CorpusReader`] |
//! | [`Compressed`](TraceFormat::Compressed) | `DTR2` magic, `.dtr2` (read-only) | [`crate::compress::CompressedReader`] |
//! | [`Binary`](TraceFormat::Binary) | `DTR1` magic, `.dtr`/`.dtr1`/`.bin` | [`crate::mmap::MmapTraceSource`] (zero-copy) |
//! | [`Text`](TraceFormat::Text) | `.txt`, `.trace` | [`crate::io::TextReader`] |
//! | [`Csv`](TraceFormat::Csv) | `.csv` | [`CsvReader`] (foreign `timestamp,cpu,op,addr[,pid]` rows) |
//!
//! ```no_run
//! use dirsim_trace::frontend::open_trace;
//! use dirsim_trace::source::collect_all;
//!
//! let source = open_trace("workload.csv")?;
//! let refs = collect_all(source)?;
//! # Ok::<(), dirsim_trace::TraceIoError>(())
//! ```

use std::fs::File;
use std::io::{self, BufRead, BufReader, Read};
use std::path::Path;

use crate::compress::{read_compressed, COMPRESSED_MAGIC};
use crate::corpus::{CorpusReader, CORPUS_MAGIC};
use crate::io::{read_text, TraceIoError, BINARY_MAGIC};
use crate::mmap::MmapTraceSource;
use crate::source::{fill_from_results, TraceSource};
use crate::types::{AccessKind, Addr, CpuId, MemRef, ProcessId, RefFlags};

/// A trace file format [`open_trace`] reads.
///
/// Variants are listed in sniffing order. Order matters only for
/// overlap, and the magic-bearing formats come before the
/// extension-only ones, so a `DTR1` file named `foo.txt` is still read
/// as binary.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TraceFormat {
    /// Packed `DTR3` corpus: compressed, with a checksum footer.
    Corpus,
    /// Delta-compressed `DTR2` stream. Read-only: `DTR3` is the same
    /// payload plus a checksum, and the one format written.
    Compressed,
    /// Fixed-record `DTR1` trace, memory-mapped and decoded zero-copy.
    Binary,
    /// Whitespace-separated text records.
    Text,
    /// Foreign `timestamp,cpu,op,addr[,pid]` rows.
    Csv,
}

impl TraceFormat {
    /// Every format, in sniffing order.
    const ALL: [TraceFormat; 5] = [
        TraceFormat::Corpus,
        TraceFormat::Compressed,
        TraceFormat::Binary,
        TraceFormat::Text,
        TraceFormat::Csv,
    ];

    /// The magic bytes opening a file of this format, if it has any.
    fn magic(self) -> Option<&'static [u8; 4]> {
        match self {
            TraceFormat::Corpus => Some(&CORPUS_MAGIC),
            TraceFormat::Compressed => Some(&COMPRESSED_MAGIC),
            TraceFormat::Binary => Some(&BINARY_MAGIC),
            TraceFormat::Text | TraceFormat::Csv => None,
        }
    }

    /// The lower-case file extensions this format claims.
    fn extensions(self) -> &'static [&'static str] {
        match self {
            TraceFormat::Corpus => &["dtrz"],
            TraceFormat::Compressed => &["dtr2"],
            TraceFormat::Binary => &["dtr", "dtr1", "bin"],
            TraceFormat::Text => &["txt", "trace"],
            TraceFormat::Csv => &["csv"],
        }
    }

    /// The format `path`'s extension names, ignoring the file's
    /// contents (`trace_tool` picks its output format this way).
    pub fn from_extension(path: impl AsRef<Path>) -> Option<TraceFormat> {
        let ext = path.as_ref().extension()?.to_str()?.to_ascii_lowercase();
        Self::ALL
            .into_iter()
            .find(|f| f.extensions().contains(&ext.as_str()))
    }

    /// The format claiming the file at `path`: the first format, in
    /// sniffing order, whose magic opens the file or whose extension it
    /// carries. `Ok(None)` when no format claims it.
    ///
    /// # Errors
    ///
    /// Returns [`TraceIoError::Io`] if the file cannot be opened for
    /// sniffing.
    pub fn of(path: impl AsRef<Path>) -> Result<Option<TraceFormat>, TraceIoError> {
        let path = path.as_ref();
        let mut prefix = Vec::with_capacity(4);
        File::open(path)?.take(4).read_to_end(&mut prefix)?;
        let by_extension = Self::from_extension(path);
        Ok(Self::ALL
            .into_iter()
            .find(|&f| f.magic().is_some_and(|m| prefix.starts_with(m)) || by_extension == Some(f)))
    }

    /// Opens the file at `path` as a stream of this format.
    ///
    /// # Errors
    ///
    /// Returns a [`TraceIoError`] when the file cannot be opened or its
    /// header is invalid.
    pub fn open(self, path: impl AsRef<Path>) -> Result<Box<dyn TraceSource + Send>, TraceIoError> {
        let path = path.as_ref();
        let buffered = || File::open(path).map(BufReader::new);
        let source: Box<dyn TraceSource + Send> = match self {
            TraceFormat::Corpus => Box::new(CorpusReader::open(path)?),
            TraceFormat::Compressed => Box::new(read_compressed(buffered()?)),
            TraceFormat::Binary => Box::new(MmapTraceSource::open(path)?),
            TraceFormat::Text => Box::new(read_text(buffered()?)),
            TraceFormat::Csv => Box::new(read_csv(buffered()?)),
        };
        Ok(source)
    }
}

/// Whether `path` names a trace file: an existing file some
/// [`TraceFormat`] claims. This is the one rule by which `simulate
/// --scenario` and `dirsim-sweep` specs tell a trace path from a
/// scenario; `.scn` spec files and bundled scenario names are not trace
/// files.
pub fn is_trace_file(path: impl AsRef<Path>) -> bool {
    let path = path.as_ref();
    path.is_file() && matches!(TraceFormat::of(path), Ok(Some(_)))
}

/// Opens a trace file of any format (the one-call entry point the CLIs
/// use).
///
/// A file no format claims is opened as [`TraceFormat::Binary`], the
/// historical default, so it fails with the usual
/// [`TraceIoError::BadMagic`] rather than a bespoke error.
///
/// # Errors
///
/// Any open or validation error from the chosen format's reader.
pub fn open_trace(path: impl AsRef<Path>) -> Result<Box<dyn TraceSource + Send>, TraceIoError> {
    let path = path.as_ref();
    TraceFormat::of(path)?
        .unwrap_or(TraceFormat::Binary)
        .open(path)
}

/// Streaming reader over foreign CSV rows.
///
/// Schema: `timestamp,cpu,op,addr[,pid]` with an optional header row.
/// `timestamp` must be numeric and is used only for ordering (rows are
/// expected already time-sorted; the value itself is not retained).
/// `op` accepts `r`/`read`/`load`, `w`/`write`/`store`, `i`/`ifetch`
/// (case-insensitive). `addr` is hex with an optional `0x` prefix, or
/// decimal. `pid` defaults to the cpu column — foreign traces rarely
/// distinguish the two. The schema has no flag column, so lock/OS
/// annotations do not survive a CSV round trip.
#[derive(Debug)]
pub struct CsvReader<R> {
    lines: io::Lines<R>,
    lineno: usize,
    failed: bool,
}

/// Opens a CSV trace stream for reading.
pub fn read_csv<R: BufRead>(reader: R) -> CsvReader<R> {
    CsvReader {
        lines: reader.lines(),
        lineno: 0,
        failed: false,
    }
}

fn parse_csv_op(token: &str) -> Option<AccessKind> {
    match token.to_ascii_lowercase().as_str() {
        "r" | "read" | "load" => Some(AccessKind::Read),
        "w" | "write" | "store" => Some(AccessKind::Write),
        "i" | "ifetch" | "instr" => Some(AccessKind::InstrFetch),
        _ => None,
    }
}

fn parse_csv_addr(token: &str) -> Option<u64> {
    if let Some(hex) = token
        .strip_prefix("0x")
        .or_else(|| token.strip_prefix("0X"))
    {
        u64::from_str_radix(hex, 16).ok()
    } else {
        token
            .parse::<u64>()
            .ok()
            .or_else(|| u64::from_str_radix(token, 16).ok())
    }
}

fn parse_csv_line(line: &str, lineno: usize) -> Result<Option<MemRef>, TraceIoError> {
    let bad = |reason: &str| TraceIoError::BadTextRecord {
        line: lineno,
        reason: reason.to_string(),
    };
    let trimmed = line.trim();
    if trimmed.is_empty() || trimmed.starts_with('#') {
        return Ok(None);
    }
    let fields: Vec<&str> = trimmed.split(',').map(str::trim).collect();
    if fields.len() < 4 || fields.len() > 5 {
        return Err(bad("expected timestamp,cpu,op,addr[,pid]"));
    }
    if fields[0].parse::<f64>().is_err() {
        // A non-numeric timestamp on the first line is the header row.
        if lineno == 1 {
            return Ok(None);
        }
        return Err(bad("timestamp is not a number"));
    }
    let cpu: u16 = fields[1].parse().map_err(|_| bad("cpu is not a number"))?;
    let kind = parse_csv_op(fields[2]).ok_or_else(|| bad("op must be read/write/ifetch"))?;
    let addr = parse_csv_addr(fields[3]).ok_or_else(|| bad("address is not a number"))?;
    let pid: u32 = match fields.get(4) {
        Some(tok) => tok.parse().map_err(|_| bad("pid is not a number"))?,
        None => u32::from(cpu),
    };
    Ok(Some(MemRef {
        cpu: CpuId::new(cpu),
        pid: ProcessId::new(pid),
        addr: Addr::new(addr),
        kind,
        flags: RefFlags::empty(),
    }))
}

impl<R: BufRead> Iterator for CsvReader<R> {
    type Item = Result<MemRef, TraceIoError>;

    fn next(&mut self) -> Option<Self::Item> {
        if self.failed {
            return None;
        }
        loop {
            self.lineno += 1;
            match self.lines.next() {
                None => return None,
                Some(Err(e)) => {
                    self.failed = true;
                    return Some(Err(e.into()));
                }
                Some(Ok(line)) => match parse_csv_line(&line, self.lineno) {
                    Ok(None) => continue,
                    Ok(Some(r)) => return Some(Ok(r)),
                    Err(e) => {
                        self.failed = true;
                        return Some(Err(e));
                    }
                },
            }
        }
    }
}

impl<R: BufRead> TraceSource for CsvReader<R> {
    fn read_chunk(&mut self, buf: &mut Vec<MemRef>, max: usize) -> Result<usize, TraceIoError> {
        fill_from_results(self, buf, max)
    }
}

/// Writes references as CSV rows under a header, using the record index
/// as the timestamp. Lock/OS flags are not representable in the foreign
/// schema and are dropped.
///
/// # Errors
///
/// Returns any error from the underlying writer.
pub fn write_csv<W, I>(w: &mut W, refs: I) -> Result<u64, TraceIoError>
where
    W: std::io::Write,
    I: IntoIterator<Item = MemRef>,
{
    writeln!(w, "timestamp,cpu,op,addr,pid")?;
    let mut count = 0u64;
    for r in refs {
        writeln!(
            w,
            "{},{},{},0x{:x},{}",
            count,
            r.cpu.index(),
            r.kind.code(),
            r.addr.raw(),
            r.pid.index()
        )?;
        count += 1;
    }
    Ok(count)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::io::write_binary;
    use crate::source::collect_all;
    use crate::synth::PaperTrace;

    fn temp_path(name: &str) -> std::path::PathBuf {
        use std::sync::atomic::{AtomicU64, Ordering};
        static NEXT: AtomicU64 = AtomicU64::new(0);
        std::env::temp_dir().join(format!(
            "dirsim-frontend-{}-{}-{name}",
            std::process::id(),
            NEXT.fetch_add(1, Ordering::Relaxed)
        ))
    }

    #[test]
    fn csv_round_trips_flagless_refs() {
        let refs: Vec<MemRef> = PaperTrace::Pops
            .workload()
            .take(2000)
            .map(|r| r.with_flags(RefFlags::empty()))
            .collect();
        let mut buf = Vec::new();
        let n = write_csv(&mut buf, refs.iter().copied()).unwrap();
        assert_eq!(n, refs.len() as u64);
        let back: Vec<MemRef> = read_csv(&buf[..]).collect::<Result<_, _>>().unwrap();
        assert_eq!(back, refs);
    }

    #[test]
    fn csv_accepts_spelled_out_ops_and_decimal_addresses() {
        let src = "timestamp,cpu,op,addr\n0,1,READ,255\n1.5,2,store,0x10\n2,0,ifetch,20\n";
        let back: Vec<MemRef> = read_csv(src.as_bytes()).collect::<Result<_, _>>().unwrap();
        assert_eq!(back.len(), 3);
        assert_eq!(back[0].kind, AccessKind::Read);
        assert_eq!(back[0].addr, Addr::new(255));
        assert_eq!(back[0].pid, ProcessId::new(1), "pid defaults to cpu");
        assert_eq!(back[1].kind, AccessKind::Write);
        assert_eq!(back[1].addr, Addr::new(0x10));
        assert_eq!(back[2].kind, AccessKind::InstrFetch);
    }

    #[test]
    fn csv_rejects_garbage_with_line_numbers() {
        for bad in [
            "0,1,r\n",               // too few fields
            "0,1,r,10,2,9\n",        // too many fields
            "0,x,r,10\n",            // cpu
            "0,1,q,10\n",            // op
            "0,1,r,zz\n",            // addr... note zz is not hex
            "0,1,r,10,pid\n",        // pid
            "t,1,r,10\nt2,1,r,10\n", // non-numeric timestamp past line 1
        ] {
            let results: Vec<_> = read_csv(bad.as_bytes()).collect();
            assert!(
                matches!(
                    results.last(),
                    Some(Err(TraceIoError::BadTextRecord { .. }))
                ),
                "input {bad:?} should fail, got {results:?}"
            );
        }
    }

    #[test]
    fn registry_sniffs_magic_over_extension() {
        let refs: Vec<MemRef> = PaperTrace::Pops.workload().take(50).collect();
        let mut bin = Vec::new();
        write_binary(&mut bin, refs.iter().copied()).unwrap();
        // A DTR1 file with a lying .txt extension still opens as binary.
        let path = temp_path("lying.txt");
        std::fs::write(&path, &bin).unwrap();
        assert_eq!(TraceFormat::from_extension(&path), Some(TraceFormat::Text));
        assert_eq!(TraceFormat::of(&path).unwrap(), Some(TraceFormat::Binary));
        let got = collect_all(open_trace(&path).unwrap()).unwrap();
        assert_eq!(got, refs);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn registry_opens_every_builtin_format() {
        let refs: Vec<MemRef> = PaperTrace::Thor
            .workload()
            .take(300)
            .map(|r| r.with_flags(RefFlags::empty()))
            .collect();

        let mut bin = Vec::new();
        write_binary(&mut bin, refs.iter().copied()).unwrap();
        let mut packed = Vec::new();
        crate::compress::write_compressed(&mut packed, refs.iter().copied()).unwrap();
        let mut corpus = Vec::new();
        crate::corpus::write_corpus(
            &mut corpus,
            crate::source::IterSource::new(refs.iter().copied()),
        )
        .unwrap();
        let mut text = Vec::new();
        crate::io::write_text(&mut text, refs.iter().copied()).unwrap();
        let mut csv = Vec::new();
        write_csv(&mut csv, refs.iter().copied()).unwrap();

        for (format, ext, bytes) in [
            (TraceFormat::Binary, "dtr", &bin),
            (TraceFormat::Compressed, "dtr2", &packed),
            (TraceFormat::Corpus, "dtrz", &corpus),
            (TraceFormat::Text, "txt", &text),
            (TraceFormat::Csv, "csv", &csv),
        ] {
            let path = temp_path(&format!("fmt.{ext}"));
            std::fs::write(&path, bytes).unwrap();
            assert!(is_trace_file(&path), "format {format:?}");
            assert_eq!(TraceFormat::of(&path).unwrap(), Some(format), "{ext}");
            let got = collect_all(open_trace(&path).unwrap()).unwrap();
            assert_eq!(got, refs, "format {format:?}");
            std::fs::remove_file(&path).unwrap();
        }
    }

    #[test]
    fn unknown_files_fail_with_bad_magic() {
        let path = temp_path("mystery.bits");
        std::fs::write(&path, b"GARBAGE!").unwrap();
        assert_eq!(TraceFormat::of(&path).unwrap(), None);
        assert!(!is_trace_file(&path), "unclaimed files are not traces");
        assert!(!is_trace_file(std::env::temp_dir()), "directories are not");
        let err = match open_trace(&path) {
            Err(e) => e,
            Ok(_) => panic!("garbage file must not open"),
        };
        assert!(matches!(err, TraceIoError::BadMagic(_)), "{err}");
        std::fs::remove_file(&path).unwrap();
    }
}
