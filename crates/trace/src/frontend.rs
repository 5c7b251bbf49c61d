//! Pluggable trace-format frontends and `open_trace` path sniffing.
//!
//! Every consumer of trace files (`simulate`, `trace_tool`,
//! `dirsim-sweep`) used to carry its own extension-based dispatch; this
//! module centralises the decision behind a [`TraceFrontend`] registry in
//! the style large-scale cluster simulators use for their per-provider
//! trace readers (one adapter per foreign schema, all producing the same
//! internal record stream). A frontend *sniffs* a file — magic bytes
//! first, extension as a fallback for headerless text formats — and
//! *opens* it as a boxed [`TraceSource`], so adding a new external format
//! touches exactly one place.
//!
//! Built-in frontends:
//!
//! | name | claims | source |
//! |------|--------|--------|
//! | `corpus` | `DTR3` magic, `.dtrz` | [`crate::corpus::CorpusReader`] |
//! | `compressed` | `DTR2` magic, `.dtr2` | [`crate::compress::CompressedReader`] |
//! | `binary` | `DTR1` magic, `.dtr`/`.dtr1`/`.bin` | [`crate::mmap::MmapTraceSource`] (zero-copy) |
//! | `text` | `.txt`, `.trace` | [`crate::io::TextReader`] |
//! | `csv` | `.csv` | [`CsvReader`] (foreign `timestamp,cpu,op,addr[,pid]` rows) |
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

/// A format adapter: recognises files of one trace format and opens them
/// as reference streams.
///
/// Contract: `sniff` must be cheap and side-effect free (it sees the
/// path and the file's first bytes, nothing more); `open` must yield a
/// stream whose records are in trace order; decode failures surface as
/// typed [`TraceIoError`]s from the returned source, not panics.
pub trait TraceFrontend {
    /// Short identifier (`binary`, `csv`, ...).
    fn name(&self) -> &'static str;

    /// One-line human description.
    fn description(&self) -> &'static str;

    /// Whether this frontend claims the file. `prefix` holds the file's
    /// first bytes (up to 8; shorter for tiny files).
    fn sniff(&self, path: &Path, prefix: &[u8]) -> bool;

    /// Opens the file as a reference stream.
    ///
    /// # Errors
    ///
    /// Returns a [`TraceIoError`] when the file cannot be opened or its
    /// header is invalid.
    fn open(&self, path: &Path) -> Result<Box<dyn TraceSource + Send>, TraceIoError>;
}

fn ext_of(path: &Path) -> Option<String> {
    path.extension()
        .and_then(|e| e.to_str())
        .map(|e| e.to_ascii_lowercase())
}

fn has_magic(prefix: &[u8], magic: &[u8; 4]) -> bool {
    prefix.len() >= 4 && &prefix[0..4] == magic
}

#[derive(Debug)]
struct CorpusFrontend;

impl TraceFrontend for CorpusFrontend {
    fn name(&self) -> &'static str {
        "corpus"
    }

    fn description(&self) -> &'static str {
        "packed DTR3 corpus (compressed, checksum footer)"
    }

    fn sniff(&self, path: &Path, prefix: &[u8]) -> bool {
        has_magic(prefix, &CORPUS_MAGIC) || ext_of(path).as_deref() == Some("dtrz")
    }

    fn open(&self, path: &Path) -> Result<Box<dyn TraceSource + Send>, TraceIoError> {
        Ok(Box::new(CorpusReader::open(path)?))
    }
}

#[derive(Debug)]
struct CompressedFrontend;

impl TraceFrontend for CompressedFrontend {
    fn name(&self) -> &'static str {
        "compressed"
    }

    fn description(&self) -> &'static str {
        "delta-compressed DTR2 stream"
    }

    fn sniff(&self, path: &Path, prefix: &[u8]) -> bool {
        has_magic(prefix, &COMPRESSED_MAGIC) || ext_of(path).as_deref() == Some("dtr2")
    }

    fn open(&self, path: &Path) -> Result<Box<dyn TraceSource + Send>, TraceIoError> {
        let file = File::open(path)?;
        Ok(Box::new(read_compressed(BufReader::new(file))))
    }
}

#[derive(Debug)]
struct BinaryFrontend;

impl TraceFrontend for BinaryFrontend {
    fn name(&self) -> &'static str {
        "binary"
    }

    fn description(&self) -> &'static str {
        "fixed-record DTR1 trace (memory-mapped, zero-copy)"
    }

    fn sniff(&self, path: &Path, prefix: &[u8]) -> bool {
        has_magic(prefix, &BINARY_MAGIC)
            || matches!(ext_of(path).as_deref(), Some("dtr" | "dtr1" | "bin"))
    }

    fn open(&self, path: &Path) -> Result<Box<dyn TraceSource + Send>, TraceIoError> {
        Ok(Box::new(MmapTraceSource::open(path)?))
    }
}

#[derive(Debug)]
struct TextFrontend;

impl TraceFrontend for TextFrontend {
    fn name(&self) -> &'static str {
        "text"
    }

    fn description(&self) -> &'static str {
        "whitespace-separated text records"
    }

    fn sniff(&self, path: &Path, _prefix: &[u8]) -> bool {
        matches!(ext_of(path).as_deref(), Some("txt" | "trace"))
    }

    fn open(&self, path: &Path) -> Result<Box<dyn TraceSource + Send>, TraceIoError> {
        let file = File::open(path)?;
        Ok(Box::new(read_text(BufReader::new(file))))
    }
}

#[derive(Debug)]
struct CsvFrontend;

impl TraceFrontend for CsvFrontend {
    fn name(&self) -> &'static str {
        "csv"
    }

    fn description(&self) -> &'static str {
        "foreign timestamp,cpu,op,addr[,pid] rows"
    }

    fn sniff(&self, path: &Path, _prefix: &[u8]) -> bool {
        ext_of(path).as_deref() == Some("csv")
    }

    fn open(&self, path: &Path) -> Result<Box<dyn TraceSource + Send>, TraceIoError> {
        let file = File::open(path)?;
        Ok(Box::new(read_csv(BufReader::new(file))))
    }
}

/// The ordered set of known frontends.
///
/// Order matters only for overlap, and magic-bearing formats are checked
/// before extension-only ones, so a `DTR1` file named `foo.txt` is still
/// read as binary.
pub struct FrontendRegistry {
    frontends: Vec<Box<dyn TraceFrontend + Send + Sync>>,
}

impl std::fmt::Debug for FrontendRegistry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FrontendRegistry")
            .field("frontends", &self.names())
            .finish()
    }
}

impl Default for FrontendRegistry {
    fn default() -> Self {
        Self::builtin()
    }
}

impl FrontendRegistry {
    /// A registry holding every built-in frontend.
    pub fn builtin() -> Self {
        FrontendRegistry {
            frontends: vec![
                Box::new(CorpusFrontend),
                Box::new(CompressedFrontend),
                Box::new(BinaryFrontend),
                Box::new(TextFrontend),
                Box::new(CsvFrontend),
            ],
        }
    }

    /// Names of the registered frontends, in sniffing order.
    pub fn names(&self) -> Vec<&'static str> {
        self.frontends.iter().map(|f| f.name()).collect()
    }

    /// The frontend claiming `path`, if any.
    ///
    /// # Errors
    ///
    /// Returns [`TraceIoError::Io`] if the file cannot be opened for
    /// sniffing.
    pub fn find(&self, path: &Path) -> Result<Option<&dyn TraceFrontend>, TraceIoError> {
        let prefix = read_prefix(path)?;
        Ok(self
            .frontends
            .iter()
            .find(|f| f.sniff(path, &prefix))
            .map(|f| f.as_ref() as &dyn TraceFrontend))
    }

    /// Sniffs `path` and opens it with the claiming frontend.
    ///
    /// When no frontend claims the file, it is handed to the binary
    /// frontend — the historical default — so unrecognised files fail
    /// with the usual [`TraceIoError::BadMagic`] rather than a bespoke
    /// error.
    ///
    /// # Errors
    ///
    /// Any open/validation error from the chosen frontend.
    pub fn open(
        &self,
        path: impl AsRef<Path>,
    ) -> Result<Box<dyn TraceSource + Send>, TraceIoError> {
        let path = path.as_ref();
        match self.find(path)? {
            Some(frontend) => frontend.open(path),
            None => BinaryFrontend.open(path),
        }
    }
}

fn read_prefix(path: &Path) -> Result<Vec<u8>, TraceIoError> {
    let mut file = File::open(path)?;
    let mut prefix = [0u8; 8];
    let mut filled = 0usize;
    while filled < prefix.len() {
        match file.read(&mut prefix[filled..]) {
            Ok(0) => break,
            Ok(n) => filled += n,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(e) => return Err(e.into()),
        }
    }
    Ok(prefix[..filled].to_vec())
}

/// Whether `path` names a trace file: an existing file a built-in
/// frontend claims. This is the one rule by which `simulate --scenario`
/// and `dirsim-sweep` specs tell a trace path from a scenario; `.scn`
/// spec files and bundled scenario names are not trace files.
pub fn is_trace_file(path: impl AsRef<Path>) -> bool {
    let path = path.as_ref();
    path.is_file() && matches!(FrontendRegistry::builtin().find(path), Ok(Some(_)))
}

/// Opens a trace file of any registered format (the one-call entry point
/// the CLIs use).
///
/// # Errors
///
/// See [`FrontendRegistry::open`].
pub fn open_trace(path: impl AsRef<Path>) -> Result<Box<dyn TraceSource + Send>, TraceIoError> {
    FrontendRegistry::builtin().open(path)
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
        let registry = FrontendRegistry::builtin();
        let frontend = registry.find(&path).unwrap().unwrap();
        assert_eq!(frontend.name(), "binary");
        let got = collect_all(registry.open(&path).unwrap()).unwrap();
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

        for (name, ext, bytes) in [
            ("binary", "dtr", &bin),
            ("compressed", "dtr2", &packed),
            ("corpus", "dtrz", &corpus),
            ("text", "txt", &text),
            ("csv", "csv", &csv),
        ] {
            let path = temp_path(&format!("fmt.{ext}"));
            std::fs::write(&path, bytes).unwrap();
            assert!(is_trace_file(&path), "format {name}");
            let registry = FrontendRegistry::builtin();
            let frontend = registry.find(&path).unwrap().unwrap();
            assert_eq!(frontend.name(), name, "extension {ext}");
            let got = collect_all(registry.open(&path).unwrap()).unwrap();
            assert_eq!(got, refs, "format {name}");
            std::fs::remove_file(&path).unwrap();
        }
    }

    #[test]
    fn unknown_files_fail_with_bad_magic() {
        let path = temp_path("mystery.bits");
        std::fs::write(&path, b"GARBAGE!").unwrap();
        let registry = FrontendRegistry::builtin();
        assert!(registry.find(&path).unwrap().is_none());
        assert!(!is_trace_file(&path), "unclaimed files are not traces");
        assert!(!is_trace_file(std::env::temp_dir()), "directories are not");
        let err = match registry.open(&path) {
            Err(e) => e,
            Ok(_) => panic!("garbage file must not open"),
        };
        assert!(matches!(err, TraceIoError::BadMagic(_)), "{err}");
        std::fs::remove_file(&path).unwrap();
    }
}
