//! Trace file formats.
//!
//! The original evaluation consumed ATUM traces, a proprietary VAX microcode
//! format. As a stand-in this module defines two formats with identical
//! information content:
//!
//! * **Binary `DTR1`** — a fixed 16-byte little-endian record per reference
//!   behind an 8-byte header; compact and fast, the default for generated
//!   workloads.
//! * **Text** — one whitespace-separated record per line
//!   (`<cpu> <pid> <i|r|w> <hex addr> [l][s]`), convenient for hand-written
//!   fixtures and debugging.
//!
//! Both round-trip exactly: `read(write(refs)) == refs`.

use std::fmt;
use std::io::{self, BufRead, Read, Write};

use crate::types::{AccessKind, Addr, CpuId, MemRef, ProcessId, RefFlags};

/// Magic bytes opening a binary trace stream.
pub const BINARY_MAGIC: [u8; 4] = *b"DTR1";

/// Size in bytes of one binary record.
pub const BINARY_RECORD_LEN: usize = 16;

/// Errors produced while decoding a trace stream.
#[derive(Debug)]
pub enum TraceIoError {
    /// Underlying I/O failure.
    Io(io::Error),
    /// The stream did not begin with [`BINARY_MAGIC`].
    BadMagic([u8; 4]),
    /// A record contained an unknown access-kind byte.
    BadAccessKind(u8),
    /// The stream ended in the middle of a record.
    TruncatedRecord,
    /// A text line could not be parsed.
    BadTextRecord {
        /// 1-based line number.
        line: usize,
        /// Description of the problem.
        reason: String,
    },
    /// A corpus checksum footer did not match the payload.
    BadChecksum {
        /// Checksum recorded in the footer.
        expected: u64,
        /// Checksum computed over the payload.
        actual: u64,
    },
    /// A corpus record-count footer did not match the decoded stream.
    CountMismatch {
        /// Record count recorded in the footer.
        expected: u64,
        /// Records actually decoded.
        actual: u64,
    },
}

impl fmt::Display for TraceIoError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TraceIoError::Io(e) => write!(f, "trace i/o error: {e}"),
            TraceIoError::BadMagic(m) => {
                write!(f, "bad trace magic {m:?}, expected {BINARY_MAGIC:?}")
            }
            TraceIoError::BadAccessKind(b) => write!(f, "unknown access kind byte {b:#x}"),
            TraceIoError::TruncatedRecord => write!(f, "truncated trace record"),
            TraceIoError::BadTextRecord { line, reason } => {
                write!(f, "bad text trace record on line {line}: {reason}")
            }
            TraceIoError::BadChecksum { expected, actual } => {
                write!(
                    f,
                    "corpus checksum mismatch: footer {expected:#018x}, payload {actual:#018x}"
                )
            }
            TraceIoError::CountMismatch { expected, actual } => {
                write!(
                    f,
                    "corpus record count mismatch: footer says {expected}, decoded {actual}"
                )
            }
        }
    }
}

impl std::error::Error for TraceIoError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            // Displayed above, so only its own source is chained.
            TraceIoError::Io(e) => e.source(),
            _ => None,
        }
    }
}

impl From<io::Error> for TraceIoError {
    fn from(e: io::Error) -> Self {
        TraceIoError::Io(e)
    }
}

/// Writes the binary header and all references to `w`.
///
/// # Errors
///
/// Returns any error reported by the underlying writer.
///
/// # Examples
///
/// ```
/// # use std::error::Error;
/// # fn main() -> Result<(), Box<dyn Error>> {
/// use dirsim_trace::io::{write_binary, read_binary};
/// use dirsim_trace::{MemRef, CpuId, ProcessId, Addr};
///
/// let refs = vec![MemRef::read(CpuId::new(0), ProcessId::new(1), Addr::new(0x40))];
/// let mut buf = Vec::new();
/// write_binary(&mut buf, refs.iter().copied())?;
/// let back: Vec<_> = read_binary(&buf[..]).collect::<Result<_, _>>()?;
/// assert_eq!(back, refs);
/// # Ok(())
/// # }
/// ```
pub fn write_binary<W, I>(w: &mut W, refs: I) -> Result<u64, TraceIoError>
where
    W: Write,
    I: IntoIterator<Item = MemRef>,
{
    w.write_all(&crate::codec::header_bytes())?;
    let mut count = 0u64;
    for r in refs {
        let mut rec = [0u8; BINARY_RECORD_LEN];
        crate::codec::encode_record(&r, &mut rec);
        w.write_all(&rec)?;
        count += 1;
    }
    Ok(count)
}

/// Streaming reader over a binary trace.
///
/// Produced by [`read_binary`]; yields `Result<MemRef, TraceIoError>` so
/// decode errors surface at the offending record.
#[derive(Debug)]
pub struct BinaryReader<R> {
    inner: R,
    checked_header: bool,
    failed: bool,
}

/// Opens a binary trace stream for reading.
///
/// The header is validated lazily on the first call to `next`.
pub fn read_binary<R: Read>(reader: R) -> BinaryReader<R> {
    BinaryReader {
        inner: reader,
        checked_header: false,
        failed: false,
    }
}

impl<R: Read> BinaryReader<R> {
    fn check_header(&mut self) -> Result<(), TraceIoError> {
        let mut header = [0u8; crate::codec::HEADER_LEN];
        self.inner.read_exact(&mut header)?;
        crate::codec::check_header(&header)
    }

    fn read_record(&mut self) -> Option<Result<MemRef, TraceIoError>> {
        let mut rec = [0u8; BINARY_RECORD_LEN];
        let mut filled = 0usize;
        while filled < BINARY_RECORD_LEN {
            match self.inner.read(&mut rec[filled..]) {
                Ok(0) if filled == 0 => return None,
                Ok(0) => return Some(Err(TraceIoError::TruncatedRecord)),
                Ok(n) => filled += n,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(e) => return Some(Err(e.into())),
            }
        }
        Some(crate::codec::decode_record(&rec))
    }
}

impl<R: Read> Iterator for BinaryReader<R> {
    type Item = Result<MemRef, TraceIoError>;

    fn next(&mut self) -> Option<Self::Item> {
        if self.failed {
            return None;
        }
        if !self.checked_header {
            self.checked_header = true;
            if let Err(e) = self.check_header() {
                self.failed = true;
                return Some(Err(e));
            }
        }
        match self.read_record() {
            Some(Err(e)) => {
                self.failed = true;
                Some(Err(e))
            }
            other => other,
        }
    }
}

/// Writes references as text, one per line.
///
/// Format: `<cpu> <pid> <i|r|w> <hex addr> [flags]` where flags is a string
/// containing `l` (lock) and/or `s` (system).
///
/// # Errors
///
/// Returns any error reported by the underlying writer.
pub fn write_text<W, I>(w: &mut W, refs: I) -> Result<u64, TraceIoError>
where
    W: Write,
    I: IntoIterator<Item = MemRef>,
{
    let mut count = 0u64;
    for r in refs {
        let mut flags = String::new();
        if r.flags.is_lock() {
            flags.push('l');
        }
        if r.flags.is_os() {
            flags.push('s');
        }
        if flags.is_empty() {
            writeln!(
                w,
                "{} {} {} {:x}",
                r.cpu.index(),
                r.pid.index(),
                r.kind.code(),
                r.addr.raw()
            )?;
        } else {
            writeln!(
                w,
                "{} {} {} {:x} {}",
                r.cpu.index(),
                r.pid.index(),
                r.kind.code(),
                r.addr.raw(),
                flags
            )?;
        }
        count += 1;
    }
    Ok(count)
}

fn parse_text_line(line: &str, lineno: usize) -> Result<Option<MemRef>, TraceIoError> {
    let bad = |reason: &str| TraceIoError::BadTextRecord {
        line: lineno,
        reason: reason.to_string(),
    };
    let trimmed = line.trim();
    if trimmed.is_empty() || trimmed.starts_with('#') {
        return Ok(None);
    }
    let mut parts = trimmed.split_whitespace();
    let cpu: u16 = parts
        .next()
        .ok_or_else(|| bad("missing cpu"))?
        .parse()
        .map_err(|_| bad("cpu is not a number"))?;
    let pid: u32 = parts
        .next()
        .ok_or_else(|| bad("missing pid"))?
        .parse()
        .map_err(|_| bad("pid is not a number"))?;
    let kind_tok = parts.next().ok_or_else(|| bad("missing access kind"))?;
    let kind = kind_tok
        .chars()
        .next()
        .and_then(AccessKind::from_code)
        .filter(|_| kind_tok.len() == 1)
        .ok_or_else(|| bad("access kind must be one of i, r, w"))?;
    let addr_tok = parts.next().ok_or_else(|| bad("missing address"))?;
    let addr = u64::from_str_radix(addr_tok.trim_start_matches("0x"), 16)
        .map_err(|_| bad("address is not hexadecimal"))?;
    let mut flags = RefFlags::empty();
    if let Some(flag_tok) = parts.next() {
        for c in flag_tok.chars() {
            flags = match c {
                'l' => flags.with_lock(),
                's' => flags.with_os(),
                _ => return Err(bad("unknown flag character")),
            };
        }
    }
    if parts.next().is_some() {
        return Err(bad("trailing tokens"));
    }
    Ok(Some(MemRef {
        cpu: CpuId::new(cpu),
        pid: ProcessId::new(pid),
        addr: Addr::new(addr),
        kind,
        flags,
    }))
}

/// Streaming reader over a text trace.
#[derive(Debug)]
pub struct TextReader<R> {
    lines: io::Lines<R>,
    lineno: usize,
    failed: bool,
}

/// Opens a text trace stream for reading.
///
/// Blank lines and lines starting with `#` are skipped.
pub fn read_text<R: BufRead>(reader: R) -> TextReader<R> {
    TextReader {
        lines: reader.lines(),
        lineno: 0,
        failed: false,
    }
}

impl<R: BufRead> Iterator for TextReader<R> {
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
                Some(Ok(line)) => match parse_text_line(&line, self.lineno) {
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::types::{Addr, CpuId, ProcessId};

    #[test]
    fn no_error_displays_its_source() {
        // The I/O error is displayed inside the trace error, so only its
        // own cause is chained.
        let cause = io::Error::new(io::ErrorKind::InvalidData, TraceIoError::BadAccessKind(9));
        let e = TraceIoError::Io(cause);
        let mut layer: &dyn std::error::Error = &e;
        while let Some(source) = layer.source() {
            let (outer, inner) = (layer.to_string(), source.to_string());
            assert!(!outer.contains(&inner), "`{outer}` repeats `{inner}`");
            layer = source;
        }
    }

    fn sample() -> Vec<MemRef> {
        vec![
            MemRef::instr(CpuId::new(0), ProcessId::new(0), Addr::new(0x1000)),
            MemRef::read(CpuId::new(1), ProcessId::new(2), Addr::new(0x2000))
                .with_flags(RefFlags::empty().with_lock()),
            MemRef::write(CpuId::new(3), ProcessId::new(4), Addr::new(0xdead_beef))
                .with_flags(RefFlags::empty().with_os()),
        ]
    }

    #[test]
    fn binary_roundtrip() {
        let refs = sample();
        let mut buf = Vec::new();
        let n = write_binary(&mut buf, refs.iter().copied()).unwrap();
        assert_eq!(n, 3);
        assert_eq!(buf.len(), 8 + 3 * BINARY_RECORD_LEN);
        let back: Vec<_> = read_binary(&buf[..]).collect::<Result<_, _>>().unwrap();
        assert_eq!(back, refs);
    }

    #[test]
    fn binary_bad_magic() {
        let buf = b"NOPE0000".to_vec();
        let mut rd = read_binary(&buf[..]);
        match rd.next() {
            Some(Err(TraceIoError::BadMagic(m))) => assert_eq!(&m, b"NOPE"),
            other => panic!("expected BadMagic, got {other:?}"),
        }
        assert!(rd.next().is_none(), "reader fuses after error");
    }

    #[test]
    fn binary_truncated_record() {
        let mut buf = Vec::new();
        write_binary(&mut buf, sample().into_iter().take(1)).unwrap();
        buf.truncate(buf.len() - 3);
        let results: Vec<_> = read_binary(&buf[..]).collect();
        assert!(matches!(
            results.last(),
            Some(Err(TraceIoError::TruncatedRecord))
        ));
    }

    #[test]
    fn binary_bad_kind_byte() {
        let mut buf = Vec::new();
        write_binary(&mut buf, sample().into_iter().take(1)).unwrap();
        buf[8 + 2] = 99; // corrupt the kind byte of the first record
        let results: Vec<_> = read_binary(&buf[..]).collect();
        assert!(matches!(
            results.last(),
            Some(Err(TraceIoError::BadAccessKind(99)))
        ));
    }

    #[test]
    fn text_roundtrip() {
        let refs = sample();
        let mut buf = Vec::new();
        write_text(&mut buf, refs.iter().copied()).unwrap();
        let back: Vec<_> = read_text(&buf[..]).collect::<Result<_, _>>().unwrap();
        assert_eq!(back, refs);
    }

    #[test]
    fn text_skips_comments_and_blanks() {
        let src = "# header comment\n\n0 0 r 40\n";
        let back: Vec<_> = read_text(src.as_bytes()).collect::<Result<_, _>>().unwrap();
        assert_eq!(back.len(), 1);
        assert_eq!(back[0].addr, Addr::new(0x40));
    }

    #[test]
    fn text_accepts_0x_prefix() {
        let src = "0 0 w 0xff\n";
        let back: Vec<_> = read_text(src.as_bytes()).collect::<Result<_, _>>().unwrap();
        assert_eq!(back[0].addr, Addr::new(0xff));
        assert_eq!(back[0].kind, AccessKind::Write);
    }

    #[test]
    fn text_rejects_garbage() {
        for bad in [
            "x 0 r 40",
            "0 y r 40",
            "0 0 q 40",
            "0 0 r zz",
            "0 0 r",
            "0 0 r 40 q",
            "0 0 r 40 l extra",
        ] {
            let results: Vec<_> = read_text(bad.as_bytes()).collect();
            assert!(
                matches!(
                    results.last(),
                    Some(Err(TraceIoError::BadTextRecord { .. }))
                ),
                "input {bad:?} should fail"
            );
        }
    }

    #[test]
    fn text_error_reports_line_number() {
        let src = "0 0 r 40\nbogus line\n";
        let results: Vec<_> = read_text(src.as_bytes()).collect();
        match results.last() {
            Some(Err(TraceIoError::BadTextRecord { line, .. })) => assert_eq!(*line, 2),
            other => panic!("expected BadTextRecord, got {other:?}"),
        }
    }

    #[test]
    fn error_display_is_informative() {
        let e = TraceIoError::BadAccessKind(7);
        assert!(e.to_string().contains("0x7"));
        let e = TraceIoError::BadTextRecord {
            line: 3,
            reason: "x".into(),
        };
        assert!(e.to_string().contains("line 3"));
    }
}
