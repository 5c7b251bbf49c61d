//! Compressed binary trace format (`DTR2`).
//!
//! Address traces are highly regular: CPUs round-robin, processes repeat,
//! and consecutive addresses from one CPU are near each other. `DTR2`
//! exploits that with per-record flag bytes, varint (LEB128) fields, and
//! zig-zag-encoded address deltas tracked *per CPU* — typically 3–5×
//! smaller than the fixed 16-byte [`crate::io`] records while
//! round-tripping exactly.
//!
//! Record layout: one flags byte (`kind:2 | lock:1 | os:1 | same_cpu:1 |
//! same_pid:1`), then `cpu: u16` unless `same_cpu`, `pid: varint` unless
//! `same_pid`, then a `zigzag-varint` address delta against that CPU's
//! previous address *of the same access kind* — instruction streams are
//! sequential and data streams are clustered, so splitting the prediction
//! per kind keeps most deltas to one or two bytes.
//!
//! `DTR2` is read-only: a standalone `.dtr2` file still opens, but the
//! one writer of this payload is [`crate::corpus::write_corpus`], which
//! wraps it in the checksummed `DTR3` corpus format.

use std::collections::HashMap;
use std::io::{Read, Write};

use crate::io::TraceIoError;
use crate::types::{AccessKind, Addr, CpuId, MemRef, ProcessId, RefFlags};

/// Magic bytes opening a compressed trace stream.
pub const COMPRESSED_MAGIC: [u8; 4] = *b"DTR2";

const KIND_MASK: u8 = 0b0000_0011;
const FLAG_LOCK: u8 = 0b0000_0100;
const FLAG_OS: u8 = 0b0000_1000;
const FLAG_SAME_CPU: u8 = 0b0001_0000;
const FLAG_SAME_PID: u8 = 0b0010_0000;

fn write_varint<W: Write>(w: &mut W, mut value: u64) -> std::io::Result<()> {
    loop {
        let byte = (value & 0x7f) as u8;
        value >>= 7;
        if value == 0 {
            return w.write_all(&[byte]);
        }
        w.write_all(&[byte | 0x80])?;
    }
}

fn read_varint<R: Read>(r: &mut R) -> Result<u64, TraceIoError> {
    let mut value = 0u64;
    let mut shift = 0u32;
    loop {
        let mut byte = [0u8; 1];
        r.read_exact(&mut byte)
            .map_err(|_| TraceIoError::TruncatedRecord)?;
        if shift >= 64 {
            return Err(TraceIoError::TruncatedRecord);
        }
        value |= u64::from(byte[0] & 0x7f) << shift;
        if byte[0] & 0x80 == 0 {
            return Ok(value);
        }
        shift += 7;
    }
}

fn zigzag(value: i64) -> u64 {
    ((value << 1) ^ (value >> 63)) as u64
}

fn unzigzag(value: u64) -> i64 {
    ((value >> 1) as i64) ^ -((value & 1) as i64)
}

/// Writes the compressed header and all references (test fixtures
/// only: outside this crate, `DTR2` bytes come from
/// [`crate::corpus::write_corpus`]'s payload).
#[cfg(test)]
pub(crate) fn write_compressed<W, I>(w: &mut W, refs: I) -> Result<u64, TraceIoError>
where
    W: Write,
    I: IntoIterator<Item = MemRef>,
{
    let mut enc = Encoder::new(w)?;
    for r in refs {
        enc.push(&r)?;
    }
    let (_, count) = enc.finish()?;
    Ok(count)
}

/// Incremental `DTR2` encoder: header on construction, one record per
/// [`push`](Self::push). Its one writer is
/// [`crate::corpus::write_corpus`], which wraps the stream in a `DTR3`
/// header and checksum footer; `DTR2` itself is read-only.
#[derive(Debug)]
pub(crate) struct Encoder<W> {
    w: W,
    count: u64,
    last_cpu: Option<u16>,
    last_pid: Option<u32>,
    last_addr: HashMap<(u16, u8), u64>,
}

impl<W: Write> Encoder<W> {
    /// Writes the `DTR2` header and returns the encoder.
    ///
    /// # Errors
    ///
    /// Returns any error from the underlying writer.
    pub fn new(mut w: W) -> Result<Self, TraceIoError> {
        w.write_all(&COMPRESSED_MAGIC)?;
        w.write_all(&[1, 0, 0, 0])?;
        Ok(Encoder {
            w,
            count: 0,
            last_cpu: None,
            last_pid: None,
            last_addr: HashMap::new(),
        })
    }

    /// Appends one record.
    ///
    /// # Errors
    ///
    /// Returns any error from the underlying writer.
    pub fn push(&mut self, r: &MemRef) -> Result<(), TraceIoError> {
        let cpu = r.cpu.index() as u16;
        let pid = r.pid.index() as u32;
        let mut flags = match r.kind {
            AccessKind::InstrFetch => 0u8,
            AccessKind::Read => 1,
            AccessKind::Write => 2,
        };
        if r.flags.is_lock() {
            flags |= FLAG_LOCK;
        }
        if r.flags.is_os() {
            flags |= FLAG_OS;
        }
        if self.last_cpu == Some(cpu) {
            flags |= FLAG_SAME_CPU;
        }
        if self.last_pid == Some(pid) {
            flags |= FLAG_SAME_PID;
        }
        self.w.write_all(&[flags])?;
        if self.last_cpu != Some(cpu) {
            self.w.write_all(&cpu.to_le_bytes())?;
        }
        if self.last_pid != Some(pid) {
            write_varint(&mut self.w, u64::from(pid))?;
        }
        let kind_tag = flags & KIND_MASK;
        let prev = self.last_addr.get(&(cpu, kind_tag)).copied().unwrap_or(0);
        let delta = r.addr.raw().wrapping_sub(prev) as i64;
        write_varint(&mut self.w, zigzag(delta))?;
        self.last_addr.insert((cpu, kind_tag), r.addr.raw());
        self.last_cpu = Some(cpu);
        self.last_pid = Some(pid);
        self.count += 1;
        Ok(())
    }

    /// Flushes and returns the underlying writer and the record count.
    ///
    /// # Errors
    ///
    /// Returns any error from flushing the underlying writer.
    pub fn finish(mut self) -> Result<(W, u64), TraceIoError> {
        self.w.flush()?;
        Ok((self.w, self.count))
    }
}

/// Streaming reader over a compressed trace.
#[derive(Debug)]
pub struct CompressedReader<R> {
    inner: R,
    checked_header: bool,
    failed: bool,
    last_cpu: Option<u16>,
    last_pid: Option<u32>,
    last_addr: HashMap<(u16, u8), u64>,
}

/// Opens a compressed trace stream for reading.
pub fn read_compressed<R: Read>(reader: R) -> CompressedReader<R> {
    CompressedReader {
        inner: reader,
        checked_header: false,
        failed: false,
        last_cpu: None,
        last_pid: None,
        last_addr: HashMap::new(),
    }
}

impl<R: Read> CompressedReader<R> {
    /// Shared view of the underlying reader (used by the corpus reader
    /// to consult checksum state after the stream ends).
    pub fn get_ref(&self) -> &R {
        &self.inner
    }

    fn check_header(&mut self) -> Result<(), TraceIoError> {
        let mut header = [0u8; 8];
        self.inner.read_exact(&mut header)?;
        let magic: [u8; 4] = header[0..4].try_into().expect("slice length is 4");
        if magic != COMPRESSED_MAGIC {
            return Err(TraceIoError::BadMagic(magic));
        }
        Ok(())
    }

    fn read_record(&mut self) -> Option<Result<MemRef, TraceIoError>> {
        let mut flags = [0u8; 1];
        loop {
            match self.inner.read(&mut flags) {
                Ok(0) => return None,
                Ok(_) => break,
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                Err(e) => return Some(Err(e.into())),
            }
        }
        let flags = flags[0];
        let kind = match flags & KIND_MASK {
            0 => AccessKind::InstrFetch,
            1 => AccessKind::Read,
            2 => AccessKind::Write,
            other => return Some(Err(TraceIoError::BadAccessKind(other))),
        };
        let cpu = if flags & FLAG_SAME_CPU != 0 {
            match self.last_cpu {
                Some(c) => c,
                None => return Some(Err(TraceIoError::TruncatedRecord)),
            }
        } else {
            let mut bytes = [0u8; 2];
            if self.inner.read_exact(&mut bytes).is_err() {
                return Some(Err(TraceIoError::TruncatedRecord));
            }
            u16::from_le_bytes(bytes)
        };
        let pid = if flags & FLAG_SAME_PID != 0 {
            match self.last_pid {
                Some(p) => p,
                None => return Some(Err(TraceIoError::TruncatedRecord)),
            }
        } else {
            match read_varint(&mut self.inner) {
                Ok(v) if v <= u64::from(u32::MAX) => v as u32,
                Ok(_) => return Some(Err(TraceIoError::TruncatedRecord)),
                Err(e) => return Some(Err(e)),
            }
        };
        let delta = match read_varint(&mut self.inner) {
            Ok(v) => unzigzag(v),
            Err(e) => return Some(Err(e)),
        };
        let kind_tag = flags & KIND_MASK;
        let prev = self.last_addr.get(&(cpu, kind_tag)).copied().unwrap_or(0);
        let addr = prev.wrapping_add(delta as u64);
        self.last_addr.insert((cpu, kind_tag), addr);
        self.last_cpu = Some(cpu);
        self.last_pid = Some(pid);
        let mut ref_flags = RefFlags::empty();
        if flags & FLAG_LOCK != 0 {
            ref_flags = ref_flags.with_lock();
        }
        if flags & FLAG_OS != 0 {
            ref_flags = ref_flags.with_os();
        }
        Some(Ok(MemRef {
            cpu: CpuId::new(cpu),
            pid: ProcessId::new(pid),
            addr: Addr::new(addr),
            kind,
            flags: ref_flags,
        }))
    }
}

impl<R: Read> Iterator for CompressedReader<R> {
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::io::write_binary;
    use crate::synth::PaperTrace;

    fn sample() -> Vec<MemRef> {
        vec![
            MemRef::instr(CpuId::new(0), ProcessId::new(0), Addr::new(0x1000)),
            MemRef::read(CpuId::new(1), ProcessId::new(2), Addr::new(0x2000))
                .with_flags(RefFlags::empty().with_lock()),
            MemRef::write(CpuId::new(0), ProcessId::new(0), Addr::new(0x1010))
                .with_flags(RefFlags::empty().with_os()),
            MemRef::read(CpuId::new(1), ProcessId::new(2), Addr::new(0x1ff0)),
        ]
    }

    #[test]
    fn round_trips_exactly() {
        let refs = sample();
        let mut buf = Vec::new();
        let n = write_compressed(&mut buf, refs.iter().copied()).unwrap();
        assert_eq!(n, 4);
        let back: Vec<_> = read_compressed(&buf[..]).collect::<Result<_, _>>().unwrap();
        assert_eq!(back, refs);
    }

    #[test]
    fn round_trips_a_real_workload() {
        let refs: Vec<MemRef> = PaperTrace::Pops.workload().take(30_000).collect();
        let mut buf = Vec::new();
        write_compressed(&mut buf, refs.iter().copied()).unwrap();
        let back: Vec<_> = read_compressed(&buf[..]).collect::<Result<_, _>>().unwrap();
        assert_eq!(back, refs);
    }

    #[test]
    fn compresses_well() {
        let refs: Vec<MemRef> = PaperTrace::Thor.workload().take(30_000).collect();
        let mut raw = Vec::new();
        write_binary(&mut raw, refs.iter().copied()).unwrap();
        let mut packed = Vec::new();
        write_compressed(&mut packed, refs.iter().copied()).unwrap();
        let ratio = raw.len() as f64 / packed.len() as f64;
        assert!(ratio > 2.0, "compression ratio only {ratio:.2}");
    }

    #[test]
    fn bad_magic_detected() {
        let buf = b"DTR1....".to_vec();
        let mut rd = read_compressed(&buf[..]);
        assert!(matches!(rd.next(), Some(Err(TraceIoError::BadMagic(_)))));
        assert!(rd.next().is_none());
    }

    #[test]
    fn truncation_detected() {
        let mut buf = Vec::new();
        write_compressed(&mut buf, sample()).unwrap();
        buf.truncate(buf.len() - 1);
        let results: Vec<_> = read_compressed(&buf[..]).collect();
        assert!(results.last().unwrap().is_err());
    }

    #[test]
    fn zigzag_round_trips() {
        for v in [0i64, 1, -1, 2, -2, i64::MAX, i64::MIN, 123456, -98765] {
            assert_eq!(unzigzag(zigzag(v)), v);
        }
    }

    #[test]
    fn varint_round_trips() {
        for v in [0u64, 1, 127, 128, 300, u64::from(u32::MAX), u64::MAX] {
            let mut buf = Vec::new();
            write_varint(&mut buf, v).unwrap();
            let got = read_varint(&mut &buf[..]).unwrap();
            assert_eq!(got, v);
        }
    }

    #[test]
    fn incremental_encoder_matches_batch() {
        let refs: Vec<MemRef> = PaperTrace::Pops.workload().take(2000).collect();
        let mut batch = Vec::new();
        write_compressed(&mut batch, refs.iter().copied()).unwrap();
        let mut enc = Encoder::new(Vec::new()).unwrap();
        for r in &refs {
            enc.push(r).unwrap();
        }
        let (streamed, count) = enc.finish().unwrap();
        assert_eq!(count, refs.len() as u64);
        assert_eq!(streamed, batch, "byte-identical encodings");
    }

    #[test]
    fn empty_stream_is_valid() {
        let mut buf = Vec::new();
        write_compressed(&mut buf, std::iter::empty()).unwrap();
        let back: Vec<_> = read_compressed(&buf[..])
            .collect::<Result<Vec<_>, _>>()
            .unwrap();
        assert!(back.is_empty());
    }
}
