//! Trace characterisation in the style of the paper's Table 3.
//!
//! [`TraceStats`] accumulates the per-kind counts the paper reports for each
//! trace (total references, instructions, data reads, data writes, user vs.
//! system references) plus the lock-spin counts that drive the §5.2
//! experiment.

use std::collections::HashSet;
use std::fmt;

use crate::io::TraceIoError;
use crate::source::TraceSource;
use crate::types::{AccessKind, MemRef};

/// A set of small non-negative ids, built for the per-reference observe
/// path: ids below 64 land in one word (one or-instruction per insert),
/// ids below [`IdSet::BITMAP_LIMIT`] in a dense bitmap (no hashing),
/// anything larger spills to a `HashSet`. CPU and process ids are dense
/// small integers in every workload this crate generates, so the one
/// word holds them all at the paper's scale, and the spill set stays
/// empty in practice.
#[derive(Debug, Clone, Default)]
struct IdSet {
    /// Ids below 64.
    low: u64,
    /// Bitmap word `id / 64` for ids from 64 up; word 0 stays zero.
    bits: Vec<u64>,
    spill: HashSet<u32>,
}

impl IdSet {
    /// Bitmap coverage: 64 Ki ids = 8 KiB fully grown.
    const BITMAP_LIMIT: u32 = 1 << 16;

    #[inline]
    fn insert(&mut self, id: u32) {
        if id < 64 {
            self.low |= 1u64 << id;
        } else if id < Self::BITMAP_LIMIT {
            let word = (id >> 6) as usize;
            if self.bits.len() <= word {
                self.bits.resize(word + 1, 0);
            }
            self.bits[word] |= 1u64 << (id & 63);
        } else {
            self.spill.insert(id);
        }
    }

    /// The bitmap words, `low` first: word `k` holds ids `64k..64k + 64`.
    fn words(&self) -> impl Iterator<Item = u64> + '_ {
        std::iter::once(self.low).chain(self.bits.iter().skip(1).copied())
    }

    fn len(&self) -> usize {
        self.words().map(|w| w.count_ones() as usize).sum::<usize>() + self.spill.len()
    }

    fn max(&self) -> Option<u32> {
        // Every spill id exceeds every bitmap id, so a plain Option max
        // (None < Some) picks the right winner.
        let bitmap_max = self
            .words()
            .enumerate()
            .filter(|&(_, w)| w != 0)
            .last()
            .map(|(word, w)| word as u32 * 64 + 63 - w.leading_zeros());
        self.spill.iter().copied().max().max(bitmap_max)
    }

    fn iter(&self) -> impl Iterator<Item = u32> + '_ {
        self.words()
            .enumerate()
            .flat_map(|(word, w)| {
                (0..64u32)
                    .filter(move |b| w & (1u64 << b) != 0)
                    .map(move |b| word as u32 * 64 + b)
            })
            .chain(self.spill.iter().copied())
    }

    fn merge(&mut self, other: &IdSet) {
        self.low |= other.low;
        if self.bits.len() < other.bits.len() {
            self.bits.resize(other.bits.len(), 0);
        }
        for (a, b) in self.bits.iter_mut().zip(other.bits.iter()) {
            *a |= b;
        }
        self.spill.extend(other.spill.iter().copied());
    }
}

/// Set equality (the bitmap's trailing-zero words don't count), so two
/// [`TraceStats`] that saw the same identities compare equal no matter
/// how their bitmaps grew.
impl PartialEq for IdSet {
    fn eq(&self, other: &Self) -> bool {
        let mut a: Vec<u32> = self.iter().collect();
        let mut b: Vec<u32> = other.iter().collect();
        a.sort_unstable();
        b.sort_unstable();
        a == b
    }
}

impl Eq for IdSet {}

/// Running counters over a reference stream.
///
/// Every counter derives from one tally of references by kind, OS flag,
/// and — on a read only — lock flag (see [`TraceStats::observe`]). Two
/// accumulators are equal when their counters and identity sets are.
///
/// # Examples
///
/// ```
/// use dirsim_trace::{MemRef, CpuId, ProcessId, Addr, TraceStats};
/// let mut stats = TraceStats::new();
/// stats.observe(&MemRef::read(CpuId::new(0), ProcessId::new(0), Addr::new(0x10)));
/// stats.observe(&MemRef::write(CpuId::new(1), ProcessId::new(1), Addr::new(0x20)));
/// assert_eq!(stats.total(), 2);
/// assert_eq!(stats.data_reads(), 1);
/// assert_eq!(stats.data_writes(), 1);
/// ```
#[derive(Debug, Clone, Default)]
pub struct TraceStats {
    /// References by cell `kind << 2 | os << 1 | lock read`, with `kind`
    /// 0 for a fetch, 1 for a read and 2 for a write.
    tally: [u64; 12],
    cpus: IdSet,
    pids: IdSet,
}

/// Equality of the counters, not of the tally: two streams that split
/// their OS references differently across kinds have equal counters.
impl PartialEq for TraceStats {
    fn eq(&self, other: &Self) -> bool {
        self.counters() == other.counters() && self.cpus == other.cpus && self.pids == other.pids
    }
}

impl Eq for TraceStats {}

/// The tally's cells for a kind: its four (OS, lock read) combinations.
const FETCHES: std::ops::Range<usize> = 0..4;
const READS: std::ops::Range<usize> = 4..8;
const WRITES: std::ops::Range<usize> = 8..12;

impl TraceStats {
    /// Creates an empty statistics accumulator.
    pub fn new() -> Self {
        Self::default()
    }

    /// Accumulates statistics from every reference produced by an iterator.
    pub fn from_refs<I>(refs: I) -> Self
    where
        I: IntoIterator<Item = MemRef>,
    {
        let mut stats = Self::new();
        for r in refs {
            stats.observe(&r);
        }
        stats
    }

    /// Accumulates statistics over every reference `source` yields, in
    /// one pass. A source that lends its chunks (a memory-mapped `DTR1`
    /// file, a [`SliceSource`](crate::SliceSource)) is read in place,
    /// with no copies.
    ///
    /// # Errors
    ///
    /// Propagates the first decode error from the source.
    pub fn scan<S: TraceSource>(mut source: S) -> Result<Self, TraceIoError> {
        const CHUNK: usize = 65_536;
        let mut stats = Self::new();
        if let Some(lent) = source.borrowed() {
            loop {
                let chunk = lent.next_chunk(CHUNK)?;
                if chunk.is_empty() {
                    break;
                }
                chunk.iter().for_each(|r| stats.observe(r));
            }
        } else {
            let mut chunk = Vec::new();
            while source.read_chunk(&mut chunk, CHUNK)? > 0 {
                chunk.iter().for_each(|r| stats.observe(r));
            }
        }
        Ok(stats)
    }

    /// Records one reference: one count in the tally cell its kind and
    /// flags pick, with no branch — this runs once per reference on every
    /// scanned and every simulated stream, whose kinds and flags
    /// interleave too finely for a branch predictor. A lock flag counts
    /// only on a read.
    #[inline]
    pub fn observe(&mut self, r: &MemRef) {
        let lock_read = (r.kind == AccessKind::Read) & r.flags.is_lock();
        let cell =
            (r.kind as usize) << 2 | usize::from(r.flags.is_os()) << 1 | usize::from(lock_read);
        self.tally[cell] += 1;
        self.cpus.insert(r.cpu.index() as u32);
        self.pids.insert(r.pid.index() as u32);
    }

    /// The sum of the tally cells `cells` picks.
    fn sum(&self, cells: impl Iterator<Item = usize>) -> u64 {
        cells.map(|i| self.tally[i]).sum()
    }

    /// Every counter, in declaration order, for equality.
    fn counters(&self) -> [u64; 7] {
        [
            self.total(),
            self.instructions(),
            self.data_reads(),
            self.data_writes(),
            self.user(),
            self.system(),
            self.lock_reads(),
        ]
    }

    /// Total number of references observed.
    pub fn total(&self) -> u64 {
        self.tally.iter().sum()
    }

    /// Number of instruction fetches.
    pub fn instructions(&self) -> u64 {
        self.sum(FETCHES)
    }

    /// Number of data reads.
    pub fn data_reads(&self) -> u64 {
        self.sum(READS)
    }

    /// Number of data writes.
    pub fn data_writes(&self) -> u64 {
        self.sum(WRITES)
    }

    /// Number of references not marked as operating-system activity.
    pub fn user(&self) -> u64 {
        self.total() - self.system()
    }

    /// Number of references marked as operating-system activity.
    pub fn system(&self) -> u64 {
        self.sum((0..12).filter(|i| i & 2 != 0))
    }

    /// Number of data reads marked as spin-lock tests.
    pub fn lock_reads(&self) -> u64 {
        self.sum(READS.filter(|i| i & 1 != 0))
    }

    /// Number of distinct CPUs seen.
    pub fn cpu_count(&self) -> usize {
        self.cpus.len()
    }

    /// Number of distinct processes seen.
    pub fn process_count(&self) -> usize {
        self.pids.len()
    }

    /// One past the highest process index seen (0 for an empty trace).
    ///
    /// This is the per-process cache count a simulation of the trace
    /// needs. It differs from [`process_count`](Self::process_count) on
    /// open-system traces, where a process id can appear even though an
    /// earlier-minted id never emitted a reference.
    pub fn process_id_bound(&self) -> u32 {
        self.pids.max().map_or(0, |p| p + 1)
    }

    /// One past the highest CPU index seen (0 for an empty trace): the
    /// per-processor cache count a simulation of the trace needs. It
    /// differs from [`cpu_count`](Self::cpu_count) when the CPU ids are
    /// sparse, as in a foreign trace that names CPUs 0 and 2 only.
    pub fn cpu_id_bound(&self) -> u32 {
        self.cpus.max().map_or(0, |c| c + 1)
    }

    /// Fraction of data reads that are lock-spin tests.
    ///
    /// The paper reports roughly one third for POPS and THOR.
    pub fn lock_read_fraction(&self) -> f64 {
        match self.data_reads() {
            0 => 0.0,
            reads => self.lock_reads() as f64 / reads as f64,
        }
    }

    /// Ratio of data reads to data writes.
    pub fn read_write_ratio(&self) -> f64 {
        match self.data_writes() {
            0 => f64::INFINITY,
            writes => self.data_reads() as f64 / writes as f64,
        }
    }

    /// Merges another accumulator into this one.
    ///
    /// CPU/process identity sets are unioned, so merging two single-CPU
    /// traces reports two distinct CPUs.
    pub fn merge(&mut self, other: &TraceStats) {
        for (a, b) in self.tally.iter_mut().zip(other.tally) {
            *a += b;
        }
        self.cpus.merge(&other.cpus);
        self.pids.merge(&other.pids);
    }
}

impl fmt::Display for TraceStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "refs={} instr={} dread={} dwrt={} user={} sys={} locks={} cpus={} procs={}",
            self.total(),
            self.instructions(),
            self.data_reads(),
            self.data_writes(),
            self.user(),
            self.system(),
            self.lock_reads(),
            self.cpu_count(),
            self.process_count()
        )
    }
}

impl Extend<MemRef> for TraceStats {
    fn extend<T: IntoIterator<Item = MemRef>>(&mut self, iter: T) {
        for r in iter {
            self.observe(&r);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::types::{Addr, CpuId, ProcessId, RefFlags};

    fn sample() -> Vec<MemRef> {
        let c0 = CpuId::new(0);
        let c1 = CpuId::new(1);
        let p0 = ProcessId::new(0);
        let p1 = ProcessId::new(1);
        vec![
            MemRef::instr(c0, p0, Addr::new(0x0)),
            MemRef::read(c0, p0, Addr::new(0x100)).with_flags(RefFlags::empty().with_lock()),
            MemRef::read(c1, p1, Addr::new(0x100)),
            MemRef::write(c1, p1, Addr::new(0x200)).with_flags(RefFlags::empty().with_os()),
        ]
    }

    #[test]
    fn counts_by_kind() {
        let stats = TraceStats::from_refs(sample());
        assert_eq!(stats.total(), 4);
        assert_eq!(stats.instructions(), 1);
        assert_eq!(stats.data_reads(), 2);
        assert_eq!(stats.data_writes(), 1);
    }

    #[test]
    fn user_system_split() {
        let stats = TraceStats::from_refs(sample());
        assert_eq!(stats.system(), 1);
        assert_eq!(stats.user(), 3);
        assert_eq!(stats.user() + stats.system(), stats.total());
    }

    #[test]
    fn lock_fraction() {
        let stats = TraceStats::from_refs(sample());
        assert_eq!(stats.lock_reads(), 1);
        assert!((stats.lock_read_fraction() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn identity_counts() {
        let stats = TraceStats::from_refs(sample());
        assert_eq!(stats.cpu_count(), 2);
        assert_eq!(stats.process_count(), 2);
    }

    #[test]
    fn id_bounds_cover_sparse_ids() {
        let sparse = [0, 2].map(|i| MemRef::read(CpuId::new(i), ProcessId::new(5), Addr::new(0)));
        let stats = TraceStats::from_refs(sparse);
        assert_eq!(stats.cpu_count(), 2);
        assert_eq!(stats.cpu_id_bound(), 3);
        assert_eq!(stats.process_id_bound(), 6);
        assert_eq!(TraceStats::new().cpu_id_bound(), 0);
    }

    #[test]
    fn scan_matches_observe_on_lent_and_owned_chunks() {
        use crate::source::{IterSource, SliceSource};
        use crate::synth::PaperTrace;
        let refs: Vec<MemRef> = PaperTrace::Pops.workload().take(70_000).collect();
        let want = TraceStats::from_refs(refs.iter().copied());
        assert_eq!(TraceStats::scan(SliceSource::new(&refs)).unwrap(), want);
        assert_eq!(
            TraceStats::scan(IterSource::new(refs.into_iter())).unwrap(),
            want
        );
    }

    #[test]
    fn empty_stats_are_zero() {
        let stats = TraceStats::new();
        assert_eq!(stats.total(), 0);
        assert_eq!(stats.lock_read_fraction(), 0.0);
        assert!(stats.read_write_ratio().is_infinite());
    }

    #[test]
    fn merge_unions_identities() {
        let mut a = TraceStats::from_refs(vec![MemRef::read(
            CpuId::new(0),
            ProcessId::new(0),
            Addr::new(0),
        )]);
        let b = TraceStats::from_refs(vec![MemRef::read(
            CpuId::new(1),
            ProcessId::new(1),
            Addr::new(0),
        )]);
        a.merge(&b);
        assert_eq!(a.total(), 2);
        assert_eq!(a.cpu_count(), 2);
        assert_eq!(a.process_count(), 2);
    }

    #[test]
    fn extend_matches_observe() {
        let mut a = TraceStats::new();
        a.extend(sample());
        let b = TraceStats::from_refs(sample());
        assert_eq!(a, b);
    }

    #[test]
    fn display_is_nonempty() {
        let s = TraceStats::new().to_string();
        assert!(s.contains("refs=0"));
    }
}
