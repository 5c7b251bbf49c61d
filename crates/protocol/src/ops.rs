//! Bus operations and data movements emitted by protocols.
//!
//! Each classified reference yields a [`RefOutcome`]: the Table 4 event, the
//! [`BusOp`]s the protocol put on the bus (priced later by `dirsim-cost`),
//! the semantic [`DataMovement`]s (checked by the `dirsim-mem` oracle), and
//! — on writes to previously-clean blocks — the invalidation fan-out that
//! drives the paper's Figure 1.
//!
//! A match machine returns one outcome per data reference, so both lists
//! are [`InlineList`]s. A hit carries none, and every outcome of a
//! four-cache system fits inline, so neither allocates. Wider fan-outs,
//! such as a write to a block that dozens of caches share, move to the
//! heap.

use std::fmt;
use std::ops::{Index, IndexMut};

use dirsim_mem::CacheId;

use crate::event::EventKind;
use crate::inline_list::InlineList;

/// Bus ops a [`RefOutcome`] holds before it allocates. The widest outcome
/// of a four-cache system is Tang's write hit to a block every cache
/// shares: four duplicate-tag searches and three invalidations.
pub const INLINE_OPS: usize = 8;

/// Data movements a [`RefOutcome`] holds before it allocates. The widest
/// outcome of a four-cache system is a write miss to a block the three
/// other caches share: a fill, three invalidations and the write.
pub const INLINE_MOVEMENTS: usize = 6;

/// One operation occupying the bus (or interconnect), in the vocabulary of
/// the paper's §4.3 cost models.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum BusOp {
    /// Block fetch serviced by main memory.
    MemRead,
    /// Block fetch serviced by another cache (Berkeley/Dragon supply).
    CacheSupply,
    /// Dirty-block flush to memory; the requesting cache (if any) snarfs
    /// the data off the bus, so no separate fetch is needed.
    WriteBack,
    /// Single-word write-through to memory (WTI).
    WriteThrough,
    /// Single-word update broadcast to other cached copies (Dragon).
    WriteUpdate,
    /// Directory access that could *not* be overlapped with a memory
    /// access (e.g. a write hit to a clean block querying the directory).
    DirLookup,
    /// A directory/cache *state* update message that carries no data — e.g.
    /// the Yen & Fu scheme's traffic to keep per-cache "single" bits
    /// current (§2: "extra bus bandwidth is consumed to keep the single
    /// bits updated").
    DirUpdate,
    /// One directed invalidation or write-back request to a specific cache.
    Invalidate,
    /// Bus-wide broadcast invalidation (cost parameterised as `b` in §6).
    BroadcastInvalidate,
}

impl BusOp {
    /// All operations, in display order.
    pub const ALL: [BusOp; 9] = [
        BusOp::MemRead,
        BusOp::CacheSupply,
        BusOp::WriteBack,
        BusOp::WriteThrough,
        BusOp::WriteUpdate,
        BusOp::DirLookup,
        BusOp::DirUpdate,
        BusOp::Invalidate,
        BusOp::BroadcastInvalidate,
    ];

    /// Short name used in breakdown tables.
    pub fn name(self) -> &'static str {
        match self {
            BusOp::MemRead => "mem-read",
            BusOp::CacheSupply => "cache-supply",
            BusOp::WriteBack => "write-back",
            BusOp::WriteThrough => "write-through",
            BusOp::WriteUpdate => "write-update",
            BusOp::DirLookup => "dir-lookup",
            BusOp::DirUpdate => "dir-update",
            BusOp::Invalidate => "invalidate",
            BusOp::BroadcastInvalidate => "bcast-invalidate",
        }
    }

    fn ordinal(self) -> usize {
        match self {
            BusOp::MemRead => 0,
            BusOp::CacheSupply => 1,
            BusOp::WriteBack => 2,
            BusOp::WriteThrough => 3,
            BusOp::WriteUpdate => 4,
            BusOp::DirLookup => 5,
            BusOp::DirUpdate => 6,
            BusOp::Invalidate => 7,
            BusOp::BroadcastInvalidate => 8,
        }
    }
}

impl fmt::Display for BusOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// Per-[`BusOp`] occurrence counts.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct OpCounts {
    counts: [u64; 9],
}

impl OpCounts {
    /// Creates a zeroed table.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records `n` occurrences of `op`.
    pub fn record(&mut self, op: BusOp, n: u64) {
        self.counts[op.ordinal()] += n;
    }

    /// Merges another table into this one.
    pub fn merge(&mut self, other: &OpCounts) {
        for (a, b) in self.counts.iter_mut().zip(other.counts.iter()) {
            *a += b;
        }
    }

    /// Iterates `(op, count)` pairs in display order.
    pub fn iter(&self) -> impl Iterator<Item = (BusOp, u64)> + '_ {
        BusOp::ALL.iter().map(move |&op| (op, self[op]))
    }

    /// Sum of all operation counts.
    pub fn total(&self) -> u64 {
        self.counts.iter().sum()
    }
}

impl Index<BusOp> for OpCounts {
    type Output = u64;

    fn index(&self, op: BusOp) -> &u64 {
        &self.counts[op.ordinal()]
    }
}

impl IndexMut<BusOp> for OpCounts {
    fn index_mut(&mut self, op: BusOp) -> &mut u64 {
        &mut self.counts[op.ordinal()]
    }
}

/// A semantic movement or mutation of block data, fed to the
/// [`dirsim_mem::ShadowMemory`] oracle to check protocol correctness.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DataMovement {
    /// `cache` filled the block from main memory.
    FillFromMemory {
        /// Receiving cache.
        cache: CacheId,
    },
    /// `cache` filled the block from `supplier`'s copy.
    FillFromCache {
        /// Receiving cache.
        cache: CacheId,
        /// Supplying cache.
        supplier: CacheId,
    },
    /// `cache` performed a copy-back write to its resident copy.
    CacheWrite {
        /// Writing cache.
        cache: CacheId,
    },
    /// `cache` performed a write-through (copy and memory updated).
    WriteThrough {
        /// Writing cache.
        cache: CacheId,
    },
    /// `cache` performed an update-broadcast write (all copies refreshed).
    WriteUpdate {
        /// Writing cache.
        cache: CacheId,
    },
    /// `cache` flushed its copy to memory.
    WriteBack {
        /// Flushing cache.
        cache: CacheId,
    },
    /// `cache`'s copy was invalidated.
    Invalidate {
        /// Cache losing its copy.
        cache: CacheId,
    },
}

impl DataMovement {
    /// Compact, stable label for serialized transition tables and diffs,
    /// e.g. `fill-mem(c0)`, `fill-cache(c2<-c0)`, `inval(c1)`.
    pub fn code(&self) -> String {
        match self {
            DataMovement::FillFromMemory { cache } => format!("fill-mem({cache})"),
            DataMovement::FillFromCache { cache, supplier } => {
                format!("fill-cache({cache}<-{supplier})")
            }
            DataMovement::CacheWrite { cache } => format!("write({cache})"),
            DataMovement::WriteThrough { cache } => format!("write-through({cache})"),
            DataMovement::WriteUpdate { cache } => format!("write-update({cache})"),
            DataMovement::WriteBack { cache } => format!("write-back({cache})"),
            DataMovement::Invalidate { cache } => format!("inval({cache})"),
        }
    }

    /// The cache performing or suffering the movement (the requester for
    /// cache-to-cache fills).
    pub fn cache(&self) -> CacheId {
        match *self {
            DataMovement::FillFromMemory { cache }
            | DataMovement::FillFromCache { cache, .. }
            | DataMovement::CacheWrite { cache }
            | DataMovement::WriteThrough { cache }
            | DataMovement::WriteUpdate { cache }
            | DataMovement::WriteBack { cache }
            | DataMovement::Invalidate { cache } => cache,
        }
    }
}

/// The full result of classifying and executing one data reference.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct RefOutcome {
    /// Table 4 classification.
    pub event: Option<EventKind>,
    /// Bus operations to price, in order. Cold (first-reference) fills
    /// follow the paper's methodology and contribute **no** ops.
    pub ops: InlineList<BusOp, INLINE_OPS>,
    /// Semantic data movements for the correctness oracle, in order.
    pub movements: InlineList<DataMovement, INLINE_MOVEMENTS>,
    /// On a write to a previously-clean block (`wh-blk-cln` / `wm-blk-cln`),
    /// the number of *other* caches that held the block — the Figure 1
    /// histogram datum.
    pub clean_write_fanout: Option<u32>,
}

impl RefOutcome {
    /// Creates an outcome for `event` with no ops or movements.
    pub fn event(event: EventKind) -> Self {
        RefOutcome {
            event: Some(event),
            ..Self::default()
        }
    }

    /// The classified event.
    ///
    /// # Panics
    ///
    /// Panics if the outcome was constructed without an event; protocol
    /// implementations always set one.
    pub fn kind(&self) -> EventKind {
        self.event.expect("protocol outcomes always carry an event")
    }

    /// Whether this reference used the bus at all (a "bus transaction" for
    /// Figure 5 and the §5.1 fixed-overhead model).
    pub fn is_bus_transaction(&self) -> bool {
        !self.ops.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn op_names_and_order() {
        assert_eq!(BusOp::ALL.len(), 9);
        assert_eq!(BusOp::MemRead.name(), "mem-read");
        assert_eq!(BusOp::BroadcastInvalidate.to_string(), "bcast-invalidate");
    }

    #[test]
    fn op_ordinals_unique() {
        let mut seen = [false; 9];
        for op in BusOp::ALL {
            assert!(!seen[op.ordinal()]);
            seen[op.ordinal()] = true;
        }
    }

    #[test]
    fn op_counts_accumulate() {
        let mut c = OpCounts::new();
        c.record(BusOp::MemRead, 3);
        c.record(BusOp::Invalidate, 2);
        c.record(BusOp::MemRead, 1);
        assert_eq!(c[BusOp::MemRead], 4);
        assert_eq!(c[BusOp::Invalidate], 2);
        assert_eq!(c.total(), 6);
    }

    #[test]
    fn op_counts_merge() {
        let mut a = OpCounts::new();
        a.record(BusOp::WriteBack, 1);
        let mut b = OpCounts::new();
        b.record(BusOp::WriteBack, 2);
        b.record(BusOp::DirLookup, 5);
        a.merge(&b);
        assert_eq!(a[BusOp::WriteBack], 3);
        assert_eq!(a[BusOp::DirLookup], 5);
    }

    #[test]
    fn movement_codes_are_compact_and_distinct() {
        let c0 = CacheId::new(0);
        let c2 = CacheId::new(2);
        assert_eq!(
            DataMovement::FillFromMemory { cache: c0 }.code(),
            "fill-mem($#0)"
        );
        assert_eq!(
            DataMovement::FillFromCache {
                cache: c2,
                supplier: c0
            }
            .code(),
            "fill-cache($#2<-$#0)"
        );
        assert_eq!(DataMovement::Invalidate { cache: c2 }.code(), "inval($#2)");
        assert_eq!(DataMovement::WriteBack { cache: c0 }.cache(), c0);
        assert_eq!(
            DataMovement::FillFromCache {
                cache: c2,
                supplier: c0
            }
            .cache(),
            c2
        );
    }

    #[test]
    fn outcome_event_constructor() {
        let o = RefOutcome::event(EventKind::RdHit);
        assert_eq!(o.kind(), EventKind::RdHit);
        assert!(!o.is_bus_transaction());
        assert!(o.movements.is_empty());
        assert_eq!(o.clean_write_fanout, None);
    }

    #[test]
    fn bus_transaction_detection() {
        let mut o = RefOutcome::event(EventKind::RmBlkCln);
        o.ops.push(BusOp::MemRead);
        assert!(o.is_bus_transaction());
    }

    #[test]
    #[should_panic(expected = "always carry an event")]
    fn kind_panics_without_event() {
        let o = RefOutcome::default();
        let _ = o.kind();
    }
}
