//! Runtime protocol-invariant audit.
//!
//! Every [`CoherenceProtocol`] must
//! uphold a small catalogue of invariants regardless of scheme:
//!
//! 1. **SWMR** — a dirty block has exactly one holder (invalidation
//!    families); an update-family block's owner is among the holders.
//! 2. **Structural sanity** — holders are distinct, in range, and
//!    directory pointer knowledge never names a cache without a copy.
//! 3. **Event classification** — the Table 4 event a protocol reports for
//!    a reference is fully determined by the pre-reference probe and the
//!    protocol's [`ProtocolStyle`]; a mismatch means the state machine
//!    mis-classified.
//! 4. **Fan-out accounting** — `clean_write_fanout` is present exactly on
//!    clean-write events (invalidation families) and equals the number of
//!    remote copies the write displaced.
//! 5. **Residency** — after a data reference the referencing cache holds
//!    the block; after an eviction it does not.
//!
//! The checks are pure functions over the public protocol API (probe +
//! snapshot), so the exhaustive model checker (`dirsim-verify`) reuses
//! them verbatim on every reachable state. The simulation engine runs them
//! per reference when [`SimConfig::check_invariants`](crate::SimConfig)
//! is set — off by default in every build, and the default under the
//! `invariants` feature.

use std::fmt;

use dirsim_mem::{BlockAddr, CacheId, OracleViolation, ShadowMemory};
use dirsim_protocol::{
    BlockProbe, BlockState, CoherenceProtocol, DataMovement, EventKind, ProtocolStyle, RefOutcome,
    StateSnapshot,
};

/// A violated protocol invariant (see module docs for the catalogue).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum InvariantViolation {
    /// A data reference left the block with no protocol state at all.
    StateDropped {
        /// The referenced block.
        block: BlockAddr,
    },
    /// The referencing cache does not hold the block after the reference.
    ReferencerNotResident {
        /// The referencing cache.
        cache: CacheId,
        /// The referenced block.
        block: BlockAddr,
    },
    /// A cache still holds a block it was told to evict.
    EvicteeStillResident {
        /// The evicted cache.
        cache: CacheId,
        /// The evicted block.
        block: BlockAddr,
    },
    /// An eviction outcome carried a Table 4 event (evictions are not
    /// memory references and must not be classified).
    EvictionClassified {
        /// The evicted block.
        block: BlockAddr,
        /// The event the protocol wrongly attached.
        event: EventKind,
    },
    /// A holder list contains the same cache twice.
    DuplicateHolder {
        /// The affected block.
        block: BlockAddr,
        /// The duplicated cache.
        cache: CacheId,
    },
    /// A holder or pointer names a cache index outside the system.
    CacheOutOfRange {
        /// The affected block.
        block: BlockAddr,
        /// The out-of-range cache.
        cache: CacheId,
        /// The number of caches in the system.
        caches: u32,
    },
    /// Single-writer violation: a dirty block with zero or several holders.
    DirtyNotExclusive {
        /// The dirty block.
        block: BlockAddr,
        /// All caches holding it.
        holders: Vec<CacheId>,
    },
    /// Directory knowledge names a cache that holds no copy — the
    /// signature of a lost invalidation.
    PointerWithoutCopy {
        /// The affected block.
        block: BlockAddr,
        /// The pointer target without a copy.
        cache: CacheId,
    },
    /// An update-family block whose recorded owner holds no copy.
    OwnerWithoutCopy {
        /// The affected block.
        block: BlockAddr,
        /// The owner without a copy.
        cache: CacheId,
    },
    /// The protocol classified a reference differently from what its
    /// pre-reference state dictates.
    EventMismatch {
        /// The referenced block.
        block: BlockAddr,
        /// The referencing cache.
        cache: CacheId,
        /// The event the pre-state dictates.
        expected: EventKind,
        /// The event the protocol reported.
        got: EventKind,
    },
    /// `clean_write_fanout` missing, spurious, or wrong.
    FanoutMismatch {
        /// The referenced block.
        block: BlockAddr,
        /// The fan-out the pre-state dictates (`None` = must be absent).
        expected: Option<u32>,
        /// The fan-out the protocol reported.
        got: Option<u32>,
    },
}

impl fmt::Display for InvariantViolation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            InvariantViolation::StateDropped { block } => {
                write!(f, "block {block:?}: state dropped by a data reference")
            }
            InvariantViolation::ReferencerNotResident { cache, block } => {
                write!(
                    f,
                    "block {block:?}: referencing {cache:?} holds no copy afterwards"
                )
            }
            InvariantViolation::EvicteeStillResident { cache, block } => {
                write!(
                    f,
                    "block {block:?}: {cache:?} still resident after eviction"
                )
            }
            InvariantViolation::EvictionClassified { block, event } => {
                write!(f, "block {block:?}: eviction classified as {event:?}")
            }
            InvariantViolation::DuplicateHolder { block, cache } => {
                write!(f, "block {block:?}: {cache:?} appears twice among holders")
            }
            InvariantViolation::CacheOutOfRange {
                block,
                cache,
                caches,
            } => {
                write!(
                    f,
                    "block {block:?}: {cache:?} out of range for {caches} caches"
                )
            }
            InvariantViolation::DirtyNotExclusive { block, holders } => {
                write!(
                    f,
                    "block {block:?}: dirty with holders {holders:?} (must be exactly one)"
                )
            }
            InvariantViolation::PointerWithoutCopy { block, cache } => {
                write!(
                    f,
                    "block {block:?}: directory points at {cache:?} which holds no copy \
                     (lost invalidation?)"
                )
            }
            InvariantViolation::OwnerWithoutCopy { block, cache } => {
                write!(f, "block {block:?}: owner {cache:?} holds no copy")
            }
            InvariantViolation::EventMismatch {
                block,
                cache,
                expected,
                got,
            } => {
                write!(
                    f,
                    "block {block:?}, {cache:?}: classified {got:?}, pre-state dictates {expected:?}"
                )
            }
            InvariantViolation::FanoutMismatch {
                block,
                expected,
                got,
            } => {
                write!(
                    f,
                    "block {block:?}: clean-write fanout {got:?}, expected {expected:?}"
                )
            }
        }
    }
}

impl std::error::Error for InvariantViolation {}

/// The Table 4 event a reference must classify as, given the
/// pre-reference probe and the protocol family.
///
/// This is the invariant-checker's independent re-derivation of the
/// paper's event taxonomy: first references are detected by absent state,
/// hits by residency, and the clean/dirty (or local/distrib) split by the
/// probe's dirty bit (or sharing).
pub fn predicted_event(
    style: ProtocolStyle,
    pre: Option<&BlockProbe>,
    cache: CacheId,
    write: bool,
) -> EventKind {
    let Some(pre) = pre else {
        return if write {
            EventKind::WmFirstRef
        } else {
            EventKind::RmFirstRef
        };
    };
    let resident = pre.holders.contains(&cache);
    match (write, resident) {
        (false, true) => EventKind::RdHit,
        (false, false) => {
            if pre.dirty {
                EventKind::RmBlkDrty
            } else {
                EventKind::RmBlkCln
            }
        }
        (true, true) => match style {
            ProtocolStyle::Update => {
                if pre.holders.len() > 1 {
                    EventKind::WhDistrib
                } else {
                    EventKind::WhLocal
                }
            }
            _ => {
                if pre.dirty {
                    EventKind::WhBlkDrty
                } else {
                    EventKind::WhBlkCln
                }
            }
        },
        (true, false) => {
            if pre.dirty {
                EventKind::WmBlkDrty
            } else {
                EventKind::WmBlkCln
            }
        }
    }
}

/// Structural audit of one block's canonical state: distinct in-range
/// holders, SWMR, and directory/ownership agreement with the holder set.
pub fn check_block(
    style: ProtocolStyle,
    b: &BlockState,
    caches: u32,
) -> Result<(), InvariantViolation> {
    let mut seen = vec![false; caches as usize];
    for &h in &b.holders {
        if h.index() >= caches as usize {
            return Err(InvariantViolation::CacheOutOfRange {
                block: b.block,
                cache: h,
                caches,
            });
        }
        if seen[h.index()] {
            return Err(InvariantViolation::DuplicateHolder {
                block: b.block,
                cache: h,
            });
        }
        seen[h.index()] = true;
    }
    for &p in &b.pointers {
        if p.index() >= caches as usize {
            return Err(InvariantViolation::CacheOutOfRange {
                block: b.block,
                cache: p,
                caches,
            });
        }
        if !seen[p.index()] {
            return Err(InvariantViolation::PointerWithoutCopy {
                block: b.block,
                cache: p,
            });
        }
    }
    match style {
        ProtocolStyle::Update => {
            // Owner identity rides in aux[0] as index + 1 (0 = memory
            // current) for both update protocols.
            if b.dirty {
                if let Some(&enc) = b.aux.first() {
                    if enc > 0 {
                        let owner = CacheId::new((enc - 1) as u32);
                        if owner.index() >= caches as usize || !seen[owner.index()] {
                            return Err(InvariantViolation::OwnerWithoutCopy {
                                block: b.block,
                                cache: owner,
                            });
                        }
                    }
                }
            }
        }
        ProtocolStyle::CopyBackInvalidate | ProtocolStyle::WriteThrough => {
            if b.dirty && b.holders.len() != 1 {
                return Err(InvariantViolation::DirtyNotExclusive {
                    block: b.block,
                    holders: b.holders.clone(),
                });
            }
        }
    }
    Ok(())
}

/// Structural audit of a complete snapshot: [`check_block`] over every
/// tracked block. The exhaustive checker runs this on each reachable
/// state; the per-reference engine hook audits only the touched block.
pub fn check_snapshot(
    style: ProtocolStyle,
    snapshot: &StateSnapshot,
    caches: u32,
) -> Result<(), InvariantViolation> {
    for b in snapshot.blocks() {
        check_block(style, b, caches)?;
    }
    Ok(())
}

/// Full audit of one data reference: the structural snapshot checks plus
/// residency, event-classification, and fan-out agreement with the
/// pre-reference probe.
pub fn check_data_ref(
    protocol: &dyn CoherenceProtocol,
    pre: Option<&BlockProbe>,
    cache: CacheId,
    block: BlockAddr,
    write: bool,
    outcome: &RefOutcome,
) -> Result<(), InvariantViolation> {
    let style = protocol.style();
    let Some(post) = protocol.probe(block) else {
        return Err(InvariantViolation::StateDropped { block });
    };
    if !post.holders.contains(&cache) {
        return Err(InvariantViolation::ReferencerNotResident { cache, block });
    }

    let expected = predicted_event(style, pre, cache, write);
    let got = outcome.kind();
    if got != expected {
        return Err(InvariantViolation::EventMismatch {
            block,
            cache,
            expected,
            got,
        });
    }

    // Invalidation families report the Figure 1 fan-out datum on exactly
    // the clean-write events; update families displace nothing.
    let expected_fanout = match style {
        ProtocolStyle::Update => None,
        _ if matches!(expected, EventKind::WhBlkCln | EventKind::WmBlkCln) => {
            let others = pre.map_or(0, |p| p.holders.iter().filter(|&&h| h != cache).count());
            Some(others as u32)
        }
        _ => None,
    };
    if outcome.clean_write_fanout != expected_fanout {
        return Err(InvariantViolation::FanoutMismatch {
            block,
            expected: expected_fanout,
            got: outcome.clean_write_fanout,
        });
    }

    match protocol.block_state(block) {
        Some(state) => check_block(style, &state, protocol.cache_count()),
        None => Err(InvariantViolation::StateDropped { block }),
    }
}

/// Audit of one capacity eviction: the evictee no longer holds the block,
/// no event was classified, and the remaining state is structurally sound.
pub fn check_eviction(
    protocol: &dyn CoherenceProtocol,
    cache: CacheId,
    block: BlockAddr,
    outcome: &RefOutcome,
) -> Result<(), InvariantViolation> {
    if let Some(event) = outcome.event {
        return Err(InvariantViolation::EvictionClassified { block, event });
    }
    if let Some(post) = protocol.probe(block) {
        if post.holders.contains(&cache) {
            return Err(InvariantViolation::EvicteeStillResident { cache, block });
        }
    }
    match protocol.block_state(block) {
        Some(state) => check_block(protocol.style(), &state, protocol.cache_count()),
        None => Ok(()),
    }
}

/// Replays a protocol's claimed data movements against the shadow-memory
/// oracle, stopping at the first movement the oracle rejects.
///
/// This is the single definition of how
/// [`DataMovement`]s map onto
/// [`ShadowMemory`] operations; both the simulation engine and the
/// `dirsim-verify` model checker drive the oracle through it.
///
/// # Errors
///
/// Propagates the first [`OracleViolation`] raised by the oracle.
pub fn replay_movements(
    oracle: &mut ShadowMemory,
    movements: &[DataMovement],
    block: BlockAddr,
) -> Result<(), OracleViolation> {
    for movement in movements {
        match *movement {
            DataMovement::FillFromMemory { cache } => oracle.fill_from_memory(cache, block)?,
            DataMovement::FillFromCache { cache, supplier } => {
                oracle.fill_from_cache(cache, supplier, block)?;
            }
            DataMovement::CacheWrite { cache } => oracle.write(cache, block)?,
            DataMovement::WriteThrough { cache } => oracle.write_through(cache, block)?,
            DataMovement::WriteUpdate { cache } => oracle.write_update(cache, block)?,
            DataMovement::WriteBack { cache } => oracle.write_back(cache, block)?,
            DataMovement::Invalidate { cache } => oracle.invalidate(cache, block)?,
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use dirsim_protocol::{DirSpec, Scheme};

    fn c(i: u32) -> CacheId {
        CacheId::new(i)
    }
    const B: BlockAddr = BlockAddr::new(7);

    #[test]
    fn predicts_the_invalidate_family_table() {
        let style = ProtocolStyle::CopyBackInvalidate;
        assert_eq!(
            predicted_event(style, None, c(0), false),
            EventKind::RmFirstRef
        );
        assert_eq!(
            predicted_event(style, None, c(0), true),
            EventKind::WmFirstRef
        );
        let clean_shared = BlockProbe {
            holders: vec![c(0), c(1)],
            dirty: false,
        };
        assert_eq!(
            predicted_event(style, Some(&clean_shared), c(0), false),
            EventKind::RdHit
        );
        assert_eq!(
            predicted_event(style, Some(&clean_shared), c(2), false),
            EventKind::RmBlkCln
        );
        assert_eq!(
            predicted_event(style, Some(&clean_shared), c(0), true),
            EventKind::WhBlkCln
        );
        let dirty = BlockProbe {
            holders: vec![c(1)],
            dirty: true,
        };
        assert_eq!(
            predicted_event(style, Some(&dirty), c(0), false),
            EventKind::RmBlkDrty
        );
        assert_eq!(
            predicted_event(style, Some(&dirty), c(0), true),
            EventKind::WmBlkDrty
        );
        assert_eq!(
            predicted_event(style, Some(&dirty), c(1), true),
            EventKind::WhBlkDrty
        );
    }

    #[test]
    fn predicts_the_update_family_split() {
        let style = ProtocolStyle::Update;
        let shared = BlockProbe {
            holders: vec![c(0), c(1)],
            dirty: false,
        };
        assert_eq!(
            predicted_event(style, Some(&shared), c(0), true),
            EventKind::WhDistrib
        );
        let sole = BlockProbe {
            holders: vec![c(0)],
            dirty: false,
        };
        assert_eq!(
            predicted_event(style, Some(&sole), c(0), true),
            EventKind::WhLocal
        );
    }

    #[test]
    fn live_protocols_pass_per_reference() {
        for scheme in Scheme::paper_lineup() {
            let mut p = scheme.build(4);
            let script = [
                (0, false),
                (1, false),
                (2, false),
                (1, true),
                (0, false),
                (0, true),
                (3, true),
            ];
            for (i, &(cache, write)) in script.iter().enumerate() {
                let pre = p.probe(B);
                let out = p.on_data_ref(c(cache), B, write);
                check_data_ref(p.as_ref(), pre.as_ref(), c(cache), B, write, &out)
                    .unwrap_or_else(|v| panic!("{} step {i}: {v}", p.name()));
            }
        }
    }

    #[test]
    fn catches_a_dirty_shared_snapshot() {
        use dirsim_protocol::BlockState;
        let snap = StateSnapshot::from_blocks(vec![BlockState::basic(B, vec![c(0), c(1)], true)]);
        let err = check_snapshot(ProtocolStyle::CopyBackInvalidate, &snap, 4).unwrap_err();
        assert!(matches!(err, InvariantViolation::DirtyNotExclusive { .. }));
    }

    #[test]
    fn catches_a_pointer_without_a_copy() {
        use dirsim_protocol::BlockState;
        let snap = StateSnapshot::from_blocks(vec![BlockState {
            block: B,
            holders: vec![c(0)],
            dirty: false,
            pointers: vec![c(0), c(2)],
            broadcast_bit: false,
            aux: Vec::new(),
        }]);
        let err = check_snapshot(ProtocolStyle::CopyBackInvalidate, &snap, 4).unwrap_err();
        assert_eq!(
            err,
            InvariantViolation::PointerWithoutCopy {
                block: B,
                cache: c(2)
            }
        );
    }

    #[test]
    fn catches_a_misclassified_event() {
        let mut p = Scheme::Directory(DirSpec::dir0_b()).build(2);
        let pre = p.probe(B);
        let mut out = p.on_data_ref(c(0), B, false);
        out.event = Some(EventKind::RdHit); // lie: this was a first reference
        let err = check_data_ref(p.as_ref(), pre.as_ref(), c(0), B, false, &out).unwrap_err();
        assert!(matches!(err, InvariantViolation::EventMismatch { .. }));
    }
}
