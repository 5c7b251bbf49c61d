//! Table-driven step kernels: dense `(state, event) → (state, counters)`
//! transition rows memoized per scheme, so the steady-state step loop is a
//! map lookup plus counter merges instead of a full protocol-machine match.
//!
//! ## How rows are produced
//!
//! This reuses the idea behind `dirsim-analyze`'s audited BFS
//! `ProtocolTable` extraction: every protocol factorizes per block (the
//! analyze gate's product-factorization check pins this), and the rendered
//! [`BlockState`](dirsim_protocol::BlockState) content is a sufficient
//! abstraction of one block's
//! machine state (the analyze golden tables and confluence lints pin
//! *that*). So the kernel interns each distinct block-state *content*
//! (holders in insertion order, dirty bit, pointers, broadcast bit, aux
//! words — everything except the block address) as a dense `u32` id, and
//! fills transition rows lazily: to compute `(state, event)` it rebuilds a
//! fresh machine, replays the recorded discovery path of `state` onto one
//! probe block, applies the event, and records the outcome's counters plus
//! the successor state. Each row is computed once and hit forever after.
//!
//! ## What the kernel cannot do
//!
//! Rows carry only what the unaudited accumulation path needs (event kind,
//! bus-op counts, fan-out, transaction flag). Data movements and probes —
//! consumed only by the oracle and invariant audits — are not tabled, so
//! kernels engage exclusively when both audits are off; audited runs
//! always take the match-based machines. The match machines stay the
//! oracle: `tests/equivalence.rs` pins kernel-on ≡ kernel-off bit-identical
//! for every scheme, and the `dirsim-verify`/`dirsim-analyze` gates keep
//! auditing the machines themselves.
//!
//! ## Overflow safety valve
//!
//! State spaces are tiny at the paper's scale (4 caches), but an
//! adversarial workload at 64 caches could keep minting fresh states. Past
//! a fixed row budget the kernel reports [`KernelOverflow`]; the lane then
//! *materializes* a real protocol instance (replaying every block's
//! discovery path) and continues on the match-based path, bit-identically.

use dirsim_mem::{BlockAddr, CacheId, FxHashMap};
use dirsim_protocol::{BusOp, CoherenceProtocol, EventKind, OpCounts, Scheme};

/// Whether lanes may use table-driven kernels (see [`crate::kernel`]).
///
/// This runtime value, set through
/// [`SimConfigBuilder::kernels`](crate::SimConfigBuilder::kernels), is the
/// only kernel switch; tests pin either path by setting
/// [`Disabled`](KernelPolicy::Disabled) or
/// [`Required`](KernelPolicy::Required) directly.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum KernelPolicy {
    /// Use kernels whenever a lane is eligible (audits off, cache count
    /// within [`MAX_KERNEL_CACHES`]); fall back to the match machines
    /// otherwise. The default.
    #[default]
    Auto,
    /// Never use kernels: every lane steps its match-based machine.
    Disabled,
    /// Kernels must engage on every audit-free lane; an ineligible cache
    /// count panics instead of silently falling back. Audited lanes still
    /// take the match path (the audits need movements and probes that
    /// rows do not carry). Meant for tests that pin the kernel path.
    Required,
}

/// Widest system a kernel will table. Beyond this the event alphabet and
/// state space stop paying for themselves; the sharer-set spill path and
/// match machines handle it.
pub const MAX_KERNEL_CACHES: u32 = 64;

/// Total transition-row budget per kernel (states × events). Bounds lazy
/// table growth to a few MB; overflow falls back to the match machines.
const ROW_BUDGET: usize = 1 << 18;

/// The id of the "absent" state: the machine holds no entry for the block
/// (next reference is a first-reference cold miss).
pub(crate) const ABSENT: u32 = 0;

/// Marker that a row slot has not been computed yet.
const UNFILLED: u32 = u32::MAX;

/// The kernel ran out of state/row budget; the lane must materialize a
/// protocol instance and continue on the match-based path.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct KernelOverflow;

/// `block_idx` value marking an instruction fetch (no block involved).
pub(crate) const INSTR_REF: u32 = u32::MAX;

/// `victim_idx` value when a reference displaces no finite-cache victim.
pub(crate) const NO_VICTIM: u32 = u32::MAX;

/// One decoded data reference, shared by every kernel lane of a bank.
///
/// The bank decodes each reference exactly once: block-map lookup,
/// cache attribution, dense block-index interning, and — under a finite
/// geometry — the residency probe and LRU victim choice, all of which
/// are scheme-independent (every lane's finite cache sees the same
/// reference stream, so their contents are bit-identical replicas).
/// Per-lane stepping is then pure array indexing, with no hashing and
/// no cache probing, no matter how many lanes replay the record.
#[derive(Debug, Clone, Copy)]
pub(crate) struct DecodedRef {
    /// Dense bank-wide block index, or [`INSTR_REF`].
    pub(crate) block_idx: u32,
    /// Block index of the LRU victim this reference displaces, or
    /// [`NO_VICTIM`] (always the latter when `resident`).
    pub(crate) victim_idx: u32,
    pub(crate) cache: CacheId,
    pub(crate) write: bool,
    /// Whether the block was resident in the attributed finite cache
    /// (`true` under the infinite-cache model).
    pub(crate) resident: bool,
}

impl DecodedRef {
    /// An instruction fetch (classified and counted, no protocol work).
    pub(crate) fn instr() -> DecodedRef {
        DecodedRef {
            block_idx: INSTR_REF,
            victim_idx: NO_VICTIM,
            cache: CacheId::new(0),
            write: false,
            resident: true,
        }
    }
}

/// Block-state content, minus the block address: the interning key.
type StateKey = (Vec<CacheId>, bool, Vec<CacheId>, bool, Vec<u64>);

/// One computed transition: everything the unaudited accumulation path
/// records for a step from the keyed state under the keyed event.
///
/// Rows are stored compact — 15 bytes, no padding — because a bank of
/// many lanes makes the row tables its main memory cost. Every per-step
/// delta fits in a byte: a step emits at most one bus operation of each
/// kind per cache, and kernels table at most [`MAX_KERNEL_CACHES`]
/// caches. [`KernelTable::fill_row`] narrows with a checked conversion,
/// never a truncating cast. Rows are read only when filled, when hit
/// counts drain and on a finite-cache miss, never in the hit loop.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Row {
    /// Event classification (`None` for capacity-eviction rows, which the
    /// engine counts as ops only).
    kind: Option<EventKind>,
    /// Whether the step used the bus (`RefOutcome::is_bus_transaction`).
    used_bus: bool,
    /// Clean-write invalidation fan-out, if the event records one.
    fanout: Option<u8>,
    /// +1 when the step creates the block's directory entry, -1 when it
    /// drops it; keeps the lane's distinct-block count exact.
    tracked_delta: i8,
    /// Whether `ops` has any non-zero count: lets the drain skip the
    /// merge entirely on hit rows (most transitions move no bus traffic).
    has_ops: bool,
    /// Bus-operation count deltas, in [`BusOp::ALL`] order.
    ops: [u8; BusOp::ALL.len()],
}

// The byte-wide deltas hold only while no step can involve more caches
// than a `u8` counts.
const _: () = assert!(MAX_KERNEL_CACHES <= u8::MAX as u32);

impl Row {
    const EMPTY: Row = Row {
        kind: None,
        used_bus: false,
        fanout: None,
        tracked_delta: 0,
        has_ops: false,
        ops: [0; BusOp::ALL.len()],
    };

    #[inline]
    pub(crate) fn kind(&self) -> Option<EventKind> {
        self.kind
    }

    #[inline]
    pub(crate) fn used_bus(&self) -> bool {
        self.used_bus
    }

    #[inline]
    pub(crate) fn fanout(&self) -> Option<u32> {
        self.fanout.map(u32::from)
    }

    #[inline]
    pub(crate) fn has_ops(&self) -> bool {
        self.has_ops
    }

    /// Adds the row's bus-operation deltas, `times` over, to `counts`.
    #[inline]
    pub(crate) fn add_ops(&self, counts: &mut OpCounts, times: u64) {
        for (&op, &n) in BusOp::ALL.iter().zip(&self.ops) {
            counts.record(op, u64::from(n) * times);
        }
    }
}

/// How an interned state was first discovered: the edge from its parent.
/// Chaining parents back to [`ABSENT`] yields a replayable recipe.
#[derive(Debug, Clone, Copy)]
struct StateMeta {
    parent: u32,
    via: u16,
    /// Whether the machine holds a directory entry in this state.
    tracked: bool,
}

/// The memoized transition tables of one lane: interned states and their
/// dense `(state, event) → Row` storage. Split from [`LaneKernel`] so the
/// stepping hot path can hold a `&mut` slot into the block map while
/// filling rows (disjoint-field borrows — one hash probe per step).
pub(crate) struct KernelTable {
    scheme: Scheme,
    caches: u32,
    /// Events per state: `3 * caches` (read, write, evict per cache).
    events: usize,
    ids: FxHashMap<StateKey, u32>,
    meta: Vec<StateMeta>,
    /// Dense row storage, `meta.len() * events` slots, filled lazily.
    rows: Vec<Row>,
    /// Successor state ids, parallel to `rows` ([`UNFILLED`] while a slot
    /// is empty). Split out of [`Row`] so the steady-state hot loop walks
    /// a dense `u32` array that stays cache-resident instead of striding
    /// across the fat row records.
    pub(crate) nexts: Vec<u32>,
    /// Batched hit counts, parallel to `rows`: the fast path records a
    /// step as one `hits[idx] += 1` and the row's counters are multiplied
    /// out once at drain time (sums are commutative, so totals are
    /// bit-identical to per-step accumulation).
    pub(crate) hits: Vec<u64>,
}

/// Memoized transition tables plus the per-block state ids of one lane.
///
/// See the module docs for the design; the stepping contract is:
/// *ensure* every row a step needs first (fallible, mutates only the
/// table), then *commit* them (infallible, mutates block state) — so an
/// overflow can always abandon the step with the simulation untouched.
pub(crate) struct LaneKernel {
    /// The transition tables (fallible side of a step).
    pub(crate) table: KernelTable,
    /// Current interned state per bank block index (grown on demand;
    /// [`ABSENT`] until the block's first data reference).
    pub(crate) states: Vec<u32>,
    /// Blocks whose current state holds a directory entry — the lane's
    /// `distinct_blocks` (equals `tracked_blocks()` on the match path).
    pub(crate) tracked: u64,
}

/// Any address works: state keys strip the block, so the probe machine's
/// transitions are address-independent.
const PROBE_BLOCK: BlockAddr = BlockAddr::new(0);

/// Event index layout: `cache * 3 + {0: read, 1: write, 2: evict}`.
#[inline]
pub(crate) fn data_event(cache: CacheId, write: bool) -> usize {
    cache.index() * 3 + usize::from(write)
}

#[inline]
pub(crate) fn evict_event(cache: CacheId) -> usize {
    cache.index() * 3 + 2
}

fn apply_event(
    m: &mut dyn CoherenceProtocol,
    block: BlockAddr,
    event: usize,
) -> dirsim_protocol::RefOutcome {
    let cache = CacheId::new((event / 3) as u32);
    match event % 3 {
        0 => m.on_data_ref(cache, block, false),
        1 => m.on_data_ref(cache, block, true),
        _ => m.evict(cache, block),
    }
}

fn state_key(state: dirsim_protocol::BlockState) -> StateKey {
    (
        state.holders,
        state.dirty,
        state.pointers,
        state.broadcast_bit,
        state.aux,
    )
}

impl KernelTable {
    /// Returns the row index for `(state, event)`, computing and caching
    /// the row if this is its first use. Mutates only the table — never
    /// block assignments — so failing here leaves the simulation pristine.
    ///
    /// # Errors
    ///
    /// [`KernelOverflow`] when computing the row would exceed the budget.
    #[inline]
    pub(crate) fn ensure_row(&mut self, state: u32, event: usize) -> Result<usize, KernelOverflow> {
        debug_assert!(event < self.events);
        let idx = state as usize * self.events + event;
        if self.nexts[idx] != UNFILLED {
            return Ok(idx);
        }
        self.fill_row(state, event, idx)
    }

    /// The cold half of [`Self::ensure_row`]: replay the state's discovery
    /// recipe onto a fresh machine, apply the queried event, and read back
    /// the successor.
    #[cold]
    fn fill_row(&mut self, state: u32, event: usize, idx: usize) -> Result<usize, KernelOverflow> {
        let mut machine = self.scheme.build(self.caches);
        for &e in &self.path_to(state) {
            apply_event(machine.as_mut(), PROBE_BLOCK, e);
        }
        let outcome = apply_event(machine.as_mut(), PROBE_BLOCK, event);
        let successor = machine.block_state(PROBE_BLOCK).map(state_key);
        let next = self.intern(successor, state, event as u16)?;
        let mut counts = OpCounts::new();
        for &op in &outcome.ops {
            counts.record(op, 1);
        }
        let row = Row {
            kind: outcome.event,
            used_bus: outcome.is_bus_transaction(),
            fanout: outcome
                .clean_write_fanout
                .map(|n| u8::try_from(n).expect("a fan-out never exceeds MAX_KERNEL_CACHES")),
            tracked_delta: i8::from(self.meta[next as usize].tracked)
                - i8::from(self.meta[state as usize].tracked),
            has_ops: !outcome.ops.is_empty(),
            ops: BusOp::ALL.map(|op| {
                u8::try_from(counts[op]).expect("a step's op count never exceeds MAX_KERNEL_CACHES")
            }),
        };
        self.rows[idx] = row;
        self.nexts[idx] = next;
        Ok(idx)
    }

    /// The row at `idx` (must have been returned by [`Self::ensure_row`]).
    #[inline]
    pub(crate) fn row(&self, idx: usize) -> &Row {
        &self.rows[idx]
    }

    /// The event recipe that reaches `state` from an untouched machine.
    fn path_to(&self, state: u32) -> Vec<usize> {
        let mut path = Vec::new();
        let mut at = state;
        while at != ABSENT {
            let m = self.meta[at as usize];
            path.push(m.via as usize);
            at = m.parent;
        }
        path.reverse();
        path
    }

    /// Interns a successor state's content key, recording its discovery
    /// edge on first sight.
    fn intern(
        &mut self,
        key: Option<StateKey>,
        parent: u32,
        via: u16,
    ) -> Result<u32, KernelOverflow> {
        let Some(key) = key else {
            // The machine dropped the entry: behaviourally the block is
            // back to the untouched state.
            return Ok(ABSENT);
        };
        if let Some(&id) = self.ids.get(&key) {
            return Ok(id);
        }
        if (self.meta.len() + 1) * self.events > ROW_BUDGET {
            return Err(KernelOverflow);
        }
        let id = u32::try_from(self.meta.len()).map_err(|_| KernelOverflow)?;
        self.ids.insert(key, id);
        self.meta.push(StateMeta {
            parent,
            via,
            tracked: true,
        });
        self.rows.resize(self.rows.len() + self.events, Row::EMPTY);
        self.nexts.resize(self.rows.len(), UNFILLED);
        self.hits.resize(self.rows.len(), 0);
        Ok(id)
    }
}

impl LaneKernel {
    /// A kernel for `scheme` at `caches`, or `None` when the system is too
    /// wide to table ([`MAX_KERNEL_CACHES`]).
    pub(crate) fn new(scheme: Scheme, caches: u32) -> Option<LaneKernel> {
        if caches == 0 || caches > MAX_KERNEL_CACHES {
            return None;
        }
        let events = caches as usize * 3;
        let mut table = KernelTable {
            scheme,
            caches,
            events,
            ids: FxHashMap::default(),
            meta: Vec::new(),
            rows: Vec::new(),
            nexts: Vec::new(),
            hits: Vec::new(),
        };
        // State 0 is "absent": no entry, reached by an empty recipe.
        table.meta.push(StateMeta {
            parent: ABSENT,
            via: u16::MAX,
            tracked: false,
        });
        table.rows.resize(events, Row::EMPTY);
        table.nexts.resize(events, UNFILLED);
        table.hits.resize(events, 0);
        Some(LaneKernel {
            table,
            states: Vec::new(),
            tracked: 0,
        })
    }

    /// Current interned state at bank block index `block_idx` ([`ABSENT`]
    /// if the lane has never grown that far).
    #[inline]
    pub(crate) fn state_of(&self, block_idx: u32) -> u32 {
        self.states
            .get(block_idx as usize)
            .copied()
            .unwrap_or(ABSENT)
    }

    /// The lane's distinct-block count (blocks with a directory entry).
    pub(crate) fn tracked(&self) -> u64 {
        self.tracked
    }

    /// Delegates to [`KernelTable::ensure_row`].
    #[inline]
    pub(crate) fn ensure_row(&mut self, state: u32, event: usize) -> Result<usize, KernelOverflow> {
        self.table.ensure_row(state, event)
    }

    /// Delegates to [`KernelTable::row`].
    #[inline]
    pub(crate) fn row(&self, idx: usize) -> &Row {
        self.table.row(idx)
    }

    /// Commits a prepared transition: moves the block at `block_idx` into
    /// the row's successor state and updates the distinct-block count.
    /// Infallible.
    #[inline]
    pub(crate) fn commit(&mut self, block_idx: u32, idx: usize) {
        let next = self.table.nexts[idx];
        let delta = self.table.rows[idx].tracked_delta;
        let i = block_idx as usize;
        if self.states.len() <= i {
            self.states.resize(i + 1, ABSENT);
        }
        self.states[i] = next;
        self.tracked = self.tracked.wrapping_add(delta as i64 as u64);
    }

    /// Drains the batched row-hit counts: calls `f(row, n)` for every row
    /// with a non-zero count, zeroing the counts and settling the
    /// tracked-block ledger (`Σ n × tracked_delta`). Must run before the
    /// lane's results or `tracked()` are read — i.e. at finish and before
    /// an overflow abandons the kernel.
    pub(crate) fn drain_hits(&mut self, mut f: impl FnMut(&Row, u64)) {
        let LaneKernel { table, tracked, .. } = self;
        for (row, n) in table.rows.iter().zip(table.hits.iter_mut()) {
            let n = std::mem::take(n);
            if n == 0 {
                continue;
            }
            f(row, n);
            *tracked = tracked.wrapping_add((i64::from(row.tracked_delta) as u64).wrapping_mul(n));
        }
    }

    /// Replays every block's discovery recipe onto a fresh protocol
    /// instance — the bit-identical machine a match-based lane would hold
    /// after the same reference stream. Used when the kernel overflows.
    /// `addrs` is the bank's dense-index → block-address table.
    pub(crate) fn materialize(&self, addrs: &[BlockAddr]) -> Box<dyn CoherenceProtocol> {
        let mut machine = self.table.scheme.build(self.table.caches);
        for (i, &state) in self.states.iter().enumerate() {
            if state == ABSENT {
                continue;
            }
            for &e in &self.table.path_to(state) {
                apply_event(machine.as_mut(), addrs[i], e);
            }
        }
        machine
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dirsim_protocol::DirSpec;

    #[test]
    fn absent_state_transitions_to_tracked() {
        let mut k = LaneKernel::new(Scheme::Directory(DirSpec::dir0_b()), 4).unwrap();
        let block_idx = 7u32;
        assert_eq!(k.state_of(block_idx), ABSENT);
        let ev = data_event(CacheId::new(1), false);
        let idx = k.ensure_row(ABSENT, ev).unwrap();
        assert_eq!(k.row(idx).kind(), Some(EventKind::RmFirstRef));
        k.commit(block_idx, idx);
        assert_ne!(k.state_of(block_idx), ABSENT);
        assert_eq!(k.tracked(), 1);
    }

    #[test]
    fn rows_are_memoized() {
        let mut k = LaneKernel::new(Scheme::Wti, 2).unwrap();
        let ev = data_event(CacheId::new(0), true);
        let a = k.ensure_row(ABSENT, ev).unwrap();
        let states = k.table.meta.len();
        let b = k.ensure_row(ABSENT, ev).unwrap();
        assert_eq!(a, b);
        assert_eq!(states, k.table.meta.len(), "second lookup mints no state");
    }

    #[test]
    fn too_wide_systems_are_rejected() {
        assert!(LaneKernel::new(Scheme::Wti, MAX_KERNEL_CACHES + 1).is_none());
        assert!(LaneKernel::new(Scheme::Wti, 0).is_none());
    }

    #[test]
    fn materialize_reproduces_block_state() {
        let scheme = Scheme::Directory(DirSpec::dir_i_nb(2).expect("valid spec"));
        let mut k = LaneKernel::new(scheme, 3).unwrap();
        let block = BlockAddr::new(42);
        let block_idx = 0u32;
        // read by 0, read by 1, write by 2 — exercises pointer eviction.
        for ev in [
            data_event(CacheId::new(0), false),
            data_event(CacheId::new(1), false),
            data_event(CacheId::new(2), true),
        ] {
            let idx = k.ensure_row(k.state_of(block_idx), ev).unwrap();
            k.commit(block_idx, idx);
        }
        let materialized = k.materialize(&[block]);

        let mut direct = scheme.build(3);
        direct.on_data_ref(CacheId::new(0), block, false);
        direct.on_data_ref(CacheId::new(1), block, false);
        direct.on_data_ref(CacheId::new(2), block, true);

        assert_eq!(materialized.snapshot(), direct.snapshot());
        assert_eq!(k.tracked(), 1);
    }

    #[test]
    fn compact_rows_expand_to_the_match_machine_counts() {
        assert!(
            std::mem::size_of::<Row>() <= 16,
            "{}",
            std::mem::size_of::<Row>()
        );
        // At the widest tabled system a clean write to a block every other
        // cache shares fans out to 63 invalidations, and a step's op count
        // reaches 64: the byte-wide deltas must carry both exactly. Each
        // step goes through the kernel and a match machine in lockstep, so
        // every row the kernel fills is checked against the outcome it
        // memoizes.
        let caches = MAX_KERNEL_CACHES;
        let mut widest = 0u64;
        for name in [
            "Dir0B",
            "Dir1B",
            "Dir4B",
            "Dir1NB",
            "Dir4NB",
            "DirnNB",
            "CoarseVector",
            "Tang",
            "YenFu",
            "DirUpd",
            "WTI",
            "Dragon",
            "Berkeley",
            "Illinois",
        ] {
            let scheme: Scheme = name.parse().expect("known scheme");
            let mut k = LaneKernel::new(scheme, caches).unwrap();
            let mut direct = scheme.build(caches);
            let mut events = Vec::new();
            for round in 0..2u32 {
                events.extend((0..caches).map(|c| data_event(CacheId::new(c), false)));
                events.push(data_event(CacheId::new(round * 7), true));
                events.push(data_event(CacheId::new(round * 7), true));
                events.push(evict_event(CacheId::new(round * 7)));
            }
            let block = BlockAddr::new(3);
            for ev in events {
                let idx = k.ensure_row(k.state_of(0), ev).unwrap();
                let outcome = apply_event(direct.as_mut(), block, ev);
                let row = k.row(idx);
                let mut expanded = OpCounts::new();
                row.add_ops(&mut expanded, 1);
                let mut emitted = OpCounts::new();
                for &op in &outcome.ops {
                    emitted.record(op, 1);
                }
                assert_eq!(expanded, emitted, "{name}: event {ev}");
                assert_eq!(row.has_ops(), emitted.total() > 0, "{name}: event {ev}");
                assert_eq!(
                    row.fanout(),
                    outcome.clean_write_fanout,
                    "{name}: event {ev}"
                );
                assert_eq!(row.kind(), outcome.event, "{name}: event {ev}");
                widest = widest.max(emitted.iter().map(|(_, n)| n).max().unwrap_or(0));
                k.commit(0, idx);
            }
        }
        // Invalidations reach one per other cache, and Tang's duplicate
        // directory lookups one per cache: the deltas run up to the bound.
        assert_eq!(
            widest,
            u64::from(caches),
            "the grid must reach the op-count bound"
        );
    }

    #[test]
    fn overflow_materializes_a_consistent_machine() {
        // 64 caches shrink the state budget to `ROW_BUDGET / 192` interned
        // states, and a different per-block read order mints a distinct
        // (insertion-ordered) holder chain per block, so the budget trips
        // quickly. After the overflow the kernel must still materialize a
        // machine whose state matches a direct replay of every reference
        // that was actually committed.
        let scheme = Scheme::dir_n_nb();
        let caches = MAX_KERNEL_CACHES;
        let mut k = LaneKernel::new(scheme, caches).unwrap();
        let addrs: Vec<BlockAddr> = (0..256u64).map(BlockAddr::new).collect();
        let mut log: Vec<(BlockAddr, CacheId)> = Vec::new();
        let mut overflowed = false;
        'blocks: for b in 0..256u32 {
            let block = addrs[b as usize];
            // Stride 2b+1 is odd, hence coprime to the power-of-two cache
            // count: each block reads all 64 caches in a distinct order.
            let stride = (2 * b + 1) % caches;
            for i in 0..caches {
                let cache = CacheId::new((i * stride + b) % caches);
                let ev = data_event(cache, false);
                match k.ensure_row(k.state_of(b), ev) {
                    Ok(idx) => {
                        k.commit(b, idx);
                        log.push((block, cache));
                    }
                    Err(KernelOverflow) => {
                        overflowed = true;
                        break 'blocks;
                    }
                }
            }
        }
        assert!(overflowed, "64-cache DirnNB must trip the row budget");

        let materialized = k.materialize(&addrs);
        let mut direct = scheme.build(caches);
        for &(block, cache) in &log {
            direct.on_data_ref(cache, block, false);
        }
        assert_eq!(materialized.snapshot(), direct.snapshot());
        assert_eq!(k.tracked(), materialized.tracked_blocks() as u64);
    }
}
