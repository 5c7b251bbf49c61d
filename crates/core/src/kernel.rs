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

use std::hash::{Hash, Hasher};

use dirsim_mem::{BlockAddr, CacheId, FxHashMap, FxHasher};
use dirsim_protocol::{BusOp, CoherenceProtocol, EventKind, OpCounts, Scheme};

use crate::engine::Lane;

/// Whether lanes may use table-driven kernels (see [`crate::kernel`]).
///
/// This runtime value, the [`SimConfig::kernels`](crate::SimConfig::kernels)
/// field, is the only kernel switch. Tests pin the match path with
/// [`Disabled`](KernelPolicy::Disabled), and show the kernel path ran
/// under [`Auto`](KernelPolicy::Auto) through the engine's `kernel_lanes`
/// counter (see [`BroadcastSimulator::recorder`](crate::BroadcastSimulator::recorder)).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum KernelPolicy {
    /// Use kernels whenever a lane is eligible (audits off, cache count
    /// within [`MAX_KERNEL_CACHES`]); fall back to the match machines
    /// otherwise. The default.
    #[default]
    Auto,
    /// Never use kernels: every lane steps its match-based machine.
    Disabled,
}

/// Widest system a kernel will table. Beyond this the event alphabet and
/// state space stop paying for themselves; the match machines handle it.
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

/// `victim_idx` value when a reference displaces no finite-cache victim.
pub(crate) const NO_VICTIM: u32 = u32::MAX;

/// One decoded data reference, shared by every lane of a bank, kernel or
/// match.
///
/// The bank decodes each data reference exactly once: block-map lookup,
/// cache attribution, dense block-index interning, and — under a finite
/// geometry — the residency verdict and LRU victim from the bank's one
/// replica, all of which are scheme-independent (a cache's contents
/// depend only on the reference stream and the geometry). Instruction
/// fetches get no record: decode sets them aside and counts them, and
/// each lane adds a block's count once. Kernel lanes then step by pure
/// array indexing, with no hashing and no cache probing; match lanes
/// hand their machines the indices themselves as block numbers, so each
/// machine's [`BlockTable`](dirsim_mem::BlockTable) indexes densely too
/// (see [`Lane::step_decoded`](crate::engine::Lane::step_decoded)). The
/// record carries indices, not addresses, to stay within 16 bytes.
#[derive(Debug, Clone, Copy)]
pub(crate) struct DecodedRef {
    /// Dense bank-wide block index.
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

// Every lane of a bank streams a decode block of these records, so a
// record carries dense indices, not addresses, and stays within 16 bytes.
const _: () = assert!(std::mem::size_of::<DecodedRef>() <= 16);

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
    /// Current interned state per bank block index (grown to the bank's
    /// interned-block count once per decode block; [`ABSENT`] until the
    /// block's first data reference).
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

    /// Current interned state at bank block index `block_idx`.
    #[inline]
    pub(crate) fn state_of(&self, block_idx: u32) -> u32 {
        self.states[block_idx as usize]
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
        self.states[block_idx as usize] = self.table.nexts[idx];
        self.track(idx);
    }

    /// Settles one step's tracked-block delta through the row at `idx`,
    /// for a step whose block state the caller moves itself.
    #[inline]
    pub(crate) fn track(&mut self, idx: usize) {
        let delta = self.table.rows[idx].tracked_delta;
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
    /// Like every match lane of a bank, the machine knows each block by
    /// its dense bank index, and it meets them in index order, so its
    /// block table stays dense.
    pub(crate) fn materialize(&self) -> Box<dyn CoherenceProtocol> {
        let mut machine = self.table.scheme.build(self.table.caches);
        for (i, &state) in (0u64..).zip(&self.states) {
            if state == ABSENT {
                continue;
            }
            for &e in &self.table.path_to(state) {
                apply_event(machine.as_mut(), BlockAddr::new(i), e);
            }
        }
        machine
    }
}

/// Why a joint kernel handed its lanes back to their own kernels.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum JointSplit {
    /// A fresh joint state would pass [`JOINT_ROW_BUDGET`], or a joint or
    /// lane state id would outgrow its 16 bits.
    Budget,
    /// A lane's own [`KernelTable::ensure_row`] overflowed.
    LaneOverflow,
}

impl JointSplit {
    /// The `reason` label of the engine's `kernel_joint_splits` counter.
    pub(crate) fn label(self) -> &'static str {
        match self {
            JointSplit::Budget => "budget",
            JointSplit::LaneOverflow => "lane_overflow",
        }
    }
}

/// A joint state id. Joint tables are the bank's main memory cost, and a
/// joint state exists per visited tuple, about one per block on the paper
/// traces, so ids, tuple entries and hit counts are 16 bits wide.
type JointId = u16;

/// Marker of an unfilled joint row, and of a free index slot.
const NO_JOINT: JointId = JointId::MAX;

/// One memoized joint transition: the successor joint state, and the
/// batched count of resident steps through it, modulo 2^16 — a count
/// that wraps carries into the lanes' own rows at once. Both sit in one
/// 4-byte record because the hot loop reads the one and bumps the other.
#[derive(Debug, Clone, Copy)]
struct JointRow {
    next: JointId,
    hits: u16,
}

impl JointRow {
    const UNFILLED: JointRow = JointRow {
        next: NO_JOINT,
        hits: 0,
    };
}

/// Every lane of a bank stepped as one product machine.
///
/// Every scheme keeps its state per block, so the tuple of a block's
/// lane states is itself a finite-state machine, and its transitions can
/// be memoized once for all lanes. A joint state id names one interned
/// tuple (joint state 0 is every lane [`ABSENT`]); a joint row maps a
/// (joint state, data event) pair to the successor joint state and
/// counts the resident steps taken through it. Rows fill lazily from
/// each lane's own [`KernelTable::ensure_row`], so the lane tables stay
/// the only row authority: a joint row stores no lane row index, since
/// lane `l`'s row for the same step is `tuple[l] × events + event`.
/// Draining adds each joint hit count to every lane's row hits, so the
/// lanes' results come out of their own drains bit for bit.
///
/// While joined, a lane kernel's `states` stay empty and its `tracked`
/// ledger counts only residency-miss steps; the joint's own per-block
/// states stand in for all of them. [`Self::split`] writes them back.
pub(crate) struct JointKernel {
    /// The lanes' own kernels, in lane order.
    kernels: Vec<LaneKernel>,
    /// Joint events per state: `2 * caches` (a read and a write per
    /// cache). Evictions never hit a joint row: they take the cold path.
    events: usize,
    /// Interned joint states.
    count: usize,
    /// Interned tuples, `kernels.len()` lane state ids per joint state.
    tuples: Paged<u16>,
    /// Open-addressed index into `tuples`: a joint id, or [`NO_JOINT`].
    /// Its length is a power of two, and at most half of it is in use.
    slots: Vec<JointId>,
    /// `events` rows per joint state, filled lazily.
    rows: Paged<JointRow>,
    /// Current joint state per bank block index.
    states: Vec<JointId>,
    /// A successor tuple being built, recycled across fills.
    next_tuple: Vec<u16>,
}

/// Total joint-row budget per bank (joint states × joint events): a
/// joint state has two events per cache to a lane state's three, so the
/// joint's state budget equals one lane's. A joint state space that
/// outgrows every lane's trips it (`budget`); one that grows only as
/// fast as its widest lane's lets that lane overflow first
/// (`lane_overflow`). At the paper's 4 caches it allows 21,845 joint
/// states, and at 16 lanes each costs about 70 bytes (tuple, rows and
/// index), so the tables stay within about 1.5 MB. Past the budget the
/// bank splits back into per-lane kernels.
const JOINT_ROW_BUDGET: usize = ROW_BUDGET / 3 * 2;

impl JointKernel {
    /// Joins the fresh lane kernels of one bank at `caches` caches.
    pub(crate) fn new(kernels: Vec<LaneKernel>, caches: u32) -> JointKernel {
        let lanes = kernels.len();
        assert!(lanes > 0, "a joint kernel needs a lane");
        debug_assert!(kernels.iter().all(|k| k.states.is_empty()));
        let events = 2 * caches as usize;
        let mut joint = JointKernel {
            kernels,
            events,
            count: 0,
            tuples: Paged::new(lanes, 0),
            slots: vec![NO_JOINT; 16],
            rows: Paged::new(events, JointRow::UNFILLED),
            states: Vec::new(),
            next_tuple: Vec::with_capacity(lanes),
        };
        let absent = joint
            .intern(&vec![ABSENT as u16; lanes])
            .expect("one joint state fits the budget");
        debug_assert_eq!(u32::from(absent), ABSENT);
        joint
    }

    /// Steps every lane over a decoded block of data references. A
    /// resident reference whose joint row is filled costs one state load,
    /// one row load and one hit count for all lanes; anything else takes
    /// [`Self::step_cold`]. `blocks` is the bank's interned-block count.
    /// Each lane counts the references stepped.
    ///
    /// # Errors
    ///
    /// The position of the record that split the joint, and why. That
    /// record mutated no block state, so the lanes resume at it on their
    /// own kernels after [`Self::split`].
    pub(crate) fn step_block(
        &mut self,
        lanes: &mut [Lane],
        decoded: &[DecodedRef],
        blocks: usize,
    ) -> Result<(), (usize, JointSplit)> {
        if self.states.len() < blocks {
            self.states.resize(blocks, ABSENT as JointId);
        }
        for (j, &d) in decoded.iter().enumerate() {
            let b = d.block_idx as usize;
            let state = self.states[b];
            let e = joint_event(d.cache, d.write);
            let row = &mut self.rows.get_mut(usize::from(state))[e];
            if row.next != NO_JOINT && d.resident {
                row.hits = row.hits.wrapping_add(1);
                self.states[b] = row.next;
                if row.hits == 0 {
                    self.carry(state, e);
                }
                continue;
            }
            if let Err(split) = self.step_cold(lanes, d) {
                lanes.iter_mut().for_each(|l| l.count_joint_steps(j as u64));
                return Err((j, split));
            }
        }
        lanes
            .iter_mut()
            .for_each(|l| l.count_joint_steps(decoded.len() as u64));
        Ok(())
    }

    /// A step off the hot path: fill the joint row, then either count a
    /// resident hit or, on a residency miss, do each lane's
    /// [`Lane::account_kernel_miss`] from its tuple states. Everything
    /// fallible — the data row, the victim's eviction rows and its
    /// successor tuple — happens before any block state moves.
    #[cold]
    fn step_cold(&mut self, lanes: &mut [Lane], d: DecodedRef) -> Result<(), JointSplit> {
        let b = d.block_idx as usize;
        let state = self.states[b];
        let e = joint_event(d.cache, d.write);
        if self.rows.get(usize::from(state))[e].next == NO_JOINT {
            let next = self.successor(state, data_event(d.cache, d.write))?;
            self.rows.get_mut(usize::from(state))[e].next = next;
        }
        let row = &mut self.rows.get_mut(usize::from(state))[e];
        let next = row.next;
        if d.resident {
            row.hits = row.hits.wrapping_add(1);
            self.states[b] = next;
            if row.hits == 0 {
                self.carry(state, e);
            }
            return Ok(());
        }
        let victim = (d.victim_idx != NO_VICTIM).then_some(d.victim_idx as usize);
        let evicted = match victim {
            Some(v) => Some(self.successor(self.states[v], evict_event(d.cache))?),
            None => None,
        };
        let lane_state = |s: JointId, l: usize| usize::from(self.tuples.get(usize::from(s))[l]);
        for (l, (lane, k)) in lanes.iter_mut().zip(&mut self.kernels).enumerate() {
            let evict = victim
                .map(|v| lane_state(self.states[v], l) * k.table.events + evict_event(d.cache));
            let data = lane_state(state, l) * k.table.events + data_event(d.cache, d.write);
            lane.account_kernel_miss(k, evict, data);
            evict.into_iter().chain([data]).for_each(|idx| k.track(idx));
        }
        if let (Some(v), Some(e)) = (victim, evicted) {
            self.states[v] = e;
        }
        self.states[b] = next;
        Ok(())
    }

    /// The joint successor of `state` under lane event `event`: every
    /// lane's own row for the step, ensured, and the tuple of their
    /// successors, interned. Mutates only tables.
    fn successor(&mut self, state: JointId, event: usize) -> Result<JointId, JointSplit> {
        let mut next = std::mem::take(&mut self.next_tuple);
        next.clear();
        let tuple = self.tuples.get(usize::from(state));
        for (k, &s) in self.kernels.iter_mut().zip(tuple) {
            let row = k
                .ensure_row(u32::from(s), event)
                .map_err(|KernelOverflow| JointSplit::LaneOverflow)?;
            next.push(u16::try_from(k.table.nexts[row]).map_err(|_| JointSplit::Budget)?);
        }
        let id = self.intern(&next);
        self.next_tuple = next;
        id
    }

    /// The joint id of `tuple`, interned on first sight.
    fn intern(&mut self, tuple: &[u16]) -> Result<JointId, JointSplit> {
        let at = match self.find(tuple) {
            Ok(id) => return Ok(id),
            Err(at) => at,
        };
        let id = match JointId::try_from(self.count) {
            Ok(id) if id != NO_JOINT && (self.count + 1) * self.events <= JOINT_ROW_BUDGET => id,
            _ => return Err(JointSplit::Budget),
        };
        self.slots[at] = id;
        self.tuples.push(self.count).copy_from_slice(tuple);
        self.rows.push(self.count);
        self.count += 1;
        if 2 * self.count > self.slots.len() {
            self.grow_index();
        }
        Ok(id)
    }

    /// Looks `tuple` up: its joint id, or the free slot it would take.
    fn find(&self, tuple: &[u16]) -> Result<JointId, usize> {
        let mask = self.slots.len() - 1;
        let mut hasher = FxHasher::default();
        tuple.hash(&mut hasher);
        // Multiplicative hashes mix best into their high bits.
        let mut at = (hasher.finish() >> (64 - self.slots.len().trailing_zeros())) as usize;
        loop {
            match self.slots[at] {
                NO_JOINT => return Err(at),
                id if self.tuples.get(usize::from(id)) == tuple => return Ok(id),
                _ => at = (at + 1) & mask,
            }
        }
    }

    /// Doubles the tuple index and re-inserts every joint state.
    fn grow_index(&mut self) {
        self.slots = vec![NO_JOINT; 2 * self.slots.len()];
        for id in 0..self.count {
            let Err(at) = self.find(self.tuples.get(id)) else {
                unreachable!("interned tuples are distinct");
            };
            self.slots[at] = id as JointId;
        }
    }

    /// Adds `n` steps through the joint row of `state` under joint
    /// event `e` to every lane's own row for the same step.
    fn drain_row(&mut self, state: usize, e: usize, n: u64) {
        let event = data_event(CacheId::new((e / 2) as u32), e % 2 == 1);
        let tuple = self.tuples.get(state);
        for (k, &s) in self.kernels.iter_mut().zip(tuple) {
            k.table.hits[usize::from(s) * k.table.events + event] += n;
        }
    }

    /// Carries a joint row's wrapped hit count, 2^16 steps, into the
    /// lanes' rows.
    #[cold]
    fn carry(&mut self, state: JointId, e: usize) {
        self.drain_row(usize::from(state), e, 1 << 16);
    }

    /// Drains every joint hit count into the lanes' rows, and zeroes it.
    fn drain_hits(&mut self) {
        for state in 0..self.count {
            for e in 0..self.events {
                let n = std::mem::take(&mut self.rows.get_mut(state)[e].hits);
                if n != 0 {
                    self.drain_row(state, e, u64::from(n));
                }
            }
        }
    }

    /// Hands every lane its kernel back to step on its own: the joint
    /// hit counts drained into its rows, and its block states written
    /// back from the tuples.
    pub(crate) fn split(mut self) -> Vec<LaneKernel> {
        self.drain_hits();
        for (l, k) in self.kernels.iter_mut().enumerate() {
            k.states = self
                .states
                .iter()
                .map(|&s| u32::from(self.tuples.get(usize::from(s))[l]))
                .collect();
        }
        self.kernels
    }

    /// Hands every lane its kernel back at the end of the stream, with
    /// the joint hit counts drained into its rows. The lanes only finish,
    /// so their block states stay unwritten.
    pub(crate) fn finish(mut self) -> Vec<LaneKernel> {
        self.drain_hits();
        self.kernels
    }
}

/// Joint event index layout: `cache * 2 + {0: read, 1: write}`.
#[inline]
fn joint_event(cache: CacheId, write: bool) -> usize {
    cache.index() * 2 + usize::from(write)
}

/// Joint states per page of a [`Paged`] table.
const PAGE_STATES: usize = 256;

/// A joint table: `width` records per joint state, in pages of
/// [`PAGE_STATES`] states. It grows a page at a time and never moves: a
/// table grown by doubling would leave each outgrown copy behind in the
/// allocator, which keeps freed memory per thread, so a sweep's pool
/// threads would each hold several copies of their banks' tables.
struct Paged<T> {
    width: usize,
    fill: T,
    pages: Vec<Box<[T]>>,
}

impl<T: Copy> Paged<T> {
    fn new(width: usize, fill: T) -> Self {
        Paged {
            width,
            fill,
            pages: Vec::new(),
        }
    }

    /// The records of joint state `state`.
    #[inline]
    fn get(&self, state: usize) -> &[T] {
        &self.pages[state / PAGE_STATES][state % PAGE_STATES * self.width..][..self.width]
    }

    #[inline]
    fn get_mut(&mut self, state: usize) -> &mut [T] {
        &mut self.pages[state / PAGE_STATES][state % PAGE_STATES * self.width..][..self.width]
    }

    /// The records of the next joint state, `state`, holding `fill`.
    fn push(&mut self, state: usize) -> &mut [T] {
        if state == self.pages.len() * PAGE_STATES {
            let page = vec![self.fill; PAGE_STATES * self.width];
            self.pages.push(page.into_boxed_slice());
        }
        self.get_mut(state)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dirsim_protocol::DirSpec;

    #[test]
    fn absent_state_transitions_to_tracked() {
        let mut k = LaneKernel::new(Scheme::Directory(DirSpec::dir0_b()), 4).unwrap();
        k.states.resize(8, ABSENT);
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
        k.states.resize(2, ABSENT);
        // The machine knows a block by its bank index, as a match lane
        // does: block 1 here, with block 0 present too.
        let block = BlockAddr::new(1);
        let idx = k.ensure_row(k.state_of(0), data_event(CacheId::new(1), true));
        k.commit(0, idx.unwrap());
        // read by 0, read by 1, write by 2 — exercises pointer eviction.
        for ev in [
            data_event(CacheId::new(0), false),
            data_event(CacheId::new(1), false),
            data_event(CacheId::new(2), true),
        ] {
            let idx = k.ensure_row(k.state_of(1), ev).unwrap();
            k.commit(1, idx);
        }
        let materialized = k.materialize();

        let mut direct = scheme.build(3);
        direct.on_data_ref(CacheId::new(1), BlockAddr::new(0), true);
        direct.on_data_ref(CacheId::new(0), block, false);
        direct.on_data_ref(CacheId::new(1), block, false);
        direct.on_data_ref(CacheId::new(2), block, true);

        assert_eq!(materialized.snapshot(), direct.snapshot());
        assert_eq!(k.tracked(), 2);
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
            k.states.resize(1, ABSENT);
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
    fn joint_drain_equals_each_lane_stepped_alone() {
        // Data references to 40 blocks by 4 caches, a third of them one
        // cache re-reading a block no other cache touches, so that
        // block's self-loop row carries its 16-bit joint count over. A lane fills
        // its rows in the same order joined as alone (a lane row is new
        // exactly when the joint row that needs it is), so its state ids
        // and hit table must match the lone lane's entry for entry.
        use crate::engine::{Lane, SimConfig};
        let caches = 4;
        let blocks = 40;
        let mut x = 0x9e37_79b9_7f4a_7c15u64;
        let decoded: Vec<DecodedRef> = (0..300_000u32)
            .map(|i| {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                let hot = i % 3 == 0;
                DecodedRef {
                    block_idx: if hot {
                        0
                    } else {
                        1 + (x % (blocks - 1)) as u32
                    },
                    victim_idx: NO_VICTIM,
                    cache: CacheId::new(if hot { 0 } else { (x >> 8) as u32 % caches }),
                    write: !hot && (x >> 16) % 4 == 0,
                    resident: true,
                }
            })
            .collect();
        let schemes: Vec<Scheme> = ["Dir0B", "Dir1NB", "DirnNB", "CoarseVector", "WTI", "Dragon"]
            .iter()
            .map(|name| name.parse().expect("known scheme"))
            .collect();
        let config = SimConfig::default();
        let lane = |s: Scheme| Lane::new(&config, s.name());
        let kernel = |s: Scheme| LaneKernel::new(s, caches).expect("a tabled width");

        let mut joint = JointKernel::new(schemes.iter().map(|&s| kernel(s)).collect(), caches);
        let mut lanes: Vec<Lane> = schemes.iter().map(|&s| lane(s)).collect();
        for block in decoded.chunks(4_096) {
            assert!(joint.step_block(&mut lanes, block, blocks as usize).is_ok());
        }
        for (joined, &s) in joint.finish().iter().zip(&schemes) {
            let (mut alone, mut lane) = (kernel(s), lane(s));
            for block in decoded.chunks(4_096) {
                assert!(lane
                    .step_kernel_block(&mut alone, block, blocks as usize)
                    .is_none());
            }
            assert_eq!(joined.table.meta.len(), alone.table.meta.len(), "{s}");
            assert_eq!(joined.table.hits, alone.table.hits, "{s}");
            assert!(alone.table.hits.iter().any(|&n| n > 1 << 16), "{s}");
        }
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
        k.states.resize(256, ABSENT);
        let mut log: Vec<(BlockAddr, CacheId)> = Vec::new();
        let mut overflowed = false;
        'blocks: for b in 0..256u32 {
            let block = BlockAddr::new(u64::from(b));
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

        let materialized = k.materialize();
        let mut direct = scheme.build(caches);
        for &(block, cache) in &log {
            direct.on_data_ref(cache, block, false);
        }
        assert_eq!(materialized.snapshot(), direct.snapshot());
        assert_eq!(k.tracked(), materialized.tracked_blocks() as u64);
    }
}
