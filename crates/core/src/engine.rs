//! The trace-driven simulation engine (§4 of the paper).
//!
//! [`Simulator::run`] drives an interleaved reference stream through one
//! protocol over a system of infinite caches: instruction fetches are
//! counted but cause no coherence traffic, data references are mapped to
//! 16-byte blocks and attributed to a cache (per-process by default, §4.4),
//! and the protocol's [`RefOutcome`](dirsim_protocol::RefOutcome)s are accumulated into event
//! frequencies, bus-operation counts, and the Figure 1 invalidation
//! histogram.
//!
//! With [`SimConfig::check_oracle`] enabled, every data movement the
//! protocol claims is replayed against the protocol-independent
//! [`ShadowMemory`] oracle, and every load/store is checked to observe the
//! globally latest value — a full coherence-correctness audit of the
//! protocol state machine.

use std::fmt;

use dirsim_cost::{CostBreakdown, CostModel};
use dirsim_mem::{
    BlockAddr, BlockMap, CacheGeometry, CacheId, CacheStorage, FiniteCache, InvalidGeometry,
    OracleViolation, ShadowMemory, SharingModel,
};
use dirsim_protocol::{CoherenceProtocol, EventCounts, EventKind, OpCounts};
use dirsim_trace::{AccessKind, MemRef};

use crate::histogram::FanoutHistogram;
use crate::invariant;
use crate::invariant::InvariantViolation;
use crate::kernel::{self, KernelOverflow, KernelPolicy, LaneKernel};

/// Engine configuration.
#[derive(Debug, Clone, Copy)]
pub struct SimConfig {
    /// Byte-address to block mapping (16-byte blocks by default).
    pub block_map: BlockMap,
    /// Cache attribution: per-process (paper default) or per-processor.
    pub sharing: SharingModel,
    /// Replay data movements against the coherence oracle and fail on any
    /// violation. Costs extra time and memory; used pervasively in tests.
    pub check_oracle: bool,
    /// Finite per-cache geometry. `None` (the paper's model) simulates
    /// infinite caches; `Some` adds LRU capacity replacement, whose
    /// re-fetches and write-backs are the paper's §4 "costs due to the
    /// finite cache size".
    pub geometry: Option<CacheGeometry>,
    /// Audit every reference against the [`crate::invariant`] catalogue
    /// (SWMR, event classification, fan-out, directory agreement) and
    /// panic on the first violation. Off by default in every build, so a
    /// default run steps the configuration that produces every reported
    /// number; the crate's `invariants` feature turns the default on.
    pub check_invariants: bool,
    /// Whether lanes may step through memoized transition-table kernels
    /// instead of the match-based protocol machines (see
    /// [`crate::kernel`]). Results are bit-identical either way; audited
    /// runs (oracle or invariants) always take the match path.
    pub kernels: KernelPolicy,
}

impl Default for SimConfig {
    fn default() -> Self {
        SimConfig {
            block_map: BlockMap::paper(),
            sharing: SharingModel::PerProcess,
            check_oracle: false,
            geometry: None,
            check_invariants: cfg!(feature = "invariants"),
            kernels: KernelPolicy::default(),
        }
    }
}

impl SimConfig {
    /// Checks the configuration for combinations that would otherwise fail
    /// mid-run (today: an unusable finite-cache geometry). Every
    /// [`BroadcastSimulator`](crate::broadcast::BroadcastSimulator) and
    /// [`Experiment`](crate::experiment::Experiment) run calls it before
    /// any engine work, so a bad geometry surfaces as a typed error, not a
    /// panic mid-run.
    ///
    /// ```
    /// use dirsim::SimConfig;
    /// use dirsim_mem::CacheGeometry;
    ///
    /// let config = SimConfig {
    ///     check_oracle: true,
    ///     geometry: Some(CacheGeometry { sets: 64, ways: 4 }),
    ///     ..SimConfig::default()
    /// };
    /// assert!(config.validate().is_ok());
    ///
    /// // Non-power-of-two set counts are rejected:
    /// let err = SimConfig {
    ///     geometry: Some(CacheGeometry { sets: 3, ways: 4 }),
    ///     ..SimConfig::default()
    /// }
    /// .validate()
    /// .unwrap_err();
    /// assert!(err.to_string().contains("invalid"));
    /// ```
    ///
    /// # Errors
    ///
    /// Returns the first [`SimConfigError`] found.
    pub fn validate(&self) -> Result<(), SimConfigError> {
        if let Some(geometry) = self.geometry {
            geometry.validate().map_err(SimConfigError::Geometry)?;
        }
        Ok(())
    }

    /// Whether lanes under this configuration may step through table
    /// kernels: both audits must be off (rows carry no movements or
    /// probes) and the policy must allow it.
    pub(crate) fn kernel_eligible(&self) -> bool {
        !self.check_oracle && !self.check_invariants && self.kernels != KernelPolicy::Disabled
    }
}

/// An invalid [`SimConfig`] combination, caught at construction time.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SimConfigError {
    /// The finite-cache geometry is unusable (zero sets/ways or a
    /// non-power-of-two set count).
    Geometry(InvalidGeometry),
    /// The engine was asked to decode zero references per chunk.
    ZeroChunk,
    /// The engine was asked to run with zero shard workers.
    ZeroWorkers,
    /// A run was asked to simulate no schemes.
    NoSchemes,
    /// An experiment was asked to run with no workloads.
    NoWorkloads,
    /// A cache-count override is below what the input needs: one cache
    /// per id its reference stream names.
    TooFewCaches {
        /// The override.
        caches: u32,
        /// The caches the input needs.
        needed: u32,
    },
    /// A trace input holds no references; the payload names it.
    EmptyTrace(String),
}

impl fmt::Display for SimConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SimConfigError::Geometry(e) => write!(f, "invalid simulation config: {e}"),
            SimConfigError::ZeroChunk => {
                write!(f, "invalid simulation config: chunk size must be positive")
            }
            SimConfigError::ZeroWorkers => {
                write!(
                    f,
                    "invalid simulation config: worker count must be positive"
                )
            }
            SimConfigError::NoSchemes => {
                write!(f, "invalid simulation config: no schemes to simulate")
            }
            SimConfigError::NoWorkloads => {
                write!(f, "invalid simulation config: no workloads to simulate")
            }
            SimConfigError::TooFewCaches { caches, needed } => write!(
                f,
                "invalid simulation config: {caches} caches are too few, the input needs {needed}"
            ),
            SimConfigError::EmptyTrace(name) => {
                write!(f, "invalid simulation config: trace `{name}` is empty")
            }
        }
    }
}

impl std::error::Error for SimConfigError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            // Displayed above, so only its own source is chained.
            SimConfigError::Geometry(e) => e.source(),
            SimConfigError::ZeroChunk
            | SimConfigError::ZeroWorkers
            | SimConfigError::NoSchemes
            | SimConfigError::NoWorkloads
            | SimConfigError::TooFewCaches { .. }
            | SimConfigError::EmptyTrace(_) => None,
        }
    }
}

/// How the sharded engine partitions a reference stream across workers.
///
/// A shard key maps every block to one worker such that *all* state the
/// engine mutates while stepping a reference stays inside that worker:
/// protocol state (directory entry, sharer set, dirty bit) is per block
/// under every key, and finite-cache LRU state is per set. Infinite
/// caches therefore shard on the raw block address; finite caches shard
/// on the set index — a pure function of the address — so replacement
/// decisions inside a set see exactly the serial access order and the
/// partition stays exact, never approximate.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ShardKey {
    /// Partition by raw block address (`block % workers`): the paper's
    /// infinite-cache model, where no engine state couples distinct
    /// blocks.
    Block,
    /// Partition by cache set index (`(block & set_mask) % workers`):
    /// finite caches, where LRU replacement couples blocks within a set
    /// but never across sets.
    Set {
        /// `sets - 1` — the same power-of-two mask
        /// [`FiniteCache`] derives from the geometry, so the key and the
        /// cache always agree on which set a block lives in.
        set_mask: u64,
    },
}

impl ShardKey {
    /// The key that makes sharded execution exact for `config`: blocks
    /// for infinite caches, sets for finite ones.
    ///
    /// The caller is expected to have validated the configuration (see
    /// [`SimConfig::validate`]); an unvalidated non-power-of-two set
    /// count would yield a mask that disagrees with [`FiniteCache`].
    pub fn for_config(config: &SimConfig) -> ShardKey {
        match config.geometry {
            None => ShardKey::Block,
            Some(geometry) => ShardKey::Set {
                set_mask: u64::from(geometry.sets) - 1,
            },
        }
    }

    /// The worker that owns `block` among `workers` shards.
    #[inline]
    pub fn shard_of(self, block: BlockAddr, workers: usize) -> usize {
        let key = match self {
            ShardKey::Block => block.raw(),
            ShardKey::Set { set_mask } => block.raw() & set_mask,
        };
        (key % workers as u64) as usize
    }
}

/// Error produced when the oracle catches a protocol misbehaving.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SimError {
    /// Protocol that misbehaved.
    pub scheme: String,
    /// Zero-based index of the reference that exposed the violation.
    pub ref_index: u64,
    /// The violation.
    pub violation: OracleViolation,
}

impl fmt::Display for SimError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "coherence violation in {} at reference {}: {}",
            self.scheme, self.ref_index, self.violation
        )
    }
}

impl std::error::Error for SimError {
    // The violation is displayed above, so only its own source is chained.
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        self.violation.source()
    }
}

/// Accumulated results of one protocol over one reference stream.
#[derive(Debug, Clone, PartialEq)]
pub struct SimResult {
    /// Protocol name (`Dir0B`, `Dragon`, …).
    pub scheme: String,
    /// Table 4 event counts.
    pub events: EventCounts,
    /// Bus-operation counts for cost models.
    pub ops: OpCounts,
    /// References that caused at least one bus operation.
    pub transactions: u64,
    /// Total references processed (instructions included).
    pub refs: u64,
    /// Figure 1 invalidation fan-out histogram.
    pub fanout: FanoutHistogram,
    /// Distinct blocks touched (= cold misses).
    pub distinct_blocks: u64,
    /// Capacity replacements performed (finite-cache mode only).
    pub capacity_evictions: u64,
}

impl SimResult {
    fn new(scheme: String) -> Self {
        SimResult {
            scheme,
            events: EventCounts::new(),
            ops: OpCounts::new(),
            transactions: 0,
            refs: 0,
            fanout: FanoutHistogram::new(),
            distinct_blocks: 0,
            capacity_evictions: 0,
        }
    }

    /// Prices this run under a cost model.
    ///
    /// # Panics
    ///
    /// Panics if the run processed zero references.
    pub fn breakdown(&self, model: CostModel) -> CostBreakdown {
        CostBreakdown::price(&self.ops, self.refs, self.transactions, model)
    }

    /// Bus cycles per memory reference under a cost model — the paper's
    /// headline metric.
    pub fn cycles_per_ref(&self, model: CostModel) -> f64 {
        self.breakdown(model).cycles_per_ref()
    }

    /// Merges another run (e.g. a different trace) into this one.
    ///
    /// # Panics
    ///
    /// Panics if the schemes differ.
    pub fn merge(&mut self, other: &SimResult) {
        assert_eq!(self.scheme, other.scheme, "cannot merge different schemes");
        self.events.merge(&other.events);
        self.ops.merge(&other.ops);
        self.transactions += other.transactions;
        self.refs += other.refs;
        self.fanout.merge(&other.fanout);
        self.distinct_blocks += other.distinct_blocks;
        self.capacity_evictions += other.capacity_evictions;
    }
}

/// Why one audited reference step failed.
///
/// This is the typed form of the engine's per-reference failure modes,
/// shared by [`Simulator`], the multi-protocol
/// [`BroadcastSimulator`](crate::broadcast::BroadcastSimulator), and the
/// `dirsim-verify` lockstep checkers (via [`audit_step`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StepFailure {
    /// A protocol invariant from the [`crate::invariant`] catalogue.
    Invariant {
        /// The violation.
        violation: InvariantViolation,
        /// Whether it fired while auditing a capacity eviction.
        during_eviction: bool,
    },
    /// The shadow-memory oracle rejected a claimed data movement or caught
    /// a stale read.
    Oracle(OracleViolation),
}

/// One protocol's accumulation state over a reference stream: its optional
/// shadow oracle and running [`SimResult`].
///
/// `Lane` is the unit both engines are built from: [`Simulator::run`]
/// drives one lane, the broadcast engine drives one per scheme (and, when
/// sharded, one per scheme per worker). A lane holds no finite-cache
/// state: which blocks a cache holds depends only on the reference stream
/// and the geometry, never on the scheme, so the caller owns the one LRU
/// replica: [`Simulator::run`] passes it to [`Lane::step`], and a lane
/// bank resolves residency itself and hands the lane a
/// [`kernel::DecodedRef`].
pub(crate) struct Lane {
    oracle: Option<ShadowMemory>,
    result: SimResult,
}

/// One data reference's access to an LRU replica (one [`FiniteCache`]
/// per cache, grown on demand): `touch`, then `insert` on a miss.
/// Returns whether the block was resident and the victim the insert
/// displaced, if any. Both decodes — [`Simulator::run`]'s private one and
/// the lane bank's shared one — access their replicas through here.
#[inline]
pub(crate) fn lru_access(
    finite: &mut Vec<FiniteCache<()>>,
    geometry: CacheGeometry,
    cache: CacheId,
    block: BlockAddr,
) -> (bool, Option<BlockAddr>) {
    while finite.len() <= cache.index() {
        finite.push(FiniteCache::new(geometry).expect("geometry validated at configuration time"));
    }
    let fc = &mut finite[cache.index()];
    if fc.touch(block).is_some() {
        return (true, None);
    }
    (false, fc.insert(block, ()).map(|(victim, ())| victim))
}

impl Lane {
    pub(crate) fn new(config: &SimConfig, scheme: String) -> Self {
        Lane {
            oracle: config.check_oracle.then(ShadowMemory::new),
            result: SimResult::new(scheme),
        }
    }

    /// Zero-based index of the next reference this lane will process.
    pub(crate) fn next_index(&self) -> u64 {
        self.result.refs
    }

    /// Advances the lane by one reference: the full engine step, including
    /// finite-cache residency against the caller's LRU replica `finite`,
    /// event/op accounting, and (when configured) the invariant and oracle
    /// audits. This decodes the reference itself — block mapping, cache
    /// attribution and LRU access — with no block interning: it is
    /// [`Simulator::run`]'s step, which shares no decode with the lane
    /// banks it checks.
    fn step(
        &mut self,
        config: &SimConfig,
        protocol: &mut dyn CoherenceProtocol,
        finite: &mut Vec<FiniteCache<()>>,
        r: MemRef,
    ) -> Result<(), StepFailure> {
        self.result.refs += 1;
        if r.kind == AccessKind::InstrFetch {
            self.result.events.record(EventKind::Instr);
            return Ok(());
        }
        let block = config.block_map.block_of(r.addr);
        let cache = config.sharing.cache_of(&r);
        let victim = config
            .geometry
            .and_then(|geometry| lru_access(finite, geometry, cache, block).1);
        let write = r.kind == AccessKind::Write;
        let (oracle, result) = (self.oracle.as_mut(), &mut self.result);
        step_data_ref(
            config, protocol, oracle, result, cache, block, write, victim,
        )
    }

    /// Adds a decode block's `n` instruction fetches: each is a reference
    /// and an [`EventKind::Instr`] event, with no protocol work, so the
    /// bank's lanes count them once per block instead of stepping them.
    pub(crate) fn count_fetches(&mut self, n: u64) {
        self.result.refs += n;
        self.result.events.record_n(EventKind::Instr, n);
    }

    /// Advances the lane by one data reference the bank already decoded:
    /// the match-path twin of [`Self::step_kernel_block`], with the block
    /// and victim addresses read back from the bank's dense-index table
    /// `addrs`.
    pub(crate) fn step_decoded(
        &mut self,
        config: &SimConfig,
        protocol: &mut dyn CoherenceProtocol,
        addrs: &[BlockAddr],
        d: kernel::DecodedRef,
    ) -> Result<(), StepFailure> {
        self.result.refs += 1;
        let block = addrs[d.block_idx as usize];
        let victim = (d.victim_idx != kernel::NO_VICTIM).then(|| addrs[d.victim_idx as usize]);
        let (oracle, result) = (self.oracle.as_mut(), &mut self.result);
        step_data_ref(
            config, protocol, oracle, result, d.cache, block, d.write, victim,
        )
    }

    /// Advances the lane over a decoded block of data references through
    /// a table kernel: the same accumulation as [`Lane::step`] with both
    /// audits off, driven by memoized transition rows instead of the
    /// protocol machine. The bank decodes each reference once — block
    /// mapping, cache attribution, block-index interning, and (under a
    /// finite geometry) the residency verdict and LRU victim from its one
    /// replica — and every lane replays the block, so the per-record hot
    /// path is pure array indexing with no hashing and no cache probing.
    /// `blocks` is the bank's interned-block count: the lane's state
    /// table grows to it once, up front, instead of once per record.
    ///
    /// Returns the position of the record that overflowed the kernel's
    /// row budget, if one did. Row lookups happen *before* any state
    /// mutation, so that record left the lane exactly as it was: every
    /// record before it is stepped and counted, and it and the rest can
    /// be re-stepped through [`Self::step_decoded`] after materializing
    /// the protocol.
    pub(crate) fn step_kernel_block(
        &mut self,
        kernel: &mut LaneKernel,
        decoded: &[kernel::DecodedRef],
        blocks: usize,
    ) -> Option<usize> {
        if kernel.states.len() < blocks {
            kernel.states.resize(blocks, kernel::ABSENT);
        }
        for (j, &d) in decoded.iter().enumerate() {
            // Hot path: the state lookup, the row lookup, and the hit
            // count are all array indexing. Per-row counter effects are
            // not accumulated here: the step is recorded as
            // `hits[idx] += 1` and multiplied out once at drain time (see
            // `LaneKernel::drain_hits`), which is bit-identical because
            // every counter is a commutative sum.
            let LaneKernel { table, states, .. } = &mut *kernel;
            let i = d.block_idx as usize;
            let stepped = match table.ensure_row(states[i], kernel::data_event(d.cache, d.write)) {
                Ok(idx) if d.resident => {
                    table.hits[idx] += 1;
                    states[i] = table.nexts[idx];
                    continue;
                }
                // Residency miss: may need two block slots at once (data
                // + victim), so it takes the cold path with the prepared
                // data row.
                Ok(idx) => self.kernel_step_miss(kernel, d, idx),
                Err(overflow) => Err(overflow),
            };
            if stepped.is_err() {
                self.result.refs += j as u64;
                return Some(j);
            }
        }
        self.result.refs += decoded.len() as u64;
        None
    }

    /// The finite-geometry residency-miss half of
    /// [`Self::step_kernel_block`]: prepares the (possible) eviction row
    /// before any commit (the data row arrives pre-ensured from the
    /// caller), so [`KernelOverflow`] still leaves the lane pristine,
    /// then accounts the step and moves both blocks. The caller counts
    /// the reference.
    #[cold]
    fn kernel_step_miss(
        &mut self,
        kernel: &mut LaneKernel,
        d: kernel::DecodedRef,
        data_idx: usize,
    ) -> Result<(), KernelOverflow> {
        // Prepare: fallible, mutates only the kernel's table.
        let evict = if d.victim_idx != kernel::NO_VICTIM {
            Some(kernel.ensure_row(kernel.state_of(d.victim_idx), kernel::evict_event(d.cache))?)
        } else {
            None
        };
        // Commit: infallible.
        self.account_kernel_miss(kernel, evict, data_idx);
        if let Some(idx) = evict {
            kernel.commit(d.victim_idx, idx);
        }
        kernel.commit(d.block_idx, data_idx);
        Ok(())
    }

    /// Accounts one kernel residency-miss step from its prepared rows —
    /// the victim's eviction row, if the reference displaced one, and
    /// the data row — mirroring [`Lane::step`] field for field. Block
    /// states and the tracked-block ledger are the caller's to move: a
    /// lane's own kernel commits both rows, the joint kernel moves its
    /// tuples and tracks the rows in each lane. The LRU bookkeeping
    /// itself happened once, in the bank's decode, so only the
    /// accounting happens here — per step, because the bus-transaction
    /// count folds the data and eviction rows into one flag, which a
    /// per-row hit count cannot express.
    pub(crate) fn account_kernel_miss(
        &mut self,
        kernel: &LaneKernel,
        evict: Option<usize>,
        data_idx: usize,
    ) {
        let mut eviction_used_bus = false;
        if let Some(idx) = evict {
            self.result.capacity_evictions += 1;
            let row = kernel.row(idx);
            row.add_ops(&mut self.result.ops, 1);
            eviction_used_bus = row.used_bus();
        }
        let row = kernel.row(data_idx);
        if let Some(kind) = row.kind() {
            self.result.events.record(kind);
        }
        row.add_ops(&mut self.result.ops, 1);
        if row.used_bus() || eviction_used_bus {
            self.result.transactions += 1;
        }
        if let Some(fanout) = row.fanout() {
            self.result.fanout.record(fanout);
        }
    }

    /// Counts `n` data references a joint kernel stepped for this lane;
    /// their accounting arrives through the lane kernel's row hits and
    /// [`Self::account_kernel_miss`].
    pub(crate) fn count_joint_steps(&mut self, n: u64) {
        self.result.refs += n;
    }

    /// Finalises the lane into its [`SimResult`].
    pub(crate) fn finish(mut self, protocol: &dyn CoherenceProtocol) -> SimResult {
        self.result.distinct_blocks = protocol.tracked_blocks() as u64;
        self.result
    }

    /// Settles the kernel's batched row-hit counts into this lane's
    /// result (events, ops, transactions, fan-out, tracked ledger). Must
    /// run before the result or `kernel.tracked()` are read.
    pub(crate) fn absorb_kernel_hits(&mut self, kernel: &mut LaneKernel) {
        let result = &mut self.result;
        kernel.drain_hits(|row, n| {
            if let Some(kind) = row.kind() {
                result.events.record_n(kind, n);
            }
            if row.has_ops() {
                row.add_ops(&mut result.ops, n);
            }
            if row.used_bus() {
                result.transactions += n;
            }
            if let Some(fanout) = row.fanout() {
                result.fanout.record_n(fanout, n);
            }
        });
    }

    /// Finalises a kernel-stepped lane: the distinct-block count comes
    /// from the kernel's tracked-state ledger instead of a machine.
    pub(crate) fn finish_with_kernel(mut self, kernel: &mut LaneKernel) -> SimResult {
        self.absorb_kernel_hits(kernel);
        self.result.distinct_blocks = kernel.tracked();
        self.result
    }
}

/// The audited data-reference body shared by every execution path: a
/// capacity `victim` (finite caches) is evicted from the protocol state
/// *before* the access is classified, then the access is stepped.
#[allow(clippy::too_many_arguments)]
fn step_data_ref(
    config: &SimConfig,
    protocol: &mut dyn CoherenceProtocol,
    mut oracle: Option<&mut ShadowMemory>,
    result: &mut SimResult,
    cache: CacheId,
    block: BlockAddr,
    write: bool,
    victim: Option<BlockAddr>,
) -> Result<(), StepFailure> {
    let mut eviction_used_bus = false;
    if let Some(victim) = victim {
        result.capacity_evictions += 1;
        let ev = protocol.evict(cache, victim);
        for &op in &ev.ops {
            result.ops.record(op, 1);
        }
        eviction_used_bus = !ev.ops.is_empty();
        if config.check_invariants {
            if let Err(violation) = invariant::check_eviction(protocol, cache, victim, &ev) {
                return Err(StepFailure::Invariant {
                    violation,
                    during_eviction: true,
                });
            }
        }
        if let Some(oracle) = oracle.as_deref_mut() {
            invariant::replay_movements(oracle, &ev.movements, victim)
                .map_err(StepFailure::Oracle)?;
        }
    }
    let pre = config
        .check_invariants
        .then(|| protocol.probe(block))
        .flatten();
    let outcome = protocol.on_data_ref(cache, block, write);
    if config.check_invariants {
        invariant::check_data_ref(protocol, pre.as_ref(), cache, block, write, &outcome).map_err(
            |violation| StepFailure::Invariant {
                violation,
                during_eviction: false,
            },
        )?;
    }
    result.events.record(outcome.kind());
    for &op in &outcome.ops {
        result.ops.record(op, 1);
    }
    if outcome.is_bus_transaction() || eviction_used_bus {
        result.transactions += 1;
    }
    if let Some(fanout) = outcome.clean_write_fanout {
        result.fanout.record(fanout);
    }
    if let Some(oracle) = oracle {
        invariant::replay_movements(oracle, &outcome.movements, block)
            .map_err(StepFailure::Oracle)?;
        // The fundamental check: the referencing cache must now hold the
        // globally latest version of the block.
        oracle
            .check_read(cache, block)
            .map_err(StepFailure::Oracle)?;
    }
    Ok(())
}

/// Applies one data reference to `protocol` with the full invariant and
/// oracle audit — the per-reference primitive the engine and the
/// `dirsim-verify` lockstep/exploration checkers share.
///
/// # Errors
///
/// Returns the first [`StepFailure`] — an invariant violation, an oracle
/// rejection of a claimed data movement, or a stale final read.
pub fn audit_step(
    protocol: &mut dyn CoherenceProtocol,
    oracle: &mut ShadowMemory,
    cache: CacheId,
    block: BlockAddr,
    write: bool,
) -> Result<(), StepFailure> {
    let config = SimConfig {
        check_oracle: true,
        check_invariants: true,
        ..SimConfig::default()
    };
    let mut scratch = SimResult::new(String::new());
    step_data_ref(
        &config,
        protocol,
        Some(oracle),
        &mut scratch,
        cache,
        block,
        write,
        None,
    )
}

/// The trace-driven simulator (see module docs).
#[derive(Debug, Clone, Default)]
pub struct Simulator {
    config: SimConfig,
}

impl Simulator {
    /// Creates a simulator with the given configuration.
    pub fn new(config: SimConfig) -> Self {
        Simulator { config }
    }

    /// Creates a simulator with the paper's defaults (16-byte blocks,
    /// per-process sharing, oracle off).
    pub fn paper() -> Self {
        Simulator::default()
    }

    /// The active configuration.
    pub fn config(&self) -> &SimConfig {
        &self.config
    }

    /// Runs `protocol` over every reference of `refs`.
    ///
    /// # Errors
    ///
    /// Returns a [`SimError`] if oracle checking is enabled and the
    /// protocol commits a coherence violation.
    pub fn run<I>(
        &self,
        protocol: &mut dyn CoherenceProtocol,
        refs: I,
    ) -> Result<SimResult, SimError>
    where
        I: IntoIterator<Item = MemRef>,
    {
        let mut lane = Lane::new(&self.config, protocol.name());
        let mut finite = Vec::new();
        for r in refs {
            let index = lane.next_index();
            if let Err(failure) = lane.step(&self.config, protocol, &mut finite, r) {
                match failure {
                    StepFailure::Invariant {
                        violation,
                        during_eviction: true,
                    } => panic!(
                        "protocol invariant violated in {} at reference {index} \
                         (eviction): {violation}",
                        protocol.name()
                    ),
                    StepFailure::Invariant {
                        violation,
                        during_eviction: false,
                    } => panic!(
                        "protocol invariant violated in {} at reference {index}: {violation}",
                        protocol.name()
                    ),
                    StepFailure::Oracle(violation) => {
                        return Err(SimError {
                            scheme: protocol.name(),
                            ref_index: index,
                            violation,
                        })
                    }
                }
            }
        }
        Ok(lane.finish(protocol))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dirsim_protocol::{DirSpec, Scheme};
    use dirsim_trace::{Addr, CpuId, ProcessId};

    fn refs_two_cpus() -> Vec<MemRef> {
        let c0 = CpuId::new(0);
        let c1 = CpuId::new(1);
        let p0 = ProcessId::new(0);
        let p1 = ProcessId::new(1);
        vec![
            MemRef::instr(c0, p0, Addr::new(0x9000)),
            MemRef::read(c0, p0, Addr::new(0x100)),
            MemRef::read(c1, p1, Addr::new(0x100)),
            MemRef::write(c0, p0, Addr::new(0x100)),
            MemRef::read(c1, p1, Addr::new(0x100)),
        ]
    }

    #[test]
    fn counts_instructions_without_protocol_traffic() {
        let mut p = Scheme::Directory(DirSpec::dir0_b()).build(2);
        let result = Simulator::paper().run(p.as_mut(), refs_two_cpus()).unwrap();
        assert_eq!(result.refs, 5);
        assert_eq!(result.events[EventKind::Instr], 1);
    }

    #[test]
    fn classifies_the_standard_sequence() {
        let mut p = Scheme::Directory(DirSpec::dir0_b()).build(2);
        let result = Simulator::paper().run(p.as_mut(), refs_two_cpus()).unwrap();
        assert_eq!(result.events[EventKind::RmFirstRef], 1);
        assert_eq!(result.events[EventKind::RmBlkCln], 1);
        assert_eq!(result.events[EventKind::WhBlkCln], 1);
        assert_eq!(result.events[EventKind::RmBlkDrty], 1);
    }

    #[test]
    fn oracle_passes_for_correct_protocols() {
        let config = SimConfig {
            check_oracle: true,
            check_invariants: true,
            ..SimConfig::default()
        };
        for scheme in Scheme::paper_lineup() {
            let mut p = scheme.build(2);
            Simulator::new(config)
                .run(p.as_mut(), refs_two_cpus())
                .unwrap_or_else(|e| panic!("{e}"));
        }
    }

    #[test]
    fn transactions_count_bus_using_refs() {
        let mut p = Scheme::Directory(DirSpec::dir0_b()).build(2);
        let result = Simulator::paper().run(p.as_mut(), refs_two_cpus()).unwrap();
        // rm-blk-cln, wh-blk-cln, rm-blk-drty use the bus; instr, cold miss
        // and nothing else do.
        assert_eq!(result.transactions, 3);
    }

    #[test]
    fn fanout_recorded_on_clean_writes() {
        let mut p = Scheme::Directory(DirSpec::dir0_b()).build(2);
        let result = Simulator::paper().run(p.as_mut(), refs_two_cpus()).unwrap();
        assert_eq!(result.fanout.total(), 1);
        assert_eq!(result.fanout.count(1), 1);
    }

    #[test]
    fn per_processor_sharing_uses_cpu_ids() {
        // One process bouncing between two CPUs: per-process sees one
        // cache (all hits), per-processor sees two (coherence traffic).
        let p0 = ProcessId::new(0);
        let refs = vec![
            MemRef::read(CpuId::new(0), p0, Addr::new(0x40)),
            MemRef::read(CpuId::new(1), p0, Addr::new(0x40)),
        ];
        let mut per_process = Scheme::Directory(DirSpec::dir0_b()).build(2);
        let result = Simulator::paper()
            .run(per_process.as_mut(), refs.clone())
            .unwrap();
        assert_eq!(result.events[EventKind::RdHit], 1);

        let mut per_cpu = Scheme::Directory(DirSpec::dir0_b()).build(2);
        let config = SimConfig {
            sharing: SharingModel::PerProcessor,
            ..SimConfig::default()
        };
        let result = Simulator::new(config).run(per_cpu.as_mut(), refs).unwrap();
        assert_eq!(result.events[EventKind::RdHit], 0);
        assert_eq!(result.events[EventKind::RmBlkCln], 1);
    }

    #[test]
    fn merge_accumulates() {
        let mut p = Scheme::Wti.build(2);
        let sim = Simulator::paper();
        let mut a = sim.run(p.as_mut(), refs_two_cpus()).unwrap();
        let mut q = Scheme::Wti.build(2);
        let b = sim.run(q.as_mut(), refs_two_cpus()).unwrap();
        let refs_before = a.refs;
        a.merge(&b);
        assert_eq!(a.refs, refs_before * 2);
        assert_eq!(a.events.total(), a.refs);
    }

    #[test]
    #[should_panic(expected = "different schemes")]
    fn merge_rejects_mixed_schemes() {
        let sim = Simulator::paper();
        let mut p = Scheme::Wti.build(2);
        let mut a = sim.run(p.as_mut(), refs_two_cpus()).unwrap();
        let mut q = Scheme::Dragon.build(2);
        let b = sim.run(q.as_mut(), refs_two_cpus()).unwrap();
        a.merge(&b);
    }

    #[test]
    fn event_counts_partition_references() {
        let mut p = Scheme::Dragon.build(2);
        let result = Simulator::paper().run(p.as_mut(), refs_two_cpus()).unwrap();
        assert_eq!(result.events.total(), result.refs);
    }

    #[test]
    fn finite_cache_mode_adds_capacity_misses() {
        use dirsim_mem::CacheGeometry;
        // One process streaming over many blocks with a tiny cache.
        let p0 = ProcessId::new(0);
        let c0 = CpuId::new(0);
        let refs: Vec<MemRef> = (0..64u64)
            .cycle()
            .take(256)
            .map(|i| MemRef::read(c0, p0, Addr::new(i * 16)))
            .collect();

        let infinite = {
            let mut p = Scheme::Directory(DirSpec::dir0_b()).build(1);
            Simulator::paper()
                .run(p.as_mut(), refs.iter().copied())
                .unwrap()
        };
        assert_eq!(
            infinite.events.read_misses(),
            0,
            "64 cold misses, then hits"
        );
        assert_eq!(infinite.capacity_evictions, 0);

        let finite = {
            let mut p = Scheme::Directory(DirSpec::dir0_b()).build(1);
            let config = SimConfig {
                geometry: Some(CacheGeometry { sets: 4, ways: 2 }),
                check_oracle: true,
                ..SimConfig::default()
            };
            Simulator::new(config)
                .run(p.as_mut(), refs.iter().copied())
                .unwrap()
        };
        assert!(finite.capacity_evictions > 0);
        assert!(
            finite.events.read_misses() > 0,
            "re-fetches after capacity eviction are coherence-visible misses"
        );
    }

    #[test]
    fn finite_cache_mode_writes_back_dirty_victims() {
        use dirsim_mem::CacheGeometry;
        let p0 = ProcessId::new(0);
        let c0 = CpuId::new(0);
        // Write each block once: dirty lines must be flushed on eviction.
        let refs: Vec<MemRef> = (0..32u64)
            .map(|i| MemRef::write(c0, p0, Addr::new(i * 16)))
            .collect();
        let mut p = Scheme::Directory(DirSpec::dir0_b()).build(1);
        let config = SimConfig {
            geometry: Some(CacheGeometry { sets: 2, ways: 2 }),
            check_oracle: true,
            ..SimConfig::default()
        };
        let result = Simulator::new(config).run(p.as_mut(), refs).unwrap();
        assert!(result.ops[dirsim_protocol::BusOp::WriteBack] > 0);
        assert_eq!(
            result.ops[dirsim_protocol::BusOp::WriteBack],
            result.capacity_evictions,
            "every evicted line was dirty here"
        );
    }

    #[test]
    fn shard_key_follows_geometry() {
        use dirsim_mem::CacheGeometry;
        let infinite = SimConfig::default();
        assert_eq!(ShardKey::for_config(&infinite), ShardKey::Block);
        let finite = SimConfig {
            geometry: Some(CacheGeometry { sets: 8, ways: 2 }),
            ..SimConfig::default()
        };
        assert_eq!(ShardKey::for_config(&finite), ShardKey::Set { set_mask: 7 });
    }

    #[test]
    fn set_key_keeps_a_set_on_one_shard() {
        // Blocks 5 and 13 share set 5 of 8; the block key may split them,
        // the set key never does, for any worker count.
        let key = ShardKey::Set { set_mask: 7 };
        for workers in 1..=16 {
            assert_eq!(
                key.shard_of(BlockAddr::new(5), workers),
                key.shard_of(BlockAddr::new(13), workers),
                "workers = {workers}"
            );
        }
        assert_ne!(
            ShardKey::Block.shard_of(BlockAddr::new(5), 3),
            ShardKey::Block.shard_of(BlockAddr::new(13), 3),
        );
    }

    #[test]
    fn single_set_key_maps_everything_to_shard_zero() {
        let key = ShardKey::Set { set_mask: 0 };
        for block in [0u64, 1, 7, 1 << 40] {
            assert_eq!(key.shard_of(BlockAddr::new(block), 6), 0);
        }
    }

    #[test]
    fn sim_error_display() {
        let e = SimError {
            scheme: "Dir0B".into(),
            ref_index: 7,
            violation: OracleViolation::WriterHasNoCopy {
                cache: dirsim_mem::CacheId::new(1),
                block: dirsim_mem::BlockAddr::new(2),
            },
        };
        let msg = e.to_string();
        assert!(msg.contains("Dir0B"));
        assert!(msg.contains("reference 7"));
    }
}
