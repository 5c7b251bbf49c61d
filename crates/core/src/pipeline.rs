//! The staged execution pipeline behind every way of running the engine.
//!
//! Every run is the same four stages:
//!
//! ```text
//!   decode ──► route ──► step ──► merge
//!   (trace     (shard     (one lane   (commutative
//!    source)    key)       per scheme) counter sums)
//! ```
//!
//! This module implements the stages exactly once, behind one [`run`].
//! The public [`BroadcastSimulator`](crate::broadcast::BroadcastSimulator)
//! and the [`Experiment`](crate::experiment::Experiment) harness choose
//! only the worker count; where decode runs is a fact about the source:
//!
//! * **A source that lends its chunks decodes inline.** Sources exposing
//!   a borrowed-chunk view (`TraceSource::borrowed`: mmap-backed corpus
//!   files, in-memory `SliceSource`s) are read on the calling thread,
//!   between chunks, and each chunk is lent straight to the step side
//!   with no copy.
//! * **Every other source decodes on a producer thread.** Generators and
//!   the buffered, DTR3, text and CSV decoders run on a dedicated thread
//!   that decodes chunk *N+1* while the step side works on chunk *N*.
//!
//! The step side is placed by the worker count: with one worker the route
//! stage is the identity and stepping happens on the calling thread; with
//! several, references are routed by [`ShardKey`] into per-shard bounded
//! queues, one scoped worker per shard.
//!
//! ## Chunk leases
//!
//! The decode → step boundary is a lending one: each `ChunkFeed::next`
//! call returns a borrowed slice that stays valid until the next call.
//! The step side never owns chunk storage, so where buffers live is
//! each feed's private business — the lending source's own storage, or
//! the producer thread's recycle pool.
//!
//! ## Buffer recycling
//!
//! The producer-thread feed is a two-channel handshake built on
//! [`TraceSource::read_chunk_owned`]: filled chunk buffers travel
//! producer → consumer over a bounded data channel of depth
//! [`PIPELINE_DEPTH`], and emptied buffers travel back over a recycle
//! channel. Exactly `PIPELINE_DEPTH + 2` buffers exist for the lifetime of
//! a run (the data queue, plus one in each side's hands), so the steady
//! state allocates nothing and memory stays bounded no matter how long
//! the trace is. The recycle channel's capacity equals the total buffer
//! count, so returning a buffer never blocks the step side.
//!
//! ## Why placement cannot perturb results
//!
//! The producer moves *work*, never *order*: chunk boundaries carry no
//! simulation state (every lane's protocol state persists across chunks),
//! the consumer receives chunks in exactly the order they were decoded
//! (one bounded FIFO), and the observer hook still runs on the consumer
//! thread in stream order. The step and merge stages are byte-for-byte
//! the same for both decode placements, so results are bit-identical —
//! `tests/equivalence.rs` pins this for every scheme.
//!
//! ## Pipeline metrics
//!
//! On top of the `phase_seconds{phase=decode|route|step|merge}` spans the
//! producer-thread feed records how well the overlap is doing:
//!
//! * `decode_stall_seconds` — histogram of time the step side waited for
//!   a decoded chunk (per chunk);
//! * `step_stall_seconds` — histogram of time the producer waited for the
//!   step side (for a free buffer, or for space in the data queue);
//! * `pipeline_queue_depth{stage=decode}` and
//!   `pipeline_queue_depth{shard, stage=step}` — decoded chunks in flight
//!   at each dequeue, and per-shard batches in flight at each worker
//!   dequeue;
//! * `pipeline_occupancy` — gauge in `[0, 1]`: the fraction of the run
//!   the step side spent stepping rather than stalled on decode.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc;
use std::time::Instant;

use dirsim_mem::{BlockAddr, CacheStorage, FiniteCache, FxHashMap};
use dirsim_obs::{Recorder, Span};
use dirsim_protocol::{CoherenceProtocol, Scheme};
use dirsim_trace::source::{BorrowedChunkSource, TraceSource};
use dirsim_trace::{AccessKind, MemRef, TraceIoError};

use crate::engine::{Lane, ShardKey, SimConfig, SimError, SimResult, StepFailure};
use crate::error::{Error, InvariantError};
use crate::kernel::{DecodedRef, KernelPolicy, LaneKernel, NO_VICTIM};

/// Depth (in chunks) of the producer thread's decode queue. Two is enough for
/// full overlap — one chunk being stepped, one decoded ahead — without
/// letting a fast producer run away with memory.
pub(crate) const PIPELINE_DEPTH: usize = 2;

/// Capacity (in batches) of each shard's bounded channel.
const SHARD_CHANNEL_DEPTH: usize = 4;

/// References decoded per block when several kernel lanes share a chunk
/// (see `LaneBank::step_chunk`). Small enough that the decode buffer
/// (4096 × 16-byte records = 64 KiB) stays cache-resident while every
/// lane replays it; large enough that the per-block lane loop amortises.
const DECODE_BLOCK: usize = 4_096;

/// The step stage's lane state, struct-of-arrays: one entry per scheme in
/// each parallel vector, so the inner loop walks contiguous accumulation
/// state instead of chasing one boxed bundle per scheme.
///
/// `kernels[i]` is `Some` when lane `i` steps through a memoized
/// transition table (see [`crate::kernel`]); its protocol instance then
/// stays untouched until the kernel either finishes (the instance is
/// dropped) or overflows (the instance is replaced by a materialized
/// machine and the lane continues on the match path, bit-identically).
/// While any kernel lane is live the bank also keeps a shared decode
/// table: every distinct block address is interned to a dense index
/// exactly once (`intern`/`addrs`), and each block of a chunk is decoded
/// once into `decoded` before the lanes step it — so the block-map hash
/// probe and cache attribution are paid per *reference*, not per
/// reference × lane.
///
/// Under a finite geometry the decode pass also owns the LRU bookkeeping:
/// a lane's finite-cache contents depend only on the reference stream and
/// the geometry — never the scheme — so every lane's replica is
/// bit-identical, and the bank keeps exactly one (`shared_finite`),
/// probed and updated once per reference. Kernel lanes receive the
/// residency verdict and victim choice inside the [`DecodedRef`]. When a
/// kernel lane overflows mid-chunk, its private replica (needed by the
/// match-path continuation) is reconstructed by replaying the chunk
/// prefix onto `finite_snapshot`, the clone taken at chunk start.
struct LaneBank {
    protocols: Vec<Box<dyn CoherenceProtocol>>,
    kernels: Vec<Option<LaneKernel>>,
    lanes: Vec<Lane>,
    /// Block address → dense index shared by every kernel lane.
    intern: FxHashMap<BlockAddr, u32>,
    /// Reverse table: dense index → block address, for materializing.
    addrs: Vec<BlockAddr>,
    /// One decode block of references, recycled across blocks.
    decoded: Vec<DecodedRef>,
    /// The one finite-cache replica shared by every kernel lane.
    shared_finite: Vec<FiniteCache<()>>,
    /// Chunk-start clone of `shared_finite`, for overflow reconstruction.
    finite_snapshot: Vec<FiniteCache<()>>,
}

impl LaneBank {
    fn new(config: &SimConfig, schemes: &[Scheme], caches: u32) -> Self {
        let protocols: Vec<Box<dyn CoherenceProtocol>> =
            schemes.iter().map(|&s| s.build(caches)).collect();
        let lanes: Vec<Lane> = protocols
            .iter()
            .map(|p| Lane::new(config, p.name()))
            .collect();
        let kernels: Vec<Option<LaneKernel>> = schemes
            .iter()
            .map(|&s| {
                if !config.kernel_eligible() {
                    return None;
                }
                let kernel = LaneKernel::new(s, caches);
                if kernel.is_none() && config.kernels == KernelPolicy::Required {
                    panic!(
                        "KernelPolicy::Required, but {caches} caches exceed the \
                         table-kernel cap for {s:?}"
                    );
                }
                kernel
            })
            .collect();
        LaneBank {
            protocols,
            kernels,
            lanes,
            intern: FxHashMap::default(),
            addrs: Vec::new(),
            decoded: Vec::new(),
            shared_finite: Vec::new(),
            finite_snapshot: Vec::new(),
        }
    }

    /// Number of lanes currently stepping through table kernels.
    fn kernel_lanes(&self) -> usize {
        self.kernels.iter().filter(|k| k.is_some()).count()
    }

    /// Steps every lane over one chunk. The kernel/match dispatch is
    /// hoisted out of the per-reference loop, and when several kernel
    /// lanes are live the chunk is decoded exactly once for all of them,
    /// in blocks of [`DECODE_BLOCK`] references: each block is decoded,
    /// then every kernel lane steps it, so the decode buffer stays small
    /// and warm however large the chunk. A single kernel lane (the serial
    /// mode's shape) fuses decode and step into one pass instead of
    /// staging through the decode buffer.
    fn step_chunk(&mut self, config: &SimConfig, refs: &[MemRef]) -> Result<(), Error> {
        let live_kernels = self.kernel_lanes();
        if live_kernels > 0 && config.geometry.is_some() {
            // Keep the chunk-start LRU state around so an overflowing
            // lane can reconstruct its own replica as of the failed
            // reference (the shared replica will have advanced past it).
            self.finite_snapshot.clear();
            self.finite_snapshot
                .extend(self.shared_finite.iter().cloned());
        }
        for i in 0..self.lanes.len() {
            if self.kernels[i].is_none() {
                step_direct(config, &mut self.lanes[i], self.protocols[i].as_mut(), refs)?;
            }
        }
        if live_kernels == 1 {
            let i = self
                .kernels
                .iter()
                .position(Option::is_some)
                .expect("one live kernel");
            let mut kernel = self.kernels[i].take().expect("live kernel");
            let LaneBank {
                lanes,
                intern,
                addrs,
                shared_finite,
                ..
            } = self;
            let lane = &mut lanes[i];
            let overflowed_at = refs.iter().position(|r| {
                let d = decode_ref(config, intern, addrs, shared_finite, r);
                lane.step_with_kernel(&mut kernel, d).is_err()
            });
            self.settle(config, refs, i, kernel, overflowed_at)?;
        } else if live_kernels > 1 {
            for base in (0..refs.len()).step_by(DECODE_BLOCK) {
                let block = &refs[base..refs.len().min(base + DECODE_BLOCK)];
                let LaneBank {
                    intern,
                    addrs,
                    decoded,
                    shared_finite,
                    ..
                } = self;
                decoded.clear();
                for r in block {
                    decoded.push(decode_ref(config, intern, addrs, shared_finite, r));
                }
                for i in 0..self.lanes.len() {
                    // Take the kernel out so the overflow path can replace
                    // the protocol instance without aliasing; `settle`
                    // puts it back on success.
                    let Some(mut kernel) = self.kernels[i].take() else {
                        continue;
                    };
                    let lane = &mut self.lanes[i];
                    let overflowed_at = self
                        .decoded
                        .iter()
                        .position(|&d| lane.step_with_kernel(&mut kernel, d).is_err())
                        .map(|j| base + j);
                    self.settle(config, refs, i, kernel, overflowed_at)?;
                }
            }
        }
        Ok(())
    }

    /// Ends kernel lane `i`'s turn over `refs`: with no overflow the
    /// kernel goes back into its slot. On overflow at chunk index `j` the
    /// failed reference mutated nothing in the lane, so this settles the
    /// batched counts, materializes the machine, rebuilds the lane's
    /// finite replica as of the failed reference (replaying the chunk
    /// prefix `refs[..j]` onto the chunk-start snapshot), and re-steps the
    /// rest of the chunk from it on the match path. The kernel stays
    /// dropped, so later decode blocks of the chunk skip the lane.
    fn settle(
        &mut self,
        config: &SimConfig,
        refs: &[MemRef],
        i: usize,
        mut kernel: LaneKernel,
        overflowed_at: Option<usize>,
    ) -> Result<(), Error> {
        let Some(j) = overflowed_at else {
            self.kernels[i] = Some(kernel);
            return Ok(());
        };
        let lane = &mut self.lanes[i];
        lane.absorb_kernel_hits(&mut kernel);
        self.protocols[i] = kernel.materialize(&self.addrs);
        if config.geometry.is_some() {
            lane.restore_finite(replay_finite(config, &self.finite_snapshot, &refs[..j]));
        }
        step_direct(config, lane, self.protocols[i].as_mut(), &refs[j..])
    }

    fn finish(self) -> Vec<SimResult> {
        self.lanes
            .into_iter()
            .zip(self.kernels)
            .zip(self.protocols)
            .map(|((lane, kernel), protocol)| match kernel {
                Some(mut kernel) => lane.finish_with_kernel(&mut kernel),
                None => lane.finish(protocol.as_ref()),
            })
            .collect()
    }
}

/// Decodes one reference for the kernel lanes: block mapping, cache
/// attribution, bank-wide block-index interning, and — under a finite
/// geometry — the shared residency probe, LRU victim choice, and LRU
/// commit, each paid once per reference no matter how many lanes replay
/// the result. The LRU op sequence on the shared replica (fused probe on
/// a hit; `touch` then `insert` on a miss) matches `Lane::step`'s
/// tick-for-tick, so the replica stays bit-identical to what every
/// match-based lane would hold.
#[inline]
fn decode_ref(
    config: &SimConfig,
    intern: &mut FxHashMap<BlockAddr, u32>,
    addrs: &mut Vec<BlockAddr>,
    shared_finite: &mut Vec<FiniteCache<()>>,
    r: &MemRef,
) -> DecodedRef {
    if r.kind == AccessKind::InstrFetch {
        return DecodedRef::instr();
    }
    let block = config.block_map.block_of(r.addr);
    let block_idx = *intern.entry(block).or_insert_with(|| {
        let idx = u32::try_from(addrs.len()).expect("fewer than 2^32 blocks");
        addrs.push(block);
        idx
    });
    let cache = config.sharing.cache_of(r);
    let mut resident = true;
    let mut victim_idx = NO_VICTIM;
    if let Some(geometry) = config.geometry {
        while shared_finite.len() <= cache.index() {
            shared_finite.push(
                FiniteCache::new(geometry).expect("geometry validated at configuration time"),
            );
        }
        let fc = &mut shared_finite[cache.index()];
        if fc.touch_if_resident(block).is_none() {
            resident = false;
            if let Some(v) = fc.would_evict(block) {
                victim_idx = *intern
                    .get(&v)
                    .expect("victim blocks were interned by their own data refs");
            }
            let touched = fc.touch(block);
            debug_assert!(touched.is_none(), "the fused probe proved a miss");
            fc.insert(block, ());
        }
    }
    DecodedRef {
        block_idx,
        victim_idx,
        cache,
        write: r.kind == AccessKind::Write,
        resident,
    }
}

/// Reconstructs the finite-cache replica a match-based lane would hold
/// after the chunk prefix `refs`: a clone of the chunk-start snapshot
/// advanced by each data reference's touch/insert LRU ops — the exact op
/// sequence `Lane::step` performs. Used when a kernel lane overflows
/// mid-chunk: kernel lanes carry no finite state of their own (the
/// bank's shared replica does), so the match-path continuation needs a
/// private copy as of the failed reference.
fn replay_finite(
    config: &SimConfig,
    snapshot: &[FiniteCache<()>],
    refs: &[MemRef],
) -> Vec<FiniteCache<()>> {
    let Some(geometry) = config.geometry else {
        return Vec::new();
    };
    let mut finite: Vec<FiniteCache<()>> = snapshot.to_vec();
    for r in refs {
        if r.kind == AccessKind::InstrFetch {
            continue;
        }
        let block = config.block_map.block_of(r.addr);
        let cache = config.sharing.cache_of(r);
        while finite.len() <= cache.index() {
            finite.push(
                FiniteCache::new(geometry).expect("geometry validated at configuration time"),
            );
        }
        let fc = &mut finite[cache.index()];
        if fc.touch(block).is_none() {
            fc.insert(block, ());
        }
    }
    finite
}

/// Steps one lane over a slice on the match-based path.
fn step_direct(
    config: &SimConfig,
    lane: &mut Lane,
    protocol: &mut dyn CoherenceProtocol,
    refs: &[MemRef],
) -> Result<(), Error> {
    for &r in refs {
        let index = lane.next_index();
        if let Err(failure) = lane.step(config, protocol, r) {
            return Err(step_error(protocol.name(), index, failure));
        }
    }
    Ok(())
}

#[cold]
fn step_error(scheme: String, ref_index: u64, failure: StepFailure) -> Error {
    match failure {
        StepFailure::Invariant { violation, .. } => Error::Invariant(InvariantError {
            scheme,
            ref_index,
            violation,
        }),
        StepFailure::Oracle(violation) => Error::Sim(SimError {
            scheme,
            ref_index,
            violation,
        }),
    }
}

/// The decode-stage boundary: lends each decoded chunk to the step side.
/// `next` returning `Ok(None)` means end of stream; the returned slice
/// is valid until the next call, so the step side never owns (or
/// copies) chunk storage. Where the buffers live — the lending source's
/// own storage or the producer thread's recycle pool — is each feed's
/// private business.
trait ChunkFeed {
    fn next(&mut self) -> Result<Option<&[MemRef]>, Error>;
}

/// Inline decode for sources with a borrowed-chunk view (see
/// [`TraceSource::borrowed`]): each chunk is read on the calling thread
/// into storage the source owns and lent straight through to the step
/// side — no owned-buffer recycle round-trip, no copy.
struct BorrowedFeed<'a> {
    source: &'a mut dyn BorrowedChunkSource,
    chunk: usize,
    rec: &'a dyn Recorder,
}

impl ChunkFeed for BorrowedFeed<'_> {
    fn next(&mut self) -> Result<Option<&[MemRef]>, Error> {
        let decode = Span::with_labels(self.rec, "phase_seconds", &[("phase", "decode")]);
        let chunk = self.source.next_chunk(self.chunk)?;
        drop(decode);
        if chunk.is_empty() {
            return Ok(None);
        }
        Ok(Some(chunk))
    }
}

/// Producer-thread decode: receives chunks a dedicated thread filled
/// ahead of time (see [`producer_loop`]) and sends emptied buffers back.
/// The lent chunk is held in `current`; the next call to [`ChunkFeed::next`]
/// recycles it to the producer before blocking on the data channel.
struct ChannelFeed<'a> {
    rx: mpsc::Receiver<Result<Vec<MemRef>, TraceIoError>>,
    recycle_tx: mpsc::SyncSender<Vec<MemRef>>,
    depth: &'a AtomicUsize,
    rec: &'a dyn Recorder,
    /// The chunk currently lent to the step side.
    current: Option<Vec<MemRef>>,
    /// `Some` iff the recorder is enabled: total consumer stall so far and
    /// when the feed started, for the closing occupancy gauge.
    clock: Option<(f64, Instant)>,
}

impl<'a> ChannelFeed<'a> {
    fn new(
        rx: mpsc::Receiver<Result<Vec<MemRef>, TraceIoError>>,
        recycle_tx: mpsc::SyncSender<Vec<MemRef>>,
        depth: &'a AtomicUsize,
        rec: &'a dyn Recorder,
    ) -> Self {
        ChannelFeed {
            rx,
            recycle_tx,
            depth,
            rec,
            current: None,
            clock: rec.enabled().then(|| (0.0, Instant::now())),
        }
    }

    /// Records the occupancy gauge and drops both channel ends, which
    /// makes the producer exit even when stepping failed mid-stream.
    fn finish(self) {
        if let Some((stall, started)) = self.clock {
            let elapsed = started.elapsed().as_secs_f64();
            let occupancy = if elapsed > 0.0 {
                (1.0 - stall / elapsed).clamp(0.0, 1.0)
            } else {
                1.0
            };
            self.rec.gauge("pipeline_occupancy", &[], occupancy);
        }
    }
}

impl ChunkFeed for ChannelFeed<'_> {
    fn next(&mut self) -> Result<Option<&[MemRef]>, Error> {
        // The previous lease just expired: hand the emptied buffer back.
        // The recycle channel's capacity equals the total buffer count,
        // so this never blocks; an error just means the producer exited.
        if let Some(spent) = self.current.take() {
            let _ = self.recycle_tx.send(spent);
        }
        let wait = self.clock.as_ref().map(|_| Instant::now());
        let received = self.rx.recv();
        if let Some(wait) = wait {
            let stalled = wait.elapsed().as_secs_f64();
            if let Some((stall, _)) = self.clock.as_mut() {
                *stall += stalled;
            }
            self.rec.observe("decode_stall_seconds", &[], stalled);
        }
        match received {
            Ok(Ok(buf)) => {
                let queued = self.depth.fetch_sub(1, Ordering::Relaxed);
                if self.clock.is_some() {
                    self.rec.observe(
                        "pipeline_queue_depth",
                        &[("stage", "decode")],
                        queued as f64,
                    );
                }
                Ok(Some(self.current.insert(buf).as_slice()))
            }
            Ok(Err(e)) => Err(Error::TraceIo(e)),
            // The producer dropped its sender: end of stream.
            Err(mpsc::RecvError) => Ok(None),
        }
    }
}

/// The decode producer thread: waits for an emptied buffer, refills
/// it from the source, and sends it forward. Runs until end of stream, a
/// decode error, or the consumer hangs up.
fn producer_loop(
    source: &mut dyn TraceSource,
    chunk: usize,
    tx: mpsc::SyncSender<Result<Vec<MemRef>, TraceIoError>>,
    recycle_rx: mpsc::Receiver<Vec<MemRef>>,
    depth: &AtomicUsize,
    rec: &dyn Recorder,
) {
    let enabled = rec.enabled();
    loop {
        // An emptied buffer coming back doubles as the consumer's
        // liveness signal: a closed recycle channel means the step side
        // is gone (finished or failed), so stop decoding.
        let wait = enabled.then(Instant::now);
        let Ok(buf) = recycle_rx.recv() else { return };
        if let Some(wait) = wait {
            rec.observe("step_stall_seconds", &[], wait.elapsed().as_secs_f64());
        }
        let decode = Span::with_labels(rec, "phase_seconds", &[("phase", "decode")]);
        let read = source.read_chunk_owned(buf, chunk);
        drop(decode);
        match read {
            // End of stream: dropping `tx` tells the consumer.
            Ok(buf) if buf.is_empty() => return,
            Ok(buf) => {
                depth.fetch_add(1, Ordering::Relaxed);
                let wait = enabled.then(Instant::now);
                if tx.send(Ok(buf)).is_err() {
                    return;
                }
                if let Some(wait) = wait {
                    rec.observe("step_stall_seconds", &[], wait.elapsed().as_secs_f64());
                }
            }
            Err(e) => {
                let _ = tx.send(Err(e));
                return;
            }
        }
    }
}

/// The consumer half of the decode stage: pulls lent chunks from the
/// feed, runs the observer hook in stream order on the calling thread,
/// and hands each chunk to `sink` (the route/step side). Chunk storage
/// stays with the feed — the lease ends when the next chunk is pulled.
fn drive(
    rec: &dyn Recorder,
    feed: &mut dyn ChunkFeed,
    observe: &mut dyn FnMut(&MemRef),
    sink: &mut dyn FnMut(&[MemRef]) -> Result<(), Error>,
) -> Result<(), Error> {
    while let Some(buf) = feed.next()? {
        rec.counter("engine_refs", &[], buf.len() as u64);
        for r in buf {
            observe(r);
        }
        sink(buf)?;
    }
    Ok(())
}

/// Single-worker placement: the route stage is the identity and every
/// lane steps on the calling thread.
fn drive_in_thread(
    config: SimConfig,
    rec: &dyn Recorder,
    schemes: &[Scheme],
    caches: u32,
    feed: &mut dyn ChunkFeed,
    observe: &mut dyn FnMut(&MemRef),
) -> Result<Vec<SimResult>, Error> {
    let mut bank = LaneBank::new(&config, schemes, caches);
    rec.counter("kernel_lanes", &[], bank.kernel_lanes() as u64);
    let mut sink = |refs: &[MemRef]| -> Result<(), Error> {
        let _step = Span::with_labels(rec, "phase_seconds", &[("phase", "step")]);
        bank.step_chunk(&config, refs)
    };
    drive(rec, feed, observe, &mut sink)?;
    Ok(bank.finish())
}

/// Sharded placement: the route stage partitions each chunk under the
/// configuration's [`ShardKey`] into per-shard bounded queues, one worker
/// thread steps each shard, and the merge stage sums the per-shard
/// counters (all commutative, so totals are bit-identical to serial).
#[allow(clippy::too_many_arguments)]
fn drive_sharded(
    config: SimConfig,
    chunk: usize,
    workers: usize,
    rec: &dyn Recorder,
    schemes: &[Scheme],
    caches: u32,
    feed: &mut dyn ChunkFeed,
    observe: &mut dyn FnMut(&MemRef),
) -> Result<Vec<SimResult>, Error> {
    let shard_key = ShardKey::for_config(&config);
    let enabled = rec.enabled();
    let queue_depth: Vec<AtomicUsize> = (0..workers).map(|_| AtomicUsize::new(0)).collect();
    let queue_depth = &queue_depth;

    let per_worker: Result<Vec<Vec<SimResult>>, Error> = std::thread::scope(|scope| {
        let mut txs = Vec::with_capacity(workers);
        let mut recycle_rxs = Vec::with_capacity(workers);
        let mut handles = Vec::with_capacity(workers);
        for (shard, depth) in queue_depth.iter().enumerate() {
            let (tx, rx) = mpsc::sync_channel::<Vec<MemRef>>(SHARD_CHANNEL_DEPTH);
            // Return channel for spent batch buffers: workers hand the
            // emptied Vec back so the router reuses its capacity instead
            // of allocating a fresh staging buffer per batch.
            let (recycle_tx, recycle_rx) =
                mpsc::sync_channel::<Vec<MemRef>>(SHARD_CHANNEL_DEPTH + 2);
            txs.push(tx);
            recycle_rxs.push(recycle_rx);
            handles.push(scope.spawn(move || -> Result<Vec<SimResult>, Error> {
                let shard_label = shard.to_string();
                let mut bank = LaneBank::new(&config, schemes, caches);
                for mut batch in rx {
                    if enabled {
                        let queued = depth.fetch_sub(1, Ordering::Relaxed);
                        rec.observe(
                            "pipeline_queue_depth",
                            &[("shard", &shard_label), ("stage", "step")],
                            queued as f64,
                        );
                    }
                    let step = Span::with_labels(
                        rec,
                        "phase_seconds",
                        &[("phase", "step"), ("shard", &shard_label)],
                    );
                    bank.step_chunk(&config, &batch)?;
                    drop(step);
                    batch.clear();
                    // A full (or closed) return queue just means this
                    // buffer isn't reused; dropping it is harmless.
                    let _ = recycle_tx.try_send(batch);
                }
                Ok(bank.finish())
            }));
        }

        // Routing by key (not by hash) keeps the assignment
        // deterministic, so per-shard subsequences — and therefore merged
        // counters — are reproducible run to run.
        let mut staging: Vec<Vec<MemRef>> =
            (0..workers).map(|_| Vec::with_capacity(chunk)).collect();
        let mut sink = |refs: &[MemRef]| -> Result<(), Error> {
            let route = Span::with_labels(rec, "phase_seconds", &[("phase", "route")]);
            for r in refs {
                let block = config.block_map.block_of(r.addr);
                let shard = shard_key.shard_of(block, workers);
                staging[shard].push(*r);
            }
            drop(route);
            for (shard, pending) in staging.iter_mut().enumerate() {
                if pending.len() >= chunk {
                    let fresh = recycle_rxs[shard]
                        .try_recv()
                        .unwrap_or_else(|_| Vec::with_capacity(chunk));
                    let batch = std::mem::replace(pending, fresh);
                    if enabled {
                        queue_depth[shard].fetch_add(1, Ordering::Relaxed);
                    }
                    // A closed channel means the worker already failed;
                    // its error surfaces at join.
                    let _ = txs[shard].send(batch);
                }
            }
            Ok(())
        };
        let driven = drive(rec, feed, observe, &mut sink);
        for (shard, pending) in staging.into_iter().enumerate() {
            if !pending.is_empty() {
                if enabled {
                    queue_depth[shard].fetch_add(1, Ordering::Relaxed);
                }
                let _ = txs[shard].send(pending);
            }
        }
        drop(txs);

        let mut results = Vec::with_capacity(workers);
        let mut worker_err: Option<Error> = None;
        for handle in handles {
            match handle.join().expect("shard worker panicked") {
                Ok(shard_results) => results.push(shard_results),
                Err(e) => {
                    if worker_err.is_none() {
                        worker_err = Some(e);
                    }
                }
            }
        }
        // A decode (or route) failure takes precedence over whatever the
        // starved workers reported.
        driven?;
        if let Some(e) = worker_err {
            return Err(e);
        }
        Ok(results)
    });

    let per_worker = per_worker?;
    if enabled {
        for (shard, shard_results) in per_worker.iter().enumerate() {
            let shard_label = shard.to_string();
            let labels = [("shard", shard_label.as_str())];
            // All lanes in one shard see the same subsequence, so any
            // lane's `refs` is the shard's reference count.
            rec.counter("shard_refs", &labels, shard_results[0].refs);
            let ops: u64 = shard_results.iter().map(|r| r.ops.total()).sum();
            rec.counter("shard_ops", &labels, ops);
        }
    }

    // Merge shard results per scheme. Every SimResult field is a
    // commutative sum (or a histogram of sums), so the totals equal a
    // serial run's bit for bit.
    let merge = Span::with_labels(rec, "phase_seconds", &[("phase", "merge")]);
    let mut shards = per_worker.into_iter();
    let mut merged = shards.next().expect("at least one worker");
    for shard_results in shards {
        for (acc, r) in merged.iter_mut().zip(shard_results.iter()) {
            acc.merge(r);
        }
    }
    drop(merge);
    Ok(merged)
}

/// Runs the pipeline over `source` and records the per-scheme totals.
/// A source that lends its chunks decodes inline on the calling thread;
/// every other source decodes on a producer thread (see the module docs).
#[allow(clippy::too_many_arguments)]
pub(crate) fn run<S>(
    config: SimConfig,
    chunk: usize,
    workers: usize,
    rec: &dyn Recorder,
    schemes: &[Scheme],
    caches: u32,
    mut source: S,
    observe: &mut dyn FnMut(&MemRef),
) -> Result<Vec<SimResult>, Error>
where
    S: TraceSource + Send,
{
    let results = match source.borrowed() {
        Some(borrowed) => {
            let mut feed = BorrowedFeed {
                source: borrowed,
                chunk,
                rec,
            };
            drive_placed(
                config, chunk, workers, rec, schemes, caches, &mut feed, observe,
            )
        }
        None => drive_overlapped(
            config, chunk, workers, rec, schemes, caches, source, observe,
        ),
    }?;
    record_scheme_totals(rec, &results);
    Ok(results)
}

/// Chooses the step-stage placement (in-thread vs sharded) for a feed.
#[allow(clippy::too_many_arguments)]
fn drive_placed(
    config: SimConfig,
    chunk: usize,
    workers: usize,
    rec: &dyn Recorder,
    schemes: &[Scheme],
    caches: u32,
    feed: &mut dyn ChunkFeed,
    observe: &mut dyn FnMut(&MemRef),
) -> Result<Vec<SimResult>, Error> {
    if workers <= 1 {
        drive_in_thread(config, rec, schemes, caches, feed, observe)
    } else {
        drive_sharded(config, chunk, workers, rec, schemes, caches, feed, observe)
    }
}

/// Decodes `source` on a dedicated producer thread, overlapped with
/// stepping (see the module docs for the buffer-recycling handshake).
#[allow(clippy::too_many_arguments)]
fn drive_overlapped<S>(
    config: SimConfig,
    chunk: usize,
    workers: usize,
    rec: &dyn Recorder,
    schemes: &[Scheme],
    caches: u32,
    mut source: S,
    observe: &mut dyn FnMut(&MemRef),
) -> Result<Vec<SimResult>, Error>
where
    S: TraceSource + Send,
{
    let depth = AtomicUsize::new(0);
    let depth = &depth;
    let (data_tx, data_rx) =
        mpsc::sync_channel::<Result<Vec<MemRef>, TraceIoError>>(PIPELINE_DEPTH);
    let (recycle_tx, recycle_rx) = mpsc::sync_channel::<Vec<MemRef>>(PIPELINE_DEPTH + 2);
    for _ in 0..PIPELINE_DEPTH + 2 {
        recycle_tx
            .send(Vec::with_capacity(chunk))
            .expect("recycle channel holds every buffer");
    }

    std::thread::scope(|scope| {
        let producer =
            scope.spawn(move || producer_loop(&mut source, chunk, data_tx, recycle_rx, depth, rec));
        let mut feed = ChannelFeed::new(data_rx, recycle_tx, depth, rec);
        let results = drive_placed(
            config, chunk, workers, rec, schemes, caches, &mut feed, observe,
        );
        // Closes both channel directions so the producer always exits,
        // even when stepping failed mid-stream.
        feed.finish();
        producer.join().expect("pipeline decode thread panicked");
        results
    })
}

/// Record per-scheme result totals into `recorder`: `scheme_refs`,
/// `scheme_transactions`, and a `scheme_ops` counter per non-zero bus
/// operation. Shared by every execution mode so the exported totals do not
/// depend on how the run was parallelised.
pub(crate) fn record_scheme_totals(recorder: &dyn Recorder, results: &[SimResult]) {
    if !recorder.enabled() {
        return;
    }
    for r in results {
        let labels = [("scheme", r.scheme.as_str())];
        recorder.counter("scheme_refs", &labels, r.refs);
        recorder.counter("scheme_transactions", &labels, r.transactions);
        for (op, count) in r.ops.iter() {
            if count > 0 {
                recorder.counter(
                    "scheme_ops",
                    &[("op", op.name()), ("scheme", r.scheme.as_str())],
                    count,
                );
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::broadcast::BroadcastSimulator;
    use dirsim_trace::source::{IterSource, SliceSource};
    use dirsim_trace::Scenario;

    const REFS: usize = 12_000;

    fn trace() -> Vec<MemRef> {
        Scenario::named("pops")
            .unwrap()
            .workload()
            .take(REFS)
            .collect()
    }

    fn write_dtr1(refs: &[MemRef], tag: &str) -> std::path::PathBuf {
        let path =
            std::env::temp_dir().join(format!("dirsim-pipeline-{tag}-{}.dtr", std::process::id()));
        let mut file = std::io::BufWriter::new(std::fs::File::create(&path).unwrap());
        dirsim_trace::io::write_binary(&mut file, refs.iter().copied()).unwrap();
        std::io::Write::flush(&mut file).unwrap();
        path
    }

    #[test]
    fn overlapped_matches_inline_for_every_worker_count() {
        // An IterSource decodes on the producer thread; a SliceSource over
        // the same references lends its chunks and decodes inline.
        let refs = trace();
        let schemes = Scheme::paper_lineup();
        for workers in [1, 3] {
            let engine = BroadcastSimulator::paper().workers(workers).chunk_size(512);
            let overlapped = engine
                .run(&schemes, 4, IterSource::new(refs.iter().copied()))
                .unwrap();
            let inline = engine.run(&schemes, 4, SliceSource::new(&refs)).unwrap();
            assert_eq!(inline, overlapped, "workers = {workers}");
        }
    }

    #[test]
    fn borrowed_decode_path_matches_owned_for_every_worker_count() {
        // An mmap-backed source takes the zero-copy BorrowedFeed path
        // inline; results must be bit-identical to the owned-buffer
        // IterSource path on the producer thread.
        let refs = trace();
        let path = write_dtr1(&refs, "borrowed");
        let schemes = Scheme::paper_lineup();
        for workers in [1, 3] {
            let engine = BroadcastSimulator::paper().workers(workers).chunk_size(512);
            let owned = engine
                .run(&schemes, 4, IterSource::new(refs.iter().copied()))
                .unwrap();
            let mmap = engine
                .run(
                    &schemes,
                    4,
                    dirsim_trace::MmapTraceSource::open(&path).unwrap(),
                )
                .unwrap();
            assert_eq!(owned, mmap, "workers = {workers}");
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn the_source_chooses_where_decode_runs() {
        // Lending sources never start a producer thread, so they record
        // no overlap metrics; every other source does.
        use dirsim_obs::MetricsRegistry;
        use std::sync::Arc;

        let refs = trace();
        let path = write_dtr1(&refs, "placement");
        let overlapped = |registry: &MetricsRegistry| {
            registry
                .histogram_summary("decode_stall_seconds", &[])
                .is_some()
        };
        let run = |source: Box<dyn TraceSource + Send>| {
            let registry = Arc::new(MetricsRegistry::new());
            BroadcastSimulator::paper()
                .chunk_size(512)
                .recorder(registry.clone())
                .run(&[Scheme::Wti], 4, source)
                .unwrap();
            overlapped(&registry)
        };
        assert!(
            !run(Box::new(SliceSource::new(&refs))),
            "slice decodes inline"
        );
        assert!(
            !run(Box::new(
                dirsim_trace::MmapTraceSource::open(&path).unwrap()
            )),
            "mmap decodes inline"
        );
        assert!(
            run(Box::new(IterSource::new(refs.iter().copied()))),
            "generators decode on the producer thread"
        );
        let buffered = std::io::BufReader::new(std::fs::File::open(&path).unwrap());
        assert!(
            run(Box::new(dirsim_trace::io::read_binary(buffered))),
            "buffered decoders decode on the producer thread"
        );
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn overlapped_observer_sees_every_reference_in_order() {
        let refs = trace();
        let mut seen = Vec::new();
        BroadcastSimulator::paper()
            .workers(2)
            .chunk_size(256)
            .run_observed(
                &[Scheme::Wti],
                4,
                IterSource::new(refs.iter().copied()),
                |r| seen.push(*r),
            )
            .unwrap();
        assert_eq!(seen, refs);
    }

    #[test]
    fn overlapped_surfaces_decode_errors() {
        let encoded = b"NOPE0000".to_vec();
        let err = BroadcastSimulator::paper()
            .run(
                &[Scheme::Wti],
                2,
                dirsim_trace::io::read_binary(std::io::Cursor::new(encoded)),
            )
            .unwrap_err();
        assert!(matches!(err, Error::TraceIo(_)));
    }

    #[test]
    fn overlapped_records_pipeline_metrics() {
        use dirsim_obs::MetricsRegistry;
        use std::sync::Arc;

        let refs = trace();
        let registry = Arc::new(MetricsRegistry::new());
        BroadcastSimulator::paper()
            .workers(2)
            .chunk_size(512)
            .recorder(registry.clone())
            .run(&[Scheme::Wti], 4, IterSource::new(refs.iter().copied()))
            .unwrap();
        let stall = registry
            .histogram_summary("decode_stall_seconds", &[])
            .expect("decode stall histogram");
        assert!(stall.count > 0 && stall.sum >= 0.0);
        assert!(registry
            .histogram_summary("step_stall_seconds", &[])
            .is_some());
        let depth = registry
            .histogram_summary("pipeline_queue_depth", &[("stage", "decode")])
            .expect("decode queue depth");
        assert!(depth.count > 0);
        assert!(registry
            .histogram_summary("pipeline_queue_depth", &[("shard", "0"), ("stage", "step")])
            .is_some());
        let occupancy = registry
            .gauge_value("pipeline_occupancy", &[])
            .expect("occupancy gauge");
        assert!((0.0..=1.0).contains(&occupancy), "occupancy = {occupancy}");
    }
}
