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
//! (one bounded FIFO), and the observer hook still sees each whole chunk
//! on the consumer thread, in stream order — once per chunk, never once
//! per reference. The step and merge stages are byte-for-byte the same
//! for both decode placements, so results are bit-identical —
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

use dirsim_mem::{BlockAddr, FiniteCache, FxHashMap};
use dirsim_obs::{Recorder, Span};
use dirsim_protocol::{CoherenceProtocol, Scheme};
use dirsim_trace::source::{BorrowedChunkSource, TraceSource};
use dirsim_trace::{AccessKind, MemRef, TraceIoError};

use crate::engine::{lru_access, Lane, ShardKey, SimConfig, SimError, SimResult, StepFailure};
use crate::error::{Error, InvariantError};
use crate::kernel::{DecodedRef, JointKernel, KernelPolicy, LaneKernel, NO_VICTIM};

/// Depth (in chunks) of the producer thread's decode queue. Two is enough for
/// full overlap — one chunk being stepped, one decoded ahead — without
/// letting a fast producer run away with memory.
pub(crate) const PIPELINE_DEPTH: usize = 2;

/// Capacity (in batches) of each shard's bounded channel.
const SHARD_CHANNEL_DEPTH: usize = 4;

/// References per decode block (see `LaneBank::step_chunk`). Small
/// enough that the decode buffer (at most 4096 × 16-byte records = 64 KiB,
/// one per data reference) stays cache-resident while every lane replays
/// it; large enough that the per-block lane loop and each lane's one
/// fetch count per block amortise.
const DECODE_BLOCK: usize = 4_096;

// A decode block's positions fit the `u16` picks.
const _: () = assert!(DECODE_BLOCK <= u16::MAX as usize + 1);

/// The step stage's lane state, struct-of-arrays: one entry per scheme in
/// each parallel vector, so the inner loop walks contiguous accumulation
/// state instead of chasing one boxed bundle per scheme.
///
/// `kernels[i]` is `Some` when lane `i` steps through a memoized
/// transition table (see [`crate::kernel`]); its protocol instance then
/// stays untouched until the kernel either finishes (the instance is
/// dropped) or overflows (the instance is replaced by a materialized
/// machine and the lane continues on the match path, bit-identically).
/// A bank of several lanes that all start on kernels steps them as one
/// [`JointKernel`] instead, which holds every lane's kernel (`kernels`
/// are then all `None`) until it splits back into them or the stream
/// ends.
///
/// The bank resolves each reference once for all its lanes, through its
/// [`Decoder`], one block of [`DECODE_BLOCK`] references at a time. Only
/// data references reach the lanes: decode sets instruction fetches
/// aside and counts them, and each lane adds a block's count once
/// ([`Lane::count_fetches`]). The joint kernel steps the block's data
/// references once for every lane ([`JointKernel::step_block`]); a
/// kernel lane steps them in one tight loop
/// ([`Lane::step_kernel_block`]); a match lane steps them one by one
/// ([`Lane::step_decoded`]).
struct LaneBank<'a> {
    config: SimConfig,
    rec: &'a dyn Recorder,
    protocols: Vec<Box<dyn CoherenceProtocol>>,
    kernels: Vec<Option<LaneKernel>>,
    joint: Option<JointKernel>,
    lanes: Vec<Lane>,
    decoder: Decoder,
    /// One decode block's data references, recycled across blocks.
    decoded: Vec<DecodedRef>,
    /// The position in its decode block of each record of `decoded`;
    /// entries past the block's data references are stale.
    picks: Vec<u16>,
}

impl<'a> LaneBank<'a> {
    /// Builds the bank and records how many of its lanes start on a table
    /// kernel (`kernel_lanes`), how many of those are joined
    /// (`kernel_joint_lanes`), and why the others start on the match
    /// machines (`match_lanes{reason}`, see [`match_reason`]).
    fn new(config: SimConfig, rec: &'a dyn Recorder, schemes: &[Scheme], caches: u32) -> Self {
        let protocols: Vec<Box<dyn CoherenceProtocol>> =
            schemes.iter().map(|&s| s.build(caches)).collect();
        let lanes: Vec<Lane> = protocols
            .iter()
            .map(|p| Lane::new(&config, p.name()))
            .collect();
        let mut kernels: Vec<Option<LaneKernel>> = schemes
            .iter()
            .map(|&s| {
                config
                    .kernel_eligible()
                    .then(|| LaneKernel::new(s, caches))
                    .flatten()
            })
            .collect();
        let kernel_lanes = kernels.iter().filter(|k| k.is_some()).count();
        rec.counter("kernel_lanes", &[], kernel_lanes as u64);
        let match_lanes = kernels.len() - kernel_lanes;
        if match_lanes > 0 {
            let reason = [("reason", match_reason(&config))];
            rec.counter("match_lanes", &reason, match_lanes as u64);
        }
        let joint = (kernel_lanes > 1 && kernel_lanes == kernels.len()).then(|| {
            let joined = kernels.iter_mut().map(|k| k.take().expect("a kernel lane"));
            JointKernel::new(joined.collect(), caches)
        });
        let joint_lanes = if joint.is_some() { kernel_lanes } else { 0 };
        rec.counter("kernel_joint_lanes", &[], joint_lanes as u64);
        LaneBank {
            config,
            rec,
            protocols,
            kernels,
            joint,
            lanes,
            decoder: Decoder::default(),
            decoded: Vec::new(),
            picks: vec![0; DECODE_BLOCK],
        }
    }

    /// Steps every lane over one chunk, in blocks of [`DECODE_BLOCK`]
    /// references: each block is decoded once, then every lane steps its
    /// data references and adds its fetch count, so the decode buffer
    /// stays small and warm however large the chunk.
    fn step_chunk(&mut self, refs: &[MemRef]) -> Result<(), Error> {
        let mut decoded = std::mem::take(&mut self.decoded);
        for block in refs.chunks(DECODE_BLOCK) {
            // Compact the data references' positions without a branch:
            // kinds interleave too finely for a branch predictor.
            let mut n = 0;
            for (i, r) in block.iter().enumerate() {
                self.picks[n] = i as u16;
                n += usize::from(r.kind.is_data());
            }
            decoded.clear();
            decoded.extend(self.picks[..n].iter().map(|&i| {
                self.decoder
                    .decode_ref(&self.config, &block[usize::from(i)])
            }));
            let fetches = (block.len() - n) as u64;
            let from = self.step_joint(&decoded);
            for i in 0..self.lanes.len() {
                if from < decoded.len() {
                    self.step_lane(i, from, &decoded)?;
                }
                self.lanes[i].count_fetches(fetches);
            }
        }
        self.decoded = decoded;
        Ok(())
    }

    /// Steps every lane over `decoded` through the joint kernel, if the
    /// bank has one, and returns how many records it stepped: all of
    /// them, or — when the joint splits — the position of the record
    /// that split it. A split hands each lane its kernel back, with its
    /// block states written back and its joint hits drained, and counts
    /// the exit in `kernel_joint_splits{reason}`; the record mutated
    /// nothing, so the lanes resume at it on their own kernels.
    fn step_joint(&mut self, decoded: &[DecodedRef]) -> usize {
        let Some(joint) = &mut self.joint else {
            return 0;
        };
        let blocks = self.decoder.addrs.len();
        let Err((j, split)) = joint.step_block(&mut self.lanes, decoded, blocks) else {
            return decoded.len();
        };
        let joint = self.joint.take().expect("the bank was joined");
        self.kernels = joint.split().into_iter().map(Some).collect();
        self.rec
            .counter("kernel_joint_splits", &[("reason", split.label())], 1);
        j
    }

    /// Steps lane `i` over the data references `decoded[from..]` of one
    /// decode block; the lane has already counted the `from` records
    /// before them. A kernel lane that overflows at `decoded[j]` settles
    /// its batched hits, materializes its machine, counts the exit in
    /// `kernel_materializations{scheme}`, and steps `decoded[j..]` on the
    /// match path — the failed record mutated nothing, so the lane
    /// resumes exactly where it stopped. The kernel stays dropped, so the
    /// lane takes the match path from then on. The caller adds the
    /// block's fetches afterwards, so a failing record's reference index
    /// is the lane's count at block start plus the record's position in
    /// its block, `picks[j]`.
    fn step_lane(&mut self, i: usize, from: usize, decoded: &[DecodedRef]) -> Result<(), Error> {
        let (lane, protocol) = (&mut self.lanes[i], &mut self.protocols[i]);
        let start = lane.next_index() - from as u64;
        let mut resume = from;
        if let Some(k) = &mut self.kernels[i] {
            let blocks = self.decoder.addrs.len();
            let Some(j) = lane.step_kernel_block(k, &decoded[from..], blocks) else {
                return Ok(());
            };
            lane.absorb_kernel_hits(k);
            *protocol = k.materialize();
            self.kernels[i] = None;
            let scheme = protocol.name();
            self.rec
                .counter("kernel_materializations", &[("scheme", &scheme)], 1);
            resume = from + j;
        }
        let protocol = protocol.as_mut();
        for (j, &d) in decoded.iter().enumerate().skip(resume) {
            if let Err(failure) = lane.step_decoded(&self.config, protocol, d) {
                let index = start + u64::from(self.picks[j]);
                return Err(step_error(
                    protocol.name(),
                    index,
                    failure,
                    &self.decoder.addrs,
                ));
            }
        }
        Ok(())
    }

    fn finish(mut self) -> Vec<SimResult> {
        if let Some(joint) = self.joint.take() {
            self.kernels = joint.finish().into_iter().map(Some).collect();
        }
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

/// Why a bank's lanes without a table kernel step the match machines,
/// the first that applies: an audit reads machine internals a kernel
/// never keeps (`audited`), the policy turned kernels off (`disabled`),
/// or the system has more caches than a kernel tables (`wide`, past
/// [`MAX_KERNEL_CACHES`](crate::kernel::MAX_KERNEL_CACHES)).
fn match_reason(config: &SimConfig) -> &'static str {
    if config.check_oracle || config.check_invariants {
        "audited"
    } else if config.kernels == KernelPolicy::Disabled {
        "disabled"
    } else {
        "wide"
    }
}

/// A lane bank's one decode. A cache's contents depend only on the
/// reference stream and the geometry, never the scheme, so one LRU
/// replica serves every lane, kernel or match, and no lane keeps its own.
#[derive(Default)]
struct Decoder {
    /// Block address → dense index shared by every lane, handed out in
    /// first-touch order.
    intern: FxHashMap<BlockAddr, u32>,
    /// Reverse table: dense index → block address. Lanes never read it;
    /// it sizes the kernels' state tables and names blocks in errors.
    addrs: Vec<BlockAddr>,
    /// The one LRU replica, one cache per entry (empty under infinite
    /// caches).
    finite: Vec<FiniteCache<()>>,
}

impl Decoder {
    /// Resolves one data reference for every lane: block mapping, cache
    /// attribution, block-index interning, and — under a finite geometry
    /// — the access to the LRU replica, which yields the residency
    /// verdict and the victim. Each is paid once per reference no matter
    /// how many lanes replay the result.
    #[inline]
    fn decode_ref(&mut self, config: &SimConfig, r: &MemRef) -> DecodedRef {
        let block = config.block_map.block_of(r.addr);
        let block_idx = *self.intern.entry(block).or_insert_with(|| {
            let idx = u32::try_from(self.addrs.len()).expect("fewer than 2^32 blocks");
            self.addrs.push(block);
            idx
        });
        let cache = config.sharing.cache_of(r);
        let (resident, victim) = match config.geometry {
            Some(geometry) => lru_access(&mut self.finite, geometry, cache, block),
            None => (true, None),
        };
        let victim_idx = victim.map_or(NO_VICTIM, |v| {
            *self
                .intern
                .get(&v)
                .expect("victim blocks were interned by their own data refs")
        });
        DecodedRef {
            block_idx,
            victim_idx,
            cache,
            write: r.kind == AccessKind::Write,
            resident,
        }
    }
}

/// A match lane's step failure as the run's error. The lane named the
/// block by its dense index (see [`Lane::step_decoded`]); the report names
/// its address, read back from the decoder's reverse table `addrs`.
#[cold]
fn step_error(scheme: String, ref_index: u64, failure: StepFailure, addrs: &[BlockAddr]) -> Error {
    let address = |block: &mut BlockAddr| *block = addrs[block.raw() as usize];
    match failure {
        StepFailure::Invariant { mut violation, .. } => {
            address(violation.block_mut());
            Error::Invariant(InvariantError {
                scheme,
                ref_index,
                violation,
            })
        }
        StepFailure::Oracle(mut violation) => {
            address(violation.block_mut());
            Error::Sim(SimError {
                scheme,
                ref_index,
                violation,
            })
        }
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
/// feed, shows each whole chunk to the observer hook in stream order on
/// the calling thread, and hands it to `sink` (the route/step side).
/// Chunk storage stays with the feed — the lease ends when the next
/// chunk is pulled.
fn drive(
    rec: &dyn Recorder,
    feed: &mut dyn ChunkFeed,
    observe: &mut dyn FnMut(&[MemRef]),
    sink: &mut dyn FnMut(&[MemRef]) -> Result<(), Error>,
) -> Result<(), Error> {
    while let Some(buf) = feed.next()? {
        rec.counter("engine_refs", &[], buf.len() as u64);
        observe(buf);
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
    observe: &mut dyn FnMut(&[MemRef]),
) -> Result<Vec<SimResult>, Error> {
    let mut bank = LaneBank::new(config, rec, schemes, caches);
    let mut sink = |refs: &[MemRef]| -> Result<(), Error> {
        let _step = Span::with_labels(rec, "phase_seconds", &[("phase", "step")]);
        bank.step_chunk(refs)
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
    observe: &mut dyn FnMut(&[MemRef]),
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
                let mut bank = LaneBank::new(config, rec, schemes, caches);
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
                    bank.step_chunk(&batch)?;
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
    observe: &mut dyn FnMut(&[MemRef]),
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
    observe: &mut dyn FnMut(&[MemRef]),
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
    observe: &mut dyn FnMut(&[MemRef]),
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
/// operation, once per run after the merge, so the exported totals do not
/// depend on how the run was parallelised.
fn record_scheme_totals(recorder: &dyn Recorder, results: &[SimResult]) {
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
    use crate::engine::Simulator;
    use crate::invariant::InvariantViolation;
    use dirsim_mem::{CacheId, OracleViolation};
    use dirsim_protocol::api::{BlockProbe, StateSnapshot};
    use dirsim_protocol::{DataMovement, EventKind, RefOutcome};
    use dirsim_trace::source::{IterSource, SliceSource};
    use dirsim_trace::{Addr, CpuId, ProcessId, Scenario};

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

    /// A correct machine with its invalidations dropped: a cache that a
    /// write should have invalidated keeps its copy, and its next read of
    /// the block is a hit on that stale copy, which the shadow-memory
    /// oracle rejects.
    struct DropsInvalidations {
        inner: Box<dyn CoherenceProtocol>,
        stale: Vec<(CacheId, BlockAddr)>,
    }

    impl CoherenceProtocol for DropsInvalidations {
        fn name(&self) -> String {
            self.inner.name()
        }

        fn cache_count(&self) -> u32 {
            self.inner.cache_count()
        }

        fn on_data_ref(&mut self, cache: CacheId, block: BlockAddr, write: bool) -> RefOutcome {
            if !write && self.stale.contains(&(cache, block)) {
                return RefOutcome::event(EventKind::RdHit);
            }
            let mut outcome = self.inner.on_data_ref(cache, block, write);
            for &m in &std::mem::take(&mut outcome.movements) {
                match m {
                    DataMovement::Invalidate { cache } => self.stale.push((cache, block)),
                    _ => outcome.movements.push(m),
                }
            }
            outcome
        }

        fn evict(&mut self, cache: CacheId, block: BlockAddr) -> RefOutcome {
            self.inner.evict(cache, block)
        }

        fn probe(&self, block: BlockAddr) -> Option<BlockProbe> {
            self.inner.probe(block)
        }

        fn tracked_blocks(&self) -> usize {
            self.inner.tracked_blocks()
        }

        fn snapshot(&self) -> StateSnapshot {
            self.inner.snapshot()
        }

        fn boxed_clone(&self) -> Box<dyn CoherenceProtocol> {
            Box::new(DropsInvalidations {
                inner: self.inner.boxed_clone(),
                stale: self.stale.clone(),
            })
        }
    }

    /// Fetches interleaved with clean reads carry the stream past the
    /// first decode block; then cache 1 writes a block cache 0 holds, and
    /// cache 0 reads its stale copy of block 4 (address `0x40`), two
    /// references before the end.
    fn stale_read_trace() -> Vec<MemRef> {
        let (c0, c1) = (CpuId::new(0), CpuId::new(1));
        let (p0, p1) = (ProcessId::new(0), ProcessId::new(1));
        let shared = Addr::new(0x40);
        let mut refs: Vec<MemRef> = (0..2_500u64)
            .flat_map(|k| {
                [
                    MemRef::instr(c0, p0, Addr::new(0x9000 + 4 * k)),
                    MemRef::read(c0, p0, Addr::new(0x1000 + 16 * (k % 50))),
                ]
            })
            .collect();
        refs.extend([
            MemRef::read(c0, p0, shared),
            MemRef::instr(c1, p1, Addr::new(0x9000)),
            MemRef::read(c1, p1, shared),
            MemRef::write(c1, p1, shared),
            MemRef::instr(c0, p0, Addr::new(0x9004)),
            MemRef::instr(c0, p0, Addr::new(0x9008)),
            MemRef::read(c0, p0, shared),
            MemRef::instr(c0, p0, Addr::new(0x900c)),
        ]);
        refs
    }

    fn drops_invalidations() -> DropsInvalidations {
        DropsInvalidations {
            inner: Scheme::dir0_b().build(2),
            stale: Vec::new(),
        }
    }

    /// Steps `refs` through lane banks under `config` with the
    /// invalidation-dropping Dir0B as their last lane — two lanes, so a
    /// correct lane steps each block first, and one alone — in one chunk
    /// and in chunks of 777, and returns each bank's error.
    fn bank_errors(config: SimConfig, refs: &[MemRef]) -> Vec<(String, Error)> {
        let rec = dirsim_obs::NoopRecorder;
        let mut errors = Vec::new();
        for schemes in [&[Scheme::Wti, Scheme::dir0_b()][..], &[Scheme::dir0_b()]] {
            for chunk in [refs.len(), 777] {
                let mut bank = LaneBank::new(config, &rec, schemes, 2);
                *bank.protocols.last_mut().unwrap() = Box::new(drops_invalidations());
                let err = refs
                    .chunks(chunk)
                    .try_for_each(|c| bank.step_chunk(c))
                    .expect_err("the bank's audit rejects the stale read");
                errors.push((format!("{} lanes, chunks of {chunk}", schemes.len()), err));
            }
        }
        errors
    }

    #[test]
    fn error_indices_count_the_fetches_set_aside_at_decode() {
        // The bank's error must be `Simulator::run`'s: the stale read's
        // position in the whole stream, fetches included, and the
        // violation naming the block's address, not the bank's index
        // for it. Invariant auditing off, so the oracle is the check that
        // fires (under the `invariants` feature too).
        let refs = stale_read_trace();
        let config = SimConfig {
            check_oracle: true,
            check_invariants: false,
            ..SimConfig::default()
        };
        let want = Simulator::new(config)
            .run(&mut drops_invalidations(), refs.iter().copied())
            .expect_err("the oracle rejects the stale read");
        assert_eq!(want.ref_index, refs.len() as u64 - 2, "the stale read");
        assert!(
            want.ref_index > DECODE_BLOCK as u64,
            "in the second decode block"
        );
        assert!(
            matches!(want.violation, OracleViolation::StaleRead { block, .. } if block == BlockAddr::new(4))
        );
        for (what, err) in bank_errors(config, &refs) {
            let Error::Sim(err) = err else {
                panic!("{what}: expected a coherence violation, got {err}");
            };
            assert_eq!(err, want, "{what}");
        }
    }

    #[test]
    fn invariant_errors_name_the_block_address() {
        // The audit's twin of the test above: the stale read hits a copy
        // the machine no longer holds. `Simulator::run` panics with the
        // message an `InvariantError` displays.
        let refs = stale_read_trace();
        let config = SimConfig {
            check_invariants: true,
            ..SimConfig::default()
        };
        let panic = std::panic::catch_unwind(|| {
            Simulator::new(config).run(&mut drops_invalidations(), refs.iter().copied())
        })
        .expect_err("the audit rejects the stale read");
        let want = panic.downcast_ref::<String>().expect("a formatted panic");
        for (what, err) in bank_errors(config, &refs) {
            let Error::Invariant(err) = err else {
                panic!("{what}: expected an invariant violation, got {err}");
            };
            assert!(
                matches!(err.violation, InvariantViolation::ReferencerNotResident { block, .. } if block == BlockAddr::new(4)),
                "{what}: {err}"
            );
            assert_eq!(&err.to_string(), want, "{what}");
        }
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
        // The observer sees each chunk whole, once, in stream order,
        // whether it was decoded inline or on the producer thread, at one
        // worker and sharded.
        const CHUNK: usize = 256;
        let refs = trace();
        for workers in [1, 3] {
            let engine = BroadcastSimulator::paper()
                .workers(workers)
                .chunk_size(CHUNK);
            let sources: [(&str, Box<dyn TraceSource + Send + '_>); 2] = [
                ("inline", Box::new(SliceSource::new(&refs))),
                ("producer", Box::new(IterSource::new(refs.iter().copied()))),
            ];
            for (placement, source) in sources {
                let mut chunks: Vec<Vec<MemRef>> = Vec::new();
                engine
                    .run_observed(&[Scheme::Wti], 4, source, |c| chunks.push(c.to_vec()))
                    .unwrap();
                let what = format!("{placement}, {workers} workers");
                assert!(
                    chunks.iter().all(|c| (1..=CHUNK).contains(&c.len())),
                    "{what}: a chunk is empty or longer than {CHUNK}"
                );
                assert_eq!(chunks.concat(), refs, "{what}");
            }
        }
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
