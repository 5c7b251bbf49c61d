//! The single-pass, sharded multi-protocol engine.
//!
//! The paper's methodology (§4) measures protocol-independent event
//! frequencies by replaying the *same* interleaved trace under every
//! scheme. [`BroadcastSimulator`] does that in one pass: a
//! [`TraceSource`] is decoded (or generated) chunk by chunk exactly once,
//! and every chunk is fanned out to one protocol state machine per
//! requested scheme. Memory stays bounded by the chunk size regardless of
//! trace length, and an N-scheme matrix pays for one trace generation
//! instead of N.
//!
//! Every run goes through the one staged pipeline in `crate::pipeline`
//! (`decode → route → step → merge`); this type only holds configuration.
//!
//! ## Sharding
//!
//! With `workers > 1` the reference stream is additionally partitioned
//! under a [`ShardKey`](crate::engine::ShardKey) and each partition is
//! simulated on its own
//! `std::thread` worker. This is *exact*, not approximate: every
//! protocol here keeps its coherence state strictly per block (a
//! directory entry, a sharer set, a dirty bit), so the events, bus
//! operations, and fan-outs produced by references to block `b` depend
//! only on the subsequence of references to `b` — which sharding
//! preserves in order. Under the paper's infinite-cache model the key is
//! the raw block address (`block % workers`). Finite caches add LRU
//! state that couples blocks sharing a set, so they shard on the cache
//! **set index** instead — a block's set is a pure function of its
//! address and replacement never crosses sets, so set-partitioned shards
//! see exactly the serial access order of every set they own. Per-shard
//! counters are then summed, and since every counter is a commutative
//! sum the merged totals are bit-identical to a serial run under either
//! key.
//!
//! ## Decode placement
//!
//! The source decides where decode runs. A source that lends its chunks
//! ([`TraceSource::borrowed`]: a memory-mapped corpus file, an in-memory
//! [`SliceSource`](dirsim_trace::SliceSource)) is decoded inline on the
//! calling thread, zero-copy. Every other source — generators, the
//! buffered, DTR3, text and CSV decoders — is decoded on a dedicated
//! producer thread, chunk *N+1* while chunk *N* is stepped, through
//! recycled buffers (see `crate::pipeline`). Only decode *work* moves
//! threads, never chunk *order*, so results are bit-identical either way.
//!
//! [`BroadcastSimulator::run_observed`] shows a caller each decoded chunk
//! whole, on the calling thread, in stream order. No engine path runs
//! caller code per reference.
//!
//! ```
//! use dirsim::broadcast::BroadcastSimulator;
//! use dirsim::SimConfig;
//! use dirsim_protocol::Scheme;
//! use dirsim_trace::Scenario;
//!
//! # fn main() -> Result<(), dirsim::Error> {
//! let schemes = Scheme::paper_lineup();
//! let pops = Scenario::named("pops").expect("bundled scenario");
//! let source = pops.source(20_000);
//! let results = BroadcastSimulator::new(SimConfig::default())
//!     .workers(2)
//!     .run(&schemes, 4, source)?;
//! assert_eq!(results.len(), 4);
//! assert!(results.iter().all(|r| r.refs == 20_000));
//! # Ok(())
//! # }
//! ```

use std::sync::Arc;

use dirsim_obs::{NoopRecorder, Recorder};
use dirsim_protocol::Scheme;
use dirsim_trace::source::TraceSource;
use dirsim_trace::MemRef;

use crate::engine::{SimConfig, SimConfigError, SimResult};
use crate::error::Error;
use crate::pipeline;

/// Default number of references decoded per chunk.
///
/// Large enough that cycling every lane's protocol state once per chunk
/// amortises (each switch re-warms that protocol's per-block tables from
/// cache); small enough that the chunk buffer stays well bounded
/// (32k × 16-byte records = 512 KiB).
pub const DEFAULT_CHUNK: usize = 32_768;

/// Drives one reference stream through many protocols in lockstep (see
/// module docs).
#[derive(Debug, Clone)]
pub struct BroadcastSimulator {
    config: SimConfig,
    chunk: usize,
    workers: usize,
    recorder: Arc<dyn Recorder>,
}

impl Default for BroadcastSimulator {
    fn default() -> Self {
        BroadcastSimulator::new(SimConfig::default())
    }
}

impl BroadcastSimulator {
    /// Creates a single-worker broadcast engine with the given
    /// configuration and the default chunk size.
    pub fn new(config: SimConfig) -> Self {
        BroadcastSimulator {
            config,
            chunk: DEFAULT_CHUNK,
            workers: 1,
            recorder: Arc::new(NoopRecorder),
        }
    }

    /// Creates an engine with the paper's default configuration.
    pub fn paper() -> Self {
        BroadcastSimulator::default()
    }

    /// Sets the number of references decoded per chunk.
    ///
    /// A zero chunk size is rejected with a typed
    /// [`SimConfigError::ZeroChunk`] when the engine runs, consistent
    /// with every other configuration error.
    pub fn chunk_size(mut self, refs: usize) -> Self {
        self.chunk = refs;
        self
    }

    /// Sets the number of shard workers. `1` (the default) runs
    /// single-pass on the calling thread; more shards the stream under
    /// the configuration's [`ShardKey`](crate::engine::ShardKey) — by
    /// block address for infinite caches, by cache set index for finite
    /// ones.
    ///
    /// A zero worker count is rejected with a typed
    /// [`SimConfigError::ZeroWorkers`] when the engine runs.
    pub fn workers(mut self, workers: usize) -> Self {
        self.workers = workers;
        self
    }

    /// Sets the metrics [`Recorder`] the engine reports into. The default
    /// is [`NoopRecorder`]: instrumented sites cost one always-false
    /// `enabled()` check and nothing else.
    ///
    /// The engine records:
    ///
    /// * `phase_seconds{phase=decode|route|step|merge}` — histogram of
    ///   per-chunk phase wall-clock (sharded step spans carry a `shard`
    ///   label);
    /// * `engine_refs` — counter of references decoded from the source;
    /// * `scheme_refs/scheme_transactions{scheme}` and
    ///   `scheme_ops{scheme,op}` — per-scheme result totals;
    /// * `shard_refs/shard_ops{shard}` — per-shard totals (sharded runs);
    /// * `kernel_lanes` — counter of lanes that start on a table kernel
    ///   (see [`crate::kernel`]), summed over shards: a sharded run steps
    ///   one lane per scheme per shard;
    /// * `kernel_joint_lanes` — counter of those lanes that start joined:
    ///   a bank of several lanes, all on kernels, steps them as one joint
    ///   kernel, a product machine over their block states; summed over
    ///   shards;
    /// * `kernel_joint_splits{reason}` — counter of joint kernels that
    ///   split back into per-lane kernels mid-stream, because a fresh
    ///   joint state would pass the joint's budget (`reason="budget"`) or
    ///   a lane's own table overflowed (`reason="lane_overflow"`); summed
    ///   over shards;
    /// * `kernel_materializations{scheme}` — counter of kernel lanes that
    ///   overflowed their row budget and continued on the match machine,
    ///   summed over shards;
    /// * pipeline-overlap metrics whenever the source decodes on the
    ///   producer thread (see the module docs):
    ///   `decode_stall_seconds`, `step_stall_seconds`,
    ///   `pipeline_queue_depth{stage[,shard]}`, and the
    ///   `pipeline_occupancy` gauge.
    pub fn recorder(mut self, recorder: Arc<dyn Recorder>) -> Self {
        self.recorder = recorder;
        self
    }

    /// The active engine configuration.
    pub fn config(&self) -> &SimConfig {
        &self.config
    }

    /// Validates everything shared by all run paths. Kept out of the
    /// builders so misconfiguration is a typed error, not a panic.
    fn validate_run(&self, schemes: &[Scheme]) -> Result<(), Error> {
        if schemes.is_empty() {
            return Err(Error::Config(SimConfigError::NoSchemes));
        }
        // Sharded finite-cache runs derive the set mask from the
        // geometry, and every finite run builds `FiniteCache`s from it,
        // so an unusable sets/ways combination surfaces here as a typed
        // error instead of a mid-run panic.
        self.config.validate().map_err(Error::Config)?;
        if self.chunk == 0 {
            return Err(Error::Config(SimConfigError::ZeroChunk));
        }
        if self.workers == 0 {
            return Err(Error::Config(SimConfigError::ZeroWorkers));
        }
        Ok(())
    }

    /// Runs every scheme over the stream, returning one [`SimResult`] per
    /// scheme in `schemes` order.
    ///
    /// Requires `S: Send` because a source that does not lend its chunks
    /// moves to the decode producer thread (see the module docs).
    ///
    /// # Errors
    ///
    /// Returns a typed [`Error`] for trace decode failures, oracle
    /// violations, invariant violations, or an unusable configuration
    /// (no schemes, finite-cache geometry, zero chunk size, zero
    /// workers). Under sharded execution, `ref_index` in an error is
    /// relative to the failing shard's subsequence, not the global
    /// stream.
    pub fn run<S>(
        &self,
        schemes: &[Scheme],
        caches: u32,
        source: S,
    ) -> Result<Vec<SimResult>, Error>
    where
        S: TraceSource + Send,
    {
        self.run_observed(schemes, caches, source, |_| {})
    }

    /// Like [`run`](Self::run), but additionally calls `observe` once per
    /// decoded chunk, with the whole chunk, in stream order, on the
    /// calling thread. The chunks concatenate to the stream; none is empty
    /// or longer than [`chunk_size`](Self::chunk_size). The experiment
    /// harness uses it to tick progress and to tally
    /// [`TraceStats`](dirsim_trace::TraceStats) for the streams its sizing
    /// scan did not cover.
    ///
    /// # Errors
    ///
    /// See [`run`](Self::run).
    pub fn run_observed<S, F>(
        &self,
        schemes: &[Scheme],
        caches: u32,
        source: S,
        mut observe: F,
    ) -> Result<Vec<SimResult>, Error>
    where
        S: TraceSource + Send,
        F: FnMut(&[MemRef]),
    {
        self.validate_run(schemes)?;
        pipeline::run(
            self.config,
            self.chunk,
            self.workers,
            &*self.recorder,
            schemes,
            caches,
            source,
            &mut observe,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::Simulator;
    use dirsim_mem::CacheGeometry;
    use dirsim_trace::source::{IterSource, SliceSource};
    use dirsim_trace::Scenario;

    const REFS: usize = 20_000;

    fn trace() -> Vec<MemRef> {
        Scenario::named("pops")
            .unwrap()
            .workload()
            .take(REFS)
            .collect()
    }

    fn serial_baseline(config: SimConfig, schemes: &[Scheme], refs: &[MemRef]) -> Vec<SimResult> {
        schemes
            .iter()
            .map(|&s| {
                let mut p = s.build(4);
                Simulator::new(config)
                    .run(p.as_mut(), refs.iter().copied())
                    .unwrap()
            })
            .collect()
    }

    #[test]
    fn single_pass_matches_serial() {
        let refs = trace();
        let schemes = Scheme::paper_lineup();
        let config = SimConfig::default();
        let serial = serial_baseline(config, &schemes, &refs);
        let broadcast = BroadcastSimulator::new(config)
            .run(&schemes, 4, IterSource::new(refs.iter().copied()))
            .unwrap();
        assert_eq!(serial, broadcast);
    }

    #[test]
    fn sharded_matches_serial_with_oracle() {
        let refs = trace();
        let schemes = Scheme::paper_lineup();
        let config = SimConfig {
            check_oracle: true,
            ..SimConfig::default()
        };
        let serial = serial_baseline(config, &schemes, &refs);
        for workers in [2, 3, 7] {
            let sharded = BroadcastSimulator::new(config)
                .workers(workers)
                .chunk_size(512)
                .run(&schemes, 4, IterSource::new(refs.iter().copied()))
                .unwrap();
            assert_eq!(serial, sharded, "workers = {workers}");
        }
    }

    #[test]
    fn sharded_supports_finite_caches() {
        // Regression: this exact configuration used to be rejected with
        // the (now removed) `SimConfigError::ShardedFiniteCache`. Set
        // sharding makes it both legal and exact.
        let config = SimConfig {
            geometry: Some(CacheGeometry { sets: 4, ways: 2 }),
            check_oracle: true,
            ..SimConfig::default()
        };
        let refs = trace();
        let schemes = Scheme::paper_lineup();
        let serial = serial_baseline(config, &schemes, &refs);
        for workers in [2, 3, 8] {
            let sharded = BroadcastSimulator::new(config)
                .workers(workers)
                .chunk_size(512)
                .run(&schemes, 4, IterSource::new(refs.iter().copied()))
                .unwrap();
            assert_eq!(serial, sharded, "workers = {workers}");
        }
        assert!(
            serial[0].capacity_evictions > 0,
            "geometry small enough to evict"
        );
    }

    #[test]
    fn unusable_geometry_is_a_typed_error() {
        // Bypass the builder (which would catch this) to prove the
        // engine validates too, on every execution path.
        let config = SimConfig {
            geometry: Some(CacheGeometry { sets: 3, ways: 2 }),
            ..SimConfig::default()
        };
        for workers in [1, 2] {
            let err = BroadcastSimulator::new(config)
                .workers(workers)
                .run(&[Scheme::Dragon], 4, IterSource::new(trace().into_iter()))
                .unwrap_err();
            assert!(
                matches!(err, Error::Config(SimConfigError::Geometry(_))),
                "workers = {workers}: {err}"
            );
        }
    }

    #[test]
    fn zero_chunk_size_is_a_typed_error() {
        // Regression: `chunk_size(0)` used to panic in the builder; it is
        // now a typed configuration error at run time, for both decode
        // placements.
        let engine = BroadcastSimulator::paper().chunk_size(0);
        let err = engine
            .run(&[Scheme::Wti], 4, IterSource::new(trace().into_iter()))
            .unwrap_err();
        assert!(
            matches!(err, Error::Config(SimConfigError::ZeroChunk)),
            "{err}"
        );
        assert!(err.to_string().contains("chunk"), "{err}");
        let refs = trace();
        let err = engine
            .run(&[Scheme::Wti], 4, SliceSource::new(&refs))
            .unwrap_err();
        assert!(
            matches!(err, Error::Config(SimConfigError::ZeroChunk)),
            "{err}"
        );
    }

    #[test]
    fn zero_workers_is_a_typed_error() {
        let err = BroadcastSimulator::paper()
            .workers(0)
            .run(&[Scheme::Wti], 4, IterSource::new(trace().into_iter()))
            .unwrap_err();
        assert!(
            matches!(err, Error::Config(SimConfigError::ZeroWorkers)),
            "{err}"
        );
    }

    #[test]
    fn single_pass_supports_finite_caches() {
        let config = SimConfig {
            geometry: Some(CacheGeometry { sets: 16, ways: 2 }),
            check_oracle: true,
            ..SimConfig::default()
        };
        let refs = trace();
        let schemes = [Scheme::Dragon, Scheme::Wti];
        let serial = serial_baseline(config, &schemes, &refs);
        let broadcast = BroadcastSimulator::new(config)
            .run(&schemes, 4, IterSource::new(refs.iter().copied()))
            .unwrap();
        assert_eq!(serial, broadcast);
        assert!(broadcast[0].capacity_evictions > 0);
    }

    #[test]
    fn observer_sees_every_reference_in_order() {
        const CHUNK: usize = 1000;
        let refs = trace();
        let mut seen = Vec::new();
        let mut chunks = 0;
        BroadcastSimulator::paper()
            .workers(2)
            .chunk_size(CHUNK)
            .run_observed(
                &[Scheme::Wti],
                4,
                IterSource::new(refs.iter().copied()),
                |chunk| {
                    assert!(!chunk.is_empty());
                    assert!(chunk.len() <= CHUNK);
                    chunks += 1;
                    seen.extend_from_slice(chunk);
                },
            )
            .unwrap();
        assert!(chunks > 1, "trace should span several chunks");
        assert_eq!(seen, refs);
    }

    #[test]
    fn trace_errors_surface_as_typed_errors() {
        let encoded = b"NOPE0000".to_vec();
        let err = BroadcastSimulator::paper()
            .run(
                &[Scheme::Wti],
                2,
                dirsim_trace::io::read_binary(&encoded[..]),
            )
            .unwrap_err();
        assert!(matches!(err, Error::TraceIo(_)));
        // The message is the decode error's, which has no cause of its
        // own, so the chain ends here.
        use std::error::Error as _;
        assert!(err.to_string().contains("magic"));
        assert!(err.source().is_none());
    }

    #[test]
    fn more_workers_than_blocks_is_fine() {
        // Two blocks, eight workers: six shards stay empty.
        let refs: Vec<MemRef> = trace()
            .into_iter()
            .map(|mut r| {
                r.addr = dirsim_trace::Addr::new(r.addr.raw() % 32);
                r
            })
            .collect();
        let schemes = [Scheme::Directory(dirsim_protocol::DirSpec::dir0_b())];
        let serial = serial_baseline(SimConfig::default(), &schemes, &refs);
        let sharded = BroadcastSimulator::paper()
            .workers(8)
            .run(&schemes, 4, IterSource::new(refs.iter().copied()))
            .unwrap();
        assert_eq!(serial, sharded);
    }

    #[test]
    fn empty_schemes_is_a_typed_error() {
        let engine = BroadcastSimulator::paper();
        let err = engine
            .run(&[], 4, IterSource::new(std::iter::empty()))
            .unwrap_err();
        assert!(
            matches!(err, Error::Config(SimConfigError::NoSchemes)),
            "{err}"
        );
        let err = engine
            .run_observed(&[], 4, SliceSource::new(&[]), |_| {})
            .unwrap_err();
        assert!(
            matches!(err, Error::Config(SimConfigError::NoSchemes)),
            "{err}"
        );
    }

    #[test]
    fn instrumented_run_records_phases_and_totals() {
        use dirsim_obs::MetricsRegistry;

        let refs = trace();
        let registry = Arc::new(MetricsRegistry::new());
        let results = BroadcastSimulator::paper()
            .recorder(registry.clone())
            .run(
                &[Scheme::Wti, Scheme::Dragon],
                4,
                IterSource::new(refs.iter().copied()),
            )
            .unwrap();
        assert_eq!(
            registry.counter_value("engine_refs", &[]),
            Some(REFS as u64)
        );
        for r in &results {
            assert_eq!(
                registry.counter_value("scheme_refs", &[("scheme", &r.scheme)]),
                Some(r.refs)
            );
            assert_eq!(
                registry.counter_value("scheme_transactions", &[("scheme", &r.scheme)]),
                Some(r.transactions)
            );
        }
        for phase in ["decode", "step"] {
            let h = registry
                .histogram_summary("phase_seconds", &[("phase", phase)])
                .unwrap_or_else(|| panic!("missing {phase} phase timings"));
            assert!(h.count > 0 && h.sum >= 0.0);
        }
    }

    #[test]
    fn sharded_shard_counters_sum_to_total() {
        use dirsim_obs::MetricsRegistry;

        let refs = trace();
        let workers = 3;
        let registry = Arc::new(MetricsRegistry::new());
        let results = BroadcastSimulator::paper()
            .workers(workers)
            .recorder(registry.clone())
            .run(&[Scheme::Wti], 4, IterSource::new(refs.iter().copied()))
            .unwrap();
        let shard_refs: u64 = (0..workers)
            .map(|s| {
                registry
                    .counter_value("shard_refs", &[("shard", &s.to_string())])
                    .unwrap_or(0)
            })
            .sum();
        assert_eq!(shard_refs, REFS as u64);
        let shard_ops: u64 = (0..workers)
            .map(|s| {
                registry
                    .counter_value("shard_ops", &[("shard", &s.to_string())])
                    .unwrap_or(0)
            })
            .sum();
        assert_eq!(shard_ops, results[0].ops.total());
        let merge = registry
            .histogram_summary("phase_seconds", &[("phase", "merge")])
            .expect("missing merge phase timing");
        assert_eq!(merge.count, 1);
    }
}
