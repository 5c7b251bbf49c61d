//! Timing-level simulation: processor utilisation under bus contention.
//!
//! The paper's §4.1 deliberately abstracts time away — event frequencies
//! are priced after the fact — and notes that "to determine the absolute
//! performance of a multiprocessor system using total processor
//! utilizations, a simulation must be carried out for every hardware model
//! desired". [`TimingSimulator`] is that simulation: each processor
//! consumes its own reference stream at one reference per cycle, every
//! reference that needs the bus arbitrates for it (first-come
//! first-served) and stalls its processor for the transaction's service
//! time (the §4.3 op costs, plus the §5.1 fixed overhead `q`), and the run
//! reports per-processor utilisation, bus utilisation, and speedup.
//!
//! Because the interleaving now *depends on timing*, coherence state is
//! updated in simulated service order rather than trace order — precisely
//! the feedback effect the paper says trace-driven simulation cannot
//! capture (§4). The analytic M/D/1 bound of [`crate::analysis`] is
//! cross-validated against this simulator in the test suite.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use dirsim_cost::CostModel;
use dirsim_mem::BlockMap;
use dirsim_mem::CacheId;
use dirsim_protocol::CoherenceProtocol;
use dirsim_trace::{AccessKind, MemRef};

/// Timing-model configuration.
#[derive(Debug, Clone, Copy)]
pub struct TimingConfig {
    /// Byte-address to block mapping.
    pub block_map: BlockMap,
    /// Service costs per bus operation.
    pub cost: CostModel,
    /// Fixed overhead cycles added to every bus transaction (arbitration,
    /// controller propagation — the §5.1 `q`).
    pub fixed_overhead: u32,
    /// Processor cycles per bus cycle. The paper's worked example pairs
    /// fast processors with a slower bus; a multiplier of 4 means every
    /// bus cycle stalls the processor for four of its own cycles.
    pub bus_clock_multiplier: u32,
}

impl Default for TimingConfig {
    fn default() -> Self {
        TimingConfig {
            block_map: BlockMap::paper(),
            cost: CostModel::pipelined(),
            fixed_overhead: 1,
            bus_clock_multiplier: 1,
        }
    }
}

/// Results of a timed run.
#[derive(Debug, Clone, PartialEq)]
pub struct TimingResult {
    /// Total simulated cycles until the last processor finished.
    pub total_cycles: u64,
    /// References executed per processor.
    pub per_cpu_refs: Vec<u64>,
    /// Cycles each processor spent stalled on the bus.
    pub per_cpu_stall: Vec<u64>,
    /// Cycles the bus was busy serving transactions.
    pub bus_busy_cycles: u64,
    /// Bus transactions served.
    pub transactions: u64,
}

impl TimingResult {
    /// Mean processor utilisation: the fraction of each processor's
    /// lifetime spent executing references rather than stalled.
    pub fn processor_utilization(&self) -> f64 {
        // An empty run has no processors to average over; without this
        // guard the sum-over-n below would be 0.0 / 0.0 = NaN.
        if self.total_cycles == 0 || self.per_cpu_refs.is_empty() {
            return 0.0;
        }
        let n = self.per_cpu_refs.len() as f64;
        self.per_cpu_refs
            .iter()
            .zip(&self.per_cpu_stall)
            .map(|(&refs, &stall)| {
                let busy = refs as f64;
                let lifetime = busy + stall as f64;
                if lifetime == 0.0 {
                    0.0
                } else {
                    busy / lifetime
                }
            })
            .sum::<f64>()
            / n
    }

    /// Bus utilisation over the run.
    pub fn bus_utilization(&self) -> f64 {
        if self.total_cycles == 0 {
            0.0
        } else {
            self.bus_busy_cycles as f64 / self.total_cycles as f64
        }
    }

    /// Aggregate throughput in references per cycle (the machine's
    /// "effective processors" since one processor retires one reference
    /// per cycle uncontended).
    pub fn effective_processors(&self) -> f64 {
        if self.total_cycles == 0 {
            0.0
        } else {
            self.per_cpu_refs.iter().sum::<u64>() as f64 / self.total_cycles as f64
        }
    }
}

/// The timing-level simulator (see module docs).
#[derive(Debug, Clone, Default)]
pub struct TimingSimulator {
    config: TimingConfig,
}

impl TimingSimulator {
    /// Creates a simulator with the given configuration.
    pub fn new(config: TimingConfig) -> Self {
        TimingSimulator { config }
    }

    /// Runs `protocol` on a machine of `cpus` processors over the
    /// interleaved stream from `source`: reference `r` executes on
    /// processor `r.cpu % cpus`.
    ///
    /// Each processor retires one reference per cycle while unstalled;
    /// references whose protocol outcome carries bus operations stall the
    /// processor behind a FCFS bus for `fixed_overhead + Σ op costs`
    /// cycles. Returns when every processor's stream is exhausted.
    ///
    /// The source is pulled in chunks through the same
    /// [`TraceSource`](dirsim_trace::TraceSource) interface the frequency
    /// engine uses, so a trace file, a filtered source or an in-memory
    /// [`SliceSource`](dirsim_trace::SliceSource) feeds the timing model
    /// without being collected first. Unlike the frequency engine, the
    /// timing model's event loop consumes per-CPU streams whole
    /// (arbitration looks ahead across the full run), so the split
    /// streams are still materialised; only the decode is chunked.
    ///
    /// # Errors
    ///
    /// Propagates the first decode error from the source.
    ///
    /// # Panics
    ///
    /// Panics if `cpus == 0`.
    pub fn run_source<S: dirsim_trace::TraceSource>(
        &self,
        protocol: &mut dyn CoherenceProtocol,
        mut source: S,
        cpus: usize,
    ) -> Result<TimingResult, crate::error::Error> {
        assert!(cpus > 0, "need at least one processor stream");
        let mut per_cpu = vec![Vec::new(); cpus];
        let mut buf = Vec::new();
        loop {
            buf = source.read_chunk_owned(buf, crate::broadcast::DEFAULT_CHUNK)?;
            if buf.is_empty() {
                break;
            }
            for r in &buf {
                per_cpu[r.cpu.index() % cpus].push(*r);
            }
        }
        Ok(self.run(protocol, per_cpu))
    }

    /// The event loop over one stream per processor (see
    /// [`run_source`](Self::run_source)).
    fn run(&self, protocol: &mut dyn CoherenceProtocol, per_cpu: Vec<Vec<MemRef>>) -> TimingResult {
        let n = per_cpu.len();
        let mut result = TimingResult {
            total_cycles: 0,
            per_cpu_refs: vec![0; n],
            per_cpu_stall: vec![0; n],
            bus_busy_cycles: 0,
            transactions: 0,
        };
        // (next-free-time, cpu, position) — min-heap by time then cpu for
        // deterministic tie-breaking.
        let mut heap: BinaryHeap<Reverse<(u64, usize)>> =
            (0..n).map(|cpu| Reverse((0u64, cpu))).collect();
        let mut position = vec![0usize; n];
        let mut bus_free_at = 0u64;

        while let Some(Reverse((now, cpu))) = heap.pop() {
            let stream = &per_cpu[cpu];
            let Some(r) = stream.get(position[cpu]) else {
                continue; // stream exhausted
            };
            position[cpu] += 1;
            result.per_cpu_refs[cpu] += 1;
            // The reference itself takes one processor cycle.
            let mut next_free = now + 1;
            if r.kind != AccessKind::InstrFetch {
                let block = self.config.block_map.block_of(r.addr);
                let outcome = protocol.on_data_ref(
                    CacheId::new(cpu as u32),
                    block,
                    r.kind == AccessKind::Write,
                );
                if !outcome.ops.is_empty() {
                    let bus_cycles: u64 = u64::from(self.config.fixed_overhead)
                        + outcome
                            .ops
                            .iter()
                            .map(|&op| u64::from(self.config.cost.op_cost(op)))
                            .sum::<u64>();
                    let service = bus_cycles * u64::from(self.config.bus_clock_multiplier.max(1));
                    let start = bus_free_at.max(next_free);
                    let done = start + service;
                    result.per_cpu_stall[cpu] += done - next_free;
                    result.bus_busy_cycles += service;
                    result.transactions += 1;
                    bus_free_at = done;
                    next_free = done;
                }
            }
            result.total_cycles = result.total_cycles.max(next_free);
            heap.push(Reverse((next_free, cpu)));
            // Exhausted streams simply never re-execute; drain the heap of
            // finished processors lazily.
            while let Some(&Reverse((_, c))) = heap.peek() {
                if position[c] < per_cpu[c].len() {
                    break;
                }
                heap.pop();
            }
        }
        result
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dirsim_protocol::{DirSpec, Scheme};
    use dirsim_trace::source::{IterSource, SliceSource};
    use dirsim_trace::synth::{Workload, WorkloadConfig};
    use dirsim_trace::{Addr, CpuId, ProcessId, Scenario};

    /// Runs `refs` through the default timing model on `cpus` processors.
    fn timed(protocol: &mut dyn CoherenceProtocol, refs: &[MemRef], cpus: usize) -> TimingResult {
        TimingSimulator::default()
            .run_source(protocol, SliceSource::new(refs), cpus)
            .unwrap()
    }

    #[test]
    fn lone_processor_private_stream_never_stalls_after_warmup() {
        // One cpu re-reading one block: a single cold miss (free under the
        // paper's exclusion) then pure hits.
        let refs: Vec<MemRef> = (0..1000)
            .map(|_| MemRef::read(CpuId::new(0), ProcessId::new(0), Addr::new(0x40)))
            .collect();
        let mut p = Scheme::Directory(DirSpec::dir0_b()).build(1);
        let result = timed(p.as_mut(), &refs, 1);
        assert_eq!(result.per_cpu_refs[0], 1000);
        assert_eq!(result.per_cpu_stall[0], 0);
        assert_eq!(result.transactions, 0);
        assert!((result.processor_utilization() - 1.0).abs() < 1e-9);
        assert_eq!(result.total_cycles, 1000);
    }

    #[test]
    fn misses_stall_for_service_plus_overhead() {
        // Two cpus ping-ponging a dirty block: every access after the first
        // is a 1(req)+4(wb) = 5-cycle transaction plus overhead 1.
        let mk = |cpu: u16, w: bool| {
            MemRef::new(
                CpuId::new(cpu),
                ProcessId::new(u32::from(cpu)),
                Addr::new(0x80),
                if w {
                    AccessKind::Write
                } else {
                    AccessKind::Read
                },
            )
        };
        let refs = [mk(0, true), mk(1, true), mk(0, true), mk(1, true)];
        let mut p = Scheme::Directory(DirSpec::dir0_b()).build(2);
        let result = timed(p.as_mut(), &refs, 2);
        assert_eq!(result.transactions, 3, "all but the cold write transact");
        assert_eq!(result.bus_busy_cycles, 3 * 6);
        assert!(result.per_cpu_stall.iter().sum::<u64>() >= 18);
    }

    #[test]
    fn run_source_matches_the_per_cpu_run() {
        // Chunked decode through a TraceSource — lent in place or pulled
        // from an iterator — must not change the timing model's view of
        // the stream.
        let refs: Vec<MemRef> = Scenario::named("pops")
            .unwrap()
            .workload()
            .take(20_000)
            .collect();
        let mut a = Scheme::Directory(DirSpec::dir0_b()).build(4);
        let per_cpu = TimingSimulator::default().run(a.as_mut(), split(refs.clone(), 4));
        let mut b = Scheme::Directory(DirSpec::dir0_b()).build(4);
        let from_slice = timed(b.as_mut(), &refs, 4);
        let mut c = Scheme::Directory(DirSpec::dir0_b()).build(4);
        let from_iter = TimingSimulator::default()
            .run_source(c.as_mut(), IterSource::new(refs.into_iter()), 4)
            .unwrap();
        assert_eq!(per_cpu, from_slice);
        assert_eq!(per_cpu, from_iter);
    }

    #[test]
    fn utilization_degrades_with_processor_count() {
        let util = |cpus: u16| {
            let cfg = WorkloadConfig::builder()
                .cpus(cpus)
                .processes(u32::from(cpus))
                .shared_frac(0.05)
                .seed(77)
                .build()
                .unwrap();
            let refs: Vec<MemRef> = Workload::new(cfg).take(40_000).collect();
            let mut p = Scheme::Directory(DirSpec::dir0_b()).build(u32::from(cpus));
            timed(p.as_mut(), &refs, cpus as usize).processor_utilization()
        };
        let u2 = util(2);
        let u8 = util(8);
        let u32v = util(32);
        assert!(u2 > u8, "u2={u2} u8={u8}");
        assert!(u8 > u32v, "u8={u8} u32={u32v}");
    }

    #[test]
    fn throughput_saturates_at_the_bus_bound() {
        // With many processors the machine retires at most
        // 1/cycles-per-ref references per cycle, no matter how many cpus.
        let cfg = WorkloadConfig::builder()
            .cpus(32)
            .processes(32)
            .shared_frac(0.05)
            .seed(99)
            .build()
            .unwrap();
        let refs: Vec<MemRef> = Workload::new(cfg).take(60_000).collect();
        let mut p = Scheme::Directory(DirSpec::dir0_b()).build(32);
        let result = timed(p.as_mut(), &refs, 32);
        assert!(
            result.bus_utilization() > 0.85,
            "a 32-way machine should saturate the bus: {}",
            result.bus_utilization()
        );
        assert!(result.effective_processors() < 32.0 * 0.9);
    }

    #[test]
    fn dragon_sustains_more_effective_processors_than_wti() {
        let run = |scheme: Scheme| {
            let refs: Vec<MemRef> = Scenario::named("pops")
                .unwrap()
                .workload()
                .take(60_000)
                .collect();
            let mut p = scheme.build(4);
            timed(p.as_mut(), &refs, 4)
        };
        let dragon = run(Scheme::Dragon);
        let wti = run(Scheme::Wti);
        assert!(
            dragon.processor_utilization() > wti.processor_utilization(),
            "dragon {} vs wti {}",
            dragon.processor_utilization(),
            wti.processor_utilization()
        );
    }

    #[test]
    fn analytic_bound_brackets_the_simulated_machine() {
        // Cross-validation: the timing simulator's effective-processor
        // count at heavy load approaches (and never exceeds) the §5
        // bandwidth bound computed from the same scheme's average cost.
        use crate::engine::Simulator;
        let cfg = WorkloadConfig::builder()
            .cpus(16)
            .processes(16)
            .shared_frac(0.05)
            .seed(123)
            .build()
            .unwrap();
        let refs: Vec<MemRef> = Workload::new(cfg).take(60_000).collect();

        // Average cost per reference (with q=1 overhead), from the
        // frequency-based engine.
        let mut p = Scheme::Directory(DirSpec::dir0_b()).build(16);
        let freq = Simulator::paper()
            .run(p.as_mut(), refs.iter().copied())
            .unwrap();
        let bd = freq.breakdown(CostModel::pipelined());
        let cycles_per_ref = bd.cycles_per_ref_with_overhead(1.0);
        let analytic_bound = 1.0 / cycles_per_ref;

        // The timed machine.
        let mut p = Scheme::Directory(DirSpec::dir0_b()).build(16);
        let simulated = timed(p.as_mut(), &refs, 16).effective_processors();
        assert!(
            simulated <= analytic_bound * 1.10,
            "simulated {simulated} exceeds analytic bound {analytic_bound}"
        );
        assert!(
            simulated > analytic_bound * 0.5,
            "simulated {simulated} far below bound {analytic_bound} — load should saturate"
        );
    }

    #[test]
    fn slower_bus_hurts_utilization() {
        let run = |multiplier: u32| {
            let refs: Vec<MemRef> = Scenario::named("thor")
                .unwrap()
                .workload()
                .take(40_000)
                .collect();
            let mut p = Scheme::Directory(DirSpec::dir0_b()).build(4);
            let config = TimingConfig {
                bus_clock_multiplier: multiplier,
                ..TimingConfig::default()
            };
            TimingSimulator::new(config)
                .run_source(p.as_mut(), SliceSource::new(&refs), 4)
                .unwrap()
        };
        let fast = run(1);
        let slow = run(4);
        assert!(
            slow.processor_utilization() < fast.processor_utilization(),
            "slow {} !< fast {}",
            slow.processor_utilization(),
            fast.processor_utilization()
        );
    }

    #[test]
    #[should_panic(expected = "at least one processor stream")]
    fn empty_streams_rejected() {
        let mut p = Scheme::Dragon.build(1);
        let _ = timed(p.as_mut(), &[], 0);
    }

    #[test]
    fn empty_timing_result_reports_zero_utilization_not_nan() {
        // Regression: a hand-built (or degenerate) result with no
        // processors used to return 0.0/0.0 = NaN from
        // processor_utilization when total_cycles was non-zero.
        let empty = TimingResult {
            total_cycles: 10,
            per_cpu_refs: Vec::new(),
            per_cpu_stall: Vec::new(),
            bus_busy_cycles: 0,
            transactions: 0,
        };
        assert_eq!(empty.processor_utilization(), 0.0);
        assert!(empty.processor_utilization().is_finite());
        assert_eq!(empty.effective_processors(), 0.0);
        let zero = TimingResult {
            total_cycles: 0,
            per_cpu_refs: Vec::new(),
            per_cpu_stall: Vec::new(),
            bus_busy_cycles: 0,
            transactions: 0,
        };
        assert_eq!(zero.processor_utilization(), 0.0);
        assert_eq!(zero.bus_utilization(), 0.0);
    }

    fn split(refs: Vec<MemRef>, cpus: usize) -> Vec<Vec<MemRef>> {
        let mut per_cpu = vec![Vec::new(); cpus];
        for r in refs {
            per_cpu[r.cpu.index() % cpus].push(r);
        }
        per_cpu
    }
}
