//! The synthetic workload generator.
//!
//! [`Workload`] is an infinite, deterministic iterator of [`MemRef`]s that
//! emulates `P` processes running on `C` processors: per-process code loops
//! and private working sets, shared pools with read-mostly / migratory /
//! producer-consumer / false-sharing semantics and working-set churn,
//! honest test-and-test-and-set spin locks with long lock-holding phases,
//! optional barrier rendezvous, split per-CPU/shared operating-system
//! activity, a round-robin scheduler with a context-switch quantum, and
//! optional process migration.
//!
//! Determinism: the stream is a pure function of the [`WorkloadConfig`]
//! (including its seed), so experiments are exactly reproducible.

use std::collections::VecDeque;

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use crate::io::TraceIoError;
use crate::source::TraceSource;
use crate::synth::config::{Phase, SharingMix, WorkloadConfig};
use crate::synth::dist::{below, draw53, Chance, Zipf};
use crate::synth::layout::{AddressLayout, Region};
use crate::types::{Addr, CpuId, MemRef, ProcessId, RefFlags};

#[cfg(test)]
use crate::types::AccessKind;

/// Blocks of data guarded by each lock (the critical-section working set).
/// Kept small: the paper's traces show very low coherence-miss rates, so
/// lock-protected handoffs must touch only a few blocks.
const GUARDED_BLOCKS_PER_LOCK: u64 = 4;

/// Of the data references issued inside a critical section, the fraction
/// that touch the lock's guarded blocks (the rest are ordinary private/OS
/// work done while holding the lock).
const CS_GUARDED_FRAC: f64 = 0.30;

/// Blocks in the globally-shared operating-system pool.
const OS_SHARED_BLOCKS: u64 = 64;

/// Per-processor operating-system blocks (kernel stacks, per-CPU data).
const OS_LOCAL_BLOCKS: u64 = 64;

/// Fraction of OS references that touch the globally-shared pool.
const OS_SHARED_PROB: f64 = 0.25;

/// Fraction of shared-pool OS references that are writes. Kept low: OS
/// shared structures are read-mostly, and every write here invalidates
/// copies in all processors' caches.
const OS_SHARED_WRITE_FRAC: f64 = 0.02;

/// Fraction of per-processor OS references that are writes.
const OS_LOCAL_WRITE_FRAC: f64 = 0.30;

/// Length of a migratory access burst, in references.
const MIGRATORY_BURST: u32 = 8;

/// References per producer/consumer epoch (producer role rotates).
const PRODUCER_EPOCH: u64 = 50_000;

/// Probability that an instruction fetch jumps instead of falling through.
const JUMP_PROB: f64 = 0.05;

/// Probability that a private reference reuses the previous private block.
const PRIVATE_LOCALITY: f64 = 0.6;

/// Fraction of read-mostly pool references that are writes.
const READ_MOSTLY_WRITE_FRAC: f64 = 0.01;

/// Fraction of migratory burst references that are writes.
const MIGRATORY_WRITE_FRAC: f64 = 0.5;

/// Fraction of false-sharing references that are writes (per-process
/// counters are update-heavy).
const FALSE_SHARING_WRITE_FRAC: f64 = 0.6;

/// Working-set churn: shared pools are sliding windows over a growing
/// block space, modelling allocation of new shared objects over time. This
/// sustains the *native* miss rate the paper observes with infinite caches
/// (Dragon's misses, Table 4) instead of letting it decay to zero once the
/// pools are cached everywhere.
///
/// Probability per guarded-data reference of sliding the lock's window.
const GUARDED_CHURN: f64 = 0.05;

/// Probability per migratory burst of sliding the migratory window.
const MIGRATORY_CHURN: f64 = 0.10;

/// Probability per read-mostly/producer-consumer reference of sliding that
/// pool's window.
const POOL_CHURN: f64 = 0.004;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Mode {
    Running,
    /// Spinning on a lock with test reads.
    Spinning {
        lock: u32,
    },
    /// Inside the critical section of `lock`.
    Critical {
        lock: u32,
        remaining: u32,
    },
    /// Arrived at the barrier; spinning until the generation advances
    /// past the recorded value.
    AtBarrier {
        generation: u64,
    },
}

#[derive(Debug, Clone)]
struct ProcState {
    mode: Mode,
    /// Current code block (program counter at block granularity).
    pc: u64,
    /// Most recent private block, for temporal locality.
    last_private: u64,
    /// Current migratory block and remaining burst length.
    mig_block: u64,
    mig_burst_left: u32,
    /// Turns of ordinary work since the last barrier episode.
    turns_since_barrier: u32,
}

impl ProcState {
    fn new(pid: u32, cfg: &WorkloadConfig) -> Self {
        ProcState {
            mode: Mode::Running,
            pc: u64::from(pid) % u64::from(cfg.code_blocks),
            last_private: 0,
            mig_block: u64::from(pid) % u64::from(cfg.shared_blocks_per_pool),
            mig_burst_left: 0,
            turns_since_barrier: 0,
        }
    }
}

#[derive(Debug, Clone, Copy)]
struct LockState {
    holder: Option<u32>,
}

/// Every Bernoulli draw of the generator as a [`Chance`]: the base
/// configuration with the active phase's overrides applied, and the fixed
/// probabilities above. Recomputed only at phase boundaries, so each draw
/// on the per-reference hot path is one integer compare.
#[derive(Debug, Clone, Copy)]
struct Odds {
    /// An instruction fetch (spin loops, critical sections, barriers).
    instr: Chance,
    /// A running turn's roll below this (and not below `instr`) is an OS
    /// reference: the cumulative `instr_frac + (1 − instr_frac) · os_frac`.
    instr_or_os: Chance,
    /// An OS reference inside a critical section: `(1 − instr_frac) · os_frac`.
    critical_os: Chance,
    write: Chance,
    shared: Chance,
    acquire: Chance,
    sharing_mix: SharingMix,
    critical_write: Chance,
    /// `None` when the probability is 0: the draw is skipped, not made.
    arrival: Option<Chance>,
    departure: Option<Chance>,
    /// `None` without migration or with one CPU (the draw is skipped).
    migration: Option<Chance>,
    cs_guarded: Chance,
    guarded_churn: Chance,
    os_shared: Chance,
    os_shared_write: Chance,
    os_local_write: Chance,
    private_locality: Chance,
    jump: Chance,
    false_sharing_write: Chance,
    pool_churn: Chance,
    read_mostly_write: Chance,
    migratory_churn: Chance,
    migratory_write: Chance,
}

impl Odds {
    /// The odds in force under `phase` (`None`: the base configuration).
    fn new(cfg: &WorkloadConfig, phase: Option<&Phase>) -> Self {
        let instr_frac = phase.and_then(|p| p.instr_frac).unwrap_or(cfg.instr_frac);
        let write_frac = phase.and_then(|p| p.write_frac).unwrap_or(cfg.write_frac);
        let shared_frac = phase.and_then(|p| p.shared_frac).unwrap_or(cfg.shared_frac);
        let acquire_prob = phase
            .and_then(|p| p.acquire_prob)
            .unwrap_or(cfg.lock.acquire_prob);
        let sharing_mix = phase.and_then(|p| p.sharing_mix).unwrap_or(cfg.sharing_mix);
        let unless_zero = |p: f64| (p > 0.0).then(|| Chance::new(p));
        Odds {
            instr: Chance::new(instr_frac),
            instr_or_os: Chance::new(instr_frac + (1.0 - instr_frac) * cfg.os_frac),
            critical_os: Chance::new((1.0 - instr_frac) * cfg.os_frac),
            write: Chance::new(write_frac),
            shared: Chance::new(shared_frac),
            acquire: Chance::new(acquire_prob),
            sharing_mix,
            critical_write: Chance::new(cfg.lock.critical_write_frac),
            arrival: unless_zero(cfg.open.arrival_prob),
            departure: unless_zero(cfg.open.departure_prob),
            migration: unless_zero(cfg.migration_prob).filter(|_| cfg.cpus > 1),
            cs_guarded: Chance::new(CS_GUARDED_FRAC),
            guarded_churn: Chance::new(GUARDED_CHURN),
            os_shared: Chance::new(OS_SHARED_PROB),
            os_shared_write: Chance::new(OS_SHARED_WRITE_FRAC),
            os_local_write: Chance::new(OS_LOCAL_WRITE_FRAC),
            private_locality: Chance::new(PRIVATE_LOCALITY),
            jump: Chance::new(JUMP_PROB),
            false_sharing_write: Chance::new(FALSE_SHARING_WRITE_FRAC),
            pool_churn: Chance::new(POOL_CHURN),
            read_mostly_write: Chance::new(READ_MOSTLY_WRITE_FRAC),
            migratory_churn: Chance::new(MIGRATORY_CHURN),
            migratory_write: Chance::new(MIGRATORY_WRITE_FRAC),
        }
    }
}

/// References [`Iterator::next`] generates per block fill.
const LOOKAHEAD: usize = 64;

/// What a slot holds until the block fill overwrites it.
fn blank() -> MemRef {
    MemRef::instr(CpuId::default(), ProcessId::default(), Addr::default())
}

/// Infinite deterministic reference stream. See the module docs.
///
/// [`Iterator::next`] and [`Workload::fill`] read the same stream, in any
/// interleaving. As a [`TraceSource`] it is unbounded and reads each chunk
/// with one fill; [`TakeSource`](crate::TakeSource) bounds it.
///
/// # Examples
///
/// ```
/// use dirsim_trace::synth::{Workload, WorkloadConfig};
///
/// let cfg = WorkloadConfig::builder().seed(1).build().expect("valid");
/// let refs: Vec<_> = Workload::new(cfg.clone()).take(1000).collect();
/// let mut filled = Vec::new();
/// Workload::new(cfg).fill(&mut filled, 1000);
/// assert_eq!(refs, filled);
/// ```
#[derive(Debug, Clone)]
pub struct Workload {
    cfg: WorkloadConfig,
    layout: AddressLayout,
    rng: SmallRng,
    procs: Vec<ProcState>,
    /// Process currently running on each CPU.
    cpu_proc: Vec<u32>,
    /// Processes waiting for a CPU.
    ready: VecDeque<u32>,
    locks: Vec<LockState>,
    /// Processes currently waiting at the barrier.
    barrier_arrived: u32,
    /// Barrier generation; bumped by each release.
    barrier_generation: u64,
    next_cpu: usize,
    step: u64,
    /// References until the next quantum boundary (a multiple of
    /// `cfg.quantum` past step 0), counted down instead of divided. It is
    /// settled once per run of [`Workload::generate`], not per reference.
    quantum_left: u32,
    /// Sliding-window bases for working-set churn (see the churn constants).
    guarded_base: Vec<u64>,
    mig_base: u64,
    read_mostly_base: u64,
    producer_base: u64,
    /// The odds in force (base config + active phase overrides).
    odds: Odds,
    /// Index of the active phase (`cfg.phases` may be empty).
    phase_idx: usize,
    /// References left in the active phase; `None` once the schedule is
    /// exhausted (or was never set).
    phase_left: Option<u64>,
    /// Zipf sampler for shared-pool popularity (`None` = uniform).
    zipf: Option<Zipf>,
    /// Live process count (grows and shrinks in open-system mode).
    live: u32,
    /// References generated ahead of [`Iterator::next`] (empty until its
    /// first call), served from `ahead_pos` on; [`Workload::fill`] drains
    /// them first.
    ahead: Vec<MemRef>,
    ahead_pos: usize,
}

impl Workload {
    /// Creates a generator for a validated configuration.
    ///
    /// # Panics
    ///
    /// Panics if the configuration is invalid; use
    /// [`WorkloadConfig::validate`] (or the builder) first.
    pub fn new(cfg: WorkloadConfig) -> Self {
        cfg.validate().expect("invalid workload configuration");
        let layout = AddressLayout::new(cfg.block_size);
        let procs = (0..cfg.processes)
            .map(|pid| ProcState::new(pid, &cfg))
            .collect();
        let cpu_proc: Vec<u32> = (0..u32::from(cfg.cpus)).collect();
        let ready: VecDeque<u32> = (u32::from(cfg.cpus)..cfg.processes).collect();
        let locks = vec![LockState { holder: None }; cfg.lock.locks as usize];
        let guarded_base = vec![0u64; cfg.lock.locks as usize];
        let rng = SmallRng::seed_from_u64(cfg.seed);
        let first = cfg.phases.first();
        let odds = Odds::new(&cfg, first);
        let phase_left = first.and_then(|phase| (phase.refs > 0).then_some(phase.refs));
        let zipf = (cfg.zipf_theta > 0.0)
            .then(|| Zipf::new(u64::from(cfg.shared_blocks_per_pool), cfg.zipf_theta));
        let live = cfg.processes;
        let quantum_left = cfg.quantum;
        Workload {
            cfg,
            layout,
            rng,
            procs,
            cpu_proc,
            ready,
            locks,
            barrier_arrived: 0,
            barrier_generation: 0,
            next_cpu: 0,
            step: 0,
            quantum_left,
            guarded_base,
            mig_base: 0,
            read_mostly_base: 0,
            producer_base: 0,
            odds,
            phase_idx: 0,
            phase_left,
            zipf,
            live,
            ahead: Vec::new(),
            ahead_pos: 0,
        }
    }

    /// The configuration this generator was built from.
    pub fn config(&self) -> &WorkloadConfig {
        &self.cfg
    }

    /// Appends the stream's next `n` references to `out`: the references
    /// `n` calls of [`Iterator::next`] would return, in one block.
    pub fn fill(&mut self, out: &mut Vec<MemRef>, n: usize) {
        let ahead = &self.ahead[self.ahead_pos..];
        let served = ahead.len().min(n);
        out.extend_from_slice(&ahead[..served]);
        self.ahead_pos += served;
        let at = out.len();
        out.resize(at + n - served, blank());
        self.generate(&mut out[at..]);
    }

    /// Overwrites `slots` with the stream's next references, in runs that
    /// cross no phase or quantum boundary, so the per-reference loop
    /// counts neither. Writing into slots, not pushing, keeps a capacity
    /// check and a length store out of the loop. The RNG lives in a local
    /// for the whole block and every step helper (all inlined) borrows it
    /// from there, so its state stays in registers instead of
    /// round-tripping through `self`.
    fn generate(&mut self, slots: &mut [MemRef]) {
        let mut rng = self.rng.clone();
        let mut rest = slots;
        while !rest.is_empty() {
            self.maybe_advance_phase();
            // A zero countdown means this run's first step is a quantum
            // boundary; the next one is a whole quantum later.
            let quantum = match self.quantum_left {
                0 => self.cfg.quantum,
                q => q,
            };
            let phase = self.phase_left.unwrap_or(u64::MAX);
            let run = phase.min(u64::from(quantum)).min(rest.len() as u64);
            let (now, later) = std::mem::take(&mut rest).split_at_mut(run as usize);
            for slot in now {
                *slot = self.step(&mut rng);
            }
            self.quantum_left = quantum - run as u32;
            if let Some(phase_left) = &mut self.phase_left {
                *phase_left -= run;
            }
            rest = later;
        }
        self.rng = rng;
    }

    /// One reference: the scheduler's bookkeeping, then one turn of the
    /// process on the next CPU. The order of the draws here and in the
    /// helpers defines the stream (DESIGN §15).
    #[inline(always)]
    fn step(&mut self, rng: &mut SmallRng) -> MemRef {
        self.open_system_step(rng);
        self.maybe_context_switch();
        self.maybe_migrate(rng);
        let cpu_idx = self.next_cpu;
        self.next_cpu += 1;
        if self.next_cpu == self.cpu_proc.len() {
            self.next_cpu = 0;
        }
        let pid = self.cpu_proc[cpu_idx];
        let r = self.proc_turn(CpuId::new(cpu_idx as u16), pid, rng);
        self.step += 1;
        r
    }

    /// Moves to the next phase once the active one's budget is spent. The
    /// last phase's mix persists after its budget runs out.
    fn maybe_advance_phase(&mut self) {
        if self.phase_left == Some(0) {
            self.phase_idx += 1;
            match self.cfg.phases.get(self.phase_idx) {
                Some(phase) => {
                    self.odds = Odds::new(&self.cfg, Some(phase));
                    self.phase_left = (phase.refs > 0).then_some(phase.refs);
                }
                None => self.phase_left = None,
            }
        }
    }

    /// One step of the open-system birth/death process: maybe spawn a new
    /// process into the ready queue, maybe retire a waiting one. A zero
    /// probability skips its draw, so closed configurations draw no extra
    /// randomness (bit-identical streams).
    #[inline(always)]
    fn open_system_step(&mut self, rng: &mut SmallRng) {
        // The cap check comes after the draw so the stream consumed per
        // step does not depend on the population.
        if self.odds.arrival.is_some_and(|c| c.roll(rng)) && self.live < self.cfg.open.max_processes
        {
            let pid = self.procs.len() as u32;
            self.procs.push(ProcState::new(pid, &self.cfg));
            self.ready.push_back(pid);
            self.live += 1;
        }
        if self.odds.departure.is_some_and(|c| c.roll(rng)) {
            // Retire the front waiter; CPUs keep their running processes,
            // so the population never drops below the CPU count. A
            // critical-section holder is never retired (it would leak its
            // lock and starve every spinner) — it is rotated to the back
            // and this departure is skipped.
            if let Some(&front) = self.ready.front() {
                if matches!(self.procs[front as usize].mode, Mode::Critical { .. }) {
                    self.ready.rotate_left(1);
                } else {
                    self.ready.pop_front();
                    self.live -= 1;
                }
            }
        }
    }

    /// Draws a block rank within a shared pool: uniform by default, Zipf
    /// when `zipf_theta > 0`. Consumes exactly one RNG value either way.
    #[inline(always)]
    fn pool_rank(&self, blocks: u64, rng: &mut SmallRng) -> u64 {
        match &self.zipf {
            Some(zipf) => {
                debug_assert_eq!(zipf.ranks(), blocks);
                zipf.sample(rng)
            }
            None => below(rng, blocks),
        }
    }

    #[inline(always)]
    fn maybe_migrate(&mut self, rng: &mut SmallRng) {
        if self.odds.migration.is_some_and(|c| c.roll(rng)) {
            let a = below(rng, self.cpu_proc.len() as u64) as usize;
            let b = below(rng, self.cpu_proc.len() as u64) as usize;
            self.cpu_proc.swap(a, b);
        }
    }

    /// Rotates waiting processes onto the CPUs at a quantum boundary: a
    /// zero countdown, which only a run's first step can see. The
    /// countdown runs whether or not anyone waits, since an open system's
    /// ready queue can fill later.
    #[inline(always)]
    fn maybe_context_switch(&mut self) {
        if self.quantum_left != 0 {
            return;
        }
        self.quantum_left = self.cfg.quantum;
        for slot in self.cpu_proc.iter_mut() {
            if let Some(next) = self.ready.pop_front() {
                self.ready.push_back(*slot);
                *slot = next;
            }
        }
    }

    /// Emits the next reference from process `pid` on CPU `cpu`.
    #[inline(always)]
    fn proc_turn(&mut self, cpu: CpuId, pid: u32, rng: &mut SmallRng) -> MemRef {
        let id = ProcessId::new(pid);
        match self.procs[pid as usize].mode {
            Mode::Spinning { lock } => {
                // The spin loop executes instructions between tests.
                if self.odds.instr.roll(rng) {
                    return self.instr_fetch(cpu, pid, rng);
                }
                if self.locks[lock as usize].holder.is_none() {
                    // Observed free last test: issue the test-and-set write.
                    self.locks[lock as usize].holder = Some(pid);
                    self.procs[pid as usize].mode = Mode::Critical {
                        lock,
                        remaining: self.cfg.lock.critical_section_len,
                    };
                    MemRef::write(cpu, id, self.layout.lock(lock))
                } else {
                    // Keep testing: this is the spin read the paper flags.
                    MemRef::read(cpu, id, self.layout.lock(lock))
                        .with_flags(RefFlags::empty().with_lock())
                }
            }
            Mode::Critical { lock, remaining } => {
                if remaining == 0 {
                    // Release store.
                    self.locks[lock as usize].holder = None;
                    self.procs[pid as usize].mode = Mode::Running;
                    return MemRef::write(cpu, id, self.layout.lock(lock));
                }
                self.procs[pid as usize].mode = Mode::Critical {
                    lock,
                    remaining: remaining - 1,
                };
                // Work done while holding the lock looks like ordinary
                // execution, except that its shared accesses target the
                // lock's guarded blocks.
                if self.odds.instr.roll(rng) {
                    return self.instr_fetch(cpu, pid, rng);
                }
                if self.odds.critical_os.roll(rng) {
                    return self.os_ref(cpu, pid, rng);
                }
                if self.odds.cs_guarded.roll(rng) {
                    if self.odds.guarded_churn.roll(rng) {
                        self.guarded_base[lock as usize] += 1;
                    }
                    let base = self.guarded_base[lock as usize];
                    let block = base + below(rng, GUARDED_BLOCKS_PER_LOCK);
                    let addr = self.layout.guarded(lock, block);
                    if self.odds.critical_write.roll(rng) {
                        MemRef::write(cpu, id, addr)
                    } else {
                        MemRef::read(cpu, id, addr)
                    }
                } else {
                    self.private_ref(cpu, pid, rng)
                }
            }
            Mode::AtBarrier { generation } => {
                // Spin-loop instructions interleave with generation tests.
                if self.odds.instr.roll(rng) {
                    return self.instr_fetch(cpu, pid, rng);
                }
                if self.barrier_generation != generation {
                    // Released: a later generation means the round completed.
                    self.procs[pid as usize].mode = Mode::Running;
                    self.procs[pid as usize].turns_since_barrier = 0;
                    return self.running_turn(cpu, pid, rng);
                }
                MemRef::read(cpu, id, self.barrier_word()).with_flags(RefFlags::empty().with_lock())
            }
            Mode::Running => {
                // Barrier rendezvous: after `interval` turns of work, a
                // process arrives (a write on the barrier word) and waits
                // for everyone else.
                if self.cfg.barrier.is_enabled() {
                    let state = &mut self.procs[pid as usize];
                    state.turns_since_barrier += 1;
                    if state.turns_since_barrier >= self.cfg.barrier.interval {
                        self.barrier_arrived += 1;
                        if self.barrier_arrived == self.cfg.processes {
                            // Last arriver releases everyone: its write to
                            // the barrier word is the release store, and it
                            // advances the generation the waiters test.
                            self.barrier_arrived = 0;
                            self.barrier_generation += 1;
                            self.procs[pid as usize].turns_since_barrier = 0;
                        } else {
                            self.procs[pid as usize].mode = Mode::AtBarrier {
                                generation: self.barrier_generation,
                            };
                        }
                        return MemRef::write(cpu, id, self.barrier_word());
                    }
                }
                self.running_turn(cpu, pid, rng)
            }
        }
    }

    /// The barrier generation word lives in its own block, one past the
    /// lock words.
    fn barrier_word(&self) -> crate::types::Addr {
        self.layout.lock(self.cfg.lock.locks)
    }

    #[inline(always)]
    fn running_turn(&mut self, cpu: CpuId, pid: u32, rng: &mut SmallRng) -> MemRef {
        let id = ProcessId::new(pid);
        // One roll picks an instruction fetch, an OS reference or data.
        let roll = draw53(rng);
        if self.odds.instr.admits(roll) {
            return self.instr_fetch(cpu, pid, rng);
        }
        if self.odds.instr_or_os.admits(roll) {
            return self.os_ref(cpu, pid, rng);
        }
        // Ordinary data reference.
        if !self.locks.is_empty() && self.odds.acquire.roll(rng) {
            let lock = below(rng, self.locks.len() as u64) as u32;
            self.procs[pid as usize].mode = Mode::Spinning { lock };
            // The initial test read of test-and-test-and-set.
            return MemRef::read(cpu, id, self.layout.lock(lock))
                .with_flags(RefFlags::empty().with_lock());
        }
        if self.odds.shared.roll(rng) {
            self.shared_ref(cpu, pid, rng)
        } else {
            self.private_ref(cpu, pid, rng)
        }
    }

    #[inline(always)]
    fn instr_fetch(&mut self, cpu: CpuId, pid: u32, rng: &mut SmallRng) -> MemRef {
        let code_blocks = u64::from(self.cfg.code_blocks);
        let state = &mut self.procs[pid as usize];
        let pc = state.pc;
        // `pc < code_blocks` always holds, so falling through wraps by
        // compare.
        state.pc = if self.odds.jump.roll(rng) {
            below(rng, code_blocks)
        } else if pc + 1 == code_blocks {
            0
        } else {
            pc + 1
        };
        MemRef::instr(cpu, ProcessId::new(pid), self.layout.code(pid, pc))
    }

    #[inline(always)]
    fn os_ref(&mut self, cpu: CpuId, pid: u32, rng: &mut SmallRng) -> MemRef {
        let flags = RefFlags::empty().with_os();
        let (addr, write) = if self.odds.os_shared.roll(rng) {
            let block = below(rng, OS_SHARED_BLOCKS);
            (self.layout.os(block), self.odds.os_shared_write)
        } else {
            let block = below(rng, OS_LOCAL_BLOCKS);
            (
                self.layout.os_local(cpu.index() as u16, block),
                self.odds.os_local_write,
            )
        };
        if write.roll(rng) {
            MemRef::write(cpu, ProcessId::new(pid), addr).with_flags(flags)
        } else {
            MemRef::read(cpu, ProcessId::new(pid), addr).with_flags(flags)
        }
    }

    #[inline(always)]
    fn private_ref(&mut self, cpu: CpuId, pid: u32, rng: &mut SmallRng) -> MemRef {
        let blocks = u64::from(self.cfg.private_blocks);
        let reuse = self.odds.private_locality.roll(rng);
        let block = if reuse {
            self.procs[pid as usize].last_private
        } else {
            let b = below(rng, blocks);
            self.procs[pid as usize].last_private = b;
            b
        };
        let addr = self.layout.private(pid, block);
        if self.odds.write.roll(rng) {
            MemRef::write(cpu, ProcessId::new(pid), addr)
        } else {
            MemRef::read(cpu, ProcessId::new(pid), addr)
        }
    }

    #[inline(always)]
    fn shared_ref(&mut self, cpu: CpuId, pid: u32, rng: &mut SmallRng) -> MemRef {
        let mix = self.odds.sharing_mix;
        let total = mix.total();
        // Stays `f64`: the product with `total` rounds, so no integer
        // threshold reproduces it.
        let roll: f64 = rng.gen::<f64>() * total;
        if roll < mix.read_mostly {
            self.read_mostly_ref(cpu, pid, rng)
        } else if roll < mix.read_mostly + mix.migratory {
            self.migratory_ref(cpu, pid, rng)
        } else if roll < mix.read_mostly + mix.migratory + mix.producer_consumer {
            self.producer_consumer_ref(cpu, pid, rng)
        } else {
            self.false_sharing_ref(cpu, pid, rng)
        }
    }

    #[inline(always)]
    fn false_sharing_ref(&mut self, cpu: CpuId, pid: u32, rng: &mut SmallRng) -> MemRef {
        // Each process hammers its own word; several words share a block.
        let blocks = u64::from(self.cfg.shared_blocks_per_pool);
        let block = self.pool_rank(blocks, rng);
        let addr = self.layout.false_sharing_word(pid, block);
        if self.odds.false_sharing_write.roll(rng) {
            MemRef::write(cpu, ProcessId::new(pid), addr)
        } else {
            MemRef::read(cpu, ProcessId::new(pid), addr)
        }
    }

    #[inline(always)]
    fn read_mostly_ref(&mut self, cpu: CpuId, pid: u32, rng: &mut SmallRng) -> MemRef {
        let blocks = u64::from(self.cfg.shared_blocks_per_pool);
        if self.odds.pool_churn.roll(rng) {
            self.read_mostly_base += 1;
        }
        let block = self.read_mostly_base + self.pool_rank(blocks, rng);
        let addr = self.layout.shared(Region::ReadMostly, block);
        if self.odds.read_mostly_write.roll(rng) {
            MemRef::write(cpu, ProcessId::new(pid), addr)
        } else {
            MemRef::read(cpu, ProcessId::new(pid), addr)
        }
    }

    #[inline(always)]
    fn migratory_ref(&mut self, cpu: CpuId, pid: u32, rng: &mut SmallRng) -> MemRef {
        let blocks = u64::from(self.cfg.shared_blocks_per_pool);
        if self.procs[pid as usize].mig_burst_left == 0 && self.odds.migratory_churn.roll(rng) {
            self.mig_base += 1;
        }
        let mig_base = self.mig_base;
        if self.procs[pid as usize].mig_burst_left == 0 {
            // Pick up a (likely previously-owned-by-someone-else) object.
            let rank = self.pool_rank(blocks, rng);
            let state = &mut self.procs[pid as usize];
            state.mig_block = mig_base + rank;
            state.mig_burst_left = MIGRATORY_BURST;
        }
        let state = &mut self.procs[pid as usize];
        state.mig_burst_left -= 1;
        let first_of_burst = state.mig_burst_left == MIGRATORY_BURST - 1;
        let addr = self.layout.shared(Region::Migratory, state.mig_block);
        // A migratory burst starts with a read (inspect), then mixes writes.
        if !first_of_burst && self.odds.migratory_write.roll(rng) {
            MemRef::write(cpu, ProcessId::new(pid), addr)
        } else {
            MemRef::read(cpu, ProcessId::new(pid), addr)
        }
    }

    #[inline(always)]
    fn producer_consumer_ref(&mut self, cpu: CpuId, pid: u32, rng: &mut SmallRng) -> MemRef {
        let blocks = u64::from(self.cfg.shared_blocks_per_pool);
        if self.odds.pool_churn.roll(rng) {
            self.producer_base += 1;
        }
        let block = self.producer_base + self.pool_rank(blocks, rng);
        let addr = self.layout.shared(Region::ProducerConsumer, block);
        // Rotate the producer role over every process ever created; in a
        // closed system this is exactly the configured process set.
        let producer = ((self.step / PRODUCER_EPOCH) % self.procs.len() as u64) as u32;
        if pid == producer {
            MemRef::write(cpu, ProcessId::new(pid), addr)
        } else {
            MemRef::read(cpu, ProcessId::new(pid), addr)
        }
    }
}

impl Iterator for Workload {
    type Item = MemRef;

    /// Serves the next reference from a lookahead block of 64 that the
    /// block fill behind [`Workload::fill`] refills.
    fn next(&mut self) -> Option<Self::Item> {
        if self.ahead_pos == self.ahead.len() {
            let mut ahead = std::mem::take(&mut self.ahead);
            ahead.resize(LOOKAHEAD, blank());
            self.generate(&mut ahead);
            self.ahead = ahead;
            self.ahead_pos = 0;
        }
        let r = self.ahead[self.ahead_pos];
        self.ahead_pos += 1;
        Some(r)
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        (usize::MAX, None)
    }
}

/// An unbounded source: each chunk is one [`Workload::fill`] of `max`
/// references. [`TakeSource`](crate::TakeSource) bounds it, as
/// [`Scenario::source`](crate::Scenario::source) does.
impl TraceSource for Workload {
    fn read_chunk(&mut self, buf: &mut Vec<MemRef>, max: usize) -> Result<usize, TraceIoError> {
        buf.clear();
        self.fill(buf, max);
        Ok(max)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stats::TraceStats;
    use crate::synth::config::LockConfig;

    fn take(cfg: WorkloadConfig, n: usize) -> Vec<MemRef> {
        Workload::new(cfg).take(n).collect()
    }

    #[test]
    fn deterministic_for_same_seed() {
        let cfg = WorkloadConfig::builder().seed(99).build().unwrap();
        let a = take(cfg.clone(), 5_000);
        let b = take(cfg, 5_000);
        assert_eq!(a, b);
    }

    #[test]
    fn different_seeds_differ() {
        let a = take(WorkloadConfig::builder().seed(1).build().unwrap(), 2_000);
        let b = take(WorkloadConfig::builder().seed(2).build().unwrap(), 2_000);
        assert_ne!(a, b);
    }

    #[test]
    fn reference_mix_matches_configuration() {
        let cfg = WorkloadConfig::builder().seed(7).build().unwrap();
        let stats = TraceStats::from_refs(take(cfg, 200_000));
        let instr_frac = stats.instructions() as f64 / stats.total() as f64;
        assert!(
            (instr_frac - 0.497).abs() < 0.03,
            "instr fraction {instr_frac}"
        );
        let write_frac = stats.data_writes() as f64 / stats.total() as f64;
        assert!(
            (0.05..0.20).contains(&write_frac),
            "write fraction {write_frac}"
        );
    }

    #[test]
    fn cpus_interleave_round_robin() {
        let cfg = WorkloadConfig::builder().seed(3).build().unwrap();
        let refs = take(cfg, 64);
        for (i, r) in refs.iter().enumerate() {
            assert_eq!(r.cpu.index(), i % 4);
        }
    }

    #[test]
    fn lock_protocol_is_well_formed() {
        // Sequence per lock word must alternate: (acquire write) precedes
        // release write; spin reads only while locked or testing.
        let cfg = WorkloadConfig::builder()
            .seed(11)
            .lock(LockConfig {
                locks: 2,
                acquire_prob: 0.05,
                critical_section_len: 5,
                critical_write_frac: 0.5,
            })
            .build()
            .unwrap();
        let refs = take(cfg, 50_000);
        // Track per-lock-word writes: they must strictly alternate
        // acquire/release, and consecutive writes must come from the same
        // process (the holder releases).
        use std::collections::HashMap;
        let mut writes: HashMap<u64, Vec<u32>> = HashMap::new();
        for r in &refs {
            if Region::of(r.addr) == Some(Region::Locks) && r.kind == AccessKind::Write {
                writes
                    .entry(r.addr.raw())
                    .or_default()
                    .push(r.pid.index() as u32);
            }
        }
        assert!(!writes.is_empty(), "locks were exercised");
        for (_, seq) in writes {
            // acquire(p) release(p) acquire(q) release(q) ...
            for pair in seq.chunks(2) {
                if pair.len() == 2 {
                    assert_eq!(pair[0], pair[1], "acquire and release by same pid");
                }
            }
        }
    }

    #[test]
    fn spin_reads_are_flagged_and_on_lock_words() {
        let cfg = WorkloadConfig::builder()
            .seed(13)
            .lock(LockConfig {
                locks: 1,
                acquire_prob: 0.05,
                critical_section_len: 30,
                critical_write_frac: 0.5,
            })
            .build()
            .unwrap();
        let refs = take(cfg, 50_000);
        let lock_reads: Vec<_> = refs.iter().filter(|r| r.flags.is_lock()).collect();
        assert!(!lock_reads.is_empty(), "contention produced spin reads");
        for r in &lock_reads {
            assert_eq!(r.kind, AccessKind::Read);
            assert_eq!(Region::of(r.addr), Some(Region::Locks));
        }
    }

    #[test]
    fn contended_lock_produces_long_spins() {
        // One lock, long critical sections, aggressive acquisition: a large
        // share of reads should be spin tests (the paper reports ~1/3 for
        // POPS and THOR).
        let cfg = WorkloadConfig::builder()
            .seed(17)
            .lock(LockConfig {
                locks: 1,
                acquire_prob: 0.02,
                critical_section_len: 50,
                critical_write_frac: 0.3,
            })
            .build()
            .unwrap();
        let stats = TraceStats::from_refs(take(cfg, 100_000));
        assert!(
            stats.lock_read_fraction() > 0.15,
            "lock read fraction {}",
            stats.lock_read_fraction()
        );
    }

    #[test]
    fn os_refs_are_flagged() {
        let cfg = WorkloadConfig::builder().seed(19).build().unwrap();
        let refs = take(cfg, 100_000);
        let os: Vec<_> = refs.iter().filter(|r| r.flags.is_os()).collect();
        let frac = os.len() as f64 / refs.len() as f64;
        assert!((0.01..0.15).contains(&frac), "os fraction {frac}");
        for r in os {
            assert!(matches!(
                Region::of(r.addr),
                Some(Region::Os | Region::OsLocal)
            ));
        }
    }

    #[test]
    fn private_refs_stay_private() {
        let cfg = WorkloadConfig::builder().seed(23).build().unwrap();
        let refs = take(cfg, 100_000);
        use std::collections::HashMap;
        let mut owner: HashMap<u64, u32> = HashMap::new();
        for r in &refs {
            if matches!(Region::of(r.addr), Some(Region::Private | Region::Code)) {
                let prev = owner.insert(r.addr.raw(), r.pid.index() as u32);
                if let Some(p) = prev {
                    assert_eq!(p, r.pid.index() as u32, "private block crossed processes");
                }
            }
        }
    }

    #[test]
    fn more_processes_than_cpus_all_get_scheduled() {
        let cfg = WorkloadConfig::builder()
            .cpus(2)
            .processes(6)
            .quantum(100)
            .seed(29)
            .build()
            .unwrap();
        let refs = take(cfg, 10_000);
        let stats = TraceStats::from_refs(refs);
        assert_eq!(stats.cpu_count(), 2);
        assert_eq!(stats.process_count(), 6);
    }

    #[test]
    fn migration_moves_processes_between_cpus() {
        let cfg = WorkloadConfig::builder()
            .migration_prob(0.01)
            .seed(31)
            .build()
            .unwrap();
        let refs = take(cfg, 20_000);
        use std::collections::HashMap;
        let mut cpus_per_pid: HashMap<u32, std::collections::HashSet<usize>> = HashMap::new();
        for r in &refs {
            cpus_per_pid
                .entry(r.pid.index() as u32)
                .or_default()
                .insert(r.cpu.index());
        }
        assert!(
            cpus_per_pid.values().any(|s| s.len() > 1),
            "some process ran on multiple cpus"
        );
    }

    #[test]
    fn no_migration_pins_processes() {
        let cfg = WorkloadConfig::builder()
            .migration_prob(0.0)
            .seed(37)
            .build()
            .unwrap();
        let refs = take(cfg, 20_000);
        for r in &refs {
            assert_eq!(r.cpu.index() as u32, r.pid.index() as u32);
        }
    }

    #[test]
    fn barriers_produce_rendezvous_spins() {
        use crate::synth::config::BarrierConfig;
        let cfg = WorkloadConfig {
            barrier: BarrierConfig { interval: 200 },
            lock: LockConfig {
                locks: 1,
                acquire_prob: 0.0,
                critical_section_len: 1,
                critical_write_frac: 0.0,
            },
            seed: 41,
            ..WorkloadConfig::default()
        };
        let refs = take(cfg, 60_000);
        // The barrier word is the block one past the lock words.
        let barrier_addr = AddressLayout::new(16).lock(1);
        let arrivals = refs
            .iter()
            .filter(|r| r.addr == barrier_addr && r.kind == AccessKind::Write)
            .count();
        let spins = refs
            .iter()
            .filter(|r| r.addr == barrier_addr && r.flags.is_lock())
            .count();
        assert!(arrivals > 10, "barrier arrivals: {arrivals}");
        assert!(spins > 0, "waiters spin between arrivals: {spins}");
        // Every process reaches the barrier.
        use std::collections::HashSet;
        let arrivers: HashSet<u32> = refs
            .iter()
            .filter(|r| r.addr == barrier_addr && r.kind == AccessKind::Write)
            .map(|r| r.pid.index() as u32)
            .collect();
        assert_eq!(arrivers.len(), 4);
    }

    #[test]
    fn barriers_never_deadlock_with_extra_processes() {
        use crate::synth::config::BarrierConfig;
        let cfg = WorkloadConfig {
            cpus: 2,
            processes: 5,
            quantum: 300,
            barrier: BarrierConfig { interval: 100 },
            seed: 43,
            ..WorkloadConfig::default()
        };
        let refs = take(cfg, 80_000);
        let barrier_addr = AddressLayout::new(16).lock(2);
        let arrivals = refs
            .iter()
            .filter(|r| r.addr == barrier_addr && r.kind == AccessKind::Write)
            .count();
        // Barriers keep completing: arrivals far exceed one round.
        assert!(arrivals > 10, "arrivals: {arrivals}");
    }

    /// Every probability a bundled scenario or the generator draws with,
    /// and the cumulative roll bounds derived from them.
    fn preset_probabilities() -> Vec<f64> {
        let mut ps = vec![
            CS_GUARDED_FRAC,
            OS_SHARED_PROB,
            OS_SHARED_WRITE_FRAC,
            OS_LOCAL_WRITE_FRAC,
            JUMP_PROB,
            PRIVATE_LOCALITY,
            READ_MOSTLY_WRITE_FRAC,
            MIGRATORY_WRITE_FRAC,
            FALSE_SHARING_WRITE_FRAC,
            GUARDED_CHURN,
            MIGRATORY_CHURN,
            POOL_CHURN,
        ];
        for scenario in crate::scenario::registry() {
            let c = scenario.config();
            let mut instr = vec![c.instr_frac];
            ps.extend([
                c.write_frac,
                c.shared_frac,
                c.migration_prob,
                c.lock.acquire_prob,
                c.lock.critical_write_frac,
                c.open.arrival_prob,
                c.open.departure_prob,
            ]);
            for phase in &c.phases {
                instr.extend(phase.instr_frac);
                ps.extend(phase.write_frac);
                ps.extend(phase.shared_frac);
                ps.extend(phase.acquire_prob);
            }
            for i in instr {
                ps.extend([i, (1.0 - i) * c.os_frac, i + (1.0 - i) * c.os_frac]);
            }
        }
        ps
    }

    #[test]
    fn integer_thresholds_reproduce_gen_bool() {
        let unit = (1u64 << 53) as f64;
        let mut ps = vec![0.0, 1.0 / unit, 0.5, 1.0 - 1.0 / unit, 1.0];
        ps.extend(preset_probabilities());
        let mut random = SmallRng::seed_from_u64(0x7e57);
        ps.extend((0..8).map(|_| random.gen::<f64>()));
        ps.sort_by(f64::total_cmp);
        ps.dedup();
        for p in ps {
            assert!((0.0..=1.0).contains(&p), "{p} is a probability");
            let chance = Chance::new(p);
            // The least m with m · 2⁻⁵³ ≥ p, found from below: p · 2⁵³ is
            // exact, so its floor is too.
            let floor = (p * unit) as u64;
            let least = if floor as f64 / unit >= p {
                floor
            } else {
                floor + 1
            };
            assert!(least as f64 / unit >= p && (least == 0 || ((least - 1) as f64 / unit) < p));
            assert!(!chance.admits(least), "{p}: {least} is not below p");
            assert!(
                least == 0 || chance.admits(least - 1),
                "{p}: {least} - 1 is"
            );
            let mut by_float = SmallRng::seed_from_u64(0xd1ce);
            let mut by_integer = by_float.clone();
            for draw in 0..1_000_000 {
                assert_eq!(
                    by_float.gen_bool(p),
                    chance.roll(&mut by_integer),
                    "{p}: draw {draw}"
                );
            }
            assert_eq!(
                by_float, by_integer,
                "{p}: both consumed one value per draw"
            );
        }
    }

    #[test]
    #[should_panic(expected = "invalid workload configuration")]
    fn invalid_config_panics() {
        let cfg = WorkloadConfig {
            cpus: 0,
            ..WorkloadConfig::default()
        };
        let _ = Workload::new(cfg);
    }

    #[test]
    fn phases_matching_the_base_mix_do_not_perturb_the_stream() {
        // Phase bookkeeping must consume no randomness: a schedule whose
        // overrides equal the base configuration yields the identical
        // trace. This is the bit-identity guarantee the paper presets
        // (re-expressed as scenario specs) rely on.
        let plain = WorkloadConfig::builder().seed(47).build().unwrap();
        let phased = WorkloadConfig::builder()
            .seed(47)
            .phase(Phase {
                refs: 5_000,
                write_frac: Some(plain.write_frac),
                ..Phase::default()
            })
            .phase(Phase {
                refs: 0,
                instr_frac: Some(plain.instr_frac),
                ..Phase::default()
            })
            .build()
            .unwrap();
        assert_eq!(take(plain, 20_000), take(phased, 20_000));
    }

    #[test]
    fn phases_shift_the_write_mix_at_the_boundary() {
        let cfg = WorkloadConfig::builder()
            .seed(53)
            .phase(Phase {
                refs: 100_000,
                write_frac: Some(0.02),
                ..Phase::default()
            })
            .phase(Phase {
                refs: 0,
                write_frac: Some(0.60),
                ..Phase::default()
            })
            .build()
            .unwrap();
        let refs = take(cfg, 200_000);
        let write_frac = |window: &[MemRef]| {
            let writes = window
                .iter()
                .filter(|r| r.kind == AccessKind::Write)
                .count();
            writes as f64 / window.len() as f64
        };
        let early = write_frac(&refs[..100_000]);
        let late = write_frac(&refs[100_000..]);
        assert!(
            late > early + 0.10,
            "write fraction shifts up at the phase boundary: {early} -> {late}"
        );
    }

    #[test]
    fn open_system_grows_the_population() {
        let cfg = WorkloadConfig::builder()
            .seed(59)
            .quantum(500)
            .open(crate::synth::config::OpenSystemConfig {
                arrival_prob: 0.001,
                departure_prob: 0.0002,
                max_processes: 32,
            })
            .build()
            .unwrap();
        let stats = TraceStats::from_refs(take(cfg, 200_000));
        assert!(
            stats.process_count() > 4,
            "arrivals created new processes: {}",
            stats.process_count()
        );
    }

    #[test]
    fn open_system_respects_the_population_cap() {
        let cfg = WorkloadConfig::builder()
            .seed(61)
            .quantum(200)
            .open(crate::synth::config::OpenSystemConfig {
                arrival_prob: 0.05,
                departure_prob: 0.0,
                max_processes: 6,
            })
            .build()
            .unwrap();
        let mut w = Workload::new(cfg);
        for _ in 0..100_000 {
            let _ = w.next();
            assert!(w.live <= 6, "live population {} over cap", w.live);
        }
        assert_eq!(w.live, 6, "aggressive arrivals saturate the cap");
    }

    #[test]
    fn open_system_departures_shrink_the_ready_queue() {
        let cfg = WorkloadConfig::builder()
            .seed(67)
            .processes(12)
            .quantum(200)
            .open(crate::synth::config::OpenSystemConfig {
                arrival_prob: 0.0,
                departure_prob: 0.01,
                max_processes: 12,
            })
            .build()
            .unwrap();
        let mut w = Workload::new(cfg);
        for _ in 0..100_000 {
            let _ = w.next();
        }
        assert!(w.live < 12, "departures retired waiters: live {}", w.live);
        assert!(
            w.live >= 4,
            "running processes are never retired: live {}",
            w.live
        );
    }

    #[test]
    fn open_system_is_deterministic() {
        let cfg = WorkloadConfig::builder()
            .seed(71)
            .open(crate::synth::config::OpenSystemConfig {
                arrival_prob: 0.002,
                departure_prob: 0.001,
                max_processes: 16,
            })
            .build()
            .unwrap();
        assert_eq!(take(cfg.clone(), 50_000), take(cfg, 50_000));
    }

    #[test]
    fn zipf_popularity_concentrates_shared_pool_traffic() {
        use std::collections::HashMap;
        // Use the false-sharing pool: unlike the churned sliding-window
        // pools, its word addresses are stable over the whole trace, so
        // the popularity law is visible in a raw address histogram.
        let pool_histogram = |theta: f64| {
            let cfg = WorkloadConfig::builder()
                .seed(73)
                .shared_frac(0.30)
                .sharing_mix(SharingMix {
                    read_mostly: 0.0,
                    migratory: 0.0,
                    producer_consumer: 0.0,
                    false_sharing: 1.0,
                })
                .zipf_theta(theta)
                .build()
                .unwrap();
            let refs = take(cfg, 300_000);
            let mut counts: HashMap<u64, u64> = HashMap::new();
            for r in &refs {
                if Region::of(r.addr) == Some(Region::FalseSharing) {
                    *counts.entry(r.addr.raw()).or_default() += 1;
                }
            }
            let mut sorted: Vec<u64> = counts.into_values().collect();
            sorted.sort_unstable_by(|a, b| b.cmp(a));
            sorted
        };
        let uniform = pool_histogram(0.0);
        let skewed = pool_histogram(0.9);
        let head_share = |h: &[u64]| {
            let total: u64 = h.iter().sum();
            h[0] as f64 / total as f64
        };
        assert!(
            head_share(&skewed) > 2.0 * head_share(&uniform),
            "zipf head {:.3} vs uniform head {:.3}",
            head_share(&skewed),
            head_share(&uniform)
        );
    }
}
