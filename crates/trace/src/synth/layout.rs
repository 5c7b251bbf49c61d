//! Address-space layout for synthetic workloads.
//!
//! Each logical region lives in its own high-order segment so that regions
//! can never alias. All generated addresses are block-aligned with a small
//! random word offset, matching the 16-byte block granularity the paper
//! simulates.

use crate::types::Addr;

/// Segment bases (bit 44 and up select the region).
const SEG_SHIFT: u32 = 44;

/// Region tags.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Region {
    /// Per-process code.
    Code,
    /// Per-process private data.
    Private,
    /// Shared read-mostly pool.
    ReadMostly,
    /// Shared migratory pool.
    Migratory,
    /// Shared producer/consumer pool.
    ProducerConsumer,
    /// Lock words.
    Locks,
    /// Data guarded by locks (one sub-pool per lock).
    Guarded,
    /// Operating-system structures shared across processors.
    Os,
    /// Per-processor operating-system structures (kernel stacks, per-CPU
    /// data); shared across processes only through process migration.
    OsLocal,
    /// Falsely-shared data: per-process words co-located in shared blocks.
    FalseSharing,
}

impl Region {
    fn tag(self) -> u64 {
        match self {
            Region::Code => 1,
            Region::Private => 2,
            Region::ReadMostly => 3,
            Region::Migratory => 4,
            Region::ProducerConsumer => 5,
            Region::Locks => 6,
            Region::Guarded => 7,
            Region::Os => 8,
            Region::OsLocal => 9,
            Region::FalseSharing => 10,
        }
    }

    /// Recovers the region from an address generated by [`AddressLayout`].
    pub fn of(addr: Addr) -> Option<Region> {
        match addr.raw() >> SEG_SHIFT {
            1 => Some(Region::Code),
            2 => Some(Region::Private),
            3 => Some(Region::ReadMostly),
            4 => Some(Region::Migratory),
            5 => Some(Region::ProducerConsumer),
            6 => Some(Region::Locks),
            7 => Some(Region::Guarded),
            8 => Some(Region::Os),
            9 => Some(Region::OsLocal),
            10 => Some(Region::FalseSharing),
            _ => None,
        }
    }
}

/// Computes block-aligned addresses for every region of the synthetic
/// address space.
#[derive(Debug, Clone, Copy)]
pub struct AddressLayout {
    block_size: u64,
}

/// Size reserved per process inside per-process regions, in blocks.
const PER_PROCESS_SPAN_BLOCKS: u64 = 1 << 24;

impl AddressLayout {
    /// Creates a layout for the given block size (power of two).
    pub fn new(block_size: u32) -> Self {
        debug_assert!(block_size.is_power_of_two());
        AddressLayout {
            block_size: u64::from(block_size),
        }
    }

    fn seg(self, region: Region) -> u64 {
        region.tag() << SEG_SHIFT
    }

    fn block_addr(self, region: Region, block_index: u64) -> Addr {
        Addr::new(self.seg(region) + block_index * self.block_size)
    }

    /// Address of the `block`-th code block of process `pid`.
    pub fn code(self, pid: u32, block: u64) -> Addr {
        self.block_addr(
            Region::Code,
            u64::from(pid) * PER_PROCESS_SPAN_BLOCKS + block,
        )
    }

    /// Address of the `block`-th private data block of process `pid`.
    pub fn private(self, pid: u32, block: u64) -> Addr {
        self.block_addr(
            Region::Private,
            u64::from(pid) * PER_PROCESS_SPAN_BLOCKS + block,
        )
    }

    /// Address of the `block`-th block of a shared pool.
    ///
    /// # Panics
    ///
    /// Panics in debug builds if `region` is not one of the shared pools.
    pub fn shared(self, region: Region, block: u64) -> Addr {
        debug_assert!(matches!(
            region,
            Region::ReadMostly | Region::Migratory | Region::ProducerConsumer
        ));
        self.block_addr(region, block)
    }

    /// Address of lock word `lock` (one block per lock — no false sharing).
    pub fn lock(self, lock: u32) -> Addr {
        self.block_addr(Region::Locks, u64::from(lock))
    }

    /// Address of the `block`-th block guarded by lock `lock`.
    pub fn guarded(self, lock: u32, block: u64) -> Addr {
        self.block_addr(
            Region::Guarded,
            u64::from(lock) * PER_PROCESS_SPAN_BLOCKS + block,
        )
    }

    /// Address of the `block`-th shared operating-system block.
    pub fn os(self, block: u64) -> Addr {
        self.block_addr(Region::Os, block)
    }

    /// Address of the `block`-th per-processor OS block of CPU `cpu`.
    pub fn os_local(self, cpu: u16, block: u64) -> Addr {
        self.block_addr(
            Region::OsLocal,
            u64::from(cpu) * PER_PROCESS_SPAN_BLOCKS + block,
        )
    }

    /// Byte address of process `pid`'s 4-byte word inside falsely-shared
    /// block `block`: distinct processes hit distinct words of the *same*
    /// block (word index wraps at the block size).
    pub fn false_sharing_word(self, pid: u32, block: u64) -> Addr {
        // Words per block is a power of two, so the wrap is a mask.
        let words_per_block = (self.block_size / 4).max(1);
        let offset = (u64::from(pid) & (words_per_block - 1)) * 4;
        Addr::new(self.block_addr(Region::FalseSharing, block).raw() + offset)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn regions_never_alias() {
        let l = AddressLayout::new(16);
        let addrs = [
            l.code(0, 0),
            l.private(0, 0),
            l.shared(Region::ReadMostly, 0),
            l.shared(Region::Migratory, 0),
            l.shared(Region::ProducerConsumer, 0),
            l.lock(0),
            l.guarded(0, 0),
            l.os(0),
            l.os_local(0, 0),
        ];
        for (i, a) in addrs.iter().enumerate() {
            for (j, b) in addrs.iter().enumerate() {
                if i != j {
                    assert_ne!(a, b, "regions {i} and {j} alias");
                }
            }
        }
    }

    #[test]
    fn per_process_spans_do_not_overlap() {
        let l = AddressLayout::new(16);
        let p0_last = l.private(0, PER_PROCESS_SPAN_BLOCKS - 1);
        let p1_first = l.private(1, 0);
        assert!(p0_last.raw() < p1_first.raw());
    }

    #[test]
    fn addresses_are_block_aligned() {
        let l = AddressLayout::new(16);
        for a in [l.code(3, 17), l.private(2, 9), l.lock(5), l.os(11)] {
            assert_eq!(a.raw() % 16, 0);
        }
    }

    #[test]
    fn region_recovery() {
        let l = AddressLayout::new(16);
        assert_eq!(Region::of(l.code(1, 2)), Some(Region::Code));
        assert_eq!(Region::of(l.lock(0)), Some(Region::Locks));
        assert_eq!(Region::of(l.guarded(1, 2)), Some(Region::Guarded));
        assert_eq!(Region::of(l.os(0)), Some(Region::Os));
        assert_eq!(Region::of(l.os_local(2, 1)), Some(Region::OsLocal));
        assert_eq!(Region::of(Addr::new(0)), None);
    }

    #[test]
    fn false_sharing_words_share_a_block() {
        let l = AddressLayout::new(16); // 4 words per block
        let w0 = l.false_sharing_word(0, 7);
        let w1 = l.false_sharing_word(1, 7);
        let w3 = l.false_sharing_word(3, 7);
        assert_ne!(w0, w1);
        assert_ne!(w1, w3);
        // Same 16-byte block.
        assert_eq!(w0.raw() >> 4, w1.raw() >> 4);
        assert_eq!(w0.raw() >> 4, w3.raw() >> 4);
        // Word index wraps at the block size.
        assert_eq!(l.false_sharing_word(4, 7), w0);
        assert_eq!(Region::of(w0), Some(Region::FalseSharing));
    }

    #[test]
    fn false_sharing_vanishes_with_word_blocks() {
        let l = AddressLayout::new(4); // one word per block
        let w0 = l.false_sharing_word(0, 7);
        let w1 = l.false_sharing_word(1, 7);
        assert_eq!(w0, w1, "single-word blocks cannot be falsely shared");
    }

    #[test]
    fn distinct_locks_distinct_blocks() {
        let l = AddressLayout::new(16);
        assert_ne!(l.lock(0), l.lock(1));
        assert_eq!(l.lock(1).raw() - l.lock(0).raw(), 16);
    }
}
