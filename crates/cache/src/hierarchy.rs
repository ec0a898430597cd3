//! The multi-level hierarchy: L1I + L1D, unified L2, unified L3, plus
//! instruction and data TLBs.
//!
//! The model is a demand-fill, non-inclusive hierarchy: a miss at level *N*
//! probes level *N+1*, and the line is installed at every level on the way
//! back. Only demand traffic is counted (no write-back traffic), matching
//! the `allcache` Pintool's reported statistics.

use crate::cache::{Cache, CacheConfig, CacheStats};
use crate::tlb::{Tlb, TlbConfig, TlbStats};

/// Where an access was satisfied.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Level {
    /// First-level instruction cache.
    L1I,
    /// First-level data cache.
    L1D,
    /// Unified second level.
    L2,
    /// Unified third level (LLC).
    L3,
    /// Main memory (missed every cache).
    Mem,
}

/// Configuration of the whole hierarchy.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HierarchyConfig {
    /// L1 instruction cache.
    pub l1i: CacheConfig,
    /// L1 data cache.
    pub l1d: CacheConfig,
    /// Unified L2.
    pub l2: CacheConfig,
    /// Unified L3 (LLC).
    pub l3: CacheConfig,
    /// Instruction TLB.
    pub itlb: TlbConfig,
    /// Data TLB.
    pub dtlb: TlbConfig,
    /// Main-memory latency in cycles (timing model input).
    pub mem_latency: u32,
    /// Next-line prefetch into L2 on L2 demand misses.
    pub next_line_prefetch: bool,
}

/// Counters for every structure in the hierarchy.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct HierarchyStats {
    /// L1 instruction cache counters.
    pub l1i: CacheStats,
    /// L1 data cache counters.
    pub l1d: CacheStats,
    /// L2 counters.
    pub l2: CacheStats,
    /// L3 counters.
    pub l3: CacheStats,
    /// Instruction TLB counters.
    pub itlb: TlbStats,
    /// Data TLB counters.
    pub dtlb: TlbStats,
    /// Next-line prefetches issued.
    pub prefetches: u64,
}

impl HierarchyStats {
    /// Accumulates another snapshot.
    pub fn merge(&mut self, other: &HierarchyStats) {
        self.l1i.merge(&other.l1i);
        self.l1d.merge(&other.l1d);
        self.l2.merge(&other.l2);
        self.l3.merge(&other.l3);
        self.itlb.merge(&other.itlb);
        self.dtlb.merge(&other.dtlb);
        self.prefetches += other.prefetches;
    }
}

/// The simulated cache hierarchy.
#[derive(Debug, Clone)]
pub struct Hierarchy {
    config: HierarchyConfig,
    l1i: Cache,
    l1d: Cache,
    l2: Cache,
    l3: Cache,
    itlb: Tlb,
    dtlb: Tlb,
    warmup: bool,
    prefetches: u64,
    /// L1I line of the previous fetch: resident and most recent in its
    /// set, since only [`Hierarchy::fetch`] touches the L1I.
    last_fetch_line: Option<u64>,
    /// `log2` of the L1I line size.
    fetch_line_shift: u32,
}

impl Hierarchy {
    /// Creates an empty hierarchy.
    pub fn new(config: HierarchyConfig) -> Self {
        Self {
            config,
            l1i: Cache::new(config.l1i),
            l1d: Cache::new(config.l1d),
            l2: Cache::new(config.l2),
            l3: Cache::new(config.l3),
            itlb: Tlb::new(config.itlb),
            dtlb: Tlb::new(config.dtlb),
            warmup: false,
            prefetches: 0,
            last_fetch_line: None,
            fetch_line_shift: config.l1i.line_bytes.trailing_zeros(),
        }
    }

    /// The configuration.
    pub fn config(&self) -> &HierarchyConfig {
        &self.config
    }

    /// Enables or disables warmup mode. While enabled, accesses update
    /// cache state but no counters — used to prime caches before measuring
    /// a simulation point (paper §IV-D, "Warmup Regional Run").
    pub fn set_warmup(&mut self, warmup: bool) {
        self.warmup = warmup;
    }

    /// Whether warmup mode is active.
    pub fn warmup(&self) -> bool {
        self.warmup
    }

    /// A data access (load when `is_write` is false, store when true).
    /// Returns the level that satisfied it.
    #[inline]
    pub fn access_data(&mut self, addr: u64, is_write: bool) -> Level {
        let count = !self.warmup;
        self.dtlb.access(addr, count);
        if self.l1d.access_rw(addr, is_write, count) {
            return Level::L1D;
        }
        if self.l2.access(addr, count) {
            return Level::L2;
        }
        // L2 demand miss: optionally pull the next line into L2/L3 as an
        // uncounted prefetch (a simple next-line prefetcher).
        if self.config.next_line_prefetch {
            let next = addr + self.config.l2.line_bytes;
            if !self.l2.peek(next) {
                self.l2.access(next, false);
                self.l3.access(next, false);
                if count {
                    self.prefetches += 1;
                }
            }
        }
        if self.l3.access(addr, count) {
            return Level::L3;
        }
        Level::Mem
    }

    /// An instruction fetch at `pc`. Returns the level that satisfied it.
    ///
    /// A fetch from the line the previous fetch touched is an L1I hit that
    /// changes no replacement state under any policy (the line is already
    /// the most recent way of its set; FIFO and random hits never reorder;
    /// a tree-PLRU re-touch is idempotent; a skipped stamp bump keeps
    /// every set's order), so it is only counted, not probed.
    #[inline]
    pub fn fetch(&mut self, pc: u64) -> Level {
        let count = !self.warmup;
        self.itlb.access(pc, count);
        let line = pc >> self.fetch_line_shift;
        if self.last_fetch_line == Some(line) {
            self.l1i.count_hit(count);
            return Level::L1I;
        }
        self.last_fetch_line = Some(line);
        if self.l1i.access(pc, count) {
            return Level::L1I;
        }
        if self.l2.access(pc, count) {
            return Level::L2;
        }
        if self.l3.access(pc, count) {
            return Level::L3;
        }
        Level::Mem
    }

    /// Latency, in cycles, of an access satisfied at `level` (timing-model
    /// helper; the L1 latency is charged even on hits).
    pub fn latency_of(&self, level: Level) -> u32 {
        match level {
            Level::L1I => self.config.l1i.latency,
            Level::L1D => self.config.l1d.latency,
            Level::L2 => self.config.l2.latency,
            Level::L3 => self.config.l3.latency,
            Level::Mem => self.config.mem_latency,
        }
    }

    /// Snapshot of all counters.
    pub fn stats(&self) -> HierarchyStats {
        HierarchyStats {
            l1i: self.l1i.stats(),
            l1d: self.l1d.stats(),
            l2: self.l2.stats(),
            l3: self.l3.stats(),
            itlb: self.itlb.stats(),
            dtlb: self.dtlb.stats(),
            prefetches: self.prefetches,
        }
    }

    /// Resets counters, preserving cache contents.
    pub fn reset_stats(&mut self) {
        self.l1i.reset_stats();
        self.l1d.reset_stats();
        self.l2.reset_stats();
        self.l3.reset_stats();
        self.itlb.reset_stats();
        self.dtlb.reset_stats();
        self.prefetches = 0;
    }

    /// Restores the exact state [`Hierarchy::new`] builds from this
    /// configuration: every cache and TLB empty with its replacement state
    /// at the start (see [`Cache::reset`]), counters zeroed, warmup off,
    /// and no remembered fetch line. A replay that starts from a reset
    /// hierarchy sees exactly what it would see on a fresh one, and the
    /// reset costs time in proportion to the sets the caches filled since
    /// the last one, not to the capacity a fresh hierarchy allocates and
    /// fills.
    pub fn reset(&mut self) {
        self.l1i.reset();
        self.l1d.reset();
        self.l2.reset();
        self.l3.reset();
        self.itlb.reset();
        self.dtlb.reset();
        self.warmup = false;
        self.prefetches = 0;
        self.last_fetch_line = None;
    }

    /// Invalidates everything and resets counters (cold restart): the
    /// state of [`Hierarchy::reset`], except that the warmup mode, a
    /// setting rather than contents, is kept.
    pub fn flush(&mut self) {
        let warmup = self.warmup;
        self.reset();
        self.warmup = warmup;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::configs;

    #[test]
    fn miss_propagates_to_all_levels() {
        let mut h = Hierarchy::new(configs::allcache_table1());
        assert_eq!(h.access_data(0x100, false), Level::Mem);
        let s = h.stats();
        assert_eq!(s.l1d.misses, 1);
        assert_eq!(s.l2.misses, 1);
        assert_eq!(s.l3.misses, 1);
        assert_eq!(s.dtlb.misses, 1);
        // Second access hits L1D and never reaches L2/L3.
        assert_eq!(h.access_data(0x100, true), Level::L1D);
        let s = h.stats();
        assert_eq!(s.l2.accesses, 1);
        assert_eq!(s.l3.accesses, 1);
    }

    #[test]
    fn fetch_uses_instruction_side() {
        let mut h = Hierarchy::new(configs::allcache_table1());
        assert_eq!(h.fetch(0x40_0000), Level::Mem);
        assert_eq!(h.fetch(0x40_0000), Level::L1I);
        let s = h.stats();
        assert_eq!(s.l1i.accesses, 2);
        assert_eq!(s.l1d.accesses, 0);
        assert_eq!(s.itlb.accesses, 2);
    }

    #[test]
    fn same_line_fetches_count_as_l1i_hits() {
        let mut h = Hierarchy::new(configs::i7_table3());
        assert_eq!(h.fetch(0x40_0000), Level::Mem);
        assert_eq!(h.fetch(0x40_0004), Level::L1I);
        h.set_warmup(true);
        assert_eq!(h.fetch(0x40_0008), Level::L1I);
        h.set_warmup(false);
        let s = h.stats();
        assert_eq!((s.l1i.accesses, s.l1i.misses), (2, 1));
        assert_eq!(s.itlb.accesses, 2);
        // A flush forgets the line, so the next fetch misses again.
        h.flush();
        assert_eq!(h.fetch(0x40_000C), Level::Mem);
    }

    #[test]
    fn warmup_fills_without_counting() {
        let mut h = Hierarchy::new(configs::allcache_table1());
        h.set_warmup(true);
        h.access_data(0x5000, false);
        h.set_warmup(false);
        let s = h.stats();
        assert_eq!(s.l1d.accesses, 0);
        assert_eq!(h.access_data(0x5000, false), Level::L1D);
    }

    #[test]
    fn l1_eviction_can_still_hit_l3() {
        // Walk a working set bigger than L1D (32 kB) but smaller than L3.
        let mut h = Hierarchy::new(configs::allcache_table1());
        let ws = 256 << 10;
        for addr in (0..ws).step_by(32) {
            h.access_data(addr, false);
        }
        h.reset_stats();
        // Second pass: misses L1D (capacity) but the L3 holds the set.
        for addr in (0..ws).step_by(32) {
            let lvl = h.access_data(addr, false);
            assert_ne!(lvl, Level::Mem, "L3 should hold the working set");
        }
        let s = h.stats();
        assert!(s.l1d.misses > 0, "L1D too small for the working set");
        assert_eq!(s.l3.misses, 0);
    }

    #[test]
    fn latencies_exposed() {
        let h = Hierarchy::new(configs::i7_table3());
        assert_eq!(h.latency_of(Level::L1D), 4);
        assert_eq!(h.latency_of(Level::L2), 10);
        assert_eq!(h.latency_of(Level::L3), 30);
        assert!(h.latency_of(Level::Mem) > 100);
    }

    #[test]
    fn flush_clears_all_levels() {
        let mut h = Hierarchy::new(configs::allcache_table1());
        h.access_data(0x100, false);
        h.flush();
        assert_eq!(h.access_data(0x100, false), Level::Mem);
    }

    #[test]
    fn stats_merge_adds() {
        let mut a = HierarchyStats::default();
        let mut b = HierarchyStats::default();
        b.l3.accesses = 10;
        b.l3.misses = 4;
        a.merge(&b);
        a.merge(&b);
        assert_eq!(a.l3.accesses, 20);
        assert_eq!(a.l3.misses, 8);
    }
}

impl sampsim_util::codec::Encode for HierarchyStats {
    fn encode(&self, enc: &mut sampsim_util::codec::Encoder) {
        self.l1i.encode(enc);
        self.l1d.encode(enc);
        self.l2.encode(enc);
        self.l3.encode(enc);
        self.itlb.encode(enc);
        self.dtlb.encode(enc);
        enc.put_u64(self.prefetches);
    }
}

impl sampsim_util::codec::Decode for HierarchyStats {
    fn decode(
        dec: &mut sampsim_util::codec::Decoder<'_>,
    ) -> Result<Self, sampsim_util::codec::DecodeError> {
        Ok(Self {
            l1i: crate::cache::CacheStats::decode(dec)?,
            l1d: crate::cache::CacheStats::decode(dec)?,
            l2: crate::cache::CacheStats::decode(dec)?,
            l3: crate::cache::CacheStats::decode(dec)?,
            itlb: crate::tlb::TlbStats::decode(dec)?,
            dtlb: crate::tlb::TlbStats::decode(dec)?,
            prefetches: dec.take_u64()?,
        })
    }
}

#[cfg(test)]
mod prefetch_tests {
    use super::*;
    use crate::configs;

    #[test]
    fn next_line_prefetch_helps_streaming() {
        let mut cfg = configs::i7_table3();
        let run = |cfg: HierarchyConfig| {
            let mut h = Hierarchy::new(cfg);
            // Sequential 8-byte walk over 1 MB.
            for addr in (0..(1u64 << 20)).step_by(8) {
                h.access_data(addr, false);
            }
            h.stats()
        };
        let base = run(cfg);
        cfg.next_line_prefetch = true;
        let pf = run(cfg);
        assert!(pf.prefetches > 0);
        assert!(
            pf.l3.misses < base.l3.misses,
            "prefetching should cut demand misses beyond L2 ({} vs {})",
            pf.l3.misses,
            base.l3.misses
        );
        // Demand access counts are unchanged by (uncounted) prefetch fills.
        assert_eq!(pf.l1d.accesses, base.l1d.accesses);
    }

    #[test]
    fn flush_resets_prefetch_counter() {
        let mut cfg = configs::i7_table3();
        cfg.next_line_prefetch = true;
        let mut h = Hierarchy::new(cfg);
        h.access_data(0x10_0000, false);
        assert_eq!(h.stats().prefetches, 1);
        h.flush();
        assert_eq!(h.stats(), HierarchyStats::default());
    }

    #[test]
    fn prefetch_stats_roundtrip_codec() {
        let s = HierarchyStats {
            prefetches: 42,
            ..HierarchyStats::default()
        };
        let bytes = sampsim_util::codec::to_bytes(&s);
        let back: HierarchyStats = sampsim_util::codec::from_bytes(&bytes).unwrap();
        assert_eq!(back.prefetches, 42);
    }
}
