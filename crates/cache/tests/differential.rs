//! Differential suite: the packed-order fast path in [`Cache`] must be
//! bit-identical to the frozen pre-optimization model
//! ([`ReferenceCache`]) — per-access hit/miss results, counters,
//! write-backs and residency (`peek`) — across policies, geometries and
//! seeded access mixes. Replacement stamps vs. packed recency words are
//! internal representation; everything observable is contractual.
//!
//! The same holds one level up: [`Tlb`]'s hint-table hits against the
//! full-scan [`ReferenceTlb`], and [`Hierarchy`] (same-line fetch fast
//! path included) against a level-by-level walk over the reference
//! models.

use sampsim_cache::policy::ReplacementPolicy;
use sampsim_cache::{
    configs, Cache, CacheConfig, CacheStats, Hierarchy, HierarchyConfig, HierarchyStats, Level,
    ReferenceCache, ReferenceTlb, Tlb, TlbConfig,
};
use sampsim_util::rng::SplitMix64;

/// Drives both models through an identical seeded stream of reads,
/// writes, warmup accesses, flushes and stat resets, asserting
/// equivalence after every access and at every checkpoint.
fn drive(config: CacheConfig, seed: u64, accesses: usize, ws_bytes: u64) -> CacheStats {
    let mut fast = Cache::new(config);
    let mut reference = ReferenceCache::new(config);
    let mut rng = SplitMix64::new(seed);
    let ws_mask = ws_bytes - 1;
    for i in 0..accesses {
        let addr = rng.next_u64() & ws_mask;
        let is_write = i % 4 == 3;
        let count = i % 97 != 0; // sprinkle warmup accesses through the run
        let a = fast.access_rw(addr, is_write, count);
        let b = reference.access_rw(addr, is_write, count);
        assert_eq!(
            a, b,
            "access #{i} diverged ({:?}, addr {addr:#x})",
            config.policy
        );
        if i % 251 == 0 {
            let probe = rng.next_u64() & ws_mask;
            assert_eq!(
                fast.peek(probe),
                reference.peek(probe),
                "peek diverged at #{i} ({:?})",
                config.policy
            );
            assert_eq!(fast.stats(), reference.stats(), "stats diverged at #{i}");
        }
        if i == accesses / 2 {
            fast.reset_stats();
            reference.reset_stats();
        }
        if i == (3 * accesses) / 4 {
            fast.flush();
            reference.flush();
        }
    }
    assert_eq!(fast.stats(), reference.stats());
    fast.stats()
}

const POLICIES: [ReplacementPolicy; 4] = [
    ReplacementPolicy::Lru,
    ReplacementPolicy::Fifo,
    ReplacementPolicy::Random,
    ReplacementPolicy::TreePlru,
];

#[test]
fn small_geometries_all_policies() {
    // (size, ways, line): direct-mapped through 8-way, all ways pow2 so
    // tree-PLRU constructs everywhere.
    let shapes = [(256, 1, 32), (256, 2, 32), (256, 4, 32), (1024, 8, 32)];
    for &(size, ways, line) in &shapes {
        for policy in POLICIES {
            let config = CacheConfig::new(size, ways, line, 1).with_policy(policy);
            let stats = drive(config, 0x5EED ^ size, 20_000, 4096);
            assert!(stats.accesses > 0);
        }
    }
}

#[test]
fn bench_geometry_matches_reference() {
    // The `sampsim perf` kernel shape: 32 KiB, 8-way, 64 B lines, with a
    // working set 4x the capacity so the miss/eviction path dominates.
    for policy in POLICIES {
        let config = CacheConfig::new(32 << 10, 8, 64, 4).with_policy(policy);
        drive(config, 0xC0FF_EE00, 60_000, 128 << 10);
    }
}

#[test]
fn sixteen_way_boundary_uses_packed_order() {
    // ways == 16 is the last shape served by the packed nibble word.
    for policy in [ReplacementPolicy::Lru, ReplacementPolicy::Fifo] {
        let config = CacheConfig::new(2 << 10, 16, 32, 1).with_policy(policy);
        drive(config, 0x1616, 30_000, 16 << 10);
    }
}

#[test]
fn wide_associativity_falls_back_to_stamps() {
    // Table I's 32-way L1 exercises the stamp fallback; still must match.
    for policy in [ReplacementPolicy::Lru, ReplacementPolicy::Fifo] {
        let config = CacheConfig::new(32 << 10, 32, 32, 1).with_policy(policy);
        drive(config, 0x3232, 30_000, 128 << 10);
    }
}

#[test]
fn hit_heavy_stream_matches() {
    // Working set inside capacity: exercises the hit/move-to-front path
    // far more than eviction.
    for policy in POLICIES {
        let config = CacheConfig::new(8 << 10, 8, 64, 1).with_policy(policy);
        drive(config, 0xA11_517, 40_000, 4 << 10);
    }
}

/// Size of [`Tlb`]'s page→slot hint table: pages that differ by a
/// multiple of it share a hint.
const TLB_HINTS: u64 = 1024;

/// How a TLB stream picks its pages.
#[derive(Debug, Clone, Copy)]
enum PageStream {
    /// A working set smaller than the TLB.
    HitHeavy,
    /// A working set about twice the TLB.
    Thrashing,
    /// Pages `base + j * TLB_HINTS`, all sharing one hint slot.
    HintCollisions,
}

/// Drives [`Tlb`] and [`ReferenceTlb`] through one seeded stream with
/// uncounted accesses and stat resets sprinkled in, asserting equal
/// per-access results and counters throughout.
fn drive_tlb(entries: u32, stream: PageStream, seed: u64, accesses: usize) {
    let config = TlbConfig::new(entries, 4096);
    let mut fast = Tlb::new(config);
    let mut reference = ReferenceTlb::new(config);
    let mut rng = SplitMix64::new(seed);
    let n = u64::from(entries);
    let base = rng.next_u64() % (1 << 30);
    for i in 0..accesses {
        let r = rng.next_u64();
        let page = match stream {
            PageStream::HitHeavy => base + r % (n * 3 / 4).max(1),
            PageStream::Thrashing => base + r % (2 * n + 3),
            // Half the time a set that fits, otherwise one that overflows.
            PageStream::HintCollisions if i % 2000 < 1000 => {
                base + (r % (n / 2).max(1)) * TLB_HINTS
            }
            PageStream::HintCollisions => base + (r % (n + 2)) * TLB_HINTS,
        };
        let addr = (page << 12) | (r >> 52);
        let count = i % 13 != 0;
        assert_eq!(
            fast.access(addr, count),
            reference.access(addr, count),
            "access #{i} diverged ({entries} entries, {stream:?}, page {page:#x})"
        );
        assert_eq!(fast.stats(), reference.stats(), "stats diverged at #{i}");
        if i % 1777 == 0 {
            fast.reset_stats();
            reference.reset_stats();
        }
    }
}

#[test]
fn tlb_hint_table_matches_reference() {
    for entries in [1, 2, 64, 300] {
        for (k, stream) in [
            PageStream::HitHeavy,
            PageStream::Thrashing,
            PageStream::HintCollisions,
        ]
        .into_iter()
        .enumerate()
        {
            drive_tlb(
                entries,
                stream,
                0x71B ^ u64::from(entries) ^ (k as u64) << 32,
                12_000,
            );
        }
    }
}

#[test]
fn tlb_all_ones_page_matches_reference() {
    // With 1-byte pages the all-ones address maps to the page value the
    // empty entries hold, so it can hit an entry never filled. Pages 1023
    // and 2047 share its hint slot.
    let config = TlbConfig::new(4, 1);
    let mut fast = Tlb::new(config);
    let mut reference = ReferenceTlb::new(config);
    let pages = [u64::MAX, 1023, 2047, 3, 4, 5, 6];
    let mut rng = SplitMix64::new(0xA11);
    for i in 0..4000 {
        let addr = pages[(rng.next_u64() % pages.len() as u64) as usize];
        assert_eq!(
            fast.access(addr, true),
            reference.access(addr, true),
            "access #{i} at {addr:#x}"
        );
        assert_eq!(fast.stats(), reference.stats());
    }
}

/// The hierarchy walk of [`Hierarchy`] over the frozen reference models,
/// with no fast paths: every fetch probes the L1I.
struct ReferenceHierarchy {
    config: HierarchyConfig,
    l1i: ReferenceCache,
    l1d: ReferenceCache,
    l2: ReferenceCache,
    l3: ReferenceCache,
    itlb: ReferenceTlb,
    dtlb: ReferenceTlb,
    warmup: bool,
    prefetches: u64,
}

impl ReferenceHierarchy {
    fn new(config: HierarchyConfig) -> Self {
        Self {
            config,
            l1i: ReferenceCache::new(config.l1i),
            l1d: ReferenceCache::new(config.l1d),
            l2: ReferenceCache::new(config.l2),
            l3: ReferenceCache::new(config.l3),
            itlb: ReferenceTlb::new(config.itlb),
            dtlb: ReferenceTlb::new(config.dtlb),
            warmup: false,
            prefetches: 0,
        }
    }

    fn access_data(&mut self, addr: u64, is_write: bool) -> Level {
        let count = !self.warmup;
        self.dtlb.access(addr, count);
        if self.l1d.access_rw(addr, is_write, count) {
            return Level::L1D;
        }
        if self.l2.access(addr, count) {
            return Level::L2;
        }
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

    fn fetch(&mut self, pc: u64) -> Level {
        let count = !self.warmup;
        self.itlb.access(pc, count);
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

    fn stats(&self) -> HierarchyStats {
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

    fn reset_stats(&mut self) {
        self.l1i.reset_stats();
        self.l1d.reset_stats();
        self.l2.reset_stats();
        self.l3.reset_stats();
        self.itlb.reset_stats();
        self.dtlb.reset_stats();
        self.prefetches = 0;
    }

    fn flush(&mut self) {
        self.l1i.flush();
        self.l1d.flush();
        self.l2.flush();
        self.l3.flush();
        self.itlb = ReferenceTlb::new(self.config.itlb);
        self.dtlb = ReferenceTlb::new(self.config.dtlb);
        self.prefetches = 0;
    }
}

/// Drives [`Hierarchy`] and [`ReferenceHierarchy`] through one seeded
/// instruction stream: runs of sequential 4-byte pcs (so most fetches
/// stay on the previous fetch's line) over `code_bytes` of code, with a
/// load or store on about a third of the instructions. Warmup toggles,
/// stat resets and one flush happen mid-stream.
fn drive_hierarchy(config: HierarchyConfig, seed: u64, insts: usize, code_bytes: u64) {
    let mut fast = Hierarchy::new(config);
    let mut reference = ReferenceHierarchy::new(config);
    let mut rng = SplitMix64::new(seed);
    let code_base = 0x40_0000;
    let data_base = 0x1000_0000;
    let mut pc = code_base;
    let mut run_left = 0u64;
    let mut stride_addr = data_base;
    for i in 0..insts {
        if run_left == 0 {
            pc = code_base + ((rng.next_u64() % code_bytes) & !3);
            run_left = 1 + rng.next_u64() % 48;
        }
        run_left -= 1;
        let fetched = fast.fetch(pc);
        assert_eq!(
            fetched,
            reference.fetch(pc),
            "fetch #{i} at {pc:#x} diverged ({:?})",
            config.l1i.policy
        );
        pc += 4;
        let r = rng.next_u64();
        if r.is_multiple_of(3) {
            let addr = if r.is_multiple_of(2) {
                stride_addr += 8;
                stride_addr
            } else {
                data_base + (r >> 8) % (1 << 20)
            };
            let is_write = r.is_multiple_of(5);
            assert_eq!(
                fast.access_data(addr, is_write),
                reference.access_data(addr, is_write),
                "data access #{i} at {addr:#x} diverged"
            );
        }
        match i % 4000 {
            0 => {
                fast.set_warmup(true);
                reference.warmup = true;
            }
            700 => {
                fast.set_warmup(false);
                reference.warmup = false;
            }
            2500 => {
                fast.reset_stats();
                reference.reset_stats();
            }
            _ => {}
        }
        if i == insts / 2 {
            fast.flush();
            reference.flush();
        }
        if i % 97 == 0 {
            assert_eq!(fast.stats(), reference.stats(), "stats diverged at #{i}");
        }
    }
    let stats = fast.stats();
    assert_eq!(stats, reference.stats());
    assert!(
        stats.l1i.accesses > stats.l1i.misses && stats.l1i.misses > 0,
        "stream must both hit and miss the L1I: {:?}",
        stats.l1i
    );
}

#[test]
fn hierarchy_matches_reference_walk() {
    for base in [configs::allcache_table1(), configs::i7_table3()] {
        for policy in POLICIES {
            for prefetch in [false, true] {
                let mut config = base;
                config.l1i = config.l1i.with_policy(policy);
                config.next_line_prefetch = prefetch;
                // A code footprint twice the L1I forces evictions.
                drive_hierarchy(config, 0x41E2 ^ config.l1i.size_bytes, 24_000, 64 << 10);
            }
        }
    }
}

#[test]
fn hierarchy_with_packed_l1i_matches_reference_walk() {
    // A 4-way L1I takes the nibble-packed order path; tiny TLBs add
    // frequent TLB misses on both sides.
    for policy in POLICIES {
        let mut config = configs::i7_table3();
        config.l1i = CacheConfig::new(4 << 10, 4, 64, 4).with_policy(policy);
        config.itlb = TlbConfig::new(2, 4096);
        config.dtlb = TlbConfig::new(3, 4096);
        drive_hierarchy(config, 0x4A4, 20_000, 16 << 10);
    }
}
