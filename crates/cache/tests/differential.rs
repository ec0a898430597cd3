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
//!
//! Finally, [`Hierarchy::reset`] and [`Cache::reset`] must leave exactly
//! the state a fresh constructor builds: after arbitrary traffic, a reset
//! model and a new one answer every later access identically.

use sampsim_cache::policy::ReplacementPolicy;
use sampsim_cache::{
    configs, Cache, CacheConfig, CacheStats, Hierarchy, HierarchyConfig, HierarchyStats, Level,
    ReferenceCache, ReferenceTlb, Tlb, TlbConfig,
};
use sampsim_util::rng::SplitMix64;

/// Drives both models through an identical seeded stream of reads,
/// writes, warmup accesses, a flush and stat resets, asserting
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
            // A flush is a cold restart: the state of a new cache. The
            // frozen reference's own flush keeps its random-replacement
            // RNG and tree-PLRU bits, so compare against a new one.
            fast.flush();
            reference = ReferenceCache::new(config);
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
            // A flush keeps the warmup mode and otherwise restarts cold,
            // as a new hierarchy.
            fast.flush();
            let warmup = reference.warmup;
            reference = ReferenceHierarchy::new(config);
            reference.warmup = warmup;
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

/// One seeded access of a reset-differential stream.
#[derive(Debug, Clone, Copy)]
enum Op {
    Fetch(u64),
    Data(u64, bool),
}

/// A seeded instruction stream: runs of sequential 4-byte fetches over
/// 32 KiB of code, a load or store on about a third of them, data drawn
/// from `data_bytes` (half of it as a sequential 8-byte walk).
fn reset_stream(seed: u64, ops: usize, data_bytes: u64) -> Vec<Op> {
    let mut rng = SplitMix64::new(seed);
    let mut out = Vec::with_capacity(ops);
    let mut pc = 0x40_0000;
    let mut run_left = 0u64;
    let mut walk = 0x1000_0000u64;
    while out.len() < ops {
        if run_left == 0 {
            pc = 0x40_0000 + ((rng.next_u64() % (32 << 10)) & !3);
            run_left = 1 + rng.next_u64() % 32;
        }
        run_left -= 1;
        out.push(Op::Fetch(pc));
        pc += 4;
        let r = rng.next_u64();
        if r.is_multiple_of(3) {
            let addr = if r.is_multiple_of(2) {
                walk += 8;
                walk
            } else {
                0x1000_0000 + (r >> 8) % data_bytes
            };
            out.push(Op::Data(addr, r.is_multiple_of(5)));
        }
    }
    out
}

/// Plays `ops` on `h`, returning the level of every access.
fn play(h: &mut Hierarchy, ops: &[Op]) -> Vec<Level> {
    ops.iter()
        .map(|&op| match op {
            Op::Fetch(pc) => h.fetch(pc),
            Op::Data(addr, write) => h.access_data(addr, write),
        })
        .collect()
}

/// Dirties `h` with `ops` under the bookkeeping a replay does (warmup on
/// for the first part, a stat reset part-way), leaving warmup on, then
/// resets it and checks that it answers `probe` exactly like a fresh
/// hierarchy, access by access and in every counter.
fn check_reset(h: &mut Hierarchy, ops: &[Op], probe: &[Op], what: &str) {
    let (warm, rest) = ops.split_at(ops.len() / 3);
    h.set_warmup(true);
    play(h, warm);
    h.set_warmup(false);
    let (before, after) = rest.split_at(rest.len() / 2);
    play(h, before);
    h.reset_stats();
    play(h, after);
    h.set_warmup(true);
    h.reset();
    assert!(!h.warmup(), "{what}: reset leaves warmup on");
    assert_eq!(h.stats(), HierarchyStats::default(), "{what}: counters");
    let mut fresh = Hierarchy::new(*h.config());
    for (i, &op) in probe.iter().enumerate() {
        let (a, b) = match op {
            Op::Fetch(pc) => (h.fetch(pc), fresh.fetch(pc)),
            Op::Data(addr, write) => (h.access_data(addr, write), fresh.access_data(addr, write)),
        };
        assert_eq!(a, b, "{what}: probe access #{i} ({op:?})");
        if i % 211 == 0 {
            assert_eq!(h.stats(), fresh.stats(), "{what}: stats at #{i}");
        }
    }
    assert_eq!(h.stats(), fresh.stats(), "{what}: final stats");
}

#[test]
fn reset_hierarchy_matches_a_fresh_one() {
    // Small data footprints keep every cache's log under its cap (the
    // set-by-set reset); 8 MiB of data overflows the L2 and L3 logs (the
    // full clear). One hierarchy serves every round, so each reset also
    // follows an earlier reset of the other kind.
    for base in [configs::allcache_table1(), configs::i7_table3()] {
        for policy in POLICIES {
            for prefetch in [false, true] {
                let mut config = base;
                config.l1i = config.l1i.with_policy(policy);
                config.next_line_prefetch = prefetch;
                let mut h = Hierarchy::new(config);
                for (round, data_bytes) in [64 << 10, 8 << 20, 256 << 10, 8 << 20, 4 << 10]
                    .into_iter()
                    .enumerate()
                {
                    let seed = 0x2E5E7 ^ ((round as u64) << 8) ^ config.l1i.size_bytes;
                    let ops = reset_stream(seed, 12_000, data_bytes);
                    let probe = reset_stream(seed ^ 0xF00D, 6_000, 1 << 20);
                    let what = format!(
                        "{:?} L1I, {}-way L3, prefetch {prefetch}, round {round}",
                        policy, config.l3.ways
                    );
                    check_reset(&mut h, &ops, &probe, &what);
                }
            }
        }
    }
}

#[test]
fn reset_after_a_stream_that_overflows_the_touched_set_log() {
    // A sequential walk over 4 MiB fills 131 072 distinct L3 sets of the
    // Table I hierarchy, four times its 32 768-entry log.
    let walk: Vec<Op> = (0..(4u64 << 20))
        .step_by(32)
        .map(|a| Op::Data(0x2000_0000 + a, a % 96 == 0))
        .collect();
    let probe = reset_stream(0x0F10, 20_000, 8 << 20);
    let mut h = Hierarchy::new(configs::allcache_table1());
    check_reset(&mut h, &walk, &probe, "allcache after a 4 MiB walk");
    check_reset(&mut h, &probe, &walk, "allcache after the probe");
}

#[test]
fn one_byte_lines_reset_after_all_ones_address_hits() {
    // With 1-byte lines the all-ones address is the invalid tag, so it
    // "hits" an empty way: the hit updates replacement state (observably
    // so under tree-PLRU) and a write marks the way dirty, with no fill
    // to log. Reset must undo that too. Single-set caches over a few
    // lines near the top of the address space keep that set busy.
    for policy in POLICIES {
        for ways in [4u32, 8] {
            let config = CacheConfig::new(u64::from(ways), ways, 1, 1).with_policy(policy);
            let mut reused = Cache::new(config);
            for seed in 0..64u64 {
                let mut rng = SplitMix64::new(seed);
                let mut next = || {
                    let r = rng.next_u64();
                    (u64::MAX - (r >> 1) % u64::from(ways + 3), r & 1 == 0)
                };
                assert!(
                    reused.access_rw(u64::MAX, seed % 2 == 0, true),
                    "all-ones hits"
                );
                if seed % 4 == 3 {
                    for _ in 0..20 {
                        let (addr, write) = next();
                        reused.access_rw(addr, write, true);
                    }
                }
                reused.reset();
                let mut fresh = Cache::new(config);
                for i in 0..60 {
                    let (addr, write) = next();
                    assert_eq!(
                        reused.access_rw(addr, write, true),
                        fresh.access_rw(addr, write, true),
                        "{policy:?}, {ways} ways, seed {seed}: access #{i}"
                    );
                    assert_eq!(reused.stats(), fresh.stats(), "{policy:?}, seed {seed}");
                }
                reused.reset();
            }
        }
    }
    // The same through a whole hierarchy of single-set 1-byte-line
    // tree-PLRU caches.
    let tiny =
        |ways| CacheConfig::new(ways, ways as u32, 1, 1).with_policy(ReplacementPolicy::TreePlru);
    let config = HierarchyConfig {
        l1i: tiny(4),
        l1d: tiny(4),
        l2: tiny(8),
        l3: tiny(1),
        itlb: TlbConfig::new(4, 4096),
        dtlb: TlbConfig::new(4, 4096),
        mem_latency: 100,
        next_line_prefetch: false,
    };
    let mut rng = SplitMix64::new(0x1B);
    let ops: Vec<Op> = (0..600u64)
        .map(|i| {
            let addr = u64::MAX - rng.next_u64() % 11;
            if i % 3 == 0 {
                Op::Fetch(addr)
            } else {
                Op::Data(addr, i % 2 == 0)
            }
        })
        .collect();
    let mut h = Hierarchy::new(config);
    check_reset(&mut h, &ops, &ops, "1-byte lines");
    for write in [false, true] {
        let what = format!("all-ones data access only (write {write})");
        check_reset(&mut h, &[Op::Data(u64::MAX, write)], &ops, &what);
    }
    check_reset(&mut h, &[Op::Fetch(u64::MAX)], &ops, "all-ones fetch only");
}
