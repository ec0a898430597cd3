//! The pre-optimization cache and TLB models, frozen as differential
//! oracles.
//!
//! [`ReferenceCache`] is the original zipped tag+stamp implementation of
//! [`crate::Cache`], kept verbatim so the packed fast path can be checked
//! against it access-by-access (see `tests/differential.rs`) and so
//! `sampsim perf` can time the pre-optimization kernel as
//! `cache_access_rw_reference`. Counters, per-access hit/miss results and
//! eviction choices are contractual between the two models; internal
//! bookkeeping (stamps vs. packed recency words) is not.
//!
//! [`ReferenceTlb`] is the original full-scan [`crate::Tlb`], the oracle
//! for its page→slot hint fast path under the same contract.

use crate::cache::{CacheConfig, CacheStats};
use crate::policy::PolicyState;
use crate::tlb::{TlbConfig, TlbStats};

const INVALID: u64 = u64::MAX;

/// The original set-associative cache: flat tag/stamp/dirty arrays and a
/// zipped scan that derives the hit way and the min-stamp victim candidate
/// in one pass.
#[derive(Debug, Clone)]
pub struct ReferenceCache {
    config: CacheConfig,
    tags: Vec<u64>,
    stamps: Vec<u64>,
    dirty: Vec<bool>,
    clock: u64,
    stats: CacheStats,
    set_mask: u64,
    line_shift: u32,
    ways: usize,
    policy: PolicyState,
}

impl ReferenceCache {
    /// Creates an empty (all-invalid) cache.
    pub fn new(config: CacheConfig) -> Self {
        let sets = config.sets();
        let entries = (sets * u64::from(config.ways)) as usize;
        Self {
            config,
            tags: vec![INVALID; entries],
            stamps: vec![0; entries],
            dirty: vec![false; entries],
            clock: 0,
            stats: CacheStats::default(),
            set_mask: sets - 1,
            line_shift: config.line_bytes.trailing_zeros(),
            ways: config.ways as usize,
            policy: PolicyState::new(
                config.policy,
                sets as usize,
                config.ways,
                0xCAC4E ^ config.size_bytes,
            ),
        }
    }

    /// The configuration this cache was built with.
    pub fn config(&self) -> &CacheConfig {
        &self.config
    }

    /// Current counters.
    pub fn stats(&self) -> CacheStats {
        self.stats
    }

    /// Resets counters (state is preserved).
    pub fn reset_stats(&mut self) {
        self.stats = CacheStats::default();
    }

    /// Invalidates all lines and resets counters.
    pub fn flush(&mut self) {
        self.tags.fill(INVALID);
        self.stamps.fill(0);
        self.dirty.fill(false);
        self.clock = 0;
        self.reset_stats();
    }

    /// Probes and updates the cache for `addr`. Returns `true` on a hit.
    #[inline]
    pub fn access(&mut self, addr: u64, count: bool) -> bool {
        self.access_rw(addr, false, count)
    }

    /// [`ReferenceCache::access`] with an explicit write flag
    /// (write-allocate, write-back).
    #[inline]
    pub fn access_rw(&mut self, addr: u64, is_write: bool, count: bool) -> bool {
        let line = addr >> self.line_shift;
        let set = (line & self.set_mask) as usize;
        let tag = line;
        let base = set * self.ways;
        self.clock += 1;
        if count {
            self.stats.accesses += 1;
        }
        let tags = &self.tags[base..base + self.ways];
        let mut stamp_victim = 0usize;
        let mut hit_way = None;
        if self.policy.stamp_based() {
            let stamps = &self.stamps[base..base + self.ways];
            let mut victim_stamp = u64::MAX;
            for (w, (&t, &s)) in tags.iter().zip(stamps).enumerate() {
                if t == tag {
                    hit_way = Some(w);
                    break;
                }
                if s < victim_stamp {
                    victim_stamp = s;
                    stamp_victim = w;
                }
            }
        } else {
            hit_way = tags.iter().position(|&t| t == tag);
        }
        if let Some(w) = hit_way {
            if self.policy.refresh_on_hit() {
                self.stamps[base + w] = self.clock;
            }
            self.policy.touch(set, w, self.ways);
            if is_write {
                self.dirty[base + w] = true;
            }
            return true;
        }
        if count {
            self.stats.misses += 1;
        }
        let victim = self.policy.victim(set, self.ways).unwrap_or(stamp_victim);
        if self.tags[base + victim] != INVALID && self.dirty[base + victim] {
            if count {
                self.stats.writebacks += 1;
            }
            self.dirty[base + victim] = false;
        }
        self.tags[base + victim] = tag;
        self.stamps[base + victim] = self.clock;
        self.dirty[base + victim] = is_write;
        self.policy.touch(set, victim, self.ways);
        false
    }

    /// Probes without updating replacement state or counters.
    #[inline]
    pub fn peek(&self, addr: u64) -> bool {
        let line = addr >> self.line_shift;
        let set = (line & self.set_mask) as usize;
        let base = set * self.ways;
        self.tags[base..base + self.ways].contains(&line)
    }
}

/// The original fully associative LRU TLB: every access scans all
/// entries, returning on the first page match and otherwise filling the
/// min-stamp entry (lowest index on ties).
#[derive(Debug, Clone)]
pub struct ReferenceTlb {
    config: TlbConfig,
    pages: Vec<u64>,
    stamps: Vec<u64>,
    clock: u64,
    stats: TlbStats,
    page_shift: u32,
}

impl ReferenceTlb {
    /// Creates an empty TLB.
    pub fn new(config: TlbConfig) -> Self {
        Self {
            config,
            pages: vec![INVALID; config.entries as usize],
            stamps: vec![0; config.entries as usize],
            clock: 0,
            stats: TlbStats::default(),
            page_shift: config.page_bytes.trailing_zeros(),
        }
    }

    /// The configuration.
    pub fn config(&self) -> &TlbConfig {
        &self.config
    }

    /// Current counters.
    pub fn stats(&self) -> TlbStats {
        self.stats
    }

    /// Resets counters, keeping translations resident.
    pub fn reset_stats(&mut self) {
        self.stats = TlbStats::default();
    }

    /// Translates `addr`. Returns `true` on a hit; misses install the page.
    /// When `count` is false the access is not counted (warmup).
    #[inline]
    pub fn access(&mut self, addr: u64, count: bool) -> bool {
        let page = addr >> self.page_shift;
        self.clock += 1;
        if count {
            self.stats.accesses += 1;
        }
        let mut victim = 0usize;
        let mut victim_stamp = u64::MAX;
        for (i, &p) in self.pages.iter().enumerate() {
            if p == page {
                self.stamps[i] = self.clock;
                return true;
            }
            if self.stamps[i] < victim_stamp {
                victim_stamp = self.stamps[i];
                victim = i;
            }
        }
        if count {
            self.stats.misses += 1;
        }
        self.pages[victim] = page;
        self.stamps[victim] = self.clock;
        false
    }
}
