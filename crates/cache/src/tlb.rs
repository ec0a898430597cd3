//! Instruction/data TLBs.
//!
//! The paper's `allcache` Pintool simulates "instruction+data TLB+cache
//! hierarchies"; the evaluation only reports cache miss rates, but the TLBs
//! are modelled for completeness (and are exercised by the examples).

/// TLB configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TlbConfig {
    /// Number of entries (fully associative).
    pub entries: u32,
    /// Page size in bytes (power of two).
    pub page_bytes: u64,
}

impl TlbConfig {
    /// Creates a configuration.
    ///
    /// # Panics
    ///
    /// Panics unless `entries ≥ 1` and `page_bytes` is a power of two.
    pub fn new(entries: u32, page_bytes: u64) -> Self {
        assert!(entries >= 1, "TLB needs at least one entry");
        assert!(
            page_bytes.is_power_of_two(),
            "page size must be a power of two"
        );
        Self {
            entries,
            page_bytes,
        }
    }

    /// A typical 64-entry, 4 KiB-page TLB.
    pub fn typical() -> Self {
        Self::new(64, 4096)
    }
}

/// Access/miss counters for a TLB.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct TlbStats {
    /// Translations requested.
    pub accesses: u64,
    /// Translations that missed.
    pub misses: u64,
}

impl TlbStats {
    /// Miss rate in percent (0 when no accesses).
    pub fn miss_rate_pct(&self) -> f64 {
        if self.accesses == 0 {
            0.0
        } else {
            100.0 * self.misses as f64 / self.accesses as f64
        }
    }

    /// Accumulates another counter set.
    pub fn merge(&mut self, other: &TlbStats) {
        self.accesses += other.accesses;
        self.misses += other.misses;
    }
}

/// A fully associative, LRU translation lookaside buffer.
///
/// Residency and victim choice are the min-stamp scan of
/// [`crate::reference::ReferenceTlb`]. A hit skips the scan when a
/// page→slot hint table already names the page's slot: resident pages are
/// unique, so a hint whose slot holds the page *is* the slot the scan
/// would find. Per-access results and counters are checked against the
/// reference in `tests/differential.rs`.
#[derive(Debug, Clone)]
pub struct Tlb {
    config: TlbConfig,
    pages: Vec<u64>,
    stamps: Vec<u64>,
    clock: u64,
    stats: TlbStats,
    page_shift: u32,
    /// Last slot seen holding each page, indexed by the page's low bits.
    /// A hint may be stale; it is only trusted after `pages[slot] == page`.
    hints: Box<[u32; HINTS]>,
}

const INVALID: u64 = u64::MAX;

/// Hint-table size (a power of two; indexed by `page & (HINTS - 1)`).
const HINTS: usize = 1024;

impl Tlb {
    /// Creates an empty TLB.
    pub fn new(config: TlbConfig) -> Self {
        Self {
            config,
            pages: vec![INVALID; config.entries as usize],
            stamps: vec![0; config.entries as usize],
            clock: 0,
            stats: TlbStats::default(),
            page_shift: config.page_bytes.trailing_zeros(),
            hints: Box::new([0; HINTS]),
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

    /// Restores the exact state [`Tlb::new`] builds: no translations, the
    /// stamp clock and hint table at zero, counters zeroed.
    pub fn reset(&mut self) {
        self.pages.fill(INVALID);
        self.stamps.fill(0);
        self.clock = 0;
        self.stats = TlbStats::default();
        self.hints.fill(0);
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
        let hint = &mut self.hints[page as usize & (HINTS - 1)];
        let slot = *hint as usize;
        // Only INVALID (the all-ones page) can sit in several slots, and
        // its hint always names the lowest of them, as the scan would: a
        // lower slot turns INVALID only by a fill, which moves the hint.
        if self.pages[slot] == page {
            self.stamps[slot] = self.clock;
            return true;
        }
        let mut victim = 0usize;
        let mut victim_stamp = u64::MAX;
        for (i, &p) in self.pages.iter().enumerate() {
            if p == page {
                self.stamps[i] = self.clock;
                *hint = i as u32;
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
        *hint = victim as u32;
        false
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hit_within_page() {
        let mut t = Tlb::new(TlbConfig::new(4, 4096));
        assert!(!t.access(0x1000, true));
        assert!(t.access(0x1FFF, true));
        assert!(!t.access(0x2000, true));
        assert_eq!(t.stats().misses, 2);
    }

    #[test]
    fn lru_eviction() {
        let mut t = Tlb::new(TlbConfig::new(2, 4096));
        t.access(0x1000, true);
        t.access(0x2000, true);
        t.access(0x1000, true); // refresh page 1
        t.access(0x3000, true); // evicts page 2
        assert!(t.access(0x1000, true));
        assert!(!t.access(0x2000, true));
    }

    #[test]
    fn warmup_not_counted() {
        let mut t = Tlb::new(TlbConfig::typical());
        t.access(0x5000, false);
        assert_eq!(t.stats().accesses, 0);
        assert!(t.access(0x5000, true));
    }
}

impl sampsim_util::codec::Encode for TlbStats {
    fn encode(&self, enc: &mut sampsim_util::codec::Encoder) {
        enc.put_u64(self.accesses);
        enc.put_u64(self.misses);
    }
}

impl sampsim_util::codec::Decode for TlbStats {
    fn decode(
        dec: &mut sampsim_util::codec::Decoder<'_>,
    ) -> Result<Self, sampsim_util::codec::DecodeError> {
        Ok(Self {
            accesses: dec.take_u64()?,
            misses: dec.take_u64()?,
        })
    }
}

#[cfg(test)]
mod tlb_extra_tests {
    use super::*;

    #[test]
    fn reset_stats_keeps_translations() {
        let mut t = Tlb::new(TlbConfig::new(8, 4096));
        t.access(0x1000, true);
        t.reset_stats();
        assert_eq!(t.stats().accesses, 0);
        assert!(t.access(0x1000, true), "translation survives stat reset");
    }

    #[test]
    fn config_accessor() {
        let t = Tlb::new(TlbConfig::new(16, 8192));
        assert_eq!(t.config().entries, 16);
        assert_eq!(t.config().page_bytes, 8192);
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn bad_page_size_panics() {
        TlbConfig::new(4, 3000);
    }
}
