//! A single set-associative cache.

use crate::policy::{PolicyState, ReplacementPolicy};

/// Static configuration of one cache.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheConfig {
    /// Total capacity in bytes.
    pub size_bytes: u64,
    /// Associativity (1 = direct-mapped).
    pub ways: u32,
    /// Line size in bytes (power of two).
    pub line_bytes: u64,
    /// Access latency in cycles (used by the timing model; ignored by the
    /// functional simulator).
    pub latency: u32,
    /// Victim-selection policy (LRU unless overridden).
    pub policy: ReplacementPolicy,
}

impl CacheConfig {
    /// Creates a configuration.
    ///
    /// # Panics
    ///
    /// Panics unless `line_bytes` is a power of two, `ways ≥ 1`, and the
    /// capacity is an exact multiple of `ways * line_bytes`.
    pub fn new(size_bytes: u64, ways: u32, line_bytes: u64, latency: u32) -> Self {
        assert!(
            line_bytes.is_power_of_two(),
            "line size must be a power of two"
        );
        assert!(ways >= 1, "associativity must be at least 1");
        assert!(
            size_bytes.is_multiple_of(u64::from(ways) * line_bytes) && size_bytes > 0,
            "capacity must be a positive multiple of ways * line size"
        );
        let sets = size_bytes / (u64::from(ways) * line_bytes);
        assert!(sets.is_power_of_two(), "set count must be a power of two");
        Self {
            size_bytes,
            ways,
            line_bytes,
            latency,
            policy: ReplacementPolicy::Lru,
        }
    }

    /// Overrides the replacement policy (builder-style).
    ///
    /// # Panics
    ///
    /// Panics if tree-PLRU is requested with a non-power-of-two
    /// associativity.
    pub fn with_policy(mut self, policy: ReplacementPolicy) -> Self {
        if policy == ReplacementPolicy::TreePlru {
            assert!(
                self.ways.is_power_of_two(),
                "tree-PLRU requires power-of-two associativity"
            );
        }
        self.policy = policy;
        self
    }

    /// Number of sets.
    pub fn sets(&self) -> u64 {
        self.size_bytes / (u64::from(self.ways) * self.line_bytes)
    }

    /// Bytes between two addresses that index the same set
    /// (`sets * line_bytes`). Address streams whose stride is a multiple
    /// of this span conflict in a single set; static analysis uses it to
    /// flag such pathologies.
    pub fn set_span_bytes(&self) -> u64 {
        self.sets() * self.line_bytes
    }
}

/// Access/miss counters for one cache.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CacheStats {
    /// Demand accesses observed.
    pub accesses: u64,
    /// Demand accesses that missed.
    pub misses: u64,
    /// Dirty lines evicted (write-backs produced).
    pub writebacks: u64,
}

impl CacheStats {
    /// Miss rate in percent (0 when no accesses).
    pub fn miss_rate_pct(&self) -> f64 {
        if self.accesses == 0 {
            0.0
        } else {
            100.0 * self.misses as f64 / self.accesses as f64
        }
    }

    /// Accumulates another counter set.
    pub fn merge(&mut self, other: &CacheStats) {
        self.accesses += other.accesses;
        self.misses += other.misses;
        self.writebacks += other.writebacks;
    }
}

const INVALID: u64 = u64::MAX;

/// How the probe loop tracks replacement order. Chosen once at
/// construction from the policy and associativity.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum ProbeMode {
    /// LRU/FIFO at exactly 8 ways (the perf-kernel and i7 L1 shape):
    /// tags live in `[u64; 8]` rows (one 64 B line per set) and recency
    /// order + dirty bits share a single meta word per set.
    Packed8 { refresh: bool },
    /// LRU/FIFO at `ways <= 16`: exact recency order packed into one
    /// nibble-list word per set. `refresh` is true for LRU (hits move the
    /// way to the MRU front) and false for FIFO (insertion order only).
    Packed { refresh: bool },
    /// LRU/FIFO at wider associativity: the original zipped tag+stamp
    /// scan (see [`crate::reference::ReferenceCache`]).
    Stamped,
    /// Random / tree-PLRU: the policy selects victims itself and no
    /// recency state is kept in the cache.
    Policy,
    /// Direct-mapped, under any policy: a set's single way is both the
    /// only hit candidate and the only victim, so no replacement state is
    /// kept at all (Table I's L2 and L3).
    Direct,
}

/// Returns the packed order word of an empty set: recency position `p`
/// (nibble `p`, LSB first, position 0 = MRU) holds way `ways - 1 - p`, so
/// the first victim — the nibble at position `ways - 1` — is way 0. That
/// matches the stamp scan's tie-break on an all-invalid set (lowest index
/// wins), and by induction the whole cold-fill sequence (way 0, 1, ...).
fn initial_order(ways: usize) -> u64 {
    let mut order = 0u64;
    for p in 0..ways {
        order |= ((ways - 1 - p) as u64) << (4 * p);
    }
    order
}

/// Position of `way` in a packed order word (nibble index from the LSB).
#[inline]
fn nibble_position(order: u64, way: u64, ways: usize) -> usize {
    let mut p = 0;
    while (order >> (4 * p)) & 0xF != way {
        p += 1;
        debug_assert!(p < ways, "way {way} missing from order {order:#x}");
    }
    p
}

/// `Packed8` meta-word layout: recency nibbles in bits 0..32, dirty
/// bitmask in bits 48..56.
const META_DIRTY_SHIFT: u32 = 48;
const META_ORDER_MASK: u64 = 0xFFFF_FFFF;

/// A set-associative cache.
///
/// Tags are stored in one flat array indexed by `set * ways + way`, so a
/// set's tags share a cache line and the hit check is a short branchless
/// scan. For LRU and FIFO at `ways <= 16` the replacement order is *not*
/// kept as timestamps: each set owns a single packed `u64` listing its
/// ways in exact recency order (four bits per way, MRU at the LSB). A hit
/// is a register-only move-to-front, and a miss reads its victim straight
/// from the top nibble instead of scanning for the minimum stamp. Because
/// the old stamp clock was strictly increasing, stamps were unique per
/// set and defined exactly this order, so counters, per-access results
/// and eviction choices are bit-identical to the stamp implementation —
/// enforced differentially against [`crate::reference::ReferenceCache`]
/// in `tests/differential.rs`. A direct-mapped cache keeps only tags and
/// dirty flags: with one way there is no order to track.
#[derive(Debug, Clone)]
pub struct Cache {
    config: CacheConfig,
    /// Flat tag array (all modes except `Packed8`).
    tags: Vec<u64>,
    /// One 64 B tag row per set (`Packed8` only; `tags` is empty).
    tags8: Vec<[u64; 8]>,
    /// Combined order+dirty meta word per set (`Packed8` only).
    meta: Vec<u64>,
    /// Per-way dirty flags (`Stamped`/`Policy` modes; empty for `Packed`,
    /// which keeps dirty state as one bitmask word per set).
    dirty: Vec<bool>,
    stats: CacheStats,
    set_mask: u64,
    line_shift: u32,
    ways: usize,
    mode: ProbeMode,
    /// One packed recency word per set (`ProbeMode::Packed` only).
    order: Vec<u64>,
    /// One dirty bitmask word per set (`ProbeMode::Packed` only).
    dirty_mask: Vec<u64>,
    /// Mask selecting the `4 * ways` live bits of an order word.
    order_mask: u64,
    /// Stamp array (`ProbeMode::Stamped` only; empty otherwise).
    stamps: Vec<u64>,
    clock: u64,
    policy: PolicyState,
    /// Sets whose empty way took a fill since construction or the last
    /// [`Cache::reset`], in fill order (a set may repeat). The log stops
    /// growing past `touched_cap` entries; a longer log means "reset in
    /// full".
    touched: Vec<u32>,
    /// Longest log [`Cache::reset`] replays set by set (`sets / 16`), or
    /// `None` for caches that keep no log and always reset in full.
    touched_cap: Option<usize>,
}

impl Cache {
    /// Creates an empty (all-invalid) cache.
    pub fn new(config: CacheConfig) -> Self {
        let sets = config.sets();
        let entries = (sets * u64::from(config.ways)) as usize;
        let ways = config.ways as usize;
        let policy = PolicyState::new(
            config.policy,
            sets as usize,
            config.ways,
            0xCAC4E ^ config.size_bytes,
        );
        let mode = if ways == 1 {
            ProbeMode::Direct
        } else if policy.stamp_based() {
            if ways == 8 {
                ProbeMode::Packed8 {
                    refresh: policy.refresh_on_hit(),
                }
            } else if ways <= 16 {
                ProbeMode::Packed {
                    refresh: policy.refresh_on_hit(),
                }
            } else {
                ProbeMode::Stamped
            }
        } else {
            ProbeMode::Policy
        };
        let packed = matches!(mode, ProbeMode::Packed { .. });
        let packed8 = matches!(mode, ProbeMode::Packed8 { .. });
        Self {
            config,
            tags: if packed8 {
                Vec::new()
            } else {
                vec![INVALID; entries]
            },
            tags8: if packed8 {
                vec![[INVALID; 8]; sets as usize]
            } else {
                Vec::new()
            },
            meta: if packed8 {
                vec![initial_order(8); sets as usize]
            } else {
                Vec::new()
            },
            dirty: if packed || packed8 {
                Vec::new()
            } else {
                vec![false; entries]
            },
            stats: CacheStats::default(),
            set_mask: sets - 1,
            line_shift: config.line_bytes.trailing_zeros(),
            ways,
            mode,
            order: if packed {
                vec![initial_order(ways); sets as usize]
            } else {
                Vec::new()
            },
            dirty_mask: if packed {
                vec![0; sets as usize]
            } else {
                Vec::new()
            },
            order_mask: if ways >= 16 {
                u64::MAX
            } else {
                (1u64 << (4 * ways)) - 1
            },
            stamps: if mode == ProbeMode::Stamped {
                vec![0; entries]
            } else {
                Vec::new()
            },
            clock: 0,
            policy,
            touched: Vec::new(),
            // 1-byte lines: the all-ones address is the invalid tag and can
            // "hit" an empty way without a fill, so a log would miss it.
            // The branchless 8-way probe would lose about a quarter of its
            // speed to the logging check; its sets are 72 bytes each.
            touched_cap: (config.line_bytes > 1 && !packed8 && sets <= 1 << 32)
                .then_some((sets / 16) as usize),
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

    /// Resets counters (state is preserved — this is what makes warmed-up
    /// measurement possible).
    pub fn reset_stats(&mut self) {
        self.stats = CacheStats::default();
    }

    /// Restores the exact state [`Cache::new`] builds: every line
    /// invalid, replacement order, dirty bits, stamps and tree-PLRU bits
    /// at their initial values, the random-replacement RNG reseeded, and
    /// counters zeroed.
    ///
    /// The cost is proportional to the sets filled since the last reset,
    /// not to the capacity. A set changes state only through a fill of an
    /// empty way (a pristine set holds nothing to hit), and every such
    /// fill logs its set, so clearing the logged sets restores the rest.
    /// A log longer than `sets / 16` falls back to a full clear (the log
    /// stops growing there, so a long-lived cache never grows an unbounded
    /// one). Caches with 1-byte lines, where the all-ones address *is* the
    /// invalid tag and can "hit" an empty way without a fill, and 8-way
    /// caches, whose branchless probe keeps no log, always clear in full.
    pub fn reset(&mut self) {
        let logged = self
            .touched_cap
            .is_some_and(|cap| self.touched.len() <= cap);
        if !logged {
            self.tags.fill(INVALID);
            self.tags8.fill([INVALID; 8]);
            self.meta.fill(initial_order(8));
            self.dirty.fill(false);
            if !self.order.is_empty() {
                // Only packed caches (at most 16 ways) have order words.
                self.order.fill(initial_order(self.ways));
            }
            self.dirty_mask.fill(0);
            self.stamps.fill(0);
            self.policy.clear_all();
        } else {
            let touched = std::mem::take(&mut self.touched);
            for &set in &touched {
                self.clear_set(set as usize);
            }
            self.touched = touched;
        }
        self.touched.clear();
        self.clock = 0;
        self.policy.reseed();
        self.reset_stats();
    }

    /// Returns one set to its constructed state.
    fn clear_set(&mut self, set: usize) {
        let entries = set * self.ways..(set + 1) * self.ways;
        match self.mode {
            ProbeMode::Packed8 { .. } => unreachable!("8-way caches keep no fill log"),
            ProbeMode::Packed { .. } => {
                self.tags[entries].fill(INVALID);
                self.order[set] = initial_order(self.ways);
                self.dirty_mask[set] = 0;
            }
            ProbeMode::Stamped => {
                self.tags[entries.clone()].fill(INVALID);
                self.dirty[entries.clone()].fill(false);
                self.stamps[entries].fill(0);
            }
            ProbeMode::Policy => {
                self.tags[entries.clone()].fill(INVALID);
                self.dirty[entries].fill(false);
                self.policy.clear_set(set);
            }
            ProbeMode::Direct => {
                self.tags[set] = INVALID;
                self.dirty[set] = false;
            }
        }
    }

    /// Logs a fill of an empty way in `set` for [`Cache::reset`]. Kept
    /// out of line: the probe paths only branch to it.
    #[cold]
    #[inline(never)]
    fn log_fill(&mut self, set: usize) {
        if self
            .touched_cap
            .is_some_and(|cap| self.touched.len() <= cap)
        {
            self.touched.push(set as u32);
        }
    }

    /// Invalidates all lines and resets counters: a cold restart, the
    /// same state as [`Cache::reset`] (and [`Cache::new`]).
    pub fn flush(&mut self) {
        self.reset();
    }

    /// Counts a hit the caller knows changes no state (see
    /// [`crate::Hierarchy::fetch`]) without probing.
    #[inline]
    pub(crate) fn count_hit(&mut self, count: bool) {
        self.stats.accesses += u64::from(count);
    }

    /// Probes and updates the cache for `addr`. Returns `true` on a hit.
    /// When `count` is false the access updates state but not counters
    /// (warmup mode).
    #[inline]
    pub fn access(&mut self, addr: u64, count: bool) -> bool {
        self.access_rw(addr, false, count)
    }

    /// [`Cache::access`] with an explicit write flag: writes mark the line
    /// dirty (write-allocate, write-back), and evicting a dirty line
    /// counts a write-back.
    #[inline]
    pub fn access_rw(&mut self, addr: u64, is_write: bool, count: bool) -> bool {
        let line = addr >> self.line_shift;
        let set = (line & self.set_mask) as usize;
        self.stats.accesses += u64::from(count);
        match self.mode {
            ProbeMode::Packed8 { refresh } => {
                self.access_packed8(line, set, is_write, count, refresh)
            }
            ProbeMode::Packed { refresh } => {
                let base = set * self.ways;
                self.access_packed(line, set, base, is_write, count, refresh)
            }
            ProbeMode::Stamped => {
                let base = set * self.ways;
                self.access_stamped(line, set, base, is_write, count)
            }
            ProbeMode::Policy => {
                let base = set * self.ways;
                self.access_policy(line, set, base, is_write, count)
            }
            ProbeMode::Direct => self.access_direct(line, set, is_write, count),
        }
    }

    /// Direct-mapped: one tag compare; a miss replaces the set's line.
    #[inline]
    fn access_direct(&mut self, tag: u64, set: usize, is_write: bool, count: bool) -> bool {
        let old = self.tags[set];
        if old == tag {
            self.dirty[set] |= is_write;
            return true;
        }
        self.stats.misses += u64::from(count);
        if old == INVALID {
            self.log_fill(set);
        } else if self.dirty[set] && count {
            self.stats.writebacks += 1;
        }
        self.tags[set] = tag;
        self.dirty[set] = is_write;
        false
    }

    /// The 8-way specialization: the tag row is a `[u64; 8]` (one cache
    /// line), the recency order and dirty bits share one meta word, and
    /// the whole access is branchless — a hit and a miss are the same
    /// operation, "move the way at recency position `p` to the MRU
    /// front", with `p` the matched way's position on a hit and the LRU
    /// position (7) on a miss. Set indices are derived by masking with
    /// `len - 1` so the optimizer drops the bounds checks.
    #[inline(always)]
    fn access_packed8(
        &mut self,
        tag: u64,
        _set: usize,
        is_write: bool,
        count: bool,
        refresh: bool,
    ) -> bool {
        let set = (tag as usize) & (self.tags8.len() - 1);
        let row = &mut self.tags8[set];
        let mut found = 0u32;
        for (w, &t) in row.iter().enumerate() {
            found |= u32::from(t == tag) << w;
        }
        let mset = (tag as usize) & (self.meta.len() - 1);
        let meta = self.meta[mset];
        let hit = found != 0;
        let hit_mask = u32::from(hit).wrapping_neg();
        // Way index of the hit; 32 (garbage, masked out below) on a miss.
        let w = found.trailing_zeros();
        let ord = (meta & META_ORDER_MASK) as u32;
        // Branchless position-of-way-w: XOR broadcasts w into every
        // nibble, then the zero-nibble trick flags the (unique) match.
        // Flags above the lowest zero nibble can be borrow artifacts, so
        // only the lowest — which trailing_zeros selects — is trusted.
        let eq = ord ^ w.wrapping_mul(0x1111_1111);
        let zero_flags = eq.wrapping_sub(0x1111_1111) & !eq & 0x8888_8888;
        let p = ((zero_flags.trailing_zeros() >> 2) & hit_mask) | (7 & !hit_mask);
        let sh = 4 * p;
        let way = (ord >> sh) & 0xF;
        // Move-to-front: nibbles above p stay, 0..p shift up one slot.
        let low_mask = (1u32 << sh) - 1;
        let keep_mask = !(low_mask | (0xF << sh));
        let moved = (ord & keep_mask) | ((ord & low_mask) << 4) | way;
        // FIFO read/write hits leave the order untouched.
        let reorder_mask = u32::from(refresh || !hit).wrapping_neg();
        let new_ord = (moved & reorder_mask) | (ord & !reorder_mask);
        let dirty_shift = META_DIRTY_SHIFT + way;
        let way_slot = (way & 7) as usize;
        let missed = u64::from(!hit);
        let counted = u64::from(count);
        let valid_dirty = u64::from(row[way_slot] != INVALID) & (meta >> dirty_shift) & 1;
        self.stats.misses += missed & counted;
        self.stats.writebacks += missed & valid_dirty & counted;
        // A miss clears the victim's dirty bit before the install sets it.
        let clear = missed << dirty_shift;
        self.meta[mset] = (meta & !(META_ORDER_MASK | clear))
            | u64::from(new_ord)
            | (u64::from(is_write) << dirty_shift);
        // On a hit this rewrites the same tag; on a miss it installs.
        row[way_slot] = tag;
        hit
    }

    /// The packed LRU/FIFO fast path for `ways <= 16` (8-way sets take
    /// [`Cache::access_packed8`] instead): branchless tag scan,
    /// register-only order maintenance, no victim scan on misses.
    #[inline]
    fn access_packed(
        &mut self,
        tag: u64,
        set: usize,
        base: usize,
        is_write: bool,
        count: bool,
        refresh: bool,
    ) -> bool {
        let ways = self.ways;
        let set_tags = &self.tags[base..base + ways];
        let mut found = 0u32;
        for (w, &t) in set_tags.iter().enumerate() {
            found |= u32::from(t == tag) << w;
        }
        if found != 0 {
            let w = found.trailing_zeros() as usize;
            if refresh {
                let order = self.order[set];
                let p = nibble_position(order, w as u64, ways);
                if p != 0 {
                    // Nibbles above p stay, 0..p shift up one slot, w
                    // lands at the MRU front.
                    let low_mask = (1u64 << (4 * p)) - 1;
                    let keep_mask = !(low_mask | (0xF << (4 * p)));
                    self.order[set] = (order & keep_mask) | ((order & low_mask) << 4) | w as u64;
                }
            }
            if is_write {
                self.dirty_mask[set] |= 1u64 << w;
            }
            return true;
        }
        self.stats.misses += u64::from(count);
        let order = self.order[set];
        let victim = ((order >> (4 * (ways - 1))) & 0xF) as usize;
        self.order[set] = ((order << 4) & self.order_mask) | victim as u64;
        let slot = base + victim;
        let dirty = self.dirty_mask[set];
        let was_empty = self.tags[slot] == INVALID;
        let evict_dirty = !was_empty && (dirty >> victim) & 1 != 0;
        self.stats.writebacks += u64::from(evict_dirty && count);
        self.dirty_mask[set] = (dirty & !(1u64 << victim)) | (u64::from(is_write) << victim);
        self.tags[slot] = tag;
        if was_empty {
            self.log_fill(set);
        }
        false
    }

    /// LRU/FIFO above 16 ways: the original zipped tag+stamp scan.
    #[inline(never)]
    fn access_stamped(
        &mut self,
        tag: u64,
        set: usize,
        base: usize,
        is_write: bool,
        count: bool,
    ) -> bool {
        self.clock += 1;
        let tags = &self.tags[base..base + self.ways];
        let stamps = &self.stamps[base..base + self.ways];
        let mut stamp_victim = 0usize;
        let mut victim_stamp = u64::MAX;
        let mut hit_way = None;
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
        if let Some(w) = hit_way {
            if self.policy.refresh_on_hit() {
                self.stamps[base + w] = self.clock;
            }
            if is_write {
                self.dirty[base + w] = true;
            }
            return true;
        }
        if count {
            self.stats.misses += 1;
        }
        let slot = base + stamp_victim;
        if self.tags[slot] == INVALID {
            self.log_fill(set);
        } else if self.dirty[slot] && count {
            self.stats.writebacks += 1;
        }
        self.tags[slot] = tag;
        self.stamps[slot] = self.clock;
        self.dirty[slot] = is_write;
        false
    }

    /// Random / tree-PLRU: victims come from the policy; recency state
    /// lives in [`PolicyState`] (tree bits) or nowhere (random).
    #[inline(never)]
    fn access_policy(
        &mut self,
        tag: u64,
        set: usize,
        base: usize,
        is_write: bool,
        count: bool,
    ) -> bool {
        let ways = self.ways;
        if let Some(w) = self.tags[base..base + ways].iter().position(|&t| t == tag) {
            self.policy.touch(set, w, ways);
            if is_write {
                self.dirty[base + w] = true;
            }
            return true;
        }
        if count {
            self.stats.misses += 1;
        }
        let victim = self
            .policy
            .victim(set, ways)
            .expect("non-stamp policies select their own victims");
        let slot = base + victim;
        if self.tags[slot] == INVALID {
            self.log_fill(set);
        } else if self.dirty[slot] && count {
            self.stats.writebacks += 1;
        }
        self.tags[slot] = tag;
        self.dirty[slot] = is_write;
        self.policy.touch(set, victim, ways);
        false
    }

    /// Probes without updating replacement state or counters.
    #[inline]
    pub fn peek(&self, addr: u64) -> bool {
        let line = addr >> self.line_shift;
        let set = (line & self.set_mask) as usize;
        if !self.tags8.is_empty() {
            return self.tags8[set].contains(&line);
        }
        let base = set * self.ways;
        self.tags[base..base + self.ways].contains(&line)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> Cache {
        // 4 sets x 2 ways x 32B lines = 256B.
        Cache::new(CacheConfig::new(256, 2, 32, 1))
    }

    #[test]
    fn hit_after_fill() {
        let mut c = small();
        assert!(!c.access(0x100, true));
        assert!(c.access(0x100, true));
        assert!(c.access(0x11F, true), "same 32B line");
        assert!(!c.access(0x120, true), "next line");
        assert_eq!(c.stats().accesses, 4);
        assert_eq!(c.stats().misses, 2);
    }

    #[test]
    fn lru_evicts_oldest() {
        let mut c = small();
        // Three conflicting lines in a 2-way set: set index from bits 5-6.
        let a = 0x000; // set 0
        let b = 0x080; // 4 sets * 32B = 128B stride -> same set
        let d = 0x100;
        c.access(a, true);
        c.access(b, true);
        c.access(a, true); // a most recent
        c.access(d, true); // evicts b
        assert!(c.peek(a));
        assert!(!c.peek(b));
        assert!(c.peek(d));
    }

    #[test]
    fn direct_mapped_conflicts() {
        // 8 sets x 1 way x 32B = 256B direct-mapped.
        let mut c = Cache::new(CacheConfig::new(256, 1, 32, 1));
        c.access(0x000, true);
        assert!(!c.access(0x100, true), "conflicting line misses");
        assert!(!c.access(0x000, true), "original was evicted");
        assert_eq!(c.stats().misses, 3);
    }

    #[test]
    fn warmup_accesses_not_counted() {
        let mut c = small();
        c.access(0x40, false);
        assert_eq!(c.stats().accesses, 0);
        assert!(c.access(0x40, true), "warmed line hits");
        assert_eq!(c.stats().accesses, 1);
        assert_eq!(c.stats().misses, 0);
    }

    #[test]
    fn flush_clears_state() {
        let mut c = small();
        c.access(0x40, true);
        c.flush();
        assert!(!c.peek(0x40));
        assert_eq!(c.stats().accesses, 0);
    }

    #[test]
    fn miss_rate_pct() {
        let s = CacheStats {
            accesses: 200,
            misses: 50,
            writebacks: 0,
        };
        assert_eq!(s.miss_rate_pct(), 25.0);
        assert_eq!(CacheStats::default().miss_rate_pct(), 0.0);
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn bad_line_size_panics() {
        CacheConfig::new(256, 2, 33, 1);
    }

    #[test]
    fn table1_shapes_valid() {
        // The paper's Table I caches must construct.
        CacheConfig::new(32 << 10, 32, 32, 1);
        CacheConfig::new(2 << 20, 1, 32, 10);
        CacheConfig::new(16 << 20, 1, 32, 30);
    }
}

impl sampsim_util::codec::Encode for CacheStats {
    fn encode(&self, enc: &mut sampsim_util::codec::Encoder) {
        enc.put_u64(self.accesses);
        enc.put_u64(self.misses);
        enc.put_u64(self.writebacks);
    }
}

impl sampsim_util::codec::Decode for CacheStats {
    fn decode(
        dec: &mut sampsim_util::codec::Decoder<'_>,
    ) -> Result<Self, sampsim_util::codec::DecodeError> {
        Ok(Self {
            accesses: dec.take_u64()?,
            misses: dec.take_u64()?,
            writebacks: dec.take_u64()?,
        })
    }
}

#[cfg(test)]
mod policy_tests {
    use super::*;
    use crate::policy::ReplacementPolicy;

    fn filled(policy: ReplacementPolicy) -> Cache {
        // 2 sets x 4 ways x 32B = 256B.
        let mut c = Cache::new(CacheConfig::new(256, 4, 32, 1).with_policy(policy));
        // Fill set 0 with lines a..d (set stride = 64B).
        for i in 0..4u64 {
            c.access(i * 64, true);
        }
        c
    }

    #[test]
    fn fifo_does_not_refresh_on_hit() {
        let mut c = filled(ReplacementPolicy::Fifo);
        // Re-touch the oldest line; FIFO must still evict it first.
        c.access(0, true);
        c.access(4 * 64, true); // new conflicting line
        assert!(!c.peek(0), "FIFO evicts insertion-oldest despite the hit");
        // LRU, in contrast, protects the re-touched line.
        let mut l = filled(ReplacementPolicy::Lru);
        l.access(0, true);
        l.access(4 * 64, true);
        assert!(l.peek(0), "LRU protects the recently used line");
    }

    #[test]
    fn random_policy_works_and_hits_resident_lines() {
        let mut c = filled(ReplacementPolicy::Random);
        c.access(0, true); // exercising the random-eviction path must not panic
        let s = c.stats();
        assert!(s.accesses >= 4);
    }

    #[test]
    fn plru_behaves_like_lru_on_sequential_fill() {
        let mut c = filled(ReplacementPolicy::TreePlru);
        // Next conflicting fill should evict one of the earliest ways,
        // never the most recently inserted one.
        c.access(4 * 64, true);
        assert!(c.peek(3 * 64), "most recent line survives under PLRU");
    }

    #[test]
    fn flushed_cache_replays_like_a_fresh_one_under_every_policy() {
        // Random replacement draws victims from an RNG; a flush must
        // rewind it, or the flushed cache evicts differently.
        for policy in [
            ReplacementPolicy::Lru,
            ReplacementPolicy::Fifo,
            ReplacementPolicy::Random,
            ReplacementPolicy::TreePlru,
        ] {
            let config = CacheConfig::new(4096, 4, 32, 1).with_policy(policy);
            let stream = |i: u64| (i.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 40) & 0x3FFF;
            let mut flushed = Cache::new(config);
            for i in 0..4_000u64 {
                flushed.access_rw(stream(i + 7_919), i % 3 == 0, true);
            }
            flushed.flush();
            let mut fresh = Cache::new(config);
            for i in 0..4_000u64 {
                let (addr, write) = (stream(i), i % 5 == 0);
                assert_eq!(
                    flushed.access_rw(addr, write, true),
                    fresh.access_rw(addr, write, true),
                    "{policy:?}: access #{i}"
                );
            }
            assert_eq!(flushed.stats(), fresh.stats(), "{policy:?}");
            assert!(fresh.stats().misses > 0 && fresh.stats().writebacks > 0);
        }
    }

    #[test]
    fn policies_differ_on_scan_workload() {
        // A cyclic scan of 5 lines over a 4-way set: LRU thrashes (0%
        // hits); random replacement retains some lines.
        let run = |policy| {
            let mut c = Cache::new(CacheConfig::new(256, 4, 32, 1).with_policy(policy));
            for _ in 0..200 {
                for i in 0..5u64 {
                    c.access(i * 64, true);
                }
            }
            c.stats()
        };
        let lru = run(ReplacementPolicy::Lru);
        let random = run(ReplacementPolicy::Random);
        assert_eq!(lru.accesses - lru.misses, 0, "LRU thrashes a cyclic scan");
        assert!(
            random.misses < random.accesses,
            "random replacement gets some hits on a cyclic scan"
        );
    }
}

#[cfg(test)]
mod writeback_tests {
    use super::*;

    #[test]
    fn dirty_eviction_counts_writeback() {
        // 1 set x 2 ways x 32B.
        let mut c = Cache::new(CacheConfig::new(64, 2, 32, 1));
        c.access_rw(0x000, true, true); // dirty fill
        c.access_rw(0x040, false, true); // clean fill
        assert_eq!(c.stats().writebacks, 0);
        c.access_rw(0x080, false, true); // evicts dirty 0x000
        assert_eq!(c.stats().writebacks, 1);
        c.access_rw(0x0C0, false, true); // evicts clean 0x040
        assert_eq!(c.stats().writebacks, 1);
    }

    #[test]
    fn write_hit_marks_dirty() {
        let mut c = Cache::new(CacheConfig::new(64, 2, 32, 1));
        c.access_rw(0x000, false, true); // clean fill
        c.access_rw(0x000, true, true); // write hit -> dirty
        c.access_rw(0x040, false, true);
        c.access_rw(0x080, false, true); // evicts 0x000 (dirty)
        assert_eq!(c.stats().writebacks, 1);
    }

    #[test]
    fn warmup_evictions_not_counted() {
        let mut c = Cache::new(CacheConfig::new(64, 2, 32, 1));
        c.access_rw(0x000, true, false);
        c.access_rw(0x040, true, false);
        c.access_rw(0x080, true, false); // dirty eviction in warmup
        assert_eq!(c.stats().writebacks, 0);
    }
}
