//! Page-granular clock (second-chance) cache.
//!
//! Used twice in the simulator: as the DBMS buffer pool (with dirty-page
//! tracking for the flusher) and, in the PostgreSQL-style configuration, as
//! the OS file cache tier (clean pages only).
//!
//! The clock algorithm approximates LRU the way InnoDB/Postgres do, and its
//! eviction dynamics are what the paper's *buffer-pool gauging* (§3.1)
//! exploits: the probe table's pages compete with the user working set, and
//! the moment the combined footprint exceeds capacity, user pages start
//! getting evicted and re-read — visible as physical reads.

use crate::pages::{PageId, PageRange};

/// Result of touching a page in the cache.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Touch {
    /// Page was resident.
    Hit,
    /// Page was inserted; if a victim was evicted it is reported along with
    /// whether it was dirty (a dirty eviction forces a foreground write).
    Miss { evicted: Option<(PageId, bool)> },
}

/// Cumulative cache counters.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct CacheStats {
    pub hits: u64,
    pub misses: u64,
    pub evictions: u64,
    pub dirty_evictions: u64,
}

/// Pages per page-table chunk: one 4 KiB block of frame indices.
const CHUNK_PAGES: usize = 1024;
/// Exclusive bound on page ids. A [`crate::pages::PageAllocator`] hands ids
/// out densely from 0, so 2^32 pages (64 TiB at 16 KiB) is far past any
/// simulated instance; an id beyond it is a caller bug, and refusing it
/// keeps a stray id from sizing the chunk directory.
const PAGE_ID_LIMIT: u64 = 1 << 32;
const ABSENT: u32 = u32::MAX;

/// Frame index of each page of a chunk, or [`ABSENT`].
type Chunk = [u32; CHUNK_PAGES];

/// Page id → frame index as a two-level dense table: a directory with one
/// entry per [`CHUNK_PAGES`] ids up to the highest id ever resident, and a
/// chunk allocated when its first page becomes resident. Eviction leaves
/// an emptied chunk in place: its pages tend to come back.
#[derive(Debug, Default)]
struct PageTable {
    chunks: Vec<Option<Box<Chunk>>>,
}

fn split(page: PageId) -> (usize, usize) {
    let id = page.0 as usize;
    (id / CHUNK_PAGES, id % CHUNK_PAGES)
}

impl PageTable {
    fn get(&self, page: PageId) -> Option<u32> {
        let (c, slot) = split(page);
        let idx = self.chunks.get(c)?.as_ref()?[slot];
        (idx != ABSENT).then_some(idx)
    }

    /// Chunk `c`, allocated (all [`ABSENT`]) if it never held a page.
    fn chunk_mut(&mut self, c: usize) -> &mut Chunk {
        if c >= self.chunks.len() {
            self.chunks.resize_with(c + 1, || None);
        }
        self.chunks[c].get_or_insert_with(|| Box::new([ABSENT; CHUNK_PAGES]))
    }

    /// Point `page` at frame `idx`, whether or not it was resident.
    fn set(&mut self, page: PageId, idx: u32) {
        let (c, slot) = split(page);
        self.chunk_mut(c)[slot] = idx;
    }

    /// Forget a resident page.
    fn remove(&mut self, page: PageId) {
        let (c, slot) = split(page);
        self.chunks[c]
            .as_mut()
            .expect("a resident page has a chunk")[slot] = ABSENT;
    }
}

/// The dirty set as a bitmap over page ids (one bit per page up to the
/// highest id ever dirtied) with a summary level — one bit per bitmap word
/// — so the flusher's ascending walk skips clean stretches 4,096 pages at
/// a time.
#[derive(Debug, Default)]
struct DirtyBits {
    words: Vec<u64>,
    summary: Vec<u64>,
    count: usize,
}

impl DirtyBits {
    fn contains(&self, page: PageId) -> bool {
        let w = (page.0 / 64) as usize;
        self.words
            .get(w)
            .is_some_and(|x| x >> (page.0 % 64) & 1 == 1)
    }

    /// Set the bit of a page known to be clean.
    fn insert(&mut self, page: PageId) {
        let w = (page.0 / 64) as usize;
        if w >= self.words.len() {
            self.words.resize(w + 1, 0);
            self.summary.resize(w / 64 + 1, 0);
        }
        self.words[w] |= 1 << (page.0 % 64);
        self.summary[w / 64] |= 1 << (w % 64);
        self.count += 1;
    }

    /// Clear the bit of a page known to be dirty.
    fn remove(&mut self, page: PageId) {
        let w = (page.0 / 64) as usize;
        self.words[w] &= !(1 << (page.0 % 64));
        if self.words[w] == 0 {
            self.summary[w / 64] &= !(1 << (w % 64));
        }
        self.count -= 1;
    }

    /// Lowest dirty page with id ≥ `from`.
    fn next_from(&self, from: u64) -> Option<PageId> {
        let w = (from / 64) as usize;
        let rest = self.words.get(w)? & (!0 << (from % 64));
        if rest != 0 {
            return Some(PageId(w as u64 * 64 + u64::from(rest.trailing_zeros())));
        }
        // Next non-empty word, through the summary.
        let mut s = (w + 1) / 64;
        let mut bits = self.summary.get(s)? & (!0 << ((w + 1) % 64));
        while bits == 0 {
            s += 1;
            bits = *self.summary.get(s)?;
        }
        let w = s * 64 + bits.trailing_zeros() as usize;
        let bit = u64::from(self.words[w].trailing_zeros());
        Some(PageId(w as u64 * 64 + bit))
    }
}

/// Fixed-capacity clock cache with optional dirty tracking.
///
/// Indexed by page id, not hashed: ids must come from a
/// [`crate::pages::PageAllocator`] (dense from 0). Memory is 4 B per frame
/// (its page id as a `u32`) and one reference bit per frame; 4 B per page
/// of each 1,024-page chunk that has held a resident page and 8 B of
/// directory per chunk of id space; and one dirty bit per page id up to
/// the highest id dirtied — the only record of which pages are dirty.
/// Nothing grows with an unfilled `capacity` or with allocated but
/// untouched pages. Making an id ≥ 2^32 resident panics.
#[derive(Debug)]
pub struct ClockCache {
    capacity: usize,
    /// Page id held by each frame.
    frames: Vec<u32>,
    /// Reference bit of each frame, 64 a word; bits past the last frame stay clear.
    refbits: Vec<u64>,
    table: PageTable,
    hand: usize,
    /// Dirty pages, walked in page-id order — the flusher's elevator queue.
    dirty: DirtyBits,
    stats: CacheStats,
}

impl ClockCache {
    /// Create a cache holding `capacity` pages.
    ///
    /// # Panics
    /// Panics if `capacity` is zero or does not fit a frame index.
    pub fn new(capacity: usize) -> ClockCache {
        assert!(capacity > 0, "cache capacity must be positive");
        assert!(capacity < ABSENT as usize, "cache capacity too large");
        // Frames grow on demand: a pool sized in the hundreds of
        // thousands of frames is often never filled.
        ClockCache {
            capacity,
            frames: Vec::new(),
            refbits: Vec::new(),
            table: PageTable::default(),
            hand: 0,
            dirty: DirtyBits::default(),
            stats: CacheStats::default(),
        }
    }

    pub fn capacity(&self) -> usize {
        self.capacity
    }

    pub fn resident(&self) -> usize {
        self.frames.len()
    }

    pub fn dirty_count(&self) -> usize {
        self.dirty.count
    }

    /// Fraction of capacity occupied by dirty pages.
    pub fn dirty_fraction(&self) -> f64 {
        self.dirty.count as f64 / self.capacity as f64
    }

    pub fn stats(&self) -> CacheStats {
        self.stats
    }

    pub fn contains(&self, page: PageId) -> bool {
        self.table.get(page).is_some()
    }

    pub fn is_dirty(&self, page: PageId) -> bool {
        self.dirty.contains(page)
    }

    /// Access `page`, inserting it if absent; `make_dirty` marks it dirty
    /// (an update). Returns whether this was a hit and any eviction.
    pub fn touch(&mut self, page: PageId, make_dirty: bool) -> Touch {
        if self.rereference(page, make_dirty) {
            self.stats.hits += 1;
            return Touch::Hit;
        }
        self.stats.misses += 1;
        let evicted = self.insert_new(page, make_dirty);
        Touch::Miss { evicted }
    }

    /// If `page` is resident, set its reference bit (and dirty it on
    /// request) and return true.
    fn rereference(&mut self, page: PageId, make_dirty: bool) -> bool {
        let Some(idx) = self.table.get(page) else {
            return false;
        };
        self.refbits[idx as usize / 64] |= 1 << (idx % 64);
        if make_dirty && !self.dirty.contains(page) {
            self.dirty.insert(page);
        }
        true
    }

    /// Insert a page known to be absent. Returns the eviction victim, if
    /// any, with its dirty flag.
    fn insert_new(&mut self, page: PageId, dirty: bool) -> Option<(PageId, bool)> {
        debug_assert!(!self.contains(page));
        // Fresh pages enter cold (refbit clear), InnoDB-midpoint style:
        // a page must be re-referenced to survive a sweep, which keeps
        // one-shot scans from polluting the pool.
        let free = self.insert_run(PageRange::new(page, 1)) == 1;
        if dirty {
            self.dirty.insert(page);
        }
        if free {
            return None;
        }
        let idx = self.sweep();
        let victim = PageId(u64::from(self.frames[idx]));
        self.frames[idx] = page.0 as u32;
        self.table.remove(victim);
        let was_dirty = self.dirty.contains(victim);
        if was_dirty {
            self.dirty.remove(victim);
            self.stats.dirty_evictions += 1;
        }
        self.stats.evictions += 1;
        self.table.set(page, idx as u32);
        Some((victim, was_dirty))
    }

    /// Clock sweep over a full cache: from the hand, clear set reference
    /// bits until a frame whose bit is clear, which is the victim; the
    /// hand stops one past it. A word at a time: the bits the hand passes
    /// are cleared together, and a sweep that finds every bit set clears
    /// them all and comes back to the frame it started at.
    fn sweep(&mut self) -> usize {
        let n = self.frames.len();
        let mut at = self.hand;
        loop {
            let w = at / 64;
            let frames_in_word = (n - w * 64).min(64);
            let valid = !0u64 >> (64 - frames_in_word);
            let from = !0u64 << (at % 64);
            let clear = !self.refbits[w] & valid & from;
            if clear != 0 {
                let bit = clear.trailing_zeros() as usize;
                // Bits from the hand up to the victim's, which is clear.
                self.refbits[w] &= !(from & (!0u64 >> (63 - bit)));
                let victim = w * 64 + bit;
                self.hand = (victim + 1) % n;
                return victim;
            }
            self.refbits[w] &= !from;
            at = (w + 1) * 64;
            if at >= n {
                at = 0;
            }
        }
    }

    /// Insert a freshly-allocated page (no read required, so no miss is
    /// counted). If the page is somehow already resident it is simply
    /// (re)marked. Returns the eviction victim, if any.
    pub fn insert(&mut self, page: PageId, dirty: bool) -> Option<(PageId, bool)> {
        if self.rereference(page, dirty) {
            return None;
        }
        self.insert_new(page, dirty)
    }

    /// [`ClockCache::insert`] of clean pages along `run`, in order, while
    /// each is absent and a frame is free: one page-table chunk lookup per
    /// 1,024 pages and one extension of the frames. Returns how many were
    /// inserted; the caller inserts the rest page by page.
    pub fn insert_run(&mut self, run: PageRange) -> u64 {
        // The one way in: refuse a stray id before the dirty bitmap or the
        // chunk directory is sized from it.
        assert!(
            run.start.0.saturating_add(run.len) <= PAGE_ID_LIMIT,
            "{run:?} was not handed out by a PageAllocator"
        );
        let mut done = 0;
        while done < run.len && self.frames.len() < self.capacity {
            let first = run.start.0 + done;
            let (c, slot) = split(PageId(first));
            let n = (CHUNK_PAGES - slot)
                .min((run.len - done) as usize)
                .min(self.capacity - self.frames.len());
            let base = self.frames.len() as u32;
            let slots = &mut self.table.chunk_mut(c)[slot..slot + n];
            let absent = slots.iter().position(|&f| f != ABSENT).unwrap_or(n);
            for (idx, s) in (base..).zip(&mut slots[..absent]) {
                *s = idx;
            }
            // Fresh frames enter with clear reference bits.
            self.frames
                .extend((first..first + absent as u64).map(|page| page as u32));
            self.refbits.resize(self.frames.len().div_ceil(64), 0);
            done += absent as u64;
            if absent < n {
                break;
            }
        }
        done
    }

    /// Mark a page clean (after write-back). No-op if absent or clean.
    pub fn mark_clean(&mut self, page: PageId) {
        if self.dirty.contains(page) {
            debug_assert!(self.contains(page), "a dirty page is resident");
            self.dirty.remove(page);
        }
    }

    /// Take up to `n` dirty pages in sorted (page-id) order — the elevator
    /// batch for write-back. The pages are marked clean immediately; the
    /// caller charges the disk for them.
    pub fn take_dirty_batch(&mut self, n: usize) -> Vec<PageId> {
        let mut batch = Vec::with_capacity(n.min(self.dirty.count));
        let mut from = 0;
        while batch.len() < n {
            let Some(page) = self.dirty.next_from(from) else {
                break;
            };
            self.dirty.remove(page);
            batch.push(page);
            from = page.0 + 1;
        }
        batch
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn p(i: u64) -> PageId {
        PageId(i)
    }

    #[test]
    fn hit_and_miss_accounting() {
        let mut c = ClockCache::new(4);
        assert!(matches!(c.touch(p(1), false), Touch::Miss { .. }));
        assert_eq!(c.touch(p(1), false), Touch::Hit);
        assert_eq!(c.stats().hits, 1);
        assert_eq!(c.stats().misses, 1);
    }

    #[test]
    fn never_exceeds_capacity() {
        let mut c = ClockCache::new(3);
        for i in 0..100 {
            c.touch(p(i), i % 2 == 0);
            assert!(c.resident() <= 3);
            assert!(c.dirty_count() <= c.resident());
        }
    }

    #[test]
    fn eviction_reports_victim() {
        let mut c = ClockCache::new(2);
        c.touch(p(1), false);
        c.touch(p(2), false);
        let t = c.touch(p(3), false);
        match t {
            Touch::Miss {
                evicted: Some((victim, dirty)),
            } => {
                assert!(victim == p(1) || victim == p(2));
                assert!(!dirty);
            }
            other => panic!("expected eviction, got {other:?}"),
        }
    }

    #[test]
    fn clock_gives_second_chance_to_hot_page() {
        let mut c = ClockCache::new(2);
        c.touch(p(1), false);
        c.touch(p(2), false);
        // Re-touch page 1 so its refbit is set; inserting page 3 must evict 2.
        c.touch(p(1), false);
        c.touch(p(3), false);
        assert!(c.contains(p(1)), "hot page should survive");
        assert!(!c.contains(p(2)));
    }

    #[test]
    fn dirty_tracking_and_batch_is_sorted() {
        let mut c = ClockCache::new(10);
        for i in [5u64, 1, 9, 3] {
            c.touch(p(i), true);
        }
        assert_eq!(c.dirty_count(), 4);
        let batch = c.take_dirty_batch(3);
        assert_eq!(batch, vec![p(1), p(3), p(5)]);
        assert_eq!(c.dirty_count(), 1);
        assert!(c.is_dirty(p(9)));
        // Flushed pages stay resident, just clean.
        assert!(c.contains(p(1)));
    }

    #[test]
    fn dirty_eviction_counted() {
        let mut c = ClockCache::new(1);
        c.touch(p(1), true);
        let t = c.touch(p(2), false);
        assert!(matches!(t, Touch::Miss { evicted: Some((page, true)) } if page == p(1)));
        assert_eq!(c.stats().dirty_evictions, 1);
        assert_eq!(c.dirty_count(), 0);
    }

    #[test]
    fn mark_clean_idempotent() {
        let mut c = ClockCache::new(2);
        c.touch(p(1), true);
        c.mark_clean(p(1));
        c.mark_clean(p(1));
        assert_eq!(c.dirty_count(), 0);
        assert!(c.contains(p(1)));
    }

    #[test]
    fn insert_counts_no_miss_but_can_evict() {
        let mut c = ClockCache::new(1);
        c.insert(p(1), true);
        assert_eq!(c.stats().misses, 0);
        assert!(c.is_dirty(p(1)));
        let evicted = c.insert(p(2), false);
        assert!(matches!(evicted, Some((page, true)) if page == p(1)));
        assert_eq!(c.stats().misses, 0);
        // Re-inserting a resident page only updates flags.
        assert!(c.insert(p(2), true).is_none());
        assert!(c.is_dirty(p(2)));
    }

    #[test]
    fn working_set_within_capacity_has_no_steady_state_misses() {
        let mut c = ClockCache::new(100);
        // Warm up a 50-page working set, then access it repeatedly.
        for round in 0..20 {
            for i in 0..50 {
                let t = c.touch(p(i), false);
                if round > 0 {
                    assert_eq!(t, Touch::Hit, "round {round}, page {i}");
                }
            }
        }
    }

    #[test]
    fn oversized_working_set_keeps_missing() {
        let mut c = ClockCache::new(10);
        for _ in 0..5 {
            for i in 0..20 {
                c.touch(p(i), false);
            }
        }
        // Sequential sweep over 2x capacity thrashes a clock cache.
        assert!(c.stats().misses > 50);
    }
}
