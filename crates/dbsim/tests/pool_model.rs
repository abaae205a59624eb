//! Differential test: `ClockCache` against the `HashMap` + `BTreeSet`
//! cache it replaced.
//!
//! [`Model`] is the pre-index implementation kept as a reference. Both are
//! driven in lock-step over seeded operation streams; every return value —
//! which carries the victim of every eviction — and every observable count
//! must agree after every step, so a page table that lost a frame or a
//! hand that moved differently shows up at the next eviction.

use kairos_dbsim::{CacheStats, ClockCache, PageId, PageRange, Touch};
use kairos_types::SplitMix64;
use std::collections::{BTreeSet, HashMap};

#[derive(Clone, Copy)]
struct Frame {
    page: PageId,
    refbit: bool,
    dirty: bool,
}

struct Model {
    capacity: usize,
    frames: Vec<Frame>,
    map: HashMap<PageId, u32>,
    hand: usize,
    dirty: BTreeSet<PageId>,
    stats: CacheStats,
}

impl Model {
    fn new(capacity: usize) -> Model {
        Model {
            capacity,
            frames: Vec::new(),
            map: HashMap::new(),
            hand: 0,
            dirty: BTreeSet::new(),
            stats: CacheStats::default(),
        }
    }

    fn touch(&mut self, page: PageId, make_dirty: bool) -> Touch {
        if let Some(&idx) = self.map.get(&page) {
            let f = &mut self.frames[idx as usize];
            f.refbit = true;
            if make_dirty && !f.dirty {
                f.dirty = true;
                self.dirty.insert(page);
            }
            self.stats.hits += 1;
            return Touch::Hit;
        }
        self.stats.misses += 1;
        let evicted = self.insert_new(page, make_dirty);
        Touch::Miss { evicted }
    }

    fn insert_new(&mut self, page: PageId, dirty: bool) -> Option<(PageId, bool)> {
        if self.frames.len() < self.capacity {
            let idx = self.frames.len() as u32;
            self.frames.push(Frame {
                page,
                refbit: false,
                dirty,
            });
            self.map.insert(page, idx);
            if dirty {
                self.dirty.insert(page);
            }
            return None;
        }
        let victim_idx = loop {
            let i = self.hand;
            self.hand = (self.hand + 1) % self.frames.len();
            let f = &mut self.frames[i];
            if f.refbit {
                f.refbit = false;
            } else {
                break i;
            }
        };
        let victim = self.frames[victim_idx];
        self.map.remove(&victim.page);
        if victim.dirty {
            self.dirty.remove(&victim.page);
            self.stats.dirty_evictions += 1;
        }
        self.stats.evictions += 1;
        self.frames[victim_idx] = Frame {
            page,
            refbit: false,
            dirty,
        };
        self.map.insert(page, victim_idx as u32);
        if dirty {
            self.dirty.insert(page);
        }
        Some((victim.page, victim.dirty))
    }

    fn insert(&mut self, page: PageId, dirty: bool) -> Option<(PageId, bool)> {
        if let Some(&idx) = self.map.get(&page) {
            let f = &mut self.frames[idx as usize];
            f.refbit = true;
            if dirty && !f.dirty {
                f.dirty = true;
                self.dirty.insert(page);
            }
            return None;
        }
        self.insert_new(page, dirty)
    }

    /// Insert clean pages along `run` while each is absent and a frame is
    /// free; how many were inserted.
    fn insert_run(&mut self, run: PageRange) -> u64 {
        let mut done = 0;
        while done < run.len
            && self.frames.len() < self.capacity
            && !self.map.contains_key(&run.page(done))
        {
            self.insert_new(run.page(done), false);
            done += 1;
        }
        done
    }

    fn mark_clean(&mut self, page: PageId) {
        if self.dirty.remove(&page) {
            if let Some(&idx) = self.map.get(&page) {
                self.frames[idx as usize].dirty = false;
            }
        }
    }

    fn take_dirty_batch(&mut self, n: usize) -> Vec<PageId> {
        let batch: Vec<PageId> = self.dirty.iter().take(n).copied().collect();
        for &p in &batch {
            self.mark_clean(p);
        }
        batch
    }
}

/// Page-table chunk size the id layouts below are built around; the test
/// stays valid (only less pointed) if the real constant changes.
const CHUNK: u64 = 1024;
/// Ids past every `draw_page` run: always absent, each used once.
const FRESH_BASE: u64 = 40 * CHUNK + 5;

/// Ids clustered in short runs around `runs` chunk-spread bases, one of
/// them straddling a chunk boundary, so a small cache still sees hits and
/// several chunks hold residents.
fn draw_page(rng: &mut SplitMix64, runs: u64, run_len: u64) -> PageId {
    let run = rng.next_range(runs);
    let base = match run {
        0 => 0,
        1 => CHUNK - run_len / 2,
        r => r * (2 * CHUNK + 77),
    };
    PageId(base + rng.next_range(run_len))
}

fn check(real: &ClockCache, model: &Model, pages: &[PageId], at: &str) {
    assert_eq!(real.resident(), model.frames.len(), "{at}: resident");
    assert_eq!(real.dirty_count(), model.dirty.len(), "{at}: dirty count");
    assert_eq!(real.stats(), model.stats, "{at}: stats");
    for &p in pages {
        assert_eq!(
            real.contains(p),
            model.map.contains_key(&p),
            "{at}: {p:?} resident"
        );
        assert_eq!(
            real.is_dirty(p),
            model.dirty.contains(&p),
            "{at}: {p:?} dirty"
        );
    }
}

#[test]
fn clock_cache_matches_the_hashed_model_step_for_step() {
    let mut rng = SplitMix64::from_env(0xD1FF);
    for case in 0..48 {
        // A one-frame pool, whole words of reference bits and one frame
        // past a word first, then sizes that mostly end a word part-way.
        let capacity = match case {
            0 => 1,
            1 => 64,
            2 => 65,
            3 => 128,
            _ => 1 + rng.next_range(300) as usize,
        };
        let runs = 2 + rng.next_range(5);
        let run_len = 8 + rng.next_range(3 * capacity as u64 / 2 + 8);
        let mut real = ClockCache::new(capacity);
        let mut model = Model::new(capacity);
        let mut seen: Vec<PageId> = Vec::new();
        for step in 0..1200 {
            let at = format!("case {case} (capacity {capacity}) step {step}");
            let page = draw_page(&mut rng, runs, run_len);
            seen.push(page);
            match rng.next_range(92) {
                0..=54 => {
                    let dirty = rng.next_range(3) == 0;
                    assert_eq!(
                        real.touch(page, dirty),
                        model.touch(page, dirty),
                        "{at}: touch"
                    );
                }
                55..=69 => {
                    let dirty = rng.next_range(2) == 0;
                    assert_eq!(
                        real.insert(page, dirty),
                        model.insert(page, dirty),
                        "{at}: insert"
                    );
                }
                70..=77 => {
                    real.mark_clean(page);
                    model.mark_clean(page);
                }
                78..=85 => {
                    let n = rng.next_range(capacity as u64 + 2) as usize;
                    assert_eq!(
                        real.take_dirty_batch(n),
                        model.take_dirty_batch(n),
                        "{at}: dirty batch of {n}"
                    );
                }
                // A prewarm: the run path, then page by page from where
                // it stopped, as `DbmsInstance::prewarm_pages` does.
                86..=89 => {
                    let run = PageRange::new(page, 1 + rng.next_range(2 * run_len));
                    let done = real.insert_run(run);
                    assert_eq!(done, model.insert_run(run), "{at}: run of {}", run.len);
                    for i in done..run.len {
                        let p = run.page(i);
                        assert_eq!(real.insert(p, false), model.insert(p, false), "{at}: {p:?}");
                    }
                    seen.extend((0..run.len).map(|i| run.page(i)));
                }
                // Every reference bit set, then a miss: the sweep clears
                // them all and comes back to where it started.
                _ => {
                    let resident: Vec<PageId> = model.frames.iter().map(|f| f.page).collect();
                    for &p in &resident {
                        assert_eq!(real.touch(p, false), Touch::Hit, "{at}: {p:?}");
                        model.touch(p, false);
                    }
                    let fresh = PageId(FRESH_BASE + step);
                    assert_eq!(
                        real.touch(fresh, false),
                        model.touch(fresh, false),
                        "{at}: miss after every bit was set"
                    );
                    seen.push(fresh);
                }
            }
            // Counts every step; the per-page scan of everything ever
            // drawn only now and then (it is quadratic otherwise).
            let scan = if step % 50 == 49 {
                &seen[..]
            } else {
                &seen[seen.len() - 1..]
            };
            check(&real, &model, scan, &at);
        }
    }
}

#[test]
#[should_panic(expected = "was not handed out by a PageAllocator")]
fn an_id_far_past_any_allocation_is_refused() {
    ClockCache::new(4).touch(PageId(1 << 40), false);
}

/// The dirty bitmap must not be sized from the stray id before the refusal.
#[test]
#[should_panic(expected = "was not handed out by a PageAllocator")]
fn a_dirty_touch_of_a_far_id_is_refused_too() {
    ClockCache::new(4).touch(PageId(1 << 40), true);
}

#[test]
#[should_panic(expected = "was not handed out by a PageAllocator")]
fn a_dirty_insert_of_a_far_id_is_refused_too() {
    ClockCache::new(4).insert(PageId(1 << 40), true);
}

#[test]
fn absent_ids_of_any_size_read_as_absent() {
    let mut cache = ClockCache::new(4);
    cache.touch(PageId(3), true);
    for far in [PageId(1 << 20), PageId(1 << 40), PageId(u64::MAX)] {
        assert!(!cache.contains(far));
        assert!(!cache.is_dirty(far));
        cache.mark_clean(far);
    }
    assert_eq!((cache.resident(), cache.dirty_count()), (1, 1));
}
