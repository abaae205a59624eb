//! The DBMS instance: databases, tables, buffer management, logging,
//! flushing and per-tick transaction processing.
//!
//! One [`DbmsInstance`] hosts any number of logical databases — the
//! consolidated configuration Kairos recommends ("each physical node runs a
//! single DBMS instance that processes transactions on behalf of multiple
//! databases", §1). The DB-in-VM / DB-per-process baselines instead put one
//! database in each of many instances on the same
//! [`crate::host::Host`].
//!
//! ### Tick protocol
//! The host mediates shared devices, so a tick happens in two phases:
//! [`DbmsInstance::prepare_tick`] turns offered work into device demand
//! (buffer-pool touches, dirty marking, log appends), and
//! [`DbmsInstance::complete_tick`] applies what the devices actually
//! granted (write-backs, admission fractions, latency accounting).
//!
//! ### Update coalescing
//! Row updates are applied with an exact-expectation model: `n` uniform
//! updates over a `P`-page working set touch `D = P(1-(1-1/P)^n)` distinct
//! pages, of which only the currently-clean ones create new write-back
//! work. This is the mechanism behind the paper's non-linear disk model
//! (Fig 4): higher update rates re-dirty the same pages (sub-linear I/O
//! growth), larger working sets spread updates across more pages
//! (super-linear I/O growth).

use crate::buffer::{ClockCache, Touch};
use crate::flusher::{Flusher, FlusherConfig};
use crate::pages::{DatabaseId, PageAllocator, PageId, PageRange, TableId};
use crate::stats::InstanceStats;
use crate::wal::{LogManager, WalConfig};
use kairos_types::{Bytes, KairosError, Result};
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

/// Maximum explicit page touches sampled per access spec per tick; heavier
/// traffic is represented by weighted samples.
const READ_SAMPLE_CAP: usize = 2048;
/// CPU cost of scanning one page, in standardized core-seconds.
const SCAN_CPU_PER_PAGE: f64 = 3e-6;

/// Static configuration of a DBMS instance.
#[derive(Debug, Clone)]
pub struct DbmsConfig {
    /// Buffer pool size.
    pub buffer_pool: Bytes,
    /// Page size (16 KiB matches InnoDB).
    pub page_size: Bytes,
    /// `true` = O_DIRECT (MySQL-style): no OS file-cache tier.
    pub direct_io: bool,
    /// OS file-cache size when `direct_io` is false (PostgreSQL-style).
    pub os_cache: Bytes,
    pub wal: WalConfig,
    pub flusher: FlusherConfig,
    /// Resident memory of the DBMS binary itself (§7.4: ≈190 MB for
    /// MySQL), excluded from the buffer pool.
    pub ram_overhead: Bytes,
    /// Fixed background CPU (purge/stat threads), standardized cores.
    pub cpu_overhead_cores: f64,
    /// RNG seed for sampled accesses.
    pub seed: u64,
}

impl DbmsConfig {
    /// MySQL-flavoured defaults with a given buffer pool.
    pub fn mysql(buffer_pool: Bytes) -> DbmsConfig {
        DbmsConfig {
            buffer_pool,
            page_size: Bytes::kib(16),
            direct_io: true,
            os_cache: Bytes::ZERO,
            wal: WalConfig::default(),
            flusher: FlusherConfig::default(),
            ram_overhead: Bytes::mib(190),
            cpu_overhead_cores: 0.03,
            seed: 0xCA1805,
        }
    }

    /// PostgreSQL-flavoured defaults: buffered I/O through an OS cache.
    pub fn postgres(shared_buffers: Bytes, os_cache: Bytes) -> DbmsConfig {
        DbmsConfig {
            buffer_pool: shared_buffers,
            page_size: Bytes::kib(8),
            direct_io: false,
            os_cache,
            wal: WalConfig::default(),
            flusher: FlusherConfig::default(),
            ram_overhead: Bytes::mib(160),
            cpu_overhead_cores: 0.03,
            seed: 0xCA1805,
        }
    }
}

#[derive(Debug, Clone)]
struct TableDef {
    segments: Vec<PageRange>,
    pages: u64,
    rows: f64,
    row_bytes: u64,
    /// Dirty pages currently attributed to this table.
    dirty_pages: u64,
    /// Fractional newly-dirty carry (so low update rates still dirty
    /// pages over time).
    dirty_carry: f64,
}

impl TableDef {
    fn pages_for_rows(&self, rows: f64, page: Bytes) -> u64 {
        ((rows * self.row_bytes as f64) / page.as_f64()).ceil() as u64
    }

    /// Pages in the first `prefix_pages` of the table (0 = whole table).
    fn prefix(&self, prefix_pages: u64) -> u64 {
        if prefix_pages == 0 {
            self.pages
        } else {
            prefix_pages.min(self.pages)
        }
    }

    /// Map a logical page index to its on-disk page id.
    fn page_at(&self, mut idx: u64) -> PageId {
        for seg in &self.segments {
            if idx < seg.len {
                return seg.page(idx);
            }
            idx -= seg.len;
        }
        panic!("logical page index out of range");
    }
}

/// A page access pattern: `accesses` uniform reads over the first
/// `prefix_pages` pages of `table` (0 = whole table).
#[derive(Debug, Clone, Copy)]
pub struct AccessSpec {
    pub table: TableId,
    pub prefix_pages: u64,
    pub accesses: f64,
}

/// A row-update pattern: `rows` uniform updates over the first
/// `prefix_pages` pages of `table` (0 = whole table).
#[derive(Debug, Clone, Copy)]
pub struct UpdateSpec {
    pub table: TableId,
    pub prefix_pages: u64,
    pub rows: f64,
}

/// One tick of offered work for one database.
#[derive(Debug, Clone, Default)]
pub struct OpBatch {
    /// Offered transactions this tick.
    pub txns: f64,
    /// Logical rows read (stats only; page traffic is in `reads`).
    pub rows_read: f64,
    pub reads: Vec<AccessSpec>,
    pub updates: Vec<UpdateSpec>,
    /// Bytes appended to `insert_table` this tick.
    pub insert_bytes: f64,
    pub insert_table: Option<TableId>,
    /// CPU demand of the batch in standardized core-seconds.
    pub cpu_core_secs: f64,
    /// Intrinsic per-transaction latency floor (client round-trips, lock
    /// waits) in seconds.
    pub base_latency_secs: f64,
}

/// Device demand produced by `prepare_tick`.
#[derive(Debug, Clone, Copy, Default)]
pub struct InstanceDemand {
    pub cpu_core_secs: f64,
    pub log_bytes: f64,
    pub log_forces: f64,
    pub read_pages: f64,
    pub writeback_pages: f64,
    /// Dirty pages available before this tick's flush — the sorted batch
    /// depth for elevator-gain purposes.
    pub writeback_batch: f64,
}

/// What the host's devices granted back for `complete_tick`.
#[derive(Debug, Clone, Copy)]
pub struct DeviceGrant {
    /// Fraction of foreground disk demand served.
    pub fg_fraction: f64,
    /// Write-back pages granted to this instance.
    pub writeback_pages: f64,
    /// Fraction of CPU demand served.
    pub cpu_fraction: f64,
    /// CPU queueing latency multiplier (≥1).
    pub cpu_latency_factor: f64,
    /// Per-read disk service time (queueing-inflated), seconds.
    pub read_service_secs: f64,
    /// Disk utilization observed this tick (flusher feedback).
    pub disk_utilization: f64,
}

/// Outcome of one tick for one instance.
#[derive(Debug, Clone, Default)]
pub struct TickResult {
    pub committed_txns: f64,
    pub per_db_committed: Vec<(DatabaseId, f64)>,
    /// min(cpu, disk, flush) admission fraction.
    pub achieved_fraction: f64,
    pub mean_latency_secs: f64,
    pub physical_reads: f64,
    pub physical_writes: f64,
}

#[derive(Debug, Clone, Default)]
struct PendingTick {
    cpu_demand: f64,
    offered: Vec<(DatabaseId, f64, f64)>, // (db, txns, base_latency)
    newly_dirty: f64,
    reads_per_txn: f64,
    cpu_per_txn: f64,
    log_bytes: f64,
    rows_offered: f64,
}

/// A simulated DBMS instance. See module docs for the tick protocol.
#[derive(Debug)]
pub struct DbmsInstance {
    config: DbmsConfig,
    allocator: PageAllocator,
    pool: ClockCache,
    os_cache: Option<ClockCache>,
    wal: LogManager,
    flusher: Flusher,
    /// Logical databases created so far; `DatabaseId`s are `0..databases`.
    databases: u32,
    tables: Vec<TableDef>,
    /// Sorted (segment start, table index) for victim attribution.
    segment_index: Vec<(u64, u32)>,
    stats: InstanceStats,
    rng: StdRng,
    /// Foreground physical reads awaiting disk service.
    pending_reads: f64,
    /// CPU owed from between-tick SQL ops (probe scans).
    pending_cpu: f64,
    /// Foreground writes from dirty evictions awaiting disk service.
    pending_evict_writes: f64,
    pending_tick: Option<PendingTick>,
    checkpointing: bool,
    /// Client backpressure: benchmark clients are closed-loop, so offered
    /// work converges to what the instance sustains instead of queueing
    /// unboundedly. 1.0 = fully open throttle.
    admission: f64,
}

impl DbmsInstance {
    pub fn new(config: DbmsConfig) -> DbmsInstance {
        let pool_pages = config.buffer_pool.pages(config.page_size).max(1) as usize;
        let os_cache = if config.direct_io || config.os_cache == Bytes::ZERO {
            None
        } else {
            Some(ClockCache::new(
                config.os_cache.pages(config.page_size).max(1) as usize,
            ))
        };
        let seed = config.seed;
        let wal = LogManager::new(config.wal);
        let flusher = Flusher::new(config.flusher);
        DbmsInstance {
            config,
            allocator: PageAllocator::new(),
            pool: ClockCache::new(pool_pages),
            os_cache,
            wal,
            flusher,
            databases: 0,
            tables: Vec::new(),
            segment_index: Vec::new(),
            stats: InstanceStats::default(),
            rng: StdRng::seed_from_u64(seed),
            pending_reads: 0.0,
            pending_cpu: 0.0,
            pending_evict_writes: 0.0,
            pending_tick: None,
            checkpointing: false,
            admission: 1.0,
        }
    }

    pub fn config(&self) -> &DbmsConfig {
        &self.config
    }

    pub fn stats(&self) -> InstanceStats {
        self.stats
    }

    /// RAM the OS would report as allocated to this instance: the whole
    /// buffer pool plus the binary overhead. This is the *over-estimate*
    /// that motivates buffer-pool gauging (§3).
    pub fn ram_allocated(&self) -> Bytes {
        self.config.buffer_pool + self.config.ram_overhead
    }

    pub fn pool_resident_pages(&self) -> usize {
        self.pool.resident()
    }

    pub fn pool_dirty_pages(&self) -> usize {
        self.pool.dirty_count()
    }

    pub fn page_size(&self) -> Bytes {
        self.config.page_size
    }

    // ----- DDL / SQL surface (what the probing tool uses) -----

    /// Create a logical database.
    pub fn create_database(&mut self) -> DatabaseId {
        self.databases += 1;
        DatabaseId(self.databases - 1)
    }

    /// Create a table pre-loaded with `rows` rows of `row_bytes` bytes.
    /// Pages start on disk (cold) — they enter the pool on first access.
    pub fn create_table(&mut self, db: DatabaseId, rows: u64, row_bytes: u64) -> Result<TableId> {
        if db.0 >= self.databases {
            return Err(KairosError::Sql(format!("unknown database {db:?}")));
        }
        assert!(row_bytes > 0, "rows must have a positive size");
        let id = TableId(self.tables.len() as u32);
        let pages = (rows as f64 * row_bytes as f64 / self.config.page_size.as_f64()).ceil() as u64;
        let mut table = TableDef {
            segments: Vec::new(),
            pages: 0,
            rows: rows as f64,
            row_bytes,
            dirty_pages: 0,
            dirty_carry: 0.0,
        };
        if pages > 0 {
            let seg = self.allocator.allocate(pages);
            self.segment_index.push((seg.start.0, id.0));
            table.segments.push(seg);
            table.pages = pages;
        }
        self.tables.push(table);
        Ok(id)
    }

    /// Rows currently in a table.
    pub fn table_rows(&self, table: TableId) -> u64 {
        self.tables[table.0 as usize].rows as u64
    }

    /// Pages currently allocated to a table.
    pub fn table_pages(&self, table: TableId) -> u64 {
        self.tables[table.0 as usize].pages
    }

    /// Append `rows` rows to a table (INSERT). New pages enter the pool
    /// dirty (they must be written back) and are logged as full images.
    pub fn append_rows(&mut self, table: TableId, rows: f64) {
        if rows <= 0.0 {
            return;
        }
        let ti = table.0 as usize;
        let page_size = self.config.page_size;
        let (needed, new_rows, row_bytes) = {
            let t = &self.tables[ti];
            let new_rows = t.rows + rows;
            (t.pages_for_rows(new_rows, page_size), new_rows, t.row_bytes)
        };
        let current = self.tables[ti].pages;
        if needed > current {
            let seg = self.allocator.allocate(needed - current);
            // Nothing else allocated since this table last grew: one
            // contiguous run stays one segment (and one index entry).
            let extends = self.tables[ti]
                .segments
                .last()
                .is_some_and(|last| last.end() == seg.start);
            // The index must know the new run before the inserts: one of
            // them can evict a page of this very run (new pages enter cold),
            // and `on_evicted` attributes the victim through it.
            if !extends {
                self.segment_index.push((seg.start.0, table.0));
            }
            for i in 0..seg.len {
                if let Some((victim, was_dirty)) = self.pool.insert(seg.page(i), true) {
                    self.on_evicted(victim, was_dirty, 1.0);
                }
            }
            let t = &mut self.tables[ti];
            match t.segments.last_mut() {
                Some(last) if extends => last.len += seg.len,
                _ => t.segments.push(seg),
            }
            t.pages = needed;
            t.dirty_pages += seg.len;
        }
        self.tables[ti].rows = new_rows;
        let bytes = rows * row_bytes as f64;
        self.wal.append_bytes(bytes, (rows / 64.0).max(1.0));
        self.stats.insert_bytes += bytes;
        self.stats.rows_updated += rows;
        self.pending_cpu += rows * 4e-6;
    }

    /// Load a table's pages straight into the buffer pool (and OS cache, if
    /// configured) without physical reads — models a server that has been
    /// running long enough to be warm, which is the state Kairos monitors
    /// ("after running for some time, all the memory accessible to the DBMS
    /// will be full of data pages", §3.1).
    pub fn prewarm_table(&mut self, table: TableId) {
        let pages = self.tables[table.0 as usize].pages;
        self.prewarm_pages(table, pages);
    }

    /// Load only the first `pages` pages of a table into memory — warming
    /// the working-set prefix of a table much larger than RAM.
    pub fn prewarm_pages(&mut self, table: TableId, pages: u64) {
        // Each run fills free frames at once; from its first resident page,
        // or once the tier is full, page by page. The tiers are independent
        // caches, so one may finish a run before the other starts it.
        self.for_prefix_runs(table, pages, |inst, run| {
            for i in inst.pool.insert_run(run)..run.len {
                if let Some((victim, was_dirty)) = inst.pool.insert(run.page(i), false) {
                    inst.on_evicted(victim, was_dirty, 1.0);
                }
            }
            if let Some(os) = inst.os_cache.as_mut() {
                for i in os.insert_run(run)..run.len {
                    os.insert(run.page(i), false);
                }
            }
        });
    }

    /// Call `f` on each run of the first `pages` pages of `table` (clamped
    /// to its size) in logical order, one run per segment.
    fn for_prefix_runs(
        &mut self,
        table: TableId,
        pages: u64,
        mut f: impl FnMut(&mut DbmsInstance, PageRange),
    ) {
        let ti = table.0 as usize;
        let mut left = pages.min(self.tables[ti].pages);
        let mut segment = 0;
        while left > 0 {
            let run = self.tables[ti].segments[segment].prefix(left);
            f(self, run);
            left -= run.len;
            segment += 1;
        }
    }

    /// `SELECT COUNT(*) FROM t WHERE id < upto` — scans the prefix of the
    /// table covering `upto` rows, touching every page in order (this is
    /// what keeps the probe table memory-resident during gauging).
    pub fn scan_count(&mut self, table: TableId, upto_rows: u64) -> u64 {
        let ti = table.0 as usize;
        let (pages, rows) = {
            let t = &self.tables[ti];
            let rows = (t.rows as u64).min(upto_rows);
            let pages = t
                .pages_for_rows(rows as f64, self.config.page_size)
                .min(t.pages);
            (pages, rows)
        };
        self.for_prefix_runs(table, pages, |inst, run| {
            for i in 0..run.len {
                inst.touch_page(run.page(i), false, 1.0);
            }
        });
        self.pending_cpu += pages as f64 * SCAN_CPU_PER_PAGE;
        self.stats.rows_read += rows as f64;
        rows
    }

    // ----- internal page plumbing -----

    /// Attribute an evicted page to its owning table; dirty evictions cost
    /// a foreground write and release the table's dirty count.
    fn on_evicted(&mut self, victim: PageId, was_dirty: bool, weight: f64) {
        if !was_dirty {
            return;
        }
        self.pending_evict_writes += weight;
        if let Some(ti) = self.table_of(victim) {
            let t = &mut self.tables[ti];
            t.dirty_pages = t.dirty_pages.saturating_sub(1);
        }
    }

    fn table_of(&self, page: PageId) -> Option<usize> {
        // segment_index is sorted by construction (allocator is monotonic).
        let idx = self
            .segment_index
            .partition_point(|&(start, _)| start <= page.0);
        if idx == 0 {
            return None;
        }
        let (_, table) = self.segment_index[idx - 1];
        Some(table as usize)
    }

    /// Touch one page through the cache hierarchy with statistical weight
    /// `w`. Returns true if a physical read was required.
    fn touch_page(&mut self, page: PageId, make_dirty: bool, w: f64) -> bool {
        match self.pool.touch(page, make_dirty) {
            Touch::Hit => {
                self.stats.bp_hits += w;
                false
            }
            Touch::Miss { evicted } => {
                self.stats.bp_misses += w;
                if let Some((victim, was_dirty)) = evicted {
                    self.on_evicted(victim, was_dirty, w);
                }
                // Second tier: OS file cache (buffered-I/O configurations).
                let os_hit = match self.os_cache.as_mut() {
                    Some(os) => matches!(os.touch(page, false), Touch::Hit),
                    None => false,
                };
                if os_hit {
                    self.stats.os_cache_hits += w;
                    false
                } else {
                    self.pending_reads += w;
                    true
                }
            }
        }
    }

    /// Sampled uniform accesses over the table prefix.
    fn touch_sampled(&mut self, spec: AccessSpec) {
        let ti = spec.table.0 as usize;
        let prefix = self.tables[ti].prefix(spec.prefix_pages);
        if prefix == 0 || spec.accesses <= 0.0 {
            return;
        }
        let m = (spec.accesses.ceil() as usize).clamp(1, READ_SAMPLE_CAP);
        let w = spec.accesses / m as f64;
        for _ in 0..m {
            let idx = self.rng.random_range(0..prefix);
            let page = self.tables[ti].page_at(idx);
            self.touch_page(page, false, w);
        }
    }

    /// Apply a tick's updates with exact-expectation coalescing.
    fn apply_updates(&mut self, spec: UpdateSpec) -> f64 {
        let ti = spec.table.0 as usize;
        let prefix = self.tables[ti].prefix(spec.prefix_pages);
        if prefix == 0 || spec.rows <= 0.0 {
            return 0.0;
        }
        let p = prefix as f64;
        // Distinct pages touched by `rows` uniform updates.
        let distinct = p * (1.0 - (1.0 - 1.0 / p).powf(spec.rows));
        let dirty_in_prefix = (self.tables[ti].dirty_pages as f64).min(p);
        let clean_frac = (1.0 - dirty_in_prefix / p).clamp(0.0, 1.0);
        let newly = distinct * clean_frac + self.tables[ti].dirty_carry;
        let to_mark = newly.floor() as u64;
        self.tables[ti].dirty_carry = newly - to_mark as f64;

        let mut marked = 0u64;
        let mut attempts = 0u64;
        let max_attempts = to_mark.saturating_mul(8).max(16);
        while marked < to_mark && attempts < max_attempts {
            attempts += 1;
            let idx = self.rng.random_range(0..prefix);
            let page = self.tables[ti].page_at(idx);
            if self.pool.is_dirty(page) {
                continue;
            }
            // Updating a non-resident page first reads it (counted inside
            // touch_page), then dirties it.
            self.touch_page(page, true, 1.0);
            if self.pool.is_dirty(page) {
                self.tables[ti].dirty_pages += 1;
                marked += 1;
            }
        }
        // Recency for a sample of re-dirtied (already hot) pages.
        let recency_sample = ((distinct - marked as f64).max(0.0) as usize).min(32);
        for _ in 0..recency_sample {
            let idx = self.rng.random_range(0..prefix);
            let page = self.tables[ti].page_at(idx);
            self.touch_page(page, false, 1.0);
        }

        self.wal.append(spec.rows, 0.0);
        self.stats.rows_updated += spec.rows;
        marked as f64
    }

    // ----- tick protocol -----

    /// Phase 1: process offered batches into device demand.
    ///
    /// # Panics
    /// Panics if a tick is already prepared but not completed.
    pub fn prepare_tick(&mut self, dt: f64, loads: &[(DatabaseId, OpBatch)]) -> InstanceDemand {
        assert!(
            self.pending_tick.is_none(),
            "prepare_tick called twice without complete_tick"
        );
        let mut cpu = self.config.cpu_overhead_cores * dt + self.pending_cpu;
        self.pending_cpu = 0.0;
        let mut offered = Vec::with_capacity(loads.len());
        let mut newly_dirty = 0.0;
        let mut total_txns = 0.0;
        let reads_before = self.pending_reads;
        let rows_before = self.stats.rows_updated;

        let admit = self.admission;
        for (db, batch) in loads {
            for spec in &batch.reads {
                let mut s = *spec;
                s.accesses *= admit;
                self.touch_sampled(s);
            }
            for spec in &batch.updates {
                let mut s = *spec;
                s.rows *= admit;
                newly_dirty += self.apply_updates(s);
            }
            if batch.insert_bytes > 0.0 {
                if let Some(t) = batch.insert_table {
                    let row_bytes = self.tables[t.0 as usize].row_bytes as f64;
                    self.append_rows(t, batch.insert_bytes * admit / row_bytes);
                }
            }
            let admitted_txns = batch.txns * admit;
            if admitted_txns > 0.0 {
                self.wal.append(0.0, admitted_txns);
            }
            cpu += batch.cpu_core_secs * admit;
            self.stats.rows_read += batch.rows_read * admit;
            total_txns += admitted_txns;
            offered.push((*db, admitted_txns, batch.base_latency_secs));
        }

        let wal_out = self.wal.drain_tick(dt);
        let decision = self.flusher.decide(
            dt,
            self.pool.dirty_count() as f64,
            self.pool.capacity() as f64,
            self.wal.fill_fraction(),
        );
        self.checkpointing = decision.checkpointing;
        let dirty_now = self.pool.dirty_count() as f64;
        let wb_request = decision.target_pages.min(dirty_now) + self.pending_evict_writes;

        let demand = InstanceDemand {
            cpu_core_secs: cpu,
            log_bytes: wal_out.bytes,
            log_forces: wal_out.forces,
            read_pages: self.pending_reads,
            writeback_pages: wb_request,
            writeback_batch: dirty_now,
        };
        self.stats.log_bytes += wal_out.bytes;
        self.stats.log_forces += wal_out.forces;

        let reads_per_txn = if total_txns > 0.0 {
            (self.pending_reads - reads_before).max(0.0) / total_txns
        } else {
            0.0
        };
        let cpu_per_txn = if total_txns > 0.0 {
            cpu / total_txns
        } else {
            0.0
        };
        self.pending_tick = Some(PendingTick {
            cpu_demand: cpu,
            offered,
            newly_dirty,
            reads_per_txn,
            cpu_per_txn,
            log_bytes: wal_out.bytes,
            rows_offered: self.stats.rows_updated - rows_before,
        });
        demand
    }

    /// Phase 2: apply device grants, commit work, account latency.
    ///
    /// # Panics
    /// Panics if no tick is prepared.
    pub fn complete_tick(&mut self, dt: f64, grant: DeviceGrant) -> TickResult {
        let pending = self
            .pending_tick
            .take()
            .expect("complete_tick without prepare_tick");

        // Serve foreground reads.
        let served_reads = self.pending_reads * grant.fg_fraction;
        self.pending_reads -= served_reads;
        self.stats.physical_read_pages += served_reads;

        // Serve write-back: evict-writes first (they are forced), then the
        // flusher's sorted batch.
        let evict_served = self.pending_evict_writes.min(grant.writeback_pages);
        self.pending_evict_writes -= evict_served;
        let flush_quota = (grant.writeback_pages - evict_served).max(0.0);
        let dirty_before = self.pool.dirty_count();
        let batch = self.pool.take_dirty_batch(flush_quota.floor() as usize);
        // The batch ascends, so one forward cursor over the segment index
        // finds each page's table, as `table_of` would.
        let mut seg = 0;
        for &page in &batch {
            while self
                .segment_index
                .get(seg)
                .is_some_and(|&(start, _)| start <= page.0)
            {
                seg += 1;
            }
            if seg > 0 {
                let t = &mut self.tables[self.segment_index[seg - 1].1 as usize];
                t.dirty_pages = t.dirty_pages.saturating_sub(1);
            }
        }
        let flushed = batch.len() as f64;
        self.stats.physical_write_pages += evict_served + flushed;
        let reclaimed = if dirty_before > 0 {
            self.wal.reclaim(flushed / dirty_before as f64)
        } else {
            self.wal.checkpoint_complete();
            0.0
        };
        if self.checkpointing && self.pool.dirty_count() < self.pool.capacity() / 100 {
            self.wal.checkpoint_complete();
            self.stats.checkpoints += 1.0;
            self.checkpointing = false;
        }
        self.flusher
            .observe_disk_utilization(grant.disk_utilization);

        // Admission: CPU, foreground disk, flush-keepup, and log-reclaim
        // (checkpoint stall) all throttle.
        let flush_throttle = if self.pool.dirty_fraction() > 0.9 && pending.newly_dirty > 0.0 {
            (flushed / pending.newly_dirty).clamp(0.05, 1.0)
        } else {
            1.0
        };
        // Sync-flush stall: sustained log production cannot exceed the rate
        // at which write-back advances the checkpoint. Headroom below 95%
        // of the log file lets bursts through untouched.
        let wal_capacity = self.wal.config().capacity_bytes;
        let log_headroom = (0.95 * wal_capacity - self.wal.fill_fraction() * wal_capacity).max(0.0);
        let log_throttle = if pending.log_bytes > 0.0 {
            ((reclaimed + log_headroom) / pending.log_bytes).clamp(0.02, 1.0)
        } else {
            1.0
        };
        let achieved = grant
            .cpu_fraction
            .min(grant.fg_fraction)
            .min(flush_throttle)
            .min(log_throttle)
            .clamp(0.0, 1.0);
        // Throttled transactions' row modifications never really happened:
        // correct the stat so monitored update rates reflect achieved work.
        self.stats.rows_updated -= pending.rows_offered * (1.0 - achieved);

        // Latency: intrinsic floor + CPU service (queue-inflated) + disk
        // reads + group-commit wait + admission backlog.
        let total_offered: f64 = pending.offered.iter().map(|(_, t, _)| *t).sum();
        let commit_wait =
            self.wal
                .commit_wait_secs(if dt > 0.0 { total_offered / dt } else { 0.0 });
        let backlog_penalty = if achieved < 1.0 {
            dt * (1.0 - achieved) / achieved.max(0.05)
        } else {
            0.0
        };

        let mut per_db = Vec::with_capacity(pending.offered.len());
        let mut committed_total = 0.0;
        let mut lat_weighted = 0.0;
        for (db, txns, base_lat) in &pending.offered {
            let committed = txns * achieved;
            let lat = base_lat
                + pending.cpu_per_txn * grant.cpu_latency_factor
                + pending.reads_per_txn * grant.read_service_secs
                + commit_wait
                + backlog_penalty;
            per_db.push((*db, committed));
            committed_total += committed;
            lat_weighted += lat * committed;
        }

        self.stats.sim_secs += dt;
        self.stats.committed_txns += committed_total;
        self.stats.latency_weighted_secs += lat_weighted;
        self.stats.cpu_core_secs += pending.cpu_demand * grant.cpu_fraction;

        // Closed-loop client backpressure: ease off multiplicatively when
        // throttled (or when the read backlog is deepening), recover
        // additively when the system keeps up.
        let backlog_deep = self.pending_reads > 64.0;
        if achieved < 0.999 || backlog_deep {
            self.admission = (self.admission * 0.90).max(0.01);
        } else {
            self.admission = (self.admission + 0.02).min(1.0);
        }

        TickResult {
            committed_txns: committed_total,
            per_db_committed: per_db,
            achieved_fraction: achieved,
            mean_latency_secs: if committed_total > 0.0 {
                lat_weighted / committed_total
            } else {
                0.0
            },
            physical_reads: served_reads,
            physical_writes: evict_served + flushed,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use kairos_types::Bytes;

    fn small_instance() -> DbmsInstance {
        DbmsInstance::new(DbmsConfig::mysql(Bytes::mib(16)))
    }

    fn full_grant() -> DeviceGrant {
        DeviceGrant {
            fg_fraction: 1.0,
            writeback_pages: 1e9,
            cpu_fraction: 1.0,
            cpu_latency_factor: 1.0,
            read_service_secs: 0.008,
            disk_utilization: 0.1,
        }
    }

    #[test]
    fn create_database_and_table() {
        let mut inst = small_instance();
        let db = inst.create_database();
        let t = inst.create_table(db, 1000, 160).unwrap();
        assert_eq!(inst.table_rows(t), 1000);
        // 1000 rows * 160 B = 160000 B / 16 KiB pages = 10 pages.
        assert_eq!(inst.table_pages(t), 10);
    }

    #[test]
    fn table_on_unknown_database_fails() {
        let mut inst = small_instance();
        assert!(inst.create_table(DatabaseId(7), 10, 100).is_err());
    }

    #[test]
    fn scan_warms_cache_then_hits() {
        let mut inst = small_instance();
        let db = inst.create_database();
        let t = inst.create_table(db, 10_000, 160).unwrap();
        let n = inst.scan_count(t, 10_000);
        assert_eq!(n, 10_000);
        let misses_after_first = inst.stats().bp_misses;
        assert!(misses_after_first > 0.0, "cold scan must miss");
        inst.scan_count(t, 10_000);
        assert_eq!(
            inst.stats().bp_misses,
            misses_after_first,
            "warm scan must not miss"
        );
    }

    #[test]
    fn scan_generates_pending_reads_served_by_tick() {
        let mut inst = small_instance();
        let db = inst.create_database();
        let t = inst.create_table(db, 10_000, 160).unwrap();
        inst.scan_count(t, 10_000);
        inst.prepare_tick(0.1, &[]);
        let r = inst.complete_tick(0.1, full_grant());
        assert!(r.physical_reads > 0.0);
        assert!(inst.stats().physical_read_pages > 0.0);
    }

    #[test]
    fn append_rows_grows_table_and_dirties_pages() {
        let mut inst = small_instance();
        let db = inst.create_database();
        let t = inst.create_table(db, 100, 16_384).unwrap();
        let before = inst.table_pages(t);
        inst.append_rows(t, 50.0);
        assert_eq!(inst.table_pages(t), before + 50);
        assert!(inst.pool_dirty_pages() >= 50);
        assert!(inst.stats().insert_bytes > 0.0);
    }

    #[test]
    fn contiguous_growth_extends_the_last_segment() {
        let mut inst = small_instance();
        let db = inst.create_database();
        let page = inst.page_size().0;
        let t = inst.create_table(db, 4, page).unwrap();
        for _ in 0..10 {
            inst.append_rows(t, 3.0);
        }
        let ti = t.0 as usize;
        assert_eq!(inst.tables[ti].segments, [PageRange::new(PageId(0), 34)]);
        assert_eq!(inst.segment_index, [(0, t.0)]);
        // Another table's allocation in between starts a new run.
        let other = inst.create_table(db, 2, page).unwrap();
        inst.append_rows(t, 5.0);
        assert_eq!(inst.tables[ti].segments.len(), 2);
        assert_eq!(inst.segment_index, [(0, t.0), (34, other.0), (36, t.0)]);
        assert_eq!(inst.tables[ti].page_at(34), PageId(36));
        assert_eq!(inst.table_of(PageId(33)), Some(ti));
        assert_eq!(inst.table_of(PageId(35)), Some(other.0 as usize));
        assert_eq!(inst.table_pages(t), 39);
    }

    #[test]
    fn a_growth_step_that_evicts_its_own_page_charges_its_own_table() {
        let mut inst = small_instance();
        let db = inst.create_database();
        let page = inst.page_size().0;
        let cap = inst.pool.capacity() as u64;
        // `a` is allocated first, so its next run starts past `b`'s pages.
        let a = inst.create_table(db, 1, page).unwrap();
        let b = inst.create_table(db, 0, page).unwrap();
        // `b` fills the pool with dirty pages 1..=cap (frame i holds page
        // i + 1), all made hot except the one under the clock hand.
        inst.append_rows(b, cap as f64);
        assert_eq!(inst.pool_resident_pages() as u64, cap);
        for id in 2..=cap {
            inst.pool.touch(PageId(id), false);
        }
        // Two new pages: the first takes the cold frame and enters cold;
        // the sweep for the second clears every other frame and comes back
        // round to it — the run evicts its own fresh, dirty page.
        inst.append_rows(a, 2.0);
        assert!(!inst.pool.contains(PageId(1)));
        assert!(!inst.pool.contains(PageId(cap + 1)));
        assert!(inst.pool.contains(PageId(cap + 2)));
        assert_eq!(inst.pending_evict_writes, 2.0);
        // One of `b`'s pages left the pool, so one comes off its count; the
        // other victim is `a`'s (its count saturates at 0 mid-step, then
        // the step adds its two pages).
        assert_eq!(inst.tables[b.0 as usize].dirty_pages, cap - 1);
        assert_eq!(inst.tables[a.0 as usize].dirty_pages, 2);
        assert_eq!(inst.pool_dirty_pages() as u64, cap);
    }

    #[test]
    fn updates_dirty_pages_with_coalescing() {
        let mut inst = small_instance();
        let db = inst.create_database();
        // 100-page working set.
        let t = inst.create_table(db, 10_000, 164).unwrap();
        inst.scan_count(t, 10_000); // warm
        let batch = OpBatch {
            txns: 10.0,
            updates: vec![UpdateSpec {
                table: t,
                prefix_pages: 0,
                rows: 5_000.0,
            }],
            cpu_core_secs: 0.001,
            ..Default::default()
        };
        // Deny write-back so dirt accumulates.
        inst.prepare_tick(0.1, &[(db, batch)]);
        inst.complete_tick(
            0.1,
            DeviceGrant {
                writeback_pages: 0.0,
                ..full_grant()
            },
        );
        let dirty = inst.pool_dirty_pages();
        // 5000 updates over ~103 pages touch nearly every page, but dirty
        // count cannot exceed the page count (coalescing).
        assert!(dirty > 50, "expected most pages dirty, got {dirty}");
        assert!(dirty <= inst.table_pages(t) as usize);
    }

    #[test]
    fn writeback_cleans_and_accounts() {
        let mut inst = small_instance();
        let db = inst.create_database();
        let t = inst.create_table(db, 10_000, 164).unwrap();
        inst.scan_count(t, 10_000);
        let batch = OpBatch {
            txns: 1.0,
            updates: vec![UpdateSpec {
                table: t,
                prefix_pages: 0,
                rows: 2_000.0,
            }],
            ..Default::default()
        };
        inst.prepare_tick(0.1, &[(db, batch)]);
        let r = inst.complete_tick(0.1, full_grant());
        assert!(r.physical_writes > 0.0);
        assert!(inst.stats().physical_write_pages > 0.0);
    }

    #[test]
    fn admission_fraction_scales_commits() {
        let mut inst = small_instance();
        let db = inst.create_database();
        let batch = OpBatch {
            txns: 100.0,
            cpu_core_secs: 0.01,
            ..Default::default()
        };
        inst.prepare_tick(0.1, &[(db, batch)]);
        let r = inst.complete_tick(
            0.1,
            DeviceGrant {
                cpu_fraction: 0.5,
                ..full_grant()
            },
        );
        assert!((r.committed_txns - 50.0).abs() < 1e-9);
        assert!((r.achieved_fraction - 0.5).abs() < 1e-9);
        assert!(r.mean_latency_secs > 0.0, "throttling must show in latency");
    }

    #[test]
    fn latency_includes_base_and_grows_with_queueing() {
        let mut inst = small_instance();
        let db = inst.create_database();
        let mk = |lat_factor: f64, inst: &mut DbmsInstance| {
            let batch = OpBatch {
                txns: 10.0,
                cpu_core_secs: 0.02,
                base_latency_secs: 0.005,
                ..Default::default()
            };
            inst.prepare_tick(0.1, &[(db, batch)]);
            inst.complete_tick(
                0.1,
                DeviceGrant {
                    cpu_latency_factor: lat_factor,
                    ..full_grant()
                },
            )
            .mean_latency_secs
        };
        let quiet = mk(1.0, &mut inst);
        let busy = mk(8.0, &mut inst);
        assert!(quiet >= 0.005);
        assert!(busy > quiet);
    }

    #[test]
    fn wal_activity_reported_via_demand() {
        let mut inst = small_instance();
        let db = inst.create_database();
        let t = inst.create_table(db, 10_000, 164).unwrap();
        let batch = OpBatch {
            txns: 50.0,
            updates: vec![UpdateSpec {
                table: t,
                prefix_pages: 0,
                rows: 500.0,
            }],
            ..Default::default()
        };
        let demand = inst.prepare_tick(0.1, &[(db, batch)]);
        assert!(demand.log_bytes > 500.0 * 200.0);
        assert!(demand.log_forces >= 1.0);
        inst.complete_tick(0.1, full_grant());
    }

    #[test]
    #[should_panic(expected = "prepare_tick called twice")]
    fn double_prepare_panics() {
        let mut inst = small_instance();
        inst.prepare_tick(0.1, &[]);
        inst.prepare_tick(0.1, &[]);
    }

    #[test]
    fn os_cache_absorbs_pool_misses() {
        // PostgreSQL-style: tiny shared buffers, large OS cache.
        let mut cfg = DbmsConfig::postgres(Bytes::mib(2), Bytes::mib(64));
        cfg.seed = 7;
        let mut inst = DbmsInstance::new(cfg);
        let db = inst.create_database();
        // ~4 MiB table: exceeds the pool, fits the OS cache.
        let t = inst.create_table(db, 25_000, 164).unwrap();
        inst.scan_count(t, 25_000); // cold: misses to disk, fills OS cache
        let cold_pending = inst.pending_reads;
        inst.prepare_tick(0.1, &[]);
        inst.complete_tick(0.1, full_grant());
        inst.scan_count(t, 25_000); // warm: pool misses, OS cache hits
        assert!(inst.stats().os_cache_hits > 0.0);
        assert!(
            inst.pending_reads < cold_pending * 0.2,
            "OS cache should absorb most re-reads: {} vs {}",
            inst.pending_reads,
            cold_pending
        );
    }

    #[test]
    fn higher_update_rate_needs_sublinear_writeback() {
        // The core Fig-4 mechanism at module scale: doubling the update
        // rate must less-than-double the steady-state write-back rate,
        // because more updates land on already-dirty pages.
        let steady_writes = |rows_per_tick: f64| -> f64 {
            let mut inst = DbmsInstance::new(DbmsConfig::mysql(Bytes::mib(64)));
            let db = inst.create_database();
            let t = inst.create_table(db, 100_000, 164).unwrap();
            inst.prewarm_table(t);
            let mut written = 0.0;
            for step in 0..400 {
                let batch = OpBatch {
                    txns: 1.0,
                    updates: vec![UpdateSpec {
                        table: t,
                        prefix_pages: 0,
                        rows: rows_per_tick,
                    }],
                    ..Default::default()
                };
                inst.prepare_tick(0.1, &[(db, batch)]);
                let r = inst.complete_tick(0.1, full_grant());
                if step >= 200 {
                    written += r.physical_writes;
                }
            }
            written
        };
        let slow = steady_writes(500.0);
        let fast = steady_writes(1000.0);
        assert!(
            fast < slow * 1.9,
            "coalescing must be sub-linear: {slow} -> {fast}"
        );
        assert!(
            fast > slow * 1.1,
            "more updates must still write more: {slow} -> {fast}"
        );
    }
}
