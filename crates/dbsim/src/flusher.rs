//! Adaptive dirty-page flusher (InnoDB-style).
//!
//! Three pressures decide how many pages to write back each tick:
//!
//! 1. **Adaptive** — proportional to how close the dirty fraction is to its
//!    ceiling, so sustained update load reaches a steady state where flush
//!    rate equals the *newly-dirtied* page rate. Coalescing — many row
//!    updates landing on an already-dirty page — is why disk I/O grows
//!    sub-linearly with update throughput (§4.1, point 2).
//! 2. **Checkpoint** — when the log fills, flushing becomes urgent
//!    (MySQL's periodic latency spikes in §7.2).
//! 3. **Idle** — "DBMSs typically exploit unused disk bandwidth to flush
//!    dirty buffer pool pages back to disk whenever the disk is
//!    underutilized" (§4.1, point 1). This early flushing shortens the
//!    coalescing window, which is precisely why summing the *observed*
//!    standalone disk rates over-estimates the consolidated demand — the
//!    effect Kairos's disk model corrects (up to 32× in Fig 6).

/// Flusher tuning parameters.
#[derive(Debug, Clone, Copy)]
pub struct FlusherConfig {
    /// Hard ceiling on write-back pages/second (innodb_io_capacity-like;
    /// should reflect the device's sorted write-back ability).
    pub max_io_pages_per_sec: f64,
    /// Dirty fraction at which adaptive flushing reaches max rate.
    pub max_dirty_fraction: f64,
    /// Log fill fraction above which checkpoint pressure kicks in.
    pub checkpoint_threshold: f64,
    /// 0 disables idle flushing; 1 uses all idle device headroom.
    pub idle_aggressiveness: f64,
    /// Bound on how long a page may stay dirty (checkpoint age / recovery
    /// time target). Flushing at `dirty/T` keeps mean residence near `T`,
    /// which produces the classic coalescing law
    /// `flush_rate = Y / (1 + Y·T/P)` — the working-set-size dependence of
    /// Fig 4.
    pub max_residence_secs: f64,
}

impl Default for FlusherConfig {
    fn default() -> FlusherConfig {
        FlusherConfig {
            max_io_pages_per_sec: 2000.0,
            max_dirty_fraction: 0.75,
            checkpoint_threshold: 0.75,
            idle_aggressiveness: 0.85,
            max_residence_secs: 20.0,
        }
    }
}

/// The flusher's decision for one tick.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FlushDecision {
    /// Pages to attempt to write back this tick.
    pub target_pages: f64,
    /// Whether checkpoint pressure drove the decision.
    pub checkpointing: bool,
}

/// Adaptive flusher state machine.
#[derive(Debug, Clone)]
pub struct Flusher {
    config: FlusherConfig,
    /// Disk utilization observed last tick (feedback for idle flushing).
    last_disk_utilization: f64,
}

impl Flusher {
    pub fn new(config: FlusherConfig) -> Flusher {
        Flusher {
            config,
            last_disk_utilization: 0.0,
        }
    }

    /// Feedback from the disk device after each tick.
    pub fn observe_disk_utilization(&mut self, utilization: f64) {
        self.last_disk_utilization = utilization.clamp(0.0, 1.0);
    }

    /// Decide the write-back target for a tick of `dt` seconds.
    ///
    /// `dirty_pages` and `pool_pages` describe the buffer pool;
    /// `log_fill` is the log's fill fraction since the last checkpoint.
    pub fn decide(
        &self,
        dt: f64,
        dirty_pages: f64,
        pool_pages: f64,
        log_fill: f64,
    ) -> FlushDecision {
        let cfg = &self.config;
        let dirty_fraction = if pool_pages > 0.0 {
            dirty_pages / pool_pages
        } else {
            0.0
        };
        let dirty_pressure = (dirty_fraction / cfg.max_dirty_fraction).clamp(0.0, 1.0);
        // Quadratic ramp: gentle when mostly clean, hard near the ceiling.
        let adaptive = cfg.max_io_pages_per_sec * dirty_pressure * dirty_pressure;

        // Residence bound: drain the dirty set within max_residence_secs
        // (checkpoint-age flushing). This is what limits coalescing and
        // couples write-back volume to the working-set size.
        let age = dirty_pages / cfg.max_residence_secs.max(1e-9);

        let checkpointing = log_fill > cfg.checkpoint_threshold;
        let checkpoint = if checkpointing {
            let urgency =
                ((log_fill - cfg.checkpoint_threshold) / (1.0 - cfg.checkpoint_threshold)).min(1.0);
            cfg.max_io_pages_per_sec * (0.5 + 0.5 * urgency)
        } else {
            0.0
        };

        let headroom = (1.0 - self.last_disk_utilization).max(0.0);
        let idle = cfg.max_io_pages_per_sec * headroom * cfg.idle_aggressiveness;

        let rate = adaptive
            .max(age)
            .max(checkpoint)
            .max(idle)
            .min(cfg.max_io_pages_per_sec);
        FlushDecision {
            target_pages: rate * dt,
            checkpointing,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const POOL: f64 = 10_000.0;

    fn flusher() -> Flusher {
        Flusher::new(FlusherConfig::default())
    }

    #[test]
    fn idle_disk_flushes_aggressively() {
        let mut f = flusher();
        f.observe_disk_utilization(0.0);
        let d = f.decide(1.0, 0.01 * POOL, POOL, 0.0);
        // Nearly all of max_io despite tiny dirty fraction.
        assert!(d.target_pages > 0.8 * f.config.max_io_pages_per_sec * 0.85);
        assert!(!d.checkpointing);
    }

    #[test]
    fn busy_disk_defers_flushing_when_mostly_clean() {
        let mut f = flusher();
        f.observe_disk_utilization(0.95);
        let d = f.decide(1.0, 0.05 * POOL, POOL, 0.0);
        assert!(
            d.target_pages < 0.1 * f.config.max_io_pages_per_sec,
            "busy disk + clean pool should barely flush, got {}",
            d.target_pages
        );
    }

    #[test]
    fn dirty_pressure_overrides_busy_disk() {
        let mut f = flusher();
        f.observe_disk_utilization(1.0);
        let d = f.decide(1.0, 0.75 * POOL, POOL, 0.0);
        assert!((d.target_pages - f.config.max_io_pages_per_sec).abs() < 1e-6);
    }

    #[test]
    fn adaptive_ramp_is_convex() {
        let mut f = flusher();
        f.observe_disk_utilization(1.0); // suppress idle term
        let lo = f.decide(1.0, 0.2 * POOL, POOL, 0.0).target_pages;
        let mid = f.decide(1.0, 0.4 * POOL, POOL, 0.0).target_pages;
        let hi = f.decide(1.0, 0.6 * POOL, POOL, 0.0).target_pages;
        assert!(hi - mid > mid - lo, "quadratic ramp expected");
    }

    #[test]
    fn residence_bound_scales_with_dirty_count_not_fraction() {
        // Same 10% dirty fraction, pools of different sizes: the age term
        // must flush proportionally to the absolute dirty page count.
        let mut f = flusher();
        f.observe_disk_utilization(1.0); // suppress idle term
        let small = f.decide(1.0, 1_000.0, 10_000.0, 0.0).target_pages;
        let large = f.decide(1.0, 10_000.0, 100_000.0, 0.0).target_pages;
        assert!(
            large > small * 5.0,
            "age flushing must track dirty count: {small} vs {large}"
        );
    }

    #[test]
    fn checkpoint_pressure_triggers_above_threshold() {
        let mut f = flusher();
        f.observe_disk_utilization(1.0);
        let below = f.decide(1.0, 0.1 * POOL, POOL, 0.7);
        assert!(!below.checkpointing);
        let above = f.decide(1.0, 0.1 * POOL, POOL, 0.9);
        assert!(above.checkpointing);
        assert!(above.target_pages > below.target_pages * 3.0);
    }

    #[test]
    fn target_never_exceeds_max_io() {
        let mut f = flusher();
        f.observe_disk_utilization(0.0);
        let d = f.decide(1.0, POOL, POOL, 1.0);
        assert!(d.target_pages <= f.config.max_io_pages_per_sec + 1e-9);
    }

    #[test]
    fn target_scales_with_dt() {
        let f = flusher();
        let short = f.decide(0.1, 0.5 * POOL, POOL, 0.0).target_pages;
        let long = f.decide(1.0, 0.5 * POOL, POOL, 0.0).target_pages;
        assert!((long / short - 10.0).abs() < 1e-6);
    }
}
