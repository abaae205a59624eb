//! Write-ahead log with group commit.
//!
//! One consolidated DBMS instance owns a single log stream: commits from
//! *all* hosted databases share group-commit forces, and log bytes form one
//! sequential stream. This shared stream is one of the two coordination
//! effects (§4.1) that make a consolidated DBMS far more disk-efficient
//! than per-database instances — the DB-in-VM baseline gives each database
//! its own `LogManager`, multiplying forces.

/// Log configuration.
#[derive(Debug, Clone, Copy)]
pub struct WalConfig {
    /// Bytes appended per modified row (record header + image). The paper
    /// notes this is "roughly constant and small for typical OLTP
    /// workloads" (§4.1).
    pub record_bytes: f64,
    /// Fixed bytes per commit record.
    pub commit_bytes: f64,
    /// Group-commit window in seconds: commits arriving within one window
    /// share a single force.
    pub group_window_secs: f64,
    /// Total log file capacity; filling it forces a checkpoint (MySQL's
    /// "garbage collect log files" stall from §7.2).
    pub capacity_bytes: f64,
}

impl Default for WalConfig {
    fn default() -> WalConfig {
        WalConfig {
            record_bytes: 240.0,
            commit_bytes: 64.0,
            group_window_secs: 0.005,
            // A tuned-but-bounded redo log: large enough that multi-GB
            // working sets at moderate update rates run cleanly, small
            // enough that checkpoint pressure is a first-class effect at
            // saturation (the paper's §7.2 latency-spike observations).
            capacity_bytes: 512.0 * 1024.0 * 1024.0,
        }
    }
}

/// Per-tick log output: what the disk must absorb.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct WalTickOutput {
    pub bytes: f64,
    pub forces: f64,
}

/// The log manager. Accumulates appends during a tick; `drain_tick`
/// converts them into sequential bytes + group-commit forces.
#[derive(Debug, Clone)]
pub struct LogManager {
    config: WalConfig,
    pending_rows: f64,
    pending_commits: f64,
    bytes_since_checkpoint: f64,
}

impl LogManager {
    pub fn new(config: WalConfig) -> LogManager {
        LogManager {
            config,
            pending_rows: 0.0,
            pending_commits: 0.0,
            bytes_since_checkpoint: 0.0,
        }
    }

    pub fn config(&self) -> &WalConfig {
        &self.config
    }

    /// Record `rows` modified rows committed across `commits` transactions
    /// (fractional values allowed — the simulator works in expectations).
    pub fn append(&mut self, rows: f64, commits: f64) {
        debug_assert!(rows >= 0.0 && commits >= 0.0);
        self.pending_rows += rows;
        self.pending_commits += commits;
    }

    /// Record raw log payload bytes (bulk inserts log full row images, so
    /// their volume scales with row size rather than the fixed per-row
    /// record size).
    pub fn append_bytes(&mut self, bytes: f64, commits: f64) {
        debug_assert!(bytes >= 0.0 && commits >= 0.0);
        self.pending_rows += bytes / self.config.record_bytes;
        self.pending_commits += commits;
    }

    /// Convert the tick's appends into disk demand.
    ///
    /// Group commit: at most `dt / group_window` forces fit in the tick;
    /// fewer commits than that means one force per commit.
    pub fn drain_tick(&mut self, dt: f64) -> WalTickOutput {
        let bytes = self.pending_rows * self.config.record_bytes
            + self.pending_commits * self.config.commit_bytes;
        let max_forces = dt / self.config.group_window_secs;
        let forces = if self.pending_commits <= 0.0 {
            0.0
        } else {
            self.pending_commits.min(max_forces).max(1.0)
        };
        self.pending_rows = 0.0;
        self.pending_commits = 0.0;
        self.bytes_since_checkpoint += bytes;
        WalTickOutput { bytes, forces }
    }

    /// Fraction of the log file consumed since the last checkpoint. Values
    /// above ~0.75 put checkpoint pressure on the flusher.
    pub fn fill_fraction(&self) -> f64 {
        self.bytes_since_checkpoint / self.config.capacity_bytes
    }

    /// Called when the flusher completes a checkpoint (dirty backlog
    /// drained): reclaims log space.
    pub fn checkpoint_complete(&mut self) {
        self.bytes_since_checkpoint = 0.0;
    }

    /// Reclaim a fraction of the outstanding log. Flushing `fraction` of
    /// the dirty pages lets the recovery LSN advance roughly
    /// proportionally, releasing log capacity without a full checkpoint.
    /// Returns the bytes reclaimed.
    pub fn reclaim(&mut self, fraction: f64) -> f64 {
        let f = fraction.clamp(0.0, 1.0);
        let reclaimed = self.bytes_since_checkpoint * f;
        self.bytes_since_checkpoint -= reclaimed;
        reclaimed
    }

    /// Expected group-commit wait for one transaction: half the window
    /// when commits are being batched, otherwise negligible.
    pub fn commit_wait_secs(&self, commits_per_sec: f64) -> f64 {
        let forces_per_sec = 1.0 / self.config.group_window_secs;
        if commits_per_sec > forces_per_sec {
            self.config.group_window_secs / 2.0
        } else {
            0.0
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bytes_scale_with_rows_and_commits() {
        let mut wal = LogManager::new(WalConfig::default());
        wal.append(100.0, 10.0);
        let out = wal.drain_tick(0.1);
        let expected = 100.0 * 240.0 + 10.0 * 64.0;
        assert!((out.bytes - expected).abs() < 1e-9);
    }

    #[test]
    fn group_commit_caps_forces() {
        let cfg = WalConfig {
            group_window_secs: 0.01,
            ..Default::default()
        };
        let mut wal = LogManager::new(cfg);
        // 1000 commits in a 0.1 s tick can force at most 10 times.
        wal.append(0.0, 1000.0);
        let out = wal.drain_tick(0.1);
        assert!((out.forces - 10.0).abs() < 1e-9);
    }

    #[test]
    fn few_commits_force_individually() {
        let mut wal = LogManager::new(WalConfig::default());
        wal.append(0.0, 3.0);
        let out = wal.drain_tick(1.0);
        assert!((out.forces - 3.0).abs() < 1e-9);
    }

    #[test]
    fn no_commits_no_forces() {
        let mut wal = LogManager::new(WalConfig::default());
        let out = wal.drain_tick(0.1);
        assert_eq!(out.forces, 0.0);
        assert_eq!(out.bytes, 0.0);
    }

    #[test]
    fn drain_resets_pending() {
        let mut wal = LogManager::new(WalConfig::default());
        wal.append(10.0, 1.0);
        wal.drain_tick(0.1);
        let out = wal.drain_tick(0.1);
        assert_eq!(out.bytes, 0.0);
    }

    #[test]
    fn fill_rises_then_checkpoint_resets() {
        let cfg = WalConfig {
            capacity_bytes: 1000.0,
            record_bytes: 10.0,
            commit_bytes: 0.0,
            ..Default::default()
        };
        let mut wal = LogManager::new(cfg);
        wal.append(50.0, 1.0);
        wal.drain_tick(0.1);
        assert!((wal.fill_fraction() - 0.5).abs() < 1e-9);
        wal.checkpoint_complete();
        assert_eq!(wal.fill_fraction(), 0.0);
    }

    #[test]
    fn reclaim_is_proportional_and_clamped() {
        let cfg = WalConfig {
            capacity_bytes: 1000.0,
            record_bytes: 10.0,
            commit_bytes: 0.0,
            ..Default::default()
        };
        let mut wal = LogManager::new(cfg);
        wal.append(80.0, 1.0);
        wal.drain_tick(0.1);
        assert!((wal.fill_fraction() - 0.8).abs() < 1e-9);
        wal.reclaim(0.5);
        assert!((wal.fill_fraction() - 0.4).abs() < 1e-9);
        wal.reclaim(2.0); // clamped to 1.0
        assert_eq!(wal.fill_fraction(), 0.0);
    }

    #[test]
    fn commit_wait_only_under_batching() {
        let wal = LogManager::new(WalConfig::default());
        assert_eq!(wal.commit_wait_secs(10.0), 0.0);
        assert!(wal.commit_wait_secs(10_000.0) > 0.0);
    }

    #[test]
    fn shared_stream_fewer_forces_than_split_streams() {
        // 20 databases, 50 commits each, 0.1 s tick, 5 ms window.
        // Shared: one stream, forces capped at 20.
        let mut shared = LogManager::new(WalConfig::default());
        shared.append(0.0, 20.0 * 50.0);
        let shared_forces = shared.drain_tick(0.1).forces;
        // Split: 20 streams each capped at 20 forces => 20*20.
        let mut split_total = 0.0;
        for _ in 0..20 {
            let mut wal = LogManager::new(WalConfig::default());
            wal.append(0.0, 50.0);
            split_total += wal.drain_tick(0.1).forces;
        }
        assert!(split_total >= shared_forces * 10.0);
    }
}
