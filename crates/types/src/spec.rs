//! Physical machine descriptions and CPU normalization.
//!
//! §6 of the paper: "The CPU utilization reported by the Linux kernel is
//! expressed as a percentage of one CPU core. [...] We first convert the
//! percentages from heterogeneous machines to a 'standard' core by scaling
//! based on clock speed. Then we convert the utilization to a fraction of a
//! 'target' machine." [`CpuSpec::standardized_cores`] is the first step;
//! the second is a division by the target's standardized cores.

use crate::units::Bytes;
use serde::{Deserialize, Serialize};

/// Reference clock speed (GHz) of a "standard" core. The paper's target
/// machines run 2.66–3.2 GHz Xeons; we standardize on 2.66 GHz (Server 1).
pub const STANDARD_CORE_GHZ: f64 = 2.66;

/// CPU hardware description.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct CpuSpec {
    /// Physical core count.
    pub cores: u32,
    /// Per-core clock in GHz.
    pub clock_ghz: f64,
}

impl CpuSpec {
    pub fn new(cores: u32, clock_ghz: f64) -> CpuSpec {
        assert!(cores > 0, "CPU must have at least one core");
        assert!(clock_ghz > 0.0, "clock speed must be positive");
        CpuSpec { cores, clock_ghz }
    }

    /// Capacity expressed in standard-core units (core count scaled by
    /// clock relative to [`STANDARD_CORE_GHZ`]).
    pub fn standardized_cores(&self) -> f64 {
        self.cores as f64 * self.clock_ghz / STANDARD_CORE_GHZ
    }
}

/// RAM description. `reserved` is memory the OS and DBMS binaries use and
/// is unavailable for buffer pools (≈64 MB OS + ≈190 MB DBMS in §7.4).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct RamSpec {
    pub total: Bytes,
    pub reserved: Bytes,
}

impl RamSpec {
    pub fn new(total: Bytes) -> RamSpec {
        RamSpec {
            total,
            reserved: Bytes::mib(254),
        }
    }

    pub fn with_reserved(total: Bytes, reserved: Bytes) -> RamSpec {
        RamSpec { total, reserved }
    }
}

/// Disk hardware description used by the disk device model.
///
/// A 7200 RPM SATA drive (the paper's test hardware) does roughly
/// 100–130 MB/s sequential and ~120 random IOPS; sorted (elevator) writes
/// land in between.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct DiskSpec {
    /// Sequential bandwidth in bytes/second (log writes).
    pub seq_bytes_per_sec: f64,
    /// Random IOPS at queue depth 1 (uncoordinated page I/O).
    pub random_iops: f64,
    /// Multiplier on random IOPS when requests are elevator-sorted with a
    /// deep queue (DBMS write-back of dirty pages in page order).
    pub elevator_gain: f64,
    /// Device settle time for a log force (fsync). Commodity drives with
    /// write caching acknowledge forces in ~1–2 ms rather than a full
    /// seek+rotation.
    pub force_settle_secs: f64,
    /// Page size used for page-granular I/O accounting.
    pub page_size: Bytes,
}

impl DiskSpec {
    /// The paper's single 7200 RPM SATA disk.
    pub fn sata_7200rpm() -> DiskSpec {
        DiskSpec {
            seq_bytes_per_sec: 110.0 * 1024.0 * 1024.0,
            random_iops: 120.0,
            elevator_gain: 18.0,
            force_settle_secs: 0.0015,
            page_size: Bytes::kib(16),
        }
    }

    /// Effective IOPS for sorted write-back at a given average batch size.
    /// Elevator scheduling amortizes seeks across a sorted batch; the gain
    /// saturates logarithmically with batch depth.
    pub fn sorted_iops(&self, batch: f64) -> f64 {
        let depth_factor =
            1.0 + (self.elevator_gain - 1.0) * (1.0 + batch.max(0.0)).ln() / (1.0 + 512.0f64).ln();
        self.random_iops * depth_factor.min(self.elevator_gain)
    }
}

/// A physical machine: CPU + RAM + one disk.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MachineSpec {
    pub name: String,
    pub cpu: CpuSpec,
    pub ram: RamSpec,
    pub disk: DiskSpec,
}

impl MachineSpec {
    /// "Server 1" from §7.1: two quad-core Xeon 2.66 GHz, 32 GB RAM,
    /// single 7200 RPM SATA disk.
    pub fn server1() -> MachineSpec {
        MachineSpec {
            name: "server1".to_string(),
            cpu: CpuSpec::new(8, 2.66),
            ram: RamSpec::new(Bytes::gib(32)),
            disk: DiskSpec::sata_7200rpm(),
        }
    }

    /// "Server 2" from §7.1: two Xeon 3.2 GHz, 2 GB RAM, SATA disk.
    pub fn server2() -> MachineSpec {
        MachineSpec {
            name: "server2".to_string(),
            cpu: CpuSpec::new(2, 3.2),
            ram: RamSpec::new(Bytes::gib(2)),
            disk: DiskSpec::sata_7200rpm(),
        }
    }

    /// The consolidation target of §7.1: 12 cores and 96 GB of RAM
    /// (the "higher-end class of machines used by two of our data
    /// providers", USD 6–10 k in 2011).
    pub fn consolidation_target() -> MachineSpec {
        MachineSpec {
            name: "target-12c-96g".to_string(),
            cpu: CpuSpec::new(12, 2.66),
            ram: RamSpec::new(Bytes::gib(96)),
            disk: DiskSpec::sata_7200rpm(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn standardized_cores_scales_by_clock() {
        let cpu = CpuSpec::new(4, STANDARD_CORE_GHZ * 2.0);
        assert!((cpu.standardized_cores() - 8.0).abs() < 1e-12);
    }

    #[test]
    fn sorted_iops_monotone_in_batch_and_bounded() {
        let d = DiskSpec::sata_7200rpm();
        let a = d.sorted_iops(1.0);
        let b = d.sorted_iops(64.0);
        let c = d.sorted_iops(100_000.0);
        assert!(a < b, "deeper batches must sort better: {a} vs {b}");
        assert!(b < c || (c - b).abs() < 1e-9);
        assert!(c <= d.random_iops * d.elevator_gain + 1e-9);
    }

    #[test]
    fn sorted_iops_at_zero_batch_is_random_iops() {
        let d = DiskSpec::sata_7200rpm();
        assert!((d.sorted_iops(0.0) - d.random_iops).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "at least one core")]
    fn cpu_rejects_zero_cores() {
        CpuSpec::new(0, 2.0);
    }

    #[test]
    fn server_specs_are_sane() {
        let s1 = MachineSpec::server1();
        assert_eq!(s1.cpu.cores, 8);
        let target = MachineSpec::consolidation_target();
        assert_eq!(target.cpu.cores, 12);
        assert_eq!(target.ram.total, Bytes::gib(96));
    }
}
