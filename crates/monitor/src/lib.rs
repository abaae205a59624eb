//! # kairos-monitor — the Resource Monitor (§3)
//!
//! "Kairos includes an automated statistics collection tool that captures
//! data from the DBMS and OS to estimate the resource consumption of
//! individual databases while running."
//!
//! Two halves:
//!
//! * [`monitor::ResourceMonitor`] — periodic sampling of OS-level (CPU,
//!   RAM, iostat) and DBMS-level (buffer-pool, log) counters, producing
//!   [`kairos_types::WorkloadProfile`]s for the consolidation engine;
//! * [`gauge::BufferGauge`] — the buffer-pool gauging technique of §3.1
//!   (Fig 3): grow a probe table inside the DBMS, keep it hot with
//!   periodic scans, and watch physical reads to find the true working-set
//!   size that the OS's "active memory" metric hides.

pub mod gauge;
pub mod monitor;

pub use gauge::{BufferGauge, GaugeEnv, GaugeOutcome, GaugeParams, GaugeStep, SimGaugeEnv};
pub use monitor::{MonitorSample, ResourceMonitor};
