//! A physical host: one CPU, one disk, and one or more DBMS instances.
//!
//! The consolidated configuration Kairos recommends runs a *single*
//! instance hosting many databases. The baselines of §7.4 run one instance
//! per database, either as plain OS processes ("OS virtualization") or
//! inside hardware virtual machines. [`VirtOverheads`] captures the costs
//! those baselines pay:
//!
//! * a hypervisor CPU tax on all work (binary translation / vm-exits),
//! * fixed per-instance background CPU (extra OS + DBMS copies),
//! * context-switch overhead growing with the number of co-scheduled
//!   instances,
//! * and — implicitly, through per-instance [`crate::wal::LogManager`]s —
//!   the loss of shared group commit and of pool-wide sorted write-back
//!   (the host divides the elevator batch depth by the instance count).

use crate::cpu::CpuDevice;
use crate::disk::{DiskDevice, DiskTickDemand};
use crate::engine::{DbmsInstance, DeviceGrant, InstanceDemand, OpBatch, TickResult};
use crate::pages::DatabaseId;
use kairos_types::MachineSpec;

/// CPU/RAM penalties of running many isolated instances instead of one
/// consolidated DBMS.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct VirtOverheads {
    /// Multiplier on every instance's CPU demand (0 = none).
    pub cpu_tax: f64,
    /// Fixed standardized cores consumed per instance (idle OS + DBMS
    /// background work beyond the first instance's baseline).
    pub per_instance_cores: f64,
    /// Additional cores consumed per instance when more than one instance
    /// runs (context switches, cache pollution).
    pub context_switch_cores: f64,
}

impl VirtOverheads {
    /// The consolidated configuration: a single shared instance.
    pub fn none() -> VirtOverheads {
        VirtOverheads {
            cpu_tax: 0.0,
            per_instance_cores: 0.0,
            context_switch_cores: 0.0,
        }
    }

    /// One MySQL process per database on one kernel (§7.4's "OS
    /// virtualization", akin to containers/zones).
    pub fn os_processes() -> VirtOverheads {
        VirtOverheads {
            cpu_tax: 0.02,
            per_instance_cores: 0.012,
            context_switch_cores: 0.006,
        }
    }

    /// One VM per database under a hypervisor (§7.4's VMware ESXi setup).
    pub fn hypervisor() -> VirtOverheads {
        VirtOverheads {
            cpu_tax: 0.13,
            per_instance_cores: 0.03,
            context_switch_cores: 0.012,
        }
    }
}

/// Outcome of one host tick.
#[derive(Debug, Clone, Default)]
pub struct HostTickReport {
    pub per_instance: Vec<TickResult>,
    pub cpu_utilization: f64,
    pub disk_utilization: f64,
    /// Total committed transactions across all instances.
    pub committed_txns: f64,
}

/// A physical machine running one or more DBMS instances.
#[derive(Debug)]
pub struct Host {
    spec: MachineSpec,
    cpu: CpuDevice,
    disk: DiskDevice,
    instances: Vec<DbmsInstance>,
    overheads: VirtOverheads,
    sim_secs: f64,
}

impl Host {
    pub fn new(spec: MachineSpec) -> Host {
        let cpu = CpuDevice::new(spec.cpu);
        let disk = DiskDevice::new(spec.disk);
        Host {
            spec,
            cpu,
            disk,
            instances: Vec::new(),
            overheads: VirtOverheads::none(),
            sim_secs: 0.0,
        }
    }

    pub fn with_overheads(mut self, overheads: VirtOverheads) -> Host {
        self.overheads = overheads;
        self
    }

    pub fn spec(&self) -> &MachineSpec {
        &self.spec
    }

    pub fn overheads(&self) -> &VirtOverheads {
        &self.overheads
    }

    pub fn add_instance(&mut self, instance: DbmsInstance) -> usize {
        self.instances.push(instance);
        self.instances.len() - 1
    }

    pub fn instance(&self, idx: usize) -> &DbmsInstance {
        &self.instances[idx]
    }

    pub fn instance_mut(&mut self, idx: usize) -> &mut DbmsInstance {
        &mut self.instances[idx]
    }

    pub fn instances(&self) -> &[DbmsInstance] {
        &self.instances
    }

    /// Advance the host by one tick of `dt` seconds.
    ///
    /// `loads[i]` is the offered work for instance `i`. Missing entries
    /// mean an idle instance (background flushing still happens).
    pub fn tick(&mut self, dt: f64, loads: &[Vec<(DatabaseId, OpBatch)>]) -> HostTickReport {
        let k = self.instances.len();
        let empty: Vec<(DatabaseId, OpBatch)> = Vec::new();

        // Phase 1: gather demand.
        let mut demands: Vec<InstanceDemand> = Vec::with_capacity(k);
        for (i, inst) in self.instances.iter_mut().enumerate() {
            let load = loads.get(i).unwrap_or(&empty);
            demands.push(inst.prepare_tick(dt, load));
        }

        // Phase 2: aggregate onto shared devices.
        let ov = &self.overheads;
        let active = k.max(1) as f64;
        let mut cpu_demand = 0.0;
        let mut disk_demand = DiskTickDemand::default();
        let mut total_wb_request = 0.0;
        for d in &demands {
            cpu_demand += d.cpu_core_secs * (1.0 + ov.cpu_tax);
            disk_demand.log_bytes += d.log_bytes;
            disk_demand.log_forces += d.log_forces;
            disk_demand.read_pages += d.read_pages;
            total_wb_request += d.writeback_pages;
            disk_demand.writeback_batch += d.writeback_batch;
        }
        cpu_demand += ov.per_instance_cores * active * dt;
        if k > 1 {
            cpu_demand += ov.context_switch_cores * active * dt;
        }
        disk_demand.writeback_pages = total_wb_request;
        // Independent instances each sort only their own stream, so the
        // device-level elevator batch is divided by the instance count.
        disk_demand.writeback_batch /= active;

        let cpu_served = self.cpu.serve(dt, cpu_demand);
        let disk_served = self.disk.serve(dt, disk_demand);

        // Phase 3: distribute grants and complete.
        let mut report = HostTickReport {
            per_instance: Vec::with_capacity(k),
            cpu_utilization: cpu_served.utilization,
            disk_utilization: disk_served.utilization,
            committed_txns: 0.0,
        };
        for (i, inst) in self.instances.iter_mut().enumerate() {
            let share = if total_wb_request > 0.0 {
                demands[i].writeback_pages / total_wb_request
            } else {
                0.0
            };
            let grant = DeviceGrant {
                fg_fraction: disk_served.foreground_fraction,
                writeback_pages: disk_served.writeback_pages * share,
                cpu_fraction: cpu_served.fraction,
                cpu_latency_factor: cpu_served.latency_factor,
                read_service_secs: disk_served.read_service_secs,
                disk_utilization: disk_served.utilization,
            };
            let r = inst.complete_tick(dt, grant);
            report.committed_txns += r.committed_txns;
            report.per_instance.push(r);
        }
        self.sim_secs += dt;
        report
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{DbmsConfig, UpdateSpec};
    use kairos_types::Bytes;

    fn tpcc_like_batch(
        inst: &mut DbmsInstance,
        _db: DatabaseId,
        table: crate::pages::TableId,
        txns: f64,
    ) -> OpBatch {
        let _ = inst;
        OpBatch {
            txns,
            updates: vec![UpdateSpec {
                table,
                prefix_pages: 0,
                rows: txns * 10.0,
            }],
            cpu_core_secs: txns * 0.4e-3,
            base_latency_secs: 0.01,
            ..Default::default()
        }
    }

    fn host_with_one_instance() -> (Host, DatabaseId, crate::pages::TableId) {
        let mut host = Host::new(MachineSpec::server1());
        let mut inst = DbmsInstance::new(DbmsConfig::mysql(Bytes::mib(64)));
        let db = inst.create_database("app");
        let t = inst.create_table(db, 100_000, 164).unwrap();
        inst.prewarm_table(t);
        host.add_instance(inst);
        (host, db, t)
    }

    #[test]
    fn single_instance_ticks_and_commits() {
        let (mut host, db, t) = host_with_one_instance();
        let mut total = 0.0;
        for _ in 0..50 {
            let batch = {
                let inst = host.instance_mut(0);
                tpcc_like_batch(inst, db, t, 10.0)
            };
            let r = host.tick(0.1, &[vec![(db, batch)]]);
            total += r.committed_txns;
        }
        // 10 txns per 0.1 s tick = 100 tps, easily within capacity.
        assert!((total - 500.0).abs() < 5.0, "committed {total}");
    }

    #[test]
    fn idle_instance_still_flushes() {
        let (mut host, db, t) = host_with_one_instance();
        // Dirty some pages.
        let batch = {
            let inst = host.instance_mut(0);
            tpcc_like_batch(inst, db, t, 100.0)
        };
        host.tick(0.1, &[vec![(db, batch)]]);
        let dirty_before = host.instance(0).pool_dirty_pages();
        assert!(dirty_before > 0);
        // Idle ticks: background flusher should drain.
        for _ in 0..200 {
            host.tick(0.1, &[]);
        }
        assert!(host.instance(0).pool_dirty_pages() < dirty_before / 4);
    }

    #[test]
    fn cpu_saturation_caps_throughput() {
        let (mut host, db, t) = host_with_one_instance();
        // Demand far beyond 8 cores: 10k txns/tick * 0.4 ms = 4 core-sec
        // per 0.1 s tick => needs 40 cores.
        let mut committed = 0.0;
        for _ in 0..20 {
            let batch = {
                let inst = host.instance_mut(0);
                tpcc_like_batch(inst, db, t, 10_000.0)
            };
            let r = host.tick(0.1, &[vec![(db, batch)]]);
            committed += r.committed_txns;
        }
        let offered = 10_000.0 * 20.0;
        assert!(committed < offered * 0.5, "CPU must throttle: {committed}");
    }

    #[test]
    fn hypervisor_overheads_inflate_cpu_and_cost_throughput() {
        // Same 8-instance load with and without hypervisor overheads: the
        // virtualized run must burn more CPU, and under CPU saturation it
        // must commit less.
        let run = |overheads: VirtOverheads, txns_per_tick: f64| -> (f64, f64) {
            let mut host = Host::new(MachineSpec::server2()).with_overheads(overheads);
            let mut handles = Vec::new();
            for i in 0..8 {
                let mut cfg = DbmsConfig::mysql(Bytes::mib(24));
                cfg.seed = 42 + i as u64;
                let mut inst = DbmsInstance::new(cfg);
                let db = inst.create_database(format!("db{i}"));
                let t = inst.create_table(db, 50_000, 164).unwrap();
                inst.prewarm_table(t);
                host.add_instance(inst);
                handles.push((db, t));
            }
            let mut committed = 0.0;
            let mut cpu_util = 0.0;
            let ticks = 50;
            for _ in 0..ticks {
                let loads: Vec<Vec<(DatabaseId, OpBatch)>> = handles
                    .iter()
                    .map(|&(db, t)| {
                        vec![(
                            db,
                            OpBatch {
                                txns: txns_per_tick,
                                updates: vec![UpdateSpec {
                                    table: t,
                                    prefix_pages: 0,
                                    rows: txns_per_tick,
                                }],
                                cpu_core_secs: txns_per_tick * 1.0e-3,
                                base_latency_secs: 0.01,
                                ..Default::default()
                            },
                        )]
                    })
                    .collect();
                let r = host.tick(0.1, &loads);
                committed += r.committed_txns;
                cpu_util += r.cpu_utilization;
            }
            (committed, cpu_util / ticks as f64)
        };
        // Light load: same throughput, higher CPU utilization under the
        // hypervisor.
        let (c_plain, u_plain) = run(VirtOverheads::none(), 5.0);
        let (c_hyper, u_hyper) = run(VirtOverheads::hypervisor(), 5.0);
        assert!((c_plain - c_hyper).abs() < 1e-6);
        assert!(u_hyper > u_plain * 1.05, "{u_hyper} vs {u_plain}");
        // CPU-saturating load: the tax turns into lost throughput.
        let (c_plain, _) = run(VirtOverheads::none(), 150.0);
        let (c_hyper, _) = run(VirtOverheads::hypervisor(), 150.0);
        assert!(
            c_hyper < c_plain * 0.97,
            "hypervisor should cost throughput: {c_hyper} vs {c_plain}"
        );
    }

    #[test]
    fn utilizations_reported_in_bounds() {
        let (mut host, db, t) = host_with_one_instance();
        let batch = {
            let inst = host.instance_mut(0);
            tpcc_like_batch(inst, db, t, 200.0)
        };
        let r = host.tick(0.1, &[vec![(db, batch)]]);
        assert!((0.0..=1.0).contains(&r.cpu_utilization));
        assert!((0.0..=1.0).contains(&r.disk_utilization));
    }
}
