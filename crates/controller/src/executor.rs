//! Migration execution against the simulated fleet.
//!
//! Each target machine is a [`kairos_dbsim::Host`] running one
//! consolidated [`DbmsInstance`] (the configuration Kairos recommends).
//! Executing a [`MigrationStep`] materializes the tenant on its
//! destination — database + table sized to the workload's working set,
//! bounded prewarm — and retires the source copy from the routing table.
//! Copy time is estimated from the tenant's bytes over the disk's
//! sequential bandwidth (reader and writer share the spindle, so half
//! bandwidth each way), the dominant cost of a physical-copy migration.
//!
//! After the destination copy materializes, the source copy is garbage
//! collected: [`kairos_dbsim::Host::remove_database`] drops the tenant's
//! database, discarding its pages from the source buffer pool and
//! reclaiming its disk footprint — so long-running fleets' hosts stay
//! faithful to the placement map instead of accumulating ghost tenants.

use crate::migration::{MigrationPlan, MigrationStep};
use kairos_dbsim::{DbmsConfig, DbmsInstance, Host};
use kairos_solver::ConsolidationProblem;
use kairos_types::{Bytes, MachineSpec};
use std::collections::BTreeMap;

/// Rows in simulated tenant tables match the paper's ~164-byte rows.
const ROW_BYTES: u64 = 164;
/// Prewarm at most this many pages per migrated tenant (bounded warm-up).
const PREWARM_PAGES_CAP: u64 = 4096;

/// One tenant's current physical location.
#[derive(Debug, Clone, Copy)]
struct Tenant {
    machine: usize,
    db: kairos_dbsim::DatabaseId,
    bytes: Bytes,
    /// Rows the tenant table was created with — recorded so a restored
    /// executor can re-materialize the identical table (same pages, same
    /// byte accounting) instead of re-deriving rows from page-rounded
    /// bytes.
    rows: u64,
}

/// What executing a plan did. Serializable: it rides inside
/// [`crate::TickOutcome`], which the RPC shard nodes (`kairos-net`)
/// return to the balancer as wire frames.
#[derive(Debug, Clone, Default, serde::Serialize, serde::Deserialize)]
pub struct ExecutionReport {
    pub steps: usize,
    pub moves: usize,
    pub provisions: usize,
    /// Tenant bytes physically copied between machines.
    pub bytes_copied: f64,
    /// Estimated wall-clock migration time (copy at half sequential
    /// bandwidth per direction).
    pub est_migration_secs: f64,
    /// Steps that had to run through a transient overload.
    pub forced_steps: usize,
    /// Source-copy bytes reclaimed by tenant GC after moves completed.
    pub bytes_reclaimed: f64,
}

/// The simulated fleet executor.
pub struct FleetExecutor {
    machine_class: MachineSpec,
    consolidated_pool: Bytes,
    hosts: Vec<Host>,
    routing: BTreeMap<(String, u32), Tenant>,
}

impl FleetExecutor {
    /// A fleet of the paper's consolidation-target machines.
    pub fn new() -> FleetExecutor {
        FleetExecutor::with_machine(MachineSpec::consolidation_target(), Bytes::gib(8))
    }

    /// A fleet of a custom machine class, each host running one
    /// consolidated instance with the given buffer pool.
    pub fn with_machine(machine_class: MachineSpec, consolidated_pool: Bytes) -> FleetExecutor {
        FleetExecutor {
            machine_class,
            consolidated_pool,
            hosts: Vec::new(),
            routing: BTreeMap::new(),
        }
    }

    fn ensure_host(&mut self, machine: usize) {
        while self.hosts.len() <= machine {
            let mut spec = self.machine_class.clone();
            spec.name = format!("{}-{}", self.machine_class.name, self.hosts.len());
            let mut host = Host::new(spec);
            host.add_instance(DbmsInstance::new(DbmsConfig::mysql(self.consolidated_pool)));
            self.hosts.push(host);
        }
    }

    /// Hosts provisioned so far.
    pub fn hosts(&self) -> &[Host] {
        &self.hosts
    }

    /// Machine currently serving a tenant.
    pub fn machine_of(&self, workload: &str, replica: u32) -> Option<usize> {
        self.routing
            .get(&(workload.to_string(), replica))
            .map(|t| t.machine)
    }

    /// Tenants currently routed to `machine`.
    pub fn tenants_on(&self, machine: usize) -> usize {
        self.routing
            .values()
            .filter(|t| t.machine == machine)
            .count()
    }

    /// Retire a tenant that left the fleet: routing entries dropped and
    /// every replica's database garbage-collected from its host.
    pub fn retire(&mut self, workload: &str) {
        let gone: Vec<Tenant> = self
            .routing
            .iter()
            .filter(|((w, _), _)| w == workload)
            .map(|(_, t)| *t)
            .collect();
        self.routing.retain(|(w, _), _| w != workload);
        for t in gone {
            self.gc_tenant(&t);
        }
    }

    /// Drop a retired copy's database from its host (tenant GC). Bytes
    /// reclaimed, or 0.0 when the host never materialized it.
    fn gc_tenant(&mut self, tenant: &Tenant) -> f64 {
        match self.hosts.get_mut(tenant.machine) {
            Some(host) => host
                .remove_database(0, tenant.db)
                .map(|b| b.as_f64())
                .unwrap_or(0.0),
            None => 0.0,
        }
    }

    /// Materialize one tenant on `machine` (database + working-set-sized
    /// table + bounded prewarm). Returns the tenant bytes.
    fn materialize(
        &mut self,
        workload: &str,
        replica: u32,
        machine: usize,
        ws_bytes: f64,
    ) -> Bytes {
        let rows = (ws_bytes / ROW_BYTES as f64).ceil().max(1.0) as u64;
        self.materialize_rows(workload, replica, machine, rows)
    }

    /// [`FleetExecutor::materialize`] with an explicit row count — the
    /// restore path re-creates checkpointed tenants through this, so the
    /// rebuilt tables match the originals page-for-page.
    fn materialize_rows(
        &mut self,
        workload: &str,
        replica: u32,
        machine: usize,
        rows: u64,
    ) -> Bytes {
        self.ensure_host(machine);
        let inst = self.hosts[machine].instance_mut(0);
        let db = inst.create_database(format!("{workload}#{replica}"));
        let table = inst
            .create_table(db, rows, ROW_BYTES)
            .expect("tenant table on a freshly ensured database");
        let pages = inst.table_pages(table);
        inst.prewarm_pages(table, pages.min(PREWARM_PAGES_CAP));
        let bytes = inst.table_bytes(table);
        self.routing.insert(
            (workload.to_string(), replica),
            Tenant {
                machine,
                db,
                bytes,
                rows,
            },
        );
        bytes
    }

    /// The routing table as checkpointable entries:
    /// `(workload, replica, machine, rows)`, sorted by key.
    pub fn routing_snapshot(&self) -> Vec<(String, u32, usize, u64)> {
        self.routing
            .iter()
            .map(|((w, r), t)| (w.clone(), *r, t.machine, t.rows))
            .collect()
    }

    /// Rebuild the executor's fleet from checkpointed routing entries:
    /// every tenant is re-materialized on its machine with its original
    /// row count (fresh database ids, bounded prewarm — the same state a
    /// real restart would rebuild from a physical copy).
    pub fn restore_routing(&mut self, entries: &[(String, u32, usize, u64)]) {
        for (workload, replica, machine, rows) in entries {
            self.materialize_rows(workload, *replica, *machine, *rows);
        }
    }

    /// Execute one step. Returns (bytes copied, est seconds, bytes GC'd
    /// from the source host once the destination copy was live).
    fn execute_step(
        &mut self,
        step: &MigrationStep,
        problem: &ConsolidationProblem,
    ) -> (f64, f64, f64) {
        let slot = problem.slot_series().slots[step.mv.slot];
        let spec = &problem.workloads[slot.workload];
        // Size the physical copy by the tenant's peak working set.
        let ws_peak = spec.ws.iter().copied().fold(0.0f64, f64::max).max(1.0);
        let old = self
            .routing
            .get(&(step.mv.workload.clone(), step.mv.replica))
            .copied();
        let moved_bytes = old.map(|t| t.bytes.as_f64()).unwrap_or(0.0);
        let bytes = self
            .materialize(&step.mv.workload, step.mv.replica, step.mv.to, ws_peak)
            .as_f64();
        // The move is complete: drop the source copy (DROP DATABASE) so
        // the old host's pool and disk footprint shrink accordingly. The
        // destination copy is always a fresh database, so the old one is
        // garbage even on a same-machine re-materialization.
        let reclaimed = old.map(|t| self.gc_tenant(&t)).unwrap_or(0.0);
        if step.mv.is_provision() {
            (0.0, 0.0, reclaimed)
        } else {
            let copied = moved_bytes.max(bytes);
            let half_bw = self.machine_class.disk.seq_bytes_per_sec / 2.0;
            (copied, copied / half_bw.max(1.0), reclaimed)
        }
    }

    /// Execute a whole plan step-by-step, in order.
    pub fn execute(
        &mut self,
        plan: &MigrationPlan,
        problem: &ConsolidationProblem,
    ) -> ExecutionReport {
        let mut report = ExecutionReport::default();
        for step in &plan.steps {
            let (copied, secs, reclaimed) = self.execute_step(step, problem);
            report.steps += 1;
            if step.mv.is_provision() {
                report.provisions += 1;
            } else {
                report.moves += 1;
            }
            if step.forced {
                report.forced_steps += 1;
            }
            report.bytes_copied += copied;
            report.est_migration_secs += secs;
            report.bytes_reclaimed += reclaimed;
        }
        report
    }
}

impl Default for FleetExecutor {
    fn default() -> FleetExecutor {
        FleetExecutor::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::migration::plan_migration;
    use kairos_solver::{Assignment, LinearDiskCombiner, TargetMachine, WorkloadSpec};
    use std::sync::Arc;

    fn problem(n: usize) -> ConsolidationProblem {
        let w = (0..n)
            .map(|i| WorkloadSpec::flat(format!("w{i}"), 2, 1.0, 2e9, 256e6, 50.0))
            .collect();
        ConsolidationProblem::new(
            w,
            TargetMachine::paper_target(),
            n,
            Arc::new(LinearDiskCombiner::default()),
        )
    }

    #[test]
    fn provisioning_creates_tenants_on_hosts() {
        let p = problem(3);
        let from = vec![None, None, None];
        let to = Assignment::new(vec![0, 0, 1]);
        let plan = plan_migration(&p, &from, &to);
        let mut exec = FleetExecutor::new();
        let report = exec.execute(&plan, &p);
        assert_eq!(report.provisions, 3);
        assert_eq!(report.moves, 0);
        assert_eq!(report.bytes_copied, 0.0, "provisions copy nothing");
        assert_eq!(exec.tenants_on(0), 2);
        assert_eq!(exec.tenants_on(1), 1);
        assert_eq!(exec.machine_of("w2", 0), Some(1));
        // The dbsim hosts really carry the databases.
        assert_eq!(exec.hosts()[0].instance(0).databases().len(), 2);
        assert_eq!(exec.hosts()[1].instance(0).databases().len(), 1);
    }

    #[test]
    fn moves_copy_bytes_and_update_routing() {
        let p = problem(2);
        let mut exec = FleetExecutor::new();
        // Provision first.
        let plan0 = plan_migration(&p, &[None, None], &Assignment::new(vec![0, 0]));
        exec.execute(&plan0, &p);
        // Then migrate w1 to machine 1.
        let plan1 = plan_migration(&p, &[Some(0), Some(0)], &Assignment::new(vec![0, 1]));
        let report = exec.execute(&plan1, &p);
        assert_eq!(report.moves, 1);
        assert!(
            report.bytes_copied >= 256e6,
            "copied {}",
            report.bytes_copied
        );
        assert!(report.est_migration_secs > 0.0);
        assert_eq!(exec.machine_of("w1", 0), Some(1));
    }

    #[test]
    fn retire_drops_routing() {
        let p = problem(1);
        let mut exec = FleetExecutor::new();
        exec.execute(&plan_migration(&p, &[None], &Assignment::new(vec![0])), &p);
        assert_eq!(exec.tenants_on(0), 1);
        exec.retire("w0");
        assert_eq!(exec.tenants_on(0), 0);
    }

    #[test]
    fn migration_gcs_source_copy() {
        let p = problem(2);
        let mut exec = FleetExecutor::new();
        exec.execute(
            &plan_migration(&p, &[None, None], &Assignment::new(vec![0, 0])),
            &p,
        );
        assert_eq!(exec.hosts()[0].instance(0).live_databases().count(), 2);
        let resident_before = exec.hosts()[0].instance(0).pool_resident_pages();
        assert!(resident_before > 0, "prewarm must populate the pool");

        let plan = plan_migration(&p, &[Some(0), Some(0)], &Assignment::new(vec![0, 1]));
        let report = exec.execute(&plan, &p);
        assert!(
            report.bytes_reclaimed >= 256e6,
            "source copy must be reclaimed, got {}",
            report.bytes_reclaimed
        );
        // The ghost tenant is gone from the source host: one live
        // database and a smaller resident working set.
        assert_eq!(exec.hosts()[0].instance(0).live_databases().count(), 1);
        assert!(exec.hosts()[0].instance(0).pool_resident_pages() < resident_before);
        assert_eq!(exec.hosts()[1].instance(0).live_databases().count(), 1);
        assert_eq!(exec.machine_of("w1", 0), Some(1));
    }

    #[test]
    fn every_step_of_a_replicated_plan_sizes_and_routes_its_own_tenant() {
        // With replicas a slot index is not a workload index, so each
        // step must find its workload through the problem's slot list.
        let mut p = problem(3);
        for (w, (replicas, ws)) in [(2, 128e6), (1, 512e6), (3, 256e6)].into_iter().enumerate() {
            p.workloads[w].replicas = replicas;
            p.workloads[w].ws = vec![ws; 2];
        }
        let to = Assignment::new(vec![0, 1, 2, 3, 4, 5]);
        let mut exec = FleetExecutor::new();
        let report = exec.execute(&plan_migration(&p, &[None; 6], &to), &p);
        assert_eq!(report.steps, 6);
        let rows = |ws: f64| (ws / ROW_BYTES as f64).ceil() as u64;
        let expected: Vec<(String, u32, usize, u64)> = vec![
            ("w0".into(), 0, 0, rows(128e6)),
            ("w0".into(), 1, 1, rows(128e6)),
            ("w1".into(), 0, 2, rows(512e6)),
            ("w2".into(), 0, 3, rows(256e6)),
            ("w2".into(), 1, 4, rows(256e6)),
            ("w2".into(), 2, 5, rows(256e6)),
        ];
        assert_eq!(exec.routing_snapshot(), expected);
    }

    #[test]
    fn retire_gcs_all_replicas() {
        let p = problem(1);
        let mut exec = FleetExecutor::new();
        exec.execute(&plan_migration(&p, &[None], &Assignment::new(vec![0])), &p);
        assert_eq!(exec.hosts()[0].instance(0).live_databases().count(), 1);
        exec.retire("w0");
        assert_eq!(exec.hosts()[0].instance(0).live_databases().count(), 0);
        assert_eq!(exec.hosts()[0].instance(0).pool_resident_pages(), 0);
    }
}
