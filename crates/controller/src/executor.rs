//! Migration execution: a routing ledger plus copy-cost arithmetic.
//!
//! The control plane works from telemetry, not from inside the engine, so
//! executing a [`MigrationStep`] records where the tenant now lives and
//! what moving it cost; no simulated host sits underneath. A tenant
//! occupies whole pages of a table sized to its peak working set. Copy
//! time is those bytes over the disk's sequential bandwidth (reader and
//! writer share the spindle, so half bandwidth each way), the dominant
//! cost of a physical-copy migration, and the source copy's bytes are
//! reported as reclaimed once the destination is live.

use crate::migration::{MigrationPlan, MigrationStep};
use kairos_solver::ConsolidationProblem;
use kairos_types::{Bytes, MachineSpec};
use std::collections::BTreeMap;

/// Tenant tables match the paper's ~164-byte rows.
const ROW_BYTES: u64 = 164;
/// Page size of the consolidated (MySQL-style) instance every target
/// machine runs: a tenant's footprint is rounded up to whole pages.
const PAGE_SIZE: Bytes = Bytes::kib(16);

/// One tenant's current physical location.
#[derive(Debug, Clone, Copy)]
struct Tenant {
    machine: usize,
    /// Rows the tenant table was sized to. Checkpointed (rather than the
    /// page-rounded bytes) because the snapshot format has always carried
    /// it and [`Tenant::bytes`] is a function of it.
    rows: u64,
}

impl Tenant {
    /// On-disk footprint: the table's rows rounded up to whole pages.
    fn bytes(&self) -> f64 {
        let pages = Bytes(self.rows * ROW_BYTES).pages(PAGE_SIZE);
        (pages * PAGE_SIZE.0) as f64
    }
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

/// The fleet executor: which machine serves each tenant replica, and
/// what each move costs on the paper's consolidation-target machines.
pub struct FleetExecutor {
    /// Bytes per second one direction of a physical copy gets.
    copy_bytes_per_sec: f64,
    routing: BTreeMap<(String, u32), Tenant>,
}

impl FleetExecutor {
    pub fn new() -> FleetExecutor {
        FleetExecutor {
            copy_bytes_per_sec: MachineSpec::consolidation_target().disk.seq_bytes_per_sec / 2.0,
            routing: BTreeMap::new(),
        }
    }

    /// Machine currently serving a tenant.
    pub fn machine_of(&self, workload: &str, replica: u32) -> Option<usize> {
        self.routing
            .get(&(workload.to_string(), replica))
            .map(|t| t.machine)
    }

    /// Retire a tenant that left the fleet: every replica's routing entry
    /// is dropped.
    pub fn retire(&mut self, workload: &str) {
        self.routing.retain(|(w, _), _| w != workload);
    }

    /// The routing table as checkpointable entries:
    /// `(workload, replica, machine, rows)`, sorted by key.
    pub fn routing_snapshot(&self) -> Vec<(String, u32, usize, u64)> {
        self.routing
            .iter()
            .map(|((w, r), t)| (w.clone(), *r, t.machine, t.rows))
            .collect()
    }

    /// Reinstall checkpointed routing entries. Nothing is rebuilt or
    /// prewarmed: the ledger is the whole of the executor's state.
    pub fn restore_routing(&mut self, entries: &[(String, u32, usize, u64)]) {
        for (workload, replica, machine, rows) in entries {
            let tenant = Tenant {
                machine: *machine,
                rows: *rows,
            };
            self.routing.insert((workload.clone(), *replica), tenant);
        }
    }

    /// Execute one step. Returns (bytes copied, est seconds, source-copy
    /// bytes reclaimed once the destination copy was live).
    fn execute_step(
        &mut self,
        step: &MigrationStep,
        problem: &ConsolidationProblem,
    ) -> (f64, f64, f64) {
        let slot = problem.slot_series().slots[step.mv.slot];
        let spec = &problem.workloads[slot.workload];
        // Size the physical copy by the tenant's peak working set.
        let ws_peak = spec.ws.iter().copied().fold(0.0f64, f64::max).max(1.0);
        let tenant = Tenant {
            machine: step.mv.to,
            rows: (ws_peak / ROW_BYTES as f64).ceil().max(1.0) as u64,
        };
        // The entry this one replaces is the source copy: dropped in
        // full, whichever machine it was on.
        let reclaimed = self
            .routing
            .insert((step.mv.workload.clone(), step.mv.replica), tenant)
            .map_or(0.0, |old| old.bytes());
        if step.mv.is_provision() {
            (0.0, 0.0, reclaimed)
        } else {
            let copied = reclaimed.max(tenant.bytes());
            (copied, copied / self.copy_bytes_per_sec, reclaimed)
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

    /// Machine of every routed replica, in key order.
    fn machines(exec: &FleetExecutor) -> Vec<usize> {
        exec.routing_snapshot().iter().map(|e| e.2).collect()
    }

    #[test]
    fn provisioning_routes_every_tenant() {
        let p = problem(3);
        let from = vec![None, None, None];
        let to = Assignment::new(vec![0, 0, 1]);
        let plan = plan_migration(&p, &from, &to);
        let mut exec = FleetExecutor::new();
        let report = exec.execute(&plan, &p);
        assert_eq!(report.provisions, 3);
        assert_eq!(report.moves, 0);
        assert_eq!(report.bytes_copied, 0.0, "provisions copy nothing");
        assert_eq!(machines(&exec), [0, 0, 1]);
        assert_eq!(exec.machine_of("w2", 0), Some(1));
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
    fn migration_reclaims_the_source_copy() {
        let p = problem(2);
        let mut exec = FleetExecutor::new();
        exec.execute(
            &plan_migration(&p, &[None, None], &Assignment::new(vec![0, 0])),
            &p,
        );

        let plan = plan_migration(&p, &[Some(0), Some(0)], &Assignment::new(vec![0, 1]));
        let report = exec.execute(&plan, &p);
        assert!(
            report.bytes_reclaimed >= 256e6,
            "source copy must be reclaimed, got {}",
            report.bytes_reclaimed
        );
        assert_eq!(
            report.bytes_reclaimed, report.bytes_copied,
            "an unchanged working set is reclaimed byte for byte"
        );
        // No ghost of the tenant stays behind on the source machine.
        assert_eq!(machines(&exec), [0, 1]);
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
    fn retire_drops_every_replica_and_nothing_else() {
        let mut p = problem(2);
        p.workloads[0].replicas = 2;
        let mut exec = FleetExecutor::new();
        let to = Assignment::new(vec![0, 1, 1]);
        exec.execute(&plan_migration(&p, &[None; 3], &to), &p);
        assert_eq!(machines(&exec), [0, 1, 1]);
        exec.retire("w0");
        assert_eq!(machines(&exec), [1]);
        assert_eq!(exec.machine_of("w1", 0), Some(1));
    }

    #[test]
    fn byte_arithmetic_is_what_the_dbsim_backed_executor_produced() {
        // Recorded by running this sequence on the executor that built a
        // dbsim `Host` per machine (commit 2455d19): the ledger must keep
        // dbsim's page rounding to the bit, or every `TickOutcome`,
        // decision trace and chaos fingerprint moves.
        let mut p = problem(3);
        for (w, ws) in [128e6, 300_000_001.0, 512e6].into_iter().enumerate() {
            p.workloads[w].ws = vec![ws; 2];
        }
        let mut exec = FleetExecutor::new();
        let to = Assignment::new(vec![0, 0, 1]);
        let provisioned = exec.execute(&plan_migration(&p, &[None; 3], &to), &p);
        assert_eq!(
            (provisioned.bytes_copied, provisioned.bytes_reclaimed),
            (0.0, 0.0)
        );
        let from = [Some(0), Some(0), Some(1)];
        let to = Assignment::new(vec![0, 1, 1]);
        let moved = exec.execute(&plan_migration(&p, &from, &to), &p);
        assert_eq!((moved.steps, moved.moves), (1, 1));
        assert_eq!(moved.bytes_copied.to_bits(), 0x41b1_e1c0_0000_0000); // 300,007,424
        assert_eq!(moved.est_migration_secs.to_bits(), 0x4014_ced6_1bed_61bf); // 5.2019…
        assert_eq!(moved.bytes_reclaimed.to_bits(), 0x41b1_e1c0_0000_0000);
        let mut expected: Vec<(String, u32, usize, u64)> = vec![
            ("w0".into(), 0, 0, 780_488),
            ("w1".into(), 0, 1, 1_829_269),
            ("w2".into(), 0, 1, 3_121_952),
        ];
        assert_eq!(exec.routing_snapshot(), expected);
        exec.retire("w2");
        expected.pop();
        assert_eq!(exec.routing_snapshot(), expected);
    }
}
