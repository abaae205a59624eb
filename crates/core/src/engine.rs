//! The Consolidation Engine facade: profiles in, deployment plan out.
//!
//! Wraps `kairos-solver` with the Kairos-specific glue: converting
//! monitored [`WorkloadProfile`]s into solver specs, wiring the disk
//! model in, and reporting plans the way a DBA would consume them
//! ("one way to think of Kairos is as a consolidation advisor", §2).

use crate::combiner::{AnalyticDiskCombiner, ModelDiskCombiner};
use kairos_diskmodel::DiskModel;
use kairos_solver::{
    evaluate, fractional_lower_bound, greedy_pack, solve, Assignment, ConsolidationProblem,
    DiskCombiner, ResourceWeights, SolveReport, SolverConfig, TargetMachine, WorkloadSpec,
};
use kairos_types::{KairosError, Result, WorkloadProfile};
use std::sync::Arc;

/// Builder for [`ConsolidationEngine`].
pub struct EngineBuilder {
    target: TargetMachine,
    headroom: f64,
    disk: Option<Arc<dyn DiskCombiner>>,
    max_machines: Option<usize>,
}

impl Default for EngineBuilder {
    fn default() -> EngineBuilder {
        EngineBuilder {
            target: TargetMachine::paper_target(),
            headroom: 0.95,
            disk: None,
            max_machines: None,
        }
    }
}

impl EngineBuilder {
    /// Consolidate onto machines with these capacities (default: the
    /// paper's 12-core / 96 GB target class).
    pub fn target(mut self, target: TargetMachine) -> EngineBuilder {
        self.target = target;
        self
    }

    /// Per-resource utilization ceiling (default 0.95 — the 5 % "margin
    /// of error" of §7.3).
    pub fn headroom(mut self, headroom: f64) -> EngineBuilder {
        assert!((0.0..=1.0).contains(&headroom));
        self.headroom = headroom;
        self
    }

    /// Use a fitted empirical disk model (recommended).
    pub fn disk_model(mut self, model: Arc<DiskModel>) -> EngineBuilder {
        self.disk = Some(Arc::new(ModelDiskCombiner::new(model)));
        self
    }

    /// Cap on target machines (default: one per workload).
    pub fn max_machines(mut self, n: usize) -> EngineBuilder {
        assert!(n >= 1);
        self.max_machines = Some(n);
        self
    }

    pub fn build(self) -> ConsolidationEngine {
        ConsolidationEngine {
            target: self.target,
            headroom: self.headroom,
            weights: ResourceWeights::default(),
            disk: self
                .disk
                .unwrap_or_else(|| Arc::new(AnalyticDiskCombiner::default())),
            solver: SolverConfig::default(),
            max_machines: self.max_machines,
        }
    }
}

/// A placement recommendation for one workload.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Placement {
    pub workload: String,
    pub replica: u32,
    pub machine: usize,
}

/// The engine's output: which workload goes where, and why it is safe.
#[derive(Debug, Clone)]
pub struct ConsolidationPlan {
    pub placements: Vec<Placement>,
    pub report: SolveReport,
    /// Machines before consolidation (one per workload replica).
    pub reference_machines: usize,
}

impl ConsolidationPlan {
    pub fn machines_used(&self) -> usize {
        self.report.assignment.machines_used()
    }

    /// The paper's headline metric.
    pub fn consolidation_ratio(&self) -> f64 {
        self.reference_machines as f64 / self.machines_used().max(1) as f64
    }

    /// Workloads placed on a given machine.
    pub fn on_machine(&self, machine: usize) -> Vec<&Placement> {
        self.placements
            .iter()
            .filter(|p| p.machine == machine)
            .collect()
    }
}

/// Alternative strategies for comparison experiments (Fig 7).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PlanStrategy {
    /// Full Kairos: K′ bounding, then polish of a seed at each K (DIRECT's
    /// best point on problems of at most a dozen free slots).
    Kairos,
    /// Single-resource greedy first-fit (§7.3 baseline).
    Greedy,
}

/// The consolidation engine.
pub struct ConsolidationEngine {
    target: TargetMachine,
    headroom: f64,
    weights: ResourceWeights,
    disk: Arc<dyn DiskCombiner>,
    solver: SolverConfig,
    max_machines: Option<usize>,
}

impl ConsolidationEngine {
    pub fn builder() -> EngineBuilder {
        EngineBuilder::default()
    }

    /// The solver budgets this engine was built with (what
    /// [`ConsolidationEngine::consolidate`] runs under) — exposed so
    /// callers replacing the one-shot solve path can honour them.
    pub fn solver_config(&self) -> SolverConfig {
        self.solver
    }

    /// Convert profiles into a solver problem.
    pub fn problem(&self, profiles: &[WorkloadProfile]) -> Result<ConsolidationProblem> {
        if profiles.is_empty() {
            return Err(KairosError::InvalidInput("no workload profiles".into()));
        }
        let specs: Vec<WorkloadSpec> = profiles
            .iter()
            .map(|p| WorkloadSpec {
                name: p.name.clone(),
                cpu: p.cpu_cores.values().to_vec(),
                ram: p.ram_bytes.values().to_vec(),
                ws: p.disk_working_set_bytes.values().to_vec(),
                rate: p.disk_update_rows_per_sec.values().to_vec(),
                replicas: p.replicas,
                pinned: None,
            })
            .collect();
        let slots: usize = specs.iter().map(|s| s.replicas.max(1) as usize).sum();
        let max_machines = self.max_machines.unwrap_or(slots).max(1);
        let problem =
            ConsolidationProblem::new(specs, self.target, max_machines, self.disk.clone())
                .with_headroom(self.headroom)
                .with_weights(self.weights);
        // Profiles come from outside (monitors, decoded snapshots) and a
        // NaN sample would panic the solver's orderings mid-solve. Every
        // plan needs the slot cache anyway, and building it walks every
        // sample once: build it now and fail as bad input instead.
        let series = problem.slot_series();
        if let Some(slot) = series.non_finite {
            let name = &problem.workloads[series.slots[slot].workload].name;
            return Err(KairosError::InvalidInput(format!(
                "workload {name:?} has a NaN or infinite sample"
            )));
        }
        Ok(problem)
    }

    /// Produce a consolidation plan with the requested strategy.
    pub fn consolidate_with(
        &self,
        profiles: &[WorkloadProfile],
        strategy: PlanStrategy,
    ) -> Result<ConsolidationPlan> {
        let problem = self.problem(profiles)?;
        let slots = &problem.slot_series().slots;
        let report = match strategy {
            PlanStrategy::Kairos => solve(&problem, &self.solver)?,
            PlanStrategy::Greedy => {
                let g = greedy_pack(&problem).ok_or_else(|| {
                    KairosError::Infeasible(
                        "greedy single-resource packing violates cross-resource constraints".into(),
                    )
                })?;
                let evaluation = evaluate(&problem, &g.assignment);
                SolveReport {
                    k_final: g.machines_used,
                    k_bounds: (fractional_lower_bound(&problem), g.machines_used),
                    evals_used: 0,
                    probes: Vec::new(),
                    assignment: g.assignment,
                    evaluation,
                }
            }
        };
        let placements = slots
            .iter()
            .zip(report.assignment.machine_of.iter())
            .map(|(slot, &machine)| Placement {
                workload: problem.workloads[slot.workload].name.clone(),
                replica: slot.replica,
                machine,
            })
            .collect();
        Ok(ConsolidationPlan {
            placements,
            reference_machines: slots.len(),
            report,
        })
    }

    /// Produce the recommended (Kairos) plan.
    pub fn consolidate(&self, profiles: &[WorkloadProfile]) -> Result<ConsolidationPlan> {
        self.consolidate_with(profiles, PlanStrategy::Kairos)
    }

    /// The idealized fractional lower bound on machines (Fig 7's last
    /// comparison line).
    pub fn fractional_bound(&self, profiles: &[WorkloadProfile]) -> Result<usize> {
        Ok(fractional_lower_bound(&self.problem(profiles)?))
    }

    /// Would these workloads fit *together on one target machine* without
    /// violating any constraint? (The §7.2 recommendation check behind
    /// Table 1.)
    pub fn fits_together(&self, profiles: &[WorkloadProfile]) -> Result<bool> {
        let mut problem = self.problem(profiles)?;
        problem.max_machines = 1;
        let n = problem.slots().len();
        let all_on_one = Assignment::new(vec![0; n]);
        Ok(evaluate(&problem, &all_on_one).feasible)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use kairos_types::{Bytes, DiskDemand, Rate};

    fn profile(name: &str, cpu: f64, ram_gb: f64, rate: f64) -> WorkloadProfile {
        WorkloadProfile::flat(
            name,
            300.0,
            6,
            cpu,
            Bytes((ram_gb * 1e9) as u64),
            DiskDemand::new(Bytes((ram_gb * 0.25e9) as u64), Rate(rate)),
        )
    }

    #[test]
    fn engine_consolidates_idle_fleet() {
        let profiles: Vec<WorkloadProfile> = (0..10)
            .map(|i| profile(&format!("w{i}"), 0.4, 4.0, 100.0))
            .collect();
        let engine = ConsolidationEngine::builder().build();
        let plan = engine.consolidate(&profiles).unwrap();
        assert!(plan.report.evaluation.feasible);
        assert!(plan.machines_used() <= 2, "used {}", plan.machines_used());
        assert!(plan.consolidation_ratio() >= 5.0);
        assert_eq!(plan.placements.len(), 10);
    }

    #[test]
    fn greedy_strategy_also_produces_plans() {
        let profiles: Vec<WorkloadProfile> = (0..6)
            .map(|i| profile(&format!("w{i}"), 1.0, 8.0, 500.0))
            .collect();
        let engine = ConsolidationEngine::builder().build();
        let kairos = engine.consolidate(&profiles).unwrap();
        let greedy = engine
            .consolidate_with(&profiles, PlanStrategy::Greedy)
            .unwrap();
        assert!(kairos.machines_used() <= greedy.machines_used());
    }

    #[test]
    fn fits_together_gates_on_capacity() {
        let engine = ConsolidationEngine::builder().build();
        let light = vec![profile("a", 1.0, 4.0, 200.0), profile("b", 1.0, 4.0, 200.0)];
        assert!(engine.fits_together(&light).unwrap());
        let heavy = vec![
            profile("a", 8.0, 60.0, 2_000.0),
            profile("b", 8.0, 60.0, 2_000.0),
        ];
        assert!(!engine.fits_together(&heavy).unwrap());
    }

    #[test]
    fn fractional_bound_reported() {
        let profiles: Vec<WorkloadProfile> = (0..9)
            .map(|i| profile(&format!("w{i}"), 4.0, 8.0, 500.0))
            .collect();
        let engine = ConsolidationEngine::builder().build();
        // 36 cores / (12 × 0.95) = 3.16 → 4 machines.
        assert_eq!(engine.fractional_bound(&profiles).unwrap(), 4);
    }

    #[test]
    fn replicated_profiles_spread() {
        let mut p = profile("r", 0.5, 2.0, 100.0);
        p.replicas = 2;
        let engine = ConsolidationEngine::builder().max_machines(3).build();
        let plan = engine.consolidate(&[p]).unwrap();
        assert_eq!(plan.placements.len(), 2);
        assert_ne!(plan.placements[0].machine, plan.placements[1].machine);
    }

    #[test]
    fn non_finite_sample_is_invalid_input_not_a_panic() {
        // One NaN in one window used to reach DIRECT's candidate ordering
        // (`expect("NaN objective")`) and abort the process.
        let engine = ConsolidationEngine::builder().build();
        for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            let mut profiles = vec![
                profile("a", 2.0, 8.0, 300.0),
                profile("b", 3.0, 8.0, 300.0),
                profile("c", 1.0, 8.0, 300.0),
            ];
            let mut cpu = profiles[1].cpu_cores.values().to_vec();
            cpu[3] = bad;
            profiles[1].cpu_cores = kairos_types::TimeSeries::new(300.0, cpu);
            for strategy in [PlanStrategy::Kairos, PlanStrategy::Greedy] {
                match engine.consolidate_with(&profiles, strategy) {
                    Err(KairosError::InvalidInput(msg)) => {
                        assert!(msg.contains("\"b\""), "must name the workload: {msg}")
                    }
                    other => panic!("expected InvalidInput for {bad}, got {other:?}"),
                }
            }
            assert!(engine.fractional_bound(&profiles).is_err());
        }
    }

    #[test]
    fn empty_profiles_error() {
        let engine = ConsolidationEngine::builder().build();
        assert!(engine.consolidate(&[]).is_err());
    }

    #[test]
    fn plan_lookup_by_machine() {
        let profiles = vec![profile("a", 0.2, 2.0, 50.0), profile("b", 0.2, 2.0, 50.0)];
        let engine = ConsolidationEngine::builder().build();
        let plan = engine.consolidate(&profiles).unwrap();
        let m = plan.placements[0].machine;
        assert!(!plan.on_machine(m).is_empty());
    }
}
