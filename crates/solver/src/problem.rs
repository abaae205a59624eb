//! The consolidation problem (§5).
//!
//! Inputs: "a list of machines with disk, memory, and CPU capacities, and
//! a collection of workload profiles specifying the resource utilization
//! of each resource as a time series sampled at regular intervals", plus
//! replication counts and pinning.
//!
//! Targets are homogeneous (the paper consolidates onto identical
//! 12-core / 96 GB machines); heterogeneous *sources* are handled upstream
//! by CPU standardization (§6).

use std::sync::{Arc, OnceLock};

/// How disk demands combine on one machine — the non-linear piece the
/// solver treats as a black box (implemented by `kairos-core` with the
/// fitted [`kairos_diskmodel::DiskModel`], or by [`LinearDiskCombiner`]
/// for the naive baseline).
pub trait DiskCombiner: Send + Sync {
    /// Utilization of a machine's disk running the combined demand
    /// (aggregate working set, aggregate update rate); 1.0 = saturated.
    fn utilization(&self, ws_bytes: f64, rows_per_sec: f64) -> f64;
}

/// Naive additive disk model: every updated row costs a fixed number of
/// bytes against a fixed bandwidth — what "summing iostat" assumes.
#[derive(Debug, Clone)]
pub struct LinearDiskCombiner {
    pub bytes_per_row: f64,
    pub max_write_bytes_per_sec: f64,
}

impl Default for LinearDiskCombiner {
    fn default() -> LinearDiskCombiner {
        LinearDiskCombiner {
            bytes_per_row: 1200.0,
            max_write_bytes_per_sec: 25e6,
        }
    }
}

impl DiskCombiner for LinearDiskCombiner {
    fn utilization(&self, _ws_bytes: f64, rows_per_sec: f64) -> f64 {
        rows_per_sec * self.bytes_per_row / self.max_write_bytes_per_sec
    }
}

/// One workload's resource needs over the planning horizon. All series
/// share the problem's window count (shorter series read as zero).
///
/// Serializable: specs are the *inputs* half of a problem snapshot
/// (machine class, headroom and the disk combiner come from the engine
/// that rebuilds the problem), so a checkpointed control plane can
/// re-construct bit-identical solves after a restart.
#[derive(Debug, Clone, serde::Serialize, serde::Deserialize)]
pub struct WorkloadSpec {
    pub name: String,
    /// CPU per window, standardized cores.
    pub cpu: Vec<f64>,
    /// RAM per window, bytes (gauged working set + overhead).
    pub ram: Vec<f64>,
    /// Disk-model working set per window, bytes.
    pub ws: Vec<f64>,
    /// Disk-model row-update rate per window, rows/s.
    pub rate: Vec<f64>,
    /// Number of replicas to place on distinct machines (`R_i`).
    pub replicas: u32,
    /// Machine index this workload (all replicas' primary) must occupy.
    pub pinned: Option<usize>,
}

impl WorkloadSpec {
    /// A constant-load workload over `windows` windows.
    pub fn flat(
        name: impl Into<String>,
        windows: usize,
        cpu: f64,
        ram: f64,
        ws: f64,
        rate: f64,
    ) -> WorkloadSpec {
        WorkloadSpec {
            name: name.into(),
            cpu: vec![cpu; windows],
            ram: vec![ram; windows],
            ws: vec![ws; windows],
            rate: vec![rate; windows],
            replicas: 1,
            pinned: None,
        }
    }

    fn at(series: &[f64], t: usize) -> f64 {
        series.get(t).copied().unwrap_or(0.0)
    }

    pub fn cpu_at(&self, t: usize) -> f64 {
        Self::at(&self.cpu, t)
    }
    pub fn ram_at(&self, t: usize) -> f64 {
        Self::at(&self.ram, t)
    }
    pub fn ws_at(&self, t: usize) -> f64 {
        Self::at(&self.ws, t)
    }
    pub fn rate_at(&self, t: usize) -> f64 {
        Self::at(&self.rate, t)
    }
}

/// Homogeneous target-machine capacities.
#[derive(Debug, Clone, Copy)]
pub struct TargetMachine {
    pub cpu_cores: f64,
    pub ram_bytes: f64,
}

impl TargetMachine {
    /// The paper's consolidation target: 12 cores, 96 GB.
    pub fn paper_target() -> TargetMachine {
        TargetMachine {
            cpu_cores: 12.0,
            ram_bytes: 96.0 * 1024.0 * 1024.0 * 1024.0,
        }
    }
}

/// Relative balancing weights in the objective's linear combination of
/// resources ("weighting constants on each term", §6).
#[derive(Debug, Clone, Copy)]
pub struct ResourceWeights {
    pub cpu: f64,
    pub ram: f64,
    pub disk: f64,
}

impl Default for ResourceWeights {
    fn default() -> ResourceWeights {
        ResourceWeights {
            cpu: 0.5,
            ram: 0.25,
            disk: 0.25,
        }
    }
}

impl ResourceWeights {
    pub fn total(&self) -> f64 {
        self.cpu + self.ram + self.disk
    }
}

/// Migration awareness for online re-solves: a baseline placement plus a
/// per-move objective penalty. With this set, the optimizer trades load
/// balance against placement churn — plans that move fewer workloads off
/// their current machines score better, so small drifts produce small
/// placement deltas instead of wholesale reshuffles.
#[derive(Debug, Clone)]
pub struct MigrationCost {
    /// `baseline[slot_index]` = machine the slot currently occupies;
    /// `None` marks a slot with no current placement (a newly arrived
    /// workload), which is free to place anywhere.
    pub baseline: Vec<Option<usize>>,
    /// Objective penalty per slot moved off its baseline machine. Must be
    /// small relative to the infeasibility penalty so migration cost never
    /// makes a feasible plan look infeasible: one extra machine costs
    /// ≥ 1.0 in the base objective, so values in `[0.05, 1.0]` mean
    /// "prefer up to `1/cost` fewer moves over saving a machine".
    pub cost_per_move: f64,
}

impl MigrationCost {
    /// Moves an assignment makes relative to the baseline. Slots beyond
    /// the baseline (new workloads) never count as moves.
    pub fn moves(&self, machine_of: &[usize]) -> usize {
        machine_of
            .iter()
            .zip(self.baseline.iter())
            .filter(|&(&m, &b)| b.is_some_and(|b| b != m))
            .count()
    }
}

/// The full problem instance.
#[derive(Clone)]
pub struct ConsolidationProblem {
    pub workloads: Vec<WorkloadSpec>,
    pub machine: TargetMachine,
    /// Upper bound on machines (typically the source-server count).
    pub max_machines: usize,
    /// Utilization ceiling per resource ("can be < 100% to allow for some
    /// headroom", §5). E.g. 0.9 leaves 10% margin.
    pub headroom: f64,
    /// Planning-horizon window count.
    pub windows: usize,
    pub weights: ResourceWeights,
    pub disk: Arc<dyn DiskCombiner>,
    /// Pairs of workload indices that must not share a machine (beyond
    /// the implicit replica anti-affinity).
    pub anti_affinity: Vec<(usize, usize)>,
    /// Optional migration-cost term for online re-solves (None = the
    /// original one-shot objective).
    pub migration: Option<MigrationCost>,
    /// Lazily built structure-of-arrays view of every slot's load series
    /// (see [`SlotSeries`]); shared by `evaluate`, the local search, the
    /// greedy packer and DIRECT so the per-window series are materialized
    /// exactly once per problem instance. Mutating `workloads` directly
    /// after the first evaluation invalidates it — use the `with_*`
    /// builders (which construct fresh problems) or mutate before
    /// evaluating; [`SlotSeries::coherent_with`] checks the invariant.
    slot_cache: OnceLock<Arc<SlotSeries>>,
}

/// Structure-of-arrays cache of per-slot load series — the solver's hot
/// data, laid out for linear scans.
///
/// The re-solve hot path (`evaluate` from DIRECT's inner loop, the local
/// search's machine-sum rebuilds, greedy reservation probes) previously
/// re-derived each workload's per-window demand through bounds-checked
/// `cpu_at(t)`-style lookups and re-expanded the slot list on every call.
/// This cache flattens everything once per problem: series are stored per
/// *slot* (replicas repeat their workload's series) in `slot × window`
/// row-major order, alongside per-slot extrema used by the local search's
/// lower-bound pruning.
#[derive(Debug, Clone, PartialEq)]
pub struct SlotSeries {
    /// One entry per placement slot (same order as
    /// [`ConsolidationProblem::slots`]).
    pub slots: Vec<Slot>,
    pub windows: usize,
    /// `cpu[slot * windows + t]`, and likewise below.
    pub cpu: Vec<f64>,
    pub ram: Vec<f64>,
    pub ws: Vec<f64>,
    pub rate: Vec<f64>,
    /// Per-slot extrema over the horizon (pruning and greedy keys).
    pub cpu_min: Vec<f64>,
    pub cpu_max: Vec<f64>,
    pub ram_min: Vec<f64>,
    pub ram_max: Vec<f64>,
    pub ws_max: Vec<f64>,
    pub rate_max: Vec<f64>,
    /// The first slot with a NaN or infinite sample, if any. The solver
    /// orders candidates by objective and cannot order NaN: whoever builds
    /// problems from outside data rejects such a problem here, before a
    /// solve (see `ConsolidationEngine::problem`).
    pub non_finite: Option<usize>,
}

impl SlotSeries {
    /// Materialize the cache for `problem`.
    pub fn build(problem: &ConsolidationProblem) -> SlotSeries {
        let slots = problem.slots();
        let windows = problem.windows;
        let n = slots.len();
        let mut out = SlotSeries {
            slots,
            windows,
            cpu: Vec::with_capacity(n * windows),
            ram: Vec::with_capacity(n * windows),
            ws: Vec::with_capacity(n * windows),
            rate: Vec::with_capacity(n * windows),
            cpu_min: Vec::with_capacity(n),
            cpu_max: Vec::with_capacity(n),
            ram_min: Vec::with_capacity(n),
            ram_max: Vec::with_capacity(n),
            ws_max: Vec::with_capacity(n),
            rate_max: Vec::with_capacity(n),
            non_finite: None,
        };
        for i in 0..n {
            let w = &problem.workloads[out.slots[i].workload];
            let mut ext = [
                f64::INFINITY,
                f64::NEG_INFINITY,
                f64::INFINITY,
                f64::NEG_INFINITY,
            ];
            let mut ws_mx = f64::NEG_INFINITY;
            let mut rate_mx = f64::NEG_INFINITY;
            let mut finite = true;
            for t in 0..windows {
                let (c, r, s, q) = (w.cpu_at(t), w.ram_at(t), w.ws_at(t), w.rate_at(t));
                finite &= c.is_finite() && r.is_finite() && s.is_finite() && q.is_finite();
                out.cpu.push(c);
                out.ram.push(r);
                out.ws.push(s);
                out.rate.push(q);
                ext[0] = ext[0].min(c);
                ext[1] = ext[1].max(c);
                ext[2] = ext[2].min(r);
                ext[3] = ext[3].max(r);
                ws_mx = ws_mx.max(s);
                rate_mx = rate_mx.max(q);
            }
            out.cpu_min.push(ext[0]);
            out.cpu_max.push(ext[1]);
            out.ram_min.push(ext[2]);
            out.ram_max.push(ext[3]);
            out.ws_max.push(ws_mx);
            out.rate_max.push(rate_mx);
            if !finite && out.non_finite.is_none() {
                out.non_finite = Some(i);
            }
        }
        out
    }

    /// One slot's CPU series over the horizon.
    #[inline]
    pub fn cpu_of(&self, slot: usize) -> &[f64] {
        &self.cpu[slot * self.windows..(slot + 1) * self.windows]
    }

    #[inline]
    pub fn ram_of(&self, slot: usize) -> &[f64] {
        &self.ram[slot * self.windows..(slot + 1) * self.windows]
    }

    #[inline]
    pub fn ws_of(&self, slot: usize) -> &[f64] {
        &self.ws[slot * self.windows..(slot + 1) * self.windows]
    }

    #[inline]
    pub fn rate_of(&self, slot: usize) -> &[f64] {
        &self.rate[slot * self.windows..(slot + 1) * self.windows]
    }

    /// Coherence check: does this cache still describe `problem`
    /// bit-for-bit? Rebuilds from scratch and compares — O(slots ×
    /// windows), intended for tests and debug assertions, not hot paths.
    pub fn coherent_with(&self, problem: &ConsolidationProblem) -> bool {
        *self == SlotSeries::build(problem)
    }
}

impl std::fmt::Debug for ConsolidationProblem {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ConsolidationProblem")
            .field("workloads", &self.workloads.len())
            .field("max_machines", &self.max_machines)
            .field("windows", &self.windows)
            .field("headroom", &self.headroom)
            .finish()
    }
}

/// A placement slot: one replica of one workload. The solver's decision
/// variables are slots, not workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Slot {
    pub workload: usize,
    pub replica: u32,
}

impl ConsolidationProblem {
    pub fn new(
        workloads: Vec<WorkloadSpec>,
        machine: TargetMachine,
        max_machines: usize,
        disk: Arc<dyn DiskCombiner>,
    ) -> ConsolidationProblem {
        assert!(!workloads.is_empty(), "need at least one workload");
        assert!(max_machines >= 1, "need at least one machine");
        let windows = workloads
            .iter()
            .map(|w| {
                w.cpu
                    .len()
                    .max(w.ram.len())
                    .max(w.ws.len())
                    .max(w.rate.len())
            })
            .max()
            .unwrap_or(1)
            .max(1);
        ConsolidationProblem {
            workloads,
            machine,
            max_machines,
            headroom: 0.95,
            windows,
            weights: ResourceWeights::default(),
            disk,
            anti_affinity: Vec::new(),
            migration: None,
            slot_cache: OnceLock::new(),
        }
    }

    /// The structure-of-arrays slot-series cache, built on first use and
    /// shared by every evaluation of this problem instance.
    pub fn slot_series(&self) -> &Arc<SlotSeries> {
        let series = self
            .slot_cache
            .get_or_init(|| Arc::new(SlotSeries::build(self)));
        // Cheap structural guard against the one misuse the lazy cache
        // allows: mutating the pub fields (replica counts, series
        // lengths) after an evaluation has built it. Full bit-for-bit
        // value coherence is the cache_coherence property suite's job —
        // rebuilding here would defeat the cache, and so would allocating.
        debug_assert_eq!(
            series.slots.len(),
            self.workloads
                .iter()
                .map(|w| w.replicas.max(1) as usize)
                .sum(),
            "slot cache stale: workloads/replicas mutated after first evaluation"
        );
        debug_assert_eq!(
            series.windows, self.windows,
            "slot cache stale: windows mutated after first evaluation"
        );
        series
    }

    pub fn with_headroom(mut self, headroom: f64) -> ConsolidationProblem {
        assert!((0.0..=1.0).contains(&headroom));
        self.headroom = headroom;
        self
    }

    pub fn with_weights(mut self, weights: ResourceWeights) -> ConsolidationProblem {
        self.weights = weights;
        self
    }

    pub fn with_anti_affinity(mut self, pairs: Vec<(usize, usize)>) -> ConsolidationProblem {
        self.anti_affinity = pairs;
        self
    }

    /// Penalize moves away from `baseline` (one entry per slot, `None`
    /// for new slots) by `cost_per_move` each. See [`MigrationCost`].
    pub fn with_migration(
        mut self,
        baseline: Vec<Option<usize>>,
        cost_per_move: f64,
    ) -> ConsolidationProblem {
        assert!(cost_per_move >= 0.0, "migration cost must be non-negative");
        // Keep the worst-case migration total far below the infeasibility
        // penalty (1e4): migration preference must never flip a feasible
        // plan above an infeasible one.
        assert!(
            cost_per_move * self.slots().len() as f64 <= 1e3,
            "migration cost would rival the infeasibility penalty"
        );
        self.migration = Some(MigrationCost {
            baseline,
            cost_per_move,
        });
        self
    }

    /// The machine `slot` sits on in the migration baseline, if there is a
    /// baseline and it places the slot.
    pub(crate) fn home_of(&self, slot: usize) -> Option<usize> {
        let m = self.migration.as_ref()?;
        m.baseline.get(slot).copied().flatten()
    }

    /// The machine `slot` is pinned to, if any. The paper pins a workload
    /// to a node; we read it as "replica 0 must sit on the pinned machine".
    pub(crate) fn pin_of(&self, slot: Slot) -> Option<usize> {
        let pin = self.workloads[slot.workload].pinned;
        pin.filter(|_| slot.replica == 0)
    }

    /// Slots `machine_of` places off their baseline machine (0 without a
    /// migration term).
    pub(crate) fn moves_from_baseline(&self, machine_of: &[usize]) -> usize {
        self.migration.as_ref().map_or(0, |m| m.moves(machine_of))
    }

    /// Extract the shard-local sub-problem over `keep` (workload indices
    /// into `self.workloads`, in the order the sub-problem should list
    /// them). This is how a sharded control plane turns one global
    /// problem into independent per-shard solves:
    ///
    /// * workloads outside `keep` disappear;
    /// * anti-affinity pairs survive only when both endpoints stay in the
    ///   shard (cross-shard pairs are trivially satisfied by sharding);
    /// * the migration baseline is re-sliced per slot, so warm-started
    ///   shard re-solves keep pricing moves correctly;
    /// * `max_machines` is inherited — callers typically override it with
    ///   the shard's machine budget.
    ///
    /// # Panics
    /// Panics if `keep` is empty, contains an out-of-range index, or
    /// repeats an index.
    pub fn restrict(&self, keep: &[usize]) -> ConsolidationProblem {
        assert!(!keep.is_empty(), "a shard needs at least one workload");
        let mut seen = vec![false; self.workloads.len()];
        for &w in keep {
            assert!(w < self.workloads.len(), "workload index {w} out of range");
            assert!(!seen[w], "workload index {w} repeated");
            seen[w] = true;
        }
        // old workload index -> new index (usize::MAX = dropped).
        let mut new_of = vec![usize::MAX; self.workloads.len()];
        for (new, &old) in keep.iter().enumerate() {
            new_of[old] = new;
        }
        let workloads: Vec<WorkloadSpec> =
            keep.iter().map(|&w| self.workloads[w].clone()).collect();
        let anti_affinity: Vec<(usize, usize)> = self
            .anti_affinity
            .iter()
            .filter(|&&(a, b)| new_of[a] != usize::MAX && new_of[b] != usize::MAX)
            .map(|&(a, b)| (new_of[a], new_of[b]))
            .collect();
        let migration = self.migration.as_ref().map(|m| {
            // Slot ranges of the original problem, per workload.
            let mut start = Vec::with_capacity(self.workloads.len());
            let mut next = 0usize;
            for w in &self.workloads {
                start.push(next);
                next += w.replicas.max(1) as usize;
            }
            let mut baseline = Vec::new();
            for &w in keep {
                let n = self.workloads[w].replicas.max(1) as usize;
                for r in 0..n {
                    baseline.push(m.baseline.get(start[w] + r).copied().flatten());
                }
            }
            MigrationCost {
                baseline,
                cost_per_move: m.cost_per_move,
            }
        });
        ConsolidationProblem {
            workloads,
            machine: self.machine,
            max_machines: self.max_machines,
            headroom: self.headroom,
            windows: self.windows,
            weights: self.weights,
            disk: self.disk.clone(),
            anti_affinity,
            migration,
            slot_cache: OnceLock::new(),
        }
    }

    /// Expand workloads into placement slots (one per replica).
    pub fn slots(&self) -> Vec<Slot> {
        let mut out = Vec::new();
        for (i, w) in self.workloads.iter().enumerate() {
            for r in 0..w.replicas.max(1) {
                out.push(Slot {
                    workload: i,
                    replica: r,
                });
            }
        }
        out
    }
}

/// An assignment of slots to machines.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Assignment {
    /// `machine_of[slot_index]` = machine index.
    pub machine_of: Vec<usize>,
}

impl Assignment {
    pub fn new(machine_of: Vec<usize>) -> Assignment {
        Assignment { machine_of }
    }

    /// Number of distinct machines used.
    pub fn machines_used(&self) -> usize {
        let mut seen = std::collections::HashSet::new();
        for &m in &self.machine_of {
            seen.insert(m);
        }
        seen.len()
    }

    /// Indices of slots on each machine, keyed by machine id actually used.
    pub fn by_machine(&self) -> std::collections::BTreeMap<usize, Vec<usize>> {
        let mut map: std::collections::BTreeMap<usize, Vec<usize>> = Default::default();
        for (s, &m) in self.machine_of.iter().enumerate() {
            map.entry(m).or_default().push(s);
        }
        map
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_problem() -> ConsolidationProblem {
        let w = vec![
            WorkloadSpec::flat("a", 4, 1.0, 1e9, 5e8, 100.0),
            WorkloadSpec::flat("b", 4, 2.0, 2e9, 5e8, 200.0),
        ];
        ConsolidationProblem::new(
            w,
            TargetMachine::paper_target(),
            4,
            Arc::new(LinearDiskCombiner::default()),
        )
    }

    #[test]
    fn windows_derived_from_longest_series() {
        let p = tiny_problem();
        assert_eq!(p.windows, 4);
    }

    #[test]
    fn slots_expand_replicas() {
        let mut p = tiny_problem();
        p.workloads[1].replicas = 3;
        let slots = p.slots();
        assert_eq!(slots.len(), 4);
        assert_eq!(
            slots[1],
            Slot {
                workload: 1,
                replica: 0
            }
        );
        assert_eq!(
            slots[3],
            Slot {
                workload: 1,
                replica: 2
            }
        );
    }

    #[test]
    fn series_out_of_range_reads_zero() {
        let w = WorkloadSpec::flat("a", 2, 1.0, 1e9, 5e8, 10.0);
        assert_eq!(w.cpu_at(1), 1.0);
        assert_eq!(w.cpu_at(99), 0.0);
    }

    #[test]
    fn assignment_counts_machines() {
        let a = Assignment::new(vec![0, 0, 2, 2, 2]);
        assert_eq!(a.machines_used(), 2);
        let by = a.by_machine();
        assert_eq!(by[&0], vec![0, 1]);
        assert_eq!(by[&2], vec![2, 3, 4]);
    }

    #[test]
    fn linear_disk_is_additive_in_rate() {
        let d = LinearDiskCombiner::default();
        let u1 = d.utilization(1e9, 1000.0);
        let u2 = d.utilization(2e9, 2000.0);
        assert!((u2 - 2.0 * u1).abs() < 1e-12);
    }

    #[test]
    fn restrict_extracts_shard_local_problem() {
        let w = vec![
            WorkloadSpec::flat("a", 4, 1.0, 1e9, 5e8, 100.0),
            WorkloadSpec::flat("b", 4, 2.0, 2e9, 5e8, 200.0),
            WorkloadSpec::flat("c", 4, 3.0, 3e9, 5e8, 300.0),
            WorkloadSpec::flat("d", 4, 4.0, 4e9, 5e8, 400.0),
        ];
        let mut p = ConsolidationProblem::new(
            w,
            TargetMachine::paper_target(),
            4,
            Arc::new(LinearDiskCombiner::default()),
        )
        .with_anti_affinity(vec![(0, 2), (1, 3)]);
        p.workloads[2].replicas = 2; // slots: a=0, b=1, c=2,3, d=4
        let p = p.with_migration(vec![Some(0), Some(1), Some(2), None, Some(3)], 0.25);

        let sub = p.restrict(&[2, 0]);
        assert_eq!(sub.workloads.len(), 2);
        assert_eq!(sub.workloads[0].name, "c");
        assert_eq!(sub.workloads[1].name, "a");
        assert_eq!(sub.windows, 4);
        // Only the (a, c) pair survives, remapped to the new indices.
        assert_eq!(sub.anti_affinity, vec![(1, 0)]);
        // Slots: c#0, c#1, a#0 — baselines re-sliced accordingly.
        let m = sub.migration.as_ref().expect("migration survives");
        assert_eq!(m.baseline, vec![Some(2), None, Some(0)]);
        assert_eq!(sub.slots().len(), 3);
    }

    #[test]
    #[should_panic(expected = "repeated")]
    fn restrict_rejects_duplicates() {
        let p = tiny_problem();
        p.restrict(&[1, 1]);
    }

    #[test]
    #[should_panic(expected = "at least one workload")]
    fn empty_problem_rejected() {
        ConsolidationProblem::new(
            vec![],
            TargetMachine::paper_target(),
            1,
            Arc::new(LinearDiskCombiner::default()),
        );
    }
}
