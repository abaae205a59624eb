//! The six workloads. Each is closed-loop on one driver thread: the next
//! call is issued when the previous one returns, because the control
//! plane is tick-driven and the meaningful figure is capacity, not an
//! arrival rate.

pub mod consolidation;
pub mod hierarchy;
pub mod online;
pub mod pipeline;
pub mod wire;

use crate::spans::Tracer;
use kairos_types::SplitMix64;
use std::collections::BTreeMap;

/// What one invocation runs.
#[derive(Debug, Clone, Copy)]
pub struct RunCfg {
    pub seed: u64,
    /// Timed work to aim for; sets the number of repetitions.
    pub seconds: f64,
    /// Smoke sizes: one repetition, tenth-size inputs.
    pub quick: bool,
}

/// Named values a repetition (or a probe pass) reports for its layers.
pub type Layer = BTreeMap<&'static str, f64>;

/// One repetition on fresh state.
#[derive(Debug, Default)]
pub struct Rep {
    /// Untimed set-up: input generation, server spawn and connect, fleet
    /// bootstrap to the first plan.
    pub setup_s: f64,
    /// Wall of the timed work.
    pub work_wall_s: f64,
    /// Walls of the workload's frequent, cheap operation class.
    pub fast_ops_s: Vec<f64>,
    /// Walls of its expensive recurring operation class.
    pub slow_ops_s: Vec<f64>,
    /// Walls from a disturbance (or a cold start) to a feasible placement.
    pub settles_s: Vec<f64>,
    /// Tenants (servers, workloads) per machine in the final placement.
    pub density: f64,
    pub attempted: u64,
    /// One line per failed operation or check.
    pub failures: Vec<String>,
    /// Counts that must repeat exactly whenever one input seed is re-run.
    pub counts: BTreeMap<&'static str, u64>,
    /// Per-layer values measured in situ during the repetition.
    pub layer: Layer,
}

impl Rep {
    /// Record one operation's check; a failed check fails the operation.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.failures.push(what());
        }
    }
}

/// The input seed of a run's `k`-th repetition. The solver's search is
/// sensitive to its inputs: moving every rate by half a percent changes
/// how many re-plans an episode takes and how deep each one searches, so
/// one draw says little about the workload. Every repetition therefore
/// draws its own inputs, and a run's figure is the median over its draws.
pub fn rep_seed(run_seed: u64, k: u64) -> u64 {
    SplitMix64::new(run_seed ^ k.wrapping_mul(0x9E37_79B9_7F4A_7C15)).next_u64()
}

/// A workload: any number of repetitions, each on fresh state and on the
/// inputs of its own draw `k` (see [`rep_seed`]), then the layer probes.
pub trait Workload {
    /// Timed work of one repetition on the reference box, in seconds. The
    /// repetition count follows from it and `--seconds` alone, so one seed
    /// always means the same draws, however fast the machine is that day.
    const REP_SECONDS: f64;
    /// A repetition's typical fast operation is the median of the class,
    /// unless the class is a mixture whose median sits on the edge between
    /// two of its parts; then it is the mean.
    const FAST_OP_IS_MEAN: bool = false;
    fn new(cfg: &RunCfg) -> Self;
    fn rep(&mut self, k: u64, tr: &Tracer) -> Rep;
    /// Call the layers' public functions in loops on inputs captured from
    /// the repetitions; runs in the traced run only.
    fn probes(&mut self, tr: &Tracer, layer: &mut Layer);
}

pub const NAMES: [&str; 6] = [
    "paper_pipeline",
    "dataset_consolidation",
    "online_steady",
    "online_drift",
    "rpc_fleet",
    "rpc_hierarchy",
];
