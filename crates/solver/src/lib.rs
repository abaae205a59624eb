//! # kairos-solver — the Consolidation Engine's optimizer (§5–6)
//!
//! Assigning workloads to machines is a mixed-integer **non-linear**
//! program: the objective minimizes server count (signum term) and
//! imbalance (exponential term), and the disk constraint goes through the
//! non-linear empirical disk model. This crate implements:
//!
//! * the problem/assignment model ([`problem`]) with replication,
//!   pinning, and anti-affinity constraints;
//! * the objective and constraint evaluator ([`objective`]) — the Fig 5
//!   landscape, penalty spike included. One private machine table
//!   (`machines`) and one per-machine scoring primitive sit under
//!   `evaluate` and under the local search; [`evaluate_reference`] is the
//!   tests' independent copy;
//! * a from-scratch **DIRECT** global optimizer ([`direct`]), which picks
//!   rectangles from per-size heaps; rectangles are rows of flat arrays,
//!   with no allocation per rectangle. It seeds the search on problems of
//!   at most a dozen free slots and is §7.5's raw comparator
//!   ([`solve_at_k`], [`solve_unbounded`]);
//! * deterministic **local-search polish** ([`local`]) that scores a
//!   candidate once per change to its machines and drops a sure loser early;
//! * the §7.3 baselines: single-resource **greedy** first-fit
//!   ([`greedy`]) and the **fractional/idealized** lower bound
//!   ([`bounds`]);
//! * the §6 search pipeline ([`search`]): bound K, binary-search the
//!   minimal feasible K′, then a longer final run at K′ — the optimization
//!   the paper credits with up to 45× faster solves. Every search at a K
//!   polishes one seed: DIRECT's first sample ([`centre`]), or DIRECT's
//!   best point on problems of at most a dozen free slots. A warm re-plan
//!   whose polished start beats greedy ends at the binary search.
//!
//! The solver is deliberately independent of the rest of Kairos: disk
//! non-linearity enters only through the [`problem::DiskCombiner`] trait,
//! which `kairos-core` implements with the fitted
//! `kairos_diskmodel::DiskModel`.

pub mod bounds;
pub mod direct;
pub mod greedy;
pub mod local;
mod machines;
pub mod objective;
pub mod problem;
pub mod search;

pub use bounds::{fractional_lower_bound, identity_assignment, upper_bound};
pub use direct::{direct_minimize, DirectConfig, DirectResult};
pub use greedy::{greedy_pack, GreedyReport, GreedyResource};
pub use local::{polish, PolishReport};
pub use objective::{evaluate, evaluate_reference, evaluate_with_series, Evaluation, WindowLoad};
pub use problem::{
    Assignment, ConsolidationProblem, DiskCombiner, LinearDiskCombiner, MigrationCost,
    ResourceWeights, Slot, SlotSeries, TargetMachine, WorkloadSpec,
};
pub use search::{
    centre, decode, free_dims, solve, solve_at_k, solve_unbounded, solve_warm, SolveReport,
    SolverConfig,
};
