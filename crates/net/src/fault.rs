//! The unified fault-injection surface.
//!
//! [`FaultPlan`] is the whole per-endpoint fault state as one
//! declarative value with one documented precedence, so a schedule
//! interpreter (`kairos-chaos`) can inject any mix of faults and
//! reason about exactly which call fails how.
//!
//! # Precedence (normative)
//!
//! For each outbound call, faults are consulted in this order:
//!
//! 1. **Partition** — if the endpoint is partitioned the call fails
//!    `Unreachable`. Nothing else is consulted and no counters burn:
//!    a partition *pauses* the pending one-shot faults behind it.
//! 2. **Drop** — a pending `DropNext` counter > 0 burns one count and
//!    fails the call `Dropped`.
//! 3. **Corrupt** — a pending `CorruptNext` counter > 0 burns one
//!    count and delivers the frame with one bit flipped; otherwise the
//!    first queued `CorruptNextMatching` rule whose tag equals the
//!    call's tag burns one count and corrupts.
//!
//! **Healing cancels, it does not release.** [`FaultPlan::heal`]
//! removes the partition *and discards every pending one-shot fault*
//! (drops and corruptions) for the endpoint: a healed endpoint comes
//! back clean. This closes the trap where a drop scheduled before a
//! partition silently survived the heal and fired arbitrarily later —
//! the old behaviour was never specified, merely what two independent
//! maps happened to do. A schedule that wants post-heal drops states
//! so by injecting them after the heal.

use std::collections::{BTreeMap, BTreeSet};

/// One injectable fault against a single endpoint.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Fault {
    /// The endpoint becomes unreachable until healed.
    Partition,
    /// Drop the next `n` calls (`NetError::Dropped`).
    DropNext(u64),
    /// Flip one seeded bit in each of the next `n` request frames.
    CorruptNext(u64),
    /// Flip one seeded bit in each of the next `n` request frames
    /// whose payload tag (see `rpc::wire_tag`) matches. Rules queue:
    /// injecting `Admit` then `Owns` corruption arms both at once.
    CorruptNextMatching { tag: u32, n: u64 },
}

/// What the transport must do with one outbound call, as decided by
/// [`FaultPlan::next_call`] under the precedence above.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultVerdict {
    /// Partitioned: fail with `NetError::Unreachable`.
    Unreachable,
    /// A pending drop was consumed: fail with `NetError::Dropped`.
    Drop,
    /// Deliver the frame; `corrupt` says whether to flip one bit first.
    Deliver { corrupt: bool },
}

/// The declarative per-endpoint fault state a transport consults on
/// every call. Owned by the transport (under its state lock); mutated
/// through [`inject`](FaultPlan::inject) / [`heal`](FaultPlan::heal).
#[derive(Debug, Default)]
pub struct FaultPlan {
    partitioned: BTreeSet<String>,
    drop_next: BTreeMap<String, u64>,
    corrupt_next: BTreeMap<String, u64>,
    /// FIFO rule queue per endpoint; the first tag-matching rule with
    /// budget left burns a count. Exhausted rules are pruned.
    corrupt_matching: BTreeMap<String, Vec<(u32, u64)>>,
}

impl FaultPlan {
    /// Arm one fault against `endpoint`. Counter faults accumulate
    /// (two `DropNext(1)` injections equal one `DropNext(2)`);
    /// matching rules append to the endpoint's rule queue.
    pub fn inject(&mut self, endpoint: &str, fault: Fault) {
        match fault {
            Fault::Partition => {
                self.partitioned.insert(endpoint.to_string());
            }
            Fault::DropNext(n) => {
                *self.drop_next.entry(endpoint.to_string()).or_insert(0) += n;
            }
            Fault::CorruptNext(n) => {
                *self.corrupt_next.entry(endpoint.to_string()).or_insert(0) += n;
            }
            Fault::CorruptNextMatching { tag, n } => {
                self.corrupt_matching
                    .entry(endpoint.to_string())
                    .or_default()
                    .push((tag, n));
            }
        }
    }

    /// Heal `endpoint`: remove its partition **and cancel every pending
    /// one-shot fault** (see the module precedence contract).
    pub fn heal(&mut self, endpoint: &str) {
        self.partitioned.remove(endpoint);
        self.drop_next.remove(endpoint);
        self.corrupt_next.remove(endpoint);
        self.corrupt_matching.remove(endpoint);
    }

    /// Heal every endpoint (a chaos schedule's end-of-faults barrier).
    pub fn heal_all(&mut self) {
        self.partitioned.clear();
        self.drop_next.clear();
        self.corrupt_next.clear();
        self.corrupt_matching.clear();
    }

    /// Decide the fate of one outbound call to `endpoint` whose payload
    /// tag is `tag` (`None` when the frame is too short to carry one).
    /// Burns at most one fault count, per the precedence contract.
    pub fn next_call(&mut self, endpoint: &str, tag: Option<u32>) -> FaultVerdict {
        if self.partitioned.contains(endpoint) {
            return FaultVerdict::Unreachable;
        }
        if let Some(n) = self.drop_next.get_mut(endpoint) {
            if *n > 0 {
                *n -= 1;
                return FaultVerdict::Drop;
            }
        }
        if let Some(n) = self.corrupt_next.get_mut(endpoint) {
            if *n > 0 {
                *n -= 1;
                return FaultVerdict::Deliver { corrupt: true };
            }
        }
        if let (Some(tag), Some(rules)) = (tag, self.corrupt_matching.get_mut(endpoint)) {
            let mut hit = false;
            for (want, n) in rules.iter_mut() {
                if *want == tag && *n > 0 {
                    *n -= 1;
                    hit = true;
                    break;
                }
            }
            rules.retain(|(_, n)| *n > 0);
            if hit {
                return FaultVerdict::Deliver { corrupt: true };
            }
        }
        FaultVerdict::Deliver { corrupt: false }
    }
}

/// The named-fault surface of whatever owns a [`FaultPlan`] — the
/// [`crate::FaultedTransport`] decorator, over any backend — so a
/// schedule interpreter (`kairos-chaos`) and the failure suites inject
/// by verb and need not know *where* the faults land: in-memory
/// dispatch or a real TCP socket.
pub trait FaultInjector {
    /// Arm one [`Fault`] against `endpoint` on the owned [`FaultPlan`].
    fn inject_fault(&self, endpoint: &str, fault: Fault);
    /// Heal `endpoint` (cancels its pending one-shot faults too).
    fn heal(&self, endpoint: &str);
    /// Heal every endpoint (a schedule's end-of-faults barrier).
    fn heal_all(&self);

    /// Make `endpoint` unreachable until healed.
    fn partition(&self, endpoint: &str) {
        self.inject_fault(endpoint, Fault::Partition);
    }
    /// Drop the next `n` calls to `endpoint`.
    fn drop_next_calls(&self, endpoint: &str, n: u64) {
        self.inject_fault(endpoint, Fault::DropNext(n));
    }
    /// Flip one seeded bit in each of the next `n` frames to `endpoint`.
    fn corrupt_next_calls(&self, endpoint: &str, n: u64) {
        self.inject_fault(endpoint, Fault::CorruptNext(n));
    }
    /// Tag-targeted corruption (see [`Fault::CorruptNextMatching`]).
    fn corrupt_next_calls_matching(&self, endpoint: &str, tag: u32, n: u64) {
        self.inject_fault(endpoint, Fault::CorruptNextMatching { tag, n });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn partition_masks_and_heal_cancels_pending_drops() {
        let mut plan = FaultPlan::default();
        plan.inject("a", Fault::DropNext(2));
        plan.inject("a", Fault::Partition);
        // Partition wins without burning the drop counter.
        assert_eq!(plan.next_call("a", None), FaultVerdict::Unreachable);
        assert_eq!(plan.next_call("a", None), FaultVerdict::Unreachable);
        // Heal cancels the paused drops: the endpoint comes back clean.
        plan.heal("a");
        assert_eq!(
            plan.next_call("a", None),
            FaultVerdict::Deliver { corrupt: false }
        );
    }

    #[test]
    fn drop_outranks_corruption_and_counters_burn_one_at_a_time() {
        let mut plan = FaultPlan::default();
        plan.inject("a", Fault::DropNext(1));
        plan.inject("a", Fault::CorruptNext(1));
        assert_eq!(plan.next_call("a", None), FaultVerdict::Drop);
        assert_eq!(
            plan.next_call("a", None),
            FaultVerdict::Deliver { corrupt: true }
        );
        assert_eq!(
            plan.next_call("a", None),
            FaultVerdict::Deliver { corrupt: false }
        );
    }

    #[test]
    fn matching_rules_queue_independently_per_tag() {
        let mut plan = FaultPlan::default();
        plan.inject("a", Fault::CorruptNextMatching { tag: 8, n: 1 });
        plan.inject("a", Fault::CorruptNextMatching { tag: 9, n: 1 });
        // Tag 9 fires even though the tag-8 rule queued first.
        assert_eq!(
            plan.next_call("a", Some(9)),
            FaultVerdict::Deliver { corrupt: true }
        );
        // Tag 7 matches nothing.
        assert_eq!(
            plan.next_call("a", Some(7)),
            FaultVerdict::Deliver { corrupt: false }
        );
        // Tag 8's rule is still armed, then exhausted.
        assert_eq!(
            plan.next_call("a", Some(8)),
            FaultVerdict::Deliver { corrupt: true }
        );
        assert_eq!(
            plan.next_call("a", Some(8)),
            FaultVerdict::Deliver { corrupt: false }
        );
    }

    #[test]
    fn drop_counters_accumulate_across_injections() {
        let mut plan = FaultPlan::default();
        plan.inject("a", Fault::DropNext(1));
        plan.inject("a", Fault::DropNext(1));
        assert_eq!(plan.next_call("a", None), FaultVerdict::Drop);
        assert_eq!(plan.next_call("a", None), FaultVerdict::Drop);
        assert_eq!(
            plan.next_call("a", None),
            FaultVerdict::Deliver { corrupt: false }
        );
    }

    #[test]
    fn faults_are_per_endpoint() {
        let mut plan = FaultPlan::default();
        plan.inject("a", Fault::Partition);
        assert_eq!(plan.next_call("a", None), FaultVerdict::Unreachable);
        assert_eq!(
            plan.next_call("b", None),
            FaultVerdict::Deliver { corrupt: false }
        );
        plan.heal_all();
        assert_eq!(
            plan.next_call("a", None),
            FaultVerdict::Deliver { corrupt: false }
        );
    }
}
