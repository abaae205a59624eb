//! The structured decision log: typed, tick-stamped, seed-reproducible.
//!
//! Every event field is deterministic under a fixed seed and config —
//! tick numbers, tenant names, machine counts, and `f64` values carried
//! as IEEE-754 **bit patterns** (so traces compare exactly, with no
//! formatting or rounding in the way). Wall-clock durations are banned
//! here by construction: they live in [`crate::metrics`].
//!
//! The log itself is a bounded ring ([`DecisionLog`]): recording is O(1)
//! (one branch when disabled, a `VecDeque` push when enabled), the
//! sequence number keeps counting across evictions so a truncated ring
//! is detectable, and the whole trace serializes through the workspace
//! codec — byte-identical traces are the equality the net equivalence
//! suite asserts between the in-process and RPC fleets.

use serde::{Deserialize, Serialize};
use std::collections::VecDeque;

/// Version tag for serialized trace frames (`kairos-store` framing).
/// Bump on any change to [`TracedEvent`] / [`DecisionEvent`] layout.
///
/// v3: hierarchy events ([`DecisionEvent::ZoneSummarized`],
/// [`DecisionEvent::GroupMoved`]) appended for the balancer-of-balancers.
///
/// v4: [`DecisionEvent::HealthFlagged`] appended for the watchdog.
pub const TRACE_WIRE_VERSION: u32 = 4;

/// Default ring capacity: large enough to hold every event of the test
/// and example runs (so checkpoint/restore preserves full history), small
/// enough that a long-lived fleet's memory stays bounded.
pub const DEFAULT_TRACE_CAP: usize = 65_536;

/// One decision the control plane made, with the fields that explain it.
///
/// Shard-level events are stamped with the *shard's* tick; balancer
/// events with the *fleet* tick. `*_bits` fields are `f64::to_bits`
/// values — render with `f64::from_bits` (see [`crate::why`]).
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum DecisionEvent {
    // --- shard loop ----------------------------------------------------
    /// Cold bootstrap solved the first placement.
    Bootstrapped {
        machines: usize,
        objective_bits: u64,
    },
    /// The drift detector tripped: these workloads' live windows diverged
    /// from the profiles the current plan was solved for. Thresholds are
    /// recorded so the trace says *which* watermark fired.
    DriftTripped {
        workloads: Vec<String>,
        max_overload_bits: u64,
        max_slack_bits: u64,
        overload_threshold_bits: u64,
        slack_threshold_bits: u64,
    },
    /// A warm re-solve adopted a new placement. `objective_before_bits`
    /// is the incumbent plan's objective at *its* adoption; `after` is
    /// the new plan's.
    Replanned {
        reason: String,
        feasible: bool,
        moves: usize,
        machines: usize,
        objective_before_bits: u64,
        objective_after_bits: u64,
        churn_bits: u64,
    },
    /// A re-solve failed; the loop backs off until the given tick.
    ResolveFailed { reason: String, backoff_until: u64 },
    /// The scheduled zero-move refresh tightened envelope-planned
    /// profiles from the post-drift window.
    ProfileRefreshed { workloads: Vec<String> },
    /// A tenant left this shard (balancer-driven eviction).
    TenantEvicted { tenant: String },
    /// A tenant joined this shard (balancer-driven admission).
    TenantAdmitted { tenant: String },

    // --- balancer round -------------------------------------------------
    /// A shard was flagged as a donor, with the summary fields that
    /// triggered it: over machine budget, an infeasible plan, or a failed
    /// re-solve.
    DonorFlagged {
        shard: usize,
        machines_used: usize,
        budget: usize,
        feasible: bool,
        resolve_failed: bool,
    },
    /// A receiver accepted a reservation for this tenant at the shed
    /// target (the low-watermark admission bar).
    HandoffProposed {
        tenant: String,
        donor: usize,
        receiver: usize,
        shed_target: usize,
        receiver_machines: usize,
    },
    /// No shard could take the tenant at the shed target.
    HandoffNoReceiver { tenant: String, donor: usize },
    /// Two-phase handoff committed: the tenant moved donor → receiver.
    HandoffCompleted {
        tenant: String,
        donor: usize,
        receiver: usize,
    },
    /// The handoff failed mid-flight; `returned_to_donor` says whether
    /// the rollback re-admitted the tenant at the donor.
    HandoffFailed {
        tenant: String,
        donor: usize,
        receiver: usize,
        returned_to_donor: bool,
    },
    /// Unresolvable mid-flight state: the tenant parked in the balancer's
    /// retry lot (never dropped, never blindly re-admitted).
    HandoffParked {
        tenant: String,
        donor: usize,
        receiver: usize,
    },
    /// A parked handoff was probed this round; resolution is one of
    /// `"completed-late"`, `"returned-to-donor"`, `"still-parked"` —
    /// or `"recovered-at-promotion"`, when a promoted standby re-admits
    /// a stranded tenant found in a shard's evict outbox.
    ParkedRetried {
        tenant: String,
        donor: usize,
        receiver: usize,
        resolution: String,
    },

    // --- network plane --------------------------------------------------
    /// A shard link missed a lease renewal (transport-level failure).
    LeaseMiss {
        shard: usize,
        missed: u64,
        limit: u64,
    },
    /// The miss counter crossed the lease limit: the shard is down.
    ShardDown { shard: usize },
    /// A shard rejoined after checkpoint-restore; the map reconciled
    /// ownership (stale copies retired, lost tenants re-seeded).
    ShardRejoined {
        shard: usize,
        retired: Vec<String>,
        reseeded: Vec<String>,
    },
    /// A standby balancer promoted itself and adopted the fleet state
    /// from the shards (ground truth).
    StandbyPromoted { rank: u64, adopted_ticks: u64 },
    /// A standby ingested a replicated soft-state snapshot from the
    /// primary. `sync_round` is the balancer round the state describes;
    /// `parked`/`cooldowns`/`log_events` size the replicated payload.
    StandbySynced {
        sync_round: u64,
        parked: usize,
        cooldowns: usize,
        log_events: usize,
    },
    /// A frame failed shared-secret authentication and was rejected
    /// before any decode — zero state change on the receiver.
    AuthRejected { endpoint: String },
    /// A shard node announced itself to the balancer (self-healing
    /// membership): first contact, post-restore, or after backoff.
    NodeAnnounced {
        shard: usize,
        endpoint: String,
        generation: u64,
    },

    // --- hierarchy (balancer-of-balancers) ------------------------------
    // Appended in trace v3; enum wire tags are variant indices, so new
    // variants go at the end.
    /// A zone rolled its shard summaries up into one constant-size zone
    /// summary for the root balancer. `summary_bytes` is the roll-up's
    /// encoded size — the quantity the sketches keep independent of
    /// window length.
    ZoneSummarized {
        zone: usize,
        tenants: usize,
        groups: usize,
        machines_used: usize,
        summary_bytes: usize,
    },
    /// The root balancer moved a tenant group between zones (every member
    /// travelled inside one group frame).
    GroupMoved {
        group: String,
        tenants: usize,
        from_zone: usize,
        to_zone: usize,
    },

    // --- health watchdog -------------------------------------------------
    // Appended in trace v4; enum wire tags are variant indices, so new
    // variants go at the end.
    /// A health rule **started** firing (the edge, not every firing
    /// observation — the watchdog records transitions so the trace
    /// links a why chain without an alarm storm). The observed value
    /// stays out: it is wall-clock-shaped and belongs to the metrics
    /// registry, and the watchdog itself is never enabled inside
    /// determinism-fingerprinted runs.
    HealthFlagged {
        /// The rule-kind slug (`gauge-above`, `gauge-growing`,
        /// `counter-rate`, `p99-regression`).
        rule: String,
        metric: String,
        /// Severity name (`info`/`warning`/`critical`).
        severity: String,
    },
}

/// A [`DecisionEvent`] with its position in the stream: a monotone
/// sequence number (survives ring eviction) and the tick it fired at.
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct TracedEvent {
    pub seq: u64,
    pub tick: u64,
    pub event: DecisionEvent,
}

/// A bounded, O(1) ring of [`TracedEvent`]s.
///
/// The disabled constructor makes `record` a single branch — the bench
/// acceptance criterion (steady-tick p50 within 10% of baseline with the
/// sink disabled) rides on this being the whole cost.
#[derive(Clone, Debug)]
pub struct DecisionLog {
    events: VecDeque<TracedEvent>,
    cap: usize,
    next_seq: u64,
    enabled: bool,
}

impl Default for DecisionLog {
    fn default() -> Self {
        Self::new()
    }
}

impl DecisionLog {
    /// An enabled log with the default ring capacity.
    pub fn new() -> Self {
        Self::with_capacity(DEFAULT_TRACE_CAP)
    }

    /// An enabled log holding at most `cap` events (oldest evicted).
    pub fn with_capacity(cap: usize) -> Self {
        DecisionLog {
            events: VecDeque::new(),
            cap: cap.max(1),
            next_seq: 0,
            enabled: true,
        }
    }

    pub fn is_enabled(&self) -> bool {
        self.enabled
    }

    /// Toggle recording; already-recorded events are kept either way.
    pub fn set_enabled(&mut self, enabled: bool) {
        self.enabled = enabled;
    }

    /// Record one event at `tick`. O(1); a branch when disabled.
    pub fn record(&mut self, tick: u64, event: DecisionEvent) {
        if !self.enabled {
            return;
        }
        if self.events.len() == self.cap {
            self.events.pop_front();
        }
        self.events.push_back(TracedEvent {
            seq: self.next_seq,
            tick,
            event,
        });
        self.next_seq += 1;
    }

    pub fn len(&self) -> usize {
        self.events.len()
    }

    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Events currently in the ring, oldest first.
    pub fn events(&self) -> impl Iterator<Item = &TracedEvent> {
        self.events.iter()
    }

    /// The ring's contents as an owned `Vec` (checkpoint / RPC payload).
    pub fn to_vec(&self) -> Vec<TracedEvent> {
        self.events.iter().cloned().collect()
    }

    /// The canonical trace encoding: the event vector through the
    /// workspace codec. Byte equality of two traces is the determinism
    /// property the test suites assert.
    pub fn trace_bytes(&self) -> Vec<u8> {
        serde::to_bytes(&self.to_vec())
    }

    /// Rebuild a log from checkpointed events; the sequence counter
    /// resumes after the last restored event so post-restore history
    /// appends rather than forking.
    pub fn restore(events: Vec<TracedEvent>, cap: usize, enabled: bool) -> Self {
        let next_seq = events.last().map(|e| e.seq + 1).unwrap_or(0);
        DecisionLog {
            events: events.into(),
            cap: cap.max(1),
            next_seq,
            enabled,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(n: &str) -> DecisionEvent {
        DecisionEvent::TenantEvicted { tenant: n.into() }
    }

    #[test]
    fn ring_evicts_oldest_but_seq_keeps_counting() {
        let mut log = DecisionLog::with_capacity(2);
        log.record(1, ev("a"));
        log.record(2, ev("b"));
        log.record(3, ev("c"));
        let got: Vec<u64> = log.events().map(|e| e.seq).collect();
        assert_eq!(got, vec![1, 2]);
        assert_eq!(log.len(), 2);
    }

    #[test]
    fn disabled_log_records_nothing() {
        let mut log = DecisionLog::new();
        log.set_enabled(false);
        log.record(1, ev("a"));
        assert!(log.is_empty());
        assert!(!log.is_enabled());
    }

    #[test]
    fn trace_bytes_round_trip_through_codec() {
        let mut log = DecisionLog::new();
        log.record(
            4,
            DecisionEvent::Replanned {
                reason: "drift[t1]".into(),
                feasible: true,
                moves: 3,
                machines: 5,
                objective_before_bits: 1.25f64.to_bits(),
                objective_after_bits: 1.5f64.to_bits(),
                churn_bits: 0.3f64.to_bits(),
            },
        );
        log.record(
            9,
            DecisionEvent::LeaseMiss {
                shard: 2,
                missed: 1,
                limit: 3,
            },
        );
        let bytes = log.trace_bytes();
        let decoded: Vec<TracedEvent> = serde::from_bytes(&bytes).expect("decodes");
        assert_eq!(decoded, log.to_vec());
    }

    #[test]
    fn ring_at_the_default_cap_keeps_seq_continuity_across_eviction() {
        let mut log = DecisionLog::new();
        let overflow = 137u64;
        for i in 0..DEFAULT_TRACE_CAP as u64 + overflow {
            log.record(i, ev(&format!("t{i}")));
        }
        assert_eq!(log.len(), DEFAULT_TRACE_CAP, "ring caps at exactly 65536");
        // The oldest `overflow` events evicted; seqs run contiguously
        // from `overflow` to cap+overflow-1 with no gap at the seam.
        let seqs: Vec<u64> = log.events().map(|e| e.seq).collect();
        assert_eq!(seqs[0], overflow);
        assert_eq!(
            *seqs.last().unwrap(),
            DEFAULT_TRACE_CAP as u64 + overflow - 1
        );
        assert!(
            seqs.windows(2).all(|w| w[1] == w[0] + 1),
            "seq gap inside the ring"
        );
    }

    #[test]
    fn restore_of_a_full_ring_resumes_after_the_cap() {
        let mut log = DecisionLog::new();
        for i in 0..DEFAULT_TRACE_CAP as u64 + 5 {
            log.record(i, ev("x"));
        }
        let mut restored = DecisionLog::restore(log.to_vec(), DEFAULT_TRACE_CAP, true);
        assert_eq!(restored.len(), DEFAULT_TRACE_CAP);
        restored.record(99_999, ev("after"));
        log.record(99_999, ev("after"));
        assert_eq!(
            restored.trace_bytes(),
            log.trace_bytes(),
            "restored full ring must continue byte-identically"
        );
        // A further record still evicts exactly one from the front.
        assert_eq!(restored.len(), DEFAULT_TRACE_CAP);
    }

    #[test]
    fn query_over_a_partially_evicted_tick_range_returns_the_retained_tail() {
        let mut log = DecisionLog::new();
        // One event per tick; ticks 0..cap+100, so ticks 0..99 evict.
        let total = DEFAULT_TRACE_CAP as u64 + 100;
        for tick in 0..total {
            log.record(tick, ev(&format!("t{tick}")));
        }
        let events = log.to_vec();
        // Requested range [50, 150] straddles the eviction horizon at
        // tick 100: the answer is exactly the retained ticks 100..=150,
        // not an error and not a silent full-range claim.
        let q = crate::query::TraceQuery {
            tick_from: Some(50),
            tick_to: Some(150),
            ..crate::query::TraceQuery::default()
        };
        let got = crate::query::run_query(&q, &events, &[]);
        let ticks: Vec<u64> = got.events.iter().map(|e| e.tick).collect();
        assert_eq!(ticks.first(), Some(&100), "evicted head not resurrected");
        assert_eq!(ticks.last(), Some(&150));
        assert_eq!(ticks.len(), 51);
        // Detectability: the first surviving seq exceeds the requested
        // lower bound, which is how a caller knows the range truncated.
        assert!(got.events.first().unwrap().seq > 50);
    }

    #[test]
    fn restore_resumes_sequence_without_forking() {
        let mut log = DecisionLog::new();
        log.record(1, ev("a"));
        log.record(2, ev("b"));
        let mut restored = DecisionLog::restore(log.to_vec(), DEFAULT_TRACE_CAP, true);
        restored.record(3, ev("c"));
        log.record(3, ev("c"));
        assert_eq!(restored.trace_bytes(), log.trace_bytes());
    }
}
