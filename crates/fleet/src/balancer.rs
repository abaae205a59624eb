//! The cross-shard balancer policy.
//!
//! Each shard plans itself greedily and honestly — if a flash crowd blows
//! past its machine budget, its own re-solver will happily use more
//! machines, because an overloaded-but-feasible placement beats a
//! violated one. Restoring budget compliance is the *balancer's* job:
//! watch per-shard summaries, pick donors (over budget, infeasible, or
//! failing to place), and move their heaviest tenants to the shards with
//! the most headroom through the two-phase handoff ([`crate::handoff`]).
//!
//! The policy is deliberately work-conserving and conservative:
//! reservations use the greedy packer, so a move is only made when the
//! destination certainly fits it, and donors stop shedding as soon as
//! their greedy estimate fits the budget again.

use crate::handoff::{HandoffOutcome, HandoffRecord};
use kairos_controller::{ShardController, ShardSummary, TelemetrySource, TenantHandoff};
use kairos_obs::{span, DecisionEvent, DecisionLog, SpanLog};
use kairos_types::WorkloadProfile;
use std::collections::BTreeMap;

/// Balancer tuning.
#[derive(Debug, Clone, Copy)]
pub struct BalancerConfig {
    /// Machine budget per shard — the capacity constraint the balancer
    /// enforces fleet-wide (each shard's own solver is unconstrained).
    /// This is the **high watermark**: a shard becomes a donor only when
    /// it exceeds it.
    pub machines_per_shard: usize,
    /// Run a balance round every N fleet ticks (once all shards have
    /// bootstrapped).
    pub balance_every: u64,
    /// Handoff cap per round — bounds migration traffic bursts.
    pub max_moves_per_round: usize,
    /// **Low watermark**: once a donor starts shedding, it sheds until its
    /// greedy pack estimate fits this many machines, and receivers must
    /// certify admissions against it too — so a move leaves both sides
    /// with headroom below the donor trigger instead of parking them
    /// exactly at the budget (where the next drift nudges them straight
    /// back over). `0` means "same as `machines_per_shard`" (no split).
    pub low_watermark: usize,
    /// Balance rounds a tenant sits out after being probed for a handoff
    /// (completed *or* rejected). Hysteresis against ping-pong: a fleet
    /// hovering at its budget otherwise re-proposes the same tenants
    /// round after round. `0` disables the cooldown.
    pub cooldown_rounds: u64,
}

impl Default for BalancerConfig {
    fn default() -> BalancerConfig {
        BalancerConfig {
            machines_per_shard: 16,
            balance_every: 6,
            max_moves_per_round: 8,
            low_watermark: 0,
            cooldown_rounds: 2,
        }
    }
}

impl BalancerConfig {
    /// The effective shed/admit target (low watermark, capped at the
    /// budget).
    pub fn shed_target(&self) -> usize {
        if self.low_watermark == 0 {
            self.machines_per_shard
        } else {
            self.low_watermark.min(self.machines_per_shard)
        }
    }
}

/// Fault-injection gate over the balance cadence — the `fleet`-side
/// hook the chaos harness schedules "skip a balancer round" and "delay
/// a balancer round" through, shared by the in-process
/// `FleetController` and the RPC `BalancerNode` so both interpret a
/// schedule identically.
///
/// The controller asks [`admit`](BalanceGate::admit) on every tick with
/// `due` = "the cadence says a round runs now". A **skipped** round is
/// gone; a **delayed** round runs on the next tick instead (one tick
/// late, not re-scheduled onto the next cadence point). An idle gate
/// passes `due` through unchanged, so a fleet with no faults injected
/// behaves exactly as before the gate existed.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub struct BalanceGate {
    skip: u64,
    delay: u64,
    deferred: bool,
}

impl BalanceGate {
    /// Drop the next `n` due balance rounds entirely.
    pub fn skip_rounds(&mut self, n: u64) {
        self.skip += n;
    }

    /// Push each of the next `n` due balance rounds one tick later.
    pub fn delay_rounds(&mut self, n: u64) {
        self.delay += n;
    }

    /// Should a balance round run this tick? Burns at most one pending
    /// skip/delay; skip outranks delay when both are armed.
    pub fn admit(&mut self, due: bool) -> bool {
        let carried = std::mem::replace(&mut self.deferred, false);
        if due {
            if self.skip > 0 {
                self.skip -= 1;
                return carried;
            }
            if self.delay > 0 {
                self.delay -= 1;
                self.deferred = true;
                return carried;
            }
            true
        } else {
            carried
        }
    }
}

/// Is this shard a donor — i.e., must it shed load?
pub fn is_overloaded(summary: &ShardSummary, budget: usize) -> bool {
    summary.planned
        && (summary.machines_used > budget || !summary.feasible || summary.resolve_failed)
}

/// Donor shards, most-loaded first.
pub fn donor_order(summaries: &[ShardSummary], budget: usize) -> Vec<usize> {
    let mut donors: Vec<usize> = (0..summaries.len())
        .filter(|&i| is_overloaded(&summaries[i], budget))
        .collect();
    donors.sort_by_key(|&i| std::cmp::Reverse(summaries[i].machines_used));
    donors
}

/// Receiver preference for one tenant: shards with the fewest machines
/// in use first, excluding the donor and anything unplanned or itself
/// overloaded.
pub fn receiver_order(summaries: &[ShardSummary], donor: usize, budget: usize) -> Vec<usize> {
    let mut receivers: Vec<usize> = (0..summaries.len())
        .filter(|&i| i != donor && summaries[i].planned && !is_overloaded(&summaries[i], budget))
        .collect();
    receivers.sort_by_key(|&i| summaries[i].machines_used);
    receivers
}

/// A tenant mid-transfer between shards, as the balance round carries
/// it: the checksummed wire frame ([`TenantHandoff::into_wire`]'s bytes
/// — name, replicas, full rolling telemetry) plus, for in-process
/// handoffs only, the live telemetry source. Over a real transport the
/// source stays server-side (the destination node re-binds its own);
/// the frame is the part that crosses the boundary either way.
pub struct EvictedTenant {
    pub name: String,
    /// The handoff as a checksummed `kairos-store` frame.
    pub wire: Vec<u8>,
    /// The live source, when the donor and receiver share a process.
    pub source: Option<Box<dyn TelemetrySource>>,
}

/// The surface a balance round drives a shard through — implemented
/// directly by [`ShardController`] (the in-process fleet) and by
/// `kairos-net`'s RPC client handle (a shard behind a transport). One
/// trait, one [`run_balance_round`] implementation: the networked
/// control plane runs the *same* policy code path as the in-process
/// one, which is what makes the loopback fleet tick-for-tick identical
/// to `FleetController` by construction.
pub trait ShardHandle {
    /// The shard's (possibly cached) balancer summary.
    fn summary(&mut self) -> ShardSummary;
    /// Greedy machine estimate for the shard's current tenant set.
    fn pack_estimate_remaining(&mut self) -> Option<usize>;
    /// Forecast one tenant's next horizon. `None` if unknown.
    fn forecast(&mut self, tenant: &str) -> Option<WorkloadProfile>;
    /// Phase 1 reservation: would `incoming` fit within `budget`?
    fn can_admit(&mut self, incoming: &WorkloadProfile, budget: usize) -> bool;
    /// Phase 2a: evict a tenant, returning it as a wire frame (plus the
    /// live source, in-process). `None` if unknown or unreachable.
    fn evict(&mut self, tenant: &str) -> Option<EvictedTenant>;
    /// Phase 2b: admit an evicted tenant. On failure the tenant is
    /// handed back so the round can re-admit it on the donor — the
    /// rollback that keeps a mid-handshake failure from stranding it.
    fn admit(&mut self, tenant: EvictedTenant) -> Result<(), EvictedTenant>;
    /// Does this shard currently hold `tenant`? `None` when that cannot
    /// be determined (unreachable peer). The handshake's recovery path:
    /// when an admit *reports* failure, the transfer may still have
    /// applied with only the response lost — the round asks before
    /// rolling back, so a lost response cannot duplicate a tenant.
    fn owns(&mut self, tenant: &str) -> Option<bool>;
}

impl ShardHandle for ShardController {
    fn summary(&mut self) -> ShardSummary {
        self.summary_cached()
    }

    fn pack_estimate_remaining(&mut self) -> Option<usize> {
        self.pack_estimate(&[])
    }

    fn forecast(&mut self, tenant: &str) -> Option<WorkloadProfile> {
        self.forecast_workload(tenant)
    }

    fn can_admit(&mut self, incoming: &WorkloadProfile, budget: usize) -> bool {
        ShardController::can_admit(self, incoming, budget)
    }

    fn evict(&mut self, tenant: &str) -> Option<EvictedTenant> {
        let handoff = ShardController::evict(self, tenant)?;
        let name = handoff.name.clone();
        // The telemetry crosses as transport-ready bytes — the same
        // checksummed encoding an RPC boundary ships — so the wire
        // format is exercised on every live handoff, not only in tests.
        let (wire, source) = handoff.into_wire();
        Some(EvictedTenant {
            name,
            wire,
            source: Some(source),
        })
    }

    fn admit(&mut self, tenant: EvictedTenant) -> Result<(), EvictedTenant> {
        let EvictedTenant { name, wire, source } = tenant;
        let Some(source) = source else {
            // An in-process shard cannot re-bind a source by itself.
            return Err(EvictedTenant {
                name,
                wire,
                source: None,
            });
        };
        match TenantHandoff::parts_from_wire(&wire) {
            Ok((frame_name, replicas, telemetry)) if frame_name == *source.name() => {
                let sketch = self.sketch_config();
                ShardController::admit(
                    self,
                    TenantHandoff {
                        name: frame_name,
                        replicas,
                        source,
                        telemetry,
                        sketch,
                    },
                );
                Ok(())
            }
            _ => Err(EvictedTenant {
                name,
                wire,
                source: Some(source),
            }),
        }
    }

    fn owns(&mut self, tenant: &str) -> Option<bool> {
        Some(self.has_workload(tenant))
    }
}

/// A handoff stranded mid-handshake by transport faults: the admit
/// reported failure, and either the receiver could not be asked whether
/// it actually applied, or the donor-side rollback failed too. The
/// caller holds these between rounds; every subsequent round resolves
/// them **probe-first** (ask the receiver, then re-admit on the donor),
/// so a tenant is never silently dropped *and* never blindly duplicated.
pub struct ParkedHandoff {
    pub donor: usize,
    pub receiver: usize,
    pub tenant: EvictedTenant,
}

/// Wire version for replicated balancer soft-state frames
/// ([`BalancerSoftState::to_frame`], `kairos-store` framing). Bump on
/// any layout change.
pub const SYNC_STATE_VERSION: u32 = 1;

/// The balancer's **soft state** — everything the balance policy
/// accumulates that is not recoverable from the shards: the per-tenant
/// cooldown memory, the parked-handoff lot, the handoff audit log, and
/// the [`BalanceGate`]. This is what dies with a primary balancer unless
/// replicated; the primary captures one of these per balance round and
/// streams it to standbys (`kairos-net`'s `SyncState` RPC), so a
/// promoted standby resumes the policy mid-stream instead of rebuilding
/// from shard ground truth.
#[derive(Clone, Debug, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub struct BalancerSoftState {
    /// The balance round this snapshot describes (monotone; standbys use
    /// it to detect sync lag).
    pub round: u64,
    /// Fleet tick at capture time.
    pub tick: u64,
    /// Per-tenant cooldown memory: tenant → last probed round.
    pub cooldown: BTreeMap<String, u64>,
    /// Parked handoffs as `(donor, receiver, tenant, wire frame)`. The
    /// live telemetry source cannot cross a process boundary (and is
    /// already `None` on RPC-parked entries), so only the checksummed
    /// frame replicates — exactly what probe-first resolution needs.
    pub parked: Vec<(u64, u64, String, Vec<u8>)>,
    /// The handoff audit log, in order.
    pub handoffs: Vec<HandoffRecord>,
    /// Balance-cadence gate state (pending skips/delays/deferral).
    pub gate: BalanceGate,
}

impl BalancerSoftState {
    /// Capture the current soft state for replication.
    pub fn capture(
        round: u64,
        tick: u64,
        cooldown: &BTreeMap<String, u64>,
        parked: &[ParkedHandoff],
        handoffs: &[HandoffRecord],
        gate: BalanceGate,
    ) -> BalancerSoftState {
        BalancerSoftState {
            round,
            tick,
            cooldown: cooldown.clone(),
            parked: parked
                .iter()
                .map(|p| {
                    (
                        p.donor as u64,
                        p.receiver as u64,
                        p.tenant.name.clone(),
                        p.tenant.wire.clone(),
                    )
                })
                .collect(),
            handoffs: handoffs.to_vec(),
            gate,
        }
    }

    /// Rebuild the parked lot from the replicated entries. Sources are
    /// gone (they never replicate); probe-first resolution re-routes or
    /// re-admits from the wire frame, same as any RPC-parked entry.
    pub fn parked_lot(&self) -> Vec<ParkedHandoff> {
        self.parked
            .iter()
            .map(|(donor, receiver, name, wire)| ParkedHandoff {
                donor: *donor as usize,
                receiver: *receiver as usize,
                tenant: EvictedTenant {
                    name: name.clone(),
                    wire: wire.clone(),
                    source: None,
                },
            })
            .collect()
    }

    /// The state as a checksummed, versioned `kairos-store` frame — the
    /// `SyncState` RPC payload.
    pub fn to_frame(&self) -> Vec<u8> {
        kairos_store::encode_frame(SYNC_STATE_VERSION, self)
    }

    /// Decode a replicated frame; rejects truncation, corruption, and
    /// version mismatches before anything is applied.
    pub fn from_frame(bytes: &[u8]) -> Result<BalancerSoftState, kairos_store::StoreError> {
        kairos_store::decode_frame(bytes, SYNC_STATE_VERSION)
    }
}

/// One balance round over any set of [`ShardHandle`]s: donors shed their
/// heaviest tenants to the emptiest shards that can reserve capacity for
/// them, through the two-phase (reserve → evict → admit) handshake. The
/// single policy implementation shared by the in-process
/// [`crate::FleetController`] and `kairos-net`'s RPC balancer.
///
/// `round` is the balance-round counter (drives the per-tenant probe
/// cooldown stored in `cooldown`), `tick` stamps the audit records. The
/// caller applies the returned records to its shard map and stats.
///
/// `parked` is the caller-held lot of [`ParkedHandoff`]s (only a lossy
/// transport can populate it — in-process handshakes cannot fail). Each
/// round resolves it first: if the receiver turns out to own the tenant
/// (the admit applied, only its response was lost) a late `Completed`
/// record re-routes the map; if the receiver provably does not, the
/// donor re-admits; if neither peer answers, the entry stays parked for
/// the next round.
///
/// `log` receives the round's decision trace — donor flagging,
/// proposals, outcomes, parked retries. Both callers pass their own log
/// and record on the calling thread, so the in-process and RPC fleets
/// produce byte-identical balancer traces by construction (same policy
/// code, same recorder discipline). Pass a log with recording switched
/// off ([`DecisionLog::set_enabled`]) to trace nothing.
///
/// `spans` is the balancer's causal span log. When enabled, the round
/// opens a root `balance_round` span and installs its context for the
/// whole round; each handoff and parked retry opens a child span whose
/// context is installed across the shard calls it makes — so the
/// shard-side `evict`/`admit` spans (local or delivered through an RPC
/// frame's span section) chain into one cross-node tree. Disabled (the
/// default), nothing records and no frame grows a span section.
#[allow(clippy::too_many_arguments)]
pub fn run_balance_round<H: ShardHandle>(
    shards: &mut [H],
    cfg: &BalancerConfig,
    round: u64,
    tick: u64,
    cooldown: &mut BTreeMap<String, u64>,
    parked: &mut Vec<ParkedHandoff>,
    log: &mut DecisionLog,
    spans: &mut SpanLog,
) -> Vec<HandoffRecord> {
    let mut records = Vec::new();
    let round_label = round.to_string();
    let round_ctx = spans.open_root("balance_round", tick, &[("round", &round_label)]);
    let _round_span = span::install(round_ctx);
    let pending = std::mem::take(parked);
    for entry in pending {
        let ParkedHandoff {
            donor,
            receiver,
            tenant,
        } = entry;
        let retry_ctx = round_ctx.and_then(|ctx| {
            spans.open_child(
                ctx,
                "parked_retry",
                tick,
                &[
                    ("tenant", &tenant.name),
                    ("donor", &donor.to_string()),
                    ("receiver", &receiver.to_string()),
                ],
            )
        });
        let _retry_span = span::install(retry_ctx);
        let name = tenant.name.clone();
        let mut still_parked = |tenant| {
            parked.push(ParkedHandoff {
                donor,
                receiver,
                tenant,
            });
            "still-parked"
        };
        let resolution = match shards.get_mut(receiver).and_then(|r| r.owns(&name)) {
            // The original admit landed and only its response was
            // lost: surface the transfer so the caller re-routes.
            Some(true) => {
                records.push(HandoffRecord {
                    tenant: tenant.name,
                    from: donor,
                    to: Some(receiver),
                    tick,
                    outcome: HandoffOutcome::Completed,
                });
                "completed-late"
            }
            // Provably not at the receiver: safe to restore the donor.
            // Probe the donor first — a donor restored from a
            // pre-eviction checkpoint already holds the tenant, and a
            // blind re-admit would wedge the entry (no source left to
            // bind across a process boundary). Already home is done.
            Some(false) if shards.get_mut(donor).and_then(|d| d.owns(&name)) == Some(true) => {
                "returned-to-donor"
            }
            Some(false) => match shards.get_mut(donor) {
                Some(shard) => match shard.admit(tenant) {
                    Ok(()) => "returned-to-donor",
                    Err(returned) => still_parked(returned),
                },
                None => still_parked(tenant),
            },
            // Unknowable right now: keep waiting rather than risk a
            // duplicate.
            None => still_parked(tenant),
        };
        log.record(
            tick,
            DecisionEvent::ParkedRetried {
                tenant: name,
                donor,
                receiver,
                resolution: resolution.into(),
            },
        );
    }
    // A single-shard fleet has no possible receiver: proposing (and
    // counting) handoffs would only pollute the rejection stats, so
    // don't probe donors at all.
    if shards.len() < 2 {
        return records;
    }
    let budget = cfg.machines_per_shard;
    let shed_target = cfg.shed_target();
    let cooldown_rounds = cfg.cooldown_rounds;
    // Staleness-bounded cached summaries: a quiet shard's roll-up is
    // reused between rounds instead of re-forecasting every tenant.
    // Plans, membership, handoffs and failed solves invalidate
    // immediately; the *forecast-derived* donor signal (a placement
    // drifting infeasible without tripping the detector) can lag up
    // to the shard's 24-tick staleness bound. Admissions stay capacity-safe
    // regardless — `can_admit` always re-packs fresh.
    let summaries: Vec<ShardSummary> = shards.iter_mut().map(|s| s.summary()).collect();
    let mut moves_left = cfg.max_moves_per_round;

    for donor in donor_order(&summaries, budget) {
        // The trace records *which* summary fields made this shard a
        // donor — over budget, infeasible plan, or a failed re-solve.
        log.record(
            tick,
            DecisionEvent::DonorFlagged {
                shard: donor,
                machines_used: summaries[donor].machines_used,
                budget,
                feasible: summaries[donor].feasible,
                resolve_failed: summaries[donor].resolve_failed,
            },
        );
        // A saturated fleet can leave a donor with no willing
        // receiver; after a couple of failed reservations this round,
        // stop probing the rest of its tenants (smaller candidates
        // rarely fit where bigger ones already failed, and the next
        // round re-evaluates from fresh summaries anyway).
        let mut rejections = 0;
        for tenant in candidate_order(&summaries[donor]) {
            if moves_left == 0 || rejections >= 2 {
                break;
            }
            // Hysteresis: a tenant probed recently (moved or
            // rejected) sits out `cooldown_rounds` balance rounds, so
            // the same tenant is not re-proposed while the fleet
            // hovers at its budget.
            if cooldown_rounds > 0 {
                if let Some(&last) = cooldown.get(&tenant) {
                    if round.saturating_sub(last) <= cooldown_rounds {
                        continue;
                    }
                }
            }
            // Shedding stops as soon as what remains packs within the
            // low watermark again (greedy estimate, like the
            // reservation; already-evicted tenants are gone from the
            // donor's forecast, so the estimate reflects them). The
            // donor *triggered* at the high watermark (the budget),
            // but sheds down to the low one so the next small drift
            // doesn't immediately re-trigger it.
            let est = shards[donor]
                .pack_estimate_remaining()
                .unwrap_or(usize::MAX);
            if est <= shed_target {
                break;
            }
            let Some(profile) = shards[donor].forecast(&tenant) else {
                continue;
            };
            // Phase 1 — reservation: first receiver (emptiest-first)
            // that certifies capacity for the tenant *within the low
            // watermark*, so admission leaves the receiver headroom
            // instead of parking it at the donor trigger.
            let receiver = receiver_order(&summaries, donor, budget)
                .into_iter()
                .find(|&r| shards[r].can_admit(&profile, shed_target));
            if cooldown_rounds > 0 {
                cooldown.insert(tenant.clone(), round);
            }
            let Some(to) = receiver else {
                rejections += 1;
                log.record(
                    tick,
                    DecisionEvent::HandoffNoReceiver {
                        tenant: tenant.clone(),
                        donor,
                    },
                );
                records.push(HandoffRecord {
                    tenant,
                    from: donor,
                    to: None,
                    tick,
                    outcome: HandoffOutcome::NoReceiver,
                });
                continue;
            };
            log.record(
                tick,
                DecisionEvent::HandoffProposed {
                    tenant: tenant.clone(),
                    donor,
                    receiver: to,
                    shed_target,
                    receiver_machines: summaries[to].machines_used,
                },
            );
            // Phase 2 — transfer: evict (frees capacity on the donor)
            // then admit (telemetry travels as a checksummed wire
            // frame; the receiver replans membership next tick). The
            // handoff span's context covers the whole handshake,
            // including rollback probes, so both shards' spans chain
            // under it.
            let handoff_ctx = round_ctx.and_then(|ctx| {
                spans.open_child(
                    ctx,
                    "handoff",
                    tick,
                    &[
                        ("tenant", &tenant),
                        ("donor", &donor.to_string()),
                        ("receiver", &to.to_string()),
                    ],
                )
            });
            let _handoff_span = span::install(handoff_ctx);
            let mut evicted = shards[donor].evict(&tenant);
            if evicted.is_none() && shards[donor].owns(&tenant) == Some(false) {
                // The eviction came back empty while the donor provably
                // no longer hosts the tenant: the evict applied and its
                // *response* was lost. The donor's outbox retains the
                // frame for exactly this retry — and the probe having
                // just answered means the link works again.
                evicted = shards[donor].evict(&tenant);
            }
            let Some(evicted) = evicted else {
                // Unreachable donor (or a candidate its summary listed
                // but it no longer hosts — only possible over a failing
                // transport). If the eviction did apply under the
                // failure, the donor's lease is collapsing with it and
                // the rejoin reconciliation re-seeds what the map still
                // routes there. The reservation *was* granted, so this
                // is a mid-handshake transport fault, not a capacity
                // rejection — record it as Failed so the operator-facing
                // counters tell the truth.
                rejections += 1;
                log.record(
                    tick,
                    DecisionEvent::HandoffFailed {
                        tenant: tenant.clone(),
                        donor,
                        receiver: to,
                        returned_to_donor: false,
                    },
                );
                records.push(HandoffRecord {
                    tenant,
                    from: donor,
                    to: Some(to),
                    tick,
                    outcome: HandoffOutcome::Failed,
                });
                continue;
            };
            let mut park = |log: &mut DecisionLog, tenant: EvictedTenant| {
                log.record(
                    tick,
                    DecisionEvent::HandoffParked {
                        tenant: tenant.name.clone(),
                        donor,
                        receiver: to,
                    },
                );
                parked.push(ParkedHandoff {
                    donor,
                    receiver: to,
                    tenant,
                });
            };
            // `Ok`: the tenant landed on the receiver. `Err`: the
            // handshake failed — carrying whether the tenant is back on
            // the donor.
            let landed = match shards[to].admit(evicted) {
                Ok(()) => Ok(()),
                // The admit *reported* failure — but over a lossy
                // transport the transfer may have applied with only
                // the response lost. Ask before rolling back: a
                // blind donor re-admit would duplicate the tenant.
                Err(returned) => match shards[to].owns(&tenant) {
                    Some(true) => Ok(()),
                    // Provably not admitted: roll the tenant back onto
                    // the donor so it is never stranded. The donor admit
                    // reuses the same frame + source the eviction
                    // produced, so the rollback is exact; if even that
                    // fails (a second fault), park for the probe-first
                    // retry.
                    Some(false) => match shards[donor].admit(returned) {
                        Ok(()) => Err(true),
                        Err(orphan) => {
                            park(log, orphan);
                            Err(false)
                        }
                    },
                    // The receiver cannot be asked right now — the
                    // transfer may or may not have landed, and a blind
                    // rollback could duplicate. Park; the next round
                    // probes first.
                    None => {
                        park(log, returned);
                        Err(false)
                    }
                },
            };
            match landed {
                Ok(()) => {
                    moves_left -= 1;
                    log.record(
                        tick,
                        DecisionEvent::HandoffCompleted {
                            tenant: tenant.clone(),
                            donor,
                            receiver: to,
                        },
                    );
                    records.push(HandoffRecord {
                        tenant,
                        from: donor,
                        to: Some(to),
                        tick,
                        outcome: HandoffOutcome::Completed,
                    });
                }
                Err(returned_to_donor) => {
                    rejections += 1;
                    log.record(
                        tick,
                        DecisionEvent::HandoffFailed {
                            tenant: tenant.clone(),
                            donor,
                            receiver: to,
                            returned_to_donor,
                        },
                    );
                    records.push(HandoffRecord {
                        tenant,
                        from: donor,
                        to: Some(to),
                        tick,
                        outcome: HandoffOutcome::Failed,
                    });
                }
            }
        }
    }
    records
}

/// Handoff candidates on a donor: heaviest forecast CPU peak first —
/// moving the tenant that caused the overload relieves the most pressure
/// per migration.
pub fn candidate_order(summary: &ShardSummary) -> Vec<String> {
    let mut loads = summary.tenant_loads.clone();
    loads.sort_by(|a, b| {
        b.cpu_peak
            .partial_cmp(&a.cpu_peak)
            .expect("finite forecast peaks")
            .then_with(|| a.name.cmp(&b.name))
    });
    loads.into_iter().map(|t| t.name).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use kairos_controller::TenantLoad;
    use kairos_traces::AggregateSketch;

    fn summary(planned: bool, machines: usize, feasible: bool) -> ShardSummary {
        ShardSummary {
            tenants: 3,
            planned,
            machines_used: machines,
            feasible,
            violation: if feasible { 0.0 } else { 1.0 },
            resolve_failed: false,
            drifting: 0,
            aggregate: AggregateSketch::empty(300.0),
            tenant_loads: vec![
                TenantLoad {
                    name: "small".into(),
                    replicas: 1,
                    cpu_peak: 1.0,
                    ram_peak: 1e9,
                    ws_peak: 5e8,
                    rate_peak: 10.0,
                },
                TenantLoad {
                    name: "big".into(),
                    replicas: 1,
                    cpu_peak: 6.0,
                    ram_peak: 4e9,
                    ws_peak: 2e9,
                    rate_peak: 400.0,
                },
            ],
        }
    }

    #[test]
    fn donors_are_over_budget_or_broken() {
        let s = vec![
            summary(true, 10, true), // fine
            summary(true, 20, true), // over budget
            summary(true, 8, false), // infeasible
            summary(false, 0, true), // bootstrapping: never a donor
        ];
        assert_eq!(donor_order(&s, 16), vec![1, 2]);
    }

    #[test]
    fn receivers_prefer_emptier_shards() {
        let s = vec![
            summary(true, 20, true), // donor
            summary(true, 12, true),
            summary(true, 4, true),
            summary(true, 17, true), // itself over budget: excluded
        ];
        assert_eq!(receiver_order(&s, 0, 16), vec![2, 1]);
    }

    #[test]
    fn candidates_heaviest_first() {
        assert_eq!(
            candidate_order(&summary(true, 20, true)),
            vec!["big".to_string(), "small".to_string()]
        );
    }

    #[test]
    fn idle_gate_is_transparent() {
        let mut gate = BalanceGate::default();
        assert!(gate.admit(true));
        assert!(!gate.admit(false));
        assert!(gate.admit(true));
    }

    #[test]
    fn skipped_rounds_are_gone() {
        let mut gate = BalanceGate::default();
        gate.skip_rounds(2);
        assert!(!gate.admit(true));
        assert!(!gate.admit(false));
        assert!(!gate.admit(true));
        assert!(gate.admit(true), "skips exhausted");
    }

    #[test]
    fn delayed_round_runs_one_tick_late() {
        let mut gate = BalanceGate::default();
        gate.delay_rounds(1);
        // Cadence fires at tick 4; the round runs at tick 5 instead.
        assert!(!gate.admit(true), "due round deferred");
        assert!(gate.admit(false), "deferred round fires off-cadence");
        assert!(!gate.admit(false));
        assert!(gate.admit(true), "later cadences unaffected");
    }

    #[test]
    fn skip_outranks_delay() {
        let mut gate = BalanceGate::default();
        gate.skip_rounds(1);
        gate.delay_rounds(1);
        assert!(!gate.admit(true), "skipped outright, no deferral");
        assert!(!gate.admit(false), "nothing was deferred by the skip");
        assert!(!gate.admit(true), "this one is delayed");
        assert!(gate.admit(false), "and lands one tick later");
    }
}
