//! The balancer-of-balancers: zones below, one root above.
//!
//! A single [`crate::FleetController`] balances tenants between its own
//! shards. At mega-fleet scale (a thousand shards, tens of thousands of
//! tenants) one balancer cannot look at every shard every round — so the
//! fleet decomposes into **zones**, each running the ordinary per-shard
//! balance loop over its slice, and a **root balancer** runs the *same*
//! policy one level up:
//!
//! ```text
//!                      ┌───────────────────────────┐
//!                      │       RootBalancer        │
//!                      │  run_balance_round over   │
//!                      │     zone roll-ups only    │
//!                      └──┬─────────┬─────────┬────┘
//!       zone summaries ▲  │         │         │  ▼ group frames
//!                      ┌──┴───┐ ┌───┴──┐ ┌────┴─┐
//!                      │zone 0│ │zone 1│ │zone Z│  Zone = FleetController
//!                      │ ...  │ │ ...  │ │ ...  │  + group bookkeeping
//!                      └──────┘ └──────┘ └──────┘
//! ```
//!
//! Three ideas make the level-up reuse work:
//!
//! 1. **The unit of movement is a tenant *group***, not a tenant. Every
//!    tenant hashes to one of a fixed number of groups ([`group_of`]);
//!    the root balancer moves whole groups, so its working set is
//!    `groups`, not `tenants`, and its audit trail stays readable.
//! 2. **A zone presents itself as one big shard.** [`Zone`] implements
//!    [`ShardHandle`] — summary, reserve, evict, admit, owns — so
//!    [`crate::run_balance_round`] drives zones with the *identical* policy
//!    code that drives shards. Its "summary" is a constant-size roll-up
//!    of the per-shard summaries: counters sum, flags AND/OR, and the
//!    aggregate series sum as sketches
//!    ([`kairos_traces::AggregateSketch::sum`]) — so the roll-up's wire
//!    size is independent of both window length *and* zone width.
//! 3. **Groups travel as one frame.** A group eviction bundles each
//!    member's (sketched) handoff frame into a single checksummed
//!    [`GROUP_WIRE_VERSION`] frame; the receiving zone validates it,
//!    re-binds destination-side telemetry sources, and admits every
//!    member — the same decode-before-touch discipline as the tenant
//!    handoff path.
//!
//! The root never sees a tenant's telemetry, a shard's summary, or a
//! per-tenant forecast: its inputs are zone roll-ups and group-level
//! peak envelopes only, which is what keeps a *steady* root round flat as
//! shards multiply; a round that moves a group also pays for the group's
//! members (`fleet_scale` times that round at 250 and 1,000 shards and
//! checks the ratio). Over RPC, the round's one summary request per zone
//! costs one small frame when the zone's roll-up has not changed since
//! the root last read it: `kairos-net`'s link asks by the roll-up's
//! [`ShardSummary::digest`] ([`Zone::rollup_digest`] answers), and a
//! round that follows a tick's fan-out asks for bytes it already holds.
//! The zone itself recomputes the roll-up only when a shard summary
//! beneath it changed: its memo is keyed by the member shards' summary
//! digests, so a quiet tick serves the stored roll-up and digest.

use crate::balancer::{BalancerConfig, EvictedTenant, ShardHandle};
use crate::fleet::FleetController;
use crate::handoff::HandoffRecord;
use crate::plane::{BalancePlane, FleetMetrics};
use kairos_controller::{ShardSummary, TelemetrySource, TenantHandoff, TenantLoad};
use kairos_obs::{Counter, DecisionEvent, Histogram, MetricsRegistry, SpanLog};
use kairos_traces::AggregateSketch;
use kairos_types::{Bytes, DiskDemand, Rate, WorkloadProfile};
use serde::Serialize;
use std::collections::BTreeMap;
use std::time::Instant;

/// Frame version for a bundled group handoff — `(group name, member
/// handoff frames)` under the standard `kairos-store` envelope. Each
/// member frame is itself a complete
/// [`kairos_controller::HANDOFF_WIRE_VERSION`] frame (sketched
/// telemetry, its own CRC), so a damaged member is caught by its own
/// checksum even before the group checksum is consulted.
pub const GROUP_WIRE_VERSION: u32 = 1;

/// Deterministic tenant → group partition (FNV-1a over the name, mod
/// `groups`). Stable across processes, platforms and runs — the
/// property that lets any zone, the root, and the bench all agree on
/// membership without ever exchanging it.
pub fn group_of(tenant: &str, groups: usize) -> usize {
    debug_assert!(groups > 0, "group count must be positive");
    let mut h: u64 = 0xcbf29ce484222325;
    for b in tenant.as_bytes() {
        h ^= u64::from(*b);
        h = h.wrapping_mul(0x100000001b3);
    }
    (h % groups.max(1) as u64) as usize
}

/// Canonical display name for group `index` — the "tenant" identifier
/// the root balancer's records and traces carry.
pub fn group_name(index: usize) -> String {
    format!("g{index}")
}

/// Inverse of [`group_name`].
pub fn group_index(name: &str) -> Option<usize> {
    name.strip_prefix('g')?.parse().ok()
}

/// One group's resident membership inside a zone, as
/// [`Zone::resident_groups`] reports it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TenantGroup {
    pub index: usize,
    /// Member tenants, sorted (deterministic eviction order).
    pub members: Vec<String>,
}

/// A zone's constant-size roll-up with its provenance — what
/// [`Zone::rollup`] computes and a zone node serves the root over RPC.
/// `summary` is shaped exactly like a shard's [`ShardSummary`] (that is
/// the point: the root's policy code cannot tell zones from shards);
/// its `tenant_loads` are *group* envelopes, one per resident group,
/// with `replicas` carrying the group's summed member replica count.
#[derive(Debug, Clone)]
pub struct ZoneRollup {
    pub zone: usize,
    pub shards: usize,
    pub tenants: usize,
    pub groups: usize,
    pub summary: ShardSummary,
}

impl ZoneRollup {
    /// The roll-up's encoded size (workspace codec) — the quantity the
    /// sketches hold independent of window length, reported in
    /// [`DecisionEvent::ZoneSummarized`] and the hierarchy bench.
    pub fn encoded_len(&self) -> usize {
        serde::to_bytes(&self.summary).len()
    }
}

/// Binds a destination-side telemetry source for a tenant admitted into
/// a zone — the cross-zone analogue of `kairos-net`'s admit-path source
/// binder. A group frame carries sketched history, never live sources;
/// whoever admits it must be able to produce fresh sources by name.
pub type ZoneSourceBinder = Box<dyn FnMut(&str, u64) -> Option<Box<dyn TelemetrySource>> + Send>;

/// A zone: one [`FleetController`] plus the group bookkeeping that lets
/// it stand in for "one big shard" under the root balancer. Implements
/// [`ShardHandle`], so [`crate::run_balance_round`] — unchanged — is the root
/// balance policy.
pub struct Zone {
    id: usize,
    fleet: FleetController,
    groups: usize,
    binder: ZoneSourceBinder,
    /// Roll-up memo keyed by content: the member shards'
    /// `summary_digest`s, in shard order, that the roll-up was computed
    /// from. The roll-up is a pure function of those summaries, so the
    /// root's summary requests, the group `forecast`s its round makes and
    /// a node's `PlannedOnce` read one computation until a shard's
    /// summary changes — whether by a tick, an evict/admit, or a change
    /// made through [`Zone::fleet_mut`]. Beside it, the roll-up's
    /// [`ShardSummary::digest`], computed on first demand.
    rollup_cache: Option<(Vec<u64>, ZoneRollup, Option<u64>)>,
    /// `kairos_fleet_zone_rollups_total` in the zone fleet's registry:
    /// roll-ups actually computed (memo misses).
    rollups: Counter,
    /// Zone-level causal spans (`zone_evict`/`zone_admit`, node id
    /// `span::node_for_zone(id)`): the middle layer of the cross-zone
    /// group-move trace, between the root's `handoff` span and the
    /// member shards' `evict`/`admit` spans.
    spans: SpanLog,
}

impl Zone {
    pub fn new(id: usize, fleet: FleetController, groups: usize, binder: ZoneSourceBinder) -> Zone {
        assert!(groups > 0, "group count must be positive");
        let rollups = fleet
            .metrics_registry()
            .counter("kairos_fleet_zone_rollups_total");
        Zone {
            id,
            fleet,
            groups,
            binder,
            rollup_cache: None,
            rollups,
            spans: SpanLog::new(kairos_obs::span::node_for_zone(id)),
        }
    }

    pub fn id(&self) -> usize {
        self.id
    }

    pub fn fleet(&self) -> &FleetController {
        &self.fleet
    }

    pub fn fleet_mut(&mut self) -> &mut FleetController {
        &mut self.fleet
    }

    /// Enable or disable causal span tracing for the whole zone: the
    /// zone's own log plus its fleet, with member shards renumbered into
    /// the hierarchy's node-id space (`span::node_for_zone_shard`).
    pub fn set_span_tracing(&mut self, enabled: bool) {
        self.spans.set_enabled(enabled);
        self.fleet.set_span_tracing(enabled);
        self.fleet
            .set_span_node(kairos_obs::span::node_for_zone_balancer(self.id));
        for (i, shard) in self.fleet.shards_mut().iter_mut().enumerate() {
            shard.configure_spans(kairos_obs::span::node_for_zone_shard(self.id, i), enabled);
        }
    }

    /// The zone-level span log (`zone_evict`/`zone_admit` spans).
    pub fn span_log(&self) -> &SpanLog {
        &self.spans
    }

    /// Every span recorded in this zone — zone-level first, then the
    /// fleet's (balancer + member shards).
    pub fn all_spans(&self) -> Vec<kairos_obs::SpanRecord> {
        let mut all = self.spans.to_vec();
        all.extend(self.fleet.all_spans());
        all
    }

    /// One monitoring interval for the whole zone: every shard ticks and
    /// the zone's own (shard-level) balance cadence runs.
    pub fn tick(&mut self) -> crate::fleet::FleetTickReport {
        self.fleet.tick()
    }

    /// Groups with at least one member resident in this zone, members
    /// sorted — the deterministic order group evictions walk.
    pub fn resident_groups(&self) -> Vec<TenantGroup> {
        let mut by_group: BTreeMap<usize, Vec<String>> = BTreeMap::new();
        for (tenant, _) in self.fleet.map().entries() {
            by_group
                .entry(group_of(tenant, self.groups))
                .or_default()
                .push(tenant.to_string());
        }
        by_group
            .into_iter()
            .map(|(index, mut members)| {
                members.sort();
                TenantGroup { index, members }
            })
            .collect()
    }

    /// Sorted members of one group resident here (empty if none).
    fn members_of(&self, group: usize) -> Vec<String> {
        let mut members: Vec<String> = self
            .fleet
            .map()
            .entries()
            .filter(|(t, _)| group_of(t, self.groups) == group)
            .map(|(t, _)| t.to_string())
            .collect();
        members.sort();
        members
    }

    /// The zone as one constant-size summary: counters sum, health flags
    /// AND/OR, aggregates sum *as sketches*, and `tenant_loads` carries
    /// one peak envelope per resident group (`replicas` = summed member
    /// replicas). Everything derives from the shards' (cached) summaries
    /// — no per-tenant telemetry is touched.
    pub fn rollup(&mut self) -> ZoneRollup {
        self.cached_rollup().clone()
    }

    /// [`ShardSummary::digest`] of the roll-up's summary, computed at most
    /// once per roll-up — what a zone node answers `SummarySince` from
    /// without cloning or encoding on a match.
    pub fn rollup_digest(&mut self) -> u64 {
        self.cached_rollup();
        let (_, rollup, digest) = self.rollup_cache.as_mut().expect("just filled");
        *digest.get_or_insert_with(|| rollup.summary.digest())
    }

    /// The memoized roll-up, computed first if any shard's summary
    /// digest differs from the memo's key.
    fn cached_rollup(&mut self) -> &ZoneRollup {
        let shards = self.fleet.shards_mut();
        // No short circuit: every shard reads its summary on every call,
        // hit or miss, so each refills on the ticks it always has.
        let fresh = match &self.rollup_cache {
            Some((key, ..)) if key.len() == shards.len() => shards
                .iter_mut()
                .zip(key)
                .fold(true, |fresh, (shard, &digest)| {
                    (shard.summary_digest() == digest) & fresh
                }),
            _ => false,
        };
        if !fresh {
            let key = shards.iter_mut().map(|s| s.summary_digest()).collect();
            let rollup = self.compute_rollup();
            self.rollups.inc();
            self.rollup_cache = Some((key, rollup, None));
        }
        &self.rollup_cache.as_ref().expect("filled above").1
    }

    fn compute_rollup(&mut self) -> ZoneRollup {
        let groups = self.groups;
        let interval = self.fleet.config().shard.telemetry.interval_secs;
        let summaries: Vec<&ShardSummary> = self
            .fleet
            .shards_mut()
            .iter_mut()
            .map(|s| s.summary_ref())
            .collect();
        let aggregate = AggregateSketch::sum(summaries.iter().map(|s| &s.aggregate), interval);
        let mut loads: BTreeMap<usize, TenantLoad> = BTreeMap::new();
        for s in &summaries {
            for t in &s.tenant_loads {
                let g = group_of(&t.name, groups);
                let entry = loads.entry(g).or_insert_with(|| TenantLoad {
                    name: group_name(g),
                    replicas: 0,
                    cpu_peak: 0.0,
                    ram_peak: 0.0,
                    ws_peak: 0.0,
                    rate_peak: 0.0,
                });
                entry.replicas += t.replicas;
                entry.cpu_peak += t.cpu_peak;
                entry.ram_peak += t.ram_peak;
                entry.ws_peak += t.ws_peak;
                entry.rate_peak += t.rate_peak;
            }
        }
        ZoneRollup {
            zone: self.id,
            shards: summaries.len(),
            tenants: summaries.iter().map(|s| s.tenants).sum(),
            groups: loads.len(),
            summary: ShardSummary {
                tenants: summaries.iter().map(|s| s.tenants).sum(),
                // A zone is "planned" when every shard that *has*
                // tenants has planned them. An empty shard never
                // bootstraps, but an empty (or partly empty) zone is
                // still a perfectly good receiver — admitted members
                // bootstrap it.
                planned: summaries.iter().all(|s| s.planned || s.tenants == 0),
                machines_used: summaries.iter().map(|s| s.machines_used).sum(),
                feasible: summaries.iter().all(|s| s.feasible),
                violation: summaries.iter().map(|s| s.violation).sum(),
                resolve_failed: summaries.iter().any(|s| s.resolve_failed),
                drifting: summaries.iter().map(|s| s.drifting).sum(),
                aggregate,
                tenant_loads: loads.into_values().collect(),
            },
        }
    }

    /// The shard-level admission bar group admits certify against: the
    /// zone's own balancer low watermark — the same bar its internal
    /// balance rounds hold receivers to.
    fn per_shard_target(&self) -> usize {
        self.fleet.config().balancer.shed_target()
    }

    /// Index of the emptiest planned shard (fewest machines in use),
    /// falling back to the least-populated unplanned shard — an empty
    /// shard has not bootstrapped yet, but admitting into it is exactly
    /// how it starts. Reads the cached summaries in place.
    fn emptiest_shard(&mut self) -> Option<usize> {
        let summaries: Vec<&ShardSummary> = self
            .fleet
            .shards_mut()
            .iter_mut()
            .map(|s| s.summary_ref())
            .collect();
        (0..summaries.len())
            .filter(|&i| summaries[i].planned)
            .min_by_key(|&i| summaries[i].machines_used)
            .or_else(|| {
                (0..summaries.len())
                    .min_by_key(|&i| (summaries[i].tenants, summaries[i].machines_used))
            })
    }
}

impl ShardHandle for Zone {
    fn summary(&mut self) -> ShardSummary {
        self.cached_rollup().summary.clone()
    }

    fn pack_estimate_remaining(&mut self) -> Option<usize> {
        self.fleet.pack_estimate_total()
    }

    /// A *group's* forecast: the flat peak envelope of its resident
    /// members, straight from the roll-up (sums of per-tenant forecast
    /// peaks). Deliberately conservative — a receiver zone certifying
    /// this envelope certainly fits the group's true series — and O(1)
    /// in window length, like everything the root consumes.
    fn forecast(&mut self, tenant: &str) -> Option<WorkloadProfile> {
        let horizon = self.fleet.config().shard.horizon.max(1);
        let interval = self.fleet.config().shard.telemetry.interval_secs;
        let load = self
            .cached_rollup()
            .summary
            .tenant_loads
            .iter()
            .find(|t| t.name == tenant)?;
        Some(WorkloadProfile::flat(
            tenant,
            interval,
            horizon,
            load.cpu_peak,
            Bytes(load.ram_peak.max(0.0) as u64),
            DiskDemand::new(
                Bytes(load.ws_peak.max(0.0) as u64),
                Rate(load.rate_peak.max(0.0)),
            ),
        ))
    }

    /// Zone-level reservation: the emptiest planned shard must certify
    /// the *whole group's* envelope within this zone's own per-shard
    /// low watermark. The root-level `budget` gates donor selection and
    /// ordering (via the roll-up's `machines_used`); admission safety is
    /// enforced where capacity actually lives — at a shard, by the same
    /// greedy packer every tenant-level reservation uses.
    fn can_admit(&mut self, incoming: &WorkloadProfile, _budget: usize) -> bool {
        let target = self.per_shard_target();
        let Some(shard) = self.emptiest_shard() else {
            return false;
        };
        self.fleet.shards()[shard].can_admit(incoming, target)
    }

    /// Evict a whole group: every resident member leaves its shard as a
    /// sketched handoff frame, and the frames bundle into one
    /// [`GROUP_WIRE_VERSION`] frame. Sources are dropped — the admitting
    /// zone re-binds its own, exactly like an RPC admit.
    fn evict(&mut self, tenant: &str) -> Option<EvictedTenant> {
        let group = group_index(tenant)?;
        let members = self.members_of(group);
        if members.is_empty() {
            return None;
        }
        // Chain the member evictions under a zone-level span: the root's
        // handoff context (installed locally, or delivered by the Evict
        // frame's span section) parents it; each member shard's `evict`
        // span parents under this one in turn.
        let zone_ctx = kairos_obs::span::current().and_then(|parent| {
            self.spans.open_child(
                parent,
                "zone_evict",
                self.fleet.stats().ticks,
                &[("group", tenant)],
            )
        });
        let _zone_span = kairos_obs::span::install(zone_ctx);
        let mut frames: Vec<Vec<u8>> = Vec::with_capacity(members.len());
        for member in &members {
            // In-process evictions cannot fail for resident tenants.
            let frame = self
                .fleet
                .evict_tenant(member)
                .expect("resident member evicts");
            frames.push(frame);
        }
        let wire = kairos_store::encode_frame(GROUP_WIRE_VERSION, &(tenant.to_string(), frames));
        Some(EvictedTenant {
            name: tenant.to_string(),
            wire,
            source: None,
        })
    }

    /// Admit a group frame: validate, decode every member, bind every
    /// destination-side source, and only then touch state — so a damaged
    /// frame or an unbindable member rejects the whole group with zero
    /// state change (the round's rollback then re-admits it at the
    /// donor). Members land on the emptiest planned shard; the zone's
    /// own balance rounds spread them from there.
    fn admit(&mut self, tenant: EvictedTenant) -> Result<(), EvictedTenant> {
        let Ok((group, frames)) =
            kairos_store::decode_frame::<(String, Vec<Vec<u8>>)>(&tenant.wire, GROUP_WIRE_VERSION)
        else {
            return Err(tenant);
        };
        if group != tenant.name {
            return Err(tenant);
        }
        let at_tick = self.fleet.stats().ticks;
        let mut members = Vec::with_capacity(frames.len());
        for frame in &frames {
            let Ok((name, replicas, telemetry)) = TenantHandoff::parts_from_wire(frame) else {
                return Err(tenant);
            };
            let Some(source) = (self.binder)(&name, at_tick) else {
                return Err(tenant);
            };
            if source.name() != name {
                return Err(tenant);
            }
            members.push((name, replicas, telemetry, source));
        }
        let Some(shard) = self.emptiest_shard() else {
            return Err(tenant);
        };
        let zone_ctx = kairos_obs::span::current().and_then(|parent| {
            self.spans
                .open_child(parent, "zone_admit", at_tick, &[("group", &group)])
        });
        let _zone_span = kairos_obs::span::install(zone_ctx);
        let sketch = self.fleet.shards()[shard].sketch_config();
        for (name, replicas, telemetry, source) in members {
            self.fleet.admit_handoff(
                shard,
                TenantHandoff {
                    name,
                    replicas,
                    source,
                    telemetry,
                    sketch,
                },
            );
        }
        Ok(())
    }

    fn owns(&mut self, tenant: &str) -> Option<bool> {
        let group = group_index(tenant)?;
        Some(
            self.fleet
                .map()
                .entries()
                .any(|(t, _)| group_of(t, self.groups) == group),
        )
    }
}

/// Root balancer tuning.
#[derive(Debug, Clone, Copy)]
pub struct RootConfig {
    /// The balance policy, one level up: `machines_per_shard` reads as
    /// *machines per zone* (a zone becomes a donor above it), the shed
    /// target as the zone-level low watermark, and the cooldown applies
    /// to groups.
    pub balancer: BalancerConfig,
    /// Fleet-wide tenant-group count every zone partitions by.
    pub groups: usize,
}

impl Default for RootConfig {
    fn default() -> RootConfig {
        RootConfig {
            balancer: BalancerConfig {
                machines_per_shard: 64,
                balance_every: 6,
                max_moves_per_round: 4,
                low_watermark: 0,
                cooldown_rounds: 2,
            },
            groups: 64,
        }
    }
}

/// The fleet-of-fleets balancer: the shared balance round over zone
/// roll-ups, moving tenant groups. What is the root's own is the zone
/// roll-up pass ([`DecisionEvent::ZoneSummarized`], group sizes for
/// [`DecisionEvent::GroupMoved`]); the root-level soft state (group
/// cooldowns, parked group handoffs), its decision trace (the ordinary
/// balancer events with zones in the shard slots), its span log (node id
/// `span::NODE_ROOT` — the top of the cross-zone group-move trace) and
/// its `root_*` metrics registry are the [`BalancePlane`] it derefs to.
pub struct RootBalancer {
    cfg: RootConfig,
    plane: BalancePlane,
    round_usecs: Histogram,
    /// `root_summary_bytes_total`: the encoded size of every roll-up the
    /// round reads — what a full `Summary` answer would carry, not the
    /// bytes on the wire (a digest-only answer ships a few bytes and
    /// still counts the whole roll-up here).
    summary_bytes: Counter,
    /// Reused encode buffer: the roll-up pass measures each summary's
    /// encoded size without allocating a fresh buffer per zone.
    encode_buf: Vec<u8>,
    /// Reused group-size counts, indexed by [`group_index`]: the roll-up
    /// pass sums each group's member replicas here for
    /// [`DecisionEvent::GroupMoved`]. Grows on demand.
    group_sizes: Vec<u32>,
}

impl std::ops::Deref for RootBalancer {
    type Target = BalancePlane;

    fn deref(&self) -> &BalancePlane {
        &self.plane
    }
}

impl std::ops::DerefMut for RootBalancer {
    fn deref_mut(&mut self) -> &mut BalancePlane {
        &mut self.plane
    }
}

impl RootBalancer {
    pub fn new(cfg: RootConfig) -> RootBalancer {
        assert!(cfg.groups > 0, "group count must be positive");
        let registry = MetricsRegistry::new();
        RootBalancer {
            cfg,
            round_usecs: registry.histogram("root_round_usecs"),
            summary_bytes: registry.counter("root_summary_bytes_total"),
            encode_buf: Vec::new(),
            group_sizes: Vec::new(),
            plane: BalancePlane::new(
                cfg.balancer,
                FleetMetrics::root(registry),
                kairos_obs::span::NODE_ROOT,
            ),
        }
    }

    pub fn config(&self) -> &RootConfig {
        &self.cfg
    }

    pub fn metrics_json(&self) -> String {
        self.plane.metrics_registry().render_json()
    }

    /// One root balance round at fleet tick `tick`: summarize every
    /// zone (traced as [`DecisionEvent::ZoneSummarized`]), then run the
    /// shared balance policy over the roll-ups, moving whole groups
    /// between overloaded and underloaded zones. Returns the round's
    /// records with zones in the donor/receiver slots.
    pub fn run_round<Z: ShardHandle>(&mut self, zones: &mut [Z], tick: u64) -> Vec<HandoffRecord> {
        let started = Instant::now();
        // Pre-round roll-up pass: traces each zone's constant-size view
        // and counts group sizes by index so completed moves can report
        // them. The balance round then reads these same roll-ups (see
        // `Prefetched`): one summary request per zone per round — over
        // RPC a digest-only frame when the zone's roll-up is unchanged.
        self.group_sizes.fill(0);
        let mut prefetched = Vec::with_capacity(zones.len());
        for (i, zone) in zones.iter_mut().enumerate() {
            let summary = zone.summary();
            self.encode_buf.clear();
            summary.encode_to(&mut self.encode_buf);
            let bytes = self.encode_buf.len();
            self.summary_bytes.add(bytes as u64);
            for load in &summary.tenant_loads {
                if let Some(g) = group_index(&load.name) {
                    if g >= self.group_sizes.len() {
                        self.group_sizes.resize(g + 1, 0);
                    }
                    self.group_sizes[g] += load.replicas;
                }
            }
            self.plane.record(
                tick,
                DecisionEvent::ZoneSummarized {
                    zone: i,
                    tenants: summary.tenants,
                    groups: summary.tenant_loads.len(),
                    machines_used: summary.machines_used,
                    summary_bytes: bytes,
                },
            );
            prefetched.push(Prefetched {
                zone,
                summary: Some(summary),
            });
        }
        let records = self.plane.round(&mut prefetched, tick);
        for record in records.iter().filter(|r| r.completed()) {
            self.plane.record(
                tick,
                DecisionEvent::GroupMoved {
                    group: record.tenant.clone(),
                    tenants: group_index(&record.tenant)
                        .and_then(|g| self.group_sizes.get(g))
                        .map_or(0, |&n| n as usize),
                    from_zone: record.from,
                    to_zone: record.to.expect("completed moves carry a destination"),
                },
            );
        }
        self.round_usecs
            .record(started.elapsed().as_micros() as u64);
        records
    }
}

/// A zone as the root's balance round sees it: the roll-up the pre-round
/// pass already fetched stands in for the round's own summary request.
/// An evict or admit the round makes on the zone first (a parked retry
/// re-admitting on its donor, a rollback) may change what the zone would
/// answer, so either drops it and the zone is asked afresh.
struct Prefetched<'a, Z> {
    zone: &'a mut Z,
    summary: Option<ShardSummary>,
}

impl<Z: ShardHandle> ShardHandle for Prefetched<'_, Z> {
    fn summary(&mut self) -> ShardSummary {
        match self.summary.take() {
            Some(summary) => summary,
            None => self.zone.summary(),
        }
    }

    fn pack_estimate_remaining(&mut self) -> Option<usize> {
        self.zone.pack_estimate_remaining()
    }

    fn forecast(&mut self, tenant: &str) -> Option<WorkloadProfile> {
        self.zone.forecast(tenant)
    }

    fn can_admit(&mut self, incoming: &WorkloadProfile, budget: usize) -> bool {
        self.zone.can_admit(incoming, budget)
    }

    fn evict(&mut self, tenant: &str) -> Option<EvictedTenant> {
        self.summary = None;
        self.zone.evict(tenant)
    }

    fn admit(&mut self, tenant: EvictedTenant) -> Result<(), EvictedTenant> {
        self.summary = None;
        self.zone.admit(tenant)
    }

    fn owns(&mut self, tenant: &str) -> Option<bool> {
        self.zone.owns(tenant)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::balancer::ParkedHandoff;
    use crate::fleet::FleetConfig;
    use crate::handoff::HandoffOutcome;
    use kairos_controller::{ControllerConfig, SyntheticSource};
    use kairos_workloads::RatePattern;

    fn source(name: &str, tps: f64) -> Box<dyn TelemetrySource> {
        Box::new(
            SyntheticSource::new(name, 300.0, Bytes::gib(4), RatePattern::Flat { tps })
                .with_noise(0.0),
        )
    }

    fn binder() -> ZoneSourceBinder {
        Box::new(|name: &str, _tick: u64| Some(source(name, 50.0)))
    }

    fn zone_with(id: usize, tenants: &[&str], budget: usize) -> Zone {
        let cfg = FleetConfig {
            shards: 2,
            shard: ControllerConfig {
                horizon: 8,
                check_every: 4,
                cooldown_ticks: 8,
                ..ControllerConfig::default()
            },
            balancer: BalancerConfig {
                machines_per_shard: budget,
                balance_every: 4,
                ..BalancerConfig::default()
            },
            tick_threads: 1,
        };
        let mut fleet = FleetController::new(cfg);
        for t in tenants {
            fleet.add_workload(source(t, 50.0));
        }
        let mut zone = Zone::new(id, fleet, 8, binder());
        for _ in 0..10 {
            zone.tick();
        }
        zone
    }

    #[test]
    fn group_partition_is_deterministic_and_total() {
        for groups in [1, 8, 64] {
            for t in ["t0", "t1", "alpha", "bravo"] {
                let g = group_of(t, groups);
                assert!(g < groups);
                assert_eq!(g, group_of(t, groups));
            }
        }
        assert_eq!(group_index(&group_name(17)), Some(17));
    }

    #[test]
    fn rollup_sums_shards_and_buckets_groups() {
        let mut zone = zone_with(0, &["t0", "t1", "t2", "t3"], 16);
        let rollup = zone.rollup();
        assert_eq!(rollup.tenants, 4);
        assert!(rollup.summary.planned);
        assert!(rollup.summary.machines_used >= 1);
        // Every tenant is accounted to exactly one group envelope.
        let members: u32 = rollup.summary.tenant_loads.iter().map(|t| t.replicas).sum();
        assert_eq!(members, 4);
        // The roll-up is constant-size: its encoded length must not
        // scale with the monitoring window (sketch marks dominate).
        assert!(
            rollup.encoded_len() < 4096,
            "rollup {}B",
            rollup.encoded_len()
        );
    }

    #[test]
    fn group_evict_admit_moves_whole_group_between_zones() {
        let mut donor = zone_with(0, &["t0", "t1", "t2", "t3"], 16);
        let mut receiver = zone_with(1, &[], 16);
        let groups = donor.resident_groups();
        let g = groups[0].index;
        let moved = groups[0].members.clone();
        let evicted = ShardHandle::evict(&mut donor, &group_name(g)).expect("group evicts");
        assert!(ShardHandle::owns(&mut donor, &group_name(g)) == Some(false));
        assert!(ShardHandle::admit(&mut receiver, evicted).is_ok());
        assert_eq!(ShardHandle::owns(&mut receiver, &group_name(g)), Some(true));
        for t in &moved {
            assert!(receiver.fleet().map().shard_of(t).is_some());
            assert!(donor.fleet().map().shard_of(t).is_none());
        }
    }

    #[test]
    fn damaged_group_frame_rejects_with_zero_state_change() {
        let mut donor = zone_with(0, &["t0", "t1", "t2", "t3"], 16);
        let mut receiver = zone_with(1, &[], 16);
        let g = donor.resident_groups()[0].index;
        let mut evicted = ShardHandle::evict(&mut donor, &group_name(g)).expect("group evicts");
        let before = receiver.fleet().map().len();
        let mid = evicted.wire.len() / 2;
        evicted.wire[mid] ^= 0x40;
        assert!(ShardHandle::admit(&mut receiver, evicted).is_err());
        assert_eq!(receiver.fleet().map().len(), before);
    }

    #[test]
    fn root_round_moves_groups_off_the_overloaded_zone() {
        // Zone 0 far over its (tiny) zone budget, zone 1 idle.
        let mut zones = vec![
            zone_with(0, &["t0", "t1", "t2", "t3", "t4", "t5"], 16),
            zone_with(1, &[], 16),
        ];
        let mut root = RootBalancer::new(RootConfig {
            balancer: BalancerConfig {
                machines_per_shard: 1,
                balance_every: 1,
                max_moves_per_round: 4,
                low_watermark: 0,
                cooldown_rounds: 0,
            },
            groups: 8,
        });
        let mut completed = 0;
        for round in 0..4 {
            let records = root.run_round(&mut zones, round);
            completed += records
                .iter()
                .filter(|r| r.outcome == HandoffOutcome::Completed)
                .count();
        }
        assert!(completed > 0, "root must move at least one group");
        assert!(!zones[1].fleet().map().is_empty());
        let events = root.trace_events();
        assert!(events
            .iter()
            .any(|e| matches!(e.event, DecisionEvent::ZoneSummarized { .. })));
        assert!(events
            .iter()
            .any(|e| matches!(e.event, DecisionEvent::GroupMoved { .. })));
        assert!(root.metrics_json().contains("root_groups_moved"));
    }

    /// The memo against a fresh computation after every step of a
    /// seeded schedule: zone ticks (which run the zone's own balance
    /// rounds), group moves through [`Zone`], and tenant moves made
    /// through `fleet_mut()` that bypass it. A step that changes no
    /// shard's summary recomputes no roll-up; one that changes any
    /// recomputes it once.
    #[test]
    fn rollup_memo_matches_a_fresh_rollup_after_every_step() {
        fn encoded(r: &ZoneRollup) -> (usize, usize, usize, usize, Vec<u8>) {
            (
                r.zone,
                r.shards,
                r.tenants,
                r.groups,
                serde::to_bytes(&r.summary),
            )
        }
        fn shard_digests(zone: &mut Zone) -> Vec<u64> {
            let shards = zone.fleet_mut().shards_mut();
            shards.iter_mut().map(|s| s.summary_digest()).collect()
        }
        fn rollups(zone: &Zone) -> u64 {
            let registry = zone.fleet().metrics_registry();
            registry
                .counter_value("kairos_fleet_zone_rollups_total")
                .unwrap_or(0)
        }
        let names: Vec<String> = (0..10).map(|i| format!("t{i}")).collect();
        let names: Vec<&str> = names.iter().map(String::as_str).collect();
        let mut zones = [zone_with(0, &names[..7], 16), zone_with(1, &names[7..], 16)];
        for zone in &mut zones {
            // Noisy load, so summaries refilled by age differ.
            let noisy = SyntheticSource::new(
                format!("n{}", zone.id()),
                300.0,
                Bytes::gib(4),
                RatePattern::Flat { tps: 80.0 },
            );
            zone.fleet_mut()
                .add_workload(Box::new(noisy.with_noise(0.3)));
            zone.rollup();
        }
        let mut seen: Vec<Vec<u64>> = zones.iter_mut().map(shard_digests).collect();
        let mut rng = kairos_types::SplitMix64::from_env(0x2011_0B5E);
        let (mut quiet, mut changed) = (0, 0);
        for step in 0..60 {
            let from = rng.next_range(2) as usize;
            let [a, b] = &mut zones;
            let (donor, receiver) = if from == 0 { (a, b) } else { (b, a) };
            // The last 25 steps only tick, so the shards' summaries age
            // past their refresh bound after the last move.
            match if step < 35 { rng.next_range(8) } else { 0 } {
                0..=4 => {
                    donor.tick();
                    receiver.tick();
                }
                5 => {
                    let groups = donor.resident_groups();
                    if let Some(g) = groups.get(rng.next_range(groups.len().max(1) as u64) as usize)
                    {
                        // A round's second estimate on its donor packs
                        // only the shards the evict left changed.
                        ShardHandle::pack_estimate_remaining(donor);
                        let packed = |zone: &Zone| -> Vec<u64> {
                            let shards = zone.fleet().shards().iter();
                            shards
                                .map(|s| {
                                    s.metrics_registry()
                                        .counter_value("kairos_shard_pack_estimates_total")
                                        .unwrap_or(0)
                                })
                                .collect()
                        };
                        let before = packed(donor);
                        let mut touched = vec![false; before.len()];
                        for member in &g.members {
                            touched[donor.fleet().map().shard_of(member).expect("routed")] = true;
                        }
                        let evicted = ShardHandle::evict(donor, &group_name(g.index))
                            .expect("resident group");
                        ShardHandle::pack_estimate_remaining(donor);
                        for (i, (after, before)) in packed(donor).iter().zip(&before).enumerate() {
                            let repacked =
                                touched[i] && !donor.fleet().shards()[i].workloads().is_empty();
                            assert_eq!(
                                after - before,
                                u64::from(repacked),
                                "step {step}: shard {i}"
                            );
                        }
                        assert!(ShardHandle::admit(receiver, evicted).is_ok());
                    }
                }
                kind => {
                    // A tenant moved through `fleet_mut()`, behind the
                    // zones' backs: to the other zone, or to the donor
                    // zone's other shard.
                    let tenants: Vec<String> = donor
                        .fleet()
                        .map()
                        .entries()
                        .map(|(t, _)| t.to_string())
                        .collect();
                    if let Some(t) =
                        tenants.get(rng.next_range(tenants.len().max(1) as u64) as usize)
                    {
                        let home = donor.fleet().map().shard_of(t).expect("routed");
                        let wire = donor.fleet_mut().evict_tenant(t).expect("resident tenant");
                        let handoff =
                            TenantHandoff::from_wire(&wire, source(t, 50.0)).expect("intact frame");
                        let (zone, shard) = if kind == 6 {
                            (receiver, rng.next_range(2) as usize)
                        } else {
                            (donor, 1 - home)
                        };
                        zone.fleet_mut().admit_handoff(shard, handoff);
                    }
                }
            }
            for (zone, seen) in zones.iter_mut().zip(&mut seen) {
                let before = rollups(zone);
                let memo = zone.rollup();
                let digest = zone.rollup_digest();
                zone.rollup();
                let fresh = zone.compute_rollup();
                // Read last: reading a digest refills a stale summary,
                // which the memo must have done on its own.
                let digests = shard_digests(zone);
                let id = zone.id();
                assert!(
                    encoded(&memo) == encoded(&fresh),
                    "step {step}: zone {id} served a stale roll-up"
                );
                assert_eq!(
                    digest,
                    fresh.summary.digest(),
                    "step {step}: zone {id} served a stale digest"
                );
                let recomputed = rollups(zone) - before;
                if digests == *seen {
                    quiet += 1;
                    assert_eq!(
                        recomputed, 0,
                        "step {step}: zone {id} recomputed an unchanged roll-up"
                    );
                } else {
                    changed += 1;
                    assert_eq!(
                        recomputed, 1,
                        "step {step}: zone {id} recomputed {recomputed} times"
                    );
                }
                *seen = digests;
            }
        }
        assert!(
            quiet > 0 && changed > 0,
            "{quiet} quiet and {changed} changed steps"
        );
    }

    /// A zone that counts the summary requests it answers.
    struct Counting {
        zone: Zone,
        summaries: usize,
    }

    impl ShardHandle for Counting {
        fn summary(&mut self) -> ShardSummary {
            self.summaries += 1;
            self.zone.summary()
        }
        fn pack_estimate_remaining(&mut self) -> Option<usize> {
            self.zone.pack_estimate_remaining()
        }
        fn forecast(&mut self, tenant: &str) -> Option<WorkloadProfile> {
            self.zone.forecast(tenant)
        }
        fn can_admit(&mut self, incoming: &WorkloadProfile, budget: usize) -> bool {
            self.zone.can_admit(incoming, budget)
        }
        fn evict(&mut self, tenant: &str) -> Option<EvictedTenant> {
            self.zone.evict(tenant)
        }
        fn admit(&mut self, tenant: EvictedTenant) -> Result<(), EvictedTenant> {
            self.zone.admit(tenant)
        }
        fn owns(&mut self, tenant: &str) -> Option<bool> {
            self.zone.owns(tenant)
        }
    }

    #[test]
    fn root_asks_each_zone_once_unless_the_round_changed_it() {
        let mut zones: Vec<Counting> = [
            zone_with(0, &["t0", "t1", "t2", "t3"], 16),
            zone_with(1, &[], 16),
        ]
        .into_iter()
        .map(|zone| Counting { zone, summaries: 0 })
        .collect();
        // A budget nobody exceeds: no donors, no moves.
        let mut root = RootBalancer::new(RootConfig {
            balancer: BalancerConfig {
                machines_per_shard: 64,
                balance_every: 1,
                ..BalancerConfig::default()
            },
            groups: 8,
        });
        let asked = |zones: &[Counting]| zones.iter().map(|z| z.summaries).collect::<Vec<_>>();
        root.run_round(&mut zones, 1);
        assert_eq!(asked(&zones), [1, 1]);

        // A parked group the round re-admits on its donor before reading
        // summaries: the donor's pre-round roll-up is stale by then, so
        // the round must ask it again — and only it.
        let g = group_name(zones[0].zone.resident_groups()[0].index);
        let tenant = ShardHandle::evict(&mut zones[0].zone, &g).expect("group evicts");
        root.park(ParkedHandoff {
            donor: 0,
            receiver: 1,
            tenant,
        });
        for zone in &mut zones {
            zone.summaries = 0;
        }
        root.run_round(&mut zones, 2);
        assert!(root.parked_handoffs().is_empty());
        assert_eq!(ShardHandle::owns(&mut zones[0].zone, &g), Some(true));
        assert_eq!(asked(&zones), [2, 1]);
    }
}
