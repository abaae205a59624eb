//! The flight-recorder query layer: one filter language over both
//! deterministic records — decision events ([`crate::events`]) and
//! spans ([`crate::span`]).
//!
//! Any node holds (at least) one [`DecisionLog`] and one
//! [`crate::span::SpanLog`]; the `Query` RPC runs a [`TraceQuery`]
//! against them and ships back a [`QueryResult`], so "show me
//! everything about tenant T between ticks a..b" — or "give me this
//! trace" — is answerable from **any** node without shipping whole logs.
//! [`assemble_trees`] then folds span records (possibly merged from
//! several nodes) back into the causal trees they were recorded as.
//!
//! The tenant/shard relevance predicates used to live as ad-hoc scans
//! inside [`crate::why`]; they are the query layer's now, and the why
//! chain renders on top of them.

use crate::events::{DecisionEvent, TracedEvent};
use crate::span::{SpanRecord, NO_PARENT};
use serde::{Deserialize, Serialize};

/// A flight-recorder filter. Unset fields match everything; set fields
/// AND together. Tick bounds are inclusive.
#[derive(Clone, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct TraceQuery {
    /// Only spans of this trace (and events at the ticks those spans
    /// cover — see [`run_query`]).
    pub trace_id: Option<u64>,
    /// Only events/spans mentioning this tenant (or its group).
    pub tenant: Option<String>,
    /// Only events/spans concerning this shard index.
    pub shard: Option<u64>,
    pub tick_from: Option<u64>,
    pub tick_to: Option<u64>,
}

impl TraceQuery {
    /// Everything — the identity filter.
    pub fn all() -> TraceQuery {
        TraceQuery::default()
    }

    /// Everything recorded for one trace id.
    pub fn for_trace(trace_id: u64) -> TraceQuery {
        TraceQuery {
            trace_id: Some(trace_id),
            ..TraceQuery::default()
        }
    }

    fn tick_in_range(&self, tick: u64) -> bool {
        self.tick_from.is_none_or(|from| tick >= from) && self.tick_to.is_none_or(|to| tick <= to)
    }

    /// Does one decision event pass this filter? (`trace_id` does not
    /// constrain events — events carry no trace id; the join happens in
    /// [`run_query`] via the spans' tick cover.)
    pub fn matches_event(&self, e: &TracedEvent) -> bool {
        if !self.tick_in_range(e.tick) {
            return false;
        }
        if let Some(tenant) = &self.tenant {
            if !concerns_tenant(&e.event, tenant) {
                return false;
            }
        }
        if let Some(shard) = self.shard {
            if !concerns_shard(&e.event, shard as usize) {
                return false;
            }
        }
        true
    }

    /// Does one span record pass this filter?
    pub fn matches_span(&self, s: &SpanRecord) -> bool {
        if let Some(trace_id) = self.trace_id {
            if s.trace_id != trace_id {
                return false;
            }
        }
        if !self.tick_in_range(s.tick) {
            return false;
        }
        if let Some(tenant) = &self.tenant {
            let hit = s
                .tags
                .iter()
                .any(|(k, v)| (k == "tenant" || k == "group") && v == tenant);
            if !hit {
                return false;
            }
        }
        if let Some(shard) = self.shard {
            let tagged = s.tags.iter().any(|(k, v)| {
                (k == "donor" || k == "receiver" || k == "shard") && *v == shard.to_string()
            });
            if !tagged && u64::from(s.node) != shard {
                return false;
            }
        }
        true
    }
}

/// What a query answers with: matching events and spans, both in
/// recording order. Serializable — this is the `Query` RPC's payload.
#[derive(Clone, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct QueryResult {
    pub events: Vec<TracedEvent>,
    pub spans: Vec<SpanRecord>,
}

impl QueryResult {
    pub fn is_empty(&self) -> bool {
        self.events.is_empty() && self.spans.is_empty()
    }

    /// Merge another node's answer into this one (kairos-top and the
    /// tree assembly work over the union).
    pub fn merge(&mut self, other: QueryResult) {
        self.events.extend(other.events);
        self.spans.extend(other.spans);
    }
}

/// Run `query` over one node's records. When the query names a trace
/// id, matching spans additionally pull in the decision events recorded
/// at the ticks the trace covers (the span→event join: events carry no
/// trace id of their own).
pub fn run_query(query: &TraceQuery, events: &[TracedEvent], spans: &[SpanRecord]) -> QueryResult {
    let spans: Vec<SpanRecord> = spans
        .iter()
        .filter(|s| query.matches_span(s))
        .cloned()
        .collect();
    let events = if query.trace_id.is_some() {
        let ticks: std::collections::BTreeSet<u64> = spans.iter().map(|s| s.tick).collect();
        events
            .iter()
            .filter(|e| ticks.contains(&e.tick) && query.matches_event(e))
            .cloned()
            .collect()
    } else {
        events
            .iter()
            .filter(|e| query.matches_event(e))
            .cloned()
            .collect()
    };
    QueryResult { events, spans }
}

/// Does a fleet-level event mention this tenant (or group) by name?
pub fn concerns_tenant(event: &DecisionEvent, tenant: &str) -> bool {
    use DecisionEvent::*;
    match event {
        TenantEvicted { tenant: t }
        | TenantAdmitted { tenant: t }
        | HandoffNoReceiver { tenant: t, .. }
        | HandoffProposed { tenant: t, .. }
        | HandoffCompleted { tenant: t, .. }
        | HandoffFailed { tenant: t, .. }
        | HandoffParked { tenant: t, .. }
        | ParkedRetried { tenant: t, .. } => t == tenant,
        GroupMoved { group, .. } => group == tenant,
        DriftTripped { workloads, .. } | ProfileRefreshed { workloads } => {
            workloads.iter().any(|w| w == tenant)
        }
        _ => false,
    }
}

/// Does a fleet-level event concern this shard? (Moved here from
/// `why.rs` — the why chain and the query layer share one relevance
/// predicate.)
pub fn concerns_shard(event: &DecisionEvent, shard: usize) -> bool {
    use DecisionEvent::*;
    match event {
        DonorFlagged { shard: s, .. }
        | LeaseMiss { shard: s, .. }
        | ShardDown { shard: s }
        | ShardRejoined { shard: s, .. } => *s == shard,
        HandoffProposed {
            donor, receiver, ..
        }
        | HandoffCompleted {
            donor, receiver, ..
        }
        | HandoffFailed {
            donor, receiver, ..
        }
        | HandoffParked {
            donor, receiver, ..
        }
        | ParkedRetried {
            donor, receiver, ..
        } => *donor == shard || *receiver == shard,
        HandoffNoReceiver { donor, .. } => *donor == shard,
        NodeAnnounced { shard: s, .. } => *s == shard,
        GroupMoved {
            from_zone, to_zone, ..
        } => *from_zone == shard || *to_zone == shard,
        _ => false,
    }
}

/// One node of an assembled span tree.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SpanTree {
    pub span: SpanRecord,
    pub children: Vec<SpanTree>,
}

impl SpanTree {
    /// Total spans in this tree (self included).
    pub fn size(&self) -> usize {
        1 + self.children.iter().map(SpanTree::size).sum::<usize>()
    }

    /// Depth-first iterator over `(depth, span)` pairs.
    fn walk<'a>(&'a self, depth: usize, out: &mut Vec<(usize, &'a SpanRecord)>) {
        out.push((depth, &self.span));
        for c in &self.children {
            c.walk(depth + 1, out);
        }
    }
}

/// Fold span records — typically the union of several nodes' answers to
/// one trace-id query — into trees. A span whose parent is absent from
/// the set (evicted from a ring, or filtered out) becomes a root of its
/// own tree rather than vanishing. Children sort by span id, which is
/// recording order per node; trees sort by root span id.
pub fn assemble_trees(spans: &[SpanRecord]) -> Vec<SpanTree> {
    use std::collections::BTreeMap;
    let ids: std::collections::BTreeSet<u64> = spans.iter().map(|s| s.span_id).collect();
    let mut children: BTreeMap<u64, Vec<&SpanRecord>> = BTreeMap::new();
    let mut roots: Vec<&SpanRecord> = Vec::new();
    for s in spans {
        if s.parent != NO_PARENT && ids.contains(&s.parent) {
            children.entry(s.parent).or_default().push(s);
        } else {
            roots.push(s);
        }
    }
    fn build(
        span: &SpanRecord,
        children: &std::collections::BTreeMap<u64, Vec<&SpanRecord>>,
    ) -> SpanTree {
        let mut kids: Vec<&SpanRecord> = children.get(&span.span_id).cloned().unwrap_or_default();
        kids.sort_by_key(|s| s.span_id);
        SpanTree {
            span: span.clone(),
            children: kids.iter().map(|k| build(k, children)).collect(),
        }
    }
    roots.sort_by_key(|s| s.span_id);
    roots.iter().map(|r| build(r, &children)).collect()
}

/// Render one tree as indented lines:
/// `tick  node  name  {tags}` — the span-dump format the CI surface
/// job uploads on failure.
pub fn render_span_tree(tree: &SpanTree) -> String {
    let mut flat = Vec::new();
    tree.walk(0, &mut flat);
    let mut out = String::new();
    for (depth, span) in flat {
        let tags = span
            .tags
            .iter()
            .map(|(k, v)| format!("{k}={v}"))
            .collect::<Vec<_>>()
            .join(" ");
        out.push_str(&format!(
            "{:indent$}tick {:>4} · {} · {}{}{}\n",
            "",
            span.tick,
            crate::span::render_node(span.node),
            span.name,
            if tags.is_empty() { "" } else { " · " },
            tags,
            indent = depth * 2,
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::span::SpanLog;

    fn traced(seq: u64, tick: u64, event: DecisionEvent) -> TracedEvent {
        TracedEvent { seq, tick, event }
    }

    fn sample_events() -> Vec<TracedEvent> {
        vec![
            traced(
                0,
                4,
                DecisionEvent::DonorFlagged {
                    shard: 0,
                    machines_used: 9,
                    budget: 6,
                    feasible: true,
                    resolve_failed: false,
                },
            ),
            traced(
                1,
                5,
                DecisionEvent::HandoffCompleted {
                    tenant: "t7".into(),
                    donor: 0,
                    receiver: 2,
                },
            ),
            traced(
                2,
                9,
                DecisionEvent::HandoffCompleted {
                    tenant: "t8".into(),
                    donor: 1,
                    receiver: 2,
                },
            ),
        ]
    }

    #[test]
    fn tenant_and_tick_filters_intersect() {
        let events = sample_events();
        let for_tenant = |tenant: &str, tick_from, tick_to| TraceQuery {
            tenant: Some(tenant.to_string()),
            tick_from: Some(tick_from),
            tick_to: Some(tick_to),
            ..TraceQuery::default()
        };
        let got = run_query(&for_tenant("t7", 0, 6), &events, &[]);
        assert_eq!(got.events.len(), 1);
        assert!(matches!(
            &got.events[0].event,
            DecisionEvent::HandoffCompleted { tenant, .. } if tenant == "t7"
        ));
        // Same tenant, range excludes its tick.
        assert!(run_query(&for_tenant("t7", 6, 9), &events, &[]).is_empty());
    }

    #[test]
    fn shard_filter_uses_the_shared_predicate() {
        let events = sample_events();
        let q = TraceQuery {
            shard: Some(1),
            ..TraceQuery::default()
        };
        let got = run_query(&q, &events, &[]);
        assert_eq!(
            got.events.len(),
            1,
            "only the donor-1 handoff concerns shard 1"
        );
    }

    #[test]
    fn trace_query_pulls_spans_and_their_ticks_events() {
        let mut log = SpanLog::new(crate::span::NODE_BALANCER);
        log.set_enabled(true);
        let root = log
            .open_root("balance_round", 5, &[("round", "1")])
            .unwrap();
        log.open_child(root, "handoff", 5, &[("tenant", "t7"), ("donor", "0")]);
        let spans = log.to_vec();
        let got = run_query(
            &TraceQuery::for_trace(root.trace_id),
            &sample_events(),
            &spans,
        );
        assert_eq!(got.spans.len(), 2);
        // The tick-5 handoff event joins in; tick-4/9 events stay out.
        assert_eq!(got.events.len(), 1);
        assert_eq!(got.events[0].tick, 5);
    }

    #[test]
    fn trees_assemble_across_nodes_and_survive_missing_parents() {
        let mut balancer = SpanLog::new(crate::span::NODE_BALANCER);
        balancer.set_enabled(true);
        let root = balancer.open_root("balance_round", 5, &[]).unwrap();
        let handoff = balancer
            .open_child(root, "handoff", 5, &[("tenant", "t7")])
            .unwrap();
        let mut shard = SpanLog::new(crate::span::node_for_shard(0));
        shard.set_enabled(true);
        shard.open_child(handoff, "evict", 5, &[("tenant", "t7")]);

        let mut all = balancer.to_vec();
        all.extend(shard.to_vec());
        let trees = assemble_trees(&all);
        assert_eq!(trees.len(), 1);
        assert_eq!(trees[0].size(), 3);
        assert_eq!(trees[0].children[0].children[0].span.name, "evict");
        let rendered = render_span_tree(&trees[0]);
        assert!(rendered.contains("balancer · balance_round"), "{rendered}");
        assert!(
            rendered.contains("    tick    5 · shard0 · evict · tenant=t7"),
            "{rendered}"
        );

        // Orphaned child (parent's ring entry gone) becomes its own root.
        let orphan_only = shard.to_vec();
        let trees = assemble_trees(&orphan_only);
        assert_eq!(trees.len(), 1);
        assert_eq!(trees[0].span.name, "evict");
    }
}
