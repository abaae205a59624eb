//! Causal span tracing: the deterministic skeleton of a cross-node
//! request tree.
//!
//! A **span** is one named unit of control-plane work — a balance
//! round, one handoff inside it, the evict that handoff triggered on a
//! shard three processes away. Spans carry a [`SpanContext`] (trace id,
//! own span id, origin node, tick) across RPC boundaries in the frame
//! header's optional span section (`kairos-net`), so the nested calls
//! of one root decision — root round → zone evict → member shard
//! evict/admit — reconstruct as a *single tree* no matter how many
//! processes they crossed.
//!
//! The split that keeps chaos reruns byte-identical with tracing on:
//!
//! * span **structure** — ids, parentage, names, tick stamps, tags —
//!   is fully deterministic (ids are `node << 32 | serial`, never
//!   random, never wall-clock) and joins the trace byte-identity
//!   contract next to [`crate::events::DecisionLog`];
//! * span **durations** are wall-clock and therefore never enter a
//!   span record or any fingerprint.
//!
//! Propagation is thread-local: [`install`] puts a context on the
//! current thread (a server handler installs the one the frame
//! carried), [`current`] reads it back (the RPC client attaches it to
//! outgoing frames), and the guard restores the previous context on
//! drop so nesting works. Spans are recorded **only in shared code
//! paths** (the balance policy, the shard controller) — never in the
//! transport — which is what makes an in-process fleet's span tree
//! record-identical to the same fleet over RPC.

use serde::{Deserialize, Serialize};
use std::cell::Cell;
use std::collections::VecDeque;

/// Parent id of a root span (span ids start at serial 1, so 0 is free).
pub const NO_PARENT: u64 = 0;

/// Default span ring capacity, matching the decision log's.
pub const DEFAULT_SPAN_CAP: usize = 65_536;

/// Node id of a (fleet-level or zone-internal) balancer span log.
pub const NODE_BALANCER: u32 = 0xFFFF_FFFF;

/// Node id of the root (balancer-of-balancers) span log.
pub const NODE_ROOT: u32 = 0xFFFF_FFFE;

/// Node id of a top-level shard.
pub fn node_for_shard(shard: usize) -> u32 {
    shard as u32
}

/// Node id of a zone's own (zone-level) span log.
pub fn node_for_zone(zone: usize) -> u32 {
    0xFFFE_0000 | (zone as u32 & 0xFFFF)
}

/// Node id of shard `shard` inside zone `zone` (distinct from both
/// top-level shards and other zones' shards).
pub fn node_for_zone_shard(zone: usize, shard: usize) -> u32 {
    ((zone as u32 + 1) << 16) | (shard as u32 & 0xFFFF)
}

/// Node id of the balancer *inside* zone `zone` — distinct per zone so
/// two zones' internal balance-round spans can never collide in
/// span-id (and therefore trace-id) space.
pub fn node_for_zone_balancer(zone: usize) -> u32 {
    0xFFFD_0000 | (zone as u32 & 0xFFFF)
}

/// Human-readable node name for span rendering.
pub fn render_node(node: u32) -> String {
    match node {
        NODE_BALANCER => "balancer".to_string(),
        NODE_ROOT => "root".to_string(),
        n if n & 0xFFFF_0000 == 0xFFFE_0000 => format!("zone{}", n & 0xFFFF),
        n if n & 0xFFFF_0000 == 0xFFFD_0000 => format!("z{}-balancer", n & 0xFFFF),
        n if n >> 16 != 0 => format!("z{}-shard{}", (n >> 16) - 1, n & 0xFFFF),
        n => format!("shard{n}"),
    }
}

/// The propagated identity of an open span: what crosses an RPC
/// boundary (28 bytes on the wire — see the `kairos-net` frame layout).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SpanContext {
    /// The root span's id — shared by every span in the tree.
    pub trace_id: u64,
    /// This span's id: `origin << 32 | serial`.
    pub span_id: u64,
    /// The node that opened this span.
    pub origin: u32,
    /// The opener's tick at open time.
    pub tick: u64,
}

/// One recorded span: a [`SpanContext`] plus parentage, name and tags.
/// Everything here is deterministic under a fixed seed and schedule.
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct SpanRecord {
    pub trace_id: u64,
    pub span_id: u64,
    /// Parent span id, or [`NO_PARENT`] for a root.
    pub parent: u64,
    /// The node that recorded this span (see [`render_node`]).
    pub node: u32,
    pub name: String,
    pub tick: u64,
    /// Small, fixed-at-open key/value pairs (tenant, donor, receiver…).
    pub tags: Vec<(String, String)>,
}

/// A bounded ring of [`SpanRecord`]s, one per node-level component
/// (shard controller, fleet balancer, zone, root balancer).
///
/// **Disabled by default**: with no span open there is no thread-local
/// context, the RPC layer attaches no span section, and every frame is
/// byte-identical to the pre-span wire format. Enabling is a pure
/// opt-in ([`SpanLog::set_enabled`]).
#[derive(Clone, Debug)]
pub struct SpanLog {
    spans: VecDeque<SpanRecord>,
    cap: usize,
    node: u32,
    serial: u64,
    enabled: bool,
}

impl SpanLog {
    /// A disabled log for node id `node` with the default capacity.
    pub fn new(node: u32) -> SpanLog {
        SpanLog {
            spans: VecDeque::new(),
            cap: DEFAULT_SPAN_CAP,
            node,
            serial: 0,
            enabled: false,
        }
    }

    pub fn is_enabled(&self) -> bool {
        self.enabled
    }

    /// Toggle recording; already-recorded spans are kept either way.
    pub fn set_enabled(&mut self, enabled: bool) {
        self.enabled = enabled;
    }

    pub fn node(&self) -> u32 {
        self.node
    }

    /// Re-home the log (e.g. a fleet embedded in a zone renumbers its
    /// shards). Only affects spans opened afterwards.
    pub fn set_node(&mut self, node: u32) {
        self.node = node;
    }

    fn next_id(&mut self) -> u64 {
        self.serial += 1;
        (u64::from(self.node) << 32) | (self.serial & 0xFFFF_FFFF)
    }

    fn push(&mut self, record: SpanRecord) {
        if self.spans.len() == self.cap {
            self.spans.pop_front();
        }
        self.spans.push_back(record);
    }

    fn open(
        &mut self,
        trace_id: Option<u64>,
        parent: u64,
        name: &str,
        tick: u64,
        tags: &[(&str, &str)],
    ) -> Option<SpanContext> {
        if !self.enabled {
            return None;
        }
        let span_id = self.next_id();
        let trace_id = trace_id.unwrap_or(span_id);
        self.push(SpanRecord {
            trace_id,
            span_id,
            parent,
            node: self.node,
            name: name.to_string(),
            tick,
            tags: tags
                .iter()
                .map(|(k, v)| (k.to_string(), v.to_string()))
                .collect(),
        });
        Some(SpanContext {
            trace_id,
            span_id,
            origin: self.node,
            tick,
        })
    }

    /// Open a root span: a fresh trace whose id is the span's own id.
    /// Returns `None` (and records nothing) while disabled.
    pub fn open_root(
        &mut self,
        name: &str,
        tick: u64,
        tags: &[(&str, &str)],
    ) -> Option<SpanContext> {
        self.open(None, NO_PARENT, name, tick, tags)
    }

    /// Open a child of `parent` (typically [`current`] — the context a
    /// caller installed on this thread or an RPC frame carried in).
    pub fn open_child(
        &mut self,
        parent: SpanContext,
        name: &str,
        tick: u64,
        tags: &[(&str, &str)],
    ) -> Option<SpanContext> {
        self.open(Some(parent.trace_id), parent.span_id, name, tick, tags)
    }

    pub fn len(&self) -> usize {
        self.spans.len()
    }

    pub fn is_empty(&self) -> bool {
        self.spans.is_empty()
    }

    /// Recorded spans, oldest first.
    pub fn records(&self) -> impl Iterator<Item = &SpanRecord> {
        self.spans.iter()
    }

    pub fn to_vec(&self) -> Vec<SpanRecord> {
        self.spans.iter().cloned().collect()
    }

    /// The canonical span encoding: the record vector through the
    /// workspace codec — the byte-identity unit chaos reruns compare.
    pub fn span_bytes(&self) -> Vec<u8> {
        serde::to_bytes(&self.to_vec())
    }
}

thread_local! {
    static CURRENT: Cell<Option<SpanContext>> = const { Cell::new(None) };
}

/// The span context active on this thread, if any. The RPC client
/// attaches this to every outgoing request frame.
pub fn current() -> Option<SpanContext> {
    CURRENT.with(|c| c.get())
}

/// Scope guard for an installed span context: restores the previously
/// active context when dropped.
pub struct ContextGuard {
    prev: Option<SpanContext>,
    installed: bool,
}

impl Drop for ContextGuard {
    fn drop(&mut self) {
        if self.installed {
            CURRENT.with(|c| c.set(self.prev));
        }
    }
}

/// Install `ctx` as the current thread's span context (server side: the
/// context an incoming frame carried). `None` is a no-op guard — the
/// existing context, if any, stays active, so a disabled layer in the
/// middle of a call chain passes its parent's context through.
pub fn install(ctx: Option<SpanContext>) -> ContextGuard {
    match ctx {
        Some(ctx) => {
            let prev = CURRENT.with(|c| c.replace(Some(ctx)));
            ContextGuard {
                prev,
                installed: true,
            }
        }
        None => ContextGuard {
            prev: None,
            installed: false,
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_log_opens_nothing() {
        let mut log = SpanLog::new(3);
        assert!(log.open_root("round", 5, &[]).is_none());
        assert!(log.is_empty());
    }

    #[test]
    fn ids_are_deterministic_and_parentage_chains() {
        let mut log = SpanLog::new(2);
        log.set_enabled(true);
        let root = log
            .open_root("round", 10, &[("round", "1")])
            .expect("enabled");
        assert_eq!(root.trace_id, root.span_id);
        assert_eq!(root.span_id, (2u64 << 32) | 1);
        let child = log
            .open_child(root, "handoff", 10, &[("tenant", "t0")])
            .expect("enabled");
        assert_eq!(child.trace_id, root.trace_id);
        assert_eq!(child.span_id, (2u64 << 32) | 2);
        let records = log.to_vec();
        assert_eq!(records.len(), 2);
        assert_eq!(records[0].parent, NO_PARENT);
        assert_eq!(records[1].parent, root.span_id);
        assert_eq!(
            records[1].tags,
            vec![("tenant".to_string(), "t0".to_string())]
        );

        // Two identically driven logs produce byte-identical records.
        let mut again = SpanLog::new(2);
        again.set_enabled(true);
        let r = again.open_root("round", 10, &[("round", "1")]).unwrap();
        again.open_child(r, "handoff", 10, &[("tenant", "t0")]);
        assert_eq!(log.span_bytes(), again.span_bytes());
    }

    #[test]
    fn context_install_nests_and_restores() {
        assert!(current().is_none());
        let a = SpanContext {
            trace_id: 1,
            span_id: 1,
            origin: 0,
            tick: 0,
        };
        let b = SpanContext {
            trace_id: 1,
            span_id: 2,
            origin: 0,
            tick: 0,
        };
        {
            let _ga = install(Some(a));
            assert_eq!(current(), Some(a));
            {
                let _gb = install(Some(b));
                assert_eq!(current(), Some(b));
                // None install is a pass-through, not a clear.
                let _gn = install(None);
                assert_eq!(current(), Some(b));
            }
            assert_eq!(current(), Some(a));
        }
        assert!(current().is_none());
    }

    #[test]
    fn ring_caps_and_codec_round_trips() {
        let mut log = SpanLog::new(0);
        log.set_enabled(true);
        for i in 0..DEFAULT_SPAN_CAP + 3 {
            log.open_root("s", i as u64, &[]);
        }
        assert_eq!(log.len(), DEFAULT_SPAN_CAP);
        assert_eq!(log.records().next().unwrap().tick, 3);
        let bytes = log.span_bytes();
        let decoded: Vec<SpanRecord> = serde::from_bytes(&bytes).expect("decodes");
        assert_eq!(decoded, log.to_vec());
    }

    #[test]
    fn node_names_render() {
        assert_eq!(render_node(NODE_BALANCER), "balancer");
        assert_eq!(render_node(NODE_ROOT), "root");
        assert_eq!(render_node(node_for_shard(4)), "shard4");
        assert_eq!(render_node(node_for_zone(2)), "zone2");
        assert_eq!(render_node(node_for_zone_shard(1, 3)), "z1-shard3");
    }
}
