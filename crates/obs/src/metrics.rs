//! The lock-cheap metrics registry: atomic counters, f64 cells and
//! log-scale histograms, exported as JSON or Prometheus text exposition.
//!
//! Registration (name → handle) takes a mutex once; the handles are
//! `Arc`-shared atomics, so the hot path — a tick loop bumping a counter
//! or recording a latency — is a single relaxed atomic op with no lock
//! and no allocation. Handles stay valid across threads and clones, which
//! is what lets the transport layer's threads and the tick loop feed the
//! same registry a `ShardNode` serves over the `Metrics` RPC.
//!
//! Everything here is wall-clock / run-variant territory: latencies,
//! byte counts, queue depths. The deterministic decision record lives in
//! [`crate::events`] — keep the two apart (a trace must not absorb a
//! duration; a dashboard should not wait for a trace).

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

/// A monotonically increasing counter (relaxed atomic adds).
#[derive(Clone, Debug, Default)]
pub struct Counter(Arc<AtomicU64>);

impl Counter {
    pub fn inc(&self) {
        self.add(1);
    }
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
    /// Reset to an absolute value — used when restoring counters from a
    /// checkpointed stats view.
    pub fn set(&self, n: u64) {
        self.0.store(n, Ordering::Relaxed);
    }
}

/// An `f64` cell stored as bit patterns in an `AtomicU64`: supports
/// last-write `set` (gauge), CAS-accumulated `add`, and CAS `max` —
/// enough for bytes-copied totals, solve-seconds accumulators and
/// high-watermarks without a lock.
#[derive(Clone, Debug)]
pub struct FloatCell(Arc<AtomicU64>);

impl Default for FloatCell {
    fn default() -> Self {
        FloatCell(Arc::new(AtomicU64::new(0f64.to_bits())))
    }
}

impl FloatCell {
    pub fn set(&self, v: f64) {
        self.0.store(v.to_bits(), Ordering::Relaxed);
    }
    pub fn get(&self) -> f64 {
        f64::from_bits(self.0.load(Ordering::Relaxed))
    }
    pub fn add(&self, v: f64) {
        let mut cur = self.0.load(Ordering::Relaxed);
        loop {
            let next = (f64::from_bits(cur) + v).to_bits();
            match self
                .0
                .compare_exchange_weak(cur, next, Ordering::Relaxed, Ordering::Relaxed)
            {
                Ok(_) => return,
                Err(now) => cur = now,
            }
        }
    }
    pub fn max(&self, v: f64) {
        let mut cur = self.0.load(Ordering::Relaxed);
        loop {
            if f64::from_bits(cur) >= v {
                return;
            }
            match self.0.compare_exchange_weak(
                cur,
                v.to_bits(),
                Ordering::Relaxed,
                Ordering::Relaxed,
            ) {
                Ok(_) => return,
                Err(now) => cur = now,
            }
        }
    }
}

/// Bucket count: 4 linear buckets below 4, then 4 sub-buckets per power
/// of two up to `u64::MAX` (2 significant bits ⇒ ≤25% quantization
/// error on percentile estimates — plenty for latency dashboards).
const HISTOGRAM_BUCKETS: usize = 4 + 62 * 4;

/// A lock-free log-scale histogram over `u64` samples (microseconds,
/// bytes — any non-negative integer unit).
#[derive(Clone, Debug)]
pub struct Histogram {
    inner: Arc<HistogramCore>,
}

#[derive(Debug)]
struct HistogramCore {
    buckets: Vec<AtomicU64>,
    count: AtomicU64,
    sum: AtomicU64,
}

impl Default for Histogram {
    fn default() -> Self {
        let buckets = (0..HISTOGRAM_BUCKETS).map(|_| AtomicU64::new(0)).collect();
        Histogram {
            inner: Arc::new(HistogramCore {
                buckets,
                count: AtomicU64::new(0),
                sum: AtomicU64::new(0),
            }),
        }
    }
}

fn bucket_index(v: u64) -> usize {
    if v < 4 {
        return v as usize;
    }
    let e = 63 - v.leading_zeros() as usize; // e >= 2
    let sub = ((v >> (e - 2)) & 3) as usize;
    4 + (e - 2) * 4 + sub
}

/// Upper bound of a bucket's value range — percentile estimates use it
/// so they are conservative (never under-report a latency).
fn bucket_upper(idx: usize) -> u64 {
    if idx < 4 {
        return idx as u64;
    }
    let e = (idx - 4) / 4 + 2;
    let sub = ((idx - 4) % 4) as u64;
    ((4 + sub + 1) << (e - 2)) - 1
}

impl Histogram {
    pub fn record(&self, v: u64) {
        self.inner.buckets[bucket_index(v)].fetch_add(1, Ordering::Relaxed);
        self.inner.count.fetch_add(1, Ordering::Relaxed);
        self.inner.sum.fetch_add(v, Ordering::Relaxed);
    }

    pub fn count(&self) -> u64 {
        self.inner.count.load(Ordering::Relaxed)
    }

    pub fn sum(&self) -> u64 {
        self.inner.sum.load(Ordering::Relaxed)
    }

    pub fn mean(&self) -> f64 {
        let n = self.count();
        if n == 0 {
            0.0
        } else {
            self.sum() as f64 / n as f64
        }
    }

    /// Conservative percentile estimate: the upper bound of the bucket
    /// holding the rank-`⌈q·n⌉` sample, with the rank clamped to
    /// `[1, n]`.
    ///
    /// Total for every input — the chaos driver folds these into its
    /// invariant report, so the edges are pinned rather than left to
    /// float-cast accidents:
    ///
    /// * an **empty** histogram returns `0` for every `q`;
    /// * `q` is clamped to `[0, 1]` first, and `NaN` clamps to `0`;
    /// * `q = 0.0` is the minimum estimate (upper bound of the first
    ///   occupied bucket), `q = 1.0` the maximum estimate (upper bound
    ///   of the last occupied bucket).
    pub fn percentile(&self, q: f64) -> u64 {
        let n = self.count();
        if n == 0 {
            return 0;
        }
        // NaN maps to 0.0 (clamp would propagate it), so the rank
        // arithmetic below only ever sees q in [0, 1].
        let q = if q.is_nan() { 0.0 } else { q.clamp(0.0, 1.0) };
        let rank = ((q * n as f64).ceil() as u64).clamp(1, n);
        let mut seen = 0u64;
        for (idx, b) in self.inner.buckets.iter().enumerate() {
            seen += b.load(Ordering::Relaxed);
            if seen >= rank {
                return bucket_upper(idx);
            }
        }
        bucket_upper(HISTOGRAM_BUCKETS - 1)
    }
}

#[derive(Default)]
struct RegistryInner {
    counters: Mutex<BTreeMap<String, Counter>>,
    gauges: Mutex<BTreeMap<String, FloatCell>>,
    histograms: Mutex<BTreeMap<String, Histogram>>,
}

/// A named collection of metrics. Cloning shares the underlying store;
/// `counter`/`gauge`/`histogram` get-or-register and return a lock-free
/// handle to keep on the hot path.
///
/// Names should be Prometheus-compatible (`[a-z0-9_]`, labels inline:
/// `kairos_shard_resolves_total{shard="0"}`); the JSON export uses the
/// same strings as keys.
#[derive(Clone, Default)]
pub struct MetricsRegistry {
    inner: Arc<RegistryInner>,
}

impl MetricsRegistry {
    pub fn new() -> Self {
        Self::default()
    }

    pub fn counter(&self, name: &str) -> Counter {
        let mut map = self.inner.counters.lock().unwrap();
        map.entry(name.to_string()).or_default().clone()
    }

    pub fn gauge(&self, name: &str) -> FloatCell {
        let mut map = self.inner.gauges.lock().unwrap();
        map.entry(name.to_string()).or_default().clone()
    }

    pub fn histogram(&self, name: &str) -> Histogram {
        let mut map = self.inner.histograms.lock().unwrap();
        map.entry(name.to_string()).or_default().clone()
    }

    /// Read a counter **without registering it** — `None` if the name
    /// was never registered here. The health watchdog reads through
    /// this so probing a metric can never create a zero-valued ghost.
    pub fn counter_value(&self, name: &str) -> Option<u64> {
        self.inner
            .counters
            .lock()
            .unwrap()
            .get(name)
            .map(Counter::get)
    }

    /// Read a gauge without registering it (see [`Self::counter_value`]).
    pub fn gauge_value(&self, name: &str) -> Option<f64> {
        self.inner
            .gauges
            .lock()
            .unwrap()
            .get(name)
            .map(FloatCell::get)
    }

    /// A handle to an existing histogram without registering it.
    pub fn histogram_view(&self, name: &str) -> Option<Histogram> {
        self.inner.histograms.lock().unwrap().get(name).cloned()
    }

    /// Flat JSON object: counters as integers, gauges as floats,
    /// histograms expanded to `_count/_mean/_p50/_p99` keys.
    pub fn render_json(&self) -> String {
        render_json_all(&[self])
    }

    fn collect_json(&self, out: &mut Vec<String>) {
        // Metric names may carry inline labels (`x{shard="0"}`); the
        // embedded quotes must escape or the JSON key is invalid.
        for (name, c) in self.inner.counters.lock().unwrap().iter() {
            out.push(format!("\"{}\":{}", json_escape(name), c.get()));
        }
        for (name, g) in self.inner.gauges.lock().unwrap().iter() {
            out.push(format!("\"{}\":{:.6}", json_escape(name), g.get()));
        }
        for (name, h) in self.inner.histograms.lock().unwrap().iter() {
            let name = json_escape(name);
            out.push(format!("\"{name}_count\":{}", h.count()));
            out.push(format!("\"{name}_mean\":{:.3}", h.mean()));
            out.push(format!("\"{name}_p50\":{}", h.percentile(0.50)));
            out.push(format!("\"{name}_p99\":{}", h.percentile(0.99)));
        }
    }

    fn collect_prometheus(&self, out: &mut String) {
        use std::fmt::Write;
        for (name, c) in self.inner.counters.lock().unwrap().iter() {
            let bare = base_name(name);
            let _ = writeln!(out, "# TYPE {bare} counter\n{name} {}", c.get());
        }
        for (name, g) in self.inner.gauges.lock().unwrap().iter() {
            let bare = base_name(name);
            let _ = writeln!(out, "# TYPE {bare} gauge\n{name} {}", g.get());
        }
        for (name, h) in self.inner.histograms.lock().unwrap().iter() {
            let bare = base_name(name);
            let (lead, labels) = split_labels(name);
            let _ = writeln!(out, "# TYPE {bare} summary");
            for (q, label) in [(0.5, "0.5"), (0.99, "0.99")] {
                let _ = writeln!(
                    out,
                    "{lead}{{quantile=\"{label}\"{labels}}} {}",
                    h.percentile(q)
                );
            }
            // An unlabeled summary's _sum/_count carry no brace pair at
            // all — `name_sum{}` is not valid exposition format.
            let inner = labels_bare(name);
            let braced = if inner.is_empty() {
                String::new()
            } else {
                format!("{{{inner}}}")
            };
            let _ = writeln!(out, "{lead}_sum{braced} {}", h.sum());
            let _ = writeln!(out, "{lead}_count{braced} {}", h.count());
        }
    }
}

/// Escape a metric name for use inside a JSON string (inline labels
/// carry `"` characters).
fn json_escape(name: &str) -> String {
    name.replace('\\', "\\\\").replace('"', "\\\"")
}

/// Validate one line of Prometheus text exposition format: a comment,
/// or `name[{label="v",...}] value` where `name` is
/// `[a-zA-Z_:][a-zA-Z0-9_:]*` and `value` parses as a float. Returns
/// the offending reason for invalid lines — the CI surface job and the
/// format-validation test both run every rendered line through this.
pub fn validate_exposition_line(line: &str) -> Result<(), String> {
    if line.is_empty() || line.starts_with('#') {
        return Ok(());
    }
    let (series, value) = line
        .rsplit_once(' ')
        .ok_or_else(|| format!("no value separator: {line:?}"))?;
    if value.parse::<f64>().is_err() {
        return Err(format!("unparseable value {value:?} in {line:?}"));
    }
    let (name, labels) = match series.split_once('{') {
        Some((name, rest)) => {
            let labels = rest
                .strip_suffix('}')
                .ok_or_else(|| format!("unclosed label braces: {line:?}"))?;
            (name, Some(labels))
        }
        None => (series, None),
    };
    let mut chars = name.chars();
    let lead_ok = chars
        .next()
        .is_some_and(|c| c.is_ascii_alphabetic() || c == '_' || c == ':');
    if !lead_ok || !chars.all(|c| c.is_ascii_alphanumeric() || c == '_' || c == ':') {
        return Err(format!("bad metric name {name:?} in {line:?}"));
    }
    if let Some(labels) = labels {
        if labels.is_empty() {
            return Err(format!("empty label braces in {line:?}"));
        }
        for pair in labels.split(',') {
            let (key, val) = pair
                .split_once('=')
                .ok_or_else(|| format!("label {pair:?} has no '=' in {line:?}"))?;
            let mut kchars = key.chars();
            let key_ok = kchars
                .next()
                .is_some_and(|c| c.is_ascii_alphabetic() || c == '_')
                && kchars.all(|c| c.is_ascii_alphanumeric() || c == '_');
            if !key_ok {
                return Err(format!("bad label name {key:?} in {line:?}"));
            }
            if !(val.len() >= 2 && val.starts_with('"') && val.ends_with('"')) {
                return Err(format!("unquoted label value {val:?} in {line:?}"));
            }
        }
    }
    Ok(())
}

/// `name{label="x"}` → `name` (for `# TYPE` lines).
fn base_name(name: &str) -> &str {
    name.split('{').next().unwrap_or(name)
}

/// `name{a="1"}` → (`name`, `,a="1"`); `name` → (`name`, ``).
fn split_labels(name: &str) -> (&str, String) {
    match name.split_once('{') {
        Some((lead, rest)) => {
            let inner = rest.trim_end_matches('}');
            (lead, format!(",{inner}"))
        }
        None => (name, String::new()),
    }
}

/// `name{a="1"}` → `a="1"`; `name` → ``.
fn labels_bare(name: &str) -> String {
    match name.split_once('{') {
        Some((_, rest)) => rest.trim_end_matches('}').to_string(),
        None => String::new(),
    }
}

/// Merge several registries (e.g. a node's own plus the process-global
/// transport registry) into one flat JSON object.
pub fn render_json_all(regs: &[&MetricsRegistry]) -> String {
    let mut fields = Vec::new();
    for r in regs {
        r.collect_json(&mut fields);
    }
    format!("{{{}}}", fields.join(","))
}

/// Merge several registries into one Prometheus exposition document.
pub fn render_prometheus_all(regs: &[&MetricsRegistry]) -> String {
    let mut out = String::new();
    for r in regs {
        r.collect_prometheus(&mut out);
    }
    out
}

/// The process-global registry: where code without a natural owner — the
/// transport/frame layer, examples — registers its metrics. A
/// `ShardNode`'s `Metrics` RPC merges this with the node's own registry,
/// which matches what a per-process Prometheus scrape should see.
pub fn global() -> &'static MetricsRegistry {
    static GLOBAL: OnceLock<MetricsRegistry> = OnceLock::new();
    GLOBAL.get_or_init(MetricsRegistry::new)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_and_gauge_round_trip() {
        let reg = MetricsRegistry::new();
        let c = reg.counter("ticks_total");
        c.inc();
        c.add(4);
        assert_eq!(reg.counter("ticks_total").get(), 5, "handle is shared");
        let g = reg.gauge("depth");
        g.set(2.5);
        g.add(0.5);
        g.max(1.0); // below current: no-op
        assert_eq!(reg.gauge("depth").get(), 3.0);
    }

    #[test]
    fn histogram_percentiles_are_conservative() {
        let reg = MetricsRegistry::new();
        let h = reg.histogram("lat_usecs");
        for v in 1..=100u64 {
            h.record(v);
        }
        let p50 = h.percentile(0.5);
        let p99 = h.percentile(0.99);
        // Upper-bound estimates: >= true percentile, <= 25% over.
        assert!((50..=63).contains(&p50), "p50 {p50}");
        assert!((99..=127).contains(&p99), "p99 {p99}");
        assert_eq!(h.count(), 100);
        assert_eq!(h.sum(), 5050);
    }

    #[test]
    fn percentile_is_total_at_the_edges() {
        let empty = Histogram::default();
        for q in [f64::NAN, -1.0, 0.0, 0.5, 1.0, 2.0] {
            assert_eq!(empty.percentile(q), 0, "empty histogram, q={q}");
        }

        let h = Histogram::default();
        for v in 10..=100u64 {
            h.record(v);
        }
        let min = h.percentile(0.0);
        let max = h.percentile(1.0);
        // q=0 is the upper bound of the *first* occupied bucket (a
        // conservative minimum), q=1 of the *last* (the maximum).
        assert_eq!(min, 11, "bucket holding 10 tops out at 11");
        assert_eq!(max, 111, "bucket holding 100 tops out at 111");
        // Out-of-range and NaN quantiles clamp to those edges instead
        // of riding float-to-int cast behaviour.
        assert_eq!(h.percentile(-3.0), min);
        assert_eq!(h.percentile(f64::NAN), min);
        assert_eq!(h.percentile(7.5), max);
        // And the estimate is monotone in q.
        let mut last = 0;
        for i in 0..=20 {
            let p = h.percentile(i as f64 / 20.0);
            assert!(p >= last, "q={} gave {p} < {last}", i as f64 / 20.0);
            last = p;
        }
    }

    #[test]
    fn bucket_index_monotone_and_in_range() {
        let mut last = 0usize;
        for shift in 0..63 {
            let v = 1u64 << shift;
            let idx = bucket_index(v);
            assert!(idx >= last && idx < HISTOGRAM_BUCKETS);
            assert!(bucket_upper(idx) >= v, "upper bound covers the sample");
            last = idx;
        }
        assert!(bucket_index(u64::MAX) < HISTOGRAM_BUCKETS);
    }

    #[test]
    fn render_json_is_flat_and_merged() {
        let a = MetricsRegistry::new();
        a.counter("a_total").add(2);
        let b = MetricsRegistry::new();
        b.gauge("b_depth").set(1.5);
        let json = render_json_all(&[&a, &b]);
        assert!(json.starts_with('{') && json.ends_with('}'));
        assert!(json.contains("\"a_total\":2"));
        assert!(json.contains("\"b_depth\":1.5"));
    }

    #[test]
    fn render_prometheus_handles_labels() {
        let reg = MetricsRegistry::new();
        reg.counter("kairos_resolves_total{shard=\"0\"}").inc();
        reg.histogram("tick_usecs{kind=\"poll\"}").record(7);
        let text = render_prometheus_all(&[&reg]);
        assert!(text.contains("# TYPE kairos_resolves_total counter"));
        assert!(text.contains("kairos_resolves_total{shard=\"0\"} 1"));
        assert!(text.contains("# TYPE tick_usecs summary"));
        assert!(text.contains("tick_usecs{quantile=\"0.5\",kind=\"poll\"}"));
        assert!(text.contains("tick_usecs_count{kind=\"poll\"} 1"));
    }

    #[test]
    fn every_rendered_line_is_valid_exposition_format() {
        let reg = MetricsRegistry::new();
        reg.counter("plain_total").add(3);
        reg.counter("labeled_total{shard=\"0\"}").inc();
        reg.gauge("depth").set(1.25);
        reg.gauge("lag{zone=\"2\"}").set(-0.5);
        reg.histogram("plain_usecs").record(42);
        reg.histogram("labeled_usecs{kind=\"poll\",shard=\"1\"}")
            .record(7);
        let text = render_prometheus_all(&[&reg]);
        for line in text.lines() {
            validate_exposition_line(line).unwrap_or_else(|e| panic!("{e}"));
        }
        // The p50/p99 summary quantiles are present for both shapes.
        assert!(text.contains("plain_usecs{quantile=\"0.5\"} "));
        assert!(text.contains("plain_usecs{quantile=\"0.99\"} "));
        assert!(text.contains("labeled_usecs{quantile=\"0.99\",kind=\"poll\",shard=\"1\"} "));
        // Unlabeled summaries carry no empty brace pair.
        assert!(text.contains("plain_usecs_sum 42"), "{text}");
        assert!(text.contains("plain_usecs_count 1"));
        assert!(!text.contains("{}"), "empty braces leaked: {text}");
        // And the validator actually rejects malformed shapes.
        assert!(validate_exposition_line("x_sum{} 1").is_err());
        assert!(validate_exposition_line("9bad 1").is_err());
        assert!(validate_exposition_line("x{a=b} 1").is_err());
        assert!(validate_exposition_line("x 1 2 nope").is_err());
        assert!(validate_exposition_line("x").is_err());
    }

    #[test]
    fn labeled_names_render_as_valid_json() {
        let reg = MetricsRegistry::new();
        reg.counter("c_total{shard=\"0\"}").add(2);
        reg.histogram("h_usecs{kind=\"solve\"}").record(5);
        let json = reg.render_json();
        // Embedded label quotes must be escaped, keys stay unique.
        assert!(json.contains("\"c_total{shard=\\\"0\\\"}\":2"), "{json}");
        assert!(
            json.contains("\"h_usecs{kind=\\\"solve\\\"}_count\":1"),
            "{json}"
        );
        // Structural validity: quotes are balanced once unescaped
        // sequences are stripped.
        let stripped = json.replace("\\\"", "");
        assert_eq!(stripped.matches('"').count() % 2, 0, "{json}");
    }

    #[test]
    fn value_lookups_never_register() {
        let reg = MetricsRegistry::new();
        assert_eq!(reg.counter_value("nope"), None);
        assert_eq!(reg.gauge_value("nope"), None);
        assert!(reg.histogram_view("nope").is_none());
        assert!(!render_prometheus_all(&[&reg]).contains("nope"));
        reg.counter("yes_total").add(7);
        assert_eq!(reg.counter_value("yes_total"), Some(7));
    }
}
