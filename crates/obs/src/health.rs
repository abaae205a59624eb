//! The health watchdog: typed rules over the metrics registry, turned
//! into severities somebody can page on.
//!
//! Metrics answer "what is the value"; the watchdog answers "is that
//! value *wrong*". A [`HealthMonitor`] holds a catalog of
//! [`HealthRule`]s — gauge thresholds, gauge growth streaks, counter
//! rates, p99 regressions against a rolling baseline — and evaluates
//! them on a driver's cadence (the fleet/balancer tick loops call
//! [`HealthMonitor::observe`]). Findings come out two ways:
//!
//! * the **current** [`HealthReport`] (every firing rule, with
//!   severity and detail), served over the `Health` RPC so any node —
//!   or `kairos-top` across a fleet — can be asked "are you ok";
//! * **newly fired** findings, returned from `observe` so the caller
//!   can record a [`crate::events::DecisionEvent::HealthFlagged`] once
//!   per transition (a why-chain link, not a per-tick alarm storm).
//!
//! Health reads wall-clock-shaped registries, so the watchdog is
//! **disabled by default** and never enabled inside chaos fingerprint
//! runs; the decision events it records are gated on the same opt-in.

use crate::metrics::MetricsRegistry;
use serde::{Deserialize, Serialize};
use std::collections::{BTreeMap, BTreeSet, VecDeque};

/// How loud a finding is. `Critical` is the CI-failing level.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Serialize, Deserialize)]
pub enum Severity {
    Info,
    Warning,
    Critical,
}

impl Severity {
    pub fn name(&self) -> &'static str {
        match self {
            Severity::Info => "info",
            Severity::Warning => "warning",
            Severity::Critical => "critical",
        }
    }
}

/// One typed health rule over a named metric.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub enum HealthRule {
    /// A gauge is above a fixed threshold.
    GaugeAbove {
        metric: String,
        threshold: f64,
        severity: Severity,
    },
    /// A gauge grew strictly across the last `observations` consecutive
    /// observations (a trend, robust to any one-off blip resetting it).
    GaugeGrowing {
        metric: String,
        observations: u32,
        severity: Severity,
    },
    /// A counter advanced by more than `max_per_observation` since the
    /// previous observation (`0.0` ⇒ any advance fires).
    CounterRateAbove {
        metric: String,
        max_per_observation: f64,
        severity: Severity,
    },
    /// A histogram's p99 exceeds `factor ×` its rolling baseline (the
    /// minimum p99 seen since the histogram first held `min_count`
    /// samples).
    P99RegressionOver {
        metric: String,
        factor: f64,
        min_count: u64,
        severity: Severity,
    },
}

impl HealthRule {
    /// Short rule-kind slug (finding keys, event fields, docs).
    pub fn kind(&self) -> &'static str {
        match self {
            HealthRule::GaugeAbove { .. } => "gauge-above",
            HealthRule::GaugeGrowing { .. } => "gauge-growing",
            HealthRule::CounterRateAbove { .. } => "counter-rate",
            HealthRule::P99RegressionOver { .. } => "p99-regression",
        }
    }

    pub fn metric(&self) -> &str {
        match self {
            HealthRule::GaugeAbove { metric, .. }
            | HealthRule::GaugeGrowing { metric, .. }
            | HealthRule::CounterRateAbove { metric, .. }
            | HealthRule::P99RegressionOver { metric, .. } => metric,
        }
    }

    pub fn severity(&self) -> Severity {
        match self {
            HealthRule::GaugeAbove { severity, .. }
            | HealthRule::GaugeGrowing { severity, .. }
            | HealthRule::CounterRateAbove { severity, .. }
            | HealthRule::P99RegressionOver { severity, .. } => *severity,
        }
    }

    fn key(&self) -> String {
        format!("{}:{}", self.kind(), self.metric())
    }
}

/// One firing rule: what fired, how loud, at what value, and why.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct HealthFinding {
    /// The rule-kind slug ([`HealthRule::kind`]).
    pub rule: String,
    pub metric: String,
    pub severity: Severity,
    /// The observed value that fired the rule.
    pub value: f64,
    pub detail: String,
}

/// Everything firing at one observation, served over the `Health` RPC.
#[derive(Clone, Debug, Default, PartialEq, Serialize, Deserialize)]
pub struct HealthReport {
    /// The driver's tick at the observation.
    pub tick: u64,
    pub findings: Vec<HealthFinding>,
}

impl HealthReport {
    pub fn healthy(&self) -> bool {
        self.findings.is_empty()
    }

    pub fn max_severity(&self) -> Option<Severity> {
        self.findings.iter().map(|f| f.severity).max()
    }

    pub fn has_critical(&self) -> bool {
        self.max_severity() == Some(Severity::Critical)
    }

    /// One line per finding; `"healthy"` when clean.
    pub fn render(&self) -> String {
        if self.findings.is_empty() {
            return format!("tick {:>4} · healthy\n", self.tick);
        }
        let mut out = String::new();
        for f in &self.findings {
            out.push_str(&format!(
                "tick {:>4} · {} · {} on {}: {} (value {:.3})\n",
                self.tick,
                f.severity.name().to_uppercase(),
                f.rule,
                f.metric,
                f.detail,
                f.value,
            ));
        }
        out
    }
}

/// The default watchdog catalog — the fleet-operations conditions the
/// control plane already exports metrics for:
///
/// | rule | metric | fires when |
/// |---|---|---|
/// | gauge-growing (critical) | `kairos_fleet_sync_lag_rounds` | standby sync lag grew 3 observations in a row |
/// | gauge-above (critical) | `kairos_fleet_parked_oldest_rounds` | a parked handoff aged past 8 balance rounds |
/// | counter-rate (warning) | `kairos_net_auth_failures_total` | any authentication failure since last observation |
/// | counter-rate (warning) | `kairos_net_lease_misses_total` | any lease miss since last observation |
/// | p99-regression (warning) | `kairos_fleet_solve_tick_usecs` | solve-path p99 over 4× its rolling baseline |
pub fn default_rules() -> Vec<HealthRule> {
    vec![
        HealthRule::GaugeGrowing {
            metric: "kairos_fleet_sync_lag_rounds".to_string(),
            observations: 3,
            severity: Severity::Critical,
        },
        HealthRule::GaugeAbove {
            metric: "kairos_fleet_parked_oldest_rounds".to_string(),
            threshold: 8.0,
            severity: Severity::Critical,
        },
        HealthRule::CounterRateAbove {
            metric: "kairos_net_auth_failures_total".to_string(),
            max_per_observation: 0.0,
            severity: Severity::Warning,
        },
        HealthRule::CounterRateAbove {
            metric: "kairos_net_lease_misses_total".to_string(),
            max_per_observation: 0.0,
            severity: Severity::Warning,
        },
        HealthRule::P99RegressionOver {
            metric: "kairos_fleet_solve_tick_usecs".to_string(),
            factor: 4.0,
            min_count: 50,
            severity: Severity::Warning,
        },
    ]
}

/// Tick-driven rule evaluator. Holds the cross-observation state the
/// rules need (gauge history, counter snapshots, p99 baselines) plus
/// which findings are currently firing, so callers get clean
/// fired-edge transitions for the decision trace.
#[derive(Clone, Debug)]
pub struct HealthMonitor {
    rules: Vec<HealthRule>,
    gauge_history: BTreeMap<String, VecDeque<f64>>,
    counter_seen: BTreeMap<String, u64>,
    p99_baseline: BTreeMap<String, u64>,
    firing: BTreeSet<String>,
    last: HealthReport,
}

impl Default for HealthMonitor {
    fn default() -> Self {
        Self::new()
    }
}

impl HealthMonitor {
    /// A monitor over [`default_rules`].
    pub fn new() -> HealthMonitor {
        Self::with_rules(default_rules())
    }

    pub fn with_rules(rules: Vec<HealthRule>) -> HealthMonitor {
        HealthMonitor {
            rules,
            gauge_history: BTreeMap::new(),
            counter_seen: BTreeMap::new(),
            p99_baseline: BTreeMap::new(),
            firing: BTreeSet::new(),
            last: HealthReport::default(),
        }
    }

    /// The report from the most recent [`HealthMonitor::observe`].
    pub fn report(&self) -> &HealthReport {
        &self.last
    }

    /// Evaluate every rule against `registries` (first registry holding
    /// the metric wins; a metric absent everywhere simply cannot fire).
    /// Returns only the findings that **started** firing at this
    /// observation; the full current picture is [`HealthMonitor::report`].
    pub fn observe(&mut self, tick: u64, registries: &[&MetricsRegistry]) -> Vec<HealthFinding> {
        let mut findings = Vec::new();
        let mut newly = Vec::new();
        let mut now_firing = BTreeSet::new();
        for rule in &self.rules.clone() {
            if let Some(finding) = self.evaluate(rule, registries) {
                if !self.firing.contains(&rule.key()) {
                    newly.push(finding.clone());
                }
                now_firing.insert(rule.key());
                findings.push(finding);
            }
        }
        self.firing = now_firing;
        self.last = HealthReport { tick, findings };
        newly
    }

    fn evaluate(
        &mut self,
        rule: &HealthRule,
        registries: &[&MetricsRegistry],
    ) -> Option<HealthFinding> {
        let fired = match rule {
            HealthRule::GaugeAbove {
                metric, threshold, ..
            } => {
                let value = lookup_gauge(registries, metric)?;
                (value > *threshold).then(|| {
                    (
                        value,
                        format!("gauge {value:.3} above threshold {threshold:.3}"),
                    )
                })
            }
            HealthRule::GaugeGrowing {
                metric,
                observations,
                ..
            } => {
                let value = lookup_gauge(registries, metric)?;
                let keep = *observations as usize + 1;
                let history = self.gauge_history.entry(metric.clone()).or_default();
                history.push_back(value);
                while history.len() > keep {
                    history.pop_front();
                }
                let growing = history.len() == keep
                    && history
                        .iter()
                        .zip(history.iter().skip(1))
                        .all(|(a, b)| b > a);
                growing.then(|| {
                    (
                        value,
                        format!(
                            "gauge grew strictly across {observations} observations (now {value:.3})"
                        ),
                    )
                })
            }
            HealthRule::CounterRateAbove {
                metric,
                max_per_observation,
                ..
            } => {
                let value = lookup_counter(registries, metric)?;
                let seen = self.counter_seen.insert(metric.clone(), value);
                let delta = value.saturating_sub(seen.unwrap_or(value));
                (delta as f64 > *max_per_observation).then(|| {
                    (
                        delta as f64,
                        format!("counter advanced by {delta} since last observation (max {max_per_observation})"),
                    )
                })
            }
            HealthRule::P99RegressionOver {
                metric,
                factor,
                min_count,
                ..
            } => {
                let (count, p99) = lookup_histogram_p99(registries, metric)?;
                if count < *min_count {
                    return None;
                }
                let baseline = self
                    .p99_baseline
                    .entry(metric.clone())
                    .and_modify(|b| *b = (*b).min(p99.max(1)))
                    .or_insert(p99.max(1));
                (p99 as f64 > *factor * *baseline as f64).then(|| {
                    (
                        p99 as f64,
                        format!("p99 {p99}us over {factor}x rolling baseline {baseline}us"),
                    )
                })
            }
        };
        fired.map(|(value, detail)| HealthFinding {
            rule: rule.kind().to_string(),
            metric: rule.metric().to_string(),
            severity: rule.severity(),
            value,
            detail,
        })
    }
}

fn lookup_gauge(registries: &[&MetricsRegistry], metric: &str) -> Option<f64> {
    registries.iter().find_map(|r| r.gauge_value(metric))
}

fn lookup_counter(registries: &[&MetricsRegistry], metric: &str) -> Option<u64> {
    registries.iter().find_map(|r| r.counter_value(metric))
}

fn lookup_histogram_p99(registries: &[&MetricsRegistry], metric: &str) -> Option<(u64, u64)> {
    registries
        .iter()
        .find_map(|r| r.histogram_view(metric))
        .map(|h| (h.count(), h.percentile(0.99)))
}

/// Caller-side ages for the balancer's parked-handoff lot, exported as
/// the `kairos_fleet_parked_oldest_rounds` gauge the watchdog's
/// aged-parked rule reads. Kept **outside** the replicated
/// `BalancerSoftState` (its wire layout is pinned); a promoted standby
/// starts counting ages from its own first round, which only delays —
/// never suppresses — the alert.
#[derive(Clone, Debug, Default)]
pub struct ParkedAges {
    first_round: BTreeMap<String, u64>,
}

impl ParkedAges {
    pub fn new() -> ParkedAges {
        ParkedAges::default()
    }

    /// Reconcile against the lot after a balance round and return the
    /// oldest age in rounds (0 when the lot is empty). The caller sets
    /// the gauge with it.
    pub fn update<'a>(&mut self, round: u64, parked: impl IntoIterator<Item = &'a str>) -> u64 {
        let live: BTreeSet<&str> = parked.into_iter().collect();
        self.first_round.retain(|t, _| live.contains(t.as_str()));
        for t in live {
            self.first_round.entry(t.to_string()).or_insert(round);
        }
        self.first_round
            .values()
            .map(|first| round.saturating_sub(*first))
            .max()
            .unwrap_or(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::MetricsRegistry;

    #[test]
    fn clean_registries_stay_silent() {
        let reg = MetricsRegistry::new();
        reg.gauge("kairos_fleet_sync_lag_rounds").set(0.0);
        reg.gauge("kairos_fleet_parked_oldest_rounds").set(0.0);
        reg.counter("kairos_net_auth_failures_total");
        let mut monitor = HealthMonitor::new();
        for tick in 0..20 {
            let newly = monitor.observe(tick, &[&reg]);
            assert!(newly.is_empty(), "tick {tick}: {newly:?}");
        }
        assert!(monitor.report().healthy());
        assert!(monitor.report().render().contains("healthy"));
    }

    #[test]
    fn growing_sync_lag_fires_critical_once_and_clears() {
        let reg = MetricsRegistry::new();
        let lag = reg.gauge("kairos_fleet_sync_lag_rounds");
        let mut monitor = HealthMonitor::new();
        // Strictly growing for 4 observations (3 growth steps).
        let mut total_new = 0;
        for (tick, v) in [1.0, 2.0, 3.0, 4.0].iter().enumerate() {
            lag.set(*v);
            total_new += monitor.observe(tick as u64, &[&reg]).len();
        }
        assert_eq!(total_new, 1, "fires exactly once at the edge");
        let report = monitor.report().clone();
        assert!(report.has_critical());
        assert_eq!(report.findings[0].rule, "gauge-growing");
        assert_eq!(report.findings[0].metric, "kairos_fleet_sync_lag_rounds");
        // Still growing: still firing, but not "newly".
        lag.set(5.0);
        assert!(monitor.observe(4, &[&reg]).is_empty());
        assert!(!monitor.report().healthy());
        // The standby catches up: lag flat, the finding clears.
        monitor.observe(5, &[&reg]);
        assert!(monitor.report().healthy(), "{:?}", monitor.report());
    }

    #[test]
    fn aged_parked_handoff_fires_threshold_rule() {
        let reg = MetricsRegistry::new();
        let gauge = reg.gauge("kairos_fleet_parked_oldest_rounds");
        let mut ages = ParkedAges::new();
        let mut monitor = HealthMonitor::new();
        for round in 0..12u64 {
            // One handoff stays parked from round 1 onwards.
            let parked: Vec<&str> = if round >= 1 { vec!["t-stuck"] } else { vec![] };
            let oldest = ages.update(round, parked);
            gauge.set(oldest as f64);
            monitor.observe(round, &[&reg]);
        }
        let report = monitor.report();
        assert!(report.has_critical(), "{report:?}");
        assert!(report
            .findings
            .iter()
            .any(|f| f.metric == "kairos_fleet_parked_oldest_rounds" && f.value > 8.0));
        // The handoff resolves: ages drain, the rule clears.
        let oldest = ages.update(12, Vec::<&str>::new());
        gauge.set(oldest as f64);
        monitor.observe(12, &[&reg]);
        assert!(monitor.report().healthy());
    }

    #[test]
    fn counter_rate_and_p99_regression_fire() {
        let reg = MetricsRegistry::new();
        let auth = reg.counter("kairos_net_auth_failures_total");
        let solve = reg.histogram("kairos_fleet_solve_tick_usecs");
        for _ in 0..60 {
            solve.record(100);
        }
        let mut monitor = HealthMonitor::new();
        monitor.observe(0, &[&reg]);
        assert!(monitor.report().healthy(), "baseline observation clean");
        // An auth failure lands and the solve path regresses hard.
        auth.inc();
        for _ in 0..200 {
            solve.record(2_000);
        }
        monitor.observe(1, &[&reg]);
        let report = monitor.report();
        let rules: Vec<&str> = report.findings.iter().map(|f| f.rule.as_str()).collect();
        assert!(rules.contains(&"counter-rate"), "{report:?}");
        assert!(rules.contains(&"p99-regression"), "{report:?}");
        assert_eq!(report.max_severity(), Some(Severity::Warning));
        // Quiet again next observation: the counter stopped advancing.
        monitor.observe(2, &[&reg]);
        assert!(!monitor
            .report()
            .findings
            .iter()
            .any(|f| f.rule == "counter-rate"));
    }

    #[test]
    fn severity_orders_and_serializes() {
        assert!(Severity::Critical > Severity::Warning);
        assert!(Severity::Warning > Severity::Info);
        let report = HealthReport {
            tick: 9,
            findings: vec![HealthFinding {
                rule: "gauge-above".into(),
                metric: "m".into(),
                severity: Severity::Critical,
                value: 11.0,
                detail: "d".into(),
            }],
        };
        let bytes = serde::to_bytes(&report);
        let back: HealthReport = serde::from_bytes(&bytes).expect("decodes");
        assert_eq!(back, report);
        assert!(report.render().contains("CRITICAL"));
    }
}
