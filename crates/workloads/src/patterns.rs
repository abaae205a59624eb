//! Time-varying request-rate patterns.
//!
//! §7.1: "Each workload has different time-varying patterns (e.g.,
//! sinusoidal, sawtooth, flat with different amplitude and period)." These
//! drive both the synthetic micro-benchmark and the offered-load schedules
//! of the controlled experiments.

/// A deterministic request-rate schedule in transactions/second.
#[derive(Debug, Clone, PartialEq)]
pub enum RatePattern {
    /// Constant rate.
    Flat { tps: f64 },
    /// `mean + amplitude * sin(2π t / period)`.
    Sinusoid {
        mean: f64,
        amplitude: f64,
        period_secs: f64,
        phase: f64,
    },
    /// Linear ramp from `min` to `max` repeating every `period_secs`.
    Sawtooth {
        min: f64,
        max: f64,
        period_secs: f64,
    },
    /// Alternates `low` and `high` every half `period_secs`.
    Square {
        low: f64,
        high: f64,
        period_secs: f64,
    },
    /// `base` rate with a burst to `peak` for `burst_secs` out of every
    /// `period_secs`.
    Bursty {
        base: f64,
        peak: f64,
        burst_secs: f64,
        period_secs: f64,
    },
}

impl RatePattern {
    /// Rate at simulated time `now` (seconds). Never negative.
    pub fn rate_at(&self, now: f64) -> f64 {
        let v = match *self {
            RatePattern::Flat { tps } => tps,
            RatePattern::Sinusoid {
                mean,
                amplitude,
                period_secs,
                phase,
            } => mean + amplitude * (2.0 * std::f64::consts::PI * now / period_secs + phase).sin(),
            RatePattern::Sawtooth {
                min,
                max,
                period_secs,
            } => {
                let frac = (now / period_secs).rem_euclid(1.0);
                min + (max - min) * frac
            }
            RatePattern::Square {
                low,
                high,
                period_secs,
            } => {
                if (now / period_secs).rem_euclid(1.0) < 0.5 {
                    low
                } else {
                    high
                }
            }
            RatePattern::Bursty {
                base,
                peak,
                burst_secs,
                period_secs,
            } => {
                let t = now.rem_euclid(period_secs);
                if t < burst_secs {
                    peak
                } else {
                    base
                }
            }
        };
        v.max(0.0)
    }

    /// Time-averaged rate over one full period.
    pub fn mean_rate(&self) -> f64 {
        match *self {
            RatePattern::Flat { tps } => tps,
            RatePattern::Sinusoid { mean, .. } => mean,
            RatePattern::Sawtooth { min, max, .. } => (min + max) / 2.0,
            RatePattern::Square { low, high, .. } => (low + high) / 2.0,
            RatePattern::Bursty {
                base,
                peak,
                burst_secs,
                period_secs,
            } => (peak * burst_secs + base * (period_secs - burst_secs)) / period_secs,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn flat_is_constant() {
        let p = RatePattern::Flat { tps: 42.0 };
        assert_eq!(p.rate_at(0.0), 42.0);
        assert_eq!(p.rate_at(1e6), 42.0);
        assert_eq!(p.mean_rate(), 42.0);
    }

    #[test]
    fn sinusoid_oscillates_around_mean() {
        let p = RatePattern::Sinusoid {
            mean: 100.0,
            amplitude: 50.0,
            period_secs: 100.0,
            phase: 0.0,
        };
        assert!((p.rate_at(0.0) - 100.0).abs() < 1e-9);
        assert!((p.rate_at(25.0) - 150.0).abs() < 1e-9);
        assert!((p.rate_at(75.0) - 50.0).abs() < 1e-9);
    }

    #[test]
    fn sinusoid_never_negative() {
        let p = RatePattern::Sinusoid {
            mean: 10.0,
            amplitude: 50.0,
            period_secs: 10.0,
            phase: 0.0,
        };
        for i in 0..100 {
            assert!(p.rate_at(i as f64 * 0.1) >= 0.0);
        }
    }

    #[test]
    fn sawtooth_ramps_and_wraps() {
        let p = RatePattern::Sawtooth {
            min: 0.0,
            max: 100.0,
            period_secs: 10.0,
        };
        assert!((p.rate_at(5.0) - 50.0).abs() < 1e-9);
        assert!((p.rate_at(15.0) - 50.0).abs() < 1e-9);
        assert!((p.mean_rate() - 50.0).abs() < 1e-9);
    }

    #[test]
    fn square_switches_at_half_period() {
        let p = RatePattern::Square {
            low: 1.0,
            high: 9.0,
            period_secs: 10.0,
        };
        assert_eq!(p.rate_at(2.0), 1.0);
        assert_eq!(p.rate_at(7.0), 9.0);
        assert_eq!(p.mean_rate(), 5.0);
    }

    #[test]
    fn bursty_mean_accounts_for_duty_cycle() {
        let p = RatePattern::Bursty {
            base: 10.0,
            peak: 110.0,
            burst_secs: 10.0,
            period_secs: 100.0,
        };
        assert_eq!(p.rate_at(5.0), 110.0);
        assert_eq!(p.rate_at(50.0), 10.0);
        assert!((p.mean_rate() - 20.0).abs() < 1e-9);
    }
}
