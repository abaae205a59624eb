//! Synthetic production-fleet generator.
//!
//! The paper's Fig 7–9/13 experiments run on monitoring statistics from
//! four organizations (≈196 servers total). Those traces are proprietary;
//! this module synthesizes fleets with the *documented statistical
//! properties*:
//!
//! * fleet-wide mean CPU utilization below 4 % (§ abstract/intro);
//! * daily and weekly periodicity with per-server phase/amplitude
//!   variation (Fig 8, Fig 13);
//! * AR(1) noise and occasional load spikes;
//! * Second Life's pool of 27 machines running scheduled late-night
//!   snapshot jobs ("the late-night peaks are due to a pool of 27
//!   database machines performing snapshot operations", §7.5);
//! * heterogeneous hardware, normalized to standardized cores as in §6;
//! * RAM reported as *allocated* (gauging unavailable on historical
//!   statistics — the §6 RAM scaling factor applies downstream).

use kairos_types::{Bytes, SplitMix64, TimeSeries, WorkloadProfile};

/// The four real-world datasets of §7.1.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Dataset {
    /// MIT CSAIL lab servers ("Internal"), 25 servers.
    Internal,
    /// Wikia.com, 34 servers.
    Wikia,
    /// Wikipedia's Tampa cluster, 40 servers.
    Wikipedia,
    /// Second Life, 97 servers.
    SecondLife,
}

impl Dataset {
    pub const ALL: [Dataset; 4] = [
        Dataset::Internal,
        Dataset::Wikia,
        Dataset::Wikipedia,
        Dataset::SecondLife,
    ];

    pub fn server_count(self) -> usize {
        match self {
            Dataset::Internal => 25,
            Dataset::Wikia => 34,
            Dataset::Wikipedia => 40,
            Dataset::SecondLife => 97,
        }
    }

    pub fn label(self) -> &'static str {
        match self {
            Dataset::Internal => "Internal",
            Dataset::Wikia => "Wikia",
            Dataset::Wikipedia => "Wikipedia",
            Dataset::SecondLife => "SecondLife",
        }
    }
}

/// Per-dataset load character (calibrated against the paper's qualitative
/// descriptions and the Fig 7 consolidation-ratio band).
struct Character {
    /// Mean of the per-server base CPU utilization (fraction of its own
    /// machine), log-normally distributed.
    base_util: f64,
    base_util_sigma: f64,
    /// Diurnal amplitude as a multiple of base load.
    diurnal_amp: f64,
    /// Weekend attenuation factor.
    weekend_dip: f64,
    /// AR(1) noise sigma (fraction of base).
    noise: f64,
    /// Probability of a load spike per 5-minute sample.
    spike_prob: f64,
    /// Mean allocated-RAM fraction of machine RAM.
    ram_frac: f64,
    /// Working-set fraction of allocated RAM (drives the disk model).
    ws_frac: f64,
    /// Rows updated per second per standardized core of CPU load.
    write_intensity: f64,
    /// Number of machines with nightly scheduled jobs.
    night_job_machines: usize,
    /// Added utilization during the job window.
    night_job_magnitude: f64,
}

fn character(dataset: Dataset) -> Character {
    match dataset {
        // Idle lab machines: tiny base load, big over-provisioning.
        Dataset::Internal => Character {
            base_util: 0.006,
            base_util_sigma: 0.8,
            diurnal_amp: 2.0,
            weekend_dip: 0.55,
            noise: 0.35,
            spike_prob: 0.002,
            ram_frac: 0.45,
            ws_frac: 0.3,
            write_intensity: 220.0,
            night_job_machines: 0,
            night_job_magnitude: 0.0,
        },
        // Web platform: strong diurnal swings, modest base.
        Dataset::Wikia => Character {
            base_util: 0.012,
            base_util_sigma: 0.6,
            diurnal_amp: 3.0,
            weekend_dip: 0.8,
            noise: 0.3,
            spike_prob: 0.003,
            ram_frac: 0.3,
            ws_frac: 0.3,
            write_intensity: 420.0,
            night_job_machines: 0,
            night_job_magnitude: 0.0,
        },
        // Large, busier cluster with smooth world-wide traffic.
        Dataset::Wikipedia => Character {
            base_util: 0.02,
            base_util_sigma: 0.5,
            diurnal_amp: 1.8,
            weekend_dip: 0.9,
            noise: 0.2,
            spike_prob: 0.002,
            ram_frac: 0.40,
            ws_frac: 0.2,
            write_intensity: 250.0,
            night_job_machines: 0,
            night_job_magnitude: 0.0,
        },
        // Virtual world: busier still, nightly snapshot pool of 27.
        Dataset::SecondLife => Character {
            base_util: 0.022,
            base_util_sigma: 0.5,
            diurnal_amp: 1.6,
            weekend_dip: 1.05,
            noise: 0.25,
            spike_prob: 0.004,
            ram_frac: 0.45,
            ws_frac: 0.2,
            write_intensity: 300.0,
            night_job_machines: 27,
            night_job_magnitude: 0.3,
        },
    }
}

/// Generation settings.
#[derive(Debug, Clone, Copy)]
pub struct FleetConfig {
    /// Horizon in weeks (Fig 13 needs 3; Fig 7 uses the last day).
    pub weeks: usize,
    /// Sampling interval (the paper settles on 5-minute windows).
    pub interval_secs: f64,
    pub seed: u64,
}

impl Default for FleetConfig {
    fn default() -> FleetConfig {
        FleetConfig {
            weeks: 3,
            interval_secs: 300.0,
            seed: 0x5EED,
        }
    }
}

/// One monitored production server.
#[derive(Debug, Clone)]
pub struct ServerTrace {
    pub name: String,
    pub cores: u32,
    pub clock_ghz: f64,
    pub ram_total: Bytes,
    /// CPU load in standardized cores.
    pub cpu: TimeSeries,
    /// RAM the OS reports in use (allocated view), bytes.
    pub ram: TimeSeries,
    /// Disk-model working set, bytes.
    pub ws: TimeSeries,
    /// Disk-model update rate, rows/s.
    pub rate: TimeSeries,
}

impl ServerTrace {
    /// Convert to the consolidation-engine input, applying the §6 RAM
    /// scaling factor (historical statistics cannot be gauged; the paper
    /// estimates ~30 % savings, i.e. a 0.7 factor).
    pub fn to_profile(&self, ram_scale: f64) -> WorkloadProfile {
        WorkloadProfile::new(
            self.name.clone(),
            self.cpu.clone(),
            self.ram.scale(ram_scale),
            self.ws.clone(),
            self.rate.clone(),
        )
    }
}

/// Hardware mixes per dataset (cores, clock GHz, RAM GiB) with weights.
fn hardware_mix(dataset: Dataset) -> &'static [(u32, f64, u64, f64)] {
    match dataset {
        Dataset::Internal => &[(4, 2.33, 8, 0.4), (8, 2.66, 16, 0.4), (8, 3.0, 32, 0.2)],
        Dataset::Wikia => &[(8, 2.66, 16, 0.5), (8, 3.0, 32, 0.5)],
        Dataset::Wikipedia => &[(8, 2.66, 32, 0.4), (16, 2.66, 64, 0.6)],
        Dataset::SecondLife => &[(8, 3.0, 32, 0.5), (16, 2.66, 64, 0.5)],
    }
}

fn pick_hardware(rng: &mut SplitMix64, dataset: Dataset) -> (u32, f64, u64) {
    let mix = hardware_mix(dataset);
    let total: f64 = mix.iter().map(|m| m.3).sum();
    let mut draw = rng.next_f64() * total;
    for &(cores, ghz, ram, w) in mix {
        if draw < w {
            return (cores, ghz, ram);
        }
        draw -= w;
    }
    let last = mix.last().expect("non-empty mix");
    (last.0, last.1, last.2)
}

/// Generate one dataset's fleet.
pub fn generate_fleet(dataset: Dataset, cfg: &FleetConfig) -> Vec<ServerTrace> {
    let ch = character(dataset);
    let mut rng = SplitMix64::new(
        cfg.seed ^ (dataset.label().len() as u64) << 32 ^ dataset.server_count() as u64,
    );
    let samples = (cfg.weeks as f64 * 7.0 * 86_400.0 / cfg.interval_secs) as usize;
    let mut fleet = Vec::with_capacity(dataset.server_count());

    for i in 0..dataset.server_count() {
        let mut srng = rng.fork();
        let (cores, ghz, ram_gib) = pick_hardware(&mut srng, dataset);
        let std_cores = cores as f64 * ghz / kairos_types::spec::STANDARD_CORE_GHZ;
        let ram_total = Bytes::gib(ram_gib);

        // Per-server character draws.
        let base = ch.base_util * (ch.base_util_sigma * srng.next_gaussian()).exp();
        let amp = ch.diurnal_amp * srng.next_in(0.6, 1.4);
        let phase = srng.next_in(-2.0, 2.0) * 3600.0; // peak-hour jitter
        let ram_frac = (ch.ram_frac * srng.next_in(0.7, 1.3)).clamp(0.05, 0.9);
        let write_intensity = ch.write_intensity * srng.next_in(0.5, 1.6);
        let has_night_job = i < ch.night_job_machines;
        let night_start = srng.next_in(1.0, 3.0) * 3600.0; // 1–3 AM
        let night_len = srng.next_in(0.5, 1.5) * 3600.0;

        let mut cpu = Vec::with_capacity(samples);
        let mut ram = Vec::with_capacity(samples);
        let mut ws = Vec::with_capacity(samples);
        let mut rate = Vec::with_capacity(samples);
        let mut ar1 = 0.0f64;
        let mut spike = 0.0f64;

        for s in 0..samples {
            let t = s as f64 * cfg.interval_secs;
            let day_t = (t + phase).rem_euclid(86_400.0);
            let weekday = ((t / 86_400.0).floor() as u64) % 7;
            let weekend = weekday >= 5;

            // Daytime hump peaking mid-afternoon.
            let diurnal = {
                let x = (day_t / 86_400.0) * 2.0 * std::f64::consts::PI;
                let v = (x - 1.1 * std::f64::consts::PI).sin().max(0.0);
                v.powf(1.5)
            };
            let week_factor = if weekend { ch.weekend_dip } else { 1.0 };

            ar1 = 0.92 * ar1 + ch.noise * srng.next_gaussian() * base;
            if srng.next_f64() < ch.spike_prob {
                spike = base * srng.next_in(2.0, 8.0);
            }
            spike *= 0.85;

            let mut util = base * (1.0 + amp * diurnal) * week_factor + ar1 + spike;
            if has_night_job && day_t >= night_start && day_t < night_start + night_len {
                util += ch.night_job_magnitude;
            }
            // Production database servers in these fleets never run pegged
            // (fleet mean is < 4%); cap transient peaks below saturation so
            // a 16-core source burst stays placeable on the 12-core target.
            let util = util.clamp(0.0005, 0.65);

            let cpu_cores = util * std_cores;
            let ram_bytes = ram_total.as_f64() * ram_frac * (1.0 + 0.02 * (t / 86_400.0).sin());
            cpu.push(cpu_cores);
            ram.push(ram_bytes);
            let ws_bytes = ram_bytes * ch.ws_frac;
            ws.push(ws_bytes);
            let mut r = cpu_cores * write_intensity;
            if has_night_job && day_t >= night_start && day_t < night_start + night_len {
                r += 800.0; // snapshot I/O burst
            }
            // A source machine by definition sustains its own load on its
            // own single disk: cap the generated rate below the disk's
            // saturation frontier for this working set.
            let disk_cap = (7.5e13 / ws_bytes.max(1.0)).min(28_000.0);
            rate.push(r.min(0.8 * disk_cap));
        }

        fleet.push(ServerTrace {
            name: format!("{}-{:03}", dataset.label().to_lowercase(), i),
            cores,
            clock_ghz: ghz,
            ram_total,
            cpu: TimeSeries::new(cfg.interval_secs, cpu),
            ram: TimeSeries::new(cfg.interval_secs, ram),
            ws: TimeSeries::new(cfg.interval_secs, ws),
            rate: TimeSeries::new(cfg.interval_secs, rate),
        });
    }
    fleet
}

/// All four datasets concatenated (the paper's "ALL", ≈196 servers).
pub fn generate_all(cfg: &FleetConfig) -> Vec<ServerTrace> {
    Dataset::ALL
        .iter()
        .flat_map(|&d| generate_fleet(d, cfg))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn one_day() -> FleetConfig {
        FleetConfig {
            weeks: 1,
            ..Default::default()
        }
    }

    /// Standardized-core capacity of a server.
    fn standardized_cores(s: &ServerTrace) -> f64 {
        s.cores as f64 * s.clock_ghz / kairos_types::spec::STANDARD_CORE_GHZ
    }

    /// Mean CPU utilization as a fraction of the server.
    fn mean_cpu_utilization(s: &ServerTrace) -> f64 {
        s.cpu.mean() / standardized_cores(s)
    }

    #[test]
    fn server_counts_match_paper() {
        assert_eq!(Dataset::Internal.server_count(), 25);
        assert_eq!(Dataset::Wikia.server_count(), 34);
        assert_eq!(Dataset::Wikipedia.server_count(), 40);
        assert_eq!(Dataset::SecondLife.server_count(), 97);
        let all = generate_all(&one_day());
        assert_eq!(all.len(), 196);
    }

    #[test]
    fn fleet_mean_utilization_below_four_percent() {
        // The paper's headline observation.
        let all = generate_all(&one_day());
        let mean = all.iter().map(mean_cpu_utilization).sum::<f64>() / all.len() as f64;
        assert!(mean < 0.04, "fleet mean utilization {mean:.4} >= 4%");
        assert!(mean > 0.002, "suspiciously idle fleet: {mean:.4}");
    }

    #[test]
    fn generation_is_deterministic() {
        let a = generate_fleet(Dataset::Wikia, &one_day());
        let b = generate_fleet(Dataset::Wikia, &one_day());
        assert_eq!(a[0].cpu.values(), b[0].cpu.values());
        assert_eq!(a[7].rate.values(), b[7].rate.values());
    }

    #[test]
    fn traces_have_diurnal_structure() {
        // Mean daytime load should exceed mean nighttime load for a
        // strongly diurnal dataset.
        let fleet = generate_fleet(Dataset::Wikia, &one_day());
        let samples_per_day = (86_400.0 / 300.0) as usize;
        let mut day = 0.0;
        let mut night = 0.0;
        for s in &fleet {
            let vals = s.cpu.values();
            for (i, &v) in vals.iter().take(samples_per_day).enumerate() {
                let hour = i as f64 * 300.0 / 3600.0;
                if (10.0..18.0).contains(&hour) {
                    day += v;
                } else if !(6.0..22.0).contains(&hour) {
                    night += v;
                }
            }
        }
        assert!(
            day / 8.0 > night / 10.0 * 1.3,
            "daytime load should dominate: day {day}, night {night}"
        );
    }

    #[test]
    fn second_life_has_night_jobs() {
        let fleet = generate_fleet(Dataset::SecondLife, &one_day());
        // Machines 0..27 get scheduled snapshot jobs in the 1–4 AM window;
        // their aggregate night-time I/O must dwarf an equal-sized pool of
        // job-free machines.
        let night_rate = |s: &ServerTrace| -> f64 {
            s.rate
                .values()
                .iter()
                .enumerate()
                .filter(|(i, _)| {
                    let hour = (*i as f64 * 300.0 / 3600.0) % 24.0;
                    (1.0..4.5).contains(&hour)
                })
                .map(|(_, &v)| v)
                .sum()
        };
        let pool: f64 = fleet[..27].iter().map(night_rate).sum();
        let others: f64 = fleet[27..54].iter().map(night_rate).sum();
        assert!(
            pool > others * 3.0,
            "snapshot pool night I/O {pool:.0} should dwarf {others:.0}"
        );
    }

    #[test]
    fn profiles_apply_ram_scaling() {
        let fleet = generate_fleet(Dataset::Internal, &one_day());
        let p_raw = fleet[0].to_profile(1.0);
        let p_scaled = fleet[0].to_profile(0.7);
        let r = p_scaled.ram_bytes.mean() / p_raw.ram_bytes.mean();
        assert!((r - 0.7).abs() < 1e-9);
    }

    #[test]
    fn heterogeneous_hardware_is_standardized() {
        let fleet = generate_all(&one_day());
        let distinct: std::collections::HashSet<(u32, u64)> =
            fleet.iter().map(|s| (s.cores, s.ram_total.0)).collect();
        assert!(distinct.len() >= 3, "expected a hardware mix");
        for s in &fleet {
            assert!(standardized_cores(s) > 0.0);
            // Utilization in [0, 1] after normalization.
            assert!(mean_cpu_utilization(s) <= 1.0);
        }
    }

    #[test]
    fn horizon_scales_with_weeks() {
        let one = generate_fleet(Dataset::Internal, &one_day());
        let three = generate_fleet(Dataset::Internal, &FleetConfig::default());
        assert_eq!(one[0].cpu.len() * 3, three[0].cpu.len());
    }
}
