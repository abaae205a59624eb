//! Integration coverage for the public gauge surface: the pieces the
//! observability layer leans on — gauge determinism (the simulated
//! environment is clock-free, so two identical runs must agree
//! bit-for-bit), the outcome accessors, and the `ResourceMonitor` →
//! profile pipeline driven end-to-end against the simulator.

use kairos_dbsim::{DbmsConfig, DbmsInstance, Host};
use kairos_monitor::{BufferGauge, GaugeOutcome, GaugeParams, ResourceMonitor, SimGaugeEnv};
use kairos_types::{Bytes, MachineSpec};
use kairos_workloads::{Driver, TpccWorkload};

fn gauge_run(warehouses: u32, tps: f64) -> GaugeOutcome {
    let mut host = Host::new(MachineSpec::server1());
    host.add_instance(DbmsInstance::new(DbmsConfig::mysql(Bytes::mib(512))));
    let mut driver = Driver::new();
    driver.bind(&mut host, 0, Box::new(TpccWorkload::new(warehouses, tps)));
    let db = driver.bindings()[0].handle.db;
    driver.warmup(&mut host, 5.0);
    let mut env = SimGaugeEnv::new(&mut host, &mut driver, 0, db);
    let params = GaugeParams {
        initial_step_pages: 256,
        max_step_pages: 4096,
        read_wait_secs: 1.0,
        window_secs: 5.0,
        ..Default::default()
    };
    BufferGauge::new(params).run(&mut env)
}

#[test]
fn gauging_is_deterministic_bit_for_bit() {
    let a = gauge_run(2, 60.0);
    let b = gauge_run(2, 60.0);
    assert_eq!(a.working_set, b.working_set);
    assert_eq!(a.safely_stolen, b.safely_stolen);
    assert_eq!(a.duration_secs.to_bits(), b.duration_secs.to_bits());
    assert_eq!(a.steps.len(), b.steps.len());
    for (sa, sb) in a.steps.iter().zip(&b.steps) {
        assert_eq!(sa.stolen_bytes.to_bits(), sb.stolen_bytes.to_bits());
        assert_eq!(sa.reads_per_sec.to_bits(), sb.reads_per_sec.to_bits());
    }
}

#[test]
fn gauge_outcome_accessors_are_consistent() {
    let outcome = gauge_run(1, 40.0);
    assert!(!outcome.steps.is_empty(), "the sweep must record rounds");
    assert!(outcome.duration_secs > 0.0);
    assert!(outcome.growth_bytes_per_sec() > 0.0);
    // Working set + safely stolen partition the gaugeable memory.
    let total = outcome.working_set.as_f64() + outcome.safely_stolen.as_f64();
    let capacity = {
        let cfg = DbmsConfig::mysql(Bytes::mib(512));
        (cfg.buffer_pool + cfg.os_cache).as_f64()
    };
    assert!(
        (total - capacity).abs() / capacity < 0.01,
        "working set {} + stolen {} must cover the {capacity}-byte pool",
        outcome.working_set,
        outcome.safely_stolen
    );
    // Stolen fractions are monotone and within [0, 1].
    for pair in outcome.steps.windows(2) {
        assert!(pair[1].stolen_fraction > pair[0].stolen_fraction);
    }
    for step in &outcome.steps {
        assert!((0.0..=1.0).contains(&step.stolen_fraction));
    }
}

#[test]
fn fixed_step_trace_is_monotone_and_bounded() {
    let mut host = Host::new(MachineSpec::server1());
    host.add_instance(DbmsInstance::new(DbmsConfig::mysql(Bytes::mib(256))));
    let mut driver = Driver::new();
    driver.bind(&mut host, 0, Box::new(TpccWorkload::new(1, 30.0)));
    let db = driver.bindings()[0].handle.db;
    driver.warmup(&mut host, 5.0);
    let mut env = SimGaugeEnv::new(&mut host, &mut driver, 0, db);
    let steps = BufferGauge::default().trace(&mut env, 1024, 0.6);
    assert!(!steps.is_empty());
    let last = steps.last().unwrap();
    assert!(last.stolen_fraction <= 0.6, "sweep overshot its bound");
    for pair in steps.windows(2) {
        assert!(pair[1].stolen_bytes > pair[0].stolen_bytes);
    }
}

#[test]
fn monitor_profile_pipeline_runs_end_to_end() {
    let mut host = Host::new(MachineSpec::server1());
    host.add_instance(DbmsInstance::new(DbmsConfig::mysql(Bytes::mib(256))));
    let mut driver = Driver::new();
    driver.bind(&mut host, 0, Box::new(TpccWorkload::new(1, 40.0)));
    driver.warmup(&mut host, 2.0);
    let mut monitor = ResourceMonitor::new(5.0, host.instance(0));
    for _ in 0..6 {
        driver.warmup(&mut host, 5.0);
        let sample = monitor.sample(host.instance(0));
        assert!(sample.tps > 0.0, "the workload must commit transactions");
    }
    assert_eq!(monitor.samples().len(), 6);
    let gauged = Bytes::mib(32);
    let profile = monitor.into_profile("tpcc-1", Some(gauged), Bytes::mib(190));
    assert_eq!(profile.windows(), 6);
    assert_eq!(profile.window(0).disk.working_set, gauged);
}
