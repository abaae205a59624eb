//! Golden run: the simulation is a fixed function of its seed.
//!
//! One TPC-C and one Wikipedia tenant share a DBMS instance whose buffer
//! pool is smaller than their combined working sets, so every cumulative
//! counter below depends on the exact hit/miss/eviction sequence of the
//! clock, on the flusher's dirty-batch order and on the engine's rng
//! draws. A third tenant is dropped mid-run, so the frame order a
//! `drop_database` leaves behind feeds every later eviction too. The
//! expected values are bit patterns recorded at PR 14's tree (commit
//! 4a9a943), before the pool was re-indexed: a change to the pool's
//! containers must reproduce them exactly, not approximately.

use kairos_dbsim::{DbmsConfig, DbmsInstance, Host, InstanceStats, DEFAULT_TICK_SECS};
use kairos_types::{Bytes, MachineSpec};
use kairos_workloads::{TpccWorkload, WikipediaWorkload, Workload, WorkloadHandle};

type Tenant = (Box<dyn Workload>, WorkloadHandle);

fn run(host: &mut Host, tenants: &mut [Tenant], now: &mut f64, ticks: usize) {
    for _ in 0..ticks {
        let load = tenants
            .iter_mut()
            .map(|(w, h)| (h.db, w.batch(h, *now, DEFAULT_TICK_SECS)))
            .collect();
        host.tick(DEFAULT_TICK_SECS, &[load]);
        *now += DEFAULT_TICK_SECS;
    }
}

/// 60 simulated seconds with three tenants, drop the third, 60 more.
fn colocated_run(config: DbmsConfig) -> (InstanceStats, usize, usize) {
    let mut host = Host::new(MachineSpec::server1());
    host.add_instance(DbmsInstance::new(config));
    let workloads: Vec<Box<dyn Workload>> = vec![
        Box::new(TpccWorkload::new(2, 120.0)),
        Box::new(WikipediaWorkload::new(5, 300.0).with_seed(11)),
        Box::new(TpccWorkload::new(1, 60.0).named("doomed")),
    ];
    let mut tenants: Vec<Tenant> = workloads
        .into_iter()
        .map(|mut w| {
            let h = w.install(host.instance_mut(0));
            (w, h)
        })
        .collect();
    let mut now = 0.0;
    run(&mut host, &mut tenants, &mut now, 600);
    let (_, doomed) = tenants.pop().expect("three tenants");
    host.remove_database(0, doomed.db)
        .expect("the third tenant is live");
    run(&mut host, &mut tenants, &mut now, 600);
    let inst = host.instance(0);
    (
        inst.stats(),
        inst.pool_resident_pages(),
        inst.pool_dirty_pages(),
    )
}

fn bits(s: &InstanceStats) -> [u64; 15] {
    [
        s.sim_secs,
        s.committed_txns,
        s.rows_read,
        s.rows_updated,
        s.bp_hits,
        s.bp_misses,
        s.os_cache_hits,
        s.physical_read_pages,
        s.physical_write_pages,
        s.log_bytes,
        s.log_forces,
        s.insert_bytes,
        s.checkpoints,
        s.cpu_core_secs,
        s.latency_weighted_secs,
    ]
    .map(f64::to_bits)
}

fn assert_golden(label: &str, got: (InstanceStats, usize, usize), want: ([u64; 15], usize, usize)) {
    let got = (bits(&got.0), got.1, got.2);
    assert_eq!(got, want, "{label}: the simulation changed: {got:#x?}");
}

#[test]
fn direct_io_pool_under_pressure_is_bit_identical() {
    let mut config = DbmsConfig::mysql(Bytes::mib(256));
    config.seed = 0x5EED;
    assert_golden("mysql", colocated_run(config), MYSQL);
}

#[test]
fn buffered_io_with_os_cache_is_bit_identical() {
    let mut config = DbmsConfig::postgres(Bytes::mib(128), Bytes::mib(192));
    config.seed = 0x5EED;
    assert_golden("postgres", colocated_run(config), POSTGRES);
}

const MYSQL: ([u64; 15], usize, usize) = (
    [
        0x405dffffffffff4d,
        0x4098289c9bcd4b62,
        0x40e741b7ef4a354d,
        0x40b5ec19928fda6a,
        0x40ca1e257684c423,
        0x40ca3158b8a550e0,
        0x0,
        0x40ca3158b8a550ea,
        0x40a67a0000000000,
        0x4146b198a90e5316,
        0x40b5a168d6c5ba8e,
        0x4116ab08ad3449e7,
        0x0,
        0x401139fb9878a633,
        0x40a6a603d9eb2654,
    ],
    0x3c9c,
    0xf6f,
);

const POSTGRES: ([u64; 15], usize, usize) = (
    [
        0x405dffffffffff4d,
        0x408fd560f43a2431,
        0x40e1598bf59a8650,
        0x40acb77811091b14,
        0x40b351b3c7815ac1,
        0x40cd9ec27876fe84,
        0x4096dbdbcd0d45db,
        0x40caba62ed65a89b,
        0x409abc0000000000,
        0x41414d406b9fc73f,
        0x40b2e7df5574073d,
        0x4110ae1a8bfebdbf,
        0x0,
        0x40107ec82ef685ee,
        0x40a5b51cba223fe8,
    ],
    0x3bb9,
    0xe81,
);
