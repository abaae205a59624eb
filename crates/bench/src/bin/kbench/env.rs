//! Where and how a result was measured: compared results must agree on
//! everything here but the commit.

use crate::json::Json;
use crate::workloads::RunCfg;
use std::path::PathBuf;
use std::process::Command;

fn command_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|out| out.status.success())
        .and_then(|out| String::from_utf8(out.stdout).ok())
        .map_or_else(|| "unknown".to_string(), |s| s.trim().to_string())
}

/// Processors the kernel lists, whatever this process may use of them.
fn nproc() -> usize {
    std::fs::read_to_string("/proc/cpuinfo")
        .map(|text| text.lines().filter(|l| l.starts_with("processor")).count())
        .unwrap_or(0)
}

/// Linux's `cpu_set_t`: 1024 bits.
#[cfg(target_os = "linux")]
type CpuSet = [u64; 16];

#[cfg(target_os = "linux")]
extern "C" {
    fn sched_getaffinity(pid: i32, cpusetsize: usize, mask: *mut CpuSet) -> i32;
    fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const CpuSet) -> i32;
}

/// Pin this thread, and so every thread it spawns later, to one of the
/// processors it may run on — the highest-numbered, away from where
/// interrupts and daemons gather — and return which. Call it before any
/// thread exists.
///
/// On a shared two-processor sandbox the scheduler otherwise decides, from
/// whatever else happens to run, whether a server thread wakes beside its
/// caller or on the other, halted processor; the same quiet RPC tick then
/// reads 130 us or 750 us. On one processor every wake-up is local. The
/// figures are therefore those of one control-plane core, and a parallel
/// speed-up is outside what this benchmark can show.
#[cfg(target_os = "linux")]
pub fn pin_to_one_cpu() -> Option<usize> {
    let mut allowed: CpuSet = [0; 16];
    // SAFETY: `allowed` is a live, writable buffer of exactly the size
    // passed, which is all `sched_getaffinity` requires; pid 0 names the
    // calling thread.
    let got = unsafe { sched_getaffinity(0, std::mem::size_of::<CpuSet>(), &mut allowed) };
    if got != 0 {
        return None;
    }
    let word = allowed.iter().rposition(|w| *w != 0)?;
    let bit = 63 - allowed[word].leading_zeros() as usize;
    let mut one: CpuSet = [0; 16];
    one[word] = 1 << bit;
    // SAFETY: `one` is a live buffer of exactly the size passed and is only
    // read; the mask names a processor the kernel just listed as allowed.
    let set = unsafe { sched_setaffinity(0, std::mem::size_of::<CpuSet>(), &one) };
    (set == 0).then_some(word * 64 + bit)
}

#[cfg(not(target_os = "linux"))]
pub fn pin_to_one_cpu() -> Option<usize> {
    None
}

/// The one processor this process may run on; null when it is not pinned
/// (the kernel then lists a range, such as `0-1`).
fn pinned_cpu() -> Json {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            let line = status
                .lines()
                .find(|l| l.starts_with("Cpus_allowed_list:"))?;
            line.split_whitespace().nth(1)?.parse::<usize>().ok()
        })
        .map_or(Json::Null, Json::from)
}

pub fn build_profile() -> &'static str {
    if cfg!(debug_assertions) {
        "debug"
    } else {
        "release"
    }
}

pub fn fingerprint(cfg: &RunCfg) -> Json {
    Json::obj()
        .with("nproc", nproc())
        .with(
            "available_parallelism",
            std::thread::available_parallelism().map_or(1, |n| n.get()),
        )
        .with("pinned_cpu", pinned_cpu())
        .with("tick_threads", kairos_fleet::default_tick_threads())
        .with("build_profile", build_profile())
        .with("rustc", command_line("rustc", &["-V"]))
        .with("seed", cfg.seed)
        .with("seconds", cfg.seconds)
        .with("quick", cfg.quick)
        .with("transport", "tcp-localhost")
        .with("keyed", true)
        .with("commit", command_line("git", &["rev-parse", "HEAD"]))
}

/// Where result and span files go: `<cargo target dir>/kbench`.
pub fn output_dir() -> PathBuf {
    let target = std::env::var_os("CARGO_TARGET_DIR").unwrap_or_else(|| "target".into());
    PathBuf::from(target).join("kbench")
}

/// Peak resident set of this process so far (`VmHWM`), in MiB.
pub fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
            line.split_whitespace().nth(1)?.parse::<f64>().ok()
        })
        .map_or(0.0, |kib| kib / 1024.0)
}
