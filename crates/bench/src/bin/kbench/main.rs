//! `kbench` — the repository's one benchmark: the paper pipeline, the
//! online loop and the wire, measured end to end and layer by layer from
//! outside, through the crates' public functions. See README.md here.
//!
//! ```text
//! kbench run --all [--seed N] [--seconds S] [--quick] [--trace 0|1] [--out FILE]
//! kbench run --workload NAME ...      # one workload, in this process
//! kbench compare A.json B.json
//! kbench manifest                     # prints BENCHMARK.json
//! ```

mod compare;
mod env;
mod json;
mod metrics;
mod run;
mod spans;
mod stats;
mod workloads;

use json::Json;
use run::Passes;
use std::path::PathBuf;
use std::process::{Command, ExitCode};
use workloads::{RunCfg, NAMES};

const DEFAULT_SEED: u64 = 0x5EED;

struct RunArgs {
    workloads: Vec<String>,
    all: bool,
    cfg: RunCfg,
    passes: Passes,
    out: Option<PathBuf>,
}

fn parse_run(args: &[String]) -> Result<RunArgs, String> {
    let mut parsed = RunArgs {
        workloads: Vec::new(),
        all: false,
        cfg: RunCfg {
            seed: DEFAULT_SEED,
            seconds: metrics::RUN_SECONDS,
            quick: false,
        },
        passes: Passes::Both,
        out: None,
    };
    let mut it = args.iter().peekable();
    while let Some(arg) = it.next() {
        let mut value = |flag: &str| it.next().ok_or(format!("{flag} needs a value"));
        match arg.as_str() {
            "--all" => parsed.all = true,
            "--quick" => parsed.cfg.quick = true,
            "--workload" => parsed.workloads.push(value("--workload")?.clone()),
            "--seed" => {
                let text = value("--seed")?;
                parsed.cfg.seed = text
                    .strip_prefix("0x")
                    .map_or_else(|| text.parse(), |hex| u64::from_str_radix(hex, 16))
                    .map_err(|_| format!("--seed {text}: not a whole number"))?;
            }
            "--seconds" => {
                let text = value("--seconds")?;
                parsed.cfg.seconds = text
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s > 0.0)
                    .ok_or(format!("--seconds {text}: not a positive number"))?;
            }
            "--out" => parsed.out = Some(PathBuf::from(value("--out")?)),
            "--trace" => {
                // `--trace` alone means the traced pass; `--trace 0|1` picks.
                parsed.passes = match it.peek().map(|s| s.as_str()) {
                    Some("0") => {
                        it.next();
                        Passes::Untraced
                    }
                    Some("1") => {
                        it.next();
                        Passes::Traced
                    }
                    _ => Passes::Traced,
                };
            }
            name if !name.starts_with('-') => parsed.workloads.push(name.to_string()),
            other => return Err(format!("unknown option {other}")),
        }
    }
    if let Some(bad) = parsed
        .workloads
        .iter()
        .find(|w| !NAMES.contains(&w.as_str()))
    {
        return Err(format!(
            "unknown workload {bad}; the workloads are {NAMES:?}"
        ));
    }
    if parsed.all {
        parsed.workloads = NAMES.iter().map(|n| n.to_string()).collect();
    }
    if parsed.workloads.is_empty() {
        return Err("name a workload or pass --all".into());
    }
    Ok(parsed)
}

fn print_result(result: &Json) {
    let name = result.get("name").and_then(Json::as_str).unwrap_or("?");
    for section in ["end_to_end", "per_layer"] {
        for (metric, m) in result.get(section).map_or(&[][..], Json::fields) {
            let value = m.get("value").and_then(Json::as_f64).unwrap_or(0.0);
            let unit = m.get("unit").and_then(Json::as_str).unwrap_or("");
            match (
                m.get("q1").and_then(Json::as_f64),
                m.get("q3").and_then(Json::as_f64),
            ) {
                (Some(q1), Some(q3)) => println!(
                    "{name:<22} {metric:<34} {value:>14.4} {unit:<6} [{q1:.4} .. {q3:.4}] n={}",
                    m.get("n").and_then(Json::as_f64).unwrap_or(0.0)
                ),
                _ => println!("{name:<22} {metric:<34} {value:>14.4} {unit}"),
            }
        }
    }
    for (count, value) in result.get("counts").map_or(&[][..], Json::fields) {
        println!("{name:<22} {:<34} {:>14} count", count, value.render());
    }
    let attempted = result
        .get("attempted")
        .and_then(Json::as_f64)
        .unwrap_or(1.0);
    let failed = result.get("failed").and_then(Json::as_f64).unwrap_or(1.0);
    println!(
        "{name:<22} {:<34} {:>14.6} ratio ({failed} of {attempted} operations)",
        "failed_ops_share",
        failed / attempted.max(1.0)
    );
    for failure in result.get("failures").map_or(&[][..], Json::items) {
        println!("{name:<22} FAILED: {}", failure.as_str().unwrap_or("?"));
    }
}

fn document(cfg: &RunCfg, workloads: Vec<Json>) -> Json {
    Json::obj()
        .with("kbench", 1usize)
        .with("fingerprint", env::fingerprint(cfg))
        .with("workloads", workloads)
}

fn write_out(path: &PathBuf, doc: &Json) -> Result<(), String> {
    if let Some(dir) = path.parent().filter(|d| !d.as_os_str().is_empty()) {
        std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    }
    std::fs::write(path, doc.render_pretty()).map_err(|e| format!("{}: {e}", path.display()))
}

/// A workload whose child process died: emitted as all-failed, never
/// omitted.
fn crashed(name: &str, why: String) -> Json {
    Json::obj()
        .with("name", name)
        .with("attempted", 1usize)
        .with("failed", 1usize)
        .with("failures", vec![Json::from(why)])
}

/// Every workload in its own child process, so each one's peak RSS and
/// warm state are its own.
fn run_children(args: &RunArgs) -> Result<Vec<Json>, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let scratch = env::output_dir();
    std::fs::create_dir_all(&scratch).map_err(|e| format!("{}: {e}", scratch.display()))?;
    let mut results = Vec::new();
    for name in &args.workloads {
        let out = scratch.join(format!("child-{}-{name}.json", std::process::id()));
        let mut child = Command::new(&exe);
        child
            .args(["run", "--workload", name])
            .args(["--seed", &args.cfg.seed.to_string()])
            .args(["--seconds", &args.cfg.seconds.to_string()])
            .arg("--out")
            .arg(&out);
        match args.passes {
            Passes::Untraced => child.args(["--trace", "0"]),
            Passes::Traced => child.args(["--trace", "1"]),
            Passes::Both => &mut child,
        };
        if args.cfg.quick {
            child.arg("--quick");
        }
        // The child's own report is the table printed below.
        let status = child.stdout(std::process::Stdio::null()).status();
        let result = std::fs::read_to_string(&out)
            .map_err(|e| e.to_string())
            .and_then(|text| Json::parse(&text))
            .ok()
            .and_then(|doc| doc.get("workloads")?.items().first().cloned());
        let _ = std::fs::remove_file(&out);
        let result =
            result.unwrap_or_else(|| crashed(name, format!("child process ended with {status:?}")));
        print_result(&result);
        results.push(result);
    }
    Ok(results)
}

fn cmd_run(args: &[String]) -> Result<ExitCode, String> {
    let args = parse_run(args)?;
    // Before any thread exists; the children of `--all` inherit it.
    if env::pin_to_one_cpu().is_none() {
        eprintln!("kbench: cannot pin to one processor; wake-up placement is the scheduler's");
    }
    if env::build_profile() == "debug" && !args.cfg.quick {
        return Err("refusing to measure a debug build; build with --release (or pass --quick for a smoke run)".into());
    }
    let in_process = args.workloads.len() == 1 && !args.all;
    let results = if in_process {
        let result =
            run::run_named(&args.workloads[0], &args.cfg, args.passes).ok_or("unknown workload")?;
        print_result(&result);
        vec![result]
    } else {
        run_children(&args)?
    };
    let failed: f64 = results
        .iter()
        .map(|r| r.get("failed").and_then(Json::as_f64).unwrap_or(1.0))
        .sum();
    let doc = document(&args.cfg, results);
    let out = args
        .out
        .clone()
        .or_else(|| (!in_process).then(|| env::output_dir().join("result.json")));
    if let Some(path) = &out {
        write_out(path, &doc)?;
        if !in_process {
            println!("result written to {}", path.display());
        }
    }
    if in_process {
        // The driver reads the last line of standard output.
        let result = &doc.get("workloads").expect("one workload").items()[0];
        println!("{}", run::contract_line(result, args.passes).render());
    }
    Ok(if failed == 0.0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

fn cmd_compare(args: &[String]) -> Result<ExitCode, String> {
    let [a, b] = args else {
        return Err("usage: kbench compare A.json B.json".into());
    };
    let load = |path: &String| {
        std::fs::read_to_string(path)
            .map_err(|e| format!("{path}: {e}"))
            .and_then(|text| Json::parse(&text).map_err(|e| format!("{path}: {e}")))
    };
    Ok(if compare::compare(&load(a)?, &load(b)?)? {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

fn main() -> ExitCode {
    // Both RPC workloads run keyed. The key is read once per process, so
    // it is set here, before any thread exists and before the first frame.
    std::env::set_var(kairos_net::auth::KEY_ENV, workloads::wire::BENCH_KEY);

    let args: Vec<String> = std::env::args().skip(1).collect();
    let outcome = match args.first().map(String::as_str) {
        Some("run") => cmd_run(&args[1..]),
        Some("compare") => cmd_compare(&args[1..]),
        Some("manifest") => {
            print!("{}", metrics::manifest().render_pretty());
            Ok(ExitCode::SUCCESS)
        }
        _ => Err("usage: kbench run --all | kbench run --workload NAME | kbench compare A B | kbench manifest".into()),
    };
    outcome.unwrap_or_else(|why| {
        eprintln!("kbench: {why}");
        ExitCode::from(2)
    })
}
