//! The repository benchmark: four workloads through the public API of the
//! compiler, ISA, architecture (trace and slab), checkpoint and serving
//! crates, every output checked against a host reference.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <kernels_cold|kernels_warm|serve_open|similarity_index> \
//!     --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! The last line of standard output is one JSON object: `correct`,
//! `attempted`, `failed`, and the end-to-end metrics (`--trace 0`) or the
//! per-layer metrics (`--trace 1`). Everything above it is a human-readable
//! report. See `perfbench/README.md` for what each metric means on each
//! workload.

mod kernels;
mod report;
mod serve;
mod similarity;
mod trace;

use std::collections::BTreeMap;
use std::path::PathBuf;

use hyperap_arch::{ArchConfig, ExecMode, FaultConfig};

use report::Report;

/// Command-line arguments.
#[derive(Debug, Clone)]
pub struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    /// Internal: run one cold pass (in a child process).
    cold_pass: Option<u64>,
}

fn parse_args() -> Result<Args, String> {
    let mut a = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
        cold_pass: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let num = |v: &str| v.parse::<f64>().map_err(|e| format!("{flag} {v}: {e}"));
        match flag.as_str() {
            "--workload" => a.workload = value,
            "--seed" => a.seed = value.parse().map_err(|e| format!("--seed {value}: {e}"))?,
            "--seconds" => a.seconds = num(&value)?,
            "--trace" => a.trace = value == "1",
            "--cold-pass" => a.cold_pass = Some(num(&value)? as u64),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(a)
}

/// A fault-free, sequential machine of `groups` × 64 PEs of `rows` × 256
/// cells. Sequential so the engine's thread fan-out, which is decided by a
/// timing probe at start-up, cannot differ between runs.
pub fn machine_config(groups: usize, rows: usize) -> ArchConfig {
    let mut cfg = ArchConfig::paper_scaled(rows);
    cfg.groups = groups;
    cfg.exec = ExecMode::Sequential;
    cfg.faults = FaultConfig::default();
    cfg
}

/// One step of the splitmix64 generator all workload inputs come from.
pub fn splitmix(x: &mut u64) -> u64 {
    *x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *x;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// FNV-1a over bytes.
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// Where the drift sentinel keeps its files: under the cargo target
/// directory, which is ignored by git.
fn out_dir() -> PathBuf {
    let target = std::env::var_os("CARGO_TARGET_DIR").unwrap_or_else(|| ".bench_build".into());
    PathBuf::from(target).join("perfbench")
}

/// The git revision of the working directory, read from `.git` without
/// running git; "unknown" outside a repository.
fn git_revision() -> String {
    let head = std::fs::read_to_string(".git/HEAD").unwrap_or_default();
    let head = head.trim();
    let rev = match head.strip_prefix("ref: ") {
        Some(r) => std::fs::read_to_string(format!(".git/{r}"))
            .ok()
            .or_else(|| {
                let packed = std::fs::read_to_string(".git/packed-refs").ok()?;
                packed
                    .lines()
                    .find(|l| l.ends_with(r))
                    .map(|l| l[..l.find(' ').unwrap_or(0)].to_string())
            })
            .unwrap_or_default(),
        None => head.to_string(),
    };
    let rev = rev.trim();
    if rev.is_empty() {
        "unknown".into()
    } else {
        rev.chars().take(12).collect()
    }
}

/// The host shape a result came from: results from different shapes are
/// not comparable.
fn print_host(workload: &str) {
    let model = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("model name"))
                .map(|l| l.trim_start_matches([' ', '\t', ':']).to_string())
        })
        .unwrap_or_else(|| "unknown".into());
    let features: Vec<&str> = [
        ("sse4.2", cfg!(target_feature = "sse4.2")),
        ("avx2", cfg!(target_feature = "avx2")),
        ("popcnt", cfg!(target_feature = "popcnt")),
    ]
    .iter()
    .filter(|(_, on)| *on)
    .map(|(n, _)| *n)
    .collect();
    println!(
        "host: nproc {} physical_cores {} parallel_pays {} cpu \"{model}\" target {} [{}] \
         rev {} workload {workload}",
        hyperap_arch::par::logical_cpus(),
        hyperap_arch::par::physical_cores(),
        hyperap_arch::par::parallel_pays(),
        std::env::consts::ARCH,
        features.join(","),
        git_revision(),
    );
}

/// Compare this run's exact counts with an earlier run of the same binary,
/// workload and seed (kept under [`out_dir`]); any drift is a failure.
fn check_sentinel(args: &Args, report: &mut Report) {
    if report.sentinel.is_empty() {
        report.fail("no exact counts recorded".into());
        return;
    }
    let exe = std::env::current_exe()
        .ok()
        .and_then(|p| std::fs::read(p).ok())
        .map(|b| fnv1a(&b))
        .unwrap_or(0);
    let path = out_dir().join(format!(
        "counts-{exe:016x}-{}-{}.txt",
        args.workload, args.seed
    ));
    let now: String = report
        .sentinel
        .iter()
        .map(|(k, v)| format!("{k} {v}\n"))
        .collect();
    match std::fs::read_to_string(&path) {
        Ok(before) if before != now => {
            let old: BTreeMap<&str, &str> =
                before.lines().filter_map(|l| l.split_once(' ')).collect();
            let drift: Vec<String> = report
                .sentinel
                .iter()
                .filter(|(k, v)| old.get(k.as_str()) != Some(&v.to_string().as_str()))
                .map(|(k, v)| format!("{k}={v} (was {})", old.get(k.as_str()).unwrap_or(&"-")))
                .take(8)
                .collect();
            report.fail(format!(
                "exact counts drifted from the last run: {}",
                drift.join(", ")
            ));
        }
        Ok(_) => println!(
            "exact counts: {} keys match the last run",
            report.sentinel.len()
        ),
        Err(_) => {
            let written =
                std::fs::create_dir_all(out_dir()).and_then(|_| std::fs::write(&path, &now));
            if written.is_err() {
                println!("exact counts: could not record {}", path.display());
            } else {
                println!("exact counts: {} keys recorded", report.sentinel.len());
            }
        }
    }
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    if let Some(pass) = args.cold_pass {
        std::process::exit(kernels::cold_pass(&args, pass));
    }
    let mut report = Report::default();
    print_host(&args.workload);
    match args.workload.as_str() {
        "kernels_cold" => kernels::run_cold(&args, &mut report),
        "kernels_warm" => kernels::run_warm(&args, &mut report),
        "serve_open" => serve::run(&args, &mut report),
        "similarity_index" => similarity::run(&args, &mut report),
        other => {
            eprintln!("perfbench: unknown workload {other:?}");
            std::process::exit(2);
        }
    }
    check_sentinel(&args, &mut report);
    report.finish(args.trace);
}
