//! The repository's benchmark: one process, three workloads, std only.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <compile-large|kernel-sweep|serve-mix> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Inputs are generated from `--seed` with the `gis_workloads`
//! generators; the system under test only ever receives generated
//! source text. With `--trace 0` the run measures the end-to-end
//! metrics; with `--trace 1` it alternates untraced and traced passes
//! over a fixed input set and reports per-layer metrics. The last line
//! of standard output is one JSON object: `correct`, `attempted`,
//! `failed` and `metrics`. Any failure makes the exit code 1.

mod compile_large;
mod inproc;
mod kernel_sweep;
mod layers;
mod oracle;
mod report;
mod serve_mix;
mod trace;

use report::{median, Report};
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;

/// Command-line arguments.
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: u64,
    pub trace: bool,
}

const WORKLOADS: [&str; 3] = ["compile-large", "kernel-sweep", "serve-mix"];

const USAGE: &str =
    "usage: perfbench --workload <compile-large|kernel-sweep|serve-mix> --seed <n> --seconds <s> --trace <0|1>";

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10,
        trace: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|e| format!("{flag} {value}: {e}"))
        };
        match flag.as_str() {
            "--workload" => args.workload = value.clone(),
            "--seed" => args.seed = number()?,
            "--seconds" => args.seconds = number()?.max(1),
            "--trace" => args.trace = number()? != 0,
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    if !WORKLOADS.contains(&args.workload.as_str()) {
        return Err(format!("unknown workload {:?}", args.workload));
    }
    Ok(args)
}

/// A per-input seed derived from the run's seed (splitmix64 finalizer).
pub fn sub_seed(seed: u64, stream: u64) -> u64 {
    let mut z = seed
        .wrapping_mul(0x9E37_79B9_7F4A_7C15)
        .wrapping_add(stream.wrapping_add(1).wrapping_mul(0xBF58_476D_1CE4_E5B9));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// How many times a run repeats its set-up to report a median.
pub const SETUPS: usize = 7;

/// Runs `setup` [`SETUPS`] times and returns the median wall time in
/// seconds.
pub fn setup_median(mut setup: impl FnMut() -> Result<(), String>) -> Result<f64, String> {
    let mut times = Vec::with_capacity(SETUPS);
    for _ in 0..SETUPS {
        let t0 = Instant::now();
        setup()?;
        times.push(t0.elapsed().as_secs_f64());
    }
    Ok(median(&times))
}

/// Where runs leave their records: the exact-repeat gate's values and
/// the traced runs' spans.
pub fn runs_dir() -> PathBuf {
    PathBuf::from(".perfbench-runs")
}

/// FNV-64 of this executable, so records of another build never meet.
fn build_id() -> u64 {
    std::env::current_exe()
        .and_then(std::fs::read)
        .map_or(0, |bytes| gis_ir::hash::fnv64(&bytes))
}

/// The exact-repeat gate: the deterministic values of a run must equal
/// those an earlier run of the same build, workload, seed and mode
/// recorded. The first such run records them.
fn repeat_gate(args: &Args, r: &mut Report) {
    let record: String = r
        .deterministic
        .iter()
        .map(|(k, v)| format!("{k} {v}\n"))
        .collect();
    let path = runs_dir().join(format!(
        "{:016x}-{}-{}-{}.txt",
        build_id(),
        args.workload,
        args.seed,
        u8::from(args.trace)
    ));
    match std::fs::read_to_string(&path) {
        Ok(previous) if previous != record => {
            for (old, new) in previous.lines().zip(record.lines()) {
                if old != new {
                    r.fail(format!("exact-repeat gate: {old:?} before, {new:?} now"));
                }
            }
        }
        Ok(_) => {}
        Err(_) => {
            let _ =
                std::fs::create_dir_all(runs_dir()).and_then(|()| std::fs::write(&path, record));
        }
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let mut r = match args.workload.as_str() {
        "compile-large" => compile_large::run(&args),
        "kernel-sweep" => kernel_sweep::run(&args),
        _ => serve_mix::run(&args),
    };
    if r.failures.is_empty() {
        repeat_gate(&args, &mut r);
    }
    if let Some(spans) = &r.spans {
        let path = runs_dir().join(format!("spans-{}-{}.jsonl", args.workload, args.seed));
        let _ = std::fs::create_dir_all(runs_dir()).and_then(|()| std::fs::write(path, spans));
    }

    println!(
        "workload {} seed {} seconds {} trace {}",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    for m in r.metrics.iter().chain(&r.notes) {
        println!("  {:<28} {:>18.6} {}", m.name, m.value, m.unit);
    }
    println!(
        "  {:<28} {:>18.6} fraction ({} failed of {} attempted)",
        "fail_ratio",
        r.failures.len() as f64 / r.attempted.max(1) as f64,
        r.failures.len(),
        r.attempted.max(1)
    );
    for f in &r.failures {
        println!("  FAILED: {f}");
    }
    println!("{}", r.json());
    if r.failures.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
