//! `perfbench` — the layered benchmark of the UNIT serving and compile
//! stack.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <kernel-heavy|model-forward|zoo-compile> \
//!     --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! `--trace 0` runs the workload untraced and reports its end-to-end
//! metrics; `--trace 1` runs the per-layer ladder instead (see
//! `ladder.rs`). Every output is checked against an oracle outside the
//! timed regions. The last stdout line is one JSON object
//! (`correct`, `attempted`, `failed`, `metrics`); the full record with
//! provenance is written to `perfbench/out/`. See `perfbench/README.md`.

mod floor;
mod ladder;
mod oracle;
mod report;
mod stack;
mod workloads;

use std::process::ExitCode;

use report::{record_json, summary_line, Provenance};
use workloads::Opts;

const WORKLOADS: [&str; 3] = ["kernel-heavy", "model-forward", "zoo-compile"];

/// Variables the engine reads at construction: an inherited one would
/// silently benchmark the tree-walk interpreter or tracing-on.
const FORBIDDEN_ENV: [&str; 2] = ["UNIT_SERVE_EXEC", "UNIT_SERVE_TRACE"];

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" if WORKLOADS.contains(&value.as_str()) => workload = Some(value),
            "--workload" => {
                return Err(format!("unknown workload `{value}` (one of {WORKLOADS:?})"))
            }
            "--seed" => seed = Some(value.parse().map_err(|e| format!("bad --seed: {e}"))?),
            "--seconds" => {
                let s: u64 = value.parse().map_err(|e| format!("bad --seconds: {e}"))?;
                if s == 0 {
                    return Err("--seconds must be positive".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not `{value}`")),
                });
            }
            other => return Err(format!("unknown flag `{other}`")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("missing --workload")?,
        seed: seed.ok_or("missing --seed")?,
        seconds: seconds.ok_or("missing --seconds")?,
        trace: trace.unwrap_or(false),
    })
}

fn main() -> ExitCode {
    if let Some(var) = FORBIDDEN_ENV.iter().find(|v| std::env::var_os(v).is_some()) {
        eprintln!("perfbench: refusing to run with {var} set; unset it first");
        return ExitCode::from(2);
    }
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let prov = Provenance::collect();
    println!(
        "perfbench workload={} seed={} seconds={} trace={} git_sha={} nproc={} cpu=\"{}\" rustc=\"{}\"",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        prov.git_sha,
        prov.nproc,
        prov.cpu_model,
        prov.rustc
    );
    let opts = Opts {
        seed: args.seed,
        seconds: args.seconds as f64,
    };
    let result = if args.trace {
        ladder::run(&args.workload, &opts)
    } else {
        match args.workload.as_str() {
            "kernel-heavy" => workloads::kernel_heavy(&opts),
            "model-forward" => workloads::model_forward(&opts),
            _ => workloads::zoo_compile(&opts),
        }
    };

    for phase in &result.phases {
        println!(
            "phase {:<8} attempted {:>6} succeeded {:>6} failed {:>4}",
            phase.name,
            phase.attempted,
            phase.attempted - phase.failed.min(phase.attempted),
            phase.failed
        );
    }
    for (key, value) in &result.notes {
        println!("note {key} = {value}");
    }
    for m in &result.metrics {
        println!("metric {:<32} {:>16} {}", m.name, m.value, m.unit);
    }
    for what in result.mismatches.iter().take(10) {
        println!("MISMATCH {what}");
    }
    let record = record_json(
        &result,
        &prov,
        &args.workload,
        args.seed,
        args.seconds,
        args.trace,
    );
    let path = workloads::scratch_dir().join(format!(
        "result-{}-seed{}-trace{}.json",
        args.workload,
        args.seed,
        u8::from(args.trace)
    ));
    if let Err(e) = std::fs::write(&path, record) {
        eprintln!("perfbench: could not write {}: {e}", path.display());
    }
    println!("{}", summary_line(&result));
    if result.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
