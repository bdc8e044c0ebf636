//! `darco-perf --workload NAME --seed N --seconds S --trace 0|1`
//!
//! Prints a metadata line, the simulated-statistics line, every metric
//! with its unit, any failed run, and as its last line one JSON object:
//! `{"correct": .., "attempted": .., "failed": .., "metrics": {..}}`.
//! `--trace 0` reports the end-to-end metrics, `--trace 1` the per-layer
//! ones. Exits 2 on a usage error.

use darco_perf::workload::Workload;
use darco_perf::{measure, Outcome};
use std::process::ExitCode;

const USAGE: &str = "usage: darco-perf --workload hot_native|timing_inorder|cold_sync \
                     --seed N --seconds S --trace 0|1";

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("bad value `{value}` for {flag}");
        match flag.as_str() {
            "--workload" => workload = Some(Workload::parse(value).ok_or_else(bad)?),
            "--seed" => seed = Some(value.parse().map_err(|_| bad())?),
            "--seconds" => {
                seconds = Some(
                    value
                        .parse::<f64>()
                        .ok()
                        .filter(|s| s.is_finite() && *s >= 0.0)
                        .ok_or_else(bad)?,
                )
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

/// The checked-out commit, when run from a git work tree.
fn commit() -> String {
    let head = std::fs::read_to_string(".git/HEAD").unwrap_or_default();
    let head = head.trim();
    let id = match head.strip_prefix("ref: ") {
        Some(r) => std::fs::read_to_string(format!(".git/{r}")).unwrap_or_default(),
        None => head.to_string(),
    };
    let id = id.trim();
    if id.is_empty() {
        "unknown".to_string()
    } else {
        id.to_string()
    }
}

fn print(o: &Outcome) {
    let cpus = std::thread::available_parallelism().map_or(0, |n| n.get());
    let cfg = o.workload.config();
    println!(
        "meta {{\"cpus\": {cpus}, \"commit\": \"{}\", \"workload\": \"{}\", \"seed\": {}, \"quantum\": {}, \
         \"validate_every\": {}, \"round_trips\": {}, \"backend_requested\": \"{}\", \"backend_effective\": \"{}\", \
         \"trace\": {}, \"programs\": {}, \"passes\": {}, \"traced_passes\": {}, \"step_samples\": {}, \
         \"step_tail_pct\": {:.2}}}",
        commit(),
        o.workload.name(),
        o.seed,
        o.workload.quantum(),
        cfg.validate_every.map_or("null".to_string(), |v| v.to_string()),
        o.workload.round_trips(),
        cfg.backend.as_str(),
        if o.native_ran { "native" } else { "emu" },
        o.traced,
        o.fingerprints.len(),
        o.passes,
        o.traced_passes,
        o.step_samples,
        o.tail_pct,
    );
    let s = &o.sim;
    println!(
        "sim {{\"guest_insns\": {}, \"im\": {}, \"bbm\": {}, \"sbm\": {}, \"host_app_insns\": {}, \
         \"tol_overhead_insns\": {}, \"timing_cycles\": {}, \"sync_validations\": {}, \"sync_pages_served\": {}, \
         \"sync_syscalls\": {}, \"repeatable\": {}, \"digest\": \"{:#018x}\"}}",
        s.guest_insns,
        s.im,
        s.bbm,
        s.sbm,
        s.host_app_insns,
        s.tol_overhead_insns,
        s.timing_cycles,
        s.validations,
        s.pages_served,
        s.syscalls,
        o.sim_repeatable,
        s.digest,
    );
    let mips: Vec<String> = o.pass_mips.iter().map(|m| format!("{m:.2}")).collect();
    println!("pass_mips [{}]", mips.join(", "));
    for m in &o.metrics {
        println!("  {:<26} {:>16.6} {}", m.name, m.value, m.unit);
    }
    for f in &o.failures {
        println!("FAILED {f}");
    }
    let metrics: Vec<String> = o
        .metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {:?}, \"unit\": \"{}\"}}",
                m.name, m.value, m.unit
            )
        })
        .collect();
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        o.correct(),
        o.attempted,
        o.failures.len(),
        metrics.join(", ")
    );
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("darco-perf: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let outcome = measure(args.workload, args.seed, args.seconds, args.trace, 1);
    print(&outcome);
    ExitCode::SUCCESS
}
