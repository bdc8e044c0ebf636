//! # darco-perf — the DARCO benchmark
//!
//! One single-threaded, closed-loop harness: it generates a workload's
//! guest programs from a seed, runs each back to back through
//! `System::start` → `Engine::step(quantum)` until it ends (translation and
//! modelled caches start empty every run), checks every run against an
//! independent reference, and reports end-to-end metrics (untraced) or
//! per-layer metrics (traced). See `README.md` for the metric definitions.

pub mod check;
pub mod run;
pub mod workload;

use run::{median, setup, Layers, Pass, SimStats};
use std::time::Instant;
use workload::Workload;

/// Fewest timed passes per invocation, whatever `--seconds` says.
pub const MIN_PASSES: usize = 3;

/// One reported metric.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub value: f64,
}

/// What one invocation measured.
#[derive(Debug, Clone)]
pub struct Outcome {
    pub workload: Workload,
    pub seed: u64,
    pub traced: bool,
    /// Program runs attempted and failed, over every pass.
    pub attempted: u64,
    pub failures: Vec<String>,
    /// Simulated statistics of the first pass.
    pub sim: SimStats,
    /// Whether every pass produced the same simulated statistics.
    pub sim_repeatable: bool,
    /// Whether any run executed native code (the effective backend).
    pub native_ran: bool,
    /// Timed passes (untraced and traced).
    pub passes: usize,
    pub traced_passes: usize,
    /// Steps per pass: each is one sample of the step metrics, the fastest
    /// of its repeats over the untraced timed passes.
    pub step_samples: usize,
    /// Percentile `step_p95_ms` reports (95, or lower when fewer than
    /// ten samples would lie beyond it).
    pub tail_pct: f64,
    /// Guest MIPS of each timed pass, in run order (untraced passes).
    pub pass_mips: Vec<f64>,
    /// Program fingerprints, in run order.
    pub fingerprints: Vec<u64>,
    pub metrics: Vec<Metric>,
}

impl Outcome {
    /// Whether every run passed its checks and the simulated statistics
    /// repeated exactly.
    pub fn correct(&self) -> bool {
        self.failures.is_empty() && self.sim_repeatable
    }
}

/// Peak resident memory of this process in MiB (`VmHWM`).
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// Nearest-rank percentile of sorted `v` at `q`, lowered until at least
/// ten samples lie beyond it. Returns the value and the percentile used.
fn tail(v: &[u64], q: f64) -> (u64, f64) {
    let n = v.len();
    if n == 0 {
        return (0, 0.0);
    }
    let idx = ((q * n as f64).ceil() as usize)
        .saturating_sub(1)
        .min(n.saturating_sub(11));
    (v[idx], (idx + 1) as f64 * 100.0 / n as f64)
}

/// Elementwise minimum over repeats of one sequence of deterministic work:
/// the fastest repeat of each piece.
fn fastest<'a>(mut reps: impl Iterator<Item = &'a [u64]>) -> Vec<u64> {
    let mut best = reps.next().map_or_else(Vec::new, <[u64]>::to_vec);
    for r in reps {
        for (b, &x) in best.iter_mut().zip(r) {
            *b = (*b).min(x);
        }
    }
    best
}

/// Runs `workload` at `seed` for about `seconds` of passes (at least
/// [`MIN_PASSES`] timed ones after a warm-up pass). `den` divides every
/// program's dynamic size: 1 for the benchmark, larger in tests.
pub fn measure(workload: Workload, seed: u64, seconds: f64, traced: bool, den: u32) -> Outcome {
    let (bench, first_setup) = setup(workload, seed, den);
    let mut setup_secs = vec![first_setup];
    // The warm-up pass pays the process's own first-touch costs; its runs
    // are checked and counted like every other.
    let warm = bench.pass(false);
    let start = Instant::now();
    let (mut plain, mut with_trace): (Vec<Pass>, Vec<Pass>) = (Vec::new(), Vec::new());
    loop {
        let enough = plain.len() >= MIN_PASSES && (!traced || with_trace.len() >= MIN_PASSES);
        if enough && start.elapsed().as_secs_f64() >= seconds {
            break;
        }
        // Set-up repeats between passes, so its median samples the host
        // across the whole run as the passes do.
        setup_secs.push(bench.time_setup());
        plain.push(bench.pass(false));
        if traced {
            with_trace.push(bench.pass(true));
        }
    }
    let all: Vec<&Pass> = std::iter::once(&warm)
        .chain(&plain)
        .chain(&with_trace)
        .collect();
    // Every pass repeats the same programs and the same steps exactly (the
    // simulated statistics prove it), so the fastest repeat of each is its
    // cost with the least interference from the host's other tenants,
    // which slow whole stretches of a run by up to 40%.
    let prog_ns = fastest(plain.iter().map(|p| &p.prog_ns[..]));
    let mut lat = fastest(plain.iter().map(|p| &p.step_lat[..]));
    lat.sort_unstable();
    let mut metrics = Vec::new();
    let (p95, tail_pct) = tail(&lat, 0.95);
    if traced {
        metrics = per_layer(&plain, &with_trace);
    } else {
        let (p50, _) = tail(&lat, 0.5);
        let timed_s = prog_ns.iter().sum::<u64>() as f64 / 1e9;
        metrics.push(Metric {
            name: "mips",
            unit: "MIPS",
            value: warm.sim.guest_insns as f64 / timed_s / 1e6,
        });
        metrics.push(Metric {
            name: "setup_s",
            unit: "s",
            value: median(&mut setup_secs),
        });
        metrics.push(Metric {
            name: "peak_rss_mb",
            unit: "MiB",
            value: peak_rss_mb().unwrap_or(0.0),
        });
        metrics.push(Metric {
            name: "step_p50_ms",
            unit: "ms",
            value: p50 as f64 / 1e6,
        });
        metrics.push(Metric {
            name: "step_p95_ms",
            unit: "ms",
            value: p95 as f64 / 1e6,
        });
    }
    Outcome {
        workload,
        seed,
        traced,
        attempted: all.iter().map(|p| p.runs).sum(),
        failures: all
            .iter()
            .flat_map(|p| p.failures.iter().cloned())
            .collect(),
        sim: warm.sim,
        sim_repeatable: all
            .iter()
            .all(|p| p.sim == warm.sim && p.step_lat.len() == warm.step_lat.len()),
        native_ran: all.iter().any(|p| p.native_ran),
        passes: plain.len() + with_trace.len(),
        traced_passes: with_trace.len(),
        step_samples: lat.len(),
        tail_pct,
        pass_mips: plain.iter().map(Pass::mips).collect(),
        fingerprints: bench.programs().map(|p| p.fingerprint()).collect(),
        metrics,
    }
}

/// The per-layer table: per-pass means over the traced passes, plus the
/// tracing overhead against the interleaved untraced passes (fastest
/// repeats on both sides, as for `mips`).
fn per_layer(plain: &[Pass], traced: &[Pass]) -> Vec<Metric> {
    let n = traced.len().max(1) as f64;
    let l = Layers::sum(traced.iter().filter_map(|p| p.layers.as_ref()));
    let c = traced.first().map(|p| p.counts).unwrap_or_default();
    let s = traced.first().map(|p| p.sim).unwrap_or_default();
    let ms = |ns: u64| ns as f64 / 1e6 / n;
    let ratio = |a: f64, b: f64| if b > 0.0 { a / b } else { 0.0 };
    let guest = s.guest_insns as f64;
    let busy = |passes: &[Pass]| {
        fastest(passes.iter().map(|p| &p.prog_ns[..]))
            .iter()
            .sum::<u64>() as f64
    };
    let (plain_ns, traced_ns) = (busy(plain), busy(traced));
    let metric = |name, unit, value| Metric { name, unit, value };
    vec![
        metric("xcomp.catchup_ms", "ms", ms(l.xcomp_ns)),
        metric(
            "xcomp.ns_per_insn",
            "ns",
            ratio(l.xcomp_ref_ns as f64, l.xcomp_ref_insns as f64),
        ),
        metric("xcomp.insns", "count", c.xcomp_insns as f64),
        metric("host.exec_ms", "ms", ms(l.exec_ns)),
        metric("host.jit_compile_ms", "ms", ms(l.compile_ns)),
        metric("host.app_insns", "count", s.host_app_insns as f64),
        metric(
            "host.sbm_emulation_cost",
            "hinsn/ginsn",
            ratio(c.sbm_cost_weighted, s.sbm as f64),
        ),
        metric(
            "host.rollback_ratio",
            "ratio",
            ratio(c.chkpt_fails as f64, c.chkpts as f64),
        ),
        metric(
            "host.jit_code_kb",
            "KiB",
            l.jit_code_bytes as f64 / 1024.0 / n,
        ),
        metric("host.slow_mem_exits", "count", l.slow_mem_exits as f64 / n),
        metric("tol.translate_ms", "ms", ms(l.translate_ns)),
        metric("tol.guest_im", "count", s.im as f64),
        metric("tol.guest_bbm", "count", s.bbm as f64),
        metric("tol.guest_sbm", "count", s.sbm as f64),
        metric("tol.sbm_frac", "ratio", ratio(s.sbm as f64, guest)),
        metric("tol.translations_bb", "count", c.translations_bb as f64),
        metric("tol.translations_sb", "count", c.translations_sb as f64),
        metric(
            "tol.sb_recreate_ratio",
            "ratio",
            ratio(c.recreations as f64, c.translations_sb as f64),
        ),
        metric("tol.spec_rollbacks", "count", c.spec_rollbacks as f64),
        metric("tol.interp_blocks", "count", c.interp_blocks as f64),
        metric(
            "tol.overhead_frac",
            "ratio",
            ratio(
                s.tol_overhead_insns as f64,
                (s.tol_overhead_insns + s.host_app_insns) as f64,
            ),
        ),
        metric(
            "tol.ibtc_hit_ratio",
            "ratio",
            ratio(c.ibtc_hits as f64, (c.ibtc_hits + c.ibtc_misses) as f64),
        ),
        metric("ir.verify_ms", "ms", ms(l.verify_ns)),
        metric("ir.verify_regions", "count", c.verify_regions as f64),
        metric("timing.model_ms", "ms", l.timing_model_ns as f64 / 1e6 / n),
        metric("timing.cycles", "count", s.timing_cycles as f64),
        metric(
            "timing.cpi",
            "cyc/insn",
            ratio(s.timing_cycles as f64, c.timing_insns as f64),
        ),
        metric(
            "timing.dl1_mpki",
            "1/kinsn",
            ratio(1e3 * c.dl1_misses as f64, c.timing_insns as f64),
        ),
        metric(
            "timing.br_mpki",
            "1/kinsn",
            ratio(1e3 * c.mispredicts as f64, c.timing_insns as f64),
        ),
        metric("core.step_ms", "ms", ms(l.step_ns)),
        metric("core.steps", "count", l.steps as f64 / n),
        metric("core.checkpoint_ms", "ms", ms(l.checkpoint_ns)),
        metric("core.restore_ms", "ms", ms(l.restore_ns)),
        metric(
            "core.snapshot_kb",
            "KiB",
            ratio(l.snapshot_bytes as f64 / 1024.0, l.round_trips as f64),
        ),
        metric("core.start_ms", "ms", ms(l.start_ns)),
        metric("core.other_ms", "ms", l.other_ns() as f64 / 1e6 / n),
        metric("sync.validations", "count", s.validations as f64),
        metric("sync.pages_served", "count", s.pages_served as f64),
        metric("sync.syscalls", "count", s.syscalls as f64),
        metric("workloads.build_ms", "ms", ms(l.build_ns)),
        metric("obs.report_ms", "ms", ms(l.report_ns)),
        metric(
            "trace.overhead_pct",
            "%",
            100.0 * ratio(traced_ns - plain_ns, plain_ns),
        ),
    ]
}

#[cfg(test)]
mod tests {
    use super::{fastest, tail};

    #[test]
    fn fastest_takes_each_piece_from_its_quickest_repeat() {
        let reps: [&[u64]; 3] = [&[5, 9, 4], &[6, 2, 8], &[7, 3, 1]];
        assert_eq!(fastest(reps.into_iter()), vec![5, 2, 1]);
        assert!(fastest(std::iter::empty()).is_empty());
    }

    #[test]
    fn tail_keeps_ten_samples_beyond_the_percentile() {
        let v: Vec<u64> = (1..=1000).collect();
        assert_eq!(tail(&v, 0.95), (950, 95.0));
        let v: Vec<u64> = (1..=100).collect();
        assert_eq!(
            tail(&v, 0.95),
            (90, 90.0),
            "p95 of 100 samples has only 5 beyond it"
        );
        assert_eq!(tail(&v, 0.5), (50, 50.0));
    }
}
