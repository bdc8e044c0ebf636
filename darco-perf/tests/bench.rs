//! The benchmark's own tests, at a tiny size: every workload completes
//! and checks clean, the output check catches a wrong reference, the
//! layer attribution never exceeds step time, and the seed changes the
//! programs but not the metric names.

use darco::System;
use darco_guest::Gpr;
use darco_perf::check::{check_state, Reference};
use darco_perf::run::setup;
use darco_perf::workload::{Kernel, Prog, Workload};
use darco_perf::{measure, Outcome};

/// Divides every program's dynamic size.
const DEN: u32 = 32;

/// `DEN`, except that cold_sync keeps programs long enough for several
/// quanta, so its checkpoint round trips run.
fn den(wl: Workload) -> u32 {
    if wl == Workload::ColdSync {
        4
    } else {
        DEN
    }
}

fn metric(o: &Outcome, name: &str) -> f64 {
    o.metrics
        .iter()
        .find(|m| m.name == name)
        .unwrap_or_else(|| panic!("no metric {name}"))
        .value
}

#[test]
fn every_workload_completes_clean_and_attributes_within_step_time() {
    for wl in Workload::ALL {
        for traced in [false, true] {
            let o = measure(wl, 1, 0.0, traced, den(wl));
            assert!(o.attempted > 0, "{}: nothing ran", wl.name());
            assert!(o.failures.is_empty(), "{}: {:?}", wl.name(), o.failures);
            assert!(
                o.sim_repeatable,
                "{}: simulated statistics changed between passes",
                wl.name()
            );
            assert!(o.correct());
            assert!(
                o.sim.validations >= o.fingerprints.len() as u64,
                "{}: a run went unvalidated",
                wl.name()
            );
            if traced {
                assert!(metric(&o, "core.step_ms") > 0.0);
                let other = metric(&o, "core.other_ms");
                assert!(
                    other >= 0.0,
                    "{}: layers exceed step time by {} ms",
                    wl.name(),
                    -other
                );
            }
        }
    }
}

#[test]
fn workloads_run_their_intended_layers() {
    let hot = measure(Workload::HotNative, 3, 0.0, true, DEN);
    assert!(hot.native_ran);
    assert!(metric(&hot, "host.exec_ms") > 0.0);
    assert_eq!(metric(&hot, "timing.cycles"), 0.0);
    let timed = measure(Workload::TimingInorder, 3, 0.0, true, DEN);
    assert!(
        !timed.native_ran,
        "a timing sink falls back to the emulator"
    );
    assert!(metric(&timed, "timing.cycles") > 0.0);
    let cold = measure(Workload::ColdSync, 3, 0.0, true, den(Workload::ColdSync));
    assert!(cold.native_ran);
    assert!(
        metric(&cold, "core.snapshot_kb") > 0.0,
        "cold_sync takes checkpoint round trips"
    );
    assert!(metric(&cold, "core.restore_ms") > 0.0);
}

#[test]
fn output_check_flags_a_corrupted_kernel_reference() {
    let (mut bench, _) = setup(Workload::HotNative, 5, DEN);
    assert!(bench.pass(false).failures.is_empty());
    let corrupted = bench
        .expected_mut()
        .flatten()
        .next()
        .expect("the hot workload runs kernels");
    corrupted.words[0].1 ^= 1;
    let failures = bench.pass(false).failures;
    assert_eq!(failures.len(), 1, "{failures:?}");
    assert!(failures[0].contains("word at"), "{failures:?}");
}

#[test]
fn output_check_flags_a_corrupted_state_reference() {
    let prog = Prog {
        program: Kernel::Crc32(300).build(),
        kernel: Some(Kernel::Crc32(300)),
    };
    let cfg = Workload::HotNative.config();
    let mut engine = System::new(cfg.clone(), prog.program.clone()).start();
    while !engine.finished() {
        engine.step(10_000).expect("kernel runs clean");
    }
    let good = Reference::compute(&prog.program, cfg.max_guest_insns).expect("reference runs");
    let expected = prog.kernel.map(|k| k.expected());
    assert!(check_state(&good, expected.as_ref(), engine.machine()).is_empty());

    let mut bad_reg = good.clone();
    bad_reg
        .state
        .set_gpr(Gpr::Ebx, good.state.gpr(Gpr::Ebx) ^ 1);
    assert!(check_state(&bad_reg, None, engine.machine())
        .iter()
        .any(|m| m.contains("registers")));

    let mut bad_mem = good.clone();
    bad_mem.mem_digest ^= 1;
    assert!(check_state(&bad_mem, None, engine.machine())
        .iter()
        .any(|m| m.contains("memory digest")));

    let mut bad_count = good.clone();
    bad_count.insns += 1;
    assert!(check_state(&bad_count, None, engine.machine())
        .iter()
        .any(|m| m.contains("retired")));
}

#[test]
fn seeds_change_programs_not_metric_names() {
    for wl in Workload::ALL {
        for traced in [false, true] {
            let a = measure(wl, 1, 0.0, traced, den(wl));
            let b = measure(wl, 2, 0.0, traced, den(wl));
            let names = |o: &Outcome| {
                o.metrics
                    .iter()
                    .map(|m| (m.name, m.unit))
                    .collect::<Vec<_>>()
            };
            assert_eq!(names(&a), names(&b));
            assert_eq!(a.fingerprints.len(), b.fingerprints.len());
            // Kernel sizes may collide between two seeds; generated
            // programs may not.
            let differ = a
                .fingerprints
                .iter()
                .zip(&b.fingerprints)
                .filter(|(x, y)| x != y)
                .count();
            assert!(
                differ * 2 > a.fingerprints.len(),
                "{}: only {differ} programs depend on the seed",
                wl.name()
            );
        }
    }
}
