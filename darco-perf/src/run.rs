//! Driving programs through `System::start` → `Engine::step` and timing
//! the calls the benchmark makes into each layer.
//!
//! Nothing here reaches inside the simulator: the traced path reads the
//! wall-clock counters the program already exports (`sync.xcomp_nanos`,
//! `tol.translate_nanos`, `tol.verify_nanos`, `jit.exec_nanos`,
//! `jit.compile_nanos`) before and after each `Engine::step`, and times
//! its own calls to `System::start`, `Engine::checkpoint`,
//! `Snapshot::from_bytes` + `Engine::restore`, `Engine::into_report`,
//! `darco_workloads::build` and a standalone `XComponent` run.

use crate::check::{check_report, check_state, fnv, Expected, Reference, FNV_BASIS};
use crate::workload::{Prog, Recipe, Workload};
use darco::{DarcoError, Engine, RunReport, SinkChoice, Snapshot, StepExit, System, SystemConfig};
use darco_host::codegen::Backend;
use std::time::Instant;

fn ns_since(t: Instant) -> u64 {
    t.elapsed().as_nanos() as u64
}

/// Host time and work per layer, summed over the traced program runs of
/// one pass. Times are nanoseconds of host wall clock.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Layers {
    /// `Engine::step` calls and their total time.
    pub steps: u64,
    pub step_ns: u64,
    /// Authoritative catch-up inside the steps (`sync.xcomp_nanos`).
    pub xcomp_ns: u64,
    /// BB/SB translation inside the steps, verification included
    /// (`tol.translate_nanos`).
    pub translate_ns: u64,
    /// Verification, a part of `translate_ns` (`tol.verify_nanos`).
    pub verify_ns: u64,
    /// Native execution, compilation included (`jit.exec_nanos`).
    pub exec_ns: u64,
    /// JIT compilation, a part of `exec_ns` (`jit.compile_nanos`).
    pub compile_ns: u64,
    /// Machine code emitted and slow-path memory exits of the JIT.
    pub jit_code_bytes: u64,
    pub slow_mem_exits: u64,
    /// `System::new(..).start()` calls, fresh engines for restores
    /// included.
    pub start_ns: u64,
    /// Checkpoint round trips: `Engine::checkpoint` + serialization, and
    /// `Snapshot::from_bytes` + `Engine::restore`.
    pub round_trips: u64,
    pub checkpoint_ns: u64,
    pub restore_ns: u64,
    pub snapshot_bytes: u64,
    /// `Engine::into_report`.
    pub report_ns: u64,
    /// `darco_workloads::build` of the whole program set.
    pub build_ns: u64,
    /// Standalone `XComponent::new` + `run_to_end` runs and their
    /// retired instructions.
    pub xcomp_ref_ns: u64,
    pub xcomp_ref_insns: u64,
    /// Host time with the timing sink minus the same program without it
    /// on the emulator (timing workloads only).
    pub timing_model_ns: i64,
}

impl Layers {
    /// Step time no counter attributes: interpretation, dispatch,
    /// validation, the sink, and catch-up the counters do not cover.
    /// Verification nests inside translation and compilation inside
    /// execution, so the attributed layers are xcomp + translate + exec.
    pub fn other_ns(&self) -> i64 {
        self.step_ns as i64 - (self.xcomp_ns + self.translate_ns + self.exec_ns) as i64
    }

    fn add(&mut self, o: &Layers) {
        self.steps += o.steps;
        self.step_ns += o.step_ns;
        self.xcomp_ns += o.xcomp_ns;
        self.translate_ns += o.translate_ns;
        self.verify_ns += o.verify_ns;
        self.exec_ns += o.exec_ns;
        self.compile_ns += o.compile_ns;
        self.jit_code_bytes += o.jit_code_bytes;
        self.slow_mem_exits += o.slow_mem_exits;
        self.start_ns += o.start_ns;
        self.round_trips += o.round_trips;
        self.checkpoint_ns += o.checkpoint_ns;
        self.restore_ns += o.restore_ns;
        self.snapshot_bytes += o.snapshot_bytes;
        self.report_ns += o.report_ns;
        self.build_ns += o.build_ns;
        self.xcomp_ref_ns += o.xcomp_ref_ns;
        self.xcomp_ref_insns += o.xcomp_ref_insns;
        self.timing_model_ns += o.timing_model_ns;
    }

    /// Sum over passes.
    pub fn sum<'a>(all: impl IntoIterator<Item = &'a Layers>) -> Layers {
        let mut s = Layers::default();
        for l in all {
            s.add(l);
        }
        s
    }
}

/// The exported wall-clock and JIT counters, read between steps.
#[derive(Clone, Copy)]
struct Counters([u64; 7]);

impl Counters {
    fn read(e: &Engine) -> Counters {
        let m = e.machine();
        let j = m.tol.jit_stats().unwrap_or_default();
        Counters([
            m.xcomp_nanos,
            m.tol.stats.translate_nanos,
            m.tol.stats.verify_nanos,
            j.exec_nanos,
            j.compile_nanos,
            j.code_bytes_emitted,
            j.slow_mem_exits,
        ])
    }

    fn charge(self, after: Counters, l: &mut Layers) {
        let d: [u64; 7] = std::array::from_fn(|i| after.0[i] - self.0[i]);
        l.xcomp_ns += d[0];
        l.translate_ns += d[1];
        l.verify_ns += d[2];
        l.exec_ns += d[3];
        l.compile_ns += d[4];
        l.jit_code_bytes += d[5];
        l.slow_mem_exits += d[6];
    }
}

/// Simulated statistics of one pass: deterministic counts that a pure
/// speed change must leave unchanged.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SimStats {
    pub guest_insns: u64,
    pub im: u64,
    pub bbm: u64,
    pub sbm: u64,
    pub host_app_insns: u64,
    pub tol_overhead_insns: u64,
    pub timing_cycles: u64,
    pub validations: u64,
    pub pages_served: u64,
    pub syscalls: u64,
    /// FNV-1a over every program's counts, in program order.
    pub digest: u64,
}

impl SimStats {
    fn new() -> SimStats {
        SimStats {
            digest: FNV_BASIS,
            ..SimStats::default()
        }
    }

    fn add(&mut self, r: &RunReport) {
        let fields = [
            r.guest_insns,
            r.mode_insns.0,
            r.mode_insns.1,
            r.mode_insns.2,
            r.host_app_insns,
            r.overhead.total(),
            r.timing.map_or(0, |t| t.cycles),
            r.validations,
            r.pages_served,
            r.syscalls,
        ];
        self.guest_insns += fields[0];
        self.im += fields[1];
        self.bbm += fields[2];
        self.sbm += fields[3];
        self.host_app_insns += fields[4];
        self.tol_overhead_insns += fields[5];
        self.timing_cycles += fields[6];
        self.validations += fields[7];
        self.pages_served += fields[8];
        self.syscalls += fields[9];
        for f in fields {
            self.digest = fnv(self.digest, &f.to_le_bytes());
        }
    }
}

/// Simulated counts the per-layer table derives ratios from, summed over
/// the programs of one pass.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Counts {
    pub xcomp_insns: u64,
    pub translations_bb: u64,
    pub translations_sb: u64,
    pub recreations: u64,
    pub spec_rollbacks: u64,
    pub interp_blocks: u64,
    pub verify_regions: u64,
    pub chkpts: u64,
    pub chkpt_fails: u64,
    pub ibtc_hits: u64,
    pub ibtc_misses: u64,
    /// SBM host instructions per SBM guest instruction, weighted by SBM
    /// guest instructions (numerator of the Fig. 5 ratio).
    pub sbm_cost_weighted: f64,
    pub timing_insns: u64,
    pub dl1_misses: u64,
    pub mispredicts: u64,
}

impl Counts {
    fn add(&mut self, r: &RunReport) {
        let c = |n: &str| r.metrics.counter_value(n).unwrap_or(0);
        self.xcomp_insns += c("xcomp.insns");
        self.translations_bb += r.tol_stats.translations_bb;
        self.translations_sb += r.tol_stats.translations_sb;
        self.recreations += r.tol_stats.recreations;
        self.spec_rollbacks += r.tol_stats.spec_rollbacks;
        self.interp_blocks += r.tol_stats.interp_blocks;
        self.verify_regions += r.tol_stats.verify_regions;
        self.chkpts += c("emu.chkpts");
        self.chkpt_fails += c("emu.assert_fails") + c("emu.alias_fails");
        self.ibtc_hits += c("emu.ibtc_hits");
        self.ibtc_misses += c("emu.ibtc_misses");
        self.sbm_cost_weighted += r.sbm_emulation_cost * r.mode_insns.2 as f64;
        if let Some(t) = r.timing {
            self.timing_insns += t.insns;
            self.dl1_misses += t.dl1_misses;
            self.mispredicts += t.mispredicts;
        }
    }
}

/// The outcome of one pass over every program of the workload.
#[derive(Debug, Clone, Default)]
pub struct Pass {
    /// Host nanoseconds of each program's timed section, in run order:
    /// `System::start` through `Engine::into_report`; output checks and
    /// reference runs excluded.
    pub prog_ns: Vec<u64>,
    /// Host nanoseconds of every `Engine::step` call, in run order.
    pub step_lat: Vec<u64>,
    /// Program runs attempted.
    pub runs: u64,
    /// One message per failed run (an error or a failed check).
    pub failures: Vec<String>,
    pub sim: SimStats,
    pub counts: Counts,
    /// Per-layer times (traced passes only).
    pub layers: Option<Layers>,
    /// Whether any run executed native code.
    pub native_ran: bool,
}

impl Pass {
    /// Guest MIPS over the timed section.
    pub fn mips(&self) -> f64 {
        let ns: u64 = self.prog_ns.iter().sum();
        self.sim.guest_insns as f64 / (ns as f64 / 1e9) / 1e6
    }
}

/// A program and what its output is checked against.
struct Case {
    prog: Prog,
    reference: Result<Reference, String>,
    expected: Option<Expected>,
}

/// A workload's built programs and references, ready to run passes.
pub struct Bench {
    workload: Workload,
    cfg: SystemConfig,
    recipe: Recipe,
    cases: Vec<Case>,
}

/// Steps one program from `System::start` to its end. Returns the
/// finished engine and the host nanoseconds of the timed section.
fn drive(
    cfg: &SystemConfig,
    prog: &Prog,
    quantum: u64,
    round_trips: bool,
    lat: &mut Vec<u64>,
    mut layers: Option<&mut Layers>,
) -> Result<(Engine, u64), DarcoError> {
    let t0 = Instant::now();
    let mut engine = System::new(cfg.clone(), prog.program.clone()).start();
    if let Some(l) = layers.as_deref_mut() {
        l.start_ns += ns_since(t0);
    }
    loop {
        let before = layers.is_some().then(|| Counters::read(&engine));
        let t = Instant::now();
        let exit = engine.step(quantum)?;
        let ns = ns_since(t);
        lat.push(ns);
        if let (Some(l), Some(before)) = (layers.as_deref_mut(), before) {
            l.steps += 1;
            l.step_ns += ns;
            before.charge(Counters::read(&engine), l);
        }
        match exit {
            StepExit::Ended | StepExit::GuestFault => break,
            StepExit::Yielded | StepExit::ValidationDue if round_trips => {
                engine = round_trip(engine, cfg, prog, layers.as_deref_mut())?;
            }
            StepExit::Yielded | StepExit::ValidationDue => {}
        }
    }
    Ok((engine, ns_since(t0)))
}

/// Suspends `engine` to bytes and resumes it in a fresh engine.
fn round_trip(
    mut engine: Engine,
    cfg: &SystemConfig,
    prog: &Prog,
    layers: Option<&mut Layers>,
) -> Result<Engine, DarcoError> {
    let t0 = Instant::now();
    let bytes = engine.checkpoint()?.into_bytes();
    drop(engine);
    let t1 = Instant::now();
    let mut fresh = System::new(cfg.clone(), prog.program.clone()).start();
    let t2 = Instant::now();
    let len = bytes.len() as u64;
    fresh.restore(&Snapshot::from_bytes(bytes)?)?;
    if let Some(l) = layers {
        l.round_trips += 1;
        l.checkpoint_ns += (t1 - t0).as_nanos() as u64;
        l.start_ns += (t2 - t1).as_nanos() as u64;
        l.restore_ns += ns_since(t2);
        l.snapshot_bytes += len;
    }
    Ok(fresh)
}

/// Median of `v` (sorted in place); 0 when empty.
pub fn median(v: &mut [f64]) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Starts (and drops) a system on each program.
fn start_all(cfg: &SystemConfig, progs: &[Prog]) {
    for p in progs {
        drop(System::new(cfg.clone(), p.program.clone()).start());
    }
}

/// Builds the workload's programs, starts a system on each, and computes
/// every reference. Returns the bench and the host seconds of the build
/// and starts (the references are not set-up cost).
pub fn setup(workload: Workload, seed: u64, den: u32) -> (Bench, f64) {
    let recipe = workload.recipe(seed, den);
    let cfg = workload.config();
    let t = Instant::now();
    let progs = recipe.build();
    start_all(&cfg, &progs);
    let secs = t.elapsed().as_secs_f64();
    let cases = progs
        .into_iter()
        .map(|prog| Case {
            reference: Reference::compute(&prog.program, cfg.max_guest_insns),
            expected: prog.kernel.map(|k| k.expected()),
            prog,
        })
        .collect();
    (
        Bench {
            workload,
            cfg,
            recipe,
            cases,
        },
        secs,
    )
}

impl Bench {
    /// Repeats the set-up work of [`setup`]: builds every program and
    /// starts a system on each. Returns the host seconds.
    pub fn time_setup(&self) -> f64 {
        let t = Instant::now();
        start_all(&self.cfg, &self.recipe.build());
        t.elapsed().as_secs_f64()
    }

    /// The programs, in run order.
    pub fn programs(&self) -> impl Iterator<Item = &darco_guest::GuestProgram> {
        self.cases.iter().map(|c| &c.prog.program)
    }

    /// Replaces the expected kernel results (lets tests plant a wrong
    /// reference value).
    pub fn expected_mut(&mut self) -> impl Iterator<Item = &mut Option<Expected>> {
        self.cases.iter_mut().map(|c| &mut c.expected)
    }

    /// Runs every program once. With `traced`, the pass also fills
    /// [`Pass::layers`], which costs extra untimed runs (a standalone
    /// reference run per program, and a sink-less emulator run per program
    /// on timing workloads).
    pub fn pass(&self, traced: bool) -> Pass {
        let wl = self.workload;
        let mut pass = Pass {
            sim: SimStats::new(),
            ..Pass::default()
        };
        let mut layers = traced.then(Layers::default);
        let mut timed = Vec::with_capacity(self.cases.len());
        for case in &self.cases {
            pass.runs += 1;
            let name = &case.prog.program.name;
            let reference = match &case.reference {
                Ok(r) => r,
                Err(e) => {
                    pass.failures.push(format!("{name}: {e}"));
                    continue;
                }
            };
            let (engine, mut ns) = match drive(
                &self.cfg,
                &case.prog,
                wl.quantum(),
                wl.round_trips(),
                &mut pass.step_lat,
                layers.as_mut(),
            ) {
                Ok(done) => done,
                Err(e) => {
                    pass.failures.push(format!("{name}: {e}"));
                    continue;
                }
            };
            let mut bad = check_state(reference, case.expected.as_ref(), engine.machine());
            pass.native_ran |= engine
                .machine()
                .tol
                .jit_stats()
                .is_some_and(|j| j.enters > 0);
            let t = Instant::now();
            let report = engine.into_report();
            let report_ns = ns_since(t);
            ns += report_ns;
            bad.extend(check_report(reference, &report));
            if !bad.is_empty() {
                pass.failures.push(format!("{name}: {}", bad.join("; ")));
            }
            pass.prog_ns.push(ns);
            pass.sim.add(&report);
            pass.counts.add(&report);
            timed.push((case, ns));
            if let Some(l) = layers.as_mut() {
                l.report_ns += report_ns;
            }
        }
        // Side runs come after every timed run, so they cannot disturb
        // the timed section's caches.
        if let Some(l) = layers.as_mut() {
            for (case, ns) in timed {
                self.trace_extras(case, ns, l);
            }
            let t = Instant::now();
            std::hint::black_box(self.recipe.build());
            l.build_ns += ns_since(t);
        }
        pass.layers = layers;
        pass
    }

    /// Untimed side runs of a traced pass: the standalone authoritative
    /// run, and on timing workloads the same program without the sink on
    /// the emulator, paired with the timed run (`timed_ns`).
    fn trace_extras(&self, case: &Case, timed_ns: u64, l: &mut Layers) {
        let t = Instant::now();
        if let Ok(r) = Reference::compute(&case.prog.program, self.cfg.max_guest_insns) {
            l.xcomp_ref_ns += ns_since(t);
            l.xcomp_ref_insns += r.insns;
        }
        if self.cfg.sink != SinkChoice::None {
            let cfg = SystemConfig {
                sink: SinkChoice::None,
                backend: Backend::Emu,
                ..self.cfg.clone()
            };
            let mut scratch = Layers::default();
            if let Ok((engine, ns)) = drive(
                &cfg,
                &case.prog,
                self.workload.quantum(),
                false,
                &mut Vec::new(),
                Some(&mut scratch),
            ) {
                let t = Instant::now();
                drop(engine.into_report());
                l.timing_model_ns += timed_ns as i64 - (ns + ns_since(t)) as i64;
            }
        }
    }
}
