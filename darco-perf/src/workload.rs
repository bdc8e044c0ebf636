//! The three workloads: which guest programs each runs, generated from the
//! workload seed, and under which system configuration.

use darco::{SinkChoice, SystemConfig};
use darco_guest::prng::{derive, Rng, SmallRng};
use darco_guest::GuestProgram;
use darco_host::codegen::Backend;
use darco_workloads::{benchmarks, kernels, BenchProfile};

/// A benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Hot SPEC-style loops and kernels on the native backend, validated
    /// only at syscalls and the end: xcomp catch-up and translated-code
    /// execution do the work.
    HotNative,
    /// The same kind of hot programs with the in-order timing model
    /// attached (`full` mode); the backend falls back to the emulator.
    TimingInorder,
    /// Low dynamic/static-ratio programs on the native backend with
    /// per-quantum validation and a checkpoint → bytes → restore round
    /// trip into a fresh engine at every quantum boundary (the fleet
    /// suspend/resume path).
    ColdSync,
}

/// Suite profiles drawn by the hot workloads, half SPECINT and half
/// SPECFP; the timing workload runs the first four. Their generator seeds
/// come from the workload seed; the mix is fixed so two seeds differ in
/// code, not in character, and eight programs keep the mix from hinging
/// on one of them.
const HOT_PROFILES: [&str; 8] = [
    "400.perlbench",
    "429.mcf",
    "434.zeusmp",
    "470.lbm",
    "401.bzip2",
    "464.h264ref",
    "433.milc",
    "444.namd",
];
/// How many of [`HOT_PROFILES`] the timing workload runs.
const TIMED_PROFILES: usize = 4;
/// The warm-dominated Physicsbench profiles the paper singles out.
const COLD_PROFILES: [&str; 3] = ["continuous", "periodic", "ragdoll"];
/// Seeded variants of the cold profiles with more warm functions and
/// cold blocks.
const COLD_VARIANTS: usize = 3;

/// A hand-written kernel together with its size, so its result can be
/// checked against the Rust reference.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Kernel {
    /// CRC-32 over `n` bytes.
    Crc32(u32),
    /// Quicksort of `n` keys.
    Quicksort(u32),
    /// Dot product of two `n`-element vectors.
    Dot(u32),
    /// `n` bodies over `steps` steps.
    Nbody(u32, u32),
    /// `n × n` integer matrix multiply.
    Matmul(u32),
}

impl Kernel {
    /// Builds the guest program.
    pub fn build(self) -> GuestProgram {
        match self {
            Kernel::Crc32(n) => kernels::crc32(n),
            Kernel::Quicksort(n) => kernels::quicksort(n),
            Kernel::Dot(n) => kernels::dot_product(n),
            Kernel::Nbody(n, steps) => kernels::nbody_step(n, steps),
            Kernel::Matmul(n) => kernels::matmul(n),
        }
    }
}

/// One guest program of a workload.
#[derive(Debug, Clone)]
pub struct Prog {
    /// The program.
    pub program: GuestProgram,
    /// The kernel it was built from, if any (enables the result check).
    pub kernel: Option<Kernel>,
}

/// What to generate before building: suite profiles and kernels. Kept
/// apart from building so set-up time covers exactly the builds.
#[derive(Debug, Clone)]
pub struct Recipe {
    profiles: Vec<BenchProfile>,
    kernels: Vec<Kernel>,
}

impl Recipe {
    /// Builds every program (`darco_workloads::build` plus the kernels).
    pub fn build(&self) -> Vec<Prog> {
        let mut out: Vec<Prog> = self
            .profiles
            .iter()
            .map(|p| Prog {
                program: darco_workloads::build(p),
                kernel: None,
            })
            .collect();
        out.extend(self.kernels.iter().map(|&k| Prog {
            program: k.build(),
            kernel: Some(k),
        }));
        out
    }
}

fn suite_profile(name: &str) -> BenchProfile {
    benchmarks()
        .into_iter()
        .find(|b| b.name == name)
        .map(|b| b.profile)
        .expect("profile names are taken from the suite")
}

/// `base` plus up to an eighth more, drawn from `rng`: kernel sizes vary
/// with the seed.
fn jitter(rng: &mut SmallRng, base: u32) -> u32 {
    base + rng.gen_range(0..base / 8 + 1)
}

/// `base` scaled by `1/den`, never below `floor`.
fn sized(base: u32, den: u32, floor: u32) -> u32 {
    (base / den).max(floor)
}

impl Workload {
    /// Every workload, in the order `BENCHMARK.json` lists them.
    pub const ALL: [Workload; 3] = [
        Workload::HotNative,
        Workload::TimingInorder,
        Workload::ColdSync,
    ];

    /// The name used on the command line and in `BENCHMARK.json`.
    pub fn name(self) -> &'static str {
        match self {
            Workload::HotNative => "hot_native",
            Workload::TimingInorder => "timing_inorder",
            Workload::ColdSync => "cold_sync",
        }
    }

    /// Parses a workload name.
    pub fn parse(s: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == s)
    }

    /// Guest instructions per `Engine::step` call.
    ///
    /// Each is sized so the 95th-percentile step falls inside one kind of
    /// step rather than between two, which keeps `step_p95_ms` steady
    /// across seeds: on `hot_native` about one step in seven is a
    /// program's final step, which carries its whole xcomp catch-up; on
    /// `timing_inorder` the few translation-heavy first steps stay under
    /// 5%; on `cold_sync` every step ends at a validation and a round
    /// trip, and at 12.5k a pass has about 310 steps, enough for a true
    /// 95th percentile (at 25k it fell to the 94th, on a step mix that
    /// moved 12% between seeds rather than 6%).
    pub fn quantum(self) -> u64 {
        match self {
            Workload::HotNative => 400_000,
            Workload::TimingInorder => 50_000,
            Workload::ColdSync => 12_500,
        }
    }

    /// Whether every quantum boundary takes a checkpoint round trip.
    pub fn round_trips(self) -> bool {
        self == Workload::ColdSync
    }

    /// The system configuration every program of the workload runs under.
    pub fn config(self) -> SystemConfig {
        let mut cfg = SystemConfig {
            backend: Backend::Native,
            ..SystemConfig::default()
        };
        match self {
            Workload::HotNative => {}
            Workload::TimingInorder => cfg.sink = SinkChoice::InOrder,
            Workload::ColdSync => cfg.validate_every = Some(self.quantum()),
        }
        cfg
    }

    /// The programs for `seed`. `den` divides every dynamic size (1 for
    /// the benchmark, larger for quick tests); the static shape of each
    /// program does not change with it.
    pub fn recipe(self, seed: u64, den: u32) -> Recipe {
        let mut rng = SmallRng::seed_from_u64(derive(seed, 0));
        let mut profiles = Vec::new();
        let mut kernels = Vec::new();
        match self {
            Workload::HotNative | Workload::TimingInorder => {
                // The timing model runs about 8x slower than native code, so
                // the timed workload runs half the programs at half the
                // length.
                let (names, scale) = match self {
                    Workload::HotNative => (&HOT_PROFILES[..], 4 * den),
                    _ => (&HOT_PROFILES[..TIMED_PROFILES], 8 * den),
                };
                for (i, name) in names.iter().enumerate() {
                    let mut p = suite_profile(name).scaled(1, scale);
                    p.seed = derive(seed, 1 + i as u64);
                    profiles.push(p);
                }
                let k = if self == Workload::HotNative {
                    den
                } else {
                    4 * den
                };
                kernels.push(Kernel::Crc32(sized(jitter(&mut rng, 30_000), k, 64)));
                kernels.push(Kernel::Quicksort(sized(jitter(&mut rng, 8_000), k, 16)));
                kernels.push(Kernel::Dot(sized(jitter(&mut rng, 3_600), k, 16)));
                kernels.push(Kernel::Nbody(16, sized(jitter(&mut rng, 1_600), k, 2)));
                kernels.push(Kernel::Matmul(sized(jitter(&mut rng, 40), k.min(4), 4)));
            }
            Workload::ColdSync => {
                for (i, name) in COLD_PROFILES.iter().enumerate() {
                    let mut p = suite_profile(name).scaled(1, den);
                    p.seed = derive(seed, 1 + i as u64);
                    profiles.push(p);
                }
                for v in 0..COLD_VARIANTS {
                    let mut p =
                        suite_profile(COLD_PROFILES[v % COLD_PROFILES.len()]).scaled(1, den);
                    p.name = format!("cold_variant_{v}");
                    p.seed = derive(seed, 16 + v as u64);
                    p.warm_funcs = 28 + rng.gen_range(0..8);
                    p.warm_iters = (p.warm_iters / 2).max(4);
                    p.cold_blocks = 48 + rng.gen_range(0..16);
                    profiles.push(p);
                }
                kernels.push(Kernel::Matmul(sized(jitter(&mut rng, 16), den.min(4), 4)));
            }
        }
        Recipe { profiles, kernels }
    }
}
