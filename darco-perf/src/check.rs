//! The output check, independent of the co-designed component: every
//! finished run is compared against a standalone authoritative-component
//! run of the same program, and every kernel against its hand-written Rust
//! reference.

use crate::workload::Kernel;
use darco::machine::Machine;
use darco::RunReport;
use darco_guest::program::DEFAULT_DATA_BASE;
use darco_guest::{GuestMem, GuestProgram, GuestState};
use darco_ir::codegen::SPILL_AREA_BASE;
use darco_workloads::kernels;
use darco_xcomp::XComponent;

/// Where the kernels keep their data (`darco_workloads::kernels` builds
/// every kernel on the default data base).
const DATA: u32 = DEFAULT_DATA_BASE;

/// The final state of a standalone [`XComponent`] run.
#[derive(Debug, Clone)]
pub struct Reference {
    /// Retired guest instructions.
    pub insns: u64,
    /// Exit status, when the program exited through a syscall.
    pub exit_status: Option<u32>,
    /// Captured guest stdout.
    pub output: Vec<u8>,
    /// Final architectural state, with the full memory image.
    pub state: GuestState,
    /// Digest of the non-zero pages of `state.mem`.
    pub mem_digest: u64,
}

impl Reference {
    /// Runs `program` on a fresh authoritative component to its end.
    ///
    /// # Errors
    /// The component's error when the program faults or runs past `max`
    /// instructions.
    pub fn compute(program: &GuestProgram, max: u64) -> Result<Reference, String> {
        let mut x = XComponent::new(program);
        x.run_to_end(max)
            .map_err(|e| format!("reference run: {e}"))?;
        let mem_digest = digest_all(&x.state.mem);
        Ok(Reference {
            insns: x.insns,
            exit_status: x.exit_status(),
            output: x.output,
            state: x.state,
            mem_digest,
        })
    }
}

/// Expected kernel results in guest memory.
#[derive(Debug, Clone, PartialEq)]
pub struct Expected {
    /// 32-bit words that must read exactly `(address, value)`.
    pub words: Vec<(u32, u32)>,
    /// f64 values `(address, value, absolute tolerance)`.
    pub floats: Vec<(u32, f64, f64)>,
}

impl Kernel {
    /// The kernel's result as the Rust references compute it.
    pub fn expected(self) -> Expected {
        let mut e = Expected {
            words: Vec::new(),
            floats: Vec::new(),
        };
        match self {
            Kernel::Crc32(n) => e.words.push((DATA + n + 16, kernels::crc32_expected(n))),
            Kernel::Quicksort(n) => {
                e.words = quicksort_keys(n)
                    .into_iter()
                    .zip(0..)
                    .map(|(v, i)| (DATA + 4 * i, v))
                    .collect();
            }
            Kernel::Dot(n) => e.floats.push((DATA, kernels::dot_product_expected(n), 0.0)),
            Kernel::Nbody(n, steps) => {
                // sin² + cos² = 1 per body-step, within the architectural
                // polynomial's error.
                let want = f64::from(n * steps);
                e.floats.push((DATA + 0x8000, want, want * 1e-6));
            }
            Kernel::Matmul(n) => {
                for i in 0..n {
                    for j in 0..n {
                        e.words.push((kernels::matmul_c_addr(n, i, j), 3 * (i + j)));
                    }
                }
            }
        }
        e
    }
}

/// The keys `kernels::quicksort` fills its array with (the same xorshift
/// sequence, stored from the top index down), sorted as unsigned words.
fn quicksort_keys(n: u32) -> Vec<u32> {
    let mut x: u32 = 0x1234_5677;
    let mut keys: Vec<u32> = (0..n)
        .map(|_| {
            x ^= x << 13;
            x ^= x >> 17;
            x
        })
        .collect();
    keys.sort_unstable();
    keys
}

/// FNV-1a over `bytes`, continuing from `h`.
pub(crate) fn fnv(mut h: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

pub(crate) const FNV_BASIS: u64 = 0xcbf2_9ce4_8422_2325;

/// Digest of every mapped page that holds a non-zero byte, in address
/// order. Zero pages are skipped: serving a data request maps one on the
/// authoritative side without changing what memory holds.
fn digest_all(mem: &GuestMem) -> u64 {
    mem.pages()
        .filter(|(_, data)| data.iter().any(|&b| b != 0))
        .fold(FNV_BASIS, |h, (num, data)| {
            fnv(fnv(h, &num.to_le_bytes()), data)
        })
}

/// Digests of the pages `held` maps, read from `held` and from `reference`
/// (an unmapped reference page reads as zeros). The translator's private
/// spill page is not guest memory and is left out.
fn digest_held(held: &GuestMem, reference: &GuestMem) -> (u64, u64) {
    let zeros = vec![0u8; darco_guest::mem::PAGE_SIZE as usize];
    let spill = GuestMem::page_of(SPILL_AREA_BASE);
    held.pages().filter(|&(num, _)| num != spill).fold(
        (FNV_BASIS, FNV_BASIS),
        |(a, b), (num, data)| {
            let want = reference.page(num).unwrap_or(&zeros);
            (
                fnv(fnv(a, &num.to_le_bytes()), data),
                fnv(fnv(b, &num.to_le_bytes()), want),
            )
        },
    )
}

/// Compares the finished machine's co-designed state against the
/// reference and the kernel's expected results. Returns every mismatch.
pub fn check_state(reference: &Reference, expected: Option<&Expected>, m: &Machine) -> Vec<String> {
    let mut bad = Vec::new();
    let (st, want) = (&m.state, &reference.state);
    if m.insns() != reference.insns {
        bad.push(format!(
            "retired {} guest instructions, reference {}",
            m.insns(),
            reference.insns
        ));
    }
    if let Some(d) = st.first_reg_mismatch(want, true) {
        bad.push(format!("final registers differ from the reference: {d}"));
    }
    let (got, exp) = digest_held(&st.mem, &want.mem);
    if got != exp {
        bad.push(format!(
            "co-designed memory digest {got:#018x}, reference {exp:#018x}"
        ));
    }
    let auth = digest_all(&m.xcomp.state.mem);
    if auth != reference.mem_digest {
        bad.push(format!(
            "authoritative memory digest {auth:#018x}, reference {:#018x}",
            reference.mem_digest
        ));
    }
    if let Some(e) = expected {
        for &(addr, v) in &e.words {
            match st.mem.read_u32(addr) {
                Ok(got) if got == v => {}
                got => bad.push(format!("word at {addr:#010x} is {got:?}, expected {v:#x}")),
            }
        }
        for &(addr, v, tol) in &e.floats {
            match st.mem.read_u64(addr).map(f64::from_bits) {
                Ok(got) if (got - v).abs() <= tol => {}
                got => bad.push(format!(
                    "f64 at {addr:#010x} is {got:?}, expected {v} ± {tol}"
                )),
            }
        }
    }
    bad
}

/// Compares the run's report against the reference. Every run must have
/// been validated at least once by the protocol itself.
pub fn check_report(reference: &Reference, r: &RunReport) -> Vec<String> {
    let mut bad = Vec::new();
    if r.guest_insns != reference.insns {
        bad.push(format!(
            "report counts {} guest instructions, reference {}",
            r.guest_insns, reference.insns
        ));
    }
    if r.exit_status != reference.exit_status {
        bad.push(format!(
            "exit status {:?}, reference {:?}",
            r.exit_status, reference.exit_status
        ));
    }
    if r.output != reference.output {
        bad.push(format!(
            "guest output ({} bytes) differs from the reference",
            r.output.len()
        ));
    }
    if let Some(f) = &r.guest_fault {
        bad.push(format!("guest fault: {f}"));
    }
    if r.validations == 0 {
        bad.push("no in-run validation".to_string());
    }
    bad
}
