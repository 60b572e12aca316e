//! Determinism regression tests: every `dsq-netsim` generator is
//! **byte-identical** for a fixed seed. The FNV-1a hash of each
//! generated matrix's exact `f64` bit patterns is pinned below. The
//! workspace vendors its RNG (`vendor/rand`, xoshiro256++ behind
//! `StdRng`), so any silent drift of that stream — an upgrade, a
//! refactor, an accidental reseed — breaks these constants loudly
//! instead of silently invalidating every checked-in experiment number.

use service_ordering::core::CommMatrix;
use service_ordering::netsim;
use service_ordering::workloads::{generate, Family};

/// The workspace's shared FNV-1a over the exact bit patterns of a
/// matrix, row-major.
fn matrix_fingerprint(comm: &CommMatrix) -> u64 {
    let mut h = service_ordering::core::Fnv1a::new();
    let n = comm.len();
    for i in 0..n {
        for j in 0..n {
            h.write_f64_bits(comm.get(i, j));
        }
    }
    h.finish()
}

/// The pinned constants: regenerate by printing `matrix_fingerprint` for
/// each generator below — but only after deliberately deciding the RNG
/// stream may change (it invalidates checked-in experiment numbers).
#[test]
fn netsim_generators_are_byte_identical_for_fixed_seeds() {
    let cases: [(&str, CommMatrix, u64); 5] = [
        ("euclidean", netsim::euclidean(8, 100.0, 0.5, 0.02, 42).into_comm(), 0x59DC5E2B3F224F15),
        ("clustered", netsim::clustered(9, 3, 0.2, 2.0, 0.15, 42).into_comm(), 0x7B696A929C6226E5),
        ("hub-spoke", netsim::hub_spoke(10, 2, 0.3, 1.1, 42).into_comm(), 0x909D2D50D0DCD01D),
        (
            "last-mile",
            netsim::last_mile(8, (0.1, 0.9), (0.05, 0.4), 42).into_comm(),
            0xDC0837F5350B785B,
        ),
        (
            "uniform-random",
            netsim::uniform_random(9, 0.1, 2.0, false, 42).into_comm(),
            0x8E82B320CB9DE226,
        ),
    ];
    let drifted: Vec<String> = cases
        .iter()
        .filter_map(|(name, comm, expected)| {
            let actual = matrix_fingerprint(comm);
            (actual != *expected)
                .then(|| format!("{name}: fingerprint 0x{actual:016X}, pinned 0x{expected:016X}"))
        })
        .collect();
    assert!(
        drifted.is_empty(),
        "generated matrices drifted — the vendored RNG stream or a generator changed:\n{}",
        drifted.join("\n")
    );
}

/// The workload families sit on top of the same RNG; pin their textual
/// form end to end (format_instance covers services, matrix, and name).
#[test]
fn workload_families_are_reproducible_end_to_end() {
    for family in Family::ALL {
        let a = service_ordering::core::format_instance(&generate(family, 7, 1234));
        let b = service_ordering::core::format_instance(&generate(family, 7, 1234));
        assert_eq!(a, b, "{} is not reproducible", family.name());
    }
}
