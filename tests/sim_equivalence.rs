//! Equivalence regression for the event-driven simulator core: on every
//! corpus block and on randomized dependency chains, the event engine
//! (`SimConfig::default()`) must produce *bit-identical* results to the
//! naive cycle-stepped reference engine (`SimConfig { reference: true }`).
//! This is the contract that lets `validate --json` stay byte-identical
//! across the engine rewrite.
//!
//! The MCA baseline carries the same contract: its scratch-buffer
//! simulation (`mca::predict`) must reproduce the allocation-heavy
//! reference loop (`mca::predict_reference`) bit for bit on every corpus
//! block and on the same generated kernels.

use proptest::prelude::*;

/// The observable fields of a [`exec::SimResult`], with floats as bits so
/// equality is exact. `early_exit_iter` is engine bookkeeping and is
/// deliberately excluded — it is the one field allowed to differ.
fn bits(r: exec::SimResult) -> (u64, u64, u64, bool) {
    (
        r.cycles_per_iter.to_bits(),
        r.total_cycles,
        r.uops_per_cycle.to_bits(),
        r.truncated,
    )
}

fn assert_engines_agree(m: &uarch::Machine, k: &isa::Kernel, cfg: exec::SimConfig, label: &str) {
    let event = exec::simulate(m, k, cfg);
    let reference = exec::simulate(
        m,
        k,
        exec::SimConfig {
            reference: true,
            ..cfg
        },
    );
    assert_eq!(
        bits(event),
        bits(reference),
        "{label} on {}: event {event:?} vs reference {reference:?}",
        m.arch.label()
    );
}

/// The observable fields of an [`mca::McaResult`], with floats as bits.
/// `early_exit_iter` is bookkeeping and is excluded, as for the simulator.
fn mca_bits(r: mca::McaResult) -> (u64, usize) {
    (r.cycles_per_iter.to_bits(), r.uops)
}

fn assert_mca_agrees(m: &uarch::Machine, k: &isa::Kernel, label: &str) {
    let fast = mca::predict(m, k);
    let reference = mca::predict_reference(m, k);
    assert_eq!(
        mca_bits(fast),
        mca_bits(reference),
        "mca {label} on {}: fast {fast:?} vs reference {reference:?}",
        m.arch.label()
    );
}

/// Every corpus variant on every machine through both MCA paths, at the
/// fixed iteration count the validation pipeline uses.
#[test]
fn corpus_mca_agrees_everywhere() {
    for m in uarch::all_machines() {
        for v in kernels::variants_for(m.arch) {
            let k = kernels::generate_kernel(&v, &m);
            assert_mca_agrees(&m, &k, &v.label());
        }
    }
}

/// Every corpus variant on every machine, with a reduced iteration count
/// so the naive engine stays affordable in debug builds. The full-length
/// default config is covered per-machine by `default_config_subset` below
/// and corpus-wide by the `oracle_ratios` bench (which asserts equivalence
/// on all 416 blocks at `SimConfig::default()`).
#[test]
fn corpus_engines_agree_everywhere() {
    let cfg = exec::SimConfig {
        iterations: 40,
        warmup: 10,
        ..Default::default()
    };
    for m in uarch::all_machines() {
        for v in kernels::variants_for(m.arch) {
            let k = kernels::generate_kernel(&v, &m);
            assert_engines_agree(&m, &k, cfg, &v.label());
        }
    }
}

/// A per-machine slice at the exact default config the validation
/// pipeline uses (200 iterations, 50 warm-up).
#[test]
fn default_config_subset() {
    for m in uarch::all_machines() {
        for v in kernels::variants_for(m.arch).iter().take(6) {
            let k = kernels::generate_kernel(v, &m);
            assert_engines_agree(&m, &k, exec::SimConfig::default(), &v.label());
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Random dependency chains: a handful of vector ops over random
    /// registers, so chains, fan-out, and port contention vary freely.
    /// `vdivpd` exercises occupancy > 1 (port blocking disables the
    /// steady-state extrapolation but not the event clock).
    #[test]
    fn random_dependency_chains_agree(
        ops in prop::collection::vec(
            (
                prop::sample::select(vec!["vaddpd", "vmulpd", "vfmadd231pd", "vdivpd", "vxorpd"]),
                0u8..8, 0u8..8, 0u8..8,
            ),
            1..10,
        ),
        iterations in 8usize..48,
    ) {
        let mut asm = String::new();
        for (op, r1, r2, r3) in &ops {
            asm.push_str(&format!("{op} %ymm{r1}, %ymm{r2}, %ymm{r3}\n"));
        }
        let k = isa::parse_kernel(&asm, isa::Isa::X86).unwrap();
        let cfg = exec::SimConfig {
            iterations,
            warmup: iterations / 4,
            ..Default::default()
        };
        for m in [uarch::Machine::golden_cove(), uarch::Machine::zen4()] {
            let fast = mca::predict(&m, &k);
            let slow = mca::predict_reference(&m, &k);
            prop_assert_eq!(mca_bits(fast), mca_bits(slow), "mca {} on:\n{}", m.arch.label(), asm);
            let event = exec::simulate(&m, &k, cfg);
            let reference = exec::simulate(
                &m,
                &k,
                exec::SimConfig { reference: true, ..cfg },
            );
            prop_assert_eq!(
                bits(event),
                bits(reference),
                "{} on:\n{}",
                m.arch.label(),
                asm
            );
        }
    }

    /// Load/store mixes on the aarch64 machine: stores complete on a
    /// different schedule (last µ-op + 1), which the event clock must
    /// reproduce exactly.
    #[test]
    fn random_memory_chains_agree_on_v2(
        n_pairs in 1usize..5,
        offset in prop::sample::select(vec![0u32, 8, 16, 64]),
    ) {
        let m = uarch::Machine::neoverse_v2();
        let mut asm = String::new();
        for i in 0..n_pairs {
            asm.push_str(&format!("ldr q{i}, [x1, #{offset}]\n"));
            asm.push_str(&format!("fadd v{i}.2d, v{i}.2d, v{}.2d\n", i + 8));
            asm.push_str(&format!("str q{i}, [x2, #{offset}]\n"));
        }
        let k = isa::parse_kernel(&asm, isa::Isa::AArch64).unwrap();
        let cfg = exec::SimConfig { iterations: 32, warmup: 8, ..Default::default() };
        let event = exec::simulate(&m, &k, cfg);
        let reference = exec::simulate(&m, &k, exec::SimConfig { reference: true, ..cfg });
        prop_assert_eq!(bits(event), bits(reference), "{}", asm);
        let fast = mca::predict(&m, &k);
        let slow = mca::predict_reference(&m, &k);
        prop_assert_eq!(mca_bits(fast), mca_bits(slow), "mca on:\n{}", asm);
    }
}
