//! Per-kernel data volumes and flop counts (per scalar loop iteration),
//! used by the ECM/Roofline models and the bandwidth benchmarks — plus
//! the volume corpus source ([`VolumeBlock`] / [`volume_blocks`]) that
//! scales the generator personalities past the fixed validation grid for
//! throughput work (`validate --volume`, the pipeline benchmark).

use crate::{variants_for, Arch, StreamKernel, Variant};
use uarch::Machine;

/// Data traffic and work of one scalar iteration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Volume {
    /// Bytes loaded from the arrays (without cache reuse).
    pub load_bytes: u32,
    /// Bytes stored.
    pub store_bytes: u32,
    /// Whether the stored lines are fully overwritten (write-allocate
    /// applies unless evaded).
    pub full_line_store: bool,
    /// Floating-point operations (FMA = 2).
    pub flops: u32,
}

impl Volume {
    /// Memory traffic per iteration assuming write-allocate with factor
    /// `wa` (1.0 = evaded, 2.0 = full WA on the store stream).
    pub fn traffic_bytes(&self, wa: f64) -> f64 {
        self.load_bytes as f64 + self.store_bytes as f64 * wa
    }

    /// Arithmetic intensity in flop/byte at a given WA factor.
    pub fn intensity(&self, wa: f64) -> f64 {
        if self.traffic_bytes(wa) == 0.0 {
            f64::INFINITY
        } else {
            self.flops as f64 / self.traffic_bytes(wa)
        }
    }
}

/// The volume table for the 13 kernels.
pub fn volume(kernel: StreamKernel) -> Volume {
    use StreamKernel::*;
    match kernel {
        Init => Volume {
            load_bytes: 0,
            store_bytes: 8,
            full_line_store: true,
            flops: 0,
        },
        Copy => Volume {
            load_bytes: 8,
            store_bytes: 8,
            full_line_store: true,
            flops: 0,
        },
        Update => Volume {
            load_bytes: 8,
            store_bytes: 8,
            full_line_store: true,
            flops: 1,
        },
        Add => Volume {
            load_bytes: 16,
            store_bytes: 8,
            full_line_store: true,
            flops: 1,
        },
        StreamTriad => Volume {
            load_bytes: 16,
            store_bytes: 8,
            full_line_store: true,
            flops: 2,
        },
        SchoenauerTriad => Volume {
            load_bytes: 24,
            store_bytes: 8,
            full_line_store: true,
            flops: 2,
        },
        Sum => Volume {
            load_bytes: 8,
            store_bytes: 0,
            full_line_store: false,
            flops: 1,
        },
        Pi => Volume {
            load_bytes: 0,
            store_bytes: 0,
            full_line_store: false,
            flops: 5,
        },
        // One sweep touches 3 distinct rows; with layer reuse the effective
        // traffic per update is one load + one store stream.
        GaussSeidel2D => Volume {
            load_bytes: 24,
            store_bytes: 8,
            full_line_store: true,
            flops: 4,
        },
        Jacobi2D5 => Volume {
            load_bytes: 32,
            store_bytes: 8,
            full_line_store: true,
            flops: 4,
        },
        Jacobi3D7 => Volume {
            load_bytes: 56,
            store_bytes: 8,
            full_line_store: true,
            flops: 7,
        },
        Jacobi3D11 => Volume {
            load_bytes: 88,
            store_bytes: 8,
            full_line_store: true,
            flops: 11,
        },
        Jacobi3D27 => Volume {
            load_bytes: 216,
            store_bytes: 8,
            full_line_store: true,
            flops: 27,
        },
    }
}

/// One block of a volume corpus: a generator variant plus a replica
/// index. Replica 0 is the standard corpus block; higher replicas wrap
/// around the variant grid with a distinguishing comment in the emitted
/// assembly, so every block has distinct text (a streaming pipeline over
/// a volume corpus parses every block, it cannot coast on the in-memory
/// kernel cache).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct VolumeBlock {
    pub variant: Variant,
    pub replica: u32,
}

impl VolumeBlock {
    /// Kernel label for reports: the plain corpus name at replica 0
    /// (byte-compatible with the fixed grid), suffixed `#r<n>` beyond.
    pub fn kernel_label(&self) -> String {
        if self.replica == 0 {
            self.variant.kernel.name().to_string()
        } else {
            format!("{}#r{}", self.variant.kernel.name(), self.replica)
        }
    }

    /// Emit the block's assembly: the variant's generated text, with a
    /// replica-tag comment line appended for replicas past the first.
    /// The tag is a *trailing* comment in the machine's dialect — the
    /// parse is unaffected (even instruction line numbers, which a leading
    /// comment would shift); only the text, and thus every content hash,
    /// differs.
    pub fn generate(&self, machine: &Machine) -> String {
        let mut asm = crate::generate(&self.variant, machine);
        if self.replica > 0 {
            let comment = match machine.isa {
                isa::Isa::X86 => "#",
                isa::Isa::AArch64 => "//",
            };
            asm.push_str(&format!("{comment} volume replica {}\n", self.replica));
        }
        asm
    }
}

/// The first `total` blocks of the volume corpus for one architecture:
/// the variant grid cycled in [`variants_for`] order, bumping the replica
/// index each full pass. `total` ≤ the grid size reproduces a prefix of
/// the standard corpus exactly.
pub fn volume_blocks(arch: Arch, total: usize) -> Vec<VolumeBlock> {
    let variants = variants_for(arch);
    (0..total)
        .map(|i| VolumeBlock {
            variant: variants[i % variants.len()],
            replica: (i / variants.len()) as u32,
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::StreamKernel;

    #[test]
    fn stream_triad_matches_mccalpin() {
        let v = volume(StreamKernel::StreamTriad);
        assert_eq!(v.load_bytes, 16);
        assert_eq!(v.store_bytes, 8);
        assert_eq!(v.flops, 2);
        // With full WA the triad moves 32 B per iteration.
        assert_eq!(v.traffic_bytes(2.0), 32.0);
        assert_eq!(v.traffic_bytes(1.0), 24.0);
    }

    #[test]
    fn intensity_ordering() {
        // π is compute-only; INIT is pure bandwidth.
        assert!(volume(StreamKernel::Pi).intensity(2.0).is_infinite());
        assert_eq!(volume(StreamKernel::Init).intensity(1.0), 0.0);
        let add = volume(StreamKernel::Add).intensity(1.0);
        let j27 = volume(StreamKernel::Jacobi3D27).intensity(1.0);
        assert!(j27 > add, "stencils have higher intensity than ADD");
    }

    #[test]
    fn all_kernels_have_volumes() {
        for k in StreamKernel::ALL {
            let v = volume(k);
            assert!(v.load_bytes + v.store_bytes + v.flops > 0, "{}", k.name());
        }
    }

    #[test]
    fn volume_corpus_prefix_matches_the_standard_grid() {
        let arch = Arch::GoldenCove;
        let grid = variants_for(arch);
        let blocks = volume_blocks(arch, grid.len() + 3);
        assert_eq!(blocks.len(), grid.len() + 3);
        let machine = Machine::golden_cove();
        for (b, v) in blocks.iter().zip(&grid) {
            assert_eq!(b.variant, *v);
            assert_eq!(b.replica, 0);
            assert_eq!(b.kernel_label(), v.kernel.name());
            assert_eq!(b.generate(&machine), crate::generate(v, &machine));
        }
        // Past one full pass the grid wraps with replica 1.
        let wrapped = &blocks[grid.len()];
        assert_eq!(wrapped.variant, grid[0]);
        assert_eq!(wrapped.replica, 1);
        assert!(wrapped.kernel_label().ends_with("#r1"));
    }

    #[test]
    fn replica_tag_changes_text_not_parse() {
        for (arch, mk) in [
            (Arch::GoldenCove, Machine::golden_cove as fn() -> Machine),
            (Arch::NeoverseV2, Machine::neoverse_v2 as fn() -> Machine),
        ] {
            let machine = mk();
            let grid_len = variants_for(arch).len();
            let blocks = volume_blocks(arch, grid_len + 1);
            let (base, replica) = (&blocks[0], &blocks[grid_len]);
            let (a, b) = (base.generate(&machine), replica.generate(&machine));
            assert_ne!(a, b, "replica text must be distinct (distinct hash)");
            let ka = isa::parse_kernel(&a, machine.isa).unwrap();
            let kb = isa::parse_kernel(&b, machine.isa).unwrap();
            assert_eq!(ka, kb, "the tag is a comment; the kernel is identical");
        }
    }
}
