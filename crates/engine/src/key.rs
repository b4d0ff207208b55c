//! The one content key every result cache addresses by.
//!
//! A report record is a function of the machine model, the predictor set
//! with its configuration, and the kernel text; [`Key`] holds exactly
//! these. The session's record store, `serve`'s response cache,
//! coalescer and shard routing, and both `--cache-dir` tiers key on it.

use uarch::{Machine, Predictor};

pub(crate) const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

/// FNV-1a 64 over one byte slice, continuing from `h`.
fn fnv1a(mut h: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Identity of one evaluation.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Key {
    /// [`Key::fingerprint`] of the machine model.
    pub machine: u64,
    /// [`Key::predictor_set`] of the predictors that ran.
    pub predictors: String,
    /// The kernel's assembly text.
    pub text: String,
}

impl Key {
    /// FNV-1a 64 of the machine's canonical JSON, so an edited model is a
    /// different key. Costly (the JSON): compute it once, when needed.
    pub fn fingerprint(machine: &Machine) -> u64 {
        fnv1a(FNV_OFFSET, machine.to_json().as_bytes())
    }

    /// Each analytical predictor's [`identity`](Predictor::identity), then
    /// the reference's (`-` for none).
    pub fn predictor_set(
        analytical: &[&dyn Predictor],
        reference: Option<&dyn Predictor>,
    ) -> String {
        let mut set = String::new();
        for (i, p) in analytical.iter().enumerate() {
            set.push_str(if i == 0 { "" } else { "," });
            set.push_str(&p.identity());
        }
        set.push(';');
        set.push_str(&reference.map_or("-".into(), |r| r.identity()));
        set
    }

    /// FNV-1a 64 of the key from `seed`, with `extra` length-framed parts
    /// folded in after the three of the key itself.
    pub(crate) fn digest(&self, seed: u64, extra: &[&str]) -> u64 {
        let mut h = fnv1a(seed, &self.machine.to_le_bytes());
        for part in [self.predictors.as_str(), self.text.as_str()]
            .iter()
            .chain(extra)
        {
            h = fnv1a(h, &(part.len() as u64).to_le_bytes());
            h = fnv1a(h, part.as_bytes());
        }
        h
    }

    /// Which of `shards` workers owns this key under `label` (the label
    /// is part of a served report, so it is part of the served identity).
    pub fn shard(&self, label: &str, shards: usize) -> usize {
        (self.digest(FNV_OFFSET, &[label]) % shards as u64) as usize
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn predictor_set_names_every_setting() {
        let incore = incore::InCoreModel::new();
        let sim = exec::CoreSimulator::default();
        let short = exec::CoreSimulator {
            config: exec::SimConfig {
                iterations: 20,
                warmup: 5,
                ..exec::SimConfig::default()
            },
        };
        let set = Key::predictor_set(&[&incore, &mca::McaBaseline], Some(&sim));
        assert_eq!(set, "incore,mca;sim i200 w50 q1");
        assert_ne!(
            set,
            Key::predictor_set(&[&incore, &mca::McaBaseline], Some(&short))
        );
        assert_eq!(Key::predictor_set(&[&incore], None), "incore;-");
    }

    #[test]
    fn every_part_moves_the_digest() {
        let key = Key {
            machine: Key::fingerprint(&Machine::golden_cove()),
            predictors: "incore;-".into(),
            text: "nop\n".into(),
        };
        let base = key.digest(FNV_OFFSET, &[]);
        let moved = [
            Key {
                machine: Key::fingerprint(&Machine::zen4()),
                ..key.clone()
            },
            Key {
                predictors: "incore,mca;-".into(),
                ..key.clone()
            },
            Key {
                text: "nop\nnop\n".into(),
                ..key.clone()
            },
        ];
        for other in &moved {
            assert_ne!(other.digest(FNV_OFFSET, &[]), base);
        }
        assert_ne!(key.digest(FNV_OFFSET, &["a"]), base);
        assert!(key.shard("k.s", 4) < 4);
    }
}
