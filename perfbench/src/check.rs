//! Output checking: every operation's result is compared bit for bit
//! with a reference computed on the serial executor outside the timed
//! window, and every failure is counted against the attempts.

use std::fmt::{self, Write as _};

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// FNV-1a over a value's `Debug` rendering. Rust renders every `f64`
/// with the shortest text that parses back to the same bits, so two
/// values share a rendering only if every float in them is bit-identical.
pub fn digest<T: fmt::Debug + ?Sized>(value: &T) -> u64 {
    struct Fnv(u64);
    impl fmt::Write for Fnv {
        fn write_str(&mut self, s: &str) -> fmt::Result {
            for b in s.bytes() {
                self.0 = (self.0 ^ u64::from(b)).wrapping_mul(FNV_PRIME);
            }
            Ok(())
        }
    }
    let mut h = Fnv(FNV_OFFSET);
    // Writing into the hasher cannot fail.
    let _ = write!(h, "{value:?}");
    h.0
}

/// Attempted and failed operations, with the first few failure reasons.
#[derive(Debug, Default)]
pub struct Tally {
    /// Operations attempted.
    pub attempted: u64,
    /// Operations that failed any check.
    pub failed: u64,
    /// The first failure reasons, for the report.
    pub reasons: Vec<String>,
}

impl Tally {
    /// Counts one operation; `problem` is `None` if it passed every check.
    pub fn op(&mut self, problem: Option<String>) {
        self.attempted += 1;
        if let Some(why) = problem {
            self.failed += 1;
            if self.reasons.len() < 8 {
                self.reasons.push(why);
            }
        }
    }

    /// Failed share of attempted operations.
    pub fn failed_ratio(&self) -> f64 {
        if self.attempted == 0 {
            0.0
        } else {
            self.failed as f64 / self.attempted as f64
        }
    }
}

/// Compares an operation's output digest with its reference.
pub fn against(got: Option<u64>, want: Option<u64>, what: impl fmt::Display) -> Option<String> {
    match (got, want) {
        (Some(g), Some(w)) if g == w => None,
        (None, _) => Some(format!("{what}: no output")),
        (Some(_), None) => Some(format!("{what}: no reference")),
        (Some(g), Some(w)) => Some(format!("{what}: digest {g:016x} != reference {w:016x}")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn digest_separates_adjacent_floats_and_signed_zero() {
        let x = 0.1_f64 + 0.2;
        assert_ne!(digest(&x), digest(&0.3_f64));
        assert_ne!(digest(&0.0_f64), digest(&-0.0_f64));
        assert_eq!(digest(&vec![1.5_f64, 2.0]), digest(&vec![1.5_f64, 2.0]));
    }

    #[test]
    fn a_wrong_reference_counts_as_a_failure() {
        let mut tally = Tally::default();
        tally.op(against(
            Some(digest(&1.0_f64)),
            Some(digest(&1.0_f64)),
            "op 0",
        ));
        tally.op(against(
            Some(digest(&1.0_f64)),
            Some(digest(&2.0_f64)),
            "op 1",
        ));
        tally.op(against(None, Some(1), "op 2"));
        assert_eq!((tally.attempted, tally.failed), (3, 2));
        assert!(tally.reasons[0].starts_with("op 1"));
    }
}
