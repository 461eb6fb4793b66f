//! The reconnect/retry schedule every Iris TCP peer shares.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Decorrelated-jitter backoff for retry loops: each delay is drawn
/// uniformly from `base..=prev * 3` (clamped to `cap`), so concurrent
/// clients hitting the same overloaded server spread out instead of
/// retrying in lockstep the way a fixed `retry_after` sleep would.
///
/// The sequence is a pure function of the seed, which makes the bound
/// behaviour unit-testable: every delay `d` satisfies
/// `base <= d <= min(cap, max(prev * 3, base + 1))`. Delays are spent on
/// the wall clock only; they appear in no artifact.
#[derive(Debug)]
pub struct Backoff {
    base_ms: u64,
    cap_ms: u64,
    prev_ms: u64,
    rng: StdRng,
}

impl Backoff {
    /// A backoff starting at `base_ms` and never sleeping longer than
    /// `cap_ms`, jittered by a deterministic stream seeded with `seed`.
    #[must_use]
    pub fn new(base_ms: u64, cap_ms: u64, seed: u64) -> Self {
        let base_ms = base_ms.max(1);
        Self {
            base_ms,
            cap_ms: cap_ms.max(base_ms),
            prev_ms: base_ms,
            rng: StdRng::seed_from_u64(seed),
        }
    }

    /// The next delay, in milliseconds.
    pub fn next_delay_ms(&mut self) -> u64 {
        let hi = self
            .prev_ms
            .saturating_mul(3)
            .max(self.base_ms + 1)
            .min(self.cap_ms);
        let span = hi - self.base_ms + 1;
        let delay = self.base_ms + self.rng.random_range(0..span);
        self.prev_ms = delay;
        delay
    }

    /// Start the schedule over from `base` (after a success); the jitter
    /// stream itself keeps going.
    pub fn reset(&mut self) {
        self.prev_ms = self.base_ms;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reset_returns_the_bound_to_base() {
        let (base, cap) = (10u64, 10_000u64);
        let mut backoff = Backoff::new(base, cap, 7);
        let grown = (0..32).map(|_| backoff.next_delay_ms()).max().expect("32");
        assert!(grown > base * 3, "the schedule never grew: {grown}");
        for _ in 0..8 {
            backoff.reset();
            let d = backoff.next_delay_ms();
            assert!((base..=base * 3).contains(&d), "first delay {d}");
        }
    }
}
