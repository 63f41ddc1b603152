//! Deterministic retry/backoff schedule for resubmitted jobs.

/// Capped exponential backoff with a hard retry budget.
///
/// Attempt `k` (1-based: the k-th *re*-dispatch after a failure) waits
/// `min(base · 2^(k−1), cap)` fleet epochs before the job becomes
/// dispatchable again. The schedule is a pure function of the policy and
/// the attempt number — no RNG, no wall clock — so a replayed run
/// produces the identical retry timeline and the audit can check the
/// backoff sequence is monotone and capped.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Backoff for the first retry, fleet epochs.
    pub base_epochs: u64,
    /// Backoff ceiling, fleet epochs.
    pub cap_epochs: u64,
    /// Maximum number of retries per job. A job is dispatched at most
    /// `1 + max_retries` times before it is reported failed.
    pub max_retries: u64,
}

impl RetryPolicy {
    /// A policy with `base` doubling up to `cap`, at most `max_retries`
    /// retries.
    pub fn new(base_epochs: u64, cap_epochs: u64, max_retries: u64) -> Self {
        assert!(base_epochs >= 1, "zero backoff would hot-loop resubmission");
        assert!(cap_epochs >= base_epochs, "cap below base");
        RetryPolicy { base_epochs, cap_epochs, max_retries }
    }

    /// The paper-default schedule: 1, 2, 4, 8, 8, … epochs, three
    /// retries.
    pub(crate) fn default_policy() -> Self {
        RetryPolicy::new(1, 8, 3)
    }

    /// Backoff before retry `attempt` (1-based), fleet epochs.
    /// Saturates instead of overflowing, then clamps to the ceiling, so
    /// the sequence is non-decreasing for any `u64` attempt.
    pub(crate) fn backoff_epochs(&self, attempt: u64) -> u64 {
        assert!(attempt >= 1, "attempts are 1-based");
        let doubled = if attempt > 63 {
            u64::MAX
        } else {
            self.base_epochs.saturating_mul(1u64 << (attempt - 1))
        };
        doubled.min(self.cap_epochs)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn doubles_then_caps() {
        let p = RetryPolicy::new(1, 8, 5);
        let seq: Vec<u64> = (1..=6).map(|k| p.backoff_epochs(k)).collect();
        assert_eq!(seq, vec![1, 2, 4, 8, 8, 8]);
    }

    #[test]
    fn is_monotone_and_capped_for_huge_attempts() {
        let p = RetryPolicy::new(3, 100, 1_000);
        let mut last = 0;
        for k in 1..=200 {
            let b = p.backoff_epochs(k);
            assert!(b >= last, "backoff shrank at attempt {k}");
            assert!(b <= p.cap_epochs, "backoff over cap at attempt {k}");
            last = b;
        }
        assert_eq!(p.backoff_epochs(64), 100);
        assert_eq!(p.backoff_epochs(u64::MAX), 100);
    }

    #[test]
    #[should_panic(expected = "1-based")]
    fn attempt_zero_is_rejected() {
        RetryPolicy::default_policy().backoff_epochs(0);
    }
}
