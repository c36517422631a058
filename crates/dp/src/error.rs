//! Error type shared by all mechanisms in this crate.

use std::fmt;

/// Errors raised by DP mechanisms.
///
/// Mechanisms are deliberately strict about their inputs: a non-positive `ε`, a
/// negative sensitivity, or an empty candidate set would silently void the
/// privacy guarantee or make the output meaningless, so each is rejected with a
/// dedicated variant instead of being "fixed up".
#[derive(Debug, Clone, PartialEq)]
pub enum DpError {
    /// The privacy parameter must be a finite, strictly positive number.
    InvalidEpsilon(f64),
    /// The sensitivity must be a finite, strictly positive number.
    InvalidSensitivity(f64),
    /// A selection mechanism was invoked with no candidates.
    EmptyCandidateSet,
    /// Top-k was asked for more candidates than exist.
    NotEnoughCandidates {
        /// Number of candidates requested.
        requested: usize,
        /// Number of candidates available.
        available: usize,
    },
    /// A candidate score was NaN; ordering noisy scores would be undefined.
    NonFiniteScore {
        /// Index of the offending candidate.
        index: usize,
    },
    /// The privacy budget accountant was asked to overspend its cap.
    BudgetExceeded {
        /// ε already spent.
        spent: f64,
        /// ε requested on top of `spent`.
        requested: f64,
        /// The configured cap.
        cap: f64,
    },
    /// A budget was asked to split into zero parts — the sequential-
    /// composition inverse `ε/parts` is undefined, and silently returning
    /// anything would mis-account downstream spends.
    InvalidSplit {
        /// The number of parts requested (always `0`).
        parts: usize,
    },
    /// The pipeline was cooperatively cancelled at a stage boundary (e.g. a
    /// request deadline). Any ε already reserved stays spent — refunding on
    /// cancellation would make the budget depend on timing.
    Cancelled {
        /// Why the cancellation fired (e.g. `deadline_exceeded`).
        reason: String,
    },
    /// A selection space has more candidates than a `u64` can index (e.g.
    /// Stage 2's `k^|C|` attribute combinations at many clusters).
    CombinationSpaceOverflow,
    /// The durable ε ledger could not persist a grant. The spend is rejected:
    /// accepting it would let output exist with no durable record of its ε.
    LedgerWrite {
        /// The underlying ledger failure, rendered.
        message: String,
    },
}

impl fmt::Display for DpError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DpError::InvalidEpsilon(v) => {
                write!(f, "epsilon must be finite and > 0, got {v}")
            }
            DpError::InvalidSensitivity(v) => {
                write!(f, "sensitivity must be finite and > 0, got {v}")
            }
            DpError::EmptyCandidateSet => write!(f, "candidate set is empty"),
            DpError::NotEnoughCandidates {
                requested,
                available,
            } => write!(
                f,
                "requested top-{requested} from only {available} candidates"
            ),
            DpError::NonFiniteScore { index } => {
                write!(f, "candidate {index} has a non-finite score")
            }
            DpError::BudgetExceeded {
                spent,
                requested,
                cap,
            } => write!(
                f,
                "privacy budget exceeded: spent {spent} + requested {requested} > cap {cap}"
            ),
            DpError::InvalidSplit { parts } => {
                write!(f, "cannot split a budget into {parts} parts")
            }
            DpError::CombinationSpaceOverflow => write!(f, "combination space exceeds u64"),
            DpError::Cancelled { reason } => write!(f, "cancelled: {reason}"),
            DpError::LedgerWrite { message } => {
                write!(f, "budget ledger write failed: {message}")
            }
        }
    }
}

impl std::error::Error for DpError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_informative() {
        let e = DpError::InvalidEpsilon(-1.0);
        assert!(e.to_string().contains("-1"));
        let e = DpError::NotEnoughCandidates {
            requested: 5,
            available: 3,
        };
        assert!(e.to_string().contains("top-5"));
        assert!(e.to_string().contains('3'));
        let e = DpError::BudgetExceeded {
            spent: 0.5,
            requested: 0.6,
            cap: 1.0,
        };
        assert!(e.to_string().contains("0.5"));
        let e = DpError::Cancelled {
            reason: "deadline_exceeded".to_string(),
        };
        assert_eq!(e.to_string(), "cancelled: deadline_exceeded");
        let e = DpError::LedgerWrite {
            message: "disk full".to_string(),
        };
        assert!(e.to_string().contains("disk full"));
    }

    #[test]
    fn error_is_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<DpError>();
    }
}
