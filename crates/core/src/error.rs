//! Fallible-construction and fallible-insert errors.
//!
//! The constructors historically `assert!`ed their parameter domains,
//! which is the right call for programming errors but the wrong call at
//! a *service* API boundary: a measurement structure configured from an
//! operator knob or built per-tenant must reject a bad `q`/γ/τ without
//! taking the serving thread down. Every structure therefore exposes a
//! `try_new` returning [`QMaxError`]; the panicking `new` wrappers
//! remain and format the same messages they always did.

use qmax_select::WORK_BOUND_FACTOR;
use std::error::Error;
use std::fmt;

/// Why a q-MAX structure could not be built, or an item not inserted.
///
/// [`fmt::Display`] renders the exact messages the panicking
/// constructors use, so `try_new(..).unwrap_or_else(|e| panic!("{e}"))`
/// is behaviorally identical to the historical `assert!`s.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum QMaxError {
    /// `q == 0`: a reservoir for the zero largest items is meaningless.
    ZeroQ,
    /// The space-slack γ was not a positive finite number.
    BadGamma(f64),
    /// A (count- or time-based) window length of zero.
    ZeroWindow,
    /// The window slack fraction τ was outside `(0, 1]`.
    BadTau(f64),
    /// A hierarchical window with zero layers (`c == 0`).
    ZeroLayers,
    /// The exponential-decay parameter `c` was outside `(0, 1]`.
    BadDecay(f64),
    /// A decayed insert with a non-positive or non-finite value (the
    /// log-domain transform is undefined for it).
    BadValue(f64),
    /// A sharded engine with zero shards.
    ZeroShards,
    /// A window geometry that overflows: the named parameter (`c`, `w`
    /// or `window_ns`) makes the block count or the window span too
    /// large to represent or allocate.
    WindowOverflow(&'static str),
}

impl fmt::Display for QMaxError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            QMaxError::ZeroQ => write!(f, "q must be positive"),
            QMaxError::BadGamma(g) => {
                write!(f, "gamma must be positive and finite (got {g})")
            }
            QMaxError::ZeroWindow => write!(f, "window must be positive"),
            QMaxError::BadTau(t) => write!(f, "tau must be in (0, 1] (got {t})"),
            QMaxError::ZeroLayers => write!(f, "c must be positive"),
            QMaxError::BadDecay(c) => {
                write!(f, "decay parameter must be in (0, 1] (got {c})")
            }
            QMaxError::BadValue(v) => {
                write!(f, "decayed values must be positive and finite (got {v})")
            }
            QMaxError::ZeroShards => write!(f, "need at least one shard"),
            QMaxError::WindowOverflow(p) => {
                write!(f, "{p} too large: the window geometry overflows")
            }
        }
    }
}

impl Error for QMaxError {}

/// Validates a `(q, gamma)` pair, the domain shared by every reservoir
/// constructor. A finite γ is still rejected when the buffer it implies
/// does not fit: the de-amortized geometry `q + 2·max(⌈qγ/2⌉, 1)`
/// (which bounds the amortized `⌈q(1+γ)⌉`) must not overflow `usize`,
/// nor exceed the longest `Vec<T>` of candidate slots an allocation can
/// hold, nor overflow the selection work `WORK_BOUND_FACTOR` per slot.
pub(crate) fn check_q_gamma<T>(q: usize, gamma: f64) -> Result<(), QMaxError> {
    if q == 0 {
        return Err(QMaxError::ZeroQ);
    }
    if !(gamma > 0.0 && gamma.is_finite()) {
        return Err(QMaxError::BadGamma(gamma));
    }
    // The float-to-int cast saturates, so a huge γ overflows below.
    let g = (((q as f64) * gamma / 2.0).ceil() as usize).max(1);
    match g.checked_mul(2).and_then(|zones| zones.checked_add(q)) {
        Some(slots)
            if slots <= max_slots::<T>() && slots.checked_mul(WORK_BOUND_FACTOR).is_some() =>
        {
            Ok(())
        }
        _ => Err(QMaxError::BadGamma(gamma)),
    }
}

/// The longest `Vec<T>` an allocation can hold: `n · size_of::<T>()`
/// must not exceed `isize::MAX`.
pub(crate) fn max_slots<T>() -> usize {
    isize::MAX as usize / std::mem::size_of::<T>().max(1)
}

/// Validates a slack-window `(w, tau)` pair.
pub(crate) fn check_window(w: usize, tau: f64) -> Result<(), QMaxError> {
    if w == 0 {
        return Err(QMaxError::ZeroWindow);
    }
    check_tau(tau)
}

/// Validates a slack fraction τ.
pub(crate) fn check_tau(tau: f64) -> Result<(), QMaxError> {
    if tau > 0.0 && tau <= 1.0 {
        Ok(())
    } else {
        Err(QMaxError::BadTau(tau))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_matches_historical_assert_messages() {
        // `#[should_panic(expected = ..)]` tests across the workspace
        // match substrings of these; keep the prefixes stable.
        assert_eq!(QMaxError::ZeroQ.to_string(), "q must be positive");
        assert!(QMaxError::BadGamma(-1.0)
            .to_string()
            .starts_with("gamma must be positive and finite"));
        assert_eq!(QMaxError::ZeroWindow.to_string(), "window must be positive");
        assert!(QMaxError::BadTau(0.0)
            .to_string()
            .starts_with("tau must be in (0, 1]"));
        assert_eq!(QMaxError::ZeroLayers.to_string(), "c must be positive");
        assert!(QMaxError::BadDecay(1.5)
            .to_string()
            .starts_with("decay parameter must be in (0, 1]"));
        assert!(QMaxError::BadValue(f64::NAN)
            .to_string()
            .starts_with("decayed values must be positive and finite"));
        assert_eq!(QMaxError::ZeroShards.to_string(), "need at least one shard");
        assert_eq!(
            QMaxError::WindowOverflow("window_ns").to_string(),
            "window_ns too large: the window geometry overflows"
        );
    }

    #[test]
    fn validators_cover_the_domain_edges() {
        assert_eq!(check_q_gamma::<u64>(0, 0.5), Err(QMaxError::ZeroQ));
        assert_eq!(check_q_gamma::<u64>(1, 0.0), Err(QMaxError::BadGamma(0.0)));
        assert_eq!(
            check_q_gamma::<u64>(1, f64::INFINITY),
            Err(QMaxError::BadGamma(f64::INFINITY))
        );
        assert!(matches!(
            check_q_gamma::<u64>(1, f64::NAN),
            Err(QMaxError::BadGamma(_))
        ));
        assert_eq!(check_q_gamma::<u64>(1, 0.25), Ok(()));
        // A finite γ whose geometry overflows `usize`, outgrows the
        // largest `Vec` of the slot type, or overflows the selection
        // work is rejected instead of wrapping.
        assert_eq!(
            check_q_gamma::<u64>(4, 1e300),
            Err(QMaxError::BadGamma(1e300))
        );
        assert_eq!(check_q_gamma::<u8>(4, 1e16), Ok(()));
        assert!(check_q_gamma::<[u8; 1024]>(4, 1e16).is_err());
        assert!(check_q_gamma::<u8>(4, 1e18).is_err());
        assert_eq!(check_window(0, 0.5), Err(QMaxError::ZeroWindow));
        assert_eq!(check_window(10, 1.5), Err(QMaxError::BadTau(1.5)));
        assert_eq!(check_window(10, 1.0), Ok(()));
        assert!(matches!(check_tau(f64::NAN), Err(QMaxError::BadTau(_))));
    }
}
