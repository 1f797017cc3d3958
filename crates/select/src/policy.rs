//! Static backend selection policy (AoS vs SoA).
//!
//! The q-MAX interval backends come in two layouts: the array-of-structs
//! `AmortizedQMax` (a plain `Vec<(id, val)>` with a scalar admit loop and
//! no kernel handle) and the structure-of-arrays `SoaAmortizedQMax`
//! (split value/id lanes driven by the [`Kernel`](crate::Kernel)
//! batch-admit and partition kernels). Which one is faster is a
//! *per-block* question, and it is answered by three static rules on the
//! block's shape — no timing, no per-process state beyond the mode:
//!
//! * a non-`u64` value lane goes to AoS: the SIMD tiers only accept
//!   `u64` lanes, so the SoA layout's split lanes buy nothing there;
//! * an **append-only** block — one whose lifetime fill is at most its
//!   capacity, so it is recycled before it ever compacts — goes to AoS:
//!   without compactions the kernel path never runs, and the single
//!   interleaved AoS push beats the SoA two-lane push;
//! * every other block cycles through kernel admits and goes to SoA.
//!
//! [`PolicyMode`] is read once per process from the
//! `QMAX_BACKEND_POLICY` environment variable (`auto` / `force-aos` /
//! `force-soa`); the forced modes bypass the rules. The mode composes
//! with `QMAX_FORCE_SCALAR`, which pins the kernels the SoA layout
//! dispatches to but never changes which layout is picked.
//!
//! The choice is **performance-only**: both layouts run the one
//! amortized algorithm (same admissions, same Ψ, same top-q on the value
//! multiset), so a wrong pick can never change observable results —
//! the differential property suites pin this down.

use core::any::TypeId;
use std::sync::OnceLock;

/// How the policy picks between the AoS and SoA interval backends.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum PolicyMode {
    /// Apply the static rules per block capacity / fill / lane type.
    #[default]
    Auto,
    /// Always pick the array-of-structs backend (no kernel handle).
    ForceAos,
    /// Always pick the structure-of-arrays SIMD backend.
    ForceSoa,
}

impl PolicyMode {
    /// Parses the `QMAX_BACKEND_POLICY` spellings: `auto`, `force-aos`,
    /// `force-soa` (case-insensitive; `aos` / `soa` are accepted as
    /// shorthands, the empty string means `auto`). Returns `None` for
    /// anything else.
    pub fn parse(s: &str) -> Option<PolicyMode> {
        match s.trim().to_ascii_lowercase().as_str() {
            "" | "auto" => Some(PolicyMode::Auto),
            "force-aos" | "aos" => Some(PolicyMode::ForceAos),
            "force-soa" | "soa" => Some(PolicyMode::ForceSoa),
            _ => None,
        }
    }

    /// Reads `QMAX_BACKEND_POLICY` from the environment. Unset or
    /// unparseable values fall back to [`PolicyMode::Auto`] (an unknown
    /// spelling must not crash a production start-up; the auto path is
    /// always correct).
    pub fn from_env() -> PolicyMode {
        std::env::var("QMAX_BACKEND_POLICY")
            .ok()
            .and_then(|s| PolicyMode::parse(&s))
            .unwrap_or(PolicyMode::Auto)
    }

    /// The process-wide mode: [`PolicyMode::from_env`], resolved once
    /// and cached.
    pub fn global() -> PolicyMode {
        static MODE: OnceLock<PolicyMode> = OnceLock::new();
        *MODE.get_or_init(PolicyMode::from_env)
    }

    /// Picks a layout for a block of `capacity` slots holding `V`
    /// values that is expected to see `expected_fill` items over its
    /// lifetime (between window recycles). `None` means "unbounded" —
    /// the plain interval use where the block fills and compacts over
    /// and over. Forced modes bypass the rules; in auto mode the answer
    /// is a pure function of (capacity, fill, lane type).
    pub fn choose<V: 'static>(
        self,
        capacity: usize,
        expected_fill: Option<usize>,
    ) -> BackendChoice {
        match self {
            PolicyMode::ForceAos => BackendChoice::Aos,
            PolicyMode::ForceSoa => BackendChoice::Soa,
            PolicyMode::Auto if !lane_is_u64::<V>() => BackendChoice::Aos,
            PolicyMode::Auto => match expected_fill {
                Some(fill) if fill <= capacity => BackendChoice::Aos,
                _ => BackendChoice::Soa,
            },
        }
    }
}

/// Which layout the policy picked for one block prototype.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BackendChoice {
    /// Array-of-structs `AmortizedQMax`: scalar admit loop, no kernel
    /// handle — the append-only and non-`u64` fast path.
    Aos,
    /// Structure-of-arrays `SoaAmortizedQMax`: kernel-dispatched batch
    /// admit and partition over split lanes.
    Soa,
}

/// Whether `V` is exactly `u64` — the only lane type the SIMD tiers
/// accept.
fn lane_is_u64<V: 'static>() -> bool {
    TypeId::of::<V>() == TypeId::of::<u64>()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_accepts_documented_spellings() {
        assert_eq!(PolicyMode::parse("auto"), Some(PolicyMode::Auto));
        assert_eq!(PolicyMode::parse(""), Some(PolicyMode::Auto));
        assert_eq!(PolicyMode::parse("force-aos"), Some(PolicyMode::ForceAos));
        assert_eq!(PolicyMode::parse("FORCE-SOA"), Some(PolicyMode::ForceSoa));
        assert_eq!(PolicyMode::parse(" aos "), Some(PolicyMode::ForceAos));
        assert_eq!(PolicyMode::parse("soa"), Some(PolicyMode::ForceSoa));
        assert_eq!(PolicyMode::parse("fastest"), None);
        assert_eq!(PolicyMode::parse("force_aos"), None);
    }

    #[test]
    fn forced_modes_bypass_rules() {
        for cap in [1usize, 100, 1 << 20] {
            assert_eq!(
                PolicyMode::ForceAos.choose::<u64>(cap, None),
                BackendChoice::Aos
            );
            assert_eq!(
                PolicyMode::ForceSoa.choose::<u64>(cap, Some(1)),
                BackendChoice::Soa
            );
            assert_eq!(
                PolicyMode::ForceSoa.choose::<f64>(cap, None),
                BackendChoice::Soa
            );
        }
    }

    #[test]
    fn auto_distinguishes_append_only_from_compaction_heavy() {
        let auto = PolicyMode::Auto;
        // No hint: unbounded stream, compaction-heavy at any capacity.
        assert_eq!(auto.choose::<u64>(1000, None), BackendChoice::Soa);
        assert_eq!(auto.choose::<u64>(1, None), BackendChoice::Soa);
        // Lifetime fill within capacity: append-only.
        assert_eq!(auto.choose::<u64>(1000, Some(10)), BackendChoice::Aos);
        assert_eq!(auto.choose::<u64>(1000, Some(1000)), BackendChoice::Aos);
        // Lifetime fill past capacity: compaction-heavy. The basic
        // window's block geometry at τ = 0.01 and τ = 0.1 (q = 10⁴,
        // γ = 0.25, W = 10⁶) lands on either side.
        assert_eq!(auto.choose::<u64>(1001, Some(1002)), BackendChoice::Soa);
        assert_eq!(auto.choose::<u64>(12_500, Some(10_000)), BackendChoice::Aos);
        assert_eq!(
            auto.choose::<u64>(12_500, Some(100_000)),
            BackendChoice::Soa
        );
    }

    #[test]
    fn auto_routes_non_u64_lanes_to_aos() {
        for fill in [None, Some(1), Some(1 << 30)] {
            assert_eq!(
                PolicyMode::Auto.choose::<u32>(100, fill),
                BackendChoice::Aos
            );
            assert_eq!(
                PolicyMode::Auto.choose::<i64>(100, fill),
                BackendChoice::Aos
            );
        }
    }

    #[test]
    fn global_mode_is_stable() {
        assert_eq!(PolicyMode::global(), PolicyMode::global());
        assert_eq!(PolicyMode::global(), PolicyMode::from_env());
    }

    #[test]
    fn lane_check_matches_types() {
        assert!(lane_is_u64::<u64>());
        assert!(!lane_is_u64::<u32>());
        assert!(!lane_is_u64::<i64>());
    }
}
