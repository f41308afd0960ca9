//! SIMD capability detection and the [`SimdLevel`] configuration knob.
//!
//! Per-frame extraction (TBA/FOA crop + pyramid reduction, §2.1–§2.2) is
//! byte-wise arithmetic over `u8` lanes — ideal SIMD material. This module
//! decides *which* instruction set the kernels in [`crate::kernels`] run
//! with:
//!
//! * [`SimdLevel`] is the user-facing knob, threaded through
//!   [`crate::AnalyzerConfig`] exactly like [`crate::Parallelism`]. The
//!   default, `Auto`, picks the best instruction set the host supports at
//!   runtime; `Scalar` forces the portable fallback; `Forced(isa)` demands
//!   one specific ISA and fails loudly when the host lacks it (it exists so
//!   tests and CI can pin a level — silent fallback would defeat a
//!   correctness matrix).
//! * [`ResolvedIsa`] is an opaque *witness* that the chosen instruction set
//!   is actually available: the only ways to obtain one are
//!   [`SimdLevel::try_resolve`] (which runs feature detection) and the
//!   always-valid [`ResolvedIsa::SCALAR`]. Kernel dispatch takes a
//!   `ResolvedIsa`, which is what lets the dispatch functions stay *safe*
//!   to call: the witness proves the `unsafe` target-feature code behind it
//!   cannot execute unsupported instructions.
//!
//! Every level computes **bit-identical** results — the knob only selects
//! how many lanes each instruction touches, never the arithmetic (see
//! `DESIGN.md` §14). The `VDB_SIMD` environment variable overrides what
//! `Auto` resolves to (`auto`/`scalar`/`sse2`/`avx2`/`neon`), which is how
//! the CI matrix re-runs the entire unmodified test suite under each level.

use crate::error::{CoreError, Result};
use std::fmt;
use std::str::FromStr;
use std::sync::OnceLock;

/// A concrete SIMD instruction set the extraction kernels have an
/// implementation for.
///
/// Used as the payload of [`SimdLevel::Forced`]. Naming an ISA does not
/// imply the host supports it — check [`SimdIsa::available`] or resolve
/// through [`SimdLevel::try_resolve`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SimdIsa {
    /// SSE2: 16-byte lanes; baseline on every `x86_64` CPU.
    Sse2,
    /// AVX2: 32-byte lanes; runtime-detected on `x86_64`.
    Avx2,
    /// NEON: 16-byte lanes; baseline on every `aarch64` CPU.
    Neon,
}

impl SimdIsa {
    /// Every ISA the kernels know about, in increasing preference order
    /// within each architecture.
    pub const ALL: [SimdIsa; 3] = [SimdIsa::Sse2, SimdIsa::Avx2, SimdIsa::Neon];

    /// Whether the running host supports this instruction set.
    pub fn available(self) -> bool {
        self.resolved().is_some()
    }

    /// Lowercase name (`"sse2"`, `"avx2"`, `"neon"`).
    pub fn name(self) -> &'static str {
        match self {
            SimdIsa::Sse2 => "sse2",
            SimdIsa::Avx2 => "avx2",
            SimdIsa::Neon => "neon",
        }
    }

    /// Detection: turn the ISA name into a witness, if the host has it.
    fn resolved(self) -> Option<ResolvedIsa> {
        match self {
            #[cfg(target_arch = "x86_64")]
            SimdIsa::Sse2 => {
                std::arch::is_x86_feature_detected!("sse2").then_some(ResolvedIsa(Kind::Sse2))
            }
            #[cfg(target_arch = "x86_64")]
            SimdIsa::Avx2 => {
                std::arch::is_x86_feature_detected!("avx2").then_some(ResolvedIsa(Kind::Avx2))
            }
            #[cfg(target_arch = "aarch64")]
            SimdIsa::Neon => {
                std::arch::is_aarch64_feature_detected!("neon").then_some(ResolvedIsa(Kind::Neon))
            }
            #[allow(unreachable_patterns)]
            _ => None,
        }
    }
}

impl fmt::Display for SimdIsa {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// How the extraction kernels pick their instruction set.
///
/// Threaded through [`crate::AnalyzerConfig`] like
/// [`crate::Parallelism`]; every setting yields bit-identical features, the
/// knob only changes wall-clock time.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum SimdLevel {
    /// Use the best instruction set detected at runtime (the default).
    /// Overridable via the `VDB_SIMD` environment variable.
    #[default]
    Auto,
    /// Portable scalar code only.
    Scalar,
    /// Demand one specific ISA; resolving fails if the host lacks it.
    /// For tests/CI — a silent fallback would defeat a correctness matrix.
    Forced(SimdIsa),
}

impl SimdLevel {
    /// Resolve to a concrete, host-supported instruction set.
    ///
    /// # Errors
    /// [`CoreError::SimdUnavailable`] when a [`SimdLevel::Forced`] ISA is
    /// not supported by the running host. `Auto` and `Scalar` never fail.
    pub fn try_resolve(self) -> Result<ResolvedIsa> {
        match self {
            SimdLevel::Auto => Ok(auto_resolved()),
            SimdLevel::Scalar => Ok(ResolvedIsa::SCALAR),
            SimdLevel::Forced(isa) => isa
                .resolved()
                .ok_or(CoreError::SimdUnavailable { isa: isa.name() }),
        }
    }

    /// [`SimdLevel::try_resolve`], panicking on an unavailable forced ISA.
    ///
    /// # Panics
    /// If a `Forced` instruction set is not available on this host.
    pub fn resolve(self) -> ResolvedIsa {
        self.try_resolve()
            .unwrap_or_else(|e| panic!("cannot resolve SIMD level {self}: {e}"))
    }

    /// Every level that resolves on this host: `Scalar` plus `Forced(isa)`
    /// for each available ISA. The sweep the equivalence suites and the CI
    /// matrix iterate over (note `Auto` is omitted — it duplicates one of
    /// the returned levels).
    pub fn all_available() -> Vec<SimdLevel> {
        let mut levels = vec![SimdLevel::Scalar];
        levels.extend(
            SimdIsa::ALL
                .iter()
                .copied()
                .filter(|isa| isa.available())
                .map(SimdLevel::Forced),
        );
        levels
    }
}

impl fmt::Display for SimdLevel {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SimdLevel::Auto => f.write_str("auto"),
            SimdLevel::Scalar => f.write_str("scalar"),
            SimdLevel::Forced(isa) => f.write_str(isa.name()),
        }
    }
}

impl FromStr for SimdLevel {
    type Err = String;

    fn from_str(s: &str) -> std::result::Result<Self, Self::Err> {
        match s.to_ascii_lowercase().as_str() {
            "auto" => Ok(SimdLevel::Auto),
            "scalar" => Ok(SimdLevel::Scalar),
            "sse2" => Ok(SimdLevel::Forced(SimdIsa::Sse2)),
            "avx2" => Ok(SimdLevel::Forced(SimdIsa::Avx2)),
            "neon" => Ok(SimdLevel::Forced(SimdIsa::Neon)),
            other => Err(format!(
                "unknown SIMD level `{other}` (expected auto, scalar, sse2, avx2, or neon)"
            )),
        }
    }
}

/// The private dispatch tag. Non-scalar variants only exist on the
/// architecture that can run them, so a [`ResolvedIsa`] can never name an
/// instruction set the binary was not compiled with.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Kind {
    Scalar,
    #[cfg(target_arch = "x86_64")]
    Sse2,
    #[cfg(target_arch = "x86_64")]
    Avx2,
    #[cfg(target_arch = "aarch64")]
    Neon,
}

/// A proof that one instruction set is available on the running host.
///
/// The field is private on purpose: outside this module the only sources
/// are [`ResolvedIsa::SCALAR`] and [`SimdLevel::try_resolve`] (which runs
/// feature detection). That invariant is what makes the kernel dispatch in
/// [`crate::kernels`] safe to expose — the `unsafe` target-feature bodies
/// only ever run behind a witness.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ResolvedIsa(pub(crate) Kind);

impl ResolvedIsa {
    /// The portable scalar fallback, valid on every host.
    pub const SCALAR: ResolvedIsa = ResolvedIsa(Kind::Scalar);

    /// The dispatch tag, for the kernel `match`es.
    #[inline]
    pub(crate) fn kind(self) -> Kind {
        self.0
    }

    /// Lowercase name (`"scalar"`, `"sse2"`, `"avx2"`, `"neon"`).
    pub fn name(self) -> &'static str {
        match self.0 {
            Kind::Scalar => "scalar",
            #[cfg(target_arch = "x86_64")]
            Kind::Sse2 => "sse2",
            #[cfg(target_arch = "x86_64")]
            Kind::Avx2 => "avx2",
            #[cfg(target_arch = "aarch64")]
            Kind::Neon => "neon",
        }
    }
}

impl fmt::Display for ResolvedIsa {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// What `SimdLevel::Auto` resolves to, computed once per process.
///
/// Consults `VDB_SIMD` first so CI can force the whole (unmodified) test
/// suite onto one level; an unsupported or unparseable override panics —
/// it is a test/CI knob, and falling back silently would let a matrix leg
/// "pass" while testing the wrong code.
fn auto_resolved() -> ResolvedIsa {
    static AUTO: OnceLock<ResolvedIsa> = OnceLock::new();
    *AUTO.get_or_init(|| match std::env::var("VDB_SIMD") {
        Err(_) => detect_best(),
        Ok(value) => {
            let level: SimdLevel = value
                .parse()
                .unwrap_or_else(|e| panic!("invalid VDB_SIMD={value}: {e}"));
            match level {
                SimdLevel::Auto => detect_best(),
                other => other
                    .try_resolve()
                    .unwrap_or_else(|e| panic!("VDB_SIMD={value} cannot run on this host: {e}")),
            }
        }
    })
}

/// Best instruction set the host supports, by lane width.
fn detect_best() -> ResolvedIsa {
    for isa in [SimdIsa::Avx2, SimdIsa::Neon, SimdIsa::Sse2] {
        if let Some(resolved) = isa.resolved() {
            return resolved;
        }
    }
    ResolvedIsa::SCALAR
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalar_always_resolves() {
        let isa = SimdLevel::Scalar.try_resolve().unwrap();
        assert_eq!(isa, ResolvedIsa::SCALAR);
        assert_eq!(isa.name(), "scalar");
    }

    #[test]
    fn auto_always_resolves() {
        // Whatever the host (or a VDB_SIMD override in a CI matrix leg),
        // Auto must resolve to *something* and stay stable across calls.
        let a = SimdLevel::Auto.try_resolve().unwrap();
        let b = SimdLevel::Auto.try_resolve().unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn forced_available_isa_resolves_to_itself() {
        for isa in SimdIsa::ALL {
            if isa.available() {
                let resolved = SimdLevel::Forced(isa).try_resolve().unwrap();
                assert_eq!(resolved.name(), isa.name());
            } else {
                assert!(matches!(
                    SimdLevel::Forced(isa).try_resolve(),
                    Err(CoreError::SimdUnavailable { .. })
                ));
            }
        }
    }

    #[cfg(target_arch = "x86_64")]
    #[test]
    fn sse2_is_baseline_on_x86_64() {
        assert!(SimdIsa::Sse2.available());
        assert!(!SimdIsa::Neon.available());
    }

    #[test]
    fn available_levels_start_with_scalar() {
        let levels = SimdLevel::all_available();
        assert_eq!(levels[0], SimdLevel::Scalar);
        // Names are unique (no ISA listed twice).
        let names: Vec<&str> = levels.iter().map(|l| l.resolve().name()).collect();
        let mut dedup = names.clone();
        dedup.dedup();
        assert_eq!(names, dedup);
    }

    #[test]
    fn all_available_matches_availability() {
        let levels = SimdLevel::all_available();
        assert_eq!(levels[0], SimdLevel::Scalar);
        assert_eq!(
            levels.len(),
            1 + SimdIsa::ALL.iter().filter(|i| i.available()).count()
        );
        for level in levels {
            level.try_resolve().unwrap();
        }
    }

    #[test]
    fn parse_and_display_roundtrip() {
        for s in ["auto", "scalar", "sse2", "avx2", "neon"] {
            let level: SimdLevel = s.parse().unwrap();
            assert_eq!(level.to_string(), s);
        }
        assert_eq!(
            "AVX2".parse::<SimdLevel>(),
            Ok(SimdLevel::Forced(SimdIsa::Avx2))
        );
        assert!("mmx".parse::<SimdLevel>().is_err());
    }

    #[test]
    fn simd_level_serializes() {
        for level in [
            SimdLevel::Auto,
            SimdLevel::Scalar,
            SimdLevel::Forced(SimdIsa::Avx2),
            SimdLevel::Forced(SimdIsa::Neon),
        ] {
            let back: SimdLevel = level.to_string().parse().unwrap();
            assert_eq!(back, level);
        }
    }
}
