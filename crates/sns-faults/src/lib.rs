//! Deterministic fault injection for the sns journal and replication layers.
//!
//! A `FaultPlan` is a small set of rules parsed from a spec string, e.g.
//!
//! ```text
//! journal.write=enospc@4..12;repl.send=drop@p10;journal.rename=fail@1
//! ```
//!
//! Each rule names an *injection point* (a string the instrumented code
//! passes to [`Faults::decide`]), a [`FaultAction`], and a *trigger* that
//! selects which hits of that point fire. Hit counters are per-point, and
//! probabilistic triggers hash `(seed, point, hit_index)` so the same seed
//! replays the same decisions — the plan is deterministic for a fixed
//! interleaving of hits.
//!
//! Injection is compiled in only for debug builds (`debug_assertions`):
//! the plan grammar, its parser, and the decision logic live in a module
//! that release builds leave out entirely. There [`Faults::decide`] is a
//! constant `None` that the optimizer erases and [`Faults::from_spec`]
//! refuses every spec, so production binaries carry no fault-injection
//! overhead and cannot be armed.
#![forbid(unsafe_code)]
#![warn(missing_docs)]

#[cfg(debug_assertions)]
use std::sync::Arc;

#[cfg(debug_assertions)]
mod plan;
#[cfg(debug_assertions)]
pub use plan::FaultPlan;

/// True when fault injection is compiled into this build (debug builds only).
pub const COMPILED_IN: bool = cfg!(debug_assertions);

/// What an armed injection point should do when a rule fires.
///
/// Actions are interpreted by the instrumented call site; an action that
/// makes no sense for a given point (e.g. `Refuse` on a file write) is
/// treated as a plain failure.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultAction {
    /// Fail with a generic injected I/O error.
    Fail,
    /// Fail with an out-of-space error (`ENOSPC`).
    Enospc,
    /// Perform a short/torn write: persist a prefix of the payload, then fail.
    Short,
    /// Silently drop the frame (pretend success without doing the work).
    Drop,
    /// Sleep for the given number of milliseconds, then proceed normally.
    Delay(u64),
    /// Send/persist a truncated frame, then fail the stream.
    Truncate,
    /// Refuse the connection outright.
    Refuse,
}

/// A cheap, cloneable handle to an optional fault plan.
///
/// The default handle is disarmed and [`Faults::decide`] returns `None`
/// without taking any lock. Release builds carry no plan at all: `decide`
/// is a constant `None`, so instrumented call sites compile to no-ops.
#[derive(Debug, Clone, Default)]
pub struct Faults(#[cfg(debug_assertions)] Option<Arc<FaultPlan>>);

impl Faults {
    /// A disarmed handle; every decision is `None`.
    pub fn disabled() -> Faults {
        Faults::default()
    }

    /// Arms a handle with the given plan.
    #[cfg(debug_assertions)]
    pub fn armed(plan: FaultPlan) -> Faults {
        Faults(Some(Arc::new(plan)))
    }

    /// Parses `spec` and arms a handle with it.
    ///
    /// # Errors
    ///
    /// Fails on a malformed spec, and always in release builds, where
    /// injection is compiled out — arming there would silently do nothing.
    #[cfg(debug_assertions)]
    pub fn from_spec(spec: &str) -> Result<Faults, String> {
        Ok(Faults::armed(FaultPlan::parse(spec)?))
    }

    /// Release builds: fault injection is compiled out, so every spec is
    /// refused.
    ///
    /// # Errors
    ///
    /// Always.
    #[cfg(not(debug_assertions))]
    pub fn from_spec(_spec: &str) -> Result<Faults, String> {
        Err("fault injection is compiled out of release builds".to_string())
    }

    /// True when this handle carries an armed plan.
    #[cfg(debug_assertions)]
    pub fn is_armed(&self) -> bool {
        self.0.is_some()
    }

    /// Release builds: never armed.
    #[cfg(not(debug_assertions))]
    pub fn is_armed(&self) -> bool {
        false
    }

    /// Records a hit at `point` and returns the action to take, if any.
    #[cfg(debug_assertions)]
    pub fn decide(&self, point: &str) -> Option<FaultAction> {
        self.0.as_ref().and_then(|plan| plan.decide(point))
    }

    /// Release builds: always `None`; the call inlines away.
    #[cfg(not(debug_assertions))]
    #[inline(always)]
    pub fn decide(&self, _point: &str) -> Option<FaultAction> {
        None
    }

    /// The underlying plan, for harnesses that inspect hit counts.
    #[cfg(debug_assertions)]
    pub fn plan(&self) -> Option<&FaultPlan> {
        self.0.as_deref()
    }
}

/// Maps an action at a file-write-style point to an injected `io::Error`.
/// `Short`/`Truncate` callers should persist a prefix first; the error is
/// what they return afterwards.
pub fn write_error(action: FaultAction) -> std::io::Error {
    match action {
        FaultAction::Enospc => std::io::Error::new(
            std::io::ErrorKind::StorageFull,
            "injected fault: no space left on device",
        ),
        FaultAction::Short | FaultAction::Truncate => {
            std::io::Error::new(std::io::ErrorKind::WriteZero, "injected fault: short write")
        }
        _ => std::io::Error::other("injected fault: write failed"),
    }
}

/// SplitMix64 — the same tiny std-only generator used across the workspace
/// for seeded, reproducible randomness.
#[derive(Debug, Clone)]
pub struct SplitMix64 {
    state: u64,
}

impl SplitMix64 {
    /// Seeds the generator.
    pub fn seed_from_u64(seed: u64) -> SplitMix64 {
        SplitMix64 { state: seed }
    }

    /// Next 64 uniformly random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform index in `0..n` (Lemire reduction); `n` must be non-zero.
    pub fn gen_index(&mut self, n: usize) -> usize {
        ((u128::from(self.next_u64()) * n as u128) >> 64) as usize
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[cfg(debug_assertions)]
    #[test]
    fn parse_rejects_garbage() {
        assert!(FaultPlan::parse("journal.write").is_err());
        assert!(FaultPlan::parse("journal.write=explode").is_err());
        assert!(FaultPlan::parse("journal.write=fail@0").is_err());
        assert!(FaultPlan::parse("journal.write=fail@5..2").is_err());
        assert!(FaultPlan::parse("journal.write=fail@p101").is_err());
        assert!(FaultPlan::parse("seed=notanumber").is_err());
    }

    #[cfg(debug_assertions)]
    #[test]
    fn nth_and_window_triggers() {
        let plan = FaultPlan::parse("a=fail@2;b=enospc@3..4").unwrap();
        assert_eq!(plan.decide("a"), None);
        assert_eq!(plan.decide("a"), Some(FaultAction::Fail));
        assert_eq!(plan.decide("a"), None);
        assert_eq!(plan.decide("b"), None);
        assert_eq!(plan.decide("b"), None);
        assert_eq!(plan.decide("b"), Some(FaultAction::Enospc));
        assert_eq!(plan.decide("b"), Some(FaultAction::Enospc));
        assert_eq!(plan.decide("b"), None);
        assert_eq!(plan.hits("a"), 3);
        assert_eq!(plan.hits("b"), 5);
        assert_eq!(plan.fired(), 3);
    }

    #[cfg(debug_assertions)]
    #[test]
    fn open_range_and_delay() {
        let plan = FaultPlan::parse("x=delay:25@2..").unwrap();
        assert_eq!(plan.decide("x"), None);
        for _ in 0..5 {
            assert_eq!(plan.decide("x"), Some(FaultAction::Delay(25)));
        }
    }

    #[cfg(debug_assertions)]
    #[test]
    fn percent_is_deterministic_per_seed() {
        let a = FaultPlan::parse("seed=7;p=drop@p40").unwrap();
        let b = FaultPlan::parse("seed=7;p=drop@p40").unwrap();
        let da: Vec<bool> = (0..64).map(|_| a.decide("p").is_some()).collect();
        let db: Vec<bool> = (0..64).map(|_| b.decide("p").is_some()).collect();
        assert_eq!(da, db);
        let fired = da.iter().filter(|f| **f).count();
        assert!(fired > 5 && fired < 60, "p40 fired {fired}/64 times");
    }

    #[test]
    fn disarmed_handle_is_silent() {
        let f = Faults::disabled();
        assert!(!f.is_armed());
        assert_eq!(f.decide("anything"), None);
    }

    #[cfg(debug_assertions)]
    #[test]
    fn armed_handle_decides() {
        let f = Faults::from_spec("q=refuse@1").unwrap();
        assert!(f.is_armed());
        assert_eq!(f.decide("q"), Some(FaultAction::Refuse));
        assert_eq!(f.decide("q"), None);
    }

    #[cfg(not(debug_assertions))]
    #[test]
    fn release_builds_refuse_every_plan() {
        assert!(Faults::from_spec("q=refuse@1").is_err());
        assert!(!Faults::disabled().is_armed());
    }
}
