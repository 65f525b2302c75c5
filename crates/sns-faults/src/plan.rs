//! Fault plans: the rule grammar, its parser, and the per-point decision
//! logic. Compiled only into debug builds — release builds cannot arm a
//! plan, so none of this is reachable there (see the crate docs).

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

use crate::{FaultAction, SplitMix64};

impl FaultAction {
    fn parse(s: &str) -> Result<FaultAction, String> {
        if let Some(ms) = s.strip_prefix("delay:") {
            let ms: u64 = ms
                .parse()
                .map_err(|_| format!("bad delay milliseconds in {s:?}"))?;
            return Ok(FaultAction::Delay(ms));
        }
        match s {
            "fail" => Ok(FaultAction::Fail),
            "enospc" => Ok(FaultAction::Enospc),
            "short" => Ok(FaultAction::Short),
            "drop" => Ok(FaultAction::Drop),
            "truncate" => Ok(FaultAction::Truncate),
            "refuse" => Ok(FaultAction::Refuse),
            _ => Err(format!(
                "unknown fault action {s:?} (expected fail|enospc|short|drop|truncate|refuse|delay:MS)"
            )),
        }
    }
}

/// Which hits of an injection point a rule applies to. Hits are 1-based.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Trigger {
    /// Every hit.
    Always,
    /// Exactly the Nth hit.
    Nth(u64),
    /// Hits `lo..=hi` (`hi == u64::MAX` for an open range `lo..`).
    Window(u64, u64),
    /// Each hit independently with this percent probability, seeded.
    Percent(u8),
}

impl Trigger {
    fn parse(s: &str) -> Result<Trigger, String> {
        if let Some(p) = s.strip_prefix('p') {
            let p: u8 = p.parse().map_err(|_| format!("bad percent in {s:?}"))?;
            if p > 100 {
                return Err(format!("percent trigger {p} out of range 0..=100"));
            }
            return Ok(Trigger::Percent(p));
        }
        if let Some((lo, hi)) = s.split_once("..") {
            let lo: u64 = lo
                .parse()
                .map_err(|_| format!("bad range start in {s:?}"))?;
            let hi: u64 = if hi.is_empty() {
                u64::MAX
            } else {
                hi.parse().map_err(|_| format!("bad range end in {s:?}"))?
            };
            if lo == 0 || hi < lo {
                return Err(format!("bad hit range in {s:?} (hits are 1-based)"));
            }
            return Ok(Trigger::Window(lo, hi));
        }
        let n: u64 = s.parse().map_err(|_| format!("bad hit number in {s:?}"))?;
        if n == 0 {
            return Err("hit numbers are 1-based".to_string());
        }
        Ok(Trigger::Nth(n))
    }

    fn fires(&self, seed: u64, point: &str, hit: u64) -> bool {
        match *self {
            Trigger::Always => true,
            Trigger::Nth(n) => hit == n,
            Trigger::Window(lo, hi) => hit >= lo && hit <= hi,
            Trigger::Percent(p) => {
                let mut rng = SplitMix64::seed_from_u64(seed ^ fnv1a(point.as_bytes()) ^ hit);
                (rng.next_u64() % 100) < u64::from(p)
            }
        }
    }
}

#[derive(Debug, Clone)]
struct Rule {
    point: String,
    action: FaultAction,
    trigger: Trigger,
}

/// A parsed, seeded set of fault rules with per-point hit counters.
#[derive(Debug)]
pub struct FaultPlan {
    seed: u64,
    rules: Vec<Rule>,
    hits: Mutex<HashMap<String, u64>>,
    fired: AtomicU64,
}

impl FaultPlan {
    /// Parses a plan from a spec string: `;`-separated rules of the form
    /// `point=action[@trigger]`, plus an optional `seed=N` entry.
    ///
    /// Triggers: `@N` (exactly the Nth hit), `@N..` (from the Nth on),
    /// `@N..M` (a closed window), `@pP` (each hit with P% probability,
    /// seeded). No trigger means every hit.
    pub fn parse(spec: &str) -> Result<FaultPlan, String> {
        let mut seed = 0u64;
        let mut rules = Vec::new();
        for part in spec.split(';') {
            let part = part.trim();
            if part.is_empty() {
                continue;
            }
            let (key, value) = part
                .split_once('=')
                .ok_or_else(|| format!("fault rule {part:?} is missing '='"))?;
            let key = key.trim();
            let value = value.trim();
            if key == "seed" {
                seed = value
                    .parse()
                    .map_err(|_| format!("bad seed value {value:?}"))?;
                continue;
            }
            let (action, trigger) = match value.split_once('@') {
                Some((a, t)) => (FaultAction::parse(a)?, Trigger::parse(t)?),
                None => (FaultAction::parse(value)?, Trigger::Always),
            };
            rules.push(Rule {
                point: key.to_string(),
                action,
                trigger,
            });
        }
        Ok(FaultPlan {
            seed,
            rules,
            hits: Mutex::new(HashMap::new()),
            fired: AtomicU64::new(0),
        })
    }

    /// Records a hit at `point` and returns the action to take, if any.
    pub(crate) fn decide(&self, point: &str) -> Option<FaultAction> {
        let hit = {
            let mut hits = self.hits.lock().unwrap_or_else(|e| e.into_inner());
            let h = hits.entry(point.to_string()).or_insert(0);
            *h += 1;
            *h
        };
        for rule in &self.rules {
            if rule.point == point && rule.trigger.fires(self.seed, point, hit) {
                self.fired.fetch_add(1, Ordering::Relaxed);
                return Some(rule.action);
            }
        }
        None
    }

    /// How many hits `point` has recorded so far.
    pub fn hits(&self, point: &str) -> u64 {
        let hits = self.hits.lock().unwrap_or_else(|e| e.into_inner());
        hits.get(point).copied().unwrap_or(0)
    }

    /// How many rule firings the plan has produced so far.
    pub fn fired(&self) -> u64 {
        self.fired.load(Ordering::Relaxed)
    }
}

fn fnv1a(bytes: &[u8]) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}
