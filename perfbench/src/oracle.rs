//! The output oracle: replays what each session was sent on a reference
//! that takes no shortcuts, and compares every program text the server
//! returned.
//!
//! The reference is a [`LiveSync`] with `full_prepare_only: true` — every
//! commit and code edit re-evaluates and re-prepares from scratch. A
//! drag's expected code is `Program::with_subst(ρ).code()` for the ρ the
//! reference's trigger infers; the reference fires the trigger itself
//! instead of calling `LiveSync::drag`, whose preview canvas the code
//! does not depend on.

use std::collections::HashMap;

use sns_eval::Program;
use sns_lang::Subst;
use sns_server::json::Json;
use sns_svg::ShapeId;
use sns_sync::{LiveConfig, LiveSync};

use crate::client::fnv;
use crate::load::Event;
use crate::workload::{Entry, Op};

/// The fingerprint the server's response would carry for `code`.
pub fn code_fingerprint(code: &str) -> u64 {
    let quoted = Json::str(code).to_string();
    fnv(&quoted.as_bytes()[1..quoted.len() - 1])
}

/// A session opened on `source`, as the server opens one (with its
/// evaluation limits) but always preparing in full.
fn reference(source: &str) -> Option<LiveSync> {
    let mut program = Program::parse(source).ok()?;
    program.set_limits(sns_server::session::server_limits());
    LiveSync::new(
        program,
        LiveConfig {
            full_prepare_only: true,
            ..LiveConfig::default()
        },
    )
    .ok()
}

/// One session as the reference sees it.
#[derive(Default)]
struct Slot {
    live: Option<LiveSync>,
    pending: Option<Subst>,
}

impl Slot {
    fn code(&self) -> Option<u64> {
        self.live
            .as_ref()
            .map(|l| code_fingerprint(&l.program().code()))
    }

    fn commit_pending(&mut self) -> Option<()> {
        if let Some(s) = self.pending.take() {
            self.live.as_mut()?.commit(&s).ok()?;
        }
        Some(())
    }

    /// The expected response fingerprint of one successful operation.
    fn apply(&mut self, op: &Op, catalog: &[Entry]) -> Option<u64> {
        match op {
            Op::Open { entry, .. } => {
                self.live = Some(reference(&catalog[*entry].source)?);
                self.pending = None;
                self.code()
            }
            Op::Drag {
                shape,
                zone,
                dx,
                dy,
                ..
            } => {
                let live = self.live.as_ref()?;
                let trigger = live.trigger(ShapeId(*shape), *zone)?;
                let program = live.program();
                let fire = trigger.fire(&program.subst(), *dx, *dy, LiveConfig::default().solver);
                let code = program.with_subst(&fire.subst).code();
                self.pending = Some(fire.subst);
                Some(code_fingerprint(&code))
            }
            Op::Commit { .. } => {
                self.commit_pending()?;
                self.code()
            }
            Op::SetCode { source, .. } => {
                self.commit_pending()?;
                let program = Program::parse(source).ok()?;
                self.live.as_mut()?.set_program_diffed(program).ok()?;
                self.code()
            }
        }
    }
}

/// Oracle verdict over a run.
#[derive(Debug, Default)]
pub struct Verdict {
    /// Responses (and final reads) that matched the reference.
    pub checked: u64,
    /// Responses (and final reads) that did not.
    pub mismatches: u64,
    /// The first mismatch, for the log.
    pub first: Option<String>,
}

impl Verdict {
    fn miss(&mut self, what: String) {
        self.mismatches += 1;
        if self.first.is_none() {
            self.first = Some(what);
        }
    }
}

/// Replays every generator's history on the reference and compares each
/// successful response's `code`, then every session's final text.
pub fn check(
    catalog: &[Entry],
    histories: &[&[Event]],
    finals: &HashMap<usize, Option<u64>>,
) -> Verdict {
    let mut slots: HashMap<usize, Slot> = HashMap::new();
    let mut v = Verdict::default();
    for history in histories {
        for (i, ev) in history.iter().enumerate() {
            let slot = slots.entry(ev.op.slot()).or_default();
            if !(200..300).contains(&ev.status) {
                // The server refused it (already counted as failed); it
                // also aborted any drag in flight.
                if matches!(ev.op, Op::Drag { .. }) {
                    slot.pending = None;
                }
                continue;
            }
            let expected = slot.apply(&ev.op, catalog);
            if expected.is_some() && expected == ev.code {
                v.checked += 1;
            } else {
                v.miss(format!("event {i}: {:?} (status {})", ev.op, ev.status));
            }
        }
    }
    let mut final_slots: Vec<_> = finals.iter().collect();
    final_slots.sort();
    for (slot, observed) in final_slots {
        let expected = slots.get(slot).and_then(Slot::code);
        if expected.is_some() && expected == *observed {
            v.checked += 1;
        } else {
            v.miss(format!("final code of slot {slot}"));
        }
    }
    v
}
