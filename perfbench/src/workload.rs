//! The three workloads and their seeded operation streams.
//!
//! A workload fixes the server configuration, the programs its sessions
//! run, the offered rate, and the mix of user actions. Everything random
//! — which zones are dragged and how far, which edits are made, which
//! programs are opened — is drawn from the `--seed` argument, so a seed
//! names one exact stream of HTTP requests. The server sees only those
//! requests.
//!
//! Sessions live in *slots*; slot `s` belongs to connection `s % conns`,
//! so each session's operations stay in order on one keep-alive
//! connection while many sessions share the few connections.

use std::collections::VecDeque;
use std::sync::Arc;

use sns_eval::Program;
use sns_lang::{diff_exprs, AstDiff};
use sns_svg::Zone;
use sns_sync::{LiveConfig, LiveSync, PrepareEligibility};

/// SplitMix64: tiny, seedable, and good enough to draw workloads from.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A generator for `seed`, decorrelated per `stream`.
    pub fn new(seed: u64, stream: u64) -> Rng {
        let mut r = Rng(seed ^ stream.wrapping_mul(0xA076_1D64_78BD_642F));
        r.next_u64();
        r
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// Uniform integer in `lo..=hi`.
    pub fn int(&mut self, lo: i64, hi: i64) -> i64 {
        lo + (self.next_u64() % (hi - lo + 1) as u64) as i64
    }
}

/// The workloads, by name.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// Long drag gestures on the largest fast-tier corpus programs.
    DragFast,
    /// Short gestures whose commits take the guard-replay tier, a seeded
    /// share of them flipping a guard into the full tier.
    CommitEscaped,
    /// Opens, code edits and short gestures against a journaled,
    /// replicated server whose working set exceeds its session capacity.
    EditDurable,
}

/// A workload's fixed parameters.
#[derive(Debug, Clone)]
pub struct Spec {
    /// The workload's name on the command line.
    pub name: &'static str,
    /// Which workload.
    pub kind: Kind,
    /// Open-loop offered rate, operations per second: a sixth to a third
    /// of the workload's closed-loop capacity on a 2-core host, which
    /// itself swings by 2x there, so that a slow spell does not turn into
    /// a growing backlog.
    pub rate: f64,
    /// Sessions (slots) the traffic is spread over.
    pub slots: usize,
    /// The server's `max_sessions`.
    pub max_sessions: usize,
    /// Journal + synchronous follower.
    pub durable: bool,
    /// Drags per gesture, inclusive range.
    pub gesture: (usize, usize),
    /// Per action: probability of a `set_code` edit.
    pub p_set_code: f64,
    /// Per action: probability of an open ("Run Code").
    pub p_open: f64,
    /// Operations per connection replayed, closed loop, during set-up.
    pub warmup_ops: usize,
    /// Operations per connection in each closed-loop capacity round (a
    /// fixed count, so every run does the same work).
    pub capacity_ops: usize,
    /// Operations the traced run replays in-process.
    pub replay_ops: usize,
}

/// Every workload.
pub fn specs() -> Vec<Spec> {
    vec![
        Spec {
            name: "drag_fast",
            kind: Kind::DragFast,
            rate: 600.0,
            slots: 20,
            max_sessions: 1024,
            durable: false,
            gesture: (10, 24),
            p_set_code: 0.0,
            p_open: 0.0,
            warmup_ops: 300,
            capacity_ops: 500,
            replay_ops: 3000,
        },
        Spec {
            name: "commit_escaped",
            kind: Kind::CommitEscaped,
            rate: 300.0,
            slots: 20,
            max_sessions: 1024,
            durable: false,
            gesture: (1, 3),
            p_set_code: 0.0,
            p_open: 0.0,
            warmup_ops: 200,
            capacity_ops: 250,
            replay_ops: 1500,
        },
        Spec {
            name: "edit_durable",
            kind: Kind::EditDurable,
            rate: 100.0,
            slots: 14,
            max_sessions: 10,
            durable: true,
            gesture: (2, 4),
            p_set_code: 0.3,
            p_open: 0.15,
            warmup_ops: 60,
            capacity_ops: 150,
            replay_ops: 800,
        },
    ]
}

/// The programs a `drag_fast` session runs: the largest fast-tier ones.
///
/// Each workload deals an odd number of programs to its sessions in
/// equal shares, and every session gets the same number of operations.
/// A latency median then sits inside the middle program's cost mode,
/// not in the gap between two modes where a few samples either way
/// would move it by the whole gap.
const DRAG_FAST_PROGRAMS: &[&str] = &[
    "us50_flag",
    "keyboard",
    "tessellation",
    "chicago_flag",
    "ferris_wheel",
];

/// Mid-size corpus programs for `edit_durable`.
const EDIT_PROGRAMS: &[&str] = &[
    "wave_boxes",
    "logo",
    "chicago_flag",
    "solar_system",
    "sailboat",
    "bar_graph",
    "clique",
];

/// Edit variants kept per program and class.
const VARIANTS: usize = 4;

/// One program a session can run, with its draggable zones and its
/// validated code-edit variants.
#[derive(Debug)]
pub struct Entry {
    /// Corpus slug or generated name.
    pub label: String,
    /// Program text as sent on open.
    pub source: Arc<str>,
    /// Zones the workload drags: active, in the workload's commit tier.
    pub zones: Vec<(usize, Zone)>,
    /// Numeric-literal edits (`AstDiff::Literals` against `source`).
    pub literal: Vec<Arc<str>>,
    /// Renamed definitions (`AstDiff::Subtree`).
    pub subtree: Vec<Arc<str>>,
    /// A prepended definition (`AstDiff::Structural`).
    pub structural: Vec<Arc<str>>,
    /// For guarded programs: the drag distance beyond which the rightmost
    /// box crosses its guard.
    pub flip_margin: Option<i64>,
}

/// The programs of a workload, drawn from the seed.
pub fn catalog(spec: &Spec, seed: u64) -> Vec<Entry> {
    let mut rng = Rng::new(seed, 0xCA7A);
    let sources: Vec<(String, String, Option<i64>)> = match spec.kind {
        Kind::DragFast => DRAG_FAST_PROGRAMS
            .iter()
            .map(|s| (s.to_string(), corpus(s), None))
            .collect(),
        Kind::EditDurable => EDIT_PROGRAMS
            .iter()
            .map(|s| (s.to_string(), corpus(s), None))
            .collect(),
        Kind::CommitEscaped => (0..5).map(|i| guarded_program(&mut rng, i)).collect(),
    };
    sources
        .into_iter()
        .map(|(label, source, flip_margin)| entry(spec.kind, &mut rng, label, source, flip_margin))
        .collect()
}

fn corpus(slug: &str) -> String {
    sns_examples::by_slug(slug)
        .unwrap_or_else(|| panic!("corpus program `{slug}` is missing"))
        .source
        .to_string()
}

/// A seeded size variant of the escaped-drag program: `n` boxes spaced
/// by a frozen `sp`, each colored by a guard on its `x`. Dragging a box
/// moves `x0`, which every guard reads, so commits take the guard-replay
/// tier until the rightmost box crosses the threshold.
fn guarded_program(rng: &mut Rng, i: usize) -> (String, String, Option<i64>) {
    // Sizes sit within two boxes of a fixed ladder (28, 36, … 60) so
    // every seed's set costs about the same to run.
    let n = 28 + 8 * i as i64 + rng.int(-2, 2);
    let sp = rng.int(8, 14);
    let x0 = 40;
    let margin = rng.int(25, 60);
    let threshold = x0 + (n - 1) * sp + margin;
    let (y, w, h) = (rng.int(30, 80), rng.int(6, 12), rng.int(40, 120));
    let source = format!(
        "(def n {n}!)\n(def x0 {x0})\n(def sp {sp}!)\n(def boxi (λ i\n  (let x (+ x0 (* i sp))\n  \
         (let c (if (< x {threshold}!) 'lightblue' 'salmon')\n    (rect c x {y} {w} {h})))))\n\
         (svg (map boxi (zeroTo n)))\n"
    );
    (format!("guarded{i}_n{n}"), source, Some(margin))
}

fn prepare(source: &str) -> Option<LiveSync> {
    let mut program = Program::parse(source).ok()?;
    program.set_limits(sns_server::session::server_limits());
    LiveSync::new(program, LiveConfig::default()).ok()
}

/// The zones a workload drags on `live`.
fn zones_for(kind: Kind, live: &LiveSync) -> Vec<(usize, Zone)> {
    live.assignments()
        .zones
        .iter()
        .filter(|z| z.is_active() && live.trigger(z.shape, z.zone).is_some())
        .filter(|z| {
            let tier = live.zone_eligibility(z.shape, z.zone);
            match kind {
                Kind::DragFast => tier == PrepareEligibility::Fast,
                Kind::CommitEscaped => tier == PrepareEligibility::Partial,
                Kind::EditDurable => tier != PrepareEligibility::Full,
            }
        })
        .map(|z| (z.shape.0, z.zone))
        .collect()
}

fn entry(
    kind: Kind,
    rng: &mut Rng,
    label: String,
    source: String,
    flip_margin: Option<i64>,
) -> Entry {
    let live = prepare(&source).unwrap_or_else(|| panic!("`{label}` does not run"));
    let zones = zones_for(kind, &live);
    assert!(
        !zones.is_empty(),
        "`{label}` has no draggable zones for this workload"
    );
    let original = live.program().user_expr().clone();
    // A variant must run, keep every dragged zone, and diff as its class.
    let keep = |text: &str, want: fn(&AstDiff) -> bool| -> bool {
        let Some(v) = prepare(text) else { return false };
        want(&diff_exprs(&original, v.program().user_expr())) && zones_for(kind, &v) == zones
    };
    let numbers = number_spans(&source);
    let mut literal = Vec::new();
    for _ in 0..VARIANTS * 6 {
        if literal.len() == VARIANTS || numbers.is_empty() {
            break;
        }
        let (a, b) = numbers[rng.below(numbers.len())];
        let value: f64 = source[a..b].parse().expect("scanned a number");
        let text = splice(
            &source,
            a,
            b,
            &sns_lang::fmt_num(value + rng.int(1, 5) as f64),
        );
        if keep(&text, |d| matches!(d, AstDiff::Literals(_))) {
            literal.push(Arc::from(text));
        }
    }
    // A subtree edit renames one definition everywhere it is used: the
    // binding's pattern changes, so the diff sees one changed region
    // (with its literals intact) instead of a literal edit.
    let names = defined_names(&source);
    let mut subtree = Vec::new();
    for _ in 0..VARIANTS * 3 {
        if subtree.len() == VARIANTS || names.is_empty() {
            break;
        }
        let name = &names[rng.below(names.len())];
        let text = rename(&source, name, &format!("{name}{}", rng.int(2, 99)));
        if keep(&text, |d| matches!(d, AstDiff::Subtree { .. })) {
            subtree.push(Arc::from(text));
        }
    }
    let structural = (0..VARIANTS)
        .map(|_| format!("(def benchPad {})\n{source}", rng.int(1, 999)))
        .filter(|text| keep(text, |d| matches!(d, AstDiff::Structural)))
        .map(Arc::from)
        .collect();
    Entry {
        label,
        source: Arc::from(source),
        zones,
        literal,
        subtree,
        structural,
        flip_margin,
    }
}

fn splice(source: &str, a: usize, b: usize, with: &str) -> String {
    format!("{}{with}{}", &source[..a], &source[b..])
}

/// Byte ranges of unannotated numeric literals (not frozen with `!`,
/// not part of an identifier, outside comments and strings).
fn number_spans(src: &str) -> Vec<(usize, usize)> {
    let bytes = src.as_bytes();
    let mut out = Vec::new();
    let mut i = 0;
    while i < bytes.len() {
        match bytes[i] {
            b';' => {
                while i < bytes.len() && bytes[i] != b'\n' {
                    i += 1;
                }
            }
            b'\'' => {
                i += 1;
                while i < bytes.len() && bytes[i] != b'\'' {
                    i += 1;
                }
                i += 1;
            }
            c if c.is_ascii_digit() => {
                let prev = if i == 0 { b' ' } else { bytes[i - 1] };
                let start = i;
                while i < bytes.len() && (bytes[i].is_ascii_digit() || bytes[i] == b'.') {
                    i += 1;
                }
                let next = bytes.get(i).copied().unwrap_or(b' ');
                let standalone = matches!(prev, b' ' | b'\n' | b'\t' | b'(' | b'[');
                let unannotated = matches!(next, b' ' | b'\n' | b'\t' | b')' | b']');
                if standalone && unannotated {
                    out.push((start, i));
                }
            }
            c if c.is_ascii_alphabetic() || c == b'_' => {
                while i < bytes.len() && (bytes[i].is_ascii_alphanumeric() || bytes[i] == b'_') {
                    i += 1;
                }
            }
            _ => i += 1,
        }
    }
    out
}

/// Names bound by a plain `(def name …)`.
fn defined_names(src: &str) -> Vec<String> {
    let mut out: Vec<String> = src
        .match_indices("(def ")
        .filter_map(|(i, _)| {
            let rest = &src[i + 5..];
            let end = rest.find(|c: char| !(c.is_ascii_alphanumeric() || c == '_'))?;
            let name = &rest[..end];
            (end > 0 && name.starts_with(|c: char| c.is_ascii_alphabetic()))
                .then(|| name.to_string())
        })
        .collect();
    out.sort();
    out.dedup();
    out
}

/// Renames every whole-word occurrence of `from` outside comments and
/// strings.
fn rename(src: &str, from: &str, to: &str) -> String {
    let bytes = src.as_bytes();
    let is_ident = |b: u8| b.is_ascii_alphanumeric() || b == b'_';
    let mut out = String::with_capacity(src.len() + 64);
    let mut i = 0;
    while i < bytes.len() {
        let start = i;
        match bytes[i] {
            b';' => {
                while i < bytes.len() && bytes[i] != b'\n' {
                    i += 1;
                }
            }
            b'\'' => {
                i += 1;
                while i < bytes.len() && bytes[i] != b'\'' {
                    i += 1;
                }
                i = (i + 1).min(bytes.len());
            }
            c if is_ident(c) => {
                while i < bytes.len() && is_ident(bytes[i]) {
                    i += 1;
                }
                if &src[start..i] == from {
                    out.push_str(to);
                    continue;
                }
            }
            _ => {
                i += src[i..].chars().next().map_or(1, char::len_utf8);
            }
        }
        out.push_str(&src[start..i]);
    }
    out
}

/// One user operation against a slot's session.
#[derive(Debug, Clone)]
pub enum Op {
    /// Mouse-move: total offset `(dx, dy)` from the gesture's start.
    Drag {
        /// Slot.
        slot: usize,
        /// Shape id.
        shape: usize,
        /// Zone.
        zone: Zone,
        /// Total x offset.
        dx: f64,
        /// Total y offset.
        dy: f64,
    },
    /// Mouse-up.
    Commit {
        /// Slot.
        slot: usize,
    },
    /// Replace the program text.
    SetCode {
        /// Slot.
        slot: usize,
        /// New text.
        source: Arc<str>,
    },
    /// Run Code: open a fresh session on `entry`, read its canvas, and
    /// retire the slot's previous session.
    Open {
        /// Slot.
        slot: usize,
        /// Catalog index.
        entry: usize,
    },
}

impl Op {
    /// The slot the operation targets.
    pub fn slot(&self) -> usize {
        match self {
            Op::Drag { slot, .. }
            | Op::Commit { slot }
            | Op::SetCode { slot, .. }
            | Op::Open { slot, .. } => *slot,
        }
    }
}

/// A gesture to undo next: the same zone dragged back by the same
/// distance, so session state oscillates around the program as written.
type Return = (usize, Zone, i64, i64);

#[derive(Debug)]
struct SlotGen {
    slot: usize,
    entry: usize,
    pending: VecDeque<Op>,
    ret: Option<Return>,
    /// Upcoming actions, dealt from shuffled decks so every seed has the
    /// same action mix.
    deck: Vec<Action>,
    /// Code edits so far (their class rotates).
    edits: usize,
    /// New gestures so far (on guarded programs every fifth one crosses
    /// the guard).
    gestures: usize,
}

/// One user action.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Action {
    Gesture,
    SetCode,
    Open,
}

/// Actions per deck; each holds the spec's shares of edits and opens.
const DECK: usize = 20;

/// The endless, deterministic operation stream of one connection.
#[derive(Debug)]
pub struct Stream {
    rng: Rng,
    spec: Spec,
    catalog: Arc<Vec<Entry>>,
    slots: Vec<SlotGen>,
    /// Upcoming slot picks: each slot equally often, in shuffled order.
    order: Vec<usize>,
}

impl Stream {
    /// Connection `conn` of `conns`: it owns slots `conn, conn + conns, …`.
    pub fn new(
        spec: &Spec,
        catalog: Arc<Vec<Entry>>,
        seed: u64,
        conn: usize,
        conns: usize,
    ) -> Stream {
        let slots = (conn..spec.slots)
            .step_by(conns)
            .map(|slot| SlotGen {
                slot,
                entry: initial_entry(slot, catalog.len()),
                pending: VecDeque::new(),
                ret: None,
                deck: Vec::new(),
                edits: 0,
                gestures: 0,
            })
            .collect();
        Stream {
            rng: Rng::new(seed, 1 + conn as u64),
            spec: spec.clone(),
            catalog,
            slots,
            order: Vec::new(),
        }
    }

    /// The next operation.
    pub fn next_op(&mut self) -> Op {
        if self.order.is_empty() {
            self.order = (0..self.slots.len()).flat_map(|i| [i; 4]).collect();
            shuffle(&mut self.order, &mut self.rng);
        }
        let i = self.order.pop().expect("order refilled");
        if self.slots[i].pending.is_empty() {
            self.plan(i);
        }
        self.slots[i]
            .pending
            .pop_front()
            .expect("planned an action")
    }

    /// Queues the slot's next action: a gesture, an edit, or an open.
    fn plan(&mut self, i: usize) {
        let rng = &mut self.rng;
        let slot = &mut self.slots[i];
        if slot.deck.is_empty() {
            let opens = (self.spec.p_open * DECK as f64).round() as usize;
            let edits = (self.spec.p_set_code * DECK as f64).round() as usize;
            slot.deck = [
                (Action::Open, opens),
                (Action::SetCode, edits),
                (Action::Gesture, DECK - opens - edits),
            ]
            .into_iter()
            .flat_map(|(a, k)| std::iter::repeat_n(a, k))
            .collect();
            shuffle(&mut slot.deck, rng);
        }
        let entry = &self.catalog[slot.entry];
        let edit_classes: Vec<&Vec<Arc<str>>> = [&entry.literal, &entry.subtree, &entry.structural]
            .into_iter()
            .filter(|v| !v.is_empty())
            .collect();
        match slot.deck.pop().expect("deck refilled") {
            // Run Code: reopen the slot's program in a fresh session.
            Action::Open => {
                slot.ret = None;
                slot.pending.push_back(Op::Open {
                    slot: slot.slot,
                    entry: slot.entry,
                });
                return;
            }
            Action::SetCode if !edit_classes.is_empty() => {
                let pool = edit_classes[slot.edits % edit_classes.len()];
                slot.edits += 1;
                slot.ret = None;
                slot.pending.push_back(Op::SetCode {
                    slot: slot.slot,
                    source: Arc::clone(&pool[rng.below(pool.len())]),
                });
                return;
            }
            _ => {}
        }
        let (shape, zone, dx, dy) = match slot.ret.take() {
            Some((shape, zone, dx, dy)) => (shape, zone, -dx, -dy),
            None => {
                let (shape, zone) = entry.zones[rng.below(entry.zones.len())];
                slot.gestures += 1;
                let (dx, dy) = match entry.flip_margin {
                    // Guarded programs: horizontal moves; every fifth
                    // crosses the guard (and its return crosses back).
                    Some(m) if slot.gestures.is_multiple_of(5) => (rng.int(m + 5, m + 30), 0),
                    Some(m) => (rng.int(-30, m - 10), 0),
                    None => (rng.int(-25, 25), rng.int(-25, 25)),
                };
                slot.ret = Some((shape, zone, dx, dy));
                (shape, zone, dx, dy)
            }
        };
        let steps = rng.int(self.spec.gesture.0 as i64, self.spec.gesture.1 as i64);
        for k in 1..=steps {
            slot.pending.push_back(Op::Drag {
                slot: slot.slot,
                shape,
                zone,
                dx: (dx * k / steps) as f64,
                dy: (dy * k / steps) as f64,
            });
        }
        slot.pending.push_back(Op::Commit { slot: slot.slot });
    }
}

/// Fisher-Yates.
fn shuffle<T>(v: &mut [T], rng: &mut Rng) {
    for k in (1..v.len()).rev() {
        v.swap(k, rng.below(k + 1));
    }
}

/// The program a slot starts on: programs dealt round-robin.
pub fn initial_entry(slot: usize, entries: usize) -> usize {
    slot % entries
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scanners_skip_comments_strings_and_annotations() {
        let src = "; 12 comment\n(def x0 40)\n(def n 64!)\n(rect 'c9' x0 50 10{1-20} 2.5)";
        let found: Vec<&str> = number_spans(src).iter().map(|&(a, b)| &src[a..b]).collect();
        assert_eq!(found, vec!["40", "50", "2.5"]);
        assert_eq!(defined_names(src), vec!["n", "x0"]);
        assert_eq!(
            rename(src, "x0", "x07"),
            "; 12 comment\n(def x07 40)\n(def n 64!)\n(rect 'c9' x07 50 10{1-20} 2.5)"
        );
    }

    #[test]
    fn streams_are_seeded() {
        let spec = specs().remove(1);
        let cat = Arc::new(catalog(&spec, 7));
        let take = |seed| {
            let mut s = Stream::new(&spec, Arc::clone(&cat), seed, 1, 2);
            (0..200)
                .map(|_| format!("{:?}", s.next_op()))
                .collect::<Vec<_>>()
        };
        assert_eq!(take(7), take(7));
        assert_ne!(take(7), take(8));
        assert!(
            take(7).iter().all(|op| !op.contains("slot: 0,")),
            "connection 1 owns odd slots"
        );
    }
}
