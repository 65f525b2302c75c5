//! Per-layer metrics for `--trace 1`.
//!
//! Two sources, both timed from outside the layers:
//!
//! * **Server stages** — exact means from `_sum`/`_count` deltas of the
//!   server's own `/metrics` histograms over the open-loop phase, plus
//!   counter deltas (fault-ins, demotions).
//! * **Replay** — the same seeded operation stream, replayed in-process
//!   twice over, inside in-memory spans:
//!   - the *request path* a worker runs: `http` parse, `json` decode,
//!     `store` lookup, the `session` call, `json` encode, `http` encode
//!     (journal appends appear as children of the session call);
//!   - the *layer path* under a session: `sns-sync`, `sns-eval`,
//!     `sns-lang` and `sns-svg` calls in the order a session makes them.
//!
//!   The stream is replayed once more with spans disabled, and once more
//!   traced, to measure the tracing overhead.

use std::cell::RefCell;
use std::collections::{BTreeMap, HashMap};
use std::net::IpAddr;
use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};

use sns_eval::Program;
use sns_lang::{diff_exprs, Subst};
use sns_server::http::{ConnParser, Parsed, Response};
use sns_server::json::{self, Json};
use sns_server::persist::{JournalGauges, Op as JournalOp, SessionBackend};
use sns_server::session::Session;
use sns_server::store::SessionStore;
use sns_server::{JournalBackend, JournalConfig};
use sns_svg::{Canvas, RenderOptions, ShapeId};
use sns_sync::{LiveConfig, LiveSync, SetCodeClass};

use crate::client::request_bytes;
use crate::scrape::{delta, stage_mean, Metrics};
use crate::spans::{self, Tracer};
use crate::workload::{Entry, Op, Spec, Stream};
use crate::{median, Report};

/// Server-side metrics from two `/metrics` scrapes around a phase of
/// `ops` operations, and the follower apply times sampled during it.
pub fn server_side(
    report: &mut Report,
    before: &Metrics,
    after: &Metrics,
    ops: u64,
    applies: &[f64],
) {
    let n = delta(before, after, "sns_requests_total") as usize;
    for (metric, histogram) in [
        ("reactor.queue_us", "sns_stage_queue_us"),
        ("reactor.write_us", "sns_stage_write_us"),
        ("threadpool.request_us", "sns_request_us"),
        ("journal.append_us", "sns_stage_journal_us"),
        ("journal.fsync_us", "sns_stage_fsync_us"),
        ("repl.ack_us", "sns_stage_repl_ack_us"),
    ] {
        let count = delta(before, after, &format!("{histogram}_count")) as usize;
        report.put(metric, stage_mean(before, after, histogram), "us", count);
    }
    let per_1k = |counter: &str| delta(before, after, counter) * 1_000.0 / ops.max(1) as f64;
    report.put(
        "store.faultins_per_1k",
        per_1k("sns_faultins_total"),
        "count",
        n,
    );
    report.put(
        "store.demotions_per_1k",
        per_1k("sns_demotions_total"),
        "count",
        n,
    );
    let apply = if applies.is_empty() {
        0.0
    } else {
        applies.iter().sum::<f64>() / applies.len() as f64
    };
    report.put("repl.apply_us", apply, "us", applies.len());
}

thread_local! {
    /// Journal appends timed by [`TimedBackend`] since the last drain.
    static APPENDS: RefCell<Vec<(Instant, Instant)>> = const { RefCell::new(Vec::new()) };
}

/// A `SessionBackend` that times every `append` of the journal under it;
/// the session calls it from inside a span, and the replay files the
/// intervals as that span's children.
struct TimedBackend(Arc<JournalBackend>);

impl SessionBackend for TimedBackend {
    fn durable(&self) -> bool {
        self.0.durable()
    }
    fn append(&self, op: JournalOp<'_>) -> std::io::Result<()> {
        let start = Instant::now();
        let out = self.0.append(op);
        APPENDS.with(|a| a.borrow_mut().push((start, Instant::now())));
        out
    }
    fn applied_create(&self, id: &str, code: &str, owner: Option<IpAddr>) {
        self.0.applied_create(id, code, owner);
    }
    fn applied(&self, id: &str, code: Option<&str>) {
        self.0.applied(id, code);
    }
    fn applied_delete(&self, id: &str) {
        self.0.applied_delete(id);
    }
    fn contains(&self, id: &str) -> bool {
        self.0.contains(id)
    }
    fn code_of(&self, id: &str) -> Option<String> {
        self.0.code_of(id)
    }
    fn fault_in(&self, id: &str) -> Option<Session> {
        self.0.fault_in(id)
    }
    fn durable_sessions_of(&self, ip: IpAddr) -> usize {
        self.0.durable_sessions_of(ip)
    }
    fn ids(&self) -> Vec<String> {
        self.0.ids()
    }
    fn degraded(&self) -> bool {
        self.0.degraded()
    }
    fn gauges(&self) -> JournalGauges {
        self.0.gauges()
    }
}

/// Files the journal appends made since the last call as children of
/// the innermost open span.
fn adopt_appends(t: &mut Tracer) {
    for (start, end) in APPENDS.with(|a| std::mem::take(&mut *a.borrow_mut())) {
        t.record("journal.append", start, end);
    }
}

/// The server's request path, replayed on a store of its own.
struct RequestPath {
    store: SessionStore,
    journal: Option<Arc<JournalBackend>>,
    ids: HashMap<usize, String>,
    parser: ConnParser,
    bytes: Vec<u8>,
    head: Vec<u8>,
    resp_drag: Vec<usize>,
    resp_open: Vec<usize>,
}

impl RequestPath {
    fn new(spec: &Spec, dir: &Path) -> Result<RequestPath, String> {
        let (store, journal) = if spec.durable {
            let _ = std::fs::remove_dir_all(dir);
            let (journal, _) = JournalBackend::open(JournalConfig {
                // Keep every record on disk so bytes per record is exact.
                compact_bytes: u64::MAX,
                compact_factor: u64::MAX,
                ..JournalConfig::new(dir)
            })
            .map_err(|e| format!("replay journal: {e}"))?;
            let journal = Arc::new(journal);
            let backend = Arc::new(TimedBackend(Arc::clone(&journal)));
            (
                SessionStore::with_backend(spec.max_sessions, backend),
                Some(journal),
            )
        } else {
            (SessionStore::new(spec.max_sessions), None)
        };
        Ok(RequestPath {
            store,
            journal,
            ids: HashMap::new(),
            parser: ConnParser::new(),
            bytes: Vec::new(),
            head: Vec::new(),
            resp_drag: Vec::new(),
            resp_open: Vec::new(),
        })
    }

    /// One request: parse, decode, look up, call the session, encode.
    /// Returns the response body's length.
    fn request(
        &mut self,
        t: &mut Tracer,
        method: &str,
        path: &str,
        body: &[u8],
        call: impl FnOnce(&mut Tracer, &SessionStore, Option<&Json>) -> Json,
    ) -> usize {
        request_bytes(method, path, body, &mut self.bytes);
        let (parser, bytes) = (&mut self.parser, &self.bytes);
        let request = t.span("http.parse", |_| {
            parser.feed(bytes);
            match parser.advance() {
                Parsed::Request(r) => r,
                other => panic!("replayed request does not parse: {other:?}"),
            }
        });
        let decoded = (!request.body.is_empty()).then(|| {
            t.span("json.decode", |_| {
                json::parse(std::str::from_utf8(&request.body).expect("utf-8 body"))
                    .expect("json body")
            })
        });
        let value = call(t, &self.store, decoded.as_ref());
        let text = t.span("json.encode", |_| value.to_string());
        let len = text.len();
        let head = &mut self.head;
        t.span("http.encode", |_| {
            Response::json(200, text).encode_head_into(true, head)
        });
        len
    }

    fn session_call(
        t: &mut Tracer,
        store: &SessionStore,
        id: &str,
        name: &'static str,
        f: impl FnOnce(&mut Session) -> Json,
    ) -> Json {
        let arc = t.span("store.get", |_| {
            let arc = store.get(id).expect("replayed session exists");
            drop(arc.lock().expect("session lock"));
            arc
        });
        let mut session = arc.lock().expect("session lock");
        t.span(name, |t| {
            let out = f(&mut session);
            adopt_appends(t);
            out
        })
    }

    fn op(&mut self, t: &mut Tracer, op: &Op, catalog: &[Entry]) {
        let id = self.ids.get(&op.slot()).cloned().unwrap_or_default();
        match op {
            Op::Drag {
                shape,
                zone,
                dx,
                dy,
                ..
            } => {
                let body = format!(r#"{{"shape":{shape},"zone":"{zone}","dx":{dx},"dy":{dy}}}"#);
                let len = t.span("req.drag", |t| {
                    self.request(
                        t,
                        "POST",
                        &format!("/sessions/{id}/drag"),
                        body.as_bytes(),
                        |t, store, _| {
                            Self::session_call(t, store, &id, "session.drag", |s| {
                                s.drag(ShapeId(*shape), *zone, *dx, *dy)
                                    .expect("replayed drag")
                            })
                        },
                    )
                });
                self.resp_drag.push(len);
            }
            Op::Commit { .. } => {
                t.span("req.commit", |t| {
                    self.request(
                        t,
                        "POST",
                        &format!("/sessions/{id}/commit"),
                        b"",
                        |t, store, _| {
                            Self::session_call(t, store, &id, "session.commit", |s| {
                                s.commit().expect("replayed commit");
                                Json::obj([("code", Json::str(s.code()))])
                            })
                        },
                    )
                });
            }
            Op::SetCode { source, .. } => {
                let body = Json::obj([("source", Json::str(source.as_ref()))]).to_string();
                t.span("req.set_code", |t| {
                    self.request(
                        t,
                        "PUT",
                        &format!("/sessions/{id}/code"),
                        body.as_bytes(),
                        |t, store, _| {
                            Self::session_call(t, store, &id, "session.set_code", |s| {
                                s.set_code(source).expect("replayed set_code")
                            })
                        },
                    )
                });
            }
            Op::Open { slot, entry } => {
                let source = catalog[*entry].source.as_ref();
                let body = Json::obj([("source", Json::str(source))]).to_string();
                let new_id = self.store.fresh_id();
                let nid = new_id.clone();
                let len = t.span("req.open", |t| {
                    let created =
                        self.request(t, "POST", "/sessions", body.as_bytes(), |t, store, json| {
                            let src = json
                                .and_then(|j| j.get("source"))
                                .and_then(Json::as_str)
                                .expect("source");
                            let mut session = t.span("session.create", |_| {
                                Session::create(nid.clone(), src).expect("replayed open")
                            });
                            let code = session.code();
                            let canvas = t.span("session.canvas", |_| session.canvas_json());
                            let _ = session.live_stats_delta();
                            t.span("store.insert", |t| {
                                store.insert(session);
                                adopt_appends(t);
                            });
                            Json::obj([
                                ("id", Json::str(nid)),
                                ("code", Json::str(code)),
                                ("canvas", canvas),
                            ])
                        });
                    let canvas = self.request(
                        t,
                        "GET",
                        &format!("/sessions/{new_id}/canvas"),
                        b"",
                        |t, store, _| {
                            Self::session_call(t, store, &new_id, "session.canvas", |s| {
                                s.canvas_json()
                            })
                        },
                    );
                    created + canvas
                });
                self.resp_open.push(len);
                if !id.is_empty() {
                    t.span("store.remove", |t| {
                        self.store.remove(&id).expect("replayed delete");
                        adopt_appends(t);
                    });
                }
                self.ids.insert(*slot, new_id);
            }
        }
    }
}

/// Commit tiers and code-edit classes seen by the layer path.
#[derive(Debug, Default)]
struct Counts {
    commits: u64,
    fast: u64,
    partial: u64,
    full: u64,
    classes: BTreeMap<&'static str, u64>,
}

/// The layers under a session, replayed on plain `LiveSync`s.
#[derive(Default)]
struct LayerPath {
    slots: HashMap<usize, (LiveSync, Option<Subst>)>,
    counts: Counts,
}

impl LayerPath {
    fn commit(t: &mut Tracer, live: &mut LiveSync, subst: &Subst, counts: &mut Counts) {
        let before = live.stats();
        t.span("sync.commit", |_| {
            live.commit(subst).expect("replayed commit")
        });
        let after = live.stats();
        counts.commits += 1;
        counts.fast += after.incremental_prepares - before.incremental_prepares;
        counts.partial += after.partial_prepares - before.partial_prepares;
        counts.full += after.full_prepares - before.full_prepares;
    }

    fn op(&mut self, t: &mut Tracer, op: &Op, catalog: &[Entry]) {
        let counts = &mut self.counts;
        match op {
            Op::Open { slot, entry } => {
                let live = t.span("layers.open", |t| {
                    let mut program = t.span("lang.parse", |_| {
                        Program::parse(&catalog[*entry].source).expect("parses")
                    });
                    program.set_limits(sns_server::session::server_limits());
                    let outcome = t.span("eval.eval", |_| program.eval_traced().expect("runs"));
                    t.span("svg.canvas", |_| {
                        Canvas::from_value(&outcome.value).expect("renders")
                    });
                    let live = t.span("sync.prepare", |_| {
                        LiveSync::new(program, LiveConfig::default()).expect("prepares")
                    });
                    t.span("svg.render", |_| {
                        sns_svg::render(live.canvas().root(), RenderOptions { hide_hidden: true })
                    });
                    live
                });
                self.slots.insert(*slot, (live, None));
            }
            Op::Drag {
                slot,
                shape,
                zone,
                dx,
                dy,
            } => {
                let (live, pending) = self.slots.get_mut(slot).expect("slot opened");
                t.span("layers.drag", |t| {
                    let r = t.span("sync.drag", |_| {
                        live.drag(ShapeId(*shape), *zone, *dx, *dy).expect("drags")
                    });
                    let preview = t.span("eval.preview", |_| live.program().with_subst(&r.subst));
                    t.span("lang.unparse", |_| preview.code());
                    *pending = Some(r.subst);
                });
            }
            Op::Commit { slot } => {
                let (live, pending) = self.slots.get_mut(slot).expect("slot opened");
                if let Some(subst) = pending.take() {
                    t.span("layers.commit", |t| Self::commit(t, live, &subst, counts));
                }
            }
            Op::SetCode { slot, source } => {
                let (live, pending) = self.slots.get_mut(slot).expect("slot opened");
                if let Some(subst) = pending.take() {
                    Self::commit(t, live, &subst, counts);
                }
                let class = t.span("layers.set_code", |t| {
                    let program = t.span("lang.parse", |_| Program::parse(source).expect("parses"));
                    t.span("lang.diff", |_| {
                        diff_exprs(live.program().user_expr(), program.user_expr())
                    });
                    t.span("sync.set_code", |_| {
                        live.set_program_diffed(program).expect("edits")
                    })
                });
                let name = match class {
                    SetCodeClass::Identical => "identical",
                    SetCodeClass::Literals => "literals",
                    SetCodeClass::Subtree => "subtree",
                    SetCodeClass::Structural => "structural",
                };
                *counts.classes.entry(name).or_default() += 1;
            }
        }
    }
}

/// The replayed stream: every connection's operations, dealt round-robin
/// the way the generators interleave them.
struct Ops {
    streams: Vec<Stream>,
    prefix: Vec<Op>,
    next: usize,
}

impl Ops {
    fn new(spec: &Spec, catalog: &Arc<Vec<Entry>>, seed: u64, cores: usize) -> Ops {
        let prefix = (0..spec.slots)
            .map(|slot| Op::Open {
                slot,
                entry: crate::workload::initial_entry(slot, catalog.len()),
            })
            .collect();
        Ops {
            streams: (0..cores)
                .map(|c| Stream::new(spec, Arc::clone(catalog), seed, c, cores))
                .collect(),
            prefix,
            next: 0,
        }
    }

    fn get(&mut self, i: usize) -> &Op {
        while self.prefix.len() <= i {
            let k = self.next % self.streams.len();
            self.next += 1;
            let op = self.streams[k].next_op();
            self.prefix.push(op);
        }
        &self.prefix[i]
    }
}

/// One replay pass over the first `n` operations. Returns the pass's
/// wall time and the two paths' state.
fn pass(
    spec: &Spec,
    catalog: &[Entry],
    ops: &mut Ops,
    t: &mut Tracer,
    dir: &Path,
    n: usize,
) -> Result<(Duration, RequestPath, LayerPath), String> {
    let mut req = RequestPath::new(spec, dir)?;
    let mut layers = LayerPath::default();
    let t0 = Instant::now();
    for i in 0..n {
        let op = ops.get(i).clone();
        t.next_request();
        req.op(t, &op, catalog);
        layers.op(t, &op, catalog);
    }
    Ok((t0.elapsed(), req, layers))
}

fn median_us(v: &[u64]) -> f64 {
    let mut v = v.to_vec();
    v.sort_unstable();
    v.get(v.len() / 2).map_or(0.0, |&ns| ns as f64 / 1_000.0)
}

/// Unique pre-equations of the workload's programs (one per trigger part
/// and distinct trace), each solved a few times inside spans.
fn time_solver(t: &mut Tracer, catalog: &[Entry]) {
    for entry in catalog {
        let Ok(program) = Program::parse(&entry.source) else {
            continue;
        };
        let Ok(live) = LiveSync::new(program, LiveConfig::default()) else {
            continue;
        };
        let rho0 = live.program().subst();
        let mut seen = std::collections::HashSet::new();
        for &(shape, zone) in &entry.zones {
            let Some(trigger) = live.trigger(ShapeId(shape), zone) else {
                continue;
            };
            for part in &trigger.parts {
                if !seen.insert((part.loc, Arc::as_ptr(&part.trace))) {
                    continue;
                }
                let eq = sns_solver::Equation::new(part.base + 5.0, Arc::clone(&part.trace));
                for _ in 0..3 {
                    t.span("solver.solve", |_| {
                        std::hint::black_box(sns_solver::solve(&rho0, part.loc, &eq))
                    });
                }
            }
        }
    }
}

/// The in-process replay of the first `spec.replay_ops` operations:
/// per-layer self times, tier counts, the drag residual against the
/// client's median, and the tracing overhead.
pub fn replay(
    spec: &Spec,
    catalog: &Arc<Vec<Entry>>,
    seed: u64,
    cores: usize,
    tmp: &Path,
    client_p50: &[f64],
    report: &mut Report,
) -> Result<(), String> {
    let mut ops = Ops::new(spec, catalog, seed, cores);
    let n = spec.slots + spec.replay_ops;
    let dir = tmp.join("replay");
    let mut t = Tracer::default();
    let (_, req, layers) = pass(spec, catalog, &mut ops, &mut t, &dir, n)?;
    let gauges = req.journal.as_ref().map(|j| j.gauges());
    time_solver(&mut t, catalog);

    // Overhead: a third of the stream, replayed untraced and traced in
    // alternation, three times each; medians of the pass times.
    let m = (n / 3).max(spec.slots + 1);
    let (mut untraced, mut traced, mut spans_per_pass) = (Vec::new(), Vec::new(), 0);
    for _ in 0..3 {
        let (u, ..) = pass(spec, catalog, &mut ops, &mut Tracer::disabled(), &dir, m)?;
        let mut on = Tracer::default();
        let (d, ..) = pass(spec, catalog, &mut ops, &mut on, &dir, m)?;
        untraced.push(u.as_secs_f64());
        traced.push(d.as_secs_f64());
        spans_per_pass = on.spans().len();
    }
    let _ = std::fs::remove_dir_all(&dir);
    let (untraced, traced) = (median(&mut untraced), median(&mut traced));
    let overhead = (traced / untraced - 1.0) * 100.0;
    println!(
        "# replay: {n} ops traced; overhead passes of {m} ops: untraced {untraced:.3} s, \
         traced {traced:.3} s ({spans_per_pass} spans)"
    );
    report.put("trace.overhead_pct", overhead, "%", m);

    let spans = t.spans();
    let selfs = spans::self_times(spans);
    let mut by_name: BTreeMap<&str, Vec<u64>> = BTreeMap::new();
    let mut drag_path: BTreeMap<&str, Vec<u64>> = BTreeMap::new();
    for (i, (s, &ns)) in spans.iter().zip(&selfs).enumerate() {
        by_name.entry(s.name).or_default().push(ns);
        let mut root = i;
        while let Some(p) = spans[root].parent {
            root = p;
        }
        if spans[root].name == "req.drag" && root != i {
            drag_path.entry(s.name).or_default().push(ns);
        }
    }
    for (metric, span) in [
        ("http.parse_us", "http.parse"),
        ("http.encode_us", "http.encode"),
        ("json.decode_us", "json.decode"),
        ("json.encode_us", "json.encode"),
        ("store.get_us", "store.get"),
        ("session.drag_us", "session.drag"),
        ("session.commit_us", "session.commit"),
        ("session.set_code_us", "session.set_code"),
        ("session.create_us", "session.create"),
        ("session.canvas_us", "session.canvas"),
        ("sync.drag_us", "sync.drag"),
        ("sync.commit_us", "sync.commit"),
        ("sync.set_code_us", "sync.set_code"),
        ("sync.prepare_us", "sync.prepare"),
        ("eval.preview_us", "eval.preview"),
        ("eval.eval_us", "eval.eval"),
        ("lang.parse_us", "lang.parse"),
        ("lang.unparse_us", "lang.unparse"),
        ("lang.diff_us", "lang.diff"),
        ("svg.canvas_us", "svg.canvas"),
        ("svg.render_us", "svg.render"),
        ("solver.solve_us", "solver.solve"),
        ("journal.direct_append_us", "journal.append"),
    ] {
        let v = by_name.get(span).map_or(&[][..], Vec::as_slice);
        report.put(metric, median_us(v), "us", v.len());
    }
    let medians: Vec<f64> = drag_path.values().map(|v| median_us(v)).collect();
    let residual = spans::residual(client_p50[0], &medians);
    println!(
        "# drag residual: client p50 {:.1} us - layers {} = {residual:.1} us",
        client_p50[0],
        drag_path
            .iter()
            .map(|(k, v)| format!("{k} {:.1}", median_us(v)))
            .collect::<Vec<_>>()
            .join(" + ")
    );
    report.put(
        "reactor.residual_us",
        residual,
        "us",
        drag_path.values().map(Vec::len).max().unwrap_or(0),
    );

    let mean = |v: &[usize]| v.iter().sum::<usize>() as f64 / v.len().max(1) as f64;
    report.put(
        "json.resp_bytes_drag",
        mean(&req.resp_drag),
        "bytes",
        req.resp_drag.len(),
    );
    report.put(
        "json.resp_bytes_open",
        mean(&req.resp_open),
        "bytes",
        req.resp_open.len(),
    );
    let c = &layers.counts;
    let commits = c.commits as usize;
    report.put("sync.commit_fast", c.fast as f64, "count", commits);
    report.put("sync.commit_partial", c.partial as f64, "count", commits);
    report.put("sync.commit_full", c.full as f64, "count", commits);
    report.put(
        "sync.commit_fast_ratio",
        c.fast as f64 / c.commits.max(1) as f64,
        "ratio",
        commits,
    );
    for class in ["identical", "literals", "subtree", "structural"] {
        let k = c.classes.get(class).copied().unwrap_or(0);
        report.put(&format!("sync.set_code_{class}"), k as f64, "count", 1);
    }
    let appends = by_name.get("journal.append").map_or(0, Vec::len);
    let (fsyncs, bytes) = gauges.map_or((0.0, 0.0), |g| (g.fsyncs as f64, g.journal_bytes as f64));
    let per_record = |x: f64| if appends > 0 { x / appends as f64 } else { 0.0 };
    report.put(
        "journal.fsyncs_per_record",
        per_record(fsyncs),
        "count",
        appends,
    );
    report.put(
        "journal.bytes_per_record",
        per_record(bytes),
        "bytes",
        appends,
    );

    let dir = tmp.parent().unwrap_or(tmp);
    let file = dir.join(format!("spans-{}.jsonl", spec.name));
    if let Ok(f) = std::fs::create_dir_all(dir).and_then(|()| std::fs::File::create(&file)) {
        let mut w = std::io::BufWriter::new(f);
        if t.write_jsonl(&mut w).is_ok() {
            println!("# spans written to {}", file.display());
        }
    }
    Ok(())
}
