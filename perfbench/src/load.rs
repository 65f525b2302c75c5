//! The in-process server rig and the load generator.
//!
//! One server (plus, for durable workloads, one synchronous follower)
//! runs inside this process on loopback. Each *generator* owns one
//! keep-alive connection, the slots dealt to it, and its seeded operation
//! stream; generators run on their own threads, at most one per core.

use std::collections::HashMap;
use std::io;
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use sns_server::json::Json;
use sns_server::store::shard_index;
use sns_server::{FsyncPolicy, Server, ServerConfig, ShutdownHandle};

use crate::client::{code_field, fnv, id_field, Conn};
use crate::recorder::Samples;
use crate::workload::{Entry, Op, Spec, Stream};

/// One running server.
struct Node {
    addr: SocketAddr,
    handle: ShutdownHandle,
    thread: JoinHandle<io::Result<()>>,
}

fn start(config: ServerConfig) -> io::Result<(Node, Option<SocketAddr>)> {
    let server = Server::bind(&config)?;
    let addr = server.local_addr()?;
    let repl = server.repl_addr();
    let handle = server.shutdown_handle();
    let thread = std::thread::Builder::new()
        .name("bench-server".to_string())
        .spawn(move || server.run())?;
    Ok((
        Node {
            addr,
            handle,
            thread,
        },
        repl,
    ))
}

impl Node {
    fn stop(self) -> io::Result<()> {
        self.handle.shutdown();
        self.thread
            .join()
            .map_err(|_| io::Error::other("server thread panicked"))?
    }
}

/// The server under test, and its follower when the workload is durable.
pub struct Rig {
    leader: Node,
    follower: Option<Node>,
    dirs: Vec<PathBuf>,
}

/// The server configuration a workload runs: production defaults
/// (tracing on), sized to the host's cores.
pub fn leader_config(spec: &Spec, cores: usize, data_dir: Option<PathBuf>) -> ServerConfig {
    ServerConfig {
        addr: "127.0.0.1:0".to_string(),
        threads: cores,
        reactors: cores,
        max_sessions: spec.max_sessions,
        repl_listen: data_dir.as_ref().map(|_| "127.0.0.1:0".to_string()),
        replicate_to: usize::from(data_dir.is_some()),
        fsync: FsyncPolicy::default(),
        data_dir,
        ..ServerConfig::default()
    }
}

impl Rig {
    /// Boots the workload's server(s); durable workloads get a journal in
    /// a fresh directory under `tmp` and a connected sync follower.
    ///
    /// # Errors
    ///
    /// Bind, journal, or follower-connection failures.
    pub fn boot(spec: &Spec, cores: usize, tmp: &Path, tag: &str) -> io::Result<Rig> {
        if !spec.durable {
            let (leader, _) = start(leader_config(spec, cores, None))?;
            return Ok(Rig {
                leader,
                follower: None,
                dirs: Vec::new(),
            });
        }
        let dirs = vec![
            tmp.join(format!("{tag}-leader")),
            tmp.join(format!("{tag}-follower")),
        ];
        for d in &dirs {
            let _ = std::fs::remove_dir_all(d);
        }
        let (leader, repl) = start(leader_config(spec, cores, Some(dirs[0].clone())))?;
        // The follower keeps the default session capacity: only the
        // leader's working set exceeds `max_sessions`. A follower that
        // also demoted would fault sessions back in (a full prepare)
        // inside the commit's replication ack, and that cost would swamp
        // the journal, fsync and apply times the ack is there to show.
        let (follower, _) = start(ServerConfig {
            addr: "127.0.0.1:0".to_string(),
            threads: 1,
            reactors: 1,
            follow: repl.map(|a| a.to_string()),
            data_dir: Some(dirs[1].clone()),
            ..ServerConfig::default()
        })?;
        let rig = Rig {
            leader,
            follower: Some(follower),
            dirs,
        };
        // Writes block until the sync follower is connected; wait here so
        // set-up, not the first measured write, pays for the handshake.
        let deadline = Instant::now() + Duration::from_secs(10);
        let mut conn = Conn::new(rig.leader.addr);
        while crate::scrape::metrics(&mut conn)?.value("sns_repl_followers_connected") < 1.0 {
            if Instant::now() > deadline {
                return Err(io::Error::other("follower never connected"));
            }
            std::thread::sleep(Duration::from_millis(5));
        }
        Ok(rig)
    }

    /// The server's HTTP address.
    pub fn addr(&self) -> SocketAddr {
        self.leader.addr
    }

    /// The follower's HTTP address, if there is one.
    pub fn follower_addr(&self) -> Option<SocketAddr> {
        self.follower.as_ref().map(|f| f.addr)
    }

    /// Drains and stops every server, then removes their data.
    ///
    /// # Errors
    ///
    /// A server that failed or panicked.
    pub fn stop(self) -> io::Result<()> {
        let leader = self.leader.stop();
        let follower = self.follower.map_or(Ok(()), Node::stop);
        for d in &self.dirs {
            let _ = std::fs::remove_dir_all(d);
        }
        leader.and(follower)
    }
}

/// What one operation returned, kept for the output oracle.
#[derive(Debug, Clone)]
pub struct Event {
    /// The operation.
    pub op: Op,
    /// The HTTP status of its main request (0 = transport error).
    pub status: u16,
    /// Fingerprint of the response's `code` field, if it had one.
    pub code: Option<u64>,
}

/// Operation kinds with their own latency metrics.
pub const KINDS: [&str; 4] = ["drag", "commit", "set_code", "open"];

fn kind_index(op: &Op) -> usize {
    match op {
        Op::Drag { .. } => 0,
        Op::Commit { .. } => 1,
        Op::SetCode { .. } => 2,
        Op::Open { .. } => 3,
    }
}

/// The client-side record of one phase on one generator.
#[derive(Debug, Default)]
pub struct PhaseStats {
    /// Latency per kind (open loop: from the intended send time).
    pub latency: [Samples; 4],
    /// `(seconds into the phase, ns late)` of each send versus its
    /// schedule (open loop only).
    pub late: Vec<(f64, u64)>,
    /// Operations attempted.
    pub attempted: u64,
    /// Operations answered non-2xx or not at all.
    pub failed: u64,
    /// Wall-clock length of the phase.
    pub elapsed: f64,
}

/// How a phase paces its operations.
#[derive(Debug, Clone, Copy)]
pub enum Pace {
    /// Closed loop: a fixed number of operations per generator, back to
    /// back, stopping early if the time cap runs out.
    Closed(usize, Duration),
    /// On a fixed schedule of `rate` operations/s across all generators,
    /// for a duration (open loop).
    Open(f64, Duration),
}

/// The program a reactor probe opens.
const PROBE_SOURCE: &str = "(svg [])";

/// One connection's load generator.
pub struct Generator {
    addr: SocketAddr,
    conn: Conn,
    stream: Stream,
    catalog: Arc<Vec<Entry>>,
    /// Slot → current session id.
    pub ids: HashMap<usize, String>,
    /// Every operation sent, in order.
    pub history: Vec<Event>,
    index: usize,
    generators: usize,
}

impl Generator {
    /// Generator `index` of `generators` against `addr`.
    pub fn new(
        addr: SocketAddr,
        spec: &Spec,
        catalog: Arc<Vec<Entry>>,
        seed: u64,
        index: usize,
        generators: usize,
    ) -> Generator {
        Generator {
            addr,
            conn: Conn::new(addr),
            stream: Stream::new(spec, Arc::clone(&catalog), seed, index, generators),
            catalog,
            ids: HashMap::new(),
            history: Vec::new(),
            index,
            generators,
        }
    }

    /// The slots this generator owns.
    pub fn slots(&self, total: usize) -> Vec<usize> {
        (self.index..total).step_by(self.generators).collect()
    }

    /// Reconnects until the connection is served by reactor
    /// `index % reactors`, so the generators' connections spread evenly
    /// over the server's reactors. The kernel deals `SO_REUSEPORT`
    /// accepts by a hash of the client's port, so on a 2-core host two
    /// connections share one reactor half the time, and since each reactor
    /// owns a slice of the worker pool, such a run would serve all its
    /// load from half the workers. A probe session's id tells which
    /// reactor created it: ids are aligned to the creating reactor's store
    /// shards.
    ///
    /// # Errors
    ///
    /// A failed probe, or no connection reaching the reactor.
    pub fn pin_reactor(&mut self, reactors: usize) -> io::Result<()> {
        if reactors <= 1 {
            return Ok(());
        }
        let body = Json::obj([("source", Json::str(PROBE_SOURCE))]).to_string();
        for _ in 0..64 {
            let opened = self.conn.request("POST", "/sessions", body.as_bytes())?;
            let id = id_field(&opened.body)
                .filter(|_| opened.ok())
                .ok_or_else(|| {
                    io::Error::other(format!("probe open answered {}", opened.status))
                })?;
            let gone = self
                .conn
                .request("DELETE", &format!("/sessions/{id}"), b"")?;
            if !gone.ok() {
                return Err(io::Error::other(format!(
                    "probe delete answered {}",
                    gone.status
                )));
            }
            if shard_index(&id) % reactors == self.index % reactors {
                return Ok(());
            }
            self.conn = Conn::new(self.addr);
        }
        Err(io::Error::other("no connection reached its reactor"))
    }

    /// Opens the initial session of every owned slot.
    pub fn open_slots(&mut self, total: usize) -> PhaseStats {
        let mut stats = PhaseStats::default();
        for slot in self.slots(total) {
            let entry = crate::workload::initial_entry(slot, self.catalog.len());
            self.execute(Op::Open { slot, entry }, &mut stats);
        }
        stats
    }

    /// Sends one operation; returns when its measured part completed.
    fn execute(&mut self, op: Op, stats: &mut PhaseStats) -> Instant {
        stats.attempted += 1;
        let slot = op.slot();
        let id = self.ids.get(&slot).cloned().unwrap_or_default();
        let (reply, done) = match &op {
            Op::Drag {
                shape,
                zone,
                dx,
                dy,
                ..
            } => {
                let body = format!(r#"{{"shape":{shape},"zone":"{zone}","dx":{dx},"dy":{dy}}}"#);
                let r = self
                    .conn
                    .request("POST", &format!("/sessions/{id}/drag"), body.as_bytes());
                (r, Instant::now())
            }
            Op::Commit { .. } => {
                let r = self
                    .conn
                    .request("POST", &format!("/sessions/{id}/commit"), b"");
                (r, Instant::now())
            }
            Op::SetCode { source, .. } => {
                let body = Json::obj([("source", Json::str(source.as_ref()))]).to_string();
                let r = self
                    .conn
                    .request("PUT", &format!("/sessions/{id}/code"), body.as_bytes());
                (r, Instant::now())
            }
            Op::Open { entry, .. } => {
                let source = self.catalog[*entry].source.as_ref();
                let body = Json::obj([("source", Json::str(source))]).to_string();
                let created = self.conn.request("POST", "/sessions", body.as_bytes());
                let new_id = created
                    .as_ref()
                    .ok()
                    .filter(|r| r.ok())
                    .and_then(|r| id_field(&r.body));
                match new_id {
                    Some(new_id) => {
                        let canvas =
                            self.conn
                                .request("GET", &format!("/sessions/{new_id}/canvas"), b"");
                        let done = Instant::now();
                        if !canvas.is_ok_and(|r| r.ok()) {
                            stats.failed += 1;
                        }
                        if !id.is_empty() {
                            let gone = self.conn.request("DELETE", &format!("/sessions/{id}"), b"");
                            if !gone.is_ok_and(|r| r.ok()) {
                                stats.failed += 1;
                            }
                        }
                        self.ids.insert(slot, new_id);
                        (created, done)
                    }
                    None => (created, Instant::now()),
                }
            }
        };
        let (status, code) = match &reply {
            Ok(r) => (r.status, code_field(&r.body).map(fnv)),
            Err(_) => (0, None),
        };
        if !(200..300).contains(&status) {
            stats.failed += 1;
        }
        self.history.push(Event { op, status, code });
        done
    }

    /// Runs one phase of this generator's stream.
    pub fn run(&mut self, pace: Pace) -> PhaseStats {
        let mut stats = PhaseStats::default();
        let t0 = Instant::now();
        match pace {
            Pace::Closed(n, cap) => {
                for _ in 0..n {
                    if t0.elapsed() >= cap {
                        break;
                    }
                    let op = self.stream.next_op();
                    self.execute(op, &mut stats);
                }
            }
            Pace::Open(rate, d) => {
                let period = self.generators as f64 / rate;
                let offset = self.index as f64 / rate;
                for k in 0.. {
                    let at = offset + k as f64 * period;
                    if at >= d.as_secs_f64() {
                        break;
                    }
                    let intended = t0 + Duration::from_secs_f64(at);
                    wait_until(intended);
                    let late = Instant::now().saturating_duration_since(intended);
                    stats.late.push((at, late.as_nanos() as u64));
                    let op = self.stream.next_op();
                    let kind = kind_index(&op);
                    let done = self.execute(op, &mut stats);
                    stats.latency[kind].push(done.duration_since(intended).as_nanos() as u64);
                }
            }
        }
        stats.elapsed = t0.elapsed().as_secs_f64();
        stats
    }

    /// Reads every owned session's final program text.
    pub fn final_codes(
        &mut self,
        addr: Option<SocketAddr>,
    ) -> (HashMap<usize, Option<u64>>, PhaseStats) {
        let mut stats = PhaseStats::default();
        let mut conn = addr.map(Conn::new);
        let mut out = HashMap::new();
        let mut slots: Vec<_> = self.ids.iter().map(|(s, id)| (*s, id.clone())).collect();
        slots.sort();
        for (slot, id) in slots {
            stats.attempted += 1;
            let c = conn.as_mut().unwrap_or(&mut self.conn);
            let code = match c.request("GET", &format!("/sessions/{id}/code"), b"") {
                Ok(r) if r.ok() => code_field(&r.body).map(fnv),
                _ => None,
            };
            if code.is_none() {
                stats.failed += 1;
            }
            out.insert(slot, code);
        }
        (out, stats)
    }
}

/// Yields until `t` instead of sleeping, for the same reason [`Conn`]
/// polls: a send leaves within microseconds of its schedule and the core
/// never idles.
fn wait_until(t: Instant) {
    while Instant::now() < t {
        std::thread::yield_now();
    }
}

/// Runs `f` on every generator, each on its own thread, and collects the
/// results in generator order.
pub fn on_all<T: Send>(
    generators: &mut [Generator],
    f: impl Fn(&mut Generator) -> T + Sync,
) -> Vec<T> {
    std::thread::scope(|s| {
        let handles: Vec<_> = generators.iter_mut().map(|d| s.spawn(|| f(d))).collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("generator thread panicked"))
            .collect()
    })
}

/// Merges per-generator phase records.
pub fn merge(parts: Vec<PhaseStats>) -> PhaseStats {
    let mut out = PhaseStats::default();
    for p in parts {
        for (a, b) in out.latency.iter_mut().zip(&p.latency) {
            a.extend(b);
        }
        out.late.extend(p.late);
        out.attempted += p.attempted;
        out.failed += p.failed;
        out.elapsed = out.elapsed.max(p.elapsed);
    }
    out
}

/// Whether the generator fell progressively behind its schedule: the
/// median lateness of the phase's last fifth exceeds the first fifth's by
/// more than a millisecond.
pub fn backlog_growing(trace: &[(f64, u64)], duration: f64) -> bool {
    let median_in = |lo: f64, hi: f64| {
        let mut v: Vec<u64> = trace
            .iter()
            .filter(|(t, _)| *t >= lo && *t < hi)
            .map(|&(_, l)| l)
            .collect();
        v.sort_unstable();
        v.get(v.len() / 2).copied().unwrap_or(0)
    };
    let first = median_in(0.0, duration * 0.2);
    let last = median_in(duration * 0.8, duration);
    last > first + 1_000_000
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn backlog_is_a_growing_lateness() {
        let steady: Vec<(f64, u64)> = (0..100).map(|i| (i as f64 / 10.0, 20_000)).collect();
        assert!(!backlog_growing(&steady, 10.0));
        let growing: Vec<(f64, u64)> = (0..100).map(|i| (i as f64 / 10.0, i * 100_000)).collect();
        assert!(backlog_growing(&growing, 10.0));
    }
}
