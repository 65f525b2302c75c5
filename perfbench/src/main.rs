//! `perfbench` — the repository's live-sync benchmark.
//!
//! ```sh
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload drag_fast --seed 1 --seconds 20 --trace 0
//! ```
//!
//! Boots an in-process `sns_server::Server` (and, for `edit_durable`, a
//! synchronous follower) on loopback, drives one seeded workload over
//! HTTP from at most `nproc` connections, checks every returned program
//! text against a full-prepare reference, and prints each metric with
//! its unit and sample count. The last line of standard output is one
//! JSON object: `{"correct", "attempted", "failed", "metrics"}`.
//!
//! * `--trace 0` — end-to-end metrics, measured at the client with the
//!   server at its production defaults, over several rigs booted one
//!   after another: set-up time, closed-loop capacity, and open-loop
//!   latency at the workload's fixed rate, timed from each request's
//!   intended send time.
//! * `--trace 1` — per-layer metrics: server stage means from `/metrics`
//!   deltas over an open-loop phase, then an in-process replay of the
//!   same seeded stream through each layer's public functions inside
//!   in-memory spans, and the replay's tracing overhead.
//!
//! Exits 1 when any response disagrees with the reference, 2 on bad
//! arguments.

mod client;
mod layers;
mod load;
mod oracle;
mod recorder;
mod scrape;
mod spans;
mod workload;

use std::collections::{BTreeMap, HashMap};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use load::{merge, on_all, Generator, Pace, PhaseStats, Rig, KINDS};
use workload::Spec;

/// Rigs a `--trace 0` run boots one after another. Each is set up
/// (`setup_s` is the median set-up), measures one closed-loop capacity
/// round (`capacity_rps` is the median round) and an equal slice of the
/// open-loop phase (latencies pool every slice), then stops. How a rig's
/// threads happen to settle on a small host shifts all of its latencies
/// together, so a run samples several rigs rather than one.
const RIGS: usize = 8;

/// Share of `--seconds` spent in the closed-loop capacity rounds; the
/// open-loop slices take the rest.
const CAPACITY_SHARE: f64 = 0.25;

/// The end-to-end metrics steady enough on a small shared host to gate a
/// change on: `BENCHMARK.json`'s `end_to_end` list (a test keeps the two
/// equal). The rest are printed with their
/// sample counts: on a 2-core virtual machine the tails, the closed-loop
/// capacity, memory, and the medians of the multi-millisecond operations
/// (edits, opens) swing more than any useful bound from run to run.
const E2E_GATED: &[&str] = &["setup_s", "drag_p50_us", "commit_p50_us"];

/// Where durable workloads keep their journals (relative to the working
/// directory, removed when the run ends).
const TMP_DIR: &str = ".bench_tmp";

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, 1, 20, false);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or(format!("{flag} needs a value"))?;
        let bad = |_| format!("bad value for {flag}: {value}");
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = value.parse().map_err(bad)?,
            "--seconds" => seconds = value.parse().map_err(bad)?,
            "--trace" => trace = value.parse::<u8>().map_err(bad)? == 1,
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds: seconds.max(1),
        trace,
    })
}

fn main() {
    // Server threads without an explicit stack size (the follower's apply
    // loop) evaluate programs, whose recursion needs deep stacks. Set
    // before any thread exists.
    std::env::set_var("RUST_MIN_STACK", "268435456");
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload <{}> --seed N --seconds S --trace 0|1",
                workload::specs()
                    .iter()
                    .map(|s| s.name)
                    .collect::<Vec<_>>()
                    .join("|")
            );
            std::process::exit(2);
        }
    };
    let code = sns_eval::with_big_stack(move || match run(&args) {
        Ok(code) => code,
        Err(e) => {
            eprintln!("perfbench: {e}");
            1
        }
    });
    std::process::exit(code);
}

/// A metric value with its unit and the sample count behind it.
struct Metric {
    value: f64,
    unit: &'static str,
    n: usize,
}

/// Metrics in print order.
#[derive(Default)]
struct Report(BTreeMap<String, Metric>);

impl Report {
    fn put(&mut self, name: &str, value: f64, unit: &'static str, n: usize) {
        self.0.insert(name.to_string(), Metric { value, unit, n });
    }
}

/// Counts that decide `correct`, `attempted` and `failed`.
#[derive(Default)]
struct Tally {
    attempted: u64,
    failed: u64,
    mismatches: u64,
}

impl Tally {
    fn add(&mut self, s: &PhaseStats) {
        self.attempted += s.attempted;
        self.failed += s.failed;
    }
}

fn run(args: &Args) -> Result<i32, String> {
    let spec = workload::specs()
        .into_iter()
        .find(|s| s.name == args.workload)
        .ok_or_else(|| format!("unknown workload `{}`", args.workload))?;
    let cores = scrape::cores();
    println!(
        "# perfbench workload={} seed={} seconds={} trace={} {}",
        spec.name,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        scrape::fingerprint()
    );
    println!(
        "# rate={} ops/s (open loop) slots={} max_sessions={} durable={} connections={} \
         client_threads={} server reactors={} threads={}",
        spec.rate, spec.slots, spec.max_sessions, spec.durable, cores, cores, cores, cores
    );
    let tmp = PathBuf::from(TMP_DIR).join(format!("{}-{}", spec.name, std::process::id()));
    let catalog = Arc::new(workload::catalog(&spec, args.seed));
    let programs: Vec<String> = catalog
        .iter()
        .map(|e| {
            format!(
                "{} ({}; {}/{}/{})",
                e.label,
                e.zones.len(),
                e.literal.len(),
                e.subtree.len(),
                e.structural.len()
            )
        })
        .collect();
    println!(
        "# programs (zones; literal/subtree/structural edits): {}",
        programs.join(", ")
    );
    let result = if args.trace {
        run_traced(&spec, args, cores, &tmp, &catalog)
    } else {
        run_e2e(&spec, args, cores, &tmp, &catalog)
    };
    let _ = std::fs::remove_dir_all(&tmp);
    let _ = std::fs::remove_dir(TMP_DIR);
    let (report, tally) = result?;
    // Every metric is printed; the result line carries the gated ones.
    let gated = |name: &str| args.trace || E2E_GATED.contains(&name);
    for (name, m) in &report.0 {
        let tag = if gated(name) {
            ""
        } else {
            "  (reported, not gated)"
        };
        println!("{name:<28} {:>14.3} {:<6} n={}{tag}", m.value, m.unit, m.n);
    }
    let correct = tally.mismatches == 0;
    let metrics: Vec<String> = report
        .0
        .iter()
        .filter(|(k, _)| gated(k))
        .map(|(k, m)| {
            format!(
                r#""{k}":{{"value":{},"unit":"{}"}}"#,
                json_num(m.value),
                m.unit
            )
        })
        .collect();
    println!(
        r#"{{"correct":{correct},"attempted":{},"failed":{},"metrics":{{{}}}}}"#,
        tally.attempted.max(1),
        tally.failed + tally.mismatches,
        metrics.join(",")
    );
    Ok(if correct { 0 } else { 1 })
}

fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_string()
    }
}

/// A booted rig with its generators, past set-up.
struct Live {
    rig: Rig,
    generators: Vec<Generator>,
}

/// Boots the workload's server(s), opens every slot's session, and
/// replays the warm-up operations. Returns the wall time of boot and
/// opens: the warm-up is closed-loop work like the capacity rounds and as
/// noisy, so it stays out of `setup_s`.
fn setup(
    spec: &Spec,
    seed: u64,
    cores: usize,
    tmp: &Path,
    tag: &str,
    catalog: &Arc<Vec<workload::Entry>>,
    tally: &mut Tally,
) -> Result<(Live, f64), String> {
    let t = Instant::now();
    let rig = Rig::boot(spec, cores, tmp, tag).map_err(|e| format!("boot: {e}"))?;
    let mut generators: Vec<Generator> = (0..cores)
        .map(|i| Generator::new(rig.addr(), spec, Arc::clone(catalog), seed, i, cores))
        .collect();
    let slots = spec.slots;
    let opened = on_all(&mut generators, |d| {
        d.pin_reactor(cores)
            .map(|()| d.open_slots(slots))
            .map_err(|e| format!("reactor probe: {e}"))
    });
    tally.add(&merge(opened.into_iter().collect::<Result<_, _>>()?));
    let elapsed = t.elapsed().as_secs_f64();
    tally.add(&merge(on_all(&mut generators, |d| {
        d.run(Pace::Closed(spec.warmup_ops, Duration::from_secs(60)))
    })));
    Ok((Live { rig, generators }, elapsed))
}

/// Reads final program texts (and the follower's copies), stops the
/// servers, and runs the oracle over everything the generators saw.
fn finish(
    spec: &Spec,
    live: Live,
    catalog: &[workload::Entry],
    tally: &mut Tally,
) -> Result<(), String> {
    let Live {
        rig,
        mut generators,
    } = live;
    let mut finals = HashMap::new();
    for d in &mut generators {
        let (codes, stats) = d.final_codes(None);
        tally.add(&stats);
        finals.extend(codes);
    }
    if let Some(addr) = rig.follower_addr() {
        // Sync replication acks before the leader answers, so the
        // follower should already agree; allow a short drain anyway.
        let deadline = Instant::now() + Duration::from_secs(5);
        let mut pending: Vec<usize> = (0..generators.len()).collect();
        while !pending.is_empty() {
            pending.retain(|&i| {
                let (codes, _) = generators[i].final_codes(Some(addr));
                codes.iter().any(|(slot, c)| c != &finals[slot])
            });
            if Instant::now() > deadline {
                break;
            }
            if !pending.is_empty() {
                std::thread::sleep(Duration::from_millis(50));
            }
        }
        tally.attempted += finals.len() as u64;
        if !pending.is_empty() {
            eprintln!("perfbench: follower disagrees with the leader after drain");
            tally.mismatches += 1;
        }
    }
    rig.stop().map_err(|e| format!("server: {e}"))?;
    let histories: Vec<&[load::Event]> = generators.iter().map(|d| d.history.as_slice()).collect();
    let verdict = oracle::check(catalog, &histories, &finals);
    println!(
        "# oracle: {} responses checked against the full-prepare reference, {} mismatched ({})",
        verdict.checked, verdict.mismatches, spec.name
    );
    if let Some(first) = &verdict.first {
        eprintln!("perfbench: first oracle mismatch: {first}");
    }
    tally.mismatches += verdict.mismatches;
    Ok(())
}

/// The open-loop latency metrics of the operation kinds the workload
/// issues, each with its (capped) percentile and sample count.
fn latency_metrics(spec: &Spec, report: &mut Report, open: &mut PhaseStats) -> Result<(), String> {
    let wanted: [(usize, &[(f64, &str)]); 4] = [
        (0, &[(0.5, "p50"), (0.99, "p99")]),
        (1, &[(0.5, "p50"), (0.99, "p99")]),
        (2, &[(0.5, "p50"), (0.9, "p90")]),
        (3, &[(0.5, "p50"), (0.9, "p90")]),
    ];
    let issued = [true, true, spec.p_set_code > 0.0, spec.p_open > 0.0];
    for (kind, qs) in wanted {
        if !issued[kind] {
            continue;
        }
        for &(q, label) in qs {
            let name = format!("{}_{label}_us", KINDS[kind]);
            let got = open.latency[kind]
                .quantile(q)
                .ok_or_else(|| format!("{name}: too few samples ({})", open.latency[kind].len()))?;
            if got.q < q {
                println!(
                    "# {name}: capped at p{:.2} ({} samples)",
                    got.q * 100.0,
                    got.n
                );
            }
            report.put(&name, got.value_us, "us", got.n);
        }
    }
    Ok(())
}

/// Generator honesty: how late sends left, and whether a backlog grew.
fn generator_report(open: &PhaseStats, duration: f64) -> (f64, bool) {
    let mut late = recorder::Samples::default();
    for &(_, ns) in &open.late {
        late.push(ns);
    }
    let p99 = late.quantile(0.99).map_or(0.0, |q| q.value_us);
    let growing = load::backlog_growing(&open.late, duration);
    println!(
        "# generator: late p99 {p99:.1} us over {} sends; backlog {}",
        open.late.len(),
        if growing {
            "GROWING (offered rate above capacity)"
        } else {
            "steady"
        }
    );
    (p99, growing)
}

fn run_e2e(
    spec: &Spec,
    args: &Args,
    cores: usize,
    tmp: &Path,
    catalog: &Arc<Vec<workload::Entry>>,
) -> Result<(Report, Tally), String> {
    let mut tally = Tally::default();
    let total = args.seconds as f64;
    // Each round's work is fixed; the cap only bounds a badly slowed host.
    let cap = Duration::from_secs_f64(2.0 * total * CAPACITY_SHARE / RIGS as f64);
    let slice_secs = total * (1.0 - CAPACITY_SHARE) / RIGS as f64;
    let rate = spec.rate;
    let (mut setups, mut capacity, mut slices) = (Vec::new(), Vec::new(), Vec::new());
    let mut capacity_ops = 0;
    for rig in 0..RIGS {
        // Every rig plays its own stream, drawn from the seed.
        let seed = args.seed ^ ((rig as u64) << 48);
        let (mut live, secs) = setup(
            spec,
            seed,
            cores,
            tmp,
            &format!("r{rig}"),
            catalog,
            &mut tally,
        )?;
        setups.push(secs);
        let round = merge(on_all(&mut live.generators, |d| {
            d.run(Pace::Closed(spec.capacity_ops, cap))
        }));
        tally.add(&round);
        capacity_ops += round.attempted as usize;
        capacity.push(round.attempted as f64 / round.elapsed);
        let slice = merge(on_all(&mut live.generators, |d| {
            d.run(Pace::Open(rate, Duration::from_secs_f64(slice_secs)))
        }));
        tally.add(&slice);
        slices.push(slice);
        finish(spec, live, catalog, &mut tally)?;
    }
    let mut open = merge(slices);
    let rss = scrape::peak_rss_mb();

    let mut report = Report::default();
    println!("# set-ups (s): {}", join(&setups, 4));
    report.put("setup_s", median(&mut setups), "s", setups.len());
    println!("# capacity rounds (ops/s): {}", join(&capacity, 0));
    report.put("capacity_rps", median(&mut capacity), "1/s", capacity_ops);
    latency_metrics(spec, &mut report, &mut open)?;
    generator_report(&open, slice_secs);
    report.put("peak_rss_mb", rss, "MiB", 1);
    let failed = tally.failed + tally.mismatches;
    let fail_ratio = failed as f64 / tally.attempted.max(1) as f64;
    report.put("fail_ratio", fail_ratio, "ratio", tally.attempted as usize);
    Ok((report, tally))
}

fn median(v: &mut [f64]) -> f64 {
    v.sort_by(f64::total_cmp);
    v[v.len() / 2]
}

fn join(v: &[f64], digits: usize) -> String {
    v.iter()
        .map(|x| format!("{x:.digits$}"))
        .collect::<Vec<_>>()
        .join(" ")
}

/// Interval between samples of the follower apply-time gauge.
const APPLY_SAMPLE_EVERY: Duration = Duration::from_millis(100);

/// Samples the leader's `sns_repl_apply_us{peer}` gauges until `done`.
/// Each gauge holds the apply time of its follower's latest ack, so the
/// samples are a time-sampled view of apply cost over the phase.
fn sample_apply_us(conn: &mut client::Conn, done: &AtomicBool) -> std::io::Result<Vec<f64>> {
    let mut out = Vec::new();
    while !done.load(Ordering::Relaxed) {
        std::thread::sleep(APPLY_SAMPLE_EVERY);
        out.extend(scrape::metrics(conn)?.family("sns_repl_apply_us"));
    }
    Ok(out)
}

fn run_traced(
    spec: &Spec,
    args: &Args,
    cores: usize,
    tmp: &Path,
    catalog: &Arc<Vec<workload::Entry>>,
) -> Result<(Report, Tally), String> {
    let mut tally = Tally::default();
    let (mut live, _) = setup(spec, args.seed, cores, tmp, "t", catalog, &mut tally)?;
    let mut conn = client::Conn::new(live.rig.addr());
    let before = scrape::metrics(&mut conn).map_err(|e| format!("scrape: {e}"))?;
    let open_secs = args.seconds as f64 * 0.5;
    let rate = spec.rate;
    let sample_apply = live.rig.follower_addr().is_some();
    let done = AtomicBool::new(false);
    let (mut open, applies) = std::thread::scope(|s| {
        let sampler = sample_apply.then(|| s.spawn(|| sample_apply_us(&mut conn, &done)));
        let open = merge(on_all(&mut live.generators, |d| {
            d.run(Pace::Open(rate, Duration::from_secs_f64(open_secs)))
        }));
        done.store(true, Ordering::Relaxed);
        let applies = sampler.map_or(Ok(Vec::new()), |h| {
            h.join().expect("sampler thread panicked")
        });
        (open, applies)
    });
    let applies = applies.map_err(|e| format!("scrape: {e}"))?;
    let after = scrape::metrics(&mut conn).map_err(|e| format!("scrape: {e}"))?;
    drop(conn);
    tally.add(&open);
    finish(spec, live, catalog, &mut tally)?;

    let mut report = Report::default();
    let (late, growing) = generator_report(&open, open_secs);
    report.put("gen.late_p99_us", late, "us", open.late.len());
    report.put(
        "gen.backlog_growing",
        f64::from(u8::from(growing)),
        "bool",
        1,
    );
    let client_p50: Vec<f64> = (0..KINDS.len())
        .map(|k| open.latency[k].quantile(0.5).map_or(0.0, |q| q.value_us))
        .collect();
    layers::server_side(&mut report, &before, &after, open.attempted, &applies);
    layers::replay(
        spec,
        catalog,
        args.seed,
        cores,
        tmp,
        &client_p50,
        &mut report,
    )?;
    Ok((report, tally))
}

#[cfg(test)]
mod tests {
    use super::E2E_GATED;
    use sns_server::json::{self, Json};

    #[test]
    fn gated_metrics_are_the_manifests_end_to_end_list() {
        let manifest = json::parse(include_str!("../../BENCHMARK.json")).expect("manifest parses");
        let names: Vec<&str> = manifest
            .get("end_to_end")
            .and_then(Json::as_arr)
            .expect("end_to_end list")
            .iter()
            .map(|m| m.get("name").and_then(Json::as_str).expect("metric name"))
            .collect();
        assert_eq!(names, E2E_GATED);
    }
}
