//! Server-side numbers (the `/metrics` exposition) and host facts.

use std::collections::BTreeMap;
use std::io;

use crate::client::Conn;

/// One scrape of `/metrics`: every sample line, keyed by its full series
/// name (labels included, e.g. `sns_repl_apply_us{peer="…"}`).
#[derive(Debug, Default, Clone)]
pub struct Metrics(pub BTreeMap<String, f64>);

impl Metrics {
    /// A series' value (0 when absent).
    pub fn value(&self, series: &str) -> f64 {
        self.0.get(series).copied().unwrap_or(0.0)
    }

    /// Every series of a labeled family.
    pub fn family(&self, name: &str) -> Vec<f64> {
        let prefix = format!("{name}{{");
        self.0
            .iter()
            .filter(|(k, _)| k.starts_with(&prefix))
            .map(|(_, v)| *v)
            .collect()
    }
}

/// Parses the Prometheus text exposition.
pub fn parse(text: &str) -> Metrics {
    Metrics(
        text.lines()
            .filter(|l| !l.starts_with('#'))
            .filter_map(|l| {
                let (series, value) = l.rsplit_once(' ')?;
                Some((series.to_string(), value.parse().ok()?))
            })
            .collect(),
    )
}

/// Scrapes `/metrics`.
///
/// # Errors
///
/// Transport failures or a non-2xx answer.
pub fn metrics(conn: &mut Conn) -> io::Result<Metrics> {
    let reply = conn.request("GET", "/metrics", b"")?;
    if !reply.ok() {
        return Err(io::Error::other(format!(
            "/metrics answered {}",
            reply.status
        )));
    }
    Ok(parse(&String::from_utf8_lossy(&reply.body)))
}

/// The exact mean of a histogram over an interval, from its `_sum` and
/// `_count` deltas (0 when nothing was observed).
pub fn stage_mean(before: &Metrics, after: &Metrics, histogram: &str) -> f64 {
    let sum = after.value(&format!("{histogram}_sum")) - before.value(&format!("{histogram}_sum"));
    let count =
        after.value(&format!("{histogram}_count")) - before.value(&format!("{histogram}_count"));
    if count > 0.0 {
        sum / count
    } else {
        0.0
    }
}

/// A counter's increase over an interval.
pub fn delta(before: &Metrics, after: &Metrics, counter: &str) -> f64 {
    after.value(counter) - before.value(counter)
}

/// Peak resident set of this process, in MiB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Cores available to this process.
pub fn cores() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}

/// The host the numbers were measured on: core count and CPU model.
pub fn fingerprint() -> String {
    let model = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split_once(':'))
                .map(|(_, m)| m.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".to_string());
    format!("nproc={} cpu=\"{model}\"", cores())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stage_means_are_exact_deltas() {
        let before = parse("# TYPE x histogram\nx_bucket{le=\"1\"} 0\nx_sum 100\nx_count 4\nc 7\n");
        let after = parse("x_sum 400\nx_count 10\nc 9\nf{peer=\"a\"} 3\nf{peer=\"b\"} 5\n");
        assert_eq!(stage_mean(&before, &after, "x"), 50.0);
        assert_eq!(stage_mean(&after, &after, "x"), 0.0);
        assert_eq!(delta(&before, &after, "c"), 2.0);
        assert_eq!(after.family("f"), vec![3.0, 5.0]);
    }
}
