//! The per-run report: what ran, on which revision, and how busy the host
//! was meanwhile, so a slow run can be told apart from a slow program.

use std::time::Instant;

/// CPU time counters of the host at one instant.
pub struct Sample {
    at: Instant,
    /// `/proc/stat` aggregate jiffies: user nice system idle iowait irq
    /// softirq steal.
    cpu: Option<[u64; 8]>,
}

impl Sample {
    /// Reads the host counters now.
    pub fn now() -> Self {
        Self {
            at: Instant::now(),
            cpu: read_cpu(),
        }
    }
}

fn read_cpu() -> Option<[u64; 8]> {
    let stat = std::fs::read_to_string("/proc/stat").ok()?;
    let line = stat.lines().find(|l| l.starts_with("cpu "))?;
    let mut out = [0u64; 8];
    for (slot, field) in out.iter_mut().zip(line.split_whitespace().skip(1)) {
        *slot = field.parse().ok()?;
    }
    Some(out)
}

/// `(steal %, iowait %)` of all host CPU time between two samples.
fn steal_iowait(a: &Sample, b: &Sample) -> Option<(f64, f64)> {
    let (a, b) = (a.cpu?, b.cpu?);
    let delta: Vec<u64> = b
        .iter()
        .zip(&a)
        .map(|(x, y)| x.saturating_sub(*y))
        .collect();
    let total: u64 = delta.iter().sum();
    if total == 0 {
        return Some((0.0, 0.0));
    }
    let pct = |x: u64| 100.0 * x as f64 / total as f64;
    Some((pct(delta[7]), pct(delta[4])))
}

fn loadavg() -> Option<[f64; 3]> {
    let text = std::fs::read_to_string("/proc/loadavg").ok()?;
    let mut it = text.split_whitespace().map(|f| f.parse::<f64>().ok());
    Some([it.next()??, it.next()??, it.next()??])
}

/// The checked-out revision, from `.git` in the working directory only
/// (`unknown` outside a git checkout).
fn git_revision() -> String {
    let read = |p: &str| std::fs::read_to_string(p).ok();
    let Some(head) = read(".git/HEAD") else {
        return "unknown".to_owned();
    };
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head.to_owned();
    };
    if let Some(rev) = read(&format!(".git/{reference}")) {
        return rev.trim().to_owned();
    }
    read(".git/packed-refs")
        .and_then(|packed| {
            packed
                .lines()
                .find_map(|l| l.strip_suffix(reference).map(|rev| rev.trim().to_owned()))
        })
        .unwrap_or_else(|| "unknown".to_owned())
}

/// `VmHWM` of this process, MiB.
pub fn peak_rss_mib() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}

fn escape(s: &str) -> String {
    s.replace('\\', "\\\\").replace('"', "\\\"")
}

/// What the report names besides the host readings.
pub struct RunInfo<'a> {
    /// Workload name.
    pub workload: &'a str,
    /// `--seed`.
    pub seed: u64,
    /// `--seconds`.
    pub seconds: u64,
    /// `--trace`.
    pub trace: bool,
    /// Workload configuration.
    pub config: &'a str,
    /// Units measured.
    pub units: u64,
    /// Counter fingerprint.
    pub fingerprint: u64,
    /// Wall ms of each untraced unit.
    pub unit_ms: &'a [f64],
    /// Work of each of those units.
    pub unit_work: &'a [u64],
    /// Mean host reference ms around each of those units.
    pub unit_ref_ms: &'a [f64],
}

/// The report as one JSON object.
pub fn report_json(info: &RunInfo<'_>, start: &Sample, end: &Sample) -> String {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let load = loadavg().map_or("null".to_owned(), |l| {
        format!("[{}, {}, {}]", l[0], l[1], l[2])
    });
    let (steal, iowait) = steal_iowait(start, end)
        .map_or(("null".to_owned(), "null".to_owned()), |(s, i)| {
            (format!("{s:.3}"), format!("{i:.3}"))
        });
    format!(
        "{{\"workload\": \"{}\", \"seed\": {}, \"seconds\": {}, \"trace\": {}, \"git_rev\": \"{}\", \
         \"nproc\": {nproc}, \"loadavg\": {load}, \"steal_pct\": {steal}, \"iowait_pct\": {iowait}, \
         \"wall_s\": {:.3}, \"units\": {}, \"unit_ms\": [{}], \"unit_work\": {:?}, \"unit_ref_ms\": [{}], \"fingerprint\": \"{:016x}\", \"config\": \"{}\"}}",
        escape(info.workload),
        info.seed,
        info.seconds,
        info.trace,
        escape(&git_revision()),
        end.at.duration_since(start.at).as_secs_f64(),
        info.units,
        info.unit_ms.iter().map(|ms| format!("{ms:.3}")).collect::<Vec<_>>().join(", "),
        info.unit_work,
        info.unit_ref_ms.iter().map(|ms| format!("{ms:.3}")).collect::<Vec<_>>().join(", "),
        info.fingerprint,
        escape(info.config),
    )
}
