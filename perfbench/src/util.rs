//! Small helpers shared by the workloads: a seeded generator, quantiles,
//! the metric table a run prints, peak-memory probes and a deadline
//! watchdog.

use mintri_core::json::JsonObject;
use mintri_core::query::CancelToken;
use std::sync::mpsc;
use std::time::{Duration, Instant};

/// SplitMix64: the benchmark's own seeded generator, so inputs depend
/// only on `--seed` and this file.
#[derive(Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Rng(seed ^ 0x6a09_e667_f3bc_c908)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `lo..=hi`.
    pub fn range(&mut self, lo: usize, hi: usize) -> usize {
        lo + (self.next_u64() % (hi - lo + 1) as u64) as usize
    }

    /// `true` with probability `p`.
    pub fn chance(&mut self, p: f64) -> bool {
        ((self.next_u64() >> 11) as f64 / (1u64 << 53) as f64) < p
    }
}

/// The `q`-quantile of `values` by linear interpolation between order
/// statistics (Hyndman–Fan type 7, as numpy's default). `values` must be
/// non-empty; it is sorted in place.
pub fn quantile(values: &mut [f64], q: f64) -> f64 {
    assert!(!values.is_empty(), "quantile of an empty sample");
    values.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (values.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    values[lo] + (values[hi] - values[lo]) * (pos - lo as f64)
}

/// The `q`-quantile of whole-number data (timestamps printed in whole
/// microseconds) read as grouped data: every value `v` stands for the
/// interval `[v - 0.5, v + 0.5)`, and the quantile interpolates inside
/// the interval that holds it. Unlike an order statistic of the rounded
/// values it is not stuck on a whole number. `values` must be non-empty.
pub fn grouped_quantile(values: &mut [f64], q: f64) -> f64 {
    assert!(!values.is_empty(), "quantile of an empty sample");
    values.sort_by(f64::total_cmp);
    let target = q.clamp(0.0, 1.0) * values.len() as f64;
    let mut below = 0usize;
    let mut i = 0;
    while i < values.len() {
        let v = values[i];
        let mut j = i;
        while j < values.len() && values[j] == v {
            j += 1;
        }
        let count = j - i;
        if (below + count) as f64 >= target {
            return v - 0.5 + (target - below as f64) / count as f64;
        }
        below += count;
        i = j;
    }
    values[values.len() - 1] + 0.5
}

pub fn median(values: &[f64]) -> f64 {
    quantile(&mut values.to_vec(), 0.5)
}

/// The geometric mean of positive `values`; 0 when there are none.
pub fn geomean(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    (values.iter().map(|v| v.ln()).sum::<f64>() / values.len() as f64).exp()
}

pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    values.iter().sum::<f64>() / values.len() as f64
}

/// Tracing overhead in percent from `(untraced, traced)` wall times of
/// the same operations: the median ratio, so one slow outlier on either
/// side does not decide it.
pub fn overhead_pct(pairs: &[(f64, f64)]) -> f64 {
    let ratios: Vec<f64> = pairs
        .iter()
        .filter(|(u, _)| *u > 0.0)
        .map(|(u, t)| t / u)
        .collect();
    if ratios.is_empty() {
        return 0.0;
    }
    100.0 * (median(&ratios) - 1.0)
}

/// How much `best` improves on `first`, in percent of `first` (0 when
/// `first` is 0): the Tables 1–2 measure.
pub fn improvement_pct(first: f64, best: f64) -> f64 {
    if first > 0.0 {
        100.0 * (first - best) / first
    } else {
        0.0
    }
}

pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

pub fn us(d: Duration) -> f64 {
    d.as_secs_f64() * 1e6
}

/// The metrics of one run, in insertion order, each with its unit and
/// (for percentiles and means) the number of samples behind it.
#[derive(Default)]
pub struct Metrics {
    rows: Vec<(String, f64, &'static str, Option<usize>)>,
}

impl Metrics {
    pub fn put(&mut self, name: &str, value: f64, unit: &'static str) {
        self.rows.push((name.to_string(), value, unit, None));
    }

    /// A metric computed from `samples` observations.
    pub fn put_n(&mut self, name: &str, value: f64, unit: &'static str, samples: usize) {
        self.rows
            .push((name.to_string(), value, unit, Some(samples)));
    }

    pub fn get(&self, name: &str) -> Option<(f64, &'static str)> {
        self.rows.iter().find(|r| r.0 == name).map(|r| (r.1, r.2))
    }

    /// The `metrics` object of the result line: exactly the metrics in
    /// `names`, in that order. A name this run has no value for reads
    /// as 0 with the listed unit; see `missing` for which those were.
    pub fn to_json(&self, names: &[(&str, &'static str)]) -> String {
        let mut doc = JsonObject::new();
        for (name, unit) in names {
            let (value, unit) = self.get(name).unwrap_or((0.0, unit));
            let mut m = JsonObject::new();
            m.raw("value", number(value));
            m.str("unit", unit);
            doc.raw(name, m.finish());
        }
        doc.finish()
    }

    pub fn missing(&self, names: &[(&str, &'static str)]) -> Vec<String> {
        names
            .iter()
            .filter(|(n, _)| self.get(n).is_none())
            .map(|(n, _)| n.to_string())
            .collect()
    }

    pub fn sample_counts(&self) -> impl Iterator<Item = (&str, usize)> {
        self.rows.iter().filter_map(|r| Some((r.0.as_str(), r.3?)))
    }

    /// `{"metric": samples}` for every metric that has a sample count.
    pub fn samples_json(&self) -> String {
        let mut doc = JsonObject::new();
        for (name, _, _, n) in &self.rows {
            if let Some(n) = n {
                doc.usize(name, *n);
            }
        }
        doc.finish()
    }
}

/// A JSON number with every digit Rust's shortest round-trip form gives.
/// Non-finite values (a ratio over an empty sample) print as 0.
pub fn number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_string()
    }
}

/// Peak resident set (`VmHWM`) of process `pid` in MB, read from
/// `/proc`. `None` when the process is gone or the file is unreadable.
pub fn vm_hwm_mb(pid: &str) -> Option<f64> {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status")).ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

#[cfg(target_os = "linux")]
mod rusage {
    use std::os::unix::process::ExitStatusExt;
    use std::process::{Child, ExitStatus};

    /// `struct rusage` on 64-bit Linux: two `timeval`s, then fourteen
    /// `long`s of which `ru_maxrss` (KiB) is the first.
    #[repr(C)]
    struct Rusage {
        utime: [i64; 2],
        stime: [i64; 2],
        maxrss: i64,
        rest: [i64; 13],
    }

    extern "C" {
        fn wait4(pid: i32, status: *mut i32, options: i32, usage: *mut Rusage) -> i32;
    }

    /// Waits for `child` like [`Child::wait`] and also returns its peak
    /// resident set in MB. The child is reaped: do not wait on or kill it
    /// through `child` afterwards.
    pub fn wait_with_peak_rss(child: &mut Child) -> std::io::Result<(ExitStatus, f64)> {
        let pid = i32::try_from(child.id()).expect("Linux pids fit in i32");
        let mut status = 0i32;
        let mut usage = Rusage {
            utime: [0; 2],
            stime: [0; 2],
            maxrss: 0,
            rest: [0; 13],
        };
        loop {
            // SAFETY: `status` and `usage` are live, writable values of the
            // types wait4 expects (`int` and the 64-bit Linux
            // `struct rusage`); wait4 writes only within them.
            let rc = unsafe { wait4(pid, &mut status, 0, &mut usage) };
            if rc == pid {
                return Ok((ExitStatus::from_raw(status), usage.maxrss as f64 / 1024.0));
            }
            let err = std::io::Error::last_os_error();
            if err.kind() != std::io::ErrorKind::Interrupted {
                return Err(err);
            }
        }
    }
}

#[cfg(target_os = "linux")]
pub use rusage::wait_with_peak_rss;

/// Elsewhere the peak is not measured and reads 0.
#[cfg(not(target_os = "linux"))]
pub fn wait_with_peak_rss(
    child: &mut std::process::Child,
) -> std::io::Result<(std::process::ExitStatus, f64)> {
    child.wait().map(|s| (s, 0.0))
}

/// One background thread that cancels the armed operation's token when
/// its deadline passes. Arm before the operation and disarm after it;
/// the operation sees the cancellation through its own outcome.
pub struct Watchdog {
    tx: Option<mpsc::Sender<Option<(CancelToken, Instant)>>>,
    thread: Option<std::thread::JoinHandle<()>>,
}

impl Watchdog {
    pub fn new() -> Self {
        let (tx, rx) = mpsc::channel::<Option<(CancelToken, Instant)>>();
        let thread = std::thread::spawn(move || {
            let mut armed: Option<(CancelToken, Instant)> = None;
            loop {
                let msg = match &armed {
                    None => rx.recv().map_err(|_| mpsc::RecvTimeoutError::Disconnected),
                    Some((_, at)) => rx.recv_timeout(at.saturating_duration_since(Instant::now())),
                };
                match msg {
                    Ok(next) => armed = next,
                    Err(mpsc::RecvTimeoutError::Timeout) => {
                        if let Some((token, _)) = armed.take() {
                            token.cancel();
                        }
                    }
                    Err(mpsc::RecvTimeoutError::Disconnected) => return,
                }
            }
        });
        Watchdog {
            tx: Some(tx),
            thread: Some(thread),
        }
    }

    fn send(&self, msg: Option<(CancelToken, Instant)>) {
        let tx = self.tx.as_ref().expect("watchdog alive until drop");
        tx.send(msg).expect("watchdog thread alive until drop");
    }

    pub fn arm(&self, token: CancelToken, deadline: Instant) {
        self.send(Some((token, deadline)));
    }

    pub fn disarm(&self) {
        self.send(None);
    }
}

impl Drop for Watchdog {
    fn drop(&mut self) {
        self.tx.take();
        if let Some(t) = self.thread.take() {
            let _ = t.join();
        }
    }
}
