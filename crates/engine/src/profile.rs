//! Learned per-atom cost profiles — an observability surface.
//!
//! Every stream the engine serves deposits one observation here, keyed
//! the same way sessions are: `(atom fingerprint, backend)`. Completed
//! live enumerations feed t-digest latency distributions (first-result
//! delay, mean inter-result gap) plus exact totals (results, `Extend`
//! calls, wall time); replays and hydrations bump hit counters. Two
//! readers: operators (`/v1/stats`, `/v1/metrics`, store snapshots) and
//! the server's default timeout, which arms a deadline for graphs whose
//! [`Profiler::predict`]ed wall is known to be slow.
//!
//! **The invariant:** a profile never changes an answer — dispatch does
//! not read it at all. That is why profiles carry no graph-equality
//! proof and why a corrupt or missing snapshot is only ever a cold
//! start.
//!
//! Profiles persist as [`ProfileSnapshot`] entries (kind 4) in the
//! `mintri-store` tier, so a restarted process keeps its history.

use mintri_store::{DigestSnapshot, ProfileSnapshot, Store};
use mintri_telemetry::{Counter, Gauge};
use std::collections::HashMap;
use std::sync::{Arc, Mutex};

/// Buffered observations before a digest re-compresses.
const DIGEST_BUFFER: usize = 32;
/// t-digest compression: higher keeps more centroids (finer tails).
const COMPRESSION: f64 = 64.0;
/// Counter-only updates (replay/hydrate hits) between persists.
const PERSIST_EVERY: u32 = 32;

/// One weighted cluster of nearby observations.
#[derive(Debug, Clone, Copy)]
struct Centroid {
    mean: f64,
    weight: u64,
}

/// A small merging t-digest: observations buffer up and periodically
/// merge into a bounded centroid list, tight at the tails (the
/// `q(1-q)` size bound), so `p50`/`p99` stay accurate at a fixed
/// memory cost. Good enough for operators; not for billing.
#[derive(Debug, Clone, Default)]
pub struct TDigest {
    centroids: Vec<Centroid>,
    buffer: Vec<f64>,
    count: u64,
    min: f64,
    max: f64,
}

impl TDigest {
    /// Folds one observation in (amortized O(1)).
    pub fn record(&mut self, v: f64) {
        if !v.is_finite() {
            return;
        }
        if self.count == 0 {
            self.min = v;
            self.max = v;
        } else {
            self.min = self.min.min(v);
            self.max = self.max.max(v);
        }
        self.count += 1;
        self.buffer.push(v);
        if self.buffer.len() >= DIGEST_BUFFER {
            self.compress();
        }
    }

    /// Observations folded in so far.
    pub fn count(&self) -> u64 {
        self.count
    }

    fn compress(&mut self) {
        if self.buffer.is_empty() {
            return;
        }
        let mut pts: Vec<Centroid> = std::mem::take(&mut self.centroids);
        pts.extend(
            self.buffer
                .drain(..)
                .map(|v| Centroid { mean: v, weight: 1 }),
        );
        pts.sort_by(|a, b| a.mean.total_cmp(&b.mean));
        let total: u64 = pts.iter().map(|c| c.weight).sum();
        let mut out: Vec<Centroid> = Vec::with_capacity(pts.len().min(64));
        let mut acc = pts[0];
        let mut seen = 0u64; // weight already sealed into `out`
        for &c in &pts[1..] {
            let projected = acc.weight + c.weight;
            let q = (seen as f64 + projected as f64 / 2.0) / total as f64;
            let limit = (4.0 * total as f64 * q * (1.0 - q) / COMPRESSION).max(1.0);
            if projected as f64 <= limit {
                acc.mean =
                    (acc.mean * acc.weight as f64 + c.mean * c.weight as f64) / projected as f64;
                acc.weight = projected;
            } else {
                seen += acc.weight;
                out.push(acc);
                acc = c;
            }
        }
        out.push(acc);
        self.centroids = out;
    }

    /// The `q`-quantile estimate (`0.0 ≤ q ≤ 1.0`), `None` when empty.
    pub fn quantile(&mut self, q: f64) -> Option<f64> {
        self.compress();
        if self.count == 0 {
            return None;
        }
        if q <= 0.0 {
            return Some(self.min);
        }
        if q >= 1.0 {
            return Some(self.max);
        }
        let target = q * self.count as f64;
        let mut cum = 0.0;
        for (i, c) in self.centroids.iter().enumerate() {
            let w = c.weight as f64;
            if cum + w >= target {
                // Interpolate inside this centroid against its neighbor.
                let prev_mean = if i == 0 {
                    self.min
                } else {
                    self.centroids[i - 1].mean
                };
                let frac = ((target - cum) / w).clamp(0.0, 1.0);
                return Some(prev_mean + (c.mean - prev_mean) * frac);
            }
            cum += w;
        }
        Some(self.max)
    }

    /// Weighted mean of everything recorded.
    pub fn mean(&mut self) -> Option<f64> {
        self.compress();
        if self.count == 0 {
            return None;
        }
        let sum: f64 = self
            .centroids
            .iter()
            .map(|c| c.mean * c.weight as f64)
            .sum();
        Some(sum / self.count as f64)
    }

    /// The store-portable image (flushes the buffer first).
    pub fn snapshot(&mut self) -> DigestSnapshot {
        self.compress();
        DigestSnapshot {
            centroids: self
                .centroids
                .iter()
                .map(|c| (c.mean.to_bits(), c.weight))
                .collect(),
            count: self.count,
            min_bits: self.min.to_bits(),
            max_bits: self.max.to_bits(),
        }
    }

    /// Rebuilds from a store image, dropping non-finite or zero-weight
    /// centroids (a hostile snapshot can mis-report, never crash).
    pub fn from_snapshot(snap: &DigestSnapshot) -> TDigest {
        let centroids: Vec<Centroid> = snap
            .centroids
            .iter()
            .map(|&(bits, weight)| Centroid {
                mean: f64::from_bits(bits),
                weight,
            })
            .filter(|c| c.mean.is_finite() && c.weight > 0)
            .collect();
        let count = centroids.iter().map(|c| c.weight).sum();
        let min = f64::from_bits(snap.min_bits);
        let max = f64::from_bits(snap.max_bits);
        let mut d = TDigest {
            centroids,
            buffer: Vec::new(),
            count,
            min: if min.is_finite() { min } else { 0.0 },
            max: if max.is_finite() { max } else { 0.0 },
        };
        d.centroids.sort_by(|a, b| a.mean.total_cmp(&b.mean));
        d
    }

    /// Folds another digest's centroids into this one (weighted merge,
    /// then one recompression).
    fn absorb(&mut self, other: &TDigest) {
        self.centroids.extend(other.centroids.iter().copied());
        if other.count > 0 {
            if self.count == 0 {
                self.min = other.min;
                self.max = other.max;
            } else {
                self.min = self.min.min(other.min);
                self.max = self.max.max(other.max);
            }
        }
        self.count += other.count;
        self.compress();
    }
}

/// What the engine learned about one `(atom, backend)` pair.
#[derive(Debug, Clone, Default)]
pub struct AtomProfile {
    /// Node count of the atom (context for human readers of `/v1/stats`).
    pub nodes: u32,
    /// First-result latency of completed live runs, µs.
    pub first_us: TDigest,
    /// Mean inter-result gap per completed live run, µs.
    pub gap_us: TDigest,
    /// Completed live enumerations folded in.
    pub live_runs: u64,
    /// Results across those runs.
    pub results_total: u64,
    /// `Extend` calls across those runs.
    pub extends_total: u64,
    /// Wall µs across those runs.
    pub wall_us_total: u64,
    /// Streams served from the in-RAM replay cache.
    pub replay_hits: u64,
    /// Streams hydrated from the disk tier.
    pub hydrate_hits: u64,
}

impl AtomProfile {
    /// Mean wall µs of a completed live enumeration; `None` until one
    /// completes (cold profiles must not pretend to know).
    pub fn predicted_wall_us(&self) -> Option<u64> {
        (self.live_runs > 0).then(|| self.wall_us_total / self.live_runs)
    }

    /// Mean result count of a completed live enumeration.
    pub fn predicted_results(&self) -> Option<u64> {
        (self.live_runs > 0).then(|| self.results_total / self.live_runs)
    }

    /// `Extend` invocations per emitted result (×1000, integer).
    pub fn extends_per_result_milli(&self) -> Option<u64> {
        (self.results_total > 0).then(|| self.extends_total * 1000 / self.results_total)
    }

    fn snapshot(&mut self, fingerprint: u64, backend: &str) -> ProfileSnapshot {
        ProfileSnapshot {
            fingerprint,
            backend: backend.to_string(),
            nodes: self.nodes,
            first_us: self.first_us.snapshot(),
            gap_us: self.gap_us.snapshot(),
            live_runs: self.live_runs,
            results_total: self.results_total,
            extends_total: self.extends_total,
            wall_us_total: self.wall_us_total,
            replay_hits: self.replay_hits,
            hydrate_hits: self.hydrate_hits,
        }
    }

    fn absorb_snapshot(&mut self, snap: &ProfileSnapshot) {
        self.nodes = self.nodes.max(snap.nodes);
        self.first_us
            .absorb(&TDigest::from_snapshot(&snap.first_us));
        self.gap_us.absorb(&TDigest::from_snapshot(&snap.gap_us));
        self.live_runs += snap.live_runs;
        self.results_total += snap.results_total;
        self.extends_total += snap.extends_total;
        self.wall_us_total += snap.wall_us_total;
        self.replay_hits += snap.replay_hits;
        self.hydrate_hits += snap.hydrate_hits;
    }
}

/// How a stream was actually served — the profile-side mirror of the
/// query layer's `DispatchKind` (live covers both parallel and
/// sequential; the profile cares about cost, not thread count).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RunKind {
    /// A live enumeration (`Extend` calls happened).
    Live,
    /// Served from the in-RAM completed-answer cache.
    Replay,
    /// Served by hydrating a disk snapshot.
    Hydrate,
}

/// One finished stream's observation, deposited on drop.
#[derive(Debug, Clone, Copy)]
pub struct RunRecord {
    /// How the stream was served.
    pub kind: RunKind,
    /// Whether the enumeration ran to completion (budgeted/cancelled
    /// runs never update the digests — a truncated wall would teach the
    /// profile that hard atoms are cheap).
    pub completed: bool,
    /// Results the stream emitted.
    pub results: u64,
    /// Creation-to-first-result delay, µs.
    pub first_us: Option<u64>,
    /// Creation-to-drop wall, µs.
    pub wall_us: u64,
    /// `Extend` calls attributable to this run.
    pub extends: u64,
}

/// A read-only row for `/v1/stats` — everything rendered under the
/// `profile` object.
#[derive(Debug, Clone)]
pub struct ProfileView {
    /// Atom fingerprint (hex in the wire form).
    pub fingerprint: u64,
    /// Backend the row was learned under.
    pub backend: &'static str,
    /// Node count of the atom.
    pub nodes: u32,
    /// Completed live runs folded into the digests.
    pub live_runs: u64,
    /// Replay-cache hits.
    pub replay_hits: u64,
    /// Disk-hydration hits.
    pub hydrate_hits: u64,
    /// Results across completed live runs.
    pub results_total: u64,
    /// `Extend` calls across completed live runs.
    pub extends_total: u64,
    /// Mean live wall, µs.
    pub predicted_wall_us: u64,
    /// Mean live result count.
    pub predicted_results: u64,
    /// First-result latency p50, µs.
    pub first_us_p50: u64,
    /// First-result latency p99, µs.
    pub first_us_p99: u64,
    /// Inter-result gap p50, µs.
    pub gap_us_p50: u64,
}

/// Metric handles the profiler bumps (write-only from hot paths, per
/// the telemetry invariant).
#[derive(Clone)]
pub struct ProfilerInstruments {
    /// Run observations folded in.
    pub runs_recorded: Arc<Counter>,
    /// Snapshots written to the store tier.
    pub persists: Arc<Counter>,
    /// Profiles warmed from a store snapshot.
    pub hydrates: Arc<Counter>,
    /// Distinct `(atom, backend)` profiles held in RAM.
    pub entries: Arc<Gauge>,
}

struct Slot {
    profile: AtomProfile,
    /// The disk tier was already consulted for this key (hit or miss) —
    /// never probe twice.
    probed: bool,
    /// Counter-only updates since the last persist.
    unsaved: u32,
}

/// The engine-wide profile table. One mutex: every touch is a handful
/// of integer folds on an already-finished stream, never on the
/// enumeration hot path itself.
#[derive(Default)]
pub struct Profiler {
    inner: Mutex<HashMap<(u64, &'static str), Slot>>,
    instruments: Option<ProfilerInstruments>,
}

impl Profiler {
    /// An uninstrumented profiler (tests, `run_local`-style embedding).
    pub fn new() -> Profiler {
        Profiler::default()
    }

    /// Attaches metric handles; every later fold bumps them.
    pub fn instrumented(mut self, instruments: ProfilerInstruments) -> Profiler {
        self.instruments = Some(instruments);
        self
    }

    /// Ensures a slot exists, probing the disk tier exactly once per
    /// key. Caller holds the lock.
    fn warm_slot<'a>(
        map: &'a mut HashMap<(u64, &'static str), Slot>,
        instruments: &Option<ProfilerInstruments>,
        fingerprint: u64,
        backend: &'static str,
        store: Option<&Store>,
    ) -> &'a mut Slot {
        let slot = map.entry((fingerprint, backend)).or_insert_with(|| {
            if let Some(i) = instruments {
                i.entries.add(1);
            }
            Slot {
                profile: AtomProfile::default(),
                probed: false,
                unsaved: 0,
            }
        });
        if !slot.probed {
            slot.probed = true;
            if let Some(store) = store {
                if let Some(snap) = store.load_profile(fingerprint, backend) {
                    slot.profile.absorb_snapshot(&snap);
                    if let Some(i) = instruments {
                        i.hydrates.inc();
                    }
                }
            }
        }
        slot
    }

    /// Folds one finished stream in. Completed live runs update the
    /// digests and persist immediately; replay/hydrate hits persist
    /// every `PERSIST_EVERY`th fold (counters are cheap to lose).
    pub fn record_run(
        &self,
        fingerprint: u64,
        backend: &'static str,
        nodes: u32,
        run: RunRecord,
        store: Option<&Store>,
    ) {
        let mut map = self.inner.lock().unwrap();
        let slot = Self::warm_slot(&mut map, &self.instruments, fingerprint, backend, store);
        let profile = &mut slot.profile;
        profile.nodes = profile.nodes.max(nodes);
        let mut persist = false;
        match run.kind {
            RunKind::Live => {
                if run.completed {
                    if let Some(first) = run.first_us {
                        profile.first_us.record(first as f64);
                        if run.results > 1 {
                            let gap = run.wall_us.saturating_sub(first) / (run.results - 1);
                            profile.gap_us.record(gap as f64);
                        }
                    }
                    profile.live_runs += 1;
                    profile.results_total += run.results;
                    profile.extends_total += run.extends;
                    profile.wall_us_total += run.wall_us;
                    persist = true;
                }
            }
            RunKind::Replay => profile.replay_hits += 1,
            RunKind::Hydrate => profile.hydrate_hits += 1,
        }
        if let Some(i) = &self.instruments {
            i.runs_recorded.inc();
        }
        if !persist {
            slot.unsaved += 1;
            if slot.unsaved >= PERSIST_EVERY {
                persist = true;
            }
        }
        if persist {
            slot.unsaved = 0;
            if let Some(store) = store {
                store.put_profile(&slot.profile.snapshot(fingerprint, backend));
                if let Some(i) = &self.instruments {
                    i.persists.inc();
                }
            }
        }
    }

    /// The expected wall (µs) of a full live enumeration of
    /// `(fingerprint, backend)`. `None` until at least one completed live
    /// run has been observed (here or persisted by a previous process —
    /// the disk tier is probed on first miss).
    pub fn predict(
        &self,
        fingerprint: u64,
        backend: &'static str,
        store: Option<&Store>,
    ) -> Option<u64> {
        let mut map = self.inner.lock().unwrap();
        let slot = Self::warm_slot(&mut map, &self.instruments, fingerprint, backend, store);
        slot.profile.predicted_wall_us()
    }

    /// Every profile held in RAM, sorted by predicted wall descending
    /// (the rows an operator wants first). For `/v1/stats`.
    pub fn views(&self) -> Vec<ProfileView> {
        let mut map = self.inner.lock().unwrap();
        let mut rows: Vec<ProfileView> = map
            .iter_mut()
            .map(|(&(fingerprint, backend), slot)| {
                let p = &mut slot.profile;
                ProfileView {
                    fingerprint,
                    backend,
                    nodes: p.nodes,
                    live_runs: p.live_runs,
                    replay_hits: p.replay_hits,
                    hydrate_hits: p.hydrate_hits,
                    results_total: p.results_total,
                    extends_total: p.extends_total,
                    predicted_wall_us: p.predicted_wall_us().unwrap_or(0),
                    predicted_results: p.predicted_results().unwrap_or(0),
                    first_us_p50: p.first_us.quantile(0.5).unwrap_or(0.0) as u64,
                    first_us_p99: p.first_us.quantile(0.99).unwrap_or(0.0) as u64,
                    gap_us_p50: p.gap_us.quantile(0.5).unwrap_or(0.0) as u64,
                }
            })
            .collect();
        rows.sort_by(|a, b| {
            b.predicted_wall_us
                .cmp(&a.predicted_wall_us)
                .then(a.fingerprint.cmp(&b.fingerprint))
        });
        rows
    }

    /// Distinct `(atom, backend)` profiles held.
    pub fn len(&self) -> usize {
        self.inner.lock().unwrap().len()
    }

    /// `true` when nothing has been learned yet.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn live(results: u64, first_us: u64, wall_us: u64, extends: u64) -> RunRecord {
        RunRecord {
            kind: RunKind::Live,
            completed: true,
            results,
            first_us: Some(first_us),
            wall_us,
            extends,
        }
    }

    #[test]
    fn digest_quantiles_track_a_uniform_stream() {
        let mut d = TDigest::default();
        for i in 0..1000 {
            d.record(i as f64);
        }
        assert_eq!(d.count(), 1000);
        let p50 = d.quantile(0.5).unwrap();
        assert!((400.0..600.0).contains(&p50), "p50 was {p50}");
        let p99 = d.quantile(0.99).unwrap();
        assert!((960.0..=999.0).contains(&p99), "p99 was {p99}");
        assert_eq!(d.quantile(0.0), Some(0.0));
        assert_eq!(d.quantile(1.0), Some(999.0));
        // Bounded memory: far fewer centroids than observations. The
        // q(1-q) size bound keeps both tails as weight-1 singletons, so
        // the count sits well above COMPRESSION but grows only
        // logarithmically with the stream length.
        assert!(d.centroids.len() < 256, "{} centroids", d.centroids.len());
    }

    #[test]
    fn digest_snapshot_round_trips_summary_statistics() {
        let mut d = TDigest::default();
        for i in 0..500 {
            d.record((i % 97) as f64);
        }
        let snap = d.snapshot();
        let mut back = TDigest::from_snapshot(&snap);
        assert_eq!(back.count(), d.count());
        let (a, b) = (d.quantile(0.9).unwrap(), back.quantile(0.9).unwrap());
        assert!((a - b).abs() < 1e-9, "p90 drifted: {a} vs {b}");
    }

    #[test]
    fn hostile_digest_snapshot_is_sanitized() {
        let snap = DigestSnapshot {
            centroids: vec![
                (f64::NAN.to_bits(), 5),
                (10.0f64.to_bits(), 0),
                (3.0f64.to_bits(), 2),
            ],
            count: 99, // lies; rebuilt from surviving weights
            min_bits: f64::INFINITY.to_bits(),
            max_bits: 3.0f64.to_bits(),
        };
        let mut d = TDigest::from_snapshot(&snap);
        assert_eq!(d.count(), 2, "only the finite, weighted centroid survives");
        assert!(d.quantile(0.5).unwrap().is_finite());
    }

    #[test]
    fn completed_live_runs_drive_predictions_and_persist() {
        let profiler = Profiler::new();
        assert!(
            profiler.predict(7, "mcs-m", None).is_none(),
            "cold = unknown"
        );
        profiler.record_run(7, "mcs-m", 6, live(10, 100, 1_100, 55), None);
        profiler.record_run(7, "mcs-m", 6, live(10, 120, 900, 45), None);
        assert_eq!(profiler.predict(7, "mcs-m", None), Some(1_000));
        assert_eq!(profiler.views()[0].predicted_results, 10);
        // A different backend is a different profile.
        assert!(profiler.predict(7, "lex-m", None).is_none());
    }

    #[test]
    fn incomplete_and_replay_runs_never_touch_the_digests() {
        let profiler = Profiler::new();
        profiler.record_run(
            1,
            "mcs-m",
            5,
            RunRecord {
                kind: RunKind::Live,
                completed: false,
                results: 3,
                first_us: Some(10),
                wall_us: 50,
                extends: 9,
            },
            None,
        );
        assert!(
            profiler.predict(1, "mcs-m", None).is_none(),
            "a budget-truncated run must not teach a fake wall"
        );
        profiler.record_run(
            1,
            "mcs-m",
            5,
            RunRecord {
                kind: RunKind::Replay,
                completed: true,
                results: 3,
                first_us: Some(1),
                wall_us: 5,
                extends: 0,
            },
            None,
        );
        let views = profiler.views();
        assert_eq!(views.len(), 1);
        assert_eq!(views[0].replay_hits, 1);
        assert_eq!(views[0].live_runs, 0);
    }

    #[test]
    fn profiles_persist_and_rehydrate_through_a_store() {
        use mintri_store::StoreConfig;
        let dir = std::env::temp_dir().join(format!(
            "mintri-profiler-{}-{}",
            std::process::id(),
            line!()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        let store = Store::open(StoreConfig::at(&dir)).unwrap();
        {
            let profiler = Profiler::new();
            profiler.record_run(42, "mcs-m", 8, live(20, 200, 2_200, 100), Some(&store));
            store.flush();
        }
        // A fresh profiler (fresh process) predicts from disk.
        let profiler = Profiler::new();
        assert_eq!(profiler.predict(42, "mcs-m", Some(&store)), Some(2_200));
        assert_eq!(profiler.views()[0].predicted_results, 20);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn views_sort_hot_atoms_first() {
        let profiler = Profiler::new();
        profiler.record_run(1, "mcs-m", 4, live(5, 10, 100, 9), None);
        profiler.record_run(2, "mcs-m", 9, live(50, 40, 9_000, 400), None);
        let views = profiler.views();
        assert_eq!(views[0].fingerprint, 2, "slowest atom leads the report");
        assert_eq!(views[0].predicted_wall_us, 9_000);
        assert_eq!(views[1].fingerprint, 1);
    }
}
