//! Learned per-atom cost profiles — an observability surface.
//!
//! Every stream the engine serves deposits one observation here, keyed
//! the same way sessions are: `(atom fingerprint, backend)`. Completed
//! live enumerations feed two latency distributions (first-result delay,
//! mean inter-result gap) plus exact totals (results, `Extend` calls,
//! wall time); replays and hydrations bump hit counters. Two
//! readers: operators (`/v1/stats`, `/v1/metrics`, store snapshots) and
//! the server's default timeout, which arms a deadline for graphs whose
//! [`Profiler::predict`]ed wall is known to be slow.
//!
//! **The invariant:** a profile never changes an answer — dispatch does
//! not read it at all. That is why profiles carry no graph-equality
//! proof and why a corrupt or missing snapshot is only ever a cold
//! start.
//!
//! The distributions are telemetry's log-bucket [`HistogramSnapshot`],
//! the workspace's one quantile sketch: plain counts under the
//! profiler's mutex, merged by adding buckets. Its quantiles are
//! one-octave estimates, and values above 2^26 µs (about 67 s) report
//! as 2^26 µs. The exact totals, not the sketch, drive the predicted
//! wall.
//!
//! Profiles persist as [`ProfileSnapshot`] entries (kind 4) in the
//! `mintri-store` tier, so a restarted process keeps its history.

use crate::telemetry::EngineTelemetry;
use mintri_store::{ProfileSnapshot, Store};
use mintri_telemetry::HistogramSnapshot;
use std::collections::HashMap;
use std::sync::{Arc, Mutex};

/// Counter-only updates (replay/hydrate hits) between persists.
const PERSIST_EVERY: u32 = 32;

/// What the engine learned about one `(atom, backend)` pair.
#[derive(Debug, Clone, Copy, Default)]
pub struct AtomProfile {
    /// Node count of the atom (context for human readers of `/v1/stats`).
    pub nodes: u32,
    /// First-result latency of completed live runs, µs.
    pub first_us: HistogramSnapshot,
    /// Mean inter-result gap per completed live run, µs.
    pub gap_us: HistogramSnapshot,
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

    fn snapshot(&self, fingerprint: u64, backend: &str) -> ProfileSnapshot {
        ProfileSnapshot {
            fingerprint,
            backend: backend.to_string(),
            nodes: self.nodes,
            first_us: self.first_us,
            gap_us: self.gap_us,
            live_runs: self.live_runs,
            results_total: self.results_total,
            extends_total: self.extends_total,
            wall_us_total: self.wall_us_total,
            replay_hits: self.replay_hits,
            hydrate_hits: self.hydrate_hits,
        }
    }

    fn merge(&mut self, snap: &ProfileSnapshot) {
        self.nodes = self.nodes.max(snap.nodes);
        self.first_us.merge(&snap.first_us);
        self.gap_us.merge(&snap.gap_us);
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
    /// runs never update the histograms — a truncated wall would teach the
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
    /// Completed live runs folded into the histograms.
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
pub struct Profiler {
    inner: Mutex<HashMap<(u64, &'static str), Slot>>,
    /// The engine's metric handles; the profiler bumps the `profile_*`
    /// family (write-only, per the telemetry invariant).
    telemetry: Arc<EngineTelemetry>,
}

impl Profiler {
    /// An empty profiler reporting into `telemetry`.
    pub fn new(telemetry: Arc<EngineTelemetry>) -> Profiler {
        Profiler {
            inner: Mutex::default(),
            telemetry,
        }
    }

    /// Ensures a slot exists, probing the disk tier exactly once per
    /// key. Caller holds the lock.
    fn warm_slot<'a>(
        map: &'a mut HashMap<(u64, &'static str), Slot>,
        telemetry: &EngineTelemetry,
        fingerprint: u64,
        backend: &'static str,
        store: Option<&Store>,
    ) -> &'a mut Slot {
        let slot = map.entry((fingerprint, backend)).or_insert_with(|| {
            telemetry.profile_entries.add(1);
            Slot {
                profile: AtomProfile::default(),
                probed: false,
                unsaved: 0,
            }
        });
        if !slot.probed {
            slot.probed = true;
            if let Some(snap) = store.and_then(|s| s.load_profile(fingerprint, backend)) {
                slot.profile.merge(&snap);
                telemetry.profile_hydrates.inc();
            }
        }
        slot
    }

    /// Folds one finished stream in. Completed live runs update the
    /// histograms and persist immediately; replay/hydrate hits persist
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
        let slot = Self::warm_slot(&mut map, &self.telemetry, fingerprint, backend, store);
        let profile = &mut slot.profile;
        profile.nodes = profile.nodes.max(nodes);
        let mut persist = false;
        match run.kind {
            RunKind::Live => {
                if run.completed {
                    if let Some(first) = run.first_us {
                        profile.first_us.record(first);
                        if run.results > 1 {
                            let gap = run.wall_us.saturating_sub(first) / (run.results - 1);
                            profile.gap_us.record(gap);
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
        self.telemetry.profile_runs_recorded.inc();
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
                self.telemetry.profile_persists.inc();
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
        let slot = Self::warm_slot(&mut map, &self.telemetry, fingerprint, backend, store);
        slot.profile.predicted_wall_us()
    }

    /// Every profile held in RAM, sorted by predicted wall descending
    /// (the rows an operator wants first). For `/v1/stats`.
    pub fn views(&self) -> Vec<ProfileView> {
        let map = self.inner.lock().unwrap();
        let mut rows: Vec<ProfileView> = map
            .iter()
            .map(|(&(fingerprint, backend), slot)| {
                let p = &slot.profile;
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
                    first_us_p50: p.first_us.p50().unwrap_or(0),
                    first_us_p99: p.first_us.p99().unwrap_or(0),
                    gap_us_p50: p.gap_us.p50().unwrap_or(0),
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

    fn profiler() -> Profiler {
        Profiler::new(Arc::new(EngineTelemetry::new(Arc::new(
            mintri_telemetry::Registry::new(),
        ))))
    }

    /// The histogram's accuracy: an estimate lies in the power-of-two
    /// bucket `(2^(i-1), 2^i]` that holds the true value, bounds included.
    fn assert_within_octave(estimate: u64, truth: u64) {
        let i = mintri_telemetry::bucket_index(truth);
        let lower = if i == 0 { 0 } else { 1u64 << (i - 1) };
        let upper = mintri_telemetry::bucket_le(i).unwrap();
        assert!(
            (lower..=upper).contains(&estimate),
            "estimate {estimate} outside ({lower}, {upper}] holding {truth}"
        );
    }

    #[test]
    fn profile_quantiles_track_a_uniform_stream() {
        let profiler = profiler();
        for i in 0..1000 {
            // Two results each, so every run also records a gap of 2·i.
            profiler.record_run(3, "mcs-m", 6, live(2, i, 3 * i, 1), None);
        }
        let views = profiler.views();
        assert_eq!(views[0].live_runs, 1000);
        assert_within_octave(views[0].first_us_p50, 500);
        assert_within_octave(views[0].first_us_p99, 990);
        assert_within_octave(views[0].gap_us_p50, 1000);
    }

    #[test]
    fn profile_snapshot_round_trips_the_histograms() {
        let mut profile = AtomProfile::default();
        for i in 0..500 {
            profile.first_us.record(i % 97);
            profile.gap_us.record(i % 13);
        }
        profile.live_runs = 500;
        let mut back = AtomProfile::default();
        back.merge(&profile.snapshot(1, "mcs-m"));
        assert_eq!(back.first_us, profile.first_us);
        assert_eq!(back.gap_us, profile.gap_us);
        assert_eq!(back.first_us.quantile(0.9), profile.first_us.quantile(0.9));
        assert_within_octave(back.first_us.quantile(0.9).unwrap(), 87);
    }

    #[test]
    fn a_rehydrated_profile_merges_with_runs_recorded_since() {
        let mut persisted = AtomProfile::default();
        let mut warm = AtomProfile::default();
        let mut one = AtomProfile::default();
        for v in [3u64, 40, 41, 700] {
            persisted.first_us.record(v);
            one.first_us.record(v);
        }
        for v in [5u64, 9_000, 1 << 30] {
            warm.first_us.record(v);
            one.first_us.record(v);
        }
        warm.merge(&persisted.snapshot(1, "mcs-m"));
        assert_eq!(warm.first_us, one.first_us);
        assert_eq!(warm.first_us.count(), 7);
        // Past the last finite boundary a value reports as 2^26 µs.
        assert_eq!(warm.first_us.quantile(1.0), Some(1 << 26));
    }

    #[test]
    fn completed_live_runs_drive_predictions_and_persist() {
        let profiler = profiler();
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
    fn incomplete_and_replay_runs_never_touch_the_histograms() {
        let profiler = profiler();
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
        let before = {
            let profiler = profiler();
            profiler.record_run(42, "mcs-m", 8, live(20, 200, 2_200, 100), Some(&store));
            profiler.record_run(42, "mcs-m", 8, live(20, 3_000, 9_000, 100), Some(&store));
            store.flush();
            profiler.views().remove(0)
        };
        // A fresh profiler (fresh process) predicts from disk.
        let profiler = profiler();
        assert_eq!(profiler.predict(42, "mcs-m", Some(&store)), Some(5_600));
        let after = profiler.views().remove(0);
        assert_eq!(after.predicted_results, 20);
        assert_eq!(
            (after.first_us_p50, after.first_us_p99, after.gap_us_p50),
            (before.first_us_p50, before.first_us_p99, before.gap_us_p50),
            "the latency quantiles survive the store round trip"
        );
        assert!(after.first_us_p99 > after.first_us_p50);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn views_sort_hot_atoms_first() {
        let profiler = profiler();
        profiler.record_run(1, "mcs-m", 4, live(5, 10, 100, 9), None);
        profiler.record_run(2, "mcs-m", 9, live(50, 40, 9_000, 400), None);
        let views = profiler.views();
        assert_eq!(views[0].fingerprint, 2, "slowest atom leads the report");
        assert_eq!(views[0].predicted_wall_us, 9_000);
        assert_eq!(views[1].fingerprint, 1);
    }
}
