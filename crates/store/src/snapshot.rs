//! The typed snapshot entries and the versioned file framing.
//!
//! Every store file is `header ‖ payload`:
//!
//! ```text
//! offset 0   magic   b"MTST"
//!        4   version u16 LE   (this build reads exactly VERSION)
//!        6   kind    u8       (1 answers, 2 plan, 3 graph, 4 profile)
//!        7   reserved u8      (zero)
//!        8   payload length   u64 LE
//!       16   payload FNV-1a64 u64 LE
//!       24   payload…
//! ```
//!
//! The payload encodes one snapshot with the varint codec. Snapshots
//! carry the *graph shape* (nodes + canonical edge list) alongside the
//! fingerprint: a 64-bit fingerprint is an address, not a proof, so
//! loaders verify true graph equality before trusting an entry —
//! a collision costs a comparison, never a wrong answer.
//!
//! Separators are stored as sorted vertex lists, NOT as `SepId`s:
//! separator ids are private to one process's interner and mean nothing
//! across restarts. Hydration re-interns each vertex set into the new
//! session's interner.

use crate::codec::{fnv1a64, CodecError, Dec, Enc};
use mintri_telemetry::{HistogramSnapshot, HISTOGRAM_BUCKETS};

/// File magic.
pub const MAGIC: [u8; 4] = *b"MTST";
/// Format version this build writes and reads.
pub const VERSION: u16 = 1;
/// Header length in bytes.
pub const HEADER_LEN: usize = 24;

/// What a store file holds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EntryKind {
    /// A completed-answer replay cache for one (atom, backend, order).
    Answers = 1,
    /// A memoized atom decomposition.
    Plan = 2,
    /// One serve-registry graph.
    Graph = 3,
    /// Learned per-atom runtime statistics (cost profile): exact totals
    /// plus two log-bucket latency histograms.
    Profile = 4,
}

impl EntryKind {
    fn from_u8(v: u8) -> Result<EntryKind, CodecError> {
        match v {
            1 => Ok(EntryKind::Answers),
            2 => Ok(EntryKind::Plan),
            3 => Ok(EntryKind::Graph),
            4 => Ok(EntryKind::Profile),
            other => Err(CodecError::BadKind(other)),
        }
    }
}

/// The order contract a persisted answer list was recorded under — the
/// store-level mirror of the engine's answer key. `Unordered` is one
/// race outcome (set-correct only); the ordered variants are the
/// sequential schedule's emission order under that print mode.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum StoredOrder {
    /// Recorded from an unordered parallel run.
    Unordered,
    /// Sequential schedule, results printed upon generation.
    UponGeneration,
    /// Sequential schedule, results printed upon queue pop.
    UponPop,
}

impl StoredOrder {
    /// Filename tag (part of the entry's identity on disk).
    pub fn tag(self) -> &'static str {
        match self {
            StoredOrder::Unordered => "u",
            StoredOrder::UponGeneration => "g",
            StoredOrder::UponPop => "p",
        }
    }

    fn to_u8(self) -> u8 {
        match self {
            StoredOrder::Unordered => 0,
            StoredOrder::UponGeneration => 1,
            StoredOrder::UponPop => 2,
        }
    }

    fn from_u8(v: u8) -> Result<StoredOrder, CodecError> {
        match v {
            0 => Ok(StoredOrder::Unordered),
            1 => Ok(StoredOrder::UponGeneration),
            2 => Ok(StoredOrder::UponPop),
            _ => Err(CodecError::BadValue),
        }
    }
}

/// Memo counters at snapshot time — a record of what the enumeration
/// cost, carried for observability (a hydrated session starts its own
/// counters at zero; that zero is the proof hydration did no work).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MemoSummary {
    /// `Extend` invocations the recording session had made.
    pub extends: u64,
    /// Crossing tests computed (memo misses).
    pub crossing_computed: u64,
    /// Distinct separators interned.
    pub separators_interned: u64,
}

/// A persisted completed-answer replay cache: every minimal
/// triangulation of one atom graph, as lists of separator vertex sets,
/// in the recorded order.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AnswerSnapshot {
    /// The atom graph's fingerprint (the disk address).
    pub fingerprint: u64,
    /// Triangulation backend that recorded the list.
    pub backend: String,
    /// Order contract of `answers`.
    pub order: StoredOrder,
    /// Node count of the atom graph.
    pub nodes: u32,
    /// Canonical edge list of the atom graph (equality proof).
    pub edges: Vec<(u32, u32)>,
    /// Each answer is a list of separators; each separator a sorted
    /// vertex list.
    pub answers: Vec<Vec<Vec<u32>>>,
    /// What the recording enumeration cost.
    pub summary: MemoSummary,
}

/// A persisted atom decomposition (the memoized plan for one graph).
/// Stores the decomposition's vertex sets only — the planner re-derives
/// the induced subgraphs and chordality flags on load, which is cheap
/// (no MCS-M triangulations, the expensive part of planning).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PlanSnapshot {
    /// The planned graph's fingerprint.
    pub fingerprint: u64,
    /// Node count of the planned graph.
    pub nodes: u32,
    /// Canonical edge list of the planned graph (equality proof).
    pub edges: Vec<(u32, u32)>,
    /// Connected components, as sorted vertex lists.
    pub components: Vec<Vec<u32>>,
    /// Atoms, in decomposition order.
    pub atoms: Vec<Vec<u32>>,
    /// Clique minimal separators the decomposition split on.
    pub separators: Vec<Vec<u32>>,
}

/// One serve-registry graph, persisted under its wire id.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GraphSnapshot {
    /// The registry id clients address the graph by.
    pub id: String,
    /// Node count.
    pub nodes: u32,
    /// Canonical edge list.
    pub edges: Vec<(u32, u32)>,
}

/// Learned runtime statistics for one `(atom fingerprint, backend)`
/// pair — the store-level image of the engine's cost profile.
///
/// Unlike answer/plan snapshots this entry carries **no graph-equality
/// proof**: a profile only feeds observability and the server's
/// default timeout, never answers, so the worst a fingerprint collision
/// can cost is a misreported row or a mis-sized timeout — the same
/// price as a cold start.
///
/// The two latency distributions are telemetry's log-bucket
/// [`HistogramSnapshot`]s, stored as a length prefix, the
/// `HISTOGRAM_BUCKETS` counts and the sum. The decoder checks them
/// against the totals they were recorded beside (one first-result value
/// per completed live run at most, one gap per first result at most), so
/// a file written in another layout — including the t-digest layout of
/// earlier builds — fails validation and is quarantined: a cold profile,
/// nothing worse.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ProfileSnapshot {
    /// The atom graph's fingerprint (the disk address).
    pub fingerprint: u64,
    /// Triangulation backend the statistics were observed under.
    pub backend: String,
    /// Node count of the atom graph (a cheap sanity hint, not a proof).
    pub nodes: u32,
    /// First-result latency distribution, microseconds.
    pub first_us: HistogramSnapshot,
    /// Inter-result gap distribution, microseconds.
    pub gap_us: HistogramSnapshot,
    /// Completed live enumerations folded into the histograms.
    pub live_runs: u64,
    /// Results emitted across those completed live runs.
    pub results_total: u64,
    /// `Extend` invocations across those runs (extends-per-result).
    pub extends_total: u64,
    /// Wall-clock microseconds across those runs (predicted-wall base).
    pub wall_us_total: u64,
    /// Streams answered from the in-RAM replay cache.
    pub replay_hits: u64,
    /// Streams answered by hydrating a disk snapshot.
    pub hydrate_hits: u64,
}

fn enc_histogram(e: &mut Enc, h: &HistogramSnapshot) {
    e.usize(h.counts.len());
    for &c in &h.counts {
        e.u64(c);
    }
    e.u64(h.sum);
}

/// One histogram plus its bucket total; a bucket count other than
/// `HISTOGRAM_BUCKETS` or a total past `u64::MAX` is corruption.
fn dec_histogram(d: &mut Dec<'_>) -> Result<(HistogramSnapshot, u64), CodecError> {
    if d.len_prefix()? != HISTOGRAM_BUCKETS {
        return Err(CodecError::BadValue);
    }
    let mut h = HistogramSnapshot::default();
    let mut total = 0u64;
    for c in &mut h.counts {
        *c = d.u64()?;
        total = total.checked_add(*c).ok_or(CodecError::BadValue)?;
    }
    h.sum = d.u64()?;
    Ok((h, total))
}

fn enc_edges(e: &mut Enc, edges: &[(u32, u32)]) {
    e.usize(edges.len());
    for &(u, v) in edges {
        e.u32(u);
        e.u32(v);
    }
}

fn dec_edges(d: &mut Dec<'_>) -> Result<Vec<(u32, u32)>, CodecError> {
    let n = d.len_prefix()?;
    let mut edges = Vec::with_capacity(n);
    for _ in 0..n {
        edges.push((d.u32()?, d.u32()?));
    }
    Ok(edges)
}

fn enc_sets(e: &mut Enc, sets: &[Vec<u32>]) {
    e.usize(sets.len());
    for set in sets {
        e.usize(set.len());
        for &v in set {
            e.u32(v);
        }
    }
}

fn dec_sets(d: &mut Dec<'_>) -> Result<Vec<Vec<u32>>, CodecError> {
    let n = d.len_prefix()?;
    let mut sets = Vec::with_capacity(n);
    for _ in 0..n {
        let k = d.len_prefix()?;
        let mut set = Vec::with_capacity(k);
        for _ in 0..k {
            set.push(d.u32()?);
        }
        sets.push(set);
    }
    Ok(sets)
}

impl AnswerSnapshot {
    fn encode_payload(&self) -> Vec<u8> {
        let mut e = Enc::new();
        e.u64(self.fingerprint);
        e.str(&self.backend);
        e.u8(self.order.to_u8());
        e.u32(self.nodes);
        enc_edges(&mut e, &self.edges);
        e.usize(self.answers.len());
        for answer in &self.answers {
            enc_sets(&mut e, answer);
        }
        e.u64(self.summary.extends);
        e.u64(self.summary.crossing_computed);
        e.u64(self.summary.separators_interned);
        e.finish()
    }

    fn decode_payload(d: &mut Dec<'_>) -> Result<AnswerSnapshot, CodecError> {
        let fingerprint = d.u64()?;
        let backend = d.str()?;
        let order = StoredOrder::from_u8(d.u8()?)?;
        let nodes = d.u32()?;
        let edges = dec_edges(d)?;
        let n = d.len_prefix()?;
        let mut answers = Vec::with_capacity(n);
        for _ in 0..n {
            answers.push(dec_sets(d)?);
        }
        let summary = MemoSummary {
            extends: d.u64()?,
            crossing_computed: d.u64()?,
            separators_interned: d.u64()?,
        };
        Ok(AnswerSnapshot {
            fingerprint,
            backend,
            order,
            nodes,
            edges,
            answers,
            summary,
        })
    }

    /// The full file bytes (header + payload).
    pub fn encode(&self) -> Vec<u8> {
        frame(EntryKind::Answers, self.encode_payload())
    }

    /// Parses full file bytes, verifying magic, version, kind, length
    /// and checksum.
    pub fn decode(bytes: &[u8]) -> Result<AnswerSnapshot, CodecError> {
        let payload = unframe(bytes, EntryKind::Answers)?;
        let mut d = Dec::new(payload);
        let snap = Self::decode_payload(&mut d)?;
        expect_drained(&d)?;
        Ok(snap)
    }
}

impl PlanSnapshot {
    fn encode_payload(&self) -> Vec<u8> {
        let mut e = Enc::new();
        e.u64(self.fingerprint);
        e.u32(self.nodes);
        enc_edges(&mut e, &self.edges);
        enc_sets(&mut e, &self.components);
        enc_sets(&mut e, &self.atoms);
        enc_sets(&mut e, &self.separators);
        e.finish()
    }

    /// The full file bytes (header + payload).
    pub fn encode(&self) -> Vec<u8> {
        frame(EntryKind::Plan, self.encode_payload())
    }

    /// Parses full file bytes, verifying the header end to end.
    pub fn decode(bytes: &[u8]) -> Result<PlanSnapshot, CodecError> {
        let payload = unframe(bytes, EntryKind::Plan)?;
        let mut d = Dec::new(payload);
        let snap = PlanSnapshot {
            fingerprint: d.u64()?,
            nodes: d.u32()?,
            edges: dec_edges(&mut d)?,
            components: dec_sets(&mut d)?,
            atoms: dec_sets(&mut d)?,
            separators: dec_sets(&mut d)?,
        };
        expect_drained(&d)?;
        Ok(snap)
    }
}

impl GraphSnapshot {
    fn encode_payload(&self) -> Vec<u8> {
        let mut e = Enc::new();
        e.str(&self.id);
        e.u32(self.nodes);
        enc_edges(&mut e, &self.edges);
        e.finish()
    }

    /// The full file bytes (header + payload).
    pub fn encode(&self) -> Vec<u8> {
        frame(EntryKind::Graph, self.encode_payload())
    }

    /// Parses full file bytes, verifying the header end to end.
    pub fn decode(bytes: &[u8]) -> Result<GraphSnapshot, CodecError> {
        let payload = unframe(bytes, EntryKind::Graph)?;
        let mut d = Dec::new(payload);
        let snap = GraphSnapshot {
            id: d.str()?,
            nodes: d.u32()?,
            edges: dec_edges(&mut d)?,
        };
        expect_drained(&d)?;
        Ok(snap)
    }
}

impl ProfileSnapshot {
    fn encode_payload(&self) -> Vec<u8> {
        let mut e = Enc::new();
        e.u64(self.fingerprint);
        e.str(&self.backend);
        e.u32(self.nodes);
        enc_histogram(&mut e, &self.first_us);
        enc_histogram(&mut e, &self.gap_us);
        e.u64(self.live_runs);
        e.u64(self.results_total);
        e.u64(self.extends_total);
        e.u64(self.wall_us_total);
        e.u64(self.replay_hits);
        e.u64(self.hydrate_hits);
        e.finish()
    }

    /// The full file bytes (header + payload).
    pub fn encode(&self) -> Vec<u8> {
        frame(EntryKind::Profile, self.encode_payload())
    }

    /// Parses full file bytes, verifying the header end to end and the
    /// histogram totals against `live_runs`.
    pub fn decode(bytes: &[u8]) -> Result<ProfileSnapshot, CodecError> {
        let payload = unframe(bytes, EntryKind::Profile)?;
        let mut d = Dec::new(payload);
        let fingerprint = d.u64()?;
        let backend = d.str()?;
        let nodes = d.u32()?;
        let (first_us, first_total) = dec_histogram(&mut d)?;
        let (gap_us, gap_total) = dec_histogram(&mut d)?;
        let snap = ProfileSnapshot {
            fingerprint,
            backend,
            nodes,
            first_us,
            gap_us,
            live_runs: d.u64()?,
            results_total: d.u64()?,
            extends_total: d.u64()?,
            wall_us_total: d.u64()?,
            replay_hits: d.u64()?,
            hydrate_hits: d.u64()?,
        };
        expect_drained(&d)?;
        if first_total > snap.live_runs || gap_total > first_total {
            return Err(CodecError::BadValue);
        }
        Ok(snap)
    }
}

/// Trailing garbage after a valid payload is corruption too.
fn expect_drained(d: &Dec<'_>) -> Result<(), CodecError> {
    if d.is_empty() {
        Ok(())
    } else {
        Err(CodecError::LengthOverrun)
    }
}

fn frame(kind: EntryKind, payload: Vec<u8>) -> Vec<u8> {
    let mut out = Vec::with_capacity(HEADER_LEN + payload.len());
    out.extend_from_slice(&MAGIC);
    out.extend_from_slice(&VERSION.to_le_bytes());
    out.push(kind as u8);
    out.push(0);
    out.extend_from_slice(&(payload.len() as u64).to_le_bytes());
    out.extend_from_slice(&fnv1a64(&payload).to_le_bytes());
    out.extend_from_slice(&payload);
    out
}

fn unframe(bytes: &[u8], expect: EntryKind) -> Result<&[u8], CodecError> {
    if bytes.len() < HEADER_LEN {
        return Err(CodecError::Truncated);
    }
    if bytes[0..4] != MAGIC {
        return Err(CodecError::BadMagic);
    }
    let version = u16::from_le_bytes([bytes[4], bytes[5]]);
    if version != VERSION {
        return Err(CodecError::BadVersion(version));
    }
    let kind = EntryKind::from_u8(bytes[6])?;
    if kind != expect {
        return Err(CodecError::BadKind(bytes[6]));
    }
    if bytes[7] != 0 {
        return Err(CodecError::BadValue);
    }
    let len = u64::from_le_bytes(bytes[8..16].try_into().unwrap());
    let payload = &bytes[HEADER_LEN..];
    if len != payload.len() as u64 {
        return Err(CodecError::Truncated);
    }
    let checksum = u64::from_le_bytes(bytes[16..24].try_into().unwrap());
    if fnv1a64(payload) != checksum {
        return Err(CodecError::BadChecksum);
    }
    Ok(payload)
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;

    fn sample_answers() -> AnswerSnapshot {
        AnswerSnapshot {
            fingerprint: 0xdead_beef_cafe_f00d,
            backend: "mcs-m".to_string(),
            order: StoredOrder::UponGeneration,
            nodes: 6,
            edges: vec![(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (0, 5)],
            answers: vec![vec![vec![0, 2], vec![2, 4]], vec![vec![1, 3]], vec![]],
            summary: MemoSummary {
                extends: 41,
                crossing_computed: 7,
                separators_interned: 9,
            },
        }
    }

    #[test]
    fn answers_round_trip() {
        let snap = sample_answers();
        assert_eq!(AnswerSnapshot::decode(&snap.encode()).unwrap(), snap);
    }

    #[test]
    fn plan_round_trips() {
        let snap = PlanSnapshot {
            fingerprint: 99,
            nodes: 9,
            edges: vec![(0, 1), (3, 8)],
            components: vec![vec![0, 1, 2, 3, 4, 5, 6, 7, 8]],
            atoms: vec![vec![0, 1, 2, 3], vec![3, 4, 5, 6, 7, 8]],
            separators: vec![vec![3]],
        };
        assert_eq!(PlanSnapshot::decode(&snap.encode()).unwrap(), snap);
    }

    #[test]
    fn graph_round_trips() {
        let snap = GraphSnapshot {
            id: "g0123456789abcdef".to_string(),
            nodes: 4,
            edges: vec![(0, 1), (1, 2), (2, 3)],
        };
        assert_eq!(GraphSnapshot::decode(&snap.encode()).unwrap(), snap);
    }

    fn histogram(values: &[u64]) -> HistogramSnapshot {
        let mut h = HistogramSnapshot::default();
        for &v in values {
            h.record(v);
        }
        h
    }

    fn sample_profile() -> ProfileSnapshot {
        ProfileSnapshot {
            fingerprint: 0x0123_4567_89ab_cdef,
            backend: "mcs-m".to_string(),
            nodes: 12,
            first_us: histogram(&[98, 120, 143, 900]),
            gap_us: histogram(&[2, 7, 31]),
            live_runs: 4,
            results_total: 44,
            extends_total: 391,
            wall_us_total: 5_120,
            replay_hits: 17,
            hydrate_hits: 2,
        }
    }

    #[test]
    fn profile_round_trips() {
        let snap = sample_profile();
        assert_eq!(ProfileSnapshot::decode(&snap.encode()).unwrap(), snap);
    }

    #[test]
    fn profile_truncations_fail_cleanly() {
        let bytes = sample_profile().encode();
        for cut in 0..bytes.len() {
            assert!(
                ProfileSnapshot::decode(&bytes[..cut]).is_err(),
                "decoding a {cut}-byte prefix must fail"
            );
        }
    }

    #[test]
    fn profile_bit_flips_fail_cleanly() {
        let snap = sample_profile();
        let bytes = snap.encode();
        for byte in 0..bytes.len() {
            for bit in 0..8 {
                let mut corrupt = bytes.clone();
                corrupt[byte] ^= 1 << bit;
                if let Ok(decoded) = ProfileSnapshot::decode(&corrupt) {
                    panic!(
                        "flip at byte {byte} bit {bit} decoded Ok ({})",
                        if decoded == snap {
                            "identical — flip not covered by checksum"
                        } else {
                            "DIFFERENT SNAPSHOT"
                        }
                    );
                }
            }
        }
    }

    /// A profile payload with raw histogram fields: `(bucket counts,
    /// sum)` for first-result and gap latency, then the totals.
    fn profile_payload(first: &[u64], gap: &[u64], live_runs: u64) -> Vec<u8> {
        let mut e = Enc::new();
        e.u64(0xabc);
        e.str("mcs-m");
        e.u32(6);
        for counts in [first, gap] {
            e.usize(counts.len());
            for &c in counts {
                e.u64(c);
            }
            e.u64(100); // sum
        }
        for total in [live_runs, 40, 300, 5_000, 0, 0] {
            e.u64(total);
        }
        e.finish()
    }

    /// Well-framed profile files that must not decode, by name: histogram
    /// layouts the decoder rejects, and a profile written by an earlier
    /// build whose latency sketch was a t-digest.
    pub(crate) fn hostile_profile_files() -> Vec<(&'static str, Vec<u8>)> {
        let buckets = |fill: &[u64]| {
            let mut counts = vec![0u64; HISTOGRAM_BUCKETS];
            counts[..fill.len()].copy_from_slice(fill);
            counts
        };
        let two = buckets(&[1, 1]);
        let mut old = Enc::new();
        old.u64(0xabc);
        old.str("mcs-m");
        old.u32(6);
        // t-digest: centroid count, (mean bits, weight) pairs, count, min
        // and max bits.
        for (centroids, count) in [
            (&[(120.5f64, 3u64), (900.0, 1)][..], 4u64),
            (&[(7.25, 3)][..], 3),
        ] {
            old.usize(centroids.len());
            for &(mean, weight) in centroids {
                old.u64(mean.to_bits());
                old.u64(weight);
            }
            old.u64(count);
            old.u64(centroids[0].0.to_bits());
            old.u64(centroids[centroids.len() - 1].0.to_bits());
        }
        for total in [4u64, 40, 300, 5_000, 0, 0] {
            old.u64(total);
        }
        [
            (
                "one bucket short",
                profile_payload(&two[1..], &[0; HISTOGRAM_BUCKETS], 4),
            ),
            (
                "one bucket extra",
                profile_payload(&[two.as_slice(), &[0]].concat(), &[0; HISTOGRAM_BUCKETS], 4),
            ),
            (
                "bucket total overflows",
                profile_payload(&buckets(&[u64::MAX, 1]), &[0; HISTOGRAM_BUCKETS], u64::MAX),
            ),
            (
                "first-result total above live runs",
                profile_payload(&two, &[0; HISTOGRAM_BUCKETS], 1),
            ),
            (
                "gap total above first-result total",
                profile_payload(&two, &buckets(&[3]), 4),
            ),
            ("t-digest layout", old.finish()),
        ]
        .into_iter()
        .map(|(name, payload)| (name, frame(EntryKind::Profile, payload)))
        .collect()
    }

    #[test]
    fn hostile_profiles_fail_to_decode() {
        // The builder itself is sound: the same fields with valid totals
        // decode.
        let valid = frame(
            EntryKind::Profile,
            profile_payload(&[1; HISTOGRAM_BUCKETS], &[0; HISTOGRAM_BUCKETS], 28),
        );
        assert_eq!(
            ProfileSnapshot::decode(&valid).unwrap().first_us.count(),
            28
        );
        for (name, bytes) in hostile_profile_files() {
            assert!(
                ProfileSnapshot::decode(&bytes).is_err(),
                "{name} decoded Ok"
            );
        }
    }

    #[test]
    fn profile_kind_is_rejected_by_other_loaders() {
        let profile = sample_profile();
        assert!(matches!(
            AnswerSnapshot::decode(&profile.encode()),
            Err(CodecError::BadKind(4))
        ));
        assert!(matches!(
            ProfileSnapshot::decode(&sample_answers().encode()),
            Err(CodecError::BadKind(1))
        ));
    }

    #[test]
    fn every_truncation_fails_cleanly() {
        let bytes = sample_answers().encode();
        for cut in 0..bytes.len() {
            assert!(
                AnswerSnapshot::decode(&bytes[..cut]).is_err(),
                "decoding a {cut}-byte prefix must fail"
            );
        }
    }

    #[test]
    fn every_single_bit_flip_fails_cleanly() {
        // Deterministic and exhaustive: flip each bit of the encoded
        // file; the decode must error (the checksum catches payload
        // flips, field validation catches header flips) — never panic,
        // never return a different snapshot as Ok.
        let snap = sample_answers();
        let bytes = snap.encode();
        for byte in 0..bytes.len() {
            for bit in 0..8 {
                let mut corrupt = bytes.clone();
                corrupt[byte] ^= 1 << bit;
                if let Ok(decoded) = AnswerSnapshot::decode(&corrupt) {
                    panic!(
                        "flip at byte {byte} bit {bit} decoded Ok ({})",
                        if decoded == snap {
                            "identical — flip not covered by checksum"
                        } else {
                            "DIFFERENT SNAPSHOT"
                        }
                    );
                }
            }
        }
    }

    #[test]
    fn wrong_kind_is_rejected() {
        let graph = GraphSnapshot {
            id: "g1".into(),
            nodes: 2,
            edges: vec![(0, 1)],
        };
        assert!(matches!(
            AnswerSnapshot::decode(&graph.encode()),
            Err(CodecError::BadKind(_))
        ));
    }

    #[test]
    fn future_version_is_rejected() {
        let mut bytes = sample_answers().encode();
        bytes[4..6].copy_from_slice(&(VERSION + 1).to_le_bytes());
        assert!(matches!(
            AnswerSnapshot::decode(&bytes),
            Err(CodecError::BadVersion(_))
        ));
    }

    #[test]
    fn trailing_garbage_is_rejected() {
        let mut bytes = sample_answers().encode();
        bytes.push(0);
        assert!(AnswerSnapshot::decode(&bytes).is_err());
    }
}
