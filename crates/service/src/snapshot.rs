//! Crash-safe snapshot / verified-restore of the warm-artifact store.
//!
//! A [`JuryService`](crate::JuryService) rebuilt from a process restart
//! pays the full cold-build cost — `O(N log N)` sorts and bound-pruned
//! AltrM solves — per distinct pool content.
//! This module persists the content-addressed store itself: one binary
//! file per interned [`ArtifactSet`], keyed exactly like the in-memory
//! entry by its content fingerprint, plus a JSON manifest naming them.
//! A restarted service pointed at the directory re-attaches pools to
//! snapshot entries **by content** at registration time and answers its
//! first queries warm.
//!
//! ## Crash safety
//!
//! Every file (entries first, manifest last) is written to a temp name,
//! `fsync`ed, then atomically renamed; the directory is fsynced after
//! each rename. A crash mid-snapshot therefore leaves either the old
//! manifest (pointing at the old, still-intact entry files — entry
//! names are content-keyed, and rewrites of the *same* key are
//! atomic-replace) or the new manifest over fully-written new files.
//! There is no window in which a reader can observe a half-written
//! snapshot through the manifest.
//!
//! ## Trust model: verify everything, degrade to rebuild
//!
//! Snapshot bytes are *untrusted input*, exactly like wire data. The
//! manifest is only a catalog; every claim it makes is re-verified
//! against file contents, and every file section carries its own
//! checksum. Beyond integrity, restore re-establishes **semantic**
//! bindings against the live registering pool:
//!
//! * the embedded key must equal the requested key, and the decoded
//!   founding sequence must admit the registering pool via
//!   [`ArtifactSet::match_pool`] (content comparison, never hash trust);
//! * each order must be strictly ascending under its solver's total
//!   order over the matched jurors ([`eps_cmp`],
//!   [`PayAlg::greedy_cmp`]) — both are total with the position as
//!   final tie-break, so this admits exactly the permutation a fresh
//!   sort of the pool produces;
//! * the AltrM answer's members must be strictly ascending and in
//!   range.
//!
//! Any failure rejects the *candidate* — counted in
//! [`ServiceStats::snapshot_rejections`](crate::ServiceStats) — and the
//! pool falls back to the ordinary cold build. Corruption can cost the
//! warm start, never a wrong answer. (Like any trusted-storage cache,
//! the checksums guard against crashes and bit rot, not an adversary
//! who can forge internally-consistent files.)
//!
//! ## Multi-process sharing: generations, lease, fencing
//!
//! Checkpoints are **incremental** and **generation-numbered**: each
//! commit writes only the entries that changed since the previous
//! generation (new files named `art-<key>-g<gen>-e<epoch>.snap`), then
//! publishes `manifest-<gen>.json` referencing both the fresh files
//! and the retained files of earlier generations. The manifest rename
//! is the commit point; files orphaned by the new generation are
//! garbage-collected only *after* it is durable, so a crash at any
//! byte boundary leaves the previous generation fully readable.
//! Readers scan for the highest parseable generation and verify
//! everything as before.
//!
//! Writes are coordinated by the advisory single-writer lease in
//! [`lease`] (see its docs for the acquire/break/fence protocol).
//!
//! ## One format
//!
//! Readers accept exactly what the writer writes: entry files headed
//! [`MAGIC`] and holding the sections below, under manifests of
//! [`MANIFEST_VERSION`]. Anything else — files of an older format
//! included — is version skew: a counted rejection, then the ordinary
//! cold build, whose next checkpoint rewrites the directory in this
//! format.
//!
//! An entry persists what a cold build sorts and scans: the content
//! sequence, both orders and the AltrM answer. The PayM budget staircase
//! is not persisted; a restored set starts with an empty one, like a
//! freshly built set, and records its steps as budgets arrive.

use crate::store::ArtifactSet;
use crate::AltrAnswer;
use jury_core::error::JuryError;
use jury_core::fingerprint::FingerprintKey;
use jury_core::juror::Juror;
use jury_core::paym::PayAlg;
use jury_core::problem::Selection;
use jury_core::solver::eps_cmp;
use jury_numeric::hash::splitmix64;
use serde::{json, Deserialize, Serialize, Value};
use std::cmp::Ordering;
use std::collections::{HashMap, HashSet};
use std::fs::{self, File};
use std::io::{self, Write as _};
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Duration;

pub mod fault;
pub(crate) mod lease;
pub mod watch;

pub use fault::{FaultAction, FaultPlane, FaultScheduler, NoFaults};
pub use lease::LeaseConfig;
pub use watch::SnapshotWatcher;

/// First bytes of every entry file. The trailing digit is the format
/// version: decoders refuse other versions (version skew is a counted
/// rejection, not an error).
const MAGIC: &[u8; 8] = b"JRYSNP02";

/// Manifest schema version (see [`MAGIC`] for the entry-file version).
const MANIFEST_VERSION: u64 = 2;

// Section tags. An unknown tag, a duplicate and a missing END
// terminator are rejections.
const TAG_END: u32 = 0;
const TAG_KEY: u32 = 1;
const TAG_SEQ: u32 = 2;
const TAG_EPS_ORDER: u32 = 3;
const TAG_GREEDY_ORDER: u32 = 4;
const TAG_ALTR: u32 = 6;

/// The integrity fold used by snapshot files: a splitmix64 chain over
/// the bytes taken as little-endian 64-bit words (zero-padded tail),
/// seeded with the length. Public so external tooling (and the fault
/// harness) can re-derive manifest checksums.
pub fn snapshot_checksum(bytes: &[u8]) -> u64 {
    let mut h = 0x9e37_79b9_7f4a_7c15u64 ^ (bytes.len() as u64);
    let mut chunks = bytes.chunks_exact(8);
    for chunk in &mut chunks {
        h = splitmix64(h ^ u64::from_le_bytes(chunk.try_into().expect("exact chunk")));
    }
    let rem = chunks.remainder();
    if !rem.is_empty() {
        let mut buf = [0u8; 8];
        buf[..rem.len()].copy_from_slice(rem);
        h = splitmix64(h ^ u64::from_le_bytes(buf));
    }
    h
}

/// A section's trailing checksum binds the payload to its tag.
fn section_checksum(tag: u32, payload: &[u8]) -> u64 {
    splitmix64(snapshot_checksum(payload) ^ u64::from(tag))
}

/// What one snapshot write produced (observability; the frontend's
/// admin route reports it).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SnapshotReport {
    /// Interned entries the committed generation references in total
    /// (freshly written plus retained).
    pub entries: usize,
    /// Entries actually (re)written this checkpoint — the dirty set.
    pub written: usize,
    /// Entries retained unchanged from earlier generations.
    pub retained: usize,
    /// Entry-file bytes written this checkpoint (manifest excluded).
    pub bytes: u64,
    /// The committed generation number (`0` = nothing ever committed:
    /// an empty store over an empty directory).
    pub generation: u64,
}

impl Serialize for SnapshotReport {
    fn to_value(&self) -> Value {
        Value::object([
            ("entries", self.entries.to_value()),
            ("written", self.written.to_value()),
            ("retained", self.retained.to_value()),
            ("bytes", self.bytes.to_value()),
            ("generation", self.generation.to_value()),
        ])
    }
}

/// Why a snapshot write did not (fully) commit.
#[derive(Debug)]
pub enum SnapshotError {
    /// Filesystem failure before any per-entry accounting applied.
    Io(io::Error),
    /// Another writer holds a live lease on the directory; this
    /// service can still restore read-only. `age_ms` is how old the
    /// holder's heartbeat was.
    LeaseHeld {
        /// The live holder's id.
        holder: String,
        /// Heartbeat age observed, milliseconds.
        age_ms: u64,
    },
    /// This writer's lease was broken (stale heartbeat, epoch bumped)
    /// and its commit was refused by the fence. The service must not
    /// write again without a fresh acquire; `winner: 0` means the
    /// superseding epoch could not be read.
    Fenced {
        /// The epoch this writer believed it held.
        ours: u64,
        /// The superseding epoch (0 if unknown).
        winner: u64,
    },
    /// Some entry files failed to write; **no manifest was committed**,
    /// so readers still see the previous generation intact.
    Partial {
        /// Entries written successfully before/around the failure.
        written: usize,
        /// Entries whose write failed.
        failed: usize,
        /// The first underlying failure.
        error: io::Error,
    },
}

impl std::fmt::Display for SnapshotError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::Io(e) => write!(f, "snapshot io: {e}"),
            Self::LeaseHeld { holder, age_ms } => {
                write!(f, "writer lease held by {holder} (heartbeat {age_ms} ms old)")
            }
            Self::Fenced { ours, winner } => {
                write!(f, "writer fenced: epoch {ours} superseded by epoch {winner}")
            }
            Self::Partial { written, failed, error } => {
                write!(
                    f,
                    "partial snapshot: {written} entries written, {failed} failed, \
                     manifest not committed: {error}"
                )
            }
        }
    }
}

impl std::error::Error for SnapshotError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            Self::Io(e) | Self::Partial { error: e, .. } => Some(e),
            _ => None,
        }
    }
}

impl From<io::Error> for SnapshotError {
    fn from(e: io::Error) -> Self {
        Self::Io(e)
    }
}

// ---------------------------------------------------------------------
// Binary primitives
// ---------------------------------------------------------------------

fn put_u32(buf: &mut Vec<u8>, v: u32) {
    buf.extend_from_slice(&v.to_le_bytes());
}

fn put_u64(buf: &mut Vec<u8>, v: u64) {
    buf.extend_from_slice(&v.to_le_bytes());
}

/// Appends one `[tag][len][payload][checksum]` section.
fn put_section(out: &mut Vec<u8>, tag: u32, payload: &[u8]) {
    put_u32(out, tag);
    put_u64(out, payload.len() as u64);
    out.extend_from_slice(payload);
    put_u64(out, section_checksum(tag, payload));
}

/// Bounds-checked little-endian cursor over untrusted bytes.
struct Reader<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    fn new(bytes: &'a [u8]) -> Self {
        Self { bytes, pos: 0 }
    }

    fn take(&mut self, n: usize) -> Option<&'a [u8]> {
        let end = self.pos.checked_add(n)?;
        let slice = self.bytes.get(self.pos..end)?;
        self.pos = end;
        Some(slice)
    }

    fn u32(&mut self) -> Option<u32> {
        self.take(4).map(|b| u32::from_le_bytes(b.try_into().expect("4 bytes")))
    }

    fn u64(&mut self) -> Option<u64> {
        self.take(8).map(|b| u64::from_le_bytes(b.try_into().expect("8 bytes")))
    }

    /// An index bounded by the pool size `n`.
    fn index(&mut self, n: usize) -> Option<usize> {
        let v = self.u64()?;
        let v = usize::try_from(v).ok()?;
        (v < n).then_some(v)
    }

    fn done(&self) -> Option<()> {
        (self.pos == self.bytes.len()).then_some(())
    }
}

/// Walks the section stream after the magic, verifying each section's
/// checksum and requiring the END marker to land exactly at end-of-file
/// (truncation and trailing garbage both reject). Unknown and duplicate
/// tags reject.
fn split_sections(bytes: &[u8]) -> Option<HashMap<u32, &[u8]>> {
    let mut r = Reader::new(bytes);
    let mut sections = HashMap::new();
    loop {
        let tag = r.u32()?;
        let len = r.u64()?;
        let len = usize::try_from(len).ok()?;
        let payload = r.take(len)?;
        let checksum = r.u64()?;
        if checksum != section_checksum(tag, payload) {
            return None;
        }
        if tag == TAG_END {
            if len != 0 {
                return None;
            }
            r.done()?;
            return Some(sections);
        }
        let known = matches!(tag, TAG_KEY | TAG_SEQ | TAG_EPS_ORDER | TAG_GREEDY_ORDER | TAG_ALTR);
        if !known || sections.insert(tag, payload).is_some() {
            return None;
        }
    }
}

// ---------------------------------------------------------------------
// Entry encoding
// ---------------------------------------------------------------------

/// Serializes one interned entry to its snapshot file bytes. Bulk
/// arrays are raw little-endian words (JSON digits would dominate the
/// restart budget at 10⁶ jurors); only the AltrM answer embeds
/// wire-JSON.
pub(crate) fn encode_entry(key: &FingerprintKey, set: &ArtifactSet) -> Vec<u8> {
    let seq = &set.seq;
    let n = seq.len();
    let mut out = Vec::with_capacity(64 + 40 * n);
    out.extend_from_slice(MAGIC);

    let mut p = Vec::with_capacity(24);
    put_u64(&mut p, key.lanes[0]);
    put_u64(&mut p, key.lanes[1]);
    put_u64(&mut p, key.len);
    put_section(&mut out, TAG_KEY, &p);

    let mut p = Vec::with_capacity(16 * n);
    for &(eps_bits, cost_bits) in seq {
        put_u64(&mut p, eps_bits);
        put_u64(&mut p, cost_bits);
    }
    put_section(&mut out, TAG_SEQ, &p);

    for (tag, order) in [(TAG_EPS_ORDER, &set.eps_order), (TAG_GREEDY_ORDER, &set.greedy_order)] {
        let mut p = Vec::with_capacity(8 * n);
        for &i in order.iter() {
            put_u64(&mut p, i as u64);
        }
        put_section(&mut out, tag, &p);
    }

    if let Some(answer) = set.altr.get() {
        put_section(&mut out, TAG_ALTR, altr_to_json(answer).as_bytes());
    }

    put_section(&mut out, TAG_END, &[]);
    out
}

/// The AltrM answer as wire-JSON: `{"ok": bool, "value": Selection |
/// JuryError}` reusing the core wire codecs.
fn altr_to_json(answer: &AltrAnswer) -> String {
    let (ok, value) = match answer {
        Ok(selection) => (true, selection.as_ref().to_value()),
        Err(error) => (false, error.to_value()),
    };
    json::to_string(&Value::object([("ok", ok.to_value()), ("value", value)]))
}

fn altr_from_json(payload: &[u8], n: usize) -> Option<AltrAnswer> {
    let text = std::str::from_utf8(payload).ok()?;
    let value = json::parse(text).ok()?;
    let ok = value.get("ok")?.as_bool()?;
    let inner = value.get("value")?;
    if ok {
        let selection = Selection::from_value(inner).ok()?;
        valid_members(&selection, n).then(|| Ok(Arc::new(selection)))
    } else {
        Some(Err(JuryError::from_value(inner).ok()?))
    }
}

/// Members must be strictly ascending and in-range — the invariant
/// every solver output holds and downstream translation relies on.
fn valid_members(selection: &Selection, n: usize) -> bool {
    selection.members.iter().all(|&m| m < n) && selection.members.windows(2).all(|w| w[0] < w[1])
}

// ---------------------------------------------------------------------
// Verified load
// ---------------------------------------------------------------------

/// Loads and fully verifies one cataloged entry for the registering
/// pool (see the module docs for the gate list). `None` is a counted
/// rejection; the caller falls back to the cold build.
fn load_entry(
    dir: &Path,
    record: &ManifestEntry,
    key: &FingerprintKey,
    jurors: &[Juror],
) -> Option<ArtifactSet> {
    let bytes = fs::read(dir.join(&record.file)).ok()?;
    if bytes.len() as u64 != record.bytes || snapshot_checksum(&bytes) != record.checksum {
        return None;
    }
    if bytes.len() < MAGIC.len() || &bytes[..MAGIC.len()] != MAGIC {
        return None;
    }
    let sections = split_sections(&bytes[MAGIC.len()..])?;

    let mut kr = Reader::new(sections.get(&TAG_KEY)?);
    let lanes = [kr.u64()?, kr.u64()?];
    let len = kr.u64()?;
    kr.done()?;
    if (FingerprintKey { lanes, len }) != *key {
        return None;
    }
    let n = usize::try_from(key.len).ok()?;
    if jurors.len() != n {
        return None;
    }

    let mut sr = Reader::new(sections.get(&TAG_SEQ)?);
    let mut seq = Vec::with_capacity(n);
    for _ in 0..n {
        seq.push((sr.u64()?, sr.u64()?));
    }
    sr.done()?;

    let mut orders = [Vec::new(), Vec::new()];
    for (slot, tag) in orders.iter_mut().zip([TAG_EPS_ORDER, TAG_GREEDY_ORDER]) {
        let mut r = Reader::new(sections.get(&tag)?);
        let mut order = Vec::with_capacity(n);
        for _ in 0..n {
            order.push(r.index(n)?);
        }
        r.done()?;
        *slot = order;
    }
    let [eps_order, greedy_order] = orders;

    let altr = match sections.get(&TAG_ALTR) {
        Some(payload) => Some(altr_from_json(payload, n)?),
        None => None,
    };

    let set = ArtifactSet::from_parts(seq, eps_order, greedy_order, altr);
    // The decisive content gate: the decoded founding sequence must
    // admit the live registering pool — the same comparison a warm
    // in-memory entry would run. A doctored manifest that borrows
    // another pool's fingerprint dies on the KEY cross-check above; a
    // colliding fingerprint dies here.
    if !set.match_pool(jurors) {
        return None;
    }
    // Order binding: over the matched jurors, each order must be
    // strictly ascending under its solver's total order. Both orders
    // are total with the position as final tie-break, so n in-range
    // indices pass only as the one permutation a fresh sort produces —
    // any duplicate or swapped pair fails.
    let ascending = |order: &[usize], cmp: fn(&[Juror], usize, usize) -> Ordering| {
        order.windows(2).all(|w| cmp(jurors, w[0], w[1]) == Ordering::Less)
    };
    (ascending(&set.eps_order, eps_cmp) && ascending(&set.greedy_order, PayAlg::greedy_cmp))
        .then_some(set)
}

// ---------------------------------------------------------------------
// Manifest and catalog
// ---------------------------------------------------------------------

/// One manifest line: where an entry lives and what it must hash to.
#[derive(Debug, Clone)]
struct ManifestEntry {
    file: String,
    bytes: u64,
    checksum: u64,
}

fn hex(v: u64) -> Value {
    Value::String(format!("{v:016x}"))
}

fn from_hex(value: Option<&Value>) -> Option<u64> {
    u64::from_str_radix(value?.as_str()?, 16).ok()
}

/// The name of generation `gen`'s manifest.
fn manifest_name(gen: u64) -> String {
    format!("manifest-{gen}.json")
}

/// Inverse of [`manifest_name`]: `Some(gen)` iff `name` is a manifest
/// file name.
fn manifest_generation(name: &str) -> Option<u64> {
    let digits = name.strip_prefix("manifest-")?.strip_suffix(".json")?;
    if digits.is_empty() || !digits.bytes().all(|b| b.is_ascii_digit()) {
        return None;
    }
    digits.parse().ok()
}

/// Every manifest present in `dir`, highest generation first.
fn scan_manifests(dir: &Path) -> Vec<(u64, String)> {
    let mut found = Vec::new();
    if let Ok(read) = fs::read_dir(dir) {
        for entry in read.flatten() {
            let name = entry.file_name();
            let Some(name) = name.to_str() else { continue };
            if let Some(gen) = manifest_generation(name) {
                found.push((gen, name.to_string()));
            }
        }
    }
    found.sort_by_key(|&(gen, _)| std::cmp::Reverse(gen));
    found
}

/// The parsed manifest of a snapshot directory, indexed by content
/// fingerprint.
#[derive(Debug, Default)]
pub(crate) struct Catalog {
    dir: PathBuf,
    /// Manifests present but none readable (corrupt JSON, version
    /// skew): every restore attempt is a counted rejection.
    poisoned: bool,
    /// The generation this catalog reflects (0 = nothing readable on
    /// disk).
    generation: u64,
    /// When that generation was committed (`None` with no generation)
    /// — the basis of the `snapshot_age_ms` and `follower_lag_ms`
    /// gauges.
    written_at_ms: Option<u64>,
    entries: HashMap<FingerprintKey, Vec<ManifestEntry>>,
}

/// One restore attempt's outcome: the verified set (if any candidate
/// survived) plus how many candidates were rejected on the way.
pub(crate) struct RestoreAttempt {
    pub set: Option<ArtifactSet>,
    pub rejections: usize,
}

impl Catalog {
    /// Reads the highest parseable manifest generation under `dir`.
    /// Unreadable generations (corrupt JSON, torn GC race, version
    /// skew) fall through to the next lower one; only a directory
    /// whose *every* manifest is unreadable poisons the catalog so
    /// attempts are counted as rejections. No manifests at all is an
    /// empty catalog (fresh directory, nothing to restore — not an
    /// error). One re-scan absorbs the race where a writer commits a
    /// new generation and GCs the old one mid-load.
    pub(crate) fn load(dir: &Path) -> Self {
        for _ in 0..2 {
            let found = scan_manifests(dir);
            if found.is_empty() {
                return Self { dir: dir.to_path_buf(), ..Self::default() };
            }
            for (gen, name) in &found {
                let Ok(text) = fs::read_to_string(dir.join(name)) else { continue };
                let Some(parsed) = parse_manifest(&text) else { continue };
                let mut entries: HashMap<FingerprintKey, Vec<ManifestEntry>> = HashMap::new();
                for (fp, record) in parsed.records {
                    entries.entry(fp).or_default().push(record);
                }
                return Self {
                    dir: dir.to_path_buf(),
                    poisoned: false,
                    generation: *gen,
                    written_at_ms: Some(parsed.written_at_ms),
                    entries,
                };
            }
        }
        Self { dir: dir.to_path_buf(), poisoned: true, ..Self::default() }
    }

    /// The generation this catalog reflects (0 = none).
    pub(crate) fn generation(&self) -> u64 {
        self.generation
    }

    /// When this catalog's generation was committed, if recorded.
    pub(crate) fn written_at_ms(&self) -> Option<u64> {
        self.written_at_ms
    }

    /// Attempts to restore a verified entry for `key` on behalf of the
    /// registering `jurors`. Candidates are tried in manifest order;
    /// the first to pass every gate wins. Rejection accounting follows
    /// the catalog contract: failed candidates and a poisoned manifest
    /// count; content the snapshot never knew is a plain miss.
    pub(crate) fn restore(&self, key: &FingerprintKey, jurors: &[Juror]) -> RestoreAttempt {
        if self.poisoned {
            return RestoreAttempt { set: None, rejections: 1 };
        }
        let Some(candidates) = self.entries.get(key) else {
            return RestoreAttempt { set: None, rejections: 0 };
        };
        let mut rejections = 0usize;
        for record in candidates {
            match load_entry(&self.dir, record, key, jurors) {
                Some(set) => return RestoreAttempt { set: Some(set), rejections },
                None => rejections += 1,
            }
        }
        RestoreAttempt { set: None, rejections }
    }
}

/// A successfully parsed manifest: the entry records plus the
/// generation metadata.
struct ParsedManifest {
    records: Vec<(FingerprintKey, ManifestEntry)>,
    /// Lease epoch the manifest was committed under.
    epoch: u64,
    /// Wall-clock commit stamp, milliseconds since the Unix epoch.
    written_at_ms: u64,
}

fn parse_manifest(text: &str) -> Option<ParsedManifest> {
    let value = json::parse(text).ok()?;
    if value.get("format")?.as_str()? != "jury-snapshot"
        || value.get("version")?.as_u64()? != MANIFEST_VERSION
    {
        return None;
    }
    let mut records = Vec::new();
    for entry in value.get("entries")?.as_array()? {
        let lanes = entry.get("lanes")?.as_array()?;
        if lanes.len() != 2 {
            return None;
        }
        let fp = FingerprintKey {
            lanes: [from_hex(Some(&lanes[0]))?, from_hex(Some(&lanes[1]))?],
            len: from_hex(entry.get("len"))?,
        };
        let file = entry.get("file")?.as_str()?;
        // Entry files live flat in the snapshot directory; a manifest
        // naming anything else is malformed.
        if file.is_empty() || file.contains(['/', '\\']) || file.contains("..") {
            return None;
        }
        let record = ManifestEntry {
            file: file.to_string(),
            bytes: from_hex(entry.get("bytes"))?,
            checksum: from_hex(entry.get("checksum"))?,
        };
        records.push((fp, record));
    }
    Some(ParsedManifest {
        records,
        epoch: from_hex(value.get("epoch"))?,
        written_at_ms: from_hex(value.get("written_at_ms"))?,
    })
}

// ---------------------------------------------------------------------
// Crash-safe write
// ---------------------------------------------------------------------

/// Content-keyed entry file name, qualified by the generation and
/// lease epoch that first wrote it: retained files from earlier
/// generations coexist with fresh ones, and two writers racing across
/// an epoch bump can never collide on a name.
fn entry_file_name(key: &FingerprintKey, gen: u64, epoch: u64) -> String {
    let mut h = splitmix64(key.lanes[0]);
    h = splitmix64(h ^ key.lanes[1]);
    format!("art-{:016x}-g{gen}-e{epoch}.snap", splitmix64(h ^ key.len))
}

/// Temp-write + fsync + atomic rename + (best-effort) directory fsync.
/// `op` prefixes the fault-plane consultation before each stage
/// (`"entry"` or `"manifest"`), so a chaos kill can land between the
/// write, the durability point, and the publish rename.
fn write_atomic(
    faults: &dyn fault::FaultPlane,
    op: &str,
    dir: &Path,
    name: &str,
    bytes: &[u8],
) -> io::Result<()> {
    let tmp = dir.join(format!("{name}.tmp"));
    faults.before(&format!("{op}.create"))?;
    let mut file = File::create(&tmp)?;
    file.write_all(bytes)?;
    faults.before(&format!("{op}.sync"))?;
    file.sync_all()?;
    drop(file);
    faults.before(&format!("{op}.rename"))?;
    fs::rename(&tmp, dir.join(name))?;
    if let Ok(d) = File::open(dir) {
        let _ = d.sync_all();
    }
    Ok(())
}

/// The manifest record for one persisted entry.
fn manifest_record(key: &FingerprintKey, file: &str, bytes: u64, checksum: u64) -> Value {
    Value::object([
        ("file", Value::String(file.to_string())),
        ("lanes", Value::Array(vec![hex(key.lanes[0]), hex(key.lanes[1])])),
        ("len", hex(key.len)),
        ("bytes", hex(bytes)),
        ("checksum", hex(checksum)),
    ])
}

/// One entry as the writer last committed it — enough to decide
/// cleanness without re-reading the file.
#[derive(Debug, Clone)]
struct Persisted {
    file: String,
    bytes: u64,
    checksum: u64,
    /// The [`ArtifactSet::mutation_version`] the persisted bytes
    /// reflect. `None` when the record was reloaded from a manifest
    /// (another process, or a prior life of this one) — cleanness then
    /// falls back to an encode-and-compare check.
    version: Option<u64>,
}

/// The writer's view of one snapshot directory across checkpoints.
#[derive(Debug, Default)]
struct DirState {
    /// Whether `gen`/`persisted` reflect an actual disk read (a fresh
    /// state and a read of a directory with no readable manifest both
    /// have `gen == 0`, but only the second loaded anything).
    loaded: bool,
    /// The last generation this writer observed committed.
    gen: u64,
    /// The lease epoch this writer believes it holds, if any.
    epoch: Option<u64>,
    /// Commit stamp of `gen`, for the stats gauges.
    written_at_ms: Option<u64>,
    persisted: HashMap<FingerprintKey, Persisted>,
}

/// Per-service writer state: a stable holder id plus one [`DirState`]
/// per snapshot directory ever written. Never cloned with the service
/// — a clone is a distinct would-be writer with its own identity.
#[derive(Debug)]
pub(crate) struct WriterState {
    holder: String,
    dirs: HashMap<PathBuf, DirState>,
    /// The fault plane every snapshot/lease filesystem operation
    /// consults — [`fault::NoFaults`] in production, a
    /// [`fault::FaultScheduler`] under the chaos harness.
    faults: Arc<dyn fault::FaultPlane>,
}

impl Default for WriterState {
    fn default() -> Self {
        Self {
            holder: lease::new_holder_id(),
            dirs: HashMap::new(),
            faults: Arc::new(fault::NoFaults),
        }
    }
}

impl WriterState {
    /// This writer's cross-process holder identity (the id its lease
    /// files carry).
    pub(crate) fn holder(&self) -> &str {
        &self.holder
    }

    /// Replaces the fault plane (test/chaos instrumentation; the
    /// default is the no-op production plane).
    pub(crate) fn set_fault_plane(&mut self, faults: Arc<dyn fault::FaultPlane>) {
        self.faults = faults;
    }

    /// The highest generation (and its commit stamp) this writer has
    /// observed across every directory it wrote, for the stats gauges.
    /// `None` until something committed.
    pub(crate) fn observed(&self) -> Option<(u64, Option<u64>)> {
        self.dirs
            .values()
            .filter(|st| st.loaded && st.gen > 0)
            .max_by_key(|st| st.gen)
            .map(|st| (st.gen, st.written_at_ms))
    }
}

/// Canonical map key for a snapshot directory (two spellings of one
/// path must share writer state).
fn dir_key(dir: &Path) -> PathBuf {
    fs::canonicalize(dir).unwrap_or_else(|_| dir.to_path_buf())
}

/// Releases the writer lease on `dir` if this writer holds it —
/// graceful drain. Forgetting the epoch also makes any later write a
/// fresh acquire rather than a believed-held refresh.
pub(crate) fn release_lease(state: &mut WriterState, dir: &Path) -> io::Result<()> {
    let key = dir_key(dir);
    let held = state.dirs.get(&key).is_some_and(|st| st.epoch.is_some());
    if held {
        if let Some(st) = state.dirs.get_mut(&key) {
            st.epoch = None;
        }
        lease::release(&*state.faults, &key, &state.holder)?;
    }
    Ok(())
}

/// Writes an incremental, lease-fenced checkpoint of the store.
///
/// The commit sequence: acquire/refresh the lease (possibly breaking a
/// stale one — see [`lease`]), sync this writer's view with the
/// highest on-disk generation, diff the live store against it (a
/// matching mutation-version or matching encoded length+checksum means
/// *clean*: the already-persisted file is retained untouched), write
/// only the dirty entries (fresh `-g<gen>-` names, temp + fsync +
/// rename each), re-verify the lease (the fence), commit
/// `manifest-<gen>.json`, then garbage-collect files no manifest of
/// this generation references. A failure anywhere before the manifest
/// rename leaves the previous generation fully readable; per-entry
/// write failures abort the commit as [`SnapshotError::Partial`].
///
/// A checkpoint with nothing dirty and nothing removed skips the
/// commit entirely — no file in the directory is touched (beyond the
/// lease heartbeat) and the report shows `written == 0` at the current
/// generation.
pub(crate) fn write_incremental<'a>(
    state: &mut WriterState,
    dir: &Path,
    ttl: Duration,
    entries: impl Iterator<Item = (&'a FingerprintKey, &'a Arc<ArtifactSet>)>,
) -> Result<SnapshotReport, SnapshotError> {
    fs::create_dir_all(dir)?;
    let key = dir_key(dir);
    let dir = key.as_path();
    let faults = Arc::clone(&state.faults);
    let faults = &*faults;

    // Sync with the highest parseable on-disk generation. The epoch
    // recorded there floors any lease we acquire or break.
    faults.before("scan.dir")?;
    let mut disk_gen = 0u64;
    let mut floor_epoch = 0u64;
    let mut disk_manifest: Option<ParsedManifest> = None;
    for (gen, name) in scan_manifests(dir) {
        faults.before("manifest.read")?;
        let Ok(text) = fs::read_to_string(dir.join(&name)) else { continue };
        if let Some(parsed) = parse_manifest(&text) {
            disk_gen = gen;
            floor_epoch = parsed.epoch;
            disk_manifest = Some(parsed);
            break;
        }
    }

    let st = state.dirs.entry(key.clone()).or_default();
    if !st.loaded || st.gen != disk_gen {
        // Someone else committed (or this is our first look): adopt
        // the disk view. Versions are unknown, so cleanness degrades to
        // encode-and-compare until our next commit re-stamps.
        st.loaded = true;
        st.gen = disk_gen;
        st.written_at_ms = disk_manifest.as_ref().map(|parsed| parsed.written_at_ms);
        st.persisted = disk_manifest
            .into_iter()
            .flat_map(|parsed| parsed.records)
            .map(|(fp, ManifestEntry { file, bytes, checksum })| {
                (fp, Persisted { file, bytes, checksum, version: None })
            })
            .collect();
    }

    let epoch = match lease::acquire(faults, dir, &state.holder, st.epoch, ttl, floor_epoch) {
        Ok(epoch) => epoch,
        Err(e) => {
            if matches!(e, SnapshotError::Fenced { .. }) {
                // We no longer hold anything; a later call starts over.
                st.epoch = None;
                st.loaded = false;
            }
            return Err(e);
        }
    };
    st.epoch = Some(epoch);

    // Diff the live store against the persisted view.
    let next_gen = st.gen + 1;
    let mut live: HashSet<FingerprintKey> = HashSet::new();
    let mut retained: Vec<(FingerprintKey, Persisted)> = Vec::new();
    let mut fresh: Vec<(FingerprintKey, Persisted)> = Vec::new();
    let mut written = 0usize;
    let mut failed = 0usize;
    let mut bytes_written = 0u64;
    let mut first_error: Option<io::Error> = None;
    for (key, set) in entries {
        live.insert(*key);
        let version = set.mutation_version();
        let mut encoded: Option<Vec<u8>> = None;
        if let Some(rec) = st.persisted.get(key) {
            let on_disk = dir.join(&rec.file).is_file();
            if on_disk && rec.version == Some(version) {
                retained.push((*key, rec.clone()));
                continue;
            }
            if on_disk {
                let enc = encode_entry(key, set);
                if rec.bytes == enc.len() as u64 && rec.checksum == snapshot_checksum(&enc) {
                    // Byte-identical to what is already persisted:
                    // retain the file, re-stamp the version.
                    retained.push((*key, Persisted { version: Some(version), ..rec.clone() }));
                    continue;
                }
                encoded = Some(enc);
            }
            // A missing retained file falls through to a rewrite —
            // self-healing against out-of-band deletion.
        }
        let enc = encoded.unwrap_or_else(|| encode_entry(key, set));
        let file = entry_file_name(key, next_gen, epoch);
        match write_atomic(faults, "entry", dir, &file, &enc) {
            Ok(()) => {
                written += 1;
                bytes_written += enc.len() as u64;
                let checksum = snapshot_checksum(&enc);
                fresh.push((
                    *key,
                    Persisted { file, bytes: enc.len() as u64, checksum, version: Some(version) },
                ));
            }
            Err(e) => {
                failed += 1;
                first_error.get_or_insert(e);
            }
        }
    }
    if let Some(error) = first_error {
        // No manifest commit: readers keep the previous generation,
        // and the writer's view is left untouched for a retry.
        return Err(SnapshotError::Partial { written, failed, error });
    }

    let removed = st.persisted.keys().any(|k| !live.contains(k));
    if written == 0 && !removed {
        // Nothing changed: skip the commit, keep every mtime. Only
        // the version re-stamps learned above are carried forward.
        let report = SnapshotReport {
            entries: retained.len(),
            written: 0,
            retained: retained.len(),
            bytes: 0,
            generation: st.gen,
        };
        st.persisted = retained.into_iter().collect();
        return Ok(report);
    }

    // The fence: a zombie whose lease was broken while it encoded must
    // not publish. Checked immediately before the commit rename.
    if let Err(e) = lease::verify(faults, dir, &state.holder, epoch) {
        st.epoch = None;
        st.loaded = false;
        return Err(e);
    }

    let mut manifest_entries = Vec::with_capacity(retained.len() + fresh.len());
    for (key, rec) in retained.iter().chain(fresh.iter()) {
        manifest_entries.push(manifest_record(key, &rec.file, rec.bytes, rec.checksum));
    }
    let manifest = Value::object([
        ("format", Value::String("jury-snapshot".to_string())),
        ("version", MANIFEST_VERSION.to_value()),
        ("generation", hex(next_gen)),
        ("epoch", hex(epoch)),
        ("written_at_ms", hex(lease::now_ms())),
        ("entries", Value::Array(manifest_entries)),
    ]);
    let manifest_file = manifest_name(next_gen);
    write_atomic(
        faults,
        "manifest",
        dir,
        &manifest_file,
        json::to_string_pretty(&manifest).as_bytes(),
    )?;

    // The new generation is durable: garbage-collect everything it
    // does not reference — older manifests, orphaned entry files, and
    // stray temp files from crashed writers. Lease-protocol files are
    // left to the lease code: a rival candidate's lease temp may sit
    // between its write and its link right now.
    let keep: HashSet<&str> =
        retained.iter().chain(fresh.iter()).map(|(_, rec)| rec.file.as_str()).collect();
    if let Ok(read) = fs::read_dir(dir) {
        for entry in read.flatten() {
            let name = entry.file_name();
            let Some(name) = name.to_str() else { continue };
            let stale_manifest = manifest_generation(name).is_some_and(|g| g != next_gen);
            let stale_entry = name.ends_with(".snap") && !keep.contains(name);
            let stray_tmp = name.ends_with(".tmp") && !name.starts_with(lease::LEASE);
            if (stale_manifest || stale_entry || stray_tmp) && faults.before("gc.unlink").is_ok() {
                let _ = fs::remove_file(entry.path());
            }
        }
    }

    let report = SnapshotReport {
        entries: retained.len() + fresh.len(),
        written,
        retained: retained.len(),
        bytes: bytes_written,
        generation: next_gen,
    };
    st.gen = next_gen;
    st.written_at_ms = Some(lease::now_ms());
    st.persisted = retained.into_iter().chain(fresh).collect();
    Ok(report)
}
