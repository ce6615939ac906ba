//! Fault-injection harness for the snapshot/restore subsystem.
//!
//! The contract under test (see `jury_service`'s *persistence
//! contract*): a service pointed at a snapshot directory answers
//! **bit-identically** to one that never saw a snapshot — whether the
//! snapshot is pristine (verified restore, counted in
//! `snapshot_restores`) or damaged in any way (counted rejection in
//! `snapshot_rejections`, silent fall back to the cold build). No
//! corruption may panic, error a registration, or change an answer.
//!
//! The matrix drives the real write path, then mutates the on-disk
//! bytes the way crashes and bit rot do: truncation at and inside every
//! section boundary, a flipped bit in every field class (key, sequence,
//! orders, cached answer, checksums, magic), a sealed section of an
//! unknown tag, adjacent entries swapped in either order, manifests
//! swapped between pools, a manifest doctored to claim a mutated pool's
//! fingerprint over stale bytes, and version skew in both the manifest
//! and the entry magic. Random truncations, byte flips and appended
//! garbage in entry files, and random or mutated manifest text, are
//! driven through the same restore path by property tests.
//! Where a gate would be masked by an outer checksum, the harness
//! re-forges the outer layers (manifest whole-file checksum, section
//! checksum) with the exported [`snapshot_checksum`] so the inner
//! semantic gates are the ones that fire.

use jury_core::juror::{pool_from_rates_and_costs, Juror};
use jury_core::problem::Selection;
use jury_numeric::hash::splitmix64;
use jury_service::{snapshot_checksum, DecisionTask, JuryService, PoolId, ServiceConfig};
use proptest::collection::vec;
use proptest::prelude::*;
use proptest::sample::Index;
use serde::{json, Serialize, Value};
use std::fs;
use std::path::{Path, PathBuf};
use std::sync::OnceLock;

// ---------------------------------------------------------------------
// Fixture plumbing
// ---------------------------------------------------------------------

/// A per-case scratch directory under the system temp root, removed on
/// drop (and pre-cleaned, in case a previous run died mid-case).
struct TempDir(PathBuf);

impl TempDir {
    fn new(tag: &str) -> Self {
        let dir =
            std::env::temp_dir().join(format!("jury-snapshot-faults-{}-{tag}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).unwrap();
        Self(dir)
    }

    fn path(&self) -> &Path {
        &self.0
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = fs::remove_dir_all(&self.0);
    }
}

/// Deterministic pool content: golden-ratio-spread error rates with
/// varied costs, so AltrM, PayM and the staircase all get real work.
fn pool(n: usize) -> Vec<Juror> {
    let pairs: Vec<(f64, f64)> = (0..n)
        .map(|i| {
            let x = (i as f64 * 0.618_033_988_749_894_9).fract();
            (0.02 + 0.9 * x, 0.05 + ((i * 7 + 3) % 11) as f64 / 11.0)
        })
        .collect();
    pool_from_rates_and_costs(&pairs).unwrap()
}

fn flat_config() -> ServiceConfig {
    ServiceConfig::default()
}

fn with_snapshot(mut config: ServiceConfig, dir: &Path) -> ServiceConfig {
    config.snapshot_dir = Some(dir.to_path_buf());
    config
}

/// The comparable footprint of one solve: members plus the exact bits
/// of JER and cost (or the error's text). "Bit-identical" means these
/// are equal for the whole driven stream.
type Outcome = Result<(Vec<usize>, u64, u64), String>;

fn footprint(result: Result<Selection, impl std::fmt::Display>) -> Outcome {
    result.map(|s| (s.members, s.jer.to_bits(), s.total_cost.to_bits())).map_err(|e| e.to_string())
}

/// Panics with the first broken store invariant
/// ([`JuryService::check_invariants`]); run after every service step.
fn check(service: &JuryService) {
    if let Err(broken) = service.check_invariants() {
        panic!("store invariant broken: {broken}");
    }
}

/// Drives a fixed task stream that populates every snapshot section
/// (the AltrM answer) and exercises the in-memory staircase (each
/// budget solved twice: a recorded step, then its replay). Registration
/// goes through `warm_pool` — the restore-on-register attach point.
fn drive(service: &mut JuryService, pool: PoolId) -> Vec<Outcome> {
    service.warm_pool(pool).unwrap();
    check(service);
    let mut out = Vec::new();
    out.push(footprint(service.solve(&DecisionTask::altruism(pool))));
    check(service);
    for budget in [0.4, 1.1, 2.7, 5.0] {
        for _ in 0..2 {
            out.push(footprint(service.solve(&DecisionTask::pay_as_you_go(pool, budget))));
            check(service);
        }
    }
    out.push(footprint(service.solve(&DecisionTask::altruism(pool))));
    check(service);
    out
}

/// A fresh never-snapshotted service over `jurors`: the control stream
/// every faulted restore must match bit-for-bit.
fn control(config: &ServiceConfig, jurors: &[Juror]) -> Vec<Outcome> {
    let mut service = JuryService::with_config(config.clone());
    let pool = service.create_pool(jurors.to_vec());
    drive(&mut service, pool)
}

/// Builds, drives and snapshots a service into `dir`, returning the
/// driven stream (the snapshot covers every artifact the drive built).
fn seed_snapshot(dir: &Path, config: &ServiceConfig, jurors: &[Juror]) -> Vec<Outcome> {
    let mut service = JuryService::with_config(config.clone());
    let pool = service.create_pool(jurors.to_vec());
    let out = drive(&mut service, pool);
    let report = service.snapshot(dir).unwrap();
    check(&service);
    assert!(report.entries >= 1, "seed snapshot persisted nothing");
    out
}

/// The core fault assertion: a service pointed at the (damaged)
/// directory must answer exactly like the control, restore nothing,
/// and count at least one rejection.
fn assert_cold_fallback(
    dir: &Path,
    config: &ServiceConfig,
    jurors: &[Juror],
    control: &[Outcome],
    what: &str,
) {
    let mut service = JuryService::with_config(with_snapshot(config.clone(), dir));
    let pool = service.create_pool(jurors.to_vec());
    let out = drive(&mut service, pool);
    assert_eq!(out, control, "{what}: answers drifted from the never-snapshotted control");
    let stats = service.stats();
    assert_eq!(stats.snapshot_restores, 0, "{what}: a damaged snapshot must not restore");
    assert!(stats.snapshot_rejections >= 1, "{what}: the rejection must be counted");
}

// ---------------------------------------------------------------------
// On-disk surgery
// ---------------------------------------------------------------------

/// The highest-generation manifest in `dir` — the one a reader loads
/// first, and therefore the one every forgery must overwrite.
fn manifest_path(dir: &Path) -> PathBuf {
    let mut best: Option<(u64, PathBuf)> = None;
    for entry in fs::read_dir(dir).unwrap() {
        let path = entry.unwrap().path();
        let name = path.file_name().and_then(|n| n.to_str()).unwrap_or("").to_string();
        let generation = name
            .strip_prefix("manifest-")
            .and_then(|rest| rest.strip_suffix(".json"))
            .and_then(|g| g.parse::<u64>().ok());
        if let Some(generation) = generation {
            if best.as_ref().is_none_or(|(b, _)| generation > *b) {
                best = Some((generation, path));
            }
        }
    }
    best.expect("no manifest in dir").1
}

/// The single `art-*.snap` entry file of a one-pool snapshot.
fn entry_file(dir: &Path) -> PathBuf {
    let mut files: Vec<PathBuf> = fs::read_dir(dir)
        .unwrap()
        .map(|e| e.unwrap().path())
        .filter(|p| p.extension().is_some_and(|x| x == "snap"))
        .collect();
    assert_eq!(files.len(), 1, "expected exactly one entry file in {dir:?}");
    files.pop().unwrap()
}

/// Re-forges the manifest's per-entry `bytes`/`checksum` from whatever
/// is on disk right now, so mutations pass the whole-file gate and the
/// *inner* verification gates are the ones exercised.
fn reforge_manifest(dir: &Path) {
    let old = json::parse(&fs::read_to_string(manifest_path(dir)).unwrap()).unwrap();
    let mut entries = Vec::new();
    for entry in old.get("entries").unwrap().as_array().unwrap() {
        let file = entry.get("file").unwrap().as_str().unwrap().to_string();
        let bytes = fs::read(dir.join(&file)).unwrap();
        entries.push(reforged_entry(entry, file, &bytes));
    }
    write_manifest(dir, entries);
}

/// One manifest entry with `file` (re)assigned and `bytes`/`checksum`
/// recomputed from the actual file contents; identity fields (lanes,
/// len) carried over from `from`.
fn reforged_entry(from: &Value, file: String, bytes: &[u8]) -> Value {
    Value::object([
        ("file", Value::String(file)),
        ("lanes", from.get("lanes").unwrap().clone()),
        ("len", from.get("len").unwrap().clone()),
        ("bytes", Value::String(format!("{:016x}", bytes.len()))),
        ("checksum", Value::String(format!("{:016x}", snapshot_checksum(bytes)))),
    ])
}

/// Replaces the `entries` of the highest-generation manifest, keeping
/// every other field the writer committed.
fn write_manifest(dir: &Path, entries: Vec<Value>) {
    let path = manifest_path(dir);
    let Value::Object(mut fields) = json::parse(&fs::read_to_string(&path).unwrap()).unwrap()
    else {
        panic!("a manifest is an object")
    };
    fields.retain(|(key, _)| key != "entries");
    fields.push(("entries".to_string(), Value::Array(entries)));
    fs::write(path, json::to_string(&Value::Object(fields))).unwrap();
}

/// One section of an entry file, by byte offsets into the file.
struct Section {
    tag: u32,
    /// Offset of the `[tag][len]` header.
    header: usize,
    /// Offset of the payload.
    payload: usize,
    len: usize,
    /// Offset of the trailing checksum.
    checksum: usize,
}

/// Walks the `[tag][len][payload][checksum]` stream after the magic —
/// the same framing the decoder parses, reimplemented independently so
/// the harness does not trust the code under test for its offsets.
fn sections_of(bytes: &[u8]) -> Vec<Section> {
    let mut off = 8;
    let mut out = Vec::new();
    loop {
        let tag = u32::from_le_bytes(bytes[off..off + 4].try_into().unwrap());
        let len = u64::from_le_bytes(bytes[off + 4..off + 12].try_into().unwrap()) as usize;
        let payload = off + 12;
        let checksum = payload + len;
        out.push(Section { tag, header: off, payload, len, checksum });
        off = checksum + 8;
        if tag == 0 {
            assert_eq!(off, bytes.len(), "END section must land at end-of-file");
            return out;
        }
    }
}

/// Recomputes a section's trailing checksum after its payload was
/// mutated, so the semantic gates behind the checksum fire.
fn reseal_section(bytes: &mut [u8], section: &Section) {
    let sum = splitmix64(
        snapshot_checksum(&bytes[section.payload..section.payload + section.len])
            ^ u64::from(section.tag),
    );
    bytes[section.checksum..section.checksum + 8].copy_from_slice(&sum.to_le_bytes());
}

fn section_name(tag: u32) -> &'static str {
    match tag {
        0 => "END",
        1 => "KEY",
        2 => "SEQ",
        3 => "EPS_ORDER",
        4 => "GREEDY_ORDER",
        6 => "ALTR",
        _ => "UNKNOWN",
    }
}

// ---------------------------------------------------------------------
// The matrix
// ---------------------------------------------------------------------

/// Pristine snapshots restore: answers stay bit-identical to a cold
/// service while `snapshot_restores` proves the warm path was taken.
#[test]
fn pristine_snapshot_restores_bit_identically() {
    let config = flat_config();
    let tmp = TempDir::new("happy");
    let jurors = pool(24);
    let cold = control(&config, &jurors);
    let seeded = seed_snapshot(tmp.path(), &config, &jurors);
    assert_eq!(seeded, cold, "the seeding run itself must match the control");

    let mut restored = JuryService::with_config(with_snapshot(config.clone(), tmp.path()));
    let pool_id = restored.create_pool(jurors.clone());
    let out = drive(&mut restored, pool_id);
    assert_eq!(out, cold, "restored answers must be bit-identical");
    let stats = restored.stats();
    assert!(stats.snapshot_restores >= 1, "restore must actually happen");
    assert_eq!(stats.snapshot_rejections, 0, "a pristine snapshot rejects nothing");
}

/// Content the snapshot never saw is a plain miss: no restore, but also
/// no counted rejection (nothing was promised).
#[test]
fn unknown_content_is_a_plain_miss_not_a_rejection() {
    let tmp = TempDir::new("plain-miss");
    let config = flat_config();
    seed_snapshot(tmp.path(), &config, &pool(24));

    let novel = pool(31);
    let cold = control(&config, &novel);
    let mut service = JuryService::with_config(with_snapshot(config.clone(), tmp.path()));
    let pool_id = service.create_pool(novel.clone());
    assert_eq!(drive(&mut service, pool_id), cold);
    let stats = service.stats();
    assert_eq!(stats.snapshot_restores, 0);
    assert_eq!(stats.snapshot_rejections, 0, "an honest miss is not a rejection");
}

/// Truncation at and inside every section boundary. With a stale
/// manifest the whole-file gate fires; with a re-forged manifest the
/// framing walk itself must reject the torn tail.
#[test]
fn truncation_at_every_section_boundary_falls_back_cold() {
    let tmp = TempDir::new("truncate");
    let config = flat_config();
    let jurors = pool(24);
    let cold = control(&config, &jurors);
    seed_snapshot(tmp.path(), &config, &jurors);
    let file = entry_file(tmp.path());
    let pristine = fs::read(&file).unwrap();

    // A crash torn mid-write with the *old* manifest still in place:
    // the manifest's length/checksum claim catches it.
    fs::write(&file, &pristine[..pristine.len() / 2]).unwrap();
    assert_cold_fallback(tmp.path(), &config, &jurors, &cold, "truncation, stale manifest");

    let mut cuts: Vec<(usize, String)> = Vec::new();
    for section in sections_of(&pristine) {
        let name = section_name(section.tag);
        cuts.push((section.header, format!("cut at {name} header")));
        cuts.push((section.payload, format!("cut at {name} payload start")));
        cuts.push((section.payload + section.len / 2, format!("cut mid-{name}")));
        cuts.push((section.checksum, format!("cut at {name} checksum")));
    }
    cuts.push((pristine.len() - 1, "cut one byte short of EOF".to_string()));
    cuts.push((4, "cut inside the magic".to_string()));
    for (at, what) in cuts {
        fs::write(&file, &pristine[..at]).unwrap();
        reforge_manifest(tmp.path());
        assert_cold_fallback(tmp.path(), &config, &jurors, &cold, &what);
    }

    // Restoring the pristine bytes heals the directory completely.
    fs::write(&file, &pristine).unwrap();
    reforge_manifest(tmp.path());
    let mut healed = JuryService::with_config(with_snapshot(config.clone(), tmp.path()));
    let pool_id = healed.create_pool(jurors.clone());
    assert_eq!(drive(&mut healed, pool_id), cold);
    assert!(healed.stats().snapshot_restores >= 1, "pristine bytes restore again");
}

/// One flipped bit per field class. Each section is hit twice: once
/// with only the manifest re-forged (the section checksum must fire)
/// and once with the section checksum also re-forged (the semantic
/// gate behind it — key equality, order binding, JSON validity — must
/// fire).
#[test]
fn one_flipped_bit_per_field_class_falls_back_cold() {
    let config = flat_config();
    let tmp = TempDir::new("bitflip");
    let jurors = pool(24);
    let cold = control(&config, &jurors);
    seed_snapshot(tmp.path(), &config, &jurors);
    let file = entry_file(tmp.path());
    let pristine = fs::read(&file).unwrap();

    for section in sections_of(&pristine) {
        let sect = section_name(section.tag);
        // Flip target: the first payload byte, whose corruption a
        // semantic gate is *guaranteed* to catch once checksums are
        // re-forged (first key lane / first ε word / first order index
        // / leading JSON byte). END has a zero-length payload; its
        // framing is covered by truncation.
        if section.tag == 0 {
            continue;
        }
        let at = section.payload;

        let mut flipped = pristine.clone();
        flipped[at] ^= 0x01;
        fs::write(&file, &flipped).unwrap();
        reforge_manifest(tmp.path());
        assert_cold_fallback(
            tmp.path(),
            &config,
            &jurors,
            &cold,
            &format!("bit flip in {sect}, section checksum stale"),
        );

        reseal_section(&mut flipped, &section);
        fs::write(&file, &flipped).unwrap();
        reforge_manifest(tmp.path());
        assert_cold_fallback(
            tmp.path(),
            &config,
            &jurors,
            &cold,
            &format!("bit flip in {sect}, semantic gate"),
        );
    }

    // A flipped bit in a section *checksum* itself.
    let some = &sections_of(&pristine)[1];
    let mut flipped = pristine.clone();
    flipped[some.checksum] ^= 0x01;
    fs::write(&file, &flipped).unwrap();
    reforge_manifest(tmp.path());
    assert_cold_fallback(tmp.path(), &config, &jurors, &cold, "flipped section checksum");

    // A flipped bit in the magic / format version.
    let mut flipped = pristine.clone();
    flipped[7] ^= 0x01; // b"JRYSNP02" -> b"JRYSNP03": version skew
    fs::write(&file, &flipped).unwrap();
    reforge_manifest(tmp.path());
    assert_cold_fallback(tmp.path(), &config, &jurors, &cold, "entry-file version skew");

    // A correctly sealed section of a tag this format does not define
    // (9 held the PayM staircase in the previous format), spliced in
    // before END.
    let end = sections_of(&pristine).pop().unwrap();
    let payload = b"{\"steps\":[]}";
    let mut spliced = pristine[..end.header].to_vec();
    spliced.extend_from_slice(&9u32.to_le_bytes());
    spliced.extend_from_slice(&(payload.len() as u64).to_le_bytes());
    spliced.extend_from_slice(payload);
    spliced.extend_from_slice(&splitmix64(snapshot_checksum(payload) ^ 9).to_le_bytes());
    spliced.extend_from_slice(&pristine[end.header..]);
    fs::write(&file, &spliced).unwrap();
    reforge_manifest(tmp.path());
    assert_cold_fallback(tmp.path(), &config, &jurors, &cold, "sealed section of an unknown tag");
}

/// Each order must be the one permutation a fresh sort of the pool
/// produces. Swapping any two adjacent indices in either order keeps it a
/// permutation; with the section checksum resealed and the manifest
/// re-forged, the order gate is what must refuse every such entry.
#[test]
fn adjacent_swaps_in_either_order_fall_back_cold() {
    let tmp = TempDir::new("order-swap");
    let config = flat_config();
    let jurors = pool(24);
    let cold = control(&config, &jurors);
    seed_snapshot(tmp.path(), &config, &jurors);
    let file = entry_file(tmp.path());
    let pristine = fs::read(&file).unwrap();
    for section in sections_of(&pristine).into_iter().filter(|s| matches!(s.tag, 3 | 4)) {
        let sect = section_name(section.tag);
        assert_eq!(section.len, 8 * jurors.len(), "{sect} holds one word per juror");
        for i in 0..jurors.len() - 1 {
            let mut swapped = pristine.clone();
            let at = section.payload + 8 * i;
            swapped[at..at + 16].rotate_left(8);
            reseal_section(&mut swapped, &section);
            fs::write(&file, &swapped).unwrap();
            reforge_manifest(tmp.path());
            let what = format!("{sect}: entries {i} and {} swapped", i + 1);
            assert_cold_fallback(tmp.path(), &config, &jurors, &cold, &what);
        }
    }
}

/// Manifests swapped between two pools: each entry's identity fields
/// now point at the *other* pool's bytes. The whole-file gate passes by
/// construction (lengths and checksums re-forged), so the embedded-key
/// cross-check is what must refuse the forgery — for both pools.
#[test]
fn swapped_manifest_entries_fall_back_cold() {
    let tmp = TempDir::new("swap");
    let config = flat_config();
    let jurors_a = pool(24);
    let jurors_b = pool(25);
    let cold_a = control(&config, &jurors_a);
    let cold_b = control(&config, &jurors_b);

    // One service, two pools, one snapshot with two entries.
    let mut seeder = JuryService::with_config(config.clone());
    let pa = seeder.create_pool(jurors_a.clone());
    let pb = seeder.create_pool(jurors_b.clone());
    drive(&mut seeder, pa);
    drive(&mut seeder, pb);
    let report = seeder.snapshot(tmp.path()).unwrap();
    check(&seeder);
    assert_eq!(report.entries, 2, "two distinct pools, two entries");

    let old = json::parse(&fs::read_to_string(manifest_path(tmp.path())).unwrap()).unwrap();
    let entries = old.get("entries").unwrap().as_array().unwrap();
    assert_eq!(entries.len(), 2);
    let file_0 = entries[0].get("file").unwrap().as_str().unwrap().to_string();
    let file_1 = entries[1].get("file").unwrap().as_str().unwrap().to_string();
    let bytes_0 = fs::read(tmp.path().join(&file_0)).unwrap();
    let bytes_1 = fs::read(tmp.path().join(&file_1)).unwrap();
    // Entry 0's identity now claims entry 1's file and vice versa, with
    // lengths and checksums consistent with the swapped files.
    write_manifest(
        tmp.path(),
        vec![
            reforged_entry(&entries[0], file_1, &bytes_1),
            reforged_entry(&entries[1], file_0, &bytes_0),
        ],
    );

    assert_cold_fallback(tmp.path(), &config, &jurors_a, &cold_a, "swapped manifest, pool A");
    assert_cold_fallback(tmp.path(), &config, &jurors_b, &cold_b, "swapped manifest, pool B");
}

/// A snapshot of a pool's *past* doctored to claim its mutated present:
/// the manifest advertises the post-mutation fingerprint over the
/// pre-mutation bytes. The embedded key refuses the replay.
#[test]
fn mutated_past_replay_falls_back_cold() {
    let tmp = TempDir::new("mutated-past");
    let config = flat_config();
    let jurors = pool(24);

    let mut service = JuryService::with_config(config.clone());
    let pool_id = service.create_pool(jurors.clone());
    drive(&mut service, pool_id);
    service.snapshot(tmp.path()).unwrap();
    check(&service);

    // Mutate the pool past the snapshot, then capture its new content
    // and fingerprint — the "present" the stale bytes will impersonate.
    let extra = pool_from_rates_and_costs(&[(0.345, 0.21)]).unwrap().pop().unwrap();
    service.insert_juror(pool_id, extra).unwrap();
    check(&service);
    let mutated: Vec<Juror> = service.pool(pool_id).unwrap().to_vec();
    let fp = service.fingerprint(pool_id).unwrap();
    let cold = control(&config, &mutated);

    let old = json::parse(&fs::read_to_string(manifest_path(tmp.path())).unwrap()).unwrap();
    let entry = &old.get("entries").unwrap().as_array().unwrap()[0];
    let file = entry.get("file").unwrap().as_str().unwrap().to_string();
    let bytes = fs::read(tmp.path().join(&file)).unwrap();
    let mut forged = reforged_entry(entry, file, &bytes);
    // Overwrite the identity fields with the mutated pool's.
    let fields = vec![
        ("file", forged.get("file").unwrap().clone()),
        (
            "lanes",
            Value::Array(vec![
                Value::String(format!("{:016x}", fp.lanes[0])),
                Value::String(format!("{:016x}", fp.lanes[1])),
            ]),
        ),
        ("len", Value::String(format!("{:016x}", fp.len))),
        ("bytes", forged.get("bytes").unwrap().clone()),
        ("checksum", forged.get("checksum").unwrap().clone()),
    ];
    forged = Value::object(fields);
    write_manifest(tmp.path(), vec![forged]);

    assert_cold_fallback(tmp.path(), &config, &mutated, &cold, "mutated-past replay");
}

/// Written pools stay in every checkpoint: each pool is warmed,
/// checkpointed, then written once (an update on every pool, plus an
/// insert and a removal on two of them), and checkpointed again. A
/// restart restores every pool from that second generation and answers
/// bit-identically to a never-snapshotted control over the written
/// content — whether the pool was re-driven before the checkpoint (its
/// repaired set carries fresh answers) or not (only the repaired orders
/// are persisted).
#[test]
fn written_pools_restore_from_the_next_checkpoint() {
    let tmp = TempDir::new("written");
    let config = flat_config();
    let mut service = JuryService::with_config(config.clone());
    let pools: Vec<PoolId> = (0..6).map(|i| service.create_pool(pool(20 + 3 * i))).collect();
    for &id in &pools {
        drive(&mut service, id);
    }
    service.snapshot(tmp.path()).unwrap();
    check(&service);

    let fresh = pool_from_rates_and_costs(&[(0.137, 0.42), (0.291, 0.18)]).unwrap();
    for (i, &id) in pools.iter().enumerate() {
        service.update_juror(id, i, fresh[0]).unwrap();
        check(&service);
        if i == 1 {
            service.insert_juror(id, fresh[1]).unwrap();
            check(&service);
        }
        if i == 2 {
            service.remove_juror(id, 5).unwrap();
            check(&service);
        }
        if i % 2 == 0 {
            drive(&mut service, id);
        }
    }
    assert_eq!(service.artifact_entries(), pools.len(), "every written pool is a store entry");
    let report = service.snapshot(tmp.path()).unwrap();
    check(&service);
    assert_eq!(report.entries, pools.len(), "the checkpoint persists every written pool");

    let mut restored = JuryService::with_config(with_snapshot(config.clone(), tmp.path()));
    for &id in &pools {
        let written = service.pool(id).unwrap().to_vec();
        let again = restored.create_pool(written.clone());
        let out = drive(&mut restored, again);
        assert_eq!(out, control(&config, &written), "{id}: restored answers must be bit-identical");
    }
    let stats = restored.stats();
    assert_eq!(stats.snapshot_restores, pools.len(), "every written pool restores");
    assert_eq!(stats.snapshot_rejections, 0);
}

/// A set that leaves its key and comes back is rewritten, never
/// retained stale. The pool is checkpointed under K1, then two writes
/// swap jurors 0 and 1 (K1 → K2 → K1): the multiset, and so the key,
/// returns, but the arrangement does not. The repairs run on the same
/// set in place with no solve between them, so only their own version
/// bumps tell the writer that the file it holds for K1 is stale; a
/// retained file would fail the restore's content check and cold-build.
#[test]
fn rewritten_key_round_trip_restores_bit_identically() {
    let tmp = TempDir::new("round-trip");
    let config = flat_config();
    let jurors = pool(24);
    let mut service = JuryService::with_config(config.clone());
    let id = service.create_pool(jurors.clone());
    drive(&mut service, id);
    let k1 = service.fingerprint(id).unwrap();
    service.snapshot(tmp.path()).unwrap();
    check(&service);

    service.update_juror(id, 0, jurors[1]).unwrap();
    check(&service);
    assert_ne!(service.fingerprint(id).unwrap(), k1, "K2 is new content");
    service.update_juror(id, 1, jurors[0]).unwrap();
    check(&service);
    assert_eq!(service.fingerprint(id).unwrap(), k1, "the swap restores the multiset");
    let report = service.snapshot(tmp.path()).unwrap();
    check(&service);
    assert_eq!(report.written, 1, "the re-listed set is rewritten");

    let swapped = service.pool(id).unwrap().to_vec();
    assert_ne!(swapped, jurors);
    let mut restored = JuryService::with_config(with_snapshot(config.clone(), tmp.path()));
    let again = restored.create_pool(swapped.clone());
    assert_eq!(drive(&mut restored, again), control(&config, &swapped));
    let stats = restored.stats();
    assert_eq!(stats.snapshot_restores, 1, "the rewritten entry restores");
    assert_eq!(stats.snapshot_rejections, 0);
}

/// Manifest-level damage: version skew (the previous format's version
/// and a future one) and corrupt JSON each poison the catalog, so every
/// attempt is a counted rejection; a missing manifest promises nothing.
#[test]
fn manifest_skew_falls_back_cold() {
    let config = flat_config();
    let jurors = pool(24);
    let cold = control(&config, &jurors);

    for version in [1u64, 3] {
        let tmp = TempDir::new("manifest-version");
        seed_snapshot(tmp.path(), &config, &jurors);
        let path = manifest_path(tmp.path());
        let Value::Object(mut fields) = json::parse(&fs::read_to_string(&path).unwrap()).unwrap()
        else {
            panic!("a manifest is an object")
        };
        for (key, value) in &mut fields {
            if key == "version" {
                assert_eq!(value.as_u64(), Some(2), "this build writes version 2");
                *value = version.to_value();
            }
        }
        fs::write(&path, json::to_string(&Value::Object(fields))).unwrap();
        let what = format!("manifest version {version}");
        assert_cold_fallback(tmp.path(), &config, &jurors, &cold, &what);
    }

    // Corrupt JSON.
    let tmp = TempDir::new("manifest-garbage");
    seed_snapshot(tmp.path(), &config, &jurors);
    fs::write(manifest_path(tmp.path()), b"{this is not a manifest").unwrap();
    assert_cold_fallback(tmp.path(), &config, &jurors, &cold, "corrupt manifest JSON");

    // A missing manifest over intact entry files is an empty catalog:
    // no restore, no rejection — nothing was promised.
    let tmp = TempDir::new("missing-manifest");
    seed_snapshot(tmp.path(), &config, &jurors);
    fs::remove_file(manifest_path(tmp.path())).unwrap();
    let mut service = JuryService::with_config(with_snapshot(config.clone(), tmp.path()));
    let pool_id = service.create_pool(jurors.clone());
    assert_eq!(drive(&mut service, pool_id), cold);
    let stats = service.stats();
    assert_eq!(stats.snapshot_restores, 0);
    assert_eq!(stats.snapshot_rejections, 0, "an absent manifest promises nothing");
}

/// The seeded fixtures must actually contain every section class the
/// bit-flip matrix claims to cover — otherwise the matrix is vacuous —
/// and nothing else.
#[test]
fn seeded_snapshots_cover_every_section_class() {
    let tmp = TempDir::new("coverage-flat");
    seed_snapshot(tmp.path(), &flat_config(), &pool(24));
    let tags: Vec<u32> =
        sections_of(&fs::read(entry_file(tmp.path())).unwrap()).iter().map(|s| s.tag).collect();
    assert_eq!(tags, [1, 2, 3, 4, 6, 0], "KEY, SEQ, both orders, ALTR, END");
}

// ---------------------------------------------------------------------
// On-disk format compatibility
// ---------------------------------------------------------------------

/// The entry file name and the entry bytes of one deterministic pool are
/// pinned to the values this build writes: the KEY section holds the two
/// fingerprint lanes and the length, the file-name hash covers the same
/// three words, and the manifest record carries the file, the key, the
/// byte count and the checksum. The ALTR section records the answer's
/// [`SolverStats`](jury_core::SolverStats), so a scan that evaluates
/// fewer sizes changes the bytes without changing the answer.
#[test]
fn flat_entry_name_and_bytes_are_pinned() {
    let tmp = TempDir::new("golden");
    seed_snapshot(tmp.path(), &flat_config(), &pool(24));
    let manifest = json::parse(&fs::read_to_string(manifest_path(tmp.path())).unwrap()).unwrap();
    let entries = manifest.get("entries").unwrap().as_array().unwrap();
    assert_eq!(entries.len(), 1);
    assert_eq!(
        json::to_string(&entries[0]),
        r#"{"file":"art-ac3c684daa8cad8c-g1-e1.snap","lanes":["d9159475411cf995","459ec2387af2026e"],"len":"0000000000000018","bytes":"0000000000000452","checksum":"190822a403789e15"}"#
    );
    let file = entry_file(tmp.path());
    assert_eq!(file.file_name().unwrap(), "art-ac3c684daa8cad8c-g1-e1.snap");
    let bytes = fs::read(&file).unwrap();
    assert_eq!(&bytes[..8], b"JRYSNP02");
    assert_eq!(bytes.len(), 1106);
    assert_eq!(snapshot_checksum(&bytes), 0x1908_22a4_0378_9e15);
}

// ---------------------------------------------------------------------
// Upgrade from the previous format
// ---------------------------------------------------------------------

/// The entry bytes a build of the previous format (`JRYSNP01`) wrote for
/// the pool of [`flat_entry_name_and_bytes_are_pinned`]. Besides the
/// sections this format writes, they carry a layout byte and a
/// solver-config word in KEY, the sorted ε values (tag 5), a JER
/// profile (tag 7), a pmf ladder (tag 8) and the PayM staircase (tag 9).
const V1_ENTRY: &[u8] = include_bytes!("fixtures/flat_entry_full_scan_stats.snap");

/// A version-1 manifest naming [`V1_ENTRY`] by the record that build
/// committed for it.
const V1_MANIFEST: &str = r#"{"format":"jury-snapshot","version":1,"generation":"0000000000000001","epoch":"0000000000000001","written_at_ms":"0000019000000000","entries":[{"file":"art-f41f3ff492080d1a-g1-e1.snap","lanes":["d9159475411cf995","459ec2387af2026e"],"len":"0000000000000018","layout":"flat","config":"0000000000000011","bytes":"0000000000000886","checksum":"1853d3f3f75fe2f6"}]}"#;

/// A directory of the previous format is version skew: registering its
/// pool counts exactly one rejection and answers like the cold control.
/// The next checkpoint commits a generation of this format over it (and
/// collects the old files), which a fresh service restores.
#[test]
fn previous_format_is_skew_and_the_next_checkpoint_upgrades_it() {
    let tmp = TempDir::new("upgrade");
    let config = flat_config();
    let jurors = pool(24);
    let cold = control(&config, &jurors);
    assert_eq!(&V1_ENTRY[..8], b"JRYSNP01");
    let tags: Vec<u32> = sections_of(V1_ENTRY).iter().map(|s| s.tag).collect();
    assert_eq!(tags, [1, 2, 3, 4, 5, 6, 7, 8, 9, 0], "the witness carries every retired section");
    assert_eq!((V1_ENTRY.len(), snapshot_checksum(V1_ENTRY)), (0x886, 0x1853_d3f3_f75f_e2f6));
    let v1_name = "art-f41f3ff492080d1a-g1-e1.snap";
    fs::write(tmp.path().join(v1_name), V1_ENTRY).unwrap();
    fs::write(tmp.path().join("manifest-1.json"), V1_MANIFEST).unwrap();

    let mut service = JuryService::with_config(with_snapshot(config.clone(), tmp.path()));
    let p = service.create_pool(jurors.clone());
    assert_eq!(drive(&mut service, p), cold, "answers under a version-1 directory");
    let stats = service.stats();
    assert_eq!((stats.snapshot_restores, stats.snapshot_rejections), (0, 1));

    let report = service.snapshot(tmp.path()).unwrap();
    check(&service);
    assert_eq!((report.entries, report.written, report.generation), (1, 1, 1));
    assert!(!tmp.path().join(v1_name).exists(), "the version-1 entry is collected");
    let manifest = json::parse(&fs::read_to_string(manifest_path(tmp.path())).unwrap()).unwrap();
    assert_eq!(manifest.get("version").and_then(Value::as_u64), Some(2));
    assert_eq!(&fs::read(entry_file(tmp.path())).unwrap()[..8], b"JRYSNP02");

    let mut fresh = JuryService::with_config(with_snapshot(config.clone(), tmp.path()));
    let p = fresh.create_pool(jurors.clone());
    assert_eq!(drive(&mut fresh, p), cold, "answers restored from the upgraded directory");
    let stats = fresh.stats();
    assert_eq!((stats.snapshot_restores, stats.snapshot_rejections), (1, 0));

    // The version-1 entry bytes under a record of this format are skew
    // too: the entry magic refuses them.
    fs::write(entry_file(tmp.path()), V1_ENTRY).unwrap();
    reforge_manifest(tmp.path());
    let mut skewed = JuryService::with_config(with_snapshot(config, tmp.path()));
    let p = skewed.create_pool(jurors);
    assert_eq!(drive(&mut skewed, p), cold, "answers over a version-1 entry");
    let stats = skewed.stats();
    assert_eq!((stats.snapshot_restores, stats.snapshot_rejections), (0, 1));
}

// ---------------------------------------------------------------------
// The staircase is not persisted
// ---------------------------------------------------------------------

/// Recording new PayM staircase steps leaves every entry clean: after a
/// checkpoint, budgets the drive never asked for are solved (recording
/// new steps), and the next checkpoint writes nothing at the same
/// generation. A restored pool, whose staircase starts empty, answers
/// those budgets bit-identically to a never-snapshotted control. A
/// juror write still rewrites the entry.
#[test]
fn staircase_steps_do_not_dirty_a_checkpoint() {
    let tmp = TempDir::new("staircase-clean");
    let config = flat_config();
    let jurors = pool(24);
    let budgets = [0.15, 0.25, 0.55, 0.7, 0.85, 1.3, 1.6, 2.0, 3.3, 4.2, 8.0];
    let solve_budgets = |service: &mut JuryService, id: PoolId| -> Vec<Outcome> {
        let mut out = Vec::new();
        for &budget in &budgets {
            for _ in 0..2 {
                out.push(footprint(service.solve(&DecisionTask::pay_as_you_go(id, budget))));
                check(service);
            }
        }
        out
    };
    let control_budgets = |jurors: &[Juror]| {
        let mut service = JuryService::with_config(config.clone());
        let id = service.create_pool(jurors.to_vec());
        solve_budgets(&mut service, id)
    };

    let mut service = JuryService::with_config(config.clone());
    let id = service.create_pool(jurors.clone());
    drive(&mut service, id);
    let first = service.snapshot(tmp.path()).unwrap();
    check(&service);
    assert_eq!(first.written, 1);

    let hits = service.stats().staircase_hits;
    let answers = solve_budgets(&mut service, id);
    let recorded = 2 * budgets.len() - (service.stats().staircase_hits - hits);
    assert!(recorded >= 3, "the budgets must record new steps, recorded {recorded}");
    assert_eq!(answers, control_budgets(&jurors));
    let report = service.snapshot(tmp.path()).unwrap();
    check(&service);
    assert_eq!((report.written, report.generation), (0, first.generation), "steps stay clean");

    let mut restored = JuryService::with_config(with_snapshot(config.clone(), tmp.path()));
    let again = restored.create_pool(jurors.clone());
    restored.warm_pool(again).unwrap();
    assert_eq!(solve_budgets(&mut restored, again), answers, "restored budget answers");
    let stats = restored.stats();
    assert_eq!((stats.snapshot_restores, stats.snapshot_rejections), (1, 0));

    service.update_juror(id, 3, jurors[7]).unwrap();
    check(&service);
    let report = service.snapshot(tmp.path()).unwrap();
    check(&service);
    assert_eq!((report.written, report.generation), (1, first.generation + 1), "a write dirties");
}

// ---------------------------------------------------------------------
// Adversarial reader input
// ---------------------------------------------------------------------

/// One pristine one-pool snapshot — entry and manifest names and bytes —
/// plus the control stream, seeded once per test binary.
struct Pristine {
    entry_name: String,
    entry: Vec<u8>,
    manifest_name: String,
    manifest: String,
    cold: Vec<Outcome>,
}

fn pristine() -> &'static Pristine {
    static PRISTINE: OnceLock<Pristine> = OnceLock::new();
    PRISTINE.get_or_init(|| {
        let tmp = TempDir::new("adversarial-seed");
        let config = flat_config();
        let jurors = pool(24);
        let cold = control(&config, &jurors);
        seed_snapshot(tmp.path(), &config, &jurors);
        let entry = entry_file(tmp.path());
        let manifest = manifest_path(tmp.path());
        let name = |path: &Path| path.file_name().unwrap().to_str().unwrap().to_string();
        Pristine {
            entry_name: name(&entry),
            entry: fs::read(&entry).unwrap(),
            manifest_name: name(&manifest),
            manifest: fs::read_to_string(&manifest).unwrap(),
            cold,
        }
    })
}

/// The pristine manifest with its record's `bytes`/`checksum` re-forged
/// for `entry`, so the entry's own gates are the ones that fire.
fn manifest_for(entry: &[u8]) -> String {
    let p = pristine();
    let old = json::parse(&p.manifest).unwrap();
    let record = reforged_entry(
        &old.get("entries").unwrap().as_array().unwrap()[0],
        p.entry_name.clone(),
        entry,
    );
    let Value::Object(mut fields) = old else { panic!("a manifest is an object") };
    fields.retain(|(key, _)| key != "entries");
    fields.push(("entries".to_string(), Value::Array(vec![record])));
    json::to_string(&Value::Object(fields))
}

/// Registers the pristine pool over a directory holding `entry` and
/// `manifest` under the pristine names, asserts its answers equal the
/// control, and returns `(snapshot_restores, snapshot_rejections)`.
fn restore_case(tag: &str, entry: &[u8], manifest: &[u8]) -> (usize, usize) {
    let p = pristine();
    let tmp = TempDir::new(tag);
    fs::write(tmp.path().join(&p.entry_name), entry).unwrap();
    fs::write(tmp.path().join(&p.manifest_name), manifest).unwrap();
    let mut service = JuryService::with_config(with_snapshot(flat_config(), tmp.path()));
    let id = service.create_pool(pool(24));
    assert_eq!(drive(&mut service, id), p.cold, "{tag}: answers drifted from the control");
    let stats = service.stats();
    (stats.snapshot_restores, stats.snapshot_rejections)
}

/// Applies one of three damages to `bytes`: truncation at `at`, XOR of
/// each `(position, mask)` flip (no checksum is resealed), or `garbage`
/// appended. Every damage changes the bytes.
fn damage(bytes: &[u8], kind: usize, at: Index, flips: &[(Index, u8)], garbage: &[u8]) -> Vec<u8> {
    let mut out = bytes.to_vec();
    match kind {
        0 => out.truncate(at.index(bytes.len())),
        1 => {
            for &(pos, mask) in flips {
                out[pos.index(bytes.len())] ^= mask;
            }
            if out == bytes {
                out[0] ^= 0x80; // two flips cancelled out
            }
        }
        _ => out.extend_from_slice(garbage),
    }
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    // A damaged entry file is exactly one counted rejection, under a
    // manifest re-forged for the damaged bytes or the stale pristine
    // one, and never a panic.
    #[test]
    fn damaged_entry_files_are_one_rejection(
        kind in 0..3usize,
        at in any::<Index>(),
        flips in vec((any::<Index>(), 1..=255u8), 1..=4),
        garbage in vec(0..=255u8, 1..=64),
        reforge in any::<bool>(),
    ) {
        let p = pristine();
        let entry = damage(&p.entry, kind, at, &flips, &garbage);
        let manifest = if reforge { manifest_for(&entry) } else { p.manifest.clone() };
        let outcome = restore_case("adversarial-entry", &entry, manifest.as_bytes());
        prop_assert_eq!(outcome, (0, 1));
    }

    // Random manifest text poisons the catalog: one counted rejection.
    // A damaged valid manifest either restores, counts one rejection,
    // or — when the damage hit the pool's key, so the manifest no
    // longer names this content — is a plain miss.
    #[test]
    fn random_and_damaged_manifests_restore_or_reject(
        random in vec(0..=255u8, 0..=256),
        kind in 0..3usize,
        at in any::<Index>(),
        flips in vec((any::<Index>(), 1..=255u8), 1..=4),
        garbage in vec(0..=255u8, 1..=64),
    ) {
        let p = pristine();
        let outcome = restore_case("adversarial-random-manifest", &p.entry, &random);
        prop_assert_eq!(outcome, (0, 1));

        let text = damage(p.manifest.as_bytes(), kind, at, &flips, &garbage);
        let outcome = restore_case("adversarial-manifest", &p.entry, &text);
        let record = json::parse(&p.manifest).unwrap();
        let record = &record.get("entries").unwrap().as_array().unwrap()[0];
        let lanes = record.get("lanes").unwrap().as_array().unwrap();
        let names_key = [&lanes[0], &lanes[1], record.get("len").unwrap()]
            .iter()
            .all(|field| {
                let hex = format!("\"{}\"", field.as_str().unwrap());
                text.windows(hex.len()).any(|w| w == hex.as_bytes())
            });
        prop_assert!(
            matches!(outcome, (1, 0) | (0, 1)) || (outcome == (0, 0) && !names_key),
            "outcome {:?} (names the key: {})",
            outcome,
            names_key
        );
    }
}
