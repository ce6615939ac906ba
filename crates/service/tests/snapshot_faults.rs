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
//! orders, cached answers, staircase, checksums, magic), adjacent
//! entries swapped in either order, manifests swapped between pools, a
//! manifest doctored to claim a mutated pool's fingerprint over stale
//! bytes, and version skew in both the manifest and the entry magic.
//! Where a gate would be masked by an outer checksum, the harness
//! re-forges the outer layers (manifest whole-file checksum, section
//! checksum) with the exported [`snapshot_checksum`] so the inner
//! semantic gates are the ones that fire.

use jury_core::juror::{pool_from_rates_and_costs, Juror};
use jury_core::problem::Selection;
use jury_numeric::hash::splitmix64;
use jury_service::{snapshot_checksum, DecisionTask, JuryService, PoolId, ServiceConfig};
use serde::{json, Serialize, Value};
use std::fs;
use std::path::{Path, PathBuf};

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

/// Drives a fixed task stream that populates every snapshot section:
/// the AltrM answer and a staircase with recorded replays (each budget
/// solved twice). Registration goes
/// through `warm_pool` — the restore-on-register attach point.
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
        let generation = if name == "manifest.json" {
            Some(0)
        } else {
            name.strip_prefix("manifest-")
                .and_then(|rest| rest.strip_suffix(".json"))
                .and_then(|g| g.parse::<u64>().ok())
        };
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
/// len, layout, config) carried over from `from`.
fn reforged_entry(from: &Value, file: String, bytes: &[u8]) -> Value {
    Value::object([
        ("file", Value::String(file)),
        ("lanes", from.get("lanes").unwrap().clone()),
        ("len", from.get("len").unwrap().clone()),
        ("layout", from.get("layout").unwrap().clone()),
        ("config", from.get("config").unwrap().clone()),
        ("bytes", Value::String(format!("{:016x}", bytes.len()))),
        ("checksum", Value::String(format!("{:016x}", snapshot_checksum(bytes)))),
    ])
}

fn write_manifest(dir: &Path, entries: Vec<Value>) {
    let manifest = Value::object([
        ("format", Value::String("jury-snapshot".to_string())),
        ("version", 1u64.to_value()),
        ("entries", Value::Array(entries)),
    ]);
    fs::write(manifest_path(dir), json::to_string(&manifest)).unwrap();
}

/// Replaces the solver-config word of a one-pool snapshot with `word`:
/// in the entry's KEY section (section checksum resealed) when
/// `in_key`, in its manifest record when `in_record`. The manifest's
/// `bytes`/`checksum` are re-forged either way.
fn forge_config_word(dir: &Path, word: u64, in_key: bool, in_record: bool) {
    let file = entry_file(dir);
    let mut bytes = fs::read(&file).unwrap();
    if in_key {
        let key = sections_of(&bytes).into_iter().find(|s| s.tag == 1).expect("KEY section");
        // KEY payload: two fingerprint lanes, the length, the layout
        // byte, then the config word.
        let at = key.payload + 25;
        assert_eq!(bytes[at..at + 8], 0x11u64.to_le_bytes(), "this build writes word 0x11");
        bytes[at..at + 8].copy_from_slice(&word.to_le_bytes());
        reseal_section(&mut bytes, &key);
        fs::write(&file, &bytes).unwrap();
    }
    let old = json::parse(&fs::read_to_string(manifest_path(dir)).unwrap()).unwrap();
    let record = &old.get("entries").unwrap().as_array().unwrap()[0];
    let name = record.get("file").unwrap().as_str().unwrap().to_string();
    let Value::Object(mut fields) = reforged_entry(record, name, &bytes) else {
        unreachable!("a record is an object")
    };
    if in_record {
        for (field, value) in &mut fields {
            if field == "config" {
                *value = Value::String(format!("{word:016x}"));
            }
        }
    }
    write_manifest(dir, vec![Value::Object(fields)]);
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
        5 => "EPS_SORTED",
        6 => "ALTR",
        7 => "PROFILE",
        8 => "LADDER",
        9 => "STAIRCASE",
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
        // Per-section flip target: an offset whose corruption a
        // semantic gate is *guaranteed* to catch once checksums are
        // re-forged (first key lane / first order index / first ε
        // word / leading JSON byte / a ladder's stored pmf hash).
        let at = match sect {
            "END" => continue, // zero-length payload; framing covered by truncation
            "LADDER" => section.payload + 16,
            _ => section.payload,
        };

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
    flipped[7] ^= 0x01; // b"JRYSNP01" -> b"JRYSNP00": version skew
    fs::write(&file, &flipped).unwrap();
    reforge_manifest(tmp.path());
    assert_cold_fallback(tmp.path(), &config, &jurors, &cold, "entry-file version skew");
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
        ("layout", forged.get("layout").unwrap().clone()),
        ("config", forged.get("config").unwrap().clone()),
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

/// Manifest-level damage: version skew poisons the catalog (every
/// attempt is a counted rejection), corrupt JSON likewise, and an entry
/// whose solver-config word is not the one this build writes is config
/// drift — also a counted rejection, which the next checkpoint drops.
#[test]
fn manifest_skew_and_config_drift_fall_back_cold() {
    let config = flat_config();
    let jurors = pool(24);
    let cold = control(&config, &jurors);

    // Version skew.
    let tmp = TempDir::new("manifest-version");
    seed_snapshot(tmp.path(), &config, &jurors);
    let old = json::parse(&fs::read_to_string(manifest_path(tmp.path())).unwrap()).unwrap();
    let manifest = Value::object([
        ("format", Value::String("jury-snapshot".to_string())),
        ("version", 2u64.to_value()),
        ("entries", old.get("entries").unwrap().clone()),
    ]);
    fs::write(manifest_path(tmp.path()), json::to_string(&manifest)).unwrap();
    assert_cold_fallback(tmp.path(), &config, &jurors, &cold, "manifest version skew");

    // Corrupt JSON.
    let tmp = TempDir::new("manifest-garbage");
    seed_snapshot(tmp.path(), &config, &jurors);
    fs::write(manifest_path(tmp.path()), b"{this is not a manifest").unwrap();
    assert_cold_fallback(tmp.path(), &config, &jurors, &cold, "corrupt manifest JSON");

    // Config drift: the snapshot promises this content under another
    // solver-config word (0x31 is what a strict-improvement PayM once
    // wrote) in the KEY section, the manifest record or both, with
    // every checksum resealed. Each is exactly one counted rejection
    // (promised content the service cannot deliver), then a cold build.
    for (forge_key, forge_record) in [(true, true), (true, false), (false, true)] {
        let what = format!("config drift (KEY {forge_key}, record {forge_record})");
        let tmp = TempDir::new("config-drift");
        seed_snapshot(tmp.path(), &config, &jurors);
        forge_config_word(tmp.path(), 0x31, forge_key, forge_record);
        let mut service = JuryService::with_config(with_snapshot(config.clone(), tmp.path()));
        let pool_id = service.create_pool(jurors.clone());
        assert_eq!(drive(&mut service, pool_id), cold, "{what}: answers must be cold-built");
        let stats = service.stats();
        assert_eq!((stats.snapshot_restores, stats.snapshot_rejections), (0, 1), "{what}");

        // The next checkpoint drops the foreign record and lists the
        // rebuilt entry under this build's word, which restores. (The
        // seeding service never released its writer lease.)
        fs::remove_file(tmp.path().join("writer.lease")).unwrap();
        service.snapshot(tmp.path()).unwrap();
        check(&service);
        let manifest = json::parse(&fs::read_to_string(manifest_path(tmp.path())).unwrap());
        let records = manifest.unwrap().get("entries").unwrap().as_array().unwrap().to_vec();
        assert_eq!(records.len(), 1, "{what}: one record after the checkpoint");
        let word = records[0].get("config").unwrap().as_str().unwrap().to_string();
        assert_eq!(word, "0000000000000011", "{what}");
        let mut healed = JuryService::with_config(with_snapshot(config.clone(), tmp.path()));
        let pool_id = healed.create_pool(jurors.clone());
        assert_eq!(drive(&mut healed, pool_id), cold, "{what}: healed answers");
        let stats = healed.stats();
        assert_eq!((stats.snapshot_restores, stats.snapshot_rejections), (1, 0), "{what}");
    }

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
/// bit-flip matrix claims to cover — otherwise the matrix is vacuous.
/// Tags 5, 7 and 8 (EPS_SORTED, PROFILE, LADDER) are reserved and no
/// longer written; [`older_pinned_entry_bytes_still_restore`] covers
/// reading them.
#[test]
fn seeded_snapshots_cover_every_section_class() {
    let tmp = TempDir::new("coverage-flat");
    seed_snapshot(tmp.path(), &flat_config(), &pool(24));
    let tags: Vec<u32> =
        sections_of(&fs::read(entry_file(tmp.path())).unwrap()).iter().map(|s| s.tag).collect();
    for required in [1u32, 2, 3, 4, 6, 9] {
        assert!(tags.contains(&required), "entry lacks {}", section_name(required));
    }
}

// ---------------------------------------------------------------------
// On-disk format compatibility
// ---------------------------------------------------------------------

/// The entry file name and the entry bytes of one deterministic pool are
/// pinned to the values this build writes: layout byte 0 in the KEY
/// section, layout word 0 in the file-name hash and `"layout": "flat"`
/// in the manifest record. The ALTR section records the answer's
/// [`SolverStats`](jury_core::SolverStats), so a scan that evaluates
/// fewer sizes changes the bytes without changing the answer, and so
/// does a retired section the writer no longer emits (EPS_SORTED,
/// PROFILE, LADDER); the bytes pinned before such changes stay readable
/// ([`older_pinned_entry_bytes_still_restore`]).
#[test]
fn flat_entry_name_and_bytes_are_pinned() {
    let tmp = TempDir::new("golden");
    seed_snapshot(tmp.path(), &flat_config(), &pool(24));
    let manifest = json::parse(&fs::read_to_string(manifest_path(tmp.path())).unwrap()).unwrap();
    let entries = manifest.get("entries").unwrap().as_array().unwrap();
    assert_eq!(entries.len(), 1);
    assert_eq!(
        json::to_string(&entries[0]),
        r#"{"file":"art-f41f3ff492080d1a-g1-e1.snap","lanes":["d9159475411cf995","459ec2387af2026e"],"len":"0000000000000018","layout":"flat","config":"0000000000000011","bytes":"00000000000006c1","checksum":"153eb0e95d9a7ace"}"#
    );
    let file = entry_file(tmp.path());
    assert_eq!(file.file_name().unwrap(), "art-f41f3ff492080d1a-g1-e1.snap");
    let bytes = fs::read(&file).unwrap();
    assert_eq!(bytes.len(), 1729);
    assert_eq!(snapshot_checksum(&bytes), 0x153e_b0e9_5d9a_7ace);
}

/// The entry bytes an earlier build wrote for the pool of
/// [`flat_entry_name_and_bytes_are_pinned`], whose pruned scan reported
/// evaluating every odd size (`jer_evaluations` 12 of 12). The same
/// build also wrote the sorted ε values (tag 5), a JER profile (tag 7)
/// and a pmf ladder (tag 8), which current readers verify and skip.
const FULL_SCAN_STATS_ENTRY: &[u8] = include_bytes!("fixtures/flat_entry_full_scan_stats.snap");

/// Those older bytes, under the manifest record they were pinned with,
/// still restore: members, JER and cost bits equal a fresh solve's, and
/// the answer served is the restored one (it still carries its stats).
/// The bytes carry the retired EPS_SORTED, PROFILE and LADDER sections,
/// so this is also the witness that readers skip tags 5, 7 and 8.
#[test]
fn older_pinned_entry_bytes_still_restore() {
    let tags: Vec<u32> = sections_of(FULL_SCAN_STATS_ENTRY).iter().map(|s| s.tag).collect();
    assert!(
        [5, 7, 8].iter().all(|tag| tags.contains(tag)),
        "fixture lacks EPS_SORTED/PROFILE/LADDER: {tags:?}"
    );
    let tmp = TempDir::new("golden-older");
    let config = flat_config();
    let jurors = pool(24);
    seed_snapshot(tmp.path(), &config, &jurors);
    let file = entry_file(tmp.path());
    assert_eq!(file.file_name().unwrap(), "art-f41f3ff492080d1a-g1-e1.snap");
    fs::write(&file, FULL_SCAN_STATS_ENTRY).unwrap();
    reforge_manifest(tmp.path());
    let manifest = json::parse(&fs::read_to_string(manifest_path(tmp.path())).unwrap()).unwrap();
    assert_eq!(
        json::to_string(&manifest.get("entries").unwrap().as_array().unwrap()[0]),
        r#"{"file":"art-f41f3ff492080d1a-g1-e1.snap","lanes":["d9159475411cf995","459ec2387af2026e"],"len":"0000000000000018","layout":"flat","config":"0000000000000011","bytes":"0000000000000886","checksum":"1853d3f3f75fe2f6"}"#
    );

    let mut service = JuryService::with_config(with_snapshot(config.clone(), tmp.path()));
    let p = service.create_pool(jurors.clone());
    assert_eq!(drive(&mut service, p), control(&config, &jurors));
    let stats = service.stats();
    assert_eq!((stats.snapshot_restores, stats.snapshot_rejections), (1, 0));
    let served = service.solve(&DecisionTask::altruism(p)).unwrap();
    check(&service);
    assert_eq!(served.stats.jer_evaluations, 12, "the restored answer is the one served");
}

/// A retired section is skipped, never trusted: one flipped byte inside
/// the older fixture's PROFILE payload, with the section checksum left
/// stale, rejects the whole entry and the pool answers like a cold
/// control.
#[test]
fn older_entry_with_a_corrupt_profile_section_is_rejected() {
    let tmp = TempDir::new("golden-older-profile");
    let config = flat_config();
    let jurors = pool(24);
    let cold = control(&config, &jurors);
    seed_snapshot(tmp.path(), &config, &jurors);
    let profile = sections_of(FULL_SCAN_STATS_ENTRY)
        .into_iter()
        .find(|s| s.tag == 7)
        .expect("the fixture carries a PROFILE section");
    assert!(profile.len > 0, "PROFILE payload is empty");
    let mut flipped = FULL_SCAN_STATS_ENTRY.to_vec();
    flipped[profile.payload] ^= 0x01;
    fs::write(entry_file(tmp.path()), &flipped).unwrap();
    reforge_manifest(tmp.path());

    let mut service = JuryService::with_config(with_snapshot(config, tmp.path()));
    let p = service.create_pool(jurors);
    assert_eq!(drive(&mut service, p), cold);
    let stats = service.stats();
    assert_eq!((stats.snapshot_restores, stats.snapshot_rejections), (0, 1));
}

/// A manifest record of another layout — a sharded entry left behind by
/// an older writer, or a layout no build knows — is skipped on its own:
/// the flat records beside it
/// (one of them over the very same content) still restore, and nothing
/// is counted as a rejection.
#[test]
fn sharded_manifest_records_are_skipped_not_fatal() {
    let tmp = TempDir::new("sharded-record");
    let config = flat_config();
    let jurors_a = pool(24);
    let jurors_b = pool(25);
    let cold_a = control(&config, &jurors_a);
    let cold_b = control(&config, &jurors_b);
    let mut seeder = JuryService::with_config(config.clone());
    let pa = seeder.create_pool(jurors_a.clone());
    let pb = seeder.create_pool(jurors_b.clone());
    drive(&mut seeder, pa);
    drive(&mut seeder, pb);
    assert_eq!(seeder.snapshot(tmp.path()).unwrap().entries, 2);
    check(&seeder);

    let old = json::parse(&fs::read_to_string(manifest_path(tmp.path())).unwrap()).unwrap();
    let mut entries = old.get("entries").unwrap().as_array().unwrap().to_vec();
    let first = entries[0].clone();
    let stray = "art-00000000000000ff-g1-e1.snap";
    fs::write(tmp.path().join(stray), b"sharded bytes this build cannot read").unwrap();
    entries.insert(
        1,
        Value::object([
            ("file", Value::String(stray.to_string())),
            ("lanes", first.get("lanes").unwrap().clone()),
            ("len", first.get("len").unwrap().clone()),
            ("layout", Value::String("sharded".to_string())),
            ("shards", Value::String(format!("{:016x}", 4))),
            ("config", first.get("config").unwrap().clone()),
            ("bytes", Value::String(format!("{:016x}", 36))),
            ("checksum", Value::String(format!("{:016x}", 0))),
        ]),
    );
    // A layout no build ever wrote is skipped the same way.
    let mut unknown = entries[1].clone();
    if let Value::Object(fields) = &mut unknown {
        fields.retain(|(k, _)| k != "shards");
        for (k, v) in fields.iter_mut() {
            if k == "layout" {
                *v = Value::String("striped".to_string());
            }
        }
    }
    entries.push(unknown);
    write_manifest(tmp.path(), entries);

    let mut service = JuryService::with_config(with_snapshot(config, tmp.path()));
    let a = service.create_pool(jurors_a);
    let b = service.create_pool(jurors_b);
    assert_eq!(drive(&mut service, a), cold_a);
    assert_eq!(drive(&mut service, b), cold_b);
    let stats = service.stats();
    assert_eq!(stats.snapshot_restores, 2, "both flat records restore");
    assert_eq!(stats.snapshot_rejections, 0, "the sharded record is skipped, not rejected");
}

/// An entry whose KEY section carries a layout byte other than 0 (the
/// sharded layout, or garbage) is rejected even with every checksum
/// re-forged, and the pool cold-builds.
#[test]
fn nonzero_layout_byte_is_rejected() {
    let tmp = TempDir::new("layout-byte");
    let config = flat_config();
    let jurors = pool(24);
    let cold = control(&config, &jurors);
    seed_snapshot(tmp.path(), &config, &jurors);
    let file = entry_file(tmp.path());
    let pristine = fs::read(&file).unwrap();
    let key = sections_of(&pristine).into_iter().find(|s| s.tag == 1).expect("KEY section");
    // KEY payload: two fingerprint lanes, the length, then the layout byte.
    let layout_at = key.payload + 24;
    assert_eq!(pristine[layout_at], 0, "flat entries carry layout byte 0");
    for layout in [1u8, 0xff] {
        let mut forged = pristine.clone();
        forged[layout_at] = layout;
        reseal_section(&mut forged, &key);
        fs::write(&file, &forged).unwrap();
        reforge_manifest(tmp.path());
        assert_cold_fallback(tmp.path(), &config, &jurors, &cold, &format!("layout byte {layout}"));
    }
}
