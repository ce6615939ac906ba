//! Multi-process fault harness for the shared snapshot directory.
//!
//! Several services pointed at one directory: a single writer holds the
//! advisory lease and commits incremental generation manifests; every
//! other process restores read-only from the highest durable
//! generation. This harness simulates the interleavings that protocol
//! must survive — writer dies between entry write and manifest commit,
//! lease-holder dies without releasing, a reader opens mid-GC, an
//! epoch-fenced zombie writer — using two (or more) [`JuryService`]s
//! over one directory in-process, plus on-disk surgery for the crash
//! states.
//!
//! The invariant everywhere: **bit-identical selections** versus a
//! never-snapshotted control, zero wrong answers, zero hard errors
//! (cold-build fallback only), and exact counter deltas.

use jury_core::juror::{pool_from_rates_and_costs, Juror};
use jury_core::problem::Selection;
use jury_service::{DecisionTask, JuryService, PoolId, ServiceConfig, SnapshotError};
use serde::json;
use std::fs;
use std::path::{Path, PathBuf};
use std::time::{Duration, SystemTime, UNIX_EPOCH};

// ---------------------------------------------------------------------
// Fixture plumbing
// ---------------------------------------------------------------------

struct TempDir(PathBuf);

impl TempDir {
    fn new(tag: &str) -> Self {
        let dir =
            std::env::temp_dir().join(format!("jury-shared-snap-{}-{tag}", std::process::id()));
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

fn pool(n: usize) -> Vec<Juror> {
    let pairs: Vec<(f64, f64)> = (0..n)
        .map(|i| {
            let x = (i as f64 * 0.618_033_988_749_894_9).fract();
            (0.02 + 0.9 * x, 0.05 + ((i * 7 + 3) % 11) as f64 / 11.0)
        })
        .collect();
    pool_from_rates_and_costs(&pairs).unwrap()
}

fn reading(dir: &Path) -> ServiceConfig {
    ServiceConfig { snapshot_dir: Some(dir.to_path_buf()), ..Default::default() }
}

type Outcome = Result<(Vec<usize>, u64, u64), String>;

fn footprint(result: Result<Selection, impl std::fmt::Display>) -> Outcome {
    result.map(|s| (s.members, s.jer.to_bits(), s.total_cost.to_bits())).map_err(|e| e.to_string())
}

/// Drives a task stream that populates every snapshot section, plus
/// `extra_budgets` PayM solves (the knob the dirty-tracking tests turn).
fn drive(service: &mut JuryService, pool: PoolId, extra_budgets: &[f64]) -> Vec<Outcome> {
    service.warm_pool(pool).unwrap();
    let mut out = Vec::new();
    out.push(footprint(service.solve(&DecisionTask::altruism(pool))));
    for budget in [0.4, 1.1, 2.7, 5.0] {
        for _ in 0..2 {
            out.push(footprint(service.solve(&DecisionTask::pay_as_you_go(pool, budget))));
        }
    }
    for &budget in extra_budgets {
        out.push(footprint(service.solve(&DecisionTask::pay_as_you_go(pool, budget))));
    }
    out
}

fn control(jurors: &[Juror], extra_budgets: &[f64]) -> Vec<Outcome> {
    let mut service = JuryService::new();
    let pool = service.create_pool(jurors.to_vec());
    drive(&mut service, pool, extra_budgets)
}

fn extra_juror(salt: usize) -> Juror {
    pool_from_rates_and_costs(&[(0.15 + 0.013 * salt as f64, 0.25)]).unwrap().pop().unwrap()
}

/// Dirties `pool` the way live churn does — a juror joins, the warm set
/// is repaired in place under the pool's new content fingerprint — and
/// returns the mutated juror list (the content a control must use).
/// A mutated sole-owner pool stays *private* (only shared store entries
/// persist), so a fresh twin pool over the mutated content is warmed to
/// intern it — the same path a second tenant of the new content takes.
fn dirty(service: &mut JuryService, pool: PoolId, salt: usize) -> Vec<Juror> {
    service.insert_juror(pool, extra_juror(salt)).unwrap();
    service.warm_pool(pool).unwrap();
    let mutated = service.pool(pool).unwrap().to_vec();
    let twin = service.create_pool(mutated.clone());
    service.warm_pool(twin).unwrap();
    mutated
}

// ---------------------------------------------------------------------
// On-disk observation & surgery
// ---------------------------------------------------------------------

fn now_ms() -> u64 {
    SystemTime::now().duration_since(UNIX_EPOCH).unwrap().as_millis() as u64
}

fn list(dir: &Path, pred: impl Fn(&str) -> bool) -> Vec<PathBuf> {
    let mut out: Vec<PathBuf> = fs::read_dir(dir)
        .unwrap()
        .map(|e| e.unwrap().path())
        .filter(|p| p.file_name().and_then(|n| n.to_str()).is_some_and(&pred))
        .collect();
    out.sort();
    out
}

fn manifests(dir: &Path) -> Vec<PathBuf> {
    list(dir, |n| n.starts_with("manifest-") && n.ends_with(".json"))
}

fn entry_files(dir: &Path) -> Vec<PathBuf> {
    list(dir, |n| n.starts_with("art-") && n.ends_with(".snap"))
}

fn mtime(path: &Path) -> SystemTime {
    fs::metadata(path).unwrap().modified().unwrap()
}

/// Forges a `writer.lease` naming `holder` at `epoch` with a heartbeat
/// `age` in the past — a holder that died (old age) or a live rival
/// (zero age).
fn forge_lease(dir: &Path, holder: &str, epoch: u64, age: Duration) {
    let heartbeat = now_ms().saturating_sub(age.as_millis() as u64);
    fs::write(
        dir.join("writer.lease"),
        format!(
            r#"{{"format":"jury-lease","holder":"{holder}","epoch":"{epoch:016x}","heartbeat_ms":"{heartbeat:016x}"}}"#
        ),
    )
    .unwrap();
}

fn lease_fields(dir: &Path) -> (String, u64) {
    let value = json::parse(&fs::read_to_string(dir.join("writer.lease")).unwrap()).unwrap();
    let holder = value.get("holder").unwrap().as_str().unwrap().to_string();
    let epoch = u64::from_str_radix(value.get("epoch").unwrap().as_str().unwrap(), 16).unwrap();
    (holder, epoch)
}

/// Copies every regular file of `from` into `to`, overwriting — used to
/// reconstruct "union" crash states (new generation committed, old
/// generation not yet garbage-collected).
fn overlay(from: &Path, to: &Path) {
    for entry in fs::read_dir(from).unwrap() {
        let path = entry.unwrap().path();
        if path.is_file() {
            fs::copy(&path, to.join(path.file_name().unwrap())).unwrap();
        }
    }
}

// ---------------------------------------------------------------------
// Incremental checkpoints (tentpole part 2 + satellite: no-op mtimes)
// ---------------------------------------------------------------------

/// Two pools, three snapshots: the first writes everything, a no-op
/// re-snapshot writes *nothing* (and leaves every file mtime untouched),
/// and after dirtying exactly one pool only that pool's entry is
/// rewritten. Counters are exact; the stats gauges track generations.
#[test]
fn incremental_checkpoints_write_only_dirty_entries() {
    let tmp = TempDir::new("incremental");
    let jurors_a = pool(24);
    let jurors_b = pool(25);

    let mut writer = JuryService::new();
    let pa = writer.create_pool(jurors_a.clone());
    let pb = writer.create_pool(jurors_b.clone());
    drive(&mut writer, pa, &[]);
    drive(&mut writer, pb, &[]);

    let report = writer.snapshot(tmp.path()).unwrap();
    assert_eq!(report.entries, 2);
    assert_eq!(report.written, 2, "first snapshot writes everything");
    assert_eq!(report.retained, 0);
    assert_eq!(report.generation, 1);
    assert_eq!(writer.stats().snapshot_generation, 1, "gauge tracks the committed generation");
    assert_eq!(manifests(tmp.path()).len(), 1);

    // No-op re-snapshot: zero writes, zero new generation, untouched
    // mtimes on every entry file and on the manifest (nothing commits).
    let before: Vec<(PathBuf, SystemTime)> = entry_files(tmp.path())
        .into_iter()
        .chain(manifests(tmp.path()))
        .map(|p| (p.clone(), mtime(&p)))
        .collect();
    let report = writer.snapshot(tmp.path()).unwrap();
    assert_eq!(report.written, 0, "a clean store re-snapshots nothing");
    assert_eq!(report.retained, 2);
    assert_eq!(report.generation, 1, "no commit without changes");
    for (path, stamp) in &before {
        assert_eq!(mtime(path), *stamp, "{path:?} must be untouched by a no-op snapshot");
    }

    // Dirty exactly pool B (a juror joins; the warm set is repaired in
    // place), and only B's entry is rewritten; A's file is retained by
    // name, bytes untouched.
    let a_files = entry_files(tmp.path());
    let mutated_b = dirty(&mut writer, pb, 0);
    let report = writer.snapshot(tmp.path()).unwrap();
    assert_eq!(report.written, 1, "only the dirty pool is rewritten");
    assert_eq!(report.retained, 1);
    assert_eq!(report.entries, 2);
    assert_eq!(report.generation, 2);
    assert_eq!(writer.stats().snapshot_generation, 2);
    let survivors = entry_files(tmp.path());
    assert_eq!(survivors.len(), 2);
    let retained: Vec<&PathBuf> = survivors.iter().filter(|p| a_files.contains(p)).collect();
    assert_eq!(retained.len(), 1, "one generation-1 entry survives by reference");
    assert_eq!(
        manifests(tmp.path()).len(),
        1,
        "the old generation's manifest is garbage-collected after commit"
    );

    // A reader over the final directory answers bit-identically to
    // never-snapshotted controls for both pools.
    let mut reader = JuryService::with_config(reading(tmp.path()));
    let ra = reader.create_pool(jurors_a.clone());
    let rb = reader.create_pool(mutated_b.clone());
    assert_eq!(drive(&mut reader, ra, &[]), control(&jurors_a, &[]));
    assert_eq!(drive(&mut reader, rb, &[]), control(&mutated_b, &[]));
    let stats = reader.stats();
    assert_eq!(stats.snapshot_restores, 2);
    assert_eq!(stats.snapshot_rejections, 0);
    assert_eq!(stats.snapshot_generation, 2, "reader gauge reports the restored generation");
}

// ---------------------------------------------------------------------
// Crash boundaries (tentpole part 4)
// ---------------------------------------------------------------------

/// A writer that dies at any boundary of the commit sequence — after
/// temp writes, after entry renames, mid-manifest — leaves the previous
/// generation fully readable: the reader restores it bit-identically
/// and counts no rejection for debris that was never published.
#[test]
fn crash_at_every_commit_boundary_leaves_prior_generation_readable() {
    let tmp = TempDir::new("crash-boundaries");
    let jurors = pool(24);
    let cold = control(&jurors, &[]);

    let mut writer = JuryService::with_config(ServiceConfig::default());
    let pool_id = writer.create_pool(jurors.clone());
    drive(&mut writer, pool_id, &[]);
    writer.snapshot(tmp.path()).unwrap();
    let manifest_1 = fs::read_to_string(&manifests(tmp.path())[0]).unwrap();

    // Boundary 1: died after writing entry temp files.
    fs::write(tmp.path().join("art-00000000deadbeef-g2-e1.snap.tmp"), b"torn half-writ").unwrap();
    // Boundary 2: died after renaming a new entry, before the manifest
    // commit — an orphan no manifest references.
    fs::write(tmp.path().join("art-00000000deadbeef-g2-e1.snap"), b"orphan bytes").unwrap();
    // Boundary 3: died mid-manifest-write — a stray manifest temp.
    fs::write(tmp.path().join("manifest-2.json.tmp"), &manifest_1.as_bytes()[..40]).unwrap();

    let mut reader = JuryService::with_config(reading(tmp.path()));
    let rp = reader.create_pool(jurors.clone());
    assert_eq!(drive(&mut reader, rp, &[]), cold, "debris must not change answers");
    let stats = reader.stats();
    assert_eq!(stats.snapshot_restores, 1, "generation 1 restores through the debris");
    assert_eq!(stats.snapshot_rejections, 0, "unpublished debris is not a counted rejection");

    // Boundary 4: a torn manifest-2.json at several byte boundaries —
    // the reader falls through to the intact generation 1.
    for cut in [1, manifest_1.len() / 2, manifest_1.len() - 1] {
        fs::write(tmp.path().join("manifest-2.json"), &manifest_1.as_bytes()[..cut]).unwrap();
        let mut reader = JuryService::with_config(reading(tmp.path()));
        let rp = reader.create_pool(jurors.clone());
        assert_eq!(drive(&mut reader, rp, &[]), cold, "torn manifest at byte {cut}");
        let stats = reader.stats();
        assert_eq!(stats.snapshot_restores, 1, "fall-through restore at byte {cut}");
    }
    fs::remove_file(tmp.path().join("manifest-2.json")).unwrap();

    // The surviving writer's next *dirtied* snapshot heals the
    // directory: the commit's GC pass sweeps the debris.
    dirty(&mut writer, pool_id, 0);
    writer.snapshot(tmp.path()).unwrap();
    assert!(!tmp.path().join("art-00000000deadbeef-g2-e1.snap").exists(), "orphan GC'd");
    assert!(!tmp.path().join("art-00000000deadbeef-g2-e1.snap.tmp").exists(), "stray tmp GC'd");
    assert!(!tmp.path().join("manifest-2.json.tmp").exists(), "manifest tmp GC'd");
}

/// A reader that opens the directory mid-GC — the new generation
/// committed, the old generation's files not yet unlinked — must pick
/// the newest generation and restore it bit-identically.
#[test]
fn reader_mid_gc_restores_the_newest_generation() {
    let live = TempDir::new("midgc-live");
    let union = TempDir::new("midgc-union");
    let jurors = pool(24);

    let mut writer = JuryService::with_config(ServiceConfig::default());
    let pool_id = writer.create_pool(jurors.clone());
    drive(&mut writer, pool_id, &[]);
    writer.snapshot(live.path()).unwrap();
    overlay(live.path(), union.path());

    let mutated = dirty(&mut writer, pool_id, 0);
    let report = writer.snapshot(live.path()).unwrap();
    assert_eq!(report.generation, 2);
    // Union = generation 2 files *plus* everything generation 1 had:
    // exactly what a reader racing the GC unlink pass can observe.
    overlay(live.path(), union.path());
    assert!(manifests(union.path()).len() >= 2, "both generations visible mid-GC");

    let mut reader = JuryService::with_config(reading(union.path()));
    let rp = reader.create_pool(mutated.clone());
    assert_eq!(
        drive(&mut reader, rp, &[]),
        control(&mutated, &[]),
        "mid-GC reader must see the newest generation, bit-identically"
    );
    let stats = reader.stats();
    assert_eq!(stats.snapshot_restores, 1);
    assert_eq!(stats.snapshot_rejections, 0);
    assert_eq!(stats.snapshot_generation, 2, "highest durable generation wins");
}

// ---------------------------------------------------------------------
// Lease protocol (tentpole part 1)
// ---------------------------------------------------------------------

/// A live lease refuses a second writer — who can still restore
/// read-only and serve bit-identical answers — without touching the
/// directory.
#[test]
fn live_lease_refuses_a_second_writer_but_readonly_restore_works() {
    let tmp = TempDir::new("lease-held");
    let jurors = pool(24);
    let cold = control(&jurors, &[]);

    let mut writer = JuryService::new();
    let wp = writer.create_pool(jurors.clone());
    drive(&mut writer, wp, &[]);
    writer.snapshot(tmp.path()).unwrap();
    let (holder, epoch) = lease_fields(tmp.path());
    assert_eq!(epoch, 1, "a fresh directory starts at epoch 1");

    // The second service restores read-only: readers never consult the
    // lease.
    let mut second = JuryService::with_config(reading(tmp.path()));
    let sp = second.create_pool(jurors.clone());
    assert_eq!(drive(&mut second, sp, &[]), cold);
    assert_eq!(second.stats().snapshot_restores, 1);

    // But its write is refused while the holder's heartbeat is live.
    match second.snapshot(tmp.path()) {
        Err(SnapshotError::LeaseHeld { holder: seen, .. }) => {
            assert_eq!(seen, holder, "the refusal names the live holder")
        }
        other => panic!("expected LeaseHeld, got {other:?}"),
    }
    assert_eq!(manifests(tmp.path()).len(), 1, "a refused writer commits nothing");
    assert_eq!(lease_fields(tmp.path()), (holder, epoch), "the lease is untouched");
}

/// A lease whose holder died without releasing goes stale past the ttl
/// and is broken by epoch bump; the breaker commits and serving
/// continues. The dead holder's epoch is superseded even when it was
/// inflated above every committed generation.
#[test]
fn stale_lease_is_broken_by_epoch_bump_and_serving_continues() {
    let tmp = TempDir::new("stale-break");
    let jurors = pool(24);

    let mut seeder = JuryService::new();
    let sp = seeder.create_pool(jurors.clone());
    drive(&mut seeder, sp, &[]);
    seeder.snapshot(tmp.path()).unwrap();

    // The holder "died" two minutes ago with an inflated epoch 5.
    forge_lease(tmp.path(), "dead-writer", 5, Duration::from_secs(120));

    let mut breaker = JuryService::new();
    let bp = breaker.create_pool(jurors.clone());
    drive(&mut breaker, bp, &[]);
    dirty(&mut breaker, bp, 1);
    let report = breaker.snapshot(tmp.path()).unwrap();
    assert_eq!(report.generation, 2, "the breaker commits over the stale lease");

    let (holder, epoch) = lease_fields(tmp.path());
    assert_ne!(holder, "dead-writer", "the lease changed hands");
    assert_eq!(epoch, 6, "epoch bump clears the stale holder's epoch");

    // Serving continues: the breaker keeps solving and checkpointing,
    // and a reader restores its newest generation bit-identically.
    let mutated = dirty(&mut breaker, bp, 2);
    assert_eq!(breaker.snapshot(tmp.path()).unwrap().generation, 3);
    let mut reader = JuryService::with_config(reading(tmp.path()));
    let rp = reader.create_pool(mutated.clone());
    assert_eq!(drive(&mut reader, rp, &[]), control(&mutated, &[]));
    assert_eq!(reader.stats().snapshot_restores, 1);
}

/// A zombie writer — its lease broken while it still believes an old
/// epoch — is fenced: every commit is refused, nothing it does reaches
/// the directory. Once the winner releases, the zombie re-acquires
/// fresh (above every committed epoch) and recovers.
#[test]
fn fenced_zombie_writer_can_never_commit() {
    let tmp = TempDir::new("fence");
    let jurors = pool(24);

    let mut zombie = JuryService::new();
    let zp = zombie.create_pool(jurors.clone());
    drive(&mut zombie, zp, &[]);
    zombie.snapshot(tmp.path()).unwrap();

    // A rival broke the lease (live heartbeat, higher epoch) while the
    // zombie still believes epoch 1.
    forge_lease(tmp.path(), "rival-writer", 4, Duration::ZERO);

    match zombie.snapshot(tmp.path()) {
        Err(SnapshotError::Fenced { ours, winner }) => {
            assert_eq!(ours, 1, "the zombie held epoch 1");
            assert_eq!(winner, 4, "fenced by the rival's epoch");
        }
        other => panic!("expected Fenced, got {other:?}"),
    }
    assert_eq!(manifests(tmp.path()).len(), 1, "a fenced writer commits nothing");
    assert_eq!(lease_fields(tmp.path()).0, "rival-writer", "the rival's lease is untouched");

    // Retrying while the rival is live stays refused (now as a plain
    // lease conflict — the zombie no longer believes any epoch).
    assert!(matches!(zombie.snapshot(tmp.path()), Err(SnapshotError::LeaseHeld { .. })));

    // The rival releases; the zombie re-acquires *above* every epoch
    // ever committed and its (dirtied) warm state lands in a fresh
    // generation.
    fs::remove_file(tmp.path().join("writer.lease")).unwrap();
    let mutated = dirty(&mut zombie, zp, 3);
    let report = zombie.snapshot(tmp.path()).unwrap();
    assert_eq!(report.generation, 2, "recovery commits a fresh generation");
    let (_, epoch) = lease_fields(tmp.path());
    assert_eq!(epoch, 2, "fresh acquire clears the committed floor");

    let mut reader = JuryService::with_config(reading(tmp.path()));
    let rp = reader.create_pool(mutated.clone());
    assert_eq!(drive(&mut reader, rp, &[]), control(&mutated, &[]));
    assert_eq!(reader.stats().snapshot_restores, 1);
}

// ---------------------------------------------------------------------
// Snapshot age
// ---------------------------------------------------------------------

/// A reader restores a generation of any age, and the
/// `snapshot_age_ms` gauge reports how old the restored commit stamp is.
#[test]
fn aged_snapshot_restores_and_reports_its_age() {
    let tmp = TempDir::new("aged");
    let jurors = pool(24);
    let cold = control(&jurors, &[]);

    let mut seeder = JuryService::new();
    let sp = seeder.create_pool(jurors.clone());
    drive(&mut seeder, sp, &[]);
    seeder.snapshot(tmp.path()).unwrap();
    std::thread::sleep(Duration::from_millis(50));

    let mut reader = JuryService::with_config(reading(tmp.path()));
    let rp = reader.create_pool(jurors.clone());
    assert_eq!(drive(&mut reader, rp, &[]), cold);
    let stats = reader.stats();
    assert_eq!(stats.snapshot_restores, 1);
    assert_eq!(stats.snapshot_rejections, 0);
    assert!(stats.snapshot_age_ms >= 50, "the age gauge reflects the stamp");
}

// ---------------------------------------------------------------------
// Same-process writer/reader race (satellite)
// ---------------------------------------------------------------------

/// A `create_pool` restore racing a `snapshot()` writer in another
/// thread of the same process: whatever generation each reader lands
/// on — or a cold fallback if it loses a GC race — every answer stays
/// bit-identical and nothing errors.
#[test]
fn concurrent_restore_races_a_snapshot_writer_without_torn_reads() {
    let tmp = TempDir::new("race");
    let jurors = pool(32);
    // Pool *content* never changes during the race, so one control
    // stream covers every reader regardless of which generation (or
    // cold build) it got.
    let cold = control(&jurors, &[]);

    let mut writer = JuryService::new();
    let wp = writer.create_pool(jurors.clone());
    drive(&mut writer, wp, &[]);
    // A second pool the writer keeps churning: every iteration commits
    // a fresh generation (and garbage-collects the previous one) while
    // the readers race to restore the *stable* pool's entry.
    let mp = writer.create_pool(pool(18));
    drive(&mut writer, mp, &[]);
    writer.snapshot(tmp.path()).unwrap();

    std::thread::scope(|scope| {
        let dir = tmp.path();
        let handle = scope.spawn(move || {
            let mut writer = writer;
            for salt in 0..30 {
                dirty(&mut writer, mp, salt);
                writer.snapshot(dir).unwrap();
            }
            writer
        });

        for _ in 0..12 {
            let mut reader = JuryService::with_config(reading(tmp.path()));
            let rp = reader.create_pool(jurors.clone());
            assert_eq!(
                drive(&mut reader, rp, &[]),
                cold,
                "a racing reader must never see a torn or wrong answer"
            );
            let stats = reader.stats();
            assert!(
                stats.snapshot_restores == 1 || stats.snapshot_rejections >= 1,
                "each reader either restores a generation or loses the GC race and \
                 cold-builds as a counted rejection: {stats:?}"
            );
        }

        let mut writer = handle.join().expect("writer thread panicked");
        assert_eq!(writer.snapshot(tmp.path()).unwrap().written, 0, "writer ends clean");
    });
}
