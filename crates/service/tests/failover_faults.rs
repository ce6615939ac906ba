//! Deterministic failover chaos harness.
//!
//! `shared_snapshot_faults.rs` reconstructs crash states by on-disk
//! surgery; this harness drives the *live protocol* through them with
//! the compiled-in [`FaultScheduler`]: a writer killed at every
//! filesystem-operation boundary of a commit, a garbage-collection
//! pass interrupted halfway, a stalled heartbeat, a promotion race
//! between two followers, and live generation adoption through the
//! wreckage.
//!
//! The invariants everywhere: **exactly one writer survives** any
//! race, **no generation is ever half-adopted** (a follower sees a
//! complete old generation or a complete new one, never a blend), and
//! every follower-served selection is **bit-identical** to a
//! never-failed control.

use jury_core::juror::{pool_from_rates_and_costs, Juror};
use jury_core::problem::Selection;
use jury_service::{
    DecisionTask, FaultAction, FaultPlane, FaultScheduler, JuryService, LeaseConfig, PoolId,
    ServiceConfig, SnapshotError, SnapshotWatcher,
};
use serde::json;
use std::fs;
use std::io;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Barrier, Mutex};
use std::time::{Duration, Instant, SystemTime, UNIX_EPOCH};

// ---------------------------------------------------------------------
// Fixture plumbing (mirrors shared_snapshot_faults.rs)
// ---------------------------------------------------------------------

struct TempDir(PathBuf);

impl TempDir {
    fn new(tag: &str) -> Self {
        let dir = std::env::temp_dir().join(format!("jury-failover-{}-{tag}", std::process::id()));
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

/// Follower-side config: restore from `dir`, break stale leases after
/// `ttl`.
fn following(dir: &Path, ttl: Duration) -> ServiceConfig {
    ServiceConfig {
        snapshot_dir: Some(dir.to_path_buf()),
        lease: LeaseConfig { ttl },
        ..Default::default()
    }
}

type Outcome = Result<(Vec<usize>, u64, u64), String>;

fn footprint(result: Result<Selection, impl std::fmt::Display>) -> Outcome {
    result.map(|s| (s.members, s.jer.to_bits(), s.total_cost.to_bits())).map_err(|e| e.to_string())
}

/// Drives a task stream that populates every snapshot section.
fn drive(service: &mut JuryService, pool: PoolId) -> Vec<Outcome> {
    service.warm_pool(pool).unwrap();
    let mut out = Vec::new();
    out.push(footprint(service.solve(&DecisionTask::altruism(pool))));
    for budget in [0.4, 1.1, 2.7, 5.0] {
        for _ in 0..2 {
            out.push(footprint(service.solve(&DecisionTask::pay_as_you_go(pool, budget))));
        }
    }
    out
}

fn control(jurors: &[Juror]) -> Vec<Outcome> {
    let mut service = JuryService::new();
    let pool = service.create_pool(jurors.to_vec());
    drive(&mut service, pool)
}

fn extra_juror(salt: usize) -> Juror {
    pool_from_rates_and_costs(&[(0.15 + 0.013 * salt as f64, 0.25)]).unwrap().pop().unwrap()
}

/// Dirties `pool` the way live churn does and returns the mutated
/// content (warming a twin so the new content is interned in the
/// shared store — the entry the next commit persists).
fn dirty(service: &mut JuryService, pool: PoolId, salt: usize) -> Vec<Juror> {
    service.insert_juror(pool, extra_juror(salt)).unwrap();
    service.warm_pool(pool).unwrap();
    let mutated = service.pool(pool).unwrap().to_vec();
    let twin = service.create_pool(mutated.clone());
    service.warm_pool(twin).unwrap();
    mutated
}

fn now_ms() -> u64 {
    SystemTime::now().duration_since(UNIX_EPOCH).unwrap().as_millis() as u64
}

fn manifests(dir: &Path) -> Vec<PathBuf> {
    let mut out: Vec<PathBuf> = fs::read_dir(dir)
        .unwrap()
        .map(|e| e.unwrap().path())
        .filter(|p| {
            p.file_name()
                .and_then(|n| n.to_str())
                .is_some_and(|n| n.starts_with("manifest-") && n.ends_with(".json"))
        })
        .collect();
    out.sort();
    out
}

fn lease_fields(dir: &Path) -> (String, u64, u64) {
    let value = json::parse(&fs::read_to_string(dir.join("writer.lease")).unwrap()).unwrap();
    let holder = value.get("holder").unwrap().as_str().unwrap().to_string();
    let epoch = u64::from_str_radix(value.get("epoch").unwrap().as_str().unwrap(), 16).unwrap();
    let heartbeat =
        u64::from_str_radix(value.get("heartbeat_ms").unwrap().as_str().unwrap(), 16).unwrap();
    (holder, epoch, heartbeat)
}

fn forge_lease(dir: &Path, holder: &str, epoch: u64, heartbeat_ms: u64) {
    fs::write(
        dir.join("writer.lease"),
        format!(
            r#"{{"format":"jury-lease","holder":"{holder}","epoch":"{epoch:016x}","heartbeat_ms":"{heartbeat_ms:016x}"}}"#
        ),
    )
    .unwrap();
}

/// Sleeps until the on-disk lease heartbeat is more than one `ttl` in
/// the past — the deterministic "one lease TTL after the writer died"
/// moment, anchored on the heartbeat the dead writer actually wrote
/// rather than on test-side sleeps.
fn wait_past_ttl(dir: &Path, ttl: Duration) {
    let (_, _, heartbeat) = lease_fields(dir);
    let deadline = heartbeat + ttl.as_millis() as u64 + 25;
    while now_ms() <= deadline {
        std::thread::sleep(Duration::from_millis(5));
    }
}

// ---------------------------------------------------------------------
// Writer killed at every commit boundary → follower promotes
// ---------------------------------------------------------------------

/// Runs the canonical two-commit writer scenario against `dir`: commit
/// generation 1, churn the pool, attempt generation 2 under `sched`.
/// Returns the mutated content and the second commit's outcome.
fn two_commit_writer(
    dir: &Path,
    jurors: &[Juror],
    sched: &Arc<FaultScheduler>,
) -> (JuryService, Vec<Juror>, Result<u64, SnapshotError>) {
    let mut writer = JuryService::new();
    let pa = writer.create_pool(jurors.to_vec());
    drive(&mut writer, pa);
    writer.set_snapshot_fault_plane(Arc::clone(sched) as Arc<dyn FaultPlane>);
    assert_eq!(writer.snapshot(dir).expect("generation 1 commits cleanly").generation, 1);
    let mutated = dirty(&mut writer, pa, 0);
    let second = writer.snapshot(dir).map(|r| r.generation);
    (writer, mutated, second)
}

/// The acceptance sweep: a writer killed at **every** filesystem
/// operation of an incremental commit (entry writes, lease refresh,
/// fence, manifest rename, GC) leaves a directory from which a
/// follower serves bit-identical answers for whichever generation
/// durably committed — never a blend — and promotes to writer within
/// one lease TTL of the victim's last heartbeat.
#[test]
fn writer_killed_at_every_commit_op_leaves_a_promotable_directory() {
    let jurors = pool(16);
    let ttl = Duration::from_millis(60);

    // Learning run: count the operations of each commit un-armed.
    let learn = TempDir::new("sweep-learn");
    let sched = Arc::new(FaultScheduler::new());
    {
        let mut writer = JuryService::new();
        let pa = writer.create_pool(jurors.clone());
        drive(&mut writer, pa);
        writer.set_snapshot_fault_plane(Arc::clone(&sched) as Arc<dyn FaultPlane>);
        writer.snapshot(learn.path()).unwrap();
    }
    let first_commit_ops = sched.ops_seen();
    let (_, expected_mutated, second) = {
        let rerun = TempDir::new("sweep-learn2");
        let sched = Arc::new(FaultScheduler::new());
        let out = two_commit_writer(rerun.path(), &jurors, &sched);
        assert!(sched.ops_seen() > first_commit_ops);
        (sched.ops_seen(), out.1, out.2)
    };
    let total_ops = {
        let rerun = TempDir::new("sweep-learn3");
        let sched = Arc::new(FaultScheduler::new());
        let (_, _, committed) = two_commit_writer(rerun.path(), &jurors, &sched);
        committed.expect("the un-faulted learning run commits");
        sched.ops_seen()
    };
    assert_eq!(second.unwrap(), 2, "the un-faulted scenario commits generation 2");
    assert!(total_ops > first_commit_ops, "the second commit must consult the plane");

    let cold = control(&jurors);
    let mutated_control = control(&expected_mutated);

    for k in first_commit_ops..total_ops {
        let tmp = TempDir::new(&format!("sweep-{k}"));
        let sched = Arc::new(FaultScheduler::new());
        sched.arm(k, FaultAction::Kill);
        let (mut victim, mutated, second) = two_commit_writer(tmp.path(), &jurors, &sched);
        assert!(sched.is_killed(), "the kill at op {k} must fire");
        assert_eq!(mutated, expected_mutated, "churn is deterministic across runs");
        if let Ok(generation) = &second {
            // A kill that lands inside the (post-commit, best-effort)
            // GC pass still returns a committed generation 2.
            assert_eq!(*generation, 2, "an Ok outcome at kill op {k} means the commit landed");
        }

        // A follower over the wreckage: whichever generation durably
        // committed serves bit-identically; no blend, no rejection.
        let mut follower = JuryService::with_config(following(tmp.path(), ttl));
        let restored_gen = follower.stats().snapshot_generation;
        assert!(
            restored_gen == 1 || restored_gen == 2,
            "kill at op {k}: generation must be all-old or all-new, got {restored_gen}"
        );
        if second.is_ok() {
            assert_eq!(restored_gen, 2, "kill at op {k}: a committed generation must be visible");
        }
        let fa = follower.create_pool(jurors.clone());
        let fb = follower.create_pool(expected_mutated.clone());
        assert_eq!(drive(&mut follower, fa), cold, "kill at op {k}: original content diverged");
        assert_eq!(drive(&mut follower, fb), mutated_control, "kill at op {k}: churned content");
        assert_eq!(
            follower.stats().snapshot_rejections,
            0,
            "kill at op {k}: a committed generation never references missing bytes"
        );

        // Promotion within one TTL of the victim's last heartbeat: the
        // first probe past expiry must take the lease.
        wait_past_ttl(tmp.path(), ttl);
        follower
            .snapshot(tmp.path())
            .unwrap_or_else(|e| panic!("kill at op {k}: first post-ttl probe refused: {e}"));
        let (holder, _, _) = lease_fields(tmp.path());
        assert_eq!(holder, follower.snapshot_holder(), "kill at op {k}: lease names the follower");

        // Exactly one writer survives: the victim's plane is poisoned
        // (a dead process never returns), so it can never commit.
        assert!(victim.snapshot(tmp.path()).is_err(), "kill at op {k}: the victim stays dead");
    }
}

// ---------------------------------------------------------------------
// Stalled heartbeat → promotion within one TTL, zombie fenced
// ---------------------------------------------------------------------

/// A writer whose heartbeat stalls (no checkpoints past the ttl) is
/// promoted over by a follower within one lease TTL; when the stalled
/// writer wakes and tries to commit it is fenced and the directory is
/// untouched.
#[test]
fn stalled_writer_is_superseded_within_one_ttl_and_fenced_on_wakeup() {
    let tmp = TempDir::new("stall");
    let jurors = pool(18);
    let ttl = Duration::from_millis(150);

    let mut writer = JuryService::with_config(ServiceConfig {
        lease: LeaseConfig { ttl },
        ..Default::default()
    });
    let wp = writer.create_pool(jurors.clone());
    drive(&mut writer, wp);
    let committed = Instant::now();
    writer.snapshot(tmp.path()).unwrap();

    let mut follower = JuryService::with_config(following(tmp.path(), ttl));
    let fp = follower.create_pool(jurors.clone());
    assert_eq!(drive(&mut follower, fp), control(&jurors));
    assert_eq!(follower.stats().snapshot_restores, 1);

    // While the writer's heartbeat is live the follower is refused.
    match follower.snapshot(tmp.path()) {
        Err(SnapshotError::LeaseHeld { holder, .. }) => {
            assert_eq!(holder, writer.snapshot_holder(), "the refusal names the live writer");
        }
        Ok(_) => assert!(
            committed.elapsed() > ttl,
            "a probe inside the ttl must never break a live lease"
        ),
        other => panic!("expected LeaseHeld, got {other:?}"),
    }

    // One TTL after the last heartbeat the very next probe promotes.
    wait_past_ttl(tmp.path(), ttl);
    follower.snapshot(tmp.path()).expect("first post-ttl probe must promote");
    let (holder, epoch, _) = lease_fields(tmp.path());
    assert_eq!(holder, follower.snapshot_holder());
    assert_eq!(epoch, 2, "promotion bumps the epoch past the stalled writer's");

    // The stalled writer wakes up with churned state and tries to
    // commit: fenced, and nothing it did reaches the directory.
    let before = manifests(tmp.path());
    dirty(&mut writer, wp, 1);
    match writer.snapshot(tmp.path()) {
        Err(SnapshotError::Fenced { ours, winner }) => {
            assert_eq!(ours, 1, "the zombie believed epoch 1");
            assert_eq!(winner, 2, "fenced by the promoted follower's epoch");
        }
        other => panic!("expected Fenced, got {other:?}"),
    }
    assert_eq!(manifests(tmp.path()), before, "a fenced zombie publishes nothing");
    assert_eq!(lease_fields(tmp.path()).0, follower.snapshot_holder(), "the lease is untouched");
}

// ---------------------------------------------------------------------
// Promotion race between two followers
// ---------------------------------------------------------------------

/// Two followers discover the same stale lease and race to break it in
/// parallel. The verified steal guarantees exactly one acquires; the
/// loser is told who won and a reader restores the winner's commit
/// bit-identically.
#[test]
fn promotion_race_between_two_followers_elects_exactly_one_writer() {
    let jurors = pool(16);
    for round in 0..8 {
        let tmp = TempDir::new(&format!("promo-race-{round}"));
        let mut seeder = JuryService::new();
        let sp = seeder.create_pool(jurors.clone());
        drive(&mut seeder, sp);
        seeder.snapshot(tmp.path()).unwrap();
        forge_lease(tmp.path(), "dead-writer", 3, now_ms().saturating_sub(120_000));

        let candidate = |salt: usize| {
            let mut s = JuryService::new();
            let p = s.create_pool(jurors.clone());
            drive(&mut s, p);
            let mutated = dirty(&mut s, p, salt);
            (s, mutated)
        };
        let (mut a, mutated_a) = candidate(2 * round);
        let (mut b, mutated_b) = candidate(2 * round + 1);

        let barrier = Barrier::new(2);
        let (result_a, result_b) = std::thread::scope(|scope| {
            let dir = tmp.path();
            let gate = &barrier;
            let a = &mut a;
            let b = &mut b;
            let ha = scope.spawn(move || {
                gate.wait();
                a.snapshot(dir).map(|r| r.generation)
            });
            let hb = scope.spawn(move || {
                gate.wait();
                b.snapshot(dir).map(|r| r.generation)
            });
            (ha.join().expect("candidate A panicked"), hb.join().expect("candidate B panicked"))
        });

        let winners = usize::from(result_a.is_ok()) + usize::from(result_b.is_ok());
        assert_eq!(
            winners, 1,
            "round {round}: exactly one candidate may win the break \
             (a={result_a:?}, b={result_b:?})"
        );
        let (winner_holder, winner_content, loser) = if result_a.is_ok() {
            (a.snapshot_holder().to_string(), &mutated_a, &result_b)
        } else {
            (b.snapshot_holder().to_string(), &mutated_b, &result_a)
        };
        assert!(
            matches!(
                loser,
                Err(SnapshotError::LeaseHeld { .. }) | Err(SnapshotError::Fenced { .. })
            ),
            "round {round}: the loser backs off cleanly, got {loser:?}"
        );
        let (holder, epoch, _) = lease_fields(tmp.path());
        assert_eq!(holder, winner_holder, "round {round}: the lease names the winner");
        // Epoch 4 when the winner broke the stale lease directly
        // (max(stale 3, floor 1) + 1); epoch 2 when it slipped in on a
        // `Missing` read after the rival's steal (floor 1 + 1). Either
        // way the committed floor is cleared and there is one holder.
        assert!(epoch == 2 || epoch == 4, "round {round}: unexpected winning epoch {epoch}");

        // The winner's generation 2 is the one readers see — complete,
        // verified, bit-identical to the winner's own content.
        let mut reader = JuryService::with_config(following(tmp.path(), Duration::from_secs(30)));
        assert_eq!(reader.stats().snapshot_generation, 2, "round {round}");
        let rp = reader.create_pool(winner_content.clone());
        assert_eq!(drive(&mut reader, rp), control(winner_content), "round {round}");
        assert_eq!(reader.stats().snapshot_rejections, 0, "round {round}");
    }
}

/// Runs a rival's whole checkpoint the first time this candidate is
/// about to link its lease temp into place — the interleaving in which
/// the rival wins the lease, commits, and garbage-collects while the
/// candidate sits between its temp write and its link.
#[derive(Debug)]
struct RivalCommitsAtLink {
    rival: Mutex<Option<JuryService>>,
    dir: PathBuf,
    outcome: Mutex<Option<Result<u64, SnapshotError>>>,
}

impl FaultPlane for RivalCommitsAtLink {
    fn before(&self, op: &str) -> io::Result<()> {
        if op == "lease.link" {
            if let Some(mut rival) = self.rival.lock().unwrap().take() {
                let outcome = rival.snapshot(&self.dir).map(|r| r.generation);
                *self.outcome.lock().unwrap() = Some(outcome);
            }
        }
        Ok(())
    }
}

/// The deterministic form of the promotion race's rare loss: the
/// winner's GC must not delete the loser's lease temp, and a loser
/// whose temp is gone anyway backs off with `LeaseHeld` instead of an
/// I/O error.
#[test]
fn winners_gc_leaves_a_rivals_lease_temp_alone() {
    let tmp = TempDir::new("gc-lease-tmp");
    let jurors = pool(16);
    let candidate = || {
        let mut s = JuryService::new();
        let p = s.create_pool(jurors.clone());
        drive(&mut s, p);
        s
    };
    let rival = candidate();
    let rival_holder = rival.snapshot_holder().to_string();
    let plane = Arc::new(RivalCommitsAtLink {
        rival: Mutex::new(Some(rival)),
        dir: tmp.path().to_path_buf(),
        outcome: Mutex::new(None),
    });
    let mut loser = candidate();
    loser.set_snapshot_fault_plane(Arc::clone(&plane) as Arc<dyn FaultPlane>);

    let lost = loser.snapshot(tmp.path());
    let won = plane.outcome.lock().unwrap().take().expect("the rival ran at the link");
    assert_eq!(won.expect("the rival wins the lease and commits"), 1);
    match lost {
        Err(SnapshotError::LeaseHeld { holder, .. }) => assert_eq!(holder, rival_holder),
        other => panic!("the loser must back off with LeaseHeld, got {other:?}"),
    }
    assert_eq!(lease_fields(tmp.path()).0, rival_holder, "the lease names the rival");
    let temps: Vec<_> = fs::read_dir(tmp.path())
        .unwrap()
        .filter_map(|e| e.ok()?.file_name().into_string().ok())
        .filter(|name| name.ends_with(".tmp"))
        .collect();
    assert!(temps.is_empty(), "no lease temp is left behind: {temps:?}");
}

// ---------------------------------------------------------------------
// Adoption during an interrupted GC
// ---------------------------------------------------------------------

/// Kills the plane at the first occurrence of one named operation —
/// the trait-level injection point the scheduler's index-based sweep
/// can't target directly.
#[derive(Debug)]
struct KillOnOp {
    target: &'static str,
    killed: AtomicBool,
}

impl KillOnOp {
    fn new(target: &'static str) -> Self {
        Self { target, killed: AtomicBool::new(false) }
    }
}

impl FaultPlane for KillOnOp {
    fn before(&self, op: &str) -> io::Result<()> {
        if self.killed.load(Ordering::SeqCst) || op == self.target {
            self.killed.store(true, Ordering::SeqCst);
            return Err(io::Error::other(format!("killed at first {}", self.target)));
        }
        Ok(())
    }
}

/// A writer that dies at the first GC unlink leaves *both* generations
/// on disk; a live follower's watcher announces the new one and
/// adoption hot-swaps it — counter-gated, without restart, serving
/// both the old and the churned content bit-identically.
#[test]
fn follower_adopts_through_an_interrupted_gc() {
    let tmp = TempDir::new("gc-adopt");
    let jurors = pool(16);

    let mut writer = JuryService::new();
    let wp = writer.create_pool(jurors.clone());
    drive(&mut writer, wp);
    let plane = Arc::new(KillOnOp::new("gc.unlink"));
    writer.set_snapshot_fault_plane(Arc::clone(&plane) as Arc<dyn FaultPlane>);
    writer.snapshot(tmp.path()).unwrap();
    assert!(!plane.killed.load(Ordering::SeqCst), "a fresh directory has nothing to collect");

    // A live follower on generation 1, watch seeded like the
    // supervisor seeds it.
    let mut follower = JuryService::with_config(following(tmp.path(), Duration::from_millis(60)));
    let fp = follower.create_pool(jurors.clone());
    assert_eq!(drive(&mut follower, fp), control(&jurors));
    let mut watcher = SnapshotWatcher::new(tmp.path(), Duration::from_millis(5));
    watcher.observe(follower.stats().follower_generation as u64);

    // Generation 2 commits, then the GC pass is killed on its first
    // unlink: the commit stands, the old generation lingers.
    let mutated = dirty(&mut writer, wp, 0);
    let report = writer.snapshot(tmp.path()).unwrap();
    assert_eq!(report.generation, 2, "the commit precedes (and survives) the GC kill");
    assert!(plane.killed.load(Ordering::SeqCst), "the GC pass was interrupted");
    assert_eq!(manifests(tmp.path()).len(), 2, "both generations linger mid-GC");

    // The watch announces the commit; adoption swaps it in live.
    assert_eq!(watcher.poll(), Some(2), "the interrupted GC must not hide the commit");
    let adopted = follower.adopt_snapshot().expect("adoption through GC debris must succeed");
    assert_eq!(adopted.generation, 2);
    assert_eq!(adopted.rejected, 0);
    watcher.observe(adopted.generation);
    assert_eq!(watcher.poll(), None, "the adopted generation settles the watch");

    let stats = follower.stats();
    assert_eq!(stats.generations_adopted, 1);
    assert_eq!(stats.adoptions_rejected, 0);
    assert_eq!(stats.follower_generation, 2);

    // The already-warm pool keeps its answers; the churned content
    // warms straight from the adopted generation.
    let restores_before = follower.stats().snapshot_restores;
    let ft = follower.create_pool(mutated.clone());
    assert_eq!(drive(&mut follower, ft), control(&mutated));
    assert_eq!(
        follower.stats().snapshot_restores,
        restores_before + 1,
        "the churned content restores from the adopted generation"
    );
}

// ---------------------------------------------------------------------
// Live adoption without restart (counter-gated acceptance)
// ---------------------------------------------------------------------

/// The tentpole acceptance: a follower adopts each new generation into
/// the live service — `generations_adopted` advances, cold pools
/// pre-warm from the adopted bytes, warm pools are untouched, and a
/// re-poll adopts nothing until the writer commits again.
#[test]
fn follower_adopts_each_generation_without_restart() {
    let tmp = TempDir::new("live-adopt");
    let jurors_a = pool(16);
    let jurors_b = pool(17);

    let mut writer = JuryService::new();
    let wa = writer.create_pool(jurors_a.clone());
    drive(&mut writer, wa);
    writer.snapshot(tmp.path()).unwrap();

    let mut follower = JuryService::with_config(following(tmp.path(), Duration::from_millis(60)));
    let fa = follower.create_pool(jurors_a.clone());
    assert_eq!(drive(&mut follower, fa), control(&jurors_a));
    assert_eq!(follower.stats().snapshot_restores, 1);
    let mut watcher = SnapshotWatcher::new(tmp.path(), Duration::from_millis(5));
    watcher.observe(follower.stats().follower_generation as u64);
    assert_eq!(watcher.poll(), None, "nothing newer than the restored generation");
    assert!(follower.adopt_snapshot().is_none(), "adoption is generation-gated");

    // The follower registers the second pool *before* any commit
    // carries it: a cold pool waiting for bytes.
    let fb = follower.create_pool(jurors_b.clone());

    // The writer commits generation 2 with the second pool's content.
    let wb = writer.create_pool(jurors_b.clone());
    drive(&mut writer, wb);
    assert_eq!(writer.snapshot(tmp.path()).unwrap().generation, 2);

    // Watch → adopt: the cold pool pre-warms from the adopted bytes.
    assert_eq!(watcher.poll(), Some(2));
    let adopted = follower.adopt_snapshot().expect("a newer generation must adopt");
    assert_eq!(adopted.generation, 2);
    assert_eq!(adopted.restored, 1, "the cold pool pre-warms during adoption");
    assert_eq!(adopted.rejected, 0);
    watcher.observe(adopted.generation);

    let stats = follower.stats();
    assert_eq!(stats.generations_adopted, 1, "adoption is counter-gated");
    assert_eq!(stats.adoptions_rejected, 0);
    assert_eq!(stats.follower_generation, 2);
    assert_eq!(stats.snapshot_restores, 2, "restart never happened; the restore was live");

    // Both pools serve bit-identically after the hot swap.
    assert_eq!(drive(&mut follower, fb), control(&jurors_b));
    assert_eq!(drive(&mut follower, fa), control(&jurors_a));

    // Quiet directory: the watch settles, adoption stays refused.
    assert_eq!(watcher.poll(), None);
    assert!(follower.adopt_snapshot().is_none());
    assert_eq!(follower.stats().generations_adopted, 1, "no double-count on a quiet directory");
}

/// Adoption attaches each pre-warmed cold pool to the entry it
/// restored, so every listed entry has a holder: removing one adopted
/// pool and writing the other releases their entries like any warm
/// pool's, and the store ends with one entry per live pool.
#[test]
fn adopted_entries_are_released_by_their_pools() {
    let tmp = TempDir::new("adopt-attach");
    let jurors_a = pool(16);
    let jurors_b = pool(17);
    let mut follower = JuryService::with_config(following(tmp.path(), Duration::from_secs(30)));
    let fa = follower.create_pool(jurors_a.clone());
    let fb = follower.create_pool(jurors_b.clone());

    let mut writer = JuryService::new();
    for jurors in [&jurors_a, &jurors_b] {
        let p = writer.create_pool(jurors.clone());
        drive(&mut writer, p);
    }
    assert_eq!(writer.snapshot(tmp.path()).unwrap().entries, 2);

    let adopted = follower.adopt_snapshot().expect("generation 1 adopts");
    assert_eq!((adopted.restored, adopted.rejected), (2, 0));
    assert_eq!(follower.artifact_entries(), 2);

    follower.remove_pool(fa).unwrap();
    assert_eq!(follower.artifact_entries(), 1, "the removed pool's entry goes with it");
    follower.insert_juror(fb, extra_juror(0)).unwrap();
    assert_eq!(follower.artifact_entries(), 1, "the written pool's entry moves, not doubles");
    follower.warm_pool(fb).unwrap();
    assert_eq!(follower.artifact_entries(), 1, "one entry per live pool");

    let written = follower.pool(fb).unwrap().to_vec();
    assert_eq!(drive(&mut follower, fb), control(&written));
}

// ---------------------------------------------------------------------
// Satellite: backwards-clock tolerance
// ---------------------------------------------------------------------

/// A forged lease whose heartbeat is stamped in the *future* (the
/// wall clock stepped backwards since the holder wrote it) must read
/// as live — age clamps to zero — and can never be broken, no matter
/// how long the candidate waits relative to its own clock.
#[test]
fn future_dated_heartbeat_reads_live_and_is_never_broken() {
    let tmp = TempDir::new("future-heartbeat");
    let jurors = pool(16);

    let mut seeder = JuryService::new();
    let sp = seeder.create_pool(jurors.clone());
    drive(&mut seeder, sp);
    seeder.snapshot(tmp.path()).unwrap();

    // A holder whose heartbeat claims to be a minute in the future.
    forge_lease(tmp.path(), "time-traveler", 5, now_ms() + 60_000);
    let lease_before = fs::read(tmp.path().join("writer.lease")).unwrap();

    let mut candidate = JuryService::with_config(ServiceConfig {
        lease: LeaseConfig { ttl: Duration::from_millis(1) },
        ..Default::default()
    });
    let cp = candidate.create_pool(jurors.clone());
    drive(&mut candidate, cp);
    dirty(&mut candidate, cp, 0);
    std::thread::sleep(Duration::from_millis(10));
    match candidate.snapshot(tmp.path()) {
        Err(SnapshotError::LeaseHeld { holder, age_ms }) => {
            assert_eq!(holder, "time-traveler");
            assert_eq!(age_ms, 0, "a future heartbeat clamps to age zero, never underflows");
        }
        other => panic!("a future-dated lease must refuse the candidate, got {other:?}"),
    }
    assert_eq!(
        fs::read(tmp.path().join("writer.lease")).unwrap(),
        lease_before,
        "the refused candidate leaves the lease byte-identical"
    );
    assert_eq!(manifests(tmp.path()).len(), 1, "nothing was committed over the holder");
}

// ---------------------------------------------------------------------
// Satellite: adversarial manifest names
// ---------------------------------------------------------------------

/// Restore, the writer's scan, the watch, and adoption must all skip —
/// never panic on — adversarial directory contents: empty and non-hex
/// generation fields, digit strings that overflow `u64`, and
/// *directories* named like manifests.
#[test]
fn adversarial_manifest_names_are_skipped_without_panicking() {
    let tmp = TempDir::new("adversarial-names");
    let jurors = pool(16);

    let mut writer = JuryService::new();
    let wp = writer.create_pool(jurors.clone());
    drive(&mut writer, wp);
    writer.snapshot(tmp.path()).unwrap();

    let mut follower = JuryService::with_config(following(tmp.path(), Duration::from_millis(60)));
    let fp = follower.create_pool(jurors.clone());
    assert_eq!(drive(&mut follower, fp), control(&jurors));
    let mut watcher = SnapshotWatcher::new(tmp.path(), Duration::from_millis(5));
    watcher.observe(follower.stats().follower_generation as u64);

    // The adversarial zoo.
    fs::write(tmp.path().join("manifest-.json"), b"{}").unwrap();
    fs::write(tmp.path().join("manifest-ffffffffffffffffffff.json"), b"{}").unwrap();
    fs::write(tmp.path().join("manifest-xyz.json"), b"not json either").unwrap();
    fs::write(tmp.path().join("manifest-99999999999999999999999.json"), b"{}").unwrap();
    fs::create_dir(tmp.path().join("manifest-7.json")).unwrap();
    fs::write(tmp.path().join("manifest-7.json").join("inner"), b"directory, not a file").unwrap();

    // A cold restore through the zoo lands on the real generation.
    let mut reader = JuryService::with_config(following(tmp.path(), Duration::from_millis(60)));
    let rp = reader.create_pool(jurors.clone());
    assert_eq!(drive(&mut reader, rp), control(&jurors), "the zoo must not change answers");
    let stats = reader.stats();
    assert_eq!(stats.snapshot_restores, 1);
    assert_eq!(stats.snapshot_generation, 1, "only the real manifest counts");

    // The name-only watch announces the directory named `manifest-7`
    // (it cannot know better without opening files) — but adoption
    // stays generation-gated on what actually parses, so it refuses
    // and the announcement repeats instead of half-adopting.
    assert_eq!(watcher.poll(), Some(7), "name-only scan sees the fake");
    assert!(follower.adopt_snapshot().is_none(), "nothing real is newer: adoption refused");
    assert_eq!(follower.stats().generations_adopted, 0);
    assert_eq!(watcher.poll(), Some(7), "an unadoptable announcement is repeated, not dropped");

    // The writer's next commit scans past the zoo and lands generation
    // 2 — which the follower then adopts through the same debris.
    let mutated = dirty(&mut writer, wp, 0);
    assert_eq!(writer.snapshot(tmp.path()).unwrap().generation, 2, "the writer skips the zoo");
    assert!(watcher.poll().is_some());
    let adopted = follower.adopt_snapshot().expect("the real commit adopts through the zoo");
    assert_eq!(adopted.generation, 2);
    let ft = follower.create_pool(mutated.clone());
    assert_eq!(drive(&mut follower, ft), control(&mutated));
}
