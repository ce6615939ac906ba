//! Advisory single-writer lease over a shared snapshot directory.
//!
//! Several service processes may point at one snapshot directory, but
//! only one may write checkpoints. The lease is a small JSON file
//! (`writer.lease`) acquired by **atomic create**: the candidate writes
//! a unique temp file and `hard_link`s it to the lease name, which
//! fails if the name already exists — the filesystem picks exactly one
//! winner. The file carries the holder id, the write **epoch**, and a
//! heartbeat timestamp the holder refreshes on every checkpoint.
//!
//! A second would-be writer finds a live lease and backs off
//! ([`SnapshotError::LeaseHeld`]) — it can still restore read-only.
//! Once the heartbeat goes stale past [`LeaseConfig::ttl`] the lease is
//! broken by **epoch bump**: the breaker atomically *steals* the lease
//! file (rename to a unique name — only one concurrent breaker's
//! rename can succeed, and the stolen bytes are checked against the
//! stale lease the breaker decided to break: stealing a rival's
//! *fresh* replacement instead restores it and backs off) and
//! re-creates it with
//! `epoch = max(stale epoch, committed manifest epoch) + 1`. The old
//! holder is *fenced*: its next commit re-reads the lease immediately
//! before the manifest rename, finds a foreign holder or a higher
//! epoch, and is refused ([`SnapshotError::Fenced`]) — a zombie writer
//! can never publish a manifest over the new holder's generations.
//!
//! The lease is advisory: readers never consult it, and a crashed
//! holder leaves only a file whose heartbeat ages out. Heartbeats are
//! wall-clock milliseconds (`SystemTime`), the only clock comparable
//! across processes; modest skew merely stretches or shrinks the
//! effective ttl, it cannot corrupt data — correctness rests on the
//! commit-time fence, not on clocks. Backwards clock steps are
//! tolerated explicitly: a heartbeat stamped in the future reads as
//! age 0 ([`heartbeat_age_ms`]), so a lease is broken only on positive
//! evidence of staleness, never because a clock ran backwards.
//!
//! Every filesystem operation consults the caller's
//! [`FaultPlane`](super::fault::FaultPlane) first, so the chaos
//! harness can kill or stall a writer at any protocol boundary.

use super::fault::FaultPlane;
use super::SnapshotError;
use serde::{json, Value};
use std::fs::{self, File};
use std::io::{self, Write as _};
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, SystemTime, UNIX_EPOCH};

/// Lease file name within a snapshot directory.
pub(crate) const LEASE: &str = "writer.lease";

/// Writer-lease tuning (part of
/// [`ServiceConfig`](crate::ServiceConfig)).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LeaseConfig {
    /// How stale the holder's heartbeat may grow before another writer
    /// may break the lease. Must comfortably exceed the checkpoint
    /// interval plus the worst-case snapshot write time.
    pub ttl: Duration,
}

impl Default for LeaseConfig {
    fn default() -> Self {
        Self { ttl: Duration::from_secs(30) }
    }
}

/// A parsed `writer.lease` file.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct LeaseInfo {
    pub holder: String,
    pub epoch: u64,
    pub heartbeat_ms: u64,
}

/// What reading the lease file found.
enum ReadLease {
    Missing,
    /// Present but unparseable. Breakable like a stale lease (it
    /// cannot carry a live heartbeat), but never *ours* (unverifiable
    /// ownership fences a believing holder).
    Corrupt,
    Held(LeaseInfo),
}

/// Wall-clock milliseconds since the Unix epoch — the cross-process
/// heartbeat clock.
pub(crate) fn now_ms() -> u64 {
    SystemTime::now().duration_since(UNIX_EPOCH).map_or(0, |d| d.as_millis() as u64)
}

/// Heartbeat age under backwards-clock tolerance: a heartbeat stamped
/// *at or after* `now` (the wall clock stepped backwards between
/// writes, or another process's clock runs ahead) clamps to age 0. A
/// future-dated heartbeat therefore always reads as live — staleness
/// requires positive age past the ttl, and a clock that ran backwards
/// can only delay a break, never cause one.
pub(crate) fn heartbeat_age_ms(now: u64, heartbeat_ms: u64) -> u64 {
    now.saturating_sub(heartbeat_ms)
}

/// A holder id unique across processes and across services within one
/// process: pid, a coarse wall-clock nanosecond sample, and a
/// process-local sequence number.
pub(crate) fn new_holder_id() -> String {
    static SEQ: AtomicU64 = AtomicU64::new(0);
    let nanos = SystemTime::now().duration_since(UNIX_EPOCH).map_or(0, |d| d.subsec_nanos() as u64);
    format!("{}-{nanos:x}-{:x}", std::process::id(), SEQ.fetch_add(1, Ordering::Relaxed))
}

fn read_lease(faults: &dyn FaultPlane, dir: &Path) -> ReadLease {
    if faults.before("lease.read").is_err() {
        return ReadLease::Missing;
    }
    let text = match fs::read_to_string(dir.join(LEASE)) {
        Ok(text) => text,
        Err(_) => return ReadLease::Missing,
    };
    match parse_lease(&text) {
        Some(info) => ReadLease::Held(info),
        None => ReadLease::Corrupt,
    }
}

fn parse_lease(text: &str) -> Option<LeaseInfo> {
    let value = json::parse(text).ok()?;
    if value.get("format")?.as_str()? != "jury-lease" {
        return None;
    }
    Some(LeaseInfo {
        holder: value.get("holder")?.as_str()?.to_string(),
        epoch: u64::from_str_radix(value.get("epoch")?.as_str()?, 16).ok()?,
        heartbeat_ms: u64::from_str_radix(value.get("heartbeat_ms")?.as_str()?, 16).ok()?,
    })
}

fn encode_lease(holder: &str, epoch: u64) -> String {
    json::to_string(&Value::object([
        ("format", Value::String("jury-lease".to_string())),
        ("holder", Value::String(holder.to_string())),
        ("epoch", Value::String(format!("{epoch:016x}"))),
        ("heartbeat_ms", Value::String(format!("{:016x}", now_ms()))),
    ]))
}

/// Writes the lease content to a unique temp file, fsynced. The temp
/// name embeds the holder id so concurrent candidates never collide.
fn write_lease_tmp(
    faults: &dyn FaultPlane,
    dir: &Path,
    holder: &str,
    epoch: u64,
) -> io::Result<std::path::PathBuf> {
    faults.before("lease.tmp")?;
    let tmp = dir.join(format!("{LEASE}.{holder}.tmp"));
    let mut file = File::create(&tmp)?;
    file.write_all(encode_lease(holder, epoch).as_bytes())?;
    file.sync_all()?;
    Ok(tmp)
}

/// Atomic create: `hard_link` the temp to the lease name — fails if the
/// lease exists, so exactly one concurrent candidate wins. Returns
/// `Ok(true)` on win, `Ok(false)` if the name was taken or the temp
/// vanished before the link (only a rival clearing the directory
/// removes it — the race is lost either way).
fn create_lease(faults: &dyn FaultPlane, dir: &Path, holder: &str, epoch: u64) -> io::Result<bool> {
    let tmp = write_lease_tmp(faults, dir, holder, epoch)?;
    faults.before("lease.link").inspect_err(|_| {
        let _ = fs::remove_file(&tmp);
    })?;
    let won = match fs::hard_link(&tmp, dir.join(LEASE)) {
        Ok(()) => true,
        Err(e) if matches!(e.kind(), io::ErrorKind::AlreadyExists | io::ErrorKind::NotFound) => {
            false
        }
        Err(e) => {
            let _ = fs::remove_file(&tmp);
            return Err(e);
        }
    };
    let _ = fs::remove_file(&tmp);
    if won {
        if let Ok(d) = File::open(dir) {
            let _ = d.sync_all();
        }
    }
    Ok(won)
}

/// Heartbeat refresh for a lease we already hold: temp + atomic rename
/// over the lease name.
fn refresh_lease(faults: &dyn FaultPlane, dir: &Path, holder: &str, epoch: u64) -> io::Result<()> {
    let tmp = write_lease_tmp(faults, dir, holder, epoch)?;
    faults.before("lease.refresh").inspect_err(|_| {
        let _ = fs::remove_file(&tmp);
    })?;
    fs::rename(&tmp, dir.join(LEASE))?;
    Ok(())
}

/// Atomically steals a stale/corrupt lease file out of the way so that
/// exactly one concurrent breaker proceeds to [`create_lease`]. The
/// rename source disappears for every other breaker.
///
/// The steal is **verified**: between this breaker's read and its
/// rename, a concurrent breaker may already have broken the stale
/// lease and created a fresh one of its own — a blind rename would
/// evict that live holder and let two writers acquire the same epoch.
/// So the stolen bytes are compared against `expected` (the stale
/// [`LeaseInfo`] this breaker decided to break; `None` for a corrupt,
/// unparseable lease). A mismatch restores the stolen file and
/// reports the steal lost; the caller re-reads and backs off.
fn steal_lease(
    faults: &dyn FaultPlane,
    dir: &Path,
    holder: &str,
    expected: Option<&LeaseInfo>,
) -> bool {
    if faults.before("lease.steal").is_err() {
        return false;
    }
    let stolen = dir.join(format!("{LEASE}.{holder}.stolen"));
    if fs::rename(dir.join(LEASE), &stolen).is_err() {
        return false;
    }
    let parsed = fs::read_to_string(&stolen).ok().and_then(|text| parse_lease(&text));
    let matches = match (expected, &parsed) {
        (Some(expected), Some(stolen)) => stolen == expected,
        // Expected corrupt bytes: any unparseable steal qualifies.
        (None, None) => true,
        _ => false,
    };
    if matches {
        let _ = fs::remove_file(&stolen);
        true
    } else {
        // Stole a rival's fresh lease — put it back. Should a third
        // candidate have created yet another lease in this window, the
        // rename overwrites it and that candidate's commit is refused
        // by the fence; safety never depends on winning here.
        let _ = fs::rename(&stolen, dir.join(LEASE));
        false
    }
}

/// Acquires (or re-validates, or breaks) the writer lease for `dir`.
///
/// * `believed` — the epoch this writer holds from a previous acquire,
///   if any. A believing writer that finds a foreign or missing lease
///   is **fenced**, never queued: someone broke the lease, and this
///   writer's state may be behind.
/// * `floor` — the highest epoch committed in any on-disk manifest; a
///   broken lease's replacement epoch always clears it, so epochs can
///   never run backwards past a committed generation.
///
/// Returns the epoch to commit under.
pub(crate) fn acquire(
    faults: &dyn FaultPlane,
    dir: &Path,
    holder: &str,
    believed: Option<u64>,
    ttl: Duration,
    floor: u64,
) -> Result<u64, SnapshotError> {
    let ttl_ms = ttl.as_millis() as u64;
    for _ in 0..3 {
        match read_lease(faults, dir) {
            ReadLease::Missing => {
                if let Some(ours) = believed {
                    if floor > ours {
                        return Err(SnapshotError::Fenced { ours, winner: floor });
                    }
                    // Our lease file vanished but no newer epoch ever
                    // committed — re-create at our epoch.
                    if create_lease(faults, dir, holder, ours).map_err(SnapshotError::Io)? {
                        return Ok(ours);
                    }
                } else {
                    let epoch = floor + 1;
                    if create_lease(faults, dir, holder, epoch).map_err(SnapshotError::Io)? {
                        return Ok(epoch);
                    }
                }
                // Lost the create race — loop to observe the winner.
            }
            ReadLease::Held(info) if info.holder == holder => {
                let epoch = info.epoch.max(believed.unwrap_or(0));
                refresh_lease(faults, dir, holder, epoch).map_err(SnapshotError::Io)?;
                return Ok(epoch);
            }
            ReadLease::Held(info) => {
                if let Some(ours) = believed {
                    return Err(SnapshotError::Fenced { ours, winner: info.epoch });
                }
                // Clamped age: a future-dated heartbeat (backwards
                // clock step) reads as 0 and can never break a lease.
                let age_ms = heartbeat_age_ms(now_ms(), info.heartbeat_ms);
                if age_ms <= ttl_ms {
                    return Err(SnapshotError::LeaseHeld { holder: info.holder, age_ms });
                }
                // Stale: break by epoch bump. Verified steal-then-
                // create keeps concurrent breakers down to one winner.
                if steal_lease(faults, dir, holder, Some(&info)) {
                    let epoch = info.epoch.max(floor) + 1;
                    if create_lease(faults, dir, holder, epoch).map_err(SnapshotError::Io)? {
                        return Ok(epoch);
                    }
                }
            }
            ReadLease::Corrupt => {
                if let Some(ours) = believed {
                    return Err(SnapshotError::Fenced { ours, winner: 0 });
                }
                if steal_lease(faults, dir, holder, None) {
                    let epoch = floor + 1;
                    if create_lease(faults, dir, holder, epoch).map_err(SnapshotError::Io)? {
                        return Ok(epoch);
                    }
                }
            }
        }
    }
    // Contended past every retry: report whoever holds it now.
    match read_lease(faults, dir) {
        ReadLease::Held(info) => Err(SnapshotError::LeaseHeld {
            age_ms: heartbeat_age_ms(now_ms(), info.heartbeat_ms),
            holder: info.holder,
        }),
        _ => Err(SnapshotError::LeaseHeld { holder: "<contended>".to_string(), age_ms: 0 }),
    }
}

/// The commit-time fence: re-reads the lease immediately before the
/// manifest rename. Only a lease naming exactly this holder and epoch
/// permits the commit — anything else (foreign holder, bumped epoch,
/// vanished or corrupt file) refuses it. `winner: 0` means the winning
/// epoch could not be determined.
pub(crate) fn verify(
    faults: &dyn FaultPlane,
    dir: &Path,
    holder: &str,
    epoch: u64,
) -> Result<(), SnapshotError> {
    match read_lease(faults, dir) {
        ReadLease::Held(info) if info.holder == holder && info.epoch == epoch => Ok(()),
        ReadLease::Held(info) => Err(SnapshotError::Fenced { ours: epoch, winner: info.epoch }),
        ReadLease::Missing | ReadLease::Corrupt => {
            Err(SnapshotError::Fenced { ours: epoch, winner: 0 })
        }
    }
}

/// Releases the lease if (and only if) this holder still owns it —
/// graceful drain. A lease someone else broke is left alone.
pub(crate) fn release(faults: &dyn FaultPlane, dir: &Path, holder: &str) -> io::Result<()> {
    if let ReadLease::Held(info) = read_lease(faults, dir) {
        if info.holder == holder {
            faults.before("lease.unlink")?;
            fs::remove_file(dir.join(LEASE))?;
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::super::fault::NoFaults;
    use super::*;

    #[test]
    fn mismatched_steal_restores_the_live_lease() {
        let dir = std::env::temp_dir().join(format!("jury-lease-steal-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).unwrap();

        // The breaker read this stale lease and decided to break it…
        let stale = LeaseInfo { holder: "dead".to_string(), epoch: 3, heartbeat_ms: 1_000 };
        // …but a rival broke it first and re-created the lease fresh.
        fs::write(dir.join(LEASE), encode_lease("rival", 4)).unwrap();

        assert!(
            !steal_lease(&NoFaults, &dir, "breaker", Some(&stale)),
            "stealing a fresh rival lease must be reported lost"
        );
        assert!(
            matches!(read_lease(&NoFaults, &dir), ReadLease::Held(info) if info.holder == "rival"),
            "the rival's lease is restored intact"
        );

        // A steal that finds exactly the stale bytes it expected wins.
        let heartbeat_ms = 1_000;
        fs::write(
            dir.join(LEASE),
            json::to_string(&Value::object([
                ("format", Value::String("jury-lease".to_string())),
                ("holder", Value::String("dead".to_string())),
                ("epoch", Value::String(format!("{:016x}", 3))),
                ("heartbeat_ms", Value::String(format!("{heartbeat_ms:016x}"))),
            ])),
        )
        .unwrap();
        assert!(steal_lease(&NoFaults, &dir, "breaker", Some(&stale)));
        assert!(matches!(read_lease(&NoFaults, &dir), ReadLease::Missing));

        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn heartbeat_age_clamps_backwards_clock_steps_to_zero() {
        assert_eq!(heartbeat_age_ms(1_000, 400), 600);
        assert_eq!(heartbeat_age_ms(1_000, 1_000), 0);
        // A heartbeat from the future — the clock ran backwards since
        // the holder stamped it — must read live, not underflow into
        // an enormous age that breaks the lease.
        assert_eq!(heartbeat_age_ms(1_000, u64::MAX), 0);
    }
}
