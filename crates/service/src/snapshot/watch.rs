//! Live generation watch over a shared snapshot directory.
//!
//! A warm follower keeps a [`SnapshotWatcher`] pointed at the same
//! directory its writer checkpoints into and polls it on a bounded
//! interval. The watcher is deliberately dumb and cheap: it answers
//! one question — *is there a committed generation newer than the one
//! I last adopted?* — and leaves adoption itself to
//! `JuryService::adopt_snapshot`, which re-verifies every artifact
//! through the same content gates a cold restore uses.
//!
//! Two costs are bounded:
//!
//! * **Per-poll work.** The fast path is a single `stat` of the
//!   directory: manifest commits rename into the directory, which
//!   bumps its mtime, so an unchanged mtime means an unchanged
//!   generation set and the poll returns without reading a single
//!   filename. Only an mtime change (or an unadopted pending
//!   generation) triggers a name-only scan — no manifest is opened,
//!   no entry is read.
//! * **Herd alignment.** [`SnapshotWatcher::next_wait`] spreads
//!   followers out by jittering the configured interval ±25% with a
//!   deterministic per-watcher sequence, so a fleet of followers
//!   started together does not stat the shared directory in lockstep
//!   forever.
//!
//! The watcher never observes a generation on its own: the caller
//! reports successful adoption via [`SnapshotWatcher::observe`]. Until
//! then every poll keeps announcing the pending generation, so a
//! failed adoption is retried rather than silently skipped.

use std::path::{Path, PathBuf};
use std::time::{Duration, SystemTime};

use super::scan_manifests;

/// Polls a snapshot directory for generations newer than the last one
/// the owner adopted. See the module docs for the cost model.
#[derive(Debug)]
pub struct SnapshotWatcher {
    dir: PathBuf,
    interval: Duration,
    /// Highest generation the owner has adopted (0 = nothing yet).
    seen_generation: u64,
    /// Directory mtime at the last scan that found nothing new; `None`
    /// forces the next poll to scan.
    settled_mtime: Option<SystemTime>,
    /// splitmix64 chain for deterministic jitter.
    jitter_state: u64,
    polls: u64,
    scans: u64,
}

impl SnapshotWatcher {
    /// A watcher over `dir` polling roughly every `interval`. Nothing
    /// is read until the first [`poll`](Self::poll).
    pub fn new(dir: &Path, interval: Duration) -> Self {
        // Seed the jitter chain from the directory path so co-located
        // followers watching different directories (and tests) get
        // distinct but reproducible sequences.
        let mut seed = 0x9e37_79b9_7f4a_7c15u64;
        for byte in dir.as_os_str().as_encoded_bytes() {
            seed = seed.rotate_left(8) ^ u64::from(*byte);
        }
        Self {
            dir: dir.to_path_buf(),
            interval,
            seen_generation: 0,
            settled_mtime: None,
            jitter_state: seed,
            polls: 0,
            scans: 0,
        }
    }

    /// The generation the owner last [`observe`](Self::observe)d.
    pub fn seen_generation(&self) -> u64 {
        self.seen_generation
    }

    /// Polls issued so far (fast-path and scanning alike).
    pub fn polls(&self) -> u64 {
        self.polls
    }

    /// Polls that fell through the mtime fast path into a name scan.
    pub fn scans(&self) -> u64 {
        self.scans
    }

    /// Checks the directory once. Returns `Some(gen)` when a manifest
    /// with generation `gen > seen_generation` exists, `None` when
    /// there is nothing newer. Repeated polls keep returning the
    /// pending generation until [`observe`](Self::observe) is called —
    /// adoption failures must not un-announce a commit.
    pub fn poll(&mut self) -> Option<u64> {
        self.polls += 1;
        let mtime = fs_mtime(&self.dir);
        if mtime.is_some() && mtime == self.settled_mtime {
            return None;
        }
        self.scans += 1;
        let newest = scan_manifests(&self.dir).into_iter().map(|(gen, _)| gen).max().unwrap_or(0);
        if newest > self.seen_generation {
            // Leave `settled_mtime` unset: until the owner adopts and
            // observes, every poll must re-announce this generation.
            self.settled_mtime = None;
            Some(newest)
        } else {
            self.settled_mtime = mtime;
            None
        }
    }

    /// Records that the owner adopted `generation`; older or equal
    /// observations are ignored.
    pub fn observe(&mut self, generation: u64) {
        self.seen_generation = self.seen_generation.max(generation);
    }

    /// The jittered wait before the next poll: the configured interval
    /// ±25%, from a deterministic per-watcher sequence.
    pub fn next_wait(&mut self) -> Duration {
        // A splitmix64 stream: mix the state, then advance it by the
        // generator's own increment.
        let z = jury_numeric::hash::splitmix64(self.jitter_state);
        self.jitter_state = self.jitter_state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let base = self.interval.as_nanos() as u64;
        if base == 0 {
            return Duration::ZERO;
        }
        // Map z into [-base/4, +base/4] and offset the interval by it.
        let half_span = base / 4;
        let offset = z % (2 * half_span.max(1) + 1);
        Duration::from_nanos(base - half_span + offset)
    }
}

fn fs_mtime(dir: &Path) -> Option<SystemTime> {
    std::fs::metadata(dir).and_then(|m| m.modified()).ok()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::fs;

    struct TempDir(PathBuf);
    impl TempDir {
        fn new(tag: &str) -> Self {
            let mut dir = std::env::temp_dir();
            dir.push(format!("jury-watch-{tag}-{}", std::process::id()));
            let _ = fs::remove_dir_all(&dir);
            fs::create_dir_all(&dir).expect("create temp dir");
            Self(dir)
        }
    }
    impl Drop for TempDir {
        fn drop(&mut self) {
            let _ = fs::remove_dir_all(&self.0);
        }
    }

    #[test]
    fn poll_announces_until_observed() {
        let tmp = TempDir::new("announce");
        let mut watcher = SnapshotWatcher::new(&tmp.0, Duration::from_millis(10));
        assert_eq!(watcher.poll(), None, "empty directory has nothing to adopt");

        fs::write(tmp.0.join("manifest-3.json"), b"{}").expect("write manifest");
        assert_eq!(watcher.poll(), Some(3));
        assert_eq!(watcher.poll(), Some(3), "unobserved generation is re-announced");

        watcher.observe(3);
        assert_eq!(watcher.poll(), None);
        assert_eq!(watcher.seen_generation(), 3);

        watcher.observe(2);
        assert_eq!(watcher.seen_generation(), 3, "observe never moves backwards");
    }

    #[test]
    fn fast_path_skips_scans_when_directory_is_quiet() {
        let tmp = TempDir::new("fastpath");
        fs::write(tmp.0.join("manifest-1.json"), b"{}").expect("write manifest");
        let mut watcher = SnapshotWatcher::new(&tmp.0, Duration::from_millis(10));
        watcher.observe(1);
        assert_eq!(watcher.poll(), None, "first poll scans and settles");
        let scans_after_settle = watcher.scans();
        for _ in 0..16 {
            assert_eq!(watcher.poll(), None);
        }
        assert_eq!(watcher.scans(), scans_after_settle, "quiet directory is stat-only");
        assert_eq!(watcher.polls(), 17);
    }

    #[test]
    fn next_wait_stays_within_a_quarter_of_the_interval() {
        let tmp = TempDir::new("jitter");
        let interval = Duration::from_millis(100);
        let mut watcher = SnapshotWatcher::new(&tmp.0, interval);
        let mut distinct = std::collections::HashSet::new();
        for _ in 0..64 {
            let wait = watcher.next_wait();
            assert!(wait >= Duration::from_millis(75), "wait {wait:?} below -25%");
            assert!(wait <= Duration::from_millis(125), "wait {wait:?} above +25%");
            distinct.insert(wait);
        }
        assert!(distinct.len() > 8, "jitter sequence should not be constant");
        assert_eq!(SnapshotWatcher::new(&tmp.0, Duration::ZERO).next_wait(), Duration::ZERO);
    }
}
