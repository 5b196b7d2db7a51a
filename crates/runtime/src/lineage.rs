//! Per-tenant checkpoint lineages: a directory of step-stamped snapshots
//! with keep-last-K compaction and startup garbage collection.
//!
//! One lineage owns one directory. Checkpoints are written as
//! `ckpt-<step>.json` (zero-padded so lexical and numeric order agree)
//! through [`RuntimeSnapshot::write_atomic`]'s tmp+fsync+rename protocol,
//! then the lineage *compacts*: everything but the newest `keep_last`
//! snapshots is deleted — strictly after the new snapshot is durable, so
//! compaction can never leave the lineage without its newest restorable
//! state, whatever instant the process is killed at.
//!
//! [`open`](CheckpointLineage::open) scans the directory once; after that
//! the lineage keeps its retained steps in memory, so
//! [`record`](CheckpointLineage::record) compacts by deleting the oldest
//! steps past `keep_last` without listing the directory again. `record`
//! takes `&self`, so the tenant manager's checkpoint writer threads share
//! the lineage with the worker that hosts the tenant. Each tenant's
//! records run on one writer, one at a time and in step order, so the lock
//! around the retained steps is never contended.
//!
//! [`open`](CheckpointLineage::open) garbage-collects the wreckage of a
//! kill: `.tmp` partials (a rename that never happened) are removed, and
//! corrupt or truncated `ckpt-*.json` files are removed and logged —
//! [`latest_restorable`](CheckpointLineage::latest_restorable) therefore
//! only ever resumes from a snapshot that parses and validates.

use std::collections::VecDeque;
use std::fs;
use std::io::ErrorKind;
use std::path::{Path, PathBuf};
use std::sync::{Mutex, PoisonError};

use crate::snapshot::{sync_parent_dir, RuntimeSnapshot};
use crate::Result;

/// Width of the zero-padded step in a checkpoint file name.
const STEP_WIDTH: usize = 20;

/// A tenant's checkpoint directory with keep-last-K retention.
#[derive(Debug)]
pub struct CheckpointLineage {
    dir: PathBuf,
    keep_last: usize,
    /// The steps on disk, ascending: scanned once by `open`, then kept
    /// current by `record` and by the garbage collection of
    /// `latest_restorable`.
    retained: Mutex<VecDeque<u64>>,
}

/// Parses the step out of a `ckpt-<step>.json` file name.
fn step_of(name: &str) -> Option<u64> {
    name.strip_prefix("ckpt-")?
        .strip_suffix(".json")?
        .parse()
        .ok()
}

impl CheckpointLineage {
    /// Opens (creating if needed) the lineage at `dir`, retaining the
    /// newest `keep_last` checkpoints (clamped to at least 1), and
    /// garbage-collects leftovers of an unclean death: `.tmp` partials
    /// are removed silently, corrupt/truncated `ckpt-*.json` are removed
    /// and logged to stderr (and to the anomaly log when one is wired).
    ///
    /// # Errors
    ///
    /// Returns [`Error::Io`](crate::Error::Io) when the directory cannot be
    /// created or scanned.
    pub fn open(dir: impl Into<PathBuf>, keep_last: usize) -> Result<Self> {
        let lineage = CheckpointLineage {
            dir: dir.into(),
            keep_last: keep_last.max(1),
            retained: Mutex::new(VecDeque::new()),
        };
        fs::create_dir_all(&lineage.dir)?;
        let mut retained = VecDeque::new();
        for (step, path) in lineage.scan()? {
            if RuntimeSnapshot::read(&path).is_err() {
                eprintln!(
                    "lineage: GC of corrupt checkpoint {} (step {step})",
                    path.display()
                );
                idc_obs::record_anomaly("checkpoint_gc", step, &[]);
                fs::remove_file(&path)?;
            } else {
                retained.push_back(step);
            }
        }
        *lineage.retained() = retained;
        Ok(lineage)
    }

    /// The retained steps. A panic while the lock was held leaves them
    /// as they were, so a poisoned lock is taken over.
    fn retained(&self) -> std::sync::MutexGuard<'_, VecDeque<u64>> {
        self.retained.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// The lineage directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// The checkpoint path for `step`.
    pub fn path_for(&self, step: u64) -> PathBuf {
        self.dir
            .join(format!("ckpt-{step:0w$}.json", w = STEP_WIDTH))
    }

    /// All `(step, path)` pairs present, sorted by step. `.tmp` partials
    /// are removed on sight (they are by definition incomplete).
    fn scan(&self) -> Result<Vec<(u64, PathBuf)>> {
        let mut found = Vec::new();
        for entry in fs::read_dir(&self.dir)? {
            let entry = entry?;
            let path = entry.path();
            let Some(name) = path.file_name().and_then(|n| n.to_str()) else {
                continue;
            };
            if name.ends_with(".tmp") {
                fs::remove_file(&path)?;
                continue;
            }
            if let Some(step) = step_of(name) {
                found.push((step, path));
            }
        }
        found.sort_unstable_by_key(|(step, _)| *step);
        Ok(found)
    }

    /// Steps with a checkpoint on disk, ascending.
    ///
    /// # Errors
    ///
    /// Returns [`Error::Io`](crate::Error::Io) when the directory cannot be
    /// scanned.
    pub fn steps(&self) -> Result<Vec<u64>> {
        Ok(self.scan()?.into_iter().map(|(step, _)| step).collect())
    }

    /// Writes `snapshot` as this lineage's checkpoint for its own step
    /// cursor, then compacts to the newest `keep_last`: the oldest
    /// retained steps are deleted by name, with no directory listing.
    /// Returns the written path.
    ///
    /// The order is deliberate — durable write first, deletions second —
    /// so a kill at any instant leaves either the old retention set or
    /// the new one, never a lineage whose only snapshots were deleted.
    /// The directory is fsynced after the rename and again after the
    /// deletions, so a returned checkpoint survives a power loss too.
    ///
    /// # Errors
    ///
    /// Propagates snapshot serialization and filesystem failures.
    pub fn record(&self, snapshot: &RuntimeSnapshot) -> Result<PathBuf> {
        let step = snapshot.step;
        let path = self.path_for(step);
        snapshot.write_atomic(&path)?;
        let mut retained = self.retained();
        match retained.back() {
            Some(&last) if last >= step => {
                if let Err(at) = retained.binary_search(&step) {
                    retained.insert(at, step);
                }
            }
            _ => retained.push_back(step),
        }
        if retained.len() > self.keep_last {
            while retained.len() > self.keep_last {
                let stale = retained.pop_front().expect("more than keep_last");
                match fs::remove_file(self.path_for(stale)) {
                    // Already gone: collected as corrupt, or removed by hand.
                    Err(err) if err.kind() == ErrorKind::NotFound => {}
                    other => other?,
                }
            }
            sync_parent_dir(&path)?;
        }
        Ok(path)
    }

    /// Deletes every retained checkpoint, so a fresh run starts its own
    /// lineage instead of compacting into an earlier run's. An empty
    /// lineage touches no file.
    ///
    /// # Errors
    ///
    /// Propagates filesystem failures.
    pub fn clear(&self) -> Result<()> {
        let mut retained = self.retained();
        let Some(&newest) = retained.back() else {
            return Ok(());
        };
        for step in retained.drain(..) {
            match fs::remove_file(self.path_for(step)) {
                Err(err) if err.kind() == ErrorKind::NotFound => {}
                other => other?,
            }
        }
        sync_parent_dir(&self.path_for(newest))
    }

    /// The newest snapshot on disk that parses and validates, with its
    /// step. Corrupt candidates are GC'd and logged, then older ones are
    /// tried — `None` only when nothing restorable remains.
    ///
    /// # Errors
    ///
    /// Returns [`Error::Io`](crate::Error::Io) when the directory cannot be
    /// scanned.
    pub fn latest_restorable(&self) -> Result<Option<(u64, RuntimeSnapshot)>> {
        for (step, path) in self.scan()?.into_iter().rev() {
            match RuntimeSnapshot::read(&path) {
                Ok(snapshot) => return Ok(Some((step, snapshot))),
                Err(err) => {
                    eprintln!(
                        "lineage: GC of corrupt checkpoint {}: {err}",
                        path.display()
                    );
                    idc_obs::record_anomaly("checkpoint_gc", step, &[]);
                    fs::remove_file(&path)?;
                    self.retained().retain(|&s| s != step);
                }
            }
        }
        Ok(None)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stepper::{Stepper, StepperConfig};

    fn tmpdir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("idc-lineage-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    fn snapshots(n: usize) -> Vec<RuntimeSnapshot> {
        let mut stepper = Stepper::new(StepperConfig::fault_free("smoothing", 2012)).unwrap();
        let mut out = vec![stepper.snapshot()];
        for _ in 1..n {
            stepper.step_once().unwrap();
            out.push(stepper.snapshot());
        }
        out
    }

    #[test]
    fn record_compacts_to_keep_last_and_restores_newest() {
        let dir = tmpdir("compact");
        let lineage = CheckpointLineage::open(&dir, 3).unwrap();
        let snaps = snapshots(6);
        for snap in &snaps {
            lineage.record(snap).unwrap();
        }
        assert_eq!(lineage.steps().unwrap(), vec![3, 4, 5]);
        let (step, newest) = lineage.latest_restorable().unwrap().unwrap();
        assert_eq!(step, 5);
        assert_eq!(&newest, snaps.last().unwrap());
        fs::remove_dir_all(&dir).unwrap();
    }

    /// `open` takes over a directory that already holds more than
    /// `keep_last` checkpoints plus a torn `.tmp`; the next records compact
    /// from the retained steps it scanned, down to the newest `keep_last`.
    #[test]
    fn record_compacts_a_reopened_lineage_from_its_scan() {
        let dir = tmpdir("reopen");
        let snaps = snapshots(7);
        {
            let wide = CheckpointLineage::open(&dir, 10).unwrap();
            for snap in &snaps[..5] {
                wide.record(snap).unwrap();
            }
        }
        fs::write(dir.join("ckpt-00000000000000000009.tmp"), b"{\"torn\":").unwrap();
        let lineage = CheckpointLineage::open(&dir, 2).unwrap();
        assert!(!dir.join("ckpt-00000000000000000009.tmp").exists());
        assert_eq!(lineage.steps().unwrap(), vec![0, 1, 2, 3, 4]);
        lineage.record(&snaps[5]).unwrap();
        assert_eq!(lineage.steps().unwrap(), vec![4, 5]);
        lineage.record(&snaps[6]).unwrap();
        assert_eq!(lineage.steps().unwrap(), vec![5, 6]);
        assert_eq!(*lineage.retained(), [5, 6]);
        let (step, newest) = lineage.latest_restorable().unwrap().unwrap();
        assert_eq!((step, &newest), (6, &snaps[6]));
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn open_gcs_partials_and_corrupt_files() {
        let dir = tmpdir("gc");
        {
            let lineage = CheckpointLineage::open(&dir, 2).unwrap();
            for snap in &snapshots(2) {
                lineage.record(snap).unwrap();
            }
        }
        // Simulate a kill mid-write plus on-disk corruption.
        fs::write(dir.join("ckpt-00000000000000000009.tmp"), b"{\"torn\":").unwrap();
        fs::write(dir.join("ckpt-00000000000000000007.json"), b"not json").unwrap();
        let reopened = CheckpointLineage::open(&dir, 2).unwrap();
        assert_eq!(reopened.steps().unwrap(), vec![0, 1]);
        assert!(!dir.join("ckpt-00000000000000000009.tmp").exists());
        assert!(!dir.join("ckpt-00000000000000000007.json").exists());
        let (step, _) = reopened.latest_restorable().unwrap().unwrap();
        assert_eq!(step, 1);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn latest_restorable_skips_truncated_newest() {
        let dir = tmpdir("truncated");
        let lineage = CheckpointLineage::open(&dir, 4).unwrap();
        let snaps = snapshots(3);
        for snap in &snaps {
            lineage.record(snap).unwrap();
        }
        // Truncate the newest checkpoint in place (torn at the fs level).
        let newest = lineage.path_for(2);
        let text = fs::read_to_string(&newest).unwrap();
        fs::write(&newest, &text[..text.len() / 2]).unwrap();
        let (step, snap) = lineage.latest_restorable().unwrap().unwrap();
        assert_eq!(step, 1);
        assert_eq!(snap, snaps[1]);
        // The torn file is gone after the failed read.
        assert_eq!(lineage.steps().unwrap(), vec![0, 1]);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn empty_lineage_has_nothing_restorable() {
        let dir = tmpdir("empty");
        let lineage = CheckpointLineage::open(&dir, 1).unwrap();
        assert!(lineage.latest_restorable().unwrap().is_none());
        assert!(lineage.steps().unwrap().is_empty());
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn directory_sync_failure_is_an_io_error() {
        let dir = tmpdir("nosync");
        let file = dir.join("ckpt-00000001.json");
        assert!(matches!(sync_parent_dir(&file), Err(crate::Error::Io(_))));
        fs::create_dir_all(&dir).unwrap();
        sync_parent_dir(&file).unwrap();
        fs::remove_dir_all(&dir).unwrap();
    }
}
