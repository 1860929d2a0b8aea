//! Sharded append-only result store for large sweeps.
//!
//! At 10⁶ grid points, one pretty-printed JSON file per point is wrong
//! twice over: a million inodes, and a million results resident in
//! memory before anything is written. This module stores big sweeps as
//! **shards** — `<name>-shard-KKKK.ndjson` files of newline-delimited
//! compact point records, each shard covering a fixed, contiguous range
//! of grid slots *in grid order* (shard `k` holds slots
//! `[k·S, (k+1)·S)`). The runner evaluates one shard's worth of points
//! at a time, buffers at most one shard of encoded records (enforced by
//! the telemetry counters below), and publishes each shard with the same
//! atomic temp-file + rename pattern the per-point path uses — a crash
//! can orphan a `.tmp`, never tear a shard.
//!
//! Because records sit at fixed offsets of a shard written in one atomic
//! step, resume verification is whole-shard: a journaled shard is reused
//! only if its byte length matches the journal and every line
//! re-serialises compactly to exactly itself with the grid's expected id
//! — anything else re-evaluates the whole shard. That granularity is the
//! price of streaming (a crash loses at most one shard of re-evaluable
//! work) and the reason a resumed sharded sweep is byte-identical to an
//! uninterrupted one.

use mlscale_core::faultpoint;
use mlscale_workloads::ExperimentResult;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};

/// Grids up to this many points keep the per-point-file layout (one
/// pretty-printed `<id>.json` each, as every release so far has written);
/// larger grids stream through shards of exactly this many records.
/// `--per-point-max` overrides it — tests use tiny values to exercise
/// many shards cheaply.
pub const DEFAULT_PER_POINT_MAX: usize = 2048;

/// Encoded point records currently buffered (process-wide, across all
/// stores). The streaming property test reads the peak: a sweep through
/// this store must never hold more than one shard of records, no matter
/// how large the grid.
static LIVE_BUFFERED: AtomicUsize = AtomicUsize::new(0);
static PEAK_BUFFERED: AtomicUsize = AtomicUsize::new(0);

/// Resets the buffered-record telemetry (call before the measured sweep).
pub fn reset_buffer_telemetry() {
    LIVE_BUFFERED.store(0, Ordering::SeqCst);
    PEAK_BUFFERED.store(0, Ordering::SeqCst);
}

/// The high-water mark of buffered records since the last
/// [`reset_buffer_telemetry`].
pub fn peak_buffered_records() -> usize {
    PEAK_BUFFERED.load(Ordering::SeqCst)
}

/// Serialises this crate's unit tests that drive a [`ShardedStore`]: the
/// telemetry above is process-wide and the test harness runs tests on
/// parallel threads, so one test's buffering would move the peak another
/// test asserts on.
#[cfg(test)]
pub(crate) fn telemetry_lock() -> std::sync::MutexGuard<'static, ()> {
    static LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());
    LOCK.lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
}

fn note_buffered() {
    let live = LIVE_BUFFERED.fetch_add(1, Ordering::SeqCst) + 1;
    PEAK_BUFFERED.fetch_max(live, Ordering::SeqCst);
}

fn note_flushed(n: usize) {
    // Saturating: a reset mid-sweep must not wrap the live counter.
    let _ = LIVE_BUFFERED.fetch_update(Ordering::SeqCst, Ordering::SeqCst, |live| {
        Some(live.saturating_sub(n))
    });
}

/// `<name>-shard-KKKK.ndjson`. Four digits cover the worst case —
/// [`crate::spec::MAX_GRID_POINTS`] points at the smallest useful shard
/// size still sorts lexicographically — and wider indices simply widen.
pub fn shard_file_name(name: &str, index: usize) -> String {
    format!("{name}-shard-{index:04}.ndjson")
}

/// How many shards a `total`-point grid needs at `shard_size` records
/// per shard.
pub fn shard_count(total: usize, shard_size: usize) -> usize {
    total.div_ceil(shard_size.max(1))
}

/// Whether `file_name` is a shard (or orphaned shard temp file) of the
/// named scenario: `<name>-shard-<digits>.ndjson` or `…​.ndjson.tmp`.
pub(crate) fn is_shard_file(file_name: &str, name: &str) -> bool {
    let Some(rest) = file_name
        .strip_prefix(name)
        .and_then(|r| r.strip_prefix("-shard-"))
    else {
        return false;
    };
    let digits = rest.len() - rest.trim_start_matches(|c: char| c.is_ascii_digit()).len();
    let suffix = &rest[digits..];
    digits > 0 && (suffix == ".ndjson" || suffix == ".ndjson.tmp")
}

/// Removes shard files (and orphaned `.tmp` files) of the named scenario
/// whose file names are not in `fresh` — the sharded sibling of
/// [`crate::run::clean_stale_points`], and called with an empty set by
/// the per-point path so switching a scenario between layouts never
/// leaves the old layout's files beside the new roll-up.
pub(crate) fn clean_stale_shards(
    dir: &Path,
    name: &str,
    fresh: &std::collections::HashSet<String>,
) -> std::io::Result<()> {
    for entry in std::fs::read_dir(dir)? {
        let entry = entry?;
        let Ok(file_name) = entry.file_name().into_string() else {
            continue;
        };
        if is_shard_file(&file_name, name) && !fresh.contains(&file_name) {
            std::fs::remove_file(entry.path())?;
        }
    }
    Ok(())
}

/// One scenario's shard writer: buffers encoded records for the shard in
/// progress (never more than one shard's worth) and publishes each full
/// shard atomically.
#[derive(Debug)]
pub struct ShardedStore {
    dir: PathBuf,
    name: String,
    shard_size: usize,
    slots: Vec<Option<String>>,
    buffered: usize,
}

impl ShardedStore {
    /// A store writing shards of `shard_size` records (at least 1) into
    /// `dir` under the scenario's name.
    pub fn new(dir: &Path, name: &str, shard_size: usize) -> Self {
        let shard_size = shard_size.max(1);
        ShardedStore {
            dir: dir.to_path_buf(),
            name: name.to_string(),
            shard_size,
            slots: vec![None; shard_size],
            buffered: 0,
        }
    }

    /// Records per shard (the `--per-point-max` threshold).
    pub fn shard_size(&self) -> usize {
        self.shard_size
    }

    /// Where shard `index` lives on disk.
    pub fn shard_path(&self, index: usize) -> PathBuf {
        self.dir.join(shard_file_name(&self.name, index))
    }

    /// Encodes one evaluated point into the in-progress shard at
    /// `slot` (its offset within the shard, *not* the grid). Results may
    /// arrive in any evaluation order; slots pin them back to grid order.
    pub fn buffer(&mut self, slot: usize, result: &ExperimentResult) -> std::io::Result<()> {
        let line = serde_json::to_string(result).map_err(std::io::Error::other)?;
        self.buffer_encoded(slot, line)
    }

    /// [`Self::buffer`] for a record already encoded as one compact JSON
    /// line (the sweep engine encodes on its pool workers).
    pub fn buffer_encoded(&mut self, slot: usize, line: String) -> std::io::Result<()> {
        let cell = self.slots.get_mut(slot).ok_or_else(|| {
            std::io::Error::other(format!(
                "shard slot {slot} out of range (shard size {}) — internal scheduling bug",
                self.shard_size
            ))
        })?;
        if cell.is_some() {
            return Err(std::io::Error::other(format!(
                "shard slot {slot} evaluated twice — internal scheduling bug"
            )));
        }
        *cell = Some(line);
        self.buffered += 1;
        note_buffered();
        Ok(())
    }

    /// Atomically publishes the buffered records as shard `index`
    /// (`records` of them — the last shard of a grid is short) and clears
    /// the buffer. The `sweep.write_shard` fault point sits between the
    /// temp-file write and the rename, exactly like the per-point path's
    /// `sweep.write_point`. Returns the shard's byte length for the
    /// journal.
    pub fn write_shard(&mut self, index: usize, records: usize) -> std::io::Result<u64> {
        let mut text = String::new();
        for (slot, cell) in self.slots.iter().take(records).enumerate() {
            let line = cell.as_ref().ok_or_else(|| {
                std::io::Error::other(format!(
                    "shard {index} slot {slot} never evaluated — internal scheduling bug"
                ))
            })?;
            text.push_str(line);
            text.push('\n');
        }
        let path = self.shard_path(index);
        let tmp = self
            .dir
            .join(format!("{}.tmp", shard_file_name(&self.name, index)));
        // lint: allow(atomic-results-io): this is the temp-file half of the rename pattern
        std::fs::write(&tmp, &text)?;
        faultpoint::hit(faultpoint::points::SWEEP_WRITE_SHARD)?;
        std::fs::rename(&tmp, &path)?;
        self.clear();
        Ok(text.len() as u64)
    }

    /// Drops any buffered records (also runs on `Drop`, so an errored
    /// sweep does not leave the telemetry counting ghosts).
    fn clear(&mut self) {
        for cell in &mut self.slots {
            *cell = None;
        }
        note_flushed(self.buffered);
        self.buffered = 0;
    }

    /// Reads shard `index` back and accepts it only if everything checks
    /// out: on-disk byte length equals the journaled `expected_bytes`,
    /// exactly one line per expected record, every line parses, carries
    /// the grid's expected id, and re-serialises compactly to exactly
    /// itself. Any failure returns `None` and the caller re-evaluates the
    /// whole shard — the sharded analogue of the per-point path's
    /// round-trip verification.
    pub fn read_verified_shard(
        &self,
        index: usize,
        expected_ids: &[String],
        expected_bytes: u64,
    ) -> Option<Vec<ExperimentResult>> {
        let text = std::fs::read_to_string(self.shard_path(index)).ok()?;
        if text.len() as u64 != expected_bytes || !text.ends_with('\n') {
            return None;
        }
        let lines: Vec<&str> = text.lines().collect();
        if lines.len() != expected_ids.len() {
            return None;
        }
        let mut records = Vec::with_capacity(lines.len());
        for (line, expected_id) in lines.iter().zip(expected_ids) {
            let result: ExperimentResult = serde_json::from_str(line).ok()?;
            if result.id != *expected_id || serde_json::to_string(&result).ok()? != *line {
                return None;
            }
            records.push(result);
        }
        Some(records)
    }
}

impl Drop for ShardedStore {
    fn drop(&mut self) {
        self.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mlscale_workloads::Series;

    fn temp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("mlscale-store-{tag}-{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn point(id: &str) -> ExperimentResult {
        ExperimentResult::new(id.to_string(), format!("store test {id}"))
            .with_stat("optimal n", 4.0, None)
            .with_series(Series::new("time s", vec![(1usize, 2.0), (2, 1.25)]))
    }

    #[test]
    fn shard_names_match_and_sort() {
        assert_eq!(shard_file_name("big", 0), "big-shard-0000.ndjson");
        assert_eq!(shard_file_name("big", 12), "big-shard-0012.ndjson");
        assert!(is_shard_file("big-shard-0000.ndjson", "big"));
        assert!(is_shard_file("big-shard-0012.ndjson.tmp", "big"));
        assert!(!is_shard_file("big-shard-.ndjson", "big"));
        assert!(!is_shard_file("big-p000.json", "big"));
        assert!(!is_shard_file("other-shard-0000.ndjson", "big"));
        assert_eq!(shard_count(10, 4), 3);
        assert_eq!(shard_count(8, 4), 2);
        assert_eq!(shard_count(1, 0), 1, "shard size clamps to 1");
    }

    #[test]
    fn write_then_read_verifies_and_roundtrips() {
        let _telemetry = telemetry_lock();
        let dir = temp_dir("roundtrip");
        let mut store = ShardedStore::new(&dir, "rt", 3);
        let ids: Vec<String> = (0..3).map(|i| format!("rt-p00{i}")).collect();
        // Out-of-order arrival: slots pin records back to grid order.
        for slot in [2usize, 0, 1] {
            store.buffer(slot, &point(&ids[slot])).unwrap();
        }
        let bytes = store.write_shard(0, 3).unwrap();
        assert!(!store.shard_path(0).with_extension("ndjson.tmp").exists());
        let back = store.read_verified_shard(0, &ids, bytes).expect("verifies");
        assert_eq!(back.len(), 3);
        assert_eq!(back[0], point("rt-p000"));
        assert_eq!(back[2], point("rt-p002"));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn verification_rejects_tampering_and_mismatches() {
        let _telemetry = telemetry_lock();
        let dir = temp_dir("verify");
        let mut store = ShardedStore::new(&dir, "v", 2);
        let ids: Vec<String> = vec!["v-p000".into(), "v-p001".into()];
        store.buffer(0, &point(&ids[0])).unwrap();
        store.buffer(1, &point(&ids[1])).unwrap();
        let bytes = store.write_shard(0, 2).unwrap();

        assert!(
            store.read_verified_shard(0, &ids, bytes + 1).is_none(),
            "wrong byte length"
        );
        let wrong_ids = vec!["v-p000".to_string(), "v-p999".to_string()];
        assert!(
            store.read_verified_shard(0, &wrong_ids, bytes).is_none(),
            "wrong id"
        );
        assert!(
            store.read_verified_shard(0, &ids[..1], bytes).is_none(),
            "wrong record count"
        );

        let text = std::fs::read_to_string(store.shard_path(0)).unwrap();
        // Same byte length, different spacing: must fail the compact
        // re-serialisation check.
        let tampered = text
            .replacen("\"id\":", "\"id\" :", 1)
            .replacen("  ", " ", 0);
        if tampered.len() == text.len() {
            std::fs::write(store.shard_path(0), &tampered).unwrap();
            assert!(
                store.read_verified_shard(0, &ids, bytes).is_none(),
                "tampered spacing"
            );
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn write_shard_faultpoint_leaves_only_a_temp_file() {
        let _telemetry = telemetry_lock();
        let dir = temp_dir("fault");
        let result = mlscale_core::faultpoint::scoped("sweep.write_shard:1=err", || {
            let mut store = ShardedStore::new(&dir, "f", 1);
            store.buffer(0, &point("f-p000")).unwrap();
            store.write_shard(0, 1)
        })
        .expect("valid fault spec");
        let err = result.expect_err("fault must surface");
        assert!(err.to_string().contains("sweep.write_shard"), "{err}");
        assert!(
            dir.join("f-shard-0000.ndjson.tmp").exists(),
            "temp left behind"
        );
        assert!(
            !dir.join("f-shard-0000.ndjson").exists(),
            "shard never torn"
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn telemetry_tracks_peak_buffered_records() {
        let _telemetry = telemetry_lock();
        let dir = temp_dir("telemetry");
        reset_buffer_telemetry();
        let mut store = ShardedStore::new(&dir, "t", 4);
        for slot in 0..4 {
            store.buffer(slot, &point(&format!("t-p00{slot}"))).unwrap();
        }
        assert_eq!(peak_buffered_records(), 4);
        store.write_shard(0, 4).unwrap();
        for slot in 0..2 {
            store
                .buffer(slot, &point(&format!("t-p00{}", 4 + slot)))
                .unwrap();
        }
        store.write_shard(1, 2).unwrap();
        assert_eq!(
            peak_buffered_records(),
            4,
            "never more than one shard buffered"
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn stale_shard_cleanup_respects_the_fresh_set() {
        let dir = temp_dir("clean");
        for index in 0..3 {
            std::fs::write(dir.join(shard_file_name("c", index)), b"{}\n").unwrap();
        }
        std::fs::write(dir.join("c-shard-0009.ndjson.tmp"), b"{").unwrap();
        std::fs::write(dir.join("other-shard-0000.ndjson"), b"{}\n").unwrap();
        let fresh: std::collections::HashSet<String> =
            [shard_file_name("c", 0), shard_file_name("c", 1)]
                .into_iter()
                .collect();
        clean_stale_shards(&dir, "c", &fresh).unwrap();
        let mut names: Vec<String> = std::fs::read_dir(&dir)
            .unwrap()
            .map(|e| e.unwrap().file_name().into_string().unwrap())
            .collect();
        names.sort();
        assert_eq!(
            names,
            vec![
                "c-shard-0000.ndjson",
                "c-shard-0001.ndjson",
                "other-shard-0000.ndjson"
            ]
        );
        std::fs::remove_dir_all(&dir).ok();
    }
}
