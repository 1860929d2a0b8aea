//! Crash-safe sweeps: journal every completed grid point, resume later.
//!
//! [`run_checkpointed`] is the durable sibling of
//! [`run_pooled`](crate::run_pooled): instead of evaluating the whole
//! grid in memory and writing files at the end, it writes each point's
//! `<id>.json` atomically (temp file + rename) *as soon as it is
//! evaluated* and records the completion in an append-only journal,
//! `<dir>/<name>.manifest`:
//!
//! ```text
//! mlscale sweep journal v1
//! spec 9f3a6c21d4b07e58
//! point latency-grid-p000
//! point latency-grid-p001
//! …
//! ```
//!
//! The `spec` line is an FNV-1a fingerprint of the fully-parsed scenario,
//! so a resume against an edited spec is refused with a named
//! diagnostic instead of silently mixing results from two different
//! grids. On `resume = true` every journaled point whose file still
//! round-trips byte-identically is reused; everything else (missing
//! files, torn manifest tail lines, files that no longer re-serialise to
//! their own bytes) is re-evaluated. Because evaluation is deterministic
//! and the shared order-statistic caches only memoise pure quadratures,
//! a resumed sweep's points and roll-up are **byte-identical** to an
//! uninterrupted run — property-tested in this module and crash-tested
//! for real (the process killed at an injected fault point) in
//! `tests/crash_resume.rs`.
//!
//! Two [`mlscale_core::faultpoint`] hooks thread through the write path:
//! `sweep.write_point` between a point's temp-file write and its rename
//! (a kill there leaves only a `.tmp`, never a torn JSON) and
//! `sweep.after_point` after a completion is journaled.

use crate::run::{
    build_rollup, build_rollup_from, clean_stale_points, collect_complete, eval_pending,
    expected_point_ids, summarize_point, PointSummary, SweepOutcome,
};
use crate::spec::{point_id_width, GridPoint, ScenarioSpec, SpecError, WorkloadSpec};
use crate::store::{self, ShardedStore};
use mlscale_core::faultpoint;
use mlscale_core::straggler::OrderStatCachePool;
use mlscale_workloads::ExperimentResult;
use std::collections::{HashMap, HashSet};
use std::io::Write as _;
use std::path::{Path, PathBuf};

/// First line of every journal this version reads or writes.
const MANIFEST_VERSION: &str = "mlscale sweep journal v1";

/// What a checkpointed sweep produced.
#[derive(Debug, Clone, PartialEq)]
pub struct CheckpointedSweep {
    /// The full outcome, exactly as an uninterrupted run reports it.
    pub outcome: SweepOutcome,
    /// Written (or reused) result paths in grid order, roll-up last.
    pub paths: Vec<PathBuf>,
    /// How many points were restored from the journal instead of
    /// evaluated (0 on a fresh run).
    pub resumed: usize,
}

/// Runs a sweep with per-point checkpointing into `dir` (a fresh
/// order-statistic cache pool; see [`run_checkpointed_pooled`]).
pub fn run_checkpointed(
    spec: &ScenarioSpec,
    dir: &Path,
    resume: bool,
) -> Result<CheckpointedSweep, SpecError> {
    run_checkpointed_pooled(spec, &OrderStatCachePool::new(), dir, resume)
}

/// [`run_checkpointed`] with a caller-owned cache pool.
///
/// With `resume = false` any previous journal for this scenario is
/// discarded and every point evaluated. With `resume = true` the journal
/// in `dir` is required (a missing one is a named error, not a silent
/// fresh start) and verified-complete points are skipped.
pub fn run_checkpointed_pooled(
    spec: &ScenarioSpec,
    pool: &OrderStatCachePool,
    dir: &Path,
    resume: bool,
) -> Result<CheckpointedSweep, SpecError> {
    let grid = spec.expand()?;
    let ids = expected_point_ids(spec, &grid);
    let fingerprint = spec_fingerprint(spec);
    let manifest = manifest_path(dir, &spec.name);
    std::fs::create_dir_all(dir).map_err(|e| io_spec_error(dir, "cannot create", &e))?;

    let mut results: Vec<Option<ExperimentResult>> = if resume {
        restore(dir, &manifest, fingerprint, &ids)?
    } else {
        vec![None; ids.len()]
    };
    let resumed = results.iter().filter(|r| r.is_some()).count();

    // (Re)write the manifest: header plus one line per verified-complete
    // point. On a fresh run this truncates any stale journal; on resume
    // it compacts duplicates and drops any torn tail line.
    let restored_ids: Vec<&str> = ids
        .iter()
        .zip(&results)
        .filter_map(|(id, r)| r.is_some().then_some(id.as_str()))
        .collect();
    write_manifest(&manifest, fingerprint, &restored_ids)
        .map_err(|e| io_spec_error(&manifest, "cannot write", &e))?;

    let pending: Vec<usize> = results
        .iter()
        .enumerate()
        .filter_map(|(i, r)| r.is_none().then_some(i))
        .collect();
    // Workers render each point's file text; the driver writes and
    // journals in the engine's deterministic order, so fault points fire
    // at the same point whatever the thread count.
    eval_pending(
        spec,
        &grid,
        pool,
        &pending,
        |_, result| {
            let json = render_pretty(&result)?;
            Ok((result, json))
        },
        &mut |i, (result, json): (ExperimentResult, String)| {
            write_point(dir, &result.id, &json)
                .map_err(|e| io_spec_error(dir, "cannot write point", &e))?;
            append_point(&manifest, &result.id)
                .map_err(|e| io_spec_error(&manifest, "cannot append", &e))?;
            faultpoint::hit(faultpoint::points::SWEEP_AFTER_POINT)
                .map_err(|f| SpecError::new("sweep", f.to_string()))?;
            results[i] = Some(result);
            Ok(())
        },
    )?;

    let points = collect_complete(results)?;
    let rollup = build_rollup(spec, &grid, &points);
    write_point(dir, &rollup.id, &render_pretty(&rollup)?)
        .map_err(|e| io_spec_error(dir, "cannot write roll-up", &e))?;

    // The directory now reflects exactly this grid: stale points from a
    // previous larger run, orphaned temp files (including any a crash
    // at sweep.write_point left behind) and shards from a previous
    // sharded run of this scenario are removed.
    let fresh: HashSet<String> = ids.iter().map(|id| format!("{id}.json")).collect();
    clean_stale_points(dir, &spec.name, &fresh)
        .map_err(|e| io_spec_error(dir, "cannot clean stale points in", &e))?;
    store::clean_stale_shards(dir, &spec.name, &HashSet::new())
        .map_err(|e| io_spec_error(dir, "cannot clean stale shards in", &e))?;

    let mut paths: Vec<PathBuf> = ids
        .iter()
        .map(|id| dir.join(format!("{id}.json")))
        .collect();
    paths.push(dir.join(format!("{}.json", rollup.id)));
    Ok(CheckpointedSweep {
        outcome: SweepOutcome {
            name: spec.name.clone(),
            grid,
            points,
            rollup,
        },
        paths,
        resumed,
    })
}

/// What a sharded, checkpointed sweep produced. Unlike
/// [`CheckpointedSweep`] there is no full [`SweepOutcome`]: the whole
/// point of the sharded store is that 10⁶ results never sit in memory at
/// once — per-point data lives in the shard files, and only the roll-up
/// (built from streaming [`PointSummary`] extracts, byte-identical to
/// the per-point path's) is returned.
#[derive(Debug, Clone, PartialEq)]
pub struct ShardedSweep {
    /// The scenario name (results-file prefix).
    pub name: String,
    /// Expanded grid size.
    pub grid_points: usize,
    /// How many shard files the grid spans.
    pub shards: usize,
    /// The roll-up report over all points.
    pub rollup: ExperimentResult,
    /// Shard paths in index order, roll-up path last.
    pub paths: Vec<PathBuf>,
    /// How many points were restored from verified shards instead of
    /// evaluated (0 on a fresh run).
    pub resumed: usize,
}

/// Runs a sweep through the sharded store with per-shard checkpointing
/// into `dir` (fresh cache pool; see [`run_sharded_pooled`]).
pub fn run_sharded(
    spec: &ScenarioSpec,
    dir: &Path,
    resume: bool,
    shard_size: usize,
) -> Result<ShardedSweep, SpecError> {
    run_sharded_pooled(spec, &OrderStatCachePool::new(), dir, resume, shard_size)
}

/// The streaming sibling of [`run_checkpointed_pooled`] for grids past
/// the per-point-file threshold: grid points are generated lazily
/// (never materialising the cross product), evaluated one shard-sized
/// chunk at a time, and published as atomic NDJSON shards
/// (`crate::store`). The journal records one `shard <k> <records>
/// <bytes>` line per published shard; on `resume = true` every journaled
/// shard that verifies byte-exactly is reused whole and everything else
/// is re-evaluated, so a resumed sweep's shards and roll-up are
/// byte-identical to an uninterrupted run — the same promise the
/// per-point path makes, at shard granularity.
pub fn run_sharded_pooled(
    spec: &ScenarioSpec,
    pool: &OrderStatCachePool,
    dir: &Path,
    resume: bool,
    shard_size: usize,
) -> Result<ShardedSweep, SpecError> {
    if matches!(spec.workload, WorkloadSpec::Exhibit(_)) {
        return Err(SpecError::new(
            "workload",
            "exhibit scenarios are single-point — the sharded store only serves gd/bp grids",
        ));
    }
    let shard_size = shard_size.max(1);
    let total = spec.grid_len()?;
    let width = point_id_width(total);
    let shards = store::shard_count(total, shard_size);
    let fingerprint = spec_fingerprint(spec);
    let manifest = manifest_path(dir, &spec.name);
    std::fs::create_dir_all(dir).map_err(|e| io_spec_error(dir, "cannot create", &e))?;
    let mut sharded = ShardedStore::new(dir, &spec.name, shard_size);

    // Which journaled shards survive strict verification: byte length
    // matches the journal, every record re-serialises to itself under
    // the grid's expected id. Restored points are summarised one shard
    // at a time — memory stays bounded by one shard throughout.
    let chunk_points = |k: usize| -> Vec<GridPoint> {
        let lo = k * shard_size;
        let hi = (lo + shard_size).min(total);
        (lo..hi).map(|slot| spec.point_at(slot, width)).collect()
    };
    let mut summaries: Vec<Option<PointSummary>> = vec![None; total];
    let mut verified: Vec<Option<(usize, u64)>> = vec![None; shards];
    let mut resumed = 0;
    if resume {
        let journaled = restore_shards(&manifest, fingerprint, shard_size, shards)?;
        for (k, meta) in journaled.into_iter().enumerate() {
            let Some((records, bytes)) = meta else {
                continue;
            };
            let points = chunk_points(k);
            if records != points.len() {
                continue; // journal disagrees with the grid: re-evaluate
            }
            let ids: Vec<String> = points.iter().map(|p| p.id.clone()).collect();
            if let Some(results) = sharded.read_verified_shard(k, &ids, bytes) {
                for (offset, (point, result)) in points.iter().zip(&results).enumerate() {
                    summaries[k * shard_size + offset] = Some(summarize_point(spec, point, result));
                }
                verified[k] = Some((records, bytes));
                resumed += records;
            }
        }
    }

    // (Re)write the manifest: header, the pinned shard size, one line per
    // verified shard. On a fresh run this truncates any stale journal.
    write_shard_manifest(&manifest, fingerprint, shard_size, &verified)
        .map_err(|e| io_spec_error(&manifest, "cannot write", &e))?;

    // Evaluate the incomplete shards chunk by chunk: each chunk resolves
    // its own points, buffers at most one shard of encoded records, and
    // publishes atomically before the next chunk starts. Evaluation is
    // deterministic and the shared caches memoise pure quadratures, so
    // chunked results are bit-identical to a whole-grid pass.
    for k in 0..shards {
        if verified[k].is_some() {
            continue;
        }
        let points = chunk_points(k);
        let pending: Vec<usize> = (0..points.len()).collect();
        let mut chunk_summaries: Vec<Option<PointSummary>> = vec![None; points.len()];
        // Workers encode each record and distil its summary; the result
        // itself is dropped on the worker, so only encoded records wait
        // for the driver to place them.
        eval_pending(
            spec,
            &points,
            pool,
            &pending,
            |i, result| {
                let line = serde_json::to_string(&result).map_err(|e| {
                    SpecError::new("sweep", format!("cannot encode {}: {e}", result.id))
                })?;
                Ok((line, summarize_point(spec, &points[i], &result)))
            },
            &mut |i, (line, summary): (String, PointSummary)| {
                sharded
                    .buffer_encoded(i, line)
                    .map_err(|e| io_spec_error(dir, "cannot buffer point for", &e))?;
                // Summaries live until the roll-up: the driver keeps its
                // own copy, so they do not pin pages of the workers'
                // heaps, which then hold only one chunk's transient
                // records (without it the sweep's peak RSS grows).
                chunk_summaries[i] = Some(summary.clone());
                Ok(())
            },
        )?;
        let bytes = sharded
            .write_shard(k, points.len())
            .map_err(|e| io_spec_error(dir, "cannot write shard in", &e))?;
        append_shard(&manifest, k, points.len(), bytes)
            .map_err(|e| io_spec_error(&manifest, "cannot append", &e))?;
        faultpoint::hit(faultpoint::points::SWEEP_AFTER_SHARD)
            .map_err(|f| SpecError::new("sweep", f.to_string()))?;
        for (offset, summary) in chunk_summaries.into_iter().enumerate() {
            summaries[k * shard_size + offset] = summary;
        }
    }

    let summaries = collect_complete(summaries)?;
    let rollup = build_rollup_from(spec, &summaries);
    write_point(dir, &rollup.id, &render_pretty(&rollup)?)
        .map_err(|e| io_spec_error(dir, "cannot write roll-up", &e))?;

    // Sharded layout is authoritative: per-point files of this scenario
    // (from a previous per-point run), shards beyond the current count
    // and orphaned temp files are all stale.
    clean_stale_points(dir, &spec.name, &HashSet::new())
        .map_err(|e| io_spec_error(dir, "cannot clean stale points in", &e))?;
    let fresh: HashSet<String> = (0..shards)
        .map(|k| store::shard_file_name(&spec.name, k))
        .collect();
    store::clean_stale_shards(dir, &spec.name, &fresh)
        .map_err(|e| io_spec_error(dir, "cannot clean stale shards in", &e))?;

    let mut paths: Vec<PathBuf> = (0..shards).map(|k| sharded.shard_path(k)).collect();
    paths.push(dir.join(format!("{}.json", rollup.id)));
    Ok(ShardedSweep {
        name: spec.name.clone(),
        grid_points: total,
        shards,
        rollup,
        paths,
        resumed,
    })
}

/// `<dir>/<name>.manifest` — never matches the `<name>-pNNN.json` point
/// pattern, so stale-point cleanup leaves the journal alone.
fn manifest_path(dir: &Path, name: &str) -> PathBuf {
    dir.join(format!("{name}.manifest"))
}

/// FNV-1a 64 over the spec's `Debug` rendering. The derived `Debug` of a
/// fully-parsed spec is a pure function of its fields (plain structs,
/// `Vec`s and scalars — no addresses, no hash-ordered maps), so the
/// fingerprint is stable across processes and runs; any semantic edit to
/// the scenario changes it.
fn spec_fingerprint(spec: &ScenarioSpec) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for byte in format!("{spec:?}").bytes() {
        hash ^= u64::from(byte);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

fn io_spec_error(path: &Path, what: &str, e: &std::io::Error) -> SpecError {
    SpecError::new("sweep", format!("{what} {}: {e}", path.display()))
}

/// A result's `<id>.json` text.
fn render_pretty(result: &ExperimentResult) -> Result<String, SpecError> {
    serde_json::to_string_pretty(result)
        .map_err(|e| SpecError::new("sweep", format!("cannot render {}: {e}", result.id)))
}

/// Atomically writes one rendered result as `<id>.json` (temp file +
/// rename), with the `sweep.write_point` fault point between the two
/// steps — a crash there leaves only the `.tmp`, never a torn JSON.
fn write_point(dir: &Path, id: &str, json: &str) -> std::io::Result<PathBuf> {
    let path = dir.join(format!("{id}.json"));
    let tmp = dir.join(format!("{id}.json.tmp"));
    // lint: allow(atomic-results-io): this is the temp-file half of the rename pattern
    std::fs::write(&tmp, json)?;
    faultpoint::hit(faultpoint::points::SWEEP_WRITE_POINT)?;
    std::fs::rename(&tmp, &path)?;
    Ok(path)
}

/// Atomically rewrites the whole manifest (header + completed lines).
fn write_manifest(path: &Path, fingerprint: u64, completed: &[&str]) -> std::io::Result<()> {
    let mut text = format!("{MANIFEST_VERSION}\nspec {fingerprint:016x}\n");
    for id in completed {
        text.push_str("point ");
        text.push_str(id);
        text.push('\n');
    }
    let tmp = path.with_extension("manifest.tmp");
    // lint: allow(atomic-results-io): this is the temp-file half of the rename pattern
    std::fs::write(&tmp, text)?;
    std::fs::rename(&tmp, path)
}

/// Appends one completion line to the journal. This is the one
/// deliberately non-atomic write in the sweep path: a crash mid-append
/// can tear the *last line only*, and [`restore`] discards a torn tail
/// (the point is simply re-evaluated), so durability is never worse than
/// losing the most recent completion record.
fn append_point(path: &Path, id: &str) -> std::io::Result<()> {
    // lint: allow(atomic-results-io): append-only journal — a torn tail line is detected and re-evaluated on resume; the results JSON itself goes through temp+rename
    let mut file = std::fs::OpenOptions::new().append(true).open(path)?;
    file.write_all(format!("point {id}\n").as_bytes())?;
    file.flush()
}

/// Reads the journal, checks its version line and spec fingerprint, and
/// returns the body lines with any torn tail (crash mid-append) already
/// dropped — shared by the per-point and sharded restore paths.
fn manifest_body(manifest: &Path, fingerprint: u64) -> Result<Vec<String>, SpecError> {
    let text = match std::fs::read_to_string(manifest) {
        Ok(text) => text,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => {
            return Err(SpecError::new(
                "--resume",
                format!(
                    "no sweep journal at {} — run `mlscale sweep` without --resume first",
                    manifest.display()
                ),
            ))
        }
        Err(e) => return Err(io_spec_error(manifest, "cannot read", &e)),
    };
    let mut lines = text.lines();
    if lines.next() != Some(MANIFEST_VERSION) {
        return Err(SpecError::new(
            "--resume",
            format!(
                "{} is not a sweep journal this version understands (expected {MANIFEST_VERSION:?} on line 1)",
                manifest.display()
            ),
        ));
    }
    let journaled = lines
        .next()
        .and_then(|l| l.strip_prefix("spec "))
        .and_then(|hex| u64::from_str_radix(hex.trim(), 16).ok())
        .ok_or_else(|| {
            SpecError::new(
                "--resume",
                format!(
                    "{} is missing its spec fingerprint line — journal corrupt, rerun without --resume",
                    manifest.display()
                ),
            )
        })?;
    if journaled != fingerprint {
        return Err(SpecError::new(
            "--resume",
            format!(
                "the scenario changed since this journal was written (spec fingerprint \
                 {fingerprint:016x}, journal has {journaled:016x}) — a resumed sweep would mix \
                 results from two different grids; rerun without --resume to start over"
            ),
        ));
    }
    let mut body: Vec<String> = text.lines().skip(2).map(str::to_string).collect();
    if !text.ends_with('\n') {
        body.pop(); // torn tail line from a crash mid-append: re-evaluate
    }
    Ok(body)
}

/// Loads the journal and returns, per point slot, the restored result if
/// its completion line and on-disk file both check out.
fn restore(
    dir: &Path,
    manifest: &Path,
    fingerprint: u64,
    ids: &[String],
) -> Result<Vec<Option<ExperimentResult>>, SpecError> {
    let index_of: HashMap<&str, usize> = ids
        .iter()
        .enumerate()
        .map(|(i, id)| (id.as_str(), i))
        .collect();
    let mut restored: Vec<Option<ExperimentResult>> = vec![None; ids.len()];
    for line in manifest_body(manifest, fingerprint)? {
        let Some(id) = line.strip_prefix("point ") else {
            continue; // unknown journal line: ignore, never trust it
        };
        let Some(&i) = index_of.get(id) else {
            continue; // not a point of this grid (corruption): re-evaluate
        };
        restored[i] = verified_point(dir, id);
    }
    Ok(restored)
}

/// Loads a sharded journal and returns, per shard index, the journaled
/// `(records, bytes)` of every completed shard. The journal must have
/// been written by the sharded path at the same shard size — the grid
/// slots a shard covers depend on it, so resuming across a shard-size
/// change (or from a per-point journal) is refused with instructions
/// rather than silently mixing layouts.
fn restore_shards(
    manifest: &Path,
    fingerprint: u64,
    shard_size: usize,
    shards: usize,
) -> Result<Vec<Option<(usize, u64)>>, SpecError> {
    let body = manifest_body(manifest, fingerprint)?;
    let journaled_size = body
        .iter()
        .find_map(|line| line.strip_prefix("shard-size "))
        .and_then(|s| s.trim().parse::<usize>().ok());
    match journaled_size {
        None => {
            return Err(SpecError::new(
                "--resume",
                format!(
                    "{} is a per-point sweep journal, but this grid streams through the sharded \
                     store — rerun without --resume to start a sharded sweep",
                    manifest.display()
                ),
            ))
        }
        Some(journaled) if journaled != shard_size => {
            return Err(SpecError::new(
                "--resume",
                format!(
                    "this journal was written with {journaled} records per shard, but the \
                     current run uses {shard_size} — shard boundaries would not line up; rerun \
                     without --resume or pass --per-point-max {journaled}"
                ),
            ))
        }
        Some(_) => {}
    }
    let mut restored: Vec<Option<(usize, u64)>> = vec![None; shards];
    for line in body {
        let Some(rest) = line.strip_prefix("shard ") else {
            continue; // unknown journal line: ignore, never trust it
        };
        let mut fields = rest.split_ascii_whitespace();
        let (Some(k), Some(records), Some(bytes), None) = (
            fields.next().and_then(|f| f.parse::<usize>().ok()),
            fields.next().and_then(|f| f.parse::<usize>().ok()),
            fields.next().and_then(|f| f.parse::<u64>().ok()),
            fields.next(),
        ) else {
            continue; // malformed line (corruption): re-evaluate that shard
        };
        if k < shards {
            restored[k] = Some((records, bytes));
        }
    }
    Ok(restored)
}

/// Atomically rewrites a sharded journal (header, shard size, one line
/// per verified shard).
fn write_shard_manifest(
    path: &Path,
    fingerprint: u64,
    shard_size: usize,
    verified: &[Option<(usize, u64)>],
) -> std::io::Result<()> {
    let mut text =
        format!("{MANIFEST_VERSION}\nspec {fingerprint:016x}\nshard-size {shard_size}\n");
    for (k, meta) in verified.iter().enumerate() {
        if let Some((records, bytes)) = meta {
            text.push_str(&format!("shard {k} {records} {bytes}\n"));
        }
    }
    let tmp = path.with_extension("manifest.tmp");
    // lint: allow(atomic-results-io): this is the temp-file half of the rename pattern
    std::fs::write(&tmp, text)?;
    std::fs::rename(&tmp, path)
}

/// Appends one shard-completion line to the journal — same torn-tail
/// contract as [`append_point`]: a crash mid-append loses at most this
/// one record, and the shard is simply re-evaluated on resume.
fn append_shard(path: &Path, k: usize, records: usize, bytes: u64) -> std::io::Result<()> {
    // lint: allow(atomic-results-io): append-only journal — a torn tail line is detected and re-evaluated on resume; the shard itself goes through temp+rename
    let mut file = std::fs::OpenOptions::new().append(true).open(path)?;
    file.write_all(format!("shard {k} {records} {bytes}\n").as_bytes())?;
    file.flush()
}

/// Reads `<id>.json` back and accepts it only if it re-serialises to
/// exactly its own bytes — the guarantee that lets a resumed sweep
/// promise byte-identical output without re-evaluating the point.
fn verified_point(dir: &Path, id: &str) -> Option<ExperimentResult> {
    let json = std::fs::read_to_string(dir.join(format!("{id}.json"))).ok()?;
    let result: ExperimentResult = serde_json::from_str(&json).ok()?;
    if result.id != id {
        return None;
    }
    let rendered = serde_json::to_string_pretty(&result).ok()?;
    (rendered == json).then_some(result)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::run::{run, write_outcome};

    fn spec(json: &str) -> ScenarioSpec {
        ScenarioSpec::from_json(json).expect("spec parses")
    }

    fn temp_dir(tag: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("mlscale-checkpoint-{tag}-{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        dir
    }

    const GRID: &str = r#"{"name": "ckpt",
        "workload": {"kind": "gd", "preset": "fig2", "max_n": 6,
                     "straggler": {"kind": "exp", "mean": 2.0}},
        "sweep": [{"param": "backup_k", "values": [0, 1]},
                  {"param": "comm", "values": ["tree", "ring", "spark"]}]}"#;

    #[test]
    fn fresh_checkpointed_run_matches_run_and_write_outcome_bytes() {
        let spec = spec(GRID);
        let plain = run(&spec).unwrap();
        let plain_dir = temp_dir("plain");
        let plain_paths = write_outcome(&plain, &plain_dir).unwrap();

        let ckpt_dir = temp_dir("fresh");
        let swept = run_checkpointed(&spec, &ckpt_dir, false).unwrap();
        assert_eq!(swept.resumed, 0);
        assert_eq!(swept.outcome, plain);
        assert_eq!(swept.paths.len(), plain_paths.len());
        for (ours, theirs) in swept.paths.iter().zip(&plain_paths) {
            assert_eq!(
                std::fs::read(ours).unwrap(),
                std::fs::read(theirs).unwrap(),
                "{} must be byte-identical to the write_outcome file",
                ours.display()
            );
        }
        let manifest = std::fs::read_to_string(manifest_path(&ckpt_dir, "ckpt")).unwrap();
        assert!(manifest.starts_with(MANIFEST_VERSION));
        assert_eq!(manifest.matches("point ").count(), 6);
        std::fs::remove_dir_all(&plain_dir).ok();
        std::fs::remove_dir_all(&ckpt_dir).ok();
    }

    #[test]
    fn resume_after_err_fault_at_every_point_is_byte_identical() {
        // Property over crash sites: inject an `err` fault at the k-th
        // write for every k, then resume; points and roll-up must be
        // byte-identical to an uninterrupted run, and the interrupted
        // directory must never contain a torn JSON.
        let spec = spec(GRID);
        let clean_dir = temp_dir("clean");
        let clean = run_checkpointed(&spec, &clean_dir, false).unwrap();

        for k in 1..=6 {
            let dir = temp_dir(&format!("crash-{k}"));
            let interrupted = faultpoint::scoped(&format!("sweep.write_point:{k}=err"), || {
                run_checkpointed(&spec, &dir, false)
            })
            .expect("valid fault spec");
            let err = interrupted.expect_err("fault must surface");
            assert!(err.message.contains("sweep.write_point"), "{err:?}");

            // Every completed file parses; the faulted point left a .tmp.
            for entry in std::fs::read_dir(&dir).unwrap() {
                let path = entry.unwrap().path();
                if path.extension().is_some_and(|e| e == "json") {
                    let text = std::fs::read_to_string(&path).unwrap();
                    serde_json::from_str::<ExperimentResult>(&text)
                        .unwrap_or_else(|e| panic!("torn JSON at {}: {e:?}", path.display()));
                }
            }

            let resumed = run_checkpointed(&spec, &dir, true).unwrap();
            assert_eq!(resumed.resumed, k - 1, "crash site {k}");
            assert_eq!(resumed.outcome, clean.outcome, "crash site {k}");
            for (ours, theirs) in resumed.paths.iter().zip(&clean.paths) {
                assert_eq!(
                    std::fs::read(ours).unwrap(),
                    std::fs::read(theirs).unwrap(),
                    "crash site {k}: {} differs from the clean run",
                    ours.display()
                );
                assert!(
                    !ours.with_extension("json.tmp").exists(),
                    "crash site {k}: resume must clean the orphaned temp file"
                );
            }
            std::fs::remove_dir_all(&dir).ok();
        }
        std::fs::remove_dir_all(&clean_dir).ok();
    }

    #[test]
    fn resume_refuses_a_changed_spec() {
        let original = spec(GRID);
        let dir = temp_dir("changed");
        let _ = faultpoint::scoped("sweep.after_point:2=err", || {
            run_checkpointed(&original, &dir, false)
        })
        .expect("valid fault spec");

        let edited = spec(&GRID.replace("\"max_n\": 6", "\"max_n\": 7"));
        let err = run_checkpointed(&edited, &dir, true).expect_err("must refuse");
        assert_eq!(err.path, "--resume");
        assert!(err.message.contains("scenario changed"), "{}", err.message);
        assert!(err.message.contains("fingerprint"), "{}", err.message);

        // The unchanged spec still resumes fine.
        let resumed = run_checkpointed(&original, &dir, true).unwrap();
        assert_eq!(resumed.resumed, 2);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn resume_without_a_journal_is_a_named_error() {
        let spec = spec(GRID);
        let dir = temp_dir("nojournal");
        let err = run_checkpointed(&spec, &dir, true).expect_err("must refuse");
        assert_eq!(err.path, "--resume");
        assert!(err.message.contains("no sweep journal"), "{}", err.message);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn torn_manifest_tail_and_tampered_point_are_reevaluated() {
        let spec = spec(GRID);
        let dir = temp_dir("torn");
        let clean = run_checkpointed(&spec, &dir, false).unwrap();

        // Tear the journal's last line (simulates a crash mid-append) and
        // tamper with a completed point file.
        let manifest = manifest_path(&dir, "ckpt");
        let text = std::fs::read_to_string(&manifest).unwrap();
        std::fs::write(&manifest, &text[..text.len() - 3]).unwrap();
        let victim = dir.join("ckpt-p001.json");
        let tampered = std::fs::read_to_string(&victim).unwrap().replace(' ', "  ");
        std::fs::write(&victim, tampered).unwrap();

        let resumed = run_checkpointed(&spec, &dir, true).unwrap();
        assert_eq!(
            resumed.resumed, 4,
            "6 points minus the torn tail and the tampered file"
        );
        assert_eq!(resumed.outcome, clean.outcome);
        // The tampered file was re-evaluated and rewritten: it must
        // round-trip byte-identically again.
        let json = std::fs::read_to_string(&victim).unwrap();
        let back: ExperimentResult = serde_json::from_str(&json).unwrap();
        assert_eq!(serde_json::to_string_pretty(&back).unwrap(), json);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn resume_of_a_finished_sweep_reuses_every_point() {
        let spec = spec(
            r#"{"name": "done", "workload": {"kind": "gd", "preset": "fig2", "max_n": 5},
                "sweep": [{"param": "jitter", "values": [0.0, 0.5]}]}"#,
        );
        let dir = temp_dir("done");
        let first = run_checkpointed(&spec, &dir, false).unwrap();
        let again = run_checkpointed(&spec, &dir, true).unwrap();
        assert_eq!(again.resumed, 2, "both points reused");
        assert_eq!(again.outcome, first.outcome);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn checkpointed_exhibit_reuses_the_binary_id() {
        let spec = spec(r#"{"name": "fig1-ckpt", "workload": {"kind": "exhibit", "id": "fig1"}}"#);
        let dir = temp_dir("exhibit");
        let swept = run_checkpointed(&spec, &dir, false).unwrap();
        assert!(swept.paths[0].ends_with("fig1.json"));
        let again = run_checkpointed(&spec, &dir, true).unwrap();
        assert_eq!(again.resumed, 1);
        assert_eq!(again.outcome, swept.outcome);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn sharded_rollup_is_byte_identical_to_the_per_point_rollup() {
        let _telemetry = store::telemetry_lock();
        let spec = spec(GRID);
        let point_dir = temp_dir("shard-vs-point");
        let per_point = run_checkpointed(&spec, &point_dir, false).unwrap();

        let shard_dir = temp_dir("shard-fresh");
        let sharded = run_sharded(&spec, &shard_dir, false, 4).unwrap();
        assert_eq!(sharded.grid_points, 6);
        assert_eq!(sharded.shards, 2, "6 points at 4 per shard");
        assert_eq!(sharded.resumed, 0);
        assert_eq!(sharded.rollup, per_point.outcome.rollup);
        assert_eq!(
            std::fs::read(sharded.paths.last().unwrap()).unwrap(),
            std::fs::read(per_point.paths.last().unwrap()).unwrap(),
            "roll-up files must be byte-identical across store layouts"
        );
        // The shard records are the per-point results, compactly encoded,
        // in grid order.
        let mut records = Vec::new();
        for path in &sharded.paths[..2] {
            let text = std::fs::read_to_string(path).unwrap();
            for line in text.lines() {
                records.push(serde_json::from_str::<ExperimentResult>(line).unwrap());
            }
        }
        assert_eq!(records, per_point.outcome.points);
        // No per-point files in the sharded layout.
        for id in per_point.outcome.points.iter().map(|p| &p.id) {
            assert!(!shard_dir.join(format!("{id}.json")).exists(), "{id}");
        }
        std::fs::remove_dir_all(&point_dir).ok();
        std::fs::remove_dir_all(&shard_dir).ok();
    }

    #[test]
    fn sharded_resume_after_shard_fault_is_byte_identical() {
        let _telemetry = store::telemetry_lock();
        let spec = spec(GRID);
        let clean_dir = temp_dir("shard-clean");
        let clean = run_sharded(&spec, &clean_dir, false, 2).unwrap();
        assert_eq!(clean.shards, 3);

        for k in 1..=3 {
            let dir = temp_dir(&format!("shard-crash-{k}"));
            let interrupted = faultpoint::scoped(&format!("sweep.write_shard:{k}=err"), || {
                run_sharded(&spec, &dir, false, 2)
            })
            .expect("valid fault spec");
            let err = interrupted.expect_err("fault must surface");
            assert!(err.message.contains("sweep.write_shard"), "{err:?}");
            // The faulted shard left only a temp file, never a torn shard.
            assert!(dir
                .join(format!("ckpt-shard-{:04}.ndjson.tmp", k - 1))
                .exists());
            assert!(!dir.join(format!("ckpt-shard-{:04}.ndjson", k - 1)).exists());

            let resumed = run_sharded(&spec, &dir, true, 2).unwrap();
            assert_eq!(resumed.resumed, (k - 1) * 2, "crash site {k}");
            assert_eq!(resumed.rollup, clean.rollup, "crash site {k}");
            for (ours, theirs) in resumed.paths.iter().zip(&clean.paths) {
                assert_eq!(
                    std::fs::read(ours).unwrap(),
                    std::fs::read(theirs).unwrap(),
                    "crash site {k}: {} differs from the clean run",
                    ours.display()
                );
            }
            assert!(
                !dir.join(format!("ckpt-shard-{:04}.ndjson.tmp", k - 1))
                    .exists(),
                "crash site {k}: resume must clean the orphaned shard temp"
            );
            std::fs::remove_dir_all(&dir).ok();
        }
        std::fs::remove_dir_all(&clean_dir).ok();
    }

    #[test]
    fn sharded_resume_reuses_verified_shards_and_reevaluates_tampered_ones() {
        let _telemetry = store::telemetry_lock();
        let spec = spec(GRID);
        let dir = temp_dir("shard-tamper");
        let clean = run_sharded(&spec, &dir, false, 2).unwrap();

        // Tamper shard 1 without changing its byte length: the record
        // still parses and round-trips, but its id no longer matches the
        // grid slot, so only that shard is re-evaluated.
        let victim = dir.join("ckpt-shard-0001.ndjson");
        let text = std::fs::read_to_string(&victim).unwrap();
        let tampered = text.replacen("ckpt-p002", "ckpt-p202", 1);
        assert_ne!(text, tampered, "record format changed — update the tamper");
        std::fs::write(&victim, &tampered).unwrap();

        let resumed = run_sharded(&spec, &dir, true, 2).unwrap();
        assert_eq!(resumed.resumed, 4, "shards 0 and 2 reused, shard 1 redone");
        assert_eq!(resumed.rollup, clean.rollup);
        assert_eq!(
            std::fs::read_to_string(&victim).unwrap(),
            text,
            "the tampered shard must be rewritten byte-identically"
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn sharded_resume_refuses_layout_changes() {
        let _telemetry = store::telemetry_lock();
        let spec = spec(GRID);
        let dir = temp_dir("shard-size-change");
        run_sharded(&spec, &dir, false, 2).unwrap();
        let err = run_sharded(&spec, &dir, true, 3).expect_err("must refuse");
        assert_eq!(err.path, "--resume");
        assert!(
            err.message.contains("2 records per shard"),
            "{}",
            err.message
        );
        assert!(err.message.contains("--per-point-max 2"), "{}", err.message);
        std::fs::remove_dir_all(&dir).ok();

        // A per-point journal cannot seed a sharded resume either.
        let dir = temp_dir("shard-from-point");
        run_checkpointed(&spec, &dir, false).unwrap();
        let err = run_sharded(&spec, &dir, true, 2).expect_err("must refuse");
        assert_eq!(err.path, "--resume");
        assert!(
            err.message.contains("per-point sweep journal"),
            "{}",
            err.message
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn switching_store_layouts_cleans_the_other_layouts_files() {
        let _telemetry = store::telemetry_lock();
        let spec = spec(GRID);
        let dir = temp_dir("layout-switch");
        let per_point = run_checkpointed(&spec, &dir, false).unwrap();
        assert!(dir.join("ckpt-p000.json").exists());

        let sharded = run_sharded(&spec, &dir, false, 4).unwrap();
        assert!(
            !dir.join("ckpt-p000.json").exists(),
            "per-point files cleaned"
        );
        assert!(dir.join("ckpt-shard-0000.ndjson").exists());

        let back = run_checkpointed(&spec, &dir, false).unwrap();
        assert!(
            !dir.join("ckpt-shard-0000.ndjson").exists(),
            "shards cleaned"
        );
        assert!(dir.join("ckpt-p000.json").exists());
        assert_eq!(back.outcome.rollup, sharded.rollup);
        assert_eq!(back.outcome, per_point.outcome);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn shrunk_grid_fresh_run_clears_stale_points_and_old_journal() {
        // The checkpointed sibling of the write_outcome shrink test: a
        // fresh (non-resume) run over a narrower grid must clear the wide
        // run's extra point files and start a new journal.
        let wide = spec(
            r#"{"name": "shrinkc", "workload": {"kind": "gd", "preset": "fig2", "max_n": 4},
                "sweep": [{"param": "jitter", "values": [0.0, 0.1, 0.2]}]}"#,
        );
        let dir = temp_dir("shrink");
        run_checkpointed(&wide, &dir, false).unwrap();
        std::fs::write(dir.join("shrinkc-p099.json.tmp"), b"{").unwrap();

        let narrow = spec(
            r#"{"name": "shrinkc", "workload": {"kind": "gd", "preset": "fig2", "max_n": 4},
                "sweep": [{"param": "jitter", "values": [0.0]}]}"#,
        );
        let swept = run_checkpointed(&narrow, &dir, false).unwrap();
        assert_eq!(swept.resumed, 0);
        let mut names: Vec<String> = std::fs::read_dir(&dir)
            .unwrap()
            .map(|e| e.unwrap().file_name().into_string().unwrap())
            .collect();
        names.sort();
        assert_eq!(
            names,
            vec![
                "shrinkc-p000.json",
                "shrinkc-rollup.json",
                "shrinkc.manifest",
            ],
            "stale points, orphaned temp and old journal lines must be gone"
        );
        let manifest = std::fs::read_to_string(manifest_path(&dir, "shrinkc")).unwrap();
        assert_eq!(manifest.matches("point ").count(), 1);
        std::fs::remove_dir_all(&dir).ok();
    }
}
