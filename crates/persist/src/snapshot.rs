//! Atomic full-state snapshots.
//!
//! A snapshot is the logical state of one engine at one batch sequence
//! number: schema, the id counter, the dictionaries
//! (including dead codes, so value codes stay stable across a restore),
//! the live records in record-id order, the positive cover (in the
//! human-readable `lattice::io` text format), and the §5.2 violation
//! annotations. Everything else is derived on restore, the way the
//! paper derives it: [`DynamicRelation::from_parts`] rebuilds the arena
//! and the PLIs from the records (§3.1), and
//! [`DynFd::from_saved_state`] inverts the positive cover into the
//! negative one (Algorithm 1, §3.2). The arena's slot layout is not
//! saved: no observable behaviour depends on it, because PLI clusters
//! are kept rid-sorted.
//!
//! File layout: `magic "DYNFDSN4" | payload_len:u64 LE | crc:u32 LE |
//! payload`. Written to `snapshot.tmp`, fsynced, then atomically
//! renamed to `snapshot-{seq:016x}.snap` and the directory fsynced — a
//! crash leaves either the old snapshot set or the new one, never a
//! half-visible file (a stale `snapshot.tmp` is possible and harmless;
//! recovery ignores and removes it).

use crate::codec::{self, Reader};
use crate::crc::crc32;
use dynfd_common::{AttrSet, Fd, RecordId, Schema, MAX_ATTRS};
use dynfd_core::DynFd;
use dynfd_lattice::{io as cover_io, FdTree};
use dynfd_relation::{DynamicRelation, ValueId};
use std::fs::{self, File, OpenOptions};
use std::io::{self, Read, Write};
use std::path::{Path, PathBuf};
use std::process::abort;

/// File magic, first 8 bytes of every snapshot.
pub const SNAP_MAGIC: [u8; 8] = *b"DYNFDSN4";

/// Name of the in-progress snapshot file (atomically renamed when
/// complete; a leftover one marks a crash mid-snapshot).
pub const SNAP_TMP: &str = "snapshot.tmp";

/// Everything a snapshot restores, decoded and validated.
pub struct SnapshotState {
    /// Batch sequence number the snapshot captures (0 = initial state).
    pub seq: u64,
    /// The relation, equal (`==`) to the instance that was saved.
    pub rel: DynamicRelation,
    /// Positive cover (minimal FDs).
    pub fds: FdTree,
    /// §5.2 violation annotations.
    pub annotations: Vec<(Fd, (RecordId, RecordId))>,
}

/// File name of the snapshot at `seq`. Zero-padded hex so
/// lexicographic directory order equals sequence order.
pub fn snapshot_file_name(seq: u64) -> String {
    format!("snapshot-{seq:016x}.snap")
}

fn parse_snapshot_seq(name: &str) -> Option<u64> {
    let hex = name.strip_prefix("snapshot-")?.strip_suffix(".snap")?;
    u64::from_str_radix(hex, 16).ok()
}

/// Serializes the engine's logical state at `seq` (see the module docs)
/// into a snapshot payload.
pub fn encode_snapshot(seq: u64, engine: &DynFd) -> Vec<u8> {
    let rel = engine.relation();
    let schema = rel.schema();
    let mut out = Vec::new();
    codec::put_u64(&mut out, seq);
    // Schema.
    codec::put_str(&mut out, schema.name());
    codec::put_u32(&mut out, schema.arity() as u32);
    for column in schema.columns() {
        codec::put_str(&mut out, column);
    }
    // Surrogate-id counter.
    codec::put_u64(&mut out, rel.next_id().0);
    // Dictionaries, dead codes included: codes are positional.
    for attr in 0..schema.arity() {
        let dict = rel.dictionary(attr);
        codec::put_u64(&mut out, dict.capacity() as u64);
        codec::put_u32(&mut out, dict.len() as u32);
        for value in dict.values() {
            codec::put_str(&mut out, value);
        }
    }
    // Live records in record-id order: rid, then one code per column.
    let mut records: Vec<_> = rel.records().collect();
    records.sort_unstable_by_key(|&(rid, _)| rid);
    codec::put_u32(&mut out, records.len() as u32);
    for (rid, row) in records {
        codec::put_u64(&mut out, rid.0);
        for code in row.iter() {
            codec::put_u32(&mut out, code);
        }
    }
    // The positive cover in the established text format; the negative
    // cover is its inversion and is derived on restore.
    codec::put_str(
        &mut out,
        &cover_io::write_cover(engine.positive_cover(), schema),
    );
    // Violation annotations.
    let annotations = engine.violation_annotations();
    codec::put_u32(&mut out, annotations.len() as u32);
    for (fd, (a, b)) in annotations {
        let lhs: Vec<usize> = fd.lhs.iter().collect();
        codec::put_u32(&mut out, lhs.len() as u32);
        for attr in lhs {
            codec::put_u32(&mut out, attr as u32);
        }
        codec::put_u32(&mut out, fd.rhs as u32);
        codec::put_u64(&mut out, a.0);
        codec::put_u64(&mut out, b.0);
    }
    out
}

/// Parses and validates a snapshot payload. Every structural invariant
/// is checked *before* constructors that would panic on bad input
/// (`Schema::new`, `Fd::new`) are called — corrupt bytes must come back
/// as `Err`, never as a panic.
pub fn decode_snapshot(payload: &[u8]) -> Result<SnapshotState, String> {
    let mut r = Reader::new(payload);
    let seq = r.u64()?;
    // Schema, pre-validated (Schema::new panics on bad input).
    let name = r.str()?;
    let arity = r.u32()? as usize;
    if arity == 0 || arity > MAX_ATTRS {
        return Err(format!("schema arity {arity} out of range 1..={MAX_ATTRS}"));
    }
    let mut columns = Vec::with_capacity(arity);
    for _ in 0..arity {
        columns.push(r.str()?);
    }
    {
        let mut sorted = columns.clone();
        sorted.sort();
        sorted.dedup();
        if sorted.len() != columns.len() {
            return Err("duplicate column names in schema".into());
        }
    }
    let schema = Schema::new(name, columns);
    let next_id = RecordId(r.u64()?);
    let mut dictionaries = Vec::with_capacity(arity);
    for attr in 0..arity {
        let capacity = r.u64()? as usize;
        let len = r.count(4)?;
        let mut values = Vec::with_capacity(len);
        for _ in 0..len {
            values.push(r.str()?);
        }
        {
            let mut sorted = values.clone();
            sorted.sort();
            sorted.dedup();
            if sorted.len() != values.len() {
                return Err(format!("column {attr}: duplicate dictionary values"));
            }
        }
        dictionaries.push(dynfd_relation::Dictionary::from_parts(values, capacity));
    }
    let count = r.count(8 + 4 * arity)?;
    let mut records: Vec<(RecordId, Box<[ValueId]>)> = Vec::with_capacity(count);
    for _ in 0..count {
        let rid = RecordId(r.u64()?);
        let mut codes = Vec::with_capacity(arity);
        for _ in 0..arity {
            codes.push(r.u32()?);
        }
        records.push((rid, codes.into_boxed_slice()));
    }
    // from_parts revalidates codes, rids, and the id counter.
    let rel = DynamicRelation::from_parts(schema, next_id, dictionaries, records)
        .map_err(|e| format!("relation: {e}"))?;
    let fds = cover_io::read_cover(&r.str()?, rel.schema())
        .map_err(|e| format!("positive cover: {e}"))?;
    let annotation_count = r.count(16)?;
    let mut annotations = Vec::with_capacity(annotation_count);
    for i in 0..annotation_count {
        let lhs_len = r.count(4)?;
        let mut lhs = AttrSet::empty();
        for _ in 0..lhs_len {
            let attr = r.u32()? as usize;
            if attr >= rel.arity() {
                return Err(format!("annotation {i}: lhs attribute {attr} out of range"));
            }
            lhs.insert(attr);
        }
        let rhs = r.u32()? as usize;
        if rhs >= rel.arity() || lhs.contains(rhs) {
            return Err(format!("annotation {i}: invalid rhs {rhs}"));
        }
        let a = RecordId(r.u64()?);
        let b = RecordId(r.u64()?);
        annotations.push((Fd::new(lhs, rhs), (a, b)));
    }
    if !r.is_exhausted() {
        return Err(format!("{} undecoded trailing bytes", r.remaining()));
    }
    Ok(SnapshotState {
        seq,
        rel,
        fds,
        annotations,
    })
}

/// Durably writes the snapshot for `seq` into `dir` and retires older
/// snapshot files. Returns the number of `fsync` calls issued.
///
/// `kill_at_byte` is the deterministic crash hook: when set, only that
/// many bytes of `snapshot.tmp` are written (durably) and the process
/// aborts — simulating a power cut mid-snapshot, before the rename.
pub fn write_snapshot(
    dir: &Path,
    seq: u64,
    engine: &DynFd,
    kill_at_byte: Option<u64>,
) -> io::Result<u64> {
    let payload = encode_snapshot(seq, engine);
    let mut bytes = Vec::with_capacity(SNAP_MAGIC.len() + 12 + payload.len());
    bytes.extend_from_slice(&SNAP_MAGIC);
    codec::put_u64(&mut bytes, payload.len() as u64);
    codec::put_u32(&mut bytes, crc32(&payload));
    bytes.extend_from_slice(&payload);

    let tmp = dir.join(SNAP_TMP);
    let mut file = OpenOptions::new()
        .write(true)
        .create(true)
        .truncate(true)
        .open(&tmp)?;
    if let Some(kill) = kill_at_byte {
        if (kill as usize) < bytes.len() {
            file.write_all(&bytes[..kill as usize])?;
            file.sync_all()?;
            abort(); // simulated power cut: torn snapshot.tmp on disk
        }
    }
    file.write_all(&bytes)?;
    file.sync_all()?;
    drop(file);
    let final_path = dir.join(snapshot_file_name(seq));
    fs::rename(&tmp, &final_path)?;
    let mut fsyncs = 1 + sync_dir(dir)?;
    // Older snapshots are now redundant; best-effort removal.
    for (old_seq, path) in list_snapshots(dir)? {
        if old_seq < seq {
            let _ = fs::remove_file(path);
        }
    }
    fsyncs += sync_dir(dir)?;
    Ok(fsyncs)
}

/// `fsync` on the directory itself, making renames/unlinks durable.
/// Returns 1 (the fsync count) — directories support `sync_all` on the
/// platforms this crate targets.
fn sync_dir(dir: &Path) -> io::Result<u64> {
    File::open(dir)?.sync_all()?;
    Ok(1)
}

/// All `snapshot-*.snap` files in `dir`, sorted ascending by sequence.
fn list_snapshots(dir: &Path) -> io::Result<Vec<(u64, PathBuf)>> {
    let mut snaps = Vec::new();
    for entry in fs::read_dir(dir)? {
        let entry = entry?;
        if let Some(seq) = entry.file_name().to_str().and_then(parse_snapshot_seq) {
            snaps.push((seq, entry.path()));
        }
    }
    snaps.sort_by_key(|&(seq, _)| seq);
    Ok(snaps)
}

/// Loads the newest snapshot in `dir` that validates, skipping (and
/// reporting) corrupt ones, and removes a leftover `snapshot.tmp` from
/// a crash mid-snapshot. Returns the state plus the number of corrupt
/// snapshot files that had to be skipped; `Err(None)` in the inner
/// result means the directory holds no snapshot at all.
pub fn load_latest(dir: &Path) -> io::Result<(Option<SnapshotState>, Vec<String>)> {
    let tmp = dir.join(SNAP_TMP);
    if tmp.exists() {
        // A crash mid-snapshot left the partial file; the rename never
        // happened, so it holds nothing the snapshot set does not.
        let _ = fs::remove_file(&tmp);
    }
    let mut skipped = Vec::new();
    for (seq, path) in list_snapshots(dir)?.into_iter().rev() {
        match read_snapshot_file(&path) {
            Ok(state) => {
                if state.seq != seq {
                    skipped.push(format!(
                        "{}: payload seq {} does not match file name",
                        path.display(),
                        state.seq
                    ));
                    continue;
                }
                return Ok((Some(state), skipped));
            }
            Err(detail) => skipped.push(format!("{}: {detail}", path.display())),
        }
    }
    Ok((None, skipped))
}

/// Reads and fully validates one snapshot file.
pub fn read_snapshot_file(path: &Path) -> Result<SnapshotState, String> {
    let mut bytes = Vec::new();
    File::open(path)
        .and_then(|mut f| f.read_to_end(&mut bytes))
        .map_err(|e| format!("read failed: {e}"))?;
    if bytes.len() < SNAP_MAGIC.len() + 12 {
        return Err("file shorter than header".into());
    }
    if bytes[..SNAP_MAGIC.len()] != SNAP_MAGIC {
        return Err("bad file magic".into());
    }
    let mut r = Reader::new(&bytes[SNAP_MAGIC.len()..]);
    let payload_len = r.u64()? as usize;
    let crc = r.u32()?;
    let present = r.remaining();
    let payload = r.bytes(payload_len).map_err(|_| {
        format!("torn snapshot: header claims {payload_len} payload bytes, {present} present")
    })?;
    if !r.is_exhausted() {
        return Err(format!("{} trailing bytes after payload", r.remaining()));
    }
    let actual = crc32(payload);
    if actual != crc {
        return Err(format!(
            "CRC mismatch: stored {crc:#010x}, computed {actual:#010x}"
        ));
    }
    decode_snapshot(payload)
}

#[cfg(test)]
mod tests {
    use super::*;
    use dynfd_core::DynFdConfig;
    use dynfd_relation::Batch;

    fn tmp_dir(name: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("dynfd-snap-test-{}-{name}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn churned_engine() -> DynFd {
        let rel = DynamicRelation::from_rows(
            Schema::of("t", &["a", "b", "c"]),
            &[
                vec!["x", "1", "p"],
                vec!["x", "1", "q"],
                vec!["y", "2", "p"],
            ],
        )
        .unwrap();
        let mut engine = DynFd::new(rel, DynFdConfig::default());
        let mut batch = Batch::new();
        batch
            .insert(vec!["z", "3", "q"])
            .delete(RecordId(1))
            .update(RecordId(2), vec!["y", "2", "r"]);
        engine.apply_batch(&batch).unwrap();
        engine
    }

    fn restore(state: SnapshotState, config: DynFdConfig) -> DynFd {
        DynFd::from_saved_state(state.rel, state.fds, &state.annotations, config)
    }

    #[test]
    fn snapshot_roundtrip_restores_identical_state() {
        let engine = churned_engine();
        let payload = encode_snapshot(17, &engine);
        let state = decode_snapshot(&payload).unwrap();
        assert_eq!(state.seq, 17);
        let restored = restore(state, *engine.config());
        assert_eq!(
            engine.state_divergence(&restored),
            None,
            "restored engine must be structurally identical"
        );
    }

    #[test]
    fn restored_engine_evolves_identically() {
        let mut engine = churned_engine();
        let payload = encode_snapshot(1, &engine);
        let mut restored = restore(decode_snapshot(&payload).unwrap(), *engine.config());
        let mut batch = Batch::new();
        batch.insert(vec!["x", "9", "p"]).delete(RecordId(0));
        let expected = engine.apply_batch(&batch).unwrap();
        let actual = restored.apply_batch(&batch).unwrap();
        assert_eq!(expected.added, actual.added);
        assert_eq!(expected.removed, actual.removed);
        // Covers and relation must track exactly; annotation witness
        // pairs may differ (the restored engine's PLI-intersection cache
        // is cold) but must stay valid.
        assert_eq!(engine.logical_divergence(&restored), None);
        restored.verify_annotations().unwrap();
    }

    #[test]
    fn write_load_roundtrip_and_retirement() {
        let dir = tmp_dir("roundtrip");
        let engine = churned_engine();
        write_snapshot(&dir, 3, &engine, None).unwrap();
        write_snapshot(&dir, 8, &engine, None).unwrap();
        let snaps = list_snapshots(&dir).unwrap();
        assert_eq!(
            snaps.iter().map(|&(s, _)| s).collect::<Vec<_>>(),
            vec![8],
            "older snapshot is retired"
        );
        let (state, skipped) = load_latest(&dir).unwrap();
        assert!(skipped.is_empty());
        assert_eq!(state.unwrap().seq, 8);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn corrupt_latest_falls_back_to_older() {
        let dir = tmp_dir("fallback");
        let engine = churned_engine();
        write_snapshot(&dir, 3, &engine, None).unwrap();
        // Preserve the older snapshot across the retirement the next
        // write performs, then corrupt the newer one.
        let older = fs::read(dir.join(snapshot_file_name(3))).unwrap();
        let newer = dir.join(snapshot_file_name(9));
        write_snapshot(&dir, 9, &engine, None).unwrap();
        fs::write(dir.join(snapshot_file_name(3)), &older).unwrap();
        let mut bytes = fs::read(&newer).unwrap();
        let last = bytes.len() - 1;
        bytes[last] ^= 0xFF;
        fs::write(&newer, &bytes).unwrap();
        let (state, skipped) = load_latest(&dir).unwrap();
        assert_eq!(state.unwrap().seq, 3);
        assert_eq!(skipped.len(), 1);
        assert!(skipped[0].contains("CRC mismatch"), "{skipped:?}");
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn every_truncation_of_snapshot_is_rejected_cleanly() {
        let dir = tmp_dir("trunc");
        let engine = churned_engine();
        write_snapshot(&dir, 1, &engine, None).unwrap();
        let path = dir.join(snapshot_file_name(1));
        let full = fs::read(&path).unwrap();
        for cut in 0..full.len() {
            fs::write(&path, &full[..cut]).unwrap();
            assert!(
                read_snapshot_file(&path).is_err(),
                "prefix of {cut} bytes must not validate"
            );
        }
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn leftover_tmp_is_ignored_and_removed() {
        let dir = tmp_dir("tmpfile");
        let engine = churned_engine();
        write_snapshot(&dir, 5, &engine, None).unwrap();
        fs::write(dir.join(SNAP_TMP), b"torn partial snapshot").unwrap();
        let (state, skipped) = load_latest(&dir).unwrap();
        assert_eq!(state.unwrap().seq, 5);
        assert!(skipped.is_empty());
        assert!(!dir.join(SNAP_TMP).exists(), "stale tmp file is cleaned up");
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn empty_dir_has_no_snapshot() {
        let dir = tmp_dir("empty");
        let (state, skipped) = load_latest(&dir).unwrap();
        assert!(state.is_none());
        assert!(skipped.is_empty());
        fs::remove_dir_all(&dir).unwrap();
    }
}
