//! The incrementally maintained relation representation.
//!
//! # Columnar arena layout
//!
//! Records live in a *columnar arena*: one contiguous `Vec<ValueId>` per
//! attribute, indexed by **slot**. A slot is a `u32` arena position; the
//! record occupying it is named by `slot_rids[slot]`, and the dense
//! reverse map `slot_of[rid]` resolves a surrogate id to its slot in
//! O(1) (record ids are assigned monotonically and never reused, so a
//! flat vector indexed by the raw id replaces any hash index). Freed
//! slots go onto a LIFO free-list and are reused by later inserts (the
//! `slot-churn` fuzz profile exercises exactly this).
//!
//! A validation job therefore streams `columns[attr]` — a flat `u32`
//! array — instead of dereferencing a boxed code slice per record, which
//! is what makes validation memory-bandwidth-shaped rather than
//! pointer-chase-shaped at paper scale (see DESIGN.md §6f).
//!
//! The slot layout is private bookkeeping: nothing observable depends
//! on which slot a record occupies, because PLI clusters are kept
//! rid-sorted. A relation is therefore persisted and restored by its
//! logical state alone ([`DynamicRelation::from_parts`]). Rollback still
//! reverses the layout exactly — reverse-replaying an [`UndoLog`]
//! restores the slot assignments and the free-list order — since
//! undoing each mutation in place is the cheapest way back.

use crate::batch::{AppliedBatch, Batch, ChangeOp};
use crate::dictionary::{Dictionary, ValueId};
use crate::pli::Pli;
use dynfd_common::{DynError, RecordId, Result, Schema};
use std::collections::HashSet;

/// Sentinel in `slot_of` for "this record id has no slot" (never
/// assigned, deleted, or rolled back).
const NO_SLOT: u32 = u32::MAX;

/// Sentinel in `slot_rids` for a free slot.
const DEAD_RID: RecordId = RecordId(u64::MAX);

/// A borrowed view of one record's value codes inside the columnar
/// arena. Indexing (`row[attr]`) reads `columns[attr][slot]`; comparison
/// and ordering are lexicographic over the code vector, matching the
/// semantics the former row-major `&[ValueId]` slices had.
#[derive(Clone, Copy)]
pub struct RowRef<'a> {
    columns: &'a [Vec<ValueId>],
    slot: usize,
}

impl<'a> RowRef<'a> {
    /// The value code of attribute `attr`.
    #[inline]
    pub fn get(&self, attr: usize) -> ValueId {
        self.columns[attr][self.slot]
    }

    /// Number of attributes.
    pub fn len(&self) -> usize {
        self.columns.len()
    }

    /// Whether the relation has zero columns.
    pub fn is_empty(&self) -> bool {
        self.columns.is_empty()
    }

    /// The arena slot this view points at.
    pub fn slot(&self) -> u32 {
        self.slot as u32
    }

    /// Iterates the value codes in attribute order.
    pub fn iter(&self) -> impl Iterator<Item = ValueId> + 'a {
        let slot = self.slot;
        self.columns.iter().map(move |col| col[slot])
    }

    /// The codes as an owned vector (cold paths and tests).
    pub fn to_vec(&self) -> Vec<ValueId> {
        self.iter().collect()
    }
}

impl std::ops::Index<usize> for RowRef<'_> {
    type Output = ValueId;
    #[inline]
    fn index(&self, attr: usize) -> &ValueId {
        &self.columns[attr][self.slot]
    }
}

impl PartialEq for RowRef<'_> {
    fn eq(&self, other: &Self) -> bool {
        self.len() == other.len() && self.iter().eq(other.iter())
    }
}

impl Eq for RowRef<'_> {}

impl PartialOrd for RowRef<'_> {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for RowRef<'_> {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.iter().cmp(other.iter())
    }
}

impl std::fmt::Debug for RowRef<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_list().entries(self.iter()).finish()
    }
}

/// One reversible mutation recorded while applying a batch.
#[derive(Clone, Debug)]
enum UndoOp {
    /// A record this batch inserted; undone by deleting it again.
    Inserted(RecordId),
    /// A record this batch deleted, with the slot it freed and its
    /// compressed form; undone by restoring it into that slot and every
    /// PLI.
    Removed(RecordId, u32, Box<[ValueId]>),
}

/// Undo log for one batch application, produced by
/// [`DynamicRelation::apply_batch_logged`].
///
/// Replaying the log in reverse ([`DynamicRelation::rollback`]) returns
/// the relation to its pre-batch state: records, slot assignments,
/// free-list order, PLIs, dictionaries (including codes assigned during
/// the batch, which are truncated away), and the surrogate-id counter.
#[derive(Clone, Debug)]
pub struct UndoLog {
    ops: Vec<UndoOp>,
    next_id_before: RecordId,
    dict_lens_before: Vec<usize>,
    /// Arena length before the batch: slots at or past this index were
    /// grown by the batch and are truncated away (in reverse-allocation
    /// order) rather than freed, restoring the exact arena extent.
    arena_len_before: usize,
}

impl UndoLog {
    /// Number of reversible mutations recorded.
    pub fn len(&self) -> usize {
        self.ops.len()
    }

    /// Whether the batch performed no mutation.
    pub fn is_empty(&self) -> bool {
        self.ops.is_empty()
    }

    /// The arena slots the batch freed by deleting records that existed
    /// before it, with the codes those records held, in deletion order.
    /// Deletes of records the same batch inserted are left out, and an
    /// insert of the batch may since have reused a slot. This is how
    /// derived indexes that store slots find a deleted record's entry
    /// after the relation has dropped it.
    pub fn deleted_rows(&self) -> impl Iterator<Item = (u32, &[ValueId])> + '_ {
        self.ops.iter().filter_map(move |op| match op {
            UndoOp::Removed(rid, slot, codes) if *rid < self.next_id_before => {
                Some((*slot, &codes[..]))
            }
            _ => None,
        })
    }
}

/// A relation instance maintained under inserts, updates, and deletes.
///
/// This bundles every data structure of paper Section 3.1, re-shaped
/// columnar (module docs):
///
/// * per-column [`Dictionary`]s (value → code),
/// * per-column [`Pli`]s with their built-in inverted index
///   (code → cluster of arena slots, rid-sorted),
/// * the **columnar arena** of dictionary-compressed records
///   (one `Vec<ValueId>` per attribute, slot-indexed) with its
///   free-list,
/// * the monotonically increasing surrogate-id counter.
///
/// All structures are updated *incrementally* per change — applying a
/// batch never re-reads previously ingested data, mirroring the paper's
/// requirement that DynFD must not perform reads against the database it
/// monitors.
///
/// Nulls are modelled as empty strings and compare equal to each other,
/// the convention of FD discovery tooling (see `Dictionary`'s tests).
///
/// Equality (`==`) is *logical*: two relations are equal when they hold
/// the same schema, id counter, dictionaries, and the same
/// record content per surrogate id — regardless of how churn arranged
/// the records in their arenas. (PLIs are fully determined by the
/// records, so they need no separate comparison.)
#[derive(Clone, Debug)]
pub struct DynamicRelation {
    schema: Schema,
    dictionaries: Vec<Dictionary>,
    plis: Vec<Pli>,
    /// The columnar arena: `columns[attr][slot]` is the value code of
    /// attribute `attr` in the record occupying `slot`.
    columns: Vec<Vec<ValueId>>,
    /// Slot → occupying record id ([`DEAD_RID`] for free slots).
    slot_rids: Vec<RecordId>,
    /// Record id (raw) → slot ([`NO_SLOT`] when not live). Dense: ids
    /// are assigned sequentially from 0.
    slot_of: Vec<u32>,
    /// LIFO free-list of reusable slots.
    free: Vec<u32>,
    /// Number of live records.
    live: usize,
    next_id: RecordId,
}

impl PartialEq for DynamicRelation {
    fn eq(&self, other: &Self) -> bool {
        if self.schema != other.schema
            || self.next_id != other.next_id
            || self.dictionaries != other.dictionaries
            || self.live != other.live
        {
            return false;
        }
        // Same record content per id, independent of slot layout.
        for (slot, &rid) in self.slot_rids.iter().enumerate() {
            if rid == DEAD_RID {
                continue;
            }
            let Some(their_slot) = other.slot_of(rid) else {
                return false;
            };
            let theirs = their_slot as usize;
            if self
                .columns
                .iter()
                .zip(&other.columns)
                .any(|(a, b)| a[slot] != b[theirs])
            {
                return false;
            }
        }
        true
    }
}

impl DynamicRelation {
    /// Creates an empty relation for `schema`.
    pub fn new(schema: Schema) -> Self {
        let arity = schema.arity();
        DynamicRelation {
            schema,
            dictionaries: (0..arity).map(|_| Dictionary::new()).collect(),
            plis: (0..arity).map(|_| Pli::new()).collect(),
            columns: (0..arity).map(|_| Vec::new()).collect(),
            slot_rids: Vec::new(),
            slot_of: Vec::new(),
            free: Vec::new(),
            live: 0,
            next_id: RecordId(0),
        }
    }

    /// Overrides the distinct-value budget of column `attr`'s dictionary
    /// (see [`Dictionary::set_capacity`]).
    pub fn set_dictionary_capacity(&mut self, attr: usize, capacity: usize) {
        self.dictionaries[attr].set_capacity(capacity);
    }

    /// Creates a relation and bulk-loads `rows` (the "initial tuples" of
    /// the paper's setting). Initial records receive ids `0..rows.len()`.
    pub fn from_rows<S: AsRef<str>>(schema: Schema, rows: &[Vec<S>]) -> Result<Self> {
        let mut rel = DynamicRelation::new(schema);
        for row in rows {
            rel.insert_row(row)?;
        }
        Ok(rel)
    }

    /// The relation's schema.
    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    /// Number of columns.
    pub fn arity(&self) -> usize {
        self.schema.arity()
    }

    /// Number of live records.
    pub fn len(&self) -> usize {
        self.live
    }

    /// Whether the relation currently holds no records.
    pub fn is_empty(&self) -> bool {
        self.live == 0
    }

    /// The next surrogate id that will be assigned. Exposed because the
    /// id assignment is part of the public contract: ids are handed out
    /// in arrival order starting from 0, which lets change-stream
    /// generators refer to future records deterministically.
    pub fn next_id(&self) -> RecordId {
        self.next_id
    }

    /// The PLI of column `attr`.
    pub fn pli(&self, attr: usize) -> &Pli {
        &self.plis[attr]
    }

    /// The dictionary of column `attr`.
    pub fn dictionary(&self, attr: usize) -> &Dictionary {
        &self.dictionaries[attr]
    }

    /// The full value-code column of attribute `attr`, indexed by slot.
    /// Free slots hold stale codes; only index it with slots obtained
    /// from a PLI cluster or [`DynamicRelation::slot_of`].
    #[inline]
    pub fn column(&self, attr: usize) -> &[ValueId] {
        &self.columns[attr]
    }

    /// All columns, for validators that stream several attributes.
    #[inline]
    pub fn columns(&self) -> &[Vec<ValueId>] {
        &self.columns
    }

    /// Slot → record id table (free slots hold a sentinel; pair it with
    /// slots from PLI clusters, which only reference live slots).
    #[inline]
    pub fn slot_rids(&self) -> &[RecordId] {
        &self.slot_rids
    }

    /// The record id occupying `slot`.
    ///
    /// # Panics
    ///
    /// Panics (in debug) if the slot is free.
    #[inline]
    pub fn rid_at_slot(&self, slot: u32) -> RecordId {
        let rid = self.slot_rids[slot as usize];
        debug_assert_ne!(rid, DEAD_RID, "slot {slot} is free");
        rid
    }

    /// The arena slot of a live record.
    #[inline]
    pub fn slot_of(&self, rid: RecordId) -> Option<u32> {
        match self.slot_of.get(rid.raw() as usize) {
            Some(&slot) if slot != NO_SLOT => Some(slot),
            _ => None,
        }
    }

    /// Approximate resident bytes of the whole relation: dictionaries,
    /// PLIs, the columnar arena, and the slot bookkeeping vectors. A
    /// monotone-in-footprint estimate for quota accounting (it grows
    /// when the structures grow and shrinks when they are truncated),
    /// not an exact allocator number.
    pub fn approx_bytes(&self) -> usize {
        let dict: usize = self.dictionaries.iter().map(Dictionary::approx_bytes).sum();
        let plis: usize = self.plis.iter().map(Pli::approx_bytes).sum();
        let arena = self.columns.len() * self.slot_rids.len() * 4;
        let slots = self.slot_rids.len() * 8 // RecordId
            + self.slot_of.len() * 4
            + self.free.len() * 4;
        128 + dict + plis + arena + slots
    }

    /// The compressed record for `rid`, if live, as a columnar view.
    #[inline]
    pub fn compressed(&self, rid: RecordId) -> Option<RowRef<'_>> {
        self.slot_of(rid).map(|slot| RowRef {
            columns: &self.columns,
            slot: slot as usize,
        })
    }

    /// The row view at a known-live arena slot.
    #[inline]
    pub fn row_at_slot(&self, slot: u32) -> RowRef<'_> {
        debug_assert_ne!(self.slot_rids[slot as usize], DEAD_RID);
        RowRef {
            columns: &self.columns,
            slot: slot as usize,
        }
    }

    /// Decodes a live record back into its string values.
    pub fn materialize(&self, rid: RecordId) -> Option<Vec<String>> {
        let slot = self.slot_of(rid)? as usize;
        Some(
            self.columns
                .iter()
                .enumerate()
                .map(|(a, col)| self.dictionaries[a].decode(col[slot]).to_string())
                .collect(),
        )
    }

    /// Iterates the ids of all live records in slot (unspecified) order.
    pub fn record_ids(&self) -> impl Iterator<Item = RecordId> + '_ {
        self.slot_rids.iter().copied().filter(|&r| r != DEAD_RID)
    }

    /// Iterates `(id, record view)` pairs in slot (unspecified) order.
    pub fn records(&self) -> impl Iterator<Item = (RecordId, RowRef<'_>)> {
        self.slot_rids
            .iter()
            .enumerate()
            .filter(|(_, &r)| r != DEAD_RID)
            .map(|(slot, &rid)| {
                (
                    rid,
                    RowRef {
                        columns: &self.columns,
                        slot,
                    },
                )
            })
    }

    /// Pops a free slot or grows the arena by one slot.
    fn allocate_slot(&mut self) -> u32 {
        if let Some(slot) = self.free.pop() {
            return slot;
        }
        let slot = self.slot_rids.len() as u32;
        self.slot_rids.push(DEAD_RID);
        for col in &mut self.columns {
            col.push(0);
        }
        slot
    }

    /// Inserts one row, updating dictionaries, PLIs, and the arena, and
    /// returns the assigned surrogate id.
    pub fn insert_row<S: AsRef<str>>(&mut self, row: &[S]) -> Result<RecordId> {
        self.check_row(row)?;
        let rid = self.next_id;
        self.next_id = self.next_id.next();
        let slot = self.allocate_slot();
        self.slot_rids[slot as usize] = rid;
        for (attr, value) in row.iter().enumerate() {
            let code = self.dictionaries[attr].encode(value.as_ref());
            self.columns[attr][slot as usize] = code;
            self.plis[attr].insert(code, slot, rid, &self.slot_rids);
        }
        let idx = rid.raw() as usize;
        if self.slot_of.len() <= idx {
            self.slot_of.resize(idx + 1, NO_SLOT);
        }
        self.slot_of[idx] = slot;
        self.live += 1;
        Ok(rid)
    }

    /// Checks one row against the schema arity and the per-column
    /// dictionary capacities, all before any mutation — a row that passes
    /// cannot fail to insert.
    fn check_row<S: AsRef<str>>(&self, row: &[S]) -> Result<()> {
        if row.len() != self.arity() {
            return Err(DynError::ArityMismatch {
                expected: self.arity(),
                actual: row.len(),
            });
        }
        for (attr, value) in row.iter().enumerate() {
            if self.dictionaries[attr].would_overflow(value.as_ref()) {
                return Err(DynError::DictionaryOverflow {
                    attr,
                    capacity: self.dictionaries[attr].capacity(),
                });
            }
        }
        Ok(())
    }

    /// Deletes the record `rid` from all structures: its value codes
    /// locate the PLI clusters to shrink, then the slot is freed (LIFO).
    /// The freed slot keeps its stale codes until an insert reuses it.
    pub fn delete_record(&mut self, rid: RecordId) -> Result<()> {
        let slot = self.slot_of(rid).ok_or(DynError::UnknownRecord(rid))?;
        // PLIs first: cluster removal binary-searches by rid through
        // `slot_rids`, which must still map this slot.
        for attr in 0..self.columns.len() {
            let code = self.columns[attr][slot as usize];
            let removed = self.plis[attr].remove(code, slot, rid, &self.slot_rids);
            debug_assert!(removed, "record {rid} missing from PLI of column {attr}");
        }
        self.slot_of[rid.raw() as usize] = NO_SLOT;
        self.slot_rids[slot as usize] = DEAD_RID;
        self.free.push(slot);
        self.live -= 1;
        Ok(())
    }

    /// Whether `rid` is live.
    pub fn contains(&self, rid: RecordId) -> bool {
        self.slot_of(rid).is_some()
    }

    /// Applies a batch of change operations (Step 1 of the paper's
    /// processing pipeline, Figure 1).
    ///
    /// Updates are normalized to delete + insert. Deletes of
    /// pre-existing records are applied *before* any insert, so that the
    /// old and new version of an updated tuple never coexist — the paper
    /// notes that such near-duplicates would transiently invalidate many
    /// (key-like) dependencies only to revalidate them moments later.
    /// Deletes that target records inserted by this same batch are
    /// applied at the end.
    ///
    /// On error (unknown record id, duplicate reference, arity mismatch,
    /// dictionary overflow) the relation is left unchanged: the batch is
    /// validated before any mutation.
    pub fn apply_batch(&mut self, batch: &Batch) -> Result<AppliedBatch> {
        self.apply_batch_logged(batch).map(|(applied, _)| applied)
    }

    /// Like [`DynamicRelation::apply_batch`], but additionally returns
    /// the [`UndoLog`] of every mutation performed, enabling the caller
    /// to [`DynamicRelation::rollback`] the batch if *downstream*
    /// maintenance (cover updates, violation search) fails after the
    /// relation itself was updated successfully.
    pub fn apply_batch_logged(&mut self, batch: &Batch) -> Result<(AppliedBatch, UndoLog)> {
        self.validate_batch(batch)?;
        let mut undo = UndoLog {
            ops: Vec::new(),
            next_id_before: self.next_id,
            dict_lens_before: self.dictionaries.iter().map(Dictionary::len).collect(),
            arena_len_before: self.slot_rids.len(),
        };

        let mut deferred_deletes: Vec<RecordId> = Vec::new();
        let mut applied = AppliedBatch {
            update_only: !batch.is_empty()
                && batch
                    .ops()
                    .iter()
                    .all(|op| matches!(op, ChangeOp::Update(..))),
            ..AppliedBatch::default()
        };

        // Phase 1: deletes of pre-existing records (update-deletes
        // included). Updates additionally record which attributes their
        // new version actually changes — the input to update pruning.
        for op in batch.ops() {
            let rid = match op {
                ChangeOp::Delete(rid) | ChangeOp::Update(rid, _) => *rid,
                ChangeOp::Insert(_) => continue,
            };
            if let Some((slot, codes)) = self.removal_of(rid) {
                if let ChangeOp::Update(_, new_row) = op {
                    if applied.update_only {
                        // A value is unchanged iff it already has the
                        // old value's code; comparing codes decodes no
                        // strings.
                        for (attr, new) in new_row.iter().enumerate() {
                            if self.dictionaries[attr].lookup(new) != Some(codes[attr]) {
                                applied.touched_attrs.insert(attr);
                            }
                        }
                    }
                }
                self.delete_record(rid)?;
                undo.ops.push(UndoOp::Removed(rid, slot, codes));
                applied.deleted.push(rid);
            } else {
                // References a record created later in this batch. Such
                // an update's old version is not a pre-batch record, so
                // the touched-attribute analysis does not cover it.
                applied.update_only = false;
                deferred_deletes.push(rid);
            }
        }

        // Phase 2: inserts (update-inserts included).
        for op in batch.ops() {
            let row = match op {
                ChangeOp::Insert(row) | ChangeOp::Update(_, row) => row,
                ChangeOp::Delete(_) => continue,
            };
            let rid = self.insert_row(row)?;
            undo.ops.push(UndoOp::Inserted(rid));
            applied.first_new_id.get_or_insert(rid);
            applied.inserted.push(rid);
        }

        // Phase 3: deletes that referenced same-batch inserts.
        for rid in deferred_deletes {
            let (slot, codes) = self.removal_of(rid).expect("validated same-batch insert");
            self.delete_record(rid)?;
            undo.ops.push(UndoOp::Removed(rid, slot, codes));
            applied.inserted.retain(|&r| r != rid);
        }

        applied.inserted_slots = applied
            .inserted
            .iter()
            .map(|&rid| self.slot_of(rid).expect("surviving insert is live"))
            .collect();

        Ok((applied, undo))
    }

    /// A live record's slot and codes (undo-log payloads).
    fn removal_of(&self, rid: RecordId) -> Option<(u32, Box<[ValueId]>)> {
        let slot = self.slot_of(rid)?;
        Some((slot, self.row_at_slot(slot).to_vec().into_boxed_slice()))
    }

    /// Reverse-replays the undo log of a batch, restoring the relation to
    /// a state equal (`==`) to the pre-batch one, with the same slot
    /// assignments and free-list order.
    ///
    /// Dictionary codes assigned while applying the batch are exactly the
    /// tail `values[len..]` of each dictionary (dictionaries are
    /// append-only), so truncating to the recorded lengths removes them;
    /// this is sound because every record referencing those codes was
    /// inserted by the same batch and is removed first. Slot bookkeeping
    /// reverses exactly because the free-list is LIFO: undoing an insert
    /// returns (or truncates) the slot the insert took, undoing a delete
    /// re-occupies the slot the delete freed.
    pub fn rollback(&mut self, undo: UndoLog) {
        for op in undo.ops.into_iter().rev() {
            match op {
                UndoOp::Inserted(rid) => {
                    let slot = self
                        .slot_of(rid)
                        .expect("undo log names a record this batch inserted");
                    for attr in 0..self.columns.len() {
                        let code = self.columns[attr][slot as usize];
                        let removed = self.plis[attr].remove(code, slot, rid, &self.slot_rids);
                        debug_assert!(removed, "rollback: {rid} missing from PLI {attr}");
                    }
                    self.slot_of[rid.raw() as usize] = NO_SLOT;
                    self.live -= 1;
                    if slot as usize >= undo.arena_len_before {
                        // The batch grew the arena for this slot; grown
                        // slots are undone newest-first, so it is the
                        // current tail — shrink instead of freeing.
                        debug_assert_eq!(slot as usize, self.slot_rids.len() - 1);
                        self.slot_rids.pop();
                        for col in &mut self.columns {
                            col.pop();
                        }
                    } else {
                        // The insert popped this slot off the free-list;
                        // push it back.
                        self.slot_rids[slot as usize] = DEAD_RID;
                        self.free.push(slot);
                    }
                }
                UndoOp::Removed(rid, freed, codes) => {
                    let slot = self
                        .free
                        .pop()
                        .expect("delete pushed the slot this undo re-occupies");
                    debug_assert_eq!(slot, freed, "rollback: {rid} returns to the slot it freed");
                    self.slot_rids[slot as usize] = rid;
                    for (attr, &code) in codes.iter().enumerate() {
                        self.columns[attr][slot as usize] = code;
                        self.plis[attr].restore(code, slot, rid, &self.slot_rids);
                    }
                    let idx = rid.raw() as usize;
                    self.slot_of[idx] = slot;
                    self.live += 1;
                }
            }
        }
        for (dict, &len) in self.dictionaries.iter_mut().zip(&undo.dict_lens_before) {
            dict.truncate(len);
        }
        self.slot_of.truncate(undo.next_id_before.raw() as usize);
        self.next_id = undo.next_id_before;
    }

    /// Checks a batch for structural problems without mutating anything.
    /// Everything [`check_row`](DynamicRelation::check_row) rejects is
    /// rejected here too, so a batch that validates cannot fail while it
    /// is being applied.
    fn validate_batch(&self, batch: &Batch) -> Result<()> {
        // Simulate id assignment to accept deletes of same-batch inserts.
        let mut pending_inserts = 0u64;
        let mut dead: HashSet<RecordId> = HashSet::with_capacity(batch.len());
        for op in batch.ops() {
            match op {
                ChangeOp::Insert(row) => {
                    self.check_row(row)?;
                    pending_inserts += 1;
                }
                ChangeOp::Update(rid, row) => {
                    self.check_row(row)?;
                    self.check_live(*rid, pending_inserts, &dead)?;
                    dead.insert(*rid);
                    pending_inserts += 1;
                }
                ChangeOp::Delete(rid) => {
                    self.check_live(*rid, pending_inserts, &dead)?;
                    dead.insert(*rid);
                }
            }
        }
        self.check_dictionary_headroom(batch)
    }

    /// Rejects batches whose *distinct fresh values* would push a column
    /// dictionary past its capacity. `check_row` only catches a column
    /// that is already full; this pass also catches the batch that fills
    /// the remaining headroom mid-application. Fast path: when a column
    /// has more headroom than the batch has inserts, no counting is done.
    fn check_dictionary_headroom(&self, batch: &Batch) -> Result<()> {
        let rows: Vec<&[String]> = batch
            .ops()
            .iter()
            .filter_map(|op| match op {
                ChangeOp::Insert(row) | ChangeOp::Update(_, row) => Some(row.as_slice()),
                ChangeOp::Delete(_) => None,
            })
            .collect();
        for attr in 0..self.arity() {
            let dict = &self.dictionaries[attr];
            if dict.len() + rows.len() <= dict.capacity() {
                continue;
            }
            let mut fresh: HashSet<&str> = HashSet::new();
            for row in &rows {
                let value = row[attr].as_str();
                if dict.lookup(value).is_none() {
                    fresh.insert(value);
                }
                if dict.len() + fresh.len() > dict.capacity() {
                    return Err(DynError::DictionaryOverflow {
                        attr,
                        capacity: dict.capacity(),
                    });
                }
            }
        }
        Ok(())
    }

    fn check_live(
        &self,
        rid: RecordId,
        pending_inserts: u64,
        dead: &HashSet<RecordId>,
    ) -> Result<()> {
        if dead.contains(&rid) {
            // The record existed (or was created in this batch) but an
            // earlier op already consumed it: a duplicate reference, not
            // an unknown id.
            return Err(DynError::DuplicateRecord(rid));
        }
        let exists_now = self.contains(rid);
        let created_in_batch =
            rid >= self.next_id && rid.raw() < self.next_id.raw() + pending_inserts;
        if exists_now || created_in_batch {
            Ok(())
        } else {
            Err(DynError::UnknownRecord(rid))
        }
    }

    /// Reconstructs a relation from its *logical* persisted parts:
    /// schema, id counter, the full per-column dictionaries
    /// (dead codes included, so codes stay stable across a save/restore
    /// cycle), and the compressed records. Slots are assigned compactly
    /// in ascending record-id order with an empty free-list; PLIs are
    /// rebuilt by inserting in that same order, which reproduces the
    /// exact cluster member order incremental maintenance would hold
    /// (rid-sorted, emptied clusters absent). The result is equal (`==`)
    /// to the relation the parts were read from; this is the restore
    /// path of snapshots (`dynfd-persist`).
    ///
    /// # Errors
    ///
    /// Returns [`DynError::Parse`] when the parts are inconsistent — a
    /// record of the wrong arity, a value code no dictionary entry
    /// covers, a record id at or past `next_id`, or a duplicate record
    /// id. (Checksums catch random corruption before decoding; this
    /// guards the semantic gaps checksums cannot see.)
    pub fn from_parts(
        schema: Schema,
        next_id: RecordId,
        dictionaries: Vec<Dictionary>,
        mut records: Vec<(RecordId, Box<[ValueId]>)>,
    ) -> Result<Self> {
        let arity = schema.arity();
        if dictionaries.len() != arity {
            return Err(DynError::Parse(format!(
                "snapshot has {} dictionaries for {arity} columns",
                dictionaries.len()
            )));
        }
        records.sort_unstable_by_key(|(rid, _)| *rid);
        let mut rel = DynamicRelation {
            schema,
            dictionaries,
            plis: (0..arity).map(|_| Pli::new()).collect(),
            columns: (0..arity)
                .map(|_| Vec::with_capacity(records.len()))
                .collect(),
            slot_rids: Vec::with_capacity(records.len()),
            slot_of: Vec::new(),
            free: Vec::new(),
            live: 0,
            next_id,
        };
        for (rid, codes) in records {
            if codes.len() != arity {
                return Err(DynError::Parse(format!(
                    "record {rid} has {} codes for {arity} columns",
                    codes.len()
                )));
            }
            if rid >= next_id {
                return Err(DynError::Parse(format!(
                    "record {rid} is at or past the id counter {next_id}"
                )));
            }
            if rel.contains(rid) {
                return Err(DynError::Parse(format!("duplicate record id {rid}")));
            }
            for (attr, &code) in codes.iter().enumerate() {
                if (code as usize) >= rel.dictionaries[attr].len() {
                    return Err(DynError::Parse(format!(
                        "record {rid} column {attr} references unassigned code {code}"
                    )));
                }
            }
            let slot = rel.allocate_slot();
            rel.slot_rids[slot as usize] = rid;
            for (attr, &code) in codes.iter().enumerate() {
                rel.columns[attr][slot as usize] = code;
                rel.plis[attr].insert(code, slot, rid, &rel.slot_rids);
            }
            let idx = rid.raw() as usize;
            if rel.slot_of.len() <= idx {
                rel.slot_of.resize(idx + 1, NO_SLOT);
            }
            rel.slot_of[idx] = slot;
            rel.live += 1;
        }
        Ok(rel)
    }

    /// Rebuilds PLIs and dictionaries from the live records, for
    /// validating incremental maintenance in tests. O(n·m); never used on
    /// the hot path.
    pub fn rebuild_from_scratch(&self) -> DynamicRelation {
        let mut ids: Vec<RecordId> = self.record_ids().collect();
        ids.sort_unstable();
        let mut fresh = DynamicRelation::new(self.schema.clone());
        for rid in ids {
            // Invariant: `ids` was collected from the live slot table.
            let row = self.materialize(rid).expect("live record");
            // Preserve original ids so the two relations are comparable.
            fresh.next_id = rid;
            fresh.insert_row(&row).expect("rebuild insert");
        }
        fresh.next_id = self.next_id;
        fresh
    }

    /// Debug-only structural audit of the arena invariants: slot maps
    /// are mutually inverse, the free-list covers dead slots exactly,
    /// every PLI cluster references live slots whose column code
    /// matches the cluster's value, in ascending rid order, and every
    /// PLI's `max_cluster_len` is its largest cluster. Used by the fuzz
    /// harness after slot-churn traces; O(n·m).
    pub fn check_arena_invariants(&self) -> Result<()> {
        let fail = |msg: String| Err(DynError::Parse(msg));
        let mut live = 0usize;
        for (slot, &rid) in self.slot_rids.iter().enumerate() {
            if rid == DEAD_RID {
                continue;
            }
            live += 1;
            if self.slot_of(rid) != Some(slot as u32) {
                return fail(format!("slot {slot} holds {rid} but slot_of disagrees"));
            }
        }
        if live != self.live {
            return fail(format!("live count {} != occupied slots {live}", self.live));
        }
        if self.free.len() + live != self.slot_rids.len() {
            return fail("free-list and live slots do not partition the arena".into());
        }
        let mut seen = vec![false; self.slot_rids.len()];
        for &slot in &self.free {
            let s = slot as usize;
            if s >= seen.len() || seen[s] || self.slot_rids[s] != DEAD_RID {
                return fail(format!("free-list entry {slot} invalid"));
            }
            seen[s] = true;
        }
        for (attr, pli) in self.plis.iter().enumerate() {
            let mut entries = 0usize;
            let mut largest = 0usize;
            for (value, cluster) in pli.iter() {
                entries += cluster.len();
                largest = largest.max(cluster.len());
                let mut prev: Option<RecordId> = None;
                for &slot in cluster {
                    let rid = self.slot_rids[slot as usize];
                    if rid == DEAD_RID {
                        return fail(format!("PLI {attr} value {value} references free slot"));
                    }
                    if self.columns[attr][slot as usize] != value {
                        return fail(format!("PLI {attr} cluster {value} code mismatch"));
                    }
                    if prev.is_some_and(|p| p >= rid) {
                        return fail(format!("PLI {attr} cluster {value} not rid-sorted"));
                    }
                    prev = Some(rid);
                }
            }
            if entries != self.live {
                return fail(format!(
                    "PLI {attr} indexes {entries} of {} records",
                    self.live
                ));
            }
            if pli.max_cluster_len() != largest {
                return fail(format!(
                    "PLI {attr} reports a largest cluster of {} but holds {largest}",
                    pli.max_cluster_len()
                ));
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The running example of the paper, Table 1 (initial tuples 1-4,
    /// re-indexed to ids 0-3).
    pub(crate) fn paper_relation() -> DynamicRelation {
        let schema = Schema::of("people", &["firstname", "lastname", "zip", "city"]);
        DynamicRelation::from_rows(
            schema,
            &[
                vec!["Max", "Jones", "14482", "Potsdam"],
                vec!["Max", "Miller", "14482", "Potsdam"],
                vec!["Max", "Jones", "10115", "Berlin"],
                vec!["Anna", "Scott", "13591", "Berlin"],
            ],
        )
        .unwrap()
    }

    /// The rid clusters of one column, in value-code order (tests were
    /// written against the row-store PLI's rid view).
    fn rid_clusters(rel: &DynamicRelation, attr: usize) -> Vec<Vec<RecordId>> {
        rel.pli(attr)
            .iter()
            .map(|(_, c)| c.iter().map(|&s| rel.rid_at_slot(s)).collect())
            .collect()
    }

    #[test]
    fn bulk_load_assigns_sequential_ids() {
        let rel = paper_relation();
        assert_eq!(rel.len(), 4);
        assert_eq!(rel.next_id(), RecordId(4));
        for i in 0..4 {
            assert!(rel.contains(RecordId(i)));
        }
    }

    #[test]
    fn compressed_records_match_table_2() {
        // Table 2 of the paper (our codes are first-seen dense codes, no
        // -1 sentinel; uniqueness shows as singleton clusters instead).
        let rel = paper_relation();
        let row = |i: u64| rel.compressed(RecordId(i)).map(|r| r.to_vec());
        assert_eq!(row(0), Some(vec![0, 0, 0, 0]));
        assert_eq!(row(1), Some(vec![0, 1, 0, 0]));
        assert_eq!(row(2), Some(vec![0, 0, 1, 1]));
        assert_eq!(row(3), Some(vec![1, 2, 2, 1]));
    }

    #[test]
    fn plis_match_paper_section_3_1() {
        let rel = paper_relation();
        let r = |i: u64| RecordId(i);
        // π_firstname = {{1,2,3},{4}} in 1-based paper ids = {{0,1,2},{3}} here.
        assert_eq!(
            rid_clusters(&rel, 0),
            vec![vec![r(0), r(1), r(2)], vec![r(3)]]
        );
        assert_eq!(
            rid_clusters(&rel, 1),
            vec![vec![r(0), r(2)], vec![r(1)], vec![r(3)]]
        );
        assert_eq!(
            rid_clusters(&rel, 2),
            vec![vec![r(0), r(1)], vec![r(2)], vec![r(3)]]
        );
        assert_eq!(
            rid_clusters(&rel, 3),
            vec![vec![r(0), r(1)], vec![r(2), r(3)]]
        );
    }

    #[test]
    fn paper_batch_delete_3_insert_5_6() {
        // The batch of Table 1: delete tuple 3 (id 2), insert tuples 5, 6.
        let mut rel = paper_relation();
        let mut batch = Batch::new();
        batch
            .delete(RecordId(2))
            .insert(vec!["Marie", "Scott", "14467", "Potsdam"])
            .insert(vec!["Marie", "Gray", "14469", "Potsdam"]);
        let applied = rel.apply_batch(&batch).unwrap();
        assert_eq!(applied.deleted, vec![RecordId(2)]);
        assert_eq!(applied.inserted, vec![RecordId(4), RecordId(5)]);
        assert_eq!(applied.first_new_id, Some(RecordId(4)));
        assert_eq!(applied.inserted_slots.len(), 2);
        assert_eq!(rel.len(), 5);
        assert!(!rel.contains(RecordId(2)));
        assert_eq!(
            rel.materialize(RecordId(4)).unwrap(),
            vec!["Marie", "Scott", "14467", "Potsdam"]
        );
        rel.check_arena_invariants().unwrap();
    }

    #[test]
    fn slots_are_reused_lifo() {
        let mut rel = paper_relation();
        let freed_first = rel.slot_of(RecordId(1)).unwrap();
        let freed_last = rel.slot_of(RecordId(2)).unwrap();
        rel.delete_record(RecordId(1)).unwrap();
        rel.delete_record(RecordId(2)).unwrap();
        // Inserts reuse the freed slots, most recently freed first.
        let a = rel.insert_row(&["P", "Q", "R", "S"]).unwrap();
        let b = rel.insert_row(&["T", "U", "V", "W"]).unwrap();
        assert_eq!(rel.slot_of(a), Some(freed_last));
        assert_eq!(rel.slot_of(b), Some(freed_first));
        assert_eq!(rel.slot_rids().len(), 4, "arena did not grow");
        rel.check_arena_invariants().unwrap();
    }

    #[test]
    fn update_is_delete_plus_insert_with_fresh_id() {
        let mut rel = paper_relation();
        let mut batch = Batch::new();
        batch.update(RecordId(1), vec!["Max", "Miller", "10115", "Berlin"]);
        let applied = rel.apply_batch(&batch).unwrap();
        assert_eq!(applied.deleted, vec![RecordId(1)]);
        assert_eq!(applied.inserted, vec![RecordId(4)]);
        assert!(!rel.contains(RecordId(1)));
        assert_eq!(rel.len(), 4);
    }

    #[test]
    fn delete_of_unknown_record_fails_atomically() {
        let mut rel = paper_relation();
        let mut batch = Batch::new();
        batch.insert(vec!["A", "B", "C", "D"]).delete(RecordId(99));
        let err = rel.apply_batch(&batch).unwrap_err();
        assert_eq!(err, DynError::UnknownRecord(RecordId(99)));
        // Nothing applied.
        assert_eq!(rel.len(), 4);
        assert_eq!(rel.next_id(), RecordId(4));
    }

    #[test]
    fn arity_mismatch_rejected() {
        let mut rel = paper_relation();
        let err = rel.insert_row(&["only", "three", "values"]).unwrap_err();
        assert_eq!(
            err,
            DynError::ArityMismatch {
                expected: 4,
                actual: 3
            }
        );
    }

    #[test]
    fn insert_then_delete_same_batch_nets_out() {
        let mut rel = paper_relation();
        let mut batch = Batch::new();
        // The row inserted here will get id 4; delete it in the same batch.
        batch.insert(vec!["X", "Y", "Z", "W"]).delete(RecordId(4));
        let applied = rel.apply_batch(&batch).unwrap();
        assert!(applied.inserted.is_empty());
        assert!(applied.inserted_slots.is_empty());
        assert!(applied.deleted.is_empty());
        assert_eq!(rel.len(), 4);
        assert!(!rel.contains(RecordId(4)));
        // The id is still consumed.
        assert_eq!(rel.next_id(), RecordId(5));
        rel.check_arena_invariants().unwrap();
    }

    #[test]
    fn double_delete_in_one_batch_rejected() {
        let mut rel = paper_relation();
        let mut batch = Batch::new();
        batch.delete(RecordId(0)).delete(RecordId(0));
        assert_eq!(
            rel.apply_batch(&batch).unwrap_err(),
            DynError::DuplicateRecord(RecordId(0))
        );
    }

    #[test]
    fn delete_after_update_of_same_record_is_duplicate() {
        let mut rel = paper_relation();
        let mut batch = Batch::new();
        batch
            .update(RecordId(1), vec!["Max", "Miller", "10115", "Berlin"])
            .delete(RecordId(1));
        assert_eq!(
            rel.apply_batch(&batch).unwrap_err(),
            DynError::DuplicateRecord(RecordId(1))
        );
        assert_eq!(rel, paper_relation());
    }

    #[test]
    fn dictionary_overflow_pre_checked() {
        let mut rel = paper_relation();
        rel.set_dictionary_capacity(2, rel.dictionary(2).len() + 1);
        let snapshot = rel.clone();
        // Two fresh zip codes but headroom for one: rejected up front,
        // even though each row passes `check_row` in isolation.
        let mut batch = Batch::new();
        batch
            .insert(vec!["A", "B", "99991", "Golm"])
            .insert(vec!["C", "D", "99992", "Golm"]);
        assert_eq!(
            rel.apply_batch(&batch).unwrap_err(),
            DynError::DictionaryOverflow {
                attr: 2,
                capacity: 4
            }
        );
        assert_eq!(rel, snapshot);
        // One fresh zip (used twice) fits exactly.
        let mut ok = Batch::new();
        ok.insert(vec!["A", "B", "99991", "Golm"])
            .insert(vec!["C", "D", "99991", "Golm"]);
        rel.apply_batch(&ok).unwrap();
        assert_eq!(rel.dictionary(2).len(), 4);
    }

    #[test]
    fn rollback_restores_pre_batch_state_exactly() {
        let mut rel = paper_relation();
        // Pre-churn so the free-list is non-empty going into the batch.
        rel.delete_record(RecordId(1)).unwrap();
        let snapshot = rel.clone();
        let mut batch = Batch::new();
        batch
            .delete(RecordId(2))
            .insert(vec!["Marie", "Scott", "14467", "Potsdam"])
            .update(RecordId(0), vec!["Max", "Jones", "14482", "Golm"])
            .insert(vec!["X", "Y", "Z", "W"])
            .delete(RecordId(6)); // the "X Y Z W" insert: deferred delete
        let (applied, undo) = rel.apply_batch_logged(&batch).unwrap();
        assert!(applied.has_inserts() && applied.has_deletes());
        assert_ne!(rel, snapshot);
        rel.rollback(undo);
        assert_eq!(rel, snapshot);
        // The slot layout comes back too, free-list order included: the
        // same inserts land in the same slots on both.
        assert_eq!(rel.slot_rids(), snapshot.slot_rids());
        rel.check_arena_invariants().unwrap();
        let mut again = Batch::new();
        again
            .insert(vec!["P", "Q", "R", "S"])
            .insert(vec!["T", "U", "V", "W"]);
        let applied = rel.apply_batch(&again).unwrap();
        assert_eq!(applied.inserted, vec![RecordId(4), RecordId(5)]);
        let mut expected = snapshot;
        expected.apply_batch(&again).unwrap();
        assert_eq!(rel.slot_rids(), expected.slot_rids());
    }

    #[test]
    fn rollback_of_empty_batch_is_noop() {
        let mut rel = paper_relation();
        let snapshot = rel.clone();
        let (_, undo) = rel.apply_batch_logged(&Batch::new()).unwrap();
        assert!(undo.is_empty());
        rel.rollback(undo);
        assert_eq!(rel, snapshot);
    }

    #[test]
    fn ids_are_never_reused() {
        let mut rel = paper_relation();
        let mut batch = Batch::new();
        batch.delete(RecordId(3));
        rel.apply_batch(&batch).unwrap();
        let rid = rel.insert_row(&["P", "Q", "R", "S"]).unwrap();
        assert_eq!(rid, RecordId(4));
    }

    #[test]
    fn incremental_equals_rebuilt() {
        let mut rel = paper_relation();
        let mut batch = Batch::new();
        batch
            .delete(RecordId(2))
            .insert(vec!["Marie", "Scott", "14467", "Potsdam"])
            .update(RecordId(0), vec!["Max", "Jones", "14482", "Golm"]);
        rel.apply_batch(&batch).unwrap();
        let rebuilt = rel.rebuild_from_scratch();
        assert_eq!(rel.len(), rebuilt.len());
        for attr in 0..rel.arity() {
            // Dictionary codes may differ between incremental and rebuilt
            // relations (deleted values keep their codes); compare the
            // partitions as sets of rid clusters.
            let mut a = rid_clusters(&rel, attr);
            let mut b = rid_clusters(&rebuilt, attr);
            a.sort();
            b.sort();
            assert_eq!(a, b, "column {attr} partition diverged");
        }
    }

    fn churned() -> DynamicRelation {
        // Churn the paper relation so dictionaries hold dead codes, PLIs
        // have dropped clusters, and the arena has free slots — the
        // state a snapshot must restore.
        let mut rel = paper_relation();
        let mut batch = Batch::new();
        batch
            .delete(RecordId(2))
            .insert(vec!["Marie", "Scott", "14467", "Potsdam"])
            .update(RecordId(0), vec!["Max", "Jones", "14482", "Golm"]);
        rel.apply_batch(&batch).unwrap();
        rel.delete_record(RecordId(3)).unwrap();
        rel
    }

    #[test]
    fn from_parts_restores_equal_state() {
        let rel = churned();
        let dicts: Vec<Dictionary> = (0..rel.arity())
            .map(|a| {
                Dictionary::from_parts(
                    rel.dictionary(a).value_strings(),
                    rel.dictionary(a).capacity(),
                )
            })
            .collect();
        let records: Vec<(RecordId, Box<[ValueId]>)> = rel
            .records()
            .map(|(rid, codes)| (rid, codes.to_vec().into_boxed_slice()))
            .collect();
        let restored =
            DynamicRelation::from_parts(rel.schema().clone(), rel.next_id(), dicts, records)
                .unwrap();
        assert_eq!(restored, rel, "restore must be logically identical");
        restored.check_arena_invariants().unwrap();
    }

    #[test]
    fn from_parts_rejects_inconsistent_parts() {
        let rel = paper_relation();
        let dicts = |r: &DynamicRelation| -> Vec<Dictionary> {
            (0..r.arity())
                .map(|a| {
                    Dictionary::from_parts(
                        r.dictionary(a).value_strings(),
                        r.dictionary(a).capacity(),
                    )
                })
                .collect()
        };
        let recs = |r: &DynamicRelation| -> Vec<(RecordId, Box<[ValueId]>)> {
            r.records()
                .map(|(rid, c)| (rid, c.to_vec().into_boxed_slice()))
                .collect()
        };
        // Record id at the counter.
        let mut bad = recs(&rel);
        bad[0].0 = rel.next_id();
        assert!(matches!(
            DynamicRelation::from_parts(rel.schema().clone(), rel.next_id(), dicts(&rel), bad),
            Err(DynError::Parse(_))
        ));
        // Unassigned value code.
        let mut bad = recs(&rel);
        bad[0].1[0] = 9999;
        assert!(matches!(
            DynamicRelation::from_parts(rel.schema().clone(), rel.next_id(), dicts(&rel), bad),
            Err(DynError::Parse(_))
        ));
        // Duplicate record id.
        let mut bad = recs(&rel);
        let clone = bad[0].clone();
        bad.push(clone);
        assert!(matches!(
            DynamicRelation::from_parts(rel.schema().clone(), rel.next_id(), dicts(&rel), bad),
            Err(DynError::Parse(_))
        ));
    }

    #[test]
    fn materialize_roundtrips() {
        let rel = paper_relation();
        assert_eq!(
            rel.materialize(RecordId(3)).unwrap(),
            vec!["Anna", "Scott", "13591", "Berlin"]
        );
        assert_eq!(rel.materialize(RecordId(9)), None);
    }

    #[test]
    fn empty_relation_behaviour() {
        let mut rel = DynamicRelation::new(Schema::of("t", &["a", "b"]));
        assert!(rel.is_empty());
        let applied = rel.apply_batch(&Batch::new()).unwrap();
        assert!(!applied.has_inserts() && !applied.has_deletes());
        let rid = rel.insert_row(&["x", "y"]).unwrap();
        assert_eq!(rid, RecordId(0));
        assert!(!rel.is_empty());
    }

    #[test]
    fn heavy_churn_keeps_invariants_and_logical_state() {
        // Delete/reinsert interleaving: the slot-churn pattern the fuzz
        // profile stresses, checked directly here.
        let mut rel = DynamicRelation::new(Schema::anonymous("t", 3));
        let mut live: Vec<RecordId> = Vec::new();
        for round in 0..50u64 {
            let rid = rel
                .insert_row(&[
                    format!("a{}", round % 7),
                    format!("b{}", round % 3),
                    format!("c{round}"),
                ])
                .unwrap();
            live.push(rid);
            if round % 2 == 1 {
                // Delete an older record (front) to force slot reuse out
                // of rid order.
                let victim = live.remove((round as usize / 2) % live.len());
                rel.delete_record(victim).unwrap();
            }
        }
        rel.check_arena_invariants().unwrap();
        assert_eq!(rel.len(), live.len());
        let rebuilt = rel.rebuild_from_scratch();
        assert_eq!(rel.len(), rebuilt.len());
        for rid in live {
            assert_eq!(rel.materialize(rid), rebuilt.materialize(rid));
        }
    }
}
