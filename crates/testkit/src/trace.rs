//! Seeded trace generation.
//!
//! A [`Trace`] is a fully self-contained fuzzing input: a schema, the
//! initial rows, a script of change operations, and a batch size. The
//! script references records *positionally* ([`TraceOp::DeleteNth`] /
//! [`TraceOp::UpdateNth`] index into the list of live records modulo its
//! length), which keeps every subsequence of a trace replayable — the
//! property the delta-debugging shrinker relies on.
//!
//! Generation layers on `dynfd-datagen`: each [`TraceProfile`] builds a
//! [`TableSpec`] whose column models shape the FD landscape (Zipf-skewed
//! categoricals, derived hierarchy chains, nullable columns), and rows
//! for inserts and updates come from that spec. Everything is seeded
//! ChaCha8, so a `(seed, case)` pair always regenerates the identical
//! trace, bit for bit.

use dynfd_common::{RecordId, Schema};
use dynfd_datagen::{ColumnModel, DatasetProfile, TableSpec};
use dynfd_relation::{Batch, ChangeOp, DynamicRelation};
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

/// The adversarial data shapes the generator can produce. Each profile
/// targets a different stress point of the maintenance algorithms.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TraceProfile {
    /// Independent low-cardinality categoricals — many accidental FDs
    /// that appear and disappear under churn.
    Uniform,
    /// A datagen-style hierarchy table (key, Zipf root, derived chains,
    /// noisy correlated leaves) — the realistic FD landscape.
    ZipfSkewed,
    /// Tiny value domains, heavily skewed: most rows are duplicates of
    /// each other, PLI clusters are huge, and covers sit near the top of
    /// the lattice.
    AllDuplicates,
    /// Half the columns are unique keys — covers collapse to key FDs and
    /// the negative cover hugs the bottom of the lattice.
    KeyHeavy,
    /// Most values are the null placeholder (empty string) — one giant
    /// cluster per column, the worst case for cluster pruning and the
    /// violation search.
    NullHeavy,
    /// Heavy delete/reinsert interleaving over a modest relation: waves
    /// of deletes immediately followed by waves of inserts, so arena
    /// slots are freed and re-occupied constantly. Stresses the columnar
    /// store's free-list reuse and the rid-sorted cluster order under
    /// slot recycling.
    SlotChurn,
}

impl TraceProfile {
    /// All profiles, in the order the fuzz binary cycles through them.
    pub const ALL: [TraceProfile; 6] = [
        TraceProfile::Uniform,
        TraceProfile::ZipfSkewed,
        TraceProfile::AllDuplicates,
        TraceProfile::KeyHeavy,
        TraceProfile::NullHeavy,
        TraceProfile::SlotChurn,
    ];

    /// The profile's name as used in repro files and reports.
    pub fn name(self) -> &'static str {
        match self {
            TraceProfile::Uniform => "uniform",
            TraceProfile::ZipfSkewed => "zipf-skewed",
            TraceProfile::AllDuplicates => "all-duplicates",
            TraceProfile::KeyHeavy => "key-heavy",
            TraceProfile::NullHeavy => "null-heavy",
            TraceProfile::SlotChurn => "slot-churn",
        }
    }

    /// Looks a profile up by its [`TraceProfile::name`].
    pub fn by_name(name: &str) -> Option<TraceProfile> {
        TraceProfile::ALL.iter().copied().find(|p| p.name() == name)
    }

    /// Builds the datagen [`TableSpec`] for a `width`-column relation of
    /// this shape (deterministic in `seed`).
    pub fn table_spec(self, width: usize, seed: u64) -> TableSpec {
        assert!(width >= 1, "trace relations need at least one column");
        match self {
            TraceProfile::Uniform => {
                let cols = (0..width)
                    .map(|i| ColumnModel::Categorical {
                        cardinality: 2 + i % 3,
                        skew: 0.0,
                    })
                    .collect();
                TableSpec::new("uniform", cols)
            }
            TraceProfile::ZipfSkewed => {
                // Reuse datagen's hierarchy-chain machinery wholesale:
                // only the shape parameters matter here.
                DatasetProfile {
                    name: "zipf-skewed",
                    columns: width,
                    initial_rows: 32,
                    changes: 0,
                    insert_pct: 100.0,
                    delete_pct: 0.0,
                    update_pct: 0.0,
                    update_columns: 1,
                    seed,
                    bursts: 0,
                    burst_len: 0,
                }
                .table_spec()
            }
            TraceProfile::AllDuplicates => {
                let cols = (0..width)
                    .map(|i| {
                        if i % 3 == 2 {
                            // Constant columns: ∅ -> c holds structurally.
                            ColumnModel::Categorical {
                                cardinality: 1,
                                skew: 0.0,
                            }
                        } else {
                            ColumnModel::Categorical {
                                cardinality: 2,
                                skew: 1.5,
                            }
                        }
                    })
                    .collect();
                TableSpec::new("all-duplicates", cols)
            }
            TraceProfile::KeyHeavy => {
                let cols = (0..width)
                    .map(|i| {
                        if i % 2 == 0 {
                            ColumnModel::Key
                        } else {
                            ColumnModel::Categorical {
                                cardinality: 3,
                                skew: 1.0,
                            }
                        }
                    })
                    .collect();
                TableSpec::new("key-heavy", cols)
            }
            TraceProfile::NullHeavy => {
                let cols = (0..width)
                    .map(|i| {
                        if i == 0 {
                            // One denser column so the relation is not all
                            // nulls.
                            ColumnModel::Categorical {
                                cardinality: 4,
                                skew: 1.0,
                            }
                        } else {
                            ColumnModel::Nullable {
                                cardinality: 3,
                                skew: 1.0,
                                null_rate: 0.6,
                            }
                        }
                    })
                    .collect();
                TableSpec::new("null-heavy", cols)
            }
            TraceProfile::SlotChurn => {
                // One key column plus small-domain categoricals: deleted
                // and reinserted rows frequently land in the *same* PLI
                // clusters their predecessors vacated, so a stale slot
                // surviving anywhere shows up as a wrong verdict.
                let cols = (0..width)
                    .map(|i| match i % 4 {
                        0 => ColumnModel::Key,
                        1 => ColumnModel::Categorical {
                            cardinality: 2,
                            skew: 1.0,
                        },
                        2 => ColumnModel::Categorical {
                            cardinality: 4,
                            skew: 0.5,
                        },
                        _ => ColumnModel::Categorical {
                            cardinality: 3,
                            skew: 0.0,
                        },
                    })
                    .collect();
                TableSpec::new("slot-churn", cols)
            }
        }
    }
}

/// One scripted change operation. Delete/update targets are *positions*
/// into the live-record list (modulo its length), not record ids, so any
/// subsequence of a script remains replayable — see the module docs.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum TraceOp {
    /// Insert a new row.
    Insert(Vec<String>),
    /// Delete the record at position `n % live.len()` of the live list.
    /// A no-op while the relation is empty.
    DeleteNth(usize),
    /// Update the record at position `n % live.len()` to the given row.
    /// A no-op while the relation is empty.
    UpdateNth(usize, Vec<String>),
}

/// A self-contained, deterministic fuzzing input.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Trace {
    /// The seed the trace was generated from (0 for hand-built traces).
    pub seed: u64,
    /// Generator profile name (informational; hand-built traces use
    /// `"manual"`).
    pub profile: String,
    /// The relation schema.
    pub schema: Schema,
    /// Initial tuples (record ids `0..initial_rows.len()`).
    pub initial_rows: Vec<Vec<String>>,
    /// The change script, in order.
    pub ops: Vec<TraceOp>,
    /// Ops per batch when replaying (the last batch may be shorter).
    pub batch_size: usize,
}

impl Trace {
    /// Generates the trace for fuzz case `case` of stream `seed`: the
    /// profile cycles through [`TraceProfile::ALL`] and every size
    /// parameter (width 2–12, rows, ops, batch size) is drawn from a
    /// ChaCha8 stream keyed on `(seed, case)`.
    pub fn for_case(seed: u64, case: u64) -> Trace {
        let profile = TraceProfile::ALL[(case % TraceProfile::ALL.len() as u64) as usize];
        // SplitMix-style key mixing so nearby (seed, case) pairs land on
        // unrelated streams.
        let mut key = seed ^ case.wrapping_mul(0x9E3779B97F4A7C15);
        key ^= key >> 30;
        key = key.wrapping_mul(0xBF58476D1CE4E5B9);
        Trace::generate(profile, key)
    }

    /// Generates a trace of the given profile (deterministic in `seed`).
    ///
    /// Wide relations (9–12 columns) get fewer rows and ops: the
    /// differential oracles re-discover from scratch after every batch,
    /// and their lattices grow exponentially with width.
    pub fn generate(profile: TraceProfile, seed: u64) -> Trace {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let wide = rng.gen_bool(0.2);
        let width = if wide {
            rng.gen_range(9usize..=12)
        } else {
            rng.gen_range(2usize..=8)
        };
        let initial = if wide {
            rng.gen_range(5usize..=10)
        } else {
            rng.gen_range(8usize..=24)
        };
        let op_count = if wide {
            rng.gen_range(6usize..=10)
        } else {
            rng.gen_range(10usize..=28)
        };
        let batch_size = rng.gen_range(1usize..=5);

        let spec = profile.table_spec(width, seed);
        let mut key_counter = 0u64;
        let initial_rows: Vec<Vec<String>> = (0..initial)
            .map(|_| spec.generate_row(&mut rng, &mut key_counter))
            .collect();

        let mut ops = Vec::with_capacity(op_count);
        if profile == TraceProfile::SlotChurn {
            // Alternating delete and insert waves: every delete wave
            // pushes slots onto the free-list, the following insert wave
            // pops them back off (LIFO), so the same arena slots are
            // recycled many times within one trace.
            let mut deleting = true;
            while ops.len() < op_count {
                let wave = rng.gen_range(2usize..=4).min(op_count - ops.len());
                for _ in 0..wave {
                    if deleting {
                        ops.push(TraceOp::DeleteNth(rng.gen_range(0usize..64)));
                    } else if rng.gen_bool(0.15) {
                        // A few updates keep the delete+insert-in-one-op
                        // path (deferred deletes, slot handoff) hot too.
                        let row = spec.generate_row(&mut rng, &mut key_counter);
                        ops.push(TraceOp::UpdateNth(rng.gen_range(0usize..64), row));
                    } else {
                        let row = spec.generate_row(&mut rng, &mut key_counter);
                        ops.push(TraceOp::Insert(row));
                    }
                }
                deleting = !deleting;
            }
            return Trace {
                seed,
                profile: profile.name().to_string(),
                schema: spec.schema(),
                initial_rows,
                ops,
                batch_size: batch_size.max(1),
            };
        }
        for _ in 0..op_count {
            match rng.gen_range(0u32..10) {
                // 40 % inserts, and occasionally an exact duplicate of an
                // earlier insert — duplicates are where minimality bugs
                // hide.
                0..=3 => {
                    let dup = !ops.is_empty() && rng.gen_bool(0.15);
                    let row = if dup {
                        let prior: Vec<&Vec<String>> = ops
                            .iter()
                            .filter_map(|op| match op {
                                TraceOp::Insert(r) | TraceOp::UpdateNth(_, r) => Some(r),
                                TraceOp::DeleteNth(_) => None,
                            })
                            .collect();
                        if prior.is_empty() {
                            spec.generate_row(&mut rng, &mut key_counter)
                        } else {
                            prior[rng.gen_range(0..prior.len())].clone()
                        }
                    } else {
                        spec.generate_row(&mut rng, &mut key_counter)
                    };
                    ops.push(TraceOp::Insert(row));
                }
                // 30 % deletes.
                4..=6 => ops.push(TraceOp::DeleteNth(rng.gen_range(0usize..64))),
                // 30 % updates.
                _ => {
                    let row = spec.generate_row(&mut rng, &mut key_counter);
                    ops.push(TraceOp::UpdateNth(rng.gen_range(0usize..64), row));
                }
            }
        }

        Trace {
            seed,
            profile: profile.name().to_string(),
            schema: spec.schema(),
            initial_rows,
            ops,
            batch_size: batch_size.max(1),
        }
    }

    /// Number of columns.
    pub fn arity(&self) -> usize {
        self.schema.arity()
    }

    /// Builds the initial [`DynamicRelation`].
    pub fn to_relation(&self) -> DynamicRelation {
        DynamicRelation::from_rows(self.schema.clone(), &self.initial_rows)
            .expect("trace rows match the trace schema")
    }

    /// Resolves the positional script into concrete [`ChangeOp`]s,
    /// mirroring the deterministic id assignment of
    /// [`DynamicRelation::apply_batch`]: initial rows get `0..n`, every
    /// insert (and every update's new version) the next id. Ops that
    /// target an empty relation are dropped.
    ///
    /// The resolution depends only on op order, never on batching, so
    /// re-chunking the returned stream yields byte-identical relations —
    /// the foundation of the batch-splitting metamorphic check.
    pub fn to_change_ops(&self) -> Vec<ChangeOp> {
        let mut live: Vec<RecordId> = (0..self.initial_rows.len() as u64).map(RecordId).collect();
        let mut next_id = self.initial_rows.len() as u64;
        let mut out = Vec::with_capacity(self.ops.len());
        for op in &self.ops {
            match op {
                TraceOp::Insert(row) => {
                    out.push(ChangeOp::Insert(row.clone()));
                    live.push(RecordId(next_id));
                    next_id += 1;
                }
                TraceOp::DeleteNth(n) => {
                    if live.is_empty() {
                        continue;
                    }
                    let rid = live.swap_remove(n % live.len());
                    out.push(ChangeOp::Delete(rid));
                }
                TraceOp::UpdateNth(n, row) => {
                    if live.is_empty() {
                        continue;
                    }
                    let rid = live.swap_remove(n % live.len());
                    out.push(ChangeOp::Update(rid, row.clone()));
                    live.push(RecordId(next_id));
                    next_id += 1;
                }
            }
        }
        out
    }

    /// The resolved change stream chunked into batches of
    /// [`Trace::batch_size`].
    pub fn to_batches(&self) -> Vec<Batch> {
        Batch::chunk(self.to_change_ops(), self.batch_size)
    }

    /// Deterministic rows for the insert-then-delete round-trip check:
    /// duplicates of existing trace rows (exact duplicates stress the
    /// minimality and dedup paths hardest), padded with a constant row
    /// when the trace has none.
    pub fn roundtrip_rows(&self, n: usize) -> Vec<Vec<String>> {
        let pool: Vec<&Vec<String>> = self
            .initial_rows
            .iter()
            .chain(self.ops.iter().filter_map(|op| match op {
                TraceOp::Insert(r) | TraceOp::UpdateNth(_, r) => Some(r),
                TraceOp::DeleteNth(_) => None,
            }))
            .collect();
        (0..n)
            .map(|i| {
                if pool.is_empty() {
                    vec!["w0".to_string(); self.arity()]
                } else {
                    pool[i % pool.len()].clone()
                }
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generation_is_deterministic_per_seed_and_case() {
        for case in 0..5 {
            let a = Trace::for_case(7, case);
            let b = Trace::for_case(7, case);
            assert_eq!(a, b);
        }
        assert_ne!(Trace::for_case(7, 0), Trace::for_case(8, 0));
    }

    #[test]
    fn cases_cycle_all_profiles() {
        let names: Vec<String> = (0..TraceProfile::ALL.len() as u64)
            .map(|c| Trace::for_case(3, c).profile)
            .collect();
        for p in TraceProfile::ALL {
            assert!(names.contains(&p.name().to_string()), "{}", p.name());
        }
    }

    #[test]
    fn widths_stay_in_the_2_to_12_band() {
        for seed in 0..40 {
            for profile in TraceProfile::ALL {
                let t = Trace::generate(profile, seed);
                assert!((2..=12).contains(&t.arity()), "{}", t.arity());
                for row in &t.initial_rows {
                    assert_eq!(row.len(), t.arity());
                }
            }
        }
    }

    #[test]
    fn resolved_streams_replay_cleanly() {
        for seed in 0..20 {
            for profile in TraceProfile::ALL {
                let t = Trace::generate(profile, seed);
                let mut rel = t.to_relation();
                for batch in t.to_batches() {
                    rel.apply_batch(&batch).expect("trace must replay");
                }
            }
        }
    }

    #[test]
    fn resolution_is_batching_invariant() {
        let t = Trace::generate(TraceProfile::Uniform, 11);
        let ops = t.to_change_ops();
        // Replaying the same resolved stream at different chunkings must
        // land on the identical final relation.
        let final_rows = |size: usize| {
            let mut rel = t.to_relation();
            for batch in Batch::chunk(ops.clone(), size) {
                rel.apply_batch(&batch).unwrap();
            }
            let mut rows: Vec<Vec<String>> = rel
                .record_ids()
                .map(|rid| rel.materialize(rid).unwrap())
                .collect();
            rows.sort();
            rows
        };
        assert_eq!(final_rows(1), final_rows(4));
    }

    #[test]
    fn null_heavy_traces_contain_nulls() {
        let t = Trace::generate(TraceProfile::NullHeavy, 5);
        let nulls = t
            .initial_rows
            .iter()
            .flatten()
            .filter(|v| v.is_empty())
            .count();
        assert!(nulls > 0, "null-heavy profile must produce empty strings");
    }

    #[test]
    fn subsequences_of_ops_stay_replayable() {
        // The shrinker's core assumption: dropping arbitrary ops keeps
        // the trace valid.
        let t = Trace::generate(TraceProfile::KeyHeavy, 9);
        let mut odd = t.clone();
        odd.ops = t.ops.iter().step_by(2).cloned().collect();
        let mut rel = odd.to_relation();
        for batch in odd.to_batches() {
            rel.apply_batch(&batch).expect("subsequence must replay");
        }
    }
}
