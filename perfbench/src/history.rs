//! Change-history synthesis with the initial table held fixed.
//!
//! `GeneratedDataset::generate` draws the column structure (which
//! columns are chains, leaves and noise), the initial rows and the
//! changes from one profile seed, so a different seed is a different FD
//! landscape and a different PLI-cache regime. The benchmark keeps the
//! paper profile's table — structure and initial rows from the profile
//! seed — and draws only the change history from its own seed, the same
//! way `GeneratedDataset::generate` does.

use dynfd_common::RecordId;
use dynfd_datagen::{DatasetProfile, GeneratedDataset};
use dynfd_relation::ChangeOp;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

/// `profile`'s table (structure and initial rows from `profile.seed`)
/// with a change history drawn from `history_seed`.
pub fn generate(profile: &DatasetProfile, history_seed: u64) -> GeneratedDataset {
    let spec = profile.table_spec();
    let mut key_counter = 0u64;
    let mut table_rng = ChaCha8Rng::seed_from_u64(profile.seed);
    let initial_rows: Vec<Vec<String>> = (0..profile.initial_rows)
        .map(|_| spec.generate_row(&mut table_rng, &mut key_counter))
        .collect();
    let mut rng = ChaCha8Rng::seed_from_u64(history_seed);

    // Live rows by record id; ids follow the relation's assignment:
    // initial rows 0..n, then one per insert or update, in order.
    let mut rows: Vec<Option<Vec<String>>> = initial_rows.iter().cloned().map(Some).collect();
    let mut live: Vec<RecordId> = (0..rows.len() as u64).map(RecordId).collect();
    let burst_starts: Vec<usize> = (0..profile.bursts)
        .map(|k| (k + 1) * profile.changes / (profile.bursts + 1))
        .collect();
    let in_burst = |pos: usize| {
        burst_starts
            .iter()
            .any(|&s| pos >= s && pos < s + profile.burst_len)
    };

    let mut changes = Vec::with_capacity(profile.changes);
    while changes.len() < profile.changes {
        let dirty = in_burst(changes.len());
        let roll = rng.gen::<f64>() * 100.0;
        let op = if roll < profile.insert_pct || live.is_empty() {
            let mut row = spec.generate_row(&mut rng, &mut key_counter);
            if dirty {
                spec.scramble_correlated(&mut row, &mut rng);
            }
            live.push(RecordId(rows.len() as u64));
            rows.push(Some(row.clone()));
            ChangeOp::Insert(row)
        } else if roll < profile.insert_pct + profile.delete_pct {
            let rid = live.swap_remove(rng.gen_range(0..live.len()));
            rows[rid.0 as usize] = None;
            ChangeOp::Delete(rid)
        } else {
            let rid = live.swap_remove(rng.gen_range(0..live.len()));
            let mut row = rows[rid.0 as usize].take().expect("live rows are mirrored");
            let touch = rng.gen_range(1..=profile.update_columns.max(1));
            let mut cols: Vec<usize> = (0..touch).map(|_| rng.gen_range(0..spec.arity())).collect();
            cols.sort_unstable();
            cols.dedup();
            let cols = spec.update_closure(&cols);
            spec.regenerate_columns(&mut row, &cols, &mut rng, &mut key_counter);
            if dirty {
                spec.scramble_correlated(&mut row, &mut rng);
            }
            live.push(RecordId(rows.len() as u64));
            rows.push(Some(row.clone()));
            ChangeOp::Update(rid, row)
        };
        changes.push(op);
    }
    GeneratedDataset {
        schema: spec.schema(),
        initial_rows,
        changes,
        profile: profile.clone(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dynfd_datagen::PAPER_PROFILES;

    #[test]
    fn seeds_change_the_history_not_the_table() {
        let p = DatasetProfile {
            initial_rows: 50,
            changes: 300,
            ..PAPER_PROFILES[1].clone()
        };
        let (a, b) = (generate(&p, 1), generate(&p, 2));
        assert_eq!(a.schema, b.schema);
        assert_eq!(a.initial_rows, b.initial_rows);
        assert_ne!(a.changes, b.changes);
        assert_eq!(generate(&p, 1).changes, a.changes, "deterministic per seed");
        let mut rel = a.to_relation();
        for batch in a.batches(25, None) {
            rel.apply_batch(&batch).expect("history replays cleanly");
        }
    }
}
