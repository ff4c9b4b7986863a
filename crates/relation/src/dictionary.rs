//! Per-column value dictionaries.

use std::collections::HashMap;
use std::sync::Arc;

/// Dense integer code standing in for a column value.
///
/// Codes are assigned in first-seen order and are *stable*: a code, once
/// assigned to a value, refers to that value for the lifetime of the
/// relation, even if every record holding it is deleted. This keeps
/// compressed records immutable and lets PLI clusters be keyed by code.
pub type ValueId = u32;

/// The largest number of distinct values one column can ever hold:
/// codes are `u32`, so `0..=u32::MAX` distinct codes exist.
pub const DICTIONARY_CAPACITY: usize = u32::MAX as usize;

/// A per-column dictionary mapping string values to [`ValueId`] codes.
///
/// Values are *interned*: the code map and the code-ordered value list
/// share one `Arc<str>` allocation per distinct value, so a value string
/// is stored once, not twice, and probing ([`Dictionary::encode`],
/// [`Dictionary::lookup`]) borrows the query `&str` without allocating
/// (`Arc<str>: Borrow<str>` drives the map lookup).
///
/// The dictionary only ever grows during normal operation; a failed
/// batch is undone with [`Dictionary::truncate`], which is sound
/// because rollback first removes every record that referenced the
/// truncated codes. The memory held by codes whose values have vanished
/// from the relation is negligible next to the PLIs and compressed
/// records (and real change histories keep re-using values).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Dictionary {
    codes: HashMap<Arc<str>, ValueId>,
    values: Vec<Arc<str>>,
    /// Distinct-value budget; encoding past it is a batch-validation
    /// error ([`DynError::DictionaryOverflow`](dynfd_common::DynError)).
    /// Defaults to [`DICTIONARY_CAPACITY`]; tests shrink it to make the
    /// overflow path reachable.
    capacity: usize,
}

impl Default for Dictionary {
    fn default() -> Self {
        Dictionary {
            codes: HashMap::new(),
            values: Vec::new(),
            capacity: DICTIONARY_CAPACITY,
        }
    }
}

impl Dictionary {
    /// Creates an empty dictionary.
    pub fn new() -> Self {
        Dictionary::default()
    }

    /// The distinct-value budget of this dictionary.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Overrides the distinct-value budget. Shrinking it below the
    /// current [`Dictionary::len`] makes every further unseen value an
    /// overflow but never invalidates codes already handed out.
    pub fn set_capacity(&mut self, capacity: usize) {
        self.capacity = capacity.min(DICTIONARY_CAPACITY);
    }

    /// Whether encoding `value` would require a fresh code that the
    /// capacity does not cover. Only a full dictionary hashes `value`.
    pub fn would_overflow(&self, value: &str) -> bool {
        self.values.len() >= self.capacity && !self.codes.contains_key(value)
    }

    /// Undoes every code assigned at or after `len` (rollback of a
    /// failed batch). The caller guarantees no live record references a
    /// truncated code.
    pub fn truncate(&mut self, len: usize) {
        for value in self.values.drain(len..) {
            self.codes.remove(value.as_ref());
        }
    }

    /// Returns the code for `value`, assigning a fresh one if the value
    /// has never been seen. The probe borrows `value`; only a genuinely
    /// fresh value allocates (once — the interned `Arc<str>` is shared
    /// between the map key and the value list).
    pub fn encode(&mut self, value: &str) -> ValueId {
        if let Some(&code) = self.codes.get(value) {
            return code;
        }
        let code = self.values.len() as ValueId;
        let interned: Arc<str> = Arc::from(value);
        self.codes.insert(Arc::clone(&interned), code);
        self.values.push(interned);
        code
    }

    /// Returns the code for `value` if one has been assigned.
    pub fn lookup(&self, value: &str) -> Option<ValueId> {
        self.codes.get(value).copied()
    }

    /// Returns the value for a code assigned earlier.
    ///
    /// # Panics
    ///
    /// Panics if `code` was never assigned.
    pub fn decode(&self, code: ValueId) -> &str {
        &self.values[code as usize]
    }

    /// All values ever encoded, in code order (`values()[c]` is the
    /// value of code `c`). Dead codes — values no live record holds —
    /// are included: codes are stable for the relation's lifetime.
    pub fn values(&self) -> &[Arc<str>] {
        &self.values
    }

    /// The values as owned strings in code order (snapshot encoding and
    /// tests; the zero-copy view is [`Dictionary::values`]).
    pub fn value_strings(&self) -> Vec<String> {
        self.values.iter().map(|v| v.to_string()).collect()
    }

    /// Reconstructs a dictionary from its persisted parts: the full
    /// value list in code order (dead codes included, so every code a
    /// compressed record may reference decodes to its original value)
    /// and the configured capacity. The inverse of reading
    /// [`Dictionary::values`] and [`Dictionary::capacity`]; the result
    /// is structurally equal (`==`) to the dictionary it was saved from.
    pub fn from_parts(values: Vec<String>, capacity: usize) -> Self {
        let values: Vec<Arc<str>> = values.into_iter().map(Arc::from).collect();
        let codes = values
            .iter()
            .enumerate()
            .map(|(code, v)| (Arc::clone(v), code as ValueId))
            .collect();
        Dictionary {
            codes,
            values,
            capacity: capacity.min(DICTIONARY_CAPACITY),
        }
    }

    /// Approximate resident bytes: each interned value is stored once
    /// (the map key and the list entry share the `Arc<str>` allocation)
    /// plus per-entry map/list overhead. A monotone-in-footprint
    /// estimate for quota accounting, not an exact allocator number.
    pub fn approx_bytes(&self) -> usize {
        64 + self
            .values
            .iter()
            .map(|v| v.len() + 64) // string bytes + Arc header + map entry + list slot
            .sum::<usize>()
    }

    /// Number of distinct values ever encoded.
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// Whether no value has been encoded yet.
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn encode_is_idempotent() {
        let mut d = Dictionary::new();
        let a = d.encode("Potsdam");
        let b = d.encode("Berlin");
        assert_ne!(a, b);
        assert_eq!(d.encode("Potsdam"), a);
        assert_eq!(d.len(), 2);
    }

    #[test]
    fn codes_are_dense_and_first_seen_ordered() {
        let mut d = Dictionary::new();
        assert_eq!(d.encode("x"), 0);
        assert_eq!(d.encode("y"), 1);
        assert_eq!(d.encode("z"), 2);
    }

    #[test]
    fn decode_roundtrips() {
        let mut d = Dictionary::new();
        let c = d.encode("14482");
        assert_eq!(d.decode(c), "14482");
    }

    #[test]
    fn lookup_without_insert() {
        let mut d = Dictionary::new();
        assert_eq!(d.lookup("a"), None);
        d.encode("a");
        assert_eq!(d.lookup("a"), Some(0));
    }

    #[test]
    fn values_are_interned_not_cloned() {
        let mut d = Dictionary::new();
        d.encode("shared");
        let in_list = &d.values()[0];
        let in_map = d.codes.keys().next().expect("one interned key");
        assert!(
            Arc::ptr_eq(in_list, in_map),
            "map key and value list share one allocation"
        );
        // Re-encoding an existing value allocates nothing new.
        let before = Arc::strong_count(in_list);
        let _ = d.encode("shared");
        assert_eq!(Arc::strong_count(&d.values()[0]), before);
    }

    #[test]
    fn truncate_drops_interned_keys() {
        let mut d = Dictionary::new();
        d.encode("keep");
        d.encode("drop");
        d.truncate(1);
        assert_eq!(d.len(), 1);
        assert_eq!(d.lookup("drop"), None);
        assert_eq!(d.encode("drop"), 1, "re-assigned the freed code");
    }

    #[test]
    fn from_parts_roundtrips_including_dead_codes() {
        let mut d = Dictionary::new();
        d.encode("alive");
        d.encode("dead"); // pretend every record holding this is deleted
        d.encode("also-alive");
        d.set_capacity(100);
        let restored = Dictionary::from_parts(d.value_strings(), d.capacity());
        assert_eq!(restored, d);
        assert_eq!(restored.lookup("dead"), Some(1));
        assert_eq!(restored.decode(1), "dead");
    }

    #[test]
    fn empty_string_is_a_value() {
        // NULLs are modelled as empty strings and compare equal to each
        // other, the convention of FD discovery tooling.
        let mut d = Dictionary::new();
        let c = d.encode("");
        assert_eq!(d.encode(""), c);
        assert_eq!(d.decode(c), "");
    }
}
