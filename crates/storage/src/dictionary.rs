#[expect(
    clippy::disallowed_types,
    reason = "import for the insert-only interning index below"
)]
use std::collections::HashMap;

use serde::{Deserialize, Serialize};

/// An order-of-insertion string dictionary mapping categorical values to
/// dense `u32` codes.
///
/// Every categorical column owns one. Codes are dense (`0..len`), so
/// downstream consumers (TANE partitions, supertuple bags, similarity
/// matrices) can use plain `Vec`s indexed by code instead of hash maps.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct Dictionary {
    values: Vec<String>,
    /// Insert-only interning index; codes come from insertion order in
    /// `values` and the map's iteration order is never observed.
    #[expect(
        clippy::disallowed_types,
        reason = "insert-only lookup; ordering comes from `values`"
    )]
    index: HashMap<String, u32>,
}

impl Dictionary {
    /// Empty dictionary.
    pub fn new() -> Self {
        Dictionary::default()
    }

    /// Code for `value`, inserting it if unseen.
    pub fn intern(&mut self, value: &str) -> u32 {
        if let Some(&code) = self.index.get(value) {
            return code;
        }
        #[expect(
            clippy::expect_used,
            reason = "hard capacity limit: 2^32 distinct strings cannot fit in memory, and wrapping codes would silently corrupt every consumer"
        )]
        let code = u32::try_from(self.values.len()).expect("dictionary exceeds u32 codes");
        self.values.push(value.to_owned());
        self.index.insert(value.to_owned(), code);
        code
    }

    /// Code for `value` if present.
    pub fn code_of(&self, value: &str) -> Option<u32> {
        self.index.get(value).copied()
    }

    /// String for `code` if in range.
    pub fn value_of(&self, code: u32) -> Option<&str> {
        self.values.get(code as usize).map(String::as_str)
    }

    /// Number of distinct values.
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// `true` when no values have been interned.
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    /// All values in code order.
    pub fn values(&self) -> &[String] {
        &self.values
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn intern_is_idempotent_and_dense() {
        let mut d = Dictionary::new();
        let a = d.intern("Ford");
        let b = d.intern("Toyota");
        let a2 = d.intern("Ford");
        assert_eq!(a, a2);
        assert_eq!(a, 0);
        assert_eq!(b, 1);
        assert_eq!(d.len(), 2);
    }

    #[test]
    fn lookup_round_trips() {
        let mut d = Dictionary::new();
        for (i, v) in ["a", "b", "c"].iter().enumerate() {
            let code = d.intern(v);
            assert_eq!(code as usize, i);
        }
        for code in 0..3u32 {
            let v = d.value_of(code).unwrap().to_owned();
            assert_eq!(d.code_of(&v), Some(code));
        }
        assert_eq!(d.code_of("missing"), None);
        assert_eq!(d.value_of(99), None);
    }

    #[test]
    fn values_in_code_order() {
        let mut d = Dictionary::new();
        d.intern("z");
        d.intern("a");
        d.intern("m");
        assert_eq!(d.values(), &["z", "a", "m"]);
    }

    #[test]
    fn empty_dictionary() {
        let d = Dictionary::new();
        assert!(d.is_empty());
        assert_eq!(d.len(), 0);
    }
}
