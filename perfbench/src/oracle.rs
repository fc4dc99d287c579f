//! Row oracle: order-insensitive result fingerprints and the failure tally.

use pgso_graphstore::PropertyValue;
use std::collections::BTreeMap;

/// A result's rows as a multiset: the sorted 64-bit hashes of its rows.
/// Two results with equal `RowSet`s hold the same rows, each the same
/// number of times, in any order.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct RowSet(Vec<u64>);

impl RowSet {
    pub fn of(rows: &[Vec<PropertyValue>]) -> Self {
        let mut hashes: Vec<u64> = rows
            .iter()
            .map(|row| {
                let mut h = Fnv::new();
                h.u64(row.len() as u64);
                row.iter().for_each(|value| h.value(value));
                h.0
            })
            .collect();
        hashes.sort_unstable();
        Self(hashes)
    }

    /// Replaces one row of the reference with a row no result can hold.
    /// The self-test uses it to prove that a wrong reference is caught.
    pub fn corrupt(&mut self) {
        match self.0.first_mut() {
            Some(first) => *first ^= 0x5a5a_5a5a_5a5a_5a5a,
            None => self.0.push(0x5a5a_5a5a_5a5a_5a5a),
        }
        self.0.sort_unstable();
    }
}

/// FNV-1a over a tagged encoding of property values.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Self(0xcbf2_9ce4_8422_2325)
    }

    fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
    }

    fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }

    fn value(&mut self, value: &PropertyValue) {
        match value {
            PropertyValue::Null => self.bytes(&[0]),
            PropertyValue::Bool(b) => self.bytes(&[1, u8::from(*b)]),
            PropertyValue::Int(i) => {
                self.bytes(&[2]);
                self.u64(*i as u64);
            }
            PropertyValue::Float(f) => {
                self.bytes(&[3]);
                self.u64(f.to_bits());
            }
            PropertyValue::Str(s) => {
                self.bytes(&[4]);
                self.u64(s.len() as u64);
                self.bytes(s.as_bytes());
            }
            PropertyValue::List(items) => {
                self.bytes(&[5]);
                self.u64(items.len() as u64);
                items.iter().for_each(|item| self.value(item));
            }
        }
    }
}

/// Attempted and failed operations, with the failures broken down by the
/// name of the query (or check) that failed.
#[derive(Debug, Default)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
    failures: BTreeMap<String, u64>,
}

impl Tally {
    /// Counts one operation; `name` is only evaluated for a failure.
    pub fn check(&mut self, ok: bool, name: impl FnOnce() -> String) -> bool {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            *self.failures.entry(name()).or_default() += 1;
        }
        ok
    }

    pub fn merge(&mut self, other: Tally) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        for (name, n) in other.failures {
            *self.failures.entry(name).or_default() += n;
        }
    }

    pub fn fail_frac(&self) -> f64 {
        self.failed as f64 / self.attempted.max(1) as f64
    }

    /// One line per failing query name.
    pub fn lines(&self) -> Vec<String> {
        self.failures.iter().map(|(name, n)| format!("mismatch {name}: {n} ops")).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn row(values: &[&str]) -> Vec<PropertyValue> {
        values.iter().map(|v| PropertyValue::str(*v)).collect()
    }

    #[test]
    fn row_sets_ignore_order_but_count_duplicates() {
        let a = RowSet::of(&[row(&["x"]), row(&["y"]), row(&["y"])]);
        let b = RowSet::of(&[row(&["y"]), row(&["x"]), row(&["y"])]);
        let c = RowSet::of(&[row(&["y"]), row(&["x"])]);
        assert_eq!(a, b);
        assert_ne!(a, c);
        // "" versus a missing column, and a split string, are different rows.
        assert_ne!(RowSet::of(&[row(&["ab"])]), RowSet::of(&[row(&["a", "b"])]));
        assert_ne!(RowSet::of(&[row(&[""])]), RowSet::of(&[vec![PropertyValue::Null]]));
    }

    #[test]
    fn corrupted_reference_no_longer_matches() {
        let rows = [row(&["x"]), row(&["y"])];
        let mut reference = RowSet::of(&rows);
        reference.corrupt();
        let mut tally = Tally::default();
        tally.check(RowSet::of(&rows) == reference, || "Q".into());
        assert_eq!((tally.attempted, tally.failed), (1, 1));
        assert_eq!(tally.lines(), vec!["mismatch Q: 1 ops".to_string()]);
    }
}
