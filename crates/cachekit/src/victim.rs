//! Indexed victim selection over a replace-first window.
//!
//! The paper's victim searches are linear scans of the replace-first
//! region: max-IREN for result blocks (Fig. 11), size-match cascades for
//! inverted lists (Fig. 13), min-EV for memory lists (Fig. 12). These
//! structures maintain the same answers incrementally so a victim is an
//! O(log W) ordered-map lookup instead of an O(W·cost(score)) scan:
//!
//! * [`MaxScoreIndex`] — "highest score, ties to LRU-most" (IREN, −EV).
//! * [`OrderIndex`] — "LRU-most member" / "LRU-most matching member".
//! * [`SizeClassIndex`] — "LRU-most member of exactly this size class"
//!   (Fig. 13's same-size match).
//!
//! All three are keyed by the **window stamps** handed out by
//! [`crate::SegmentedLru`]: among current members a smaller stamp is
//! closer to the LRU end, so "first encountered by the reference scan"
//! equals "smallest stamp". The scans stay in `core` as the oracle: under
//! `INVARIANT_AUDIT` every eviction asserts the indexed victim equal to
//! the scan's on the same state.

use fxmap::FxHashMap;
use std::cmp::Reverse;
use std::collections::BTreeMap;
use std::fmt::Debug;
use std::hash::Hash;

use invariant::{Report, Validate};

/// Total-order wrapper for finite `f64` scores (EV values are positive
/// finite numbers, so `total_cmp` agrees with the reference scan's
/// `PartialOrd`).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OrdF64(pub f64);

impl Eq for OrdF64 {}

impl PartialOrd for OrdF64 {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for OrdF64 {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.0.total_cmp(&other.0)
    }
}

/// "Highest score wins, ties to the LRU-most entry" — the indexed form of
/// [`crate::SegmentedLru::best_in_replace_first`].
#[derive(Debug, Clone, Default)]
pub struct MaxScoreIndex<K, S> {
    by_score: BTreeMap<(S, Reverse<u64>), K>,
    by_key: FxHashMap<K, (S, u64)>,
}

impl<K: Eq + Hash + Clone, S: Ord + Copy> MaxScoreIndex<K, S> {
    /// Empty index.
    pub fn new() -> Self {
        MaxScoreIndex {
            by_score: BTreeMap::new(),
            by_key: FxHashMap::default(),
        }
    }

    /// Number of indexed members.
    pub fn len(&self) -> usize {
        self.by_key.len()
    }

    /// Whether no members are indexed.
    pub fn is_empty(&self) -> bool {
        self.by_key.is_empty()
    }

    /// Whether `key` is indexed.
    pub fn contains(&self, key: &K) -> bool {
        self.by_key.contains_key(key)
    }

    /// Add a member with its window stamp and current score. Panics on
    /// duplicate insertion — membership changes must be mirrored exactly.
    pub fn insert(&mut self, key: K, stamp: u64, score: S) {
        let prev = self.by_key.insert(key.clone(), (score, stamp));
        assert!(prev.is_none(), "duplicate window member");
        self.by_score.insert((score, Reverse(stamp)), key);
    }

    /// Drop a member; no-op if absent.
    pub fn remove(&mut self, key: &K) {
        if let Some((score, stamp)) = self.by_key.remove(key) {
            self.by_score.remove(&(score, Reverse(stamp)));
        }
    }

    /// Re-score a member in place; no-op if absent.
    pub fn update_score(&mut self, key: &K, score: S) {
        let Some(&(old, stamp)) = self.by_key.get(key) else {
            return;
        };
        if old == score {
            return;
        }
        self.by_score.remove(&(old, Reverse(stamp)));
        self.by_score.insert((score, Reverse(stamp)), key.clone());
        self.by_key.insert(key.clone(), (score, stamp));
    }

    /// The victim: highest score, ties to the smallest stamp (LRU-most),
    /// skipping at most one excluded key.
    pub fn peek_best(&self, exclude: Option<&K>) -> Option<&K> {
        self.by_score.values().rev().find(|k| Some(*k) != exclude)
    }

    /// The indexed `(score, stamp)` pair for `key`, if it is a member.
    /// Validators use this to cross-check the index against the window.
    pub fn entry(&self, key: &K) -> Option<(S, u64)> {
        self.by_key.get(key).copied()
    }

    /// Iterate every member as `(key, score, stamp)` in arbitrary order.
    pub fn iter(&self) -> impl Iterator<Item = (&K, S, u64)> {
        self.by_key.iter().map(|(k, &(s, t))| (k, s, t))
    }
}

impl<K, S> Validate for MaxScoreIndex<K, S>
where
    K: Eq + Hash + Clone + Debug,
    S: Ord + Copy + Debug,
{
    /// The two sides of the index must describe the same member set: every
    /// `by_key` entry must be findable in `by_score` under its exact
    /// `(score, Reverse(stamp))` key and map back to the same key.
    fn validate(&self, report: &mut Report) {
        report.check(
            self.by_score.len() == self.by_key.len(),
            "MaxScoreIndex",
            "sides-same-size",
            || {
                format!(
                    "by_score has {} entries, by_key has {}",
                    self.by_score.len(),
                    self.by_key.len()
                )
            },
        );
        for (key, &(score, stamp)) in &self.by_key {
            let found = self.by_score.get(&(score, Reverse(stamp)));
            report.check(
                found == Some(key),
                "MaxScoreIndex",
                "score-key-agree",
                || {
                    format!(
                        "{key:?} indexed at ({score:?}, stamp {stamp}) but \
                         by_score holds {found:?} there"
                    )
                },
            );
        }
    }
}

/// "The LRU-most member (of a marked subset)" — the indexed form of
/// [`crate::SegmentedLru::find_in_replace_first`] for a membership
/// predicate maintained by the caller.
#[derive(Debug, Clone, Default)]
pub struct OrderIndex<K> {
    by_stamp: BTreeMap<u64, K>,
    by_key: FxHashMap<K, u64>,
}

impl<K: Eq + Hash + Clone> OrderIndex<K> {
    /// Empty index.
    pub fn new() -> Self {
        OrderIndex {
            by_stamp: BTreeMap::new(),
            by_key: FxHashMap::default(),
        }
    }

    /// Number of indexed members.
    pub fn len(&self) -> usize {
        self.by_key.len()
    }

    /// Whether no members are indexed.
    pub fn is_empty(&self) -> bool {
        self.by_key.is_empty()
    }

    /// Whether `key` is indexed.
    pub fn contains(&self, key: &K) -> bool {
        self.by_key.contains_key(key)
    }

    /// Add a member with its window stamp. Panics on duplicates.
    pub fn insert(&mut self, key: K, stamp: u64) {
        let prev = self.by_key.insert(key.clone(), stamp);
        assert!(prev.is_none(), "duplicate window member");
        self.by_stamp.insert(stamp, key);
    }

    /// Drop a member; no-op if absent.
    pub fn remove(&mut self, key: &K) {
        if let Some(stamp) = self.by_key.remove(key) {
            self.by_stamp.remove(&stamp);
        }
    }

    /// The LRU-most member.
    pub fn first(&self) -> Option<&K> {
        self.by_stamp.values().next()
    }

    /// The indexed stamp for `key`, if it is a member.
    pub fn stamp_of(&self, key: &K) -> Option<u64> {
        self.by_key.get(key).copied()
    }

    /// Iterate every member as `(key, stamp)` in arbitrary order.
    pub fn iter(&self) -> impl Iterator<Item = (&K, u64)> {
        self.by_key.iter().map(|(k, &t)| (k, t))
    }
}

impl<K: Eq + Hash + Clone + Debug> Validate for OrderIndex<K> {
    /// `by_stamp` and `by_key` must be inverse maps of each other.
    fn validate(&self, report: &mut Report) {
        report.check(
            self.by_stamp.len() == self.by_key.len(),
            "OrderIndex",
            "sides-same-size",
            || {
                format!(
                    "by_stamp has {} entries, by_key has {}",
                    self.by_stamp.len(),
                    self.by_key.len()
                )
            },
        );
        for (key, &stamp) in &self.by_key {
            let found = self.by_stamp.get(&stamp);
            report.check(found == Some(key), "OrderIndex", "stamp-key-agree", || {
                format!("{key:?} indexed at stamp {stamp} but by_stamp holds {found:?} there")
            });
        }
    }
}

/// Fig. 13's same-size match: members bucketed by a size class, each
/// bucket ordered LRU-first. `first_of(size)` answers "the LRU-most
/// window entry whose size class equals the requested one".
#[derive(Debug, Clone, Default)]
pub struct SizeClassIndex<K> {
    buckets: FxHashMap<u64, BTreeMap<u64, K>>,
    by_key: FxHashMap<K, (u64, u64)>,
}

impl<K: Eq + Hash + Clone> SizeClassIndex<K> {
    /// Empty index.
    pub fn new() -> Self {
        SizeClassIndex {
            buckets: FxHashMap::default(),
            by_key: FxHashMap::default(),
        }
    }

    /// Number of indexed members.
    pub fn len(&self) -> usize {
        self.by_key.len()
    }

    /// Whether no members are indexed.
    pub fn is_empty(&self) -> bool {
        self.by_key.is_empty()
    }

    /// Add a member with its window stamp and size class. Panics on
    /// duplicates.
    pub fn insert(&mut self, key: K, stamp: u64, size: u64) {
        let prev = self.by_key.insert(key.clone(), (size, stamp));
        assert!(prev.is_none(), "duplicate window member");
        self.buckets.entry(size).or_default().insert(stamp, key);
    }

    /// Drop a member; no-op if absent.
    pub fn remove(&mut self, key: &K) {
        if let Some((size, stamp)) = self.by_key.remove(key) {
            let bucket = self.buckets.get_mut(&size).expect("bucket exists");
            bucket.remove(&stamp);
            if bucket.is_empty() {
                self.buckets.remove(&size);
            }
        }
    }

    /// The LRU-most member of exactly this size class.
    pub fn first_of(&self, size: u64) -> Option<&K> {
        self.buckets.get(&size)?.values().next()
    }

    /// The indexed `(size, stamp)` pair for `key`, if it is a member.
    pub fn entry(&self, key: &K) -> Option<(u64, u64)> {
        self.by_key.get(key).copied()
    }

    /// Iterate every member as `(key, size, stamp)` in arbitrary order.
    pub fn iter(&self) -> impl Iterator<Item = (&K, u64, u64)> {
        self.by_key.iter().map(|(k, &(s, t))| (k, s, t))
    }
}

impl<K: Eq + Hash + Clone + Debug> Validate for SizeClassIndex<K> {
    /// Buckets and the reverse map must agree, and no bucket may be left
    /// empty (remove() is responsible for pruning them).
    fn validate(&self, report: &mut Report) {
        let bucketed: usize = self.buckets.values().map(|b| b.len()).sum();
        report.check(
            bucketed == self.by_key.len(),
            "SizeClassIndex",
            "sides-same-size",
            || {
                format!(
                    "buckets hold {bucketed} entries, by_key has {}",
                    self.by_key.len()
                )
            },
        );
        for (size, bucket) in &self.buckets {
            report.check(
                !bucket.is_empty(),
                "SizeClassIndex",
                "no-empty-buckets",
                || format!("size class {size} has an empty bucket"),
            );
        }
        for (key, &(size, stamp)) in &self.by_key {
            let found = self.buckets.get(&size).and_then(|b| b.get(&stamp));
            report.check(
                found == Some(key),
                "SizeClassIndex",
                "bucket-key-agree",
                || {
                    format!(
                        "{key:?} indexed at (size {size}, stamp {stamp}) but \
                         the bucket holds {found:?} there"
                    )
                },
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn max_score_prefers_high_score_then_lru() {
        let mut idx: MaxScoreIndex<u32, u64> = MaxScoreIndex::new();
        idx.insert(1, 10, 5);
        idx.insert(2, 11, 9);
        idx.insert(3, 12, 9); // same score, more MRU than 2
        assert_eq!(idx.peek_best(None), Some(&2), "ties go to the LRU-most");
        idx.remove(&2);
        assert_eq!(idx.peek_best(None), Some(&3));
        assert_eq!(idx.peek_best(Some(&3)), Some(&1));
        assert_eq!(idx.len(), 2);
    }

    #[test]
    fn max_score_update_rekeys() {
        let mut idx: MaxScoreIndex<u32, u64> = MaxScoreIndex::new();
        idx.insert(1, 10, 5);
        idx.insert(2, 11, 4);
        idx.update_score(&2, 100);
        assert_eq!(idx.peek_best(None), Some(&2));
        idx.update_score(&9, 1_000); // absent: no-op
        assert_eq!(idx.len(), 2);
    }

    #[test]
    fn max_score_exclusion_of_sole_member() {
        let mut idx: MaxScoreIndex<u32, u64> = MaxScoreIndex::new();
        idx.insert(7, 1, 3);
        assert_eq!(idx.peek_best(Some(&7)), None);
        assert_eq!(idx.peek_best(None), Some(&7));
    }

    #[test]
    fn ord_f64_orders_like_partial_cmp() {
        let mut v = [OrdF64(3.5), OrdF64(-1.0), OrdF64(0.25)];
        v.sort();
        assert_eq!(v, [OrdF64(-1.0), OrdF64(0.25), OrdF64(3.5)]);
        assert!(OrdF64(f64::NEG_INFINITY) < OrdF64(-1e308));
    }

    #[test]
    fn order_index_returns_lru_most() {
        let mut idx: OrderIndex<u32> = OrderIndex::new();
        idx.insert(5, 20);
        idx.insert(6, 7);
        idx.insert(7, 30);
        assert_eq!(idx.first(), Some(&6));
        idx.remove(&6);
        assert_eq!(idx.first(), Some(&5));
        idx.remove(&5);
        idx.remove(&7);
        assert_eq!(idx.first(), None);
    }

    #[test]
    fn size_class_lookup() {
        let mut idx: SizeClassIndex<u32> = SizeClassIndex::new();
        idx.insert(1, 10, 3);
        idx.insert(2, 11, 3);
        idx.insert(3, 12, 8);
        assert_eq!(idx.first_of(3), Some(&1), "LRU-most of the class");
        assert_eq!(idx.first_of(8), Some(&3));
        assert_eq!(idx.first_of(5), None);
        idx.remove(&1);
        assert_eq!(idx.first_of(3), Some(&2));
        idx.remove(&2);
        idx.remove(&3);
        assert!(idx.is_empty());
    }
}
