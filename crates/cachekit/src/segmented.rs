//! The paper's two-region LRU list.
//!
//! CBLRU (Sec. VI-C) splits the recency list into a **Working Region**
//! (most-recently-used side) and a **Replace-First Region**: the `W`
//! least-recently-used entries. Victims are searched in the replace-first
//! region first — by invalid-entry count for result blocks (Fig. 11), by
//! size match for inverted lists (Fig. 13) — and only in the worst case in
//! the whole list.
//!
//! [`SegmentedLru`] wraps [`LruList`] with region-aware scans whose
//! closures read each entry's value in place. The window is a *view*,
//! not a partition with its own lists: entries drift into the
//! replace-first region simply by not being touched, exactly as in the
//! paper's figures.

use std::hash::Hash;

use crate::lru::LruList;

/// An LRU map with a replace-first window of size `W` at the LRU end.
#[derive(Debug, Clone)]
pub struct SegmentedLru<K, V> {
    list: LruList<K, V>,
    window: usize,
}

impl<K: Eq + Hash + Clone, V> SegmentedLru<K, V> {
    /// Create with a replace-first window of `window` entries (`W` in the
    /// paper). A window of 0 degenerates to plain LRU victim selection
    /// via [`SegmentedLru::pop_lru`].
    pub fn new(window: usize) -> Self {
        SegmentedLru {
            list: LruList::new(),
            window,
        }
    }

    /// Number of entries.
    pub fn len(&self) -> usize {
        self.list.len()
    }

    /// Whether empty.
    pub fn is_empty(&self) -> bool {
        self.list.is_empty()
    }

    /// Whether `key` is present.
    pub fn contains(&self, key: &K) -> bool {
        self.list.contains(key)
    }

    /// Insert as MRU (panics if present).
    pub fn insert_mru(&mut self, key: K, value: V) {
        self.list.insert_mru(key, value);
    }

    /// The value of `key`, without a recency effect.
    pub fn get(&self, key: &K) -> Option<&V> {
        self.list.get(key)
    }

    /// The value of `key` for update, without a recency effect.
    pub fn get_mut(&mut self, key: &K) -> Option<&mut V> {
        self.list.get_mut(key)
    }

    /// Promote to MRU and return the value; `None` if absent.
    pub fn touch(&mut self, key: &K) -> Option<&mut V> {
        self.list.touch(key)
    }

    /// Remove, returning the value; `None` if absent.
    pub fn remove(&mut self, key: &K) -> Option<V> {
        self.list.remove(key)
    }

    /// Remove and return the strict LRU entry.
    pub fn pop_lru(&mut self) -> Option<(K, V)> {
        self.list.pop_lru()
    }

    /// Iterate the replace-first region, LRU first (at most `W` entries).
    pub fn iter_replace_first(&self) -> impl Iterator<Item = (&K, &V)> {
        self.list.iter_lru().take(self.window)
    }

    /// Iterate the whole list, LRU first.
    pub fn iter_lru(&self) -> impl Iterator<Item = (&K, &V)> {
        self.list.iter_lru()
    }

    /// Whether `key` currently sits inside the replace-first region (a
    /// scan of at most `W` entries).
    pub fn in_replace_first(&self, key: &K) -> bool {
        self.iter_replace_first().any(|(k, _)| k == key)
    }

    /// The best victim in the replace-first region by `score` (higher is
    /// more evictable); `None` if the list is empty. Ties go to the less
    /// recently used entry, i.e. the first encountered.
    pub fn best_in_replace_first<S, F>(&self, mut score: F) -> Option<&K>
    where
        S: PartialOrd,
        F: FnMut(&K, &V) -> S,
    {
        let mut best: Option<(&K, S)> = None;
        for (k, v) in self.iter_replace_first() {
            let s = score(k, v);
            match &best {
                None => best = Some((k, s)),
                Some((_, bs)) if s > *bs => best = Some((k, s)),
                _ => {}
            }
        }
        best.map(|(k, _)| k)
    }

    /// The first (most-LRU) entry in the replace-first region satisfying
    /// `pred`.
    pub fn find_in_replace_first<F>(&self, mut pred: F) -> Option<&K>
    where
        F: FnMut(&K, &V) -> bool,
    {
        self.iter_replace_first()
            .find(|&(k, v)| pred(k, v))
            .map(|(k, _)| k)
    }

    /// The first entry satisfying `pred` scanning the *entire* list from
    /// the LRU end — the paper's worst-case fallback ("the cache manager
    /// will look up in a wider region, namely in all the LRU list").
    pub fn find_anywhere<F>(&self, mut pred: F) -> Option<&K>
    where
        F: FnMut(&K, &V) -> bool,
    {
        self.iter_lru().find(|&(k, v)| pred(k, v)).map(|(k, _)| k)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn filled(window: usize, n: u32) -> SegmentedLru<u32, u32> {
        let mut s = SegmentedLru::new(window);
        for k in 0..n {
            s.insert_mru(k, k % 2); // 0 is LRU, n-1 is MRU
        }
        s
    }

    /// Keys of the replace-first region, LRU first.
    fn region(s: &SegmentedLru<u32, u32>) -> Vec<u32> {
        s.iter_replace_first().map(|(&k, _)| k).collect()
    }

    #[test]
    fn replace_first_region_is_the_lru_tail() {
        let s = filled(3, 10);
        assert_eq!(region(&s), vec![0, 1, 2]);
        assert!(s.in_replace_first(&0));
        assert!(!s.in_replace_first(&5));
    }

    #[test]
    fn window_larger_than_list_covers_everything() {
        let s = filled(100, 4);
        assert_eq!(s.iter_replace_first().count(), 4);
    }

    #[test]
    fn touching_moves_an_entry_out_of_the_window() {
        let mut s = filled(3, 10);
        assert!(s.in_replace_first(&1));
        s.touch(&1);
        assert!(!s.in_replace_first(&1));
        // Entry 3 drifted in to take its place.
        assert_eq!(region(&s), vec![0, 2, 3]);
    }

    #[test]
    fn best_in_replace_first_maximizes_score() {
        let s = filled(4, 10);
        // Score: prefer even keys, then larger.
        let v = s.best_in_replace_first(|&k, _| (k % 2 == 0) as u32 * 100 + k);
        assert_eq!(v, Some(&2));
    }

    #[test]
    fn best_breaks_ties_towards_lru() {
        let s = filled(4, 10);
        let v = s.best_in_replace_first(|_, _| 1u32);
        assert_eq!(v, Some(&0), "constant score must pick the LRU entry");
    }

    #[test]
    fn find_falls_back_to_whole_list() {
        let s = filled(2, 10);
        assert_eq!(s.find_in_replace_first(|&k, _| k == 7), None);
        assert_eq!(s.find_anywhere(|&k, _| k == 7), Some(&7));
        // The closures see each entry's value in place.
        assert_eq!(s.find_in_replace_first(|_, &odd| odd == 1), Some(&1));
    }

    #[test]
    fn empty_list_yields_no_victim() {
        let s: SegmentedLru<u32, ()> = SegmentedLru::new(5);
        assert_eq!(s.best_in_replace_first(|_, _| 0u32), None);
        assert_eq!(s.find_anywhere(|_, _| true), None);
    }

    #[test]
    fn zero_window_means_plain_lru() {
        let mut s = filled(0, 5);
        assert_eq!(s.iter_replace_first().count(), 0);
        assert_eq!(s.pop_lru(), Some((0, 0)));
    }

    #[test]
    fn membership_stays_consistent_under_churn() {
        let mut s = filled(4, 12);
        // The model: every key, LRU first.
        let mut order: Vec<u32> = (0..12).collect();
        // Touch window members (drift), outsiders (no-op for the window),
        // remove from both regions, pop, and re-insert.
        for op in [
            (0u8, 1u32), // touch member
            (0, 11),     // touch outsider
            (1, 0),      // remove member
            (1, 9),      // remove outsider
            (2, 0),      // pop_lru
            (3, 100),    // insert
            (0, 100),    // touch fresh
            (3, 101),    // insert
            (2, 0),      // pop
        ] {
            match op.0 {
                0 => {
                    s.touch(&op.1);
                    order.retain(|&k| k != op.1);
                    order.push(op.1);
                }
                1 => {
                    s.remove(&op.1);
                    order.retain(|&k| k != op.1);
                }
                2 => {
                    let k = order.remove(0);
                    assert_eq!(s.pop_lru(), Some((k, k % 2)));
                }
                _ => {
                    s.insert_mru(op.1, op.1 % 2);
                    order.push(op.1);
                }
            }
            assert_eq!(region(&s), order[..4]);
            for k in &order {
                assert_eq!(s.in_replace_first(k), order[..4].contains(k));
            }
        }
    }
}
