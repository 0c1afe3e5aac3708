//! The paper's two-region LRU list.
//!
//! CBLRU (Sec. VI-C) splits the recency list into a **Working Region**
//! (most-recently-used side) and a **Replace-First Region**: the `W`
//! least-recently-used entries. Victims are searched in the replace-first
//! region first — by invalid-entry count for result blocks (Fig. 11), by
//! size match for inverted lists (Fig. 13) — and only in the worst case in
//! the whole list.
//!
//! [`SegmentedLru`] wraps [`LruList`] with region-aware scans. The window
//! is a *view*, not a partition with its own lists: entries drift into the
//! replace-first region simply by not being touched, exactly as in the
//! paper's figures.
//!
//! ## Incremental window tracking
//!
//! Membership of the replace-first region is maintained *incrementally*:
//! every operation adjusts a key→stamp map instead of re-scanning the LRU
//! tail, so [`SegmentedLru::in_replace_first`] is O(1) and callers can
//! mirror the region into priority indexes (see `victim`). Stamps are
//! assigned so that, among current window members, **a smaller stamp means
//! closer to the LRU end**: entries only ever join the window at its MRU
//! boundary (drift-in, insertion into a not-yet-full list, or re-stamping
//! on an intra-window touch), so stamp order and list order never diverge.
//! The old scan-based primitives (`best_in_replace_first`,
//! `find_in_replace_first`, `find_anywhere`) are kept verbatim as the
//! reference implementations the audited victim cross-checks in `core`
//! compare against.

use fxmap::FxHashMap;
use std::hash::Hash;

use invariant::{Report, Validate};

use crate::lru::LruList;

/// A change to the replace-first region's membership, reported when event
/// tracking is enabled via [`SegmentedLru::enable_window_events`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WindowEvent<K> {
    /// `key` became a member; `stamp` orders members (smaller = more LRU).
    Entered {
        /// The joining key.
        key: K,
        /// Its position stamp.
        stamp: u64,
    },
    /// `key` is no longer a member.
    Left {
        /// The leaving key.
        key: K,
    },
}

/// An LRU list with a replace-first window of size `W` at the LRU end.
#[derive(Debug, Clone)]
pub struct SegmentedLru<K> {
    list: LruList<K>,
    window: usize,
    /// Current replace-first members and their order stamps.
    members: FxHashMap<K, u64>,
    /// The most-MRU member (the window's boundary entry).
    window_mru: Option<K>,
    next_stamp: u64,
    events: Vec<WindowEvent<K>>,
    track_events: bool,
}

impl<K: Eq + Hash + Clone> SegmentedLru<K> {
    /// Create with a replace-first window of `window` entries (`W` in the
    /// paper). A window of 0 degenerates to plain LRU victim selection
    /// via [`SegmentedLru::pop_lru`].
    pub fn new(window: usize) -> Self {
        SegmentedLru {
            list: LruList::new(),
            window,
            members: FxHashMap::default(),
            window_mru: None,
            next_stamp: 0,
            events: Vec::new(),
            track_events: false,
        }
    }

    /// The window size `W`.
    pub fn window(&self) -> usize {
        self.window
    }

    /// Change the window size (rebuilds the membership view, O(n)).
    pub fn set_window(&mut self, window: usize) {
        self.window = window;
        let old: Vec<K> = self.members.keys().cloned().collect();
        for k in &old {
            self.leave(k);
        }
        self.window_mru = None;
        let target: Vec<K> = self.list.iter_lru().take(self.window).cloned().collect();
        for k in target {
            self.enter(k.clone());
            self.window_mru = Some(k);
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

    fn enter(&mut self, key: K) {
        let stamp = self.next_stamp;
        self.next_stamp += 1;
        self.members.insert(key.clone(), stamp);
        if self.track_events {
            self.events.push(WindowEvent::Entered { key, stamp });
        }
    }

    fn leave(&mut self, key: &K) {
        self.members.remove(key);
        if self.track_events {
            self.events.push(WindowEvent::Left { key: key.clone() });
        }
    }

    /// The working-region entry adjacent to the window boundary — the one
    /// that drifts in when a member leaves. Only valid when the list is
    /// longer than the window.
    fn boundary_neighbor(&self) -> K {
        let mru = self
            .window_mru
            .as_ref()
            .expect("full window has a boundary entry");
        self.list
            .next_toward_mru(mru)
            .cloned()
            .expect("len > window implies a working-region entry")
    }

    /// Insert as MRU (panics if present).
    pub fn insert_mru(&mut self, key: K) {
        self.list.insert_mru(key.clone());
        if self.window > 0 && self.members.len() < self.window {
            // The whole list still fits inside the window, so the new MRU
            // is also the window's boundary entry.
            self.enter(key.clone());
            self.window_mru = Some(key);
        }
    }

    /// Promote to MRU; false if absent.
    pub fn touch(&mut self, key: &K) -> bool {
        if !self.list.contains(key) {
            return false;
        }
        if self.window > 0 && self.members.contains_key(key) {
            if self.list.len() > self.window {
                // The touched member leaves; its place is taken by the
                // entry just outside the boundary.
                let drift = self.boundary_neighbor();
                self.list.touch(key);
                self.leave(key);
                self.enter(drift.clone());
                self.window_mru = Some(drift);
            } else {
                // Whole list inside the window: membership is unchanged
                // but the entry moved to MRU — re-stamp it so stamps keep
                // mirroring list order.
                self.list.touch(key);
                self.leave(key);
                self.enter(key.clone());
                self.window_mru = Some(key.clone());
            }
        } else {
            self.list.touch(key);
        }
        true
    }

    /// Remove; false if absent.
    pub fn remove(&mut self, key: &K) -> bool {
        if !self.list.contains(key) {
            return false;
        }
        if self.window > 0 && self.members.contains_key(key) {
            if self.list.len() > self.window {
                let drift = self.boundary_neighbor();
                self.list.remove(key);
                self.leave(key);
                self.enter(drift.clone());
                self.window_mru = Some(drift);
            } else {
                self.list.remove(key);
                self.leave(key);
                if self.window_mru.as_ref() == Some(key) {
                    self.window_mru = self.list.peek_mru().cloned();
                }
            }
        } else {
            self.list.remove(key);
        }
        true
    }

    /// Remove and return the strict LRU entry.
    pub fn pop_lru(&mut self) -> Option<K> {
        let key = self.list.peek_lru()?.clone();
        self.remove(&key);
        Some(key)
    }

    /// The strict LRU entry, without removing it.
    pub fn peek_lru(&self) -> Option<&K> {
        self.list.peek_lru()
    }

    /// The least-recently-used entry that is not `exclude` — the O(1)
    /// equivalent of `find_anywhere(|k| Some(k) != exclude)` when at most
    /// one key is excluded.
    pub fn lru_most_excluding(&self, exclude: Option<&K>) -> Option<&K> {
        let lru = self.list.peek_lru()?;
        if Some(lru) == exclude {
            self.list.next_toward_mru(lru)
        } else {
            Some(lru)
        }
    }

    /// Iterate the replace-first region, LRU first (at most `W` entries).
    pub fn iter_replace_first(&self) -> impl Iterator<Item = &K> {
        self.list.iter_lru().take(self.window)
    }

    /// Iterate the whole list, LRU first.
    pub fn iter_lru(&self) -> impl Iterator<Item = &K> {
        self.list.iter_lru()
    }

    /// Whether `key` currently sits inside the replace-first region. O(1).
    pub fn in_replace_first(&self, key: &K) -> bool {
        self.members.contains_key(key)
    }

    /// The key's window-order stamp (smaller = closer to the LRU end);
    /// `None` outside the replace-first region.
    pub fn window_stamp(&self, key: &K) -> Option<u64> {
        self.members.get(key).copied()
    }

    /// Start recording membership changes for retrieval via
    /// [`SegmentedLru::take_window_events`]. Off by default so casual
    /// users don't accumulate an unread event log.
    pub fn enable_window_events(&mut self) {
        self.track_events = true;
    }

    /// Move all pending membership events into `out` (in occurrence
    /// order), leaving the internal buffer empty but with its capacity.
    pub fn take_window_events(&mut self, out: &mut Vec<WindowEvent<K>>) {
        out.append(&mut self.events);
    }

    /// The best victim in the replace-first region by `score` (higher is
    /// more evictable); `None` if the list is empty. Ties go to the less
    /// recently used entry, i.e. the first encountered.
    ///
    /// This is the seed's O(W) reference scan; indexed callers mirror the
    /// window into a `victim::MaxScoreIndex` instead and, under audit,
    /// assert both pick the same victim.
    pub fn best_in_replace_first<S, F>(&self, mut score: F) -> Option<&K>
    where
        S: PartialOrd,
        F: FnMut(&K) -> S,
    {
        let mut best: Option<(&K, S)> = None;
        for k in self.iter_replace_first() {
            let s = score(k);
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
        F: FnMut(&K) -> bool,
    {
        self.iter_replace_first().find(|k| pred(k))
    }

    /// The first entry satisfying `pred` scanning the *entire* list from
    /// the LRU end — the paper's worst-case fallback ("the cache manager
    /// will look up in a wider region, namely in all the LRU list").
    pub fn find_anywhere<F>(&self, mut pred: F) -> Option<&K>
    where
        F: FnMut(&K) -> bool,
    {
        self.iter_lru().find(|k| pred(k))
    }

    /// Internal consistency check: the incremental membership view must
    /// equal the first `min(W, len)` entries of the LRU order, with stamps
    /// increasing towards MRU. Used by tests.
    #[doc(hidden)]
    pub fn assert_window_consistent(&self) {
        let scan: Vec<&K> = self.iter_replace_first().collect();
        assert_eq!(
            scan.len(),
            self.members.len(),
            "window member count diverged from the scan"
        );
        let mut last_stamp = None;
        for k in &scan {
            let stamp = *self
                .members
                .get(*k)
                .expect("scan member missing from the incremental view");
            if let Some(prev) = last_stamp {
                assert!(stamp > prev, "stamps must increase towards MRU");
            }
            last_stamp = Some(stamp);
        }
        assert!(
            scan.last().copied() == self.window_mru.as_ref(),
            "window boundary entry diverged"
        );
    }
}

impl<K: Eq + Hash + Clone + std::fmt::Debug> Validate for SegmentedLru<K> {
    /// The paper's replace-first window `W` (Sec. VI-C) is maintained
    /// incrementally; validation re-derives it by scanning the LRU tail:
    ///
    /// * the member map holds exactly the first `min(W, len)` LRU entries,
    /// * stamps strictly increase towards MRU (scan order == stamp order),
    /// * the cached boundary entry is the scan's last (most-MRU) member.
    fn validate(&self, report: &mut Report) {
        let scan: Vec<&K> = self.iter_replace_first().collect();
        report.check(
            scan.len() == self.members.len(),
            "SegmentedLru",
            "window-partition",
            || {
                format!(
                    "LRU tail scan finds {} window entries but the \
                     incremental view tracks {}",
                    scan.len(),
                    self.members.len()
                )
            },
        );
        let mut last_stamp = None;
        for k in &scan {
            let Some(&stamp) = self.members.get(*k) else {
                report.violation(
                    "SegmentedLru",
                    "window-partition",
                    format!("{k:?} is inside the replace-first tail but untracked"),
                );
                continue;
            };
            if let Some(prev) = last_stamp {
                report.check(stamp > prev, "SegmentedLru", "stamp-order", || {
                    format!("{k:?} has stamp {stamp} but its LRU-ward neighbor has {prev}")
                });
            }
            last_stamp = Some(stamp);
        }
        report.check(
            scan.last().copied() == self.window_mru.as_ref(),
            "SegmentedLru",
            "window-boundary",
            || {
                format!(
                    "cached boundary entry is {:?} but the scan ends at {:?}",
                    self.window_mru,
                    scan.last()
                )
            },
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn filled(window: usize, n: u32) -> SegmentedLru<u32> {
        let mut s = SegmentedLru::new(window);
        for k in 0..n {
            s.insert_mru(k); // 0 is LRU, n-1 is MRU
        }
        s
    }

    #[test]
    fn replace_first_region_is_the_lru_tail() {
        let s = filled(3, 10);
        let region: Vec<u32> = s.iter_replace_first().copied().collect();
        assert_eq!(region, vec![0, 1, 2]);
        assert!(s.in_replace_first(&0));
        assert!(!s.in_replace_first(&5));
        s.assert_window_consistent();
    }

    #[test]
    fn window_larger_than_list_covers_everything() {
        let s = filled(100, 4);
        assert_eq!(s.iter_replace_first().count(), 4);
        s.assert_window_consistent();
    }

    #[test]
    fn touching_moves_an_entry_out_of_the_window() {
        let mut s = filled(3, 10);
        assert!(s.in_replace_first(&1));
        s.touch(&1);
        assert!(!s.in_replace_first(&1));
        // Entry 3 drifted in to take its place.
        let region: Vec<u32> = s.iter_replace_first().copied().collect();
        assert_eq!(region, vec![0, 2, 3]);
        s.assert_window_consistent();
    }

    #[test]
    fn best_in_replace_first_maximizes_score() {
        let s = filled(4, 10);
        // Score: prefer even keys, then larger.
        let v = s.best_in_replace_first(|&k| (k % 2 == 0) as u32 * 100 + k);
        assert_eq!(v, Some(&2));
    }

    #[test]
    fn best_breaks_ties_towards_lru() {
        let s = filled(4, 10);
        let v = s.best_in_replace_first(|_| 1u32);
        assert_eq!(v, Some(&0), "constant score must pick the LRU entry");
    }

    #[test]
    fn find_falls_back_to_whole_list() {
        let s = filled(2, 10);
        assert_eq!(s.find_in_replace_first(|&k| k == 7), None);
        assert_eq!(s.find_anywhere(|&k| k == 7), Some(&7));
    }

    #[test]
    fn empty_list_yields_no_victim() {
        let s: SegmentedLru<u32> = SegmentedLru::new(5);
        assert_eq!(s.best_in_replace_first(|_| 0u32), None);
        assert_eq!(s.find_anywhere(|_| true), None);
        s.assert_window_consistent();
    }

    #[test]
    fn zero_window_means_plain_lru() {
        let mut s = filled(0, 5);
        assert_eq!(s.iter_replace_first().count(), 0);
        assert_eq!(s.pop_lru(), Some(0));
        s.assert_window_consistent();
    }

    #[test]
    fn set_window_resizes_view() {
        let mut s = filled(2, 10);
        assert_eq!(s.iter_replace_first().count(), 2);
        s.set_window(5);
        assert_eq!(s.iter_replace_first().count(), 5);
        assert_eq!(s.window(), 5);
        s.assert_window_consistent();
    }

    #[test]
    fn membership_stays_consistent_under_churn() {
        let mut s = filled(4, 12);
        s.assert_window_consistent();
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
                }
                1 => {
                    s.remove(&op.1);
                }
                2 => {
                    s.pop_lru();
                }
                _ => s.insert_mru(op.1),
            }
            s.assert_window_consistent();
        }
    }

    #[test]
    fn lru_most_excluding_skips_only_the_excluded() {
        let s = filled(2, 4);
        assert_eq!(s.lru_most_excluding(None), Some(&0));
        assert_eq!(s.lru_most_excluding(Some(&0)), Some(&1));
        assert_eq!(s.lru_most_excluding(Some(&3)), Some(&0));
        let empty: SegmentedLru<u32> = SegmentedLru::new(2);
        assert_eq!(empty.lru_most_excluding(None), None);
    }

    #[test]
    fn single_entry_window_excluding_it_finds_nothing_beyond() {
        let mut s = SegmentedLru::new(2);
        s.insert_mru(5u32);
        assert_eq!(s.lru_most_excluding(Some(&5)), None);
    }

    #[test]
    fn window_events_mirror_membership() {
        let mut s: SegmentedLru<u32> = SegmentedLru::new(2);
        s.enable_window_events();
        let mut events = Vec::new();

        s.insert_mru(1);
        s.insert_mru(2);
        s.insert_mru(3); // window stays {1, 2}
        s.take_window_events(&mut events);
        assert_eq!(
            events
                .iter()
                .filter(|e| matches!(e, WindowEvent::Entered { .. }))
                .count(),
            2
        );

        events.clear();
        s.touch(&1); // 1 leaves, 3 drifts in
        s.take_window_events(&mut events);
        assert_eq!(events.len(), 2);
        assert!(matches!(&events[0], WindowEvent::Left { key: 1 }));
        assert!(matches!(&events[1], WindowEvent::Entered { key: 3, .. }));
        s.assert_window_consistent();
    }

    #[test]
    fn stamps_order_members_lru_first() {
        let mut s = filled(3, 6);
        let region: Vec<u32> = s.iter_replace_first().copied().collect();
        let stamps: Vec<u64> = region
            .iter()
            .map(|k| s.window_stamp(k).expect("member"))
            .collect();
        assert!(stamps.windows(2).all(|w| w[0] < w[1]));
        assert_eq!(s.window_stamp(&5), None, "MRU entry is not a member");
        // An intra-window touch with the list shorter than the window
        // re-stamps the touched entry as most-MRU.
        s.set_window(10);
        s.touch(&0);
        s.assert_window_consistent();
    }
}
