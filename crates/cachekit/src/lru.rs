//! An order-maintaining LRU list with O(1) operations.
//!
//! Recency order is kept in a doubly-linked list threaded through a slab
//! (`Vec` of nodes with index links — no per-node allocation, no unsafe),
//! with a `HashMap` from key to slot for O(1) lookup. This is the chassis
//! under every cache in the workspace.

use fxmap::FxHashMap;
use std::hash::Hash;

const NIL: u32 = u32::MAX;

#[derive(Debug, Clone)]
struct Node<K> {
    key: K,
    prev: u32,
    next: u32,
}

/// LRU ordering over a set of keys. MRU at the front, LRU at the back.
#[derive(Debug, Clone)]
pub struct LruList<K> {
    nodes: Vec<Node<K>>,
    index: FxHashMap<K, u32>,
    head: u32,
    tail: u32,
    free: Vec<u32>,
}

impl<K: Eq + Hash + Clone> Default for LruList<K> {
    fn default() -> Self {
        Self::new()
    }
}

impl<K: Eq + Hash + Clone> LruList<K> {
    /// Empty list.
    pub fn new() -> Self {
        LruList {
            nodes: Vec::new(),
            index: FxHashMap::default(),
            head: NIL,
            tail: NIL,
            free: Vec::new(),
        }
    }

    /// Number of keys.
    pub fn len(&self) -> usize {
        self.index.len()
    }

    /// Whether the list is empty.
    pub fn is_empty(&self) -> bool {
        self.index.is_empty()
    }

    /// Whether `key` is present.
    pub fn contains(&self, key: &K) -> bool {
        self.index.contains_key(key)
    }

    fn unlink(&mut self, i: u32) {
        let (prev, next) = {
            let n = &self.nodes[i as usize];
            (n.prev, n.next)
        };
        if prev != NIL {
            self.nodes[prev as usize].next = next;
        } else {
            self.head = next;
        }
        if next != NIL {
            self.nodes[next as usize].prev = prev;
        } else {
            self.tail = prev;
        }
    }

    fn link_front(&mut self, i: u32) {
        self.nodes[i as usize].prev = NIL;
        self.nodes[i as usize].next = self.head;
        if self.head != NIL {
            self.nodes[self.head as usize].prev = i;
        }
        self.head = i;
        if self.tail == NIL {
            self.tail = i;
        }
    }

    /// Insert `key` as MRU. Panics if already present (callers decide
    /// between touch and insert explicitly — silent upserts hide bugs).
    pub fn insert_mru(&mut self, key: K) {
        assert!(
            !self.index.contains_key(&key),
            "insert of a key already in the LRU list"
        );
        let i = if let Some(i) = self.free.pop() {
            self.nodes[i as usize] = Node {
                key: key.clone(),
                prev: NIL,
                next: NIL,
            };
            i
        } else {
            assert!(
                self.nodes.len() < u32::MAX as usize - 1,
                "LRU list overflow"
            );
            self.nodes.push(Node {
                key: key.clone(),
                prev: NIL,
                next: NIL,
            });
            (self.nodes.len() - 1) as u32
        };
        self.index.insert(key, i);
        self.link_front(i);
    }

    /// Move `key` to MRU. Returns false if absent.
    pub fn touch(&mut self, key: &K) -> bool {
        let Some(&i) = self.index.get(key) else {
            return false;
        };
        if self.head != i {
            self.unlink(i);
            self.link_front(i);
        }
        true
    }

    /// Remove `key`. Returns false if absent.
    pub fn remove(&mut self, key: &K) -> bool {
        let Some(i) = self.index.remove(key) else {
            return false;
        };
        self.unlink(i);
        self.free.push(i);
        true
    }

    /// Remove and return the LRU key.
    pub fn pop_lru(&mut self) -> Option<K> {
        let i = self.tail;
        if i == NIL {
            return None;
        }
        let key = self.nodes[i as usize].key.clone();
        self.unlink(i);
        self.index.remove(&key);
        self.free.push(i);
        Some(key)
    }

    /// The LRU key, without removing it.
    pub fn peek_lru(&self) -> Option<&K> {
        (self.tail != NIL).then(|| &self.nodes[self.tail as usize].key)
    }

    /// Iterate from LRU towards MRU.
    pub fn iter_lru(&self) -> IterLru<'_, K> {
        IterLru {
            list: self,
            cur: self.tail,
        }
    }
}

/// LRU→MRU iterator.
pub struct IterLru<'a, K> {
    list: &'a LruList<K>,
    cur: u32,
}

impl<'a, K> Iterator for IterLru<'a, K> {
    type Item = &'a K;
    fn next(&mut self) -> Option<&'a K> {
        if self.cur == NIL {
            return None;
        }
        let n = &self.list.nodes[self.cur as usize];
        self.cur = n.prev;
        Some(&n.key)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// MRU first.
    fn order(list: &LruList<u32>) -> Vec<u32> {
        let mut keys: Vec<u32> = list.iter_lru().copied().collect();
        keys.reverse();
        keys
    }

    #[test]
    fn insert_and_order() {
        let mut l = LruList::new();
        for k in [1, 2, 3] {
            l.insert_mru(k);
        }
        assert_eq!(order(&l), vec![3, 2, 1]);
        assert_eq!(l.peek_lru(), Some(&1));
        assert_eq!(l.len(), 3);
    }

    #[test]
    fn touch_promotes() {
        let mut l = LruList::new();
        for k in [1, 2, 3] {
            l.insert_mru(k);
        }
        assert!(l.touch(&1));
        assert_eq!(order(&l), vec![1, 3, 2]);
        assert!(!l.touch(&9));
        // Touching the MRU is a no-op.
        assert!(l.touch(&1));
        assert_eq!(order(&l), vec![1, 3, 2]);
    }

    #[test]
    fn pop_lru_in_order() {
        let mut l = LruList::new();
        for k in [1, 2, 3] {
            l.insert_mru(k);
        }
        assert_eq!(l.pop_lru(), Some(1));
        assert_eq!(l.pop_lru(), Some(2));
        assert_eq!(l.pop_lru(), Some(3));
        assert_eq!(l.pop_lru(), None);
        assert!(l.is_empty());
    }

    #[test]
    fn remove_middle_and_ends() {
        let mut l = LruList::new();
        for k in [1, 2, 3, 4] {
            l.insert_mru(k);
        }
        assert!(l.remove(&3)); // middle
        assert_eq!(order(&l), vec![4, 2, 1]);
        assert!(l.remove(&4)); // head
        assert!(l.remove(&1)); // tail
        assert_eq!(order(&l), vec![2]);
        assert!(!l.remove(&1));
    }

    #[test]
    fn slots_are_reused() {
        let mut l = LruList::new();
        for k in 0..100u32 {
            l.insert_mru(k);
        }
        for k in 0..100u32 {
            l.remove(&k);
        }
        for k in 100..200u32 {
            l.insert_mru(k);
        }
        assert_eq!(l.nodes.len(), 100, "slab must not grow past peak size");
        assert_eq!(l.len(), 100);
    }

    #[test]
    #[should_panic(expected = "already in the LRU list")]
    fn double_insert_panics() {
        let mut l = LruList::new();
        l.insert_mru(5);
        l.insert_mru(5);
    }

    #[test]
    fn iter_lru_is_reverse_of_mru() {
        let mut l = LruList::new();
        for k in [7, 8, 9, 10] {
            l.insert_mru(k);
        }
        let fwd: Vec<u32> = l.iter_lru().copied().collect();
        assert_eq!(fwd, vec![7, 8, 9, 10], "oldest insertion first");
        l.touch(&8);
        assert_eq!(order(&l), vec![8, 10, 9, 7]);
    }

    #[test]
    fn stress_against_reference_model() {
        // Random ops mirrored against a Vec-based reference.
        let mut rng = ReferenceRng(12345);
        let mut l = LruList::new();
        let mut model: Vec<u32> = Vec::new(); // MRU at front
        for _ in 0..20_000 {
            let k = rng.next() % 50;
            match rng.next() % 4 {
                0 => {
                    if !model.contains(&k) {
                        l.insert_mru(k);
                        model.insert(0, k);
                    }
                }
                1 => {
                    let hit = l.touch(&k);
                    let mhit = model.contains(&k);
                    assert_eq!(hit, mhit);
                    if mhit {
                        model.retain(|&x| x != k);
                        model.insert(0, k);
                    }
                }
                2 => {
                    assert_eq!(l.remove(&k), {
                        let had = model.contains(&k);
                        model.retain(|&x| x != k);
                        had
                    });
                }
                _ => {
                    assert_eq!(l.pop_lru(), model.pop());
                }
            }
            assert_eq!(l.len(), model.len());
        }
        assert_eq!(order(&l), model);
    }

    /// Minimal xorshift for the stress test (keeps this crate dep-free).
    struct ReferenceRng(u64);
    impl ReferenceRng {
        fn next(&mut self) -> u32 {
            self.0 ^= self.0 << 13;
            self.0 ^= self.0 >> 7;
            self.0 ^= self.0 << 17;
            (self.0 >> 32) as u32
        }
    }
}
