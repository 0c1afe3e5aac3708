//! An order-maintaining LRU map with O(1) operations.
//!
//! Recency order is kept in a doubly-linked list threaded through a slab
//! (`Vec` of nodes with index links — no per-node allocation, no unsafe),
//! with a `HashMap` from key to slot for O(1) lookup. Each node owns its
//! entry's value, so a cache built on the list needs no second map over
//! the same keys: a hit is one probe of the index. This is the chassis
//! under every cache in the workspace.

use std::collections::hash_map::Entry;
use std::hash::Hash;

use fxmap::FxHashMap;

const NIL: u32 = u32::MAX;

#[derive(Debug, Clone)]
struct Node<K, V> {
    key: K,
    /// `None` only while the node sits on the free list.
    value: Option<V>,
    prev: u32,
    next: u32,
}

/// LRU ordering over a set of keys, each owning a value. MRU at the
/// front, LRU at the back.
#[derive(Debug, Clone)]
pub struct LruList<K, V> {
    nodes: Vec<Node<K, V>>,
    index: FxHashMap<K, u32>,
    head: u32,
    tail: u32,
    free: Vec<u32>,
}

impl<K: Eq + Hash + Clone, V> Default for LruList<K, V> {
    fn default() -> Self {
        Self::new()
    }
}

impl<K: Eq + Hash + Clone, V> LruList<K, V> {
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

    /// Unlink node `i` and put it on the free list, moving its value out.
    fn release(&mut self, i: u32) -> Option<V> {
        self.unlink(i);
        self.free.push(i);
        self.nodes[i as usize].value.take()
    }

    /// Insert `key` as MRU with `value`. Panics if already present
    /// (callers decide between touch and insert explicitly — silent
    /// upserts hide bugs).
    pub fn insert_mru(&mut self, key: K, value: V) {
        assert!(self.nodes.len() < NIL as usize, "LRU list overflow");
        let i = self.free.last().copied().unwrap_or(self.nodes.len() as u32);
        match self.index.entry(key.clone()) {
            Entry::Occupied(_) => panic!("insert of a key already in the LRU list"),
            Entry::Vacant(slot) => slot.insert(i),
        };
        let node = Node {
            key,
            value: Some(value),
            prev: NIL,
            next: NIL,
        };
        match self.free.pop() {
            Some(_) => self.nodes[i as usize] = node,
            None => self.nodes.push(node),
        }
        self.link_front(i);
    }

    /// The value of `key`, without a recency effect.
    pub fn get(&self, key: &K) -> Option<&V> {
        self.nodes[*self.index.get(key)? as usize].value.as_ref()
    }

    /// The value of `key` for update, without a recency effect.
    pub fn get_mut(&mut self, key: &K) -> Option<&mut V> {
        self.nodes[*self.index.get(key)? as usize].value.as_mut()
    }

    /// Move `key` to MRU and return its value; `None` if absent.
    pub fn touch(&mut self, key: &K) -> Option<&mut V> {
        let &i = self.index.get(key)?;
        if self.head != i {
            self.unlink(i);
            self.link_front(i);
        }
        self.nodes[i as usize].value.as_mut()
    }

    /// Remove `key`, returning its value; `None` if absent.
    pub fn remove(&mut self, key: &K) -> Option<V> {
        let i = self.index.remove(key)?;
        self.release(i)
    }

    /// Remove and return the LRU entry.
    pub fn pop_lru(&mut self) -> Option<(K, V)> {
        let key = self.nodes.get(self.tail as usize)?.key.clone();
        self.index.remove(&key);
        self.release(self.tail).map(|value| (key, value))
    }

    /// Iterate `(key, value)` from LRU towards MRU.
    pub fn iter_lru(&self) -> IterLru<'_, K, V> {
        IterLru {
            list: self,
            cur: self.tail,
        }
    }
}

/// LRU→MRU iterator.
pub struct IterLru<'a, K, V> {
    list: &'a LruList<K, V>,
    cur: u32,
}

impl<'a, K, V> Iterator for IterLru<'a, K, V> {
    type Item = (&'a K, &'a V);
    fn next(&mut self) -> Option<(&'a K, &'a V)> {
        let n = self.list.nodes.get(self.cur as usize)?;
        self.cur = n.prev;
        n.value.as_ref().map(|value| (&n.key, value))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Keys, MRU first.
    fn order<V>(list: &LruList<u32, V>) -> Vec<u32> {
        let mut keys: Vec<u32> = list.iter_lru().map(|(&k, _)| k).collect();
        keys.reverse();
        keys
    }

    /// A list of `keys` inserted in order, each valued ten times its key.
    fn filled(keys: impl IntoIterator<Item = u32>) -> LruList<u32, u32> {
        let mut l = LruList::new();
        for k in keys {
            l.insert_mru(k, 10 * k);
        }
        l
    }

    #[test]
    fn insert_and_order() {
        let l = filled([1, 2, 3]);
        assert_eq!(order(&l), vec![3, 2, 1]);
        assert_eq!(l.len(), 3);
        assert_eq!(l.get(&2), Some(&20));
        assert_eq!(order(&l), vec![3, 2, 1], "get has no recency effect");
    }

    #[test]
    fn touch_promotes() {
        let mut l = filled([1, 2, 3]);
        assert_eq!(l.touch(&1), Some(&mut 10));
        assert_eq!(order(&l), vec![1, 3, 2]);
        assert_eq!(l.touch(&9), None);
        // Touching the MRU is a no-op on the order; the value is writable.
        *l.touch(&1).expect("present") += 1;
        assert_eq!(order(&l), vec![1, 3, 2]);
        assert_eq!(l.get(&1), Some(&11));
    }

    #[test]
    fn pop_lru_in_order() {
        let mut l = filled([1, 2, 3]);
        assert_eq!(l.pop_lru(), Some((1, 10)));
        assert_eq!(l.pop_lru(), Some((2, 20)));
        assert_eq!(l.pop_lru(), Some((3, 30)));
        assert_eq!(l.pop_lru(), None);
        assert!(l.is_empty());
    }

    #[test]
    fn remove_middle_and_ends() {
        let mut l = filled([1, 2, 3, 4]);
        assert_eq!(l.remove(&3), Some(30)); // middle
        assert_eq!(order(&l), vec![4, 2, 1]);
        assert_eq!(l.remove(&4), Some(40)); // head
        assert_eq!(l.remove(&1), Some(10)); // tail
        assert_eq!(order(&l), vec![2]);
        assert_eq!(l.remove(&1), None);
        assert_eq!(l.get(&1), None);
    }

    #[test]
    fn slots_are_reused() {
        let mut l = filled(0..100);
        for k in 0..100u32 {
            l.remove(&k);
        }
        for k in 100..200u32 {
            l.insert_mru(k, k);
        }
        assert_eq!(l.nodes.len(), 100, "slab must not grow past peak size");
        assert_eq!(l.len(), 100);
        assert_eq!(l.get(&150), Some(&150), "a reused slot holds its new value");
    }

    #[test]
    #[should_panic(expected = "already in the LRU list")]
    fn double_insert_panics() {
        let mut l = LruList::new();
        l.insert_mru(5, ());
        l.insert_mru(5, ());
    }

    #[test]
    fn iter_lru_is_reverse_of_mru() {
        let mut l = filled([7, 8, 9, 10]);
        let fwd: Vec<(u32, u32)> = l.iter_lru().map(|(&k, &v)| (k, v)).collect();
        assert_eq!(
            fwd,
            vec![(7, 70), (8, 80), (9, 90), (10, 100)],
            "oldest insertion first"
        );
        l.touch(&8);
        assert_eq!(order(&l), vec![8, 10, 9, 7]);
    }

    #[test]
    fn stress_against_reference_model() {
        // Random ops mirrored against a Vec-based reference that carries a
        // value per key: every return value is checked, not just order.
        let mut rng = ReferenceRng(12345);
        let mut l: LruList<u32, u32> = LruList::new();
        let mut model: Vec<(u32, u32)> = Vec::new(); // MRU at front
        for step in 0..20_000u32 {
            let k = rng.next() % 50;
            let at = model.iter().position(|&(x, _)| x == k);
            match rng.next() % 5 {
                0 => {
                    if at.is_none() {
                        l.insert_mru(k, step);
                        model.insert(0, (k, step));
                    }
                }
                1 => {
                    let hit = l.touch(&k).map(|v| {
                        *v += 1;
                        *v
                    });
                    let mhit = at.map(|at| {
                        let mut e = model.remove(at);
                        e.1 += 1;
                        model.insert(0, e);
                        e.1
                    });
                    assert_eq!(hit, mhit);
                }
                2 => {
                    assert_eq!(l.remove(&k), at.map(|at| model.remove(at).1));
                }
                3 => {
                    assert_eq!(l.get(&k), at.map(|at| &model[at].1));
                }
                _ => {
                    assert_eq!(l.pop_lru(), model.pop());
                }
            }
            assert_eq!(l.len(), model.len());
        }
        let mut listed: Vec<(u32, u32)> = l.iter_lru().map(|(&k, &v)| (k, v)).collect();
        listed.reverse();
        assert_eq!(listed, model);
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
