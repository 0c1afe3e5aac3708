//! DFTL — demand-paged page-level mapping (Gupta, Kim & Urgaonkar,
//! ASPLOS'09).
//!
//! DFTL keeps the full page-level map *on flash* and caches only the hot
//! entries in controller SRAM (the **Cached Mapping Table**, CMT). A host
//! request whose entry misses the CMT pays a translation-page read; a
//! dirty CMT eviction pays a translation-page write.
//!
//! Faithfulness note (also recorded in DESIGN.md): the authoritative
//! lpn→ppn map here lives in the inner [`PageMapFtl`]'s RAM table — what
//! DFTL adds in this model is the *cost* of the mapping traffic, realized
//! as real page reads/writes against a reserved translation region of the
//! same NAND (so translation traffic competes with data traffic for GC,
//! exactly the DFTL trade-off). The data-path placement and GC behaviour
//! are the inner page-mapped scheme's.

#[expect(
    clippy::disallowed_types,
    reason = "keyed lookups only; the map is never iterated"
)]
use std::collections::HashMap;

use simclock::SimDuration;

use crate::ftl::{Ftl, FtlError, FtlStats, PageMapFtl};
use crate::nand::{Lpn, Nand};
use crate::params::FlashParams;

/// Bytes per mapping entry on flash (4 B ppn + 4 B lpn tag, as in the
/// DFTL paper's accounting).
const ENTRY_BYTES: u64 = 8;

/// CMT bookkeeping: a doubly-linked LRU over the cached lpn entries with
/// dirty bits, stored in a slab so moves are O(1) and allocation-free
/// after warm-up.
#[derive(Debug, Clone)]
struct CmtNode {
    lpn: Lpn,
    dirty: bool,
    prev: u32,
    next: u32,
}

const NIL: u32 = u32::MAX;

#[derive(Debug, Clone)]
struct Cmt {
    nodes: Vec<CmtNode>,
    #[expect(
        clippy::disallowed_types,
        reason = "keyed lookups only; the map is never iterated"
    )]
    index: HashMap<Lpn, u32>,
    head: u32, // MRU
    tail: u32, // LRU
    free: Vec<u32>,
    capacity: usize,
}

impl Cmt {
    #[expect(
        clippy::disallowed_types,
        reason = "keyed lookups only; the map is never iterated"
    )]
    fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "CMT needs at least one entry");
        Cmt {
            nodes: Vec::with_capacity(capacity),
            index: HashMap::with_capacity(capacity),
            head: NIL,
            tail: NIL,
            free: Vec::new(),
            capacity,
        }
    }

    fn len(&self) -> usize {
        self.index.len()
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

    fn push_front(&mut self, i: u32) {
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

    /// Touch `lpn`, returning whether it was present (and now MRU).
    fn touch(&mut self, lpn: Lpn) -> bool {
        if let Some(&i) = self.index.get(&lpn) {
            self.unlink(i);
            self.push_front(i);
            true
        } else {
            false
        }
    }

    /// Mark a present entry dirty.
    fn mark_dirty(&mut self, lpn: Lpn) {
        let i = self.index[&lpn];
        self.nodes[i as usize].dirty = true;
    }

    /// Insert a clean entry, evicting the LRU if full. Returns the evicted
    /// `(lpn, dirty)` if any.
    fn insert(&mut self, lpn: Lpn) -> Option<(Lpn, bool)> {
        debug_assert!(!self.index.contains_key(&lpn));
        let mut evicted = None;
        if self.len() == self.capacity {
            let t = self.tail;
            let node = &self.nodes[t as usize];
            evicted = Some((node.lpn, node.dirty));
            let old_lpn = node.lpn;
            self.unlink(t);
            self.index.remove(&old_lpn);
            self.free.push(t);
        }
        let i = if let Some(i) = self.free.pop() {
            self.nodes[i as usize] = CmtNode {
                lpn,
                dirty: false,
                prev: NIL,
                next: NIL,
            };
            i
        } else {
            self.nodes.push(CmtNode {
                lpn,
                dirty: false,
                prev: NIL,
                next: NIL,
            });
            (self.nodes.len() - 1) as u32
        };
        self.index.insert(lpn, i);
        self.push_front(i);
        evicted
    }
}

/// DFTL: page-mapped data path plus demand-paged mapping traffic.
#[derive(Debug, Clone)]
pub struct Dftl {
    inner: PageMapFtl,
    cmt: Cmt,
    /// Host-visible pages (inner capacity minus the translation region).
    host_pages: u64,
    /// Mapping entries per translation page.
    entries_per_tpage: u64,
    /// Whether each translation page has ever been written to flash.
    tpage_on_flash: Vec<bool>,
    /// CMT counters.
    hits: u64,
    misses: u64,
    writebacks: u64,
}

impl Dftl {
    /// Create with a CMT of `cmt_entries` cached mapping entries.
    pub fn new(params: FlashParams, cmt_entries: usize) -> Self {
        let inner = PageMapFtl::new(params);
        let total = inner.logical_pages();
        let entries_per_tpage = inner.params().page_bytes as u64 / ENTRY_BYTES;
        // Carve the translation region out of the top of the logical space:
        // t pages must map the remaining (total - t) pages.
        let mut tpages = total.div_ceil(entries_per_tpage);
        while (total - tpages).div_ceil(entries_per_tpage) < tpages && tpages > 1 {
            tpages -= 1;
        }
        let host_pages = total - tpages;
        Dftl {
            inner,
            cmt: Cmt::new(cmt_entries),
            host_pages,
            entries_per_tpage,
            tpage_on_flash: vec![false; tpages as usize],
            hits: 0,
            misses: 0,
            writebacks: 0,
        }
    }

    /// CMT (hits, misses, dirty write-backs).
    pub fn cmt_stats(&self) -> (u64, u64, u64) {
        (self.hits, self.misses, self.writebacks)
    }

    /// The translation-page lpn (in the inner FTL's space) covering `lpn`.
    fn tpage_lpn(&self, lpn: Lpn) -> Lpn {
        self.host_pages + lpn / self.entries_per_tpage
    }

    /// Ensure `lpn`'s mapping entry is in the CMT, charging translation
    /// traffic as needed.
    fn ensure_cached(&mut self, lpn: Lpn) -> Result<SimDuration, FtlError> {
        if self.cmt.touch(lpn) {
            self.hits += 1;
            return Ok(SimDuration::ZERO);
        }
        self.misses += 1;
        let mut t = SimDuration::ZERO;
        // Fetch the translation page (a real flash read if it exists).
        let tp = self.tpage_lpn(lpn);
        t += self.inner.read(tp)?;
        // Make room; a dirty victim must be written back to its
        // translation page first.
        if let Some((victim, dirty)) = self.cmt.insert(lpn) {
            if dirty {
                self.writebacks += 1;
                let vtp = self.tpage_lpn(victim);
                // Read-modify-write of the victim's translation page (the
                // read is skipped when it is the same page we just
                // fetched).
                if vtp != tp {
                    t += self.inner.read(vtp)?;
                }
                t += self.inner.write(vtp)?;
                self.tpage_on_flash[(vtp - self.host_pages) as usize] = true;
            }
        }
        Ok(t)
    }
}

impl Ftl for Dftl {
    fn params(&self) -> &FlashParams {
        self.inner.params()
    }

    fn nand(&self) -> &Nand {
        self.inner.nand()
    }

    fn logical_pages(&self) -> u64 {
        self.host_pages
    }

    fn read(&mut self, lpn: Lpn) -> Result<SimDuration, FtlError> {
        self.check_lpn(lpn)?;
        let mut t = self.ensure_cached(lpn)?;
        t += self.inner.read(lpn)?;
        Ok(t)
    }

    fn write(&mut self, lpn: Lpn) -> Result<SimDuration, FtlError> {
        self.check_lpn(lpn)?;
        let mut t = self.ensure_cached(lpn)?;
        t += self.inner.write(lpn)?;
        self.cmt.mark_dirty(lpn);
        Ok(t)
    }

    fn trim(&mut self, lpn: Lpn) -> Result<SimDuration, FtlError> {
        self.check_lpn(lpn)?;
        let mut t = self.ensure_cached(lpn)?;
        t += self.inner.trim(lpn)?;
        self.cmt.mark_dirty(lpn);
        Ok(t)
    }

    fn stats(&self) -> FtlStats {
        self.inner.stats()
    }

    fn reset_stats(&mut self) {
        self.inner.reset_stats();
        self.hits = 0;
        self.misses = 0;
        self.writebacks = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ftl(cmt: usize) -> Dftl {
        Dftl::new(FlashParams::tiny(16), cmt)
    }

    #[test]
    fn translation_region_is_carved_out() {
        let f = ftl(8);
        let inner_total = f.inner.logical_pages();
        assert!(f.logical_pages() < inner_total);
        assert!(f.logical_pages() > 0);
        // Every host page maps into the translation region.
        let last_tp = f.tpage_lpn(f.logical_pages() - 1);
        assert!(last_tp < inner_total);
    }

    #[test]
    fn cmt_hit_avoids_translation_traffic() {
        let mut f = ftl(8);
        f.write(0).unwrap();
        let reads_before = f.nand().stats().page_reads;
        let t = f.write(0).unwrap(); // entry now cached
        assert_eq!(t, f.params().page_write);
        assert_eq!(f.nand().stats().page_reads, reads_before);
        let (hits, _, _) = f.cmt_stats();
        assert!(hits >= 1);
    }

    #[test]
    fn cmt_miss_on_cold_entry() {
        let mut f = ftl(2);
        f.write(0).unwrap();
        f.write(10).unwrap();
        f.write(20).unwrap(); // evicts lpn 0 (dirty -> writeback)
        let (_, misses, writebacks) = f.cmt_stats();
        assert_eq!(misses, 3);
        assert!(writebacks >= 1, "dirty eviction must write back");
        // Re-touching lpn 0 is a miss again.
        f.read(0).unwrap();
        let (_, misses2, _) = f.cmt_stats();
        assert_eq!(misses2, 4);
    }

    #[test]
    fn dirty_writeback_costs_flash_writes() {
        let mut small = ftl(1);
        // Alternate between two entries: every access misses and every
        // eviction is dirty.
        let programs_0 = small.nand().stats().page_programs;
        for i in 0..10 {
            small.write(if i % 2 == 0 { 0 } else { 40 }).unwrap();
        }
        let programs = small.nand().stats().page_programs - programs_0;
        assert!(
            programs > 10,
            "translation write-backs must add programs (got {programs})"
        );
    }

    #[test]
    fn data_survives_thrashing_cmt() {
        let mut f = ftl(4);
        let host = f.logical_pages();
        let n = host.min(200);
        for lpn in 0..n {
            f.write(lpn).unwrap();
        }
        for lpn in 0..n {
            let t = f.read(lpn).unwrap();
            assert!(t >= f.params().page_read, "lpn {lpn} lost");
        }
    }

    #[test]
    fn larger_cmt_means_less_translation_traffic() {
        let run = |cmt: usize| {
            let mut f = ftl(cmt);
            let host = f.logical_pages();
            let mut rng = simclock::Rng::new(77);
            // Zipf-skewed accesses: a big CMT holds the hot set.
            let zipf = simclock::Zipf::new(host.min(500), 1.0);
            for _ in 0..2000 {
                let lpn = zipf.sample(&mut rng) - 1;
                f.read(lpn).unwrap();
            }
            let (_, misses, _) = f.cmt_stats();
            misses
        };
        let small = run(4);
        let large = run(256);
        assert!(large < small / 2, "large CMT {large} vs small {small}");
    }

    #[test]
    fn out_of_range_rejected() {
        let mut f = ftl(4);
        let lim = f.logical_pages();
        assert_eq!(f.read(lim), Err(FtlError::OutOfRange(lim)));
    }
}
