//! Blocked posting lists.
//!
//! The seed's query hot path regenerates synthetic postings on every
//! traversal (`IndexReader::postings_range`) and tests every posting
//! against the quit rules. This module provides the second postings
//! representation of the engine: lists cut into fixed-size blocks, each
//! carrying enough metadata (a block-max `tf`, or a `max_doc`) to be
//! *skipped without being read*, after the block-max indexes of the WAND
//! family: whole blocks that cannot matter are jumped via their metadata.
//!
//! Two list layouts:
//!
//! * [`BlockPostings`] — **canonical (tf-descending) order**, the order
//!   the disjunctive [`crate::topk`] processor scans. It keeps what
//!   queries read and nothing else: the first [`HOT_PREFIX`] postings of
//!   a list, pinned as plain `Posting`s and built *lazily by prefix* in
//!   blocks of [`BLOCK_SIZE`] — only the depth a workload actually scans
//!   is ever generated, mirroring the partial-traversal economics of the
//!   paper. A block's first posting carries its largest `tf` (the order
//!   is tf-descending), so the block-max bound needs no stored metadata.
//!   The rare scan that runs past the pinned prefix regenerates the
//!   block it is in through `postings_range`; nothing is kept for it.
//! * [`BlockSortedList`] — **doc-ascending order**, the order conjunctive
//!   evaluation intersects in. Blocks of [`SORTED_BLOCK`] postings are
//!   LEB128-varint delta coded (the compressed in-memory segment of
//!   Asadi & Lin, "Fast, Incremental Inverted Indexing in Main Memory")
//!   and carry their last (maximum) doc id; [`BlockCursor::advance_to`]
//!   gallops over that metadata and binary-searches inside a
//!   lazily-decoded block, through a [`DecodeArena`] of pooled buffers
//!   so the steady state allocates nothing.

use fxmap::FxHashMap;

use invariant::{audit, Report, Validate};

use crate::skips::{PostingsCursor, SkipStats, SKIP_INTERVAL};
use crate::types::{DocId, IndexReader, Posting, PostingList, TermId, POSTING_BYTES};

/// Postings per block in canonical (tf-descending) lists.
pub const BLOCK_SIZE: usize = 128;

/// Postings per block in doc-sorted lists. Deliberately equal to
/// [`SKIP_INTERVAL`]: the galloping cursor then binary-searches exactly
/// the spans the reference [`crate::skips::SkipCursor`] does, so the two
/// backends' `visited` accounting is directly comparable (and the
/// equivalence suite can assert Blocked ≤ Reference).
pub const SORTED_BLOCK: usize = SKIP_INTERVAL;

/// Which posting-list representation the query processors traverse.
///
/// Mirrors the `ClusterExecution` toggle: the reference arm is the
/// seed's unblocked path kept verbatim, the blocked arm is the optimized
/// one, and every simulated figure must be bit-identical between them (`postings_equivalence` proves it
/// property-by-property; the engine's release-only `postings_lockstep`
/// test holds the two in per-query lockstep at production scale).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum PostingsBackend {
    /// Traversal straight off `IndexReader::postings_range` (the seed's
    /// behavior).
    Reference,
    /// Blocked lists with block-max skipping and galloping intersection.
    #[default]
    Blocked,
}

// ---------------------------------------------------------------------
// Codec of the doc-sorted lists: LEB128 varints.
// ---------------------------------------------------------------------

#[inline]
fn write_varint(out: &mut Vec<u8>, mut v: u64) {
    while v >= 0x80 {
        out.push((v as u8) | 0x80);
        v >>= 7;
    }
    out.push(v as u8);
}

#[inline]
fn read_varint(data: &[u8], pos: &mut usize) -> u64 {
    let mut v = 0u64;
    let mut shift = 0;
    loop {
        let byte = data[*pos];
        *pos += 1;
        v |= ((byte & 0x7F) as u64) << shift;
        if byte < 0x80 {
            return v;
        }
        shift += 7;
    }
}

// ---------------------------------------------------------------------
// Decode arena
// ---------------------------------------------------------------------

/// A pool of decode buffers. Cursors and processors lease a buffer,
/// decode blocks into it, and release it when done — after a short
/// warm-up no traversal allocates.
#[derive(Debug, Clone, Default)]
pub struct DecodeArena {
    free: Vec<Vec<Posting>>,
}

impl DecodeArena {
    /// An empty arena.
    pub fn new() -> Self {
        DecodeArena::default()
    }

    /// Lease a (cleared) buffer.
    pub fn lease(&mut self) -> Vec<Posting> {
        self.free.pop().unwrap_or_default()
    }

    /// Return a buffer to the pool.
    pub fn release(&mut self, mut buf: Vec<Posting>) {
        buf.clear();
        self.free.push(buf);
    }

    /// Buffers currently pooled.
    pub fn pooled(&self) -> usize {
        self.free.len()
    }
}

// ---------------------------------------------------------------------
// Canonical-order blocked lists (the top-K scan representation)
// ---------------------------------------------------------------------

/// Postings per list pinned in memory (a whole number of blocks).
pub const HOT_PREFIX: u64 = 32 * BLOCK_SIZE as u64;

/// The pinned head of a posting list in canonical (tf-descending) order,
/// built lazily by prefix.
///
/// Impact order means the head of every list is by far the most
/// re-scanned part (most queries early-terminate well inside it), so the
/// first [`HOT_PREFIX`] postings a workload reaches are kept as a plain
/// slice; positions past it are not stored at all.
#[derive(Debug, Clone)]
pub struct BlockPostings {
    /// Full list length (the term's document frequency).
    df: u64,
    /// The pinned prefix: a whole number of [`BLOCK_SIZE`] blocks, or all
    /// `min(df, HOT_PREFIX)` postings once complete.
    hot: Vec<Posting>,
    /// Traversals recorded via [`BlockPostings::note_visit`].
    visits: u32,
}

impl BlockPostings {
    /// An empty (not yet built) list of known length.
    pub fn new(df: u64) -> Self {
        BlockPostings {
            df,
            hot: Vec::new(),
            visits: 0,
        }
    }

    /// Full list length.
    pub fn df(&self) -> u64 {
        self.df
    }

    /// Postings pinned so far.
    pub fn built(&self) -> u64 {
        self.hot.len() as u64
    }

    /// Memory the pinned postings take, in bytes.
    pub fn bytes(&self) -> u64 {
        self.built() * POSTING_BYTES
    }

    /// Extend the pinned prefix to cover at least `upto` postings
    /// (rounded up to a whole block, clamped to `df` and to
    /// [`HOT_PREFIX`]). Generation goes through `index.postings_range`,
    /// so the content is exactly the canonical sequence the reference
    /// backend scans.
    pub fn ensure<R: IndexReader>(&mut self, index: &R, term: TermId, upto: u64) {
        let want = upto.min(self.df).min(HOT_PREFIX);
        if self.built() >= want {
            return;
        }
        let target = (want.div_ceil(BLOCK_SIZE as u64) * BLOCK_SIZE as u64).min(self.df);
        let fresh = index.postings_range(term, self.built(), target);
        debug_assert_eq!(fresh.len() as u64, target - self.built());
        self.hot.extend(fresh);
        audit!(self, "BlockPostings::ensure");
    }

    /// The pinned prefix (the first [`BlockPostings::built`] postings of
    /// the list).
    #[inline]
    pub fn hot_prefix(&self) -> &[Posting] {
        &self.hot
    }

    /// Record a traversal of this list, returning whether it had been
    /// traversed (or built) before. Scanners use this to defer the
    /// build until a term proves reusable: under a Zipf query log the
    /// once-queried tail never repays pinning, while head terms are
    /// re-scanned hundreds of times.
    #[inline]
    pub fn note_visit(&mut self) -> bool {
        let seen = self.visits > 0 || !self.hot.is_empty();
        self.visits = self.visits.saturating_add(1);
        seen
    }
}

impl Validate for BlockPostings {
    fn validate(&self, report: &mut Report) {
        let subject = "BlockPostings";
        let (built, full) = (self.built(), self.df.min(HOT_PREFIX));
        report.check(built <= full, subject, "built-bounded", || {
            format!(
                "{built} postings pinned of a df-{} list (cap {HOT_PREFIX})",
                self.df
            )
        });
        report.check(
            built == full || built % BLOCK_SIZE as u64 == 0,
            subject,
            "built-block-aligned",
            || format!("pinned prefix {built} is not a whole number of blocks"),
        );
        // Block-max soundness: the scan bounds a block by its first tf,
        // which must dominate every tf in the block, or block-max
        // skipping would silently drop results.
        for (b, block) in self.hot.chunks(BLOCK_SIZE).enumerate() {
            let max = block.iter().map(|p| p.tf).max().unwrap_or(0);
            report.check(block[0].tf == max, subject, "block-max-first", || {
                format!("block {b}: first tf {} but block max {max}", block[0].tf)
            });
        }
    }
}

/// Aggregate footprint of a [`BlockStore`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct BlockStoreStats {
    /// Terms with at least one block built.
    pub terms: usize,
    /// Postings built across all lists. The store keeps nothing but the
    /// pinned prefixes, so this always equals `hot_postings`.
    pub built_postings: u64,
    /// Bytes the store holds: pinned postings × [`POSTING_BYTES`].
    /// (Nothing is encoded any more; the name is what the benchmark of
    /// record reads.)
    pub encoded_bytes: u64,
    /// Postings pinned across all lists (the hot prefixes).
    pub hot_postings: u64,
}

/// The per-engine cache of canonical blocked lists, keyed by term.
/// Contents are append-only: once a block is pinned it never changes.
#[derive(Debug, Clone, Default)]
pub struct BlockStore {
    lists: FxHashMap<TermId, BlockPostings>,
}

impl BlockStore {
    /// An empty store.
    pub fn new() -> Self {
        BlockStore::default()
    }

    /// The (possibly still unbuilt) list for `term`, creating it with
    /// length `df` on first access.
    pub fn list_mut(&mut self, term: TermId, df: u64) -> &mut BlockPostings {
        self.lists
            .entry(term)
            .or_insert_with(|| BlockPostings::new(df))
    }

    /// Drop `term`'s pinned list, if any. Returns whether one existed.
    ///
    /// The store is keyed by term only, so when an index becomes mutable
    /// a merged/updated list would silently *alias* the stale prefix —
    /// the live-index engine must drop touched terms before the next
    /// query reads them.
    pub fn remove(&mut self, term: TermId) -> bool {
        self.lists.remove(&term).is_some()
    }

    /// Drop every pinned list (deletes and content-changing merges
    /// invalidate an unknown term set).
    pub fn clear(&mut self) {
        self.lists.clear();
    }

    /// Aggregate footprint.
    pub fn stats(&self) -> BlockStoreStats {
        let mut s = BlockStoreStats::default();
        for l in self.lists.values() {
            if l.built() > 0 {
                s.terms += 1;
            }
            s.built_postings += l.built();
            s.encoded_bytes += l.bytes();
            s.hot_postings += l.built();
        }
        s
    }
}

impl Validate for BlockStore {
    fn validate(&self, report: &mut Report) {
        for list in self.lists.values() {
            list.validate(report);
        }
    }
}

// ---------------------------------------------------------------------
// Doc-sorted blocked lists + galloping cursor (the intersection side)
// ---------------------------------------------------------------------

/// Per-block metadata of a doc-sorted list.
#[derive(Debug, Clone, Copy)]
struct SortedBlock {
    offset: u32,
    len: u16,
    /// The block's last (largest) doc id — the skip key.
    max_doc: DocId,
}

/// A block-compressed, doc-ascending posting list: the blocked
/// counterpart of [`crate::skips::DocSortedList`]. Doc ids are plain
/// varint deltas (strictly increasing within a list), term frequencies
/// raw varints; each block decodes independently.
#[derive(Debug, Clone)]
pub struct BlockSortedList {
    len: usize,
    data: Vec<u8>,
    blocks: Vec<SortedBlock>,
}

impl BlockSortedList {
    /// Build from any posting list (re-sorts by doc id, like
    /// `DocSortedList::from_postings`).
    pub fn from_postings(list: &PostingList) -> Self {
        let mut postings = list.postings().to_vec();
        postings.sort_unstable_by_key(|p| p.doc);
        let mut data = Vec::new();
        let mut blocks = Vec::with_capacity(postings.len().div_ceil(SORTED_BLOCK));
        for chunk in postings.chunks(SORTED_BLOCK) {
            blocks.push(SortedBlock {
                offset: u32::try_from(data.len()).expect("list under 4 GiB"),
                len: chunk.len() as u16,
                max_doc: chunk.last().expect("chunks are non-empty").doc,
            });
            let mut prev_doc = 0u64;
            for p in chunk {
                write_varint(&mut data, p.doc as u64 - prev_doc);
                write_varint(&mut data, p.tf as u64);
                prev_doc = p.doc as u64;
            }
        }
        BlockSortedList {
            len: postings.len(),
            data,
            blocks,
        }
    }

    /// Entries in the list.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Number of blocks.
    pub fn num_blocks(&self) -> usize {
        self.blocks.len()
    }

    /// Encoded footprint in bytes (payload + metadata).
    pub fn bytes(&self) -> u64 {
        self.data.len() as u64 + self.blocks.len() as u64 * 10
    }

    /// Last (largest) doc id of block `b`.
    #[inline]
    pub fn max_doc(&self, b: usize) -> DocId {
        self.blocks[b].max_doc
    }

    /// Decode block `b` into `out`, replacing its contents.
    pub fn decode_block(&self, b: usize, out: &mut Vec<Posting>) {
        let blk = self.blocks[b];
        out.clear();
        let mut pos = blk.offset as usize;
        let mut doc = 0u64;
        for _ in 0..blk.len {
            doc += read_varint(&self.data, &mut pos);
            let tf = read_varint(&self.data, &mut pos) as u32;
            out.push(Posting {
                doc: doc as DocId,
                tf,
            });
        }
    }
}

impl Validate for BlockSortedList {
    fn validate(&self, report: &mut Report) {
        let subject = "BlockSortedList";
        let total: usize = self.blocks.iter().map(|b| b.len as usize).sum();
        report.check(total == self.len, subject, "block-accounting", || {
            format!(
                "{total} postings across blocks but list length {}",
                self.len
            )
        });
        // Skip-key soundness: galloping trusts each block's `max_doc` to
        // be its true last doc id, and doc ids to ascend across blocks.
        let mut buf = Vec::new();
        let mut prev_max: Option<DocId> = None;
        for b in 0..self.blocks.len() {
            self.decode_block(b, &mut buf);
            let ascending = buf.windows(2).all(|w| w[0].doc < w[1].doc);
            report.check(ascending, subject, "doc-order", || {
                format!("block {b}: decoded doc ids not strictly ascending")
            });
            let last = buf.last().map(|p| p.doc);
            report.check(
                last == Some(self.blocks[b].max_doc),
                subject,
                "max-doc-agree",
                || {
                    format!(
                        "block {b}: skip key {} but decoded last doc {:?}",
                        self.blocks[b].max_doc, last
                    )
                },
            );
            let first = buf.first().map(|p| p.doc);
            report.check(
                prev_max.is_none() || first > prev_max,
                subject,
                "cross-block-order",
                || {
                    format!(
                        "block {b}: first doc {first:?} not past previous block's max {prev_max:?}"
                    )
                },
            );
            prev_max = last;
        }
    }
}

/// A cursor over a [`BlockSortedList`] with galloping `advance_to`:
/// exponential probing over block `max_doc`s brackets the target block in
/// O(log distance) metadata reads, a binary search pins it down, and only
/// that one block is decoded and binary-searched.
///
/// Traversal accounting matches [`crate::skips::SkipCursor`]'s
/// conventions: `visited + skipped` equals the positions passed over,
/// `visited` counts postings individually compared against the target
/// (and found below it), and `skip_probes` counts metadata or
/// at-or-above comparisons. Because sorted blocks span exactly
/// [`SKIP_INTERVAL`] postings, `visited` here is never more than the
/// reference cursor's for the same traversal.
#[derive(Debug)]
pub struct BlockCursor<'a> {
    list: &'a BlockSortedList,
    /// Decoded postings of `block` (leased from a [`DecodeArena`]).
    buf: Vec<Posting>,
    /// Index of the currently decoded block.
    block: usize,
    /// Position within the decoded block.
    in_block: usize,
    /// Global position in the list.
    pos: usize,
    stats: SkipStats,
}

impl<'a> BlockCursor<'a> {
    /// Cursor at the start of the list, leasing its decode buffer from
    /// `arena`. Release it back with [`BlockCursor::into_buf`].
    pub fn new(list: &'a BlockSortedList, arena: &mut DecodeArena) -> Self {
        let mut buf = arena.lease();
        if !list.is_empty() {
            list.decode_block(0, &mut buf);
        }
        BlockCursor {
            list,
            buf,
            block: 0,
            in_block: 0,
            pos: 0,
            stats: SkipStats::default(),
        }
    }

    /// Surrender the decode buffer (for release back to the arena).
    pub fn into_buf(self) -> Vec<Posting> {
        self.buf
    }

    /// The current posting, or `None` at the end.
    pub fn current(&self) -> Option<Posting> {
        if self.pos >= self.list.len {
            None
        } else {
            Some(self.buf[self.in_block])
        }
    }

    /// Traversal accounting so far.
    pub fn stats(&self) -> SkipStats {
        self.stats
    }

    /// Step to the next posting.
    pub fn step(&mut self) -> Option<Posting> {
        if self.pos < self.list.len {
            self.pos += 1;
            self.in_block += 1;
            self.stats.visited += 1;
            if self.pos < self.list.len && self.in_block == self.buf.len() {
                self.block += 1;
                self.in_block = 0;
                self.list.decode_block(self.block, &mut self.buf);
            }
        }
        self.current()
    }

    /// Advance to the first posting with `doc >= target`. Galloping over
    /// block metadata, then binary search inside the landing block.
    pub fn advance_to(&mut self, target: DocId) -> Option<Posting> {
        if self.pos >= self.list.len {
            return None;
        }
        // Locate the target block via the metadata.
        self.stats.skip_probes += 1;
        if self.list.max_doc(self.block) < target {
            let nb = self.list.num_blocks();
            // Gallop: lo always has max_doc < target.
            let mut lo = self.block;
            let mut step = 1;
            let mut hi = loop {
                let probe = lo + step;
                if probe >= nb {
                    break nb - 1;
                }
                self.stats.skip_probes += 1;
                if self.list.max_doc(probe) >= target {
                    break probe;
                }
                lo = probe;
                step *= 2;
            };
            if hi == nb - 1 && self.list.max_doc(hi) < target {
                // The whole list is below the target.
                self.stats.skip_probes += 1;
                self.stats.skipped += (self.list.len - self.pos) as u64;
                self.pos = self.list.len;
                return None;
            }
            // Binary search the bracket (lo, hi] for the first block
            // reaching the target.
            while hi > lo + 1 {
                let mid = lo + (hi - lo) / 2;
                self.stats.skip_probes += 1;
                if self.list.max_doc(mid) >= target {
                    hi = mid;
                } else {
                    lo = mid;
                }
            }
            self.stats.skipped += (hi * SORTED_BLOCK - self.pos) as u64;
            self.pos = hi * SORTED_BLOCK;
            self.block = hi;
            self.in_block = 0;
            self.list.decode_block(hi, &mut self.buf);
        }
        // Binary search within the decoded block: first doc >= target.
        let start = self.in_block;
        let (mut lo, mut hi) = (self.in_block, self.buf.len());
        let mut less = 0u64;
        while lo < hi {
            let mid = lo + (hi - lo) / 2;
            if self.buf[mid].doc < target {
                less += 1;
                lo = mid + 1;
            } else {
                self.stats.skip_probes += 1;
                hi = mid;
            }
        }
        self.stats.visited += less;
        self.stats.skipped += (lo - start) as u64 - less;
        self.pos = self.block * SORTED_BLOCK + lo;
        self.in_block = lo;
        debug_assert!(lo < self.buf.len(), "landing block must contain the target");
        self.current()
    }
}

impl PostingsCursor for BlockCursor<'_> {
    fn current(&self) -> Option<Posting> {
        BlockCursor::current(self)
    }

    fn step(&mut self) -> Option<Posting> {
        BlockCursor::step(self)
    }

    fn advance_to(&mut self, target: DocId) -> Option<Posting> {
        BlockCursor::advance_to(self, target)
    }

    fn stats(&self) -> SkipStats {
        BlockCursor::stats(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::corpus::{CorpusSpec, SyntheticIndex};
    use crate::skips::{DocSortedList, SkipCursor};

    #[test]
    fn varint_roundtrip() {
        let values: Vec<u64> = vec![0, 1, 63, 127, 128, 300_000, u32::MAX as u64, u64::MAX];
        let mut buf = Vec::new();
        for &v in &values {
            write_varint(&mut buf, v);
        }
        let mut pos = 0;
        for &v in &values {
            assert_eq!(read_varint(&buf, &mut pos), v);
        }
        assert_eq!(pos, buf.len());
    }

    #[test]
    fn canonical_roundtrip_matches_postings_range() {
        // Terms 0 and 7 are longer than the pin, 150 and 1999 shorter.
        let idx = SyntheticIndex::new(CorpusSpec::tiny(3));
        assert!(idx.doc_freq(7) > HOT_PREFIX && idx.doc_freq(150) < HOT_PREFIX);
        for term in [0u32, 7, 150, 1999] {
            let df = idx.doc_freq(term);
            let mut bp = BlockPostings::new(df);
            bp.ensure(&idx, term, df);
            assert_eq!(bp.built(), df.min(HOT_PREFIX));
            let want = idx.postings_range(term, 0, bp.built());
            assert_eq!(bp.hot_prefix(), want, "term {term}");
        }
    }

    #[test]
    fn lazy_prefix_build_is_incremental_and_block_aligned() {
        let idx = SyntheticIndex::new(CorpusSpec::tiny(3));
        let term = 1u32;
        let df = idx.doc_freq(term);
        assert!(df > HOT_PREFIX, "need a list longer than the pin");
        let mut bp = BlockPostings::new(df);
        bp.ensure(&idx, term, 1);
        assert_eq!(bp.built(), BLOCK_SIZE as u64, "rounds up to a block");
        bp.ensure(&idx, term, 1); // no-op
        assert_eq!(bp.built(), BLOCK_SIZE as u64);
        bp.ensure(&idx, term, BLOCK_SIZE as u64 + 1);
        assert_eq!(bp.built(), 2 * BLOCK_SIZE as u64);
        assert_eq!(bp.bytes(), 2 * BLOCK_SIZE as u64 * POSTING_BYTES);
        bp.ensure(&idx, term, u64::MAX);
        assert_eq!(bp.built(), HOT_PREFIX, "nothing is kept past the pin");
        // The stitched prefix equals the straight generation.
        assert_eq!(bp.hot_prefix(), idx.postings_range(term, 0, HOT_PREFIX));
    }

    #[test]
    fn block_max_bounds_every_tf() {
        let idx = SyntheticIndex::new(CorpusSpec::tiny(3));
        let term = 0u32;
        let mut bp = BlockPostings::new(idx.doc_freq(term));
        bp.ensure(&idx, term, u64::MAX);
        let blocks: Vec<&[Posting]> = bp.hot_prefix().chunks(BLOCK_SIZE).collect();
        assert_eq!(blocks.len() as u64, HOT_PREFIX / BLOCK_SIZE as u64);
        for (b, block) in blocks.iter().enumerate() {
            let max = block.iter().map(|p| p.tf).max().unwrap();
            assert_eq!(block[0].tf, max, "block {b}");
        }
        assert!(
            blocks[0][0].tf > blocks[31][0].tf,
            "bounds tighten with depth"
        );
    }

    fn violated(bp: &BlockPostings) -> Vec<&'static str> {
        let mut report = Report::new();
        bp.validate(&mut report);
        report.violations().iter().map(|v| v.invariant).collect()
    }

    #[test]
    fn validator_catches_each_seeded_corruption() {
        let idx = SyntheticIndex::new(CorpusSpec::tiny(3));
        let pinned = |term: TermId, upto: u64| {
            let mut bp = BlockPostings::new(idx.doc_freq(term));
            bp.ensure(&idx, term, upto);
            assert!(violated(&bp).is_empty());
            bp
        };
        let filler = Posting { doc: 0, tf: 1 };

        // More pinned than the list holds (a whole number of blocks, so
        // only the bound trips) ...
        let short = idx.doc_freq(1999);
        assert!(short < BLOCK_SIZE as u64);
        let mut bp = pinned(1999, short);
        bp.hot.resize(BLOCK_SIZE, filler);
        assert_eq!(violated(&bp), ["built-bounded"]);
        // ... and more than the pin allows.
        let mut bp = pinned(0, u64::MAX);
        bp.hot.extend([filler; BLOCK_SIZE]);
        assert_eq!(violated(&bp), ["built-bounded"]);

        // A prefix that stops inside a block.
        let mut bp = pinned(0, 2 * BLOCK_SIZE as u64);
        bp.hot.pop();
        assert_eq!(violated(&bp), ["built-block-aligned"]);

        // A block whose first tf no longer dominates it.
        let mut bp = pinned(0, 2 * BLOCK_SIZE as u64);
        bp.hot[BLOCK_SIZE + 5].tf = bp.hot[BLOCK_SIZE].tf + 1;
        assert_eq!(violated(&bp), ["block-max-first"]);
    }

    #[test]
    fn store_stats_track_built_lists() {
        let idx = SyntheticIndex::new(CorpusSpec::tiny(3));
        let mut store = BlockStore::new();
        assert_eq!(store.stats(), BlockStoreStats::default());
        let df = idx.doc_freq(5);
        assert!(df > HOT_PREFIX);
        store.list_mut(5, df).ensure(&idx, 5, df);
        let short = idx.doc_freq(150);
        store.list_mut(150, short).ensure(&idx, 150, short);
        store.list_mut(9, 100); // created but never built
        let s = store.stats();
        assert_eq!(s.terms, 2);
        assert_eq!(s.built_postings, HOT_PREFIX + short);
        assert_eq!(s.hot_postings, s.built_postings);
        assert_eq!(s.encoded_bytes, s.built_postings * POSTING_BYTES);
    }

    fn sorted_list(docs: &[u32]) -> BlockSortedList {
        let postings = docs
            .iter()
            .map(|&doc| Posting {
                doc,
                tf: doc % 7 + 1,
            })
            .collect();
        BlockSortedList::from_postings(&PostingList::new(0, postings))
    }

    fn ref_list(docs: &[u32]) -> DocSortedList {
        let postings = docs
            .iter()
            .map(|&doc| Posting {
                doc,
                tf: doc % 7 + 1,
            })
            .collect();
        DocSortedList::from_postings(&PostingList::new(0, postings))
    }

    #[test]
    fn sorted_roundtrip() {
        let docs: Vec<u32> = (0..1000).map(|i| i * 3 + (i % 5)).collect();
        let bl = sorted_list(&docs);
        let rl = ref_list(&docs);
        assert_eq!(bl.len(), rl.len());
        let mut decoded = Vec::new();
        let mut buf = Vec::new();
        for b in 0..bl.num_blocks() {
            bl.decode_block(b, &mut buf);
            decoded.extend_from_slice(&buf);
        }
        assert_eq!(decoded, rl.postings().to_vec());
    }

    #[test]
    fn cursor_matches_skip_cursor_on_mixed_traversals() {
        let docs: Vec<u32> = (0..5_000).map(|i| i * 3).collect();
        let bl = sorted_list(&docs);
        let rl = ref_list(&docs);
        let mut arena = DecodeArena::new();
        let mut bc = BlockCursor::new(&bl, &mut arena);
        let mut sc = SkipCursor::new(&rl);
        // Interleave steps and advances of wildly different distances.
        let script: Vec<(bool, u32)> = vec![
            (false, 0),
            (true, 10),
            (false, 0),
            (true, 3 * 700),
            (true, 3 * 701),
            (false, 0),
            (true, 3 * 4_000 + 1),
            (true, 3 * 4_999),
            (true, 3 * 5_000),
        ];
        for (step, target) in script {
            let (a, b) = if step {
                (bc.step(), sc.step())
            } else {
                (bc.advance_to(target), sc.advance_to(target))
            };
            assert_eq!(a, b, "step={step} target={target}");
        }
        // Identical span accounting, never more individual comparisons.
        assert_eq!(
            bc.stats().visited + bc.stats().skipped,
            sc.stats().visited + sc.stats().skipped
        );
        assert!(bc.stats().visited <= sc.stats().visited);
        arena.release(bc.into_buf());
        assert_eq!(arena.pooled(), 1);
    }

    #[test]
    fn galloping_probes_logarithmically() {
        let docs: Vec<u32> = (0..100_000).map(|i| i * 2).collect();
        let bl = sorted_list(&docs);
        let mut arena = DecodeArena::new();
        let mut bc = BlockCursor::new(&bl, &mut arena);
        let p = bc.advance_to(2 * 99_000).expect("in range");
        assert_eq!(p.doc, 2 * 99_000);
        let s = bc.stats();
        let blocks = bl.num_blocks() as u64;
        assert!(
            s.skip_probes < 4 * (64 - (blocks.leading_zeros() as u64)) + 16,
            "gallop must probe O(log blocks), got {} over {} blocks",
            s.skip_probes,
            blocks
        );
        assert!(
            s.visited <= 7,
            "binary search within one block, got {}",
            s.visited
        );
        assert!(s.skipped > 98_000);
    }

    #[test]
    fn cursor_exhaustion_and_empty() {
        let bl = sorted_list(&[]);
        let mut arena = DecodeArena::new();
        let mut bc = BlockCursor::new(&bl, &mut arena);
        assert!(bc.current().is_none());
        assert!(bc.advance_to(5).is_none());
        assert!(bc.step().is_none());
        assert_eq!(bc.stats(), SkipStats::default());

        let bl = sorted_list(&[10, 20, 30]);
        let mut bc = BlockCursor::new(&bl, &mut arena);
        assert!(bc.advance_to(31).is_none());
        assert!(bc.current().is_none());
        assert!(bc.advance_to(10).is_none(), "stays exhausted");
    }

    #[test]
    fn cursor_is_monotone() {
        let docs: Vec<u32> = (0..2_000).map(|i| i * 5).collect();
        let bl = sorted_list(&docs);
        let mut arena = DecodeArena::new();
        let mut bc = BlockCursor::new(&bl, &mut arena);
        bc.advance_to(5 * 1_500);
        let at = bc.current().expect("in range").doc;
        let p = bc
            .advance_to(3)
            .expect("still at or past previous position");
        assert!(p.doc >= at);
    }
}
