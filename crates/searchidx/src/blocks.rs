//! Blocked posting lists.
//!
//! The seed's query hot path regenerates synthetic postings on every
//! traversal (`IndexReader::postings_range`) and tests every posting
//! against the quit rules. This module provides the second postings
//! representation of the engine: lists cut into fixed-size blocks, each
//! carrying enough metadata (a block-max `tf`) to be *skipped without
//! being read*, after the block-max indexes of the WAND family: whole
//! blocks that cannot matter are jumped via their metadata.
//!
//! [`BlockPostings`] holds a list in **canonical (tf-descending) order**,
//! the order the disjunctive [`crate::topk`] processor scans. It keeps
//! what queries read and nothing else: the first [`HOT_PREFIX`] postings
//! of a list, pinned as plain `Posting`s and built *lazily by prefix* in
//! blocks of [`BLOCK_SIZE`] — only the depth a workload actually scans is
//! ever generated, mirroring the partial-traversal economics of the
//! paper. A block's first posting carries its largest `tf` (the order is
//! tf-descending), so the block-max bound needs no stored metadata. The
//! rare scan that runs past the pinned prefix regenerates the block it is
//! in through `postings_range`; nothing is kept for it.

use fxmap::FxHashMap;

use invariant::{audit, Report, Validate};

use crate::types::{IndexReader, Posting, TermId, POSTING_BYTES};

/// Postings per block in canonical (tf-descending) lists.
pub const BLOCK_SIZE: usize = 128;

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
    /// Blocked lists with block-max skipping.
    #[default]
    Blocked,
}

/// Block-max accounting of a blocked top-K scan.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SkipStats {
    /// Postings read and scored.
    pub visited: u64,
    /// Postings pruned unread under a block-max bound.
    pub skipped: u64,
    /// Block-max bounds consulted.
    pub skip_probes: u64,
}

impl SkipStats {
    /// Merge another scan's counts.
    pub fn absorb(&mut self, other: SkipStats) {
        self.visited += other.visited;
        self.skipped += other.skipped;
        self.skip_probes += other.skip_probes;
    }
}

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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::corpus::{CorpusSpec, SyntheticIndex};

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

    #[test]
    fn stats_absorb() {
        let mut a = SkipStats {
            visited: 1,
            skipped: 2,
            skip_probes: 3,
        };
        a.absorb(SkipStats {
            visited: 10,
            skipped: 20,
            skip_probes: 30,
        });
        assert_eq!((a.visited, a.skipped, a.skip_probes), (11, 22, 33));
    }
}
