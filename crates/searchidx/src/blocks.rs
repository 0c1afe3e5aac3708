//! Blocked posting lists: what the query processor scans instead of
//! regenerating postings through `IndexReader::postings_range` on every
//! traversal.
//!
//! [`BlockPostings`] holds the head of a list in **canonical
//! (tf-descending) order**, the order the disjunctive [`crate::topk`]
//! processor scans: the first [`HOT_PREFIX`] postings, built *lazily by
//! prefix* in blocks of [`BLOCK_SIZE`] — only the depth a workload
//! actually scans is ever generated, mirroring the partial-traversal
//! economics of the paper. A frequency-sorted head is a handful of
//! equal-tf runs, so a posting is stored as one doc id and a run's
//! `(end, tf)` once — 4 B per posting plus 8 B per run where plain
//! `Posting`s take 8 B each — and a scan weighs a run once, not once per
//! posting. A block's first posting carries its largest `tf`, so the
//! block-max bound that lets a scan skip the block unread (after the
//! block-max indexes of the WAND family) needs no stored metadata. A
//! term's first visit, and the rare scan that runs past the pinned
//! prefix, regenerate the block they are in, in the same form, through
//! `IndexReader::runs_range`; nothing is kept for them.

use fxmap::FxHashMap;

use invariant::{audit, Report, Validate};

use crate::types::{DocId, IndexReader, Posting, TermId};

/// Postings per block in canonical (tf-descending) lists.
pub const BLOCK_SIZE: usize = 128;

/// Where the query processor reads postings from.
///
/// `Blocked` is what every engine, figure and benchmark workload runs.
/// `Reference` regenerates every list through `postings_range` on every
/// traversal and exists to be compared against: every simulated figure
/// must be bit-identical between the two (`postings_equivalence` proves
/// it property-by-property; the engine's release-only `postings_lockstep`
/// test holds the two in per-query lockstep at production scale).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum PostingsBackend {
    /// Traversal straight off `IndexReader::postings_range` (the seed's
    /// behavior).
    Reference,
    /// Pinned run-length list prefixes (the [`BlockStore`]), scanned a
    /// run at a time behind a per-block block-max gate.
    #[default]
    Blocked,
}

/// Block-max accounting of a blocked top-K scan — of scans of pinned
/// lists only. A term's first visit runs the same gated loop but pins
/// nothing and counts nothing here. These counts feed the engine's
/// statistics, the benchmark's `sim_fingerprint` and the pinned probe
/// counts of `postings_lockstep`, and they stay comparable across
/// changes to where a first visit's blocks come from only if first
/// visits stay out of them.
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

/// Append `postings` to a `(docs, runs)` sequence, extending the last run
/// while the tf repeats. A run is `(end, tf)`: positions `[previous run's
/// end, end)` of `docs` all carry `tf`.
pub(crate) fn append_runs(docs: &mut Vec<DocId>, runs: &mut Vec<(u32, u32)>, postings: &[Posting]) {
    for run in postings.chunk_by(|a, b| a.tf == b.tf) {
        docs.extend(run.iter().map(|p| p.doc));
        close_run(runs, docs.len(), run[0].tf);
    }
}

/// Record that `docs` now ends at `end` with a run of `tf`: extend the
/// last run if it carries the same tf, open a new one otherwise.
#[inline]
pub(crate) fn close_run(runs: &mut Vec<(u32, u32)>, end: usize, tf: u32) {
    match runs.last_mut() {
        Some(last) if last.1 == tf => last.0 = end as u32,
        _ => runs.push((end as u32, tf)),
    }
}

/// The pinned head of a posting list in canonical (tf-descending) order,
/// built lazily by prefix.
///
/// Impact order means the head of every list is by far the most
/// re-scanned part (most queries early-terminate well inside it), so the
/// first [`HOT_PREFIX`] postings a workload reaches are kept, as doc ids
/// plus tf runs; positions past it are not stored at all.
#[derive(Debug, Clone)]
pub struct BlockPostings {
    /// Full list length (the term's document frequency).
    df: u64,
    /// Doc ids of the pinned prefix: a whole number of [`BLOCK_SIZE`]
    /// blocks, or all `min(df, HOT_PREFIX)` postings once complete.
    docs: Vec<DocId>,
    /// The prefix's tfs as maximal `(end, tf)` runs, ends strictly
    /// increasing up to `docs.len()`.
    runs: Vec<(u32, u32)>,
    /// Traversals recorded via [`BlockPostings::note_visit`].
    visits: u32,
}

impl BlockPostings {
    /// An empty (not yet built) list of known length.
    pub fn new(df: u64) -> Self {
        BlockPostings {
            df,
            docs: Vec::new(),
            runs: Vec::new(),
            visits: 0,
        }
    }

    /// Postings pinned so far.
    pub fn built(&self) -> u64 {
        self.docs.len() as u64
    }

    /// Memory the pinned postings take, in bytes: 4 per doc id, 8 per run.
    pub fn bytes(&self) -> u64 {
        4 * self.docs.len() as u64 + 8 * self.runs.len() as u64
    }

    /// Extend the pinned prefix to cover at least `upto` postings
    /// (rounded up to a whole block, clamped to `df` and to
    /// [`HOT_PREFIX`]). Generation goes through `index.runs_range`, so
    /// the content is exactly the canonical sequence the reference
    /// backend scans through `postings_range`.
    pub fn ensure<R: IndexReader>(&mut self, index: &R, term: TermId, upto: u64) {
        let want = upto.min(self.df).min(HOT_PREFIX);
        if self.built() >= want {
            return;
        }
        let target = (want.div_ceil(BLOCK_SIZE as u64) * BLOCK_SIZE as u64).min(self.df);
        index.runs_range(term, self.built(), target, &mut self.docs, &mut self.runs);
        debug_assert_eq!(self.built(), target);
        audit!(self, "BlockPostings::ensure");
    }

    /// The pinned prefix (the first [`BlockPostings::built`] postings of
    /// the list): its doc ids, and its tfs as `(end, tf)` runs — positions
    /// `[previous end, end)` carry `tf`.
    pub fn pinned(&self) -> (&[DocId], &[(u32, u32)]) {
        (&self.docs, &self.runs)
    }

    /// The pinned prefix re-materialised as `Posting`s.
    pub fn postings(&self) -> impl Iterator<Item = Posting> + '_ {
        let mut start = 0;
        self.runs.iter().flat_map(move |&(end, tf)| {
            let run = &self.docs[start..end as usize];
            start = end as usize;
            run.iter().map(move |&doc| Posting { doc, tf })
        })
    }

    /// Record a traversal of this list, returning whether it had been
    /// traversed (or built) before. Scanners use this to defer the
    /// build until a term proves reusable: under a Zipf query log the
    /// once-queried tail never repays pinning, while head terms are
    /// re-scanned hundreds of times.
    #[inline]
    pub fn note_visit(&mut self) -> bool {
        let seen = self.visits > 0 || !self.docs.is_empty();
        self.visits = self.visits.saturating_add(1);
        seen
    }
}

impl Validate for BlockPostings {
    fn validate(&self, report: &mut Report) {
        let (built, full, df, runs) = (self.built(), self.df.min(HOT_PREFIX), self.df, &self.runs);
        let mut check = |ok: bool, invariant: &'static str, at: usize| {
            report.check(ok, "BlockPostings", invariant, || {
                let pinned = format!("{built} postings pinned in {} runs", runs.len());
                format!("at {at}: {pinned} of a df-{df} list (cap {HOT_PREFIX})")
            });
        };
        check(built <= full, "built-bounded", 0);
        let aligned = built == full || built % BLOCK_SIZE as u64 == 0;
        check(aligned, "built-block-aligned", 0);
        // The runs tile the doc ids: a scan's cursor walks them forward
        // and indexes `docs` by their ends.
        let covers = runs.first().is_none_or(|first| first.0 > 0)
            && runs.windows(2).all(|w| w[0].0 < w[1].0)
            && runs.last().map_or(0, |last| u64::from(last.0)) == built;
        check(covers, "runs-cover", 0);
        if !covers {
            return;
        }
        let repeat = runs.windows(2).position(|w| w[0].1 == w[1].1);
        check(repeat.is_none(), "runs-maximal", repeat.unwrap_or(0));
        // Block-max soundness: the scan bounds a block by its first tf,
        // which must dominate every tf in the block, or block-max
        // skipping would silently drop results.
        let tfs: Vec<u32> = self.postings().map(|p| p.tf).collect();
        for (b, block) in tfs.chunks(BLOCK_SIZE).enumerate() {
            check(block.iter().all(|&tf| tf <= block[0]), "block-max-first", b);
        }
    }
}

/// Aggregate footprint of a [`BlockStore`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct BlockStoreStats {
    /// Terms with at least one block built.
    pub terms: usize,
    /// Postings pinned across all lists (the store keeps nothing else).
    pub built_postings: u64,
    /// Bytes the store holds: 4 per pinned doc id plus 8 per tf run,
    /// summed over the lists.
    pub encoded_bytes: u64,
}

/// The per-engine cache of canonical blocked lists, keyed by term.
/// Contents are append-only: once a block is pinned it never changes.
#[derive(Debug, Clone, Default)]
pub struct BlockStore {
    lists: FxHashMap<TermId, BlockPostings>,
}

impl BlockStore {
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
            assert_eq!(bp.postings().collect::<Vec<_>>(), want, "term {term}");
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
        assert_eq!(bp.bytes(), 4 * bp.built() + 8 * bp.pinned().1.len() as u64);
        bp.ensure(&idx, term, u64::MAX);
        assert_eq!(bp.built(), HOT_PREFIX, "nothing is kept past the pin");
        // The stitched prefix equals the straight generation, runs merged
        // across the stitches.
        let want = idx.postings_range(term, 0, HOT_PREFIX);
        assert_eq!(bp.postings().collect::<Vec<_>>(), want);
        assert!(violated(&bp).is_empty());
    }

    #[test]
    fn block_max_bounds_every_tf() {
        let idx = SyntheticIndex::new(CorpusSpec::tiny(3));
        let term = 0u32;
        let mut bp = BlockPostings::new(idx.doc_freq(term));
        bp.ensure(&idx, term, u64::MAX);
        let pinned: Vec<Posting> = bp.postings().collect();
        let blocks: Vec<&[Posting]> = pinned.chunks(BLOCK_SIZE).collect();
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
        // What the validator says after `corrupt` hits a clean prefix.
        let broken = |term: TermId, upto: u64, corrupt: &dyn Fn(&mut BlockPostings)| {
            let mut bp = BlockPostings::new(idx.doc_freq(term));
            bp.ensure(&idx, term, upto);
            assert!(violated(&bp).is_empty());
            corrupt(&mut bp);
            violated(&bp)
        };
        // Append `n` postings of the last run's tf, keeping the runs tiled.
        let pad = |bp: &mut BlockPostings, n: usize| {
            bp.docs.extend(std::iter::repeat_n(0, n));
            bp.runs.last_mut().expect("built").0 = bp.docs.len() as u32;
        };
        let two_blocks = 2 * BLOCK_SIZE as u64;

        // More pinned than the list holds (a whole number of blocks, so
        // only the bound trips), and more than the pin allows.
        let short = idx.doc_freq(1999) as usize;
        assert!(short < BLOCK_SIZE);
        let over_df = broken(1999, u64::MAX, &|bp| pad(bp, BLOCK_SIZE - short));
        assert_eq!(over_df, ["built-bounded"]);
        let over_pin = broken(0, u64::MAX, &|bp| pad(bp, BLOCK_SIZE));
        assert_eq!(over_pin, ["built-bounded"]);

        // A prefix that stops inside a block.
        let ragged = broken(0, two_blocks, &|bp| {
            let cut: Vec<Posting> = bp.postings().take(2 * BLOCK_SIZE - 1).collect();
            (bp.docs, bp.runs) = (Vec::new(), Vec::new());
            append_runs(&mut bp.docs, &mut bp.runs, &cut);
        });
        assert_eq!(ragged, ["built-block-aligned"]);

        // Runs that stop short of the doc ids, run past them, or go back.
        let corruptions: [&dyn Fn(&mut BlockPostings); 3] = [
            &|bp| bp.runs.truncate(1),
            &|bp| bp.runs.last_mut().expect("built").0 += 1,
            &|bp| bp.runs[1].0 = bp.runs[0].0,
        ];
        for corrupt in corruptions {
            assert_eq!(broken(0, two_blocks, corrupt), ["runs-cover"]);
        }

        // A run cut in two (the longest one, so there is room to).
        let split = broken(0, two_blocks, &|bp| {
            let longest = (1..bp.runs.len()).max_by_key(|&r| bp.runs[r].0 - bp.runs[r - 1].0);
            let r = longest.expect("several runs");
            assert!(bp.runs[r].0 - bp.runs[r - 1].0 >= 2);
            bp.runs.insert(r, (bp.runs[r].0 - 1, bp.runs[r].1));
        });
        assert_eq!(split, ["runs-maximal"]);

        // A block whose first tf no longer dominates it: the second
        // block's last run, which starts inside it, raised above all.
        let unsound = broken(0, two_blocks, &|bp| {
            let n = bp.runs.len();
            assert!(bp.runs[n - 2].0 as usize > BLOCK_SIZE);
            bp.runs[n - 1].1 = u32::MAX;
        });
        assert_eq!(unsound, ["block-max-first"]);
    }

    #[test]
    fn store_stats_track_built_lists() {
        let idx = SyntheticIndex::new(CorpusSpec::tiny(3));
        let mut store = BlockStore::default();
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
        let runs: u64 = store.lists.values().map(|l| l.runs.len() as u64).sum();
        assert_eq!(s.encoded_bytes, 4 * s.built_postings + 8 * runs);
        assert!(s.encoded_bytes < s.built_postings * crate::types::POSTING_BYTES);
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
