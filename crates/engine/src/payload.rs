//! Cached result payloads: what the simulation reads of a result.
//!
//! No caller ever reads a cached document: a hit charges the entry's
//! footprint and folds it into the order-insensitive result digest. So
//! the cache holds exactly those two things, hashed once when the result
//! is computed, in a `Copy` value — admit, demote and flush move 16 bytes.

use searchidx::{ResultEntry, RESULT_DOC_BYTES};

/// A result entry as the cache holds it: its size and its digest term.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CachedResult {
    docs: u32,
    digest: u64,
}

impl CachedResult {
    /// Record the entry's document count and digest term.
    pub fn encode(entry: &ResultEntry) -> Self {
        CachedResult {
            docs: entry.docs.len() as u32,
            digest: result_hash(entry),
        }
    }

    /// The term this result adds to the engine's result digest.
    pub(crate) fn digest(&self) -> u64 {
        self.digest
    }

    /// Simulated cache footprint — the paper's ~400 B per document,
    /// identical to [`ResultEntry::bytes`] for the same doc count.
    pub fn bytes(&self) -> u64 {
        self.docs as u64 * RESULT_DOC_BYTES
    }
}

/// One served result's term of the order-insensitive result digest: an
/// FNV-style chain over (doc, score bits) in rank order, forced odd.
fn result_hash(result: &ResultEntry) -> u64 {
    let mut h: u64 = 0x9e37_79b9_7f4a_7c15;
    for d in &result.docs {
        h = (h ^ (d.doc as u64)).wrapping_mul(0x100_0000_01b3);
        h = (h ^ (d.score.to_bits() as u64)).wrapping_mul(0x100_0000_01b3);
    }
    h | 1
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{EngineConfig, IndexPlacement, SearchEngine};
    use searchidx::ScoredDoc;

    fn entry(n: u32) -> ResultEntry {
        ResultEntry {
            docs: (0..n)
                .map(|d| ScoredDoc {
                    doc: d * 3,
                    score: d as f32 * 0.5 - 1.0,
                })
                .collect(),
        }
    }

    #[test]
    fn simulated_footprint_matches_result_entry() {
        for n in [0, 1, 50] {
            let e = entry(n);
            assert_eq!(CachedResult::encode(&e).bytes(), e.bytes());
        }
    }

    #[test]
    fn digest_is_the_term_execute_folds_for_a_computed_result() {
        // A cache-less engine computes every query.
        let mut engine = SearchEngine::new(EngineConfig::no_cache(5_000, IndexPlacement::Hdd, 11));
        let query = engine.log().stream(1).pop().expect("one query");
        let entry = searchidx::TopKProcessor::new(EngineConfig::default_topk(5_000))
            .process(engine.index(), &query.terms)
            .result;
        assert!(!entry.docs.is_empty());
        let before = engine.result_digest();
        engine.execute(&query);
        let delta = engine.result_digest().wrapping_sub(before);
        assert_eq!(CachedResult::encode(&entry).digest(), delta);
    }

    #[test]
    fn digest_sees_rank_and_score_bits_and_covers_the_empty_result() {
        let e = entry(50);
        let digest = CachedResult::encode(&e).digest();
        let mut swapped = e.clone();
        swapped.docs.swap(3, 4);
        assert_ne!(CachedResult::encode(&swapped).digest(), digest);
        let mut flipped = e;
        flipped.docs[7].score = f32::from_bits(flipped.docs[7].score.to_bits() ^ 1);
        assert_ne!(CachedResult::encode(&flipped).digest(), digest);
        assert_eq!(
            CachedResult::encode(&entry(0)).digest(),
            0x9e37_79b9_7f4a_7c15
        );
    }
}
