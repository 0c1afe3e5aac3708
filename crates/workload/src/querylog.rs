//! AOL-like query-log generation.

use searchidx::TermId;
use simclock::{Rng, Zipf};

/// A query instance in the stream.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Query {
    /// Identity of the *distinct* query (rank in the popularity order;
    /// rank 0 is the most popular query). Two stream entries with the same
    /// id are repetitions — result-cache hits.
    pub id: u64,
    /// The query's terms (1–4, possibly repeating a term).
    pub terms: Vec<TermId>,
}

/// Parameters of the synthetic log.
#[derive(Debug, Clone)]
pub struct QueryLogSpec {
    /// Universe of distinct queries.
    pub distinct_queries: u64,
    /// Zipf exponent of query popularity. AOL-family logs measure ≈ 0.85.
    pub query_alpha: f64,
    /// Vocabulary to draw terms from (the index's term space).
    pub vocab: u64,
    /// Zipf exponent of term popularity within queries (≈ 1.0, matching
    /// the collection — people ask about what's written about).
    pub term_alpha: f64,
    /// Maximum terms per query (lengths are 1..=max, web-skewed short).
    pub max_terms: usize,
    /// Master seed.
    pub seed: u64,
}

impl QueryLogSpec {
    /// An AOL-like log over a vocabulary of `vocab` terms.
    pub fn aol_like(vocab: u64, seed: u64) -> Self {
        QueryLogSpec {
            distinct_queries: 200_000,
            query_alpha: 0.85,
            vocab,
            term_alpha: 1.0,
            max_terms: 4,
            seed,
        }
    }

    /// A small spec for tests.
    pub fn tiny(vocab: u64, seed: u64) -> Self {
        QueryLogSpec {
            distinct_queries: 500,
            query_alpha: 0.85,
            vocab,
            term_alpha: 1.0,
            max_terms: 4,
            seed,
        }
    }
}

/// The query-log generator. Stateless per query: the terms of distinct
/// query `q` are a pure function of `(seed, q)`, so any log position can
/// be regenerated without storing the log.
#[derive(Debug, Clone)]
pub struct QueryLog {
    spec: QueryLogSpec,
    query_zipf: Zipf,
    term_zipf: Zipf,
}

impl QueryLog {
    /// Build from a spec.
    pub fn new(spec: QueryLogSpec) -> Self {
        assert!(spec.distinct_queries > 0);
        assert!(spec.vocab > 0);
        assert!(spec.max_terms >= 1);
        let query_zipf = Zipf::new(spec.distinct_queries, spec.query_alpha);
        let term_zipf = Zipf::new(spec.vocab, spec.term_alpha);
        QueryLog {
            spec,
            query_zipf,
            term_zipf,
        }
    }

    /// The spec.
    pub fn spec(&self) -> &QueryLogSpec {
        &self.spec
    }

    /// The terms of distinct query `id` — deterministic.
    pub fn terms_of(&self, id: u64) -> Vec<TermId> {
        let mut rng = Rng::new(self.spec.seed ^ id.wrapping_mul(0xD134_2543_DE82_EF95));
        // Web queries are short: P(len) ∝ {1: 30%, 2: 35%, 3: 22%, 4+: 13%},
        // truncated at max_terms.
        let len = {
            let u = rng.next_f64();
            let l = if u < 0.30 {
                1
            } else if u < 0.65 {
                2
            } else if u < 0.87 {
                3
            } else {
                4
            };
            l.min(self.spec.max_terms)
        };
        (0..len)
            .map(|_| (self.term_zipf.sample(&mut rng) - 1) as TermId)
            .collect()
    }

    /// Generate one stream entry using the caller's RNG.
    pub fn sample(&self, rng: &mut Rng) -> Query {
        let id = self.query_zipf.sample(rng) - 1;
        Query {
            id,
            terms: self.terms_of(id),
        }
    }

    /// Generate a stream of `n` entries from a fresh RNG forked off the
    /// spec's seed.
    pub fn stream(&self, n: usize) -> Vec<Query> {
        let mut rng = Rng::new(self.spec.seed.wrapping_add(0xA5A5_A5A5));
        (0..n).map(|_| self.sample(&mut rng)).collect()
    }

    /// Iterator form of [`QueryLog::stream`] — constant memory, for long
    /// runs.
    pub fn stream_iter(&self, n: usize) -> impl Iterator<Item = Query> + '_ {
        let mut rng = Rng::new(self.spec.seed.wrapping_add(0xA5A5_A5A5));
        (0..n).map(move |_| self.sample(&mut rng))
    }

    /// Term-access histogram over a stream of `n` queries: how many times
    /// each term appears (Fig. 3(b)'s distribution). Returns (term, count)
    /// sorted by descending count.
    pub fn term_access_counts(&self, n: usize) -> Vec<(TermId, u64)> {
        let mut counts = std::collections::BTreeMap::new();
        for q in self.stream_iter(n) {
            for t in q.terms {
                *counts.entry(t).or_insert(0u64) += 1;
            }
        }
        let mut v: Vec<(TermId, u64)> = counts.into_iter().collect();
        v.sort_unstable_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
        v
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn log() -> QueryLog {
        QueryLog::new(QueryLogSpec::tiny(2_000, 11))
    }

    #[test]
    fn terms_are_deterministic_per_id() {
        let l = log();
        assert_eq!(l.terms_of(42), l.terms_of(42));
        // Streams regenerate identical queries for repeated ids.
        let stream = l.stream(2_000);
        for q in &stream {
            assert_eq!(q.terms, l.terms_of(q.id));
        }
    }

    #[test]
    fn stream_is_reproducible() {
        let l = log();
        assert_eq!(l.stream(100), l.stream(100));
        let other = QueryLog::new(QueryLogSpec::tiny(2_000, 12));
        assert_ne!(l.stream(100), other.stream(100));
    }

    #[test]
    fn stream_iter_matches_stream() {
        let l = log();
        let a = l.stream(50);
        let b: Vec<Query> = l.stream_iter(50).collect();
        assert_eq!(a, b);
    }

    #[test]
    fn query_lengths_are_in_range_and_short_biased() {
        let l = log();
        let mut lens = [0usize; 5];
        for q in l.stream_iter(5_000) {
            assert!((1..=4).contains(&q.terms.len()));
            lens[q.terms.len()] += 1;
        }
        assert!(
            lens[1] + lens[2] > lens[3] + lens[4],
            "short queries dominate"
        );
    }

    #[test]
    fn query_popularity_is_zipf_like() {
        let l = log();
        let n = 20_000;
        let mut counts = std::collections::BTreeMap::new();
        for q in l.stream_iter(n) {
            *counts.entry(q.id).or_insert(0u64) += 1;
        }
        let top = counts.values().max().copied().unwrap_or(0);
        let distinct = counts.len() as u64;
        // Head query repeats a lot; universe only partially touched.
        assert!(top > (n as u64) / 200, "top query count = {top}");
        assert!(distinct < n as u64, "there must be repetitions");
        assert!(distinct > 100, "but not a degenerate log");
    }

    #[test]
    #[expect(
        clippy::disallowed_types,
        reason = "the set only answers membership; it is never iterated"
    )]
    fn repetition_rate_supports_result_caching() {
        // The fraction of stream entries that repeat an earlier query is
        // what result caching can ever hope to hit; for an AOL-like Zipf
        // it is substantial.
        let l = log();
        let mut seen = std::collections::HashSet::new();
        let mut repeats = 0;
        let n = 10_000;
        for q in l.stream_iter(n) {
            if !seen.insert(q.id) {
                repeats += 1;
            }
        }
        let rate = repeats as f64 / n as f64;
        assert!(
            rate > 0.3,
            "repetition rate {rate} too low for result caching"
        );
        assert!(rate < 0.99, "repetition rate {rate} suspiciously high");
    }

    #[test]
    fn term_accesses_are_zipf_like() {
        let l = log();
        let counts = l.term_access_counts(20_000);
        assert!(counts.len() > 50);
        // Descending.
        assert!(counts.windows(2).all(|w| w[0].1 >= w[1].1));
        // Head term far above the median term.
        let head = counts[0].1;
        let median = counts[counts.len() / 2].1;
        assert!(head > median * 10, "head {head}, median {median}");
    }

    #[test]
    fn terms_stay_in_vocabulary() {
        let l = log();
        for q in l.stream_iter(2_000) {
            assert!(q.terms.iter().all(|&t| (t as u64) < 2_000));
        }
    }
}
