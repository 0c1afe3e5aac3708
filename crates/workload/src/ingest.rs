//! Seeded ingest/delete streams for the live-index arm.
//!
//! The mutation experiments interleave an *update* stream with the
//! open-loop query arrivals of [`crate::arrival`]: documents are added
//! (and a fraction deleted) on their own virtual-time schedule while
//! queries keep flowing. Like every other generator in this crate the
//! stream is a pure function of its seed — Poisson gaps from
//! `simclock::dist::Exponential`, term content from `simclock::dist::Zipf`
//! (clippy's workspace rules refuse host time and host-seeded hashing) —
//! so the same spec regenerates the same mutation schedule bit-for-bit on
//! any host.

use simclock::dist::{Exponential, Zipf};
use simclock::{Rng, SimTime};

/// One index mutation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MutationOp {
    /// Add a document with these `(term, tf)` pairs — distinct terms,
    /// ascending, `tf > 0`, exactly the contract of
    /// `LiveIndex::add_document`.
    AddDoc {
        /// The document's term bag.
        terms: Vec<(u32, u32)>,
    },
    /// Delete one previously ingested document. `pick` is an unbounded
    /// selector the consumer maps onto whatever is currently alive
    /// (e.g. `alive[pick as usize % alive.len()]`) — the generator
    /// cannot know which adds have survived earlier deletes.
    DeleteDoc {
        /// Deterministic selector into the consumer's alive set.
        pick: u64,
    },
}

/// A mutation stamped with its arrival instant on the virtual timeline.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TimedMutation {
    /// When the mutation arrives (virtual time).
    pub at: SimTime,
    /// What it does.
    pub op: MutationOp,
}

/// Shape of an ingest stream.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct IngestSpec {
    /// Master seed.
    pub seed: u64,
    /// Mean mutation rate, ops per virtual second (Poisson gaps).
    pub rate_ops_per_sec: f64,
    /// Fraction of operations that are deletes, in `[0, 1)`. The first
    /// few operations are always adds so deletes have something to hit.
    pub delete_fraction: f64,
    /// Term universe new documents draw from (the corpus vocabulary).
    pub vocab: u64,
    /// Distinct terms per added document: uniform in
    /// `min_terms..=max_terms`.
    pub min_terms: usize,
    /// Upper bound of the per-document term count.
    pub max_terms: usize,
}

impl IngestSpec {
    /// A small default stream over `vocab` terms: 2 k ops/s, 20 %
    /// deletes, 2–6 terms per document.
    pub fn small(vocab: u64, seed: u64) -> Self {
        IngestSpec {
            seed,
            rate_ops_per_sec: 2_000.0,
            delete_fraction: 0.2,
            vocab,
            min_terms: 2,
            max_terms: 6,
        }
    }
}

/// A deterministic mutation stream.
#[derive(Debug, Clone)]
pub struct IngestStream {
    spec: IngestSpec,
}

impl IngestStream {
    /// Wrap a spec. Panics on degenerate parameters.
    pub fn new(spec: IngestSpec) -> Self {
        assert!(spec.rate_ops_per_sec > 0.0 && spec.rate_ops_per_sec.is_finite());
        assert!((0.0..1.0).contains(&spec.delete_fraction));
        assert!(spec.vocab > 0, "empty vocabulary");
        assert!(
            spec.min_terms >= 1 && spec.min_terms <= spec.max_terms,
            "term-count range empty"
        );
        assert!(
            (spec.max_terms as u64) <= spec.vocab,
            "cannot draw {} distinct terms from a {}-term vocabulary",
            spec.max_terms,
            spec.vocab
        );
        IngestStream { spec }
    }

    /// The spec.
    pub fn spec(&self) -> &IngestSpec {
        &self.spec
    }

    /// Generate the first `n` mutations. Timestamps are strictly
    /// increasing; the interleave with a query stream is a deterministic
    /// merge on `at`.
    pub fn generate(&self, n: usize) -> Vec<TimedMutation> {
        let s = self.spec;
        // Salted so an ingest stream over the same seed as a query log
        // draws a decorrelated sequence.
        let mut rng = Rng::new(s.seed.wrapping_add(0x0AEB_16E5));
        let exp = Exponential::new(s.rate_ops_per_sec);
        // Zipf term popularity, matching the corpus shape: a freshly
        // written document mentions popular terms more often.
        let zipf = Zipf::new(s.vocab, 1.0);
        let mut out = Vec::with_capacity(n);
        let mut t_ns: u64 = 0;
        let mut adds: u64 = 0;
        for _ in 0..n {
            t_ns += gap_ns(exp.sample(&mut rng));
            // Coin before content, so the RNG consumption schedule per
            // op is fixed regardless of which branch runs.
            let deleting = rng.next_bool(s.delete_fraction);
            let op = if deleting && adds > 0 {
                MutationOp::DeleteDoc {
                    pick: rng.next_u64(),
                }
            } else {
                adds += 1;
                let k = s.min_terms + rng.next_index(s.max_terms - s.min_terms + 1);
                let mut terms: Vec<(u32, u32)> = Vec::with_capacity(k);
                while terms.len() < k {
                    let t = zipf.sample(&mut rng) as u32;
                    if terms.iter().all(|&(x, _)| x != t) {
                        let tf = 1 + rng.next_below(4) as u32;
                        terms.push((t, tf));
                    }
                }
                terms.sort_unstable_by_key(|&(t, _)| t);
                MutationOp::AddDoc { terms }
            };
            out.push(TimedMutation {
                at: SimTime::from_nanos(t_ns),
                op,
            });
        }
        out
    }
}

/// Exponential gap in seconds → nanoseconds, rounded up to 1 ns so
/// timestamps stay strictly increasing.
fn gap_ns(secs: f64) -> u64 {
    ((secs * 1_000_000_000.0).round() as u64).max(1)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn stream() -> IngestStream {
        IngestStream::new(IngestSpec::small(5_000, 42))
    }

    #[test]
    fn deterministic_and_strictly_increasing() {
        let s = stream();
        let a = s.generate(500);
        let b = s.generate(500);
        assert_eq!(a, b);
        assert!(a.windows(2).all(|w| w[0].at < w[1].at));
    }

    #[test]
    fn adds_are_well_formed() {
        for m in stream().generate(500) {
            if let MutationOp::AddDoc { terms } = &m.op {
                assert!(!terms.is_empty() && terms.len() <= 6);
                assert!(terms.windows(2).all(|w| w[0].0 < w[1].0), "{terms:?}");
                assert!(terms.iter().all(|&(t, tf)| (t as u64) < 5_000 && tf > 0));
            }
        }
    }

    #[test]
    fn delete_fraction_is_roughly_honored_and_never_first() {
        let ms = stream().generate(2_000);
        assert!(matches!(ms[0].op, MutationOp::AddDoc { .. }));
        let deletes = ms
            .iter()
            .filter(|m| matches!(m.op, MutationOp::DeleteDoc { .. }))
            .count();
        let share = deletes as f64 / ms.len() as f64;
        assert!((share - 0.2).abs() < 0.05, "delete share {share}");
    }

    #[test]
    fn different_seeds_diverge() {
        let a = IngestStream::new(IngestSpec::small(5_000, 1)).generate(50);
        let b = IngestStream::new(IngestSpec::small(5_000, 2)).generate(50);
        assert_ne!(a, b);
    }
}
