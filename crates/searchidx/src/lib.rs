//! Search-engine substrate.
//!
//! The paper evaluates on Lucene 3.0.0 over a 5-million-document enwiki
//! snapshot. What its cache policies actually depend on is the *shape* of
//! that index — Zipf term popularity, highly variable inverted-list sizes,
//! frequency-sorted postings that are only partially traversed (the
//! filtered vector model of Saraiva et al.), and ~20 KB result entries.
//! This crate reproduces those shapes from first principles:
//!
//! * [`corpus`] — a statistical corpus model: document frequency and
//!   within-list term-frequency distributions derived from a Zipf
//!   vocabulary, with **lazily generated, deterministic posting lists**
//!   (a 5 M-doc index never has to be materialized in RAM);
//! * [`mem`] — an exact in-memory index built from real token streams,
//!   used to validate the query processor against brute force;
//! * [`topk`] — tf-idf top-K retrieval over frequency-sorted lists with
//!   early termination, reporting per-term **utilization rates** (`PU`,
//!   the paper's Formula 1 input);
//! * [`layout`] — the on-device index image: one sector extent per
//!   posting list, so partial traversals become partial extent reads;
//! * [`blocks`] — the in-memory representation queries scan
//!   ([`PostingsBackend::Blocked`]): pinned list prefixes held as doc ids
//!   plus equal-tf runs, scanned a run at a time behind a per-block
//!   block-max bound, so skipped reads skip their work too;
//! * [`segment`] — the mutable index: WAL, write segment, sealed
//!   segments and tombstones layered over an immutable base reader.

pub mod blocks;
pub mod corpus;
pub mod layout;
pub mod mem;
pub mod segment;
pub mod topk;
pub mod types;

pub use blocks::{
    BlockPostings, BlockStore, BlockStoreStats, PostingsBackend, SkipStats, BLOCK_SIZE,
};
pub use corpus::{CorpusSpec, SyntheticIndex};
pub use layout::IndexLayout;
pub use mem::MemIndex;
pub use segment::{
    AddOutcome, CompactOutcome, DeleteOutcome, DirtyTerms, GrowthPolicy, GrowthStats, LiveIndex,
    MutationStats, SealOutcome, SealedSegment, SegmentId, SegmentPolicy, UsagePart, WalOp,
    WalRecord, WriteAheadLog, WriteSegment, BASE_SEGMENT, WRITE_SEGMENT,
};
pub use topk::{QueryOutcome, TermUsage, TopKConfig, TopKProcessor};
pub use types::{
    tf_weight, DocId, IndexReader, Posting, PostingList, ResultEntry, ScoredDoc, TermId,
    POSTING_BYTES, RESULT_DOC_BYTES,
};
