//! Victim selection under random operation sequences.
//!
//! Every cost-based store picks its victim by the paper's scans (Figs.
//! 11–13) over the replace-first window. These property tests switch the
//! audit on and drive one store of each kind with random operation
//! sequences — across window sizes (`W` = 0, the strict-LRU corner,
//! included), policies and (at the manager level) TTL interleavings — so
//! every mutation boundary is validated and the observable outputs are
//! held to the store's own accounting.
//!
//! The per-mutation audits compile away without `debug_assertions`; in
//! release these tests still check the outputs and the final
//! `validation_report()`.

#![expect(
    clippy::disallowed_methods,
    reason = "these tests drive the stores below the admission gate on purpose"
)]

use hybridcache::mem::{ListMeta, MemListCache};
use hybridcache::ssd::{ListStore, ResultStore, SlotRegion};
use hybridcache::{CacheManager, CachingScheme, HybridConfig, PolicyKind};
use invariant::Validate;
use proptest::prelude::*;
use simclock::{SimDuration, SimTime};
use storagecore::RamDisk;

const BLOCK: u64 = hybridcache::BLOCK_BYTES;

fn policies() -> impl Strategy<Value = PolicyKind> {
    prop_oneof![
        Just(PolicyKind::Lru),
        Just(PolicyKind::Cblru),
        Just(PolicyKind::Cbslru {
            static_fraction: 0.25
        }),
    ]
}

fn device() -> RamDisk {
    RamDisk::with_capacity_bytes(64 << 20, SimDuration::from_micros(10))
}

// ---------------------------------------------------------------------
// L1 inverted-list cache: lowest-EV-in-window victims (Fig. 12)
// ---------------------------------------------------------------------

#[derive(Debug, Clone, Copy)]
enum MemOp {
    /// (term, size units, pu percent)
    Insert(u32, u64, u8),
    /// (term, needed units, pu percent)
    Touch(u32, u64, u8),
    Remove(u32),
}

fn mem_ops() -> impl Strategy<Value = Vec<MemOp>> {
    prop::collection::vec(
        prop_oneof![
            (0u32..12, 1u64..9, any::<u8>()).prop_map(|(t, s, p)| MemOp::Insert(t, s, p)),
            (0u32..12, 0u64..9, any::<u8>()).prop_map(|(t, s, p)| MemOp::Touch(t, s, p)),
            (0u32..12).prop_map(MemOp::Remove),
        ],
        1..150,
    )
}

fn pu(percent: u8) -> f64 {
    (percent % 100 + 1) as f64 / 100.0
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn mem_list_random_ops_hold_accounting(
        ops in mem_ops(),
        window in 0usize..6,
        policy in policies(),
    ) {
        // Audit every mutation boundary for the whole sequence (debug
        // builds, inside insert/touch/remove).
        invariant::force_enable();
        let capacity = 6 * 1024; // a handful of entries at 256-byte units
        let mut cache = MemListCache::new(capacity, policy, window);

        for op in ops {
            match op {
                MemOp::Insert(t, units, p) => {
                    if cache.peek(t).is_some() {
                        continue; // insert asserts on cached keys
                    }
                    let meta = ListMeta {
                        si_bytes: units * 256,
                        pu: pu(p),
                        freq: 1,
                        full_bytes: units * 512,
                    };
                    let evicted = cache.insert(t, meta).expect("units fit the cache");
                    prop_assert_eq!(cache.peek(t), Some(&meta));
                    for (victim, _) in evicted {
                        prop_assert!(victim != t && cache.peek(victim).is_none());
                    }
                }
                MemOp::Touch(t, units, p) => {
                    let before = cache.peek(t).copied();
                    let after = cache.touch(t, units * 256, pu(p));
                    prop_assert_eq!(after, cache.peek(t).copied());
                    prop_assert_eq!(before.map(|m| m.freq + 1), after.map(|m| m.freq));
                    // Prefix growth displaces others, never the touched entry.
                    for (victim, _) in cache.drain_evicted() {
                        prop_assert!(victim != t && cache.peek(victim).is_none());
                    }
                }
                MemOp::Remove(t) => {
                    let had = cache.peek(t).copied();
                    prop_assert_eq!(cache.remove(t), had);
                    prop_assert!(cache.peek(t).is_none());
                }
            }
            let cached: u64 = (0u32..12).filter_map(|t| cache.peek(t)).map(|m| m.si_bytes).sum();
            prop_assert_eq!(cache.used_bytes(), cached);
            prop_assert!(cache.used_bytes() <= capacity);
        }
        let report = cache.validation_report();
        prop_assert!(report.is_clean(), "{}", report.summary());
    }
}

// ---------------------------------------------------------------------
// L2 result store: max-IREN result-block victims (Fig. 11)
// ---------------------------------------------------------------------

#[derive(Debug, Clone, Copy)]
enum RcOp {
    Offer(u64, u64),
    Lookup(u64, bool),
    Invalidate(u64),
}

fn rc_ops() -> impl Strategy<Value = Vec<RcOp>> {
    prop::collection::vec(
        prop_oneof![
            (0u64..32, 1u64..6).prop_map(|(id, f)| RcOp::Offer(id, f)),
            (0u64..32, any::<bool>()).prop_map(|(id, m)| RcOp::Lookup(id, m)),
            (0u64..32).prop_map(RcOp::Invalidate),
        ],
        1..150,
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn result_store_random_ops_hold_accounting(
        ops in rc_ops(),
        slots in 2u32..6,
        window in 0usize..4,
        cost_based in any::<bool>(),
    ) {
        invariant::force_enable();
        let entries_per_rb = HybridConfig::entries_per_rb();
        let mut store = ResultStore::<u64>::new(SlotRegion::new(0, slots), cost_based, window, 0.0);
        let mut dev = device();

        for op in ops {
            match op {
                RcOp::Offer(id, freq) => {
                    store.offer(id, id * 10, freq, &mut dev);
                    prop_assert!(!(store.contains(id) && store.buffered(id)));
                }
                RcOp::Lookup(id, mark) => {
                    let on_ssd = store.contains(id);
                    let hit = store.lookup(id, &mut dev, mark);
                    prop_assert_eq!(hit.map(|h| h.0), on_ssd.then_some(id * 10));
                }
                RcOp::Invalidate(id) => {
                    store.invalidate(id, &mut dev);
                    prop_assert!(!store.contains(id));
                }
            }
            let resident = (0u64..32).filter(|&id| store.contains(id)).count();
            prop_assert_eq!(store.len(), resident);
            prop_assert!(resident <= slots as usize * entries_per_rb);
        }
        // Admissions continue after fill at every window, `W` = 0
        // included: more fresh entries than the region holds all get
        // written, each one replacing a victim once no slot is free.
        let staged = (0u64..32).filter(|&id| store.buffered(id)).count();
        let fresh = (slots as usize + 1) * entries_per_rb;
        let before = store.stats();
        for id in 100..100 + fresh as u64 {
            store.offer(id, id * 10, 1, &mut dev);
        }
        let after = store.stats();
        if cost_based {
            let flushes = (staged + fresh) / entries_per_rb;
            prop_assert_eq!(after.rb_writes - before.rb_writes, flushes as u64);
        } else {
            prop_assert_eq!(after.entry_writes - before.entry_writes, fresh as u64);
        }
        let report = store.validation_report();
        prop_assert!(report.is_clean(), "{}", report.summary());
    }
}

// ---------------------------------------------------------------------
// L2 list store: replaceable-first / size-match victim cascade (Fig. 13)
// ---------------------------------------------------------------------

#[derive(Debug, Clone, Copy)]
enum IcOp {
    /// (term, blocks, bytes short of full blocks, freq)
    Offer(u32, u64, u64, u64),
    /// (term, needed units, mark replaceable)
    Lookup(u32, u64, bool),
    Invalidate(u32),
}

fn ic_ops() -> impl Strategy<Value = Vec<IcOp>> {
    prop::collection::vec(
        prop_oneof![
            (0u32..10, 1u64..4, 0u64..BLOCK, 1u64..6)
                .prop_map(|(t, n, d, f)| IcOp::Offer(t, n, d, f)),
            (0u32..10, 1u64..6, any::<bool>()).prop_map(|(t, n, m)| IcOp::Lookup(t, n, m)),
            (0u32..10).prop_map(IcOp::Invalidate),
        ],
        1..150,
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn list_store_random_ops_hold_accounting(
        ops in ic_ops(),
        blocks in 4u32..10,
        window in 0usize..4,
        cost_based in any::<bool>(),
    ) {
        invariant::force_enable();
        let mut store =
            ListStore::<u32>::new(SlotRegion::new(0, blocks), cost_based, window, 0.0);
        let mut dev = device();

        for op in ops {
            match op {
                IcOp::Offer(t, n, short, freq) => {
                    let bytes = n * BLOCK - short.min(BLOCK - 1);
                    // Written or deduplicated, the prefix is covered.
                    store.offer(t, n, bytes, freq, &mut dev);
                    prop_assert!(store.cached_bytes(t).is_some_and(|c| c >= bytes));
                }
                IcOp::Lookup(t, units, mark) => {
                    let needed = units * 16 * 1024;
                    let cached = store.cached_bytes(t);
                    let hit = store.lookup(t, needed, &mut dev, mark);
                    prop_assert_eq!(hit.map(|h| h.0), cached.map(|c| c.min(needed)));
                }
                IcOp::Invalidate(t) => {
                    store.invalidate(t, &mut dev);
                    prop_assert!(store.cached_bytes(t).is_none());
                }
            }
            let resident = (0u32..10).filter(|&t| store.cached_bytes(t).is_some()).count();
            prop_assert_eq!(store.len(), resident);
        }
        let report = store.validation_report();
        prop_assert!(report.is_clean(), "{}", report.summary());
    }
}

// ---------------------------------------------------------------------
// Whole manager under TTL interleavings
// ---------------------------------------------------------------------

#[derive(Debug, Clone, Copy)]
enum MgrOp {
    /// (query id, clock advance in µs)
    Result(u64, u64),
    /// (term, needed units, pu percent, clock advance in µs)
    List(u32, u64, u8, u64),
}

fn mgr_ops() -> impl Strategy<Value = Vec<MgrOp>> {
    prop::collection::vec(
        prop_oneof![
            (0u64..10, 0u64..80).prop_map(|(id, dt)| MgrOp::Result(id, dt)),
            (0u32..10, 1u64..6, any::<u8>(), 0u64..80)
                .prop_map(|(t, n, p, dt)| MgrOp::List(t, n, p, dt)),
        ],
        1..200,
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn manager_random_ops_hold_accounting_under_ttl(
        ops in mgr_ops(),
        window in 0usize..4,
        policy in policies(),
        ttl_us in 50u64..400,
        with_ttl in any::<bool>(),
    ) {
        invariant::force_enable();
        let cfg = HybridConfig {
            ttl: with_ttl.then(|| SimDuration::from_micros(ttl_us)),
            mem_result_bytes: 40_000,
            mem_list_bytes: 2 * BLOCK,
            ssd_result_bytes: 4 * BLOCK,
            ssd_list_bytes: 8 * BLOCK,
            window,
            tev: if policy.is_cost_based() { 0.5 } else { 0.0 },
            result_freq_threshold: if policy.is_cost_based() { 2 } else { 0 },
            policy,
            scheme: CachingScheme::Hybrid,
            intersections: None,
            admission: hybridcache::AdmissionConfig::static_default(),
        };
        let mut mgr: CacheManager<u64, RamDisk> = CacheManager::new(cfg, device());

        let mut now = SimTime::ZERO;
        let (mut result_lookups, mut list_lookups) = (0u64, 0u64);
        for op in ops {
            match op {
                MgrOp::Result(id, dt) => {
                    now += SimDuration::from_micros(dt);
                    mgr.set_now(now);
                    result_lookups += 1;
                    match mgr.lookup_result(id).0 {
                        Some(value) => prop_assert_eq!(value, id * 7),
                        // Miss: complete the query.
                        None => {
                            mgr.complete_result(id, id * 7);
                        }
                    }
                }
                MgrOp::List(t, units, p, dt) => {
                    now += SimDuration::from_micros(dt);
                    mgr.set_now(now);
                    list_lookups += 1;
                    let needed = units * 16 * 1024;
                    let serve = mgr.lookup_list(t as u64, needed, needed * 2, pu(p));
                    prop_assert_eq!(serve.from_mem + serve.from_ssd + serve.from_hdd, needed);
                }
            }
            prop_assert_eq!(mgr.stats().results.lookups(), result_lookups);
            prop_assert_eq!(mgr.stats().lists.lookups(), list_lookups);
        }
        let report = mgr.validation_report();
        prop_assert!(report.is_clean(), "{}", report.summary());
    }
}
