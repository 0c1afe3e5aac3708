//! Property-based tests of the hybrid cache manager: random workloads
//! must never violate its structural invariants, under any policy or
//! scheme.

use hybridcache::{CacheManager, CachingScheme, HybridConfig, PolicyKind, Tier};
use proptest::prelude::*;
use simclock::SimDuration;
use storagecore::RamDisk;

const SB: u64 = hybridcache::BLOCK_BYTES;

fn manager(policy: PolicyKind, scheme: CachingScheme) -> CacheManager<u64, RamDisk> {
    let mut cfg = HybridConfig {
        ttl: None,
        mem_result_bytes: 60_000, // 3 entries
        mem_list_bytes: 3 * SB,
        ssd_result_bytes: 4 * SB,
        ssd_list_bytes: 8 * SB,
        window: 2,
        tev: 0.5,
        result_freq_threshold: 0,
        policy,
        scheme,
        intersections: None,
        admission: hybridcache::AdmissionConfig::static_default(),
    };
    if !policy.is_cost_based() {
        cfg.tev = 0.0;
    }
    CacheManager::new(
        cfg,
        RamDisk::with_capacity_bytes(64 << 20, SimDuration::from_micros(5)),
    )
}

/// One workload step.
#[derive(Debug, Clone)]
enum Op {
    Result(u64),
    List { term: u32, needed_kb: u64, pu: f64 },
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        (0u64..40).prop_map(Op::Result),
        ((0u32..30), (1u64..300), (0.01f64..1.0)).prop_map(|(term, needed_kb, pu)| Op::List {
            term,
            needed_kb,
            pu
        }),
    ]
}

fn policy_strategy() -> impl Strategy<Value = PolicyKind> {
    prop_oneof![
        Just(PolicyKind::Lru),
        Just(PolicyKind::Cblru),
        (0.1f64..0.8).prop_map(|f| PolicyKind::Cbslru { static_fraction: f }),
    ]
}

fn scheme_strategy() -> impl Strategy<Value = CachingScheme> {
    prop_oneof![
        Just(CachingScheme::Hybrid),
        Just(CachingScheme::Exclusive),
        Just(CachingScheme::Inclusive),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn random_workloads_never_break_invariants(
        policy in policy_strategy(),
        scheme in scheme_strategy(),
        ops in prop::collection::vec(op_strategy(), 1..400),
    ) {
        let mut m = manager(policy, scheme);
        let mut result_lookups = 0u64;
        let mut list_lookups = 0u64;
        for op in &ops {
            match *op {
                Op::Result(id) => {
                    result_lookups += 1;
                    let (hit, tier, lat) = m.lookup_result(id);
                    match tier {
                        Tier::Mem => prop_assert!(hit.is_some() && lat == SimDuration::ZERO),
                        Tier::Ssd => prop_assert!(hit.is_some() && lat > SimDuration::ZERO),
                        Tier::Hdd => prop_assert!(hit.is_none()),
                    }
                    if hit.is_none() {
                        m.complete_result(id, id * 3);
                    } else {
                        // Payload integrity through both levels.
                        prop_assert_eq!(hit.expect("checked"), id * 3);
                    }
                }
                Op::List { term, needed_kb, pu } => {
                    list_lookups += 1;
                    let needed = needed_kb * 1024;
                    let serve = m.lookup_list(term as u64, needed, needed * 2, pu);
                    // Byte conservation: every requested byte has a tier.
                    prop_assert_eq!(serve.total(), needed);
                }
            }
        }
        // Accounting: every lookup recorded exactly once.
        let stats = m.stats();
        prop_assert_eq!(stats.results.lookups(), result_lookups);
        prop_assert_eq!(stats.lists.lookups(), list_lookups);
        // Ratios are well-formed whatever the policy/scheme did.
        prop_assert!((0.0..=1.0).contains(&stats.results.hit_ratio()));
        prop_assert!((0.0..=1.0).contains(&stats.lists.hit_ratio()));
        prop_assert!((0.0..=1.0).contains(&stats.overall_hit_ratio()));
        // Each flush decision lands in exactly one bucket, and the
        // inclusive scheme flushes at most twice per lookup (admit +
        // eviction), bounding the totals.
        let flushes = stats.results.ssd_admissions
            + stats.results.ssd_rejections
            + stats.results.rewrites_avoided;
        prop_assert!(flushes <= 2 * result_lookups + 2);
    }

    #[test]
    fn immediate_relookup_always_hits_memory(
        policy in policy_strategy(),
        id in 0u64..1000,
    ) {
        let mut m = manager(policy, CachingScheme::Hybrid);
        m.lookup_result(id);
        m.complete_result(id, 42);
        let (hit, tier, _) = m.lookup_result(id);
        prop_assert_eq!(hit, Some(42));
        prop_assert_eq!(tier, Tier::Mem);
    }

    #[test]
    fn list_coverage_is_monotone(
        term in 0u32..10,
        sizes in prop::collection::vec(1u64..64, 2..20),
    ) {
        // Repeatedly requesting (possibly growing) prefixes: served memory
        // bytes never shrink below what an earlier request established,
        // and HDD bytes only cover what caches don't.
        let mut m = manager(PolicyKind::Cblru, CachingScheme::Hybrid);
        let mut best_mem = 0u64;
        for kb in sizes {
            let needed = kb * 1024;
            let serve = m.lookup_list(term as u64, needed, 10 << 20, 0.5);
            prop_assert_eq!(serve.total(), needed);
            if needed <= best_mem {
                prop_assert_eq!(serve.from_hdd, 0, "covered prefix re-read from HDD");
            }
            best_mem = best_mem.max(serve.from_mem + serve.from_ssd + serve.from_hdd);
        }
    }
}
