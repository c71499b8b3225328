//! Cross-scheme differential property test — the paper's exactness claim
//! enforced uniformly through the unified `RangeScheme` trait.
//!
//! Every registered single-attribute scheme receives the *same* dataset and
//! answers the *same* random range queries; all result sets must be
//! identical (and equal to a direct scan). A scheme that silently drops or
//! invents records cannot pass, whatever its delay profile.
//!
//! The dynamics layer extends the claim to churned networks: after a shared
//! `ChurnPlan` runs and `stabilize()` completes, every *dynamic* scheme
//! must again return identical, exact result sets with full peer recall —
//! the stabilize guarantee, pinned cross-scheme.
//!
//! The hostile layer extends it again to partitioned networks: peers
//! crash *while* a partition plan's split is open, and once the split
//! heals, `stabilize()` + `re_replicate()` must restore identical exact
//! result sets with full recall — a partition is loud while open but may
//! leave no permanent disagreement behind.

use armada_suite::dht_api::{
    BuildParams, ChurnPlan, MultiBuildParams, RangeScheme, SchemeError, CHURN_PLAN_NAMES,
};
use armada_suite::experiments::standard_registry;
use proptest::prelude::*;
use rand::Rng;

const DOMAIN: (f64, f64) = (0.0, 1000.0);

/// The partition shapes of the hostile catalog (their open/heal epochs
/// come from the catalog itself, not a copy here).
const PARTITION_PLANS: [&str; 2] = ["split-brain", "island-3"];

fn build_all(seed: u64, n: usize) -> Vec<Box<dyn RangeScheme>> {
    let registry = standard_registry();
    let params = BuildParams::new(n, DOMAIN.0, DOMAIN.1).with_object_id_len(24);
    registry
        .single_names()
        .iter()
        .map(|name| {
            let mut rng = simnet::rng_from_seed(seed ^ dht_api::fnv1a(name.as_bytes()));
            registry.build_single(name, &params, &mut rng).expect("build")
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    #[test]
    fn all_schemes_return_identical_result_sets(
        seed in 0u64..10_000,
        records in 1usize..150,
    ) {
        let mut schemes = build_all(seed, 60);
        prop_assert!(schemes.len() >= 4, "need at least 4 schemes for the differential");

        // One dataset, published into every scheme.
        let mut data_rng = simnet::rng_from_seed(seed ^ 0xda7a);
        let mut data = Vec::new();
        for h in 0..records as u64 {
            let v = data_rng.gen_range(DOMAIN.0..=DOMAIN.1);
            for s in &mut schemes {
                s.publish(v, h).expect("publish");
            }
            data.push((v, h));
        }

        // Identical random queries against every scheme.
        let mut qrng = simnet::rng_from_seed(seed ^ 0x9e4);
        for q in 0..8u64 {
            let lo: f64 = qrng.gen_range(DOMAIN.0..DOMAIN.1);
            let hi = (lo + qrng.gen_range(0.1f64..300.0)).min(DOMAIN.1);
            let mut expected: Vec<u64> = data
                .iter()
                .filter(|&&(v, _)| v >= lo && v <= hi)
                .map(|&(_, h)| h)
                .collect();
            expected.sort_unstable();
            for s in &schemes {
                let origin = s.random_origin(&mut qrng);
                let out = s.range_query(origin, lo, hi, q).expect("query");
                prop_assert_eq!(
                    &out.results,
                    &expected,
                    "{} disagrees on [{}, {}]",
                    s.scheme_name(),
                    lo,
                    hi
                );
            }
        }
    }

    #[test]
    fn dynamic_schemes_agree_exactly_after_churn_and_stabilize(
        seed in 0u64..10_000,
        plan_idx in 0usize..CHURN_PLAN_NAMES.len(),
    ) {
        // Only the schemes that opt into dynamics take part — discovered
        // through the capability hook, not a hard-coded list.
        let mut schemes = build_all(seed, 60);
        schemes.retain_mut(|s| s.as_dynamic().is_some());
        prop_assert!(schemes.len() >= 4, "need several dynamic schemes for the differential");

        let mut data_rng = simnet::rng_from_seed(seed ^ 0xc4a2);
        let mut data = Vec::new();
        for h in 0..100u64 {
            let v = data_rng.gen_range(DOMAIN.0..=DOMAIN.1);
            for s in &mut schemes {
                s.publish(v, h).expect("publish");
            }
            data.push((v, h));
        }

        // The same plan epochs hit every scheme (victims differ per
        // substrate — the plan draws them from each scheme's own live set).
        let plan = ChurnPlan::named(CHURN_PLAN_NAMES[plan_idx]).expect("cataloged").with_rate(10);
        for s in &mut schemes {
            let dynamic = s.as_dynamic().expect("filtered to dynamic schemes");
            for epoch in 0..3 {
                plan.apply(dynamic, seed, epoch).expect("plans tolerate refusals");
            }
            dynamic.stabilize();
        }

        // Post-stabilize: identical, exact result sets with full recall.
        let mut qrng = simnet::rng_from_seed(seed ^ 0x57ab);
        for q in 0..6u64 {
            let lo: f64 = qrng.gen_range(DOMAIN.0..DOMAIN.1);
            let hi = (lo + qrng.gen_range(0.1f64..300.0)).min(DOMAIN.1);
            let mut expected: Vec<u64> = data
                .iter()
                .filter(|&&(v, _)| v >= lo && v <= hi)
                .map(|&(_, h)| h)
                .collect();
            expected.sort_unstable();
            for s in &schemes {
                let origin = s.random_origin(&mut qrng);
                let out = s.range_query(origin, lo, hi, q).expect("query");
                prop_assert_eq!(
                    &out.results,
                    &expected,
                    "{} disagrees on [{}, {}] after {} churn",
                    s.scheme_name(),
                    lo,
                    hi,
                    plan.name()
                );
                prop_assert!(out.exact, "{} inexact after stabilize", s.scheme_name());
                prop_assert_eq!(out.peer_recall(), 1.0, "{} recall", s.scheme_name());
            }
        }
    }

    #[test]
    fn dynamic_schemes_heal_identically_after_a_partition(
        seed in 0u64..10_000,
        plan_idx in 0usize..PARTITION_PLANS.len(),
    ) {
        let plan_name = PARTITION_PLANS[plan_idx];
        let schedule = simnet::FaultPlan::named_hostile(plan_name).expect("cataloged");
        let partition = schedule.partition().expect("partition plan");
        let (open, heal) = (partition.open_epoch(), partition.heal_epoch());

        // Every dynamic scheme, replicated (so `re_replicate` has copies
        // to restore) and wrapped by the partition plan via the registry
        // suffix grammar.
        let registry = standard_registry();
        let params = BuildParams::new(60, DOMAIN.0, DOMAIN.1).with_object_id_len(24);
        let mut schemes: Vec<Box<dyn RangeScheme>> =
            armada_suite::experiments::dynamic_single_names()
                .iter()
                .map(|name| {
                    let mut rng = simnet::rng_from_seed(seed ^ dht_api::fnv1a(name.as_bytes()));
                    registry
                        .build_single(&format!("{name}+r2@{plan_name}"), &params, &mut rng)
                        .expect("build")
                })
                .collect();
        prop_assert!(schemes.len() >= 4, "need several dynamic schemes for the differential");

        let mut data_rng = simnet::rng_from_seed(seed ^ 0x5b17);
        let mut data = Vec::new();
        for h in 0..100u64 {
            let v = data_rng.gen_range(DOMAIN.0..=DOMAIN.1);
            for s in &mut schemes {
                s.publish(v, h).expect("publish");
            }
            data.push((v, h));
        }

        // Open the split, crash peers mid-partition, then heal and repair.
        for s in &mut schemes {
            s.as_hostile().expect("hostile-wrapped").set_epoch(open);
            let dynamic = s.as_dynamic().expect("filtered to dynamic schemes");
            let mut vrng = simnet::rng_from_seed(seed ^ 0xdead);
            for _ in 0..6 {
                let live = dynamic.live_peers();
                prop_assert!(!live.is_empty());
                let victim = live[vrng.gen_range(0..live.len())];
                dynamic.crash(victim).expect("crash a live peer");
            }
            s.as_hostile().expect("hostile-wrapped").set_epoch(heal);
            s.as_dynamic().expect("dynamic").stabilize();
            s.as_replicated().expect("replicated").re_replicate();
        }

        // Post-heal: identical, exact result sets with full recall.
        let mut qrng = simnet::rng_from_seed(seed ^ 0x57ab);
        for q in 0..6u64 {
            let lo: f64 = qrng.gen_range(DOMAIN.0..DOMAIN.1);
            let hi = (lo + qrng.gen_range(0.1f64..300.0)).min(DOMAIN.1);
            let mut expected: Vec<u64> = data
                .iter()
                .filter(|&&(v, _)| v >= lo && v <= hi)
                .map(|&(_, h)| h)
                .collect();
            expected.sort_unstable();
            for s in &schemes {
                let origin = s.random_origin(&mut qrng);
                let out = s.range_query(origin, lo, hi, q).expect("query");
                prop_assert_eq!(
                    &out.results,
                    &expected,
                    "{} disagrees on [{}, {}] after {} healed",
                    s.scheme_name(),
                    lo,
                    hi,
                    plan_name
                );
                prop_assert!(out.exact, "{} inexact after heal + repair", s.scheme_name());
                prop_assert_eq!(out.peer_recall(), 1.0, "{} recall", s.scheme_name());
            }
        }
    }

    #[test]
    fn whole_domain_query_returns_everything_everywhere(seed in 0u64..10_000) {
        let mut schemes = build_all(seed, 40);
        let mut data_rng = simnet::rng_from_seed(seed ^ 0xa11);
        for h in 0..60u64 {
            let v = data_rng.gen_range(DOMAIN.0..=DOMAIN.1);
            for s in &mut schemes {
                s.publish(v, h).expect("publish");
            }
        }
        for s in &schemes {
            let origin = s.random_origin(&mut data_rng);
            let out = s.range_query(origin, DOMAIN.0, DOMAIN.1, 0).expect("query");
            prop_assert_eq!(
                out.results.len(),
                60,
                "{} dropped records on the whole-domain query",
                s.scheme_name()
            );
        }
    }
}

#[test]
fn dcf_family_rejects_nan_bounds() {
    // A NaN bound orders neither way against the other bound; it must be
    // refused as an empty range, never panic inside the Hilbert
    // decomposition or come back as an "exact" empty answer.
    let registry = standard_registry();
    let params = BuildParams::new(60, DOMAIN.0, DOMAIN.1);
    for name in ["dcf-can", "dcf-can-naive", "dcf-can+r3", "dcf-can+r3@lossy-p/r2"] {
        let mut rng = simnet::rng_from_seed(0x9a9);
        let mut scheme = registry.build_single(name, &params, &mut rng).expect("build");
        for h in 0..60u64 {
            scheme.publish(rng.gen_range(DOMAIN.0..=DOMAIN.1), h).expect("publish");
        }
        let origin = scheme.random_origin(&mut rng);
        let mut scratch = simnet::QueryScratch::new();
        for (lo, hi) in [(10.0, f64::NAN), (f64::NAN, 10.0), (f64::NAN, f64::NAN)] {
            let plain = scheme.range_query(origin, lo, hi, 1);
            assert!(plain.is_err(), "{name} [{lo}, {hi}]: got {plain:?}");
            let scratched = scheme.range_query_scratch(origin, lo, hi, 1, &mut scratch);
            assert!(scratched.is_err(), "{name} [{lo}, {hi}]: got {scratched:?} (scratch)");
        }
    }
}

#[test]
fn pira_family_rejects_nan_bounds() {
    // Same contract as the DCF family: a NaN bound is an empty range. It
    // must come back as an error through every query entry point — never
    // a panic inside Kautz naming, never an "exact" empty answer.
    let registry = standard_registry();
    let params = BuildParams::new(60, DOMAIN.0, DOMAIN.1);
    for name in ["pira", "seqwalk", "pira+r3", "pira+r3@lossy-p/r2", "pira@wan"] {
        let mut rng = simnet::rng_from_seed(0x9a9);
        let mut scheme = registry.build_single(name, &params, &mut rng).expect("build");
        for h in 0..60u64 {
            scheme.publish(rng.gen_range(DOMAIN.0..=DOMAIN.1), h).expect("publish");
        }
        let origin = scheme.random_origin(&mut rng);
        let mut scratch = simnet::QueryScratch::new();
        for (lo, hi) in [(10.0, f64::NAN), (f64::NAN, 10.0), (f64::NAN, f64::NAN)] {
            let plain = scheme.range_query(origin, lo, hi, 1);
            assert!(plain.is_err(), "{name} [{lo}, {hi}]: got {plain:?}");
            let scratched = scheme.range_query_scratch(origin, lo, hi, 1, &mut scratch);
            assert!(scratched.is_err(), "{name} [{lo}, {hi}]: got {scratched:?} (scratch)");
            let traced = scheme.trace_query(origin, lo, hi, 1).map(|(out, _)| out);
            assert!(traced.is_err(), "{name} [{lo}, {hi}]: got {traced:?} (traced)");
        }
    }
}

#[test]
fn remaining_adapters_reject_nan_bounds() {
    // The analytic-model adapters share the same range check as the PIRA
    // and DCF families: a NaN bound is an empty range, never an "exact"
    // empty answer.
    let registry = standard_registry();
    let params = BuildParams::new(60, DOMAIN.0, DOMAIN.1);
    for name in ["pht-fissione", "pht-chord", "skipgraph", "squid", "scrap"] {
        let mut rng = simnet::rng_from_seed(0x9a9);
        let mut scheme = registry.build_single(name, &params, &mut rng).expect("build");
        for h in 0..60u64 {
            scheme.publish(rng.gen_range(DOMAIN.0..=DOMAIN.1), h).expect("publish");
        }
        let origin = scheme.random_origin(&mut rng);
        let mut scratch = simnet::QueryScratch::new();
        for (lo, hi) in [(10.0, f64::NAN), (f64::NAN, 10.0), (f64::NAN, f64::NAN)] {
            let plain = scheme.range_query(origin, lo, hi, 1);
            assert!(
                matches!(plain, Err(SchemeError::EmptyRange { .. })),
                "{name} [{lo}, {hi}]: got {plain:?}"
            );
            let scratched = scheme.range_query_scratch(origin, lo, hi, 1, &mut scratch);
            assert!(scratched.is_err(), "{name} [{lo}, {hi}]: got {scratched:?} (scratch)");
            let traced = scheme.trace_query(origin, lo, hi, 1).map(|(out, _)| out);
            assert!(traced.is_err(), "{name} [{lo}, {hi}]: got {traced:?} (traced)");
        }
    }
    // The rectangle entry point applies the check to every attribute.
    let domains = [DOMAIN, DOMAIN];
    let params = MultiBuildParams::new(60, &domains);
    for name in registry.multi_names() {
        let mut rng = simnet::rng_from_seed(0x9a9);
        let scheme = registry.build_multi(name, &params, &mut rng).expect("build");
        let origin = scheme.random_origin(&mut rng);
        for bad in [(10.0, f64::NAN), (f64::NAN, 10.0), (f64::NAN, f64::NAN)] {
            let got = scheme.rect_query(origin, &[(0.0, 500.0), bad], 1);
            assert!(
                matches!(got, Err(SchemeError::EmptyRange { .. })),
                "{name} {bad:?}: got {got:?}"
            );
        }
    }
}

#[test]
fn infinite_and_out_of_domain_bounds_match_the_oracle() {
    // Unbounded and past-the-domain ranges are legal and must cover the
    // clipped domain: every registry name answers exactly the records a
    // direct scan finds.
    let registry = standard_registry();
    let params = BuildParams::new(60, DOMAIN.0, DOMAIN.1);
    let ranges = [
        (f64::NEG_INFINITY, 10.0),
        (10.0, f64::INFINITY),
        (f64::NEG_INFINITY, f64::INFINITY),
        (-5.0, 2000.0),
    ];
    for name in registry.single_names() {
        let mut rng = simnet::rng_from_seed(0x1bf ^ dht_api::fnv1a(name.as_bytes()));
        let mut scheme = registry.build_single(name, &params, &mut rng).expect("build");
        let mut data = Vec::new();
        for h in 0..80u64 {
            // Pin the domain edges and the finite query bound as values.
            let v = match h {
                0 => DOMAIN.0,
                1 => DOMAIN.1,
                2 => 10.0,
                _ => rng.gen_range(DOMAIN.0..=DOMAIN.1),
            };
            scheme.publish(v, h).expect("publish");
            data.push((v, h));
        }
        for (q, &(lo, hi)) in ranges.iter().enumerate() {
            let mut expected: Vec<u64> =
                data.iter().filter(|&&(v, _)| v >= lo && v <= hi).map(|&(_, h)| h).collect();
            expected.sort_unstable();
            let origin = scheme.random_origin(&mut rng);
            let out = scheme
                .range_query(origin, lo, hi, q as u64)
                .unwrap_or_else(|e| panic!("{name} [{lo}, {hi}]: {e}"));
            assert_eq!(out.results, expected, "{name} disagrees with the oracle on [{lo}, {hi}]");
        }
    }
}
