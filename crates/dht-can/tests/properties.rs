//! Property tests: Hilbert-curve invariants, CAN tiling under arbitrary
//! growth, split-tree range descent against the linear scan, and DCF
//! exactness on random workloads.

use dht_can::dcf::{self, FloodMode};
use dht_can::{hilbert, CanConfig, CanNet, Rect};
use proptest::prelude::*;
use rand::Rng;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn hilbert_roundtrip_random_cells(order in 1u32..12, raw in any::<u64>()) {
        let d = raw % (1u64 << (2 * order));
        let (x, y) = hilbert::d2xy(order, d);
        prop_assert!(x < 1 << order && y < 1 << order);
        prop_assert_eq!(hilbert::xy2d(order, x, y), d);
    }

    #[test]
    fn hilbert_blocks_cover_and_are_disjoint(order in 2u32..8, a_raw in any::<u64>(), b_raw in any::<u64>()) {
        let total = 1u64 << (2 * order);
        let (mut a, mut b) = (a_raw % total, b_raw % total);
        if a > b {
            std::mem::swap(&mut a, &mut b);
        }
        let blocks = hilbert::interval_blocks(order, a, b);
        // Total covered area equals the interval length (disjointness +
        // coverage together).
        let covered: u64 = blocks.iter().map(|s| s.side * s.side).sum();
        prop_assert_eq!(covered, b - a + 1);
        // Every block's cells are inside the interval.
        for blk in &blocks {
            for x in blk.x..blk.x + blk.side {
                for y in blk.y..blk.y + blk.side {
                    let d = hilbert::xy2d(order, x, y);
                    prop_assert!(d >= a && d <= b, "cell {} outside [{}, {}]", d, a, b);
                }
            }
        }
    }

    #[test]
    fn can_tiling_survives_any_growth(n in 1usize..120, seed in 0u64..10_000) {
        let mut rng = simnet::rng_from_seed(seed);
        let net = CanNet::build(CanConfig::default(), n, &mut rng).unwrap();
        net.check_invariants().map_err(TestCaseError::fail)?;
    }

    #[test]
    fn can_routing_always_delivers(n in 2usize..150, seed in 0u64..10_000) {
        let mut rng = simnet::rng_from_seed(seed);
        let net = CanNet::build(CanConfig::default(), n, &mut rng).unwrap();
        for _ in 0..10 {
            let (x, y) = (rng.gen::<f64>(), rng.gen::<f64>());
            let from = net.random_zone(&mut rng);
            let path = net.route_to_point(from, x, y).unwrap();
            let dest = *path.last().unwrap();
            prop_assert!(net.zone(dest).unwrap().rect().contains(x, y));
            // No zone repeats on a greedy path.
            let mut seen = path.clone();
            seen.sort_unstable();
            seen.dedup();
            prop_assert_eq!(seen.len(), path.len());
        }
    }

    #[test]
    fn zones_intersecting_equals_the_linear_scan(
        n in 1usize..200,
        seed in 0u64..10_000,
        order in 1u32..12,
        ends in proptest::collection::vec(any::<u64>(), 2..8),
    ) {
        let mut rng = simnet::rng_from_seed(seed);
        let mut net = CanNet::build(CanConfig::default(), n, &mut rng).unwrap();
        // Random box sets: the blocks of a few random curve intervals.
        let total = 1u64 << (2 * order);
        let boxes: Vec<Rect> = ends
            .chunks_exact(2)
            .flat_map(|pair| {
                let (a, b) = (pair[0] % total, pair[1] % total);
                hilbert::interval_blocks(order, a.min(b), a.max(b))
            })
            .map(|blk| blk.to_unit_rect(order))
            .collect();
        let scan = |net: &CanNet| -> Vec<usize> {
            net.live_zones()
                .filter(|&z| boxes.iter().any(|b| net.zone(z).unwrap().rect().intersects(b)))
                .collect()
        };
        let mut got = Vec::new();
        net.zones_intersecting(&boxes, &mut got);
        prop_assert_eq!(&got, &scan(&net));
        // A join/leave/crash storm merges tree nodes and recycles both zone
        // slots and tree-arena entries; the descent must still agree.
        for i in 0..n {
            match i % 3 {
                0 => {
                    net.join(&mut rng);
                }
                1 => {
                    let victim = net.random_zone(&mut rng);
                    let _ = net.leave(victim);
                }
                _ => {
                    let victim = net.random_zone(&mut rng);
                    let _ = net.crash(victim);
                }
            }
        }
        net.zones_intersecting(&boxes, &mut got);
        prop_assert_eq!(&got, &scan(&net));
    }

    #[test]
    fn dcf_exact_on_random_networks_and_queries(
        n in 4usize..120,
        seed in 0u64..10_000,
        lo_frac in 0f64..1.0,
        size_frac in 0f64..1.0,
    ) {
        let cfg = CanConfig { domain_lo: 0.0, domain_hi: 1000.0, ..CanConfig::default() };
        let mut rng = simnet::rng_from_seed(seed);
        let mut net = CanNet::build(cfg, n, &mut rng).unwrap();
        for h in 0..60u64 {
            net.publish(rng.gen_range(0.0..=1000.0), h);
        }
        let lo = lo_frac * 999.0;
        let hi = (lo + size_frac * (1000.0 - lo)).min(1000.0);
        let origin = net.random_zone(&mut rng);
        let out = dcf::range_query(&net, origin, lo, hi, seed, FloodMode::Directed).unwrap();
        prop_assert!(out.exact, "[{}, {}] on N = {}", lo, hi, n);
        // Cross-check the result set against a direct scan.
        let mut expect: Vec<u64> = (0..net.len())
            .flat_map(|z| net.zone(z).unwrap().records().to_vec())
            .filter(|&(v, _)| v >= lo && v <= hi)
            .map(|(_, h)| h)
            .collect();
        expect.sort_unstable();
        prop_assert_eq!(out.results, expect);
    }
}
