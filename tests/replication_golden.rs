//! Golden digests for the replicated stacks: the pinned proof that the
//! `Replicated` wrapper's simulated output — owner lists, replica-served
//! results, fetch costs and the per-epoch `ReplicaRepair` series — does not
//! move when its host-side placement code does.
//!
//! The batch and epoch shapes are exactly those of `tests/dcf_golden.rs`
//! (and of `tests/hasher_perturbation.rs`). The constants were captured
//! before successor placement started reading a cached ring; a stale ring
//! would move the epoch digests first, because they hash every epoch's
//! repair series. `pira+ns2` keeps the close-group path pinned too.

use armada_suite::dht_api::{BuildParams, ChurnPlan, DigestReport, ParallelDriver, WorkloadGen};
use armada_suite::experiments::standard_registry;
use armada_suite::rand::Rng;

const DOMAIN: (f64, f64) = (0.0, 1000.0);
const N: usize = 100;
const BATCH_QUERIES: usize = 16;
const EPOCH_QUERIES: usize = 12;
const EPOCHS: usize = 3;

/// `(registry name, digest)` of a fault-free `mixed` batch.
const BATCH_GOLDEN: [(&str, u64); 4] = [
    ("pira+r3", 0xcaf5_59d9_ea40_bd49),
    ("pira+r3@lossy-p/r2", 0xb9de_08eb_ebe5_100a),
    ("seqwalk+r3", 0x240e_a9c4_6942_f069),
    ("pht-chord+r3", 0x8599_cfe4_68dd_7956),
];

/// `(registry name, digest)` of a `steady-churn` epoch run.
const EPOCH_GOLDEN: [(&str, u64); 4] = [
    ("pira+r3", 0xdd04_1817_5abd_9ac8),
    ("pira+r3@lossy-p/r2", 0x165d_e460_a92e_f10e),
    ("pira+r5", 0x10d7_04af_a122_abd1),
    ("pira+ns2", 0x0c5d_d22b_cbcc_d2fc),
];

fn build(name: &str) -> Box<dyn armada_suite::dht_api::RangeScheme> {
    let params = BuildParams::new(N, DOMAIN.0, DOMAIN.1).with_object_id_len(32);
    let mut rng = simnet::rng_from_seed(0x0ca9_a817);
    let mut scheme = standard_registry().build_single(name, &params, &mut rng).expect("builds");
    for h in 0..N as u64 {
        scheme.publish(rng.gen_range(DOMAIN.0..=DOMAIN.1), h).expect("publish");
    }
    scheme
}

fn batch_driver(queries: usize, seed: u64) -> ParallelDriver {
    ParallelDriver { queries, seed, threads: 2, shard_salt: 0, metrics: false }
}

fn batch_digest(name: &str) -> DigestReport {
    let workload = WorkloadGen::named("mixed", DOMAIN).expect("cataloged");
    let report = batch_driver(BATCH_QUERIES, 7).run(build(name).as_ref(), &workload);
    DigestReport::of(&report.expect("batch run"))
}

fn epoch_digest(name: &str) -> DigestReport {
    let mut scheme = build(name);
    let workload = WorkloadGen::named("uniform", DOMAIN).expect("cataloged");
    let plan = ChurnPlan::named("steady-churn").expect("cataloged").with_rate(4);
    let report =
        batch_driver(EPOCH_QUERIES, 11).run_epochs(scheme.as_mut(), &workload, &plan, EPOCHS);
    DigestReport::of(&report.expect("epoch run"))
}

#[test]
fn replicated_batch_digests_match_golden() {
    let got: Vec<(&str, u64)> =
        BATCH_GOLDEN.iter().map(|&(name, _)| (name, batch_digest(name).value())).collect();
    assert_eq!(got, BATCH_GOLDEN, "a replicated batch digest moved");
}

#[test]
fn replicated_epoch_digests_match_golden() {
    let got: Vec<(&str, u64)> =
        EPOCH_GOLDEN.iter().map(|&(name, _)| (name, epoch_digest(name).value())).collect();
    assert_eq!(got, EPOCH_GOLDEN, "a replicated epoch digest moved");
}
