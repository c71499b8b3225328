//! Golden digests for the PIRA family: the pinned proof that PIRA's,
//! seqwalk's and MIRA's simulated output — results, delay, latency,
//! messages, destination and reached peer counts, exactness, epoch series
//! and trace streams — does not move when their host-side implementation
//! does.
//!
//! The batch, epoch and rectangle shapes are exactly those of
//! `tests/dcf_golden.rs` and `tests/hasher_perturbation.rs`, so a digest
//! here and a digest there describe the same run. The constants were
//! captured before PIRA's descent read FissionE's cached out-neighbor table
//! and before its per-query answered/result sets became flat scratch
//! vectors. The `steady-churn` epoch runs query between membership events,
//! so every epoch reads a table rebuilt after an invalidation: a stale
//! table moves those digests first.

use armada_suite::dht_api::{
    fnv1a, BuildParams, ChurnPlan, DigestReport, MultiBuildParams, ParallelDriver, WorkloadGen,
};
use armada_suite::experiments::standard_registry;
use armada_suite::rand::Rng;

const DOMAIN: (f64, f64) = (0.0, 1000.0);
const N: usize = 100;
const BATCH_QUERIES: usize = 16;
const EPOCH_QUERIES: usize = 12;
const EPOCHS: usize = 3;

/// `(registry name, digest)` of a fault-free `mixed` batch.
const BATCH_GOLDEN: [(&str, u64); 4] = [
    ("pira", 0xcaf5_59d9_ea40_bd49),
    ("seqwalk", 0x240e_a9c4_6942_f069),
    ("pira@wan", 0xae0b_d7fb_19cb_672f),
    ("pira+r3@lossy-p/r2", 0xb9de_08eb_ebe5_100a),
];

/// `(registry name, digest)` of a `steady-churn` epoch run.
const EPOCH_GOLDEN: [(&str, u64); 2] =
    [("pira", 0xfe22_661e_ec3f_e1e2), ("seqwalk", 0x506e_e608_cb67_989a)];

/// Digest of `mira`'s `mixed` rectangle batch.
const RECT_GOLDEN: u64 = 0x50bd_979a_231c_18d6;

/// FNV-1a of `pira`'s concatenated jsonl trace stream for the batch.
const TRACE_GOLDEN: u64 = 0x0d91_226c_7412_d737;

fn build(name: &str, trace: bool) -> Box<dyn armada_suite::dht_api::RangeScheme> {
    let params = BuildParams::new(N, DOMAIN.0, DOMAIN.1).with_object_id_len(32).with_trace(trace);
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
    let report = batch_driver(BATCH_QUERIES, 7).run(build(name, false).as_ref(), &workload);
    DigestReport::of(&report.expect("batch run"))
}

fn epoch_digest(name: &str) -> DigestReport {
    let mut scheme = build(name, false);
    let workload = WorkloadGen::named("uniform", DOMAIN).expect("cataloged");
    let plan = ChurnPlan::named("steady-churn").expect("cataloged").with_rate(4);
    let report =
        batch_driver(EPOCH_QUERIES, 11).run_epochs(scheme.as_mut(), &workload, &plan, EPOCHS);
    DigestReport::of(&report.expect("epoch run"))
}

fn rect_digest(name: &str) -> DigestReport {
    let domains = [(0.0, 100.0), (0.0, 100.0)];
    let params = MultiBuildParams::new(N, &domains).with_object_id_len(32);
    let mut rng = simnet::rng_from_seed(0x0ca9_a817);
    let mut scheme = standard_registry().build_multi(name, &params, &mut rng).expect("builds");
    for h in 0..N as u64 {
        let p = [rng.gen_range(0.0..=100.0), rng.gen_range(0.0..=100.0)];
        scheme.publish_point(&p, h).expect("publish");
    }
    let workload = WorkloadGen::named("mixed", (0.0, 100.0)).expect("cataloged");
    let report = batch_driver(BATCH_QUERIES, 3).run_multi(scheme.as_ref(), &domains, &workload);
    DigestReport::of(&report.expect("rect run"))
}

#[test]
fn pira_batch_digests_match_golden() {
    let got: Vec<(&str, u64)> =
        BATCH_GOLDEN.iter().map(|&(name, _)| (name, batch_digest(name).value())).collect();
    assert_eq!(got, BATCH_GOLDEN, "a PIRA-family batch digest moved");
}

#[test]
fn pira_epoch_digests_match_golden() {
    let got: Vec<(&str, u64)> =
        EPOCH_GOLDEN.iter().map(|&(name, _)| (name, epoch_digest(name).value())).collect();
    assert_eq!(got, EPOCH_GOLDEN, "a PIRA-family epoch digest moved");
}

#[test]
fn mira_rect_digest_matches_golden() {
    assert_eq!(rect_digest("mira").value(), RECT_GOLDEN, "mira's rectangle batch digest moved");
}

#[test]
fn pira_trace_stream_matches_golden() {
    let workload = WorkloadGen::named("mixed", DOMAIN).expect("cataloged");
    let (report, traces) = batch_driver(BATCH_QUERIES, 7)
        .run_traced(build("pira", true).as_ref(), &workload)
        .expect("traced run");
    assert_eq!(DigestReport::of(&report), batch_digest("pira"), "tracing moved the report");
    let stream: String = traces.iter().map(|t| t.to_jsonl()).collect();
    assert!(stream.contains("\"type\":\"answer\""), "no answers in the stream");
    assert_eq!(fnv1a(stream.as_bytes()), TRACE_GOLDEN, "pira's trace stream moved");
}
