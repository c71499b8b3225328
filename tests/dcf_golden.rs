//! Golden digests for the DCF family: the pinned proof that DCF's
//! simulated output — results, delay, latency, messages, destination and
//! reached zone counts, exactness, epoch series and trace streams — does
//! not move when its host-side implementation does.
//!
//! The batch and epoch shapes are exactly those of
//! `tests/hasher_perturbation.rs`, so a digest here and a digest there
//! describe the same run. The constants were captured before the DCF
//! engine's ground-truth scan, visited set and informed sets were
//! reworked; any later change to DCF's host-side data structures must
//! leave every one of them untouched.

use armada_suite::dht_api::{
    fnv1a, BuildParams, ChurnPlan, DigestReport, ParallelDriver, WorkloadGen,
};
use armada_suite::experiments::standard_registry;
use armada_suite::rand::Rng;

const DOMAIN: (f64, f64) = (0.0, 1000.0);
const N: usize = 100;
const BATCH_QUERIES: usize = 16;
const EPOCH_QUERIES: usize = 12;
const EPOCHS: usize = 3;

/// `(registry name, digest)` of a fault-free `mixed` batch.
const BATCH_GOLDEN: [(&str, u64); 5] = [
    ("dcf-can", 0x366c_35fc_0b72_8464),
    ("dcf-can-naive", 0x08bd_69a2_a050_cdc0),
    ("dcf-can+r3", 0x366c_35fc_0b72_8464),
    ("dcf-can@wan", 0x1990_3900_c06b_8b20),
    ("dcf-can+r3@lossy-p/r2", 0xa60c_59be_5d9a_0b2a),
];

/// `(registry name, digest)` of a `steady-churn` epoch run.
const EPOCH_GOLDEN: [(&str, u64); 2] =
    [("dcf-can", 0x05f9_508c_f6a6_9486), ("dcf-can+r3", 0xb524_7d07_db46_b4e8)];

/// FNV-1a of `dcf-can`'s concatenated jsonl trace stream for the batch.
const TRACE_GOLDEN: u64 = 0xf16a_2040_23ad_2c8d;

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

#[test]
fn dcf_batch_digests_match_golden() {
    let got: Vec<(&str, u64)> =
        BATCH_GOLDEN.iter().map(|&(name, _)| (name, batch_digest(name).value())).collect();
    assert_eq!(got, BATCH_GOLDEN, "a DCF batch digest moved");
}

#[test]
fn dcf_epoch_digests_match_golden() {
    let got: Vec<(&str, u64)> =
        EPOCH_GOLDEN.iter().map(|&(name, _)| (name, epoch_digest(name).value())).collect();
    assert_eq!(got, EPOCH_GOLDEN, "a DCF epoch digest moved");
}

#[test]
fn dcf_trace_stream_matches_golden() {
    let workload = WorkloadGen::named("mixed", DOMAIN).expect("cataloged");
    let (report, traces) = batch_driver(BATCH_QUERIES, 7)
        .run_traced(build("dcf-can", true).as_ref(), &workload)
        .expect("traced run");
    assert_eq!(DigestReport::of(&report), batch_digest("dcf-can"), "tracing moved the report");
    let stream: String = traces.iter().map(|t| t.to_jsonl()).collect();
    assert!(stream.contains("\"type\":\"hop\""), "no hops in the stream");
    assert_eq!(fnv1a(stream.as_bytes()), TRACE_GOLDEN, "dcf-can's trace stream moved");
}
