//! The repository benchmark: host-time cost of the Armada suite on three
//! named workloads, end to end ([`e2e`]) and layer by layer ([`layers`]).
//!
//! Both passes drive only the public API of the repository's crates and
//! change no library code. Simulated outputs (`sim_*`) are deterministic in
//! the workload seed; every other figure is host time (wall-clock, or
//! thread CPU time for per-query latencies).
//! `README.md` next to this crate explains the workloads and the
//! layer → end-to-end prediction map.

// Wall-clock reads are the purpose of this crate; the workspace's
// determinism lints (clippy.toml, detlint) govern the simulation crates.
#![allow(clippy::disallowed_methods)]

mod e2e;
mod layers;
mod spans;

use dht_api::{BuildParams, ChurnPlan, ChurnStats, RangeOutcome, RangeScheme, SchemeRegistry};
use rand::Rng;
use spans::Spans;
use std::time::{Duration, Instant};

/// Attribute domain of every workload (the paper's `[0, 1000]`).
const DOMAIN: (f64, f64) = (0.0, 1000.0);

/// Worker threads of the closed-loop driver.
const THREADS: usize = 2;

/// Set-ups (build + publish) a run takes at least; `setup_s` and
/// `build.s` are medians over them.
const MIN_SETUPS: usize = 5;

/// Churn plan applied between epochs of churn workloads, and by the
/// maintenance probe of read-only ones.
const CHURN_PLAN: &str = "steady-churn";

/// One named workload.
struct Workload {
    /// Workload name (`--workload`).
    name: &'static str,
    /// Registry name of the scheme under test.
    scheme: &'static str,
    /// The same scheme without wrappers.
    bare: &'static str,
    /// The replication + hostile-network stack over the same base scheme.
    stack: &'static str,
    /// Peers.
    n: usize,
    /// Records published.
    records: usize,
    /// `WorkloadGen` catalog traffic.
    traffic: &'static str,
    /// Whether membership events run between query epochs.
    churn: bool,
    /// Queries per driver batch (per epoch on churn workloads).
    batch: usize,
    /// Records published into the stack probe (see `layers`).
    stack_records: usize,
    /// Batches that always run whatever `--seconds` says: their queries
    /// are the reference set of the `sim_*` metrics and of the probes.
    reference_batches: usize,
}

/// The workload catalog. `README.md` says why each one is here.
const WORKLOADS: [Workload; 3] = [
    Workload {
        name: "pira-mixed",
        scheme: "pira",
        bare: "pira",
        stack: "pira+r3@lossy-p/r2",
        n: 30_000,
        records: 30_000,
        traffic: "mixed",
        churn: false,
        batch: 1_000,
        stack_records: 300,
        reference_batches: 8,
    },
    Workload {
        name: "dcf-hot",
        scheme: "dcf-can",
        bare: "dcf-can",
        stack: "dcf-can+r3@lossy-p/r2",
        n: 20_000,
        records: 20_000,
        traffic: "zipf-hot",
        churn: false,
        batch: 1_000,
        stack_records: 300,
        reference_batches: 8,
    },
    Workload {
        name: "churn-r3",
        scheme: "pira+r3@lossy-p/r2",
        bare: "pira",
        stack: "pira+r3@lossy-p/r2",
        n: 5_000,
        // One record per five peers: a `+r3` repair pass then takes about
        // 0.2 s, so a run holds enough membership epochs for a steady
        // median.
        records: 1_000,
        traffic: "mixed",
        churn: true,
        batch: 2_000,
        stack_records: 1_000,
        reference_batches: 6,
    },
];

type Res<T> = Result<T, String>;

/// Command-line arguments.
struct Args {
    workload: &'static Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

impl Args {
    fn parse(mut raw: impl Iterator<Item = String>) -> Res<Args> {
        let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
        while let Some(flag) = raw.next() {
            let value = raw.next().ok_or_else(|| format!("{flag} needs a value"))?;
            let number = || value.parse::<u64>().map_err(|_| format!("{flag} wants an integer"));
            match flag.as_str() {
                "--workload" => {
                    let found = WORKLOADS.iter().find(|w| w.name == value);
                    workload = Some(found.ok_or_else(|| format!("unknown workload {value:?}"))?);
                }
                "--seed" => seed = Some(number()?),
                "--seconds" => seconds = Some(number()?.max(1)),
                "--trace" => trace = Some(number()? != 0),
                other => return Err(format!("unknown flag {other:?}")),
            }
        }
        Ok(Args {
            workload: workload.ok_or("--workload is required")?,
            seed: seed.ok_or("--seed is required")?,
            seconds: seconds.unwrap_or(10),
            trace: trace.unwrap_or(false),
        })
    }
}

/// The generated inputs of one run: everything the library sees is
/// derived here from the workload seed.
struct Inputs {
    /// Record `h` has attribute value `values[h]`.
    values: Vec<f64>,
    build_seed: u64,
    query_seed: u64,
    churn_seed: u64,
}

impl Inputs {
    fn generate(seed: u64, n: usize) -> Inputs {
        let mut rng = simnet::rng_from_seed(simnet::mix(seed, 1, 0));
        Inputs {
            values: (0..n).map(|_| rng.gen_range(DOMAIN.0..=DOMAIN.1)).collect(),
            build_seed: simnet::mix(seed, 2, 0),
            query_seed: simnet::mix(seed, 3, 0),
            churn_seed: simnet::mix(seed, 4, 0),
        }
    }

    /// Driver seed of query batch `b`.
    fn batch_seed(&self, b: usize) -> u64 {
        simnet::mix(self.query_seed, b as u64, 0)
    }
}

/// The expected answers, built from the records the benchmark published.
struct Oracle<'a> {
    values: &'a [f64],
    sorted: Vec<f64>,
}

impl<'a> Oracle<'a> {
    fn new(values: &'a [f64]) -> Self {
        let mut sorted = values.to_vec();
        sorted.sort_by(f64::total_cmp);
        Oracle { values, sorted }
    }

    /// Whether `out` answers `[lo, hi]` correctly: every handle is a
    /// published record inside the range, with no repeats; when `exact`,
    /// no record is missing and the scheme reports the answer exact.
    fn accepts(&self, lo: f64, hi: f64, out: &RangeOutcome, exact: bool) -> bool {
        let ascending = out.results.windows(2).all(|p| p[0] < p[1]);
        let inside = out
            .results
            .iter()
            .all(|&h| self.values.get(h as usize).is_some_and(|&v| (lo..=hi).contains(&v)));
        if !(ascending && inside) {
            return false;
        }
        if !exact {
            return true;
        }
        let count =
            self.sorted.partition_point(|&v| v <= hi) - self.sorted.partition_point(|&v| v < lo);
        out.exact && out.results.len() == count
    }
}

/// The simulated outputs of one query, and a digest of the whole outcome.
#[derive(Debug, Clone, Copy, PartialEq)]
struct SimRow {
    delay: u64,
    messages: u64,
    recall: f64,
    digest: u64,
}

impl SimRow {
    fn of(out: &RangeOutcome) -> SimRow {
        let mut d = out.results.iter().fold(out.results.len() as u64, |d, &h| simnet::mix(d, h, 1));
        for x in
            [out.delay, out.latency, out.messages, out.dest_peers as u64, out.reached_peers as u64]
        {
            d = simnet::mix(d, x, 2);
        }
        d = simnet::mix(d, u64::from(out.exact), 3);
        SimRow { delay: out.delay, messages: out.messages, recall: out.peer_recall(), digest: d }
    }
}

/// The `sim_*` metrics of a reference set, in query order.
fn sim_metrics(rows: &[SimRow]) -> [(&'static str, &'static str, f64); 3] {
    let n = rows.len().max(1) as f64;
    let delay = simnet::Summary::from_samples(rows.iter().map(|r| r.delay as f64)).p99;
    let messages = rows.iter().map(|r| r.messages).sum::<u64>() as f64 / n;
    let recall = rows.iter().map(|r| r.recall).sum::<f64>() / n;
    [
        ("sim_delay_p99_hops", "hops", delay),
        ("sim_messages_per_query", "count", messages),
        ("sim_recall", "ratio", recall),
    ]
}

fn registry() -> SchemeRegistry {
    let mut registry = SchemeRegistry::new();
    armada::register(&mut registry);
    dht_can::register(&mut registry);
    registry
}

/// Builds `name` with `n` peers from the run's build seed.
fn build(
    registry: &SchemeRegistry,
    name: &str,
    n: usize,
    inputs: &Inputs,
) -> Res<Box<dyn RangeScheme>> {
    let params = BuildParams::new(n, DOMAIN.0, DOMAIN.1);
    let mut rng = simnet::rng_from_seed(inputs.build_seed);
    registry.build_single(name, &params, &mut rng).map_err(|e| format!("build {name}: {e}"))
}

/// Publishes `values[h]` under handle `h`, in handle order.
fn publish(scheme: &mut dyn RangeScheme, values: &[f64], ops: &mut Ops) {
    for (h, &v) in values.iter().enumerate() {
        ops.record(scheme.publish(v, h as u64).is_ok());
    }
}

/// Operations attempted and failed (queries, publishes, churn events).
#[derive(Default)]
struct Ops {
    attempted: u64,
    failed: u64,
}

impl Ops {
    fn record(&mut self, ok: bool) {
        self.attempted += 1;
        self.failed += u64::from(!ok);
    }

    fn churn(&mut self, stats: &ChurnStats) {
        self.attempted += (stats.events() + stats.skipped) as u64;
        self.failed += stats.skipped as u64;
    }
}

/// One maintenance step: a churn-plan epoch transition, then the
/// re-replication pass a replicated scheme runs after it.
struct Maintenance {
    stats: ChurnStats,
    apply: Duration,
    re_replicate: Duration,
    placed: Option<usize>,
}

impl Maintenance {
    /// Runs epoch transition `epoch`; with `spans`, each call gets a span.
    fn run(
        scheme: &mut dyn RangeScheme,
        seed: u64,
        epoch: u64,
        mut spans: Option<&mut Spans>,
    ) -> Res<Maintenance> {
        let plan = ChurnPlan::named(CHURN_PLAN).map_err(|e| e.to_string())?;
        let dynamic = scheme.as_dynamic().ok_or("scheme has no dynamics")?;
        let (stats, apply) = timed(&mut spans, "churn.apply", || plan.apply(dynamic, seed, epoch));
        let stats = stats.map_err(|e| e.to_string())?;
        let (placed, re_replicate) = match scheme.as_replicated() {
            Some(c) => {
                timed(&mut spans, "replicated.re_replicate", || Some(c.re_replicate().placed))
            }
            None => (None, Duration::ZERO),
        };
        Ok(Maintenance { stats, apply, re_replicate, placed })
    }

    /// Host ms per membership event, repair included.
    fn ms_per_event(&self) -> f64 {
        ms(self.apply + self.re_replicate) / self.stats.events().max(1) as f64
    }
}

/// Runs `f`, in a span when `spans` is present.
fn timed<T>(
    spans: &mut Option<&mut Spans>,
    name: &'static str,
    f: impl FnOnce() -> T,
) -> (T, Duration) {
    match spans {
        Some(spans) => spans.time(name, None, f),
        None => {
            let start = Instant::now();
            let out = f();
            (out, start.elapsed())
        }
    }
}

/// `struct timespec` of 64-bit Linux.
#[repr(C)]
struct Timespec {
    tv_sec: std::ffi::c_long,
    tv_nsec: std::ffi::c_long,
}

/// `CLOCK_THREAD_CPUTIME_ID` of Linux.
const CLOCK_THREAD_CPUTIME_ID: std::ffi::c_int = 3;

extern "C" {
    fn clock_gettime(clock: std::ffi::c_int, ts: *mut Timespec) -> std::ffi::c_int;
}

/// CPU time the calling thread has run. With paravirtual time accounting
/// (KVM guests) it leaves out time the hypervisor stole from the vCPU.
fn thread_cpu() -> Duration {
    let mut ts = Timespec { tv_sec: 0, tv_nsec: 0 };
    // SAFETY: `ts` is a live, writable `struct timespec` for the whole
    // call, and `clock_gettime` writes nothing else.
    let rc = unsafe { clock_gettime(CLOCK_THREAD_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "the thread CPU clock exists on Linux");
    Duration::new(ts.tv_sec as u64, ts.tv_nsec as u32)
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

fn us(d: Duration) -> f64 {
    d.as_secs_f64() * 1e6
}

fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => f64::NAN,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

fn mean(values: &[f64]) -> f64 {
    values.iter().sum::<f64>() / values.len() as f64
}

/// Peak resident set of this process (`VmHWM`), in MiB.
fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    let kib = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok());
    kib.map_or(f64::NAN, |k| k / 1024.0)
}

/// What one run prints.
struct Report {
    correct: bool,
    ops: Ops,
    metrics: Vec<(&'static str, &'static str, f64)>,
}

impl Report {
    fn metric(&mut self, name: &'static str, unit: &'static str, value: f64) {
        self.metrics.push((name, unit, value));
    }

    /// Prints one line per metric, then the result object as the last line.
    fn print(&self) {
        for (name, unit, value) in &self.metrics {
            println!("{name:<34} {value:>16.6} {unit}");
        }
        let frac = self.ops.failed as f64 / self.ops.attempted.max(1) as f64;
        println!("{:<34} {frac:>16.6} ratio", "failed_frac");
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(name, unit, value)| {
                format!("\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}")
            })
            .collect();
        println!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct,
            self.ops.attempted,
            self.ops.failed,
            metrics.join(", ")
        );
    }
}

/// Switches allocation counting on or off.
pub type CountSwitch = fn(bool);

/// Runs the benchmark with the process arguments; returns the exit code.
/// `count` is the binary's allocation-counting switch; the traced run
/// needs one, and the end-to-end run must not have one.
pub fn main(count: Option<CountSwitch>) -> i32 {
    let args = match Args::parse(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("error: {e}");
            eprintln!(
                "usage: --workload <{}> --seed <n> --seconds <n> --trace <0|1>",
                WORKLOADS.map(|w| w.name).join("|")
            );
            return 2;
        }
    };
    if args.trace != count.is_some() {
        eprintln!("error: --trace 1 runs in perfbench-traced, --trace 0 in perfbench");
        return 2;
    }
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    eprintln!(
        "[perfbench] workload {} seed {} seconds {} trace {} ({THREADS} workers, {cores} cores)",
        args.workload.name, args.seed, args.seconds, args.trace
    );
    let result = match count {
        Some(count) => layers::run(&args, count),
        None => e2e::run(&args),
    };
    match result {
        Ok(report) if report.metrics.iter().all(|m| m.2.is_finite()) => {
            report.print();
            if report.correct {
                0
            } else {
                eprintln!("error: an output check failed");
                1
            }
        }
        Ok(report) => {
            let bad: Vec<&str> =
                report.metrics.iter().filter(|m| !m.2.is_finite()).map(|m| m.0).collect();
            eprintln!("error: metrics without a value: {bad:?}");
            1
        }
        Err(e) => {
            eprintln!("error: {e}");
            1
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn outcome(results: Vec<u64>, exact: bool) -> RangeOutcome {
        RangeOutcome {
            results,
            delay: 1,
            latency: 1,
            messages: 1,
            dest_peers: 1,
            reached_peers: 1,
            exact,
        }
    }

    #[test]
    fn oracle_accepts_exact_answers_and_rejects_wrong_ones() {
        let values = [5.0, 1.0, 3.0, 9.0];
        let oracle = Oracle::new(&values);
        assert!(oracle.accepts(1.0, 5.0, &outcome(vec![0, 1, 2], true), true));
        assert!(!oracle.accepts(1.0, 5.0, &outcome(vec![0, 1], true), true), "missing record");
        assert!(oracle.accepts(1.0, 5.0, &outcome(vec![0, 1], false), false), "subset");
        assert!(!oracle.accepts(1.0, 5.0, &outcome(vec![0, 3], false), false), "outside");
        assert!(!oracle.accepts(1.0, 5.0, &outcome(vec![1, 1], false), false), "repeat");
        assert!(!oracle.accepts(1.0, 5.0, &outcome(vec![0, 1, 2], false), true), "not exact");
    }

    #[test]
    fn thread_cpu_counts_work_but_not_sleep() {
        let start = thread_cpu();
        std::thread::sleep(Duration::from_millis(50));
        assert!(thread_cpu() - start < Duration::from_millis(25), "sleep was counted");
        let busy = thread_cpu();
        while thread_cpu() - busy < Duration::from_millis(5) {}
        assert!(thread_cpu() > start);
    }

    #[test]
    fn inputs_are_a_function_of_the_seed() {
        let (a, b) = (Inputs::generate(7, 50), Inputs::generate(7, 50));
        assert_eq!(a.values, b.values);
        assert_eq!(a.batch_seed(3), b.batch_seed(3));
        assert_ne!(a.values, Inputs::generate(8, 50).values);
    }

    #[test]
    fn args_parse_and_reject() {
        let parse = |s: &str| Args::parse(s.split_whitespace().map(String::from));
        let a = parse("--workload dcf-hot --seed 3 --seconds 5 --trace 1").unwrap();
        assert_eq!((a.workload.name, a.seed, a.seconds, a.trace), ("dcf-hot", 3, 5, true));
        assert!(parse("--workload nope --seed 1").is_err());
        assert!(parse("--seed 1").is_err());
        assert!(parse("--workload dcf-hot --seed x").is_err());
    }
}
