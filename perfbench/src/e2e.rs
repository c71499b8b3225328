//! The end-to-end pass: what a user of the suite waits for, with tracing
//! off. Queries run in a closed loop of [`THREADS`] driver workers; set-up,
//! membership maintenance and memory are measured around them.

use crate::{
    build, median, peak_rss_mb, publish, registry, sim_metrics, thread_cpu, us, Args, Inputs,
    Maintenance, Ops, Oracle, Report, Res, SimRow, MIN_SETUPS, THREADS,
};
use dht_api::{ParallelDriver, RangeOutcome, RangeScheme, WorkloadGen};
use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::thread::ThreadId;
use std::time::{Duration, Instant};

/// Epoch transitions per round of the maintenance probe of read-only
/// workloads.
const PROBE_EPOCHS: u64 = 4;

/// Runs the end-to-end pass in rounds until `--seconds` is spent. Each
/// round runs one query batch on the scheme under test, one more set-up
/// (build + publish) of a fresh copy, and membership events: between
/// batches on churn workloads; on the fresh copy on read-only ones, whose
/// scheme under test never churns. Every host figure is the median of its
/// per-round samples, so all of them sample the whole run, and a
/// hypervisor pause of a few tens of ms moves one sample, not the figure.
pub(crate) fn run(args: &Args) -> Res<Report> {
    let w = args.workload;
    let inputs = Inputs::generate(args.seed, w.records);
    let oracle = Oracle::new(&inputs.values);
    let registry = registry();
    let traffic = WorkloadGen::named(w.traffic, crate::DOMAIN).map_err(|e| e.to_string())?;
    let mut ops = Ops::default();
    let set_up = |ops: &mut Ops| -> Res<(Box<dyn RangeScheme>, f64)> {
        let t = Instant::now();
        let mut s = build(&registry, w.scheme, w.n, &inputs)?;
        publish(s.as_mut(), &inputs.values, ops);
        Ok((s, t.elapsed().as_secs_f64()))
    };

    let started = Instant::now();
    let deadline = Duration::from_secs(args.seconds);
    let (mut scheme, first) = set_up(&mut ops)?;
    let mut setups = vec![first];
    let (mut qps, mut p50, mut p99, mut maintenance) = (vec![], vec![], vec![], vec![]);
    let mut reference = Vec::new();
    let mut wrong = 0u64;
    let mut peak_rss = f64::NAN;
    let mut round = 0;
    while round < w.reference_batches || setups.len() < MIN_SETUPS || started.elapsed() < deadline {
        if w.churn {
            if let Some(hostile) = scheme.as_hostile() {
                hostile.set_epoch(round as u64);
            }
        }
        let driver =
            ParallelDriver::new(w.batch).with_seed(inputs.batch_seed(round)).with_threads(THREADS);
        let batch =
            Batch::run(&driver, scheme.as_ref(), &traffic, Some((&oracle, !w.churn)), &mut ops)?;
        wrong += batch.wrong;
        let lat = simnet::Summary::from_samples(batch.latencies_us);
        p50.push(lat.p50);
        p99.push(lat.p99);
        if round < w.reference_batches {
            reference.extend(batch.rows);
        }
        if round == 0 {
            // One scheme built, published and queried: the workload's
            // footprint, before a second copy exists.
            peak_rss = peak_rss_mb();
        }
        let mut busy = batch.wall;
        if w.churn {
            let m = Maintenance::run(scheme.as_mut(), inputs.churn_seed, round as u64, None)?;
            busy += m.apply + m.re_replicate;
            ops.churn(&m.stats);
            maintenance.push(m.ms_per_event());
        }
        qps.push(w.batch as f64 / busy.as_secs_f64());
        let (mut fresh, t) = set_up(&mut ops)?;
        setups.push(t);
        if !w.churn {
            for k in 0..PROBE_EPOCHS {
                let epoch = round as u64 * PROBE_EPOCHS + k;
                let m = Maintenance::run(fresh.as_mut(), inputs.churn_seed, epoch, None)?;
                ops.churn(&m.stats);
                maintenance.push(m.ms_per_event());
            }
        }
        round += 1;
    }
    eprintln!(
        "[perfbench] {round} rounds: batches of {} queries, {} set-ups, {} maintenance epochs",
        w.batch,
        setups.len(),
        maintenance.len()
    );

    let mut report = Report { correct: wrong == 0, ops, metrics: Vec::new() };
    report.metric("qps", "1/s", median(&qps));
    report.metric("query_us_p50", "us", median(&p50));
    report.metric("query_us_p99", "us", median(&p99));
    report.metric("setup_s", "s", median(&setups));
    report.metric("peak_rss_mb", "MiB", peak_rss);
    report.metric("churn_event_ms", "ms", median(&maintenance));
    for (name, unit, value) in sim_metrics(&reference) {
        report.metric(name, unit, value);
    }
    Ok(report)
}

/// One driver batch, timed query by query from its own sink.
pub(crate) struct Batch {
    /// Wall time of the whole batch.
    pub(crate) wall: Duration,
    /// Thread CPU µs per query: what a worker spent between its
    /// consecutive outcomes. On a paravirtual guest this excludes the time
    /// the hypervisor stole from the vCPU, which otherwise dominates the
    /// wall-clock tail.
    pub(crate) latencies_us: Vec<f64>,
    /// Simulated outputs, in query order.
    pub(crate) rows: Vec<SimRow>,
    /// Answers the oracle refused.
    pub(crate) wrong: u64,
    /// Per worker: wall time from batch start to its last outcome.
    pub(crate) worker_busy: Vec<Duration>,
}

/// Batch ids keep a worker thread's clock from leaking across batches.
static BATCH_IDS: AtomicU64 = AtomicU64::new(0);

thread_local! {
    /// Thread CPU time when this worker last finished bookkeeping, and for
    /// which batch.
    static LAST: Cell<Option<(u64, Duration)>> = const { Cell::new(None) };
}

struct Shared {
    latencies_us: Vec<f64>,
    rows: Vec<Option<SimRow>>,
    workers: Vec<(ThreadId, Duration)>,
    wrong: u64,
}

impl Batch {
    /// Runs `driver`'s batch through [`ParallelDriver::run_streaming`].
    /// With `oracle`, each outcome is checked against it (equal when the
    /// flag is set, a subset otherwise); the check and the bookkeeping are
    /// left out of the per-query times.
    pub(crate) fn run(
        driver: &ParallelDriver,
        scheme: &dyn RangeScheme,
        traffic: &WorkloadGen,
        oracle: Option<(&Oracle, bool)>,
        ops: &mut Ops,
    ) -> Res<Batch> {
        let id = BATCH_IDS.fetch_add(1, Ordering::Relaxed);
        let shared = Mutex::new(Shared {
            latencies_us: Vec::with_capacity(driver.queries),
            rows: vec![None; driver.queries],
            workers: Vec::new(),
            wrong: 0,
        });
        // A 1-worker driver runs its shard on this thread; spawned workers
        // start their CPU clock at zero.
        let caller = (std::thread::current().id(), thread_cpu());
        let start = Instant::now();
        let sink = |q: usize, out: &RangeOutcome| {
            let (now, cpu) = (Instant::now(), thread_cpu());
            let me = std::thread::current().id();
            let since = match LAST.get() {
                Some((batch, t)) if batch == id => t,
                _ if me == caller.0 => caller.1,
                _ => Duration::ZERO,
            };
            let ok = oracle.is_none_or(|(oracle, exact)| {
                let (lo, hi) = traffic.range(driver.seed, q as u64);
                oracle.accepts(lo, hi, out, exact)
            });
            {
                let mut s = shared.lock().expect("no sink panicked");
                s.latencies_us.push(us(cpu.saturating_sub(since)));
                s.rows[q] = Some(SimRow::of(out));
                s.wrong += u64::from(!ok);
                match s.workers.iter_mut().find(|w| w.0 == me) {
                    Some(w) => w.1 = now - start,
                    None => s.workers.push((me, now - start)),
                }
            }
            LAST.set(Some((id, thread_cpu())));
        };
        driver
            .run_streaming(scheme, traffic, sink)
            .map_err(|e| format!("query batch failed: {e}"))?;
        let wall = start.elapsed();
        ops.attempted += driver.queries as u64;
        let s = shared.into_inner().expect("no sink panicked");
        Ok(Batch {
            wall,
            latencies_us: s.latencies_us,
            rows: s.rows.into_iter().map(|r| r.expect("every query reached the sink")).collect(),
            wrong: s.wrong,
            worker_busy: s.workers.into_iter().map(|w| w.1).collect(),
        })
    }
}
