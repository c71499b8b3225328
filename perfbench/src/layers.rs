//! The traced pass: per-layer costs. Each layer is timed from outside, by
//! spans around the benchmark's own calls into that layer's public
//! functions, on the workload's own inputs — the same records, the same
//! query ranges, and the end-to-end pass's message counts. No library
//! code is instrumented.

use crate::e2e::Batch;
use crate::spans::Spans;
use crate::{
    build, mean, median, ms, publish, registry, us, Args, CountSwitch, Inputs, Maintenance, Ops,
    Oracle, Report, Res, SimRow, DOMAIN, MIN_SETUPS, THREADS,
};
use dht_api::{ParallelDriver, RangeOutcome, RangeScheme, WorkloadGen};
use simnet::NodeId;
use std::hint::black_box;
use std::time::{Duration, Instant};

/// FissionE ObjectID length the registry builds with (the paper's `k`).
const OBJECT_ID_LEN: usize = 100;

/// Traced set-ups repeat for at least this long (and `MIN_SETUPS` times).
const SETUP_TIME: Duration = Duration::from_secs(2);

/// Epoch transitions the maintenance probes apply.
const MAINTENANCE_EPOCHS: u64 = 3;

/// Serial passes of the stack probe, alternating stack and bare scheme.
const STACK_PASSES: usize = 3;

/// Micro-probes repeat their loop until at least this much time is spent.
const MICRO_TIME: Duration = Duration::from_millis(50);

/// One reference query, exactly as the driver would run it.
struct Query {
    lo: f64,
    hi: f64,
    origin: NodeId,
    seed: u64,
}

/// Runs the traced pass; `count` switches allocation counting.
pub(crate) fn run(args: &Args, count: CountSwitch) -> Res<Report> {
    let w = args.workload;
    let inputs = Inputs::generate(args.seed, w.records);
    let oracle = Oracle::new(&inputs.values);
    let registry = registry();
    let traffic = WorkloadGen::named(w.traffic, DOMAIN).map_err(|e| e.to_string())?;
    let mut spans = Spans::new();
    let mut report = Report { correct: true, ops: Ops::default(), metrics: Vec::new() };
    let exact = !w.churn;

    // Registry layer: build and publish.
    let mut builds = Vec::new();
    let mut publishes = Vec::new();
    let mut scheme = None;
    let started = Instant::now();
    while builds.len() < MIN_SETUPS || started.elapsed() < SETUP_TIME {
        drop(scheme.take());
        let s = traced_setup(
            &mut spans,
            &registry,
            w.scheme,
            w.n,
            &inputs,
            w.records,
            &mut report.ops,
        )?;
        builds.push(s.build.as_secs_f64());
        publishes.push(s.us_per_record);
        scheme = Some(s.scheme);
    }
    let mut scheme = scheme.expect("at least one set-up");
    report.metric("build.s", "s", median(&builds));
    report.metric("publish.us_per_record", "us", median(&publishes));

    // Scheme, driver and tracing overhead: the first end-to-end batch,
    // run four ways until `--seconds` is spent. Every way must produce the
    // same simulated outputs.
    let driver = ParallelDriver::new(w.batch).with_seed(inputs.batch_seed(0));
    let queries = reference_queries(&driver, scheme.as_ref(), &traffic);
    let r = queries.len() as f64;
    let (mut plain, mut traced, mut serial, mut sharded, mut imbalance) =
        (vec![], vec![], vec![], vec![], vec![]);
    let mut allocs = None;
    let mut reference: Option<Vec<SimRow>> = None;
    let started = Instant::now();
    while plain.is_empty() || started.elapsed() < Duration::from_secs(args.seconds) {
        // Alternate which serial pass runs first, so neither gains from
        // the other's warm caches.
        let traced_pass = |spans: &mut Spans| {
            count(true);
            let pass = query_pass(scheme.as_ref(), &queries, Some(spans));
            count(false);
            pass
        };
        let (p, t) = if plain.len() % 2 == 0 {
            let p = query_pass(scheme.as_ref(), &queries, None)?;
            (p, traced_pass(&mut spans)?)
        } else {
            let t = traced_pass(&mut spans)?;
            (query_pass(scheme.as_ref(), &queries, None)?, t)
        };
        let s =
            Batch::run(&driver.with_threads(1), scheme.as_ref(), &traffic, None, &mut report.ops)?;
        let m = Batch::run(
            &driver.with_threads(THREADS),
            scheme.as_ref(),
            &traffic,
            None,
            &mut report.ops,
        )?;
        let rows = p.rows(&queries, &oracle, exact, &mut report.correct);
        let same = t.rows(&queries, &oracle, exact, &mut report.correct) == rows
            && s.rows == rows
            && m.rows == rows;
        if !same {
            eprintln!("error: the reference passes disagree");
            report.correct = false;
        }
        report.ops.attempted += 2 * queries.len() as u64;
        reference.get_or_insert(rows);
        allocs.get_or_insert((t.allocs, t.bytes));
        plain.push(p.wall.as_secs_f64());
        traced.push(t.wall.as_secs_f64());
        serial.push(s.wall.as_secs_f64());
        sharded.push(m.wall.as_secs_f64());
        let busy: Vec<f64> = m.worker_busy.iter().map(Duration::as_secs_f64).collect();
        imbalance.push(busy.iter().copied().fold(0.0, f64::max) / mean(&busy));
    }
    let reference = reference.expect("at least one round");
    let messages: u64 = reference.iter().map(|row| row.messages).sum();
    let (allocs, bytes) = allocs.expect("at least one round");
    eprintln!(
        "[perfbench] {} rounds of 4 reference passes over {} queries",
        plain.len(),
        queries.len()
    );
    report.metric("scheme.query_us_mean", "us", median(&plain) * 1e6 / r);
    report.metric("scheme.allocs_per_query", "count", allocs as f64 / r);
    report.metric("scheme.alloc_kb_per_query", "KiB", bytes as f64 / r / 1024.0);
    report.metric("scheme.us_per_message", "us", median(&plain) * 1e6 / messages.max(1) as f64);
    report.metric("driver.speedup", "ratio", median(&serial) / median(&sharded));
    report.metric("driver.shard_imbalance", "ratio", median(&imbalance));
    report.metric(
        "driver.overhead_us_per_query",
        "us",
        (median(&serial) - median(&plain)) * 1e6 / r,
    );
    report.metric("trace.overhead_frac", "ratio", median(&traced) / median(&plain) - 1.0);

    simnet_probe(
        &mut spans,
        &mut report,
        (messages as f64 / r).round() as usize,
        w.n,
        inputs.query_seed,
    );
    kautz_probe(&mut spans, &mut report, &inputs.values, &queries)?;
    fissione_probe(&mut spans, &mut report, w.n, &inputs, &queries)?;
    can_probe(&mut spans, &mut report, w.n, &inputs, &queries)?;
    stack_probe(&mut spans, &mut report, &registry, w, &inputs, &traffic, &driver)?;

    // Churn layer: membership events on the workload's own scheme.
    let root = spans.enter("probe.churn", None);
    let mut apply = Vec::new();
    let mut stabilize = Vec::new();
    for epoch in 0..MAINTENANCE_EPOCHS {
        let m = traced_maintenance(&mut spans, scheme.as_mut(), inputs.churn_seed, epoch)?;
        report.ops.churn(&m.stats);
        apply.push(ms(m.apply) / m.stats.events().max(1) as f64);
        stabilize.push(m.stats.stabilize_ops as f64);
    }
    spans.exit(root, MAINTENANCE_EPOCHS);
    report.metric("churn.apply_ms_per_event", "ms", median(&apply));
    report.metric("churn.stabilize_ops_per_epoch", "count", mean(&stabilize));

    print_self_times(&spans);
    let path =
        std::path::PathBuf::from(format!("perfbench/out/spans-{}-seed{}.jsonl", w.name, args.seed));
    spans.write(&path).map_err(|e| format!("writing {}: {e}", path.display()))?;
    eprintln!("[perfbench] spans written to {}", path.display());
    Ok(report)
}

/// A scheme built and published inside spans.
struct Setup {
    scheme: Box<dyn RangeScheme>,
    build: Duration,
    us_per_record: f64,
}

/// Builds `name` and publishes the first `records` records inside spans.
fn traced_setup(
    spans: &mut Spans,
    registry: &dht_api::SchemeRegistry,
    name: &str,
    n: usize,
    inputs: &Inputs,
    records: usize,
    ops: &mut Ops,
) -> Res<Setup> {
    let root = spans.enter("setup", None);
    let (scheme, build) =
        spans.time("registry.build_single", None, || build(registry, name, n, inputs));
    let mut scheme = scheme?;
    let id = spans.enter("scheme.publish", None);
    publish(scheme.as_mut(), &inputs.values[..records], ops);
    let published = spans.exit(id, records as u64);
    spans.exit(root, 1);
    Ok(Setup { scheme, build, us_per_record: us(published) / records as f64 })
}

fn reference_queries(
    driver: &ParallelDriver,
    scheme: &dyn RangeScheme,
    traffic: &WorkloadGen,
) -> Vec<Query> {
    (0..driver.queries)
        .map(|q| {
            let (lo, hi) = traffic.range(driver.seed, q as u64);
            Query { lo, hi, origin: driver.query_origin(scheme, q), seed: driver.query_seed(q) }
        })
        .collect()
}

/// One serial pass over the reference queries.
struct QueryPass {
    wall: Duration,
    outcomes: Vec<RangeOutcome>,
    allocs: u64,
    bytes: u64,
}

impl QueryPass {
    /// Checks every answer against `oracle` and returns the simulated rows.
    fn rows(
        &self,
        queries: &[Query],
        oracle: &Oracle,
        exact: bool,
        correct: &mut bool,
    ) -> Vec<SimRow> {
        for (q, out) in queries.iter().zip(&self.outcomes) {
            *correct &= oracle.accepts(q.lo, q.hi, out, exact);
        }
        self.outcomes.iter().map(SimRow::of).collect()
    }
}

/// Runs every query through `RangeScheme::range_query_scratch` on one
/// thread. With `spans`, each call gets a span and its allocations are
/// counted; without, only the pass's wall time is taken.
fn query_pass(
    scheme: &dyn RangeScheme,
    queries: &[Query],
    spans: Option<&mut Spans>,
) -> Res<QueryPass> {
    let mut scratch = simnet::QueryScratch::new();
    let mut outcomes = Vec::with_capacity(queries.len());
    let (mut allocs, mut bytes) = (0, 0);
    let start = Instant::now();
    match spans {
        None => {
            for q in queries {
                outcomes.push(scheme.range_query_scratch(
                    q.origin,
                    q.lo,
                    q.hi,
                    q.seed,
                    &mut scratch,
                ));
            }
        }
        Some(spans) => {
            let root = spans.enter("pass.scheme", None);
            for (i, q) in queries.iter().enumerate() {
                let id = spans.enter("scheme.range_query_scratch", Some(i as u64));
                let (a, b) =
                    (counting_alloc::allocation_count(), counting_alloc::allocated_bytes());
                let out = scheme.range_query_scratch(q.origin, q.lo, q.hi, q.seed, &mut scratch);
                allocs += counting_alloc::allocation_count() - a;
                bytes += counting_alloc::allocated_bytes() - b;
                spans.exit(id, 1);
                outcomes.push(out);
            }
            spans.exit(root, queries.len() as u64);
        }
    }
    let wall = start.elapsed();
    let outcomes =
        outcomes.into_iter().collect::<Result<_, _>>().map_err(|e| format!("query failed: {e}"))?;
    Ok(QueryPass { wall, outcomes, allocs, bytes })
}

/// `simnet`: the event loop alone, replaying a fan-out as large as the
/// workload's mean query (one `Sim::send`, then `Sim::forward` from each
/// delivery to two more peers until `messages` are sent).
fn simnet_probe(spans: &mut Spans, report: &mut Report, messages: usize, n: usize, seed: u64) {
    let root = spans.enter("probe.simnet", None);
    let (mut events, mut elapsed, mut replays) = (0u64, Duration::ZERO, 0u64);
    while elapsed < MICRO_TIME || replays < 3 {
        let id = spans.enter("simnet.replay", Some(replays));
        let mut sim: simnet::Sim<'_, u32> = simnet::Sim::new(simnet::mix(seed, replays, 5));
        let mut sent = 1usize;
        sim.send(0, 1 % n, 0, 1);
        sim.run(|sim, env| {
            for _ in 0..2 {
                if sent < messages {
                    sent += 1;
                    sim.forward(&env, sent % n, sent as u32);
                }
            }
        });
        events += black_box(sim.stats().deliveries);
        elapsed += spans.exit(id, 1);
        replays += 1;
    }
    spans.exit(root, replays);
    report.metric("simnet.ns_per_event", "ns", elapsed.as_nanos() as f64 / events.max(1) as f64);
}

/// `kautz`: the naming functions on the published values and the query
/// ranges.
fn kautz_probe(
    spans: &mut Spans,
    report: &mut Report,
    values: &[f64],
    queries: &[Query],
) -> Res<()> {
    let naming = kautz::naming::SingleHash::new(DOMAIN.0, DOMAIN.1, OBJECT_ID_LEN)
        .map_err(|e| e.to_string())?;
    let root = spans.enter("probe.kautz", None);
    let (mut t, mut calls) = (Duration::ZERO, 0);
    while t < MICRO_TIME {
        let id = spans.enter("kautz.object_id", None);
        for &v in values {
            black_box(naming.object_id(black_box(v)));
        }
        t += spans.exit(id, values.len() as u64);
        calls += values.len();
    }
    report.metric("kautz.object_id_ns", "ns", t.as_nanos() as f64 / calls as f64);
    let (mut t, mut calls) = (Duration::ZERO, 0);
    while t < MICRO_TIME {
        let id = spans.enter("kautz.region", None);
        for q in queries {
            black_box(naming.region(black_box(q.lo), black_box(q.hi)).map_err(|e| e.to_string())?);
        }
        t += spans.exit(id, queries.len() as u64);
        calls += queries.len();
    }
    spans.exit(root, 2);
    report.metric("kautz.region_ns", "ns", t.as_nanos() as f64 / calls as f64);
    Ok(())
}

/// Origin RNG of probe query `q` on a substrate built here.
fn probe_rng(inputs: &Inputs, q: usize) -> rand::rngs::SmallRng {
    simnet::rng_from_seed(simnet::mix(inputs.query_seed, q as u64, 6))
}

/// `fissione`: build, route to each query's lower ObjectID, and list the
/// peers a query's Kautz region intersects.
fn fissione_probe(
    spans: &mut Spans,
    report: &mut Report,
    n: usize,
    inputs: &Inputs,
    queries: &[Query],
) -> Res<()> {
    let naming = kautz::naming::SingleHash::new(DOMAIN.0, DOMAIN.1, OBJECT_ID_LEN)
        .map_err(|e| e.to_string())?;
    let cfg = fissione::FissioneConfig { object_id_len: OBJECT_ID_LEN, ..Default::default() };
    let root = spans.enter("probe.fissione", None);
    let (net, built) = spans.time("fissione.build", None, || {
        fissione::FissioneNet::build(cfg, n, &mut simnet::rng_from_seed(inputs.build_seed))
    });
    let net = net.map_err(|e| e.to_string())?;
    let (mut route, mut hops, mut peers) = (Duration::ZERO, 0usize, Duration::ZERO);
    for (i, q) in queries.iter().enumerate() {
        let from = net.random_peer(&mut probe_rng(inputs, i));
        let (low, high) = (naming.object_id(q.lo), naming.object_id(q.hi));
        let (path, t) = spans.time("fissione.route", Some(i as u64), || net.route(from, &low));
        hops += path.map_err(|e| e.to_string())?.hops();
        route += t;
        let (hit, t) = spans.time("fissione.range_peers", Some(i as u64), || {
            net.peers_intersecting_range(&low, &high)
        });
        black_box(hit.map_err(|e| e.to_string())?);
        peers += t;
    }
    spans.exit(root, queries.len() as u64);
    let r = queries.len() as f64;
    report.metric("fissione.build_s", "s", built.as_secs_f64());
    report.metric("fissione.route_us", "us", us(route) / r);
    report.metric("fissione.route_hops", "hops", hops as f64 / r);
    report.metric("fissione.range_peers_us", "us", us(peers) / r);
    Ok(())
}

/// `dht-can`: build, and route to each query's median point.
fn can_probe(
    spans: &mut Spans,
    report: &mut Report,
    n: usize,
    inputs: &Inputs,
    queries: &[Query],
) -> Res<()> {
    let cfg = dht_can::CanConfig { domain_lo: DOMAIN.0, domain_hi: DOMAIN.1, ..Default::default() };
    let root = spans.enter("probe.can", None);
    let (net, built) = spans.time("can.build", None, || {
        dht_can::CanNet::build(cfg, n, &mut simnet::rng_from_seed(inputs.build_seed))
    });
    let net = net.map_err(|e| e.to_string())?;
    let (mut route, mut hops) = (Duration::ZERO, 0usize);
    for (i, q) in queries.iter().enumerate() {
        let from = net.random_zone(&mut probe_rng(inputs, i));
        let (x, y) = net.point_of_value((q.lo + q.hi) / 2.0);
        let (path, t) =
            spans.time("can.route_to_point", Some(i as u64), || net.route_to_point(from, x, y));
        hops += path.map_err(|e| e.to_string())?.len().saturating_sub(1);
        route += t;
    }
    spans.exit(root, queries.len() as u64);
    let r = queries.len() as f64;
    report.metric("can.build_s", "s", built.as_secs_f64());
    report.metric("can.route_us", "us", us(route) / r);
    report.metric("can.route_hops", "hops", hops as f64 / r);
    Ok(())
}

/// `dht-api` replication and hostile wrappers: the workload's stack
/// against its bare base scheme, same build seed, same records, same
/// queries; then repair after membership events.
fn stack_probe(
    spans: &mut Spans,
    report: &mut Report,
    registry: &dht_api::SchemeRegistry,
    w: &crate::Workload,
    inputs: &Inputs,
    traffic: &WorkloadGen,
    driver: &ParallelDriver,
) -> Res<()> {
    let records = w.stack_records;
    let oracle = Oracle::new(&inputs.values[..records]);
    let root = spans.enter("probe.stack", None);
    let mut stack = traced_setup(spans, registry, w.stack, w.n, inputs, records, &mut report.ops)?;
    let bare = traced_setup(spans, registry, w.bare, w.n, inputs, records, &mut report.ops)?;
    let queries = reference_queries(driver, stack.scheme.as_ref(), traffic);
    // `retry_attempts` counts attempts beyond each query's first.
    let retries = stack.scheme.retry_attempts();
    let (mut stacked, mut plain) = (Vec::new(), Vec::new());
    for _ in 0..STACK_PASSES {
        let s = query_pass(stack.scheme.as_ref(), &queries, None)?;
        let p = query_pass(bare.scheme.as_ref(), &queries, None)?;
        s.rows(&queries, &oracle, false, &mut report.correct);
        p.rows(&queries, &oracle, true, &mut report.correct);
        report.ops.attempted += 2 * queries.len() as u64;
        stacked.push(s.wall.as_secs_f64());
        plain.push(p.wall.as_secs_f64());
    }
    let r = queries.len() as f64;
    let attempts = (stack.scheme.retry_attempts() - retries) as f64 / (STACK_PASSES as f64 * r);
    let overhead = median(&stacked) - median(&plain);
    report.metric("replicated.query_overhead_us", "us", overhead * 1e6 / r);
    let publish_overhead = stack.us_per_record - bare.us_per_record;
    report.metric("replicated.publish_overhead_us", "us", publish_overhead);
    report.metric("hostile.attempts_per_query", "count", 1.0 + attempts);

    let mut re_replicate = Vec::new();
    let mut placed = Vec::new();
    for epoch in 0..MAINTENANCE_EPOCHS {
        let m = traced_maintenance(spans, stack.scheme.as_mut(), inputs.churn_seed, epoch)?;
        report.ops.churn(&m.stats);
        re_replicate.push(ms(m.re_replicate));
        placed.push(m.placed.ok_or("the stack is not replicated")? as f64);
    }
    spans.exit(root, 1);
    report.metric("replicated.re_replicate_ms", "ms", median(&re_replicate));
    report.metric("replicated.copies_placed_per_pass", "count", mean(&placed));
    Ok(())
}

/// [`Maintenance::run`] inside an epoch span, its calls in child spans.
fn traced_maintenance(
    spans: &mut Spans,
    scheme: &mut dyn RangeScheme,
    seed: u64,
    epoch: u64,
) -> Res<Maintenance> {
    let id = spans.enter("churn.epoch", Some(epoch));
    let m = Maintenance::run(scheme, seed, epoch, Some(spans));
    spans.exit(id, 1);
    m
}

fn print_self_times(spans: &Spans) {
    println!("{:<30} {:>8} {:>10} {:>12} {:>12}", "span", "spans", "calls", "total_ms", "self_ms");
    for (name, (count, calls, total, own)) in spans.self_times() {
        println!("{name:<30} {count:>8} {calls:>10} {:>12.3} {:>12.3}", ms(total), ms(own));
    }
}
