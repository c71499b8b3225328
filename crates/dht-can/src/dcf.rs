//! DCF range queries: route to the median, then flood the range's image
//! (Andrzejak & Xu's directed controlled flooding).
//!
//! A query `[lo, hi]` maps to the Hilbert-curve segment of its normalised
//! endpoints; the segment's aligned-block decomposition gives the square
//! footprint the flood must cover. The query first routes greedily to the
//! zone owning the **median** value, then spreads over every zone whose
//! rectangle intersects the footprint:
//!
//! * [`FloodMode::Directed`] — each message piggybacks the set of zones
//!   already informed along its branch, so a zone never forwards to a zone
//!   its branch has seen (the "controlled" part; residual duplicates across
//!   independent branches remain, as in the original).
//! * [`FloodMode::Naive`] — forward to every intersecting neighbor
//!   unconditionally; receivers dedup. The `ablation_flood` experiment
//!   quantifies the difference.
//!
//! Delay = median-routing hops + flood eccentricity. Both grow with `√N`,
//! and the second also grows with the queried range — the behaviour the
//! Armada paper's Figures 5 and 7 contrast with PIRA.
//!
//! # Host cost
//!
//! A query costs host time in its output, not in `N`:
//!
//! * the ground-truth zone set comes from a pruned descent of the CAN
//!   split tree ([`CanNet::zones_intersecting`]): `O(|truth| · tree depth)`;
//! * a flood hop tests each neighbor against the sorted truth by binary
//!   search and, when directed, walks its branch's informed-set chain:
//!   `O(neighbors · chain length)`;
//! * informed sets live in a per-query parent-linked arena and every other
//!   buffer in the reusable scratch, so no hop allocates.

use crate::{CanError, CanNet, Rect};
use simnet::{Envelope, FaultPlan, NetModel, NodeId, QueryScratch, Sim, SimScratch};

/// Duplicate-suppression strategy for the flooding phase.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FloodMode {
    /// Directed controlled flooding: piggyback informed sets.
    Directed,
    /// Plain flooding with receiver-side dedup only.
    Naive,
}

/// Result of a DCF range query.
#[derive(Debug, Clone, PartialEq)]
pub struct DcfOutcome {
    /// Handles of records whose value lies in the queried range, ascending.
    pub results: Vec<u64>,
    /// Max hop depth among destination-zone deliveries (routing + flood).
    pub delay: u32,
    /// Critical-path virtual milliseconds under the query's [`NetModel`]:
    /// the largest, over destination zones, of the cheapest accumulated
    /// edge cost among the messages reaching that zone. Equals `delay`
    /// under the `unit` model.
    pub latency: u64,
    /// Total messages sent.
    pub messages: u64,
    /// Ground-truth destination zone count.
    pub dest_zones: usize,
    /// Destination zones that answered.
    pub reached_zones: usize,
    /// Whether every ground-truth zone answered.
    pub exact: bool,
}

#[derive(Debug, Clone, Copy)]
enum DcfMsg {
    /// Greedy routing toward the median point.
    Route,
    /// Flooding phase; `informed` is the link, in the query's
    /// [`InformedSets`], of the zones this branch already covered.
    Flood { informed: u32 },
}

/// One link of an informed set: `ids[start..end]` added to `parent`'s set.
#[derive(Debug, Clone, Copy)]
struct InformedLink {
    parent: Option<u32>,
    start: usize,
    end: usize,
}

/// The directed flood's informed sets as a per-query parent-linked arena.
/// A forwarding hop appends its targets once as a new link, and its whole
/// fan-out carries that link's index, so no hop copies, sorts or allocates
/// a set.
#[derive(Default)]
struct InformedSets {
    links: Vec<InformedLink>,
    ids: Vec<NodeId>,
}

impl InformedSets {
    fn clear(&mut self) {
        self.links.clear();
        self.ids.clear();
    }

    /// Adds the set `parent ∪ members`; returns its link index.
    fn push(&mut self, parent: Option<u32>, members: &[NodeId]) -> u32 {
        let start = self.ids.len();
        self.ids.extend_from_slice(members);
        let index = u32::try_from(self.links.len()).expect("fewer than 2³² flood hops per query");
        self.links.push(InformedLink { parent, start, end: self.ids.len() });
        index
    }

    /// Whether `zone` is in the set of `link`: walks the parent chain.
    fn contains(&self, link: u32, zone: NodeId) -> bool {
        let mut cur = Some(link);
        while let Some(l) = cur {
            let InformedLink { parent, start, end } = self.links[l as usize];
            if self.ids[start..end].contains(&zone) {
                return true;
            }
            cur = parent;
        }
        false
    }
}

/// DCF's reusable per-thread state, slotted into a [`QueryScratch`]. Every
/// field is reset at query start, so reuse is invisible to results,
/// metrics, and traces.
#[derive(Default)]
struct DcfScratch {
    sim: SimScratch<DcfMsg>,
    arrivals: Vec<(NodeId, u64)>,
    boxes: Vec<Rect>,
    targets: Vec<NodeId>,
    /// Ground truth: the live zones intersecting the query's image,
    /// ascending.
    truth: Vec<NodeId>,
    /// `visited[i]`: whether `truth[i]` has answered.
    visited: Vec<bool>,
    /// Matching handles, sorted and deduped once the flood ends.
    results: Vec<u64>,
    informed: InformedSets,
}

/// Executes a DCF range query from `origin` over `[lo, hi]`.
///
/// # Errors
///
/// Returns [`CanError::EmptyRange`] if `lo > hi` or either bound is NaN,
/// and [`CanError::NoSuchZone`] for dead origins.
pub fn range_query(
    net: &CanNet,
    origin: NodeId,
    lo: f64,
    hi: f64,
    seed: u64,
    mode: FloodMode,
) -> Result<DcfOutcome, CanError> {
    range_query_priced(net, origin, lo, hi, seed, mode, &FaultPlan::new(), &NetModel::unit())
}

/// [`range_query`] under a fault plan (message drops / crashed zones).
///
/// # Errors
///
/// Same conditions as [`range_query`].
pub fn range_query_with_faults(
    net: &CanNet,
    origin: NodeId,
    lo: f64,
    hi: f64,
    seed: u64,
    mode: FloodMode,
    faults: &FaultPlan,
) -> Result<DcfOutcome, CanError> {
    range_query_priced(net, origin, lo, hi, seed, mode, faults, &NetModel::unit())
}

/// The full-surface query: fault plan plus network cost model. Hop
/// metrics, message counts, and result sets are model-invariant (the cost
/// layer never perturbs event scheduling); only [`DcfOutcome::latency`]
/// moves with the model.
///
/// # Errors
///
/// Same conditions as [`range_query`].
#[allow(clippy::too_many_arguments)]
pub fn range_query_priced(
    net: &CanNet,
    origin: NodeId,
    lo: f64,
    hi: f64,
    seed: u64,
    mode: FloodMode,
    faults: &FaultPlan,
    model: &NetModel,
) -> Result<DcfOutcome, CanError> {
    let mut scratch = QueryScratch::new();
    range_query_priced_scratch(net, origin, lo, hi, seed, mode, faults, model, &mut scratch)
}

/// [`range_query_priced`] with a caller-owned scratch: batch drivers pass
/// one [`QueryScratch`] per worker thread so the simulator queues and flood
/// buffers are allocated once, not per query. Outcomes are bit-identical to
/// the scratch-free path.
///
/// # Errors
///
/// Same conditions as [`range_query`].
#[allow(clippy::too_many_arguments)]
pub fn range_query_priced_scratch(
    net: &CanNet,
    origin: NodeId,
    lo: f64,
    hi: f64,
    seed: u64,
    mode: FloodMode,
    faults: &FaultPlan,
    model: &NetModel,
    scratch: &mut QueryScratch,
) -> Result<DcfOutcome, CanError> {
    let (out, _) = query_impl(net, origin, lo, hi, seed, mode, faults, model, false, scratch)?;
    Ok(out)
}

/// [`range_query_priced`] with the simulator's trace sink attached: the
/// identical outcome plus the full virtual-time event stream — routing
/// hops, the route→flood local hand-off, flood hops, fault verdicts, and
/// one answer event per qualifying zone delivery. Tracing observes the
/// schedule; it never perturbs it.
///
/// # Errors
///
/// Same conditions as [`range_query`].
#[allow(clippy::too_many_arguments)]
pub fn range_query_traced(
    net: &CanNet,
    origin: NodeId,
    lo: f64,
    hi: f64,
    seed: u64,
    mode: FloodMode,
    faults: &FaultPlan,
    model: &NetModel,
) -> Result<(DcfOutcome, Vec<simnet::TraceRecord>), CanError> {
    let mut scratch = QueryScratch::new();
    let (out, records) =
        query_impl(net, origin, lo, hi, seed, mode, faults, model, true, &mut scratch)?;
    Ok((out, records.unwrap_or_default()))
}

#[allow(clippy::too_many_arguments)]
fn query_impl(
    net: &CanNet,
    origin: NodeId,
    lo: f64,
    hi: f64,
    seed: u64,
    mode: FloodMode,
    faults: &FaultPlan,
    model: &NetModel,
    trace: bool,
    scratch: &mut QueryScratch,
) -> Result<(DcfOutcome, Option<Vec<simnet::TraceRecord>>), CanError> {
    if lo.is_nan() || hi.is_nan() || lo > hi {
        return Err(CanError::EmptyRange { lo, hi });
    }
    net.zone(origin)?;
    let order = net.config().hilbert_order;

    let DcfScratch {
        sim: sim_scratch,
        arrivals,
        boxes,
        targets,
        truth,
        visited,
        results,
        informed,
    } = scratch.slot::<DcfScratch>();

    // The query's image: curve cells of the normalised range, decomposed
    // into aligned squares.
    let ta = crate::hilbert::cell_of(order, net.normalize(lo));
    let tb = crate::hilbert::cell_of(order, net.normalize(hi));
    boxes.clear();
    boxes.extend(
        crate::hilbert::interval_blocks(order, ta, tb).into_iter().map(|b| b.to_unit_rect(order)),
    );

    // Ground truth. Flood messages only reach live zones, so a zone's
    // position in `truth` answers both "does it intersect the image" and
    // "has it answered yet".
    net.zones_intersecting(boxes, truth);
    let truth: &[NodeId] = truth;
    visited.clear();
    visited.resize(truth.len(), false);

    // Median target point.
    let (mx, my) = net.point_of_value((lo + hi) / 2.0);

    let mut sim: Sim<DcfMsg> =
        Sim::from_scratch(seed, sim_scratch).with_faults_ref(faults).with_net(*model);
    if trace {
        sim = sim.with_trace(simnet::TraceSink::new());
    }
    sim.send(origin, origin, 0, DcfMsg::Route);

    // Flat arrival log reduced by a sorted post-pass (min cost per zone,
    // max over zones — order-independent, since scheduling stays on unit
    // ticks and the cost model rides along in the envelopes).
    arrivals.clear();
    results.clear();
    informed.clear();
    let mut reached = 0usize;
    let mut delay: u32 = 0;
    sim.run(|sim, env: Envelope<DcfMsg>| {
        let node = env.to;
        match env.payload {
            DcfMsg::Route => {
                let rect = net.zone(node).expect("live").rect();
                if rect.torus_dist2(mx, my) > 0.0 {
                    // Continue greedy routing.
                    let next = net
                        .neighbors(node)
                        .iter()
                        .copied()
                        .min_by(|&a, &b| {
                            let da = net.zone(a).expect("live").rect().torus_dist2(mx, my);
                            let db = net.zone(b).expect("live").rect().torus_dist2(mx, my);
                            da.partial_cmp(&db).expect("finite")
                        })
                        .expect("zones have neighbors");
                    sim.forward(&env, next, DcfMsg::Route);
                } else {
                    // Arrived at the median zone: switch to flooding by
                    // re-delivering locally as a flood message (carrying
                    // the routing phase's accumulated cost).
                    let root = informed.push(None, &[node]);
                    let flood = DcfMsg::Flood { informed: root };
                    sim.send_with_cost(node, node, env.hop, env.cost, flood);
                }
            }
            DcfMsg::Flood { informed: link } => {
                let Ok(i) = truth.binary_search(&node) else {
                    return;
                };
                arrivals.push((node, env.cost));
                sim.trace_answer(&env);
                // Repeat visits never re-forward: naive floods dedup at the
                // receiver, and a directed branch stops where another
                // branch already passed.
                if std::mem::replace(&mut visited[i], true) {
                    return;
                }
                reached += 1;
                delay = delay.max(env.hop);
                for &(v, h) in net.zone(node).expect("live").records() {
                    if v >= lo && v <= hi {
                        results.push(h);
                    }
                }
                targets.clear();
                targets.extend(net.neighbors(node).iter().copied().filter(|&n| {
                    truth.binary_search(&n).is_ok()
                        && (mode == FloodMode::Naive || !informed.contains(link, n))
                }));
                let next = match mode {
                    FloodMode::Directed => informed.push(Some(link), targets),
                    FloodMode::Naive => link,
                };
                for &t in targets.iter() {
                    sim.forward(&env, t, DcfMsg::Flood { informed: next });
                }
            }
        }
    });

    results.sort_unstable();
    results.dedup();
    let latency = simnet::last_first_arrival(arrivals);
    let records = sim.take_trace().map(simnet::TraceSink::into_records);
    let messages = sim.stats().messages_sent;
    sim.recycle(sim_scratch);
    Ok((
        DcfOutcome {
            results: results.clone(),
            delay,
            latency,
            messages,
            dest_zones: truth.len(),
            reached_zones: reached,
            exact: reached == truth.len(),
        },
        records,
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::CanConfig;
    use rand::Rng;

    fn build(n: usize, records: usize, seed: u64) -> CanNet {
        let mut rng = simnet::rng_from_seed(seed);
        let mut net = CanNet::build(CanConfig::default(), n, &mut rng).unwrap();
        for h in 0..records as u64 {
            let v: f64 = rng.gen_range(0.0..=1000.0);
            net.publish(v, h);
        }
        net
    }

    #[test]
    fn dcf_is_exact_on_random_queries() {
        let net = build(200, 300, 91);
        let mut rng = simnet::rng_from_seed(910);
        for q in 0..50 {
            let lo: f64 = rng.gen_range(0.0..900.0);
            let hi = lo + rng.gen_range(0.1..100.0);
            let origin = net.random_zone(&mut rng);
            let out = range_query(&net, origin, lo, hi, q, FloodMode::Directed).unwrap();
            assert!(out.exact, "query [{lo}, {hi}] missed zones");
            // Result set matches a direct scan.
            let mut expect: Vec<u64> = net
                .live_zones()
                .flat_map(|z| net.zone(z).unwrap().records().to_vec())
                .filter(|&(v, _)| v >= lo && v <= hi)
                .map(|(_, h)| h)
                .collect();
            expect.sort_unstable();
            assert_eq!(out.results, expect, "query [{lo}, {hi}]");
        }
    }

    #[test]
    fn naive_flood_is_also_exact_but_costlier() {
        let net = build(300, 100, 92);
        let mut rng = simnet::rng_from_seed(920);
        let mut directed_total = 0u64;
        let mut naive_total = 0u64;
        for q in 0..30 {
            let lo: f64 = rng.gen_range(0.0..800.0);
            let hi = lo + 150.0;
            let origin = net.random_zone(&mut rng);
            let d = range_query(&net, origin, lo, hi, q, FloodMode::Directed).unwrap();
            let n = range_query(&net, origin, lo, hi, q, FloodMode::Naive).unwrap();
            assert!(d.exact && n.exact);
            assert_eq!(d.results, n.results);
            directed_total += d.messages;
            naive_total += n.messages;
        }
        assert!(
            naive_total > directed_total,
            "naive {naive_total} should exceed directed {directed_total}"
        );
    }

    #[test]
    fn dcf_delay_grows_with_range_size() {
        // The contrast with PIRA: bigger ranges flood farther.
        let net = build(2000, 0, 93);
        let mut rng = simnet::rng_from_seed(930);
        let avg_delay = |size: f64, rng: &mut rand::rngs::SmallRng| {
            let mut total = 0u64;
            let queries = 40;
            for q in 0..queries {
                let lo = rng.gen_range(0.0..(1000.0 - size));
                let origin = net.random_zone(rng);
                let out = range_query(&net, origin, lo, lo + size, q, FloodMode::Directed).unwrap();
                total += u64::from(out.delay);
            }
            total as f64 / queries as f64
        };
        let small = avg_delay(2.0, &mut rng);
        let large = avg_delay(300.0, &mut rng);
        assert!(large > small + 5.0, "delay must grow with range: small {small}, large {large}");
    }

    #[test]
    fn dcf_point_query_is_a_pure_routing() {
        let net = build(150, 50, 94);
        let mut rng = simnet::rng_from_seed(940);
        let origin = net.random_zone(&mut rng);
        let out = range_query(&net, origin, 500.0, 500.0, 1, FloodMode::Directed).unwrap();
        assert_eq!(out.dest_zones, 1);
        assert!(out.exact);
    }

    #[test]
    fn dcf_rejects_empty_range() {
        // A NaN bound orders neither way, so it is empty too — never a
        // panic in the Hilbert decomposition, never an "exact" empty answer.
        let net = build(10, 0, 95);
        for mode in [FloodMode::Directed, FloodMode::Naive] {
            for (lo, hi) in [(5.0, 1.0), (10.0, f64::NAN), (f64::NAN, 10.0), (f64::NAN, f64::NAN)] {
                assert!(
                    matches!(
                        range_query(&net, 0, lo, hi, 1, mode),
                        Err(CanError::EmptyRange { .. })
                    ),
                    "{mode:?} [{lo}, {hi}] must be rejected"
                );
            }
        }
    }

    #[test]
    fn dest_zones_equal_the_linear_scan_in_both_modes() {
        let net = build(400, 100, 98);
        let order = net.config().hilbert_order;
        let mut rng = simnet::rng_from_seed(980);
        for q in 0..40 {
            let lo: f64 = rng.gen_range(0.0..1000.0);
            let hi = (lo + rng.gen_range(0.0..400.0f64)).min(1000.0);
            let ta = crate::hilbert::cell_of(order, net.normalize(lo));
            let tb = crate::hilbert::cell_of(order, net.normalize(hi));
            let boxes: Vec<Rect> = crate::hilbert::interval_blocks(order, ta, tb)
                .into_iter()
                .map(|b| b.to_unit_rect(order))
                .collect();
            let scan = net
                .live_zones()
                .filter(|&z| boxes.iter().any(|b| net.zone(z).unwrap().rect().intersects(b)))
                .count();
            let origin = net.random_zone(&mut rng);
            for mode in [FloodMode::Directed, FloodMode::Naive] {
                let out = range_query(&net, origin, lo, hi, q, mode).unwrap();
                assert_eq!(out.dest_zones, scan, "{mode:?} [{lo}, {hi}]");
                assert_eq!(out.reached_zones, scan, "{mode:?} [{lo}, {hi}]");
            }
        }
    }

    #[test]
    fn dcf_message_cost_comparable_to_destinations() {
        let net = build(500, 0, 96);
        let mut rng = simnet::rng_from_seed(960);
        for q in 0..30 {
            let lo: f64 = rng.gen_range(0.0..700.0);
            let origin = net.random_zone(&mut rng);
            let out = range_query(&net, origin, lo, lo + 200.0, q, FloodMode::Directed).unwrap();
            // Messages ≥ routing + (reached − 1); bounded by a small factor
            // of the destination count plus the routing path.
            assert!(out.messages as usize >= out.dest_zones.saturating_sub(1));
            assert!(
                (out.messages as f64) < 6.0 * out.dest_zones as f64 + 120.0,
                "messages {} for {} zones",
                out.messages,
                out.dest_zones
            );
        }
    }
}
