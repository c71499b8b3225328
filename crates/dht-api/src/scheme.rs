//! The unified range-query contract: one trait per query shape, one outcome
//! type, one error type — implemented by every scheme in the workspace.
//!
//! The Armada paper's whole argument (Table 1, Figures 5–8) is a
//! *comparison* of range-query schemes. These traits make that comparison a
//! first-class program structure: anything that can `publish` handles keyed
//! by an attribute value and answer `[lo, hi]` queries is a
//! [`RangeScheme`]; anything that indexes points and answers rectangle
//! queries is a [`MultiRangeScheme`]. Experiments, benches, and examples
//! drive all of them through trait objects, so adding a scheme to every
//! table is one `impl` plus one registry entry.

use simnet::NodeId;

/// The shared result of one range query, in the metric vocabulary the
/// paper's evaluation uses (§4.3.3) — common across all schemes.
///
/// Schemes with richer native outcomes (e.g. PIRA's [`QueryMetrics`]-backed
/// outcome or PHT's trie statistics) convert into this via their
/// `into_outcome()` and keep the native type for scheme-specific analysis.
///
/// [`QueryMetrics`]: https://docs.rs/armada
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RangeOutcome {
    /// Handles of records satisfying the query, ascending and deduplicated.
    pub results: Vec<u64>,
    /// Query delay: critical-path length in overlay hops under unit
    /// per-hop latency (the paper's delay metric).
    pub delay: u64,
    /// Query latency: critical-path virtual time in milliseconds under the
    /// scheme's [`NetModel`](crate::NetModel) — the time by which the last
    /// destination first learns of the query, accumulated edge by edge
    /// along the realized message paths. Under the `unit` model this is
    /// the hop metric again (`latency ≤ delay`, with equality everywhere
    /// except degenerate local RPCs some layered schemes charge a hop
    /// for); under `wan`/`cluster`/`straggler` it is where the paper's
    /// hop bounds are re-examined in wall-clock terms.
    pub latency: u64,
    /// Total protocol messages sent.
    pub messages: u64,
    /// Ground-truth destination count — peers/zones/leaves whose region
    /// intersects the query ("Destpeers").
    pub dest_peers: usize,
    /// Destinations that actually answered (`== dest_peers` fault-free).
    pub reached_peers: usize,
    /// Whether the answered set equals the ground truth exactly.
    pub exact: bool,
}

/// The cost triple every native scheme outcome reports — hop critical
/// path, [`NetModel`](crate::NetModel) critical path, and message total.
///
/// Exists so [`RangeOutcome::from_native`] is the *single* conversion
/// point from scheme-native outcomes: an adapter cannot forget (or
/// silently zero) the latency plumbing without the type signature
/// noticing.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct OutcomeCosts {
    /// Critical-path length in overlay hops ([`RangeOutcome::delay`]).
    pub hops: u64,
    /// Critical-path virtual milliseconds ([`RangeOutcome::latency`]).
    pub latency: u64,
    /// Total protocol messages ([`RangeOutcome::messages`]).
    pub messages: u64,
}

impl RangeOutcome {
    /// The shared adapter conversion: every scheme's `into_outcome()`
    /// funnels through here, so the hop/latency/messages/exactness
    /// plumbing lives in one place and cannot drift per scheme.
    pub fn from_native(
        results: Vec<u64>,
        costs: OutcomeCosts,
        dest_peers: usize,
        reached_peers: usize,
        exact: bool,
    ) -> RangeOutcome {
        RangeOutcome {
            results,
            delay: costs.hops,
            latency: costs.latency,
            messages: costs.messages,
            dest_peers,
            reached_peers,
            exact,
        }
    }
    /// `MesgRatio = Messages / Destpeers` (§4.3.3 metric (b)).
    pub fn mesg_ratio(&self) -> f64 {
        if self.dest_peers == 0 {
            0.0
        } else {
            self.messages as f64 / self.dest_peers as f64
        }
    }

    /// `IncreRatio = (Messages − log₂N) / (Destpeers − 1)` (§4.3.3 metric
    /// (c)); returns 0 when `Destpeers ≤ 1`.
    pub fn incre_ratio(&self, n_peers: usize) -> f64 {
        if self.dest_peers <= 1 {
            return 0.0;
        }
        (self.messages as f64 - (n_peers as f64).log2()) / (self.dest_peers as f64 - 1.0)
    }

    /// Fraction of ground-truth destinations reached.
    pub fn peer_recall(&self) -> f64 {
        if self.dest_peers == 0 {
            1.0
        } else {
            self.reached_peers as f64 / self.dest_peers as f64
        }
    }
}

/// Unified error for scheme construction and queries.
#[derive(Debug, Clone, PartialEq)]
pub enum SchemeError {
    /// The query origin is not a live peer.
    BadOrigin {
        /// The offending node id.
        origin: NodeId,
    },
    /// The queried range (or a per-attribute range) was empty.
    EmptyRange {
        /// Lower endpoint as supplied.
        lo: f64,
        /// Upper endpoint as supplied.
        hi: f64,
    },
    /// A point or rectangle had the wrong number of attributes.
    WrongArity {
        /// Expected attribute count.
        expected: usize,
        /// Supplied attribute count.
        got: usize,
    },
    /// No scheme registered under the requested name.
    UnknownScheme {
        /// The name looked up.
        name: String,
        /// `"single"` or `"multi"` — which registry was consulted.
        kind: &'static str,
    },
    /// No named workload in the [`WorkloadGen`](crate::WorkloadGen) catalog.
    UnknownWorkload {
        /// The name looked up.
        name: String,
    },
    /// No named plan in the [`ChurnPlan`](crate::ChurnPlan) catalog.
    UnknownChurnPlan {
        /// The name looked up.
        name: String,
    },
    /// No replica policy parses from the name (see
    /// [`ReplicaPolicy::named`](crate::ReplicaPolicy::named)).
    UnknownReplicaPolicy {
        /// The name looked up.
        name: String,
    },
    /// No network cost model in the [`NetModel`](crate::NetModel) catalog
    /// (see [`NET_MODEL_NAMES`](crate::NET_MODEL_NAMES)).
    UnknownNetModel {
        /// The name looked up.
        name: String,
    },
    /// No hostile fault plan parses from the name (see
    /// [`HOSTILE_PLAN_NAMES`](crate::HOSTILE_PLAN_NAMES) and the `plan/rN`
    /// retry-suffix grammar).
    UnknownHostilePlan {
        /// The name looked up.
        name: String,
    },
    /// A fault plan names a peer outside the scheme's id space — rejected
    /// instead of silently ignored, so a typo'd crash list cannot pass as
    /// a fault-free run.
    FaultPlanOutOfRange {
        /// The smallest offending node id.
        node: NodeId,
        /// The scheme's peer count (valid ids are `0..n`).
        n: usize,
    },
    /// The scheme does not support the requested capability (e.g. dynamics
    /// on a scheme whose substrate has no churn primitives).
    Unsupported {
        /// Registry name of the scheme.
        scheme: String,
        /// The capability asked for (`"dynamics"`, `"fault injection"`).
        feature: &'static str,
    },
    /// Scheme construction failed (wrapped native error message).
    Build(String),
    /// A query failed for a scheme-specific reason (wrapped message).
    Query(String),
}

impl std::fmt::Display for SchemeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SchemeError::BadOrigin { origin } => write!(f, "origin {origin} is not live"),
            SchemeError::EmptyRange { lo, hi } => write!(f, "empty range [{lo}, {hi}]"),
            SchemeError::WrongArity { expected, got } => {
                write!(f, "expected {expected} attributes, got {got}")
            }
            SchemeError::UnknownScheme { name, kind } => {
                write!(f, "no {kind}-attribute scheme registered as {name:?}")
            }
            SchemeError::UnknownWorkload { name } => {
                write!(f, "no workload named {name:?} in the catalog")
            }
            SchemeError::UnknownChurnPlan { name } => {
                write!(f, "no churn plan named {name:?} in the catalog")
            }
            SchemeError::UnknownReplicaPolicy { name } => {
                write!(
                    f,
                    "no replica policy named {name:?} (try none, successor-R, neighbor-set-R)"
                )
            }
            SchemeError::UnknownNetModel { name } => {
                write!(
                    f,
                    "no net model named {name:?} (catalog: {})",
                    simnet::NET_MODEL_NAMES.join(", ")
                )
            }
            SchemeError::UnknownHostilePlan { name } => {
                write!(
                    f,
                    "no hostile fault plan named {name:?} (catalog: {}; \
                     parameterized lossy-N / island-K; retry suffix /rN)",
                    simnet::HOSTILE_PLAN_NAMES.join(", ")
                )
            }
            SchemeError::FaultPlanOutOfRange { node, n } => {
                write!(f, "fault plan names peer {node} but the scheme has {n} peers (0..{n})")
            }
            SchemeError::Unsupported { scheme, feature } => {
                write!(f, "scheme {scheme:?} does not support {feature}")
            }
            SchemeError::Build(msg) => write!(f, "scheme build failed: {msg}"),
            SchemeError::Query(msg) => write!(f, "query failed: {msg}"),
        }
    }
}

impl std::error::Error for SchemeError {}

/// Rejects a range that holds no value: `lo > hi`, or a NaN bound (NaN
/// orders against nothing, so no value lies between it and the other
/// bound). Every adapter's query prologue calls this once per range.
///
/// # Errors
///
/// [`SchemeError::EmptyRange`] for the empty shapes above.
pub fn check_range(lo: f64, hi: f64) -> Result<(), SchemeError> {
    if lo > hi || lo.is_nan() || hi.is_nan() {
        return Err(SchemeError::EmptyRange { lo, hi });
    }
    Ok(())
}

/// A single-attribute range-query scheme: publish `(value, handle)` records,
/// answer `[lo, hi]` queries with a [`RangeOutcome`].
///
/// Implementations exist for all seven schemes of the paper's Table 1:
/// Armada/PIRA, the sequential-walk reference, DCF-CAN (directed and naive
/// flooding), PHT (over FissionE and over Chord), Skip Graph, Squid, and
/// SCRAP (the latter two over one-dimensional builds of their native
/// multi-attribute machinery).
///
/// # Thread safety
///
/// `Send + Sync` are supertraits: queries take `&self` and must not mutate
/// scheme state (all mutation happens through `publish` before measuring),
/// so one built instance can be shared by reference across the worker
/// threads of [`ParallelDriver`](crate::ParallelDriver). Implementations
/// satisfy this for free as long as they avoid interior mutability
/// (`RefCell`, `Cell`, un-synchronized statics) — which every scheme in the
/// workspace does; per-query randomness comes in through the `seed`
/// argument instead.
pub trait RangeScheme: Send + Sync {
    /// Registry name of the scheme (e.g. `"pira"`, `"dcf-can"`).
    fn scheme_name(&self) -> &'static str;

    /// Human-readable substrate description for comparison tables.
    fn substrate(&self) -> String;

    /// Degree figure for comparison tables: measured mean where the
    /// simulation has real neighbor tables, asymptotic label otherwise.
    fn degree(&self) -> String;

    /// Number of live peers/zones.
    fn node_count(&self) -> usize;

    /// Whether the scheme family also answers multi-attribute rectangles
    /// (Table 1's "multi-attr" column).
    fn supports_rect(&self) -> bool {
        false
    }

    /// Publishes a record: `handle` becomes retrievable by range queries
    /// covering `value`.
    ///
    /// # Errors
    ///
    /// Scheme-specific; uniform schemes never fail on in-domain values.
    fn publish(&mut self, value: f64, handle: u64) -> Result<(), SchemeError>;

    /// A uniformly random live query origin.
    fn random_origin(&self, rng: &mut rand::rngs::SmallRng) -> NodeId;

    /// Executes a range query over `[lo, hi]` from `origin`. `seed` feeds
    /// schemes with internal randomness (tie-breaking, simulation); pure
    /// schemes ignore it. Takes `&self`: queries never mutate scheme state,
    /// which is what lets [`ParallelDriver`](crate::ParallelDriver) share
    /// one instance across threads.
    ///
    /// # Errors
    ///
    /// [`SchemeError::BadOrigin`] for dead origins,
    /// [`SchemeError::EmptyRange`] for `lo > hi` or a NaN bound (see
    /// [`check_range`]), scheme-specific wraps otherwise.
    ///
    /// # Example
    ///
    /// The uniform call sequence (toy scheme hidden; every registered
    /// scheme answers the same way):
    ///
    /// ```
    /// # use dht_api::{RangeOutcome, RangeScheme, SchemeError};
    /// # struct One;
    /// # impl RangeScheme for One {
    /// #     fn scheme_name(&self) -> &'static str { "one" }
    /// #     fn substrate(&self) -> String { "local".into() }
    /// #     fn degree(&self) -> String { "0".into() }
    /// #     fn node_count(&self) -> usize { 1 }
    /// #     fn publish(&mut self, _: f64, _: u64) -> Result<(), SchemeError> { Ok(()) }
    /// #     fn random_origin(&self, _: &mut rand::rngs::SmallRng) -> usize { 0 }
    /// #     fn range_query(&self, _o: usize, lo: f64, hi: f64, _s: u64)
    /// #         -> Result<RangeOutcome, SchemeError> {
    /// #         if lo > hi { return Err(SchemeError::EmptyRange { lo, hi }); }
    /// #         Ok(RangeOutcome { results: vec![7], delay: 2, latency: 2, messages: 3,
    /// #             dest_peers: 1, reached_peers: 1, exact: true })
    /// #     }
    /// # }
    /// # let scheme = One;
    /// # let origin = 0;
    /// let outcome = scheme.range_query(origin, 10.0, 20.0, 0)?;
    /// assert!(outcome.exact);
    /// assert!(outcome.mesg_ratio() >= 1.0); // messages per useful peer
    /// assert!(matches!(
    ///     scheme.range_query(origin, 20.0, 10.0, 0), // lo > hi
    ///     Err(SchemeError::EmptyRange { .. })
    /// ));
    /// # Ok::<(), SchemeError>(())
    /// ```
    fn range_query(
        &self,
        origin: NodeId,
        lo: f64,
        hi: f64,
        seed: u64,
    ) -> Result<RangeOutcome, SchemeError>;

    /// [`range_query`](Self::range_query) with a caller-owned
    /// [`QueryScratch`](simnet::QueryScratch): drivers own one scratch per
    /// worker thread and pass it to every query on that thread, so
    /// simulation-backed schemes amortize their per-query setup
    /// allocations (event queues, routing buffers) across the batch.
    ///
    /// The contract is strict observational equivalence: for identical
    /// arguments the outcome must be bit-identical to
    /// [`range_query`](Self::range_query) — scratch reuse may only affect
    /// allocation counts, never results or metrics. The default delegates
    /// to [`range_query`](Self::range_query), which is always correct;
    /// schemes with reusable state override it.
    ///
    /// # Errors
    ///
    /// As [`range_query`](Self::range_query).
    fn range_query_scratch(
        &self,
        origin: NodeId,
        lo: f64,
        hi: f64,
        seed: u64,
        scratch: &mut simnet::QueryScratch,
    ) -> Result<RangeOutcome, SchemeError> {
        let _ = scratch;
        self.range_query(origin, lo, hi, seed)
    }

    /// Whether the scheme models per-query fault injection — i.e. whether
    /// [`range_query_with_faults`](Self::range_query_with_faults) is a
    /// real implementation rather than the refusing default. Overridden
    /// alongside it, so drivers and experiments discover support at
    /// runtime instead of hard-coding scheme lists.
    fn supports_fault_injection(&self) -> bool {
        false
    }

    /// Executes a range query under a fault plan (message drops, crashed
    /// responders, hostile loss/partition/rate-limit families). Schemes
    /// whose native engine models per-query faults (PIRA, DCF-CAN)
    /// override this; the default answers fault-free plans via
    /// [`range_query`](Self::range_query) and refuses real fault injection
    /// honestly.
    ///
    /// # Errors
    ///
    /// [`SchemeError::Unsupported`] from the default implementation when
    /// the plan actually injects faults; otherwise as
    /// [`range_query`](Self::range_query).
    fn range_query_with_faults(
        &self,
        origin: NodeId,
        lo: f64,
        hi: f64,
        seed: u64,
        faults: &simnet::FaultPlan,
    ) -> Result<RangeOutcome, SchemeError> {
        if faults.is_fault_free() {
            return self.range_query(origin, lo, hi, seed);
        }
        Err(SchemeError::Unsupported {
            scheme: self.scheme_name().to_string(),
            feature: "fault injection",
        })
    }

    /// Whether [`trace_query`](Self::trace_query) is a real implementation
    /// rather than the refusing default. All registry schemes support it —
    /// simulation-backed engines (PIRA, DCF-CAN) with real event streams,
    /// analytic schemes with honestly-labeled modeled decompositions.
    fn supports_tracing(&self) -> bool {
        false
    }

    /// Executes a range query *and* returns its observability record: the
    /// structured event stream plus the causal cost tree, whose
    /// [`total`](crate::CostNode::total) exactly reproduces the outcome's
    /// `delay`/`latency`/`messages`. The outcome is identical to what
    /// [`range_query`](Self::range_query) returns for the same arguments —
    /// tracing observes, never perturbs.
    ///
    /// # Errors
    ///
    /// [`SchemeError::Unsupported`] from the default implementation;
    /// otherwise as [`range_query`](Self::range_query).
    fn trace_query(
        &self,
        origin: NodeId,
        lo: f64,
        hi: f64,
        seed: u64,
    ) -> Result<(RangeOutcome, crate::QueryTrace), SchemeError> {
        let _ = (origin, lo, hi, seed);
        Err(SchemeError::Unsupported { scheme: self.scheme_name().to_string(), feature: "tracing" })
    }

    /// [`trace_query`](Self::trace_query) under a fault plan. The default
    /// answers fault-free plans via `trace_query` and refuses real fault
    /// injection; simulation-backed schemes override it so lost edges show
    /// up as [`FaultVerdict`](simnet::TraceEvent::FaultVerdict) events.
    ///
    /// # Errors
    ///
    /// [`SchemeError::Unsupported`] when the plan injects faults and the
    /// scheme has no traced fault path; otherwise as
    /// [`trace_query`](Self::trace_query).
    fn trace_query_with_faults(
        &self,
        origin: NodeId,
        lo: f64,
        hi: f64,
        seed: u64,
        faults: &simnet::FaultPlan,
    ) -> Result<(RangeOutcome, crate::QueryTrace), SchemeError> {
        if faults.is_fault_free() {
            return self.trace_query(origin, lo, hi, seed);
        }
        Err(SchemeError::Unsupported {
            scheme: self.scheme_name().to_string(),
            feature: "traced fault injection",
        })
    }

    /// Cumulative retry attempts this scheme has spent beyond each query's
    /// first try — non-zero only on the [`Hostile`](crate::Hostile)
    /// wrapper, whose drivers read the delta around a batch to account
    /// retry traffic in the metrics registry.
    fn retry_attempts(&self) -> u64 {
        0
    }

    /// The scheme's dynamics capability: `Some` when the substrate has
    /// churn primitives (join/leave/crash/stabilize), `None` otherwise.
    /// Drivers and experiments discover support at runtime through this
    /// hook — no hard-coded scheme lists.
    fn as_dynamic(&mut self) -> Option<&mut dyn crate::DynamicScheme> {
        None
    }

    /// The scheme's replica-routing capability: `Some` when the scheme can
    /// tell the replication layer where copies belong and what a point
    /// fetch costs ([`ReplicaRouting`](crate::ReplicaRouting)), `None`
    /// otherwise. The [`Replicated`](crate::Replicated) wrapper refuses
    /// construction over schemes without it.
    fn as_replica_routing(&self) -> Option<&dyn crate::ReplicaRouting> {
        None
    }

    /// The scheme's replication control surface: `Some` only on the
    /// [`Replicated`](crate::Replicated) wrapper. Drivers use this to run
    /// [`re_replicate`](crate::ReplicationControl::re_replicate) after
    /// membership events and report the repair traffic per epoch.
    fn as_replicated(&mut self) -> Option<&mut dyn crate::ReplicationControl> {
        None
    }

    /// The scheme's hostile-network control surface: `Some` only on the
    /// [`Hostile`](crate::Hostile) wrapper. Epoch drivers use it to advance
    /// the wrapped fault plan's partition epoch between query epochs —
    /// serially, between the sharded batches, so the epoch a query sees is
    /// a pure function of its global index.
    fn as_hostile(&mut self) -> Option<&mut dyn crate::HostileControl> {
        None
    }
}

/// A multi-attribute range-query scheme: publish points, answer
/// hyper-rectangle queries.
///
/// Implemented by Armada/MIRA, Squid, and SCRAP.
///
/// # Thread safety
///
/// `Send + Sync` are supertraits under the same contract as
/// [`RangeScheme`]: `rect_query` takes `&self`, so built instances shard
/// across [`ParallelDriver`](crate::ParallelDriver) threads by reference.
pub trait MultiRangeScheme: Send + Sync {
    /// Registry name of the scheme (e.g. `"mira"`, `"squid"`).
    fn scheme_name(&self) -> &'static str;

    /// Human-readable substrate description for comparison tables.
    fn substrate(&self) -> String;

    /// Degree figure for comparison tables.
    fn degree(&self) -> String;

    /// Number of live peers.
    fn node_count(&self) -> usize;

    /// Number of attributes the scheme was built with.
    fn dims(&self) -> usize;

    /// Publishes a record at an attribute point.
    ///
    /// # Errors
    ///
    /// [`SchemeError::WrongArity`] when `point.len() != dims()`.
    fn publish_point(&mut self, point: &[f64], handle: u64) -> Result<(), SchemeError>;

    /// A uniformly random live query origin.
    fn random_origin(&self, rng: &mut rand::rngs::SmallRng) -> NodeId;

    /// Executes a rectangle query (one `(lo, hi)` per attribute).
    ///
    /// # Errors
    ///
    /// [`SchemeError::WrongArity`] on arity mismatch,
    /// [`SchemeError::EmptyRange`] for an empty per-attribute range,
    /// scheme-specific wraps otherwise.
    fn rect_query(
        &self,
        origin: NodeId,
        rect: &[(f64, f64)],
        seed: u64,
    ) -> Result<RangeOutcome, SchemeError>;

    /// [`rect_query`](Self::rect_query) with a caller-owned
    /// [`QueryScratch`](simnet::QueryScratch), under the same strict
    /// observational-equivalence contract as
    /// [`RangeScheme::range_query_scratch`]: outcomes must be bit-identical
    /// to [`rect_query`](Self::rect_query); only allocation counts may
    /// differ. The default delegates to [`rect_query`](Self::rect_query).
    ///
    /// # Errors
    ///
    /// As [`rect_query`](Self::rect_query).
    fn rect_query_scratch(
        &self,
        origin: NodeId,
        rect: &[(f64, f64)],
        seed: u64,
        scratch: &mut simnet::QueryScratch,
    ) -> Result<RangeOutcome, SchemeError> {
        let _ = scratch;
        self.rect_query(origin, rect, seed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn outcome(messages: u64, dest: usize, reached: usize) -> RangeOutcome {
        RangeOutcome::from_native(
            vec![],
            OutcomeCosts { hops: 3, latency: 3, messages },
            dest,
            reached,
            dest == reached,
        )
    }

    #[test]
    fn ratios_match_paper_definitions() {
        assert_eq!(outcome(20, 10, 10).mesg_ratio(), 2.0);
        assert_eq!(outcome(20, 0, 0).mesg_ratio(), 0.0);
        // (20 - log2(1024)) / (6 - 1) = 2.
        assert_eq!(outcome(20, 6, 6).incre_ratio(1024), 2.0);
        assert_eq!(outcome(20, 1, 1).incre_ratio(1024), 0.0);
        assert_eq!(outcome(5, 4, 3).peer_recall(), 0.75);
        assert_eq!(outcome(5, 0, 0).peer_recall(), 1.0);
    }

    #[test]
    fn errors_render_usefully() {
        let e = SchemeError::UnknownScheme { name: "nope".into(), kind: "single" };
        assert!(e.to_string().contains("nope"));
        assert!(SchemeError::EmptyRange { lo: 5.0, hi: 1.0 }.to_string().contains("[5, 1]"));
        assert!(SchemeError::WrongArity { expected: 2, got: 3 }.to_string().contains("2"));
    }
}
