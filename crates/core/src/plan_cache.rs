//! A shape-keyed plan cache for the GChQ pipeline: repeated query shapes
//! under a *changed price vector* pay only a warm-start min-cut delta.
//!
//! ## What is cached
//!
//! Pricing a generalized chain query runs normalization (Steps 1–3) and
//! then one min-cut per Step 3 branch. Every piece of that work except the
//! final flow values is **price-point-independent up to edge capacities**:
//! the reduced branch problems, the Step 4 networks, and the edge ↔ view
//! correspondence depend only on the query shape, the catalog, and the
//! instance. A [`PlanCache`] therefore keys entries by the canonicalized
//! CQ skeleton (variables renamed by first occurrence — see [`shape_key`])
//! and stores, per Step 3 branch, the built [`FlowGraph`], its
//! [`ResidualState`], and a map from *original* price-list views to the
//! graph edge whose capacity they control.
//!
//! ## Repricing protocol
//!
//! On a cache hit the current price list is diffed against the entry's
//! snapshot over the query's **footprint** (every attribute of every
//! mentioned relation — non-cut views in a mentioned column are still
//! price-relevant):
//!
//! * no change — the cached quote is returned verbatim;
//! * a changed view maps to graph edges and stays finite — each affected
//!   branch gets [`qbdp_flow::DinicArena::warm_start`] capacity repairs,
//!   branch base costs are re-summed from their recorded cover views, and
//!   the quote is reassembled by the same branch-minimum rule the cold
//!   path uses;
//! * a change touches a *transformed* attribute (Step 2 collapsed its
//!   relation, or the build recorded a non-invertible provenance), or a
//!   price crosses finite ↔ ∞ (which can flip Step 3's cover gating or the
//!   edge's presence in the network) — the entry is evicted and rebuilt
//!   cold.
//!
//! Warm and cold agree **bit-identically**: capacities after patching
//! equal the capacities a cold rebuild would assign, the max-flow value is
//! unique, and the reported cut is the canonical (residual-reachable)
//! minimum cut, identical for every maximum flow.
//!
//! Only exact, unlimited-budget quotes are cached — degraded quotes
//! depend on budget state that is not part of the shape key, so a
//! budgeted quote prices cold through [`Pricer::price_cq_within`].
//! Queries outside the pure chain-flow path (boolean, disconnected,
//! cycles, NP-hard classes) delegate to [`Pricer::price_cq`] and bypass
//! the cache.
//!
//! ## Sharding
//!
//! Entries live in 16 independently locked maps, selected by the
//! shape key's hash (the layout of the market's quote cache). A quote
//! holds only its own shape's shard lock (audit name `plan`), and only
//! while it prices that one shape, so batch-pool workers pricing
//! different shapes rarely contend. Flow scratch comes from the
//! thread's Dinic arena, shared with cold pricing.

use crate::budget::{Budget, QuoteQuality};
use crate::chain::graph::{ChainGraph, TupleEdgeMode};
use crate::chain::price::with_arena;
use crate::dichotomy::QueryClass;
use crate::error::PricingError;
use crate::gchq::reorder_to_gchq;
use crate::money::Price;
use crate::normalize::{step1_predicates, step2_repeated, step3_hanging, Problem, Provenance};
use crate::pricer::{classify_traced, Pricer, PricingMethod, Quote};
use parking_lot::Mutex;
use qbdp_catalog::fxhash::FxHasher;
use qbdp_catalog::{AttrRef, Catalog, FxHashMap, FxHashSet, RelId, Value};
use qbdp_determinacy::selection::SelectionView;
use qbdp_flow::{EdgeId, FlowGraph, NodeId, ResidualState, Unmetered};
use qbdp_query::ast::{ConjunctiveQuery, Term, Var};
use qbdp_query::chain::ChainQuery;
use std::hash::Hasher;

/// Number of independently locked shards. Must be a power of two (shard
/// selection masks the key hash).
const SHARDS: usize = 16;

/// Counters describing what the cache has been doing (for benches and
/// tests; not part of any equivalence argument).
#[derive(Clone, Copy, Debug, Default)]
pub struct PlanStats {
    /// Hits with an unchanged footprint: cached quote returned verbatim.
    pub hits: u64,
    /// Shapes never seen before (cold build).
    pub misses: u64,
    /// Hits repriced through warm-start capacity repair.
    pub warm_reprices: u64,
    /// Warm repairs that exceeded their fuel fraction and re-solved cold
    /// inside the flow layer (still cheaper than a full rebuild).
    pub flow_fallbacks: u64,
    /// Entries discarded because a change was not warm-patchable.
    pub evictions: u64,
}

impl PlanStats {
    // The per-instance tallies (asserted exactly by tests) and the global
    // registry are fed from one increment site each, so the two views
    // can never diverge.

    fn hit(&mut self) {
        self.hits += 1;
        qbdp_obs::record(qbdp_obs::Ctr::PlanCacheHits, 1);
    }

    fn miss(&mut self) {
        self.misses += 1;
        qbdp_obs::record(qbdp_obs::Ctr::PlanCacheMisses, 1);
    }

    fn warm_reprice(&mut self) {
        self.warm_reprices += 1;
        qbdp_obs::record(qbdp_obs::Ctr::PlanCacheWarmReprices, 1);
    }

    fn flow_fallback(&mut self) {
        self.flow_fallbacks += 1;
        qbdp_obs::record(qbdp_obs::Ctr::PlanCacheFlowFallbacks, 1);
    }

    fn evict(&mut self, n: u64) {
        self.evictions += n;
        qbdp_obs::record(qbdp_obs::Ctr::PlanCacheEvictions, n);
    }

    /// Field-wise sum (the cache's total over its shards).
    fn plus(self, o: PlanStats) -> PlanStats {
        PlanStats {
            hits: self.hits + o.hits,
            misses: self.misses + o.misses,
            warm_reprices: self.warm_reprices + o.warm_reprices,
            flow_fallbacks: self.flow_fallbacks + o.flow_fallbacks,
            evictions: self.evictions + o.evictions,
        }
    }
}

/// One Step 3 branch with its solved network kept warm.
struct CachedBranch {
    /// Reduced-view → original-view mapping of the branch problem.
    provenance: Provenance,
    /// Original views bought by the branch's full covers; the branch base
    /// cost is re-summed from these under the current price list.
    base_views: Vec<SelectionView>,
    /// The Step 4 network (capacities mutated in place on reprice).
    graph: FlowGraph,
    s: NodeId,
    t: NodeId,
    /// Forward edge id → reduced view (finite-priced at build time).
    view_edges: FxHashMap<EdgeId, SelectionView>,
    /// Original view → the edge whose capacity is that view's price.
    edge_of_original: FxHashMap<SelectionView, EdgeId>,
    /// The persisted flow, warm-started across reprices.
    state: ResidualState,
}

/// A cached plan for one query shape.
struct PlanEntry {
    /// Relations the query mentions (entries die when one is inserted to).
    mentioned: Vec<RelId>,
    /// Every attribute of every mentioned relation (original coordinates):
    /// the set of price points the quote can depend on.
    footprint: Vec<AttrRef>,
    /// Attributes whose price changes cannot be patched onto the cached
    /// networks (Step 2 min-merges, non-invertible provenance): any change
    /// here evicts.
    transformed: FxHashSet<AttrRef>,
    /// The footprint's prices the cached state was solved under, one per
    /// view in footprint × column order.
    prices: Vec<Price>,
    branches: Vec<CachedBranch>,
    /// The quote those branches produced (returned verbatim while the
    /// footprint prices are unchanged).
    quote: Quote,
}

/// A footprint price that moved since an entry's snapshot.
struct Change {
    /// Position in the entry's price snapshot.
    at: usize,
    view: SelectionView,
    old: Price,
    new: Price,
}

/// One lock's worth of the cache.
#[derive(Default)]
struct Shard {
    map: FxHashMap<String, PlanEntry>,
    stats: PlanStats,
}

/// The plan cache: one per market (or per pricing session), shared by
/// every thread that prices through it.
pub struct PlanCache {
    shards: [Mutex<Shard>; SHARDS],
}

impl Default for PlanCache {
    fn default() -> Self {
        PlanCache {
            shards: std::array::from_fn(|_| Mutex::new(Shard::default())),
        }
    }
}

/// Canonical shape key of a CQ: variables renamed by first occurrence
/// across head, atoms, then predicates, so any two queries identical up to
/// variable renaming share a key. Constants, predicates, relation ids, and
/// atom order are all part of the key; the query *name* is not (prices are
/// name-independent).
pub fn shape_key(q: &ConjunctiveQuery) -> String {
    use std::fmt::Write as _;
    let mut ids: FxHashMap<Var, usize> = FxHashMap::default();
    let id_of = |v: Var, ids: &mut FxHashMap<Var, usize>| -> usize {
        let next = ids.len();
        *ids.entry(v).or_insert(next)
    };
    let mut key = String::new();
    key.push('h');
    // audit: bounded(one pass over the head variables of one query)
    for &v in q.head() {
        let _ = write!(key, ",{}", id_of(v, &mut ids));
    }
    // audit: bounded(one pass over the query's atoms)
    for a in q.atoms() {
        let _ = write!(key, "|r{}", a.rel.0);
        // audit: bounded(one slot per term of one atom)
        for t in &a.terms {
            match t {
                Term::Var(v) => {
                    let _ = write!(key, ",v{}", id_of(*v, &mut ids));
                }
                Term::Const(c) => {
                    let _ = write!(key, ",c{c:?}");
                }
            }
        }
    }
    // audit: bounded(one pass over the query's predicates)
    for p in q.preds() {
        let _ = write!(key, "|p{}:{:?}", id_of(p.var, &mut ids), p.pred);
    }
    key
}

/// Every attribute of every relation the query mentions, in original
/// catalog coordinates — the full set of price points (and columns) the
/// query's price can depend on. The market layer uses the same footprint
/// for column-scoped quote-cache invalidation.
pub fn query_footprint(catalog: &Catalog, q: &ConjunctiveQuery) -> Vec<AttrRef> {
    let mut out = Vec::new();
    for rel in mentioned_rels(q) {
        let arity = catalog.schema().relation(rel).arity();
        // audit: bounded(one slot per attribute of a mentioned relation)
        for pos in 0..arity {
            out.push(AttrRef::new(rel, pos as u32));
        }
    }
    out
}

/// Relations the query mentions, sorted and deduplicated.
fn mentioned_rels(q: &ConjunctiveQuery) -> Vec<RelId> {
    let mut rels: Vec<RelId> = q.atoms().iter().map(|a| a.rel).collect();
    rels.sort();
    rels.dedup();
    rels
}

/// Every footprint view, in the footprint × column order of a
/// [`PlanEntry`]'s price snapshot.
fn footprint_views<'a>(
    catalog: &'a Catalog,
    footprint: &'a [AttrRef],
) -> impl Iterator<Item = (AttrRef, &'a Value)> + 'a {
    footprint
        .iter()
        .flat_map(move |&attr| catalog.column(attr).iter().map(move |v| (attr, v)))
}

/// Attributes whose prices feed Step 2 min-merges: every attribute of a
/// relation whose atom repeats a variable. The merged price is the
/// *minimum* of two originals, so the losing view is invisible in
/// provenance and a change to it cannot be patched — it must evict.
fn step2_transformed(catalog: &Catalog, q: &ConjunctiveQuery) -> FxHashSet<AttrRef> {
    let mut out = FxHashSet::default();
    for a in q.atoms() {
        let vars: Vec<Option<Var>> = a
            .terms
            .iter()
            .map(|t| match t {
                Term::Var(v) => Some(*v),
                Term::Const(_) => None,
            })
            .collect();
        let repeats = vars
            .iter()
            .enumerate()
            .any(|(i, v)| v.is_some() && vars[i + 1..].contains(v));
        if repeats {
            let arity = catalog.schema().relation(a.rel).arity();
            // audit: bounded(one slot per attribute of the repeated-var relation)
            for pos in 0..arity {
                out.insert(AttrRef::new(a.rel, pos as u32));
            }
        }
    }
    out
}

impl PlanCache {
    /// An empty cache.
    pub fn new() -> Self {
        PlanCache::default()
    }

    fn shard(&self, key: &str) -> &Mutex<Shard> {
        let mut h = FxHasher::default();
        h.write(key.as_bytes());
        &self.shards[(h.finish() as usize) & (SHARDS - 1)]
    }

    /// Cache statistics, summed over every shard.
    // audit: holds-lock(plan)
    pub fn stats(&self) -> PlanStats {
        self.shards
            .iter()
            .fold(PlanStats::default(), |acc, s| acc.plus(s.lock().stats))
    }

    /// Drop every entry (e.g. after recovery replay).
    // audit: holds-lock(plan)
    pub fn clear(&self) {
        // audit: bounded(one pass over the SHARDS shards)
        for s in &self.shards {
            s.lock().map.clear();
        }
    }

    /// Drop entries mentioning any of `rels` — required after an insert,
    /// because cached partial answers and networks embed the instance.
    // audit: holds-lock(plan)
    pub fn invalidate_rels(&self, rels: &[RelId]) {
        // audit: bounded(one pass over the SHARDS shards)
        for s in &self.shards {
            let mut shard = s.lock();
            let before = shard.map.len();
            shard
                .map
                .retain(|_, e| !e.mentioned.iter().any(|r| rels.contains(r)));
            let evicted = (before - shard.map.len()) as u64;
            shard.stats.evict(evicted);
        }
    }

    /// Price `q` exactly (unlimited budget), reusing a cached plan for its
    /// shape when one exists. The result is bit-identical to
    /// [`Pricer::price_cq`] — prices, views, method, class, quality — which
    /// the `incremental_equiv` differential battery enforces. Holds the
    /// shape's shard lock for the whole call and no other plan lock.
    // audit: holds-lock(plan)
    pub fn quote(&self, pricer: &Pricer, q: &ConjunctiveQuery) -> Result<Quote, PricingError> {
        crate::fault::maybe_panic();
        let class = classify_traced(q);
        if class != QueryClass::GeneralizedChain || q.atoms().is_empty() || q.is_boolean() {
            return pricer.price_classified(q, class, &Budget::unlimited());
        }
        let key = shape_key(q);
        let mut shard = self.shard(&key).lock();
        let shard = &mut *shard;
        // Entries are taken out of the map for mutation; a build failure
        // (or a panic) simply leaves the shape uncached, exactly like a
        // cold error.
        if let Some(mut entry) = shard.map.remove(&key) {
            let mut span = qbdp_obs::trace::span("plan_cache");
            let changed = entry.diff(pricer);
            span.n(changed.len() as u64);
            if changed.is_empty() {
                shard.stats.hit();
                span.detail("hit");
                let quote = entry.quote.clone();
                shard.map.insert(key, entry);
                return Ok(quote);
            }
            let patchable = changed.iter().all(|c| {
                c.old.is_finite() && c.new.is_finite() && !entry.transformed.contains(&c.view.attr)
            });
            if patchable {
                span.detail("warm");
                let quote = entry.reprice(pricer, &changed, &mut shard.stats)?;
                shard.stats.warm_reprice();
                shard.map.insert(key, entry);
                return Ok(quote);
            }
            shard.stats.evict(1);
            span.detail("evict");
        } else {
            shard.stats.miss();
            qbdp_obs::trace::event("plan_cache", "miss");
        }
        let build_span = qbdp_obs::trace::span("plan_build");
        let (entry, quote) = PlanEntry::build(pricer, q, class)?;
        drop(build_span);
        shard.map.insert(key, entry);
        Ok(quote)
    }
}

impl PlanEntry {
    /// Cold-build an entry: the GChQ pipeline with every branch's network
    /// and residual state captured for later warm starts. Emits the cold
    /// path's `normalize` and `flow_solve` spans.
    fn build(
        pricer: &Pricer,
        q: &ConjunctiveQuery,
        class: QueryClass,
    ) -> Result<(PlanEntry, Quote), PricingError> {
        let catalog = pricer.catalog();
        let ordered = reorder_to_gchq(q).ok_or_else(|| {
            PricingError::NotApplicable(format!(
                "query {} classified GChQ but no chain order found",
                q.name()
            ))
        })?;
        let mut transformed = step2_transformed(catalog, &ordered);
        let problem = Problem::new(
            catalog.clone(),
            pricer.instance().clone(),
            pricer.prices().clone(),
            ordered,
        );
        let mut norm_span = qbdp_obs::trace::span("normalize");
        let problem = step1_predicates::apply(problem)?;
        let problem = step2_repeated::apply(problem)?;
        let branches = step3_hanging::branches(problem)?;
        norm_span.detail("steps_1_3");
        norm_span.n(branches.len() as u64);
        drop(norm_span);
        let mut cached: Vec<CachedBranch> = Vec::with_capacity(branches.len());
        let mut best = Price::INFINITE;
        let mut best_views: Vec<SelectionView> = Vec::new();
        for branch in branches {
            let mut flow_span = qbdp_obs::trace::span("flow_solve");
            let chain = ChainQuery::from_cq(&branch.problem.query)
                .map_err(|e| PricingError::NotApplicable(e.to_string()))?;
            let pa = chain.partial_answers(&branch.problem.catalog, &branch.problem.instance);
            let ChainGraph {
                graph,
                s,
                t,
                view_edges,
            } = ChainGraph::build(
                &branch.problem.catalog,
                &branch.problem.prices,
                &chain,
                &pa,
                TupleEdgeMode::Hub,
            );
            let flow = with_arena(|a| a.max_flow(&graph, s, t, &Unmetered))
                .map_err(|_| PricingError::Internal("unmetered max flow interrupted".into()))?;
            flow_span.detail("done");
            drop(flow_span);
            let state = ResidualState::from(flow);
            // Invert view edges back to original price points. Anything
            // not invertible one-to-one at an equal price is marked
            // transformed so changes there evict instead of mispatching.
            let mut edge_of_original: FxHashMap<SelectionView, EdgeId> = FxHashMap::default();
            for (&e, view) in &view_edges {
                let originals = branch.problem.provenance.resolve(view);
                match originals.as_slice() {
                    // Empty: a Step 3 freebie — capacity is pinned at zero
                    // regardless of the original prices, so changes to
                    // them are no-ops for this branch.
                    [] => {}
                    [orig] if pricer.prices().get(orig) == branch.problem.prices.get(view) => {
                        if edge_of_original.insert(orig.clone(), e).is_some() {
                            transformed.insert(orig.attr);
                        }
                    }
                    many => {
                        for orig in many {
                            transformed.insert(orig.attr);
                        }
                    }
                }
            }
            debug_assert_eq!(
                branch.base_cost,
                branch.base_views.iter().fold(Price::ZERO, |acc, v| acc
                    .saturating_add(pricer.prices().get(v))),
                "cover views must re-sum to the branch base cost"
            );
            let cb = CachedBranch {
                provenance: branch.problem.provenance,
                base_views: branch.base_views,
                graph,
                s,
                t,
                view_edges,
                edge_of_original,
                state,
            };
            cb.offer(branch.base_cost, &mut best, &mut best_views);
            cached.push(cb);
        }
        let quote = chain_flow_quote(best, best_views, class);
        let footprint = query_footprint(catalog, q);
        let prices = footprint_views(catalog, &footprint)
            .map(|(attr, v)| pricer.prices().get_at(attr, v))
            .collect();
        let entry = PlanEntry {
            mentioned: mentioned_rels(q),
            footprint,
            transformed,
            prices,
            branches: cached,
            quote: quote.clone(),
        };
        Ok((entry, quote))
    }

    /// Footprint price points whose value differs between the snapshot and
    /// the pricer's current list.
    fn diff(&self, pricer: &Pricer) -> Vec<Change> {
        let current = pricer.prices();
        // audit: bounded(footprint × column scan, once per cache hit)
        footprint_views(pricer.catalog(), &self.footprint)
            .zip(&self.prices)
            .enumerate()
            .filter_map(|(at, ((attr, value), &old))| {
                let new = current.get_at(attr, value);
                (old != new).then(|| Change {
                    at,
                    view: SelectionView::new(attr, value.clone()),
                    old,
                    new,
                })
            })
            .collect()
    }

    /// Warm-reprice under `changed` footprint prices (all finite → finite,
    /// none transformed).
    fn reprice(
        &mut self,
        pricer: &Pricer,
        changed: &[Change],
        stats: &mut PlanStats,
    ) -> Result<Quote, PricingError> {
        let prices = pricer.prices();
        let mut best = Price::INFINITE;
        let mut best_views: Vec<SelectionView> = Vec::new();
        for branch in &mut self.branches {
            let patches: Vec<(EdgeId, u64)> = changed
                .iter()
                .filter_map(|c| {
                    branch
                        .edge_of_original
                        .get(&c.view)
                        .map(|&e| (e, c.new.as_capacity()))
                })
                .collect();
            if !patches.is_empty() {
                let out = with_arena(|a| {
                    a.warm_start(
                        &mut branch.graph,
                        branch.s,
                        branch.t,
                        &mut branch.state,
                        &patches,
                        &Unmetered,
                    )
                })
                .map_err(|_| PricingError::Internal("unmetered warm start interrupted".into()))?;
                if out.fell_back {
                    stats.flow_fallback();
                }
            }
            // Base cost re-summed from the recorded cover views: equal to
            // the cold pipeline's accumulated cover prices because every
            // recorded view maps through identity or shifted-identity
            // provenance at an unchanged-structure price (Step 2 merges
            // were ruled out by the transformed-attr eviction).
            let base_cost = branch
                .base_views
                .iter()
                .fold(Price::ZERO, |acc, v| acc.saturating_add(prices.get(v)));
            branch.offer(base_cost, &mut best, &mut best_views);
        }
        let quote = chain_flow_quote(best, best_views, self.quote.class.clone());
        // audit: bounded(one pass over the changes the diff found)
        for c in changed {
            if let Some(p) = self.prices.get_mut(c.at) {
                *p = c.new;
            }
        }
        self.quote = quote.clone();
        Ok(quote)
    }
}

impl CachedBranch {
    /// Offer this branch's total (`base_cost` plus its solved cut) to the
    /// running branch minimum — the cold path's assembly rule.
    fn offer(&self, base_cost: Price, best: &mut Price, best_views: &mut Vec<SelectionView>) {
        let price = Price::from_cut_value(self.state.value());
        let total = base_cost.saturating_add(price);
        if total < *best {
            *best = total;
            *best_views = self.base_views.clone();
            if price.is_finite() {
                let cut = self.state.min_cut_edges(&self.graph, self.s);
                let mut originals: Vec<SelectionView> = cut
                    .iter()
                    .filter_map(|e| self.view_edges.get(e))
                    .flat_map(|v| self.provenance.resolve(v))
                    .collect();
                originals.sort();
                originals.dedup();
                best_views.extend(originals);
            }
        }
    }
}

/// An exact chain-flow quote from the branch minimum.
fn chain_flow_quote(price: Price, mut views: Vec<SelectionView>, class: QueryClass) -> Quote {
    views.sort();
    views.dedup();
    Quote {
        price,
        views,
        method: PricingMethod::ChainFlow,
        class,
        quality: QuoteQuality::Exact,
        lower_bound: price,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::price_points::PriceList;
    use qbdp_catalog::{tuple, CatalogBuilder, Column, Value};
    use qbdp_query::parser::parse_rule;

    fn figure1_pricer() -> Pricer {
        let ax = Column::texts(["a1", "a2", "a3", "a4"]);
        let by = Column::texts(["b1", "b2", "b3"]);
        let cat = CatalogBuilder::new()
            .relation("R", &[("X", ax.clone())])
            .relation("S", &[("X", ax), ("Y", by.clone())])
            .relation("T", &[("Y", by)])
            .build()
            .unwrap();
        let mut d = cat.empty_instance();
        d.insert_all(
            cat.schema().rel_id("R").unwrap(),
            [tuple!["a1"], tuple!["a2"]],
        )
        .unwrap();
        d.insert_all(
            cat.schema().rel_id("S").unwrap(),
            [
                tuple!["a1", "b1"],
                tuple!["a1", "b2"],
                tuple!["a2", "b2"],
                tuple!["a4", "b1"],
            ],
        )
        .unwrap();
        d.insert_all(
            cat.schema().rel_id("T").unwrap(),
            [tuple!["b1"], tuple!["b3"]],
        )
        .unwrap();
        let prices = PriceList::uniform(&cat, Price::dollars(1));
        Pricer::new(cat, d, prices).unwrap()
    }

    fn entries(plan: &PlanCache) -> usize {
        plan.shards.iter().map(|s| s.lock().map.len()).sum()
    }

    fn assert_quotes_equal(a: &Quote, b: &Quote) {
        assert_eq!(a.price, b.price);
        assert_eq!(a.views, b.views);
        assert_eq!(a.method, b.method);
        assert_eq!(a.class, b.class);
        assert_eq!(a.quality, b.quality);
        assert_eq!(a.lower_bound, b.lower_bound);
    }

    #[test]
    fn shape_key_ignores_names_and_variable_identity() {
        let p = figure1_pricer();
        let s = p.catalog().schema();
        let q1 = parse_rule(s, "Q(x, y) :- R(x), S(x, y), T(y)").unwrap();
        let q2 = parse_rule(s, "Other(u, w) :- R(u), S(u, w), T(w)").unwrap();
        assert_eq!(shape_key(&q1), shape_key(&q2));
        // Different constants → different shapes.
        let q3 = parse_rule(s, "Q(y) :- R('a1'), S('a1', y), T(y)").unwrap();
        let q4 = parse_rule(s, "Q(y) :- R('a2'), S('a2', y), T(y)").unwrap();
        assert_ne!(shape_key(&q3), shape_key(&q4));
    }

    #[test]
    fn cached_quote_matches_cold_and_hits() {
        let p = figure1_pricer();
        let q = parse_rule(p.catalog().schema(), "Q(x, y) :- R(x), S(x, y), T(y)").unwrap();
        let plan = PlanCache::new();
        let cold = p.price_cq(&q).unwrap();
        let warm1 = plan.quote(&p, &q).unwrap();
        let warm2 = plan.quote(&p, &q).unwrap();
        assert_quotes_equal(&cold, &warm1);
        assert_quotes_equal(&cold, &warm2);
        assert_eq!(plan.stats().misses, 1);
        assert_eq!(plan.stats().hits, 1);
        assert_eq!(entries(&plan), 1);
    }

    #[test]
    fn price_change_warm_reprices_to_cold_answer() {
        let mut p = figure1_pricer();
        let q = parse_rule(p.catalog().schema(), "Q(x, y) :- R(x), S(x, y), T(y)").unwrap();
        let plan = PlanCache::new();
        plan.quote(&p, &q).unwrap();
        // Raise one R.X view: the cut should route around it.
        let rx = p.catalog().schema().resolve_attr("R.X").unwrap();
        let mut prices = p.prices().clone();
        prices.set(
            SelectionView::new(rx, Value::text("a1")),
            Price::dollars(50),
        );
        p = Pricer::new(p.catalog().clone(), p.instance().clone(), prices).unwrap();
        let warm = plan.quote(&p, &q).unwrap();
        let cold = p.price_cq(&q).unwrap();
        assert_quotes_equal(&cold, &warm);
        assert_eq!(plan.stats().warm_reprices, 1);
        assert_eq!(plan.stats().evictions, 0);
    }

    #[test]
    fn repeated_variable_changes_evict() {
        let col = Column::int_range(0, 3);
        let cat = CatalogBuilder::new()
            .uniform_relation("R", &["X", "Y"], &col)
            .build()
            .unwrap();
        let r = cat.schema().rel_id("R").unwrap();
        let mut d = cat.empty_instance();
        d.insert_all(r, [tuple![0, 0], tuple![1, 1]]).unwrap();
        let prices = PriceList::uniform(&cat, Price::dollars(2));
        let mut p = Pricer::new(cat, d, prices).unwrap();
        let q = parse_rule(p.catalog().schema(), "Q(x) :- R(x, x)").unwrap();
        let plan = PlanCache::new();
        plan.quote(&p, &q).unwrap();
        // Drop the price of the "loser" position below the winner: the min
        // flips, which only an eviction can observe.
        let ry = AttrRef::new(r, 1);
        let mut prices = p.prices().clone();
        prices.set(SelectionView::new(ry, Value::Int(0)), Price::dollars(1));
        p = Pricer::new(p.catalog().clone(), p.instance().clone(), prices).unwrap();
        let warm = plan.quote(&p, &q).unwrap();
        let cold = p.price_cq(&q).unwrap();
        assert_quotes_equal(&cold, &warm);
        assert_eq!(plan.stats().evictions, 1);
        assert_eq!(plan.stats().warm_reprices, 0);
    }

    #[test]
    fn infinite_transitions_evict() {
        let mut p = figure1_pricer();
        let q = parse_rule(p.catalog().schema(), "Q(x, y) :- R(x), S(x, y), T(y)").unwrap();
        let plan = PlanCache::new();
        plan.quote(&p, &q).unwrap();
        // Unprice a view: finite → ∞ must evict, and the rebuilt entry
        // must agree with cold.
        let rx = p.catalog().schema().resolve_attr("R.X").unwrap();
        let mut prices = p.prices().clone();
        prices.remove(&SelectionView::new(rx, Value::text("a1")));
        p = Pricer::new(p.catalog().clone(), p.instance().clone(), prices).unwrap();
        let warm = plan.quote(&p, &q).unwrap();
        let cold = p.price_cq(&q).unwrap();
        assert_quotes_equal(&cold, &warm);
        assert_eq!(plan.stats().evictions, 1);
    }

    #[test]
    fn insert_invalidates_mentioning_entries() {
        let mut p = figure1_pricer();
        let q = parse_rule(p.catalog().schema(), "Q(x, y) :- R(x), S(x, y), T(y)").unwrap();
        let plan = PlanCache::new();
        plan.quote(&p, &q).unwrap();
        let r = p.catalog().schema().rel_id("R").unwrap();
        plan.invalidate_rels(&[r]);
        assert_eq!(entries(&plan), 0);
        p.insert(r, [tuple!["a3"]]).unwrap();
        let warm = plan.quote(&p, &q).unwrap();
        let cold = p.price_cq(&q).unwrap();
        assert_quotes_equal(&cold, &warm);
    }

    #[test]
    fn hanging_branch_cover_costs_track_price_changes() {
        // Q(x, y, z) = R(x, y), S(y, z), T(z): x hangs on R.X; changing
        // R.X prices moves the cover branch's base cost.
        let col = Column::int_range(0, 3);
        let cat = CatalogBuilder::new()
            .uniform_relation("R", &["X", "Y"], &col)
            .uniform_relation("S", &["Y", "Z"], &col)
            .uniform_relation("T", &["Z"], &col)
            .build()
            .unwrap();
        let mut d = cat.empty_instance();
        d.insert(cat.schema().rel_id("R").unwrap(), tuple![0, 1])
            .unwrap();
        d.insert(cat.schema().rel_id("S").unwrap(), tuple![1, 2])
            .unwrap();
        d.insert(cat.schema().rel_id("T").unwrap(), tuple![2])
            .unwrap();
        let prices = PriceList::uniform(&cat, Price::dollars(1));
        let mut p = Pricer::new(cat, d, prices).unwrap();
        let q = parse_rule(p.catalog().schema(), "Q(x, y, z) :- R(x, y), S(y, z), T(z)").unwrap();
        let plan = PlanCache::new();
        plan.quote(&p, &q).unwrap();
        let rx = p.catalog().schema().resolve_attr("R.X").unwrap();
        for cents in [40u64, 250, 700] {
            let mut prices = p.prices().clone();
            prices.set(SelectionView::new(rx, Value::Int(1)), Price::cents(cents));
            p = Pricer::new(p.catalog().clone(), p.instance().clone(), prices).unwrap();
            let warm = plan.quote(&p, &q).unwrap();
            let cold = p.price_cq(&q).unwrap();
            assert_quotes_equal(&cold, &warm);
        }
        assert_eq!(plan.stats().evictions, 0);
        assert_eq!(plan.stats().warm_reprices, 3);
    }

    #[test]
    fn uncacheable_classes_delegate() {
        let p = figure1_pricer();
        let plan = PlanCache::new();
        // Boolean query: bypasses the cache entirely.
        let q = parse_rule(p.catalog().schema(), "B() :- R(x), S(x, y), T(y)").unwrap();
        let warm = plan.quote(&p, &q).unwrap();
        let cold = p.price_cq(&q).unwrap();
        assert_quotes_equal(&cold, &warm);
        assert_eq!(entries(&plan), 0);
    }
}
