//! The [`Market`]: quotes, purchases, and live updates over the pricing
//! engine, behind a `parking_lot::RwLock`.
//!
//! # Write protocol
//!
//! [`Market::insert`], [`Market::set_price`], [`Market::set_policy`] and
//! [`Market::purchase_str`] are the only mutators, and all four run one
//! protocol: refuse when degraded, take the journal mutex, append the
//! event, then apply it under the state write lock. In memory the
//! journal is empty and the append is a no-op; a durable market
//! ([`crate::durable`]) attaches its write-ahead log there. Holding the
//! journal mutex across append and apply makes log order equal apply
//! order, so replay reproduces the live sequence.
//!
//! A mutation that fails *validation* during apply (unknown relation,
//! value outside its column, an arbitrage-inducing price revision) has
//! already been logged; that is harmless, because validation is a pure
//! function of market state and replay, seeing the identical state,
//! skips it with the identical verdict. What can never happen is the
//! converse: an applied-but-unlogged mutation, the one that would make
//! recovery forget acknowledged state. A purchase prices before it
//! takes the journal mutex; see [`Market::purchase_str`].
//!
//! # Resource governance
//!
//! A [`MarketPolicy`] bounds every quote: an optional wall-clock deadline
//! and/or fuel budget per pricing call, whether budget-degraded
//! (upper-bound) quotes may be sold at all, and an admission cap on
//! concurrent in-flight quotes. Pricing runs inside `catch_unwind`, so a
//! panicking engine surfaces as [`MarketError::Internal`] and the market
//! keeps serving subsequent requests.

// The workspace-wide lock hierarchy, outermost first (`wal` is the
// journal mutex); any path acquiring against this order is an R7 cycle
// at the next audit run.
// audit: lock-order(wal < state < plan < cache-shard)
use crate::cache::ShardedQuoteCache;
use crate::error::MarketError;
use crate::ledger::Ledger;
use parking_lot::{Mutex, RwLock};
use qbdp_catalog::{AttrRef, Catalog, Instance, QdpFile, RelId, Tuple, Value};
use qbdp_core::dichotomy::QueryClass;
use qbdp_core::price_points::PriceList;
use qbdp_core::{
    query_footprint, Budget, PlanCache, PlanStats, Price, Pricer, PricingMethod, QuoteQuality,
};
use qbdp_determinacy::selection::SelectionView;
use qbdp_obs::flight::Why;
use qbdp_query::ast::ConjunctiveQuery;
use qbdp_query::parser::parse_rule;
use qbdp_query::pretty;
use qbdp_store::{MarketEvent, StoreError, Wal};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// Per-market resource policy, applied to every pricing call.
///
/// The policy also picks the pricing engine: with neither `fuel` nor
/// `deadline` set, every quote, purchase and explanation prices through
/// the market's plan cache (a repeated query shape is a hit or a
/// residual warm start, bit-identical to a cold price); with either set,
/// pricing runs cold under the budget, so a degraded `[lower, upper]`
/// interval is always the cold engine's.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct MarketPolicy {
    /// Wall-clock deadline per quote; `None` = unlimited.
    pub deadline: Option<Duration>,
    /// Work-unit fuel per quote; `None` = unlimited.
    pub fuel: Option<u64>,
    /// Whether budget-degraded (sound upper-bound) quotes may be sold.
    /// When `false`, a quote whose budget ran out is refused with
    /// [`MarketError::DeadlineExceeded`] instead.
    pub sell_degraded: bool,
    /// Maximum concurrently in-flight quote/purchase/explain requests;
    /// excess requests are refused with [`MarketError::Overloaded`]. A
    /// batch of `k` queries counts as `k` in-flight requests, not 1.
    pub max_in_flight: usize,
    /// Worker threads used by [`Market::quote_batch`]; `0` means one per
    /// available core.
    pub batch_workers: usize,
    /// Turn on the process-wide telemetry pipeline (`qbdp-obs`): metric
    /// recording, per-quote trace spans, and the degraded-quote flight
    /// recorder. Off, every probe is a single relaxed atomic load. An
    /// in-process serving knob: it is not persisted by the durable
    /// market, and recovery resets it to `false`.
    pub telemetry: bool,
}

impl Default for MarketPolicy {
    fn default() -> Self {
        MarketPolicy {
            deadline: None,
            fuel: None,
            sell_degraded: false,
            max_in_flight: usize::MAX,
            batch_workers: 0,
            telemetry: false,
        }
    }
}

impl MarketPolicy {
    /// A fresh [`Budget`] implementing this policy for `jobs` pricing
    /// calls: each job's fuel share equals the per-quote fuel (the batch
    /// pool splits the total), while the wall-clock deadline is shared —
    /// jobs run concurrently, so one deadline bounds them all.
    fn budget_for(&self, jobs: u64) -> Budget {
        match (self.fuel, self.deadline) {
            (None, None) => Budget::unlimited(),
            (Some(f), None) => Budget::with_fuel(f.saturating_mul(jobs)),
            (None, Some(d)) => Budget::with_deadline(d),
            (Some(f), Some(d)) => Budget::with_fuel_and_deadline(f.saturating_mul(jobs), d),
        }
    }

    /// A fresh [`Budget`] implementing this policy for one pricing call.
    fn budget(&self) -> Budget {
        self.budget_for(1)
    }

    /// The policy a [`MarketEvent::PolicyChange`] records; `None` for
    /// any other event.
    pub(crate) fn from_event(event: &MarketEvent) -> Option<MarketPolicy> {
        let MarketEvent::PolicyChange {
            deadline_ms,
            fuel,
            sell_degraded,
            max_in_flight,
            batch_workers,
        } = event
        else {
            return None;
        };
        Some(MarketPolicy {
            deadline: deadline_ms.map(Duration::from_millis),
            fuel: *fuel,
            sell_degraded: *sell_degraded,
            max_in_flight: *max_in_flight as usize,
            batch_workers: *batch_workers as usize,
            // Deliberately not persisted: telemetry is an operator
            // decision about *this* process, not market state.
            telemetry: false,
        })
    }
}

impl From<MarketPolicy> for MarketEvent {
    /// The persisted part of a policy: everything but the in-process
    /// knob `telemetry`.
    fn from(p: MarketPolicy) -> MarketEvent {
        MarketEvent::PolicyChange {
            deadline_ms: p.deadline.map(|d| d.as_millis() as u64),
            fuel: p.fuel,
            sell_degraded: p.sell_degraded,
            max_in_flight: p.max_in_flight as u64,
            batch_workers: p.batch_workers as u64,
        }
    }
}

/// Whether the market is accepting mutations. See [`Market::health`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum MarketHealth {
    /// Mutations and reads both served.
    Healthy,
    /// The durability layer can no longer acknowledge writes (disk
    /// full, or an fsync failure poisoned the log). Quotes keep serving
    /// from the last consistent state; mutations return
    /// [`MarketError::Degraded`]. Reopening the market after the fault
    /// clears recovers cleanly.
    ReadOnly {
        /// The store-layer diagnosis that triggered the degradation.
        reason: String,
    },
}

/// A buyer-facing quote.
#[derive(Clone, Debug)]
pub struct MarketQuote {
    /// The query, rendered back in datalog syntax.
    pub query: String,
    /// The arbitrage-price (or, for `UpperBound` quality, a sound
    /// arbitrage-free over-estimate of it).
    pub price: Price,
    /// Itemized receipt: the explicit views this price stands for, rendered.
    pub receipt: Vec<String>,
    /// The raw views (for programmatic consumers).
    pub views: Vec<SelectionView>,
    /// Which engine priced it.
    pub method: PricingMethod,
    /// The query's dichotomy class.
    pub class: QueryClass,
    /// Whether the price is exact or a budget-degraded upper bound.
    pub quality: QuoteQuality,
    /// Sound lower bound on the true arbitrage-price.
    pub lower_bound: Price,
}

/// A completed purchase: the quote plus the delivered answer.
#[derive(Clone, Debug)]
pub struct Purchase {
    /// Ledger transaction id.
    pub transaction_id: u64,
    /// The quote honoured.
    pub quote: MarketQuote,
    /// The answer tuples, sorted for determinism.
    pub answer: Vec<Tuple>,
}

struct State {
    pricer: Pricer,
    ledger: Ledger,
    policy: MarketPolicy,
}

/// A thread-safe, query-priced data marketplace.
pub struct Market {
    /// The write-ahead journal: `None` in memory, the directory's log
    /// once [`crate::durable`] attaches one. Every mutator holds this
    /// mutex (audit name `wal`) across append and apply; see the module
    /// docs.
    journal: Mutex<Option<Wal>>,
    /// Whether mutations are accepted. Only a journal failure flips it.
    health: RwLock<MarketHealth>,
    state: RwLock<State>,
    /// Quote cache keyed by the *rendered* query (canonical form); a
    /// request spelled exactly as a key is served without parsing. Lives
    /// outside the state lock — lookups and fills take only a per-shard
    /// lock — and is kept coherent with the data via per-column epoch
    /// tagging (see [`crate::cache`]). Only `Exact`-quality quotes are
    /// cached — a degraded quote is an artifact of one budget run, not
    /// of the data.
    cache: ShardedQuoteCache,
    /// The pricing engine of every unlimited-budget quote: shape-keyed
    /// normalized plans plus solved flow networks, repriced by residual
    /// warm starts. Its per-shape shard locks (audit name `plan`) are
    /// taken *after* the state lock (never the other way around);
    /// pricing through it happens while the caller holds the state read
    /// lock, so the plans it patches always describe the live
    /// catalog/instance.
    plan: PlanCache,
    in_flight: AtomicUsize,
}

/// Releases its admission slots on drop.
struct InFlightGuard<'a> {
    in_flight: &'a AtomicUsize,
    slots: usize,
}

impl Drop for InFlightGuard<'_> {
    fn drop(&mut self) {
        let prev = self.in_flight.fetch_sub(self.slots, Ordering::Relaxed);
        qbdp_obs::record_gauge(
            qbdp_obs::Gauge::InFlight,
            prev.saturating_sub(self.slots) as u64,
        );
    }
}

/// Revalidation rounds a purchase gets before it gives up as
/// [`MarketError::Contended`].
const PURCHASE_RETRIES: usize = 8;

/// Run a pricing or evaluation call with panics contained at the market
/// boundary. The lock is not poisoned (parking_lot) and nothing was
/// mutated, so the market keeps serving after reporting the failure.
fn contain_panic<T, E>(f: impl FnOnce() -> Result<T, E>) -> Result<T, MarketError>
where
    MarketError: From<E>,
{
    match std::panic::catch_unwind(std::panic::AssertUnwindSafe(f)) {
        Ok(result) => Ok(result?),
        Err(payload) => {
            qbdp_obs::record(qbdp_obs::Ctr::MarketPanicsContained, 1);
            let msg = payload
                .downcast_ref::<&str>()
                .map(|s| s.to_string())
                .or_else(|| payload.downcast_ref::<String>().cloned())
                .unwrap_or_else(|| "pricing engine panicked".to_string());
            Err(MarketError::Internal(msg))
        }
    }
}

/// Outcome telemetry for one served request (a quote batch slot or a
/// purchase), `us` microseconds in: count it as `served`, and hand the
/// thread's span tree to the flight recorder when it went wrong
/// (degraded, refused-degraded, panicked, contended). Only a caller that
/// began a trace on this thread (`quote_str`, `purchase_str`) has spans
/// to hand over; a capture ends that trace.
fn observe_outcome(
    query: &str,
    us: u64,
    served: qbdp_obs::Ctr,
    outcome: Result<&MarketQuote, &MarketError>,
) {
    let (why, detail) = match outcome {
        Ok(q) => {
            qbdp_obs::record(served, 1);
            if q.quality.is_exact() {
                return;
            }
            qbdp_obs::record(qbdp_obs::Ctr::MarketQuotesDegraded, 1);
            (
                Why::Degraded,
                format!(
                    "sold upper bound; true price in [{}, {}]",
                    q.lower_bound, q.price
                ),
            )
        }
        Err(MarketError::Internal(msg)) => (Why::Panicked, msg.clone()),
        Err(MarketError::DeadlineExceeded) => {
            qbdp_obs::record(qbdp_obs::Ctr::MarketQuotesDegraded, 1);
            (
                Why::Degraded,
                "refused: budget exhausted and sell_degraded is off".to_string(),
            )
        }
        Err(MarketError::Contended) => (
            Why::Contended,
            format!("{PURCHASE_RETRIES} revalidation retries exhausted"),
        ),
        Err(_) => return,
    };
    qbdp_obs::flight::capture(why, query, us, detail, qbdp_obs::trace::finish());
}

impl Market {
    /// Open a market. Rejects price lists that admit arbitrage among the
    /// explicit price points (Proposition 3.2) — by Theorem 2.15 no valid
    /// pricing function would exist.
    pub fn open(
        catalog: Catalog,
        instance: Instance,
        prices: PriceList,
    ) -> Result<Market, MarketError> {
        let pricer = Pricer::new(catalog, instance, prices)?;
        let violations = pricer.check_consistency();
        if !violations.is_empty() {
            let rendered: Vec<String> = violations
                .iter()
                .take(3)
                .map(|v| v.display(pricer.catalog()))
                .collect();
            return Err(MarketError::InconsistentPrices(rendered.join("; ")));
        }
        let columns = pricer.catalog().schema().all_attrs();
        Ok(Market {
            journal: Mutex::new(None),
            health: RwLock::new(MarketHealth::Healthy),
            state: RwLock::new(State {
                pricer,
                ledger: Ledger::new(),
                policy: MarketPolicy::default(),
            }),
            cache: ShardedQuoteCache::new(columns),
            plan: PlanCache::new(),
            in_flight: AtomicUsize::new(0),
        })
    }

    /// Attach a write-ahead log: from here on every mutation is
    /// appended to it before it is applied. Recovery attaches the log
    /// after replay, so replayed events are not logged twice.
    // audit: holds-lock(wal)
    pub(crate) fn attach_journal(&self, wal: Wal) {
        *self.journal.lock() = Some(wal);
    }

    /// Whether the market is accepting mutations or has degraded to
    /// read-only serving. An in-memory market is always healthy.
    /// Degradation is one-way for a given handle; reopening the
    /// directory is the repair path.
    // audit: holds-lock(health)
    pub fn health(&self) -> MarketHealth {
        self.health.read().clone()
    }

    /// Refuse mutations once degraded. Checked *before* the journal
    /// mutex is taken so a degraded market never queues writers behind
    /// it.
    // audit: holds-lock(health)
    pub(crate) fn ensure_writable(&self) -> Result<(), MarketError> {
        match &*self.health.read() {
            MarketHealth::Healthy => Ok(()),
            MarketHealth::ReadOnly { reason } => Err(MarketError::Degraded(reason.clone())),
        }
    }

    /// Classify a store failure: faults that void the durability
    /// contract ([`StoreError::degrades_to_read_only`]) flip the market
    /// to read-only serving; everything else (transient exhaustion,
    /// validation-adjacent corruption) passes through typed, leaving
    /// the market healthy.
    // audit: holds-lock(health)
    fn degrade_on(&self, e: StoreError) -> MarketError {
        if e.degrades_to_read_only() {
            let mut health = self.health.write();
            if *health == MarketHealth::Healthy {
                *health = MarketHealth::ReadOnly {
                    reason: e.to_string(),
                };
                qbdp_obs::record(qbdp_obs::Ctr::MarketHealthFlips, 1);
                qbdp_obs::record_gauge(qbdp_obs::Gauge::HealthReadOnly, 1);
            }
        }
        MarketError::Store(e)
    }

    /// Append `event` to the journal the caller holds (a no-op in
    /// memory).
    // audit: holds-lock(wal)
    fn append(&self, journal: &mut Option<Wal>, event: &MarketEvent) -> Result<(), MarketError> {
        if let Some(wal) = journal {
            wal.append(event).map_err(|e| self.degrade_on(e))?;
        }
        Ok(())
    }

    /// Run `f` on the attached log under the journal mutex, degrading
    /// the market on a store failure that voids durability. A market
    /// without a log refuses with [`MarketError::Internal`].
    // audit: holds-lock(wal)
    pub(crate) fn with_wal<R>(
        &self,
        f: impl FnOnce(&mut Wal) -> Result<R, StoreError>,
    ) -> Result<R, MarketError> {
        let mut journal = self.journal.lock();
        let Some(wal) = journal.as_mut() else {
            return Err(MarketError::Internal("no write-ahead log attached".into()));
        };
        f(wal).map_err(|e| self.degrade_on(e))
    }

    /// Replace the market's resource policy. Journaled like every
    /// mutation, minus the in-process knob `telemetry`.
    // audit: holds-lock(wal)
    pub fn set_policy(&self, policy: MarketPolicy) -> Result<(), MarketError> {
        self.ensure_writable()?;
        let mut journal = self.journal.lock();
        self.append(&mut journal, &policy.into())?;
        self.apply_policy(policy);
        Ok(())
    }

    /// Apply a policy (live, and on replay). The `telemetry` flag is
    /// applied to the process-wide `qbdp-obs` switch here — the one
    /// place serving policy and recording policy meet.
    // audit: holds-lock(state)
    pub(crate) fn apply_policy(&self, policy: MarketPolicy) {
        qbdp_obs::set_enabled(policy.telemetry);
        self.state.write().policy = policy;
    }

    /// The current resource policy.
    // audit: holds-lock(state)
    pub fn policy(&self) -> MarketPolicy {
        self.state.read().policy
    }

    /// Claim one admission slot, or refuse with [`MarketError::Overloaded`].
    fn admit(&self, max: usize) -> Result<InFlightGuard<'_>, MarketError> {
        self.admit_many(1, max)
    }

    /// Claim `slots` admission slots atomically, or refuse with
    /// [`MarketError::Overloaded`]. A batch of `k` queries is `k` units of
    /// concurrent pricing work, so it must claim `k` slots — counting it
    /// as one would let `max_in_flight` be exceeded `k`-fold.
    fn admit_many(&self, slots: usize, max: usize) -> Result<InFlightGuard<'_>, MarketError> {
        let prev = self.in_flight.fetch_add(slots, Ordering::Relaxed);
        if prev.checked_add(slots).is_none_or(|total| total > max) {
            self.in_flight.fetch_sub(slots, Ordering::Relaxed);
            qbdp_obs::record(qbdp_obs::Ctr::MarketAdmissionRejects, 1);
            return Err(MarketError::Overloaded);
        }
        qbdp_obs::record_gauge(qbdp_obs::Gauge::InFlight, (prev + slots) as u64);
        Ok(InFlightGuard {
            in_flight: &self.in_flight,
            slots,
        })
    }

    /// Open a market from a `.qdp` document (schema, columns, tuples, and
    /// `price R.X=a <cents>` directives).
    pub fn open_qdp(text: &str) -> Result<Market, MarketError> {
        let file = QdpFile::parse(text).map_err(|e| MarketError::Update(e.to_string()))?;
        let mut prices = PriceList::new();
        for (attr, value, cents) in file.prices {
            prices.set(SelectionView::new(attr, value), Price::cents(cents));
        }
        Market::open(file.catalog, file.instance, prices)
    }

    /// Quote a query given in datalog syntax
    /// (`"Q(x, y) :- R(x), S(x, y)"`): a [`Market::quote_batch`] of one,
    /// which prices inline on this thread, under a trace of its own and
    /// timed into the quote-latency histogram. Exact quotes are cached
    /// until the next update touching their columns.
    pub fn quote_str(&self, query: &str) -> Result<Arc<MarketQuote>, MarketError> {
        let sw = qbdp_obs::Stopwatch::start();
        if qbdp_obs::enabled() {
            qbdp_obs::trace::begin();
        }
        let out = self.quote_batch(&[query]).pop().unwrap_or_else(|| {
            Err(MarketError::Internal(
                "a batch of one returned no slot".into(),
            ))
        });
        qbdp_obs::trace::finish();
        sw.stop(qbdp_obs::Hst::QuoteLatencyUs);
        out
    }

    /// Quote a batch of datalog-syntax queries in one call — the one
    /// quote path. Cache misses are priced on a scoped worker pool
    /// ([`MarketPolicy::batch_workers`] threads; `0` = one per core; a
    /// single miss prices inline on the caller's thread), each through
    /// the market's one pricing call (see [`MarketPolicy`]).
    ///
    /// Results are positionally aligned with `queries`; each slot fails
    /// independently (a parse error or contained engine panic poisons
    /// only its own slot). The whole batch is admitted as
    /// `queries.len()` in-flight requests against
    /// [`MarketPolicy::max_in_flight`] — all-or-nothing: an overloaded
    /// market refuses every slot with [`MarketError::Overloaded`]. Each
    /// job gets the policy's per-quote fuel; the wall-clock deadline is
    /// shared across the batch. Exact quotes (cache hits and fresh ones)
    /// are served from / fill the sharded cache, and a cached quote is
    /// shared, not copied: every caller served the same entry holds the
    /// same [`Arc`]. A query sent back exactly as a quote's `query` field
    /// (the canonical spelling) is answered without being parsed. With
    /// telemetry on, every slot is counted and a degraded, refused or
    /// panicked slot lands in the flight recorder.
    pub fn quote_batch(&self, queries: &[&str]) -> Vec<Result<Arc<MarketQuote>, MarketError>> {
        let sw = qbdp_obs::Stopwatch::start();
        let out = self.quote_slots(queries);
        if let Some(us) = sw.elapsed_us() {
            for (query, slot) in queries.iter().zip(&out) {
                let outcome = slot.as_ref().map(|q| &**q);
                observe_outcome(query, us, qbdp_obs::Ctr::MarketQuotes, outcome);
            }
        }
        out
    }

    /// The uninstrumented body of [`Market::quote_batch`].
    // audit: holds-lock(state)
    fn quote_slots(&self, queries: &[&str]) -> Vec<Result<Arc<MarketQuote>, MarketError>> {
        if queries.is_empty() {
            return Vec::new();
        }
        let state = self.state.read();
        let slot = self.admit_many(queries.len(), state.policy.max_in_flight);
        if slot.is_err() {
            return queries
                .iter()
                .map(|_| Err(MarketError::Overloaded))
                .collect();
        }
        let schema = state.pricer.catalog().schema();
        let mut slots: Vec<Option<Result<Arc<MarketQuote>, MarketError>>> = Vec::new();
        slots.resize_with(queries.len(), || None);
        // Serve what the cache already has. The request text is probed
        // first: text byte-equal to a cached key is some `render(q)`, and
        // `parse_rule(render(q)) == q`, so the entry prices exactly this
        // query and is served without a parse. Other text is parsed and
        // rendered to its canonical key; other spellings are never
        // stored, so the cache holds one entry per query. Each missing
        // slot carries its *own* footprint stamp,
        // computed at its own lookup under the state read lock: it names
        // exactly the data snapshot the quote is derived from, and the
        // cache discards the insert if an update touching one of the
        // footprint's columns lands in between. One whole-batch stamp
        // would be wrong at both granularities (different queries have
        // different footprints, and a single load taken before the loop
        // could tag a late slot with an epoch older than the lookup that
        // missed for it).
        let mut misses: Vec<(usize, String, ConjunctiveQuery, Vec<AttrRef>, u64)> = Vec::new();
        for (i, text) in queries.iter().enumerate() {
            let text = text.trim();
            let mut span = qbdp_obs::trace::span("cache_lookup");
            if let Some(hit) = self.cache.probe(text) {
                span.detail("hit");
                slots[i] = Some(Ok(hit));
                continue;
            }
            let q = match parse_rule(schema, text) {
                Ok(q) => q,
                Err(e) => {
                    slots[i] = Some(Err(e.into()));
                    continue;
                }
            };
            let key = pretty::render(&q, schema);
            if let Some(hit) = self.cache.get(&key) {
                span.detail("hit");
                slots[i] = Some(Ok(hit));
                continue;
            }
            span.detail("miss");
            drop(span);
            let footprint = query_footprint(state.pricer.catalog(), &q);
            let stamp = self.cache.stamp(&footprint);
            misses.push((i, key, q, footprint, stamp));
        }
        if !misses.is_empty() {
            let budget = state.policy.budget_for(misses.len() as u64);
            let workers = state.policy.batch_workers;
            let st: &State = &state;
            let priced = qbdp_core::batch::run_batch(&misses, &budget, workers, |miss, sub| {
                let (_, key, q, _, _) = miss;
                Self::finish_quote(st, key.clone(), self.price_query(st, q, sub)?).map(Arc::new)
            });
            for ((i, key, _, footprint, stamp), result) in misses.into_iter().zip(priced) {
                if let Ok(mq) = &result {
                    if mq.quality.is_exact() {
                        self.cache.insert(key, Arc::clone(mq), footprint, stamp);
                    }
                }
                slots[i] = Some(result);
            }
        }
        slots
            .into_iter()
            .map(|s| {
                s.unwrap_or_else(|| {
                    Err(MarketError::Internal(
                        "batch slot was never filled".to_string(),
                    ))
                })
            })
            .collect()
    }

    /// The market's one pricing call, shared by quotes, purchases and
    /// explanations: the plan cache when the policy sets no fuel and no
    /// deadline, cold [`Pricer::price_cq_within`] under `budget`
    /// otherwise — so degraded `[lower, upper]` intervals always come
    /// from the cold engine. Panics are contained.
    fn price_query(
        &self,
        state: &State,
        q: &ConjunctiveQuery,
        budget: &Budget,
    ) -> Result<qbdp_core::Quote, MarketError> {
        let policy = state.policy;
        contain_panic(|| {
            if policy.fuel.is_none() && policy.deadline.is_none() {
                // A panic mid-reprice is contained: `PlanCache::quote`
                // takes the entry out of its shard before mutating it, so
                // the poisonable state unwinds away with the panic.
                state.pricer.price_cq_with_plan(q, &self.plan)
            } else {
                state.pricer.price_cq_within(q, budget)
            }
        })
    }

    /// Apply market policy to a raw engine quote and dress it up for the
    /// buyer (shared by quotes and purchases); `query` is the query's
    /// canonical rendering.
    fn finish_quote(
        state: &State,
        query: String,
        quote: qbdp_core::Quote,
    ) -> Result<MarketQuote, MarketError> {
        if quote.price.is_infinite() {
            return Err(MarketError::NotForSale);
        }
        if !quote.quality.is_exact() && !state.policy.sell_degraded {
            return Err(MarketError::DeadlineExceeded);
        }
        let schema = state.pricer.catalog().schema();
        let receipt = quote
            .views
            .iter()
            .map(|v| format!("{} @ {}", v.display(schema), state.pricer.prices().get(v)))
            .collect();
        Ok(MarketQuote {
            query,
            price: quote.price,
            receipt,
            views: quote.views,
            method: quote.method,
            class: quote.class,
            quality: quote.quality,
            lower_bound: quote.lower_bound,
        })
    }

    /// Purchase a query (datalog syntax): quote, evaluate, record,
    /// deliver.
    ///
    /// Pricing and evaluation run under the state read lock only, never
    /// under the journal mutex (qbdp-audit rule R3), so a purchase does
    /// not stall quotes. The cache epoch names the data/price snapshot
    /// the quote was derived from: every data or price mutation bumps it
    /// under the journal mutex, so an unchanged epoch observed *under*
    /// the mutex proves the quoted terms still hold. An epoch that moved
    /// means an update landed mid-purchase; the stale quote is discarded
    /// and the purchase re-priced (bounded retries, then
    /// [`MarketError::Contended`]). Overflowing revenue is refused with
    /// [`MarketError::RevenueOverflow`] *before* the event is logged, so
    /// the log never holds an unreplayable purchase.
    pub fn purchase_str(&self, query: &str) -> Result<Purchase, MarketError> {
        let sw = qbdp_obs::Stopwatch::start();
        if qbdp_obs::enabled() {
            qbdp_obs::trace::begin();
        }
        let out = self.purchase_journaled(query);
        let outcome = out.as_ref().map(|p| &p.quote);
        if let Some(us) = sw.stop(qbdp_obs::Hst::PurchaseLatencyUs) {
            observe_outcome(query, us, qbdp_obs::Ctr::MarketPurchases, outcome);
            if outcome.is_ok_and(|q| q.quality.is_exact())
                && us >= qbdp_obs::flight::slow_threshold_us()
            {
                let spans = qbdp_obs::trace::finish();
                qbdp_obs::flight::capture(Why::Slow, query, us, String::new(), spans);
            }
        }
        qbdp_obs::trace::finish();
        out
    }

    /// The uninstrumented body of [`Market::purchase_str`].
    // audit: holds-lock(wal)
    fn purchase_journaled(&self, query: &str) -> Result<Purchase, MarketError> {
        self.ensure_writable()?;
        // audit: bounded(fixed retry cap; each round does one pricing call)
        for _ in 0..PURCHASE_RETRIES {
            let epoch = self.cache.epoch();
            let (quote, answer) = self.evaluate_purchase(query)?;
            self.ensure_writable()?;
            let mut journal = self.journal.lock();
            if self.cache.epoch() != epoch {
                drop(journal);
                qbdp_obs::record(qbdp_obs::Ctr::MarketPurchaseRetries, 1);
                continue;
            }
            if self.revenue().checked_add(quote.price).is_none() {
                return Err(MarketError::RevenueOverflow);
            }
            self.append(
                &mut journal,
                &MarketEvent::Purchase {
                    query: quote.query.clone(),
                    price_cents: quote.price.as_cents(),
                    answer_tuples: answer.len() as u64,
                    views: quote.views.len() as u64,
                },
            )?;
            let transaction_id = self.apply_recorded_sale(
                quote.query.clone(),
                quote.price,
                answer.len(),
                quote.views.len(),
            )?;
            return Ok(Purchase {
                transaction_id,
                quote,
                answer,
            });
        }
        qbdp_obs::record(qbdp_obs::Ctr::MarketPurchaseContended, 1);
        Err(MarketError::Contended)
    }

    /// Quote and evaluate a purchase under the state read lock, without
    /// recording it.
    // audit: holds-lock(state)
    fn evaluate_purchase(&self, query: &str) -> Result<(MarketQuote, Vec<Tuple>), MarketError> {
        let state = self.state.read();
        let _slot = self.admit(state.policy.max_in_flight)?;
        let schema = state.pricer.catalog().schema();
        let q = parse_rule(schema, query)?;
        let quote = self.price_query(&state, &q, &state.policy.budget())?;
        let quote = Self::finish_quote(&state, pretty::render(&q, schema), quote)?;
        // Evaluation runs the same buyer-controlled query the pricing
        // engine just priced; a panic here must not unwind through the
        // serving thread any more than a pricing panic may (the quote
        // paths already contain those).
        let mut answer: Vec<Tuple> =
            contain_panic(|| qbdp_query::eval::eval_cq(&q, state.pricer.instance()))?
                .into_iter()
                .collect();
        answer.sort();
        Ok((quote, answer))
    }

    /// Seller-side data insertion (§2.7). Prices stay fixed; consistency
    /// is automatic for selection-view lists. Each tuple is one journal
    /// event and one apply, so replay reproduces the exact ledger
    /// sequence. Returns the number of tuples actually added (a
    /// duplicate adds 0); a tuple the catalog refuses ends the call with
    /// its error, and the tuples before it stay inserted.
    // audit: holds-lock(wal)
    pub fn insert(
        &self,
        relation: &str,
        tuples: impl IntoIterator<Item = Tuple>,
    ) -> Result<usize, MarketError> {
        self.ensure_writable()?;
        let mut journal = self.journal.lock();
        let mut added = 0usize;
        for tuple in tuples {
            let event = MarketEvent::InsertTuple {
                relation: relation.to_string(),
                values: tuple.iter().map(Value::render_literal).collect(),
            };
            self.append(&mut journal, &event)?;
            added += self.apply_insert(relation, tuple)?;
        }
        Ok(added)
    }

    /// Insert one tuple (live, after the journal append, and on replay).
    /// A refused tuple changes nothing.
    // audit: holds-lock(state)
    pub(crate) fn apply_insert(&self, relation: &str, tuple: Tuple) -> Result<usize, MarketError> {
        let mut state = self.state.write();
        let rel: RelId = state
            .pricer
            .catalog()
            .schema()
            .rel_id(relation)
            .ok_or_else(|| MarketError::Update(format!("unknown relation {relation}")))?;
        let added = state
            .pricer
            // audit: allow(R7: core's instance-data insert — a name collision with `Market::insert`, no lock behind it)
            .insert(rel, [tuple])
            .map_err(|e| MarketError::Update(e.to_string()))?;
        // Invalidate while still holding the write lock, so the epoch
        // bumps are ordered with the data mutation (see `crate::cache`).
        // Scope: every column of the inserted relation — a quote's
        // footprint contains all columns of every relation it mentions,
        // so this reaches exactly the quotes that could see the new
        // tuples; quotes over disjoint relations stay cached. Plans are
        // evicted rather than patched: new tuples change the flow
        // network's topology, not just its capacities.
        let arity = state.pricer.catalog().schema().relation(rel).arity();
        let touched: Vec<AttrRef> = (0..arity).map(|i| AttrRef::new(rel, i as u32)).collect();
        self.cache.invalidate_columns(&touched);
        self.plan.invalidate_rels(&[rel]);
        state.ledger.record_update(relation.to_string(), added);
        Ok(added)
    }

    /// Number of quotes currently held in the sharded cache (inspection
    /// aid; the count is momentary under concurrency).
    pub fn cached_quotes(&self) -> usize {
        self.cache.len()
    }

    /// The quote cache's current mutation generation: 0 for a fresh (or
    /// freshly recovered) market, bumped by every data/price mutation.
    /// The purchase path revalidates a quote against it; durability
    /// tests assert a recovered market starts from 0 rather than
    /// inheriting replay bumps.
    pub fn cache_epoch(&self) -> u64 {
        self.cache.epoch()
    }

    /// Counters from the plan cache: hits, misses, warm reprices, flow
    /// fallbacks, and evictions. Every unlimited-budget quote or
    /// purchase of a chain query that misses the quote cache moves one
    /// of them; under a fuel or deadline policy they stay still, because
    /// budgeted quotes price cold.
    pub fn plan_stats(&self) -> PlanStats {
        self.plan.stats()
    }

    /// Clear the quote and plan caches and rewind every epoch to 0
    /// (recovery epilogue). Plans are rebuilt lazily from the recovered
    /// catalog/instance on the first unlimited-budget quote of each
    /// shape.
    pub(crate) fn reset_cache(&self) {
        self.cache.reset();
        self.plan.clear();
    }

    /// Record a sale whose terms are already known (live, after the
    /// journal append, and on replay), with checked revenue arithmetic.
    // audit: holds-lock(state)
    pub(crate) fn apply_recorded_sale(
        &self,
        query: String,
        price: Price,
        answer_tuples: usize,
        views: usize,
    ) -> Result<u64, MarketError> {
        let mut state = self.state.write();
        state
            .ledger
            .record_sale_checked(query, price, answer_tuples, views)
            .ok_or(MarketError::RevenueOverflow)
    }

    /// Replace the ledger wholesale (snapshot restore).
    // audit: holds-lock(state)
    pub(crate) fn restore_ledger(&self, ledger: Ledger) {
        self.state.write().ledger = ledger;
    }

    /// Snapshot of the running revenue.
    // audit: holds-lock(state)
    pub fn revenue(&self) -> Price {
        self.state.read().ledger.revenue()
    }

    /// Number of completed sales.
    // audit: holds-lock(state)
    pub fn sales(&self) -> usize {
        self.state.read().ledger.sales()
    }

    /// Run a closure over the ledger (snapshot access without cloning).
    // audit: holds-lock(state)
    pub fn with_ledger<R>(&self, f: impl FnOnce(&Ledger) -> R) -> R {
        f(&self.state.read().ledger)
    }

    /// Run a closure over the pricer (schema/catalog introspection).
    // audit: holds-lock(state)
    pub fn with_pricer<R>(&self, f: impl FnOnce(&Pricer) -> R) -> R {
        f(&self.state.read().pricer)
    }

    /// A full explanation of a quote (class, engine, itemized receipt).
    // audit: holds-lock(state)
    pub fn explain_str(&self, query: &str) -> Result<String, MarketError> {
        let state = self.state.read();
        let _slot = self.admit(state.policy.max_in_flight)?;
        let q = parse_rule(state.pricer.catalog().schema(), query)?;
        let quote = self.price_query(&state, &q, &state.policy.budget())?;
        Ok(quote.explain(state.pricer.catalog(), state.pricer.prices()))
    }

    /// Seller-side price revision: set (or add) the price of one selection
    /// view (`R.X=a` selector syntax). The revised list must remain
    /// arbitrage-free (Proposition 3.2) or the update is rejected and
    /// nothing changes.
    // audit: holds-lock(wal)
    pub fn set_price(&self, view: &str, price: Price) -> Result<(), MarketError> {
        self.ensure_writable()?;
        let mut journal = self.journal.lock();
        let event = MarketEvent::SetPrice {
            view: view.to_string(),
            cents: price.as_cents(),
        };
        self.append(&mut journal, &event)?;
        self.apply_set_price(view, price)
    }

    /// Revise one price (live, after the journal append, and on
    /// replay). Quotes over the revised column are re-derived from the
    /// new list.
    // audit: holds-lock(state)
    pub(crate) fn apply_set_price(&self, view: &str, price: Price) -> Result<(), MarketError> {
        let mut state = self.state.write();
        // `view` syntax: `R.X=a`.
        let (attr, value) = view.split_once('=').ok_or_else(|| {
            MarketError::Update(format!("price selector must be `R.X=a`, got `{view}`"))
        })?;
        let aref = state
            .pricer
            .catalog()
            .schema()
            .resolve_attr(attr.trim())
            .map_err(|e| MarketError::Update(e.to_string()))?;
        let value = qbdp_catalog::Value::parse_literal(value)
            .ok_or_else(|| MarketError::Update(format!("bad value in `{view}`")))?;
        if !state.pricer.catalog().column(aref).contains(&value) {
            return Err(MarketError::Update(format!(
                "value {value} is outside the column of {attr}"
            )));
        }
        // Stage the change and re-check Prop 3.2.
        let mut staged = state.pricer.prices().clone();
        staged.set(SelectionView::new(aref, value), price);
        let violations =
            qbdp_core::consistency::find_list_arbitrage(state.pricer.catalog(), &staged);
        if let Some(v) = violations.first() {
            return Err(MarketError::InconsistentPrices(
                v.display(state.pricer.catalog()),
            ));
        }
        let pricer = Pricer::new(
            state.pricer.catalog().clone(),
            state.pricer.instance().clone(),
            staged,
        )
        .map_err(MarketError::Pricing)?;
        state.pricer = pricer;
        // Only quotes whose footprint contains the revised column can
        // change; everything disjoint stays cached. The plan cache needs
        // no eviction here — it diffs its stored price vector against
        // the live one on every lookup and warm-starts (or rebuilds)
        // itself when they differ.
        self.cache.invalidate_columns(&[aref]);
        Ok(())
    }

    /// Serialize the market's current state (catalog, data, prices) back to
    /// `.qdp` text — reopening it reproduces the same prices.
    // audit: holds-lock(state)
    pub fn to_qdp(&self) -> String {
        let state = self.state.read();
        let pricer = &state.pricer;
        let prices = pricer
            .prices()
            .iter()
            .map(|(v, p)| (v.attr, v.value, p.as_cents()))
            .collect();
        let file = QdpFile {
            catalog: pricer.catalog().clone(),
            instance: pricer.instance().clone(),
            prices,
        };
        file.to_text()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qbdp_catalog::tuple;

    const FIG1_QDP: &str = r#"
schema R(X)
schema S(X, Y)
schema T(Y)
column R.X = {a1, a2, a3, a4}
column S.X = {a1, a2, a3, a4}
column S.Y = {b1, b2, b3}
column T.Y = {b1, b2, b3}
tuple R(a1)
tuple R(a2)
tuple S(a1, b1)
tuple S(a1, b2)
tuple S(a2, b2)
tuple S(a4, b1)
tuple T(b1)
tuple T(b3)
price R.X=a1 100
price R.X=a2 100
price R.X=a3 100
price R.X=a4 100
price S.X=a1 100
price S.X=a2 100
price S.X=a3 100
price S.X=a4 100
price S.Y=b1 100
price S.Y=b2 100
price S.Y=b3 100
price T.Y=b1 100
price T.Y=b2 100
price T.Y=b3 100
"#;

    #[test]
    fn figure1_market_end_to_end() {
        let market = Market::open_qdp(FIG1_QDP).unwrap();
        let quote = market.quote_str("Q(x, y) :- R(x), S(x, y), T(y)").unwrap();
        assert_eq!(quote.price, Price::dollars(6));
        assert_eq!(quote.receipt.len(), 6);
        let purchase = market
            .purchase_str("Q(x, y) :- R(x), S(x, y), T(y)")
            .unwrap();
        assert_eq!(purchase.answer, vec![tuple!["a1", "b1"]]);
        assert_eq!(market.revenue(), Price::dollars(6));
        assert_eq!(market.sales(), 1);
    }

    #[test]
    fn unsellable_query_rejected() {
        // Remove all T prices: queries over T are not for sale.
        let qdp: String = FIG1_QDP
            .lines()
            .filter(|l| !l.starts_with("price T"))
            .collect::<Vec<_>>()
            .join("\n");
        let market = Market::open_qdp(&qdp).unwrap();
        let err = market.quote_str("Q(y) :- T(y)");
        assert!(matches!(err, Err(MarketError::NotForSale)));
        // But R-only queries still work.
        assert!(market.quote_str("Q(x) :- R(x)").is_ok());
    }

    #[test]
    fn arbitrage_priced_lists_rejected_at_open() {
        // σ_{S.X=a1} at $100 vs full cover of S.Y at... raise S.X=a1 price
        // beyond Σ_{S.Y} = $3.
        let qdp = FIG1_QDP.replace("price S.X=a1 100", "price S.X=a1 99999");
        let err = Market::open_qdp(&qdp);
        assert!(matches!(err, Err(MarketError::InconsistentPrices(_))));
    }

    #[test]
    fn insertions_update_prices_monotonically() {
        let market = Market::open_qdp(FIG1_QDP).unwrap();
        let before = market
            .quote_str("Q(x, y) :- R(x), S(x, y), T(y)")
            .unwrap()
            .price;
        market.insert("T", [tuple!["b2"]]).unwrap();
        let after = market
            .quote_str("Q(x, y) :- R(x), S(x, y), T(y)")
            .unwrap()
            .price;
        assert!(after >= before, "price dropped: {before} -> {after}");
        // Two new answers appear: (a1, b2) and (a2, b2).
        let p = market
            .purchase_str("Q(x, y) :- R(x), S(x, y), T(y)")
            .unwrap();
        assert_eq!(p.answer.len(), 3);
    }

    #[test]
    fn seller_price_revisions_validated() {
        let market = Market::open_qdp(FIG1_QDP).unwrap();
        let q = "Q(x, y) :- R(x), S(x, y), T(y)";
        assert_eq!(market.quote_str(q).unwrap().price, Price::dollars(6));
        // A discount on σ_{S.Y=b1} flows into the derived price.
        market.set_price("S.Y=b1", Price::cents(25)).unwrap();
        assert_eq!(market.quote_str(q).unwrap().price, Price::cents(525));
        // An inconsistent revision is rejected atomically: σ_{S.X=a1}
        // above the full cover of S.Y ($2.25 now).
        let err = market.set_price("S.X=a1", Price::dollars(3));
        assert!(matches!(err, Err(MarketError::InconsistentPrices(_))));
        assert_eq!(market.quote_str(q).unwrap().price, Price::cents(525));
        // Garbage selectors rejected.
        assert!(market.set_price("S.X", Price::ZERO).is_err());
        assert!(market.set_price("S.X=zz", Price::ZERO).is_err());
        assert!(market.set_price("Nope.X=a1", Price::ZERO).is_err());
    }

    #[test]
    fn quote_cache_hits_and_invalidates() {
        let market = Market::open_qdp(FIG1_QDP).unwrap();
        let q = "Q(x, y) :- R(x), S(x, y), T(y)";
        let first = market.quote_str(q).unwrap();
        // Cached: same (equivalent) query, different whitespace.
        let second = market.quote_str("Q(x,y) :- R(x), S(x,y), T(y)").unwrap();
        assert_eq!(first.price, second.price);
        assert_eq!(first.views, second.views);
        // Insertion invalidates: price may change (and here does).
        market.insert("T", [tuple!["b2"]]).unwrap();
        let third = market.quote_str(q).unwrap();
        assert!(
            third.price > first.price,
            "{} !> {}",
            third.price,
            first.price
        );
    }

    #[test]
    fn quote_batch_matches_serial_and_fills_cache() {
        let queries = [
            "Q(x, y) :- R(x), S(x, y), T(y)",
            "Q(x) :- R(x)",
            "Q(y) :- T(y)",
            "Q(x, y) :- S(x, y)",
        ];
        // Serial reference prices from an identical, separate market so
        // the batched market starts with a cold cache.
        let reference = Market::open_qdp(FIG1_QDP).unwrap();
        let serial: Vec<Price> = queries
            .iter()
            .map(|q| reference.quote_str(q).unwrap().price)
            .collect();
        let market = Market::open_qdp(FIG1_QDP).unwrap();
        assert_eq!(market.cached_quotes(), 0);
        let batch = market.quote_batch(&queries);
        let batch_prices: Vec<Price> = batch.into_iter().map(|r| r.unwrap().price).collect();
        // S(a3, b3) joins nothing priced here, so prices are unchanged.
        assert_eq!(batch_prices, serial);
        assert_eq!(market.cached_quotes(), queries.len());
        // Second batch is served from the cache (same prices).
        let again: Vec<Price> = market
            .quote_batch(&queries)
            .into_iter()
            .map(|r| r.unwrap().price)
            .collect();
        assert_eq!(again, serial);
    }

    #[test]
    fn quote_batch_isolates_per_slot_failures() {
        let market = Market::open_qdp(FIG1_QDP).unwrap();
        let out = market.quote_batch(&["Q(x) :- R(x)", "not a rule at all", "Q(y) :- T(y)"]);
        assert_eq!(out.len(), 3);
        assert!(out[0].is_ok());
        assert!(matches!(out[1], Err(MarketError::Query(_))), "{:?}", out[1]);
        assert!(out[2].is_ok());
    }

    /// Regression: a batch of `k` queries must count as `k` in-flight
    /// jobs against `max_in_flight`, not 1 — otherwise one batch call
    /// could run `k` concurrent pricing jobs past the admission cap.
    #[test]
    fn batch_admission_counts_every_query() {
        let market = Market::open_qdp(FIG1_QDP).unwrap();
        market
            .set_policy(MarketPolicy {
                max_in_flight: 2,
                ..MarketPolicy::default()
            })
            .unwrap();
        let queries = ["Q(x) :- R(x)", "Q(y) :- T(y)", "Q(x, y) :- S(x, y)"];
        let refused = market.quote_batch(&queries);
        assert_eq!(refused.len(), 3);
        for slot in &refused {
            assert!(matches!(slot, Err(MarketError::Overloaded)), "{slot:?}");
        }
        // A batch within the cap is admitted, and the refused batch
        // released its (tentative) slots.
        let ok = market.quote_batch(&queries[..2]);
        assert!(ok.iter().all(|r| r.is_ok()));
        // Serial quoting still works afterwards: no slots leaked.
        assert!(market.quote_str("Q(x) :- R(x)").is_ok());
    }

    #[test]
    fn empty_batch_is_empty() {
        let market = Market::open_qdp(FIG1_QDP).unwrap();
        assert!(market.quote_batch(&[]).is_empty());
    }

    #[test]
    fn explain_narrates_the_quote() {
        let market = Market::open_qdp(FIG1_QDP).unwrap();
        let text = market
            .explain_str("Q(x, y) :- R(x), S(x, y), T(y)")
            .unwrap();
        assert!(text.contains("GeneralizedChain"), "{text}");
        assert!(text.contains("price           : $6.00"), "{text}");
        assert!(text.contains("σ[S.Y=b1] @ $1.00"), "{text}");
        assert!(text.contains("arbitrage-freeness"), "{text}");
    }

    #[test]
    fn qdp_roundtrip_preserves_prices() {
        let market = Market::open_qdp(FIG1_QDP).unwrap();
        market.insert("T", [tuple!["b2"]]).unwrap();
        let before = market
            .quote_str("Q(x, y) :- R(x), S(x, y), T(y)")
            .unwrap()
            .price;
        let saved = market.to_qdp();
        let reopened = Market::open_qdp(&saved).unwrap();
        let after = reopened
            .quote_str("Q(x, y) :- R(x), S(x, y), T(y)")
            .unwrap()
            .price;
        assert_eq!(before, after);
    }

    #[test]
    fn bad_updates_rejected() {
        let market = Market::open_qdp(FIG1_QDP).unwrap();
        assert!(market.insert("Nope", [tuple!["a1"]]).is_err());
        assert!(market.insert("R", [tuple!["outside-column"]]).is_err());
        // State unchanged: the query still quotes at $6.
        assert_eq!(
            market
                .quote_str("Q(x, y) :- R(x), S(x, y), T(y)")
                .unwrap()
                .price,
            Price::dollars(6)
        );
    }

    /// Regression: `pretty::render` once named relations by rewriting
    /// every `R#<id>(` in the rendered text, text constants included, so
    /// these two queries shared one cache key and one price.
    #[test]
    fn constants_spelled_like_relations_keep_their_own_price() {
        let col = qbdp_catalog::Column::texts(["R#0(", "R("]);
        let catalog = qbdp_catalog::CatalogBuilder::new()
            .relation("R", &[("X", col)])
            .build()
            .unwrap();
        let r = catalog.schema().rel_id("R").unwrap();
        let mut instance = catalog.empty_instance();
        instance
            .insert_all(r, [tuple!["R#0("], tuple!["R("]])
            .unwrap();
        let mut prices = PriceList::new();
        let x = AttrRef::new(r, 0);
        prices.set(
            SelectionView::new(x, Value::text("R#0(")),
            Price::cents(100),
        );
        prices.set(SelectionView::new(x, Value::text("R(")), Price::cents(300));
        let hash = ("Q(x) :- R(x), x = 'R#0('", Price::cents(100));
        let paren = ("Q(x) :- R(x), x = 'R('", Price::cents(300));
        for order in [[hash, paren], [paren, hash]] {
            let market = Market::open(catalog.clone(), instance.clone(), prices.clone()).unwrap();
            let quotes = order.map(|(q, _)| market.quote_str(q).unwrap());
            for ((query, price), quote) in order.iter().zip(&quotes) {
                assert_eq!(quote.price, *price, "{query}");
            }
            for ((query, _), quote) in order.iter().zip(&quotes) {
                assert_eq!(quote.query, *query);
            }
        }
    }

    #[test]
    fn text_probe_serves_canonical_text_and_stays_coherent() {
        let market = Market::open_qdp(FIG1_QDP).unwrap();
        let chain = "Q(x, y) :- R(x), S(x, y), T(y)";
        let cold = |m: &Market, q: &str| {
            let fresh = Market::open_qdp(&m.to_qdp()).unwrap();
            fresh.quote_str(q).unwrap().price
        };
        let first = market.quote_str(chain).unwrap();
        assert_eq!(first.query, chain, "the request is the canonical key");
        // Canonical text, padded or not, is served the cached entry
        // itself; so is a variant spacing, through the canonical lookup.
        for spelling in [
            chain,
            "  Q(x, y) :- R(x), S(x, y), T(y)\n",
            "Q(x,y):-R(x),S(x,y),T(y)",
        ] {
            let hit = market.quote_str(spelling).unwrap();
            assert!(Arc::ptr_eq(&first, &hit), "`{spelling}` missed the cache");
        }
        // A renamed variable is another canonical key with the same price.
        let renamed = market.quote_str("Q(a, y) :- R(a), S(a, y), T(y)").unwrap();
        assert_eq!(renamed.price, first.price);
        assert_eq!(renamed.query, "Q(a, y) :- R(a), S(a, y), T(y)");

        // Updates touching the footprint re-price the canonical text;
        // a query over disjoint columns stays a hit.
        let over_r = market.quote_str("Q(x) :- R(x)").unwrap();
        market.set_price("S.Y=b1", Price::cents(25)).unwrap();
        let repriced = market.quote_str(chain).unwrap();
        assert_eq!(repriced.price, Price::cents(525));
        assert_eq!(repriced.price, cold(&market, chain));
        market.insert("T", [tuple!["b2"]]).unwrap();
        let grown = market.quote_str(chain).unwrap();
        assert_ne!(grown.price, repriced.price, "served a stale price");
        assert_eq!(grown.price, cold(&market, chain));
        assert!(Arc::ptr_eq(
            &over_r,
            &market.quote_str("Q(x) :- R(x)").unwrap()
        ));
    }

    /// Regression: the in-memory purchase once saturated revenue at
    /// `INFINITE` instead of refusing the sale that overflows it.
    #[test]
    fn purchase_refuses_revenue_overflow() {
        let near_max = Price::INFINITE.as_cents() - 1;
        let qdp = format!("schema V(X)\ncolumn V.X = {{v}}\ntuple V(v)\nprice V.X=v {near_max}\n");
        let market = Market::open_qdp(&qdp).unwrap();
        let first = market.purchase_str("Q(x) :- V(x)").unwrap();
        assert_eq!(first.quote.price, Price::cents(near_max));
        let ledger = market.with_ledger(Ledger::to_snapshot_text);
        assert!(matches!(
            market.purchase_str("Q(x) :- V(x)"),
            Err(MarketError::RevenueOverflow)
        ));
        assert_eq!(market.sales(), 1);
        assert_eq!(market.revenue(), Price::cents(near_max));
        assert_eq!(market.with_ledger(Ledger::to_snapshot_text), ledger);
    }
}
