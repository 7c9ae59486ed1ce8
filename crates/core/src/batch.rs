//! Parallel batch pricing: fan a slice of jobs over a scoped worker
//! pool.
//!
//! Equation 2 makes the arbitrage-price a pure function of the instance
//! epoch, the (normalized) query, and the price points — quotes for
//! different queries share no mutable state beyond the plan cache, whose
//! per-shape shards a job locks only for its own shape — so a batch of
//! them is embarrassingly parallel. The pool ([`run_batch`]) is `N`
//! workers stealing job indices from a shared [`Injector`]; each worker
//! prices whole jobs, so its thread-local Dinic arena (see
//! `qbdp_flow::DinicArena`) is reused across every flow run it performs.
//! The caller's [`Budget`] is [split][Budget::split] across jobs — fuel
//! divided evenly, the wall-clock deadline shared — so a batch obeys the
//! same governance envelope as the serial loop it replaces.
//!
//! Panic containment is per job: a pricing engine that panics poisons only
//! its own slot (surfacing as [`PricingError::Internal`]), never its
//! batch-mates.

use crate::budget::Budget;
use crate::error::PricingError;
use crate::pricer::{Pricer, Quote};
use crossbeam::deque::{Injector, Steal};
use qbdp_query::ast::Ucq;
use qbdp_query::bundle::Bundle;
use std::panic::{catch_unwind, AssertUnwindSafe};

/// Worker count used when the caller does not pick one: the machine's
/// available parallelism (1 when it cannot be determined).
pub fn default_workers() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    payload
        .downcast_ref::<&str>()
        .map(|s| s.to_string())
        .or_else(|| payload.downcast_ref::<String>().cloned())
        .unwrap_or_else(|| "pricing engine panicked".to_string())
}

/// Run `job` over every element of `jobs` on a scoped pool of `workers`
/// threads, under one shared [`Budget`].
///
/// The budget is [split][Budget::split] into one sub-budget per job:
/// fuel is divided evenly across the batch, the deadline is shared, and
/// cancelling the parent budget stops every job. `workers == 0` means
/// [`default_workers`]; the count is capped at `jobs.len()`, and one
/// worker (or one job) runs inline on the caller's thread (still under
/// split budgets, so results match the parallel path exactly). Results
/// are positionally aligned with `jobs`; a panicking job fails only its
/// own slot, as [`PricingError::Internal`].
pub fn run_batch<J, T, E>(
    jobs: &[J],
    budget: &Budget,
    workers: usize,
    job: impl Fn(&J, &Budget) -> Result<T, E> + Sync,
) -> Vec<Result<T, E>>
where
    J: Sync,
    T: Send,
    E: Send + From<PricingError>,
{
    if jobs.is_empty() {
        return Vec::new();
    }
    let budgets = budget.split(jobs.len());
    let run = |i: usize| {
        catch_unwind(AssertUnwindSafe(|| job(&jobs[i], &budgets[i])))
            .unwrap_or_else(|p| Err(PricingError::Internal(panic_message(p)).into()))
    };
    let workers = match (jobs.len(), workers) {
        // A lone job runs inline: no need to ask how many cores there
        // are (`available_parallelism` reads cgroup files, ~20 µs).
        (1, _) => 1,
        (_, 0) => default_workers(),
        (_, n) => n,
    }
    .min(jobs.len());
    if workers == 1 {
        return (0..jobs.len()).map(run).collect();
    }
    let injector = Injector::new();
    for i in 0..jobs.len() {
        injector.push(i);
    }
    let mut slots: Vec<Option<Result<T, E>>> = Vec::new();
    slots.resize_with(jobs.len(), || None);
    let done = crossbeam::thread::scope(|scope| {
        let handles: Vec<_> = (0..workers)
            .map(|_| {
                scope.spawn(|_| {
                    // One worker = one OS thread = one thread-local
                    // Dinic arena reused across every stolen job.
                    let mut out: Vec<(usize, Result<T, E>)> = Vec::new();
                    loop {
                        match injector.steal() {
                            Steal::Success(i) => out.push((i, run(i))),
                            Steal::Empty => break,
                            Steal::Retry => continue,
                        }
                    }
                    out
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().unwrap_or_default())
            .collect::<Vec<_>>()
    })
    .unwrap_or_default();
    for (i, r) in done {
        slots[i] = Some(r);
    }
    slots
        .into_iter()
        .map(|slot| {
            slot.unwrap_or_else(|| {
                Err(
                    PricingError::Internal("batch worker died before pricing this job".to_string())
                        .into(),
                )
            })
        })
        .collect()
}

impl Pricer {
    /// Price one bundle the way the serial façade would: single-query
    /// bundles go through the dichotomy dispatch (so batch results are
    /// bit-identical to [`Pricer::price_ucq_within`]), genuine bundles
    /// through the bundle engines.
    fn price_job(&self, bundle: &Bundle, budget: &Budget) -> Result<Quote, PricingError> {
        match bundle.queries() {
            [single] => self.price_ucq_within(single, budget),
            _ => self.price_bundle_within(bundle, budget),
        }
    }

    /// Price a batch of bundles in parallel under one shared [`Budget`],
    /// with [`default_workers`] worker threads.
    ///
    /// Results are positionally aligned with `bundles`. Per-job failures
    /// (including engine panics) land in that job's slot only.
    pub fn price_batch_within(
        &self,
        bundles: &[Bundle],
        budget: &Budget,
    ) -> Vec<Result<Quote, PricingError>> {
        self.price_batch_with_workers(bundles, budget, default_workers())
    }

    /// [`Pricer::price_batch_within`] with an explicit worker count
    /// (`0` = [`default_workers`]): the bundles run through [`run_batch`].
    pub fn price_batch_with_workers(
        &self,
        bundles: &[Bundle],
        budget: &Budget,
        workers: usize,
    ) -> Vec<Result<Quote, PricingError>> {
        run_batch(bundles, budget, workers, |b, sub| self.price_job(b, sub))
    }

    /// Convenience: parse and price a batch of datalog rules in parallel.
    /// One parse error fails only its own slot.
    pub fn price_rules_batch_within(
        &self,
        rules: &[&str],
        budget: &Budget,
        workers: usize,
    ) -> Vec<Result<Quote, PricingError>> {
        let parsed: Vec<Result<Bundle, PricingError>> = rules
            .iter()
            .map(|rule| {
                qbdp_query::parser::parse_rule(self.catalog().schema(), rule)
                    .map(|q| Bundle::single(Ucq::single(q)))
                    .map_err(PricingError::from)
            })
            .collect();
        let bundles: Vec<Bundle> = parsed
            .iter()
            .filter_map(|r| r.as_ref().ok().cloned())
            .collect();
        let mut priced = self
            .price_batch_with_workers(&bundles, budget, workers)
            .into_iter();
        parsed
            .into_iter()
            .map(|slot| match slot {
                Ok(_) => priced
                    .next()
                    .unwrap_or_else(|| Err(PricingError::Internal("missing batch slot".into()))),
                Err(e) => Err(e),
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::money::Price;
    use crate::price_points::PriceList;
    use qbdp_catalog::{tuple, CatalogBuilder, Column};
    use qbdp_query::parser::parse_rule;

    fn pricer() -> Pricer {
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
            [tuple!["a1", "b1"], tuple!["a1", "b2"], tuple!["a2", "b2"]],
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

    fn queries() -> Vec<&'static str> {
        vec![
            "Q(x, y) :- R(x), S(x, y), T(y)",
            "Q(x) :- R(x)",
            "Q(x, y) :- S(x, y)",
            "Q(y) :- T(y)",
            "Q(x, y) :- R(x), S(x, y)",
            "B() :- R(x), S(x, y), T(y)",
        ]
    }

    #[test]
    fn batch_matches_serial_quotes() {
        let p = pricer();
        let rules = queries();
        let serial: Vec<Price> = rules
            .iter()
            .map(|r| {
                let q = parse_rule(p.catalog().schema(), r).unwrap();
                p.price_cq(&q).unwrap().price
            })
            .collect();
        for workers in [1, 2, 4, 16] {
            let batch = p.price_rules_batch_within(&rules, &Budget::unlimited(), workers);
            let batch_prices: Vec<Price> = batch.into_iter().map(|r| r.unwrap().price).collect();
            assert_eq!(batch_prices, serial, "workers={workers}");
        }
    }

    #[test]
    fn batch_slots_align_with_inputs_and_isolate_parse_errors() {
        let p = pricer();
        let rules = vec!["Q(x) :- R(x)", "this is not datalog", "Q(y) :- T(y)"];
        let out = p.price_rules_batch_within(&rules, &Budget::unlimited(), 2);
        assert!(out[0].is_ok());
        assert!(out[1].is_err());
        assert!(out[2].is_ok());
        assert_eq!(out.len(), 3);
    }

    #[test]
    fn empty_batch_is_empty() {
        let p = pricer();
        assert!(p.price_batch_within(&[], &Budget::unlimited()).is_empty());
    }

    #[test]
    fn batch_respects_fuel_split() {
        let p = pricer();
        let rules = queries();
        // A starvation budget degrades every job instead of erroring.
        let out = p.price_rules_batch_within(&rules, &Budget::with_fuel(6), 2);
        for r in out {
            let quote = r.unwrap();
            assert!(
                !quote.quality.is_exact(),
                "starved jobs must degrade, got exact {quote:?}"
            );
        }
    }
}
