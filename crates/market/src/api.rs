//! [`MarketOps`]: one surface over [`Market`] and [`DurableMarket`].
//!
//! Hosts (the CLI, the server, tests, embedders) take `&dyn MarketOps`
//! or are generic over `M: MarketOps` and serve either flavor through
//! the same code path. Every call lands on the one [`Market`] returned
//! by [`MarketOps::base`]: it journals its own mutations, so the
//! durable flavor needs no overrides beyond [`MarketOps::durable`].

use crate::durable::DurableMarket;
use crate::error::MarketError;
use crate::market::{Market, MarketHealth, MarketPolicy, Purchase};
use qbdp_catalog::Tuple;
use qbdp_core::Price;

/// The common market surface. See the module docs.
///
/// The trait is **object-safe** by contract: the serving layer holds a
/// `&dyn MarketOps` so plain and durable markets share one code path.
/// The assertion below (and its twin in `qbdp-serve`) turns an
/// accidental generic method into a compile error here rather than a
/// confusing one downstream. `Sync` is a supertrait because a served
/// market is shared with the event-loop thread (and load harnesses)
/// by reference.
pub trait MarketOps: Sync {
    /// The market answering every call.
    fn base(&self) -> &Market;

    /// Seller-side tuple insertion (§2.7). Returns the number of tuples
    /// actually added.
    fn insert(&self, relation: &str, tuples: Vec<Tuple>) -> Result<usize, MarketError> {
        self.base().insert(relation, tuples)
    }

    /// Seller-side price revision (`R.X=a` selector syntax).
    fn set_price(&self, view: &str, price: Price) -> Result<(), MarketError> {
        self.base().set_price(view, price)
    }

    /// Purchase a query given in datalog syntax.
    fn purchase_str(&self, query: &str) -> Result<Purchase, MarketError> {
        self.base().purchase_str(query)
    }

    /// Replace the governance policy.
    fn set_policy(&self, policy: MarketPolicy) -> Result<(), MarketError> {
        self.base().set_policy(policy)
    }

    /// The durable wrapper, when this market has one — for operations
    /// that only make sense with a directory (compaction, forced sync).
    fn durable(&self) -> Option<&DurableMarket> {
        None
    }

    /// Serving health: [`MarketHealth::ReadOnly`] once the market's log
    /// stops acknowledging writes (never, in memory). Servers probe this
    /// for `/health`.
    fn health(&self) -> MarketHealth {
        self.base().health()
    }

    /// A Prometheus-text snapshot of the process-wide telemetry registry
    /// (counters, gauges, and latency histograms). Metrics are recorded
    /// only while [`MarketPolicy::telemetry`] is on; the snapshot itself
    /// is always available (all-zero when telemetry never ran).
    fn metrics_snapshot(&self) -> String {
        qbdp_obs::export::prometheus(qbdp_obs::global())
    }
}

impl MarketOps for Market {
    fn base(&self) -> &Market {
        self
    }
}

impl MarketOps for DurableMarket {
    fn base(&self) -> &Market {
        self.market()
    }

    fn durable(&self) -> Option<&DurableMarket> {
        Some(self)
    }
}

/// Compile-time object-safety assertion: this line fails to build the
/// moment a generic method or `Self`-returning signature sneaks into
/// the trait.
const _: Option<&dyn MarketOps> = None;

#[cfg(test)]
mod tests {
    use super::*;
    use qbdp_catalog::{CatalogBuilder, Column};
    use qbdp_core::PriceList;

    fn tiny_market() -> Market {
        let col = Column::int_range(0, 3);
        let catalog = CatalogBuilder::new()
            .uniform_relation("R", &["X"], &col)
            .build()
            .expect("catalog");
        let d = catalog.empty_instance();
        let prices = PriceList::uniform(&catalog, qbdp_core::Price::dollars(1));
        Market::open(catalog, d, prices).expect("market")
    }

    #[test]
    fn dyn_market_ops_serves_reads_and_health() {
        let m = tiny_market();
        let ops: &dyn MarketOps = &m;
        assert!(matches!(ops.health(), MarketHealth::Healthy));
        assert!(ops.durable().is_none());
        let quotes = ops.base().quote_batch(&["Q() :- R(0)"]);
        assert_eq!(quotes.len(), 1);
        assert!(quotes[0].is_ok(), "{quotes:?}");
    }
}
