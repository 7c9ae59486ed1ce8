//! Market-layer errors.

use qbdp_core::PricingError;
use qbdp_query::QueryError;
use qbdp_store::StoreError;
use std::fmt;

/// Errors surfaced by the marketplace.
#[derive(Debug)]
pub enum MarketError {
    /// The seller's price list admits arbitrage (Proposition 3.2); the
    /// violations are rendered in the message.
    InconsistentPrices(String),
    /// Pricing failed.
    Pricing(PricingError),
    /// The buyer's query did not parse or validate.
    Query(QueryError),
    /// The query is not for sale at any finite price (the price points do
    /// not determine it).
    NotForSale,
    /// Data update rejected (e.g. value outside a declared column).
    Update(String),
    /// The per-quote budget ran out and the market's policy forbids
    /// selling degraded (upper-bound) quotes.
    DeadlineExceeded,
    /// Too many quotes in flight (the market's admission cap); retry later.
    Overloaded,
    /// A pricing engine panicked; the panic was contained at the market
    /// boundary and the market keeps serving other requests.
    Internal(String),
    /// The durability layer failed (I/O, corrupt log record, damaged
    /// snapshot…). For a live mutation this means the event was **not**
    /// durably recorded and the in-memory state was left unchanged.
    Store(StoreError),
    /// The sale (live, or replayed from the log) would push total revenue
    /// past the representable range. The market refuses rather than
    /// wrapping or silently saturating: the books must equal the real
    /// ones, and a recovered market must reproduce them.
    RevenueOverflow,
    /// A purchase kept colliding with concurrent data or price
    /// mutations: every quote was invalidated before it could be
    /// recorded. Nothing was recorded; retry when the update stream
    /// quiets down.
    Contended,
    /// The market has degraded to read-only serving: the durability
    /// layer can no longer acknowledge mutations (disk full, or an fsync
    /// failure poisoned the log), so accepting this one could lose it.
    /// Quotes keep serving from the last consistent state — they are
    /// still sound arbitrage-free prices — and reopening the market
    /// after the fault clears recovers cleanly. The string carries the
    /// originating store-layer diagnosis.
    Degraded(String),
}

impl fmt::Display for MarketError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MarketError::InconsistentPrices(m) => {
                write!(f, "price list admits arbitrage: {m}")
            }
            MarketError::Pricing(e) => write!(f, "{e}"),
            MarketError::Query(e) => write!(f, "{e}"),
            MarketError::NotForSale => {
                write!(f, "the explicit price points do not determine this query")
            }
            MarketError::Update(m) => write!(f, "update rejected: {m}"),
            MarketError::DeadlineExceeded => {
                write!(
                    f,
                    "the pricing budget ran out before an exact price was found \
                     (enable degraded quotes to sell an upper bound)"
                )
            }
            MarketError::Overloaded => {
                write!(f, "too many quotes in flight; retry later")
            }
            MarketError::Internal(m) => {
                write!(f, "internal pricing failure (contained): {m}")
            }
            MarketError::Store(e) => write!(f, "durability failure: {e}"),
            MarketError::RevenueOverflow => {
                write!(
                    f,
                    "revenue would exceed the representable range; \
                     refusing to record wrapped books"
                )
            }
            MarketError::Contended => {
                write!(
                    f,
                    "purchase repeatedly invalidated by concurrent updates; retry later"
                )
            }
            MarketError::Degraded(reason) => {
                write!(
                    f,
                    "market is read-only (durability degraded: {reason}); \
                     quotes keep serving, mutations are refused"
                )
            }
        }
    }
}

impl std::error::Error for MarketError {}

impl From<PricingError> for MarketError {
    fn from(e: PricingError) -> Self {
        MarketError::Pricing(e)
    }
}

impl From<QueryError> for MarketError {
    fn from(e: QueryError) -> Self {
        MarketError::Query(e)
    }
}

impl From<StoreError> for MarketError {
    fn from(e: StoreError) -> Self {
        MarketError::Store(e)
    }
}
