//! Hand-rolled JSON encoding for the wire responses.
//!
//! No serde in the tree (vendored-shim discipline), and the response
//! shapes are small and fixed, so the encoder is a page of `push_str`
//! calls. Prices travel twice: as raw cents (`*_cents`, the field a
//! programmatic buyer does arithmetic on, `null` when the price is the
//! ∞ sentinel) and as the rendered display string. Degraded quotes
//! carry the sound `[lower, upper]` interval from
//! [`qbdp_core::QuoteQuality::UpperBound`] so a buyer can see exactly
//! how loose a budget-limited price is.

use qbdp_core::dichotomy::QueryClass;
use qbdp_core::{Price, PricingMethod, QuoteQuality};
use qbdp_market::{MarketError, MarketHealth, MarketQuote, Purchase};
use std::fmt::{self, Write as _};

/// Append `s` as a JSON string literal (with escaping).
pub fn push_str_lit(out: &mut String, s: &str) {
    out.push('"');
    // audit: bounded(one pass over the string being encoded)
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

/// Append a price's cents, `null` when it is the ∞ sentinel.
fn push_cents(out: &mut String, p: Price) {
    if p.is_finite() {
        // Writing into a `String` cannot fail.
        let _ = write!(out, "{}", p.as_cents());
    } else {
        out.push_str("null");
    }
}

/// Append a price as `"name_cents":N,"name":"$N.NN"` (cents `null`
/// when infinite).
fn push_price(out: &mut String, name: &str, p: Price) {
    out.push('"');
    out.push_str(name);
    out.push_str("_cents\":");
    push_cents(out, p);
    out.push_str(",\"");
    out.push_str(name);
    out.push_str("\":\"");
    // The display form (`$N.NN` or `∞`) needs no escaping.
    let _ = write!(out, "{p}");
    out.push('"');
}

/// Append an engine or class name as a string literal: its `Debug`
/// spelling, a static name for the plain variants and formatted in place
/// for the composite ones (whose `Debug` text needs no escaping).
fn push_name(out: &mut String, name: Option<&'static str>, value: &impl fmt::Debug) {
    out.push('"');
    match name {
        Some(n) => out.push_str(n),
        None => {
            let _ = write!(out, "{value:?}");
        }
    }
    out.push('"');
}

fn method_name(m: &PricingMethod) -> Option<&'static str> {
    Some(match m {
        PricingMethod::ChainFlow => "ChainFlow",
        PricingMethod::ChainBundleFlow => "ChainBundleFlow",
        PricingMethod::CycleCertificates => "CycleCertificates",
        PricingMethod::BooleanWitness => "BooleanWitness",
        PricingMethod::ExactCertificates => "ExactCertificates",
        PricingMethod::ExactSubset => "ExactSubset",
        PricingMethod::StructuralCover => "StructuralCover",
        PricingMethod::Trivial => "Trivial",
        PricingMethod::Disconnected(_) | PricingMethod::BooleanEmpty(_) => return None,
    })
}

fn class_name(c: &QueryClass) -> Option<&'static str> {
    Some(match c {
        QueryClass::GeneralizedChain => "GeneralizedChain",
        QueryClass::OutsideDichotomy => "OutsideDichotomy",
        QueryClass::Cycle(_) | QueryClass::Disconnected(_) | QueryClass::NpComplete(_) => {
            return None
        }
    })
}

/// Encode one quote.
pub fn quote(q: &MarketQuote) -> String {
    let mut out = String::with_capacity(256);
    out.push_str("{\"query\":");
    push_str_lit(&mut out, &q.query);
    out.push(',');
    push_price(&mut out, "price", q.price);
    out.push_str(",\"quality\":");
    match q.quality {
        QuoteQuality::Exact => out.push_str("\"exact\""),
        QuoteQuality::UpperBound => {
            out.push_str("\"upper_bound\",\"interval_cents\":[");
            push_cents(&mut out, q.lower_bound);
            out.push(',');
            push_cents(&mut out, q.price);
            out.push(']');
        }
    }
    out.push_str(",\"method\":");
    push_name(&mut out, method_name(&q.method), &q.method);
    out.push_str(",\"class\":");
    push_name(&mut out, class_name(&q.class), &q.class);
    out.push_str(",\"receipt\":[");
    // audit: bounded(one pass over the quote's receipt lines)
    for (i, line) in q.receipt.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        push_str_lit(&mut out, line);
    }
    out.push_str("]}");
    out
}

/// Encode one completed purchase.
pub fn purchase(p: &Purchase) -> String {
    let mut out = String::with_capacity(512);
    out.push_str("{\"transaction_id\":");
    out.push_str(&p.transaction_id.to_string());
    out.push_str(",\"quote\":");
    out.push_str(&quote(&p.quote));
    out.push_str(",\"answer\":[");
    // audit: bounded(one pass over the purchased answer's tuples)
    for (i, t) in p.answer.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        push_str_lit(&mut out, &t.to_string());
    }
    out.push_str("]}");
    out
}

/// Encode one market error.
pub fn error(e: &MarketError) -> String {
    let mut out = String::with_capacity(128);
    out.push_str("{\"error\":{\"kind\":\"");
    out.push_str(kind(e));
    out.push_str("\",\"message\":");
    push_str_lit(&mut out, &e.to_string());
    out.push_str("}}");
    out
}

/// Encode the health probe body.
pub fn health(h: &MarketHealth) -> String {
    match h {
        MarketHealth::Healthy => "{\"status\":\"healthy\"}".to_string(),
        MarketHealth::ReadOnly { reason } => {
            let mut out = String::from("{\"status\":\"read_only\",\"reason\":");
            push_str_lit(&mut out, reason);
            out.push('}');
            out
        }
    }
}

/// The stable machine-readable error kind.
pub fn kind(e: &MarketError) -> &'static str {
    match e {
        MarketError::InconsistentPrices(_) => "inconsistent_prices",
        MarketError::Pricing(_) => "pricing",
        MarketError::Query(_) => "query",
        MarketError::NotForSale => "not_for_sale",
        MarketError::Update(_) => "update",
        MarketError::DeadlineExceeded => "deadline_exceeded",
        MarketError::Overloaded => "overloaded",
        MarketError::Internal(_) => "internal",
        MarketError::Store(_) => "store",
        MarketError::RevenueOverflow => "revenue_overflow",
        MarketError::Contended => "contended",
        MarketError::Degraded(_) => "degraded",
    }
}

/// The typed error→HTTP mapping (documented in DESIGN §4.7):
///
/// | errors | status |
/// |---|---|
/// | `Query`, `Update` | 400 (the buyer's request is wrong) |
/// | `NotForSale` | 404 (no finite price exists) |
/// | `InconsistentPrices`, `Contended` | 409 (state conflict; retryable for `Contended`) |
/// | `Overloaded` | 429 (admission control; retry with backoff) |
/// | `DeadlineExceeded`, `Degraded` | 503 (the service, not the request) |
/// | `Pricing`, `Internal`, `Store`, `RevenueOverflow` | 500 |
pub fn status(e: &MarketError) -> (u16, &'static str) {
    match e {
        MarketError::Query(_) | MarketError::Update(_) => (400, "Bad Request"),
        MarketError::NotForSale => (404, "Not Found"),
        MarketError::InconsistentPrices(_) | MarketError::Contended => (409, "Conflict"),
        MarketError::Overloaded => (429, "Too Many Requests"),
        MarketError::DeadlineExceeded | MarketError::Degraded(_) => (503, "Service Unavailable"),
        MarketError::Pricing(_)
        | MarketError::Internal(_)
        | MarketError::Store(_)
        | MarketError::RevenueOverflow => (500, "Internal Server Error"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qbdp_core::dichotomy::NpReason;

    #[test]
    fn string_escaping() {
        let mut out = String::new();
        push_str_lit(&mut out, "a\"b\\c\nd\u{1}");
        assert_eq!(out, "\"a\\\"b\\\\c\\nd\\u0001\"");
    }

    #[test]
    fn overloaded_maps_to_429() {
        assert_eq!(status(&MarketError::Overloaded).0, 429);
        assert_eq!(kind(&MarketError::Overloaded), "overloaded");
    }

    fn market_quote(
        price: Price,
        lower_bound: Price,
        quality: QuoteQuality,
        method: PricingMethod,
        class: QueryClass,
    ) -> MarketQuote {
        MarketQuote {
            query: "Q(x) :- R(x), x = 'say \"hi\"'".into(),
            price,
            receipt: vec!["σ[R.X=a1] @ $1.00".into(), "σ[R.X=a2] @ $10.05".into()],
            views: Vec::new(),
            method,
            class,
            quality,
            lower_bound,
        }
    }

    /// The wire format is a contract with buyers: these bodies are
    /// pinned byte for byte.
    #[test]
    fn quote_bodies_are_pinned() {
        let exact = market_quote(
            Price::cents(1105),
            Price::cents(1105),
            QuoteQuality::Exact,
            PricingMethod::ChainFlow,
            QueryClass::GeneralizedChain,
        );
        assert_eq!(
            quote(&exact),
            r#"{"query":"Q(x) :- R(x), x = 'say \"hi\"'","price_cents":1105,"price":"$11.05","quality":"exact","method":"ChainFlow","class":"GeneralizedChain","receipt":["σ[R.X=a1] @ $1.00","σ[R.X=a2] @ $10.05"]}"#
        );
        let upper = market_quote(
            Price::cents(70),
            Price::cents(7),
            QuoteQuality::UpperBound,
            PricingMethod::Disconnected(vec![
                PricingMethod::StructuralCover,
                PricingMethod::BooleanEmpty(Box::new(PricingMethod::Trivial)),
            ]),
            QueryClass::Disconnected(vec![
                QueryClass::NpComplete(NpReason::NotFullNotBoolean),
                QueryClass::Cycle(3),
            ]),
        );
        assert_eq!(
            quote(&upper),
            r#"{"query":"Q(x) :- R(x), x = 'say \"hi\"'","price_cents":70,"price":"$0.70","quality":"upper_bound","interval_cents":[7,70],"method":"Disconnected([StructuralCover, BooleanEmpty(Trivial)])","class":"Disconnected([NpComplete(NotFullNotBoolean), Cycle(3)])","receipt":["σ[R.X=a1] @ $1.00","σ[R.X=a2] @ $10.05"]}"#
        );
        let unbounded = market_quote(
            Price::INFINITE,
            Price::INFINITE,
            QuoteQuality::UpperBound,
            PricingMethod::StructuralCover,
            QueryClass::OutsideDichotomy,
        );
        assert_eq!(
            quote(&unbounded),
            r#"{"query":"Q(x) :- R(x), x = 'say \"hi\"'","price_cents":null,"price":"∞","quality":"upper_bound","interval_cents":[null,null],"method":"StructuralCover","class":"OutsideDichotomy","receipt":["σ[R.X=a1] @ $1.00","σ[R.X=a2] @ $10.05"]}"#
        );
    }

    #[test]
    fn degraded_maps_to_503() {
        assert_eq!(status(&MarketError::Degraded("disk full".into())).0, 503);
    }
}
