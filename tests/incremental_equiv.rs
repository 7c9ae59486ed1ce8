//! Differential battery for the incremental pricing engine: a market
//! with the default (unlimited) policy serves every quote through the
//! plan cache + residual warm starts, and must be *observationally
//! identical* to a reference market pricing every quote cold. The
//! reference's far-off deadline makes its policy budgeted, which forces
//! the cold engine; its plan-cache counters are asserted to stay zero.
//! Random catalogs of the chain shape × random update streams
//! (`set_price` / `insert` interleaved with quotes) are replayed against
//! both markets; every quote must match field for field — price, lower
//! bound, receipt, views, method, class, and `QuoteQuality` — and every
//! error must match variant for variant. A separate run exercises tight
//! fuel budgets with `sell_degraded`, where the degraded `[lower, upper]`
//! intervals must also coincide (budgeted policies price cold, and this
//! is what holds the market to that).
//!
//! The headline test is a seeded exhaustion loop with an explicit
//! comparison counter: in release mode it must certify at least 10,000
//! quote comparisons (the acceptance bar), with a smaller stream count
//! under `debug_assertions` so `cargo test` stays quick.

use proptest::prelude::*;
use qbdp::prelude::*;
use std::time::Duration;

const N: i64 = 6; // column size: {0, …, 5}

/// xorshift64* — deterministic, dependency-free stream generator.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.0 = x;
        x.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }
}

fn chain_catalog() -> Catalog {
    let col = Column::int_range(0, N);
    CatalogBuilder::new()
        .uniform_relation("R", &["X"], &col)
        .uniform_relation("S", &["X", "Y"], &col)
        .uniform_relation("T", &["Y"], &col)
        .build()
        .unwrap()
}

/// Uniform starting price list: cheap enough that the random revisions
/// below keep the list arbitrage-free (see `random_set_price`).
fn base_prices(catalog: &Catalog) -> PriceList {
    let mut prices = PriceList::new();
    for attr in catalog.schema().all_attrs() {
        let name = catalog.schema().attr_display(attr);
        let cents = if name.starts_with("S.") { 150 } else { 100 };
        for v in catalog.column(attr).iter() {
            prices.set(SelectionView::new(attr, v.clone()), Price::cents(cents));
        }
    }
    prices
}

/// Query pool: every engine path the plan cache fronts. The chain join
/// exercises the GChQ flow network (and thus residual warm starts);
/// full single-relation queries take the certificate path; the
/// repeated-variable and constant-carrying shapes exercise the
/// transformed-attribute pre-seeding; the projection and boolean
/// shapes are priced outside the flow engine entirely.
const QUERIES: &[&str] = &[
    "Q(x, y) :- R(x), S(x, y), T(y)",
    "Q(x) :- R(x)",
    "Q(y) :- T(y)",
    "Q(x, y) :- S(x, y)",
    "Q(x) :- S(x, x)",
    "Q(y) :- S(0, y)",
    "Q(x) :- S(x, y)",
    "Q() :- S(x, y)",
    "Q() :- R(x), T(y)",
];

/// Open the warm/cold market pair over identical state. The warm one
/// keeps the default policy and serves through the plan cache; the cold
/// one has a deadline no quote here comes near, which routes every quote
/// through the cold engine without degrading any.
fn market_pair() -> (Market, Market) {
    let catalog = chain_catalog();
    let instance = catalog.empty_instance();
    let prices = base_prices(&catalog);
    let warm = Market::open(catalog.clone(), instance.clone(), prices.clone()).unwrap();
    let cold = Market::open(catalog, instance, prices).unwrap();
    cold.set_policy(MarketPolicy {
        deadline: Some(Duration::from_secs(3600)),
        ..MarketPolicy::default()
    })
    .unwrap();
    (warm, cold)
}

/// The reference market must never have priced through its plan cache.
#[track_caller]
fn assert_priced_cold(cold: &Market) {
    let stats = cold.plan_stats();
    assert_eq!(
        stats.hits + stats.misses + stats.warm_reprices + stats.evictions,
        0,
        "the cold reference market used its plan cache: {stats:?}"
    );
}

/// Every observable field of a quote must agree — bit-identical, not
/// merely equal prices.
#[track_caller]
fn assert_same_quote(query: &str, warm: &MarketQuote, cold: &MarketQuote) {
    assert_eq!(warm.price, cold.price, "price drift on `{query}`");
    assert_eq!(
        warm.lower_bound, cold.lower_bound,
        "lower-bound drift on `{query}`"
    );
    assert_eq!(warm.quality, cold.quality, "quality drift on `{query}`");
    assert_eq!(warm.method, cold.method, "method drift on `{query}`");
    assert_eq!(warm.class, cold.class, "class drift on `{query}`");
    assert_eq!(warm.views, cold.views, "view-set drift on `{query}`");
    assert_eq!(warm.receipt, cold.receipt, "receipt drift on `{query}`");
    assert_eq!(warm.query, cold.query, "rendering drift on `{query}`");
}

/// Quote `query` on both markets and demand identical outcomes
/// (matching quotes, or matching error variants). Returns 1 for the
/// comparison made.
#[track_caller]
fn compare_quote(warm: &Market, cold: &Market, query: &str) -> u64 {
    match (warm.quote_str(query), cold.quote_str(query)) {
        (Ok(w), Ok(c)) => assert_same_quote(query, &w, &c),
        (w, c) => {
            let (w, c) = (format!("{w:?}"), format!("{c:?}"));
            assert_eq!(w, c, "outcome drift on `{query}`");
        }
    }
    1
}

/// Revise one price on both markets, identically. Revisions on the
/// single-attribute relations (`R.X`, `T.Y`) draw from 50–449¢ — any
/// price is arbitrage-free there, since no bundle of other views covers
/// a selection on a relation's only column. Revisions on `S` stay in
/// 100–299¢: every alternative cover of an `S` selection needs all six
/// views of the other attribute (≥ 600¢ at the 100¢ floor), so no
/// revision in range can introduce arbitrage. Out of caution the two
/// outcomes are still compared rather than unwrapped.
fn random_set_price(rng: &mut Rng, warm: &Market, cold: &Market) {
    let (view, cents) = match rng.below(4) {
        0 => (format!("R.X={}", rng.below(N as u64)), 50 + rng.below(400)),
        1 => (format!("T.Y={}", rng.below(N as u64)), 50 + rng.below(400)),
        2 => (format!("S.X={}", rng.below(N as u64)), 100 + rng.below(200)),
        _ => (format!("S.Y={}", rng.below(N as u64)), 100 + rng.below(200)),
    };
    let w = warm.set_price(&view, Price::cents(cents));
    let c = cold.set_price(&view, Price::cents(cents));
    assert_eq!(
        w.is_ok(),
        c.is_ok(),
        "set_price({view}) diverged: {w:?} vs {c:?}"
    );
}

/// Insert one random tuple into both markets, identically.
fn random_insert(rng: &mut Rng, warm: &Market, cold: &Market) {
    let (a, b) = (rng.below(N as u64) as i64, rng.below(N as u64) as i64);
    let (rel, tuple) = match rng.below(3) {
        0 => ("R", tuple![a]),
        1 => ("S", tuple![a, b]),
        _ => ("T", tuple![b]),
    };
    let w = warm.insert(rel, [tuple.clone()]);
    let c = cold.insert(rel, [tuple]);
    assert_eq!(
        format!("{w:?}"),
        format!("{c:?}"),
        "insert into {rel} diverged"
    );
}

/// Replay one random update stream against a fresh market pair,
/// returning the number of quote comparisons performed.
fn run_stream(seed: u64, ops: usize) -> u64 {
    let mut rng = Rng(seed | 1);
    let (warm, cold) = market_pair();
    let mut comparisons = 0;
    for _ in 0..ops {
        match rng.below(5) {
            // Updates outnumber quotes 3:2 so plans are repeatedly
            // invalidated/repriced, not filled once and served forever.
            0 | 1 => random_set_price(&mut rng, &warm, &cold),
            2 => random_insert(&mut rng, &warm, &cold),
            _ => {}
        }
        // Two random quotes after every op: one immediately repeated
        // shape (the warm-start / cache-hit path), one fresh draw.
        let q = QUERIES[rng.below(QUERIES.len() as u64) as usize];
        comparisons += compare_quote(&warm, &cold, q);
        comparisons += compare_quote(&warm, &cold, q);
    }
    // Final sweep: after the stream settles, every pool query must
    // agree — catches staleness that the random draws happened to miss.
    for q in QUERIES {
        comparisons += compare_quote(&warm, &cold, q);
    }
    // The warm market must actually have exercised the incremental
    // engine, or the battery proves nothing.
    let stats = warm.plan_stats();
    assert!(
        stats.hits + stats.misses + stats.warm_reprices > 0,
        "incremental path never engaged: {stats:?}"
    );
    assert_priced_cold(&cold);
    comparisons
}

/// The headline battery: ≥ 10,000 randomized update-stream comparisons
/// in release mode (the acceptance bar), a fast subset under debug.
#[test]
fn warm_start_quotes_match_cold_start_over_random_update_streams() {
    let streams: u64 = if cfg!(debug_assertions) { 24 } else { 360 };
    let mut comparisons = 0u64;
    for stream in 0..streams {
        comparisons += run_stream(0x9E37_79B9_7F4A_7C15 ^ (stream * 0x0123_4567_89AB_CDEF), 12);
    }
    if !cfg!(debug_assertions) {
        assert!(
            comparisons >= 10_000,
            "only {comparisons} warm/cold comparisons — below the 10k acceptance bar"
        );
    }
}

/// Under a fuel budget with `sell_degraded`, both markets price cold
/// (budgeted policies never reach the plan cache), so the degraded
/// `[lower_bound, price]` intervals and `QuoteQuality` tags must be
/// identical — not merely both sound.
#[test]
fn degraded_intervals_match_under_tight_budgets() {
    let mut rng = Rng(0xD1F_FEED);
    for trial in 0..8u64 {
        let (warm, cold) = market_pair();
        let fuel = trial * 37; // 0 (instant exhaustion) through generous
        for market in [&warm, &cold] {
            let mut policy = market.policy();
            policy.fuel = Some(fuel);
            policy.sell_degraded = true;
            market.set_policy(policy).unwrap();
        }
        for _ in 0..4 {
            random_insert(&mut rng, &warm, &cold);
        }
        for q in QUERIES {
            match (warm.quote_str(q), cold.quote_str(q)) {
                (Ok(w), Ok(c)) => {
                    assert_same_quote(q, &w, &c);
                    if w.quality == QuoteQuality::UpperBound {
                        // The degraded interval, spelled out: both ends.
                        assert_eq!(w.lower_bound, c.lower_bound);
                        assert_eq!(w.price, c.price);
                    }
                }
                (w, c) => assert_eq!(format!("{w:?}"), format!("{c:?}"), "on `{q}`"),
            }
        }
        // The plan cache must have refused budgeted service entirely.
        let stats = warm.plan_stats();
        assert_eq!(
            stats.hits + stats.misses + stats.warm_reprices,
            0,
            "plan cache served under a fuel budget: {stats:?}"
        );
        assert_priced_cold(&cold);
    }
}

/// The plan cache prices every unlimited-budget quote, batched or
/// bought, not only serial quotes: after a revision, a batch warm-starts
/// the chain join to the cold price, and buying a shape the batch
/// already priced is a plan hit.
#[test]
fn batches_and_purchases_price_through_the_plan_cache() {
    let (warm, cold) = market_pair();
    for i in 0..N {
        for market in [&warm, &cold] {
            market.insert("R", [tuple![i]]).unwrap();
            market.insert("S", [tuple![i, (i + 1) % N]]).unwrap();
            market.insert("T", [tuple![(i + 1) % N]]).unwrap();
        }
    }
    let chain = QUERIES[0];
    warm.quote_batch(&[chain])[0].as_ref().unwrap();
    for market in [&warm, &cold] {
        market.set_price("R.X=1", Price::cents(275)).unwrap();
    }
    let before = warm.plan_stats();
    let batch = warm.quote_batch(&[chain, "Q(y) :- T(y)"]);
    assert_eq!(
        warm.plan_stats().warm_reprices,
        before.warm_reprices + 1,
        "the batch did not warm-start the chain join"
    );
    assert_same_quote(
        chain,
        batch[0].as_ref().unwrap(),
        &cold.quote_str(chain).unwrap(),
    );

    let hits = warm.plan_stats().hits;
    let bought = warm.purchase_str(chain).unwrap();
    assert_eq!(warm.plan_stats().hits, hits + 1, "the purchase priced cold");
    assert_same_quote(chain, &bought.quote, &cold.quote_str(chain).unwrap());
    assert_priced_cold(&cold);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Proptest wrapper over the same battery: shrinking finds the
    /// minimal op count on a divergence, which the seeded loop cannot.
    #[test]
    fn warm_cold_equivalence_holds_for_proptest_streams(
        seed in any::<u64>(),
        ops in 1usize..10,
    ) {
        run_stream(seed, ops);
    }
}
