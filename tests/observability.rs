//! Observability acceptance (DESIGN §4.6): the three user-visible
//! claims of the telemetry subsystem, driven end-to-end through the
//! CLI command layer the way an operator would reach them.
//!
//! 1. `price --trace` emits the complete pipeline span tree for the
//!    paper's Figure-1 query;
//! 2. after a workload, `stats` exports non-zero metrics in both the
//!    Prometheus text format and JSON;
//! 3. a forced degraded quote lands in the flight recorder and is
//!    visible via `stats --flight`, whether it was quoted alone or in a
//!    batch (the HTTP server's path);
//! 4. the quote cache's text probe tallies each slot once and keeps
//!    its `cache_lookup` span.
//!
//! Telemetry state (the enabled flag, the registry, the flight ring) is
//! process-global, so all three claims live in ONE test fn in its own
//! integration binary: nothing else in this process toggles the flag
//! concurrently, and the counters this test reads are its own.

use qbdp::cli;
use qbdp::prelude::*;
use qbdp::workload::{dbgen, prices as wprices, queries};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::time::Duration;

const FIG1_QDP: &str = include_str!("../data/figure1.qdp");

#[test]
fn telemetry_acceptance_end_to_end() {
    // --- 1. the pipeline trace for the Figure-1 chain query. -------
    let market = Market::open_qdp(FIG1_QDP).unwrap();
    market
        .set_policy(MarketPolicy {
            telemetry: true,
            ..MarketPolicy::default()
        })
        .unwrap();
    let out = cli::run_command(&market, "price --trace Q(x, y) :- R(x), S(x, y), T(y)");
    assert!(out.contains("price : $6.00"), "quote itself wrong:\n{out}");
    for span in [
        r#""span":"cache_lookup","detail":"miss""#,
        r#""span":"classify","detail":"gchq""#,
        r#""span":"normalize","detail":"steps_1_3""#,
        r#""span":"flow_solve","detail":"done""#,
    ] {
        assert!(out.contains(span), "missing span `{span}` in:\n{out}");
    }

    // --- 2. non-zero metrics in both export formats. ---------------
    // The trace run above already served one quote through one cache
    // miss; a second quote hits the cache, so both sides of the
    // hit/miss tally are provably non-zero, not just "some counter".
    let quote = market.quote_str("Q(x, y) :- R(x), S(x, y), T(y)").unwrap();
    assert!(quote.quality.is_exact());
    let prom = cli::run_command(&market, "stats");
    for needle in [
        "# TYPE qbdp_market_quotes_total counter",
        "qbdp_market_cache_hits_total 1",
        "qbdp_market_quote_latency_us_count",
    ] {
        assert!(prom.contains(needle), "missing `{needle}` in:\n{prom}");
    }
    assert!(
        !prom.contains("qbdp_market_quotes_total 0"),
        "quotes counter stayed zero:\n{prom}"
    );
    let json = cli::run_command(&market, "stats --json");
    assert!(
        json.contains(r#""qbdp_market_cache_hits_total": 1"#)
            || json.contains(r#""qbdp_market_cache_hits_total":1"#),
        "cache-hit tally missing from JSON:\n{json}"
    );
    assert!(
        json.contains("qbdp_market_quote_latency_us"),
        "latency histogram missing from JSON:\n{json}"
    );

    // --- 3. a forced degraded quote reaches the flight recorder. ---
    let qs = queries::h4_schema(199).unwrap();
    let mut rng = StdRng::seed_from_u64(42);
    let d = dbgen::populate_zipf(&qs.catalog, &mut rng, 40_000, 0.8).unwrap();
    let hard = Market::open(
        qs.catalog.clone(),
        d,
        wprices::uniform(&qs.catalog, Price::dollars(1)),
    )
    .unwrap();
    hard.set_policy(MarketPolicy {
        telemetry: true,
        deadline: Some(Duration::from_millis(1)),
        sell_degraded: true,
        ..MarketPolicy::default()
    })
    .unwrap();
    let degraded = hard.quote_str("H4(x) :- R(x, y)").unwrap();
    assert!(!degraded.quality.is_exact(), "expected a degraded quote");
    let flight = cli::run_command(&hard, "stats --flight");
    assert!(
        flight.contains(r#""why":"degraded""#),
        "degraded quote not captured by the flight recorder:\n{flight}"
    );
    assert!(
        flight.contains("H4(x) :- R(x, y)"),
        "flight record lost the query text:\n{flight}"
    );

    // --- 4. durable purchases share the serial telemetry epilogue. --
    let dir = std::env::temp_dir().join(format!("qbdp_obs_durable_{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    let dm = DurableMarket::create(&dir, FIG1_QDP, FsyncPolicy::Never).unwrap();
    dm.set_policy(MarketPolicy {
        telemetry: true,
        ..MarketPolicy::default()
    })
    .unwrap();
    let purchases = || {
        qbdp_obs::global()
            .counter(qbdp_obs::Ctr::MarketPurchases)
            .get()
    };
    let before = purchases();
    dm.purchase_str("Q(x) :- R(x)").unwrap();
    assert_eq!(purchases(), before + 1, "one durable purchase, one count");
    dm.set_policy(MarketPolicy {
        telemetry: true,
        fuel: Some(1),
        sell_degraded: true,
        ..MarketPolicy::default()
    })
    .unwrap();
    let chain = "Q(x, y) :- R(x), S(x, y), T(y)";
    let degraded = dm.purchase_str(chain).unwrap();
    assert!(!degraded.quote.quality.is_exact(), "fuel 1 must degrade");
    assert!(
        qbdp_obs::flight::dump()
            .iter()
            .any(|r| r.why == qbdp_obs::flight::Why::Degraded && r.query == chain),
        "degraded durable purchase not captured by the flight recorder"
    );
    drop(dm);
    std::fs::remove_dir_all(&dir).ok();

    // --- 5. every batch slot gets the outcome epilogue. -------------
    let starved = Market::open_qdp(FIG1_QDP).unwrap();
    starved
        .set_policy(MarketPolicy {
            telemetry: true,
            fuel: Some(1),
            sell_degraded: true,
            ..MarketPolicy::default()
        })
        .unwrap();
    let quotes = || {
        qbdp_obs::global()
            .counter(qbdp_obs::Ctr::MarketQuotes)
            .get()
    };
    let pair = ["Q(x, y) :- R(x), S(x, y)", "Q(x, y) :- S(x, y), T(y)"];
    let degraded_entries = |query: &str| {
        qbdp_obs::flight::dump()
            .iter()
            .filter(|r| r.why == qbdp_obs::flight::Why::Degraded && r.query == query)
            .count()
    };
    let before = quotes();
    for slot in starved.quote_batch(&pair) {
        assert!(!slot.unwrap().quality.is_exact(), "fuel 1 must degrade");
    }
    assert_eq!(quotes(), before + 2, "a batch of two counts two quotes");
    for query in pair {
        assert_eq!(degraded_entries(query), 1, "no flight entry for `{query}`");
    }
    let before = quotes();
    assert!(!starved.quote_str(pair[0]).unwrap().quality.is_exact());
    assert_eq!(quotes(), before + 1, "one quote_str counts one quote");
    assert_eq!(degraded_entries(pair[0]), 2);

    // --- 6. the text probe counts each slot once and is traced. -----
    // A request spelled as a cached canonical key is served before any
    // parse; every other spelling misses that probe uncounted and is
    // counted once by the canonical lookup after it.
    let probed = Market::open_qdp(FIG1_QDP).unwrap();
    probed
        .set_policy(MarketPolicy {
            telemetry: true,
            ..MarketPolicy::default()
        })
        .unwrap();
    let lookups = || {
        let r = qbdp_obs::global();
        (
            r.counter(qbdp_obs::Ctr::MarketCacheHits).get(),
            r.counter(qbdp_obs::Ctr::MarketCacheMisses).get(),
        )
    };
    let batch = [
        "Q(x) :- R(x)",             // cold: canonical miss
        "Q(y) :- T(y)",             // cold: canonical miss
        "Q(x) :- R(x)",             // text-probe hit
        "Q(x)  :-  R(x)",           // text-probe miss, canonical hit
        "  Q(y) :- T(y)\n",         // trimmed, then a text-probe hit
        "Q(x, y) :- S(x, y), T(y)", // cold: canonical miss
    ];
    let (hits, misses) = lookups();
    let first = probed.quote_batch(&batch[..2]);
    let out = probed.quote_batch(&batch[2..]);
    assert!(first.iter().chain(&out).all(Result::is_ok));
    let (hits_after, misses_after) = lookups();
    assert_eq!(
        (hits_after - hits, misses_after - misses),
        (3, 3),
        "one tally per slot: three hits, three misses"
    );
    qbdp_obs::trace::begin();
    let hit = probed.quote_batch(&["Q(x) :- R(x)"]);
    let spans = qbdp_obs::trace::finish();
    assert!(hit[0].is_ok());
    assert!(
        spans
            .iter()
            .any(|s| s.name == "cache_lookup" && s.detail == "hit"),
        "a text-probe hit lost its cache_lookup span: {spans:?}"
    );

    // Leave the process-global flag the way the next binary expects it.
    hard.set_policy(MarketPolicy::default()).unwrap();
    assert!(!qbdp_obs::enabled());
}
