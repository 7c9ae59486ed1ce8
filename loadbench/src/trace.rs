//! The traced breakdown: spans, self times, and the per-layer metrics.
//!
//! Nothing inside the program is instrumented. Spans come from three
//! places, all in this benchmark's files:
//!
//! * the client's view of each open-loop request (`request.*`), from
//!   the moment it was due to its full response;
//! * in-situ calls the benchmark makes or sees: `purchase_str` as timed
//!   by [`crate::run::Probe`] (a child of the request it served) and
//!   the seller's `DurableMarket::set_price`;
//! * replays after the window, which time calls into each crate's
//!   public functions on the run's own requests against an in-memory
//!   replica of the market. A replay span carries the id of the request
//!   it replays.
//!
//! Self time is a span's duration minus the part of it its children
//! cover.

use crate::run::{Observed, OUT_DIR, SELLER_ID};
use crate::spec::{self, Kind, Workload};
use crate::stats::{median, percentile, sorted};
use qbdp_core::batch::default_workers;
use qbdp_core::{Budget, PlanCache, Pricer};
use qbdp_market::{Market, MarketPolicy};
use qbdp_obs::Ctr;
use qbdp_query::ast::Ucq;
use qbdp_query::{parse_rule, Bundle, ConjunctiveQuery};
use qbdp_serve::http::{self, RequestParser, Step};
use qbdp_serve::{json, Limits};
use qbdp_store::{FsyncPolicy, Wal};
use std::collections::{BTreeMap, HashMap};
use std::fmt::Write as _;
use std::hint::black_box;
use std::time::Instant;

/// Open-loop requests replayed layer by layer.
const REPLAY_REQUESTS: usize = 2_000;

/// Queries bought and evaluated on the replica.
const REPLAY_PURCHASES: usize = 300;

/// Revisions applied to the replica for `market.set_price_us`.
const REPLAY_REVISIONS: usize = 100;

/// Log records appended and synced for `store.*`: enough that p99 has
/// ten samples beyond it.
const REPLAY_RECORDS: usize = 1_000;

/// One timed interval.
#[derive(Clone, Debug)]
pub struct Span {
    /// Layer and call, e.g. `serve.parse`.
    pub name: &'static str,
    /// Start, ns after the replay or run epoch.
    pub start_ns: u64,
    /// End, same clock.
    pub end_ns: u64,
    /// Index of the enclosing span.
    pub parent: Option<usize>,
    /// The request this span serves or replays.
    pub id: Option<u64>,
    /// Requests the span covers (a batch covers several).
    pub n: u32,
}

impl Span {
    fn dur(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Self time of every span: its duration minus the union of its
/// children's intervals, clipped to it.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<usize>> = vec![Vec::new(); spans.len()];
    for (i, s) in spans.iter().enumerate() {
        if let Some(p) = s.parent {
            children[p].push(i);
        }
    }
    spans
        .iter()
        .zip(children)
        .map(|(s, mut kids)| {
            kids.sort_by_key(|&k| spans[k].start_ns);
            let (mut covered, mut reach) = (0u64, s.start_ns);
            for k in kids {
                let a = spans[k].start_ns.max(reach);
                let b = spans[k].end_ns.min(s.end_ns);
                if b > a {
                    covered += b - a;
                    reach = b;
                }
            }
            s.dur().saturating_sub(covered)
        })
        .collect()
}

/// Spans as JSON lines.
pub fn to_jsonl(spans: &[Span]) -> String {
    let mut out = String::new();
    for s in spans {
        let opt = |v: Option<u64>| v.map_or("null".to_string(), |v| v.to_string());
        let _ = writeln!(
            out,
            "{{\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{},\"id\":{},\"n\":{}}}",
            s.name,
            s.start_ns,
            s.end_ns,
            opt(s.parent.map(|p| p as u64)),
            opt(s.id),
            s.n
        );
    }
    out
}

/// Records spans against one clock.
struct Recorder {
    epoch: Instant,
    spans: Vec<Span>,
}

impl Recorder {
    fn time<T>(&mut self, name: &'static str, id: Option<u64>, n: u32, f: impl FnOnce() -> T) -> T {
        let start_ns = self.epoch.elapsed().as_nanos() as u64;
        let out = black_box(f());
        let end_ns = self.epoch.elapsed().as_nanos() as u64;
        self.spans.push(Span {
            name,
            start_ns,
            end_ns,
            parent: None,
            id,
            n,
        });
        out
    }

    fn last_ns(&self) -> f64 {
        self.spans.last().map_or(0.0, |s| s.dur() as f64)
    }
}

/// The per-layer metrics, the self-time table, and every span.
pub struct Breakdown {
    /// Per-layer metrics (all but `obs.trace_overhead_pct`).
    pub metrics: BTreeMap<String, f64>,
    /// The printed self-time table.
    pub table: String,
    /// In-situ spans first, then replay spans (their own clock).
    pub spans: Vec<Span>,
}

fn err(what: &str) -> impl Fn(qbdp_market::MarketError) -> String + '_ {
    move |e| format!("{what}: {e}")
}

fn replica(qdp: &str, pool: &[String]) -> Result<Market, String> {
    let m = Market::open_qdp(qdp).map_err(err("replica"))?;
    m.set_policy(MarketPolicy {
        telemetry: true,
        ..m.policy()
    });
    let refs: Vec<&str> = pool.iter().map(String::as_str).collect();
    for r in m.quote_batch(&refs) {
        r.map_err(err("replica warm-up"))?;
    }
    Ok(m)
}

fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

/// Build the breakdown of one traced run.
pub fn breakdown(o: &Observed, seed: u64, quote_p50_us: f64) -> Result<Breakdown, String> {
    let mut m: BTreeMap<String, f64> = BTreeMap::new();
    let mut spans = in_situ_spans(o);
    let in_situ = spans.len();
    let pool = &o.pool;
    let schema = Market::open_qdp(&o.seed_qdp)
        .map_err(err("schema"))?
        .with_pricer(|p| p.catalog().schema().clone());
    let parse = |q: &str| -> Result<ConjunctiveQuery, String> {
        parse_rule(&schema, q).map_err(|e| format!("{q}: {e}"))
    };
    let batch = ((o.stats.quotes as f64 / o.base_calls.max(1) as f64).round() as usize).max(1);
    m.insert(
        "serve.quotes_per_batch".into(),
        o.stats.quotes as f64 / o.base_calls.max(1) as f64,
    );

    // Replay the first open-loop requests layer by layer, with the
    // seller's revisions interleaved at their due times.
    let sample = &o.plan[..o.plan.len().min(REPLAY_REQUESTS)];
    let until = sample.last().map_or(0, |r| r.due_ns);
    let mut rec = Recorder {
        epoch: Instant::now(),
        spans: Vec::new(),
    };
    let rep = replica(&o.seed_qdp, pool)?;
    let mut revs = o
        .revisions
        .iter()
        .enumerate()
        .filter(|(_, r)| r.due_ns <= until)
        .peekable();
    let mut per: HashMap<&'static str, Vec<f64>> = HashMap::new();
    let mut pending: Vec<(u64, usize)> = Vec::new();
    let mut out = Vec::with_capacity(4096);
    let (mut quote_n, mut batch_ns) = (0usize, 0f64);
    let flush = |rec: &mut Recorder,
                 pending: &mut Vec<(u64, usize)>,
                 per: &mut HashMap<&'static str, Vec<f64>>,
                 out: &mut Vec<u8>|
     -> Result<f64, String> {
        if pending.is_empty() {
            return Ok(0.0);
        }
        let texts: Vec<&str> = pending.iter().map(|&(_, q)| pool[q].as_str()).collect();
        let results = rec.time(
            "market.quote_batch",
            Some(pending[0].0),
            pending.len() as u32,
            || rep.quote_batch(&texts),
        );
        let took = rec.last_ns();
        for (&(id, _), r) in pending.iter().zip(results) {
            let q = r.map_err(err("replayed quote"))?;
            let body = rec.time("serve.render", Some(id), 1, || json::quote(&q));
            per.entry("serve.render").or_default().push(rec.last_ns());
            out.clear();
            rec.time("serve.write", Some(id), 1, || {
                http::write_response(out, 200, "OK", "application/json", body.as_bytes(), true)
            });
            per.entry("serve.write").or_default().push(rec.last_ns());
        }
        pending.clear();
        Ok(took)
    };
    for (i, r) in sample.iter().enumerate() {
        let id = i as u64;
        while let Some((k, rev)) = revs.next_if(|(_, rev)| rev.due_ns <= r.due_ns) {
            batch_ns += flush(&mut rec, &mut pending, &mut per, &mut out)?;
            rec.time("market.set_price", Some(SELLER_ID | k as u64), 1, || {
                rep.set_price(&rev.view, qbdp_core::Price::cents(rev.cents))
            })
            .map_err(err("replayed revision"))?;
        }
        let text = &pool[r.q];
        let bytes = spec::request_bytes(r.kind, text);
        let parsed = rec.time("serve.parse", Some(id), 1, || {
            let mut p = RequestParser::new(Limits::default());
            p.feed(&bytes);
            matches!(p.next_request(), Step::Ready(_))
        });
        if !parsed {
            return Err(format!("replayed request {id} did not parse"));
        }
        let sp = rec.last_ns();
        let cq = rec.time("query.parse", Some(id), 1, || parse(text))?;
        let qp = rec.last_ns();
        rec.time("query.render", Some(id), 1, || {
            qbdp_query::pretty::render(&cq, &schema)
        });
        let qr = rec.last_ns();
        match r.kind {
            Kind::Quote => {
                per.entry("serve.parse").or_default().push(sp);
                per.entry("query.parse").or_default().push(qp);
                per.entry("query.render").or_default().push(qr);
                quote_n += 1;
                pending.push((id, r.q));
                if pending.len() == batch {
                    batch_ns += flush(&mut rec, &mut pending, &mut per, &mut out)?;
                }
            }
            Kind::Purchase => {
                // The server answers purchases inline, ahead of the
                // tick's quote batch.
                let p = rec
                    .time("market.purchase_str", Some(id), 1, || {
                        rep.purchase_str(text)
                    })
                    .map_err(err("replayed purchase"))?;
                let body = rec.time("serve.render", Some(id), 1, || json::purchase(&p));
                out.clear();
                rec.time("serve.write", Some(id), 1, || {
                    http::write_response(
                        &mut out,
                        200,
                        "OK",
                        "application/json",
                        body.as_bytes(),
                        true,
                    )
                });
            }
        }
    }
    batch_ns += flush(&mut rec, &mut pending, &mut per, &mut out)?;
    let med = |k: &str| per.get(k).map_or(0.0, |v| median(v));
    let mean = |k: &str| {
        per.get(k)
            .map_or(0.0, |v| v.iter().sum::<f64>() / v.len().max(1) as f64)
    };
    for (metric, key) in [
        ("serve.parse_ns", "serve.parse"),
        ("serve.render_ns", "serve.render"),
        ("serve.write_ns", "serve.write"),
        ("query.parse_ns", "query.parse"),
        ("query.render_ns", "query.render"),
    ] {
        m.insert(metric.into(), med(key));
    }
    // The quote path's layers, per quote; query.parse and query.render
    // run inside market.quote_batch and are not added again.
    let quote_batch_per_quote_us = batch_ns / quote_n.max(1) as f64 / 1e3;
    let layer_sum_us = (mean("serve.parse") + mean("serve.render") + mean("serve.write")) / 1e3
        + quote_batch_per_quote_us;
    m.insert("serve.unattributed_us".into(), quote_p50_us - layer_sum_us);

    // market.hit_ns: the same quotes against a warm replica, no revisions.
    let hot = replica(&o.seed_qdp, pool)?;
    let quotes: Vec<&str> = sample
        .iter()
        .filter(|r| r.kind == Kind::Quote)
        .map(|r| pool[r.q].as_str())
        .collect();
    let mut hit = Vec::new();
    for (j, chunk) in quotes.chunks(batch).enumerate() {
        for r in rec.time(
            "market.quote_batch.hit",
            Some(j as u64),
            chunk.len() as u32,
            || hot.quote_batch(chunk),
        ) {
            r.map_err(err("replayed hit"))?;
        }
        hit.push(rec.last_ns() / chunk.len() as f64);
    }
    m.insert("market.hit_ns".into(), median(&hit));

    // market.set_price_us on an in-memory replica: E17 revisions.
    let storm = Workload::named("reprice_storm").ok_or("no reprice_storm workload")?;
    let seller = replica(&o.seed_qdp, pool)?;
    let mut set = Vec::new();
    for (k, r) in spec::revision_plan(storm, seed, 3 * REPLAY_REVISIONS as u64 * 10_000_000)
        .iter()
        .take(REPLAY_REVISIONS)
        .enumerate()
    {
        rec.time("market.set_price", Some(SELLER_ID | k as u64), 1, || {
            seller.set_price(&r.view, qbdp_core::Price::cents(r.cents))
        })
        .map_err(err("replayed revision"))?;
        set.push(rec.last_ns() / 1e3);
    }
    m.insert("market.set_price_us".into(), median(&set));

    // market.purchase_us and query.eval_us over the run's drawn queries.
    let buyer = replica(&o.seed_qdp, pool)?;
    let (mut buy, mut eval) = (Vec::new(), Vec::new());
    for (i, r) in sample.iter().take(REPLAY_PURCHASES).enumerate() {
        let text = &pool[r.q];
        rec.time("market.purchase_str", Some(i as u64), 1, || {
            buyer.purchase_str(text)
        })
        .map_err(err("replayed purchase"))?;
        buy.push(rec.last_ns() / 1e3);
        let cq = parse(text)?;
        buyer
            .with_pricer(|p| {
                rec.time("query.eval", Some(i as u64), 1, || {
                    qbdp_query::eval::eval_cq(&cq, p.instance())
                })
            })
            .map_err(|e| format!("eval {text}: {e}"))?;
        eval.push(rec.last_ns() / 1e3);
    }
    m.insert("market.purchase_us".into(), median(&buy));
    m.insert("query.eval_us".into(), median(&eval));

    core_layer(&mut m, &mut rec, o, &parse, batch)?;
    store_layer(&mut m, &mut rec, o)?;
    counters(&mut m, o);

    // Replay spans follow the in-situ ones, on their own clock.
    spans.extend(rec.spans);
    let table = self_time_table(&spans, in_situ, o, quote_p50_us, &m);
    Ok(Breakdown {
        metrics: m,
        table,
        spans,
    })
}

/// `core.*`: cold and warm pricing, and the batch pool's overhead.
fn core_layer(
    m: &mut BTreeMap<String, f64>,
    rec: &mut Recorder,
    o: &Observed,
    parse: &dyn Fn(&str) -> Result<ConjunctiveQuery, String>,
    batch: usize,
) -> Result<(), String> {
    let pool = &o.pool;
    let base = replica(&o.seed_qdp, pool)?;
    let cold: Pricer = base.with_pricer(Pricer::clone);
    let price = |p: &Pricer, q: &ConjunctiveQuery| p.price_cq(q).map_err(|e| e.to_string());
    let selections: Vec<ConjunctiveQuery> = pool[..spec::N as usize]
        .iter()
        .map(|q| parse(q))
        .collect::<Result<_, _>>()?;
    let chain = parse(spec::CHAIN_JOIN)?;
    let mut sel = Vec::new();
    for _ in 0..3 {
        for q in &selections {
            rec.time("core.price_cq", None, 1, || price(&cold, q))?;
            sel.push(rec.last_ns() / 1e3);
        }
    }
    m.insert("core.price_cold_sel_us".into(), median(&sel));
    let mut ch = Vec::new();
    for _ in 0..15 {
        rec.time("core.price_cq", None, 1, || price(&cold, &chain))?;
        ch.push(rec.last_ns() / 1e3);
    }
    m.insert("core.price_cold_chain_us".into(), median(&ch));

    // Warm: a plan filled under one price list, repriced under a list
    // that differs by one revision, alternately.
    base.set_price("S.X=0", qbdp_core::Price::cents(200))
        .map_err(err("revision"))?;
    let revised: Pricer = base.with_pricer(Pricer::clone);
    let mut warm = Vec::new();
    let mut plan = PlanCache::new();
    for q in std::iter::once(&chain).chain(selections.iter().take(16)) {
        cold.price_cq_with_plan(q, &mut plan)
            .map_err(|e| e.to_string())?;
        for rep in 0..6 {
            let p = if rep % 2 == 0 { &revised } else { &cold };
            rec.time("core.price_cq_with_plan", None, 1, || {
                p.price_cq_with_plan(q, &mut plan)
            })
            .map_err(|e| e.to_string())?;
            warm.push(rec.last_ns() / 1e3);
        }
    }
    m.insert("core.price_warm_us".into(), median(&warm));

    // Batch pool: the same bundles with the default worker count and
    // with one worker.
    let bundles: Vec<Bundle> = o
        .plan
        .iter()
        .take(batch.max(2))
        .map(|r| parse(&pool[r.q]).map(|q| Bundle::single(Ucq::single(q))))
        .collect::<Result<_, _>>()?;
    let (mut many, mut one) = (Vec::new(), Vec::new());
    for _ in 0..15 {
        rec.time("core.price_batch", None, bundles.len() as u32, || {
            cold.price_batch_with_workers(&bundles, &Budget::unlimited(), default_workers())
        });
        many.push(rec.last_ns() / 1e3);
        rec.time(
            "core.price_batch.serial",
            None,
            bundles.len() as u32,
            || cold.price_batch_with_workers(&bundles, &Budget::unlimited(), 1),
        );
        one.push(rec.last_ns() / 1e3);
    }
    m.insert(
        "core.batch_overhead_us".into(),
        median(&many) - median(&one),
    );
    Ok(())
}

/// `store.*` timings: the serving market's own log records appended to
/// a scratch log with `Wal::append`, each followed by `Wal::sync`.
fn store_layer(
    m: &mut BTreeMap<String, f64>,
    rec: &mut Recorder,
    o: &Observed,
) -> Result<(), String> {
    if o.wal_events.is_empty() {
        return Err("the served market logged nothing".into());
    }
    let dir = std::path::Path::new(OUT_DIR).join(format!("store-replay-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
    let store = |e: qbdp_store::StoreError| format!("replayed log: {e}");
    let mut wal = Wal::open(dir.join("replay.wal"), FsyncPolicy::Never).map_err(store)?;
    let (mut append, mut fsync) = (Vec::new(), Vec::new());
    for (i, event) in o.wal_events.iter().cycle().take(REPLAY_RECORDS).enumerate() {
        rec.time("store.append", Some(i as u64), 1, || wal.append(event))
            .map_err(store)?;
        append.push(rec.last_ns() / 1e3);
        rec.time("store.fsync", Some(i as u64), 1, || wal.sync())
            .map_err(store)?;
        fsync.push(rec.last_ns() / 1e3);
    }
    drop(wal);
    let _ = std::fs::remove_dir_all(&dir);
    let (append, fsync) = (sorted(append), sorted(fsync));
    m.insert("store.append_p50_us".into(), percentile(&append, 0.5));
    m.insert("store.append_p99_us".into(), percentile(&append, 0.99));
    m.insert("store.fsync_p50_us".into(), percentile(&fsync, 0.5));
    m.insert("store.fsync_p99_us".into(), percentile(&fsync, 0.99));
    Ok(())
}

/// Ratios from the telemetry registry, the allocator and the generator.
fn counters(m: &mut BTreeMap<String, f64>, o: &Observed) {
    let (a, b) = &o.window;
    let d = |c: Ctr| a.delta(b, c);
    let (hits, misses) = (d(Ctr::MarketCacheHits), d(Ctr::MarketCacheMisses));
    m.insert("market.cache_hit_ratio".into(), ratio(hits, hits + misses));
    m.insert(
        "market.wasted_per_1k".into(),
        1000.0
            * ratio(
                d(Ctr::MarketPurchaseRetries) + d(Ctr::MarketAdmissionRejects),
                o.window_requests,
            ),
    );
    let reused = d(Ctr::PlanCacheHits) + d(Ctr::PlanCacheWarmReprices);
    m.insert(
        "core.plan_reuse_ratio".into(),
        ratio(reused, reused + d(Ctr::PlanCacheMisses)),
    );
    let cold = d(Ctr::FlowSolvesCold);
    m.insert("flow.cold_solves_per_miss".into(), ratio(cold, misses));
    m.insert(
        "flow.warm_solves_per_miss".into(),
        ratio(d(Ctr::FlowSolvesWarm), misses),
    );
    m.insert(
        "flow.arena_reuse_ratio".into(),
        ratio(d(Ctr::FlowArenaReuses), cold),
    );

    // The WAL over the serving market's life, creation included, so a
    // read-only workload still reports its set-up's log writes.
    let (a, b) = &o.lifetime;
    let appends = a.delta(b, Ctr::StoreWalAppends);
    m.insert(
        "store.fsyncs_per_write".into(),
        ratio(b.fsyncs - a.fsyncs, appends),
    );
    m.insert("store.bytes_per_write".into(), ratio(o.wal_bytes, appends));

    m.insert(
        "alloc.per_req".into(),
        ratio(o.cap_alloc.0, o.cap_completed),
    );
    m.insert(
        "alloc.bytes_per_req".into(),
        ratio(o.cap_alloc.1, o.cap_completed),
    );
    m.insert("gen.lag_p99_us".into(), percentile(&o.lag_us, 0.99));
    m.insert("gen.achieved_rps".into(), o.achieved_rps);
    m.insert("gen.slo_miss_frac".into(), o.slo_miss_frac);
    m.insert("host.steal_pct".into(), o.steal_pct);
}

/// Client-side request spans, the probe's purchase spans (each under
/// the request it served) and the seller's revisions.
fn in_situ_spans(o: &Observed) -> Vec<Span> {
    let mut reqs = o.requests.clone();
    reqs.sort_by_key(|r| r.id);
    let mut spans: Vec<Span> = reqs
        .iter()
        .map(|r| Span {
            name: match r.kind {
                Kind::Quote => "request.quote",
                Kind::Purchase => "request.purchase",
            },
            start_ns: r.due_ns,
            end_ns: r.done_ns,
            parent: None,
            id: Some(r.id),
            n: 1,
        })
        .collect();
    // A purchase call belongs to the earliest unmatched purchase of the
    // same query whose request interval contains it.
    let mut by_query: HashMap<&str, Vec<usize>> = HashMap::new();
    for (i, r) in reqs.iter().enumerate() {
        if r.kind == Kind::Purchase {
            by_query.entry(o.pool[r.q].as_str()).or_default().push(i);
        }
    }
    let mut cursor: HashMap<&str, usize> = HashMap::new();
    let mut calls = o.purchases.clone();
    calls.sort_by_key(|c| c.0);
    for (start, end, query) in &calls {
        let Some(cands) = by_query.get(query.as_str()) else {
            continue;
        };
        let at = cursor.entry(query.as_str()).or_insert(0);
        while *at < cands.len() && spans[cands[*at]].end_ns < *end {
            *at += 1;
        }
        if let Some(&req) = cands.get(*at) {
            if spans[req].start_ns <= *start {
                *at += 1;
                spans.push(Span {
                    name: "market.purchase_str.in_situ",
                    start_ns: *start,
                    end_ns: *end,
                    parent: Some(req),
                    id: Some(reqs[req].id),
                    n: 1,
                });
            }
        }
    }
    for c in &o.seller {
        spans.push(Span {
            name: "market.set_price.durable",
            start_ns: c.start_ns,
            end_ns: c.done_ns,
            parent: None,
            id: Some(SELLER_ID | c.k as u64),
            n: 1,
        });
    }
    spans
}

/// Self time per layer, per open-loop request, then what is left of the
/// request p50.
fn self_time_table(
    spans: &[Span],
    in_situ: usize,
    o: &Observed,
    quote_p50_us: f64,
    m: &BTreeMap<String, f64>,
) -> String {
    let selfs = self_times(spans);
    let mut rows: BTreeMap<(&str, &str), (u64, u64)> = BTreeMap::new();
    for (i, (s, t)) in spans.iter().zip(&selfs).enumerate() {
        let origin = if i < in_situ { "in situ" } else { "replay" };
        let e = rows.entry((s.name, origin)).or_default();
        e.0 += u64::from(s.n);
        e.1 += t;
    }
    let quotes = o
        .requests
        .iter()
        .filter(|r| r.kind == Kind::Quote)
        .count()
        .max(1);
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{:<30} {:>8} {:>9} {:>14}",
        "span", "origin", "calls", "self µs/call"
    );
    for ((name, origin), (n, t)) in &rows {
        let _ = writeln!(
            out,
            "{name:<30} {origin:>8} {n:>9} {:>14.3}",
            *t as f64 / 1e3 / (*n).max(1) as f64
        );
    }
    let _ = writeln!(
        out,
        "quote p50 {quote_p50_us:.2} µs over {quotes} open-loop quotes; \
         serve.unattributed_us = {:.2} µs (sockets, epoll, scheduling, queueing)",
        m.get("serve.unattributed_us").copied().unwrap_or(0.0)
    );
    out
}
