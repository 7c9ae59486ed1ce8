//! One workload run: set up the production serving stack, drive it
//! open loop and then closed loop, check every answer, and turn what
//! was observed into the end-to-end metrics (and, when traced, the
//! inputs of the per-layer breakdown).
//!
//! The stack is the one `qbdp serve` runs: a [`DurableMarket`] with
//! [`FsyncPolicy::Always`], telemetry on, `batch_workers: 0`, and
//! [`Server::run`] on a loopback socket. The server sees the market
//! through [`Probe`], a forwarding [`MarketOps`] that only counts and
//! times calls, so nothing inside the program is instrumented.

use crate::alloc;
use crate::load::{Client, Pending, Reply};
use crate::spec::{self, Draw, Kind, Req, Revision, Workload};
use crate::stats::{calmest, median, median_of, percentile, slice_percentiles, sorted};
use crate::sys;
use qbdp_catalog::Tuple;
use qbdp_core::Price;
use qbdp_market::{
    fingerprint, DurableMarket, FsyncPolicy, Market, MarketError, MarketHealth, MarketOps,
    MarketPolicy, Purchase,
};
use qbdp_obs::{Ctr, Hst};
use qbdp_serve::{ServeStats, Server, ServerConfig, ShutdownFlag};
use qbdp_store::{MarketEvent, Wal};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// Set-ups per run; `setup_s` is their median and the last one serves.
pub const SETUPS: usize = 21;

/// Share of `--seconds` given to the open-loop phase; the rest is the
/// closed-loop capacity phase.
pub const OPEN_SHARE: f64 = 0.8;

/// Each phase is cut into this many equal slices, and the host's steal
/// time (CPU the hypervisor gave to other guests) is read at every slice
/// boundary.
pub const SLICES: usize = 12;

/// A reported figure is the median, over the `CALM` slices of its phase
/// with the least steal, of the slice's own figure: the program's speed,
/// not the host's bursts of contention.
pub const CALM: usize = SLICES / 2;

/// How long a phase may run past its schedule before the run fails.
const GRACE: Duration = Duration::from_secs(10);

/// Where runs keep their markets and traces, relative to the checkout.
pub const OUT_DIR: &str = ".bench_out";

/// Request ids of seller revisions are `SELLER_ID | k`, apart from the
/// HTTP generator's sequence numbers.
pub const SELLER_ID: u64 = 1 << 32;

/// Command-line arguments.
#[derive(Clone, Copy, Debug)]
pub struct Args {
    /// `--workload`.
    pub workload: Workload,
    /// `--seed`.
    pub seed: u64,
    /// `--seconds`: how long the two phases measure together.
    pub seconds: u64,
    /// `--trace`: also produce the per-layer metrics.
    pub trace: bool,
}

impl Args {
    /// Parse `--workload <name> --seed <n> --seconds <n> --trace <0|1>`.
    pub fn parse(argv: impl IntoIterator<Item = String>) -> Result<Args, String> {
        let mut workload = None;
        let (mut seed, mut seconds, mut trace) = (1u64, 10u64, false);
        let mut it = argv.into_iter();
        while let Some(flag) = it.next() {
            let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
            let num = || -> Result<u64, String> {
                value
                    .parse()
                    .map_err(|_| format!("{flag} takes a whole number, got {value}"))
            };
            match flag.as_str() {
                "--workload" => {
                    workload = Some(Workload::named(&value).ok_or_else(|| {
                        let names: Vec<_> = spec::WORKLOADS.iter().map(|w| w.name).collect();
                        format!("unknown workload {value}; one of {names:?}")
                    })?)
                }
                "--seed" => seed = num()?,
                "--seconds" => seconds = num()?.max(1),
                "--trace" => {
                    trace = match value.as_str() {
                        "0" => false,
                        "1" => true,
                        _ => return Err(format!("--trace takes 0 or 1, got {value}")),
                    }
                }
                other => return Err(format!("unknown flag {other}")),
            }
        }
        Ok(Args {
            workload: workload.ok_or("--workload is required")?,
            seed,
            seconds,
            trace,
        })
    }
}

/// The server's view of the market: every call forwards to the
/// [`DurableMarket`]; `base()` calls are counted (the server makes one
/// per tick that has quotes) and, when traced, purchases are timed.
pub struct Probe<'a> {
    dm: &'a DurableMarket,
    epoch: Instant,
    base_calls: AtomicU64,
    purchases: Option<Mutex<Vec<(u64, u64, String)>>>,
}

impl Probe<'_> {
    fn ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }
}

impl MarketOps for Probe<'_> {
    fn base(&self) -> &Market {
        // Relaxed: a statistic, read after the server thread is joined.
        self.base_calls.fetch_add(1, Ordering::Relaxed);
        self.dm.market()
    }

    fn insert(&self, relation: &str, tuples: Vec<Tuple>) -> Result<usize, MarketError> {
        self.dm.insert(relation, tuples)
    }

    fn set_price(&self, view: &str, price: Price) -> Result<(), MarketError> {
        self.dm.set_price(view, price)
    }

    fn purchase_str(&self, query: &str) -> Result<Purchase, MarketError> {
        let Some(log) = &self.purchases else {
            return self.dm.purchase_str(query);
        };
        let start = self.ns();
        let out = self.dm.purchase_str(query);
        let end = self.ns();
        log.lock()
            .expect("no thread panics while holding the purchase log")
            .push((start, end, query.to_string()));
        out
    }

    fn set_policy(&self, policy: MarketPolicy) -> Result<(), MarketError> {
        self.dm.set_policy(policy)
    }

    fn durable(&self) -> Option<&DurableMarket> {
        Some(self.dm)
    }

    fn health(&self) -> MarketHealth {
        self.dm.health()
    }
}

/// The telemetry registry's counters, and its WAL fsync count, at one
/// instant.
#[derive(Clone, Debug)]
pub struct ObsSnap {
    ctr: Vec<u64>,
    /// Samples in `qbdp_store_wal_fsync_us`: one per fsync.
    pub fsyncs: u64,
}

impl ObsSnap {
    /// Read the process-wide registry.
    pub fn take() -> ObsSnap {
        let g = qbdp_obs::global();
        ObsSnap {
            ctr: Ctr::ALL.iter().map(|&c| g.counter(c).get()).collect(),
            fsyncs: g.hist(Hst::WalFsyncUs).snapshot().count,
        }
    }

    /// How much counter `c` grew from `self` to `later`.
    pub fn delta(&self, later: &ObsSnap, c: Ctr) -> u64 {
        later.ctr[c as usize].saturating_sub(self.ctr[c as usize])
    }
}

/// One open-loop HTTP request as the client saw it (traced runs).
#[derive(Clone, Copy, Debug)]
pub struct ReqSpan {
    /// Generator sequence number.
    pub id: u64,
    /// Endpoint.
    pub kind: Kind,
    /// Pool index.
    pub q: usize,
    /// Due time (ns after the epoch).
    pub due_ns: u64,
    /// Response time (ns after the epoch).
    pub done_ns: u64,
}

/// One seller revision as the seller thread saw it.
#[derive(Clone, Debug)]
pub struct SellerCall {
    /// Index in the revision plan.
    pub k: usize,
    /// Due time (ns after the epoch).
    pub due_ns: u64,
    /// When the call started.
    pub start_ns: u64,
    /// When it returned.
    pub done_ns: u64,
    /// The error, if it failed.
    pub error: Option<String>,
}

/// Everything the traced breakdown needs from the live run.
pub struct Observed {
    /// The seed market as `.qdp` text.
    pub seed_qdp: String,
    /// The query pool.
    pub pool: Vec<String>,
    /// The open-loop schedule.
    pub plan: Vec<Req>,
    /// The seller's schedule.
    pub revisions: Vec<Revision>,
    /// Open-loop phase start (ns after the epoch).
    pub start_ns: u64,
    /// Open-loop requests, in id order.
    pub requests: Vec<ReqSpan>,
    /// In-situ `purchase_str` calls: start, end, query.
    pub purchases: Vec<(u64, u64, String)>,
    /// Seller revisions.
    pub seller: Vec<SellerCall>,
    /// What the server reported after draining.
    pub stats: ServeStats,
    /// `base()` calls the server made.
    pub base_calls: u64,
    /// Registry at open-loop start and at capacity-phase end.
    pub window: (ObsSnap, ObsSnap),
    /// Registry just before the serving market was created, and at the end.
    pub lifetime: (ObsSnap, ObsSnap),
    /// End-of-log position of the serving market.
    pub wal_bytes: u64,
    /// The events the serving market logged (traced runs).
    pub wal_events: Vec<MarketEvent>,
    /// HTTP requests completed over both phases.
    pub window_requests: u64,
    /// Allocations and bytes counted over the capacity phase.
    pub cap_alloc: (u64, u64),
    /// HTTP requests completed in the capacity phase (drain included).
    pub cap_completed: u64,
    /// Generator send lag, µs, sorted.
    pub lag_us: Vec<f64>,
    /// Open-loop requests completed per second.
    pub achieved_rps: f64,
    /// Share of open-loop requests that failed or missed the limit.
    pub slo_miss_frac: f64,
    /// Host steal time over the run, percent.
    pub steal_pct: f64,
}

/// What one run produced.
pub struct Outcome {
    /// Whether every check passed.
    pub correct: bool,
    /// Operations attempted (HTTP requests, revisions, quiesced probes).
    pub attempted: u64,
    /// Operations that failed or answered wrongly.
    pub failed: u64,
    /// The first few failures, for the report.
    pub errors: Vec<String>,
    /// End-to-end metrics.
    pub e2e: BTreeMap<String, f64>,
    /// The validity record, one line.
    pub validity: String,
    /// Open-loop `/quote` p50, µs.
    pub quote_p50_us: f64,
    /// Inputs of the per-layer breakdown.
    pub observed: Observed,
}

/// Pass/fail bookkeeping over every response.
struct Tally {
    expected: Vec<u64>,
    prices_fixed: bool,
    limit_us: f64,
    attempted: u64,
    failed: u64,
    errors: Vec<String>,
    /// Open-loop `(due, latency µs)` per endpoint.
    quote_us: Vec<(u64, f64)>,
    purchase_us: Vec<(u64, f64)>,
    slo_misses: u64,
    acked: u64,
    revenue: u64,
    last_open_done: u64,
    requests: Vec<ReqSpan>,
    trace: bool,
}

impl Tally {
    fn fail(&mut self, msg: String) {
        self.failed += 1;
        if self.errors.len() < 8 {
            self.errors.push(msg);
        }
    }

    /// Check one response; `open` marks the open-loop phase, whose
    /// latencies are kept.
    fn done(&mut self, p: &Pending, at: u64, r: Reply, open: bool) {
        self.attempted += 1;
        let mut ok = r.status == 200;
        if !ok {
            self.fail(format!("{:?} #{} answered {}", p.kind, p.id, r.status));
        } else {
            match r.cents {
                None => {
                    ok = false;
                    self.fail(format!("{:?} #{} has no price_cents", p.kind, p.id));
                }
                Some(c) if self.prices_fixed && c != self.expected[p.q] => {
                    ok = false;
                    self.fail(format!(
                        "{:?} #{} of pool query {} priced {c}¢, cold pricer says {}¢",
                        p.kind, p.id, p.q, self.expected[p.q]
                    ));
                }
                Some(c) => {
                    if p.kind == Kind::Purchase {
                        self.acked += 1;
                        self.revenue += c;
                    }
                }
            }
        }
        if open {
            let us = at.saturating_sub(p.due_ns) as f64 / 1e3;
            if !ok || us > self.limit_us {
                self.slo_misses += 1;
            }
            match p.kind {
                Kind::Quote => self.quote_us.push((p.due_ns, us)),
                Kind::Purchase => self.purchase_us.push((p.due_ns, us)),
            }
            self.last_open_done = self.last_open_done.max(at);
            if self.trace {
                self.requests.push(ReqSpan {
                    id: u64::from(p.id),
                    kind: p.kind,
                    q: p.q,
                    due_ns: p.due_ns,
                    done_ns: at,
                });
            }
        }
    }
}

fn market_err(what: &str) -> impl Fn(MarketError) -> String + '_ {
    move |e| format!("{what}: {e}")
}

/// Create the durable market, warm its quote cache and bind the server:
/// everything between workload start and the first due request.
fn setup(dir: &Path, seed_qdp: &str, pool: &[&str]) -> Result<(DurableMarket, Server), String> {
    let dm = DurableMarket::open_or_create(dir, Some(seed_qdp), FsyncPolicy::Always)
        .map_err(market_err("durable create"))?;
    dm.set_policy(MarketPolicy {
        telemetry: true,
        batch_workers: 0,
        ..dm.market().policy()
    })
    .map_err(market_err("policy"))?;
    for (q, r) in pool.iter().zip(dm.market().quote_batch(pool)) {
        r.map_err(|e| format!("warm-up quote {q}: {e}"))?;
    }
    let server = Server::bind(ServerConfig {
        max_conns: 64,
        ..ServerConfig::default()
    })
    .map_err(|e| format!("bind: {e}"))?;
    Ok((dm, server))
}

/// The price a cold market opened from `qdp` gives each pool query.
fn cold_prices(qdp: &str, pool: &[String]) -> Result<Vec<u64>, String> {
    let m = Market::open_qdp(qdp).map_err(market_err("cold market"))?;
    m.with_pricer(|pricer| {
        pool.iter()
            .map(|q| {
                let cq = qbdp_query::parse_rule(pricer.catalog().schema(), q)
                    .map_err(|e| format!("pool query {q}: {e}"))?;
                let quote = pricer
                    .price_cq(&cq)
                    .map_err(|e| format!("cold price of {q}: {e}"))?;
                Ok(quote.price.as_cents())
            })
            .collect()
    })
}

/// Run one workload once. `trace` keeps the per-request record the
/// breakdown needs and times purchases in the probe.
pub fn run(args: &Args, trace: bool) -> Result<Outcome, String> {
    let w = args.workload;
    let out = PathBuf::from(OUT_DIR).join(format!(
        "{}-{}-{}{}",
        w.name,
        args.seed,
        std::process::id(),
        if trace { "-traced" } else { "" }
    ));
    let _ = std::fs::remove_dir_all(&out);
    std::fs::create_dir_all(&out).map_err(|e| format!("create {}: {e}", out.display()))?;
    // The client (this thread, which sets up and then generates load)
    // keeps to the first allowed CPU and the market side (the server
    // thread, the pricing workers it starts, and the seller) to the
    // second. Left to the scheduler, the two sides share a CPU for some
    // seconds and split for others, and the open-loop p50 follows the
    // placement rather than the program.
    let cpus = sys::allowed_cpus().map_err(|e| format!("CPU affinity: {e}"))?;
    let client_cpu = *cpus.first().ok_or("no CPU allowed")?;
    let market_cpu = *cpus.get(1).unwrap_or(&client_cpu);
    sys::set_thread_cpus(&[client_cpu]).map_err(|e| format!("pin the client: {e}"))?;
    let result = run_in(args, trace, &out, (cpus.len(), market_cpu));
    let _ = std::fs::remove_dir_all(&out);
    let unpinned = sys::set_thread_cpus(&cpus).map_err(|e| format!("unpin the client: {e}"));
    result.and_then(|o| unpinned.map(|()| o))
}

/// `cpus` is how many CPUs the process may use, and which of them the
/// market side runs on.
fn run_in(args: &Args, trace: bool, out: &Path, cpus: (usize, usize)) -> Result<Outcome, String> {
    let w = args.workload;
    let (nproc, market_cpu) = cpus;
    let steal0 = sys::host_steal_total().map_err(|e| e.to_string())?;
    let seed_qdp = spec::chain_market().to_qdp();
    let pool = spec::pool();
    let pool_refs: Vec<&str> = pool.iter().map(String::as_str).collect();
    let expected = cold_prices(&seed_qdp, &pool)?;

    // Set up several times; the last set-up serves the run.
    let mut setup_s = Vec::new();
    let mut served = None;
    let mut lifetime0 = ObsSnap::take();
    for i in 0..SETUPS {
        // Tear the previous stack down before timing the next one.
        drop(served.take());
        let dir = out.join(format!("market-{i}"));
        lifetime0 = ObsSnap::take();
        let t0 = Instant::now();
        let stack = setup(&dir, &seed_qdp, &pool_refs)?;
        setup_s.push(t0.elapsed().as_secs_f64());
        served = Some((dir, stack));
    }
    let (dir, (dm, mut server)) = served.ok_or("no set-up ran")?;
    let addr = server.local_addr();

    let total_ns = args.seconds * 1_000_000_000;
    let open_ns = (total_ns as f64 * OPEN_SHARE) as u64;
    let cap_ns = total_ns - open_ns;
    let plan = spec::open_loop_plan(w, args.seed, open_ns);
    // Revisions run through both phases; the seller stops when the
    // capacity phase ends.
    let revisions = spec::revision_plan(w, args.seed, total_ns + GRACE.as_nanos() as u64);

    let epoch = Instant::now();
    let probe = Probe {
        dm: &dm,
        epoch,
        base_calls: AtomicU64::new(0),
        purchases: trace.then(|| Mutex::new(Vec::new())),
    };
    let mut tally = Tally {
        expected: expected.clone(),
        prices_fixed: w.prices_fixed(),
        limit_us: w.limit_us,
        attempted: 0,
        failed: 0,
        errors: Vec::new(),
        quote_us: Vec::new(),
        purchase_us: Vec::new(),
        slo_misses: 0,
        acked: 0,
        revenue: 0,
        last_open_done: 0,
        requests: Vec::new(),
        trace,
    };
    let shutdown = ShutdownFlag::new();
    let stop_seller = AtomicBool::new(false);
    let seller_tid = AtomicU64::new(0);
    // Leave the threads time to start and the connections to open.
    let start_ns = 50_000_000u64;
    let ns = || epoch.elapsed().as_nanos() as u64;

    let stop_keeper = AtomicBool::new(false);

    let (live, seller, stats) = std::thread::scope(|s| -> Result<_, String> {
        // However this closure returns, every thread it started stops
        // before the scope joins them.
        let _stop = StopAll {
            shutdown: &shutdown,
            flags: [&stop_seller, &stop_keeper],
        };
        // Keeps the market CPU from halting between requests, so that
        // waking the server is a switch inside the guest rather than the
        // hypervisor rescheduling an idle virtual CPU, which takes
        // longer the busier the host is. As a SCHED_IDLE thread it runs
        // only when nothing else on that CPU can.
        let keeper = s.spawn(|| {
            if sys::set_thread_cpus(&[market_cpu]).is_ok() && sys::set_idle_policy().is_ok() {
                while !stop_keeper.load(Ordering::Relaxed) {
                    std::hint::spin_loop();
                }
            }
        });
        let server_thread = s.spawn(|| {
            sys::set_thread_cpus(&[market_cpu])?;
            server.run(&probe, &shutdown)
        });
        let seller_thread = (!revisions.is_empty()).then(|| {
            s.spawn(|| {
                alloc::exclude_this_thread();
                sys::tight_timer_slack();
                // Best effort: on a failed pin the revisions still run.
                let _ = sys::set_thread_cpus(&[market_cpu]);
                // Relaxed: read after the open-loop phase, long after this store.
                seller_tid.store(sys::current_tid().unwrap_or(0), Ordering::Relaxed);
                let mut calls = Vec::new();
                for (k, r) in revisions.iter().enumerate() {
                    let due_ns = start_ns + r.due_ns;
                    while ns() < due_ns && !stop_seller.load(Ordering::Relaxed) {
                        let wait = due_ns.saturating_sub(ns()).min(5_000_000);
                        std::thread::sleep(Duration::from_nanos(wait));
                    }
                    if stop_seller.load(Ordering::Relaxed) {
                        break;
                    }
                    let start = ns();
                    let res = dm.set_price(&r.view, Price::cents(r.cents));
                    calls.push(SellerCall {
                        k,
                        due_ns,
                        start_ns: start,
                        done_ns: ns(),
                        error: res.err().map(|e| e.to_string()),
                    });
                }
                calls
            })
        });
        let live = drive(
            args,
            &pool,
            &plan,
            epoch,
            start_ns,
            cap_ns,
            addr,
            &mut tally,
            &seller_tid,
        );
        // Stop the seller and the server whatever happened, then report.
        stop_seller.store(true, Ordering::Relaxed);
        let seller = match seller_thread {
            Some(h) => h.join().map_err(|_| "seller thread panicked")?,
            None => Vec::new(),
        };
        let live = live.and_then(|(mut live, mut client)| {
            // Quiesced: nothing is revising prices any more.
            for q in 0..pool.len() {
                let r = client
                    .call(Kind::Quote, q, GRACE)
                    .map_err(|e| format!("quiesced quote: {e}"))?;
                live.quiesced.push((q, r.cents.unwrap_or(u64::MAX)));
                if r.status != 200 {
                    live.quiesced.last_mut().expect("just pushed").1 = u64::MAX;
                }
            }
            Ok(live)
        });
        shutdown.request();
        stop_keeper.store(true, Ordering::Relaxed);
        keeper.join().map_err(|_| "keeper thread panicked")?;
        let stats = server_thread
            .join()
            .map_err(|_| "server thread panicked")?
            .map_err(|e| format!("server: {e}"))?;
        Ok((live?, seller, stats))
    })?;

    // Correctness checks that need the run to be over.
    let market = dm.market();
    let revised =
        Market::open_qdp(&market.to_qdp()).map_err(market_err("cold reopen from to_qdp"))?;
    for &(q, cents) in &live.quiesced {
        tally.attempted += 1;
        let want = revised
            .quote_str(&pool[q])
            .map_err(market_err("cold quote"))?
            .price
            .as_cents();
        if cents != want || (w.prices_fixed() && cents != expected[q]) {
            tally.fail(format!(
                "after quiescing, pool query {q} is quoted {cents}¢ over HTTP but {want}¢ by a cold market"
            ));
        }
    }
    for c in &seller {
        tally.attempted += 1;
        if let Some(e) = &c.error {
            tally.fail(format!("set_price #{}: {e}", c.k));
        }
    }
    if market.sales() as u64 != tally.acked {
        tally.fail(format!(
            "{} purchases acked over HTTP but the ledger holds {} sales",
            tally.acked,
            market.sales()
        ));
    }
    if market.revenue().as_cents() != tally.revenue {
        tally.fail(format!(
            "acked purchases sum to {}¢ but revenue is {}¢",
            tally.revenue,
            market.revenue().as_cents()
        ));
    }
    let fp = fingerprint(market);
    let wal_bytes = dm.wal_position();
    let lifetime1 = ObsSnap::take();
    let base_calls = probe.base_calls.load(Ordering::Relaxed);
    let purchases = probe
        .purchases
        .map(|m| {
            m.into_inner()
                .expect("no thread panicked holding the purchase log")
        })
        .unwrap_or_default();
    drop(dm);
    let reopened =
        DurableMarket::open(&dir, FsyncPolicy::Always).map_err(market_err("cold reopen"))?;
    if fingerprint(reopened.market()) != fp {
        tally.fail(
            "a cold reopen of the market directory does not reproduce the served state".into(),
        );
    }
    drop(reopened);
    let wal_events = if trace {
        Wal::open(dir.join(qbdp_market::durable::WAL_FILE), FsyncPolicy::Never)
            .and_then(|w| w.replay())
            .map_err(|e| format!("read the served log: {e}"))?
            .into_iter()
            .map(|r| r.event)
            .collect()
    } else {
        Vec::new()
    };

    // End-to-end metrics.
    let open_secs = open_ns as f64 / 1e9;
    let op: Vec<(u64, f64)> = match (w.reprice_rate > 0.0, w.purchase_share > 0.0) {
        (true, _) => seller
            .iter()
            .filter(|c| c.due_ns < start_ns + open_ns)
            .map(|c| (c.due_ns, c.done_ns.saturating_sub(c.due_ns) as f64 / 1e3))
            .collect(),
        (false, true) => tally.purchase_us.clone(),
        (false, false) => tally.quote_us.clone(),
    };
    let open_calm = calmest(&steal_shares(&live.open_steal), CALM);
    let sliced = |v: &[(u64, f64)], p: f64| {
        median_of(
            &slice_percentiles(v, start_ns, open_ns, SLICES, p),
            &open_calm,
        )
    };
    let quote_p50 = sliced(&tally.quote_us, 0.5);
    let mut e2e = BTreeMap::new();
    let mut put = |k: &str, v: f64| {
        e2e.insert(k.to_string(), v);
    };
    put("setup_s", median(&setup_s));
    put("quote_p50_us", quote_p50);
    put("quote_p90_us", sliced(&tally.quote_us, 0.9));
    put("op_p50_us", sliced(&op, 0.5));
    put("op_p90_us", sliced(&op, 0.9));
    // Per capacity slice: completions per second and program CPU per
    // completion.
    let slice_secs = cap_ns as f64 / 1e9 / SLICES as f64;
    let (rps, cpu): (Vec<Option<f64>>, Vec<Option<f64>>) = live
        .cap_marks
        .windows(2)
        .map(|m| {
            let done = m[1].0.saturating_sub(m[0].0);
            let cpu = m[1].1.saturating_sub(m[0].1) as f64;
            (
                Some(done as f64 / slice_secs),
                Some(cpu / done.max(1) as f64),
            )
        })
        .unzip();
    let cap_steal: Vec<(u64, u64)> = live.cap_marks.iter().map(|m| m.2).collect();
    let cap_calm = calmest(&steal_shares(&cap_steal), CALM);
    put("capacity_rps", median_of(&rps, &cap_calm));
    put("cpu_us_per_req", median_of(&cpu, &cap_calm));
    put("peak_rss_mb", live.open_peak_rss_mb);

    let lag_us = sorted(live.lag_ns.iter().map(|&l| l as f64 / 1e3).collect());
    let open_total = plan.len() as f64;
    let achieved_rps =
        open_total / (tally.last_open_done.saturating_sub(start_ns) as f64 / 1e9).max(open_secs);
    let steal1 = sys::host_steal_total().map_err(|e| e.to_string())?;
    let steal_pct = 100.0 * steal_shares(&[steal0, steal1])[0];
    let open_steal = steal_shares(&live.open_steal);
    let calm_steal_pct = 100.0 * open_calm.iter().map(|&i| open_steal[i]).sum::<f64>()
        / open_calm.len().max(1) as f64;
    let lag_p99 = percentile(&lag_us, 0.99);
    // The generator fell behind if its own sends ran later than the
    // latency limit for more than 1% of requests: those requests would
    // miss the limit however fast the server was.
    let late = lag_p99 > w.limit_us;
    let validity = format!(
        "validity: workload={} seed={} nproc={} rev={} kernel={} steal={steal_pct:.3}% \
         (calm open-loop slices {calm_steal_pct:.3}%) \
         gen.lag_p99={lag_p99:.1}us offered={:.0}/s achieved={achieved_rps:.0}/s samples: \
         quotes={} ops={} -> {}",
        w.name,
        args.seed,
        nproc,
        sys::git_rev(),
        sys::kernel_release(),
        open_total / open_secs,
        tally.quote_us.len(),
        op.len(),
        if late {
            format!(
                "INVALID: the generator sent late (lag p99 {lag_p99:.1} us > limit {:.0} us)",
                w.limit_us
            )
        } else {
            "valid".to_string()
        }
    );
    let slo_miss_frac = tally.slo_misses as f64 / open_total.max(1.0);

    Ok(Outcome {
        correct: tally.failed == 0,
        attempted: tally.attempted,
        failed: tally.failed,
        errors: tally.errors,
        e2e,
        validity,
        quote_p50_us: quote_p50,
        observed: Observed {
            seed_qdp,
            pool,
            plan,
            revisions,
            start_ns,
            requests: tally.requests,
            purchases,
            seller,
            stats,
            base_calls,
            window: live.window,
            lifetime: (lifetime0, lifetime1),
            wal_bytes,
            wal_events,
            window_requests: open_total as u64 + live.cap_completed,
            cap_alloc: live.cap_alloc,
            cap_completed: live.cap_completed,
            lag_us,
            achieved_rps,
            slo_miss_frac,
            steal_pct,
        },
    })
}

/// Each slice's steal share, from host `(steal, total)` readings at its
/// edges.
fn steal_shares(marks: &[(u64, u64)]) -> Vec<f64> {
    marks
        .windows(2)
        .map(|m| m[1].0.saturating_sub(m[0].0) as f64 / m[1].1.saturating_sub(m[0].1).max(1) as f64)
        .collect()
}

/// Read the host's `(steal, total)` jiffies, or fail the run.
fn host_cpu() -> Result<(u64, u64), String> {
    sys::host_steal_total().map_err(|e| format!("/proc/stat: {e}"))
}

/// Asks the server, the seller and the keeper thread to stop when
/// dropped.
struct StopAll<'a> {
    shutdown: &'a ShutdownFlag,
    flags: [&'a AtomicBool; 2],
}

impl Drop for StopAll<'_> {
    fn drop(&mut self) {
        for f in self.flags {
            // Relaxed: the threads poll their flag; the scope's join
            // orders everything after.
            f.store(true, Ordering::Relaxed);
        }
        self.shutdown.request();
    }
}

/// What the generator thread measured.
struct Live {
    lag_ns: Vec<u64>,
    window: (ObsSnap, ObsSnap),
    /// `VmHWM` at the end of the open-loop phase, MiB.
    open_peak_rss_mb: f64,
    /// Host `(steal, total)` at the open-loop phase's start and at each
    /// slice boundary.
    open_steal: Vec<(u64, u64)>,
    /// `(completions, program CPU µs, host (steal, total))` at the
    /// capacity phase's start and at each slice boundary.
    cap_marks: Vec<(u64, u64, (u64, u64))>,
    cap_completed: u64,
    cap_alloc: (u64, u64),
    quiesced: Vec<(usize, u64)>,
}

/// The generator thread: the open-loop phase, then the capacity phase.
#[allow(clippy::too_many_arguments)]
fn drive(
    args: &Args,
    pool: &[String],
    plan: &[Req],
    epoch: Instant,
    start_ns: u64,
    cap_ns: u64,
    addr: std::net::SocketAddr,
    tally: &mut Tally,
    seller_tid: &AtomicU64,
) -> Result<(Live, Client), String> {
    alloc::exclude_this_thread();
    let io = |what: &'static str| move |e: std::io::Error| format!("{what}: {e}");
    let my_tid = sys::current_tid().map_err(io("thread id"))?;
    let mut client = Client::connect(addr, pool, epoch).map_err(io("connect"))?;
    let mut lag_ns = Vec::with_capacity(plan.len());
    let window0 = ObsSnap::take();
    // Slice edges are read at the first completion past each boundary.
    let open_slice = (plan.last().map_or(0, |r| r.due_ns) + 1).div_ceil(SLICES as u64);
    let mut open_steal = vec![host_cpu()?];
    let mut steal_err = None;
    client
        .open_loop(plan, start_ns, GRACE, &mut lag_ns, &mut |p, at, r| {
            while open_steal.len() <= SLICES
                && at >= start_ns + open_steal.len() as u64 * open_slice
            {
                match host_cpu() {
                    Ok(m) => open_steal.push(m),
                    Err(e) => {
                        steal_err = Some(e);
                        open_steal.push((0, 0));
                    }
                }
            }
            tally.done(p, at, r, true)
        })
        .map_err(io("open-loop phase"))?;
    while open_steal.len() <= SLICES {
        open_steal.push(host_cpu()?);
    }
    if let Some(e) = steal_err {
        return Err(e);
    }
    // Read before the capacity phase, whose work (and so whose ledger
    // growth) follows the host's speed.
    let open_peak_rss_mb = sys::peak_rss_mb().map_err(io("VmHWM"))?;

    // Capacity phase. Program CPU is the process's CPU minus the
    // generator threads' (this one and the seller), sampled at the start
    // and at the first completion past each slice boundary.
    let seller = seller_tid.load(Ordering::Relaxed);
    let gen_cpu = |tid: u64| {
        if tid == 0 {
            Ok(0)
        } else {
            sys::thread_cpu_us(tid)
        }
    };
    let program_cpu = || -> std::io::Result<u64> {
        Ok(sys::process_cpu_us()?.saturating_sub(gen_cpu(my_tid)? + gen_cpu(seller)?))
    };
    let cap_start = client.now() + 5_000_000;
    let slice_ns = cap_ns / SLICES as u64;
    let mut draw = Draw::new(args.workload, args.seed, 2);
    let mut marks = vec![(0u64, program_cpu().map_err(io("cpu"))?, host_cpu()?)];
    let mut mark_err = None;
    let alloc0 = alloc::snapshot();
    let mut cap_completed = 0u64;
    client
        .closed_loop(
            &mut draw,
            args.workload.depth,
            cap_start,
            cap_start + cap_ns,
            GRACE,
            &mut |p, at, r| {
                while marks.len() <= SLICES && at >= cap_start + marks.len() as u64 * slice_ns {
                    match (program_cpu(), host_cpu()) {
                        (Ok(cpu), Ok(host)) => marks.push((cap_completed, cpu, host)),
                        (cpu, host) => {
                            mark_err = Some(format!("{:?} {:?}", cpu.err(), host.err()));
                            marks.push((cap_completed, 0, (0, 0)));
                        }
                    }
                }
                cap_completed += 1;
                tally.done(p, at, r, false)
            },
        )
        .map_err(io("capacity phase"))?;
    if let Some(e) = mark_err {
        return Err(format!("cpu: {e}"));
    }
    while marks.len() <= SLICES {
        marks.push((
            cap_completed,
            program_cpu().map_err(io("cpu"))?,
            host_cpu()?,
        ));
    }
    let alloc1 = alloc::snapshot();
    let window1 = ObsSnap::take();
    Ok((
        Live {
            lag_ns,
            window: (window0, window1),
            open_peak_rss_mb,
            open_steal,
            cap_marks: marks,
            cap_completed,
            cap_alloc: (alloc1.0 - alloc0.0, alloc1.1 - alloc0.1),
            quiesced: Vec::new(),
        },
        client,
    ))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Result<Args, String> {
        Args::parse(s.split_whitespace().map(str::to_string))
    }

    #[test]
    fn parses_the_benchmark_command_line() {
        let a = args("--workload reprice_storm --seed 7 --seconds 30 --trace 1").expect("parses");
        assert_eq!(
            (a.workload.name, a.seed, a.seconds, a.trace),
            ("reprice_storm", 7, 30, true)
        );
        assert!(args("--workload nope --seed 1").is_err());
        assert!(args("--workload quote_hot --trace 2").is_err());
        assert!(args("--workload quote_hot --seed").is_err());
        assert!(args("--seed 1").is_err());
    }
}
