//! What the benchmark runs: the E19 chain market, the query pool, the
//! three workloads, and the seeded request schedules drawn from them.

use qbdp_catalog::{tuple, Catalog, CatalogBuilder, Column};
use qbdp_core::{Price, PriceList};
use qbdp_determinacy::selection::SelectionView;
use qbdp_market::Market;
use qbdp_workload::zipf::Zipf;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Column domain `0..N`; also the number of selection queries.
pub const N: i64 = 64;

/// The chain join every workload's pool may include.
pub const CHAIN_JOIN: &str = "Q(x, y) :- R(x), S(x, y), T(y)";

/// E17's arbitrage-free revision range for an `S.X` view, in cents.
pub const REVISION_CENTS: std::ops::RangeInclusive<u64> = 110..=289;

/// A request the HTTP generator sends.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kind {
    /// `POST /quote`.
    Quote,
    /// `POST /purchase`.
    Purchase,
}

/// One workload: a traffic mix with its rates, pipeline depth and
/// latency limit.
#[derive(Clone, Copy, Debug)]
pub struct Workload {
    /// Name passed as `--workload`.
    pub name: &'static str,
    /// Open-loop HTTP arrival rate, requests per second.
    pub rate: f64,
    /// Share of HTTP requests that are purchases.
    pub purchase_share: f64,
    /// Share of quotes that are the chain join instead of a selection.
    pub chain_share: f64,
    /// Open-loop `set_price` rate on the seller thread (0 = none).
    pub reprice_rate: f64,
    /// Requests each connection keeps outstanding in the capacity phase.
    pub depth: usize,
    /// Open-loop latency limit behind `gen.slo_miss_frac`, microseconds.
    pub limit_us: f64,
}

/// Every workload, in the order `BENCHMARK.json` lists them.
pub const WORKLOADS: [Workload; 3] = [
    Workload {
        name: "quote_hot",
        rate: 20_000.0,
        purchase_share: 0.0,
        chain_share: 0.0,
        reprice_rate: 0.0,
        depth: 32,
        limit_us: 1_000.0,
    },
    Workload {
        name: "reprice_storm",
        rate: 2_000.0,
        purchase_share: 0.0,
        chain_share: 0.02,
        reprice_rate: 100.0,
        depth: 32,
        limit_us: 10_000.0,
    },
    Workload {
        name: "purchase_mix",
        rate: 2_000.0,
        purchase_share: 0.1,
        chain_share: 0.0,
        reprice_rate: 0.0,
        depth: 32,
        limit_us: 5_000.0,
    },
];

impl Workload {
    /// Look a workload up by name.
    pub fn named(name: &str) -> Option<Workload> {
        WORKLOADS.iter().copied().find(|w| w.name == name)
    }

    /// Whether prices stay fixed for the whole run, so every response
    /// can be checked against the cold price taken before it.
    pub fn prices_fixed(&self) -> bool {
        self.reprice_rate == 0.0
    }
}

/// The chain market: R(X), S(X,Y), T(Y) over `0..N`, three S-tuples
/// per x, S views at 150¢ and every other view at 100¢.
pub fn chain_market() -> Market {
    let col = Column::int_range(0, N);
    let catalog: Catalog = CatalogBuilder::new()
        .uniform_relation("R", &["X"], &col)
        .uniform_relation("S", &["X", "Y"], &col)
        .uniform_relation("T", &["Y"], &col)
        .build()
        .expect("chain catalog builds");
    let mut instance = catalog.empty_instance();
    let rel = |n: &str| catalog.schema().rel_id(n).expect("chain relation");
    let (r, s, t) = (rel("R"), rel("S"), rel("T"));
    for x in 0..N {
        instance.insert(r, tuple![x]).expect("R tuple");
        instance.insert(t, tuple![x]).expect("T tuple");
        for k in 1..4 {
            instance.insert(s, tuple![x, (x + k) % N]).expect("S tuple");
        }
    }
    let mut prices = PriceList::new();
    for attr in catalog.schema().all_attrs() {
        let cents = if catalog.schema().attr_display(attr).starts_with("S.") {
            150
        } else {
            100
        };
        for v in catalog.column(attr).iter() {
            prices.set(SelectionView::new(attr, v.clone()), Price::cents(cents));
        }
    }
    Market::open(catalog, instance, prices).expect("chain market opens")
}

/// The query pool: `Q(y) :- S(c, y)` for every `c`, then the chain join
/// at index `N`.
pub fn pool() -> Vec<String> {
    let mut p: Vec<String> = (0..N).map(|c| format!("Q(y) :- S({c}, y)")).collect();
    p.push(CHAIN_JOIN.to_string());
    p
}

/// Raw HTTP bytes for one request.
pub fn request_bytes(kind: Kind, query: &str) -> Vec<u8> {
    let path = match kind {
        Kind::Quote => "/quote",
        Kind::Purchase => "/purchase",
    };
    format!(
        "POST {path} HTTP/1.1\r\nContent-Length: {}\r\n\r\n{query}",
        query.len()
    )
    .into_bytes()
}

/// One scheduled HTTP request.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Req {
    /// Due time, nanoseconds after the phase starts.
    pub due_ns: u64,
    /// Endpoint.
    pub kind: Kind,
    /// Index into [`pool`].
    pub q: usize,
}

/// One scheduled seller revision.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Revision {
    /// Due time, nanoseconds after the open-loop phase starts.
    pub due_ns: u64,
    /// `S.X=v` selector.
    pub view: String,
    /// New price.
    pub cents: u64,
}

/// Arrival times of a Poisson process at `rate` per second over
/// `duration_ns`, in nanoseconds: exponential gaps from a generator
/// seeded by `seed` alone.
pub fn poisson(seed: u64, rate: f64, duration_ns: u64) -> Vec<u64> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut out = Vec::new();
    let mut t = 0.0f64;
    loop {
        let u: f64 = rng.gen();
        t += -(1.0 - u).ln() / rate * 1e9;
        if t >= duration_ns as f64 {
            return out;
        }
        out.push(t as u64);
    }
}

/// Draws request kinds and queries for one workload from one seed.
pub struct Draw {
    rng: StdRng,
    zipf: Zipf,
    w: Workload,
}

impl Draw {
    /// A draw stream for `w`; distinct `stream` values give independent
    /// streams from the same seed.
    pub fn new(w: Workload, seed: u64, stream: u64) -> Draw {
        Draw {
            rng: StdRng::seed_from_u64(seed ^ stream.wrapping_mul(0x9E37_79B9_7F4A_7C15)),
            zipf: Zipf::new(N as usize, 1.1),
            w,
        }
    }

    /// The next request's endpoint and pool index.
    pub fn draw(&mut self) -> (Kind, usize) {
        let kind = if self.rng.gen_bool(self.w.purchase_share) {
            Kind::Purchase
        } else {
            Kind::Quote
        };
        let q = if kind == Kind::Quote && self.rng.gen_bool(self.w.chain_share) {
            N as usize
        } else {
            self.zipf.sample(&mut self.rng)
        };
        (kind, q)
    }
}

/// The open-loop HTTP schedule for `w` over `duration_ns`.
pub fn open_loop_plan(w: Workload, seed: u64, duration_ns: u64) -> Vec<Req> {
    let mut draw = Draw::new(w, seed, 1);
    poisson(seed ^ 0xA5A5, w.rate, duration_ns)
        .into_iter()
        .map(|due_ns| {
            let (kind, q) = draw.draw();
            Req { due_ns, kind, q }
        })
        .collect()
}

/// The seller's revisions for `w` over `duration_ns`: Poisson arrivals,
/// a uniform `S.X` view, and a price from E17's range.
pub fn revision_plan(w: Workload, seed: u64, duration_ns: u64) -> Vec<Revision> {
    if w.reprice_rate == 0.0 {
        return Vec::new();
    }
    let mut rng = StdRng::seed_from_u64(seed ^ 0x5E11);
    poisson(seed ^ 0x5E12, w.reprice_rate, duration_ns)
        .into_iter()
        .map(|due_ns| Revision {
            due_ns,
            view: format!("S.X={}", rng.gen_range(0..N)),
            cents: rng.gen_range(REVISION_CENTS),
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seeded_poisson_schedule_is_deterministic() {
        let a = poisson(7, 2_000.0, 1_000_000_000);
        assert_eq!(a, poisson(7, 2_000.0, 1_000_000_000));
        assert_ne!(a, poisson(8, 2_000.0, 1_000_000_000));
        assert!(a.windows(2).all(|w| w[0] <= w[1]));
        assert!(a.iter().all(|&t| t < 1_000_000_000));
        // 2000/s for one second: the count is Poisson(2000), so within
        // five standard deviations of the mean.
        assert!((1_776..=2_224).contains(&a.len()), "{}", a.len());
    }

    #[test]
    fn plans_are_deterministic_per_seed() {
        for w in WORKLOADS {
            let d = 200_000_000;
            assert_eq!(open_loop_plan(w, 3, d), open_loop_plan(w, 3, d));
            assert_ne!(open_loop_plan(w, 3, d), open_loop_plan(w, 4, d));
            assert_eq!(revision_plan(w, 3, d), revision_plan(w, 3, d));
        }
    }

    #[test]
    fn draws_follow_the_workload_mix() {
        let w = Workload::named("purchase_mix").expect("workload");
        let plan = open_loop_plan(w, 1, 2_000_000_000);
        let buys = plan.iter().filter(|r| r.kind == Kind::Purchase).count();
        let share = buys as f64 / plan.len() as f64;
        assert!((0.07..0.13).contains(&share), "{share}");
        assert!(plan.iter().all(|r| r.q < N as usize));
        let hot = Workload::named("quote_hot").expect("workload");
        assert!(open_loop_plan(hot, 1, 100_000_000)
            .iter()
            .all(|r| r.kind == Kind::Quote));
        let storm = Workload::named("reprice_storm").expect("workload");
        let revs = revision_plan(storm, 1, 1_000_000_000);
        assert!(!revs.is_empty());
        assert!(revs.iter().all(|r| REVISION_CENTS.contains(&r.cents)));
    }

    #[test]
    fn the_chain_market_prices_the_pool() {
        let m = chain_market();
        for q in pool() {
            assert!(m
                .quote_str(&q)
                .expect("pool query prices")
                .price
                .is_finite());
        }
    }
}
