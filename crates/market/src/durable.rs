//! [`DurableMarket`]: a [`Market`] whose journal is a `qbdp-store`
//! write-ahead log under a directory, so the market can be reopened —
//! or recovered after a crash — byte-exactly.
//!
//! The write protocol itself lives in [`Market`] (see [`crate::market`]):
//! every mutation is appended to the journal before it is applied, and
//! a `DurableMarket` is just the market whose journal holds a [`Wal`].
//! This module owns what only a directory has: its layout, creation,
//! recovery, compaction, and scrubbing.
//!
//! # Layout
//!
//! ```text
//! <dir>/snapshot.qdps   atomic checksummed snapshot (state @ wal_pos)
//! <dir>/market.wal      CRC-framed event log (suffix since snapshot)
//! ```
//!
//! The snapshot's `market` section is the existing [`Market::to_qdp`]
//! text; `ledger` and `policy` sections carry what `.qdp` does not.
//! Recovery is snapshot-load + suffix-replay into a journal-less market,
//! which then gets the log attached.
//!
//! # Recovery invariants
//!
//! * **Prefix consistency**: for any byte the log was cut at, recovery
//!   produces the state of a market that applied exactly the durable
//!   prefix (the torn tail is truncated by [`Wal::open`]).
//! * **Checked books**: ledger replay uses checked revenue arithmetic;
//!   an overflowing history surfaces [`MarketError::RevenueOverflow`]
//!   instead of wrapping.
//! * **Cold cache at epoch 0**: replay bumps the quote-cache epoch once
//!   per mutation like live traffic would, and the epilogue resets the
//!   (empty) cache to epoch 0 — a recovered market is indistinguishable
//!   from a freshly opened one and cannot serve pre-crash entries.

use crate::error::MarketError;
use crate::ledger::Ledger;
use crate::market::{Market, MarketPolicy};
use qbdp_catalog::{Tuple, Value};
use qbdp_core::Price;
use qbdp_store::scrub::ScrubReport;
use qbdp_store::{FsyncPolicy, MarketEvent, RealFs, RetryPolicy, Snapshot, StoreError, Vfs, Wal};
use std::path::{Path, PathBuf};
use std::sync::Arc;

/// Snapshot filename inside a durable market directory.
pub const SNAPSHOT_FILE: &str = "snapshot.qdps";
/// WAL filename inside a durable market directory.
pub const WAL_FILE: &str = "market.wal";

/// One step of a recovery replay, as seen by an observer callback.
#[derive(Debug)]
pub enum ReplayStep<'a> {
    /// The snapshot has been loaded; no log events applied yet.
    SnapshotLoaded,
    /// One log event has just been applied.
    Applied(&'a MarketEvent),
}

/// A market with a write-ahead log and snapshots under a directory.
/// Quotes and mutations go through [`DurableMarket::market`] (or the
/// [`crate::MarketOps`] trait); every mutation is logged there.
pub struct DurableMarket {
    market: Market,
    vfs: Arc<dyn Vfs>,
    retry: RetryPolicy,
    dir: PathBuf,
}

impl std::fmt::Debug for DurableMarket {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("DurableMarket")
            .field("dir", &self.dir)
            .field("wal_position", &self.wal_position())
            .finish_non_exhaustive()
    }
}

fn corrupt(offset: u64, reason: impl Into<String>) -> MarketError {
    MarketError::Store(StoreError::CorruptRecord {
        offset,
        reason: reason.into(),
    })
}

/// The snapshot's `policy` section: the fields of the policy's
/// [`MarketEvent::PolicyChange`], one `key value` line each.
fn policy_text(p: &MarketPolicy) -> String {
    let MarketEvent::PolicyChange {
        deadline_ms,
        fuel,
        sell_degraded,
        max_in_flight,
        batch_workers,
    } = MarketEvent::from(*p)
    else {
        return String::new();
    };
    let opt = |v: Option<u64>| v.map_or("-".to_string(), |v| v.to_string());
    format!(
        "deadline_ms {}\nfuel {}\nsell_degraded {}\nmax_in_flight {}\nbatch_workers {}\n",
        opt(deadline_ms),
        opt(fuel),
        u8::from(sell_degraded),
        max_in_flight,
        batch_workers,
    )
}

/// Parse [`policy_text`] output.
fn parse_policy(text: &str) -> Result<MarketPolicy, StoreError> {
    let bad = |m: &str| StoreError::CorruptSnapshot(format!("policy section: {m}"));
    let mut lines = text.lines();
    let mut field = |key: &str| -> Result<String, StoreError> {
        lines
            .next()
            .and_then(|l| l.strip_prefix(key))
            .map(|v| v.trim().to_string())
            .ok_or_else(|| bad(&format!("missing `{key}`")))
    };
    let opt = |v: &str| -> Result<Option<u64>, StoreError> {
        if v == "-" {
            Ok(None)
        } else {
            v.parse().map(Some).map_err(|_| bad("bad number"))
        }
    };
    let event = MarketEvent::PolicyChange {
        deadline_ms: opt(&field("deadline_ms ")?)?,
        fuel: opt(&field("fuel ")?)?,
        sell_degraded: field("sell_degraded ")? == "1",
        max_in_flight: field("max_in_flight ")?
            .parse()
            .map_err(|_| bad("bad max_in_flight"))?,
        batch_workers: field("batch_workers ")?
            .parse()
            .map_err(|_| bad("bad batch_workers"))?,
    };
    MarketPolicy::from_event(&event).ok_or_else(|| bad("not a policy"))
}

/// A snapshot of `market` covering log position `wal_pos`.
fn snapshot_of(market: &Market, wal_pos: u64) -> Snapshot {
    let mut snapshot = Snapshot::new(wal_pos);
    snapshot.push_section("market", market.to_qdp());
    snapshot.push_section("ledger", market.with_ledger(Ledger::to_snapshot_text));
    snapshot.push_section("policy", policy_text(&market.policy()));
    snapshot
}

impl DurableMarket {
    /// Initialize `dir` as a durable market seeded from `.qdp` text:
    /// write the genesis snapshot (covering log position 0) and an empty
    /// log. Fails with [`StoreError::AlreadyInitialized`] if a snapshot
    /// already exists.
    pub fn create(
        dir: impl AsRef<Path>,
        qdp: &str,
        fsync: FsyncPolicy,
    ) -> Result<DurableMarket, MarketError> {
        Self::create_with(Arc::new(RealFs), dir, qdp, fsync, RetryPolicy::default())
    }

    /// [`DurableMarket::create`] on an explicit [`Vfs`] with an explicit
    /// transient-fault [`RetryPolicy`] — the chaos harness's entry
    /// point, and the seam a future replicated store plugs into.
    pub fn create_with(
        vfs: Arc<dyn Vfs>,
        dir: impl AsRef<Path>,
        qdp: &str,
        fsync: FsyncPolicy,
        retry: RetryPolicy,
    ) -> Result<DurableMarket, MarketError> {
        let dir = dir.as_ref().to_path_buf();
        vfs.create_dir_all(&dir).map_err(StoreError::from)?;
        let snapshot_path = dir.join(SNAPSHOT_FILE);
        if vfs.exists(&snapshot_path) {
            return Err(MarketError::Store(StoreError::AlreadyInitialized));
        }
        // Validate the seed (consistency check included) before touching
        // disk, and serialize the *parsed* form so the snapshot is
        // canonical from day one.
        let market = Market::open_qdp(qdp)?;
        // A stale log without a snapshot is not a market; drop it
        // *before* the genesis snapshot exists, so a crash anywhere in
        // create() leaves an uninitialized directory (no snapshot)
        // rather than a genesis snapshot beside an orphaned old log
        // whose events the next open() would replay into the freshly
        // seeded market. Deleting (rather than truncating) also lets
        // create() succeed over a corrupt leftover log.
        let wal_path = dir.join(WAL_FILE);
        match vfs.remove_file(&wal_path) {
            Ok(()) => {}
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => {}
            Err(e) => return Err(MarketError::Store(e.into())),
        }
        let wal = Wal::open_with(Arc::clone(&vfs), &wal_path, fsync, retry)?;
        snapshot_of(&market, 0).write_with(vfs.as_ref(), &snapshot_path, &retry)?;
        market.attach_journal(wal);
        Ok(DurableMarket {
            market,
            vfs,
            retry,
            dir,
        })
    }

    /// Open an initialized durable market: load the snapshot, replay the
    /// log suffix it does not cover, reset the quote cache to epoch 0.
    pub fn open(dir: impl AsRef<Path>, fsync: FsyncPolicy) -> Result<DurableMarket, MarketError> {
        Self::open_with_observer(dir, fsync, |_, _| {})
    }

    /// [`DurableMarket::open`] on an explicit [`Vfs`] with an explicit
    /// retry policy. Recovery always reopens Healthy: whatever poisoned
    /// the previous handle, the reopened log starts from a repaired,
    /// verified prefix.
    pub fn open_on(
        vfs: Arc<dyn Vfs>,
        dir: impl AsRef<Path>,
        fsync: FsyncPolicy,
        retry: RetryPolicy,
    ) -> Result<DurableMarket, MarketError> {
        Self::open_with_observer_on(vfs, dir, fsync, retry, |_, _| {})
    }

    /// [`DurableMarket::open`] with a callback invoked once after the
    /// snapshot loads and once after each replayed event — the hook the
    /// CLI `replay` verb uses to record §2.7 price trajectories without
    /// duplicating recovery logic.
    pub fn open_with_observer(
        dir: impl AsRef<Path>,
        fsync: FsyncPolicy,
        observer: impl FnMut(ReplayStep<'_>, &Market),
    ) -> Result<DurableMarket, MarketError> {
        Self::open_with_observer_on(
            Arc::new(RealFs),
            dir,
            fsync,
            RetryPolicy::default(),
            observer,
        )
    }

    /// [`DurableMarket::open_with_observer`] on an explicit [`Vfs`].
    pub fn open_with_observer_on(
        vfs: Arc<dyn Vfs>,
        dir: impl AsRef<Path>,
        fsync: FsyncPolicy,
        retry: RetryPolicy,
        mut observer: impl FnMut(ReplayStep<'_>, &Market),
    ) -> Result<DurableMarket, MarketError> {
        let dir = dir.as_ref().to_path_buf();
        let mut snapshot = Snapshot::load_with(vfs.as_ref(), dir.join(SNAPSHOT_FILE))?;
        let qdp = snapshot
            .section("market")
            .ok_or_else(|| StoreError::CorruptSnapshot("missing `market` section".into()))?;
        let market = Market::open_qdp(qdp)?;
        let ledger_text = snapshot
            .section("ledger")
            .ok_or_else(|| StoreError::CorruptSnapshot("missing `ledger` section".into()))?;
        let ledger = Ledger::from_snapshot_text(ledger_text)
            .map_err(|m| StoreError::CorruptSnapshot(format!("ledger section: {m}")))?;
        market.restore_ledger(ledger);
        if let Some(text) = snapshot.section("policy") {
            market.apply_policy(parse_policy(text)?);
        }
        let wal = Wal::open_with(Arc::clone(&vfs), dir.join(WAL_FILE), fsync, retry)?;
        // Compaction crash window: a crash between `wal.reset()` and the
        // final snapshot rewrite in `compact()` leaves the snapshot
        // claiming a position past the now-empty log. The *state* is
        // correct (the snapshot covers every truncated event), but the
        // stale position must be rebased on disk before any new append
        // lands at a smaller offset — otherwise the next open's
        // `replay_from(wal_pos)` would silently drop those appends (log
        // still shorter than `wal_pos`) or refuse them as corrupt (scan
        // starting mid-record once the log outgrows `wal_pos`). An
        // ordinary crash can never produce `wal_pos > position`: the
        // torn-tail truncation in `Wal::open` only cuts *incomplete*
        // frames appended after the snapshot's record boundary.
        if snapshot.wal_pos > wal.position() {
            snapshot.wal_pos = wal.position();
            snapshot.write_with(vfs.as_ref(), dir.join(SNAPSHOT_FILE), &retry)?;
        }
        observer(ReplayStep::SnapshotLoaded, &market);
        for record in wal.replay_from(snapshot.wal_pos)? {
            apply_event(&market, &record.event, record.start)?;
            observer(ReplayStep::Applied(&record.event), &market);
        }
        market.reset_cache();
        market.attach_journal(wal);
        Ok(DurableMarket {
            market,
            vfs,
            retry,
            dir,
        })
    }

    /// Open `dir` if initialized; otherwise, when seed `.qdp` text is
    /// provided, initialize it. The CLI `serve-dir` verb's semantics.
    pub fn open_or_create(
        dir: impl AsRef<Path>,
        seed_qdp: Option<&str>,
        fsync: FsyncPolicy,
    ) -> Result<DurableMarket, MarketError> {
        Self::open_or_create_with(
            Arc::new(RealFs),
            dir,
            seed_qdp,
            fsync,
            RetryPolicy::default(),
        )
    }

    /// [`DurableMarket::open_or_create`] on an explicit [`Vfs`].
    pub fn open_or_create_with(
        vfs: Arc<dyn Vfs>,
        dir: impl AsRef<Path>,
        seed_qdp: Option<&str>,
        fsync: FsyncPolicy,
        retry: RetryPolicy,
    ) -> Result<DurableMarket, MarketError> {
        let dir = dir.as_ref();
        if vfs.exists(&dir.join(SNAPSHOT_FILE)) {
            Self::open_on(vfs, dir, fsync, retry)
        } else if let Some(qdp) = seed_qdp {
            Self::create_with(vfs, dir, qdp, fsync, retry)
        } else {
            Err(MarketError::Store(StoreError::SnapshotMissing))
        }
    }

    /// Walk the snapshot and WAL verifying every checksum, reporting
    /// damage before it is load-bearing. Read-only and background-free:
    /// safe against a live market between syncs.
    pub fn scrub(&self) -> ScrubReport {
        qbdp_store::scrub(
            self.vfs.as_ref(),
            &self.dir.join(SNAPSHOT_FILE),
            &self.dir.join(WAL_FILE),
        )
    }

    /// The market, journaled to this directory: quotes, explains,
    /// introspection, and every mutation (each one logged before it is
    /// applied).
    pub fn market(&self) -> &Market {
        &self.market
    }

    /// The directory this market persists under.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Current end-of-log position (bytes).
    pub fn wal_position(&self) -> u64 {
        self.market
            .with_wal(|wal| Ok(wal.position()))
            .unwrap_or_default()
    }

    /// Force the log to stable storage regardless of the fsync policy.
    pub fn sync(&self) -> Result<(), MarketError> {
        self.market.with_wal(Wal::sync)
    }

    /// Write a fresh snapshot covering the whole log, then truncate the
    /// log. Two-phase so a crash at any point recovers correctly: the
    /// snapshot covering position `P` lands atomically *before* the log
    /// is truncated (crash between the two → replay-from-`P` of a
    /// shorter log is empty), and the final snapshot rewrite just
    /// rebases the recorded position to the now-empty log. A crash
    /// between the truncation and that rebasing rewrite leaves
    /// `wal_pos = P` over an empty log; [`DurableMarket::open`] detects
    /// `wal_pos` past the log end and rewrites the snapshot before
    /// accepting new appends, so no post-recovery mutation can land at
    /// an offset the recorded position would skip.
    ///
    /// Returns the log position the snapshot covers (bytes compacted).
    ///
    /// Failure typing: a transient fault that outlives its retries while
    /// building the temp snapshot (create/write/fsync of `.tmp`)
    /// surfaces as the typed [`StoreError::Transient`] and leaves the
    /// market **healthy** — nothing past the temp file was touched, the
    /// previous snapshot still covers the full log, and the caller may
    /// simply compact again later. Only contract-voiding faults
    /// (`ENOSPC`, fsync-poison) degrade the market to read-only.
    // audit: holds-lock(wal)
    pub fn compact(&self) -> Result<u64, MarketError> {
        let sw = qbdp_obs::Stopwatch::start();
        self.market.ensure_writable()?;
        let path = self.dir.join(SNAPSHOT_FILE);
        let covered = self.market.with_wal(|wal| {
            let covered = wal.position();
            wal.append(&MarketEvent::SnapshotMark { wal_pos: covered })?;
            wal.sync()?;
            let mut snapshot = snapshot_of(&self.market, wal.position());
            snapshot.write_with(self.vfs.as_ref(), &path, &self.retry)?;
            wal.reset()?;
            snapshot.wal_pos = 0;
            snapshot.write_with(self.vfs.as_ref(), &path, &self.retry)?;
            Ok(covered)
        })?;
        qbdp_obs::record(qbdp_obs::Ctr::StoreCompactions, 1);
        sw.stop(qbdp_obs::Hst::CompactionUs);
        Ok(covered)
    }
}

/// Apply one logged event to a recovering market. Validation failures
/// are skipped (they were returned to the live caller as errors and
/// mutated nothing — see the [`crate::market`] docs); undecodable
/// literals and overflowing books are hard errors.
fn apply_event(market: &Market, event: &MarketEvent, offset: u64) -> Result<(), MarketError> {
    match event {
        MarketEvent::SetPrice { view, cents } => {
            let _ = market.apply_set_price(view, Price::cents(*cents));
        }
        MarketEvent::InsertTuple { relation, values } => {
            let parsed: Option<Vec<Value>> =
                values.iter().map(|v| Value::parse_literal(v)).collect();
            let Some(parsed) = parsed else {
                return Err(corrupt(offset, "unparseable tuple literal"));
            };
            let _ = market.apply_insert(relation, Tuple::new(parsed));
        }
        MarketEvent::Purchase {
            query,
            price_cents,
            answer_tuples,
            views,
        } => {
            market.apply_recorded_sale(
                query.clone(),
                Price::cents(*price_cents),
                *answer_tuples as usize,
                *views as usize,
            )?;
        }
        MarketEvent::PolicyChange { .. } => {
            if let Some(policy) = MarketPolicy::from_event(event) {
                market.apply_policy(policy);
            }
        }
        MarketEvent::SnapshotMark { .. } => {}
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::market::MarketHealth;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::time::Duration;

    const QDP: &str = r#"
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

    fn temp_dir(tag: &str) -> PathBuf {
        static N: AtomicUsize = AtomicUsize::new(0);
        std::env::temp_dir().join(format!(
            "qbdp_durable_{tag}_{}_{}",
            std::process::id(),
            N.fetch_add(1, Ordering::Relaxed)
        ))
    }

    fn drive(dm: &DurableMarket) {
        dm.market()
            .insert("R", [Tuple::new([Value::text("a3")])])
            .unwrap();
        dm.market().set_price("T.Y=b2", Price::cents(250)).unwrap();
        dm.market().purchase_str("Q(x) :- R(x)").unwrap();
        dm.market()
            .purchase_str("Q(x, y) :- R(x), S(x, y), T(y)")
            .unwrap();
        let mut policy = dm.market().policy();
        policy.fuel = Some(1_000_000);
        dm.market().set_policy(policy).unwrap();
    }

    fn assert_same(a: &Market, b: &Market) {
        assert_eq!(a.to_qdp(), b.to_qdp());
        assert_eq!(a.revenue(), b.revenue());
        assert_eq!(
            a.with_ledger(Ledger::to_snapshot_text),
            b.with_ledger(Ledger::to_snapshot_text)
        );
        assert_eq!(a.policy(), b.policy());
        let q = "Q(x, y) :- R(x), S(x, y)";
        let qa = a.quote_str(q).unwrap();
        let qb = b.quote_str(q).unwrap();
        assert_eq!(qa.price, qb.price);
        assert_eq!(qa.quality, qb.quality);
    }

    #[test]
    fn reopen_replays_to_identical_state() {
        let dir = temp_dir("reopen");
        let dm = DurableMarket::create(&dir, QDP, FsyncPolicy::Never).unwrap();
        drive(&dm);
        let live_qdp = dm.market().to_qdp();
        drop(dm);
        let back = DurableMarket::open(&dir, FsyncPolicy::Never).unwrap();
        assert_eq!(back.market().to_qdp(), live_qdp);
        assert_eq!(back.market().cache_epoch(), 0, "recovered cache is cold");
        let fresh = Market::open_qdp(&live_qdp).unwrap();
        assert_eq!(fresh.to_qdp(), back.market().to_qdp());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn compact_then_reopen_matches_wal_reopen() {
        let dir_a = temp_dir("compact_a");
        let dir_b = temp_dir("compact_b");
        let a = DurableMarket::create(&dir_a, QDP, FsyncPolicy::Never).unwrap();
        let b = DurableMarket::create(&dir_b, QDP, FsyncPolicy::Never).unwrap();
        drive(&a);
        drive(&b);
        let compacted = a.compact().unwrap();
        assert!(compacted > 0);
        assert_eq!(a.wal_position(), 0, "compaction truncates the log");
        // Post-compaction mutations land in the fresh log.
        a.market()
            .insert("T", [Tuple::new([Value::text("b2")])])
            .unwrap();
        b.market()
            .insert("T", [Tuple::new([Value::text("b2")])])
            .unwrap();
        drop(a);
        drop(b);
        let a = DurableMarket::open(&dir_a, FsyncPolicy::Never).unwrap();
        let b = DurableMarket::open(&dir_b, FsyncPolicy::Never).unwrap();
        assert_same(a.market(), b.market());
        std::fs::remove_dir_all(&dir_a).ok();
        std::fs::remove_dir_all(&dir_b).ok();
    }

    #[test]
    fn compact_crash_window_rebases_stale_snapshot_position() {
        let dir = temp_dir("compact_crash");
        let dm = DurableMarket::create(&dir, QDP, FsyncPolicy::Never).unwrap();
        drive(&dm);
        let covered = dm.compact().unwrap();
        assert!(covered > 0);
        let live_qdp = dm.market().to_qdp();
        drop(dm);
        // Reproduce a crash between `wal.reset()` and the rebasing
        // snapshot rewrite inside compact(): the on-disk state is the
        // compacted snapshot, but its recorded position is still the
        // pre-truncation offset over a now-empty log.
        let path = dir.join(SNAPSHOT_FILE);
        let mut snap = Snapshot::load(&path).unwrap();
        snap.wal_pos = covered;
        snap.write(&path).unwrap();
        // Recovery must load the full state, repair the stale position…
        let dm = DurableMarket::open(&dir, FsyncPolicy::Never).unwrap();
        assert_eq!(dm.market().to_qdp(), live_qdp);
        assert_eq!(
            Snapshot::load(&path).unwrap().wal_pos,
            0,
            "open() rewrites the stale snapshot position before accepting appends"
        );
        // …so acknowledged post-recovery mutations land at offsets the
        // snapshot no longer skips, and the *next* open replays them.
        dm.market()
            .insert("T", [Tuple::new([Value::text("b2")])])
            .unwrap();
        dm.market().purchase_str("Q(x) :- R(x)").unwrap();
        let qdp = dm.market().to_qdp();
        let revenue = dm.market().revenue();
        let ledger = dm.market().with_ledger(Ledger::to_snapshot_text);
        drop(dm);
        let back = DurableMarket::open(&dir, FsyncPolicy::Never).unwrap();
        assert_eq!(back.market().to_qdp(), qdp);
        assert_eq!(back.market().revenue(), revenue);
        assert_eq!(back.market().with_ledger(Ledger::to_snapshot_text), ledger);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn create_discards_stale_wal_before_writing_the_snapshot() {
        let dir = temp_dir("stale_wal");
        // Leave behind a log from a "previous market instance" — no
        // snapshot next to it, as after a crash mid-create.
        std::fs::create_dir_all(&dir).unwrap();
        {
            let mut wal = Wal::open(dir.join(WAL_FILE), FsyncPolicy::Never).unwrap();
            wal.append(&MarketEvent::SetPrice {
                view: "R.X=a1".into(),
                cents: 9999,
            })
            .unwrap();
        }
        let dm = DurableMarket::create(&dir, QDP, FsyncPolicy::Never).unwrap();
        assert_eq!(dm.wal_position(), 0, "stale log is gone before genesis");
        let seeded_qdp = dm.market().to_qdp();
        drop(dm);
        // Reopening replays nothing: the orphaned event never leaks into
        // the freshly seeded market.
        let back = DurableMarket::open(&dir, FsyncPolicy::Never).unwrap();
        assert_eq!(back.market().to_qdp(), seeded_qdp);
        assert_eq!(
            back.market().quote_str("Q(x) :- R(x)").unwrap().price,
            Market::open_qdp(QDP)
                .unwrap()
                .quote_str("Q(x) :- R(x)")
                .unwrap()
                .price
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn create_refuses_existing_directory() {
        let dir = temp_dir("exists");
        let dm = DurableMarket::create(&dir, QDP, FsyncPolicy::Never).unwrap();
        drop(dm);
        match DurableMarket::create(&dir, QDP, FsyncPolicy::Never) {
            Err(MarketError::Store(StoreError::AlreadyInitialized)) => {}
            other => panic!("expected AlreadyInitialized, got {other:?}"),
        }
        // open_or_create falls through to open.
        assert!(DurableMarket::open_or_create(&dir, None, FsyncPolicy::Never).is_ok());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn open_uninitialized_is_snapshot_missing() {
        let dir = temp_dir("missing");
        match DurableMarket::open(&dir, FsyncPolicy::Never) {
            Err(MarketError::Store(StoreError::SnapshotMissing)) => {}
            other => panic!("expected SnapshotMissing, got {other:?}"),
        }
        match DurableMarket::open_or_create(&dir, None, FsyncPolicy::Never) {
            Err(MarketError::Store(StoreError::SnapshotMissing)) => {}
            other => panic!("expected SnapshotMissing, got {other:?}"),
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn rejected_mutations_replay_as_no_ops() {
        let dir = temp_dir("rejected");
        let dm = DurableMarket::create(&dir, QDP, FsyncPolicy::Never).unwrap();
        dm.market()
            .insert("R", [Tuple::new([Value::text("a3")])])
            .unwrap();
        // Outside the declared column: refused live, logged, and must be
        // skipped identically on replay.
        assert!(dm
            .market()
            .insert("R", [Tuple::new([Value::text("zz")])])
            .is_err());
        assert!(dm.market().set_price("R.X=zz", Price::cents(5)).is_err());
        dm.market().purchase_str("Q(x) :- R(x)").unwrap();
        let live_qdp = dm.market().to_qdp();
        let live_revenue = dm.market().revenue();
        drop(dm);
        let back = DurableMarket::open(&dir, FsyncPolicy::Never).unwrap();
        assert_eq!(back.market().to_qdp(), live_qdp);
        assert_eq!(back.market().revenue(), live_revenue);
        std::fs::remove_dir_all(&dir).ok();
    }

    fn fault_setup(
        tag: &str,
        script: Vec<qbdp_store::ScriptedFault>,
    ) -> (PathBuf, qbdp_store::FaultFs, DurableMarket) {
        let dir = temp_dir(tag);
        let fs = qbdp_store::FaultFs::new(qbdp_store::FaultPlan {
            script,
            seeded: None,
        });
        let retry = RetryPolicy {
            attempts: 3,
            base_delay_micros: 1,
            max_delay_micros: 2,
            jitter_seed: 7,
        };
        let dm =
            DurableMarket::create_with(Arc::new(fs.clone()), &dir, QDP, FsyncPolicy::Always, retry)
                .unwrap();
        (dir, fs, dm)
    }

    #[test]
    fn enospc_degrades_to_read_only_and_reopen_recovers() {
        use qbdp_store::{FaultKind, FaultOp, ScriptedFault};
        let (dir, fs, dm) = fault_setup(
            "enospc",
            vec![ScriptedFault {
                op: FaultOp::Write,
                path_contains: "market.wal".into(),
                skip: 1,
                kind: FaultKind::Enospc { keep: 3 },
            }],
        );
        dm.market().purchase_str("Q(x) :- R(x)").unwrap();
        let revenue = dm.market().revenue();
        let quote_before = dm.market().quote_str("Q(x, y) :- R(x), S(x, y)").unwrap();
        // The scripted ENOSPC hits this append: mutation refused, market
        // flips to read-only.
        let err = dm
            .market()
            .set_price("T.Y=b2", Price::cents(250))
            .unwrap_err();
        assert!(matches!(err, MarketError::Store(ref e) if e.degrades_to_read_only()));
        assert!(matches!(
            dm.market().health(),
            MarketHealth::ReadOnly { .. }
        ));
        // Quotes keep serving the last consistent state; further
        // mutations are refused with the typed Degraded error.
        let quote_after = dm.market().quote_str("Q(x, y) :- R(x), S(x, y)").unwrap();
        assert_eq!(quote_before.price, quote_after.price);
        assert!(quote_after.lower_bound <= quote_after.price);
        assert!(matches!(
            dm.market().purchase_str("Q(x) :- R(x)"),
            Err(MarketError::Degraded(_))
        ));
        assert!(matches!(dm.compact(), Err(MarketError::Degraded(_))));
        assert_eq!(dm.market().revenue(), revenue, "no phantom sale recorded");
        // Reopening (fault cleared) recovers the acknowledged state and
        // a healthy market.
        drop(dm);
        let back =
            DurableMarket::open_on(Arc::new(fs), &dir, FsyncPolicy::Never, RetryPolicy::none())
                .unwrap();
        assert_eq!(back.market().health(), MarketHealth::Healthy);
        assert_eq!(back.market().revenue(), revenue);
        back.market()
            .set_price("T.Y=b2", Price::cents(250))
            .unwrap();
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn fsync_poison_degrades_and_loses_at_most_the_unacked_tail() {
        use qbdp_store::{FaultKind, FaultOp, ScriptedFault};
        // skip=2: the genesis create fsyncs once (snapshot tmp) on a
        // different file; target the WAL path so only its fsyncs count.
        let (dir, fs, dm) = fault_setup(
            "fsyncpoison",
            vec![ScriptedFault {
                op: FaultOp::Fsync,
                path_contains: "market.wal".into(),
                skip: 1,
                kind: FaultKind::FsyncFail,
            }],
        );
        dm.market().purchase_str("Q(x) :- R(x)").unwrap();
        let revenue = dm.market().revenue();
        let err = dm.market().purchase_str("Q(x) :- R(x)").unwrap_err();
        assert!(
            matches!(err, MarketError::Store(StoreError::Poisoned { .. })),
            "{err:?}"
        );
        assert!(matches!(
            dm.market().health(),
            MarketHealth::ReadOnly { .. }
        ));
        assert!(dm.market().quote_str("Q(x) :- R(x)").is_ok());
        drop(dm);
        let back =
            DurableMarket::open_on(Arc::new(fs), &dir, FsyncPolicy::Never, RetryPolicy::none())
                .unwrap();
        // The acked purchase survives; the refused one may or may not
        // have reached disk (fsyncgate uncertainty) but never partially.
        let doubled = revenue.checked_add(revenue);
        assert!(
            back.market().revenue() == revenue || Some(back.market().revenue()) == doubled,
            "revenue {:?} vs acked {revenue:?}",
            back.market().revenue()
        );
        assert_eq!(back.market().health(), MarketHealth::Healthy);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn compact_transient_fsync_is_typed_and_non_degrading() {
        use qbdp_store::{FaultKind, FaultOp, ScriptedFault};
        let dir = temp_dir("compact_transient");
        let fs = qbdp_store::FaultFs::new(qbdp_store::FaultPlan {
            script: Vec::new(),
            seeded: None,
        });
        // Zero retries: a single transient immediately exhausts the
        // budget and must surface as the typed Transient error.
        let dm = DurableMarket::create_with(
            Arc::new(fs.clone()),
            &dir,
            QDP,
            FsyncPolicy::Never,
            RetryPolicy::none(),
        )
        .unwrap();
        dm.market().purchase_str("Q(x) :- R(x)").unwrap();
        fs.set_plan(qbdp_store::FaultPlan {
            script: vec![ScriptedFault {
                op: FaultOp::Fsync,
                path_contains: "snapshot.tmp".into(),
                skip: 0,
                kind: FaultKind::Eintr,
            }],
            seeded: None,
        });
        let err = dm.compact().unwrap_err();
        match &err {
            MarketError::Store(StoreError::Transient { op, path, .. }) => {
                assert_eq!(*op, "snapshot-tmp");
                assert!(path.contains(".tmp"), "{path}");
            }
            other => panic!("expected typed Transient, got {other:?}"),
        }
        // Non-degrading: the market stays healthy and the retried
        // compaction succeeds.
        assert_eq!(dm.market().health(), MarketHealth::Healthy);
        dm.compact().unwrap();
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn scrub_reports_clean_then_detects_rot() {
        let dir = temp_dir("scrub");
        let dm = DurableMarket::create(&dir, QDP, FsyncPolicy::Always).unwrap();
        dm.market().purchase_str("Q(x) :- R(x)").unwrap();
        let report = dm.scrub();
        assert!(report.is_clean(), "{report}");
        assert!(report.wal_records >= 1);
        // Rot one byte in the log body behind the market's back.
        let wal_path = dir.join(WAL_FILE);
        let mut bytes = std::fs::read(&wal_path).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x10;
        std::fs::write(&wal_path, &bytes).unwrap();
        let report = dm.scrub();
        assert!(!report.is_clean());
        assert_eq!(report.findings[0].file, "wal");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn policy_text_roundtrips() {
        let p = MarketPolicy {
            deadline: Some(Duration::from_millis(1500)),
            fuel: Some(42),
            sell_degraded: true,
            batch_workers: 8,
            ..Default::default()
        };
        let back = parse_policy(&policy_text(&p)).unwrap();
        assert_eq!(back, p);
        assert!(parse_policy("garbage").is_err());
    }
}
