//! The disk-based engine family: Shore-MT and DBMS D.
//!
//! Both systems share the classical storage manager the paper studies in
//! §4.1: buffer-pool indirection on every tuple, hierarchical 2PL, WAL,
//! and a non-cache-conscious 8 KB-page B+tree (the source of their high
//! LLC data stalls, §4.1.3). They differ in what surrounds it, so each is
//! a [`DiskProfile`] over the one [`DiskEngine`]:
//!
//! * [`ShoreMtProfile`] — Shore-MT is "a storage manager and does not
//!   include the layers outside the storage manager component of an OLTP
//!   system such as query parser, query optimizer, and communication
//!   facilities. It hard-codes the query plan of the transaction in C++"
//!   (§3/§4.1.2), so its instruction stalls are clearly lower than DBMS
//!   D's.
//! * [`DbmsDProfile`] — the commercial disk-based system carries the full
//!   stack: network/session handling, SQL parsing (stored procedures
//!   still enter through the frontend), a plan-cache/optimizer layer, an
//!   interpreted executor, and a decades-old codebase; the paper blames
//!   this large, branchy footprint for DBMS D having the highest
//!   instruction stalls of all five systems (Figures 2, 3, 9, 12). Its
//!   B+tree pages are 8 KB too ("we could not find any publicly available
//!   information about tuning the node size", §4.1.3).
//!
//! Shared-everything concurrency: the storage structures (buffer pool,
//! lock table, WAL, heap/index) live behind one engine-wide mutex inside
//! an `Arc`; every worker opens a [`Session`] bound to its core. Each
//! operation holds the engine lock only for its own duration, while 2PL
//! row/table locks persist across operations — so concurrent sessions
//! conflict exactly where the lock manager says they do.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};

use indexes::{DiskBTree, DiskBTreePacked, Index};
use obs::Phase;
use oltp::{
    tuple, CcPolicy, ConcurrencyControl, Db, OltpError, OltpResult, Row, Session, TableDef,
    TableId, Value,
};
use storage::{
    lock::LockOutcome, BufferPool, HeapFile, LockManager, LockMode, LockTarget, LogKind, Rid,
    TxnId, TxnManager, Wal,
};
use uarch_sim::{CorePort, Mem, ModuleId, Sim};

use crate::common::{module, ModDef};

/// Storage-manager instruction budgets (see EXPERIMENTS.md for the
/// calibration against the paper's bars).
pub struct DiskCost {
    /// Transaction begin in the txn manager.
    pub begin: u64,
    /// Commit in the txn manager.
    pub commit: u64,
    /// Abort in the txn manager.
    pub abort: u64,
    /// Commit-record log work.
    pub log_commit: u64,
    /// Data-record log work.
    pub log_update: u64,
    /// Per lock acquisition.
    pub lock_wrap: u64,
    /// Lock release at commit.
    pub release: u64,
    /// Latch/SMO checks around a B-tree descent.
    pub index_wrap: u64,
    /// Heap-page access wrapper.
    pub heap_wrap: u64,
    /// Per scanned row.
    pub scan_next: u64,
    /// Latch spin per *other* open session on each serialized engine
    /// entry (lock-table bucket, txn manager, log tail): shared-everything
    /// engines pay this coherence/contention tax as workers are added,
    /// while the partitioned engines own their data outright.
    pub latch_spin: u64,
}

/// What one disk-based system puts around the shared storage manager:
/// its costs, code modules, B-tree layout, and frontend work.
pub trait DiskProfile: Send + Sync + Sized + 'static {
    /// System name: [`Db::name`], span engine and metrics label.
    const NAME: &'static str;
    /// Fault site of the lock-manager latch.
    const LATCH_SITE: &'static str;
    /// Fault site of the commit-record WAL append.
    const WAL_SITE: &'static str;
    /// Storage-manager instruction budgets.
    const COST: DiskCost;
    /// Storage-manager code modules, registered after the frontend's, in
    /// the order txn manager, lock manager, B-tree, buffer pool, heap,
    /// log.
    const STORAGE: [ModDef; 6];
    /// The 8 KB-page B+tree variant.
    type Index: Index + Send;

    /// An empty index whose nodes the simulator sees through `mem`.
    fn new_index(mem: &Mem) -> Self::Index;

    /// Register the frontend's code modules.
    fn register(sim: &Sim) -> Self;

    /// Frontend work before the storage manager sees the transaction.
    fn begin(&self, _mem: &Mem) {}

    /// Per-statement dispatch (`first`: the transaction's first
    /// operation).
    fn dispatch_op(&self, mem: &Mem, first: bool);

    /// Interpreted value processing proportional to row bytes (§6.2).
    fn value_work(&self, mem: &Mem, bytes: usize);

    /// Frontend work after commit or abort (the client reply).
    fn reply(&self, _mem: &Mem) {}
}

struct Mods {
    txn: ModuleId,
    lock: ModuleId,
    btree: ModuleId,
    bpool: ModuleId,
    heap: ModuleId,
    log: ModuleId,
}

struct Table<I> {
    def: TableDef,
    heap: HeapFile,
    index: I,
}

/// Mutable engine state shared by all sessions.
struct Inner<I> {
    pool: BufferPool,
    locks: LockManager,
    wal: Wal,
    tm: TxnManager,
    tables: Vec<Table<I>>,
}

/// Immutable handle state + the engine-wide mutex.
struct Shared<P: DiskProfile> {
    sim: Sim,
    front: P,
    m: Mods,
    inner: Mutex<Inner<P::Index>>,
    /// Open sessions; >1 means the engine's internal latches are contended.
    open_sessions: AtomicUsize,
    metrics: obs::metrics::EngineMetrics,
    /// Pluggable protocol; `None` = the historical hierarchical-2PL path
    /// through [`LockManager`] (bit-identical to pre-refactor builds).
    cc: Option<Arc<dyn ConcurrencyControl>>,
}

/// A disk-based engine; see the module docs.
pub struct DiskEngine<P: DiskProfile> {
    shared: Arc<Shared<P>>,
}

/// The Shore-MT engine.
pub type ShoreMt = DiskEngine<ShoreMtProfile>;

/// The DBMS D engine.
pub type DbmsD = DiskEngine<DbmsDProfile>;

/// One worker's connection to a [`DiskEngine`].
struct DiskSession<P: DiskProfile> {
    shared: Arc<Shared<P>>,
    core: usize,
    /// The core's memory port, unattributed; `mem()` scopes it to a module.
    port_mem: Mem,
    cur: Option<TxnId>,
    ops_in_txn: u32,
    /// Exclusive port to this session's simulated core: enables the
    /// simulator's lock-free access path. `None` if another session on
    /// the same core already holds it (accesses then use the fallback).
    _port: Option<CorePort>,
}

/// Buffer-pool frames: sized to keep every experiment memory-resident
/// (the paper's setup; eviction is still exercised by dedicated tests).
const POOL_FRAMES: usize = 96 * 1024;

impl<P: DiskProfile> DiskEngine<P> {
    /// Build the engine on a simulator.
    pub fn new(sim: &Sim) -> Self {
        Self::with_cc(sim, CcPolicy::EngineDefault)
    }

    /// Build the engine with a pluggable CC protocol.
    /// [`CcPolicy::EngineDefault`] keeps the historical hierarchical 2PL
    /// (no-wait) through the storage [`LockManager`].
    pub fn with_cc(sim: &Sim, policy: CcPolicy) -> Self {
        let front = P::register(sim);
        let [txn, lock, btree, bpool, heap, log] = P::STORAGE.map(|d| module(sim, d, true));
        let mem = sim.mem(0);
        let inner = Inner {
            pool: BufferPool::new(&mem, POOL_FRAMES),
            locks: LockManager::new(&mem, 64 * 1024),
            wal: Wal::new(&mem, 1 << 20, 8),
            tm: TxnManager::new(),
            tables: Vec::new(),
        };
        DiskEngine {
            shared: Arc::new(Shared {
                sim: sim.clone(),
                front,
                m: Mods {
                    txn,
                    lock,
                    btree,
                    bpool,
                    heap,
                    log,
                },
                inner: Mutex::new(inner),
                open_sessions: AtomicUsize::new(0),
                metrics: obs::metrics::EngineMetrics::new(P::NAME),
                cc: oltp::cc::build(policy, sim.cores()),
            }),
        }
    }

    #[cfg(test)]
    fn lock_entries(&self) -> usize {
        self.shared.inner.lock().unwrap().locks.entries()
    }
}

impl<P: DiskProfile> crate::durability::DurableDb for DiskEngine<P> {
    fn visit_logs(&self, f: &mut dyn FnMut(usize, &mut Wal, &Mem)) {
        let mem = self.shared.sim.mem(0).with_module(self.shared.m.log);
        f(0, &mut self.shared.inner.lock().unwrap().wal, &mem);
    }
}

fn table<I>(inner: &Inner<I>, t: TableId) -> OltpResult<usize> {
    if (t.0 as usize) < inner.tables.len() {
        Ok(t.0 as usize)
    } else {
        Err(OltpError::NoSuchTable(t))
    }
}

impl<P: DiskProfile> DiskSession<P> {
    fn mem(&self, module: ModuleId) -> Mem {
        self.port_mem.with_module(module)
    }

    fn txn(&self) -> OltpResult<TxnId> {
        self.cur.ok_or(OltpError::NoActiveTxn)
    }

    /// Spin on a contended internal latch: each concurrently open session
    /// beyond this one costs a deterministic burst of spin instructions.
    /// With a single session open this is free, so single-worker runs are
    /// bit-identical to the pre-concurrency engine.
    fn latch_contention(&self, mem: &Mem) {
        let others = self
            .shared
            .open_sessions
            .load(Ordering::Relaxed)
            .saturating_sub(1);
        if others > 0 {
            mem.exec(P::COST.latch_spin * others as u64);
            self.shared.metrics.latch_waits.inc(self.core);
        }
    }

    /// Statement dispatch through the profile's frontend.
    fn dispatch(&mut self) {
        let _d = obs::span(P::NAME, Phase::Dispatch, self.core);
        self.shared
            .front
            .dispatch_op(&self.port_mem, self.ops_in_txn == 0);
        self.ops_in_txn += 1;
    }

    fn value_work(&self, bytes: usize) {
        self.shared.front.value_work(&self.port_mem, bytes);
    }

    fn acquire(
        &self,
        inner: &mut Inner<P::Index>,
        t: TableId,
        key: u64,
        target: LockTarget,
        mode: LockMode,
    ) -> OltpResult<()> {
        let txn = self.txn()?;
        let _cc = obs::span(P::NAME, Phase::Cc, self.core);
        let mem = self.mem(self.shared.m.lock);
        mem.exec(P::COST.lock_wrap);
        self.latch_contention(&mem);
        faults::inject!(
            P::LATCH_SITE,
            self.core,
            OltpError::LatchTimeout(P::LATCH_SITE)
        );
        if let Some(cc) = &self.shared.cc {
            let write = matches!(mode, LockMode::X | LockMode::Ix);
            let r = if write {
                cc.on_write(txn.0, t, key, self.core, &mem)
            } else {
                cc.on_read(txn.0, t, key, self.core, &mem)
            };
            return r.map_err(|v| {
                self.shared.metrics.conflicts.inc(self.core);
                v.into_error()
            });
        }
        match inner.locks.lock(&mem, txn, target, mode) {
            LockOutcome::Granted => Ok(()),
            LockOutcome::Conflict => {
                self.shared.metrics.conflicts.inc(self.core);
                Err(OltpError::Conflict { table: t, key })
            }
        }
    }

    fn lock_pair(
        &self,
        inner: &mut Inner<P::Index>,
        t: TableId,
        key: u64,
        write: bool,
    ) -> OltpResult<()> {
        let (tm, rm) = if write {
            (LockMode::Ix, LockMode::X)
        } else {
            (LockMode::Is, LockMode::S)
        };
        // Under a pluggable protocol the table-intent level collapses into
        // the per-key hook, so each operation consults the CC layer once.
        if self.shared.cc.is_none() {
            self.acquire(inner, t, key, LockTarget::Table(t.0), tm)?;
        }
        self.acquire(inner, t, key, LockTarget::Row(t.0, key), rm)
    }

    /// Index probe: the row's heap address, if the key exists.
    fn probe(&self, inner: &mut Inner<P::Index>, ti: usize, key: u64) -> Option<Rid> {
        let _i = obs::span(P::NAME, Phase::Index, self.core);
        let mem = self.mem(self.shared.m.btree);
        mem.exec(P::COST.index_wrap);
        inner.tables[ti].index.get(&mem, key).map(Rid::from_u64)
    }
}

/// Read and decode the heap row at `rid`.
fn read_row<I>(inner: &mut Inner<I>, ti: usize, mem: &Mem, rid: Rid) -> Option<Row> {
    let mut row = None;
    let (tables, pool) = (&mut inner.tables, &mut inner.pool);
    tables[ti].heap.read(pool, mem, rid, &mut |d| {
        row = tuple::decode(d).ok();
    });
    row
}

impl<P: DiskProfile> Drop for DiskSession<P> {
    fn drop(&mut self) {
        self.shared.open_sessions.fetch_sub(1, Ordering::Relaxed);
    }
}

impl<P: DiskProfile> Db for DiskEngine<P> {
    fn name(&self) -> &'static str {
        P::NAME
    }

    fn create_table(&mut self, def: TableDef) -> TableId {
        let mem = self.shared.sim.mem(0).with_module(self.shared.m.btree);
        let inner = &mut *self.shared.inner.lock().unwrap();
        let id = TableId(inner.tables.len() as u32);
        inner.tables.push(Table {
            def,
            heap: HeapFile::new(),
            index: P::new_index(&mem),
        });
        id
    }

    fn row_count(&self, t: TableId) -> u64 {
        self.shared
            .inner
            .lock()
            .unwrap()
            .tables
            .get(t.0 as usize)
            .map_or(0, |tb| tb.heap.rows())
    }

    fn session(&self, core: usize) -> Box<dyn Session> {
        assert!(core < self.shared.sim.cores());
        self.shared.open_sessions.fetch_add(1, Ordering::Relaxed);
        Box::new(DiskSession {
            shared: Arc::clone(&self.shared),
            core,
            port_mem: self.shared.sim.mem(core),
            cur: None,
            ops_in_txn: 0,
            _port: self.shared.sim.try_checkout(core),
        })
    }
}

impl<P: DiskProfile> Session for DiskSession<P> {
    fn name(&self) -> &'static str {
        P::NAME
    }

    fn core(&self) -> usize {
        self.core
    }

    fn begin(&mut self) {
        assert!(self.cur.is_none(), "transaction already active");
        let shared = Arc::clone(&self.shared);
        let inner = &mut *shared.inner.lock().unwrap();
        let _d = obs::span(P::NAME, Phase::Dispatch, self.core);
        let (txn, _) = inner.tm.begin();
        self.cur = Some(txn);
        self.ops_in_txn = 0;
        // The request travels the frontend before the SM sees it.
        shared.front.begin(&self.port_mem);
        let mem = self.mem(shared.m.txn);
        mem.exec(P::COST.begin);
        self.latch_contention(&mem);
        if let Some(cc) = &shared.cc {
            cc.begin(txn.0, self.core, &self.mem(shared.m.lock));
        }
        let _l = obs::span(P::NAME, Phase::Log, self.core);
        let mem = self.mem(shared.m.log);
        inner.wal.append(&mem, txn, LogKind::Begin, 0);
    }

    fn commit(&mut self) -> OltpResult<()> {
        let txn = self.txn()?;
        let shared = Arc::clone(&self.shared);
        let inner = &mut *shared.inner.lock().unwrap();
        let _c = obs::span(P::NAME, Phase::Commit, self.core);
        self.mem(shared.m.txn).exec(P::COST.commit);
        if let Some(cc) = &shared.cc {
            // Validation precedes durability; on failure the txn stays
            // open and the caller aborts, dropping CC state.
            faults::inject!(
                "cc/validate",
                self.core,
                OltpError::ValidationFailed {
                    table: TableId(0),
                    key: 0
                }
            );
            let _v = obs::span(P::NAME, Phase::Cc, self.core);
            if let Err(v) = cc.validate(txn.0, self.core, &self.mem(shared.m.lock)) {
                shared.metrics.conflicts.inc(self.core);
                return Err(v.into_error());
            }
        }
        {
            let _l = obs::span(P::NAME, Phase::Log, self.core);
            let mem = self.mem(shared.m.log);
            mem.exec(P::COST.log_commit);
            self.latch_contention(&mem);
            // WAL write failure: the txn stays open with its locks held;
            // the caller aborts, which releases them.
            faults::inject!(
                P::WAL_SITE,
                self.core,
                OltpError::LogWriteFailed(P::WAL_SITE)
            );
            inner.wal.append(&mem, txn, LogKind::Commit, 16);
        }
        {
            let _cc = obs::span(P::NAME, Phase::Cc, self.core);
            let mem = self.mem(shared.m.lock);
            mem.exec(P::COST.release);
            match &shared.cc {
                Some(cc) => cc.commit(txn.0, self.core, &mem),
                None => inner.locks.release_all(&mem, txn),
            }
        }
        shared.front.reply(&self.port_mem);
        self.cur = None;
        shared.metrics.commits.inc(self.core);
        Ok(())
    }

    fn abort(&mut self) {
        if let Some(txn) = self.cur.take() {
            let shared = Arc::clone(&self.shared);
            let inner = &mut *shared.inner.lock().unwrap();
            let _c = obs::span(P::NAME, Phase::Commit, self.core);
            self.mem(shared.m.txn).exec(P::COST.abort);
            {
                let _l = obs::span(P::NAME, Phase::Log, self.core);
                let mem = self.mem(shared.m.log);
                inner.wal.append(&mem, txn, LogKind::Abort, 0);
            }
            {
                let _cc = obs::span(P::NAME, Phase::Cc, self.core);
                let mem = self.mem(shared.m.lock);
                match &shared.cc {
                    Some(cc) => cc.abort(txn.0, self.core, &mem),
                    None => inner.locks.release_all(&mem, txn),
                }
            }
            shared.front.reply(&self.port_mem);
            shared.metrics.aborts.inc(self.core);
        }
    }

    fn insert(&mut self, t: TableId, key: u64, row: &[Value]) -> OltpResult<()> {
        let shared = Arc::clone(&self.shared);
        let inner = &mut *shared.inner.lock().unwrap();
        let ti = table(inner, t)?;
        let txn = self.txn()?;
        debug_assert!(
            inner.tables[ti].def.schema.check(row),
            "row/schema mismatch"
        );
        self.dispatch();
        self.lock_pair(inner, t, key, true)?;
        let data = tuple::encode(row);
        self.value_work(data.len());
        let len = data.len() as u32;
        let redo = data.clone();
        let heap_mem = self.mem(shared.m.heap);
        let rid = {
            let _s = obs::span(P::NAME, Phase::Storage, self.core);
            heap_mem.exec(P::COST.heap_wrap);
            let (tables, pool) = (&mut inner.tables, &mut inner.pool);
            tables[ti].heap.insert(pool, &heap_mem, data)
        };
        let inserted = {
            let _i = obs::span(P::NAME, Phase::Index, self.core);
            let mem = self.mem(shared.m.btree);
            mem.exec(P::COST.index_wrap);
            inner.tables[ti].index.insert(&mem, key, rid.to_u64())
        };
        if !inserted {
            // Undo the heap insert (simplified physical undo).
            let _s = obs::span(P::NAME, Phase::Storage, self.core);
            let (tables, pool) = (&mut inner.tables, &mut inner.pool);
            tables[ti].heap.delete(pool, &heap_mem, rid);
            return Err(OltpError::DuplicateKey { table: t, key });
        }
        let _l = obs::span(P::NAME, Phase::Log, self.core);
        let mem = self.mem(shared.m.log);
        mem.exec(P::COST.log_update);
        inner
            .wal
            .append_data(&mem, txn, LogKind::Insert, t.0, key, Some(&redo), None, len);
        Ok(())
    }

    fn read_with(&mut self, t: TableId, key: u64, f: &mut dyn FnMut(&[Value])) -> OltpResult<bool> {
        let shared = Arc::clone(&self.shared);
        let inner = &mut *shared.inner.lock().unwrap();
        let ti = table(inner, t)?;
        self.dispatch();
        self.lock_pair(inner, t, key, false)?;
        let Some(rid) = self.probe(inner, ti, key) else {
            return Ok(false);
        };
        let _s = obs::span(P::NAME, Phase::Storage, self.core);
        let mem = self.mem(shared.m.bpool);
        mem.exec(P::COST.heap_wrap);
        let Some(row) = read_row(inner, ti, &mem, rid) else {
            return Ok(false);
        };
        self.value_work(tuple::encoded_len(&row));
        f(&row);
        Ok(true)
    }

    fn update(&mut self, t: TableId, key: u64, f: &mut dyn FnMut(&mut Row)) -> OltpResult<bool> {
        let shared = Arc::clone(&self.shared);
        let inner = &mut *shared.inner.lock().unwrap();
        let ti = table(inner, t)?;
        let txn = self.txn()?;
        self.dispatch();
        self.lock_pair(inner, t, key, true)?;
        let Some(rid) = self.probe(inner, ti, key) else {
            return Ok(false);
        };
        let mem = self.mem(shared.m.bpool);
        let row = {
            let _s = obs::span(P::NAME, Phase::Storage, self.core);
            mem.exec(P::COST.heap_wrap);
            read_row(inner, ti, &mem, rid)
        };
        let Some(mut row) = row else { return Ok(false) };
        // Before-image for undo-capable recovery (durable mode only).
        let undo = inner.wal.retaining().then(|| tuple::encode(&row));
        f(&mut row);
        debug_assert!(
            inner.tables[ti].def.schema.check(&row),
            "row/schema mismatch"
        );
        let data = tuple::encode(&row);
        let len = data.len() as u32;
        let redo = data.clone();
        let new_rid = {
            let _s = obs::span(P::NAME, Phase::Storage, self.core);
            self.value_work(data.len() * 2);
            let (tables, pool) = (&mut inner.tables, &mut inner.pool);
            tables[ti]
                .heap
                .update(pool, &mem, rid, data)
                .expect("row vanished mid-update")
        };
        if new_rid != rid {
            let _i = obs::span(P::NAME, Phase::Index, self.core);
            let mem = self.mem(shared.m.btree);
            inner.tables[ti].index.replace(&mem, key, new_rid.to_u64());
        }
        let _l = obs::span(P::NAME, Phase::Log, self.core);
        let mem = self.mem(shared.m.log);
        mem.exec(P::COST.log_update);
        inner.wal.append_data(
            &mem,
            txn,
            LogKind::Update,
            t.0,
            key,
            Some(&redo),
            undo.as_ref(),
            len * 2,
        );
        Ok(true)
    }

    fn scan(
        &mut self,
        t: TableId,
        lo: u64,
        hi: u64,
        f: &mut dyn FnMut(u64, &[Value]) -> bool,
    ) -> OltpResult<u64> {
        let shared = Arc::clone(&self.shared);
        let inner = &mut *shared.inner.lock().unwrap();
        let ti = table(inner, t)?;
        self.dispatch();
        // Range scans take a table-level S lock (no next-key locking).
        self.acquire(inner, t, lo, LockTarget::Table(t.0), LockMode::S)?;
        let mut rids: Vec<(u64, u64)> = Vec::new();
        {
            let _i = obs::span(P::NAME, Phase::Index, self.core);
            let mem = self.mem(shared.m.btree);
            mem.exec(P::COST.index_wrap);
            inner.tables[ti].index.scan(&mem, lo, hi, &mut |k, p| {
                rids.push((k, p));
                true
            });
        }
        let _s = obs::span(P::NAME, Phase::Storage, self.core);
        let mem = self.mem(shared.m.bpool);
        let mut visited = 0;
        for (k, p) in rids {
            mem.exec(P::COST.scan_next);
            if let Some(row) = read_row(inner, ti, &mem, Rid::from_u64(p)) {
                self.value_work(tuple::encoded_len(&row));
                visited += 1;
                if !f(k, &row) {
                    break;
                }
            }
        }
        Ok(visited)
    }

    fn delete(&mut self, t: TableId, key: u64) -> OltpResult<bool> {
        let shared = Arc::clone(&self.shared);
        let inner = &mut *shared.inner.lock().unwrap();
        let ti = table(inner, t)?;
        let txn = self.txn()?;
        self.dispatch();
        self.lock_pair(inner, t, key, true)?;
        let removed = {
            let _i = obs::span(P::NAME, Phase::Index, self.core);
            let mem = self.mem(shared.m.btree);
            mem.exec(P::COST.index_wrap);
            inner.tables[ti].index.remove(&mem, key)
        };
        let Some(payload) = removed else {
            return Ok(false);
        };
        let mut undo: Option<bytes::Bytes> = None;
        {
            let _s = obs::span(P::NAME, Phase::Storage, self.core);
            let mem = self.mem(shared.m.heap);
            mem.exec(P::COST.heap_wrap);
            let (tables, pool) = (&mut inner.tables, &mut inner.pool);
            if inner.wal.retaining() {
                // Before-image read so recovery can restore the row if
                // this transaction never commits (durable mode only).
                tables[ti]
                    .heap
                    .read(pool, &mem, Rid::from_u64(payload), &mut |d| {
                        undo = Some(d.clone());
                    });
            }
            tables[ti].heap.delete(pool, &mem, Rid::from_u64(payload));
        }
        let _l = obs::span(P::NAME, Phase::Log, self.core);
        let mem = self.mem(shared.m.log);
        mem.exec(P::COST.log_update);
        inner.wal.append_data(
            &mem,
            txn,
            LogKind::Delete,
            t.0,
            key,
            None,
            undo.as_ref(),
            16,
        );
        Ok(true)
    }
}

/// Shore-MT: a bare storage manager driven by hard-coded plans.
pub struct ShoreMtProfile {
    /// Shore-Kits hard-coded plans (outside the SM).
    kits: ModuleId,
}

/// Shore-MT frontend instruction budgets.
mod shore_cost {
    pub const EXEC_OP: u64 = 5600; // plan setup for the first operation
    pub const EXEC_OP_NEXT: u64 = 1000; // plan-loop glue for later operations
}

impl DiskProfile for ShoreMtProfile {
    const NAME: &'static str = "Shore-MT";
    const LATCH_SITE: &'static str = "shore_mt/latch";
    const WAL_SITE: &'static str = "shore_mt/wal";
    const COST: DiskCost = DiskCost {
        begin: 5200,
        commit: 4200,
        abort: 2800,
        log_commit: 3600,
        log_update: 1800,
        lock_wrap: 1800,
        release: 2300,
        index_wrap: 2300,
        heap_wrap: 1500,
        scan_next: 220,
        latch_spin: 220,
    };
    const STORAGE: [ModDef; 6] = [
        ModDef("shore/txn-mgmt", 28, 2.5, 0.22),
        ModDef("shore/lock-mgr", 24, 2.6, 0.22),
        ModDef("shore/btree", 24, 2.9, 0.16),
        ModDef("shore/bufferpool", 24, 2.9, 0.16),
        ModDef("shore/heap", 16, 2.8, 0.16),
        ModDef("shore/log", 20, 2.4, 0.18),
    ];
    type Index = DiskBTree;

    fn new_index(mem: &Mem) -> DiskBTree {
        DiskBTree::new(mem)
    }

    fn register(sim: &Sim) -> Self {
        ShoreMtProfile {
            kits: module(sim, ModDef("shore/kits-plans", 40, 2.7, 0.24), false),
        }
    }

    /// The hard-coded plan sets up once per transaction; subsequent
    /// operations run inside its loop.
    fn dispatch_op(&self, mem: &Mem, first: bool) {
        let n = if first {
            shore_cost::EXEC_OP
        } else {
            shore_cost::EXEC_OP_NEXT
        };
        mem.with_module(self.kits).exec(n);
    }

    fn value_work(&self, mem: &Mem, bytes: usize) {
        mem.with_module(self.kits).exec(bytes as u64 * 7);
    }
}

/// DBMS D: the full commercial stack over the same storage manager.
pub struct DbmsDProfile {
    net: ModuleId,
    parser: ModuleId,
    optimizer: ModuleId,
    executor: ModuleId,
    catalog: ModuleId,
}

/// DBMS D frontend instruction budgets.
mod dbms_d_cost {
    // Charged per transaction.
    pub const NET_RECV: u64 = 5200;
    pub const PARSE: u64 = 4300;
    pub const OPTIMIZE: u64 = 3800; // plan-cache probe + validation
    pub const NET_REPLY: u64 = 2200;
    // Charged per statement/operation.
    pub const EXEC_OP: u64 = 5600; // interpreted executor: statement entry
    pub const EXEC_OP_NEXT: u64 = 1500; // iterator next() within a statement
    pub const CATALOG_NEXT: u64 = 150;
    pub const CATALOG: u64 = 800;
}

impl DiskProfile for DbmsDProfile {
    const NAME: &'static str = "DBMS D";
    const LATCH_SITE: &'static str = "dbms_d/latch";
    const WAL_SITE: &'static str = "dbms_d/wal";
    const COST: DiskCost = DiskCost {
        begin: 2600,
        commit: 2400,
        abort: 1900,
        log_commit: 2600,
        log_update: 1200,
        lock_wrap: 1200,
        release: 1600,
        index_wrap: 1400,
        heap_wrap: 1000,
        scan_next: 220,
        // Higher than Shore-MT's: the legacy storage manager holds its
        // latches across longer code paths.
        latch_spin: 260,
    };
    const STORAGE: [ModDef; 6] = [
        ModDef("dbmsd/txn-mgmt", 24, 1.8, 0.20),
        ModDef("dbmsd/lock-mgr", 16, 2.0, 0.15),
        ModDef("dbmsd/btree", 16, 2.2, 0.10),
        ModDef("dbmsd/bufferpool", 20, 2.2, 0.10),
        ModDef("dbmsd/heap", 12, 2.2, 0.10),
        ModDef("dbmsd/log", 16, 2.0, 0.12),
    ];
    type Index = DiskBTreePacked;

    fn new_index(mem: &Mem) -> DiskBTreePacked {
        DiskBTreePacked::new(mem)
    }

    /// Legacy code: large footprints, low dynamic reuse, many branches.
    fn register(sim: &Sim) -> Self {
        DbmsDProfile {
            net: module(sim, ModDef("dbmsd/network", 48, 1.5, 0.24), false),
            parser: module(sim, ModDef("dbmsd/parser", 64, 1.35, 0.28), false),
            optimizer: module(sim, ModDef("dbmsd/optimizer", 64, 1.3, 0.28), false),
            executor: module(sim, ModDef("dbmsd/executor", 56, 1.5, 0.26), false),
            catalog: module(sim, ModDef("dbmsd/catalog", 16, 1.8, 0.20), false),
        }
    }

    fn begin(&self, mem: &Mem) {
        mem.with_module(self.net).exec(dbms_d_cost::NET_RECV);
        mem.with_module(self.parser).exec(dbms_d_cost::PARSE);
        mem.with_module(self.optimizer).exec(dbms_d_cost::OPTIMIZE);
    }

    /// Full executor dispatch + catalog resolution for the first
    /// operation of a transaction, iterator `next()` glue for later ones.
    fn dispatch_op(&self, mem: &Mem, first: bool) {
        let (exec, catalog) = if first {
            (dbms_d_cost::EXEC_OP, dbms_d_cost::CATALOG)
        } else {
            (dbms_d_cost::EXEC_OP_NEXT, dbms_d_cost::CATALOG_NEXT)
        };
        mem.with_module(self.executor).exec(exec);
        mem.with_module(self.catalog).exec(catalog);
    }

    fn value_work(&self, mem: &Mem, bytes: usize) {
        mem.with_module(self.executor).exec(bytes as u64 * 8);
    }

    fn reply(&self, mem: &Mem) {
        mem.with_module(self.net).exec(dbms_d_cost::NET_REPLY);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::durability::{DurabilityCfg, DurableDb};
    use oltp::{Column, DataType, Schema};
    use uarch_sim::MachineConfig;

    fn setup<P: DiskProfile>() -> (Sim, DiskEngine<P>, TableId) {
        let sim = Sim::new(MachineConfig::ivy_bridge(1));
        let mut db = DiskEngine::<P>::new(&sim);
        let t = db.create_table(TableDef::new(
            "t",
            Schema::new(vec![
                Column::new("key", DataType::Long),
                Column::new("val", DataType::Long),
            ]),
            1000,
        ));
        (sim, db, t)
    }

    fn row(k: u64, v: i64) -> [Value; 2] {
        [Value::Long(k as i64), Value::Long(v)]
    }

    fn crud_round_trip<P: DiskProfile>() {
        let (_sim, db, t) = setup::<P>();
        let mut s = db.session(0);
        s.begin();
        for k in 0..100u64 {
            s.insert(t, k, &row(k, 100)).unwrap();
        }
        s.commit().unwrap();
        s.begin();
        assert_eq!(s.read(t, 42).unwrap().unwrap()[1], Value::Long(100));
        assert!(s.update(t, 42, &mut |r| r[1] = Value::Long(200)).unwrap());
        assert_eq!(s.read(t, 42).unwrap().unwrap()[1], Value::Long(200));
        assert!(s.delete(t, 42).unwrap());
        assert!(s.read(t, 42).unwrap().is_none());
        s.commit().unwrap();
        assert_eq!(db.row_count(t), 99);
    }

    fn duplicate_insert_fails_cleanly<P: DiskProfile>() {
        let (_sim, db, t) = setup::<P>();
        let mut s = db.session(0);
        s.begin();
        s.insert(t, 5, &row(5, 1)).unwrap();
        let err = s.insert(t, 5, &row(5, 2)).unwrap_err();
        assert!(matches!(err, OltpError::DuplicateKey { .. }));
        s.commit().unwrap();
        assert_eq!(db.row_count(t), 1);
        s.begin();
        assert_eq!(s.read(t, 5).unwrap().unwrap()[1], Value::Long(1));
        s.commit().unwrap();
    }

    fn scan_in_key_order<P: DiskProfile>() {
        let (_sim, db, t) = setup::<P>();
        let mut s = db.session(0);
        s.begin();
        for k in (0..50u64).rev() {
            s.insert(t, k, &row(k, k as i64 * 10)).unwrap();
        }
        s.commit().unwrap();
        s.begin();
        let mut seen = Vec::new();
        let n = s
            .scan(t, 10, 19, &mut |k, row| {
                seen.push((k, row[1].long()));
                true
            })
            .unwrap();
        s.commit().unwrap();
        assert_eq!(n, 10);
        assert_eq!(seen[0], (10, 100));
        assert!(seen.windows(2).all(|w| w[0].0 < w[1].0));
        // The scan's table lock is released with the rest at commit.
        assert_eq!(db.lock_entries(), 0);
    }

    fn ops_outside_txn_rejected<P: DiskProfile>() {
        let (_sim, db, t) = setup::<P>();
        let mut s = db.session(0);
        assert_eq!(
            s.insert(t, 1, &row(1, 1)).unwrap_err(),
            OltpError::NoActiveTxn
        );
        assert_eq!(s.commit().unwrap_err(), OltpError::NoActiveTxn);
        s.abort(); // no-op without a txn
    }

    fn locks_released_at_commit<P: DiskProfile>() {
        let (_sim, db, t) = setup::<P>();
        let mut s = db.session(0);
        s.begin();
        s.insert(t, 1, &row(1, 1)).unwrap();
        s.commit().unwrap();
        assert_eq!(db.lock_entries(), 0);
        s.begin();
        let _ = s.read(t, 1).unwrap();
        assert!(db.lock_entries() > 0);
        s.commit().unwrap();
        assert_eq!(db.lock_entries(), 0);
    }

    fn concurrent_row_lock_conflicts_surface_as_conflict<P: DiskProfile>() {
        let (_sim, db, t) = setup::<P>();
        let mut a = db.session(0);
        a.begin();
        a.insert(t, 1, &row(1, 1)).unwrap();
        a.commit().unwrap();

        let mut b = db.session(0);
        a.begin();
        b.begin();
        assert!(a.update(t, 1, &mut |r| r[1] = Value::Long(2)).unwrap());
        let err = b.update(t, 1, &mut |r| r[1] = Value::Long(3)).unwrap_err();
        assert_eq!(err, OltpError::Conflict { table: t, key: 1 });
        b.abort();
        a.commit().unwrap();
    }

    fn wal_sees_commit_records<P: DiskProfile>() {
        let (_sim, mut db, t) = setup::<P>();
        db.enable_durability(&DurabilityCfg {
            device: false,
            ..DurabilityCfg::default()
        });
        let mut s = db.session(0);
        s.begin();
        s.insert(t, 9, &row(9, 9)).unwrap();
        s.commit().unwrap();
        let streams = db.log_streams();
        let kinds: Vec<LogKind> = streams[0].iter().map(|r| r.kind).collect();
        assert_eq!(kinds, [LogKind::Begin, LogKind::Insert, LogKind::Commit]);
    }

    fn activity_is_attributed_to_engine_modules<P: DiskProfile>() {
        let (sim, db, t) = setup::<P>();
        let mut s = db.session(0);
        s.begin();
        s.insert(t, 1, &row(1, 1)).unwrap();
        s.commit().unwrap();
        let counters = sim.module_counters(0);
        let active: Vec<String> = sim
            .module_names()
            .into_iter()
            .zip(&counters)
            .filter(|(_, c)| c.instructions > 0)
            .map(|(n, _)| n)
            .collect();
        // txn manager, lock manager, B-tree, log.
        for i in [0, 1, 2, 5] {
            let required = P::STORAGE[i].0;
            assert!(
                active.iter().any(|n| n == required),
                "missing activity in {required}: {active:?}"
            );
        }
        let storage: Vec<&str> = P::STORAGE.iter().map(|d| d.0).collect();
        assert!(
            active.iter().any(|n| !storage.contains(&n.as_str())),
            "no frontend activity: {active:?}"
        );
    }

    macro_rules! per_profile {
        ($($name:ident: $profile:ty),*) => {$(
            mod $name {
                #[test]
                fn crud_round_trip() {
                    super::crud_round_trip::<$profile>();
                }
                #[test]
                fn duplicate_insert_fails_cleanly() {
                    super::duplicate_insert_fails_cleanly::<$profile>();
                }
                #[test]
                fn scan_in_key_order() {
                    super::scan_in_key_order::<$profile>();
                }
                #[test]
                fn ops_outside_txn_rejected() {
                    super::ops_outside_txn_rejected::<$profile>();
                }
                #[test]
                fn locks_released_at_commit() {
                    super::locks_released_at_commit::<$profile>();
                }
                #[test]
                fn concurrent_row_lock_conflicts_surface_as_conflict() {
                    super::concurrent_row_lock_conflicts_surface_as_conflict::<$profile>();
                }
                #[test]
                fn wal_sees_commit_records() {
                    super::wal_sees_commit_records::<$profile>();
                }
                #[test]
                fn activity_is_attributed_to_engine_modules() {
                    super::activity_is_attributed_to_engine_modules::<$profile>();
                }
            }
        )*};
    }

    per_profile!(shore_mt: super::ShoreMtProfile, dbms_d: super::DbmsDProfile);

    #[test]
    fn frontend_instruction_footprint_exceeds_shore_mt() {
        // The paper's central Shore-MT vs DBMS D contrast: same storage
        // architecture, very different instruction counts per transaction.
        fn per_txn<P: DiskProfile>() -> u64 {
            let (sim, db, t) = setup::<P>();
            let mut s = db.session(0);
            s.begin();
            for k in 0..500u64 {
                s.insert(t, k, &row(k, 0)).unwrap();
            }
            s.commit().unwrap();
            let before = sim.counters(0).instructions;
            for k in 0..100u64 {
                s.begin();
                let _ = s.read(t, k * 3 % 500).unwrap();
                s.commit().unwrap();
            }
            (sim.counters(0).instructions - before) / 100
        }
        let shore = per_txn::<ShoreMtProfile>();
        let dbmsd = per_txn::<DbmsDProfile>();
        assert!(
            dbmsd as f64 > shore as f64 * 1.2,
            "DBMS D should retire clearly more instructions/txn: dbmsd={dbmsd} shore={shore}"
        );
    }
}
