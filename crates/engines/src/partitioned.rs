//! The partitioned in-memory engine family: VoltDB and HyPer.
//!
//! §2.1/§3: both physically partition the data, run exactly one worker
//! thread per partition, and therefore need *no* locking or latching for
//! single-partition transactions. Each partition owns a row store, an
//! index per table, and its own command/redo log (no shared log-buffer
//! lines). The systems differ in the code that runs a transaction, so
//! each is a [`PartitionProfile`] over the one [`PartitionedEngine`]:
//!
//! * [`VoltDbProfile`] — stored procedures are interpreted (VoltDB is the
//!   one in-memory system in the study *without* transaction
//!   compilation), entered through a Java-based runtime — which is why
//!   its instruction stalls sit well above HyPer's though below the
//!   disk-based systems'. Its tree index is "a traditional B-tree with
//!   node size tuned to the last-level cache line size", our [`CcBTree`].
//! * [`HyPerProfile`] — §4.1.2: "HyPer compiles transactions directly
//!   into machine code. Therefore, its transactions have an aggressively
//!   optimized instruction stream — small instruction footprint, few ...
//!   branches". The compiled procedures are a single small, loop-dense
//!   code segment over an [`Art`] index; the runtime around them is thin.
//!   The flip side the paper highlights: finishing transactions in so few
//!   instructions makes HyPer touch *more random data per unit of time*,
//!   so when the working set exceeds the LLC its data stalls per 1000
//!   instructions dwarf everyone else's (5–10x, Figure 2) while its
//!   stalls *per transaction* remain among the lowest (Figure 3).
//!
//! Concurrency model: each [`Session`] maps its core onto one data
//! partition (`core % partitions`). Partitions are independent
//! `Mutex`-guarded islands — in the paper's deployment (one worker per
//! partition) the mutexes are uncontended and workers proceed fully in
//! parallel. If more workers than partitions are opened, a no-wait
//! owner-claim scheme makes the serial-execution rule visible: the first
//! transaction to touch a partition owns it until commit/abort, and any
//! other transaction's operation fails with [`OltpError::Conflict`].

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex, RwLock};

use bytes::Bytes;
use indexes::{Art, CcBTree, Index};
use obs::Phase;
use oltp::{
    tuple, CcPolicy, ConcurrencyControl, DataType, Db, OltpError, OltpResult, Row, Session,
    TableDef, TableId, Value,
};
use storage::{LogKind, MemStore, RowId, TxnId, TxnManager, Wal};
use uarch_sim::{AllocHomeGuard, BatchOp, CorePort, Mem, ModuleId, Sim};

use crate::common::{module, ModDef};
use crate::placement::Placement;

/// Budgets and log shape of the shared (storage-side) paths.
pub struct PartCost {
    /// Commit-record log work (command log or redo log).
    pub log_commit: u64,
    /// Commit-record bytes.
    pub commit_record: u32,
    /// Commits per group flush of each partition's log.
    pub log_group: u32,
    /// Per scanned row.
    pub scan_next: u64,
    /// Value processing per row byte.
    pub value_per_byte: u64,
}

/// The code modules the shared paths charge.
pub struct PartMods {
    /// Index nodes.
    pub index: ModuleId,
    /// Row store.
    pub store: ModuleId,
    /// Per-partition log.
    pub log: ModuleId,
    /// Per-byte value processing of scanned rows.
    pub value: ModuleId,
    /// CC read/write hooks (the partition claim under a pluggable
    /// protocol).
    pub claim: ModuleId,
    /// CC begin/validate/commit/abort hooks.
    pub txn: ModuleId,
}

/// What one partitioned system runs around the shared per-partition
/// store: its costs, code modules, index, and transaction code.
pub trait PartitionProfile: Send + Sync + Sized + 'static {
    /// System name: [`Db::name`], span engine and metrics label.
    const NAME: &'static str;
    /// Fault site of the partition claim.
    const CLAIM_SITE: &'static str;
    /// Fault site of the commit-record log append.
    const LOG_SITE: &'static str;
    /// Budgets of the shared paths.
    const COST: PartCost;
    /// The per-partition index.
    type Index: Index + Send;

    /// An empty index whose nodes the simulator sees through `mem`.
    fn new_index(mem: &Mem) -> Self::Index;

    /// Register every code module in the system's order and name the ones
    /// the shared paths charge.
    fn register(sim: &Sim) -> (Self, PartMods);

    /// Request intake ahead of the first operation.
    fn begin(&self, mem: &Mem);

    /// Per-operation dispatch (`first`: the transaction's first
    /// operation).
    fn dispatch_op(&self, mem: &Mem, first: bool);

    /// Runtime work at commit, ahead of the log record.
    fn commit(&self, mem: &Mem);

    /// Runtime work at abort.
    fn abort(&self, mem: &Mem);

    /// Cross-partition dispatch once the own-partition probe missed.
    fn mp_dispatch(&self, mem: &Mem);

    /// Fragment entry on each other partition probed.
    fn fragment_op(&self, mem: &Mem);

    /// Value processing of `bytes` row bytes (§6.2); `str_key` when the
    /// table's primary key is a string.
    fn value_work(&self, mem: &Mem, bytes: usize, str_key: bool);

    /// Key-comparison work ahead of an own-partition index probe.
    fn key_work(&self, _mem: &Mem, _core: usize, _index: &Self::Index, _str_key: bool) {}

    /// An insert's value and key work around its row-store write: value
    /// work, key work, then the write, each under its own span.
    fn insert_work(
        &self,
        mem: &Mem,
        core: usize,
        bytes: usize,
        index: &Self::Index,
        str_key: bool,
        store: impl FnOnce() -> RowId,
    ) -> RowId {
        {
            let _s = obs::span(Self::NAME, Phase::Storage, core);
            self.value_work(mem, bytes, str_key);
        }
        self.key_work(mem, core, index, str_key);
        let _s = obs::span(Self::NAME, Phase::Storage, core);
        store()
    }
}

struct PTable<I> {
    store: MemStore,
    index: I,
    /// Whether the primary-key column is a string (extra compare work).
    str_key: bool,
}

/// One partition's private state: its table replicas, its log, and the
/// single-sited execution claim.
struct PartState<I> {
    tables: Vec<PTable<I>>,
    /// One command/redo log per partition.
    wal: Wal,
    /// The transaction currently executing on this partition, if any
    /// (serial execution: one transaction at a time per partition).
    owner: Option<TxnId>,
}

struct Shared<P: PartitionProfile> {
    sim: Sim,
    front: P,
    m: PartMods,
    defs: RwLock<Vec<TableDef>>,
    parts: Vec<Mutex<PartState<P::Index>>>,
    tm: Mutex<TxnManager>,
    metrics: obs::metrics::EngineMetrics,
    /// NUMA placement: decides which home tag each partition's
    /// allocations carry (no effect on single-socket machines).
    placement: Placement,
    /// Pluggable protocol; `None` = the historical owner-claim path
    /// (bit-identical to pre-refactor builds).
    cc: Option<Arc<dyn ConcurrencyControl>>,
}

/// Scope partition `p`'s allocations to its home-tag arena (NUMA machines
/// with a tagging placement only).
fn home_guard(sim: &Sim, placement: Placement, p: usize) -> Option<AllocHomeGuard> {
    if sim.sockets() <= 1 {
        return None;
    }
    placement.partition_tag(p).map(|t| sim.alloc_home_guard(t))
}

/// A partitioned engine; see the module docs.
pub struct PartitionedEngine<P: PartitionProfile> {
    shared: Arc<Shared<P>>,
}

/// The VoltDB engine.
pub type VoltDb = PartitionedEngine<VoltDbProfile>;

/// The HyPer engine.
pub type HyPer = PartitionedEngine<HyPerProfile>;

/// One worker's connection to a [`PartitionedEngine`], pinned to the
/// partition `core % partitions`.
struct PartSession<P: PartitionProfile> {
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

impl<P: PartitionProfile> PartitionedEngine<P> {
    /// Build the engine with `partitions` single-threaded partitions
    /// (the paper configures one partition in single-threaded runs and one
    /// per worker otherwise, with all transactions single-sited).
    pub fn new(sim: &Sim, partitions: usize) -> Self {
        Self::with_cc(sim, partitions, CcPolicy::EngineDefault)
    }

    /// Build the engine with a pluggable CC protocol.
    /// [`CcPolicy::EngineDefault`] keeps the historical no-wait
    /// partition-owner claim.
    pub fn with_cc(sim: &Sim, partitions: usize, policy: CcPolicy) -> Self {
        Self::with_cc_placed(sim, partitions, policy, Placement::Spread)
    }

    /// [`PartitionedEngine::with_cc`] with an explicit NUMA placement:
    /// partition allocations carry the placement's home tag so a
    /// multi-socket simulator can charge remote accesses by partition
    /// home.
    pub fn with_cc_placed(
        sim: &Sim,
        partitions: usize,
        policy: CcPolicy,
        placement: Placement,
    ) -> Self {
        assert!(partitions >= 1);
        let (front, m) = P::register(sim);
        let mem = sim.mem(0);
        PartitionedEngine {
            shared: Arc::new(Shared {
                front,
                m,
                defs: RwLock::new(Vec::new()),
                parts: (0..partitions)
                    .map(|p| {
                        // Home each partition's log with its data.
                        let _h = home_guard(sim, placement, p);
                        Mutex::new(PartState {
                            tables: Vec::new(),
                            wal: Wal::new(&mem, 1 << 20, P::COST.log_group),
                            owner: None,
                        })
                    })
                    .collect(),
                tm: Mutex::new(TxnManager::new()),
                metrics: obs::metrics::EngineMetrics::new(P::NAME),
                placement,
                cc: oltp::cc::build(policy, partitions),
                sim: sim.clone(),
            }),
        }
    }
}

impl<P: PartitionProfile> crate::durability::DurableDb for PartitionedEngine<P> {
    fn visit_logs(&self, f: &mut dyn FnMut(usize, &mut Wal, &Mem)) {
        let shared = &self.shared;
        for (p, part) in shared.parts.iter().enumerate() {
            let mem = shared
                .sim
                .mem(p % shared.sim.cores())
                .with_module(shared.m.log);
            f(p, &mut part.lock().unwrap().wal, &mem);
        }
    }
}

impl<P: PartitionProfile> PartSession<P> {
    fn mem(&self, module: ModuleId) -> Mem {
        self.port_mem.with_module(module)
    }

    fn part(&self) -> usize {
        self.core % self.shared.parts.len()
    }

    fn txn(&self) -> OltpResult<TxnId> {
        self.cur.ok_or(OltpError::NoActiveTxn)
    }

    fn table(&self, t: TableId) -> OltpResult<usize> {
        if (t.0 as usize) < self.shared.defs.read().unwrap().len() {
            Ok(t.0 as usize)
        } else {
            Err(OltpError::NoSuchTable(t))
        }
    }

    /// Serial-execution claim: the first transaction to touch a partition
    /// owns it until commit/abort; any other transaction's operation is a
    /// no-wait [`OltpError::Conflict`]. Never fires in the paper's
    /// one-worker-per-partition deployment. Under a pluggable protocol the
    /// claim is delegated to the CC layer's read/write hooks instead.
    fn claim(
        &self,
        part: &mut PartState<P::Index>,
        t: TableId,
        key: u64,
        write: bool,
    ) -> OltpResult<()> {
        let Some(txn) = self.cur else { return Ok(()) };
        faults::inject!(
            P::CLAIM_SITE,
            self.core,
            OltpError::Conflict { table: t, key }
        );
        if let Some(cc) = &self.shared.cc {
            let mem = self.mem(self.shared.m.claim);
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
        match part.owner {
            None => {
                part.owner = Some(txn);
                Ok(())
            }
            Some(o) if o == txn => Ok(()),
            Some(_) => {
                self.shared.metrics.conflicts.inc(self.core);
                Err(OltpError::Conflict { table: t, key })
            }
        }
    }

    /// Per-operation dispatch through the profile's transaction code.
    fn dispatch(&mut self) {
        let _d = obs::span(P::NAME, Phase::Dispatch, self.core);
        self.shared
            .front
            .dispatch_op(&self.port_mem, self.ops_in_txn == 0);
        self.ops_in_txn += 1;
    }

    /// Index probe of one partition's table.
    fn lookup(&self, table: &mut PTable<P::Index>, key: u64) -> Option<RowId> {
        let _i = obs::span(P::NAME, Phase::Index, self.core);
        let mem = self.mem(self.shared.m.index);
        table.index.get(&mem, key).map(RowId::from_u64)
    }

    /// Own-partition probe: the profile's key work, then the index.
    fn probe(&self, table: &mut PTable<P::Index>, key: u64) -> Option<RowId> {
        self.shared
            .front
            .key_work(&self.port_mem, self.core, &table.index, table.str_key);
        self.lookup(table, key)
    }

    /// Read row `id`, charge its value work, and hand it to `f`.
    fn read_row(&self, table: &PTable<P::Index>, id: RowId, f: &mut dyn FnMut(&[Value])) -> bool {
        let _s = obs::span(P::NAME, Phase::Storage, self.core);
        let mut decoded: Option<Row> = None;
        let mut bytes = 0;
        table
            .store
            .read(&self.mem(self.shared.m.store), id, &mut |d| {
                bytes = d.len();
                decoded = tuple::decode(d).ok();
            });
        self.shared
            .front
            .value_work(&self.port_mem, bytes, table.str_key);
        match decoded {
            Some(row) => {
                f(&row);
                true
            }
            None => false,
        }
    }

    /// Read row `id` for an update (no value work yet).
    fn load_row(&self, table: &PTable<P::Index>, id: RowId) -> Option<Row> {
        let _s = obs::span(P::NAME, Phase::Storage, self.core);
        let mut row = None;
        table
            .store
            .read(&self.mem(self.shared.m.store), id, &mut |d| {
                row = tuple::decode(d).ok();
            });
        row
    }

    /// Write an updated row back in place, charging its value work.
    fn write_row(&self, table: &mut PTable<P::Index>, id: RowId, encoded: Bytes) {
        let _s = obs::span(P::NAME, Phase::Storage, self.core);
        self.shared
            .front
            .value_work(&self.port_mem, encoded.len() * 2, table.str_key);
        table
            .store
            .update(&self.mem(self.shared.m.store), id, encoded);
    }

    /// Own-partition probe missed on a multi-socket machine: the key may
    /// belong to another partition (a cross-socket request in the islands
    /// workload). Route through the multi-partition coordinator and probe
    /// the remaining partitions, handing the first hit to `hit`. The
    /// remote partition is *not* claimed — the coordinator serializes the
    /// fragment, and commit only releases this session's own partition.
    /// Single-socket machines return `false` before touching anything,
    /// keeping the historical single-partition behaviour bit-identical.
    fn mp_probe(
        &self,
        ti: usize,
        key: u64,
        skip: usize,
        hit: impl FnOnce(&mut PTable<P::Index>, RowId) -> bool,
    ) -> bool {
        let shared = &self.shared;
        if shared.sim.sockets() <= 1 || shared.parts.len() <= 1 {
            return false;
        }
        {
            let _d = obs::span(P::NAME, Phase::Dispatch, self.core);
            shared.front.mp_dispatch(&self.port_mem);
        }
        for q in (0..shared.parts.len()).filter(|&q| q != skip) {
            let part = &mut *shared.parts[q].lock().unwrap();
            shared.front.fragment_op(&self.port_mem);
            let table = &mut part.tables[ti];
            if let Some(id) = self.lookup(table, key) {
                return hit(table, id);
            }
        }
        false
    }

    /// Apply `f` to row `id` and write it back, returning the after-image
    /// and, with `undo` set (durable mode), the before-image; `None` if
    /// the row is gone.
    fn modify_row(
        &self,
        table: &mut PTable<P::Index>,
        ti: usize,
        id: RowId,
        f: &mut dyn FnMut(&mut Row),
        undo: bool,
    ) -> Option<(Bytes, Option<Bytes>)> {
        let mut row = self.load_row(table, id)?;
        let before = undo.then(|| tuple::encode(&row));
        f(&mut row);
        debug_assert!(
            self.shared.defs.read().unwrap()[ti].schema.check(&row),
            "row/schema mismatch"
        );
        let encoded = tuple::encode(&row);
        self.write_row(table, id, encoded.clone());
        Some((encoded, before))
    }
}

impl<P: PartitionProfile> Db for PartitionedEngine<P> {
    fn name(&self) -> &'static str {
        P::NAME
    }

    fn partitions(&self) -> usize {
        self.shared.parts.len()
    }

    fn create_table(&mut self, def: TableDef) -> TableId {
        let shared = &self.shared;
        let defs = &mut *shared.defs.write().unwrap();
        let id = TableId(defs.len() as u32);
        let str_key = matches!(
            def.schema.columns().first().map(|c| c.ty),
            Some(DataType::Str)
        );
        defs.push(def);
        for (p, part) in shared.parts.iter().enumerate() {
            let _h = home_guard(&shared.sim, shared.placement, p);
            let mem = shared
                .sim
                .mem(p % shared.sim.cores())
                .with_module(shared.m.index);
            part.lock().unwrap().tables.push(PTable {
                store: MemStore::new(),
                index: P::new_index(&mem),
                str_key,
            });
        }
        id
    }

    fn row_count(&self, t: TableId) -> u64 {
        self.shared
            .parts
            .iter()
            .map(|p| {
                p.lock()
                    .unwrap()
                    .tables
                    .get(t.0 as usize)
                    .map_or(0, |tb| tb.store.live())
            })
            .sum()
    }

    fn session(&self, core: usize) -> Box<dyn Session> {
        assert!(core < self.shared.sim.cores());
        Box::new(PartSession {
            shared: Arc::clone(&self.shared),
            core,
            port_mem: self.shared.sim.mem(core),
            cur: None,
            ops_in_txn: 0,
            _port: self.shared.sim.try_checkout(core),
        })
    }
}

impl<P: PartitionProfile> Session for PartSession<P> {
    fn name(&self) -> &'static str {
        P::NAME
    }

    fn core(&self) -> usize {
        self.core
    }

    fn begin(&mut self) {
        assert!(self.cur.is_none(), "transaction already active");
        let _d = obs::span(P::NAME, Phase::Dispatch, self.core);
        let (txn, _) = self.shared.tm.lock().unwrap().begin();
        self.cur = Some(txn);
        self.ops_in_txn = 0;
        self.shared.front.begin(&self.port_mem);
        if let Some(cc) = &self.shared.cc {
            cc.begin(txn.0, self.core, &self.mem(self.shared.m.txn));
        }
    }

    fn commit(&mut self) -> OltpResult<()> {
        let txn = self.txn()?;
        let shared = Arc::clone(&self.shared);
        let _c = obs::span(P::NAME, Phase::Commit, self.core);
        shared.front.commit(&self.port_mem);
        if let Some(cc) = &shared.cc {
            // Validation failure leaves the txn open (writes may have
            // applied in place); the caller aborts, dropping CC state.
            faults::inject!(
                "cc/validate",
                self.core,
                OltpError::ValidationFailed {
                    table: TableId(0),
                    key: 0
                }
            );
            let _v = obs::span(P::NAME, Phase::Cc, self.core);
            if let Err(v) = cc.validate(txn.0, self.core, &self.mem(shared.m.txn)) {
                shared.metrics.conflicts.inc(self.core);
                return Err(v.into_error());
            }
        }
        {
            let _l = obs::span(P::NAME, Phase::Log, self.core);
            let mem = self.mem(shared.m.log);
            mem.exec(P::COST.log_commit);
            // Log write failure: the txn stays open (writes may have
            // applied); the caller aborts, releasing the partition claim.
            faults::inject!(
                P::LOG_SITE,
                self.core,
                OltpError::LogWriteFailed(P::LOG_SITE)
            );
            let part = &mut *shared.parts[self.part()].lock().unwrap();
            part.wal
                .append(&mem, txn, LogKind::Commit, P::COST.commit_record);
            if part.owner == Some(txn) {
                part.owner = None;
            }
        }
        if let Some(cc) = &shared.cc {
            cc.commit(txn.0, self.core, &self.mem(shared.m.txn));
        }
        self.cur = None;
        shared.metrics.commits.inc(self.core);
        Ok(())
    }

    fn abort(&mut self) {
        if let Some(txn) = self.cur.take() {
            let _c = obs::span(P::NAME, Phase::Commit, self.core);
            self.shared.front.abort(&self.port_mem);
            let part = &mut *self.shared.parts[self.part()].lock().unwrap();
            if part.owner == Some(txn) {
                part.owner = None;
            }
            if part.wal.retaining() {
                // Durable mode: mark the rollback so recovery classifies
                // this txn aborted, not crashed mid-flight.
                let mem = self.mem(self.shared.m.log);
                part.wal.append(&mem, txn, LogKind::Abort, 0);
            }
            if let Some(cc) = &self.shared.cc {
                cc.abort(txn.0, self.core, &self.mem(self.shared.m.txn));
            }
            self.shared.metrics.aborts.inc(self.core);
        }
    }

    fn insert(&mut self, t: TableId, key: u64, row: &[Value]) -> OltpResult<()> {
        let shared = Arc::clone(&self.shared);
        let ti = self.table(t)?;
        let txn = self.txn()?;
        debug_assert!(
            shared.defs.read().unwrap()[ti].schema.check(row),
            "row/schema mismatch"
        );
        self.dispatch();
        let p = self.part();
        // Rows and index nodes land in the partition's home-tag arena.
        let _h = home_guard(&shared.sim, shared.placement, p);
        let part = &mut *shared.parts[p].lock().unwrap();
        self.claim(part, t, key, true)?;
        let encoded = tuple::encode(row);
        // Durable mode: the log carries data records too (the default
        // log appends only Commit markers).
        let redo = part.wal.retaining().then(|| encoded.clone());
        let mem_store = self.mem(shared.m.store);
        let table = &mut part.tables[ti];
        let (store, index) = (&mut table.store, &table.index);
        let id = shared.front.insert_work(
            &self.port_mem,
            self.core,
            encoded.len(),
            index,
            table.str_key,
            || store.insert(&mem_store, encoded),
        );
        let inserted = {
            let _i = obs::span(P::NAME, Phase::Index, self.core);
            table
                .index
                .insert(&self.mem(shared.m.index), key, id.to_u64())
        };
        if !inserted {
            let _s = obs::span(P::NAME, Phase::Storage, self.core);
            table.store.delete(&mem_store, id);
            return Err(OltpError::DuplicateKey { table: t, key });
        }
        if let Some(redo) = redo {
            let _l = obs::span(P::NAME, Phase::Log, self.core);
            let mem = self.mem(shared.m.log);
            let len = redo.len() as u32;
            part.wal
                .append_data(&mem, txn, LogKind::Insert, t.0, key, Some(&redo), None, len);
        }
        Ok(())
    }

    fn read_with(&mut self, t: TableId, key: u64, f: &mut dyn FnMut(&[Value])) -> OltpResult<bool> {
        let shared = Arc::clone(&self.shared);
        let ti = self.table(t)?;
        self.dispatch();
        let p = self.part();
        {
            let part = &mut *shared.parts[p].lock().unwrap();
            self.claim(part, t, key, false)?;
            let table = &mut part.tables[ti];
            if let Some(id) = self.probe(table, key) {
                return Ok(self.read_row(table, id, f));
            }
        }
        Ok(self.mp_probe(ti, key, p, |table, id| self.read_row(table, id, f)))
    }

    fn update(&mut self, t: TableId, key: u64, f: &mut dyn FnMut(&mut Row)) -> OltpResult<bool> {
        let shared = Arc::clone(&self.shared);
        let ti = self.table(t)?;
        let txn = self.txn()?;
        self.dispatch();
        let p = self.part();
        {
            let part = &mut *shared.parts[p].lock().unwrap();
            self.claim(part, t, key, true)?;
            let table = &mut part.tables[ti];
            if let Some(id) = self.probe(table, key) {
                let retaining = part.wal.retaining();
                let Some((after, before)) = self.modify_row(table, ti, id, f, retaining) else {
                    return Ok(false);
                };
                if retaining {
                    let _l = obs::span(P::NAME, Phase::Log, self.core);
                    let mem = self.mem(shared.m.log);
                    let len = after.len() as u32;
                    part.wal.append_data(
                        &mem,
                        txn,
                        LogKind::Update,
                        t.0,
                        key,
                        Some(&after),
                        before.as_ref(),
                        len * 2,
                    );
                }
                return Ok(true);
            }
        }
        Ok(self.mp_probe(ti, key, p, |table, id| {
            self.modify_row(table, ti, id, f, false).is_some()
        }))
    }

    fn scan(
        &mut self,
        t: TableId,
        lo: u64,
        hi: u64,
        f: &mut dyn FnMut(u64, &[Value]) -> bool,
    ) -> OltpResult<u64> {
        let shared = Arc::clone(&self.shared);
        let ti = self.table(t)?;
        self.dispatch();
        let p = self.part();
        let part = &mut *shared.parts[p].lock().unwrap();
        self.claim(part, t, lo, false)?;
        let table = &mut part.tables[ti];
        let mut pairs: Vec<(u64, u64)> = Vec::new();
        {
            let _i = obs::span(P::NAME, Phase::Index, self.core);
            let mem = self.mem(shared.m.index);
            table.index.scan(&mem, lo, hi, &mut |k, v| {
                pairs.push((k, v));
                true
            });
        }
        let _s = obs::span(P::NAME, Phase::Storage, self.core);
        let mem_store = self.mem(shared.m.store);
        let mem_value = self.mem(shared.m.value);
        let mut visited = 0;
        for (k, payload) in pairs {
            // The scan step, the row dereference and the row load ride a
            // single core acquisition. Event accounting is identical to
            // issuing the ops separately.
            let slot = table.store.slot(RowId::from_u64(payload));
            let step = [
                BatchOp::Exec(P::COST.scan_next),
                BatchOp::Exec(storage::ROW_READ_INSTRS),
            ];
            let Some((addr, data)) = slot else {
                mem_store.run_ops(&step);
                continue;
            };
            let len = data.len().max(1) as u32;
            mem_store.run_ops(&[step[0], step[1], BatchOp::Read { addr, len }]);
            mem_value.exec(data.len() as u64 * P::COST.value_per_byte);
            if let Ok(row) = tuple::decode(data) {
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
        let ti = self.table(t)?;
        let txn = self.txn()?;
        self.dispatch();
        let p = self.part();
        let part = &mut *shared.parts[p].lock().unwrap();
        self.claim(part, t, key, true)?;
        let mem_index = self.mem(shared.m.index);
        let mem_store = self.mem(shared.m.store);
        let table = &mut part.tables[ti];
        let removed = {
            let _i = obs::span(P::NAME, Phase::Index, self.core);
            table.index.remove(&mem_index, key)
        };
        let Some(payload) = removed else {
            return Ok(false);
        };
        let mut undo: Option<Bytes> = None;
        {
            let _s = obs::span(P::NAME, Phase::Storage, self.core);
            if part.wal.retaining() {
                // Before-image read so recovery can restore the row if
                // this transaction never commits (durable mode only).
                table
                    .store
                    .read(&mem_store, RowId::from_u64(payload), &mut |d| {
                        undo = Some(d.clone());
                    });
            }
            table.store.delete(&mem_store, RowId::from_u64(payload));
        }
        if part.wal.retaining() {
            let _l = obs::span(P::NAME, Phase::Log, self.core);
            let mem = self.mem(shared.m.log);
            part.wal.append_data(
                &mem,
                txn,
                LogKind::Delete,
                t.0,
                key,
                None,
                undo.as_ref(),
                16,
            );
        }
        Ok(true)
    }
}

/// VoltDB: interpreted stored procedures behind a Java-like runtime.
pub struct VoltDbProfile {
    java_rt: ModuleId,
    net: ModuleId,
    dispatch: ModuleId,
    plan: ModuleId,
    ee: ModuleId,
    index: ModuleId,
    /// Multi-partition initiator/coordinator code (idle when the paper's
    /// single-site guarantee is given).
    mp_coord: ModuleId,
    single_sited: AtomicBool,
}

/// VoltDB frontend instruction budgets.
mod volt_cost {
    pub const RT_BEGIN: u64 = 4600; // Java runtime: txn intake + scheduling
    pub const NET_RECV: u64 = 3100;
    pub const DISPATCH: u64 = 2700; // procedure lookup + param deserialize
    pub const PLAN_OP: u64 = 5900; // interpreted plan fragment: first op
    pub const PLAN_OP_NEXT: u64 = 1300; // fragment loop for later ops
    pub const EE_OP: u64 = 1400; // C++ execution-engine entry per op
    pub const COMMIT: u64 = 2000;
    pub const ABORT: u64 = 900;
    /// Multi-partition coordination (initiator, 2PC-style agreement,
    /// fragment distribution) when single-site execution is NOT assured.
    pub const MP_COORD: u64 = 6200;
    pub const MP_COMMIT: u64 = 2600;
    /// String-key comparison work per B-tree level during a probe.
    pub const STR_CMP_PER_LEVEL: u64 = 700;
}

impl PartitionedEngine<VoltDbProfile> {
    /// Drop the single-site guarantee: every transaction goes through the
    /// multi-partition coordinator path. §7's side note measures this
    /// costing VoltDB ~60% more instruction stalls; `figures
    /// ablation-voltdb-mp` reproduces it.
    pub fn set_single_sited(&mut self, yes: bool) {
        self.shared.front.single_sited.store(yes, Ordering::Relaxed);
    }
}

impl VoltDbProfile {
    fn multi_sited(&self) -> bool {
        !self.single_sited.load(Ordering::Relaxed)
    }
}

impl PartitionProfile for VoltDbProfile {
    const NAME: &'static str = "VoltDB";
    const CLAIM_SITE: &'static str = "voltdb/claim";
    const LOG_SITE: &'static str = "voltdb/clog";
    const COST: PartCost = PartCost {
        log_commit: 2000, // asynchronous command log
        commit_record: 32,
        log_group: 16,
        scan_next: 130,
        // Interpreted copy/compare/serialize loops.
        value_per_byte: 8,
    };
    type Index = CcBTree;

    fn new_index(mem: &Mem) -> CcBTree {
        CcBTree::new(mem)
    }

    fn register(sim: &Sim) -> (Self, PartMods) {
        let java_rt = module(sim, ModDef("voltdb/java-runtime", 56, 1.9, 0.26), false);
        let net = module(sim, ModDef("voltdb/network", 28, 2.0, 0.20), false);
        let dispatch = module(sim, ModDef("voltdb/proc-dispatch", 24, 2.0, 0.20), false);
        let plan = module(sim, ModDef("voltdb/plan-interp", 44, 2.0, 0.26), false);
        let ee = module(sim, ModDef("voltdb/exec-engine", 28, 2.4, 0.18), true);
        let index = module(sim, ModDef("voltdb/cc-btree", 18, 2.7, 0.14), true);
        let store = module(sim, ModDef("voltdb/table-store", 12, 2.8, 0.14), true);
        let clog = module(sim, ModDef("voltdb/command-log", 14, 2.2, 0.16), false);
        let mp_coord = module(sim, ModDef("voltdb/mp-coordinator", 40, 1.5, 0.24), false);
        let mods = PartMods {
            index,
            store,
            log: clog,
            value: ee,
            claim: ee,
            txn: ee,
        };
        let profile = VoltDbProfile {
            java_rt,
            net,
            dispatch,
            plan,
            ee,
            index,
            mp_coord,
            single_sited: AtomicBool::new(true),
        };
        (profile, mods)
    }

    fn begin(&self, mem: &Mem) {
        mem.with_module(self.net).exec(volt_cost::NET_RECV);
        mem.with_module(self.java_rt).exec(volt_cost::RT_BEGIN);
        mem.with_module(self.dispatch).exec(volt_cost::DISPATCH);
        if self.multi_sited() {
            self.mp_dispatch(mem);
        }
    }

    /// Interpreted plan fragment + EE entry. The fragment is planned once
    /// per procedure; later operations iterate it.
    fn dispatch_op(&self, mem: &Mem, first: bool) {
        let n = if first {
            volt_cost::PLAN_OP
        } else {
            volt_cost::PLAN_OP_NEXT
        };
        mem.with_module(self.plan).exec(n);
        self.fragment_op(mem);
    }

    fn commit(&self, mem: &Mem) {
        mem.with_module(self.java_rt).exec(volt_cost::COMMIT);
        if self.multi_sited() {
            mem.with_module(self.mp_coord).exec(volt_cost::MP_COMMIT);
        }
    }

    fn abort(&self, mem: &Mem) {
        mem.with_module(self.java_rt).exec(volt_cost::ABORT);
    }

    fn mp_dispatch(&self, mem: &Mem) {
        mem.with_module(self.mp_coord).exec(volt_cost::MP_COORD);
    }

    fn fragment_op(&self, mem: &Mem) {
        mem.with_module(self.ee).exec(volt_cost::EE_OP);
    }

    fn value_work(&self, mem: &Mem, bytes: usize, _str_key: bool) {
        mem.with_module(self.ee)
            .exec(bytes as u64 * Self::COST.value_per_byte);
    }

    /// String-keyed tables: each level of the descent compares ~50-byte
    /// keys in a tight loop that re-uses the lines the probe touched.
    fn key_work(&self, mem: &Mem, core: usize, index: &CcBTree, str_key: bool) {
        let _i = obs::span(Self::NAME, Phase::Index, core);
        if str_key {
            let h = u64::from(index.stats().height);
            mem.with_module(self.index)
                .exec(h * volt_cost::STR_CMP_PER_LEVEL);
        }
    }
}

/// HyPer: transactions compiled to machine code.
pub struct HyPerProfile {
    runtime: ModuleId,
    proc: ModuleId,
}

/// HyPer instruction budgets: an order of magnitude below the other
/// systems.
mod hyper_cost {
    pub const RT_BEGIN: u64 = 360; // request intake + compiled-proc call
    pub const PROC_OP: u64 = 200; // compiled data-access fragment per op
    pub const COMMIT: u64 = 170;
    pub const ABORT: u64 = 110;
    /// Cross-partition dispatch when the own-partition probe misses: even
    /// compiled code pays a runtime hop to hand the fragment to another
    /// partition (HyPer's coordination is far leaner than VoltDB's 2PC).
    pub const MP_COORD: u64 = 900;
    /// Full-key string comparison at the ART leaf.
    pub const STR_CMP: u64 = 340;
}

impl PartitionProfile for HyPerProfile {
    const NAME: &'static str = "HyPer";
    const CLAIM_SITE: &'static str = "hyper/claim";
    const LOG_SITE: &'static str = "hyper/wal";
    const COST: PartCost = PartCost {
        log_commit: 200, // asynchronous redo-log append
        commit_record: 24,
        log_group: 32,
        scan_next: 14,
        // Tight generated loops.
        value_per_byte: 2,
    };
    type Index = Art;

    fn new_index(mem: &Mem) -> Art {
        Art::new(mem)
    }

    fn register(sim: &Sim) -> (Self, PartMods) {
        let runtime = module(sim, ModDef("hyper/runtime", 16, 2.4, 0.08), false);
        // The compiled stored procedures: tiny, loop-dense, almost
        // branch-free — the fruit of Neumann-style code generation.
        let proc = module(sim, ModDef("hyper/compiled-proc", 12, 5.0, 0.01), true);
        let log = module(sim, ModDef("hyper/redo-log", 8, 2.6, 0.06), false);
        let mods = PartMods {
            index: proc,
            store: proc,
            log,
            value: proc,
            claim: proc,
            txn: runtime,
        };
        (HyPerProfile { runtime, proc }, mods)
    }

    fn begin(&self, mem: &Mem) {
        mem.with_module(self.runtime).exec(hyper_cost::RT_BEGIN);
    }

    fn dispatch_op(&self, mem: &Mem, _first: bool) {
        self.fragment_op(mem);
    }

    fn commit(&self, mem: &Mem) {
        mem.with_module(self.runtime).exec(hyper_cost::COMMIT);
    }

    fn abort(&self, mem: &Mem) {
        mem.with_module(self.runtime).exec(hyper_cost::ABORT);
    }

    fn mp_dispatch(&self, mem: &Mem) {
        mem.with_module(self.runtime).exec(hyper_cost::MP_COORD);
    }

    fn fragment_op(&self, mem: &Mem) {
        mem.with_module(self.proc).exec(hyper_cost::PROC_OP);
    }

    /// Compiled value processing + leaf string comparison (§6.2).
    fn value_work(&self, mem: &Mem, bytes: usize, str_key: bool) {
        let mem = mem.with_module(self.proc);
        mem.exec(bytes as u64 * Self::COST.value_per_byte);
        if str_key {
            mem.exec(hyper_cost::STR_CMP);
        }
    }

    /// The compiled fragment fuses the value work with the row write.
    fn insert_work(
        &self,
        mem: &Mem,
        core: usize,
        bytes: usize,
        _index: &Art,
        str_key: bool,
        store: impl FnOnce() -> RowId,
    ) -> RowId {
        let _s = obs::span(Self::NAME, Phase::Storage, core);
        self.value_work(mem, bytes, str_key);
        store()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use oltp::{Column, Schema};
    use uarch_sim::MachineConfig;

    /// `cores` simulated cores over `partitions` partitions, one table.
    fn setup<P: PartitionProfile>(
        cores: usize,
        partitions: usize,
    ) -> (Sim, PartitionedEngine<P>, TableId) {
        let sim = Sim::new(MachineConfig::ivy_bridge(cores));
        let mut db = PartitionedEngine::<P>::new(&sim, partitions);
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

    fn crud_round_trip<P: PartitionProfile>() {
        let (_sim, db, t) = setup::<P>(1, 1);
        let mut s = db.session(0);
        s.begin();
        for k in 0..200u64 {
            s.insert(t, k, &row(k, 10)).unwrap();
        }
        assert!(s.update(t, 77, &mut |r| r[1] = Value::Long(20)).unwrap());
        assert_eq!(s.read(t, 77).unwrap().unwrap()[1], Value::Long(20));
        assert!(s.delete(t, 77).unwrap());
        assert!(!s.delete(t, 77).unwrap());
        assert!(s.read(t, 77).unwrap().is_none());
        s.commit().unwrap();
        assert_eq!(db.row_count(t), 199);
    }

    fn partitions_are_disjoint<P: PartitionProfile>() {
        let (_sim, db, t) = setup::<P>(2, 2);
        // Same key on two partitions: independent rows.
        let mut s0 = db.session(0);
        let mut s1 = db.session(1);
        s0.begin();
        s0.insert(t, 7, &row(7, 100)).unwrap();
        s0.commit().unwrap();
        s1.begin();
        s1.insert(t, 7, &row(7, 200)).unwrap();
        assert_eq!(s1.read(t, 7).unwrap().unwrap()[1], Value::Long(200));
        s1.commit().unwrap();
        s0.begin();
        assert_eq!(s0.read(t, 7).unwrap().unwrap()[1], Value::Long(100));
        s0.commit().unwrap();
        assert_eq!(db.row_count(t), 2);
    }

    fn scan_within_partition<P: PartitionProfile>() {
        let (_sim, db, t) = setup::<P>(1, 1);
        let mut s = db.session(0);
        s.begin();
        for k in 0..20u64 {
            s.insert(t, k, &row(k, k as i64)).unwrap();
        }
        s.commit().unwrap();
        s.begin();
        let n = s.scan(t, 5, 9, &mut |_, _| true).unwrap();
        s.commit().unwrap();
        assert_eq!(n, 5);
    }

    fn partition_sharing_conflicts_under_no_wait_rule<P: PartitionProfile>() {
        // Two workers forced onto one partition: the serial-execution
        // owner claim rejects the second transaction without waiting.
        let (_sim, db, t) = setup::<P>(2, 1);
        let mut s0 = db.session(0);
        let mut s1 = db.session(1);
        s0.begin();
        s0.insert(t, 1, &row(1, 0)).unwrap();
        s1.begin();
        let err = s1.insert(t, 2, &row(2, 0)).unwrap_err();
        assert_eq!(err, OltpError::Conflict { table: t, key: 2 });
        s1.abort();
        s0.commit().unwrap();
        // Partition released: the second worker can now proceed.
        s1.begin();
        s1.insert(t, 2, &row(2, 0)).unwrap();
        s1.commit().unwrap();
        assert_eq!(db.row_count(t), 2);
    }

    fn txn_outcomes_mirror_into_the_metrics_registry<P: PartitionProfile>() {
        // Delta discipline: other tests share the process-global registry
        // (and the engine label), so assert the window grew by at least
        // what this test did, never on absolute values.
        let base = obs::metrics::registry().snapshot();
        let (_sim, db, t) = setup::<P>(2, 1);
        let mut s0 = db.session(0);
        let mut s1 = db.session(1);
        s0.begin();
        s0.insert(t, 1, &row(1, 0)).unwrap();
        s1.begin();
        s1.insert(t, 2, &row(2, 0)).unwrap_err();
        s1.abort();
        s0.commit().unwrap();
        let win = obs::metrics::registry().snapshot().delta(&base);
        let l = [("engine", P::NAME)];
        assert!(win.counter_value("txn_commits_total", &l) >= 1);
        assert!(win.counter_value("txn_conflicts_total", &l) >= 1);
        assert!(win.counter_value("txn_aborts_total", &l) >= 1);
    }

    macro_rules! per_profile {
        ($($name:ident: $profile:ty),*) => {$(
            mod $name {
                #[test]
                fn crud_round_trip() {
                    super::crud_round_trip::<$profile>();
                }
                #[test]
                fn partitions_are_disjoint() {
                    super::partitions_are_disjoint::<$profile>();
                }
                #[test]
                fn scan_within_partition() {
                    super::scan_within_partition::<$profile>();
                }
                #[test]
                fn partition_sharing_conflicts_under_no_wait_rule() {
                    super::partition_sharing_conflicts_under_no_wait_rule::<$profile>();
                }
                #[test]
                fn txn_outcomes_mirror_into_the_metrics_registry() {
                    super::txn_outcomes_mirror_into_the_metrics_registry::<$profile>();
                }
            }
        )*};
    }

    per_profile!(voltdb: super::VoltDbProfile, hyper: super::HyPerProfile);

    #[test]
    fn instructions_per_txn_are_tiny() {
        // HyPer's defining property: an order of magnitude fewer
        // instructions per transaction than the interpreted systems.
        let (sim, db, t) = setup::<HyPerProfile>(1, 1);
        let mut s = db.session(0);
        s.begin();
        for k in 0..1000u64 {
            s.insert(t, k, &row(k, 0)).unwrap();
        }
        s.commit().unwrap();
        let before = sim.counters(0).instructions;
        for k in 0..100u64 {
            s.begin();
            let _ = s.read(t, (k * 37) % 1000).unwrap();
            s.commit().unwrap();
        }
        let per_txn = (sim.counters(0).instructions - before) / 100;
        assert!(per_txn < 6000, "per_txn={per_txn}");
    }

    #[test]
    fn art_scan_is_ordered() {
        let (_sim, db, t) = setup::<HyPerProfile>(1, 1);
        let mut s = db.session(0);
        s.begin();
        for k in (0..100u64).rev() {
            s.insert(t, k, &row(k, k as i64)).unwrap();
        }
        let mut seen = Vec::new();
        s.scan(t, 10, 20, &mut |k, _| {
            seen.push(k);
            true
        })
        .unwrap();
        s.commit().unwrap();
        assert_eq!(seen, (10..=20).collect::<Vec<u64>>());
    }
}
