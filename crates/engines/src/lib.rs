//! # engines — the five analyzed OLTP systems
//!
//! Four of the five archetypes are *profiles* over one of two engine
//! families; DBMS M keeps its own module because its multi-version store
//! shares no operation path with the others:
//!
//! | Family | Profile | Paper system | Storage | CC | Index | Txn code |
//! |---|---|---|---|---|---|---|
//! | [`disk`] | [`disk::ShoreMtProfile`] | Shore-MT | buffer pool + heap pages | 2PL | 8 KB B+tree | hard-coded C++ plans, *no* layers outside the storage manager |
//! | [`disk`] | [`disk::DbmsDProfile`] | DBMS D (commercial disk-based) | buffer pool + heap pages | 2PL | 8 KB B+tree | full stack: network, parser, optimizer, interpreted executor |
//! | [`partitioned`] | [`partitioned::VoltDbProfile`] | VoltDB CE 4.8 | per-partition row store | serial per partition (no locks) | cache-conscious B+tree | interpreted stored procedures behind a Java-runtime-like layer |
//! | [`partitioned`] | [`partitioned::HyPerProfile`] | HyPer | per-partition row store | serial per partition | ART | transactions compiled to machine code (tiny instruction footprint) |
//! | [`dbms_m`] | — | DBMS M (commercial in-memory) | multi-version store | optimistic MVCC | hash **or** cc-B+tree | compiled storage-manager ops under a large legacy frontend |
//!
//! A family ([`disk::DiskEngine`], [`partitioned::PartitionedEngine`])
//! owns the storage, CC, logging and index paths; a profile is a type
//! parameter that supplies the system's cost table, code modules, index
//! type, frontend hooks and span/metric/fault-site names. The shared code
//! calls the profile and never asks which system it serves, so two systems
//! of one family differ only along the axes their profiles name, and
//! adding an archetype means adding a profile. [`ShoreMt`], [`DbmsD`],
//! [`VoltDb`] and [`HyPer`] are the family types instantiated with their
//! profiles.
//!
//! Every engine implements [`oltp::Db`], and every worker drives an
//! [`oltp::Session`] opened with [`oltp::Db::session`]. Each engine
//! registers its code modules (footprint / reuse / branchiness per §2.1's
//! characterization) with the simulator and charges every operation's
//! instruction stream and data touches through them — the
//! micro-architectural behaviour then *emerges* from the same design axes
//! the paper identifies.
//!
//! [`SystemKind`] + [`build_system`] give the benchmark harness a uniform
//! factory.
//!
//! ```
//! use engines::{build_system, SystemKind};
//! use oltp::{Column, DataType, Schema, TableDef, Value};
//! use uarch_sim::{MachineConfig, Sim};
//!
//! let sim = Sim::new(MachineConfig::ivy_bridge(1));
//! let mut db = build_system(SystemKind::HyPer, &sim, 1);
//! let t = db.create_table(TableDef::new(
//!     "accounts",
//!     Schema::new(vec![
//!         Column::new("id", DataType::Long),
//!         Column::new("balance", DataType::Long),
//!     ]),
//!     100,
//! ));
//! let mut s = db.session(0); // one per worker thread
//! s.begin();
//! s.insert(t, 1, &[Value::Long(1), Value::Long(500)]).unwrap();
//! s.update(t, 1, &mut |row| row[1] = Value::Long(600)).unwrap();
//! s.commit().unwrap();
//! // The simulator observed every index node and row the engine touched.
//! assert!(sim.counters(0).instructions > 0);
//! ```

pub mod builder;
pub mod common;
pub mod dbms_m;
pub mod disk;
pub mod durability;
pub mod partitioned;
pub mod placement;

pub use builder::SystemBuilder;
pub use common::{build_system, DbmsMIndex, SystemKind};
pub use dbms_m::{DbmsM, DbmsMOptions};
pub use disk::{DbmsD, ShoreMt};
pub use durability::{DurabilityCfg, DurableDb, LogStatus};
pub use oltp::cc::CcPolicy;
pub use partitioned::{HyPer, VoltDb};
pub use placement::Placement;
