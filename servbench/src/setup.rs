//! Set-up: from a dataset already on disk to a server answering, timed
//! stage by stage. Read workloads load a dump; write_mix recovers a data
//! dir (snapshot plus WAL tail). Both then build the engine, calibrate the
//! cost model as `precis serve` does and start the server with
//! `ServerConfig` defaults.

use crate::client;
use precis_core::PrecisEngine;
use precis_datagen::{movies_graph, movies_vocabulary};
use precis_durability::{DurableStore, FsyncPolicy, SharedWal};
use precis_index::InvertedIndex;
use precis_server::{Durability, Server, ServerConfig, ServerHandle};
use precis_storage::Database;
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

/// Stage times of one set-up, seconds.
#[derive(Debug, Clone, Copy, Default)]
pub struct Stages {
    pub load: f64,
    pub recover: f64,
    pub index: f64,
    pub assemble: f64,
    pub calibrate: f64,
    pub start: f64,
    pub total: f64,
}

pub struct Built {
    pub handle: ServerHandle,
    pub stages: Stages,
}

/// The WAL group-commit policy `precis serve --data-dir` uses.
pub const FSYNC: FsyncPolicy = FsyncPolicy::Batch(256);

/// Load `dump` and serve it in memory.
pub fn from_dump(dump: &Path) -> Result<Built, String> {
    let t0 = Instant::now();
    let db = precis_storage::io::load_from_file(dump).map_err(|e| e.to_string())?;
    let load = t0.elapsed().as_secs_f64();
    let mut built = serve(db, None, t0)?;
    built.stages.load = load;
    Ok(built)
}

/// Recover the data dir `dir` and serve it durably.
pub fn from_dir(dir: &Path) -> Result<Built, String> {
    let t0 = Instant::now();
    let store = DurableStore::open(dir).map_err(|e| e.to_string())?;
    let rec = store
        .recover()
        .map_err(|e| e.to_string())?
        .ok_or("data dir holds no state")?;
    let wal = store
        .open_wal(FSYNC, rec.report.next_lsn)
        .map_err(|e| e.to_string())?;
    let mut db = rec.db;
    let wal = SharedWal::new(wal);
    db.set_wal_sink(Arc::new(wal.clone()));
    let recover = t0.elapsed().as_secs_f64();
    let durability = Durability::new(store, wal, crate::workload::CHECKPOINT_EVERY);
    let mut built = serve(db, Some(durability), t0)?;
    built.stages.recover = recover;
    Ok(built)
}

/// Build the engine over `db` and start serving it, stage by stage.
pub fn engine(db: Database) -> (PrecisEngine, Stages) {
    let mut stages = Stages::default();
    let t = Instant::now();
    let index = InvertedIndex::build(&db);
    stages.index = t.elapsed().as_secs_f64();
    let t = Instant::now();
    let mut engine = PrecisEngine::with_index(db, movies_graph(), index);
    stages.assemble = t.elapsed().as_secs_f64();
    let t = Instant::now();
    if let Some(model) = precis_cli::calibrate_cost_model(engine.database()) {
        engine.set_cost_model(model);
    }
    stages.calibrate = t.elapsed().as_secs_f64();
    (engine, stages)
}

fn serve(db: Database, durability: Option<Durability>, t0: Instant) -> Result<Built, String> {
    let (engine, mut stages) = engine(db);
    let t = Instant::now();
    let vocabulary = movies_vocabulary(engine.database().schema());
    let handle = Server::start_durable(
        Arc::new(engine),
        Some(vocabulary),
        ServerConfig::default(),
        durability,
    )
    .map_err(|e| format!("cannot start server: {e}"))?;
    client::wait_healthy(handle.local_addr())?;
    stages.start = t.elapsed().as_secs_f64();
    stages.total = t0.elapsed().as_secs_f64();
    Ok(Built { handle, stages })
}

/// Copy a prepared data dir so each set-up recovers the same state.
pub fn copy_dir(from: &Path, to: &Path) -> Result<(), String> {
    let _ = std::fs::remove_dir_all(to);
    std::fs::create_dir_all(to).map_err(|e| e.to_string())?;
    for entry in std::fs::read_dir(from).map_err(|e| e.to_string())? {
        let entry = entry.map_err(|e| e.to_string())?;
        std::fs::copy(entry.path(), to.join(entry.file_name())).map_err(|e| e.to_string())?;
    }
    Ok(())
}
