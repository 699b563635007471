//! The traced run's in-process replays. Each layer's public function is
//! called one request at a time and timed from here; nothing is traced
//! inside the program.

use crate::client;
use crate::drive::median;
use crate::setup;
use crate::workload::{Query, WriteGen};
use precis_core::{
    generate_result_database, generate_result_schema, AnswerSpec, DbGenOptions, PrecisAnswer,
    PrecisEngine, TokenMatch,
};
use precis_durability::{DurableStore, SharedWal};
use precis_nlg::{Translator, Vocabulary};
use precis_server::{mutate, parse_mutate_request, parse_query_request, render_answer, Durability};
use precis_storage::{RelationId, TupleId};
use std::collections::{BTreeMap, HashMap, HashSet};
use std::net::SocketAddr;
use std::path::Path;
use std::time::Instant;

/// Samples per per-layer metric, in the metric's own unit.
#[derive(Default)]
pub struct Layers {
    pub samples: BTreeMap<&'static str, Vec<f64>>,
    pub errors: Vec<String>,
}

impl Layers {
    pub fn add(&mut self, name: &'static str, v: f64) {
        self.samples.entry(name).or_default().push(v);
    }

    pub fn median(&self, name: &str) -> Option<(f64, usize)> {
        self.samples
            .get(name)
            .filter(|v| !v.is_empty())
            .map(|v| (median(v), v.len()))
    }
}

fn us(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e6
}

fn spec_of(req: &precis_server::QueryRequest) -> AnswerSpec {
    AnswerSpec::new(req.degree.clone(), req.cardinality.clone()).with_strategy(req.strategy)
}

/// Send `http_ids` one at a time over HTTP, then run `inproc_ids` through
/// the serving path in-process (parse, admission pricing, cache-fronted
/// answer, render) and through the staged, uncached pipeline (index
/// lookup, schema generation, database generation, render). The two id
/// sets are disjoint draws from the same stream, so neither pass warms the
/// caches for the other.
pub fn query_replay(
    addr: SocketAddr,
    engine: &PrecisEngine,
    vocab: &Vocabulary,
    queries: &[Query],
    http_ids: &[u32],
    inproc_ids: &[u32],
    layers: &mut Layers,
) {
    let mut http = Vec::new();
    for &id in http_ids {
        match client::send(
            addr,
            "POST",
            "/v1/query",
            queries[id as usize].body.as_bytes(),
        ) {
            Ok(r) if r.status == 200 => http.push(r.latency.as_secs_f64() * 1e6),
            Ok(r) => layers
                .errors
                .push(format!("sequential query answered {}", r.status)),
            Err(e) => layers.errors.push(format!("sequential query failed: {e}")),
        }
    }
    let mut serving = Vec::new();
    for &id in inproc_ids {
        let body = &queries[id as usize].body;
        let t = Instant::now();
        let req = match parse_query_request(body) {
            Ok(r) => r,
            Err(e) => {
                layers.errors.push(format!("parse failed: {e}"));
                continue;
            }
        };
        let parse = us(t);
        let t = Instant::now();
        let predicted = engine.predict_cost(&req.query, &req.degree, &req.cardinality);
        let predict = us(t);
        if let Err(e) = predicted {
            layers.errors.push(format!("predict_cost failed: {e}"));
            continue;
        }
        let spec = spec_of(&req);
        let t = Instant::now();
        let answer = match engine.answer(&req.query, &spec) {
            Ok(a) => a,
            Err(e) => {
                layers.errors.push(format!("answer failed: {e}"));
                continue;
            }
        };
        let answer_us = us(t);
        let t = Instant::now();
        let served = render_answer(engine, Some(vocab), &answer);
        let render = us(t);
        layers.add("api.parse_us", parse);
        layers.add("sched.predict_us", predict);
        layers.add("core.answer_us", answer_us);
        layers.add("api.render_us", render);
        serving.push(parse + predict + answer_us + render);

        let staged = staged(engine, vocab, &req, layers);
        match staged {
            Ok(bytes) if bytes == served => {}
            Ok(_) => layers.errors.push(format!(
                "staged replay bytes differ from the served render for {body}"
            )),
            Err(e) => layers.errors.push(format!("staged replay failed: {e}")),
        }
    }
    if !http.is_empty() && !serving.is_empty() {
        layers.add("server.transport_us", median(&http) - median(&serving));
    }
    layers.add("trace.sequential_http_us", median(&http));
    layers.add("trace.inprocess_serving_us", median(&serving));
}

/// The pipeline stage by stage, uncached; returns the rendered bytes.
fn staged(
    engine: &PrecisEngine,
    vocab: &Vocabulary,
    req: &precis_server::QueryRequest,
    layers: &mut Layers,
) -> Result<String, String> {
    let db = engine.database();
    let t = Instant::now();
    let matches: Vec<TokenMatch> = req
        .query
        .tokens()
        .iter()
        .map(|tok| TokenMatch {
            token: tok.clone(),
            occurrences: engine.index().lookup(db, tok),
        })
        .collect();
    layers.add("index.lookup_us", us(t));
    // Origins in first-match order and seeds per relation, as the engine
    // derives them from the index's occurrences.
    let mut origins: Vec<RelationId> = Vec::new();
    let mut seen = HashSet::new();
    let mut seeds: HashMap<RelationId, Vec<TupleId>> = HashMap::new();
    for m in &matches {
        for occ in &m.occurrences {
            if seen.insert(occ.rel) {
                origins.push(occ.rel);
            }
            seeds.entry(occ.rel).or_default().extend(occ.tids.iter());
        }
    }
    let t = Instant::now();
    let schema = generate_result_schema(engine.graph(), &origins, &req.degree);
    layers.add("core.schema_gen_us", us(t));
    let before = db.stats().snapshot();
    let t = Instant::now();
    let precis = generate_result_database(
        db,
        engine.graph(),
        &schema,
        &seeds,
        &req.cardinality,
        req.strategy,
        &DbGenOptions::default(),
    )
    .map_err(|e| e.to_string())?;
    layers.add("core.db_gen_us", us(t));
    let delta = db.stats().snapshot().since(before);
    layers.add("storage.index_probes", delta.index_probes as f64);
    layers.add("storage.tuple_reads", delta.tuple_reads as f64);
    let answer = PrecisAnswer {
        matches,
        schema,
        precis,
    };
    // A narrative error is part of the rendered answer (its
    // `narrative_error` field), so it is compared, not raised, here.
    let t = Instant::now();
    let translated = Translator::new(db, engine.graph(), vocab).translate_ranked(&answer);
    layers.add("nlg.translate_us", us(t));
    drop(translated);
    Ok(render_answer(engine, Some(vocab), &answer))
}

/// Time `load_from_file` and `DurableStore::recover` on fresh copies of
/// the workload's inputs.
pub fn storage_replay(dump: &Path, prepared: &Path, scratch: &Path, layers: &mut Layers) {
    for _ in 0..3 {
        let t = Instant::now();
        match precis_storage::io::load_from_file(dump) {
            Ok(db) => {
                layers.add("storage.load_s", t.elapsed().as_secs_f64());
                drop(db);
            }
            Err(e) => layers.errors.push(format!("load failed: {e}")),
        }
    }
    for _ in 0..3 {
        if let Err(e) = setup::copy_dir(prepared, scratch) {
            layers.errors.push(e);
            return;
        }
        let t = Instant::now();
        let rec = DurableStore::open(scratch).and_then(|s| s.recover());
        let secs = t.elapsed().as_secs_f64();
        match rec {
            Ok(Some(_)) => layers.add("durability.recover_s", secs),
            Ok(None) => layers.errors.push("recovery found no state".to_owned()),
            Err(e) => layers.errors.push(format!("recovery failed: {e}")),
        }
    }
}

/// Replay the workload's mutation stream in-process on a recovered copy
/// of its data dir: parse each batch, clone the engine, apply the batch
/// copy-on-write, append its records to the WAL and sync, and checkpoint
/// where the server would (then as needed to reach three checkpoints).
pub fn write_replay(
    prepared: &Path,
    scratch: &Path,
    gen: &mut WriteGen,
    batches: usize,
    layers: &mut Layers,
) -> Result<(), String> {
    setup::copy_dir(prepared, scratch)?;
    let store = DurableStore::open(scratch).map_err(|e| e.to_string())?;
    let rec = store
        .recover()
        .map_err(|e| e.to_string())?
        .ok_or("no state to replay on")?;
    let wal = store
        .open_wal(setup::FSYNC, rec.report.next_lsn)
        .map_err(|e| e.to_string())?;
    let durability = Durability::new(store.clone(), SharedWal::new(wal), 0);
    let (mut engine, _) = setup::engine(rec.db);
    let mut checkpoints = 0;
    let checkpoint = |engine: &PrecisEngine, layers: &mut Layers| -> Result<(), String> {
        let t = Instant::now();
        let rebuilt = mutate::checkpoint_engine(&durability, engine)?;
        layers.add("durability.checkpoint_ms", t.elapsed().as_secs_f64() * 1e3);
        drop(rebuilt);
        Ok(())
    };
    for i in 0..batches {
        let batch = gen.next_batch();
        let t = Instant::now();
        let ops = parse_mutate_request(&batch.body)?;
        layers.add("mutate.parse_us", us(t));
        if i < 20 {
            let t = Instant::now();
            let copy = engine.clone();
            layers.add("core.engine_clone_ms", t.elapsed().as_secs_f64() * 1e3);
            drop(copy);
        }
        let t = Instant::now();
        let applied = mutate::apply_ops(&engine, &ops);
        layers.add("mutate.apply_ms", t.elapsed().as_secs_f64() * 1e3);
        if let Some(e) = &applied.error {
            return Err(format!("replayed batch {i} failed: {e}"));
        }
        if applied.inserted_tids != batch.inserted_tids {
            return Err(format!("replayed batch {i} inserted at unexpected tids"));
        }
        let records = batch.wal_ops();
        let t = Instant::now();
        durability
            .wal
            .with(|w| {
                for op in records {
                    w.append_op(op)?;
                }
                w.flush()
            })
            .map_err(|e| e.to_string())?;
        layers.add("durability.wal_sync_us", us(t));
        engine = applied.engine;
        if batch.checkpoint {
            checkpoint(&engine, layers)?;
            checkpoints += 1;
            // The server continues on the compacted reload; so does the
            // replay, rebuilt without a WAL sink so that the records above
            // stay the only ones appended.
            let snap = precis_durability::load_snapshot(store.snapshot_path())
                .map_err(|e| e.to_string())?
                .ok_or("checkpoint left no snapshot")?;
            engine = setup::engine(snap.db).0;
        }
    }
    while checkpoints < 3 {
        checkpoint(&engine, layers)?;
        checkpoints += 1;
    }
    Ok(())
}
