//! servbench: the end-to-end serving benchmark.
//!
//! ```text
//! servbench --workload hot_read|longtail_read|write_mix --seed N --seconds S --trace 0|1
//! ```
//!
//! Runs an in-process `precis-server` in the configuration `precis serve`
//! ships, on the IMDB-scale synthetic movies database, drives it over
//! loopback with a closed loop of one client thread per core, checks every
//! answer, and prints a report whose last line is one JSON object. With
//! `--trace 0` that object holds the end-to-end metrics; with `--trace 1`
//! the per-layer metrics of a separate traced run. Run it from the root of
//! the repository: scratch files go to `.servbench_tmp/` and are removed.

mod check;
mod client;
mod drive;
mod json;
mod setup;
mod trace;
mod workload;

use check::{Oracle, Owned};
use drive::{median, percentile, PhaseOut, Writer};
use precis_core::{AnswerCacheStats, PrecisEngine};
use precis_datagen::{movies_vocabulary, MoviesConfig, MoviesGenerator};
use precis_durability::{DurableStore, SharedWal};
use precis_server::{parse_query_request, render_answer};
use precis_storage::Database;
use std::collections::{BTreeMap, HashMap};
use std::fmt::Write as _;
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;
use workload::{ReadPlan, Workload, WriteGen};

/// Fresh set-ups timed per run; `setup_s` is their median.
const SETUP_REPEATS: usize = 3;
/// Requests per pass of the traced run's sequential and in-process replay.
const REPLAY_REQUESTS: usize = 300;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(Workload::parse(&value).ok_or(format!("unknown workload {value}"))?)
            }
            "--seed" => seed = Some(value.parse().map_err(|_| "--seed takes an integer")?),
            "--seconds" => seconds = Some(value.parse().map_err(|_| "--seconds takes a number")?),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".to_owned()),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.unwrap_or(1),
        seconds: seconds.unwrap_or(10.0),
        trace: trace.unwrap_or(false),
    })
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!(
                "servbench: {e}\nusage: servbench --workload hot_read|longtail_read|write_mix \
                 --seed N --seconds S --trace 0|1"
            );
            std::process::exit(2);
        }
    };
    let root = PathBuf::from(".servbench_tmp");
    let work = root.join(format!("{}-{}", args.workload.name(), std::process::id()));
    let result = std::fs::create_dir_all(&work)
        .map_err(|e| format!("cannot create {}: {e}", work.display()))
        .and_then(|()| run(&args, &work));
    let _ = std::fs::remove_dir_all(&work);
    let _ = std::fs::remove_dir(&root);
    match result {
        Ok(out) => {
            print!("{}", out.text);
            println!("{}", out.json);
        }
        Err(e) => {
            eprintln!("servbench: {e}");
            std::process::exit(1);
        }
    }
}

struct Output {
    text: String,
    json: String,
}

/// Operation counts per type.
#[derive(Default)]
struct Ops(BTreeMap<&'static str, (u64, u64)>);

impl Ops {
    fn add(&mut self, kind: &'static str, attempted: u64, failed: u64) {
        let e = self.0.entry(kind).or_default();
        e.0 += attempted;
        e.1 += failed;
    }

    fn reads(&mut self, kind: &'static str, samples: &[drive::Sample]) {
        let failed = samples.iter().filter(|s| s.status != 200).count() as u64;
        self.add(kind, samples.len() as u64, failed);
    }

    fn totals(&self) -> (u64, u64) {
        self.0
            .values()
            .fold((0, 0), |(a, f), (x, y)| (a + x, f + y))
    }
}

fn rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmRSS:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// The checked-out commit, read from `.git` when there is one.
fn commit() -> String {
    let head = match std::fs::read_to_string(".git/HEAD") {
        Ok(h) => h.trim().to_owned(),
        Err(_) => return "unknown".to_owned(),
    };
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head;
    };
    if let Ok(c) = std::fs::read_to_string(Path::new(".git").join(reference)) {
        return c.trim().to_owned();
    }
    std::fs::read_to_string(".git/packed-refs")
        .ok()
        .and_then(|p| {
            p.lines()
                .find(|l| l.ends_with(reference))
                .and_then(|l| l.split_whitespace().next().map(str::to_owned))
        })
        .unwrap_or_else(|| "unknown".to_owned())
}

/// Scrape `/v1/metrics` into series → value.
fn scrape(addr: SocketAddr) -> HashMap<String, f64> {
    let Ok(r) = client::send(addr, "GET", "/v1/metrics", b"") else {
        return HashMap::new();
    };
    String::from_utf8_lossy(&r.body)
        .lines()
        .filter(|l| !l.starts_with('#'))
        .filter_map(|l| {
            let (k, v) = l.rsplit_once(' ')?;
            Some((k.to_owned(), v.parse().ok()?))
        })
        .collect()
}

fn delta(a: &HashMap<String, f64>, b: &HashMap<String, f64>, k: &str) -> f64 {
    b.get(k).copied().unwrap_or(0.0) - a.get(k).copied().unwrap_or(0.0)
}

fn stats_delta(a: AnswerCacheStats, b: AnswerCacheStats) -> AnswerCacheStats {
    AnswerCacheStats {
        schema_hits: b.schema_hits - a.schema_hits,
        schema_misses: b.schema_misses - a.schema_misses,
        schema_evictions: b.schema_evictions - a.schema_evictions,
        token_hits: b.token_hits - a.token_hits,
        token_misses: b.token_misses - a.token_misses,
        token_evictions: b.token_evictions - a.token_evictions,
    }
}

fn ratio(hits: u64, misses: u64) -> f64 {
    if hits + misses == 0 {
        0.0
    } else {
        hits as f64 / (hits + misses) as f64
    }
}

/// Served per-layer metrics from two scrapes around a phase.
fn served_layers(
    before: &HashMap<String, f64>,
    after: &HashMap<String, f64>,
    cache: AnswerCacheStats,
    layers: &mut trace::Layers,
) {
    let mean_us = |family: &str, labels: &str| {
        let n = delta(before, after, &format!("{family}_count{labels}"));
        (n > 0.0).then(|| delta(before, after, &format!("{family}_sum{labels}")) / n * 1e6)
    };
    layers.add(
        "core.token_hit_ratio",
        ratio(cache.token_hits, cache.token_misses),
    );
    layers.add(
        "core.schema_hit_ratio",
        ratio(cache.schema_hits, cache.schema_misses),
    );
    let ok = delta(
        before,
        after,
        "precis_requests_total{endpoint=\"query\",status=\"200\"}",
    );
    if ok > 0.0 {
        layers.add(
            "sched.coalesced_ratio",
            delta(before, after, "precis_sched_coalesced_total") / ok,
        );
    }
    if let Some(v) = mean_us("precis_queue_wait_seconds", "") {
        layers.add("sched.queue_wait_us", v);
    }
    if let Some(v) = mean_us("precis_request_duration_seconds", "{endpoint=\"query\"}") {
        layers.add("server.service_us", v);
    }
    let m = delta(before, after, "precis_cost_model_measured_seconds_total");
    let p = delta(before, after, "precis_cost_model_predicted_seconds_total");
    if m > 0.0 && p > 0.0 {
        layers.add("sched.cost_error_x", (m / p).max(p / m));
        layers.add("trace.cost_measured_over_predicted", m / p);
    }
}

/// Prepare a data dir: a snapshot of `db` plus the WAL records of the
/// stream's first `prefill` batches, applied to `db` as it goes.
fn prepare_dir(
    dir: &Path,
    db: &mut Database,
    gen: &mut WriteGen,
    prefill: usize,
) -> Result<(), String> {
    let store = DurableStore::open(dir).map_err(|e| e.to_string())?;
    precis_durability::write_snapshot(db, 0, store.snapshot_path()).map_err(|e| e.to_string())?;
    let wal = SharedWal::new(
        store
            .create_wal(setup::FSYNC, 0)
            .map_err(|e| e.to_string())?,
    );
    db.set_wal_sink(Arc::new(wal.clone()));
    for _ in 0..prefill {
        gen.next_batch().apply_to(db);
    }
    db.clear_wal_sink();
    wal.flush().map_err(|e| e.to_string())
}

fn dataset() -> Database {
    MoviesGenerator::new(MoviesConfig::imdb_scale()).generate()
}

/// Check every read answer: its bytes against the direct in-process
/// render, and the direct render against the oracle. Returns the number of
/// distinct bodies checked.
fn check_reads(
    oracle: &Oracle,
    engine: &PrecisEngine,
    queries: &[workload::Query],
    samples: &[drive::Sample],
    errors: &mut Vec<String>,
    renders: &mut BTreeMap<u32, String>,
) -> usize {
    let vocab = movies_vocabulary(engine.database().schema());
    let mut by_id: BTreeMap<u32, Vec<u64>> = BTreeMap::new();
    for s in samples.iter().filter(|s| s.status == 200) {
        by_id.entry(s.id).or_default().push(s.hash);
    }
    for (&id, hashes) in &by_id {
        let q = &queries[id as usize];
        let direct = match parse_query_request(&q.body)
            .map_err(|e| e.to_string())
            .and_then(|req| {
                let spec =
                    precis_core::AnswerSpec::new(req.degree.clone(), req.cardinality.clone())
                        .with_strategy(req.strategy);
                engine
                    .answer(&req.query, &spec)
                    .map(|a| render_answer(engine, Some(&vocab), &a))
                    .map_err(|e| e.to_string())
            }) {
            Ok(d) => d,
            Err(e) => {
                errors.push(format!("direct answer for {} failed: {e}", q.body));
                continue;
            }
        };
        let h = drive::body_hash(direct.as_bytes());
        let differ = hashes.iter().filter(|&&x| x != h).count();
        if differ > 0 {
            errors.push(format!(
                "{differ} of {} HTTP bodies for {} differ from the direct render",
                hashes.len(),
                q.body
            ));
        }
        let expect = check::scan_unmatched(oracle, &q.tokens);
        for e in check::check_answer(oracle, &direct, &q.tokens, &expect, &Owned::default()) {
            errors.push(format!("{}: {e}", q.body));
        }
        renders.insert(id, direct);
    }
    by_id.len()
}

fn check_writes(oracle: &Oracle, out: &PhaseOut, errors: &mut Vec<String>) {
    errors.extend(out.ack_errors.iter().cloned());
    for v in &out.verifies {
        if v.status != 200 {
            continue;
        }
        let owned = Owned::of(&v.live);
        let mut errs = check::check_answer(oracle, &v.body, &v.tokens, &v.gone, &owned);
        errs.extend(check::check_live(&v.live, &v.body));
        for e in errs {
            errors.push(format!("read-your-writes: {e}"));
        }
    }
}

fn run(args: &Args, work: &Path) -> Result<Output, String> {
    let mut text = String::new();
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let wl = args.workload;
    let readers = match wl {
        Workload::WriteMix => nproc.saturating_sub(1).max(1),
        _ => nproc,
    };
    let clients = readers + usize::from(wl == Workload::WriteMix);
    let cfg = MoviesConfig::imdb_scale();
    let _ = writeln!(
        text,
        "env: nproc={nproc} commit={} seed={} workload={} trace={} dataset=movies:{}/directors:{}/actors:{}/theatres:{}/plays:{} clients={clients} (readers={readers}) rayon_env={}",
        commit(),
        args.seed,
        wl.name(),
        u8::from(args.trace),
        cfg.movies,
        cfg.directors,
        cfg.actors,
        cfg.theatres,
        cfg.plays,
        std::env::var("RAYON_NUM_THREADS").unwrap_or_else(|_| "unset".to_owned()),
    );

    // Input preparation (untimed): the dataset, its dump, the workload's
    // request lists and, where needed, a data dir with a WAL tail.
    let t = Instant::now();
    let mut db = dataset();
    let base = {
        let id = |r: &str| db.schema().relation_id(r).expect("movies relation");
        (db.len(id("DIRECTOR")) as u64, db.len(id("MOVIE")) as u64)
    };
    let plan: ReadPlan = match wl {
        Workload::LongtailRead => {
            let pools = workload::TailPools::from_db(&db);
            let (n, m, r) = pools.sizes();
            let _ = writeln!(
                text,
                "long-tail pools: {n} person names, {m} title numbers, {r} role words"
            );
            workload::longtail_plan(args.seed, readers, &pools)
        }
        _ => workload::hot_plan(args.seed, readers),
    };
    let dump = work.join("base.precisdb");
    precis_storage::io::dump_to_file(&db, &dump).map_err(|e| e.to_string())?;
    let dump_mb = std::fs::metadata(&dump).map_or(0.0, |m| m.len() as f64 / 1e6);
    let prepared = work.join("prepared");
    let mut gen = match wl {
        Workload::WriteMix => WriteGen::write_mix(args.seed, base),
        _ => WriteGen::probe(args.seed, base),
    };
    let prefill = if wl == Workload::WriteMix {
        workload::WRITE_PREFILL_BATCHES
    } else {
        0
    };
    // A second generator replays the same stream in the traced run.
    let mut replay_gen = match wl {
        Workload::WriteMix => WriteGen::write_mix(args.seed, base),
        _ => WriteGen::probe(args.seed, base),
    };
    if wl == Workload::WriteMix || args.trace {
        prepare_dir(&prepared, &mut db, &mut gen, prefill)?;
        for _ in 0..prefill {
            replay_gen.next_batch();
        }
    }
    if wl == Workload::WriteMix {
        gen.arm_checkpoints(workload::CHECKPOINT_EVERY);
        replay_gen.arm_checkpoints(workload::CHECKPOINT_EVERY);
    }
    drop(db);
    let _ = writeln!(
        text,
        "inputs: dump {dump_mb:.1} MB, {} distinct query bodies, {} requests per reading client per round, prepared in {:.2} s (untimed)",
        plan.queries.len(),
        plan.round.first().map_or(0, Vec::len),
        t.elapsed().as_secs_f64()
    );

    // Set-up, timed over several fresh builds; the last one serves.
    let mut stages = Vec::new();
    let mut built = None;
    for i in 0..SETUP_REPEATS {
        if let Some(b) = built.take() {
            let b: setup::Built = b;
            b.handle.join();
        }
        let b = match wl {
            Workload::WriteMix => {
                let dir = work.join(format!("data-{i}"));
                setup::copy_dir(&prepared, &dir)?;
                setup::from_dir(&dir)?
            }
            _ => setup::from_dump(&dump)?,
        };
        stages.push(b.stages);
        built = Some(b);
    }
    let built = built.expect("at least one set-up");
    let handle = built.handle;
    let addr = handle.local_addr();
    let setup_s = median(&stages.iter().map(|s| s.total).collect::<Vec<_>>());
    let _ = writeln!(
        text,
        "setup: {} builds, median {setup_s:.4} s ({})",
        SETUP_REPEATS,
        stages
            .iter()
            .map(|s| format!("{:.4}", s.total))
            .collect::<Vec<_>>()
            .join(", ")
    );

    let engine_now: &(dyn Fn() -> Arc<PrecisEngine> + Sync) = &|| handle.engine();
    let observer = args.trace.then_some(engine_now);
    let mut ops = Ops::default();

    // Warm-up (untimed): the reading clients' warm-up lists only. A
    // mutation here would leave the footprint below depending on which
    // worker thread's allocator arena the engine clones landed in.
    let warm = drive::phase(addr, &plan.queries, &plan.warmup, None, None);
    ops.reads("warmup_query", &warm.reads);
    let rss = rss_mb();

    // Timed phase.
    let cache_before = handle.engine().cache_stats();
    let scrape_before = scrape(addr);
    let ticks_before = drive::cpu_ticks();
    let timed = drive::phase(
        addr,
        &plan.queries,
        &plan.round,
        (wl == Workload::WriteMix).then_some(Writer {
            gen: &mut gen,
            batches_per_round: workload::WRITE_BATCHES_PER_ROUND,
            engine_now: observer,
        }),
        Some(args.seconds),
    );
    let ticks_after = drive::cpu_ticks();
    let scrape_after = scrape(addr);
    let cache = match wl {
        Workload::WriteMix => timed.retired_cache,
        _ => stats_delta(cache_before, handle.engine().cache_stats()),
    };
    let steal = match (ticks_before, ticks_after) {
        (Some((s0, t0)), Some((s1, t1))) if t1 > t0 => (s1 - s0) as f64 / (t1 - t0) as f64,
        _ => f64::NAN,
    };
    ops.reads("query", &timed.reads);
    ops.add("mutate", timed.mutate_attempted, timed.mutate_failed);
    ops.add(
        "verify_query",
        timed.verifies.len() as u64,
        timed.verifies.iter().filter(|v| v.status != 200).count() as u64,
    );

    let mut layers = trace::Layers::default();
    if args.trace {
        served_layers(&scrape_before, &scrape_after, cache, &mut layers);
    }

    // Output checks (untimed): the oracle is built from a fresh copy of
    // the dataset, after the footprint was read.
    let mut errors: Vec<String> = Vec::new();
    let t = Instant::now();
    let oracle = Oracle::new(&dataset());
    let served = handle.engine();
    let mut renders = BTreeMap::new();
    let mut all_reads = warm.reads.clone();
    all_reads.extend(timed.reads.iter().copied());
    let distinct = check_reads(
        &oracle,
        &served,
        &plan.queries,
        &all_reads,
        &mut errors,
        &mut renders,
    );
    check_writes(&oracle, &timed, &mut errors);
    let mut selftest_missed = vec!["no answer to corrupt".to_owned()];
    for (id, body) in &renders {
        let missed = check::self_test(&oracle, body, &plan.queries[*id as usize].tokens);
        if missed.len() == 1 && missed[0].contains("no foreign key") {
            continue;
        }
        selftest_missed = missed;
        break;
    }
    errors.extend(selftest_missed.iter().map(|m| format!("self-test: {m}")));
    let check_s = t.elapsed().as_secs_f64();

    // The traced run's query replay, on the served engine as served.
    let vocab = movies_vocabulary(served.database().schema());
    if args.trace {
        let flat: Vec<u32> = plan.round.iter().flatten().copied().collect();
        let n = REPLAY_REQUESTS.min(flat.len() / 2);
        let http_ids: Vec<u32> = flat.iter().step_by(2).take(n).copied().collect();
        let inproc_ids: Vec<u32> = flat.iter().skip(1).step_by(2).take(n).copied().collect();
        trace::query_replay(
            addr,
            &served,
            &vocab,
            &plan.queries,
            &http_ids,
            &inproc_ids,
            &mut layers,
        );
    }
    drop(served);

    // Read workloads end with a fixed write probe, so every workload
    // reports a write latency.
    let mut mutate_ns = timed.mutate_ns.clone();
    if wl != Workload::WriteMix {
        // The first batches are not timed: the allocator settles how it
        // serves the engine clones' large buffers over the first few.
        let mut probe_phase = |batches: usize| {
            let probe = drive::phase(
                addr,
                &plan.queries,
                &[],
                Some(Writer {
                    gen: &mut gen,
                    batches_per_round: batches,
                    engine_now: observer,
                }),
                None,
            );
            ops.add("probe_mutate", probe.mutate_attempted, probe.mutate_failed);
            ops.add(
                "probe_verify_query",
                probe.verifies.len() as u64,
                probe.verifies.iter().filter(|v| v.status != 200).count() as u64,
            );
            check_writes(&oracle, &probe, &mut errors);
            probe
        };
        probe_phase(workload::PROBE_WARMUP_BATCHES);
        let before = scrape(addr);
        let probe = probe_phase(workload::PROBE_BATCHES);
        let after = scrape(addr);
        mutate_ns = probe.mutate_ns;
        if args.trace {
            let n = delta(
                &before,
                &after,
                "precis_request_duration_seconds_count{endpoint=\"mutate\"}",
            );
            if n > 0.0 {
                layers.add(
                    "server.mutate_service_us",
                    delta(
                        &before,
                        &after,
                        "precis_request_duration_seconds_sum{endpoint=\"mutate\"}",
                    ) / n
                        * 1e6,
                );
            }
        }
    } else if args.trace {
        let n = delta(
            &scrape_before,
            &scrape_after,
            "precis_request_duration_seconds_count{endpoint=\"mutate\"}",
        );
        if n > 0.0 {
            layers.add(
                "server.mutate_service_us",
                delta(
                    &scrape_before,
                    &scrape_after,
                    "precis_request_duration_seconds_sum{endpoint=\"mutate\"}",
                ) / n
                    * 1e6,
            );
        }
    }
    handle.join();

    if args.trace {
        for s in &stages {
            layers.add("index.build_s", s.index);
            layers.add("core.engine_assemble_s", s.assemble);
            layers.add("core.calibrate_s", s.calibrate);
            layers.add("server.start_s", s.start);
        }
        let scratch = work.join("replay");
        trace::storage_replay(&dump, &prepared, &scratch, &mut layers);
        let batches = match wl {
            Workload::WriteMix => workload::WRITE_BATCHES_PER_ROUND,
            _ => workload::PROBE_WARMUP_BATCHES + workload::PROBE_BATCHES,
        };
        if let Err(e) =
            trace::write_replay(&prepared, &scratch, &mut replay_gen, batches, &mut layers)
        {
            layers.errors.push(e);
        }
        errors.extend(layers.errors.iter().map(|e| format!("replay: {e}")));
    }

    // Report. Query metrics are medians over the timed phase's slices, so
    // a burst of host contention inside one slice does not move them.
    let mut slice_ms: Vec<Vec<f64>> = vec![Vec::new(); timed.slices.len()];
    for s in timed.reads.iter().filter(|s| s.status == 200) {
        if let Some(v) = slice_ms.get_mut(s.slice as usize) {
            v.push(s.ns as f64 / 1e6);
        }
    }
    let per_slice = |f: &dyn Fn(usize, &Vec<f64>) -> f64| -> f64 {
        let v: Vec<f64> = slice_ms
            .iter()
            .enumerate()
            .filter(|(_, v)| !v.is_empty())
            .map(|(i, v)| f(i, v))
            .collect();
        median(&v)
    };
    let read_ok = timed.reads.iter().filter(|s| s.status == 200).count();
    let mutate_ms: Vec<f64> = mutate_ns.iter().map(|&n| n as f64 / 1e6).collect();
    let wall = timed.wall.as_secs_f64();
    // The last field says whether the metric is in the result object. On
    // the reference host the tail, the throughput and the write latency
    // move with the neighbours' load far beyond any usable bound (README,
    // "Steadiness"), so they are reported here but not gated.
    let e2e: Vec<(&str, &str, f64, bool)> = vec![
        ("setup_s", "s", setup_s, true),
        (
            "query_p50_ms",
            "ms",
            per_slice(&|_, v| percentile(v, 0.50)),
            true,
        ),
        (
            "query_p95_ms",
            "ms",
            per_slice(&|_, v| percentile(v, 0.95)),
            false,
        ),
        (
            "query_rps",
            "1/s",
            per_slice(&|i, v| v.len() as f64 / timed.slices[i]),
            false,
        ),
        ("mutate_p50_ms", "ms", percentile(&mutate_ms, 0.50), false),
        ("rss_mb", "MB", rss, true),
    ];
    let _ = writeln!(
        text,
        "timed phase: {} rounds, {} slices in {wall:.2} s, {read_ok} queries ({} beyond p95, {:.0} per slice), {} mutate batches, host CPU steal {:.1}%",
        timed.rounds,
        timed.slices.len(),
        read_ok / 20,
        read_ok as f64 / timed.slices.len().max(1) as f64,
        timed.mutate_ns.len(),
        steal * 100.0
    );
    let _ = writeln!(
        text,
        "slices (rps/p50 ms/steal %): {}",
        slice_ms
            .iter()
            .zip(&timed.slices)
            .zip(&timed.slice_steal)
            .map(|((v, t), st)| format!(
                "{:.0}/{:.3}/{:.0}",
                v.len() as f64 / t,
                percentile(v, 0.5),
                st * 100.0
            ))
            .collect::<Vec<_>>()
            .join(" ")
    );
    for (kind, (a, f)) in &ops.0 {
        let _ = writeln!(text, "ops: {kind:<20} attempted {a:>7}  failed {f}");
    }
    let _ = writeln!(
        text,
        "checks: {distinct} distinct read bodies ({} carry a narrative_error), {} read-your-writes answers, self-test {}, {:.2} s (untimed)",
        renders.values().filter(|b| b.contains("\"narrative_error\"")).count(),
        timed.verifies.len(),
        if selftest_missed.is_empty() { "caught every corruption" } else { "FAILED" },
        check_s
    );
    for e in errors.iter().take(20) {
        let _ = writeln!(text, "CHECK FAILED: {e}");
    }
    if errors.len() > 20 {
        let _ = writeln!(text, "CHECK FAILED: ... {} more", errors.len() - 20);
    }
    let (attempted, failed) = ops.totals();
    let mut metrics = String::new();
    let mut push = |name: &str, unit: &str, value: f64| {
        if !metrics.is_empty() {
            metrics.push_str(", ");
        }
        let v = if value.is_finite() { value } else { -1.0 };
        let _ = write!(
            metrics,
            "\"{name}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}"
        );
    };
    if args.trace {
        let _ = writeln!(text, "per-layer metrics ({}):", wl.name());
        for (name, unit, exercised) in per_layer(wl) {
            match layers.median(name) {
                Some((v, n)) => {
                    let _ = writeln!(
                        text,
                        "  {name:<34} {v:>14.3} {unit:<12} n={n:<6}{}",
                        if exercised {
                            ""
                        } else {
                            "  (absent from this workload's served stream: standalone replay)"
                        }
                    );
                    push(name, unit, v);
                }
                None => {
                    let _ = writeln!(text, "  {name:<34} {:>14} {unit:<12} absent", "-");
                }
            }
        }
        for (name, unit) in [
            ("trace.sequential_http_us", "us"),
            ("trace.inprocess_serving_us", "us"),
            ("trace.cost_measured_over_predicted", "x"),
        ] {
            if let Some((v, n)) = layers.median(name) {
                let _ = writeln!(text, "  {name:<34} {v:>14.3} {unit:<12} n={n}");
            }
        }
    } else {
        for (name, unit, v, gated) in &e2e {
            let note = if *gated {
                ""
            } else {
                "  (reported, not gated)"
            };
            let _ = writeln!(text, "  {name:<16} {v:>12.4} {unit}{note}");
            if *gated {
                push(name, unit, *v);
            }
        }
    }
    let correct = errors.is_empty();
    let json = format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{metrics}}}}}"
    );
    Ok(Output { text, json })
}

/// Every per-layer metric: name, unit, and whether the workload's served
/// stream passes through the layer.
fn per_layer(wl: Workload) -> Vec<(&'static str, &'static str, bool)> {
    let reads = wl != Workload::WriteMix;
    let writes = wl == Workload::WriteMix;
    vec![
        ("storage.load_s", "s", reads),
        ("durability.recover_s", "s", writes),
        ("index.build_s", "s", true),
        ("core.engine_assemble_s", "s", true),
        ("core.calibrate_s", "s", true),
        ("server.start_s", "s", true),
        ("api.parse_us", "us", true),
        ("sched.predict_us", "us", true),
        ("core.answer_us", "us", true),
        ("index.lookup_us", "us", true),
        ("core.schema_gen_us", "us", true),
        ("core.db_gen_us", "us", true),
        ("nlg.translate_us", "us", true),
        ("api.render_us", "us", true),
        ("server.transport_us", "us", true),
        ("storage.index_probes", "probes/query", true),
        ("storage.tuple_reads", "reads/query", true),
        ("core.token_hit_ratio", "ratio", true),
        ("core.schema_hit_ratio", "ratio", true),
        ("sched.coalesced_ratio", "ratio", true),
        ("sched.queue_wait_us", "us", true),
        ("server.service_us", "us", true),
        ("sched.cost_error_x", "x", true),
        ("mutate.parse_us", "us", true),
        ("core.engine_clone_ms", "ms", true),
        ("mutate.apply_ms", "ms", true),
        ("durability.wal_sync_us", "us", writes),
        ("durability.checkpoint_ms", "ms", writes),
        ("server.mutate_service_us", "us", true),
    ]
}
