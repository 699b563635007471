//! The closed-loop load: each client thread sends one request, waits for
//! the whole reply, then sends the next. Reading clients replay their
//! per-round request list; in write_mix one client instead sends the
//! mutation stream, each ACK followed by a read-your-writes query.

use crate::client;
use crate::json::{self, J};
use crate::workload::{Batch, Entity, Query, WriteGen};
use precis_core::{AnswerCacheStats, PrecisEngine};
use std::collections::hash_map::DefaultHasher;
use std::hash::{Hash, Hasher};
use std::net::SocketAddr;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Barrier, Mutex};
use std::time::{Duration, Instant};

/// One reading client's answered (or failed) query.
#[derive(Debug, Clone, Copy)]
pub struct Sample {
    pub id: u32,
    /// The slice of the phase the request was sent in.
    pub slice: u32,
    /// HTTP status; 0 for a transport failure.
    pub status: u16,
    pub ns: u64,
    pub hash: u64,
}

/// What a read-your-writes query must show, and what it got.
pub struct VerifyRecord {
    pub tokens: Vec<String>,
    pub gone: Vec<String>,
    pub live: Vec<Entity>,
    pub status: u16,
    pub body: String,
}

#[derive(Default)]
pub struct PhaseOut {
    pub reads: Vec<Sample>,
    /// Mutate latencies (ns) of ACKed batches.
    pub mutate_ns: Vec<u64>,
    pub mutate_attempted: u64,
    pub mutate_failed: u64,
    pub verifies: Vec<VerifyRecord>,
    /// ACKs whose content disagreed with the model.
    pub ack_errors: Vec<String>,
    pub wall: Duration,
    pub rounds: usize,
    /// Wall time of each slice, seconds. A slice is one round of a read
    /// phase, or `SLICE_BATCHES` mutate batches of a write phase.
    pub slices: Vec<f64>,
    /// Host CPU steal share during each slice.
    pub slice_steal: Vec<f64>,
    /// Answer-cache counters of every engine the mutation stream retired.
    pub retired_cache: AnswerCacheStats,
}

pub fn body_hash(body: &[u8]) -> u64 {
    let mut h = DefaultHasher::new();
    body.hash(&mut h);
    h.finish()
}

/// `/proc/stat` CPU ticks of the whole host: (steal, total).
pub fn cpu_ticks() -> Option<(u64, u64)> {
    let stat = std::fs::read_to_string("/proc/stat").ok()?;
    let line = stat.lines().next()?;
    let v: Vec<u64> = line
        .split_whitespace()
        .skip(1)
        .take(8)
        .filter_map(|x| x.parse().ok())
        .collect();
    (v.len() == 8).then(|| (v[7], v.iter().sum()))
}

/// Mutate batches per slice of a write phase.
const SLICE_BATCHES: usize = 10;

fn read_once(addr: SocketAddr, queries: &[Query], id: u32, slice: u32, out: &mut Vec<Sample>) {
    let q = &queries[id as usize];
    let s = match client::send(addr, "POST", "/v1/query", q.body.as_bytes()) {
        Ok(r) => Sample {
            id,
            slice,
            status: r.status,
            ns: r.latency.as_nanos() as u64,
            hash: body_hash(&r.body),
        },
        Err(_) => Sample {
            id,
            slice,
            status: 0,
            ns: 0,
            hash: 0,
        },
    };
    out.push(s);
}

/// Send one batch and its read-your-writes query.
fn write_once(addr: SocketAddr, batch: &Batch, out: &mut PhaseOut) {
    out.mutate_attempted += 1;
    let reply = match client::send(addr, "POST", "/v1/mutate", batch.body.as_bytes()) {
        Ok(r) if r.status == 200 => r,
        Ok(r) => {
            out.mutate_failed += 1;
            out.ack_errors.push(format!(
                "mutate answered {}: {}",
                r.status,
                String::from_utf8_lossy(&r.body)
            ));
            return;
        }
        Err(e) => {
            out.mutate_failed += 1;
            out.ack_errors.push(format!("mutate failed: {e}"));
            return;
        }
    };
    out.mutate_ns.push(reply.latency.as_nanos() as u64);
    match json::parse(&String::from_utf8_lossy(&reply.body)) {
        Ok(ack) => {
            let tids: Vec<u64> = ack
                .get("inserted_tids")
                .map(|t| {
                    t.arr()
                        .iter()
                        .filter_map(|v| match v {
                            J::Int(i) => Some(*i as u64),
                            _ => None,
                        })
                        .collect()
                })
                .unwrap_or_default();
            let applied = ack.get("applied").cloned();
            let checkpointed = ack.get("checkpointed").cloned();
            if tids != batch.inserted_tids
                || applied != Some(J::Int(batch.ops.len() as i64))
                || checkpointed != Some(J::Bool(batch.checkpoint))
            {
                out.ack_errors.push(format!(
                    "ACK {} disagrees with the model (tids {:?}, checkpoint {})",
                    String::from_utf8_lossy(&reply.body).trim(),
                    batch.inserted_tids,
                    batch.checkpoint
                ));
            }
        }
        Err(e) => out.ack_errors.push(format!("unparseable ACK: {e}")),
    }
    let (status, body) = match client::send(addr, "POST", "/v1/query", batch.verify.body.as_bytes())
    {
        Ok(r) => (r.status, String::from_utf8_lossy(&r.body).into_owned()),
        Err(e) => (0, e),
    };
    out.verifies.push(VerifyRecord {
        tokens: batch.verify.tokens.clone(),
        gone: batch.gone.clone(),
        live: batch.live.clone(),
        status,
        body,
    });
}

/// The mutation side of a phase: the stream's batches and, in the traced
/// run only, a way to read the engine the server currently publishes, to
/// collect the cache counters of each engine a batch retires. Holding that
/// engine moves its release from the server's write path to this client,
/// so the timed run passes `None`.
pub struct Writer<'a> {
    pub gen: &'a mut WriteGen,
    pub batches_per_round: usize,
    pub engine_now: Option<&'a (dyn Fn() -> Arc<PrecisEngine> + Sync)>,
}

fn add_stats(acc: &mut AnswerCacheStats, s: AnswerCacheStats) {
    acc.schema_hits += s.schema_hits;
    acc.schema_misses += s.schema_misses;
    acc.schema_evictions += s.schema_evictions;
    acc.token_hits += s.token_hits;
    acc.token_misses += s.token_misses;
    acc.token_evictions += s.token_evictions;
}

/// Run whole rounds: with `seconds`, until a round ends past that many
/// seconds; without, exactly one round. Without a writer each reading
/// client sends its list once per round; with one, readers cycle through
/// their lists until the writer's round of batches is done.
pub fn phase(
    addr: SocketAddr,
    queries: &[Query],
    lists: &[Vec<u32>],
    writer: Option<Writer<'_>>,
    seconds: Option<f64>,
) -> PhaseOut {
    let readers = lists.len();
    let threads = readers + usize::from(writer.is_some());
    let barrier = Barrier::new(threads);
    let stop = AtomicBool::new(false);
    let rounds_done = AtomicUsize::new(0);
    let slice = AtomicUsize::new(0);
    let slice_ends = Mutex::new(Vec::new());
    let start = Instant::now();
    let has_writer = writer.is_some();
    let end_slice = || {
        slice_ends
            .lock()
            .expect("slice log")
            .push((Instant::now(), cpu_ticks()));
        slice.fetch_add(1, Ordering::SeqCst);
    };
    let first_ticks = cpu_ticks();
    // Called by every thread at the end of a round; returns whether to stop.
    let end_round = || -> bool {
        if barrier.wait().is_leader() {
            if !has_writer {
                end_slice();
            }
            rounds_done.fetch_add(1, Ordering::SeqCst);
            let more = seconds.is_some_and(|s| start.elapsed().as_secs_f64() < s);
            stop.store(!more, Ordering::SeqCst);
        }
        barrier.wait();
        stop.load(Ordering::SeqCst)
    };
    let writer_done = AtomicUsize::new(0);
    let mut out = PhaseOut::default();
    std::thread::scope(|s| {
        let mut handles = Vec::new();
        for list in lists {
            let end_round = &end_round;
            let writer_done = &writer_done;
            let slice = &slice;
            handles.push(s.spawn(move || {
                let mut samples = Vec::new();
                let mut pos = 0usize;
                let mut round = 0usize;
                loop {
                    if has_writer {
                        while writer_done.load(Ordering::SeqCst) == round {
                            let at = slice.load(Ordering::SeqCst) as u32;
                            read_once(addr, queries, list[pos % list.len()], at, &mut samples);
                            pos += 1;
                        }
                    } else {
                        let at = slice.load(Ordering::SeqCst) as u32;
                        for &id in list {
                            read_once(addr, queries, id, at, &mut samples);
                        }
                    }
                    round += 1;
                    if end_round() {
                        break;
                    }
                }
                samples
            }));
        }
        let writer_handle = writer.map(|w| {
            let end_round = &end_round;
            let writer_done = &writer_done;
            let end_slice = &end_slice;
            s.spawn(move || {
                let mut wout = PhaseOut::default();
                let mut engine = w.engine_now.map(|f| f());
                loop {
                    for i in 0..w.batches_per_round {
                        let batch = w.gen.next_batch();
                        write_once(addr, &batch, &mut wout);
                        if let (Some(e), Some(now)) = (&engine, w.engine_now) {
                            add_stats(&mut wout.retired_cache, e.cache_stats());
                            engine = Some(now());
                        }
                        if (i + 1) % SLICE_BATCHES == 0 || i + 1 == w.batches_per_round {
                            end_slice();
                        }
                    }
                    writer_done.fetch_add(1, Ordering::SeqCst);
                    if end_round() {
                        break;
                    }
                }
                if let Some(e) = &engine {
                    add_stats(&mut wout.retired_cache, e.cache_stats());
                }
                wout
            })
        });
        for h in handles {
            out.reads.extend(h.join().expect("reading client panicked"));
        }
        if let Some(h) = writer_handle {
            let w = h.join().expect("writing client panicked");
            out.mutate_ns = w.mutate_ns;
            out.mutate_attempted = w.mutate_attempted;
            out.mutate_failed = w.mutate_failed;
            out.verifies = w.verifies;
            out.ack_errors = w.ack_errors;
            out.retired_cache = w.retired_cache;
        }
    });
    out.wall = start.elapsed();
    out.rounds = rounds_done.load(Ordering::SeqCst);
    let mut prev = (start, first_ticks);
    for end in slice_ends.into_inner().expect("slice log") {
        out.slices.push((end.0 - prev.0).as_secs_f64());
        out.slice_steal.push(match (prev.1, end.1) {
            (Some((s0, t0)), Some((s1, t1))) if t1 > t0 => (s1 - s0) as f64 / (t1 - t0) as f64,
            _ => f64::NAN,
        });
        prev = end;
    }
    out
}

/// Nearest-rank percentile of unsorted samples.
pub fn percentile(values: &[f64], p: f64) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("no NaN samples"));
    let rank = ((p * v.len() as f64).ceil() as usize).clamp(1, v.len());
    v[rank - 1]
}

pub fn median(values: &[f64]) -> f64 {
    percentile(values, 0.5)
}
