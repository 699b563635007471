//! The three workloads' inputs, all made from `--seed` and the generated
//! dataset: query bodies, each client's per-round request list, and the
//! mutation stream with a model of the rows it owns.

use precis_datagen::Zipf;
use precis_storage::{Database, TupleId, Value, WalOp};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::{BTreeSet, VecDeque};

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    HotRead,
    LongtailRead,
    WriteMix,
}

impl Workload {
    pub fn parse(s: &str) -> Option<Workload> {
        match s {
            "hot_read" => Some(Workload::HotRead),
            "longtail_read" => Some(Workload::LongtailRead),
            "write_mix" => Some(Workload::WriteMix),
            _ => None,
        }
    }

    pub fn name(self) -> &'static str {
        match self {
            Workload::HotRead => "hot_read",
            Workload::LongtailRead => "longtail_read",
            Workload::WriteMix => "write_mix",
        }
    }
}

/// Requests per reading client in one round, and in the untimed warm-up.
pub const HOT_ROUND: usize = 1_000;
pub const HOT_WARMUP: usize = 300;
pub const LONGTAIL_ROUND: usize = 800;
pub const LONGTAIL_WARMUP: usize = 150;
/// Hot query bodies the Zipf draw picks from.
const HOT_BODIES: usize = 36;

/// Mutate batches per write_mix round: 100 batches of 100 operations, so a
/// round appends exactly one auto-checkpoint's worth (10,000) of records.
pub const WRITE_BATCHES_PER_ROUND: usize = 100;
/// Entities (one DIRECTOR and one MOVIE row each) inserted and deleted per
/// batch, MOVIE titles rewritten per batch, and live entities kept.
const WRITE_ENTITIES: usize = 20;
const WRITE_UPDATES: usize = 20;
const WRITE_WINDOW: usize = 1_000;
/// Batches that fill the window before serving starts; their records are
/// the WAL tail that write_mix's set-up recovers.
pub const WRITE_PREFILL_BATCHES: usize = WRITE_WINDOW / WRITE_ENTITIES;
/// The `precis serve` auto-checkpoint default.
pub const CHECKPOINT_EVERY: u64 = 10_000;
/// Single-entity batches sent after a read workload's timed phase, so every
/// workload reports a write latency.
pub const PROBE_WARMUP_BATCHES: usize = 10;
pub const PROBE_BATCHES: usize = 60;

const GENRE_WORDS: &[&str] = &[
    "comedy",
    "drama",
    "thriller",
    "romance",
    "action",
    "horror",
    "documentary",
    "animation",
    "crime",
    "western",
    "musical",
];
const CITY_WORDS: &[&str] = &[
    "brooklyn", "london", "paris", "athens", "rome", "berlin", "tokyo", "sydney", "toronto",
    "madrid",
];
const TITLE_WORDS: &[&str] = &[
    "silent", "crimson", "last", "hidden", "broken", "golden", "endless", "midnight", "lost",
    "burning", "distant", "frozen", "savage", "gentle", "electric", "point", "garden", "horizon",
    "scorpion", "ending", "whisper", "harbor", "mirror", "empire", "river", "shadow", "letter",
    "voyage", "crown", "paradox",
];

/// One distinct `/v1/query` body and the tokens the server will see.
#[derive(Debug, Clone)]
pub struct Query {
    pub tokens: Vec<String>,
    pub body: String,
}

/// What the reading clients send: distinct bodies plus, per client, the
/// body ids of one round and of the warm-up.
pub struct ReadPlan {
    pub queries: Vec<Query>,
    pub round: Vec<Vec<u32>>,
    pub warmup: Vec<Vec<u32>>,
}

fn quoted(token: &str) -> String {
    let mut s = String::new();
    crate::json::write_str(&mut s, token);
    s
}

fn constraints(rng: &mut StdRng, degrees: &[String], cards: &[&str]) -> String {
    let strategy = match rng.gen_range(0..4) {
        0 => "naive",
        1 => "topweight",
        _ => "roundrobin",
    };
    format!(
        "\"degree\": {}, \"cardinality\": {}, \"strategy\": \"{strategy}\"",
        degrees[rng.gen_range(0..degrees.len())],
        cards[rng.gen_range(0..cards.len())]
    )
}

/// hot_read: a few dozen bodies over popular words, drawn with Zipf skew.
/// The bodies and their popularity ranks are the same for every seed, so
/// every run sends the same mix; the seed orders the draws.
pub fn hot_plan(seed: u64, clients: usize) -> ReadPlan {
    let mut rng = StdRng::seed_from_u64(0x686f74);
    let degrees: Vec<String> = [
        "{\"minweight\": 0.9}",
        "{\"minweight\": 0.7}",
        "{\"top\": 3}",
        "{\"top\": 5}",
    ]
    .iter()
    .map(|s| s.to_string())
    .collect();
    let cards = [
        "{\"perrel\": 3}",
        "{\"perrel\": 5}",
        "{\"perrel\": 10}",
        "{\"total\": 20}",
        "{\"total\": 40}",
    ];
    let pools = [GENRE_WORDS, CITY_WORDS, TITLE_WORDS];
    let mut queries: Vec<Query> = Vec::with_capacity(HOT_BODIES);
    let mut seen = BTreeSet::new();
    while queries.len() < HOT_BODIES {
        let first = pools[rng.gen_range(0..3usize)];
        let mut tokens = vec![first[rng.gen_range(0..first.len())].to_owned()];
        if rng.gen_range(0..10) < 3 {
            let second = pools[rng.gen_range(0..3usize)];
            let w = second[rng.gen_range(0..second.len())];
            if !tokens.iter().any(|t| t == w) {
                tokens.push(w.to_owned());
            }
        }
        // Half the bodies use the free-form string form, half the array.
        let tokens_json = if rng.gen_range(0..2) == 0 {
            quoted(&tokens.join(" "))
        } else {
            let parts: Vec<String> = tokens.iter().map(|t| quoted(t)).collect();
            format!("[{}]", parts.join(", "))
        };
        let body = format!(
            "{{\"tokens\": {tokens_json}, {}}}",
            constraints(&mut rng, &degrees, &cards)
        );
        if seen.insert(body.clone()) {
            queries.push(Query { tokens, body });
        }
    }
    let mut rng = StdRng::seed_from_u64(seed ^ 0x686f74);
    let zipf = Zipf::new(HOT_BODIES, 1.0);
    let draw = |rng: &mut StdRng, n: usize| -> Vec<u32> {
        (0..n).map(|_| (zipf.sample(rng) - 1) as u32).collect()
    };
    let round = (0..clients).map(|_| draw(&mut rng, HOT_ROUND)).collect();
    let warmup = (0..clients).map(|_| draw(&mut rng, HOT_WARMUP)).collect();
    ReadPlan {
        queries,
        round,
        warmup,
    }
}

/// The long-tail value pools, read from the generated dataset: person
/// names (quoted phrases), title numbers and cast-role words.
pub struct TailPools {
    names: Vec<String>,
    numbers: Vec<String>,
    roles: Vec<String>,
}

impl TailPools {
    pub fn from_db(db: &Database) -> TailPools {
        let text_values = |rel: &str, attr: usize| -> BTreeSet<String> {
            let id = db.schema().relation_id(rel).expect("movies relation");
            db.table(id)
                .iter()
                .filter_map(|(_, t)| match t.value(attr) {
                    Value::Text(s) => Some(s),
                    _ => None,
                })
                .collect()
        };
        let mut names = text_values("DIRECTOR", 1);
        names.extend(text_values("ACTOR", 1));
        let numbers = text_values("MOVIE", 1)
            .into_iter()
            .filter_map(|t| t.rsplit(' ').next().map(str::to_owned))
            .filter(|w| w.chars().all(|c| c.is_ascii_digit()))
            .collect::<BTreeSet<_>>();
        let roles = text_values("CAST", 3);
        TailPools {
            names: names.into_iter().collect(),
            numbers: numbers.into_iter().collect(),
            roles: roles.into_iter().collect(),
        }
    }

    pub fn sizes(&self) -> (usize, usize, usize) {
        (self.names.len(), self.numbers.len(), self.roles.len())
    }
}

/// longtail_read: one entity per query, drawn uniformly from tens of
/// thousands of values, under a degree set wide enough that result-schema
/// keys far outnumber the schema cache.
pub fn longtail_plan(seed: u64, clients: usize, pools: &TailPools) -> ReadPlan {
    let mut rng = StdRng::seed_from_u64(seed ^ 0x7461696c);
    let mut degrees: Vec<String> = (30..100)
        .map(|w| format!("{{\"minweight\": 0.{w:02}}}"))
        .collect();
    degrees.extend((1..=20).map(|r| format!("{{\"top\": {r}}}")));
    // One in four requests takes a per-relation constraint (the kind that
    // engages parallel joins). With half of them, the run's median sat on
    // the boundary between the two latency populations and jumped between
    // them from run to run.
    let cards = [
        "{\"perrel\": 5}",
        "{\"total\": 10}",
        "{\"total\": 20}",
        "{\"total\": 30}",
    ];
    let mut queries = Vec::new();
    let mut one = |rng: &mut StdRng| -> u32 {
        let (token, tokens_json) = match rng.gen_range(0..3) {
            0 => {
                let name = &pools.names[rng.gen_range(0..pools.names.len())];
                (name.clone(), quoted(&format!("\"{name}\"")))
            }
            1 => {
                let n = &pools.numbers[rng.gen_range(0..pools.numbers.len())];
                (n.clone(), quoted(n))
            }
            _ => {
                let r = &pools.roles[rng.gen_range(0..pools.roles.len())];
                (r.clone(), format!("[{}]", quoted(r)))
            }
        };
        let body = format!(
            "{{\"tokens\": {tokens_json}, {}}}",
            constraints(rng, &degrees, &cards)
        );
        queries.push(Query {
            tokens: vec![token],
            body,
        });
        (queries.len() - 1) as u32
    };
    let round = (0..clients)
        .map(|_| (0..LONGTAIL_ROUND).map(|_| one(&mut rng)).collect())
        .collect();
    let warmup = (0..clients)
        .map(|_| (0..LONGTAIL_WARMUP).map(|_| one(&mut rng)).collect())
        .collect();
    ReadPlan {
        queries,
        round,
        warmup,
    }
}

/// One benchmark-owned movie: a DIRECTOR row and a MOVIE row that only
/// reference each other, every text value a token found nowhere else, so
/// no other workload query can reach them.
#[derive(Debug, Clone)]
pub struct Entity {
    pub n: u64,
    pub dtid: u64,
    pub mtid: u64,
    pub version: u32,
}

impl Entity {
    pub fn did(&self) -> i64 {
        1_000_000 + self.n as i64
    }

    pub fn dtoken(&self) -> String {
        format!("Wd{}", self.n)
    }

    pub fn mtoken(&self) -> String {
        format!("Wm{}v{}", self.n, self.version)
    }

    pub fn director_row(&self) -> Vec<Value> {
        vec![
            Value::Int(self.did()),
            Value::Text(format!("{} Wf{}", self.dtoken(), self.n)),
            Value::Text(format!("Wl{}", self.n)),
            Value::Text(format!("Wb{}", self.n)),
        ]
    }

    pub fn movie_row(&self) -> Vec<Value> {
        vec![
            Value::Int(self.did()),
            Value::Text(self.mtoken()),
            Value::Int(2000),
            Value::Int(self.did()),
        ]
    }
}

#[derive(Debug, Clone)]
pub enum Op {
    Insert(&'static str, Vec<Value>),
    Update(&'static str, u64, Vec<Value>),
    Delete(&'static str, u64),
}

/// One `/v1/mutate` batch with everything needed to check its effect.
pub struct Batch {
    pub ops: Vec<Op>,
    pub body: String,
    /// The tids the ACK must report for the batch's inserts, in order.
    pub inserted_tids: Vec<u64>,
    /// Whether the ACK must report an auto-checkpoint.
    pub checkpoint: bool,
    /// Entities inserted or rewritten by this batch (their current rows).
    pub live: Vec<Entity>,
    /// Tokens this batch removed from the database.
    pub gone: Vec<String>,
    /// The read-your-writes query sent after the ACK.
    pub verify: Query,
}

impl Batch {
    pub fn wal_ops(&self) -> Vec<WalOp> {
        let mut inserted = self.inserted_tids.iter();
        self.ops
            .iter()
            .map(|op| match op {
                Op::Insert(rel, values) => WalOp::Insert {
                    relation: rel.to_string(),
                    tid: TupleId(*inserted.next().expect("one tid per insert")),
                    values: values.clone(),
                },
                Op::Update(rel, tid, values) => WalOp::Update {
                    relation: rel.to_string(),
                    tid: TupleId(*tid),
                    values: values.clone(),
                },
                Op::Delete(rel, tid) => WalOp::Delete {
                    relation: rel.to_string(),
                    tid: TupleId(*tid),
                },
            })
            .collect()
    }

    /// Apply the batch straight to a database (set-up preparation only).
    pub fn apply_to(&self, db: &mut Database) {
        for op in &self.ops {
            let r = match op {
                Op::Insert(rel, values) => db.insert(rel, values.clone()).map(|_| ()),
                Op::Update(rel, tid, values) => {
                    let id = db.schema().relation_id(rel).expect("movies relation");
                    db.update(id, TupleId(*tid), values.clone())
                }
                Op::Delete(rel, tid) => {
                    let id = db.schema().relation_id(rel).expect("movies relation");
                    db.delete(id, TupleId(*tid))
                }
            };
            r.expect("prefill batch applies");
        }
    }
}

/// The mutation stream: a sliding window of benchmark-owned entities. Each
/// batch inserts `entities` new ones, rewrites `updates` MOVIE titles and,
/// once the window is full, deletes the `entities` oldest, so every table
/// keeps its size from batch to batch. It also models the tids the server
/// assigns: inserts append, and a checkpoint renumbers live rows densely.
pub struct WriteGen {
    rng: StdRng,
    entities: usize,
    updates: usize,
    window_cap: usize,
    window: VecDeque<Entity>,
    next_n: u64,
    base: (u64, u64),
    slots: (u64, u64),
    since_checkpoint: u64,
    checkpoint_every: Option<u64>,
}

impl WriteGen {
    /// The write_mix stream over a database holding `base` (DIRECTOR,
    /// MOVIE) rows.
    pub fn write_mix(seed: u64, base: (u64, u64)) -> WriteGen {
        WriteGen::new(seed, base, WRITE_ENTITIES, WRITE_UPDATES, WRITE_WINDOW)
    }

    /// The read workloads' write probe: one entity in, one out.
    pub fn probe(seed: u64, base: (u64, u64)) -> WriteGen {
        WriteGen::new(seed, base, 1, 0, 1)
    }

    fn new(seed: u64, base: (u64, u64), entities: usize, updates: usize, cap: usize) -> WriteGen {
        WriteGen {
            rng: StdRng::seed_from_u64(seed ^ 0x7772),
            entities,
            updates,
            window_cap: cap,
            window: VecDeque::new(),
            next_n: 0,
            base,
            slots: base,
            since_checkpoint: 0,
            checkpoint_every: None,
        }
    }

    /// Start counting records toward auto-checkpoints, as a freshly
    /// started durable server does.
    pub fn arm_checkpoints(&mut self, every: u64) {
        self.checkpoint_every = Some(every);
        self.since_checkpoint = 0;
    }

    pub fn next_batch(&mut self) -> Batch {
        let mut ops = Vec::new();
        let mut inserted_tids = Vec::new();
        let mut live = Vec::new();
        let mut gone = Vec::new();
        for _ in 0..self.entities {
            let e = Entity {
                n: self.next_n,
                dtid: self.slots.0,
                mtid: self.slots.1,
                version: 0,
            };
            self.next_n += 1;
            self.slots.0 += 1;
            self.slots.1 += 1;
            ops.push(Op::Insert("DIRECTOR", e.director_row()));
            ops.push(Op::Insert("MOVIE", e.movie_row()));
            inserted_tids.push(e.dtid);
            inserted_tids.push(e.mtid);
            live.push(e.clone());
            self.window.push_back(e);
        }
        let doomed = self.window.len().saturating_sub(self.window_cap);
        let fresh = self.entities.min(self.window.len());
        let survivors: Vec<usize> = (doomed..self.window.len() - fresh).collect();
        let mut picks = survivors.clone();
        for i in 0..picks.len() {
            let j = self.rng.gen_range(i..picks.len());
            picks.swap(i, j);
        }
        picks.truncate(self.updates);
        for idx in picks {
            let e = &mut self.window[idx];
            gone.push(e.mtoken());
            e.version += 1;
            ops.push(Op::Update("MOVIE", e.mtid, e.movie_row()));
            live.push(e.clone());
        }
        for _ in 0..doomed {
            let e = self.window.pop_front().expect("doomed entity");
            ops.push(Op::Delete("MOVIE", e.mtid));
            ops.push(Op::Delete("DIRECTOR", e.dtid));
            gone.push(e.dtoken());
            gone.push(e.mtoken());
        }
        let mut checkpoint = false;
        if let Some(every) = self.checkpoint_every {
            self.since_checkpoint += ops.len() as u64;
            if self.since_checkpoint >= every {
                checkpoint = true;
                self.since_checkpoint = 0;
                self.compact();
            }
        }
        let body = mutate_body(&ops);
        let mut tokens: Vec<String> = Vec::new();
        for e in &live {
            tokens.push(e.dtoken());
            tokens.push(e.mtoken());
        }
        tokens.extend(gone.iter().cloned());
        let parts: Vec<String> = tokens.iter().map(|t| quoted(t)).collect();
        let verify = Query {
            body: format!(
                "{{\"tokens\": [{}], \"degree\": {{\"minweight\": 0.5}}, \
                 \"cardinality\": \"unbounded\", \"coalesce\": false}}",
                parts.join(", ")
            ),
            tokens,
        };
        Batch {
            ops,
            body,
            inserted_tids,
            checkpoint,
            live,
            gone,
            verify,
        }
    }

    /// A checkpoint reloads a dump without tombstones: base rows keep
    /// their tids and the window's rows follow them in tid order.
    fn compact(&mut self) {
        let mut order: Vec<usize> = (0..self.window.len()).collect();
        order.sort_by_key(|&i| self.window[i].dtid);
        for (rank, &i) in order.iter().enumerate() {
            self.window[i].dtid = self.base.0 + rank as u64;
        }
        order.sort_by_key(|&i| self.window[i].mtid);
        for (rank, &i) in order.iter().enumerate() {
            self.window[i].mtid = self.base.1 + rank as u64;
        }
        let live = self.window.len() as u64;
        self.slots = (self.base.0 + live, self.base.1 + live);
    }
}

fn mutate_body(ops: &[Op]) -> String {
    let mut out = String::from("{\"ops\": [");
    for (i, op) in ops.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        match op {
            Op::Insert(rel, values) => {
                out.push_str(&format!(
                    "{{\"op\": \"insert\", \"relation\": \"{rel}\", \"values\": "
                ));
                write_values(&mut out, values);
                out.push('}');
            }
            Op::Update(rel, tid, values) => {
                out.push_str(&format!(
                    "{{\"op\": \"update\", \"relation\": \"{rel}\", \"tid\": {tid}, \"values\": "
                ));
                write_values(&mut out, values);
                out.push('}');
            }
            Op::Delete(rel, tid) => out.push_str(&format!(
                "{{\"op\": \"delete\", \"relation\": \"{rel}\", \"tid\": {tid}}}"
            )),
        }
    }
    out.push_str("]}");
    out
}

fn write_values(out: &mut String, values: &[Value]) {
    out.push('[');
    for (i, v) in values.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        match v {
            Value::Int(n) => out.push_str(&n.to_string()),
            Value::Text(s) => crate::json::write_str(out, s),
            Value::Null => out.push_str("null"),
            other => out.push_str(&other.to_string()),
        }
    }
    out.push(']');
}
