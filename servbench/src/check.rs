//! Output checks made apart from the program: a brute-force token scan of
//! the base tables, the sub-database and foreign-key closure checks, and
//! the model of the rows the write stream owns.

use crate::json::{self, J};
use crate::workload::Entity;
use precis_storage::{Database, Value};
use std::collections::{HashMap, HashSet};

/// Phrases up to this many words are looked up in the n-gram set; longer
/// ones fall back to a scan of every text value.
const MAX_NGRAM: usize = 3;

/// The documented tokenizer rule, restated: case-folded alphanumeric runs.
pub fn words(text: &str) -> Vec<String> {
    let mut out = Vec::new();
    let mut cur = String::new();
    for ch in text.chars() {
        if ch.is_alphanumeric() {
            cur.extend(ch.to_lowercase());
        } else if !cur.is_empty() {
            out.push(std::mem::take(&mut cur));
        }
    }
    if !cur.is_empty() {
        out.push(cur);
    }
    out
}

#[derive(Debug, Clone, PartialEq)]
enum V {
    Null,
    Int(i64),
    Float(f64),
    Text(String),
    Bool(bool),
}

impl V {
    fn of(v: &Value) -> V {
        match v {
            Value::Null => V::Null,
            Value::Int(i) => V::Int(*i),
            Value::Float(f) => V::Float(*f),
            Value::Text(s) => V::Text(s.clone()),
            Value::Bool(b) => V::Bool(*b),
        }
    }

    fn of_json(j: &J) -> Option<V> {
        Some(match j {
            J::Null => V::Null,
            J::Int(i) => V::Int(*i),
            J::Float(f) => V::Float(*f),
            J::Str(s) => V::Text(s.clone()),
            J::Bool(b) => V::Bool(*b),
            _ => return None,
        })
    }

    fn key(&self) -> String {
        match self {
            V::Null => "null".to_owned(),
            V::Int(i) => format!("i{i}"),
            V::Float(f) => format!("f{f}"),
            V::Text(s) => format!("t{s}"),
            V::Bool(b) => format!("b{b}"),
        }
    }
}

struct Rel {
    attrs: Vec<String>,
    pk: usize,
    rows: HashMap<String, Vec<V>>,
}

/// The base tables as the benchmark sees them, independent of the
/// program's index and answer path.
pub struct Oracle {
    rels: HashMap<String, Rel>,
    ngrams: HashSet<String>,
    texts: Vec<Vec<String>>,
    fks: Vec<(String, String, String, String)>,
}

impl Oracle {
    pub fn new(db: &Database) -> Oracle {
        let mut rels = HashMap::new();
        let mut ngrams = HashSet::new();
        let mut texts = Vec::new();
        for (id, schema) in db.schema().relations() {
            let pk = schema.primary_key().expect("movies relations have keys");
            let mut rows = HashMap::with_capacity(db.len(id));
            for (_, t) in db.table(id).iter() {
                let row: Vec<V> = t.values().iter().map(V::of).collect();
                for v in &row {
                    if let V::Text(s) = v {
                        let w = words(s);
                        for n in 1..=MAX_NGRAM.min(w.len()) {
                            for g in w.windows(n) {
                                ngrams.insert(g.join(" "));
                            }
                        }
                        if w.len() > MAX_NGRAM {
                            texts.push(w);
                        }
                    }
                }
                rows.insert(row[pk].key(), row);
            }
            rels.insert(
                schema.name().to_owned(),
                Rel {
                    attrs: schema.attributes().iter().map(|a| a.name.clone()).collect(),
                    pk,
                    rows,
                },
            );
        }
        let fks = db
            .schema()
            .foreign_keys()
            .iter()
            .map(|f| {
                (
                    f.relation.clone(),
                    f.attribute.clone(),
                    f.ref_relation.clone(),
                    f.ref_attribute.clone(),
                )
            })
            .collect();
        Oracle {
            rels,
            ngrams,
            texts,
            fks,
        }
    }

    /// Whether any base text value holds the token's words contiguously.
    pub fn found(&self, token: &str) -> bool {
        let w = words(token);
        if w.is_empty() {
            return false;
        }
        if w.len() <= MAX_NGRAM {
            return self.ngrams.contains(&w.join(" "));
        }
        self.texts
            .iter()
            .any(|t| t.windows(w.len()).any(|g| g == w))
    }

    fn row(&self, rel: &str, key: &str) -> Option<&Vec<V>> {
        self.rels.get(rel).and_then(|r| r.rows.get(key))
    }
}

/// Rows the write stream owns that an answer may legitimately return,
/// keyed by relation and primary key.
#[derive(Default)]
pub struct Owned {
    rows: HashMap<(&'static str, String), Vec<V>>,
}

impl Owned {
    pub fn of(entities: &[Entity]) -> Owned {
        let mut rows = HashMap::new();
        for e in entities {
            let key = V::Int(e.did()).key();
            let dir = e.director_row().iter().map(V::of).collect();
            let movie = e.movie_row().iter().map(V::of).collect();
            rows.insert(("DIRECTOR", key.clone()), dir);
            rows.insert(("MOVIE", key), movie);
        }
        Owned { rows }
    }

    fn row(&self, rel: &str, key: &str) -> Option<Vec<V>> {
        let rel: &'static str = match rel {
            "DIRECTOR" => "DIRECTOR",
            "MOVIE" => "MOVIE",
            _ => return None,
        };
        self.rows.get(&(rel, key.to_owned())).cloned()
    }
}

/// Check one `/v1/query` answer body. `expect_unmatched` is the exact list
/// of tokens (in request order) that must come back unmatched; `owned`
/// supplies the write stream's live rows. Returns every violation found.
pub fn check_answer(
    oracle: &Oracle,
    body: &str,
    tokens: &[String],
    expect_unmatched: &[String],
    owned: &Owned,
) -> Vec<String> {
    let mut errs = Vec::new();
    let doc = match json::parse(body) {
        Ok(d) => d,
        Err(e) => return vec![format!("unparseable body: {e}")],
    };
    let got_tokens: Vec<&str> = doc
        .get("tokens")
        .map(|t| t.arr().iter().filter_map(J::str).collect())
        .unwrap_or_default();
    if got_tokens != tokens.iter().map(String::as_str).collect::<Vec<_>>() {
        errs.push(format!("tokens {got_tokens:?} != sent {tokens:?}"));
    }
    let unmatched: Vec<&str> = doc
        .get("unmatched")
        .map(|t| t.arr().iter().filter_map(J::str).collect())
        .unwrap_or_default();
    if unmatched
        != expect_unmatched
            .iter()
            .map(String::as_str)
            .collect::<Vec<_>>()
    {
        errs.push(format!(
            "unmatched {unmatched:?} != scan says {expect_unmatched:?}"
        ));
    }
    let Some(J::Obj(database)) = doc.get("database") else {
        errs.push("no database object".to_owned());
        return errs;
    };
    // relation → (attribute names, tuples)
    let mut present: HashMap<&str, (Vec<&str>, Vec<Vec<V>>)> = HashMap::new();
    for (rel, content) in database {
        let attrs: Vec<&str> = content
            .get("attributes")
            .map(|a| a.arr().iter().filter_map(J::str).collect())
            .unwrap_or_default();
        let tuples: Vec<Vec<V>> = content
            .get("tuples")
            .map(|t| {
                t.arr()
                    .iter()
                    .map(|row| row.arr().iter().filter_map(V::of_json).collect())
                    .collect()
            })
            .unwrap_or_default();
        let Some(base) = oracle.rels.get(rel.as_str()) else {
            errs.push(format!("unknown relation {rel}"));
            continue;
        };
        let positions: Vec<Option<usize>> = attrs
            .iter()
            .map(|a| base.attrs.iter().position(|b| b == a))
            .collect();
        let Some(pk_at) = attrs.iter().position(|a| *a == base.attrs[base.pk]) else {
            errs.push(format!("{rel}: primary key not in the answer"));
            continue;
        };
        for t in &tuples {
            if t.len() != attrs.len() {
                errs.push(format!("{rel}: tuple arity {} != {}", t.len(), attrs.len()));
                continue;
            }
            let key = t[pk_at].key();
            let base_row = oracle
                .row(rel, &key)
                .cloned()
                .or_else(|| owned.row(rel, &key));
            let Some(base_row) = base_row else {
                errs.push(format!("{rel}: tuple with key {key} is not a base tuple"));
                continue;
            };
            for (v, pos) in t.iter().zip(&positions) {
                match pos {
                    Some(p) if base_row[*p] == *v => {}
                    _ => {
                        errs.push(format!("{rel}: tuple {t:?} differs from base {base_row:?}"));
                        break;
                    }
                }
            }
        }
        present.insert(rel.as_str(), (attrs, tuples));
    }
    for (from, from_attr, to, to_attr) in &oracle.fks {
        let (Some((fa, ft)), Some((ta, tt))) =
            (present.get(from.as_str()), present.get(to.as_str()))
        else {
            continue;
        };
        let (Some(fi), Some(ti)) = (
            fa.iter().position(|a| a == from_attr),
            ta.iter().position(|a| a == to_attr),
        ) else {
            continue;
        };
        let targets: HashSet<String> = tt.iter().map(|t| t[ti].key()).collect();
        for t in ft {
            if t[fi] != V::Null && !targets.contains(&t[fi].key()) {
                errs.push(format!(
                    "{from}.{from_attr} = {:?} has no {to}.{to_attr} in the answer",
                    t[fi]
                ));
            }
        }
    }
    errs
}

/// The tokens of `tokens` the brute-force scan finds nowhere.
pub fn scan_unmatched(oracle: &Oracle, tokens: &[String]) -> Vec<String> {
    tokens
        .iter()
        .filter(|t| !oracle.found(t))
        .cloned()
        .collect()
}

/// Check that a read-your-writes answer returns every row the batch
/// inserted or rewrote, exactly as the model holds it.
pub fn check_live(live: &[Entity], body: &str) -> Vec<String> {
    let Ok(doc) = json::parse(body) else {
        return vec!["unparseable read-your-writes answer".to_owned()];
    };
    let mut errs = Vec::new();
    for e in live {
        for (rel, row) in [("DIRECTOR", e.director_row()), ("MOVIE", e.movie_row())] {
            let want: Vec<V> = row.iter().map(V::of).collect();
            let found = doc
                .get("database")
                .and_then(|d| d.get(rel))
                .and_then(|r| r.get("tuples"))
                .is_some_and(|ts| {
                    ts.arr().iter().any(|t| {
                        let got: Vec<V> = t.arr().iter().filter_map(V::of_json).collect();
                        got == want
                    })
                });
            if !found {
                errs.push(format!("{rel} row of entity {} missing after its ACK", e.n));
            }
        }
    }
    errs
}

/// Feed the checks corrupted copies of a real answer and confirm each one
/// is caught. Returns a description of every corruption that slipped by.
pub fn self_test(oracle: &Oracle, body: &str, tokens: &[String]) -> Vec<String> {
    let owned = Owned::default();
    let expect = scan_unmatched(oracle, tokens);
    let mut missed = Vec::new();
    if !check_answer(oracle, body, tokens, &expect, &owned).is_empty() {
        missed.push("the uncorrupted answer does not pass".to_owned());
        return missed;
    }
    let Ok(J::Obj(doc)) = json::parse(body) else {
        missed.push("the uncorrupted answer does not parse".to_owned());
        return missed;
    };
    let render = |doc: &std::collections::BTreeMap<String, J>| to_text(&J::Obj(doc.clone()));

    // 1. Drop a referenced parent tuple: the FK closure check must fire.
    let mut dropped = false;
    for (from, from_attr, to, to_attr) in &oracle.fks {
        let mut d = doc.clone();
        let Some(J::Obj(db)) = d.get_mut("database") else {
            break;
        };
        let (Some(f), Some(t)) = (db.get(from), db.get(to)) else {
            continue;
        };
        let fa = f
            .get("attributes")
            .map(|a| a.arr().to_vec())
            .unwrap_or_default();
        let ta = t
            .get("attributes")
            .map(|a| a.arr().to_vec())
            .unwrap_or_default();
        let (Some(fi), Some(ti)) = (
            fa.iter().position(|a| a.str() == Some(from_attr)),
            ta.iter().position(|a| a.str() == Some(to_attr)),
        ) else {
            continue;
        };
        let Some(child) = f.get("tuples").and_then(|ts| ts.arr().first()).cloned() else {
            continue;
        };
        let target = child.arr()[fi].clone();
        if let Some(J::Obj(tobj)) = db.get_mut(to) {
            if let Some(J::Arr(ts)) = tobj.get_mut("tuples") {
                ts.retain(|row| row.arr()[ti] != target);
            }
        }
        if check_answer(oracle, &render(&d), tokens, &expect, &owned).is_empty() {
            missed.push(format!("dropped {to} parent of {from} went unnoticed"));
        }
        dropped = true;
        break;
    }
    if !dropped {
        missed.push("self-test answer holds no foreign key to break".to_owned());
    }

    // 2. Alter one text value: the base-tuple check must fire.
    let mut altered = false;
    let mut d = doc.clone();
    if let Some(J::Obj(db)) = d.get_mut("database") {
        'outer: for rel in db.values_mut() {
            if let J::Obj(r) = rel {
                if let Some(J::Arr(ts)) = r.get_mut("tuples") {
                    for row in ts.iter_mut() {
                        if let J::Arr(vals) = row {
                            for v in vals.iter_mut() {
                                if let J::Str(s) = v {
                                    s.push_str(" Altered");
                                    altered = true;
                                    break 'outer;
                                }
                            }
                        }
                    }
                }
            }
        }
    }
    if !altered || check_answer(oracle, &render(&d), tokens, &expect, &owned).is_empty() {
        missed.push("an altered value went unnoticed".to_owned());
    }

    // 3. Claim a matched token is unmatched: the scan check must fire.
    let mut d = doc.clone();
    d.insert(
        "unmatched".to_owned(),
        J::Arr(tokens.iter().map(|t| J::Str(t.clone())).collect()),
    );
    if check_answer(oracle, &render(&d), tokens, &expect, &owned).is_empty() {
        missed.push("a wrongly unmatched token went unnoticed".to_owned());
    }
    missed
}

fn to_text(j: &J) -> String {
    let mut out = String::new();
    write_json(&mut out, j);
    out
}

fn write_json(out: &mut String, j: &J) {
    match j {
        J::Null => out.push_str("null"),
        J::Bool(b) => out.push_str(&b.to_string()),
        J::Int(i) => out.push_str(&i.to_string()),
        J::Float(f) => out.push_str(&format!("{f:?}")),
        J::Str(s) => json::write_str(out, s),
        J::Arr(a) => {
            out.push('[');
            for (i, v) in a.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                write_json(out, v);
            }
            out.push(']');
        }
        J::Obj(m) => {
            out.push('{');
            for (i, (k, v)) in m.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                json::write_str(out, k);
                out.push(':');
                write_json(out, v);
            }
            out.push('}');
        }
    }
}
