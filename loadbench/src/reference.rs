//! Expected answers. The benchmark builds the graph in-process with the
//! server's world seed and computes, for every distinct read request in
//! the stream, the row count and a fingerprint of the rows exactly as a
//! client decodes them.

use crate::stream::{Class, Draw, Effect, KeySet, Write, AS_PREFIXES, TEMPLATES};
use iyp_core::cypher::cache::approx_result_bytes;
use iyp_core::cypher::{Params, ResultSet, Statement};
use iyp_core::{Graph, RtVal, Value};
use iyp_server::{encode_value, Request, Response};
use std::collections::{hash_map, HashMap, HashSet};

/// The parameter keys the lookups draw from, in a fixed order (Zipf
/// rank `r` is the `r`-th key).
pub struct Keys {
    pub asns: Vec<i64>,
    pub domains: Vec<String>,
    pub prefixes: Vec<String>,
}

impl Keys {
    /// ASes that originate a prefix, domains with a nameserver, and
    /// prefixes with an origin, each sorted.
    pub fn from_graph(graph: &Graph) -> Result<Keys, String> {
        let column = |text: &str| -> Result<Vec<Value>, String> {
            let rs = Statement::prepare(text)
                .and_then(|s| s.no_cache().run(graph))
                .map_err(|e| format!("key query failed: {e}"))?;
            Ok(rs
                .rows
                .into_iter()
                .filter_map(|mut row| match row.swap_remove(0) {
                    iyp_core::RtVal::Scalar(v) => Some(v),
                    _ => None,
                })
                .collect())
        };
        let mut asns: Vec<i64> =
            column("MATCH (a:AS)-[:ORIGINATE]-(:Prefix) RETURN DISTINCT a.asn")?
                .into_iter()
                .filter_map(|v| match v {
                    Value::Int(i) => Some(i),
                    _ => None,
                })
                .collect();
        let strings = |vals: Vec<Value>| -> Vec<String> {
            let mut out: Vec<String> = vals
                .into_iter()
                .filter_map(|v| match v {
                    Value::Str(s) => Some(s),
                    _ => None,
                })
                .collect();
            out.sort();
            out
        };
        let domains = strings(column(
            "MATCH (d:DomainName)-[:MANAGED_BY]-(:AuthoritativeNameServer) RETURN DISTINCT d.name",
        )?);
        let prefixes = strings(column(
            "MATCH (p:Prefix)-[:ORIGINATE]-(:AS) RETURN DISTINCT p.prefix",
        )?);
        asns.sort_unstable();
        if asns.is_empty() || domains.is_empty() || prefixes.is_empty() {
            return Err("the graph has no lookup keys".into());
        }
        Ok(Keys {
            asns,
            domains,
            prefixes,
        })
    }

    pub fn counts(&self) -> [usize; 3] {
        [self.asns.len(), self.domains.len(), self.prefixes.len()]
    }

    fn value(&self, set: KeySet, rank: usize) -> Value {
        match set {
            KeySet::Asn => Value::Int(self.asns[rank]),
            KeySet::Domain => Value::Str(self.domains[rank].clone()),
            KeySet::Prefix => Value::Str(self.prefixes[rank].clone()),
        }
    }
}

/// One distinct read request and its expected answer.
pub struct Entry {
    pub template: usize,
    pub class: Class,
    pub rank: usize,
    pub request: Request,
    pub rows: usize,
    pub fingerprint: u64,
    /// The query cache's byte weight of this result.
    pub cache_bytes: usize,
}

/// The distinct requests of a stream, and the stream of each class as
/// indices into them.
pub struct Catalog {
    pub entries: Vec<Entry>,
    lookups: Vec<usize>,
    analytics: Vec<usize>,
}

impl Catalog {
    pub fn build(graph: &Graph, keys: &Keys, draws: &[Draw]) -> Result<Catalog, String> {
        let mut index: HashMap<Draw, usize> = HashMap::new();
        let mut catalog = Catalog {
            entries: Vec::new(),
            lookups: Vec::new(),
            analytics: Vec::new(),
        };
        for draw in draws {
            let id = match index.get(draw) {
                Some(&id) => id,
                None => {
                    catalog.entries.push(Entry::compute(graph, keys, *draw)?);
                    index.insert(*draw, catalog.entries.len() - 1);
                    catalog.entries.len() - 1
                }
            };
            match catalog.entries[id].class {
                Class::Lookup => catalog.lookups.push(id),
                Class::Analytic => catalog.analytics.push(id),
            }
        }
        Ok(catalog)
    }

    /// The `position`-th request of `class` in the (cyclic) stream.
    pub fn entry(&self, class: Class, position: usize) -> &Entry {
        let ids = match class {
            Class::Lookup => &self.lookups,
            Class::Analytic => &self.analytics,
        };
        &self.entries[ids[position % ids.len()]]
    }
}

impl Entry {
    fn compute(graph: &Graph, keys: &Keys, draw: Draw) -> Result<Entry, String> {
        let template = &TEMPLATES[draw.template];
        let mut request = Request::new(template.text);
        if let Some((name, set)) = template.param {
            request
                .params
                .insert(name.to_string(), keys.value(set, draw.rank));
        }
        let rs = execute(graph, &request.query, &request.params)
            .map_err(|e| format!("reference for {} failed: {e}", template.name))?;
        let rows = decode(&encode(&rs, graph).to_line())?;
        Ok(Entry {
            template: draw.template,
            class: template.class,
            rank: draw.rank,
            rows: rows.len(),
            fingerprint: fingerprint(&rows),
            cache_bytes: approx_result_bytes(&rs) + request.query.len(),
            request,
        })
    }

    /// True when `rows`, as the client decoded them, are the reference.
    pub fn matches(&self, rows: &[Vec<serde_json::Value>]) -> bool {
        rows.len() == self.rows && fingerprint(rows) == self.fingerprint
    }
}

/// The answers of the private/public join (`stream::TAG_JOIN`) along
/// the write sequence: entry `k` is its count once the first `k` of
/// `writes` have been applied.
pub fn tag_join_counts(graph: &Graph, writes: &[Write]) -> Result<Vec<usize>, String> {
    let mut originated: HashMap<i64, Vec<String>> = HashMap::new();
    // Note of each live study link → the ASes it tags.
    let mut live: HashMap<&str, &[i64]> = HashMap::new();
    let mut counts = vec![0];
    for w in writes {
        match &w.effect {
            Effect::Tag { note, asns, .. } => {
                for &asn in asns {
                    if let hash_map::Entry::Vacant(slot) = originated.entry(asn) {
                        let params = Params::from([("asn".to_string(), Value::Int(asn))]);
                        let rs = execute(graph, AS_PREFIXES, &params)?;
                        let prefixes = rs
                            .rows
                            .into_iter()
                            .filter_map(|mut row| match row.swap_remove(0) {
                                RtVal::Scalar(Value::Str(p)) => Some(p),
                                _ => None,
                            })
                            .collect();
                        slot.insert(prefixes);
                    }
                }
                live.insert(note, asns);
            }
            Effect::Untag { note } => {
                live.remove(note.as_str());
            }
            Effect::Annotate { .. } => {}
        }
        let prefixes: HashSet<&String> = live
            .values()
            .flat_map(|asns| asns.iter())
            .flat_map(|asn| &originated[asn])
            .collect();
        counts.push(prefixes.len());
    }
    Ok(counts)
}

/// Runs a read query without any result cache.
pub fn execute(graph: &Graph, text: &str, params: &Params) -> Result<ResultSet, String> {
    Statement::prepare(text)
        .and_then(|s| s.params(params).no_cache().run(graph))
        .map_err(|e| e.to_string())
}

/// The server's encoding of a result (`run_query` in the server crate).
pub fn encode(rs: &ResultSet, graph: &Graph) -> Response {
    Response::Ok {
        columns: rs.columns.clone(),
        rows: rs
            .rows
            .iter()
            .map(|row| row.iter().map(|v| encode_value(v, graph)).collect())
            .collect(),
    }
}

/// The client's decoding of a response line (`Client::send`).
pub fn decode(line: &str) -> Result<Vec<Vec<serde_json::Value>>, String> {
    match Response::from_line(line.trim())? {
        Response::Ok { rows, .. } => Ok(rows),
        other => Err(format!("unexpected response {other:?}")),
    }
}

/// FNV-1a over a canonical walk of the rows (order-sensitive: the
/// executor's output order is deterministic).
pub fn fingerprint(rows: &[Vec<serde_json::Value>]) -> u64 {
    let mut h = Fnv(0xcbf2_9ce4_8422_2325);
    for row in rows {
        h.bytes(b"[");
        for v in row {
            h.value(v);
        }
    }
    h.0
}

struct Fnv(u64);

impl Fnv {
    fn bytes(&mut self, data: &[u8]) {
        for b in data {
            self.0 ^= u64::from(*b);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
    }

    fn len(&mut self, n: usize) {
        self.bytes(&(n as u64).to_le_bytes());
    }

    fn value(&mut self, v: &serde_json::Value) {
        use serde_json::Value as J;
        match v {
            J::Null => self.bytes(b"n"),
            J::Bool(b) => self.bytes(if *b { b"t" } else { b"f" }),
            J::Number(n) => {
                self.bytes(b"#");
                self.bytes(n.to_string().as_bytes());
            }
            J::String(s) => {
                self.bytes(b"s");
                self.len(s.len());
                self.bytes(s.as_bytes());
            }
            J::Array(items) => {
                self.bytes(b"a");
                self.len(items.len());
                for item in items {
                    self.value(item);
                }
            }
            J::Object(map) => {
                self.bytes(b"o");
                self.len(map.len());
                for (k, item) in map.iter() {
                    self.len(k.len());
                    self.bytes(k.as_bytes());
                    self.value(item);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use serde_json::json;

    #[test]
    fn fingerprint_sees_order_values_and_nesting() {
        let a = vec![vec![json!(1), json!("x")], vec![json!([1, 2])]];
        let b = vec![vec![json!([1, 2])], vec![json!(1), json!("x")]];
        let c = vec![vec![json!(1), json!("y")], vec![json!([1, 2])]];
        let d = vec![vec![json!(1), json!("x")], vec![json!([12])]];
        assert_eq!(fingerprint(&a), fingerprint(&a.clone()));
        assert_ne!(fingerprint(&a), fingerprint(&b));
        assert_ne!(fingerprint(&a), fingerprint(&c));
        assert_ne!(fingerprint(&a), fingerprint(&d));
    }
}
