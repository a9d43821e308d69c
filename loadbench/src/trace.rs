//! The traced run's in-process side: each traced request gets an id and
//! a root span (the client round trip); right after the round trip
//! returns, the benchmark replays the request against the layers'
//! public functions and records one child span per layer call. Spans
//! stay in memory and are written out when the run ends.

use crate::reference::{decode, encode, execute, Entry};
use crate::stream::{Arg, Class, Write};
use iyp_core::cypher::{query_write, Params, QueryCache, Statement};
use iyp_core::journal::{DurableGraph, FsyncPolicy};
use iyp_core::{BuildReport, Graph, Value, World};
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

#[derive(Debug, Clone)]
pub struct Span {
    pub request: u64,
    pub name: &'static str,
    /// `None` for a root span.
    pub parent: Option<&'static str>,
    pub start: Duration,
    pub duration: Duration,
}

/// One traced read: its round trip and the layer spans replayed for it.
#[derive(Debug, Clone)]
pub struct ReadTrace {
    pub class: Class,
    pub round_trip: Duration,
    pub prepare: Duration,
    /// `QueryCache::get` and whether it hit (cached workloads only).
    pub cache_get: Option<(Duration, bool)>,
    pub execute: Duration,
    pub encode: Duration,
    pub serialize: Duration,
    pub decode: Duration,
    pub response_bytes: usize,
}

impl ReadTrace {
    /// The round trip minus the layer calls the server made for this
    /// request: the wire, the client and the server's socket handling.
    pub fn wire(&self) -> Duration {
        let executed = match self.cache_get {
            Some((_, true)) => Duration::ZERO,
            _ => self.execute,
        };
        let layers = self.prepare
            + self.cache_get.map_or(Duration::ZERO, |(d, _)| d)
            + executed
            + self.encode
            + self.serialize
            + self.decode;
        self.round_trip.saturating_sub(layers)
    }
}

/// One traced write: `query_write` inside `DurableGraph::write`.
#[derive(Debug, Clone)]
pub struct WriteTrace {
    pub cypher: Duration,
    pub journal: Duration,
}

#[derive(Default)]
pub struct Traces {
    pub reads: Vec<ReadTrace>,
    pub writes: Vec<WriteTrace>,
    pub checkpoints: Vec<Duration>,
    pub spans: Vec<Span>,
}

pub struct Tracer {
    origin: Instant,
    next_id: AtomicU64,
    traces: Mutex<Traces>,
}

impl Tracer {
    pub fn new() -> Tracer {
        Tracer {
            origin: Instant::now(),
            next_id: AtomicU64::new(0),
            traces: Mutex::new(Traces::default()),
        }
    }

    pub fn lock(&self) -> std::sync::MutexGuard<'_, Traces> {
        self.traces.lock().expect("a tracing thread panicked")
    }

    /// Records a root span that started at `started` and its children,
    /// laid out back to back after it (they ran after the round trip).
    fn record(
        &self,
        started: Instant,
        round_trip: Duration,
        children: &[(&'static str, Duration)],
    ) {
        let request = self.next_id.fetch_add(1, Ordering::Relaxed);
        let start = started.duration_since(self.origin);
        let mut spans = vec![Span {
            request,
            name: "request",
            parent: None,
            start,
            duration: round_trip,
        }];
        let mut at = start + round_trip;
        for &(name, duration) in children {
            spans.push(Span {
                request,
                name,
                parent: Some("request"),
                start: at,
                duration,
            });
            at += duration;
        }
        self.lock().spans.extend(spans);
    }

    /// Writes every span as one JSON line.
    pub fn write_spans(&self, path: &Path) -> Result<(), String> {
        let mut out = String::new();
        for s in &self.lock().spans {
            let line = serde_json::json!({
                "request": s.request,
                "name": s.name,
                "parent": s.parent,
                "start_us": s.start.as_secs_f64() * 1e6,
                "duration_us": s.duration.as_secs_f64() * 1e6,
            });
            out.push_str(&line.to_string());
            out.push('\n');
        }
        std::fs::write(path, out).map_err(|e| format!("write {}: {e}", path.display()))
    }
}

/// Replays reads in-process against the reference graph, mirroring the
/// server's query path (`run_query`) and the client's decoding.
pub struct ReadReplay<'g> {
    pub graph: &'g Graph,
    /// Mirror of the server's result cache, when the workload has one.
    pub cache: Option<QueryCache>,
}

impl ReadReplay<'_> {
    /// Fills the mirror cache with `entries`, as the server's cache was
    /// filled before tracing started.
    pub fn warm<'e>(&self, entries: impl Iterator<Item = &'e Entry>) -> Result<(), String> {
        if let Some(cache) = &self.cache {
            for e in entries {
                let (text, params) = (&e.request.query, &e.request.params);
                if cache.get(self.graph, text, params).is_none() {
                    let rs = execute(self.graph, text, params)?;
                    cache.insert(self.graph, text, params, Arc::new(rs));
                }
            }
        }
        Ok(())
    }

    /// Replays `entry` after a round trip of `round_trip` that started
    /// at `started`. Every replay executes the statement, so execution
    /// time is known even where the server answered from its cache.
    pub fn replay(
        &self,
        tracer: &Tracer,
        entry: &Entry,
        started: Instant,
        round_trip: Duration,
    ) -> Result<(), String> {
        let (text, params) = (&entry.request.query, &entry.request.params);
        let t = Instant::now();
        let stmt = Statement::prepare(text).map_err(|e| e.to_string())?;
        let prepare = t.elapsed();
        let cache_get = self.cache.as_ref().map(|cache| {
            let t = Instant::now();
            let hit = cache.get(self.graph, text, params).is_some();
            (t.elapsed(), hit)
        });
        let t = Instant::now();
        let rs = stmt
            .params(params)
            .no_cache()
            .run_shared(self.graph)
            .map_err(|e| e.to_string())?;
        let execute = t.elapsed();
        if let (Some(cache), Some((_, false))) = (&self.cache, cache_get) {
            cache.insert(self.graph, text, params, Arc::clone(&rs));
        }
        let t = Instant::now();
        let response = encode(&rs, self.graph);
        let encode = t.elapsed();
        let t = Instant::now();
        let line = response.to_line();
        let serialize = t.elapsed();
        let t = Instant::now();
        let rows = decode(&line)?;
        let decode = t.elapsed();
        if !entry.matches(&rows) {
            return Err("in-process replay disagrees with the reference".into());
        }
        let mut children = vec![("cypher.prepare", prepare)];
        if let Some((d, _)) = cache_get {
            children.push(("cypher.cache_get", d));
        }
        children.extend([
            ("cypher.execute", execute),
            ("server.encode", encode),
            ("server.serialize", serialize),
            ("server.decode", decode),
        ]);
        tracer.record(started, round_trip, &children);
        tracer.lock().reads.push(ReadTrace {
            class: entry.class,
            round_trip,
            prepare,
            cache_get,
            execute,
            encode,
            serialize,
            decode,
            response_bytes: line.len() + 1,
        });
        Ok(())
    }
}

/// `QueryCache::get` on a hit, for `entries`: the cache lookup cost
/// where the workload's server runs no cache.
pub fn cache_hit_probe<'e>(
    graph: &Graph,
    entries: impl Iterator<Item = &'e Entry>,
) -> Result<Vec<Duration>, String> {
    let cache = QueryCache::with_capacity_mb(256);
    let mut out = Vec::new();
    for e in entries {
        let (text, params) = (&e.request.query, &e.request.params);
        let rs = execute(graph, text, params)?;
        cache.insert(graph, text, params, Arc::new(rs));
        let t = Instant::now();
        let hit = cache.get(graph, text, params);
        out.push(t.elapsed());
        if hit.is_none() {
            return Err("cache probe missed".into());
        }
    }
    Ok(out)
}

/// The write path replayed in-process on a journaled copy of the
/// reference graph: `DurableGraph::write` around `query_write`, and
/// `DurableGraph::checkpoint`.
pub struct WriteMirror {
    pub durable: DurableGraph,
}

impl WriteMirror {
    pub fn seed(dir: &Path, graph: Graph) -> Result<WriteMirror, String> {
        let durable =
            DurableGraph::seed(dir, graph, FsyncPolicy::Always).map_err(|e| e.to_string())?;
        Ok(WriteMirror { durable })
    }

    pub fn write(
        &self,
        tracer: &Tracer,
        write: &Write,
        started: Instant,
        round_trip: Duration,
    ) -> Result<(), String> {
        let params = params_of(write);
        let mut cypher = Duration::ZERO;
        let t = Instant::now();
        let result = self
            .durable
            .write(|g| {
                let t = Instant::now();
                let r = query_write(g, write.text, &params);
                cypher = t.elapsed();
                r
            })
            .map_err(|e| e.to_string())?;
        let journal = t.elapsed();
        result.map_err(|e| e.to_string())?;
        tracer.record(
            started,
            round_trip,
            &[("journal.write", journal), ("cypher.write", cypher)],
        );
        tracer.lock().writes.push(WriteTrace { cypher, journal });
        Ok(())
    }

    pub fn checkpoint(
        &self,
        tracer: &Tracer,
        started: Instant,
        round_trip: Duration,
    ) -> Result<(), String> {
        let t = Instant::now();
        self.durable.checkpoint().map_err(|e| e.to_string())?;
        let took = t.elapsed();
        tracer.record(started, round_trip, &[("journal.checkpoint", took)]);
        tracer.lock().checkpoints.push(took);
        Ok(())
    }
}

/// The parameters of a planned write.
pub fn params_of(write: &Write) -> Params {
    write
        .args
        .iter()
        .map(|(name, arg)| {
            let v = match arg {
                Arg::Int(i) => Value::Int(*i),
                Arg::Str(s) => Value::Str(s.clone()),
                Arg::Ints(l) => Value::List(l.iter().map(|i| Value::Int(*i)).collect()),
            };
            (name.to_string(), v)
        })
        .collect()
}

/// Time of each build stage.
pub struct BuildLayers {
    pub generate: Duration,
    pub render: Duration,
    pub import: Duration,
    pub quarantined: usize,
    pub refine: Duration,
    pub validate: Duration,
}

impl BuildLayers {
    /// The stages of the build `report` describes, which took `generate`
    /// in `World::generate` and then ran `build_graph` on `world` into
    /// `graph`. Import and refinement times and the quarantine count
    /// come from the report. `build_graph` renders in parallel and does
    /// not time validation, so rendering (serially, output discarded)
    /// and validation are timed here in passes of their own.
    pub fn measure(
        world: &World,
        generate: Duration,
        report: &BuildReport,
        graph: &Graph,
    ) -> BuildLayers {
        let t = Instant::now();
        for id in iyp_core::simnet::datasets::ALL_DATASETS {
            std::hint::black_box(world.render_dataset(id));
        }
        let render = t.elapsed();
        let t = Instant::now();
        std::hint::black_box(iyp_core::ontology::validate_graph(graph));
        let validate = t.elapsed();
        BuildLayers {
            generate,
            render,
            import: report.dataset_timings.iter().map(|(_, d)| *d).sum(),
            quarantined: report.quarantined_records(),
            refine: report.refinement_timings.iter().map(|(_, d)| *d).sum(),
            validate,
        }
    }
}
