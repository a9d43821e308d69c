//! One benchmark run: reference answers, server set-up, the timed
//! query-instance window, the local-instance phase, and the metrics.

use crate::child::{dir_mb, Server, Spec};
use crate::reference::{tag_join_counts, Catalog, Entry, Keys};
use crate::stats::{mean, median, percentile};
use crate::stream::{self, Class, Effect, Write, TEMPLATES};
use crate::trace::{self, params_of, ReadReplay, Tracer, WriteMirror};
use iyp_core::cypher::QueryCache;
use iyp_core::journal::{DurableGraph, FsyncPolicy};
use iyp_core::pipeline::build_graph;
use iyp_core::{BuildOptions, SimConfig, World};
use iyp_server::{Client, Request, Response};
use serde_json::{json, Value as Json};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::time::{Duration, Instant};

/// The world seed every server and the reference build use.
pub const WORLD_SEED: u64 = 42;
/// The servers' `--scale`; the reference build uses the same
/// `SimConfig::default()`.
pub const SCALE: &str = "default";
/// The closed-loop connections, one per request class (two: the
/// host's CPU count when the benchmark was sized). Giving each class
/// its own connection keeps a lookup's round trip from depending on
/// whether the same connection just carried a long analytic request,
/// which changes how the kernel acknowledges the next one.
const CLASSES: [Class; 2] = [Class::Lookup, Class::Analytic];
/// Server start-ups per run; `setup_s` is their median.
const SETUP_RUNS: usize = 3;
/// Length of the (cyclic) read stream. Long enough that its Zipf tail
/// of lookup results outweighs the up-to-1-MiB slack of rounding the
/// `cached_mix` cache up to whole MiB, so the tail does not fit.
const STREAM_LEN: usize = 32_000;
/// Requests of each class sent untimed to fill the cache on
/// `cached_mix` (two rounds of the analytic templates).
const WARMUP: [usize; 2] = [50, 14];
/// Zipf ranks below this count as hot keys when sizing the cache.
const HOT_RANKS: usize = 32;
/// Writes in the local-instance phase, and a checkpoint after every
/// `CHECKPOINT_EVERY` of them (one, midway: recovery then loads the
/// new generation and replays the WAL written after it).
pub const WRITES: usize = 110;
const CHECKPOINT_EVERY: usize = 55;
/// The window runs past the deadline until every class has sent this
/// many requests, so that without failures each p90 rests on ten or
/// more samples beyond it.
const MIN_SAMPLES: usize = 110;
/// Restarts after the crash; `recovery_s` is their median. A restart
/// on the build host took either ≈0.45 s or ≈0.7 s, so the median
/// needs enough of them not to flip between the two.
const RECOVERY_RUNS: usize = 9;
/// Result cache of the local instance (`serve --journal ... --cache-mb`).
pub const LOCAL_CACHE_MB: usize = 16;
/// Every fourth local-instance read is the private/public join.
const JOIN_EVERY: usize = 4;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Read-only `serve`, no cache: every request executes.
    PaperMix,
    /// Read-only `serve --cache-mb N`, warmed before timing.
    CachedMix,
}

impl Workload {
    pub fn parse(name: &str) -> Option<Workload> {
        match name {
            "paper_mix" => Some(Workload::PaperMix),
            "cached_mix" => Some(Workload::CachedMix),
            _ => None,
        }
    }

    pub fn name(self) -> &'static str {
        match self {
            Workload::PaperMix => "paper_mix",
            Workload::CachedMix => "cached_mix",
        }
    }
}

pub struct Config {
    pub workload: Workload,
    pub seed: u64,
    pub seconds: u64,
    pub trace: bool,
    pub iyp: PathBuf,
    /// Scratch directory for journals and logs (removed afterwards).
    pub work: PathBuf,
    /// Where the traced run writes its spans.
    pub spans: PathBuf,
}

/// A named metric value with its unit.
pub type Metrics = Vec<(&'static str, f64, &'static str)>;

pub struct Report {
    pub attempted: u64,
    pub failed: u64,
    pub facts: Json,
    pub metrics: Metrics,
}

/// Attempted and failed operations across the run.
struct Tally {
    attempted: AtomicU64,
    failed: AtomicU64,
}

impl Tally {
    fn record(&self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted.fetch_add(1, Ordering::Relaxed);
        if !ok {
            let n = self.failed.fetch_add(1, Ordering::Relaxed);
            if n < 20 {
                eprintln!("loadbench: failed: {}", what());
            }
        }
    }
}

/// Sends one read and checks its answer; returns the round trip when
/// the answer was right.
fn read(client: &mut Client, entry: &Entry, tally: &Tally) -> Option<Duration> {
    let started = Instant::now();
    let result = client.query_request(&entry.request);
    let round_trip = started.elapsed();
    let ok = matches!(&result, Ok(t) if entry.matches(&t.rows));
    tally.record(ok, || {
        let name = TEMPLATES[entry.template].name;
        match &result {
            Ok(t) => format!("{name}: {} rows, expected {}", t.rows.len(), entry.rows),
            Err(e) => format!("{name}: {e}"),
        }
    });
    ok.then_some(round_trip)
}

fn connect(addr: std::net::SocketAddr) -> Result<Client, String> {
    Client::connect(addr).map_err(|e| format!("connect {addr}: {e}"))
}

struct Sample {
    template: usize,
    class: Class,
    ms: f64,
}

struct Window {
    samples: Vec<Sample>,
    elapsed: Duration,
    /// Stream positions of the two classes after the window.
    end: [usize; 2],
}

impl Window {
    fn ops_per_s(&self) -> f64 {
        self.samples.len() as f64 / self.elapsed.as_secs_f64()
    }

    /// Median round trip and sample count of every template.
    fn by_template(&self) -> Json {
        let mut out = serde_json::Map::new();
        for (t, template) in TEMPLATES.iter().enumerate() {
            let v: Vec<f64> = self
                .samples
                .iter()
                .filter(|s| s.template == t)
                .map(|s| s.ms)
                .collect();
            if let Some(m) = median(&v) {
                out.insert(
                    template.name.to_string(),
                    json!({ "n": v.len(), "p50_ms": m }),
                );
            }
        }
        Json::Object(out)
    }

    /// Geometric mean, over the templates of `class`, of each template's
    /// median round trip. Every template weighs the same, so a change to
    /// any one of them moves it; the median of the pooled samples sits
    /// on whichever template ranks in the middle and jumps between
    /// templates from run to run.
    fn template_p50(&self, class: Class) -> Result<f64, String> {
        let mut logs = Vec::new();
        for (t, template) in TEMPLATES.iter().enumerate() {
            if template.class != class {
                continue;
            }
            let v: Vec<f64> = self
                .samples
                .iter()
                .filter(|s| s.template == t)
                .map(|s| s.ms)
                .collect();
            let m = median(&v).ok_or_else(|| format!("no samples of {}", template.name))?;
            logs.push(m.ln());
        }
        Ok(mean(&logs).expect("every class has templates").exp())
    }

    fn sorted(&self, class: Class) -> Vec<f64> {
        let mut v: Vec<f64> = self
            .samples
            .iter()
            .filter(|s| s.class == class)
            .map(|s| s.ms)
            .collect();
        v.sort_by(f64::total_cmp);
        v
    }
}

/// The stopping rule the closed-loop clients share: each sends until
/// `duration` has passed and every client has attempted `min_attempts`
/// requests. Failed requests count as attempts, so a class whose every
/// request fails still ends the window.
struct Stop {
    began: Instant,
    duration: Duration,
    min_attempts: usize,
    clients: usize,
    /// Clients that have made their `min_attempts`.
    ready: AtomicUsize,
}

impl Stop {
    fn new(duration: Duration, min_attempts: usize, clients: usize) -> Stop {
        Stop {
            began: Instant::now(),
            duration,
            min_attempts,
            clients,
            ready: AtomicUsize::new(0),
        }
    }

    /// Whether a client that has attempted `attempts` requests sends
    /// another one.
    fn more(&self, attempts: usize) -> bool {
        if attempts == self.min_attempts {
            self.ready.fetch_add(1, Ordering::Relaxed);
        }
        self.began.elapsed() < self.duration || self.ready.load(Ordering::Relaxed) < self.clients
    }
}

/// One closed-loop client: calls `send` with successive stream
/// positions from `start` on until `stop` ends the window. `send`
/// returns the sample of a request that succeeded and `None` for one
/// that failed. Returns the samples and the next position.
fn closed_loop<S>(
    stop: &Stop,
    start: usize,
    mut send: impl FnMut(usize) -> Result<Option<S>, String>,
) -> Result<(Vec<S>, usize), String> {
    let mut samples = Vec::new();
    let mut position = start;
    while stop.more(position - start) {
        if let Some(sample) = send(position)? {
            samples.push(sample);
        }
        position += 1;
    }
    Ok((samples, position))
}

/// The two closed-loop clients send the stream from `start` on for
/// `duration`, and on until each has sent `min_samples`: one connection
/// sends the lookups, the other the analytic requests, each in stream
/// order. A request started before the end completes. With `replay`,
/// each request is replayed in-process right after its round trip.
fn drive(
    addr: std::net::SocketAddr,
    catalog: &Catalog,
    start: [usize; 2],
    duration: Duration,
    min_samples: usize,
    tally: &Tally,
    replay: Option<(&ReadReplay, &Tracer)>,
) -> Result<Window, String> {
    let stop = &Stop::new(duration, min_samples, CLASSES.len());
    let per_client: Vec<Result<(Vec<Sample>, usize), String>> = std::thread::scope(|s| {
        let handles: Vec<_> = CLASSES
            .iter()
            .zip(start)
            .map(|(&class, start)| {
                s.spawn(move || {
                    let mut client = connect(addr)?;
                    closed_loop(stop, start, |position| {
                        let entry = catalog.entry(class, position);
                        let started = Instant::now();
                        let Some(round_trip) = read(&mut client, entry, tally) else {
                            // The connection may be broken; start afresh.
                            client = connect(addr)?;
                            return Ok(None);
                        };
                        if let Some((replay, tracer)) = replay {
                            let r = replay.replay(tracer, entry, started, round_trip);
                            tally.record(r.is_ok(), || format!("replay: {r:?}"));
                        }
                        Ok(Some(Sample {
                            template: entry.template,
                            class: entry.class,
                            ms: ms(round_trip),
                        }))
                    })
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect()
    });
    let elapsed = stop.began.elapsed();
    let mut samples = Vec::new();
    let mut end = [0; 2];
    for (i, s) in per_client.into_iter().enumerate() {
        let (s, position) = s?;
        samples.extend(s);
        end[i] = position;
    }
    Ok(Window {
        samples,
        elapsed,
        end,
    })
}

/// Cache budget of `cached_mix`: the analytic results and the hot
/// lookups of the stream, rounded up to whole MiB.
struct CacheSizing {
    mb: usize,
    analytic_bytes: usize,
    hot_bytes: usize,
    tail_bytes: usize,
}

fn size_cache(catalog: &Catalog) -> CacheSizing {
    let (mut analytic_bytes, mut hot_bytes, mut tail_bytes) = (0, 0, 0);
    for e in &catalog.entries {
        match e.class {
            Class::Analytic => analytic_bytes += e.cache_bytes,
            Class::Lookup if TEMPLATES[e.template].param.is_none() || e.rank < HOT_RANKS => {
                hot_bytes += e.cache_bytes
            }
            Class::Lookup => tail_bytes += e.cache_bytes,
        }
    }
    CacheSizing {
        mb: (analytic_bytes + hot_bytes).div_ceil(1 << 20).max(1),
        analytic_bytes,
        hot_bytes,
        tail_bytes,
    }
}

fn telemetry(stats: &Json, name: &str) -> f64 {
    stats["telemetry"][name].as_f64().unwrap_or(0.0)
}

fn histogram(stats: &Json, name: &str) -> (f64, f64) {
    let h = &stats["telemetry"][name];
    (
        h["count"].as_f64().unwrap_or(0.0),
        h["sum_seconds"].as_f64().unwrap_or(0.0),
    )
}

const CACHE_HITS: &str = "iyp_cypher_cache_hits_total";
const CACHE_MISSES: &str = "iyp_cypher_cache_misses_total";
const CACHE_EVICTIONS: &str = "iyp_cypher_cache_evictions_total";

/// Cache counters from a server's `stats`, as (hits, misses, evictions).
fn cache_counters(stats: &Json) -> [f64; 3] {
    [CACHE_HITS, CACHE_MISSES, CACHE_EVICTIONS].map(|n| telemetry(stats, n))
}

struct QueryPhase {
    setups: Vec<f64>,
    window: Window,
    /// The untraced first half of a traced run's window.
    untraced: Option<Window>,
    cpu_seconds: f64,
    peak_rss_mb: f64,
    /// (hits, misses, evictions) during the window.
    cache: [f64; 3],
    /// (count, seconds) of `iyp_server_request_seconds` in the window.
    handler: (f64, f64),
    graph_size: (f64, f64),
}

fn query_phase(
    cfg: &Config,
    spec: &Spec,
    catalog: &Catalog,
    tally: &Tally,
    replay: Option<(&ReadReplay, &Tracer)>,
) -> Result<QueryPhase, String> {
    let mut setups = Vec::new();
    let mut server = None;
    for _ in 0..SETUP_RUNS {
        let s = Server::start(spec)?;
        setups.push(s.ready_after.as_secs_f64());
        // Only the last start-up serves; the others measure set-up.
        if let Some(previous) = server.replace(s) {
            previous.kill();
        }
    }
    let server = server.expect("SETUP_RUNS > 0");
    let mut start = [0; 2];
    if cfg.workload == Workload::CachedMix {
        // One connection warms the classes in turn. Warming both at once
        // on two connections often left the server in a state whose
        // `cpu_ms_per_op` was a third lower (with ≈40 MiB more peak
        // memory), so runs split between two levels.
        let mut client = connect(server.addr)?;
        for (class, n) in CLASSES.into_iter().zip(WARMUP) {
            let warm = || (0..n).map(|p| catalog.entry(class, p));
            for entry in warm() {
                read(&mut client, entry, tally);
            }
            if let Some((replay, _)) = replay {
                replay.warm(warm())?;
            }
        }
        start = WARMUP;
    }
    let server_stats = || stats(&mut connect(server.addr)?);
    let before = server_stats()?;
    let cpu_before = server.cpu_seconds()?;
    let seconds = Duration::from_secs(cfg.seconds);
    let (untraced, window) = match replay {
        None => (
            None,
            drive(
                server.addr,
                catalog,
                start,
                seconds,
                MIN_SAMPLES,
                tally,
                None,
            )?,
        ),
        Some((r, tracer)) => {
            let half = seconds / 2;
            let first = drive(server.addr, catalog, start, half, 0, tally, None)?;
            for (i, class) in CLASSES.into_iter().enumerate() {
                r.warm((start[i]..first.end[i]).map(|p| catalog.entry(class, p)))?;
            }
            let second = drive(
                server.addr,
                catalog,
                first.end,
                half,
                0,
                tally,
                Some((r, tracer)),
            )?;
            (Some(first), second)
        }
    };
    let cpu_seconds = server.cpu_seconds()? - cpu_before;
    let peak_rss_mb = server.peak_rss_mb()?;
    let after = server_stats()?;
    server.kill();
    let [h0, m0, e0] = cache_counters(&before);
    let [h1, m1, e1] = cache_counters(&after);
    let (c0, s0) = histogram(&before, "iyp_server_request_seconds");
    let (c1, s1) = histogram(&after, "iyp_server_request_seconds");
    Ok(QueryPhase {
        setups,
        window,
        untraced,
        cpu_seconds,
        peak_rss_mb,
        cache: [h1 - h0, m1 - m0, e1 - e0],
        handler: (c1 - c0, s1 - s0),
        graph_size: (
            after["graph"]["nodes"].as_f64().unwrap_or(0.0),
            after["graph"]["rels"].as_f64().unwrap_or(0.0),
        ),
    })
}

struct LocalPhase {
    write_ms: Vec<f64>,
    checkpoint_s: Vec<f64>,
    recoveries_s: Vec<f64>,
    /// (hits, misses, evictions) on the local instance.
    cache: [f64; 3],
    /// Journal fsyncs and WAL bytes over write-only stretches.
    fsyncs: f64,
    wal_bytes: f64,
    /// The journal as recovery found it (traced runs keep a copy).
    crashed_copy: Option<PathBuf>,
    disk_mb: f64,
}

fn stats(client: &mut Client) -> Result<Json, String> {
    client.stats().map_err(|e| format!("stats: {e}"))
}

/// Adds the journal counters between two `stats` snapshots to `out`.
fn add_journal_delta(start: &Json, end: &Json, out: &mut LocalPhase) {
    out.fsyncs +=
        telemetry(end, "iyp_journal_fsyncs_total") - telemetry(start, "iyp_journal_fsyncs_total");
    out.wal_bytes += telemetry(end, "iyp_journal_append_bytes_total")
        - telemetry(start, "iyp_journal_append_bytes_total");
}

/// How far the writer has got. A read the server answers between two
/// loads sees the state after at least `answered` (loaded before it
/// was sent) and at most `sent` (loaded after its answer) writes.
#[derive(Default)]
struct WriteProgress {
    sent: AtomicUsize,
    answered: AtomicUsize,
}

/// The write side of the local-instance phase: the §6.1 writes in
/// order, with a checkpoint after every `CHECKPOINT_EVERY`. Returns
/// which writes were acknowledged.
fn writer(
    addr: std::net::SocketAddr,
    writes: &[Write],
    tally: &Tally,
    mirror: Option<(&WriteMirror, &Tracer)>,
    progress: &WriteProgress,
    out: &mut LocalPhase,
) -> Result<Vec<bool>, String> {
    let mut client = connect(addr)?;
    let mut acked = Vec::with_capacity(writes.len());
    // Traced runs read the journal counters around each stretch of
    // writes, leaving the checkpoints' fsyncs out.
    let mut stretch = match mirror {
        Some(_) => Some(stats(&mut client)?),
        None => None,
    };
    for (i, w) in writes.iter().enumerate() {
        let req = Request {
            query: w.text.to_string(),
            params: params_of(w),
        };
        progress.sent.store(i + 1, Ordering::SeqCst);
        let started = Instant::now();
        let result = client.write_request(&req);
        let round_trip = started.elapsed();
        progress.answered.store(i + 1, Ordering::SeqCst);
        let ok = matches!(result, Ok(Response::Written { .. }));
        tally.record(ok, || format!("write {i}: {result:?}"));
        acked.push(ok);
        if ok {
            out.write_ms.push(ms(round_trip));
        } else if result.is_err() {
            client = connect(addr)?;
        }
        if let Some((m, tracer)) = mirror {
            let r = m.write(tracer, w, started, round_trip);
            tally.record(r.is_ok(), || format!("mirror write {i}: {r:?}"));
        }
        if (i + 1) % CHECKPOINT_EVERY == 0 && i + 1 < writes.len() {
            if let Some(start) = &stretch {
                add_journal_delta(start, &stats(&mut client)?, out);
            }
            let started = Instant::now();
            let result = client.checkpoint();
            let round_trip = started.elapsed();
            tally.record(result.is_ok(), || format!("checkpoint: {result:?}"));
            out.checkpoint_s.push(round_trip.as_secs_f64());
            if let Some((m, tracer)) = mirror {
                let r = m.checkpoint(tracer, started, round_trip);
                tally.record(r.is_ok(), || format!("mirror checkpoint: {r:?}"));
                stretch = Some(stats(&mut client)?);
            }
        }
    }
    if let Some(start) = &stretch {
        let end = stats(&mut client)?;
        add_journal_delta(start, &end, out);
        out.cache = cache_counters(&end);
    }
    Ok(acked)
}

/// The read-side of the local-instance phase: lookups (checked against
/// the reference; the writes only touch the private study tag) and the
/// private/public join, checked against `join_counts` (its answer
/// after each number of writes), until `done`.
fn reader(
    addr: std::net::SocketAddr,
    catalog: &Catalog,
    join_counts: &[usize],
    progress: &WriteProgress,
    done: &AtomicBool,
    tally: &Tally,
) -> Result<(), String> {
    let mut client = connect(addr)?;
    let mut n = 0;
    while !done.load(Ordering::Relaxed) {
        if n % JOIN_EVERY == JOIN_EVERY - 1 {
            let answered = progress.answered.load(Ordering::SeqCst);
            let r = client.query(stream::TAG_JOIN);
            let sent = progress.sent.load(Ordering::SeqCst);
            let expected = &join_counts[answered..=sent];
            let ok = matches!(&r, Ok(t) if t
                .single_int()
                .is_some_and(|c| expected.iter().any(|&e| e as i64 == c)));
            tally.record(ok, || {
                format!("tag join: {r:?}, expected one of {expected:?}")
            });
            if r.is_err() {
                client = connect(addr)?;
            }
        } else if read(&mut client, catalog.entry(Class::Lookup, n), tally).is_none() {
            client = connect(addr)?;
        }
        n += 1;
    }
    Ok(())
}

/// The study links the acknowledged writes leave: note → (links,
/// annotation).
fn expected_links(writes: &[Write], acked: &[bool]) -> BTreeMap<String, (usize, Option<i64>)> {
    let mut links = BTreeMap::new();
    for (w, _) in writes.iter().zip(acked).filter(|(_, ok)| **ok) {
        match &w.effect {
            Effect::Tag { note, links: n, .. } => {
                links.insert(note.clone(), (*n, None));
            }
            Effect::Annotate { note, value } => {
                if let Some(e) = links.get_mut(note) {
                    e.1 = Some(*value);
                }
            }
            Effect::Untag { note } => {
                links.remove(note);
            }
        }
    }
    links
}

/// After recovery: every acknowledged write present, every
/// acknowledged delete absent.
fn verify_recovery(client: &mut Client, writes: &[Write], acked: &[bool], tally: &Tally) {
    let expected = expected_links(writes, acked);
    let result = client.query(stream::STUDY_LINKS);
    let found = result.as_ref().map(|t| {
        let mut links: BTreeMap<String, (usize, Option<i64>)> = BTreeMap::new();
        for row in &t.rows {
            let note = row[0].as_str().unwrap_or_default().to_string();
            let e = links.entry(note).or_insert((0, row[1].as_i64()));
            e.0 += 1;
        }
        links
    });
    let ok = matches!(&found, Ok(f) if *f == expected);
    tally.record(ok, || match &found {
        Ok(f) => format!(
            "recovered study links differ: {} notes found, {} expected",
            f.len(),
            expected.len()
        ),
        Err(e) => format!("recovery check: {e}"),
    });
}

fn copy_dir(from: &Path, to: &Path) -> Result<(), String> {
    std::fs::create_dir_all(to).map_err(|e| e.to_string())?;
    for entry in std::fs::read_dir(from).map_err(|e| e.to_string())? {
        let entry = entry.map_err(|e| e.to_string())?;
        if entry.file_type().map_err(|e| e.to_string())?.is_file() {
            std::fs::copy(entry.path(), to.join(entry.file_name())).map_err(|e| e.to_string())?;
        }
    }
    Ok(())
}

fn local_phase(
    cfg: &Config,
    base: &Spec,
    catalog: &Catalog,
    writes: &[Write],
    join_counts: &[usize],
    tally: &Tally,
    mirror: Option<(&WriteMirror, &Tracer)>,
) -> Result<LocalPhase, String> {
    let dir = cfg.work.join("journal");
    let spec = Spec {
        cache_mb: Some(LOCAL_CACHE_MB),
        journal: Some(dir.clone()),
        ..base.clone()
    };
    let mut out = LocalPhase {
        write_ms: Vec::new(),
        checkpoint_s: Vec::new(),
        recoveries_s: Vec::new(),
        cache: [0.0; 3],
        fsyncs: 0.0,
        wal_bytes: 0.0,
        crashed_copy: None,
        disk_mb: 0.0,
    };
    let server = Server::start(&spec)?;
    let done = AtomicBool::new(false);
    let progress = WriteProgress::default();
    let (acked, read_result) = std::thread::scope(|s| {
        let r = s.spawn(|| reader(server.addr, catalog, join_counts, &progress, &done, tally));
        let acked = writer(server.addr, writes, tally, mirror, &progress, &mut out);
        done.store(true, Ordering::Relaxed);
        (acked, r.join().expect("reader thread panicked"))
    });
    let acked = acked?;
    read_result?;
    // Crash: SIGKILL, then restart on the same directory.
    server.kill();
    out.disk_mb = dir_mb(&dir)?;
    if mirror.is_some() {
        let copy = cfg.work.join("journal-at-crash");
        copy_dir(&dir, &copy)?;
        out.crashed_copy = Some(copy);
    }
    // Recovery does not write to the journal, so every restart recovers
    // the same state.
    for _ in 0..RECOVERY_RUNS {
        let restarted = Server::start(&spec)?;
        out.recoveries_s.push(restarted.ready_after.as_secs_f64());
        verify_recovery(&mut connect(restarted.addr)?, writes, &acked, tally);
        restarted.kill();
    }
    Ok(out)
}

fn git_rev() -> String {
    std::process::Command::new("git")
        .args(["rev-parse", "--short", "HEAD"])
        .env("GIT_DIR", ".git")
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".into())
}

fn reported_percentile(sorted: &[f64], q: f64, what: &str) -> Result<f64, String> {
    percentile(sorted, q).ok_or_else(|| {
        format!(
            "too few {what} samples ({}) for p{:.0}: failed requests leave no sample",
            sorted.len(),
            q * 100.0
        )
    })
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

fn median_ms(values: impl Iterator<Item = Duration>) -> Result<f64, String> {
    let v: Vec<f64> = values.map(ms).collect();
    median(&v).ok_or_else(|| "no traced samples".to_string())
}

fn mean_of(values: impl Iterator<Item = f64>) -> Result<f64, String> {
    let v: Vec<f64> = values.collect();
    mean(&v).ok_or_else(|| "no traced samples".to_string())
}

pub fn run(cfg: &Config) -> Result<Report, String> {
    let tally = Tally {
        attempted: AtomicU64::new(0),
        failed: AtomicU64::new(0),
    };
    // The build `iyp serve` runs. Its time is also a gauge of how fast
    // the host is during this run.
    let built = Instant::now();
    let world = World::generate(&SimConfig::default(), WORLD_SEED);
    let generated = built.elapsed();
    let (graph, report) = build_graph(&world, &BuildOptions::default())
        .map_err(|e| format!("reference build: {e}"))?;
    let reference_build_s = built.elapsed().as_secs_f64();
    if report.violations > 0 {
        return Err(format!(
            "{} ontology violations in the reference build",
            report.violations
        ));
    }
    let build = cfg
        .trace
        .then(|| trace::BuildLayers::measure(&world, generated, &report, &graph));
    drop(world);
    let keys = Keys::from_graph(&graph)?;
    let draws = stream::generate(cfg.seed, STREAM_LEN, keys.counts());
    let catalog = Catalog::build(&graph, &keys, &draws)?;
    let writes = stream::plan_writes(cfg.seed, WRITES, &keys.asns, &keys.domains);
    let join_counts = tag_join_counts(&graph, &writes)?;
    let sizing = size_cache(&catalog);
    let cache_mb = (cfg.workload == Workload::CachedMix).then_some(sizing.mb);
    eprintln!(
        "loadbench: reference answers after {:.1} s",
        built.elapsed().as_secs_f64()
    );

    let spec = Spec {
        iyp: cfg.iyp.clone(),
        world_seed: WORLD_SEED,
        cache_mb,
        journal: None,
        log: cfg.work.join("server.log"),
    };
    let tracer = Tracer::new();
    let replay = ReadReplay {
        graph: &graph,
        cache: cache_mb.map(QueryCache::with_capacity_mb),
    };
    let q = query_phase(
        cfg,
        &spec,
        &catalog,
        &tally,
        cfg.trace.then_some((&replay, &tracer)),
    )?;
    if cfg.trace && q.graph_size != (graph.node_count() as f64, graph.rel_count() as f64) {
        tally.record(false, || {
            format!(
                "server graph {:?} differs from the traced build",
                q.graph_size
            )
        });
    }

    // Traced runs measure the in-process layers the window did not
    // reach, then hand the graph to the journaled write mirror.
    let mut layer_extra: Metrics = Vec::new();
    let mirror = if cfg.trace {
        let analytic: Vec<&Entry> = catalog
            .entries
            .iter()
            .filter(|e| e.class == Class::Analytic)
            .collect();
        let mut serial = Vec::new();
        iyp_core::cypher::set_threads(1);
        for e in &analytic {
            let t = Instant::now();
            let r = crate::reference::execute(&graph, &e.request.query, &e.request.params);
            serial.push(t.elapsed());
            tally.record(r.is_ok(), || format!("serial replay: {:?}", r.err()));
        }
        iyp_core::cypher::set_threads(0);
        layer_extra.push((
            "cypher.execute_analytic_serial_ms",
            median_ms(serial.into_iter())?,
            "ms",
        ));
        layer_extra.push((
            "cypher.rows_per_analytic",
            mean_of(analytic.iter().map(|e| e.rows as f64))?,
            "rows",
        ));
        let hits: Vec<Duration> = match &replay.cache {
            Some(_) => tracer
                .lock()
                .reads
                .iter()
                .filter_map(|r| r.cache_get.filter(|(_, hit)| *hit).map(|(d, _)| d))
                .collect(),
            None => trace::cache_hit_probe(
                &graph,
                catalog
                    .entries
                    .iter()
                    .filter(|e| e.class == Class::Lookup)
                    .take(200),
            )?,
        };
        layer_extra.push((
            "cypher.cache_get_us",
            median_ms(hits.into_iter())? * 1e3,
            "us",
        ));
        drop(replay);
        let dir = cfg.work.join("mirror");
        Some(WriteMirror::seed(&dir, graph)?)
    } else {
        drop(replay);
        drop(graph);
        None
    };

    eprintln!(
        "loadbench: query phase done after {:.1} s",
        built.elapsed().as_secs_f64()
    );
    let local = local_phase(
        cfg,
        &spec,
        &catalog,
        &writes,
        &join_counts,
        &tally,
        mirror.as_ref().map(|m| (m, &tracer)),
    )?;

    eprintln!(
        "loadbench: local phase done after {:.1} s",
        built.elapsed().as_secs_f64()
    );
    let lookups = q.window.sorted(Class::Lookup);
    let analytics = q.window.sorted(Class::Analytic);
    let mut write_ms = local.write_ms.clone();
    write_ms.sort_by(f64::total_cmp);
    let ops = q.window.samples.len() as f64;
    let facts = json!({
        "workload": cfg.workload.name(),
        "workload_seed": cfg.seed,
        "world_seed": WORLD_SEED,
        "scale": SCALE,
        "git_rev": git_rev(),
        "host_cpus": std::thread::available_parallelism().map(|n| n.get()).unwrap_or(0),
        "clients": CLASSES.len(),
        "client_per_class": true,
        "window_s": cfg.seconds,
        "traced": cfg.trace,
        "stream_len": STREAM_LEN,
        "distinct_requests": catalog.entries.len(),
        "query_cache_mb": cache_mb,
        "window_cache": {
            "hits": q.cache[0],
            "misses": q.cache[1],
            "evictions": q.cache[2],
        },
        "cache_sizing_mb": {
            "analytic_results": sizing.analytic_bytes as f64 / (1 << 20) as f64,
            "hot_lookups": sizing.hot_bytes as f64 / (1 << 20) as f64,
            "tail_lookups": sizing.tail_bytes as f64 / (1 << 20) as f64,
        },
        "local_instance": {
            "fsync": "always",
            "cache_mb": LOCAL_CACHE_MB,
            "writes": WRITES,
            "checkpoint_every": CHECKPOINT_EVERY,
            "journal_mb_at_crash": local.disk_mb,
            "checkpoints_s": local.checkpoint_s,
            "recoveries_s": local.recoveries_s,
        },
        "setups_s": q.setups,
        "reference_build_s": reference_build_s,
        "window_by_template": q.window.by_template(),
        "samples": {
            "lookup": lookups.len(),
            "analytic": analytics.len(),
            "write": write_ms.len(),
            "checkpoint": local.checkpoint_s.len(),
            "setup": q.setups.len(),
        },
    });

    let metrics = if !cfg.trace {
        vec![
            ("setup_s", median(&q.setups).expect("SETUP_RUNS > 0"), "s"),
            ("ops_per_s", q.window.ops_per_s(), "1/s"),
            (
                "lookup_p50_ms",
                reported_percentile(&lookups, 0.5, "lookup")?,
                "ms",
            ),
            (
                "lookup_p90_ms",
                reported_percentile(&lookups, 0.9, "lookup")?,
                "ms",
            ),
            (
                "analytic_p50_ms",
                q.window.template_p50(Class::Analytic)?,
                "ms",
            ),
            (
                "analytic_p90_ms",
                reported_percentile(&analytics, 0.9, "analytic")?,
                "ms",
            ),
            (
                "write_p50_ms",
                reported_percentile(&write_ms, 0.5, "write")?,
                "ms",
            ),
            (
                "write_p90_ms",
                reported_percentile(&write_ms, 0.9, "write")?,
                "ms",
            ),
            (
                "recovery_s",
                median(&local.recoveries_s).expect("RECOVERY_RUNS > 0"),
                "s",
            ),
            ("cpu_ms_per_op", q.cpu_seconds * 1e3 / ops, "ms"),
            ("peak_rss_mb", q.peak_rss_mb, "MiB"),
        ]
    } else {
        let mirror = mirror.expect("traced runs seed a mirror");
        let crashed = local
            .crashed_copy
            .as_ref()
            .expect("traced runs keep a copy");
        layer_metrics(
            &q,
            &local,
            &tracer,
            &mirror,
            crashed,
            build.as_ref().expect("traced runs trace the build"),
            layer_extra,
        )?
    };
    if cfg.trace {
        tracer.write_spans(&cfg.spans)?;
    }
    Ok(Report {
        attempted: tally.attempted.load(Ordering::Relaxed),
        failed: tally.failed.load(Ordering::Relaxed),
        facts,
        metrics,
    })
}

/// The per-layer metrics of a traced run.
fn layer_metrics(
    q: &QueryPhase,
    local: &LocalPhase,
    tracer: &Tracer,
    mirror: &WriteMirror,
    crashed: &Path,
    build: &trace::BuildLayers,
    extra: Metrics,
) -> Result<Metrics, String> {
    let traces = tracer.lock();
    let reads = &traces.reads;
    let of = |class: Class| reads.iter().filter(move |r| r.class == class);
    let mut m: Metrics = vec![
        (
            "cypher.prepare_us",
            median_ms(reads.iter().map(|r| r.prepare))? * 1e3,
            "us",
        ),
        (
            "cypher.execute_lookup_ms",
            median_ms(of(Class::Lookup).map(|r| r.execute))?,
            "ms",
        ),
        (
            "cypher.execute_analytic_ms",
            median_ms(of(Class::Analytic).map(|r| r.execute))?,
            "ms",
        ),
    ];
    m.extend(extra);
    let [hits, misses, evictions] = [0, 1, 2].map(|i| q.cache[i] + local.cache[i]);
    let lookups = hits + misses;
    m.extend([
        (
            "cypher.cache_hit_ratio",
            if lookups > 0.0 { hits / lookups } else { 0.0 },
            "ratio",
        ),
        ("cypher.cache_lookups", lookups, "count"),
        ("cypher.cache_evictions", evictions, "count"),
        (
            "server.encode_ms",
            mean_of(reads.iter().map(|r| ms(r.encode)))?,
            "ms",
        ),
        (
            "server.serialize_ms",
            mean_of(reads.iter().map(|r| ms(r.serialize)))?,
            "ms",
        ),
        (
            "server.decode_ms",
            mean_of(reads.iter().map(|r| ms(r.decode)))?,
            "ms",
        ),
        (
            "server.response_kb",
            mean_of(reads.iter().map(|r| r.response_bytes as f64 / 1024.0))?,
            "KiB",
        ),
        (
            "server.handler_ms",
            if q.handler.0 > 0.0 {
                q.handler.1 * 1e3 / q.handler.0
            } else {
                0.0
            },
            "ms",
        ),
        (
            "server.wire_lookup_ms",
            median_ms(of(Class::Lookup).map(|r| r.wire()))?,
            "ms",
        ),
        (
            "server.wire_analytic_ms",
            median_ms(of(Class::Analytic).map(|r| r.wire()))?,
            "ms",
        ),
    ]);
    let writes = &traces.writes;
    let acked = local.write_ms.len().max(1) as f64;
    m.extend([
        (
            "cypher.write_ms",
            median_ms(writes.iter().map(|w| w.cypher))?,
            "ms",
        ),
        (
            "journal.write_ms",
            median_ms(writes.iter().map(|w| w.journal))?,
            "ms",
        ),
        (
            "journal.append_ms",
            median_ms(writes.iter().map(|w| w.journal.saturating_sub(w.cypher)))?,
            "ms",
        ),
        ("journal.fsyncs_per_write", local.fsyncs / acked, "count"),
        (
            "journal.wal_bytes_per_write",
            local.wal_bytes / acked,
            "bytes",
        ),
        (
            "journal.checkpoint_s",
            median_ms(traces.checkpoints.iter().copied())? / 1e3,
            "s",
        ),
    ]);
    let t = Instant::now();
    let bytes = mirror
        .durable
        .read(|g| iyp_core::graph::snapshot::to_binary(g).len());
    m.push(("graph.snapshot_encode_s", t.elapsed().as_secs_f64(), "s"));
    m.push(("graph.snapshot_mb", bytes as f64 / (1 << 20) as f64, "MiB"));
    let t = Instant::now();
    let (reopened, report) =
        DurableGraph::open(crashed, FsyncPolicy::Always).map_err(|e| e.to_string())?;
    m.push(("journal.open_s", t.elapsed().as_secs_f64(), "s"));
    m.push(("journal.replay_ops", report.replay.ops as f64, "count"));
    drop(reopened);
    let snapshot = crashed.join(format!("snapshot-{}.bin", report.generation));
    let t = Instant::now();
    let loaded = iyp_core::graph::snapshot::load_binary(&snapshot).map_err(|e| e.to_string())?;
    m.push(("graph.snapshot_load_s", t.elapsed().as_secs_f64(), "s"));
    drop(loaded);
    m.extend([
        ("journal.disk_mb", local.disk_mb, "MiB"),
        ("simnet.generate_s", build.generate.as_secs_f64(), "s"),
        ("simnet.render_s", build.render.as_secs_f64(), "s"),
        ("crawlers.import_s", build.import.as_secs_f64(), "s"),
        ("crawlers.quarantined", build.quarantined as f64, "count"),
        ("pipeline.refine_s", build.refine.as_secs_f64(), "s"),
        ("ontology.validate_s", build.validate.as_secs_f64(), "s"),
        (
            "trace.requests",
            (reads.len() + writes.len() + traces.checkpoints.len()) as f64,
            "count",
        ),
    ]);
    // Tracing overhead: the traced half of the window against the
    // untraced half of the same run.
    let untraced = q.untraced.as_ref().expect("traced runs split the window");
    let p50 = |w: &Window| median(&w.sorted(Class::Lookup)).unwrap_or(f64::NAN);
    m.push((
        "trace.ops_per_s_ratio",
        q.window.ops_per_s() / untraced.ops_per_s(),
        "ratio",
    ));
    m.push((
        "trace.lookup_p50_ratio",
        p50(&q.window) / p50(untraced),
        "ratio",
    ));
    Ok(m)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn analytic_p50_weighs_every_template_the_same() {
        let analytic: Vec<usize> = (0..TEMPLATES.len())
            .filter(|&t| TEMPLATES[t].class == Class::Analytic)
            .collect();
        let mut samples = Vec::new();
        for (i, &template) in analytic.iter().enumerate() {
            // One of the n templates is 2^n times slower than the
            // others, which doubles the geometric mean.
            let m = if i == 0 {
                100.0 * 2f64.powi(analytic.len() as i32)
            } else {
                100.0
            };
            for ms in [m / 2.0, m, m * 3.0] {
                samples.push(Sample {
                    template,
                    class: Class::Analytic,
                    ms,
                });
            }
        }
        let mut window = Window {
            samples,
            elapsed: Duration::from_secs(1),
            end: [0; 2],
        };
        let p50 = window.template_p50(Class::Analytic).unwrap();
        assert!((p50 - 200.0).abs() < 1e-9, "{p50}");
        window.samples.retain(|s| s.template != analytic[0]);
        assert!(window.template_p50(Class::Analytic).is_err());
    }

    #[test]
    fn a_class_whose_every_request_fails_still_ends_the_window() {
        let stop = Stop::new(Duration::ZERO, 50, 2);
        let (failing, working) = std::thread::scope(|s| {
            let failing = s.spawn(|| closed_loop(&stop, 7, |_| Ok(None::<usize>)));
            let working = s.spawn(|| closed_loop(&stop, 0, |p| Ok(Some(p))));
            (failing.join().unwrap(), working.join().unwrap())
        });
        let (samples, end) = failing.unwrap();
        assert!(samples.is_empty());
        assert!(end >= 7 + 50);
        let (samples, _) = working.unwrap();
        assert!(samples.len() >= 50);
    }
}
