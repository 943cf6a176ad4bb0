//! The layer side of the traced run: after the fleet stops, the
//! workload's own inputs are replayed in this process through each
//! crate's public functions, every call (or batch of nanosecond-scale
//! calls) timed as a span. Spans stay in memory and are written out at
//! the end.

use std::collections::{BTreeMap, HashMap, HashSet};
use std::hint::black_box;
use std::io::{self, Write};
use std::path::Path;
use std::sync::{mpsc, Arc};
use std::time::{Duration, Instant};

use gb_router::{UpstreamPool, UPSTREAM_CONN_BASE};
use gb_service::cache::{CacheKey, CachedResult, ShardedCache};
use gb_service::fault::Passthrough;
use gb_service::persist::{encode_key, encode_value, StoreSettings};
use gb_service::proto::{
    binary_hit_reply, binary_ok_tail, json_hit_reply, json_ok_tail, Algorithm, BalanceResponse,
    Codec, Frame, FrameReader, Response, WireCodec,
};
use gb_service::route::{FailoverRing, DEFAULT_VNODES};
use gb_service::server::{Server, ServerConfig};
use gb_service::shed::StealQueue;
use gb_service::spec::ProblemSpec;

use crate::drive::{Answer, OkReply, Outcome};
use crate::gen::{Key, Plan, Req};

/// Distinct keys whose miss path (build, α, kernels) is replayed.
const MAX_KEYS: usize = 432;
/// Requests whose codec, cache and routing calls are replayed.
const MAX_REQS: usize = 20_000;
/// Calls per span for nanosecond-scale functions: one `Instant` pair per
/// batch keeps the timer's own cost out of the mean.
const BATCH: usize = 64;
/// Round trips timed through the router's upstream pool.
const MAX_HOPS: usize = 2_000;
/// Handoffs timed through the work queue.
const MAX_HANDOFFS: usize = 2_000;
/// Matches `gb-serve`'s `MIN_ALPHA` clamp.
const MIN_ALPHA: f64 = 1e-3;
/// The α fallback `gb-serve` uses when no estimate exists.
const DEFAULT_ALPHA: f64 = 0.25;

/// One timed span: a call, or a batch of `calls` calls, of layer `name`.
#[derive(Debug, Clone)]
pub struct Span {
    pub id: u32,
    /// 0 for a root span.
    pub parent: u32,
    pub name: &'static str,
    /// The request id the span belongs to.
    pub req: u64,
    pub start_ns: u64,
    pub end_ns: u64,
    pub calls: u32,
}

#[derive(Debug)]
pub struct Tracer {
    t0: Instant,
    pub spans: Vec<Span>,
    totals: HashMap<&'static str, (u64, u64)>,
}

impl Tracer {
    pub fn new() -> Tracer {
        Tracer {
            t0: Instant::now(),
            spans: Vec::new(),
            totals: HashMap::new(),
        }
    }

    fn ns(&self, at: Instant) -> u64 {
        at.duration_since(self.t0).as_nanos() as u64
    }

    fn record(
        &mut self,
        name: &'static str,
        req: u64,
        parent: u32,
        start: Instant,
        end: Instant,
        calls: usize,
    ) -> u32 {
        let id = self.spans.len() as u32 + 1;
        let (start_ns, end_ns) = (self.ns(start), self.ns(end));
        self.spans.push(Span {
            id,
            parent,
            name,
            req,
            start_ns,
            end_ns,
            calls: calls as u32,
        });
        let t = self.totals.entry(name).or_default();
        t.0 += end_ns - start_ns;
        t.1 += calls as u64;
        id
    }

    /// Times `f` as one span of `calls` calls; returns its result and
    /// the span's length in ns.
    fn time<T>(
        &mut self,
        name: &'static str,
        req: u64,
        parent: u32,
        calls: usize,
        f: impl FnOnce() -> T,
    ) -> (T, u64) {
        let start = Instant::now();
        let out = black_box(f());
        let end = Instant::now();
        self.record(name, req, parent, start, end, calls);
        (out, end.duration_since(start).as_nanos() as u64)
    }

    /// Opens a root span for request `req`; [`close`](Self::close) ends it.
    fn open(&mut self, name: &'static str, req: u64) -> u32 {
        let now = Instant::now();
        self.record(name, req, 0, now, now, 0)
    }

    fn close(&mut self, id: u32) {
        let end = self.ns(Instant::now());
        self.spans[id as usize - 1].end_ns = end;
    }

    /// Adds time measured elsewhere to `name`'s totals without a span.
    fn add(&mut self, name: &'static str, ns: u64) {
        let t = self.totals.entry(name).or_default();
        t.0 += ns;
        t.1 += 1;
    }

    /// Mean ns per call of `name` (0 when it never ran).
    pub fn mean_ns(&self, name: &str) -> f64 {
        self.totals.get(name).map_or(0.0, |&(ns, calls)| {
            if calls == 0 {
                0.0
            } else {
                ns as f64 / calls as f64
            }
        })
    }

    /// Writes every span as one JSON object per line.
    pub fn write(&self, path: &Path) -> io::Result<()> {
        let mut out = io::BufWriter::new(std::fs::File::create(path)?);
        for s in &self.spans {
            writeln!(
                out,
                "{{\"id\":{},\"parent\":{},\"name\":\"{}\",\"req\":{},\"start_ns\":{},\"end_ns\":{},\"calls\":{}}}",
                s.id, s.parent, s.name, s.req, s.start_ns, s.end_ns, s.calls
            )?;
        }
        out.flush()
    }
}

/// α exactly as `gb-serve` derives it for a miss.
fn served_alpha(spec: &ProblemSpec, problem: &gb_service::spec::ServiceProblem, n: usize) -> f64 {
    spec.alpha_hint()
        .or_else(|| problem.analytic_alpha())
        .or_else(|| gb_problems::empirical_alpha(problem, n))
        .unwrap_or(DEFAULT_ALPHA)
        .clamp(MIN_ALPHA, 0.5)
}

fn bound(alg: Algorithm, alpha: f64, theta: f64, n: usize) -> f64 {
    match alg {
        Algorithm::Hf | Algorithm::Phf => gb_core::hf_upper_bound(alpha, n),
        Algorithm::Ba => gb_core::ba_upper_bound(alpha, n),
        Algorithm::BaHf => gb_core::bahf_upper_bound(alpha, theta, n),
    }
}

/// Spans reported as mean µs per call (`<span>_us`).
const US_SPANS: [&str; 18] = [
    "core.hf",
    "core.ba",
    "core.ba_hf",
    "problems.build",
    "problems.alpha",
    "problems.synthetic_miss",
    "problems.fe_tree_miss",
    "problems.grid_miss",
    "problems.quadrature_miss",
    "problems.search_tree_miss",
    "problems.task_list_miss",
    "parlb.par_ba",
    "parlb.par_ba_hf",
    "parlb.par_phf",
    "shed.handoff",
    "store.append",
    "rebal.plan",
    "router.hop",
];

/// Spans reported as mean ns per call (`<span>_ns`).
const NS_SPANS: [&str; 13] = [
    "core.bound",
    "proto.frame_read",
    "proto.json_decode",
    "proto.binary_decode",
    "proto.json_encode",
    "proto.binary_encode",
    "proto.json_hit_reply",
    "proto.binary_hit_reply",
    "spec.fingerprint",
    "cache.get_hit",
    "cache.get_miss",
    "cache.put",
    "route.route",
];

/// The span accumulating a class's whole miss (build + α + kernel).
fn class_metric(spec: &ProblemSpec) -> &'static str {
    match spec {
        ProblemSpec::Synthetic { .. } => "problems.synthetic_miss",
        ProblemSpec::FeTree { .. } => "problems.fe_tree_miss",
        ProblemSpec::Grid { .. } => "problems.grid_miss",
        ProblemSpec::Quadrature { .. } => "problems.quadrature_miss",
        ProblemSpec::SearchTree { .. } => "problems.search_tree_miss",
        ProblemSpec::TaskList { .. } => "problems.task_list_miss",
    }
}

/// What the replay needs to know about the run it replays.
#[derive(Debug)]
pub struct ReplayInput<'a> {
    pub plan: &'a Plan,
    pub reqs: &'a [Req],
    pub outcomes: &'a [Outcome],
    pub verified: &'a [bool],
    /// `--cache-cap` of each `gb-serve` (its default when not set).
    pub cache_cap: usize,
    /// Whether requests pass through `gb-router`.
    pub routed: bool,
    /// Whether each `gb-serve` spills to a store.
    pub spills: bool,
    /// A store directory to recover (the prepared `hit-warm` copy); the
    /// replay's own appends are recovered otherwise.
    pub recover_dir: Option<&'a Path>,
    /// Scratch directory for the replay's store.
    pub work: &'a Path,
}

/// Layer means keyed by metric name, plus the replayed µs per OK reply.
#[derive(Debug)]
pub struct Replay {
    pub tracer: Tracer,
    pub metrics: BTreeMap<String, f64>,
    pub explained_us_per_ok: f64,
}

pub fn replay(input: &ReplayInput) -> io::Result<Replay> {
    let mut tr = Tracer::new();
    let keys = &input.plan.keys;
    let served: Vec<(usize, &Req, &OkReply)> = input
        .reqs
        .iter()
        .zip(input.outcomes)
        .enumerate()
        .filter(|(i, _)| input.verified[*i])
        .filter_map(|(i, (r, o))| match &o.answer {
            Answer::Ok(ok) => Some((i, r, ok)),
            _ => None,
        })
        .collect();
    let stride = served.len().div_ceil(MAX_REQS).max(1);
    let sample: Vec<(usize, &Req, &OkReply)> = served.iter().copied().step_by(stride).collect();

    // Distinct keys in first-served order; misses first, so a workload
    // with misses replays the keys it actually computed.
    let mut seen = HashSet::new();
    let mut distinct: Vec<(usize, u32)> = Vec::new();
    for pass_cached in [false, true] {
        for &(i, r, ok) in &served {
            if ok.cached == pass_cached && seen.insert(r.key) {
                distinct.push((i, r.key));
            }
        }
    }
    let pieces_len: HashMap<u32, usize> = served
        .iter()
        .map(|&(_, r, ok)| {
            (
                r.key,
                if ok.pieces_len > 0 {
                    ok.pieces_len
                } else {
                    keys[r.key as usize].n
                },
            )
        })
        .collect();
    let canon: HashMap<u32, &OkReply> = served.iter().map(|&(_, r, ok)| (r.key, ok)).collect();

    // --- miss path per key: build, α, sequential and pooled kernels ---
    let pool =
        gb_parlb::ThreadPool::new(std::thread::available_parallelism().map_or(4, |n| n.get()));
    let mut key_cost: HashMap<u32, f64> = HashMap::new();
    let mut cell_cost: HashMap<(&'static str, Algorithm, usize), (f64, usize)> = HashMap::new();
    let (mut pooled_ns, mut seq_ns) = (0u64, 0u64);
    for &(i, k) in distinct.iter().take(MAX_KEYS) {
        let key = &keys[k as usize];
        let (req, n) = (i as u64, key.n);
        let root = tr.open("request", req);
        let (problem, build_ns) = tr.time("problems.build", req, root, 1, || key.spec.build());
        let (alpha, alpha_ns) = tr.time("problems.alpha", req, root, 1, || {
            served_alpha(&key.spec, &problem, n)
        });
        let p = problem.clone();
        let seq = match key.alg {
            Algorithm::Hf | Algorithm::Phf => {
                tr.time("core.hf", req, root, 1, || gb_core::hf(p, n))
            }
            Algorithm::Ba => tr.time("core.ba", req, root, 1, || gb_core::ba(p, n)),
            Algorithm::BaHf => tr.time("core.ba_hf", req, root, 1, || {
                gb_core::ba_hf(p, n, alpha, key.theta)
            }),
        }
        .1;
        // The kernel gb-serve runs: sequential HF, the pool otherwise.
        let theta = key.theta;
        let served = match key.alg {
            Algorithm::Hf => seq,
            Algorithm::Ba => {
                tr.time("parlb.par_ba", req, root, 1, || {
                    gb_parlb::par_ba(&pool, problem, n)
                })
                .1
            }
            Algorithm::BaHf => {
                tr.time("parlb.par_ba_hf", req, root, 1, || {
                    gb_parlb::par_ba_hf(&pool, problem, n, alpha, theta)
                })
                .1
            }
            Algorithm::Phf => {
                tr.time("parlb.par_phf", req, root, 1, || {
                    gb_parlb::par_phf(&pool, problem, n, alpha)
                })
                .1
            }
        };
        if key.alg != Algorithm::Hf {
            pooled_ns += served;
            seq_ns += seq;
        }
        tr.close(root);
        let miss = (build_ns + alpha_ns + served) as f64;
        tr.add(class_metric(&key.spec), miss as u64);
        key_cost.insert(k, miss);
        let cell = cell_cost
            .entry((key.spec.class(), key.alg, key.n))
            .or_default();
        cell.0 += miss;
        cell.1 += 1;
    }
    drop(pool);
    let replayed: Vec<u32> = distinct.iter().take(MAX_KEYS).map(|d| d.1).collect();
    for chunk in replayed.chunks(BATCH) {
        let args: Vec<(Algorithm, f64, f64, usize)> = chunk
            .iter()
            .map(|k| {
                let ok = canon[k];
                (
                    keys[*k as usize].alg,
                    ok.alpha,
                    keys[*k as usize].theta,
                    keys[*k as usize].n,
                )
            })
            .collect();
        tr.time("core.bound", 0, 0, args.len(), || {
            args.iter()
                .map(|&(a, al, th, n)| bound(a, al, th, n))
                .sum::<f64>()
        });
    }

    // --- codec: frame reading, decode, encode, hit stitching ---
    let frames: Vec<(WireCodec, Vec<u8>)> = sample
        .iter()
        .map(|&(i, r, _)| (r.codec, input.plan.frame(r, i as u64)))
        .collect();
    for chunk in frames.chunks(BATCH) {
        let bytes: Vec<u8> = chunk.iter().flat_map(|f| f.1.iter().copied()).collect();
        tr.time("proto.frame_read", 0, 0, chunk.len(), || {
            let mut reader = FrameReader::new(&bytes[..]);
            let mut got = 0;
            while got < chunk.len() {
                match reader.poll_line() {
                    Ok(Frame::Line(_)) | Ok(Frame::Binary(_)) => got += 1,
                    _ => break,
                }
            }
            got
        });
    }
    for codec in [WireCodec::Json, WireCodec::Binary] {
        let payloads: Vec<&[u8]> = frames
            .iter()
            .filter(|f| f.0 == codec)
            .map(|f| match codec {
                WireCodec::Json => &f.1[..f.1.len() - 1],
                WireCodec::Binary => &f.1[5..],
            })
            .collect();
        let name = match codec {
            WireCodec::Json => "proto.json_decode",
            WireCodec::Binary => "proto.binary_decode",
        };
        for chunk in payloads.chunks(BATCH) {
            tr.time(name, 0, 0, chunk.len(), || {
                chunk
                    .iter()
                    .filter(|p| codec.decode_request(p).is_ok())
                    .count()
            });
        }
    }
    for chunk in sample.chunks(BATCH) {
        let specs: Vec<&ProblemSpec> = chunk.iter().map(|s| &keys[s.1.key as usize].spec).collect();
        tr.time("spec.fingerprint", 0, 0, specs.len(), || {
            specs.iter().fold(0u64, |h, s| h ^ s.fingerprint())
        });
    }
    let result_of = |k: u32| {
        let ok = canon[&k];
        CachedResult::new(vec![1.0; pieces_len[&k]], ok.ratio, ok.bound, ok.alpha)
    };
    let responses: Vec<(WireCodec, Response)> = sample
        .iter()
        .map(|&(i, r, ok)| {
            (
                r.codec,
                Response::Ok(BalanceResponse {
                    id: Some(i as u64),
                    algorithm: ok.algorithm,
                    n: ok.n,
                    ratio: ok.ratio,
                    bound: ok.bound,
                    alpha: ok.alpha,
                    cached: false,
                    micros: ok.micros,
                    pieces: if r.pieces {
                        vec![1.0; pieces_len[&r.key]]
                    } else {
                        Vec::new()
                    },
                }),
            )
        })
        .collect();
    for codec in [WireCodec::Json, WireCodec::Binary] {
        let name = match codec {
            WireCodec::Json => "proto.json_encode",
            WireCodec::Binary => "proto.binary_encode",
        };
        let mine: Vec<&Response> = responses
            .iter()
            .filter(|r| r.0 == codec)
            .map(|r| &r.1)
            .collect();
        let mut out = Vec::with_capacity(1 << 16);
        for chunk in mine.chunks(BATCH) {
            tr.time(name, 0, 0, chunk.len(), || {
                for resp in chunk {
                    out.clear();
                    codec.encode_response(resp, &mut out);
                }
                out.len()
            });
        }
    }
    // Hit replies: tails built once per (key, codec, pieces), as the
    // cache does, then one splice per request.
    let mut tails: HashMap<(u32, WireCodec, bool), (Vec<u8>, usize)> = HashMap::new();
    for &(_, r, ok) in &sample {
        tails.entry((r.key, r.codec, r.pieces)).or_insert_with(|| {
            let pieces = if r.pieces {
                vec![1.0; pieces_len[&r.key]]
            } else {
                Vec::new()
            };
            match r.codec {
                WireCodec::Json => {
                    json_ok_tail(ok.algorithm, ok.n, ok.ratio, ok.bound, ok.alpha, &pieces)
                }
                WireCodec::Binary => {
                    let mut bytes = Vec::new();
                    binary_ok_tail(
                        ok.algorithm,
                        ok.n,
                        ok.ratio,
                        ok.bound,
                        ok.alpha,
                        &pieces,
                        &mut bytes,
                    );
                    let split = bytes.len();
                    (bytes, split)
                }
            }
        });
    }
    for codec in [WireCodec::Json, WireCodec::Binary] {
        let name = match codec {
            WireCodec::Json => "proto.json_hit_reply",
            WireCodec::Binary => "proto.binary_hit_reply",
        };
        let mine: Vec<(u64, &(Vec<u8>, usize))> = sample
            .iter()
            .filter(|s| s.1.codec == codec)
            .map(|&(i, r, _)| (i as u64, &tails[&(r.key, r.codec, r.pieces)]))
            .collect();
        let mut out = Vec::with_capacity(1 << 16);
        for chunk in mine.chunks(BATCH) {
            tr.time(name, 0, 0, chunk.len(), || {
                for &(id, (tail, split)) in chunk {
                    out.clear();
                    match codec {
                        WireCodec::Json => json_hit_reply(&mut out, Some(id), 4, tail, *split),
                        WireCodec::Binary => binary_hit_reply(&mut out, Some(id), 4, tail),
                    }
                }
                out.len()
            });
        }
    }

    // --- cache: puts of every served key, then hits and misses ---
    let cache_key = |k: u32| {
        let key = &keys[k as usize];
        CacheKey::new(key.spec.fingerprint(), key.alg, key.n, key.theta)
    };
    let cache = ShardedCache::new(input.cache_cap, 8, true);
    // Untimed: the fleet's cache fill, so timed puts evict as the
    // fleet's do.
    for r in &input.plan.fill {
        let n = keys[r.key as usize].n;
        cache.put(
            cache_key(r.key),
            CachedResult::new(vec![1.0; n], 1.0, 1.0, 0.5),
        );
    }
    let mut put_order: Vec<u32> = Vec::new();
    let mut put_seen = HashSet::new();
    for &(_, r, _) in &served {
        if put_seen.insert(r.key) {
            put_order.push(r.key);
        }
    }
    for chunk in put_order.chunks(BATCH) {
        let items: Vec<(CacheKey, CachedResult)> = chunk
            .iter()
            .map(|&k| (cache_key(k), result_of(k)))
            .collect();
        tr.time("cache.put", 0, 0, items.len(), || {
            for (k, v) in items {
                cache.put(k, v);
            }
        });
    }
    let hit_keys: Vec<CacheKey> = sample
        .iter()
        .map(|s| cache_key(s.1.key))
        .filter(|k| cache.contains(k))
        .collect();
    for chunk in hit_keys.chunks(BATCH) {
        tr.time("cache.get_hit", 0, 0, chunk.len(), || {
            chunk.iter().filter_map(|k| cache.get(k)).count()
        });
    }
    let miss_keys: Vec<CacheKey> = sample
        .iter()
        .map(|s| {
            let mut k = cache_key(s.1.key);
            k.problem ^= 0x6d69_7373_6d69_7373;
            k
        })
        .collect();
    for chunk in miss_keys.chunks(BATCH) {
        tr.time("cache.get_miss", 0, 0, chunk.len(), || {
            chunk.iter().filter_map(|k| cache.get(k)).count()
        });
    }

    // --- routing ring and the rebalance planner ---
    let ring = FailoverRing::new(2, DEFAULT_VNODES);
    let mixes: Vec<u64> = sample.iter().map(|s| cache_key(s.1.key).mix()).collect();
    for chunk in mixes.chunks(BATCH) {
        tr.time("route.route", 0, 0, chunk.len(), || {
            chunk.iter().filter_map(|&m| ring.route(m)).count()
        });
    }
    let mean_miss_ns = if key_cost.is_empty() {
        0.0
    } else {
        key_cost.values().sum::<f64>() / key_cost.len() as f64
    };
    let mut weights = vec![0.0; ring.vnode_count()];
    for &(_, r, ok) in &served {
        let mix = cache_key(r.key).mix();
        weights[ring.vnode_of(mix)] += if ok.cached {
            gb_rebal::HIT_COST_MICROS
        } else {
            key_cost.get(&r.key).copied().unwrap_or(mean_miss_ns) / 1e3
        };
    }
    let owners = ring.default_owners();
    let defaults = gb_rebal::RebalanceSettings::default();
    for tick in 0..20 {
        tr.time("rebal.plan", tick, 0, 1, || {
            gb_rebal::plan(
                &weights,
                &owners,
                &[0, 1],
                defaults.trigger,
                defaults.move_budget,
            )
        });
    }

    // --- work queue handoff: push here, pop on a worker thread ---
    let handoffs = served.len().clamp(1, MAX_HANDOFFS);
    let queue: Arc<StealQueue<Instant>> = Arc::new(StealQueue::new(2, 1024));
    let (tx, rx) = mpsc::channel::<Instant>();
    let workers: Vec<_> = (0..2)
        .map(|w| {
            let queue = Arc::clone(&queue);
            let tx = tx.clone();
            std::thread::spawn(move || {
                while let Some(pushed) = queue.pop(w) {
                    let _ = pushed;
                    if tx.send(Instant::now()).is_err() {
                        break;
                    }
                }
            })
        })
        .collect();
    drop(tx);
    for h in 0..handoffs {
        // A pause between pushes lets the workers park, as they do
        // between requests at the workload's rate.
        std::thread::sleep(Duration::from_micros(200));
        let pushed = Instant::now();
        if queue.try_push(pushed).is_err() {
            continue;
        }
        let popped = rx
            .recv()
            .map_err(|_| io::Error::other("handoff worker died"))?;
        tr.record("shed.handoff", h as u64, 0, pushed, popped, 1);
    }
    queue.close();
    for w in workers {
        w.join()
            .map_err(|_| io::Error::other("handoff worker panicked"))?;
    }

    // --- store: appends of every served key, then recovery ---
    let store_dir = input.work.join("replay-store");
    let _ = std::fs::remove_dir_all(&store_dir);
    {
        let (mut store, _) = gb_store::Store::open(StoreSettings::new(&store_dir).to_config())?;
        for &k in &put_order {
            let (kb, vb) = (encode_key(&cache_key(k)), encode_value(&result_of(k)));
            tr.time("store.append", k as u64, 0, 1, || store.append(&kb, &vb))
                .0?;
        }
    }
    let recover_from = input.recover_dir.unwrap_or(&store_dir);
    let cpu0 = thread_cpu_ns();
    let (_, recovered) = gb_store::Store::open(StoreSettings::new(recover_from).to_config())?;
    let recover_cpu_s = (thread_cpu_ns() - cpu0) as f64 / 1e9;
    let records_recovered = recovered.len();
    drop(recovered);
    let _ = std::fs::remove_dir_all(&store_dir);

    // --- the router's hop: pooled upstream round trips ---
    let server = Server::start(ServerConfig {
        addr: "127.0.0.1:0".into(),
        cache_capacity: input.cache_cap,
        ..ServerConfig::default()
    })?;
    let pool = UpstreamPool::new(
        server.local_addr(),
        UPSTREAM_CONN_BASE,
        Arc::new(Passthrough),
        Duration::from_secs(2),
        Duration::from_secs(2),
        4,
    );
    let hops: Vec<&(WireCodec, Vec<u8>)> = frames.iter().take(MAX_HOPS).collect();
    // First pass fills the upstream's cache, so the timed pass is the
    // hop itself around a hit.
    for timed in [false, true] {
        for (h, (_, frame)) in hops.iter().enumerate() {
            let start = Instant::now();
            let mut conn = pool.checkout()?;
            conn.call(frame, Duration::from_secs(10))?;
            pool.publish(conn);
            if timed {
                tr.record("router.hop", h as u64, 0, start, Instant::now(), 1);
            }
        }
    }
    drop(pool);
    server.shutdown();

    // --- assemble the metrics: each span's mean per call ---
    let mut m: BTreeMap<String, f64> = BTreeMap::new();
    for span in US_SPANS {
        m.insert(format!("{span}_us"), tr.mean_ns(span) / 1e3);
    }
    for span in NS_SPANS {
        m.insert(format!("{span}_ns"), tr.mean_ns(span));
    }
    m.insert(
        "parlb.over_seq".into(),
        if seq_ns == 0 {
            0.0
        } else {
            pooled_ns as f64 / seq_ns as f64
        },
    );
    m.insert("store.recover_cpu_s".into(), recover_cpu_s);
    m.insert("store.records_recovered".into(), records_recovered as f64);

    // Replayed µs per OK reply: each served request's path through the
    // layers, as gb-serve (and gb-router) walk it.
    let mean = |name: &str| tr.mean_ns(name);
    let decode = |c: WireCodec| match c {
        WireCodec::Json => mean("proto.json_decode"),
        WireCodec::Binary => mean("proto.binary_decode"),
    };
    let cell_mean = |key: &Key| {
        cell_cost
            .get(&(key.spec.class(), key.alg, key.n))
            .map_or(mean_miss_ns, |&(ns, c)| ns / c as f64)
    };
    let mut path_ns = 0.0;
    for &(_, r, ok) in &served {
        path_ns += mean("proto.frame_read") + decode(r.codec) + mean("spec.fingerprint");
        if ok.cached {
            path_ns += mean("cache.get_hit")
                + match r.codec {
                    WireCodec::Json => mean("proto.json_hit_reply"),
                    WireCodec::Binary => mean("proto.binary_hit_reply"),
                };
        } else {
            // The poller checks the cache, the worker checks again.
            path_ns += 2.0 * mean("cache.get_miss")
                + mean("shed.handoff")
                + key_cost
                    .get(&r.key)
                    .copied()
                    .unwrap_or_else(|| cell_mean(&keys[r.key as usize]))
                + mean("core.bound")
                + mean("cache.put")
                + match r.codec {
                    WireCodec::Json => mean("proto.json_encode"),
                    WireCodec::Binary => mean("proto.binary_encode"),
                }
                + if input.spills {
                    mean("store.append")
                } else {
                    0.0
                };
        }
        if input.routed {
            path_ns += mean("proto.frame_read")
                + decode(r.codec)
                + mean("spec.fingerprint")
                + mean("route.route");
        }
    }
    let explained_us_per_ok = if served.is_empty() {
        0.0
    } else {
        path_ns / served.len() as f64 / 1e3
    };
    Ok(Replay {
        tracer: tr,
        metrics: m,
        explained_us_per_ok,
    })
}

/// CPU ns consumed so far by the calling thread.
fn thread_cpu_ns() -> u64 {
    std::fs::read_to_string("/proc/thread-self/schedstat")
        .ok()
        .and_then(|s| s.split_whitespace().next()?.parse().ok())
        .unwrap_or(0)
}
