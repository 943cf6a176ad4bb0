//! Workload inputs: problem keys, request streams and their Poisson
//! schedules, all derived from the run's `--seed`.

use gb_service::proto::{Algorithm, BalanceRequest, Codec, Request, WireCodec};
use gb_service::spec::ProblemSpec;

/// The three workloads. Each stresses a different part of the fleet; see
/// `BENCHMARK.json` for why each was chosen.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// One `gb-serve`, JSON, every request a distinct problem.
    MissMix,
    /// One `gb-serve` restarted on a prepared store; every reply a hit.
    HitWarm,
    /// `gb-router` over two `gb-serve`, binary, Zipf(1.0) keys.
    RoutedZipf,
}

impl Workload {
    pub const ALL: [Workload; 3] = [Workload::MissMix, Workload::HitWarm, Workload::RoutedZipf];

    pub fn name(self) -> &'static str {
        match self {
            Workload::MissMix => "miss-mix",
            Workload::HitWarm => "hit-warm",
            Workload::RoutedZipf => "routed-zipf",
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// Processor counts drawn by `miss-mix` and `hit-warm`.
const N_MIX: [usize; 3] = [16, 256, 1024];
/// Processor counts of the `routed-zipf` keyspace: misses stay cheap
/// enough that the router hop is a visible share of the work.
const N_ROUTED: [usize; 2] = [16, 256];
/// Distinct keys served into the `hit-warm` store (8 full strata).
pub const HIT_KEYS: usize = 576;
/// `routed-zipf` keyspace: 8x the two upstreams' default cache
/// capacity (2 x 1024), so misses keep evicting and spilling.
pub const ZIPF_KEYS: usize = 16_384;
/// Distinct keys that fill the `routed-zipf` caches before the warm-up
/// slice: the most popular ranks, 1.5x the two default caches, so every
/// shard of both upstreams is full and the window's misses evict.
pub const FILL_KEYS: usize = 3072;
/// Zipf exponent of the `routed-zipf` key popularity.
pub const ZIPF_S: f64 = 1.0;
/// Fixed seed of the inputs that must not vary with `--seed`: the
/// warm-up slices, the `hit-warm` store and the `routed-zipf` keyspace.
const FIXED_KEYS_SEED: u64 = 0x6b65_7973;
/// Warm-up slice length, in seconds of the workload's own stream.
const WARMUP_SECONDS: f64 = 1.0;

/// splitmix64: small, fast, and good enough for workload draws.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed ^ 0x5eed_f1ee_7be7_c4a1)
    }

    /// An independent stream for `label`, so adding a draw to one part of
    /// the inputs does not shift every other part.
    pub fn fork(seed: u64, label: &str) -> Rng {
        let mut h = seed;
        for b in label.bytes() {
            h = (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
        }
        let mut r = Rng::new(h);
        r.next_u64();
        r
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut x = self.0;
        x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        x ^ (x >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    pub fn below(&mut self, n: usize) -> usize {
        (self.unit() * n as f64) as usize % n.max(1)
    }

    pub fn range(&mut self, lo: f64, hi: f64) -> f64 {
        lo + (hi - lo) * self.unit()
    }

    pub fn shuffle<T>(&mut self, v: &mut [T]) {
        for i in (1..v.len()).rev() {
            v.swap(i, self.below(i + 1));
        }
    }
}

/// Zipf(s) over ranks `0..n` by inverse-CDF lookup.
#[derive(Debug, Clone)]
pub struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    pub fn new(n: usize, s: f64) -> Zipf {
        let mut acc = 0.0;
        let mut cdf: Vec<f64> = (1..=n)
            .map(|k| {
                acc += 1.0 / (k as f64).powf(s);
                acc
            })
            .collect();
        for c in &mut cdf {
            *c /= acc;
        }
        Zipf { cdf }
    }

    /// P(rank <= k).
    #[cfg(test)]
    pub fn cdf(&self, k: usize) -> f64 {
        self.cdf[k]
    }

    pub fn sample(&self, rng: &mut Rng) -> usize {
        let u = rng.unit();
        self.cdf
            .partition_point(|&c| c <= u)
            .min(self.cdf.len() - 1)
    }
}

/// Arrival times in seconds of a Poisson process of `rate` per second
/// over `[0, seconds)`.
pub fn poisson(rng: &mut Rng, rate: f64, seconds: f64) -> Vec<f64> {
    let mut t = 0.0;
    let mut out = Vec::with_capacity((rate * seconds * 1.1) as usize + 16);
    loop {
        t += -(1.0 - rng.unit()).ln() / rate;
        if t >= seconds {
            return out;
        }
        out.push(t);
    }
}

/// One cache key as the service sees it: problem, algorithm, `N`, θ.
#[derive(Debug, Clone, PartialEq)]
pub struct Key {
    pub spec: ProblemSpec,
    pub alg: Algorithm,
    pub n: usize,
    pub theta: f64,
}

/// One request of a stream.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Req {
    /// Index into [`Plan::keys`].
    pub key: u32,
    pub codec: WireCodec,
    pub pieces: bool,
    /// Scheduled send time, seconds from the start of its stream.
    pub due: f64,
}

/// Everything a run sends, generated up front.
#[derive(Debug, Clone)]
pub struct Plan {
    pub keys: Vec<Key>,
    /// Distinct keys sent once each, closed loop, right after every fleet
    /// start to fill its caches (`routed-zipf` only).
    pub fill: Vec<Req>,
    /// The set-up slice: sent after every fleet start (after the fill),
    /// before timing.
    pub warmup: Vec<Req>,
    /// The measured window.
    pub window: Vec<Req>,
}

impl Plan {
    /// The wire frame of request `req` with correlation id `id`.
    pub fn frame(&self, req: &Req, id: u64) -> Vec<u8> {
        let mut out = Vec::new();
        req.codec.encode_request(&self.request(req, id), &mut out);
        out
    }

    pub fn request(&self, req: &Req, id: u64) -> Request {
        let key = &self.keys[req.key as usize];
        Request::Balance(BalanceRequest {
            id: Some(id),
            algorithm: key.alg,
            n: key.n,
            theta: key.theta,
            deadline_ms: None,
            want_pieces: req.pieces,
            problem: key.spec.clone(),
        })
    }
}

const CLASSES: usize = 6;

/// A problem of class `class` for `n` processors, with seed-drawn shape
/// parameters. Sizes scale with `n` so most problems have a few atoms per
/// processor: a problem with fewer atoms than processors has a ratio set
/// by its heaviest atom, whose seed-to-seed swings would dominate the
/// mean ratio.
fn spec(class: usize, n: usize, rng: &mut Rng) -> ProblemSpec {
    // JSON carries seeds as non-negative i64; 52 bits keep them exact.
    let seed = rng.next_u64() >> 12;
    let mut atoms = |per: usize| per * n + rng.below(per * n);
    match class {
        0 => ProblemSpec::Synthetic {
            weight: 1.0,
            lo: rng.range(0.05, 0.35),
            hi: 0.5,
            seed,
        },
        1 => ProblemSpec::FeTree {
            refinements: 64 + n / 2 + rng.below(n / 2),
            bias: rng.range(0.5, 0.95),
            seed,
        },
        2 => {
            let side = ((4 * n) as f64).sqrt().ceil() as usize;
            ProblemSpec::Grid {
                rows: side + rng.below(side),
                cols: side + rng.below(side),
                hotspots: rng.below(5),
                seed,
            }
        }
        3 => {
            let dims = 1 + rng.below(3);
            ProblemSpec::Quadrature {
                dims,
                sharpness: rng.range(1.0, 10.0),
                min_width: 0.5 * ((8 * n) as f64).powf(-1.0 / dims as f64) * rng.range(0.5, 1.0),
                seed,
            }
        }
        4 => ProblemSpec::SearchTree {
            nodes: 64 + atoms(1),
            branch: 3 + rng.below(4),
            seed,
        },
        _ => ProblemSpec::TaskList {
            tasks: 64 + atoms(4),
            heavy: rng.below(2) == 1,
            seed,
        },
    }
}

/// Keys in strata: every block holds each (class, algorithm, N) cell
/// exactly once in shuffled order, so a stream's mix (and with it the
/// mean cost and mean ratio) barely moves between seeds.
fn stratified_keys(rng: &mut Rng, count: usize, ns: &[usize]) -> Vec<Key> {
    let mut cells: Vec<(usize, Algorithm, usize)> = Vec::new();
    for class in 0..CLASSES {
        for alg in Algorithm::ALL {
            for &n in ns {
                cells.push((class, alg, n));
            }
        }
    }
    let mut keys = Vec::with_capacity(count);
    while keys.len() < count {
        let mut block = cells.clone();
        rng.shuffle(&mut block);
        for (class, alg, n) in block.into_iter().take(count - keys.len()) {
            keys.push(Key {
                spec: spec(class, n, rng),
                alg,
                n,
                theta: 1.0,
            });
        }
    }
    keys
}

/// Half of every stratum asks for pieces.
fn pieces_flags(rng: &mut Rng, count: usize) -> Vec<bool> {
    let mut flags = Vec::with_capacity(count);
    while flags.len() < count {
        let mut block: Vec<bool> = (0..2 * CLASSES).map(|i| i % 2 == 0).collect();
        rng.shuffle(&mut block);
        flags.extend(block);
    }
    flags.truncate(count);
    flags
}

/// Builds a run's inputs. `rate` is the frozen open-loop rate and
/// `seconds` the window length.
pub fn plan(workload: Workload, seed: u64, rate: f64, seconds: f64) -> Plan {
    // The warm-up slice is the same for every seed, so set-up cost varies
    // with the program and not with the inputs.
    let warm_due = poisson(
        &mut Rng::fork(FIXED_KEYS_SEED, "warmup"),
        rate,
        WARMUP_SECONDS,
    );
    let window_due = poisson(&mut Rng::fork(seed, "schedule"), rate, seconds);
    match workload {
        Workload::MissMix => {
            // Every request its own key: warm-up keys first, then window.
            let (warm, win) = (warm_due.len(), window_due.len());
            let mut keys = stratified_keys(&mut Rng::fork(FIXED_KEYS_SEED, "warmup"), warm, &N_MIX);
            keys.extend(stratified_keys(&mut Rng::fork(seed, "keys"), win, &N_MIX));
            let mut flags = pieces_flags(&mut Rng::fork(FIXED_KEYS_SEED, "warmup"), warm);
            flags.extend(pieces_flags(&mut Rng::fork(seed, "pieces"), win));
            let mk = |i: usize, due: f64| Req {
                key: i as u32,
                codec: WireCodec::Json,
                pieces: flags[i],
                due,
            };
            let warmup = warm_due
                .iter()
                .enumerate()
                .map(|(i, &d)| mk(i, d))
                .collect();
            let off = warm_due.len();
            let window = window_due
                .iter()
                .enumerate()
                .map(|(i, &d)| mk(off + i, d))
                .collect();
            Plan {
                keys,
                fill: Vec::new(),
                warmup,
                window,
            }
        }
        Workload::HitWarm => {
            let keys = stratified_keys(&mut Rng::new(FIXED_KEYS_SEED), HIT_KEYS, &N_MIX);
            // Warm-up touches every (key, codec, pieces) reply tail once,
            // so lazily built tails all exist before the window.
            let mut combos: Vec<(u32, WireCodec, bool)> = Vec::new();
            for k in 0..keys.len() as u32 {
                for codec in [WireCodec::Json, WireCodec::Binary] {
                    for pieces in [false, true] {
                        combos.push((k, codec, pieces));
                    }
                }
            }
            Rng::new(FIXED_KEYS_SEED + 1).shuffle(&mut combos);
            let step = 1.0 / rate;
            let warmup = combos
                .iter()
                .enumerate()
                .map(|(i, &(key, codec, pieces))| Req {
                    key,
                    codec,
                    pieces,
                    due: i as f64 * step,
                })
                .collect();
            let mut draw = Rng::fork(seed, "draws");
            let window = window_due
                .iter()
                .enumerate()
                .map(|(i, &due)| Req {
                    key: draw.below(keys.len()) as u32,
                    // Requests alternate connections (even/odd), and
                    // each connection alternates JSON and binary.
                    codec: if (i / 2) % 2 == 0 {
                        WireCodec::Json
                    } else {
                        WireCodec::Binary
                    },
                    pieces: draw.below(2) == 1,
                    due,
                })
                .collect();
            Plan {
                keys,
                fill: Vec::new(),
                warmup,
                window,
            }
        }
        Workload::RoutedZipf => {
            let mut keys = stratified_keys(&mut Rng::new(FIXED_KEYS_SEED), ZIPF_KEYS, &N_ROUTED);
            // Popularity rank is independent of the stratum order.
            Rng::new(FIXED_KEYS_SEED + 2).shuffle(&mut keys);
            let zipf = Zipf::new(keys.len(), ZIPF_S);
            let mk = |draw: &mut Rng, due: f64| Req {
                key: zipf.sample(draw) as u32,
                codec: WireCodec::Binary,
                pieces: draw.below(2) == 1,
                due,
            };
            // Keys are numbered by popularity rank: the fill is the top
            // ranks, in a fixed shuffled order.
            let mut fill: Vec<Req> = (0..FILL_KEYS as u32)
                .map(|key| Req {
                    key,
                    codec: WireCodec::Binary,
                    pieces: false,
                    due: 0.0,
                })
                .collect();
            Rng::new(FIXED_KEYS_SEED + 3).shuffle(&mut fill);
            let mut warm_draw = Rng::fork(FIXED_KEYS_SEED, "warmup");
            let warmup = warm_due.iter().map(|&d| mk(&mut warm_draw, d)).collect();
            let mut draw = Rng::fork(seed, "draws");
            let window = window_due.iter().map(|&d| mk(&mut draw, d)).collect();
            Plan {
                keys,
                fill,
                warmup,
                window,
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn equal_seeds_give_identical_inputs_and_different_seeds_do_not() {
        for w in Workload::ALL {
            let a = plan(w, 7, 200.0, 2.0);
            let b = plan(w, 7, 200.0, 2.0);
            let c = plan(w, 8, 200.0, 2.0);
            assert_eq!(a.window, b.window, "{}", w.name());
            assert_eq!(a.warmup, b.warmup, "{}", w.name());
            assert_eq!(a.keys, b.keys, "{}", w.name());
            assert_eq!(a.fill, c.fill, "{}: the fill is seed-independent", w.name());
            assert_ne!(a.window, c.window, "{}", w.name());
            let dues = |p: &Plan| p.window.iter().map(|r| r.due).collect::<Vec<_>>();
            assert_ne!(dues(&a), dues(&c), "{}", w.name());
            let keys = |p: &Plan| p.window.iter().map(|r| r.key).collect::<Vec<_>>();
            if w != Workload::MissMix {
                // miss-mix numbers its keys by position; its specs differ.
                assert_ne!(keys(&a), keys(&c), "{}", w.name());
            } else {
                assert_ne!(a.keys, c.keys);
            }
        }
    }

    #[test]
    fn poisson_schedule_has_the_asked_rate_and_exponential_gaps() {
        let mut rng = Rng::new(3);
        let t = poisson(&mut rng, 1000.0, 20.0);
        let n = t.len() as f64;
        assert!((n - 20_000.0).abs() < 4.0 * 20_000f64.sqrt(), "count {n}");
        assert!(t.windows(2).all(|w| w[0] <= w[1]));
        // Exponential gaps: P(gap > mean) = 1/e.
        let long = t.windows(2).filter(|w| w[1] - w[0] > 1e-3).count() as f64;
        assert!((long / n - (-1.0f64).exp()).abs() < 0.02, "{}", long / n);
    }

    #[test]
    fn zipf_sampler_matches_its_cdf() {
        let zipf = Zipf::new(1000, 1.0);
        let mut rng = Rng::new(11);
        let draws = 200_000;
        let mut counts = vec![0usize; 1000];
        for _ in 0..draws {
            counts[zipf.sample(&mut rng)] += 1;
        }
        // Kolmogorov-Smirnov distance against the exact CDF; the 99.9%
        // critical value for 200k draws is ~0.0044.
        let mut acc = 0usize;
        let mut ks: f64 = 0.0;
        for (k, c) in counts.iter().enumerate() {
            acc += c;
            ks = ks.max((acc as f64 / draws as f64 - zipf.cdf(k)).abs());
        }
        assert!(ks < 0.0044, "KS distance {ks}");
        // Rank 1 carries 1/H(1000) of the mass.
        let h: f64 = (1..=1000).map(|k| 1.0 / k as f64).sum();
        assert!((zipf.cdf(0) - 1.0 / h).abs() < 1e-12);
    }

    #[test]
    fn strata_cover_every_cell_and_half_ask_for_pieces() {
        let p = plan(Workload::MissMix, 1, 500.0, 2.0);
        let block = CLASSES * Algorithm::ALL.len() * N_MIX.len();
        let first: Vec<(&str, Algorithm, usize)> = p.keys[..block]
            .iter()
            .map(|k| (k.spec.class(), k.alg, k.n))
            .collect();
        for i in 0..first.len() {
            assert!(!first[i + 1..].contains(&first[i]), "cell repeated");
        }
        let all: Vec<Req> = p.warmup.iter().chain(&p.window).copied().collect();
        let with = all.iter().filter(|r| r.pieces).count() as f64;
        assert!((with / all.len() as f64 - 0.5).abs() < 0.02);
    }

    #[test]
    fn routed_fill_overfills_both_default_caches_with_distinct_keys() {
        let p = plan(Workload::RoutedZipf, 1, 200.0, 2.0);
        let distinct: std::collections::HashSet<u32> = p.fill.iter().map(|r| r.key).collect();
        assert_eq!(distinct.len(), p.fill.len());
        // Two upstreams, each with the default cache.
        let cap = gb_service::server::ServerConfig::default().cache_capacity;
        assert!(distinct.len() > 2 * cap, "{} keys", distinct.len());
        assert!(plan(Workload::MissMix, 1, 200.0, 2.0).fill.is_empty());
    }
}
