//! `fleetbench` — the repository's end-to-end benchmark.
//!
//! ```text
//! fleetbench --bin-dir DIR --workload NAME --seed N --seconds S --trace 0|1
//! fleetbench --bin-dir DIR --calibrate [--seconds S]
//! fleetbench --bin-dir DIR --steadiness RUNS [--seconds S]
//! ```
//!
//! A run spawns the real `gb-serve` / `gb-router` release binaries from
//! `DIR`, drives them open-loop at the workload's frozen rate
//! (`rates.json`), checks every answer against a direct `gb-core` call,
//! and prints its metrics as the last line of standard output. See
//! `README.md` beside this crate for the metric definitions.

mod check;
mod drive;
mod fleet;
mod gen;
mod layers;
mod stats;

use std::collections::BTreeMap;
use std::io;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::{Duration, Instant};

use gb_service::proto::Json;

use drive::{Answer, Outcome};
use fleet::{num, Fleet, Sample, ROUTER, SERVE};
use gen::{Plan, Workload};

/// Fleet starts per run; `setup_s`, `cpu_us_per_ok` and `rss_mb` are
/// medians over them.
const FLEETS: usize = 4;
/// Replies may arrive this long after the last scheduled send.
const DRAIN: Duration = Duration::from_secs(5);
/// The quiet interval over which the traced run measures idle CPU.
const QUIET: Duration = Duration::from_secs(1);
/// `gb-router --rebalance-ms` on `routed-zipf`.
const REBALANCE_MS: u32 = 1000;

const RATES: &str = include_str!("../rates.json");
/// Scratch stores and span dumps, relative to the working directory.
const WORK: &str = ".bench_work";

struct Args {
    bin_dir: PathBuf,
    workload: Option<Workload>,
    seed: u64,
    seconds: f64,
    trace: bool,
    calibrate: bool,
    steadiness: Option<usize>,
}

fn parse_args() -> Result<Args, String> {
    let mut a = Args {
        bin_dir: PathBuf::from("target/release"),
        workload: None,
        seed: 1,
        seconds: 10.0,
        trace: false,
        calibrate: false,
        steadiness: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("missing value for {flag}"));
        match flag.as_str() {
            "--bin-dir" => a.bin_dir = PathBuf::from(value()?),
            "--workload" => {
                let v = value()?;
                a.workload = Some(Workload::parse(&v).ok_or(format!("unknown workload {v:?}"))?);
            }
            "--seed" => a.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => a.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?,
            "--trace" => a.trace = value()? == "1",
            "--calibrate" => a.calibrate = true,
            "--steadiness" => {
                a.steadiness = Some(value()?.parse().map_err(|e| format!("--steadiness: {e}"))?)
            }
            other => return Err(format!("unknown flag {other}")),
        }
    }
    if a.seconds.is_nan() || a.seconds <= 0.0 {
        return Err("--seconds must be positive".into());
    }
    Ok(a)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("fleetbench: {e}");
            return ExitCode::from(2);
        }
    };
    let result = if args.calibrate {
        calibrate(&args)
    } else if let Some(runs) = args.steadiness {
        steadiness(&args, runs)
    } else if let Some(w) = args.workload {
        run(&args, w)
    } else {
        Err(io::Error::other(
            "need --workload, --calibrate or --steadiness",
        ))
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("fleetbench: {e}");
            ExitCode::FAILURE
        }
    }
}

// ---------------------------------------------------------------------------
// Frozen rates
// ---------------------------------------------------------------------------

/// The open-loop rate frozen for `w` in `rates.json`.
fn frozen_rate(w: Workload) -> io::Result<f64> {
    let json = Json::parse(RATES).map_err(|e| io::Error::other(format!("rates.json: {e}")))?;
    json.get("workloads")
        .and_then(|ws| ws.get(w.name()))
        .and_then(|r| r.get("rate"))
        .and_then(Json::as_f64)
        .filter(|r| *r > 0.0)
        .ok_or_else(|| io::Error::other(format!("rates.json has no rate for {}", w.name())))
}

// ---------------------------------------------------------------------------
// One measured run
// ---------------------------------------------------------------------------

/// Scratch space for one invocation, removed when dropped.
struct WorkDir(PathBuf);

impl WorkDir {
    fn new(w: Workload) -> io::Result<WorkDir> {
        let dir = Path::new(WORK).join(format!("{}-{}", w.name(), std::process::id()));
        std::fs::create_dir_all(&dir)?;
        Ok(WorkDir(dir))
    }
}

impl Drop for WorkDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// How a workload's fleet is laid out.
struct Layout {
    /// `--cache-cap` of each `gb-serve` (the shipped default otherwise).
    cache_cap: Option<usize>,
    /// The prepared store every start recovers (`hit-warm`).
    prepared: Option<PathBuf>,
    routed: bool,
}

impl Layout {
    /// The layout of `w`; for `hit-warm` this prepares the store.
    fn new(args: &Args, w: Workload, plan: &Plan, work: &Path) -> io::Result<Layout> {
        let mut layout = Layout {
            cache_cap: None,
            prepared: None,
            routed: w == Workload::RoutedZipf,
        };
        if w == Workload::HitWarm {
            // Room for every record, four times over: no shard evicts.
            let cap = 4 * plan.keys.len();
            layout.cache_cap = Some(cap);
            layout.prepared = Some(prepare_store(args, plan, work, cap)?);
        }
        Ok(layout)
    }
}

/// The shipped `gb-serve` cache capacity.
fn default_cache_cap() -> usize {
    gb_service::server::ServerConfig::default().cache_capacity
}

/// Starts the workload's fleet, fills its caches and sends the warm-up
/// slice. Returns the fleet with its set-up CPU-seconds (spawn to end of
/// warm-up, summed over every fleet thread) and wall seconds.
fn start_fleet(
    args: &Args,
    plan: &Plan,
    layout: &Layout,
    work: &Path,
    k: usize,
) -> io::Result<(Fleet, f64, f64)> {
    let started = Instant::now();
    let mut fleet = Fleet::default();
    let local = "127.0.0.1:0".to_string();
    if layout.routed {
        let mut ups = Vec::new();
        for u in 0..2 {
            let dir = fleet::fresh_dir(work, &format!("store-{k}-{u}"))?;
            let args_u = vec![
                "--addr".into(),
                local.clone(),
                "--store-dir".into(),
                path_arg(&dir),
            ];
            ups.push(fleet.spawn(&args.bin_dir, SERVE, &args_u)?);
        }
        let mut r = vec!["--addr".into(), local.clone()];
        for up in ups {
            r.extend(["--upstream".into(), up.to_string()]);
        }
        r.extend(["--rebalance-ms".into(), REBALANCE_MS.to_string()]);
        fleet.spawn(&args.bin_dir, ROUTER, &r)?;
    } else {
        let mut a = vec!["--addr".into(), local];
        if let Some(prepared) = &layout.prepared {
            let dir = fleet::fresh_dir(work, &format!("store-{k}"))?;
            fleet::copy_dir(prepared, &dir)?;
            a.extend(["--store-dir".into(), path_arg(&dir)]);
        }
        if let Some(cap) = layout.cache_cap {
            a.extend(["--cache-cap".into(), cap.to_string()]);
        }
        fleet.spawn(&args.bin_dir, SERVE, &a)?;
    }
    let filled = drive::send_each(fleet.entry(), plan, &plan.fill)?;
    if filled != plan.fill.len() {
        return Err(io::Error::other(format!(
            "cache fill answered {filled} of {}",
            plan.fill.len()
        )));
    }
    drive::open_loop(fleet.entry(), plan, &plan.warmup, DRAIN)?;
    let cpu_s = fleet.sample(false).total_ns() as f64 / 1e9;
    Ok((fleet, cpu_s, started.elapsed().as_secs_f64()))
}

fn path_arg(p: &Path) -> String {
    p.to_str().expect("work paths are ascii").to_string()
}

/// Serves every `hit-warm` key once through `gb-serve` itself so the
/// store holds real answers, then stops it.
fn prepare_store(args: &Args, plan: &Plan, work: &Path, cap: usize) -> io::Result<PathBuf> {
    let dir = fleet::fresh_dir(work, "prepared")?;
    let mut fleet = Fleet::default();
    let addr = fleet.spawn(
        &args.bin_dir,
        SERVE,
        &[
            "--addr".into(),
            "127.0.0.1:0".into(),
            "--store-dir".into(),
            path_arg(&dir),
            "--cache-cap".into(),
            cap.to_string(),
        ],
    )?;
    let reqs: Vec<gen::Req> = (0..plan.keys.len() as u32)
        .map(|key| gen::Req {
            key,
            codec: gb_service::proto::WireCodec::Binary,
            pieces: false,
            due: 0.0,
        })
        .collect();
    let ok = drive::send_each(addr, plan, &reqs)?;
    if ok != reqs.len() {
        return Err(io::Error::other(format!(
            "store preparation answered {ok} of {}",
            reqs.len()
        )));
    }
    let deadline = Instant::now() + Duration::from_secs(20);
    while (num(&fleet::stats(addr)?, "store.appended") as usize) < reqs.len() {
        if Instant::now() > deadline {
            return Err(io::Error::other(
                "store preparation did not persist every key",
            ));
        }
        std::thread::sleep(Duration::from_millis(20));
    }
    fleet.stop(Duration::from_secs(5));
    Ok(dir)
}

/// One fleet start's share of the window.
struct Part {
    /// Range of the window's requests this fleet served.
    reqs: std::ops::Range<usize>,
    before: Sample,
    after: Sample,
    /// Process roles, indexed like [`ThreadStat::proc`](fleet::ThreadStat).
    exes: Vec<&'static str>,
    stats_before: Vec<Json>,
    stats_after: Vec<Json>,
    hwm_kib: u64,
    /// Fleet idle CPU, ns per second (traced runs only).
    idle_ns_per_s: f64,
}

impl Part {
    fn cpu_ns(&self) -> u64 {
        self.after.since(&self.before, |_| true).0
    }

    /// Sum over processes running `exe` of a stats counter in `stats`.
    fn stat(&self, stats: &[Json], exe: &str, path: &str) -> f64 {
        (0..self.exes.len())
            .filter(|&i| self.exes[i] == exe)
            .fold(0.0, |acc, i| acc + num(&stats[i], path))
    }
}

/// Everything one run's window produced.
struct Window {
    plan: Plan,
    /// One per window request, times relative to the window's start.
    outcomes: Vec<Outcome>,
    verdict: check::Verdict,
    parts: Vec<Part>,
    setup_cpu: Vec<f64>,
    setup_wall: Vec<f64>,
    layout: Layout,
}

/// Starts the fleet [`FLEETS`] times. Each start's set-up is measured,
/// then it serves one consecutive slice of the window, so the medians
/// over starts are not carried by one start that landed badly on the
/// shared cores.
fn measure(args: &Args, w: Workload, work: &Path, traced: bool) -> io::Result<Window> {
    fleet::ensure_no_leftovers()?;
    let rate = frozen_rate(w)?;
    let plan = gen::plan(w, args.seed, rate, args.seconds);
    let layout = Layout::new(args, w, &plan, work)?;
    let (mut setup_cpu, mut setup_wall) = (Vec::new(), Vec::new());
    let mut parts = Vec::new();
    let mut outcomes = Vec::with_capacity(plan.window.len());
    let slice = args.seconds / FLEETS as f64;
    for k in 0..FLEETS {
        let (fleet, cpu, wall) = start_fleet(args, &plan, &layout, work, k)?;
        setup_cpu.push(cpu);
        setup_wall.push(wall);
        let idle_ns_per_s = if traced && k == 0 {
            let s0 = fleet.sample(true);
            std::thread::sleep(QUIET);
            let s1 = fleet.sample(true);
            s1.since(&s0, |_| true).0 as f64 / s1.at.duration_since(s0.at).as_secs_f64()
        } else {
            0.0
        };
        let (t0, t1) = (k as f64 * slice, (k + 1) as f64 * slice);
        let lo = plan.window.partition_point(|r| r.due < t0);
        let hi = if k + 1 == FLEETS {
            plan.window.len()
        } else {
            plan.window.partition_point(|r| r.due < t1)
        };
        let reqs: Vec<gen::Req> = plan.window[lo..hi]
            .iter()
            .map(|r| gen::Req {
                due: r.due - t0,
                ..*r
            })
            .collect();
        let stats_of = |f: &Fleet| {
            f.procs
                .iter()
                .map(|p| fleet::stats(p.addr))
                .collect::<io::Result<Vec<_>>>()
        };
        let stats_before = stats_of(&fleet)?;
        let before = fleet.sample(traced);
        let got = drive::open_loop(fleet.entry(), &plan, &reqs, DRAIN)?;
        let after = fleet.sample(traced);
        let hwm_kib = fleet.hwm_kib();
        let stats_after = stats_of(&fleet)?;
        outcomes.extend(got.into_iter().map(|o| Outcome {
            sent: o.sent + t0,
            recv: o.recv + t0,
            ..o
        }));
        parts.push(Part {
            reqs: lo..hi,
            before,
            after,
            exes: fleet.procs.iter().map(|p| p.exe).collect(),
            stats_before,
            stats_after,
            hwm_kib,
            idle_ns_per_s,
        });
        fleet.stop(Duration::from_secs(2));
    }
    let verdict = check::verify(&plan.keys, &plan.window, &outcomes);
    Ok(Window {
        plan,
        outcomes,
        verdict,
        parts,
        setup_cpu,
        setup_wall,
        layout,
    })
}

impl Window {
    fn ok(&self) -> usize {
        self.verdict.verified.iter().filter(|v| **v).count()
    }

    fn oks(&self) -> impl Iterator<Item = &drive::OkReply> {
        self.outcomes
            .iter()
            .zip(&self.verdict.verified)
            .filter(|(_, v)| **v)
            .filter_map(|(o, _)| match &o.answer {
                Answer::Ok(ok) => Some(ok),
                _ => None,
            })
    }

    /// Fleet CPU µs per verified OK reply of each fleet start.
    fn part_cpu_us_per_ok(&self) -> Vec<f64> {
        self.parts
            .iter()
            .map(|p| {
                let ok = self.verdict.verified[p.reqs.clone()]
                    .iter()
                    .filter(|v| **v)
                    .count();
                p.cpu_ns() as f64 / 1e3 / ok.max(1) as f64
            })
            .collect()
    }

    fn cpu_us_per_ok(&self) -> f64 {
        stats::median(&self.part_cpu_us_per_ok())
    }

    /// Fleet CPU ns and seconds over all parts of the window.
    fn cpu_ns(&self) -> u64 {
        self.parts.iter().map(Part::cpu_ns).sum()
    }

    fn window_s(&self) -> f64 {
        self.parts
            .iter()
            .map(|p| p.after.at.duration_since(p.before.at).as_secs_f64())
            .sum()
    }

    /// A stats counter's growth over the window, summed over processes
    /// running `exe`.
    fn stat_delta(&self, exe: &str, path: &str) -> f64 {
        self.parts
            .iter()
            .map(|p| p.stat(&p.stats_after, exe, path) - p.stat(&p.stats_before, exe, path))
            .sum()
    }

    /// A stats counter at the end of the last part.
    fn stat_end(&self, exe: &str, path: &str) -> f64 {
        let p = self.parts.last().expect("at least one part");
        p.stat(&p.stats_after, exe, path)
    }

    /// CPU µs per OK reply of the fleet threads `keep` selects, given
    /// the process role and the thread name.
    fn thread_us_per_ok(&self, keep: impl Fn(&str, &str) -> bool) -> f64 {
        let ns: u64 = self
            .parts
            .iter()
            .map(|p| {
                p.after
                    .since(&p.before, |t| keep(p.exes[t.proc], &t.comm))
                    .0
            })
            .sum();
        ns as f64 / 1e3 / self.ok().max(1) as f64
    }

    fn ctx_switches(&self, keep: impl Fn(&str) -> bool) -> u64 {
        self.parts
            .iter()
            .map(|p| p.after.since(&p.before, |t| keep(p.exes[t.proc])).1)
            .sum()
    }

    fn hit_share(&self) -> f64 {
        let (hits, total) = self
            .oks()
            .fold((0, 0), |(h, t), ok| (h + ok.cached as usize, t + 1));
        hits as f64 / total.max(1) as f64
    }

    fn in_shape(&self, w: Workload) -> bool {
        self.shape_checks(w).iter().all(|(_, pass)| *pass)
    }

    /// The workload's defining properties, read from its own run.
    fn shape_checks(&self, w: Workload) -> Vec<(String, bool)> {
        let hits = self.oks().filter(|ok| ok.cached).count();
        let misses = self.oks().filter(|ok| !ok.cached).count();
        match w {
            Workload::MissMix => vec![(format!("no cached reply ({hits} hits)"), hits == 0)],
            Workload::HitWarm => {
                let fast = self.stat_delta(SERVE, "requests.fast_path");
                vec![
                    (format!("no uncached reply ({misses} misses)"), misses == 0),
                    (
                        format!(
                            "requests.fast_path grew by the window's {} requests ({fast})",
                            self.plan.window.len()
                        ),
                        fast as usize == self.plan.window.len(),
                    ),
                ]
            }
            Workload::RoutedZipf => {
                let share = self.hit_share();
                let evictions = self.stat_delta(SERVE, "cache.evictions");
                let rejects = self.stat_delta(SERVE, "cache.admission_rejects");
                let appended = self.stat_delta(SERVE, "store.appended");
                let ticks = self.stat_end(ROUTER, "router.rebal.ticks");
                let failovers = self.stat_end(ROUTER, "router.failovers");
                vec![
                    (
                        format!("hit share {share:.3} in [0.3, 0.8]"),
                        (0.3..=0.8).contains(&share),
                    ),
                    (
                        format!("cache.evictions {evictions} > 0 (admission rejects {rejects})"),
                        evictions > 0.0,
                    ),
                    (format!("store.appended {appended} > 0"), appended > 0.0),
                    (format!("rebalance ticks {ticks} >= 1"), ticks >= 1.0),
                    (
                        format!("router.failovers {failovers} == 0"),
                        failovers == 0.0,
                    ),
                ]
            }
        }
    }
}

/// Wall-clock figures: printed with every run, never gated.
fn wall_report(win: &Window) -> Vec<(String, f64, &'static str)> {
    let mut lat = Vec::new();
    let (mut hit, mut miss, mut service, mut late) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new());
    for ((r, o), v) in win
        .plan
        .window
        .iter()
        .zip(&win.outcomes)
        .zip(&win.verdict.verified)
    {
        if o.sent.is_finite() {
            late.push((o.sent - r.due) * 1e3);
        }
        let Answer::Ok(ok) = &o.answer else { continue };
        if !*v {
            continue;
        }
        let ms = (o.recv - r.due) * 1e3;
        lat.push(ms);
        if ok.cached {
            hit.push(ms)
        } else {
            miss.push(ms)
        }
        service.push(ok.micros as f64 / 1e3);
    }
    for v in [&mut lat, &mut hit, &mut miss, &mut service, &mut late] {
        v.sort_by(f64::total_cmp);
    }
    let q = |v: &[f64], q: f64| {
        if v.is_empty() {
            f64::NAN
        } else {
            stats::quantile_sorted(v, q)
        }
    };
    let tail_q = stats::tail_quantile(lat.len()).unwrap_or(f64::NAN);
    vec![
        ("lat.p50_ms".into(), q(&lat, 0.5), "ms"),
        ("lat.tail_ms".into(), q(&lat, tail_q), "ms"),
        ("lat.tail_q".into(), tail_q, "quantile"),
        ("lat.samples".into(), lat.len() as f64, "count"),
        ("lat.hit_p50_ms".into(), q(&hit, 0.5), "ms"),
        ("lat.miss_p50_ms".into(), q(&miss, 0.5), "ms"),
        ("lat.service_p50_ms".into(), q(&service, 0.5), "ms"),
        ("gen.late_p50_ms".into(), q(&late, 0.5), "ms"),
        ("gen.late_p99_ms".into(), q(&late, 0.99), "ms"),
        ("setup.wall_s".into(), stats::median(&win.setup_wall), "s"),
    ]
}

type Metrics = Vec<(String, f64, &'static str)>;

fn end_to_end(win: &Window) -> Metrics {
    let oks: Vec<f64> = win.oks().map(|ok| ok.ratio).collect();
    vec![
        ("cpu_us_per_ok".into(), win.cpu_us_per_ok(), "us"),
        (
            "ok_share".into(),
            win.ok() as f64 / win.plan.window.len().max(1) as f64,
            "ratio",
        ),
        (
            "ratio_mean".into(),
            oks.iter().sum::<f64>() / oks.len().max(1) as f64,
            "ratio",
        ),
        (
            "rss_mb".into(),
            stats::median(
                &win.parts
                    .iter()
                    .map(|p| p.hwm_kib as f64 / 1024.0)
                    .collect::<Vec<_>>(),
            ),
            "MiB",
        ),
        ("setup_s".into(), stats::median(&win.setup_cpu), "s"),
    ]
}

fn per_layer(
    w: Workload,
    win: &Window,
    untraced_cpu_us_per_ok: f64,
    work: &Path,
) -> io::Result<Metrics> {
    let recover_dir = win.layout.prepared.as_deref();
    let replay = layers::replay(&layers::ReplayInput {
        plan: &win.plan,
        reqs: &win.plan.window,
        outcomes: &win.outcomes,
        verified: &win.verdict.verified,
        cache_cap: win.layout.cache_cap.unwrap_or_else(default_cache_cap),
        routed: win.layout.routed,
        spills: win.layout.routed || win.layout.prepared.is_some(),
        recover_dir,
        work,
    })?;
    let ok = win.ok().max(1) as f64;
    let per_s = win.window_s().max(1e-9);
    let mut m: Metrics = replay
        .metrics
        .iter()
        .map(|(k, v)| (k.clone(), *v, unit_of(k)))
        .collect();
    let serve = |exe: &str| exe == SERVE;
    let mut push = |name: &str, v: f64, unit: &'static str| m.push((name.to_string(), v, unit));
    push(
        "parlb.pool_cpu_us_per_ok",
        win.thread_us_per_ok(|e, c| serve(e) && c.starts_with("gb-worker-")),
        "us",
    );
    push(
        "shed.steals",
        win.stat_delta(SERVE, "queue.steals"),
        "count",
    );
    push(
        "server.io_cpu_us_per_ok",
        win.thread_us_per_ok(|e, c| serve(e) && c.starts_with("gb-serve-io-")),
        "us",
    );
    push(
        "server.worker_cpu_us_per_ok",
        win.thread_us_per_ok(|e, c| serve(e) && c.starts_with("gb-serve-worker")),
        "us",
    );
    let idle_ns_per_s = win.parts[0].idle_ns_per_s;
    push("server.idle_cpu_ms_per_s", idle_ns_per_s / 1e6, "ms/s");
    push(
        "server.ctx_switches_per_ok",
        win.ctx_switches(serve) as f64 / ok,
        "count",
    );
    push(
        "server.fast_path_share",
        win.stat_delta(SERVE, "requests.fast_path") / ok,
        "ratio",
    );
    let hits = win.stat_delta(SERVE, "cache.hits");
    let misses = win.stat_delta(SERVE, "cache.misses");
    push("cache.hit_share", hits / (hits + misses).max(1.0), "ratio");
    push(
        "cache.evictions",
        win.stat_delta(SERVE, "cache.evictions"),
        "count",
    );
    push(
        "cache.admission_rejects",
        win.stat_delta(SERVE, "cache.admission_rejects"),
        "count",
    );
    push(
        "store.spill_cpu_us_per_ok",
        win.thread_us_per_ok(|e, c| serve(e) && c == "gb-store-spill"),
        "us",
    );
    push(
        "store.spill_dropped",
        win.stat_delta(SERVE, "store.spill_dropped"),
        "count",
    );
    let rebal = if win.layout.routed {
        (ROUTER, "router.rebal")
    } else {
        (SERVE, "rebal")
    };
    push(
        "rebal.moves",
        win.stat_delta(rebal.0, &format!("{}.moved", rebal.1)),
        "count",
    );
    push(
        "rebal.imbalance",
        win.stat_end(rebal.0, &format!("{}.imbalance_after", rebal.1))
            .max(1.0),
        "ratio",
    );
    push(
        "router.cpu_us_per_ok",
        win.thread_us_per_ok(|e, _| e == ROUTER),
        "us",
    );
    push(
        "router.stale_retries",
        win.stat_delta(ROUTER, "router.stale_retries"),
        "count",
    );
    push(
        "router.failovers",
        win.stat_delta(ROUTER, "router.failovers"),
        "count",
    );
    let (mut within, mut alpha, mut n) = (0usize, 0.0, 0usize);
    for ok in win.oks() {
        within += (ok.ratio <= ok.bound) as usize;
        alpha += ok.alpha;
        n += 1;
    }
    push(
        "quality.bound_ok_share",
        within as f64 / n.max(1) as f64,
        "ratio",
    );
    push("quality.alpha_mean", alpha / n.max(1) as f64, "ratio");
    let busy_ns = win.cpu_ns() as f64 - idle_ns_per_s * per_s;
    push(
        "trace.explained_share",
        replay.explained_us_per_ok * 1e3 / (busy_ns / ok).max(1e-9),
        "ratio",
    );
    push(
        "trace.overhead_share",
        win.cpu_us_per_ok() / untraced_cpu_us_per_ok - 1.0,
        "ratio",
    );
    replay
        .tracer
        .write(&Path::new(WORK).join(format!("spans-{}.jsonl", w.name())))?;
    m.sort_by(|a, b| a.0.cmp(&b.0));
    Ok(m)
}

fn unit_of(name: &str) -> &'static str {
    if name.ends_with("_us") {
        "us"
    } else if name.ends_with("_ns") {
        "ns"
    } else if name.ends_with("_s") {
        "s"
    } else if name.ends_with("over_seq") {
        "ratio"
    } else {
        "count"
    }
}

fn print_report(w: Workload, win: &Window) {
    println!(
        "# fleetbench {} window {:.3} s over {} fleet starts, {} requests scheduled, {} verified OK",
        w.name(),
        win.window_s(),
        win.parts.len(),
        win.plan.window.len(),
        win.ok()
    );
    println!(
        "# correctness: {} distinct keys recomputed, {} mismatches",
        win.verdict.keys_checked,
        win.verdict.mismatches.len()
    );
    for m in &win.verdict.mismatches {
        println!("#   MISMATCH {m}");
    }
    let mut failures: BTreeMap<String, usize> = BTreeMap::new();
    for o in &win.outcomes {
        match &o.answer {
            Answer::Missing => *failures.entry("no reply".into()).or_default() += 1,
            Answer::Error(e) => *failures.entry(e.clone()).or_default() += 1,
            Answer::Ok(_) => {}
        }
    }
    for (why, count) in failures {
        println!("#   {count} requests failed: {why}");
    }
    for (what, pass) in win.shape_checks(w) {
        println!("# shape {}: {what}", if pass { "PASS" } else { "FAIL" });
    }
    if !win.in_shape(w) {
        println!("# the run does not have its workload's shape: correct is false");
    }
    println!(
        "# cpu_us_per_ok per fleet start = {:?} us",
        win.part_cpu_us_per_ok()
    );
    println!("# setup_s per fleet start = {:?} s", win.setup_cpu);
    for (name, v, unit) in wall_report(win) {
        println!("# {name} = {v} {unit}");
    }
}

/// `correct` is false when a reply failed the check or the run lost its
/// workload's shape.
fn print_result(w: Workload, win: &Window, metrics: &Metrics) {
    let attempted = win.plan.window.len();
    let ok = win.ok();
    for (name, v, unit) in metrics {
        println!("# {name} = {v} {unit}");
    }
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, v, unit)| {
            format!(
                "\"{name}\":{{\"value\":{},\"unit\":\"{unit}\"}}",
                json_num(*v)
            )
        })
        .collect();
    println!(
        "{{\"correct\":{},\"attempted\":{attempted},\"failed\":{},\"metrics\":{{{}}}}}",
        win.verdict.mismatches.is_empty() && win.in_shape(w),
        attempted - ok,
        body.join(",")
    );
}

/// A finite JSON number with every digit `f64` holds.
fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "0.0".into()
    }
}

fn run(args: &Args, w: Workload) -> io::Result<()> {
    let work = WorkDir::new(w)?;
    let win = measure(args, w, &work.0, false)?;
    if win.ok() == 0 {
        return Err(io::Error::other("no verified OK reply in the window"));
    }
    print_report(w, &win);
    if !args.trace {
        print_result(w, &win, &end_to_end(&win));
        return Ok(());
    }
    // The traced run: same seed and rate on a fresh fleet, with per-thread
    // readings and an idle interval; its CPU against the untraced run's is
    // the tracing overhead.
    let untraced = win.cpu_us_per_ok();
    drop(win);
    let traced = measure(args, w, &work.0, true)?;
    print_report(w, &traced);
    let metrics = per_layer(w, &traced, untraced, &work.0)?;
    print_result(w, &traced, &metrics);
    Ok(())
}

// ---------------------------------------------------------------------------
// Calibration and steadiness
// ---------------------------------------------------------------------------

fn calibrate(args: &Args) -> io::Result<()> {
    let mut entries = Vec::new();
    for w in Workload::ALL {
        let work = WorkDir::new(w)?;
        fleet::ensure_no_leftovers()?;
        // A generous nominal rate: enough distinct requests to stay
        // closed-loop busy for the whole interval.
        let plan = gen::plan(w, args.seed, 20_000.0, args.seconds);
        let layout = Layout::new(args, w, &plan, &work.0)?;
        let (fleet, _, _) = start_fleet(args, &plan, &layout, &work.0, 0)?;
        let capacity = drive::closed_loop(fleet.entry(), &plan, &plan.window, args.seconds)?;
        fleet.stop(Duration::from_secs(2));
        eprintln!(
            "fleetbench: {} closed-loop capacity {capacity:.1} ok/s",
            w.name()
        );
        entries.push(format!(
            "    \"{}\": {{\"rate\": {:.0}, \"capacity\": {:.0}}}",
            w.name(),
            capacity / 4.0,
            capacity
        ));
    }
    let rustc = std::process::Command::new("rustc")
        .arg("-V")
        .output()
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_default();
    let kernel = std::fs::read_to_string("/proc/sys/kernel/osrelease").unwrap_or_default();
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    println!(
        "{{\n  \"box\": {{\"nproc\": {nproc}, \"rustc\": \"{rustc}\", \"kernel\": \"{}\"}},\n  \"workloads\": {{\n{}\n  }}\n}}",
        kernel.trim(),
        entries.join(",\n")
    );
    Ok(())
}

/// Runs every workload `runs` times, interleaved, each run a separate
/// invocation of this binary with its own seed, and prints each
/// metric's median, quartiles and spread ÷ median against its bound in
/// `BENCHMARK.json`.
fn steadiness(args: &Args, runs: usize) -> io::Result<()> {
    let exe = std::env::current_exe()?;
    let bounds = read_bounds();
    let mut values: BTreeMap<(&str, String), Vec<f64>> = BTreeMap::new();
    let mut incorrect: BTreeMap<&str, usize> = BTreeMap::new();
    for seed in 1..=runs as u64 {
        for w in Workload::ALL {
            let out = std::process::Command::new(&exe)
                .args([
                    "--bin-dir",
                    &path_arg(&args.bin_dir),
                    "--workload",
                    w.name(),
                ])
                .args([
                    "--seed",
                    &seed.to_string(),
                    "--seconds",
                    &args.seconds.to_string(),
                    "--trace",
                    "0",
                ])
                .output()?;
            let stdout = String::from_utf8_lossy(&out.stdout);
            let last = stdout.lines().last().unwrap_or_default();
            let json = Json::parse(last).map_err(|e| {
                io::Error::other(format!(
                    "{} seed {seed}: no result ({e}); stderr: {}",
                    w.name(),
                    String::from_utf8_lossy(&out.stderr)
                ))
            })?;
            eprintln!("fleetbench: {} seed {seed}: {last}", w.name());
            let correct = json.get("correct").and_then(Json::as_bool) == Some(true);
            *incorrect.entry(w.name()).or_default() += usize::from(!correct);
            if let Some(Json::Obj(metrics)) = json.get("metrics") {
                for (name, m) in metrics {
                    let v = m.get("value").and_then(Json::as_f64).unwrap_or(f64::NAN);
                    values.entry((w.name(), name.clone())).or_default().push(v);
                }
            }
        }
    }
    println!(
        "{:<12} {:<16} {:>14} {:>14} {:>14} {:>9} {:>7}",
        "workload", "metric", "q1", "median", "q3", "spread", "bound"
    );
    for ((w, name), v) in &values {
        let (q1, med, q3) = stats::quartiles(v);
        let spread = (q3 - q1) / med.abs();
        let bound = bounds.get(name).copied();
        let flag = match bound {
            Some(b) if spread > b => "  EXCEEDS BOUND",
            Some(b) if spread > b / 3.0 => "  above a third of the bound",
            _ => "",
        };
        println!(
            "{w:<12} {name:<16} {q1:>14.6} {med:>14.6} {q3:>14.6} {spread:>9.4} {:>7}{flag}",
            bound.map_or("-".into(), |b| format!("{b}"))
        );
    }
    for (w, n) in incorrect {
        println!("{w:<12} runs with correct=false: {n} of {runs}");
    }
    Ok(())
}

/// `end_to_end` bounds from `BENCHMARK.json` at the checkout root.
fn read_bounds() -> BTreeMap<String, f64> {
    let mut out = BTreeMap::new();
    let Ok(text) = std::fs::read_to_string("BENCHMARK.json") else {
        return out;
    };
    if let Ok(json) = Json::parse(&text) {
        for m in json.get("end_to_end").and_then(Json::as_arr).unwrap_or(&[]) {
            if let (Some(n), Some(b)) = (
                m.get("name").and_then(Json::as_str),
                m.get("bound").and_then(Json::as_f64),
            ) {
                out.insert(n.to_string(), b);
            }
        }
    }
    out
}
