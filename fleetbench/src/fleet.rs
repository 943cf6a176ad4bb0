//! The process fleet: spawning `gb-serve` / `gb-router`, reading their
//! CPU, memory and `stats` from outside, and reaping them on every exit
//! path.

use std::collections::HashMap;
use std::io::{self, BufRead, BufReader};
use std::net::SocketAddr;
use std::os::unix::process::CommandExt;
use std::path::{Path, PathBuf};
use std::process::{Child, ChildStdout, Command, Stdio};
use std::time::{Duration, Instant};

use gb_service::client::Client;
use gb_service::proto::{Json, Request, Response};

/// Names of the fleet's executables (also their `/proc/<pid>/comm`).
pub const SERVE: &str = "gb-serve";
pub const ROUTER: &str = "gb-router";

extern "C" {
    fn prctl(option: i32, arg2: u64, arg3: u64, arg4: u64, arg5: u64) -> i32;
}
const PR_SET_PDEATHSIG: i32 = 1;
const SIGKILL: u64 = 9;

/// Refuses to run while a fleet process from an earlier run lives: a
/// leaked idle server burns CPU that every later measurement would
/// absorb.
pub fn ensure_no_leftovers() -> io::Result<()> {
    let mut found = Vec::new();
    for entry in std::fs::read_dir("/proc")? {
        let entry = entry?;
        let name = entry.file_name();
        let Some(pid) = name.to_str().and_then(|s| s.parse::<u32>().ok()) else {
            continue;
        };
        if let Ok(comm) = std::fs::read_to_string(entry.path().join("comm")) {
            let comm = comm.trim();
            if comm == SERVE || comm == ROUTER {
                found.push(format!("{comm} (pid {pid})"));
            }
        }
    }
    if found.is_empty() {
        Ok(())
    } else {
        Err(io::Error::other(format!(
            "refusing to start: fleet processes from an earlier run are alive: {}",
            found.join(", ")
        )))
    }
}

/// One spawned server process.
#[derive(Debug)]
pub struct Proc {
    pub exe: &'static str,
    pub pid: u32,
    pub addr: SocketAddr,
    child: Child,
    _stdout: BufReader<ChildStdout>,
}

/// Every process a workload spawned. Dropping the fleet kills and reaps
/// them all, so panics and early returns leave nothing behind; the
/// children also get `SIGKILL` from the kernel if this process dies.
#[derive(Debug, Default)]
pub struct Fleet {
    pub procs: Vec<Proc>,
}

impl Fleet {
    /// Spawns `bin_dir/exe args...` and waits for its listening line.
    pub fn spawn(
        &mut self,
        bin_dir: &Path,
        exe: &'static str,
        args: &[String],
    ) -> io::Result<SocketAddr> {
        let mut cmd = Command::new(bin_dir.join(exe));
        cmd.args(args)
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit());
        // SAFETY: prctl(PR_SET_PDEATHSIG) is async-signal-safe and touches
        // no memory of the parent; it runs in the forked child before exec.
        unsafe {
            cmd.pre_exec(|| {
                if prctl(PR_SET_PDEATHSIG, SIGKILL, 0, 0, 0) != 0 {
                    return Err(io::Error::last_os_error());
                }
                Ok(())
            });
        }
        let mut child = cmd.spawn()?;
        let pid = child.id();
        let mut stdout = BufReader::new(child.stdout.take().expect("stdout is piped"));
        let mut line = String::new();
        let read = stdout.read_line(&mut line);
        // Parse "<exe> listening on ADDR ..." before registering, but
        // register first so a failure still reaps the child.
        self.procs.push(Proc {
            exe,
            pid,
            addr: "0.0.0.0:0".parse().expect("literal address"),
            child,
            _stdout: stdout,
        });
        read?;
        let addr = line
            .split_whitespace()
            .nth(3)
            .and_then(|a| a.parse().ok())
            .ok_or_else(|| io::Error::other(format!("{exe} did not start: {line:?}")))?;
        self.procs.last_mut().expect("just pushed").addr = addr;
        Ok(addr)
    }

    /// Where clients connect: the router if there is one.
    pub fn entry(&self) -> SocketAddr {
        self.procs
            .iter()
            .find(|p| p.exe == ROUTER)
            .or(self.procs.first())
            .expect("fleet is not empty")
            .addr
    }

    pub fn serves(&self) -> impl Iterator<Item = &Proc> {
        self.procs.iter().filter(|p| p.exe == SERVE)
    }

    /// Per-thread CPU (and, with `ctx`, context switches) of the fleet.
    pub fn sample(&self, ctx: bool) -> Sample {
        let mut threads = HashMap::new();
        for (i, p) in self.procs.iter().enumerate() {
            let Ok(dir) = std::fs::read_dir(format!("/proc/{}/task", p.pid)) else {
                continue;
            };
            for t in dir.flatten() {
                let path = t.path();
                let Some(tid) = t.file_name().to_str().and_then(|s| s.parse::<u32>().ok()) else {
                    continue;
                };
                // schedstat: on-CPU ns (user + system), then wait ns.
                let Some(cpu_ns) = std::fs::read_to_string(path.join("schedstat"))
                    .ok()
                    .and_then(|s| s.split_whitespace().next()?.parse::<u64>().ok())
                else {
                    continue;
                };
                let comm = std::fs::read_to_string(path.join("comm")).unwrap_or_default();
                let switches = if ctx { ctx_switches(&path) } else { 0 };
                threads.insert(
                    tid,
                    ThreadStat {
                        proc: i,
                        comm: comm.trim().to_string(),
                        cpu_ns,
                        switches,
                    },
                );
            }
        }
        Sample {
            at: Instant::now(),
            threads,
        }
    }

    /// Sum of the fleet's peak resident set sizes (`VmHWM`), KiB.
    pub fn hwm_kib(&self) -> u64 {
        self.procs
            .iter()
            .filter_map(|p| {
                let status = std::fs::read_to_string(format!("/proc/{}/status", p.pid)).ok()?;
                let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
                line.split_whitespace().nth(1)?.parse::<u64>().ok()
            })
            .sum()
    }

    /// Stops every process: `shutdown` frame first (the router forwards
    /// it), then `SIGKILL` for anything still alive after `grace`.
    pub fn stop(mut self, grace: Duration) {
        for p in self
            .procs
            .iter()
            .filter(|p| p.exe == ROUTER)
            .chain(self.serves())
        {
            let _ = Client::connect_timeout(p.addr, Some(Duration::from_millis(500)))
                .and_then(|mut c| c.call(&Request::Shutdown));
        }
        let deadline = Instant::now() + grace;
        for p in &mut self.procs {
            while Instant::now() < deadline {
                match p.child.try_wait() {
                    Ok(None) => std::thread::sleep(Duration::from_millis(5)),
                    _ => break,
                }
            }
        }
        // Drop kills and reaps the rest.
    }
}

impl Drop for Fleet {
    fn drop(&mut self) {
        for p in &mut self.procs {
            let _ = p.child.kill();
            let _ = p.child.wait();
        }
    }
}

fn ctx_switches(task: &Path) -> u64 {
    std::fs::read_to_string(task.join("status"))
        .map(|s| {
            s.lines()
                .filter(|l| l.contains("ctxt_switches:"))
                .filter_map(|l| l.split_whitespace().nth(1)?.parse::<u64>().ok())
                .sum()
        })
        .unwrap_or(0)
}

#[derive(Debug, Clone)]
pub struct ThreadStat {
    /// Index of the owning process in [`Fleet::procs`].
    pub proc: usize,
    pub comm: String,
    pub cpu_ns: u64,
    pub switches: u64,
}

/// A point-in-time reading of every fleet thread.
#[derive(Debug, Clone)]
pub struct Sample {
    pub at: Instant,
    pub threads: HashMap<u32, ThreadStat>,
}

impl Sample {
    /// CPU ns and context switches spent since `before` by threads that
    /// `keep` selects. A thread born after `before` counts from zero.
    pub fn since(&self, before: &Sample, keep: impl Fn(&ThreadStat) -> bool) -> (u64, u64) {
        let mut cpu = 0;
        let mut switches = 0;
        for (tid, t) in &self.threads {
            if !keep(t) {
                continue;
            }
            let (c0, s0) = before
                .threads
                .get(tid)
                .map_or((0, 0), |b| (b.cpu_ns, b.switches));
            cpu += t.cpu_ns.saturating_sub(c0);
            switches += t.switches.saturating_sub(s0);
        }
        (cpu, switches)
    }

    /// Total CPU ns of the fleet since its threads were born.
    pub fn total_ns(&self) -> u64 {
        self.threads.values().map(|t| t.cpu_ns).sum()
    }
}

/// The `stats` object of the server at `addr`.
pub fn stats(addr: SocketAddr) -> io::Result<Json> {
    let mut client = Client::connect_timeout(addr, Some(Duration::from_secs(2)))?;
    match client.call(&Request::Stats)? {
        Response::Stats(json) => Ok(json),
        other => Err(io::Error::other(format!(
            "unexpected stats reply {other:?}"
        ))),
    }
}

/// A number at a dotted `path` inside a stats object (0 when absent).
pub fn num(json: &Json, path: &str) -> f64 {
    path.split('.')
        .try_fold(json, |j, k| j.get(k))
        .and_then(Json::as_f64)
        .unwrap_or(0.0)
}

/// A fresh scratch directory under the run's work directory.
pub fn fresh_dir(root: &Path, name: &str) -> io::Result<PathBuf> {
    let dir = root.join(name);
    if dir.exists() {
        std::fs::remove_dir_all(&dir)?;
    }
    std::fs::create_dir_all(&dir)?;
    Ok(dir)
}

/// Copies the flat directory `from` (a store's segment files) to `to`.
pub fn copy_dir(from: &Path, to: &Path) -> io::Result<()> {
    for entry in std::fs::read_dir(from)? {
        let entry = entry?;
        std::fs::copy(entry.path(), to.join(entry.file_name()))?;
    }
    Ok(())
}
