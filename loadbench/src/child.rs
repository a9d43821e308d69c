//! The `iyp serve` child process: start, time to first connect, read
//! its CPU time and peak memory from `/proc`, and kill it.

use iyp_server::Client;
use std::fs::File;
use std::io::{BufRead, BufReader};
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::sync::mpsc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// How long a child may take to build its graph and accept a client.
const START_TIMEOUT: Duration = Duration::from_secs(120);

/// Clock ticks per second in `/proc/<pid>/stat` (`USER_HZ`, 100 on
/// every mainstream Linux architecture).
const CLOCK_TICKS: f64 = 100.0;

/// How to start a server.
#[derive(Clone)]
pub struct Spec {
    pub iyp: PathBuf,
    pub world_seed: u64,
    pub cache_mb: Option<usize>,
    /// Journal directory; the server runs read-write with
    /// `--fsync always` when set.
    pub journal: Option<PathBuf>,
    /// File that receives the child's stderr.
    pub log: PathBuf,
}

pub struct Server {
    child: Child,
    pub addr: SocketAddr,
    /// Time from spawning the child to the first successful
    /// `Client::connect`.
    pub ready_after: Duration,
    drain: Option<JoinHandle<()>>,
}

impl Server {
    pub fn start(spec: &Spec) -> Result<Server, String> {
        let mut cmd = Command::new(&spec.iyp);
        cmd.args(["serve", "--scale", crate::run::SCALE])
            .args(["--seed", &spec.world_seed.to_string()])
            .args(["--addr", "127.0.0.1:0"]);
        if let Some(mb) = spec.cache_mb {
            cmd.args(["--cache-mb", &mb.to_string()]);
        }
        if let Some(dir) = &spec.journal {
            cmd.arg("--journal").arg(dir).args(["--fsync", "always"]);
        }
        let log = File::options()
            .create(true)
            .append(true)
            .open(&spec.log)
            .map_err(|e| format!("open {}: {e}", spec.log.display()))?;
        cmd.stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::from(log));
        let started = Instant::now();
        let mut child = cmd
            .spawn()
            .map_err(|e| format!("spawn {}: {e}", spec.iyp.display()))?;
        let stdout = child.stdout.take().expect("stdout is piped");
        let (tx, rx) = mpsc::channel();
        // Reads stdout to EOF: the child must never block on (or die
        // of) a full or closed pipe.
        let drain = std::thread::spawn(move || {
            let mut tx = Some(tx);
            for line in BufReader::new(stdout).lines() {
                let Ok(line) = line else { break };
                if let Some(addr) = line.strip_prefix("listening on ") {
                    if let Some(tx) = tx.take() {
                        let _ = tx.send(addr.trim().to_string());
                    }
                }
            }
        });
        let mut server = Server {
            child,
            addr: SocketAddr::from(([127, 0, 0, 1], 0)),
            ready_after: Duration::ZERO,
            drain: Some(drain),
        };
        let listening = rx.recv_timeout(START_TIMEOUT).map_err(|_| {
            format!(
                "server did not report its address within {START_TIMEOUT:?} (log: {})",
                spec.log.display()
            )
        })?;
        server.addr = listening
            .parse()
            .map_err(|e| format!("bad server address {listening:?}: {e}"))?;
        loop {
            match Client::connect(server.addr) {
                Ok(_) => break,
                Err(e) if started.elapsed() > START_TIMEOUT => {
                    return Err(format!("server never accepted a client: {e}"))
                }
                Err(_) => std::thread::sleep(Duration::from_millis(1)),
            }
        }
        server.ready_after = started.elapsed();
        Ok(server)
    }

    /// User plus system CPU seconds the child has used so far.
    pub fn cpu_seconds(&self) -> Result<f64, String> {
        let path = format!("/proc/{}/stat", self.child.id());
        let stat = std::fs::read_to_string(&path).map_err(|e| format!("read {path}: {e}"))?;
        // Fields after the parenthesised command name; utime and stime
        // are fields 14 and 15 of the whole line.
        let rest = stat
            .rsplit_once(')')
            .map(|(_, r)| r)
            .ok_or_else(|| format!("unparsable {path}"))?;
        let fields: Vec<&str> = rest.split_whitespace().collect();
        let ticks = |i: usize| -> Result<f64, String> {
            fields
                .get(i)
                .and_then(|f| f.parse::<f64>().ok())
                .ok_or_else(|| format!("unparsable {path}"))
        };
        Ok((ticks(11)? + ticks(12)?) / CLOCK_TICKS)
    }

    /// Peak resident set size (`VmHWM`) in MiB.
    pub fn peak_rss_mb(&self) -> Result<f64, String> {
        let path = format!("/proc/{}/status", self.child.id());
        let status = std::fs::read_to_string(&path).map_err(|e| format!("read {path}: {e}"))?;
        status
            .lines()
            .find_map(|l| l.strip_prefix("VmHWM:"))
            .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
            .map(|kb| kb / 1024.0)
            .ok_or_else(|| format!("no VmHWM in {path}"))
    }

    /// Sends SIGKILL and waits for the child and its stdout reader.
    pub fn kill(mut self) {
        self.stop();
    }

    fn stop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
        if let Some(drain) = self.drain.take() {
            let _ = drain.join();
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        self.stop();
    }
}

/// Total size of the regular files in `dir`, in MiB.
pub fn dir_mb(dir: &Path) -> Result<f64, String> {
    let mut bytes = 0u64;
    for entry in std::fs::read_dir(dir).map_err(|e| format!("read {}: {e}", dir.display()))? {
        let entry = entry.map_err(|e| e.to_string())?;
        let meta = entry.metadata().map_err(|e| e.to_string())?;
        if meta.is_file() {
            bytes += meta.len();
        }
    }
    Ok(bytes as f64 / (1 << 20) as f64)
}
