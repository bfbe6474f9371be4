//! Building and running the `hique-server` binary as a child process.

use std::io::{BufRead, BufReader};
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::process::{Child, ChildStdin, Command, Stdio};
use std::thread::JoinHandle;
use std::time::Instant;

use crate::client::Client;
use crate::stream::{Workload, CLIENT_ENGINES};

/// Build the repository's unmodified `hique-server` binary (release
/// profile) and return its path.  Cargo honours `CARGO_TARGET_DIR`.
pub fn build_server(root: &Path) -> Result<PathBuf, String> {
    let cargo = std::env::var("CARGO").unwrap_or_else(|_| "cargo".into());
    let output = Command::new(cargo)
        .current_dir(root)
        .args([
            "build",
            "--release",
            "--offline",
            "--quiet",
            "-p",
            "hique-server",
            "--bin",
            "hique-server",
            "--message-format=json-render-diagnostics",
        ])
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("cannot run cargo: {e}"))?;
    if !output.status.success() {
        return Err(format!("building hique-server failed: {}", output.status));
    }
    // Cargo prints one JSON message per line; the binary's artifact names
    // its path under "executable".
    let stdout = String::from_utf8_lossy(&output.stdout);
    stdout
        .lines()
        .filter(|l| l.contains("\"compiler-artifact\"") && l.contains("\"hique-server\""))
        .find_map(|l| {
            let start = l.find("\"executable\":\"")? + "\"executable\":\"".len();
            let len = l[start..].find('"')?;
            Some(PathBuf::from(&l[start..start + len]))
        })
        .ok_or_else(|| "cargo did not report the hique-server executable".into())
}

/// A running `hique-server` child.  Dropping it without
/// [`ServerProcess::shutdown`] kills the child and waits for it.
pub struct ServerProcess {
    child: Child,
    stdin: Option<ChildStdin>,
    stderr: Option<JoinHandle<Vec<String>>>,
    pub addr: SocketAddr,
    /// Seconds from spawning to the first `OK` reply.
    pub setup_s: f64,
}

impl ServerProcess {
    /// Spawn the server for `workload` on an ephemeral port, with its spill
    /// files under `tmp`, and time it to its first `OK` reply.
    pub fn spawn(bin: &Path, workload: Workload, tmp: &Path) -> Result<ServerProcess, String> {
        let started = Instant::now();
        let mut child = Command::new(bin)
            .args(workload.server_args())
            .args(["--port", "0"])
            .env("TMPDIR", tmp)
            .stdin(Stdio::piped())
            .stdout(Stdio::null())
            .stderr(Stdio::piped())
            .spawn()
            .map_err(|e| format!("cannot start {}: {e}", bin.display()))?;
        let stdin = child.stdin.take();
        let mut stderr = BufReader::new(child.stderr.take().expect("stderr is piped"));
        // The binary announces "hique-server listening on <addr> (...)" once
        // the fixture is built and the port is bound.
        let mut seen = Vec::new();
        let addr = loop {
            let mut line = String::new();
            match stderr.read_line(&mut line) {
                Ok(0) | Err(_) => {
                    let _ = child.kill();
                    let _ = child.wait();
                    return Err(format!("hique-server exited during setup: {seen:?}"));
                }
                Ok(_) => {}
            }
            if let Some(rest) = line.split("listening on ").nth(1) {
                let addr = rest.split_whitespace().next().unwrap_or_default();
                break addr
                    .parse::<SocketAddr>()
                    .map_err(|e| format!("bad address {addr:?}: {e}"))?;
            }
            seen.push(line.trim_end().to_string());
        };
        // Keep draining stderr so the child never blocks on a full pipe.
        let drain = std::thread::spawn(move || stderr.lines().map_while(Result::ok).collect());
        let mut process = ServerProcess {
            child,
            stdin,
            stderr: Some(drain),
            addr,
            setup_s: 0.0,
        };
        let mut first = process.connect(0)?;
        process.setup_s = started.elapsed().as_secs_f64();
        drop(first.request(".quit"));
        Ok(process)
    }

    /// Open a connection for client `c`, pinned to its engine.  For a fresh
    /// server, the `OK` of this `.engine` request is its first reply.
    pub fn connect(&self, c: usize) -> Result<Client, String> {
        let mut client =
            Client::connect(self.addr).map_err(|e| format!("connect {}: {e}", self.addr))?;
        let reply = client
            .request(&format!(".engine {}", CLIENT_ENGINES[c]))
            .map_err(|e| format!(".engine: {e}"))?;
        if !reply.is_ok() {
            return Err(format!(".engine {}: {}", CLIENT_ENGINES[c], reply.status));
        }
        Ok(client)
    }

    /// Peak resident set of the server so far (`VmHWM`), in MiB.
    pub fn peak_rss_mb(&self) -> Result<f64, String> {
        let path = format!("/proc/{}/status", self.child.id());
        let status = std::fs::read_to_string(&path).map_err(|e| format!("{path}: {e}"))?;
        status
            .lines()
            .find_map(|l| l.strip_prefix("VmHWM:"))
            .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
            .map(|kb| kb / 1024.0)
            .ok_or_else(|| format!("no VmHWM in {path}"))
    }

    /// Close the server's stdin, which stops it, and wait for a clean exit.
    pub fn shutdown(mut self) -> Result<(), String> {
        drop(self.stdin.take());
        let status = self.child.wait().map_err(|e| e.to_string())?;
        let log = self
            .stderr
            .take()
            .map(|h| h.join().unwrap_or_default())
            .unwrap_or_default();
        if status.success() {
            Ok(())
        } else {
            Err(format!("hique-server exited with {status}: {log:?}"))
        }
    }
}

impl Drop for ServerProcess {
    fn drop(&mut self) {
        if self.stdin.is_some() {
            let _ = self.child.kill();
            let _ = self.child.wait();
            if let Some(h) = self.stderr.take() {
                let _ = h.join();
            }
        }
    }
}
