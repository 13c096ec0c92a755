//! An in-process `sweep --serve` for the benchmark: one `SweepServer` on
//! `127.0.0.1:0` with one pool thread and a private cache directory, and
//! a teardown that leaves neither a thread nor the directory behind.

use std::io::{BufRead as _, BufReader, Write as _};
use std::net::TcpStream;
use std::path::{Path, PathBuf};
use std::thread::JoinHandle;

use gals_bench::submit::{submit, SubmitOutcome, SubmitRequest};
use gals_sweep::{SweepOptions, SweepServer};

/// Name of the thread running [`SweepServer::serve`].
pub const SERVE_THREAD: &str = "galsbench-serve";

/// A running server with its own cache directory.
pub struct WarmServer {
    addr: String,
    dir: PathBuf,
    thread: Option<JoinHandle<Result<(), String>>>,
}

impl WarmServer {
    /// Binds a free local port, opens (creating) the cache in `dir`, and
    /// starts serving on a background thread. `budget` is the server's
    /// default for matrices without one.
    pub fn start(dir: &Path, budget: u64) -> Result<WarmServer, String> {
        let options = SweepOptions::new().threads(1).cache(dir);
        let server = SweepServer::bind("127.0.0.1:0", budget, options)?;
        let addr = server.local_addr()?.to_string();
        let thread = std::thread::Builder::new()
            .name(SERVE_THREAD.into())
            .spawn(move || server.serve())
            .map_err(|e| format!("cannot spawn the server thread: {e}"))?;
        Ok(WarmServer {
            addr,
            dir: dir.to_path_buf(),
            thread: Some(thread),
        })
    }

    /// The bound `HOST:PORT`.
    #[cfg(test)]
    pub fn addr(&self) -> &str {
        &self.addr
    }

    /// Sends one sweep request (`matrix_line`: matrix-file JSON on one
    /// line) and waits for the complete response.
    pub fn submit(&self, matrix_line: &str) -> Result<SubmitOutcome, String> {
        submit(&SubmitRequest::new(self.addr.clone(), matrix_line))
    }

    /// Asks the server to shut down, joins its thread, and removes the
    /// cache directory. Returns the first problem met; every step is
    /// attempted regardless.
    pub fn teardown(mut self) -> Result<(), String> {
        self.stop()
    }

    fn stop(&mut self) -> Result<(), String> {
        let Some(thread) = self.thread.take() else {
            return Ok(());
        };
        let asked = request_shutdown(&self.addr);
        let joined = match thread.join() {
            Ok(served) => served,
            Err(_) => Err("the server thread panicked".into()),
        };
        let removed = std::fs::remove_dir_all(&self.dir)
            .map_err(|e| format!("cannot remove {}: {e}", self.dir.display()));
        asked.and(joined).and(removed)
    }
}

impl Drop for WarmServer {
    fn drop(&mut self) {
        // Best effort on an error path; `teardown` reports problems.
        let _ = self.stop();
    }
}

/// Sends `{"request": "shutdown"}` and waits for the acknowledgement.
fn request_shutdown(addr: &str) -> Result<(), String> {
    let mut stream =
        TcpStream::connect(addr).map_err(|e| format!("cannot reach {addr} to stop it: {e}"))?;
    stream
        .write_all(b"{\"request\": \"shutdown\"}\n")
        .map_err(|e| format!("cannot send shutdown: {e}"))?;
    let mut line = String::new();
    BufReader::new(stream)
        .read_line(&mut line)
        .map_err(|e| format!("no shutdown acknowledgement: {e}"))?;
    if line.trim() == "{\"ok\": \"shutdown\"}" {
        Ok(())
    } else {
        Err(format!("unexpected shutdown reply: {}", line.trim()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gals_sweep::SweepMatrix;

    /// Names of this process's live threads.
    fn thread_names() -> Vec<String> {
        std::fs::read_dir("/proc/self/task")
            .map(|tasks| {
                tasks
                    .filter_map(|t| std::fs::read_to_string(t.ok()?.path().join("comm")).ok())
                    .map(|name| name.trim().to_string())
                    .collect()
            })
            .unwrap_or_default()
    }

    #[test]
    fn teardown_leaves_no_thread_and_no_cache_dir() {
        let dir = crate::workloads::fresh_dir("teardown-test");
        let server = WarmServer::start(&dir, 500).expect("server starts");
        let addr = server.addr().to_string();
        let mut matrix = SweepMatrix::paper_default(500);
        matrix.benchmarks.truncate(1);
        matrix.modes.truncate(2);
        matrix.dvfs.truncate(1);
        let line = matrix.to_matrix_json().replace('\n', " ");
        let cold = server.submit(&line).expect("cold request");
        let warm = server.submit(&line).expect("warm request");
        assert_eq!(cold.payload, warm.payload);
        assert_eq!((cold.simulated, warm.cache_hits), (2, 2));
        assert!(dir.is_dir());
        // The thread name is truncated to 15 bytes in /proc.
        let comm = &SERVE_THREAD[..15];
        assert!(thread_names().iter().any(|n| n == comm));

        server.teardown().expect("clean teardown");
        assert!(!dir.exists(), "cache dir left behind");
        assert!(
            !thread_names().iter().any(|n| n == comm),
            "server thread left behind"
        );
        assert!(
            !thread_names().iter().any(|n| n.starts_with("sweep-conn")),
            "connection handler left behind"
        );
        assert!(TcpStream::connect(&addr).is_err(), "listener still open");
    }
}
