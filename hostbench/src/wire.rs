//! The client side of `sachi.serve.v1` and the daemon's process
//! lifetime: spawn, readiness, peak memory, and shutdown.
//!
//! The client is deliberately plain: each request frame (4-byte
//! big-endian length plus JSON body) goes out as one buffer, the socket
//! keeps the operating system's default options (no `TCP_NODELAY`, no
//! quick-ACK), and a caller waits for each reply before sending the
//! next request — what `sachi submit` does. Round trips are therefore
//! what a default-socket client sees.

use std::io::{Read, Write};
use std::net::{TcpListener, TcpStream};
use std::path::Path;
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

/// Largest response the client accepts (the daemon's own frame cap).
const MAX_FRAME: usize = 1 << 20;

/// How long a daemon may take to answer its first ping or to exit.
const DAEMON_TIMEOUT: Duration = Duration::from_secs(30);

/// One open protocol connection.
pub struct Conn {
    stream: TcpStream,
}

impl Conn {
    /// Connects to a daemon on `port`.
    pub fn open(port: u16) -> std::io::Result<Conn> {
        let stream = TcpStream::connect(("127.0.0.1", port))?;
        stream.set_read_timeout(Some(Duration::from_secs(120)))?;
        Ok(Conn { stream })
    }

    /// Sends `body` as one frame and returns the response body.
    pub fn call(&mut self, body: &str) -> Result<String, String> {
        let len = u32::try_from(body.len()).map_err(|_| "request too large".to_string())?;
        let mut frame = Vec::with_capacity(4 + body.len());
        frame.extend_from_slice(&len.to_be_bytes());
        frame.extend_from_slice(body.as_bytes());
        self.stream
            .write_all(&frame)
            .map_err(|e| format!("send: {e}"))?;
        let mut prefix = [0u8; 4];
        self.stream
            .read_exact(&mut prefix)
            .map_err(|e| format!("read length prefix: {e}"))?;
        let len = u32::from_be_bytes(prefix) as usize;
        if len > MAX_FRAME {
            return Err(format!("response of {len} bytes exceeds the frame cap"));
        }
        let mut buf = vec![0u8; len];
        self.stream
            .read_exact(&mut buf)
            .map_err(|e| format!("read body: {e}"))?;
        String::from_utf8(buf).map_err(|_| "response is not UTF-8".to_string())
    }
}

/// A running `sachi serve` process.
pub struct Daemon {
    child: Child,
    port: u16,
}

impl Daemon {
    /// Starts `sachi serve` with `threads` pool workers on a free
    /// loopback port and waits until it answers a ping. Returns the
    /// daemon and the CPU seconds it used from spawn to the answered
    /// ping, read while the ping's connection is still open so that the
    /// thread serving it is counted.
    pub fn start(bin: &Path, threads: usize) -> Result<(Daemon, f64), String> {
        let mut last_err = String::new();
        // A port found free can be taken before the daemon binds it;
        // try a few.
        for _ in 0..5 {
            let port = free_port()?;
            let child = Command::new(bin)
                .args([
                    "serve",
                    "--port",
                    &port.to_string(),
                    "--threads",
                    &threads.to_string(),
                ])
                .stdin(Stdio::null())
                .stdout(Stdio::null())
                .stderr(Stdio::null())
                .spawn()
                .map_err(|e| format!("spawn {}: {e}", bin.display()))?;
            let mut daemon = Daemon { child, port };
            let started = daemon.first_ping().and_then(|conn| {
                let cpu = crate::cpu::of_pid_threads_s(daemon.pid())
                    .ok_or_else(|| "no /proc entry for the daemon".to_string());
                drop(conn);
                cpu
            });
            match started {
                Ok(cpu) => return Ok((daemon, cpu)),
                Err(e) => {
                    last_err = e;
                    daemon.kill();
                }
            }
        }
        Err(format!("daemon never answered a ping: {last_err}"))
    }

    fn first_ping(&mut self) -> Result<Conn, String> {
        let deadline = Instant::now() + DAEMON_TIMEOUT;
        loop {
            if let Ok(Some(status)) = self.child.try_wait() {
                return Err(format!("daemon exited early with {status}"));
            }
            if let Ok(mut conn) = Conn::open(self.port) {
                let resp = conn.call(PING)?;
                return if resp.contains("\"status\":\"ok\"") {
                    Ok(conn)
                } else {
                    Err(format!("bad ping response: {resp}"))
                };
            }
            if Instant::now() > deadline {
                return Err("timed out waiting for the listener".to_string());
            }
            std::thread::sleep(Duration::from_micros(200));
        }
    }

    /// The daemon's port.
    pub fn port(&self) -> u16 {
        self.port
    }

    /// The daemon's process id.
    pub fn pid(&self) -> u32 {
        self.child.id()
    }

    /// The daemon's peak resident set (`VmHWM`) in MiB.
    pub fn peak_rss_mib(&self) -> Option<f64> {
        peak_rss_mib_of(&format!("/proc/{}/status", self.child.id()))
    }

    /// Asks the daemon to drain and waits for it to exit. Every client
    /// connection must be closed first, or the drain waits on it.
    pub fn shutdown(mut self) -> Result<(), String> {
        let sent = Conn::open(self.port)
            .and_then(|mut c| c.call(SHUTDOWN).map(drop).map_err(std::io::Error::other));
        if let Err(e) = sent {
            self.kill();
            return Err(format!("shutdown request failed: {e}"));
        }
        let deadline = Instant::now() + DAEMON_TIMEOUT;
        loop {
            match self.child.try_wait() {
                Ok(Some(status)) if status.success() => return Ok(()),
                Ok(Some(status)) => return Err(format!("daemon exited with {status}")),
                Ok(None) if Instant::now() < deadline => {
                    std::thread::sleep(Duration::from_millis(2));
                }
                _ => {
                    self.kill();
                    return Err("daemon did not drain in time".to_string());
                }
            }
        }
    }

    fn kill(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        // A daemon still running here was abandoned on an error path.
        if let Ok(None) = self.child.try_wait() {
            self.kill();
        }
    }
}

/// The `ping` request.
pub const PING: &str = "{\"op\":\"ping\"}";
/// The `metrics` request.
pub const METRICS: &str = "{\"op\":\"metrics\"}";
const SHUTDOWN: &str = "{\"op\":\"shutdown\"}";

fn free_port() -> Result<u16, String> {
    let listener = TcpListener::bind(("127.0.0.1", 0)).map_err(|e| format!("bind: {e}"))?;
    listener
        .local_addr()
        .map(|a| a.port())
        .map_err(|e| format!("local_addr: {e}"))
}

/// `VmHWM` of a `/proc/<pid>/status` file, in MiB.
pub fn peak_rss_mib_of(status_path: &str) -> Option<f64> {
    let text = std::fs::read_to_string(status_path).ok()?;
    let line = text.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}
