//! What the host looked like while the numbers were taken, and the
//! guard that keeps a stuck rep from hanging whatever runs the
//! benchmark.

use crate::json::Value;
use std::process::Command;
use std::sync::mpsc::{self, RecvTimeoutError, Sender};
use std::sync::{Arc, Mutex, OnceLock};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

fn proc_field(path: &str, key: &str) -> Option<String> {
    let text = std::fs::read_to_string(path).ok()?;
    let line = text.lines().find(|l| l.starts_with(key))?;
    Some(line[key.len()..].trim().to_string())
}

/// Peak resident set size of this process so far (`VmHWM`), in MB.
pub fn peak_rss_mb() -> f64 {
    proc_field("/proc/self/status", "VmHWM:")
        .and_then(|v| v.split_whitespace().next()?.parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// The commit of the enclosing git checkout, read from `.git` without
/// running git (`unknown` outside one — the driver's checkout is not a
/// repository).
fn commit() -> String {
    let mut dir = std::env::current_dir().ok();
    while let Some(d) = dir {
        if let Ok(head) = std::fs::read_to_string(d.join(".git/HEAD")) {
            let head = head.trim();
            return match head.strip_prefix("ref: ") {
                Some(r) => std::fs::read_to_string(d.join(".git").join(r))
                    .map_or_else(|_| head.to_string(), |s| s.trim().to_string()),
                None => head.to_string(),
            };
        }
        dir = d.parent().map(|p| p.to_path_buf());
    }
    "unknown".into()
}

/// nproc, load, toolchain and commit, for the result file.
pub fn describe() -> Value {
    let mut env = Value::object();
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    env.set("nproc", Value::Num(nproc as f64));
    let load1 = std::fs::read_to_string("/proc/loadavg")
        .ok()
        .and_then(|s| s.split_whitespace().next()?.parse::<f64>().ok());
    env.set("load_1min", load1.map_or(Value::Null, Value::Num));
    // Asked once: the report and the result file both describe the host.
    static RUSTC: OnceLock<String> = OnceLock::new();
    let rustc =
        RUSTC.get_or_init(|| {
            Command::new("rustc").arg("--version").output().ok().filter(|o| o.status.success()).map_or_else(
                || "unknown".to_string(),
                |o| String::from_utf8_lossy(&o.stdout).trim().to_string(),
            )
        });
    env.set("rustc", Value::Str(rustc.clone()));
    env.set("commit", Value::Str(commit()));
    env
}

/// A wall-clock guard on another thread. The load generator stays one
/// thread; this one sleeps, and only if the armed limit passes does it
/// report which step was stuck and end the process — a rep running ten
/// times its expected time becomes a reported failure, not a hung
/// pipeline.
pub struct Watchdog {
    armed: Arc<Mutex<Option<(Instant, String)>>>,
    stop: Option<Sender<()>>,
    thread: Option<JoinHandle<()>>,
}

/// Exit code of a run the watchdog ended.
pub const WATCHDOG_EXIT: i32 = 3;

impl Watchdog {
    /// Starts the guard, disarmed.
    pub fn start() -> Watchdog {
        let armed: Arc<Mutex<Option<(Instant, String)>>> = Arc::new(Mutex::new(None));
        let (stop, stopped) = mpsc::channel::<()>();
        let seen = armed.clone();
        let thread = std::thread::spawn(move || loop {
            match stopped.recv_timeout(Duration::from_millis(50)) {
                Err(RecvTimeoutError::Timeout) => {}
                _ => return, // asked to stop, or the runner is gone
            }
            let late = seen.lock().ok().and_then(|g| {
                g.as_ref().filter(|(deadline, _)| Instant::now() > *deadline).map(|(_, w)| w.clone())
            });
            if let Some(what) = late {
                eprintln!("foxperf: FAILED: watchdog: {what} ran past its wall-clock limit; giving up");
                std::process::exit(WATCHDOG_EXIT);
            }
        });
        Watchdog { armed, stop: Some(stop), thread: Some(thread) }
    }

    /// `what` must finish within `limit` from now.
    pub fn arm(&self, what: &str, limit: Duration) {
        let mut g = self.armed.lock().expect("the watchdog thread never panics while holding the lock");
        *g = Some((Instant::now() + limit, what.to_string()));
    }

    /// Nothing is being timed.
    pub fn disarm(&self) {
        *self.armed.lock().expect("the watchdog thread never panics while holding the lock") = None;
    }
}

impl Drop for Watchdog {
    fn drop(&mut self) {
        drop(self.stop.take());
        if let Some(t) = self.thread.take() {
            let _ = t.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn describes_the_host_and_reads_its_own_peak() {
        let env = describe();
        assert!(env.get("nproc").and_then(Value::as_f64).is_some_and(|n| n >= 1.0));
        assert!(env.get("rustc").is_some() && env.get("commit").is_some());
        assert!(peak_rss_mb() > 0.0);
    }

    #[test]
    fn an_armed_watchdog_that_is_disarmed_in_time_stays_quiet() {
        let dog = Watchdog::start();
        dog.arm("a short step", Duration::from_secs(60));
        dog.disarm();
        std::thread::sleep(Duration::from_millis(120));
        drop(dog); // joins the thread
    }
}
