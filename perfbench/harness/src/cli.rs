//! One untraced `ftpm mine` child process: wall time from spawn to
//! exit, its peak RSS, and the output the checker compares.
//!
//! Streamed patterns go through a named pipe in the work directory, so
//! the benchmark digests them as they are written and no disk
//! writeback lands in the measured time.

use std::fs::OpenOptions;
use std::io::{Read, Write as _};
use std::os::unix::fs::OpenOptionsExt as _;
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::{self, JoinHandle};
use std::time::{Duration, Instant};

use crate::digest::{DigestWriter, RowDigest};
use crate::pipeline::{ranked_row, Produced};
use crate::workload::{Output, Workload};

/// `O_NONBLOCK` on Linux.
const O_NONBLOCK: i32 = 0o4000;
/// A run still going after this long counts as failed.
pub const TIMEOUT: Duration = Duration::from_secs(60);

/// Measurements of one child run. `outcome` is the checked output, or
/// why the run failed.
pub struct ChildRun {
    pub wall_s: f64,
    pub peak_rss_kb: u64,
    pub outcome: Result<Produced, String>,
}

/// `VmHWM` (peak resident set) of a live process, in KiB.
fn vm_hwm_kb(pid: u32) -> Option<u64> {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status")).ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    line.split_whitespace().nth(1)?.parse().ok()
}

fn drain<R: Read + Send + 'static>(mut from: R) -> JoinHandle<Vec<u8>> {
    thread::spawn(move || {
        let mut buf = Vec::new();
        let _ = from.read_to_end(&mut buf);
        buf
    })
}

/// Reads the named pipe to its end, digesting each row.
struct PipeReader {
    path: PathBuf,
    done: Arc<AtomicBool>,
    handle: JoinHandle<std::io::Result<RowDigest>>,
}

impl PipeReader {
    fn start(path: &Path) -> Self {
        let done = Arc::new(AtomicBool::new(false));
        let flag = done.clone();
        let at = path.to_path_buf();
        let handle = thread::spawn(move || {
            let result = (|| {
                let mut pipe = std::fs::File::open(&at)?;
                let mut digest = DigestWriter::default();
                let mut buf = vec![0u8; 1 << 20];
                loop {
                    let n = pipe.read(&mut buf)?;
                    if n == 0 {
                        break;
                    }
                    digest.write_all(&buf[..n])?;
                }
                Ok(digest.finish())
            })();
            flag.store(true, Ordering::Release);
            result
        });
        PipeReader {
            path: path.to_path_buf(),
            done,
            handle,
        }
    }

    /// Waits for the reader once the child has exited. A child that
    /// never opened the pipe leaves the reader blocked in `open`; a
    /// writer opened and closed here releases it with an empty read.
    fn finish(self) -> Result<RowDigest, String> {
        while !self.done.load(Ordering::Acquire) {
            let _ = OpenOptions::new()
                .write(true)
                .custom_flags(O_NONBLOCK)
                .open(&self.path);
            thread::sleep(Duration::from_millis(1));
        }
        match self.handle.join() {
            Ok(r) => r.map_err(|e| format!("reading {}: {e}", self.path.display())),
            Err(_) => Err("pipe reader panicked".into()),
        }
    }
}

/// Creates the named pipe the CLI streams into.
pub fn make_pipe(path: &Path) -> Result<(), String> {
    let _ = std::fs::remove_file(path);
    let status = Command::new("mkfifo")
        .arg(path)
        .status()
        .map_err(|e| format!("mkfifo: {e}"))?;
    if status.success() {
        Ok(())
    } else {
        Err(format!("mkfifo {} failed", path.display()))
    }
}

/// The pipe path a workload streams into.
pub fn pipe_path(work: &Path, w: &Workload) -> Option<PathBuf> {
    w.output.extension().map(|ext| work.join(format!("{}-out.{ext}", w.name)))
}

/// Pattern count and ranked rows from the `--top N --json` summary.
fn parse_summary(stdout: &[u8]) -> Result<Produced, String> {
    use serde_json::Value;
    let text = std::str::from_utf8(stdout).map_err(|e| format!("summary: {e}"))?;
    let doc: Value = serde_json::from_str(text.trim()).map_err(|e| format!("summary: {e:?}"))?;
    let number = |v: &Value, name: &str| -> Result<f64, String> {
        match v.field(name).map_err(|e| format!("summary: {e:?}"))? {
            Value::I64(n) => Ok(*n as f64),
            Value::U64(n) => Ok(*n as f64),
            Value::F64(x) => Ok(*x),
            other => Err(format!("summary: {name} is a {}", other.kind())),
        }
    };
    let patterns = number(&doc, "pattern_count")? as u64;
    let Ok(Value::Array(ranked)) = doc.field("patterns") else {
        return Err("summary: no patterns array".into());
    };
    let mut rows = RowDigest::default();
    for p in ranked {
        let Ok(Value::Str(label)) = p.field("pattern") else {
            return Err("summary: pattern without a label".into());
        };
        let row = ranked_row(
            label,
            number(p, "support")?,
            number(p, "rel_support")?,
            number(p, "confidence")?,
            number(p, "clipped_occurrences")?,
        );
        rows.add(row.as_bytes());
    }
    Ok(Produced { patterns, rows })
}

/// Runs `ftpm mine` once on `input` and waits for it to exit.
pub fn run(ftpm: &Path, w: &Workload, input: &Path, work: &Path) -> ChildRun {
    let pipe = pipe_path(work, w);
    let reader = pipe.as_deref().map(PipeReader::start);
    let args = w.cli_args(input, pipe.as_deref().unwrap_or(Path::new("-")));
    let started = Instant::now();
    let spawned = Command::new(ftpm)
        .args(&args)
        .stdin(Stdio::null())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn();
    let mut child = match spawned {
        Ok(c) => c,
        Err(e) => {
            let outcome = Err(format!("spawning {}: {e}", ftpm.display()));
            let _ = reader.map(PipeReader::finish);
            return ChildRun { wall_s: 0.0, peak_rss_kb: 0, outcome };
        }
    };
    let stdout = child.stdout.take().map(drain);
    let stderr = child.stderr.take().map(drain);
    let pid = child.id();
    let mut peak_rss_kb = 0;
    let mut polls = 0u32;
    let (status, wall) = loop {
        match child.try_wait() {
            Ok(Some(status)) => break (Ok(status), started.elapsed()),
            Ok(None) => {}
            Err(e) => break (Err(format!("waiting: {e}")), started.elapsed()),
        }
        if started.elapsed() > TIMEOUT {
            let _ = child.kill();
            let _ = child.wait();
            break (Err(format!("timed out after {TIMEOUT:?}")), started.elapsed());
        }
        if polls.is_multiple_of(5) {
            if let Some(kb) = vm_hwm_kb(pid) {
                peak_rss_kb = peak_rss_kb.max(kb);
            }
        }
        polls += 1;
        thread::sleep(Duration::from_millis(2));
    };
    let stdout = stdout.and_then(|h| h.join().ok()).unwrap_or_default();
    let stderr = stderr.and_then(|h| h.join().ok()).unwrap_or_default();
    let streamed = reader.map(PipeReader::finish);
    let outcome = status.and_then(|status| {
        if !status.success() {
            return Err(format!(
                "exit {status}: {}",
                String::from_utf8_lossy(&stderr).trim()
            ));
        }
        match (w.output, streamed) {
            (Output::Top(_), _) => parse_summary(&stdout),
            (_, Some(r)) => {
                let rows = r?;
                Ok(Produced { patterns: rows.rows, rows })
            }
            (_, None) => Err("streamed workload without a pipe".into()),
        }
    });
    ChildRun {
        wall_s: wall.as_secs_f64(),
        peak_rss_kb,
        outcome,
    }
}
