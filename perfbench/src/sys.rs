//! Process-level measurements read from the operating system: CPU time,
//! resident memory, host steal, and the `tesa` daemon binary.

use std::path::PathBuf;
use std::process::Command;

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    fn clock_gettime(clock_id: i32, tp: *mut Timespec) -> i32;
}

/// Linux `CLOCK_PROCESS_CPUTIME_ID`.
const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;

/// CPU time consumed so far by every thread of this process, living or
/// exited, in seconds (nanosecond resolution).
pub fn cpu_s() -> f64 {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `clock_gettime` writes one `struct timespec` through the
    // pointer, which points at a live, properly aligned `Timespec` whose
    // layout matches the C struct on 64-bit Linux (two 64-bit fields).
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_PROCESS_CPUTIME_ID) failed");
    ts.tv_sec as f64 + ts.tv_nsec as f64 * 1e-9
}

/// A `kB` field of `/proc/<pid>/status` in MiB.
fn status_mib(pid: &str, field: &str) -> Result<f64, String> {
    let path = format!("/proc/{pid}/status");
    let text = std::fs::read_to_string(&path).map_err(|e| format!("{path}: {e}"))?;
    let line = text
        .lines()
        .find(|l| l.starts_with(field))
        .ok_or_else(|| format!("{path}: no {field} line"))?;
    let kb: f64 = line[field.len()..]
        .trim()
        .trim_end_matches("kB")
        .trim()
        .parse()
        .map_err(|e| format!("{path}: bad {field}: {e}"))?;
    Ok(kb / 1024.0)
}

/// Peak resident set size (`VmHWM`) of process `pid` (`"self"` for this
/// one), MiB.
pub fn peak_rss_mib(pid: &str) -> Result<f64, String> {
    status_mib(pid, "VmHWM:")
}

/// Current resident set size (`VmRSS`) of this process, MiB.
pub fn rss_mib() -> f64 {
    status_mib("self", "VmRSS:").expect("own /proc status is readable")
}

/// CPU seconds (user + system) consumed so far by process `pid`, at clock
/// tick resolution.
pub fn proc_cpu_s(pid: u32) -> Result<f64, String> {
    let path = format!("/proc/{pid}/stat");
    let text = std::fs::read_to_string(&path).map_err(|e| format!("{path}: {e}"))?;
    // Fields after the parenthesised command name; utime and stime are
    // fields 14 and 15 of the whole line, i.e. 12 and 13 after it.
    let rest = text
        .rsplit_once(')')
        .ok_or_else(|| format!("{path}: malformed"))?
        .1;
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let tick = |i: usize| -> Result<f64, String> {
        fields
            .get(i)
            .and_then(|f| f.parse::<f64>().ok())
            .ok_or_else(|| format!("{path}: missing field {i}"))
    };
    // USER_HZ is 100 on every Linux configuration std supports.
    Ok((tick(11)? + tick(12)?) / 100.0)
}

/// Aggregate CPU jiffies from `/proc/stat`: `(steal, total)`.
pub fn host_jiffies() -> (u64, u64) {
    let text = std::fs::read_to_string("/proc/stat").unwrap_or_default();
    let Some(line) = text.lines().find(|l| l.starts_with("cpu ")) else {
        return (0, 0);
    };
    let vals: Vec<u64> = line
        .split_whitespace()
        .skip(1)
        .filter_map(|v| v.parse().ok())
        .collect();
    // user nice system idle iowait irq softirq steal [guest guest_nice]
    // (guest time is already counted in user).
    let total = vals.iter().take(8).sum();
    (vals.get(7).copied().unwrap_or(0), total)
}

/// Share of host CPU time stolen by the hypervisor between two
/// [`host_jiffies`] readings.
pub fn steal_frac(before: (u64, u64), after: (u64, u64)) -> f64 {
    let total = after.1.saturating_sub(before.1);
    if total == 0 {
        0.0
    } else {
        after.0.saturating_sub(before.0) as f64 / total as f64
    }
}

/// Cores this process may run on (`nproc`).
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZero::get)
}

/// Builds the repository's `tesa` binary (a no-op when it is up to date)
/// and returns its path. Runs from the root of the checkout, the
/// benchmark's working directory, with the caller's `CARGO_TARGET_DIR`.
pub fn tesa_binary() -> Result<PathBuf, String> {
    let cargo = std::env::var("CARGO").unwrap_or_else(|_| "cargo".into());
    let status = Command::new(cargo)
        .args([
            "build",
            "--release",
            "--offline",
            "--quiet",
            "-p",
            "tesa-cli",
        ])
        .status()
        .map_err(|e| format!("cannot run cargo: {e}"))?;
    if !status.success() {
        return Err(format!("building tesa-cli failed ({status})"));
    }
    let target = std::env::var("CARGO_TARGET_DIR").unwrap_or_else(|_| "target".into());
    let bin = PathBuf::from(target).join("release").join("tesa");
    if bin.is_file() {
        Ok(bin)
    } else {
        Err(format!("{} was not built", bin.display()))
    }
}

/// Working directory for files the benchmark writes (checkpoints, daemon
/// campaign state), inside the checkout.
pub fn work_dir(name: &str) -> Result<PathBuf, String> {
    let dir = PathBuf::from("perfbench").join("work").join(name);
    if dir.exists() {
        std::fs::remove_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    }
    std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    Ok(dir)
}
