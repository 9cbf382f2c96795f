//! Process resource usage and the host fingerprint printed with every run.

use std::path::Path;

#[cfg(not(target_os = "linux"))]
compile_error!("the benchmark reads Linux getrusage(2) and /proc/self/status");

#[repr(C)]
#[derive(Default)]
struct Timeval {
    sec: i64,
    usec: i64,
}

/// `struct rusage` on Linux x86-64/aarch64: two timevals, then 14 longs.
#[repr(C)]
#[derive(Default)]
struct Rusage {
    utime: Timeval,
    stime: Timeval,
    rest: [i64; 14],
}

extern "C" {
    fn getrusage(who: i32, usage: *mut Rusage) -> i32;
}

const RUSAGE_SELF: i32 = 0;

fn rusage() -> Rusage {
    let mut r = Rusage::default();
    // SAFETY: `r` is a valid, writable `struct rusage` for the duration of
    // the call, and RUSAGE_SELF is a valid `who`.
    let rc = unsafe { getrusage(RUSAGE_SELF, &mut r) };
    assert_eq!(rc, 0, "getrusage(RUSAGE_SELF) cannot fail");
    r
}

/// User + system CPU seconds consumed by the whole process so far.
pub fn cpu_seconds() -> f64 {
    let r = rusage();
    let t = |tv: &Timeval| tv.sec as f64 + tv.usec as f64 * 1e-6;
    t(&r.utime) + t(&r.stime)
}

/// The process's peak resident set size, MiB: `VmHWM` of this process's
/// own memory map. (`ru_maxrss` would carry over the launching process's
/// size across `exec`, so it depends on what started the benchmark.)
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("procfs is mounted");
    let kib: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .expect("/proc/self/status has a VmHWM line in kB");
    kib / 1024.0
}

/// Variables that change runtime defaults: any `OMP_*` or `OMP4RS_*`.
pub fn runtime_knobs() -> Vec<(String, String)> {
    let mut knobs: Vec<(String, String)> = std::env::vars()
        .filter(|(k, _)| k.starts_with("OMP_") || k.starts_with("OMP4RS_"))
        .collect();
    knobs.sort();
    knobs
}

/// The commit of the checkout around `root`, read from `.git` without
/// running git; `unknown` when the tree is not a git checkout.
pub fn git_commit(root: &Path) -> String {
    let git = root.join(".git");
    let read = |p: &Path| std::fs::read_to_string(p).ok();
    let Some(head) = read(&git.join("HEAD")) else {
        return "unknown".to_owned();
    };
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head.to_owned();
    };
    if let Some(hash) = read(&git.join(reference)) {
        return hash.trim().to_owned();
    }
    read(&git.join("packed-refs"))
        .and_then(|packed| {
            packed.lines().find_map(|l| {
                let (hash, name) = l.split_once(' ')?;
                (name == reference).then(|| hash.to_owned())
            })
        })
        .unwrap_or_else(|| "unknown".to_owned())
}

/// Logical CPUs available to this process.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, usize::from)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cpu_time_advances_with_work() {
        let before = cpu_seconds();
        let mut x = 0u64;
        while cpu_seconds() - before < 0.01 {
            x = std::hint::black_box(x.wrapping_add(1));
        }
        assert!(peak_rss_mb() > 0.0);
    }
}
