//! Host fingerprint and process resource readings.

use std::path::Path;
use surfos::obs::{to_json, JsonValue};

/// What a result was measured on. Two results compare only when every
/// host field matches; the git commit names the code under test and is
/// recorded but not compared.
#[derive(Debug, Clone, PartialEq)]
pub struct Fingerprint {
    pub nproc: usize,
    pub cpu_model: String,
    /// Read from `surfos_em::simd::backend()`, never from an obs
    /// snapshot: `obs::reset()` erases the `em.simd.backend` gauge.
    pub simd_backend: String,
    pub surfos_threads: String,
    pub surfos_simd: String,
    pub rustc: String,
    pub git_commit: String,
}

/// Host fields, in print order (the commit is not one of them).
const HOST_FIELDS: [&str; 6] = [
    "nproc",
    "cpu_model",
    "simd_backend",
    "surfos_threads",
    "surfos_simd",
    "rustc",
];

impl Fingerprint {
    pub fn detect() -> Self {
        Fingerprint {
            nproc: std::thread::available_parallelism().map_or(1, |n| n.get()),
            cpu_model: std::fs::read_to_string("/proc/cpuinfo")
                .ok()
                .and_then(|s| {
                    s.lines()
                        .find(|l| l.starts_with("model name"))
                        .and_then(|l| l.split_once(':'))
                        .map(|(_, m)| m.trim().to_owned())
                })
                .unwrap_or_else(|| "unknown".into()),
            simd_backend: surfos::em::simd::backend().name().to_owned(),
            surfos_threads: env_or_unset("SURFOS_THREADS"),
            surfos_simd: env_or_unset("SURFOS_SIMD"),
            rustc: env!("E2EBENCH_RUSTC").to_owned(),
            git_commit: git_commit(Path::new(".")),
        }
    }

    fn host_values(&self) -> [String; 6] {
        [
            self.nproc.to_string(),
            self.cpu_model.clone(),
            self.simd_backend.clone(),
            self.surfos_threads.clone(),
            self.surfos_simd.clone(),
            self.rustc.clone(),
        ]
    }

    pub fn to_json(&self) -> String {
        let mut fields: Vec<String> = HOST_FIELDS
            .iter()
            .zip(self.host_values())
            .map(|(k, v)| format!("{}: {}", to_json(*k), to_json(&v)))
            .collect();
        fields.push(format!("\"git_commit\": {}", to_json(&self.git_commit)));
        format!("{{{}}}", fields.join(", "))
    }

    pub fn describe(&self) -> String {
        format!(
            "nproc={} cpu=\"{}\" simd={} SURFOS_THREADS={} SURFOS_SIMD={} rustc=\"{}\" commit={}",
            self.nproc,
            self.cpu_model,
            self.simd_backend,
            self.surfos_threads,
            self.surfos_simd,
            self.rustc,
            self.git_commit
        )
    }
}

/// Host fields on which two recorded fingerprints differ (empty when the
/// results are comparable).
pub fn host_mismatches(a: &JsonValue, b: &JsonValue) -> Vec<String> {
    HOST_FIELDS
        .iter()
        .filter(|k| a.get(k).map(|v| format!("{v:?}")) != b.get(k).map(|v| format!("{v:?}")))
        .map(|k| k.to_string())
        .collect()
}

fn env_or_unset(name: &str) -> String {
    std::env::var(name).unwrap_or_else(|_| "unset".into())
}

/// The checked-out commit, read from `.git` without running git; `none`
/// outside a repository (the benchmark may run from a plain export).
fn git_commit(root: &Path) -> String {
    let git = root.join(".git");
    let Ok(head) = std::fs::read_to_string(git.join("HEAD")) else {
        return "none".into();
    };
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head.to_owned();
    };
    if let Ok(id) = std::fs::read_to_string(git.join(reference)) {
        return id.trim().to_owned();
    }
    std::fs::read_to_string(git.join("packed-refs"))
        .ok()
        .and_then(|packed| {
            packed
                .lines()
                .find(|l| l.ends_with(reference))
                .and_then(|l| l.split_whitespace().next().map(str::to_owned))
        })
        .unwrap_or_else(|| "unknown".into())
}

/// Process CPU seconds, all threads, live and exited
/// (`CLOCK_PROCESS_CPUTIME_ID`: the same count as `/proc/self/stat`'s
/// utime + stime, at nanosecond rather than 10 ms resolution).
pub fn cpu_seconds() -> f64 {
    #[repr(C)]
    struct Timespec {
        tv_sec: i64,
        tv_nsec: i64,
    }
    extern "C" {
        fn clock_gettime(clock: i32, tp: *mut Timespec) -> i32;
    }
    const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a valid, writable timespec for the duration of the
    // call, laid out as the C library's on 64-bit Linux.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_PROCESS_CPUTIME_ID)");
    ts.tv_sec as f64 + ts.tv_nsec as f64 * 1e-9
}

/// Host CPU ticks stolen by the hypervisor and total ticks, all CPUs
/// (`/proc/stat`). The share stolen during a run is recorded with its
/// result: it tells a noisy host from a slow program.
pub fn cpu_ticks() -> (u64, u64) {
    let stat = std::fs::read_to_string("/proc/stat").unwrap_or_default();
    let fields: Vec<u64> = stat
        .lines()
        .find(|l| l.starts_with("cpu "))
        .map(|l| {
            l.split_whitespace()
                .skip(1)
                .filter_map(|f| f.parse().ok())
                .collect()
        })
        .unwrap_or_default();
    let steal = fields.get(7).copied().unwrap_or(0);
    (steal, fields.iter().take(8).sum())
}

/// Share of host CPU time stolen between two [`cpu_ticks`] readings.
pub fn steal_frac(before: (u64, u64), after: (u64, u64)) -> f64 {
    let total = after.1.saturating_sub(before.1);
    if total == 0 {
        0.0
    } else {
        after.0.saturating_sub(before.0) as f64 / total as f64
    }
}

/// Peak resident memory so far (`VmHWM`), MiB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("read /proc/self/status");
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .expect("VmHWM in /proc/self/status");
    kb / 1024.0
}

/// Lowers the peak resident memory (`VmHWM`) to what is resident now,
/// by writing 5 to `/proc/self/clear_refs`. Where the kernel refuses,
/// the peak stays as it was, so a reading can only be too high.
pub fn reset_peak_rss() {
    let _ = std::fs::write("/proc/self/clear_refs", "5");
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fingerprint_mismatch_names_host_fields_but_not_the_commit() {
        let fp = Fingerprint::detect();
        let a = JsonValue::parse(&fp.to_json()).expect("fingerprint JSON");
        let mut other = fp.clone();
        other.git_commit = "another-commit".into();
        let b = JsonValue::parse(&other.to_json()).expect("fingerprint JSON");
        assert!(host_mismatches(&a, &b).is_empty());
        other.nproc += 1;
        other.simd_backend = "scalar".into();
        let c = JsonValue::parse(&other.to_json()).expect("fingerprint JSON");
        assert_eq!(host_mismatches(&a, &c), vec!["nproc", "simd_backend"]);
    }

    #[test]
    fn peak_rss_resets_to_what_is_resident() {
        // 96 MiB touched, then freed: the peak drops back after a reset.
        let big = vec![1u8; 96 << 20];
        std::hint::black_box(&big);
        drop(big);
        let high = peak_rss_mb();
        reset_peak_rss();
        assert!(
            peak_rss_mb() < high - 48.0,
            "{} !< {high} - 48",
            peak_rss_mb()
        );
    }

    #[test]
    fn process_readings_are_positive() {
        assert!(cpu_seconds() >= 0.0);
        assert!(peak_rss_mb() > 0.0);
    }
}
