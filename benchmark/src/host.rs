//! The host block recorded beside every result, and the process's peak
//! resident set.

use crate::json::Json;

/// Load-generator threads a workload may use: two, or one on a
/// single-core host (which runs, but is flagged in the host block).
pub fn generator_threads() -> usize {
    nproc().min(2)
}

pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

fn avx2() -> bool {
    #[cfg(target_arch = "x86_64")]
    {
        std::is_x86_feature_detected!("avx2") && !panda_no_avx2()
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        false
    }
}

/// The kernel's own opt-out switch; recorded because it changes which
/// kernel the numbers describe.
fn panda_no_avx2() -> bool {
    std::env::var_os("PANDA_NO_AVX2").is_some_and(|v| !v.is_empty() && v != "0")
}

/// Per-core L2 size in bytes, from sysfs; 0 when the host does not say.
pub fn l2_bytes() -> u64 {
    let text = std::fs::read_to_string("/sys/devices/system/cpu/cpu0/cache/index2/size")
        .unwrap_or_default();
    let t = text.trim();
    let (digits, mult) = match t.as_bytes().last() {
        Some(b'K') => (&t[..t.len() - 1], 1 << 10),
        Some(b'M') => (&t[..t.len() - 1], 1 << 20),
        _ => (t, 1),
    };
    digits.parse::<u64>().map_or(0, |n| n * mult)
}

/// Peak resident set of this process (`VmHWM`) in MB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// `git rev-parse` of the checkout, or "unknown" outside a repository
/// (the driver's checkout is not one).
fn commit() -> String {
    std::process::Command::new("git")
        .args(["rev-parse", "--short", "HEAD"])
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map_or_else(|| "unknown".to_string(), |s| s.trim().to_string())
}

pub fn host_block() -> Json {
    let n = nproc();
    Json::obj([
        ("nproc", Json::Num(n as f64)),
        ("avx2", Json::Bool(avx2())),
        (
            "pool_threads",
            Json::Num(rayon::current_num_threads() as f64),
        ),
        ("generator_threads", Json::Num(generator_threads() as f64)),
        ("fewer_cores_than_generators", Json::Bool(n < 2)),
        ("l2_bytes", Json::Num(l2_bytes() as f64)),
        ("commit", Json::str(commit())),
    ])
}
