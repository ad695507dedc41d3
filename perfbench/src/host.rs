//! Host metadata recorded with every result: what the numbers were
//! measured on. Read from `/proc` and the checkout itself — no child
//! processes. Also confines a run to one CPU, through two raw
//! `extern "C"` declarations since the build is offline and has no `libc`
//! crate.

use std::path::Path;
use std::sync::OnceLock;

/// Words of a glibc `cpu_set_t` (1024 CPUs).
const CPU_SET_WORDS: usize = 16;

extern "C" {
    fn sched_getaffinity(pid: i32, size: usize, mask: *mut u64) -> i32;
    fn sched_setaffinity(pid: i32, size: usize, mask: *const u64) -> i32;
}

/// The CPU count before [`pin_to_one_cpu`] narrowed the affinity, and the
/// CPU it chose.
static PINNED: OnceLock<(usize, usize)> = OnceLock::new();

fn available_cpus() -> usize {
    std::thread::available_parallelism().map_or(0, |n| n.get())
}

/// Confines the calling thread, and every thread it starts afterwards, to
/// the lowest-numbered CPU it may run on; returns that CPU. Call it before
/// the run starts any thread.
pub fn pin_to_one_cpu() -> Result<usize, String> {
    let before = available_cpus();
    let mut mask = [0u64; CPU_SET_WORDS];
    // SAFETY: `mask` is a writable buffer of exactly the size passed and
    // outlives the call; pid 0 names the calling thread.
    if unsafe { sched_getaffinity(0, std::mem::size_of_val(&mask), mask.as_mut_ptr()) } != 0 {
        return Err(format!(
            "sched_getaffinity: {}",
            std::io::Error::last_os_error()
        ));
    }
    let cpu = mask
        .iter()
        .enumerate()
        .find(|(_, bits)| **bits != 0)
        .map(|(word, bits)| word * 64 + bits.trailing_zeros() as usize)
        .ok_or("sched_getaffinity: empty CPU mask")?;
    let mut one = [0u64; CPU_SET_WORDS];
    one[cpu / 64] = 1 << (cpu % 64);
    // SAFETY: `one` is a readable buffer of exactly the size passed and
    // outlives the call; pid 0 names the calling thread.
    if unsafe { sched_setaffinity(0, std::mem::size_of_val(&one), one.as_ptr()) } != 0 {
        return Err(format!(
            "sched_setaffinity: {}",
            std::io::Error::last_os_error()
        ));
    }
    let _ = PINNED.set((before, cpu));
    Ok(cpu)
}

/// Host and build facts for one run, as a JSON object.
pub fn metadata(data_dir: &Path) -> serde_json::Value {
    let nproc = PINNED.get().map_or_else(available_cpus, |p| p.0);
    let kernel_release = std::fs::read_to_string("/proc/sys/kernel/osrelease")
        .map(|s| s.trim().to_string())
        .unwrap_or_else(|_| "unknown".to_string());
    let mut map = serde_json::Map::new();
    let mut put = |key: &str, value: serde_json::Value| {
        map.insert(key.to_string(), value);
    };
    put("nproc", serde_json::json!(nproc as f64));
    put(
        "pinned_cpu",
        PINNED
            .get()
            .map_or(serde_json::Value::Null, |p| serde_json::json!(p.1 as f64)),
    );
    put("kernel_release", serde_json::json!(kernel_release));
    put(
        "distance_kernel",
        serde_json::json!(fdm_core::kernel::active_kernel()),
    );
    put(
        "features",
        serde_json::json!(if cfg!(feature = "parallel") {
            "parallel"
        } else {
            "default"
        }),
    );
    put("git_rev", serde_json::json!(git_rev(Path::new("."))));
    put("data_dir_fs", serde_json::json!(filesystem_type(data_dir)));
    serde_json::Value::Object(map)
}

/// The commit checked out at `root`, read from `.git` directly; `unknown`
/// outside a git checkout.
pub fn git_rev(root: &Path) -> String {
    let git = root.join(".git");
    let Ok(head) = std::fs::read_to_string(git.join("HEAD")) else {
        return "unknown".to_string();
    };
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head.to_string();
    };
    if let Ok(rev) = std::fs::read_to_string(git.join(reference)) {
        return rev.trim().to_string();
    }
    std::fs::read_to_string(git.join("packed-refs"))
        .ok()
        .and_then(|packed| {
            packed.lines().find_map(|line| {
                let (rev, name) = line.split_once(' ')?;
                (name == reference).then(|| rev.to_string())
            })
        })
        .unwrap_or_else(|| "unknown".to_string())
}

/// The filesystem type of the mount holding `path` (longest matching
/// mount point in `/proc/self/mountinfo`).
pub fn filesystem_type(path: &Path) -> String {
    let Ok(path) = std::fs::canonicalize(path) else {
        return "unknown".to_string();
    };
    let Ok(mounts) = std::fs::read_to_string("/proc/self/mountinfo") else {
        return "unknown".to_string();
    };
    let mut best: Option<(usize, String)> = None;
    for line in mounts.lines() {
        // `id parent major:minor root mount-point options ... - fstype ...`
        let fields: Vec<&str> = line.split_whitespace().collect();
        let Some(dash) = fields.iter().position(|f| *f == "-") else {
            continue;
        };
        let (Some(mount_point), Some(fs)) = (fields.get(4), fields.get(dash + 1)) else {
            continue;
        };
        if path.starts_with(mount_point)
            && best
                .as_ref()
                .is_none_or(|(len, _)| mount_point.len() > *len)
        {
            best = Some((mount_point.len(), fs.to_string()));
        }
    }
    best.map_or_else(|| "unknown".to_string(), |(_, fs)| fs)
}

/// The process's peak resident set (`VmHWM`) in MiB.
pub fn rss_peak_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status.lines().find_map(|line| {
                let kb = line.strip_prefix("VmHWM:")?.trim().strip_suffix("kB")?;
                kb.trim().parse::<f64>().ok()
            })
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}
