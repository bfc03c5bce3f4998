//! The machine a run executes on: CPU pinning, the context block printed with every
//! result, and a fixed calibration kernel that shows a slow or drifting box.

use crate::json::Json;
use std::sync::OnceLock;
use std::time::Instant;

/// Enough bits for 1024 CPUs, the kernel's default `CPU_SETSIZE`.
const MASK_WORDS: usize = 16;

extern "C" {
    fn sched_getaffinity(pid: i32, cpusetsize: usize, mask: *mut u64) -> i32;
    fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
    fn posix_fadvise(fd: i32, offset: i64, len: i64, advice: i32) -> i32;
}

/// Linux's `POSIX_FADV_DONTNEED`.
const FADV_DONTNEED: i32 = 4;

/// Gives every file in `dir` one page-cache folio per 4 KiB page, whatever access
/// pattern created it: cached clean pages are dropped, then every page is read once,
/// last to first, which read-ahead takes for random access and serves one page at a time.
///
/// Why: on this kernel (6.18, ext4 with large folios) the first reads of a fresh sparse
/// file decide its folio sizes for good — near-sequential first touches get large folios
/// — and a buffered 4 KiB overwrite walks every buffer head of the folio it lands in.
/// Whether a store's first batches look sequential depends on the stream, so the cost
/// of every later page write-back depended on the *seed*: `wire_cold` ingest ran at
/// 120 k or 176 k items/s and recovered in 0.58 s or 0.38 s for the same seeds every
/// time, with identical fault, flush and WAL counts, and not at all on tmpfs.  Settled
/// like this, the same seeds read 234–243 k and 0.28–0.34 s.  Call it right after the
/// files are created, outside any clock.
pub fn settle_page_cache(dir: &std::path::Path) -> Result<(), String> {
    use std::os::fd::AsRawFd;
    use std::os::unix::fs::FileExt;
    const PAGE: u64 = 4096;
    let mut page = [0u8; PAGE as usize];
    let failed = |e: std::io::Error| format!("settle page cache of {}: {e}", dir.display());
    for entry in std::fs::read_dir(dir).map_err(failed)? {
        let path = entry.map_err(failed)?.path();
        if !path.is_file() {
            continue;
        }
        let file = std::fs::File::open(&path).map_err(failed)?;
        let pages = file.metadata().map_err(failed)?.len().div_ceil(PAGE);
        // SAFETY: the descriptor is open for the whole call; the call takes no pointers.
        // Advice only: a page it cannot drop (dirty, in use) simply stays.
        unsafe { posix_fadvise(file.as_raw_fd(), 0, 0, FADV_DONTNEED) };
        for index in (0..pages).rev() {
            file.read_at(&mut page, index * PAGE).map_err(failed)?;
        }
    }
    Ok(())
}

/// A set of CPU indices, as the affinity calls take it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CpuSet(Vec<usize>);

impl CpuSet {
    pub fn cpus(&self) -> &[usize] {
        &self.0
    }

    fn mask(&self) -> [u64; MASK_WORDS] {
        let mut mask = [0u64; MASK_WORDS];
        for &cpu in &self.0 {
            if cpu < MASK_WORDS * 64 {
                mask[cpu / 64] |= 1 << (cpu % 64);
            }
        }
        mask
    }

    /// Pins the calling thread (threads it spawns afterwards inherit the mask).
    /// Async-signal-safe — one raw syscall, no allocation — so it may also run between
    /// `fork` and `exec` to pin a child process.
    pub fn pin_current_thread(&self) -> bool {
        let mask = self.mask();
        // SAFETY: `mask` is a live, correctly sized array for the whole call and the
        // kernel only reads `cpusetsize` bytes from it; pid 0 names the calling thread.
        unsafe { sched_setaffinity(0, std::mem::size_of_val(&mask), mask.as_ptr()) == 0 }
    }
}

/// The CPUs this process may run on (a container's cpuset can be narrower than the
/// machine), in ascending order.
fn allowed_cpus() -> Vec<usize> {
    let mut mask = [0u64; MASK_WORDS];
    // SAFETY: `mask` is a live, writable array of exactly the size passed; the kernel
    // writes at most that many bytes.  pid 0 names the calling thread.
    let ok = unsafe { sched_getaffinity(0, std::mem::size_of_val(&mask), mask.as_mut_ptr()) == 0 };
    if !ok {
        return Vec::new();
    }
    (0..MASK_WORDS * 64).filter(|cpu| mask[cpu / 64] >> (cpu % 64) & 1 == 1).collect()
}

/// Rule 1 of the README: the load generator gets the first allowed CPU, the server
/// process and the in-process rings get all the others.  With a single CPU nothing is
/// pinned and the context says so.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Placement {
    pub cores: usize,
    pub generator: Option<CpuSet>,
    pub server: Option<CpuSet>,
}

impl Placement {
    /// The placement of this process, read from the affinity mask it started with.
    /// Detected once: every pin goes through the value returned here, so the mask is
    /// read before anything narrows it, and a later run in the same process (`suite`)
    /// gets the same split instead of the one-CPU mask the previous run left behind.
    pub fn get() -> &'static Self {
        static PLACEMENT: OnceLock<Placement> = OnceLock::new();
        PLACEMENT.get_or_init(Self::detect)
    }

    fn detect() -> Self {
        let allowed = allowed_cpus();
        let cores = if allowed.is_empty() {
            std::thread::available_parallelism().map_or(1, |n| n.get())
        } else {
            allowed.len()
        };
        if allowed.len() < 2 {
            return Self { cores, generator: None, server: None };
        }
        Self {
            cores,
            generator: Some(CpuSet(vec![allowed[0]])),
            server: Some(CpuSet(allowed[1..].to_vec())),
        }
    }

    pub fn pinned(&self) -> bool {
        self.generator.is_some()
    }

    pub fn pin_generator(&self) {
        if let Some(set) = &self.generator {
            set.pin_current_thread();
        }
    }

    /// Moves the calling thread onto the server CPU set (in-process rings and the
    /// `lib_memory` workload run where the server would).
    pub fn pin_like_server(&self) {
        if let Some(set) = &self.server {
            set.pin_current_thread();
        }
    }
}

fn first_line_value(path: &str, key: &str) -> Option<String> {
    let text = std::fs::read_to_string(path).ok()?;
    let line = text.lines().find(|line| line.starts_with(key))?;
    Some(line.split_once(':')?.1.trim().to_string())
}

fn commit() -> String {
    std::process::Command::new("git")
        .args(["rev-parse", "--short=12", "HEAD"])
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|out| out.status.success())
        .map(|out| String::from_utf8_lossy(&out.stdout).trim().to_string())
        .filter(|commit| !commit.is_empty())
        .unwrap_or_else(|| "unknown".to_string())
}

/// The machine half of the context block (ROADMAP aim 1: core count and commit in every
/// bench file).  The workload half — seed and sizes — is added by the caller.
pub fn context(placement: &Placement) -> Vec<(String, Json)> {
    let cpus = |set: &Option<CpuSet>| match set {
        Some(set) => Json::Arr(set.cpus().iter().map(|&c| Json::Num(c as f64)).collect()),
        None => Json::Null,
    };
    vec![
        ("cores".to_string(), Json::Num(placement.cores as f64)),
        ("pinned".to_string(), Json::Bool(placement.pinned())),
        ("generator_cpus".to_string(), cpus(&placement.generator)),
        ("server_cpus".to_string(), cpus(&placement.server)),
        (
            "cpu_model".to_string(),
            Json::str(
                first_line_value("/proc/cpuinfo", "model name").unwrap_or_else(|| "unknown".into()),
            ),
        ),
        (
            "kernel".to_string(),
            Json::str(
                std::fs::read_to_string("/proc/sys/kernel/osrelease")
                    .map_or_else(|_| "unknown".to_string(), |s| s.trim().to_string()),
            ),
        ),
        ("commit".to_string(), Json::str(commit())),
        (
            "profile".to_string(),
            Json::str(if cfg!(debug_assertions) {
                "debug (numbers not comparable)"
            } else {
                "release lto=thin codegen-units=4"
            }),
        ),
    ]
}

/// Peak resident set of a process in MiB (`VmHWM` of `/proc/<pid>/status`).
pub fn peak_rss_mib(pid: u32) -> Option<f64> {
    let value = first_line_value(&format!("/proc/{pid}/status"), "VmHWM")?;
    let kib: f64 = value.split_whitespace().next()?.parse().ok()?;
    Some(kib / 1024.0)
}

/// A fixed integer kernel (xorshift-multiply chain, no memory traffic): million steps
/// per second.  Same work every time, so a change in this number is the machine, not
/// the program.
pub fn calibration_mops() -> f64 {
    const STEPS: u64 = 50_000_000;
    let start = Instant::now();
    let mut x = std::hint::black_box(0x9E37_79B9_7F4A_7C15u64);
    for _ in 0..STEPS {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        x = x.wrapping_mul(0x2545_F491_4F6C_DD1D);
    }
    std::hint::black_box(x);
    STEPS as f64 / start.elapsed().as_secs_f64() / 1e6
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn masks_set_exactly_the_named_bits() {
        let mask = CpuSet(vec![0, 3, 64, 65]).mask();
        assert_eq!(mask[0], 0b1001);
        assert_eq!(mask[1], 0b11);
        assert!(mask[2..].iter().all(|&word| word == 0));
    }

    #[test]
    fn settling_reads_sparse_and_odd_sized_files_and_reports_a_missing_directory() {
        let dir = crate::workloads::out_dir().join(format!("test-settle-{}", std::process::id()));
        std::fs::create_dir_all(dir.join("nested")).unwrap();
        let sparse = std::fs::File::create(dir.join("sparse")).unwrap();
        sparse.set_len(3 * 4096 + 17).unwrap();
        std::fs::write(dir.join("small"), b"header").unwrap();
        assert_eq!(settle_page_cache(&dir), Ok(()));
        assert_eq!(std::fs::read(dir.join("small")).unwrap(), b"header");
        std::fs::remove_dir_all(&dir).unwrap();
        assert!(settle_page_cache(&dir).is_err());
    }

    #[test]
    fn placement_survives_the_pins_of_an_earlier_run() {
        // What `suite` does: a run pins the thread to the generator CPU, then to the
        // server set, and the next run in the same process asks for the placement again.
        let (cores, pinned) = (Placement::get().cores, Placement::get().pinned());
        Placement::get().pin_generator();
        if pinned {
            assert_eq!(Placement::detect().cores, 1, "the thread's mask was narrowed");
        }
        Placement::get().pin_like_server();
        assert_eq!((Placement::get().cores, Placement::get().pinned()), (cores, pinned));
        assert_eq!(pinned, cores >= 2);
    }

    #[test]
    fn placement_splits_generator_from_server_or_pins_nothing() {
        let placement = Placement::get();
        assert!(placement.cores >= 1);
        match (&placement.generator, &placement.server) {
            (Some(generator), Some(server)) => {
                assert_eq!(generator.cpus().len(), 1);
                assert!(!server.cpus().contains(&generator.cpus()[0]));
                assert_eq!(placement.cores, 1 + server.cpus().len());
            }
            (None, None) => assert!(!placement.pinned()),
            other => panic!("half-pinned placement: {other:?}"),
        }
    }

    #[test]
    fn context_names_cores_and_commit() {
        let context = context(Placement::get());
        for key in ["cores", "pinned", "cpu_model", "kernel", "commit", "profile"] {
            assert!(context.iter().any(|(k, _)| k == key), "missing {key}");
        }
    }
}
