//! Machine fingerprint, memory high-water marks and the triad bandwidth
//! the kernel figures are read against.

use crate::json::J;
use crate::stats;
use std::hint::black_box;
use std::time::Instant;

/// Cache sizes read from sysfs, in bytes (0 when unknown).
#[derive(Clone, Copy, Debug)]
pub struct Caches {
    pub l1d: usize,
    pub l2: usize,
    pub llc: usize,
}

/// Cache sizes of CPU 0. The last-level cache is the highest level
/// listed; 32 MiB is assumed when sysfs exposes none.
pub fn caches() -> Caches {
    let mut c = Caches {
        l1d: 0,
        l2: 0,
        llc: 0,
    };
    let mut llc_level = 0;
    for idx in 0..8 {
        let dir = format!("/sys/devices/system/cpu/cpu0/cache/index{idx}");
        let read = |f: &str| std::fs::read_to_string(format!("{dir}/{f}")).ok();
        let (Some(level), Some(kind), Some(size)) = (read("level"), read("type"), read("size"))
        else {
            continue;
        };
        let level: u32 = level.trim().parse().unwrap_or(0);
        let size = parse_size(size.trim());
        match (level, kind.trim()) {
            (1, "Data") => c.l1d = size,
            (2, _) => c.l2 = size,
            _ => {}
        }
        if level >= llc_level && kind.trim() != "Instruction" {
            llc_level = level;
            c.llc = size;
        }
    }
    if c.llc == 0 {
        c.llc = 32 << 20;
    }
    c
}

fn parse_size(s: &str) -> usize {
    let (digits, mult) = match s.chars().last() {
        Some('K') => (&s[..s.len() - 1], 1 << 10),
        Some('M') => (&s[..s.len() - 1], 1 << 20),
        Some('G') => (&s[..s.len() - 1], 1 << 30),
        _ => (s, 1),
    };
    digits.parse::<usize>().unwrap_or(0) * mult
}

pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// `VmHWM` (peak resident set) of process `pid` (`self` for this one),
/// in MiB.
pub fn vm_hwm_mib(pid: &str) -> f64 {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status")).unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// STREAM-style triad `a = b + s·c`, one thread, over three arrays that
/// together span four times the last-level cache. Returns GB/s counting
/// two reads and one write per element (write-allocate traffic not
/// counted), median of five passes.
pub fn triad_gbps(llc: usize) -> f64 {
    let n = (4 * llc / 3 / 8).max(1 << 20);
    let b = vec![1.0f64; n];
    let c = vec![2.0f64; n];
    let mut a = vec![0.0f64; n];
    let s = black_box(3.0f64);
    let mut rates = Vec::new();
    for _ in 0..5 {
        let t = Instant::now();
        for ((a, b), c) in a.iter_mut().zip(&b).zip(&c) {
            *a = b + s * c;
        }
        black_box(&mut a);
        rates.push((24 * n) as f64 / t.elapsed().as_secs_f64() / 1e9);
    }
    stats::median(&rates)
}

fn cpu_field(field: &str) -> Option<String> {
    let info = std::fs::read_to_string("/proc/cpuinfo").ok()?;
    info.lines()
        .find(|l| l.starts_with(field))
        .and_then(|l| l.split_once(':'))
        .map(|(_, v)| v.trim().to_string())
}

/// The machine fingerprint recorded with every result, so a result from
/// another host is recognisable as such.
pub fn fingerprint(caches: Caches, triad_gbps: f64) -> J {
    let flags = cpu_field("flags").unwrap_or_default();
    let has = |f: &str| flags.split_whitespace().any(|x| x == f);
    let rustc = std::process::Command::new("rustc")
        .arg("-V")
        .output()
        .ok()
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".into());
    let engine = {
        let problem =
            tempora_plan::Problem::heat1d(4096, 8, tempora_stencil::Heat1dCoeffs::classic(0.25));
        tempora_plan::PlanBuilder::new()
            .build(&problem)
            .ok()
            .and_then(|p| p.engine())
            .map_or("none", |e| e.name())
    };
    J::obj([
        (
            "cpu_model",
            J::str(cpu_field("model name").unwrap_or_else(|| "unknown".into())),
        ),
        ("nproc", J::Int(nproc() as i64)),
        ("l1d_bytes", J::Int(caches.l1d as i64)),
        ("l2_bytes", J::Int(caches.l2 as i64)),
        ("llc_bytes", J::Int(caches.llc as i64)),
        ("avx2", J::Bool(has("avx2"))),
        ("fma", J::Bool(has("fma"))),
        ("avx512f", J::Bool(has("avx512f"))),
        ("engine", J::str(engine)),
        (
            "tempora_engine_env",
            J::Bool(std::env::var_os("TEMPORA_ENGINE").is_some()),
        ),
        ("rustc", J::str(rustc)),
        (
            "release_profile",
            J::str(std::env::var("PERFBENCH_PROFILE").unwrap_or_else(|_| "unknown".into())),
        ),
        ("triad_gbps", J::Num(triad_gbps)),
    ])
}
