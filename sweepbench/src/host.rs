//! Provenance of a run and host noise: CPU, kernel tier, thread counts,
//! revision, steal share and peak memory. Everything is read from `/proc` and
//! the checkout; a value that cannot be read is reported as unknown.

use std::fs;
use std::time::Instant;

/// Aggregate CPU time counters from the first line of `/proc/stat`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CpuTimes {
    steal: u64,
    total: u64,
}

/// Parses the aggregate `cpu` line of `/proc/stat` (user nice system idle
/// iowait irq softirq steal ...; guest time is already inside user).
fn parse_cpu_line(stat: &str) -> Option<CpuTimes> {
    let line = stat.lines().next()?;
    let mut fields = line.split_whitespace();
    if fields.next()? != "cpu" {
        return None;
    }
    let values: Vec<u64> = fields.map(|f| f.parse().ok()).collect::<Option<_>>()?;
    let steal = *values.get(7)?;
    let total = values.iter().take(8).sum();
    Some(CpuTimes { steal, total })
}

/// Current aggregate CPU counters, when `/proc/stat` is readable.
pub fn cpu_times() -> Option<CpuTimes> {
    parse_cpu_line(&fs::read_to_string("/proc/stat").ok()?)
}

/// Share of host CPU time stolen by the hypervisor between two readings, in
/// percent.
pub fn steal_pct(before: Option<CpuTimes>, after: Option<CpuTimes>) -> Option<f64> {
    let (b, a) = (before?, after?);
    let total = a.total.checked_sub(b.total)?;
    let steal = a.steal.checked_sub(b.steal)?;
    (total > 0).then(|| 100.0 * steal as f64 / total as f64)
}

/// Parses `VmHWM` (peak resident set, kB) out of `/proc/self/status`.
fn parse_vm_hwm_kib(status: &str) -> Option<u64> {
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    line.split_whitespace().nth(1)?.parse().ok()
}

/// Peak resident set of this process in MiB.
pub fn peak_rss_mib() -> Option<f64> {
    let kib = parse_vm_hwm_kib(&fs::read_to_string("/proc/self/status").ok()?)?;
    Some(kib as f64 / 1024.0)
}

fn cpu_model() -> String {
    fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|info| {
            let line = info.lines().find(|l| l.starts_with("model name"))?;
            Some(line.split_once(':')?.1.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into())
}

/// The checked-out commit, read from `.git` in the working directory without
/// running git; `unknown` outside a git checkout.
fn git_revision() -> String {
    let read = |path: &str| fs::read_to_string(path).ok();
    let Some(head) = read(".git/HEAD") else {
        return "unknown".into();
    };
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head.to_string();
    };
    if let Some(rev) = read(&format!(".git/{reference}")) {
        return rev.trim().to_string();
    }
    read(".git/packed-refs")
        .and_then(|packed| {
            packed.lines().find_map(|l| {
                let (rev, name) = l.split_once(' ')?;
                (name == reference).then(|| rev.to_string())
            })
        })
        .unwrap_or_else(|| "unknown".into())
}

/// Times a fixed register-only loop, in ms. It touches no memory, so it
/// slows down only when the host runs the core at a lower clock or shares it;
/// a run whose sweeps slowed together with this probe met host load, not a
/// slower program.
pub fn clock_probe_ms() -> f64 {
    let start = Instant::now();
    let mut acc = [1.0f64; 8];
    for i in 0..2_000_000u32 {
        for a in &mut acc {
            *a = *a * 0.999_999_9 + f64::from(i & 1) * 1e-9;
        }
    }
    std::hint::black_box(acc);
    start.elapsed().as_secs_f64() * 1e3
}

/// One report line naming the host and build a run measured.
pub fn provenance(engine_threads: usize) -> String {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    format!(
        "# host: nproc={nproc} cpu=\"{}\" tier={} engine_threads={engine_threads} rayon_threads={} rev={}",
        cpu_model(),
        invnorm_tensor::dispatch::active().name(),
        rayon::current_num_threads(),
        git_revision(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_the_aggregate_cpu_line() {
        let stat = "cpu  100 5 50 800 10 1 2 30 0 0\ncpu0 1 2 3 4 5 6 7 8 0 0\n";
        let t = parse_cpu_line(stat).expect("valid line");
        assert_eq!(t.steal, 30);
        assert_eq!(t.total, 100 + 5 + 50 + 800 + 10 + 1 + 2 + 30);
        assert_eq!(parse_cpu_line("cpu0 1 2 3"), None);
        assert_eq!(parse_cpu_line("cpu 1 2 3"), None);
    }

    #[test]
    fn steal_share_is_a_delta() {
        let before = CpuTimes {
            steal: 10,
            total: 1000,
        };
        let after = CpuTimes {
            steal: 20,
            total: 1200,
        };
        assert_eq!(steal_pct(Some(before), Some(after)), Some(5.0));
        assert_eq!(steal_pct(Some(after), Some(before)), None);
        assert_eq!(steal_pct(Some(before), Some(before)), None);
        assert_eq!(steal_pct(None, Some(after)), None);
    }

    #[test]
    fn parses_peak_resident_set() {
        let status = "Name:\tsweepbench\nVmPeak:\t  9000 kB\nVmHWM:\t    2048 kB\n";
        assert_eq!(parse_vm_hwm_kib(status), Some(2048));
        assert_eq!(parse_vm_hwm_kib("Name:\tx\n"), None);
    }
}
