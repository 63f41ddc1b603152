//! Host-side measurements of this process, and the environment record.

use crate::json::Obj;

/// Kernel clock ticks per second as `/proc` reports them (`USER_HZ`,
/// fixed at 100 on every Linux ABI this workspace targets).
const USER_HZ: f64 = 100.0;

/// utime + stime of this process so far, seconds, from `/proc/self/stat`
/// (threads that already exited are included). 0 where `/proc` is absent.
pub fn cpu_time_s() -> f64 {
    let Ok(stat) = std::fs::read_to_string("/proc/self/stat") else {
        return 0.0;
    };
    parse_cpu_ticks(&stat).map_or(0.0, |ticks| ticks as f64 / USER_HZ)
}

/// Fields 14 and 15 of a `/proc/<pid>/stat` line. The command name (field
/// 2) may itself hold spaces and parentheses, so count from its last `)`.
fn parse_cpu_ticks(stat: &str) -> Option<u64> {
    let rest = &stat[stat.rfind(')')? + 1..];
    let mut fields = rest.split_ascii_whitespace().skip(11);
    let utime: u64 = fields.next()?.parse().ok()?;
    let stime: u64 = fields.next()?.parse().ok()?;
    Some(utime + stime)
}

/// Peak resident set of this process, MB (`VmHWM`). 0 where absent.
pub fn peak_rss_mb() -> f64 {
    let Ok(status) = std::fs::read_to_string("/proc/self/status") else {
        return 0.0;
    };
    parse_vm_hwm_kb(&status).map_or(0.0, |kb| kb as f64 / 1024.0)
}

fn parse_vm_hwm_kb(status: &str) -> Option<u64> {
    let line = status.lines().find_map(|l| l.strip_prefix("VmHWM:"))?;
    line.split_ascii_whitespace().next()?.parse().ok()
}

/// Logical CPUs available to this process.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Worker-pool width every measured region is pinned to. Two is the most
/// this container has; pinning keeps a wider host from changing what the
/// numbers mean.
pub fn pool_width() -> usize {
    nproc().min(2)
}

/// What the numbers were measured on, recorded beside them.
pub fn env_json() -> String {
    let rustc = std::process::Command::new("rustc")
        .arg("--version")
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".to_string());
    let mut o = Obj::new();
    o.num("nproc", nproc() as f64);
    o.num("pool_width", pool_width() as f64);
    o.str("rustc", &rustc);
    o.str("profile", if cfg!(debug_assertions) { "debug" } else { "release" });
    o.str("target_cpu", if cfg!(target_feature = "avx2") { "x86-64-v3" } else { "baseline" });
    o.finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stat_fields_survive_a_hostile_command_name() {
        let line = "4242 (perf) bench (x)) S 1 4242 4242 0 -1 4194304 100 0 0 0 \
                    731 19 0 0 20 0 3 0 12345 1000000 250 18446744073709551615";
        assert_eq!(parse_cpu_ticks(line), Some(750));
        assert_eq!(parse_cpu_ticks("no paren"), None);
    }

    #[test]
    fn vm_hwm_is_read_in_kb() {
        let status = "Name:\tx\nVmPeak:\t  9000 kB\nVmHWM:\t    7424 kB\nVmRSS:\t 100 kB\n";
        assert_eq!(parse_vm_hwm_kb(status), Some(7424));
        assert_eq!(parse_vm_hwm_kb("Name:\tx\n"), None);
    }

    #[test]
    fn live_readings_are_sane() {
        assert!(peak_rss_mb() > 0.0);
        assert!(cpu_time_s() >= 0.0);
        assert!(pool_width() >= 1 && pool_width() <= 2);
    }
}
