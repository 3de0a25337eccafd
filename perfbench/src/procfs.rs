//! CPU time and peak memory of a process, read from `/proc` (Linux only;
//! no `libc`, no `unsafe`).

use std::fs;

/// Kernel clock ticks per second as `/proc/<pid>/stat` reports them.
/// `USER_HZ` is 100 on every Linux ABI; reading it properly needs
/// `sysconf`, which needs `libc`.
const TICKS_PER_SECOND: f64 = 100.0;

/// CPU ticks a process has used, from one `/proc/<pid>/stat` line.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CpuTicks {
    /// `utime + stime` of the process's own threads.
    pub own: u64,
    /// `cutime + cstime`: children the process has waited for.
    pub reaped_children: u64,
}

/// Parses a `/proc/<pid>/stat` line. The command name (field 2) may hold
/// spaces and parentheses, so fields are counted from the last `)`.
pub fn parse_stat(stat: &str) -> Option<CpuTicks> {
    let rest = &stat[stat.rfind(')')? + 1..];
    // `rest` starts at field 3 (state); utime is field 14.
    let mut fields = rest.split_ascii_whitespace().skip(11);
    let mut next = || fields.next()?.parse::<u64>().ok();
    let (utime, stime, cutime, cstime) = (next()?, next()?, next()?, next()?);
    Some(CpuTicks {
        own: utime + stime,
        reaped_children: cutime + cstime,
    })
}

/// Parses the `VmHWM` (peak resident set) line of `/proc/<pid>/status`,
/// in KiB.
pub fn parse_vm_hwm_kib(status: &str) -> Option<u64> {
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let mut fields = line["VmHWM:".len()..].split_ascii_whitespace();
    let value = fields.next()?.parse().ok()?;
    (fields.next() == Some("kB")).then_some(value)
}

fn proc_path(pid: Option<u32>, file: &str) -> String {
    match pid {
        Some(pid) => format!("/proc/{pid}/{file}"),
        None => format!("/proc/self/{file}"),
    }
}

/// CPU seconds used so far by `pid` (`None` = this process), with and
/// without the children it has waited for.
///
/// # Panics
///
/// Panics when `/proc` is missing or malformed: the benchmark cannot
/// report `cpu_s` without it.
pub fn cpu_seconds(pid: Option<u32>, with_children: bool) -> f64 {
    let path = proc_path(pid, "stat");
    let text = fs::read_to_string(&path).unwrap_or_else(|e| panic!("{path}: {e}"));
    let ticks = parse_stat(&text).unwrap_or_else(|| panic!("{path}: unexpected format"));
    let total = ticks.own
        + if with_children {
            ticks.reaped_children
        } else {
            0
        };
    total as f64 / TICKS_PER_SECOND
}

/// Peak resident set of `pid` (`None` = this process) in MiB.
///
/// # Panics
///
/// As for [`cpu_seconds`].
pub fn peak_rss_mb(pid: Option<u32>) -> f64 {
    let path = proc_path(pid, "status");
    let text = fs::read_to_string(&path).unwrap_or_else(|e| panic!("{path}: {e}"));
    let kib = parse_vm_hwm_kib(&text).unwrap_or_else(|| panic!("{path}: no VmHWM line"));
    kib as f64 / 1024.0
}

#[cfg(test)]
mod tests {
    use super::*;

    const STAT: &str = "4242 (perf bench) (x)) S 1 4242 4242 0 -1 4194304 1234 567 0 0 \
                        310 25 40 7 20 0 3 0 123456 104857600 2560 18446744073709551615 \
                        1 1 0 0 0 0 0 0 0 0 0 0 17 1 0 0 0 0 0";

    #[test]
    fn stat_fields_survive_a_hostile_command_name() {
        let ticks = parse_stat(STAT).expect("parses");
        assert_eq!(
            ticks,
            CpuTicks {
                own: 335,
                reaped_children: 47
            }
        );
        assert_eq!(parse_stat("1 (x) S 1 2 3"), None);
        assert_eq!(parse_stat("no parenthesis at all"), None);
    }

    #[test]
    fn vm_hwm_line_is_found_and_unit_checked() {
        let status =
            "Name:\tperfbench\nVmPeak:\t  999999 kB\nVmHWM:\t   20480 kB\nVmRSS:\t 100 kB\n";
        assert_eq!(parse_vm_hwm_kib(status), Some(20480));
        assert_eq!(parse_vm_hwm_kib("VmHWM:\t12 MB\n"), None);
        assert_eq!(parse_vm_hwm_kib("VmRSS:\t12 kB\n"), None);
    }

    #[test]
    fn this_process_is_readable() {
        assert!(peak_rss_mb(None) > 0.0);
        assert!(cpu_seconds(None, true) >= cpu_seconds(None, false));
    }
}
