//! Process CPU time, peak resident memory and the host descriptor,
//! read from `/proc`. The parsers take the file text so the unit tests
//! need no live process.

use std::fs;

/// Clock ticks per second behind `/proc/<pid>/stat` (`USER_HZ`). The
/// standard library has no `sysconf`; Linux fixes this at 100 on every
/// architecture it still supports.
pub const TICKS_PER_SEC: f64 = 100.0;

/// User and system CPU time of the whole process (all threads), in
/// seconds.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct CpuTime {
    pub user_s: f64,
    pub sys_s: f64,
}

impl CpuTime {
    pub fn total_s(&self) -> f64 {
        self.user_s + self.sys_s
    }

    pub fn since(&self, earlier: &CpuTime) -> CpuTime {
        CpuTime {
            user_s: self.user_s - earlier.user_s,
            sys_s: self.sys_s - earlier.sys_s,
        }
    }
}

/// `utime`/`stime` (fields 14 and 15) of a `/proc/<pid>/stat` line. The
/// command name (field 2) may itself hold spaces and parentheses, so
/// fields are counted from the last `)`.
pub fn parse_stat_cpu(stat: &str) -> Option<CpuTime> {
    let rest = &stat[stat.rfind(')')? + 1..];
    let mut fields = rest.split_whitespace();
    // `rest` starts at field 3 (state); utime is field 14.
    let utime: u64 = fields.nth(11)?.parse().ok()?;
    let stime: u64 = fields.next()?.parse().ok()?;
    Some(CpuTime {
        user_s: utime as f64 / TICKS_PER_SEC,
        sys_s: stime as f64 / TICKS_PER_SEC,
    })
}

/// `VmHWM` (peak resident set) of a `/proc/<pid>/status` text, in MiB.
pub fn parse_status_hwm_mb(status: &str) -> Option<f64> {
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// First `model name` of a `/proc/cpuinfo` text.
pub fn parse_cpu_model(cpuinfo: &str) -> Option<String> {
    let line = cpuinfo.lines().find(|l| l.starts_with("model name"))?;
    Some(line.split_once(':')?.1.trim().to_string())
}

pub fn cpu_time() -> CpuTime {
    fs::read_to_string("/proc/self/stat")
        .ok()
        .and_then(|s| parse_stat_cpu(&s))
        .expect("/proc/self/stat is readable and well-formed on Linux")
}

pub fn peak_rss_mb() -> f64 {
    fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| parse_status_hwm_mb(&s))
        .expect("/proc/self/status carries VmHWM on Linux")
}

/// The host a result was measured on.
#[derive(Debug, Clone)]
pub struct Host {
    pub nproc: usize,
    pub cpu_model: String,
    pub git_rev: String,
}

impl Host {
    pub fn read() -> Host {
        let nproc = std::thread::available_parallelism().map_or(1, usize::from);
        let cpu_model = fs::read_to_string("/proc/cpuinfo")
            .ok()
            .and_then(|s| parse_cpu_model(&s))
            .unwrap_or_else(|| "unknown".into());
        Host {
            nproc,
            cpu_model,
            git_rev: git_rev().unwrap_or_else(|| "unknown".into()),
        }
    }
}

/// HEAD of the repository holding this package, read from `.git`
/// directly: a benchmark checkout is often not a repository, and no
/// child process is worth starting to find that out.
fn git_rev() -> Option<String> {
    let git = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../.git");
    let head = fs::read_to_string(git.join("HEAD")).ok()?;
    let head = head.trim();
    let full = match head.strip_prefix("ref: ") {
        Some(r) => fs::read_to_string(git.join(r)).ok()?.trim().to_string(),
        None => head.to_string(),
    };
    Some(full.chars().take(12).collect())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stat_cpu_survives_a_hostile_command_name() {
        let stat = "4242 (a b) c) R 1 4242 4242 0 -1 4194304 150 0 0 0 \
                    1234 567 0 0 20 0 6 0 100 1000000 200 18446744073709551615";
        let cpu = parse_stat_cpu(stat).unwrap();
        assert_eq!(cpu.user_s, 12.34);
        assert_eq!(cpu.sys_s, 5.67);
        assert!((cpu.total_s() - 18.01).abs() < 1e-9);
        let later = CpuTime {
            user_s: 13.0,
            sys_s: 6.0,
        };
        let d = later.since(&cpu);
        assert!((d.user_s - 0.66).abs() < 1e-9 && (d.sys_s - 0.33).abs() < 1e-9);
        assert_eq!(parse_stat_cpu("garbage"), None);
        assert_eq!(parse_stat_cpu("1 (x) R 1 2"), None);
    }

    #[test]
    fn status_hwm_and_cpu_model() {
        let status = "Name:\tx\nVmPeak:\t  999 kB\nVmHWM:\t   68608 kB\nVmRSS:\t 100 kB\n";
        assert_eq!(parse_status_hwm_mb(status), Some(67.0));
        assert_eq!(parse_status_hwm_mb("Name:\tx\n"), None);
        let cpuinfo = "processor\t: 0\nmodel name\t: Some CPU @ 2.10GHz\nmodel name\t: other\n";
        assert_eq!(
            parse_cpu_model(cpuinfo).as_deref(),
            Some("Some CPU @ 2.10GHz")
        );
        assert_eq!(parse_cpu_model(""), None);
    }

    #[test]
    fn live_proc_files_parse() {
        assert!(cpu_time().total_s() >= 0.0);
        assert!(peak_rss_mb() > 0.0);
        assert!(Host::read().nproc >= 1);
    }
}
