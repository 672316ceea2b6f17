//! What the process can learn about the machine and itself from `/proc`:
//! the fingerprint printed with every result, CPU time and peak RSS.

use std::fs;

/// The machine a result was measured on. Printed beside every result so
/// numbers from different boxes are never compared by accident.
#[derive(Debug)]
pub struct Fingerprint {
    pub nproc: usize,
    pub cpu_model: String,
    pub hypervisor: bool,
}

impl Fingerprint {
    pub fn read() -> Fingerprint {
        let cpuinfo = fs::read_to_string("/proc/cpuinfo").unwrap_or_default();
        let field = |name: &str| {
            cpuinfo
                .lines()
                .find(|line| line.starts_with(name))
                .and_then(|line| line.split_once(':'))
                .map(|(_, value)| value.trim().to_string())
        };
        Fingerprint {
            nproc: std::thread::available_parallelism().map_or(1, |n| n.get()),
            cpu_model: field("model name").unwrap_or_else(|| "unknown".to_string()),
            hypervisor: field("flags")
                .is_some_and(|flags| flags.split_whitespace().any(|f| f == "hypervisor")),
        }
    }
}

/// The 1-, 5- and 15-minute load averages, as `/proc/loadavg` prints them.
pub fn load_average() -> String {
    fs::read_to_string("/proc/loadavg")
        .map(|text| {
            text.split_whitespace()
                .take(3)
                .collect::<Vec<_>>()
                .join(" ")
        })
        .unwrap_or_else(|_| "unknown".to_string())
}

/// Kernel clock ticks per second for the times in `/proc/<pid>/stat`
/// (`USER_HZ`, fixed at 100 by the Linux user-space ABI).
const USER_HZ: f64 = 100.0;

/// User plus system CPU seconds this process (all its threads, live and
/// exited) has used so far.
pub fn cpu_seconds() -> f64 {
    let stat = fs::read_to_string("/proc/self/stat").expect("/proc/self/stat is readable");
    // The command name (field 2) may hold spaces; fields after its closing
    // parenthesis are space-separated, starting at field 3 (`state`).
    let after_name = &stat[stat.rfind(')').expect("stat has a command name") + 2..];
    let fields: Vec<&str> = after_name.split_whitespace().collect();
    // utime and stime are fields 14 and 15 of the whole line.
    let ticks = |index: usize| -> f64 {
        fields[index - 3]
            .parse::<u64>()
            .expect("utime/stime are integers") as f64
    };
    (ticks(14) + ticks(15)) / USER_HZ
}

/// The process's peak resident set size in MiB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    let status = fs::read_to_string("/proc/self/status").expect("/proc/self/status is readable");
    let kib = status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.split_whitespace().next())
        .and_then(|n| n.parse::<u64>().ok())
        .expect("VmHWM is reported in kB");
    kib as f64 / 1024.0
}
