//! The host record printed with every report, process CPU time, and the
//! per-run scratch directory.

use omega_bench::Json;
use std::path::{Path, PathBuf};
use std::process::Command;

/// Worker threads the benchmark gives the system: the host's
/// `available_parallelism`.
pub fn nproc() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// User plus system CPU seconds of this process so far, all threads
/// included (from `/proc/self/stat`, in 1/100 s clock ticks).
pub fn cpu_seconds() -> f64 {
    let Ok(stat) = std::fs::read_to_string("/proc/self/stat") else {
        return 0.0;
    };
    // The command name is parenthesised and may hold spaces; fields after
    // it start at field 3 (`state`), so utime (14) and stime (15) sit at
    // indices 11 and 12.
    let Some(rest) = stat.rfind(')').map(|i| &stat[i + 1..]) else {
        return 0.0;
    };
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let ticks = |i: usize| {
        fields
            .get(i)
            .and_then(|f| f.parse::<u64>().ok())
            .unwrap_or(0)
    };
    (ticks(11) + ticks(12)) as f64 / 100.0
}

fn first_line_of(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .and_then(|s| s.lines().next().map(str::to_string))
        .unwrap_or_else(|| "unknown".to_string())
}

/// Where and how the numbers were made: core count, build profile,
/// compiler, and commit (`unknown` outside a git checkout).
pub fn record() -> Json {
    let mut o = Json::obj();
    o.set("available_parallelism", Json::Num(nproc() as f64));
    let profile = if cfg!(debug_assertions) {
        "debug"
    } else {
        "release"
    };
    o.set("profile", Json::Str(profile.into()));
    o.set("rustc", Json::Str(first_line_of("rustc", &["-V"])));
    o.set(
        "commit",
        Json::Str(first_line_of("git", &["rev-parse", "HEAD"])),
    );
    o.set("os", Json::Str(std::env::consts::OS.into()));
    o.set("arch", Json::Str(std::env::consts::ARCH.into()));
    o
}

/// A directory under `.bench_tmp/` in the working directory, removed
/// (with everything in it) when dropped.
pub struct TempDir {
    path: PathBuf,
}

impl TempDir {
    /// Creates `.bench_tmp/<pid>-<tag>`, clearing anything left under
    /// that name.
    pub fn new(tag: &str) -> std::io::Result<TempDir> {
        let path = Path::new(".bench_tmp").join(format!("{}-{tag}", std::process::id()));
        let _ = std::fs::remove_dir_all(&path);
        std::fs::create_dir_all(&path)?;
        Ok(TempDir { path })
    }

    /// The directory.
    pub fn path(&self) -> &Path {
        &self.path
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.path);
        // Leave no empty parent behind once the last directory is gone.
        let _ = std::fs::remove_dir(".bench_tmp");
    }
}
