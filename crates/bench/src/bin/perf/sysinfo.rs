//! What the run header states about the machine and the build, the
//! scratch directory, and the process's peak memory.

use std::path::{Path, PathBuf};
use std::process::Command;

fn command_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_owned())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".to_owned())
}

/// The benchmark package's manifest, whose `[patch.crates-io]` table
/// mirrors the workspace root's.
const MANIFEST: &str = include_str!("Cargo.toml");

/// Split the `[patch.crates-io]` table into (vendored stubs, other
/// patches); an absent table means the real crates.
pub fn dependency_set(text: &str) -> String {
    if !text.contains("[patch.crates-io]") {
        return "real crates (no [patch.crates-io] table)".to_owned();
    }
    let (mut stubs, mut other) = (Vec::new(), Vec::new());
    let table = text
        .lines()
        .skip_while(|l| l.trim() != "[patch.crates-io]")
        .skip(1)
        .take_while(|l| !l.trim_start().starts_with('['));
    for line in table {
        let Some((name, value)) = line.split_once('=') else {
            continue;
        };
        if name.trim_start().starts_with('#') {
            continue;
        }
        if value.contains("vendor/") {
            stubs.push(name.trim());
        } else {
            other.push(name.trim());
        }
    }
    format!(
        "vendor/ stubs [{}], otherwise patched [{}], everything else from crates.io",
        stubs.join(" "),
        other.join(" ")
    )
}

/// Filesystem type of the mount holding `path`, from `/proc/mounts`.
fn filesystem_of(path: &Path) -> String {
    let path = path.canonicalize().unwrap_or_else(|_| path.to_owned());
    std::fs::read_to_string("/proc/mounts")
        .ok()
        .and_then(|mounts| {
            mounts
                .lines()
                .filter_map(|l| {
                    let mut f = l.split_whitespace();
                    let (_, mount, fs) = (f.next()?, f.next()?, f.next()?);
                    path.starts_with(mount)
                        .then(|| (mount.len(), fs.to_owned()))
                })
                .max()
                .map(|(_, fs)| fs)
        })
        .unwrap_or_else(|| "unknown".to_owned())
}

pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}

/// The `#` lines that open every report.
pub fn header(scratch: &Path) -> Vec<String> {
    vec![
        format!("# git rev: {}", command_line("git", &["rev-parse", "--short", "HEAD"])),
        format!("# nproc: {}", nproc()),
        format!("# rustc: {}", command_line("rustc", &["--version"])),
        format!(
            "# transport: loopback TCP, one process; WAL and span files in {} ({}), removed at exit; fsync policy the server's own",
            scratch.display(),
            filesystem_of(scratch)
        ),
        format!("# dependencies: {}", dependency_set(MANIFEST)),
    ]
}

/// Peak resident set of this process, MB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// Restart the kernel's peak-RSS watermark, so that each block reads its
/// own peak. False where `/proc/self/clear_refs` is not writable; the
/// watermark then covers the whole process.
pub fn reset_peak_rss() -> bool {
    std::fs::write("/proc/self/clear_refs", "5").is_ok()
}

/// The run's one temporary directory: WAL directories and the span file
/// go here, and it is removed when dropped unless `keep` is set. It sits
/// beside the executable, inside the build directory — the benchmark may
/// write only inside its checkout, every checkout ignores its build
/// directory, and it is never `results/`.
pub struct Scratch {
    dir: PathBuf,
    pub keep: bool,
}

impl Scratch {
    pub fn create() -> std::io::Result<Self> {
        let exe = std::env::current_exe()?;
        let beside = exe.parent().unwrap_or(Path::new("."));
        let dir = beside.join(format!("perf-tmp-{}", std::process::id()));
        if dir.exists() {
            std::fs::remove_dir_all(&dir)?;
        }
        std::fs::create_dir_all(&dir)?;
        Ok(Self { dir, keep: false })
    }

    pub fn path(&self) -> &Path {
        &self.dir
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        if !self.keep {
            let _ = std::fs::remove_dir_all(&self.dir);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dependency_set_reads_the_patch_table() {
        let manifest = "[dependencies]\nserde = \"1\"\n\n[patch.crates-io]\n# offline\nrand = { path = \"vendor/rand\" }\nserde = { path = \"../../vendor/serde\" }\nbytes = { git = \"https://example.invalid/bytes\" }\n\n[profile.bench]\ndebug = true\n";
        assert_eq!(
            dependency_set(manifest),
            "vendor/ stubs [rand serde], otherwise patched [bytes], everything else from crates.io"
        );
        assert!(dependency_set("[dependencies]\nserde = \"1\"\n").starts_with("real crates"));
        assert!(dependency_set(MANIFEST).starts_with("vendor/ stubs [rand parking_lot bytes serde"));
    }

    #[test]
    fn scratch_is_removed_on_drop() {
        let scratch = Scratch::create().unwrap();
        let dir = scratch.path().to_owned();
        std::fs::write(dir.join("wal"), b"x").unwrap();
        drop(scratch);
        assert!(!dir.exists());
    }

    #[test]
    fn peak_rss_is_positive() {
        assert!(peak_rss_mb() > 1.0);
    }
}
