//! Stamps the benchmark binary with the facts a result row must carry about
//! the code it measured: the compiler version, the git commit when the tree
//! is a git checkout, and a digest of every source file of the measured
//! crates (which identifies the code even where no git metadata exists).

use std::fs;
use std::path::{Path, PathBuf};
use std::process::Command;

fn main() {
    let manifest = PathBuf::from(std::env::var("CARGO_MANIFEST_DIR").expect("set by cargo"));
    let root = manifest.parent().expect("the benchmark lives one level below the repository");

    let rustc = std::env::var("RUSTC").unwrap_or_else(|_| "rustc".to_string());
    let rustc_version = Command::new(rustc)
        .arg("--version")
        .output()
        .ok()
        .and_then(|out| String::from_utf8(out.stdout).ok())
        .map(|s| s.trim().to_string())
        .unwrap_or_else(|| "unknown".to_string());
    println!("cargo:rustc-env=BENCH_RUSTC={rustc_version}");

    // Only ask git when the repository root itself is a checkout, so a copy
    // of the tree inside some unrelated repository never reports its commit.
    let git_dir = root.join(".git");
    let commit = if git_dir.exists() {
        println!("cargo:rerun-if-changed={}", git_dir.join("HEAD").display());
        println!("cargo:rerun-if-changed={}", git_dir.join("refs").display());
        Command::new("git")
            .arg("-C")
            .arg(root)
            .args(["rev-parse", "HEAD"])
            .output()
            .ok()
            .filter(|out| out.status.success())
            .and_then(|out| String::from_utf8(out.stdout).ok())
            .map(|s| s.trim().to_string())
            .unwrap_or_else(|| "unknown".to_string())
    } else {
        "unknown".to_string()
    };
    println!("cargo:rustc-env=BENCH_COMMIT={commit}");

    let mut files = Vec::new();
    for dir in ["crates", "vendor"] {
        let dir = root.join(dir);
        println!("cargo:rerun-if-changed={}", dir.display());
        collect_sources(&dir, &mut files);
    }
    files.sort();
    // 64-bit FNV-1a over (relative path, contents) of each file.
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    for file in &files {
        let rel = file.strip_prefix(root).unwrap_or(file).to_string_lossy().into_owned();
        let contents = fs::read(file).unwrap_or_default();
        for byte in rel.as_bytes().iter().chain([0u8].iter()).chain(contents.iter()) {
            hash ^= u64::from(*byte);
            hash = hash.wrapping_mul(0x0100_0000_01b3);
        }
    }
    println!("cargo:rustc-env=BENCH_SOURCE_DIGEST={hash:016x}");
}

fn collect_sources(dir: &Path, out: &mut Vec<PathBuf>) {
    let Ok(entries) = fs::read_dir(dir) else { return };
    for entry in entries.flatten() {
        let path = entry.path();
        if path.is_dir() {
            collect_sources(&path, out);
        } else if path.extension().is_some_and(|e| e == "rs" || e == "toml") {
            out.push(path);
        }
    }
}
