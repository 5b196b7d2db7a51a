//! The workspace's own packages, for the tests that check the manifests
//! and the docs against them.

use std::fs;
use std::path::{Path, PathBuf};

pub fn workspace_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../..")
}

/// The package directories under `crates/*` and `tests/`.
pub fn packages() -> Vec<PathBuf> {
    let root = workspace_root();
    let mut packages: Vec<PathBuf> = fs::read_dir(root.join("crates"))
        .expect("crates/ is readable")
        .map(|entry| entry.expect("a directory entry").path())
        .filter(|path| path.join("Cargo.toml").is_file())
        .collect();
    packages.push(root.join("tests"));
    packages.sort();
    packages
}

pub fn manifest(package: &Path) -> String {
    fs::read_to_string(package.join("Cargo.toml")).expect("a readable manifest")
}
