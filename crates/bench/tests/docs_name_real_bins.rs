//! The result documents name only binaries that exist: every section of
//! `repro_all` is a bin of this crate, and every `--bin NAME` or
//! `target/release/NAME` in the docs is a bin of a workspace package.

use std::fs;
use std::path::{Path, PathBuf};

const REPRO_ALL: &str = include_str!("../src/bin/repro_all.rs");

const DOCS: [(&str, &str); 4] = [
    ("EXPERIMENTS.md", include_str!("../../../EXPERIMENTS.md")),
    ("README.md", include_str!("../../../README.md")),
    ("DESIGN.md", include_str!("../../../DESIGN.md")),
    (
        ".claude/skills/verify/SKILL.md",
        include_str!("../../../.claude/skills/verify/SKILL.md"),
    ),
];

fn workspace_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../..")
}

/// The names in `repro_all`'s `bins` list.
fn repro_all_sections() -> Vec<&'static str> {
    let (_, after) = REPRO_ALL
        .split_once("let bins = [")
        .expect("repro_all declares its bin list");
    let (list, _) = after.split_once("];").expect("a closed bin list");
    list.split(',')
        .map(|w| w.trim().trim_matches('"'))
        .filter(|w| !w.is_empty())
        .collect()
}

/// The `name`s and `path`s of a manifest's `[[bin]]` tables.
fn declared_bins(manifest: &str) -> Vec<(String, String)> {
    let value = |table: &str, key: &str| {
        table.lines().find_map(|line| {
            let (k, v) = line.split_once('=')?;
            (k.trim() == key).then(|| v.trim().trim_matches('"').to_string())
        })
    };
    manifest
        .split("[[bin]]")
        .skip(1)
        .map(|rest| {
            let table = rest.split("\n[").next().unwrap_or(rest);
            let name = value(table, "name").expect("a [[bin]] has a name");
            let path = value(table, "path").unwrap_or_else(|| format!("src/bin/{name}.rs"));
            (name, path)
        })
        .collect()
}

/// Every bin target of the workspace packages under `crates/` and of
/// `examples/`: each `[[bin]]` whose file exists, plus each
/// `src/bin/*.rs` that no `[[bin]]` claims (when the package discovers
/// bins).
fn workspace_bins() -> Vec<String> {
    let root = workspace_root();
    let mut packages: Vec<PathBuf> = fs::read_dir(root.join("crates"))
        .expect("crates/ is readable")
        .map(|entry| entry.expect("a directory entry").path())
        .collect();
    packages.push(root.join("examples"));
    let mut bins = Vec::new();
    for package in packages {
        let Ok(manifest) = fs::read_to_string(package.join("Cargo.toml")) else {
            continue;
        };
        let declared = declared_bins(&manifest);
        for (name, path) in &declared {
            assert!(
                package.join(path).is_file(),
                "{}: [[bin]] `{name}` points at missing {path}",
                package.display()
            );
            bins.push(name.clone());
        }
        if manifest.contains("autobins = false") {
            continue;
        }
        let Ok(dir) = fs::read_dir(package.join("src/bin")) else {
            continue;
        };
        for entry in dir {
            let file = entry.expect("a directory entry").file_name();
            let file = file.to_string_lossy();
            let Some(stem) = file.strip_suffix(".rs") else {
                continue;
            };
            let path = format!("src/bin/{file}");
            if !declared.iter().any(|(_, declared)| *declared == path) {
                bins.push(stem.to_string());
            }
        }
    }
    bins
}

/// The bin names a doc runs: each word after `--bin` or `target/release/`.
fn named_bins(doc: &str) -> Vec<&str> {
    let is_name_char = |c: char| c.is_ascii_alphanumeric() || c == '_' || c == '-';
    let mut names = Vec::new();
    for marker in ["--bin ", "target/release/"] {
        for (at, _) in doc.match_indices(marker) {
            let rest = &doc[at + marker.len()..];
            let end = rest.find(|c| !is_name_char(c)).unwrap_or(rest.len());
            if end > 0 {
                names.push(&rest[..end]);
            }
        }
    }
    names
}

#[test]
fn every_repro_all_section_is_a_bench_bin() {
    let sections = repro_all_sections();
    assert!(!sections.is_empty(), "repro_all runs no section");
    let bin_dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("src/bin");
    for bin in sections {
        assert!(
            bin_dir.join(format!("{bin}.rs")).is_file(),
            "repro_all runs `{bin}`, which is not a file under crates/bench/src/bin"
        );
    }
}

#[test]
fn every_bin_the_docs_run_exists() {
    let bins = workspace_bins();
    for (doc, text) in DOCS {
        let named = named_bins(text);
        assert!(!named.is_empty(), "{doc} names no bin");
        for name in named {
            assert!(
                bins.iter().any(|b| b == name),
                "{doc} runs `{name}`, which no workspace package builds"
            );
        }
    }
}
