//! Every dependency a package declares is one it uses: each
//! `[dependencies]` or `[dev-dependencies]` entry of a package under
//! `crates/*` or `tests/` is named, dashes read as underscores, by at
//! least one `.rs` file of that package.

mod workspace;

use std::fs;
use std::path::Path;

use workspace::{manifest, packages, workspace_root};

/// The keys of a manifest's `[dependencies]` and `[dev-dependencies]`
/// tables (`name.workspace = true` and `name = …` alike).
fn declared_dependencies(manifest: &str) -> Vec<String> {
    let mut deps = Vec::new();
    let mut in_deps = false;
    for line in manifest.lines().map(str::trim) {
        if line.starts_with('[') {
            in_deps = line == "[dependencies]" || line == "[dev-dependencies]";
            continue;
        }
        if !in_deps || line.is_empty() || line.starts_with('#') {
            continue;
        }
        let end = line
            .find(|c: char| c == '.' || c == '=' || c.is_whitespace())
            .unwrap_or(line.len());
        deps.push(line[..end].to_string());
    }
    deps
}

/// The text of every `.rs` file under `dir`.
fn rust_sources(dir: &Path, out: &mut Vec<String>) {
    for entry in fs::read_dir(dir).expect("a readable package directory") {
        let path = entry.expect("a directory entry").path();
        if path.is_dir() {
            if path.file_name().is_some_and(|name| name != "target") {
                rust_sources(&path, out);
            }
        } else if path.extension().is_some_and(|ext| ext == "rs") {
            out.push(fs::read_to_string(&path).expect("a readable source file"));
        }
    }
}

/// Whether `ident` occurs in `text` as a whole identifier.
fn names(text: &str, ident: &str) -> bool {
    let is_ident = |c: char| c.is_ascii_alphanumeric() || c == '_';
    text.match_indices(ident).any(|(at, _)| {
        let before = text[..at].chars().next_back();
        let after = text[at + ident.len()..].chars().next();
        !before.is_some_and(is_ident) && !after.is_some_and(is_ident)
    })
}

#[test]
fn declared_dependencies_parse_both_tables() {
    let manifest = "[package]\nname = \"x\"\n\n[dependencies]\nidc-core.workspace = true\n\
                    serde = { path = \"vendor/serde\" }\n\n[dev-dependencies]\nrand = \"1\"\n\n\
                    [[bin]]\nname = \"y\"\n";
    assert_eq!(
        declared_dependencies(manifest),
        ["idc-core", "serde", "rand"]
    );
}

#[test]
fn names_matches_whole_identifiers_only() {
    assert!(names("use rand::Rng;", "rand"));
    assert!(!names("let random = 1;", "rand"));
    assert!(!names("idc_optimal", "idc_opt"));
    assert!(names("idc_opt::qp", "idc_opt"));
}

#[test]
fn every_declared_dependency_is_named_by_a_source_file() {
    let mut unused = Vec::new();
    for package in packages() {
        let mut sources = Vec::new();
        rust_sources(&package, &mut sources);
        for dep in declared_dependencies(&manifest(&package)) {
            let ident = dep.replace('-', "_");
            if !sources.iter().any(|text| names(text, &ident)) {
                let package = package.strip_prefix(workspace_root()).unwrap_or(&package);
                unused.push(format!("{}: {dep}", package.display()));
            }
        }
    }
    assert!(
        unused.is_empty(),
        "dependencies no .rs file of their package names:\n  {}",
        unused.join("\n  ")
    );
}
