//! The result documents name only targets that exist: every section of
//! `repro_all` is a bin of this crate, every `--bin NAME` or
//! `target/release/NAME` in the docs is a bin of a workspace package, every
//! `-p NAME` or `--package NAME` is a package under `crates/*` or `tests/`,
//! every `--bench NAME` is a bench target of one, and every `--flag` the
//! docs pass to a bin is a string literal in that bin's source.

mod workspace;

use std::fs;
use std::path::{Path, PathBuf};

use workspace::{manifest, packages, workspace_root};

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

/// The value of `key` in a manifest table's `key = "value"` lines.
fn table_value(table: &str, key: &str) -> Option<String> {
    table.lines().find_map(|line| {
        let (k, v) = line.split_once('=')?;
        (k.trim() == key).then(|| v.trim().trim_matches('"').to_string())
    })
}

/// The `name`s and `path`s of a manifest's `[[kind]]` target tables
/// (`bin` or `bench`); a target without a `path` lives at
/// `default_dir/NAME.rs`.
fn declared_targets(manifest: &str, kind: &str, default_dir: &str) -> Vec<(String, String)> {
    manifest
        .split(&format!("[[{kind}]]"))
        .skip(1)
        .map(|rest| {
            let table = rest.split("\n[").next().unwrap_or(rest);
            let name =
                table_value(table, "name").unwrap_or_else(|| panic!("a [[{kind}]] has a name"));
            let path =
                table_value(table, "path").unwrap_or_else(|| format!("{default_dir}/{name}.rs"));
            (name, path)
        })
        .collect()
}

/// The `[package]` names of [`packages`].
fn package_names() -> Vec<String> {
    packages()
        .iter()
        .map(|package| {
            let manifest = manifest(package);
            let (_, table) = manifest
                .split_once("[package]")
                .expect("a manifest has a [package] table");
            let table = table.split("\n[").next().unwrap_or(table);
            table_value(table, "name").expect("a package has a name")
        })
        .collect()
}

/// Every `kind` target (`bin` or `bench`) of the packages with its source
/// file: each `[[kind]]` whose file exists, plus each `default_dir/*.rs`
/// that no `[[kind]]` claims (unless the package turns discovery off).
fn workspace_targets(kind: &str, default_dir: &str) -> Vec<(String, PathBuf)> {
    let mut targets = Vec::new();
    for package in packages() {
        let manifest = manifest(&package);
        let declared = declared_targets(&manifest, kind, default_dir);
        for (name, path) in &declared {
            assert!(
                package.join(path).is_file(),
                "{}: [[{kind}]] `{name}` points at missing {path}",
                package.display()
            );
            targets.push((name.clone(), package.join(path)));
        }
        if manifest.contains(&format!("auto{kind}s = false")) {
            continue;
        }
        let Ok(dir) = fs::read_dir(package.join(default_dir)) else {
            continue;
        };
        for entry in dir {
            let file = entry.expect("a directory entry").file_name();
            let file = file.to_string_lossy();
            let Some(stem) = file.strip_suffix(".rs") else {
                continue;
            };
            let path = format!("{default_dir}/{file}");
            if !declared.iter().any(|(_, declared)| *declared == path) {
                targets.push((stem.to_string(), package.join(path)));
            }
        }
    }
    targets
}

/// Each word a doc writes right after one of `markers`. A marker that
/// starts with `-` counts only as a whole flag, not inside a word.
fn named_after<'a>(doc: &'a str, markers: &[&str]) -> Vec<&'a str> {
    let is_name_char = |c: char| c.is_ascii_alphanumeric() || c == '_' || c == '-';
    let mut names = Vec::new();
    for marker in markers {
        for (at, _) in doc.match_indices(marker) {
            let inside_word = doc[..at].chars().next_back().is_some_and(is_name_char);
            if marker.starts_with('-') && inside_word {
                continue;
            }
            let rest = &doc[at + marker.len()..];
            let end = rest.find(|c| !is_name_char(c)).unwrap_or(rest.len());
            if end > 0 {
                names.push(&rest[..end]);
            }
        }
    }
    names
}

/// The shell commands a doc shows: each line of a fenced code block, with
/// `\` line continuations joined, and each inline code span, whose line
/// breaks are spaces.
fn commands(doc: &str) -> Vec<String> {
    let mut commands = Vec::new();
    for (i, part) in doc.split("```").enumerate() {
        if i % 2 == 1 {
            let block = part.replace("\\\n", " ");
            commands.extend(block.lines().skip(1).map(str::to_string));
        } else {
            let spans = part.split('`').skip(1).step_by(2);
            commands.extend(spans.map(|span| span.replace('\n', " ")));
        }
    }
    commands
}

/// Each `(bin, flag)` a command passes: the flags after `--bin NAME --`
/// or after `target/release/NAME`, up to a shell separator or comment.
/// `[--a x|y]` usage brackets count their flag; a `<value>` placeholder is
/// not a redirect.
fn flags_passed(command: &str) -> Vec<(&str, &str)> {
    let mut passed = Vec::new();
    for (marker, needs_dashes) in [("--bin ", true), ("target/release/", false)] {
        for (at, _) in command.match_indices(marker) {
            let mut tokens = command[at + marker.len()..].split_whitespace();
            let Some(bin) = tokens.next() else {
                continue;
            };
            let mut in_args = !needs_dashes;
            for token in tokens {
                if ["|", "||", "&", "&&", ";", "#", "<"].contains(&token)
                    || token.starts_with('>')
                    || token.starts_with("2>")
                {
                    break;
                }
                let last = token.ends_with(';');
                if token == "--" {
                    in_args = true;
                } else if in_args {
                    for piece in token.trim_end_matches(';').split('|') {
                        let piece = piece.trim_start_matches(['[', '(']);
                        let is_flag = piece.strip_prefix("--").is_some_and(|rest| {
                            rest.starts_with(|c: char| c.is_ascii_alphabetic())
                        });
                        if is_flag {
                            let end = piece
                                .find(|c: char| {
                                    !(c.is_ascii_alphanumeric() || c == '-' || c == '_')
                                })
                                .unwrap_or(piece.len());
                            passed.push((bin, &piece[..end]));
                        }
                    }
                } else if !token.starts_with('-') {
                    break;
                }
                if last {
                    break;
                }
            }
        }
    }
    passed
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
fn named_after_skips_markers_inside_words() {
    let doc = "cargo run -p idc-bench; top-p idc-x; --package idc-core, --bench-out x --bench b";
    assert_eq!(
        named_after(doc, &["-p ", "--package "]),
        ["idc-bench", "idc-core"]
    );
    assert_eq!(named_after(doc, &["--bench "]), ["b"]);
}

#[test]
fn every_bin_the_docs_run_exists() {
    let bins = workspace_targets("bin", "src/bin");
    for (doc, text) in DOCS {
        let named = named_after(text, &["--bin ", "target/release/"]);
        assert!(!named.is_empty(), "{doc} names no bin");
        for name in named {
            assert!(
                bins.iter().any(|(b, _)| b == name),
                "{doc} runs `{name}`, which no workspace package builds"
            );
        }
    }
}

#[test]
fn flags_passed_reads_args_after_the_bin() {
    let block = "```sh\ncargo run -p x --bin soak -- \\\n  --tenants 4 [--mode a|b] --seed <n> > out.txt --late\n```\n";
    let inline = "run `cargo run --release --bin sim` or `./target/release/sim\n  --quiet; ./target/release/fig --csv`";
    let passed: Vec<String> = [block, inline]
        .into_iter()
        .flat_map(commands)
        .flat_map(|command| {
            flags_passed(&command)
                .into_iter()
                .map(|(bin, flag)| format!("{bin} {flag}"))
                .collect::<Vec<_>>()
        })
        .collect();
    assert_eq!(
        passed,
        [
            "soak --tenants",
            "soak --mode",
            "soak --seed",
            "sim --quiet",
            "fig --csv"
        ]
    );
}

#[test]
fn every_flag_the_docs_pass_is_in_its_bin() {
    let bins = workspace_targets("bin", "src/bin");
    let mut checked = 0;
    for (doc, text) in DOCS {
        for command in commands(text) {
            for (bin, flag) in flags_passed(&command) {
                let Some((_, path)) = bins.iter().find(|(b, _)| b == bin) else {
                    continue; // every_bin_the_docs_run_exists reports it
                };
                let source = fs::read_to_string(path).expect("a readable bin source");
                assert!(
                    source.contains(&format!("\"{flag}\"")),
                    "{doc} passes `{flag}` to `{bin}`, which {} does not name",
                    path.strip_prefix(workspace_root())
                        .unwrap_or(path)
                        .display()
                );
                checked += 1;
            }
        }
    }
    assert!(checked > 0, "the docs pass no flag to any bin");
}

#[test]
fn every_package_the_docs_name_exists() {
    let packages = package_names();
    for (doc, text) in DOCS {
        for name in named_after(text, &["-p ", "--package "]) {
            assert!(
                packages.iter().any(|p| p == name),
                "{doc} names package `{name}`, which is no package under crates/ or tests/"
            );
        }
    }
}

#[test]
fn every_bench_the_docs_run_exists() {
    let benches = workspace_targets("bench", "benches");
    for (doc, text) in DOCS {
        for name in named_after(text, &["--bench "]) {
            assert!(
                benches.iter().any(|(b, _)| b == name),
                "{doc} runs bench `{name}`, which no package under crates/ or tests/ declares"
            );
        }
    }
}
