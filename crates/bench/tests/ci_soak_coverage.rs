//! CI's daemon-smoke job soaks every registry scenario: its `runtime_soak`
//! loop names each `idc_runtime::registry::SCENARIO_KEYS` entry, and no
//! key the registry does not know.

use idc_runtime::registry::SCENARIO_KEYS;

const CI: &str = include_str!("../../../.github/workflows/ci.yml");

/// The text of the top-level job `name` of `ci.yml`: from its header up
/// to the next line indented like a job header.
fn job(name: &str) -> &'static str {
    let header = format!("\n  {name}:\n");
    let start = CI.find(&header).expect("ci.yml defines the job") + header.len();
    let body = &CI[start..];
    let end = body
        .match_indices("\n  ")
        .find(|&(i, _)| !body[i + 3..].starts_with(' '))
        .map_or(body.len(), |(i, _)| i);
    &body[..end]
}

#[test]
fn daemon_smoke_soaks_every_registry_scenario() {
    let job = job("daemon-smoke");
    let (_, after) = job.split_once("for key in ").expect("a soak loop");
    let (list, body) = after
        .split_once("; do")
        .expect("a `; do` after the key list");
    assert!(
        body.contains("runtime_soak --scenario \"$key\" --kill-step 12"),
        "the loop must run the kill/restart soak per key: {body}"
    );
    let keys: Vec<&str> = list
        .split(|c: char| c.is_whitespace() || c == '\\')
        .filter(|w| !w.is_empty())
        .collect();
    for key in SCENARIO_KEYS {
        assert!(keys.contains(&key), "CI soak loop misses `{key}`: {keys:?}");
    }
    for key in &keys {
        assert!(
            SCENARIO_KEYS.contains(key),
            "CI soak loop names `{key}`, which the registry does not know"
        );
    }
}
