//! CI's daemon-smoke job soaks every registry scenario: its `runtime_soak`
//! loop names each `idc_runtime::registry::SCENARIO_KEYS` entry, and no
//! key the registry does not know. Its second kills each land after the
//! key's first working-set log-cap rebuild.

use idc_core::snapshot::factor_log_cap;
use idc_runtime::registry::SCENARIO_KEYS;
use idc_runtime::stepper::Stepper;

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

/// The carried working-set log after a step: its op count and its cap.
fn log_fill(stepper: &Stepper) -> Option<(usize, usize)> {
    let snapshot = stepper.snapshot();
    let log = snapshot.policy.warm_start.and_then(|w| w.factor_log)?;
    Some((log.kinds.len(), factor_log_cap(log.base.len())))
}

/// The second soak kills of the daemon-smoke job: each `key:step` of the
/// loop after the one that kills every key at step 12.
fn second_kills() -> Vec<(&'static str, u64)> {
    let job = job("daemon-smoke");
    let (_, after) = job.split_once("for kill in ").expect("a second kill loop");
    let (list, _) = after
        .split_once("; do")
        .expect("a `; do` after the kill list");
    list.split(|c: char| c.is_whitespace() || c == '\\')
        .filter(|w| !w.is_empty())
        .map(|w| {
            let (key, step) = w.split_once(':').expect("a `key:step` pair");
            (key, step.parse().expect("a numeric kill step"))
        })
        .collect()
}

/// Each second kill lands after its key's first log-cap rebuild, so the
/// restore replays a log that began at a rebuild. Each key's faulted
/// single-tenant run is stepped to its kill step, and must first show its
/// carried log within 32 changes of the cap and then, after steps that
/// carry no log or none, a shorter one: the from-scratch build that
/// started it anew.
#[test]
fn second_soak_kills_follow_a_log_cap_rebuild() {
    let kills = second_kills();
    assert!(!kills.is_empty(), "a second kill loop");
    for (key, kill) in kills {
        let mut stepper = Stepper::new(idc_bench::soak_faulted_config(key, 2012, None)).unwrap();
        let (mut last, mut near_cap, mut rebuilt) = (0, false, None);
        while stepper.step() < kill && stepper.step_once().unwrap() {
            match log_fill(&stepper) {
                Some((ops, _)) if near_cap && ops < last => {
                    rebuilt = Some(stepper.step());
                    break;
                }
                Some((ops, cap)) => (last, near_cap) = (ops, cap - ops < 32),
                // A log that outgrew its cap mid-solve is not carried.
                None => {}
            }
        }
        match rebuilt {
            Some(step) => assert!(step < kill, "{key}: rebuild at the kill step {kill}"),
            None => panic!("{key}: no log-cap rebuild before the kill at step {kill}"),
        }
    }
}
