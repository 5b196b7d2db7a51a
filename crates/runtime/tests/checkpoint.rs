//! Integration tests for checkpoint/restore and the metrics endpoint of
//! hosted tenants.
//!
//! The property tests run the 25-step smoothing scenario (cheap enough for
//! proptest's case counts) and assert that snapshotting at an *arbitrary*
//! step — through a full JSON round trip — restores a stepper whose
//! remaining trajectory is bit-for-bit the uninterrupted one, under
//! arbitrary fault schedules. Corrupt and truncated snapshots must be
//! rejected with a clean error, never a panic. The plant's battery and
//! demand-charge meter resume byte-identically too, and version-2
//! checkpoints (written before the plant joined the resume state) restore
//! exactly when their scenario has neither.

use std::sync::Arc;

use idc_core::snapshot::{factor_log_cap, FactorLogSnapshot, MpcPolicySnapshot};
use idc_runtime::feed::{FeedFaults, MAX_DELAY_TICKS};
use idc_runtime::http::MetricsServer;
use idc_runtime::snapshot::{RuntimeSnapshot, MAX_SEED, SNAPSHOT_VERSION};
use idc_runtime::stepper::{Stepper, StepperConfig};
use idc_runtime::tenant::{ManagerConfig, TenantManager, TenantSpec};
use idc_runtime::Error;
use idc_testkit::equivalence::bitwise_f64;
use proptest::prelude::*;

fn config(drop_pm: u64, delay: u64, staleness: u64) -> StepperConfig {
    StepperConfig {
        workload_faults: FeedFaults::new(11, drop_pm as f64 / 1000.0, delay),
        price_faults: FeedFaults::new(13, drop_pm as f64 / 1000.0, delay),
        max_staleness_ticks: staleness,
        ..StepperConfig::fault_free("smoothing", 2012)
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Snapshot at step k → JSON → restore reproduces the uninterrupted
    /// trajectory bit for bit, whatever the kill point and fault mix.
    #[test]
    fn restore_at_any_step_is_bit_identical(
        kill_step in 0u64..25,
        drop_pm in 0u64..400,
        delay in 0u64..3,
        staleness in 0u64..4,
    ) {
        let cfg = config(drop_pm, delay, staleness);
        let mut live = Stepper::new(cfg.clone()).unwrap();
        for _ in 0..kill_step {
            live.step_once().unwrap();
        }
        let json = live.snapshot().to_json().unwrap();
        let snapshot = RuntimeSnapshot::from_json(&json).unwrap();
        let mut resumed = Stepper::restore(&snapshot).unwrap();
        while live.step_once().unwrap() {
            prop_assert!(resumed.step_once().unwrap());
        }
        prop_assert!(!resumed.step_once().unwrap());
        prop_assert_eq!(
            live.accumulated_cost().to_bits(),
            resumed.accumulated_cost().to_bits()
        );
        for j in 0..3 {
            prop_assert_eq!(
                bitwise_f64("power", live.power_mw(j), resumed.power_mw(j)),
                None
            );
            prop_assert_eq!(live.servers(j), resumed.servers(j));
        }
        prop_assert_eq!(live.degraded_steps(), resumed.degraded_steps());
        prop_assert_eq!(live.snapshot(), resumed.snapshot());
    }

    /// Any prefix truncation of a valid snapshot is rejected cleanly (an
    /// `Err`, never a panic), and so is arbitrary corruption of one byte.
    #[test]
    fn truncated_or_corrupt_snapshots_are_rejected(
        steps in 1u64..10,
        cut in 0usize..4096,
        flip in 0usize..4096,
    ) {
        let mut stepper = Stepper::new(config(100, 1, 2)).unwrap();
        for _ in 0..steps {
            stepper.step_once().unwrap();
        }
        let json = stepper.snapshot().to_json().unwrap();

        let cut = cut.min(json.len().saturating_sub(1));
        prop_assert!(RuntimeSnapshot::from_json(&json[..cut]).is_err());

        let mut bytes = json.clone().into_bytes();
        let flip = flip.min(bytes.len() - 1);
        bytes[flip] = if bytes[flip] == b'!' { b'?' } else { b'!' };
        if let Ok(text) = String::from_utf8(bytes) {
            // Corruption may still parse (e.g. inside the scenario key
            // string); then restore must catch it instead.
            if let Ok(snap) = RuntimeSnapshot::from_json(&text) {
                if snap != stepper.snapshot() {
                    prop_assert!(Stepper::restore(&snap).is_err());
                }
            }
        }
    }
}

/// Runs `key` (capped at `steps`) under light feed faults, kills it at
/// `kill_step`, resumes from a JSON round trip and checks the two runs end
/// in equal snapshots. Returns the final snapshot.
fn kill_and_resume(key: &str, steps: usize, kill_step: u64) -> RuntimeSnapshot {
    let cfg = StepperConfig {
        num_steps: Some(steps),
        workload_faults: FeedFaults::new(11, 0.1, 1),
        price_faults: FeedFaults::new(13, 0.1, 1),
        max_staleness_ticks: 1,
        ..StepperConfig::fault_free(key, 2012)
    };
    let mut live = Stepper::new(cfg).unwrap();
    for _ in 0..kill_step {
        live.step_once().unwrap();
    }
    let json = live.snapshot().to_json().unwrap();
    let mut resumed = Stepper::restore(&RuntimeSnapshot::from_json(&json).unwrap()).unwrap();
    while live.step_once().unwrap() {
        assert!(resumed.step_once().unwrap());
    }
    assert!(!resumed.step_once().unwrap());
    let end = live.snapshot();
    assert_eq!(resumed.snapshot(), end, "{key}: resumed run diverged");
    end
}

/// A battery tenant killed mid-run resumes with its state of charge,
/// conversion losses and trajectory intact.
#[test]
fn storage_tenant_resumes_mid_run_byte_identically() {
    let end = kill_and_resume("storage_peak_shaving", 25, 12);
    let battery = end
        .battery
        .expect("storage scenario checkpoints its battery");
    assert_eq!(battery.soc_mwh.len(), 3);
    assert!(battery.loss_mwh > 0.0, "battery never moved");
    assert!(end.demand_meter.is_none());
}

/// A tariffed tenant killed mid-run resumes with its billed peaks and
/// accrued demand charge intact.
#[test]
fn demand_charge_tenant_resumes_mid_run_byte_identically() {
    let end = kill_and_resume("demand_charge", 40, 17);
    let meter = end
        .demand_meter
        .expect("tariffed scenario checkpoints its meter");
    assert!(meter.accrued_dollars > 0.0);
    assert!(meter.billed_peak_mw.iter().all(|&p| p > 0.0));
    assert!(end.battery.is_none());
}

/// The snapshot of `key` at step 5, rewritten as a version-2 checkpoint:
/// the version says 2 and the plant's battery and meter are absent.
fn as_v2(key: &str) -> String {
    let mut live = Stepper::new(StepperConfig {
        num_steps: Some(12),
        ..StepperConfig::fault_free(key, 2012)
    })
    .unwrap();
    for _ in 0..5 {
        live.step_once().unwrap();
    }
    let mut snapshot = live.snapshot();
    snapshot.battery = None;
    snapshot.demand_meter = None;
    let json = snapshot.to_json().unwrap();
    let current = format!("\"version\":{SNAPSHOT_VERSION},");
    assert!(json.contains(&current));
    for absent in ["\"battery\":null,", "\"demand_meter\":null,"] {
        assert!(json.contains(absent), "{absent} not serialized");
    }
    json.replace(&current, "\"version\":2,")
        .replace("\"battery\":null,", "")
        .replace("\"demand_meter\":null,", "")
}

/// A v2 checkpoint of a storage-free, tariff-free scenario restores with
/// an empty plant and resumes byte-identically.
#[test]
fn v2_checkpoint_without_plant_features_resumes_byte_identically() {
    let legacy = as_v2("smoothing");
    let snapshot = RuntimeSnapshot::from_json(&legacy).unwrap();
    assert_eq!(snapshot.version, 2);
    let mut resumed = Stepper::restore(&snapshot).unwrap();
    let mut live = Stepper::new(StepperConfig {
        num_steps: Some(12),
        ..StepperConfig::fault_free("smoothing", 2012)
    })
    .unwrap();
    for _ in 0..5 {
        live.step_once().unwrap();
    }
    assert_eq!(resumed.snapshot(), live.snapshot());
    while live.step_once().unwrap() {
        assert!(resumed.step_once().unwrap());
    }
    assert_eq!(
        resumed.snapshot().to_json().unwrap(),
        live.snapshot().to_json().unwrap()
    );
}

/// A v2 checkpoint of a storage or demand-charge scenario was metered
/// without the plant: restoring it fails and names the missing state.
#[test]
fn v2_checkpoint_of_a_plant_scenario_names_the_missing_state() {
    for (key, missing) in [
        ("storage_peak_shaving", "battery state"),
        ("demand_charge", "demand-charge meter"),
        ("storage_plus_shifting", "battery state"),
    ] {
        let snapshot = RuntimeSnapshot::from_json(&as_v2(key)).unwrap();
        match Stepper::restore(&snapshot) {
            Err(Error::Snapshot(msg)) => {
                assert!(msg.contains(missing), "{key}: {msg}");
                assert!(msg.contains("v2"), "{key}: {msg}");
            }
            Err(e) => panic!("{key}: wrong error for a v2 plant checkpoint: {e}"),
            Ok(_) => panic!("{key}: a v2 plant checkpoint must not restore"),
        }
    }
}

/// A checkpoint written under the retired `dense` backend label must fail
/// to restore with a configuration error naming the label — never resume
/// silently on some other backend.
#[test]
fn snapshot_with_retired_dense_backend_fails_to_restore() {
    let mut stepper = Stepper::new(StepperConfig {
        backend: Some("banded".into()),
        ..StepperConfig::fault_free("smoothing", 2012)
    })
    .unwrap();
    for _ in 0..3 {
        stepper.step_once().unwrap();
    }
    let mut snapshot = stepper.snapshot();
    snapshot.backend = Some("dense".into());
    let json = snapshot.to_json().unwrap();
    let snapshot = RuntimeSnapshot::from_json(&json).unwrap();
    match Stepper::restore(&snapshot) {
        Err(Error::Config(msg)) => assert_eq!(msg, "unknown backend 'dense'"),
        Err(e) => panic!("wrong error for a dense checkpoint: {e}"),
        Ok(_) => panic!("a dense checkpoint must not restore"),
    }
}

/// The checkpoint's number model holds every integer below `2⁵³` exactly:
/// a run seeded `2⁵³ - 1` round-trips through JSON with its seed, and one
/// seeded `2⁵³`, which a checkpoint could not tell from `2⁵³ + 1`, is
/// refused before it starts. A snapshot that carries such a seed is
/// refused too.
#[test]
fn seeds_above_two_to_the_53_are_refused() {
    let mut stepper = Stepper::new(StepperConfig::fault_free("smoothing", MAX_SEED)).unwrap();
    stepper.step_once().unwrap();
    let json = stepper.snapshot().to_json().unwrap();
    let snapshot = RuntimeSnapshot::from_json(&json).unwrap();
    assert_eq!(snapshot.seed, MAX_SEED);
    assert_eq!(
        Stepper::restore(&snapshot)
            .unwrap()
            .snapshot()
            .to_json()
            .unwrap(),
        json
    );
    match Stepper::new(StepperConfig::fault_free("smoothing", MAX_SEED + 1)) {
        Err(Error::Config(msg)) => assert!(msg.contains("scenario seed 9007199254740992"), "{msg}"),
        Err(e) => panic!("wrong error for seed 2^53: {e}"),
        Ok(_) => panic!("seed 2^53 must be refused"),
    }
    let mut snapshot = stepper.snapshot();
    snapshot.seed = MAX_SEED + 1;
    match snapshot.validate() {
        Err(Error::Snapshot(msg)) => assert!(msg.contains("above 2^53"), "{msg}"),
        other => panic!("a seed above 2^53 - 1 must fail validation: {other:?}"),
    }
}

/// Integers read from a checkpoint are exact or refused: a real
/// `smoothing` checkpoint whose step cursor is edited to `3.7` or `-1`,
/// whose `num_steps` is `1e300`, or whose seed is `2⁵³ + 1` (which parses
/// as `2⁵³`) fails `from_json` with an error naming `u64` and the refused
/// field, instead of restoring as step 3, step 0, `u64::MAX` steps or seed
/// `2⁵³`.
#[test]
fn checkpoint_integers_are_exact_or_refused() {
    let mut stepper = Stepper::new(config(0, 0, 3)).unwrap();
    for _ in 0..3 {
        stepper.step_once().unwrap();
    }
    let json = stepper.snapshot().to_json().unwrap();
    for (name, field, edited) in [
        ("step", "\"step\":3,", "\"step\":3.7,"),
        ("step", "\"step\":3,", "\"step\":-1,"),
        ("num_steps", "\"num_steps\":25,", "\"num_steps\":1e300,"),
        ("seed", "\"seed\":2012,", "\"seed\":9007199254740993,"),
    ] {
        assert_eq!(json.matches(field).count(), 1, "{field} in {json}");
        match RuntimeSnapshot::from_json(&json.replacen(field, edited, 1)) {
            Err(Error::Snapshot(msg)) => {
                assert!(msg.contains("is not an exact u64"), "{edited}: {msg}");
                assert!(
                    msg.contains(&format!("field `{name}` of ")),
                    "{edited}: {msg}"
                );
            }
            Err(e) => panic!("{edited}: wrong error: {e}"),
            Ok(_) => panic!("{edited} must be refused"),
        }
    }
    assert!(RuntimeSnapshot::from_json(&json).is_ok());
}

/// A checkpoint whose policy warm start holds a non-finite `ΔU` entry is
/// refused with a reason naming it: `1e999` in the JSON parses to `inf`,
/// which the controller would otherwise take as its warm start.
#[test]
fn non_finite_warm_start_is_refused() {
    let mut stepper = Stepper::new(config(0, 0, 3)).unwrap();
    for _ in 0..3 {
        stepper.step_once().unwrap();
    }
    let snapshot = stepper.snapshot();
    let first = snapshot.policy.warm_start.as_ref().unwrap().delta_u[0];
    let json = snapshot.to_json().unwrap();
    let field = format!("\"delta_u\":[{}", serde_json::to_string(&first).unwrap());
    assert_eq!(json.matches(&field).count(), 1, "{json}");
    let corrupt = json.replacen(&field, "\"delta_u\":[1e999", 1);
    match RuntimeSnapshot::from_json(&corrupt) {
        Err(Error::Snapshot(msg)) => assert!(msg.contains("warm-start ΔU entry inf"), "{msg}"),
        Err(e) => panic!("wrong error for a non-finite warm start: {e}"),
        Ok(_) => panic!("a non-finite warm start must be refused"),
    }
}

/// A checkpoint whose fault schedule holds a delay beyond
/// `MAX_DELAY_TICKS` fails to restore with a snapshot error naming the
/// field: the largest delay the JSON holds exactly, `2⁵³ - 1`, on either
/// feed, one past the cap, and `u64::MAX`, which used to wrap
/// `max_delay_ticks + 1` to a zero modulus. A delay at the cap still
/// restores and steps.
#[test]
fn snapshot_with_out_of_range_feed_delay_is_refused() {
    let mut stepper = Stepper::new(config(100, 2, 1)).unwrap();
    for _ in 0..3 {
        stepper.step_once().unwrap();
    }
    let json = stepper.snapshot().to_json().unwrap();
    let field = "\"max_delay_ticks\":2";
    assert_eq!(json.matches(field).count(), 2, "{json}");
    for (which, delay, parsed) in [
        (0, "9007199254740991", (1 << 53) - 1),
        (1, "9007199254740991", (1 << 53) - 1),
        (0, "1048577", MAX_DELAY_TICKS + 1),
    ] {
        let mut at = json.match_indices(field).map(|(i, _)| i);
        let start = at.nth(which).unwrap();
        let corrupt = format!(
            "{}\"max_delay_ticks\":{delay}{}",
            &json[..start],
            &json[start + field.len()..]
        );
        let snapshot = RuntimeSnapshot::from_json(&corrupt).unwrap();
        let delays = [
            snapshot.workload_faults.max_delay_ticks,
            snapshot.price_faults.max_delay_ticks,
        ];
        assert!(delays.contains(&parsed), "{delays:?}");
        match Stepper::restore(&snapshot) {
            Err(Error::Snapshot(msg)) => assert!(msg.contains("max delay"), "{msg}"),
            Err(e) => panic!("wrong error for delay {delay}: {e}"),
            Ok(_) => panic!("delay {delay} must not restore"),
        }
    }
    let mut widest = stepper.snapshot();
    widest.price_faults.max_delay_ticks = u64::MAX;
    match Stepper::restore(&widest) {
        Err(Error::Snapshot(msg)) => assert!(msg.contains("max delay"), "{msg}"),
        Err(e) => panic!("wrong error for delay u64::MAX: {e}"),
        Ok(_) => panic!("delay u64::MAX must not restore"),
    }
    let mut at_cap = stepper.snapshot();
    at_cap.workload_faults.max_delay_ticks = MAX_DELAY_TICKS;
    let mut resumed = Stepper::restore(&at_cap).unwrap();
    assert!(resumed.step_once().unwrap());
}

/// Version-2 checkpoints written while the retired sharded backend existed
/// carry a `multipliers` list in their warm start, and may name that
/// backend. The extra key is ignored, so a banded checkpoint resumes
/// byte-identically; a `sharded[N]` checkpoint fails to restore with a
/// configuration error naming the label.
#[test]
fn v2_snapshot_with_sharded_era_fields_restores_or_names_the_label() {
    let mut live = Stepper::new(StepperConfig {
        backend: Some("banded".into()),
        ..StepperConfig::fault_free("smoothing", 2012)
    })
    .unwrap();
    for _ in 0..5 {
        live.step_once().unwrap();
    }
    let json = live.snapshot().to_json().unwrap();
    assert!(json.contains("\"warm_start\":{") && json.contains("\"backend\":\"banded\""));
    let legacy = json.replace(
        "\"warm_start\":{",
        "\"warm_start\":{\"multipliers\":[0.25,-1.5,3.0],",
    );

    let mut resumed = Stepper::restore(&RuntimeSnapshot::from_json(&legacy).unwrap()).unwrap();
    assert_eq!(resumed.snapshot(), live.snapshot());
    while live.step_once().unwrap() {
        assert!(resumed.step_once().unwrap());
    }
    assert!(!resumed.step_once().unwrap());
    assert_eq!(
        resumed.snapshot().to_json().unwrap(),
        live.snapshot().to_json().unwrap()
    );

    let sharded = legacy.replace("\"backend\":\"banded\"", "\"backend\":\"sharded[2]\"");
    match Stepper::restore(&RuntimeSnapshot::from_json(&sharded).unwrap()) {
        Err(Error::Config(msg)) => assert_eq!(msg, "unknown backend 'sharded[2]'"),
        Err(e) => panic!("wrong error for a sharded checkpoint: {e}"),
        Ok(_) => panic!("a sharded checkpoint must not restore"),
    }
}

/// A short fault-free run of `key`.
fn short(key: &str, steps: usize) -> StepperConfig {
    StepperConfig {
        num_steps: Some(steps),
        ..StepperConfig::fault_free(key, 2012)
    }
}

/// The body of `GET path` from the server at `addr`.
fn get(addr: std::net::SocketAddr, path: &str) -> String {
    use std::io::{Read as _, Write as _};
    let mut stream = std::net::TcpStream::connect(addr).unwrap();
    stream
        .write_all(format!("GET {path} HTTP/1.1\r\nHost: x\r\n\r\n").as_bytes())
        .unwrap();
    let mut response = String::new();
    stream.read_to_string(&mut response).unwrap();
    response
}

/// Hosts `(id, config)` tenants in one manager served over HTTP, runs it
/// to the end, and returns it with its scraped `/metrics` page.
fn hosted(tenants: &[(&str, StepperConfig)]) -> (TenantManager, String) {
    let mut manager = TenantManager::new(ManagerConfig {
        workers: 2,
        ..ManagerConfig::default()
    });
    for (id, config) in tenants {
        manager
            .add_tenant(TenantSpec::max_speed(*id, config.clone()))
            .unwrap();
    }
    let board = manager.status_board();
    let server = MetricsServer::start_with_status(
        "127.0.0.1:0",
        manager.registry(),
        Arc::new(move |id: &str| board.render(id)),
    )
    .unwrap();
    let report = manager.run().unwrap();
    assert!(report.tenants.iter().all(|t| t.finished));
    let text = get(server.addr(), "/metrics");
    for (id, _) in tenants {
        let status = get(server.addr(), &format!("/tenants/{id}"));
        assert!(status.contains("\"finished\":true"), "{status}");
    }
    server.shutdown();
    (manager, text)
}

/// Hosted tenant `id`'s series on the `/metrics` page and in the registry
/// agree with a solo run of its `config`: solver, feed, cost, power and
/// latency series for every tenant; the per-IDC state of charge and the
/// accrued demand charge, described, exactly when the plant has a battery
/// and a tariff.
fn check_tenant_series(manager: &TenantManager, text: &str, id: &str, config: &StepperConfig) {
    let mut solo = Stepper::new(config.clone()).unwrap();
    solo.run(&mut idc_core::clock::SimClock).unwrap();
    let steps = solo.step();
    let label = format!("{{tenant=\"{id}\"");
    let mut expected = vec![
        format!("idc_steps_total{label}}} {steps}\n"),
        format!("idc_tenant_step_duration_seconds_count{label}}} {steps}\n"),
        format!("idc_policy_phase_ns_total{label},phase=\"solve\"}}"),
    ];
    for base in [
        "idc_degraded_steps_total",
        "idc_fallback_steps_total",
        "idc_solver_warm_solves_total",
        "idc_solver_cold_solves_total",
        "idc_qp_iterations_total",
        "idc_qp_readmissions_total",
        "idc_qp_bound_flips_total",
        "idc_qp_step_updates_total",
        "idc_accumulated_cost_dollars",
    ] {
        expected.push(format!("{base}{label}}}"));
    }
    for idc in solo.scenario().fleet().idcs() {
        expected.push(format!("idc_power_mw{label},idc=\"{}\"}}", idc.name()));
    }
    for key in &expected {
        assert!(text.contains(key.as_str()), "missing {key} in:\n{text}");
    }
    let cost_key = format!("idc_accumulated_cost_dollars{label}}}");
    let cost_line = text.lines().find(|l| l.starts_with(&cost_key)).unwrap();
    let cost: f64 = cost_line
        .split_whitespace()
        .nth(1)
        .unwrap()
        .parse()
        .unwrap();
    assert_eq!(cost, solo.accumulated_cost());

    let registry = manager.registry();
    let plant = solo.plant();
    assert_eq!(
        registry.gauge(&format!("idc_demand_charge_dollars{label}}}")),
        plant.demand_charge(),
        "{id}"
    );
    let soc = plant.battery().map(|b| b.soc_mwh());
    for (j, idc) in solo.scenario().fleet().idcs().iter().enumerate() {
        let key = format!("idc_battery_soc_mwh{label},idc=\"{}\"}}", idc.name());
        assert_eq!(registry.gauge(&key), soc.map(|soc| soc[j]), "{key}");
    }
    for (base, published) in [
        ("idc_battery_soc_mwh", soc.is_some()),
        ("idc_demand_charge_dollars", plant.demand_charge().is_some()),
    ] {
        assert_eq!(
            text.contains(&format!("{base}{label}")),
            published,
            "{base} of '{id}' in:\n{text}"
        );
        if published {
            assert!(
                text.contains(&format!("# HELP {base}")),
                "{base} undescribed"
            );
        }
    }
}

/// A one-tenant manager served over HTTP exposes the expected keys with
/// values consistent with the stepper's own accounting, and a storage-free,
/// tariff-free tenant publishes no plant series.
#[test]
fn metrics_endpoint_reflects_stepper_state() {
    let config = short("smoothing", 5);
    let (manager, text) = hosted(&[("smoothing", config.clone())]);
    check_tenant_series(&manager, &text, "smoothing", &config);
    for key in ["idc_battery_soc_mwh", "idc_demand_charge_dollars"] {
        assert!(!text.contains(key), "unexpected {key} in:\n{text}");
    }
}

/// A tenant with a battery and a tariff publishes its per-IDC state of
/// charge and its accrued demand charge, described, at the plant's values.
#[test]
fn plant_tenant_publishes_battery_and_demand_charge_series() {
    let config = short("storage_plus_shifting", 6);
    let (manager, text) = hosted(&[("storage_plus_shifting", config.clone())]);
    check_tenant_series(&manager, &text, "storage_plus_shifting", &config);
}

/// Beside a neighbour, each tenant of a manager publishes its whole
/// metric set under its own label: the solver counters, and the plant
/// series of the one with a battery and a tariff.
#[test]
fn every_hosted_tenant_publishes_the_whole_metric_set() {
    let tenants = [
        ("store", short("storage_plus_shifting", 6)),
        ("plain", short("smoothing", 5)),
    ];
    let (manager, text) = hosted(&tenants);
    for (id, config) in &tenants {
        check_tenant_series(&manager, &text, id, config);
    }
}

/// A fault-free checkpoint of `key` after `steps` steps.
fn checkpoint(key: &str, steps: usize) -> (Stepper, RuntimeSnapshot) {
    let mut stepper = Stepper::new(StepperConfig::fault_free(key, 2012)).unwrap();
    for _ in 0..steps {
        assert!(stepper.step_once().unwrap());
    }
    let snapshot = stepper.snapshot();
    (stepper, snapshot)
}

/// The carried working-set log of a checkpoint, created empty when the
/// checkpoint carries none.
fn factor_log(policy: &mut MpcPolicySnapshot) -> &mut FactorLogSnapshot {
    let warm = policy.warm_start.as_mut().expect("a solve has happened");
    warm.factor_log.get_or_insert_with(|| FactorLogSnapshot {
        structure: Vec::new(),
        base: Vec::new(),
        kinds: Vec::new(),
        rows: Vec::new(),
    })
}

/// Real checkpoints of a plain, a storage and a tariff key, each mutated
/// in one policy field: a non-finite previous input, a negative or
/// non-finite battery rate or running peak, an unknown working-set log
/// operation and a log past its cap are each refused by `validate` — and
/// so by `Stepper::restore` — with a reason naming the field.
#[test]
fn mutated_policy_state_is_refused_by_name() {
    type Mutation = (&'static str, fn(&mut MpcPolicySnapshot) -> bool);
    fn set_first(v: Option<&mut [f64]>, x: f64) -> bool {
        v.and_then(|v| v.first_mut()).map(|e| *e = x).is_some()
    }
    let mutations: [Mutation; 9] = [
        ("prev_input entry NaN", |p| {
            set_first(p.prev_input.as_deref_mut(), f64::NAN)
        }),
        ("prev_input entry inf", |p| {
            set_first(p.prev_input.as_deref_mut(), f64::INFINITY)
        }),
        ("prev_charge_mw entry -1", |p| {
            set_first(p.prev_charge_mw.as_deref_mut(), -1.0)
        }),
        ("prev_charge_mw entry NaN", |p| {
            set_first(p.prev_charge_mw.as_deref_mut(), f64::NAN)
        }),
        ("prev_discharge_mw entry -1", |p| {
            set_first(p.prev_discharge_mw.as_deref_mut(), -1.0)
        }),
        ("peak_so_far_mw entry -1", |p| {
            set_first(Some(&mut p.peak_so_far_mw), -1.0)
        }),
        ("peak_so_far_mw entry inf", |p| {
            set_first(Some(&mut p.peak_so_far_mw), f64::INFINITY)
        }),
        ("unknown factor-log operation kind 7", |p| {
            let log = factor_log(p);
            log.kinds.push(7);
            log.rows.push(0);
            true
        }),
        ("above the cap", |p| {
            let log = factor_log(p);
            let over = factor_log_cap(log.base.len()) + 1;
            log.kinds = vec![0; over];
            log.rows = vec![0; over];
            true
        }),
    ];
    let mut refused = vec![0; mutations.len()];
    for key in ["smoothing", "storage_peak_shaving", "demand_charge"] {
        let (_, snapshot) = checkpoint(key, 10);
        snapshot.validate().unwrap();
        for (count, (reason, mutate)) in refused.iter_mut().zip(&mutations) {
            let mut bad = snapshot.clone();
            if !mutate(&mut bad.policy) {
                continue;
            }
            for result in [
                bad.validate().map(|_| ()),
                Stepper::restore(&bad).map(|_| ()),
            ] {
                match result {
                    Err(Error::Snapshot(msg)) => assert!(msg.contains(reason), "{key}: {msg}"),
                    Err(e) => panic!("{key}: wrong error for {reason}: {e}"),
                    Ok(()) => panic!("{key}: {reason} must be refused"),
                }
            }
            *count += 1;
        }
    }
    // Every reason is met: the input and log ones on all three keys, the
    // battery ones on the storage key, the peak ones on two.
    assert_eq!(refused, [3, 3, 1, 1, 1, 2, 2, 3, 3]);
}

/// A workload feed cursor is checked against the draws of its published
/// ticks, in time bounded by the run: an RNG count of `2⁵³ - 1` (the
/// largest the JSON holds exactly), the true count plus one and a cursor
/// past the run's last tick are each refused by name, and the untouched
/// checkpoint resumes bit for bit.
#[test]
fn restored_feed_cursor_is_checked_against_its_ticks() {
    let cfg = StepperConfig {
        num_steps: Some(20),
        ..StepperConfig::fault_free("noisy_day", 2012)
    };
    let mut live = Stepper::new(cfg).unwrap();
    for _ in 0..10 {
        live.step_once().unwrap();
    }
    let snapshot = live.snapshot();
    let cursor = &snapshot.workload_feed;
    assert!(cursor.rng_draws > 0, "noisy_day draws workload noise");
    let json = snapshot.to_json().unwrap();
    // The cursor's head as serialized: the feed's name, then its fields.
    let head = |published: &dyn std::fmt::Display, draws: &dyn std::fmt::Display| {
        format!("\"workload_feed\":{{\"published\":{published},\"rng_draws\":{draws}")
    };
    let (published, draws) = (cursor.published, cursor.rng_draws);
    let from = head(&published, &draws);
    assert_eq!(json.matches(&from).count(), 1, "{from}");
    let cases = [
        (head(&published, &"9007199254740991"), "rng_draws"),
        (head(&published, &(draws + 1)), "rng_draws"),
        (head(&21, &draws), "past the run's 20"),
    ];
    for (to, reason) in cases {
        let bad = RuntimeSnapshot::from_json(&json.replacen(&from, &to, 1)).unwrap();
        let start = std::time::Instant::now();
        match Stepper::restore(&bad) {
            Err(Error::Snapshot(msg)) => assert!(msg.contains(reason), "{to}: {msg}"),
            Err(e) => panic!("{to}: wrong error: {e}"),
            Ok(_) => panic!("{to} must be refused"),
        }
        assert!(
            start.elapsed().as_secs() < 10,
            "{to}: restore took {:?}",
            start.elapsed()
        );
    }
    let mut resumed = Stepper::restore(&RuntimeSnapshot::from_json(&json).unwrap()).unwrap();
    while live.step_once().unwrap() {
        assert!(resumed.step_once().unwrap());
    }
    assert!(!resumed.step_once().unwrap());
    assert_eq!(
        live.accumulated_cost().to_bits(),
        resumed.accumulated_cost().to_bits()
    );
}

/// A carried working-set log whose rows are in range of nothing but the
/// QP restores, and the first step names the row it cannot find.
#[test]
fn restored_log_row_out_of_range_fails_the_first_step() {
    let (_, mut snapshot) = checkpoint("storage_peak_shaving", 10);
    let log = factor_log(&mut snapshot.policy);
    assert!(!log.structure.is_empty(), "the checkpoint carries a log");
    log.base.push(1_000_000);
    let mut resumed = Stepper::restore(&snapshot).unwrap();
    match resumed.step_once() {
        Err(e) => assert!(e.to_string().contains("row 1000000"), "{e}"),
        Ok(_) => panic!("an out-of-range log row must fail the step"),
    }
}

/// The log cap's from-scratch rebuild fires at the same step in a run
/// restored just before it as in the uninterrupted run: both export the
/// same log after every step, through the rebuild.
#[test]
fn log_cap_rebuild_fires_at_the_same_step_after_a_restore() {
    let cfg = StepperConfig {
        num_steps: Some(170),
        ..StepperConfig::fault_free("storage_plus_shifting", 2012)
    };
    // The log's length and its cap's headroom after a step.
    let log_room = |s: &Stepper| {
        let snapshot = s.snapshot();
        let log = snapshot.policy.warm_start.and_then(|w| w.factor_log);
        log.map_or((0, usize::MAX), |l| {
            (l.kinds.len(), factor_log_cap(l.base.len()) - l.kinds.len())
        })
    };
    // The uninterrupted run, to find the first step whose log restarted
    // from within a step's changes of the cap.
    let mut live = Stepper::new(cfg.clone()).unwrap();
    let mut logs = Vec::new();
    while live.step_once().unwrap() {
        logs.push(log_room(&live));
    }
    let cap_step = (1..logs.len())
        .find(|&k| logs[k - 1].1 < 32 && logs[k].0 < logs[k - 1].0)
        .expect("the run outgrows the log cap");
    let mut live = Stepper::new(cfg).unwrap();
    for _ in 0..cap_step - 3 {
        live.step_once().unwrap();
    }
    let json = live.snapshot().to_json().unwrap();
    let mut resumed = Stepper::restore(&RuntimeSnapshot::from_json(&json).unwrap()).unwrap();
    while live.step_once().unwrap() {
        assert!(resumed.step_once().unwrap());
        assert_eq!(live.snapshot(), resumed.snapshot());
    }
}
