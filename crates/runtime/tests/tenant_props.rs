//! Property tests for the multi-tenant manager and checkpoint lineages.
//!
//! The scheduling properties pin the tentpole invariant of the tenant
//! manager: every tenant's trajectory is a pure function of its own
//! `StepperConfig`, so the final snapshots are byte-identical whatever
//! the worker-thread count and identical to running each loop solo. The
//! lineage properties pin compaction safety: whatever the retention
//! depth and whichever files a kill tears, the newest restorable
//! snapshot survives and restores byte-identically.

use std::fs;
use std::path::PathBuf;

use idc_runtime::lineage::CheckpointLineage;
use idc_runtime::stepper::{Stepper, StepperConfig};
use idc_runtime::tenant::{derive_tenants, ManagerConfig, TenantManager};
use proptest::prelude::*;

fn tmpdir(tag: &str, case: u64) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "idc-tenant-props-{tag}-{}-{case}",
        std::process::id()
    ));
    let _ = fs::remove_dir_all(&dir);
    dir
}

/// Runs every spec solo to completion and returns the final snapshots.
fn solo_snapshots(
    specs: &[idc_runtime::tenant::TenantSpec],
) -> Vec<idc_runtime::snapshot::RuntimeSnapshot> {
    specs
        .iter()
        .map(|spec| {
            let mut stepper = Stepper::new(spec.config.clone()).unwrap();
            while stepper.step_once().unwrap() {}
            stepper.snapshot()
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Hosting N heterogeneous tenants on 1, 2 or 4 worker threads — and
    /// running each of their configs solo — always produces the same
    /// final snapshot per tenant, byte for byte. Scheduling order,
    /// slicing and thread interleaving must never leak into any
    /// tenant's trajectory.
    #[test]
    fn final_snapshots_ignore_worker_count(
        n in 2usize..6,
        base_seed in 0u64..1_000_000,
        steps in 16usize..40,
    ) {
        let specs = derive_tenants(n, base_seed, Some(steps));
        let solo = solo_snapshots(&specs);
        for workers in [1usize, 2, 4] {
            let mut manager = TenantManager::new(ManagerConfig {
                workers,
                ..ManagerConfig::default()
            });
            for spec in &specs {
                manager.add_tenant(spec.clone()).unwrap();
            }
            let report = manager.run().unwrap();
            prop_assert_eq!(report.tenants.len(), n);
            for (spec, solo_snap) in specs.iter().zip(&solo) {
                let hosted = manager.snapshot(&spec.id).unwrap();
                prop_assert_eq!(
                    &hosted,
                    solo_snap,
                    "tenant {} diverged on {} workers",
                    &spec.id,
                    workers
                );
            }
        }
    }

    /// Compaction never deletes the newest restorable snapshot: after
    /// recording an arbitrary run under an arbitrary retention depth and
    /// tearing an arbitrary suffix of the retained files (simulating a
    /// kill mid-write plus disk corruption), `latest_restorable` returns
    /// the newest intact snapshot, byte-identical to the in-memory one,
    /// and GCs the torn stragglers.
    #[test]
    fn compaction_and_gc_never_lose_the_newest_restorable(
        case in 0u64..u64::MAX,
        records in 2usize..9,
        keep_last in 1usize..5,
        torn in 0usize..3,
    ) {
        let dir = tmpdir("lineage", case);
        let lineage = CheckpointLineage::open(&dir, keep_last).unwrap();
        let mut stepper = Stepper::new(StepperConfig::fault_free("smoothing", 2012)).unwrap();
        let mut snaps = vec![stepper.snapshot()];
        lineage.record(&snaps[0]).unwrap();
        for _ in 1..records {
            stepper.step_once().unwrap();
            let snap = stepper.snapshot();
            lineage.record(&snap).unwrap();
            snaps.push(snap);
        }
        // Retention: exactly the newest keep_last steps remain on disk.
        let expect_kept: Vec<u64> =
            (records.saturating_sub(keep_last)..records).map(|s| s as u64).collect();
        prop_assert_eq!(lineage.steps().unwrap(), expect_kept);

        // Tear the newest `torn` retained files plus a `.tmp` partial.
        let kept = lineage.steps().unwrap();
        let torn = torn.min(kept.len() - 1);
        for &step in kept.iter().rev().take(torn) {
            let path = lineage.path_for(step);
            let text = fs::read_to_string(&path).unwrap();
            fs::write(&path, &text[..text.len() / 3]).unwrap();
        }
        fs::write(dir.join("ckpt-99999999999999999999.tmp"), b"{\"torn\":").unwrap();

        // Reopening GCs the partial; the newest intact snapshot restores
        // byte-identically to the in-memory stepper at that step.
        let reopened = CheckpointLineage::open(&dir, keep_last).unwrap();
        prop_assert!(!dir.join("ckpt-99999999999999999999.tmp").exists());
        let survivor = records - 1 - torn;
        let (step, snap) = reopened.latest_restorable().unwrap().unwrap();
        prop_assert_eq!(step, survivor as u64);
        prop_assert_eq!(&snap, &snaps[survivor]);
        let mut resumed = Stepper::restore(&snap).unwrap();
        let mut reference = Stepper::restore(&snaps[survivor]).unwrap();
        for _ in 0..3 {
            prop_assert_eq!(resumed.step_once().unwrap(), reference.step_once().unwrap());
        }
        prop_assert_eq!(resumed.snapshot(), reference.snapshot());
        // The torn files were GC'd by the failed restore attempts.
        prop_assert_eq!(
            reopened.steps().unwrap().last().copied(),
            Some(survivor as u64)
        );
        fs::remove_dir_all(&dir).unwrap();
    }
}

/// An overload-faulted tenant hosted next to quiet tenants sheds bursts
/// (backpressure engages) while every quiet tenant's snapshot stays
/// byte-identical to its solo run — noisy neighbours are isolated.
#[test]
fn overload_tenant_sheds_without_touching_neighbours() {
    // derive_tenants gives every fifth tenant an overload schedule, so a
    // population of 5 has exactly one (t-004).
    let specs = derive_tenants(5, 2012, Some(96));
    assert!(specs[4].config.overload.is_active());
    let solo = solo_snapshots(&specs);

    let mut manager = TenantManager::new(ManagerConfig::default());
    for spec in &specs {
        manager.add_tenant(spec.clone()).unwrap();
    }
    let report = manager.run().unwrap();
    for (spec, solo_snap) in specs.iter().zip(&solo) {
        assert_eq!(
            &manager.snapshot(&spec.id).unwrap(),
            solo_snap,
            "tenant {} diverged from solo",
            spec.id
        );
    }
    let overloaded = report
        .tenants
        .iter()
        .find(|t| t.id == "t-004")
        .expect("t-004 hosted");
    assert!(
        overloaded.shed_workload > 0,
        "overload tenant never shed: {overloaded:?}"
    );
    for quiet in report.tenants.iter().filter(|t| t.id != "t-004") {
        assert_eq!(quiet.shed_workload, 0, "{quiet:?}");
    }
}
