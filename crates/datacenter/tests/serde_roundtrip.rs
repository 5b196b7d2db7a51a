//! Round-trip tests for the serde derives on the configuration types —
//! downstream users persist fleet configs as JSON.

use idc_datacenter::allocation::Allocation;
use idc_datacenter::fleet::IdcFleet;
use idc_datacenter::idc::{paper_idcs, IdcConfig};
use idc_datacenter::portal::FrontEndPortal;
use idc_datacenter::server::{CurveFitModel, ServerSpec};

fn roundtrip<T>(value: &T) -> T
where
    T: serde::Serialize + serde::de::DeserializeOwned,
{
    let json = serde_json::to_string(value).expect("serializes");
    serde_json::from_str(&json).expect("deserializes")
}

#[test]
fn server_spec_roundtrips() {
    let s = ServerSpec::paper_server(1.75).unwrap();
    assert_eq!(roundtrip(&s), s);
}

#[test]
fn curve_fit_model_roundtrips() {
    let m = CurveFitModel {
        a3: 40.0,
        a2: 30.0,
        a1: 20.0,
        a0: 100.0,
    };
    assert_eq!(roundtrip(&m), m);
}

#[test]
fn idc_config_roundtrips() {
    for idc in paper_idcs() {
        let back: IdcConfig = roundtrip(&idc);
        assert_eq!(back, idc);
        // Behaviour, not just fields, survives.
        assert_eq!(back.power_w(100, 150.0), idc.power_w(100, 150.0));
    }
}

#[test]
fn fleet_roundtrips() {
    let fleet = IdcFleet::paper_fleet();
    let back: IdcFleet = roundtrip(&fleet);
    assert_eq!(back, fleet);
    assert_eq!(back.total_capacity(), fleet.total_capacity());
}

#[test]
fn portal_and_allocation_roundtrip() {
    let p = FrontEndPortal::new("p1", 1234.5).unwrap();
    assert_eq!(roundtrip(&p), p);

    let mut a = Allocation::zeros(2, 3);
    a.set(0, 1, 10.0);
    a.set(1, 2, 20.0);
    let back: Allocation = roundtrip(&a);
    assert_eq!(back, a);
    assert_eq!(back.idc_total(1), 10.0);
}

#[test]
fn malformed_json_is_rejected() {
    assert!(serde_json::from_str::<ServerSpec>("{\"bad\": 1}").is_err());
    assert!(serde_json::from_str::<IdcFleet>("[]").is_err());
}
