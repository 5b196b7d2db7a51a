//! Round-trip tests for the market-layer serde derives.

use idc_market::region::{Region, RegionId};
use idc_market::tariff::{DemandCharge, PowerBudget};
use idc_market::trace::{miso_oct3_2011, PriceTrace};

fn roundtrip<T>(value: &T) -> T
where
    T: serde::Serialize + serde::de::DeserializeOwned,
{
    let json = serde_json::to_string(value).expect("serializes");
    serde_json::from_str(&json).expect("deserializes")
}

#[test]
fn region_roundtrips() {
    let r = Region::new(2, "Wisconsin");
    assert_eq!(roundtrip(&r), r);
    assert_eq!(roundtrip(&RegionId(7)), RegionId(7));
}

#[test]
fn price_trace_roundtrips_with_exact_values() {
    for trace in miso_oct3_2011() {
        let back: PriceTrace = roundtrip(&trace);
        assert_eq!(back, trace);
        assert_eq!(back.price_at_hour(7.0), trace.price_at_hour(7.0));
    }
}

#[test]
fn budget_and_tariff_roundtrip() {
    let b = PowerBudget::paper_section_v_c();
    assert_eq!(roundtrip(&b), b);
    let t = DemandCharge::typical_commercial();
    assert_eq!(roundtrip(&t), t);
}

#[test]
fn negative_prices_survive_the_wire() {
    // Wisconsin's Fig. 2 dip must not be lost to any serialization quirk.
    let wi = miso_oct3_2011().remove(2);
    let back: PriceTrace = roundtrip(&wi);
    let min = back.hourly().iter().cloned().fold(f64::INFINITY, f64::min);
    assert!(min < 0.0);
}
