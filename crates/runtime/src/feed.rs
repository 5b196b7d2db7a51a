//! Trace-backed feed adapters with deterministic fault injection.
//!
//! These deliver [`idc_core::feed`]'s [`Observation`]s from a [`Scenario`]:
//! the workload feed *publishes* one sample per fast tick (drawing workload
//! noise at publish time, in the exact RNG order of the batch simulator),
//! and the price feed publishes the scenario pricing evaluated at the
//! consumer's own last power draw. A
//! [`FeedFaults`] schedule then decides, per published sample, whether it is
//! delivered on time, `d` ticks late, or never — a deterministic pure
//! function of `(fault seed, tick)`, so a checkpointed run replays the same
//! fault pattern after restore.
//!
//! Price faults compose with `idc-market`'s tariff-level faults: a scenario
//! whose [`PricingSpec`] wraps
//! `idc_market::fault::FaultyTracePricing` corrupts the price *values*,
//! while [`FeedFaults`] corrupts their *delivery* — the two layers model
//! market-side and transport-side failures respectively.

use idc_core::feed::Observation;
use idc_core::scenario::{PricingSpec, Scenario};
use idc_core::simulation::WorkloadProcess;
use rand::{rngs::StdRng, Rng, RngCore, SeedableRng};

use crate::snapshot::{FeedCursorSnap, FeedFaultsSnap, OverloadSnap, PendingSnap};
use crate::Error;

/// An [`RngCore`] wrapper that counts `next_u64` draws, so a checkpoint can
/// record "how far into the stream we are" and a restore can check that
/// replaying the published ticks reaches the exact same point.
#[derive(Debug, Clone)]
pub struct CountingRng<R> {
    inner: R,
    draws: u64,
}

impl<R: RngCore> RngCore for CountingRng<R> {
    fn next_u64(&mut self) -> u64 {
        self.draws += 1;
        self.inner.next_u64()
    }
}

impl CountingRng<StdRng> {
    /// A freshly seeded generator with zero draws consumed.
    pub fn seeded(seed: u64) -> Self {
        CountingRng {
            inner: StdRng::seed_from_u64(seed),
            draws: 0,
        }
    }

    /// Number of 64-bit words drawn so far.
    pub fn draws(&self) -> u64 {
        self.draws
    }
}

const SPLITMIX_GAMMA: u64 = 0x9E37_79B9_7F4A_7C15;

/// Fault-schedule seeds are clamped to 53 bits: they live inside JSON
/// checkpoints whose number space is f64, and a wider seed would not
/// survive the serialize→parse round trip bit-for-bit.
const SEED_MASK: u64 = (1 << 53) - 1;

/// Largest `max_delay_ticks` a schedule holds: 2²⁰ ticks, longer than any
/// run (about a year of 30 s ticks), so a sample held back longer is as good
/// as dropped. The cap keeps `max_delay_ticks + 1` from wrapping to a zero
/// modulus and the value exact in a JSON (f64) checkpoint.
pub const MAX_DELAY_TICKS: u64 = 1 << 20;

/// SplitMix64 finalizer: a well-mixed pure function of the input word.
fn mix(x: u64) -> u64 {
    let mut z = x.wrapping_add(SPLITMIX_GAMMA);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A deterministic per-tick delivery schedule: each published sample is
/// independently dropped with probability `drop_per_mille / 1000`, and
/// surviving samples are delayed by `0..=max_delay_ticks` ticks. Both
/// outcomes are pure functions of `(seed, tick)`, so the schedule is
/// reproducible across checkpoint/restore and across machines.
///
/// Delays produce genuine out-of-order delivery: tick 5 delayed by 3
/// arrives after tick 6 delivered on time.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FeedFaults {
    seed: u64,
    drop_per_mille: u16,
    max_delay_ticks: u64,
}

impl FeedFaults {
    /// The fault-free schedule: every sample delivered at its own tick.
    pub fn none() -> Self {
        FeedFaults {
            seed: 0,
            drop_per_mille: 0,
            max_delay_ticks: 0,
        }
    }

    /// A schedule dropping each sample with probability `drop_prob`
    /// (clamped to `[0, 1]`) and delaying survivors by up to
    /// `max_delay_ticks` (clamped to [`MAX_DELAY_TICKS`]).
    pub fn new(seed: u64, drop_prob: f64, max_delay_ticks: u64) -> Self {
        FeedFaults {
            seed: seed & SEED_MASK,
            drop_per_mille: (drop_prob.clamp(0.0, 1.0) * 1000.0).round() as u16,
            max_delay_ticks: max_delay_ticks.min(MAX_DELAY_TICKS),
        }
    }

    /// Whether this schedule can ever perturb a delivery.
    pub fn is_active(&self) -> bool {
        self.drop_per_mille > 0 || self.max_delay_ticks > 0
    }

    /// The delivery tick for the sample published at `tick`: `None` means
    /// dropped, `Some(d)` means it arrives at tick `d ≥ tick`.
    pub fn delivery(&self, tick: u64) -> Option<u64> {
        if !self.is_active() {
            return Some(tick);
        }
        let h = mix(self.seed ^ tick.wrapping_mul(SPLITMIX_GAMMA));
        if h % 1000 < u64::from(self.drop_per_mille) {
            return None;
        }
        Some(tick + (h >> 10) % (self.max_delay_ticks + 1))
    }

    /// Serializable form for checkpointing.
    pub fn state(&self) -> FeedFaultsSnap {
        FeedFaultsSnap {
            seed: self.seed,
            drop_per_mille: u64::from(self.drop_per_mille),
            max_delay_ticks: self.max_delay_ticks,
        }
    }

    /// Rebuilds a schedule from a [`state`](Self::state) export.
    ///
    /// # Errors
    ///
    /// Names the field when the drop rate exceeds 1000 per mille or the
    /// delay exceeds [`MAX_DELAY_TICKS`].
    pub fn from_state(state: &FeedFaultsSnap) -> Result<Self, String> {
        if state.drop_per_mille > 1000 {
            return Err(format!(
                "fault schedule has out-of-range drop rate {} per mille",
                state.drop_per_mille
            ));
        }
        if state.max_delay_ticks > MAX_DELAY_TICKS {
            return Err(format!(
                "fault schedule has max delay {} ticks, above the cap of {MAX_DELAY_TICKS}",
                state.max_delay_ticks
            ));
        }
        Ok(FeedFaults {
            seed: state.seed,
            drop_per_mille: state.drop_per_mille as u16,
            max_delay_ticks: state.max_delay_ticks,
        })
    }
}

/// A deterministic burst-arrival schedule modeling a tenant that floods
/// its host's feed ingest: on roughly `burst_per_mille / 1000` of ticks,
/// `burst_factor` duplicates of the tick's newest-stamped observation are
/// appended *after* the genuine arrivals. Like [`FeedFaults`], each tick's
/// outcome is a pure function of `(seed, tick)`, so the burst pattern is
/// identical across checkpoint/restore, across machines, and across solo
/// vs multi-tenant hosting of the same loop.
///
/// Because duplicates trail the genuine arrivals and carry an
/// already-seen stamp, a prefix-keeping [`idc_core::feed::BoundedIngest`]
/// sheds only duplicates whenever the genuine batch fits the bound — the
/// held values (and therefore the control trajectory) are unchanged while
/// the shed counters record the overload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OverloadFaults {
    seed: u64,
    burst_per_mille: u16,
    burst_factor: u16,
}

impl OverloadFaults {
    /// The quiet schedule: no tick ever bursts.
    pub fn none() -> Self {
        OverloadFaults {
            seed: 0,
            burst_per_mille: 0,
            burst_factor: 0,
        }
    }

    /// A schedule bursting each tick with probability
    /// `burst_per_mille / 1000` (clamped to 1000), appending
    /// `burst_factor` duplicates when it does.
    pub fn new(seed: u64, burst_per_mille: u16, burst_factor: u16) -> Self {
        OverloadFaults {
            seed: seed & SEED_MASK,
            burst_per_mille: burst_per_mille.min(1000),
            burst_factor,
        }
    }

    /// A tenant-overload plan derived from `seed`: a schedule bursting on
    /// 20–40 % of ticks, and the per-tick, per-feed ingest bound (2–4) its
    /// host should enforce. Every burst appends more duplicates than the
    /// bound admits, so every burst tick sheds — yet, since duplicates
    /// trail the genuine arrivals, the admitted trajectory is the
    /// unbursted one. Deterministic in `seed`, and decorrelated from other
    /// seeded streams by a label salt.
    pub fn derived(seed: u64) -> (Self, usize) {
        let salt = b"tenant-overload".iter().fold(0u64, |h, &b| {
            h.wrapping_mul(0x100_0000_01b3).wrapping_add(u64::from(b))
        });
        let mut rng = StdRng::seed_from_u64(seed ^ salt);
        // Top 53 bits only, like every schedule seed (see `SEED_MASK`).
        let schedule_seed = rng.random::<u64>() >> 11;
        let burst_per_mille = 200 + (rng.random::<u64>() % 201) as u16;
        let ingest_bound = 2 + (rng.random::<u64>() % 3) as usize;
        let burst_factor = ingest_bound as u16 + 4 + (rng.random::<u64>() % 5) as u16;
        (
            OverloadFaults::new(schedule_seed, burst_per_mille, burst_factor),
            ingest_bound,
        )
    }

    /// Whether any tick can burst.
    pub fn is_active(&self) -> bool {
        self.burst_per_mille > 0 && self.burst_factor > 0
    }

    /// Number of duplicate observations to append at `tick` (0 on quiet
    /// ticks). Deterministic in `(seed, tick)`.
    pub fn burst_at(&self, tick: u64) -> u16 {
        if !self.is_active() {
            return 0;
        }
        // Salt differently from FeedFaults so an overloaded faulty feed
        // does not burst exactly on its drop ticks.
        let h = mix(self.seed ^ tick.wrapping_mul(SPLITMIX_GAMMA) ^ 0x4F56_4552_4C4F_4144);
        if h % 1000 < u64::from(self.burst_per_mille) {
            self.burst_factor
        } else {
            0
        }
    }

    /// Appends the tick's duplicates to `batch`: copies of the
    /// newest-stamped observation already in it. An empty batch stays
    /// empty — bursts amplify arrivals, they cannot invent data.
    pub fn amplify(&self, tick: u64, batch: &mut Vec<Observation<Vec<f64>>>) {
        let dup = self.burst_at(tick);
        if dup == 0 {
            return;
        }
        let Some(newest) = batch.iter().max_by_key(|o| o.tick).cloned() else {
            return;
        };
        for _ in 0..dup {
            batch.push(newest.clone());
        }
    }

    /// Serializable form for checkpointing.
    pub fn state(&self) -> OverloadSnap {
        OverloadSnap {
            seed: self.seed,
            burst_per_mille: u64::from(self.burst_per_mille),
            burst_factor: u64::from(self.burst_factor),
        }
    }

    /// Rebuilds a schedule from a [`state`](Self::state) export. Returns
    /// `None` when a rate or factor is out of range.
    pub fn from_state(state: &OverloadSnap) -> Option<Self> {
        if state.burst_per_mille > 1000 || state.burst_factor > u64::from(u16::MAX) {
            return None;
        }
        Some(OverloadFaults {
            seed: state.seed,
            burst_per_mille: state.burst_per_mille as u16,
            burst_factor: state.burst_factor as u16,
        })
    }
}

/// One published-but-not-yet-delivered sample.
#[derive(Debug, Clone, PartialEq)]
struct Pending {
    deliver_tick: u64,
    obs: Observation<Vec<f64>>,
}

fn drain_due(pending: &mut Vec<Pending>, tick: u64) -> Vec<Observation<Vec<f64>>> {
    let mut out = Vec::new();
    pending.retain(|p| {
        if p.deliver_tick <= tick {
            out.push(p.obs.clone());
            false
        } else {
            true
        }
    });
    out
}

fn pending_state(pending: &[Pending]) -> Vec<PendingSnap> {
    pending
        .iter()
        .map(|p| PendingSnap {
            deliver_tick: p.deliver_tick,
            tick: p.obs.tick,
            value: p.obs.value.clone(),
        })
        .collect()
}

fn pending_from_state(snaps: &[PendingSnap]) -> Vec<Pending> {
    snaps
        .iter()
        .map(|s| Pending {
            deliver_tick: s.deliver_tick,
            obs: Observation {
                tick: s.tick,
                value: s.value.clone(),
            },
        })
        .collect()
}

/// The scenario-backed workload feed: publishes the same noisy offered
/// workload the batch simulator draws at each tick (the same
/// [`WorkloadProcess`] on an identical RNG stream), then routes the sample
/// through a [`FeedFaults`] schedule.
#[derive(Debug, Clone)]
pub struct TraceWorkloadFeed {
    process: WorkloadProcess,
    rng: CountingRng<StdRng>,
    faults: FeedFaults,
    /// Next tick to publish (samples are generated in tick order whatever
    /// the delivery order, so the RNG stream matches the batch simulator).
    published: u64,
    pending: Vec<Pending>,
}

impl TraceWorkloadFeed {
    /// A feed replaying `scenario`'s workload process under `faults`.
    pub fn new(scenario: &Scenario, faults: FeedFaults) -> Self {
        TraceWorkloadFeed {
            process: WorkloadProcess::new(scenario),
            rng: CountingRng::seeded(scenario.seed()),
            faults,
            published: 0,
            pending: Vec::new(),
        }
    }

    /// Serializable cursor for checkpointing.
    pub fn state(&self) -> FeedCursorSnap {
        FeedCursorSnap {
            published: self.published,
            rng_draws: self.rng.draws(),
            pending: pending_state(&self.pending),
        }
    }

    /// Rebuilds the feed at a checkpointed cursor: re-seeds from the
    /// scenario, replays the draws of the `published` ticks and restores
    /// the in-flight backlog.
    ///
    /// # Errors
    ///
    /// [`Error::Snapshot`] when `published` lies past the run's last tick,
    /// or when `rng_draws` differs from the words the replay drew.
    pub fn from_state(
        scenario: &Scenario,
        faults: FeedFaults,
        state: &FeedCursorSnap,
    ) -> crate::Result<Self> {
        let ticks = scenario.num_steps() as u64;
        if state.published > ticks {
            return Err(Error::Snapshot(format!(
                "workload feed published {} ticks, past the run's {ticks}",
                state.published
            )));
        }
        let mut feed = Self::new(scenario, faults);
        for k in 0..state.published {
            feed.process.draw(k as usize, &mut feed.rng);
        }
        if feed.rng.draws() != state.rng_draws {
            return Err(Error::Snapshot(format!(
                "workload feed rng_draws {} differs from the {} its {} published ticks draw",
                state.rng_draws,
                feed.rng.draws(),
                state.published
            )));
        }
        feed.published = state.published;
        feed.pending = pending_from_state(&state.pending);
        Ok(feed)
    }

    /// Returns the per-portal offered-workload vectors (req/s) arriving at
    /// fast tick `tick` — possibly none, possibly a backlog of late ones,
    /// in arbitrary stamp order.
    pub fn poll(&mut self, tick: u64) -> Vec<Observation<Vec<f64>>> {
        while self.published <= tick {
            let k = self.published;
            let value = self.process.draw(k as usize, &mut self.rng);
            if let Some(deliver_tick) = self.faults.delivery(k) {
                self.pending.push(Pending {
                    deliver_tick: deliver_tick.max(k),
                    obs: Observation { tick: k, value },
                });
            }
            self.published += 1;
        }
        drain_due(&mut self.pending, tick)
    }
}

/// The scenario-backed price feed: publishes
/// `pricing.prices(hour, last_power)` once per tick — closing the
/// demand-responsive feedback loop exactly like the batch simulator — then
/// routes the sample through a [`FeedFaults`] schedule. Late samples carry
/// the value computed at their *publish* tick, which is precisely what a
/// delayed market signal looks like to the consumer.
#[derive(Debug, Clone)]
pub struct TracePriceFeed {
    pricing: PricingSpec,
    faults: FeedFaults,
    published: u64,
    pending: Vec<Pending>,
}

impl TracePriceFeed {
    /// A feed replaying `scenario`'s pricing under `faults`.
    pub fn new(scenario: &Scenario, faults: FeedFaults) -> Self {
        TracePriceFeed {
            pricing: scenario.pricing().clone(),
            faults,
            published: 0,
            pending: Vec::new(),
        }
    }

    /// Serializable cursor for checkpointing.
    pub fn state(&self) -> FeedCursorSnap {
        FeedCursorSnap {
            published: self.published,
            rng_draws: 0,
            pending: pending_state(&self.pending),
        }
    }

    /// Rebuilds the feed at a checkpointed cursor.
    pub fn from_state(scenario: &Scenario, faults: FeedFaults, state: &FeedCursorSnap) -> Self {
        let mut feed = Self::new(scenario, faults);
        feed.published = state.published;
        feed.pending = pending_from_state(&state.pending);
        feed
    }

    /// Returns the per-region price vectors ($/MWh) arriving at fast tick
    /// `tick`. Demand-responsive tariffs price the consumer's own demand,
    /// so the poll carries the hour and the previous step's per-IDC power
    /// draw — the same feedback the batch simulator gives
    /// [`PricingSpec::prices`].
    pub fn poll(
        &mut self,
        tick: u64,
        hour: f64,
        last_power_mw: &[f64],
    ) -> Vec<Observation<Vec<f64>>> {
        // Prices depend on the consumer's *current* power draw, so only the
        // present tick can be published (there is no future to pre-draw).
        if self.published == tick {
            let value = self.pricing.prices(hour, last_power_mw);
            if let Some(deliver_tick) = self.faults.delivery(tick) {
                self.pending.push(Pending {
                    deliver_tick: deliver_tick.max(tick),
                    obs: Observation { tick, value },
                });
            }
            self.published += 1;
        }
        drain_due(&mut self.pending, tick)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use idc_core::scenario::smoothing_scenario;

    #[test]
    fn counting_rng_matches_plain_stdrng_and_counts_draws() {
        let mut plain = StdRng::seed_from_u64(99);
        let mut counted = CountingRng::seeded(99);
        for _ in 0..40 {
            assert_eq!(plain.next_u64(), counted.next_u64());
        }
        assert_eq!(counted.draws(), 40);
    }

    #[test]
    fn faultless_schedule_delivers_everything_on_time() {
        let f = FeedFaults::none();
        assert!(!f.is_active());
        for t in 0..100 {
            assert_eq!(f.delivery(t), Some(t));
        }
    }

    #[test]
    fn fault_schedule_is_deterministic_and_plausible() {
        let f = FeedFaults::new(7, 0.2, 3);
        let a: Vec<_> = (0..500).map(|t| f.delivery(t)).collect();
        let b: Vec<_> = (0..500).map(|t| f.delivery(t)).collect();
        assert_eq!(a, b);
        let drops = a.iter().filter(|d| d.is_none()).count();
        assert!((50..350).contains(&drops), "drops {drops}");
        assert!(a
            .iter()
            .enumerate()
            .all(|(t, d)| d.is_none_or(|d| d >= t as u64 && d <= t as u64 + 3)));
        // Round-trips through its serializable form.
        assert_eq!(FeedFaults::from_state(&f.state()), Ok(f));
        let mut bad = f.state();
        bad.drop_per_mille = 2000;
        assert!(FeedFaults::from_state(&bad)
            .unwrap_err()
            .contains("drop rate"));
        let mut bad = f.state();
        bad.max_delay_ticks = MAX_DELAY_TICKS + 1;
        assert!(FeedFaults::from_state(&bad)
            .unwrap_err()
            .contains("max delay"));
        // The constructor clamps instead: the widest schedule still delivers.
        let widest = FeedFaults::new(7, 0.0, u64::MAX);
        assert_eq!(widest.state().max_delay_ticks, MAX_DELAY_TICKS);
        assert!(widest.delivery(u64::MAX - MAX_DELAY_TICKS).is_some());
    }

    #[test]
    fn faultless_workload_feed_delivers_one_obs_per_tick() {
        let scenario = smoothing_scenario();
        let mut feed = TraceWorkloadFeed::new(&scenario, FeedFaults::none());
        for t in 0..10 {
            let obs = feed.poll(t);
            assert_eq!(obs.len(), 1);
            assert_eq!(obs[0].tick, t);
            assert_eq!(obs[0].value, scenario.fleet().offered_workloads());
        }
    }

    #[test]
    fn workload_feed_cursor_roundtrip_continues_identically() {
        let scenario = idc_core::scenario::noisy_day_scenario(2012).with_num_steps(40);
        let faults = FeedFaults::new(3, 0.1, 2);
        let mut live = TraceWorkloadFeed::new(&scenario, faults);
        for t in 0..20 {
            live.poll(t);
        }
        let snap = live.state();
        let mut resumed = TraceWorkloadFeed::from_state(&scenario, faults, &snap).unwrap();
        for t in 20..40 {
            let a = live.poll(t);
            let b = resumed.poll(t);
            assert_eq!(a, b, "tick {t}");
        }
    }

    #[test]
    fn overload_bursts_are_deterministic_and_trail_genuine_arrivals() {
        let ov = OverloadFaults::new(42, 300, 6);
        assert!(ov.is_active());
        let a: Vec<u16> = (0..500).map(|t| ov.burst_at(t)).collect();
        assert_eq!(a, (0..500).map(|t| ov.burst_at(t)).collect::<Vec<_>>());
        let bursts = a.iter().filter(|&&d| d > 0).count();
        assert!((80..300).contains(&bursts), "bursts {bursts}");
        assert!(a.iter().all(|&d| d == 0 || d == 6));

        // Duplicates copy the newest stamp and are appended at the tail.
        let burst_tick = (0..500).find(|&t| ov.burst_at(t) > 0).unwrap();
        let mut batch = vec![
            Observation {
                tick: 3,
                value: vec![1.0],
            },
            Observation {
                tick: 7,
                value: vec![2.0],
            },
        ];
        ov.amplify(burst_tick, &mut batch);
        assert_eq!(batch.len(), 8);
        assert_eq!(batch[0].tick, 3);
        assert!(batch[2..].iter().all(|o| o.tick == 7 && o.value == [2.0]));

        // An empty tick stays empty: bursts cannot invent observations.
        let mut empty: Vec<Observation<Vec<f64>>> = Vec::new();
        ov.amplify(burst_tick, &mut empty);
        assert!(empty.is_empty());

        // Round-trips through its serializable form.
        assert_eq!(OverloadFaults::from_state(&ov.state()), Some(ov));
        let mut bad = ov.state();
        bad.burst_per_mille = 1500;
        assert_eq!(OverloadFaults::from_state(&bad), None);

        // The quiet schedule never bursts.
        assert!((0..500).all(|t| OverloadFaults::none().burst_at(t) == 0));
    }

    #[test]
    fn overload_params_are_in_range_and_decorrelated() {
        let mut seen = std::collections::HashSet::new();
        for seed in 0..50 {
            let (faults, bound) = OverloadFaults::derived(seed);
            let state = faults.state();
            assert!((200..=400).contains(&state.burst_per_mille), "{state:?}");
            assert!((2..=4).contains(&bound), "{state:?}");
            // Every burst tick must overflow the bound.
            assert!(state.burst_factor > bound as u64, "{state:?}");
            seen.insert(state.seed);
        }
        // Burst schedules across plan seeds are (overwhelmingly) distinct.
        assert!(
            seen.len() > 45,
            "only {} distinct schedule seeds",
            seen.len()
        );
    }

    #[test]
    fn derived_overload_plans_are_pinned_per_seed() {
        // (seed → schedule seed, burst ‰, burst factor, ingest bound) as
        // first derived for the tenant soak; multi-tenant soak checkpoints
        // and bench rows depend on these staying put.
        for (seed, schedule_seed, per_mille, factor, bound) in [
            (0, 5_108_246_616_555_616, 215, 10, 2),
            (1, 3_469_182_327_255_315, 374, 9, 2),
            (2012, 5_281_044_395_964_411, 398, 10, 2),
            (0xFEED, 433_828_024_280_329, 295, 8, 2),
            (2012 + 4 * 7919, 7_737_447_489_745_825, 300, 8, 4),
        ] {
            let (faults, ingest_bound) = OverloadFaults::derived(seed);
            assert_eq!(
                faults,
                OverloadFaults::new(schedule_seed, per_mille, factor)
            );
            assert_eq!(ingest_bound, bound, "seed {seed}");
            assert_eq!(OverloadFaults::derived(seed), (faults, ingest_bound));
        }
    }

    #[test]
    fn dropped_price_ticks_are_never_delivered() {
        let scenario = smoothing_scenario();
        // Drop everything: the consumer must hold its last value forever.
        let mut feed = TracePriceFeed::new(&scenario, FeedFaults::new(1, 1.0, 0));
        for t in 0..10 {
            assert!(feed.poll(t, 7.0, &[0.0; 3]).is_empty());
        }
    }

    #[test]
    fn delayed_samples_arrive_late_with_original_stamp() {
        let scenario = smoothing_scenario();
        // Delay-only schedule: nothing dropped, delays in 0..=2.
        let faults = FeedFaults::new(11, 0.0, 2);
        let mut feed = TraceWorkloadFeed::new(&scenario, faults);
        let mut seen = Vec::new();
        for t in 0..25 {
            for obs in feed.poll(t) {
                assert!(obs.tick <= t);
                assert!(t - obs.tick <= 2);
                seen.push(obs.tick);
            }
        }
        // Everything published by tick 22 must have arrived by tick 24.
        let mut arrived = seen.clone();
        arrived.sort_unstable();
        for t in 0..=22u64 {
            assert!(arrived.contains(&t), "tick {t} lost by delay-only faults");
        }
    }
}
