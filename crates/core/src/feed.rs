//! Streaming feed abstractions for online control.
//!
//! The batch simulator conjures each step's workload and prices inline; an
//! online runtime consumes them from *feeds* that may deliver late,
//! duplicated, out-of-order — or never. A feed is polled once per fast
//! tick and returns whatever [`Observation`]s *arrive* at that tick, each
//! stamped with the tick it describes. The consumer keeps the
//! newest-by-stamp value it has seen (hold-last-value) and applies its own
//! staleness policy on top; these types deliberately say nothing about
//! transport or fault model.

/// One timestamped feed sample: `value` describes tick `tick`, however
/// late it arrives.
#[derive(Debug, Clone, PartialEq)]
pub struct Observation<T> {
    /// The fast-loop tick this sample describes (not the arrival tick).
    pub tick: u64,
    /// The sample payload.
    pub value: T,
}

/// Per-tick admission control for one feed: at most `bound` observations
/// are admitted per poll, the rest are *shed* (dropped, counted, never
/// retried). A multi-tenant host applies this at the feed boundary so one
/// bursting tenant cannot grow its ingest work without limit; shedding the
/// *tail* of a batch keeps the policy deterministic — arrival order within
/// a tick is itself deterministic for every feed in this workspace, so the
/// admitted prefix (and therefore the downstream trajectory) is a pure
/// function of the feed and the bound.
///
/// A bound of `0` means unbounded: everything is admitted, nothing is
/// counted. The shed counter is part of a tenant's checkpointed state
/// ([`restore`](BoundedIngest::restore) rebuilds it) so a resumed run
/// reports the same totals as an uninterrupted one.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BoundedIngest {
    bound: usize,
    shed: u64,
}

impl BoundedIngest {
    /// Admission control admitting at most `bound` observations per tick
    /// (`0` = unbounded).
    pub fn new(bound: usize) -> Self {
        BoundedIngest { bound, shed: 0 }
    }

    /// Rebuilds admission state from a checkpoint.
    pub fn restore(bound: usize, shed: u64) -> Self {
        BoundedIngest { bound, shed }
    }

    /// Admits the head of `batch` up to the bound, sheds (drops and
    /// counts) the rest.
    pub fn admit<T>(&mut self, mut batch: Vec<Observation<T>>) -> Vec<Observation<T>> {
        if self.bound > 0 && batch.len() > self.bound {
            self.shed += (batch.len() - self.bound) as u64;
            batch.truncate(self.bound);
        }
        batch
    }

    /// The per-tick admission bound (`0` = unbounded).
    pub fn bound(&self) -> usize {
        self.bound
    }

    /// Total observations shed since construction (or since the state the
    /// ingest was [`restore`](BoundedIngest::restore)d from).
    pub fn shed(&self) -> u64 {
        self.shed
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn batch(n: usize) -> Vec<Observation<u64>> {
        (0..n as u64)
            .map(|tick| Observation { tick, value: tick })
            .collect()
    }

    #[test]
    fn unbounded_ingest_admits_everything() {
        let mut ingest = BoundedIngest::new(0);
        assert_eq!(ingest.admit(batch(17)).len(), 17);
        assert_eq!(ingest.shed(), 0);
    }

    #[test]
    fn bounded_ingest_sheds_the_tail_and_counts() {
        let mut ingest = BoundedIngest::new(3);
        let admitted = ingest.admit(batch(8));
        // The *prefix* survives: shedding must not reorder.
        assert_eq!(
            admitted.iter().map(|o| o.tick).collect::<Vec<_>>(),
            vec![0, 1, 2]
        );
        assert_eq!(ingest.shed(), 5);
        // Under-bound batches pass untouched and count nothing.
        assert_eq!(ingest.admit(batch(2)).len(), 2);
        assert_eq!(ingest.shed(), 5);
    }

    #[test]
    fn restore_round_trips_the_counter() {
        let mut ingest = BoundedIngest::new(1);
        ingest.admit(batch(4));
        let resumed = BoundedIngest::restore(ingest.bound(), ingest.shed());
        assert_eq!(resumed, ingest);
    }
}
