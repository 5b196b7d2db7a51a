//! Arena-style scratch-buffer pool for allocation-free hot paths.
//!
//! The MPC solve path needs short-lived `f64` buffers in every solve (the
//! working-set factor's block-append columns and pivot scales). Allocating
//! them on every call dominates small-problem runtimes, so [`Workspace`]
//! recycles buffers through a free list: [`take`](Workspace::take) hands out a
//! zeroed buffer (reusing retired capacity when available) and
//! [`put`](Workspace::put) retires it again. After a warm-up pass every
//! `take`/`put` pair is allocation-free.

/// A recycling pool of `Vec<f64>` scratch buffers.
///
/// # Example
///
/// ```
/// use idc_linalg::workspace::Workspace;
///
/// let mut ws = Workspace::new();
/// let buf = ws.take(16);
/// assert!(buf.iter().all(|&v| v == 0.0));
/// let cap = buf.capacity();
/// ws.put(buf);
/// // The next request reuses the retired allocation.
/// let again = ws.take(8);
/// assert!(again.capacity() >= 8 && cap >= 16);
/// ```
#[derive(Debug, Default, Clone)]
pub struct Workspace {
    free: Vec<Vec<f64>>,
}

impl Workspace {
    /// Creates an empty pool.
    pub fn new() -> Self {
        Self::default()
    }

    /// Hands out a zeroed buffer of exactly `len` elements.
    ///
    /// Reuses the retired buffer with the largest capacity when one exists;
    /// only grows an allocation when no retired buffer is big enough.
    pub fn take(&mut self, len: usize) -> Vec<f64> {
        let mut buf = match self
            .free
            .iter()
            .enumerate()
            .max_by_key(|(_, b)| b.capacity())
        {
            Some((idx, _)) => self.free.swap_remove(idx),
            None => Vec::new(),
        };
        buf.clear();
        buf.resize(len, 0.0);
        buf
    }

    /// Returns a buffer to the pool for later reuse.
    pub fn put(&mut self, buf: Vec<f64>) {
        if buf.capacity() > 0 {
            self.free.push(buf);
        }
    }

    /// Number of retired buffers currently held.
    pub fn pooled(&self) -> usize {
        self.free.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn take_returns_zeroed_buffer_of_requested_len() {
        let mut ws = Workspace::new();
        let mut b = ws.take(5);
        assert_eq!(b, vec![0.0; 5]);
        b.iter_mut().for_each(|v| *v = 7.0);
        ws.put(b);
        // Recycled buffer must come back zeroed.
        let b2 = ws.take(3);
        assert_eq!(b2, vec![0.0; 3]);
    }

    #[test]
    fn reuses_largest_retired_capacity() {
        let mut ws = Workspace::new();
        let big = ws.take(100);
        let small = ws.take(2);
        let big_ptr = big.as_ptr();
        ws.put(small);
        ws.put(big);
        let reused = ws.take(50);
        assert_eq!(reused.as_ptr(), big_ptr);
        assert_eq!(ws.pooled(), 1);
    }

    #[test]
    fn empty_buffers_are_not_pooled() {
        let mut ws = Workspace::new();
        ws.put(Vec::new());
        assert_eq!(ws.pooled(), 0);
    }
}
