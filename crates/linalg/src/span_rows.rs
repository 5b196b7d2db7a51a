//! Matrix rows stored only over their nonzero span.

/// The rows of a `rows × cols` matrix, each stored only over the columns
/// `lo..hi` outside which it is exactly zero.
///
/// Rows of `Y = H⁻¹Cᵀ` for a Hessian that splits into independent chains
/// of blocks stay inside one chain, so storing each over its span costs a
/// chain's width, not the full one. Rows are filled once each, in any
/// order; a row never filled is empty (all zero).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct SpanRows {
    cols: usize,
    /// Every filled row's entries, back to back in fill order.
    data: Vec<f64>,
    /// Per row: the start of its entries in `data`, and its span `lo..hi`.
    rows: Vec<(usize, usize, usize)>,
}

impl SpanRows {
    /// `rows` empty rows of width `cols`.
    pub fn new(rows: usize, cols: usize) -> Self {
        SpanRows {
            cols,
            data: Vec::new(),
            rows: vec![(0, 0, 0); rows],
        }
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows.len()
    }

    /// Row width.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Fills row `r` with `entries` at the columns `lo..lo + entries.len()`.
    ///
    /// # Panics
    ///
    /// Panics if the span runs past [`cols`](Self::cols) or row `r` was
    /// filled before.
    pub fn set_row(&mut self, r: usize, lo: usize, entries: &[f64]) {
        let hi = lo + entries.len();
        assert!(hi <= self.cols, "span {lo}..{hi} past width {}", self.cols);
        assert!(self.rows[r].1 == self.rows[r].2, "row {r} filled twice");
        if !entries.is_empty() {
            self.rows[r] = (self.data.len(), lo, hi);
            self.data.extend_from_slice(entries);
        }
    }

    /// The span `lo..hi` of row `r` (`(0, 0)` for an empty row).
    pub fn span(&self, r: usize) -> (usize, usize) {
        let (_, lo, hi) = self.rows[r];
        (lo, hi)
    }

    /// The stored entries of row `r`: its columns `span(r)`.
    pub fn row(&self, r: usize) -> &[f64] {
        let (start, lo, hi) = self.rows[r];
        &self.data[start..start + hi - lo]
    }

    /// Number of stored entries over all rows.
    pub fn stored(&self) -> usize {
        self.data.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rows_keep_their_spans_in_any_fill_order() {
        let mut rows = SpanRows::new(3, 6);
        rows.set_row(2, 4, &[1.0, 2.0]);
        rows.set_row(0, 0, &[3.0, 4.0, 5.0]);
        assert_eq!((rows.rows(), rows.cols()), (3, 6));
        assert_eq!(rows.span(0), (0, 3));
        assert_eq!(rows.row(0), &[3.0, 4.0, 5.0]);
        assert_eq!(rows.span(1), (0, 0));
        assert!(rows.row(1).is_empty());
        assert_eq!(rows.span(2), (4, 6));
        assert_eq!(rows.row(2), &[1.0, 2.0]);
        assert_eq!(rows.stored(), 5);
    }

    #[test]
    #[should_panic(expected = "past width")]
    fn span_past_the_width_is_rejected() {
        SpanRows::new(1, 2).set_row(0, 1, &[1.0, 2.0]);
    }
}
