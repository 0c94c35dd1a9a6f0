//! Flat row-major tensors and the shared argmax.
//!
//! Every batch that used to travel as a nested vector-of-rows — VUC
//! embeddings, CNN batch outputs, leaf distributions, cached
//! embedding artifacts — is a rectangle: `rows` samples of a uniform
//! `cols` width. [`Tensor`] stores that rectangle in one contiguous
//! allocation, so building a batch costs one allocation instead of
//! one per row, rows are cache-adjacent, and serialization frames the
//! whole block at once.

use serde::{DeError, Deserialize, Serialize, Value};

/// Index of the maximum element of `xs` under IEEE `total_cmp`
/// ordering.
///
/// Semantics (pinned by unit and property tests, bitwise-equal to the
/// hand-rolled `max_by(total_cmp)` loops this helper replaced):
///
/// - **Ties** resolve to the *last* maximal element (what
///   `Iterator::max_by` returns).
/// - **NaN** orders above `+inf` under `total_cmp`, so any NaN wins
///   (the last one if several).
/// - An **empty** slice returns `0`.
pub fn argmax(xs: &[f32]) -> usize {
    xs.iter()
        .enumerate()
        .max_by(|a, b| a.1.total_cmp(b.1))
        .map(|(i, _)| i)
        .unwrap_or(0)
}

/// A dense `rows × cols` matrix of `f32` in one contiguous row-major
/// allocation.
///
/// Serialization is framed as `{rows, cols, data}` with `data` the
/// flat row-major block, and deserialization rejects any value whose
/// `data` length is not exactly `rows × cols`.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Tensor {
    rows: usize,
    cols: usize,
    data: Vec<f32>,
}

impl Tensor {
    /// A zero-filled `rows × cols` tensor.
    pub fn zeros(rows: usize, cols: usize) -> Tensor {
        Tensor {
            rows,
            cols,
            data: vec![0.0; rows * cols],
        }
    }

    /// Wraps a flat row-major block as a `rows × cols` tensor.
    ///
    /// # Panics
    ///
    /// Panics if `data.len() != rows * cols`.
    pub fn from_flat(rows: usize, cols: usize, data: Vec<f32>) -> Tensor {
        assert_eq!(
            data.len(),
            rows * cols,
            "flat block of {} floats cannot be a {rows}×{cols} tensor",
            data.len()
        );
        Tensor { rows, cols, data }
    }

    /// Copies uniform-width rows into one contiguous tensor. An empty
    /// iterator yields a `0 × 0` tensor.
    ///
    /// # Panics
    ///
    /// Panics if rows have inconsistent lengths.
    pub fn from_rows<R: AsRef<[f32]>>(rows: impl IntoIterator<Item = R>) -> Tensor {
        let mut data = Vec::new();
        let mut cols = 0usize;
        let mut n = 0usize;
        for row in rows {
            let row = row.as_ref();
            if n == 0 {
                cols = row.len();
                data = Vec::with_capacity(cols * 8);
            }
            assert_eq!(row.len(), cols, "row {n} has {} of {cols} cols", row.len());
            data.extend_from_slice(row);
            n += 1;
        }
        Tensor {
            rows: n,
            cols,
            data,
        }
    }

    /// Builds a `rows × cols` tensor by filling each row with
    /// `fill(state, row_index, row)`, data-parallel across the
    /// ambient rayon thread count. Each worker thread owns one
    /// `init()` state (scratch space — [`fill`] must write the row as
    /// a pure function of its index). Rows are disjoint positional
    /// writes, so the result is bit-identical for any thread count.
    pub fn build_rows<S>(
        rows: usize,
        cols: usize,
        init: impl Fn() -> S + Sync,
        fill: impl Fn(&mut S, usize, &mut [f32]) + Sync,
    ) -> Tensor {
        if rows == 0 || cols == 0 {
            return Tensor {
                rows,
                cols,
                data: vec![0.0; rows * cols],
            };
        }
        let workers = rayon::current_num_threads().clamp(1, rows);
        if workers == 1 {
            // Sequential path: grow the block one row at a time and
            // fill each row in place while its cache lines are still
            // hot from the zero-extend, so the output streams to
            // memory once instead of a full-block zero-fill stream
            // followed by a fill stream.
            let mut data = Vec::with_capacity(rows * cols);
            let mut state = init();
            for i in 0..rows {
                let start = data.len();
                data.resize(start + cols, 0.0);
                fill(&mut state, i, &mut data[start..]);
            }
            return Tensor { rows, cols, data };
        }
        let mut out = Tensor::zeros(rows, cols);
        fill_rows(&mut out.data, cols, init, fill);
        out
    }

    /// Like [`Tensor::build_rows`], but hands each worker a *block*
    /// of up to `block` consecutive rows at a time:
    /// `fill(state, first_row, rows)` receives the first row index of
    /// the block and its `n × cols` flat slice. Batched kernels use
    /// this to amortize per-sample work (weight streaming, tile
    /// transposes) across a micro-batch.
    ///
    /// Work splits at block boundaries only, so block contents — and
    /// therefore every output bit — depend on the block index alone,
    /// never on the thread count.
    pub fn build_row_blocks<S>(
        rows: usize,
        cols: usize,
        block: usize,
        init: impl Fn() -> S + Sync,
        fill: impl Fn(&mut S, usize, &mut [f32]) + Sync,
    ) -> Tensor {
        let mut out = Tensor::zeros(rows, cols);
        fill_row_blocks(&mut out.data, cols, block, init, fill);
        out
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// `true` when the tensor has no rows.
    pub fn is_empty(&self) -> bool {
        self.rows == 0
    }

    /// One row as a slice.
    ///
    /// # Panics
    ///
    /// Panics if `i >= rows`.
    pub fn row(&self, i: usize) -> &[f32] {
        assert!(i < self.rows, "row {i} out of {}", self.rows);
        &self.data[i * self.cols..(i + 1) * self.cols]
    }

    /// One row as a mutable slice.
    ///
    /// # Panics
    ///
    /// Panics if `i >= rows`.
    pub fn row_mut(&mut self, i: usize) -> &mut [f32] {
        assert!(i < self.rows, "row {i} out of {}", self.rows);
        &mut self.data[i * self.cols..(i + 1) * self.cols]
    }

    /// Iterates the rows in order.
    pub fn rows_iter(&self) -> impl ExactSizeIterator<Item = &[f32]> + '_ {
        // `chunks_exact(0)` panics; an empty tensor has no rows to
        // yield, so any positive width gives the same empty iterator.
        self.data.chunks_exact(self.cols.max(1)).take(self.rows)
    }

    /// The whole row-major block.
    pub fn as_slice(&self) -> &[f32] {
        &self.data
    }

    /// Consumes the tensor, returning the flat row-major block.
    pub fn into_flat(self) -> Vec<f32> {
        self.data
    }
}

impl std::ops::Index<usize> for Tensor {
    type Output = [f32];

    fn index(&self, i: usize) -> &[f32] {
        self.row(i)
    }
}

impl Serialize for Tensor {
    fn to_value(&self) -> Value {
        let mut m = serde::Map::new();
        m.insert("rows".to_string(), self.rows.to_value());
        m.insert("cols".to_string(), self.cols.to_value());
        m.insert("data".to_string(), self.data.to_value());
        Value::Object(m)
    }
}

impl Deserialize for Tensor {
    fn from_value(v: &Value) -> Result<Tensor, DeError> {
        let m = serde::as_object_for(v, "Tensor")?;
        let rows: usize = serde::field(m, "rows", "Tensor")?;
        let cols: usize = serde::field(m, "cols", "Tensor")?;
        let data: Vec<f32> = serde::field(m, "data", "Tensor")?;
        if data.len() != rows * cols {
            return Err(DeError(format!(
                "Tensor {rows}×{cols} needs {} floats, got {}",
                rows * cols,
                data.len()
            )));
        }
        Ok(Tensor { rows, cols, data })
    }
}

/// Fills the rows of a flat row-major block in place: `fill(state, i,
/// row)` writes row `i` (`cols` floats) of `data`, data-parallel across
/// the ambient rayon thread count, with one `init()` state per worker
/// (see [`Tensor::build_rows`]). Each worker fills one contiguous
/// row range, a disjoint mutable split of `data`, so the block is
/// bit-identical for any thread count. Callers refilling a reused
/// buffer (the shard writer) get no allocation per call.
///
/// # Panics
///
/// Panics if `data` is not a whole number of `cols`-float rows.
pub fn fill_rows<S>(
    data: &mut [f32],
    cols: usize,
    init: impl Fn() -> S + Sync,
    fill: impl Fn(&mut S, usize, &mut [f32]) + Sync,
) {
    fill_row_blocks(data, cols, 1, init, fill);
}

/// The one row-fill split behind [`fill_rows`] (`block = 1`),
/// [`Tensor::build_rows`] and [`Tensor::build_row_blocks`]: `data`'s
/// rows go in blocks of up to `block` rows, `fill(state, first_row,
/// chunk)` writing each block's `n × cols` flat slice. With more than
/// one worker, each takes one contiguous run of whole blocks on its
/// own scoped thread, with its own `init()` state; the split depends
/// on the row count and the thread count only, and never cuts a block.
fn fill_row_blocks<S>(
    data: &mut [f32],
    cols: usize,
    block: usize,
    init: impl Fn() -> S + Sync,
    fill: impl Fn(&mut S, usize, &mut [f32]) + Sync,
) {
    if data.is_empty() || cols == 0 {
        return;
    }
    assert_eq!(data.len() % cols, 0, "block of whole {cols}-float rows");
    let (rows, block) = (data.len() / cols, block.max(1));
    let run = |state: &mut S, first: usize, span: &mut [f32]| {
        for (b, chunk) in span.chunks_mut(block * cols).enumerate() {
            fill(state, first + b * block, chunk);
        }
    };
    let nblocks = rows.div_ceil(block);
    let workers = rayon::current_num_threads().clamp(1, nblocks);
    if workers == 1 {
        run(&mut init(), 0, data);
        return;
    }
    let per_worker = nblocks.div_ceil(workers) * block;
    std::thread::scope(|s| {
        for (w, span) in data.chunks_mut(per_worker * cols).enumerate() {
            let (init, run) = (&init, &run);
            s.spawn(move || run(&mut init(), w * per_worker, span));
        }
    });
}

/// Anything that presents uniform-width `f32` rows to a batched
/// consumer: a [`Tensor`], a slice of owned rows, or a slice of
/// borrowed rows (`Vec<&[f32]>` for batching a selected subset of a
/// table without copying it).
pub trait Rows: Sync {
    /// Number of rows.
    fn count(&self) -> usize;

    /// Row `i` as a slice.
    fn row_at(&self, i: usize) -> &[f32];
}

impl Rows for Tensor {
    fn count(&self) -> usize {
        self.rows()
    }

    fn row_at(&self, i: usize) -> &[f32] {
        self.row(i)
    }
}

impl<X: AsRef<[f32]> + Sync> Rows for [X] {
    fn count(&self) -> usize {
        self.len()
    }

    fn row_at(&self, i: usize) -> &[f32] {
        self[i].as_ref()
    }
}

impl<X: AsRef<[f32]> + Sync> Rows for Vec<X> {
    fn count(&self) -> usize {
        self.len()
    }

    fn row_at(&self, i: usize) -> &[f32] {
        self[i].as_ref()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The loop `argmax` replaced, kept verbatim as the oracle.
    fn argmax_oracle(xs: &[f32]) -> usize {
        xs.iter()
            .enumerate()
            .max_by(|a, b| a.1.total_cmp(b.1))
            .map(|(i, _)| i)
            .unwrap_or(0)
    }

    #[test]
    fn argmax_basics() {
        assert_eq!(argmax(&[]), 0);
        assert_eq!(argmax(&[1.0]), 0);
        assert_eq!(argmax(&[0.1, 0.7, 0.2]), 1);
        // Ties pick the LAST maximal element.
        assert_eq!(argmax(&[0.5, 0.5]), 1);
        assert_eq!(argmax(&[0.5, 0.5, 0.1]), 1);
        // NaN orders above everything under total_cmp.
        assert_eq!(argmax(&[f32::NAN, 1.0]), 0);
        assert_eq!(argmax(&[1.0, f32::NAN, f32::INFINITY]), 1);
        // -0.0 < +0.0 under total_cmp.
        assert_eq!(argmax(&[0.0, -0.0]), 0);
    }

    proptest! {
        #[test]
        fn argmax_matches_the_replaced_loops(xs in proptest::collection::vec(-1e6f32..1e6, 0..40)) {
            prop_assert_eq!(argmax(&xs), argmax_oracle(&xs));
        }

        #[test]
        fn argmax_matches_oracle_with_specials(
            xs in proptest::collection::vec(
                prop_oneof![
                    Just(f32::NAN), Just(f32::INFINITY), Just(f32::NEG_INFINITY),
                    Just(0.0f32), Just(-0.0f32), -1e3f32..1e3f32,
                ],
                0..16,
            )
        ) {
            prop_assert_eq!(argmax(&xs), argmax_oracle(&xs));
        }
    }

    #[test]
    fn shapes_and_access() {
        let t = Tensor::from_flat(2, 3, vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        assert_eq!((t.rows(), t.cols()), (2, 3));
        assert_eq!(t.row(1), &[4.0, 5.0, 6.0]);
        assert_eq!(&t[0], &[1.0, 2.0, 3.0]);
        let rows: Vec<&[f32]> = t.rows_iter().collect();
        assert_eq!(rows.len(), 2);
        assert_eq!(rows[1], t.row(1));
        assert_eq!(t.clone().into_flat(), t.as_slice());
    }

    #[test]
    fn from_rows_concatenates() {
        let t = Tensor::from_rows([[1.0f32, 2.0], [3.0, 4.0]]);
        assert_eq!((t.rows(), t.cols()), (2, 2));
        assert_eq!(t.as_slice(), &[1.0, 2.0, 3.0, 4.0]);
        let empty = Tensor::from_rows(Vec::<Vec<f32>>::new());
        assert_eq!((empty.rows(), empty.cols()), (0, 0));
        assert!(empty.is_empty());
        assert_eq!(empty.rows_iter().count(), 0);
    }

    #[test]
    #[should_panic(expected = "row 1 has 1 of 2 cols")]
    fn from_rows_rejects_ragged_input() {
        Tensor::from_rows(vec![vec![1.0f32, 2.0], vec![3.0]]);
    }

    #[test]
    fn build_rows_is_thread_count_invariant() {
        let fill = |_: &mut (), i: usize, row: &mut [f32]| {
            for (j, v) in row.iter_mut().enumerate() {
                *v = (i * 31 + j) as f32 * 0.25;
            }
        };
        let wide = Tensor::build_rows(37, 5, || (), fill);
        let narrow = rayon::ThreadPoolBuilder::new()
            .num_threads(1)
            .build()
            .unwrap()
            .install(|| Tensor::build_rows(37, 5, || (), fill));
        assert_eq!(wide, narrow);
        assert_eq!(wide.row(36)[4], (36 * 31 + 4) as f32 * 0.25);
        // Degenerate shapes don't spawn or panic.
        assert!(Tensor::build_rows(0, 5, || (), fill).is_empty());
        assert_eq!(Tensor::build_rows(3, 0, || (), fill).rows(), 3);
    }

    #[test]
    fn build_row_blocks_matches_build_rows_and_is_thread_invariant() {
        let per_row = |i: usize, j: usize| (i * 17 + j) as f32 * 0.5;
        let rows_fill = move |_: &mut (), i: usize, row: &mut [f32]| {
            for (j, v) in row.iter_mut().enumerate() {
                *v = per_row(i, j);
            }
        };
        let blocks_fill = move |_: &mut (), first: usize, chunk: &mut [f32]| {
            for (r, row) in chunk.chunks_mut(3).enumerate() {
                for (j, v) in row.iter_mut().enumerate() {
                    *v = per_row(first + r, j);
                }
            }
        };
        // 29 rows of 3 with block 8: three full tiles + a 5-row tail.
        let by_rows = Tensor::build_rows(29, 3, || (), rows_fill);
        let by_blocks = Tensor::build_row_blocks(29, 3, 8, || (), blocks_fill);
        assert_eq!(by_rows, by_blocks);
        let single = rayon::ThreadPoolBuilder::new()
            .num_threads(1)
            .build()
            .unwrap()
            .install(|| Tensor::build_row_blocks(29, 3, 8, || (), blocks_fill));
        assert_eq!(by_blocks, single);
        assert!(Tensor::build_row_blocks(0, 3, 8, || (), blocks_fill).is_empty());
    }

    #[test]
    fn serde_frames_rows_cols_data() {
        let t = Tensor::from_flat(2, 2, vec![0.5, -1.25, 3.0, 0.0]);
        let v = t.to_value();
        let back = Tensor::from_value(&v).unwrap();
        assert_eq!(back, t);
        // A frame whose data length disagrees with its shape is
        // rejected, not silently reshaped.
        let mut m = serde::Map::new();
        m.insert("rows".into(), 2usize.to_value());
        m.insert("cols".into(), 3usize.to_value());
        m.insert("data".into(), vec![1.0f32].to_value());
        assert!(Tensor::from_value(&Value::Object(m)).is_err());
    }

    #[test]
    fn rows_trait_views_agree() {
        let t = Tensor::from_rows([[1.0f32, 2.0], [3.0, 4.0]]);
        let owned = vec![vec![1.0f32, 2.0], vec![3.0, 4.0]];
        let borrowed: Vec<&[f32]> = owned.iter().map(|r| r.as_slice()).collect();
        for r in [&t as &dyn Rows, &owned as &dyn Rows, &borrowed as &dyn Rows] {
            assert_eq!(r.count(), 2);
            assert_eq!(r.row_at(1), &[3.0, 4.0]);
        }
    }
}
