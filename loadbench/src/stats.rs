//! Order statistics used for every reported figure.

/// The `p`-quantile of an ascending slice by the sorted-index (nearest
/// rank) definition: the element at index `ceil(p * n) - 1`, clamped to
/// the slice. `p = 0.5` on 10 samples is the 5th smallest; `p = 0.99`
/// has `floor(n / 100)` samples strictly beyond it when values are
/// distinct. Empty input gives 0.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = (p * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Sort a sample in place and return it, for [`percentile`].
pub fn sorted(mut v: Vec<f64>) -> Vec<f64> {
    v.sort_by(f64::total_cmp);
    v
}

/// Median by the same definition as [`percentile`].
pub fn median(v: &[f64]) -> f64 {
    percentile(&sorted(v.to_vec()), 0.5)
}

/// Each of `slices` equal slices of `[start, start + len)`: the
/// `p`-quantile of the `(time, value)` samples whose time falls in it
/// (late samples count in the last slice), or `None` if it has none.
pub fn slice_percentiles(
    samples: &[(u64, f64)],
    start: u64,
    len: u64,
    slices: usize,
    p: f64,
) -> Vec<Option<f64>> {
    let mut by_slice: Vec<Vec<f64>> = vec![Vec::new(); slices];
    let width = (len / slices as u64).max(1);
    for &(t, v) in samples {
        let i = (t.saturating_sub(start) / width) as usize;
        by_slice[i.min(slices - 1)].push(v);
    }
    by_slice
        .into_iter()
        .map(|s| (!s.is_empty()).then(|| percentile(&sorted(s), p)))
        .collect()
}

/// Indices of the slices in which the host took the least CPU away
/// (`steal[i]` is slice `i`'s steal share): the `keep` calmest, and any
/// slice tied with the last of them.
pub fn calmest(steal: &[f64], keep: usize) -> Vec<usize> {
    let mut order = steal.to_vec();
    order.sort_by(f64::total_cmp);
    let Some(&limit) = order.get(keep.clamp(1, steal.len().max(1)) - 1) else {
        return Vec::new();
    };
    (0..steal.len()).filter(|&i| steal[i] <= limit).collect()
}

/// The median of the chosen slices' values, skipping empty slices.
pub fn median_of(values: &[Option<f64>], chosen: &[usize]) -> f64 {
    let v: Vec<f64> = chosen.iter().filter_map(|&i| values[i]).collect();
    median(&v)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_is_the_nearest_rank_element() {
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.5), 5.0);
        assert_eq!(percentile(&v, 0.9), 9.0);
        assert_eq!(percentile(&v, 0.91), 10.0);
        assert_eq!(percentile(&v, 0.0), 1.0);
        assert_eq!(percentile(&v, 1.0), 10.0);
        let w: Vec<f64> = (1..=1000).map(f64::from).collect();
        // p99 of 1000 distinct values leaves exactly 10 beyond it.
        let p99 = percentile(&w, 0.99);
        assert_eq!(p99, 990.0);
        assert_eq!(w.iter().filter(|&&x| x > p99).count(), 10);
        assert_eq!(percentile(&[], 0.5), 0.0);
        assert_eq!(percentile(&[7.0], 0.99), 7.0);
    }

    #[test]
    fn median_sorts_its_input() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.0);
    }

    #[test]
    fn slices_report_their_own_quantiles() {
        // Three slices of width 10: medians 2, 20 and 200.
        let s = [
            (0, 1.0),
            (5, 2.0),
            (9, 3.0),
            (10, 20.0),
            (25, 200.0),
            (29, 300.0),
            (27, 100.0),
        ];
        assert_eq!(
            slice_percentiles(&s, 0, 30, 3, 0.5),
            vec![Some(2.0), Some(20.0), Some(200.0)]
        );
        // A late sample lands in the last slice; an empty slice is None.
        assert_eq!(
            slice_percentiles(&[(0, 1.0), (99, 5.0)], 0, 30, 3, 0.5),
            vec![Some(1.0), None, Some(5.0)]
        );
    }

    #[test]
    fn the_calmest_slices_are_the_least_stolen() {
        assert_eq!(calmest(&[0.3, 0.0, 0.2, 0.0], 2), vec![1, 3]);
        assert_eq!(calmest(&[0.3, 0.0, 0.2, 0.0], 3), vec![1, 2, 3]);
        assert_eq!(calmest(&[0.0, 0.0, 0.0, 0.1], 2), vec![0, 1, 2]);
        assert_eq!(calmest(&[0.1, 0.2], 5), vec![0, 1]);
        assert_eq!(calmest(&[], 2), Vec::<usize>::new());
        let v = [Some(5.0), None, Some(1.0), Some(3.0)];
        assert_eq!(median_of(&v, &[0, 1, 3]), 3.0);
        assert_eq!(median_of(&v, &[1]), 0.0);
    }
}
