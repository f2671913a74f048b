//! Sample summaries under one percentile rule: a tail percentile is
//! reported only when at least [`MIN_BEYOND`] samples lie beyond it, so
//! a p99 needs at least 1000 samples.

/// Samples that must lie strictly beyond a tail percentile's rank.
pub const MIN_BEYOND: usize = 10;

/// Nearest-rank quantile `q` (in `(0, 1]`) of samples sorted ascending,
/// or `None` when `q` lies in the tail (`q > 0.5`) and fewer than
/// [`MIN_BEYOND`] samples lie beyond its rank. Medians are always
/// reported for a non-empty sample.
#[must_use]
pub fn quantile(sorted: &[f64], q: f64) -> Option<f64> {
    let n = sorted.len();
    if n == 0 {
        return None;
    }
    let rank = ((q * n as f64).ceil() as usize).clamp(1, n);
    if q > 0.5 && n - rank < MIN_BEYOND {
        return None;
    }
    Some(sorted[rank - 1])
}

/// Median of an unsorted sample (the mean of the two middle values for
/// an even count); `NaN` when empty.
#[must_use]
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    match n {
        0 => f64::NAN,
        _ if n % 2 == 1 => v[n / 2],
        _ => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// Arithmetic mean; `NaN` when empty.
#[must_use]
pub fn mean(values: &[f64]) -> f64 {
    values.iter().sum::<f64>() / values.len() as f64
}

/// The p99 of an unsorted sample, or — for a sample too small to
/// support one — the highest nearest-rank percentile that still has
/// [`MIN_BEYOND`] samples beyond it: (percentile, value). `None` when
/// the sample is too small for any tail percentile.
#[must_use]
pub fn tail(values: &[f64]) -> Option<(f64, f64)> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if let Some(p99) = quantile(&v, 0.99) {
        return Some((99.0, p99));
    }
    if n <= 2 * MIN_BEYOND {
        return None;
    }
    let rank = n - MIN_BEYOND;
    Some((100.0 * rank as f64 / n as f64, v[rank - 1]))
}

/// Rates per window: `events` are (time s, weight), sorted by time,
/// from a phase `length` s long. The phase is cut into whole windows of
/// `window` s; a window's rate is the weight that arrived after its
/// first event over the time to its last. A phase shorter than one
/// window yields its overall rate.
#[must_use]
pub fn window_rates(events: &[(f64, f64)], length: f64, window: f64) -> Vec<f64> {
    let windows = (length / window).floor() as usize;
    if windows == 0 {
        return vec![events.iter().map(|e| e.1).sum::<f64>() / length];
    }
    (0..windows)
        .filter_map(|w| {
            let (lo, hi) = (w as f64 * window, (w + 1) as f64 * window);
            let inside: Vec<&(f64, f64)> =
                events.iter().filter(|e| e.0 >= lo && e.0 < hi).collect();
            let span = inside.last()?.0 - inside.first()?.0;
            (span > 0.0).then(|| inside[1..].iter().map(|e| e.1).sum::<f64>() / span)
        })
        .collect()
}

/// Segments of a phase whose median lateness [`lateness_growing`]
/// compares. Lateness that only comes in bursts rises through four
/// segments in about one phase of 24 (1/4!), and through eight in one of
/// 40 320; a backlog that builds for the whole phase rises through any
/// number.
const LATENESS_SEGMENTS: usize = 8;

/// `true` when the generator's lateness (samples in due-time order)
/// keeps growing over a phase: the median lateness of each of
/// [`LATENESS_SEGMENTS`] equal segments exceeds the previous one's, and
/// the last one's exceeds the first's by more than `floor` (same unit as
/// the samples). A generator that falls behind and catches up is not
/// flagged; one whose backlog builds is.
#[must_use]
pub fn lateness_growing(lateness: &[f64], floor: f64) -> bool {
    let k = LATENESS_SEGMENTS;
    if lateness.len() < 2 * k {
        return false;
    }
    let q = lateness.len() / k;
    let medians: Vec<f64> = (0..k)
        .map(|i| median(&lateness[i * q..(i + 1) * q]))
        .collect();
    medians.windows(2).all(|w| w[1] > w[0]) && medians[k - 1] - medians[0] > floor
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Vec<f64> {
        (1..=n).map(|i| i as f64).collect()
    }

    #[test]
    fn p99_needs_ten_samples_beyond_it() {
        // 1000 samples: rank 990, ten beyond.
        assert_eq!(quantile(&ramp(1000), 0.99), Some(990.0));
        // 999 samples: rank 990 leaves only nine beyond.
        assert_eq!(quantile(&ramp(999), 0.99), None);
        assert_eq!(quantile(&ramp(5000), 0.99), Some(4950.0));
    }

    #[test]
    fn median_is_reported_for_any_nonempty_sample() {
        assert_eq!(quantile(&ramp(1), 0.5), Some(1.0));
        assert_eq!(quantile(&ramp(3), 0.5), Some(2.0));
        assert_eq!(quantile(&[], 0.5), None);
        assert_eq!(median(&[3.0, 1.0, 2.0, 10.0]), 2.5);
        assert_eq!(median(&[5.0]), 5.0);
    }

    #[test]
    fn tail_falls_back_to_the_highest_supported_percentile() {
        // 200 samples: rank 190 is the highest with ten beyond — p95.
        assert_eq!(tail(&ramp(200)), Some((95.0, 190.0)));
        assert_eq!(tail(&ramp(2000)), Some((99.0, 1980.0)));
        assert_eq!(tail(&ramp(20)), None);
    }

    #[test]
    fn window_rates_isolate_a_stalled_window() {
        // 10 events/s for 3 s, with a stalled middle second.
        let mut ev: Vec<(f64, f64)> = (0..10).map(|i| (0.05 + i as f64 * 0.1, 1.0)).collect();
        ev.push((1.2, 1.0));
        ev.push((1.9, 1.0));
        ev.extend((0..10).map(|i| (2.05 + i as f64 * 0.1, 1.0)));
        let r = window_rates(&ev, 3.0, 1.0);
        assert_eq!(r.len(), 3);
        assert!((median(&r) - 10.0).abs() < 1e-9, "{r:?}");
        assert!((r[1] - 1.0 / 0.7).abs() < 1e-9);
        // Weights count: two pairs per event doubles the rate.
        let pairs: Vec<(f64, f64)> = ev.iter().map(|&(t, _)| (t, 2.0)).collect();
        assert!((median(&window_rates(&pairs, 3.0, 1.0)) - 20.0).abs() < 1e-9);
        assert_eq!(window_rates(&ev, 0.5, 1.0), vec![44.0]);
    }

    #[test]
    fn steady_or_recovering_lateness_is_not_flagged() {
        let steady = vec![0.1; 400];
        assert!(!lateness_growing(&steady, 1.0));
        // One stall the generator recovers from.
        let mut spike = vec![0.1; 400];
        for (i, x) in spike[100..150].iter_mut().enumerate() {
            *x = 50.0 - i as f64;
        }
        assert!(!lateness_growing(&spike, 1.0));
        // Backlogs that build and drain again and again, each higher than
        // the last: the phase's quarters rise, its eighths do not.
        let waves: Vec<f64> = [1.0, 5.0, 3.0, 8.0, 6.0, 12.0, 10.0, 15.0]
            .iter()
            .flat_map(|&x| [x; 50])
            .collect();
        assert!(!lateness_growing(&waves, 1.0));
        // A backlog that builds for the whole run.
        let growing: Vec<f64> = (0..400).map(|i| i as f64 * 0.5).collect();
        assert!(lateness_growing(&growing, 1.0));
    }
}
