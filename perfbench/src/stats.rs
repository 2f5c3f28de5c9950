//! Summary arithmetic: medians, the tail-percentile rule, ratios and the
//! metric-name grammar. Everything here is pure so the unit tests can pin
//! it down.

/// Percentiles the tail rule picks from, highest first.
const TAIL_CANDIDATES: [f64; 6] = [99.9, 99.0, 95.0, 90.0, 75.0, 50.0];

/// Samples that must lie beyond a reported tail percentile.
pub const MIN_BEYOND: usize = 10;

/// Nearest rank (1-based) of percentile `p` among `n` samples. The
/// epsilon keeps `99.9% of 10,000` at rank 9,990 despite the product's
/// rounding error.
fn rank(p: f64, n: usize) -> usize {
    ((p * n as f64 / 100.0) - 1e-9).ceil().max(0.0) as usize
}

/// Nearest-rank percentile of an ascending-sorted slice (`p` in 0..=100).
/// Returns `None` for an empty slice.
pub fn percentile_sorted(sorted: &[f64], p: f64) -> Option<f64> {
    if sorted.is_empty() {
        return None;
    }
    Some(sorted[rank(p, sorted.len()).clamp(1, sorted.len()) - 1])
}

/// Median of an unsorted sample set (mean of the middle pair for an even
/// count). `None` when empty.
pub fn median(samples: &[f64]) -> Option<f64> {
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    match n {
        0 => None,
        _ if n % 2 == 1 => Some(v[n / 2]),
        _ => Some((v[n / 2 - 1] + v[n / 2]) / 2.0),
    }
}

/// The highest candidate percentile that leaves at least [`MIN_BEYOND`]
/// samples strictly above its rank, for `n` samples. `None` when even the
/// median leaves fewer than ten beyond it.
pub fn tail_percentile(n: usize) -> Option<f64> {
    TAIL_CANDIDATES
        .into_iter()
        .find(|&p| n.saturating_sub(rank(p, n)) >= MIN_BEYOND)
}

/// A timing distribution reduced to what the benchmark reports: the
/// median, the tail and which percentile that tail really is.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Dist {
    /// Sample count.
    pub n: usize,
    /// Median.
    pub p50: f64,
    /// The tail value.
    pub tail: f64,
    /// The percentile `tail` was taken at: p99 when the sample count
    /// supports it, else the highest one that [`tail_percentile`] allows.
    pub tail_pct: f64,
}

impl Dist {
    /// Summarizes `samples` with the tail at p99, lowered as far as the
    /// ten-beyond rule needs. `None` when there are no samples.
    pub fn of(samples: &[f64]) -> Option<Dist> {
        let mut v = samples.to_vec();
        v.sort_by(f64::total_cmp);
        let p50 = median(&v)?;
        let tail_pct = tail_percentile(v.len()).map_or(50.0, |p| p.min(99.0));
        Some(Dist {
            n: v.len(),
            p50,
            tail: percentile_sorted(&v, tail_pct)?,
            tail_pct,
        })
    }
}

/// Arithmetic mean; 0 for no samples.
pub fn mean(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        0.0
    } else {
        samples.iter().sum::<f64>() / samples.len() as f64
    }
}

/// Failed operations over attempted ones — the `failed_frac` metric.
/// Panics on a zero denominator: every workload attempts work.
pub fn failed_frac(failed: u64, attempted: u64) -> f64 {
    assert!(attempted > 0, "failed_frac needs at least one attempt");
    failed as f64 / attempted as f64
}

/// Whether `name` fits the metric-name grammar: 1 to 64 characters from
/// `[A-Za-z0-9_.-]`, starting with a letter or digit.
pub fn valid_name(name: &str) -> bool {
    !name.is_empty()
        && name.len() <= 64
        && name.starts_with(|c: char| c.is_ascii_alphanumeric())
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

/// Maps a free-form label (a Fig. 12 component name) onto the name
/// grammar: lowercase alphanumerics, every other run of characters
/// collapsed to one `_`, no leading or trailing `_`.
pub fn slug(label: &str) -> String {
    let mut out = String::new();
    for c in label.chars() {
        if c.is_ascii_alphanumeric() {
            out.push(c.to_ascii_lowercase());
        } else if !out.is_empty() && !out.ends_with('_') {
            out.push('_');
        }
    }
    while out.ends_with('_') {
        out.pop();
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_rule_needs_ten_samples_beyond() {
        // 1000 samples: p99.9 leaves 1 beyond, p99 leaves exactly 10.
        assert_eq!(tail_percentile(1000), Some(99.0));
        assert_eq!(tail_percentile(10_000), Some(99.9));
        assert_eq!(tail_percentile(9_999), Some(99.0));
        // 100 samples: p99 leaves 1, p95 leaves 5, p90 leaves 10.
        assert_eq!(tail_percentile(100), Some(90.0));
        assert_eq!(tail_percentile(40), Some(75.0));
        assert_eq!(tail_percentile(20), Some(50.0));
        assert_eq!(tail_percentile(19), None);
        assert_eq!(tail_percentile(0), None);
    }

    #[test]
    fn dist_caps_the_requested_tail_and_states_the_count() {
        let samples: Vec<f64> = (1..=100).map(f64::from).collect();
        let d = Dist::of(&samples).expect("samples");
        assert_eq!(d.n, 100);
        assert_eq!(d.tail_pct, 90.0);
        assert_eq!(d.tail, 90.0);
        assert_eq!(d.p50, 50.5);
        let big: Vec<f64> = (1..=2000).map(f64::from).collect();
        let d = Dist::of(&big).expect("samples");
        assert_eq!((d.tail_pct, d.tail), (99.0, 1980.0));
        assert!(Dist::of(&[]).is_none());
    }

    #[test]
    fn nearest_rank_percentiles_and_median() {
        let v = [1.0, 2.0, 3.0, 4.0];
        assert_eq!(percentile_sorted(&v, 50.0), Some(2.0));
        assert_eq!(percentile_sorted(&v, 100.0), Some(4.0));
        assert_eq!(percentile_sorted(&v, 0.0), Some(1.0));
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
        assert_eq!(median(&[]), None);
    }

    #[test]
    fn failed_frac_divides_by_attempts() {
        assert_eq!(failed_frac(0, 14_000), 0.0);
        assert_eq!(failed_frac(7, 28), 0.25);
    }

    #[test]
    #[should_panic(expected = "at least one attempt")]
    fn failed_frac_rejects_zero_attempts() {
        failed_frac(0, 0);
    }

    #[test]
    fn name_grammar() {
        for ok in [
            "setup_s",
            "snapshot.restore_us.p99",
            "kernel.run_us.warm.p50",
            "a-b",
        ] {
            assert!(valid_name(ok), "{ok}");
        }
        for bad in ["", "_x", ".x", "a b", "a/b", "ü", &"x".repeat(65)] {
            assert!(!valid_name(bad), "{bad}");
        }
    }

    #[test]
    fn slug_maps_component_labels_onto_the_grammar() {
        assert_eq!(slug("TickTock (Monolithic)"), "ticktock_monolithic");
        assert_eq!(
            slug("Kernel (Schedule Explorer)"),
            "kernel_schedule_explorer"
        );
        assert_eq!(slug("Interrupts"), "interrupts");
        assert!(valid_name(&format!(
            "verifier.{}_ms",
            slug("HW: Refined Ptrs!")
        )));
    }
}
