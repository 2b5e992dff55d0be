//! The benchmark's own arithmetic: percentiles and how far into the tail a
//! sample supports, the paper's quality metrics, and the metric-name rule.

use foss_harness::percentile;
use foss_workloads::{geometric_mean_relevant_latency, workload_relevant_latency, QueryOutcome};

/// Samples a percentile must leave beyond it before it is reported.
pub const MIN_BEYOND: usize = 10;

/// The smallest sample size from which on every sample leaves
/// [`MIN_BEYOND`] samples beyond its p99.
pub const MIN_P99_SAMPLES: usize = 902;

/// Samples strictly above the `p`-th percentile in a sample of `n`.
pub fn beyond(n: usize, p: f64) -> usize {
    // The same rank arithmetic as `foss_harness::percentile`: the value sits
    // at rank floor(pos) or between it and the next rank, so every higher
    // rank is beyond it.
    let pos = (p.clamp(0.0, 100.0) / 100.0) * n.saturating_sub(1) as f64;
    n.saturating_sub(pos.floor() as usize + 1)
}

/// The highest percentile on the usual ladder that leaves at least
/// [`MIN_BEYOND`] samples beyond it, or `None` when not even the median
/// does.
pub fn tail_percentile(n: usize) -> Option<f64> {
    [99.9, 99.0, 95.0, 90.0, 75.0, 50.0]
        .into_iter()
        .find(|&p| beyond(n, p) >= MIN_BEYOND)
}

/// Median and p99 of a latency sample, refused when the sample is too
/// small for p99 to have [`MIN_BEYOND`] samples beyond it.
pub fn latency_summary(samples: &[f64]) -> Result<(f64, f64), String> {
    match tail_percentile(samples.len()) {
        Some(p) if p >= 99.0 => Ok((percentile(samples, 50.0), percentile(samples, 99.0))),
        _ => Err(format!(
            "{} latency samples are too few for a p99 with {MIN_BEYOND} beyond it",
            samples.len()
        )),
    }
}

/// One distinct query's quality measurement: served against expert.
#[derive(Debug, Clone, Copy)]
pub struct Served {
    /// Metered latency of the served plan (work units ≡ µs).
    pub latency: f64,
    /// Wall-clock planning time of the served decision (µs).
    pub planning_us: f64,
    /// Metered latency of the expert plan.
    pub expert_latency: f64,
    /// Wall-clock time of the expert optimizer (µs).
    pub expert_planning_us: f64,
}

/// The paper's `(WRL, GMRL)` over `served` (Table I). WRL adds the planning
/// times to the latencies; GMRL compares metered latencies only, so it
/// repeats exactly for the same decisions.
pub fn wrl_gmrl(served: &[Served]) -> (f64, f64) {
    let outcomes: Vec<QueryOutcome> = served
        .iter()
        .map(|s| QueryOutcome {
            learned_latency: s.latency,
            expert_latency: s.expert_latency,
            learned_opt_time: s.planning_us,
            expert_opt_time: s.expert_planning_us,
        })
        .collect();
    (
        workload_relevant_latency(&outcomes),
        geometric_mean_relevant_latency(&outcomes),
    )
}

/// Whether `name` is a valid metric name: it starts with a letter or a
/// digit and has at most 64 characters from `[A-Za-z0-9_.-]`.
pub fn valid_metric_name(name: &str) -> bool {
    name.len() <= 64
        && name.starts_with(|c: char| c.is_ascii_alphanumeric())
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn beyond_counts_samples_above_the_percentile_rank() {
        // 1001 samples: p99 is rank 990, so ranks 991..=1000 lie beyond it.
        assert_eq!(beyond(1001, 99.0), 10);
        // 100 samples: the median sits between ranks 49 and 50.
        assert_eq!(beyond(100, 50.0), 50);
        assert_eq!(beyond(0, 50.0), 0);
        assert_eq!(beyond(1, 50.0), 0);
        // Check against a literal count on a concrete sample.
        for n in [20usize, 57, 1000, 1001, 2500] {
            let samples: Vec<f64> = (0..n).map(|i| i as f64).collect();
            for p in [50.0, 90.0, 99.0] {
                let v = percentile(&samples, p);
                let count = samples.iter().filter(|&&s| s > v).count();
                assert_eq!(beyond(n, p), count, "n={n} p={p}");
            }
        }
    }

    #[test]
    fn tail_percentile_leaves_ten_samples_beyond() {
        assert_eq!(tail_percentile(0), None);
        assert_eq!(tail_percentile(19), None);
        assert_eq!(tail_percentile(20), Some(50.0));
        assert_eq!(tail_percentile(101), Some(90.0));
        assert_eq!(tail_percentile(800), Some(95.0));
        assert_eq!(tail_percentile(1001), Some(99.0));
        assert_eq!(tail_percentile(MIN_P99_SAMPLES - 1), Some(95.0));
        assert!((MIN_P99_SAMPLES..12_000).all(|n| tail_percentile(n) >= Some(99.0)));
        assert_eq!(tail_percentile(10_001), Some(99.9));
        let ladder = [99.9, 99.0, 95.0, 90.0, 75.0, 50.0];
        for n in 20..12_000 {
            let p = tail_percentile(n).expect("20 samples support the median");
            assert!(beyond(n, p) >= MIN_BEYOND, "n={n} p={p}");
            // Nothing higher on the ladder would do.
            for higher in ladder.iter().filter(|&&q| q > p) {
                assert!(beyond(n, *higher) < MIN_BEYOND, "n={n} p={higher}");
            }
        }
    }

    #[test]
    fn latency_summary_refuses_a_thin_tail() {
        let thin: Vec<f64> = (0..800).map(f64::from).collect();
        assert!(latency_summary(&thin).is_err());
        let enough: Vec<f64> = (0..1001).map(f64::from).collect();
        let (p50, p99) = latency_summary(&enough).unwrap();
        assert_eq!(p50, 500.0);
        assert_eq!(p99, 990.0);
    }

    fn served(latency: f64, planning_us: f64, expert: f64, expert_us: f64) -> Served {
        Served {
            latency,
            planning_us,
            expert_latency: expert,
            expert_planning_us: expert_us,
        }
    }

    #[test]
    fn quality_matches_the_workload_metrics() {
        let sample = [
            served(50.0, 10.0, 100.0, 5.0),
            served(400.0, 20.0, 100.0, 5.0),
            served(30.0, 1.0, 30.0, 1.0),
        ];
        let (wrl, gmrl) = wrl_gmrl(&sample);
        // By hand: WRL = (60 + 420 + 31) / (105 + 105 + 31).
        assert!((wrl - 511.0 / 241.0).abs() < 1e-12);
        // GMRL = (0.5 · 4 · 1)^(1/3), planning times play no part.
        assert!((gmrl - 2f64.powf(1.0 / 3.0)).abs() < 1e-12);
        let outcomes: Vec<QueryOutcome> = sample
            .iter()
            .map(|s| QueryOutcome {
                learned_latency: s.latency,
                expert_latency: s.expert_latency,
                learned_opt_time: s.planning_us,
                expert_opt_time: s.expert_planning_us,
            })
            .collect();
        assert_eq!(wrl, workload_relevant_latency(&outcomes));
        assert_eq!(gmrl, geometric_mean_relevant_latency(&outcomes));
    }

    #[test]
    fn gmrl_ignores_planning_time_and_wrl_does_not() {
        let fast = [served(80.0, 1.0, 100.0, 1.0)];
        let slow = [served(80.0, 900.0, 100.0, 1.0)];
        assert_eq!(wrl_gmrl(&fast).1, wrl_gmrl(&slow).1);
        assert!(wrl_gmrl(&slow).0 > wrl_gmrl(&fast).0);
    }

    #[test]
    fn metric_names_follow_the_charset() {
        for ok in [
            "setup_s",
            "latency_p99_us",
            "core.infer_p50_us",
            "http.roundtrip-1",
            "9lives",
        ] {
            assert!(valid_metric_name(ok), "{ok}");
        }
        for bad in [
            "",
            "_lead",
            ".lead",
            "has space",
            "slash/name",
            "pct%",
            "ümlaut",
        ] {
            assert!(!valid_metric_name(bad), "{bad}");
        }
        assert!(valid_metric_name(&"a".repeat(64)));
        assert!(!valid_metric_name(&"a".repeat(65)));
    }
}
