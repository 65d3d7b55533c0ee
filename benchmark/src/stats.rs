//! Order statistics for timing samples: median, MAD, percentiles, spread.

use crate::json::Json;

fn sorted(xs: &[f64]) -> Vec<f64> {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Median (mean of the middle pair for an even count). 0 for no samples.
pub fn median(xs: &[f64]) -> f64 {
    let v = sorted(xs);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// Median absolute deviation from the median.
pub fn mad(xs: &[f64]) -> f64 {
    let m = median(xs);
    median(&xs.iter().map(|x| (x - m).abs()).collect::<Vec<_>>())
}

/// Nearest-rank percentile: the smallest sample with at least `p` percent
/// of the samples at or below it. 0 for no samples.
pub fn percentile(xs: &[f64], p: f64) -> f64 {
    let v = sorted(xs);
    if v.is_empty() {
        return 0.0;
    }
    let rank = (p / 100.0 * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

/// Distance between the first and third quartile as a share of the
/// median — the run-to-run spread the bounds are judged against. Quartiles
/// as Python's `statistics.quantiles(xs, n=4)` computes them.
pub fn spread(xs: &[f64]) -> f64 {
    let v = sorted(xs);
    let m = median(xs);
    if v.len() < 2 || m == 0.0 {
        return 0.0;
    }
    let q = |k: usize| {
        let pos = k as f64 * (v.len() + 1) as f64 / 4.0;
        let j = (pos.floor() as usize).clamp(1, v.len() - 1);
        let frac = pos - j as f64;
        v[j - 1] + (v[j] - v[j - 1]) * frac
    };
    (q(3) - q(1)).abs() / m.abs()
}

const MAX_LISTED_SAMPLES: usize = 64;

/// Median ± MAD with range and count: no timing is reported as a bare
/// point estimate.
#[derive(Debug, Clone, PartialEq)]
pub struct Summary {
    /// The reported statistic: the median of `samples` unless the metric
    /// says otherwise (a percentile, a mean).
    pub value: f64,
    pub mad: f64,
    pub min: f64,
    pub max: f64,
    pub n: usize,
    pub samples: Vec<f64>,
}

impl Summary {
    pub fn of(samples: &[f64]) -> Summary {
        let fold = |init: f64, f: fn(f64, f64) -> f64| {
            let v = samples.iter().copied().fold(init, f);
            if v.is_finite() {
                v
            } else {
                0.0
            }
        };
        Summary {
            value: median(samples),
            mad: mad(samples),
            min: fold(f64::INFINITY, f64::min),
            max: fold(f64::NEG_INFINITY, f64::max),
            n: samples.len(),
            samples: samples.to_vec(),
        }
    }

    /// A value that is exact or was measured once.
    pub fn single(value: f64) -> Summary {
        Summary::of(&[value])
    }

    /// Another statistic than the median over `samples`.
    pub fn stat(value: f64, samples: &[f64]) -> Summary {
        Summary {
            value,
            ..Summary::of(samples)
        }
    }

    /// The summary as JSON fields. Samples are listed while there are few
    /// enough to read (every end-to-end metric; not the per-trial spans).
    pub fn to_json(&self) -> Vec<(String, Json)> {
        let mut items = vec![
            ("value".into(), Json::Num(self.value)),
            ("mad".into(), Json::Num(self.mad)),
            ("min".into(), Json::Num(self.min)),
            ("max".into(), Json::Num(self.max)),
            ("n".into(), Json::Num(self.n as f64)),
        ];
        if self.n <= MAX_LISTED_SAMPLES {
            items.push((
                "samples".into(),
                Json::Arr(self.samples.iter().map(|x| Json::Num(*x)).collect()),
            ));
        }
        items
    }

    pub fn from_json(v: &Json) -> Option<Summary> {
        let samples: Vec<f64> = v
            .get("samples")?
            .as_arr()?
            .iter()
            .filter_map(Json::as_f64)
            .collect();
        Some(Summary::stat(v.get("value")?.as_f64()?, &samples))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_and_mad() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
        // deviations from 3: 2 1 0 1 6 -> median 1
        assert_eq!(mad(&[1.0, 2.0, 3.0, 4.0, 9.0]), 1.0);
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let xs: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(percentile(&xs, 50.0), 5.0);
        assert_eq!(percentile(&xs, 90.0), 9.0);
        assert_eq!(percentile(&xs, 100.0), 10.0);
        assert_eq!(percentile(&[7.0], 90.0), 7.0);
        assert_eq!(percentile(&[], 90.0), 0.0);
    }

    #[test]
    fn spread_matches_python_quantiles() {
        // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
        let xs: Vec<f64> = (1..=10).map(f64::from).collect();
        assert!((spread(&xs) - (8.25 - 2.75) / 5.5).abs() < 1e-12);
        assert_eq!(spread(&[5.0]), 0.0);
    }

    #[test]
    fn summary_survives_json() {
        let s = Summary::stat(9.0, &[1.5, 2.5, 9.0]);
        let back = Summary::from_json(&Json::Obj(s.to_json())).unwrap();
        assert_eq!(back, s);
    }
}
