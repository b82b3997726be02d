//! A small wall-clock benchmarking harness with a Criterion-shaped API.
//!
//! The bench targets in `benches/` were written against Criterion; this
//! module provides the subset they use — [`Criterion`], benchmark groups,
//! [`Bencher::iter`], [`black_box`], and the [`criterion_group!`] /
//! [`criterion_main!`] macros — backed by a simple calibrate-then-sample
//! timer, so the suite runs with no external dependencies.
//!
//! Methodology: each measurement first runs the closure once to estimate
//! its cost, picks an iteration count that makes one sample take roughly
//! [`TARGET_SAMPLE_SECS`], then records `sample_size` such samples and
//! reports the median and mean per-iteration time.

use std::time::Instant;

/// Target wall-clock duration of one sample batch.
const TARGET_SAMPLE_SECS: f64 = 0.01;

/// An opaque identity function that prevents the optimiser from deleting
/// benchmarked work.
pub fn black_box<T>(x: T) -> T {
    std::hint::black_box(x)
}

/// Per-measurement statistics, also returned to callers that want the
/// numbers rather than the printed line (e.g. the scaling-threads bench).
#[derive(Debug, Clone, Copy)]
pub struct Sample {
    /// Median per-iteration seconds.
    pub median_secs: f64,
    /// Mean per-iteration seconds.
    pub mean_secs: f64,
    /// Number of samples taken.
    pub samples: usize,
}

/// Format a duration in seconds with an auto-selected unit.
pub fn fmt_time(secs: f64) -> String {
    if secs < 1e-6 {
        format!("{:.1} ns", secs * 1e9)
    } else if secs < 1e-3 {
        format!("{:.2} µs", secs * 1e6)
    } else if secs < 1.0 {
        format!("{:.2} ms", secs * 1e3)
    } else {
        format!("{secs:.3} s")
    }
}

/// Passed to benchmark closures; [`Bencher::iter`] does the timing.
pub struct Bencher {
    sample_size: usize,
    samples: Vec<f64>,
}

impl Bencher {
    /// Measure `f`, calibrating the batch size first (see module docs).
    pub fn iter<T, F: FnMut() -> T>(&mut self, mut f: F) {
        let t0 = Instant::now();
        black_box(f());
        let once = t0.elapsed().as_secs_f64().max(1e-9);
        let iters = ((TARGET_SAMPLE_SECS / once).ceil() as u64).clamp(1, 1_000_000);
        for _ in 0..self.sample_size {
            let t = Instant::now();
            for _ in 0..iters {
                black_box(f());
            }
            self.samples.push(t.elapsed().as_secs_f64() / iters as f64);
        }
    }
}

fn run_one(name: &str, sample_size: usize, f: &mut dyn FnMut(&mut Bencher)) -> Option<Sample> {
    let mut b = Bencher {
        sample_size,
        samples: Vec::new(),
    };
    f(&mut b);
    let s = b.samples;
    if s.is_empty() {
        println!("{name:<50} (no measurement)");
        return None;
    }
    let median = median(&s);
    let mean = s.iter().sum::<f64>() / s.len() as f64;
    println!(
        "{name:<50} median {:>10}   mean {:>10}   ({} samples)",
        fmt_time(median),
        fmt_time(mean),
        s.len()
    );
    Some(Sample {
        median_secs: median,
        mean_secs: mean,
        samples: s.len(),
    })
}

/// The harness entry point; mirrors Criterion's builder API.
pub struct Criterion {
    sample_size: usize,
}

impl Default for Criterion {
    fn default() -> Self {
        Criterion { sample_size: 10 }
    }
}

impl Criterion {
    /// Set the number of samples per measurement.
    pub fn sample_size(mut self, n: usize) -> Self {
        self.sample_size = n.max(2);
        self
    }

    /// Run one named measurement.
    pub fn bench_function<F: FnMut(&mut Bencher)>(&mut self, name: &str, mut f: F) -> &mut Self {
        run_one(name, self.sample_size, &mut f);
        self
    }

    /// Start a named group; measurements print as `group/name`.
    pub fn benchmark_group(&mut self, name: &str) -> BenchmarkGroup<'_> {
        let sample_size = self.sample_size;
        BenchmarkGroup {
            _parent: self,
            prefix: name.to_string(),
            sample_size,
        }
    }
}

/// A parameter tag for [`BenchmarkGroup::bench_with_input`].
pub struct BenchmarkId(String);

impl BenchmarkId {
    /// Use the parameter's `Display` form as the benchmark name.
    pub fn from_parameter<T: std::fmt::Display>(p: T) -> Self {
        BenchmarkId(p.to_string())
    }
}

/// A group of related measurements sharing a name prefix.
pub struct BenchmarkGroup<'a> {
    _parent: &'a mut Criterion,
    prefix: String,
    sample_size: usize,
}

impl BenchmarkGroup<'_> {
    /// Override the sample count for this group.
    pub fn sample_size(&mut self, n: usize) -> &mut Self {
        self.sample_size = n.max(2);
        self
    }

    /// Run one measurement within the group.
    pub fn bench_function<S: std::fmt::Display, F: FnMut(&mut Bencher)>(
        &mut self,
        name: S,
        mut f: F,
    ) -> &mut Self {
        run_one(&format!("{}/{name}", self.prefix), self.sample_size, &mut f);
        self
    }

    /// Run one measurement parameterised by `input`.
    pub fn bench_with_input<I: ?Sized, F: FnMut(&mut Bencher, &I)>(
        &mut self,
        id: BenchmarkId,
        input: &I,
        mut f: F,
    ) -> &mut Self {
        run_one(
            &format!("{}/{}", self.prefix, id.0),
            self.sample_size,
            &mut |b| f(b, input),
        );
        self
    }

    /// End the group (kept for API parity; nothing to flush).
    pub fn finish(self) {}
}

/// Time `f` once, returning its result and the elapsed wall-clock seconds.
/// For macro-benchmarks where a single cold run is the measurement.
pub fn time_once<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let t0 = Instant::now();
    let out = f();
    (out, t0.elapsed().as_secs_f64())
}

/// The lower quartile, median and upper quartile of a sample.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Quartiles {
    /// 25th percentile.
    pub q1: f64,
    /// 50th percentile.
    pub median: f64,
    /// 75th percentile.
    pub q3: f64,
}

impl Quartiles {
    /// Interquartile range, `q3 - q1`.
    pub fn iqr(&self) -> f64 {
        self.q3 - self.q1
    }
}

/// Quartiles of `xs`, each linearly interpolated between the two
/// nearest order statistics (rank `p * (n - 1)`), so an even-length
/// sample's median is the mean of its two middle values. An empty
/// sample gives NaN throughout.
pub fn quartiles(xs: &[f64]) -> Quartiles {
    let mut s = xs.to_vec();
    s.sort_by(f64::total_cmp);
    let at = |p: f64| {
        let rank = p * (s.len().saturating_sub(1)) as f64;
        let (lo, hi) = (rank.floor() as usize, rank.ceil() as usize);
        match (s.get(lo), s.get(hi)) {
            (Some(a), Some(b)) => a + (b - a) * (rank - lo as f64),
            _ => f64::NAN,
        }
    };
    Quartiles {
        q1: at(0.25),
        median: at(0.5),
        q3: at(0.75),
    }
}

/// Median of `xs` (see [`quartiles`]).
pub fn median(xs: &[f64]) -> f64 {
    quartiles(xs).median
}

/// Declare a bench group function `$name` that applies `$config` and runs
/// each target. Criterion-macro compatible.
#[macro_export]
macro_rules! criterion_group {
    (name = $name:ident; config = $config:expr; targets = $($target:path),+ $(,)?) => {
        fn $name() {
            let mut c = $config;
            $( $target(&mut c); )+
        }
    };
}

/// Declare `main` running the given bench groups.
#[macro_export]
macro_rules! criterion_main {
    ($($group:path),+ $(,)?) => {
        fn main() {
            $( $group(); )+
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bencher_collects_samples() {
        let s = run_one("test/noop", 5, &mut |b| b.iter(|| 1 + 1)).expect("samples");
        assert_eq!(s.samples, 5);
        assert!(s.median_secs >= 0.0 && s.median_secs.is_finite());
        assert!(s.mean_secs > 0.0);
    }

    #[test]
    fn time_formatting_picks_units() {
        assert!(fmt_time(3e-9).ends_with("ns"));
        assert!(fmt_time(3e-6).ends_with("µs"));
        assert!(fmt_time(3e-3).ends_with("ms"));
        assert!(fmt_time(3.0).ends_with('s'));
    }

    #[test]
    fn median_of_odd_and_even_lengths() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[7.0]), 7.0);
        assert!(median(&[]).is_nan());
    }

    #[test]
    fn quartiles_interpolate_and_give_the_iqr() {
        // odd: every quartile lands on an order statistic
        let q = quartiles(&[5.0, 1.0, 4.0, 2.0, 3.0]);
        assert_eq!((q.q1, q.median, q.q3), (2.0, 3.0, 4.0));
        assert_eq!(q.iqr(), 2.0);
        // even: ranks 0.75, 1.5 and 2.25 fall between order statistics
        let q = quartiles(&[40.0, 10.0, 30.0, 20.0]);
        assert_eq!((q.q1, q.median, q.q3), (17.5, 25.0, 32.5));
        assert_eq!(q.iqr(), 15.0);
        assert_eq!(quartiles(&[2.0, 2.0, 2.0]).iqr(), 0.0);
    }

    #[test]
    fn time_once_returns_value_and_duration() {
        let (v, secs) = time_once(|| 42);
        assert_eq!(v, 42);
        assert!(secs >= 0.0);
    }
}
