//! Offline stand-in for the `criterion` crate.
//!
//! Implements the benchmark-definition surface this workspace's benches
//! use (`Criterion`, `benchmark_group`, `bench_function`,
//! `bench_with_input`, `BenchmarkId`, `criterion_group!`,
//! `criterion_main!`) over a simple wall-clock harness: each benchmark is
//! warmed up briefly, then timed over a fixed number of samples, and the
//! median/min per-iteration times are printed. No statistics, plots or
//! baselines — just enough to keep `cargo bench` meaningful offline. As
//! with criterion, a command-line argument filters the benchmarks by
//! substring (`cargo bench --bench hot_paths -- delta_apply`); a group's
//! setup code still runs, only the timing is skipped.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::fmt::Display;
use std::time::{Duration, Instant};

pub use std::hint::black_box;

/// The benchmark driver.
#[derive(Debug)]
pub struct Criterion {
    sample_size: usize,
    /// Only benchmarks whose full name contains this run.
    filter: Option<String>,
}

impl Default for Criterion {
    fn default() -> Self {
        Criterion {
            sample_size: 30,
            filter: std::env::args().skip(1).find(|arg| !arg.starts_with('-')),
        }
    }
}

impl Criterion {
    /// Opens a named group of related benchmarks.
    pub fn benchmark_group(&mut self, name: impl Into<String>) -> BenchmarkGroup<'_> {
        let name = name.into();
        eprintln!("group {name}");
        BenchmarkGroup {
            criterion: self,
            name,
            sample_size: 30,
        }
    }

    /// Runs a single stand-alone benchmark.
    pub fn bench_function<F>(&mut self, name: &str, mut f: F) -> &mut Self
    where
        F: FnMut(&mut Bencher),
    {
        if self.selects(name) {
            run_benchmark(name, self.sample_size, &mut f);
        }
        self
    }

    fn selects(&self, name: &str) -> bool {
        self.filter
            .as_ref()
            .is_none_or(|filter| name.contains(filter))
    }
}

/// A group of related benchmarks (prefix shared in the report).
#[derive(Debug)]
pub struct BenchmarkGroup<'a> {
    criterion: &'a mut Criterion,
    name: String,
    sample_size: usize,
}

impl BenchmarkGroup<'_> {
    /// Sets the number of timed samples per benchmark.
    pub fn sample_size(&mut self, n: usize) -> &mut Self {
        self.sample_size = n.max(1);
        self
    }

    /// Runs a benchmark in this group.
    pub fn bench_function<F>(&mut self, id: impl Into<BenchmarkId>, mut f: F) -> &mut Self
    where
        F: FnMut(&mut Bencher),
    {
        let name = format!("{}/{}", self.name, id.into().id);
        if self.criterion.selects(&name) {
            run_benchmark(&name, self.sample_size, &mut f);
        }
        self
    }

    /// Runs a benchmark that borrows a prepared input.
    pub fn bench_with_input<I: ?Sized, F>(
        &mut self,
        id: impl Into<BenchmarkId>,
        input: &I,
        mut f: F,
    ) -> &mut Self
    where
        F: FnMut(&mut Bencher, &I),
    {
        let name = format!("{}/{}", self.name, id.into().id);
        if self.criterion.selects(&name) {
            run_benchmark(&name, self.sample_size, &mut |b| f(b, input));
        }
        self
    }

    /// Ends the group.
    pub fn finish(self) {}
}

/// A benchmark identifier (`function_name/parameter`).
#[derive(Debug, Clone)]
pub struct BenchmarkId {
    id: String,
}

impl BenchmarkId {
    /// An ID with a function name and a parameter.
    pub fn new(function_name: impl Into<String>, parameter: impl Display) -> Self {
        BenchmarkId {
            id: format!("{}/{}", function_name.into(), parameter),
        }
    }

    /// An ID from the parameter alone.
    pub fn from_parameter(parameter: impl Display) -> Self {
        BenchmarkId {
            id: parameter.to_string(),
        }
    }
}

impl From<&str> for BenchmarkId {
    fn from(s: &str) -> Self {
        BenchmarkId { id: s.to_owned() }
    }
}

impl From<String> for BenchmarkId {
    fn from(s: String) -> Self {
        BenchmarkId { id: s }
    }
}

/// Timing context passed to the benchmark closure.
#[derive(Debug, Default)]
pub struct Bencher {
    samples: Vec<Duration>,
    iters_per_sample: u32,
}

impl Bencher {
    /// Times `f`, recording one sample per call batch.
    pub fn iter<O, F: FnMut() -> O>(&mut self, mut f: F) {
        // Calibrate: aim for ≥ ~1ms per sample so timer noise stays small.
        let start = Instant::now();
        black_box(f());
        let once = start.elapsed().max(Duration::from_nanos(1));
        let iters = (Duration::from_millis(1).as_nanos() / once.as_nanos()).clamp(1, 10_000) as u32;
        self.iters_per_sample = iters;
        let start = Instant::now();
        for _ in 0..iters {
            black_box(f());
        }
        self.samples.push(start.elapsed());
    }
}

fn run_benchmark<F: FnMut(&mut Bencher)>(name: &str, sample_size: usize, f: &mut F) {
    let mut b = Bencher::default();
    for _ in 0..sample_size {
        f(&mut b);
    }
    if b.samples.is_empty() {
        eprintln!("  {name}: no samples recorded");
        return;
    }
    let mut per_iter: Vec<f64> = b
        .samples
        .iter()
        .map(|d| d.as_secs_f64() / b.iters_per_sample.max(1) as f64)
        .collect();
    per_iter.sort_by(f64::total_cmp);
    let median = per_iter[per_iter.len() / 2];
    let min = per_iter[0];
    eprintln!(
        "  {name}: median {} / min {} ({} samples × {} iters)",
        fmt_time(median),
        fmt_time(min),
        per_iter.len(),
        b.iters_per_sample
    );
}

fn fmt_time(seconds: f64) -> String {
    if seconds >= 1.0 {
        format!("{seconds:.3} s")
    } else if seconds >= 1e-3 {
        format!("{:.3} ms", seconds * 1e3)
    } else if seconds >= 1e-6 {
        format!("{:.3} µs", seconds * 1e6)
    } else {
        format!("{:.1} ns", seconds * 1e9)
    }
}

/// Bundles benchmark functions into a runnable group function.
#[macro_export]
macro_rules! criterion_group {
    ($name:ident, $($target:path),+ $(,)?) => {
        pub fn $name() {
            let mut criterion = $crate::Criterion::default();
            $($target(&mut criterion);)+
        }
    };
}

/// Generates `main` running the given groups.
#[macro_export]
macro_rules! criterion_main {
    ($($group:path),+ $(,)?) => {
        fn main() {
            $($group();)+
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn harness_runs_and_reports() {
        let mut c = Criterion::default();
        let mut group = c.benchmark_group("smoke");
        group.sample_size(3);
        group.bench_function("add", |b| b.iter(|| black_box(1u64) + black_box(2u64)));
        group.bench_with_input(BenchmarkId::new("sum", 8), &8u64, |b, n| {
            b.iter(|| (0..*n).sum::<u64>())
        });
        group.finish();
        c.bench_function("standalone", |b| b.iter(|| black_box(3u32) * 7));
    }
}
