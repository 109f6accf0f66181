//! What every workload shares: sub-seed derivation, the repeated set-up
//! timer, the closed-loop timed region and the result a run hands back.

use std::collections::BTreeMap;
use std::hint::black_box;
use std::time::{Duration, Instant};

use crate::span::Tracer;
use crate::stats;

/// Derives an independent sub-seed for `stream` (splitmix64 finalizer).
pub fn sub_seed(seed: u64, stream: u64) -> u64 {
    let mut z = seed
        .wrapping_add(stream.wrapping_mul(0x9E37_79B9_7F4A_7C15))
        .wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// `k` distinct indices below `n`, drawn from `seed` (needs `k` ≤ `n`).
pub fn pick_distinct(n: usize, k: usize, seed: u64) -> Vec<usize> {
    assert!(k <= n, "cannot draw {k} distinct indices below {n}");
    let mut picked = Vec::with_capacity(k);
    let mut stream = 0;
    while picked.len() < k {
        let x = (sub_seed(seed, stream) % n as u64) as usize;
        stream += 1;
        if !picked.contains(&x) {
            picked.push(x);
        }
    }
    picked
}

/// Set-up time, sampled before and after the timed region so that a
/// slow spell of the machine does not colour every sample.
pub struct SetupClock {
    samples: Vec<f64>,
    started: Instant,
}

impl SetupClock {
    /// Starts timing the set-up whose result the run keeps.
    pub fn start() -> Self {
        SetupClock {
            samples: Vec::new(),
            started: Instant::now(),
        }
    }

    /// The kept set-up is done.
    pub fn stop(&mut self) {
        self.samples.push(self.started.elapsed().as_secs_f64());
    }

    /// Repeats `setup` at least twice and for a quarter second in total
    /// (at most 32 times).
    pub fn sample(&mut self, setup: impl Fn()) {
        let (mut reps, mut total) = (0, 0.0);
        while reps < 32 && (reps < 2 || total < 0.25) {
            let t = Instant::now();
            setup();
            let s = t.elapsed().as_secs_f64();
            self.samples.push(s);
            total += s;
            reps += 1;
        }
    }

    pub fn median_s(&self) -> f64 {
        stats::median(&self.samples).expect("the kept set-up was timed")
    }
}

/// One execution of one unit of work in the timed region.
#[derive(Debug, Clone, Copy)]
pub struct UnitRun {
    pub unit: usize,
    pub traced: bool,
    pub wall_s: f64,
}

/// Outcome of the timed region.
pub struct Timed<R> {
    /// Result of every unit's first execution, in unit order.
    pub first: Vec<R>,
    pub runs: Vec<UnitRun>,
    /// Later executions whose result differed from the unit's first:
    /// the determinism gate (sim-time results identical across reps,
    /// and identical with tracing on and off).
    pub mismatches: usize,
    pub repeats: usize,
    /// `VmHWM` when the first pass ended. Later passes fragment the heap
    /// a little more each, so the peak at exit would depend on how many
    /// repeats the time budget allowed.
    pub first_pass_rss_mb: f64,
}

impl<R> Timed<R> {
    /// Wall seconds of every untraced execution, with its unit.
    pub fn plain_runs(&self) -> impl Iterator<Item = &UnitRun> {
        self.runs.iter().filter(|r| !r.traced)
    }

    /// Median over untraced executions of `ops(unit) / wall`, skipping
    /// units that did no countable work.
    pub fn median_rate(&self, ops: impl Fn(usize) -> f64) -> Option<f64> {
        let rates: Vec<f64> = self
            .plain_runs()
            .filter(|r| ops(r.unit) > 0.0)
            .map(|r| ops(r.unit) / r.wall_s)
            .collect();
        stats::median(&rates)
    }

    /// Traced ÷ untraced wall over the units that ran both ways.
    pub fn trace_overhead(&self) -> Option<f64> {
        let mut plain: BTreeMap<usize, Vec<f64>> = BTreeMap::new();
        let mut traced: BTreeMap<usize, Vec<f64>> = BTreeMap::new();
        for r in &self.runs {
            let side = if r.traced { &mut traced } else { &mut plain };
            side.entry(r.unit).or_default().push(r.wall_s);
        }
        let (mut t_sum, mut p_sum) = (0.0, 0.0);
        for (unit, t) in &traced {
            if let Some(p) = plain.get(unit) {
                t_sum += stats::median(t).expect("non-empty");
                p_sum += stats::median(p).expect("non-empty");
            }
        }
        (p_sum > 0.0).then(|| t_sum / p_sum)
    }
}

/// The closed-loop timed region (`run(unit, pass, tracer)`): one caller, the next unit starts when
/// the previous returns. Every unit runs once (the first pass, which the
/// sim-time metrics are computed from, so they depend on the seed alone);
/// then units repeat in order until `seconds` have elapsed, giving more
/// host-time samples and checking that results repeat.
///
/// With `tracer` enabled the first pass is traced, and every
/// `pair_every`-th unit additionally runs untraced next to its traced
/// execution (order alternating) so the two can be compared.
pub fn timed_region<R: PartialEq>(
    units: usize,
    seconds: f64,
    pair_every: usize,
    tracer: &mut Tracer,
    mut run: impl FnMut(usize, u32, &mut Tracer) -> R,
) -> Timed<R> {
    assert!(units > 0 && pair_every > 0);
    let tracing = tracer.is_enabled();
    let mut out = Timed {
        first: Vec::with_capacity(units),
        runs: Vec::new(),
        mismatches: 0,
        repeats: 0,
        first_pass_rss_mb: 0.0,
    };
    let start = Instant::now();
    let mut i = 0;
    while i < units || start.elapsed().as_secs_f64() < seconds {
        let unit = i % units;
        let pass = (i / units) as u32;
        let paired = tracing && unit.is_multiple_of(pair_every);
        // Alternate which side of a pair runs first, so neither always
        // finds the caches warm.
        let traced_first = (unit / pair_every + pass as usize).is_multiple_of(2);
        let sides: &[bool] = match (tracing, paired, traced_first) {
            (false, _, _) => &[false],
            (true, false, _) => &[true],
            (true, true, true) => &[true, false],
            (true, true, false) => &[false, true],
        };
        for &traced in sides {
            tracer.set_enabled(traced);
            tracer.label(pass, unit as u32);
            let t = Instant::now();
            let result = black_box(run(unit, pass, tracer));
            out.runs.push(UnitRun {
                unit,
                traced,
                wall_s: t.elapsed().as_secs_f64(),
            });
            if out.first.len() == unit {
                out.first.push(result);
            } else {
                out.repeats += 1;
                if result != out.first[unit] {
                    out.mismatches += 1;
                }
            }
        }
        i += 1;
        if i == units {
            out.first_pass_rss_mb = peak_rss_mb();
        }
    }
    tracer.set_enabled(tracing);
    out
}

/// Median nanoseconds per call of `op`: calibrates a batch to about a
/// quarter millisecond, then times batches until `budget` is spent.
pub fn bench_ns(budget: Duration, mut op: impl FnMut()) -> f64 {
    let mut iters = 1u64;
    loop {
        let t = Instant::now();
        for _ in 0..iters {
            op();
        }
        if t.elapsed() >= Duration::from_micros(250) || iters >= 1 << 20 {
            break;
        }
        iters *= 2;
    }
    let mut samples = Vec::new();
    let start = Instant::now();
    while samples.len() < 5 || (start.elapsed() < budget && samples.len() < 4096) {
        let t = Instant::now();
        for _ in 0..iters {
            op();
        }
        samples.push(t.elapsed().as_nanos() as f64 / iters as f64);
    }
    stats::median(&samples).expect("at least five samples")
}

/// `VmHWM` of this process in MiB.
fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// One named pass/fail check of a workload's outputs.
#[derive(Debug, Clone)]
pub struct Gate {
    pub name: &'static str,
    pub pass: bool,
    pub detail: String,
}

/// Ledger values by metric name; `None` means the workload does not
/// produce the metric.
pub type Ledger = BTreeMap<&'static str, Option<f64>>;

/// What one run of one workload produced.
pub struct RunResult {
    pub attempted: u64,
    pub failed: u64,
    pub gates: Vec<Gate>,
    /// Sizes the run used: cases, groups, units, reps.
    pub counts: Vec<(&'static str, u64)>,
    pub setup_s: f64,
    pub ops_per_s: f64,
    /// Sim-clock outcomes and counts from the first pass, and in a
    /// traced run the per-layer costs.
    pub ledger: Ledger,
    /// Every execution in the timed region and the operations each unit
    /// stands for: the raw samples behind `ops_per_s`.
    pub unit_runs: Vec<UnitRun>,
    pub unit_ops: Vec<f64>,
}

impl RunResult {
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.gates.iter().all(|g| g.pass)
    }
}

pub fn gate(name: &'static str, pass: bool, detail: impl Into<String>) -> Gate {
    Gate {
        name,
        pass,
        detail: detail.into(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sub_seeds_differ_by_stream_and_repeat() {
        assert_eq!(sub_seed(1, 2), sub_seed(1, 2));
        assert_ne!(sub_seed(1, 2), sub_seed(1, 3));
        assert_ne!(sub_seed(1, 2), sub_seed(2, 2));
    }

    #[test]
    fn pick_distinct_draws_without_repeats() {
        let a = pick_distinct(10, 10, 5);
        let mut sorted = a.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..10).collect::<Vec<_>>());
        assert_eq!(a, pick_distinct(10, 10, 5));
        assert_ne!(pick_distinct(4000, 31, 1), pick_distinct(4000, 31, 2));
    }

    #[test]
    fn timed_region_runs_every_unit_once_then_repeats() {
        let mut tracer = Tracer::new(false);
        let t = timed_region(3, 0.0, 1, &mut tracer, |u, _, _| u * 10);
        assert_eq!(t.first, vec![0, 10, 20]);
        assert_eq!(t.runs.len(), 3);
        assert_eq!((t.repeats, t.mismatches), (0, 0));
        assert!(t.trace_overhead().is_none());
    }

    #[test]
    fn timed_region_flags_results_that_do_not_repeat() {
        let mut tracer = Tracer::new(false);
        let mut calls = 0;
        let t = timed_region(2, 0.02, 1, &mut tracer, |u, _, _| {
            calls += 1;
            if calls == 4 {
                99
            } else {
                u
            }
        });
        assert!(t.repeats >= 2);
        assert_eq!(t.mismatches, 1);
    }

    #[test]
    fn traced_region_pairs_units_and_prices_tracing() {
        let mut tracer = Tracer::new(true);
        let t = timed_region(4, 0.0, 2, &mut tracer, |u, _, tr| {
            tr.call("net.x", || std::thread::sleep(Duration::from_millis(1)));
            u
        });
        // Units 0 and 2 ran both ways, 1 and 3 traced only.
        assert_eq!(t.runs.len(), 6);
        assert_eq!(t.plain_runs().count(), 2);
        assert_eq!(t.mismatches, 0);
        assert!(t.trace_overhead().is_some());
        assert!(tracer.is_enabled());
        assert_eq!(tracer.spans().len(), 4);
    }

    #[test]
    fn median_rate_skips_idle_units() {
        let run = |unit, traced, wall_s| UnitRun {
            unit,
            traced,
            wall_s,
        };
        let t = Timed::<u8> {
            first: vec![],
            runs: vec![run(0, false, 2.0), run(1, false, 0.001), run(0, true, 9.0)],
            mismatches: 0,
            repeats: 0,
            first_pass_rss_mb: 0.0,
        };
        assert_eq!(
            t.median_rate(|u| if u == 0 { 10.0 } else { 0.0 }),
            Some(5.0)
        );
    }
}
