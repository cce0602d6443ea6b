//! What every workload shares: run options, repeated set-up, and the rule
//! that decides how many timed segments a run measures.

use std::time::Instant;

use crate::affinity::CpuRotation;
use crate::stats;

/// Options of one workload run.
#[derive(Clone, Copy, Debug)]
pub struct Opts {
    /// Seed every input of the workload is generated from.
    pub seed: u64,
    /// Keep measuring segments until this much timed work is done (the
    /// fixed-size prefix always runs in full).
    pub seconds: f64,
    /// Test scale: a shorter prefix and one set-up.
    pub quick: bool,
}

/// Set-ups at least, and the time they may take before the count stops
/// growing: many short set-ups give a steady statistic, and a long
/// set-up still gets three samples.
const SETUP_MIN_REPS: usize = 3;
const SETUP_BUDGET_S: f64 = 0.25;
const SETUP_MAX_REPS: usize = 100_000;

/// Run `make` several times, each timed on its own with the previous
/// result already dropped. Set-ups run in blocks of about a quarter of the
/// time budget, each block on the next CPU of a rotation, so that short
/// set-ups run with warm caches and a long one still visits every CPU.
/// Returns the last result, the fastest decile of the times (see
/// [`stats::p10`]) and the number of set-ups.
pub fn repeated_setup<T>(quick: bool, mut make: impl FnMut() -> T) -> (T, f64, usize) {
    let mut cpus = CpuRotation::new();
    let mut times: Vec<f64> = Vec::new();
    let mut block = f64::INFINITY;
    let mut last: Option<T> = None;
    loop {
        drop(last.take());
        if block >= SETUP_BUDGET_S / 4.0 {
            cpus.advance();
            block = 0.0;
        }
        let t = Instant::now();
        let built = make();
        let secs = t.elapsed().as_secs_f64();
        times.push(secs);
        block += secs;
        last = Some(built);
        let spent: f64 = times.iter().sum();
        let enough = quick
            || times.len() >= SETUP_MAX_REPS
            || (times.len() >= SETUP_MIN_REPS && spent >= SETUP_BUDGET_S);
        if enough {
            let n = times.len();
            return (last.expect("built above"), stats::p10(&times), n);
        }
    }
}

/// How many segments a run measures: all of the fixed prefix, then more
/// until the time budget is spent, never more than the workload's inputs
/// cover. Each segment runs on the next CPU of a [`CpuRotation`].
pub struct Budget {
    min: u64,
    max: u64,
    seconds: f64,
    start: Instant,
    cpus: CpuRotation,
}

impl Budget {
    /// Start the clock for a run of at least `min` and at most `max`
    /// segments.
    pub fn new(min: u64, max: u64, opts: &Opts) -> Self {
        Budget {
            min,
            max: max.max(min),
            seconds: opts.seconds,
            start: Instant::now(),
            cpus: CpuRotation::new(),
        }
    }

    /// Whether to measure another segment after `done`; `may_stop` is
    /// false while the run is not at a point it may end at. Moves to the
    /// next CPU when the answer is yes.
    pub fn next_segment(&mut self, done: u64, may_stop: bool) -> bool {
        let more = done < self.min
            || !may_stop
            || (done < self.max && self.start.elapsed().as_secs_f64() < self.seconds);
        if more {
            self.cpus.advance();
        }
        more
    }
}

/// `num / den`, or 0 when `den` is 0.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}
