//! Host-speed normalisation.
//!
//! On a small shared host the speed of the whole machine drifts by tens
//! of percent over seconds to minutes, and every timing of a run moves
//! with it: a pure in-process computation as much as an HTTP round trip.
//! No statistic over the program's own samples can tell that drift from
//! a change in the program. So the benchmark times a fixed calibration
//! kernel — a pointer chase through a table sized for the second-level
//! cache, a sort and a `PoiBin`-like convolution, none of it program
//! code — between operations throughout the run, and scales every
//! timing of the run by [`REFERENCE_US`] divided by the kernel's median
//! time over the run. The figures read as times on a host where the
//! kernel takes [`REFERENCE_US`]; the raw figures, the factor and the
//! kernel's median in each phase are printed as diagnostics.
//!
//! One factor per run, not per phase: the kernel tracks the host's speed
//! from run to run closely, but within a short phase it swings more than
//! the program does, so a per-phase factor would add noise.

use crate::stats::{self, us};
use std::hint::black_box;
use std::time::{Duration, Instant};

/// The kernel's time on the reference host, in microseconds.
pub const REFERENCE_US: f64 = 40.0;
/// Kernel runs are spaced at least this far apart within a phase.
const EVERY: Duration = Duration::from_millis(10);
/// At most this many kernel runs make up for one long gap.
const CATCH_UP: usize = 8;
/// Pointer-chase table: 2¹⁶ entries of 4 bytes, 256 KiB.
const CHASE: usize = 1 << 16;
const CHASE_STEPS: usize = 4096;
const SORT_KEYS: usize = 512;
const PMF: usize = 256;
const RATES: usize = 96;

fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

pub struct HostSpeed {
    /// One cycle through every slot (Sattolo), so the chase never
    /// settles into a short loop.
    chase: Vec<u32>,
    keys: Vec<u64>,
    sorted: Vec<u64>,
    rates: Vec<f64>,
    pmf: Vec<f64>,
    /// Kernel times (µs) of the current phase.
    phase: Vec<f64>,
    /// Kernel times (µs) of the closed phases.
    run: Vec<f64>,
    last: Instant,
}

/// The calibration of one phase or of the whole run.
#[derive(Debug, Clone, Copy)]
pub struct Factor {
    /// The kernel's median time, in microseconds.
    pub kernel_us: f64,
    pub runs: usize,
}

impl Factor {
    /// Multiplies a raw timing into reference-host time.
    pub fn scale(self) -> f64 {
        REFERENCE_US / self.kernel_us
    }
}

impl HostSpeed {
    pub fn new() -> Self {
        let mut state = 0x2545_f491_4f6c_dd1d;
        let mut chase: Vec<u32> = (0..CHASE as u32).collect();
        for i in (1..CHASE).rev() {
            let j = (splitmix(&mut state) % i as u64) as usize;
            chase.swap(i, j);
        }
        let keys = (0..SORT_KEYS).map(|_| splitmix(&mut state)).collect();
        let rates = (0..RATES).map(|_| (splitmix(&mut state) >> 11) as f64 / (1u64 << 53) as f64);
        let mut speed = Self {
            chase,
            keys,
            sorted: Vec::with_capacity(SORT_KEYS),
            rates: rates.collect(),
            pmf: vec![0.0; PMF],
            phase: Vec::new(),
            run: Vec::new(),
            last: Instant::now(),
        };
        speed.kernel();
        speed
    }

    /// One kernel run, in microseconds.
    fn kernel(&mut self) -> f64 {
        let started = Instant::now();
        let mut at = 0u32;
        for _ in 0..CHASE_STEPS {
            at = self.chase[at as usize];
        }
        black_box(at);
        self.sorted.clear();
        self.sorted.extend_from_slice(&self.keys);
        self.sorted.sort_unstable();
        black_box(&self.sorted);
        self.pmf.fill(0.0);
        self.pmf[0] = 1.0;
        for (n, &q) in self.rates.iter().enumerate() {
            let top = (n + 1).min(PMF - 1);
            for i in (1..=top).rev() {
                self.pmf[i] = self.pmf[i] * (1.0 - q) + self.pmf[i - 1] * q;
            }
            self.pmf[0] *= 1.0 - q;
        }
        black_box(&self.pmf);
        us(started.elapsed())
    }

    /// Times the kernel `n` times now. Each timed run follows an
    /// untimed one, so the program's use of the caches and branch
    /// predictors since the last sample does not show in the figure.
    pub fn sample(&mut self, n: usize) {
        for _ in 0..n {
            self.kernel();
            let took = self.kernel();
            self.phase.push(took);
        }
        self.last = Instant::now();
    }

    /// Runs the kernel if [`EVERY`] has passed since the last run: once
    /// per elapsed `EVERY`, up to [`CATCH_UP`] times.
    pub fn tick(&mut self) {
        let gap = self.last.elapsed();
        if gap >= EVERY {
            let owed = (gap.as_nanos() / EVERY.as_nanos()) as usize;
            self.sample(owed.clamp(1, CATCH_UP));
        }
    }

    /// Like [`tick`](Self::tick), but only when the kernel would end
    /// well before `due`, so an open loop never sends late for it.
    pub fn tick_before(&mut self, due: Instant) {
        const SLACK: Duration = Duration::from_micros(500);
        if due.saturating_duration_since(Instant::now()) > SLACK && self.last.elapsed() >= EVERY {
            self.sample(1);
        }
    }

    /// Closes the current phase and returns its calibration.
    pub fn finish(&mut self) -> Factor {
        if self.phase.is_empty() {
            self.sample(8);
        }
        let factor = median_factor(&mut self.phase);
        self.run.append(&mut self.phase);
        self.last = Instant::now();
        factor
    }

    /// The calibration of every closed phase together.
    pub fn whole_run(&mut self) -> Factor {
        median_factor(&mut self.run)
    }
}

fn median_factor(kernel_us: &mut [f64]) -> Factor {
    Factor {
        kernel_us: stats::median(kernel_us).expect("the kernel has run"),
        runs: kernel_us.len(),
    }
}
