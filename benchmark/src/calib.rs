//! Host-speed calibration for the end-to-end timings.
//!
//! The benchmark runs on cores shared with other guests, whose vector work
//! competes with ours for the same execution units. On a 2-vCPU host the
//! same 16 training steps took 16 ms in one run and 25 ms in another, with
//! the slow stretches lasting seconds to minutes, so no statistic inside
//! one run could tell a slower program from a busier machine.
//!
//! A fixed probe, a small dense matrix product that lives in L1 and keeps
//! the vector units busy like the workloads' own kernels do, slows down
//! with them. A [`Meter`] cuts a measurement into blocks of about
//! [`BLOCK_S`], times the probe between blocks, and scales each block by
//! [`REFERENCE_S`] ÷ the probe's time next to it: the result is the time
//! the work would have taken at the probe's reference speed. Across runs
//! of the same code, scaled block times spread about a tenth as much as
//! raw ones (see the README). The probe is this package's own code, so no
//! change to the crates can speed it up or slow it down.

use std::hint::black_box;
use std::time::Instant;

/// Side of the probe's square matrices: three of them take 27 KiB.
const N: usize = 48;

/// Products per probe: 0.16 ms at the reference speed, against blocks of
/// [`BLOCK_S`].
const REPS: usize = 20;

/// The probe's time on an idle core of the reference host, a 2.1 GHz
/// Xeon vCPU, built with the repository's `x86-64-v3` target.
pub const REFERENCE_S: f64 = 160e-6;

/// Length a [`Meter`] lets a block run before it times the probe.
pub const BLOCK_S: f64 = 0.02;

/// The calibration probe.
pub struct Probe {
    a: Box<[f32; N * N]>,
    b: Box<[f32; N * N]>,
    c: Box<[f32; N * N]>,
}

impl Probe {
    pub fn new() -> Self {
        // Entries in [0.5, 1.5]: no denormals, no overflow.
        let fill = |f: fn(f32) -> f32| Box::new(std::array::from_fn(|i| 1.0 + 0.5 * f(i as f32)));
        Self {
            a: fill(|x| (x * 0.37).sin()),
            b: fill(|x| (x * 0.11).cos()),
            c: Box::new([0.0; N * N]),
        }
    }

    /// Seconds one run of the probe takes now.
    #[inline(never)]
    pub fn time(&mut self) -> f64 {
        let t0 = Instant::now();
        for _ in 0..REPS {
            let (a, b) = (black_box(&*self.a), &*self.b);
            let c = &mut *self.c;
            c.fill(0.0);
            for i in 0..N {
                for k in 0..N {
                    let aik = a[i * N + k];
                    for j in 0..N {
                        c[i * N + j] += aik * b[k * N + j];
                    }
                }
            }
            black_box(&mut *c);
        }
        t0.elapsed().as_secs_f64()
    }
}

/// Raw and reference-speed seconds of one measurement.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Scaled {
    /// Wall-clock seconds, probes excluded.
    pub raw_s: f64,
    /// The same blocks at the probe's reference speed.
    pub ref_s: f64,
}

impl Scaled {
    /// Reference-speed seconds per wall-clock second: about 1 on an idle
    /// reference host, below 1 on a busier or slower one.
    pub fn factor(&self) -> f64 {
        if self.raw_s > 0.0 {
            self.ref_s / self.raw_s
        } else {
            1.0
        }
    }
}

/// `xs`' raw and reference-speed seconds, for a note line.
pub fn note(xs: &[Scaled]) -> String {
    let raw: Vec<f64> = xs.iter().map(|s| s.raw_s).collect();
    let scaled: Vec<f64> = xs.iter().map(|s| s.ref_s).collect();
    format!("raw {} ref {}", crate::list(&raw), crate::list(&scaled))
}

/// Times work in probe-calibrated blocks. A disabled meter (traced runs,
/// whose spans are raw) does nothing and reports zeros.
pub struct Meter {
    enabled: bool,
    probe: Probe,
    /// The probe's time at the start of the open block.
    last_probe_s: f64,
    open: Instant,
    total: Scaled,
}

impl Meter {
    pub fn new(enabled: bool) -> Self {
        let mut probe = Probe::new();
        let last_probe_s = if enabled { probe.time() } else { 0.0 };
        Self {
            enabled,
            probe,
            last_probe_s,
            open: Instant::now(),
            total: Scaled::default(),
        }
    }

    /// Starts a measurement: zeroes its totals and opens a block.
    pub fn start(&mut self) {
        self.total = Scaled::default();
        self.open = Instant::now();
    }

    /// Closes the open block once it has run [`BLOCK_S`]; call it between
    /// units of work.
    pub fn tick(&mut self) {
        if self.enabled && self.open.elapsed().as_secs_f64() >= BLOCK_S {
            self.split();
        }
    }

    /// Closes the open block now, times the probe and opens the next block.
    /// The block is scaled by the faster of the probes on either side of
    /// it: a probe that was itself interrupted only reads slow.
    pub fn split(&mut self) {
        if !self.enabled {
            return;
        }
        let raw = self.open.elapsed().as_secs_f64();
        let probe = self.probe.time();
        self.total.raw_s += raw;
        self.total.ref_s += raw * REFERENCE_S / probe.min(self.last_probe_s);
        self.last_probe_s = probe;
        self.open = Instant::now();
    }

    /// Closes the last block and returns the measurement's totals.
    pub fn stop(&mut self) -> Scaled {
        self.split();
        self.total
    }

    /// Measures `work` as one block.
    pub fn time<T>(&mut self, work: impl FnOnce() -> T) -> (T, Scaled) {
        self.start();
        let out = work();
        (out, self.stop())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn probe_is_deterministic_and_takes_time() {
        let mut p = Probe::new();
        assert!(p.time() > 0.0);
        let first = *p.c;
        p.time();
        assert_eq!(first.map(f32::to_bits), p.c.map(f32::to_bits));
        assert!(first.iter().all(|x| x.is_finite() && *x > 0.0));
    }

    #[test]
    fn meter_scales_every_block_and_excludes_probes() {
        let mut m = Meter::new(true);
        m.start();
        let t0 = Instant::now();
        for _ in 0..3 {
            std::thread::sleep(std::time::Duration::from_millis(8));
            m.tick();
        }
        let s = m.stop();
        assert!(s.raw_s > 0.02 && s.raw_s <= t0.elapsed().as_secs_f64());
        assert!(s.ref_s > 0.0 && s.factor() > 0.0);
    }

    #[test]
    fn disabled_meter_reports_zero() {
        let mut m = Meter::new(false);
        let (v, s) = m.time(|| 7);
        assert_eq!((v, s), (7, Scaled::default()));
        assert_eq!(s.factor(), 1.0);
    }
}
