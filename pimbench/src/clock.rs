//! Host time at nominal machine speed.
//!
//! The benchmark shares its machine with other tenants, which slow it
//! down by up to 2x for seconds to minutes at a time. A fixed probe
//! kernel, written here so no change to the program under test can move
//! it, is run every [`PROBE_EVERY_S`] during a timed phase; its time over
//! [`PROBE_NOMINAL_S`] is the machine's slowdown at that moment. A timed
//! phase reports its wall time minus the probes, divided by the mean
//! slowdown they saw: host time as an unloaded machine would show it.

use std::time::Instant;

/// Probe kernel time on an unloaded core of the machine class the
/// benchmark was frozen on (2-core x86-64 VM). Only ratios to it matter.
pub const PROBE_NOMINAL_S: f64 = 0.0013;

/// Wall time between probes within a timed phase.
pub const PROBE_EVERY_S: f64 = 0.25;

/// One probe pass, seconds: integer ALU work over a 2 MiB buffer and a
/// 512 KiB sort, a memory mix like the simulator's.
pub fn probe_s() -> f64 {
    let start = Instant::now();
    let mut v: Vec<u64> = (0..262_144u64).map(|i| i.wrapping_mul(0x9E37_79B9_7F4A_7C15)).collect();
    let mut acc = 0u64;
    for r in 0..4 {
        for x in v.iter_mut() {
            *x = x.rotate_left(7) ^ r;
            acc = acc.wrapping_add(*x);
        }
    }
    v[..65_536].sort_unstable();
    std::hint::black_box((acc, &v));
    start.elapsed().as_secs_f64()
}

/// Slowdown samples taken during one timed phase.
#[derive(Debug, Clone, Default)]
pub struct Meter {
    last: Option<Instant>,
    slowdowns: Vec<f64>,
    probe_total_s: f64,
}

impl Meter {
    /// Probe now.
    pub fn probe(&mut self) {
        let s = probe_s();
        self.slowdowns.push(s / PROBE_NOMINAL_S);
        self.probe_total_s += s;
        self.last = Some(Instant::now());
    }

    /// Probe if [`PROBE_EVERY_S`] passed since the last probe.
    pub fn tick(&mut self) {
        if self.last.is_none_or(|t| t.elapsed().as_secs_f64() >= PROBE_EVERY_S) {
            self.probe();
        }
    }

    /// Mean slowdown over the probes (1 without any).
    pub fn slowdown(&self) -> f64 {
        if self.slowdowns.is_empty() {
            1.0
        } else {
            self.slowdowns.iter().sum::<f64>() / self.slowdowns.len() as f64
        }
    }

    /// Host seconds the probes took so far.
    pub fn probe_total_s(&self) -> f64 {
        self.probe_total_s
    }
}

/// Wall seconds of `f`.
pub fn time<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let start = Instant::now();
    let out = f();
    (out, start.elapsed().as_secs_f64())
}
