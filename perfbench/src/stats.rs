//! Summary statistics and process readings.

/// Median, quartiles and sample count of repeated measurements.
#[derive(Debug, Clone, Copy)]
pub struct Spread {
    /// First quartile.
    pub q1: f64,
    /// Median.
    pub median: f64,
    /// Third quartile.
    pub q3: f64,
    /// Number of samples.
    pub n: usize,
}

impl Spread {
    /// Quartiles by the same method as Python's
    /// `statistics.quantiles(values, n=4)` (the "exclusive" method); with
    /// fewer than two samples every field is the one value (or 0).
    pub fn of(values: &[f64]) -> Spread {
        let mut v = values.to_vec();
        v.sort_by(f64::total_cmp);
        let n = v.len();
        if n < 2 {
            let x = v.first().copied().unwrap_or(0.0);
            return Spread { q1: x, median: x, q3: x, n };
        }
        let cut = |i: usize| {
            let m = n + 1;
            let j = (i * m / 4).clamp(1, n - 1);
            let delta = (i * m) as f64 / 4.0 - j as f64;
            v[j - 1] + delta * (v[j] - v[j - 1])
        };
        let median = if n % 2 == 1 { v[n / 2] } else { (v[n / 2 - 1] + v[n / 2]) / 2.0 };
        Spread { q1: cut(1), median, q3: cut(3), n }
    }

    /// The spread as text.
    pub fn text(&self) -> String {
        format!("median of n = {}, quartiles {:.6} .. {:.6}", self.n, self.q1, self.q3)
    }

    /// The spread as JSON.
    pub fn json(&self) -> String {
        format!(
            "{{\"median\": {}, \"q1\": {}, \"q3\": {}, \"n\": {}}}",
            self.median, self.q1, self.q3, self.n
        )
    }
}

/// The median of `values` (0 for none).
pub fn median(values: &[f64]) -> f64 {
    Spread::of(values).median
}

/// The process's high-water resident set, in MB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// User plus system CPU seconds the process has used, threads that have
/// exited included.
pub fn cpu_seconds() -> f64 {
    // `/proc` reports these in USER_HZ ticks, which Linux fixes at 100.
    const TICKS_PER_SEC: f64 = 100.0;
    let stat = std::fs::read_to_string("/proc/self/stat").unwrap_or_default();
    // Fields after the parenthesised command name; utime and stime are the
    // 14th and 15th fields of the whole line.
    let rest = stat.rsplit_once(')').map_or("", |(_, r)| r);
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let tick = |i: usize| fields.get(i).and_then(|f| f.parse::<f64>().ok()).unwrap_or(0.0);
    (tick(11) + tick(12)) / TICKS_PER_SEC
}

/// Probe seconds on the reference machine: wall metrics are quoted as if
/// the probe had taken this long.
pub const PROBE_REF_S: f64 = 0.025;

/// Wall seconds of a fixed amount of synthetic work written in this file
/// alone, so no change to the program moves it: hash-map churn with small
/// allocations, a sort and a floating-point recurrence, the instruction
/// mix of the serving path.
fn speed_probe() -> f64 {
    use std::collections::HashMap;
    use std::hint::black_box;
    let t = std::time::Instant::now();
    let mut map: HashMap<u64, Vec<u64>> = HashMap::new();
    let mut x = 0x9e37_79b9_7f4a_7c15u64;
    let mut acc = 0.0f64;
    let mut keys = Vec::with_capacity(256);
    for round in 0..1200u64 {
        keys.clear();
        for i in 0..256u64 {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            let k = x % 512;
            keys.push(k);
            map.entry(k).or_default().push(i ^ round);
            acc = acc.mul_add(0.999_999, (x >> 11) as f64 * 1e-18);
        }
        keys.sort_unstable();
        for k in &keys {
            if map.get(k).is_some_and(|v| v.len() > 4) {
                map.remove(k);
            }
        }
        black_box(&map);
    }
    black_box(acc);
    t.elapsed().as_secs_f64()
}

/// Follows the machine's speed, which on a shared host drifts by tens of
/// percent within seconds. Each timed step is bracketed by speed probes;
/// the step's wall time is then quoted at the reference speed, the probe
/// taking [`PROBE_REF_S`]. Consecutive steps share their probes.
pub struct Speed {
    last_probe: f64,
    /// Every probe time, for the detail line.
    pub probes: Vec<f64>,
}

impl Speed {
    /// Takes the first probe.
    pub fn start() -> Speed {
        let last_probe = speed_probe();
        Speed { last_probe, probes: vec![last_probe] }
    }

    /// Runs `f`; returns its result and how much slower than the
    /// reference the machine ran meanwhile (probe time over
    /// [`PROBE_REF_S`]). Divide a wall time measured inside `f` by it to
    /// quote the time at the reference speed.
    pub fn slowdown<R>(&mut self, f: impl FnOnce() -> R) -> (R, f64) {
        let out = f();
        let probe = speed_probe();
        let slowdown = (self.last_probe + probe) / 2.0 / PROBE_REF_S;
        self.last_probe = probe;
        self.probes.push(probe);
        (out, slowdown)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..=10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        let s = Spread::of(&v);
        assert_eq!((s.q1, s.median, s.q3, s.n), (2.75, 5.5, 8.25, 10));
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        let s = Spread::of(&[3.0, 1.0, 2.0]);
        assert_eq!((s.q1, s.median, s.q3), (1.0, 2.0, 3.0));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        let s = Spread::of(&[2.0, 1.0]);
        assert_eq!((s.q1, s.median, s.q3), (0.75, 1.5, 2.25));
    }
}
