//! Host-side measurement helpers: `/proc` readers, order statistics and the
//! bit-fold hash the output checks compare.

use std::time::Instant;

/// Kernel clock ticks per second behind `/proc/self/stat`'s `utime` and
/// `stime`. `USER_HZ` is 100 on every Linux ABI and the standard library has
/// no `sysconf`, so it is a constant here rather than a lookup.
const CLOCK_TICKS_PER_SEC: f64 = 100.0;

/// User + system CPU seconds out of a `/proc/<pid>/stat` line. The command
/// name (field 2) may itself contain spaces and parentheses, so fields are
/// counted from the *last* `)`: `utime` and `stime` are fields 14 and 15.
pub fn parse_stat_cpu_secs(stat: &str) -> Option<f64> {
    let rest = &stat[stat.rfind(')')? + 1..];
    let mut fields = rest.split_ascii_whitespace().skip(11);
    let utime: u64 = fields.next()?.parse().ok()?;
    let stime: u64 = fields.next()?.parse().ok()?;
    Some((utime + stime) as f64 / CLOCK_TICKS_PER_SEC)
}

/// Peak resident set in MB out of `/proc/<pid>/status` (`VmHWM`, in kB).
pub fn parse_status_peak_rss_mb(status: &str) -> Option<f64> {
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_ascii_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// CPU seconds this process (exited worker threads included) has used, or
/// `None` on hosts without `/proc` — the metric is then reported absent,
/// never as 0.
pub fn process_cpu_secs() -> Option<f64> {
    parse_stat_cpu_secs(&std::fs::read_to_string("/proc/self/stat").ok()?)
}

/// Peak resident set of this process in MB, or `None` without `/proc`.
pub fn process_peak_rss_mb() -> Option<f64> {
    parse_status_peak_rss_mb(&std::fs::read_to_string("/proc/self/status").ok()?)
}

/// Resets the kernel's resident-set high-water mark (`VmHWM`) to the current
/// resident set, so the next [`process_peak_rss_mb`] reads the peak since
/// this call. Best effort: where `/proc/self/clear_refs` is missing or
/// read-only the mark keeps rising and later readings are cumulative.
pub fn reset_peak_rss() {
    let _ = std::fs::write("/proc/self/clear_refs", "5");
}

/// Linear-interpolated quantile `q ∈ [0, 1]` of an unsorted sample.
///
/// # Panics
///
/// Panics on an empty sample.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    assert!(!values.is_empty(), "quantile of an empty sample");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

/// Median of an unsorted sample.
pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// Median of a sample that may be absent as a whole (`/proc`-less hosts).
pub fn median_opt(values: &[Option<f64>]) -> Option<f64> {
    let present: Vec<f64> = values.iter().flatten().copied().collect();
    (present.len() == values.len() && !present.is_empty()).then(|| median(&present))
}

/// The tail percentile a sample of `n` timings supports: the highest of
/// 50 / 75 / 90 / 95 / 99 / 99.9 that still leaves at least ten samples
/// beyond it. Samples too small for even the median to have ten beyond it
/// report the median (the sample count is always printed next to it).
pub fn tail_percentile(n: usize) -> f64 {
    // Per mille, so "ten beyond it" is exact integer arithmetic.
    [999, 990, 950, 900, 750, 500]
        .into_iter()
        .find(|per_mille| n * (1000 - per_mille) >= 10 * 1000)
        .map_or(50.0, |per_mille| per_mille as f64 / 10.0)
}

/// FNV-1a over 32-bit words — the `to_bits` fold behind every "bit-equal"
/// output check.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct BitFold(pub u64);

impl Default for BitFold {
    fn default() -> Self {
        BitFold(0xcbf2_9ce4_8422_2325)
    }
}

impl BitFold {
    pub fn u32(&mut self, w: u32) {
        for b in w.to_le_bytes() {
            self.0 = (self.0 ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    pub fn u64(&mut self, w: u64) {
        self.u32(w as u32);
        self.u32((w >> 32) as u32);
    }

    pub fn f32s(&mut self, values: &[f32]) {
        self.u64(values.len() as u64);
        for v in values {
            self.u32(v.to_bits());
        }
    }

    pub fn f64s(&mut self, values: &[f64]) {
        self.u64(values.len() as u64);
        for v in values {
            self.u64(v.to_bits());
        }
    }

    pub fn bools(&mut self, values: &[bool]) {
        self.u64(values.len() as u64);
        for chunk in values.chunks(32) {
            let word = chunk
                .iter()
                .enumerate()
                .fold(0u32, |w, (i, &b)| w | (b as u32) << i);
            self.u32(word);
        }
    }
}

/// Calls `f` once untimed (first calls size scratch buffers), then until
/// `budget_secs` of wall time is spent (at least `min_iters` times), and
/// returns the per-call seconds.
pub fn time_repeated(min_iters: usize, budget_secs: f64, mut f: impl FnMut()) -> Vec<f64> {
    f();
    let started = Instant::now();
    let mut samples = Vec::new();
    while samples.len() < min_iters || started.elapsed().as_secs_f64() < budget_secs {
        let t = Instant::now();
        f();
        samples.push(t.elapsed().as_secs_f64());
    }
    samples
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stat_parser_survives_hostile_command_names() {
        // Field 2 is "(a b) c)": spaces and a stray ')' inside the name.
        let stat = "4242 (a b) c) S 1 2 3 4 5 6 7 8 9 10 250 50 0 0 20 0 3 0 100 200 300";
        assert_eq!(parse_stat_cpu_secs(stat), Some(3.0));
        assert_eq!(parse_stat_cpu_secs("4242 (x) S 1 2"), None);
        assert_eq!(parse_stat_cpu_secs("no paren at all"), None);
    }

    #[test]
    fn status_parser_reads_vmhwm_in_kb() {
        let status =
            "Name:\tftbench\nVmPeak:\t  900000 kB\nVmHWM:\t  204800 kB\nVmRSS:\t 1000 kB\n";
        assert_eq!(parse_status_peak_rss_mb(status), Some(200.0));
        assert_eq!(parse_status_peak_rss_mb("Name:\tx\n"), None);
        assert_eq!(parse_status_peak_rss_mb("VmHWM:\tlots kB\n"), None);
    }

    #[test]
    fn absent_proc_values_stay_absent() {
        assert_eq!(median_opt(&[Some(1.0), None, Some(3.0)]), None);
        assert_eq!(median_opt(&[]), None);
        assert_eq!(median_opt(&[Some(1.0), Some(5.0), Some(3.0)]), Some(3.0));
    }

    #[test]
    fn tail_percentile_keeps_ten_samples_beyond_it() {
        assert_eq!(tail_percentile(8), 50.0); // too few even for the median
        assert_eq!(tail_percentile(20), 50.0); // exactly 10 beyond p50
        assert_eq!(tail_percentile(39), 50.0);
        assert_eq!(tail_percentile(40), 75.0);
        assert_eq!(tail_percentile(100), 90.0);
        assert_eq!(tail_percentile(150), 90.0);
        assert_eq!(tail_percentile(200), 95.0);
        assert_eq!(tail_percentile(1000), 99.0);
        assert_eq!(tail_percentile(10_000), 99.9);
    }

    #[test]
    fn quantiles_interpolate() {
        let v = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(median(&v), 2.5);
        assert_eq!(quantile(&v, 0.0), 1.0);
        assert_eq!(quantile(&v, 1.0), 4.0);
        assert_eq!(quantile(&[7.0], 0.9), 7.0);
    }

    #[test]
    fn bit_fold_sees_every_bit_and_the_length() {
        let mut a = BitFold::default();
        a.f32s(&[0.0, 1.0]);
        let mut b = BitFold::default();
        b.f32s(&[-0.0, 1.0]); // differs only in the sign bit of zero
        assert_ne!(a, b);
        let mut c = BitFold::default();
        c.bools(&[true, false]);
        let mut d = BitFold::default();
        d.bools(&[true, false, false]);
        assert_ne!(c, d);
    }
}
