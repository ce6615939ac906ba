//! Sample summaries and the comparable fingerprint of an answer.

use jury_core::problem::Selection;
use std::time::Duration;

/// Nearest-rank quantile `q` of `samples` (sorted in place); `None` when
/// there are no samples.
pub fn quantile(samples: &mut [f64], q: f64) -> Option<f64> {
    if samples.is_empty() {
        return None;
    }
    samples.sort_unstable_by(f64::total_cmp);
    let rank = ((samples.len() - 1) as f64 * q).round() as usize;
    Some(samples[rank])
}

pub fn median(samples: &mut [f64]) -> Option<f64> {
    quantile(samples, 0.5)
}

pub fn mean(samples: &[f64]) -> Option<f64> {
    (!samples.is_empty()).then(|| samples.iter().sum::<f64>() / samples.len() as f64)
}

/// `numerator / denominator`, or 0 when nothing was attempted.
pub fn ratio(numerator: f64, denominator: f64) -> f64 {
    if denominator > 0.0 {
        numerator / denominator
    } else {
        0.0
    }
}

pub fn us(d: Duration) -> f64 {
    d.as_secs_f64() * 1e6
}

pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// A digest of everything about a [`Selection`] that must be
/// bit-identical across layers: the member list, the JER bits and the
/// total-cost bits (FNV-1a).
pub fn digest(selection: &Selection) -> u64 {
    let words = selection.members.iter().map(|&m| m as u64).chain([
        selection.members.len() as u64,
        selection.jer.to_bits(),
        selection.total_cost.to_bits(),
    ]);
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    for word in words {
        for byte in word.to_le_bytes() {
            hash = (hash ^ u64::from(byte)).wrapping_mul(0x0100_0000_01b3);
        }
    }
    hash
}

/// Resets this process's peak resident set (`VmHWM`) to its current
/// resident set, so a later [`rss_peak_mb`] covers only what follows.
/// Best effort: without `clear_refs` the peak covers the whole process.
pub fn reset_rss_peak() {
    let _ = std::fs::write("/proc/self/clear_refs", "5");
}

/// Peak resident set size of this process in MiB (`VmHWM`).
pub fn rss_peak_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}
