//! What a run reports: named metrics, output checks, sample statistics, run
//! metadata, and the one-line JSON result.

use std::fmt::Write as _;

/// Everything one workload run produced.
#[derive(Default)]
pub struct Outcome {
    /// Operations attempted (factorizations, or service jobs).
    pub attempted: u64,
    /// Operations that failed, were refused, shed or lost.
    pub failed: u64,
    /// Output checks, as (description, passed).
    pub checks: Vec<(String, bool)>,
    /// Measured values by metric name; units live in the metric tables.
    pub metrics: Vec<(&'static str, f64)>,
}

impl Outcome {
    pub fn metric(&mut self, name: &'static str, value: f64) {
        self.metrics.push((name, value));
    }

    pub fn check(&mut self, what: impl Into<String>, ok: bool) {
        self.checks.push((what.into(), ok));
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|(n, _)| *n == name)
            .map(|&(_, v)| v)
    }

    /// The result line: exactly `correct`, `attempted`, `failed`, `metrics`,
    /// with the metrics of `table` in its order.
    pub fn json(&self, correct: bool, table: &[(&str, &str)]) -> String {
        let mut s = format!(
            "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.attempted, self.failed
        );
        for (i, &(name, unit)) in table.iter().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            // Rust's f64 Display prints the shortest round-trip form and
            // never an exponent, so it is valid JSON with all its digits.
            let v = self.get(name).filter(|v| v.is_finite()).unwrap_or(0.0);
            let _ = write!(
                s,
                "{sep}\"{name}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}"
            );
        }
        s.push_str("}}");
        s
    }
}

/// Nearest-rank percentile of an ascending-sorted sample (`q` in (0, 1]).
pub fn percentile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

pub fn sorted(mut v: Vec<f64>) -> Vec<f64> {
    v.sort_by(f64::total_cmp);
    v
}

pub fn median(v: Vec<f64>) -> f64 {
    percentile(&sorted(v), 0.5)
}

/// Share of the samples dropped at each end by [`trimmed_mean`].
const TRIM: f64 = 0.1;

/// Mean of a run's samples without the fastest and the slowest `TRIM` of
/// them. The measuring host flips between a fast and a slow state, so a
/// run's samples can be bimodal; a median then jumps from one mode to the
/// other as the share of slow time crosses one half, while this mean moves
/// with that share. Trimming keeps the host's stalls out.
pub fn trimmed_mean(samples: &[f64]) -> f64 {
    let s = sorted(samples.to_vec());
    let cut = (s.len() as f64 * TRIM) as usize;
    let kept = &s[cut..s.len() - cut];
    kept.iter().sum::<f64>() / kept.len().max(1) as f64
}

/// Slices a run's samples are split into by [`windowed`].
const WINDOWS: usize = 5;

/// Percentile of a run robust to the host's slow spells: the median, over
/// `WINDOWS` consecutive slices of the samples in time order, of each
/// slice's `q`-percentile. A slowdown covering part of a run moves one
/// slice, not the result.
pub fn windowed(samples: &[f64], q: f64) -> f64 {
    let per = samples.len().div_ceil(WINDOWS).max(1);
    median(
        samples
            .chunks(per)
            .map(|c| percentile(&sorted(c.to_vec()), q))
            .collect(),
    )
}

/// splitmix64: tiny, seeded, dependency-free.
pub struct Rng(pub u64);

impl Rng {
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in [0, 1).
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `0..n`.
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// Fisher-Yates shuffle.
    pub fn shuffle<T>(&mut self, v: &mut [T]) {
        for i in (1..v.len()).rev() {
            v.swap(i, self.below(i + 1));
        }
    }
}

/// Host and build facts printed with every result.
pub fn metadata(workload: &str, params: &str, seed: u64, seconds: u64, trace: bool) -> String {
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    format!(
        "{{\"workload\": \"{workload}\", \"params\": \"{params}\", \"seed\": {seed}, \
         \"seconds\": {seconds}, \"trace\": {trace}, \"cpu\": \"{}\", \"nproc\": {nproc}, \
         \"simd\": \"{}\", \"rustc\": \"{}\", \"git_sha\": \"{}\"}}",
        cpu_model(),
        dense::simd::active().name(),
        env!("PERFBENCH_RUSTC"),
        git_sha(),
    )
}

/// The CPU brand string, from CPUID (no file outside the checkout is read).
fn cpu_model() -> String {
    #[cfg(target_arch = "x86_64")]
    {
        use std::arch::x86_64::__cpuid;
        // The brand string occupies extended leaves 0x8000_0002..=4.
        if __cpuid(0x8000_0000).eax < 0x8000_0004 {
            return "unknown".into();
        }
        let mut brand = Vec::with_capacity(48);
        for leaf in 0x8000_0002u32..=0x8000_0004 {
            let r = __cpuid(leaf);
            for reg in [r.eax, r.ebx, r.ecx, r.edx] {
                brand.extend_from_slice(&reg.to_le_bytes());
            }
        }
        let s = String::from_utf8_lossy(&brand);
        s.trim_matches(char::from(0)).trim().replace('"', "'")
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        "unknown".into()
    }
}

/// The commit of the working directory, read from `.git` in it; "unknown"
/// outside a git checkout.
fn git_sha() -> String {
    let read = |p: &str| {
        std::fs::read_to_string(p)
            .ok()
            .map(|s| s.trim().to_string())
    };
    let Some(head) = read(".git/HEAD") else {
        return "unknown".into();
    };
    let Some(r) = head.strip_prefix("ref: ") else {
        return head;
    };
    read(&format!(".git/{r}"))
        .or_else(|| {
            read(".git/packed-refs")?
                .lines()
                .find(|l| l.ends_with(r))
                .and_then(|l| l.split(' ').next().map(str::to_string))
        })
        .unwrap_or_else(|| "unknown".into())
}
