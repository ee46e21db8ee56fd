//! The five workloads and what every one of them hands back.

pub mod sim_faults;
pub mod sim_pipe;
pub mod sim_wave;
pub mod tcp;

use std::sync::Arc;
use std::time::Instant;

use crate::procfs::{self, CpuTime};
use crate::trace::Tracer;

/// What one pass over a workload measured. A traced run makes two
/// passes (a short bare one for reference, then the traced one); an
/// untraced run makes one.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Operations started: agreements, slots or probe agreements.
    pub attempted: u64,
    /// Operations that missed the correctness gate.
    pub failed: u64,
    /// Why, one line per miss (capped).
    pub problems: Vec<String>,
    /// One sample per set-up of the workload's initial state, seconds.
    pub setup_s: Vec<f64>,
    /// Decisions per wall-clock second, one sample per segment.
    pub rate: Vec<f64>,
    /// Wall-clock milliseconds a decision took, one sample per
    /// operation or segment (see each workload).
    pub latency_ms: Vec<f64>,
    /// Operations that passed the gate.
    pub decisions: u64,
    /// Wall-clock length of the timed region, seconds.
    pub wall_s: f64,
    /// Process CPU spent over the timed region.
    pub cpu: CpuTime,
    /// Hash of what the first operation computed (messages delivered,
    /// who decided what and when). Equal for a bare and a traced pass
    /// of one seed on the simulated workloads; 0 where real threads
    /// make it meaningless.
    pub fingerprint: u64,
    /// Workload-specific per-layer values by metric name.
    pub layer: Vec<(&'static str, f64)>,
}

impl Outcome {
    /// Records a gate miss. Only the first few reasons are kept.
    pub fn fail(&mut self, why: impl FnOnce() -> String) {
        self.failed += 1;
        if self.problems.len() < 8 {
            self.problems.push(why());
        }
    }

    pub fn layer(&mut self, name: &'static str, value: f64) {
        self.layer.push((name, value));
    }

    /// Times `count` throwaway set-ups, handing each a lane no
    /// operation's seed uses. The simulated set-ups take microseconds,
    /// so the workloads call this beside every unit of work: a burst of
    /// samples up front would only measure the host's mood just then.
    pub fn time_setups(&mut self, count: usize, mut set_up: impl FnMut(u64)) {
        for _ in 0..count {
            let lane = u64::MAX - self.setup_s.len() as u64;
            let t = Instant::now();
            set_up(lane);
            self.setup_s.push(t.elapsed().as_secs_f64());
        }
    }
}

/// The value recorded under `name` in a list of named values.
pub fn named(values: &[(&'static str, f64)], name: &str) -> Option<f64> {
    values.iter().find(|(n, _)| *n == name).map(|(_, v)| *v)
}

/// Brackets a timed region: wall clock and process CPU.
pub struct Region {
    start: Instant,
    cpu: CpuTime,
    secs: f64,
}

impl Region {
    pub fn begin(secs: f64) -> Region {
        Region {
            start: Instant::now(),
            cpu: procfs::cpu_time(),
            secs,
        }
    }

    pub fn start(&self) -> Instant {
        self.start
    }

    /// Whether the region's time budget is spent.
    pub fn over(&self) -> bool {
        self.start.elapsed().as_secs_f64() >= self.secs
    }

    pub fn end(self, out: &mut Outcome) {
        out.wall_s = self.start.elapsed().as_secs_f64();
        out.cpu = procfs::cpu_time().since(&self.cpu);
    }
}

/// The tracer of a traced pass, `None` on a bare one.
pub type Trace<'a> = Option<&'a Arc<Tracer>>;

/// Runs `f` in a span when tracing, bare otherwise.
pub fn spanned<R>(
    trace: Trace<'_>,
    site: crate::trace::Site,
    items: u64,
    f: impl FnOnce() -> R,
) -> R {
    match trace {
        Some(t) => t.span(site, items, f),
        None => f(),
    }
}

/// SplitMix64: derives the `lane`-th independent seed from `seed`.
/// Every delay draw, value, key and fault of a run descends from the
/// one `--seed` through this.
pub fn derive(seed: u64, lane: u64) -> u64 {
    let mut z = seed.wrapping_add(0x9e37_79b9_7f4a_7c15u64.wrapping_mul(lane.wrapping_add(1)));
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// FNV-1a over a stream of words.
#[derive(Debug, Clone, Copy)]
pub struct Fnv(u64);

impl Fnv {
    pub fn new() -> Fnv {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    pub fn word(&mut self, w: u64) {
        self.bytes(&w.to_le_bytes());
    }

    pub fn bytes(&mut self, bytes: &[u8]) {
        for b in bytes {
            self.0 = (self.0 ^ u64::from(*b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    pub fn finish(self) -> u64 {
        self.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn derived_seeds_differ_by_lane_and_by_seed() {
        let a: Vec<u64> = (0..4).map(|l| derive(1, l)).collect();
        let b: Vec<u64> = (0..4).map(|l| derive(2, l)).collect();
        for i in 0..4 {
            assert_ne!(a[i], b[i]);
            for j in 0..i {
                assert_ne!(a[i], a[j]);
            }
        }
        assert_eq!(derive(1, 3), a[3], "same inputs, same seed");
    }
}
