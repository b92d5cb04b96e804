//! The host-speed index: how fast this box is *right now*, measured by two
//! fixed kernels that no product code takes part in.
//!
//! The reference box is a few vCPUs of a shared host, and the host moves
//! between speed regimes that last minutes: the same binary runs 10–40 %
//! slower for a while because a neighbour is loading the memory system or
//! the hypervisor.  Medians inside a run cannot remove that, and a bound
//! of 25 % cannot hold it.  What moves with it, though, can be measured:
//!
//! - **mem**: a dependent pointer chase over 64 MiB — far beyond the
//!   2 MiB L2, so every step is a TLB miss and a trip to the shared L3 or
//!   DRAM.  Over identical runs it moved 220 → 300 ns/step;
//! - **sys**: one-byte `pwrite`s at offset 0 of a scratch file — kernel
//!   entry and exit, the VFS and the page cache, no device.  It moved
//!   300 → 430 ns/call.
//!
//! A sample runs both, twenty milliseconds together; its index is the
//! geometric mean of the two, each relative to its value on the quiet
//! reference box, so it reads 1.0 there and 1.25 when the host is a
//! quarter slower.  The harness samples after every slice and around every
//! set-up (fifty-odd samples a run); a run's index is that of its median
//! sample.
//!
//! A run's timings follow the index, each workload by its own power of
//! it: the log-log slope of time over index, over forty identical runs of
//! each workload while the host moved, was 0.3–0.75 for `mem_mix`, 0.5–0.75
//! for `lsm_read`, about 1.2 for `lsm_ingest` and 1.35–1.5 for `svc_pipe`
//! (`--selfcheck N` prints that fit).  So every time a run reports is
//! divided by `index ^ sensitivity` (a rate multiplied), with the
//! workload's `HOST_SENSITIVITY` rounded to a half: **reference-host
//! time**, not wall-clock time.  On ten further runs of each workload that
//! took no part in the fit, the worst quartile spread of a timing fell
//! from 17.5 % of its median to 8.3 %, and no median moved more than 6 %
//! from the set before, against 9 % uncorrected.  A sensitivity that is
//! off costs steadiness, never fairness: parent and change go through the
//! same arithmetic.  The report prints the clock's own values, the index
//! and both kernels next to the corrected values; counts (allocations,
//! bytes, amplification) are never touched.

use std::fs::File;
use std::os::unix::fs::FileExt;
use std::time::Instant;

use crate::scratch::ScratchDir;
use crate::stats::median;

/// ns per step of the chase on the quiet reference box.
const MEM_NOMINAL_NS: f64 = 230.0;
/// ns per `pwrite` on the quiet reference box.
const SYS_NOMINAL_NS: f64 = 300.0;

/// Slots of the chase ring: 64 MiB of `u32`.
const RING_SLOTS: usize = 16 << 20;
const MEM_STEPS: usize = 40_000;
const SYS_CALLS: usize = 30_000;

/// One sample of the two kernels.
#[derive(Clone, Copy, Debug)]
pub struct HostSample {
    pub mem_ns: f64,
    pub sys_ns: f64,
}

impl HostSample {
    /// 1.0 on the quiet reference box; larger when the host is slower.
    pub fn index(&self) -> f64 {
        index_of(self.mem_ns, self.sys_ns)
    }
}

fn index_of(mem_ns: f64, sys_ns: f64) -> f64 {
    ((mem_ns / MEM_NOMINAL_NS) * (sys_ns / SYS_NOMINAL_NS)).sqrt()
}

/// The median sample of a run, kernel by kernel.
pub fn typical(samples: &[HostSample]) -> HostSample {
    let of = |pick: fn(&HostSample) -> f64| median(&samples.iter().map(pick).collect::<Vec<f64>>());
    HostSample {
        mem_ns: of(|s| s.mem_ns),
        sys_ns: of(|s| s.sys_ns),
    }
}

/// The two kernels and what they run on.
pub struct HostRef {
    ring: Vec<u32>,
    at: u32,
    file: File,
    _dir: ScratchDir,
}

impl HostRef {
    pub fn new() -> Self {
        // One cycle through every slot, in an order no prefetcher follows:
        // a full-period linear congruential step (multiplier ≡ 1 mod 4,
        // odd increment, power-of-two modulus).
        let mask = RING_SLOTS as u64 - 1;
        let ring = (0..RING_SLOTS as u64)
            .map(|slot| ((slot * 0x9E37_79B5 + 0x7F4A_7C15) & mask) as u32)
            .collect();
        let dir = ScratchDir::new("hostref").expect("create scratch directory");
        let file = File::create(dir.path().join("ref")).expect("create the reference file");
        HostRef {
            ring,
            at: 0,
            file,
            _dir: dir,
        }
    }

    /// Runs both kernels once: about twenty milliseconds.
    pub fn sample(&mut self) -> HostSample {
        let start = Instant::now();
        let mut at = self.at;
        for _ in 0..MEM_STEPS {
            at = self.ring[at as usize];
        }
        self.at = at;
        let mem_ns = start.elapsed().as_nanos() as f64 / MEM_STEPS as f64;

        let start = Instant::now();
        for _ in 0..SYS_CALLS {
            self.file
                .write_all_at(b"x", 0)
                .expect("write the reference file");
        }
        let sys_ns = start.elapsed().as_nanos() as f64 / SYS_CALLS as f64;
        HostSample { mem_ns, sys_ns }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_ring_is_one_cycle_and_the_index_is_one_at_nominal() {
        let mut host = HostRef::new();
        // A full-period step visits every slot before it returns.
        let mut seen = vec![false; 1 << 12];
        let (mut at, mask) = (0u64, (1u64 << 12) - 1);
        for _ in 0..1 << 12 {
            assert!(!std::mem::replace(&mut seen[at as usize], true));
            at = (at * 0x9E37_79B5 + 0x7F4A_7C15) & mask;
        }
        assert_eq!(at, 0);
        let sample = host.sample();
        assert!(sample.mem_ns > 0.0 && sample.sys_ns > 0.0);
        assert!(sample.index().is_finite() && sample.index() > 0.0);
        assert_eq!(index_of(MEM_NOMINAL_NS, SYS_NOMINAL_NS), 1.0);
        let slow = index_of(MEM_NOMINAL_NS * 1.21, SYS_NOMINAL_NS * 1.21);
        assert!((slow - 1.21).abs() < 1e-12);
        let both = [
            HostSample {
                mem_ns: 1.0,
                sys_ns: 9.0,
            },
            HostSample {
                mem_ns: 3.0,
                sys_ns: 7.0,
            },
            HostSample {
                mem_ns: 2.0,
                sys_ns: 8.0,
            },
        ];
        let mid = typical(&both);
        assert_eq!((mid.mem_ns, mid.sys_ns), (2.0, 8.0));
    }
}
