//! Runtime-dispatched SIMD kernel lanes.
//!
//! The paper's serving path "aggressively employ[s] vectorization based on
//! AVX512 instructions" (§VI-C). The reproduction keeps one always-compiled
//! scalar implementation of every guidance kernel as the correctness oracle
//! and adds two vector lanes selected *at runtime* with
//! `is_x86_feature_detected!`: AVX2+FMA, 8-wide over the batch axis, and
//! AVX-512, whose matmul runs 16 wide and which otherwise runs the AVX2
//! code. A single binary thus runs correctly on any x86-64 (or non-x86)
//! host and fast on hosts with AVX2 or AVX-512. This module owns the lane
//! type and the process-wide dispatch decision; the kernels in
//! `recmg-core::fast` and [`crate::quant`] take the lane as an argument so
//! tests can drive every implementation explicitly.

use std::sync::OnceLock;

/// A guidance-kernel implementation lane.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum KernelLane {
    /// Portable scalar kernels — always compiled, the parity oracle.
    Scalar,
    /// AVX2 + FMA kernels, 8-wide over the interleaved batch axis.
    Avx2,
    /// AVX-512 (F, VL, DQ) on top of AVX2 + FMA: the dense layers of full
    /// 8-lane blocks run as 16-wide tiles, everything else as on
    /// [`KernelLane::Avx2`], with bit-identical results.
    Avx512,
}

impl KernelLane {
    /// Stable lower-case name used in reports and bench JSON.
    pub fn name(self) -> &'static str {
        match self {
            KernelLane::Scalar => "scalar",
            KernelLane::Avx2 => "avx2",
            KernelLane::Avx512 => "avx512",
        }
    }

    /// Whether this lane can execute on the current CPU.
    pub fn available(self) -> bool {
        match self {
            KernelLane::Scalar => true,
            KernelLane::Avx2 => avx2_fma_available(),
            KernelLane::Avx512 => avx512_available(),
        }
    }
}

/// Whether the CPU supports the AVX2+FMA lane (cached after first probe).
pub fn avx2_fma_available() -> bool {
    static AVAIL: OnceLock<bool> = OnceLock::new();
    *AVAIL.get_or_init(|| {
        #[cfg(target_arch = "x86_64")]
        {
            std::arch::is_x86_feature_detected!("avx2")
                && std::arch::is_x86_feature_detected!("fma")
        }
        #[cfg(not(target_arch = "x86_64"))]
        {
            false
        }
    })
}

/// Whether the CPU supports every feature the AVX-512 lane's kernels
/// enable — AVX-512F, VL and DQ besides AVX2 and FMA (cached after first
/// probe).
pub fn avx512_available() -> bool {
    static AVAIL: OnceLock<bool> = OnceLock::new();
    *AVAIL.get_or_init(|| {
        #[cfg(target_arch = "x86_64")]
        {
            avx2_fma_available()
                && std::arch::is_x86_feature_detected!("avx512f")
                && std::arch::is_x86_feature_detected!("avx512vl")
                && std::arch::is_x86_feature_detected!("avx512dq")
        }
        #[cfg(not(target_arch = "x86_64"))]
        {
            false
        }
    })
}

/// The fastest lane the current CPU supports.
pub fn detected_lane() -> KernelLane {
    if avx512_available() {
        KernelLane::Avx512
    } else if avx2_fma_available() {
        KernelLane::Avx2
    } else {
        KernelLane::Scalar
    }
}

/// The lane all production guidance forwards dispatch to.
///
/// Defaults to [`detected_lane`]; the `RECMG_KERNEL_LANE` environment
/// variable (`scalar` | `avx2`) pins a lane instead — `avx2` pins AVX2
/// even on an AVX-512 host — with an unavailable request falling back to
/// scalar. The decision is made once per process.
pub fn active_lane() -> KernelLane {
    static LANE: OnceLock<KernelLane> = OnceLock::new();
    *LANE.get_or_init(|| match std::env::var("RECMG_KERNEL_LANE").as_deref() {
        Ok("scalar") => KernelLane::Scalar,
        Ok("avx2") if avx2_fma_available() => KernelLane::Avx2,
        Ok("avx2") => KernelLane::Scalar,
        _ => detected_lane(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalar_is_always_available() {
        assert!(KernelLane::Scalar.available());
        assert_eq!(KernelLane::Scalar.name(), "scalar");
        assert_eq!(KernelLane::Avx2.name(), "avx2");
        assert_eq!(KernelLane::Avx512.name(), "avx512");
    }

    #[test]
    fn detected_lane_is_available() {
        println!(
            "kernel lane: active {}, detected {}",
            active_lane().name(),
            detected_lane().name()
        );
        assert!(detected_lane().available());
        assert!(active_lane().available());
    }

    #[test]
    fn avx2_lane_availability_matches_probe() {
        assert_eq!(KernelLane::Avx2.available(), avx2_fma_available());
        if !avx2_fma_available() {
            assert_eq!(detected_lane(), KernelLane::Scalar);
        }
    }

    #[test]
    fn avx512_lane_needs_avx2_and_is_preferred_when_present() {
        assert_eq!(KernelLane::Avx512.available(), avx512_available());
        if avx512_available() {
            assert!(avx2_fma_available());
            assert_eq!(detected_lane(), KernelLane::Avx512);
        } else if avx2_fma_available() {
            assert_eq!(detected_lane(), KernelLane::Avx2);
        }
    }
}
