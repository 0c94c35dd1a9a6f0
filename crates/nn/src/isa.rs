//! Instruction-set dispatch for the lane kernels.
//!
//! Each lane kernel ([`crate::layers::Conv1d::forward_lanes`],
//! [`crate::layers::Dense::forward_batch`],
//! [`crate::layers::maxpool2_lanes`]) has one generic body that is
//! compiled twice: once for the build's baseline target and once with
//! AVX2 enabled, where an 8-lane tile is one ymm register instead of
//! two xmm ones. The public kernels pick the copy for the running CPU
//! through [`Isa::detected`].
//!
//! Both copies perform the same IEEE operations in the same order:
//! Rust never contracts `a * b + c` into a fused multiply-add, and
//! enabling AVX2 does not enable FMA. So the two copies give identical
//! bits, which the kernel tests check on every AVX2 host.
//!
//! The one `unsafe` call in this module enters the AVX2 copy; an
//! [`Isa`] naming AVX2 can only be made by detecting it.

#![allow(unsafe_code)]

/// An instruction set a lane kernel runs under. The field is private,
/// so an `Isa` naming AVX2 exists only on a CPU that has it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Isa(Kind);

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Kind {
    Baseline,
    #[cfg(any(target_arch = "x86", target_arch = "x86_64"))]
    Avx2,
}

/// A kernel body to compile once per [`Isa`]. Implementations mark
/// `run` `#[inline(always)]`, so the body is inlined into — and
/// compiled with the target features of — each per-ISA entry point.
pub(crate) trait Kernel {
    /// Runs the kernel.
    fn run(self);
}

impl Isa {
    /// The build's baseline target features; runs on every CPU.
    pub(crate) const BASELINE: Isa = Isa(Kind::Baseline);

    /// The widest instruction set this CPU supports. The standard
    /// library caches the CPUID probe, so this is a load and a test.
    #[inline]
    pub(crate) fn detected() -> Isa {
        #[cfg(any(target_arch = "x86", target_arch = "x86_64"))]
        if std::arch::is_x86_feature_detected!("avx2") {
            return Isa(Kind::Avx2);
        }
        Isa::BASELINE
    }

    /// Runs `kernel` compiled for this instruction set.
    #[inline]
    pub(crate) fn run<K: Kernel>(self, kernel: K) {
        match self.0 {
            Kind::Baseline => kernel.run(),
            #[cfg(any(target_arch = "x86", target_arch = "x86_64"))]
            // SAFETY: `Kind::Avx2` is only constructed by
            // `Isa::detected` after `is_x86_feature_detected!("avx2")`
            // returned true, so this CPU executes AVX2 instructions.
            Kind::Avx2 => unsafe { run_avx2(kernel) },
        }
    }
}

/// `kernel.run()` compiled with AVX2 enabled.
///
/// # Safety
///
/// The CPU must support AVX2.
#[cfg(any(target_arch = "x86", target_arch = "x86_64"))]
#[target_feature(enable = "avx2")]
unsafe fn run_avx2<K: Kernel>(kernel: K) {
    kernel.run();
}
