//! Instruction-set dispatch for the lane kernels.
//!
//! Each lane kernel ([`crate::layers::Conv1d::forward_lanes`],
//! [`crate::layers::Dense::forward_batch`],
//! [`crate::layers::maxpool2_lanes`] and the backward kernels) has one
//! generic body that is compiled three times: for the build's baseline
//! target, with AVX2 enabled, and with AVX-512 enabled. An 8-lane
//! training tile is one ymm register under AVX2; a 16-row inference
//! tile is one zmm register under AVX-512 (two ymm ones under AVX2).
//! The public kernels pick the copy for the running CPU through
//! [`Isa::detected`].
//!
//! Every copy performs the same IEEE operations in the same order:
//! Rust never contracts `a * b + c` into a fused multiply-add, so a
//! separate multiply and add stay separate even in the AVX-512 copy,
//! where LLVM's `avx512f` implies FMA and FMA instructions are
//! available. Enabling a wider instruction set changes only the
//! register width. So the copies give identical bits, which the kernel
//! tests check on every copy the host runs.
//!
//! The one `unsafe` call per copy in this module enters that copy; an
//! [`Isa`] naming AVX2 or AVX-512 can only be made by detecting it.

#![allow(unsafe_code)]

/// An instruction set a lane kernel runs under. The field is private,
/// so an `Isa` naming AVX2 or AVX-512 exists only on a CPU that has
/// it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Isa(Kind);

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Kind {
    Baseline,
    #[cfg(any(target_arch = "x86", target_arch = "x86_64"))]
    Avx2,
    #[cfg(any(target_arch = "x86", target_arch = "x86_64"))]
    Avx512,
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
    /// library caches the CPUID probe, so this is a few loads and
    /// tests.
    #[inline]
    pub(crate) fn detected() -> Isa {
        Isa::supported().last().unwrap_or(Isa::BASELINE)
    }

    /// Every instruction set this CPU supports, narrowest first.
    #[inline]
    pub(crate) fn supported() -> impl Iterator<Item = Isa> {
        #[cfg(any(target_arch = "x86", target_arch = "x86_64"))]
        let wide = {
            use std::arch::is_x86_feature_detected as has;
            let avx2 = has!("avx2");
            // The compiler takes `avx512f` to imply `avx2`, `fma` and
            // `f16c`, so the AVX-512 copy needs all four.
            let avx512 = avx2 && has!("avx512f") && has!("fma") && has!("f16c");
            [
                avx2.then_some(Isa(Kind::Avx2)),
                avx512.then_some(Isa(Kind::Avx512)),
            ]
        };
        #[cfg(not(any(target_arch = "x86", target_arch = "x86_64")))]
        let wide: [Option<Isa>; 0] = [];
        std::iter::once(Isa::BASELINE).chain(wide.into_iter().flatten())
    }

    /// The instruction set's name: `"baseline"`, `"avx2"` or
    /// `"avx512"`.
    pub(crate) fn name(self) -> &'static str {
        match self.0 {
            Kind::Baseline => "baseline",
            #[cfg(any(target_arch = "x86", target_arch = "x86_64"))]
            Kind::Avx2 => "avx2",
            #[cfg(any(target_arch = "x86", target_arch = "x86_64"))]
            Kind::Avx512 => "avx512",
        }
    }

    /// Runs `kernel` compiled for this instruction set.
    #[inline]
    pub(crate) fn run<K: Kernel>(self, kernel: K) {
        match self.0 {
            Kind::Baseline => kernel.run(),
            #[cfg(any(target_arch = "x86", target_arch = "x86_64"))]
            // SAFETY: `Kind::Avx2` is only constructed by
            // `Isa::supported` after `is_x86_feature_detected!("avx2")`
            // returned true, so this CPU executes AVX2 instructions.
            Kind::Avx2 => unsafe { run_avx2(kernel) },
            #[cfg(any(target_arch = "x86", target_arch = "x86_64"))]
            // SAFETY: `Kind::Avx512` is only constructed by
            // `Isa::supported` after `is_x86_feature_detected!` returned
            // true for `avx2`, `avx512f`, `fma` and `f16c`, every feature
            // the `avx512f` copy is compiled with.
            Kind::Avx512 => unsafe { run_avx512(kernel) },
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

/// `kernel.run()` compiled with AVX-512 (and the AVX2, FMA and F16C it
/// implies) enabled.
///
/// # Safety
///
/// The CPU must support AVX-512F, AVX2, FMA and F16C.
#[cfg(any(target_arch = "x86", target_arch = "x86_64"))]
#[target_feature(enable = "avx512f")]
unsafe fn run_avx512<K: Kernel>(kernel: K) {
    kernel.run();
}
