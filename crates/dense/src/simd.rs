//! Runtime SIMD dispatch for the hot microkernels (pulp/faer idiom).
//!
//! Every microkernel in this module is written **once** against the small
//! `Vf` vector abstraction (splat/load/store/mul_add/reduce) and
//! instantiated inside per-backend `#[target_feature]` wrappers, so one
//! generic body yields AVX-512, AVX2+FMA, NEON and portable-scalar code.
//! The backend is picked **at runtime** from CPU feature detection, cached
//! in a `OnceLock`, and overridable through the `CAQR_SIMD` environment
//! variable (`scalar`/`fma`/`avx2`/`avx512`/`neon`) for testing and
//! benchmarking.
//!
//! Three kernel families are dispatched:
//!
//! * the gemm microkernel ([`GemmKernel`]) — the register tile is
//!   per-backend (`mr x nr`), and `blas3` packs its micro-panels to match;
//!   one generic body per tier yields two instances, one reading a packed
//!   `B` and one reading `B` in place through row and column strides;
//! * the fused strategy-4 factor sweep ([`FactorKernels`]) — the dot and
//!   rank-1 row passes of `geqr2_gram_transposed`, and the two-chain strip
//!   dot and the two passes of the blocked `geqrf_gram_transposed`;
//! * the small dot/axpy column kernels ([`SmallKernels`]) used by the
//!   streaming gemm path and the compact-WY `larfb` column updates.
//!
//! **Oracle discipline**: the scalar kernels are the reference. The factor
//! sweep vectorizes across *independent* per-column accumulator chains with
//! fused ops on both paths, so every backend is **bit-identical** to the
//! scalar oracle there (libm `fma` and hardware FMA are both correctly
//! rounded). The gemm microkernel changes its register tile per backend,
//! which reorders the (associative-only-in-exact-arithmetic) k-loop, so it
//! is gated by ulp-bounded tests instead. Under Miri only the scalar
//! backend is reachable (`cfg(miri)`), keeping the interpreter off vendor
//! intrinsics it cannot execute.

#[cfg(target_arch = "x86_64")]
use crate::householder::BlockCols;
use crate::householder::ScalarCols;
use crate::scalar::Scalar;
use std::sync::atomic::{AtomicU8, Ordering};
use std::sync::OnceLock;

/// Version tag of the dispatched kernel set, stored in the autotuner's
/// `MeasuredProfile`: `MeasuredProfile::load` rejects a profile measured
/// against an older kernel generation, so it must be re-measured. Bump
/// whenever kernel selection or blocking behaviour changes in a way that
/// shifts the optimum.
/// Version 1 was the scalar era; version 2 is the runtime-SIMD dispatch;
/// version 3 moves the factor sweep's tail store after the row loads
/// (1.4-1.8x faster sweep, which can move the winning tile height);
/// version 4 blocks tiles larger than L1 in 8-column sweeps and makes
/// `nrm2` one pass; version 5 splits the blocked base case's dots in two
/// chains and gives f32 its own blocking budget; version 6 applies the
/// horizontal `Q^T` in place, from `V` packed once per apply, which moves
/// the apply time that profiles rank `(h, w)` by.
pub const KERNEL_VERSION: u32 = 6;

/// Widest microkernel register-tile height any backend uses (AVX-512 f32:
/// two 16-lane vectors). Sizes the ragged-edge spill buffer.
pub(crate) const MAX_MR: usize = 32;

/// Register tile of the portable scalar gemm microkernel (the PR-2 8x4
/// oracle shape).
pub(crate) const SCALAR_MR: usize = 8;
/// Register tile width of the scalar gemm microkernel.
pub(crate) const SCALAR_NR: usize = 4;

/// A SIMD instruction-set backend for the dispatched kernels.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
#[repr(u8)]
pub enum Backend {
    /// Portable scalar loops — the bit-exact oracle, and the only backend
    /// reachable under Miri.
    Scalar = 0,
    /// Scalar loop bodies compiled with hardware FMA enabled (x86 hosts
    /// with FMA but without AVX2, and the tier that fixes the old
    /// compile-time-only `cfg!(target_feature = "fma")` check).
    Fma = 1,
    /// AVX2 + FMA 256-bit vectors.
    Avx2 = 2,
    /// AVX-512F 512-bit vectors (implies the AVX2+FMA tier for remainders).
    Avx512 = 3,
    /// AArch64 NEON 128-bit vectors (baseline on that architecture).
    Neon = 4,
}

fn has_x86_feature(avx512: bool, avx2: bool) -> bool {
    #[cfg(target_arch = "x86_64")]
    {
        let mut ok = std::arch::is_x86_feature_detected!("fma");
        if avx2 {
            ok = ok && std::arch::is_x86_feature_detected!("avx2");
        }
        if avx512 {
            ok = ok && std::arch::is_x86_feature_detected!("avx512f");
        }
        ok
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        let _ = (avx512, avx2);
        false
    }
}

impl Backend {
    /// Stable lowercase name, also the accepted `CAQR_SIMD` value.
    pub fn name(self) -> &'static str {
        match self {
            Backend::Scalar => "scalar",
            Backend::Fma => "fma",
            Backend::Avx2 => "avx2",
            Backend::Avx512 => "avx512",
            Backend::Neon => "neon",
        }
    }

    /// Parse a `CAQR_SIMD` value (case-insensitive [`Backend::name`]).
    pub fn parse(s: &str) -> Option<Backend> {
        match s.to_ascii_lowercase().as_str() {
            "scalar" => Some(Backend::Scalar),
            "fma" => Some(Backend::Fma),
            "avx2" => Some(Backend::Avx2),
            "avx512" => Some(Backend::Avx512),
            "neon" => Some(Backend::Neon),
            _ => None,
        }
    }

    /// Whether this backend can run on the current host. Scalar is always
    /// available; under Miri it is the *only* available backend so the
    /// interpreter never sees vendor intrinsics.
    pub fn is_available(self) -> bool {
        if cfg!(miri) {
            return self == Backend::Scalar;
        }
        match self {
            Backend::Scalar => true,
            Backend::Fma => has_x86_feature(false, false),
            Backend::Avx2 => has_x86_feature(false, true),
            Backend::Avx512 => has_x86_feature(true, true),
            Backend::Neon => cfg!(target_arch = "aarch64"),
        }
    }

    /// Every backend runnable on this host, scalar first.
    pub fn available() -> Vec<Backend> {
        [
            Backend::Scalar,
            Backend::Fma,
            Backend::Avx2,
            Backend::Avx512,
            Backend::Neon,
        ]
        .into_iter()
        .filter(|b| b.is_available())
        .collect()
    }

    fn from_u8(v: u8) -> Backend {
        match v {
            1 => Backend::Fma,
            2 => Backend::Avx2,
            3 => Backend::Avx512,
            4 => Backend::Neon,
            _ => Backend::Scalar,
        }
    }
}

fn detect_best() -> Backend {
    if cfg!(miri) {
        return Backend::Scalar;
    }
    for b in [Backend::Avx512, Backend::Avx2, Backend::Fma, Backend::Neon] {
        if b.is_available() {
            return b;
        }
    }
    Backend::Scalar
}

static ACTIVE: OnceLock<Backend> = OnceLock::new();
/// 0 = no override, otherwise `Backend as u8 + 1`.
static OVERRIDE: AtomicU8 = AtomicU8::new(0);

/// The backend every dispatched kernel uses right now: a test/bench
/// override if one is set ([`set_backend_override`]), otherwise the cached
/// detection result, honouring `CAQR_SIMD` on first call. An unavailable or
/// unknown `CAQR_SIMD` value warns on stderr and falls back to detection;
/// the environment is read once — later changes are ignored.
pub fn active() -> Backend {
    let ov = OVERRIDE.load(Ordering::Relaxed);
    if ov != 0 {
        return Backend::from_u8(ov - 1);
    }
    *ACTIVE.get_or_init(|| {
        let best = detect_best();
        match std::env::var("CAQR_SIMD") {
            Ok(s) => match Backend::parse(&s) {
                Some(b) if b.is_available() => b,
                Some(b) => {
                    eprintln!(
                        "caqr: CAQR_SIMD={} not available on this host; using {}",
                        b.name(),
                        best.name()
                    );
                    best
                }
                None => {
                    eprintln!(
                        "caqr: unknown CAQR_SIMD value {s:?} (want scalar/fma/avx2/avx512/neon); using {}",
                        best.name()
                    );
                    best
                }
            },
            Err(_) => best,
        }
    })
}

/// Force [`active`] to return `Some(backend)` until cleared with `None`.
/// Test/bench hook (the per-backend proptests and `wallclock_report`'s
/// per-ISA rows use it); panics if the backend is not available here.
pub fn set_backend_override(backend: Option<Backend>) {
    match backend {
        Some(b) => {
            assert!(
                b.is_available(),
                "CAQR_SIMD override {:?} is not available on this host",
                b
            );
            OVERRIDE.store(b as u8 + 1, Ordering::Relaxed);
        }
        None => OVERRIDE.store(0, Ordering::Relaxed),
    }
}

// ---------------------------------------------------------------------------
// Dispatched kernel tables
// ---------------------------------------------------------------------------

/// One backend's packed-gemm microkernel and its register-tile shape. The
/// packing routines in `blas3` pad micro-panels to this `mr`/`nr`.
pub struct GemmKernel<T> {
    /// Register-tile height (rows of C per microkernel call).
    pub mr: usize,
    /// Register-tile width (columns of C per microkernel call).
    pub nr: usize,
    /// `C[i..i+h, j..j+w] += alpha * apanel * bpanel` over a `kb`-deep
    /// packed panel pair: `(kb, apanel, bpanel, alpha, c_ij, ldc, h, w)`
    /// where `c_ij` points at `C(i, j)` in a column-major buffer of leading
    /// dimension `ldc`, and only the live `h x w` corner is written.
    ///
    /// # Safety
    /// `apanel`/`bpanel` must hold `kb * mr` / `kb * nr` packed elements,
    /// `h <= mr`, `w <= nr`, the `h x w` corner at `c_ij` must be in
    /// bounds, and the backend's ISA must be present (guaranteed when the
    /// table came from [`SimdScalar`] with an available backend).
    #[allow(clippy::type_complexity)]
    pub ukr: unsafe fn(usize, *const T, *const T, T, *mut T, usize, usize, usize),
    /// The same microkernel with `B` read in place instead of packed:
    /// `(kb, apanel, b, rsb, csb, alpha, c_ij, ldc, h, w)`, where `B(p, j)`
    /// is `b[p * rsb + j * csb]`. Every `C` element runs the same fused
    /// chain as [`Self::ukr`] does on a packed copy of that `B`, so the two
    /// agree bit for bit. Columns past `w` are never read: the dead
    /// accumulator lanes re-read column `w - 1` and are not stored.
    ///
    /// # Safety
    /// `apanel` must hold `kb * mr` packed elements, `B(p, j)` must be
    /// readable for `p < kb`, `j < w`, plus the [`Self::ukr`] conditions on
    /// `h`, `w`, `c_ij` and the backend.
    #[allow(clippy::type_complexity)]
    pub ukr_strided:
        unsafe fn(usize, *const T, *const T, usize, usize, T, *mut T, usize, usize, usize),
}

// Manual impls: `#[derive(Clone, Copy)]` would bound `T: Clone/Copy`.
impl<T> Clone for GemmKernel<T> {
    fn clone(&self) -> Self {
        *self
    }
}
impl<T> Copy for GemmKernel<T> {}

/// One backend's fused factor-sweep row passes (see
/// `householder::factor_transposed_core`). Every backend is bit-identical
/// to the scalar oracle: the chains are per-column independent and fused on
/// both paths.
pub struct FactorKernels<T> {
    /// The dot pass: `(at, width, rows, tri_block, j, col, wacc)` — exactly
    /// `householder::dot_rows`'s contract.
    ///
    /// # Safety
    /// Same slice-shape contract as the scalar `dot_rows` (`at` holds
    /// `rows * width`, `col` the reflector tail, `wacc` `width` lanes) plus
    /// backend ISA availability.
    #[allow(clippy::type_complexity)]
    pub dot_rows: unsafe fn(&mut [T], usize, usize, usize, usize, &[T], &mut [T]),
    /// The rank-1 update pass: `(at, width, rows, tri_block, j, col, next,
    /// tw)` — exactly `householder::rank1_rows`'s contract.
    ///
    /// # Safety
    /// Same slice-shape contract as the scalar `rank1_rows` plus backend
    /// ISA availability.
    #[allow(clippy::type_complexity)]
    pub rank1_rows: unsafe fn(&mut [T], usize, usize, usize, usize, &[T], &mut [T], &[T]),
    /// The blocked factor's strip dot pass: `(at, width, rows, j, col,
    /// wacc)` — exactly `householder::strip_dot_rows`'s contract, two
    /// chains per lane summed once per reflector.
    ///
    /// # Safety
    /// Same slice-shape contract as the scalar `strip_dot_rows` (`at` holds
    /// `rows * width` with `width <= FACTOR_BLOCK`, `col` the reflector
    /// tail, `wacc` `width` lanes) plus backend ISA availability.
    #[allow(clippy::type_complexity)]
    pub strip_dot_rows: unsafe fn(&mut [T], usize, usize, usize, &[T], &mut [T]),
    /// The blocked factor's first pass: `(at, width, rows, c0, nb, v, acc)`
    /// — exactly `householder::block_dot_rows`'s contract.
    ///
    /// # Safety
    /// Same slice-shape contract as the scalar `block_dot_rows` (`at` holds
    /// `rows * width`, `v` the `(rows - c0) x nb` strip, `acc` `nb * width`)
    /// plus backend ISA availability.
    #[allow(clippy::type_complexity)]
    pub block_dot_rows: unsafe fn(&mut [T], usize, usize, usize, usize, &[T], &mut [T]),
    /// The blocked factor's update pass: `(at, width, rows, c0, nb, v, tb,
    /// acc, next)` — exactly `householder::block_update_rows`'s contract.
    ///
    /// # Safety
    /// Same slice-shape contract as the scalar `block_update_rows` plus
    /// backend ISA availability.
    #[allow(clippy::type_complexity)]
    pub block_update_rows:
        unsafe fn(&mut [T], usize, usize, usize, usize, &[T], &[T], &mut [T], &mut [T]),
}

impl<T> Clone for FactorKernels<T> {
    fn clone(&self) -> Self {
        *self
    }
}
impl<T> Copy for FactorKernels<T> {}

/// One backend's small column kernels for the streaming-gemm and
/// compact-WY `larfb` column paths.
pub struct SmallKernels<T> {
    /// Fused dot product over the common prefix of two slices. The
    /// reduction order is backend-specific (tolerance-gated, not bitwise).
    ///
    /// # Safety
    /// Backend ISA availability only; slices carry their lengths.
    pub dot: unsafe fn(&[T], &[T]) -> T,
    /// `y[i] += s * x[i]` (fused) over the common prefix — element-wise,
    /// so bit-identical across backends.
    ///
    /// # Safety
    /// Backend ISA availability only; slices carry their lengths.
    pub axpy: unsafe fn(T, &[T], &mut [T]),
}

impl<T> Clone for SmallKernels<T> {
    fn clone(&self) -> Self {
        *self
    }
}
impl<T> Copy for SmallKernels<T> {}

/// Scalar types with dispatched kernel tables. Implemented for `f32`/`f64`;
/// a supertrait of [`Scalar`] so every generic routine can fetch its
/// backend's kernels.
pub trait SimdScalar: Copy + Send + Sync + 'static {
    /// The packed-gemm microkernel for `backend`.
    fn gemm_kernel(backend: Backend) -> GemmKernel<Self>;
    /// The fused factor-sweep row passes for `backend`.
    fn factor_kernels(backend: Backend) -> FactorKernels<Self>;
    /// The small dot/axpy column kernels for `backend`.
    fn small_kernels(backend: Backend) -> SmallKernels<Self>;
}

// ---------------------------------------------------------------------------
// Vector abstraction
// ---------------------------------------------------------------------------

/// A SIMD vector of `T` lanes. Methods are `unsafe` because the caller must
/// guarantee the backing ISA is enabled; every implementation is
/// `#[inline(always)]` so bodies fold into the `#[target_feature]` wrappers
/// they are instantiated from and get compiled with that ISA.
pub(crate) trait Vf<T>: Copy {
    /// Lane count.
    const LANES: usize;
    /// Unaligned load of `LANES` elements.
    unsafe fn load(p: *const T) -> Self;
    /// Unaligned store of `LANES` elements.
    unsafe fn store(self, p: *mut T);
    /// Broadcast one scalar to every lane.
    unsafe fn splat(x: T) -> Self;
    /// Fused `self * b + acc`, per lane.
    unsafe fn mul_add(self, b: Self, acc: Self) -> Self;
    /// Fused `acc - self * b` (fnmadd), per lane.
    #[cfg(target_arch = "aarch64")]
    unsafe fn neg_mul_add(self, b: Self, acc: Self) -> Self;
    /// Lane-wise `self + b`.
    unsafe fn add(self, b: Self) -> Self;
    /// Horizontal sum of all lanes.
    unsafe fn reduce_add(self) -> T;
}

#[cfg(target_arch = "x86_64")]
mod x86 {
    //! 256-bit (AVX2+FMA) and 512-bit (AVX-512F) vector impls.
    use super::Vf;
    use core::arch::x86_64::*;

    #[derive(Clone, Copy)]
    pub(crate) struct F64x4(__m256d);
    impl Vf<f64> for F64x4 {
        const LANES: usize = 4;
        #[inline(always)]
        unsafe fn load(p: *const f64) -> Self {
            Self(_mm256_loadu_pd(p))
        }
        #[inline(always)]
        unsafe fn store(self, p: *mut f64) {
            _mm256_storeu_pd(p, self.0)
        }
        #[inline(always)]
        unsafe fn splat(x: f64) -> Self {
            Self(_mm256_set1_pd(x))
        }
        #[inline(always)]
        unsafe fn mul_add(self, b: Self, acc: Self) -> Self {
            Self(_mm256_fmadd_pd(self.0, b.0, acc.0))
        }
        #[inline(always)]
        unsafe fn add(self, b: Self) -> Self {
            Self(_mm256_add_pd(self.0, b.0))
        }
        #[inline(always)]
        unsafe fn reduce_add(self) -> f64 {
            let lo = _mm256_castpd256_pd128(self.0);
            let hi = _mm256_extractf128_pd(self.0, 1);
            let s = _mm_add_pd(lo, hi);
            let odd = _mm_unpackhi_pd(s, s);
            _mm_cvtsd_f64(_mm_add_sd(s, odd))
        }
    }

    #[derive(Clone, Copy)]
    pub(crate) struct F32x8(__m256);
    impl Vf<f32> for F32x8 {
        const LANES: usize = 8;
        #[inline(always)]
        unsafe fn load(p: *const f32) -> Self {
            Self(_mm256_loadu_ps(p))
        }
        #[inline(always)]
        unsafe fn store(self, p: *mut f32) {
            _mm256_storeu_ps(p, self.0)
        }
        #[inline(always)]
        unsafe fn splat(x: f32) -> Self {
            Self(_mm256_set1_ps(x))
        }
        #[inline(always)]
        unsafe fn mul_add(self, b: Self, acc: Self) -> Self {
            Self(_mm256_fmadd_ps(self.0, b.0, acc.0))
        }
        #[inline(always)]
        unsafe fn add(self, b: Self) -> Self {
            Self(_mm256_add_ps(self.0, b.0))
        }
        #[inline(always)]
        unsafe fn reduce_add(self) -> f32 {
            let lo = _mm256_castps256_ps128(self.0);
            let hi = _mm256_extractf128_ps(self.0, 1);
            let s = _mm_add_ps(lo, hi);
            let s = _mm_add_ps(s, _mm_movehl_ps(s, s));
            let s = _mm_add_ss(s, _mm_shuffle_ps::<1>(s, s));
            _mm_cvtss_f32(s)
        }
    }

    #[derive(Clone, Copy)]
    pub(crate) struct F64x8(__m512d);
    impl Vf<f64> for F64x8 {
        const LANES: usize = 8;
        #[inline(always)]
        unsafe fn load(p: *const f64) -> Self {
            Self(_mm512_loadu_pd(p))
        }
        #[inline(always)]
        unsafe fn store(self, p: *mut f64) {
            _mm512_storeu_pd(p, self.0)
        }
        #[inline(always)]
        unsafe fn splat(x: f64) -> Self {
            Self(_mm512_set1_pd(x))
        }
        #[inline(always)]
        unsafe fn mul_add(self, b: Self, acc: Self) -> Self {
            Self(_mm512_fmadd_pd(self.0, b.0, acc.0))
        }
        #[inline(always)]
        unsafe fn add(self, b: Self) -> Self {
            Self(_mm512_add_pd(self.0, b.0))
        }
        #[inline(always)]
        unsafe fn reduce_add(self) -> f64 {
            _mm512_reduce_add_pd(self.0)
        }
    }

    #[derive(Clone, Copy)]
    pub(crate) struct F32x16(__m512);
    impl Vf<f32> for F32x16 {
        const LANES: usize = 16;
        #[inline(always)]
        unsafe fn load(p: *const f32) -> Self {
            Self(_mm512_loadu_ps(p))
        }
        #[inline(always)]
        unsafe fn store(self, p: *mut f32) {
            _mm512_storeu_ps(p, self.0)
        }
        #[inline(always)]
        unsafe fn splat(x: f32) -> Self {
            Self(_mm512_set1_ps(x))
        }
        #[inline(always)]
        unsafe fn mul_add(self, b: Self, acc: Self) -> Self {
            Self(_mm512_fmadd_ps(self.0, b.0, acc.0))
        }
        #[inline(always)]
        unsafe fn add(self, b: Self) -> Self {
            Self(_mm512_add_ps(self.0, b.0))
        }
        #[inline(always)]
        unsafe fn reduce_add(self) -> f32 {
            _mm512_reduce_add_ps(self.0)
        }
    }
}

#[cfg(target_arch = "aarch64")]
mod neon_v {
    //! 128-bit NEON vector impls (baseline on aarch64, no detection needed).
    use super::Vf;
    use core::arch::aarch64::*;

    #[derive(Clone, Copy)]
    pub(crate) struct F64x2(float64x2_t);
    impl Vf<f64> for F64x2 {
        const LANES: usize = 2;
        #[inline(always)]
        unsafe fn load(p: *const f64) -> Self {
            Self(vld1q_f64(p))
        }
        #[inline(always)]
        unsafe fn store(self, p: *mut f64) {
            vst1q_f64(p, self.0)
        }
        #[inline(always)]
        unsafe fn splat(x: f64) -> Self {
            Self(vdupq_n_f64(x))
        }
        #[inline(always)]
        unsafe fn mul_add(self, b: Self, acc: Self) -> Self {
            Self(vfmaq_f64(acc.0, self.0, b.0))
        }
        #[inline(always)]
        unsafe fn neg_mul_add(self, b: Self, acc: Self) -> Self {
            Self(vfmsq_f64(acc.0, self.0, b.0))
        }
        #[inline(always)]
        unsafe fn add(self, b: Self) -> Self {
            Self(vaddq_f64(self.0, b.0))
        }
        #[inline(always)]
        unsafe fn reduce_add(self) -> f64 {
            vaddvq_f64(self.0)
        }
    }

    #[derive(Clone, Copy)]
    pub(crate) struct F32x4(float32x4_t);
    impl Vf<f32> for F32x4 {
        const LANES: usize = 4;
        #[inline(always)]
        unsafe fn load(p: *const f32) -> Self {
            Self(vld1q_f32(p))
        }
        #[inline(always)]
        unsafe fn store(self, p: *mut f32) {
            vst1q_f32(p, self.0)
        }
        #[inline(always)]
        unsafe fn splat(x: f32) -> Self {
            Self(vdupq_n_f32(x))
        }
        #[inline(always)]
        unsafe fn mul_add(self, b: Self, acc: Self) -> Self {
            Self(vfmaq_f32(acc.0, self.0, b.0))
        }
        #[inline(always)]
        unsafe fn neg_mul_add(self, b: Self, acc: Self) -> Self {
            Self(vfmsq_f32(acc.0, self.0, b.0))
        }
        #[inline(always)]
        unsafe fn add(self, b: Self) -> Self {
            Self(vaddq_f32(self.0, b.0))
        }
        #[inline(always)]
        unsafe fn reduce_add(self) -> f32 {
            vaddvq_f32(self.0)
        }
    }
}

// ---------------------------------------------------------------------------
// Scalar kernels (the oracles)
// ---------------------------------------------------------------------------

/// Offsets of the `NR` columns of `B` a microkernel broadcasts from: the
/// packed layout's `0..NR`, or for a `STRIDED` `B` the live columns' `j *
/// csb` with the dead lanes past `w` pointing at column `w - 1` again.
#[inline(always)]
fn b_col_offsets<const NR: usize, const STRIDED: bool>(csb: usize, w: usize) -> [usize; NR] {
    std::array::from_fn(|jj| if STRIDED { jj.min(w - 1) * csb } else { jj })
}

/// The 8x4 scalar gemm microkernel body, bit-for-bit the PR-2 loop nest.
/// `FUSED` selects fused vs multiply-then-add arithmetic so the same body
/// serves the oracle (compile-time choice) and the [`Backend::Fma`] tier
/// (always fused, compiled under `#[target_feature(enable = "fma")]`).
/// `STRIDED` selects the in-place `B` of [`GemmKernel::ukr_strided`] over
/// the packed one (`rsb == SCALAR_NR`, `csb == 1`).
///
/// # Safety
/// See [`GemmKernel::ukr`] and [`GemmKernel::ukr_strided`]; `mr = 8`,
/// `nr = 4`.
#[inline(always)]
#[allow(clippy::too_many_arguments)]
unsafe fn gemm_ukr_scalar_body<T: Scalar, const FUSED: bool, const STRIDED: bool>(
    kb: usize,
    ap: *const T,
    bp: *const T,
    rsb: usize,
    csb: usize,
    alpha: T,
    c: *mut T,
    ldc: usize,
    h: usize,
    w: usize,
) {
    #[inline(always)]
    fn f<T: Scalar, const FUSED: bool>(a: T, b: T, acc: T) -> T {
        if FUSED {
            a.mul_add(b, acc)
        } else {
            a * b + acc
        }
    }
    let boff = b_col_offsets::<SCALAR_NR, STRIDED>(csb, w);
    let mut acc = [[T::ZERO; SCALAR_MR]; SCALAR_NR];
    for p in 0..kb {
        let av = ap.add(p * SCALAR_MR);
        let bv = bp.add(p * rsb);
        for (jj, accj) in acc.iter_mut().enumerate() {
            let bj = *bv.add(boff[jj]);
            for (ii, aij) in accj.iter_mut().enumerate() {
                *aij = f::<T, FUSED>(*av.add(ii), bj, *aij);
            }
        }
    }
    for (jj, accj) in acc.iter().take(w).enumerate() {
        let cj = c.add(jj * ldc);
        for (ii, &av) in accj.iter().take(h).enumerate() {
            let ci = cj.add(ii);
            *ci = f::<T, FUSED>(alpha, av, *ci);
        }
    }
}

/// Portable scalar gemm microkernel — the oracle. Fusedness follows the
/// compile-time target exactly like the PR-2 `fmadd`, so a
/// `CAQR_SIMD=scalar` run reproduces the old results bit-for-bit.
///
/// # Safety
/// See [`GemmKernel::ukr`]; `mr = 8`, `nr = 4`.
#[allow(clippy::too_many_arguments)]
pub(crate) unsafe fn gemm_ukr_scalar<T: Scalar>(
    kb: usize,
    ap: *const T,
    bp: *const T,
    alpha: T,
    c: *mut T,
    ldc: usize,
    h: usize,
    w: usize,
) {
    if cfg!(any(target_feature = "fma", target_arch = "aarch64")) {
        gemm_ukr_scalar_body::<T, true, false>(kb, ap, bp, SCALAR_NR, 1, alpha, c, ldc, h, w)
    } else {
        gemm_ukr_scalar_body::<T, false, false>(kb, ap, bp, SCALAR_NR, 1, alpha, c, ldc, h, w)
    }
}

/// The scalar oracle's strided-`B` instance (see [`GemmKernel::ukr_strided`]).
///
/// # Safety
/// See [`GemmKernel::ukr_strided`]; `mr = 8`, `nr = 4`.
#[allow(clippy::too_many_arguments)]
pub(crate) unsafe fn gemm_ukr_scalar_strided<T: Scalar>(
    kb: usize,
    ap: *const T,
    b: *const T,
    rsb: usize,
    csb: usize,
    alpha: T,
    c: *mut T,
    ldc: usize,
    h: usize,
    w: usize,
) {
    if cfg!(any(target_feature = "fma", target_arch = "aarch64")) {
        gemm_ukr_scalar_body::<T, true, true>(kb, ap, b, rsb, csb, alpha, c, ldc, h, w)
    } else {
        gemm_ukr_scalar_body::<T, false, true>(kb, ap, b, rsb, csb, alpha, c, ldc, h, w)
    }
}

/// Scalar fused dot over the common prefix — the `gemm_small`/`larfb`
/// column oracle (one `mul_add` chain in ascending index order).
pub(crate) fn small_dot_scalar<T: Scalar>(x: &[T], y: &[T]) -> T {
    let mut acc = T::ZERO;
    for (&a, &b) in x.iter().zip(y) {
        acc = a.mul_add(b, acc);
    }
    acc
}

/// Scalar fused axpy `y += s * x` over the common prefix.
pub(crate) fn small_axpy_scalar<T: Scalar>(s: T, x: &[T], y: &mut [T]) {
    for (yi, &xi) in y.iter_mut().zip(x) {
        *yi = s.mul_add(xi, *yi);
    }
}

// ---------------------------------------------------------------------------
// Generic SIMD kernel bodies (instantiated inside target_feature wrappers)
// ---------------------------------------------------------------------------

/// Vectorized gemm microkernel: `RV` vectors of `V` tall (`mr = RV *
/// LANES`) by `NR` columns of accumulators. Full tiles are read-modified
/// in-place with vector loads/stores; ragged edges spill the accumulators
/// to a stack buffer and write the live corner scalar-wise. `STRIDED`
/// selects the in-place `B` of [`GemmKernel::ukr_strided`]; the packed
/// instance passes `rsb == NR`, `csb == 1`, which fold to constants.
///
/// # Safety
/// See [`GemmKernel::ukr`] and [`GemmKernel::ukr_strided`] with
/// `mr = RV * V::LANES`, `nr = NR`; the ISA backing `V` must be enabled in
/// the calling context.
#[inline(always)]
#[allow(clippy::too_many_arguments)]
unsafe fn gemm_ukr_v<T: Scalar, V: Vf<T>, const RV: usize, const NR: usize, const STRIDED: bool>(
    kb: usize,
    ap: *const T,
    bp: *const T,
    rsb: usize,
    csb: usize,
    alpha: T,
    c: *mut T,
    ldc: usize,
    h: usize,
    w: usize,
) {
    let mr = RV * V::LANES;
    let zero = V::splat(T::ZERO);
    let boff = b_col_offsets::<NR, STRIDED>(csb, w);
    let mut acc = [[zero; RV]; NR];
    for p in 0..kb {
        let a0 = ap.add(p * mr);
        let b0 = bp.add(p * rsb);
        let mut av = [zero; RV];
        for (q, aq) in av.iter_mut().enumerate() {
            *aq = V::load(a0.add(q * V::LANES));
        }
        for (jj, accj) in acc.iter_mut().enumerate() {
            let bj = V::splat(*b0.add(boff[jj]));
            for (q, aq) in accj.iter_mut().enumerate() {
                *aq = av[q].mul_add(bj, *aq);
            }
        }
    }
    if h == mr && w == NR {
        let va = V::splat(alpha);
        for (jj, accj) in acc.iter().enumerate() {
            let cj = c.add(jj * ldc);
            for (q, &aq) in accj.iter().enumerate() {
                let p = cj.add(q * V::LANES);
                aq.mul_add(va, V::load(p)).store(p);
            }
        }
    } else {
        let mut tmp = [T::ZERO; MAX_MR];
        for (jj, accj) in acc.iter().take(w).enumerate() {
            for (q, &aq) in accj.iter().enumerate() {
                aq.store(tmp.as_mut_ptr().add(q * V::LANES));
            }
            let cj = c.add(jj * ldc);
            for (ii, &tv) in tmp.iter().take(h).enumerate() {
                let ci = cj.add(ii);
                *ci = alpha.mul_add(tv, *ci);
            }
        }
    }
}

/// Vectorized factor-sweep dot pass, dispatched by the NEON tier (the x86
/// tiers take the auto-vectorized scalar sweep, see `x86_factor_auto`).
/// Register-resident accumulators when the width is a small multiple of a
/// vector ([`dot_rows_rv`]), otherwise memory-resident lanes chunked
/// wide/narrow/scalar ([`dot_rows_any_v`]). Per-lane chains match the
/// scalar oracle exactly (fused, same row order), so the result is
/// bit-identical to it.
///
/// # Safety
/// Scalar `dot_rows` contract + the ISA backing `VW`/`VN` enabled.
#[cfg(target_arch = "aarch64")]
#[inline(always)]
unsafe fn dot_rows_v<T: Scalar, VW: Vf<T>, VN: Vf<T>>(
    at: &mut [T],
    width: usize,
    rows: usize,
    tri_block: usize,
    j: usize,
    col: &[T],
    wacc: &mut [T],
) {
    if width.is_multiple_of(VW::LANES) {
        match width / VW::LANES {
            1 => return dot_rows_rv::<T, VW, 1>(at, width, rows, tri_block, j, col, wacc),
            2 => return dot_rows_rv::<T, VW, 2>(at, width, rows, tri_block, j, col, wacc),
            4 => return dot_rows_rv::<T, VW, 4>(at, width, rows, tri_block, j, col, wacc),
            8 => return dot_rows_rv::<T, VW, 8>(at, width, rows, tri_block, j, col, wacc),
            _ => {}
        }
    } else if VN::LANES < VW::LANES && width.is_multiple_of(VN::LANES) {
        match width / VN::LANES {
            1 => return dot_rows_rv::<T, VN, 1>(at, width, rows, tri_block, j, col, wacc),
            2 => return dot_rows_rv::<T, VN, 2>(at, width, rows, tri_block, j, col, wacc),
            4 => return dot_rows_rv::<T, VN, 4>(at, width, rows, tri_block, j, col, wacc),
            8 => return dot_rows_rv::<T, VN, 8>(at, width, rows, tri_block, j, col, wacc),
            _ => {}
        }
    }
    dot_rows_any_v::<T, VW, VN>(at, width, rows, tri_block, j, col, wacc)
}

/// Dot pass with `RV` register-resident accumulator vectors
/// (`width == RV * V::LANES`).
///
/// # Safety
/// Scalar `dot_rows` contract + the ISA backing `V` enabled.
#[cfg(target_arch = "aarch64")]
#[inline(always)]
unsafe fn dot_rows_rv<T: Scalar, V: Vf<T>, const RV: usize>(
    at: &mut [T],
    width: usize,
    rows: usize,
    tri_block: usize,
    j: usize,
    col: &[T],
    wacc: &mut [T],
) {
    debug_assert_eq!(width, RV * V::LANES);
    let mut acc = [V::splat(T::ZERO); RV];
    for (q, aq) in acc.iter_mut().enumerate() {
        *aq = V::load(wacc.as_ptr().add(q * V::LANES));
    }
    let base = at.as_mut_ptr();
    if tri_block == 0 {
        for r in j + 1..rows {
            let row = base.add(r * width);
            let vr = col[r - j];
            let bv = V::splat(vr);
            for (q, aq) in acc.iter_mut().enumerate() {
                *aq = V::load(row.add(q * V::LANES)).mul_add(bv, *aq);
            }
            // Scatter after the loads, exactly like the scalar sweep: lane j
            // (dead) accumulates the old A(r, j), and the narrow store never
            // sits in front of a wider load that overlaps it.
            *row.add(j) = vr;
        }
    } else {
        // Wrapping position counter, no per-row division (see the scalar
        // `dot_rows_w`): rows whose v_r is a structural zero are skipped.
        let mut loc = (j + 1) % tri_block;
        for r in j + 1..rows {
            let skip = loc > j;
            loc += 1;
            if loc == tri_block {
                loc = 0;
            }
            if skip {
                continue;
            }
            let row = base.add(r * width);
            let vr = col[r - j];
            let bv = V::splat(vr);
            for (q, aq) in acc.iter_mut().enumerate() {
                *aq = V::load(row.add(q * V::LANES)).mul_add(bv, *aq);
            }
            *row.add(j) = vr;
        }
    }
    for (q, &aq) in acc.iter().enumerate() {
        aq.store(wacc.as_mut_ptr().add(q * V::LANES));
    }
}

/// Dot pass for widths with no register-tile match: `wacc` stays in
/// memory, each row chunked as wide vectors, then narrow, then scalar.
///
/// # Safety
/// Scalar `dot_rows` contract + the ISA backing `VW`/`VN` enabled.
#[cfg(target_arch = "aarch64")]
#[inline(always)]
unsafe fn dot_rows_any_v<T: Scalar, VW: Vf<T>, VN: Vf<T>>(
    at: &mut [T],
    width: usize,
    rows: usize,
    tri_block: usize,
    j: usize,
    col: &[T],
    wacc: &mut [T],
) {
    let nw = width / VW::LANES * VW::LANES;
    let nn = nw + (width - nw) / VN::LANES * VN::LANES;
    let base = at.as_mut_ptr();
    let wp = wacc.as_mut_ptr();
    for r in j + 1..rows {
        if tri_block > 0 && r % tri_block > j {
            continue;
        }
        let row = base.add(r * width);
        let vr = col[r - j];
        let bw = VW::splat(vr);
        let mut l = 0;
        while l < nw {
            let p = wp.add(l);
            VW::load(row.add(l)).mul_add(bw, VW::load(p)).store(p);
            l += VW::LANES;
        }
        if nn > nw {
            let bn = VN::splat(vr);
            while l < nn {
                let p = wp.add(l);
                VN::load(row.add(l)).mul_add(bn, VN::load(p)).store(p);
                l += VN::LANES;
            }
        }
        while l < width {
            *wp.add(l) = (*row.add(l)).mul_add(vr, *wp.add(l));
            l += 1;
        }
        // After the row's loads, as in the scalar sweep.
        *row.add(j) = vr;
    }
}

/// Vectorized factor-sweep rank-1 update pass, harvesting the next pivot
/// column like the scalar `rank1_rows`. The trailing segment is chunked
/// wide/narrow/scalar; `fnmadd` bit-matches the oracle's
/// `(-tw).mul_add(vr, seg)` on every lane.
///
/// # Safety
/// Scalar `rank1_rows` contract + the ISA backing `VW`/`VN` enabled.
#[cfg(target_arch = "aarch64")]
#[inline(always)]
#[allow(clippy::too_many_arguments)]
unsafe fn rank1_rows_v<T: Scalar, VW: Vf<T>, VN: Vf<T>>(
    at: &mut [T],
    width: usize,
    rows: usize,
    tri_block: usize,
    j: usize,
    col: &[T],
    next: &mut [T],
    tw: &[T],
) {
    let nt = width - j - 1;
    let nw = nt / VW::LANES * VW::LANES;
    let nn = nw + (nt - nw) / VN::LANES * VN::LANES;
    let base = at.as_mut_ptr();
    let twp = tw.as_ptr();
    for r in j + 1..rows {
        let rowt = base.add(r * width + j + 1);
        if tri_block > 0 && r % tri_block > j {
            // Untouched by this reflector; its column j + 1 entry is final.
            next[r - j - 1] = *rowt;
            continue;
        }
        let vr = col[r - j];
        let bw = VW::splat(vr);
        let mut l = 0;
        while l < nw {
            let p = rowt.add(l);
            VW::load(twp.add(l)).neg_mul_add(bw, VW::load(p)).store(p);
            l += VW::LANES;
        }
        if nn > nw {
            let bn = VN::splat(vr);
            while l < nn {
                let p = rowt.add(l);
                VN::load(twp.add(l)).neg_mul_add(bn, VN::load(p)).store(p);
                l += VN::LANES;
            }
        }
        while l < nt {
            let p = rowt.add(l);
            *p = (-*twp.add(l)).mul_add(vr, *p);
            l += 1;
        }
        next[r - j - 1] = *rowt;
    }
}

/// Vectorized fused dot with four independent accumulator vectors (the
/// reduction order differs from the scalar oracle — tolerance-gated).
///
/// # Safety
/// The ISA backing `V` must be enabled.
#[inline(always)]
unsafe fn small_dot_v<T: Scalar, V: Vf<T>>(x: &[T], y: &[T]) -> T {
    let n = x.len().min(y.len());
    let xs = x.as_ptr();
    let ys = y.as_ptr();
    let stride = 4 * V::LANES;
    let mut acc = [V::splat(T::ZERO); 4];
    let mut i = 0;
    while i + stride <= n {
        for (q, aq) in acc.iter_mut().enumerate() {
            let o = i + q * V::LANES;
            *aq = V::load(xs.add(o)).mul_add(V::load(ys.add(o)), *aq);
        }
        i += stride;
    }
    while i + V::LANES <= n {
        acc[0] = V::load(xs.add(i)).mul_add(V::load(ys.add(i)), acc[0]);
        i += V::LANES;
    }
    let mut s = acc[0].add(acc[1]).add(acc[2].add(acc[3])).reduce_add();
    while i < n {
        s = (*xs.add(i)).mul_add(*ys.add(i), s);
        i += 1;
    }
    s
}

/// Vectorized fused axpy `y += s * x` — element-wise, bit-identical to the
/// scalar oracle.
///
/// # Safety
/// The ISA backing `V` must be enabled.
#[inline(always)]
unsafe fn small_axpy_v<T: Scalar, V: Vf<T>>(s: T, x: &[T], y: &mut [T]) {
    let n = x.len().min(y.len());
    let sv = V::splat(s);
    let xs = x.as_ptr();
    let yp = y.as_mut_ptr();
    let nv = n / V::LANES * V::LANES;
    let mut i = 0;
    while i < nv {
        let p = yp.add(i);
        V::load(xs.add(i)).mul_add(sv, V::load(p)).store(p);
        i += V::LANES;
    }
    while i < n {
        *yp.add(i) = s.mul_add(*xs.add(i), *yp.add(i));
        i += 1;
    }
}

// ---------------------------------------------------------------------------
// Per-backend target_feature wrappers
// ---------------------------------------------------------------------------

/// The [`Backend::Fma`] gemm tier: the scalar 8x4 body, always fused,
/// compiled with hardware FMA enabled. This is the runtime fix for the old
/// compile-time-only `cfg!(target_feature = "fma")` check.
///
/// # Safety
/// See [`GemmKernel::ukr`]; the host must support FMA.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "fma")]
#[allow(clippy::too_many_arguments)]
unsafe fn gemm_ukr_x86_fma<T: Scalar>(
    kb: usize,
    ap: *const T,
    bp: *const T,
    alpha: T,
    c: *mut T,
    ldc: usize,
    h: usize,
    w: usize,
) {
    gemm_ukr_scalar_body::<T, true, false>(kb, ap, bp, SCALAR_NR, 1, alpha, c, ldc, h, w)
}

/// The [`Backend::Fma`] strided-`B` instance of [`gemm_ukr_x86_fma`].
///
/// # Safety
/// See [`GemmKernel::ukr_strided`]; the host must support FMA.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "fma")]
#[allow(clippy::too_many_arguments)]
unsafe fn gemm_ukr_x86_fma_strided<T: Scalar>(
    kb: usize,
    ap: *const T,
    b: *const T,
    rsb: usize,
    csb: usize,
    alpha: T,
    c: *mut T,
    ldc: usize,
    h: usize,
    w: usize,
) {
    gemm_ukr_scalar_body::<T, true, true>(kb, ap, b, rsb, csb, alpha, c, ldc, h, w)
}

/// The [`Backend::Fma`] factor dot pass: the scalar sweep compiled with
/// hardware FMA (bit-identical — both are fused).
///
/// # Safety
/// Scalar `dot_rows` contract; the host must support FMA.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "fma")]
unsafe fn dot_rows_x86_fma<T: Scalar>(
    at: &mut [T],
    width: usize,
    rows: usize,
    tri_block: usize,
    j: usize,
    col: &[T],
    wacc: &mut [T],
) {
    crate::householder::dot_rows(at, width, rows, tri_block, j, col, wacc)
}

/// The [`Backend::Fma`] factor rank-1 pass (see [`dot_rows_x86_fma`]).
///
/// # Safety
/// Scalar `rank1_rows` contract; the host must support FMA.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "fma")]
#[allow(clippy::too_many_arguments)]
unsafe fn rank1_rows_x86_fma<T: Scalar>(
    at: &mut [T],
    width: usize,
    rows: usize,
    tri_block: usize,
    j: usize,
    col: &[T],
    next: &mut [T],
    tw: &[T],
) {
    crate::householder::rank1_rows(at, width, rows, tri_block, j, col, next, tw)
}

/// Auto-vectorized factor-sweep tiers for the wider x86 backends.
///
/// Measured on an avx512 Xeon, LLVM's auto-vectorization of the
/// width-specialized scalar sweep under 256-bit codegen beats both the
/// handwritten x86 vector kernels (factor_tile 4096x16 f32: auto-avx2
/// ~2.0-2.2 vs handwritten avx2 2.06 / avx512 1.86 GFLOP/s) and 512-bit
/// auto codegen (~1.8) — the sweep is bandwidth-bound, the compiler's
/// unroll-and-jam over the fixed widths wins, and with width-16 panels
/// zmm ops cost more (downclock + tails) than ymm. So Avx2 *and* Avx512
/// reuse the scalar bodies compiled with avx2+fma; the result stays
/// bit-identical (per-element fused chains, no reassociation) which
/// `simd_dispatch.rs` asserts.
macro_rules! x86_factor_auto {
    ($dot:ident, $rank1:ident, $($feat:literal),+) => {
        /// # Safety
        /// Scalar `dot_rows` contract; the host must support the tier's features.
        #[cfg(target_arch = "x86_64")]
        #[target_feature($(enable = $feat),+)]
        unsafe fn $dot<T: Scalar>(
            at: &mut [T],
            width: usize,
            rows: usize,
            tri_block: usize,
            j: usize,
            col: &[T],
            wacc: &mut [T],
        ) {
            crate::householder::dot_rows(at, width, rows, tri_block, j, col, wacc)
        }

        /// # Safety
        /// Scalar `rank1_rows` contract; the host must support the tier's features.
        #[cfg(target_arch = "x86_64")]
        #[target_feature($(enable = $feat),+)]
        #[allow(clippy::too_many_arguments)]
        unsafe fn $rank1<T: Scalar>(
            at: &mut [T],
            width: usize,
            rows: usize,
            tri_block: usize,
            j: usize,
            col: &[T],
            next: &mut [T],
            tw: &[T],
        ) {
            crate::householder::rank1_rows(at, width, rows, tri_block, j, col, next, tw)
        }
    };
}

#[cfg(target_arch = "x86_64")]
x86_factor_auto!(dot_rows_x86_avx2, rank1_rows_x86_avx2, "avx2", "fma");

/// The blocked factor's strip dot pass compiled for one x86 tier. Each
/// tier compiles the scalar two-chain body with its own features; the
/// lanes are independent fused chains in a fixed order, so every tier is
/// bit-identical to the scalar oracle.
macro_rules! x86_strip_dot {
    ($name:ident, $($feat:literal),+) => {
        /// # Safety
        /// Scalar `strip_dot_rows` contract; the host must support the
        /// tier's features.
        #[cfg(target_arch = "x86_64")]
        #[target_feature($(enable = $feat),+)]
        unsafe fn $name<T: Scalar>(
            at: &mut [T],
            width: usize,
            rows: usize,
            j: usize,
            col: &[T],
            wacc: &mut [T],
        ) {
            crate::householder::strip_dot_rows(at, width, rows, j, col, wacc)
        }
    };
}

x86_strip_dot!(strip_dot_x86_fma, "fma");
x86_strip_dot!(strip_dot_x86_avx2, "avx2", "fma");
x86_strip_dot!(strip_dot_x86_avx512, "avx512f", "avx2", "fma");

/// The [`Backend::Fma`] blocked-factor passes: the scalar register block
/// compiled with hardware FMA (bit-identical — both are fused).
///
/// # Safety
/// Scalar `block_dot_rows` contract; the host must support FMA.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "fma")]
unsafe fn block_dot_x86_fma<T: Scalar>(
    at: &mut [T],
    width: usize,
    rows: usize,
    c0: usize,
    nb: usize,
    v: &[T],
    acc: &mut [T],
) {
    crate::householder::block_dot_rows::<T, ScalarCols<SCALAR_BLOCK_CW>>(
        at, width, rows, c0, nb, v, acc,
    )
}

/// The [`Backend::Fma`] blocked update pass (see [`block_dot_x86_fma`]).
///
/// # Safety
/// Scalar `block_update_rows` contract; the host must support FMA.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "fma")]
#[allow(clippy::too_many_arguments)]
unsafe fn block_update_x86_fma<T: Scalar>(
    at: &mut [T],
    width: usize,
    rows: usize,
    c0: usize,
    nb: usize,
    v: &[T],
    tb: &[T],
    acc: &mut [T],
    next: &mut [T],
) {
    crate::householder::block_update_rows::<T, ScalarCols<SCALAR_BLOCK_CW>>(
        at, width, rows, c0, nb, v, tb, acc, next,
    )
}

/// Columns per register block of the scalar blocked-factor passes.
const SCALAR_BLOCK_CW: usize = 4;

/// A vector register block of the blocked factor's passes: one vector `V`
/// across each row. The first pass keeps 8 accumulator vectors and the
/// second 8 rows of `Y` in registers. Each lane runs the scalar
/// [`ScalarCols`] chain with the same fused operations, so the block is
/// bit-identical to the oracle.
#[cfg(target_arch = "x86_64")]
pub(crate) struct VecCols<V>(std::marker::PhantomData<V>);

#[cfg(target_arch = "x86_64")]
impl<T: Scalar, V: Vf<T>> BlockCols<T> for VecCols<V> {
    const CW: usize = V::LANES;

    #[inline(always)]
    unsafe fn dot<const NB: usize>(a: &[T], width: usize, l: usize, v: &[T], acc: &mut [T]) {
        let rows = v.len() / NB;
        assert!(l + V::LANES <= width && a.len() >= rows * width && acc.len() >= NB * width);
        let out = acc.as_mut_ptr().add(l);
        let mut s = [V::splat(T::ZERO); NB];
        for (i, si) in s.iter_mut().enumerate() {
            *si = V::load(out.add(i * width));
        }
        let (ap, vp) = (a.as_ptr().add(l), v.as_ptr());
        for r in 0..rows {
            let x = V::load(ap.add(r * width));
            for (i, si) in s.iter_mut().enumerate() {
                *si = V::splat(*vp.add(r * NB + i)).mul_add(x, *si);
            }
        }
        for (i, si) in s.iter().enumerate() {
            si.store(out.add(i * width));
        }
    }

    #[inline(always)]
    unsafe fn update<const NB: usize>(a: &mut [T], width: usize, l: usize, v: &[T], y: &[T]) {
        let rows = v.len() / NB;
        assert!(l + V::LANES <= width && a.len() >= rows * width && y.len() >= NB * width);
        let mut yv = [V::splat(T::ZERO); NB];
        for (i, yi) in yv.iter_mut().enumerate() {
            *yi = V::load(y.as_ptr().add(i * width + l));
        }
        let (ap, vp) = (a.as_mut_ptr().add(l), v.as_ptr());
        for r in 0..rows {
            let row = ap.add(r * width);
            let mut x = V::load(row);
            for (i, &yi) in yv.iter().enumerate() {
                x = V::splat(-*vp.add(r * NB + i)).mul_add(yi, x);
            }
            x.store(row);
        }
    }
}

/// Generates one backend's concrete kernel set: `#[target_feature]`
/// wrappers around the generic bodies, monomorphized for one scalar type
/// and vector width.
#[cfg(target_arch = "x86_64")]
macro_rules! x86_kernels {
    ($m:ident, $t:ty, $vw:ty, $vb:ty, $rv:literal, $nr:literal, $($feat:literal),+) => {
        mod $m {
            use super::*;

            #[target_feature($(enable = $feat),+)]
            #[allow(clippy::too_many_arguments)]
            pub(crate) unsafe fn ukr(
                kb: usize,
                ap: *const $t,
                bp: *const $t,
                alpha: $t,
                c: *mut $t,
                ldc: usize,
                h: usize,
                w: usize,
            ) {
                gemm_ukr_v::<$t, $vw, $rv, $nr, false>(kb, ap, bp, $nr, 1, alpha, c, ldc, h, w)
            }

            #[target_feature($(enable = $feat),+)]
            #[allow(clippy::too_many_arguments)]
            pub(crate) unsafe fn ukr_strided(
                kb: usize,
                ap: *const $t,
                b: *const $t,
                rsb: usize,
                csb: usize,
                alpha: $t,
                c: *mut $t,
                ldc: usize,
                h: usize,
                w: usize,
            ) {
                gemm_ukr_v::<$t, $vw, $rv, $nr, true>(kb, ap, b, rsb, csb, alpha, c, ldc, h, w)
            }

            #[target_feature($(enable = $feat),+)]
            pub(crate) unsafe fn sdot(x: &[$t], y: &[$t]) -> $t {
                small_dot_v::<$t, $vw>(x, y)
            }

            /// One `$vb` vector per register block: `8` accumulator
            /// vectors, and a block never wider than the 8-column blocks.
            #[target_feature($(enable = $feat),+)]
            pub(crate) unsafe fn bdot(
                at: &mut [$t],
                width: usize,
                rows: usize,
                c0: usize,
                nb: usize,
                v: &[$t],
                acc: &mut [$t],
            ) {
                crate::householder::block_dot_rows::<$t, VecCols<$vb>>(
                    at, width, rows, c0, nb, v, acc,
                )
            }

            #[target_feature($(enable = $feat),+)]
            #[allow(clippy::too_many_arguments)]
            pub(crate) unsafe fn bupdate(
                at: &mut [$t],
                width: usize,
                rows: usize,
                c0: usize,
                nb: usize,
                v: &[$t],
                tb: &[$t],
                acc: &mut [$t],
                next: &mut [$t],
            ) {
                crate::householder::block_update_rows::<$t, VecCols<$vb>>(
                    at, width, rows, c0, nb, v, tb, acc, next,
                )
            }

            #[target_feature($(enable = $feat),+)]
            pub(crate) unsafe fn saxpy(s: $t, x: &[$t], y: &mut [$t]) {
                small_axpy_v::<$t, $vw>(s, x, y)
            }
        }
    };
}

#[cfg(target_arch = "x86_64")]
x86_kernels!(avx2_f32, f32, x86::F32x8, x86::F32x8, 2, 6, "avx2", "fma");
#[cfg(target_arch = "x86_64")]
x86_kernels!(avx2_f64, f64, x86::F64x4, x86::F64x4, 2, 6, "avx2", "fma");
#[cfg(target_arch = "x86_64")]
x86_kernels!(
    avx512_f32,
    f32,
    x86::F32x16,
    x86::F32x8,
    2,
    8,
    "avx512f",
    "avx2",
    "fma"
);
#[cfg(target_arch = "x86_64")]
x86_kernels!(
    avx512_f64,
    f64,
    x86::F64x8,
    x86::F64x8,
    2,
    8,
    "avx512f",
    "avx2",
    "fma"
);

/// NEON kernels need no detection or `target_feature` (baseline on
/// aarch64), so plain unsafe fns suffice.
#[cfg(target_arch = "aarch64")]
macro_rules! neon_kernels {
    ($m:ident, $t:ty, $v:ty, $rv:literal, $nr:literal) => {
        mod $m {
            use super::*;

            #[allow(clippy::too_many_arguments)]
            pub(crate) unsafe fn ukr(
                kb: usize,
                ap: *const $t,
                bp: *const $t,
                alpha: $t,
                c: *mut $t,
                ldc: usize,
                h: usize,
                w: usize,
            ) {
                gemm_ukr_v::<$t, $v, $rv, $nr, false>(kb, ap, bp, $nr, 1, alpha, c, ldc, h, w)
            }

            #[allow(clippy::too_many_arguments)]
            pub(crate) unsafe fn ukr_strided(
                kb: usize,
                ap: *const $t,
                b: *const $t,
                rsb: usize,
                csb: usize,
                alpha: $t,
                c: *mut $t,
                ldc: usize,
                h: usize,
                w: usize,
            ) {
                gemm_ukr_v::<$t, $v, $rv, $nr, true>(kb, ap, b, rsb, csb, alpha, c, ldc, h, w)
            }

            pub(crate) unsafe fn dot(
                at: &mut [$t],
                width: usize,
                rows: usize,
                tri_block: usize,
                j: usize,
                col: &[$t],
                wacc: &mut [$t],
            ) {
                dot_rows_v::<$t, $v, $v>(at, width, rows, tri_block, j, col, wacc)
            }

            #[allow(clippy::too_many_arguments)]
            pub(crate) unsafe fn rank1(
                at: &mut [$t],
                width: usize,
                rows: usize,
                tri_block: usize,
                j: usize,
                col: &[$t],
                next: &mut [$t],
                tw: &[$t],
            ) {
                rank1_rows_v::<$t, $v, $v>(at, width, rows, tri_block, j, col, next, tw)
            }

            pub(crate) unsafe fn sdot(x: &[$t], y: &[$t]) -> $t {
                small_dot_v::<$t, $v>(x, y)
            }

            pub(crate) unsafe fn saxpy(s: $t, x: &[$t], y: &mut [$t]) {
                small_axpy_v::<$t, $v>(s, x, y)
            }
        }
    };
}

#[cfg(target_arch = "aarch64")]
neon_kernels!(neon_f32, f32, neon_v::F32x4, 2, 4);
#[cfg(target_arch = "aarch64")]
neon_kernels!(neon_f64, f64, neon_v::F64x2, 2, 4);

// ---------------------------------------------------------------------------
// Kernel tables
// ---------------------------------------------------------------------------

macro_rules! impl_simd_scalar {
    ($t:ty, $avx2:ident, $avx512:ident, $neon:ident) => {
        impl SimdScalar for $t {
            #[allow(clippy::match_single_binding)]
            fn gemm_kernel(backend: Backend) -> GemmKernel<$t> {
                match backend {
                    #[cfg(target_arch = "x86_64")]
                    Backend::Fma => GemmKernel {
                        mr: SCALAR_MR,
                        nr: SCALAR_NR,
                        ukr: gemm_ukr_x86_fma::<$t>,
                        ukr_strided: gemm_ukr_x86_fma_strided::<$t>,
                    },
                    #[cfg(target_arch = "x86_64")]
                    Backend::Avx2 => GemmKernel {
                        mr: 2 * 256 / (8 * std::mem::size_of::<$t>()),
                        nr: 6,
                        ukr: $avx2::ukr,
                        ukr_strided: $avx2::ukr_strided,
                    },
                    #[cfg(target_arch = "x86_64")]
                    Backend::Avx512 => GemmKernel {
                        mr: 2 * 512 / (8 * std::mem::size_of::<$t>()),
                        nr: 8,
                        ukr: $avx512::ukr,
                        ukr_strided: $avx512::ukr_strided,
                    },
                    #[cfg(target_arch = "aarch64")]
                    Backend::Neon => GemmKernel {
                        mr: 2 * 128 / (8 * std::mem::size_of::<$t>()),
                        nr: 4,
                        ukr: $neon::ukr,
                        ukr_strided: $neon::ukr_strided,
                    },
                    _ => GemmKernel {
                        mr: SCALAR_MR,
                        nr: SCALAR_NR,
                        ukr: gemm_ukr_scalar::<$t>,
                        ukr_strided: gemm_ukr_scalar_strided::<$t>,
                    },
                }
            }

            #[allow(clippy::match_single_binding)]
            fn factor_kernels(backend: Backend) -> FactorKernels<$t> {
                match backend {
                    #[cfg(target_arch = "x86_64")]
                    Backend::Fma => FactorKernels {
                        dot_rows: dot_rows_x86_fma::<$t>,
                        rank1_rows: rank1_rows_x86_fma::<$t>,
                        strip_dot_rows: strip_dot_x86_fma::<$t>,
                        block_dot_rows: block_dot_x86_fma::<$t>,
                        block_update_rows: block_update_x86_fma::<$t>,
                    },
                    // Avx2/Avx512 take the auto-vectorized scalar sweep
                    // compiled with their codegen features, which measured
                    // faster than explicit-vector kernels (see
                    // `x86_factor_auto`). Their blocked passes are explicit
                    // `VecCols` blocks: auto-vectorization spread the update
                    // pass across rows with strided gathers.
                    #[cfg(target_arch = "x86_64")]
                    Backend::Avx2 => FactorKernels {
                        dot_rows: dot_rows_x86_avx2::<$t>,
                        rank1_rows: rank1_rows_x86_avx2::<$t>,
                        strip_dot_rows: strip_dot_x86_avx2::<$t>,
                        block_dot_rows: $avx2::bdot,
                        block_update_rows: $avx2::bupdate,
                    },
                    // Avx512 also takes the 256-bit codegen for the sweep:
                    // with width-16 panels the rows span one or two vectors
                    // and 512-bit ops measured slower (downclock + tail
                    // cost) than ymm.
                    #[cfg(target_arch = "x86_64")]
                    Backend::Avx512 => FactorKernels {
                        dot_rows: dot_rows_x86_avx2::<$t>,
                        rank1_rows: rank1_rows_x86_avx2::<$t>,
                        strip_dot_rows: strip_dot_x86_avx512::<$t>,
                        block_dot_rows: $avx512::bdot,
                        block_update_rows: $avx512::bupdate,
                    },
                    #[cfg(target_arch = "aarch64")]
                    Backend::Neon => FactorKernels {
                        dot_rows: $neon::dot,
                        rank1_rows: $neon::rank1,
                        // The scalar two-chain body: fused on aarch64, in
                        // the oracle's order.
                        strip_dot_rows: crate::householder::strip_dot_rows::<$t>,
                        block_dot_rows: crate::householder::block_dot_rows::<
                            $t,
                            ScalarCols<SCALAR_BLOCK_CW>,
                        >,
                        block_update_rows: crate::householder::block_update_rows::<
                            $t,
                            ScalarCols<SCALAR_BLOCK_CW>,
                        >,
                    },
                    _ => FactorKernels {
                        dot_rows: crate::householder::dot_rows::<$t>,
                        rank1_rows: crate::householder::rank1_rows::<$t>,
                        strip_dot_rows: crate::householder::strip_dot_rows::<$t>,
                        block_dot_rows: crate::householder::block_dot_rows::<
                            $t,
                            ScalarCols<SCALAR_BLOCK_CW>,
                        >,
                        block_update_rows: crate::householder::block_update_rows::<
                            $t,
                            ScalarCols<SCALAR_BLOCK_CW>,
                        >,
                    },
                }
            }

            #[allow(clippy::match_single_binding)]
            fn small_kernels(backend: Backend) -> SmallKernels<$t> {
                match backend {
                    #[cfg(target_arch = "x86_64")]
                    Backend::Avx2 => SmallKernels {
                        dot: $avx2::sdot,
                        axpy: $avx2::saxpy,
                    },
                    #[cfg(target_arch = "x86_64")]
                    Backend::Avx512 => SmallKernels {
                        dot: $avx512::sdot,
                        axpy: $avx512::saxpy,
                    },
                    #[cfg(target_arch = "aarch64")]
                    Backend::Neon => SmallKernels {
                        dot: $neon::sdot,
                        axpy: $neon::saxpy,
                    },
                    _ => SmallKernels {
                        dot: small_dot_scalar::<$t>,
                        axpy: small_axpy_scalar::<$t>,
                    },
                }
            }
        }
    };
}

impl_simd_scalar!(f32, avx2_f32, avx512_f32, neon_f32);
impl_simd_scalar!(f64, avx2_f64, avx512_f64, neon_f64);

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn backend_names_round_trip() {
        for b in [
            Backend::Scalar,
            Backend::Fma,
            Backend::Avx2,
            Backend::Avx512,
            Backend::Neon,
        ] {
            assert_eq!(Backend::parse(b.name()), Some(b));
            assert_eq!(Backend::parse(&b.name().to_uppercase()), Some(b));
        }
        assert_eq!(Backend::parse("sse9"), None);
    }

    #[test]
    fn scalar_always_available_and_active_is_available() {
        assert!(Backend::Scalar.is_available());
        assert!(Backend::available().contains(&Backend::Scalar));
        assert!(active().is_available());
    }

    #[test]
    fn override_hook_forces_backend() {
        // Scalar is always available so this cannot perturb the correctness
        // of concurrently running tests (only briefly their backend).
        set_backend_override(Some(Backend::Scalar));
        assert_eq!(active(), Backend::Scalar);
        set_backend_override(None);
        assert!(active().is_available());
    }

    /// Pack a reference accumulation of `alpha * A * B + C` for one
    /// microkernel-shaped problem, in f64 regardless of T: `ap` and `bp`
    /// are `kb`-deep packed panels of `mr` and `nr` lanes, and only the
    /// live `h x w` corner of `C` is updated.
    fn ukr_reference(
        (kb, mr, nr): (usize, usize, usize),
        ap: &[f64],
        bp: &[f64],
        alpha: f64,
        c0: &[f64],
        ldc: usize,
        (h, w): (usize, usize),
    ) -> Vec<f64> {
        let mut c = c0.to_vec();
        for jj in 0..w {
            for ii in 0..h {
                let mut acc = 0.0;
                for p in 0..kb {
                    acc += ap[p * mr + ii] * bp[p * nr + jj];
                }
                c[jj * ldc + ii] += alpha * acc;
            }
        }
        c
    }

    #[test]
    fn gemm_ukr_matches_reference_on_every_available_backend() {
        let kb = 11;
        for backend in Backend::available() {
            let kern = <f64 as SimdScalar>::gemm_kernel(backend);
            let (mr, nr) = (kern.mr, kern.nr);
            assert!(mr <= MAX_MR, "{backend:?} mr {mr} exceeds MAX_MR");
            let ap: Vec<f64> = (0..kb * mr)
                .map(|i| ((i * 7 + 3) % 13) as f64 - 6.0)
                .collect();
            let bp: Vec<f64> = (0..kb * nr)
                .map(|i| ((i * 5 + 1) % 11) as f64 - 5.0)
                .collect();
            let ldc = mr + 3;
            // Full tile and two ragged corners, including 1x1.
            for (h, w) in [(mr, nr), (mr - 1, nr - 1), (1, 1)] {
                let c0: Vec<f64> = (0..ldc * nr).map(|i| (i % 7) as f64 * 0.5).collect();
                let mut c = c0.clone();
                unsafe {
                    (kern.ukr)(kb, ap.as_ptr(), bp.as_ptr(), 1.5, c.as_mut_ptr(), ldc, h, w);
                }
                let want = ukr_reference((kb, mr, nr), &ap, &bp, 1.5, &c0, ldc, (h, w));
                for (i, (&got, &wv)) in c.iter().zip(&want).enumerate() {
                    // Off-corner entries must be untouched; live entries are
                    // exact here (small integers).
                    assert!(
                        (got - wv).abs() < 1e-9,
                        "{backend:?} ({h}x{w}) idx {i}: {got} vs {wv}"
                    );
                }
            }
        }
    }

    /// Assert one {dot_rows, rank1_rows} pair is bit-identical to the scalar
    /// oracle on a small tile, over both tri_block regimes and every oracle
    /// dot arm: widths 16 and 32 take `dot_rows_w`'s unrolled bodies, 12 the
    /// generic one. Every `wacc` lane is compared, dead lane `j` included.
    fn assert_factor_pair_bit_matches(kern: FactorKernels<f64>, who: &str) {
        let (rows, j) = (10usize, 2usize);
        for width in [12usize, 16, 32] {
            let backend = format!("{who} width {width}");
            for tri_block in [0usize, 4] {
                let at0: Vec<f64> = (0..rows * width)
                    .map(|i| (((i * 13 + 5) % 31) as f64 - 15.0) / 7.0)
                    .collect();
                let col: Vec<f64> = (0..rows - j).map(|i| (i as f64 - 3.0) / 5.0).collect();
                let wacc0: Vec<f64> = (0..width).map(|i| (i as f64) * 0.25 - 1.0).collect();

                let mut at_ref = at0.clone();
                let mut wacc_ref = wacc0.clone();
                crate::householder::dot_rows(
                    &mut at_ref,
                    width,
                    rows,
                    tri_block,
                    j,
                    &col,
                    &mut wacc_ref,
                );
                let mut at_got = at0.clone();
                let mut wacc_got = wacc0.clone();
                unsafe {
                    (kern.dot_rows)(&mut at_got, width, rows, tri_block, j, &col, &mut wacc_got);
                }
                assert_eq!(at_ref, at_got, "{backend:?} dot at, tri_block={tri_block}");
                for (l, (&a, &b)) in wacc_ref.iter().zip(&wacc_got).enumerate() {
                    assert_eq!(
                        a.to_bits(),
                        b.to_bits(),
                        "{backend:?} dot wacc lane {l}, tri_block={tri_block}"
                    );
                }

                let tw: Vec<f64> = (0..width - j - 1).map(|i| (i as f64 - 4.0) / 3.0).collect();
                let mut at_ref = at0.clone();
                let mut next_ref = vec![0.0f64; rows];
                crate::householder::rank1_rows(
                    &mut at_ref,
                    width,
                    rows,
                    tri_block,
                    j,
                    &col,
                    &mut next_ref,
                    &tw,
                );
                let mut at_got = at0.clone();
                let mut next_got = vec![0.0f64; rows];
                unsafe {
                    (kern.rank1_rows)(
                        &mut at_got,
                        width,
                        rows,
                        tri_block,
                        j,
                        &col,
                        &mut next_got,
                        &tw,
                    );
                }
                for (l, (&a, &b)) in at_ref.iter().zip(&at_got).enumerate() {
                    assert_eq!(
                        a.to_bits(),
                        b.to_bits(),
                        "{backend:?} rank1 at idx {l}, tri_block={tri_block}"
                    );
                }
                assert_eq!(next_ref, next_got, "{backend:?} rank1 next");
            }
        }
    }

    #[test]
    fn factor_kernels_bit_match_scalar_oracle_on_every_backend() {
        for backend in Backend::available() {
            assert_factor_pair_bit_matches(
                <f64 as SimdScalar>::factor_kernels(backend),
                backend.name(),
            );
        }
    }

    #[test]
    fn small_kernels_match_oracle_on_every_backend() {
        let n = 37;
        let x: Vec<f32> = (0..n).map(|i| ((i * 3 + 1) % 17) as f32 - 8.0).collect();
        let y0: Vec<f32> = (0..n).map(|i| ((i * 5 + 2) % 13) as f32 - 6.0).collect();
        let dref = small_dot_scalar(&x, &y0);
        for backend in Backend::available() {
            let sk = <f32 as SimdScalar>::small_kernels(backend);
            let d = unsafe { (sk.dot)(&x, &y0) };
            assert!(
                (d - dref).abs() <= 1e-3 * (1.0 + dref.abs()),
                "{backend:?} dot {d} vs {dref}"
            );
            let mut y = y0.clone();
            unsafe { (sk.axpy)(0.75, &x, &mut y) };
            let mut yref = y0.clone();
            small_axpy_scalar(0.75, &x, &mut yref);
            // axpy is element-wise fused on every backend: bit-identical.
            for (l, (&a, &b)) in yref.iter().zip(&y).enumerate() {
                assert_eq!(a.to_bits(), b.to_bits(), "{backend:?} axpy lane {l}");
            }
        }
    }
}
