//! Thread-cached workspace arena for kernel scratch buffers.
//!
//! The hot CAQR kernels (`factor`, `factor_tree`, `apply_qt_h`,
//! `apply_qt_tree`) and the packed-GEMM tasks each need a handful of
//! short-lived scratch buffers per launch. Allocating those with
//! `vec![T::ZERO; n]` costs a heap round-trip *and* a zero-fill on every
//! launch; at CAQR tile rates that is pure overhead. This module hands out
//! size-classed buffers from a per-thread cache backed by a process-wide
//! pool, so steady-state launches never touch the allocator.
//!
//! Contract (see DESIGN.md §9):
//! - Buffers are **dirty** by default: [`take_dirty`] returns a buffer whose
//!   contents are whatever the previous user left behind (never
//!   uninitialised memory — fresh buffers are zero-filled once at birth).
//!   Callers must fully overwrite the slice before reading it, or use
//!   [`take_zeroed`]. [`poison_pools`] exists so tests can prove a kernel
//!   never reads stale contents; it reaches every thread's cache, the
//!   persistent rayon workers' included (each cache catches up with the
//!   latest poison on its owner's next take).
//! - Size classes are powers of two between 2^5 and 2^22 *elements*;
//!   requests above the largest class fall back to a one-off allocation
//!   (counted as a miss).
//! - Thread safety: each thread keeps a small local cache (no locking on
//!   the fast path); overflow and thread exit flush buffers to a global
//!   mutex-guarded pool. The rayon pool's workers are persistent, so each
//!   keeps its warm cache from one parallel region to the next; buffers
//!   move between threads only through cache overflow and the global pool.
//! - [`stats`] exposes process-wide hit/miss counters per element type;
//!   a steady-state miss delta of zero is how the benches verify the
//!   "no per-launch allocation" claim. [`thread_stats`] counts the calling
//!   thread's requests only, so a test can assert exact deltas while other
//!   threads use the arena.

use std::alloc::Layout;
use std::cell::RefCell;
use std::ops::{Deref, DerefMut};
use std::ptr::NonNull;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, MutexGuard, PoisonError};

/// Byte alignment of every arena buffer: one cache line, and wide enough
/// for aligned AVX-512 loads on packed micro-panels. `Vec<T>` only
/// guarantees `align_of::<T>()` (4 or 8), which is why the pool manages
/// raw allocations instead.
pub const POOL_ALIGN: usize = 64;

/// An owned, [`POOL_ALIGN`]-aligned, always-initialised buffer — the
/// arena's storage unit.
pub struct RawBuf<T> {
    ptr: NonNull<T>,
    len: usize,
}

// SAFETY: RawBuf owns its allocation exclusively, like Vec<T>.
unsafe impl<T: Send> Send for RawBuf<T> {}
// SAFETY: shared access only hands out &[T].
unsafe impl<T: Sync> Sync for RawBuf<T> {}

impl<T> RawBuf<T> {
    fn layout(len: usize) -> Layout {
        Layout::array::<T>(len)
            .and_then(|l| l.align_to(POOL_ALIGN))
            .expect("arena: buffer layout overflows")
    }

    /// Allocate an aligned buffer of `len > 0` elements, every element
    /// initialised to `fill`.
    fn alloc(len: usize, fill: T) -> Self
    where
        T: Copy,
    {
        debug_assert!(len > 0);
        let layout = Self::layout(len);
        // SAFETY: layout has non-zero size (len > 0, T is f32/f64).
        let raw = unsafe { std::alloc::alloc(layout) }.cast::<T>();
        let Some(ptr) = NonNull::new(raw) else {
            std::alloc::handle_alloc_error(layout)
        };
        for i in 0..len {
            // SAFETY: i < len elements of the fresh allocation.
            unsafe { ptr.as_ptr().add(i).write(fill) };
        }
        Self { ptr, len }
    }

    #[inline]
    fn len(&self) -> usize {
        self.len
    }

    #[inline]
    fn as_slice(&self) -> &[T] {
        // SAFETY: ptr/len describe an owned, initialised allocation (or a
        // dangling pointer with len == 0, which from_raw_parts permits).
        unsafe { std::slice::from_raw_parts(self.ptr.as_ptr(), self.len) }
    }

    #[inline]
    fn as_mut_slice(&mut self) -> &mut [T] {
        // SAFETY: as for `as_slice`, and we hold `&mut self`.
        unsafe { std::slice::from_raw_parts_mut(self.ptr.as_ptr(), self.len) }
    }
}

impl<T> Default for RawBuf<T> {
    /// An empty buffer with no allocation (dangling, never dereferenced).
    fn default() -> Self {
        Self {
            ptr: NonNull::dangling(),
            len: 0,
        }
    }
}

impl<T> Drop for RawBuf<T> {
    fn drop(&mut self) {
        if self.len > 0 {
            // SAFETY: allocated in `alloc` with this exact layout.
            unsafe { std::alloc::dealloc(self.ptr.as_ptr().cast(), Self::layout(self.len)) };
        }
    }
}

/// log2 of the smallest pooled size class, in elements.
const MIN_CLASS_LOG2: u32 = 5;
/// log2 of the largest pooled size class, in elements (4 Mi elements).
const MAX_CLASS_LOG2: u32 = 22;
/// Number of power-of-two size classes.
const NUM_CLASSES: usize = (MAX_CLASS_LOG2 - MIN_CLASS_LOG2 + 1) as usize;

/// Number of elements in buffers of size class `class`.
#[inline]
fn class_elems(class: usize) -> usize {
    1usize << (MIN_CLASS_LOG2 as usize + class)
}

/// Size class covering `len` elements, or `None` if `len` is above the
/// largest pooled class.
#[inline]
fn class_of(len: usize) -> Option<usize> {
    debug_assert!(len > 0);
    if len > class_elems(NUM_CLASSES - 1) {
        return None;
    }
    let bits = len.next_power_of_two().trailing_zeros();
    Some(bits.saturating_sub(MIN_CLASS_LOG2) as usize)
}

/// Per-class retention cap for the global pool: generous for small
/// buffers, tapering off so the largest classes keep only a few.
#[inline]
fn global_cap(class: usize) -> usize {
    ((1usize << 24) / class_elems(class)).clamp(4, 64)
}

/// Per-class retention cap for a thread's local cache.
#[inline]
fn local_cap(class: usize) -> usize {
    ((1usize << 21) / class_elems(class)).clamp(2, 8)
}

/// Process-wide buffer pool for one element type. One static instance per
/// [`PoolScalar`] impl; all threads share it via short critical sections.
pub struct Pool<T> {
    shelves: [Mutex<Vec<RawBuf<T>>>; NUM_CLASSES],
    hits: AtomicU64,
    misses: AtomicU64,
    /// Generation of the latest [`poison_pools`] call (0: never poisoned).
    /// Published with `Release` after `poison` holds the new value, read
    /// with `Acquire` by caches checking whether they are behind.
    poison_gen: AtomicU64,
    /// The latest poison generation and value.
    poison: Mutex<(u64, Option<T>)>,
}

impl<T> Pool<T> {
    /// A new, empty pool (const so it can back a `static`).
    pub const fn new() -> Self {
        Self {
            shelves: [const { Mutex::new(Vec::new()) }; NUM_CLASSES],
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            poison_gen: AtomicU64::new(0),
            poison: Mutex::new((0, None)),
        }
    }

    fn lock_shelf(&self, class: usize) -> MutexGuard<'_, Vec<RawBuf<T>>> {
        self.shelves[class]
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
    }

    fn get_global(&self, class: usize) -> Option<RawBuf<T>> {
        self.lock_shelf(class).pop()
    }

    fn put_global(&self, class: usize, buf: RawBuf<T>) {
        let mut shelf = self.lock_shelf(class);
        if shelf.len() < global_cap(class) {
            shelf.push(buf);
        }
        // Over cap: drop the buffer (the only place pooled memory is freed).
    }
}

impl<T> Default for Pool<T> {
    fn default() -> Self {
        Self::new()
    }
}

/// A thread's private shelf of cached buffers. Dropping it (thread exit)
/// donates every cached buffer back to the global [`Pool`].
pub struct LocalCache<T: PoolScalar> {
    shelves: [Vec<RawBuf<T>>; NUM_CLASSES],
    /// This thread's requests (see [`thread_stats`]).
    stats: ArenaStats,
    /// The poison generation the cached buffers already hold.
    poison_seen: u64,
}

impl<T: PoolScalar> LocalCache<T> {
    /// A new, empty cache (const so it can back a `thread_local!`).
    pub const fn new() -> Self {
        Self {
            shelves: [const { Vec::new() }; NUM_CLASSES],
            stats: ArenaStats { hits: 0, misses: 0 },
            poison_seen: 0,
        }
    }

    /// Apply the latest [`poison_pools`] value to every cached buffer if
    /// this cache has not seen it yet: one atomic load when up to date.
    fn catch_up(&mut self) {
        let pool = T::pool();
        if pool.poison_gen.load(Ordering::Acquire) == self.poison_seen {
            return;
        }
        let (generation, value) = *pool.poison.lock().unwrap_or_else(PoisonError::into_inner);
        if let Some(value) = value {
            for buf in self.shelves.iter_mut().flatten() {
                buf.as_mut_slice().fill(value);
            }
        }
        self.poison_seen = generation;
    }
}

impl<T: PoolScalar> Default for LocalCache<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T: PoolScalar> Drop for LocalCache<T> {
    fn drop(&mut self) {
        self.catch_up();
        for (class, shelf) in self.shelves.iter_mut().enumerate() {
            for buf in shelf.drain(..) {
                T::pool().put_global(class, buf);
            }
        }
    }
}

/// Element types the arena can pool. Implemented for `f32`/`f64`; a
/// supertrait of [`crate::Scalar`] so every generic kernel can draw scratch
/// from the arena without extra bounds.
pub trait PoolScalar: Copy + Send + Sync + 'static {
    /// Value used to initialise freshly allocated pool buffers (buffers are
    /// always initialised memory, merely *stale*, never uninit).
    const POOL_ZERO: Self;

    /// The process-wide pool for this element type.
    fn pool() -> &'static Pool<Self>;

    /// Run `f` on this thread's local cache. Returns `None` if the cache is
    /// unavailable (thread-local storage already torn down).
    fn with_cache<R>(f: impl FnOnce(&mut LocalCache<Self>) -> R) -> Option<R>;
}

macro_rules! impl_pool_scalar {
    ($t:ty, $pool:ident, $cache:ident) => {
        static $pool: Pool<$t> = Pool::new();
        thread_local! {
            static $cache: RefCell<LocalCache<$t>> = const { RefCell::new(LocalCache::new()) };
        }
        impl PoolScalar for $t {
            const POOL_ZERO: Self = 0.0;

            fn pool() -> &'static Pool<Self> {
                &$pool
            }

            fn with_cache<R>(f: impl FnOnce(&mut LocalCache<Self>) -> R) -> Option<R> {
                $cache.try_with(|c| f(&mut c.borrow_mut())).ok()
            }
        }
    };
}

impl_pool_scalar!(f32, POOL_F32, CACHE_F32);
impl_pool_scalar!(f64, POOL_F64, CACHE_F64);

/// RAII scratch buffer borrowed from the arena. Derefs to a `[T]` of
/// exactly the requested length; the backing allocation is the rounded-up
/// size class and returns to the pool on drop.
#[must_use = "dropping an ArenaBuf returns it to the pool immediately; bind it for as long as the scratch is needed"]
pub struct ArenaBuf<T: PoolScalar> {
    buf: RawBuf<T>,
    len: usize,
    class: Option<usize>,
}

impl<T: PoolScalar> Deref for ArenaBuf<T> {
    type Target = [T];
    #[inline]
    fn deref(&self) -> &[T] {
        &self.buf.as_slice()[..self.len]
    }
}

impl<T: PoolScalar> DerefMut for ArenaBuf<T> {
    #[inline]
    fn deref_mut(&mut self) -> &mut [T] {
        &mut self.buf.as_mut_slice()[..self.len]
    }
}

impl<T: PoolScalar + std::fmt::Debug> std::fmt::Debug for ArenaBuf<T> {
    /// The live elements, like the `[T]` it derefs to.
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_list().entries(self.iter()).finish()
    }
}

impl<T: PoolScalar> Drop for ArenaBuf<T> {
    fn drop(&mut self) {
        let Some(class) = self.class else {
            return; // one-off allocation; RawBuf's Drop frees it
        };
        let buf = std::mem::take(&mut self.buf);
        let overflow = T::with_cache(|c| {
            let shelf = &mut c.shelves[class];
            if shelf.len() < local_cap(class) {
                shelf.push(buf);
                None
            } else {
                Some(buf)
            }
        });
        if let Some(Some(buf)) = overflow {
            T::pool().put_global(class, buf);
        }
        // `overflow == None` means TLS teardown raced us; the closure (and
        // the buffer it owns) is simply dropped, losing one buffer.
    }
}

/// Borrow a scratch buffer of `len` elements with **unspecified stale
/// contents** (initialised, but left over from a previous user). The caller
/// must fully overwrite every element it reads.
#[must_use = "the borrowed buffer is handed back to the pool the moment it is dropped"]
pub fn take_dirty<T: PoolScalar>(len: usize) -> ArenaBuf<T> {
    if len == 0 {
        return ArenaBuf {
            buf: RawBuf::default(),
            len: 0,
            class: None,
        };
    }
    let pool = T::pool();
    let Some(class) = class_of(len) else {
        // Above the largest class: one-off allocation, counted as a miss.
        count::<T>(false);
        return ArenaBuf {
            buf: RawBuf::alloc(len, T::POOL_ZERO),
            len,
            class: None,
        };
    };
    let cached = T::with_cache(|c| {
        c.catch_up();
        c.shelves[class].pop()
    })
    .flatten();
    let buf = match cached.or_else(|| pool.get_global(class)) {
        Some(buf) => {
            count::<T>(true);
            buf
        }
        None => {
            count::<T>(false);
            RawBuf::alloc(class_elems(class), T::POOL_ZERO)
        }
    };
    debug_assert_eq!(buf.len(), class_elems(class));
    ArenaBuf {
        buf,
        len,
        class: Some(class),
    }
}

/// Count one request as a hit or a miss, process-wide and for this thread.
fn count<T: PoolScalar>(hit: bool) {
    let pool = T::pool();
    let global = if hit { &pool.hits } else { &pool.misses };
    global.fetch_add(1, Ordering::Relaxed);
    T::with_cache(|c| {
        let local = if hit {
            &mut c.stats.hits
        } else {
            &mut c.stats.misses
        };
        *local += 1;
    });
}

/// Borrow a scratch buffer of `len` elements, zero-filled.
#[must_use = "the borrowed buffer is handed back to the pool the moment it is dropped"]
pub fn take_zeroed<T: PoolScalar>(len: usize) -> ArenaBuf<T> {
    let mut buf = take_dirty::<T>(len);
    for x in buf.iter_mut() {
        *x = T::POOL_ZERO;
    }
    buf
}

/// Process-wide arena counters for one element type.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ArenaStats {
    /// Requests served from a pooled buffer (no allocation).
    pub hits: u64,
    /// Requests that had to allocate (cold pool or oversize request).
    pub misses: u64,
}

/// Snapshot the hit/miss counters for element type `T`.
pub fn stats<T: PoolScalar>() -> ArenaStats {
    let pool = T::pool();
    ArenaStats {
        hits: pool.hits.load(Ordering::Relaxed),
        misses: pool.misses.load(Ordering::Relaxed),
    }
}

/// Snapshot the hit/miss counters of the calling thread's requests for
/// element type `T`. Unlike [`stats`], other threads cannot move them, so
/// exact deltas around single-threaded work are reliable under parallel
/// tests.
pub fn thread_stats<T: PoolScalar>() -> ArenaStats {
    T::with_cache(|c| c.stats).unwrap_or_default()
}

/// Reset the process-wide hit/miss counters for element type `T` to zero.
pub fn reset_stats<T: PoolScalar>() {
    let pool = T::pool();
    pool.hits.store(0, Ordering::Relaxed);
    pool.misses.store(0, Ordering::Relaxed);
}

/// Pre-populate the global pool with up to `count` buffers of the size
/// class covering `len` elements, without touching the hit/miss counters.
/// Returns how many buffers were actually donated — capped by the class's
/// retention limit, and zero for `len == 0` or requests above the largest
/// pooled class. Benchmarks call this before a measured phase so the
/// steady-state loop runs allocation-free (zero misses).
pub fn prewarm<T: PoolScalar>(len: usize, count: usize) -> usize {
    if len == 0 {
        return 0;
    }
    let Some(class) = class_of(len) else {
        return 0;
    };
    let pool = T::pool();
    let mut shelf = pool.lock_shelf(class);
    let room = global_cap(class).saturating_sub(shelf.len()).min(count);
    for _ in 0..room {
        shelf.push(RawBuf::alloc(class_elems(class), T::POOL_ZERO));
    }
    room
}

/// Overwrite every pooled buffer with `value`: the global pool and this
/// thread's cache now, every other thread's cache on that thread's next
/// take. Test hook: poison with NaN or a sentinel, re-run a kernel, and
/// any read of stale scratch becomes visible in the output. Buffers held
/// (taken and not yet dropped) while this runs keep their contents.
pub fn poison_pools<T: PoolScalar>(value: T) {
    let pool = T::pool();
    {
        let mut poison = pool.poison.lock().unwrap_or_else(PoisonError::into_inner);
        *poison = (poison.0 + 1, Some(value));
        pool.poison_gen.store(poison.0, Ordering::Release);
    }
    for class in 0..NUM_CLASSES {
        for buf in pool.lock_shelf(class).iter_mut() {
            buf.as_mut_slice().fill(value);
        }
    }
    T::with_cache(LocalCache::catch_up);
}

/// Donate every buffer in this thread's local cache back to the global
/// pool (used by tests; worker threads do this automatically on exit).
pub fn flush_thread_cache<T: PoolScalar>() {
    let drained = T::with_cache(|c| {
        c.catch_up();
        let mut out = Vec::new();
        for (class, shelf) in c.shelves.iter_mut().enumerate() {
            for buf in shelf.drain(..) {
                out.push((class, buf));
            }
        }
        out
    });
    if let Some(drained) = drained {
        for (class, buf) in drained {
            T::pool().put_global(class, buf);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn size_classes_round_up_to_powers_of_two() {
        assert_eq!(class_of(1), Some(0));
        assert_eq!(class_of(32), Some(0));
        assert_eq!(class_of(33), Some(1));
        assert_eq!(class_of(64), Some(1));
        assert_eq!(class_of(1 << 22), Some(NUM_CLASSES - 1));
        assert_eq!(class_of((1 << 22) + 1), None);
        for class in 0..NUM_CLASSES {
            assert_eq!(class_of(class_elems(class)), Some(class));
        }
    }

    /// `after - before`, counter by counter.
    fn delta(before: ArenaStats, after: ArenaStats) -> ArenaStats {
        ArenaStats {
            hits: after.hits - before.hits,
            misses: after.misses - before.misses,
        }
    }

    // Tests assert exact deltas of this thread's counters (`thread_stats`):
    // the process-wide ones also move with every sibling test and every
    // rayon worker using the arena concurrently.

    #[test]
    fn buffers_are_reused_and_counted() {
        flush_thread_cache::<f64>();
        let s0 = thread_stats::<f64>();
        {
            let mut a = take_dirty::<f64>(100);
            a[0] = 7.0;
            assert_eq!(a.len(), 100);
        }
        // With an empty local cache the first request is served by the
        // global pool or allocates: exactly one counted request either way.
        let s1 = thread_stats::<f64>();
        assert_eq!(s1.hits + s1.misses, s0.hits + s0.misses + 1);
        // The buffer went to the thread cache; the next same-class request
        // must be a hit.
        let b = take_dirty::<f64>(100);
        assert_eq!(
            delta(s1, thread_stats::<f64>()),
            ArenaStats { hits: 1, misses: 0 }
        );
        drop(b);
    }

    #[test]
    fn debug_prints_the_live_elements() {
        let mut a = take_dirty::<f64>(3);
        a.copy_from_slice(&[1.0, 2.5, -0.0]);
        assert_eq!(format!("{a:?}"), "[1.0, 2.5, -0.0]");
        assert_eq!(format!("{:?}", take_zeroed::<f32>(2)), "[0.0, 0.0]");
    }

    #[test]
    fn dirty_buffers_keep_stale_contents_and_zeroed_buffers_do_not() {
        {
            let mut a = take_dirty::<f64>(48);
            for x in a.iter_mut() {
                *x = f64::NAN;
            }
        }
        poison_pools::<f64>(f64::NAN);
        {
            let a = take_dirty::<f64>(48);
            // Documented behaviour: dirty means stale contents survive.
            assert!(a.iter().all(|x| x.is_nan()));
        }
        poison_pools::<f64>(f64::NAN);
        let z = take_zeroed::<f64>(48);
        assert!(z.iter().all(|&x| x == 0.0));
    }

    #[test]
    fn zero_len_and_oversize_requests_work() {
        let e = take_dirty::<f32>(0);
        assert!(e.is_empty());
        let big_len = (1usize << 22) + 1;
        let s0 = thread_stats::<f32>();
        let big = take_dirty::<f32>(big_len);
        assert_eq!(big.len(), big_len);
        // An oversize request is a one-off allocation: one counted miss.
        assert_eq!(
            delta(s0, thread_stats::<f32>()),
            ArenaStats { hits: 0, misses: 1 }
        );
    }

    #[test]
    fn pool_buffers_stay_aligned_across_reuse() {
        // Every buffer the arena hands out — pooled classes, oversize
        // one-offs, and buffers recycled through the local cache and the
        // global pool — must stay POOL_ALIGN-aligned so packed micro-panels
        // can use aligned SIMD loads.
        fn check<T: PoolScalar>(name: &str) {
            for round in 0..3 {
                for len in [1usize, 31, 100, 4097, (1 << 22) + 1] {
                    let b = take_dirty::<T>(len);
                    assert_eq!(
                        b.as_ptr() as usize % POOL_ALIGN,
                        0,
                        "{name} len {len} round {round} misaligned"
                    );
                }
                // Force the local-cache -> global-pool -> reuse path too.
                flush_thread_cache::<T>();
            }
        }
        check::<f32>("f32");
        check::<f64>("f64");
    }

    #[test]
    fn prewarm_fills_the_global_pool_without_counting_misses() {
        // A size class no other test in this module touches, so the shelf
        // occupancy is predictable.
        let len = 150_000usize;
        let class = class_of(len).expect("len fits a pooled class");
        f32::pool().lock_shelf(class).clear();
        let s0 = thread_stats::<f32>();
        assert_eq!(prewarm::<f32>(len, 3), 3);
        // A second prewarm tops the shelf up to the retention cap, no more.
        assert_eq!(prewarm::<f32>(len, usize::MAX), global_cap(class) - 3);
        assert_eq!(prewarm::<f32>(len, 5), 0);
        // Degenerate requests donate nothing.
        assert_eq!(prewarm::<f32>(0, 8), 0);
        assert_eq!(prewarm::<f32>((1 << 22) + 1, 8), 0);
        // Prewarming never touched the hit/miss counters, and the warmed
        // shelf serves the next cold request as a hit.
        let s1 = thread_stats::<f32>();
        assert_eq!(s0, s1);
        drop(take_dirty::<f32>(len));
        assert_eq!(
            delta(s1, thread_stats::<f32>()),
            ArenaStats { hits: 1, misses: 0 }
        );
        // Release the cap-full shelf so the test process does not sit on it.
        f32::pool().lock_shelf(class).clear();
    }

    #[test]
    fn flush_moves_local_buffers_to_global_pool() {
        // Prime the local cache with one buffer, flush, then verify the
        // global pool serves the next request (still a hit).
        drop(take_dirty::<f32>(1000));
        flush_thread_cache::<f32>();
        let s0 = thread_stats::<f32>();
        let b = take_dirty::<f32>(1000);
        assert_eq!(
            delta(s0, thread_stats::<f32>()),
            ArenaStats { hits: 1, misses: 0 }
        );
        drop(b);
    }

    #[test]
    fn poison_reaches_the_caches_of_every_pool_thread() {
        use rayon::prelude::*;
        use std::collections::HashSet;
        use std::sync::atomic::AtomicUsize;
        use std::time::{Duration, Instant};

        // A size class (4 Mi f32) no other test in this crate touches, so a
        // cached buffer is still in its thread's cache one region later.
        const LEN: usize = 3 << 20;
        let width = rayon::current_num_threads();
        // One region of `width` items that wait for each other: every pool
        // thread runs exactly one item. Each item takes a dirty buffer,
        // hands it to `visit` and returns (thread, was the take a hit).
        let region = |visit: &(dyn Fn(&mut [f32]) + Sync)| -> Vec<(std::thread::ThreadId, bool)> {
            let arrived = AtomicUsize::new(0);
            (0..width)
                .into_par_iter()
                .map(|_| {
                    arrived.fetch_add(1, Ordering::SeqCst);
                    let deadline = Instant::now() + Duration::from_secs(30);
                    while arrived.load(Ordering::SeqCst) < width {
                        assert!(Instant::now() < deadline, "a pool thread never joined");
                        std::thread::yield_now();
                    }
                    let s0 = thread_stats::<f32>();
                    let mut buf = take_dirty::<f32>(LEN);
                    let hit = thread_stats::<f32>().hits == s0.hits + 1;
                    visit(&mut buf);
                    (std::thread::current().id(), hit)
                })
                .collect()
        };
        // Warm: every pool thread caches one buffer full of a sentinel.
        let warm = region(&|buf| buf.fill(1.0));
        poison_pools::<f32>(f32::NAN);
        // Every buffer taken in the next region comes from its thread's warm
        // cache and must hold the poison, not the sentinel.
        let checked = region(&|buf| assert!(buf.iter().all(|x| x.is_nan()), "stale buffer"));
        let threads: HashSet<_> = checked.iter().map(|&(t, _)| t).collect();
        assert_eq!(threads.len(), width, "every pool thread took part");
        assert_eq!(
            threads,
            warm.iter().map(|&(t, _)| t).collect::<HashSet<_>>()
        );
        assert!(
            checked.iter().all(|&(_, hit)| hit),
            "every take was served warm"
        );
    }
}
