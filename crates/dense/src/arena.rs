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
//!   never reads stale contents.
//! - Size classes are powers of two between 2^5 and 2^22 *elements*;
//!   requests above the largest class fall back to a one-off allocation
//!   (counted as a miss).
//! - Thread safety: each thread keeps a small local cache behind an
//!   uncontended lock; overflow and thread death flush buffers to a global
//!   mutex-guarded pool. The vendored rayon pool keeps its workers for the
//!   life of the process, so a worker's cache carries over from one
//!   parallel region to the next. Every cache is registered with its pool,
//!   so [`poison_pools`] reaches the buffers other threads hold too.
//! - Provisioning: when a thread's hold on a size class grows to `d`
//!   buffers, the class is topped up to `d` buffers for every thread that
//!   may run kernels at once (the larger of `rayon::current_num_threads()`
//!   and the number of live threads using the arena). A thread only ever
//!   holds as many buffers as its deepest request needed, so once a
//!   warm-up has run every kernel shape on *any* thread, no thread has to
//!   allocate again: zero steady-state misses follow from this rule, not
//!   from which thread happened to run the warm-up.
//! - [`stats`] exposes process-wide hit/miss counters per element type;
//!   a steady-state miss delta of zero is how the benches verify the
//!   "no per-launch allocation" claim.

use std::alloc::Layout;
use std::ops::{Deref, DerefMut};
use std::ptr::NonNull;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, Weak};

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

/// Lock `m`, recovering the guard if a holder panicked: every critical
/// section in this module leaves its shelf or cache valid at every step.
fn lock<X>(m: &Mutex<X>) -> MutexGuard<'_, X> {
    m.lock().unwrap_or_else(|poisoned| poisoned.into_inner())
}

/// A registered thread cache.
type SharedCache<T> = Arc<Mutex<LocalCache<T>>>;

/// Process-wide buffer pool for one element type. One static instance per
/// [`PoolScalar`] impl; all threads share it via short critical sections.
pub struct Pool<T: PoolScalar> {
    shelves: [Mutex<Vec<RawBuf<T>>>; NUM_CLASSES],
    /// Pooled buffers of each class alive anywhere: on a shelf, in a thread
    /// cache or lent out. Provisioning tops this up.
    live: [AtomicUsize; NUM_CLASSES],
    /// Every thread cache, so [`poison_pools`] reaches them all.
    caches: Mutex<Vec<Weak<Mutex<LocalCache<T>>>>>,
    hits: AtomicU64,
    misses: AtomicU64,
}

impl<T: PoolScalar> Pool<T> {
    /// A new, empty pool (const so it can back a `static`).
    pub const fn new() -> Self {
        Self {
            shelves: [const { Mutex::new(Vec::new()) }; NUM_CLASSES],
            live: [const { AtomicUsize::new(0) }; NUM_CLASSES],
            caches: Mutex::new(Vec::new()),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
        }
    }

    fn lock_shelf(&self, class: usize) -> MutexGuard<'_, Vec<RawBuf<T>>> {
        lock(&self.shelves[class])
    }

    fn get_global(&self, class: usize) -> Option<RawBuf<T>> {
        self.lock_shelf(class).pop()
    }

    /// Allocate a fresh buffer of `class`, counted as live.
    fn birth(&self, class: usize) -> RawBuf<T> {
        self.live[class].fetch_add(1, Ordering::Relaxed);
        RawBuf::alloc(class_elems(class), T::POOL_ZERO)
    }

    fn put_global(&self, class: usize, buf: RawBuf<T>) {
        let mut shelf = self.lock_shelf(class);
        if shelf.len() < global_cap(class) {
            shelf.push(buf);
        } else {
            // Over cap: drop the buffer (the only place pooled memory is freed).
            self.live[class].fetch_sub(1, Ordering::Relaxed);
        }
    }

    /// Serve a request the thread cache could not, from a thread now
    /// holding `held` buffers of `class` (this one included). Tops the
    /// class up to `held` buffers per thread that may run kernels at once,
    /// then hands out a shelved buffer. Returns the buffer and whether the
    /// request allocated.
    fn provision(&self, class: usize, held: usize) -> (RawBuf<T>, bool) {
        let live_threads = lock(&self.caches)
            .iter()
            .filter(|c| c.strong_count() > 0)
            .count();
        let threads = live_threads.max(rayon::current_num_threads());
        let want = held.saturating_mul(threads);
        // `fetch_max` reserves the deficit, so racing threads never
        // provision the same buffers twice. The counter publishes no data.
        let deficit = want.saturating_sub(self.live[class].fetch_max(want, Ordering::Relaxed));
        if deficit > 0 {
            for _ in 1..deficit {
                let spare = RawBuf::alloc(class_elems(class), T::POOL_ZERO);
                self.put_global(class, spare);
            }
            return (RawBuf::alloc(class_elems(class), T::POOL_ZERO), true);
        }
        match self.get_global(class) {
            Some(buf) => (buf, false),
            None => (self.birth(class), true),
        }
    }

    /// A new thread cache, registered for [`poison_pools`].
    fn register(&self) -> SharedCache<T> {
        let cache = Arc::new(Mutex::new(LocalCache::new()));
        let mut caches = lock(&self.caches);
        caches.retain(|c| c.strong_count() > 0);
        caches.push(Arc::downgrade(&cache));
        cache
    }
}

impl<T: PoolScalar> Default for Pool<T> {
    fn default() -> Self {
        Self::new()
    }
}

/// A thread's private shelf of cached buffers. Dropping it (thread exit)
/// donates every cached buffer back to the global [`Pool`].
pub struct LocalCache<T: PoolScalar> {
    shelves: [Vec<RawBuf<T>>; NUM_CLASSES],
    /// Buffers of each class this thread has taken and not yet returned.
    held: [usize; NUM_CLASSES],
}

impl<T: PoolScalar> LocalCache<T> {
    /// A new, empty cache.
    pub const fn new() -> Self {
        Self {
            shelves: [const { Vec::new() }; NUM_CLASSES],
            held: [0; NUM_CLASSES],
        }
    }
}

impl<T: PoolScalar> Default for LocalCache<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T: PoolScalar> Drop for LocalCache<T> {
    fn drop(&mut self) {
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
            static $cache: SharedCache<$t> = $pool.register();
        }
        impl PoolScalar for $t {
            const POOL_ZERO: Self = 0.0;

            fn pool() -> &'static Pool<Self> {
                &$pool
            }

            fn with_cache<R>(f: impl FnOnce(&mut LocalCache<Self>) -> R) -> Option<R> {
                $cache.try_with(|c| f(&mut lock(c))).ok()
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

impl<T: PoolScalar> Drop for ArenaBuf<T> {
    fn drop(&mut self) {
        let Some(class) = self.class else {
            return; // one-off allocation; RawBuf's Drop frees it
        };
        let mut buf = Some(std::mem::take(&mut self.buf));
        T::with_cache(|c| {
            c.held[class] = c.held[class].saturating_sub(1);
            if c.shelves[class].len() < local_cap(class) {
                c.shelves[class].extend(buf.take());
            }
        });
        // Over the local cap, or thread-local storage already torn down.
        if let Some(buf) = buf {
            T::pool().put_global(class, buf);
        }
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
        pool.misses.fetch_add(1, Ordering::Relaxed);
        return ArenaBuf {
            buf: RawBuf::alloc(len, T::POOL_ZERO),
            len,
            class: None,
        };
    };
    let (cached, held) = T::with_cache(|c| {
        c.held[class] += 1;
        (c.shelves[class].pop(), c.held[class])
    })
    .unwrap_or((None, 1));
    let (buf, allocated) = match cached {
        Some(buf) => (buf, false),
        None => pool.provision(class, held),
    };
    let counter = if allocated { &pool.misses } else { &pool.hits };
    counter.fetch_add(1, Ordering::Relaxed);
    debug_assert_eq!(buf.len(), class_elems(class));
    ArenaBuf {
        buf,
        len,
        class: Some(class),
    }
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

/// Reset the hit/miss counters for element type `T` to zero.
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
        shelf.push(pool.birth(class));
    }
    room
}

/// Overwrite every idle pooled buffer — on the global shelves and in every
/// thread's cache, rayon workers' included — with `value`. Test hook:
/// poison with NaN or a sentinel, re-run a kernel, and any read of stale
/// scratch becomes visible in the output.
pub fn poison_pools<T: PoolScalar>(value: T) {
    fn fill<T: Copy>(bufs: &mut [RawBuf<T>], value: T) {
        for buf in bufs {
            buf.as_mut_slice().fill(value);
        }
    }
    let pool = T::pool();
    for class in 0..NUM_CLASSES {
        fill(&mut pool.lock_shelf(class), value);
    }
    // Upgrade first, lock after: a cache whose thread exits meanwhile is
    // dropped here, and its drop takes shelf locks.
    let caches: Vec<SharedCache<T>> = lock(&pool.caches)
        .iter()
        .filter_map(Weak::upgrade)
        .collect();
    for cache in caches {
        for shelf in lock(&cache).shelves.iter_mut() {
            fill(shelf, value);
        }
    }
}

/// Donate every buffer in this thread's local cache back to the global
/// pool (used by tests; worker threads do this automatically on exit).
pub fn flush_thread_cache<T: PoolScalar>() {
    let drained = T::with_cache(|c| {
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

    #[test]
    fn buffers_are_reused_and_counted() {
        flush_thread_cache::<f64>();
        reset_stats::<f64>();
        let before = stats::<f64>();
        assert_eq!(before, ArenaStats::default());
        {
            let mut a = take_dirty::<f64>(100);
            a[0] = 7.0;
            assert_eq!(a.len(), 100);
        }
        // The buffer went to the thread cache; the next same-class request
        // must be a hit.
        let b = take_dirty::<f64>(100);
        let s = stats::<f64>();
        assert_eq!(s.hits, 1);
        assert!(s.misses >= 1);
        drop(b);
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
        let big = take_dirty::<f32>(big_len);
        assert_eq!(big.len(), big_len);
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
        let s0 = stats::<f32>();
        assert_eq!(prewarm::<f32>(len, 3), 3);
        // A second prewarm tops the shelf up to the retention cap, no more.
        assert_eq!(prewarm::<f32>(len, usize::MAX), global_cap(class) - 3);
        assert_eq!(prewarm::<f32>(len, 5), 0);
        // Degenerate requests donate nothing.
        assert_eq!(prewarm::<f32>(0, 8), 0);
        assert_eq!(prewarm::<f32>((1 << 22) + 1, 8), 0);
        // Prewarming never touched the hit/miss counters, and the warmed
        // shelf serves the next cold request as a hit.
        let s1 = stats::<f32>();
        assert_eq!(s0, s1);
        drop(take_dirty::<f32>(len));
        assert!(stats::<f32>().hits > s1.hits);
        // Release the cap-full shelf so the test process does not sit on it.
        f32::pool().lock_shelf(class).clear();
    }

    #[test]
    fn flush_moves_local_buffers_to_global_pool() {
        // Prime the local cache with one buffer, flush, then verify the
        // global pool serves the next request (still a hit).
        drop(take_dirty::<f32>(1000));
        flush_thread_cache::<f32>();
        reset_stats::<f32>();
        let b = take_dirty::<f32>(1000);
        assert_eq!(stats::<f32>().hits, 1);
        drop(b);
    }
}
