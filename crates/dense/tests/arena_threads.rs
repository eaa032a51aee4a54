//! The arena across threads: poisoning reaches every thread's cache, and a
//! warm-up on any one thread leaves every pool thread allocation-free.
//!
//! Both tests read process-global arena state, so they serialize on
//! [`LOCK`] (and live in their own test binary, away from the unit tests
//! that count hits and misses).

use dense::arena::{poison_pools, stats, take_dirty, take_zeroed};
use rayon::prelude::*;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc::channel;
use std::sync::Mutex;
use std::time::{Duration, Instant};

static LOCK: Mutex<()> = Mutex::new(());

#[test]
fn poison_reaches_buffers_cached_by_other_threads() {
    let _lock = LOCK.lock().unwrap_or_else(|p| p.into_inner());
    // A worker keeps the buffers it returns in its own cache; poisoning
    // must reach them, or a kernel run on that worker would escape the
    // stale-read check.
    let len = 3000usize;
    let (cached_tx, cached_rx) = channel();
    let (poisoned_tx, poisoned_rx) = channel();
    let worker = std::thread::spawn(move || {
        drop(take_zeroed::<f64>(len)); // now in this thread's cache
        cached_tx.send(()).unwrap();
        poisoned_rx.recv().unwrap();
        take_dirty::<f64>(len).iter().all(|x| x.is_nan())
    });
    cached_rx.recv().unwrap();
    poison_pools::<f64>(f64::NAN);
    poisoned_tx.send(()).unwrap();
    assert!(
        worker.join().unwrap(),
        "a buffer cached by another thread escaped poison_pools"
    );
}

#[test]
fn warm_up_on_one_thread_provisions_every_pool_thread() {
    let _lock = LOCK.lock().unwrap_or_else(|p| p.into_inner());
    // A kernel holding two same-class buffers at once.
    let len = 20_000usize;
    let kernel = || {
        let mut a = take_dirty::<f32>(len);
        let mut b = take_dirty::<f32>(len);
        a.fill(1.0);
        b.fill(2.0);
    };
    kernel(); // warm-up on this thread only
    let before = stats::<f32>();
    // One item per pool thread; each waits until all have started, so
    // every pool thread holds its two buffers at the same time.
    let p = rayon::current_num_threads();
    let started = AtomicUsize::new(0);
    (0..p).into_par_iter().for_each(|_| {
        started.fetch_add(1, Ordering::SeqCst);
        let deadline = Instant::now() + Duration::from_secs(10);
        while started.load(Ordering::SeqCst) < p && Instant::now() < deadline {
            std::thread::yield_now();
        }
        kernel();
    });
    let after = stats::<f32>();
    assert_eq!(
        after.misses - before.misses,
        0,
        "{p} pool threads allocated after a one-thread warm-up"
    );
    assert_eq!(after.hits - before.hits, 2 * p as u64);
}
