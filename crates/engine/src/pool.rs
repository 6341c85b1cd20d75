//! A persistent worker pool: parked threads, epoch dispatch, round barrier.
//!
//! [`WorkerPool`] keeps long-lived workers parked on a condvar: a
//! [`dispatch`](WorkerPool::dispatch) is one epoch bump plus a wake-up
//! (single-digit µs, against tens of µs for a `std::thread::scope`
//! spawn/join), and [`run_rounds`](WorkerPool::run_rounds) — the **one**
//! round primitive — amortizes even that over a whole chunk of
//! double-buffered rounds, synchronizing the workers between rounds with a
//! lightweight generation barrier instead of returning to the dispatcher.
//!
//! Pools are **shared and long-lived**: [`PoolHandle::for_threads`] hands
//! out the smallest registered pool with enough threads (creating one only
//! when none fits), so every runner in the process reuses the same parked
//! workers. A pool dies when the last handle drops; the workers are joined
//! on drop.
//!
//! # Safety
//!
//! This module is the **only** place in the crate where `unsafe` appears
//! (the crate is `#![deny(unsafe_code)]`, relaxed from `forbid` by exactly
//! this module). Two uses, both with the same structural justification:
//!
//! 1. **Lifetime erasure of the dispatched job.** Workers are `'static`
//!    threads, but jobs borrow the caller's stack (program, topology,
//!    registers). [`WorkerPool::dispatch`] erases the borrow into a raw
//!    pointer and *does not return until every participating worker has
//!    acknowledged completion of the epoch* — the exact guarantee
//!    `std::thread::scope` provides structurally. Workers without a part
//!    never dereference the pointer (they only skip the epoch), so no
//!    worker can call through it after `dispatch` returns.
//! 2. **Disjoint double-buffer slices.** In
//!    [`run_rounds`](WorkerPool::run_rounds) each part writes only its
//!    disjoint region of `next` while all parts read only the other buffer;
//!    the optional exchange phase copies within `next` from single-owner
//!    region slots to single-writer halo slots, barrier-separated from both
//!    the compute writes before it and the reads after it. A poisoning
//!    round barrier separates consecutive rounds, so no read of round `r`'s
//!    input can race a write of round `r + 1`.
//!
//! # Self-healing
//!
//! Worker panics are caught, propagated to the dispatcher (first panic
//! wins), and poison the round barrier so sibling workers unwind instead of
//! deadlocking. A worker whose job panicked **retires** (records itself in
//! the shared state and exits its thread); the next dispatch joins and
//! respawns every retired worker before publishing the new epoch, so a
//! panic in one borrower of a registry-shared pool
//! ([`PoolHandle::for_threads`]) never leaves the pool broken for the next
//! borrower. [`WorkerPool::stats`] counts caught panics, respawns and
//! barrier timeouts for telemetry bridges.
//!
//! [`run_rounds`](WorkerPool::run_rounds) additionally accepts a
//! **watchdog**: when a part fails to reach the round barrier within the
//! timeout, the waiting siblings poison the barrier and unwind with a typed
//! timeout sentinel, so a hung worker surfaces as
//! [`PoolError::BarrierTimeout`] at the runner instead of deadlocking the
//! dispatch. The dispatcher itself still waits for every participant to
//! acknowledge (the lifetime-erasure contract requires it), so the dispatch
//! returns once the hung part eventually finishes or dies — the watchdog
//! bounds *detection*, not the stall itself.

#![expect(
    unsafe_code,
    reason = "lifetime erasure of the dispatched job and disjoint buffer slices (see # Safety)"
)]
#![expect(
    clippy::disallowed_methods,
    reason = "observed-round phase timing and the watchdog deadline; never feeds round state"
)]

use std::panic::{catch_unwind, panic_any, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, OnceLock, Weak};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

type PanicPayload = Box<dyn std::any::Any + Send + 'static>;

/// A typed failure of a pooled dispatch, produced by the runners' fallible
/// driving surface ([`Runner::try_step`](crate::Runner::try_step)) instead
/// of an unwinding panic.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PoolError {
    /// A job part panicked and every retry the
    /// [`RecoveryPolicy`](crate::RecoveryPolicy) allowed panicked too.
    WorkerPanic {
        /// Attempts made (1 initial try + the policy's retries).
        attempts: u32,
        /// The panic message of the last attempt (best-effort string
        /// extraction from the payload).
        message: String,
    },
    /// A part failed to reach the round barrier within the watchdog
    /// timeout: the barrier was poisoned and the epoch abandoned. Never
    /// retried — a hung worker is a liveness bug, not a transient fault.
    BarrierTimeout {
        /// The configured watchdog timeout that expired.
        timeout: Duration,
    },
}

impl std::fmt::Display for PoolError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PoolError::WorkerPanic { attempts, message } => {
                write!(f, "worker panic after {attempts} attempt(s): {message}")
            }
            PoolError::BarrierTimeout { timeout } => {
                write!(
                    f,
                    "round barrier watchdog expired after {}ms: a part hung",
                    timeout.as_millis()
                )
            }
        }
    }
}

impl std::error::Error for PoolError {}

/// Best-effort extraction of a panic payload's message (`&str` / `String`
/// payloads; anything else becomes a placeholder).
pub(crate) fn panic_message(payload: &PanicPayload) -> String {
    payload
        .downcast_ref::<&str>()
        .map(|s| (*s).to_string())
        .or_else(|| payload.downcast_ref::<String>().cloned())
        .unwrap_or_else(|| "non-string panic payload".to_string())
}

/// The typed payload a watchdog timeout unwinds with (non-poison, so the
/// dispatcher's payload selection prefers it over the secondary poison
/// panics it releases). Runners downcast it back into
/// [`PoolError::BarrierTimeout`].
#[derive(Debug, Clone, Copy)]
pub(crate) struct BarrierTimeoutPanic(pub(crate) Duration);

/// `true` if a caught payload is the watchdog's timeout sentinel.
pub(crate) fn is_timeout_panic(payload: &PanicPayload) -> bool {
    payload.downcast_ref::<BarrierTimeoutPanic>().is_some()
}

/// Monotone counters of the pool's self-healing machinery, for telemetry
/// bridges (the engine crate itself stays telemetry-free). All relaxed:
/// diagnostics, never part of the determinism contract.
#[derive(Debug, Default)]
pub struct PoolStats {
    panics: AtomicU64,
    respawns: AtomicU64,
    barrier_timeouts: AtomicU64,
}

impl PoolStats {
    /// Dispatches that ended in a caught (non-timeout) job panic.
    pub fn panics(&self) -> u64 {
        self.panics.load(Ordering::Relaxed)
    }

    /// Worker threads respawned after retiring on a job panic.
    pub fn respawns(&self) -> u64 {
        self.respawns.load(Ordering::Relaxed)
    }

    /// Dispatches that ended in a barrier watchdog timeout.
    pub fn barrier_timeouts(&self) -> u64 {
        self.barrier_timeouts.load(Ordering::Relaxed)
    }
}

/// Lock-free per-phase wall-clock accumulators for the pool's round
/// primitives: how many nanoseconds the instrumented part spent computing,
/// waiting on the round barrier, and pulling halo copies.
///
/// [`WorkerPool::run_rounds`] accumulates into one of these when handed
/// `Some`; timing is sampled on **part 0 only** (the dispatching side), so
/// barrier waits naturally absorb any imbalance against the slower parts
/// and the accumulators never contend. Passing `None` keeps the round loop
/// clock-free.
///
/// Purely wall-clock: results are bit-for-bit identical with or without an
/// accumulator attached (the engine's determinism contract never covers
/// timing).
#[derive(Debug, Default)]
pub struct PhaseTimes {
    compute_ns: AtomicU64,
    barrier_ns: AtomicU64,
    exchange_ns: AtomicU64,
}

impl PhaseTimes {
    /// Fresh accumulators, all zero.
    pub fn new() -> Self {
        Self::default()
    }

    /// Nanoseconds accumulated in the compute phase.
    pub fn compute_ns(&self) -> u64 {
        self.compute_ns.load(Ordering::Relaxed)
    }

    /// Nanoseconds accumulated waiting on round barriers.
    pub fn barrier_ns(&self) -> u64 {
        self.barrier_ns.load(Ordering::Relaxed)
    }

    /// Nanoseconds accumulated pulling halo copies.
    pub fn exchange_ns(&self) -> u64 {
        self.exchange_ns.load(Ordering::Relaxed)
    }

    /// Snapshots and resets all three accumulators, returning
    /// `(compute_ns, barrier_ns, exchange_ns)`.
    pub fn take(&self) -> (u64, u64, u64) {
        (
            self.compute_ns.swap(0, Ordering::Relaxed),
            self.barrier_ns.swap(0, Ordering::Relaxed),
            self.exchange_ns.swap(0, Ordering::Relaxed),
        )
    }
}

/// Which [`PhaseTimes`] accumulator a [`lap`] lands in.
#[derive(Clone, Copy)]
enum PhaseSlot {
    Compute,
    Barrier,
    Exchange,
}

/// Adds the time since `*mark` to `slot` and advances `*mark` to now.
/// With `phases == None` (or no prior mark) this is a no-op that never
/// reads the clock — the untimed round loop stays clock-free.
fn lap(phases: Option<&PhaseTimes>, mark: &mut Option<Instant>, slot: PhaseSlot) {
    let (Some(times), Some(prev)) = (phases, mark.as_mut()) else {
        return;
    };
    let now = Instant::now();
    let ns = now.duration_since(*prev).as_nanos() as u64;
    let cell = match slot {
        PhaseSlot::Compute => &times.compute_ns,
        PhaseSlot::Barrier => &times.barrier_ns,
        PhaseSlot::Exchange => &times.exchange_ns,
    };
    cell.fetch_add(ns, Ordering::Relaxed);
    *prev = now;
}

/// Lifetime-erased pointer to the job of the current epoch.
///
/// Only ever dereferenced between the epoch bump and the completion
/// acknowledgement — the window during which [`WorkerPool::dispatch`] keeps
/// the real borrow alive on the caller's stack.
#[derive(Clone, Copy)]
struct JobPtr(*const (dyn Fn(usize) + Sync + 'static));

// SAFETY: the pointee is `Sync` (shared calls are fine) and its lifetime is
// guarded by the dispatch protocol described in the module docs.
unsafe impl Send for JobPtr {}

struct PoolState {
    /// Bumped once per dispatch; workers detect work by comparing epochs.
    epoch: u64,
    /// The job of the current epoch (`None` between dispatches).
    job: Option<JobPtr>,
    /// How many parts the current job is split into (caller is part 0).
    parts: usize,
    /// Workers that have not yet acknowledged the current epoch.
    outstanding: usize,
    /// First worker panic of the current epoch, if any.
    panic: Option<PanicPayload>,
    /// Workers that retired (exited their thread) after a job panic, to be
    /// joined and respawned by the next dispatch. Pushed under the state
    /// lock *in the same critical section* as the completion
    /// acknowledgement, so a dispatcher can never start a new epoch while
    /// a dying worker is still counted as available.
    retired: Vec<usize>,
    shutdown: bool,
}

struct Shared {
    state: Mutex<PoolState>,
    /// Workers park here waiting for an epoch bump.
    work: Condvar,
    /// The dispatcher parks here waiting for `outstanding == 0`.
    done: Condvar,
}

/// A fixed-size pool of parked worker threads executing one job at a time,
/// split into per-thread parts.
///
/// `threads` counts the **total** parallelism of a dispatch: the caller
/// participates as part 0, so a pool of `t` threads spawns `t - 1` workers.
pub struct WorkerPool {
    shared: Arc<Shared>,
    threads: usize,
    /// Serializes dispatches from different runner threads onto the same
    /// pool (the job slot is single-occupancy by design).
    dispatch_lock: Mutex<()>,
    /// Slot `w` holds worker `w`'s thread; a slot is replaced in place when
    /// its worker retires after a job panic and is respawned.
    handles: Mutex<Vec<JoinHandle<()>>>,
    stats: PoolStats,
}

impl std::fmt::Debug for WorkerPool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("WorkerPool")
            .field("threads", &self.threads)
            .finish()
    }
}

impl WorkerPool {
    /// Creates a pool with `threads` total parallelism (`threads - 1`
    /// parked workers; a 1-thread pool spawns nothing and runs every
    /// dispatch inline).
    pub fn new(threads: usize) -> Self {
        let threads = threads.max(1);
        let shared = Arc::new(Shared {
            state: Mutex::new(PoolState {
                epoch: 0,
                job: None,
                parts: 0,
                outstanding: 0,
                panic: None,
                retired: Vec::new(),
                shutdown: false,
            }),
            work: Condvar::new(),
            done: Condvar::new(),
        });
        let handles = (0..threads.saturating_sub(1))
            .map(|w| spawn_worker(&shared, w))
            .collect();
        WorkerPool {
            shared,
            threads,
            dispatch_lock: Mutex::new(()),
            handles: Mutex::new(handles),
            stats: PoolStats::default(),
        }
    }

    /// Total parallelism of a dispatch (workers + the calling thread).
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// The pool's self-healing counters (caught panics, worker respawns,
    /// barrier timeouts).
    pub fn stats(&self) -> &PoolStats {
        &self.stats
    }

    /// Joins and respawns every worker that retired after a job panic.
    /// Called at the top of each dispatch (under the dispatch lock, before
    /// the epoch bump), so the new epoch only ever counts live workers —
    /// this is what makes post-panic reuse of a registry-shared pool sound
    /// for the next borrower.
    fn ensure_workers(&self) {
        let retired: Vec<usize> = {
            let mut st = self.shared.state.lock().unwrap();
            std::mem::take(&mut st.retired)
        };
        if retired.is_empty() {
            return;
        }
        let mut handles = self.handles.lock().unwrap();
        for w in retired {
            let replacement = spawn_worker(&self.shared, w);
            let dead = std::mem::replace(&mut handles[w], replacement);
            // the retired worker pushed its index in the same critical
            // section as its final acknowledgement, so this join is
            // near-instant
            let _ = dead.join();
            self.stats.respawns.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Runs `job(part)` for every `part in 0..parts`, the caller executing
    /// part 0 and the parked workers parts `1..parts`. Blocks until every
    /// part has finished; workers beyond `parts` (of an oversized shared
    /// pool) are neither woken into work nor waited on.
    ///
    /// With `parts == 1` (or a 1-thread pool) the job runs inline with zero
    /// synchronization.
    ///
    /// # Panics
    ///
    /// Panics if `parts` exceeds [`threads`](Self::threads), and re-raises
    /// the first panic raised inside `job` (after all parts finished).
    pub fn dispatch(&self, parts: usize, job: &(dyn Fn(usize) + Sync)) {
        assert!(
            parts <= self.threads,
            "dispatch of {parts} parts on a {}-thread pool",
            self.threads
        );
        if parts <= 1 || self.threads == 1 {
            for part in 0..parts {
                job(part);
            }
            return;
        }
        let serial = self.dispatch_lock.lock().unwrap();
        // heal first: join + respawn any worker that retired after a panic
        // in a previous epoch, so `outstanding` below only counts threads
        // that are actually alive to acknowledge
        self.ensure_workers();
        // SAFETY: lifetime erasure; `job` stays borrowed on this stack frame
        // until the completion wait below observes `outstanding == 0`;
        // participating workers only call through the pointer before
        // acknowledging, and non-participants never dereference it.
        let erased = JobPtr(unsafe {
            std::mem::transmute::<
                *const (dyn Fn(usize) + Sync),
                *const (dyn Fn(usize) + Sync + 'static),
            >(job)
        });
        {
            let mut st = self.shared.state.lock().unwrap();
            st.job = Some(erased);
            st.parts = parts;
            // only workers that own a part (1..parts) acknowledge; workers
            // of an oversized shared pool wake, update their epoch and go
            // straight back to sleep without being waited on
            st.outstanding = parts - 1;
            st.panic = None;
            st.epoch += 1;
        }
        self.shared.work.notify_all();
        // the dispatching thread works instead of sleeping
        let caller_panic = catch_unwind(AssertUnwindSafe(|| job(0))).err();
        let worker_panic = {
            let mut st = self.shared.state.lock().unwrap();
            while st.outstanding > 0 {
                st = self.shared.done.wait(st).unwrap();
            }
            st.job = None;
            st.panic.take()
        };
        drop(serial);
        // prefer the originating panic over the secondary barrier-poison
        // panics it released in the siblings — losing the real payload
        // would make pool-path failures undiagnosable
        let payloads = [caller_panic, worker_panic];
        let mut payloads: Vec<PanicPayload> = payloads.into_iter().flatten().collect();
        if let Some(original) = payloads.iter().position(|p| !is_poison_panic(p)) {
            let payload = payloads.swap_remove(original);
            if is_timeout_panic(&payload) {
                self.stats.barrier_timeouts.fetch_add(1, Ordering::Relaxed);
            } else {
                self.stats.panics.fetch_add(1, Ordering::Relaxed);
            }
            resume_unwind(payload);
        }
        if let Some(payload) = payloads.pop() {
            self.stats.panics.fetch_add(1, Ordering::Relaxed);
            resume_unwind(payload);
        }
    }

    /// [`dispatch`](Self::dispatch), collecting each part's return value.
    pub fn dispatch_map<T, F>(&self, parts: usize, job: F) -> Vec<T>
    where
        T: Send,
        F: Fn(usize) -> T + Sync,
    {
        let slots: Vec<Mutex<Option<T>>> = (0..parts).map(|_| Mutex::new(None)).collect();
        self.dispatch(parts, &|part| {
            let value = job(part);
            *slots[part].lock().unwrap() = Some(value);
        });
        slots
            .into_iter()
            .map(|slot| {
                slot.into_inner()
                    .unwrap()
                    .expect("every part stores exactly one value")
            })
            .collect()
    }

    /// The round primitive: runs `rounds` double-buffered rounds in **one**
    /// dispatch, workers synchronizing on a round barrier instead of
    /// returning to the dispatcher.
    ///
    /// The buffers are split into per-part regions: `regions[part]` is the
    /// range of slots the part **writes**; everything outside every region
    /// is a halo slot, refreshed by the exchange. Every round has two
    /// phases:
    ///
    /// 1. **compute** — each part runs `step(part, round, prev, next)`,
    ///    where `prev` is the full previous-round buffer and `next` the
    ///    part's region of the next-round buffer (parts read only `prev`, so
    ///    what round `r` observes is exactly what round `r − 1` left —
    ///    double-buffer semantics);
    /// 2. **exchange** — after a round barrier, each part refreshes its halo
    ///    slots by pulling `next[dst] = next[src]` for its `exchange[part]`
    ///    pairs; a second barrier orders the pulls before the next round's
    ///    reads. With no pairs anywhere (regions covering the buffer, the
    ///    direct mode) the phase and its barrier vanish: one barrier per
    ///    round.
    ///
    /// On return `front` holds the final round's buffer and `back` the
    /// previous round's (the postcondition of `rounds` sequential
    /// compute-and-swap steps). With one part, or on a 1-thread pool, the
    /// rounds run inline on the caller with no synchronization at all.
    ///
    /// When `phases` is `Some`, part 0's compute, barrier-wait and exchange
    /// nanoseconds accumulate into the given [`PhaseTimes`] (see its docs
    /// for the sampling contract); `None` never reads the clock. When
    /// `watchdog` is `Some`, a part that fails to reach a round barrier — or
    /// the final chunk-completion barrier the armed watchdog adds, so even
    /// single-round chunks are guarded — within the timeout poisons the
    /// barrier and the run unwinds with the typed timeout sentinel the
    /// runners surface as [`PoolError::BarrierTimeout`].
    ///
    /// # Panics
    ///
    /// Panics unless the buffers have equal length and `regions` are
    /// in-bounds, ascending and pairwise disjoint, with at most
    /// [`threads`](Self::threads) parts; and unless the exchange plan
    /// honours its contract — every destination outside all regions and
    /// written by exactly one part, every source inside a region (what
    /// [`HaloPlan::build`](crate::shard::HaloPlan::build) guarantees by
    /// construction; verified here in all build modes because the pairs
    /// feed raw-pointer copies). Propagates `step` panics.
    #[expect(
        clippy::too_many_arguments,
        reason = "the round primitive: regions, exchange plan, buffers, step, timing, watchdog"
    )]
    pub fn run_rounds<T, F>(
        &self,
        regions: &[(usize, usize)],
        exchange: &[Vec<(u32, u32)>],
        rounds: usize,
        front: &mut Vec<T>,
        back: &mut Vec<T>,
        step: F,
        phases: Option<&PhaseTimes>,
        watchdog: Option<Duration>,
    ) where
        T: Send + Sync + Clone,
        F: Fn(usize, usize, &[T], &mut [T]) + Sync,
    {
        let n = front.len();
        assert_eq!(back.len(), n, "double buffers must have equal length");
        let parts = regions.len();
        assert_eq!(exchange.len(), parts, "one exchange list per part");
        assert!(
            regions.iter().all(|&(lo, hi)| lo <= hi && hi <= n),
            "regions must be in-bounds"
        );
        assert!(
            regions.windows(2).all(|w| w[0].1 <= w[1].0),
            "regions must be ascending and disjoint"
        );
        // with no exchange pairs anywhere the exchange phase (and its
        // barrier) vanishes: one barrier per round, nothing to validate
        let has_exchange = exchange.iter().any(|pairs| !pairs.is_empty());
        if has_exchange {
            // O(arena + pairs) plan validation, release mode included: the
            // exchange pairs feed unchecked raw-pointer copies on the
            // parallel path, so a malformed plan from this *safe* public
            // API must panic here, never scribble out of bounds. (Plans
            // from HaloPlan::build are sound by construction; the halo
            // runner already pays O(arena) per call to gather, so this is
            // a bounded constant factor, not a new asymptotic cost.)
            // interior[i]: is arena slot i inside some part's write region?
            // dst_seen[i]: has some part already claimed slot i as a dst?
            let mut interior = vec![false; n];
            for &(lo, hi) in regions {
                interior[lo..hi].iter_mut().for_each(|b| *b = true);
            }
            let mut dst_seen = vec![false; n];
            for pairs in exchange {
                for &(src, dst) in pairs {
                    let (src, dst) = (src as usize, dst as usize);
                    assert!(
                        src < n && interior[src],
                        "exchange source {src} must be an interior slot"
                    );
                    assert!(
                        dst < n && !interior[dst],
                        "exchange destination {dst} must be a halo slot"
                    );
                    assert!(
                        !std::mem::replace(&mut dst_seen[dst], true),
                        "halo slot {dst} pulled by two parts"
                    );
                }
            }
        }
        // no parts: the empty graph, every round is a no-op
        if rounds == 0 || parts == 0 {
            return;
        }
        if parts == 1 || self.threads == 1 {
            for round in 0..rounds {
                let (prev, next) = if round % 2 == 0 {
                    (&*front, &mut *back)
                } else {
                    (&*back, &mut *front)
                };
                let mut mark = phases.map(|_| Instant::now());
                for (part, &(lo, hi)) in regions.iter().enumerate() {
                    let slice = &mut next[lo..hi];
                    step(part, round, prev, slice);
                }
                lap(phases, &mut mark, PhaseSlot::Compute);
                if has_exchange {
                    for pairs in exchange {
                        for &(src, dst) in pairs {
                            next[dst as usize] = next[src as usize].clone();
                        }
                    }
                    lap(phases, &mut mark, PhaseSlot::Exchange);
                }
            }
        } else {
            assert!(
                parts <= self.threads,
                "run of {parts} parts on a {}-thread pool",
                self.threads
            );
            let barrier = RoundBarrier::new(parts, watchdog);
            let front_ptr = BufPtr(front.as_mut_ptr());
            let back_ptr = BufPtr(back.as_mut_ptr());
            self.dispatch(parts, &|part| {
                // phase timing samples part 0 only (the dispatching side);
                // other parts never read the clock
                let timing = if part == 0 { phases } else { None };
                let work = || {
                    for round in 0..rounds {
                        let (prev_ptr, next_ptr) = if round % 2 == 0 {
                            (front_ptr.get(), back_ptr.get())
                        } else {
                            (back_ptr.get(), front_ptr.get())
                        };
                        // SAFETY: compute phase — every part reads only
                        // `prev` and writes only its disjoint interior
                        // region of `next` (asserted above); the barrier
                        // separates this round's writes from the exchange
                        // reads, and `dispatch` keeps both buffers borrowed
                        // until all parts finish.
                        let prev: &[T] =
                            unsafe { std::slice::from_raw_parts(prev_ptr as *const T, n) };
                        let (lo, hi) = regions[part];
                        // SAFETY: `[lo, hi)` is this part's own interior
                        // region — `regions` partitions the interior, so no
                        // other part aliases this mutable slice.
                        let next: &mut [T] =
                            unsafe { std::slice::from_raw_parts_mut(next_ptr.add(lo), hi - lo) };
                        let mut mark = timing.map(|_| Instant::now());
                        step(part, round, prev, next);
                        lap(timing, &mut mark, PhaseSlot::Compute);
                        if has_exchange {
                            barrier.wait();
                            lap(timing, &mut mark, PhaseSlot::Barrier);
                            for &(src, dst) in &exchange[part] {
                                // SAFETY: exchange phase — `src` is an interior
                                // slot (every compute write is barrier-ordered
                                // before this read, and nothing writes
                                // interiors now); `dst` is one of this part's
                                // own halo slots, in bounds and written by no
                                // other part (validated above in every build
                                // mode).
                                unsafe {
                                    let value = (*(next_ptr.add(src as usize) as *const T)).clone();
                                    *next_ptr.add(dst as usize) = value;
                                }
                            }
                            lap(timing, &mut mark, PhaseSlot::Exchange);
                        }
                        if round + 1 < rounds {
                            barrier.wait();
                            lap(timing, &mut mark, PhaseSlot::Barrier);
                        }
                    }
                    // an armed watchdog also guards chunk completion: a
                    // single-round chunk (the observed, round-granular
                    // dispatch mode) has no inter-round barrier, so without
                    // this a part stalled in its last round would only be
                    // detected when the blocking completion wait ends
                    if watchdog.is_some() {
                        let mut mark = timing.map(|_| Instant::now());
                        barrier.wait();
                        lap(timing, &mut mark, PhaseSlot::Barrier);
                    }
                };
                if let Err(payload) = catch_unwind(AssertUnwindSafe(work)) {
                    barrier.poison();
                    resume_unwind(payload);
                }
            });
        }
        if rounds % 2 == 1 {
            std::mem::swap(front, back);
        }
    }
}

impl Drop for WorkerPool {
    fn drop(&mut self) {
        {
            let mut st = self.shared.state.lock().unwrap();
            st.shutdown = true;
        }
        self.shared.work.notify_all();
        for handle in self.handles.get_mut().unwrap().drain(..) {
            let _ = handle.join();
        }
    }
}

/// Spawns worker `w` of a pool — shared between pool construction and the
/// post-panic respawn in [`WorkerPool::ensure_workers`].
fn spawn_worker(shared: &Arc<Shared>, w: usize) -> JoinHandle<()> {
    let shared = Arc::clone(shared);
    std::thread::Builder::new()
        .name(format!("smst-engine-worker-{w}"))
        .spawn(move || worker_loop(&shared, w))
        .expect("spawning an engine worker thread")
}

/// Raw buffer base pointer, shareable across the pool's workers.
#[derive(Clone, Copy)]
struct BufPtr<T>(*mut T);

impl<T> BufPtr<T> {
    /// Method (not field) access, so edition-2021 closures capture the
    /// `Sync` wrapper rather than the raw pointer field.
    fn get(&self) -> *mut T {
        self.0
    }
}

// SAFETY: sending the pointer hands over no ownership — the buffer stays
// owned and borrowed by the `WorkerPool::run_rounds` call that dispatched
// it, which outlives every worker's use — and `T: Send` lets the receiving
// worker write elements it did not create.
unsafe impl<T: Send + Sync> Send for BufPtr<T> {}
// SAFETY: sharing `&BufPtr` shares only the address; every dereference is
// in `WorkerPool::run_rounds`, where a part writes only its own interior
// region and halo slots, and reads only `prev` or barrier-ordered interior
// slots, so no access through a shared copy races a write (`T: Sync`
// covers the concurrent reads).
unsafe impl<T: Send + Sync> Sync for BufPtr<T> {}

fn worker_loop(shared: &Shared, worker: usize) {
    let mut seen_epoch = 0u64;
    loop {
        let (job, parts) = {
            let mut st = shared.state.lock().unwrap();
            loop {
                if st.shutdown {
                    return;
                }
                if st.epoch != seen_epoch {
                    seen_epoch = st.epoch;
                    break (st.job, st.parts);
                }
                st = shared.work.wait(st).unwrap();
            }
        };
        // worker `w` owns part `w + 1`; workers of an oversized shared
        // pool are not counted in `outstanding` and only record the epoch.
        // A cleared job slot means this worker woke after its (skipped)
        // epoch completed — participants always observe their job, because
        // the dispatcher cannot clear it before they acknowledge.
        let my_part = worker + 1;
        let Some(job) = job else {
            continue;
        };
        if my_part >= parts {
            continue;
        }
        let panic = catch_unwind(AssertUnwindSafe(|| {
            // SAFETY: the dispatcher keeps the job borrow alive until this
            // worker acknowledges below.
            let job = unsafe { &*job.0 };
            job(my_part);
        }))
        .err();
        let mut st = shared.state.lock().unwrap();
        // a worker whose *own* job panicked retires: it records itself for
        // respawn and exits after acknowledging. Poison-released siblings
        // and watchdog-timeout unwinds are healthy threads — they stay.
        let retire = panic
            .as_ref()
            .is_some_and(|p| !is_poison_panic(p) && !is_timeout_panic(p));
        if let Some(payload) = panic {
            // keep the first *original* payload: poison-released siblings
            // all panic with the sentinel and must not mask the cause
            match &st.panic {
                Some(existing) if !is_poison_panic(existing) => {}
                _ => st.panic = Some(payload),
            }
        }
        if retire {
            st.retired.push(worker);
        }
        st.outstanding -= 1;
        if st.outstanding == 0 {
            shared.done.notify_all();
        }
        if retire {
            // the retirement and the acknowledgement above are one critical
            // section: the dispatcher that wakes on `outstanding == 0` is
            // guaranteed to see this worker in `retired` before it can
            // publish another epoch
            return;
        }
    }
}

/// The payload of the secondary panics a poisoned barrier raises in the
/// released siblings; [`WorkerPool::dispatch`] recognizes it so the
/// originating panic is the one re-raised to the caller.
const POISON_PANIC: &str = "engine round barrier poisoned by a sibling worker panic";

/// `true` if a caught payload is the barrier's poison sentinel (as opposed
/// to an original panic from inside a job). The barrier panics via
/// `panic_any(POISON_PANIC)`, so the payload is a `&str`; the `String` arm
/// is belt-and-braces against a future reformulation through `panic!`.
fn is_poison_panic(payload: &PanicPayload) -> bool {
    payload
        .downcast_ref::<&str>()
        .is_some_and(|s| *s == POISON_PANIC)
        || payload
            .downcast_ref::<String>()
            .is_some_and(|s| s == POISON_PANIC)
}

/// A reusable generation barrier with poisoning (a sibling's panic releases
/// everyone instead of deadlocking the round) and an optional watchdog (a
/// part that never arrives makes the *waiters* poison the barrier and
/// unwind with the typed timeout sentinel, instead of deadlocking forever).
struct RoundBarrier {
    state: Mutex<BarrierState>,
    cv: Condvar,
    parts: usize,
    watchdog: Option<Duration>,
}

struct BarrierState {
    arrived: usize,
    generation: u64,
    poisoned: bool,
}

impl RoundBarrier {
    fn new(parts: usize, watchdog: Option<Duration>) -> Self {
        RoundBarrier {
            state: Mutex::new(BarrierState {
                arrived: 0,
                generation: 0,
                poisoned: false,
            }),
            cv: Condvar::new(),
            parts,
            watchdog,
        }
    }

    /// Blocks until all parts arrive (or the barrier is poisoned, in which
    /// case this panics so the caller unwinds out of its round loop). With
    /// a watchdog, a wait that exceeds the timeout poisons the barrier
    /// itself and unwinds with [`BarrierTimeoutPanic`] — the first waiter
    /// to time out carries the typed sentinel; the others unwind with the
    /// ordinary poison sentinel.
    fn wait(&self) {
        let mut st = self.state.lock().unwrap();
        if st.poisoned {
            drop(st);
            panic_any(POISON_PANIC);
        }
        let generation = st.generation;
        st.arrived += 1;
        if st.arrived == self.parts {
            st.arrived = 0;
            st.generation += 1;
            self.cv.notify_all();
            return;
        }
        let deadline = self.watchdog.map(|limit| (Instant::now() + limit, limit));
        while st.generation == generation && !st.poisoned {
            match deadline {
                None => st = self.cv.wait(st).unwrap(),
                Some((at, limit)) => {
                    let now = Instant::now();
                    if now >= at {
                        st.poisoned = true;
                        self.cv.notify_all();
                        drop(st);
                        panic_any(BarrierTimeoutPanic(limit));
                    }
                    let (guard, _timeout) = self.cv.wait_timeout(st, at - now).unwrap();
                    st = guard;
                }
            }
        }
        let poisoned = st.poisoned;
        drop(st);
        if poisoned {
            panic_any(POISON_PANIC);
        }
    }

    fn poison(&self) {
        let mut st = self.state.lock().unwrap();
        st.poisoned = true;
        self.cv.notify_all();
    }
}

/// A shared, cloneable handle to a [`WorkerPool`].
///
/// Handles returned by [`PoolHandle::for_threads`] share pools through a
/// process-wide registry, so all runners reuse the same parked workers
/// instead of each spawning their own.
#[derive(Clone, Debug)]
pub struct PoolHandle(Arc<WorkerPool>);

impl PoolHandle {
    /// The smallest registered pool with at least `threads` total
    /// threads, or a freshly created (and registered) one when none fits.
    /// The pool outlives the handle only while other handles (or runners)
    /// keep it alive.
    pub fn for_threads(threads: usize) -> PoolHandle {
        let threads = threads.max(1);
        let registry = REGISTRY.get_or_init(|| Mutex::new(Vec::new()));
        let mut pools = registry.lock().unwrap();
        pools.retain(|weak| weak.strong_count() > 0);
        if let Some(pool) = pools
            .iter()
            .filter_map(Weak::upgrade)
            .filter(|pool| pool.threads() >= threads)
            .min_by_key(|pool| pool.threads())
        {
            return PoolHandle(pool);
        }
        let pool = Arc::new(WorkerPool::new(threads));
        pools.push(Arc::downgrade(&pool));
        PoolHandle(pool)
    }

    /// A dedicated, unregistered pool (tests and benchmarks that must not
    /// share workers).
    pub fn dedicated(threads: usize) -> PoolHandle {
        PoolHandle(Arc::new(WorkerPool::new(threads)))
    }

    /// The underlying pool.
    pub fn pool(&self) -> &WorkerPool {
        &self.0
    }

    /// `true` if both handles share one pool.
    pub fn shares_pool_with(&self, other: &PoolHandle) -> bool {
        Arc::ptr_eq(&self.0, &other.0)
    }

    /// Maps `f` over `items` on the pool, preserving input order: the
    /// items are strided across at most [`WorkerPool::threads`] parts
    /// (each part processing `items[part], items[part + pieces], …`), and
    /// the results are reassembled in item order. With one item, one
    /// thread, or an empty slice the map runs inline on the caller.
    ///
    /// This is the fan-out shape every "run many independent jobs on the
    /// pool" caller needs (campaign trials, per-size sweeps) — one shared
    /// implementation instead of re-deriving the stride/sort scaffolding
    /// at each call site.
    pub fn map_indexed<I, T, F>(&self, items: &[I], f: F) -> Vec<T>
    where
        I: Sync,
        T: Send,
        F: Fn(usize, &I) -> T + Sync,
    {
        let pieces = self.pool().threads().min(items.len());
        if pieces <= 1 {
            return items.iter().enumerate().map(|(i, x)| f(i, x)).collect();
        }
        let mut tagged: Vec<(usize, T)> = self
            .pool()
            .dispatch_map(pieces, |part| {
                items
                    .iter()
                    .enumerate()
                    .skip(part)
                    .step_by(pieces)
                    .map(|(i, x)| (i, f(i, x)))
                    .collect::<Vec<_>>()
            })
            .into_iter()
            .flatten()
            .collect();
        tagged.sort_by_key(|&(i, _)| i);
        tagged.into_iter().map(|(_, value)| value).collect()
    }
}

static REGISTRY: OnceLock<Mutex<Vec<Weak<WorkerPool>>>> = OnceLock::new();

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn map_indexed_preserves_order_at_any_width() {
        let items: Vec<usize> = (0..23).collect();
        let expected: Vec<usize> = items.iter().map(|&x| x * x).collect();
        for threads in [1usize, 2, 4, 8] {
            let handle = PoolHandle::dedicated(threads);
            let out = handle.map_indexed(&items, |i, &x| {
                assert_eq!(i, x, "index matches the item's position");
                x * x
            });
            assert_eq!(out, expected, "threads {threads}");
        }
        let empty: Vec<usize> = Vec::new();
        assert!(PoolHandle::dedicated(2)
            .map_indexed(&empty, |_i, &x: &usize| x)
            .is_empty());
    }

    #[test]
    fn dispatch_runs_every_part_exactly_once() {
        let pool = WorkerPool::new(4);
        for parts in 1..=4 {
            let hits: Vec<AtomicUsize> = (0..parts).map(|_| AtomicUsize::new(0)).collect();
            pool.dispatch(parts, &|p| {
                hits[p].fetch_add(1, Ordering::SeqCst);
            });
            for h in &hits {
                assert_eq!(h.load(Ordering::SeqCst), 1);
            }
        }
    }

    #[test]
    fn dispatch_map_collects_in_part_order() {
        let pool = WorkerPool::new(3);
        let out = pool.dispatch_map(3, |p| p * 10);
        assert_eq!(out, vec![0, 10, 20]);
    }

    #[test]
    fn pool_survives_many_dispatches() {
        let pool = WorkerPool::new(3);
        let counter = AtomicUsize::new(0);
        for _ in 0..500 {
            pool.dispatch(3, &|_| {
                counter.fetch_add(1, Ordering::Relaxed);
            });
        }
        assert_eq!(counter.load(Ordering::SeqCst), 1500);
    }

    /// `parts` gap-free regions covering `0..n` (the direct, exchange-free
    /// shape of [`WorkerPool::run_rounds`]).
    fn even_regions(n: usize, parts: usize) -> Vec<(usize, usize)> {
        (0..parts)
            .map(|k| (n * k / parts, n * (k + 1) / parts))
            .collect()
    }

    #[test]
    fn multi_round_double_buffer_matches_sequential_reference() {
        // each round: x[i] <- x[i] + max of the full previous buffer
        let n = 97;
        let rounds = 9;
        let reference = {
            let mut cur: Vec<u64> = (0..n as u64).collect();
            for _ in 0..rounds {
                let m = *cur.iter().max().unwrap();
                cur = cur.iter().map(|&x| x + m).collect();
            }
            cur
        };
        for parts in [1usize, 2, 3, 4] {
            let pool = WorkerPool::new(4);
            let regions = even_regions(n, parts);
            let mut front: Vec<u64> = (0..n as u64).collect();
            let mut back = front.clone();
            pool.run_rounds(
                &regions,
                &vec![Vec::new(); parts],
                rounds,
                &mut front,
                &mut back,
                |part: usize, _round: usize, prev: &[u64], next: &mut [u64]| {
                    let m = *prev.iter().max().unwrap();
                    let lo = regions[part].0;
                    for (i, slot) in next.iter_mut().enumerate() {
                        *slot = prev[lo + i] + m;
                    }
                },
                None,
                None,
            );
            assert_eq!(front, reference, "{parts} parts diverged");
        }
    }

    #[test]
    fn worker_panic_propagates_and_pool_survives() {
        let pool = WorkerPool::new(2);
        let result = catch_unwind(AssertUnwindSafe(|| {
            pool.dispatch(2, &|p| {
                if p == 1 {
                    panic!("worker boom");
                }
            });
        }));
        assert!(result.is_err(), "the worker panic must reach the caller");
        // the pool is still usable afterwards
        let counter = AtomicUsize::new(0);
        pool.dispatch(2, &|_| {
            counter.fetch_add(1, Ordering::SeqCst);
        });
        assert_eq!(counter.load(Ordering::SeqCst), 2);
    }

    #[test]
    fn multi_round_panic_does_not_deadlock() {
        let pool = WorkerPool::new(3);
        let n = 30;
        let mut front = vec![0u64; n];
        let mut back = vec![0u64; n];
        let result = catch_unwind(AssertUnwindSafe(|| {
            pool.run_rounds(
                &even_regions(n, 3),
                &vec![Vec::new(); 3],
                5,
                &mut front,
                &mut back,
                |part: usize, round: usize, _prev: &[u64], _next: &mut [u64]| {
                    if part == 1 && round == 2 {
                        panic!("mid-chunk boom");
                    }
                },
                None,
                None,
            );
        }));
        // the ORIGINAL payload must surface, not the secondary
        // barrier-poison panics it released in the sibling workers
        let payload = result.expect_err("the worker panic must propagate");
        let message = payload
            .downcast_ref::<&str>()
            .copied()
            .map(String::from)
            .or_else(|| payload.downcast_ref::<String>().cloned())
            .unwrap_or_default();
        assert!(
            message.contains("mid-chunk boom"),
            "poison sentinel masked the original panic: {message:?}"
        );
        // still dispatchable
        pool.dispatch(3, &|_| {});
    }

    /// The registry is process-wide and other tests run concurrently, so
    /// this asserts only what it promises whatever pools they hold.
    #[test]
    fn handles_share_registered_pools() {
        let a = PoolHandle::for_threads(5);
        let width = a.pool().threads();
        assert!(width >= 5);
        // a pool is created only when no live one fits, so there is at most
        // one live pool per width and a same-width request must share it
        let b = PoolHandle::for_threads(width);
        assert!(a.shares_pool_with(&b));
        // a smaller request gets the smallest live pool that fits: `a`'s,
        // or a narrower one another test happens to hold
        let c = PoolHandle::for_threads(3);
        assert!((3..=width).contains(&c.pool().threads()));
        let d = PoolHandle::dedicated(2);
        assert!(!d.shares_pool_with(&a));
    }

    /// Reference arena shape for the halo tests: two parts, each with a
    /// 4-slot interior and a 1-slot halo mirroring the other part's first
    /// interior slot.
    #[expect(
        clippy::type_complexity,
        reason = "the test returns exactly the `(regions, exchange)` pair `run_rounds` takes"
    )]
    fn tiny_halo_setup() -> (Vec<(usize, usize)>, Vec<Vec<(u32, u32)>>) {
        let regions = vec![(0usize, 4usize), (5, 9)];
        let exchange = vec![vec![(5u32, 4u32)], vec![(0, 9)]];
        (regions, exchange)
    }

    #[test]
    fn halo_rounds_match_the_sequential_reference_at_any_width() {
        // each round: interior slot i of a part becomes (own + mirrored
        // other-part value); halo slots refresh after every round
        let (regions, exchange) = tiny_halo_setup();
        let init: Vec<u64> = (1..=10).collect();
        let reference = |rounds: usize| {
            let mut cur = init.clone();
            for _ in 0..rounds {
                let mut next = cur.clone();
                for &(lo, hi) in &regions {
                    for i in lo..hi {
                        // every interior adds its part's halo slot value
                        let halo = if lo == 0 { cur[4] } else { cur[9] };
                        next[i] = cur[i] + halo;
                    }
                }
                next[4] = next[5];
                next[9] = next[0];
                cur = next;
            }
            cur
        };
        for rounds in [1usize, 2, 5] {
            let expected = reference(rounds);
            for threads in [1usize, 2, 4] {
                let pool = WorkerPool::new(threads);
                let mut front = init.clone();
                let mut back = init.clone();
                pool.run_rounds(
                    &regions,
                    &exchange,
                    rounds,
                    &mut front,
                    &mut back,
                    |part, _round, prev: &[u64], next: &mut [u64]| {
                        let (lo, _hi) = regions[part];
                        let halo = if part == 0 { prev[4] } else { prev[9] };
                        for (i, slot) in next.iter_mut().enumerate() {
                            *slot = prev[lo + i] + halo;
                        }
                    },
                    None,
                    None,
                );
                assert_eq!(front, expected, "rounds {rounds}, threads {threads}");
            }
        }
    }

    #[test]
    fn halo_rounds_reject_overlapping_destinations() {
        let (regions, mut exchange) = tiny_halo_setup();
        exchange[0].push((1, 9)); // slot 9 already pulled by part 1
        let pool = WorkerPool::new(2);
        let mut front = vec![0u64; 10];
        let mut back = vec![0u64; 10];
        let result = catch_unwind(AssertUnwindSafe(|| {
            pool.run_rounds(
                &regions,
                &exchange,
                1,
                &mut front,
                &mut back,
                |_, _, _, _| {},
                None,
                None,
            );
        }));
        assert!(result.is_err(), "duplicate halo destinations must panic");
    }

    #[test]
    fn halo_rounds_panic_does_not_deadlock() {
        let (regions, exchange) = tiny_halo_setup();
        let pool = WorkerPool::new(2);
        let mut front = vec![0u64; 10];
        let mut back = vec![0u64; 10];
        let result = catch_unwind(AssertUnwindSafe(|| {
            pool.run_rounds(
                &regions,
                &exchange,
                4,
                &mut front,
                &mut back,
                |part, round, _prev: &[u64], _next: &mut [u64]| {
                    if part == 1 && round == 2 {
                        panic!("halo boom");
                    }
                },
                None,
                None,
            );
        }));
        let payload = result.expect_err("the worker panic must propagate");
        let message = payload
            .downcast_ref::<&str>()
            .copied()
            .map(String::from)
            .or_else(|| payload.downcast_ref::<String>().cloned())
            .unwrap_or_default();
        assert!(
            message.contains("halo boom"),
            "poison sentinel masked the original panic: {message:?}"
        );
        pool.dispatch(2, &|_| {});
    }

    #[test]
    fn registry_pool_reuse_after_panic_is_sound() {
        // the satellite bugfix: a panic inside one borrower's dispatch must
        // leave the registry-shared pool healed for the *next* borrower
        for threads in [1usize, 2, 8] {
            let handle = PoolHandle::for_threads(threads);
            let panics_before = handle.pool().stats().panics();
            let respawns_before = handle.pool().stats().respawns();
            let result = catch_unwind(AssertUnwindSafe(|| {
                handle.pool().dispatch(threads, &|p| {
                    if p == threads - 1 {
                        panic!("borrower boom");
                    }
                });
            }));
            assert!(result.is_err(), "threads {threads}: panic must propagate");
            // the next borrower comes through the registry, not the old handle
            let next = PoolHandle::for_threads(threads);
            for _ in 0..2 {
                let counter = AtomicUsize::new(0);
                next.pool().dispatch(threads, &|_| {
                    counter.fetch_add(1, Ordering::SeqCst);
                });
                assert_eq!(counter.load(Ordering::SeqCst), threads, "threads {threads}");
            }
            if threads > 1 {
                // drive one dispatch through the *same* pool object so the
                // healing is observable on it even if a racing test slipped
                // a different (smaller) pool into the registry for `next`
                handle.pool().dispatch(threads, &|_| {});
                // the panicked part ran on a worker: it retired and was
                // respawned before the next epoch was published
                assert!(handle.pool().stats().panics() > panics_before);
                assert!(handle.pool().stats().respawns() > respawns_before);
            }
        }
    }

    #[test]
    fn panicked_workers_are_respawned_every_time() {
        let pool = WorkerPool::new(3);
        for i in 0..3 {
            let result = catch_unwind(AssertUnwindSafe(|| {
                pool.dispatch(3, &|p| {
                    if p == 2 {
                        panic!("boom {i}");
                    }
                });
            }));
            assert!(result.is_err());
            let counter = AtomicUsize::new(0);
            pool.dispatch(3, &|_| {
                counter.fetch_add(1, Ordering::SeqCst);
            });
            assert_eq!(counter.load(Ordering::SeqCst), 3);
        }
        assert_eq!(pool.stats().panics(), 3);
        assert_eq!(pool.stats().respawns(), 3);
        assert_eq!(pool.stats().barrier_timeouts(), 0);
    }

    #[test]
    fn hung_part_trips_the_watchdog_instead_of_deadlocking() {
        let pool = WorkerPool::new(2);
        let mut front = vec![0u64; 10];
        let mut back = vec![0u64; 10];
        let started = Instant::now();
        let result = catch_unwind(AssertUnwindSafe(|| {
            pool.run_rounds(
                &even_regions(10, 2),
                &[Vec::new(), Vec::new()],
                3,
                &mut front,
                &mut back,
                |part: usize, round: usize, _prev: &[u64], _next: &mut [u64]| {
                    if part == 1 && round == 1 {
                        // a *finite* stall: the dispatcher must still wait
                        // for the part to acknowledge (lifetime-erasure
                        // contract), so the test would deadlock forever on
                        // an infinite one — the watchdog bounds detection,
                        // not the stall
                        std::thread::sleep(Duration::from_millis(300));
                    }
                },
                None,
                Some(Duration::from_millis(40)),
            );
        }));
        let payload = result.expect_err("the watchdog must fire");
        assert!(
            is_timeout_panic(&payload),
            "expected the typed timeout sentinel"
        );
        assert!(started.elapsed() >= Duration::from_millis(40));
        assert_eq!(pool.stats().barrier_timeouts(), 1);
        assert_eq!(pool.stats().panics(), 0);
        // the stalled part was healthy (just slow): nothing retired, and
        // the pool dispatches again
        let counter = AtomicUsize::new(0);
        pool.dispatch(2, &|_| {
            counter.fetch_add(1, Ordering::SeqCst);
        });
        assert_eq!(counter.load(Ordering::SeqCst), 2);
        assert_eq!(pool.stats().respawns(), 0);
    }

    #[test]
    fn one_thread_pool_runs_inline() {
        let pool = WorkerPool::new(1);
        let counter = AtomicUsize::new(0);
        pool.dispatch(1, &|p| {
            assert_eq!(p, 0);
            counter.fetch_add(1, Ordering::SeqCst);
        });
        assert_eq!(counter.load(Ordering::SeqCst), 1);
    }
}
