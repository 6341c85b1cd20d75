//! One engine configuration: the full execution envelope behind every
//! runner, validated up front.
//!
//! [`EngineConfig`] captures everything that selects *how* a program is
//! executed — [`Backend`] (sharded engine or sequential reference),
//! [`Mode`] (synchronous rounds or daemon-driven asynchrony), worker
//! threads, [`LayoutPolicy`], the halo-exchange flag, a [`RecoveryPolicy`]
//! and an optional [`InjectionSpec`] — in one builder.
//! [`EngineConfig::validate`] rejects inconsistent envelopes with a typed
//! [`ConfigError`] (zero threads or batch width, halo outside the
//! synchronous sharded mode, knobs a backend would ignore) **before** anything
//! reaches the worker pool, and [`EngineConfig::instantiate`] builds the
//! matching execution path as a `Box<dyn Runner<P>>` — every runner behind
//! one call.
//!
//! The layers above — `ScenarioSpec`, the bench sweeps, the
//! adversary's trials and chaos cases — *hold* an `EngineConfig` and never
//! restate its fields (no forwarding setters: callers write
//! `.engine(EngineConfig::new().threads(3))`), so a new knob is added here
//! once.
//!
//! Observability is deliberately **not** part of the envelope: every knob
//! here selects semantics or placement, while measurement is attached
//! after instantiation via [`Runner::set_observer`] (e.g. a
//! `RecordingObserver`, or the telemetry crate's sinks) and never changes
//! results.
//!
//! ```
//! use smst_engine::{EngineConfig, LayoutPolicy, StopCondition};
//! use smst_engine::programs::MinIdFlood;
//! use smst_graph::generators::ring_graph;
//!
//! let program = MinIdFlood::new(0);
//! let config = EngineConfig::new().threads(4).layout(LayoutPolicy::Rcm);
//! let mut runner = config
//!     .instantiate(&program, ring_graph(64, 7))
//!     .expect("a valid config");
//! runner.run_until(StopCondition::AllAccept, 1_000).unwrap();
//! assert!(runner.all_accept());
//! ```

use crate::layout::LayoutPolicy;
use crate::pool::{panic_message, BarrierTimeoutPanic, PoolError};
use crate::runner::Runner;
use crate::sharded::ShardedRunner;
use smst_graph::WeightedGraph;
use smst_sim::{BatchDaemon, ChunkedDaemon, Daemon, Network, NodeProgram, ReferenceRunner};
use std::time::Duration;

/// Which implementation family executes the run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Backend {
    /// The sequential reference runner of `smst-sim`
    /// ([`ReferenceRunner`], rounds or a central daemon): the semantic
    /// ground truth the sharded engine is pinned against. Single-threaded
    /// by definition — sharded-only knobs (threads > 1, layout, halo) are
    /// rejected by [`EngineConfig::validate`].
    Reference,
    /// The sharded parallel engine ([`ShardedRunner`], rounds or a
    /// daemon's batches): bit-for-bit equal to the reference at any thread
    /// count.
    Sharded,
    /// The distributed engine: each shard runs in a worker **process**
    /// connected over a socket, the coordinator drives rounds through the
    /// same [`Runner`] trait (bit-for-bit equal to [`Backend::Sharded`]).
    /// Synchronous only; `threads` is the number of worker processes the
    /// graph is partitioned across. The execution path lives in the
    /// `smst-net` crate and is registered per program type via
    /// [`register_remote_factory`] (e.g. `smst_net::install_stock()`) —
    /// instantiating an unregistered program fails with
    /// [`ConfigError::RemoteUnavailable`].
    Remote,
}

/// The schedule a configuration runs under.
#[derive(Debug, Clone)]
pub enum Mode {
    /// Lock-step synchronous rounds.
    Sync,
    /// Daemon-driven asynchrony.
    Async(DaemonConfig),
}

impl Mode {
    /// `true` for the asynchronous mode.
    pub fn is_async(&self) -> bool {
        matches!(self, Mode::Async(_))
    }

    fn describe(&self) -> String {
        match self {
            Mode::Sync => "sync".to_string(),
            Mode::Async(daemon) => format!("async[{}]", daemon.describe()),
        }
    }
}

/// The daemon of an asynchronous configuration.
#[derive(Debug, Clone)]
pub enum DaemonConfig {
    /// A central [`Daemon`] executed in uniform chunks of `batch`
    /// simultaneous activations (`batch == 1` is the sequential reference
    /// semantics).
    Central {
        /// The central daemon.
        daemon: Daemon,
        /// Simultaneous activations per batch.
        batch: usize,
    },
    /// Any [`BatchDaemon`] — the fully general distributed daemon
    /// (adversarial batch daemons included). Only the sharded backend can
    /// execute it.
    Batch(Box<dyn BatchDaemon>),
}

impl DaemonConfig {
    /// Instantiates the boxed batch daemon this configuration describes.
    pub fn build(&self) -> Box<dyn BatchDaemon> {
        match self {
            DaemonConfig::Central { daemon, batch } => {
                Box::new(ChunkedDaemon::new(daemon.clone(), *batch))
            }
            DaemonConfig::Batch(daemon) => daemon.clone(),
        }
    }

    /// A short descriptor for labels and artifacts.
    pub fn describe(&self) -> String {
        match self {
            DaemonConfig::Central { daemon, batch } => {
                format!("{}@batch={batch}", daemon.describe())
            }
            DaemonConfig::Batch(daemon) => daemon.describe(),
        }
    }
}

/// Why an [`EngineConfig`] cannot be instantiated.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ConfigError {
    /// `threads == 0`: there is no zero-worker execution. (Previously a
    /// silent clamp to 1 deep in the runner constructors.)
    ZeroThreads,
    /// A central daemon chunked into batches of width 0: there is no
    /// zero-activation batch, and clamping it to 1 (as
    /// [`ChunkedDaemon::new`] does) would run another daemon than the one
    /// [`EngineConfig::describe`] names.
    ZeroBatch,
    /// The halo-exchange mode is defined only for synchronous schedules —
    /// asynchronous batches are not shard-aligned.
    HaloRequiresSync,
    /// A sharded-only knob (named in the payload) was set on the
    /// sequential [`Backend::Reference`].
    ReferenceKnob(&'static str),
    /// [`Backend::Reference`] executes only a central daemon at batch
    /// width 1 (the [`ReferenceRunner::daemon`] semantics).
    ReferenceNeedsCentralDaemon,
    /// A typed constructor was handed a config for a different execution
    /// path (e.g. [`ShardedRunner::from_config`] with a remote config).
    WrongMode {
        /// What the constructor executes.
        expected: &'static str,
        /// What the config describes.
        got: String,
    },
    /// A knob (named in the payload) the remote backend cannot honor was
    /// set on [`Backend::Remote`]: asynchronous schedules, or the halo flag
    /// (every remote round is a halo exchange, so the flag would select
    /// nothing).
    RemoteKnob(&'static str),
    /// No remote execution path is registered for this program type —
    /// [`Backend::Remote`] needs a [`register_remote_factory`] call first
    /// (the `smst-net` crate's `install_stock()` registers the stock
    /// workloads).
    RemoteUnavailable {
        /// The program's name.
        program: String,
    },
    /// Spawning or handshaking the remote worker set failed (worker
    /// binary missing, socket error, wire-version mismatch).
    RemoteSetup(String),
    /// A barrier watchdog was configured on a backend whose schedule
    /// ignores it (named in the payload) — a silently inert watchdog is a
    /// misconfiguration, not a default.
    InertWatchdog(&'static str),
}

impl std::fmt::Display for ConfigError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ConfigError::ZeroThreads => write!(f, "threads must be >= 1 (got 0)"),
            ConfigError::ZeroBatch => write!(f, "the batch width must be >= 1 (got 0)"),
            ConfigError::HaloRequiresSync => {
                write!(f, "halo exchange requires the synchronous sharded mode")
            }
            ConfigError::ReferenceKnob(knob) => write!(
                f,
                "the sequential reference backend does not support {knob}"
            ),
            ConfigError::ReferenceNeedsCentralDaemon => write!(
                f,
                "the sequential reference backend runs only a central daemon at batch width 1"
            ),
            ConfigError::WrongMode { expected, got } => {
                write!(f, "this constructor executes {expected} configs, got {got}")
            }
            ConfigError::RemoteKnob(knob) => {
                write!(f, "the remote backend does not support {knob}")
            }
            ConfigError::RemoteUnavailable { program } => write!(
                f,
                "no remote execution path is registered for program {program:?} \
                 (call smst_net::install_stock() or register_remote_factory first)"
            ),
            ConfigError::RemoteSetup(message) => {
                write!(f, "remote worker setup failed: {message}")
            }
            ConfigError::InertWatchdog(backend) => write!(
                f,
                "a barrier watchdog is configured but {backend} ignores it"
            ),
        }
    }
}

impl std::error::Error for ConfigError {}

/// Any failure of the engine's fallible driving surface
/// ([`Runner::try_step`] /
/// [`Runner::try_run_until`],
/// [`run_fault_experiment`](crate::run_fault_experiment) and
/// [`ScenarioSpec::run`](crate::ScenarioSpec::run)): either the envelope was
/// inconsistent ([`ConfigError`]) or the pooled execution failed at run
/// time ([`PoolError`] — a worker panic that exhausted its
/// [`RecoveryPolicy`], or a barrier watchdog timeout).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EngineError {
    /// The envelope failed validation.
    Config(ConfigError),
    /// The pooled execution failed at run time.
    Pool(PoolError),
}

impl std::fmt::Display for EngineError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            EngineError::Config(err) => write!(f, "{err}"),
            EngineError::Pool(err) => write!(f, "{err}"),
        }
    }
}

impl std::error::Error for EngineError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            EngineError::Config(err) => Some(err),
            EngineError::Pool(err) => Some(err),
        }
    }
}

impl From<ConfigError> for EngineError {
    fn from(err: ConfigError) -> Self {
        EngineError::Config(err)
    }
}

impl From<PoolError> for EngineError {
    fn from(err: PoolError) -> Self {
        EngineError::Pool(err)
    }
}

/// Supervised recovery for the sharded and remote runners: how a run responds when a
/// worker panics or hangs mid-epoch.
///
/// The default policy (`max_retries == 0`, no backoff, no watchdog) is
/// exactly the pre-recovery behaviour: the first worker panic surfaces as
/// an error (through [`Runner::try_step`]) or an
/// unwind (through the panicking convenience surface) and the run is over.
/// With `max_retries > 0` the runner snapshots its registers before every
/// step chunk, and on a worker panic restores the snapshot, sleeps the
/// (exponentially doubling) backoff, and replays the chunk — a successful
/// retry is **bit-for-bit invisible** in the deterministic trace, because
/// the replay starts from the exact pre-chunk registers.
///
/// `watchdog_timeout` arms the round-barrier watchdog of the synchronous
/// sharded runner: a part that fails to reach a round barrier within the
/// timeout turns into [`PoolError::BarrierTimeout`] instead of a deadlock.
/// Timeouts are never retried — a hung worker is a liveness bug, not a
/// transient fault.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct RecoveryPolicy {
    /// How many times a panicked step chunk is replayed before the error
    /// surfaces (0 = fail on the first panic).
    pub max_retries: u32,
    /// Base sleep before a replay; doubles on every further retry of the
    /// same chunk (`backoff`, `2·backoff`, `4·backoff`, …).
    pub backoff: Duration,
    /// Round-barrier watchdog: `Some(t)` poisons a barrier whose laggard
    /// has not arrived after `t`. Supported by the synchronous sharded
    /// runner (its round barrier) and the remote backend (the
    /// coordinator's per-round reply deadline);
    /// [`EngineConfig::validate`] rejects a watchdog on any backend that
    /// would ignore it ([`ConfigError::InertWatchdog`]). `None` waits
    /// forever, as before.
    pub watchdog_timeout: Option<Duration>,
}

impl RecoveryPolicy {
    /// The do-nothing policy (fail on first panic, no watchdog).
    pub fn none() -> Self {
        Self::default()
    }

    /// A policy that replays a panicked chunk up to `max_retries` times
    /// (no backoff, no watchdog — add them with the builders).
    pub fn retries(max_retries: u32) -> Self {
        RecoveryPolicy {
            max_retries,
            ..Self::default()
        }
    }

    /// Sets the base backoff slept before a replay (doubles per retry).
    pub fn backoff(mut self, backoff: Duration) -> Self {
        self.backoff = backoff;
        self
    }

    /// Arms the round-barrier watchdog.
    pub fn watchdog(mut self, timeout: Duration) -> Self {
        self.watchdog_timeout = Some(timeout);
        self
    }

    /// `true` for the default do-nothing policy.
    pub fn is_none(&self) -> bool {
        *self == Self::default()
    }

    /// The sleep before retry number `attempt` (1-based): the base backoff
    /// doubled per prior retry, saturating.
    pub fn backoff_before(&self, attempt: u32) -> Duration {
        let factor = 1u32 << attempt.saturating_sub(1).min(16);
        self.backoff.saturating_mul(factor)
    }

    /// The one supervised-attempt loop behind every backend's step: runs
    /// `attempt(ctx)` until it succeeds, and after an
    /// [`AttemptFailure::Died`] — while the policy has retries left — sleeps
    /// the backoff, calls `restore(ctx)` (put back the pre-attempt
    /// registers, respawn dead peers) and tries again. The caller keeps
    /// whatever a replay needs (a register snapshot, when
    /// `max_retries > 0`) in `ctx` or the closures.
    ///
    /// An [`AttemptFailure::Timeout`] is **never retried** and surfaces as
    /// [`PoolError::BarrierTimeout`]; exhausted retries, and a failing
    /// `restore`, surface as [`PoolError::WorkerPanic`] carrying the
    /// attempt count and the last message.
    pub fn supervise<C, T>(
        &self,
        ctx: &mut C,
        mut attempt: impl FnMut(&mut C) -> Result<T, AttemptFailure>,
        mut restore: impl FnMut(&mut C) -> Result<(), String>,
    ) -> Result<T, PoolError> {
        let mut attempts = 0u32;
        loop {
            let message = match attempt(ctx) {
                Ok(value) => return Ok(value),
                // a hung worker is a liveness bug, not a transient fault
                Err(AttemptFailure::Timeout(timeout)) => {
                    return Err(PoolError::BarrierTimeout { timeout })
                }
                Err(AttemptFailure::Died(message)) => message,
            };
            attempts += 1;
            if attempts > self.max_retries {
                return Err(PoolError::WorkerPanic { attempts, message });
            }
            let backoff = self.backoff_before(attempts);
            if !backoff.is_zero() {
                std::thread::sleep(backoff);
            }
            if let Err(message) = restore(ctx) {
                return Err(PoolError::WorkerPanic { attempts, message });
            }
        }
    }

    /// [`supervise`](Self::supervise) for in-process attempts that fail by
    /// unwinding: a caught panic is classified by
    /// [`AttemptFailure::from_panic`] (the pool has already respawned the
    /// dead worker), and `restore` cannot fail.
    pub(crate) fn supervise_unwinding<C>(
        &self,
        ctx: &mut C,
        mut attempt: impl FnMut(&mut C),
        mut restore: impl FnMut(&mut C),
    ) -> Result<(), PoolError> {
        self.supervise(
            ctx,
            |ctx| {
                std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| attempt(ctx)))
                    .map_err(AttemptFailure::from_panic)
            },
            |ctx| {
                restore(ctx);
                Ok(())
            },
        )
    }
}

/// Why one attempt under [`RecoveryPolicy::supervise`] failed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AttemptFailure {
    /// A part hung past the watchdog (the configured timeout). Never
    /// retried.
    Timeout(Duration),
    /// The attempt died — a worker panic, a dead or out-of-protocol peer —
    /// with this message. Retried while the policy allows.
    Died(String),
}

impl AttemptFailure {
    /// Classifies the payload of a caught unwind: the pool's watchdog
    /// sentinel is a [`Timeout`](Self::Timeout), anything else
    /// [`Died`](Self::Died) with the panic message.
    pub(crate) fn from_panic(payload: Box<dyn std::any::Any + Send>) -> Self {
        match payload.downcast_ref::<BarrierTimeoutPanic>() {
            Some(timeout) => AttemptFailure::Timeout(timeout.0),
            None => AttemptFailure::Died(panic_message(&payload)),
        }
    }
}

/// What a chaos injection does to its target part.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum InjectionKind {
    /// The part panics (`panic!`) — exercised by the
    /// [`RecoveryPolicy`] retry path.
    Panic,
    /// The part sleeps this many milliseconds before computing — exercised
    /// by the barrier watchdog. Meaningful on the synchronous sharded
    /// backend (the watchdog lives in its round barrier); elsewhere it only
    /// delays.
    Stall {
        /// Sleep duration in milliseconds.
        millis: u64,
    },
}

/// A one-shot worker fault injection for chaos tests and campaigns: at
/// step `step` (synchronous round or asynchronous time unit), part `part`
/// of the sharded execution misbehaves per
/// [`kind`](InjectionSpec::kind) — **exactly once**. The trigger disarms
/// when it fires, so a [`RecoveryPolicy`] replay of the same step runs
/// clean and the recovered trace is bit-for-bit identical to an uninjected
/// run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct InjectionSpec {
    /// What the injection does.
    pub kind: InjectionKind,
    /// The step (round / time unit) the injection fires at.
    pub step: usize,
    /// The part (shard / batch piece) the injection fires in.
    pub part: usize,
}

impl InjectionSpec {
    /// A one-shot worker panic at `(step, part)`.
    pub fn panic_at(step: usize, part: usize) -> Self {
        InjectionSpec {
            kind: InjectionKind::Panic,
            step,
            part,
        }
    }

    /// A one-shot worker stall of `millis` milliseconds at `(step, part)`.
    pub fn stall_at(step: usize, part: usize, millis: u64) -> Self {
        InjectionSpec {
            kind: InjectionKind::Stall { millis },
            step,
            part,
        }
    }
}

/// The armed runtime form of an [`InjectionSpec`]: shared by every part of
/// a dispatch, fires at most once across the whole run (retries included).
#[derive(Debug)]
pub(crate) struct ArmedInjection {
    spec: InjectionSpec,
    armed: std::sync::atomic::AtomicBool,
}

impl ArmedInjection {
    pub(crate) fn new(spec: InjectionSpec) -> Self {
        ArmedInjection {
            spec,
            armed: std::sync::atomic::AtomicBool::new(true),
        }
    }

    /// Fires the injection iff `(step, part)` match and it has not fired
    /// yet. Called from worker threads inside the compute phase; the
    /// one-shot swap is what keeps a recovered replay clean.
    pub(crate) fn maybe_fire(&self, step: usize, part: usize) {
        if step != self.spec.step || part != self.spec.part {
            return;
        }
        // relaxed is enough: the flag is monotone (true -> false) and the
        // pool's dispatch protocol orders the retry after the panic
        if !self.armed.swap(false, std::sync::atomic::Ordering::Relaxed) {
            return;
        }
        match self.spec.kind {
            InjectionKind::Panic => {
                panic!("injected chaos panic (step {step}, part {part})")
            }
            InjectionKind::Stall { millis } => {
                std::thread::sleep(Duration::from_millis(millis));
            }
        }
    }
}

/// The constructor a remote execution path registers for one program type:
/// builds the [`Backend::Remote`] runner from the program, the graph and
/// the validated envelope. A plain `fn` pointer — the registry stores it
/// type-erased and [`EngineConfig::instantiate`] recovers it by
/// `TypeId`.
pub type RemoteFactory<P> =
    for<'p> fn(&'p P, WeightedGraph, &EngineConfig) -> Result<Box<dyn Runner<P> + 'p>, ConfigError>;

/// The process-wide registry mapping program types to their remote
/// execution path: `TypeId::of::<P>()` → the monomorphic
/// [`RemoteFactory<P>`] fn pointer, type-erased behind `Any`.
static REMOTE_FACTORIES: std::sync::Mutex<
    Vec<(std::any::TypeId, Box<dyn std::any::Any + Send + Sync>)>,
> = std::sync::Mutex::new(Vec::new());

/// Registers (or replaces) the [`Backend::Remote`] execution path for one
/// program type. The engine crate stays socket-free: the `smst-net` crate
/// registers every wire-capable program (`smst_net::install_stock()`) and
/// [`EngineConfig::instantiate`] dispatches through this registry —
/// instantiating an unregistered program fails with
/// [`ConfigError::RemoteUnavailable`].
pub fn register_remote_factory<P>(factory: RemoteFactory<P>)
where
    P: NodeProgram + 'static,
{
    let mut registry = REMOTE_FACTORIES
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner);
    let key = std::any::TypeId::of::<P>();
    if let Some(slot) = registry.iter_mut().find(|(k, _)| *k == key) {
        slot.1 = Box::new(factory);
    } else {
        registry.push((key, Box::new(factory)));
    }
}

/// The registered remote execution path for `P`, if any.
fn remote_factory<P>() -> Option<RemoteFactory<P>>
where
    P: NodeProgram + 'static,
{
    let registry = REMOTE_FACTORIES
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner);
    let key = std::any::TypeId::of::<P>();
    registry
        .iter()
        .find(|(k, _)| *k == key)
        .and_then(|(_, factory)| factory.downcast_ref::<RemoteFactory<P>>())
        .copied()
}

/// The full execution envelope of one run. See the [module docs](self).
#[derive(Debug, Clone)]
pub struct EngineConfig {
    /// Implementation family (sharded engine or sequential reference).
    pub backend: Backend,
    /// Synchronous rounds or daemon-driven asynchrony.
    pub mode: Mode,
    /// Worker threads — worker **processes** on [`Backend::Remote`]
    /// (validated ≥ 1; purely wall-clock).
    pub threads: usize,
    /// Node renumbering applied before sharding (wall-clock only; results
    /// are layout-invariant).
    pub layout: LayoutPolicy,
    /// Halo-exchange execution mode (synchronous sharded schedules only;
    /// wall-clock only).
    pub halo: bool,
    /// Supervised recovery: retry-with-backoff for panicked step chunks
    /// and the round-barrier watchdog. The default policy is the exact
    /// pre-recovery behaviour (fail on first panic, wait forever).
    /// Sharded-backend only; results are recovery-invariant.
    pub recovery: RecoveryPolicy,
    /// A one-shot chaos injection (worker panic or stall) for tests and
    /// campaigns. Sharded-backend only; with a sufficient
    /// [`recovery`](Self::recovery) policy, results are
    /// injection-invariant.
    pub injection: Option<InjectionSpec>,
}

impl Default for EngineConfig {
    fn default() -> Self {
        Self::new()
    }
}

impl EngineConfig {
    /// A synchronous, single-threaded sharded configuration with no layout
    /// pass and no halo exchange.
    pub fn new() -> Self {
        EngineConfig {
            backend: Backend::Sharded,
            mode: Mode::Sync,
            threads: 1,
            layout: LayoutPolicy::Identity,
            halo: false,
            recovery: RecoveryPolicy::default(),
            injection: None,
        }
    }

    /// [`EngineConfig::new`] on the sequential [`Backend::Reference`] —
    /// the oracle configuration equivalence tests drive through the same
    /// API as the engine under test.
    pub fn reference() -> Self {
        EngineConfig {
            backend: Backend::Reference,
            ..Self::new()
        }
    }

    /// [`EngineConfig::new`] on [`Backend::Remote`] with `peers` worker
    /// processes (`threads = peers`).
    pub fn remote(peers: usize) -> Self {
        EngineConfig {
            backend: Backend::Remote,
            threads: peers,
            ..Self::new()
        }
    }

    /// Sets the backend.
    pub fn backend(mut self, backend: Backend) -> Self {
        self.backend = backend;
        self
    }

    /// Switches to the synchronous mode.
    pub fn sync(mut self) -> Self {
        self.mode = Mode::Sync;
        self
    }

    /// Switches to an asynchronous schedule: a central [`Daemon`] executed
    /// in uniform chunks of `batch` simultaneous activations.
    pub fn asynchronous(mut self, daemon: Daemon, batch: usize) -> Self {
        self.mode = Mode::Async(DaemonConfig::Central { daemon, batch });
        self
    }

    /// Switches to an asynchronous schedule under **any** [`BatchDaemon`]
    /// (e.g. the adversarial batch daemons of `smst-adversary`).
    pub fn batch_daemon(mut self, daemon: Box<dyn BatchDaemon>) -> Self {
        self.mode = Mode::Async(DaemonConfig::Batch(daemon));
        self
    }

    /// Sets the worker-thread count. `0` is **not** clamped — it fails
    /// [`validate`](Self::validate) with [`ConfigError::ZeroThreads`].
    pub fn threads(mut self, threads: usize) -> Self {
        self.threads = threads;
        self
    }

    /// Sets the layout policy (RCM renumbering before sharding).
    pub fn layout(mut self, layout: LayoutPolicy) -> Self {
        self.layout = layout;
        self
    }

    /// Switches the halo-exchange execution mode on or off (synchronous
    /// sharded schedules only — anything else fails
    /// [`validate`](Self::validate)).
    pub fn halo(mut self, halo: bool) -> Self {
        self.halo = halo;
        self
    }

    /// Sets the [`RecoveryPolicy`] (sharded backend only).
    pub fn recovery(mut self, recovery: RecoveryPolicy) -> Self {
        self.recovery = recovery;
        self
    }

    /// Arms a one-shot chaos [`InjectionSpec`] (sharded backend only).
    pub fn inject(mut self, injection: InjectionSpec) -> Self {
        self.injection = Some(injection);
        self
    }

    /// Checks the envelope for consistency. Every constructor consuming an
    /// `EngineConfig` validates first, so invalid knob combinations
    /// surface here as typed [`ConfigError`]s instead of panics (or silent
    /// clamps) deep in dispatch.
    pub fn validate(&self) -> Result<(), ConfigError> {
        if self.threads == 0 {
            return Err(ConfigError::ZeroThreads);
        }
        if let Mode::Async(DaemonConfig::Central { batch: 0, .. }) = self.mode {
            return Err(ConfigError::ZeroBatch);
        }
        if self.halo && self.mode.is_async() {
            return Err(ConfigError::HaloRequiresSync);
        }
        // a watchdog lives in the round barrier and the remote coordinator's
        // reply deadline; batches have neither and would silently ignore it
        // (the reference backend rejects every recovery knob below)
        let batches = self.backend == Backend::Sharded && self.mode.is_async();
        if batches && self.recovery.watchdog_timeout.is_some() {
            return Err(ConfigError::InertWatchdog(
                "the asynchronous sharded backend",
            ));
        }
        if self.backend == Backend::Remote {
            if self.mode.is_async() {
                return Err(ConfigError::RemoteKnob("asynchronous schedules"));
            }
            if self.halo {
                return Err(ConfigError::RemoteKnob("the halo flag"));
            }
        }
        if self.backend == Backend::Reference {
            if self.threads > 1 {
                return Err(ConfigError::ReferenceKnob("threads > 1"));
            }
            if self.layout != LayoutPolicy::Identity {
                return Err(ConfigError::ReferenceKnob("a layout policy"));
            }
            if self.halo {
                return Err(ConfigError::ReferenceKnob("halo exchange"));
            }
            if !self.recovery.is_none() {
                return Err(ConfigError::ReferenceKnob("a recovery policy"));
            }
            if self.injection.is_some() {
                return Err(ConfigError::ReferenceKnob("chaos injection"));
            }
            if let Mode::Async(daemon) = &self.mode {
                match daemon {
                    DaemonConfig::Central { batch: 1, .. } => {}
                    _ => return Err(ConfigError::ReferenceNeedsCentralDaemon),
                }
            }
        }
        Ok(())
    }

    /// The [`ConfigError::WrongMode`] a typed constructor that executes
    /// `expected` envelopes returns when handed this one.
    pub fn wrong_mode(&self, expected: &'static str) -> ConfigError {
        ConfigError::WrongMode {
            expected,
            got: self.describe(),
        }
    }

    /// A short, stable descriptor of the envelope (for labels, bench meta
    /// and artifacts), e.g. `sharded-sync(threads=4,layout=Rcm,halo)`.
    pub fn describe(&self) -> String {
        let backend = match self.backend {
            Backend::Reference => "reference",
            Backend::Sharded => "sharded",
            Backend::Remote => "remote",
        };
        let mut knobs = format!("threads={}", self.threads);
        if self.layout != LayoutPolicy::Identity {
            knobs.push_str(&format!(",layout={:?}", self.layout));
        }
        if self.halo {
            knobs.push_str(",halo");
        }
        format!("{backend}-{}({knobs})", self.mode.describe())
    }

    /// Builds the execution path this envelope describes over `graph`,
    /// with every register initialized by `program.init` — any runner,
    /// behind one object-safe [`Runner`].
    ///
    /// Fails with the [`ConfigError`] of [`validate`](Self::validate) on
    /// an inconsistent envelope; never panics on configuration problems.
    pub fn instantiate<'p, P>(
        &self,
        program: &'p P,
        graph: WeightedGraph,
    ) -> Result<Box<dyn Runner<P> + 'p>, ConfigError>
    where
        P: NodeProgram + Sync + 'static,
        P::State: Send + Sync,
    {
        self.validate()?;
        Ok(match (self.backend, &self.mode) {
            (Backend::Sharded, _) => Box::new(ShardedRunner::from_config(program, graph, self)?),
            (Backend::Remote, Mode::Sync) => {
                let factory =
                    remote_factory::<P>().ok_or_else(|| ConfigError::RemoteUnavailable {
                        program: program.name().to_string(),
                    })?;
                factory(program, graph, self)?
            }
            (Backend::Remote, Mode::Async(_)) => {
                unreachable!("validate rejects asynchronous remote envelopes")
            }
            (Backend::Reference, mode) => {
                let network = Network::new(program, graph);
                Box::new(match mode {
                    Mode::Sync => ReferenceRunner::rounds(program, network),
                    Mode::Async(DaemonConfig::Central { daemon, .. }) => {
                        ReferenceRunner::daemon(program, network, daemon.clone())
                    }
                    Mode::Async(_) => {
                        unreachable!("validate rejects non-central reference daemons")
                    }
                })
            }
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::programs::MinIdFlood;
    use crate::runner::StopCondition;
    use smst_graph::generators::{expander_graph, path_graph};

    #[test]
    fn invalid_configs_are_typed_errors_not_panics() {
        assert_eq!(
            EngineConfig::new().threads(0).validate(),
            Err(ConfigError::ZeroThreads)
        );
        assert_eq!(
            EngineConfig::new()
                .asynchronous(Daemon::RoundRobin, 4)
                .halo(true)
                .validate(),
            Err(ConfigError::HaloRequiresSync)
        );
        // batch width 0 is an error, not a silent run at width 1
        for backend in [Backend::Sharded, Backend::Reference] {
            assert_eq!(
                EngineConfig::new()
                    .backend(backend)
                    .asynchronous(Daemon::RoundRobin, 0)
                    .validate(),
                Err(ConfigError::ZeroBatch)
            );
        }
        assert_eq!(
            EngineConfig::reference().threads(2).validate(),
            Err(ConfigError::ReferenceKnob("threads > 1"))
        );
        assert_eq!(
            EngineConfig::reference()
                .layout(LayoutPolicy::Rcm)
                .validate(),
            Err(ConfigError::ReferenceKnob("a layout policy"))
        );
        assert_eq!(
            EngineConfig::reference().halo(true).validate(),
            Err(ConfigError::ReferenceKnob("halo exchange"))
        );
        assert_eq!(
            EngineConfig::reference()
                .asynchronous(Daemon::RoundRobin, 2)
                .validate(),
            Err(ConfigError::ReferenceNeedsCentralDaemon)
        );
        assert_eq!(
            EngineConfig::reference()
                .recovery(RecoveryPolicy::retries(2))
                .validate(),
            Err(ConfigError::ReferenceKnob("a recovery policy"))
        );
        assert_eq!(
            EngineConfig::reference()
                .inject(InjectionSpec::panic_at(3, 0))
                .validate(),
            Err(ConfigError::ReferenceKnob("chaos injection"))
        );
        assert_eq!(
            EngineConfig::reference()
                .batch_daemon(Box::new(ChunkedDaemon::new(Daemon::RoundRobin, 1)))
                .validate(),
            Err(ConfigError::ReferenceNeedsCentralDaemon)
        );
        // errors surface through instantiate too, not as panics
        let program = MinIdFlood::new(0);
        let err = EngineConfig::new()
            .threads(0)
            .instantiate(&program, path_graph(4, 0))
            .err()
            .expect("zero threads must not instantiate");
        assert_eq!(err, ConfigError::ZeroThreads);
        assert!(err.to_string().contains("threads"));
    }

    #[test]
    fn valid_envelopes_validate() {
        assert_eq!(EngineConfig::new().validate(), Ok(()));
        assert_eq!(
            EngineConfig::new()
                .threads(8)
                .layout(LayoutPolicy::Rcm)
                .halo(true)
                .validate(),
            Ok(())
        );
        assert_eq!(EngineConfig::reference().validate(), Ok(()));
        assert_eq!(
            EngineConfig::reference()
                .asynchronous(Daemon::RoundRobin, 1)
                .validate(),
            Ok(())
        );
        assert_eq!(
            EngineConfig::new()
                .threads(4)
                .recovery(
                    RecoveryPolicy::retries(3)
                        .backoff(Duration::from_millis(1))
                        .watchdog(Duration::from_secs(5))
                )
                .inject(InjectionSpec::stall_at(2, 1, 10))
                .validate(),
            Ok(())
        );
    }

    #[test]
    fn remote_envelopes_validate_the_wire_contract() {
        assert_eq!(
            EngineConfig::remote(2)
                .asynchronous(Daemon::RoundRobin, 4)
                .validate(),
            Err(ConfigError::RemoteKnob("asynchronous schedules"))
        );
        // every remote round is a halo exchange: a halo flag would give one
        // execution two labels, so it is rejected rather than ignored
        assert_eq!(
            EngineConfig::remote(3).halo(true).validate(),
            Err(ConfigError::RemoteKnob("the halo flag"))
        );
        // layout, recovery (watchdog included) and injection are all
        // wire-honorable knobs
        assert_eq!(
            EngineConfig::remote(2)
                .layout(LayoutPolicy::Rcm)
                .recovery(
                    RecoveryPolicy::retries(1)
                        .backoff(Duration::from_millis(1))
                        .watchdog(Duration::from_secs(1))
                )
                .inject(InjectionSpec::panic_at(1, 0))
                .validate(),
            Ok(())
        );
        // without a registered factory, instantiate is a typed error
        let program = MinIdFlood::new(0);
        let err = EngineConfig::remote(2)
            .instantiate(&program, path_graph(4, 0))
            .err()
            .expect("no remote factory is registered in this crate");
        assert_eq!(
            err,
            ConfigError::RemoteUnavailable {
                program: "min-id-flood".to_string()
            }
        );
        assert!(err.to_string().contains("min-id-flood"));
    }

    #[test]
    fn the_validity_table_is_exhaustive() {
        // (a) every envelope the seven fields can spell: `validate` and
        // `instantiate` give the same verdict, so neither `unreachable!`
        // of `instantiate` can be reached
        let program = MinIdFlood::new(0);
        let modes: [fn(EngineConfig) -> EngineConfig; 4] = [
            |c| c.sync(),
            |c| c.asynchronous(Daemon::RoundRobin, 1),
            |c| c.asynchronous(Daemon::RoundRobin, 4),
            |c| c.batch_daemon(Box::new(ChunkedDaemon::new(Daemon::RoundRobin, 1))),
        ];
        let recoveries = [
            RecoveryPolicy::none(),
            RecoveryPolicy::retries(2),
            RecoveryPolicy::none().watchdog(Duration::from_secs(5)),
        ];
        let (mut envelopes, mut valid) = (0, 0);
        for backend in [Backend::Reference, Backend::Sharded, Backend::Remote] {
            for mode in modes {
                for threads in [0usize, 1, 3] {
                    for layout in [LayoutPolicy::Identity, LayoutPolicy::Rcm] {
                        for halo in [false, true] {
                            for recovery in recoveries {
                                for injection in [None, Some(InjectionSpec::panic_at(1, 0))] {
                                    let config = EngineConfig {
                                        injection,
                                        ..mode(EngineConfig::new())
                                            .backend(backend)
                                            .threads(threads)
                                            .layout(layout)
                                            .halo(halo)
                                            .recovery(recovery)
                                    };
                                    let verdict = config.validate();
                                    valid += usize::from(verdict.is_ok());
                                    let expected = match verdict {
                                        Err(err) => Some(err),
                                        // no factory is registered inside
                                        // this crate: the typed answer of a
                                        // valid remote envelope
                                        Ok(()) if backend == Backend::Remote => {
                                            Some(ConfigError::RemoteUnavailable {
                                                program: "min-id-flood".to_string(),
                                            })
                                        }
                                        Ok(()) => None,
                                    };
                                    let built = config.instantiate(&program, path_graph(4, 0));
                                    assert_eq!(built.err(), expected, "{config:?}");
                                    envelopes += 1;
                                }
                            }
                        }
                    }
                }
            }
        }
        // reference: sync or central batch 1, threads 1, every knob off;
        // sharded: threads ∈ {1, 3} × layout × injection × (sync: halo ×
        // recovery, async: 3 daemons × the two watchdog-free recoveries);
        // remote: sync, threads ∈ {1, 3}, halo off, every other field free
        assert_eq!((envelopes, valid), (864, 2 + (48 + 48) + 24));

        // (b) the labels runs carry in BENCH_* / CAMPAIGN_* artifacts
        let random = Daemon::Random {
            seed: 7,
            extra_factor: 1,
        };
        let labels = [
            (EngineConfig::reference(), "reference-sync(threads=1)"),
            (EngineConfig::new(), "sharded-sync(threads=1)"),
            (EngineConfig::new().threads(4), "sharded-sync(threads=4)"),
            (
                EngineConfig::new().threads(2).halo(true),
                "sharded-sync(threads=2,halo)",
            ),
            (
                EngineConfig::new().threads(2).layout(LayoutPolicy::Rcm),
                "sharded-sync(threads=2,layout=Rcm)",
            ),
            (
                EngineConfig::new()
                    .threads(4)
                    .layout(LayoutPolicy::Rcm)
                    .halo(true),
                "sharded-sync(threads=4,layout=Rcm,halo)",
            ),
            (
                EngineConfig::new()
                    .threads(4)
                    .recovery(RecoveryPolicy::retries(3))
                    .inject(InjectionSpec::stall_at(2, 1, 10)),
                "sharded-sync(threads=4)",
            ),
            (EngineConfig::remote(2), "remote-sync(threads=2)"),
            (
                EngineConfig::remote(3).layout(LayoutPolicy::Rcm),
                "remote-sync(threads=3,layout=Rcm)",
            ),
            (
                EngineConfig::reference().asynchronous(Daemon::RoundRobin, 1),
                "reference-async[round-robin@batch=1](threads=1)",
            ),
            (
                EngineConfig::new().threads(3).asynchronous(random, 64),
                "sharded-async[random(seed=7,extra=1)@batch=64](threads=3)",
            ),
            (
                EngineConfig::new()
                    .threads(2)
                    .layout(LayoutPolicy::Rcm)
                    .batch_daemon(Box::new(ChunkedDaemon::new(Daemon::RoundRobin, 4))),
                "sharded-async[round-robin@batch=4](threads=2,layout=Rcm)",
            ),
        ];
        for (config, label) in labels {
            assert_eq!(config.describe(), label);
        }

        // (c) on the remote backend `threads` is the worker-process count
        for k in [1usize, 2, 5] {
            let config = EngineConfig::remote(k);
            assert_eq!((config.validate(), config.threads), (Ok(()), k));
        }
        assert_eq!(
            EngineConfig::remote(0).validate(),
            Err(ConfigError::ZeroThreads)
        );
    }

    #[test]
    fn watchdog_on_an_ignoring_backend_is_rejected() {
        let watchdog = RecoveryPolicy::none().watchdog(Duration::from_secs(1));
        assert_eq!(
            EngineConfig::new()
                .threads(2)
                .asynchronous(Daemon::RoundRobin, 4)
                .recovery(watchdog)
                .validate(),
            Err(ConfigError::InertWatchdog(
                "the asynchronous sharded backend"
            ))
        );
        // the synchronous sharded barrier and the remote reply deadline
        // both honor the watchdog
        assert_eq!(
            EngineConfig::new().threads(2).recovery(watchdog).validate(),
            Ok(())
        );
        assert_eq!(
            EngineConfig::remote(2).recovery(watchdog).validate(),
            Ok(())
        );
    }

    #[test]
    fn recovery_policy_backoff_doubles_and_saturates() {
        let policy = RecoveryPolicy::retries(4).backoff(Duration::from_millis(10));
        assert_eq!(policy.backoff_before(1), Duration::from_millis(10));
        assert_eq!(policy.backoff_before(2), Duration::from_millis(20));
        assert_eq!(policy.backoff_before(3), Duration::from_millis(40));
        assert!(RecoveryPolicy::none().is_none());
        assert!(!policy.is_none());
        // recovery and injection are label-invariant: describe() is stable
        let described = EngineConfig::new()
            .threads(4)
            .recovery(policy)
            .inject(InjectionSpec::panic_at(1, 0))
            .describe();
        assert_eq!(described, "sharded-sync(threads=4)");
    }

    /// What a supervised attempt sees: how often it ran, how often it was
    /// restored, and the "registers" a restore must put back.
    #[derive(Default)]
    struct Supervised {
        attempts: u32,
        restores: u32,
        registers: u32,
    }

    #[test]
    fn supervise_retries_backs_off_and_restores() {
        let policy = RecoveryPolicy::retries(2).backoff(Duration::from_millis(5));
        let mut ctx = Supervised::default();
        #[expect(
            clippy::disallowed_methods,
            reason = "test asserts the backoff's wall-time floor, not round state"
        )]
        let started = std::time::Instant::now();
        let outcome = policy.supervise(
            &mut ctx,
            |ctx| {
                ctx.attempts += 1;
                ctx.registers += 100; // a failed attempt leaves garbage behind
                if ctx.attempts <= 2 {
                    Err(AttemptFailure::Died(format!("boom {}", ctx.attempts)))
                } else {
                    Ok(ctx.registers)
                }
            },
            |ctx| {
                ctx.restores += 1;
                ctx.registers = 0;
                Ok(())
            },
        );
        // the third attempt ran on restored registers
        assert_eq!(outcome, Ok(100));
        assert_eq!((ctx.attempts, ctx.restores), (3, 2));
        // 5 ms before the first retry, 10 ms before the second
        assert!(started.elapsed() >= Duration::from_millis(15));
    }

    #[test]
    fn supervise_surfaces_exhausted_retries_and_failed_restores() {
        let mut ctx = Supervised::default();
        let die = |ctx: &mut Supervised| -> Result<(), AttemptFailure> {
            ctx.attempts += 1;
            Err(AttemptFailure::Died(format!("boom {}", ctx.attempts)))
        };
        let restore = |ctx: &mut Supervised| {
            ctx.restores += 1;
            Ok(())
        };
        // the default policy never retries (and never restores)
        assert_eq!(
            RecoveryPolicy::none().supervise(&mut ctx, die, restore),
            Err(PoolError::WorkerPanic {
                attempts: 1,
                message: "boom 1".to_string()
            })
        );
        assert_eq!(ctx.restores, 0);
        // one retry: two attempts, the last message wins
        let mut ctx = Supervised::default();
        assert_eq!(
            RecoveryPolicy::retries(1).supervise(&mut ctx, die, restore),
            Err(PoolError::WorkerPanic {
                attempts: 2,
                message: "boom 2".to_string()
            })
        );
        assert_eq!((ctx.attempts, ctx.restores), (2, 1));
        // a restore that fails ends the run with its own message
        let mut ctx = Supervised::default();
        assert_eq!(
            RecoveryPolicy::retries(5).supervise(&mut ctx, die, |_| Err("no respawn".to_string())),
            Err(PoolError::WorkerPanic {
                attempts: 1,
                message: "no respawn".to_string()
            })
        );
        assert_eq!(ctx.attempts, 1);
    }

    #[test]
    fn supervise_never_retries_a_timeout() {
        let limit = Duration::from_millis(40);
        let mut ctx = Supervised::default();
        let outcome: Result<(), PoolError> = RecoveryPolicy::retries(5).supervise(
            &mut ctx,
            |ctx| {
                ctx.attempts += 1;
                Err(AttemptFailure::Timeout(limit))
            },
            |ctx| {
                ctx.restores += 1;
                Ok(())
            },
        );
        assert_eq!(outcome, Err(PoolError::BarrierTimeout { timeout: limit }));
        assert_eq!((ctx.attempts, ctx.restores), (1, 0));
        // unwinding attempts are classified by payload: the pool's watchdog
        // sentinel is a timeout, any other panic a (retryable) death
        let unwinding = |payload: fn()| {
            RecoveryPolicy::retries(1).supervise_unwinding(&mut (), |()| payload(), |()| {})
        };
        assert_eq!(
            unwinding(|| std::panic::panic_any(BarrierTimeoutPanic(Duration::from_millis(7)))),
            Err(PoolError::BarrierTimeout {
                timeout: Duration::from_millis(7)
            })
        );
        assert_eq!(
            unwinding(|| panic!("worker boom")),
            Err(PoolError::WorkerPanic {
                attempts: 2,
                message: "worker boom".to_string()
            })
        );
    }

    #[test]
    fn armed_injection_fires_exactly_once() {
        let armed = ArmedInjection::new(InjectionSpec::panic_at(2, 1));
        armed.maybe_fire(0, 1); // wrong step: inert
        armed.maybe_fire(2, 0); // wrong part: inert
        let hit = std::panic::catch_unwind(|| armed.maybe_fire(2, 1));
        assert!(hit.is_err(), "matching (step, part) must fire");
        // disarmed after firing: the retried epoch runs clean
        armed.maybe_fire(2, 1);
    }

    #[test]
    fn all_four_execution_paths_instantiate() {
        let program = MinIdFlood::new(0);
        let g = expander_graph(40, 4, 3);
        let configs = [
            EngineConfig::reference(),
            EngineConfig::reference().asynchronous(Daemon::RoundRobin, 1),
            EngineConfig::new().threads(3).halo(true),
            EngineConfig::new()
                .threads(3)
                .asynchronous(Daemon::RoundRobin, 8),
        ];
        let mut finals = Vec::new();
        for config in configs {
            let mut runner = config
                .instantiate(&program, g.clone())
                .expect("valid config");
            runner
                .run_until(StopCondition::AllAccept, 500)
                .expect("the flood converges on every path");
            finals.push(runner.into_network().states().to_vec());
        }
        // all four paths agree on the final configuration
        for states in &finals[1..] {
            assert_eq!(states, &finals[0]);
        }
    }

    #[test]
    fn describe_names_the_envelope() {
        assert_eq!(
            EngineConfig::new().threads(4).describe(),
            "sharded-sync(threads=4)"
        );
        let described = EngineConfig::new()
            .threads(2)
            .layout(LayoutPolicy::Rcm)
            .halo(true)
            .describe();
        assert!(described.contains("layout=Rcm") && described.contains("halo"));
        assert!(EngineConfig::reference()
            .asynchronous(Daemon::RoundRobin, 1)
            .describe()
            .starts_with("reference-async[round-robin@batch=1]"));
    }
}
