//! The coordinator: [`RemoteRunner`] drives `Backend::Remote` rounds over
//! worker processes through the engine's object-safe `Runner` trait.
//!
//! The coordinator owns the canonical register mirror (internal layout
//! order), the barrier (it commits a round only when **every** worker's
//! reply is in), fault injection (the one-shot chaos injection rides the
//! round dispatch) and observer aggregation (`exchange_ns` is real wire
//! time, `compute_ns` the slowest worker's measured compute). It is also
//! the only process that ever holds the graph: the arena, the partition
//! and the halo plan are built here, once. Workers own nothing durable and
//! nothing global — each holds one region of the plan, shipped ready-made
//! in its one-time setup frame ([`setup_frame`]: region-local CSR,
//! interior contexts, the region's registers from the **current** mirror)
//! — so killing and respawning a worker loses no state the coordinator
//! cannot restore, and a worker's memory and set-up time are its shard's,
//! not the world's. Measured on a 10⁵-node degree-8 expander: a set-up
//! frame is 3.2 MB at 2 workers and 1.1 MB at 8 where the whole-graph
//! frame was 8.0 MB for every worker; at 2 workers a worker's `VmHWM`
//! falls from 50.8 MB to 15.7 MB and the first round from 109–119 ms to
//! 10–15 ms (dense rounds after it: 3.5–5 ms), because no worker rebuilds
//! graph, arena and plan behind the coordinator's back any more.
//!
//! # What a round ships
//!
//! Only what changed. Every worker keeps its halo slots between rounds, so
//! a dispatch lists, per worker, the interior registers the coordinator
//! wrote since the last commit (`dirty`: injected faults, `state_mut`) and
//! the halo slots whose owner register is **stale** there — changed by the
//! last committed round, or dirty. The reply lists the interiors the sweep
//! changed; committing them to the mirror yields the next round's stale
//! set. When nothing changed, a round is one empty [`RoundFrame`] and one
//! empty reply per worker, and the coordinator does no per-register work
//! at all. `RoundStats::halo_bytes` keeps meaning *the registers the
//! round's halo schedule covers* (`HaloPlan::exchanged_bytes_per_round`,
//! equal on every halo backend); what really crossed the sockets is
//! [`RemoteRunner::wire_totals`].
//!
//! # Failure surface
//!
//! The typed `PoolError` machinery carries over from the in-process pool:
//! a dead peer (socket close, worker panic) is retried under the
//! envelope's `RecoveryPolicy` — kill + respawn + full resync + replay
//! from the exact pre-round registers, so a successful recovery is
//! **bit-for-bit invisible** in the register stream — and surfaces as
//! `PoolError::WorkerPanic` once retries are exhausted. A peer that hangs
//! past the policy's watchdog surfaces as `PoolError::BarrierTimeout`
//! (never retried), both through `Runner::try_step`. Stale replies from a
//! failed attempt are recognized by the dispatch counter echoed in every
//! reply and skipped. A failed attempt retires nothing: the dirty and
//! stale sets stand until a commit, and the dispatch after it re-ships
//! every region whole ([`DeltaIndex::All`](crate::wire::DeltaIndex)), so
//! whatever a survivor did with the failed dispatch is overwritten.

#![expect(
    clippy::disallowed_methods,
    reason = "observed-round timing and the teardown grace deadline; never feeds round state"
)]

use crate::program::{encode_delta, encode_states, stage_delta, StagedDelta, WireProgram};
use crate::transport::{unique_endpoint, Conn, Endpoint, Listener};
use crate::wire::{
    Frame, RoundFrame, SetupFrame, WireError, WireInjection, WireRegion, ERR_VERSION, WIRE_VERSION,
};
use smst_engine::{
    partition_balanced, Arena, AttemptFailure, Backend, ConfigError, EngineConfig, EngineError,
    HaloPlan, InjectionKind, InjectionSpec, PoolError, RecoveryPolicy, RunReport, Runner,
};
use smst_graph::{NodeId, WeightedGraph};
use smst_sim::{FaultPlan, Network, NodeContext, RoundObserver, RoundStats};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

/// How long the coordinator waits for a spawned worker to connect and
/// handshake.
const SETUP_TIMEOUT: Duration = Duration::from_secs(20);

/// How long an orderly shutdown waits before killing a worker.
const SHUTDOWN_GRACE: Duration = Duration::from_secs(5);

/// One connected worker process.
#[derive(Debug)]
struct Worker {
    part: usize,
    child: Child,
    conn: Conn,
    /// Payload bytes of the setup frame this process was booted from.
    setup_bytes: usize,
}

/// The coordinator-side armed form of an [`InjectionSpec`]: disarmed the
/// moment it is put on the wire, so a recovery replay of the same round
/// runs clean (the process analog of the pool's `ArmedInjection`).
#[derive(Debug)]
struct PendingInjection {
    spec: InjectionSpec,
    armed: bool,
}

/// What the round protocol put on the sockets, summed over **committed**
/// rounds: the `Round` / `Interiors` frames of each round's delta
/// schedule. Recovery traffic — failed attempts, and the surplus of the
/// whole-region resync that follows one — is a function of the fault, not
/// of the run, and is left out, so the totals are a pure function of
/// graph, seed and schedule (a recovered run reads exactly what the clean
/// run reads).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct WireTotals {
    /// Frames, both directions (two per worker per round).
    pub frames: u64,
    /// Payload bytes coordinator → workers.
    pub bytes_out: u64,
    /// Payload bytes workers → coordinator.
    pub bytes_in: u64,
    /// Registers shipped coordinator → workers (patches + halo slots).
    pub registers_out: u64,
    /// Registers shipped workers → coordinator (changed interiors).
    pub registers_in: u64,
    /// Registers the dense v1 protocol shipped for the same rounds: every
    /// halo slot out and every interior back, every round, plus patches.
    pub registers_dense: u64,
}

impl std::ops::AddAssign for WireTotals {
    fn add_assign(&mut self, other: WireTotals) {
        self.frames += other.frames;
        self.bytes_out += other.bytes_out;
        self.bytes_in += other.bytes_in;
        self.registers_out += other.registers_out;
        self.registers_in += other.registers_in;
        self.registers_dense += other.registers_dense;
    }
}

/// The `Backend::Remote` execution path: shards as worker processes over
/// sockets, driven round by round by this coordinator. See the
/// [module docs](self).
#[derive(Debug)]
pub struct RemoteRunner<'p, P: WireProgram> {
    /// The canonical register mirror (and everything else about the nodes).
    arena: Arena<'p, P>,
    /// The shard geometry: worker `part` is shipped, and holds, region
    /// `part` of this plan.
    plan: HaloPlan,
    peers: usize,
    listener: Listener,
    endpoint: Endpoint,
    worker_bin: std::path::PathBuf,
    workers: WorkerSet,
    rounds: usize,
    /// Monotone dispatch counter (staleness filter for recovery replays).
    dispatches: u64,
    recovery: RecoveryPolicy,
    injection: Option<PendingInjection>,
    observer: Option<Box<dyn RoundObserver>>,
    /// Internal indices written since the last commit (fault injection /
    /// `state_mut`), patched to their owning worker next round.
    dirty: Vec<u32>,
    /// Internal indices whose mirror register some worker's halo copy may
    /// lag, ascending: the last committed round's change set, plus `dirty`
    /// once a dispatch has folded it in. Replaced only at a commit.
    stale: Vec<u32>,
    /// The parts whose peers failed the last dispatch attempt, respawned
    /// before the replay.
    failed: Vec<usize>,
    /// The last dispatch did not commit, so no worker's region can be
    /// trusted: the next one ships every region whole.
    resync: bool,
    totals: WireTotals,
}

impl<'p, P: WireProgram> RemoteRunner<'p, P> {
    /// Launches the remote execution path on the default localhost
    /// transport (a fresh Unix socket where available, TCP loopback
    /// elsewhere): binds, spawns one `smst-net worker` process per shard,
    /// handshakes and ships each its region.
    pub fn launch(
        program: &'p P,
        graph: WeightedGraph,
        config: &EngineConfig,
    ) -> Result<Self, ConfigError> {
        Self::launch_on(program, graph, config, unique_endpoint())
    }

    /// [`RemoteRunner::launch`] on an explicit endpoint (tests exercise
    /// the TCP transport through this).
    pub fn launch_on(
        program: &'p P,
        graph: WeightedGraph,
        config: &EngineConfig,
        endpoint: Endpoint,
    ) -> Result<Self, ConfigError> {
        config.validate()?;
        if config.backend != Backend::Remote {
            return Err(config.wrong_mode("remote synchronous"));
        }
        let peers = config.threads;
        let arena = Arena::new(program, graph, config.layout);
        let plan = HaloPlan::build(
            arena.topology(),
            &partition_balanced(arena.topology(), peers),
        );
        let worker_bin = worker_binary().map_err(ConfigError::RemoteSetup)?;
        let (listener, endpoint) = Listener::bind(&endpoint)
            .map_err(|e| ConfigError::RemoteSetup(format!("bind {}: {e}", endpoint.to_arg())))?;

        let mut runner = RemoteRunner {
            arena,
            plan,
            peers,
            listener,
            endpoint,
            worker_bin,
            workers: WorkerSet::default(),
            rounds: 0,
            dispatches: 0,
            recovery: config.recovery,
            injection: config
                .injection
                .map(|spec| PendingInjection { spec, armed: true }),
            observer: None,
            dirty: Vec::new(),
            stale: Vec::new(),
            failed: Vec::new(),
            resync: false,
            totals: WireTotals::default(),
        };
        let parts: Vec<usize> = (0..runner.plan.shard_count()).collect();
        runner.workers.0 = runner
            .bring_up_workers(&parts)
            .map_err(ConfigError::RemoteSetup)?;
        Ok(runner)
    }

    /// Spawns a worker process for each of `parts`, then boots them
    /// ([`boot_workers`](Self::boot_workers)). Returns the workers in part
    /// order; on any failure every process spawned here is killed.
    fn bring_up_workers(&self, parts: &[usize]) -> Result<Vec<Worker>, String> {
        let mut pending: Vec<(usize, Child)> = Vec::with_capacity(parts.len());
        let mut up: Vec<Worker> = Vec::with_capacity(parts.len());
        if let Err(e) = self.boot_workers(parts, &mut pending, &mut up) {
            let paired = up.into_iter().map(|worker| worker.child);
            for mut child in pending.into_iter().map(|(_, child)| child).chain(paired) {
                let _ = child.kill();
                let _ = child.wait();
            }
            return Err(e);
        }
        up.sort_unstable_by_key(|worker| worker.part);
        Ok(up)
    }

    /// Spawns every process before the first `accept`, so the workers
    /// start up side by side, then serves whichever dials in first: each
    /// connection is paired with the child of the part its
    /// [`Frame::Hello`] announces and shipped that part's region. A child
    /// sits in `pending` until its connection moves it to `up`.
    fn boot_workers(
        &self,
        parts: &[usize],
        pending: &mut Vec<(usize, Child)>,
        up: &mut Vec<Worker>,
    ) -> Result<(), String> {
        for &part in parts {
            pending.push((part, spawn_worker(&self.worker_bin, &self.endpoint, part)?));
        }
        while !pending.is_empty() {
            let mut conn = self
                .listener
                .accept_deadline(SETUP_TIMEOUT)
                .map_err(|e| format!("a worker of parts {parts:?} never connected: {e}"))?;
            let announced =
                handshake_accept(&mut conn).map_err(|e| format!("worker handshake failed: {e}"))?;
            let slot = pending
                .iter()
                .position(|&(part, _)| part == announced as usize)
                .ok_or_else(|| format!("a worker announced part {announced}, which awaits none"))?;
            // from the mirror as it stands: a respawned worker starts where
            // the coordinator is, not from `init`
            let setup = setup_frame(&self.arena, &self.plan, pending[slot].0);
            let setup_bytes = conn
                .send(&Frame::Setup(setup))
                .map_err(|e| format!("worker {announced} setup failed: {e}"))?;
            let (part, child) = pending.swap_remove(slot);
            up.push(Worker {
                part,
                child,
                conn,
                setup_bytes,
            });
        }
        Ok(())
    }

    /// Kills and replaces the workers of the parts that failed the last
    /// attempt, booting each from the region of the current mirror (the
    /// replay's resync puts the survivors on the same pre-round
    /// registers).
    fn respawn_failed(&mut self) -> Result<(), String> {
        let parts = std::mem::take(&mut self.failed);
        for worker in self.workers.0.iter_mut() {
            if parts.contains(&worker.part) {
                let _ = worker.child.kill();
                let _ = worker.child.wait();
            }
        }
        for replacement in self.bring_up_workers(&parts)? {
            let idx = self
                .workers
                .0
                .iter()
                .position(|w| w.part == replacement.part)
                .ok_or_else(|| format!("no worker holds part {}", replacement.part))?;
            self.workers.0[idx] = replacement;
        }
        Ok(())
    }

    /// One round dispatch attempt: per worker the two deltas of the module
    /// docs (+ the optional injection) out, then the barrier — wait for
    /// every reply (skipping stale ones by dispatch counter), validate it,
    /// and commit the changed interiors to the mirror only when all are
    /// in; they become the next round's stale set. Returns
    /// `(max worker compute_ns, wire wall time)`; wall time is read only
    /// when `observed`. On a peer failure the dead parts are left in
    /// [`failed`](Self::failed) for [`respawn_failed`](Self::respawn_failed)
    /// and neither the dirty nor the stale set has been retired.
    fn dispatch_round(&mut self, observed: bool) -> Result<(u64, u64), AttemptFailure> {
        if self.workers.0.is_empty() {
            return Ok((0, 0));
        }
        self.dispatches += 1;
        let dispatch = self.dispatches;
        let round = self.rounds as u64;
        let shards = self.plan.shards();
        // cleared at the commit below
        let resync = std::mem::replace(&mut self.resync, true);

        // the coordinator's own writes are stale everywhere; a replay folds
        // the same set in again
        if !self.dirty.is_empty() {
            self.dirty.sort_unstable();
            self.dirty.dedup();
            self.stale = union_ascending(&self.stale, &self.dirty);
        }

        // one-shot injection: disarmed the moment it goes on the wire
        let mut inject_at: Option<(usize, WireInjection)> = None;
        if let Some(pending) = &mut self.injection {
            if pending.armed && pending.spec.step == self.rounds && pending.spec.part < shards.len()
            {
                pending.armed = false;
                let kind = match pending.spec.kind {
                    InjectionKind::Panic => WireInjection::Panic,
                    InjectionKind::Stall { millis } => WireInjection::Stall { millis },
                };
                inject_at = Some((pending.spec.part, kind));
            }
        }

        // observer-gated: never read unobserved, never steers results
        let wire_start = observed.then(Instant::now);
        let states = self.arena.states();
        let mut failed: Vec<usize> = Vec::new();
        let mut failure = String::new();
        let mut shipped = WireTotals {
            frames: 2 * self.workers.0.len() as u64,
            registers_dense: (self.plan.total_halo() + states.len() + self.dirty.len()) as u64,
            ..WireTotals::default()
        };

        for worker in self.workers.0.iter_mut() {
            let part = worker.part;
            let shard = shards[part];
            let halo_nodes = self.plan.halo_nodes(part);
            let round_frame = |patch, halo| RoundFrame {
                round,
                dispatch,
                patch,
                halo,
                inject: inject_at
                    .filter(|&(target, _)| target == part)
                    .map(|(_, kind)| kind),
            };
            let lo = self.dirty.partition_point(|&u| (u as usize) < shard.start);
            let hi = self.dirty.partition_point(|&u| (u as usize) < shard.end);
            let patch = encode_delta::<P, _>(
                shard.len(),
                self.dirty[lo..hi]
                    .iter()
                    .map(|&u| (u - shard.start as u32, &states[u as usize])),
            );
            let halo = encode_delta::<P, _>(
                halo_nodes.len(),
                common_positions(&self.stale, halo_nodes)
                    .map(|slot| (slot, &states[halo_nodes[slot as usize] as usize])),
            );
            shipped.registers_out +=
                (patch.count(shard.len()) + halo.count(halo_nodes.len())) as u64;
            let scheduled = round_frame(patch, halo);
            let sent = if resync {
                // the schedule's frame is what the totals count; what
                // goes out lists both regions whole
                let scheduled_len = scheduled.encoded_len();
                let interiors = (0u32..).zip(&states[shard.nodes()]);
                let slots = (0u32..).zip(halo_nodes.iter().map(|&u| &states[u as usize]));
                let whole = round_frame(
                    encode_delta::<P, _>(shard.len(), interiors),
                    encode_delta::<P, _>(halo_nodes.len(), slots),
                );
                worker
                    .conn
                    .send(&Frame::Round(whole))
                    .map(|_| scheduled_len)
            } else {
                worker.conn.send(&Frame::Round(scheduled))
            };
            match sent {
                Ok(len) => shipped.bytes_out += len as u64,
                Err(e) => {
                    failed.push(part);
                    failure = format!("worker {part} send: {e}");
                }
            }
        }

        // the barrier: every reply must be in, and valid, before anything
        // commits
        let watchdog = self.recovery.watchdog_timeout;
        let mut replies: Vec<(usize, StagedDelta<P::State>)> =
            Vec::with_capacity(self.workers.0.len());
        let mut max_compute = 0u64;
        for worker in self.workers.0.iter_mut() {
            let part = worker.part;
            if failed.contains(&part) {
                continue;
            }
            if let Err(e) = worker.conn.set_read_timeout(watchdog) {
                failed.push(part);
                failure = format!("worker {part} deadline: {e}");
                continue;
            }
            loop {
                match worker.conn.recv() {
                    Ok(Frame::Interiors(reply)) => {
                        if reply.dispatch < dispatch {
                            continue; // stale reply from a failed attempt
                        }
                        if reply.dispatch > dispatch || reply.round != round {
                            failed.push(part);
                            failure = format!("worker {part} replied out of protocol");
                            break;
                        }
                        match stage_delta::<P>(reply.interiors, shards[part].len()) {
                            Ok(interiors) => {
                                max_compute = max_compute.max(reply.compute_ns);
                                shipped.bytes_in += worker.conn.received_len() as u64;
                                shipped.registers_in += interiors.count() as u64;
                                replies.push((part, interiors));
                            }
                            Err(e) => {
                                failed.push(part);
                                failure = format!("worker {part} reply: {e}");
                            }
                        }
                        break;
                    }
                    Ok(Frame::Error { code, message }) => {
                        failed.push(part);
                        failure = format!("worker {part} error (code {code}): {message}");
                        break;
                    }
                    Ok(_) => {
                        failed.push(part);
                        failure = format!("worker {part} replied out of protocol");
                        break;
                    }
                    Err(WireError::Timeout) => {
                        return Err(AttemptFailure::Timeout(watchdog.unwrap_or_default()));
                    }
                    Err(e) => {
                        failed.push(part);
                        failure = format!("worker {part}: {e}");
                        break;
                    }
                }
            }
        }
        if !failed.is_empty() {
            self.failed = failed;
            return Err(AttemptFailure::Died(failure));
        }

        // the commit; workers sit in part order, so the change set comes
        // out ascending
        self.stale.clear();
        for (part, interiors) in replies {
            let shard = shards[part];
            let mirror = &mut self.arena.states_mut()[shard.nodes()];
            interiors.for_each(|local, state| {
                mirror[local] = state;
                self.stale.push((shard.start + local) as u32);
            });
        }
        self.dirty.clear();
        self.resync = false;
        self.totals += shipped;
        let wire_ns = wire_start.map_or(0, |t| t.elapsed().as_nanos() as u64);
        Ok((max_compute, wire_ns))
    }

    /// The supervised round behind [`Runner::try_step`]: dispatch, and on
    /// peer failure retry under [`RecoveryPolicy::supervise`] —
    /// kill + respawn the dead peers, force a full resync, replay the
    /// round from the exact pre-round mirror (recovery is invisible in
    /// the register stream). Timeouts are never retried.
    fn try_round(&mut self) -> Result<(), PoolError> {
        let observed = self.observer.is_some();
        // observer-gated: never read unobserved, never steers results
        let step_start = observed.then(Instant::now);
        let policy = self.recovery;
        let (compute_ns, wire_ns) = policy.supervise(
            self,
            |this| this.dispatch_round(observed),
            Self::respawn_failed,
        )?;
        self.rounds += 1;
        if let Some(start) = step_start {
            self.observe_round(start.elapsed().as_nanos() as u64, compute_ns, wire_ns);
        }
        Ok(())
    }

    /// Emits the just-completed round: `compute_ns` is the slowest
    /// worker's measured compute, `exchange_ns` the wire wall time net of
    /// that overlapped compute, `dispatch_ns` the residual — the four
    /// phases sum to the measured step total, as everywhere else.
    /// `halo_bytes` is the halo schedule's coverage, part of the
    /// deterministic projection every halo backend agrees on; the bytes a
    /// round really shipped are in [`wire_totals`](Self::wire_totals).
    fn observe_round(&mut self, total_ns: u64, compute_ns: u64, wire_ns: u64) {
        let exchange_ns = wire_ns.saturating_sub(compute_ns);
        let stats = RoundStats {
            round: self.rounds - 1,
            alarms: self.arena.alarm_count(),
            activations: self.arena.node_count(),
            halo_bytes: self
                .plan
                .exchanged_bytes_per_round(std::mem::size_of::<P::State>())
                as u64,
            dispatch_ns: total_ns
                .saturating_sub(compute_ns)
                .saturating_sub(exchange_ns),
            compute_ns,
            barrier_ns: 0,
            exchange_ns,
        };
        if let Some(observer) = self.observer.as_mut() {
            observer.on_round(&stats);
        }
    }

    /// The actual endpoint the coordinator listens on (TCP port 0
    /// resolved) — what the worker processes dialed.
    pub fn endpoint(&self) -> &Endpoint {
        &self.endpoint
    }

    /// Live worker processes (== shard count, which a small graph may
    /// cap below the configured peer count).
    pub fn worker_count(&self) -> usize {
        self.workers.0.len()
    }

    /// What the committed rounds so far put on the sockets.
    pub fn wire_totals(&self) -> WireTotals {
        self.totals
    }

    /// Payload bytes of the setup frame each live worker was booted from,
    /// in part order — set-up traffic, which [`wire_totals`](Self::wire_totals)
    /// (round traffic) leaves out.
    pub fn setup_bytes(&self) -> Vec<usize> {
        self.workers.0.iter().map(|w| w.setup_bytes).collect()
    }
}

/// The setup frame of region `part` of `plan` over `arena`: the
/// region-local CSR, the interior contexts and the region's registers as
/// the arena holds them now — interiors, then the halo slots' owners. A
/// pure function of its arguments that touches nothing outside the region.
///
/// # Panics
///
/// Panics if `plan` is a direct plan (no local CSRs) or `part` is not one
/// of its shards.
pub fn setup_frame<P: WireProgram>(
    arena: &Arena<'_, P>,
    plan: &HaloPlan,
    part: usize,
) -> SetupFrame {
    let shard = plan.shards()[part];
    let halo_nodes = plan.halo_nodes(part);
    let csr = plan.local_csr(part).expect("a halo plan has local CSRs");
    let states = arena.states();
    let mut spec = Vec::new();
    arena.program().encode_spec(&mut spec);
    SetupFrame {
        part: part as u32,
        program: P::WIRE_NAME.to_string(),
        spec,
        region: WireRegion::from_parts(csr, &arena.contexts()[shard.nodes()], halo_nodes.len()),
        registers: encode_states::<P, _>(
            states[shard.nodes()]
                .iter()
                .chain(halo_nodes.iter().map(|&u| &states[u as usize])),
        ),
    }
}

/// The union of two ascending, duplicate-free lists, ascending.
fn union_ascending(a: &[u32], b: &[u32]) -> Vec<u32> {
    let mut out = Vec::with_capacity(a.len() + b.len());
    let (mut i, mut j) = (0, 0);
    while i < a.len() && j < b.len() {
        let next = a[i].min(b[j]);
        i += usize::from(a[i] == next);
        j += usize::from(b[j] == next);
        out.push(next);
    }
    out.extend_from_slice(&a[i..]);
    out.extend_from_slice(&b[j..]);
    out
}

/// The positions in `list` of the values it shares with `set` (both
/// ascending and duplicate-free), ascending. One merge pass that ends with
/// the shorter side: an empty `set` costs nothing.
fn common_positions<'a>(set: &'a [u32], list: &'a [u32]) -> impl Iterator<Item = u32> + 'a {
    let (mut s, mut l) = (0, 0);
    std::iter::from_fn(move || {
        while s < set.len() && l < list.len() {
            match set[s].cmp(&list[l]) {
                std::cmp::Ordering::Less => s += 1,
                std::cmp::Ordering::Greater => l += 1,
                std::cmp::Ordering::Equal => {
                    s += 1;
                    l += 1;
                    return Some(l as u32 - 1);
                }
            }
        }
        None
    })
}

/// The live worker processes. Dropping the set sends every worker an
/// orderly shutdown, waits for each socket to close, then reaps the
/// processes (killing any that outlive the grace period).
#[derive(Debug, Default)]
struct WorkerSet(Vec<Worker>);

impl Drop for WorkerSet {
    fn drop(&mut self) {
        for worker in self.0.iter_mut() {
            let _ = worker.conn.send(&Frame::Shutdown);
        }
        let deadline = Instant::now() + SHUTDOWN_GRACE;
        for mut worker in self.0.drain(..) {
            // an exiting worker closes its socket: block on that EOF (or
            // reset) with what is left of the grace period as the read
            // deadline, skipping any reply still in flight
            let left = deadline.saturating_duration_since(Instant::now());
            let gone = !left.is_zero()
                && worker.conn.set_read_timeout(Some(left)).is_ok()
                && loop {
                    match worker.conn.recv() {
                        Ok(_) => {}
                        Err(WireError::Timeout) => break false,
                        Err(_) => break true,
                    }
                };
            if !gone {
                let _ = worker.child.kill();
            }
            let _ = worker.child.wait();
        }
    }
}

impl<'p, P: WireProgram> Runner<P> for RemoteRunner<'p, P> {
    fn try_step(&mut self) -> Result<(), EngineError> {
        Ok(self.try_round()?)
    }

    fn steps(&self) -> usize {
        self.rounds
    }

    fn activations(&self) -> usize {
        self.rounds * self.arena.node_count()
    }

    fn graph(&self) -> &WeightedGraph {
        self.arena.graph()
    }

    fn state(&self, v: NodeId) -> &P::State {
        self.arena.state(v)
    }

    fn state_mut(&mut self, v: NodeId) -> &mut P::State {
        self.dirty
            .push(self.arena.layout().internal(v.index()) as u32);
        self.arena.state_mut(v)
    }

    fn states_snapshot(&self) -> Vec<P::State> {
        self.arena.states_snapshot()
    }

    fn context(&self, v: NodeId) -> NodeContext {
        *self.arena.context(v)
    }

    fn any_alarm(&self) -> bool {
        self.arena.any_alarm()
    }

    fn all_accept(&self) -> bool {
        self.arena.all_accept()
    }

    fn alarming_nodes(&self) -> Vec<NodeId> {
        self.arena.alarming_nodes()
    }

    fn apply_faults(&mut self, plan: &FaultPlan, mutate: &mut dyn FnMut(NodeId, &mut P::State)) {
        let layout = self.arena.layout();
        self.dirty.extend(
            plan.nodes()
                .iter()
                .map(|v| layout.internal(v.index()) as u32),
        );
        self.arena.apply_faults(plan, mutate);
    }

    fn set_observer(&mut self, observer: Box<dyn RoundObserver>) {
        self.observer = Some(observer);
    }

    fn report(&self) -> RunReport {
        RunReport {
            node_count: self.arena.node_count(),
            steps: self.rounds,
            activations: Runner::activations(self),
            threads: self.peers,
            engine: format!("remote-sync(peers={})", self.peers),
        }
    }

    fn into_network(self: Box<Self>) -> Network<P> {
        // dropping the rest of the runner shuts the workers down
        self.arena.into_network()
    }
}

/// The coordinator's half of the versioned handshake: reads the worker's
/// [`Frame::Hello`], rejects a version skew with a typed
/// [`Frame::Error`] + [`WireError::VersionMismatch`], acknowledges
/// otherwise. Returns the worker's announced part index.
pub fn handshake_accept(conn: &mut Conn) -> Result<u32, WireError> {
    match conn.recv()? {
        Frame::Hello { version, part } => {
            if version != WIRE_VERSION {
                let _ = conn.send(&Frame::Error {
                    code: ERR_VERSION,
                    message: format!(
                        "coordinator speaks wire v{WIRE_VERSION}, worker announced v{version}"
                    ),
                });
                return Err(WireError::VersionMismatch {
                    ours: WIRE_VERSION,
                    theirs: version,
                });
            }
            conn.send(&Frame::HelloAck {
                version: WIRE_VERSION,
            })?;
            Ok(part)
        }
        _ => Err(WireError::BadValue("expected Hello")),
    }
}

/// Locates the `smst-net` worker binary: the `SMST_NET_WORKER` env
/// override first (tests point it at `CARGO_BIN_EXE_smst-net`), then a
/// sibling of the current executable, then the parent directory (the
/// `target/<profile>/` layout when tests run from `deps/`).
fn worker_binary() -> Result<std::path::PathBuf, String> {
    if let Ok(path) = std::env::var("SMST_NET_WORKER") {
        return Ok(std::path::PathBuf::from(path));
    }
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let name = format!("smst-net{}", std::env::consts::EXE_SUFFIX);
    let mut candidates = Vec::new();
    if let Some(dir) = exe.parent() {
        candidates.push(dir.join(&name));
        if let Some(parent) = dir.parent() {
            candidates.push(parent.join(&name));
        }
    }
    candidates
        .into_iter()
        .find(|c| c.is_file())
        .ok_or_else(|| "cannot locate the smst-net worker binary; set SMST_NET_WORKER".to_string())
}

/// Spawns one worker process dialing `endpoint` for `part`.
fn spawn_worker(bin: &std::path::Path, endpoint: &Endpoint, part: usize) -> Result<Child, String> {
    Command::new(bin)
        .arg("worker")
        .arg("--connect")
        .arg(endpoint.to_arg())
        .arg("--part")
        .arg(part.to_string())
        .stdin(Stdio::null())
        .spawn()
        .map_err(|e| format!("spawn worker {part} ({}): {e}", bin.display()))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unions_stay_ascending_and_duplicate_free() {
        assert_eq!(union_ascending(&[], &[]), Vec::<u32>::new());
        assert_eq!(union_ascending(&[1, 4], &[]), [1, 4]);
        assert_eq!(
            union_ascending(&[1, 4, 9], &[0, 4, 5, 12]),
            [0, 1, 4, 5, 9, 12]
        );
        // folding the same set in twice (a replay does) changes nothing
        let once = union_ascending(&[2, 7], &[3, 7]);
        assert_eq!(union_ascending(&once, &[3, 7]), once);
    }

    #[test]
    fn common_positions_index_the_list_not_the_set() {
        let slots = |set: &[u32], list: &[u32]| common_positions(set, list).collect::<Vec<_>>();
        assert_eq!(slots(&[], &[3, 5, 8]), Vec::<u32>::new());
        assert_eq!(slots(&[5], &[]), Vec::<u32>::new());
        assert_eq!(slots(&[0, 5, 6, 8, 9], &[3, 5, 8]), [1, 2]);
        assert_eq!(slots(&[3, 5, 8], &[3, 5, 8]), [0, 1, 2]);
        assert_eq!(slots(&[4, 6], &[3, 5, 8]), Vec::<u32>::new());
    }
}
