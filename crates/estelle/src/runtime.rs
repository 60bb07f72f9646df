//! The Estelle runtime: module tree, channels, firing engine.
//!
//! This is the artifact the paper's code generator emits code *against*
//! — the runtime system that owns module instances, their individual
//! interaction-point queues, and the rules of ISO 9074 scheduling
//! (parent precedence, activity mutual exclusion, static system-module
//! population, dynamic creation by parents only).

use crate::ctx::{Ctx, Effect};
use crate::error::{EstelleError, Result};
use crate::ids::{IpIndex, IpRef, ModuleId, ModuleKind, ModuleLabels, StateId};
use crate::interaction::Interaction;
use crate::machine::{
    Dispatch, Fsm, IpState, ModuleExec, QueuedMsg, Selected, StateMachine, DEFAULT_TRANSITION_COST,
};
use crate::trace::{ExecTrace, FiringRecord, TraceModuleMeta};
use netsim::{Clock, SimDuration, SimTime, VirtualClock};
use parking_lot::{Mutex, RwLock};
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// Result of attempting to fire one module once.
#[derive(Debug, Clone)]
pub enum FireOutcome {
    /// A transition fired.
    Fired(FiredMeta),
    /// No transition of the module is currently enabled.
    NotEnabled,
    /// The module is enabled but an ancestor has work (parent
    /// precedence) — it may not run now.
    Blocked,
    /// The module does not exist or has been released.
    Dead,
}

/// Details of a successful firing.
#[derive(Debug, Clone)]
pub struct FiredMeta {
    /// The module that fired.
    pub module: ModuleId,
    /// Transition name.
    pub transition: &'static str,
    /// Virtual cost of the transition.
    pub cost: SimDuration,
    /// Transitions inspected during selection.
    pub scanned: u32,
    /// State before.
    pub from_state: StateId,
    /// State after.
    pub to_state: StateId,
}

/// Static description of a module instance.
#[derive(Debug, Clone)]
pub struct ModuleMeta {
    /// Module id.
    pub id: ModuleId,
    /// Instance name.
    pub name: String,
    /// Estelle attribute.
    pub kind: ModuleKind,
    /// Grouping labels.
    pub labels: ModuleLabels,
    /// Parent module.
    pub parent: Option<ModuleId>,
    /// Whether the module is still alive.
    pub alive: bool,
}

/// Scheduler/runtime instrumentation counters (cumulative).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Counters {
    /// Transitions fired (excluding `initialize` blocks).
    pub firings: u64,
    /// `initialize` blocks run.
    pub inits: u64,
    /// Transition-selection calls (scheduler scans).
    pub selects: u64,
    /// Wall nanoseconds spent selecting (scheduler overhead).
    pub scan_ns: u64,
    /// Wall nanoseconds spent in transition actions (useful work).
    pub action_ns: u64,
    /// Firings refused because an ancestor had work.
    pub blocked: u64,
    /// Outputs on unconnected interaction points (lost).
    pub lost_outputs: u64,
    /// Messages routed to released modules (dropped).
    pub msgs_to_dead: u64,
}

impl Counters {
    /// Fraction of instrumented wall time spent in selection rather
    /// than actions — the paper's "runtime percentage of the
    /// scheduler" (§5.2, up to 80 % for centralized schedulers).
    pub fn scheduler_share(&self) -> f64 {
        let total = self.scan_ns + self.action_ns;
        if total == 0 {
            0.0
        } else {
            self.scan_ns as f64 / total as f64
        }
    }
}

#[derive(Debug, Default)]
struct AtomicCounters {
    firings: AtomicU64,
    inits: AtomicU64,
    selects: AtomicU64,
    scan_ns: AtomicU64,
    action_ns: AtomicU64,
    blocked: AtomicU64,
    lost_outputs: AtomicU64,
    msgs_to_dead: AtomicU64,
}

impl AtomicCounters {
    fn snapshot(&self) -> Counters {
        Counters {
            firings: self.firings.load(Ordering::Relaxed),
            inits: self.inits.load(Ordering::Relaxed),
            selects: self.selects.load(Ordering::Relaxed),
            scan_ns: self.scan_ns.load(Ordering::Relaxed),
            action_ns: self.action_ns.load(Ordering::Relaxed),
            blocked: self.blocked.load(Ordering::Relaxed),
            lost_outputs: self.lost_outputs.load(Ordering::Relaxed),
            msgs_to_dead: self.msgs_to_dead.load(Ordering::Relaxed),
        }
    }
}

struct ModuleCore {
    exec: Box<dyn ModuleExec>,
    ips: Vec<IpState>,
    entered_at: SimTime,
    last_seq: Option<u64>,
    inited: bool,
}

struct ModuleSlot {
    id: ModuleId,
    name: String,
    kind: ModuleKind,
    labels: ModuleLabels,
    parent: Option<ModuleId>,
    children: Mutex<Vec<ModuleId>>,
    core: Mutex<ModuleCore>,
    alive: AtomicBool,
    /// Held while a child of an `activity`-kind module fires, realizing
    /// sibling mutual exclusion under parallel schedulers.
    family_lock: Mutex<()>,
}

/// The Estelle runtime.
///
/// Build the static part of a specification with
/// [`Runtime::add_module`] and [`Runtime::connect`], then call
/// [`Runtime::start`]; drive execution with a scheduler from
/// [`crate::sched`].
pub struct Runtime {
    clock: Arc<dyn Clock>,
    vclock: Option<Arc<VirtualClock>>,
    next_id: AtomicU32,
    topo: RwLock<Vec<Option<Arc<ModuleSlot>>>>,
    frozen: AtomicBool,
    trace_on: AtomicBool,
    trace: Mutex<Vec<FiringRecord>>,
    fire_seq: AtomicU64,
    counters: AtomicCounters,
    qos_on: AtomicBool,
    qos: RwLock<Option<Arc<crate::qos::QosMonitor>>>,
    dynamic_systems: AtomicBool,
    /// Change generation: bumped by everything that can alter what a
    /// transition guard sees (see [`Runtime::generation`]).
    generation: AtomicU64,
}

impl std::fmt::Debug for Runtime {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Runtime")
            .field("modules", &self.topo.read().iter().flatten().count())
            .field("frozen", &self.frozen.load(Ordering::Relaxed))
            .finish_non_exhaustive()
    }
}

impl Runtime {
    /// Creates a runtime reading time from `clock`.
    pub fn new(clock: Arc<dyn Clock>) -> Self {
        Runtime {
            clock,
            vclock: None,
            next_id: AtomicU32::new(0),
            topo: RwLock::new(Vec::new()),
            frozen: AtomicBool::new(false),
            trace_on: AtomicBool::new(false),
            trace: Mutex::new(Vec::new()),
            fire_seq: AtomicU64::new(1),
            counters: AtomicCounters::default(),
            qos_on: AtomicBool::new(false),
            qos: RwLock::new(None),
            dynamic_systems: AtomicBool::new(false),
            generation: AtomicU64::new(0),
        }
    }

    /// The change generation: a counter bumped by every enqueue onto an
    /// interaction point, every firing and `initialize` block, every
    /// module creation, connection and release, and every
    /// [`Runtime::with_machine_mut`].
    ///
    /// While it stays put, and no state outside the runtime that a
    /// guard reads has changed (see [`crate::StateMachine`]), every
    /// module's enabled set is what it was — except for `delay`
    /// transitions, which come due at [`Runtime::next_deadline`]. A
    /// driver that saw no module enabled may skip its scheduler passes
    /// until one of the three moves.
    pub fn generation(&self) -> u64 {
        self.generation.load(Ordering::Relaxed)
    }

    fn bump(&self) {
        self.generation.fetch_add(1, Ordering::Relaxed);
    }

    /// Enables the ref \[2\] Estelle enhancement ("Increasing the
    /// concurrency in Estelle", Bredereke/Gotzhein): system modules may
    /// be created *after* [`Runtime::start`], lifting the ISO 9074
    /// restriction the paper calls out in §4.1 ("the number of
    /// `systemprocess` modules cannot be changed at runtime, so the
    /// number of clients is fixed"). Dynamically added modules run
    /// their `initialize` block immediately and join scheduling on the
    /// next pass. Structural rules still apply.
    pub fn enable_dynamic_systems(&self) {
        self.dynamic_systems.store(true, Ordering::SeqCst);
    }

    /// Whether the ref \[2\] dynamic-system extension is active.
    pub fn dynamic_systems_enabled(&self) -> bool {
        self.dynamic_systems.load(Ordering::SeqCst)
    }

    /// Installs a QoS monitor enforcing `spec` (the §6 extension: "QoS
    /// parameters cannot be specified [in Estelle]"). Every interaction
    /// consumed from now on has its queueing delay measured and checked.
    /// Returns the monitor for later inspection; replaces any previous
    /// monitor.
    pub fn attach_qos(&self, spec: crate::qos::QosSpec) -> Arc<crate::qos::QosMonitor> {
        let monitor = Arc::new(crate::qos::QosMonitor::new(spec));
        *self.qos.write() = Some(Arc::clone(&monitor));
        self.qos_on.store(true, Ordering::SeqCst);
        monitor
    }

    /// Removes the QoS monitor, returning it if one was attached.
    pub fn detach_qos(&self) -> Option<Arc<crate::qos::QosMonitor>> {
        self.qos_on.store(false, Ordering::SeqCst);
        self.qos.write().take()
    }

    /// The attached QoS monitor, if any.
    pub fn qos_monitor(&self) -> Option<Arc<crate::qos::QosMonitor>> {
        self.qos.read().clone()
    }

    /// Creates a runtime driven by the given virtual clock; idle
    /// schedulers may advance it to the next `delay` deadline.
    pub fn with_virtual_clock(vclock: Arc<VirtualClock>) -> Self {
        let mut rt = Runtime::new(vclock.clone() as Arc<dyn Clock>);
        rt.vclock = Some(vclock);
        rt
    }

    /// Convenience: a fresh runtime with its own virtual clock.
    pub fn sim() -> (Self, Arc<VirtualClock>) {
        let vclock = Arc::new(VirtualClock::new());
        (Self::with_virtual_clock(Arc::clone(&vclock)), vclock)
    }

    /// The clock this runtime reads.
    pub fn clock(&self) -> Arc<dyn Clock> {
        Arc::clone(&self.clock)
    }

    /// Current time.
    pub fn now(&self) -> SimTime {
        self.clock.now()
    }

    /// The virtual clock, when running in simulated time.
    pub fn virtual_clock(&self) -> Option<Arc<VirtualClock>> {
        self.vclock.clone()
    }

    fn slot(&self, id: ModuleId) -> Option<Arc<ModuleSlot>> {
        self.topo.read().get(id.index()).and_then(|s| s.clone())
    }

    /// Adds a module to the static part of the specification.
    ///
    /// `parent` of `None` means top level. Structural rules of ISO 9074
    /// are enforced (see [`EstelleError::StructuralRule`]).
    ///
    /// # Errors
    ///
    /// Returns an error if the runtime has started, the parent is
    /// unknown, or an attribute rule is violated.
    pub fn add_module<M: StateMachine>(
        &self,
        parent: Option<ModuleId>,
        name: impl Into<String>,
        kind: ModuleKind,
        labels: ModuleLabels,
        machine: M,
    ) -> Result<ModuleId> {
        self.add_module_exec(parent, name, kind, labels, Box::new(Fsm::new(machine)))
    }

    /// Type-erased variant of [`Runtime::add_module`].
    ///
    /// # Errors
    ///
    /// Same conditions as [`Runtime::add_module`].
    pub fn add_module_exec(
        &self,
        parent: Option<ModuleId>,
        name: impl Into<String>,
        kind: ModuleKind,
        labels: ModuleLabels,
        exec: Box<dyn ModuleExec>,
    ) -> Result<ModuleId> {
        let frozen = self.frozen.load(Ordering::SeqCst);
        if frozen && !self.dynamic_systems.load(Ordering::SeqCst) {
            return Err(EstelleError::SystemPopulationFrozen(kind));
        }
        let parent_kind = match parent {
            None => None,
            Some(p) => Some(self.slot(p).ok_or(EstelleError::UnknownModule(p))?.kind),
        };
        validate_child_kind(parent_kind, kind).map_err(EstelleError::StructuralRule)?;
        let id = ModuleId(self.next_id.fetch_add(1, Ordering::SeqCst));
        self.insert_slot(id, parent, name.into(), kind, labels, exec);
        // Ref [2] extension: a module created after start runs its
        // initialize block immediately (start already initialized the
        // static population).
        if frozen {
            self.init_module(id);
        }
        Ok(id)
    }

    fn insert_slot(
        &self,
        id: ModuleId,
        parent: Option<ModuleId>,
        name: String,
        kind: ModuleKind,
        labels: ModuleLabels,
        exec: Box<dyn ModuleExec>,
    ) {
        let num_ips = exec.num_ips();
        let slot = Arc::new(ModuleSlot {
            id,
            name,
            kind,
            labels,
            parent,
            children: Mutex::new(Vec::new()),
            core: Mutex::new(ModuleCore {
                exec,
                ips: (0..num_ips).map(|_| IpState::default()).collect(),
                entered_at: self.clock.now(),
                last_seq: None,
                inited: false,
            }),
            alive: AtomicBool::new(true),
            family_lock: Mutex::new(()),
        });
        {
            let mut topo = self.topo.write();
            if topo.len() <= id.index() {
                topo.resize_with(id.index() + 1, || None);
            }
            topo[id.index()] = Some(Arc::clone(&slot));
        }
        if let Some(p) = parent {
            if let Some(ps) = self.slot(p) {
                ps.children.lock().push(id);
            }
        }
        self.bump();
    }

    /// Connects two interaction points with a channel.
    ///
    /// # Errors
    ///
    /// Returns an error if a module is unknown, an index is out of
    /// range, or either point is already connected.
    pub fn connect(&self, a: IpRef, b: IpRef) -> Result<()> {
        let sa = self
            .slot(a.module)
            .ok_or(EstelleError::UnknownModule(a.module))?;
        let sb = self
            .slot(b.module)
            .ok_or(EstelleError::UnknownModule(b.module))?;
        if a.module == b.module {
            // Self-channel: both ends in one core; validate and set
            // under one lock.
            let mut core = sa.core.lock();
            let n = core.ips.len();
            if a.ip.0 as usize >= n {
                return Err(EstelleError::IpOutOfRange(a));
            }
            if b.ip.0 as usize >= n {
                return Err(EstelleError::IpOutOfRange(b));
            }
            if core.ips[a.ip.0 as usize].peer.is_some() {
                return Err(EstelleError::AlreadyConnected(a));
            }
            if core.ips[b.ip.0 as usize].peer.is_some() {
                return Err(EstelleError::AlreadyConnected(b));
            }
            core.ips[a.ip.0 as usize].peer = Some(b);
            core.ips[b.ip.0 as usize].peer = Some(a);
            drop(core);
            self.bump();
            return Ok(());
        }
        // Lock in id order to avoid deadlock with concurrent connects.
        let (first, second) = if a.module < b.module {
            (&sa, &sb)
        } else {
            (&sb, &sa)
        };
        let mut c1 = first.core.lock();
        let mut c2 = second.core.lock();
        let (core_a, core_b) = if a.module < b.module {
            (&mut *c1, &mut *c2)
        } else {
            (&mut *c2, &mut *c1)
        };
        if a.ip.0 as usize >= core_a.ips.len() {
            return Err(EstelleError::IpOutOfRange(a));
        }
        if b.ip.0 as usize >= core_b.ips.len() {
            return Err(EstelleError::IpOutOfRange(b));
        }
        if core_a.ips[a.ip.0 as usize].peer.is_some() {
            return Err(EstelleError::AlreadyConnected(a));
        }
        if core_b.ips[b.ip.0 as usize].peer.is_some() {
            return Err(EstelleError::AlreadyConnected(b));
        }
        core_a.ips[a.ip.0 as usize].peer = Some(b);
        core_b.ips[b.ip.0 as usize].peer = Some(a);
        self.bump();
        Ok(())
    }

    /// Freezes the system-module population and runs every module's
    /// `initialize` block (cascading through children created during
    /// initialization).
    ///
    /// # Errors
    ///
    /// Currently infallible but returns `Result` for future
    /// compatibility with initialization-time validation.
    pub fn start(&self) -> Result<()> {
        self.frozen.store(true, Ordering::SeqCst);
        let existing: Vec<ModuleId> = {
            let topo = self.topo.read();
            topo.iter().flatten().map(|s| s.id).collect()
        };
        for id in existing {
            self.init_module(id);
        }
        Ok(())
    }

    fn init_module(&self, id: ModuleId) {
        let Some(slot) = self.slot(id) else { return };
        if !slot.alive.load(Ordering::SeqCst) {
            return;
        }
        let mut effects = Vec::new();
        let seq = self.fire_seq.fetch_add(1, Ordering::SeqCst);
        {
            let mut core = slot.core.lock();
            if core.inited {
                return;
            }
            core.inited = true;
            core.last_seq = Some(seq);
            let mut ctx = Ctx::new(
                self.clock.now(),
                id,
                slot.kind,
                seq,
                &mut effects,
                &self.next_id,
            );
            core.exec.on_init(&mut ctx);
        }
        self.bump();
        self.counters.inits.fetch_add(1, Ordering::Relaxed);
        if self.trace_on.load(Ordering::Relaxed) {
            self.trace.lock().push(FiringRecord {
                seq,
                module: id,
                labels: slot.labels,
                module_type: slot.core.lock().exec.type_name(),
                transition: "initialize",
                cost: DEFAULT_TRANSITION_COST,
                deps: Vec::new(),
            });
        }
        self.apply_effects(id, seq, effects);
    }

    /// Attempts to fire one transition of `id`, honouring parent
    /// precedence and activity mutual exclusion.
    pub fn try_fire(&self, id: ModuleId, dispatch: Dispatch) -> FireOutcome {
        let Some(slot) = self.slot(id) else {
            return FireOutcome::Dead;
        };
        if !slot.alive.load(Ordering::SeqCst) {
            return FireOutcome::Dead;
        }
        if slot.kind == ModuleKind::Inactive {
            return FireOutcome::NotEnabled;
        }
        // Parent precedence: every attributed ancestor must have
        // nothing to do.
        let mut anc = slot.parent;
        while let Some(pid) = anc {
            let Some(ps) = self.slot(pid) else { break };
            if ps.kind.is_attributed()
                && ps.alive.load(Ordering::SeqCst)
                && self.module_enabled_slot(&ps, dispatch)
            {
                self.counters.blocked.fetch_add(1, Ordering::Relaxed);
                return FireOutcome::Blocked;
            }
            anc = ps.parent;
        }
        // Activity mutual exclusion among siblings.
        let parent_slot = slot.parent.and_then(|p| self.slot(p));
        let _family_guard = match &parent_slot {
            Some(ps) if ps.kind.children_exclusive() => Some(ps.family_lock.lock()),
            _ => None,
        };
        let now = self.clock.now();
        let tracing = self.trace_on.load(Ordering::Relaxed);
        let mut effects = Vec::new();
        let mut qos_obs: Option<(IpIndex, &'static str, SimDuration)> = None;
        let (info, seq, scanned, deps);
        {
            let mut core = slot.core.lock();
            let t_scan = Instant::now();
            let sel: Option<Selected> = {
                let ModuleCore {
                    exec,
                    ips,
                    entered_at,
                    ..
                } = &mut *core;
                exec.select(ips, now, *entered_at, dispatch)
            };
            self.counters
                .scan_ns
                .fetch_add(t_scan.elapsed().as_nanos() as u64, Ordering::Relaxed);
            self.counters.selects.fetch_add(1, Ordering::Relaxed);
            let Some(sel) = sel else {
                return FireOutcome::NotEnabled;
            };
            scanned = sel.scanned;
            seq = self.fire_seq.fetch_add(1, Ordering::SeqCst);
            // Dependencies feed only the trace: build them only then.
            let mut d: Vec<u64> = Vec::new();
            if tracing {
                d.extend(core.last_seq);
            }
            let input = sel
                .needs_input
                .and_then(|ip| core.ips.get_mut(ip.0 as usize))
                .and_then(|q| q.queue.pop_front());
            let input_msg = input.map(|q| {
                if tracing {
                    d.extend(q.provenance);
                }
                if self.qos_on.load(Ordering::Relaxed) {
                    if let Some(ip) = sel.needs_input {
                        qos_obs = Some((
                            ip,
                            q.msg.interaction_name(),
                            now.saturating_since(q.enqueued_at),
                        ));
                    }
                }
                q.msg
            });
            deps = d;
            let mut ctx = Ctx::new(now, id, slot.kind, seq, &mut effects, &self.next_id);
            let t_act = Instant::now();
            let fired = core.exec.fire(sel, input_msg, &mut ctx);
            self.counters
                .action_ns
                .fetch_add(t_act.elapsed().as_nanos() as u64, Ordering::Relaxed);
            if fired.to_state != fired.from_state {
                core.entered_at = now;
            }
            core.last_seq = Some(seq);
            info = fired;
        }
        drop(_family_guard);
        self.bump();
        if let Some((ip, name, delay)) = qos_obs {
            if let Some(monitor) = self.qos.read().as_ref() {
                monitor.observe(id, ip, name, delay, now);
            }
        }
        self.apply_effects(id, seq, effects);
        if tracing {
            self.trace.lock().push(FiringRecord {
                seq,
                module: id,
                labels: slot.labels,
                module_type: slot.core.lock().exec.type_name(),
                transition: info.transition,
                cost: info.cost,
                deps,
            });
        }
        self.counters.firings.fetch_add(1, Ordering::Relaxed);
        FireOutcome::Fired(FiredMeta {
            module: id,
            transition: info.transition,
            cost: info.cost,
            scanned,
            from_state: info.from_state,
            to_state: info.to_state,
        })
    }

    fn module_enabled_slot(&self, slot: &ModuleSlot, dispatch: Dispatch) -> bool {
        let t_scan = Instant::now();
        let enabled = self.selectable(slot, dispatch);
        self.counters
            .scan_ns
            .fetch_add(t_scan.elapsed().as_nanos() as u64, Ordering::Relaxed);
        self.counters.selects.fetch_add(1, Ordering::Relaxed);
        enabled
    }

    /// Whether `slot` has an enabled transition, without touching the
    /// scheduler counters.
    fn selectable(&self, slot: &ModuleSlot, dispatch: Dispatch) -> bool {
        let core = slot.core.lock();
        let ModuleCore {
            exec,
            ips,
            entered_at,
            ..
        } = &*core;
        exec.select(ips, self.clock.now(), *entered_at, dispatch)
            .is_some()
    }

    /// Whether `id` currently has an enabled transition (ignoring
    /// parent precedence).
    pub fn module_enabled(&self, id: ModuleId, dispatch: Dispatch) -> bool {
        match self.slot(id) {
            Some(s) if s.alive.load(Ordering::SeqCst) => self.module_enabled_slot(&s, dispatch),
            _ => false,
        }
    }

    // The scans below hold the `topo` read lock throughout: none of
    // them fires, so none of them writes `topo`.

    /// Whether any alive module has an enabled transition.
    pub fn any_enabled(&self, dispatch: Dispatch) -> bool {
        self.topo
            .read()
            .iter()
            .flatten()
            .filter(|s| s.alive.load(Ordering::SeqCst))
            .any(|s| self.module_enabled_slot(s, dispatch))
    }

    /// The first alive module (in id order) with an enabled transition.
    /// Unlike [`Runtime::any_enabled`] this is a check, not a
    /// scheduling pass: it leaves the scheduler counters alone.
    pub fn first_enabled(&self, dispatch: Dispatch) -> Option<ModuleId> {
        self.topo
            .read()
            .iter()
            .flatten()
            .find(|s| s.alive.load(Ordering::SeqCst) && self.selectable(s, dispatch))
            .map(|s| s.id)
    }

    /// Earliest instant at which a `delay` transition could become
    /// enabled, across all modules.
    pub fn next_deadline(&self) -> Option<SimTime> {
        let topo = self.topo.read();
        let mut best: Option<SimTime> = None;
        for s in topo
            .iter()
            .flatten()
            .filter(|s| s.alive.load(Ordering::SeqCst))
        {
            let core = s.core.lock();
            let ModuleCore {
                exec,
                ips,
                entered_at,
                ..
            } = &*core;
            if let Some(t) = exec.next_deadline(ips, *entered_at) {
                best = Some(match best {
                    Some(b) => b.min(t),
                    None => t,
                });
            }
        }
        best
    }

    /// Advances the virtual clock to `t` (no-op for real clocks or
    /// past instants).
    pub fn advance_clock_to(&self, t: SimTime) {
        if let Some(v) = &self.vclock {
            v.advance_to(t);
        }
    }

    fn apply_effects(&self, owner: ModuleId, seq: u64, effects: Vec<Effect>) {
        let mut to_init = Vec::new();
        for e in effects {
            match e {
                Effect::Create(ce) => {
                    self.insert_slot(
                        ce.reserved,
                        Some(owner),
                        ce.name,
                        ce.kind,
                        ce.labels,
                        ce.exec,
                    );
                    to_init.push(ce.reserved);
                }
                Effect::Connect { a, b } => {
                    if let Err(err) = self.connect(a, b) {
                        panic!("invalid connect effect from {owner}: {err}");
                    }
                }
                Effect::Output { from_ip, msg } => {
                    self.route_output(owner, from_ip, msg, Some(seq));
                }
                Effect::Release { child } => {
                    self.release_subtree(owner, child);
                }
            }
        }
        for id in to_init {
            self.init_module(id);
        }
    }

    fn route_output(
        &self,
        owner: ModuleId,
        from_ip: IpIndex,
        msg: Box<dyn Interaction>,
        provenance: Option<u64>,
    ) {
        let Some(slot) = self.slot(owner) else { return };
        let peer = {
            let core = slot.core.lock();
            match core.ips.get(from_ip.0 as usize) {
                Some(ip) => ip.peer,
                None => panic!("module {owner} output on out-of-range interaction point {from_ip}"),
            }
        };
        let Some(peer) = peer else {
            self.counters.lost_outputs.fetch_add(1, Ordering::Relaxed);
            return;
        };
        let Some(dest) = self.slot(peer.module) else {
            self.counters.msgs_to_dead.fetch_add(1, Ordering::Relaxed);
            return;
        };
        if !dest.alive.load(Ordering::SeqCst) {
            self.counters.msgs_to_dead.fetch_add(1, Ordering::Relaxed);
            return;
        }
        let mut core = dest.core.lock();
        match core.ips.get_mut(peer.ip.0 as usize) {
            Some(ip) => {
                ip.queue.push_back(QueuedMsg {
                    msg,
                    provenance,
                    enqueued_at: self.clock.now(),
                });
                drop(core);
                self.bump();
            }
            None => {
                self.counters.msgs_to_dead.fetch_add(1, Ordering::Relaxed);
            }
        }
    }

    fn release_subtree(&self, actor: ModuleId, child: ModuleId) {
        let Some(cs) = self.slot(child) else { return };
        if cs.parent != Some(actor) {
            panic!("module {actor} attempted to release non-child {child}");
        }
        let mut stack = vec![child];
        while let Some(id) = stack.pop() {
            let Some(s) = self.slot(id) else { continue };
            s.alive.store(false, Ordering::SeqCst);
            // Disconnect peers so their future outputs count as lost
            // rather than queueing at a corpse.
            let peers: Vec<IpRef> = {
                let core = s.core.lock();
                core.ips.iter().filter_map(|ip| ip.peer).collect()
            };
            for p in peers {
                if let Some(ps) = self.slot(p.module) {
                    let mut core = ps.core.lock();
                    if let Some(ip) = core.ips.get_mut(p.ip.0 as usize) {
                        ip.peer = None;
                    }
                }
            }
            stack.extend(s.children.lock().iter().copied());
        }
        self.bump();
    }

    /// Injects a message from outside the specification (test driver /
    /// environment) into an interaction point's queue.
    ///
    /// # Errors
    ///
    /// Returns an error if the module is unknown/released or the index
    /// is out of range.
    pub fn inject(&self, target: IpRef, msg: Box<dyn Interaction>) -> Result<()> {
        let slot = self
            .slot(target.module)
            .ok_or(EstelleError::UnknownModule(target.module))?;
        if !slot.alive.load(Ordering::SeqCst) {
            return Err(EstelleError::UnknownModule(target.module));
        }
        let mut core = slot.core.lock();
        match core.ips.get_mut(target.ip.0 as usize) {
            Some(ip) => {
                ip.queue.push_back(QueuedMsg {
                    msg,
                    provenance: None,
                    enqueued_at: self.clock.now(),
                });
                drop(core);
                self.bump();
                Ok(())
            }
            None => Err(EstelleError::IpOutOfRange(target)),
        }
    }

    /// Snapshot of all alive module ids, in id order.
    pub fn alive_modules(&self) -> Vec<ModuleId> {
        self.topo
            .read()
            .iter()
            .flatten()
            .filter(|s| s.alive.load(Ordering::SeqCst))
            .map(|s| s.id)
            .collect()
    }

    /// Metadata of `id`, if it ever existed.
    pub fn module_meta(&self, id: ModuleId) -> Option<ModuleMeta> {
        self.slot(id).map(|s| ModuleMeta {
            id: s.id,
            name: s.name.clone(),
            kind: s.kind,
            labels: s.labels,
            parent: s.parent,
            alive: s.alive.load(Ordering::SeqCst),
        })
    }

    /// Children of `id` in creation order.
    pub fn children_of(&self, id: ModuleId) -> Vec<ModuleId> {
        self.slot(id)
            .map(|s| s.children.lock().clone())
            .unwrap_or_default()
    }

    /// First alive module whose instance name is `name`.
    pub fn find_by_name(&self, name: &str) -> Option<ModuleId> {
        self.topo
            .read()
            .iter()
            .flatten()
            .find(|s| s.alive.load(Ordering::SeqCst) && s.name == name)
            .map(|s| s.id)
    }

    /// Current FSM state of `id`.
    pub fn module_state(&self, id: ModuleId) -> Option<StateId> {
        self.slot(id).map(|s| s.core.lock().exec.state())
    }

    /// Static transition descriptions of `id` (priority order).
    pub fn transition_info(&self, id: ModuleId) -> Vec<crate::machine::TransitionInfo> {
        self.slot(id)
            .map(|s| s.core.lock().exec.transition_info())
            .unwrap_or_default()
    }

    /// Module type name of `id`.
    pub fn module_type(&self, id: ModuleId) -> Option<&'static str> {
        self.slot(id).map(|s| s.core.lock().exec.type_name())
    }

    /// The peers of each interaction point of `id` (index = IP).
    pub fn ip_peers(&self, id: ModuleId) -> Vec<Option<IpRef>> {
        self.slot(id)
            .map(|s| s.core.lock().ips.iter().map(|ip| ip.peer()).collect())
            .unwrap_or_default()
    }

    /// Runs `f` against the concrete machine of module `id`, if it is
    /// an [`Fsm`] over `M`. Used by drivers and tests to observe
    /// machine-internal results.
    pub fn with_machine<M: StateMachine, R>(
        &self,
        id: ModuleId,
        f: impl FnOnce(&M) -> R,
    ) -> Option<R> {
        let slot = self.slot(id)?;
        let core = slot.core.lock();
        let fsm = core.exec.as_any().downcast_ref::<Fsm<M>>()?;
        Some(f(fsm.machine()))
    }

    /// Mutable variant of [`Runtime::with_machine`]. Bumps the change
    /// generation: `f` may change what the module's guards read.
    pub fn with_machine_mut<M: StateMachine, R>(
        &self,
        id: ModuleId,
        f: impl FnOnce(&mut M) -> R,
    ) -> Option<R> {
        let slot = self.slot(id)?;
        let mut core = slot.core.lock();
        let fsm = core.exec.as_any_mut().downcast_mut::<Fsm<M>>()?;
        let out = f(fsm.machine_mut());
        drop(core);
        // The caller may have changed anything a guard reads.
        self.bump();
        Some(out)
    }

    /// Total messages queued across all interaction points.
    pub fn pending_messages(&self) -> usize {
        self.topo
            .read()
            .iter()
            .flatten()
            .filter(|s| s.alive.load(Ordering::SeqCst))
            .map(|s| s.core.lock().ips.iter().map(|ip| ip.len()).sum::<usize>())
            .sum()
    }

    /// Enables trace recording (see [`ExecTrace`]).
    pub fn enable_trace(&self) {
        self.trace_on.store(true, Ordering::SeqCst);
    }

    /// Stops recording and returns the trace collected so far.
    pub fn take_trace(&self) -> ExecTrace {
        self.trace_on.store(false, Ordering::SeqCst);
        let records = std::mem::take(&mut *self.trace.lock());
        let modules = self
            .topo
            .read()
            .iter()
            .flatten()
            .map(|s| TraceModuleMeta {
                id: s.id,
                name: s.name.clone(),
                kind: s.kind,
                labels: s.labels,
                parent: s.parent,
            })
            .collect();
        ExecTrace { records, modules }
    }

    /// Snapshot of the instrumentation counters.
    pub fn counters(&self) -> Counters {
        self.counters.snapshot()
    }
}

/// Checks the ISO 9074 attribute rules for placing a `child` kind under
/// a parent of `parent` kind (`None` = top level). Returns the violated
/// rule on failure. Exposed for property tests.
pub fn validate_child_kind(
    parent: Option<ModuleKind>,
    child: ModuleKind,
) -> std::result::Result<(), String> {
    use ModuleKind::*;
    match parent {
        None => match child {
            SystemProcess | SystemActivity | Inactive => Ok(()),
            Process | Activity => Err(format!(
                "{child} module must be contained (perhaps indirectly) in a system module"
            )),
        },
        Some(Inactive) => match child {
            SystemProcess | SystemActivity | Inactive => Ok(()),
            Process | Activity => Err(format!(
                "{child} module cannot be the child of an inactive module"
            )),
        },
        Some(p @ (SystemProcess | Process)) => match child {
            Process | Activity => Ok(()),
            SystemProcess | SystemActivity => Err(format!(
                "a system module cannot be contained in attributed module ({p})"
            )),
            Inactive => Err("inactive modules may only appear above system modules".into()),
        },
        Some(p @ (SystemActivity | Activity)) => match child {
            Activity => Ok(()),
            Process => Err(format!("an {p} module can only contain activity children")),
            SystemProcess | SystemActivity => Err(format!(
                "a system module cannot be contained in attributed module ({p})"
            )),
            Inactive => Err("inactive modules may only appear above system modules".into()),
        },
    }
}
