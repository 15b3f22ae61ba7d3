"""Cluster configuration.

One dataclass holds every knob of the simulated system; experiment sweeps
are expressed as ``dataclasses.replace`` over a base configuration, which
keeps parameter provenance obvious in the benchmark harness.
"""

from __future__ import annotations

import dataclasses
import enum
from dataclasses import dataclass
from typing import Optional, Union

from repro.dstm.contention import WinnerPolicy
from repro.dstm.transaction import NestingModel
from repro.net.topology import MS, TopologyKind

__all__ = [
    "ArrivalConfig",
    "CheckConfig",
    "ClusterConfig",
    "FaultConfig",
    "ObsConfig",
    "PayloadConfig",
    "ProfConfig",
    "RpcConfig",
    "SchedulerKind",
]


class SchedulerKind(str, enum.Enum):
    """Which transactional scheduler the cluster runs."""

    RTS = "rts"
    TFA = "tfa"
    TFA_BACKOFF = "tfa-backoff"


@dataclass(frozen=True)
class FaultConfig:
    """Parameterisation of the deterministic fault-injection layer.

    With ``enabled=False`` (the default) the cluster builds no injector,
    starts no heartbeats and arms no RPC timeouts: every code path is
    byte-identical to a fault-free build (strict additivity).  With
    ``enabled=True`` the fault timeline is generated eagerly from the
    dedicated ``"faults"`` RNG stream, so identical seeds give identical
    fault schedules and per-message fates.
    """

    enabled: bool = False

    # -- message-level faults (per remote message, in send order) -------
    #: probability a message is silently lost on the wire
    drop_rate: float = 0.0
    #: probability a message is delivered twice (fresh msg_id per copy)
    duplicate_rate: float = 0.0
    #: probability a message is held back by an extra uniform delay
    extra_delay_rate: float = 0.0
    #: upper bound of the extra delay (seconds)
    extra_delay_max: float = 0.0

    # -- link partitions ------------------------------------------------
    #: expected partition events per simulated second (Poisson)
    partition_rate: float = 0.0
    #: mean partition window length (actual: uniform in [0.5x, 1.5x])
    partition_duration: float = 0.5

    # -- node crash / restart -------------------------------------------
    #: expected crash events per simulated second, cluster-wide (Poisson)
    crash_rate: float = 0.0
    #: mean crash window length (actual: uniform in [0.5x, 1.5x])
    crash_duration: float = 1.0
    #: minimum quiet gap between consecutive crash windows.  Crashes are
    #: generated non-overlapping (single-failure model): with one data
    #: copy plus the home snapshot, overlapping failures of an owner and
    #: its home could lose committed state — see DESIGN.md.
    min_crash_gap: float = 1.5
    #: fault events are generated over [0, schedule_horizon)
    schedule_horizon: float = 60.0

    # -- recovery: RPC timeout/retry ------------------------------------
    #: initial reply timeout (should exceed one max round trip + queueing)
    rpc_timeout: float = 0.25
    #: retries after the first attempt; the timeout doubles each retry
    rpc_max_retries: int = 5
    rpc_backoff_factor: float = 2.0
    rpc_backoff_cap: float = 2.0

    # -- recovery: ownership leases -------------------------------------
    #: how long a directory entry stays valid without a renewal
    lease_duration: float = 1.5
    #: owner heartbeat period (must be well under lease_duration)
    lease_renew_interval: float = 0.5
    #: extra wait before reclaiming an entry whose registered version is
    #: ahead of the snapshot (a commit may be mid-flight)
    reclaim_grace: float = 1.5

    # -- recovery: orphan repatriation ----------------------------------
    #: period of the owner-side sweep that returns abandoned transferred
    #: copies (granted, never re-requested, never registered elsewhere)
    #: to the home snapshot before lease expiry would reclaim them.
    #: None (default) disables the sweep.
    orphan_sweep_interval: Optional[float] = None
    #: a granted entry must be at least this old before the sweep may
    #: repatriate it; None derives the floor from the RPC policy's
    #: worst-case retry wait (the requester must have given up first).
    orphan_min_age: Optional[float] = None

    # -- recovery: retry bounds -----------------------------------------
    #: nested (closed) transactions abort-and-retry at their own level;
    #: under faults a read can stay stale forever (e.g. a straggler
    #: registration the next commit would heal never comes), so after
    #: this many child retries the abort escalates to the root, whose
    #: attempts the executor bounds.  Fault-free builds keep the
    #: unbounded paper semantics.
    nested_retry_cap: int = 16

    def replace(self, **changes) -> "FaultConfig":
        """A modified copy (sugar over :func:`dataclasses.replace`)."""
        return dataclasses.replace(self, **changes)

    def __post_init__(self) -> None:
        for name in ("drop_rate", "duplicate_rate", "extra_delay_rate"):
            v = getattr(self, name)
            if not 0.0 <= v <= 1.0:
                raise ValueError(f"{name} must be in [0, 1], got {v}")
        for name in (
            "extra_delay_max", "partition_rate", "crash_rate",
            "min_crash_gap",
        ):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be >= 0")
        for name in (
            "partition_duration", "crash_duration", "schedule_horizon",
            "rpc_timeout", "lease_duration", "lease_renew_interval",
            "reclaim_grace",
        ):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be > 0")
        if self.rpc_max_retries < 0:
            raise ValueError("rpc_max_retries must be >= 0")
        if self.nested_retry_cap < 1:
            raise ValueError("nested_retry_cap must be >= 1")
        if self.rpc_backoff_factor < 1.0:
            raise ValueError("rpc_backoff_factor must be >= 1")
        if self.rpc_backoff_cap < self.rpc_timeout:
            raise ValueError("rpc_backoff_cap must be >= rpc_timeout")
        if self.lease_renew_interval >= self.lease_duration:
            raise ValueError(
                "lease_renew_interval must be < lease_duration or leases "
                "expire between heartbeats even on healthy nodes"
            )
        if self.orphan_sweep_interval is not None and self.orphan_sweep_interval <= 0:
            raise ValueError("orphan_sweep_interval must be > 0 (or None)")
        if self.orphan_min_age is not None and self.orphan_min_age < 0:
            raise ValueError("orphan_min_age must be >= 0 (or None)")


@dataclass(frozen=True)
class RpcConfig:
    """Parameterisation of the RPC substrate (``repro.rpc``).

    The defaults are strictly additive: ``batch_window=0`` installs no
    batcher (every send keeps its own delivery event) and ``cache=False``
    leaves the lookup cache in hint mode — byte-identical to the
    pre-substrate build; the equivalence test pins this.  Turning either
    knob on changes message timing (batching) or lookup traffic
    (fencing), deterministically per seed.
    """

    #: per-link send-coalescing window (simulated seconds); 0 disables
    #: batching entirely (no batcher object is even constructed)
    batch_window: float = 0.0
    #: enable version-fenced lookup caching (hint mode when False)
    cache: bool = False
    #: bound on cached lookup entries per node (None = unbounded)
    cache_capacity: Optional[int] = None

    def replace(self, **changes) -> "RpcConfig":
        """A modified copy (sugar over :func:`dataclasses.replace`)."""
        return dataclasses.replace(self, **changes)

    def __post_init__(self) -> None:
        if self.batch_window < 0:
            raise ValueError(f"batch_window must be >= 0, got {self.batch_window}")
        if self.cache_capacity is not None and self.cache_capacity < 1:
            raise ValueError("cache_capacity must be >= 1 (or None)")


@dataclass(frozen=True)
class ObsConfig:
    """Parameterisation of the observability layer (``repro.obs``).

    With ``enabled=False`` (the default) the cluster builds no recorder
    and the tracer stays exactly as the ``trace``/``trace_categories``
    knobs configure it: the disabled path costs one boolean guard per
    emission site, same as before.  With ``enabled=True`` an
    :class:`~repro.obs.ObsRecorder` sink is attached to the tracer and
    every ``repro.obs`` event category is enabled; events stream to the
    recorder (and optionally to JSONL / Chrome trace files) without
    unbounded in-memory accumulation.
    """

    enabled: bool = False
    #: stream every event to this JSONL file (None = no file export)
    jsonl_path: Optional[str] = None
    #: stream a Chrome trace_event (Perfetto-loadable) file here
    chrome_path: Optional[str] = None
    #: per-node throughput/abort bucketing window (simulated seconds)
    window: float = 0.25

    def replace(self, **changes) -> "ObsConfig":
        """A modified copy (sugar over :func:`dataclasses.replace`)."""
        return dataclasses.replace(self, **changes)

    def __post_init__(self) -> None:
        if self.window <= 0:
            raise ValueError(f"window must be > 0, got {self.window}")


@dataclass(frozen=True)
class CheckConfig:
    """Parameterisation of the correctness tooling (``repro.check``).

    With ``sanitize=False`` (the default) the cluster builds no
    :class:`~repro.check.sanitize.Sanitizer` and every hook site pays a
    single ``is not None`` guard — byte-identical to a build without the
    hooks (strictly additive, same pattern as ``faults``/``obs``).  With
    ``sanitize=True`` every ownership transition re-checks the protocol
    safety invariants (DESIGN.md §3e) and raises
    :class:`~repro.check.InvariantViolation` on the first breach.  The
    sanitizer is read-only, so the committed timeline of a sanitized run
    is identical to an unsanitized one.

    ``REPRO_SANITIZE=1`` in the environment force-enables sanitizing for
    every cluster built in the process (how CI runs the whole pytest
    suite a second time under the sanitizer).
    """

    sanitize: bool = False

    def replace(self, **changes) -> "CheckConfig":
        """A modified copy (sugar over :func:`dataclasses.replace`)."""
        return dataclasses.replace(self, **changes)


@dataclass(frozen=True)
class ProfConfig:
    """Parameterisation of the kernel profiler (``repro.prof``).

    With ``enabled=False`` (the default) the cluster builds no profiler
    and ``Environment.run`` pays exactly one ``is not None`` guard —
    byte-identical to a build without the hook (strictly additive, same
    pattern as ``faults``/``obs``/``check``).  With ``enabled=True`` a
    :class:`~repro.prof.KernelProfiler` counts every processed kernel
    event by ``(event kind, consumer site)``; counting never touches the
    schedule, so the simulated timeline stays byte-identical (pinned by
    ``tests/rpc/test_equivalence.py``).  ``wall=True`` additionally
    meters host nanoseconds per callback — still timeline-identical,
    but the recorded values are host-dependent.
    """

    enabled: bool = False
    #: also meter host wall-clock per callback (attribution only; the
    #: values are reported, never scheduled)
    wall: bool = False
    #: write a folded-stack flamegraph file at the end of the run
    folded_path: Optional[str] = None
    #: write a Chrome trace_event (Perfetto-loadable) overlay here
    chrome_path: Optional[str] = None

    def replace(self, **changes) -> "ProfConfig":
        """A modified copy (sugar over :func:`dataclasses.replace`)."""
        return dataclasses.replace(self, **changes)


@dataclass(frozen=True)
class ArrivalConfig:
    """Parameterisation of the open-loop traffic plane (``repro.traffic``).

    With ``enabled=False`` (the default) the experiment harness builds
    the classic closed-loop :class:`~repro.core.executor.
    WorkloadExecutor` and no traffic object exists: the run is
    byte-identical to a build without the package (strict additivity,
    pinned by ``tests/traffic/test_open_loop.py``).  With
    ``enabled=True`` the harness builds an
    :class:`~repro.traffic.OpenLoopExecutor` instead: a per-node arrival
    process injects transactions at ``rate`` (cluster-wide tx/s, split
    evenly across nodes) into bounded admission queues, and the result
    gains ``offered_rate`` / ``shed`` / ``stable`` extras.
    """

    enabled: bool = False

    # -- arrival process -------------------------------------------------
    #: "poisson", "mmpp" (on/off bursty) or "trace" (deterministic replay)
    process: str = "poisson"
    #: cluster-wide mean offered rate (transactions / simulated second)
    rate: float = 50.0
    #: mmpp: burst-state rate multiplier over the quiet state
    burst_factor: float = 4.0
    #: mmpp: long-run fraction of time spent in the burst state
    on_fraction: float = 0.25
    #: mmpp: mean quiet+burst cycle length (seconds)
    mean_cycle: float = 2.0
    #: trace: absolute arrival times, fanned round-robin across nodes
    trace: tuple = ()

    # -- popularity ------------------------------------------------------
    #: Zipf skew of object selection; 0 keeps each workload's own policy
    zipf_s: float = 0.0
    #: rotate the hottest object one position every this many seconds
    hotspot_period: Optional[float] = None

    # -- scenario script -------------------------------------------------
    #: named mid-run schedule ("flash-crowd", "hotspot-migration",
    #: "diurnal"); None = a single steady phase
    scenario: Optional[str] = None

    # -- admission control + stability ----------------------------------
    #: per-node admission queue bound
    queue_capacity: int = 64
    #: who is shed when a queue is full: "drop-newest" or "drop-oldest"
    shed_policy: str = "drop-newest"
    #: stability-detector integration window (simulated seconds)
    stability_window: float = 1.0

    def replace(self, **changes) -> "ArrivalConfig":
        """A modified copy (sugar over :func:`dataclasses.replace`)."""
        return dataclasses.replace(self, **changes)

    def __post_init__(self) -> None:
        # Literal copies of repro.traffic's registries: config must not
        # import the traffic package (it imports core right back).
        if self.process not in ("poisson", "mmpp", "trace"):
            raise ValueError(
                f"unknown arrival process {self.process!r}; "
                "have ('poisson', 'mmpp', 'trace')"
            )
        if self.shed_policy not in ("drop-newest", "drop-oldest"):
            raise ValueError(
                f"unknown shed policy {self.shed_policy!r}; "
                "have ('drop-newest', 'drop-oldest')"
            )
        if self.rate <= 0:
            raise ValueError(f"rate must be > 0, got {self.rate}")
        if self.burst_factor < 1.0:
            raise ValueError(f"burst_factor must be >= 1, got {self.burst_factor}")
        if not 0.0 < self.on_fraction < 1.0:
            raise ValueError(f"on_fraction must be in (0, 1), got {self.on_fraction}")
        if self.mean_cycle <= 0:
            raise ValueError(f"mean_cycle must be > 0, got {self.mean_cycle}")
        if self.zipf_s < 0:
            raise ValueError(f"zipf_s must be >= 0, got {self.zipf_s}")
        if self.hotspot_period is not None and self.hotspot_period <= 0:
            raise ValueError("hotspot_period must be > 0 (or None)")
        if self.queue_capacity < 1:
            raise ValueError(f"queue_capacity must be >= 1, got {self.queue_capacity}")
        if self.stability_window <= 0:
            raise ValueError("stability_window must be > 0")
        if self.process == "trace" and self.enabled and not self.trace:
            raise ValueError("trace arrival process needs a non-empty trace")
        if not isinstance(self.trace, tuple):
            object.__setattr__(self, "trace", tuple(self.trace))


@dataclass(frozen=True)
class PayloadConfig:
    """Parameterisation of the payload plane / control plane split.

    With ``enabled=False`` (the default) the cluster builds no payload
    plane, the network installs no bytes-on-wire cost model and no
    ``PAYLOAD_FETCH`` handler is registered: the timeline is
    byte-identical to a build without the subsystem (strict additivity,
    pinned by ``tests/rpc/test_equivalence.py``).

    With ``enabled=True`` every object carries a declared
    ``payload_size`` (bytes) and every remote message pays a
    bytes-on-wire cost — ``wire / bandwidth + wire * ser_per_byte`` on
    top of the existing link latency, where ``wire`` is the message's
    control envelope plus any attached payload bytes.  Two modes:

    * ``proxy=False`` (*eager bytes*): object grants, hand-offs and
      ownership transfers ship the declared payload inline, so protocol
      traffic scales with object size — today's semantics, now costed.
    * ``proxy=True`` (*control-plane proxies*, ProxyStore's
      pass-by-reference model): migrations move only a constant-size
      ObjectProxy descriptor (the factory node, ``psrc``, beside the
      version fence); bytes resolve lazily over a ``PAYLOAD_FETCH`` RPC only
      when the destination actually reads the object, backed by a
      per-node resolved-bytes cache keyed by the version fences — fence
      bumps invalidate stale bytes by construction, and validation-only
      paths commit without ever pulling bytes.
    """

    enabled: bool = False
    #: move ObjectProxy on the control plane + lazy PAYLOAD_FETCH;
    #: False ships payload bytes inline with grants/hand-offs (eager)
    proxy: bool = False
    #: default declared payload bytes per object (a workload's
    #: ``payload_size`` spec or an ``alloc(payload_size=...)`` overrides)
    size: int = 0
    #: per-link bandwidth, bytes/second (default 125 MB/s = 1 Gbit/s)
    bandwidth: float = 125e6
    #: per-byte serialization/deserialization delay, seconds/byte
    ser_per_byte: float = 1e-9
    #: control envelope charged per remote message, bytes
    control_size: int = 256
    #: extra control-plane bytes a proxy-mode grant carries (the
    #: ObjectProxy descriptor itself)
    proxy_size: int = 64
    #: per-node resolved-bytes cache capacity (objects); None = unbounded
    cache_capacity: Optional[int] = None

    def replace(self, **changes) -> "PayloadConfig":
        """A modified copy (sugar over :func:`dataclasses.replace`)."""
        return dataclasses.replace(self, **changes)

    def __post_init__(self) -> None:
        if self.size < 0:
            raise ValueError(f"size must be >= 0, got {self.size}")
        if self.bandwidth <= 0:
            raise ValueError(f"bandwidth must be > 0, got {self.bandwidth}")
        if self.ser_per_byte < 0:
            raise ValueError("ser_per_byte must be >= 0")
        if self.control_size < 0 or self.proxy_size < 0:
            raise ValueError("control_size/proxy_size must be >= 0")
        if self.cache_capacity is not None and self.cache_capacity < 1:
            raise ValueError("cache_capacity must be >= 1 (or None)")


@dataclass(frozen=True)
class ClusterConfig:
    """Full parameterisation of a simulated D-STM deployment."""

    # -- deployment ---------------------------------------------------------
    num_nodes: int = 8
    seed: int = 0
    topology: TopologyKind = TopologyKind.UNIFORM
    #: static per-link delay band (paper §IV-A: 1-50 ms)
    min_link_delay: float = 1.0 * MS
    max_link_delay: float = 50.0 * MS

    # -- scheduling ----------------------------------------------------------
    scheduler: SchedulerKind = SchedulerKind.RTS
    #: RTS contention-level threshold; None selects the adaptive controller
    cl_threshold: Optional[int] = None
    #: RTS contention-tracking window (seconds, local clock)
    contention_window: float = 1.0
    #: RTS cap on assigned backoffs
    max_enqueue_backoff: float = 2.0
    #: RTS execution-time admission rule: "paper" (Algorithm 3 literal,
    #: maximal abort economy) or "economic" (also charges the validator's
    #: remaining time; fail-fast for early-stage transactions)
    rts_admission: str = "paper"
    #: TFA+Backoff base / cap
    backoff_base: float = 5.0 * MS
    backoff_cap: float = 0.25

    # -- transaction engine -----------------------------------------------------
    nesting: NestingModel = NestingModel.CLOSED
    winner_policy: WinnerPolicy = WinnerPolicy.HOLDER_WINS
    #: who loses a busy-object conflict: "root" (the paper's semantics,
    #: §II: "transactions that request an object being validated must
    #: abort" — the losing *parent* is what RTS schedules), "level" (the
    #: requesting nested level only) or "mixed" (copy fetches abort the
    #: level, commit-time acquisitions abort the root) — ablations
    conflict_scope: str = "root"
    #: closed-nested commits validate the inner read set (Turcu &
    #: Ravindran's closed-nesting model — the source of the paper's
    #: "own-cause" nested aborts); disable for the ablation
    nested_commit_validation: bool = True
    #: local CPU time consumed per transactional operation
    op_local_time: float = 5e-5
    #: loopback delivery delay for node-local protocol messages (must be
    #: positive: a zero-cost local conflict/retry cycle would let a
    #: spinning transaction starve the event loop without advancing time)
    local_loopback_delay: float = 2e-5
    #: per-message CPU service time of each node's proxy stack (serial
    #: server).  Positive values make hot nodes congestible, so retry
    #: storms cost real capacity — "additional requests incur more
    #: contention" (§IV-C).  0 disables queueing.
    msg_process_time: float = 5e-4
    #: execution-time estimate used before the stats table has history
    fallback_exec_estimate: float = 0.05
    #: local time a root transaction pays per abort before restarting,
    #: modelling the framework's rollback cost (HyFlow-style Java D-STM:
    #: context teardown, object-graph re-instantiation, serialisation
    #: buffers).  A pure protocol simulator would otherwise charge aborts
    #: only their re-communication, understating what retry storms cost
    #: the real system; ablation A7 sweeps this.
    abort_overhead: float = 0.01
    #: clock skew/drift bounds for the asynchronous node clocks
    max_clock_skew: float = 0.05
    max_clock_drift: float = 1e-5

    # -- fault injection -----------------------------------------------------
    #: deterministic fault plan; disabled by default (strictly additive)
    faults: FaultConfig = FaultConfig()

    # -- rpc substrate -------------------------------------------------------
    #: batching window + lookup-cache mode; defaults are strictly additive
    rpc: RpcConfig = RpcConfig()

    # -- open-loop traffic ---------------------------------------------------
    #: arrival engine (repro.traffic); disabled by default — the harness
    #: keeps the closed-loop worker-pool path, byte-identical to before
    arrival: ArrivalConfig = ArrivalConfig()

    # -- tracing -------------------------------------------------------------------
    trace: bool = False
    trace_categories: Optional[tuple[str, ...]] = None
    #: observability layer (spans, time-series, exports); disabled by
    #: default and strictly additive like ``faults``
    obs: ObsConfig = ObsConfig()
    #: runtime invariant sanitizer; disabled by default and strictly
    #: additive like ``faults``/``obs``
    check: CheckConfig = CheckConfig()
    #: kernel profiler (repro.prof); disabled by default and strictly
    #: additive — the run loop pays one guard, the timeline is unchanged
    prof: ProfConfig = ProfConfig()
    #: payload/control plane split; disabled by default and strictly
    #: additive — no cost model, no proxies, no payload caches
    payload: PayloadConfig = PayloadConfig()

    def replace(self, **changes) -> "ClusterConfig":
        """A modified copy (sugar over :func:`dataclasses.replace`)."""
        return dataclasses.replace(self, **changes)

    def __post_init__(self) -> None:
        if self.num_nodes < 1:
            raise ValueError(f"num_nodes must be >= 1, got {self.num_nodes}")
        if not 0 < self.min_link_delay <= self.max_link_delay:
            raise ValueError("need 0 < min_link_delay <= max_link_delay")
        if self.op_local_time < 0:
            raise ValueError("op_local_time must be >= 0")
        if self.cl_threshold is not None and self.cl_threshold < 1:
            raise ValueError("cl_threshold must be >= 1 (or None for adaptive)")
        for name, allowed in (
            ("conflict_scope", ("root", "level", "mixed")),
            ("rts_admission", ("paper", "economic")),
        ):
            if getattr(self, name) not in allowed:
                raise ValueError(
                    f"{name} must be one of {allowed}, got {getattr(self, name)!r}"
                )
        # Coerce enum-ish fields so strings work ergonomically.
        object.__setattr__(self, "scheduler", SchedulerKind(self.scheduler))
        object.__setattr__(self, "topology", TopologyKind(self.topology))
        object.__setattr__(self, "nesting", NestingModel(self.nesting))
        object.__setattr__(self, "winner_policy", WinnerPolicy(self.winner_policy))
        if isinstance(self.faults, dict):
            object.__setattr__(self, "faults", FaultConfig(**self.faults))
        if isinstance(self.rpc, dict):
            object.__setattr__(self, "rpc", RpcConfig(**self.rpc))
        if isinstance(self.arrival, dict):
            object.__setattr__(self, "arrival", ArrivalConfig(**self.arrival))
        if isinstance(self.obs, dict):
            object.__setattr__(self, "obs", ObsConfig(**self.obs))
        if isinstance(self.check, dict):
            object.__setattr__(self, "check", CheckConfig(**self.check))
        if isinstance(self.prof, dict):
            object.__setattr__(self, "prof", ProfConfig(**self.prof))
        if isinstance(self.payload, dict):
            object.__setattr__(self, "payload", PayloadConfig(**self.payload))
