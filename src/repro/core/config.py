"""Cluster configuration.

:class:`ClusterConfig` holds the knobs of the simulated system that an
experiment turns — every field is swept by an ablation, benchmark,
example or ledger cell, or is a parameter the paper names (DESIGN.md §2,
"`ClusterConfig` survivors"); a value nobody turns is a module constant
next to its reader.  Each opt-in subsystem has its own sub-config
(faults, rpc, arrival, obs, check, prof, payload), given as an instance
or a dict.  Sweeps are ``dataclasses.replace`` over a base
configuration, which keeps parameter provenance obvious in the harness.
"""

from __future__ import annotations

import dataclasses
import enum
import math
from dataclasses import dataclass
from typing import Any, Optional

from repro.dstm.transaction import NestingModel
from repro.net.topology import MS

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


def _refuse_unless_enabled(cfg: Any, what: str) -> None:
    """A setting the disabled subsystem would silently ignore is an error:
    with ``enabled=False`` every other field must keep its default."""
    if cfg.enabled:
        return
    for field in dataclasses.fields(cfg):
        if getattr(cfg, field.name) != field.default:
            raise ValueError(f"{field.name} is set but {what} is not enabled")


def _check_int(name: str, value: Any, lower: int) -> None:
    """``value`` must be a real ``int`` (not a bool, float or NaN) >= ``lower``."""
    if not (isinstance(value, int) and not isinstance(value, bool) and value >= lower):
        raise ValueError(f"{name} must be an int >= {lower}, got {value!r}")


@dataclass(frozen=True)
class FaultConfig:
    """Parameterisation of the deterministic fault-injection layer.

    With ``enabled=False`` (the default) the cluster builds no fault plan,
    starts no heartbeats and arms no RPC timeouts: every code path is
    byte-identical to a fault-free build (strict additivity).  With
    ``enabled=True`` the fault timeline is generated eagerly from the
    dedicated ``"faults"`` RNG stream, so identical seeds give identical
    fault schedules and per-message fates.

    These fields are the fault *model*, which the sweeps vary.  How the
    protocol recovers — RPC windows, leases, heartbeats, the reclaim
    grace, the nested retry cap — is one fixed timing, the constants of
    :mod:`repro.faults.recovery`.
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
    #: fault events are generated over [0, schedule_horizon)
    schedule_horizon: float = 60.0

    def __post_init__(self) -> None:
        # Every range check is negated (``not v >= 0``), as Timeout's is:
        # a NaN fails every comparison, so it fails here, not mid-run.
        for name in ("drop_rate", "duplicate_rate", "extra_delay_rate"):
            v = getattr(self, name)
            if not 0.0 <= v <= 1.0:
                raise ValueError(f"{name} must be in [0, 1], got {v}")
        for name in ("extra_delay_max", "partition_rate", "crash_rate"):
            if not getattr(self, name) >= 0:
                raise ValueError(f"{name} must be >= 0")
        for name in ("partition_duration", "crash_duration", "schedule_horizon"):
            if not getattr(self, name) > 0:
                raise ValueError(f"{name} must be > 0")


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

    def __post_init__(self) -> None:
        if not 0 <= self.batch_window < math.inf:  # an inf window never flushes
            raise ValueError(
                f"batch_window must be finite and >= 0, got {self.batch_window}"
            )


@dataclass(frozen=True)
class ObsConfig:
    """Parameterisation of the observability layer (``repro.obs``).

    With ``enabled=False`` (the default) the cluster attaches no sink and
    the tracer stays exactly as the ``trace``/``trace_categories`` knobs
    configure it: the disabled path costs one boolean guard per emission
    site.  With ``enabled=True`` every ``repro.obs`` event category is
    enabled and two sinks are attached: the run's one live fold (an
    event count and the exact span-phase rows, see
    :class:`~repro.obs.spans.LiveFold`) and, given ``jsonl_path``, the
    JSONL stream every other table is computed from
    (``python -m repro.obs.report``).
    """

    enabled: bool = False
    #: stream every event to this JSONL file (None = no file export)
    jsonl_path: Optional[str] = None

    def __post_init__(self) -> None:
        _refuse_unless_enabled(self, "obs")


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

    def __post_init__(self) -> None:
        _refuse_unless_enabled(self, "prof")


@dataclass(frozen=True)
class ArrivalConfig:
    """Parameterisation of the open-loop traffic plane (``repro.traffic``).

    With ``enabled=False`` (the default) the experiment harness builds
    the classic closed-loop :class:`~repro.core.executor.
    WorkloadExecutor` and no traffic object exists: the run is
    byte-identical to a build without the package (strict additivity,
    pinned by ``tests/traffic/test_open_loop.py``).  With
    ``enabled=True`` the harness builds an
    :class:`~repro.traffic.OpenLoopExecutor` instead: a per-node Poisson
    process injects transactions at ``rate`` (cluster-wide tx/s, split
    evenly across nodes) into bounded admission queues that shed the
    arrival when full, and the result gains ``offered_rate`` / ``shed``
    / ``stable`` extras.
    """

    enabled: bool = False

    # -- arrival process -------------------------------------------------
    #: "poisson", the one arrival process (spelled out by the e2e recipe)
    process: str = "poisson"
    #: cluster-wide mean offered rate (transactions / simulated second)
    rate: float = 50.0

    # -- popularity ------------------------------------------------------
    #: Zipf skew of object selection; 0 keeps each workload's own policy
    zipf_s: float = 0.0

    # -- admission control ------------------------------------------------
    #: per-node admission queue bound (a full queue sheds the arrival)
    queue_capacity: int = 64

    def __post_init__(self) -> None:
        if self.process != "poisson":
            raise ValueError(
                f"unknown arrival process {self.process!r}; have ('poisson',)"
            )
        if not 0 < self.rate < math.inf:  # an inf rate never advances the clock
            raise ValueError(f"rate must be finite and > 0, got {self.rate}")
        if not self.zipf_s >= 0:
            raise ValueError(f"zipf_s must be >= 0, got {self.zipf_s}")
        _check_int("queue_capacity", self.queue_capacity, 1)
        _refuse_unless_enabled(self, "arrival")


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
    bytes-on-wire cost — ``wire / BANDWIDTH + wire * SER_PER_BYTE`` on
    top of the existing link latency, where ``wire`` is the message's
    control envelope (``CONTROL_SIZE``) plus any attached payload bytes;
    the three constants live in :mod:`repro.rpc.payload`.

    Bytes move as *control-plane proxies* (ProxyStore's pass-by-reference
    model): migrations move only a constant-size ObjectProxy descriptor
    (the factory node, ``psrc``, beside the version fence); bytes resolve
    lazily over a ``PAYLOAD_FETCH`` RPC only when the destination
    actually reads the object, backed by a per-node resolved-bytes cache
    keyed by the version fences — fence bumps invalidate stale bytes by
    construction, and validation-only paths commit without ever pulling
    bytes.
    """

    enabled: bool = False
    #: True, the one mode (spelled out by the e2e recipe): grants carry an
    #: ObjectProxy, bytes resolve by a lazy PAYLOAD_FETCH
    proxy: bool = True
    #: default declared payload bytes per object (a workload's
    #: ``payload_size`` spec or an ``alloc(payload_size=...)`` overrides)
    size: int = 0

    def __post_init__(self) -> None:
        if self.proxy is not True:
            raise ValueError(
                f"proxy must be True, the one payload mode, got {self.proxy!r}"
            )
        _check_int("size", self.size, 0)
        _refuse_unless_enabled(self, "payload")


@dataclass(frozen=True)
class ClusterConfig:
    """Full parameterisation of a simulated D-STM deployment."""

    # -- deployment ---------------------------------------------------------
    num_nodes: int = 8
    seed: int = 0
    #: static per-link delay band (paper §IV-A: 1-50 ms)
    min_link_delay: float = 1.0 * MS
    max_link_delay: float = 50.0 * MS

    # -- scheduling ----------------------------------------------------------
    scheduler: SchedulerKind = SchedulerKind.RTS
    #: RTS contention-level threshold; None selects the adaptive controller
    cl_threshold: Optional[int] = None

    # -- transaction engine -----------------------------------------------------
    nesting: NestingModel = NestingModel.CLOSED
    #: who loses a busy-object conflict: "root" (the paper's semantics,
    #: §II: "transactions that request an object being validated must
    #: abort" — the losing *parent* is what RTS schedules), "level" (the
    #: requesting nested level only) or "mixed" (copy fetches abort the
    #: level, commit-time acquisitions abort the root) — ablations
    conflict_scope: str = "root"
    #: per-message CPU service time of each node's proxy stack (serial
    #: server).  Positive values make hot nodes congestible, so retry
    #: storms cost real capacity — "additional requests incur more
    #: contention" (§IV-C).  0 disables queueing.
    msg_process_time: float = 5e-4
    #: local time a root transaction pays per abort before restarting,
    #: modelling the framework's rollback cost (HyFlow-style Java D-STM:
    #: context teardown, object-graph re-instantiation, serialisation
    #: buffers).  A pure protocol simulator would otherwise charge aborts
    #: only their re-communication, understating what retry storms cost
    #: the real system; ablation A7 sweeps this.
    abort_overhead: float = 0.01

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
    #: category filter of the tracer; needs ``trace`` or ``obs`` on
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

    def replace(self, **changes: Any) -> "ClusterConfig":
        """A modified copy (sugar over :func:`dataclasses.replace`)."""
        return dataclasses.replace(self, **changes)

    def __post_init__(self) -> None:
        _check_int("num_nodes", self.num_nodes, 1)
        if not 0 < self.min_link_delay <= self.max_link_delay:
            raise ValueError("need 0 < min_link_delay <= max_link_delay")
        for name in ("msg_process_time", "abort_overhead"):
            if not getattr(self, name) >= 0:
                raise ValueError(f"{name} must be >= 0, got {getattr(self, name)}")
        if self.cl_threshold is not None:  # None selects the adaptive controller
            _check_int("cl_threshold", self.cl_threshold, 1)
        scopes = ("root", "level", "mixed")
        if self.conflict_scope not in scopes:
            raise ValueError(
                f"conflict_scope must be one of {scopes}, got {self.conflict_scope!r}"
            )
        # Coerce enum-ish fields so strings work ergonomically.
        object.__setattr__(self, "scheduler", SchedulerKind(self.scheduler))
        object.__setattr__(self, "nesting", NestingModel(self.nesting))
        # A sub-config may be given as a dict of its fields.
        for field in dataclasses.fields(self):
            value = getattr(self, field.name)
            if isinstance(value, dict):
                object.__setattr__(self, field.name, type(field.default)(**value))
        if self.trace_categories and not (self.trace or self.obs.enabled):
            raise ValueError(
                "trace_categories is set but neither trace nor obs is enabled"
            )
        if self.faults.enabled and self.rpc.batch_window > 0:
            # no sweep batches a faulted run, so the batcher gives no
            # per-member fault verdict
            raise ValueError("rpc.batch_window is set but faults are enabled")
