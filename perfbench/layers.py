"""Per-layer timing taken from outside the program.

Every per-layer number in this benchmark comes from wrapping a public
function of one layer **at the name its caller looks up** — a module
global such as ``repro.train.trainer.planned_forward`` (the trainer
calls the name it imported, so wrapping ``repro.train.planned_forward``
would time nothing) or a class attribute such as
``repro.tensor.tensor.Tensor.backward``.  No span or counter is added
under ``src/``; :meth:`LayerTimer.uninstall` restores every original.

Each wrapped call records its inclusive time and its *self* time (the
inclusive time minus the wrapped calls it made).  Records are kept per
thread name, so the serving front end's thread (``repro-net``) is kept
apart from the load generator running on the main thread.  A call into
a metric that is already open on the same thread is folded into the
outer call, so nested lookups of one layer are never counted twice.
"""

from __future__ import annotations

import functools
import importlib
import threading
import time
from dataclasses import dataclass

__all__ = ["Stat", "LayerTimer", "Target", "ROUTER_TARGETS",
           "COMPUTE_TARGETS"]


@dataclass
class Stat:
    """Calls, inclusive seconds and self seconds of one metric."""

    calls: int = 0
    inclusive: float = 0.0
    self_time: float = 0.0


@dataclass(frozen=True)
class Target:
    """One wrap point: ``"module:attr"`` or ``"module:Class.method"``.

    ``metric`` names what the call's time is booked under; ``by_flag``
    (optional) is ``(kwarg, metric_if_true, metric_if_false)`` for a
    function whose mode is a keyword (``planned_forward(train=...)``).
    ``count_kind`` books one call count per kernel kind (dense /
    sparse) read off the ``KernelSpec`` the call is made on.
    """

    where: str
    metric: str
    by_flag: tuple | None = None
    count_kind: bool = False


# Router-side layers: run in the benchmark process, on the net thread.
ROUTER_TARGETS = (
    Target("repro.net.protocol:FrameDecoder.feed", "net.decode"),
    Target("repro.net.server:encode_message", "net.encode"),
    Target("repro.net.server:NetServer.poll", "net.poll"),
    Target("repro.serve.cluster:ServingCluster.submit", "cluster.submit"),
    Target("repro.serve.cluster:ServingCluster.step", "cluster.step"),
    Target("repro.distributed.comm:pack_array", "distributed.pack"),
    Target("repro.distributed.comm:unpack_array", "distributed.pack"),
    Target("repro.serve.worker:pack_array", "distributed.pack"),
    Target("repro.serve.worker:unpack_array", "distributed.pack"),
    Target("repro.stream.wal:MutationLog.append", "stream.wal_append"),
)

# Compute layers: the trainer, or an in-process Session replaying the
# serving worker's request stream.
COMPUTE_TARGETS = (
    Target("repro.train.trainer:planned_forward", "train.forward",
           by_flag=("train", "train.forward", "train.eval")),
    Target("repro.api.session:planned_forward", "api.forward"),
    Target("repro.api.session:Session.predict", "api.predict"),
    Target("repro.tensor.tensor:Tensor.backward", "tensor.backward"),
    Target("repro.tensor.optim:AdamW.step", "tensor.optim"),
    Target("repro.train.trainer:clip_grad_norm", "tensor.optim"),
    Target("repro.core.engine:TorchGTEngine.refresh", "core.refresh"),
    Target("repro.models.layers:MultiHeadAttention.forward", "models.attn"),
    Target("repro.models.layers:FeedForward.forward", "models.ffn"),
    Target("repro.tensor.module:LayerNorm.forward", "models.norm"),
    Target("repro.attention.registry:KernelSpec.__call__",
           "attention.kernel", count_kind=True),
    Target("repro.core.engine:Engine.prepare_inference", "core.prepare"),
    Target("repro.core.engine:TorchGTEngine.prepare_graph", "core.prepare"),
    Target("repro.core.engine:cluster_reorder", "partition.reorder"),
    Target("repro.api.session:compute_encodings", "models.encodings"),
    Target("repro.train.trainer:compute_encodings", "models.encodings"),
    Target("repro.graph.csr:CSRGraph.subgraph", "graph.subgraph"),
    Target("repro.stream:apply_delta", "stream.apply"),
)


_MISSING = object()


def _resolve(where: str):
    """``"pkg.mod:Class.attr"`` → ``(owner, attr)`` to patch."""
    module_name, _, path = where.partition(":")
    owner = importlib.import_module(module_name)
    parts = path.split(".")
    for part in parts[:-1]:
        owner = getattr(owner, part)
    if not hasattr(owner, parts[-1]):
        raise AttributeError(f"wrap point {where!r} does not exist")
    return owner, parts[-1]


class LayerTimer:
    """Installs timing wrappers and accumulates per-thread records."""

    def __init__(self):
        self._local = threading.local()
        self._lock = threading.Lock()
        self._stats: dict[tuple[str, str], Stat] = {}
        self._counts: dict[tuple[str, str], int] = {}
        self._patches: list[tuple[object, str, object]] = []

    # -- install / uninstall ---------------------------------------------- #
    def install(self, targets) -> "LayerTimer":
        """Wrap every target; raises, wrapping nothing, if one has moved."""
        try:
            for target in targets:
                owner, attr = _resolve(target.where)
                self.wrap_attr(owner, attr, target)
        except BaseException:
            self.uninstall()
            raise
        return self

    def wrap_attr(self, owner, attr: str, target: Target) -> None:
        """Wrap ``owner.attr`` (a module, class or single object)."""
        own = vars(owner).get(attr, _MISSING)
        setattr(owner, attr, self._wrapper(getattr(owner, attr), target))
        self._patches.append((owner, attr, own))

    def uninstall(self) -> None:
        """Restore every wrapped attribute, newest first."""
        while self._patches:
            owner, attr, own = self._patches.pop()
            if own is _MISSING:
                delattr(owner, attr)  # the attribute was inherited
            else:
                setattr(owner, attr, own)

    def __enter__(self) -> "LayerTimer":
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()

    # -- the wrapper ------------------------------------------------------ #
    def _wrapper(self, fn, target: Target):
        timer = self

        @functools.wraps(fn)
        def timed(*args, **kwargs):
            metric = target.metric
            if target.by_flag is not None:
                flag, if_true, if_false = target.by_flag
                metric = if_true if kwargs.get(flag) else if_false
            if target.count_kind and args:
                kind = ("sparse" if getattr(args[0], "needs_pattern", False)
                        else "dense")
                timer.count(f"attention.{kind}_calls")
            stack = timer._stack()
            if any(frame[0] == metric for frame in stack):
                return fn(*args, **kwargs)  # folded into the outer call
            frame = [metric, 0.0]
            stack.append(frame)
            t0 = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = time.perf_counter() - t0
                stack.pop()
                if stack:
                    stack[-1][1] += dt
                timer._book(metric, dt, dt - frame[1])

        return timed

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _book(self, metric: str, inclusive: float, self_time: float) -> None:
        key = (threading.current_thread().name, metric)
        with self._lock:
            stat = self._stats.get(key)
            if stat is None:
                stat = self._stats[key] = Stat()
            stat.calls += 1
            stat.inclusive += inclusive
            stat.self_time += self_time

    def count(self, name: str, n: int = 1) -> None:
        """Add ``n`` to a per-thread event counter."""
        key = (threading.current_thread().name, name)
        with self._lock:
            self._counts[key] = self._counts.get(key, 0) + n

    # -- reading ---------------------------------------------------------- #
    def stat(self, metric: str, thread: str | None = None) -> Stat:
        """The metric's record summed over threads (or one thread)."""
        out = Stat()
        with self._lock:
            for (name, m), s in self._stats.items():
                if m == metric and (thread is None or name == thread):
                    out.calls += s.calls
                    out.inclusive += s.inclusive
                    out.self_time += s.self_time
        return out

    def counted(self, name: str, thread: str | None = None) -> int:
        """An event counter summed over threads (or one thread)."""
        with self._lock:
            return sum(n for (t, m), n in self._counts.items()
                       if m == name and (thread is None or t == thread))
