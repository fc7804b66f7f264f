"""The three workloads: ``train-arxiv``, ``serve-hot`` and ``serve-churn``.

All three use one :class:`~repro.api.RunConfig`: ogbn-arxiv at scale
0.3 (360 nodes), ``graphormer-slim`` defaults (4 layers × 64, 8 heads)
and the ``torchgt`` engine with its default settings and backend,
seeded by the workload seed.  Serving runs with untrained weights,
because serving never needs ``fit()``.  Why each workload exists, and
which end-to-end metric each per-layer metric should move, is in
``perfbench/README.md``.

Every workload reports the same end-to-end metrics (:data:`END_TO_END`)
over its own unit of work, an *op*: one training epoch on
``train-arxiv``, one request on ``serve-hot`` and one read or write on
``serve-churn``.  The host is shared, and other machines' work slows
every op for seconds at a time; it never speeds one up.  So the timing
metrics are read at the fast end of their samples, where those bursts
do not reach: the fastest epoch, the 5th-percentile request.  The
throughput, median and tail are reported too, per layer and without a
bound (``e2e.ops_per_s``, ``e2e.p50_ms``, ``e2e.tail_ms``).
"""

from __future__ import annotations

import math
import os
import time
from dataclasses import dataclass, field

import numpy as np

from .checks import CheckFailed, check_acks, check_logits, check_training
from .layers import COMPUTE_TARGETS, ROUTER_TARGETS, LayerTimer, Target
from .record import median, percentile
from .stack import (
    STORE_BUDGET_ENV,
    CpuMeter,
    Stack,
    WireClient,
    own_peak_rss_mb,
    worker_peak_rss_mb,
)

__all__ = ["END_TO_END", "PER_LAYER", "Params", "Outcome", "InvalidRun",
           "WORKLOADS", "run_config", "verify_replies"]

#: End-to-end metrics: ``name -> (unit, better)``; every workload
#: reports every one of them, over its own op.
END_TO_END = {
    "setup_s": ("s", "lower"),
    "peak_rss_mb": ("MB", "lower"),
    "fast_ms": ("ms", "lower"),
    "cpu_ms_per_op": ("ms", "lower"),
    "ok_share": ("fraction", "higher"),
}

#: End-to-end metrics that also get a trace-overhead figure (setup and
#: peak memory are measured once per process, with tracing off).
_OVERHEAD = ("fast_ms", "cpu_ms_per_op", "ok_share")

#: Per-layer metrics (traced run only): ``name -> unit``.  Times and
#: counts are per op unless the name says otherwise.
PER_LAYER = {
    "train.forward_s": "s", "train.eval_s": "s", "tensor.backward_s": "s",
    "tensor.optim_s": "s", "core.refresh_s": "s", "train.stage_share":
    "fraction", "train.fit_s": "s", "train.test_acc": "fraction",
    "models.attn_ms": "ms", "models.ffn_ms": "ms", "models.norm_ms": "ms",
    "attention.kernel_ms": "ms", "attention.dense_calls": "count",
    "attention.sparse_calls": "count", "attention.sparse_share": "fraction",
    "core.prepare_ms": "ms", "partition.reorder_ms": "ms",
    "models.encodings_ms": "ms", "graph.subgraph_ms": "ms",
    "core.reforms": "count", "api.predict_ms": "ms", "api.forward_ms": "ms",
    "net.decode_ms": "ms", "net.encode_ms": "ms", "net.poll_busy_ms": "ms",
    "cluster.submit_ms": "ms", "cluster.step_ms": "ms",
    "distributed.pack_ms": "ms", "serve.batch_occupancy": "count",
    "serve.shared_share": "fraction", "serve.pool_hit_share": "fraction",
    "serve.outside_compute_ms": "ms", "stream.wal_append_ms": "ms",
    "stream.wal_bytes": "bytes", "stream.apply_ms": "ms",
    "stream.write_p50_ms": "ms", "stream.write_p90_ms": "ms",
    "store.chunk_hit_share": "fraction", "store.chunk_loads": "count",
    "cluster.requeues": "count", "cluster.worker_deaths": "count",
    "net.rejected": "count", "loadgen.late_p99_ms": "ms",
    "e2e.ops_per_s": "1/s", "e2e.p50_ms": "ms", "e2e.tail_ms": "ms",
    **{f"obs.trace_overhead.{m}": "fraction" for m in _OVERHEAD},
}

#: Seed the ogbn-arxiv graph is synthesized from, whatever the workload seed.
DATA_SEED = 0

#: Seed of serve-churn's arrival times, whatever the workload seed: across
#: arrival traces the queueing alone moves the read p95 by up to 40%,
#: which would hide any change a commit makes.
ARRIVAL_SEED = 0

NET_THREAD = "repro-net"   # NetServer.start()'s poll thread
MAIN_THREAD = "MainThread"


@dataclass(frozen=True)
class Params:
    """Workload sizes.  The defaults are the benchmark; tests shrink them."""

    scale: float = 0.3          # ogbn-arxiv scale: 360 nodes
    seconds: float = 30.0       # measured time per run
    setup_reps: int = 3         # set-ups per run; setup_s takes the fastest
    epochs: int = 8             # epochs per fit (train-arxiv)
    callers: int = 8            # closed-loop callers (serve-hot)
    hot_sets: int = 4           # distinct hot node sets (serve-hot)
    hot_nodes: int = 48         # nodes per hot set, < reorder_min_nodes
    warmup_s: float = 1.0       # untimed closed loop before serve-hot
    replay_cap: int = 200       # serve-hot requests replayed when traced
    churn_nodes: int = 128      # nodes per cold read (serve-churn)
    rate_rps: float = 6.0       # open-loop arrival rate (serve-churn)
    write_every: int = 5        # every 5th churn op is a mutate
    delta_edges: int = 8        # edges removed and added per delta
    chunk_rows: int = 32        # store chunk rows (12 chunks at 360 nodes)
    cache_share: float = 0.25   # chunk-cache budget / feature bytes
    max_late_s: float = 0.025   # open-loop p99 lateness that voids a run


class InvalidRun(RuntimeError):
    """The load generator fell behind its schedule; nothing is reported."""


@dataclass
class Outcome:
    """What one workload run measured."""

    metrics: dict                      # end-to-end name -> value
    attempted: int
    failed: int
    per_layer: dict = field(default_factory=dict)
    samples: dict = field(default_factory=dict)
    error: str | None = None           # correctness failure, if any
    ops: list = field(default_factory=list, repr=False)  # serving replies


def run_config(p: Params, seed: int):
    """The one RunConfig every workload uses.

    The graph is synthesized from a fixed data seed, so every run
    measures the same dataset; the workload seed drives model
    initialization, training noise and every request the load sends.
    """
    from repro.api import DataConfig, RunConfig, TrainConfig

    return RunConfig(data=DataConfig("ogbn-arxiv", scale=p.scale,
                                     seed=DATA_SEED),
                     train=TrainConfig(epochs=p.epochs), seed=seed)


def _per_op(timer: LayerTimer, metric: str, ops: int, thread: str,
            self_time: bool = False) -> float:
    """Milliseconds per op booked under ``metric`` on ``thread``."""
    s = timer.stat(metric, thread)
    return (s.self_time if self_time else s.inclusive) * 1e3 / max(ops, 1)


def _model_layers(timer: LayerTimer, ops: int, thread: str) -> dict:
    """Per-op model, attention and prepare metrics from a compute timer."""
    dense = timer.counted("attention.dense_calls", thread)
    sparse = timer.counted("attention.sparse_calls", thread)
    return {
        "models.attn_ms": _per_op(timer, "models.attn", ops, thread, True),
        "models.ffn_ms": _per_op(timer, "models.ffn", ops, thread, True),
        "models.norm_ms": _per_op(timer, "models.norm", ops, thread, True),
        "attention.kernel_ms": _per_op(timer, "attention.kernel", ops,
                                       thread),
        "attention.dense_calls": dense / max(ops, 1),
        "attention.sparse_calls": sparse / max(ops, 1),
        "attention.sparse_share": sparse / max(dense + sparse, 1),
        "core.prepare_ms": _per_op(timer, "core.prepare", ops, thread),
        "partition.reorder_ms": _per_op(timer, "partition.reorder", ops,
                                        thread),
        "models.encodings_ms": _per_op(timer, "models.encodings", ops,
                                       thread),
        "graph.subgraph_ms": _per_op(timer, "graph.subgraph", ops, thread),
    }


def _overhead(plain: dict, traced: dict) -> dict:
    return {f"obs.trace_overhead.{m}": (traced[m] - plain[m]) / plain[m]
            for m in _OVERHEAD}


def _per_layer(values: dict) -> dict:
    """Every per-layer metric, 0 where the workload has no such layer."""
    unknown = set(values) - set(PER_LAYER)
    if unknown:
        raise KeyError(f"unregistered per-layer metrics {sorted(unknown)}")
    return {name: float(values.get(name, 0.0)) for name in PER_LAYER}


# ---------------------------------------------------------------- train --- #
def _fit_once(cfg, dataset) -> dict:
    """One full-graph fit on a fresh model; epochs timed by a callback."""
    from repro.api import Session
    from repro.train import Callback

    class EpochClock(Callback):
        def __init__(self):
            self.epochs: list[float] = []
            self.epoch_cpu: list[float] = []
            self.reforms = 0
            self._t = self._cpu = 0.0

        def on_fit_start(self, record):
            self._t, self._cpu = time.perf_counter(), time.process_time()

        def on_epoch_end(self, epoch, record):
            now, cpu = time.perf_counter(), time.process_time()
            self.epochs.append(now - self._t)
            self.epoch_cpu.append(cpu - self._cpu)
            self._t, self._cpu = now, cpu

        def on_reform(self, epoch, record):
            self.reforms += 1

    session = Session(cfg, dataset=dataset)
    session.model, session.engine  # built outside the timed fit
    clock = EpochClock()
    t0 = time.perf_counter()
    record = session.fit(callbacks=[clock])
    return {"fit_s": time.perf_counter() - t0, "epochs": clock.epochs,
            "epoch_cpu": clock.epoch_cpu, "reforms": clock.reforms,
            "losses": list(record.train_loss), "test_acc": record.final_test}


def _fit_phase(cfg, dataset, budget: float) -> dict:
    fits = []
    t_end = time.perf_counter() + budget
    while not fits or time.perf_counter() < t_end:
        fits.append(_fit_once(cfg, dataset))
    epochs = [e for f in fits for e in f["epochs"]]
    n = len(epochs)
    return {
        "fits": fits, "epochs": epochs,
        "metrics": {
            "fast_ms": min(epochs) * 1e3,
            "cpu_ms_per_op": min(c for f in fits
                                 for c in f["epoch_cpu"]) * 1e3,
            "ok_share": sum(math.isfinite(x) for f in fits
                            for x in f["losses"]) / n,
        },
        "unbounded": {
            "e2e.ops_per_s": n / sum(f["fit_s"] for f in fits),
            "e2e.p50_ms": median(epochs) * 1e3,
            "e2e.tail_ms": percentile(epochs, 90) * 1e3,
        },
    }


def train_arxiv(p: Params, seed: int, trace: bool, import_s: float,
                work: str | None = None) -> Outcome:
    """``Session.fit`` for ``p.epochs`` epochs, repeated for ``p.seconds``."""
    from repro.api import Session

    cfg = run_config(p, seed)
    setups = []
    for _ in range(p.setup_reps):
        t0 = time.perf_counter()
        session = Session(cfg)
        session.dataset, session.model, session.engine
        setups.append(time.perf_counter() - t0)
    dataset = session.dataset
    test_labels = dataset.labels[dataset.test_mask]
    majority = np.bincount(test_labels).max() / len(test_labels)

    plain = _fit_phase(cfg, dataset, p.seconds / 2 if trace else p.seconds)
    metrics = {"setup_s": import_s + min(setups),
               "peak_rss_mb": own_peak_rss_mb(), **plain["metrics"]}
    outcome = Outcome(
        metrics=metrics, attempted=len(plain["epochs"]), failed=0,
        samples={"setup_s": setups, "epoch_s": plain["epochs"],
                 "epoch_cpu_s": [c for f in plain["fits"]
                                 for c in f["epoch_cpu"]],
                 "fit_s": [f["fit_s"] for f in plain["fits"]],
                 "test_acc": [f["test_acc"] for f in plain["fits"]],
                 "majority_rate": float(majority)})
    if trace:
        with LayerTimer().install(COMPUTE_TARGETS) as timer:
            traced = _fit_phase(cfg, dataset, p.seconds / 2)
        n = len(traced["epochs"])
        t = MAIN_THREAD
        stages = ["train.forward", "train.eval", "tensor.backward",
                  "tensor.optim", "core.refresh"]
        stage_s = {m: timer.stat(m, t).inclusive / n for m in stages}
        epoch_mean = sum(traced["epochs"]) / n
        outcome.per_layer = _per_layer({
            "train.forward_s": stage_s["train.forward"],
            "train.eval_s": stage_s["train.eval"],
            "tensor.backward_s": stage_s["tensor.backward"],
            "tensor.optim_s": stage_s["tensor.optim"],
            "core.refresh_s": stage_s["core.refresh"],
            "train.stage_share": sum(stage_s.values()) / epoch_mean,
            "train.fit_s": median([f["fit_s"] for f in plain["fits"]]),
            "train.test_acc": plain["fits"][-1]["test_acc"],
            "core.reforms": sum(f["reforms"] for f in traced["fits"]) / n,
            **plain["unbounded"],
            **_model_layers(timer, n, t),
            **_overhead(plain["metrics"], traced["metrics"]),
        })
        outcome.samples["traced_epoch_s"] = traced["epochs"]
    try:
        for fit in plain["fits"] + (traced["fits"] if trace else []):
            check_training(fit["losses"], fit["test_acc"], majority)
    except CheckFailed as exc:
        outcome.error = str(exc)
    return outcome


# -------------------------------------------------------------- serving --- #
@dataclass
class _Op:
    """One request of the serving load, as sent and as answered."""

    kind: str                       # "read" or "write"
    nodes: np.ndarray | None = None
    delta: object = None
    due: float = 0.0                # open loop: when it was due (abs)
    sent: float = 0.0
    reply: object = None
    phase: str = ""
    request_id: int = -1


class _Load:
    """Sends ops over one client and matches replies to them."""

    def __init__(self, client: WireClient):
        self.client = client
        self.ops: dict[int, _Op] = {}
        self.pending = 0

    def send(self, op: _Op) -> int:
        rid = (self.client.predict(op.nodes) if op.kind == "read"
               else self.client.mutate(op.delta))
        op.sent = self.client.sent_at[rid]
        op.request_id = rid
        self.ops[rid] = op
        self.pending += 1
        return rid

    def receive(self, timeout: float) -> list[_Op]:
        done = []
        for reply in self.client.receive(timeout):
            op = self.ops[reply.request_id]
            op.reply = reply
            self.pending -= 1
            done.append(op)
        return done

    def drain(self, timeout: float = 60.0) -> None:
        """Wait for every outstanding reply; unanswered ops count failed."""
        deadline = time.perf_counter() + timeout
        while self.pending and (now := time.perf_counter()) < deadline:
            self.receive(deadline - now)


def _ok(op: _Op) -> bool:
    return op.reply is not None and op.reply.kind == "result"


def _phase_metrics(ops: list[_Op], window: tuple, cpu_s: float,
                   tail_q: float, start_of) -> tuple:
    """End-to-end metrics of one load phase, and its unbounded figures.

    ``window`` is the phase's (start, end) time; the op time is the
    5th-percentile read.
    """
    reads = [op for op in ops if op.kind == "read" and _ok(op)]
    lat = [(op.reply.received_at - start_of(op)) * 1e3 for op in reads]
    done = sum(_ok(op) for op in ops)
    in_window = sum(_ok(op) and op.reply.received_at <= window[1]
                    for op in ops)
    metrics = {
        "fast_ms": percentile(lat, 5),
        "cpu_ms_per_op": cpu_s * 1e3 / max(done, 1),
        "ok_share": done / max(len(ops), 1),
    }
    unbounded = {"e2e.ops_per_s": in_window / (window[1] - window[0]),
                 "e2e.p50_ms": percentile(lat, 50),
                 "e2e.tail_ms": percentile(lat, tail_q)}
    return metrics, unbounded


def _closed_loop(load: _Load, next_op, callers: int, seconds: float,
                 phase: str) -> tuple[list[_Op], tuple]:
    """``callers`` requests in flight; each reply triggers the next send.

    Returns the ops and the measured window; replies still in flight
    when the window closes are drained (and checked) but not counted.
    """
    ops = []
    t_start = time.perf_counter()
    for _ in range(callers):
        op = next_op()
        op.phase = phase
        load.send(op)
        ops.append(op)
    t_end = time.perf_counter() + seconds
    while (now := time.perf_counter()) < t_end:
        for _ in load.receive(t_end - now):
            op = next_op()
            op.phase = phase
            load.send(op)
            ops.append(op)
    t_stop = time.perf_counter()
    load.drain()
    return ops, (t_start, t_stop)


def _open_loop(load: _Load, schedule: list[_Op], seconds: float,
               phase: str) -> tuple[list[_Op], tuple, list[float]]:
    """Send each op when due, replies or not.

    Returns the ops, the measured window and each send's lateness.
    Replies after the window still count: an open loop's latency is
    taken from the due time, however long the queue grew.
    """
    ops, late = [], []
    start = time.perf_counter() + 0.01
    for op in schedule:
        op.due += start
        op.phase = phase
        while (now := time.perf_counter()) < op.due:
            load.receive(op.due - now)
        load.send(op)
        late.append(op.sent - op.due)
        ops.append(op)
    while (now := time.perf_counter()) < start + seconds:
        load.receive(start + seconds - now)
    t_stop = time.perf_counter()
    load.drain()
    return ops, (start, t_stop), late


def _wal_bytes(wal_dir: str) -> int:
    total = 0
    for root, _, files in os.walk(wal_dir):
        total += sum(os.path.getsize(os.path.join(root, f)) for f in files)
    return total


def _obs_counter(snapshot: dict, name: str) -> float:
    entry = snapshot.get("obs", {}).get(name)
    return sum(row["value"] for row in entry["series"]) if entry else 0.0


def _serve(p: Params, seed: int, trace: bool, import_s: float,
           churn: bool, work: str) -> Outcome:
    from repro.api import Session
    from repro.graph import load_node_dataset

    cfg = run_config(p, seed)
    rng = np.random.default_rng(seed)
    base = load_node_dataset(cfg.data.name, scale=cfg.data.scale,
                             seed=DATA_SEED)
    n = base.num_nodes

    # -- inputs, all from the seed -------------------------------------- #
    if churn:
        from repro.stream import make_churn_deltas
        from repro.store import write_store

        # one Poisson arrival trace seen through a fixed count: arrival
        # times uniform over a phase, from a seed of their own (see
        # ARRIVAL_SEED), so a traced run's two halves see the same
        # arrivals; the requests themselves follow the workload seed
        n_phases = 2 if trace else 1
        phase_s = p.seconds / n_phases
        count = max(int(round(p.rate_rps * phase_s)), p.write_every)
        arrivals = np.sort(np.random.default_rng(ARRIVAL_SEED).uniform(
            0.0, phase_s, size=count))
        deltas = iter(make_churn_deltas(
            base, num_deltas=n_phases * (count // p.write_every),
            edges_per_delta=p.delta_edges, seed=seed))
        schedules = []
        for _ in range(n_phases):
            schedule = []
            for i, due in enumerate(arrivals):
                if i % p.write_every == p.write_every - 1:
                    schedule.append(_Op("write", delta=next(deltas),
                                        due=due))
                else:
                    schedule.append(_Op("read", due=due, nodes=rng.choice(
                        n, p.churn_nodes, replace=False).astype(np.int64)))
            schedules.append(schedule)
        first_nodes = rng.choice(n, p.churn_nodes,
                                 replace=False).astype(np.int64)
        budget = int(base.features.nbytes * p.cache_share)
    else:
        hot = [rng.choice(n, p.hot_nodes, replace=False).astype(np.int64)
               for _ in range(p.hot_sets)]
        pick = np.random.default_rng([seed, 1])

        def next_op():
            return _Op("read", nodes=hot[int(pick.integers(p.hot_sets))])

        first_nodes = hot[0]

    # -- set-up, repeated; the last stack is the one measured ------------ #
    setups, firsts = [], []
    stack = client = None
    router = LayerTimer()
    try:
        for r in range(p.setup_reps):
            if stack is not None:
                client.close()
                stack.close()
                stack = client = None
            t0 = time.perf_counter()
            store_path = wal_dir = None
            if churn:
                data = load_node_dataset(cfg.data.name, scale=cfg.data.scale,
                                         seed=DATA_SEED)
                store_path = os.path.join(work, f"store{r}")
                wal_dir = os.path.join(work, f"wal{r}")
                write_store(store_path, data, chunk_rows=p.chunk_rows)
                os.environ[STORE_BUDGET_ENV] = str(budget)
            try:
                stack = Stack(cfg, store_path=store_path, wal_dir=wal_dir)
            finally:
                os.environ.pop(STORE_BUDGET_ENV, None)
            client = WireClient(stack.net.address, cfg)
            load = _Load(client)
            op = _Op("read", nodes=first_nodes, phase="setup")
            load.send(op)
            load.drain()
            setups.append(time.perf_counter() - t0)
            firsts.append(op)

        # -- measured phases ---------------------------------------------- #
        cpu = CpuMeter([stack.worker_pid])
        phases = [("plain", p.seconds / 2 if trace else p.seconds)]
        if trace:
            phases.append(("traced", p.seconds / 2))
        measured, late_all = {}, []
        if not churn:
            _closed_loop(load, next_op, p.callers, p.warmup_s, "warmup")
        for phase, seconds in phases:
            if phase == "traced":
                router.install(ROUTER_TARGETS)
                router.wrap_attr(stack.net._selector, "select",
                                 Target("selectors:select", "net.select"))
            c0 = cpu.read()
            if churn:
                ops, window, late = _open_loop(load, schedules.pop(0),
                                               seconds, phase)
                late_all += late
                start_of = (lambda op: op.due)
            else:
                ops, window = _closed_loop(load, next_op, p.callers,
                                           seconds, phase)
                start_of = (lambda op: op.sent)
            m, unbounded = _phase_metrics(ops, window, cpu.read() - c0,
                                          90 if churn else 99, start_of)
            measured[phase] = (ops, m, unbounded)
        router.uninstall()
        snap = stack.cluster.stats_snapshot()
        net_snap = stack.net.stats_snapshot()["net"]
        rss = own_peak_rss_mb() + worker_peak_rss_mb(stack.worker_pid)
        wal_bytes = _wal_bytes(wal_dir) if churn else 0
    finally:
        router.uninstall()
        if client is not None:
            client.close()
        if stack is not None:
            stack.close()

    plain_ops, plain, plain_unbounded = measured["plain"]
    all_ops = firsts + [op for op in load.ops.values()
                        if op.phase != "setup"]
    late_p99 = percentile(late_all, 99) * 1e3 if late_all else 0.0
    if churn and late_p99 > p.max_late_s * 1e3:
        raise InvalidRun(
            f"open-loop generator ran {late_p99:.1f} ms late at p99 "
            f"(limit {p.max_late_s * 1e3:.0f} ms); the run is void")
    if churn and _obs_counter(snap, "repro_store_chunk_evictions_total") == 0:
        raise InvalidRun("the serving worker's chunk cache never evicted: "
                         "the quarter-of-features budget did not apply")

    writes = [op for op in plain_ops if op.kind == "write" and _ok(op)]
    write_lat = [(op.reply.received_at - op.due) * 1e3 for op in writes]
    outcome = Outcome(
        metrics={"setup_s": import_s + min(setups), "peak_rss_mb": rss,
                 **plain},
        attempted=len(plain_ops),
        failed=sum(not _ok(op) for op in plain_ops),
        samples={"setup_s": setups,
                 "latency_ms": [(op.reply.received_at
                                 - (op.due if churn else op.sent)) * 1e3
                                for op in plain_ops
                                if op.kind == "read" and _ok(op)],
                 "write_ms": write_lat,
                 "late_ms": [x * 1e3 for x in late_all]},
        ops=all_ops)

    # -- correctness: every reply against an in-process reference ---------- #
    if churn:
        from repro.store import open_store

        dataset = open_store(store_path, cache_bytes=budget)
    else:
        dataset = None
    session = Session(cfg, dataset=dataset)
    timer = LayerTimer()
    if trace:
        timer.install(COMPUTE_TARGETS)
    try:
        replay = verify_replies(session, all_ops, p.replay_cap if trace else 0)
    except CheckFailed as exc:
        outcome.error = str(exc)
        return outcome
    finally:
        timer.uninstall()

    if trace:
        traced_ops, traced, traced_unbounded = measured["traced"]
        t, reads = MAIN_THREAD, max(replay["reads"], 1)
        done_b = sum(_ok(op) for op in traced_ops)
        writes_b = sum(op.kind == "write" and _ok(op) for op in traced_ops)
        workers = snap["workers"]
        pool = snap["pool"]
        poll = router.stat("net.poll", NET_THREAD).inclusive
        select_wait = router.stat("net.select", NET_THREAD).inclusive
        cache = (session.dataset.cache_stats() if churn
                 else {"hits": 0, "misses": 0})
        outcome.per_layer = _per_layer({
            **_model_layers(timer, reads, t),
            "api.predict_ms": _per_op(timer, "api.predict", reads, t),
            "api.forward_ms": _per_op(timer, "api.forward", reads, t),
            "net.decode_ms": _per_op(router, "net.decode", done_b,
                                     NET_THREAD),
            "net.encode_ms": _per_op(router, "net.encode", done_b,
                                     NET_THREAD),
            "net.poll_busy_ms": (poll - select_wait) * 1e3 / max(done_b, 1),
            "cluster.submit_ms": _per_op(router, "cluster.submit", done_b,
                                         NET_THREAD),
            "cluster.step_ms": _per_op(router, "cluster.step", done_b,
                                       NET_THREAD),
            "distributed.pack_ms": _per_op(router, "distributed.pack",
                                           done_b, NET_THREAD),
            "serve.batch_occupancy": workers["mean_batch_occupancy"],
            "serve.shared_share": (workers["shared_computes"]
                                   / max(workers["completed"], 1)),
            "serve.pool_hit_share": (pool["hits"]
                                     / max(pool["hits"] + pool["misses"], 1)),
            "serve.outside_compute_ms": (traced_unbounded["e2e.p50_ms"]
                                         - median(replay["predict_ms"])),
            "stream.wal_append_ms": _per_op(router, "stream.wal_append",
                                            writes_b, NET_THREAD),
            "stream.wal_bytes": wal_bytes / max(
                sum(op.kind == "write" for op in all_ops), 1),
            "stream.apply_ms": _per_op(timer, "stream.apply",
                                       replay["writes"], t),
            "stream.write_p50_ms": percentile(write_lat, 50)
            if write_lat else 0.0,
            "stream.write_p90_ms": percentile(write_lat, 90)
            if write_lat else 0.0,
            "store.chunk_hit_share": cache["hits"] / max(
                cache["hits"] + cache["misses"], 1),
            "store.chunk_loads": cache["misses"] / reads,
            "cluster.requeues": snap["cluster"]["requeued"],
            "cluster.worker_deaths": snap["cluster"]["worker_deaths"],
            "net.rejected": sum(v for k, v in net_snap.items()
                                if k.startswith("rejected")),
            "loadgen.late_p99_ms": late_p99,
            **plain_unbounded,
            **_overhead(plain, traced),
        })
        outcome.samples["replay_predict_ms"] = replay["predict_ms"]
    return outcome


def verify_replies(session, ops: list[_Op], fresh_limit: int) -> dict:
    """Check every reply against ``session``; returns replay samples.

    Mutate acks must carry consecutive versions in send order; delta
    *k* is then version *k*, and each read is compared with the
    reference at the version its reply was stamped with.  The first
    ``fresh_limit`` reads, and every read the memo cannot answer, are
    recomputed and timed — the replay of the worker's compute.
    """
    writes = [op for op in ops if op.kind == "write"]
    failed = [op for op in writes if not _ok(op)]
    if failed:
        raise CheckFailed(f"{len(failed)} mutates failed: "
                          f"{failed[0].reply and failed[0].reply.error}")
    check_acks([op.reply.graph_version for op in writes])
    reads = sorted((op for op in ops if op.kind == "read" and _ok(op)),
                   key=lambda op: (op.reply.graph_version, op.sent))
    version, memo, predict_ms, fresh = 0, {}, [], 0
    for op in reads:
        target = op.reply.graph_version
        if target > len(writes):
            raise CheckFailed(f"read stamped with version {target}, beyond "
                              f"the {len(writes)} mutates sent")
        while version < target:
            session.apply_delta(writes[version].delta)
            version += 1
            memo.clear()
        key = op.nodes.tobytes()
        expected = memo.get(key)
        if expected is None or fresh < fresh_limit:
            t0 = time.perf_counter()
            expected = session.predict(nodes=op.nodes)
            predict_ms.append((time.perf_counter() - t0) * 1e3)
            memo[key] = expected
            fresh += 1
        check_logits(op.request_id, op.reply.logits, expected)
    return {"reads": len(predict_ms), "writes": version,
            "predict_ms": predict_ms}


def serve_hot(p, seed, trace, import_s, work):
    """Closed loop of ``p.callers`` pipelined callers over hot node sets."""
    return _serve(p, seed, trace, import_s, churn=False, work=work)


def serve_churn(p, seed, trace, import_s, work):
    """Open-loop Poisson reads of fresh node sets plus sequenced mutates."""
    return _serve(p, seed, trace, import_s, churn=True, work=work)


#: name -> workload function ``(params, seed, trace, import_s, work_dir)``.
WORKLOADS = {"train-arxiv": train_arxiv, "serve-hot": serve_hot,
             "serve-churn": serve_churn}
