"""The serving stack under test, a pipelined wire client, and process meters.

The stack is built the way ``repro serve --workers 1 --listen`` builds
it: a :class:`~repro.serve.ServingCluster` with one worker process,
behind a :class:`~repro.net.NetServer` with a default
:class:`~repro.net.AdmissionController`, whose poll loop runs on its own
thread.  The load comes from the calling thread over one TCP
connection, framed with the public :mod:`repro.net.protocol` codec.
"""

from __future__ import annotations

import os
import resource
import select
import socket
import time
from dataclasses import dataclass, field

import numpy as np

__all__ = ["Stack", "WireClient", "Reply", "CpuMeter", "worker_peak_rss_mb",
           "own_peak_rss_mb", "STORE_BUDGET_ENV", "budget_worker_stores"]

#: Environment variable naming the chunk-cache byte budget a serving
#: worker opens its store with (read by :func:`budget_worker_stores`).
STORE_BUDGET_ENV = "PERFBENCH_STORE_CACHE_BYTES"


def budget_worker_stores(cache_bytes: int) -> None:
    """Make ``repro.store.open_store`` default to ``cache_bytes``.

    A cluster worker opens its shared store with the default 64 MiB
    chunk-cache budget, and the cluster has no knob for it.  The churn
    workload needs a budget of a quarter of the feature bytes, so the
    worker process calls this before it opens the store (see
    ``run.py``).  The worker looks ``open_store`` up on the package at
    call time, so replacing the package attribute is enough.
    """
    import repro.store as store

    original = store.open_store

    def open_budgeted(path, cache_bytes=cache_bytes, mode="r"):
        return original(path, cache_bytes=cache_bytes, mode=mode)

    store.open_store = open_budgeted


@dataclass
class Reply:
    """One answered request as the client saw it."""

    request_id: int
    kind: str                 # "result" or "error"
    received_at: float        # perf_counter seconds
    graph_version: int | None = None
    logits: np.ndarray | None = None
    error: str | None = None


class WireClient:
    """One TCP connection carrying many in-flight requests.

    Requests are encoded with :func:`repro.net.protocol.encode_message`
    and replies decoded with :func:`repro.net.protocol.decode_message`;
    the client never uses :class:`~repro.net.protocol.FrameDecoder`, so
    a wrapper on the server's decoder times only the server.
    """

    def __init__(self, address, config, tenant: str = "perfbench"):
        from repro.net import protocol

        self._protocol = protocol
        self._config_json = config.to_json()
        self._tenant = tenant
        self._sock = socket.create_connection(address, timeout=30.0)
        self._sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self._buf = bytearray()
        self._next_id = 0
        self.sent_at: dict[int, float] = {}

    def _send(self, msg) -> int:
        self._sock.sendall(self._protocol.encode_message(msg))
        self.sent_at[msg.request_id] = time.perf_counter()
        return msg.request_id

    def _allocate(self) -> int:
        rid = self._next_id
        self._next_id += 1
        return rid

    def predict(self, nodes: np.ndarray) -> int:
        """Send one node-subset predict; returns its request id."""
        return self._send(self._protocol.predict_request(
            self._allocate(), self._config_json, tenant=self._tenant,
            nodes=nodes))

    def mutate(self, delta) -> int:
        """Send one GraphDelta mutate; returns its request id."""
        return self._send(self._protocol.mutate_request(
            self._allocate(), self._config_json, delta.to_payload(),
            tenant=self._tenant))

    def receive(self, timeout: float) -> list[Reply]:
        """Every reply that arrives within ``timeout`` seconds (maybe none)."""
        ready, _, _ = select.select([self._sock], [], [], max(timeout, 0.0))
        if not ready:
            return []
        data = self._sock.recv(1 << 20)
        if not data:
            raise ConnectionError("server closed the connection")
        now = time.perf_counter()
        self._buf.extend(data)
        replies = []
        while self._buf:
            try:
                msg, used = self._protocol.decode_message(self._buf)
            except self._protocol.TruncatedFrameError:
                break
            del self._buf[:used]
            if msg.kind == "result":
                replies.append(Reply(
                    msg.request_id, "result", now,
                    graph_version=msg.headers.get("graph_version"),
                    logits=msg.arrays[0] if msg.arrays else None))
            else:
                replies.append(Reply(msg.request_id, msg.kind, now,
                                     error=str(msg.headers.get("error"))))
        return replies

    def close(self) -> None:
        self._sock.close()


@dataclass
class Stack:
    """Cluster + net front end, started; :meth:`close` stops both."""

    config: object
    store_path: str | None = None
    wal_dir: str | None = None
    cluster: object = field(init=False)
    net: object = field(init=False)

    def __post_init__(self):
        from repro.net import AdmissionController, NetServer
        from repro.serve import ServingCluster

        stores = ([(self.config, self.store_path)]
                  if self.store_path is not None else ())
        self.cluster = ServingCluster(num_workers=1,
                                      warm_configs=[self.config],
                                      stores=stores, wal_dir=self.wal_dir)
        try:
            self.net = NetServer(self.cluster,
                                 admission=AdmissionController()).start()
        except BaseException:
            self.cluster.close()
            raise

    @property
    def worker_pid(self) -> int:
        (handle,) = self.cluster.workers.values()
        return handle.process.pid

    def close(self) -> None:
        self.net.close()
        self.cluster.close()


def _proc_fields(pid: int, name: str) -> list[str]:
    with open(f"/proc/{pid}/status") as f:
        for line in f:
            if line.startswith(name + ":"):
                return line.split()[1:]
    raise KeyError(f"{name} not in /proc/{pid}/status")


def worker_peak_rss_mb(pid: int) -> float:
    """Peak resident set (VmHWM) of a live process, in MB."""
    value, _kb = _proc_fields(pid, "VmHWM")
    return int(value) / 1024.0


def own_peak_rss_mb() -> float:
    """Peak resident set of this process, in MB."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class CpuMeter:
    """CPU seconds used by this process plus the given live processes."""

    _TICK = os.sysconf("SC_CLK_TCK")

    def __init__(self, pids=()):
        self._pids = tuple(pids)

    def _child_seconds(self) -> float:
        total = 0.0
        for pid in self._pids:
            with open(f"/proc/{pid}/stat") as f:
                # fields after the parenthesised command name; utime and
                # stime are fields 14 and 15 of the full line
                rest = f.read().rsplit(")", 1)[1].split()
            total += (int(rest[11]) + int(rest[12])) / self._TICK
        return total

    def read(self) -> float:
        return time.process_time() + self._child_seconds()
