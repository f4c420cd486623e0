"""Pieces every workload of the benchmark shares.

* :class:`Spans` — the benchmark's own tracer.  It wraps calls into the
  program's public functions (``ComputeBackend.execute`` and its kernels,
  ``CiphertextExpr.run``, the service client and the wire codec) and
  records one span per call while an operation is being traced.  Nothing
  under ``src/`` is touched: the wrappers are instance attributes or
  module attributes installed by the benchmark.
* :func:`timed_loop` — the closed loop the in-process workloads run: one
  operation at a time for a fixed wall-clock window, each output checked
  outside its timed interval.
* :func:`end_to_end` — the end-to-end metrics of a window, each a median
  over slices of it.
* statistics helpers and the per-layer ledger printer.
"""

from __future__ import annotations

import contextlib
import contextvars
import json
import statistics
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

#: Where traced runs write their spans (inside the checkout, git-ignored).
SPAN_DIR = ROOT / ".perfbench"

#: ``(op id, index of the enclosing span or None)`` while an operation is
#: traced; ``None`` otherwise.  A context variable rather than a stack so
#: concurrent asyncio requests each see their own parent.
_CURRENT = contextvars.ContextVar("perfbench_span", default=None)


class Spans:
    """Spans recorded by the benchmark around the layer calls it makes.

    A record is ``[name, op, parent, start, end, rows]``: the span name,
    the traced operation it belongs to, the index of its parent record,
    ``perf_counter`` start and end, and (for NTT kernels) the residue rows
    the call transformed.
    """

    def __init__(self) -> None:
        self.records: list[list] = []
        self.ops = 0

    @contextlib.contextmanager
    def op(self, op_id: int):
        """Mark one operation as traced for the duration of the block."""
        self.ops += 1
        token = _CURRENT.set((op_id, None))
        try:
            yield
        finally:
            _CURRENT.reset(token)

    def per_op(self, totals: dict, name: str, key: str = "total") -> float:
        """``totals[name][key]`` (from :meth:`totals`) per traced op."""
        return totals.get(name, {}).get(key, 0.0) / self.ops

    def _open(self, name: str, rows: int):
        op_id, parent = _CURRENT.get()
        index = len(self.records)
        self.records.append([name, op_id, parent, time.perf_counter(), None, rows])
        return index, _CURRENT.set((op_id, index))

    def _close(self, opened) -> None:
        index, token = opened
        self.records[index][4] = time.perf_counter()
        _CURRENT.reset(token)

    def wrap(self, name: str, fn, count_rows: bool = False, untraced=None):
        """``fn`` with a span around every call made inside a traced op;
        outside one, ``untraced`` (default ``fn``) is called instead."""
        untraced = fn if untraced is None else untraced

        def wrapper(*args, **kwargs):
            if _CURRENT.get() is None:
                return untraced(*args, **kwargs)
            opened = self._open(name, args[0].count if count_rows else 0)
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(opened)

        return wrapper

    def wrap_async(self, name: str, fn):
        """Coroutine-function twin of :meth:`wrap`."""

        async def wrapper(*args, **kwargs):
            if _CURRENT.get() is None:
                return await fn(*args, **kwargs)
            opened = self._open(name, 0)
            try:
                return await fn(*args, **kwargs)
            finally:
                self._close(opened)

        return wrapper

    def wrap_methods(self, obj, names: dict[str, str], ntt=()) -> None:
        """Shadow ``obj``'s bound methods with traced instance attributes."""
        for attr, span in names.items():
            setattr(obj, attr, self.wrap(span, getattr(obj, attr), attr in ntt))

    def totals(self) -> dict[str, dict]:
        """Per span name: summed duration, self time, rows and call count
        (seconds).  Self time is a span's duration minus its children's."""
        child_time = [0.0] * len(self.records)
        for name, _op, parent, start, end, _rows in self.records:
            if parent is not None:
                child_time[parent] += end - start
        out: dict[str, dict] = {}
        for index, (name, _op, _parent, start, end, rows) in enumerate(self.records):
            entry = out.setdefault(
                name, {"total": 0.0, "self": 0.0, "rows": 0, "calls": 0}
            )
            entry["total"] += end - start
            entry["self"] += end - start - child_time[index]
            entry["rows"] += rows
            entry["calls"] += 1
        return out

    def write(self, workload: str, seed: int) -> Path:
        """Write every span as JSON; returns the path."""
        SPAN_DIR.mkdir(exist_ok=True)
        path = SPAN_DIR / ("spans-%s-seed%d.json" % (workload, seed))
        fields = ("name", "op", "parent", "start", "end", "rows")
        path.write_text(
            json.dumps([dict(zip(fields, record)) for record in self.records])
        )
        return path


def percentile(values, q: float) -> float:
    """Linear-interpolated ``q``-quantile (0 <= q <= 1) of ``values``."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("percentile of no values")
    position = q * (len(ordered) - 1)
    low = int(position)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)


def peak_rss_mb(pid: int | str = "self") -> float:
    """Peak resident set size (``VmHWM``) of a live process, in MiB."""
    with open("/proc/%s/status" % pid) as status:
        for line in status:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError("no VmHWM in /proc/%s/status" % pid)


def timed_loop(seconds: float, op, check, spans: Spans | None):
    """Run ``op(i)`` back to back for ``seconds``; check each output.

    With ``spans`` every even-numbered operation is traced and every odd
    one is not, so the traced and untraced latencies come from the same
    window.  Returns ``(latencies, done, traced, failed, wall seconds)``
    where ``done[i]`` is when operation ``i`` finished, in seconds from
    the start of the window, and ``traced[i]`` says whether it was
    measured under tracing.
    """
    traced_op = spans.wrap("op", op) if spans is not None else op
    latencies: list[float] = []
    done: list[float] = []
    traced: list[bool] = []
    failed = 0
    start = time.perf_counter()
    deadline = start + seconds
    index = 0
    while time.perf_counter() < deadline:
        trace_this = spans is not None and index % 2 == 0
        began = time.perf_counter()
        try:
            if trace_this:
                with spans.op(index):
                    out = traced_op(index)
            else:
                out = op(index)
        except Exception as exc:  # a failed op is counted, not fatal
            finished = time.perf_counter()
            latencies.append(finished - began)
            done.append(finished - start)
            traced.append(trace_this)
            failed += 1
            print("op %d failed: %s: %s" % (index, type(exc).__name__, exc))
            index += 1
            continue
        finished = time.perf_counter()
        latencies.append(finished - began)
        done.append(finished - start)
        traced.append(trace_this)
        if not check(index, out):
            failed += 1
        index += 1
    return latencies, done, traced, failed, time.perf_counter() - start


#: Slices of the timed window: the operations in order of completion, cut
#: into this many runs of equal count.  Latency percentiles and throughput
#: are medians over the slices of each slice's own figure, so a burst of
#: contention from other tenants of a shared host that spoils fewer than
#: half of the slices does not move them.
SLICES = 10


def _slices(latencies, done):
    """``(latencies, completions per second)`` of each slice; both lists
    are in order of completion."""
    count = min(SLICES, len(done))
    out = []
    previous = 0.0
    for k in range(count):
        low, high = k * len(done) // count, (k + 1) * len(done) // count
        out.append((latencies[low:high], (high - low) / (done[high - 1] - previous)))
        previous = done[high - 1]
    return out


def end_to_end(latencies, done, failed: int, rss_mb: float) -> dict:
    """The end-to-end metrics every workload reports (except ``setup_s``,
    which the runner measures from outside the worker).  ``done[i]`` is
    when operation ``i`` finished, in seconds from the window's start;
    throughput counts successful operations only."""
    attempted = len(latencies)
    success = (attempted - failed) / attempted
    slices = _slices(latencies, done)
    print("slices: %s operations" % "/".join(str(len(part)) for part, _ in slices))
    median = statistics.median
    return {
        "throughput_per_s": median(rate for _, rate in slices) * success,
        "latency_p50_ms": median(percentile(part, 0.5) for part, _ in slices) * 1e3,
        "latency_p90_ms": median(percentile(part, 0.9) for part, _ in slices) * 1e3,
        "success_rate": success,
        "peak_rss_mb": rss_mb,
    }


def trace_overhead(latencies, traced) -> float:
    """Traced over untraced p50 latency, from one interleaved window."""
    on = [value for value, flag in zip(latencies, traced) if flag]
    off = [value for value, flag in zip(latencies, traced) if not flag]
    return percentile(on, 0.5) / percentile(off, 0.5)


def ntt_model(n: int, rows: float) -> dict:
    """Computed and modelled NTT cost of an operation's ``rows`` transforms
    of length ``n``.  Computed bytes assume every radix-2 stage reads and
    writes each 8-byte residue once (twiddle reads not counted); the model
    is the Titan V radix-2 kernel model with all rows as one batch."""
    from repro.gpu.costmodel import GpuCostModel
    from repro.kernels.radix2 import radix2_ntt_model

    log_n = n.bit_length() - 1
    model = radix2_ntt_model(n, round(rows), GpuCostModel())
    return {
        "backends.computed_bytes_per_op": 16 * rows * n * log_n,
        "model.radix2_time_us": model.time_us,
        "model.radix2_dram_mb": model.dram_mb,
        "model.radix2_ns_per_butterfly": model.time_us * 1e3 / (rows * (n // 2) * log_n),
    }


def print_ledger(title: str, rows) -> None:
    """Print per-layer self times as a table; ``rows`` is ``(label, ms)``."""
    total = sum(ms for _label, ms in rows)
    print("per-layer ledger, %s (mean ms per traced op):" % title)
    for label, ms in rows:
        share = 100.0 * ms / total if total else 0.0
        print("  %-34s %10.3f ms %6.1f%%" % (label, ms, share))
    print("  %-34s %10.3f ms" % ("total", total))
