"""A low-overhead sampling profiler emitting collapsed-stack flamegraph data.

Tracing spans answer "where did this *request* go"; the profiler answers
the statistical question "where does this *process* spend its time" without
instrumenting anything: a daemon thread wakes every ``interval`` seconds,
snapshots every thread's Python stack via :func:`sys._current_frames`, and
folds each stack into a ``frame;frame;frame`` key with a sample count —
the *collapsed stack* format consumed directly by ``flamegraph.pl`` and
`speedscope <https://speedscope.app>`_.  At the default 100 Hz the cost is
one C-level stack walk per wakeup, far below the paper-relevant kernels
(the served-request overhead budget is pinned by
``benchmarks/test_bench_telemetry.py``).

Attribution: the serving layer wraps tenant work in :func:`profile_tag`,
which registers a label for the *current thread*; samples of a tagged
thread gain the label as their root frame, so a flamegraph splits cleanly
per tenant (``tenant:<params-hash>;...``) even though every tenant executes
on the same HE executor thread.

Activation mirrors tracing: ``REPRO_PROFILE=profile.txt`` (any entry point
calling :func:`maybe_enable_profiling_from_env`, including the serve CLI)
or the explicit ``serve --profile profile.txt`` flag; the collapsed output
is written at interpreter exit, PID-guarded against forked pool workers.
"""

from __future__ import annotations

import atexit
import os
import sys
import threading

__all__ = [
    "PROFILE_ENV_VAR",
    "PROFILER",
    "SamplingProfiler",
    "disable_profiling",
    "enable_profiling",
    "flush_profile",
    "maybe_enable_profiling_from_env",
    "profile_tag",
]

#: Set to a file path to capture a collapsed-stack profile of the process.
PROFILE_ENV_VAR = "REPRO_PROFILE"

#: Frames deeper than this are truncated (defensive: recursive stacks).
MAX_DEPTH = 128

#: ``thread ident -> attribution label`` used by :func:`profile_tag`.
_TAGS: dict[int, str] = {}


class profile_tag:
    """Attribute the current thread's samples to ``tag`` inside the block.

    Re-entrant per thread (the previous tag is restored on exit), so nested
    scopes refine rather than clobber the attribution.
    """

    __slots__ = ("tag", "_ident", "_previous")

    def __init__(self, tag: str) -> None:
        self.tag = tag

    def __enter__(self) -> "profile_tag":
        self._ident = threading.get_ident()
        self._previous = _TAGS.get(self._ident)
        _TAGS[self._ident] = self.tag
        return self

    def __exit__(self, *exc) -> bool:
        if self._previous is None:
            _TAGS.pop(self._ident, None)
        else:
            _TAGS[self._ident] = self._previous
        return False


class SamplingProfiler:
    """Periodic whole-process stack sampler (one module-level instance:
    :data:`PROFILER`)."""

    def __init__(self, interval: float = 0.01) -> None:
        if interval <= 0:
            raise ValueError("sampling interval must be positive")
        self.interval = interval
        self._counts: dict[str, int] = {}
        self._samples = 0
        self._lost = 0
        self._lock = threading.Lock()
        self._stop_event: threading.Event | None = None
        self._thread: threading.Thread | None = None

    @property
    def running(self) -> bool:
        return self._thread is not None and self._thread.is_alive()

    @property
    def sample_count(self) -> int:
        """Sampler wakeups so far (each snapshots every live thread)."""
        return self._samples

    @property
    def lost_samples(self) -> int:
        """Sampler wakeups whose sample raised; the sampler went on after each."""
        return self._lost

    # -- lifecycle -------------------------------------------------------------
    def start(self) -> None:
        """Start the sampling thread (idempotent while running)."""
        if self.running:
            return
        self._stop_event = threading.Event()
        self._thread = threading.Thread(
            target=self._run, name="repro-profiler", daemon=True
        )
        self._thread.start()

    def stop(self) -> None:
        """Stop sampling; captured counts stay readable until :meth:`reset`."""
        if self._thread is None:
            return
        if self._stop_event is not None:
            self._stop_event.set()
        self._thread.join(timeout=5)
        self._thread = None
        self._stop_event = None

    def reset(self) -> None:
        """Drop every captured sample."""
        with self._lock:
            self._counts = {}
            self._samples = 0
            self._lost = 0

    # -- sampling --------------------------------------------------------------
    def _run(self) -> None:
        stop = self._stop_event
        while not stop.wait(self.interval):
            try:
                self.sample_once()
            except Exception:  # noqa: BLE001 - one lost sample must not end sampling
                with self._lock:
                    self._lost += 1

    def sample_once(self) -> None:
        """Take one sample of every thread (public for deterministic tests)."""
        own = threading.get_ident()
        frames = sys._current_frames()
        with self._lock:
            self._samples += 1
            for ident, frame in frames.items():
                if ident == own:
                    continue
                parts = []
                depth = 0
                # Another thread's stack can change under the walk; stop at
                # anything that is not a frame (seen: a function object).
                while hasattr(frame, "f_code") and depth < MAX_DEPTH:
                    module = frame.f_globals.get("__name__", "?")
                    parts.append("%s.%s" % (module, frame.f_code.co_name))
                    frame = frame.f_back
                    depth += 1
                parts.reverse()
                tag = _TAGS.get(ident)
                if tag is not None:
                    parts.insert(0, tag)
                key = ";".join(parts) if parts else "(idle)"
                self._counts[key] = self._counts.get(key, 0) + 1

    # -- output ----------------------------------------------------------------
    def collapsed(self) -> list[str]:
        """``"frame;frame;frame count"`` lines, heaviest stacks first."""
        with self._lock:
            items = sorted(self._counts.items(), key=lambda item: (-item[1], item[0]))
        return ["%s %d" % (stack, count) for stack, count in items]

    def write_collapsed(self, path: str) -> None:
        """Write :meth:`collapsed` output to ``path`` (flamegraph.pl input)."""
        with open(path, "w") as handle:
            for line in self.collapsed():
                handle.write(line + "\n")


#: The process-wide profiler the enable/disable helpers drive.
PROFILER = SamplingProfiler()

_profile_path: str | None = None
_flush_registered = False
_flush_pid: int | None = None


def enable_profiling(path: str | None = None, interval: float | None = None) -> None:
    """Start stack sampling; with ``path``, write the collapsed profile at exit.

    Idempotent — re-enabling updates the output path / interval without
    dropping samples already captured.
    """
    global _profile_path, _flush_registered, _flush_pid
    if interval is not None:
        PROFILER.interval = interval
    if path is not None:
        _profile_path = path
        if not _flush_registered:
            _flush_registered = True
            _flush_pid = os.getpid()
            atexit.register(flush_profile)
    PROFILER.start()


def disable_profiling() -> None:
    """Stop the sampling thread (captured counts stay readable)."""
    PROFILER.stop()


def maybe_enable_profiling_from_env() -> None:
    """Enable profiling if :data:`PROFILE_ENV_VAR` names an output path.

    A no-op when already running, so explicit flags win over the env.
    """
    if PROFILER.running:
        return
    path = os.environ.get(PROFILE_ENV_VAR)
    if path:
        enable_profiling(path)


def flush_profile() -> None:
    """Write the captured profile to the registered path (if any).

    PID-guarded: forked pool workers inherit the atexit hook but must never
    clobber the coordinator's profile.
    """
    if _profile_path is None or os.getpid() != _flush_pid:
        return
    PROFILER.write_collapsed(_profile_path)
