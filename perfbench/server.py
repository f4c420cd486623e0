"""The serve_mix server process: an ``HeServer`` on a port it binds itself.

Prints ``PORT <n>`` once listening, serves until SIGTERM (or until the
process that started it is gone), then shuts the server down.  Backend,
batching settings and optimiser passes are pinned here, not taken from the
environment.

    python3 perfbench/server.py
"""

from __future__ import annotations

import asyncio
import os
import signal

from repro.compiler import DEFAULT_PASSES, PassManager, set_default_passes
from repro.service import HeServer

BACKEND = "numpy"
MAX_BATCH = 8
BATCH_WINDOW_S = 0.005


async def _orphan_watch(stop: asyncio.Event, parent: int) -> None:
    """Stop once the starting process has exited, so a killed benchmark
    never leaves a server behind."""
    while not stop.is_set():
        if os.getppid() != parent:
            stop.set()
        await asyncio.sleep(0.5)


async def main() -> None:
    parent = os.getppid()
    set_default_passes(",".join(DEFAULT_PASSES))
    server = HeServer(backend=BACKEND, max_batch=MAX_BATCH, batch_window=BATCH_WINDOW_S)
    stop = asyncio.Event()
    asyncio.get_running_loop().add_signal_handler(signal.SIGTERM, stop.set)
    bound: list[int] = []
    serving = asyncio.create_task(server.serve("127.0.0.1", 0, stop=stop, bound=bound))
    watch = asyncio.create_task(_orphan_watch(stop, parent))
    while not bound and not serving.done():
        await asyncio.sleep(0.005)
    if bound:
        print("CONFIG backend=%s passes=%s max_batch=%d window_s=%g"
              % (BACKEND, ",".join(PassManager(None).passes), MAX_BATCH, BATCH_WINDOW_S))
        print("PORT %d" % bound[0], flush=True)
    try:
        await serving
    finally:
        stop.set()
        await watch


if __name__ == "__main__":
    asyncio.run(main())
