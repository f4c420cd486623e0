"""serve_mix: a real HTTP server process under a closed loop of clients.

The server (``server.py``) runs in its own process at N = 2048 with four
45-bit primes.  This process is the load: one asyncio loop keeping two
requests in flight (a closed loop over 2 connections: each sends its next
request when the previous answer arrives).  Requests mix
``multiply -> relinearize -> mod_switch`` and ``square -> relinearize`` 3:1
across two tenant seeds, so the server's plan and tenant caches and its
batching window see differing signatures.  This is the only workload that
exercises ``service`` and the wire codec (``core.serialization`` as used by
``service.client``); kernels are the smallest share of its time.
"""

from __future__ import annotations

import asyncio
import json
import random
import subprocess
import sys
import time
import types
from pathlib import Path

from common import Spans, end_to_end, ntt_model, peak_rss_mb, print_ledger, trace_overhead

HERE = Path(__file__).resolve().parent

CHAINS = {
    "mul": ("multiply", "relinearize", "mod_switch"),
    "square": ("square", "relinearize"),
}
MIX = ("mul", "mul", "mul", "square")
CONNECTIONS = 2
#: Encrypted inputs per tenant; requests draw their operands from these.
POOL = 4
STAGES = ("queue", "batch_wait", "execute", "serialize", "total")
COUNTERS = (
    "ntt.invocations", "plan.compiled", "plan.cache_hits", "plan.pool.hits",
    "plan.pool.misses", "fallback.rows", "conversions.rows",
)


def _params():
    from repro.he import HEParams

    return HEParams(n=2048, plaintext_modulus=65537, prime_bits=45, prime_count=4)


def _start_server():
    """Start the server process; returns ``(process, port, config line)``."""
    proc = subprocess.Popen(
        [sys.executable, str(HERE / "server.py")], stdout=subprocess.PIPE, text=True
    )
    config = ""
    for line in proc.stdout:
        if line.startswith("CONFIG "):
            config = line[len("CONFIG "):].strip()
        if line.startswith("PORT "):
            return proc, int(line.split()[1]), config
    proc.wait(timeout=30)
    raise RuntimeError("server exited with code %s before binding" % proc.returncode)


def _stop_server(proc) -> None:
    if proc.poll() is None:
        proc.terminate()
        try:
            proc.wait(timeout=20)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
    proc.stdout.close()


def _server_totals(snapshot: dict) -> dict:
    """Stage histogram sums/counts and counters, summed over tenants."""
    out = {"service.requests": snapshot["server"].get("service.requests", 0),
           "service.batches": snapshot["server"].get("service.batches", 0),
           "service.batched_requests": snapshot["server"].get("service.batched_requests", 0)}
    for tenant in snapshot["tenants"].values():
        for stage in STAGES:
            hist = tenant.get("service.latency.%s_seconds" % stage) or {"total": 0.0, "count": 0}
            out[stage + ".total"] = out.get(stage + ".total", 0.0) + hist["total"]
            out[stage + ".count"] = out.get(stage + ".count", 0) + hist["count"]
        for name in COUNTERS:
            out[name] = out.get(name, 0) + tenant.get(name, 0)
    return out


class _Tenant:
    """Client-side half of one tenant: keys, encrypted operand pool, and
    the plaintext slots each ciphertext holds."""

    def __init__(self, params, seed: int, backend, rng: random.Random) -> None:
        from repro.he import HeContext

        self.seed = seed
        self.context = HeContext.create(params, backend=backend, seed=seed)
        encoder = self.context.encoder()
        encryptor = self.context.encryptor(seed=seed + 1)
        t = params.plaintext_modulus
        self.slots = [[rng.randrange(t) for _ in range(encoder.slot_count)] for _ in range(POOL)]
        self.cts = [encryptor.encrypt(encoder.encode(values)) for values in self.slots]

    def operands(self, chain: str, a: int, b: int):
        return [self.cts[a], self.cts[b]] if chain == "mul" else [self.cts[a]]

    def expected(self, chain: str, a: int, b: int, t: int) -> list[int]:
        b = a if chain == "square" else b
        return [x * y % t for x, y in zip(self.slots[a], self.slots[b])]

    def decrypts_to(self, result, want) -> bool:
        decoded = self.context.encoder().decode(self.context.decryptor().decrypt(result))
        return decoded == want


def _verify(tenants, records, backend, t: int) -> int:
    """Failed results: each distinct request is decrypted once and checked
    against plaintext slot arithmetic; repeats must equal it bit for bit."""
    checked: dict = {}
    failed = 0
    for record in records:
        key, result = record["key"], record["result"]
        if result is None:
            continue
        tenant_index, chain, a, b = key
        if key not in checked:
            tenant = tenants[tenant_index]
            good = tenant.decrypts_to(result, tenant.expected(chain, a, b, t))
            checked[key] = (good, result)
        good, first = checked[key]
        same = result.level == first.level and len(result.polys) == len(first.polys) and all(
            backend.tensor_equal(x.tensor, y.tensor) for x, y in zip(result.polys, first.polys)
        )
        failed += not (good and same)
    return failed


def run(seed: int, seconds: float, trace: bool, ready) -> dict:
    return asyncio.run(_run(seed, seconds, trace, ready))


async def _run(seed: int, seconds: float, trace: bool, ready) -> dict:
    from repro.backends.registry import build_backend
    from repro.core.serialization import ciphertext_from_dict
    from repro.service import AsyncServiceClient
    from repro.service import client as client_module

    started = time.perf_counter()
    server, port, config = _start_server()
    try:
        server_start_s = time.perf_counter() - started
        params = _params()
        rng = random.Random(seed)
        started = time.perf_counter()
        backend = build_backend("numpy")
        tenants = [_Tenant(params, seed * 2 + k, backend, rng) for k in range(2)]
        keygen_s = time.perf_counter() - started
        client = AsyncServiceClient("127.0.0.1", port)
        decode = ciphertext_from_dict

        async def request(key):
            tenant_index, chain, a, b = key
            tenant = tenants[tenant_index]
            envelope = await client.compute_raw(
                params, CHAINS[chain], tenant.operands(chain, a, b), seed=tenant.seed
            )
            return decode(envelope["result"], backend=backend), envelope["batch_size"]

        # Warm-up, inside set-up: builds both tenants on the server,
        # compiles every chain alone and as a pair, seeds constant pools.
        started = time.perf_counter()
        for tenant_index in range(2):
            for chain in CHAINS:
                await request((tenant_index, chain, 0, 1))
                await asyncio.gather(*(request((tenant_index, chain, 0, 1)) for _ in range(2)))
        cold_s = time.perf_counter() - started
        before = _server_totals(await client.metrics())
        ready()

        spans = Spans() if trace else None
        wire = {"request": 0, "response": 0, "calls": 0}
        if spans is not None:
            _trace_client(spans, client_module, wire)
            client.compute_raw = spans.wrap_async("client.compute", client.compute_raw)
            decode = spans.wrap("client.decode", ciphertext_from_dict)
        traced_request = spans.wrap_async("op", request) if spans is not None else request
        records: list[dict] = []
        counter = iter(range(1 << 30))
        window_start = time.perf_counter()
        deadline = window_start + seconds

        async def connection(stream: random.Random) -> None:
            # The chains come in shuffled blocks of MIX, so every run and
            # seed holds the 3:1 ratio exactly, not just on average.
            block: list[str] = []
            while time.perf_counter() < deadline:
                index = next(counter)
                if not block:
                    block = list(MIX)
                    stream.shuffle(block)
                key = (stream.randrange(2), block.pop(), stream.randrange(POOL), stream.randrange(POOL))
                traced = spans is not None and index % 2 == 0
                record = {"key": key, "traced": traced, "result": None, "batch": 0}
                began = time.perf_counter()
                try:
                    if traced:
                        with spans.op(index):
                            record["result"], record["batch"] = await traced_request(key)
                    else:
                        record["result"], record["batch"] = await request(key)
                except Exception as exc:  # counted as a failed request
                    print("request %d failed: %s: %s" % (index, type(exc).__name__, exc))
                finished = time.perf_counter()
                record["latency"] = finished - began
                record["done"] = finished - window_start
                records.append(record)

        await asyncio.gather(*(
            connection(random.Random("%d:%d" % (seed, k))) for k in range(CONNECTIONS)
        ))
        wall = time.perf_counter() - window_start
        snapshot = await client.metrics()
        after = _server_totals(snapshot)
        health = await client.health()
        rss = peak_rss_mb(server.pid)
    finally:
        _stop_server(server)

    latencies = [record["latency"] for record in records]
    failed = _verify(tenants, records, backend, params.plaintext_modulus)
    failed += sum(record["result"] is None for record in records)
    delta = {name: after[name] - before[name] for name in after}
    engines = {key: tenant.get("ntt.engine_choices") for key, tenant in snapshot["tenants"].items()}
    print("config: server backend=%s tenants=%d %s engine_choices=%s"
          % (health["backend"], health["tenants"], config, engines))
    print("samples: %d requests in %.2f s over %d connections; %d rode in a batch of 2+"
          % (len(records), wall, CONNECTIONS, sum(r["batch"] > 1 for r in records)))

    result = {"attempted": len(records), "failed": failed}
    if spans is None:
        result["metrics"] = end_to_end(latencies, [r["done"] for r in records], failed, rss)
        return result

    totals = spans.totals()
    per_op = lambda name: spans.per_op(totals, name) * 1e3
    stage = {s: 1e3 * delta[s + ".total"] / max(delta[s + ".count"], 1) for s in STAGES}
    parts = stage["queue"] + stage["batch_wait"] + stage["execute"] + stage["serialize"]
    encode_ms, decode_ms = per_op("client.encode"), per_op("client.decode")
    outside = per_op("op") - stage["total"] - encode_ms - decode_ms
    pool = delta["plan.pool.hits"] + delta["plan.pool.misses"]
    plans = delta["plan.cache_hits"] + delta["plan.compiled"]
    spans.write("serve_mix", seed)
    print_ledger("serve_mix", [
        ("client.encode (to_dict + json.dumps)", encode_ms),
        ("client.decode (json.loads + from_dict)", decode_ms),
        ("server.queue", stage["queue"]),
        ("server.batch_wait", stage["batch_wait"]),
        ("server.execute", stage["execute"]),
        ("server.serialize", stage["serialize"]),
        ("server unattributed (total - stages)", stage["total"] - parts),
        ("outside server (wire, loop, scheduling)", outside),
    ])
    ntt_rows = delta["ntt.invocations"] / delta["service.requests"]
    result["metrics"] = {
        "backends.ntt_rows_per_op": ntt_rows,
        **ntt_model(params.n, ntt_rows),
        "backends.fallback_rows": delta["fallback.rows"],
        "backends.conversion_rows": delta["conversions.rows"],
        "he.plan_cache_hit_ratio": delta["plan.cache_hits"] / plans if plans else 0.0,
        "compiler.pool_hit_ratio": delta["plan.pool.hits"] / pool if pool else 0.0,
        "compiler.plans_compiled": delta["plan.compiled"],
        "setup.keygen_s": keygen_s,
        "setup.cold_compile_s": cold_s,
        "setup.server_start_s": server_start_s,
        "client.encode_ms": encode_ms,
        "client.decode_ms": decode_ms,
        "client.request_bytes": wire["request"] / max(wire["calls"], 1),
        "client.response_bytes": wire["response"] / max(wire["calls"], 1),
        "server.queue_ms": stage["queue"],
        "server.batch_wait_ms": stage["batch_wait"],
        "server.execute_ms": stage["execute"],
        "server.serialize_ms": stage["serialize"],
        "server.total_ms": stage["total"],
        "server.unattributed_ms": stage["total"] - parts,
        "serve.outside_server_ms": outside,
        "batching.batch_size_mean": delta["service.batched_requests"] / max(delta["service.batches"], 1),
        "batching.coalesced_share": sum(r["batch"] > 1 for r in records) / len(records),
        "trace.overhead": trace_overhead(latencies, [r["traced"] for r in records]),
        "trace.traced_ops": spans.ops,
    }
    return result


def _trace_client(spans: Spans, client_module, wire: dict) -> None:
    """Trace the wire codec as ``service.client`` calls it: ciphertext
    (de)serialisation plus the JSON encoding of request and response,
    counting the bytes each way (only traced requests reach the
    counters: the wrappers call through untouched outside a traced op)."""

    def dumps(payload):
        text = json.dumps(payload)
        wire["request"] += len(text)
        wire["calls"] += 1
        return text

    def loads(body):
        wire["response"] += len(body)
        return json.loads(body)

    client_module.ciphertext_to_dict = spans.wrap("client.encode", client_module.ciphertext_to_dict)
    client_module.json = types.SimpleNamespace(
        dumps=spans.wrap("client.encode", dumps, untraced=json.dumps),
        loads=spans.wrap("client.decode", loads, untraced=json.loads),
        JSONDecodeError=json.JSONDecodeError,
    )
