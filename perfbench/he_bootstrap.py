"""he_bootstrap: the bootstrap-shaped circuit, in process, warm.

One operation is one ``bootstrap_circuit`` run (CoeffToSlot, one EvalMod
round, SlotToCoeff) at N = 4096 with four 45-bit primes.  The circuit is
built once per input over K seeded ciphertexts, so its plaintext
diagonals keep their identity across runs, as bootstrapping's
linear-transform constants do, and the compiler's constant pool serves
them.  It exercises ``he`` lowering, the ``compiler`` passes and pool, and
the ``backends`` plan interpreter on the float-Shoup path; it bypasses
``service``.
"""

from __future__ import annotations

import random
import time

from common import Spans, end_to_end, ntt_model, peak_rss_mb, print_ledger, timed_loop, trace_overhead

#: Distinct input ciphertexts (and circuits) the operations cycle over.
K = 4

#: Kernel methods traced, grouped by the ledger row they count towards.
KERNELS = {
    "execute": "backends.execute",
    "forward_ntt_batch": "backends.ntt_fwd",
    "inverse_ntt_batch": "backends.ntt_inv",
    "add": "backends.pointwise",
    "sub": "backends.pointwise",
    "neg": "backends.pointwise",
    "mul": "backends.pointwise",
    "scalar_mul": "backends.pointwise",
    "digit_broadcast": "backends.keyswitch",
    "mod_switch_drop_last": "backends.modswitch",
    "concat": "backends.structure",
    "slice_rows": "backends.structure",
    "copy": "backends.structure",
}


def _params():
    from repro.he import HEParams

    return HEParams(n=4096, plaintext_modulus=65537, prime_bits=45, prime_count=4)


def _circuits(context, pipeline, inputs, seed):
    from repro.he import bootstrap_circuit

    return [
        bootstrap_circuit(context, pipeline, ct, seed=seed * K + k)
        for k, ct in enumerate(inputs)
    ]


def _same(backend, a, b) -> bool:
    return (
        a.level == b.level
        and len(a.polys) == len(b.polys)
        and all(backend.tensor_equal(x.tensor, y.tensor) for x, y in zip(a.polys, b.polys))
    )


def run(seed: int, seconds: float, trace: bool, ready) -> dict:
    from repro.backends.registry import build_backend
    from repro.compiler import DEFAULT_PASSES, set_default_passes
    from repro.he import HeContext

    params = _params()
    rng = random.Random(seed)
    # Twiddle tables first, so key generation does not build them; the
    # autotuner races each NTT batch shape on first use, in the cold run.
    started = time.perf_counter()
    backend = build_backend("numpy")
    backend.warm_twiddles(params.n, params.make_basis().primes)
    twiddle_s = time.perf_counter() - started

    started = time.perf_counter()
    context = HeContext.create(params, backend=backend, seed=seed, warm=False)
    context.relinearization_key()
    encryptor = context.encryptor(seed=seed + 1)
    encoder = context.encoder()
    inputs = [
        encryptor.encrypt(encoder.encode([rng.randrange(params.plaintext_modulus) for _ in range(16)]))
        for _ in range(K)
    ]
    keygen_s = time.perf_counter() - started

    # Cold compile, constant-pool seeding and the autotuner's races.
    started = time.perf_counter()
    set_default_passes(",".join(DEFAULT_PASSES))
    pipeline = context.pipeline()
    circuits = _circuits(context, pipeline, inputs, seed)
    expected = [circuit.run() for circuit in circuits]
    cold_s = time.perf_counter() - started
    ready()

    spans = Spans() if trace else None
    runs = [circuit.run for circuit in circuits]
    if spans is not None:
        spans.wrap_methods(backend, KERNELS, ntt=("forward_ntt_batch", "inverse_ntt_batch"))
        runs = [spans.wrap("he.circuit", run_) for run_ in runs]
    before = context.metrics()

    def op(index):
        return runs[index % K]()

    def check(index, out) -> bool:
        return _same(backend, out, expected[index % K])

    latencies, done, traced, failed, wall = timed_loop(seconds, op, check, spans)
    delta = HeContext.metrics_diff(before, context.metrics())
    rss = peak_rss_mb()

    # Outside the window: the warm outputs, bit for bit, against raw
    # plans compiled with every optimiser pass off.
    set_default_passes("none")
    reference = [circuit.run() for circuit in _circuits(context, context.pipeline(), inputs, seed)]
    set_default_passes(None)
    mismatched = sum(not _same(backend, a, b) for a, b in zip(expected, reference))
    if mismatched:
        print("%d of %d circuits differ from the passes=none reference" % (mismatched, K))
    failed += 1 if mismatched else 0
    print("config: backend=%s passes=%s engine_choices=%s"
          % (backend.name, ",".join(pipeline.evaluator.passes), backend.engine_choices))
    print("samples: %d ops in %.2f s" % (len(latencies), wall))

    result = {"attempted": len(latencies), "failed": failed}
    if spans is None:
        result["metrics"] = end_to_end(latencies, done, failed, rss)
        return result

    ops = len(latencies)
    totals = spans.totals()
    per_op = lambda name, key="total": spans.per_op(totals, name, key)
    ms = {name: per_op(name) * 1e3 for name in set(KERNELS.values()) | {"he.circuit"}}
    ntt_ms = ms["backends.ntt_fwd"] + ms["backends.ntt_inv"]
    traced_rows = per_op("backends.ntt_fwd", "rows") + per_op("backends.ntt_inv", "rows")
    butterflies = traced_rows * (params.n // 2) * (params.n.bit_length() - 1)
    ntt_rows = delta["ntt.invocations"] / ops
    pool = delta.get("plan.pool.hits", 0) + delta.get("plan.pool.misses", 0)
    plans = delta.get("plan.cache_hits", 0) + delta.get("plan.compiled", 0)
    dispatch_ms = per_op("backends.execute", "self") * 1e3
    spans.write("he_bootstrap", seed)
    print_ledger("he_bootstrap", [
        ("he.circuit (self: lowering, binding)", ms["he.circuit"] - ms["backends.execute"]),
        ("backends.execute (self: interpreter)", dispatch_ms),
        ("backends.ntt", ntt_ms),
        ("backends.pointwise", ms["backends.pointwise"]),
        ("backends.keyswitch (digit_broadcast)", ms["backends.keyswitch"]),
        ("backends.modswitch", ms["backends.modswitch"]),
        ("backends.structure (concat/slice/copy)", ms["backends.structure"]),
        ("unattributed (op - circuit)", (per_op("op") - per_op("he.circuit")) * 1e3),
    ])
    result["metrics"] = {
        "backends.execute_ms": ms["backends.execute"],
        "backends.dispatch_ms": dispatch_ms,
        "backends.ntt_fwd_ms": ms["backends.ntt_fwd"],
        "backends.ntt_inv_ms": ms["backends.ntt_inv"],
        "backends.ntt_ms": ntt_ms,
        "backends.pointwise_ms": ms["backends.pointwise"],
        "backends.keyswitch_ms": ms["backends.keyswitch"],
        "backends.modswitch_ms": ms["backends.modswitch"],
        "backends.structure_ms": ms["backends.structure"],
        "backends.ns_per_butterfly": ntt_ms * 1e6 / butterflies,
        "backends.ntt_rows_per_op": ntt_rows,
        "backends.fallback_rows": delta["fallback.rows"],
        "backends.conversion_rows": delta["conversions.rows"],
        **ntt_model(params.n, ntt_rows),
        "he.circuit_ms": ms["he.circuit"],
        "he.unattributed_ms": ms["he.circuit"] - ms["backends.execute"],
        "he.plan_cache_hit_ratio": delta.get("plan.cache_hits", 0) / plans,
        "compiler.pool_hit_ratio": delta.get("plan.pool.hits", 0) / pool if pool else 0.0,
        "compiler.plans_compiled": delta.get("plan.compiled", 0),
        "setup.keygen_s": keygen_s,
        "setup.twiddle_autotune_s": twiddle_s,
        "setup.cold_compile_s": cold_s,
        "trace.overhead": trace_overhead(latencies, traced),
        "trace.traced_ops": spans.ops,
    }
    return result
