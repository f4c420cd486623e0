"""ntt_batch: the paper's own kernel at its word size.

One operation is a forward then inverse negacyclic NTT plan, run through
``backend.execute`` on a resident tensor of 16 rows of N = 2^14, one row
per 60-bit prime.  It touches only the ``backends`` layer: the NTT engines
and the wide-word (limb / float Shoup) arithmetic.
"""

from __future__ import annotations

import time

import numpy as np

from common import Spans, end_to_end, ntt_model, peak_rss_mb, print_ledger, timed_loop, trace_overhead

N = 1 << 14
ROWS = 16
PRIME_BITS = 60

KERNELS = {
    "execute": "backends.execute",
    "forward_ntt_batch": "backends.ntt_fwd",
    "inverse_ntt_batch": "backends.ntt_inv",
}


def _check_forward(backend, primes, rows, forward_rows) -> int:
    """Rows of ``forward_rows`` that differ from the scalar reference NTT.

    The reference is ``NegacyclicTransformer``, the big-int transform the
    scalar backend's radix2 engine runs.  It is built from the primitive 2N-th root the
    numpy engines use, read back as the forward image of the monomial ``x``
    (its first bit-reversed output) and checked to satisfy psi^N = -1.
    Deriving the root afresh would factor p - 1 by trial division, which
    takes tens of seconds for one of these primes.
    """
    from repro.transforms.cooley_tukey import NegacyclicTransformer

    monomial = [[0, 1] + [0] * (N - 2) for _ in primes]
    psis = [row[0] for row in backend.to_rows(
        backend.forward_ntt_batch(backend.from_rows(monomial, primes))
    )]
    bad = 0
    for p, psi, row, got in zip(primes, psis, rows, forward_rows):
        if pow(psi, N, p) != p - 1:
            bad += 1
            continue
        reference = NegacyclicTransformer(N, p, psi_2n=psi)
        if reference.forward([int(value) for value in row]) != got:
            bad += 1
    return bad


def run(seed: int, seconds: float, trace: bool, ready) -> dict:
    from repro.backends.ops import OpGraph
    from repro.backends.registry import build_backend
    from repro.modarith.primes import generate_ntt_primes

    started = time.perf_counter()
    primes = generate_ntt_primes(PRIME_BITS, ROWS, N)
    rng = np.random.default_rng(seed)
    rows = [rng.integers(0, p, size=N, dtype=np.uint64) for p in primes]
    rows[0] = np.full(N, primes[0] - 1, dtype=np.uint64)  # worst-case residues
    backend = build_backend("numpy")
    x = backend.from_rows(rows, primes)
    inputs_s = time.perf_counter() - started

    started = time.perf_counter()
    graph = OpGraph()
    forward = graph.forward_ntt(graph.input("x"))
    graph.output("forward", forward)
    graph.output("roundtrip", graph.inverse_ntt(forward))
    plan = graph.compile()
    compile_s = time.perf_counter() - started

    started = time.perf_counter()
    backend.warm_twiddles(N, primes)
    first = backend.execute(plan, {"x": x})  # races the engines for this shape
    twiddle_s = time.perf_counter() - started
    ready()

    spans = Spans() if trace else None
    if spans is not None:
        spans.wrap_methods(backend, KERNELS, ntt=("forward_ntt_batch", "inverse_ntt_batch"))
    conversions = backend.conversion_count
    fallbacks = backend.fallback_rows

    def op(_index):
        return backend.execute(plan, {"x": x})

    def check(_index, out) -> bool:
        return backend.tensor_equal(out["roundtrip"], x)

    latencies, done, traced, failed, wall = timed_loop(seconds, op, check, spans)
    conversions = backend.conversion_count - conversions
    fallbacks = backend.fallback_rows - fallbacks
    rss = peak_rss_mb()

    # Outside the window: the forward rows, bit for bit, against the
    # scalar reference (row 0 is the all-(p-1) row).
    mismatched = _check_forward(backend, primes, rows, backend.to_rows(first["forward"]))
    if mismatched:
        print("forward NTT differs from the scalar reference on %d rows" % mismatched)
    failed += 1 if mismatched else 0
    print("config: backend=%s engine_choices=%s" % (backend.name, backend.engine_choices))
    print("samples: %d ops in %.2f s" % (len(latencies), wall))

    result = {"attempted": len(latencies), "failed": failed}
    if spans is None:
        result["metrics"] = end_to_end(latencies, done, failed, rss)
        return result

    totals = spans.totals()
    per_op = lambda name, key="total": spans.per_op(totals, name, key)
    fwd_ms, inv_ms = per_op("backends.ntt_fwd") * 1e3, per_op("backends.ntt_inv") * 1e3
    ntt_rows = per_op("backends.ntt_fwd", "rows") + per_op("backends.ntt_inv", "rows")
    butterflies = ntt_rows * (N // 2) * (N.bit_length() - 1)
    spans.write("ntt_batch", seed)
    print_ledger("ntt_batch", [
        ("backends.execute (self)", per_op("backends.execute", "self") * 1e3),
        ("backends.ntt_fwd", fwd_ms),
        ("backends.ntt_inv", inv_ms),
        ("unattributed (op - execute)", (per_op("op") - per_op("backends.execute")) * 1e3),
    ])
    result["metrics"] = {
        "backends.execute_ms": per_op("backends.execute") * 1e3,
        "backends.dispatch_ms": per_op("backends.execute", "self") * 1e3,
        "backends.ntt_fwd_ms": fwd_ms,
        "backends.ntt_inv_ms": inv_ms,
        "backends.ntt_ms": fwd_ms + inv_ms,
        "backends.ns_per_butterfly": (fwd_ms + inv_ms) * 1e6 / butterflies,
        "backends.ntt_rows_per_op": ntt_rows,
        "backends.fallback_rows": fallbacks,
        "backends.conversion_rows": conversions,
        **ntt_model(N, ntt_rows),
        "setup.keygen_s": inputs_s,
        "setup.twiddle_autotune_s": twiddle_s,
        "setup.cold_compile_s": compile_s,
        "trace.overhead": trace_overhead(latencies, traced),
        "trace.traced_ops": spans.ops,
    }
    return result
