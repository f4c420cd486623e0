"""Exactness of the lazy (Harvey) wide-prime NTT sweeps and their multiply.

The radix-2 and high-radix engines run one sweep on wide primes
(``engines._ct_forward_wide`` / ``engines._gs_inverse_wide``): values stay
in ``[0, 4p)`` between stages, the short-stride stages run on a
``(batch, C, n/C)`` transpose, and one reduction at the end yields fully
reduced residues.  These tests pin that the output is still bit for bit
the scalar reference's:

* at every size from ``n = 1`` (no stage) and ``n = 2`` (no tail) to
  ``n = 2^14``, with odd and even ``log2 n`` so every head/tail split is
  exercised;
* on all-``(p - 1)`` rows in both domains, the inputs that drive the lazy
  bounds hardest;
* at the largest NTT prime below ``2^50`` (the float strategy's bound) and
  at primes just below ``2^62`` (the window's ceiling), under both forced
  ``REPRO_WIDE_STRATEGY`` values.

``wideops.shoup_mul_lazy`` is also checked directly: its result lies in
``[0, 2p)`` and is congruent to ``x * w`` at the extreme operands.
"""

from __future__ import annotations

import random
from functools import lru_cache

import numpy as np
import pytest

from repro.backends import wideops
from repro.backends.numpy_backend import NumpyBackend
from repro.backends.scalar import ScalarBackend
from repro.modarith.primes import generate_ntt_primes

SIZES = (1, 2, 4, 8, 64, 2048, 1 << 14)
# Primes congruent to 1 mod 2^15 serve every size above.
FLOAT_EDGE = generate_ntt_primes(50, 1, 1 << 14)[0]  # largest such prime below 2^50
TOP = tuple(generate_ntt_primes(62, 2, 1 << 14))  # just below 2^62
ENGINES = ("radix2", "high_radix:4")
STRATEGY_PRIMES = {
    "limb": (FLOAT_EDGE, TOP[0], TOP[1]),
    "float": (FLOAT_EDGE,),
}


def _rows(primes, n):
    """Two rows per prime: all ``p - 1``, then uniformly random residues."""
    batch = [p for p in primes for _ in range(2)]
    rng = random.Random(n)
    rows = []
    for index, p in enumerate(batch):
        worst = index % 2 == 0
        rows.append([p - 1] * n if worst else [rng.randrange(p) for _ in range(n)])
    return batch, rows


@lru_cache(maxsize=None)
def _reference(strategy, n, forward):
    """The scalar backend's transform of :func:`_rows` (computed once per case)."""
    batch, rows = _rows(STRATEGY_PRIMES[strategy], n)
    scalar = ScalarBackend()
    tensor = scalar.from_rows(rows, batch)
    out = scalar.forward_ntt_batch(tensor) if forward else scalar.inverse_ntt_batch(tensor)
    return out.to_rows()


def test_prime_choices_sit_at_the_strategy_bounds():
    assert FLOAT_EDGE < wideops.FLOAT_SHOUP_LIMIT <= 2 * FLOAT_EDGE
    assert all(wideops.WIDE_MUL_LIMIT // 2 < p < wideops.WIDE_MUL_LIMIT for p in TOP)


@pytest.mark.parametrize("engine", ENGINES)
@pytest.mark.parametrize("strategy", sorted(STRATEGY_PRIMES))
@pytest.mark.parametrize("n", SIZES)
def test_lazy_sweeps_match_scalar_in_both_domains(n, strategy, engine, monkeypatch):
    monkeypatch.setenv(wideops.STRATEGY_ENV_VAR, strategy)
    batch, rows = _rows(STRATEGY_PRIMES[strategy], n)
    backend = NumpyBackend(engine=engine)
    # The same rows serve as coefficient-domain input to the forward sweep
    # and as NTT-domain input to the inverse sweep.
    tensor = backend.from_rows(rows, batch)
    forward = backend.forward_ntt_batch(tensor)
    inverse = backend.inverse_ntt_batch(tensor)
    assert forward.to_rows() == _reference(strategy, n, True)
    assert inverse.to_rows() == _reference(strategy, n, False)
    assert backend.inverse_ntt_batch(forward).to_rows() == rows
    assert backend.fallback_rows == 0


def _check_lazy_products(xs, ws, p, strategy):
    bar = wideops.lazy_bar(np.asarray(ws, dtype=np.uint64), p, strategy)
    got = wideops.shoup_mul_lazy(
        np.asarray(xs, dtype=np.uint64)[:, None],
        np.asarray(ws, dtype=np.uint64)[None, :],
        tuple(part[None, :] for part in bar),
        np.uint64(p),
        strategy,
    )
    for i, x in enumerate(xs):
        for j, w in enumerate(ws):
            value = int(got[i, j])
            assert value < 2 * p, (x, w)
            assert value % p == x * w % p, (x, w)


@pytest.mark.parametrize("p", (FLOAT_EDGE,) + TOP)
def test_shoup_mul_lazy_limb_stays_below_2p_for_any_word(p):
    rng = random.Random(p)
    xs = [0, 1, 4 * p - 1, (1 << 64) - 1] + [rng.randrange(1 << 64) for _ in range(64)]
    ws = [0, 1, p - 1] + [rng.randrange(p) for _ in range(32)]
    _check_lazy_products(xs, ws, p, "limb")


def test_shoup_mul_lazy_float_stays_below_2p_for_x_below_4p():
    p = FLOAT_EDGE
    rng = random.Random(p)
    xs = [0, 1, p - 1, 2 * p - 1, 4 * p - 1] + [rng.randrange(4 * p) for _ in range(64)]
    ws = [0, 1, p - 1] + [rng.randrange(p) for _ in range(32)]
    _check_lazy_products(xs, ws, p, "float")


def test_lazy_companions_take_the_bytes_of_one_word_table():
    table = np.arange(1, 1025, dtype=np.uint64)
    lo, hi = wideops.lazy_bar(table, TOP[0], "limb")
    assert lo.dtype == hi.dtype == np.uint32
    assert lo.nbytes + hi.nbytes == wideops.shoup_bar(table, TOP[0]).nbytes
    full = wideops.shoup_bar(table, TOP[0])
    assert ((hi.astype(np.uint64) << np.uint64(32)) | lo).tolist() == full.tolist()
