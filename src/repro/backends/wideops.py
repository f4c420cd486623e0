"""Exact wide-word (31–62 bit) vectorised modular arithmetic primitives.

The paper characterises HE workloads at a native word size of ~60-bit RNS
primes, but a plain ``uint64`` product ``a * b`` is only exact when both
operands stay below ``2^32`` — which is why the array data plane historically
stopped at 30-bit primes and routed the paper's headline configurations
through the counted per-prime big-int fallback.  This module closes that gap
with two classic techniques, both exact for every modulus below ``2^62``
(matching the word contract of :mod:`repro.modarith.reducers`, whose scalar
:class:`~repro.modarith.reducers.ShoupModMul` /
:class:`~repro.modarith.reducers.BarrettModMul` are the reference these
kernels are cross-checked against):

* **32-bit limb decomposition** — :func:`mul_hi` computes the high 64 bits of
  a ``64x64`` product with four schoolbook limb products and uint64 carry
  propagation (NumPy multiplication wraps mod ``2^64``, so the low half is
  free).  :func:`shoup_mul` then performs Shoup's reduction against a
  precomputed companion ``w_bar = floor(w * 2^64 / p)``: the estimated
  quotient ``q = mul_hi(x, w_bar)`` is off by at most one, so
  ``x*w - q*p`` (computed wrapped) lies in ``[0, 2p)`` and one conditional
  subtraction finishes the job — for *any* ``x < 2^64``, not just reduced
  operands.
* **float64 two-product quotient** — for ``p < 2^50`` and a reduced
  multiplicand ``x < p``, the quotient ``floor(x * w / p)`` can be estimated
  as ``trunc(x_f * (w / p))`` in double precision: the relative error of the
  two roundings is below ``2^-52`` and ``x*w/p < 2^50``, so the absolute
  error stays under ``0.5`` and the estimate is within ±1 of the true
  quotient.  The ±1 ambiguity is resolved branch-free in uint64 (a negative
  remainder wraps above ``2^63``; an overshoot is one conditional
  subtraction).  This is the FMA-style trick hardware NTT kernels use for
  Shoup twiddle products, and on primes it covers it needs ~3 array ops per
  element instead of the limb path's ~10.

Both kernels also come in a **lazy** flavour, :func:`shoup_mul_lazy`, for
the NTT sweeps that keep values in ``[0, 4p)`` between stages (Harvey,
*Faster arithmetic for number-theoretic transforms*, J. Symb. Comp. 2014).
It returns the product in ``[0, 2p)`` and saves work on both sides:

* *limb* — the quotient estimate keeps only three of :func:`mul_hi`'s four
  limb products, ``x_hi*b_hi + (x_hi*b_lo >> 32) + (x_lo*b_hi >> 32)``, with
  no carry propagation.  The dropped terms — the high half of
  ``x_lo*b_lo`` and the low halves of the two cross products, all in the
  ``2^32`` column — are each below ``2^32``, so together they carry at
  most 2 into the high word: the estimate is at most 2 below
  ``mul_hi(x, w_bar)``, which is itself at most 1 below the true quotient.
  The wrapped remainder therefore lies in ``[0, 4p)`` (below ``2^64`` for
  ``p < 2^62``) and one ``min(r, r - 2p)`` brings it to ``[0, 2p)``.  The
  companion is stored pre-split into its 32-bit halves (:func:`lazy_bar`),
  the same bytes as one ``uint64`` table.  Valid for any ``x < 2^64``.
* *float* — the float kernel without its final conditional subtraction.
  For ``x < 4p`` and ``p < 2^50`` the exact quotient ``x*w/p`` is below
  ``4p <= 2^52 - 4``; the two roundings (``w/p`` and the product, each a
  relative error of at most ``2^-53``) move it by less than
  ``(2^52 - 4) * 2^-52 < 1``, so the truncated estimate is within ±1 of the
  true quotient.  An overshoot wraps negative and is added back
  (``min(r, r + p)``), an undershoot leaves ``r`` in ``[p, 2p)``.

Strategy selection is per prime size (:func:`select_strategy`): float below
``2^50``, limbs above — overridable with ``REPRO_WIDE_STRATEGY`` for tests
and experiments.  The widened window itself can be disabled with
``REPRO_WIDE_WORD=0``, restoring the historical 30-bit gate (the benchmark
suite uses this to time the wide path against the big-int fallback it
replaced).
"""

from __future__ import annotations

import os
from functools import lru_cache

import numpy as np

from ..modarith.roots import root_powers

__all__ = [
    "NARROW_MUL_LIMIT",
    "WIDE_MUL_LIMIT",
    "FLOAT_SHOUP_LIMIT",
    "WIDE_ENV_VAR",
    "STRATEGY_ENV_VAR",
    "wide_word_enabled",
    "vector_mul_limit",
    "select_strategy",
    "mul_hi",
    "shoup_bar",
    "float_bar",
    "shoup_mul",
    "shoup_mul_limb",
    "shoup_mul_float",
    "lazy_bar",
    "shoup_mul_lazy",
    "mulmod",
    "power_table",
    "scalar_mulmod",
]

#: Exclusive modulus bound of the single-word window: below this a plain
#: ``uint64`` product of two reduced residues cannot overflow.
NARROW_MUL_LIMIT = 1 << 31
#: Exclusive modulus bound of the wide window: Shoup/limb reduction needs the
#: in-flight value ``x*w - q*p`` to stay below ``2^63`` (i.e. ``2p < 2^63``),
#: which matches the ``p < word/4`` contract of ``repro.modarith.reducers``.
WIDE_MUL_LIMIT = 1 << 62
#: Exclusive modulus bound of the float64 quotient strategy: ``x*w/p`` must
#: stay far enough below ``2^53`` that two roundings keep the absolute
#: quotient error under 1/2.
FLOAT_SHOUP_LIMIT = 1 << 50

#: Set to ``0``/``off``/``narrow`` to restore the historical 30-bit window
#: (benchmarks use this to time wide vs big-int fallback).
WIDE_ENV_VAR = "REPRO_WIDE_WORD"
#: Force the wide-mul strategy to ``limb`` or ``float`` regardless of prime
#: size (``float`` is rejected for primes at or above 2^50 — it would be
#: inexact there).
STRATEGY_ENV_VAR = "REPRO_WIDE_STRATEGY"

_SHIFT32 = np.uint64(32)
_MASK32 = np.uint64(0xFFFFFFFF)
_SIGN_BIT = np.uint64(1) << np.uint64(63)


def wide_word_enabled() -> bool:
    """Whether the widened (≤ 62-bit) vectorised window is active.

    Read from the environment at call time so pool workers — which inherit
    the parent's environment at fork — observe the same window as the
    coordinator, and so tests/benchmarks can flip regimes per backend
    instance without rebuilding the process.
    """
    return os.environ.get(WIDE_ENV_VAR, "").lower() not in ("0", "off", "narrow", "false")


def vector_mul_limit() -> int:
    """Exclusive modulus bound of the exact vectorised product path."""
    return WIDE_MUL_LIMIT if wide_word_enabled() else NARROW_MUL_LIMIT


def select_strategy(p: int) -> str:
    """The wide-mul strategy (``"limb"`` or ``"float"``) for modulus ``p``."""
    forced = os.environ.get(STRATEGY_ENV_VAR, "").lower() or None
    if forced is not None:
        if forced not in ("limb", "float"):
            raise ValueError(
                "%s must be 'limb' or 'float', got %r" % (STRATEGY_ENV_VAR, forced)
            )
        if forced == "float" and p >= FLOAT_SHOUP_LIMIT:
            raise ValueError(
                "the float wide-mul strategy is exact only below 2^50; "
                "p has %d bits" % p.bit_length()
            )
        return forced
    return "float" if p < FLOAT_SHOUP_LIMIT else "limb"


def _cond_sub(x, p64):
    """``x mod p`` for ``x < 2p`` without division: ``min(x, x - p)`` in uint64."""
    return np.minimum(x, x - p64)


def mul_hi(a, b):
    """High 64 bits of the ``64x64 -> 128`` product, via 32-bit limbs.

    Schoolbook ``2x2`` limb products with explicit carry propagation; every
    intermediate fits uint64 (the cross sum is at most
    ``2*(2^32 - 1) + (2^32 - 1)^2 < 2^64``).  Broadcasts like ``a * b``.
    """
    a_lo = a & _MASK32
    a_hi = a >> _SHIFT32
    b_lo = b & _MASK32
    b_hi = b >> _SHIFT32
    lo_lo = a_lo * b_lo
    hi_lo = a_hi * b_lo
    cross = (lo_lo >> _SHIFT32) + (hi_lo & _MASK32) + a_lo * b_hi
    return a_hi * b_hi + (hi_lo >> _SHIFT32) + (cross >> _SHIFT32)


def shoup_bar(constants, p: int):
    """Shoup companions ``floor(w * 2^64 / p)`` for a table of reduced constants.

    Exact and vectorised for every ``p < 2^62``, returned as uint64 with the
    input's shape (each companion fits: ``w < p`` implies
    ``w * 2^64 / p < 2^64``).  With ``2^64 = v*p + c`` (``c = 2^64 mod p``)
    the companion splits as ``w*v + floor(w*c / p)``; the second term is a
    Shoup quotient against ``c``'s own companion — :func:`mul_hi` estimates
    it at most one low, and the wrapped remainder ``w*c - q*p`` in
    ``[0, 2p)`` says whether to add the one back.  The sum is below ``2^64``,
    so the wrapping uint64 arithmetic is exact.
    """
    table = np.asarray(constants, dtype=np.uint64)
    p64 = np.uint64(p)
    c, c_bar = _radix_constants(p)
    q = mul_hi(table, c_bar)
    q += (table * c - q * p64 >= p64).astype(np.uint64)
    return table * np.uint64((1 << 64) // p) + q


def float_bar(constants, p: int):
    """Float64 companions ``w / p`` for the float quotient strategy."""
    if p >= FLOAT_SHOUP_LIMIT:  # pragma: no cover - guarded by select_strategy
        raise ValueError("float companions are exact only below 2^50")
    return np.asarray(constants, dtype=np.uint64).astype(np.float64) / np.float64(p)


def shoup_mul_limb(x, w, w_bar, p64):
    """``(x * w) mod p`` with a precomputed ``w_bar = floor(w * 2^64 / p)``.

    Exact for any ``x < 2^64`` and reduced ``w < p < 2^62``: the quotient
    estimate ``q = mul_hi(x, w_bar)`` is at most one below the true
    quotient, so the wrapped remainder lies in ``[0, 2p) < 2^63`` and one
    conditional subtraction fully reduces it.
    """
    q = mul_hi(x, w_bar)
    r = x * w - q * p64
    return _cond_sub(r, p64)


def shoup_mul_float(x, w, w_over_p, p64):
    """``(x * w) mod p`` via the float64 quotient ``trunc(x * (w/p))``.

    Requires a *reduced* multiplicand ``x < p`` and ``p < 2^50``: then the
    double-precision quotient estimate is within ±1 of the truth, and the
    two corrections below (a wrapped-negative add-back and one conditional
    subtraction) are unambiguous in uint64.
    """
    q = (x.astype(np.float64) * w_over_p).astype(np.uint64)
    r = x * w - q * p64
    r = np.where(r & _SIGN_BIT, r + p64, r)
    return _cond_sub(r, p64)


def shoup_mul(x, w, bar, p64, strategy: str):
    """Strategy-dispatching twiddle product (see :func:`select_strategy`)."""
    if strategy == "float":
        return shoup_mul_float(x, w, bar, p64)
    return shoup_mul_limb(x, w, bar, p64)


def lazy_bar(constants, p: int, strategy: str) -> tuple:
    """Companions of a table of reduced constants for :func:`shoup_mul_lazy`.

    *limb*: ``(lo, hi)``, the 32-bit halves of ``floor(w * 2^64 / p)`` as
    ``uint32`` arrays (together the size of one ``uint64`` companion table);
    *float*: ``(w / p,)`` as float64.
    """
    if strategy == "float":
        return (float_bar(constants, p),)
    bar = shoup_bar(constants, p)
    return (bar & _MASK32).astype(np.uint32), (bar >> _SHIFT32).astype(np.uint32)


def shoup_mul_lazy(x, w, bar, p64, strategy: str, out=None, scratch=None):
    """``(x * w) mod p`` up to one ``p``: the result lies in ``[0, 2p)``.

    ``bar`` comes from :func:`lazy_bar` for the same ``strategy``.  Exact
    (see the module docstring) for any ``x < 2^64`` with *limb* and for
    ``x < 4p`` with *float* (``p < 2^50``).  ``out`` and ``scratch`` are
    optional ``uint64`` buffers of the broadcast shape, neither aliasing
    ``x``; the NTT sweeps pass a per-sweep workspace so no stage allocates.
    """
    if out is None:
        out = np.empty(np.broadcast_shapes(np.shape(x), np.shape(w)), dtype=np.uint64)
    if scratch is None:
        scratch = np.empty_like(out)
    if strategy == "float":
        (w_over_p,) = bar
        quotient = scratch.view(np.float64)
        np.multiply(x, w_over_p, out=quotient)
        np.copyto(out, quotient, casting="unsafe")  # truncates: q within ±1
        np.multiply(out, p64, out=out)
        np.multiply(x, w, out=scratch)
        np.subtract(scratch, out, out=scratch)  # in [-p, 2p) as a signed value
        np.add(scratch, p64, out=out)  # the add-back wins the min only if negative
        return np.minimum(scratch, out, out=out)
    bar_lo, bar_hi = bar
    np.right_shift(x, _SHIFT32, out=scratch)
    np.multiply(scratch, bar_hi, out=out)
    np.multiply(scratch, bar_lo, out=scratch)
    np.right_shift(scratch, _SHIFT32, out=scratch)
    np.add(out, scratch, out=out)
    np.bitwise_and(x, _MASK32, out=scratch)
    np.multiply(scratch, bar_hi, out=scratch)
    np.right_shift(scratch, _SHIFT32, out=scratch)
    np.add(out, scratch, out=out)  # quotient estimate, at most 3 low
    np.multiply(out, p64, out=out)
    np.multiply(x, w, out=scratch)
    np.subtract(scratch, out, out=scratch)  # r in [0, 4p)
    np.subtract(scratch, p64 + p64, out=out)
    return np.minimum(scratch, out, out=out)


@lru_cache(maxsize=None)
def _radix_constants(p: int) -> tuple[np.uint64, np.uint64]:
    """``c = 2^64 mod p`` and its Shoup companion (pure function of ``p``)."""
    c = (1 << 64) % p
    return np.uint64(c), np.uint64((c << 64) // p)


def mulmod(a, b, p: int):
    """Exact element-wise ``(a * b) mod p`` for reduced uint64 operands.

    The full 128-bit product is split as ``hi * 2^64 + lo``; the high half is
    folded in as ``(hi * (2^64 mod p)) mod p`` via limb Shoup (valid for an
    *arbitrary* hi), the low half reduces natively, and their sum needs one
    conditional subtraction.  Exact for every ``p < 2^62``.
    """
    p64 = np.uint64(p)
    c, c_bar = _radix_constants(p)
    folded = shoup_mul_limb(mul_hi(a, b), c, c_bar, p64)
    return _cond_sub(folded + (a * b) % p64, p64)


def power_table(base: int, count: int, p: int, scale: int = 1):
    """``[scale * base^e mod p for e < count]`` as a uint64 array, ``p < 2^62``.

    Built with the on-the-fly twiddling factorisation of Section VII,
    ``base^e = high[e // B] * low[e % B]`` with ``B ~ sqrt(count)``: two
    ``sqrt(count)``-sized Python-int tables (``scale`` folded into the high
    one) and one exact :func:`mulmod` outer product, instead of ``count``
    sequential big-int multiplications.  The values are exactly the
    per-element powers.
    """
    width = 1 << ((max(count, 1) - 1).bit_length() + 1) // 2
    low = root_powers(base, width, p)
    strides = root_powers(pow(base, width, p), -(-count // width), p)
    high = [scale * power % p for power in strides]
    outer = mulmod(
        np.asarray(high, dtype=np.uint64)[:, None], np.asarray(low, dtype=np.uint64)[None, :], p
    )
    return outer.ravel()[:count]


def scalar_mulmod(x, scalar: int, p: int):
    """Exact ``(x * scalar) mod p`` for one Python-int scalar, ``p < 2^62``.

    The Shoup companion is derived per call with one big-int division —
    negligible against the array work — so arbitrary (e.g. plaintext)
    scalars need no cache.  Valid for any ``x < 2^64``.
    """
    w = scalar % p
    return shoup_mul_limb(x, np.uint64(w), np.uint64((w << 64) // p), np.uint64(p))
