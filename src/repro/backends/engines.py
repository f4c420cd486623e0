"""The pluggable NTT-engine layer: the paper's algorithm zoo inside the backends.

The source paper is a study of *NTT algorithm variants* — radix-2 vs
high-radix butterflies, the two-kernel (four-step) decomposition, Stockham's
auto-sort formulation — yet until this layer existed the fast data plane
hardwired a single radix-2 Cooley-Tukey path while the variants lived in
scalar-only teaching code under :mod:`repro.transforms`.  An
:class:`NttEngine` folds each variant into the backends so the *production*
transform path is the thing the experiments measure:

* every engine operates on whole resident batches — a ``(batch, n)``
  ``uint64`` block on the NumPy backend, a list of residue rows on the
  scalar backend — and the scalar side delegates to the reference
  implementations in :mod:`repro.transforms`, which stay the readable
  ground truth;
* every engine is **bit-for-bit interchangeable**: forward output in the
  bit-reversed order of Algorithm 1 (engines whose natural formulation is
  auto-sorting re-permute with one cached gather), inverse consuming
  bit-reversed input — so NTT-domain data can flow between engines freely
  and the cross-check suite pins them all against
  :mod:`repro.transforms.reference`;
* engines are chosen **per transform shape** ``(n, p_bits, batch)`` with the
  precedence *explicit backend argument > process default
  (:func:`set_default_engine`) > ``REPRO_NTT_ENGINE`` environment variable >
  auto-tuner*, where :class:`NttAutoTuner` micro-benchmarks the candidates
  once per shape and the backend caches the winner.

Why the vectorised variants win on a CPU: the radix-2 baseline reduces every
butterfly output with a hardware-division ``%``.  The high-radix, four-step
and Stockham engines only divide after twiddle *products*; the add/sub halves
of each butterfly use the branch-free conditional subtraction
``min(x, x - p)`` (exact for ``x < 2p`` in ``uint64``, where the wrapped
``x - p`` is huge whenever ``x < p``) — the software analogue of the lazy
reductions the paper's fused passes legitimise, and the measured source of
the speedup ``benchmarks/test_bench_engines.py`` pins.
"""

from __future__ import annotations

import abc
import json
import os
import time
from collections.abc import Callable, Sequence
from pathlib import Path

try:  # The array paths need NumPy; the scalar row paths never touch it.
    import numpy as np
except ImportError:  # pragma: no cover - exercised only without numpy
    np = None

from ..modarith.modops import inv_mod
from ..telemetry import TRACER
from ..modarith.roots import primitive_root_of_unity
from ..transforms.bitrev import (
    bit_reverse_index_array,
    bit_reverse_permute,
    is_power_of_two,
)
from ..transforms.cooley_tukey import NegacyclicTransformer
from ..transforms.four_step import (
    default_split,
    four_step_negacyclic_intt,
    four_step_negacyclic_ntt,
)
from ..transforms.high_radix import ntt_forward_by_passes, plan_stage_groups
from ..transforms.stockham import stockham_ntt_forward, stockham_ntt_inverse
from . import wideops
from .wideops import (
    FLOAT_SHOUP_LIMIT,
    NARROW_MUL_LIMIT,
    WIDE_ENV_VAR,
    WIDE_MUL_LIMIT,
    vector_mul_limit,
    wide_word_enabled,
)

__all__ = [
    "ENGINE_ENV_VAR",
    "NARROW_MUL_LIMIT",
    "WIDE_MUL_LIMIT",
    "FLOAT_SHOUP_LIMIT",
    "WIDE_ENV_VAR",
    "vector_mul_limit",
    "wide_word_enabled",
    "TUNE_PROFILE_ENV_VAR",
    "DEFAULT_AUTOTUNE_CANDIDATES",
    "NttEngine",
    "EngineTables",
    "NttAutoTuner",
    "EngineSelectionMixin",
    "available_engines",
    "default_engine_spec",
    "get_engine",
    "parse_engine_spec",
    "register_engine",
    "set_default_engine",
    "tune_profile_to_dict",
    "save_tune_profile",
    "load_tune_profile",
]

#: Environment variable selecting an engine when no explicit choice is made.
ENGINE_ENV_VAR = "REPRO_NTT_ENGINE"

#: Environment variable naming a JSON autotune profile (written by
#: :func:`save_tune_profile`) pre-loaded into every newly constructed
#: backend — including the long-lived inner backends of the parallel
#: backend's worker processes, which inherit the environment and would
#: otherwise each race the autotuner per shape on first touch.
TUNE_PROFILE_ENV_VAR = "REPRO_TUNE_PROFILE"

#: Engine specs the auto-tuner races when nothing picked an engine.
DEFAULT_AUTOTUNE_CANDIDATES = ("radix2", "high_radix", "stockham")


# --------------------------------------------------------------------- tables


def _stage_tables(omega_powers) -> list:
    """Per-stage twiddle arrays of the cyclic Stockham sweep (span n down to 2).

    ``omega_powers`` holds the ``n`` powers of a primitive ``n``-th root
    ``omega``.  The stage of span ``s`` multiplies by ``(omega^(n/s))^j`` for
    ``j < s/2``: a strided slice of those powers.
    """
    n = len(omega_powers)
    half = omega_powers[: n // 2]
    tables = []
    span = n
    while span > 1:
        tables.append(half[:: n // span].copy())
        span //= 2
    return tables


class _FourStepTables:
    """Twiddle material for one ``n = n1 * n2`` four-step split.

    The stage of span ``s`` of the inner (``n1``-point, root ``omega^n2``)
    and outer (``n2``-point, root ``omega^n1``) sweeps multiplies by powers
    of ``omega^(n/s)`` — the same table as the span-``s`` stage of the full
    ``n``-point Stockham sweep — so both kernels share the tail of those
    stage arrays.  Only the ``n2 x n1`` twist ``omega^(j2 * k1)`` is the
    bundle's own, gathered from the ``n`` powers of ``omega``.
    """

    __slots__ = ("n1", "n2", "inner_f", "outer_f", "inner_i", "outer_i", "twist_f", "twist_i")

    def __init__(self, tables: "EngineTables", n1: int) -> None:
        n = tables.n
        self.n1 = n1
        self.n2 = n // n1
        inner_stages = n1.bit_length() - 1
        outer_stages = self.n2.bit_length() - 1
        forward = tables.stockham_stages(inverse=False)
        inverse = tables.stockham_stages(inverse=True)
        self.inner_f = forward[len(forward) - inner_stages :]
        self.outer_f = forward[len(forward) - outer_stages :]
        self.inner_i = inverse[len(inverse) - inner_stages :]
        self.outer_i = inverse[len(inverse) - outer_stages :]
        exponents = (np.arange(self.n2)[:, None] * np.arange(n1)[None, :]) % n
        self.twist_f = tables.omega_powers(inverse=False)[exponents]
        self.twist_i = tables.omega_powers(inverse=True)[exponents]


class EngineTables:
    """Lazily built per-``(n, p)`` twiddle material shared by every engine.

    One instance lives on the owning backend per ``(n, p)`` pair (``p`` below
    the vector unit's exact-product window), so switching engines never
    rebuilds the tables another engine already paid for.  Only the
    Cooley-Tukey tables are built eagerly — they are what
    :meth:`repro.backends.base.ComputeBackend.warm_twiddles` warms and what
    the default engine needs; the Stockham/four-step extras appear on first
    use.  Every power table goes through :func:`repro.backends.wideops.power_table`
    (the on-the-fly twiddling factorisation, vectorised) and is bit-for-bit
    the per-element table of :mod:`repro.transforms`.

    Moduli at or above the single-word window (``p >= 2^31``) flip the
    ``wide`` flag: every twiddle product then runs through a Shoup-style
    kernel from :mod:`repro.backends.wideops` (limb decomposition or the
    float64 quotient trick, selected per prime size), against lazily built
    per-table companion arrays cached in ``_companions``.
    """

    __slots__ = (
        "n", "p", "p64", "psi", "psi_inv", "n_inv64", "ct_forward", "ct_inverse",
        "_psi_powers", "_psi_inv_scaled", "_stockham_f", "_stockham_i",
        "_four_step", "wide", "wide_strategy", "_companions", "_n_inv_table",
    )

    def __init__(self, n: int, p: int, psi_2n: int | None = None) -> None:
        if not is_power_of_two(n):
            raise ValueError("n must be a power of two")
        if (p - 1) % (2 * n) != 0:
            raise ValueError("p must satisfy p ≡ 1 (mod 2n)")
        self.n = n
        self.p = p
        self.p64 = np.uint64(p)
        self.psi = psi_2n if psi_2n is not None else primitive_root_of_unity(2 * n, p)
        self.psi_inv = inv_mod(self.psi, p)
        self.n_inv64 = np.uint64(inv_mod(n, p))
        self.ct_forward = wideops.power_table(self.psi, n, p)[self.bitrev]
        self.ct_inverse = wideops.power_table(self.psi_inv, n, p)[self.bitrev]
        self._psi_powers = None
        self._psi_inv_scaled = None
        self._stockham_f = None
        self._stockham_i = None
        self._four_step: dict[int, _FourStepTables] = {}
        self.wide = p >= NARROW_MUL_LIMIT
        self.wide_strategy = wideops.select_strategy(p) if self.wide else None
        self._companions: dict[int, object] = {}
        self._n_inv_table = None

    @property
    def bitrev(self):
        """Cached bit-reversal gather indices (shared library-wide)."""
        return bit_reverse_index_array(self.n)

    @property
    def psi_powers(self):
        """Natural-order ``psi^i`` pre-twist for the auto-sorting engines."""
        if self._psi_powers is None:
            self._psi_powers = wideops.power_table(self.psi, self.n, self.p)
        return self._psi_powers

    @property
    def psi_inv_scaled(self):
        """``psi^{-i} * n^{-1}`` post-twist — folds the final scaling in."""
        if self._psi_inv_scaled is None:
            self._psi_inv_scaled = wideops.power_table(
                self.psi_inv, self.n, self.p, scale=int(self.n_inv64)
            )
        return self._psi_inv_scaled

    def omega_powers(self, inverse: bool):
        """The ``n`` powers of the cyclic root ``omega = psi^2`` (or its inverse)."""
        root = self.psi_inv if inverse else self.psi
        return wideops.power_table(root * root % self.p, self.n, self.p)

    def stockham_stages(self, inverse: bool):
        """Per-stage twiddles of the cyclic Stockham sweep, ``omega = psi^2``."""
        if inverse:
            if self._stockham_i is None:
                self._stockham_i = _stage_tables(self.omega_powers(inverse=True))
            return self._stockham_i
        if self._stockham_f is None:
            self._stockham_f = _stage_tables(self.omega_powers(inverse=False))
        return self._stockham_f

    def four_step(self, n1: int) -> _FourStepTables:
        """Twiddle bundle for the ``n1 x (n / n1)`` four-step split."""
        bundle = self._four_step.get(n1)
        if bundle is None:
            bundle = _FourStepTables(self, n1)
            self._four_step[n1] = bundle
        return bundle

    # -- wide-word (31-62 bit) twiddle products --------------------------------
    @property
    def n_inv_table(self):
        """``n^{-1}`` as a length-1 array, for the broadcasting wide kernels."""
        if self._n_inv_table is None:
            self._n_inv_table = np.asarray([self.n_inv64], dtype=np.uint64)
        return self._n_inv_table

    def companions(self, table):
        """Lazily built Shoup companions for one of this instance's tables.

        Keyed by array identity — every table handed in is an attribute of
        this instance (or of one of its ``_FourStepTables`` bundles) and
        lives as long as the tables object, so identity is stable.  The
        companion flavour follows :attr:`wide_strategy`: uint64
        ``floor(w * 2^64 / p)`` for the limb kernel, float64 ``w / p`` for
        the float-quotient kernel.
        """
        key = id(table)
        bar = self._companions.get(key)
        if bar is None:
            if self.wide_strategy == "float":
                bar = wideops.float_bar(table, self.p)
            else:
                bar = wideops.shoup_bar(table, self.p)
            self._companions[key] = bar
        return bar

    def wide_mul(self, x, w, bar):
        """``(x * w) mod p``, fully reduced, through the selected strategy."""
        return wideops.shoup_mul(x, w, bar, self.p64, self.wide_strategy)


# ------------------------------------------------------------ array kernels


def _cond_sub(x, p64):
    """``x mod p`` for ``x < 2p`` without division: ``min(x, x - p)`` in uint64."""
    return np.minimum(x, x - p64)


def _stockham_sweep(a, stage_tables, p64):
    """Cyclic NTT along the last axis, natural order in and out.

    The classic double-buffered Stockham sweep of
    :func:`repro.transforms.stockham.stockham_cyclic_ntt`, vectorised over a
    2-D ``(batch, length)`` block.  The input buffer is consumed (it becomes
    one of the two ping-pong buffers).
    """
    batch, n = a.shape
    source, destination = a, np.empty_like(a)
    span = n
    stride = 1
    for w in stage_tables:
        half = span // 2
        view = source.reshape(batch, span, stride)
        upper = view[:, :half, :]
        lower = view[:, half:, :]
        out = destination.reshape(batch, half, 2, stride)
        out[:, :, 0, :] = _cond_sub(upper + lower, p64)
        difference = _cond_sub(upper + (p64 - lower), p64)
        out[:, :, 1, :] = (difference * w[None, :, None]) % p64
        source, destination = destination, source
        span //= 2
        stride *= 2
    return source


def _stockham_sweep_wide(a, stage_tables, tables: "EngineTables"):
    """Wide-modulus twin of :func:`_stockham_sweep` (Shoup twiddle products).

    Identical structure and identical values — the butterfly add/sub halves
    already used the conditional subtraction, and the Shoup kernels return
    fully reduced products — so the result is bit-for-bit the narrow sweep's.
    """
    p64 = tables.p64
    batch, n = a.shape
    source, destination = a, np.empty_like(a)
    span = n
    stride = 1
    for w in stage_tables:
        bar = tables.companions(w)
        half = span // 2
        view = source.reshape(batch, span, stride)
        upper = view[:, :half, :]
        lower = view[:, half:, :]
        out = destination.reshape(batch, half, 2, stride)
        out[:, :, 0, :] = _cond_sub(upper + lower, p64)
        difference = _cond_sub(upper + (p64 - lower), p64)
        out[:, :, 1, :] = tables.wide_mul(difference, w[None, :, None], bar[None, :, None])
        source, destination = destination, source
        span //= 2
        stride *= 2
    return source


def _ct_forward_wide(block, tables: "EngineTables"):
    """Wide-modulus Cooley-Tukey forward sweep (radix-2 stage order).

    Shared by the radix-2 and high-radix engines on wide primes: pass
    grouping is a loop-nesting change only on the array path, and with no
    native ``%`` available above 2^31 both engines reduce identically
    (Shoup products, conditional-subtract adds) — still bit-for-bit with
    the narrow paths because every value stays fully reduced per stage.
    """
    p64 = tables.p64
    table = tables.ct_forward
    bar = tables.companions(table)
    batch, n = block.shape
    t = n // 2
    m = 1
    while m < n:
        view = block.reshape(batch, m, 2 * t)
        upper = view[:, :, :t]
        lower = view[:, :, t:]
        product = tables.wide_mul(
            lower, table[m : 2 * m].reshape(1, m, 1), bar[m : 2 * m].reshape(1, m, 1)
        )
        total = upper + product
        difference = upper + (p64 - product)
        view[:, :, :t] = _cond_sub(total, p64)
        view[:, :, t:] = _cond_sub(difference, p64)
        m *= 2
        t //= 2
    return block


def _gs_inverse_wide(block, tables: "EngineTables"):
    """Wide-modulus Gentleman-Sande inverse sweep with folded ``n^{-1}``."""
    p64 = tables.p64
    table = tables.ct_inverse
    bar = tables.companions(table)
    batch, n = block.shape
    t = 1
    m = n // 2
    while m >= 1:
        view = block.reshape(batch, m, 2 * t)
        upper = view[:, :, :t].copy()
        lower = view[:, :, t:].copy()
        view[:, :, :t] = _cond_sub(upper + lower, p64)
        difference = _cond_sub(upper + (p64 - lower), p64)
        view[:, :, t:] = tables.wide_mul(
            difference, table[m : 2 * m].reshape(1, m, 1), bar[m : 2 * m].reshape(1, m, 1)
        )
        m //= 2
        t *= 2
    return tables.wide_mul(block, tables.n_inv_table, tables.companions(tables.n_inv_table))


def _four_step_cyclic(a, bundle: _FourStepTables, p64, inverse: bool):
    """Cyclic NTT via the four-step decomposition, natural order in and out."""
    batch, n = a.shape
    n1, n2 = bundle.n1, bundle.n2
    inner = bundle.inner_i if inverse else bundle.inner_f
    outer = bundle.outer_i if inverse else bundle.outer_f
    twist = bundle.twist_i if inverse else bundle.twist_f
    # Step 1: n2 strided n1-point NTTs (the paper's Kernel-1) — transpose so
    # the strided columns become contiguous rows, then one batched sweep.
    columns = np.ascontiguousarray(a.reshape(batch, n1, n2).transpose(0, 2, 1))
    columns = _stockham_sweep(columns.reshape(batch * n2, n1), inner, p64)
    # Step 2: twist by omega^(j2 * k1).
    columns = (columns.reshape(batch, n2, n1) * twist[None, :, :]) % p64
    # Step 3: n1 contiguous n2-point NTTs (Kernel-2).
    rows = np.ascontiguousarray(columns.transpose(0, 2, 1)).reshape(batch * n1, n2)
    rows = _stockham_sweep(rows, outer, p64)
    # Step 4: transpose back to natural order: result[k1 + n1*k2] = rows[k1, k2].
    return np.ascontiguousarray(rows.reshape(batch, n1, n2).transpose(0, 2, 1)).reshape(
        batch, n
    )


def _four_step_cyclic_wide(a, bundle: _FourStepTables, tables: "EngineTables", inverse: bool):
    """Wide-modulus twin of :func:`_four_step_cyclic`."""
    batch, n = a.shape
    n1, n2 = bundle.n1, bundle.n2
    inner = bundle.inner_i if inverse else bundle.inner_f
    outer = bundle.outer_i if inverse else bundle.outer_f
    twist = bundle.twist_i if inverse else bundle.twist_f
    columns = np.ascontiguousarray(a.reshape(batch, n1, n2).transpose(0, 2, 1))
    columns = _stockham_sweep_wide(columns.reshape(batch * n2, n1), inner, tables)
    columns = tables.wide_mul(
        columns.reshape(batch, n2, n1),
        twist[None, :, :],
        tables.companions(twist)[None, :, :],
    )
    rows = np.ascontiguousarray(columns.transpose(0, 2, 1)).reshape(batch * n1, n2)
    rows = _stockham_sweep_wide(rows, outer, tables)
    return np.ascontiguousarray(rows.reshape(batch, n1, n2).transpose(0, 2, 1)).reshape(
        batch, n
    )


# -------------------------------------------------------------------- engines


class NttEngine(abc.ABC):
    """One negacyclic-NTT algorithm, usable by every backend.

    Engines are stateless flyweights (twiddle material lives in the owning
    backend's :class:`EngineTables` / transformer caches) shared process-wide
    through :func:`get_engine`.  The two seams:

    * **array path** — :meth:`forward_array` / :meth:`inverse_array` operate
      in place on a ``(batch, n)`` ``uint64`` block whose modulus fits the
      exact-product window (``p < 2^62``: native products below 2^31, the
      Shoup wide-word kernels of :mod:`repro.backends.wideops` above); the
      block is a private copy the backend hands over, so engines may
      clobber it.
    * **row path** — :meth:`forward_row` / :meth:`inverse_row` are the exact
      big-int fallback (any word size), delegating to the reference
      implementations in :mod:`repro.transforms` via a cached
      :class:`~repro.transforms.cooley_tukey.NegacyclicTransformer`.

    Both paths use the conventions of Algorithm 1: forward output and inverse
    input are in bit-reversed order, every residue fully reduced — which is
    what makes all engines bit-for-bit interchangeable.
    """

    #: Registry name ("radix2", "high_radix", ...).
    name: str = "abstract"
    #: Full selection spec, including a parameter ("high_radix:8").
    spec: str = "abstract"

    # -- scalar row path -------------------------------------------------------
    @abc.abstractmethod
    def forward_row(self, row: Sequence[int], transformer: NegacyclicTransformer) -> list[int]:
        """Forward negacyclic NTT of one residue row (bit-reversed output)."""

    @abc.abstractmethod
    def inverse_row(self, row: Sequence[int], transformer: NegacyclicTransformer) -> list[int]:
        """Inverse negacyclic NTT of one bit-reversed residue row."""

    def forward_rows(self, rows, transformer: NegacyclicTransformer) -> list[list[int]]:
        return [self.forward_row(row, transformer) for row in rows]

    def inverse_rows(self, rows, transformer: NegacyclicTransformer) -> list[list[int]]:
        return [self.inverse_row(row, transformer) for row in rows]

    # -- vectorised array path -------------------------------------------------
    @abc.abstractmethod
    def forward_array(self, block, tables: EngineTables):
        """Forward-transform a ``(batch, n)`` uint64 block (may run in place)."""

    @abc.abstractmethod
    def inverse_array(self, block, tables: EngineTables):
        """Inverse-transform a ``(batch, n)`` uint64 block (may run in place)."""

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return "%s(spec=%r)" % (type(self).__name__, self.spec)


class Radix2Engine(NttEngine):
    """Algorithm 1 verbatim: one radix-2 stage per pass, ``%`` reductions.

    This is the pre-engine data plane unchanged — the baseline every other
    engine is benchmarked against — and the scalar side *is* the reference
    :class:`~repro.transforms.cooley_tukey.NegacyclicTransformer`.
    """

    name = "radix2"
    spec = "radix2"

    def forward_row(self, row, transformer):
        return transformer.forward(row)

    def inverse_row(self, row, transformer):
        return transformer.inverse(row)

    def forward_array(self, block, tables):
        if tables.wide:
            return _ct_forward_wide(block, tables)
        p64 = tables.p64
        batch, n = block.shape
        t = n // 2
        m = 1
        while m < n:
            view = block.reshape(batch, m, 2 * t)
            upper = view[:, :, :t]
            lower = view[:, :, t:]
            twiddles = tables.ct_forward[m : 2 * m].reshape(1, m, 1)
            product = (lower * twiddles) % p64
            new_upper = (upper + product) % p64
            new_lower = (upper + p64 - product) % p64
            view[:, :, :t] = new_upper
            view[:, :, t:] = new_lower
            m *= 2
            t //= 2
        return block

    def inverse_array(self, block, tables):
        if tables.wide:
            return _gs_inverse_wide(block, tables)
        p64 = tables.p64
        batch, n = block.shape
        t = 1
        m = n // 2
        while m >= 1:
            view = block.reshape(batch, m, 2 * t)
            upper = view[:, :, :t].copy()
            lower = view[:, :, t:].copy()
            twiddles = tables.ct_inverse[m : 2 * m].reshape(1, m, 1)
            view[:, :, :t] = (upper + lower) % p64
            view[:, :, t:] = ((upper + p64 - lower) % p64 * twiddles) % p64
            m //= 2
            t *= 2
        return (block * tables.n_inv64) % p64


class HighRadixEngine(NttEngine):
    """Pass-structured radix-``2^k`` execution (Section V) with lazy adds.

    The butterflies are exactly the radix-2 ones; what the radix changes is
    the pass structure — ``k`` consecutive stages per pass over the data, the
    grouping :func:`repro.transforms.high_radix.plan_stage_groups` plans and
    the scalar side executes through
    :func:`repro.transforms.high_radix.ntt_forward_by_passes`.  On the
    vectorised path the fused passes use the conditional-subtract reduction
    for the butterfly add/sub halves (only twiddle products pay a division),
    which is where the measured speedup over the radix-2 baseline comes from;
    the radix itself is a memory-schedule knob the GPU cost model prices, not
    a CPU-visible one.
    """

    name = "high_radix"

    def __init__(self, radix: int = 16) -> None:
        if not is_power_of_two(radix) or radix < 2:
            raise ValueError("high-radix engine needs a power-of-two radix >= 2")
        self.radix = radix
        self.spec = "high_radix:%d" % radix

    def _groups(self, n: int) -> list[int]:
        return plan_stage_groups(n, min(self.radix, n)) if n > 1 else []

    def forward_row(self, row, transformer):
        values = [value % transformer.p for value in row]
        ntt_forward_by_passes(
            values, transformer.forward_table, transformer.p, self._groups(transformer.n)
        )
        return values

    def inverse_row(self, row, transformer):
        # Pass grouping is a memory-schedule change only; the inverse
        # butterflies are the same Gentleman-Sande sweep as radix-2.
        return transformer.inverse(row)

    def forward_array(self, block, tables):
        if tables.wide:
            # Pass grouping is loop nesting only on the array path; with no
            # native % above 2^31 the wide sweep is shared with radix-2.
            return _ct_forward_wide(block, tables)
        p64 = tables.p64
        batch, n = block.shape
        t = n // 2
        m = 1
        for stages in self._groups(n):
            for _ in range(stages):
                view = block.reshape(batch, m, 2 * t)
                upper = view[:, :, :t]
                lower = view[:, :, t:]
                twiddles = tables.ct_forward[m : 2 * m].reshape(1, m, 1)
                product = (lower * twiddles) % p64
                total = upper + product
                difference = upper + (p64 - product)
                view[:, :, :t] = _cond_sub(total, p64)
                view[:, :, t:] = _cond_sub(difference, p64)
                m *= 2
                t //= 2
        return block

    def inverse_array(self, block, tables):
        if tables.wide:
            return _gs_inverse_wide(block, tables)
        p64 = tables.p64
        batch, n = block.shape
        t = 1
        m = n // 2
        while m >= 1:
            view = block.reshape(batch, m, 2 * t)
            upper = view[:, :, :t].copy()
            lower = view[:, :, t:].copy()
            twiddles = tables.ct_inverse[m : 2 * m].reshape(1, m, 1)
            view[:, :, :t] = _cond_sub(upper + lower, p64)
            difference = _cond_sub(upper + (p64 - lower), p64)
            view[:, :, t:] = (difference * twiddles) % p64
            m //= 2
            t *= 2
        return (block * tables.n_inv64) % p64


class StockhamEngine(NttEngine):
    """Stockham auto-sort NTT (Algorithm 3) re-ordered to the common convention.

    The double-buffered sweep produces natural order, so one cached gather
    re-permutes forward output to (and inverse input from) the bit-reversed
    convention the rest of the pipeline speaks.  The pre-twist by ``psi^i``
    merges the negacyclic wrap, exactly as in
    :mod:`repro.transforms.stockham`.
    """

    name = "stockham"
    spec = "stockham"

    def forward_row(self, row, transformer):
        natural = stockham_ntt_forward(row, transformer.psi, transformer.p)
        return bit_reverse_permute(natural)

    def inverse_row(self, row, transformer):
        natural = bit_reverse_permute(list(row))
        return stockham_ntt_inverse(natural, transformer.psi, transformer.p)

    def forward_array(self, block, tables):
        if tables.wide:
            twisted = tables.wide_mul(
                block, tables.psi_powers, tables.companions(tables.psi_powers)
            )
            natural = _stockham_sweep_wide(
                twisted, tables.stockham_stages(inverse=False), tables
            )
            return natural[:, tables.bitrev]
        twisted = (block * tables.psi_powers) % tables.p64
        natural = _stockham_sweep(twisted, tables.stockham_stages(inverse=False), tables.p64)
        return natural[:, tables.bitrev]

    def inverse_array(self, block, tables):
        if tables.wide:
            natural = np.ascontiguousarray(block[:, tables.bitrev])
            swept = _stockham_sweep_wide(
                natural, tables.stockham_stages(inverse=True), tables
            )
            return tables.wide_mul(
                swept, tables.psi_inv_scaled, tables.companions(tables.psi_inv_scaled)
            )
        natural = np.ascontiguousarray(block[:, tables.bitrev])
        swept = _stockham_sweep(natural, tables.stockham_stages(inverse=True), tables.p64)
        return (swept * tables.psi_inv_scaled) % tables.p64


class FourStepEngine(NttEngine):
    """Four-step (Bailey) decomposition — the paper's two-kernel SMEM shape.

    ``N = N1 * N2``: strided ``N1``-point NTTs (Kernel-1), a twist, contiguous
    ``N2``-point NTTs (Kernel-2), and a transpose, exactly as in
    :mod:`repro.transforms.four_step` — then one gather to the bit-reversed
    convention.  ``N1`` is configurable (spec ``"four_step:64"``) so the
    experiments can sweep kernel splits on the real data plane; invalid or
    absent splits fall back to the even default.
    """

    name = "four_step"

    def __init__(self, n1: int | None = None) -> None:
        if n1 is not None and (not is_power_of_two(n1) or n1 < 2):
            raise ValueError("four-step engine needs a power-of-two n1 >= 2")
        self.n1 = n1
        self.spec = "four_step" if n1 is None else "four_step:%d" % n1

    def _split(self, n: int) -> int:
        if self.n1 is not None and 1 < self.n1 < n and n % self.n1 == 0:
            return self.n1
        return default_split(n)[0]

    def forward_row(self, row, transformer):
        natural = four_step_negacyclic_ntt(
            row, transformer.psi, transformer.p, self._split(transformer.n)
        )
        return bit_reverse_permute(natural)

    def inverse_row(self, row, transformer):
        natural = bit_reverse_permute(list(row))
        return four_step_negacyclic_intt(
            natural, transformer.psi, transformer.p, self._split(transformer.n)
        )

    def forward_array(self, block, tables):
        n = block.shape[1]
        n1 = self._split(n)
        if tables.wide:
            twisted = tables.wide_mul(
                block, tables.psi_powers, tables.companions(tables.psi_powers)
            )
            if n1 <= 1 or n // n1 <= 1:
                natural = _stockham_sweep_wide(
                    twisted, tables.stockham_stages(inverse=False), tables
                )
            else:
                natural = _four_step_cyclic_wide(
                    twisted, tables.four_step(n1), tables, inverse=False
                )
            return natural[:, tables.bitrev]
        twisted = (block * tables.psi_powers) % tables.p64
        if n1 <= 1 or n // n1 <= 1:  # degenerate split: plain auto-sort sweep
            natural = _stockham_sweep(twisted, tables.stockham_stages(inverse=False), tables.p64)
        else:
            natural = _four_step_cyclic(twisted, tables.four_step(n1), tables.p64, inverse=False)
        return natural[:, tables.bitrev]

    def inverse_array(self, block, tables):
        n = block.shape[1]
        natural = np.ascontiguousarray(block[:, tables.bitrev])
        n1 = self._split(n)
        if tables.wide:
            if n1 <= 1 or n // n1 <= 1:
                swept = _stockham_sweep_wide(
                    natural, tables.stockham_stages(inverse=True), tables
                )
            else:
                swept = _four_step_cyclic_wide(
                    natural, tables.four_step(n1), tables, inverse=True
                )
            return tables.wide_mul(
                swept, tables.psi_inv_scaled, tables.companions(tables.psi_inv_scaled)
            )
        if n1 <= 1 or n // n1 <= 1:
            swept = _stockham_sweep(natural, tables.stockham_stages(inverse=True), tables.p64)
        else:
            swept = _four_step_cyclic(natural, tables.four_step(n1), tables.p64, inverse=True)
        return (swept * tables.psi_inv_scaled) % tables.p64


# ------------------------------------------------------------------- registry

_engine_factories: dict[str, Callable[[int | None], NttEngine]] = {}
_engine_instances: dict[str, NttEngine] = {}
_default_engine: str | None = None


def register_engine(
    name: str, factory: Callable[[int | None], NttEngine], replace: bool = False
) -> None:
    """Register an engine factory under ``name``.

    The factory receives the optional integer parameter of a
    ``"name:param"`` spec (``None`` when the spec is bare) and must return an
    :class:`NttEngine`.
    """
    if name in _engine_factories and not replace:
        raise ValueError("engine %r is already registered" % name)
    _engine_factories[name] = factory
    for spec in [key for key in _engine_instances if parse_engine_spec(key)[0] == name]:
        _engine_instances.pop(spec, None)


def _no_param(name: str, builder: Callable[[], NttEngine]) -> Callable[[int | None], NttEngine]:
    def factory(param: int | None) -> NttEngine:
        if param is not None:
            raise ValueError("engine %r takes no parameter" % name)
        return builder()

    return factory


register_engine("radix2", _no_param("radix2", Radix2Engine))
register_engine("high_radix", lambda param: HighRadixEngine(param if param is not None else 16))
register_engine("four_step", lambda param: FourStepEngine(param))
register_engine("stockham", _no_param("stockham", StockhamEngine))


def available_engines() -> list[str]:
    """Registered engine names, in registration order."""
    return list(_engine_factories)


def parse_engine_spec(spec: str) -> tuple[str, int | None]:
    """Split ``"high_radix:8"`` into ``("high_radix", 8)``; bare names get ``None``."""
    name, _, param = spec.partition(":")
    if not param:
        return name, None
    try:
        return name, int(param)
    except ValueError:
        raise ValueError("engine parameter in %r must be an integer" % spec) from None


def get_engine(spec: str) -> NttEngine:
    """Resolve an engine spec to its cached flyweight instance."""
    engine = _engine_instances.get(spec)
    if engine is None:
        name, param = parse_engine_spec(spec)
        if name not in _engine_factories:
            from .ops import NODE_NAMES

            raise KeyError(
                "unknown NTT engine %r (registered: %s; selection honours "
                "REPRO_NTT_ENGINE).  Engines execute the forward_ntt / "
                "inverse_ntt plan nodes (all nodes: %s)"
                % (name, ", ".join(_engine_factories), ", ".join(NODE_NAMES))
            )
        engine = _engine_factories[name](param)
        _engine_instances[spec] = engine
    return engine


def set_default_engine(spec: str | None) -> None:
    """Install (or with ``None`` clear) the process-wide default engine spec."""
    if spec is not None:
        get_engine(spec)  # validate eagerly
    global _default_engine
    _default_engine = spec


def default_engine_spec() -> str | None:
    """Process default if set, else ``REPRO_NTT_ENGINE`` (read at call time)."""
    if _default_engine is not None:
        return _default_engine
    return os.environ.get(ENGINE_ENV_VAR) or None


# ------------------------------------------------------- ahead-of-time profiles

#: Version of the tune-profile JSON format (bumped on incompatible change).
TUNE_PROFILE_FORMAT_VERSION = 1


def _selection_state(backend):
    """The object actually holding ``_engine_choices`` for ``backend``.

    Concrete backends mix in :class:`EngineSelectionMixin` directly; the
    ``parallel`` coordinator delegates selection to its embedded inner
    backend, so profile loads must land there.
    """
    node = backend
    while not hasattr(node, "_engine_choices"):
        inner = getattr(node, "inner", None)
        if inner is None or inner is node:
            raise TypeError(
                "backend %r has no engine-selection state to profile"
                % getattr(backend, "name", backend)
            )
        node = inner
    return node


def tune_profile_to_dict(backend) -> dict:
    """Serialise a backend's per-shape autotuner verdicts.

    The profile captures what :attr:`EngineSelectionMixin.engine_choices` /
    :attr:`~EngineSelectionMixin.engine_timings` already expose — the
    ``(n, p_bits, batch) -> engine`` winners and the per-candidate best
    seconds behind each verdict — in a JSON-safe shape.
    """
    choices = backend.engine_choices
    timings = backend.engine_timings
    entries = [
        {
            "n": n,
            "p_bits": p_bits,
            "batch": batch,
            "engine": spec,
            "timings": dict(timings.get((n, p_bits, batch), {})),
        }
        for (n, p_bits, batch), spec in sorted(choices.items())
    ]
    return {
        "kind": "tune_profile",
        "format_version": TUNE_PROFILE_FORMAT_VERSION,
        "entries": entries,
    }


def save_tune_profile(backend, path) -> Path:
    """Write ``backend``'s autotuner verdicts to ``path`` as JSON.

    Point ``REPRO_TUNE_PROFILE`` at the file (or call
    :func:`load_tune_profile`) to ship the verdicts to a fleet of workers
    so they skip the per-shape warmup races.
    """
    destination = Path(path)
    destination.write_text(
        json.dumps(tune_profile_to_dict(backend), indent=2, sort_keys=True),
        encoding="utf-8",
    )
    return destination


def load_tune_profile(backend, source) -> int:
    """Install saved autotuner verdicts onto ``backend``; returns the count.

    Args:
        backend: Any backend with engine-selection state (the ``parallel``
            coordinator installs onto its inline inner backend).
        source: A profile dict from :func:`tune_profile_to_dict`, or a path
            to the JSON file :func:`save_tune_profile` wrote.

    Loaded shapes bypass the autotuner entirely (the selection precedence
    is unchanged — an explicit pin or ``REPRO_NTT_ENGINE`` still wins over
    any profiled verdict).  Unknown engines and unsupported profile
    versions raise immediately rather than poisoning the cache.
    """
    if isinstance(source, (str, Path)):
        payload = json.loads(Path(source).read_text(encoding="utf-8"))
    else:
        payload = source
    if not isinstance(payload, dict) or payload.get("kind") != "tune_profile":
        raise ValueError("payload is not a serialised tune profile")
    version = payload.get("format_version", TUNE_PROFILE_FORMAT_VERSION)
    if version != TUNE_PROFILE_FORMAT_VERSION:
        raise ValueError(
            "unsupported tune profile format_version %r (this build reads "
            "version %d)" % (version, TUNE_PROFILE_FORMAT_VERSION)
        )
    state = _selection_state(backend)
    entries = payload.get("entries", [])
    for entry in entries:
        key = (int(entry["n"]), int(entry["p_bits"]), int(entry["batch"]))
        spec = entry["engine"]
        get_engine(spec)  # validate before touching the cache
        state._engine_choices[key] = spec
        timings = entry.get("timings") or {}
        state._engine_timings[key] = {
            candidate: float(seconds) for candidate, seconds in timings.items()
        }
    return len(entries)


# ------------------------------------------------------------------ autotuner


class NttAutoTuner:
    """Races candidate engines on a real workload and returns the winner.

    The backend supplies a ``runner`` closure that executes one transform of
    the shape being tuned through a candidate engine; the tuner warms each
    candidate once (so table construction is not billed — the resident-table
    policy Section IV analyses), times ``repeats`` runs, and keeps the best.
    Results are cached by the *backend* per ``(n, p_bits, batch)`` key, so
    the micro-benchmark cost is paid once per shape per backend instance.
    """

    def __init__(
        self, candidates: Sequence[str] | None = None, repeats: int = 2
    ) -> None:
        self.candidates = (
            tuple(candidates) if candidates is not None else DEFAULT_AUTOTUNE_CANDIDATES
        )
        if repeats < 1:
            raise ValueError("repeats must be at least 1")
        self.repeats = repeats

    def pick(self, runner: Callable[[NttEngine], object]) -> tuple[str, dict[str, float]]:
        """Return ``(winning spec, {spec: best seconds})`` for the workload."""
        timings: dict[str, float] = {}
        for spec in self.candidates:
            engine = get_engine(spec)
            runner(engine)  # warm-up: builds twiddle tables off the clock
            best = float("inf")
            for _ in range(self.repeats):
                start = time.perf_counter()
                runner(engine)
                best = min(best, time.perf_counter() - start)
            timings[spec] = best
        if not timings:
            return "radix2", timings
        return min(timings, key=timings.__getitem__), timings


class EngineSelectionMixin:
    """Per-shape engine selection shared by the concrete backends.

    Precedence, first match wins:

    1. the backend's explicit override (constructor ``engine=`` argument or
       :meth:`set_engine` — what :class:`repro.he.context.HeContext` pins);
    2. the process default installed with :func:`set_default_engine`;
    3. the ``REPRO_NTT_ENGINE`` environment variable (read at call time);
    4. the auto-tuner, whose per-``(n, p_bits, batch)`` winner is cached on
       the backend (inspect :attr:`engine_choices` / :attr:`engine_timings`).
    """

    def _init_engine_selection(
        self, engine: str | None = None, tuner: NttAutoTuner | None = None
    ) -> None:
        self._engine_override: str | None = None
        self._engine_choices: dict[tuple[int, int, int], str] = {}
        self._engine_timings: dict[tuple[int, int, int], dict[str, float]] = {}
        self._tuner = tuner if tuner is not None else NttAutoTuner()
        if engine is not None:
            self.set_engine(engine)
        # Ahead-of-time verdicts: a fleet ships one profile and every new
        # backend — including each pool worker's long-lived inner backend,
        # which inherits the environment — starts warm instead of racing
        # the autotuner per shape.
        profile_path = os.environ.get(TUNE_PROFILE_ENV_VAR)
        if profile_path:
            load_tune_profile(self, profile_path)

    def set_engine(self, spec: str | None) -> None:
        """Pin every transform of this backend to one engine (``None`` unpins)."""
        if spec is not None:
            get_engine(spec)  # validate eagerly
        self._engine_override = spec

    @property
    def engine(self) -> str | None:
        """The explicit engine override, or ``None`` when selection is dynamic."""
        return self._engine_override

    @property
    def engine_choices(self) -> dict[tuple[int, int, int], str]:
        """Auto-tuned winners so far, keyed by ``(n, p_bits, batch)``."""
        return dict(self._engine_choices)

    @property
    def engine_timings(self) -> dict[tuple[int, int, int], dict[str, float]]:
        """Auto-tuner timings (best seconds per candidate) per tuned shape."""
        return {key: dict(value) for key, value in self._engine_timings.items()}

    def _select_engine(self, n: int, p: int, batch: int) -> NttEngine:
        spec = self._engine_override
        if spec is None:
            spec = default_engine_spec()
        if spec is not None:
            return get_engine(spec)
        key = (n, p.bit_length(), batch)
        choice = self._engine_choices.get(key)
        if choice is None:
            with TRACER.span(
                "ntt.autotune", n=n, p_bits=key[1], batch=batch
            ):
                choice, timings = self._tuner.pick(
                    lambda engine: self._autotune_run(engine, n, p, batch)
                )
            self._engine_choices[key] = choice
            self._engine_timings[key] = timings
            metrics = getattr(self, "metrics", None)
            if metrics is not None:
                metrics.observe("ntt.autotune_seconds", timings.get(choice, 0.0))
        return get_engine(choice)

    def _autotune_run(self, engine: NttEngine, n: int, p: int, batch: int) -> None:
        """Execute one representative transform through ``engine`` (override me)."""
        raise NotImplementedError
