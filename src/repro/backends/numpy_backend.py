"""NumPy backend: resident ``uint64`` residue tensors with batched NTTs.

Where :mod:`repro.transforms.vectorized` vectorises the butterfly stages of a
*single* transform, this backend additionally vectorises the *batch*
dimension — and, since the resident-tensor redesign, keeps the whole residue
matrix living in one 2-D ``uint64`` array across operations.  *Which*
transform algorithm sweeps that array is pluggable: every prime group
dispatches through the :class:`~repro.backends.engines.NttEngine` selected
for its ``(n, p_bits, batch)`` shape (radix-2 baseline, fused high-radix,
four-step, Stockham — see :mod:`repro.backends.engines`), all bit-for-bit
interchangeable.  A
``multiply → relinearize → mod_switch`` chain touches Python integers exactly
zero times: every stage (forward/inverse NTT, pointwise ⊙, digit broadcast,
RNS modulus switch) is an array operation on the resident storage — the
software analogue of the paper's device-resident batched kernels
(Section III / Fig. 3).

Exactness: with both operands below ``2^31`` a ``uint64`` product cannot
overflow, so every ``(a * b) % p`` is exact — the same trick
:class:`repro.transforms.vectorized.VectorizedNTT` validates.  Primes from
2^31 up to the 2^62 storage limit — which covers the paper's native ~60-bit
word configuration — run the exact wide-word kernels of
:mod:`repro.backends.wideops` (32-bit limb Shoup reduction, or the float64
quotient trick below 2^50), so they are just as resident and
conversion-free as the narrow window.  Setting ``REPRO_WIDE_WORD=0``
restores the historical 30-bit gate: wide rows are then routed, per prime,
through the exact big-int kernels of
:class:`~repro.backends.scalar.ScalarBackend`; those rows cross the
list/array boundary per operation, the crossings are charged to
:attr:`~repro.backends.base.ComputeBackend.conversion_count`, and the rows
themselves to :attr:`~repro.backends.base.ComputeBackend.fallback_rows`.
Additive operations only need sums below ``2^64`` and are vectorised up to
the 62-bit storage limit in every regime: rows with wider primes (never
generated by this repository's parameter sets) are held as exact Python
fallback rows inside the tensor.
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np

from ..telemetry import TRACER
from . import wideops
from .base import ComputeBackend, ResidueRows, ResidueTensor
from .engines import EngineSelectionMixin, EngineTables, NttEngine, vector_mul_limit
from .scalar import ScalarBackend
from .wideops import WIDE_MUL_LIMIT

__all__ = [
    "NumpyBackend",
    "NumpyTensor",
    "MUL_VECTORIZED_LIMIT",
    "WIDE_MUL_LIMIT",
    "ADD_VECTORIZED_LIMIT",
]

#: Largest modulus (exclusive) for which *native* uint64 products ``a * b``
#: are exact.  The effective product window is :func:`vector_mul_limit`:
#: 2^62 with the wide-word kernels active (the default), this value with
#: ``REPRO_WIDE_WORD=0``.
MUL_VECTORIZED_LIMIT = 1 << 31
#: Largest modulus (exclusive) for which uint64 sums ``a + p - b`` are exact.
ADD_VECTORIZED_LIMIT = 1 << 62
#: Largest modulus (exclusive) whose residues are stored in the uint64 array;
#: wider rows live as exact Python fallback rows inside the tensor.
STORAGE_LIMIT = ADD_VECTORIZED_LIMIT


class NumpyTensor(ResidueTensor):
    """Residue tensor resident as one ``(count, n)`` ``uint64`` ndarray.

    Rows whose prime does not fit the storage window (≥ 2^62) are kept as
    exact Python rows in ``big`` with a zero placeholder row in ``data`` so
    array indexing stays uniform.
    """

    __slots__ = ("data", "big")

    def __init__(self, backend, primes, n, data: np.ndarray, big=None) -> None:
        super().__init__(backend, primes, n)
        self.data = data
        self.big: dict[int, list[int]] = big if big is not None else {}


def _group_by_prime(primes: Sequence[int]) -> dict[int, list[int]]:
    """Map each distinct modulus to the row indices it governs."""
    groups: dict[int, list[int]] = {}
    for index, p in enumerate(primes):
        groups.setdefault(p, []).append(index)
    return groups


class NumpyBackend(EngineSelectionMixin, ComputeBackend):
    """Batched uint64 backend with automatic per-prime scalar fallback.

    The same twiddle derivation as
    :class:`repro.transforms.cooley_tukey.NegacyclicTransformer` is used, so
    outputs are bit-identical to the scalar path (bit-reversed forward
    output, Gentleman-Sande inverse) under *every* registered
    :class:`~repro.backends.engines.NttEngine`.  Transforms dispatch through
    the engine seam: vectorisable prime groups run the engine's batched
    array path over the resident storage, wider primes run the same engine's
    exact row path (the counted per-prime fallback).  Pin an engine with the
    ``engine`` constructor argument or :meth:`set_engine`; by default the
    per-shape auto-tuner races the candidates once and caches the winner.
    """

    name = "numpy"

    def __init__(self, engine: str | None = None) -> None:
        super().__init__()
        self._contexts: dict[tuple[int, int], EngineTables] = {}
        self._fallback = ScalarBackend()
        self._tune_blocks: dict[tuple[int, int, int], np.ndarray] = {}
        self._init_engine_selection(engine)
        self.metrics.set_gauge("ntt.engine_choices", lambda: self.engine_choices)
        self.metrics.set_gauge("ntt.engine_timings", lambda: self.engine_timings)

    @property
    def resident_contexts(self) -> int:
        """Cached twiddle contexts (vectorised plus scalar-fallback)."""
        return len(self._contexts) + self._fallback.resident_contexts

    def _context(self, n: int, p: int) -> EngineTables:
        key = (n, p)
        context = self._contexts.get(key)
        if context is None:
            context = EngineTables(n, p)
            self._contexts[key] = context
        return context

    # -- engine selection plumbing ---------------------------------------------
    def _autotune_run(self, engine: NttEngine, n: int, p: int, batch: int) -> None:
        if p < vector_mul_limit():
            block = self._tune_block(n, p, batch)
            engine.forward_array(block.copy(), self._context(n, p))
        else:
            # Fallback rows are transformed one at a time, so one row times
            # the whole group faithfully.
            rows = [self._fallback._tune_row(n, p)]
            engine.forward_rows(rows, self._fallback.transformer(n, p))

    def _autotune_kernel(self, engine: NttEngine, n: int, p: int):
        if p < vector_mul_limit():
            return engine.array_kernel(self._context(n, p))
        return engine.spec

    def _tune_block(self, n: int, p: int, batch: int) -> np.ndarray:
        key = (n, p, batch)
        block = self._tune_blocks.get(key)
        if block is None:
            rng = np.random.default_rng((n << 16) ^ (p & 0xFFFF) ^ batch)
            block = rng.integers(0, p, size=(batch, n), dtype=np.uint64)
            self._tune_blocks[key] = block
        return block

    @staticmethod
    def supports_vectorized_mul(p: int) -> bool:
        """Whether products mod ``p`` run the exact vectorised array path.

        True below :func:`~repro.backends.engines.vector_mul_limit` — 2^62
        by default (native uint64 products below 2^31, the wide-word Shoup
        kernels above), 2^31 when ``REPRO_WIDE_WORD=0`` pins the narrow
        window.
        """
        return p < vector_mul_limit()

    def warm_twiddles(self, n: int, primes: Sequence[int]) -> None:
        for p in set(primes):
            if p < vector_mul_limit():
                self._context(n, p)
            else:
                self._fallback.transformer(n, p)

    # -- boundary conversions --------------------------------------------------
    def from_rows(self, rows: ResidueRows, primes: Sequence[int]) -> NumpyTensor:
        self._check_rows_shape(rows, primes)
        self._count_conversion(len(rows))
        n = len(rows[0]) if rows else 0
        data = np.zeros((len(rows), n), dtype=np.uint64)
        big: dict[int, list[int]] = {}
        for index, (row, p) in enumerate(zip(rows, primes)):
            if p < STORAGE_LIMIT:
                try:
                    data[index] = np.asarray(row, dtype=np.uint64) % np.uint64(p)
                except OverflowError:
                    # Unreduced entries beyond uint64 (the contract accepts
                    # them): reduce in Python first, then store.
                    data[index] = np.asarray(
                        [value % p for value in row], dtype=np.uint64
                    )
            else:
                big[index] = [value % p for value in row]
        return NumpyTensor(self, primes, n, data, big)

    def to_rows(self, tensor: ResidueTensor) -> list[list[int]]:
        self._check_owned(tensor)
        self._count_conversion(tensor.count)
        rows = tensor.data.tolist()
        for index, row in tensor.big.items():
            rows[index] = list(row)
        return rows

    # -- fallback boundary (counted: these rows leave the resident array) ------
    def _extract_rows(
        self, tensor: NumpyTensor, indices: Sequence[int]
    ) -> list[list[int]]:
        rows = []
        converted = 0
        for index in indices:
            if index in tensor.big:
                rows.append(list(tensor.big[index]))
            else:
                rows.append(tensor.data[index].tolist())
                converted += 1
        self._count_conversion(converted)
        return rows

    def _store_rows(self, out: NumpyTensor, indices, rows, p: int) -> None:
        converted = 0
        for index, row in zip(indices, rows):
            if p < STORAGE_LIMIT:
                out.data[index] = np.asarray(row, dtype=np.uint64)
                converted += 1
            else:
                out.big[index] = list(row)
        self._count_conversion(converted)

    def _empty_like(self, tensor: NumpyTensor) -> NumpyTensor:
        return NumpyTensor(
            self,
            tensor.primes,
            tensor.n,
            np.zeros_like(tensor.data),
            {},
        )

    # -- transforms ------------------------------------------------------------
    def forward_ntt_batch(self, tensor: ResidueTensor) -> NumpyTensor:
        return self._transform(tensor, forward=True)

    def inverse_ntt_batch(self, tensor: ResidueTensor) -> NumpyTensor:
        return self._transform(tensor, forward=False)

    def _transform(self, tensor: ResidueTensor, forward: bool) -> NumpyTensor:
        self._check_owned(tensor)
        out = self._empty_like(tensor)
        for p, indices in _group_by_prime(tensor.primes).items():
            engine = self._select_engine(tensor.n, p, len(indices))
            vectorizable = p < vector_mul_limit() and not any(
                i in tensor.big for i in indices
            )
            with TRACER.span(
                "ntt.engine", engine=engine.spec, n=tensor.n, rows=len(indices)
            ):
                if vectorizable:
                    # Fancy indexing copies, so the engine may transform in
                    # place.
                    block = tensor.data[indices]
                    tables = self._context(tensor.n, p)
                    out.data[indices] = (
                        engine.forward_array(block, tables)
                        if forward
                        else engine.inverse_array(block, tables)
                    )
                else:
                    self._count_fallback(len(indices))
                    rows = self._extract_rows(tensor, indices)
                    transformer = self._fallback.transformer(tensor.n, p)
                    transformed = (
                        engine.forward_rows(rows, transformer)
                        if forward
                        else engine.inverse_rows(rows, transformer)
                    )
                    self._store_rows(out, indices, transformed, p)
        return out

    # -- pointwise arithmetic --------------------------------------------------
    def _pointwise_pair(self, a, b, vectorized, fallback, limit) -> NumpyTensor:
        self._check_pair(a, b)
        out = self._empty_like(a)
        for p, indices in _group_by_prime(a.primes).items():
            vectorizable = p < limit and not any(i in a.big for i in indices)
            if vectorizable:
                out.data[indices] = vectorized(a.data[indices], b.data[indices], p)
            else:
                self._count_fallback(len(indices))
                group_primes = [p] * len(indices)
                rows = fallback(
                    self._extract_rows(a, indices),
                    self._extract_rows(b, indices),
                    group_primes,
                )
                self._store_rows(out, indices, rows, p)
        return out

    def _pointwise_single(self, a, vectorized, fallback, limit) -> NumpyTensor:
        self._check_owned(a)
        out = self._empty_like(a)
        for p, indices in _group_by_prime(a.primes).items():
            vectorizable = p < limit and not any(i in a.big for i in indices)
            if vectorizable:
                out.data[indices] = vectorized(a.data[indices], p)
            else:
                self._count_fallback(len(indices))
                group_primes = [p] * len(indices)
                rows = fallback(self._extract_rows(a, indices), group_primes)
                self._store_rows(out, indices, rows, p)
        return out

    def add(self, a: ResidueTensor, b: ResidueTensor) -> NumpyTensor:
        return self._pointwise_pair(
            a,
            b,
            lambda x, y, p: (x + y) % np.uint64(p),
            self._fallback._add_rows,
            ADD_VECTORIZED_LIMIT,
        )

    def sub(self, a: ResidueTensor, b: ResidueTensor) -> NumpyTensor:
        return self._pointwise_pair(
            a,
            b,
            lambda x, y, p: (x + np.uint64(p) - y) % np.uint64(p),
            self._fallback._sub_rows,
            ADD_VECTORIZED_LIMIT,
        )

    def neg(self, a: ResidueTensor) -> NumpyTensor:
        return self._pointwise_single(
            a,
            lambda x, p: (np.uint64(p) - x) % np.uint64(p),
            self._fallback._neg_rows,
            ADD_VECTORIZED_LIMIT,
        )

    def mul(self, a: ResidueTensor, b: ResidueTensor) -> NumpyTensor:
        return self._pointwise_pair(
            a,
            b,
            lambda x, y, p: (x * y) % np.uint64(p)
            if p < MUL_VECTORIZED_LIMIT
            else wideops.mulmod(x, y, p),
            self._fallback._mul_rows,
            vector_mul_limit(),
        )

    def scalar_mul(self, a: ResidueTensor, scalar: int) -> NumpyTensor:
        return self._pointwise_single(
            a,
            lambda x, p: (x * np.uint64(scalar % p)) % np.uint64(p)
            if p < MUL_VECTORIZED_LIMIT
            else wideops.scalar_mulmod(x, scalar, p),
            lambda rows, primes: self._fallback._scalar_mul_rows(rows, scalar, primes),
            vector_mul_limit(),
        )

    # -- structural operations -------------------------------------------------
    def concat(self, tensors: Sequence[ResidueTensor]) -> NumpyTensor:
        if not tensors:
            raise ValueError("cannot concatenate an empty tensor sequence")
        n = tensors[0].n
        primes: list[int] = []
        big: dict[int, list[int]] = {}
        offset = 0
        for tensor in tensors:
            self._check_owned(tensor)
            if tensor.n != n:
                raise ValueError("all tensors in a concat must share n")
            primes.extend(tensor.primes)
            for index, row in tensor.big.items():
                big[offset + index] = list(row)
            offset += tensor.count
        data = np.concatenate([tensor.data for tensor in tensors], axis=0)
        return NumpyTensor(self, primes, n, data, big)

    def split(
        self, tensor: ResidueTensor, counts: Sequence[int]
    ) -> list[NumpyTensor]:
        self._check_owned(tensor)
        if sum(counts) != tensor.count:
            raise ValueError(
                "split counts sum to %d but tensor has %d rows"
                % (sum(counts), tensor.count)
            )
        pieces = []
        offset = 0
        for count in counts:
            pieces.append(self.slice_rows(tensor, offset, offset + count))
            offset += count
        return pieces

    def slice_rows(self, tensor: ResidueTensor, start: int, stop: int) -> NumpyTensor:
        self._check_owned(tensor)
        big = {
            index - start: list(row)
            for index, row in tensor.big.items()
            if start <= index < stop
        }
        return NumpyTensor(
            self,
            tensor.primes[start:stop],
            tensor.n,
            tensor.data[start:stop].copy(),
            big,
        )

    def copy(self, tensor: ResidueTensor) -> NumpyTensor:
        self._check_owned(tensor)
        return NumpyTensor(
            self,
            tensor.primes,
            tensor.n,
            tensor.data.copy(),
            {index: list(row) for index, row in tensor.big.items()},
        )

    def tensor_equal(self, a: ResidueTensor, b: ResidueTensor) -> bool:
        self._check_owned(a)
        self._check_owned(b)
        return (
            a.primes == b.primes
            and np.array_equal(a.data, b.data)
            and a.big == b.big
        )

    # -- RNS compound operations ----------------------------------------------
    def digit_broadcast(self, tensor: ResidueTensor, index: int) -> NumpyTensor:
        self._check_owned(tensor)
        if not 0 <= index < tensor.count:
            raise ValueError("digit index %d out of range" % index)
        out = self._empty_like(tensor)
        if index in tensor.big:
            self._count_fallback(tensor.count)
            source = tensor.big[index]
            rows = self._fallback._digit_rows(source, tensor.primes)
            for j, (row, p) in enumerate(zip(rows, tensor.primes)):
                self._store_rows(out, [j], [row], p)
            return out
        source = tensor.data[index]
        for j, p in enumerate(tensor.primes):
            if p < STORAGE_LIMIT:
                out.data[j] = source % np.uint64(p)
            else:  # pragma: no cover - no parameter set generates ≥62-bit primes
                out.big[j] = [int(value) % p for value in source.tolist()]
        return out

    def mod_switch_drop_last(
        self, tensor: ResidueTensor, plaintext_modulus: int
    ) -> NumpyTensor:
        self._check_owned(tensor)
        if tensor.count < 2:
            raise ValueError("cannot modulus-switch below a single prime")
        primes = tensor.primes
        t = plaintext_modulus
        q_last = primes[-1]
        limit = vector_mul_limit()
        narrow = (
            not tensor.big
            and t < MUL_VECTORIZED_LIMIT
            and max(primes) < MUL_VECTORIZED_LIMIT
        )
        wide = not narrow and not tensor.big and t < limit and max(primes) < limit
        if not narrow and not wide:
            self._count_fallback(tensor.count)
            rows = self._extract_rows(tensor, range(tensor.count))
            switched = self._fallback._mod_switch_rows(rows, primes, t)
            out = NumpyTensor(
                self,
                primes[:-1],
                tensor.n,
                np.zeros((tensor.count - 1, tensor.n), dtype=np.uint64),
                {},
            )
            for j, (row, p) in enumerate(zip(switched, primes[:-1])):
                self._store_rows(out, [j], [row], p)
            return out
        if wide:
            return self._mod_switch_wide(tensor, t)
        # All quantities fit int64: w * t_inv < 2^62, |t * u_c| < 2^61, and the
        # final (value mod p) * q_inv product is below 2^62.
        t_inv = pow(t, -1, q_last)
        w = tensor.data[-1].astype(np.int64)
        u = (q_last - (w * np.int64(t_inv)) % q_last) % q_last
        u_c = np.where(u > q_last // 2, u - q_last, u)
        data = np.zeros((tensor.count - 1, tensor.n), dtype=np.uint64)
        correction = np.int64(t) * u_c
        for j, p in enumerate(primes[:-1]):
            q_inv = pow(q_last % p, -1, p)
            value = (tensor.data[j].astype(np.int64) + correction) % p
            data[j] = ((value * np.int64(q_inv)) % p).astype(np.uint64)
        return NumpyTensor(self, primes[:-1], tensor.n, data, {})

    def _mod_switch_wide(self, tensor: NumpyTensor, t: int) -> NumpyTensor:
        """Wide-word (≤ 62-bit) modulus switch — all products via Shoup kernels.

        The narrow path's signed int64 arithmetic overflows above 30-bit
        primes, so the correction digit ``u`` stays unsigned and its centered
        sign is carried as a mask: for centered-negative digits the term
        ``t * u_c = t*u - t*q_last`` is applied as one extra reduced
        subtraction mod ``p``.  Every per-prime product — ``w * t^{-1}`` mod
        ``q_last``, ``u * t`` mod ``p``, and the final ``value * q_last^{-1}``
        mod ``p`` — runs :func:`repro.backends.wideops.scalar_mulmod`, which
        is exact for arbitrary uint64 multiplicands (``u`` may exceed ``p``).
        Bit-for-bit with :meth:`ScalarBackend._mod_switch_rows`: every
        intermediate is fully reduced into the same residue class.
        """
        primes = tensor.primes
        q_last = primes[-1]
        q64 = np.uint64(q_last)
        t_inv = pow(t, -1, q_last)
        product = wideops.scalar_mulmod(tensor.data[-1], t_inv, q_last)
        u = q64 - product  # in [1, q_last]; min() maps the q_last case to 0
        u = np.minimum(u, u - q64)
        negative = u > np.uint64(q_last // 2)
        data = np.zeros((tensor.count - 1, tensor.n), dtype=np.uint64)
        for j, p in enumerate(primes[:-1]):
            p64 = np.uint64(p)
            q_inv = pow(q_last % p, -1, p)
            term = wideops.scalar_mulmod(u, t, p)
            total = tensor.data[j] + term
            value = np.minimum(total, total - p64)
            tq64 = np.uint64((t % p) * (q_last % p) % p)
            shifted = value + (p64 - tq64)
            value = np.where(negative, np.minimum(shifted, shifted - p64), value)
            data[j] = wideops.scalar_mulmod(value, q_inv, p)
        return NumpyTensor(self, primes[:-1], tensor.n, data, {})

    # -- validation ------------------------------------------------------------
    def _check_owned(self, tensor: ResidueTensor) -> None:
        super()._check_owned(tensor)
        if not isinstance(tensor, NumpyTensor):  # pragma: no cover - defensive
            raise ValueError("NumpyBackend operates on NumpyTensor handles only")
