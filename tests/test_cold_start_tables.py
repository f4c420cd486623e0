"""Cold-start twiddle material at the paper's 60-bit word size.

Setting up a backend at ``N = 2^14`` with sixteen 60-bit primes used to
spend tens of seconds in two places: factoring ``p - 1`` with a
Miller-Rabin test per trial divisor, and building every power table one
big-int multiplication at a time.  These tests pin that the fast set-up
changes no value:

* ``factorize`` tests primality at most once per distinct factor (plus
  once up front) and returns the per-divisor algorithm's factorisations;
* the root of unity of a fixed 60-bit prime is a recorded golden value,
  so NTT-domain data and saved tune profiles stay valid;
* every vectorised table (OT-factored powers, stage tables, four-step
  twists, Shoup companions) equals its per-element reference;
* forward NTTs of worst-case rows stay bit-for-bit with ``ScalarBackend``
  under every registered engine.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.backends import wideops
from repro.backends.engines import (
    DEFAULT_AUTOTUNE_CANDIDATES,
    EngineTables,
    available_engines,
    get_engine,
)
from repro.backends.numpy_backend import NumpyBackend
from repro.backends.scalar import ScalarBackend
from repro.modarith import roots
from repro.modarith.primes import generate_ntt_primes, is_probable_prime
from repro.modarith.roots import (
    factorize,
    find_generator,
    primitive_root_of_unity,
    root_powers,
)
from repro.transforms.cooley_tukey import NegacyclicTransformer, forward_twiddle_table
from repro.transforms.four_step import default_split

#: The ``ntt_batch`` shape: sixteen 60-bit primes at N = 2^14.
BATCH_N = 1 << 14
BATCH_PRIMES = generate_ntt_primes(60, 16, BATCH_N)

#: Factorisations of ``p - 1`` for the sixteen primes, as the per-divisor
#: algorithm returned them.
GOLDEN_FACTORS = {
    1152921504606748673: {2: 15, 2087: 1, 48193: 1, 349819: 1},
    1152921504606683137: {2: 15, 3: 1, 13: 1, 902163386893: 1},
    1152921504606584833: {2: 18, 3: 2, 7: 2, 43: 1, 127: 1, 337: 1, 5419: 1},
    1152921504605962241: {2: 15, 5: 1, 6553: 1, 1073840137: 1},
    1152921504604979201: {2: 15, 5: 2, 7: 2, 13: 1, 1237: 1, 1786079: 1},
    1152921504600260609: {2: 15, 5591617: 1, 6292343: 1},
    1152921504599080961: {2: 15, 5: 1, 41: 1, 171631083359: 1},
    1152921504598720513: {2: 18, 3: 1, 571: 1, 2099: 1, 1223179: 1},
    1152921504597114881: {2: 15, 5: 1, 33797: 1, 208210031: 1},
    1152921504597016577: {2: 17, 315047: 1, 27919939: 1},
    1152921504596525057: {2: 15, 35184372088517: 1},
    1152921504595968001: {2: 17, 3: 2, 5: 3, 7818749353: 1},
    1152921504595640321: {2: 16, 5: 1, 31: 1, 227: 1, 4177: 1, 119701: 1},
    1152921504594952193: {2: 15, 1459: 1, 24115402391: 1},
    1152921504594886657: {2: 15, 3: 1, 7: 1, 1675446289927: 1},
    1152921504594493441: {2: 15, 3: 6, 5: 1, 11443: 1, 843553: 1},
}

#: Golden primitive 2N-th root of unity (and generator) of the first prime.
GOLDEN_P = 1152921504606748673
GOLDEN_PSI = 641000223749548346
GOLDEN_GENERATOR = 3

#: Cofactor shapes beyond the NTT primes: a semiprime, a prime power, a
#: prime cofactor above a power of two, and a fully smooth number.
EXTRA_COMPOSITES = (
    1000003 * 1000033,
    1000003**3,
    (1 << 15) * 35184372088517,
    7**5 * 11**2 * 13,
)

TABLE_BITS = (30, 45, 60, 62)
TABLE_SIZES = (2, 4, 1 << 10, 1 << 15)


def _per_divisor_factorize(n: int) -> dict[int, int]:
    """The trial division that primality-tests the cofactor per divisor."""
    factors: dict[int, int] = {}
    remaining = n
    for candidate in (2, 3, 5):
        while remaining % candidate == 0:
            factors[candidate] = factors.get(candidate, 0) + 1
            remaining //= candidate
    candidate = 7
    increments = (4, 2, 4, 2, 4, 6, 2, 6)
    index = 0
    while candidate * candidate <= remaining:
        if is_probable_prime(remaining):
            break
        while remaining % candidate == 0:
            factors[candidate] = factors.get(candidate, 0) + 1
            remaining //= candidate
        candidate += increments[index]
        index = (index + 1) % len(increments)
    if remaining > 1:
        factors[remaining] = factors.get(remaining, 0) + 1
    return factors


# ----------------------------------------------------------------- factorize


def test_batch_primes_are_the_recorded_ones():
    assert list(GOLDEN_FACTORS) == BATCH_PRIMES


@pytest.mark.parametrize("n", [p - 1 for p in BATCH_PRIMES] + list(EXTRA_COMPOSITES))
def test_factorize_tests_primality_once_per_distinct_factor(monkeypatch, n):
    calls = []

    def counting(value):
        calls.append(value)
        return is_probable_prime(value)

    monkeypatch.setattr(roots, "is_probable_prime", counting)
    factors = factorize(n)
    assert len(calls) <= len(factors) + 1


@pytest.mark.parametrize("p", BATCH_PRIMES)
def test_factorize_matches_recorded_factorisations(p):
    factors = factorize(p - 1)
    assert factors == GOLDEN_FACTORS[p]
    product = 1
    for prime, exponent in factors.items():
        assert is_probable_prime(prime)
        product *= prime**exponent
    assert product == p - 1


def test_factorize_matches_per_divisor_algorithm():
    # The per-divisor algorithm needs seconds per large semiprime, so the
    # shapes of EXTRA_COMPOSITES appear here with small factors.
    cases = list(range(1, 3000)) + [10007 * 10009, 101**4, (1 << 10) * 1009 * 1013]
    cases += [(1 << 15) * 35184372088517, 7**5 * 11**2 * 13]
    cases += [p - 1 for p in generate_ntt_primes(30, 8, 1 << 10)]
    cases += [p - 1 for p in generate_ntt_primes(40, 4, 1 << 12)]
    for n in cases:
        assert factorize(n) == _per_divisor_factorize(n), n


def test_golden_root_of_unity_is_unchanged():
    assert find_generator(GOLDEN_P) == GOLDEN_GENERATOR
    assert primitive_root_of_unity(2 * BATCH_N, GOLDEN_P) == GOLDEN_PSI
    assert EngineTables(BATCH_N, GOLDEN_P).psi == GOLDEN_PSI
    assert NegacyclicTransformer(BATCH_N, GOLDEN_P).psi == GOLDEN_PSI


def test_root_of_unity_is_memoised():
    p = generate_ntt_primes(45, 1, 1 << 12)[0]
    assert primitive_root_of_unity(1 << 13, p) is primitive_root_of_unity(1 << 13, p)


def test_non_primitive_root_raises_value_error():
    # 15 is not prime: the "generator" found for it yields 8, whose square
    # is 4, so no primitive square root of unity comes out.
    with pytest.raises(ValueError, match="primitive"):
        primitive_root_of_unity(2, 15)


# -------------------------------------------------------------------- tables


def _stage_reference(n: int, omega: int, p: int) -> list[list[int]]:
    """Per-stage Stockham twiddles, one multiplication per element."""
    stages = []
    span = n
    while span > 1:
        stages.append(root_powers(pow(omega, n // span, p), span // 2, p))
        span //= 2
    return stages


@pytest.fixture(scope="module", params=[(b, n) for b in TABLE_BITS for n in TABLE_SIZES],
                ids=lambda case: "%dbit-n%d" % case)
def tables(request):
    bits, n = request.param
    return EngineTables(n, generate_ntt_primes(bits, 1, n)[0])


def test_cooley_tukey_tables_match_reference(tables):
    n, p, psi = tables.n, tables.p, tables.psi
    assert tables.ct_forward.tolist() == forward_twiddle_table(n, psi, p)
    assert tables.ct_inverse.tolist() == forward_twiddle_table(n, pow(psi, -1, p), p)


def test_twist_tables_match_reference(tables):
    n, p, psi = tables.n, tables.p, tables.psi
    n_inv = pow(n, -1, p)
    assert tables.psi_powers.tolist() == root_powers(psi, n, p)
    assert tables.psi_inv_scaled.tolist() == [
        value * n_inv % p for value in root_powers(pow(psi, -1, p), n, p)
    ]


def test_stage_tables_match_reference(tables):
    n, p = tables.n, tables.p
    omega = tables.psi * tables.psi % p
    for inverse, root in ((False, omega), (True, pow(omega, -1, p))):
        stages = tables.stockham_stages(inverse=inverse)
        assert [stage.tolist() for stage in stages] == _stage_reference(n, root, p)
        assert all(stage.flags["C_CONTIGUOUS"] for stage in stages)


def test_four_step_tables_match_reference(tables):
    n, p = tables.n, tables.p
    if n < 4:
        pytest.skip("no proper four-step split below n = 4")
    n1 = default_split(n)[0]
    n2 = n // n1
    bundle = tables.four_step(n1)
    omega = tables.psi * tables.psi % p
    for inverse, root in ((False, omega), (True, pow(omega, -1, p))):
        inner = bundle.inner_i if inverse else bundle.inner_f
        outer = bundle.outer_i if inverse else bundle.outer_f
        twist = bundle.twist_i if inverse else bundle.twist_f
        assert [s.tolist() for s in inner] == _stage_reference(n1, pow(root, n2, p), p)
        assert [s.tolist() for s in outer] == _stage_reference(n2, pow(root, n1, p), p)
        assert twist.tolist() == [root_powers(pow(root, j2, p), n1, p) for j2 in range(n2)]


def test_companions_match_big_int_reference(tables):
    p = tables.p
    for table in (tables.ct_forward, tables.ct_inverse, tables.psi_inv_scaled):
        assert wideops.shoup_bar(table, p).tolist() == [
            (int(w) << 64) // p for w in table.tolist()
        ]


@settings(max_examples=200, deadline=None)
@given(
    base=st.integers(0, (1 << 62) - 1),
    scale=st.integers(0, (1 << 62) - 1),
    count=st.integers(1, 300),
    p=st.integers(2, (1 << 62) - 1),
)
def test_power_table_matches_per_element_powers(base, scale, count, p):
    expected = [scale * pow(base, e, p) % p for e in range(count)]
    assert wideops.power_table(base % p, count, p, scale=scale).tolist() == expected


@settings(max_examples=300, deadline=None)
@given(
    p=st.integers(2, (1 << 62) - 1),
    raw=st.lists(st.integers(0, (1 << 62) - 1), min_size=1, max_size=64),
)
@example(p=(1 << 62) - 57, raw=[0, 1, (1 << 62) - 58])
@example(p=generate_ntt_primes(62, 1, 1 << 15)[0], raw=[0, 1, (1 << 62) - 1])
def test_vectorised_companions_match_big_int(p, raw):
    values = [w % p for w in raw] + [0, 1, p - 1]
    got = wideops.shoup_bar(np.asarray(values, dtype=np.uint64), p)
    assert got.dtype == np.uint64
    assert got.tolist() == [(w << 64) // p for w in values]


def test_companions_keep_input_shape():
    p = generate_ntt_primes(60, 1, 16)[0]
    table = np.arange(12, dtype=np.uint64).reshape(3, 4)
    assert wideops.shoup_bar(table, p).shape == (3, 4)


# ------------------------------------------------------------------- engines


def test_four_step_is_not_raced_but_stays_selectable():
    assert "four_step" not in DEFAULT_AUTOTUNE_CANDIDATES
    assert "four_step" in available_engines()
    assert get_engine("four_step:32").n1 == 32


@pytest.mark.parametrize("spec", available_engines())
def test_worst_case_forward_ntt_matches_scalar_at_60_bits(spec):
    n = 1 << 10
    primes = generate_ntt_primes(60, 2, n)
    rows = [[p - 1] * n for p in primes]
    rows[1][::3] = [0] * len(rows[1][::3])
    scalar = ScalarBackend()
    expected = scalar.to_rows(scalar.forward_ntt_batch(scalar.from_rows(rows, primes)))
    backend = NumpyBackend(engine=spec)
    tensor = backend.from_rows(rows, primes)
    fallbacks = backend.fallback_rows
    got = backend.to_rows(backend.forward_ntt_batch(tensor))
    assert got == expected
    assert backend.fallback_rows == fallbacks
