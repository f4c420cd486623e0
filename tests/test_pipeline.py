"""Tests for fused evaluator execution and the fluent pipeline API.

Pins the user-facing half of the op-graph redesign:

* every evaluator operation is bit-for-bit identical between optimised and
  raw (``passes="none"``) plans, on scalar, numpy and pool-forced parallel
  backends, and decrypts to the plaintext arithmetic;
* a whole ``multiply → relinearize → mod_switch`` expression compiles into
  **one** plan that executes in ≤ 3 pool dispatches with zero boundary
  conversions on the forced-pool parallel backend;
* plans compile once per shape (`plan_cache_hits`), shared sub-expressions
  lower once, and the expression API validates pipelines/levels the same way
  the per-op evaluator does;
* ``RnsPolynomial.__mul__``'s one-plan product matches the product taken
  through explicit NTT-domain conversions.
"""

from __future__ import annotations

import random

import pytest

from repro.backends.parallel import ParallelBackend
from repro.he import HeContext, HEParams
from repro.rns.poly import RnsPolynomial

PARAMS = HEParams(n=64, plaintext_modulus=257, prime_bits=30, prime_count=3)


def forced_parallel():
    return ParallelBackend(shards=2, transform_threshold=1, pointwise_threshold=1)


def make_context(backend):
    return HeContext.create(PARAMS, backend=backend, seed=7)


def coeffs(ciphertext):
    return [poly.to_coeff_lists() for poly in ciphertext.polys]


@pytest.fixture(params=["scalar", "numpy", "parallel"])
def context(request):
    backend = forced_parallel() if request.param == "parallel" else request.param
    ctx = make_context(backend)
    yield ctx
    if isinstance(ctx.backend, ParallelBackend):
        ctx.backend.close()


# -------------------------------------------- optimised == raw, every op


def decoded(context, ciphertext):
    return context.encoder().decode(context.decryptor().decrypt(ciphertext))[:3]


def test_every_evaluator_op_bit_identical_between_modes(context):
    encryptor = context.encryptor(seed=11)
    encoder = context.encoder()
    relin = context.relinearization_key()
    a, b, p = [1, 2, 3], [4, 5, 6], [2, 0, 1]
    plain = encoder.encode(p)
    ct_a = encryptor.encrypt(encoder.encode(a))
    ct_b = encryptor.encrypt(encoder.encode(b))
    optimised = context.evaluator()
    raw = context.evaluator(passes="none")
    assert optimised.passes and not raw.passes

    def every_op(evaluator):
        product = evaluator.multiply(ct_a, ct_b)
        return [
            product,
            evaluator.add(ct_a, ct_b),
            evaluator.sub(ct_a, ct_b),
            evaluator.add(ct_a, product),  # mixed sizes
            evaluator.sub(ct_a, product),
            evaluator.negate(ct_a),
            evaluator.square(ct_a),
            evaluator.add_plain(ct_a, plain),
            evaluator.multiply_plain(ct_a, plain),
            evaluator.relinearize(product, relin),
            evaluator.mod_switch_to_next(ct_a),
        ]

    t = PARAMS.plaintext_modulus
    xy = [x * y for x, y in zip(a, b)]
    plaintext = [
        xy,
        [x + y for x, y in zip(a, b)],
        [x - y for x, y in zip(a, b)],
        [x + z for x, z in zip(a, xy)],
        [x - z for x, z in zip(a, xy)],
        [-x for x in a],
        [x * x for x in a],
        [x + y for x, y in zip(a, p)],
        [x * y for x, y in zip(a, p)],
        xy,
        a,
    ]
    cases = zip(every_op(optimised), every_op(raw), plaintext)
    for index, (got, expected, values) in enumerate(cases):
        assert coeffs(got) == coeffs(expected), index
        assert got.level == expected.level, index
        assert decoded(context, got) == [v % t for v in values], index
    # The optimiser never adds transforms over the plans as emitted.
    assert optimised.ntt_invocations <= raw.ntt_invocations


def test_pipeline_chain_matches_raw_chain(context):
    encryptor = context.encryptor(seed=11)
    encoder = context.encoder()
    relin = context.relinearization_key()
    ct_a = encryptor.encrypt(encoder.encode([1, 2, 3]))
    ct_b = encryptor.encrypt(encoder.encode([4, 5, 6]))

    raw = context.evaluator(passes="none")
    expected = raw.mod_switch_to_next(raw.relinearize(raw.multiply(ct_a, ct_b), relin))

    pipe = context.pipeline()
    result = (pipe.load(ct_a) * pipe.load(ct_b)).relinearize(relin).mod_switch().run()
    assert coeffs(result) == coeffs(expected)
    assert result.level == expected.level == 1

    t = PARAMS.plaintext_modulus
    assert decoded(context, result) == [
        (x * y) % t for x, y in zip([1, 2, 3], [4, 5, 6])
    ]


# ------------------------------------------------------ fusion acceptance


def test_pipeline_chain_three_dispatches_zero_conversions():
    """The acceptance pin: multiply → relinearize → mod_switch through the
    pool-forced parallel backend is ≤ 3 pool dispatches (one fused stage per
    cross-row barrier) and fully resident."""
    backend = forced_parallel()
    try:
        ctx = make_context(backend)
        encryptor = ctx.encryptor(seed=11)
        relin = ctx.relinearization_key()
        ct_a = encryptor.encrypt(ctx.encoder().encode([1, 2, 3]))
        ct_b = encryptor.encrypt(ctx.encoder().encode([4, 5, 6]))
        pipe = ctx.pipeline()
        expr = (pipe.load(ct_a) * pipe.load(ct_b)).relinearize(relin).mod_switch()

        backend.reset_dispatch_count()
        backend.reset_conversion_count()
        result = expr.run()
        assert backend.dispatch_count <= 3, backend.dispatch_count
        assert backend.dispatch_count >= 1, "chain never reached the pool"
        assert backend.conversion_count == 0, "chain left resident storage"

        # The per-op evaluator pays at most one dispatch per op too.
        evaluator = ctx.evaluator()
        backend.reset_dispatch_count()
        chained = evaluator.mod_switch_to_next(
            evaluator.relinearize(evaluator.multiply(ct_a, ct_b), relin)
        )
        assert backend.dispatch_count <= 3
        assert coeffs(chained) == coeffs(result)
    finally:
        backend.close()


def test_pipeline_compiles_once_per_shape():
    ctx = make_context("numpy")
    encryptor = ctx.encryptor(seed=11)
    relin = ctx.relinearization_key()
    pipe = ctx.pipeline()
    results = []
    for seed in (1, 2, 3):
        rng_input = [seed, seed + 1, seed + 2]
        ct = encryptor.encrypt(ctx.encoder().encode(rng_input))
        expr = pipe.load(ct).square().relinearize(relin).mod_switch()
        results.append(expr.run())
    assert pipe.evaluator.plans_compiled == 1
    assert pipe.evaluator.plan_cache_hits == 2
    assert len({str(coeffs(result)) for result in results}) == 3


def test_pipeline_distinguishes_key_component_domains():
    """Key component domains are part of the compiled plan (coefficient
    components get forward-NTT nodes), so a same-shaped expression with an
    NTT-resident key must not reuse the coefficient-key plan."""
    from repro.he.keys import RelinearizationKey

    ctx = make_context("numpy")
    encryptor = ctx.encryptor(seed=11)
    relin = ctx.relinearization_key()
    ntt_relin = RelinearizationKey(
        components=[(rk0.to_ntt(), rk1.to_ntt()) for rk0, rk1 in relin.components]
    )
    ct_a = encryptor.encrypt(ctx.encoder().encode([1, 2, 3]))
    ct_b = encryptor.encrypt(ctx.encoder().encode([4, 5, 6]))
    pipe = ctx.pipeline()
    first = (pipe.load(ct_a) * pipe.load(ct_b)).relinearize(relin).run()
    second = (pipe.load(ct_a) * pipe.load(ct_b)).relinearize(ntt_relin).run()
    assert pipe.evaluator.plans_compiled == 2  # distinct plans, no aliasing
    assert coeffs(first) == coeffs(second)
    t = PARAMS.plaintext_modulus
    decoded = ctx.encoder().decode(ctx.decryptor().decrypt(second))
    assert decoded[:3] == [(x * y) % t for x, y in zip([1, 2, 3], [4, 5, 6])]


def test_shared_subexpressions_lower_once():
    ctx = make_context("numpy")
    encryptor = ctx.encryptor(seed=11)
    ct_a = encryptor.encrypt(ctx.encoder().encode([1, 2, 3]))
    ct_b = encryptor.encrypt(ctx.encoder().encode([4, 5, 6]))
    pipe = ctx.pipeline()
    a, b = pipe.load(ct_a), pipe.load(ct_b)
    shared = a * b
    result = (shared + shared).run()
    raw = ctx.evaluator(passes="none")
    product = raw.multiply(ct_a, ct_b)
    assert coeffs(result) == coeffs(raw.add(product, product))


def test_pipeline_validates_usage():
    ctx = make_context("numpy")
    encryptor = ctx.encryptor(seed=11)
    relin = ctx.relinearization_key()
    ct = encryptor.encrypt(ctx.encoder().encode([1, 2, 3]))
    pipe = ctx.pipeline()
    other = ctx.pipeline()
    with pytest.raises(TypeError, match="expects a Ciphertext"):
        pipe.load("not a ciphertext")
    with pytest.raises(ValueError, match="different pipelines"):
        pipe.load(ct) * other.load(ct)
    with pytest.raises(ValueError, match="different pipeline"):
        pipe.run(other.load(ct))

    # Level mismatches surface during lowering, like the evaluator's checks.
    evaluator = ctx.evaluator()
    switched = evaluator.mod_switch_to_next(ct)
    with pytest.raises(ValueError, match="different levels"):
        (pipe.load(ct) * pipe.load(switched)).run()
    with pytest.raises(ValueError, match="different levels"):
        (pipe.load(ct) + pipe.load(switched)).run()

    # Relinearising a size-2 ciphertext is a fused no-op copy.
    relinearised = pipe.load(ct).relinearize(relin).run()
    assert coeffs(relinearised) == coeffs(ct)

    # Switching past the last level raises exactly like the evaluator.
    last = evaluator.mod_switch_to_next(switched)
    with pytest.raises(ValueError, match="below a single prime"):
        pipe.load(last).mod_switch().run()


# --------------------------------------------------------- polynomial layer


@pytest.mark.parametrize("backend_name", ["scalar", "numpy"])
def test_poly_product_identical_between_modes(backend_name):
    ctx = make_context(backend_name)
    rng = random.Random(5)
    a = RnsPolynomial.random_uniform(ctx.basis, PARAMS.n, rng, backend=ctx.backend)
    b = RnsPolynomial.random_uniform(ctx.basis, PARAMS.n, rng, backend=ctx.backend)
    planned = a * b
    stepwise = (a.to_ntt() * b.to_ntt()).to_coefficient()
    assert planned == stepwise
    assert planned.domain == stepwise.domain
