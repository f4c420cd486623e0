"""Tests for JSON serialisation of plans, twiddle tables, polynomials and ciphertexts."""

from __future__ import annotations

import random

import pytest

from repro.core.on_the_fly import OnTheFlyConfig
from repro.core.plan import NTTAlgorithm, NTTPlan
from repro.core.serialization import (
    ciphertext_from_dict,
    ciphertext_to_dict,
    load_json,
    plan_from_dict,
    plan_to_dict,
    rns_polynomial_from_dict,
    rns_polynomial_to_dict,
    save_json,
    twiddle_table_from_dict,
    twiddle_table_to_dict,
)
from repro.core.twiddle import TwiddleTable
from repro.modarith.primes import generate_ntt_primes
from repro.modarith.roots import primitive_root_of_unity
from repro.rns.basis import RnsBasis
from repro.rns.poly import Domain, RnsPolynomial

N = 1 << 5
P = generate_ntt_primes(40, 1, N)[0]
PSI = primitive_root_of_unity(2 * N, P)


def test_plan_roundtrip_all_fields():
    plan = NTTPlan(
        n=1 << 14,
        algorithm=NTTAlgorithm.SMEM,
        kernel1_size=128,
        kernel2_size=128,
        per_thread_points=4,
        coalesced=False,
        preload_twiddles=False,
        ot=OnTheFlyConfig(base=256, ot_stages=2),
        word_size_bits=32,
    )
    assert plan_from_dict(plan_to_dict(plan)) == plan


def test_plan_roundtrip_without_ot():
    plan = NTTPlan(n=1 << 12, algorithm=NTTAlgorithm.HIGH_RADIX, radix=16)
    restored = plan_from_dict(plan_to_dict(plan))
    assert restored == plan
    assert restored.ot is None


def test_plan_from_dict_rejects_wrong_kind():
    with pytest.raises(ValueError):
        plan_from_dict({"kind": "something-else"})


def test_twiddle_table_roundtrip():
    table = TwiddleTable(n=N, p=P, psi=PSI)
    payload = twiddle_table_to_dict(table)
    restored = twiddle_table_from_dict(payload)
    assert restored.forward == table.forward
    assert restored.inverse == table.inverse
    assert restored.forward_shoup == table.forward_shoup
    assert restored.p == P and restored.psi == PSI


def test_twiddle_table_validation_on_load():
    table = TwiddleTable(n=N, p=P, psi=PSI)
    payload = twiddle_table_to_dict(table)
    with pytest.raises(ValueError):
        twiddle_table_from_dict({**payload, "kind": "nope"})
    tampered = dict(payload)
    tampered["forward"] = list(payload["forward"])
    tampered["forward"][3] = hex(int(payload["forward"][3], 16) ^ 1)
    with pytest.raises(ValueError):
        twiddle_table_from_dict(tampered)
    bad_modulus = dict(payload)
    bad_modulus["p"] = hex(P + 2)
    with pytest.raises(ValueError):
        twiddle_table_from_dict(bad_modulus)


def test_rns_polynomial_roundtrip_both_domains():
    basis = RnsBasis.generate(N, 3, bit_size=30)
    rng = random.Random(1)
    coefficients = [rng.randrange(-500, 500) for _ in range(N)]
    poly = RnsPolynomial.from_coefficients(coefficients, basis)
    for candidate in (poly, poly.to_ntt()):
        payload = rns_polynomial_to_dict(candidate)
        restored = rns_polynomial_from_dict(payload)
        assert restored == candidate
        assert restored.domain is candidate.domain
        assert restored.basis.primes == basis.primes


def test_rns_polynomial_from_dict_selects_backend():
    basis = RnsBasis.generate(N, 2, bit_size=30)
    poly = RnsPolynomial.from_coefficients([1] * N, basis, backend="numpy")
    payload = rns_polynomial_to_dict(poly)
    restored = rns_polynomial_from_dict(payload, backend="scalar")
    assert restored.backend.name == "scalar"
    assert restored == poly  # bit-identical residues across backends


def test_rns_polynomial_from_dict_rejects_wrong_kind():
    with pytest.raises(ValueError):
        rns_polynomial_from_dict({"kind": "ciphertext"})


def test_ciphertext_roundtrip_through_chain():
    """Ciphertexts serialise at any level — including after mod switching —
    and the restored ciphertext decrypts to the same plaintext."""
    from repro.he import HeContext, toy_params

    ctx = HeContext.create(toy_params())
    evaluator = ctx.evaluator()
    ct = ctx.encryptor().encrypt(ctx.encoder().encode([7, 8, 9]))
    product = evaluator.relinearize(
        evaluator.multiply(ct, ct), ctx.relinearization_key()
    )
    switched = evaluator.mod_switch_to_next(product)
    for candidate in (ct, product, switched):
        payload = ciphertext_to_dict(candidate)
        restored = ciphertext_from_dict(payload, backend=ctx.backend)
        assert restored.level == candidate.level
        assert restored.params == candidate.params
        assert [p.to_coeff_lists() for p in restored.polys] == [
            p.to_coeff_lists() for p in candidate.polys
        ]
        assert ctx.decryptor().decrypt(restored) == ctx.decryptor().decrypt(candidate)


def test_ciphertext_json_file_roundtrip(tmp_path):
    from repro.he import HeContext, toy_params

    ctx = HeContext.create(toy_params())
    ct = ctx.encryptor().encrypt(ctx.encoder().encode([1, 2]))
    path = save_json(ciphertext_to_dict(ct), tmp_path / "ct.json")
    restored = ciphertext_from_dict(load_json(path), backend=ctx.backend)
    decoded = ctx.encoder().decode(ctx.decryptor().decrypt(restored))
    assert decoded[:2] == [1, 2]


def test_ciphertext_from_dict_rejects_wrong_kind():
    with pytest.raises(ValueError):
        ciphertext_from_dict({"kind": "rns_polynomial"})


# ----------------------------------------------------- parallel backend


def _forced_parallel_backend():
    """A parallel backend whose every multi-row operation hits the pool."""
    from repro.backends.parallel import ParallelBackend

    return ParallelBackend(shards=2, transform_threshold=1, pointwise_threshold=1)


def test_rns_polynomial_roundtrip_under_parallel_backend():
    """Shared-memory tensors serialise through the counted to_coeff_lists()
    boundary exactly once, and the payload round-trips bit-identically."""
    backend = _forced_parallel_backend()
    try:
        basis = RnsBasis.generate(N, 3, bit_size=30)
        rng = random.Random(2)
        coefficients = [rng.randrange(-500, 500) for _ in range(N)]
        poly = RnsPolynomial.from_coefficients(coefficients, basis, backend=backend)
        ntt_poly = poly.to_ntt()  # sharded through the pool
        assert backend.dispatch_count >= 1
        for candidate in (poly, ntt_poly):
            before = backend.conversion_count
            payload = rns_polynomial_to_dict(candidate)
            assert backend.conversion_count - before == basis.count, (
                "serialisation must materialise each residue row exactly once"
            )
            restored = rns_polynomial_from_dict(payload, backend=backend)
            assert restored == candidate
            assert restored.domain is candidate.domain
        # and the payload re-enters any other backend bit-identically
        foreign = rns_polynomial_from_dict(
            rns_polynomial_to_dict(ntt_poly), backend="scalar"
        )
        assert foreign == ntt_poly
    finally:
        backend.close()


def test_ciphertext_roundtrip_under_parallel_backend():
    from repro.he import HeContext, HEParams

    backend = _forced_parallel_backend()
    try:
        params = HEParams(n=64, plaintext_modulus=257, prime_bits=30, prime_count=3)
        ctx = HeContext.create(params, backend=backend)
        evaluator = ctx.evaluator()
        ct = ctx.encryptor().encrypt(ctx.encoder().encode([7, 8, 9]))
        switched = evaluator.mod_switch_to_next(
            evaluator.relinearize(evaluator.multiply(ct, ct), ctx.relinearization_key())
        )
        for candidate in (ct, switched):
            rows_per_poly = candidate.polys[0].basis.count
            before = backend.conversion_count
            payload = ciphertext_to_dict(candidate)
            assert (
                backend.conversion_count - before
                == rows_per_poly * len(candidate.polys)
            )
            restored = ciphertext_from_dict(payload, backend=backend)
            assert restored.level == candidate.level
            assert [p.to_coeff_lists() for p in restored.polys] == [
                p.to_coeff_lists() for p in candidate.polys
            ]
            assert ctx.decryptor().decrypt(restored) == ctx.decryptor().decrypt(
                candidate
            )
    finally:
        backend.close()


def test_save_and_load_json(tmp_path):
    plan = NTTPlan(n=1 << 10, ot=OnTheFlyConfig(base=64, ot_stages=1))
    path = save_json(plan_to_dict(plan), tmp_path / "plan.json")
    assert path.exists()
    assert plan_from_dict(load_json(path)) == plan

    table = TwiddleTable(n=N, p=P, psi=PSI)
    table_path = save_json(twiddle_table_to_dict(table), tmp_path / "table.json")
    assert twiddle_table_from_dict(load_json(table_path)).forward == table.forward


# -- format versioning -----------------------------------------------------------------


def _sample_payloads():
    plan = NTTPlan(n=1 << 10, ot=OnTheFlyConfig(base=64, ot_stages=1))
    basis = RnsBasis.from_primes([P], N)
    rng = random.Random(11)
    poly = RnsPolynomial.random_uniform(basis, N, rng)
    return {
        plan_from_dict: plan_to_dict(plan),
        twiddle_table_from_dict: twiddle_table_to_dict(TwiddleTable(n=N, p=P, psi=PSI)),
        rns_polynomial_from_dict: rns_polynomial_to_dict(poly),
    }


def test_every_payload_carries_format_version():
    from repro.core.serialization import FORMAT_VERSION

    for payload in _sample_payloads().values():
        assert payload["format_version"] == FORMAT_VERSION


def test_unknown_format_version_is_rejected_with_clear_error():
    for loader, payload in _sample_payloads().items():
        payload["format_version"] = 999
        with pytest.raises(ValueError, match="format_version"):
            loader(payload)


def test_missing_format_version_reads_as_version_one():
    # Artefacts written before the field existed keep loading: the format
    # itself is unchanged, only the tag is new.
    for loader, payload in _sample_payloads().items():
        del payload["format_version"]
        loader(payload)


def test_ciphertext_format_version_roundtrip_and_rejection():
    from repro.he import HeContext
    from repro.he.params import toy_params

    ctx = HeContext.create(toy_params())
    ct = ctx.encryptor().encrypt(ctx.encoder().encode([1, 2, 3]))
    payload = ciphertext_to_dict(ct)
    from repro.core.serialization import FORMAT_VERSION

    assert payload["format_version"] == FORMAT_VERSION
    ciphertext_from_dict(payload)  # current version loads
    payload["format_version"] = 2
    with pytest.raises(ValueError, match="format_version"):
        ciphertext_from_dict(payload)
