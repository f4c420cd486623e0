"""Tests for the plan-compiler subsystem: passes, manager, pool, programs.

Pins the acceptance criteria of the optimiser:

* **pass unit tests** — each registered pass rewrites hand-built plans the
  way its contract says (cancellation through the batching plumbing, copy
  and slice/concat folding, commutative-aware CSE, constant hoisting, dead
  value sweeping) while never aliasing a value into an output slot;
* **bit-for-bit equivalence** — optimised plans produce exactly the same
  ciphertexts as unoptimised ones, on scalar/numpy/forced-pool-parallel
  backends, at 30- and 60-bit primes, for the canonical
  ``multiply → relinearize → mod_switch`` chain and the bootstrap-shaped
  circuit;
* **selection precedence** — explicit > ``set_default_passes`` >
  ``REPRO_PASSES`` > default, with registry-style errors on unknown names;
* **constant pool** — relinearisation keys and repeated plaintexts transform
  once (cold run) and hit the pool on every later execution, with fewer NTT
  rows on warm runs;
* **whole programs** — :meth:`Pipeline.run_many` and :class:`HeProgram`
  compile many statements into one plan with shared lowering, and
  ``HeContext.metrics_diff`` reports the deltas the benchmarks print.
"""

from __future__ import annotations

import pytest

from repro.backends import ops
from repro.backends.parallel import ParallelBackend
from repro.backends.scalar import ScalarBackend
from repro.compiler import (
    DEFAULT_PASSES,
    ConstantPool,
    PASS_REGISTRY,
    PASSES_ENV_VAR,
    PassContext,
    PassManager,
    available_passes,
    count_ntt_rows,
    parse_passes,
    pass_descriptions,
    resolve_passes,
    set_default_passes,
)
from repro.compiler.manager import _MAX_ROUNDS, materialize_derived
from repro.he import HeContext, HEParams, bootstrap_circuit
from repro.modarith.primes import generate_ntt_primes

N = 64
PARAMS = {
    bits: HEParams(n=N, plaintext_modulus=257, prime_bits=bits, prime_count=3)
    for bits in (30, 60)
}


def forced_parallel():
    return ParallelBackend(shards=2, transform_threshold=1, pointwise_threshold=1)


def coeffs(ciphertext):
    return [poly.to_coeff_lists() for poly in ciphertext.polys]


@pytest.fixture(
    params=[
        "scalar-30",
        "scalar-60",
        "numpy-30",
        "numpy-60",
        "parallel-30",
        "parallel-60",
    ]
)
def context(request):
    name, bits = request.param.rsplit("-", 1)
    backend = forced_parallel() if name == "parallel" else name
    ctx = HeContext.create(PARAMS[int(bits)], backend=backend, seed=7)
    yield ctx
    if isinstance(ctx.backend, ParallelBackend):
        ctx.backend.close()


@pytest.fixture(autouse=True)
def _clean_pass_default():
    set_default_passes(None)
    yield
    set_default_passes(None)


# --------------------------------------------------- structural helpers


def run_pass(name, plan, input_primes=None, constant_inputs=(), sweep=False):
    """Apply one pass (optionally sweeping dead nodes after, since a single
    rewrite leaves the values it orphaned for ``dead_values``)."""
    ctx = PassContext(input_primes=input_primes, constant_inputs=constant_inputs)
    plan = PASS_REGISTRY[name].rewrite(plan, ctx)
    if sweep:
        plan = PASS_REGISTRY["dead_values"].rewrite(plan, ctx)
    return plan, ctx


def scalar_outputs(plan, bindings_rows):
    backend = ScalarBackend()
    bindings = {
        name: backend.from_rows(rows, primes)
        for name, (rows, primes) in bindings_rows.items()
    }
    outputs = backend.execute(plan, bindings)
    return {name: outputs[name].to_rows() for name in plan.output_names}


def kinds(plan):
    return [node.kind for node in plan.nodes]


PRIMES = tuple(generate_ntt_primes(17, 3, 2 * N))


def rows_for(primes, seed=1):
    return [[(seed * 37 + i * 31 + j) % p for j in range(N)] for i, p in enumerate(primes)]


# --------------------------------------------------------- pass: cancellation


def test_cancel_forward_inverse_pair():
    g = ops.OpGraph()
    x = g.input("x")
    g.output("out", g.inverse_ntt(g.forward_ntt(x)))
    plan = g.compile()
    rewritten, ctx = run_pass("cancel_ntt_pairs", plan, {"x": PRIMES}, sweep=True)
    assert "forward_ntt" not in kinds(rewritten)
    assert "inverse_ntt" not in kinds(rewritten)
    assert ctx.stats["plan.pass.cancel_ntt_pairs.pairs_cancelled"] == 1
    # Output never aliases the input: a Copy is materialised in the slot.
    rows = rows_for(PRIMES)
    out = scalar_outputs(rewritten, {"x": (rows, PRIMES)})
    assert out["out"] == rows


def test_cancel_sees_through_slice_plumbing():
    # inverse(slice(forward(x))) == slice(x): the emitters' batch shape.
    g = ops.OpGraph()
    x = g.input("x")
    fwd = g.forward_ntt(x)
    g.output("out", g.inverse_ntt(g.slice_rows(fwd, 1, 3)))
    plan = g.compile()
    rewritten, _ = run_pass("cancel_ntt_pairs", plan, {"x": PRIMES})
    assert "inverse_ntt" not in kinds(rewritten)
    rows = rows_for(PRIMES)
    out = scalar_outputs(rewritten, {"x": (rows, PRIMES)})
    assert out["out"] == rows[1:3]


def test_cancel_partial_concat_keeps_surviving_rows_grouped():
    # forward(concat(inverse(a), b, c)) -> concat(a', forward(concat(b, c)));
    # the two non-cancellable parts stay in ONE wide transform.
    g = ops.OpGraph()
    a = g.input("a")
    b = g.input("b")
    c = g.input("c")
    stacked = g.concat([g.inverse_ntt(a), b, c])
    g.output("out", g.forward_ntt(stacked))
    plan = g.compile()
    primes = {"a": PRIMES, "b": PRIMES, "c": PRIMES}
    rewritten, ctx = run_pass("cancel_ntt_pairs", plan, primes, sweep=True)
    assert ctx.stats["plan.pass.cancel_ntt_pairs.pairs_cancelled"] == 1
    assert kinds(rewritten).count("forward_ntt") == 1
    assert "inverse_ntt" not in kinds(rewritten)
    backend = ScalarBackend()
    bindings = {
        name: backend.from_rows(rows_for(PRIMES, seed), PRIMES)
        for seed, name in enumerate(("a", "b", "c"), start=1)
    }
    got = backend.execute(rewritten, bindings)
    ref_backend = ScalarBackend()
    ref_bindings = {
        name: ref_backend.from_rows(rows_for(PRIMES, seed), PRIMES)
        for seed, name in enumerate(("a", "b", "c"), start=1)
    }
    expected = ops.interpret(ref_backend, plan, ref_bindings)
    assert got["out"].to_rows() == expected["out"].to_rows()


# --------------------------------------------------------- pass: folding


def test_fold_copy_chain_collapses():
    g = ops.OpGraph()
    x = g.input("x")
    y = g.copy(g.copy(g.copy(x)))
    g.output("out", g.neg(y))
    plan = g.compile()
    rewritten, ctx = run_pass("fold_structure", plan, {"x": PRIMES})
    assert kinds(rewritten) == ["input", "neg"]
    assert ctx.stats["plan.pass.fold_structure.copies_forwarded"] == 3


def test_fold_slice_of_concat_and_full_range():
    g = ops.OpGraph()
    a = g.input("a")
    b = g.input("b")
    stacked = g.concat([a, b])
    g.output("b_again", g.copy(g.slice_rows(stacked, len(PRIMES), 2 * len(PRIMES))))
    g.output("all", g.copy(g.slice_rows(stacked, 0, 2 * len(PRIMES))))
    plan = g.compile()
    rewritten, ctx = run_pass(
        "fold_structure", plan, {"a": PRIMES, "b": PRIMES}
    )
    assert "slice_rows" not in kinds(rewritten)
    assert ctx.stats["plan.pass.fold_structure.slices_folded"] == 2
    rows_a, rows_b = rows_for(PRIMES, 1), rows_for(PRIMES, 2)
    out = scalar_outputs(
        rewritten, {"a": (rows_a, PRIMES), "b": (rows_b, PRIMES)}
    )
    assert out["b_again"] == rows_b
    assert out["all"] == rows_a + rows_b


def test_fold_nested_concat_flattens():
    g = ops.OpGraph()
    a = g.input("a")
    b = g.input("b")
    c = g.input("c")
    inner = g.concat([a, b])
    g.output("out", g.copy(g.concat([inner, c])))
    plan = g.compile()
    rewritten, ctx = run_pass(
        "fold_structure", plan, {"a": PRIMES, "b": PRIMES, "c": PRIMES}, sweep=True
    )
    concats = [n for n in rewritten.nodes if isinstance(n, ops.Concat)]
    assert len(concats) == 1 and len(concats[0].srcs) == 3
    assert ctx.stats["plan.pass.fold_structure.concats_flattened"] == 1


# --------------------------------------------------------------- pass: cse


def test_cse_merges_commutative_duplicates():
    g = ops.OpGraph()
    a = g.input("a")
    b = g.input("b")
    g.output("x", g.copy(g.add(a, b)))
    g.output("y", g.copy(g.add(b, a)))
    g.output("z", g.copy(g.mul(a, b)))
    plan = g.compile()
    rewritten, ctx = run_pass("cse", plan, {"a": PRIMES, "b": PRIMES})
    assert kinds(rewritten).count("add") == 1
    assert ctx.stats["plan.pass.cse.values_merged"] == 1
    out = scalar_outputs(
        rewritten,
        {"a": (rows_for(PRIMES, 1), PRIMES), "b": (rows_for(PRIMES, 2), PRIMES)},
    )
    assert out["x"] == out["y"]


def test_cse_never_merges_copies():
    g = ops.OpGraph()
    a = g.input("a")
    g.output("x", g.copy(a))
    g.output("y", g.copy(a))
    plan = g.compile()
    rewritten, _ = run_pass("cse", plan, {"a": PRIMES})
    assert kinds(rewritten).count("copy") == 2


# ------------------------------------------------------- pass: dead values


def test_dead_values_drops_unreached_nodes_and_inputs():
    g = ops.OpGraph()
    a = g.input("a")
    b = g.input("b")
    g.neg(b)  # dead
    g.forward_ntt(b)  # dead
    g.output("out", g.copy(a))
    plan = g.compile()
    rewritten, ctx = run_pass("dead_values", plan, {"a": PRIMES, "b": PRIMES})
    assert kinds(rewritten) == ["input", "copy"]
    assert rewritten.input_names == ("a",)
    assert ctx.stats["plan.pass.dead_values.values_removed"] == 3


# -------------------------------------------------------- pass: residency


def test_residency_hoists_constant_transform_to_derived_input():
    g = ops.OpGraph()
    x = g.input("x")
    k = g.input("k")
    x_ntt = g.forward_ntt(x)
    k_ntt = g.forward_ntt(k)
    g.output("out", g.inverse_ntt(g.mul(x_ntt, k_ntt)))
    plan = g.compile()
    rewritten, ctx = run_pass(
        "ntt_residency", plan, {"x": PRIMES, "k": PRIMES}, constant_inputs=("k",)
    )
    assert ctx.derived_inputs == {"k@ntt": "k"}
    assert "k@ntt" in rewritten.input_names
    assert kinds(rewritten).count("forward_ntt") == 1  # only x's survives
    assert ctx.stats["plan.pass.ntt_residency.transforms_hoisted"] == 1


def test_residency_splits_constants_out_of_batched_transform():
    # forward(concat(x, k1, k2)): the constant tail hoists, x stays in one
    # transform; the recombining concat preserves row order.
    g = ops.OpGraph()
    x = g.input("x")
    k1 = g.input("k1")
    k2 = g.input("k2")
    stacked = g.concat([x, k1, k2])
    g.output("out", g.copy(g.forward_ntt(stacked)))
    plan = g.compile()
    primes = {"x": PRIMES, "k1": PRIMES, "k2": PRIMES}
    rewritten, ctx = run_pass(
        "ntt_residency", plan, primes, constant_inputs=("k1", "k2")
    )
    assert ctx.stats["plan.pass.ntt_residency.transforms_hoisted"] == 2
    assert kinds(rewritten).count("forward_ntt") == 1
    assert set(ctx.derived_inputs) == {"k1@ntt", "k2@ntt"}


def test_residency_is_noop_without_constants():
    g = ops.OpGraph()
    x = g.input("x")
    g.output("out", g.forward_ntt(x))
    plan = g.compile()
    rewritten, ctx = run_pass("ntt_residency", plan, {"x": PRIMES})
    assert rewritten is plan
    assert not ctx.derived_inputs


# ------------------------------------------------------- pass: batch_ntts


def test_batch_ntts_merges_independent_same_direction_transforms():
    # Three depth-1 transforms: the two forwards share one wide node, the
    # inverse keeps its own (different direction), and the depth-2 inverse
    # of the product is left alone.
    g = ops.OpGraph()
    x, y, z = g.input("x"), g.input("y"), g.input("z")
    product = g.mul(g.forward_ntt(x), g.forward_ntt(y))
    g.output("prod", g.inverse_ntt(product))
    g.output("zc", g.inverse_ntt(z))
    plan = g.compile()
    primes = {"x": PRIMES, "y": PRIMES, "z": PRIMES}
    rewritten, ctx = run_pass("batch_ntts", plan, primes, sweep=True)
    assert kinds(rewritten).count("forward_ntt") == 1
    assert kinds(rewritten).count("inverse_ntt") == 2
    assert ctx.stats["plan.pass.batch_ntts.transforms_merged"] == 1
    [merged] = [node for node in rewritten.nodes if isinstance(node, ops.ForwardNtt)]
    assert isinstance(rewritten.nodes[merged.src], ops.Concat)
    assert count_ntt_rows(rewritten, primes) == count_ntt_rows(plan, primes)
    bindings = {
        name: (rows_for(PRIMES, seed), PRIMES)
        for seed, name in enumerate(("x", "y", "z"), start=1)
    }
    assert scalar_outputs(rewritten, bindings) == scalar_outputs(plan, bindings)
    # At its fixpoint the pass returns the plan itself, as it does when the
    # row counts it would slice members back out by are unknown.
    assert run_pass("batch_ntts", rewritten, primes)[0] is rewritten
    assert run_pass("batch_ntts", plan, {"x": PRIMES})[0] is plan


def test_batch_ntts_never_merges_a_transform_with_its_dependent():
    # b reads a (through a negation): same direction, but b can only run
    # after a, so it must not join a's batch; c is independent of a.
    g = ops.OpGraph()
    x, y = g.input("x"), g.input("y")
    a = g.forward_ntt(x)
    b = g.forward_ntt(g.neg(a))
    c = g.forward_ntt(y)
    g.output("b", b)
    g.output("ac", g.add(a, c))
    plan = g.compile()
    primes = {"x": PRIMES, "y": PRIMES}
    rewritten, _ = run_pass("batch_ntts", plan, primes, sweep=True)
    forwards = [
        index
        for index, node in enumerate(rewritten.nodes)
        if isinstance(node, ops.ForwardNtt)
    ]
    assert len(forwards) == 2  # {a, c} merged, b on its own

    def reaches(value, target):
        return value == target or any(
            reaches(op, target) for op in rewritten.nodes[value].operands()
        )

    first, second = forwards
    assert reaches(second, first)  # b's transform reads the merged batch
    bindings = {"x": (rows_for(PRIMES, 1), PRIMES), "y": (rows_for(PRIMES, 2), PRIMES)}
    assert scalar_outputs(rewritten, bindings) == scalar_outputs(plan, bindings)


def test_batch_ntts_leaves_constant_transforms_to_residency():
    g = ops.OpGraph()
    x, k = g.input("x"), g.input("k")
    g.output("out", g.mul(g.forward_ntt(x), g.forward_ntt(k)))
    plan = g.compile()
    rewritten, _ = run_pass(
        "batch_ntts", plan, {"x": PRIMES, "k": PRIMES}, constant_inputs=("k",)
    )
    assert rewritten is plan


def _raw_plans(monkeypatch, run):
    """The (plan, PassManager.run keywords) of every plan ``run`` compiles."""
    seen = []
    original = PassManager.run

    def spy(self, plan, **kwargs):
        seen.append((plan, kwargs))
        return original(self, plan, **kwargs)

    monkeypatch.setattr(PassManager, "run", spy)
    run()
    monkeypatch.setattr(PassManager, "run", original)
    return seen


def _rounds_to_fixpoint(plan, input_primes, constant_inputs):
    ctx = PassContext(input_primes=input_primes, constant_inputs=constant_inputs)
    for rounds in range(1, 10 * _MAX_ROUNDS):
        before = plan
        for name in DEFAULT_PASSES:
            plan = PASS_REGISTRY[name].rewrite(plan, ctx)
        if plan == before:
            return rounds
    raise AssertionError("default pipeline oscillates")


@pytest.mark.parametrize("bits", (30, 60))
def test_default_pipeline_reaches_fixpoint_within_round_bound(monkeypatch, bits):
    ctx = HeContext.create(PARAMS[bits], backend="numpy", seed=7)
    ct = ctx.encryptor(seed=11).encrypt(ctx.encoder().encode([1, 2, 3]))
    relin = ctx.relinearization_key()

    def run():
        pipe = ctx.pipeline()
        x, y = pipe.load(ct), pipe.load(ct)
        (x * y).relinearize(relin).mod_switch().run()
        bootstrap_circuit(ctx, pipe, ct, seed=5).run()

    compiled = _raw_plans(monkeypatch, run)
    assert len(compiled) == 2
    for plan, kwargs in compiled:
        rounds = _rounds_to_fixpoint(
            plan, kwargs["input_primes"], kwargs["constant_inputs"]
        )
        assert rounds <= _MAX_ROUNDS


def test_batch_ntts_narrows_bootstrap_plan_without_extra_rows():
    ctx = HeContext.create(PARAMS[30], backend="numpy", seed=7)
    ct = ctx.encryptor(seed=11).encrypt(ctx.encoder().encode([1, 2, 3]))
    shapes = {}
    for spec in ("default", ",".join(p for p in DEFAULT_PASSES if p != "batch_ntts")):
        set_default_passes(spec)
        pipe = ctx.pipeline()
        bootstrap_circuit(ctx, pipe, ct, seed=5).run()
        [(plan, _specs, rows, *_rest)] = pipe.evaluator._plan_cache.values()
        transforms = sum(
            isinstance(node, (ops.ForwardNtt, ops.InverseNtt)) for node in plan.nodes
        )
        shapes[spec] = (transforms, rows)
    (merged, merged_rows), (unmerged, unmerged_rows) = shapes.values()
    assert merged_rows == unmerged_rows
    assert merged < unmerged


# ------------------------------------------------- manager and materialise


def test_pass_manager_reaches_fixpoint_and_counts_rows():
    g = ops.OpGraph()
    x = g.input("x")
    roundtrip = g.inverse_ntt(g.forward_ntt(x))
    g.output("out", g.copy(roundtrip))
    plan = g.compile()
    manager = PassManager(DEFAULT_PASSES)
    result = manager.run(plan, input_primes={"x": PRIMES})
    assert count_ntt_rows(result.plan, {"x": PRIMES}) == 0
    assert count_ntt_rows(plan, {"x": PRIMES}) == 2 * len(PRIMES)
    out = scalar_outputs(result.plan, {"x": (rows_for(PRIMES), PRIMES)})
    assert out["out"] == rows_for(PRIMES)


def test_materialize_derived_builds_seeding_variant():
    g = ops.OpGraph()
    x = g.input("x")
    k = g.input("k")
    g.output("out", g.inverse_ntt(g.mul(g.forward_ntt(x), g.forward_ntt(k))))
    plan = g.compile()
    manager = PassManager(DEFAULT_PASSES)
    optimized = manager.run(
        plan, input_primes={"x": PRIMES, "k": PRIMES}, constant_inputs=("k",)
    )
    assert optimized.derived_inputs == (("k@ntt", "k"),)
    input_primes = {"x": PRIMES, "k": PRIMES, "k@ntt": PRIMES}
    cold, const_outputs = materialize_derived(
        optimized.plan, optimized.derived_inputs, input_primes
    )
    assert const_outputs == (("const:k@ntt", "k"),)
    assert set(cold.input_names) == {"x", "k"}
    # The cold plan computes the same "out" AND exports the constant image.
    cold_out = scalar_outputs(
        cold,
        {"x": (rows_for(PRIMES, 1), PRIMES), "k": (rows_for(PRIMES, 2), PRIMES)},
    )
    reference = scalar_outputs(
        plan,
        {"x": (rows_for(PRIMES, 1), PRIMES), "k": (rows_for(PRIMES, 2), PRIMES)},
    )
    assert cold_out["out"] == reference["out"]
    assert "const:k@ntt" in cold_out


# ------------------------------------------------------ selection precedence


def test_parse_passes_spellings():
    assert parse_passes("none") == ()
    assert parse_passes("") == ()
    assert parse_passes("default") == DEFAULT_PASSES
    assert parse_passes("cse, dead_values") == ("cse", "dead_values")
    assert parse_passes(["cse"]) == ("cse",)


def test_unknown_pass_error_lists_registry():
    with pytest.raises(KeyError) as excinfo:
        parse_passes("cse,bogus")
    message = str(excinfo.value)
    for name in available_passes():
        assert name in message
    assert PASSES_ENV_VAR in message
    assert "none" in message


def test_resolve_passes_precedence(monkeypatch):
    monkeypatch.setenv(PASSES_ENV_VAR, "cse")
    assert resolve_passes() == ("cse",)
    set_default_passes("dead_values")
    assert resolve_passes() == ("dead_values",)
    assert resolve_passes("fold_structure") == ("fold_structure",)
    assert resolve_passes("none") == ()
    set_default_passes(None)
    monkeypatch.delenv(PASSES_ENV_VAR)
    assert resolve_passes() == DEFAULT_PASSES


def test_registry_descriptions_cover_every_pass():
    table = dict(pass_descriptions())
    assert set(table) == set(available_passes()) == set(DEFAULT_PASSES)
    assert all(table.values())


# ---------------------------------------------- bit-for-bit equivalence


def chain(evaluator, ct_a, ct_b, relin):
    return evaluator.mod_switch_to_next(
        evaluator.relinearize(evaluator.multiply(ct_a, ct_b), relin)
    )


def test_chain_optimised_bit_identical_and_fewer_ntts(context):
    encryptor = context.encryptor(seed=11)
    encoder = context.encoder()
    relin = context.relinearization_key()
    ct_a = encryptor.encrypt(encoder.encode([1, 2, 3]))
    ct_b = encryptor.encrypt(encoder.encode([4, 5, 6]))

    plain_ev = context.evaluator(passes="none")
    optim_ev = context.evaluator(passes="default")
    assert plain_ev.passes == ()
    assert optim_ev.passes == DEFAULT_PASSES

    expected = chain(plain_ev, ct_a, ct_b, relin)
    cold = chain(optim_ev, ct_a, ct_b, relin)  # seeds the constant pool
    warm = chain(optim_ev, ct_a, ct_b, relin)
    assert coeffs(cold) == coeffs(expected)
    assert coeffs(warm) == coeffs(expected)
    assert warm.level == expected.level

    # Warm executions skip the pooled key transforms: strictly fewer NTT
    # rows per run than the unoptimised evaluator.
    plain_per_run = plain_ev.ntt_invocations
    chain(plain_ev, ct_a, ct_b, relin)
    plain_second = plain_ev.ntt_invocations - plain_per_run
    warm_before = optim_ev.ntt_invocations
    chain(optim_ev, ct_a, ct_b, relin)
    warm_cost = optim_ev.ntt_invocations - warm_before
    assert warm_cost < plain_second
    assert optim_ev.metrics.value("plan.pool.hits") > 0


def test_bootstrap_circuit_optimised_bit_identical(context):
    encryptor = context.encryptor(seed=11)
    encoder = context.encoder()
    ct = encryptor.encrypt(encoder.encode([3, 1, 4, 1, 5]))

    set_default_passes("none")
    plain_pipe = context.pipeline()
    set_default_passes(None)
    optim_pipe = context.pipeline()
    assert plain_pipe.evaluator.passes == ()
    assert optim_pipe.evaluator.passes == DEFAULT_PASSES

    expected = bootstrap_circuit(context, plain_pipe, ct, seed=99).run()
    expr = bootstrap_circuit(context, optim_pipe, ct, seed=99)
    cold = expr.run()
    warm = expr.run()
    assert coeffs(cold) == coeffs(expected)
    assert coeffs(warm) == coeffs(expected)
    assert warm.level == expected.level == 1


def test_every_single_pass_is_bit_identical_to_raw(context):
    encryptor = context.encryptor(seed=11)
    encoder = context.encoder()
    relin = context.relinearization_key()
    ct_a = encryptor.encrypt(encoder.encode([1, 2, 3]))
    ct_b = encryptor.encrypt(encoder.encode([4, 5, 6]))

    def run(spec):
        # The chain and the bootstrap circuit as one two-statement plan,
        # cold (constant pool seeding) and warm.
        set_default_passes(spec)
        pipe = context.pipeline()
        x, y = pipe.load(ct_a), pipe.load(ct_b)
        exprs = [
            (x * y).relinearize(relin).mod_switch(),
            bootstrap_circuit(context, pipe, ct_a, seed=99),
        ]
        return [coeffs(ct) for ct in pipe.run_many(exprs) + pipe.run_many(exprs)]

    expected = run("none")
    for name in available_passes():
        assert run(name) == expected, name


def test_pipeline_plain_ops_match_eager(context):
    """The lazy plaintext chain matches the evaluator's per-op calls, each
    executed eagerly as its own one-op plan."""
    encryptor = context.encryptor(seed=11)
    encoder = context.encoder()
    ct = encryptor.encrypt(encoder.encode([1, 2, 3]))
    plain = encoder.encode([2, 0, 1])

    evaluator = context.evaluator()
    expected = evaluator.add_plain(evaluator.multiply_plain(ct, plain), plain)

    pipe = context.pipeline()
    result = pipe.load(ct).mul_plain(plain).add_plain(plain).run()
    assert coeffs(result) == coeffs(expected)


# ------------------------------------------------------------ constant pool


def test_constant_pool_identity_keyed_lru():
    pool = ConstantPool(max_entries=2)
    a, b, c = object(), object(), object()
    pool.store(a, "A")
    pool.store(b, "B")
    assert pool.lookup(a) == "A"  # refreshes a's recency
    pool.store(c, "C")  # evicts b (least recent)
    assert pool.lookup(b) is None
    assert pool.lookup(a) == "A"
    assert pool.lookup(c) == "C"
    assert len(pool) == 2
    pool.clear()
    assert pool.lookup(a) is None


def test_context_shares_one_pool_across_evaluators():
    ctx = HeContext.create(PARAMS[30], backend="scalar", seed=7)
    encryptor = ctx.encryptor(seed=11)
    encoder = ctx.encoder()
    relin = ctx.relinearization_key()
    ct = encryptor.encrypt(encoder.encode([1, 2, 3]))
    ev1 = ctx.evaluator()
    ev2 = ctx.evaluator()
    product = ev1.multiply(ct, ct)
    ev1.relinearize(product, relin)  # cold: fills the shared pool
    before = ctx.metrics()
    ev2.relinearize(product, relin)  # second evaluator: pool already warm
    diff = HeContext.metrics_diff(before, ctx.metrics())
    assert diff["plan.pool.hits"] > 0
    assert diff.get("plan.pool.misses", 0) == 0


# --------------------------------------------------------------- metrics diff


def test_metrics_diff_headline_keys_always_present():
    diff = HeContext.metrics_diff({}, {})
    assert diff == {
        "pool.dispatches": 0,
        "conversions.rows": 0,
        "ntt.invocations": 0,
        "fallback.rows": 0,
    }
    diff = HeContext.metrics_diff(
        {"ntt.invocations": 10, "histogram": {"p50": 1}},
        {"ntt.invocations": 25, "plan.compiled": 2, "histogram": {"p50": 9}},
    )
    assert diff["ntt.invocations"] == 15
    assert diff["plan.compiled"] == 2
    assert "histogram" not in diff


# --------------------------------------------------- run_many and programs


def test_run_many_shares_subexpressions_in_one_plan(context):
    encryptor = context.encryptor(seed=11)
    encoder = context.encoder()
    relin = context.relinearization_key()
    ct = encryptor.encrypt(encoder.encode([1, 2, 3]))

    pipe = context.pipeline()
    x = pipe.load(ct)
    sq = x.square().relinearize(relin)
    twice = x + x
    switched = sq.mod_switch()
    results = pipe.run_many([sq, twice, switched])
    assert pipe.evaluator.plans_compiled == 1

    raw = context.evaluator(passes="none")
    assert coeffs(results[0]) == coeffs(raw.relinearize(raw.square(ct), relin))
    assert coeffs(results[1]) == coeffs(raw.add(ct, ct))
    assert coeffs(results[2]) == coeffs(
        raw.mod_switch_to_next(raw.relinearize(raw.square(ct), relin))
    )
    assert results[2].level == 1


def test_program_front_end():
    ctx = HeContext.create(PARAMS[30], backend="scalar", seed=7)
    encryptor = ctx.encryptor(seed=11)
    encoder = ctx.encoder()
    relin = ctx.relinearization_key()
    ct = encryptor.encrypt(encoder.encode([1, 2, 3]))

    program = ctx.program()
    x = program.load(ct)
    program.let("sq", x.square().relinearize(relin).mod_switch())
    program.let("twice", x + x)
    assert program.statements == ("sq", "twice")
    with pytest.raises(ValueError, match="already defines"):
        program.let("sq", x)
    results = program.run()
    assert set(results) == {"sq", "twice"}

    raw = ctx.evaluator(passes="none")
    assert coeffs(results["sq"]) == coeffs(
        raw.mod_switch_to_next(raw.relinearize(raw.square(ct), relin))
    )
    assert coeffs(results["twice"]) == coeffs(raw.add(ct, ct))

    empty = ctx.program()
    with pytest.raises(ValueError, match="no statements"):
        empty.run()


def test_run_many_rejects_foreign_and_empty(context):
    pipe = context.pipeline()
    other = context.pipeline()
    encryptor = context.encryptor(seed=11)
    ct = encryptor.encrypt(context.encoder().encode([1]))
    with pytest.raises(ValueError, match="at least one"):
        pipe.run_many([])
    with pytest.raises(ValueError, match="different pipeline"):
        pipe.run_many([other.load(ct)])
    with pytest.raises(TypeError):
        pipe.run_many([ct])


# ------------------------------------------------------------- CLI surface


def test_cli_rejects_unknown_passes_before_mutating(capsys):
    from repro.experiments.__main__ import main

    assert main(["--passes", "bogus", "table2"]) == 2
    err = capsys.readouterr().err
    assert "unknown plan pass" in err
    assert resolve_passes() == DEFAULT_PASSES  # nothing leaked


def test_cli_list_prints_pass_registry(capsys):
    from repro.experiments.__main__ import main

    assert main(["--list"]) == 0
    out = capsys.readouterr().out
    for name in available_passes():
        assert name in out
    assert "plan passes:" in out
