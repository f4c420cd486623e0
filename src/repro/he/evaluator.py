"""Homomorphic operations: addition, multiplication, relinearisation, modulus switching.

Every ciphertext multiplication performed here is, computationally, a batch
of ``np`` negacyclic polynomial multiplications — each of which is the
``iNTT(NTT(a) ⊙ NTT(b))`` pipeline the paper accelerates.  The evaluator is
a *plan emitter*: :meth:`Evaluator.run_many` is the HE layer's one lowering
entry point.  It lowers a set of lazy :class:`CiphertextExpr` statements
into a single declarative :class:`repro.backends.ops.Plan` (compiled once
per expression shape, optimised by :mod:`repro.compiler`, cached) and hands
it to :meth:`~repro.backends.base.ComputeBackend.execute` in one call, so a
sharding backend can fuse the whole computation into one task per worker per
stage — the CPU analogue of the wide-batch kernel launches the paper's GPU
amortises.  Each evaluator method checks its inputs and makes a
one-expression call to it; :class:`~repro.he.pipeline.Pipeline`,
:class:`~repro.compiler.program.HeProgram` and the serving layer's
coalesced batches pass many statements at once.  The plans keep the whole
chain resident:

* relinearisation decomposes the quadratic component into per-prime digits
  with ``digit_broadcast`` nodes (row ``i`` of the coefficient-domain
  residue matrix *is* the digit for prime ``i``);
* modulus switching uses the exact RNS formula
  ``(c_j + t*u_c) * q_last^{-1} mod p_j`` via ``mod_switch_drop_last``
  nodes, where the correction ``u_c`` is read off the dropped residue row
  alone.

A ``multiply → relinearize → mod_switch_to_next`` chain therefore performs
**zero** list ↔ ndarray conversions (asserted by the backend's conversion
counter in the test-suite) and, on the ``parallel`` backend, at most one
pool dispatch per operation (asserted by ``dispatch_count``).

The evaluator also exposes :meth:`Evaluator.ntt_invocations`, the running
count of forward/inverse NTT calls it has triggered, which the examples use
to connect the HE layer to the GPU performance model.
"""

from __future__ import annotations

from collections.abc import Sequence

from ..backends import ops
from ..backends.base import ComputeBackend, ResidueTensor
from ..backends.registry import resolve_backend
from ..compiler import ConstantPool, PassManager, count_ntt_rows
from ..compiler.manager import materialize_derived
from ..telemetry import TRACER
from ..telemetry.metrics import MetricsRegistry
from ..rns.basis import RnsBasis
from ..rns.poly import Domain, RnsPolynomial
from .ciphertext import Ciphertext
from .keys import RelinearizationKey
from .params import HEParams

__all__ = ["CiphertextExpr", "Evaluator"]


class CiphertextExpr:
    """One node of a lazy ciphertext expression.

    Build leaves with :meth:`Pipeline.load <repro.he.pipeline.Pipeline.load>`;
    combine with ``*``, ``+``, ``-``, unary ``-``, :meth:`square`,
    :meth:`relinearize` and :meth:`mod_switch`; execute with :meth:`run`.
    Nodes are immutable and freely shareable between expressions of the
    same pipeline.  :meth:`Evaluator.run_many` lowers them.
    """

    __slots__ = ("pipeline", "kind", "children", "ciphertext", "key", "plaintext")

    def __init__(
        self,
        pipeline,
        kind: str,
        children: tuple["CiphertextExpr", ...] = (),
        ciphertext: Ciphertext | None = None,
        key: RelinearizationKey | None = None,
        plaintext: RnsPolynomial | None = None,
    ) -> None:
        self.pipeline = pipeline
        self.kind = kind
        self.children = children
        self.ciphertext = ciphertext
        self.key = key
        self.plaintext = plaintext

    def _combine(self, other: "CiphertextExpr", kind: str) -> "CiphertextExpr":
        if not isinstance(other, CiphertextExpr):
            return NotImplemented
        if other.pipeline is not self.pipeline:
            raise ValueError(
                "cannot combine expressions from different pipelines — load "
                "both ciphertexts through the same HeContext.pipeline()"
            )
        return CiphertextExpr(self.pipeline, kind, (self, other))

    def __mul__(self, other: "CiphertextExpr") -> "CiphertextExpr":
        return self._combine(other, "multiply")

    def __add__(self, other: "CiphertextExpr") -> "CiphertextExpr":
        return self._combine(other, "add")

    def __sub__(self, other: "CiphertextExpr") -> "CiphertextExpr":
        return self._combine(other, "sub")

    def __neg__(self) -> "CiphertextExpr":
        return CiphertextExpr(self.pipeline, "negate", (self,))

    def square(self) -> "CiphertextExpr":
        """Lazy homomorphic squaring (half the forward NTTs of ``x * x``)."""
        return CiphertextExpr(self.pipeline, "square", (self,))

    def relinearize(self, key: RelinearizationKey) -> "CiphertextExpr":
        """Lazy relinearisation under ``key`` (size 3 back to size 2)."""
        return CiphertextExpr(self.pipeline, "relinearize", (self,), key=key)

    def mod_switch(self) -> "CiphertextExpr":
        """Lazy modulus switch to the next level (drops the last RNS prime)."""
        return CiphertextExpr(self.pipeline, "mod_switch", (self,))

    # Evaluator-style spelling, for symmetry with per-op call sites.
    mod_switch_to_next = mod_switch

    def _with_plain(self, plaintext: RnsPolynomial, kind: str) -> "CiphertextExpr":
        if not isinstance(plaintext, RnsPolynomial):
            raise TypeError(
                "%s expects an RnsPolynomial plaintext, got %r"
                % (kind, type(plaintext).__name__)
            )
        return CiphertextExpr(self.pipeline, kind, (self,), plaintext=plaintext)

    def mul_plain(self, plaintext: RnsPolynomial) -> "CiphertextExpr":
        """Lazy multiplication by an (unencrypted) plaintext polynomial.

        Re-using one encoded plaintext across many expressions (a rotation
        diagonal, a mask) gives it a stable identity, so the optimiser's
        residency pass keeps its NTT image pooled across runs.
        """
        return self._with_plain(plaintext, "multiply_plain")

    def add_plain(self, plaintext: RnsPolynomial) -> "CiphertextExpr":
        """Lazy addition of an (unencrypted) plaintext polynomial."""
        return self._with_plain(plaintext, "add_plain")

    def run(self) -> Ciphertext:
        """Compile (or fetch the cached plan for) this expression and execute it."""
        return self.pipeline.run(self)


def _result_level(expr: CiphertextExpr) -> int:
    # Levels are per-run metadata (not part of the plan signature).
    if expr.kind == "load":
        return expr.ciphertext.level
    level = _result_level(expr.children[0])
    return level + 1 if expr.kind == "mod_switch" else level


class _P:
    """A symbolic polynomial during plan emission: value index + ring metadata."""

    __slots__ = ("value", "domain", "basis")

    def __init__(self, value: int, domain: Domain, basis: RnsBasis) -> None:
        self.value = value
        self.domain = domain
        self.basis = basis


class Evaluator:
    """Homomorphic evaluator for the RNS-BGV scheme.

    Args:
        params: Scheme parameters.
        backend: Compute backend the evaluator batches its residue-matrix
            work through (registry default when omitted, resolved **once** at
            construction).  All backends are bit-exact, so ciphertexts are
            interchangeable across evaluators with different backends —
            ciphertexts resident on a foreign backend are materialised once
            at the boundary (visible in the conversion counters).
    """

    def __init__(
        self,
        params: HEParams,
        backend: ComputeBackend | str | None = None,
        metrics: MetricsRegistry | None = None,
        passes=None,
        constant_pool: ConstantPool | None = None,
    ) -> None:
        self.params = params
        self.backend = resolve_backend(backend)
        #: The evaluator's metrics namespace.  When an ``HeContext`` builds
        #: the evaluator it passes its own registry as the parent, so the
        #: context's snapshot aggregates every evaluator it handed out.
        self.metrics = MetricsRegistry(parent=metrics)
        self.metrics.declare(
            "plan.compiled",
            "plan.cache_hits",
            "ntt.invocations",
            "plan.pool.hits",
            "plan.pool.misses",
        )
        self._plan_cache: dict[tuple, tuple] = {}
        #: Optimiser pipeline resolved once at construction (like the
        #: backend): ``passes`` accepts a spec per
        #: :func:`repro.compiler.resolve_passes`; ``None`` applies the
        #: documented precedence and ``"none"``/``()`` disables rewriting.
        self._pass_manager = PassManager(passes)
        #: NTT images of constant plan inputs (relinearisation keys,
        #: repeated plaintexts).  An ``HeContext`` shares one pool across
        #: every evaluator it hands out, so a key transformed for one
        #: evaluator stays resident for all of them.
        self._constant_pool = (
            constant_pool if constant_pool is not None else ConstantPool()
        )

    @property
    def passes(self) -> tuple[str, ...]:
        """The optimiser passes applied to compiled plans, in order."""
        return self._pass_manager.passes

    # -- bookkeeping -----------------------------------------------------------------
    @property
    def ntt_invocations(self) -> int:
        """Forward/inverse NTT invocations triggered so far (per RNS prime).

        Shim over ``metrics.value("ntt.invocations")``.
        """
        return self.metrics.value("ntt.invocations")

    @property
    def plans_compiled(self) -> int:
        """Distinct operation plans compiled so far."""
        return self.metrics.value("plan.compiled")

    @property
    def plan_cache_hits(self) -> int:
        """Executions that reused an already-compiled plan."""
        return self.metrics.value("plan.cache_hits")

    @staticmethod
    def _check_same_ring(a: Ciphertext, b: Ciphertext) -> None:
        if a.basis.primes != b.basis.primes:
            raise ValueError("ciphertexts are at different levels; mod-switch first")

    @staticmethod
    def _check_plain_ring(a: Ciphertext, plaintext: RnsPolynomial) -> None:
        if a.basis.primes != plaintext.basis.primes or plaintext.n != a.polys[0].n:
            raise ValueError(
                "plaintext lives in a different ring than the ciphertext; "
                "re-encode it for this level first"
            )

    # -- residency plumbing ------------------------------------------------------------
    def _adopt(self, poly: RnsPolynomial) -> RnsPolynomial:
        """The polynomial, resident on this evaluator's backend.

        A no-op (same handle) in the common case; a counted one-time boundary
        crossing when the ciphertext was produced on a different backend.
        """
        return poly.with_backend(self.backend)

    def _poly(self, tensor: ResidueTensor, basis: RnsBasis, domain: Domain) -> RnsPolynomial:
        return RnsPolynomial(basis, self.params.n, tensor, domain)

    # -- the lowering entry point -----------------------------------------------
    def run_many(self, exprs: Sequence[CiphertextExpr]) -> list[Ciphertext]:
        """Lower, compile (cached) and execute expressions as ONE plan.

        The one lowering path: every evaluator method is a one-expression
        call, :meth:`Pipeline.run_many
        <repro.he.pipeline.Pipeline.run_many>` and
        :class:`~repro.compiler.program.HeProgram` pass their statements,
        and the serving layer passes one statement per coalesced request.
        All expressions lower through one memo (shared sub-expressions emit
        once) into a plan cached per structural signature, executed in one
        backend call.  Returns the result ciphertexts in input order.
        """
        ordinals: dict[int, int] = {}
        leaves: list[CiphertextExpr] = []
        keys: list[RelinearizationKey] = []
        plains: list[RnsPolynomial] = []

        def ordinal(obj, bucket: list) -> int:
            index = ordinals.get(id(obj))
            if index is None:
                index = ordinals[id(obj)] = len(bucket)
                bucket.append(obj)
            return index

        def signature(expr: CiphertextExpr) -> tuple:
            # Everything that shapes the compiled plan: the structure, each
            # leaf's ring and component domains, each key's and plaintext's
            # domains (coefficient operands get forward-NTT nodes, resident
            # NTT-domain ones do not).  Runs with equal signatures bind
            # different tensors to one cached plan.
            if expr.kind == "load":
                ct = expr.ciphertext
                return (
                    "load",
                    ordinal(expr, leaves),
                    ct.basis.primes,
                    tuple(poly.domain for poly in ct.polys),
                )
            head: tuple = (expr.kind,)
            if expr.kind == "relinearize":
                head += (
                    ordinal(expr.key, keys),
                    tuple((rk0.domain, rk1.domain) for rk0, rk1 in expr.key.components),
                )
            elif expr.plaintext is not None:
                pt = expr.plaintext
                head += (ordinal(pt, plains), pt.basis.primes, pt.domain)
            return head + tuple(signature(child) for child in expr.children)

        key = tuple(signature(expr) for expr in exprs)

        # Adoption happens per run (bindings always carry tensors resident
        # on the pinned backend), independent of whether the plan is cached.
        # Key components and plaintexts are the cross-run-stable operands:
        # naming them as constants lets the residency pass pool their NTT
        # images across executions of the cached plan.
        named: list[tuple[str, RnsPolynomial]] = []
        for i, leaf in enumerate(leaves):
            named += [
                ("ct%d_%d" % (i, j), self._adopt(poly))
                for j, poly in enumerate(leaf.ciphertext.polys)
            ]
        constants: list[str] = []
        for i, relin_key in enumerate(keys):
            for j, pair in enumerate(relin_key.components):
                for half, poly in zip(("rk0", "rk1"), pair):
                    constants.append("key%d_%s_%d" % (i, half, j))
                    named.append((constants[-1], self._adopt(poly)))
        for i, plain in enumerate(plains):
            constants.append("pt%d" % i)
            named.append((constants[-1], self._adopt(plain)))
        t = self.params.plaintext_modulus

        def build():
            graph = ops.OpGraph()
            sym = {
                name: _P(graph.input(name), poly.domain, poly.basis)
                for name, poly in named
            }
            memo: dict[int, list[_P]] = {}

            def lower(node: CiphertextExpr) -> list[_P]:
                polys = memo.get(id(node))
                if polys is not None:
                    return polys
                kind = node.kind
                args = [lower(child) for child in node.children]
                if kind == "load":
                    leaf = ordinals[id(node)]
                    polys = [
                        sym["ct%d_%d" % (leaf, j)]
                        for j in range(len(node.ciphertext.polys))
                    ]
                elif kind == "multiply":
                    polys = self._emit_multiply(graph, *args)
                elif kind in ("add", "sub"):
                    polys = self._emit_linear(graph, *args, subtract=kind == "sub")
                elif kind == "negate":
                    polys = self._emit_negate(graph, args[0])
                elif kind == "square":
                    polys = self._emit_square(graph, args[0])
                elif kind == "relinearize":
                    k = ordinals[id(node.key)]
                    srk = [
                        (sym["key%d_rk0_%d" % (k, j)], sym["key%d_rk1_%d" % (k, j)])
                        for j in range(len(node.key.components))
                    ]
                    polys = self._emit_relinearize(graph, args[0], srk)
                elif kind == "mod_switch":
                    polys = self._emit_mod_switch(graph, args[0], t)
                elif kind in ("multiply_plain", "add_plain"):
                    pt = sym["pt%d" % ordinals[id(node.plaintext)]]
                    if (
                        args[0][0].basis.primes != pt.basis.primes
                        or node.plaintext.n != self.params.n
                    ):
                        raise ValueError(
                            "plaintext lives in a different ring than the "
                            "ciphertext; re-encode it for this level first"
                        )
                    emit = (
                        self._emit_multiply_plain
                        if kind == "multiply_plain"
                        else self._emit_add_plain
                    )
                    polys = emit(graph, args[0], pt)
                else:
                    raise ValueError("unknown expression kind %r" % kind)
                memo[id(node)] = polys
                return polys

            groups = [lower(expr) for expr in exprs]
            specs = []
            for i, polys in enumerate(groups):
                group = []
                for j, poly in enumerate(polys):
                    name = "out%d_%d" % (i, j)
                    graph.output(name, poly.value)
                    group.append((name, poly.basis, poly.domain))
                specs.append(tuple(group))
            return graph.compile(), tuple(specs)

        bindings = {name: poly.tensor for name, poly in named}
        results = self._run_plan(key, build, bindings, tuple(constants))
        return [
            Ciphertext(polys=polys, params=self.params, level=_result_level(expr))
            for expr, polys in zip(exprs, results)
        ]

    def _run_plan(
        self, key: tuple, build, bindings: dict, constants: tuple = ()
    ) -> list[list[RnsPolynomial]]:
        """Fetch-or-compile the plan for ``key`` and execute it with ``bindings``.

        ``build`` returns ``(plan, per-statement output specs)``; it only
        runs on a cache miss, so repeated executions of the same shape —
        every iteration of a loop over ciphertexts, for instance — compile
        once and execute straight from the cache.  Freshly built plans run
        through the optimiser pipeline (see :mod:`repro.compiler`) before
        caching; ``constants`` names the bindings that are stable across
        executions (key components, repeated plaintexts).  When the
        residency pass hoists their transforms, two variants are cached: a
        *cold* plan that computes the constants' NTT images in-plan (same
        dispatch shape as the unoptimised plan) and exports them to seed the
        constant pool, and the *warm* plan that binds the pooled images and
        skips the transforms — the steady state every later execution runs
        in.
        """
        cached = self._plan_cache.get(key)
        if cached is None:
            if TRACER.enabled:
                with TRACER.span("plan.compile", op=key[0][0]):
                    plan, specs = build()
            else:
                plan, specs = build()
            input_primes = {name: bindings[name].primes for name in plan.input_names}
            derived: tuple = ()
            cold = None
            if self._pass_manager.passes:
                optimized = self._pass_manager.run(
                    plan,
                    input_primes=input_primes,
                    constant_inputs=constants,
                    metrics=self.metrics,
                )
                plan = optimized.plan
                derived = optimized.derived_inputs
                for derived_name, source in derived:
                    input_primes[derived_name] = input_primes[source]
                if derived:
                    cold_plan, const_outputs = materialize_derived(
                        plan, derived, input_primes
                    )
                    cold = (
                        cold_plan,
                        count_ntt_rows(cold_plan, input_primes),
                        const_outputs,
                    )
            # ntt.invocations reports transforms actually executed: the
            # static row count of the plan as optimised, not as emitted.
            ntt_rows = count_ntt_rows(plan, input_primes)
            cached = (plan, specs, ntt_rows, derived, cold)
            self._plan_cache[key] = cached
            self.metrics.inc("plan.compiled")
        else:
            self.metrics.inc("plan.cache_hits")
        plan, specs, ntt_rows, derived, cold = cached
        if derived:
            pooled: dict[str, ResidueTensor] = {}
            for derived_name, source in derived:
                image = self._constant_pool.lookup(bindings[source])
                if image is None:
                    pooled.clear()
                    break
                pooled[derived_name] = image
            if pooled:
                self.metrics.inc("plan.pool.hits", len(derived))
                bindings = dict(bindings)
                bindings.update(pooled)
            else:
                # Cold start: one execution of the seeding variant fills the
                # pool; dispatch count and bit-level results match the
                # unoptimised plan exactly.
                self.metrics.inc("plan.pool.misses", len(derived))
                plan, ntt_rows, const_outputs = cold
                outputs = self.backend.execute(plan, bindings)
                for output_name, source in const_outputs:
                    self._constant_pool.store(bindings[source], outputs[output_name])
                self.metrics.inc("ntt.invocations", ntt_rows)
                return self._unpack(specs, outputs)
        outputs = self.backend.execute(plan, bindings)
        self.metrics.inc("ntt.invocations", ntt_rows)
        return self._unpack(specs, outputs)

    def _unpack(self, specs: tuple, outputs: dict) -> list[list[RnsPolynomial]]:
        return [
            [self._poly(outputs[name], basis, domain) for name, basis, domain in group]
            for group in specs
        ]

    # -- emission helpers -------------------------------------------------------------
    @staticmethod
    def _emit_ntt_batch(
        graph: ops.OpGraph, polys: Sequence[_P], forward: bool
    ) -> list[_P]:
        """Emit one batched transform covering every pending polynomial.

        This is the paper's core batching observation applied at the HE
        layer: the ``(number of polynomials) x np`` independent transforms of
        a ciphertext operation become one wide node instead of one polynomial
        at a time.  Values still in the source domain are concatenated into
        one transform node and split back; values already converted pass
        through untouched.
        """
        source = Domain.COEFFICIENT if forward else Domain.NTT
        target = Domain.NTT if forward else Domain.COEFFICIENT
        results = list(polys)
        pending = [i for i, poly in enumerate(results) if poly.domain is source]
        if not pending:
            return results
        transform = graph.forward_ntt if forward else graph.inverse_ntt
        if len(pending) == 1:
            pieces = [transform(results[pending[0]].value)]
        else:
            stacked = graph.concat([results[i].value for i in pending])
            pieces = graph.split(
                transform(stacked), [results[i].basis.count for i in pending]
            )
        for i, piece in zip(pending, pieces):
            results[i] = _P(piece, target, results[i].basis)
        return results

    @staticmethod
    def _emit_poly_add(graph: ops.OpGraph, x: _P, y: _P) -> _P:
        Evaluator._check_emit_compatible(x, y)
        return _P(graph.add(x.value, y.value), x.domain, x.basis)

    @staticmethod
    def _emit_poly_sub(graph: ops.OpGraph, x: _P, y: _P) -> _P:
        Evaluator._check_emit_compatible(x, y)
        return _P(graph.sub(x.value, y.value), x.domain, x.basis)

    @staticmethod
    def _check_emit_compatible(x: _P, y: _P) -> None:
        # Mirrors RnsPolynomial._check_compatible for symbolic polynomials.
        if x.basis.primes != y.basis.primes:
            raise ValueError("polynomials live in different rings")
        if x.domain is not y.domain:
            raise ValueError(
                "domain mismatch: %s vs %s — convert explicitly first"
                % (x.domain.value, y.domain.value)
            )

    def _emit_tensor(
        self, graph: ops.OpGraph, a_ntt: Sequence[_P], b_ntt: Sequence[_P]
    ) -> list[_P]:
        """NTT-domain tensor product, returned in the coefficient domain."""
        basis = a_ntt[0].basis
        result_size = len(a_ntt) + len(b_ntt) - 1
        accumulators: list[int | None] = [None] * result_size
        for i, poly_a in enumerate(a_ntt):
            for j, poly_b in enumerate(b_ntt):
                term = graph.mul(poly_a.value, poly_b.value)
                k = i + j
                accumulators[k] = (
                    term
                    if accumulators[k] is None
                    else graph.add(accumulators[k], term)
                )
        products = [_P(value, Domain.NTT, basis) for value in accumulators]
        return self._emit_ntt_batch(graph, products, forward=False)

    def _emit_multiply(
        self, graph: ops.OpGraph, sa: Sequence[_P], sb: Sequence[_P]
    ) -> list[_P]:
        if sa[0].basis.primes != sb[0].basis.primes:
            raise ValueError("ciphertexts are at different levels; mod-switch first")
        transformed = self._emit_ntt_batch(graph, list(sa) + list(sb), forward=True)
        return self._emit_tensor(graph, transformed[: len(sa)], transformed[len(sa) :])

    def _emit_square(self, graph: ops.OpGraph, sa: Sequence[_P]) -> list[_P]:
        a_ntt = self._emit_ntt_batch(graph, list(sa), forward=True)
        return self._emit_tensor(graph, a_ntt, a_ntt)

    def _emit_linear(
        self, graph: ops.OpGraph, sa: Sequence[_P], sb: Sequence[_P], subtract: bool
    ) -> list[_P]:
        if sa[0].basis.primes != sb[0].basis.primes:
            raise ValueError("ciphertexts are at different levels; mod-switch first")
        combine = self._emit_poly_sub if subtract else self._emit_poly_add
        polys = []
        for index in range(max(len(sa), len(sb))):
            if index < len(sa) and index < len(sb):
                polys.append(combine(graph, sa[index], sb[index]))
            elif index < len(sa):
                poly = sa[index]
                polys.append(_P(graph.copy(poly.value), poly.domain, poly.basis))
            else:
                poly = sb[index]
                value = graph.neg(poly.value) if subtract else graph.copy(poly.value)
                polys.append(_P(value, poly.domain, poly.basis))
        return polys

    @staticmethod
    def _emit_negate(graph: ops.OpGraph, sa: Sequence[_P]) -> list[_P]:
        return [_P(graph.neg(p.value), p.domain, p.basis) for p in sa]

    def _emit_relinearize(
        self, graph: ops.OpGraph, sa: Sequence[_P], srk: Sequence[tuple[_P, _P]]
    ) -> list[_P]:
        if len(sa) == 2:
            return [_P(graph.copy(p.value), p.domain, p.basis) for p in sa]
        if len(sa) != 3:
            raise ValueError("relinearisation supports size-3 ciphertexts only")
        basis = sa[0].basis
        if len(srk) != len(basis):
            raise ValueError("relinearisation key was generated for a different basis")
        c0, c1, c2 = sa
        c2_coeff = self._emit_ntt_batch(graph, [c2], forward=False)[0]
        acc0: int | None = None
        acc1: int | None = None
        for index, (rk0, rk1) in enumerate(srk):
            digit = _P(
                graph.digit_broadcast(c2_coeff.value, index),
                Domain.COEFFICIENT,
                basis,
            )
            digit_ntt, rk0_ntt, rk1_ntt = self._emit_ntt_batch(
                graph, [digit, rk0, rk1], forward=True
            )
            term0 = graph.mul(digit_ntt.value, rk0_ntt.value)
            term1 = graph.mul(digit_ntt.value, rk1_ntt.value)
            acc0 = term0 if acc0 is None else graph.add(acc0, term0)
            acc1 = term1 if acc1 is None else graph.add(acc1, term1)
        sum0, sum1 = self._emit_ntt_batch(
            graph,
            [_P(acc0, Domain.NTT, basis), _P(acc1, Domain.NTT, basis)],
            forward=False,
        )
        return [
            self._emit_poly_add(graph, c0, sum0),
            self._emit_poly_add(graph, c1, sum1),
        ]

    def _emit_mod_switch(self, graph: ops.OpGraph, sa: Sequence[_P], t: int) -> list[_P]:
        basis = sa[0].basis
        if len(basis) < 2:
            raise ValueError("cannot modulus-switch below a single prime")
        if basis.primes[-1] % t != 1:
            raise ValueError("modulus switching requires q_last ≡ 1 (mod t)")
        coeffs = self._emit_ntt_batch(graph, list(sa), forward=False)
        new_basis = basis.drop_last(1)
        return [
            _P(
                graph.mod_switch_drop_last(poly.value, t),
                Domain.COEFFICIENT,
                new_basis,
            )
            for poly in coeffs
        ]

    def _emit_add_plain(self, graph: ops.OpGraph, sa: Sequence[_P], pt: _P) -> list[_P]:
        return [self._emit_poly_add(graph, sa[0], pt)] + [
            _P(graph.copy(p.value), p.domain, p.basis) for p in sa[1:]
        ]

    def _emit_multiply_plain(
        self, graph: ops.OpGraph, sa: Sequence[_P], pt: _P
    ) -> list[_P]:
        basis = sa[0].basis
        transformed = self._emit_ntt_batch(graph, list(sa) + [pt], forward=True)
        plaintext_ntt = transformed[-1]
        products = [
            _P(graph.mul(poly.value, plaintext_ntt.value), Domain.NTT, basis)
            for poly in transformed[:-1]
        ]
        return self._emit_ntt_batch(graph, products, forward=False)

    def _run_one(self, kind: str, *operands: Ciphertext, **attrs) -> Ciphertext:
        """One operation: a one-expression :meth:`run_many` call."""
        leaves = tuple(CiphertextExpr(None, "load", ciphertext=ct) for ct in operands)
        return self.run_many([CiphertextExpr(None, kind, leaves, **attrs)])[0]

    # -- linear operations ---------------------------------------------------------------
    def add(self, a: Ciphertext, b: Ciphertext) -> Ciphertext:
        """Homomorphic addition (component-wise)."""
        self._check_same_ring(a, b)
        return self._run_one("add", a, b)

    def sub(self, a: Ciphertext, b: Ciphertext) -> Ciphertext:
        """Homomorphic subtraction."""
        self._check_same_ring(a, b)
        return self._run_one("sub", a, b)

    def negate(self, a: Ciphertext) -> Ciphertext:
        """Homomorphic negation."""
        return self._run_one("negate", a)

    def add_plain(self, a: Ciphertext, plaintext: RnsPolynomial) -> Ciphertext:
        """Add an (unencrypted) plaintext polynomial."""
        self._check_plain_ring(a, plaintext)
        return self._run_one("add_plain", a, plaintext=plaintext)

    def multiply_plain(self, a: Ciphertext, plaintext: RnsPolynomial) -> Ciphertext:
        """Multiply by an (unencrypted) plaintext polynomial.

        The plaintext is transformed once (not once per ciphertext
        component), in the same batched forward call as the components.
        Callers re-use encoded plaintexts across many ciphertexts, so the
        residency pass keeps its NTT image pooled across executions.
        """
        self._check_plain_ring(a, plaintext)
        return self._run_one("multiply_plain", a, plaintext=plaintext)

    # -- multiplication -------------------------------------------------------------------
    def multiply(self, a: Ciphertext, b: Ciphertext) -> Ciphertext:
        """Homomorphic multiplication (tensor product, result has size a.size + b.size - 1).

        Both operands' components are converted to the NTT domain in one
        batched backend call of ``(a.size + b.size) * np`` rows, multiplied
        element-wise, accumulated, and inverse-transformed in one batch of
        ``(a.size + b.size - 1) * np`` rows — the double-CRT strategy every
        RNS HE library uses, executed at the batch width the paper shows the
        hardware wants.  The whole operation is one compiled plan: a single
        ``execute`` call, one pool dispatch on the sharded backend.
        """
        self._check_same_ring(a, b)
        return self._run_one("multiply", a, b)

    def square(self, a: Ciphertext) -> Ciphertext:
        """Homomorphic squaring.

        The operand is forward-transformed *once* and tensored with itself —
        half the forward NTTs of ``multiply(a, a)``, which
        :attr:`ntt_invocations` reflects.
        """
        return self._run_one("square", a)

    # -- relinearisation ---------------------------------------------------------------------
    def relinearize(self, a: Ciphertext, relin_key: RelinearizationKey) -> Ciphertext:
        """Reduce a size-3 ciphertext back to size 2 using the key-switching key.

        The RNS digit decomposition never reconstructs big integers: row ``i``
        of the coefficient-domain residue matrix of ``c2`` *is* ``c2 mod q_i``
        already reduced, so the ``digit_broadcast`` node re-reduces that
        single resident row across the basis to form the digit paired with
        key component ``i``.  The per-prime digit products are accumulated in
        the NTT domain and inverse-transformed once at the end (NTT linearity
        makes this bit-identical to per-product inverse transforms, at ``np``
        times fewer inverse NTTs).  The whole key switch is one plan — on
        the sharded backend one dispatch, with the digit rows read straight
        out of shared memory by every worker.  Key components are
        cached on the context, so their tensors keep a stable identity and
        the residency pass keeps their forward transforms pooled.
        """
        if a.size == 2:
            return a.copy()
        if a.size != 3:
            raise ValueError("relinearisation supports size-3 ciphertexts only")
        if len(relin_key.components) != len(a.basis):
            raise ValueError("relinearisation key was generated for a different basis")
        return self._run_one("relinearize", a, key=relin_key)

    # -- modulus switching --------------------------------------------------------------------
    def mod_switch_to_next(self, a: Ciphertext) -> Ciphertext:
        """Drop the last RNS prime, scaling the ciphertext (and its noise) down.

        Requires the dropped prime ``q ≡ 1 (mod t)`` (guaranteed by
        :func:`repro.he.params.generate_bgv_primes`), which keeps the
        plaintext unchanged.  Each coefficient ``c`` is replaced by
        ``(c + δ) / q`` with ``δ ≡ -c (mod q)`` and ``δ ≡ 0 (mod t)`` —
        computed entirely in RNS by ``mod_switch_drop_last`` nodes, since
        ``δ`` depends only on the dropped residue row and the division
        becomes a per-prime multiplication by ``q^{-1} mod p_j``.  All
        components switch in one plan (one dispatch on the sharded
        backend, each worker reading the dropped row from shared memory).
        """
        basis = a.basis
        if len(basis) < 2:
            raise ValueError("cannot modulus-switch below a single prime")
        t = self.params.plaintext_modulus
        q_last = basis.primes[-1]
        if q_last % t != 1:
            raise ValueError("modulus switching requires q_last ≡ 1 (mod t)")
        return self._run_one("mod_switch", a)
