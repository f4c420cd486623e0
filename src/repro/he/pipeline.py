"""Lazy ciphertext expressions: whole evaluator chains compiled into one plan.

Where each fused :class:`repro.he.evaluator.Evaluator` method compiles one
homomorphic operation, this module goes one level further — the way a GPU
runtime captures a stream of kernels into a replayable graph.  A
:class:`Pipeline` (built by :meth:`repro.he.context.HeContext.pipeline`)
wraps ciphertexts into lazy :class:`CiphertextExpr` nodes; arithmetic on
them records structure instead of computing, and :meth:`CiphertextExpr.run`
lowers the whole expression — through the evaluator's one lowering entry
point, :meth:`Evaluator.run_many` — into **one**
:class:`~repro.backends.ops.Plan` executed in a single
:meth:`~repro.backends.base.ComputeBackend.execute` call::

    pipe = ctx.pipeline()
    a, b = pipe.load(ct_a), pipe.load(ct_b)
    result = (a * b).relinearize(ctx.relinearization_key()).mod_switch().run()

On the ``parallel`` backend the plan executes as fused per-worker stages:
the chain above costs **three** pool dispatches (the two cross-row steps —
digit decomposition and modulus switching — each start a new stage) instead
of the ten-plus round trips of one backend method call per step, with
every intermediate tensor staying in worker memory.  Compilation happens
once per expression *shape*: re-running the same chain over fresh ciphertexts reuses the cached
plan (see :attr:`Evaluator.plan_cache_hits`).

Expressions are ordinary immutable DAG nodes — sharing a sub-expression
(``x = a * b; (x + x).run()``) emits it once.
"""

from __future__ import annotations

from .ciphertext import Ciphertext
from .evaluator import CiphertextExpr, Evaluator

__all__ = ["CiphertextExpr", "Pipeline"]


class Pipeline:
    """Compiles fluent ciphertext expressions into single fused plans.

    One pipeline owns one :class:`~repro.he.evaluator.Evaluator` (and with
    it one plan cache): every distinct expression shape compiles exactly
    once per pipeline, and each :meth:`run` is exactly one backend
    ``execute`` call.

    Args:
        context: The :class:`~repro.he.context.HeContext` whose pinned
            backend and parameters the pipeline executes against.
    """

    def __init__(self, context) -> None:
        self.context = context
        self.evaluator: Evaluator = context.evaluator()

    def load(self, ciphertext: Ciphertext) -> CiphertextExpr:
        """Wrap a ciphertext as a lazy expression leaf."""
        if not isinstance(ciphertext, Ciphertext):
            raise TypeError(
                "Pipeline.load expects a Ciphertext, got %r"
                % type(ciphertext).__name__
            )
        return CiphertextExpr(self, "load", ciphertext=ciphertext)

    def run(self, expr: CiphertextExpr) -> Ciphertext:
        """Lower, compile (cached) and execute an expression in one backend call."""
        return self.run_many([expr])[0]

    def run_many(self, exprs) -> list[Ciphertext]:
        """Lower, compile (cached) and execute many expressions as ONE plan.

        Validates that every expression belongs to this pipeline, then hands
        them to :meth:`Evaluator.run_many` — the engine behind
        :class:`repro.compiler.program.HeProgram`.  Returns the result
        ciphertexts in input order.
        """
        exprs = list(exprs)
        if not exprs:
            raise ValueError("run_many needs at least one expression")
        for expr in exprs:
            if not isinstance(expr, CiphertextExpr):
                raise TypeError(
                    "run_many expects CiphertextExpr values, got %r"
                    % type(expr).__name__
                )
            if expr.pipeline is not self:
                raise ValueError("expression belongs to a different pipeline")
        return self.evaluator.run_many(exprs)
