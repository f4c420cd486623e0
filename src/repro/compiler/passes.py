"""The optimiser passes: named, independently-testable plan rewrites.

Each pass is a pure function ``(plan, PassContext) -> plan`` over the
:mod:`repro.backends.ops` SSA IR, registered under a stable name with a
one-line description (the experiments CLI's ``--list`` prints the table).
All of them share one discipline, enforced by :class:`_Rewriter`:

* **Never alias into an output slot.**  The IR explicitly permits a backend
  to return input handles unchanged, so the emitters insert ``Copy`` nodes
  where callers need fresh storage.  A pass that forwards a value into an
  output position therefore materialises a ``Copy`` there — internal reads
  alias freely (reads are side-effect free on every backend), outputs never
  do.
* **Preserve batching.**  The emitted plans' performance shape is
  ``Concat -> transform -> SliceRows`` wide batches; a rewrite that breaks
  one wide transform into per-row transforms would "win" the node count
  while losing the paper's headline batching effect.  Partial rewrites
  (cancelling or hoisting *some* rows of a batch) keep the surviving rows
  grouped in a single transform node, and :func:`batch_ntts` goes the other
  way, merging independent transforms into one wider batch.
* **Return the input plan unchanged when nothing applies** — the manager
  detects the fixpoint structurally.

The passes rely on one piece of NTT mathematics: the transforms are
*row-wise* (each residue row transforms independently), so they commute
with the row-shuffling nodes —
``SliceRows(InverseNtt(y), a, b) == InverseNtt(SliceRows(y, a, b))`` and
``T(Concat(xs)) == Concat(T(x) for x in xs)``.  That is what lets
:func:`cancel_ntt_pairs` see through the slice/concat plumbing the batching
emitters wrap around every transform.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from ..backends import ops

__all__ = [
    "PASS_REGISTRY",
    "PassContext",
    "PlanPass",
    "available_passes",
    "pass_descriptions",
    "register_pass",
]


class PassContext:
    """Shared state for one optimisation run (all passes, all rounds).

    Attributes:
        input_primes: Per-input modulus tuples when the caller knows them
            (bindings are in hand at compile time).  Row-count-dependent
            folds are skipped for values whose counts cannot be derived.
        constant_inputs: Input names whose bound tensors are stable across
            executions of the plan (relinearisation-key components, repeated
            plaintexts) — the values :func:`ntt_residency` may hoist.
        derived_inputs: ``{derived name: source name}`` for inputs invented
            by :func:`ntt_residency`; the evaluator binds each derived name
            to the NTT image of the source tensor via the constant pool.
        stats: Telemetry counters (``plan.pass.<pass>.<stat>``) accumulated
            across every pass application of the run.
    """

    def __init__(self, input_primes=None, constant_inputs=()) -> None:
        self.input_primes: dict[str, tuple[int, ...]] = {
            name: tuple(primes) for name, primes in dict(input_primes or {}).items()
        }
        self.constant_inputs = frozenset(constant_inputs)
        self.derived_inputs: dict[str, str] = {}
        self.stats: dict[str, int] = {}

    def add_derived(self, derived: str, source: str) -> None:
        self.derived_inputs[derived] = source
        if source in self.input_primes:
            self.input_primes[derived] = self.input_primes[source]

    def tally(self, pass_name: str, stat: str, amount: int = 1) -> None:
        key = "plan.pass.%s.%s" % (pass_name, stat)
        self.stats[key] = self.stats.get(key, 0) + amount


@dataclass(frozen=True)
class PlanPass:
    """A registered rewrite: name, one-line description, the function."""

    name: str
    description: str
    rewrite: Callable


PASS_REGISTRY: dict[str, PlanPass] = {}


def register_pass(name: str, description: str):
    def decorate(fn):
        PASS_REGISTRY[name] = PlanPass(name, description, fn)
        return fn

    return decorate


def available_passes() -> tuple[str, ...]:
    """Registered pass names, in registration (default-pipeline) order."""
    return tuple(PASS_REGISTRY)


def pass_descriptions() -> list[tuple[str, str]]:
    """``(name, one-line description)`` for every registered pass."""
    return [(p.name, p.description) for p in PASS_REGISTRY.values()]


def _with_operands(node: ops.OpNode, operands: tuple[int, ...]) -> ops.OpNode:
    """The same node with its operand indices replaced (attributes kept)."""
    if isinstance(node, ops.Input):
        return node
    if isinstance(node, (ops.ForwardNtt, ops.InverseNtt, ops.Neg, ops.Copy)):
        return type(node)(operands[0])
    if isinstance(node, (ops.Add, ops.Sub, ops.Mul)):
        return type(node)(operands[0], operands[1])
    if isinstance(node, ops.ScalarMul):
        return ops.ScalarMul(operands[0], node.scalar)
    if isinstance(node, ops.Concat):
        return ops.Concat(tuple(operands))
    if isinstance(node, ops.SliceRows):
        return ops.SliceRows(operands[0], node.start, node.stop)
    if isinstance(node, ops.DigitBroadcast):
        return ops.DigitBroadcast(operands[0], node.index)
    if isinstance(node, ops.ModSwitchDropLast):
        return ops.ModSwitchDropLast(operands[0], node.plaintext_modulus)
    raise ops._unknown_node_error(node)


class _Rewriter:
    """Forward-scan plan rebuilder shared by every pass.

    Keeps two maps from old value indices into the plan under construction:
    ``read_map`` (what consumers read — aliases freely) and ``out_map``
    (what output slots reference — an aliased value that is also an output
    gets a fresh ``Copy`` so the no-aliased-outputs contract holds).  Row
    counts of new values are tracked where statically known, enabling the
    count-dependent folds.
    """

    def __init__(self, plan: ops.Plan, ctx: PassContext) -> None:
        self.plan = plan
        self.ctx = ctx
        self.output_values = {index for _, index in plan.outputs}
        self.nodes: list[ops.OpNode] = []
        self.counts: list[int | None] = []
        self.read_map: dict[int, int] = {}
        self.out_map: dict[int, int] = {}

    def emit(self, node: ops.OpNode) -> int:
        self.nodes.append(node)
        self.counts.append(self._count_of(node))
        return len(self.nodes) - 1

    def _count_of(self, node: ops.OpNode) -> int | None:
        if isinstance(node, ops.Input):
            primes = self.ctx.input_primes.get(node.name)
            return None if primes is None else len(primes)
        if isinstance(node, ops.SliceRows):
            return node.stop - node.start
        if isinstance(node, ops.Concat):
            total = 0
            for src in node.srcs:
                count = self.counts[src]
                if count is None:
                    return None
                total += count
            return total
        if isinstance(node, (ops.Add, ops.Sub, ops.Mul)):
            count = self.counts[node.a]
            return count if count is not None else self.counts[node.b]
        if isinstance(node, ops.ModSwitchDropLast):
            count = self.counts[node.src]
            return None if count is None else count - 1
        operands = node.operands()
        return self.counts[operands[0]] if operands else None

    def read(self, old: int) -> int:
        return self.read_map[old]

    def mapped(self, node: ops.OpNode) -> tuple[int, ...]:
        return tuple(self.read_map[op] for op in node.operands())

    def keep(self, old: int, node: ops.OpNode) -> int:
        """Emit a (rewritten) node for old value ``old``."""
        new = self.emit(node)
        self.read_map[old] = new
        self.out_map[old] = new
        return new

    def alias(self, old: int, new: int) -> None:
        """Old value ``old`` now reads existing value ``new`` (no new node).

        If ``old`` is an output, a ``Copy`` is materialised for the output
        slot so the plan never returns an aliased handle it did not before.
        """
        self.read_map[old] = new
        if old in self.output_values:
            self.out_map[old] = self.emit(ops.Copy(new))
        else:
            self.out_map[old] = new

    def resolve(self, new: int) -> int:
        """Follow ``Copy`` chains in the new plan to the underlying value."""
        node = self.nodes[new]
        while isinstance(node, ops.Copy):
            new = node.src
            node = self.nodes[new]
        return new

    def finish(self) -> ops.Plan:
        outputs = tuple(
            (name, self.out_map[index]) for name, index in self.plan.outputs
        )
        rebuilt = ops.Plan(tuple(self.nodes), outputs)
        return self.plan if rebuilt == self.plan else rebuilt


def _emit_grouped_transform(
    rw: _Rewriter, transform: type, run: list[int]
) -> int:
    """One transform node over a (re-batched) run of concat parts."""
    if len(run) == 1:
        return rw.emit(transform(run[0]))
    return rw.emit(transform(rw.emit(ops.Concat(tuple(run)))))


@register_pass(
    "cancel_ntt_pairs",
    "cancel inverse(forward(x)) / forward(inverse(x)) transform pairs, "
    "including per-row through the batching concat/slice plumbing",
)
def cancel_ntt_pairs(plan: ops.Plan, ctx: PassContext) -> ops.Plan:
    rw = _Rewriter(plan, ctx)

    def cancel_target(value: int, opposite: type) -> int | None:
        """New value equal to transforming ``value``, if it round-trips.

        ``T(T'(y)) == y`` directly, and — transforms being row-wise —
        ``T(SliceRows(T'(y), a, b)) == SliceRows(y, a, b)``.
        """
        base = rw.resolve(value)
        node = rw.nodes[base]
        if isinstance(node, opposite):
            return rw.resolve(node.src)
        if isinstance(node, ops.SliceRows):
            inner = rw.resolve(node.src)
            inner_node = rw.nodes[inner]
            if isinstance(inner_node, opposite):
                return rw.emit(
                    ops.SliceRows(rw.resolve(inner_node.src), node.start, node.stop)
                )
        return None

    for index, node in enumerate(plan.nodes):
        if not isinstance(node, (ops.ForwardNtt, ops.InverseNtt)):
            rw.keep(index, _with_operands(node, rw.mapped(node)))
            continue
        transform = type(node)
        opposite = ops.InverseNtt if transform is ops.ForwardNtt else ops.ForwardNtt
        src = rw.read(node.src)
        target = cancel_target(src, opposite)
        if target is not None:
            ctx.tally("cancel_ntt_pairs", "pairs_cancelled")
            rw.alias(index, target)
            continue
        base = rw.resolve(src)
        base_node = rw.nodes[base]
        if isinstance(base_node, ops.Concat):
            targets = [cancel_target(part, opposite) for part in base_node.srcs]
            if any(target is not None for target in targets):
                # Cancel the round-tripping parts; keep the surviving parts
                # grouped in (at most a few) wide transforms so the batch
                # structure the emitters built is preserved.
                segments: list[int] = []
                run: list[int] = []
                for part, target in zip(base_node.srcs, targets):
                    if target is None:
                        run.append(part)
                        continue
                    if run:
                        segments.append(_emit_grouped_transform(rw, transform, run))
                        run = []
                    segments.append(target)
                if run:
                    segments.append(_emit_grouped_transform(rw, transform, run))
                ctx.tally(
                    "cancel_ntt_pairs",
                    "pairs_cancelled",
                    sum(target is not None for target in targets),
                )
                if len(segments) == 1:
                    rw.alias(index, segments[0])
                else:
                    rw.keep(index, ops.Concat(tuple(segments)))
                continue
        rw.keep(index, transform(src))
    return rw.finish()


@register_pass(
    "fold_structure",
    "collapse copy chains, fold slice-of-concat / full-range slices and "
    "flatten nested concats (the data-movement cleanup other passes expose)",
)
def fold_structure(plan: ops.Plan, ctx: PassContext) -> ops.Plan:
    rw = _Rewriter(plan, ctx)
    for index, node in enumerate(plan.nodes):
        mapped = rw.mapped(node)
        if isinstance(node, ops.Copy):
            # Copy propagation: internal consumers read the source directly
            # (alias() re-materialises a Copy where an output needs one).
            if index not in rw.output_values:
                ctx.tally("fold_structure", "copies_forwarded")
            rw.alias(index, mapped[0])
            continue
        if isinstance(node, ops.Concat):
            parts: list[int] = []
            for src in mapped:
                inner = rw.nodes[src]
                if isinstance(inner, ops.Concat):
                    ctx.tally("fold_structure", "concats_flattened")
                    parts.extend(inner.srcs)
                else:
                    parts.append(src)
            if len(parts) == 1:
                ctx.tally("fold_structure", "concats_folded")
                rw.alias(index, parts[0])
            else:
                rw.keep(index, ops.Concat(tuple(parts)))
            continue
        if isinstance(node, ops.SliceRows):
            src, start, stop = mapped[0], node.start, node.stop
            inner = rw.nodes[src]
            if (
                isinstance(inner, ops.SliceRows)
                and 0 <= start <= stop <= inner.stop - inner.start
            ):
                ctx.tally("fold_structure", "slices_composed")
                start, stop = inner.start + start, inner.start + stop
                src = inner.src
                inner = rw.nodes[src]
            count = rw.counts[src]
            if count is not None and (start, stop) == (0, count):
                ctx.tally("fold_structure", "slices_folded")
                rw.alias(index, src)
                continue
            if isinstance(inner, ops.Concat):
                # Fold a slice that lands exactly on one concat segment.
                offset = 0
                target = None
                for part in inner.srcs:
                    part_count = rw.counts[part]
                    if part_count is None:
                        break
                    if offset == start and offset + part_count == stop:
                        target = part
                        break
                    offset += part_count
                if target is not None:
                    ctx.tally("fold_structure", "slices_folded")
                    rw.alias(index, target)
                    continue
            rw.keep(index, ops.SliceRows(src, start, stop))
            continue
        rw.keep(index, _with_operands(node, mapped))
    return rw.finish()


def _cse_key(node: ops.OpNode, mapped: tuple[int, ...]) -> tuple:
    if isinstance(node, (ops.Add, ops.Mul)):
        # Modular add/mul commute exactly — canonicalise the operand order.
        a, b = mapped
        return (node.kind, (a, b) if a <= b else (b, a))
    if isinstance(node, ops.ScalarMul):
        return (node.kind, mapped[0], node.scalar)
    if isinstance(node, ops.SliceRows):
        return (node.kind, mapped[0], node.start, node.stop)
    if isinstance(node, ops.DigitBroadcast):
        return (node.kind, mapped[0], node.index)
    if isinstance(node, ops.ModSwitchDropLast):
        return (node.kind, mapped[0], node.plaintext_modulus)
    return (node.kind,) + tuple(mapped)


@register_pass(
    "cse",
    "merge structurally identical values (commutative-aware), deduplicating "
    "repeated transforms and products across fused expressions",
)
def cse(plan: ops.Plan, ctx: PassContext) -> ops.Plan:
    rw = _Rewriter(plan, ctx)
    seen: dict[tuple, int] = {}
    for index, node in enumerate(plan.nodes):
        if isinstance(node, ops.Copy):
            # A Copy exists precisely to produce distinct storage — merging
            # two copies would re-introduce the aliasing it prevents.
            rw.keep(index, ops.Copy(rw.read(node.src)))
            continue
        if isinstance(node, ops.Input):
            key: tuple = ("input", node.name)
        else:
            key = _cse_key(node, rw.mapped(node))
        hit = seen.get(key)
        if hit is not None:
            ctx.tally("cse", "values_merged")
            rw.alias(index, hit)
            continue
        seen[key] = rw.keep(index, _with_operands(node, rw.mapped(node)))
    return rw.finish()


@register_pass(
    "ntt_residency",
    "hoist forward NTTs of constant inputs (relinearisation keys, repeated "
    "plaintexts) out of the plan into the per-context constant pool",
)
def ntt_residency(plan: ops.Plan, ctx: PassContext) -> ops.Plan:
    if not ctx.constant_inputs:
        return plan
    rw = _Rewriter(plan, ctx)
    resident: dict[str, int] = {}

    def resident_input(name: str) -> int:
        derived = name + "@ntt"
        value = resident.get(derived)
        if value is None:
            ctx.add_derived(derived, name)
            value = rw.emit(ops.Input(derived))
            resident[derived] = value
        return value

    def constant_name(value: int) -> str | None:
        node = rw.nodes[rw.resolve(value)]
        if isinstance(node, ops.Input) and node.name in ctx.constant_inputs:
            return node.name
        return None

    for index, node in enumerate(plan.nodes):
        if not isinstance(node, ops.ForwardNtt):
            rw.keep(index, _with_operands(node, rw.mapped(node)))
            continue
        src = rw.read(node.src)
        name = constant_name(src)
        if name is not None:
            ctx.tally("ntt_residency", "transforms_hoisted")
            rw.alias(index, resident_input(name))
            continue
        base = rw.resolve(src)
        base_node = rw.nodes[base]
        if isinstance(base_node, ops.Concat):
            names = [constant_name(part) for part in base_node.srcs]
            if any(name is not None for name in names):
                # Split the constants out of the batch; the surviving rows
                # stay grouped in wide transforms (the emitters put the
                # constants at the batch edges, so one contiguous run of
                # non-constant rows is the common case).
                segments: list[int] = []
                run: list[int] = []
                for part, name in zip(base_node.srcs, names):
                    if name is None:
                        run.append(part)
                        continue
                    if run:
                        segments.append(
                            _emit_grouped_transform(rw, ops.ForwardNtt, run)
                        )
                        run = []
                    ctx.tally("ntt_residency", "transforms_hoisted")
                    segments.append(resident_input(name))
                if run:
                    segments.append(_emit_grouped_transform(rw, ops.ForwardNtt, run))
                if len(segments) == 1:
                    rw.alias(index, segments[0])
                else:
                    rw.keep(index, ops.Concat(tuple(segments)))
                continue
        rw.keep(index, ops.ForwardNtt(src))
    return rw.finish()


@register_pass(
    "batch_ntts",
    "merge independent same-direction transforms at equal transform depth "
    "into one wide concat -> NTT -> slice batch (horizontal fusion)",
)
def batch_ntts(plan: ops.Plan, ctx: PassContext) -> ops.Plan:
    nodes = plan.nodes
    transforms = (ops.ForwardNtt, ops.InverseNtt)
    # Transform depth: transform nodes on the longest input-to-value path.
    # A transform depends on another only through a strictly smaller depth,
    # so equal-depth transforms are independent and may share one node.
    # Cross-row depth counts digit decompositions and modulus switches the
    # same way; it orders the schedule below.
    depth: list[int] = []
    cross: list[int] = []
    for node in nodes:
        operands = node.operands()
        depth.append(
            max((depth[op] for op in operands), default=0)
            + isinstance(node, transforms)
        )
        cross.append(
            max((cross[op] for op in operands), default=0)
            + isinstance(node, ops.CROSS_ROW_NODES)
        )

    def constant_fed(value: int) -> bool:
        # Transforms of constant inputs belong to ntt_residency (which hoists
        # them out of any batch); merging them here would fight it.
        node = nodes[value]
        parts = node.srcs if isinstance(node, ops.Concat) else (value,)
        for part in parts:
            while isinstance(nodes[part], ops.Copy):
                part = nodes[part].src
            if isinstance(nodes[part], ops.Input) and (
                nodes[part].name in ctx.constant_inputs
            ):
                return True
        return False

    groups: dict[tuple, list[int]] = {}
    for index, node in enumerate(nodes):
        if isinstance(node, transforms) and not constant_fed(node.src):
            groups.setdefault((type(node), depth[index]), []).append(index)
    if all(len(group) < 2 for group in groups.values()) or any(
        name not in ctx.input_primes for name in plan.input_names
    ):
        return plan  # nothing to merge, or row counts to slice by unknown
    group_of = {
        index: group for group in groups.values() if len(group) > 1 for index in group
    }

    # Schedule by transform depth, so every member's source precedes the
    # merged node and every member's consumer follows it; within a depth by
    # cross-row depth (transforms first, then plan order), so the cross-row
    # nodes of every statement cluster after all the values they read — the
    # parallel backend cuts a stage before each cross-row node whose source
    # the current stage produced.
    rw = _Rewriter(plan, ctx)
    order = sorted(
        range(len(nodes)),
        key=lambda i: (depth[i], cross[i], not isinstance(nodes[i], transforms), i),
    )
    for index in order:
        if index in rw.read_map:
            continue  # emitted with its group
        node = nodes[index]
        group = group_of.get(index)
        if group is None:
            rw.keep(index, _with_operands(node, rw.mapped(node)))
            continue
        sources = [rw.read(nodes[member].src) for member in group]
        # Each distinct batch part is transformed once: members that other
        # rewrites of this round made (partly) identical share their rows,
        # as CSE would have merged them had they stayed separate nodes.
        rows: dict[int, tuple[int, int]] = {}
        total = 0
        member_parts = []
        for src in sources:
            base = rw.nodes[rw.resolve(src)]
            own = base.srcs if isinstance(base, ops.Concat) else (src,)
            for part in own:
                if part not in rows:
                    rows[part] = (total, total + rw.counts[part])
                    total += rw.counts[part]
            member_parts.append(own)
        merged = _emit_grouped_transform(rw, type(node), list(rows))
        ctx.tally("batch_ntts", "transforms_merged", len(group) - 1)
        for member, own in zip(group, member_parts):
            spans: list[list[int]] = []
            for part in own:
                start, stop = rows[part]
                if spans and spans[-1][1] == start:
                    spans[-1][1] = stop
                else:
                    spans.append([start, stop])
            if len(spans) == 1:
                rw.keep(member, ops.SliceRows(merged, *spans[0]))
            else:
                slices = [rw.emit(ops.SliceRows(merged, lo, hi)) for lo, hi in spans]
                rw.keep(member, ops.Concat(tuple(slices)))
    return rw.finish()


@register_pass(
    "dead_values",
    "drop nodes (and unused plan inputs) no output transitively reads",
)
def dead_values(plan: ops.Plan, ctx: PassContext) -> ops.Plan:
    live: set[int] = set()
    stack = [index for _, index in plan.outputs]
    while stack:
        value = stack.pop()
        if value in live:
            continue
        live.add(value)
        stack.extend(plan.nodes[value].operands())
    if len(live) == len(plan.nodes):
        return plan
    remap: dict[int, int] = {}
    nodes: list[ops.OpNode] = []
    for index, node in enumerate(plan.nodes):
        if index not in live:
            continue
        remap[index] = len(nodes)
        nodes.append(
            _with_operands(node, tuple(remap[op] for op in node.operands()))
        )
    ctx.tally("dead_values", "values_removed", len(plan.nodes) - len(nodes))
    return ops.Plan(
        tuple(nodes),
        tuple((name, remap[index]) for name, index in plan.outputs),
    )
