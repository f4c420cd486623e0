"""Telemetry subsystem tests: tracer, metrics registry, exporters, and the
cross-layer/cross-process integration the ISSUE's acceptance criteria pin.
"""

from __future__ import annotations

import json
import os
import threading
import time

import pytest

from repro.backends.base import uninstrumented
from repro.backends.numpy_backend import NumpyBackend
from repro.backends.parallel import ParallelBackend
from repro.backends.scalar import ScalarBackend
from repro.he import HeContext, HEParams
from repro.telemetry import (
    NULL_SPAN,
    TRACER,
    MetricsRegistry,
    chrome_trace,
    format_summary,
    summarize,
    write_chrome_trace,
)
from repro.telemetry.tracer import ATTRS, NAME, PARENT, PHASE, PID, SID, TS


@pytest.fixture(autouse=True)
def _clean_tracer():
    """Every test starts and ends with a disabled, empty tracer."""
    TRACER.stop()
    TRACER.clear()
    yield
    TRACER.stop()
    TRACER.clear()


def _params(n=64, prime_count=3):
    return HEParams(
        n=n, plaintext_modulus=257, prime_bits=30, prime_count=prime_count
    )


def _chain(ctx, evaluator=None):
    """The canonical multiply → relinearize → mod-switch chain."""
    evaluator = evaluator if evaluator is not None else ctx.evaluator()
    enc = ctx.encryptor()
    ct = enc.encrypt(ctx.integer_encoder().encode(7))
    return evaluator.mod_switch_to_next(
        evaluator.relinearize(
            evaluator.multiply(ct, ct), ctx.relinearization_key()
        )
    )


# ------------------------------------------------------------------ tracer


def test_disabled_span_is_the_null_singleton():
    assert TRACER.span("anything", attr=1) is NULL_SPAN
    with TRACER.span("anything") as span:
        assert span is NULL_SPAN
        assert span.sid is None
    assert TRACER.events() == []


def test_spans_nest_and_balance():
    TRACER.start()
    with TRACER.span("outer", k=1) as outer:
        with TRACER.span("inner") as inner:
            pass
        with TRACER.span("inner2") as inner2:
            pass
    TRACER.stop()
    events = TRACER.events()
    assert [e[PHASE] for e in events] == ["B", "B", "E", "B", "E", "E"]
    # Both children link to the outer span; the outer span is a root.
    assert inner.parent == outer.sid
    assert inner2.parent == outer.sid
    assert outer.parent is None
    begins = sorted(e[SID] for e in events if e[PHASE] == "B")
    ends = sorted(e[SID] for e in events if e[PHASE] == "E")
    assert begins == ends
    # End timestamps never precede their begin.
    opened = {e[SID]: e[TS] for e in events if e[PHASE] == "B"}
    for e in events:
        if e[PHASE] == "E":
            assert e[TS] >= opened[e[SID]]


def test_span_parents_are_per_thread():
    TRACER.start()
    seen = {}

    def record(tag):
        with TRACER.span("worker-root") as root:
            seen[tag] = root.parent

    with TRACER.span("main-root"):
        threads = [
            threading.Thread(target=record, args=(i,)) for i in range(2)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
    TRACER.stop()
    # The other threads never see the main thread's open span as a parent.
    assert seen == {0: None, 1: None}


def test_ingest_reparents_and_clamps():
    TRACER.start()
    with TRACER.span("dispatch") as dispatch:
        pass
    foreign = [
        ("B", "pool.task", 0.0, 4242, 1, "4242.1", None, None),
        ("B", "op.mul", 0.5, 4242, 1, "4242.2", "4242.1", None),
        ("E", "op.mul", 1.5, 4242, 1, "4242.2", "4242.1", None),
        ("E", "pool.task", 99.0, 4242, 1, "4242.1", None, None),
    ]
    TRACER.ingest(foreign, dispatch.sid, lo=10.0, hi=11.0)
    TRACER.stop()
    ingested = TRACER.events()[2:]
    roots = [e for e in ingested if e[NAME] == "pool.task"]
    assert all(e[PARENT] == dispatch.sid for e in roots)
    # Nested parents are preserved; timestamps are clamped into [lo, hi].
    assert all(e[PARENT] == "4242.1" for e in ingested if e[NAME] == "op.mul")
    assert all(10.0 <= e[TS] <= 11.0 for e in ingested)


# ----------------------------------------------------------------- metrics


def test_metrics_counters_cascade_to_parent():
    parent = MetricsRegistry()
    child = MetricsRegistry(parent=parent)
    child.inc("x", 3)
    child.inc("x")
    assert child.value("x") == 4
    assert parent.value("x") == 4
    # zero() is the local-only compatibility shim.
    child.zero("x")
    assert child.value("x") == 0
    assert parent.value("x") == 4
    # reset() cascades down through the weak child links.
    parent.inc("y")
    parent.reset()
    assert parent.value("x") == parent.value("y") == 0
    assert child.value("x") == 0


def test_metrics_gauges_and_histograms():
    reg = MetricsRegistry()
    state = {"v": 5}
    reg.set_gauge("g", lambda: state["v"])
    reg.observe("h", 2.0)
    reg.observe("h", 4.0)
    snap = reg.snapshot()
    assert snap["g"] == 5
    exact = {"count": 2, "total": 6.0, "min": 2.0, "max": 4.0}
    assert {k: snap["h"][k] for k in exact} == exact
    # Snapshots also carry estimated percentiles, bracketed by min/max.
    assert 2.0 <= snap["h"]["p50"] <= snap["h"]["p90"] <= snap["h"]["p99"] <= 4.0
    state["v"] = 9
    assert reg.snapshot()["g"] == 9
    reg.reset()
    snap = reg.snapshot()
    assert "h" not in snap
    assert snap["g"] == 9  # gauges report live state; reset leaves them


def test_histogram_quantiles_estimate_within_bucket_tolerance():
    reg = MetricsRegistry()
    for value in range(1, 1001):
        reg.observe("lat", float(value))
    # Log buckets at 8/octave: any estimate within ~±4.5% of the truth.
    assert reg.quantile("lat", 0.5) == pytest.approx(500.0, rel=0.05)
    assert reg.quantile("lat", 0.99) == pytest.approx(990.0, rel=0.05)
    # The extremes are exact (clamped to the tracked min/max).
    assert reg.quantile("lat", 0.0) == 1.0
    assert reg.quantile("lat", 1.0) == 1000.0
    summary = reg.histogram("lat")
    assert summary["count"] == 1000
    assert summary["p50"] == reg.quantile("lat", 0.5)
    # A single sample reports itself at every percentile, zeros included
    # (non-positive samples land in the reserved zero bucket).
    reg.observe("one", 0.0)
    assert reg.quantile("one", 0.5) == 0.0
    assert reg.histogram("one")["p99"] == 0.0
    # Absent names and malformed q are clean errors, not KeyErrors.
    assert reg.quantile("nope", 0.5) is None
    assert reg.histogram("nope") is None
    with pytest.raises(ValueError, match="quantile"):
        reg.quantile("lat", 1.5)


def test_histogram_observations_cascade_to_parent_quantiles():
    parent = MetricsRegistry()
    child = MetricsRegistry(parent=parent)
    child.observe("lat", 1.0)
    child.observe("lat", 3.0)
    parent.observe("lat", 9.0)
    assert child.histogram("lat")["count"] == 2
    assert parent.histogram("lat")["count"] == 3
    assert parent.histogram("lat")["max"] == 9.0


def test_declared_counters_appear_in_snapshot_at_zero():
    reg = MetricsRegistry()
    reg.declare("a.b", "c.d")
    assert reg.snapshot() == {"a.b": 0, "c.d": 0}


# ------------------------------------------------- backend counter shims


def test_backend_shims_match_registry():
    backend = ScalarBackend(engine="radix2")
    tensor = backend.from_rows([[1, 2, 3, 4]], [97])
    backend.to_rows(tensor)
    assert backend.conversion_count == 2
    assert backend.metrics.value("conversions.rows") == 2
    backend.reset_conversion_count()
    assert backend.conversion_count == 0
    assert backend.metrics.value("conversions.rows") == 0


@pytest.mark.parametrize("backend_name", ["scalar", "numpy", "parallel"])
def test_context_metrics_snapshot_covers_every_surface(backend_name):
    if backend_name == "parallel":
        backend = ParallelBackend(shards=2)
    elif backend_name == "numpy":
        backend = NumpyBackend()
    else:
        backend = ScalarBackend()
    try:
        ctx = HeContext.create(_params(), backend=backend, engine="radix2")
        _chain(ctx)
        snap = ctx.metrics()
        for key in (
            "conversions.rows",
            "pool.dispatches",
            "plan.compiled",
            "plan.cache_hits",
            "ntt.invocations",
            "ntt.engine_choices",
            "ntt.engine_timings",
        ):
            assert key in snap, key
        assert snap["ntt.invocations"] > 0
        assert snap["plan.compiled"] > 0
        if backend_name == "parallel":
            assert "shm.bytes_in_use" in snap
    finally:
        if backend_name == "parallel":
            backend.close()


def test_reset_metrics_zeroes_every_counter_in_one_call():
    ctx = HeContext.create(_params(), backend=NumpyBackend(), engine="radix2")
    evaluator = ctx.evaluator()
    _chain(ctx, evaluator)
    assert ctx.metrics()["ntt.invocations"] > 0
    assert ctx.backend.conversion_count > 0
    ctx.reset_metrics()
    snap = ctx.metrics()
    assert snap["conversions.rows"] == 0
    assert snap["ntt.invocations"] == 0
    assert snap["plan.compiled"] == 0
    assert snap["plan.cache_hits"] == 0
    # The cascade reached the evaluator the context handed out earlier.
    assert evaluator.ntt_invocations == 0
    assert evaluator.plans_compiled == 0
    # A second run through the *same* evaluator re-registers cache hits
    # (the plan cache itself is untouched by a metrics reset).
    _chain(ctx, evaluator)
    assert evaluator.plan_cache_hits > 0
    assert evaluator.plans_compiled == 0


def test_autotune_histogram_lands_in_backend_metrics():
    from repro.modarith.primes import generate_ntt_primes

    backend = ScalarBackend()  # no pin: first transform races the tuner
    [p] = generate_ntt_primes(30, 1, 64)
    tensor = backend.from_rows([[i % p for i in range(64)]] * 2, [p, p])
    backend.forward_ntt_batch(tensor)
    snap = backend.metrics.snapshot()
    assert snap["ntt.autotune_seconds"]["count"] >= 1
    assert backend.engine_choices  # the verdict surfaced on the gauge too
    assert snap["ntt.engine_choices"] == backend.engine_choices


# --------------------------------------------------- instrumented tracing


def test_traced_chain_records_op_and_plan_spans():
    ctx = HeContext.create(_params(), backend=NumpyBackend(), engine="radix2")
    TRACER.start()
    _chain(ctx)
    TRACER.stop()
    names = {e[NAME] for e in TRACER.events() if e[PHASE] == "B"}
    for expected in (
        "plan.compile",
        "plan.execute",
        "op.forward_ntt",
        "op.inverse_ntt",
        "op.mul",
        "ntt.engine",
        "op.mod_switch",
    ):
        assert expected in names, expected


def test_disabled_tracing_adds_no_events_and_no_counter_drift():
    """The overhead guard: with tracing off, the instrumented stack does
    exactly the work the uninstrumented stack does — same conversions,
    same dispatch count, zero events."""
    ctx = HeContext.create(_params(), backend=NumpyBackend(), engine="radix2")
    ctx.reset_metrics()
    _chain(ctx)
    instrumented = ctx.metrics()
    assert TRACER.events() == []

    with uninstrumented():
        ctx2 = HeContext.create(
            _params(), backend=NumpyBackend(), engine="radix2"
        )
        ctx2.reset_metrics()
        _chain(ctx2)
        baseline = ctx2.metrics()
    assert instrumented["conversions.rows"] == baseline["conversions.rows"]
    assert instrumented["pool.dispatches"] == baseline["pool.dispatches"]
    assert instrumented["ntt.invocations"] == baseline["ntt.invocations"]


def test_pool_worker_spans_nest_under_their_stage():
    """Trace integrity across the process boundary: worker spans ship back
    with shard results and appear as children of the dispatch that
    submitted them, inside the stage and plan spans, with worker PIDs."""
    backend = ParallelBackend(
        shards=2, transform_threshold=1, pointwise_threshold=1
    )
    try:
        ctx = HeContext.create(_params(), backend=backend, engine="radix2")
        pipe = ctx.pipeline()
        enc = ctx.encryptor()
        ct = enc.encrypt(ctx.integer_encoder().encode(7))

        def run():
            x = pipe.load(ct)
            return (
                (x * x)
                .relinearize(ctx.relinearization_key())
                .mod_switch()
                .run()
            )

        run()  # warm: pool spin-up and plan compile stay off the trace
        TRACER.start()
        run()
        TRACER.stop()
        events = TRACER.events()

        begins = {e[SID]: e for e in events if e[PHASE] == "B"}
        by_name = {}
        for e in begins.values():
            by_name.setdefault(e[NAME], []).append(e)
        assert by_name.get("pool.task"), "no worker spans were ingested"

        # Every begin has exactly one end (pairs balance).
        assert sorted(e[SID] for e in events if e[PHASE] == "B") == sorted(
            e[SID] for e in events if e[PHASE] == "E"
        )

        main_pid = os.getpid()
        for task in by_name["pool.task"]:
            assert task[PID] != main_pid  # recorded in the worker
            dispatch = begins[task[PARENT]]
            assert dispatch[NAME] == "pool.dispatch"
            stage = begins[dispatch[PARENT]]
            assert stage[NAME] == "plan.stage"
            plan = begins[stage[PARENT]]
            assert plan[NAME] == "plan.execute"
            # Clamped into the dispatch interval.
            dispatch_end = next(
                e
                for e in events
                if e[PHASE] == "E" and e[SID] == dispatch[SID]
            )
            assert dispatch[TS] <= task[TS] <= dispatch_end[TS]
        # Worker-side kernel spans arrive nested under their pool.task.
        task_sids = {e[SID] for e in by_name["pool.task"]}
        worker_ops = [
            e
            for e in begins.values()
            if e[NAME].startswith("op.") and e[PID] != main_pid
        ]
        assert worker_ops
        for op in worker_ops:
            node = op
            while node[PARENT] is not None and node[SID] not in task_sids:
                node = begins[node[PARENT]]
            assert node[SID] in task_sids
    finally:
        backend.close()


# ------------------------------------------------- stack-free request roots


def test_begin_end_and_span_under_stitch_across_stacks():
    TRACER.start()
    root = TRACER.begin("service.request", request_id="r1", ops="multiply")
    # begin() leaves the thread stack untouched: an unrelated span opened
    # now is a root, not a child of the request.
    with TRACER.span("bystander") as bystander:
        pass
    with TRACER.span_under(root, "service.prepare") as prepare:
        with TRACER.span("boundary.from_rows") as conversion:
            pass
    TRACER.end(root, "service.request")
    TRACER.stop()
    assert bystander.parent is None
    assert prepare.parent == root
    # span_under still pushes the current thread's stack, so synchronous
    # children opened inside its body nest normally.
    assert conversion.parent == prepare.sid
    events = TRACER.events()
    root_events = [e for e in events if e[SID] == root]
    assert [e[PHASE] for e in root_events] == ["B", "E"]
    assert root_events[0][ATTRS] == {"request_id": "r1", "ops": "multiply"}


def test_begin_returns_none_and_end_noops_while_disabled():
    assert TRACER.begin("service.request") is None
    TRACER.end(None, "service.request")
    with TRACER.span_under(None, "anything") as span:
        assert span is NULL_SPAN
    assert TRACER.events() == []


# ------------------------------------------------------ request span trees


def _synthetic_coalesced_trace():
    """Two served requests riding one shared batch, as raw event tuples."""
    return [
        ("B", "service.request", 0.0, 10, 1, "10.1", None, {"request_id": "a"}),
        ("B", "service.request", 0.1, 10, 1, "10.2", None, {"request_id": "b"}),
        ("B", "service.prepare", 0.2, 10, 2, "10.3", "10.1", {"tenant": "t"}),
        ("E", "service.prepare", 0.3, 10, 2, "10.3", "10.1", None),
        # The shared batch: parented under rider a's root, naming both.
        ("B", "service.batch", 0.4, 10, 2, "10.4", "10.1",
         {"request_ids": ("a", "b"), "size": 2}),
        ("B", "plan.execute", 0.5, 10, 2, "10.5", "10.4", None),
        ("B", "pool.task", 0.55, 77, 1, "77.1", "10.5", None),
        ("E", "pool.task", 0.58, 77, 1, "77.1", "10.5", None),
        ("E", "plan.execute", 0.6, 10, 2, "10.5", "10.4", None),
        ("E", "service.batch", 0.7, 10, 2, "10.4", "10.1", None),
        ("E", "service.request", 0.8, 10, 1, "10.1", None, None),
        ("E", "service.request", 0.9, 10, 1, "10.2", None, None),
    ]


def test_request_tree_reassembles_direct_and_shared_subtrees():
    from repro.telemetry import request_ids, request_tree

    events = _synthetic_coalesced_trace()
    assert request_ids(events) == ["a", "b"]

    def walk(node):
        yield node
        for child in node["children"]:
            yield from walk(child)

    tree_a = request_tree(events, "a")
    assert tree_a["name"] == "service.request"
    assert tree_a["attrs"]["request_id"] == "a"
    by_name_a = {node["name"]: node for node in walk(tree_a)}
    # Rider a owns the batch: reachable through parent sids, not grafted.
    assert "shared" not in by_name_a["service.batch"]
    assert by_name_a["service.prepare"]["attrs"] == {"tenant": "t"}
    # Worker spans keep their PID, and times are µs relative to the root.
    assert by_name_a["pool.task"]["pid"] == 77
    assert by_name_a["pool.task"]["start_us"] == pytest.approx(0.55e6)
    assert tree_a["start_us"] == 0.0
    assert tree_a["duration_us"] == pytest.approx(0.8e6)

    tree_b = request_tree(events, "b")
    by_name_b = {node["name"]: node for node in walk(tree_b)}
    # Rider b gets the same subtree grafted in, marked shared.
    batch = by_name_b["service.batch"]
    assert batch["shared"] is True
    assert batch["attrs"]["request_ids"] == ("a", "b")
    assert "plan.execute" in by_name_b and "pool.task" in by_name_b
    # But not rider a's private prepare span.
    assert "service.prepare" not in by_name_b

    assert request_tree(events, "nope") is None


def test_request_tree_survives_open_spans_and_repeated_ids():
    from repro.telemetry import request_tree

    events = [
        ("B", "service.request", 0.0, 10, 1, "10.1", None, {"request_id": "a"}),
        ("E", "service.request", 0.5, 10, 1, "10.1", None, None),
        # The id was reused later; the tree must be the latest root, even
        # though its end was never captured (still in flight).
        ("B", "service.request", 1.0, 10, 1, "10.2", None, {"request_id": "a"}),
        ("B", "service.prepare", 1.1, 10, 2, "10.3", "10.2", None),
    ]
    tree = request_tree(events, "a")
    assert tree["sid"] == "10.2"
    assert tree["duration_us"] is None  # open span: no end yet
    assert [child["name"] for child in tree["children"]] == ["service.prepare"]


# -------------------------------------------------------- sampling profiler


def test_profiler_sample_once_attributes_tagged_threads(tmp_path):
    from repro.telemetry import SamplingProfiler, profile_tag

    profiler = SamplingProfiler(interval=0.001)
    ready = threading.Event()
    release = threading.Event()

    def tenant_work_parked():
        with profile_tag("tenant:abc"):
            ready.set()
            release.wait(timeout=30)

    worker = threading.Thread(target=tenant_work_parked)
    worker.start()
    try:
        assert ready.wait(timeout=30)
        profiler.sample_once()
    finally:
        release.set()
        worker.join()

    assert profiler.sample_count == 1
    lines = profiler.collapsed()
    tagged = [line for line in lines if line.startswith("tenant:abc;")]
    assert tagged, lines
    # The collapsed stack reads root→leaf: tag first, parked frame inside.
    assert any("tenant_work_parked" in line for line in tagged)
    # Every line is "frame;frame;... count" — flamegraph.pl's input format.
    path = tmp_path / "profile.txt"
    profiler.write_collapsed(str(path))
    written = path.read_text().splitlines()
    assert written == lines
    for line in written:
        stack, _, count = line.rpartition(" ")
        assert stack and int(count) >= 1


def test_profile_tag_is_reentrant_per_thread():
    from repro.telemetry.profiler import _TAGS, profile_tag

    ident = threading.get_ident()
    assert _TAGS.get(ident) is None
    with profile_tag("tenant:outer"):
        assert _TAGS[ident] == "tenant:outer"
        with profile_tag("tenant:inner"):
            assert _TAGS[ident] == "tenant:inner"
        assert _TAGS[ident] == "tenant:outer"
    assert ident not in _TAGS


def test_profiler_lifecycle_and_validation():
    from repro.telemetry import SamplingProfiler

    with pytest.raises(ValueError, match="interval"):
        SamplingProfiler(interval=0.0)
    profiler = SamplingProfiler(interval=0.001)
    assert not profiler.running
    profiler.start()
    profiler.start()  # idempotent while running
    assert profiler.running
    profiler.stop()
    assert not profiler.running
    # The sampler thread may fire between start() and stop(), so count from
    # the stopped state: no sample lands after stop() returns.
    before = profiler.sample_count
    time.sleep(10 * profiler.interval)
    assert profiler.sample_count == before
    profiler.sample_once()
    assert profiler.sample_count == before + 1
    profiler.reset()
    assert profiler.sample_count == 0
    assert profiler.collapsed() == []


# ------------------------------------------------- prometheus text format


def test_prometheus_rendering_families_labels_and_escaping():
    from repro.telemetry.prometheus import CONTENT_TYPE, render_registries

    assert CONTENT_TYPE.startswith("text/plain; version=0.0.4")
    root = MetricsRegistry()
    tenant = MetricsRegistry(parent=root)
    tenant.inc("service.requests", 3)
    tenant.observe("service.latency.total_seconds", 0.25)
    root.set_gauge("shm.bytes_in_use", lambda: 1024)
    # Structured gauges have no Prometheus representation: JSON-only.
    root.set_gauge("ntt.engine_choices", lambda: {(64, 30, 2): "radix2"})
    text = render_registries(root, {'key"quoted': tenant})
    lines = text.splitlines()
    assert text.endswith("\n")

    # Counters: name mangling, _total suffix, root unlabelled + tenant
    # labelled under one family, label values escaped.
    assert "# TYPE repro_service_requests_total counter" in lines
    assert "repro_service_requests_total 3" in lines
    assert 'repro_service_requests_total{tenant="key\\"quoted"} 3' in lines

    # Histograms export as summaries: quantiles plus exact sum/count.
    assert "# TYPE repro_service_latency_total_seconds summary" in lines
    assert (
        'repro_service_latency_total_seconds{quantile="0.5",tenant="key\\"quoted"} 0.25'
        in lines
    )
    assert (
        'repro_service_latency_total_seconds_sum{tenant="key\\"quoted"} 0.25'
        in lines
    )
    assert (
        'repro_service_latency_total_seconds_count{tenant="key\\"quoted"} 1'
        in lines
    )

    # Numeric gauges export; structured ones are silently excluded.
    assert "repro_shm_bytes_in_use 1024" in lines
    assert "repro_ntt_engine_choices" not in text
    # One TYPE declaration per family, however many registries sampled it.
    type_lines = [line for line in lines if line.startswith("# TYPE ")]
    assert len(type_lines) == len(set(type_lines))


# ------------------------------------------------------- JSON-lines logging


def test_json_lines_log_drops_none_and_degrades_unsafe_values():
    import io

    from repro.telemetry import JsonLinesLog

    stream = io.StringIO()
    log = JsonLinesLog(stream)
    record = log.write(
        "request", status=200, tenant=None, oddball={"frozen", "set"}
    )
    log.close()  # never closes a caller-owned stream
    [line] = stream.getvalue().splitlines()
    parsed = json.loads(line)
    assert parsed["ts"] == record["ts"] and parsed["status"] == record["status"]
    assert parsed["event"] == "request"
    assert parsed["status"] == 200
    assert parsed["ts"] > 0
    assert "tenant" not in parsed  # None-valued context is dropped
    assert isinstance(parsed["oddball"], str)  # degraded, never raised


def test_json_lines_log_appends_to_path(tmp_path):
    from repro.telemetry import JsonLinesLog

    path = tmp_path / "access.log"
    log = JsonLinesLog(str(path))
    log.write("request", status=200)
    log.close()
    again = JsonLinesLog(str(path))  # append mode: reopening never truncates
    again.write("request", status=404, error="no route")
    again.close()
    records = [json.loads(line) for line in path.read_text().splitlines()]
    assert [r["status"] for r in records] == [200, 404]
    assert records[1]["error"] == "no route"


# --------------------------------------------------------------- exporters


def test_chrome_trace_round_trips_with_required_fields(tmp_path):
    ctx = HeContext.create(_params(), backend=NumpyBackend(), engine="radix2")
    TRACER.start()
    _chain(ctx)
    TRACER.stop()
    path = tmp_path / "trace.json"
    write_chrome_trace(str(path), TRACER.events())
    loaded = json.loads(path.read_text())
    events = loaded["traceEvents"]
    assert events
    for entry in events:
        for field in ("ph", "pid", "tid"):
            assert field in entry, field
        if entry["ph"] in ("B", "E"):
            assert "ts" in entry and entry["ts"] >= 0
    # Begin/end counts balance in the export too.
    assert sum(1 for e in events if e["ph"] == "B") == sum(
        1 for e in events if e["ph"] == "E"
    )
    # A metadata event names the (single) process.
    assert any(e["ph"] == "M" and e["name"] == "process_name" for e in events)


def test_summarize_self_time_partitions_and_ntt_share():
    ctx = HeContext.create(_params(), backend=NumpyBackend(), engine="radix2")
    TRACER.start()
    _chain(ctx)
    TRACER.stop()
    stats = summarize(TRACER.events())
    assert 0.0 < stats["ntt_share"] <= 1.0
    # Self time partitions: per-name self sums to the reported total.
    total = sum(entry["self"] for entry in stats["names"].values())
    assert total == pytest.approx(stats["total_self_seconds"])
    # And never exceeds inclusive time.
    for entry in stats["names"].values():
        assert entry["self"] <= entry["total"] + 1e-12
    text = format_summary(stats)
    assert "measured NTT time share" in text
    assert "op.forward_ntt" in text


def test_summarize_drops_unbalanced_spans():
    TRACER.start()
    with TRACER.span("closed"):
        pass
    # Forge a begin whose end was never captured.
    TRACER._events.append(("B", "dangling", 0.0, 1, 1, "1.999", None, None))
    TRACER.stop()
    stats = summarize(TRACER.events())
    assert "dangling" not in stats["names"]
    assert "closed" in stats["names"]


def test_summarize_guards_empty_and_zero_duration_traces():
    # No events at all: every aggregate is zero, nothing divides by zero.
    stats = summarize([])
    assert stats == {
        "names": {},
        "total_self_seconds": 0.0,
        "ntt_self_seconds": 0.0,
        "ntt_share": 0.0,
    }
    text = format_summary(stats)
    assert "measured NTT time share: 0.0%" in text

    # Balanced spans of exactly zero duration: total self time is zero,
    # so the share (and every per-name share line) must stay defined.
    zero = [
        ("B", "op.forward_ntt", 1.0, 1, 1, "1.1", None, None),
        ("E", "op.forward_ntt", 1.0, 1, 1, "1.1", None, None),
        ("B", "op.mul", 2.0, 1, 1, "1.2", None, None),
        ("E", "op.mul", 2.0, 1, 1, "1.2", None, None),
    ]
    stats = summarize(zero)
    assert stats["total_self_seconds"] == 0.0
    assert stats["ntt_share"] == 0.0
    text = format_summary(stats)
    assert "op.forward_ntt" in text and "0.0%" in text

    # And the chrome exporter accepts an empty capture too.
    assert chrome_trace([]) == {"traceEvents": []}


def test_traced_ntt_share_reports_a_real_share():
    from repro.experiments.measured import traced_ntt_share

    result = traced_ntt_share(backend="numpy", engine="high_radix")
    assert 0.0 < result["share"] <= 1.0
    assert result["ntt_ms"] > 0.0
    assert result["total_ms"] >= result["ntt_ms"]


# -------------------------------------------------------------------- CLI


def test_experiments_list_shows_engine_verdicts(capsys):
    from repro.experiments.__main__ import main

    assert main(["--list"]) == 0
    out = capsys.readouterr().out
    assert "engine" in out
    assert ("auto-tuner verdicts" in out) or ("engine pin is in force" in out)


def test_experiments_trace_flag_writes_chrome_trace(tmp_path, capsys):
    from repro.experiments.__main__ import main

    path = tmp_path / "cli_trace.json"
    try:
        assert main(["ntt_share", "--trace", str(path)]) == 0
    finally:
        TRACER.stop()
        TRACER.clear()
    out = capsys.readouterr().out
    assert "measured NTT time share" in out
    loaded = json.loads(path.read_text())
    assert loaded["traceEvents"]
