"""Reconciliation of the traced run fails when layer spans miss time."""

import time

from tracing import RECONCILE_TOLERANCE, Tracer


def traced_op(tracer, layer_s, glue_s):
    """A root span holding ``layer_s`` in a layer span and ``glue_s`` outside."""
    t0 = time.perf_counter()
    with tracer.span("bench.op") as root:
        with tracer.span("encoding.stage", layer=True):
            time.sleep(layer_s)
        time.sleep(glue_s)
    return root.id, time.perf_counter() - t0


def test_layer_time_covering_the_wall_reconciles():
    tracer = Tracer()
    root, wall = traced_op(tracer, 0.05, 0.0)
    share, why = tracer.reconcile({root: wall})
    assert why is None
    assert 0.0 <= share < RECONCILE_TOLERANCE


def test_unwrapped_sleep_inside_a_root_fails():
    tracer = Tracer()
    root, wall = traced_op(tracer, 0.02, 0.02)
    share, why = tracer.reconcile({root: wall})
    assert share > RECONCILE_TOLERANCE
    assert why is not None and "unattributed" in why


def test_umbrella_span_time_is_not_attributed():
    tracer = Tracer()

    class Codec:
        def run(self):
            with tracer.span("encoding.stage", layer=True):
                time.sleep(0.02)
            time.sleep(0.02)  # the umbrella's own glue

    tracer.wrap(Codec, "run", "core.umbrella", layer=False)
    try:
        t0 = time.perf_counter()
        with tracer.span("bench.op") as root:
            Codec().run()
        wall = time.perf_counter() - t0
    finally:
        tracer.unwrap_all()
    share, why = tracer.reconcile({root.id: wall})
    assert why is not None and share > RECONCILE_TOLERANCE


def test_overlapping_siblings_fail():
    tracer = Tracer()
    root, wall = traced_op(tracer, 0.01, 0.0)
    first = tracer.spans[root + 1]
    with tracer.span("encoding.other", layer=True):
        pass
    second = tracer.spans[-1]
    second.parent = root
    second.start, second.end = first.start, first.end
    share, why = tracer.reconcile({root: wall})
    assert why is not None and "overlaps" in why
