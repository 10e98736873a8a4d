"""``archive``: the paper's own workflow, serial, in one process.

The six Table III fields at their default shapes are tuned once by
``AutoTuner`` at 1% sampling, then compressed and decompressed with the
tuned pipeline at ``rel_eb = 1e-3`` in whole rounds (one round = every
field compressed and decompressed once) until the run's time is up.

The fields are the Table III ones with their default generator seeds,
fixed like SDRBench's reference fields: the tuner's cost depends on the
field (SOILLIQ's 1536 candidates took 47 s for one generator seed and
60 s for another), so fields drawn from ``--seed`` would make ``tune_s``
measure the draw. ``--seed`` orders the fields within each round.
"""

from __future__ import annotations

import time

import numpy as np

import layers
from checks import error_bound, psnr_db
from common import REL_EB, Run, repeat_median, tune_fields
from tracing import Tracer

#: Serial, one process: no two-process reference samples (refclock.RefClock).
TWO_CPUS = False
FIELDS = ("SSH", "CESM-T", "RELHUM", "SOILLIQ", "Tsfc", "Hurricane-T")
#: Rounds every untraced run makes at least, so that each call's median
#: is taken over enough repeats even on a short window (about 1.2 s each).
MIN_ROUNDS = 6


def make_fields():
    from repro.datasets import load

    return [load(name) for name in FIELDS]


def one_round(run: Run, seed: int, fields, codecs, eb, ref, tracer=None, rnd=0):
    """Compress and decompress every field once, checking every output.

    ``ref`` holds per field the first blob its compress returned (every
    later compress must return the same bytes) and the PSNR of its first
    reconstruction. Returns the round's raw compress seconds and the
    measured seconds of each traced root span.
    """
    walls: dict[int, float] = {}
    spent = 0.0
    for k in np.random.default_rng([seed, rnd]).permutation(len(fields)):
        f, codec, bound, first = fields[k], codecs[k], eb[k], ref[k]
        rid = f"r{rnd}:{f.name}"
        done = run.op("compress",
                      lambda: codec.compress(f.data, rel_eb=REL_EB, mask=f.mask),
                      nbytes=f.data.nbytes, group=f"compress:{f.name}", tracer=tracer,
                      name="archive.compress", rid=rid)
        if done is not None:
            spent += done.raw
            walls[done.span] = done.raw
            first.setdefault("blob", done.out)
            if done.out != first["blob"]:
                run.problem(f"{f.name}: compress output differs between calls")
        if "blob" not in first:
            continue
        done = run.op("decompress", lambda: codec.decompress(first["blob"]),
                      nbytes=f.data.nbytes, group=f"decompress:{f.name}", tracer=tracer,
                      name="archive.decompress", rid=rid)
        if done is not None:
            walls[done.span] = done.raw
            run.check(f.name, f.data, done.out, f.mask, bound)
            first.setdefault("psnr", psnr_db(f.data, done.out, f.mask))
    walls.pop(None, None)
    return spent, walls


def summarize(run: Run, fields, ref) -> None:
    """Ratio and PSNR over the six distinct inputs."""
    done = [(f, r) for f, r in zip(fields, ref) if "psnr" in r]
    run.notes["ratio"] = (sum(f.data.nbytes for f, _ in done)
                          / sum(len(r["blob"]) for _, r in done))
    run.notes["psnr_db"] = float(np.mean([r["psnr"] for _, r in done]))
    run.notes["ratio_by_field"] = {
        f.name: round(f.data.nbytes / len(r["blob"]), 3) for f, r in done}


def prepare(run: Run, tracer=None, walls=None):
    from repro.core import CliZ

    fields = repeat_median(run, make_fields)
    if tracer is not None:
        layers.install_codec_wrappers(tracer)
    try:
        configs = tune_fields(run, [(f.name, f.data, f.mask, f.tuner_kwargs())
                                    for f in fields], tracer, walls)
    finally:
        if tracer is not None:
            tracer.unwrap_all()
            tracer.counters.clear()
    codecs = [CliZ(cfg) for cfg in configs]
    eb = [error_bound(f.data, f.mask, REL_EB) for f in fields]
    return fields, codecs, eb, [{} for _ in fields]


def run_untraced(run: Run, seed: int, seconds: float, workdir) -> dict[str, float]:
    fields, codecs, eb, ref = prepare(run)
    deadline = time.perf_counter() + seconds
    rounds = 0
    while rounds < MIN_ROUNDS or time.perf_counter() < deadline:
        one_round(run, seed, fields, codecs, eb, ref, rnd=rounds)
        rounds += 1
    run.notes["rounds"] = rounds
    summarize(run, fields, ref)
    return run.end_to_end()


def run_traced(run: Run, seed: int, seconds: float, workdir,
               tracer: Tracer) -> dict[str, float]:
    """Tuning traced; bulk rounds alternate untraced and traced."""
    out = layers.empty_layers()
    walls: dict[int, float] = {}
    fields, codecs, eb, ref = prepare(run, tracer, walls)
    tune_roots = set(walls)
    deadline = time.perf_counter() + seconds
    plain, traced, bulk_roots = [], [], set()
    rounds = 0
    while rounds < 2 or time.perf_counter() < deadline:
        if rounds % 2:
            layers.install_codec_wrappers(tracer)
            try:
                spent, w = one_round(run, seed, fields, codecs, eb, ref, tracer, rounds)
            finally:
                tracer.unwrap_all()
            traced.append(spent)
            walls.update(w)
            bulk_roots.update(w)
        else:
            plain.append(one_round(run, seed, fields, codecs, eb, ref, rnd=rounds)[0])
        rounds += 1
    layers.tune_layer_metrics(tracer, tune_roots, run.ref.scale(), out)
    layers.codec_layer_metrics(tracer, bulk_roots, len(traced), run.ref.scale(), out)
    out["trace.overhead_pct"] = layers.overhead_pct(plain, traced)
    layers.reconcile(run, tracer, walls, out)
    return out
