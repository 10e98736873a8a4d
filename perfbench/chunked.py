"""``chunked``: few-MB fields through the ``repro.parallel`` pool.

CESM-T and masked SSH, generated at larger shapes than Table III's
defaults, go through ``compress_chunked`` / ``decompress_chunked`` with
a 2-worker pool and 4 chunks, in whole rounds (one round = both fields
compressed and decompressed once). ``compress_chunked`` takes no
pipeline, so the chunks use the codec's default one and ``tune_s`` times
the tuner on the standard input (:func:`common.tune_standard`).
"""

from __future__ import annotations

import time

import numpy as np

import layers
from checks import check_identical, error_bound, psnr_db
from common import REL_EB, STANDARD_TUNES, Run, repeat_median, tune_standard
from tracing import Tracer

#: Fixed parent fields (generator seeds 1 and 0, as in Table III); each
#: run crops a window of SHAPES from them at offsets drawn from --seed, so
#: runs differ in their inputs without the ratio swinging with a new field.
PARENT = {"CESM-T": ((26, 136, 272), 1), "SSH": ((68, 60, 252), 0)}
SHAPES = {"CESM-T": (26, 128, 256), "SSH": (64, 56, 252)}
#: The pool keeps both CPUs busy: its calls are scaled by two-process
#: reference samples (refclock.RefClock).
TWO_CPUS = True
WORKERS = 2
N_CHUNKS = 4
#: Rounds every untraced run makes at least (about 0.9 s each), so that
#: each call's median is taken over enough repeats.
MIN_ROUNDS = 8


def make_fields(seed: int):
    from dataclasses import replace

    from repro.datasets import cesm_t, ssh

    rng = np.random.default_rng(seed)
    out = []
    for name, gen in (("CESM-T", cesm_t), ("SSH", ssh)):
        shape, gen_seed = PARENT[name]
        parent = gen(shape, seed=gen_seed)
        sl = tuple(slice(o, o + n) for o, n in
                   ((int(rng.integers(p - n + 1)), n) for p, n in zip(shape, SHAPES[name])))
        mask = None if parent.mask is None else np.ascontiguousarray(parent.mask[sl])
        out.append(replace(parent, data=np.ascontiguousarray(parent.data[sl]), mask=mask))
    return out


def compress(f, eb, workers):
    from repro.parallel import compress_chunked

    return compress_chunked(f.data, "cliz", n_chunks=N_CHUNKS, workers=workers,
                            mask=f.mask, abs_eb=eb)


def decompress(blob, workers):
    from repro.parallel import decompress_chunked

    return decompress_chunked(blob, workers=workers)


def prepare(run: Run, seed: int, tracer=None, walls=None):
    """Inputs, tuning, and the serial-dispatch reference blobs."""
    fields = repeat_median(run, lambda: make_fields(seed))
    if tracer is not None:
        layers.install_codec_wrappers(tracer)
    try:
        tune_standard(run, tracer, walls)
    finally:
        if tracer is not None:
            tracer.unwrap_all()
            tracer.counters.clear()
    # One global bound per field (relative bounds would resolve per chunk).
    eb = [error_bound(f.data, f.mask, REL_EB) for f in fields]
    serial, psnrs = [], []
    for f, bound in zip(fields, eb):
        blob = compress(f, bound, None)
        recon = decompress(blob, None)
        run.check(f"{f.name} (serial dispatch)", f.data, recon, f.mask, bound)
        serial.append(blob)
        psnrs.append(psnr_db(f.data, recon, f.mask))
    run.notes["ratio"] = sum(f.data.nbytes for f in fields) / sum(len(b) for b in serial)
    run.notes["psnr_db"] = float(np.mean(psnrs))
    run.notes["field_mb"] = {f.name: f.data.nbytes / 1e6 for f in fields}
    return fields, eb, serial


def one_round(run: Run, fields, eb, serial, workers=WORKERS, tracer=None, rnd=0):
    """Both fields through compress and decompress; every output checked.

    Returns the raw and the scaled seconds of the round's calls by kind
    (``compress``, ``decompress``, ``total``) and the measured seconds of
    each traced root span.
    """
    walls: dict[int, float] = {}
    raw = {"compress": 0.0, "decompress": 0.0}
    scaled = {"compress": 0.0, "decompress": 0.0}
    mode = "pool" if workers else "serial"
    for f, bound, ref_blob in zip(fields, eb, serial):
        rid = f"r{rnd}:{mode}:{f.name}"
        done = run.op("compress", lambda: compress(f, bound, workers),
                      nbytes=f.data.nbytes, group=f"compress:{f.name}", tracer=tracer,
                      name="chunked.compress", rid=rid, log=bool(workers), width=2)
        if done is not None:
            raw["compress"] += done.raw
            scaled["compress"] += done.seconds
            walls[done.span] = done.raw
            why = check_identical(done.out, ref_blob, f"{f.name} {mode} vs serial")
            if why:
                run.problem(why)
        done = run.op("decompress", lambda: decompress(ref_blob, workers),
                      nbytes=f.data.nbytes, group=f"decompress:{f.name}", tracer=tracer,
                      name="chunked.decompress", rid=rid, log=bool(workers), width=2)
        if done is not None:
            raw["decompress"] += done.raw
            scaled["decompress"] += done.seconds
            walls[done.span] = done.raw
            run.check(f"{f.name} ({mode})", f.data, done.out, f.mask, bound)
    raw["total"] = raw["compress"] + raw["decompress"]
    walls.pop(None, None)
    return raw, scaled, walls


def run_untraced(run: Run, seed: int, seconds: float, workdir) -> dict[str, float]:
    fields, eb, serial = prepare(run, seed)
    deadline = time.perf_counter() + seconds
    rounds = 0
    while rounds < MIN_ROUNDS or time.perf_counter() < deadline:
        one_round(run, fields, eb, serial, rnd=rounds)
        rounds += 1
    run.notes["rounds"] = rounds
    for _ in range(STANDARD_TUNES - 1):
        tune_standard(run)
    return run.end_to_end()


def install_parallel_wrappers(tracer: Tracer) -> None:
    import repro.parallel

    layers.install_codec_wrappers(tracer)
    tracer.wrap(repro.parallel, "compress_chunked", "parallel.compress_chunked")
    tracer.wrap(repro.parallel, "decompress_chunked", "parallel.decompress_chunked")


def run_traced(run: Run, seed: int, seconds: float, workdir,
               tracer: Tracer) -> dict[str, float]:
    """Rounds cycle: untraced pool, serial dispatch, traced serial dispatch.

    The pool rounds carry no span; they give the parallel layer's wall.
    The serial-dispatch rounds carry only the per-chunk ``CliZ`` spans
    (a few microseconds on calls of tens of milliseconds): with the pool
    rounds' wall they give the speedup and the efficiency. The pool's
    workers are other processes, so the codec layers and the
    reconciliation come from the traced serial rounds, where every chunk
    runs in-process under every wrapper.
    """
    from repro.core import CliZ

    out = layers.empty_layers()
    walls: dict[int, float] = {}
    fields, eb, serial = prepare(run, seed, tracer, walls)
    tune_roots = set(walls)
    pool_raw, pool_scaled, plain_raw, traced_raw = [], [], [], []
    plain_roots, traced_roots = set(), set()
    deadline = time.perf_counter() + seconds
    rounds = 0
    while rounds < 3 or time.perf_counter() < deadline:
        mode = rounds % 3
        if mode == 0:
            raw, scaled, _ = one_round(run, fields, eb, serial, rnd=rounds)
            pool_raw.append(raw)
            pool_scaled.append(scaled)
        else:
            if mode == 1:
                tracer.wrap(CliZ, "compress", "core.cliz_compress", layer=False)
                tracer.wrap(CliZ, "decompress", "core.cliz_decompress", layer=False)
            else:
                install_parallel_wrappers(tracer)
                tracer.counters.clear()
            try:
                raw, _, w = one_round(run, fields, eb, serial, None, tracer, rounds)
            finally:
                tracer.unwrap_all()
            if mode == 1:
                plain_raw.append(raw)
                plain_roots.update(w)
            else:
                traced_raw.append(raw)
                traced_roots.update(w)
                walls.update(w)
                serial_lz = dict(tracer.counters)  # every chunk in-process
        rounds += 1
    tracer.counters.clear()
    tracer.counters.update(serial_lz)

    layers.tune_layer_metrics(tracer, tune_roots, run.ref.scale(), out)
    layers.codec_layer_metrics(tracer, traced_roots, len(traced_raw), run.ref.scale(), out)
    n_pool = len(pool_raw)
    for kind in ("compress", "decompress"):
        out[f"parallel.{kind}_chunked_ms"] = sum(
            s[kind] for s in pool_scaled) * 1e3 / n_pool
    codec = sum(tracer.durations("core.cliz_compress", plain_roots)
                + tracer.durations("core.cliz_decompress", plain_roots)) / len(plain_raw)
    pool_wall = sum(r["total"] for r in pool_raw) / n_pool
    serial_wall = sum(r["total"] for r in plain_raw) / len(plain_raw)
    out["parallel.efficiency"] = codec / (WORKERS * pool_wall)
    out["parallel.speedup"] = serial_wall / pool_wall
    out["trace.overhead_pct"] = layers.overhead_pct(
        [r["compress"] for r in plain_raw], [r["compress"] for r in traced_raw])
    layers.reconcile(run, tracer, walls, out)
    return out
