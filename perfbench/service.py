"""``service``: a closed loop against a 2-shard cluster over HTTP.

The cluster is ``python -m repro.service serve --shards 2`` on a fresh
store, started as a child process and gated on its router's ``/ready``.
Two client threads in this process each run a closed loop (next request
only after the previous answer) over a seeded schedule of CESM-T tiles
and masked SSH tiles cut from larger fields: per client and round, 5
``/compress``, 3 ``/decompress`` of keys the same client stored earlier
in the round, and 2 ``/estimate``, one of a seeded tile and one of the
fixed tile :attr:`Inputs.land_lead`, on which ``/estimate`` fails at
this commit (see :class:`Inputs`). Rounds are whole and synchronised:
the reference clock is sampled while both clients wait between rounds,
so it never competes with the service for the two CPUs.

The per-client rate limit and burst are set far above what two
closed-loop connections can send, so admission refuses nothing unless
something is wrong; a refusal (429/503) still counts as a failure.
"""

from __future__ import annotations

import base64
import http.client
import json
import os
import re
import signal
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import layers
from checks import check_service_decode, error_bound, psnr_db
from common import REL_EB, STANDARD_TUNES, Op, Run, repeat_median, tune_standard
from tracing import Tracer

BIG = {"CESM-T": (26, 180, 360), "SSH": (96, 80, 252)}
TILE = {"CESM-T": (26, 18, 36), "SSH": (12, 10, 126)}
KINDS = ("CESM-T", "SSH")
ROUND = ("compress",) * 5 + ("decompress",) * 3 + ("estimate",) * 2
#: The cluster keeps both CPUs busy: its start and the closed loop are
#: scaled by two-process reference samples (refclock.RefClock).
TWO_CPUS = True
CLIENTS = 2
MIN_REQUESTS = 480
#: Rounds every run completes (MIN_REQUESTS / requests per round); ratio
#: and PSNR come from these, so they do not depend on the run's length.
FIXED_ROUNDS = MIN_REQUESTS // (CLIENTS * len(ROUND))
SETUP_REPEATS = 3
RATE = 100_000  # per-client requests/s and burst: far above a closed loop
#: /estimate's default sample budget (elements of the leading slab it compresses)
ESTIMATE_BUDGET = 4096
PROBES = 8  # per-layer probe requests of each kind in the traced run


# ---------------------------------------------------------------------- #
# inputs and the seeded schedule

@dataclass(frozen=True)
class Tile:
    kind: str
    i: int
    j: int
    t: int = 0


class Inputs:
    """The two large fields and the tile positions cut from them.

    ``/estimate`` compresses a leading slab of its input (whole rows of
    axis 0, up to :data:`ESTIMATE_BUDGET` elements) and answers 500 when
    that slab of a masked tile is all land, although the tile holds ocean
    (``FOUND`` in CHANGES.md). Whether a seeded SSH tile hits this would
    depend on the seed, and with it the share of failed operations, so
    seeded SSH tiles are cut where their first latitude row holds ocean;
    the fault is measured instead on one fixed tile, ``land_lead``, whose
    leading slab is all land, estimated once per client and round.
    """

    def __init__(self) -> None:
        from repro.datasets import cesm_t, ssh

        # fixed fields (Table III generator seeds); --seed picks the tiles
        self.fields = {"CESM-T": cesm_t(BIG["CESM-T"], seed=1),
                       "SSH": ssh(BIG["SSH"], seed=0)}
        nlat, nlon, nt = BIG["SSH"]
        th, tw, tt = TILE["SSH"]
        valid = self.fields["SSH"].mask[:, :, 0]
        # SSH tiles hold ocean: at least 25% of the tile, and some in its
        # first latitude row, since /estimate samples a leading slab and
        # answers 500 when that slab is all land (see CHANGES.md, FOUND)
        spots = [(i, j) for i in range(nlat - th + 1) for j in range(nlon - tw + 1)
                 if valid[i:i + th, j:j + tw].mean() >= 0.25]
        self.ssh_spots = [(i, j) for i, j in spots
                          if i % 2 == 0 and j % 2 == 0 and valid[i, j:j + tw].any()]
        lead = -(-ESTIMATE_BUDGET // (tw * tt))
        i, j = next((i, j) for i, j in spots if not valid[i:i + lead, j:j + tw].any())
        self.land_lead = Tile("SSH", i, j)
        self.ssh_windows = nt // tt

    def draw(self, rng: np.random.Generator, kind: str) -> Tile:
        if kind == "CESM-T":
            _, nlat, nlon = BIG[kind]
            _, th, tw = TILE[kind]
            return Tile(kind, int(rng.integers(nlat - th + 1)),
                        int(rng.integers(nlon - tw + 1)))
        i, j = self.ssh_spots[int(rng.integers(len(self.ssh_spots)))]
        return Tile(kind, i, j, int(rng.integers(self.ssh_windows)))

    def cut(self, tile: Tile) -> tuple[np.ndarray, np.ndarray | None]:
        f = self.fields[tile.kind]
        if tile.kind == "CESM-T":
            _, th, tw = TILE[tile.kind]
            sl = (slice(None), slice(tile.i, tile.i + th), slice(tile.j, tile.j + tw))
        else:
            th, tw, tt = TILE[tile.kind]
            sl = (slice(tile.i, tile.i + th), slice(tile.j, tile.j + tw),
                  slice(tile.t * tt, (tile.t + 1) * tt))
        data = np.ascontiguousarray(f.data[sl])
        mask = None if f.mask is None else np.ascontiguousarray(f.mask[sl])
        return data, mask


def schedule(inputs: Inputs, seed: int, client: int, rnd: int):
    """One client's round: a pure function of (seed, client, round).

    Returns ``(request kind, tile, ref)`` triples in a seeded order that
    always opens with a compress. Tile kinds alternate, so that the two
    clients together send as many CESM-T as SSH tiles each round; a
    decompress names (``ref``) an earlier compress of the same round,
    of the tile kind whose turn it is when the round has one. The second
    estimate of every round is of ``inputs.land_lead``.
    """
    rng = np.random.default_rng([seed, client, rnd])
    order = ["compress"] + [ROUND[1 + k] for k in rng.permutation(len(ROUND) - 1)]
    flip = (client + rnd) % 2
    turns = {"compress": 0, "decompress": 0, "estimate": 0}
    stored: list[tuple[int, str]] = []
    out = []
    for pos, kind in enumerate(order):
        tile_kind = KINDS[(turns[kind] + flip) % 2]
        turns[kind] += 1
        if kind == "decompress":
            earlier = [p for p, k in stored if k == tile_kind] or [p for p, _ in stored]
            out.append((kind, None, earlier[int(rng.integers(len(earlier)))]))
        elif kind == "estimate" and turns[kind] == 2:
            out.append((kind, inputs.land_lead, None))
        else:
            if kind == "compress":
                stored.append((pos, tile_kind))
            out.append((kind, inputs.draw(rng, tile_kind), None))
    return out


def _encode(arr: np.ndarray) -> dict:
    return {"data": base64.b64encode(arr.tobytes()).decode("ascii"),
            "dtype": arr.dtype.str, "shape": list(arr.shape)}


def body_for(kind: str, data=None, mask=None, key=None) -> bytes:
    if kind == "decompress":
        return json.dumps({"key": key}).encode()
    doc = {"codec": "cliz", "rel_eb": REL_EB, "array": _encode(data)}
    if mask is not None:
        doc["mask"] = _encode(mask)
    return json.dumps(doc).encode()


def post(port: int, path: str, body: bytes, client: str) -> tuple[int, bytes]:
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=120)
    try:
        conn.request("POST", path, body, {"Content-Type": "application/json",
                                          "X-Client": client})
        resp = conn.getresponse()
        return resp.status, resp.read()
    finally:
        conn.close()


def get_json(port: int, path: str) -> tuple[int, dict]:
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=10)
    try:
        conn.request("GET", path)
        resp = conn.getresponse()
        raw = resp.read()
        try:
            return resp.status, json.loads(raw)
        except ValueError:
            return resp.status, {"text": raw.decode("utf-8", "replace")}
    finally:
        conn.close()


# ---------------------------------------------------------------------- #
# the cluster process

class Cluster:
    """``serve --shards 2`` as a child process with a fresh store."""

    def __init__(self, workdir: Path, index: int) -> None:
        self.store = workdir / f"store-{index}"
        self.log = workdir / f"serve-{index}.log"
        self.proc: subprocess.Popen | None = None
        self.port: int | None = None
        self.shards: list[dict] = []

    def start(self, timeout: float = 60.0) -> "Cluster":
        cmd = [sys.executable, "-m", "repro.service", "serve", "--shards", "2",
               "--port", "0", "--store", str(self.store),
               "--rate", str(RATE), "--burst", str(RATE)]
        with open(self.log, "wb") as log:
            self.proc = subprocess.Popen(cmd, stdout=subprocess.DEVNULL, stderr=log)
        deadline = time.monotonic() + timeout
        while self.port is None:
            if self.proc.poll() is not None or time.monotonic() > deadline:
                raise RuntimeError(f"cluster did not start: {self.log.read_text()!r}")
            m = re.search(r"on http://127\.0\.0\.1:(\d+)", self.log.read_text())
            if m:
                self.port = int(m.group(1))
            else:
                time.sleep(0.01)
        while True:  # health gate: the router reports every shard healthy
            status, doc = get_json(self.port, "/ready")
            shards = doc.get("shards", [])
            if status == 200 and len(shards) == 2 and \
                    all(s.get("state") == "healthy" for s in shards):
                self.shards = shards
                return self
            if time.monotonic() > deadline:
                raise RuntimeError(f"cluster not ready: {status} {doc}")
            time.sleep(0.01)

    def shard_port(self, index: int) -> int:
        return int(self.shards[index]["port"])

    def stop(self, run: Run) -> None:
        """TERM the service, wait, and check no shard outlives it."""
        if self.proc is None:
            return
        self.proc.send_signal(signal.SIGTERM)
        try:
            self.proc.wait(timeout=60)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
            run.problem("the service did not stop within 60 s of SIGTERM")
        if self.proc.returncode != 0:
            run.problem(f"the service exited with code {self.proc.returncode}")
        deadline = time.monotonic() + 10
        for shard in self.shards:
            pid = shard.get("pid")
            while pid and _alive(pid):
                if time.monotonic() > deadline:
                    run.problem(f"shard process {pid} outlived the service")
                    os.kill(pid, signal.SIGKILL)
                    break
                time.sleep(0.05)
        self.proc = None


def _alive(pid: int) -> bool:
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    try:  # a zombie has exited; its parent just has not reaped it yet
        with open(f"/proc/{pid}/stat", encoding="ascii") as fh:
            return fh.read().rsplit(")", 1)[1].split()[0] != "Z"
    except OSError:
        return False


# ---------------------------------------------------------------------- #
# the closed loop

@dataclass
class Request:
    client: int
    rnd: int
    kind: str
    tile: Tile | None
    status: int = 0
    raw: float = 0.0
    seconds: float = 0.0
    payload: bytes = b""
    doc: dict | None = None
    key: str | None = None
    error: str | None = None


@dataclass
class Loop:
    """Synchronised rounds of two closed-loop clients."""

    inputs: Inputs
    seed: int
    port: int
    tracer: Tracer | None = None
    requests: list[Request] = field(default_factory=list)
    stop: bool = False
    traced_round: bool = False

    def __post_init__(self) -> None:
        self.barrier = threading.Barrier(CLIENTS + 1)
        self._lock = threading.Lock()

    def client(self, c: int) -> None:
        rnd = 0
        while True:
            self.barrier.wait()
            if self.stop:
                return
            done: list[Request] = []
            for kind, tile, ref in schedule(self.inputs, self.seed, c, rnd):
                req = Request(c, rnd, kind, tile)
                if kind == "decompress":
                    req.key = done[ref].key
                    body = body_for(kind, key=req.key) if req.key else None
                else:
                    body = body_for(kind, *self.inputs.cut(tile))
                if body is not None:
                    self.send(req, body)
                else:
                    req.error = "its compress failed, so there is no key"
                done.append(req)
            with self._lock:
                self.requests.extend(done)
            self.barrier.wait()
            rnd += 1

    def send(self, req: Request, body: bytes) -> None:
        t0 = time.perf_counter()
        try:
            if self.traced_round and self.tracer is not None:
                with self.tracer.span("client.request",
                                      rid=f"c{req.client}r{req.rnd}:{req.kind}"):
                    req.status, req.payload = post(self.port, f"/{req.kind}", body,
                                                   f"bench-{req.client}")
            else:
                req.status, req.payload = post(self.port, f"/{req.kind}", body,
                                               f"bench-{req.client}")
        except (OSError, http.client.HTTPException) as exc:
            req.error = f"{type(exc).__name__}: {exc}"
        req.raw = time.perf_counter() - t0
        if req.kind == "compress" and req.status == 200:
            req.doc = json.loads(req.payload)
            req.key = req.doc.get("key")
            req.payload = b""

    def run(self, run: Run, seconds: float, alternate: bool = False):
        """Whole rounds until ``seconds`` passed and MIN_REQUESTS were sent.

        Returns the raw compress seconds of each untraced and each traced
        round (the latter only when ``alternate``).
        """
        threads = [threading.Thread(target=self.client, args=(c,), daemon=True)
                   for c in range(CLIENTS)]
        for t in threads:
            t.start()
        plain, traced = [], []
        t_end = time.perf_counter() + seconds
        rnd = 0
        try:
            while True:
                self.traced_round = alternate and rnd % 2 == 1
                before = run.ref.fresh_mark(2)  # both clients wait: quiet
                n0 = len(self.requests)
                t0 = time.perf_counter()
                self.barrier.wait()  # start the round
                self.barrier.wait()  # both clients finished it
                wall = time.perf_counter() - t0
                factor = run.ref.factor(before, run.ref.mark(2))
                run.busy += wall * factor
                for r in self.requests[n0:]:
                    r.seconds = r.raw * factor
                spent = sum(r.raw for r in self.requests[n0:] if r.kind == "compress")
                (traced if self.traced_round else plain).append(spent)
                rnd += 1
                if time.perf_counter() >= t_end and len(self.requests) >= MIN_REQUESTS:
                    break
        finally:
            self.stop = True
            self.barrier.wait()
            for t in threads:
                t.join()
        run.notes["rounds"] = rnd
        return plain, traced


# ---------------------------------------------------------------------- #
# verification and metrics

def verify(run: Run, loop: Loop, store: Path) -> None:
    """Check every answer; ratio and PSNR over the fixed first rounds."""
    raw_bytes = comp_bytes = 0
    psnrs = []
    for req in loop.requests:
        run.attempt(req.kind)
        if req.error or req.status != 200:
            run.fail(req.kind, req.error or f"HTTP {req.status}: {req.payload[:200]!r}",
                     req.status or None)
            if req.status == 206:
                run.problem(f"/decompress of {req.key} answered 206 (salvaged)")
            continue
        if req.kind == "decompress":
            src = next(r for r in loop.requests
                       if r.client == req.client and r.rnd == req.rnd
                       and r.kind == "compress" and r.key == req.key)
            data, mask = loop.inputs.cut(src.tile)
            try:
                doc = json.loads(req.payload)
            except ValueError:
                doc = None
            eb = error_bound(data, mask, REL_EB)
            why = check_service_decode(req.status, doc, data, mask, eb)
            if why:
                run.problem(f"/decompress {req.key}: {why}")
            else:
                recon = np.frombuffer(base64.b64decode(doc["array"]["data"]),
                                      dtype=data.dtype).reshape(data.shape)
                run.count_over_eb(data, recon, mask, eb)
                if req.rnd < FIXED_ROUNDS:
                    psnrs.append(psnr_db(data, recon, mask))
            nbytes = data.nbytes
        else:
            data, _ = loop.inputs.cut(req.tile)
            nbytes = data.nbytes
            if req.kind == "compress":
                doc = req.doc
                blob = store / req.key[:2] / req.key
                size = blob.stat().st_size if blob.is_file() else -1
                if doc.get("raw_bytes") != nbytes or doc.get("compressed_bytes") != size \
                        or doc.get("shape") != list(data.shape) \
                        or doc.get("dtype") != data.dtype.str:
                    run.problem(f"/compress answer disagrees with the input or the "
                                f"stored blob ({size} bytes): {doc}")
                elif req.rnd < FIXED_ROUNDS:
                    raw_bytes += nbytes
                    comp_bytes += size
            else:
                doc = json.loads(req.payload)
                if not doc.get("estimated_compressed_bytes", 0) > 0:
                    run.problem(f"/estimate gave no estimate: {doc}")
        run.ops.append(Op(req.kind, req.seconds, nbytes))
    run.notes["ratio"] = raw_bytes / comp_bytes if comp_bytes else 0.0
    run.notes["psnr_db"] = float(np.mean(psnrs)) if psnrs else 0.0


def setup(run: Run, workdir: Path):
    """Inputs plus a health-gated cluster, set up several times.

    Each repetition generates the inputs and starts a cluster on a fresh
    store; all but the last cluster are stopped again (untimed).
    """
    starts = iter(range(SETUP_REPEATS))
    return repeat_median(
        run, lambda: (Inputs(), Cluster(workdir, next(starts)).start()),
        SETUP_REPEATS, between=lambda out: out[1].stop(run), width=2)


def run_untraced(run: Run, seed: int, seconds: float, workdir: Path) -> dict[str, float]:
    tune_standard(run)  # tuned while no cluster runs beside it
    inputs, cluster = setup(run, workdir)
    try:
        loop = Loop(inputs, seed, cluster.port)
        loop.run(run, seconds)
    finally:
        cluster.stop(run)
    for _ in range(STANDARD_TUNES - 1):
        tune_standard(run)
    verify(run, loop, cluster.store)
    return run.end_to_end()


# ---------------------------------------------------------------------- #
# the traced run

def install_service_wrappers(tracer: Tracer) -> None:
    from repro.service import blobstore, handlers

    layers.install_codec_wrappers(tracer)
    tracer.wrap(handlers, "compress_chunked", "parallel.compress_chunked")
    tracer.wrap(handlers, "decompress_chunked", "parallel.decompress_chunked")
    tracer.wrap(handlers, "encode_array", "service.body_codec")
    tracer.wrap(blobstore.BlobStore, "put", "service.blob_put")
    tracer.wrap(blobstore.BlobStore, "get", "service.blob_get")


def in_process(tracer: Tracer, run: Run, kind: str, body: bytes, store, rid: str):
    """The shard's work for one request, called directly: body codec + handler."""
    from repro import _CODEC_NAMES
    from repro.service import handlers, schemas

    def call():
        with tracer.span("service.body_codec", layer=True):
            doc = json.loads(body)
            if kind == "compress":
                req = schemas.CompressRequest.from_doc(doc, tuple(_CODEC_NAMES))
            elif kind == "decompress":
                req = schemas.DecompressRequest.from_doc(doc)
            else:
                req = schemas.EstimateRequest.from_doc(doc, tuple(_CODEC_NAMES))
        with tracer.span("service.handler", layer=True) as sp:
            if kind == "compress":
                result = handlers.do_compress(req, store)
            elif kind == "decompress":
                result = handlers.do_decompress(req, store)
            else:
                result = handlers.do_estimate(req)
        with tracer.span("service.body_codec", layer=True):
            json.dumps(result, sort_keys=True)
        return result, sp.dur

    return run.op(kind, call, tracer=tracer, name=f"probe.{kind}", rid=rid,
                  log=False, setup=True)


def probe_layers(run: Run, loop: Loop, cluster: Cluster, tracer: Tracer,
                 workdir: Path, seed: int, out: dict, walls: dict) -> int:
    """Per-layer probes on fresh tiles: in-process, direct to a shard, via router.

    Returns how many requests went through the router.
    """
    from repro.service import BlobStore, shard_for_key

    inputs = loop.inputs
    local = BlobStore(workdir / "probe-store")
    rng = np.random.default_rng([seed, 7])
    handler, body_codec, overhead, hops, est_err = [], [], [], [], []
    roots: set[int] = set()
    via_router = 0

    def timed_post(port, path, body):
        run.setup_ops[path.strip("/")] += 1
        t0 = time.perf_counter()
        status, payload = post(port, path, body, "bench-probe")
        if status != 200:
            run.problem(f"probe {path} answered HTTP {status}: {payload[:200]!r}")
        return time.perf_counter() - t0, payload

    install_service_wrappers(tracer)
    try:
        for p in range(PROBES):
            shard = (p // 2) % 2
            kind = KINDS[p % 2]
            tile_a, tile_b, tile_e = (inputs.draw(rng, kind) for _ in range(3))
            body_a = body_for("compress", *inputs.cut(tile_a))
            body_b = body_for("compress", *inputs.cut(tile_b))
            # compress: fresh tile A in-process and direct to a shard,
            # fresh tile B via the router (a repeat would skip the write)
            done = in_process(tracer, run, "compress", body_a, local, f"probe{p}:c")
            direct, payload = timed_post(cluster.shard_port(shard), "/compress", body_a)
            hop, _ = timed_post(cluster.port, "/compress", body_b)
            via_router += 1
            probes = [("compress", done, direct, hop)]
            key = json.loads(payload).get("key")
            if not key:  # the direct compress failed (counted): no key to read
                continue
            # decompress the key just stored: owner shard vs router
            body_d = body_for("decompress", key=key)
            done = in_process(tracer, run, "decompress", body_d, local, f"probe{p}:d")
            owner = shard_for_key(key, 2)
            if p % 2:
                hop, _ = timed_post(cluster.port, "/decompress", body_d)
                direct, _ = timed_post(cluster.shard_port(owner), "/decompress", body_d)
            else:
                direct, _ = timed_post(cluster.shard_port(owner), "/decompress", body_d)
                hop, _ = timed_post(cluster.port, "/decompress", body_d)
            via_router += 1
            probes.append(("decompress", done, direct, hop))
            # estimate, and how far it lands from the real compressed size
            data, mask = inputs.cut(tile_e)
            body_e = body_for("estimate", data, mask)
            done = in_process(tracer, run, "estimate", body_e, local, f"probe{p}:e")
            direct, _ = timed_post(cluster.shard_port(shard), "/estimate", body_e)
            hop, _ = timed_post(cluster.port, "/estimate", body_e)
            via_router += 1
            probes.append(("estimate", done, direct, hop))
            if done is not None:
                actual = in_process(tracer, run, "compress", body_for("compress", data, mask),
                                    local, f"probe{p}:oracle")
                if actual is not None:
                    est = done.out[0]["estimated_compressed_bytes"]
                    real = actual.out[0]["compressed_bytes"]
                    est_err.append(abs(est - real) / real * 100.0)
                    walls[actual.span] = actual.raw
                    roots.add(actual.span)
            for kind, done, direct, routed in probes:
                if done is None:
                    continue
                walls[done.span] = done.raw
                roots.add(done.span)
                h = done.out[1]
                handler.append(h)
                overhead.append(direct - h)
                hops.append(routed - direct)
    finally:
        tracer.unwrap_all()

    import statistics

    kids = tracer.children()
    for root in roots:
        body_codec.append(sum(tracer.spans[k].dur for k in _descendants(kids, root)
                              if tracer.spans[k].name == "service.body_codec"))
    ms = run.ref.scale(2) * 1e3
    out["service.handler_ms"] = statistics.median(handler) * ms
    out["service.body_codec_ms"] = statistics.median(body_codec) * ms
    out["service.http_overhead_ms"] = statistics.median(overhead) * ms
    out["router.hop_ms"] = statistics.median(hops) * ms
    out["service.estimate_err_pct"] = float(np.mean(est_err))
    out["service.blob_put_ms"] = statistics.median(
        tracer.durations("service.blob_put", roots)) * ms
    out["service.blob_get_ms"] = statistics.median(
        tracer.durations("service.blob_get", roots)) * ms
    layers.codec_layer_metrics(tracer, roots, len(roots), run.ref.scale(), out)
    for name in ("compress_chunked", "decompress_chunked"):
        calls = tracer.durations(f"parallel.{name}", roots)
        out[f"parallel.{name}_ms"] = sum(calls) * ms / max(len(calls), 1)
    # the service dispatches chunks serially (one worker): the share of
    # the chunked call spent in the codec itself
    chunked = sum(tracer.durations("parallel.compress_chunked", roots)
                  + tracer.durations("parallel.decompress_chunked", roots))
    codec = sum(sp.dur for sp in tracer.spans
                if sp.name in ("core.cliz_compress", "core.cliz_decompress")
                and tracer.root_of(sp.id) in roots
                and sp.parent is not None
                and tracer.spans[sp.parent].name.startswith("parallel."))
    out["parallel.efficiency"] = codec / chunked if chunked else 0.0
    return via_router


def _descendants(kids: dict[int, list[int]], root: int):
    stack = list(kids.get(root, ()))
    while stack:
        k = stack.pop()
        yield k
        stack.extend(kids.get(k, ()))


def hedges(port: int) -> float:
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=10)
    try:
        conn.request("GET", "/metrics")
        text = conn.getresponse().read().decode("utf-8", "replace")
    finally:
        conn.close()
    m = re.search(r"^repro_service_cluster_hedges_total(?:\{[^}]*\})? (\S+)$", text, re.M)
    return float(m.group(1)) if m else 0.0


def run_traced(run: Run, seed: int, seconds: float, workdir: Path,
               tracer: Tracer) -> dict[str, float]:
    """Closed loop with alternating traced rounds, then per-layer probes."""
    out = layers.empty_layers()
    walls: dict[int, float] = {}
    layers.install_codec_wrappers(tracer)
    try:
        tune_standard(run, tracer, walls)
    finally:
        tracer.unwrap_all()
    tune_roots = set(walls)
    tracer.counters.clear()
    inputs, cluster = setup(run, workdir)
    try:
        loop = Loop(inputs, seed, cluster.port, tracer)
        plain, traced = loop.run(run, seconds, alternate=True)
        routed = len(loop.requests)
        routed += probe_layers(run, loop, cluster, tracer, workdir, seed, out, walls)
        out["router.hedges_per_100"] = hedges(cluster.port) * 100.0 / routed
    finally:
        cluster.stop(run)
    verify(run, loop, cluster.store)
    layers.tune_layer_metrics(tracer, tune_roots, run.ref.scale(), out)
    out["trace.overhead_pct"] = layers.overhead_pct(plain, traced)
    layers.reconcile(run, tracer, walls, out)
    return out
