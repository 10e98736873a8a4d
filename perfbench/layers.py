"""Per-layer metrics of the traced run: the wrappers and the figures.

Every workload's traced run reports every metric in :data:`PER_LAYER`. A
layer that the workload's path never enters reads 0 (no time spent in
it, nothing counted); the README's table says which workload moves which
figure.
"""

from __future__ import annotations

import json
import statistics
from pathlib import Path

from tracing import Tracer

__all__ = ["PER_LAYER", "install_codec_wrappers", "codec_layer_metrics",
           "tune_layer_metrics", "overhead_pct", "reconcile", "empty_layers"]

#: Every per-layer metric (name -> unit), as BENCHMARK.json lists them.
PER_LAYER = {m["name"]: m["unit"] for m in json.loads(
    (Path(__file__).resolve().parents[1] / "BENCHMARK.json").read_text(encoding="utf-8")
)["per_layer"]}

#: span name -> per-layer metric it feeds (self time, ms per round).
_CODEC_SPANS = {
    "encoding.huffman_encode": "encoding.huffman_encode_ms",
    "encoding.huffman_decode": "encoding.huffman_decode_ms",
    "encoding.lz_compress": "encoding.lz_compress_ms",
    "encoding.lz_decompress": "encoding.lz_decompress_ms",
    "prediction.predict_quantize": "prediction.predict_quantize_ms",
    "prediction.reconstruct": "prediction.reconstruct_ms",
}


def empty_layers() -> dict[str, float]:
    return {name: 0.0 for name in PER_LAYER}


def install_codec_wrappers(tracer: Tracer) -> None:
    """Wrap the codec-stage and kernel entry points the CliZ path calls.

    Besides the stages the per-layer metrics report, the helpers CliZ
    and the tuner call between stages (validation, layout, periodic
    split, bin classification, stream framing) get layer spans of their
    own, so that reconciliation leaves only the callers' inline code
    unattributed. ``core.cliz_compress`` and ``core.cliz_decompress`` are
    umbrella spans: what they spend outside their children is glue.
    """
    from repro.core import autotune, binclass, compressor, periodicity
    from repro.encoding import lz
    from repro.encoding.container import Container
    from repro.encoding.huffman import HuffmanCode
    from repro.prediction import interpolation

    def lz_bytes(args, kwargs, result):
        tracer.count("lz.in", len(args[0]))
        tracer.count("lz.out", len(result))

    tracer.wrap_everywhere(lz.lz_compress, "encoding.lz_compress", lz_bytes)
    tracer.wrap_everywhere(lz.lz_decompress, "encoding.lz_decompress")
    tracer.wrap_everywhere(interpolation.interp_compress,
                           "prediction.predict_quantize")
    tracer.wrap_everywhere(interpolation.interp_decompress,
                           "prediction.reconstruct")
    tracer.wrap_everywhere(periodicity.detect_period, "core.period_detect")
    tracer.wrap(HuffmanCode, "from_symbols", "encoding.huffman_encode")
    tracer.wrap(HuffmanCode, "encode", "encoding.huffman_encode")
    tracer.wrap(HuffmanCode, "deserialize", "encoding.huffman_decode")
    tracer.wrap(HuffmanCode, "decode", "encoding.huffman_decode")
    for module, names in (
            (compressor, {
                "check_array": "core.validate", "check_mask": "core.validate",
                "ensure_float": "core.validate",
                "resolve_error_bound": "core.validate",
                "pack_bitmap": "encoding.bitmap", "unpack_bitmap": "encoding.bitmap",
                "split_periodic": "core.periodic_split",
                "merge_periodic": "core.periodic_split",
                "apply_layout": "core.layout", "undo_layout": "core.layout",
                "traversal_indices": "prediction.traversal",
                "classify_bins": "core.binclass", "undo_shift": "core.binclass",
                "encode_grouped": "encoding.grouped",
                "decode_grouped": "encoding.grouped",
                "encode_code_stream": "encoding.code_stream",
                "decode_code_stream": "encoding.code_stream",
                "encode_floats": "encoding.floats", "decode_floats": "encoding.floats"}),
            (autotune, {
                "check_array": "core.validate", "check_mask": "core.validate",
                "ensure_float": "core.validate",
                "resolve_error_bound": "core.validate",
                "mask_aware_anchors": "core.tune_sample",
                "sample_blocks": "core.tune_sample",
                "assemble_sample": "core.tune_sample"})):
        for attr, name in names.items():
            tracer.wrap(module, attr, name)
    tracer.wrap(binclass.BinClassification, "deserialize", "core.binclass")
    tracer.wrap(autotune.AutoTuner, "candidate_pipelines", "core.tune_sample")
    tracer.wrap(Container, "to_bytes", "encoding.container")
    tracer.wrap(Container, "from_bytes", "encoding.container")
    tracer.wrap(compressor.CliZ, "compress", "core.cliz_compress", layer=False)
    tracer.wrap(compressor.CliZ, "decompress", "core.cliz_decompress", layer=False)


def codec_layer_metrics(tracer: Tracer, roots: set[int], rounds: int,
                        scale: float, out: dict[str, float]) -> None:
    """Codec-stage self times (ms per round) and the LZ size ratio."""
    selfs = tracer.self_times_by_name(roots)
    for span_name, metric in _CODEC_SPANS.items():
        out[metric] = selfs.get(span_name, 0.0) * scale * 1e3 / max(rounds, 1)
    if tracer.counters.get("lz.in"):
        out["encoding.lz_out_in"] = tracer.counters["lz.out"] / tracer.counters["lz.in"]


def tune_layer_metrics(tracer: Tracer, tune_roots: set[int], scale: float,
                       out: dict[str, float]) -> None:
    """Candidate count, median candidate time and period detection time."""
    trials = tracer.durations("core.cliz_compress", tune_roots)
    out["core.tune_trials"] = float(len(trials))
    out["core.tune_trial_ms"] = statistics.median(trials) * scale * 1e3 if trials else 0.0
    out["core.period_detect_ms"] = sum(
        tracer.durations("core.period_detect", tune_roots)) * scale * 1e3


def overhead_pct(untraced_s: list[float], traced_s: list[float]) -> float:
    """Extra time of traced rounds over untraced ones, in percent."""
    return (statistics.median(traced_s) / statistics.median(untraced_s) - 1.0) * 100.0


def reconcile(run, tracer: Tracer, walls: dict[int, float], out: dict[str, float]) -> None:
    """Layer self times must cover the measured walls (a wrong output if not)."""
    share, why = tracer.reconcile(walls)
    out["trace.unattributed_pct"] = share * 100.0
    if why:
        run.problem(f"trace does not reconcile: {why}")
