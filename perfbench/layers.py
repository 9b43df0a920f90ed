"""Per-layer metrics from a traced run, and the checks on the trace's reach.

A layer is a ptqgt module; its spans are the calls into its public
functions. ``*.self_s`` is the summed self time of a layer's spans;
``*_calls`` count spans of one function; ``*.eig_matrices`` count the
matrices numpy/scipy ``eig`` decomposed while a span of that layer was
the innermost one.
"""

from __future__ import annotations

import numpy as np

from tracing import self_times
from workloads import N_QUAD

EIG_LAYERS = ("xy_chain", "biortho", "dynamics")  # the layers with *.eig_matrices


class ReachError(AssertionError):
    """The trace missed work it should have seen."""


def _names(tracer):
    name = np.frombuffer(tracer.name, dtype=np.int32)
    parent = np.frombuffer(tracer.parent, dtype=np.int32)
    start = np.frombuffer(tracer.start, dtype=np.float64)
    end = np.frombuffer(tracer.end, dtype=np.float64)
    eig_incl = np.frombuffer(tracer.eig_incl, dtype=np.int64)
    return name, parent, end - start, eig_incl


def layer_metrics(tracer, overhead_ratio: float) -> dict:
    """{metric: (value, unit)}; raises ReachError when a check fails."""
    name, parent, dur, eig_incl = _names(tracer)
    selfs = np.asarray(self_times(tracer.start, tracer.end, tracer.parent))
    span_layer = np.array(tracer.name_layer + [""])[name]
    parent_layer = np.where(parent >= 0, span_layer[np.maximum(parent, 0)], "")

    def mask(fn):
        nid = tracer.name_ids.get(fn)
        return name == nid if nid is not None else np.zeros(name.shape, dtype=bool)

    def calls(fn):
        return int(mask(fn).sum())

    def total_s(fn):
        return float(dur[mask(fn)].sum())

    def self_s(layer):
        return float(selfs[span_layer == layer].sum())

    def ratio(num, den):
        return float(num) / den if den else 0.0

    eig = tracer.eig_by_layer
    intensity = mask("xy_chain.metric_intensity")
    evolve = mask("dynamics.evolve")
    steps = tracer.counts["dynamics.steps"]

    qgt_idx = np.array([i for i, _ in tracer.qgt_dims], dtype=np.int64)
    qgt_dim = np.array([d for _, d in tracer.qgt_dims], dtype=np.int64)
    qgt_eig = eig_incl[qgt_idx]
    two = qgt_dim == 2

    # Reach: every decomposed matrix was counted innermost in one of the
    # three layers that report *.eig_matrices, so those add up to the total.
    if sum(eig.get(layer, 0) for layer in EIG_LAYERS) != tracer.eig_total:
        raise ReachError(f"eig counts {dict(eig)}: {EIG_LAYERS} do not add up to "
                         f"{tracer.eig_total}")
    if intensity.any() and not np.all(eig_incl[intensity] == N_QUAD):
        raise ReachError(f"intensity points with other than {N_QUAD} eigensolves")
    if qgt_idx.size and not np.all(qgt_eig == 2 * qgt_dim + 1):
        raise ReachError("qgt calls with other than 2d+1 eigensolves")

    modelfile_parse = (span_layer == "modelfile") & ~mask("modelfile.evaluate") \
        & (parent_layer != "modelfile")
    m = {
        "xy_chain.intensity_calls": (int(intensity.sum()), "count"),
        "xy_chain.self_s": (self_s("xy_chain"), "s"),
        "xy_chain.dk_blocks": (calls("xy_chain.dk_matrix"), "count"),
        "xy_chain.eig_matrices": (eig["xy_chain"], "count"),
        "xy_chain.eig_per_point": (ratio(eig_incl[intensity].sum(), intensity.sum()), "count"),
        "xy_chain.refusals": (tracer.refusals["xy_chain"], "count"),
        "scan.points": (tracer.counts["scan.points"], "count"),
        "scan.ok_ratio": (ratio(tracer.scan_ok, tracer.scan_unbroken), "ratio"),
        "scan.self_s": (self_s("scan"), "s"),
        "scan.csv_write_s": (total_s("scan.write_csv"), "s"),
        "scan.csv_bytes": (tracer.counts["scan.csv_bytes"], "bytes"),
        "cli.self_s": (self_s("cli"), "s"),
        "biortho.eig_calls": (calls("biortho.biortho_eig"), "count"),
        "biortho.eig_self_s": (float(selfs[mask("biortho.biortho_eig")].sum()), "s"),
        "biortho.eig_matrices": (eig["biortho"], "count"),
        "biortho.build_W_calls": (calls("biortho.build_W"), "count"),
        "biortho.gauge_fix_calls": (calls("biortho.gauge_fix"), "count"),
        "biortho.refusals": (tracer.refusals["biortho"], "count"),
        "geometry.param_derivatives_calls": (calls("geometry.param_derivatives"), "count"),
        "geometry.qgt_calls": (calls("geometry.qgt"), "count"),
        "geometry.self_s": (self_s("geometry"), "s"),
        "geometry.eig_per_qgt": (ratio(qgt_eig[two].sum(), two.sum()), "count"),
        "geometry.refusals": (tracer.refusals["geometry"], "count"),
        "dynamics.steps": (steps, "count"),
        "dynamics.k_field_calls": (calls("dynamics.k_field"), "count"),
        "dynamics.k_field_per_step": (ratio(calls("dynamics.k_field"), steps), "count"),
        "dynamics.eig_matrices": (eig["dynamics"], "count"),
        "dynamics.eig_per_step": (ratio(eig_incl[evolve].sum(), steps), "count"),
        "dynamics.self_s": (self_s("dynamics"), "s"),
        "modelfile.parse_s": (float(dur[modelfile_parse].sum()), "s"),
        "modelfile.evaluate_calls": (calls("modelfile.evaluate"), "count"),
        "modelfile.evaluate_s": (total_s("modelfile.evaluate"), "s"),
        "families.evaluate_calls": (calls("families.evaluate"), "count"),
        "families.evaluate_s": (total_s("families.evaluate"), "s"),
        "trace.overhead_ratio": (overhead_ratio, "ratio"),
        "trace.spans": (int(name.size), "count"),
        "trace.eig_matrices": (tracer.eig_total, "count"),
    }
    return {k: (v.item() if isinstance(v, np.generic) else v, u) for k, (v, u) in m.items()}
