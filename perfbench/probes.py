"""What a traced run wraps, what it counts, and the per-layer metrics it reports.

Each target is a public function of one `oddkh` layer.  `spans.instrument`
replaces it at every module binding, so calls between layers go through
the wrapper.  Counter functions run after the wrapped call returns, in
their own span, and read only the call's arguments and result.
"""

from __future__ import annotations

import statistics
from collections import Counter

from oddkh import cobordism, complexes, cube, linalg, linkdiag

from spans import inclusive_time_by_name, self_time_by_name

LAYERS = ("linkdiag", "cube", "complexes", "linalg", "cobordism")
# The GF(2) solver's only callers are the cube's sign solvers, so its
# time is sign-solving time and counts towards the cube layer.
LAYER_OF = {"linalg.solve_gf2": "cube"}
ROUNDTRIP_JOBS = ("job.r1_roundtrip", "job.r2_roundtrip")


def _matrix_key(A) -> int:
    return hash((A.rows, A.cols, frozenset(A.data.items())))


def _snf(tr, args, kwargs, res):
    A = args[0]
    tr.peak("linalg.snf_max_dim", max(A.rows, A.cols))
    tr.count("linalg.snf_in_nnz", len(A.data))
    big = max((abs(v) for m in (res.D, res.U, res.V) for v in m.data.values()), default=0)
    tr.peak("linalg.snf_max_abs_entry", big)
    tr.distinct("linalg.snf_matrices", _matrix_key(A))


def _solve_integer(tr, args, kwargs, res):
    if tr.parent_name() == "complexes.homotopic_up_to_sign":
        A = args[0]
        tr.peak("complexes.homotopy_rows", A.rows)
        tr.peak("complexes.homotopy_cols", A.cols)
        tr.peak("complexes.homotopy_nnz", len(A.data))


def _classify_face(tr, args, kwargs, res):
    cb, alpha, c1, c2 = args[:4]
    # Keyed by diagram, not object: re-classifying the faces of a cube
    # rebuilt for the same diagram counts as repeated work.
    tr.distinct("cube.faces", (cb.diagram.crossings, cb.theory, alpha, min(c1, c2), max(c1, c2)))


def _solve_gf2(tr, args, kwargs, res):
    if tr.parent_name() in ("cube.solve_sign_assignment", "cube.extend_sign_assignment"):
        rows, _, ncols = args[:3]
        tr.count("cube.sign_vars", ncols)
        tr.count("cube.sign_eqs", len(rows))


def _assemble(tr, args, kwargs, cx):
    tr.count("complexes.gens", sum(cx.dim(h) for h in cx.degrees()))
    tr.count("complexes.nnz", sum(len(cx.differential(h).data) for h in cx.degrees()))


def _homology(tr, args, kwargs, res):
    cx = args[0]
    sizes = Counter()
    for h in cx.degrees():
        for q in cx.quantum_degrees(h):
            sizes[h, q] += 1
    tr.count("complexes.blocks", len(sizes))
    tr.peak("complexes.max_block_dim", max(sizes.values(), default=0))


def _resolve(tr, args, kwargs, res):
    tr.count("linkdiag.circles", res.n_circles)


def targets():
    """(module, function name, counter) for every wrapped boundary."""
    return [
        (linkdiag, "parse_pd", None),
        (linkdiag, "resolve", _resolve),
        (cube, "classify_face", _classify_face),
        (cube, "solve_sign_assignment", None),
        (cube, "extend_sign_assignment", None),
        (linalg, "smith_normal_form", _snf),
        (linalg, "solve_integer", _solve_integer),
        (linalg, "integer_inverse", None),
        (linalg, "integer_kernel", None),
        (linalg, "solve_gf2", _solve_gf2),
        (linalg, "modp_rank", None),
        (complexes, "assemble_complex", _assemble),
        (complexes, "homology", _homology),
        (complexes, "reduce_coefficients", None),
        (complexes, "homotopic_up_to_sign", None),
        (complexes, "induced_map_on_homology", None),
        (complexes, "is_chain_map", None),
        (complexes, "compose", None),
        (cobordism, "evaluate_movie", None),
        (cobordism, "r1_cobordism_map", None),
        (cobordism, "r2_cobordism_map", None),
        (cobordism, "saddle_cobordism_map", None),
        (cobordism, "dot_cobordism_map", None),
        (cobordism, "kink_retraction", None),
        (cobordism, "bigon_retraction", None),
    ]


SPAN_TIMES = (
    "linalg.smith_normal_form", "linalg.solve_integer", "linalg.integer_inverse",
    "linalg.integer_kernel", "linalg.solve_gf2", "linalg.modp_rank",
    "complexes.homotopic_up_to_sign", "complexes.induced_map_on_homology",
    "complexes.assemble_complex", "complexes.reduce_coefficients", "complexes.homology",
    "complexes.is_chain_map", "complexes.compose",
    "cube.classify_face", "cube.solve_sign_assignment", "cube.extend_sign_assignment",
    "linkdiag.parse_pd", "linkdiag.resolve",
    "cobordism.evaluate_movie", "cobordism.r1_cobordism_map", "cobordism.r2_cobordism_map",
    "cobordism.saddle_cobordism_map", "cobordism.dot_cobordism_map",
    "cobordism.kink_retraction", "cobordism.bigon_retraction",
)
CALL_COUNTS = (
    "linalg.smith_normal_form", "linalg.solve_integer", "linalg.modp_rank",
    "complexes.assemble_complex", "complexes.is_chain_map", "cube.classify_face",
    "linkdiag.resolve",
)
SUMS = (
    "linalg.snf_in_nnz", "cube.sign_vars", "cube.sign_eqs", "complexes.gens",
    "complexes.nnz", "complexes.blocks", "linkdiag.circles",
)
PEAKS = (
    "linalg.snf_max_dim", "linalg.snf_max_abs_entry", "complexes.homotopy_rows",
    "complexes.homotopy_cols", "complexes.homotopy_nnz", "complexes.max_block_dim",
)


def per_layer_metrics(tracer, traced_walls: list[float], untraced_walls: list[float]) -> dict:
    """Per-pass layer metrics of a traced run, as {name: (value, unit)}.

    Times and counts are divided by the number of traced passes, so a
    count reads the same whatever the run length.
    """
    passes = len(traced_walls)
    own = self_time_by_name(tracer.spans)
    out: dict[str, tuple] = {}
    for name in SPAN_TIMES:
        out[name + ".s"] = (own.get(name, 0.0) / passes, "s")
    for name in CALL_COUNTS:
        out[name + ".calls"] = (tracer.counts[name + ".calls"] / passes, "count")
    for name in SUMS:
        out[name] = (tracer.counts[name] / passes, "count")
    for name in PEAKS:
        out[name] = (tracer.peaks.get(name, 0), "count")
    snf_matrices = tracer.distinct_total("linalg.snf_matrices")
    faces = tracer.distinct_total("cube.faces")
    out["linalg.snf_calls_per_matrix"] = (
        tracer.counts["linalg.smith_normal_form.calls"] / snf_matrices if snf_matrices else 0.0, "ratio")
    out["cube.faces"] = (faces / passes, "count")
    out["cube.classify_per_face"] = (
        tracer.counts["cube.classify_face.calls"] / faces if faces else 0.0, "ratio")
    roundtrip = sum(inclusive_time_by_name(tracer.spans, job) for job in ROUNDTRIP_JOBS)
    solve = sum(inclusive_time_by_name(tracer.spans, "linalg.solve_integer", under=job)
                for job in ROUNDTRIP_JOBS)
    out["linalg.solve_integer.roundtrip_share"] = (solve / roundtrip if roundtrip else 0.0, "ratio")
    layers = dict.fromkeys(LAYERS, 0.0)
    for name, v in own.items():
        layer = LAYER_OF.get(name, name.split(".")[0])
        if layer in layers:
            layers[layer] += v
    for layer, total in layers.items():
        out[f"layer.{layer}.s"] = (total / passes, "s")
    out["job.unattributed.s"] = (
        sum(v for k, v in own.items() if k.startswith("job.")) / passes, "s")
    traced = statistics.median(traced_walls)
    untraced = statistics.median(untraced_walls)
    out["trace.traced_wall_s"] = (traced, "s")
    out["trace.untraced_wall_s"] = (untraced, "s")
    out["trace.overhead_s"] = (traced - untraced, "s")
    out["trace.overhead_share"] = ((traced - untraced) / untraced, "ratio")
    return out
