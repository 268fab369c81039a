"""Tests of the benchmark itself: inputs, spans, wrapper removal, failure counting.

    python3 -m pytest -q perfbench
"""

from __future__ import annotations

import json
import os
import random
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import compare  # noqa: E402
import probes  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402
from oddkh import complexes, cube, fixtures  # noqa: E402


def _inputs(jobs):
    return [json.dumps(j.payload, sort_keys=True) for j in jobs]


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_same_seed_same_inputs_other_seed_other_inputs(workload):
    first = _inputs(workloads.make_jobs(workload, 3))
    assert first == _inputs(workloads.make_jobs(workload, 3))
    assert first != _inputs(workloads.make_jobs(workload, 4))


def test_strata_hold_one_size_and_one_link_type():
    strata = set(workloads.HOMOLOGY_Z_STRATA + workloads.HOMOLOGY_MOD2_STRATA)
    strata |= {workloads.MOVIE_HOSTS, workloads.DOT_HOSTS}
    rng = random.Random(0)
    for stratum in strata:
        if isinstance(stratum[0], int):
            strands, word = stratum
            d = fixtures.braid_closure(list(word), strands)
            variants = [workloads.braid_variant(rng, strands, word) for _ in range(2)]
            sizes = {workloads.chain_generators(fixtures.braid_closure(w, strands)) for w in variants}
            assert sizes == {workloads.chain_generators(d)}
            assert not d.free_arcs
        else:
            assert len({workloads.determinant(tw) for tw in stratum}) == 1
            assert len({workloads.chain_generators(fixtures.rational_knot(tw)) for tw in stratum}) == 1


def test_self_time_subtracts_nested_children():
    ticks = iter([0.0, 1.0, 2.0, 3.0, 5.0, 6.0, 10.0, 12.0])
    tr = spans.Tracer(clock=lambda: next(ticks))
    top = tr.begin("top")        # 0 .. 12
    mid = tr.begin("mid")        # 1 .. 5
    leaf = tr.begin("leaf")      # 2 .. 3
    tr.end(leaf)
    tr.end(mid)
    other = tr.begin("mid")      # 6 .. 10
    tr.end(other)
    tr.end(top)
    own = spans.self_time_by_name(tr.spans)
    assert own == {"top": 12.0 - 4.0 - 4.0, "mid": (4.0 - 1.0) + 4.0, "leaf": 1.0}


def test_self_time_clips_overlapping_children():
    rows = [["p", 0.0, 10.0, None, 0], ["a", 1.0, 4.0, 0, 0], ["b", 3.0, 6.0, 0, 0]]
    assert spans.self_times(rows)[0] == pytest.approx(10.0 - 5.0)


def _bindings():
    out = {}
    for module, name, _ in probes.targets():
        fn = getattr(module, name)
        out[module.__name__, name] = (fn, spans.module_bindings("oddkh", fn))
    return out


def test_traced_run_restores_every_binding():
    before = _bindings()
    assert all(len(b) >= 1 for _, b in before.values())
    tr = spans.Tracer()
    with pytest.raises(RuntimeError):
        with spans.instrument(tr, probes.targets()) as replaced:
            assert replaced and all(getattr(m, a) is not fn for m, a, fn in replaced)
            cx = complexes.assemble_complex(cube.build_cube(fixtures.left_trefoil()))
            complexes.homology(cx)
            raise RuntimeError("leave the block abnormally")
    names = {s[0] for s in tr.spans}
    assert {"complexes.assemble_complex", "cube.classify_face", "linalg.smith_normal_form"} <= names
    # complexes calls solve_sign_assignment under its own imported name
    assert "cube.solve_sign_assignment" in names
    for (_, _), (fn, where) in before.items():
        for mod, attr in where:
            assert getattr(mod, attr) is fn


def test_per_layer_names_match_benchmark_json():
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    tr = spans.Tracer()
    with spans.instrument(tr, probes.targets()):
        complexes.homology(complexes.assemble_complex(cube.build_cube(fixtures.hopf_link(1))))
    produced = probes.per_layer_metrics(tr, [1.0], [1.0])
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == {k: u for k, (_, u) in produced.items()}
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS


def _homology_job(kind):
    d = fixtures.rational_knot((2, 2))
    return workloads.Job(kind, {"pd": [list(c) for c in d.crossings], "theory": "y"},
                         {"det": workloads.determinant((2, 2))})


@pytest.mark.parametrize("kind", ["homology_z", "homology_mod2"])
def test_perturbed_table_counts_as_failed(kind):
    job = _homology_job(kind)
    state = [{"runs": 0, "seconds": [], "errors": [], "summary": None, "failures": [], "gens": 0}]
    worker.run_pass([job], state)
    worker.run_pass([job], state)
    worker.check_all([job], state)
    assert state[0]["failures"] == []
    assert worker.tally(state) == (2, 0)
    table = state[0]["summary"]["table"]
    key = next(iter(table))
    table[key] = (table[key][0] + 1, ()) if kind == "homology_z" else table[key] + 1
    worker.check_all([job], state)
    assert state[0]["failures"]
    assert worker.tally(state) == (2, 2)


def test_raising_job_counts_as_failed():
    job = workloads.Job("homology_z", {"pd": [[1, 2, 3]], "theory": "y"})
    state = [{"runs": 0, "seconds": [], "errors": [], "summary": None, "failures": [], "gens": 0}]
    worker.run_pass([job], state)
    worker.check_all([job], state)
    assert state[0]["errors"] and worker.tally(state) == (1, 1)


def test_planarity_of_pokes_and_codes():
    hopf = fixtures.hopf_link(1)
    pokes = workloads.valid_pokes(hopf)
    assert (4, 1) in pokes and (2, 3) in pokes
    assert workloads.is_planar(fixtures.figure_eight().crossings)
    assert not workloads.is_planar(((4, 2, 3, 1), (3, 1, 4, 2)))


def test_universal_coefficients_and_ors_oracles():
    # Z in (0, 1), Z/2 in (1, 3): mod 2 adds a class at (1, 3) and one at (0, 3).
    table = {(0, 1): (1, ()), (1, 3): (0, (2,))}
    assert workloads.uct_mod2(table) == {(0, 1): 1, (1, 3): 1, (0, 3): 1}
    assert workloads.determinant((3, 1, 2)) == 11
    assert workloads.ors_failures({(0, 1): 1, (0, -1): 1}, 1, True) == []
    assert workloads.ors_failures({(0, 1): 1, (0, 5): 1}, 1, True)
    assert workloads.ors_failures({(0, 1): 1, (0, -1): 1}, 1, False)


def test_compare_verdicts():
    parent = [10.0, 10.2, 9.9, 10.1, 10.0, 10.3, 9.8, 10.1, 10.0, 10.2]
    faster = [p * 0.8 for p in parent]
    assert compare.verdict(parent, faster, "lower", 0.1)[0] == "improved"
    assert compare.verdict(parent, [p * 1.3 for p in parent], "lower", 0.1)[0] == "worse"
    assert compare.verdict(parent, list(parent), "lower", 0.1)[0] == "unchanged"
    noisy = [1.0, 2.0, 1.0, 2.0, 1.0, 2.0, 1.0, 2.0, 1.0, 2.0]
    assert compare.verdict(noisy, list(reversed(noisy)), "lower", 0.1)[0] == "unresolved"
    assert compare.verdict(parent[:5], faster[:5], "lower", 0.1)[0] != "improved"

