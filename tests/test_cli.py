"""The command line exit contract: 0 success, 1 bad input, 2 failed check."""

import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import oddkh
from oddkh import cobordism as cobordism_module
from oddkh import cube as cube_module
from oddkh import verify as verify_module
from oddkh.cli import main
from oddkh.cobordism import (
    birth_event,
    death_event,
    evaluate_movie,
    r1_event,
    r2_event,
    saddle_event,
    script_to_dict,
)
from oddkh.complexes import assemble_complex, homology, reduce_coefficients
from oddkh.cube import build_cube
from oddkh.fixtures import figure_eight, left_trefoil, prime_knot, rational_knot, unlink
from oddkh.linkdiag import diagram_to_dict


def test_homology_json_on_nine_crossings(tmp_path, capsys):
    diagram = rational_knot((3, 1, 1, 4))
    assert len(diagram.crossings) == 9
    path = tmp_path / "knot.json"
    path.write_text(json.dumps(diagram_to_dict(diagram)))
    assert main(["homology", str(path), "--json"]) == 0
    expected = homology(assemble_complex(build_cube(diagram, "y"))).to_rows()
    assert json.loads(capsys.readouterr().out) == expected


def test_homology_coefficients_json_on_8_19(tmp_path, capsys):
    diagram = prime_knot("8_19")
    path = tmp_path / "knot.json"
    path.write_text(json.dumps(diagram_to_dict(diagram)))
    cx = assemble_complex(build_cube(diagram, "y"))
    assert main(["homology", str(path), "--coeff", "z2", "--json"]) == 0
    rows = json.loads(capsys.readouterr().out)
    mod2 = {(r["h"], r["q"]): r["dim"] for r in rows}
    assert mod2 == reduce_coefficients(cx, 2)
    assert main(["homology", str(path), "--coeff", "q", "--json"]) == 0
    rows = json.loads(capsys.readouterr().out)
    free = {(r["h"], r["q"]): r["rank"] for r in rows}
    assert free == {k: rank for k, (rank, _) in homology(cx).table.items() if rank}
    # 8_19 has 2-torsion, so mod 2 sees more than the free ranks.
    assert sum(mod2.values()) > sum(free.values())


@pytest.mark.parametrize("coeff,key", [("z", "rank"), ("z2", "dim"), ("q", "rank")])
def test_homology_reduced_rows_double_to_the_full_rows(tmp_path, capsys, coeff, key):
    path = tmp_path / "trefoil.json"
    path.write_text(json.dumps(diagram_to_dict(left_trefoil())))
    assert main(["homology", str(path), "--coeff", coeff, "--json", "--reduced"]) == 0
    reduced = json.loads(capsys.readouterr().out)
    assert main(["homology", str(path), "--coeff", coeff, "--json"]) == 0
    full = json.loads(capsys.readouterr().out)
    doubled = {}
    for r in reduced:
        # The trefoil is torsion-free, so doubling only adds ranks.
        assert not r.get("torsion")
        for k in ((r["h"], r["q"] + 1), (r["h"], r["q"] - 1)):
            doubled[k] = doubled.get(k, 0) + r[key]
    assert doubled == {(r["h"], r["q"]): r[key] for r in full}
    assert sum(r[key] for r in reduced) == 3


@pytest.mark.parametrize("content", ["[[1, 2, 3, 4]]", '{"pd": []}'], ids=["unpaired-arcs", "empty"])
def test_homology_reduced_rejects_bad_codes(tmp_path, capsys, content):
    path = tmp_path / "bad.json"
    path.write_text(content)
    assert main(["homology", str(path), "--reduced"]) == 1
    out = capsys.readouterr()
    assert "error" in out.err and not out.out


@pytest.mark.parametrize(
    "content",
    [
        "[[1, 2, 3]]", "[[1, 2, 3, 4]]", '{"pd": [], "colour": 1}', "not json",
        '{"pd": [[1, 1, 2, 2.9]]}', '{"pd": [[1, 1, 2, 2]], "free_circles": -3}',
    ],
    ids=[
        "three-slot-crossing", "unpaired-arcs", "unknown-key", "invalid-json",
        "float-label", "negative-free-circles",
    ],
)
def test_homology_rejects_malformed_codes(tmp_path, capsys, content):
    path = tmp_path / "bad.json"
    path.write_text(content)
    assert main(["homology", str(path)]) == 1
    assert "error" in capsys.readouterr().err


def test_homology_rejects_non_planar_code(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text('{"pd": [[4, 2, 3, 1], [3, 1, 4, 2]]}')
    assert main(["homology", str(path)]) == 1
    out = capsys.readouterr()
    assert "not planar" in out.err and not out.out


def corrupt_one_table(original):
    """A shape-table builder that negates one term of the first merge table.

    The term sits in a column of two or more generators, which face
    classification never reads, so only the d^2 check can catch it.
    Only the first merge table built is touched, so each cube needs a
    fresh builder.
    """
    hit = []

    def build(src, dst, edge):
        table = original(src, dst, edge)
        if hit or edge.kind != "merge":
            return table
        mask = next(m for m, col in enumerate(table) if col and m.bit_count() >= 2)
        (coeff, out), *rest = table[mask]
        hit.append(mask)
        return table[:mask] + (((-coeff, out), *rest),) + table[mask + 1:]

    return build


def test_homology_exits_2_on_a_corrupted_edge_table(tmp_path, capsys, monkeypatch):
    path = tmp_path / "fig8.json"
    path.write_text(json.dumps(diagram_to_dict(figure_eight())))
    original = cube_module._edge_columns
    monkeypatch.setattr(cube_module, "_edge_columns", corrupt_one_table(original))
    with pytest.raises(AssertionError, match=r"d\^2"):
        assemble_complex(build_cube(figure_eight()))
    # A fresh corruption for the command's own cube.
    monkeypatch.setattr(cube_module, "_edge_columns", corrupt_one_table(original))
    assert main(["homology", str(path)]) == 2
    out = capsys.readouterr()
    assert "internal invariant violated: d^2 != 0" in out.err and not out.out


def test_homology_exits_2_on_a_corrupted_edge_table_under_optimize(tmp_path):
    path = tmp_path / "fig8.json"
    path.write_text(json.dumps(diagram_to_dict(figure_eight())))
    script = (
        "import sys\n"
        "if sys.flags.optimize != 1: sys.exit(3)\n"
        "from oddkh import cube\n"
        "from test_cli import corrupt_one_table\n"
        "cube._edge_columns = corrupt_one_table(cube._edge_columns)\n"
        "from oddkh.cli import main\n"
        f"sys.exit(main(['homology', {str(path)!r}]))\n"
    )
    paths = [str(Path(oddkh.__file__).parents[1]), str(Path(__file__).parent)]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(paths)}
    run = subprocess.run(
        [sys.executable, "-O", "-c", script], env=env, capture_output=True, text=True, timeout=120
    )
    assert run.returncode == 2, run.stderr
    assert "internal invariant violated: d^2 != 0" in run.stderr and not run.stdout


def test_homology_exits_2_on_a_corrupted_trefoil_table(tmp_path, capsys, monkeypatch):
    # Here the corruption keeps d^2 = 0; only the table gate sees it.
    path = tmp_path / "trefoil.json"
    path.write_text(json.dumps(diagram_to_dict(left_trefoil())))
    original = cube_module._edge_columns
    monkeypatch.setattr(cube_module, "_edge_columns", corrupt_one_table(original))
    with pytest.raises(AssertionError, match="edge table differs from its saddle map"):
        assemble_complex(build_cube(left_trefoil()))
    monkeypatch.setattr(cube_module, "_edge_columns", corrupt_one_table(original))
    assert main(["homology", str(path)]) == 2
    out = capsys.readouterr()
    assert "internal invariant violated: edge table differs from its saddle map" in out.err
    assert not out.out


def test_homology_exits_2_on_a_corrupted_trefoil_table_under_optimize(tmp_path):
    path = tmp_path / "trefoil.json"
    path.write_text(json.dumps(diagram_to_dict(left_trefoil())))
    script = (
        "import sys\n"
        "if sys.flags.optimize != 1: sys.exit(3)\n"
        "from oddkh import cube\n"
        "from test_cli import corrupt_one_table\n"
        "cube._edge_columns = corrupt_one_table(cube._edge_columns)\n"
        "from oddkh.cli import main\n"
        f"sys.exit(main(['homology', {str(path)!r}]))\n"
    )
    paths = [str(Path(oddkh.__file__).parents[1]), str(Path(__file__).parent)]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(paths)}
    run = subprocess.run(
        [sys.executable, "-O", "-c", script], env=env, capture_output=True, text=True, timeout=120
    )
    assert run.returncode == 2, run.stderr
    assert "internal invariant violated: edge table differs from its saddle map" in run.stderr
    assert not run.stdout


def corrupt_retraction(original):
    """A ``_retract`` that negates one correction term of a projection.

    Projection after inclusion stays the identity, so only the chain map
    check of the finished retraction can catch it.
    """

    def retract(cx, pairs):
        include, project, diff = original(cx, pairs)
        x, functional = next((x, f) for x, f in project.items() if len(f) > 1)
        j = next(j for j in functional if j != x[1])
        functional[j] = -functional[j]
        return include, project, diff

    return retract


def r2_movie(tmp_path):
    path = tmp_path / "movie.json"
    path.write_text(json.dumps(script_to_dict(unlink(2), [r2_event(1, 2)])))
    return path


def test_movie_exits_2_on_a_corrupted_retraction(tmp_path, capsys, monkeypatch):
    path = r2_movie(tmp_path)
    original = cobordism_module._retract
    monkeypatch.setattr(cobordism_module, "_retract", corrupt_retraction(original))
    # The invariant failure is not wrapped as a bad movie event.
    with pytest.raises(AssertionError, match="not chain maps"):
        evaluate_movie(unlink(2), [r2_event(1, 2)])
    assert main(["movie", str(path)]) == 2
    out = capsys.readouterr()
    assert "internal invariant violated: retraction maps are not chain maps" in out.err
    assert not out.out


def test_movie_exits_2_on_a_corrupted_retraction_under_optimize(tmp_path):
    path = r2_movie(tmp_path)
    script = (
        "import sys\n"
        "if sys.flags.optimize != 1: sys.exit(3)\n"
        "from oddkh import cobordism\n"
        "from test_cli import corrupt_retraction\n"
        "cobordism._retract = corrupt_retraction(cobordism._retract)\n"
        "from oddkh.cli import main\n"
        f"sys.exit(main(['movie', {str(path)!r}]))\n"
    )
    paths = [str(Path(oddkh.__file__).parents[1]), str(Path(__file__).parent)]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(paths)}
    run = subprocess.run(
        [sys.executable, "-O", "-c", script], env=env, capture_output=True, text=True, timeout=120
    )
    assert run.returncode == 2, run.stderr
    assert "internal invariant violated: retraction maps are not chain maps" in run.stderr
    assert not run.stdout


def test_verify_exits_2_when_a_check_fails(capsys, monkeypatch):
    original = verify_module.enumerate_sign_assignments
    monkeypatch.setattr(verify_module, "enumerate_sign_assignments", lambda cube: original(cube)[1:])
    assert main(["verify", "signs"]) == 2
    out = capsys.readouterr().out
    assert "FAIL count_one_crossing: 1 coherent assignments, expected 2" in out
    assert "PASS sign_choice_trefoil_left" in out


def test_homology_rejects_unreadable_file(tmp_path, capsys):
    assert main(["homology", str(tmp_path / "missing.json")]) == 1
    assert "cannot read" in capsys.readouterr().err


@pytest.mark.parametrize("suite", sorted(verify_module.SUITES))
def test_verify_suite_passes(capsys, suite):
    # signs runs the enumeration, the canonical solve and the arrow flips.
    assert main(["verify", suite]) == 0
    out = capsys.readouterr().out
    summary = re.search(rf"# {suite}: (\d+)/(\d+) passed, (\d+) skipped, 0 failed", out)
    passed, total, skipped = map(int, summary.groups())
    assert passed + skipped == total
    assert sum(line.startswith("SKIP ") for line in out.splitlines()) == skipped
    # Brute-force checks above the per-block guard (the seven 7-crossing
    # knots) do not run, and say so.
    assert skipped == (7 if suite == "oracles" else 0)


def test_verify_json_counts_skipped_checks_apart(capsys):
    assert main(["verify", "oracles", "--json"]) == 0
    report = json.loads(capsys.readouterr().out)
    skipped = [c for c in report["checks"] if c["skipped"]]
    assert skipped and all(not c["passed"] and c["name"].startswith("brute_force_") for c in skipped)
    assert report["counts"] == {
        "passed": len(report["checks"]) - len(skipped),
        "skipped": len(skipped),
        "failed": 0,
    }


def cap_inputs(tmp_path):
    diagram = tmp_path / "trefoil.json"
    diagram.write_text(json.dumps(diagram_to_dict(left_trefoil())))
    script = tmp_path / "movie.json"
    script.write_text(json.dumps(script_to_dict(unlink(2), [saddle_event(1, 2)])))
    return {"homology": [str(diagram)], "movie": [str(script)], "verify": ["hecke"]}


@pytest.mark.parametrize("command", ["homology", "movie", "verify"])
@pytest.mark.parametrize("raw", ["abc", "1.5", "-1", " 3", "1e3"])
def test_malformed_crossing_cap_is_refused(tmp_path, capsys, monkeypatch, command, raw):
    monkeypatch.setenv("ODDKH_MAX_CROSSINGS", raw)
    assert main([command, *cap_inputs(tmp_path)[command]]) == 1
    out = capsys.readouterr()
    assert "ODDKH_MAX_CROSSINGS must be a nonnegative integer" in out.err and not out.out


@pytest.mark.parametrize("command", ["homology", "movie", "verify"])
def test_wellformed_crossing_cap_is_read(tmp_path, capsys, monkeypatch, command):
    monkeypatch.setenv("ODDKH_MAX_CROSSINGS", "3")
    assert main([command, *cap_inputs(tmp_path)[command]]) == 0


def test_crossing_cap_refuses_a_larger_diagram(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("ODDKH_MAX_CROSSINGS", "2")
    assert main(["homology", *cap_inputs(tmp_path)["homology"]]) == 1
    assert "3 crossings exceeds the cap of 2" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["homology", "movie"])
@pytest.mark.parametrize("free, code", [(12, 0), (13, 1)])
def test_crossing_cap_counts_free_circles(tmp_path, capsys, monkeypatch, command, free, code):
    # Each free circle doubles the complex, as a crossing does.
    monkeypatch.delenv("ODDKH_MAX_CROSSINGS", raising=False)
    path = tmp_path / "input.json"
    if command == "homology":
        path.write_text(json.dumps({"pd": [], "free_circles": free}))
    else:
        path.write_text(json.dumps(script_to_dict(unlink(free), [saddle_event(1, 2)])))
    assert main([command, str(path)]) == code
    if code:
        assert f"0 crossings plus {free} free circles exceeds the cap of 12" in capsys.readouterr().err


@pytest.mark.parametrize(
    "initial, events, cap, code",
    [
        (unlink(12), [birth_event()], None, 1),
        (unlink(11), [birth_event(), death_event(12), birth_event()], None, 0),
        (unlink(12), [saddle_event(1, 1)], None, 1),
        (unlink(12), [saddle_event(1, 2)], None, 0),
        (left_trefoil(), [r2_event(1, 4)], "4", 1),
        (left_trefoil(), [r1_event(1)], "4", 0),
    ],
    ids=["birth", "birth-death-birth", "self-saddle", "merging-saddle", "r2-do", "r1-do"],
)
def test_movie_cap_covers_every_intermediate_diagram(tmp_path, capsys, monkeypatch, initial, events, cap, code):
    # The cap is checked on an upper bound for each diagram along the
    # movie before any map is built, not only on the initial one.
    if cap is None:
        monkeypatch.delenv("ODDKH_MAX_CROSSINGS", raising=False)
    else:
        monkeypatch.setenv("ODDKH_MAX_CROSSINGS", cap)
    path = tmp_path / "movie.json"
    path.write_text(json.dumps(script_to_dict(initial, events)))
    assert main(["movie", str(path)]) == code
    if code:
        err = capsys.readouterr().err
        last = len(events) - 1
        assert f"event {last} ({events[last].kind}) may reach" in err
        assert f"above the cap of {cap or 12}" in err


def test_verify_max_crossings_overrides_the_environment(capsys, monkeypatch):
    monkeypatch.setenv("ODDKH_MAX_CROSSINGS", "abc")
    assert main(["verify", "hecke", "--max-crossings", "3"]) == 0
    assert re.search(r"# hecke: (\d+)/\1 passed", capsys.readouterr().out)


@pytest.mark.parametrize("suite", ["oracles", "invariance"])
def test_verify_refuses_a_negative_max_crossings(capsys, suite):
    # A negative cap would filter out every fixture and pass vacuously.
    assert main(["verify", suite, "--max-crossings", "-1"]) == 1
    out = capsys.readouterr()
    assert "--max-crossings must be a nonnegative integer, not -1" in out.err and not out.out


def test_movie_json_reports_the_quantum_shift(tmp_path, capsys):
    # Poke two circles through each other, then merge them by a saddle.
    script = script_to_dict(unlink(2), [r2_event(1, 2), saddle_event(1, 4)])
    path = tmp_path / "movie.json"
    path.write_text(json.dumps(script))
    assert main(["movie", str(path), "--json", "--check", "chainmap"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["events"] == 2
    # R2 keeps the quantum grading and a saddle lowers it by one.
    assert report["q_shift"] == -1
    assert [c["passed"] for c in report["checks"]] == [True]


@pytest.mark.parametrize(
    "content",
    [
        "not json",
        '{"initial": {"pd": []}, "events": [], "extra": 1}',
        '{"initial": {"pd": [], "free_circles": 1}, "events": [{"type": "teleport"}]}',
        '{"initial": {"pd": [], "free_circles": 2}, "events": '
        '[{"type": "r2", "arcs": [1, 2]}, {"type": "saddle", "arcs": [1, 2]}]}',
        '{"initial": {"pd": []}, "events": ["birth"]}',
        '{"initial": {"pd": []}, "events": {"type": "birth"}}',
        '{"initial": {"pd": [], "free_circles": 1}, "events": [{"type": "dot", "arc": 1.5}]}',
        '{"initial": {"pd": [], "free_circles": 1}, "events": [{"type": "dot", "arc": true}]}',
        '{"initial": {"pd": [], "free_circles": 1}, "events": [{"type": "death", "arc": "1"}]}',
        '{"initial": {"pd": [], "free_circles": 1}, "events": [{"type": "r1", "arc": 1, "sign": 0}]}',
        '{"initial": {"pd": [], "free_circles": 1}, "events": [{"type": "r1", "arc": 1, "sign": 1.7}]}',
        '{"initial": {"pd": [], "free_circles": 1}, "events": [{"type": "dot", "arc": 1, "sign": 3}]}',
        '{"initial": {"pd": [], "free_circles": 1}, "events": [{"type": "birth", "arc": 5}]}',
    ],
    ids=[
        "invalid-json",
        "unknown-key",
        "unknown-event",
        "event-does-not-apply",
        "event-not-an-object",
        "events-not-a-list",
        "float-arc",
        "bool-arc",
        "string-arc",
        "zero-sign",
        "float-sign",
        "unused-dot-sign",
        "unused-birth-arc",
    ],
)
def test_movie_rejects_malformed_scripts(tmp_path, capsys, content):
    path = tmp_path / "bad.json"
    path.write_text(content)
    assert main(["movie", str(path)]) == 1
    assert "error" in capsys.readouterr().err


@pytest.mark.parametrize(
    "event",
    [saddle_event(1, 99), r1_event(99), r2_event(1, 99)],
    ids=["saddle", "r1-do", "r2-do"],
)
def test_movie_refuses_an_unknown_arc(tmp_path, capsys, event):
    path = tmp_path / "movie.json"
    path.write_text(json.dumps(script_to_dict(left_trefoil(), [event])))
    assert main(["movie", str(path)]) == 1
    assert "unknown arc 99" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["homology", "movie"])
def test_cap_refuses_free_circles_before_parsing(tmp_path, capsys, monkeypatch, command):
    # parse_pd would build one arc per free circle; it must not be reached.
    def unreachable(*args, **kwargs):
        raise AssertionError("parse_pd ran")

    monkeypatch.delenv("ODDKH_MAX_CROSSINGS", raising=False)
    monkeypatch.setattr("oddkh.cli.parse_pd", unreachable)
    monkeypatch.setattr(cobordism_module, "parse_pd", unreachable)
    diagram = {"pd": [], "free_circles": 10**9}
    path = tmp_path / "input.json"
    path.write_text(json.dumps(diagram if command == "homology" else {"initial": diagram, "events": []}))
    assert main([command, str(path)]) == 1
    assert "exceeds the cap" in capsys.readouterr().err
