"""The command line exit contract: 0 success, 1 bad input, 2 failed check."""

import json
import re

import pytest

from oddkh.cli import main
from oddkh.cobordism import r2_event, saddle_event, script_to_dict
from oddkh.complexes import assemble_complex, homology, reduce_coefficients
from oddkh.cube import build_cube
from oddkh.fixtures import prime_knot, rational_knot, unlink
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


@pytest.mark.parametrize(
    "content",
    ["[[1, 2, 3]]", "[[1, 2, 3, 4]]", '{"pd": [], "colour": 1}', "not json"],
    ids=["three-slot-crossing", "unpaired-arcs", "unknown-key", "invalid-json"],
)
def test_homology_rejects_malformed_codes(tmp_path, capsys, content):
    path = tmp_path / "bad.json"
    path.write_text(content)
    assert main(["homology", str(path)]) == 1
    assert "error" in capsys.readouterr().err


def test_homology_rejects_unreadable_file(tmp_path, capsys):
    assert main(["homology", str(tmp_path / "missing.json")]) == 1
    assert "cannot read" in capsys.readouterr().err


def test_verify_functoriality_passes(capsys):
    assert main(["verify", "functoriality"]) == 0
    assert re.search(r"# functoriality: (\d+)/\1 passed", capsys.readouterr().out)


def test_verify_signs_passes(capsys):
    # Runs the enumeration, the canonical solve and the arrow flips.
    assert main(["verify", "signs"]) == 0
    assert re.search(r"# signs: (\d+)/\1 passed", capsys.readouterr().out)


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
    ],
    ids=["invalid-json", "unknown-key", "unknown-event", "event-does-not-apply"],
)
def test_movie_rejects_malformed_scripts(tmp_path, capsys, content):
    path = tmp_path / "bad.json"
    path.write_text(content)
    assert main(["movie", str(path)]) == 1
    assert "error" in capsys.readouterr().err
