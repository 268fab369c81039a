"""Command line front end: homology tables, movie evaluation, verification.

Exit codes are uniform across subcommands: 0 for success, 1 for bad
input (unreadable files, malformed diagrams or scripts, events that do
not apply, oversized inputs, usage errors), 2 when a computation or a
requested check fails.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

from .cobordism import MovieError, evaluate_movie, script_from_dict
from .complexes import (
    assemble_complex,
    equal_up_to_sign,
    homology,
    identity_chain_map,
    is_chain_map,
    reduce_coefficients,
)
from .cube import build_cube
from .linkdiag import diagram_to_dict, parse_pd
from .verify import SUITES, run_suite

DEFAULT_MAX_CROSSINGS = 12


class _Parser(argparse.ArgumentParser):
    # argparse exits 2 on usage errors; here 2 means a failed check,
    # so usage problems are remapped to the bad-input code
    def error(self, message):
        self.print_usage(sys.stderr)
        raise SystemExit(f"{self.prog}: error: {message}") from None


def _crossing_cap() -> int:
    raw = os.environ.get("ODDKH_MAX_CROSSINGS", "")
    if not raw:
        return DEFAULT_MAX_CROSSINGS
    if not (raw.isascii() and raw.isdigit()):
        raise ValueError(f"ODDKH_MAX_CROSSINGS must be a nonnegative integer, not {raw!r}")
    return int(raw)


def _read_json(path: str):
    try:
        if path == "-":
            return json.load(sys.stdin)
        with open(path) as fh:
            return json.load(fh)
    except OSError as e:
        raise ValueError(f"cannot read {path}: {e}") from None
    except json.JSONDecodeError as e:
        raise ValueError(f"{path} is not valid JSON: line {e.lineno} column {e.colno}") from None


def _check_cap(n: int, free: int) -> None:
    """Refuse n crossings plus ``free`` free circles above the cap.

    Each crossing and each free circle doubles the complex.
    """
    cap = _crossing_cap()
    if n + free > cap:
        size = f"{n} crossings plus {free} free circles" if free else f"{n} crossings"
        raise ValueError(f"{size} exceeds the cap of {cap} (raise ODDKH_MAX_CROSSINGS to override)")


def _check_free_circles(data) -> None:
    """Refuse an integer ``free_circles`` above the cap before ``parse_pd`` builds one arc for each."""
    free = data.get("free_circles") if isinstance(data, dict) else None
    if type(free) is int and free > _crossing_cap():
        pd = data.get("pd")
        _check_cap(len(pd) if isinstance(pd, list) else 0, free)


def _growth(event) -> int:
    """An upper bound on what one event adds to crossings plus free circles.

    Read off ``attach_band`` and ``smooth_crossings``: a saddle on one
    arc may split off a free circle, and an undone curl or bigon may
    leave free circles where its crossings were.
    """
    if event.kind in ("r1", "r2"):
        return (1 if event.kind == "r1" else 2) if event.direction == "do" else 0
    if event.kind == "saddle":
        return int(event.arcs[0] == event.arcs[1])
    return {"birth": 1, "death": -1}.get(event.kind, 0)


def _check_movie_cap(initial, events) -> None:
    """Refuse a movie if any diagram along it may exceed the cap."""
    _check_cap(len(initial.crossings), len(initial.free_arcs))
    cap = _crossing_cap()
    size = len(initial.crossings) + len(initial.free_arcs)
    for idx, event in enumerate(events):
        size += _growth(event)
        if size > cap:
            raise ValueError(
                f"event {idx} ({event.kind}) may reach {size} crossings plus free circles,"
                f" above the cap of {cap} (raise ODDKH_MAX_CROSSINGS to override)"
            )


def _load_diagram(path: str):
    data = _read_json(path)
    if isinstance(data, dict) and "name" in data:
        data = {k: v for k, v in data.items() if k != "name"}
    _check_free_circles(data)
    diagram = parse_pd(data)
    _check_cap(len(diagram.crossings), len(diagram.free_arcs))
    return diagram


def _print_json(payload) -> None:
    print(json.dumps(payload, indent=2, sort_keys=False))


def cmd_homology(args) -> int:
    try:
        diagram = _load_diagram(args.diagram)
    except (ValueError, KeyError, TypeError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    t0 = time.perf_counter()
    cx = assemble_complex(build_cube(diagram, args.theory))
    try:
        if args.coeff == "z":
            rows = homology(cx, args.reduced).to_rows()
        elif args.coeff == "z2":
            table = reduce_coefficients(cx, 2, args.reduced)
            rows = [{"h": h, "q": q, "dim": v} for (h, q), v in sorted(table.items())]
        else:
            rows = [
                {"h": r["h"], "q": r["q"], "rank": r["rank"]}
                for r in homology(cx, args.reduced).to_rows()
                if r["rank"]
            ]
    except ValueError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    elapsed = time.perf_counter() - t0
    if args.json:
        _print_json(rows)
    else:
        cols = [k for k in ("h", "q", "rank", "dim", "torsion") if rows and k in rows[0]]
        print("  ".join(f"{c:>7}" for c in cols))
        for r in rows:
            cells = []
            for c in cols:
                v = r[c]
                if c == "torsion":
                    v = ",".join(str(t) for t in v) if v else "-"
                cells.append(f"{v:>7}")
            print("  ".join(cells))
        print(f"# {len(diagram.crossings)} crossings, {elapsed:.2f}s")
    return 0


def _matrix_rows(m) -> dict:
    entries = sorted([i, j, v] for (i, j), v in m.data.items())
    return {"rows": m.rows, "cols": m.cols, "entries": entries}


def cmd_movie(args) -> int:
    t0 = time.perf_counter()
    try:
        data = _read_json(args.script)
        _check_free_circles(data.get("initial") if isinstance(data, dict) else None)
        initial, events = script_from_dict(data)
        _check_movie_cap(initial, events)
    except (ValueError, KeyError, TypeError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    try:
        result = evaluate_movie(initial, events, args.theory)
    except MovieError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    f = result.chain_map
    checks = []
    if args.check == "chainmap":
        checks.append({"name": "chainmap", "passed": is_chain_map(f), "detail": "composite commutes with both differentials"})
    elif args.check == "identity-up-to-sign":
        if f.src.same_shape(f.dst):
            sign = equal_up_to_sign(f, identity_chain_map(f.src))
            checks.append({
                "name": "identity-up-to-sign",
                "passed": sign is not None,
                "detail": f"sign {sign:+d}" if sign else "not a multiple of the identity",
            })
        else:
            checks.append({
                "name": "identity-up-to-sign",
                "passed": False,
                "detail": "initial and final complexes differ in shape",
            })
    report = {
        "command": "movie",
        "initial": diagram_to_dict(result.initial),
        "final": diagram_to_dict(result.final),
        "events": len(events),
        "q_shift": f.q_shift,
        "checks": checks,
        "elapsed": round(time.perf_counter() - t0, 3),
    }
    if args.dump_matrices:
        report["matrices"] = {str(h): _matrix_rows(m) for h, m in sorted(f.blocks.items())}
    if args.json:
        _print_json(report)
    else:
        print(f"movie: {len(events)} events, quantum shift {f.q_shift:+d}")
        for c in checks:
            print(f"{'PASS' if c['passed'] else 'FAIL'} {c['name']}: {c['detail']}")
        if args.dump_matrices:
            for h, m in sorted(f.blocks.items()):
                print(f"degree {h}: {m.rows}x{m.cols} {dict(sorted(m.data.items()))}")
        print(f"# {report['elapsed']}s")
    return 0 if all(c["passed"] for c in checks) else 2


def cmd_verify(args) -> int:
    t0 = time.perf_counter()
    try:
        cap = _crossing_cap() if args.max_crossings is None else args.max_crossings
        if cap < 0:
            raise ValueError(f"--max-crossings must be a nonnegative integer, not {cap}")
    except ValueError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    checks = run_suite(args.suite, cap)
    counts = {
        "passed": sum(c.passed for c in checks),
        "skipped": sum(c.skipped for c in checks),
        "failed": sum(c.failed for c in checks),
    }
    if args.json:
        _print_json({
            "command": "verify",
            "suite": args.suite,
            "checks": [
                {
                    "name": c.name,
                    "passed": c.passed,
                    "skipped": c.skipped,
                    "detail": c.detail,
                    "elapsed": round(c.elapsed, 3),
                }
                for c in checks
            ],
            "counts": counts,
            "elapsed": round(time.perf_counter() - t0, 3),
        })
    else:
        for c in checks:
            print(f"{'PASS' if c.passed else 'SKIP' if c.skipped else 'FAIL'} {c.name}: {c.detail}")
        print(
            f"# {args.suite}: {counts['passed']}/{len(checks)} passed, {counts['skipped']} skipped,"
            f" {counts['failed']} failed, {time.perf_counter() - t0:.1f}s"
        )
    return 2 if counts["failed"] else 0


def main(argv=None) -> int:
    parser = _Parser(prog="oddkh", description="Odd Khovanov homology and link cobordism maps over the integers.")
    sub = parser.add_subparsers(dest="command", required=True)

    p_hom = sub.add_parser("homology", parents=[], help="homology table of a diagram", description="Compute the bigraded homology of a planar diagram code.")
    p_hom.add_argument("diagram", help="JSON file with a PD code, or - for stdin")
    p_hom.add_argument("--theory", choices=("x", "y"), default="y", help="which exceptional-face sign convention to use")
    p_hom.add_argument("--coeff", choices=("z", "z2", "q"), default="z", help="integer, mod-2, or rational coefficients")
    p_hom.add_argument(
        "--reduced",
        action="store_true",
        help="print reduced homology, with the component through the smallest arc marked;"
        " the full table is this one shifted by q+1 plus this one shifted by q-1",
    )
    p_hom.add_argument("--json", action="store_true", help="machine-readable output")
    p_hom.set_defaults(fn=cmd_homology)

    p_mov = sub.add_parser("movie", help="evaluate a cobordism movie script", description="Compose the chain maps of a movie script and run checks on the result.")
    p_mov.add_argument("script", help="JSON file with initial diagram and event list, or - for stdin")
    p_mov.add_argument("--theory", choices=("x", "y"), default="y")
    p_mov.add_argument("--check", choices=("chainmap", "identity-up-to-sign"), help="property to verify on the composite")
    p_mov.add_argument("--dump-matrices", action="store_true", help="include the composite's blocks in the report")
    p_mov.add_argument("--json", action="store_true", help="machine-readable output")
    p_mov.set_defaults(fn=cmd_movie)

    p_ver = sub.add_parser("verify", help="run a named verification suite", description="Run one of the bundled verification suites and report each check.")
    p_ver.add_argument("suite", choices=sorted(SUITES))
    p_ver.add_argument("--max-crossings", type=int, help="cap on fixture size (default: ODDKH_MAX_CROSSINGS, else 12)")
    p_ver.add_argument("--json", action="store_true", help="machine-readable output")
    p_ver.set_defaults(fn=cmd_verify)

    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        if isinstance(e.code, str):
            print(e.code, file=sys.stderr)
            return 1
        return 0 if not e.code else 1
    try:
        return args.fn(args)
    except AssertionError as e:
        # Invariant checks raise AssertionError explicitly, so this
        # holds under python -O as well.
        print(f"internal invariant violated: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
