"""Named verification suites over the bundled diagram corpus.

Each suite returns a list of checks with pass/fail verdicts and enough
detail to see what was measured; a check that did not run, such as a
brute-force comparison above its size guard, is reported as skipped,
neither passed nor failed.  The command line front end prints
them; the test suite runs the same functions, so a green acceptance run
and a green ``verify`` run are the same evidence.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass

from .cobordism import (
    birth_cobordism_map,
    death_cobordism_map,
    dot_cobordism_map,
    r1_cobordism_map,
    r2_cobordism_map,
    relabel_chain_iso,
    saddle_cobordism_map,
)
from .complexes import (
    assemble_complex,
    compose,
    equal_up_to_sign,
    graded_euler_characteristic,
    homology,
    homology_presentation,
    homotopic_up_to_sign,
    identity_chain_map,
    induced_map_on_homology,
    is_chain_map,
    reduce_coefficients,
    replay_homotopy,
    zero_chain_map,
)
from .cube import arrow_flipped_signs, build_cube, enumerate_sign_assignments, solve_sign_assignment
from .fixtures import (
    add_free_circle,
    figure_eight,
    hopf_link,
    insert_kink,
    left_trefoil,
    prime_knot,
    prime_knot_table,
    reidemeister_pairs,
    right_trefoil,
    unknot,
    unlink,
)
from .linalg import IntMatrix
from .oracles import BRUTE_FORCE_LIMIT, brute_force_homology, even_khovanov_mod2, kauffman_bracket, largest_block


@dataclass(frozen=True)
class Check:
    name: str
    passed: bool
    detail: str
    elapsed: float = 0.0
    skipped: bool = False

    @property
    def failed(self) -> bool:
        return not (self.passed or self.skipped)


def named_diagrams(max_crossings: int) -> list:
    """The fixture corpus, capped by crossing count."""
    out = [
        ("unknot", unknot()),
        ("unlink2", unlink(2)),
        ("unlink3", unlink(3)),
        ("hopf_positive", hopf_link(1)),
        ("hopf_negative", hopf_link(-1)),
        ("trefoil_left", left_trefoil()),
        ("trefoil_right", right_trefoil()),
        ("figure_eight", figure_eight()),
    ]
    out += [(name, prime_knot(name)) for name in sorted(prime_knot_table()) if name > "4"]
    return [(n, d) for n, d in out if len(d.crossings) <= max_crossings]


def _cx(diagram, theory="y"):
    return assemble_complex(build_cube(diagram, theory))


def _run(checks, name, fn):
    """Run one check; ``fn`` returns (passed, detail), passed None if it did not run."""
    t0 = time.perf_counter()
    try:
        passed, detail = fn()
    except Exception as e:  # a crashed check is a failed check
        passed, detail = False, f"{type(e).__name__}: {e}"
    checks.append(Check(name, bool(passed), detail, time.perf_counter() - t0, passed is None))


def run_signs(max_crossings: int = 12) -> list[Check]:
    """Coherent edge-sign counts and choice independence."""
    checks: list[Check] = []
    counted = [
        ("one_crossing", insert_kink(unknot(), 1, 1), 2),
        ("two_crossings", hopf_link(1), 8),
        ("three_crossings", left_trefoil(), 128),
    ]
    for name, d, expected in counted:
        def count(d=d, expected=expected):
            got = len(enumerate_sign_assignments(build_cube(d)))
            return got == expected, f"{got} coherent assignments, expected {expected}"
        _run(checks, f"count_{name}", count)

    rng = random.Random(7)
    hosts = [("hopf_positive", hopf_link(1)), ("trefoil_left", left_trefoil()), ("figure_eight", figure_eight())]
    hosts = [(n, d) for n, d in hosts if len(d.crossings) <= max_crossings]
    for name, d in hosts:
        cube = build_cube(d)
        base_eps = solve_sign_assignment(cube)
        base = homology(assemble_complex(cube, base_eps)).table

        def vary_signs(cube=cube, base_eps=base_eps, base=base):
            agree = 0
            for _ in range(5):
                eta = {a: rng.choice((1, -1)) for a in cube.vertices()}
                eps = {(a, c): v * eta[a] * eta[a | 1 << c] for (a, c), v in base_eps.items()}
                if homology(assemble_complex(cube, eps)).table == base:
                    agree += 1
            return agree == 5, f"{agree}/5 random coherent assignments agree"
        _run(checks, f"sign_choice_{name}", vary_signs)

        def vary_arrows(cube=cube, base=base, n=len(d.crossings)):
            agree = 0
            for _ in range(5):
                rev = [c for c in range(n) if rng.random() < 0.5] or [0]
                eps = arrow_flipped_signs(cube, rev)
                if homology(assemble_complex(cube, eps)).table == base:
                    agree += 1
            return agree == 5, f"{agree}/5 random arrow reversals agree"
        _run(checks, f"arrow_choice_{name}", vary_arrows)
    return checks


def run_invariance(max_crossings: int = 12) -> list[Check]:
    """Homology across Reidemeister pairs and between the two theories."""
    checks: list[Check] = []
    for name, before, after in reidemeister_pairs():
        def pair(before=before, after=after):
            a = homology(_cx(before)).table
            b = homology(_cx(after)).table
            return a == b, f"{sum(r for r, _ in a.values())} total rank on both sides"
        _run(checks, f"reidemeister_{name}", pair)

    for name, d in named_diagrams(min(max_crossings, 7)):
        def theories(d=d):
            return homology(_cx(d, "y")) == homology(_cx(d, "x")), "type x equals type y"
        _run(checks, f"theories_agree_{name}", theories)
    return checks


def _witnessed_homotopy(f, g, missing):
    """The sign s with f homotopic to s times g, its witness replayed.

    Returns (s, None), or (None, why): ``missing`` when no homotopy to
    either sign of g exists, else the degree where the witness fails.
    """
    s, H = homotopic_up_to_sign(f, g)
    if H is None:
        return None, missing
    h = replay_homotopy(f, g, s, H)
    if h is not None:
        return None, f"witness fails in degree {h}"
    return s, None


def run_functoriality(max_crossings: int = 12) -> list[Check]:
    """Every elementary map is a chain map; composite laws hold."""
    checks: list[Check] = []
    trefoil_circle, _ = add_free_circle(left_trefoil())
    hopf_circle, _ = add_free_circle(hopf_link(1))

    def chain_map_on(builder, hosts, label):
        def inner():
            for hostname, make in hosts:
                f = builder(make())
                if not is_chain_map(f):
                    return False, f"{label} fails on {hostname}"
            return True, f"chain map on {len(hosts)} hosts"
        return inner

    _run(checks, "birth", chain_map_on(
        birth_cobordism_map,
        [("unknot", lambda: _cx(unknot())), ("hopf", lambda: _cx(hopf_link(1))), ("trefoil", lambda: _cx(left_trefoil()))],
        "birth"))
    _run(checks, "death", chain_map_on(
        lambda cx: death_cobordism_map(cx, max(cx.cube.diagram.free_arcs)),
        [("unlink1", lambda: _cx(unlink(1))), ("unlink2", lambda: _cx(unlink(2))), ("hopf_circle", lambda: _cx(hopf_circle))],
        "death"))
    _run(checks, "saddle_merge", chain_map_on(
        lambda cx: saddle_cobordism_map(cx, min(cx.cube.diagram.arcs), max(cx.cube.diagram.arcs)),
        [("unlink2", lambda: _cx(unlink(2))), ("hopf_circle", lambda: _cx(hopf_circle)), ("trefoil_circle", lambda: _cx(trefoil_circle))],
        "merge saddle"))
    _run(checks, "saddle_split", chain_map_on(
        lambda cx: saddle_cobordism_map(cx, 1, 1),
        [("unlink1", lambda: _cx(unlink(1))), ("hopf", lambda: _cx(hopf_link(1))), ("trefoil", lambda: _cx(left_trefoil()))],
        "split saddle"))
    _run(checks, "dot", chain_map_on(
        lambda cx: dot_cobordism_map(cx, min(cx.cube.diagram.arcs)),
        [("unknot", lambda: _cx(unknot())), ("hopf", lambda: _cx(hopf_link(1))), ("trefoil", lambda: _cx(left_trefoil()))],
        "dot"))

    def round_trip(hosts, build):
        """On every host, ``build(*args)`` gives (cx, do, undo): both must be
        chain maps, undo after do the identity, and do after undo
        homotopic to the identity with its witness replayed."""
        def inner():
            replayed = []
            for hostname, *args in hosts:
                cx, do, undo = build(*args)
                if not (is_chain_map(do) and is_chain_map(undo)):
                    return False, f"not a chain map on {hostname}"
                if compose(undo, do) != identity_chain_map(cx):
                    return False, f"undo after do is not the identity on {hostname}"
                label, loop = f"do after undo on {hostname}", compose(do, undo)
                s, why = _witnessed_homotopy(loop, identity_chain_map(loop.src), "no homotopy to either sign of the identity")
                if s is None:
                    return False, f"{label}: {why}"
                replayed.append(f"{label}: homotopic to {s:+d} times the identity, witness replayed")
            return True, "; ".join(replayed)
        return inner

    r1_hosts = [("unknot", unknot()), ("hopf", hopf_link(1)), ("trefoil", left_trefoil())]
    for sign in (1, -1):
        for side in ("right", "left"):
            def r1(host, sign=sign, side=side):
                cx = _cx(host)
                do = r1_cobordism_map(cx, min(host.arcs), sign, "do", side)
                return cx, do, r1_cobordism_map(do.dst, max(do.dst.cube.diagram.arcs), direction="undo")
            _run(checks, f"r1_sign{sign:+d}_{side}", round_trip(r1_hosts, r1))

    def r2(host, arcs):
        cx = _cx(host)
        do = r2_cobordism_map(cx, arcs, "do")
        mids = tuple(sorted(set(do.dst.cube.diagram.arcs) - set(host.arcs)))[:2]
        return cx, do, r2_cobordism_map(do.dst, mids, "undo")

    r2_variants = {
        "first_over": [("unlink2", unlink(2), (1, 2)), ("trefoil", left_trefoil(), (1, 4)), ("hopf", hopf_link(1), (4, 1))],
        "first_under": [("unlink2", unlink(2), (2, 1)), ("hopf", hopf_link(1), (2, 3)), ("trefoil_right", right_trefoil(), (1, 2))],
    }
    for variant, hosts in r2_variants.items():
        _run(checks, f"r2_{variant}", round_trip(hosts, r2))

    def mm11(host):
        def inner():
            cx = _cx(host)
            b = birth_cobordism_map(cx)
            s = saddle_cobordism_map(b.dst, min(host.arcs), max(b.dst.cube.diagram.arcs))
            return compose(s, b) == identity_chain_map(cx), "birth then merge is the identity"
        return inner

    _run(checks, "mm11_unknot", mm11(unlink(1)))
    _run(checks, "mm11_hopf", mm11(hopf_link(1)))

    def mm12():
        empty = _cx(unlink(0))
        b = birth_cobordism_map(empty)
        left = compose(r1_cobordism_map(b.dst, 1, 1, "do", "right"), b)
        right = compose(r1_cobordism_map(b.dst, 1, 1, "do", "left"), b)
        iso = relabel_chain_iso(left.dst, right.dst, {1: 3, 3: 1})
        sign = equal_up_to_sign(compose(iso, left), right)
        return sign == -1, f"curl on either side of the born circle: overall sign {sign}"
    _run(checks, "mm12_forward", mm12)

    def two_deaths(host, a1, a2):
        def inner():
            cx = _cx(host)
            d1, d2 = death_cobordism_map(cx, a1), death_cobordism_map(cx, a2)
            ab = compose(death_cobordism_map(d1.dst, a2), d1)
            ba = compose(death_cobordism_map(d2.dst, a1), d2)
            sign = equal_up_to_sign(ab, ba)
            return sign == -1, f"either order, overall sign {sign}"
        return inner

    _run(checks, "deaths_anticommute_unlink", two_deaths(unlink(2), 1, 2))
    hopf2, _ = add_free_circle(hopf_circle)
    _run(checks, "deaths_anticommute_hopf", two_deaths(hopf2, 5, 6))

    def two_pinches(host, a1, a2, swap):
        def inner():
            cx = _cx(host)
            s1, s2 = saddle_cobordism_map(cx, a1, a1), saddle_cobordism_map(cx, a2, a2)
            ab = compose(saddle_cobordism_map(s1.dst, a2, a2), s1)
            ba = compose(saddle_cobordism_map(s2.dst, a1, a1), s2)
            iso = relabel_chain_iso(ba.dst, ab.dst, swap)
            sign = equal_up_to_sign(ab, compose(iso, ba))
            return sign == -1, f"after matching offspring labels, overall sign {sign}"
        return inner

    _run(checks, "pinches_anticommute_unlink2", two_pinches(unlink(2), 1, 2, {1: 1, 2: 2, 3: 4, 4: 3}))
    _run(checks, "pinches_anticommute_unlink3", two_pinches(unlink(3), 1, 3, {1: 1, 2: 2, 3: 3, 4: 5, 5: 4}))

    def death_vs_saddle(host, live, dying, split, expected):
        def inner():
            cx = _cx(host)
            arcs = (live, live) if split else live
            sd = saddle_cobordism_map(cx, *arcs)
            de = death_cobordism_map(cx, dying)
            ab = compose(death_cobordism_map(sd.dst, dying), sd)
            ba = compose(saddle_cobordism_map(de.dst, *arcs), de)
            if split:
                arcs_a = sorted(ba.dst.cube.diagram.arcs)
                arcs_b = sorted(ab.dst.cube.diagram.arcs)
                ba_fixed = compose(relabel_chain_iso(ba.dst, ab.dst, dict(zip(arcs_a, arcs_b))), ba)
            else:
                ba_fixed = ba
            sign = equal_up_to_sign(ab, ba_fixed)
            return sign == expected, f"overall sign {sign}, expected {expected}"
        return inner

    _run(checks, "death_commutes_with_split_unlink", death_vs_saddle(unlink(2), 1, 2, True, 1))
    _run(checks, "death_commutes_with_split_hopf", death_vs_saddle(hopf2, 5, 6, True, 1))
    _run(checks, "death_anticommutes_with_merge_unlink", death_vs_saddle(unlink(3), (1, 2), 3, False, -1))
    hopf3, _ = add_free_circle(hopf2)
    _run(checks, "death_anticommutes_with_merge_hopf", death_vs_saddle(hopf3, (5, 6), 7, False, -1))
    return checks


def _modulo_orders(cx, k, m: IntMatrix) -> IntMatrix:
    """A dot map's matrix on homology at k = (h, q), rows reduced by their orders.

    Row i is the target generator i of homology at (h, q - 2); a torsion
    generator's entries are taken modulo its order, so a combination of
    induced maps is compared as a map into the target group.
    """
    orders = homology_presentation(cx, k[0], k[1] - 2).orders
    return IntMatrix(m.rows, m.cols, {(i, j): v % orders[i] if orders[i] else v for (i, j), v in m.data.items()})


def overpass_relations(d, cx, induced: dict):
    """Whether the dots on the two arcs of every overpass agree on homology.

    ``induced`` maps each arc to its dot's induced maps on the homology
    of ``cx``.  Returns (passed, detail).
    """
    for t, sign in zip(d.crossings, d.signs):
        over_in, over_out = (t[3], t[1]) if sign == 1 else (t[1], t[3])
        for k in induced[over_in]:
            if not _modulo_orders(cx, k, induced[over_in][k] - induced[over_out][k]).is_zero():
                return False, f"arcs {over_in} and {over_out} differ at {k}"
    return True, "the two arcs of every overpass agree on homology"


def crossing_relations(d, cx, induced: dict):
    """Whether twice the overpass dot equals the two understrand dots, on homology.

    ``induced`` is as in ``overpass_relations``.  Returns (passed, detail).
    """
    for t, sign in zip(d.crossings, d.signs):
        over_in = t[3] if sign == 1 else t[1]
        for k in induced[over_in]:
            rel = induced[over_in][k].scale(2) - induced[t[0]][k] - induced[t[2]][k]
            if not _modulo_orders(cx, k, rel).is_zero():
                return False, f"crossing {t} fails at {k}"
    return True, "twice the overpass equals the two understrand arcs, on homology"


def run_dots(max_crossings: int = 12) -> list[Check]:
    """The dotted-cobordism algebra and the induced coloring relations."""
    checks: list[Check] = []

    def squares(host, name):
        def inner():
            cx = _cx(host)
            f = dot_cobordism_map(cx, min(host.arcs))
            ok = compose(f, f) == zero_chain_map(cx, cx, q_shift=-4)
            return ok, "one dot twice is zero"
        return inner

    for name, host in [("unknot", unknot()), ("hopf", hopf_link(1)), ("trefoil", left_trefoil())]:
        _run(checks, f"dot_squares_to_zero_{name}", squares(host, name))

    def anticommute(host, a, b, name):
        def inner():
            cx = _cx(host)
            f, g = dot_cobordism_map(cx, a), dot_cobordism_map(cx, b)
            ok = compose(f, g) + compose(g, f) == zero_chain_map(cx, cx, q_shift=-4)
            return ok, f"dots on arcs {a} and {b} anticommute"
        return inner

    _run(checks, "dots_anticommute_hopf", anticommute(hopf_link(1), 1, 2, "hopf"))
    _run(checks, "dots_anticommute_trefoil", anticommute(left_trefoil(), 1, 4, "trefoil"))

    d = left_trefoil()
    cx = _cx(d)
    induced = {a: induced_map_on_homology(dot_cobordism_map(cx, a)) for a in sorted(d.arcs)}
    _run(checks, "overpass_arc_relations", lambda: overpass_relations(d, cx, induced))
    _run(checks, "crossing_relations", lambda: crossing_relations(d, cx, induced))

    def over_slide():
        t, sign = d.crossings[0], d.signs[0]
        over_in, over_out = (t[3], t[1]) if sign == 1 else (t[1], t[3])
        f, g = dot_cobordism_map(cx, over_in), dot_cobordism_map(cx, over_out)
        s, why = _witnessed_homotopy(f, g, "no homotopy between the slid dots")
        if s is None:
            return False, why
        return True, f"dot slides over the crossing with sign {s:+d}, witness replayed"
    _run(checks, "dot_slides_over_crossing", over_slide)
    return checks


def run_hecke(max_crossings: int = 12) -> list[Check]:
    """The quadratic relation for the twist on two parallel strands."""
    checks: list[Check] = []
    cx = _cx(unlink(2))
    do = r2_cobordism_map(cx, (1, 2), "do")
    g = compose(r2_cobordism_map(do.dst, (1, 2), "undo"), do)

    def not_scalar():
        ok = g != identity_chain_map(cx) and g.scale(-1) != identity_chain_map(cx)
        return ok, "the twist is not plus or minus the identity"
    _run(checks, "twist_not_scalar", not_scalar)

    def quadratic():
        induced = induced_map_on_homology(g)
        solutions = []
        for s in (1, -1):
            shifted = {k: m.scale(s) + IntMatrix.identity(m.rows) for k, m in induced.items()}
            if all((n * n).is_zero() for n in shifted.values()):
                nonzero = any(not n.is_zero() for n in shifted.values())
                solutions.append((s, nonzero))
        if len(solutions) != 1:
            return False, f"{len(solutions)} signs satisfy the relation"
        s, nonzero = solutions[0]
        if not nonzero:
            return False, "the relation holds only vacuously"
        return True, f"(g + {s})^2 = 0 on homology for exactly one sign, nontrivially"
    _run(checks, "twist_quadratic_relation", quadratic)

    def capcup_squares():
        merge = saddle_cobordism_map(cx, 1, 2)
        split = saddle_cobordism_map(merge.dst, 1, 1)
        capcup = compose(split, merge)
        ok = compose(capcup, capcup) == zero_chain_map(cx, cx, q_shift=-4)
        return ok, "pinch after merge squares to zero"
    _run(checks, "capcup_squares_to_zero", capcup_squares)
    return checks


def run_oracles(max_crossings: int = 12) -> list[Check]:
    """Cross-checks against independently computed answers."""
    checks: list[Check] = []
    for name, d in named_diagrams(min(max_crossings, 7)):
        def euler(d=d):
            cx = _cx(d)
            ok = kauffman_bracket(d).table == graded_euler_characteristic(cx)
            return ok, "state sum equals the graded Euler characteristic"
        _run(checks, f"euler_{name}", euler)

        def mod2(d=d):
            cx = _cx(d)
            ok = reduce_coefficients(cx, 2) == even_khovanov_mod2(d)
            return ok, "mod-2 homology equals the even-theory trace"
        _run(checks, f"mod2_{name}", mod2)

        def brute(d=d):
            cx = _cx(d)
            largest = largest_block(cx)
            if largest > BRUTE_FORCE_LIMIT:
                return None, f"skipped, an (h, q) block of {largest} above the brute-force guard"
            ok = homology(cx) == brute_force_homology(cx)
            return ok, f"row reduction agrees at total rank {sum(cx.dim(h) for h in cx.degrees())}"
        _run(checks, f"brute_force_{name}", brute)
    return checks


SUITES = {
    "signs": run_signs,
    "invariance": run_invariance,
    "functoriality": run_functoriality,
    "dots": run_dots,
    "hecke": run_hecke,
    "oracles": run_oracles,
}


def run_suite(name: str, max_crossings: int = 12) -> list[Check]:
    if name not in SUITES:
        raise ValueError(f"unknown suite {name!r}; choose from {sorted(SUITES)}")
    return SUITES[name](max_crossings)
