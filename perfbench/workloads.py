"""Seeded inputs, timed jobs and their correctness checks, per workload.

A workload is a fixed list of jobs drawn from the seed.  Each job is a
JSON-able payload (a PD code, or a movie script, as the command line
would receive it) plus a kind that says which library calls it makes.
`run` is the timed part and calls the library only through module
attributes, so a traced run sees every call.  `summarize` keeps what
the checks need once the big intermediate objects are dropped, and
`check` compares it against independent oracles after timing ends.

Draws are stratified: each workload runs one job per stratum, and a
stratum is one link type in one problem size.  A two-bridge stratum
lists twist vectors whose diagrams have the same determinant and the
same chain generator count; a braid stratum is one word, of which the
seed picks a cyclic rotation (a relabelled crossing order of the same
closure) and its flip k -> n - k (conjugation by the half twist).  The
seed also picks the sign theory, arcs and moves.  So seeds differ in the
PD codes the library sees, not in how large the problems are, and a
run's figures do not depend on which seed drew them.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

from oddkh import cobordism, complexes, cube, fixtures, linalg, linkdiag, oracles

WORKLOADS = ("homology_z", "homology_mod2_wide", "cobordism_maps")

# Twist vectors of one two-bridge link type each; all vectors in a
# stratum give diagrams with the same generator count (in brackets).
TB6_DET11 = ((2, 1, 3), (1, 1, 1, 3), (3, 1, 2), (1, 2, 1, 2),
             (2, 1, 2, 1), (1, 1, 1, 2, 1), (3, 1, 1, 1), (1, 2, 1, 1, 1))         # [426]
TB7_DET17 = ((2, 2, 3), (1, 1, 2, 3), (3, 2, 2), (1, 2, 2, 2),
             (2, 2, 2, 1), (1, 1, 2, 2, 1), (3, 2, 1, 1), (1, 2, 2, 1, 1))         # [966]
TB7_DET14 = ((2, 1, 4), (1, 1, 1, 4), (4, 1, 2), (1, 3, 1, 2),
             (2, 1, 3, 1), (1, 1, 1, 3, 1), (4, 1, 1, 1), (1, 3, 1, 1, 1))         # [1236]
TB8_DET31 = ((2, 1, 1, 2, 2), (1, 1, 1, 1, 2, 2), (2, 2, 1, 1, 2), (1, 1, 2, 1, 1, 2),
             (2, 1, 1, 2, 1, 1), (1, 1, 1, 1, 2, 1, 1), (2, 2, 1, 1, 1, 1),
             (1, 1, 2, 1, 1, 1, 1))                                                # [2010]
TB8_DET29 = ((2, 2, 2, 2), (1, 1, 2, 2, 2), (2, 2, 2, 1, 1), (1, 1, 2, 2, 1, 1))    # [2082]
TB10_DET65 = ((2, 1, 2, 2, 3), (1, 1, 1, 2, 2, 3), (3, 2, 2, 1, 2), (1, 2, 2, 2, 1, 2),
              (2, 1, 2, 2, 2, 1), (1, 1, 1, 2, 2, 2, 1), (3, 2, 2, 1, 1, 1),
              (1, 2, 2, 2, 1, 1, 1))                                               # [13026]
TB10_DET52 = ((2, 1, 2, 1, 4), (1, 1, 1, 2, 1, 4), (4, 1, 2, 1, 2), (1, 3, 1, 2, 1, 2),
              (2, 1, 2, 1, 3, 1), (1, 1, 1, 2, 1, 3, 1), (4, 1, 2, 1, 1, 1),
              (1, 3, 1, 2, 1, 1, 1))                                               # [17508]
# Non-alternating braid words: (strands, word)            [generators]
BRAID3_A = (3, (-1, 2, 1, 2, 1, -2, 1, -2))                # [1602]
BRAID3_B = (3, (2, -1, 2, -1, -2, 1, 1, 2))                # [1842]
BRAID3_C = (3, (-2, -1, -1, 2, -1, -1, 2, -1))             # [2058]
BRAID4_A = (4, (-3, 2, -3, -1, -2, 3, 3, -1, -1, -2))      # [10572]
BRAID4_B = (4, (1, 3, -1, 3, 1, -2, -1, -3, -2, -3))       # [16644]

# Problem sizes close together, so the median and the slowest job are
# each near several others rather than alone in a gap.
HOMOLOGY_Z_STRATA = (TB7_DET14, TB8_DET31, TB8_DET29, BRAID3_A, BRAID3_B, BRAID3_C)
HOMOLOGY_MOD2_STRATA = (TB10_DET65, TB10_DET52, BRAID4_A, BRAID4_B)
MOVIE_HOSTS = TB7_DET17
DOT_HOSTS = TB6_DET11


def determinant(twists) -> int:
    """Numerator of the continued fraction [a1, ..., an] of a twist vector."""
    p0, p1 = 1, twists[-1]
    for a in reversed(twists[:-1]):
        p0, p1 = p1, a * p1 + p0
    return p1


def is_planar(crossings) -> bool:
    """Whether a PD code's counterclockwise slot order embeds in the sphere.

    Faces are the orbits of "follow the arc to its other end, then turn
    to the next slot"; each connected piece must have V - E + F = 2.
    """
    ends: dict[int, list] = {}
    for c, row in enumerate(crossings):
        for s, arc in enumerate(row):
            ends.setdefault(arc, []).append((c, s))
    parent = list(range(len(crossings)))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for (c1, _), (c2, _) in ends.values():
        parent[find(c1)] = find(c2)
    pieces = len({find(c) for c in range(len(crossings))})
    seen = set()
    faces = 0
    for start in ((c, s) for c in range(len(crossings)) for s in range(4)):
        if start in seen:
            continue
        faces += 1
        cur = start
        while cur not in seen:
            seen.add(cur)
            a, b = ends[crossings[cur[0]][cur[1]]]
            c2, s2 = b if a == cur else a
            cur = (c2, (s2 + 1) % 4)
    # V - E + F with E = 2V, summed over the pieces
    return faces - len(crossings) == 2 * pieces


def valid_pokes(diagram) -> list[tuple[int, int]]:
    """Ordered arc pairs (over, under) whose poke is a planar diagram."""
    out = []
    for a in diagram.arcs:
        for b in diagram.arcs:
            if a != b:
                poked, _ = cobordism.build_poke(diagram, a, b)
                if is_planar(poked.crossings):
                    out.append((a, b))
    return out


def chain_generators(d) -> int:
    """Generators of a diagram's complex: 2^circles summed over resolutions."""
    return sum(2 ** linkdiag.resolve(d, a).n_circles for a in range(1 << len(d.crossings)))


@dataclass
class Job:
    """One unit of timed work; `meta` holds generator-side facts for checks."""

    kind: str
    payload: dict
    meta: dict = field(default_factory=dict)

    def run(self):
        return RUNNERS[self.kind](self.payload)

    def summarize(self, out) -> dict:
        return SUMMARIZERS[self.kind](self, out)

    def check(self, summary: dict) -> list[str]:
        """Failed checks, as readable strings; empty when all pass."""
        return CHECKERS[self.kind](self, summary)


def _pd_payload(d) -> dict:
    return {"pd": [list(c) for c in d.crossings]}


def braid_variant(rng: random.Random, strands: int, word) -> list[int]:
    """A cyclic rotation of the word, flipped k -> n - k half of the time."""
    r = rng.randrange(len(word))
    w = list(word[r:] + word[:r])
    if rng.random() < 0.5:
        w = [(strands - abs(x)) * (1 if x > 0 else -1) for x in w]
    return w


def _diagram_job(kind: str, rng, stratum) -> Job:
    if isinstance(stratum[0], int):
        strands, word = stratum
        w = braid_variant(rng, strands, word)
        d = fixtures.braid_closure(w, strands)
        meta = {"source": f"braid_closure({w}, {strands})"}
    else:
        tw = rng.choice(stratum)
        d = fixtures.rational_knot(tw)
        meta = {"source": f"rational_knot({tw})", "det": determinant(tw)}
    return Job(kind, {**_pd_payload(d), "theory": rng.choice("xy")}, meta)


def _movie_jobs(rng) -> list[Job]:
    out = []
    for template in ("kink", "poke"):
        tw = rng.choice(MOVIE_HOSTS)
        host = fixtures.rational_knot(tw)
        if template == "kink":
            sign, side = rng.choice((1, -1)), rng.choice(("right", "left"))
            arc = rng.choice(host.arcs)
            kinked = linkdiag.insert_kink(host, arc, sign)
            events = [
                cobordism.dot_event(rng.choice(host.arcs)),
                cobordism.r1_event(arc, sign, "do", side),
                cobordism.dot_event(rng.choice(kinked.arcs)),
                cobordism.saddle_event(*[rng.choice(kinked.arcs)] * 2),
            ]
        else:
            # The planar pokes of a host fall into a few sizes; always
            # taking the largest keeps the problem size the same per seed.
            sizes = {p: chain_generators(cobordism.build_poke(host, *p)[0])
                     for p in valid_pokes(host)}
            pair = rng.choice(sorted(p for p, g in sizes.items() if g == max(sizes.values())))
            poked, _ = cobordism.build_poke(host, *pair)
            events = [
                cobordism.dot_event(rng.choice(host.arcs)),
                cobordism.r2_event(*pair),
                cobordism.dot_event(rng.choice(poked.arcs)),
            ]
        script = cobordism.script_to_dict(host, events)
        script["initial"].pop("signs", None)
        out.append(Job("movie", {"script": script, "theory": rng.choice("xy")},
                       {"source": f"rational_knot({tw})", "template": template}))
    return out


def _roundtrip_jobs(rng) -> list[Job]:
    out = []
    trefoil = fixtures.left_trefoil()
    # One curl of each sign: the sign sets the size of the homotopy
    # system, so every seed gets both sizes.
    for sign in (1, -1):
        out.append(Job("r1_roundtrip", {
            **_pd_payload(trefoil),
            "theory": rng.choice("xy"),
            "arc": rng.choice(trefoil.arcs),
            "sign": sign,
            "side": rng.choice(("right", "left")),
        }, {"source": "left_trefoil()"}))
    hopf = fixtures.hopf_link(1)
    out.append(Job("r2_roundtrip", {
        **_pd_payload(hopf),
        "theory": rng.choice("xy"),
        "arcs": list(rng.choice(valid_pokes(hopf))),
    }, {"source": "hopf_link(1)"}))
    return out


def _dots_job(rng) -> Job:
    tw = rng.choice(DOT_HOSTS)
    d = fixtures.rational_knot(tw)
    k = rng.randrange(len(d.crossings))
    t, sign = d.crossings[k], d.signs[k]
    over = [t[3], t[1]] if sign == 1 else [t[1], t[3]]
    return Job("dots", {**_pd_payload(d), "theory": rng.choice("xy"), "arcs": over},
               {"source": f"rational_knot({tw})", "crossing": k})


def make_jobs(workload: str, seed: int) -> list[Job]:
    """The job list of one workload; the same seed gives the same list."""
    rng = random.Random(f"{workload}:{seed}")
    if workload == "homology_z":
        return [_diagram_job("homology_z", rng, s) for s in HOMOLOGY_Z_STRATA]
    if workload == "homology_mod2_wide":
        return [_diagram_job("homology_mod2", rng, s) for s in HOMOLOGY_MOD2_STRATA]
    if workload == "cobordism_maps":
        return _movie_jobs(rng) + _roundtrip_jobs(rng) + [_dots_job(rng)]
    raise ValueError(f"unknown workload {workload!r}")


# --- timed parts -----------------------------------------------------------

def _complex(payload):
    d = linkdiag.parse_pd({"pd": payload["pd"]})
    return d, complexes.assemble_complex(cube.build_cube(d, payload["theory"]))


def run_homology_z(p):
    d, cx = _complex(p)
    return d, cx, complexes.homology(cx)


def run_homology_mod2(p):
    d, cx = _complex(p)
    return d, cx, complexes.reduce_coefficients(cx, 2)


def run_movie(p):
    initial, events = cobordism.script_from_dict(p["script"])
    return initial, events, cobordism.evaluate_movie(initial, events, p["theory"])


def run_r1_roundtrip(p):
    _, cx = _complex(p)
    do = cobordism.r1_cobordism_map(cx, p["arc"], p["sign"], "do", p["side"])
    undo = cobordism.r1_cobordism_map(do.dst, max(do.dst.cube.diagram.arcs), direction="undo")
    return _roundtrip(cx, do, undo)


def run_r2_roundtrip(p):
    _, cx = _complex(p)
    do = cobordism.r2_cobordism_map(cx, tuple(p["arcs"]), "do")
    host_arcs = set(cx.cube.diagram.arcs)
    mids = tuple(sorted(set(do.dst.cube.diagram.arcs) - host_arcs))[:2]
    undo = cobordism.r2_cobordism_map(do.dst, mids, "undo")
    return _roundtrip(cx, do, undo)


def _roundtrip(cx, do, undo):
    loop = complexes.compose(do, undo)
    s, H = complexes.homotopic_up_to_sign(loop, complexes.identity_chain_map(do.dst))
    return cx, do, undo, loop, s, H


def run_dots(p):
    _, cx = _complex(p)
    maps = [cobordism.dot_cobordism_map(cx, a) for a in p["arcs"]]
    return cx, [complexes.induced_map_on_homology(f) for f in maps]


RUNNERS = {
    "homology_z": run_homology_z,
    "homology_mod2": run_homology_mod2,
    "movie": run_movie,
    "r1_roundtrip": run_r1_roundtrip,
    "r2_roundtrip": run_r2_roundtrip,
    "dots": run_dots,
}


# --- summaries (untimed, taken after every run) ----------------------------

def generators(cx) -> int:
    return sum(cx.dim(h) for h in cx.degrees())


def _sum_homology(job, out):
    d, cx, table = out
    if not isinstance(table, dict):
        table = table.table
    return {
        "diagram": d,
        "euler": complexes.graded_euler_characteristic(cx),
        "table": dict(table),
        "gens": generators(cx),
        "digest": sorted(table.items()),
    }


def _map_digest(f) -> list:
    return sorted((h, sorted(m.data.items())) for h, m in f.blocks.items())


def _sum_movie(job, out):
    initial, events, res = out
    f = res.chain_map
    return {"initial": initial, "events": events, "digest": [f.q_shift, _map_digest(f)]}


def _sum_roundtrip(job, out):
    cx, do, undo, loop, s, H = out
    h_digest = None if H is None else sorted((h, sorted(m.data.items())) for h, m in H.items())
    return {"cx": cx, "do": do, "undo": undo, "loop": loop, "sign": s, "H": H,
            "gens": generators(cx) + generators(do.dst) + generators(undo.dst),
            "digest": [s, h_digest]}


def _sum_dots(job, out):
    cx, induced = out
    return {"induced": induced, "gens": generators(cx),
            "digest": [sorted((k, sorted(m.data.items())) for k, m in ind.items())
                       for ind in induced]}


SUMMARIZERS = {
    "homology_z": _sum_homology,
    "homology_mod2": _sum_homology,
    "movie": _sum_movie,
    "r1_roundtrip": _sum_roundtrip,
    "r2_roundtrip": _sum_roundtrip,
    "dots": _sum_dots,
}


# --- checks (untimed, after the timed loop) ---------------------------------

def uct_mod2(table: dict) -> dict:
    """Mod-2 dimensions implied by an integer table (d raises h).

    dim H^h(C; Z/2) = rank H^h + #even factors of H^h + #even factors of H^(h+1).
    """
    out: dict = {}
    for (h, q), (rank, torsion) in table.items():
        even = sum(1 for t in torsion if t % 2 == 0)
        for key, add in (((h, q), rank + even), ((h - 1, q), even)):
            if add:
                out[key] = out.get(key, 0) + add
    return out


def euler_of(table: dict) -> dict:
    out: dict = {}
    for (h, q), v in table.items():
        rank = v[0] if isinstance(v, tuple) else v
        out[q] = out.get(q, 0) + (-1 if h & 1 else 1) * rank
    return {q: c for q, c in out.items() if c}


def ors_failures(dims: dict, det: int, torsion_free: bool) -> list[str]:
    """Two-bridge links: free and thin, on two adjacent delta = q - 2h diagonals."""
    fails = []
    if not torsion_free:
        fails.append("two-bridge homology has torsion")
    total = sum(dims.values())
    if total != 2 * det:
        fails.append(f"total rank {total}, expected 2*det = {2 * det}")
    deltas = sorted({q - 2 * h for (h, q), v in dims.items() if v})
    if len(deltas) != 2 or deltas[1] - deltas[0] != 2:
        fails.append(f"delta gradings {deltas}, expected two values 2 apart")
    return fails


def _check_homology(job, s):
    fails = []
    d, table = s["diagram"], s["table"]
    bracket = oracles.kauffman_bracket(d).table
    if bracket != s["euler"]:
        fails.append("Kauffman bracket differs from the graded Euler characteristic")
    if euler_of(table) != s["euler"]:
        fails.append("homology table does not sum to the Euler characteristic")
    if job.kind == "homology_z":
        dims = {k: r for k, (r, _) in table.items() if r}
        mod2 = uct_mod2(table)
        torsion_free = not any(t for _, t in table.values())
    else:
        dims = mod2 = table
        torsion_free = True
    if oracles.even_khovanov_mod2(d) != mod2:
        fails.append("mod-2 table differs from the even Khovanov mod-2 oracle")
    if "det" in job.meta:
        fails += ors_failures(dims, job.meta["det"], torsion_free)
    return fails


def replay_failures(f, g, s, H) -> list[str]:
    """Whether f - s*g = dH + Hd holds block by block (the verify formula)."""
    if H is None:
        return ["no homotopy to either sign of the identity"]
    for h in set(f.blocks) | set(g.blocks) | set(H) | {h - 1 for h in H}:
        lhs = f.block(h) - g.block(h).scale(s)
        rhs = linalg.IntMatrix.zero(lhs.rows, lhs.cols)
        if h in H:
            rhs = rhs + f.dst.differential(h - 1) * H[h]
        if h + 1 in H:
            rhs = rhs + H[h + 1] * f.src.differential(h)
        if lhs != rhs:
            return [f"homotopy witness fails in degree {h}"]
    return []


def _check_roundtrip(job, s):
    fails = []
    do, undo = s["do"], s["undo"]
    if not (complexes.is_chain_map(do) and complexes.is_chain_map(undo)):
        fails.append("do or undo is not a chain map")
    if complexes.compose(undo, do) != complexes.identity_chain_map(s["cx"]):
        fails.append("undo after do is not the identity")
    fails += replay_failures(s["loop"], complexes.identity_chain_map(do.dst), s["sign"], s["H"])
    return fails


def _check_movie(job, s):
    """Replay the script event by event; every step must be a chain map."""
    fails = []
    total = complexes.identity_chain_map(
        complexes.assemble_complex(cube.build_cube(s["initial"], job.payload["theory"])))
    gens = generators(total.src)
    for event in s["events"]:
        step = cobordism.apply_event(total.dst, event)
        if not complexes.is_chain_map(step):
            fails.append(f"{event.kind} step is not a chain map")
        if step.dst is not total.dst:
            gens += generators(step.dst)
        total = complexes.compose(step, total)
    # The replay builds the same complexes, so equal blocks make the
    # timed result this very map.
    if not complexes.is_chain_map(total):
        fails.append("movie map is not a chain map")
    if [total.q_shift, _map_digest(total)] != s["digest"]:
        fails.append("movie map differs from the event-by-event composite")
    kinds = [e.kind for e in s["events"]]
    expected_shift = -2 * kinds.count("dot") - kinds.count("saddle")
    if s["digest"][0] != expected_shift:
        fails.append(f"quantum shift {s['digest'][0]}, expected {expected_shift}")
    s["gens"] = gens
    return fails


def _check_dots(job, s):
    a, b = s["induced"]
    if set(a) != set(b) or any(not (a[k] - b[k]).is_zero() for k in a):
        return ["the two arcs of the overpass induce different maps on homology"]
    if not a:
        return ["dot map induced nothing: homology is empty"]
    return []


CHECKERS = {
    "homology_z": _check_homology,
    "homology_mod2": _check_homology,
    "movie": _check_movie,
    "r1_roundtrip": _check_roundtrip,
    "r2_roundtrip": _check_roundtrip,
    "dots": _check_dots,
}
