"""Independent cross-checks for the main pipeline.

Everything here re-derives its answer from scratch on purpose: circles
are counted by union-find on arc labels instead of the geometric walk,
the mod-2 theory uses the sign-free even state spaces instead of the
odd ones, and elementary divisors come from naive gcd elimination
instead of the Smith normal form routine.  The only shared surface is
the parsed diagram and the complex containers being checked.
"""

from __future__ import annotations

from collections import Counter
from fractions import Fraction
from math import comb, gcd

from .complexes import BigradedHomology, ChainComplex
from .linkdiag import LinkDiagram

__all__ = [
    "LaurentPolynomial",
    "kauffman_bracket",
    "even_khovanov_mod2",
    "brute_force_homology",
    "largest_block",
]

# The most generators ``brute_force_homology`` accepts in one (h, q) block.
BRUTE_FORCE_LIMIT = 60


def largest_block(c: ChainComplex) -> int:
    """The generator count of the largest (h, q) block of ``c``."""
    return max((n for h in c.degrees() for n in Counter(c.quantum_degrees(h)).values()), default=0)


class LaurentPolynomial:
    """A one-variable Laurent polynomial as {exponent: coefficient}.

    Zero coefficients are never stored, so equality is dict equality.
    """

    __slots__ = ("table",)

    def __init__(self, table: dict[int, int] | None = None):
        self.table = {e: c for e, c in (table or {}).items() if c}

    def __eq__(self, other: object) -> bool:
        if isinstance(other, LaurentPolynomial):
            return self.table == other.table
        return NotImplemented

    __hash__ = None

    def __add__(self, other: "LaurentPolynomial") -> "LaurentPolynomial":
        out = dict(self.table)
        for e, c in other.table.items():
            out[e] = out.get(e, 0) + c
        return LaurentPolynomial(out)

    def __mul__(self, other: "LaurentPolynomial") -> "LaurentPolynomial":
        out: dict[int, int] = {}
        for e1, c1 in self.table.items():
            for e2, c2 in other.table.items():
                out[e1 + e2] = out.get(e1 + e2, 0) + c1 * c2
        return LaurentPolynomial(out)

    def __repr__(self) -> str:
        if not self.table:
            return "0"
        parts = [f"{c}*q^{e}" for e, c in sorted(self.table.items())]
        return " + ".join(parts)


def _smoothing_joins(crossing: tuple, bit: int):
    a, b, c, d = crossing
    if bit:
        return (a, d), (b, c)
    return (a, b), (c, d)


def kauffman_bracket(d: LinkDiagram) -> LaurentPolynomial:
    """State-sum unnormalized Jones polynomial, graded like the complex.

    Each smoothing contributes (-1)^(w - n_minus) q^(w + n_plus - 2 n_minus)
    (q + 1/q)^circles where w is the smoothing weight.
    """
    table: dict[int, int] = {}
    shift = d.n_plus - 2 * d.n_minus
    for alpha in range(1 << d.n):
        w = alpha.bit_count()
        circles = len(_components(d, alpha)[1])
        sign = -1 if (w + d.n_minus) & 1 else 1
        for k in range(circles + 1):
            e = circles - 2 * k + w + shift
            table[e] = table.get(e, 0) + sign * comb(circles, k)
    return LaurentPolynomial(table)


def _components(d: LinkDiagram, alpha: int):
    """Arc partition of a smoothing: root per arc, circle keys sorted."""
    parent: dict[int, int] = {}

    def find(x: int) -> int:
        r = x
        while parent.setdefault(r, r) != r:
            r = parent[r]
        while parent[x] != r:
            parent[x], x = r, parent[x]
        return r

    for ci, cr in enumerate(d.crossings):
        for x, y in _smoothing_joins(cr, alpha >> ci & 1):
            parent[find(x)] = find(y)
    for a in d.free_arcs:
        find(a)
    root_of = {a: find(a) for a in parent}
    key_of_root: dict[int, int] = {}
    for a, r in root_of.items():
        key_of_root[r] = min(a, key_of_root.get(r, a))
    keys = sorted(key_of_root.values())
    index = {k: i for i, k in enumerate(keys)}
    circle_of = {a: index[key_of_root[r]] for a, r in root_of.items()}
    return circle_of, keys


def _even_edge_images(src, dst, mask: int):
    """Images of one basis mask under the sign-free even saddle map."""
    src_of, src_keys = src
    dst_of, dst_keys = dst
    if len(dst_keys) == len(src_keys) - 1:
        hit: dict[int, int] = {}
        out = 0
        for i, k in enumerate(src_keys):
            di = dst_of[k]
            if mask >> i & 1:
                if hit.get(di):
                    return []
                hit[di] = 1
                out |= 1 << di
            else:
                hit.setdefault(di, 0)
        return [out]
    # The split parent is the unique source circle under two targets.
    back: dict[int, list[int]] = {}
    for i, k in enumerate(dst_keys):
        back.setdefault(src_of[k], []).append(i)
    (parent_idx, pair), = ((s, t) for s, t in back.items() if len(t) == 2)
    base = 0
    for i, k in enumerate(dst_keys):
        if i in pair:
            continue
        if mask >> src_of[k] & 1:
            base |= 1 << i
    d0, d1 = pair
    if mask >> parent_idx & 1:
        return [base | 1 << d0 | 1 << d1]
    return [base | 1 << d0, base | 1 << d1]


def _bit_rank(columns: list[int]) -> int:
    pivots: dict[int, int] = {}
    rank = 0
    for v in columns:
        while v:
            b = v.bit_length() - 1
            if b in pivots:
                v ^= pivots[b]
            else:
                pivots[b] = v
                rank += 1
                break
    return rank


def even_khovanov_mod2(d: LinkDiagram) -> dict:
    """Bigraded dimensions of the sign-free even theory over GF(2).

    Merge and split are the symmetric Frobenius maps, which need no
    ordering data, so the whole cube is assembled without any of the
    machinery being checked.
    """
    shift = d.n_plus - 2 * d.n_minus
    comps = {alpha: _components(d, alpha) for alpha in range(1 << d.n)}
    basis: dict[int, list] = {}
    qdeg: dict[int, list] = {}
    for alpha in range(1 << d.n):
        h = alpha.bit_count() - d.n_minus
        circles = len(comps[alpha][1])
        for m in range(1 << circles):
            basis.setdefault(h, []).append((alpha, m))
            qdeg.setdefault(h, []).append(circles - 2 * m.bit_count() + alpha.bit_count() + shift)
    index = {h: {g: i for i, g in enumerate(v)} for h, v in basis.items()}
    cols: dict[int, list] = {h: [0] * len(v) for h, v in basis.items()}
    for h, gens in basis.items():
        if h + 1 not in index:
            continue
        tgt = index[h + 1]
        for j, (alpha, mask) in enumerate(gens):
            acc = 0
            for c in range(d.n):
                if alpha >> c & 1:
                    continue
                beta = alpha | 1 << c
                for out in _even_edge_images(comps[alpha], comps[beta], mask):
                    acc ^= 1 << tgt[beta, out]
            cols[h][j] = acc
    dims: dict[tuple[int, int], int] = {}
    for h, qs in qdeg.items():
        for q in set(qs):
            here = [j for j, qq in enumerate(qs) if qq == q]
            out_rank = _bit_rank([cols[h][j] for j in here])
            prev = [
                cols[h - 1][j]
                for j, qq in enumerate(qdeg.get(h - 1, []))
                if qq == q
            ]
            in_rank = _bit_rank(prev)
            dim = len(here) - out_rank - in_rank
            if dim:
                dims[h, q] = dim
    return dims


def _rational_rank(rows: list[list[int]]) -> int:
    work = [[Fraction(v) for v in r] for r in rows if any(r)]
    ncols = len(rows[0]) if rows else 0
    rank = 0
    for col in range(ncols):
        pivot = next((i for i in range(rank, len(work)) if work[i][col]), None)
        if pivot is None:
            continue
        work[rank], work[pivot] = work[pivot], work[rank]
        prow = work[rank]
        for i in range(len(work)):
            if i != rank and work[i][col]:
                f = work[i][col] / prow[col]
                work[i] = [a - f * b for a, b in zip(work[i], prow)]
        rank += 1
    return rank


def _naive_divisors(rows: list[list[int]]) -> list[int]:
    """Elementary divisors by repeated gcd elimination on a dense copy."""
    m = [list(r) for r in rows]
    found: list[int] = []
    while True:
        entries = [
            (abs(v), i, j)
            for i, row in enumerate(m)
            for j, v in enumerate(row)
            if v
        ]
        if not entries:
            break
        _, pi, pj = min(entries)
        m[0], m[pi] = m[pi], m[0]
        for row in m:
            row[0], row[pj] = row[pj], row[0]
        p = m[0][0]
        dirty = False
        for i in range(1, len(m)):
            if m[i][0]:
                f = m[i][0] // p
                m[i] = [a - f * b for a, b in zip(m[i], m[0])]
                if m[i][0]:
                    dirty = True
        for j in range(1, len(m[0])):
            if m[0][j]:
                f = m[0][j] // p
                for row in m:
                    row[j] -= f * row[0]
                if m[0][j]:
                    dirty = True
        if dirty:
            continue
        found.append(abs(p))
        m = [row[1:] for row in m[1:]]
        if not m or not m[0]:
            break
    while True:
        for i in range(len(found)):
            for j in range(i + 1, len(found)):
                a, b = found[i], found[j]
                if b % a:
                    g = gcd(a, b)
                    found[i], found[j] = g, a * b // g
                    break
            else:
                continue
            break
        else:
            break
    return sorted(found)


def brute_force_homology(c: ChainComplex) -> BigradedHomology:
    """Homology of a small complex by dense elementary elimination."""
    largest = largest_block(c)
    if largest > BRUTE_FORCE_LIMIT:
        raise ValueError(f"size guard exceeded: an (h, q) block of {largest} > {BRUTE_FORCE_LIMIT}")
    table = {}
    for h, q in c.gradings():
        here = c.q_block(h, q)
        prev = c.q_block(h - 1, q)
        nxt = c.q_block(h + 1, q)
        din = c.differential(h - 1)
        dout = c.differential(h)
        in_rows = [[din[i, j] for j in prev] for i in here]
        out_rows = [[dout[i, j] for j in here] for i in nxt]
        free = len(here) - _rational_rank(out_rows) - _rational_rank(in_rows)
        torsion = tuple(v for v in _naive_divisors(in_rows) if v > 1)
        if free or torsion:
            table[h, q] = (free, torsion)
    return BigradedHomology(table)
