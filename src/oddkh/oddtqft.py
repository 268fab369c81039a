"""State spaces of smoothings and the elementary surgery maps.

Each circle of a smoothing contributes one anticommuting generator; the
state space is the exterior algebra on those generators over Z.  A
monomial is stored as a bitmask over the space's sorted key list, and
the basis is ordered by (weight, mask) so gradings come out contiguous.

Merging circles is generator substitution, splitting wedges the
difference of the two offspring generators onto a lift, a birth is the
inclusion, a death is contraction against the dying generator, and a
dot wedges one generator on the left.  All signs follow from those
descriptions; none are chosen ad hoc here.
"""

from __future__ import annotations

from functools import cache

__all__ = [
    "ExteriorSpace",
    "monomial_order",
    "TqftMap",
    "vertex_space",
    "relabel_term",
    "split_terms",
    "relabel_map",
    "merge_map",
    "split_map",
    "birth_map",
    "death_map",
    "dot_map",
    "compose",
]


@cache
def monomial_order(k: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """(order, rank) of the exterior algebra on k generators, one pair per k.

    ``order`` lists the 2^k masks by (weight, mask), and ``rank[mask]``
    is the mask's place in it.
    """
    order = tuple(sorted(range(1 << k), key=lambda m: (m.bit_count(), m)))
    # The inverse permutation: positions sorted by the mask they hold.
    return order, tuple(sorted(range(1 << k), key=order.__getitem__))


class ExteriorSpace:
    """Exterior algebra on one generator per circle key, in the shared ``monomial_order``."""

    __slots__ = ("keys", "k", "dim", "pos")

    def __init__(self, keys):
        self.keys = tuple(sorted(keys))
        if len(set(self.keys)) != len(self.keys):
            raise ValueError("duplicate circle keys")
        self.k = len(self.keys)
        self.dim = 1 << self.k
        self.pos = {key: i for i, key in enumerate(self.keys)}

    def basis(self) -> tuple[int, ...]:
        return monomial_order(self.k)[0]

    def basis_index(self) -> tuple[int, ...]:
        """Each mask's position in ``basis()``, indexed by the mask."""
        return monomial_order(self.k)[1]

    def __eq__(self, other):
        if not isinstance(other, ExteriorSpace):
            return NotImplemented
        return self.keys == other.keys

    def __hash__(self):
        return hash(self.keys)

    def __repr__(self):
        return f"ExteriorSpace({self.k} circles)"


def vertex_space(resolution) -> ExteriorSpace:
    """State space of a smoothing, keyed by each circle's smallest arc."""
    return ExteriorSpace(
        resolution.circle_key(i) for i in range(resolution.n_circles)
    )


class TqftMap:
    """A Z-linear map between state spaces, stored column by column.

    ``columns`` maps a source monomial mask to a tuple of
    (coefficient, target mask) pairs with no zero coefficients and no
    repeated targets; missing masks map to zero.
    """

    __slots__ = ("src", "dst", "columns")

    def __init__(self, src: ExteriorSpace, dst: ExteriorSpace, columns):
        self.src = src
        self.dst = dst
        self.columns = {
            m: tuple(sorted(terms)) for m, terms in columns.items() if terms
        }

    def apply(self, mask: int):
        return self.columns.get(mask, ())

    def is_zero(self) -> bool:
        return not self.columns

    def scale(self, s: int) -> "TqftMap":
        if s == 0:
            return TqftMap(self.src, self.dst, {})
        return TqftMap(
            self.src,
            self.dst,
            {m: tuple((s * c, m2) for c, m2 in t) for m, t in self.columns.items()},
        )

    def __eq__(self, other):
        if not isinstance(other, TqftMap):
            return NotImplemented
        return (
            self.src == other.src
            and self.dst == other.dst
            and self.columns == other.columns
        )

    def __hash__(self):
        raise TypeError("unhashable")

    def __repr__(self):
        return f"TqftMap({self.src.k}->{self.dst.k} circles, {len(self.columns)} columns)"


def _column(terms: dict[int, int]):
    return tuple(sorted((c, m) for m, c in terms.items() if c))


def compose(g: TqftMap, f: TqftMap) -> TqftMap:
    """g after f."""
    if f.dst != g.src:
        raise ValueError("composition space mismatch")
    columns = {}
    for mask, terms in f.columns.items():
        acc: dict[int, int] = {}
        for c, m in terms:
            for c2, m2 in g.columns.get(m, ()):
                acc[m2] = acc.get(m2, 0) + c * c2
        col = _column(acc)
        if col:
            columns[mask] = col
    return TqftMap(f.src, g.dst, columns)


def relabel_term(src: ExteriorSpace, dst: ExteriorSpace, key_map, mask: int):
    """Push a monomial through a key substitution.

    Returns (sign, new mask) or None when two generators collide.  The
    sign is the parity of inversions among the image positions, which is
    what sorting the substituted generators back into ascending order
    costs.
    """
    positions = []
    for i in range(src.k):
        if (mask >> i) & 1:
            positions.append(dst.pos[key_map[src.keys[i]]])
    sign = 1
    out = 0
    for idx, p in enumerate(positions):
        bit = 1 << p
        if out & bit:
            return None
        below = out & (bit - 1)
        # Generators already placed above p must hop over this one.
        if (idx - below.bit_count()) & 1:
            sign = -sign
        out |= bit
    return sign, out


def relabel_map(src: ExteriorSpace, dst: ExteriorSpace, key_map) -> TqftMap:
    """Substitution of generators along a key correspondence.

    With an injective correspondence this is the relabeling isomorphism
    onto a subalgebra; a two-to-one correspondence is exactly the merge
    multiplication, collisions killing the monomial.
    """
    columns = {}
    for mask in range(src.dim):
        term = relabel_term(src, dst, key_map, mask)
        if term is not None:
            sign, out = term
            columns[mask] = ((sign, out),)
    return TqftMap(src, dst, columns)


def merge_map(src: ExteriorSpace, dst: ExteriorSpace, key_map) -> TqftMap:
    """Fuse circles along a surjective key correspondence."""
    image = set(key_map.values())
    if image != set(dst.keys):
        raise ValueError("merge correspondence must cover the target")
    return relabel_map(src, dst, key_map)


def _wedge(space: ExteriorSpace, key, mask: int):
    """Left wedge by one generator; None if it already appears."""
    p = space.pos[key]
    bit = 1 << p
    if mask & bit:
        return None
    sign = -1 if (mask & (bit - 1)).bit_count() & 1 else 1
    return sign, mask | bit


def split_map(
    src: ExteriorSpace,
    dst: ExteriorSpace,
    parent_key,
    child0_key,
    child1_key,
    key_map=None,
) -> TqftMap:
    """Divide one circle in two.

    A monomial is lifted along parent -> child0 and the difference of
    the two child generators is wedged on from the left.  The outcome
    does not depend on which child carries the lift.
    """
    lift = {k: k for k in src.keys if k != parent_key}
    if key_map:
        lift.update(key_map)
    lift[parent_key] = child0_key
    columns = {}
    for mask in range(src.dim):
        col = split_terms(src, dst, lift, child0_key, child1_key, mask)
        if col:
            columns[mask] = col
    return TqftMap(src, dst, columns)


def split_terms(src, dst, lift, child0_key, child1_key, mask):
    """One column of a split, as a tuple of (coeff, mask) terms.

    The lift must already send the parent to child0 and everything else
    injectively into the target.
    """
    lifted = relabel_term(src, dst, lift, mask)
    if lifted is None:
        raise AssertionError("injective lift collided")
    s0, lmask = lifted
    acc: dict[int, int] = {}
    w0 = _wedge(dst, child0_key, lmask)
    if w0 is not None:
        acc[w0[1]] = acc.get(w0[1], 0) + s0 * w0[0]
    w1 = _wedge(dst, child1_key, lmask)
    if w1 is not None:
        acc[w1[1]] = acc.get(w1[1], 0) - s0 * w1[0]
    return _column(acc)


def birth_map(src: ExteriorSpace, dst: ExteriorSpace, new_key) -> TqftMap:
    """Inclusion induced by a new circle appearing."""
    if new_key not in dst.pos or new_key in src.pos:
        raise ValueError("new key must be fresh in the target")
    return relabel_map(src, dst, {k: k for k in src.keys})


def death_map(src: ExteriorSpace, dst: ExteriorSpace, dead_key) -> TqftMap:
    """Contraction against a disappearing circle's generator.

    Callers supply any overall sign separately; this is the bare left
    contraction.
    """
    if dead_key not in src.pos or dead_key in dst.pos:
        raise ValueError("dead key must leave the target")
    rest = {k: k for k in src.keys if k != dead_key}
    bit = 1 << src.pos[dead_key]
    columns = {}
    for mask in range(src.dim):
        if mask & bit:
            # The sign of wedging the dead generator back on from the left.
            sign = _wedge(src, dead_key, mask ^ bit)[0]
            s2, out = relabel_term(src, dst, rest, mask ^ bit)
            columns[mask] = ((sign * s2, out),)
    return TqftMap(src, dst, columns)


def dot_map(space: ExteriorSpace, key) -> TqftMap:
    """Left wedge by one circle's generator."""
    columns = {}
    for mask in range(space.dim):
        w = _wedge(space, key, mask)
        if w is not None:
            columns[mask] = ((w[0], w[1]),)
    return TqftMap(space, space, columns)
