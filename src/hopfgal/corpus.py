"""Named reference groups used by the test corpus and the CLI.

Everything is produced by constructors rather than shipped tables, so the
corpus cannot drift from the group operations.  The two standing corpora:

* nilpotent_corpus: the groups of PRESENTED, whose homology both engines
  can reach (cyclic 2..16, the two-generator abelian examples, D4, Q8);
* full_corpus: adds the symmetric groups S3 and S4, which only the
  finite-group paths (bar homology, Galois checks) consume.
"""

from __future__ import annotations

from functools import partial
from math import prod

from .errors import SizeLimitError, ValidationError
from .groups import DirectProduct, FiniteGroup, from_permutations


def cyclic(n):
    """Z/n with addition mod n.

    >>> cyclic(4).element_order(1)
    4
    """
    if n < 1:
        raise ValidationError("order must be positive")
    return FiniteGroup([[(i + j) % n for j in range(n)] for i in range(n)],
                       name="Z%d" % n, validate=False)


def dihedral(n):
    """Dihedral group of order 2n: rotations r^i and reflections r^i s.

    Index i + n*j encodes r^i s^j; s r s = r^-1.

    >>> dihedral(4).order
    8
    >>> dihedral(3).is_abelian()
    False
    """
    if n < 1:
        raise ValidationError("need n >= 1")

    def mul(x, y):
        i, j = x % n, x // n
        k, l = y % n, y // n
        return (i + (k if j == 0 else -k)) % n + n * ((j + l) % 2)

    return FiniteGroup([[mul(x, y) for y in range(2 * n)]
                        for x in range(2 * n)],
                       name="D%d" % n, validate=False)


_QUNITS = (
    (1, 0, 0, 0), (-1, 0, 0, 0),
    (0, 1, 0, 0), (0, -1, 0, 0),
    (0, 0, 1, 0), (0, 0, -1, 0),
    (0, 0, 0, 1), (0, 0, 0, -1),
)


def quaternion8():
    """The quaternion group {+-1, +-i, +-j, +-k}.

    >>> Q8 = quaternion8()
    >>> Q8.center().members
    (0, 1)
    >>> sorted(set(Q8.element_order(g) for g in Q8.elements()))
    [1, 2, 4]
    """
    index = {u: i for i, u in enumerate(_QUNITS)}

    def mul(u, v):
        a1, b1, c1, d1 = u
        a2, b2, c2, d2 = v
        return (a1 * a2 - b1 * b2 - c1 * c2 - d1 * d2,
                a1 * b2 + b1 * a2 + c1 * d2 - d1 * c2,
                a1 * c2 - b1 * d2 + c1 * a2 + d1 * b2,
                a1 * d2 + b1 * c2 - c1 * b2 + d1 * a2)

    table = [[index[mul(u, v)] for v in _QUNITS] for u in _QUNITS]
    return FiniteGroup(table, name="Q8", validate=False)


def symmetric(n):
    """Symmetric group on n points, n <= 4.

    >>> symmetric(3).order
    6
    >>> symmetric(4).derived_subgroup().members == tuple(range(24))
    False
    """
    if n < 1 or n > 4:
        raise ValidationError("symmetric corpus covers n <= 4 only")
    if n == 1:
        return cyclic(1)
    gens = [tuple([1, 0] + list(range(2, n)))]
    if n > 2:
        gens.append(tuple(list(range(1, n)) + [0]))
    G = from_permutations(n, gens)
    return FiniteGroup(G.table, name="S%d" % n, validate=False)


def abelian(orders):
    """Direct product of cyclic groups of the given orders.

    >>> abelian([2, 4]).abelian_invariants()
    FgAbelianGroup(0, [2, 4])
    """
    orders = list(orders)
    if not orders:
        return cyclic(1)
    G = cyclic(orders[0])
    for m in orders[1:]:
        G = DirectProduct(G, cyclic(m)).group
    name = "x".join("Z%d" % m for m in orders)
    return FiniteGroup(G.table, name=name, validate=False)


def klein4():
    return abelian([2, 2])


# The presented nilpotent corpus, one row per group: name, group builder,
# then the generators, relators and class bound of its presentation.  The
# groups feed the bar oracle and the presentations the Hopf engine, so the
# two engines are compared group by group.
PRESENTED = tuple(
    [("Z%d" % n, partial(cyclic, n), ["x"], ["x^%d" % n], 1)
     for n in range(2, 17)]
    + [("Z2xZ2", klein4, ["x", "y"], ["x^2", "y^2", "[x,y]"], 1),
       ("Z2xZ4", partial(abelian, [2, 4]), ["x", "y"],
        ["x^2", "y^4", "[x,y]"], 1),
       ("Z3xZ3", partial(abelian, [3, 3]), ["x", "y"],
        ["x^3", "y^3", "[x,y]"], 1),
       ("D4", partial(dihedral, 4), ["r", "s"], ["r^4", "s^2", "[r,s]r^2"],
        2),
       ("Q8", quaternion8, ["a", "b"], ["a^4", "a^2b^2", "[a,b]a^2"], 2)])

# the trivial group has a presentation too, but is no corpus member
TRIVIAL_PRESENTED = ("Z1", partial(cyclic, 1), ["x"], ["x"], 1)

_NAMED = {name.lower(): build
          for name, build, *_ in (TRIVIAL_PRESENTED,) + PRESENTED}
_NAMED.update({"d%d" % n: partial(dihedral, n) for n in range(1, 9)})
_NAMED.update({"s%d" % n: partial(symmetric, n) for n in range(1, 5)})

_ALIASES = {"trivial": "z1", "v4": "z2xz2",
            **{"c%d" % n: "z%d" % n for n in range(1, 17)}}


def canonical_name(name):
    """The lower-case corpus key of a name or alias: 'V4' -> 'z2xz2'."""
    key = name.lower()
    return _ALIASES.get(key, key)


def product_orders(name, max_order=None):
    """The factor orders of a product name such as 'Z2xZ6', read off the
    name and held to `max_order`; None for a name that is no such product.
    """
    parts = canonical_name(name).split("x")
    if len(parts) < 2 or not all(p.startswith("z") and p[1:].isdigit()
                                 for p in parts):
        return None
    orders = [int(p[1:]) for p in parts]
    if max_order is not None and prod(orders) > max_order:
        raise SizeLimitError("order %d of %r exceeds the bound %d"
                             % (prod(orders), name, max_order))
    return orders


def named_group(name, max_order=None):
    """Look up a corpus group by name or alias (case-insensitive).

    Product names compose with 'x': 'Z2xZ6' builds the product, after
    its order, read off the factors, is checked against `max_order`.

    >>> named_group("Z2xZ2000", max_order=24)
    Traceback (most recent call last):
        ...
    hopfgal.errors.SizeLimitError: order 4000 of 'Z2xZ2000' exceeds the \
bound 24
    """
    key = canonical_name(name)
    if key in _NAMED:
        return _NAMED[key]()
    orders = product_orders(name, max_order)
    if orders is not None:
        return abelian(orders)
    raise ValidationError("unknown group name: %r" % (name,))


def nilpotent_corpus():
    """The nilpotent groups of order <= 16 both homology engines cover."""
    return [(name, build()) for name, build, *_ in PRESENTED]


def full_corpus():
    """Nilpotent corpus plus the symmetric groups S3 and S4."""
    return nilpotent_corpus() + [("S3", symmetric(3)), ("S4", symmetric(4))]


def corpus_up_to(max_order):
    return [(name, G) for name, G in full_corpus() if G.order <= max_order]


def is_integer(x):
    """A JSON integer: an int that is not a bool (so not true or 1.0)."""
    return isinstance(x, int) and not isinstance(x, bool)


def _integer_rows(obj, key):
    rows = obj[key]
    if not (isinstance(rows, list) and all(
            isinstance(row, list) and all(is_integer(x) for x in row)
            for row in rows)):
        raise ValidationError("%r must be a list of integer lists" % key)
    return rows


def group_from_json(obj, max_order=None):
    """Accepts a name, a multiplication table, or permutation generators.

    Anything else, including JSON that is not an object, is a
    ValidationError.  A name is looked up under `max_order`, as in
    named_group.
    """
    if not isinstance(obj, dict):
        raise ValidationError("a group description must be a JSON object")
    if "name" in obj:
        if not isinstance(obj["name"], str):
            raise ValidationError("'name' must be a string")
        return named_group(obj["name"], max_order)
    if "table" in obj:
        G = FiniteGroup(_integer_rows(obj, "table"))
        order = obj.get("order", G.order)
        if not is_integer(order):
            raise ValidationError("'order' must be an integer")
        if order != G.order:
            raise ValidationError("order field says %r but the table has "
                                  "%d elements" % (order, G.order))
        return G
    if "generators" in obj:
        if not is_integer(obj.get("degree")):
            raise ValidationError("'generators' needs an integer 'degree'")
        return from_permutations(obj["degree"],
                                 _integer_rows(obj, "generators"))
    raise ValidationError("unrecognized group description")
