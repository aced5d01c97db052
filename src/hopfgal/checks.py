"""Property suites shared by the command line verifier and the release
gate tests.

Each suite runs an enumerated or seed-controlled randomized batch of
law checks over the group corpus and reports every violation it finds;
an empty failure list means the batch passed.  Failures carry enough
text to replay the offending instance by hand.
"""

from __future__ import annotations

import random
from itertools import product

from .abelian import PrimeSet
from .bar import _Anick, _cell_faces, bar_boundary, homology
from .corpus import (PRESENTED, TRIVIAL_PRESENTED, canonical_name,
                     corpus_up_to, cyclic, dihedral, klein4, quaternion8)
from .cubes import (cube_from_normal_subgroups, delta_i, delta_inverse,
                    delta_square_commutes, interchange_holds, is_n_extension,
                    joint_kernel, kernel_of_morphism, rho_i)
from .errors import ValidationError
from .galois import GaloisContext, induced_gal_map, is_normal_ext, \
    is_trivial_ext
from .groups import (Subgroup, closure_P, identity_hom, inner_automorphism,
                     local_torsion_is_trivial,
                     surjections_up_to_precomposition)
from .freenil import free_nil_group
from .hopf import NilPresentation, hopf_pi_n
from .matrices import IntMatrix, bareiss_det, hnf, snf, snf_diagonal


class CheckReport:
    """Tally of one suite run: how many cases, which ones failed."""

    __slots__ = ("name", "cases", "failures")

    def __init__(self, name):
        self.name = name
        self.cases = 0
        self.failures = []

    @property
    def ok(self):
        return not self.failures

    def record(self, condition, detail):
        self.cases += 1
        if not condition:
            self.failures.append(detail)

    def summary(self):
        state = "pass" if self.ok else "FAIL (%d)" % len(self.failures)
        return "%-16s %5d cases  %s" % (self.name, self.cases, state)


# ---- presented corpus ------------------------------------------------------

def presented_nilpotent_corpus():
    """(name, presentation, group) for every nilpotent corpus member.

    The presentations are the inputs of the Hopf engine; the groups are
    what the bar oracle consumes.  Keeping them side by side is what
    makes the dual-route comparisons possible.
    """
    return [(name, NilPresentation(gens, rels, nclass), build())
            for name, build, gens, rels, nclass in PRESENTED]


def presentation_for(name):
    """The presentation on file for a corpus name or alias.

    >>> presentation_for("V4").relators
    ['x^2', 'y^2', '[x,y]']
    """
    key = canonical_name(name)
    for entry, _, gens, rels, nclass in (TRIVIAL_PRESENTED,) + PRESENTED:
        if entry.lower() == key:
            return NilPresentation(gens, rels, nclass)
    raise ValidationError("no presentation on file for %r" % (name,))


# ---- closure operator laws -------------------------------------------------

_PRIME_CHOICES = ([2], [3], [5], [2, 3], [2, 5], [3, 5])


def _random_closed_subgroup(rng, A):
    # any subgroup containing the derived subgroup is normal, which is
    # exactly the hypothesis the closure operator needs
    der = A.derived_subgroup()
    extra = rng.sample(range(A.order), rng.randint(0, min(2, A.order)))
    return A.generated_subgroup(sorted(set(der.members) | set(extra)))


def _closure_by_powers(A, K, primes):
    """The bracket-free route: elements with a local power inside K."""
    members = set(K.members)
    inside = []
    for a in A.elements():
        hits = any(primes.is_number(m) and A.power(a, m) in members
                   for m in range(1, A.order + 1))
        if hits:
            inside.append(a)
    return Subgroup(A, inside, _checked=True)


def check_closure_laws(count=500, seed=20260814):
    """Extensiveness, monotonicity, idempotence, openness, dual routes."""
    rng = random.Random(seed)
    report = CheckReport("closure")
    pool = [G for _, G in corpus_up_to(12)]
    while report.cases < count:
        A = rng.choice(pool)
        K = _random_closed_subgroup(rng, A)
        primes = PrimeSet(rng.choice(_PRIME_CHOICES))
        tag = "%r K=%r P=%r" % (A, K.members, sorted(primes.primes))
        cl = closure_P(A, K, primes)
        report.record(cl.contains_subgroup(K), "not extensive: " + tag)
        report.record(closure_P(A, cl, primes) == cl,
                      "not idempotent: " + tag)
        L = A.generated_subgroup(
            sorted(set(K.members) | {rng.randrange(A.order)}))
        report.record(closure_P(A, L, primes).contains_subgroup(cl),
                      "not monotone: " + tag)
        report.record(_closure_by_powers(A, K, primes) == cl,
                      "power route disagrees: " + tag)
        # openness along a genuine surjection: a quotient projection
        B, proj = A.quotient(_random_closed_subgroup(rng, A))
        KB = _random_closed_subgroup(rng, B)
        lifted = proj.preimage_of(closure_P(B, KB, primes))
        closed = closure_P(A, proj.preimage_of(KB), primes)
        report.record(lifted == closed, "not open: " + tag)
    return report


# ---- extension enumeration and its laws ------------------------------------

def enumerate_extensions(max_order=12):
    """Surjections between corpus groups, one per inner twist class."""
    groups = corpus_up_to(max_order)
    out = []
    for name_a, A in groups:
        for name_b, B in groups:
            if A.order % B.order or A.order < B.order:
                continue
            for f in surjections_up_to_precomposition(A, B):
                out.append((name_a, name_b, f))
    return out


def check_centrality(max_order=12, extensions=None):
    """normal <=> central kernel, and trivial => normal, plain context."""
    ctx = GaloisContext()
    report = CheckReport("centrality")
    if extensions is None:
        extensions = enumerate_extensions(max_order)
    for name_a, name_b, f in extensions:
        tag = "%s -> %s %r" % (name_a, name_b, f.mapping)
        normal = is_normal_ext(ctx, f)
        report.record(normal == f.kernel().is_central(),
                      "normal != central kernel: " + tag)
        if is_trivial_ext(ctx, f):
            report.record(normal, "trivial but not normal: " + tag)
    return report


def check_characterisation(max_order=12, primes=((2,), (3,)),
                           extensions=None):
    """Composite-context normality == central and locally torsion-free."""
    report = CheckReport("characterisation")
    if extensions is None:
        extensions = enumerate_extensions(max_order)
    for ps in primes:
        ctx = GaloisContext(ps)
        for name_a, name_b, f in extensions:
            ker, _ = f.kernel().as_group()
            want = (f.kernel().is_central()
                    and local_torsion_is_trivial(ker, ctx.primes))
            got = is_normal_ext(ctx, f)
            report.record(got == want,
                          "composite normality mismatch: %s -> %s %r P=%r"
                          % (name_a, name_b, f.mapping, list(ps)))
    return report


def check_baer_invariance(min_cases=100, max_order=12, extensions=None):
    """Lifts of the same base map induce the same Galois-group map.

    Inner automorphisms over central elements of the base are lifts of
    the identity; each must act as the identity on the Galois group.
    The Hopf side of the same invariance: presentations of one group
    agree in second homology.
    """
    report = CheckReport("baer")
    contexts = [GaloisContext(), GaloisContext([2])]
    if extensions is None:
        extensions = enumerate_extensions(max_order)
    for name_a, name_b, f in extensions:
        A, B = f.domain, f.codomain
        center_b = set(B.center().members)
        for ctx in contexts:
            base = induced_gal_map(ctx, f, f, identity_hom(A),
                                   identity_hom(B))
            for g in A.elements():
                if f(g) not in center_b:
                    continue
                lift = inner_automorphism(A, g)
                other = induced_gal_map(ctx, f, f, lift, identity_hom(B))
                report.record(other.mapping == base.mapping,
                              "lift pair disagrees: %s -> %s twist by %d"
                              % (name_a, name_b, g))
            if report.cases >= min_cases * 4:
                break
        if report.cases >= min_cases * 4:
            break
    two_gen = hopf_pi_n(presentation_for("Z2xZ2"), 1).value
    three_gen = hopf_pi_n(NilPresentation(
        ["x", "y", "z"], ["x^2", "y^2", "[x,y]", "zxy"], 1), 1).value
    report.record(two_gen == three_gen,
                  "presentation-dependent second homology: %r vs %r"
                  % (two_gen, three_gen))
    return report


# ---- cube laws -------------------------------------------------------------

def _normal_subgroups(G):
    seen = {}
    for a in G.elements():
        for b in G.elements():
            H = G.generated_subgroup([a, b])
            seen[H.members] = H
    return [H for H in seen.values() if H.is_normal()]


def check_cube_laws(count=200, seed=20260814):
    """Face/arrow roundtrips, interchange, both square routes, kernels."""
    rng = random.Random(seed)
    report = CheckReport("cubes")
    pool = [cyclic(4), cyclic(6), klein4(), dihedral(3), dihedral(4),
            quaternion8()]
    normals = {id(G): _normal_subgroups(G) for G in pool}
    while report.cases < count:
        G = rng.choice(pool)
        n = rng.choice((2, 2, 3))
        picks = [rng.choice(normals[id(G)]) for _ in range(n)]
        # the laws are stated for extensions, which some triples miss
        cube = cube_from_normal_subgroups(G, picks, check_extension=False)
        if not is_n_extension(cube):
            continue
        tag = "%r normals %r" % (G, [N.members for N in picks])
        for i in range(n):
            report.record(delta_inverse(delta_i(cube, i), i) == cube,
                          "arrow view roundtrip failed: " + tag)
        for i in range(n):
            for j in range(i + 1, n):
                if n >= 3:
                    report.record(interchange_holds(cube, i, j),
                                  "interchange failed: " + tag)
                report.record(delta_square_commutes(cube, i, j),
                              "face square does not commute: " + tag)
        K = sorted(joint_kernel(cube).members)
        for i in range(n):
            kcube, incl = kernel_of_morphism(delta_i(cube, i))
            full = (1 << (n - 1)) - 1
            via_delta = sorted(incl[full](k)
                               for k in joint_kernel(kcube).members)
            top = cube.faces[((1 << n) - 1, ((1 << n) - 1) & ~(1 << i))]
            via_rho = sorted(g for g in joint_kernel(rho_i(cube, i)).members
                             if top(g) == 0)
            report.record(via_delta == K == via_rho,
                          "kernel recursion failed: " + tag)
    return report


# ---- raw engine laws -------------------------------------------------------

def _random_word(rng, F):
    return F.word(tuple(rng.randint(-3, 3) for _ in F.letters))


def check_collection(count=1000, seed=20260814):
    """Group laws of collected multiplication, and agreement with the
    Magnus algebra model.

    Draws ceil(count / 3) triples of random words; each gives three
    group-law cases and one comparison with multiply_via_model, which
    share one collected u*v.
    """
    rng = random.Random(seed)
    report = CheckReport("collection")
    ambients = [free_nil_group(d, c)
                for d in range(1, 4) for c in range(1, 6)]
    for _ in range(-(-count // 3)):
        F = rng.choice(ambients)
        u, v, w = (_random_word(rng, F) for _ in range(3))
        tag = "rank %d class %d %r %r %r" % (F.rank, F.nclass, u, v, w)
        uv = u.mul(v)
        report.record(uv.mul(w) == u.mul(v.mul(w)),
                      "associativity failed: " + tag)
        report.record(u.mul(u.inverse()).is_identity(),
                      "inverse failed: " + tag)
        report.record(u.pow(3) == u.mul(u).mul(u),
                      "power failed: " + tag)
        report.record(uv == F.multiply_via_model(u, v),
                      "collection disagrees with the algebra model: " + tag)
    return report


def check_matrix_forms(count=120, seed=20260814):
    """The defining equations of both normal forms, on random input."""
    rng = random.Random(seed)
    report = CheckReport("matrices")
    while report.cases < count:
        m, n = rng.randint(1, 4), rng.randint(1, 4)
        A = IntMatrix([[rng.randint(-9, 9) for _ in range(n)]
                       for _ in range(m)])
        tag = repr(A.to_rows())
        D, U, V = snf(A)
        diag = [D.entry(i, i) for i in range(min(m, n))]
        off = all(D.entry(i, j) == 0
                  for i in range(m) for j in range(n) if i != j)
        chain = all(b % a == 0 for a, b in zip(diag, diag[1:]) if a)
        report.record(U.mul(A).mul(V) == D and off, "snf equation: " + tag)
        report.record(all(d >= 0 for d in diag) and chain,
                      "snf diagonal shape: " + tag)
        report.record(abs(bareiss_det(U)) == 1 and abs(bareiss_det(V)) == 1,
                      "snf transforms not unimodular: " + tag)
        H, W = hnf(A)
        report.record(W.mul(A) == H, "hnf equation: " + tag)
        report.record(abs(bareiss_det(W)) == 1,
                      "hnf transform not unimodular: " + tag)
    return report


def check_bar_differential(max_order=8):
    """Each (group, degree n) is one case that checks four lemmas of
    `bar.homology`: d after d vanishes on the normalized bar complex, its
    Morse matching is an involution along faces with coefficient +-1,
    the Morse differential squares to zero, and the Morse d_{n+1} has
    the non-unit invariant factors of the full d_{n+1}."""
    report = CheckReport("bar")
    for _, G in corpus_up_to(max_order):
        anick = _Anick(G)
        # the degree-4 boundary of an order-8 group is already a
        # 2401 x 343 matrix; cap the degree where the basis explodes
        top = 3 if G.order <= 6 else 2
        for n in range(1, top + 1):
            d_up = bar_boundary(G, n + 1)
            dd = d_up.mul(bar_boundary(G, n))
            m_up = anick.boundary(n + 1)
            mm = m_up.mul(anick.boundary(n))
            # each degree up to top + 1 once over the cases
            cells = [c for m in {1, n + 1}
                     for c in product(range(1, G.order), repeat=m)]
            detail = None
            if dd != IntMatrix.zero(dd.rows, dd.cols):
                detail = "d.d != 0 on %r at degree %d" % (G, n + 1)
            elif not all(_matched_back(anick, c) for c in cells):
                detail = ("the Morse matching on %r is not an involution "
                          "with unit faces up to degree %d" % (G, n + 1))
            elif mm != IntMatrix.zero(mm.rows, mm.cols):
                detail = "Morse d.d != 0 on %r at degree %d" % (G, n + 1)
            elif ([d for d in snf_diagonal(m_up) if d > 1]
                  != [d for d in snf_diagonal(d_up) if d > 1]):
                detail = ("Morse d_%d on %r has other invariant factors"
                          % (n + 1, G))
            report.record(detail is None, detail)
    return report


def _matched_back(anick, cell):
    """Whether a cell is critical, or matched back by its partner along
    a face with coefficient +-1."""
    partner, i = anick.match(cell)
    if partner is None:
        return True
    upper, lower = (partner, cell) if i > 0 else (cell, partner)
    return (anick.match(partner) == (cell, -i)
            and _cell_faces(anick.table, upper).get(lower) in (1, -1))


# ---- dual-engine glue ------------------------------------------------------

_LOCALIZATION_PRIME_SETS = ((), (2,), (3,), (2, 3))


def check_localization_identity(max_order=16):
    """Localized Hopf values match the oracle's torsion quotients."""
    report = CheckReport("localization")
    for name, pres, G in presented_nilpotent_corpus():
        if G.order > max_order:
            continue
        oracle = homology(G, 2)
        for ps in _LOCALIZATION_PRIME_SETS:
            got = hopf_pi_n(pres, n=1, primes=list(ps)).value
            want = oracle.quotient_by_torsion(PrimeSet(ps))
            report.record(got == want,
                          "localized mismatch on %s at P=%r: %r vs %r"
                          % (name, list(ps), got, want))
    return report


# ---- suite registry --------------------------------------------------------

def run_suite(names, seed=20260814, max_order=12):
    """Run the requested suites and return their reports in order.

    `names` is an iterable of suite names, or the words 'all' / 'none'.
    """
    registry = {
        "closure": lambda: check_closure_laws(seed=seed),
        "centrality": lambda: check_centrality(max_order),
        "characterisation": lambda: check_characterisation(max_order),
        "baer": lambda: check_baer_invariance(max_order=max_order),
        "cubes": lambda: check_cube_laws(seed=seed),
        "collection": lambda: check_collection(seed=seed),
        "matrices": lambda: check_matrix_forms(seed=seed),
        "bar": lambda: check_bar_differential(min(max_order, 8)),
        "localization": lambda: check_localization_identity(max_order),
    }
    if isinstance(names, str):
        names = [names]
    wanted = []
    for name in names:
        if name == "all":
            wanted.extend(registry)
        elif name == "none":
            continue
        elif name in registry:
            wanted.append(name)
        else:
            have = ", ".join([*registry, "all", "none"])
            raise ValidationError("unknown suite %r (have: %s)" % (name, have))
    seen = set()
    reports = []
    for name in wanted:
        if name in seen:
            continue
        seen.add(name)
        reports.append(registry[name]())
    return reports
