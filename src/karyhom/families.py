"""Constructors for the nilpotent k-ary families the engine studies.

All structure constants are +1 on the defining (sorted) argument tuples;
any other consistent sign choice differs only by a basis change and
leaves every computed rank unchanged.

Each constructor checks its parameters, then counts the terms it would
allocate (basis elements plus bracket-key entries; for free2, also the
n entries of each basis element's weight vector; for a current
algebra, basis elements plus the C(j+k-1, k) products it forms per
bracket of its base) and refuses a count above cap before allocating
anything.  The free2 and current counts take C(n, k) from `_subsets`,
which may stop short of it, so their refusals say "at least".
"""

from collections import namedtuple
from itertools import combinations

from .algebra import DEFAULT_SIZE_CAP, KaryAlgebra, refuse_over_cap, sort_with_sign
from .errors import InputError, shown


def _build(family, *params, counted="basis elements and bracket terms"):
    """A build's refusal, each parameter written by `errors.shown`;
    `refuse_over_cap` puts the count at {}."""
    return f"building {family}({', '.join(map(shown, params))}) exceeds the size cap: {{}} {counted}"


def _subsets(n: int, k: int, cap: int) -> int:
    """C(n, k), or a partial product C(n, i) > cap with i <= min(k, n-k)
    once one passes cap, which C(n, k) then does too."""
    c = 1
    for i in range(min(k, n - k)):
        c = c * (n - i) // (i + 1)
        if c > cap:
            break
    return c


def heisenberg(k: int, m: int, *, cap=DEFAULT_SIZE_CAP) -> KaryAlgebra:
    """k-ary Heisenberg algebra: dim km+1, brackets [x^1_i,...,x^k_i] = z."""
    if k < 2 or m < 1:
        raise InputError(f"heisenberg needs k >= 2 and m >= 1, got ({shown(k)}, {shown(m)})")
    refuse_over_cap(2 * k * m + 1, cap, _build("heisenberg", k, m))
    labels = [f"x{j}_{i}" for j in range(1, k + 1) for i in range(1, m + 1)] + ["z"]
    z = k * m
    brackets = {}
    for i in range(m):
        args = tuple(j * m + i for j in range(k))
        brackets[args] = {z: 1}
    return KaryAlgebra(k, k * m + 1, labels, brackets)


def acj(k: int, m: int, *, cap=DEFAULT_SIZE_CAP) -> KaryAlgebra:
    """ACJ-type algebra: dim km+1, brackets [z, x^1_i,...,x^{k-1}_i] = x^k_i."""
    if k < 2 or m < 1:
        raise InputError(f"acj needs k >= 2 and m >= 1, got ({shown(k)}, {shown(m)})")
    refuse_over_cap(2 * k * m + 1, cap, _build("acj", k, m))
    labels = ["z"] + [
        f"x{j}_{i}" for j in range(1, k + 1) for i in range(1, m + 1)
    ]
    brackets = {}
    for i in range(m):
        args = (0,) + tuple(1 + j * m + i for j in range(k - 1))
        brackets[args] = {1 + (k - 1) * m + i: 1}
    return KaryAlgebra(k, k * m + 1, labels, brackets)


def free_two_step(k: int, n: int, *, cap=DEFAULT_SIZE_CAP) -> KaryAlgebra:
    """Free 2-step nilpotent k-ary algebra on an n-dim space V.

    Basis e_1..e_n plus w_S for every k-subset S; the only brackets are
    [e_{s_1},...,e_{s_k}] = w_S.  Carries the GL-torus grading
    e_i -> epsilon_i, w_S -> sum over S.
    """
    if k < 2:
        raise InputError(f"arity must be at least 2, got {shown(k)}")
    if n < k:
        raise InputError(f"free_two_step needs n >= k, got n={shown(n)} < k={shown(k)}")
    c = _subsets(n, k, cap)  # weights: n + c vectors of n entries
    what = _build("free_two_step", k, n, counted="basis elements, bracket terms and weight entries")
    refuse_over_cap(n + (k + 1) * c + (n + c) * n, cap, what, at_least=True)
    subsets = list(combinations(range(n), k))
    labels = [f"e{i + 1}" for i in range(n)] + [
        "w_" + "_".join(str(i + 1) for i in s) for s in subsets
    ]
    brackets = {}
    weights = {}
    for i in range(n):
        weights[i] = tuple(1 if j == i else 0 for j in range(n))
    for pos, s in enumerate(subsets):
        brackets[s] = {n + pos: 1}
        weights[n + pos] = tuple(1 if j in s else 0 for j in range(n))
    return KaryAlgebra(k, n + len(subsets), labels, brackets, weights)


def free_three_step_small(k: int, *, cap=DEFAULT_SIZE_CAP) -> KaryAlgebra:
    """Free 3-step nilpotent k-ary algebra on dim V = k (Hall basis).

    Basis: x_1..x_k (degree 1), y = [x_1,...,x_k] (degree k), and
    z_i = [x_1,...,^x_i,...,x_k, y] (degree 2k-1); brackets touching any
    z_i vanish.  Dimension 2k+1.
    """
    if k < 3:
        raise InputError(f"free_three_step_small needs k >= 3, got {shown(k)}")
    refuse_over_cap(2 * k + 1 + k * (k + 1), cap, _build("free_three_step_small", k))
    labels = (
        [f"x{i + 1}" for i in range(k)]
        + ["y"]
        + [f"z{i + 1}" for i in range(k)]
    )
    y = k
    brackets = {tuple(range(k)): {y: 1}}
    for i in range(k):
        args = tuple(j for j in range(k) if j != i) + (y,)
        brackets[args] = {k + 1 + i: 1}
    return KaryAlgebra(k, 2 * k + 1, labels, brackets)


def _exponents(k: int, j: int):
    """(ps, sum(ps)) for each k-tuple ps over range(j) with sum below j,
    in the order `itertools.product(range(j), repeat=k)` yields them."""
    if k == 1:
        for p in range(j):
            yield (p,), p
        return
    for head, s in _exponents(k - 1, j):
        for p in range(j - s):
            yield head + (p,), s + p


def current_algebra(alg: KaryAlgebra, j: int, *, cap=DEFAULT_SIZE_CAP) -> KaryAlgebra:
    """Truncated current algebra g (x) C[t]/t^j.

    Basis b (x) t^p for p in [0, j), at index p * n + b with n = dim g;
    the bracket multiplies exponents additively and vanishes once the
    exponent sum reaches j, so each bracket of g gives one product per
    exponent tuple with sum below j: C(j+k-1, k) of them, which the cap
    counts.

    The product of a key args with exponents ps has the index set
    {p_i * n + a_i}.  Each a_i < n, so an index x decodes to the pair
    (x mod n, x div n) = (a_i, p_i), and since args is strictly
    increasing the set gives back args and ps.  So no index repeats in
    a product's key, no two products share a key and no entry cancels:
    sorting each key with `sort_with_sign` and signing its vector is
    all that stands between the products and the constructor.
    """
    if j < 1:
        raise InputError(f"truncation must be at least 1, got {shown(j)}")
    products = len(alg.brackets) * _subsets(j + alg.arity - 1, alg.arity, cap)
    refuse_over_cap(j * alg.dim + products, cap, _build("current", alg, j), at_least=True)
    n = alg.dim
    labels = [f"{lab}.t{p}" for p in range(j) for lab in alg.labels]
    brackets = {}
    for args, vec in alg.brackets.items():
        for ps, s in _exponents(alg.arity, j):
            key, sign = sort_with_sign(p * n + a for p, a in zip(ps, args))
            brackets[key] = {s * n + w: sign * c for w, c in vec.items()}
    return KaryAlgebra(alg.arity, j * n, labels, brackets)


def abelian(k: int, n: int, *, cap=DEFAULT_SIZE_CAP) -> KaryAlgebra:
    """Abelian algebra of dimension n with arity-k (vanishing) bracket."""
    if k < 2 or n < 1:
        raise InputError(f"abelian needs k >= 2 and n >= 1, got ({shown(k)}, {shown(n)})")
    refuse_over_cap(n, cap, _build("abelian", k, n))
    return KaryAlgebra(k, n, [f"a{i + 1}" for i in range(n)], {})


# tag -> (constructor, the FamilySpec fields it takes, in order)
_FAMILIES = {
    "heisenberg": (heisenberg, ("k", "m")),
    "acj": (acj, ("k", "m")),
    "free2": (free_two_step, ("k", "n")),
    "free3small": (free_three_step_small, ("k",)),
    "current": (
        lambda inner, j, cap: current_algebra(inner.build(cap), j, cap=cap),
        ("inner", "j"),
    ),
    "abelian": (abelian, ("k", "n")),
}
FAMILY_TAGS = tuple(_FAMILIES)


class FamilySpec(namedtuple("FamilySpec", "tag k m n j inner", defaults=(None,) * 5)):
    """Parameter carrier for the constructors above (CLI-facing).

    An immutable, hashable record: tag, then the optional parameters
    k, m, n, j and inner (the spec of a current algebra's base).
    """

    __slots__ = ()

    def build(self, cap=DEFAULT_SIZE_CAP) -> KaryAlgebra:
        """Build the algebra, refusing a parameter its family does not
        take and a build over cap (see the module docstring)."""
        if self.tag not in _FAMILIES:
            raise InputError(f"unknown family {shown(self.tag)} (expected one of {FAMILY_TAGS})")
        constructor, params = _FAMILIES[self.tag]
        for name in ("k", "m", "n", "j", "inner"):
            given = getattr(self, name) is not None
            if given and name not in params:
                raise InputError(f"family {self.tag!r} does not take --{name}")
            if not given and name in params:
                raise InputError(f"family {self.tag!r} needs parameter --{name}")
        return constructor(*(getattr(self, name) for name in params), cap=cap)

    def describe(self) -> str:
        if self.tag == "current":
            return f"current({self.inner.describe()}, j={self.j})"
        params = [
            f"{name}={getattr(self, name)}"
            for name in ("k", "m", "n", "j")
            if getattr(self, name) is not None
        ]
        return f"{self.tag}({', '.join(params)})"
