"""Constructors for the nilpotent k-ary families the engine studies.

All structure constants are +1 on the defining (sorted) argument tuples;
any other consistent sign choice differs only by a basis change and
leaves every computed rank unchanged.
"""

from __future__ import annotations

from collections import namedtuple
from itertools import combinations, product

from .algebra import KaryAlgebra
from .errors import InputError
from .util import sort_with_sign


def heisenberg(k: int, m: int) -> KaryAlgebra:
    """k-ary Heisenberg algebra: dim km+1, brackets [x^1_i,...,x^k_i] = z."""
    if k < 2 or m < 1:
        raise InputError(f"heisenberg needs k >= 2 and m >= 1, got ({k}, {m})")
    labels = [f"x{j}_{i}" for j in range(1, k + 1) for i in range(1, m + 1)] + ["z"]
    z = k * m
    brackets = {}
    for i in range(m):
        args = tuple(j * m + i for j in range(k))
        brackets[args] = {z: 1}
    return KaryAlgebra(k, k * m + 1, labels, brackets)


def acj(k: int, m: int) -> KaryAlgebra:
    """ACJ-type algebra: dim km+1, brackets [z, x^1_i,...,x^{k-1}_i] = x^k_i."""
    if k < 2 or m < 1:
        raise InputError(f"acj needs k >= 2 and m >= 1, got ({k}, {m})")
    labels = ["z"] + [
        f"x{j}_{i}" for j in range(1, k + 1) for i in range(1, m + 1)
    ]
    brackets = {}
    for i in range(m):
        args = (0,) + tuple(1 + j * m + i for j in range(k - 1))
        brackets[args] = {1 + (k - 1) * m + i: 1}
    return KaryAlgebra(k, k * m + 1, labels, brackets)


def free_two_step(k: int, n: int) -> KaryAlgebra:
    """Free 2-step nilpotent k-ary algebra on an n-dim space V.

    Basis e_1..e_n plus w_S for every k-subset S; the only brackets are
    [e_{s_1},...,e_{s_k}] = w_S.  Carries the GL-torus grading
    e_i -> epsilon_i, w_S -> sum over S.
    """
    if k < 2:
        raise InputError(f"arity must be at least 2, got {k}")
    if n < k:
        raise InputError(f"free_two_step needs n >= k, got n={n} < k={k}")
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


def free_three_step_small(k: int) -> KaryAlgebra:
    """Free 3-step nilpotent k-ary algebra on dim V = k (Hall basis).

    Basis: x_1..x_k (degree 1), y = [x_1,...,x_k] (degree k), and
    z_i = [x_1,...,^x_i,...,x_k, y] (degree 2k-1); brackets touching any
    z_i vanish.  Dimension 2k+1.
    """
    if k < 3:
        raise InputError(f"free_three_step_small needs k >= 3, got {k}")
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


def current_algebra(alg: KaryAlgebra, j: int) -> KaryAlgebra:
    """Truncated current algebra g (x) C[t]/t^j.

    Basis b (x) t^p for p in [0, j); the bracket multiplies exponents
    additively and vanishes once the exponent sum reaches j.
    """
    if j < 1:
        raise InputError(f"truncation must be at least 1, got {j}")
    n = alg.dim
    labels = [f"{lab}.t{p}" for p in range(j) for lab in alg.labels]
    items = []
    for args, vec in alg.brackets.items():
        for ps in product(range(j), repeat=alg.arity):
            s = sum(ps)
            if s >= j:
                continue
            new_args, sign = sort_with_sign(
                tuple(p * n + a for p, a in zip(ps, args))
            )
            items.append((new_args, {s * n + w: sign * c for w, c in vec.items()}))
    return KaryAlgebra.from_brackets(alg.arity, j * n, labels, items)


def abelian(k: int, n: int) -> KaryAlgebra:
    """Abelian algebra of dimension n with arity-k (vanishing) bracket."""
    if k < 2 or n < 1:
        raise InputError(f"abelian needs k >= 2 and n >= 1, got ({k}, {n})")
    return KaryAlgebra(k, n, [f"a{i + 1}" for i in range(n)], {})


# tag -> (constructor, the FamilySpec fields it takes, in order)
_FAMILIES = {
    "heisenberg": (heisenberg, ("k", "m")),
    "acj": (acj, ("k", "m")),
    "free2": (free_two_step, ("k", "n")),
    "free3small": (free_three_step_small, ("k",)),
    "current": (lambda inner, j: current_algebra(inner.build(), j), ("inner", "j")),
    "abelian": (abelian, ("k", "n")),
}
FAMILY_TAGS = tuple(_FAMILIES)


class FamilySpec(namedtuple("FamilySpec", "tag k m n j inner", defaults=(None,) * 5)):
    """Parameter carrier for the constructors above (CLI-facing).

    An immutable, hashable record: tag, then the optional parameters
    k, m, n, j and inner (the spec of a current algebra's base).
    """

    __slots__ = ()

    def build(self) -> KaryAlgebra:
        """Build the algebra, refusing a parameter its family does not take."""
        if self.tag not in _FAMILIES:
            raise InputError(f"unknown family {self.tag!r} (expected one of {FAMILY_TAGS})")
        constructor, params = _FAMILIES[self.tag]
        for name in ("k", "m", "n", "j", "inner"):
            given = getattr(self, name) is not None
            if given and name not in params:
                raise InputError(f"family {self.tag!r} does not take --{name}")
            if not given and name in params:
                raise InputError(f"family {self.tag!r} needs parameter --{name}")
        return constructor(*(getattr(self, name) for name in params))

    def describe(self) -> str:
        if self.tag == "current":
            return f"current({self.inner.describe()}, j={self.j})"
        params = [
            f"{name}={getattr(self, name)}"
            for name in ("k", "m", "n", "j")
            if getattr(self, name) is not None
        ]
        return f"{self.tag}({', '.join(params)})"
